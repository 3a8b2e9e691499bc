"""Reference-example verification suites for every module.

Each suite_* function returns a list of (check name, bool) pairs that
compare computed objects against the library's embedded reference values
(famous triangles, published curve points, the shipped solution tables).
run_all() aggregates them; report() gives them to the `verify-all` CLI
command as a Report record, and the acceptance tests read them too.  A
suite that restates a command's checks reads that command's record and
its checks().
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from math import gcd

from . import (
    cassini,
    conics,
    fermat,
    footprints,
    recurrence,
    sequences,
    tangent,
    triples,
    trinity,
)
from .elliptic import Point, curve_en
from .triples import RatTriangle

__all__ = ["run_all", "SUITES", "report"]

F = Fraction


# the reference values of every suite are built once, when the module is imported
_DERIVED_2_1 = (
    RatTriangle("15/2", "136/15", "353/30"),
    RatTriangle("40/3", "123/20", "881/60"),
    RatTriangle("24/5", "35/12", "337/60"),
)
_DISTANCE_ROOT_2_1 = F(193, 30)
_CONCORDANT_2_1 = ((706, 120, 994, 94, 34), (881, 120, 1169, 431, 41), (337, 120, 463, 113, 7))


def suite_triples():
    """The (m, n) = (2, 1) worked example, end to end."""
    pair = triples.derive(2, 1)
    derived = triples.derived_triples(pair)
    checks = [
        (f"derived {name}", got == want)
        for name, got, want in zip(("AC", "BC", "BA"), derived, _DERIVED_2_1)
    ]
    (lhs, rhs), (root_d, quadruple) = triples.area_identity(pair), triples.distance_identity(pair)
    root = F(root_d, pair.d)
    points = [(p.x, p.y) for _, p in triples.connecting_points(pair)]
    try:
        concordant = triples.concordant_solutions(pair) == _CONCORDANT_2_1
    except ValueError:  # a radical that is not a square fails this check alone
        concordant = False
    return checks + [
        ("area quadruple", pair.quad == (6, 34, 41, 7)),
        ("area identity holds", triples.area_relation(pair.quad, pair.triple.c, lhs)),
        ("area identity value", lhs == 2886 == rhs),
        ("connecting points", points == [(-16, 120), (-9, 120), (25, 120)]),
        ("concordant solutions", concordant),
        ("distance identity holds", triples.distance_relation(derived, root)),
        ("distance identity root", root == _DISTANCE_ROOT_2_1),
        ("distance quadruple", root_d**2 == sum(v**2 for v in quadruple[1:])),
    ]


def _random_pairs(seed, count, max_m):
    """count seeded Euclid pairs: 0 < n < m <= max_m, coprime, of opposite parity."""
    rng = random.Random(seed)
    done = 0
    while done < count:
        m = rng.randint(2, max_m)
        n = rng.randint(1, m - 1)
        if gcd(m, n) == 1 and (m - n) % 2:
            yield m, n
            done += 1


_TRIPLES_PAIRS = tuple(_random_pairs(20210525, 200, 80))


def suite_triples_random():
    """Derived-triple identities over 200 random admissible (m, n)."""
    for m, n in _TRIPLES_PAIRS:
        try:
            pair = triples.derive(m, n)
            (lhs, _), (root_d, _) = triples.area_identity(pair), triples.distance_identity(pair)
            if not triples.area_relation(pair.quad, pair.triple.c, lhs):
                return [(f"area identity ({m},{n})", False)]
            if not triples.distance_relation(pair.sides, root_d):
                return [(f"distance identity ({m},{n})", False)]
            triples.concordant_solutions(pair)
        except ValueError as exc:
            return [(f"random ({m},{n}): {exc}", False)]
    return [(f"{len(_TRIPLES_PAIRS)} random (m,n) pass all identities", True)]


def suite_trinity():
    return trinity.identities().checks()


_ZAGIER_157 = RatTriangle(
    "411340519227716149383203/21666555693714761309610",
    "6803298487826435051217540/411340519227716149383203",
    "224403517704336969924557513090674863160948472041/"
    "8912332268928859588025535178967163570016480830",
)
_ZAGIER_157_P1 = Point(
    F("-166136231668185267540804/2825630694251145858025"),
    F("-167661624456834335404812111469782006/150201095200135518108761470235125"),
)
_ZAGIER_157_P2 = Point(
    F("69648970982596494254458225/166136231668185267540804"),
    F("538962435089604615078004307258785218335/67716816556077455999228495435742408"),
)


def suite_conics_zagier():
    """The smallest-triangle example for N = 157."""
    example = conics.conic_example(157, 87005, 610961)
    return [
        ("N=157 triangle", example.triangle == _ZAGIER_157),
        ("N=157 P1", example.p1 == _ZAGIER_157_P1),
        ("N=157 P2", example.p2 == _ZAGIER_157_P2),
    ]


_INTERSECT_3 = (
    RatTriangle("621/10", "12580/621", "405641/6210"),
    Point(F(-100), F(6210)),
    Point(F("395641/100"), F("245693061/1000")),
)


def suite_conics_intersect():
    example = conics.intersect_example(3)
    want_tri, want_p1, want_p2 = _INTERSECT_3
    checks = [
        ("t=3 N", example.n == 629),
        ("t=3 triangle", example.triangle == want_tri),
        ("t=3 P1", example.p1 == want_p1),
        ("t=3 P2", example.p2 == want_p2),
    ]
    return checks + example.checks()


_LATTICE_1_2_3 = (
    (188885, RatTriangle("71757/418", "157907860/71757", "66206019401/29994426")),
    (58645, RatTriangle("58483/66", "7741140/58483", "3458210761/3859878")),
    (7585, RatTriangle("-5537/72", "-1092240/5537", "-84406081/398664")),
    (84545, RatTriangle("82497/136", "22996240/82497", "7489959041/11219592")),
)


def suite_conics_lattice():
    checks = []
    for i, (res, (n2, tri)) in enumerate(zip(conics.lattice_secondary(1, 2, 3), _LATTICE_1_2_3), 1):
        checks += [(f"lattice N_{i}2", res.n2 == n2), (f"lattice triangle {i}", res.triangle == tri)]
    # the CLI's "lattice triangles have area x_i"
    forms = (ok for m, n in [(1, 2), (2, 1)] for _, ok in conics.lattice_example(m, n).checks())
    return checks + [("lattice closed forms", all(forms))]


_TWIN_10 = (
    RatTriangle(
        "-266938037619/1183583135",
        "-4734332540/3471281",
        "5679574272052285061/4108549648445935",
    ),
    RatTriangle(
        "-2362584547353/4899249131",
        "-19596996524/13475611",
        "101151574309748379365/66020375481444041",
    ),
)


def suite_conics_twin():
    twin = conics.twin_hyperbolas(10)
    checks = [
        ("twin N1", twin.n1 == 153798),
        ("twin N2", twin.n2 == 350646),
        ("twin triangle 1", twin.triangle1 == _TWIN_10[0]),
        ("twin triangle 2", twin.triangle2 == _TWIN_10[1]),
    ]
    return checks + twin.checks()


_CASSINI_29 = RatTriangle("99/910", "52780/99", "48029801/90090")
_CASSINI_62 = RatTriangle("177537/21140", "84560/5727", "2056525601/121068780")


def suite_cassini():
    two, four = cassini.heegner_two(29, 1, -13), cassini.four_example(79, 125, 52)
    two62 = cassini.heegner_two(62, 20, 7, adjoin="sqrt2N")
    four62 = cassini.heegner_four(62, 20, F(7**2 * 2))  # f2 = 7 sqrt(2)
    return [
        ("N=29 quad", two[:4] == (13**2, 70, 1, 99**2)),
        ("N=29 triangle", two.triangle == _CASSINI_29),
        ("N=29 axis points", (sorted(two.axis_x_sq), two.axis_y_sq) == ([99**2], [1])),
        ("N=79 four intersections", sorted(four.axis_x_sq) == [12921**2, 13000**2]),
        ("N=62 (c2,c4)", (two62.c2, two62.c4_sq) == (9362, 15438**2)),
        ("N=62 triangle", two62.triangle == _CASSINI_62),
        ("N=62 four intersections", sorted(four62.axis_x_sq) == [302**2, 2 * 280**2]),
    ]


# the figure's P1 on E_5 and the x, |y| of its tangent images P2 and P3
_FIGURE_5 = (
    Point(F(-4), F(6)),
    (F("1681/144"), F("62279/1728")),
    (F("11183412793921/2234116132416"), F("1791076534232245919/3339324446657665536")),
)


def suite_tangent():
    chain = tangent.chain_from_legs(5, F(3, 2), F(20, 3), 3)
    s = [(e.f1, e.f2) for e in chain.entries]
    p1, want_p2, want_p3 = _FIGURE_5
    on_curve = curve_en(5).contains(p1)
    p2 = tangent.tangent_intersection(p1, 5)
    p3 = tangent.tangent_intersection(p2, 5)
    c = abs(conics.conic_triangle(79, 125, 52, adjoin="sqrtN").c)
    return [
        ("N=5 S1", s[0] == (3, 2)),
        ("N=5 S2", s[1] == (372, 2009)),
        ("N=5 S3", s[2] == (169317668184, 15811196552161)),
        ("N=5 doubling", chain.doubling_holds()),
        ("figure P1 on curve", on_curve),
        ("figure P2", (p2.x, abs(p2.y)) == want_p2),
        ("figure P3", (p3.x, abs(p3.y)) == want_p3),
        ("N=79 S1", tangent.solve_f(c.denominator, F(c.numerator, 2), 79) == (2080281, 238277000)),
    ]


_FOOTPRINT_EXAMPLES = tuple(
    (footprints.FootprintRow(*row), RatTriangle(*sides))
    for row, sides in (
        ((353, 4, 1, "T0a"), ("5295/136", "272/15", "87617/2040")),
        (
            (761, 31, 51, "T0b"),
            ("66411709/1296420", "2592840/87269", "6699926952721/113137276980"),
        ),
        (
            (173, 10865, -343141, "TI"),
            (
                "418416739097462232963/181421867613059954270",
                "62771966194118744177420/418416739097462232963",
                "11389552969201600543101928087171460571651881/"
                "75909946247628040203029119534348866602010",
            ),
        ),
        (
            (191, 27469, 11580, "TII"),
            (
                "1726816796630813713/394718867434084440",
                "789437734868168880/9040925636810543",
                "311996818759910472998178689881743841/"
                "3568623927917636168751328944250920",
            ),
        ),
        (
            (382, 540, 239, "TIII"),
            (
                "447382566673/11444911740",
                "45779646960/2342317103",
                "1171595729834345971681/26807612510927489220",
            ),
        ),
        (
            (326, 170, -69, "TIV"),
            (
                "28931957373/22855819",
                "91423276/177496671",
                "5135326544339012645/4056831785478549",
            ),
        ),
    )
)


def suite_footprints():
    reports = footprints.verify_tables()
    bad = [r for r in reports if not r["ok"]]
    checks = [(f"all {len(reports)} table rows", not bad)]
    # each worked example is its row's triangle from this run, or None
    built = {r["row"]: r["triangle"] for r in reports}
    for row, want in _FOOTPRINT_EXAMPLES:
        checks.append((f"worked example N={row.n}", built.get(row) == want))
    return checks


_RECURRENCE_PAIRS = tuple(_random_pairs(79, 20, 40))


def suite_recurrence():
    checks = [("28-cell walk table", not recurrence.tree_report().failed)]
    for m, n in _RECURRENCE_PAIRS:
        tri0, n0 = recurrence.euclid_root(m, n)
        steps = recurrence.walk(tri0, n0, "aaa") + recurrence.walk(tri0, n0, "ba")
        for path, (_, tri) in zip(("a", "aa", "aaa", "b", "ba"), steps):
            if tri != recurrence.closed_form(m, n, path):
                return checks + [(f"closed form {path} ({m},{n})", False)]
    checks.append((f"closed forms on {len(_RECURRENCE_PAIRS)} random (m,n)", True))
    return checks


_FIB_3_REDUCED = RatTriangle("20/3", "3/2", "41/6")
_CHEB_3_2 = RatTriangle(45, "52/15", "677/15")
_CHEB_3_2_POINTS = (
    Point(F(-3), F(135)),
    Point(F(2028), F(91260)),
    Point(F("458329/900"), F("306627517/27000")),
)
_BRAHMAGUPTA_3_POINTS = (
    Point(F(0), F(140556)),
    Point(F(-2704), F(52)),
    Point(F(-2650), F(106)),
    Point(F(-2754), F(102)),
)


def suite_sequences():
    tri, n, _ = sequences.fib_even_family(3)
    fib = sequences.fib_even_family, sequences.fib_odd_family
    families = [family(k) for k in range(1, 6) for family in fib]
    lucas = all(l**2 - 5 * f**2 == 4 * (-1) ** k for k, (f, l) in enumerate(sequences.lucas_pairs(60)))
    pell = sequences.pell_identity_check(12)
    cheb, bt = sequences.cheb_family(3, 2), sequences.brahmagupta(3)
    return [
        ("Fibonacci n=3 reduces to area 5", n == 180 and tri.scaled(6) == _FIB_3_REDUCED),
        ("Fibonacci families, 10 instances", all(ok for family in families for _, ok in family.checks())),
        ("Fibonacci/Lucas identity n <= 60", lucas),
        ("Pell polynomial identity m <= 12", pell),
        ("Chebyshev (3,2) triangle", cheb.congruent_number == 78 and cheb.triangle == _CHEB_3_2),
        ("Chebyshev (3,2) points", cheb.points == _CHEB_3_2_POINTS),
        ("Brahmagupta k=3", (*bt.sides, bt.area, bt.semiperimeter) == (51, 52, 53, 1170, 78)),
        ("Brahmagupta k=3 points", bt.points == _BRAHMAGUPTA_3_POINTS and bt.orders is None),
        ("degenerate case has order-4 points", sequences.brahmagupta(0).orders == (4, 4, 4, 4)),
    ]


def suite_fermat():
    tree = fermat.enumerate_tree(4)
    found = {(n.a, n.b, n.c): d for d, n in tree.nodes}
    table = {
        "N1": (-119, 120, 169),
        "N2": (2276953, -473304, 2325625),
        "P1": (4565486027761, 1061652293520, 4687298610289),
        "P2": (
            214038981475081188634947041892245670988588201,
            109945628264924023237017010068507003594693720,
            240625698472667313160415295005368384723483849,
        ),
    }
    checks = [(f"table {k}", v in found) for k, v in table.items()]
    small = tree.smallest_sum()
    checks.append(("smallest sum node", (small.a, small.b, small.c) == table["P1"]))
    checks.append(
        ("square witnesses", (small.sum_root, small.hyp_root) == (2372159, 2165017))
    )
    checks.append((f"{len(tree.nodes)} nodes pass invariants", tree.invariants_hold()))
    return checks


SUITES = (
    ("triples", suite_triples),
    ("triples-random", suite_triples_random),
    ("trinity", suite_trinity),
    ("conics-zagier", suite_conics_zagier),
    ("conics-intersect", suite_conics_intersect),
    ("conics-lattice", suite_conics_lattice),
    ("conics-twin", suite_conics_twin),
    ("cassini", suite_cassini),
    ("tangent", suite_tangent),
    ("footprints", suite_footprints),
    ("recurrence", suite_recurrence),
    ("sequences", suite_sequences),
    ("fermat", suite_fermat),
)


def run_all():
    """Run every suite; returns dict name -> list of (check, ok).

    A suite that raises gives one failing check named
    "<suite>: <ExceptionType>: <message>" in place of its list, and the
    remaining suites still run.
    """
    results = {}
    for name, fn in SUITES:
        try:
            results[name] = fn()
        except Exception as exc:
            results[name] = [(f"{name}: {type(exc).__name__}: {exc}", False)]
    return results


class Report(namedtuple("Report", "suites")):
    """run_all()'s {suite: [(check, ok)]}; a suite's check passes when all of its checks do."""

    __slots__ = ()

    def checks(self):
        return [(name, all(p for _, p in checks)) for name, checks in self.suites.items()]

    def _asdict(self):
        """The report as printed: each suite's passed/total, then the failed checks' names if any."""
        printed = {name: f"{sum(p for _, p in c)}/{len(c)}" for name, c in self.suites.items()}
        failed = [check for c in self.suites.values() for check, p in c if not p]
        return {**printed, "failed_checks": failed} if failed else printed


def report():
    """The Report of run_all()."""
    return Report(run_all())
