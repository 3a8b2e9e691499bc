"""Reference-example verification suites for every module.

Each suite_* function returns a list of (check name, bool) pairs that
compare computed objects against the library's embedded reference values
(famous triangles, published curve points, the shipped solution tables).
run_all() aggregates them; it is the backing for the `verify-all` CLI
command and the acceptance tests.
"""

from __future__ import annotations

import random
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

__all__ = ["run_all", "SUITES"]

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
    area, dist = triples.area_identity(pair), triples.distance_identity(pair)
    root = F(dist["lhs_root"], pair.d)
    points = [(p.x, p.y) for _, p in triples.connecting_points(pair)]
    try:
        concordant = triples.concordant_solutions(pair) == _CONCORDANT_2_1
    except ValueError:  # a radical that is not a square fails this check alone
        concordant = False
    return checks + [
        ("area quadruple", pair.quad == (6, 34, 41, 7)),
        ("area identity holds", triples.area_relation(pair.quad, pair.triple.c, area["lhs"])),
        ("area identity value", area["lhs"] == 2886 == area["rhs"]),
        ("connecting points", points == [(-16, 120), (-9, 120), (25, 120)]),
        ("concordant solutions", concordant),
        ("distance identity holds", triples.distance_relation(derived, root)),
        ("distance identity root", root == _DISTANCE_ROOT_2_1),
        ("distance quadruple", dist["lhs_root"] ** 2 == sum(v**2 for v in dist["quadruple"][1:])),
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
            area, dist = triples.area_identity(pair), triples.distance_identity(pair)
            if not triples.area_relation(pair.quad, pair.triple.c, area["lhs"]):
                return [(f"area identity ({m},{n})", False)]
            if not triples.distance_relation(pair.sides, dist["lhs_root"]):
                return [(f"distance identity ({m},{n})", False)]
            triples.concordant_solutions(pair)
        except ValueError as exc:
            return [(f"random ({m},{n}): {exc}", False)]
    return [(f"{len(_TRIPLES_PAIRS)} random (m,n) pass all identities", True)]


def suite_trinity():
    return trinity.verify_all() + [("trig circles numeric", trinity.circle_check()["ok"])]


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
    tri = conics.conic_triangle(157, 87005, 610961)
    checks = [("N=157 triangle", tri == _ZAGIER_157)]
    p1, p2 = conics.conic_ec_points(tri)
    checks.append(("N=157 P1", p1 == _ZAGIER_157_P1))
    checks.append(("N=157 P2", p2 == _ZAGIER_157_P2))
    return checks


_INTERSECT_3 = (
    RatTriangle("621/10", "12580/621", "405641/6210"),
    Point(F(-100), F(6210)),
    Point(F("395641/100"), F("245693061/1000")),
)


def suite_conics_intersect():
    n_t, point, tri, p1, p2 = conics.intersect_example(3)
    want_tri, want_p1, want_p2 = _INTERSECT_3
    checks = [
        ("t=3 N", n_t == 629),
        ("t=3 triangle", tri == want_tri),
        ("t=3 P1", p1 == want_p1),
        ("t=3 P2", p2 == want_p2),
    ]
    return checks + conics.intersect_checks(n_t, point, tri, p1, p2)


_LATTICE_1_2_3 = (
    (188885, RatTriangle("71757/418", "157907860/71757", "66206019401/29994426")),
    (58645, RatTriangle("58483/66", "7741140/58483", "3458210761/3859878")),
    (7585, RatTriangle("-5537/72", "-1092240/5537", "-84406081/398664")),
    (84545, RatTriangle("82497/136", "22996240/82497", "7489959041/11219592")),
)


def suite_conics_lattice():
    results = conics.lattice_secondary(1, 2, 3)
    checks = []
    for i, (res, (n2, tri)) in enumerate(zip(results, _LATTICE_1_2_3), 1):
        checks.append((f"lattice N_{i}2", res.n2 == n2))
        checks.append((f"lattice triangle {i}", res.triangle == tri))
    # the relation that the CLI's "lattice triangles have area x_i" reads
    forms = (conics.lattice_relation(m, n, *conics.lattice_points(m, n)) for m, n in [(1, 2), (2, 1)])
    checks.append(("lattice closed forms", all(forms)))
    return checks


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
    n1, n2, t1, t2 = conics.twin_hyperbolas(10)
    checks = [
        ("twin N1", n1 == 153798),
        ("twin N2", n2 == 350646),
        ("twin triangle 1", t1 == _TWIN_10[0]),
        ("twin triangle 2", t2 == _TWIN_10[1]),
    ]
    return checks + conics.twin_checks(10, n1, n2, t1, t2)


_CASSINI_29 = RatTriangle("99/910", "52780/99", "48029801/90090")
_CASSINI_62 = RatTriangle("177537/21140", "84560/5727", "2056525601/121068780")


def suite_cassini():
    checks = []
    quad, tri, oval = cassini.heegner_two(29, 1, -13)
    checks.append(
        ("N=29 quad", (quad.c1sq, quad.c2, quad.c3sq, quad.c4sq) == (13**2, 70, 1, 99**2))
    )
    checks.append(("N=29 triangle", tri == _CASSINI_29))
    pts = cassini.oval_axis_points(oval)
    checks.append(
        ("N=29 axis points", (sorted(pts["x2"]), pts["y2"]) == ([99**2], [1]))
    )
    quad, tri, oval, pts = cassini.heegner_four(79, 125, 52**2)
    checks.append(
        ("N=79 four intersections", sorted(pts["x2"]) == [12921**2, 13000**2])
    )
    quad2, tri2, _ = cassini.heegner_two(62, 20, 7, adjoin="sqrt2N")
    checks.append(("N=62 (c2,c4)", (quad2.c2, quad2.c4sq) == (9362, 15438**2)))
    checks.append(("N=62 triangle", tri2 == _CASSINI_62))
    quad3, _, _, pts3 = cassini.heegner_four(62, 20, F(7**2 * 2))
    checks.append(
        ("N=62 four intersections", sorted(pts3["x2"]) == [302**2, 2 * 280**2])
    )
    return checks


_TANGENT_SEED_5 = RatTriangle("3/2", "20/3", "41/6")
# the figure's P1 on E_5 and the x, |y| of its tangent images P2 and P3
_FIGURE_5 = (
    Point(F(-4), F(6)),
    (F("1681/144"), F("62279/1728")),
    (F("11183412793921/2234116132416"), F("1791076534232245919/3339324446657665536")),
)


def suite_tangent():
    checks = []
    chain = tangent.tangent_chain(_TANGENT_SEED_5, 5, depth=3)
    s = [(e.f1, e.f2) for e in chain.entries]
    checks.append(("N=5 S1", s[0] == (3, 2)))
    checks.append(("N=5 S2", s[1] == (372, 2009)))
    checks.append(("N=5 S3", s[2] == (169317668184, 15811196552161)))
    checks.append(("N=5 doubling", chain.doubling_holds()))
    p1, want_p2, want_p3 = _FIGURE_5
    checks.append(("figure P1 on curve", curve_en(5).contains(p1)))
    p2 = tangent.tangent_intersection(p1, 5)
    checks.append(("figure P2", (p2.x, abs(p2.y)) == want_p2))
    p3 = tangent.tangent_intersection(p2, 5)
    checks.append(("figure P3", (p3.x, abs(p3.y)) == want_p3))
    tri79 = conics.conic_triangle(79, 125, 52, adjoin="sqrtN")
    c = abs(tri79.c)
    f1, f2 = tangent.solve_f(c.denominator, F(c.numerator, 2), 79)
    checks.append(("N=79 S1", (f1, f2) == (2080281, 238277000)))
    return checks


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
    reports = recurrence.verify_tree_table()
    checks = [("28-cell walk table", all(r["ok"] for r in reports))]
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
    checks = []
    tri, n, _ = sequences.fib_even_family(3)
    red = tri.scaled(6)
    reduced = n == 180 and red == _FIB_3_REDUCED
    checks.append(("Fibonacci n=3 reduces to area 5", reduced))
    families = [
        family(k)
        for k in range(1, 6)
        for family in (sequences.fib_even_family, sequences.fib_odd_family)
    ]
    right = all(t.is_right_of_area(n) for t, n, _ in families)
    checks.append(("Fibonacci families, 10 instances", right))
    pairs = enumerate(sequences.lucas_pairs(60))
    lucas = all(l**2 - 5 * f**2 == 4 * (-1) ** k for k, (f, l) in pairs)
    checks.append(("Fibonacci/Lucas identity n <= 60", lucas))
    checks.append(("Pell polynomial identity m <= 12", sequences.pell_identity_check(12)))
    tri, n, pts = sequences.cheb_family(3, 2)
    cheb = n == 78 and tri == _CHEB_3_2
    checks.append(("Chebyshev (3,2) triangle", cheb))
    checks.append(("Chebyshev (3,2) points", pts == _CHEB_3_2_POINTS))
    bt, _, qs, orders = sequences.brahmagupta(3)
    checks.append(
        (
            "Brahmagupta k=3",
            (bt.a, bt.b, bt.c, bt.area, bt.perimeter_half) == (51, 52, 53, 1170, 78),
        )
    )
    checks.append(
        ("Brahmagupta k=3 points", qs == _BRAHMAGUPTA_3_POINTS and orders is None)
    )
    _, _, _, orders = sequences.brahmagupta(0)
    checks.append(("degenerate case has order-4 points", orders == (4, 4, 4, 4)))
    return checks


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
