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


def _tri(a, b, c):
    return RatTriangle(F(a), F(b), F(c))


def suite_triples():
    """The (m, n) = (2, 1) worked example, end to end."""
    checks = []
    ac, bc, ba = triples.derived_triples(2, 1)
    checks.append(("derived AC", ac == _tri("15/2", "136/15", "353/30")))
    checks.append(("derived BC", bc == _tri("40/3", "123/20", "881/60")))
    checks.append(("derived BA", ba == _tri("24/5", "35/12", "337/60")))
    q = triples.area_quad(2, 1)
    checks.append(("area quadruple", (q.n, q.n_ac, q.n_bc, q.n_ba) == (6, 34, 41, 7)))
    rep = triples.area_identity_check(2, 1)
    checks.append(("area identity holds", rep["holds"]))
    checks.append(("area identity value", rep["lhs"] == 2886 == rep["rhs"]))
    pairs = triples.connecting_points(2, 1)
    checks.append(
        (
            "connecting points",
            [(p.x, p.y) for _, p in pairs]
            == [(-16, 120), (-9, 120), (25, 120)],
        )
    )
    sols = triples.concordant_solutions(2, 1)
    want = ((706, 120, 994, 94, 34), (881, 120, 1169, 431, 41), (337, 120, 463, 113, 7))
    checks.append(
        (
            "concordant solutions",
            tuple((s.x, s.y, s.z, s.t, s.n) for s in sols) == want,
        )
    )
    rep = triples.distance_identity(2, 1)
    checks.append(("distance identity holds", rep["holds"]))
    checks.append(("distance identity root", rep["lhs_root"] == F(193, 30)))
    checks.append(
        ("distance quadruple", rep["lhs_root"] ** 2 == sum(v**2 for v in rep["quadruple"][1:]))
    )
    return checks


def suite_triples_random(count=200, seed=20210525):
    """Derived-triple identities over random admissible (m, n)."""
    rng = random.Random(seed)
    done = 0
    while done < count:
        m = rng.randint(2, 80)
        n = rng.randint(1, m - 1)
        if gcd(m, n) != 1 or (m - n) % 2 == 0:
            continue
        try:
            triples.derived_triples(m, n)  # Pythagoras asserted on build
            if not triples.area_identity_check(m, n)["holds"]:
                return [(f"area identity ({m},{n})", False)]
            if not triples.distance_identity(m, n)["holds"]:
                return [(f"distance identity ({m},{n})", False)]
            triples.concordant_solutions(m, n)
        except (ValueError, AssertionError) as exc:
            return [(f"random ({m},{n}): {exc}", False)]
        done += 1
    return [(f"{count} random (m,n) pass all identities", True)]


def suite_trinity(max_order=4, samples=32):
    return trinity.verify_all(max_order=max_order, samples=samples)


def suite_conics_zagier():
    """The smallest-triangle example for N = 157."""
    inp = conics.conic_input(157, 87005, 610961)
    tri = conics.conic_triangle(inp)
    want = _tri(
        "411340519227716149383203/21666555693714761309610",
        "6803298487826435051217540/411340519227716149383203",
        "224403517704336969924557513090674863160948472041/"
        "8912332268928859588025535178967163570016480830",
    )
    checks = [("N=157 triangle", tri == want)]
    p1, p2 = conics.conic_ec_points(inp)
    checks.append(
        (
            "N=157 P1",
            p1
            == Point(
                F("-166136231668185267540804/2825630694251145858025"),
                F("-167661624456834335404812111469782006/150201095200135518108761470235125"),
            ),
        )
    )
    checks.append(
        (
            "N=157 P2",
            p2
            == Point(
                F("69648970982596494254458225/166136231668185267540804"),
                F("538962435089604615078004307258785218335/67716816556077455999228495435742408"),
            ),
        )
    )
    return checks


def suite_conics_intersect():
    n_t, _, tri, p1, p2 = conics.intersect_example(3)
    checks = [
        ("t=3 N", n_t == 629),
        ("t=3 triangle", tri == _tri("621/10", "12580/621", "405641/6210")),
        ("t=3 P1", p1 == Point(F(-100), F(6210))),
        ("t=3 P2", p2 == Point(F("395641/100"), F("245693061/1000"))),
    ]
    checks += conics.intersect_polynomial_identity()
    return checks


def suite_conics_lattice():
    results = conics.lattice_secondary(1, 2, 3)
    want = (
        (188885, _tri("71757/418", "157907860/71757", "66206019401/29994426")),
        (58645, _tri("58483/66", "7741140/58483", "3458210761/3859878")),
        (7585, _tri("-5537/72", "-1092240/5537", "-84406081/398664")),
        (84545, _tri("82497/136", "22996240/82497", "7489959041/11219592")),
    )
    checks = []
    for i, (res, (n2, tri)) in enumerate(zip(results, want), 1):
        checks.append((f"lattice N_{i}2", res["n2"] == n2))
        checks.append((f"lattice triangle {i}", res["triangle"] == tri))
    closed_forms = True
    for m, n in ((1, 2), (2, 1)):
        s = m**2 + n**2
        pts, tris = conics.lattice_points(m, n)
        for (x, e), tri in zip(pts, tris):
            # on the (f1, f2) = (1, s) ellipse e^2 = x s^2 - (x - s^2)^2 / 4
            closed_forms &= tri.area == x and 4 * e**2 == 4 * x * s**2 - (x - s**2) ** 2
    checks.append(("lattice closed forms", closed_forms))
    return checks


def suite_conics_twin():
    n1, n2, t1, t2 = conics.twin_hyperbolas(10)
    checks = [
        ("twin N1", n1 == 153798),
        ("twin N2", n2 == 350646),
        (
            "twin triangle 1",
            t1
            == _tri(
                "-266938037619/1183583135",
                "-4734332540/3471281",
                "5679574272052285061/4108549648445935",
            ),
        ),
        (
            "twin triangle 2",
            t2
            == _tri(
                "-2362584547353/4899249131",
                "-19596996524/13475611",
                "101151574309748379365/66020375481444041",
            ),
        ),
    ]
    checks += conics.twin_polynomial_identities()
    return checks


def suite_cassini():
    checks = []
    quad, tri, oval = cassini.heegner_two(29, 1, -13)
    checks.append(
        ("N=29 quad", (quad.c1, quad.c2, quad.c3, quad.c4) == (13, 70, 1, 99))
    )
    checks.append(
        ("N=29 triangle", tri == _tri("99/910", "52780/99", "48029801/90090"))
    )
    pts = cassini.oval_axis_points(oval)
    checks.append(
        ("N=29 axis points", (sorted(pts["x2"]), pts["y2"]) == ([99**2], [1]))
    )
    quad, tri, oval, pts = cassini.heegner_four(79, 125, 52**2)
    checks.append(
        ("N=79 four intersections", sorted(pts["x2"]) == [12921**2, 13000**2])
    )
    quad2, tri2, _ = cassini.heegner_two(62, 20, 7, adjoin="sqrt2N")
    checks.append(("N=62 (c2,c4)", (quad2.c2, quad2.c4) == (9362, 15438)))
    checks.append(
        ("N=62 triangle", tri2 == _tri("177537/21140", "84560/5727", "2056525601/121068780"))
    )
    quad3, _, _, pts3 = cassini.heegner_four(62, 20, F(7**2 * 2))
    checks.append(
        ("N=62 four intersections", sorted(pts3["x2"]) == [302**2, 2 * 280**2])
    )
    return checks


def suite_tangent():
    checks = []
    seed = _tri("3/2", "20/3", "41/6")
    chain = tangent.tangent_chain(seed, 5, depth=3)
    s = [(e.f1, e.f2) for e in chain.entries]
    checks.append(("N=5 S1", s[0] == (3, 2)))
    checks.append(("N=5 S2", s[1] == (372, 2009)))
    checks.append(("N=5 S3", s[2] == (169317668184, 15811196552161)))
    checks.append(("N=5 doubling", chain.doubling_holds()))
    p1 = Point(F(-4), F(6))
    checks.append(("figure P1 on curve", curve_en(5).contains(p1)))
    p2 = tangent.tangent_intersection(p1, 5)
    checks.append(("figure P2", (p2.x, abs(p2.y)) == (F("1681/144"), F("62279/1728"))))
    p3 = tangent.tangent_intersection(p2, 5)
    checks.append(
        (
            "figure P3",
            (p3.x, abs(p3.y))
            == (
                F("11183412793921/2234116132416"),
                F("1791076534232245919/3339324446657665536"),
            ),
        )
    )
    tri79 = conics.conic_triangle(conics.conic_input(79, 125, 52, adjoin="sqrtN"))
    c = abs(tri79.c)
    f1, f2 = tangent.solve_f(c.denominator, F(c.numerator, 2), 79)
    checks.append(("N=79 S1", (f1, f2) == (2080281, 238277000)))
    return checks


def suite_footprints():
    reports = footprints.verify_tables()
    bad = [r for r in reports if not r["ok"]]
    checks = [(f"all {len(reports)} table rows", not bad)]
    examples = (
        ((353, 4, 1, "T0a"), _tri("5295/136", "272/15", "87617/2040")),
        (
            (761, 31, 51, "T0b"),
            _tri("66411709/1296420", "2592840/87269", "6699926952721/113137276980"),
        ),
        (
            (173, 10865, -343141, "TI"),
            _tri(
                "418416739097462232963/181421867613059954270",
                "62771966194118744177420/418416739097462232963",
                "11389552969201600543101928087171460571651881/"
                "75909946247628040203029119534348866602010",
            ),
        ),
        (
            (191, 27469, 11580, "TII"),
            _tri(
                "1726816796630813713/394718867434084440",
                "789437734868168880/9040925636810543",
                "311996818759910472998178689881743841/"
                "3568623927917636168751328944250920",
            ),
        ),
        (
            (382, 540, 239, "TIII"),
            _tri(
                "447382566673/11444911740",
                "45779646960/2342317103",
                "1171595729834345971681/26807612510927489220",
            ),
        ),
        (
            (326, 170, -69, "TIV"),
            _tri(
                "28931957373/22855819",
                "91423276/177496671",
                "5135326544339012645/4056831785478549",
            ),
        ),
    )
    for (n, m, k, cls), want in examples:
        got = footprints.footprint_triangle(footprints.FootprintRow(n, m, k, cls))
        checks.append((f"worked example N={n}", got == want))
    return checks


def suite_recurrence(random_count=20, seed=79):
    reports = recurrence.verify_tree_table()
    checks = [("28-cell walk table", all(r["ok"] for r in reports))]
    rng = random.Random(seed)
    done = 0
    while done < random_count:
        m = rng.randint(2, 40)
        n = rng.randint(1, m - 1)
        if gcd(m, n) != 1 or (m - n) % 2 == 0:
            continue
        for which, i in (("a_pow_i", 1), ("a_pow_i", 2), ("a_pow_i", 3), ("ab", 1), ("bb", 1)):
            if not recurrence.closed_form_check(m, n, which, i)["match"]:
                return checks + [(f"closed form {which} ({m},{n})", False)]
        done += 1
    checks.append((f"closed forms on {random_count} random (m,n)", True))
    return checks


def suite_sequences():
    checks = []
    tri, n, _ = sequences.fib_even_family(3)
    red = tri.scaled(6)
    checks.append(("Fibonacci n=3 reduces to area 5", n == 180 and red == _tri("20/3", "3/2", "41/6")))
    for k in range(1, 6):
        sequences.fib_even_family(k)
        sequences.fib_odd_family(k)
    checks.append(("Fibonacci families, 10 instances", True))
    for idx in range(61):
        sequences.fib_lucas(idx)
    checks.append(("Fibonacci/Lucas identity n <= 60", True))
    checks.append(("Pell polynomial identity m <= 12", sequences.pell_identity_check(12)))
    tri, n, pts = sequences.cheb_family(3, 2)
    checks.append(("Chebyshev (3,2) triangle", n == 78 and tri == _tri(45, "52/15", "677/15")))
    checks.append(
        (
            "Chebyshev (3,2) points",
            pts
            == (
                Point(F(-3), F(135)),
                Point(F(2028), F(91260)),
                Point(F("458329/900"), F("306627517/27000")),
            ),
        )
    )
    for args in ((1, 2), (2, 2), (4, 2), (2, 3), (1, 5)):
        sequences.cheb_family(*args)
    bt, _, qs, _ = sequences.brahmagupta(3)
    checks.append(
        (
            "Brahmagupta k=3",
            (bt.a, bt.b, bt.c, bt.area, bt.perimeter_half) == (51, 52, 53, 1170, 78),
        )
    )
    checks.append(
        (
            "Brahmagupta k=3 points",
            qs
            == (
                Point(F(0), F(140556)),
                Point(F(-2704), F(52)),
                Point(F(-2650), F(106)),
                Point(F(-2754), F(102)),
            ),
        )
    )
    _, _, _, orders = sequences.brahmagupta(0)
    checks.append(("degenerate case has order-4 points", orders == (4, 4, 4, 4)))
    return checks


def suite_fermat(depth=4):
    tree = fermat.enumerate_tree(depth)
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
    # node invariants are asserted by construction; count them explicitly
    checks.append((f"{len(tree.nodes)} nodes pass invariants", True))
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


def run_all(**overrides):
    """Run every suite; returns dict name -> list of (check, ok).

    overrides may carry per-suite keyword arguments, keyed by suite name
    with a dict value (e.g. trinity={'max_order': 2}).
    """
    results = {}
    for name, fn in SUITES:
        kwargs = overrides.get(name.replace("-", "_"), {})
        results[name] = fn(**kwargs)
    return results
