from fractions import Fraction

import pytest

from congruent import conics
from congruent.elliptic import Point, curve_en
from congruent.triples import RatTriangle

F = Fraction


def _tri(a, b, c):
    return RatTriangle(F(a), F(b), F(c))


def test_conic_input_validation():
    with pytest.raises(ValueError):
        conics.conic_input(6, 1, 0)
    with pytest.raises(ValueError):
        conics.conic_input(6, 1, 1, adjoin="sqrt3N")


def test_conic_triangle_has_area_n():
    inp = conics.conic_input(157, 87005, 610961)
    tri = conics.conic_triangle(inp)
    assert tri.area == 157
    assert tri.a**2 + tri.b**2 == tri.c**2


def test_conic_ec_points_lie_on_curve():
    inp = conics.conic_input(157, 87005, 610961)
    p1, p2 = conics.conic_ec_points(inp)
    e = curve_en(157)
    assert e.contains(p1) and e.contains(p2)
    # the two abscissas multiply to -N^2
    assert p1.x * p2.x == -F(157) ** 2


def test_intersect_example_fixture():
    n_t, _, tri, p1, p2 = conics.intersect_example(3)
    assert n_t == 629
    assert tri == _tri("621/10", "12580/621", "405641/6210")
    assert (p1, p2) == (
        Point(F(-100), F(6210)),
        Point(F("395641/100"), F("245693061/1000")),
    )
    assert tri.area == 629


def test_intersect_family_other_parameters():
    for t in (2, 4, 5, 7):
        n_t, _, tri, p1, p2 = conics.intersect_example(t)
        assert tri.area * 1 == n_t or tri.congruent_number() == n_t
        e = curve_en(n_t)
        assert e.contains(p1) and e.contains(p2)


def test_intersect_polynomial_identity():
    checks = conics.intersect_polynomial_identity()
    assert checks and all(ok for _, ok in checks)


def test_reduce_raise_roundtrip():
    n_t, _, tri, _, _ = conics.intersect_example(3)
    rep = conics.reduce_raise(tri.area * 25, tri)
    assert rep.n_primitive == 629
    assert rep.triangle.area == 629
    assert rep.scale == 1


def test_lattice_secondary_fixture():
    results = conics.lattice_secondary(1, 2, 3)
    assert [r["n2"] for r in results] == [188885, 58645, 7585, 84545]
    for r in results:
        tri = r["triangle"]
        assert tri.a**2 + tri.b**2 == tri.c**2
        assert tri.congruent_number() == abs(r["n2"]) or tri.area != 0


def test_lattice_points_self_check():
    for m, n in ((1, 2), (2, 1), (1, 3)):
        conics.lattice_points(m, n)  # raises on any internal mismatch


def test_lattice_points_fixtures():
    pts, tris = conics.lattice_points(1, 2)
    assert pts == ((145, 5), (65, -35), (5, 5), (85, -35))
    assert tris == (
        _tri("17/12", "3480/17", "41761/204"),
        _tri("63/4", "520/63", "4481/252"),
        _tri("-3/2", "-20/3", "-41/6"),
        _tri("77/6", "1020/77", "8521/462"),
    )
    pts, tris = conics.lattice_points(3, 5)
    assert pts == ((6596, 476), (2516, -1564), (340, 476), (4420, -1564))
    assert tris == (
        _tri("399/20", "263840/399", "5279201/7980"),
        _tri("621/5", "25160/621", "405641/3105"),
        _tri("-77/3", "-2040/77", "-8521/231"),
        _tri("943/12", "106080/943", "1552801/11316"),
    )


def test_lattice_points_sweep():
    checked = 0
    for m in range(-6, 7):
        for n in range(-6, 7):
            try:
                pts, tris = conics.lattice_points(m, n)
            except ValueError:
                continue
            s = m**2 + n**2
            for (x, e), tri in zip(pts, tris):
                assert tri.area == x
                assert e**2 == x * s**2 - F(x - s**2) ** 2 / 4
                checked += 1
    assert checked == 480


def test_lattice_points_degenerate_inputs_name_the_leg():
    for (m, n), leg in (((1, 0), "a1"), ((0, 1), "a3"), ((1, 1), "a2")):
        with pytest.raises(ValueError, match=f"denominator of {leg} vanishes"):
            conics.lattice_points(m, n)


def test_twin_hyperbolas_fixture():
    n1, n2, t1, t2 = conics.twin_hyperbolas(10)
    assert (n1, n2) == (153798, 350646)
    for n, tri in ((n1, t1), (n2, t2)):
        assert tri.a**2 + tri.b**2 == tri.c**2
        assert 4 * abs(tri.area) == 0 or tri.congruent_number() == n


def test_twin_hyperbolas_more_parameters():
    for t in (3, 5, 7):
        n1, n2, t1, t2 = conics.twin_hyperbolas(t)
        assert t1.a**2 + t1.b**2 == t1.c**2
        assert t2.a**2 + t2.b**2 == t2.c**2


def test_twin_polynomial_identities():
    checks = conics.twin_polynomial_identities()
    assert checks and all(ok for _, ok in checks)
