from fractions import Fraction

import pytest

from congruent import cassini, conics
from congruent.triples import RatTriangle

F = Fraction


def _tri(a, b, c):
    return RatTriangle(F(a), F(b), F(c))


def test_heegner_two_29_fixture():
    quad, tri, oval = cassini.heegner_two(29, 1, -13)
    assert (quad.c1sq, quad.c2, quad.c3sq, quad.c4sq) == (13**2, 70, 1, 99**2)
    assert tri == _tri("99/910", "52780/99", "48029801/90090")
    assert tri.area == 29
    pts = cassini.oval_axis_points(oval)
    assert sorted(pts["x2"]) == [99**2]
    assert pts["y2"] == [1]


def test_axis_points_satisfy_oval_equation():
    for _, _, oval, *_ in (
        cassini.heegner_two(29, 1, -13),
        cassini.heegner_two(62, 20, 7, adjoin="sqrt2N"),
        cassini.heegner_four(79, 125, 52**2),
        cassini.heegner_four(62, 20, F(7**2 * 2)),
    ):
        pts = cassini.oval_axis_points(oval)
        assert pts["x2"]
        for x2 in pts["x2"]:
            assert oval.residual(x2, 0) == 0
        for y2 in pts["y2"]:
            assert oval.residual(0, y2) == 0


def test_loop_classification():
    _, _, oval = cassini.heegner_two(29, 1, -13)
    assert oval.loops in ("one", "two", "lemniscate")
    # explicit cases: b'^4 vs a'^4 decides the topology
    from congruent.cassini import CassiniOval
    from fractions import Fraction as Fr
    assert CassiniOval(Fr(1), Fr(2)).loops == "one"
    assert CassiniOval(Fr(2), Fr(2)).loops == "two"
    assert CassiniOval(Fr(1), Fr(1)).loops == "lemniscate"


def test_heegner_four_79_fixture():
    quad, tri, oval, pts = cassini.heegner_four(79, 125, 52**2)
    assert sorted(pts["x2"]) == [12921**2, 13000**2]
    assert tri.area == 79
    for x2 in pts["x2"]:
        assert oval.residual(x2, 0) == 0


def test_heegner_adjoined_62_fixture():
    quad, tri, _ = cassini.heegner_two(62, 20, 7, adjoin="sqrt2N")
    assert (quad.c2, quad.c4sq) == (9362, 15438**2)
    assert tri == _tri("177537/21140", "84560/5727", "2056525601/121068780")
    assert tri.area == 62


def test_heegner_four_62_adjoined():
    quad, _, _, pts = cassini.heegner_four(62, 20, F(7**2 * 2))
    assert sorted(pts["x2"]) == [302**2, 2 * 280**2]


def test_quad_invariants():
    quad, _, _ = cassini.heegner_two(29, 1, -13)
    # c4^2 - c2^2 = N c1^2 and c4^2 + c2^2-side structure
    assert quad.c4sq - quad.c2**2 == 29 * quad.c1sq


def test_heegner_two_is_the_conic_triangle_with_positive_hypotenuse():
    tri = cassini.heegner_two(29, 1, -13)[1]
    assert tri == conics.conic_triangle(29, 1, -13).scaled(-1)


def test_heegner_two_serves_the_hyperbolic_branch():
    # the first N = 5 tangent-chain step, (f1, f2) = (3, 2), has N c1^2 < c2^2:
    # conic_triangle refuses it, and the same formula still gives area 5
    quad, tri, _ = cassini.heegner_two(5, 3, 2)
    assert 5 * quad.c1sq - quad.c2**2 == -quad.c3sq
    assert tri == _tri("1519/492", "4920/1519", "3344161/747348")
    with pytest.raises(ValueError, match="outside the real ellipse"):
        conics.conic_triangle(5, 3, 2)


def test_rejects_degenerate_input():
    with pytest.raises(ValueError):
        cassini.heegner_two(6, 1, 0)
    with pytest.raises(ValueError):
        cassini.heegner_two(4, 1, 2)


def test_heegner_four_is_the_conic_triangle_with_positive_sides():
    # (f1, f2) = (125, 52) and (52, 125) differ only in the sign of c3; the
    # flip on c < 0 gives both the one positive triangle of area 79
    tri = cassini.heegner_four(79, 125, 52**2)[1]
    assert tri == _tri("233126551/167973000", "335946000/2950969", "56434050774922081/495683115837000")
    assert cassini.heegner_four(79, 52, 125**2)[1] == tri
    assert tri == conics.conic_triangle(79, 125, 52, adjoin="sqrtN")
    assert tri == conics.conic_triangle(79, 52, 125, adjoin="sqrtN").scaled(-1)
