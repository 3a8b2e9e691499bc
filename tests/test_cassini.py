from fractions import Fraction

import pytest

from congruent import cassini, conics
from congruent.triples import RatTriangle

F = Fraction


def _tri(a, b, c):
    return RatTriangle(F(a), F(b), F(c))


def test_heegner_two_29_fixture():
    two = cassini.heegner_two(29, 1, -13)
    assert two[:4] == (13**2, 70, 1, 99**2)
    assert two.triangle == _tri("99/910", "52780/99", "48029801/90090")
    assert two.triangle.area == 29
    assert cassini.oval_axis_points(two.oval) == ([99**2], [1]) == (two.axis_x_sq, two.axis_y_sq)


def test_axis_points_satisfy_oval_equation():
    for system in (
        cassini.heegner_two(29, 1, -13),
        cassini.heegner_two(62, 20, 7, adjoin="sqrt2N"),
        cassini.heegner_four(79, 125, 52**2),
        cassini.heegner_four(62, 20, F(7**2 * 2)),
    ):
        oval = system.oval
        assert system.axis_x_sq
        for x2 in system.axis_x_sq:
            assert oval.residual(x2, 0) == 0
        for y2 in system.axis_y_sq:
            assert oval.residual(0, y2) == 0


def test_loop_classification():
    oval = cassini.heegner_two(29, 1, -13).oval
    assert oval.loops in ("one", "two", "lemniscate")
    # explicit cases: b'^4 vs a'^4 decides the topology
    from congruent.cassini import CassiniOval
    from fractions import Fraction as Fr
    assert CassiniOval(Fr(1), Fr(2)).loops == "one"
    assert CassiniOval(Fr(2), Fr(2)).loops == "two"
    assert CassiniOval(Fr(1), Fr(1)).loops == "lemniscate"


def test_heegner_four_79_fixture():
    four = cassini.heegner_four(79, 125, 52**2)
    assert sorted(four.axis_x_sq) == [12921**2, 13000**2]
    assert four.triangle.area == 79
    for x2 in four.axis_x_sq:
        assert four.oval.residual(x2, 0) == 0


def test_heegner_adjoined_62_fixture():
    two = cassini.heegner_two(62, 20, 7, adjoin="sqrt2N")
    assert (two.c2, two.c4_sq) == (9362, 15438**2)
    assert two.triangle == _tri("177537/21140", "84560/5727", "2056525601/121068780")
    assert two.triangle.area == 62


def test_heegner_four_62_adjoined():
    four = cassini.heegner_four(62, 20, F(7**2 * 2))
    assert sorted(four.axis_x_sq) == [302**2, 2 * 280**2]


def test_quad_invariants():
    two = cassini.heegner_two(29, 1, -13)
    # c4^2 - c2^2 = N c1^2 and c4^2 + c2^2-side structure
    assert two.c4_sq - two.c2**2 == 29 * two.c1_sq


def test_heegner_two_is_the_conic_triangle_with_positive_hypotenuse():
    tri = cassini.heegner_two(29, 1, -13).triangle
    assert tri == conics.conic_triangle(29, 1, -13).scaled(-1)


def test_heegner_two_serves_the_hyperbolic_branch():
    # the first N = 5 tangent-chain step, (f1, f2) = (3, 2), has N c1^2 < c2^2:
    # conic_triangle refuses it, and the same formula still gives area 5
    two = cassini.heegner_two(5, 3, 2)
    assert 5 * two.c1_sq - two.c2**2 == -two.c3_sq
    assert two.triangle == _tri("1519/492", "4920/1519", "3344161/747348")
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
    tri = cassini.heegner_four(79, 125, 52**2).triangle
    assert tri == _tri("233126551/167973000", "335946000/2950969", "56434050774922081/495683115837000")
    assert cassini.heegner_four(79, 52, 125**2).triangle == tri
    assert tri == conics.conic_triangle(79, 125, 52, adjoin="sqrtN")
    assert tri == conics.conic_triangle(79, 52, 125, adjoin="sqrtN").scaled(-1)
