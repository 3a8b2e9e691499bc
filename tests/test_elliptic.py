from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from congruent.elliptic import INFINITY, Curve, Point, curve_en
from congruent.tangent import tangent_intersection

F = Fraction

E5 = curve_en(5)
P = Point(F(-4), F(6))  # known rational point on y^2 = x^3 - 25x


def test_contains_and_rhs():
    assert E5.contains(P)
    assert E5.contains(INFINITY)
    assert not E5.contains(Point(F(1), F(1)))
    assert E5.rhs(F(-4)) == 36


def test_identity_and_inverse():
    assert E5.add(P, INFINITY) == P
    assert E5.add(INFINITY, P) == P
    assert E5.add(P, -P) == INFINITY


def test_entry_points_reject_off_curve_points():
    # add trusts its arguments; points are validated where they enter
    off = Point(F(1), F(1))
    with pytest.raises(ValueError):
        E5.mul(3, off)
    with pytest.raises(ValueError):
        E5.order_at_most(off)
    with pytest.raises(ValueError):
        tangent_intersection(off, 5)


def test_doubling_stays_on_curve():
    q = P
    for _ in range(4):
        q = E5.double(q)
        assert E5.contains(q)


@given(st.integers(min_value=-8, max_value=8), st.integers(min_value=-8, max_value=8))
@settings(max_examples=60)
def test_mul_additivity(j, k):
    lhs = E5.add(E5.mul(j, P), E5.mul(k, P))
    assert lhs == E5.mul(j + k, P)


def test_associativity_on_torsion_and_free_parts():
    t = Point(F(0), F(0))  # 2-torsion on E_5
    a, b, c = P, E5.double(P), t
    assert E5.add(E5.add(a, b), c) == E5.add(a, E5.add(b, c))


def test_torsion_orders():
    # (0,0), (5,0), (-5,0) are the 2-torsion points of y^2 = x^3 - 25x
    for x in (0, 5, -5):
        q = Point(F(x), F(0))
        assert E5.order_at_most(q) == 2
    assert E5.order_at_most(INFINITY) == 1


def test_infinite_order_certificate():
    assert E5.order_at_most(P) is None
    assert E5.certify_infinite_order(P)


def test_curve_en_shape():
    e = curve_en(6)
    assert e.rhs(F(0)) == 0
    assert e.contains(Point(F(-3), F(9)))
    assert e.discriminant() != 0


def test_singular_curve_rejected():
    with pytest.raises(ValueError):
        Curve(F(0), F(0), F(0))


def test_general_weierstrass_group_law():
    # y^2 = x^3 + a2 x^2 + a4 x + a6 with a known point, as used by the
    # consecutive-sides families
    e = Curve(F(-1), F(-4), F(4))
    q = Point(F(1), F(0))
    assert e.contains(q)
    assert e.add(q, q) == INFINITY  # y = 0 means 2-torsion
