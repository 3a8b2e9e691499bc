from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from congruent.conics import conic_ec_points, conic_triangle
from congruent.elliptic import INFINITY, MAZUR_MAX_ORDER, Curve, Point, curve_en
from congruent.sequences import brahmagupta
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
        E5.order_at_most(off)
    with pytest.raises(ValueError):
        tangent_intersection(off, 5)


def test_doubling_stays_on_curve():
    q = P
    for _ in range(4):
        q = E5.double(q)
        assert E5.contains(q)


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


def _tate_normal_form(b, c):
    """E(b, c): y^2 + (1-c)xy - by = x^3 - bx^2 and P = (0, 0), with the square completed."""
    a1, a3, a2 = 1 - c, -b, -b
    return Curve(a2 + a1**2 / 4, a1 * a3 / 2, a3**2 / 4), Point(F(0), a3 / 2)


T = F(3)
# Kubert's (b, c) families, on which (0, 0) has order n; order 3 is y^2 = x^3 + 1/4
TORSION = {
    3: (Curve(0, 0, F(1, 4)), Point(F(0), F(1, 2))),
    4: _tate_normal_form(T, 0),
    5: _tate_normal_form(T, T),
    6: _tate_normal_form(T + T**2, T),
    7: _tate_normal_form(T**3 - T**2, T**2 - T),
    8: _tate_normal_form((2 * T - 1) * (T - 1), (2 * T - 1) * (T - 1) / T),
    9: _tate_normal_form(T**2 * (T - 1) * (T**2 - T + 1), T**2 * (T - 1)),
    10: _tate_normal_form(
        T**3 * (T - 1) * (2 * T - 1) / (T**2 - 3 * T + 1) ** 2,
        -T * (T - 1) * (2 * T - 1) / (T**2 - 3 * T + 1),
    ),
    12: _tate_normal_form(
        T * (2 * T - 1) * (2 * T**2 - 2 * T + 1) * (3 * T**2 - 3 * T + 1) / (T - 1) ** 4,
        -T * (2 * T - 1) * (3 * T**2 - 3 * T + 1) / (T - 1) ** 3,
    ),
}


@pytest.mark.parametrize("n", sorted(TORSION))
def test_every_mazur_order(n):
    curve, q = TORSION[n]
    assert curve.contains(q)
    assert curve.order_at_most(q) == n
    assert not curve.certify_infinite_order(q)


def test_the_smaller_point_is_added_first(monkeypatch):
    multiples = [INFINITY]
    for _ in range(MAZUR_MAX_ORDER):
        multiples.append(E5.add(P, multiples[-1]))
    calls = []
    add = Curve.add

    def recording(self, p, q):
        calls.append((p, q))
        return add(self, p, q)

    monkeypatch.setattr(Curve, "add", recording)
    # the Mazur loop reads each chord at the fixed point P, not at k*P
    assert E5.order_at_most(P) is None
    assert calls == [(P, multiples[j]) for j in range(MAZUR_MAX_ORDER)]


_, _, _, EB, QB, _, _ = brahmagupta(3)
GROUPS = {"E5": (E5, P), "brahmagupta k=3": (EB, QB[0])}


def _multiple(curve, k, q0):
    """k*q0 by |k| additions of the small point q0, negated for k < 0."""
    acc = INFINITY
    for _ in range(abs(k)):
        acc = curve.add(q0, acc)
    return acc if k >= 0 else -acc


@given(st.sampled_from(sorted(GROUPS)), st.integers(-8, 8), st.integers(-8, 8))
@settings(max_examples=60)
def test_addition_commutes_on_multiples(name, j, k):
    curve, q0 = GROUPS[name]
    p, q = _multiple(curve, j, q0), _multiple(curve, k, q0)
    assert curve.add(p, q) == curve.add(q, p)


def test_infinite_order_certificate():
    assert E5.order_at_most(P) is None
    assert E5.certify_infinite_order(P)


def test_torsion_theorem_matches_the_mazur_loop():
    # E_N(Q)_tors = {O, (0,0), (±N,0)}, so conics certifies infinite order
    # on E_N by y != 0; the 12-fold addition is the oracle here
    tri157 = conic_triangle(157, 87005, 610961)
    cases = {5: [P, E5.double(P)], 157: list(conic_ec_points(tri157))}
    for n, points in cases.items():
        curve = curve_en(n)
        for q in points + [Point(F(x), F(0)) for x in (0, n, -n)]:
            assert curve.contains(q)
            assert curve.certify_infinite_order(q) == (q.y != 0), (n, q)


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
