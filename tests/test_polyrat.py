from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from congruent.polyrat import Poly, RatFunc, derivatives_at

X = Poly.x()

small_coeffs = st.lists(
    st.integers(min_value=-20, max_value=20), min_size=0, max_size=6
).map(lambda cs: Poly([Fraction(c) for c in cs]))


@given(small_coeffs, small_coeffs)
def test_add_commutes(p, q):
    assert p + q == q + p


@given(small_coeffs, small_coeffs, small_coeffs)
@settings(max_examples=100)
def test_mul_distributes(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(small_coeffs, small_coeffs, st.integers(-5, 5))
@settings(max_examples=100)
def test_eval_is_homomorphism(p, q, t):
    assert (p * q)(t) == p(t) * q(t)
    assert (p + q)(t) == p(t) + q(t)


def test_deriv_product_rule():
    p = X**3 - 2 * X + Poly.const(1)
    q = X**2 + Poly.const(3)
    assert (p * q).deriv() == p.deriv() * q + p * q.deriv()


def test_ratfunc_normalizes():
    f = RatFunc(X**2 - Poly.const(1), X - Poly.const(1))
    g = RatFunc(X + Poly.const(1))
    assert f == g


def test_ratfunc_arithmetic():
    t = RatFunc.t()
    f = 1 / (t - 1) + 1 / (t + 1)
    assert f == 2 * t / (t * t - 1)
    assert f(Fraction(3)) == Fraction(3, 4)


def test_ratfunc_quotient_rule():
    t = RatFunc.t()
    f = (t**2 + 1) / (t**3 - 2)
    # check the Taylor-mode first derivative against the quotient rule
    for v in (Fraction(2), Fraction(-1), Fraction(5, 3)):
        value, slope = derivatives_at(f.num, f.den, v, 1)
        num = 2 * v * (v**3 - 2) - (v**2 + 1) * 3 * v**2
        assert value == f(v)
        assert slope == Fraction(num, (v**3 - 2) ** 2)


def test_derivatives_at_rejects_a_pole():
    with pytest.raises(ZeroDivisionError):
        derivatives_at(Poly.const(1), X - Poly.const(2), 2, 3)

