from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from congruent.polyrat import Poly, RatFunc

X = Poly.x()

small_coeffs = st.lists(
    st.integers(min_value=-20, max_value=20), min_size=0, max_size=6
).map(Poly)


@given(small_coeffs, small_coeffs)
def test_add_commutes(p, q):
    assert p + q == q + p


@given(small_coeffs, small_coeffs, small_coeffs)
@settings(max_examples=100)
def test_mul_distributes(p, q, r):
    assert p * (q + r) == p * q + p * r


def test_poly_rejects_non_integer_coefficients():
    with pytest.raises(TypeError):
        Poly([Fraction(1, 2)])
    c = RatFunc.const(Fraction(3, 4))
    assert (c.num.coeffs, c.den.coeffs) == ((3,), (4,))
    assert c == RatFunc(Poly([3]), Poly([4]))


def test_ratfunc_normalizes():
    one = Poly([1])
    f = RatFunc(X**2 + -one, X + -one)
    g = RatFunc(X + one)
    assert f == g


def test_ratfunc_arithmetic():
    t = RatFunc.t()
    one = RatFunc.const(1)
    f = one / (t - 1) + one / (t + 1)
    assert f == 2 * t / (t * t - 1)


def test_ratfunc_quotient_rule():
    t = RatFunc.t()
    f = (t**2 + 1) / (t**3 - 2)
    assert f == RatFunc(Poly((1, 0, 1)), Poly((-2, 0, 0, 1)))
