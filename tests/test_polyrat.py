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
        (value, slope), scale = derivatives_at(f.num, f.den, v, 1)
        num = 2 * v * (v**3 - 2) - (v**2 + 1) * 3 * v**2
        assert value / scale == f(v)
        assert slope / scale == Fraction(num, (v**3 - 2) ** 2)


def test_derivatives_at_rejects_a_pole():
    with pytest.raises(ZeroDivisionError):
        derivatives_at(Poly.const(1), X - Poly.const(2), 2, 3)



def _quotient_rule(num, den, order):
    """Numerators n_k with f^(k) = n_k / den^(k+1), by (n/D^w)' = (n'D - w n D')/D^(w+1)."""

    def deriv(p):
        return Poly([i * c for i, c in enumerate(p.coeffs)][1:])

    out = [num]
    for w in range(1, order + 1):
        n = out[-1]
        out.append(deriv(n) * den - w * n * deriv(den))
    return out


def test_integer_jets_match_the_quotient_rule():
    from congruent.trinity import sphere_params

    for i in (1, 2, 3):
        for f in sphere_params(i)[0]:
            reference = _quotient_rule(f.num, f.den, 4)
            for t0 in range(81):
                values, scale = derivatives_at(f.num, f.den, t0, 4)
                assert type(scale) is int and all(type(v) is int for v in values)
                d = f.den(t0)
                want = [n(t0) / d ** (k + 1) for k, n in enumerate(reference)]
                assert [Fraction(v, scale) for v in values] == want, (i, t0)


def test_derivatives_at_clears_coefficient_denominators():
    num = Poly([Fraction(1, 3), Fraction(-2, 5), 1])
    den = Poly([Fraction(7, 2), 0, Fraction(1, 6)])
    reference = _quotient_rule(num, den, 3)
    for t0 in (-2, 0, 3, Fraction(5, 4)):
        values, scale = derivatives_at(num, den, t0, 3)
        d = den(t0)
        got = [Fraction(v) / scale for v in values]
        assert got == [n(t0) / d ** (k + 1) for k, n in enumerate(reference)]
        if type(t0) is int:
            assert type(scale) is int and all(type(v) is int for v in values)
