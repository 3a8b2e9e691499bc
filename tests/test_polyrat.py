import signal
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


def test_ratfunc_normalizes():
    one = Poly([1])
    f = RatFunc(X**2 + -one, X + -one)
    g = RatFunc(X + one)
    assert f == g


def test_ratfunc_arithmetic():
    t = RatFunc.t()
    one = RatFunc(Poly([1]))
    f = one / (t - 1) + one / (t + 1)
    assert f == 2 * t / (t * t - 1)


def test_ratfunc_quotient_rule():
    t = RatFunc.t()
    f = (t**2 + 1) / (t**3 - 2)
    assert f == RatFunc(Poly((1, 0, 1)), Poly((-2, 0, 0, 1)))


# Operands that reach every path of the kernel: zero, the units, one-term
# polynomials c x^k and dense ones.
monomials = st.builds(
    lambda c, k: Poly([0] * k + [c]), st.integers(min_value=-20, max_value=20), st.integers(0, 4)
)
polys = st.one_of(st.sampled_from([Poly(), Poly([1]), Poly([-1]), X]), monomials, small_coeffs)
scalars = st.one_of(
    st.sampled_from([0, 1, -1, Fraction(6, 4), Fraction(-3, 9)]),
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-9, max_value=9, max_denominator=9),
)
ratfuncs = st.builds(RatFunc, polys, polys.filter(lambda p: not p.is_zero()))


def assert_normal(p):
    assert all(type(c) is int for c in p.coeffs)
    assert not p.coeffs or p.coeffs[-1] != 0


def schoolbook_add(p, q):
    n = max(len(p.coeffs), len(q.coeffs))
    a, b = (list(r.coeffs) + [0] * (n - len(r.coeffs)) for r in (p, q))
    return Poly([x + y for x, y in zip(a, b)])


def schoolbook_mul(p, q):
    out = [0] * (len(p.coeffs) + len(q.coeffs))
    for i, x in enumerate(p.coeffs):
        for j, y in enumerate(q.coeffs):
            out[i + j] += x * y
    return Poly(out)


@given(polys, polys)
def test_arithmetic_keeps_normal_form_and_matches_schoolbook(p, q):
    neg_q = Poly([-c for c in q.coeffs])
    cases = [(p + q, schoolbook_add(p, q)), (p + -q, schoolbook_add(p, neg_q)), (-q, neg_q)]
    cases += [(p * q, schoolbook_mul(p, q)), (q * p, schoolbook_mul(p, q))]
    for got, want in cases:
        assert_normal(got)
        assert got.coeffs == want.coeffs


@pytest.mark.parametrize("base", [Poly([1]), Poly([-1]), RatFunc(Poly([1]), Poly([-1]))])
def test_negative_power_raises_instead_of_looping(base):
    # a unit base never grows, so the loop it once ran forever is cut by a timer
    def expire(*_):
        raise TimeoutError("negative power still looping")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 2)
    try:
        with pytest.raises(ValueError, match="negative exponent -1"):
            base**-1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@given(polys, st.integers(0, 6))
def test_pow_is_the_repeated_product(p, n):
    want = Poly([1])
    for _ in range(n):
        want = schoolbook_mul(want, p)
    got = p**n
    assert_normal(got)
    assert got.coeffs == want.coeffs


def test_pow_builds_no_square_past_its_last_bit(monkeypatch):
    degrees = []
    mul = Poly.__mul__

    def spy(p, q):
        out = mul(p, q)
        degrees.append(out.degree)
        return out

    monkeypatch.setattr(Poly, "__mul__", spy)
    (X + Poly([1])) ** 5
    assert max(degrees) == 5


@given(ratfuncs, scalars)
def test_ratfunc_scalar_ops_match_the_const_path(f, c):
    # the constant function c; an int has a numerator and denominator too
    k = RatFunc(Poly([c.numerator]), Poly([c.denominator]))
    pairs = [(f * c, f * k), (c * f, k * f), (f + c, f + k), (c + f, k + f), (f - c, f - k), (c - f, k - f)]
    if c:
        pairs.append((f / c, f / k))
    for got, want in pairs:
        assert_normal(got.num)
        assert_normal(got.den)
        assert got == want


def test_ratfunc_divides_by_int_and_fraction():
    t = RatFunc.t()
    assert t / 4 == RatFunc(X, Poly([4]))
    assert t / Fraction(1, 2) == 2 * t
    assert t / Fraction(6, 4) == RatFunc(Poly([0, 2]), Poly([3]))
    assert t / -3 == RatFunc(-X, Poly([3]))


@pytest.mark.parametrize("zero", [0, Fraction(0)])
def test_ratfunc_division_by_scalar_zero_raises_zero_division(zero):
    with pytest.raises(ZeroDivisionError):
        RatFunc.t() / zero


def test_closed_form_dividing_by_a_literal_serves_fraction_and_ratfunc():
    def half_square_plus_one(x):
        return (x**2 + 1) / 2

    assert half_square_plus_one(Fraction(3)) == 5
    assert half_square_plus_one(RatFunc.t()) == RatFunc(Poly([1, 0, 1]), Poly([2]))
