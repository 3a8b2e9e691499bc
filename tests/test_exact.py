import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from congruent.exact import (
    FactorBudgetExceeded,
    OutputTooLarge,
    factorize,
    format_rat,
    is_probable_prime,
    is_square,
    max_digits,
    printable_checker,
    rat_sqrt,
    squarefree_part,
)


@given(st.integers(min_value=0, max_value=10**20))
def test_is_square_of_square(n):
    assert is_square(n * n) == n


@given(st.integers(min_value=2, max_value=10**12))
def test_is_square_rejects_offsets(n):
    assert is_square(n * n + 1) is None or n * n + 1 == (n + 1) ** 2


def test_is_square_negative():
    assert is_square(-4) is None


@given(st.fractions(min_value=0, max_value=10**6))
def test_rat_sqrt_roundtrip(q):
    r = rat_sqrt(q * q)
    assert r == abs(q)


def test_rat_sqrt_non_square():
    assert rat_sqrt(Fraction(2)) is None
    assert rat_sqrt(Fraction(1, 3)) is None
    assert rat_sqrt(Fraction(-1)) is None
    assert rat_sqrt(Fraction(49, 64)) == Fraction(7, 8)


@pytest.mark.parametrize(
    "n,expected",
    [(2, True), (3, True), (4, False), (561, False), (2**61 - 1, True),
     (10**18 + 9, True), (10**18 + 7, False),
     # a strong pseudoprime to the twelve prime bases 2..37: base 41 exposes it
     (318665857834031151167461, False)],
)
def test_probable_prime(n, expected):
    assert is_probable_prime(n) is expected


@given(st.integers(min_value=2, max_value=10**12))
@settings(max_examples=200)
def test_factorize_product(n):
    factors = factorize(n)
    assert factors == sorted(factors)
    prod = 1
    for p in factors:
        assert is_probable_prime(p)
        prod *= p
    assert prod == n


def test_factorize_budget():
    # two ~30-digit primes: rho cannot split this within a tiny budget
    p = 2**101 - 69
    q = 2**107 - 171
    with pytest.raises(FactorBudgetExceeded):
        factorize(p * q, budget=10**3)


def test_the_digit_limit_admits_every_value_below_ten_to_the_limit():
    # 10**d - 1 has the limit's d digits and 10**d has one more, whatever
    # their bit lengths: as an int, a numerator of either sign and a denominator
    # (10**d - 1 is odd and 7 divides no 10**d, so no fraction here reduces)
    d = max_digits()
    check = printable_checker()
    for sign in (1, -1):
        top = sign * (10**d - 1)
        printable = {
            top: str(top),
            Fraction(top, 2): f"{top}/2",
            Fraction(sign, 10**d - 1): f"{sign}/{10**d - 1}",
        }
        for value, text in printable.items():
            check(value)
            assert format_rat(value) == text
        for past in (sign * 10**d, Fraction(sign * 10**d, 7), Fraction(sign, 10**d)):
            with pytest.raises(OutputTooLarge):
                check(past)
            with pytest.raises(OutputTooLarge):
                format_rat(past)


def test_factorize_budget_is_shared_by_the_attempts():
    # the first rho attempt on this semiprime needs 2687 iterations and the
    # second 1151, so a budget of 2000 per attempt would split it on the second
    p, q = 10000019, 30000023
    assert factorize(p * q, budget=4000) == [p, q]
    with pytest.raises(FactorBudgetExceeded):
        factorize(p * q, budget=2000)


@given(st.integers(min_value=1, max_value=10**9), st.integers(min_value=1, max_value=10**4))
def test_squarefree_part_invariant(d, s):
    n = d * s * s
    sf = squarefree_part(n)
    assert n % sf == 0
    assert is_square(n // sf) is not None
    # squarefree: no repeated prime factor
    fs = factorize(sf)
    assert len(fs) == len(set(fs))


def test_squarefree_part_sign():
    assert squarefree_part(-18) == -2
    assert squarefree_part(18) == 2
    assert squarefree_part(1) == 1


def test_parse_format_roundtrip():
    for s in ("3/2", "-41/6", "7", "0"):
        assert format_rat(Fraction(s)) == s


# --- sympy oracles ---


def _oracle_inputs(seed, count):
    """Seeded integers across the trial-division, rho and Miller-Rabin regimes."""
    rng = random.Random(seed)
    return [rng.randrange(2, 10**k) for k in (3, 6, 9, 12, 15, 18, 24, 30) for _ in range(count)]


def test_factorize_matches_sympy_factorint():
    sympy = pytest.importorskip("sympy")
    near = [sympy.nextprime(10**6 + k) for k in (0, 50, 1000)]
    # semiprimes just past 10**12, the end of trial division, so rho splits them
    semiprimes = [p * q for p in near for q in near if p <= q]
    semiprimes += [sympy.nextprime(10**8) * sympy.nextprime(3 * 10**9), 10000019 * 30000023]
    # prime cofactors that end trial division early, and a product of two
    # primes just past 10**6 that must run it to the end
    early = [10**12 + 39, (10**6 + 3) * (10**6 + 33), 2**61 - 1, 3 * (2**89 - 1)]
    for n in _oracle_inputs(1, 1) + semiprimes + early + [2**64, 3**40 * 7, (10**6 + 3) ** 3]:
        want = sorted(p for p, e in sympy.factorint(n).items() for _ in range(e))
        assert factorize(n) == want, n
    # at the budget that just splits it (see the shared-budget test above)
    assert factorize(10000019 * 30000023, budget=4000) == [10000019, 30000023]


def test_is_probable_prime_matches_a_sieve_below_2000():
    # below 43^2 = 1849 trial division by the primes <= 41 decides alone
    sieve = [False, False] + [True] * 1998
    for p in range(2, 45):
        if sieve[p]:
            sieve[p * p :: p] = [False] * len(sieve[p * p :: p])
    assert [is_probable_prime(n) for n in range(2000)] == sieve


def test_is_probable_prime_matches_sympy_isprime():
    sympy = pytest.importorskip("sympy")
    # Carmichael numbers, strong pseudoprimes to the first bases, and both
    # sides of the deterministic-base limit 3317044064679887385961981
    hard = [561, 41041, 825265, 3215031751, 3825123056546413051, 318665857834031151167461]
    limit = 3317044064679887385961981
    edges = [sympy.prevprime(limit), sympy.nextprime(limit), limit, limit + 2]
    edges += [2**89 - 1, 2**107 - 1]
    for n in [*range(-2, 5000), *_oracle_inputs(2, 12), *hard, *edges]:
        assert is_probable_prime(n) is bool(sympy.isprime(n)), n


@given(st.fractions(max_denominator=10**6), st.booleans())
@settings(max_examples=200, deadline=None)
def test_rat_sqrt_matches_sympy_sqrt(q, square):
    sympy = pytest.importorskip("sympy")
    if square:
        q = q * q
    for r in (q, q.numerator):
        want = sympy.sqrt(sympy.Rational(r.numerator, r.denominator))
        got = rat_sqrt(r)
        assert (got is None) is (not want.is_Rational), r
        assert got is None or sympy.Rational(got.numerator, got.denominator) == want, r
