import math
import sys
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
    printable_bits,
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
     (10**18 + 9, True), (10**18 + 7, False)],
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


def test_printable_bits_is_the_first_unprintable_bit_length():
    limit = sys.get_int_max_str_digits()
    bits = printable_bits(limit)
    assert len(format_rat(2 ** (bits - 1))) <= limit
    with pytest.raises(OutputTooLarge):
        format_rat(Fraction(1, 2**bits))
    assert printable_bits(0) is None


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
