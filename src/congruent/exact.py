"""Exact integer and rational kernels.

Python ints are already arbitrary precision and fractions.Fraction is an
exact, eagerly normalized rational, so there are no scalar types here.
What this module adds are the number-theoretic kernels everything else
leans on: perfect-square tests, deterministic factorization with an
effort budget, and signed squarefree parts.
"""

from __future__ import annotations

import functools
import math
import random
import sys
from collections import Counter
from fractions import Fraction

__all__ = [
    "ParameterError",
    "EffortOutOfRange",
    "FactorBudgetExceeded",
    "OutputTooLarge",
    "MAX_DIGITS",
    "max_digits",
    "is_square",
    "rat_sqrt",
    "is_probable_prime",
    "factorize",
    "squarefree_part",
    "printable_checker",
    "format_rat",
]

TRIAL_DIVISION_BOUND = 2**12


class FactorBudgetExceeded(Exception):
    """Raised when factorization gives up before fully splitting its input."""

    def __init__(self, n, remaining):
        super().__init__(f"factorization budget exhausted on {n}; unfactored part {remaining}")
        self.n = n
        self.remaining = remaining


class ParameterError(ValueError):
    """A parameter outside a construction's domain: str() is "<name> <reason>"."""

    def __init__(self, name, reason):
        super().__init__(f"{name} {reason}")
        self.name, self.reason = name, reason


class EffortOutOfRange(ParameterError):
    """A parameter that bounds a construction's effort is outside low..high."""

    def __init__(self, name, low, high, value):
        super().__init__(name, f"must be between {low} and {high}, got {value}")


def is_square(n):
    """Return the exact nonnegative root if n is a perfect square, else None."""
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def rat_sqrt(r):
    """Exact nonnegative square root of a rational, or None.

    Present iff numerator and denominator (in lowest terms) are both
    perfect squares.
    """
    r = Fraction(r)
    rn = is_square(r.numerator)
    if rn is None:
        return None
    rd = is_square(r.denominator)
    if rd is None:
        return None
    return Fraction(rn, rd)


def is_probable_prime(n):
    """Miller-Rabin test; deterministic below 3.3e24, else 40 fixed rounds."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        if n % p == 0:
            return n == p
    if n < 43**2:  # a composite n has a prime factor <= sqrt(n), so <= 41 here
        return True
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if n < 3317044064679887385961981:
        bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    else:
        rng = random.Random(0xC0FFEE ^ n)
        bases = tuple(rng.randrange(2, n - 1) for _ in range(40))
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n, budget, seed):
    """One Pollard rho run with Brent cycle detection; returns (factor or None, iterations)."""
    if n % 2 == 0:
        return 2, 0
    rng = random.Random(seed)
    y = rng.randrange(1, n)
    c = rng.randrange(1, n)
    m = 128
    g = r = q = 1
    iterations = 0
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = math.gcd(q, n)
            k += m
            iterations += min(m, r - k + m)
            if iterations > budget:
                return None, iterations
        r *= 2
    if g == n:
        # backtrack one step at a time
        while True:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
            if g > 1:
                break
    return (g if g != n else None), iterations


def factorize(n, budget=10**7):
    """Prime factorization of |n| as a sorted list with multiplicity.

    Trial division below TRIAL_DIVISION_BOUND, stopping early at a prime cofactor, then
    Pollard rho (Brent) with a fixed seed so runs are deterministic.
    ``budget`` caps the rho iterations of the whole call, shared by every
    attempt on every cofactor; exceeding it raises FactorBudgetExceeded
    rather than hanging on hard composites.
    """
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factorize 0")
    factors = []
    for p in (2, 3, 5):
        while n % p == 0:
            factors.append(p)
            n //= p
    p = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    # A prime cofactor ends trial division, so it is tested before the loop and
    # after each prime divided out.  Only an int is tested, and only an int gets
    # the lower bound: conics.lattice_secondary still passes Fractions, which
    # would raise TypeError in Miller-Rabin, and keep their old results at 10**6.
    prime = isinstance(n, int) and is_probable_prime(n)
    bound = TRIAL_DIVISION_BOUND if isinstance(n, int) else 10**6
    while not prime and p * p <= n and p < bound:
        if n % p == 0:
            while n % p == 0:
                factors.append(p)
                n //= p
            prime = is_probable_prime(n)
        p += wheel[i]
        i = (i + 1) % 8
    if prime:
        factors.append(n)
    if prime or n == 1:
        return sorted(factors)
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        # no prime below the bound divides m, so m < bound^2 is prime
        if m < bound**2 or is_probable_prime(m):
            factors.append(m)
            continue
        r = is_square(m)
        if r is not None:
            stack.extend((r, r))
            continue
        d = None
        for attempt in range(8):
            d, used = _brent_rho(m, budget, seed=0x5EED + attempt)
            budget -= used
            if d is not None and d != m:
                break
            d = None
        if d is None:
            raise FactorBudgetExceeded(n, m)
        stack.extend((d, m // d))
    return sorted(factors)


def squarefree_part(n):
    """The squarefree d with n = d*s**2; sign of d follows the sign of n."""
    if n == 0:
        raise ValueError("squarefree part of 0 is undefined")
    sign = -1 if n < 0 else 1
    return sign * math.prod(p for p, k in Counter(factorize(n)).items() if k % 2)


class OutputTooLarge(Exception):
    """A result has more decimal digits than the digit limit allows."""


# The most decimal digits a result may have: CPython's default int-to-str limit
MAX_DIGITS = 4300


def max_digits():
    """MAX_DIGITS, or the interpreter's int-to-str limit where that is lower; its 0 (no
    limit) lifts nothing, and an interpreter without one (before 3.10.7) gets MAX_DIGITS."""
    return min(MAX_DIGITS, getattr(sys, "get_int_max_str_digits", lambda: 0)() or MAX_DIGITS)


@functools.cache
def _checker(digits):
    """printable_checker's check for a limit of digits decimal digits."""
    low, high = -(10**digits), 10**digits

    def check(*values):
        for v in values:
            if not low < v.numerator < high or v.denominator >= high:
                raise OutputTooLarge

    return check


def printable_checker():
    """A check that raises OutputTooLarge if an int, or a Fraction's numerator or denominator,
    has more digits than max_digits().  It reads the limit once, when it is made, so a
    caller that checks values in a loop makes one checker."""
    return _checker(max_digits())


def format_rat(r):
    """Exact 'p/q' (or 'p') string for an int or a Fraction; raises OutputTooLarge if the
    numerator or the denominator has more digits than max_digits(), whatever the interpreter allows."""
    _checker(max_digits())(r)
    return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"
