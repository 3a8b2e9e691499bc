"""Dense univariate polynomials over the integers and their quotients.

Coefficients are ints stored lowest degree first, so a product costs no
gcd.  Every Poly is in normal form: int coefficients and no trailing zero,
so the zero polynomial has no coefficients.  Only the public constructor
checks that, for input from outside; arithmetic keeps the form by
construction and builds its results unchecked.  A rational function is a
plain numerator/denominator pair of such polynomials that is never
reduced; two of them are equal when their cross products are.  An int or
Fraction operand scales the pair by its own numerator and denominator,
as the constant function it equals would.  The conic identities in
``conics`` build such functions of t and compare them.
"""

from __future__ import annotations

import operator
from fractions import Fraction

__all__ = ["Poly", "RatFunc"]


class Poly:
    """A univariate polynomial with integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        # a Fraction raises TypeError here instead of making every product pay gcds
        cs = [operator.index(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def _normal(cls, coeffs):
        """The Poly of ``coeffs``, a tuple of ints already in normal form."""
        # callers build coeffs from a list: a tuple built from a generator or
        # map starts at ten slots and is shrunk, which raised peak RSS by
        # ~0.8 MB over a few hundred verify.run_all() calls
        p = object.__new__(cls)
        p.coeffs = coeffs
        return p

    @classmethod
    def x(cls):
        return cls([0, 1])

    @property
    def degree(self):
        """Degree; -1 for the zero polynomial (read by perfbench's tracer)."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        while out and not out[-1]:  # the sum's own cancellation
            out.pop()
        return Poly._normal(tuple(out))

    def __neg__(self):
        return Poly._normal(tuple([-c for c in self.coeffs]))

    def _scale(self, c, k=0):
        """self times the one-term c x^k, for an int c."""
        if c == 1 and not k:
            return self
        if not (c and self.coeffs):
            return Poly._normal(())
        return Poly._normal((0,) * k + tuple([c * x for x in self.coeffs]))

    def __mul__(self, other):
        p, q = (self, other) if len(self.coeffs) >= len(other.coeffs) else (other, self)
        a, b = p.coeffs, q.coeffs
        if not b:
            return q
        if not any(b[:-1]):  # the shorter factor is one term, such as the constant 1
            return p._scale(b[-1], len(b) - 1)
        # the top coefficient is a product of two nonzero ints: nothing to strip
        out = [0] * (len(a) + len(b) - 1)
        for i, cb in enumerate(b):
            if cb:
                for j, ca in enumerate(a, i):
                    out[j] += ca * cb
        return Poly._normal(tuple(out))

    def __pow__(self, n):
        if n < 0:
            raise ValueError(f"negative exponent {n}: a Poly has no inverse")
        out = Poly._normal((1,))
        base = self
        while True:
            if n & 1:
                out = out * base
            n >>= 1
            if not n:
                return out
            base = base * base


class RatFunc:
    """A quotient of two Polys, stored as given and never reduced."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = Poly._normal((1,))
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        self.num = num
        self.den = den

    @classmethod
    def t(cls):
        return cls(Poly.x())

    def is_zero(self):
        return self.num.is_zero()

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            return RatFunc(self.num._scale(q) + self.den._scale(p), self.den._scale(q))
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RatFunc(self.num._scale(other.numerator), self.den._scale(other.denominator))
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * Fraction(1, other)  # ZeroDivisionError for 0
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __pow__(self, n):
        return RatFunc(self.num**n, self.den**n)
