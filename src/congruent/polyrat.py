"""Dense univariate polynomials over the integers and their quotients.

Coefficients are ints stored lowest degree first, so a product costs no
gcd.  A rational function is a plain numerator/denominator pair of such
polynomials that is never reduced; two of them are equal when their cross
products are.  A rational constant enters through ``RatFunc.const``, which
puts its numerator and denominator on either side.  The conic identities
in ``conics`` build such functions of t and compare them.
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
        return Poly(out)

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return Poly(out)

    def __pow__(self, n):
        out = Poly([1])
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out


class RatFunc:
    """A quotient of two Polys, stored as given and never reduced."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = Poly([1])
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        self.num = num
        self.den = den

    @classmethod
    def t(cls):
        return cls(Poly.x())

    @classmethod
    def const(cls, c):
        c = Fraction(c)
        return cls(Poly([c.numerator]), Poly([c.denominator]))

    def is_zero(self):
        return self.num.is_zero()

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunc.const(other)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunc.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return RatFunc.const(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunc.const(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __pow__(self, n):
        return RatFunc(self.num**n, self.den**n)
