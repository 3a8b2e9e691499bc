"""Dense univariate polynomials and rational functions over exact rationals.

Coefficients are Fractions stored lowest degree first.  A rational function
is a plain numerator/denominator pair that is never reduced; two of them
are equal when their cross products are.  Derivatives of a quotient are
taken at a point: ``derivatives_at`` gives the exact values f(t0), f'(t0),
... at one rational t0, and an identity between such values is proved by
evaluating it at more points than the degree of its cleared polynomial
form.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

__all__ = ["Poly", "RatFunc", "derivatives_at"]


class Poly:
    """A univariate polynomial with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c):
        return cls([c])

    @classmethod
    def x(cls):
        return cls([0, 1])

    @property
    def degree(self):
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly([other])
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly([other])
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly([other])
        return self + (-other)

    def __rsub__(self, other):
        return Poly([other]) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        out = Poly([1])
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def deriv(self):
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, t):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                body = _fmt_coeff(mag)
            else:
                var = "t" if i == 1 else f"t^{i}"
                body = var if mag == 1 else f"{_fmt_coeff(mag)}*{var}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"Poly({self})"


def _fmt_coeff(c):
    return str(c.numerator) if c.denominator == 1 else f"({c})"


class RatFunc:
    """A quotient of two Polys, stored as given and never reduced."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if not isinstance(num, Poly):
            num = Poly([num]) if isinstance(num, (int, Fraction)) else Poly(num)
        if den is None:
            den = Poly([1])
        elif not isinstance(den, Poly):
            den = Poly([den]) if isinstance(den, (int, Fraction)) else Poly(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        self.num = num
        self.den = den

    @classmethod
    def t(cls):
        return cls(Poly.x())

    @classmethod
    def const(cls, c):
        return cls(Poly([c]))

    def is_zero(self):
        return self.num.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunc.const(other)
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
        if isinstance(other, (int, Fraction)):
            other = RatFunc.const(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return RatFunc.const(other) / self

    def __pow__(self, n):
        if n < 0:
            return RatFunc(self.den, self.num) ** (-n)
        return RatFunc(self.num**n, self.den**n)

    def __call__(self, t):
        d = self.den(t)
        if d == 0:
            raise ZeroDivisionError(f"pole at t={t}")
        return self.num(t) / d

    def __str__(self):
        if self.den == Poly([1]):
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self):
        return f"RatFunc({self})"


def derivatives_at(num, den, t0, order):
    """The exact values f(t0), f'(t0), ..., f^(order)(t0) of f = num/den.

    Taylor-mode differentiation (Griewank & Walther, Evaluating Derivatives,
    ch. 13): with num(t0 + h) = sum p_k h^k and den(t0 + h) = sum q_k h^k,
    the Taylor coefficients of f follow from f * den = num as
    f_k = (p_k - sum_{j=1..k} q_j f_{k-j}) / q_0, and f^(k)(t0) = k! f_k.
    """
    p, q = [], []
    for k in range(order + 1):
        p.append(num(t0) / factorial(k))
        q.append(den(t0) / factorial(k))
        num, den = num.deriv(), den.deriv()
    if q[0] == 0:
        raise ZeroDivisionError(f"pole at t={t0}")
    f = []
    for k in range(order + 1):
        f.append((p[k] - sum(q[j] * f[k - j] for j in range(1, k + 1))) / q[0])
    return [factorial(k) * fk for k, fk in enumerate(f)]
