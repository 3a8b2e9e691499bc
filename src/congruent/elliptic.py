"""Exact affine group law on elliptic curves over the rationals.

Curves are y^2 = x^3 + a2*x^2 + a4*x + a6, which covers both the
congruent-number curves y^2 = x^3 - N^2 x and the factored cubics
y^2 = (x+AB)(x+BC)(x+AC) used by the Heronian-triangle family.  Points are
affine pairs of Fractions or the point at infinity; exactness, not speed,
is the goal, so there are no projective coordinates.  ``add`` reads the sum's
y on the chord at its first argument, so a caller passes the point of smaller
height first.

Points are validated once, where they enter: a construction's points lie
on its curve by an identity proved in tests/test_identities.py, input
points are checked with ``contains``, and only ``order_at_most`` checks
its argument.  ``add`` itself does not, so a chain of additions pays for
no cubic evaluations; an off-curve argument gives a meaningless sum.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import lcm

__all__ = ["Curve", "Point", "INFINITY", "curve_en"]

# A rational torsion point has order at most 12 (Mazur), so a point whose
# first 12 multiples are all affine must have infinite order.
MAZUR_MAX_ORDER = 12


class Point(namedtuple("Point", "x y infinity", defaults=(Fraction(0), Fraction(0), False))):
    """An affine point (x, y), or the identity when infinity is True."""

    __slots__ = ()

    def __neg__(self):
        if self.infinity:
            return self
        return Point(self.x, -self.y)

    def __str__(self):
        if self.infinity:
            return "inf"
        from .exact import format_rat

        return f"({format_rat(self.x)}, {format_rat(self.y)})"


INFINITY = Point(infinity=True)


class Curve(namedtuple("Curve", "a2 a4 a6")):
    __slots__ = ()

    def __new__(cls, a2, a4, a6):
        self = tuple.__new__(cls, (Fraction(a2), Fraction(a4), Fraction(a6)))
        if self.discriminant() == 0:
            raise ValueError("singular curve")
        return self

    def discriminant(self):
        """The cubic's discriminant, from the integers L (a2, a4, a6), L the denominators' lcm."""
        l = lcm(*(q.denominator for q in self))
        a, b, c = (q.numerator * (l // q.denominator) for q in self)
        scaled = 18 * a * b * c * l - 4 * a**3 * c + a**2 * b**2 - 4 * b**3 * l - 27 * c**2 * l**2
        return Fraction(scaled, l**4)

    def rhs(self, x):
        return ((x + self.a2) * x + self.a4) * x + self.a6

    def contains(self, p):
        if p.infinity:
            return True
        return p.y**2 == self.rhs(p.x)

    def add(self, p, q):
        """Chord-tangent addition of two points already known to be on the curve.

        The sum is the same exact pair either way round, but y3 is read on the
        chord at p, so passing the point of smaller height as p saves the
        big-by-big products and gcds of reading it at the larger one.
        """
        if p.infinity:
            return q
        if q.infinity:
            return p
        if p.x == q.x:
            if p.y == -q.y:
                return INFINITY
            # tangent slope; p.y != 0 here since p == q and p != -p
            slope = (3 * p.x**2 + 2 * self.a2 * p.x + self.a4) / (2 * p.y)
        else:
            slope = (q.y - p.y) / (q.x - p.x)
        x3 = slope**2 - self.a2 - p.x - q.x
        y3 = slope * (p.x - x3) - p.y
        return Point(x3, y3)

    def double(self, p):
        return self.add(p, p)

    def order_at_most(self, p):
        """Smallest 1 <= k <= MAZUR_MAX_ORDER with k*P = infinity, or None."""
        if not self.contains(p):
            raise ValueError(f"point {p} is not on the curve")
        acc = INFINITY
        for k in range(1, MAZUR_MAX_ORDER + 1):
            # p is the small point: read the chord there, not at k*P
            acc = self.add(p, acc)
            if acc.infinity:
                return k
        return None

    def certify_infinite_order(self, p):
        """True iff no multiple of P up to the Mazur bound vanishes: never for O, as 1*O = O."""
        return self.order_at_most(p) is None


def curve_en(n):
    """The congruent-number curve y^2 = x^3 - N^2 x (sign of N immaterial)."""
    return Curve(0, -n * n, 0)
