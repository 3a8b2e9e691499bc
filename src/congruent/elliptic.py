"""Exact affine group law on elliptic curves over the rationals.

Curves are y^2 = x^3 + a2*x^2 + a4*x + a6, which covers both the
congruent-number curves y^2 = x^3 - N^2 x and the factored cubics
y^2 = (x+AB)(x+BC)(x+AC) used by the Heronian-triangle family.  Points are
affine pairs of Fractions or the point at infinity; exactness, not speed,
is the goal, so there are no projective coordinates.

Points are validated once, where they enter: every construction checks
its points with ``contains``, and ``mul`` and ``order_at_most`` check
their argument.  ``add`` itself does not, so a chain of additions pays
for no cubic evaluations; an off-curve argument gives a meaningless sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = ["Curve", "Point", "INFINITY", "curve_en"]

# A rational torsion point has order at most 12 (Mazur), so a point whose
# first 12 multiples are all affine must have infinite order.
MAZUR_MAX_ORDER = 12


@dataclass(frozen=True)
class Point:
    """An affine point (x, y), or the identity when infinity is True."""

    x: Fraction = Fraction(0)
    y: Fraction = Fraction(0)
    infinity: bool = False

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


def point(x, y):
    return Point(Fraction(x), Fraction(y))


@dataclass(frozen=True)
class Curve:
    a2: Fraction
    a4: Fraction
    a6: Fraction

    def __init__(self, a2, a4, a6):
        object.__setattr__(self, "a2", Fraction(a2))
        object.__setattr__(self, "a4", Fraction(a4))
        object.__setattr__(self, "a6", Fraction(a6))
        if self.discriminant() == 0:
            raise ValueError("singular curve")

    def discriminant(self):
        # discriminant of the cubic x^3 + a2 x^2 + a4 x + a6
        a, b, c = self.a2, self.a4, self.a6
        return 18 * a * b * c - 4 * a**3 * c + a**2 * b**2 - 4 * b**3 - 27 * c**2

    def rhs(self, x):
        x = Fraction(x)
        return x**3 + self.a2 * x**2 + self.a4 * x + self.a6

    def contains(self, p):
        if p.infinity:
            return True
        return p.y**2 == self.rhs(p.x)

    def _require(self, p):
        if not self.contains(p):
            raise ValueError(f"point {p} is not on the curve")

    def add(self, p, q):
        """Chord-tangent addition of two points already known to be on the curve."""
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

    def mul(self, k, p):
        """k-fold sum by double-and-add; mul(0, p) is the identity."""
        if k < 0:
            return self.mul(-k, -p)
        self._require(p)
        acc = INFINITY
        addend = p
        while k:
            if k & 1:
                acc = self.add(acc, addend)
            if k > 1:
                addend = self.add(addend, addend)
            k >>= 1
        return acc

    def order_at_most(self, p, bound=MAZUR_MAX_ORDER):
        """Smallest 1 <= k <= bound with k*P = infinity, or None."""
        self._require(p)
        acc = INFINITY
        for k in range(1, bound + 1):
            acc = self.add(acc, p)
            if acc.infinity:
                return k
        return None

    def certify_infinite_order(self, p):
        """True iff P is affine and no multiple up to the Mazur bound vanishes."""
        if p.infinity:
            return False
        return self.order_at_most(p) is None

    def __str__(self):
        from .exact import format_rat

        terms = ["x^3"]
        for coeff, mono in ((self.a2, "x^2"), (self.a4, "x"), (self.a6, "")):
            if coeff == 0:
                continue
            s = format_rat(abs(coeff))
            body = f"{s}*{mono}" if mono else s
            terms.append(("- " if coeff < 0 else "+ ") + body)
        return "y^2 = " + " ".join(terms)


def curve_en(n):
    """The congruent-number curve y^2 = x^3 - N^2 x (sign of N immaterial)."""
    n = Fraction(n)
    return Curve(0, -(n**2), 0)
