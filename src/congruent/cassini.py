"""Congruent numbers and Cassini ovals via Heegner's quadratic systems.

Two systems of equations translate a congruent-number datum (N, f1, f2)
into the four Heegner variables c1..c4; the c's are simultaneously the
sides of a rational right triangle of area N and the axis intersections
of a Cassini oval.  The first system gives ovals with two X-axis
intersections (one loop), the second gives two separate loops with four
X-axis intersections.  Both triangles are conics.signed_triangle's: the
two-intersection one of (N, f1, f2), the four-intersection one of
(N, f1, f2 sqrt(N)).  All oval geometry is carried in squared coordinates
so adjoined (irrational) c values stay exact.  heegner_two and
heegner_four return each system's CassiniSystem, whose checks() reads its
triangle.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .conics import ellipse, f2_squared, signed_triangle
from .exact import ParameterError, rat_sqrt

__all__ = [
    "CassiniOval",
    "heegner_two",
    "heegner_four",
    "oval_axis_points",
    "four_example",
]


class CassiniOval(namedtuple("CassiniOval", "a2 b4 x_weight")):
    """(w x^2 + y^2 + a'^2)^2 - 4 a'^2 w x^2 = b'^4 in squared coordinates.

    x_weight w is 1 for the classical oval and 2 for the stretched form
    used by the four-intersection system.  loops is 'one' when the curve
    is a single closed curve (b' > a'), 'two' when it splits around the
    foci (b' < a'), 'lemniscate' at the transition.
    """

    __slots__ = ()

    def __new__(cls, a2, b4, x_weight=1):
        if b4 <= 0 or a2 < 0:
            raise ValueError("need a'^2 >= 0 and b'^4 > 0")
        if x_weight not in (1, 2):
            raise ValueError("x_weight must be 1 or 2")
        return tuple.__new__(cls, (a2, b4, x_weight))

    @property
    def loops(self):
        if self.b4 > self.a2**2:
            return "one"
        if self.b4 < self.a2**2:
            return "two"
        return "lemniscate"

    def _asdict(self):
        """The oval as printed: a'^2, b'^4 and its loops."""
        return {"a_sq": self.a2, "b_4": self.b4, "loops": self.loops}

    def residual(self, x2, y2):
        """Exact value of the defining quartic at squared coordinates."""
        w = self.x_weight
        return (w * x2 + y2 + self.a2) ** 2 - 4 * self.a2 * w * x2 - self.b4

    def y_squared(self, x):
        """Largest y^2 on the oval above abscissa x, as an exact pair.

        Returns (s, r) meaning y^2 = sqrt(s) - r; callers needing floats
        evaluate the square root themselves.
        """
        x = Fraction(x)
        w = self.x_weight
        return 4 * self.a2 * w * x**2 + self.b4, w * x**2 + self.a2


def oval_axis_points(oval):
    """Exact axis intersections of the oval, in squared coordinates.

    Returns (x2, y2): the x^2 values of the points (±x, 0) and the y^2
    values of the points (0, ±y).
    b'^2 must be rational (it always is here: b'^4 = c1^4 N^2).
    """
    b2 = rat_sqrt(oval.b4)
    if b2 is None:
        raise ValueError("b'^2 irrational; axis points not representable")
    w = oval.x_weight
    x2 = [v for v in (Fraction(oval.a2 + b2, w), Fraction(oval.a2 - b2, w)) if v > 0]
    y2 = [b2 - oval.a2] if b2 > oval.a2 else []
    # on the oval: tests/test_identities.py::test_axis_points_lie_on_the_oval
    return x2, y2


class CassiniSystem(namedtuple("CassiniSystem", "c1_sq c2 c3_sq c4_sq triangle oval axis_x_sq axis_y_sq n")):
    """One system's c1^2, c2, c3^2, c4^2 (c1, c3, c4 may be multiples of sqrt(N) or sqrt(2N)),
    its triangle of area N, its oval and the oval's squared axis points."""

    __slots__ = ()

    def checks(self):
        return [("triangle area = N", self.triangle.is_right_of_area(self.n))]


def heegner_two(n, f1, f2, adjoin="none"):
    """The CassiniSystem of the two-intersection system for (N, f1, f2).

    c1 = |f1 f2|, c2 = |N f1^2 - f2^2|/2, c3^2 = |N c1^2 - c2^2|,
    c4^2 = N c1^2 + c2^2; the oval is (a', b') = (c2, c1 sqrt(N)) and the
    triangle is the conic one at e f1 f2 = c1 c3, negated if its c < 0, also
    where c3^2 = c2^2 - N c1^2 puts the point outside the real ellipse.
    """
    if n <= 0:  # before any work: at N = 0 the oval's b'^4 = c1^4 N^2 would vanish
        raise ParameterError("n", "must be positive: no right triangle has area N <= 0")
    f2sq = f2_squared(n, f2, adjoin)
    c1sq = f1**2 * f2sq
    if c1sq == 0:
        raise ValueError("f1 f2 must be nonzero")
    c2 = abs(Fraction(n * f1**2 - f2sq, 2))
    if c2 == 0:
        raise ValueError("degenerate input: N f1^2 = f2^2")
    # N c1^2 - c2^2 is the conic's e^2 at x = N f1^2; c3^2 != 0:
    # tests/test_identities.py::test_heegner_two_c3_is_nonzero
    c3sq = abs(ellipse(n * f1**2, f2sq)) / 4
    c1c3 = rat_sqrt(c3sq * c1sq)
    if c1c3 is None:
        raise ValueError("c1 c3 irrational: sides do not rationalize")
    # right, area N: tests/test_identities.py::test_heegner_two_triangle_is_the_conic_triangle
    tri = signed_triangle(n, f1**2, f2sq, c1c3)
    if tri.c < 0:
        tri = tri.scaled(-1)
    oval = CassiniOval(c2**2, c1sq**2 * n**2, x_weight=1)
    return CassiniSystem(c1sq, c2, c3sq, n * c1sq + c2**2, tri, oval, *oval_axis_points(oval), n)


def heegner_four(n, f1, f2sq):
    """The CassiniSystem of the four-intersection system for (N, f1, f2) with f2^2 = f2sq.

    c3 = f1^2 - f2^2, c4 = 2 f1 f2, c2 = f1^2 + f2^2,
    c1^2 = (c4^2 - c3^2)/N; the oval (weight-2 form) meets the X axis in
    the four points ±c3, ±c4.  The triangle is the conic one of
    (N, f1, f2 sqrt(N)) at e f1 f2 = N^2 c1 c4/4, negated if its c < 0; its
    legs are N c2 c1c4/(|c3| c4^2) and 2 |c3| c4^2/(c2 c1c4).
    """
    if n <= 0:  # before any work: c1^2 divides by N
        raise ParameterError("n", "must be positive: no right triangle has area N <= 0")
    f2sq = Fraction(f2sq)
    if f2sq <= 0:
        raise ValueError("f2^2 must be positive")
    c3 = Fraction(f1**2) - f2sq
    c4sq = 4 * f1**2 * f2sq
    c2 = Fraction(f1**2) + f2sq
    if c4sq <= c3**2:
        raise ValueError("c4^2 <= c3^2: no valid four-intersection system")
    c1sq = (c4sq - c3**2) / n
    c1c4 = rat_sqrt(c1sq * c4sq)
    if c1c4 is None or c3 == 0:
        raise ValueError("sides do not rationalize for this (N, f1, f2)")
    # right, area N, with the former legs after the flip:
    # tests/test_identities.py::test_heegner_four_triangle_is_the_conic_triangle
    tri = signed_triangle(n, f1**2, n * f2sq, n * n * c1c4 / 4)
    if tri.c < 0:
        tri = tri.scaled(-1)
    oval = CassiniOval(c2**2, c1sq**2 * n**2, x_weight=2)
    # the X-axis points are ±c3, ±c4: tests/test_identities.py::test_heegner_four_axis_points
    return CassiniSystem(c1sq, c2, c3**2, c4sq, tri, oval, *oval_axis_points(oval), n)


def four_example(n, f1, f2):
    """The CassiniSystem of heegner_four(n, f1, f2^2)."""
    return heegner_four(n, f1, f2**2)
