"""The tangent method: chains of (f1, f2) solutions by point doubling.

Starting from one rational right triangle of area N, the denominator and
half-numerator of its hypotenuse form Heegner's (c1, c2); solving the
binary quadratic form c2 = |N f1^2 - f2^2|/2 with f1 f2 = c1 yields a new
solution pair (f1, f2) and, through the two-intersection system, a new
triangle for the same N.  Iterating walks the tangent lines of
y^2 = x^3 - N^2 x: each triangle's curve point, triples.triangle_point,
is (minus) the double of the previous one.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .cassini import heegner_two
from .elliptic import curve_en
from .exact import EffortOutOfRange, printable_checker, rat_sqrt
from .triples import RatTriangle, triangle_point

__all__ = [
    "ChainEntry",
    "TangentChain",
    "tangent_intersection",
    "solve_f",
    "tangent_chain",
    "chain_from_legs",
]

# beyond this depth the integers have tens of thousands of digits
MAX_FREE_DEPTH = 5


def tangent_intersection(p, n):
    """Third intersection of the tangent at p with E_N, i.e. -2p."""
    curve = curve_en(n)
    if not curve.contains(p):
        raise ValueError(f"point {p} is not on E_{n}")
    return -curve.double(p)


def solve_f(c1, c2, n):
    """Solve c1 = |f1 f2|, c2 = |N f1^2 - f2^2|/2 for integers (f1, f2).

    The radical sqrt(c2^2 + N c1^2) is Heegner's c4 and is rational on a
    tangent chain; f2^2 = c4 ± c2, whichever branch is a perfect square.
    f2 is canonicalized positive.
    """
    c1 = Fraction(c1)
    c2 = Fraction(c2)
    c4 = rat_sqrt(c2**2 + n * c1**2)
    if c4 is None:
        raise ValueError("c2^2 + N c1^2 is not a square: not on a tangent chain")
    for branch in (c4 - c2, c4 + c2):
        if branch <= 0:
            continue
        f2 = rat_sqrt(branch)
        if f2 is None or f2.denominator != 1:
            continue
        f2 = int(f2)
        f1f2 = c1
        if f1f2 % f2 != 0:
            continue
        f1 = int(f1f2 / f2)
        if abs(Fraction(n * f1**2 - f2**2, 2)) == c2:
            return f1, f2
    raise ValueError("no perfect-square branch: not on a tangent chain")


ChainEntry = namedtuple("ChainEntry", "f1 f2 triangle point")


class TangentChain(namedtuple("TangentChain", "n seed entries")):
    __slots__ = ()

    def doubling_holds(self):
        """Each triangle is right of area N and maps to its point, ±2 times the previous one on E_N."""
        curve = curve_en(self.n)
        prev = triangle_point(self.seed)
        for entry in self.entries:
            p, tri, dbl = entry.point, entry.triangle, curve.double(prev)
            if not tri.is_right_of_area(self.n) or p != triangle_point(tri) or p not in (dbl, -dbl):
                return False
            prev = p
        return True

    def checks(self):
        return [("doubling relation", self.doubling_holds())]

    def _asdict(self):
        """The chain as printed: its (f1, f2) solutions, triangles and points."""
        return {
            "solutions": [{"f1": e.f1, "f2": e.f2} for e in self.entries],
            "triangles": [e.triangle for e in self.entries],
            "points": [e.point for e in self.entries],
        }


def tangent_chain(tri0, n, depth=3):
    """Generate the solution chain S_1..S_depth from a seed triangle.

    Each step reads (c1, c2) = (denominator(c), numerator(c)/2) off the
    current hypotenuse, solves for (f1, f2), and rebuilds the next
    triangle through the two-intersection system.  Numbers roughly square
    each step, so depth is bounded by MAX_FREE_DEPTH, and the first step
    with a value too large to print raises exact.OutputTooLarge before the
    next one starts.  The chain's doubling_holds() checks that each triangle
    is right of area N and maps to its point, ±2 times the previous one.
    """
    if not 1 <= depth <= MAX_FREE_DEPTH:
        raise EffortOutOfRange("depth", 1, MAX_FREE_DEPTH, depth)
    if tri0.area != n:
        raise ValueError("seed triangle area is not N")
    entries = []
    check = printable_checker()
    current = tri0
    for _ in range(depth):
        c = abs(current.c)
        c1 = c.denominator
        c2 = Fraction(c.numerator, 2)
        f1, f2 = solve_f(c1, c2, n)
        tri = heegner_two(n, f1, f2).triangle
        point = triangle_point(tri)
        check(f1, f2, tri.a, tri.b, tri.c, point.x, point.y)
        entries.append(ChainEntry(f1, f2, tri, point))
        current = tri
    return TangentChain(n, tri0, tuple(entries))


def chain_from_legs(n, a, b, depth=3):
    """The tangent_chain from the right triangle with legs a and b, of area n."""
    return tangent_chain(RatTriangle.from_legs(a, b), n, depth)
