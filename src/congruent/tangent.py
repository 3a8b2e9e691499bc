"""The tangent method: chains of (f1, f2) solutions by point doubling.

Starting from one rational right triangle of area N, the denominator and
half-numerator of its hypotenuse form Heegner's (c1, c2); solving the
binary quadratic form c2 = |N f1^2 - f2^2|/2 with f1 f2 = c1 yields a new
solution pair (f1, f2) and, through the two-intersection system, a new
triangle for the same N.  Iterating walks the tangent lines of
y^2 = x^3 - N^2 x: each triangle's curve point is (minus) the double of
the previous one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cassini import heegner_two
from .elliptic import Point, curve_en
from .exact import rat_sqrt
from .triples import RatTriangle

__all__ = [
    "ChainEntry",
    "TangentChain",
    "triangle_to_point",
    "point_to_triangle",
    "tangent_intersection",
    "solve_f",
    "tangent_chain",
]

# beyond this depth the integers have tens of thousands of digits
MAX_FREE_DEPTH = 5


def triangle_to_point(tri, n):
    """The point (N(a+c)/b, 2N^2(a+c)/b^2) on E_N for a triangle of area N."""
    if tri.b == 0:
        raise ValueError("degenerate triangle")
    if tri.area != n:
        raise ValueError("triangle area is not N")
    x = n * (tri.a + tri.c) / tri.b
    y = 2 * n**2 * (tri.a + tri.c) / tri.b**2
    p = Point(x, y)
    if not curve_en(n).contains(p):
        raise AssertionError("triangle point not on E_N")
    return p


def point_to_triangle(p, n):
    """The inverse map ((x^2-N^2)/y, 2Nx/y, (x^2+N^2)/y)."""
    if p.infinity or p.y == 0:
        raise ValueError("point has no associated triangle")
    n = Fraction(n)
    tri = RatTriangle(
        (p.x**2 - n**2) / p.y, 2 * n * p.x / p.y, (p.x**2 + n**2) / p.y
    )
    if tri.area != n:
        raise AssertionError("recovered triangle has wrong area")
    return tri


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


@dataclass(frozen=True)
class ChainEntry:
    f1: int
    f2: int
    triangle: RatTriangle
    point: Point


@dataclass(frozen=True)
class TangentChain:
    n: int
    seed: RatTriangle
    entries: tuple

    def doubling_holds(self):
        """Each entry's point is ±2 times the previous point on E_N."""
        curve = curve_en(self.n)
        prev = triangle_to_point(self.seed, self.n)
        for entry in self.entries:
            dbl = curve.double(prev)
            if entry.point.x != dbl.x or abs(entry.point.y) != abs(dbl.y):
                return False
            prev = entry.point
        return True


def tangent_chain(tri0, n, depth=3, allow_large=False):
    """Generate the solution chain S_1..S_depth from a seed triangle.

    Each step reads (c1, c2) = (denominator(c), numerator(c)/2) off the
    current hypotenuse, solves for (f1, f2), and rebuilds the next
    triangle through the two-intersection system.  Numbers roughly square
    each step; depths beyond 5 must be explicitly allowed.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if depth > MAX_FREE_DEPTH and not allow_large:
        raise ValueError(
            f"depth {depth} exceeds {MAX_FREE_DEPTH}; pass allow_large=True"
        )
    if tri0.area != n:
        raise ValueError("seed triangle area is not N")
    entries = []
    current = tri0
    for _ in range(depth):
        c = abs(current.c)
        c1 = c.denominator
        c2 = Fraction(c.numerator, 2)
        f1, f2 = solve_f(c1, c2, n)
        _, tri, _ = heegner_two(n, f1, f2)
        entries.append(ChainEntry(f1, f2, tri, triangle_to_point(tri, n)))
        current = tri
    chain = TangentChain(n, tri0, tuple(entries))
    if not chain.doubling_holds():
        raise AssertionError("tangent chain points are not successive doubles")
    return chain
