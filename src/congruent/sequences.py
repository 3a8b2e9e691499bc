"""Congruent-number families from Fibonacci/Lucas and Chebyshev numbers.

The Lucas identity L_n^2 = 5 F_n^2 + 4(-1)^n turns the algebraic identity
(L^2-4)^2 + (4L)^2 = (L^2+4)^2 into right triangles: for even indices the
triangle (5F, 4L/F, (L^2+4)/F) of area 10L, for odd indices the integer
triangle (L^2-4, 4L, 5F^2).  The Pell relation T_m(n)^2 =
(n^2-1)U_{m-1}(n)^2 + 1 does the same for Chebyshev values, and
specializing at n=2 connects the family to the Heronian triangles with
consecutive integer sides.  Every family instance carries explicit
rational points on its curve y^2 = x^3 - N^2 x, tied together by the
group law: P1 = (0,0) + P0 and P2 = 2 P0.

T_m(n) and U_m(n) are integers computed by their three-term recurrence.
The Pell relation, a polynomial identity of degree 2m in n, is proved by
evaluating it at 2m + 1 points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .elliptic import Curve, Point, curve_en
from .exact import rat_sqrt
from .triples import RatTriangle

__all__ = [
    "FibPair",
    "BrahmaguptaTriangle",
    "fib_lucas",
    "fib_even_family",
    "fib_odd_family",
    "standard_points",
    "cheb_eval",
    "cheb_family",
    "pell_identity_check",
    "brahmagupta",
]


@dataclass(frozen=True)
class FibPair:
    """(F_n, L_n) with the defining identity checked on construction."""

    index: int
    f: int
    l: int

    def __post_init__(self):
        if self.l**2 - 5 * self.f**2 != 4 * (-1) ** self.index:
            raise ValueError("Fibonacci/Lucas identity violated")


@dataclass(frozen=True)
class BrahmaguptaTriangle:
    """Heronian triangle with consecutive integer sides and its data."""

    a: int
    b: int
    c: int
    perimeter_half: Fraction
    area: Fraction

    def __post_init__(self):
        if not (self.b == self.a + 1 == self.c - 1):
            raise ValueError("sides must be consecutive integers")
        p = self.perimeter_half
        heron = p * (p - self.a) * (p - self.b) * (p - self.c)
        if self.area**2 != heron:
            raise ValueError("Heron area mismatch")


def fib_lucas(n):
    """The pair (F_n, L_n) by the standard recurrences."""
    if n < 0:
        raise ValueError("need n >= 0")
    f0, f1 = 0, 1
    l0, l1 = 2, 1
    for _ in range(n):
        f0, f1 = f1, f0 + f1
        l0, l1 = l1, l0 + l1
    return FibPair(n, f0, l0)


def standard_points(tri, n):
    """The companion points P1, P2 on E_N for a triangle of area N.

    P1 = (a(a+c)/2, a^2(a+c)/2) and P2 = (c^2/4, c(a^2-b^2)/8); they are
    verified to equal (0,0) + P0 and 2 P0 respectively by the caller.
    """
    a, b, c = tri.a, tri.b, tri.c
    p1 = Point(a * (a + c) / 2, a**2 * (a + c) / 2)
    p2 = Point(c**2 / 4, c * (a**2 - b**2) / 8)
    curve = curve_en(n)
    if not (curve.contains(p1) and curve.contains(p2)):
        raise AssertionError("companion points off E_N")
    return p1, p2


def _check_group_relations(n, p0, p1, p2):
    curve = curve_en(n)
    if not curve.contains(p0):
        raise AssertionError("P0 off E_N")
    if curve.add(Point(Fraction(0), Fraction(0)), p0) != p1:
        raise AssertionError("P1 != (0,0) + P0")
    if curve.double(p0) != p2:
        raise AssertionError("P2 != 2 P0")


def fib_even_family(n):
    """Triangle, congruent number and curve points for index 2n.

    The triangle is (5F, 4L/F, (L^2+4)/F) with (F, L) = (F_2n, L_2n); the
    area is N = 10 L_2n and every curve in the sequence passes through
    the vertical line x = -20 at P0 = (-20, 100 F_2n).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    pair = fib_lucas(2 * n)
    f, l = pair.f, pair.l
    tri = RatTriangle(
        Fraction(5 * f), Fraction(4 * l, f), Fraction(l**2 + 4, f)
    )
    big_n = 10 * l
    if tri.area != big_n:
        raise AssertionError("even-index family area mismatch")
    p0 = Point(Fraction(-20), Fraction(100 * f))
    p1, p2 = standard_points(tri, big_n)
    _check_group_relations(big_n, p0, p1, p2)
    return tri, big_n, (p0, p1, p2)


def fib_odd_family(n):
    """Integer triangle (L^2-4, 4L, 5F^2) for index 2n+1; N = 2(L^2-4)L."""
    if n < 1:
        raise ValueError("need n >= 1")
    pair = fib_lucas(2 * n + 1)
    f, l = pair.f, pair.l
    tri = RatTriangle(Fraction(l**2 - 4), Fraction(4 * l), Fraction(5 * f**2))
    big_n = 2 * (l**2 - 4) * l
    if tri.area != big_n:
        raise AssertionError("odd-index family area mismatch")
    p1, p2 = standard_points(tri, big_n)
    return tri, big_n, (p1, p2)


def cheb_eval(kind, m, n):
    """Integer value T_m(n) or U_m(n) by the three-term recurrence.

    kind 'first' gives T (T_0 = 1, T_1 = n), 'second' gives U (U_0 = 1,
    U_1 = 2n); both satisfy P_{k+1} = 2n P_k - P_{k-1}.  The loop starts one
    step below index 0, at T_{-1} = T_1 = n and U_{-1} = 0.
    """
    if m < 0:
        raise ValueError("chebyshev index must be >= 0")
    if kind not in ("first", "second"):
        raise ValueError("kind must be 'first' or 'second'")
    prev, cur = (n if kind == "first" else 0), 1
    for _ in range(m):
        prev, cur = cur, 2 * n * cur - prev
    return cur


def cheb_family(m, n):
    """Triangle, congruent number and P0 for the Chebyshev family.

    T = T_m(n) and U = U_{m-1}(n) give the triangle ((n^2-1)U, 2T/U,
    (T^2+1)/U) of area N = (n^2-1)T, with P0 = (1-n^2, (n^2-1)^2 U) on
    E_N and the standard companion points P1, P2.
    """
    if m < 1 or n < 2:
        raise ValueError("need m >= 1 and n >= 2")
    t = cheb_eval("first", m, n)
    u = cheb_eval("second", m - 1, n)
    tri = RatTriangle(
        Fraction((n**2 - 1) * u), Fraction(2 * t, u), Fraction(t**2 + 1, u)
    )
    big_n = (n**2 - 1) * t
    if tri.area != big_n:
        raise AssertionError("Chebyshev family area mismatch")
    p0 = Point(Fraction(1 - n**2), Fraction((n**2 - 1) ** 2 * u))
    p1, p2 = standard_points(tri, big_n)
    _check_group_relations(big_n, p0, p1, p2)
    return tri, big_n, (p0, p1, p2)


def pell_identity_check(max_m=12):
    """T_m(x)^2 - (x^2-1) U_{m-1}(x)^2 = 1 as polynomial identities, m <= max_m.

    The left side has degree <= 2m, so holding at the 2m + 1 points
    x = 0, 1, ..., 2m proves the identity for index m.
    """
    return all(
        cheb_eval("first", m, x) ** 2 - (x**2 - 1) * cheb_eval("second", m - 1, x) ** 2 == 1
        for m in range(1, max_m + 1)
        for x in range(2 * m + 1)
    )


def brahmagupta(k):
    """The k-th Heronian triangle with consecutive sides and its curves.

    t = 2 T_k(2) gives sides (t-1, t, t+1), semiperimeter P = 3t/2 and
    integer area S = 3 T_k(2) U_{k-1}(2).  P equals the area of the
    Chebyshev-family right triangle at (k, 2), so P is a congruent
    number.  The curve y^2 = (x+AB)(x+BC)(x+AC) carries the integral
    points Q0..Q3; they have infinite order for t > 2 and order 4 in the
    degenerate t = 2 case.
    """
    if k < 0:
        raise ValueError("need k >= 0")
    tk = cheb_eval("first", k, 2)
    uk = cheb_eval("second", k - 1, 2) if k >= 1 else 0
    t = 2 * tk
    a, b, c = t - 1, t, t + 1
    p = Fraction(3 * t, 2)
    s = Fraction(3 * tk * uk)
    tri = BrahmaguptaTriangle(a, b, c, p, s)
    if k >= 1 and p != (2**2 - 1) * tk:
        raise AssertionError("semiperimeter is not the Chebyshev-family area")
    ab, bc, ac = a * b, b * c, a * c
    curve = Curve(
        a2=Fraction(ab + bc + ac),
        a4=Fraction(ab * bc + ab * ac + bc * ac),
        a6=Fraction(ab * bc * ac),
    )
    qs = (
        Point(Fraction(0), Fraction(a * b * c)),
        Point(Fraction(-(b**2)), Fraction(b)),
        Point(Fraction(2 - ab), Fraction(2 * c)),
        Point(Fraction(2 - bc), Fraction(2 * a)),
    )
    for q in qs:
        if not curve.contains(q):
            raise AssertionError("integral point off the Heronian curve")
    if t > 2:
        for q in qs:
            if not curve.certify_infinite_order(q):
                raise AssertionError("integral point unexpectedly torsion")
        orders = None
    else:
        orders = tuple(curve.order_at_most(q, 12) for q in qs)
        if any(o != 4 for o in orders):
            raise AssertionError("degenerate-case points are not order 4")
    return tri, curve, qs, orders
