"""Congruent-number families from Fibonacci/Lucas and Chebyshev numbers.

The Lucas identity L_n^2 = 5 F_n^2 + 4(-1)^n turns the algebraic identity
(L^2-4)^2 + (4L)^2 = (L^2+4)^2 into the integer triangle (L^2-4, 4L, 5F^2)
at odd indices.  At even indices it is the Pell relation T^2 - D U^2 = s^2
at (D, s) = (5, 2), and T_m(n)^2 = (n^2-1)U_{m-1}(n)^2 + 1 is the same at
(n^2-1, 1); a solution gives the triangle (DU, 2sT/U, (T^2+s^2)/U) of area
sDT.  Specializing the Chebyshev family at n=2 connects it to the Heronian
triangles with consecutive integer sides.  Every family instance carries
explicit rational points on its curve y^2 = x^3 - N^2 x, tied together by
the group law: P1 = (0,0) + P0 and P2 = 2 P0.

T_m(n) and U_{m-1}(n) are integers computed together by one recurrence.
The Pell relation, a polynomial identity of degree 2m in n, is proved by
evaluating it at 2m + 1 points.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import islice

from .elliptic import Curve, Point
from .exact import EffortOutOfRange, printable_checker
from .triples import RatTriangle, triangle_point

__all__ = [
    "FibPair",
    "lucas_pairs",
    "fib_lucas",
    "fib_even_family",
    "fib_odd_family",
    "fib_family",
    "standard_points",
    "cheb_pairs",
    "cheb_pair",
    "cheb_family",
    "pell_identity_check",
    "brahmagupta",
]

# k = 400 takes about 0.3 s as a `seq brahmagupta` process on a 2-vCPU
# host, 0.13 s of it in the one Mazur loop of certify_infinite_order, on Q0
MAX_BRAHMAGUPTA_K = 400


# (F_n, L_n) at index n
FibPair = namedtuple("FibPair", "index f l")


class Family(namedtuple("Family", "triangle congruent_number points")):
    """A family's triangle, its area N and its points on E_N."""

    __slots__ = ()

    def checks(self):
        return [("area = N", self.triangle.is_right_of_area(self.congruent_number))]


class Brahmagupta(namedtuple("Brahmagupta", "sides semiperimeter area curve points orders k")):
    """The k-th consecutive-sided Heronian triangle, its curve, Q0..Q3 and their orders, or None."""

    __slots__ = ()

    def checks(self):
        p, (a, b, c), orders = self.semiperimeter, self.sides, self.orders
        return [
            ("Heron area", p * (p - a) * (p - b) * (p - c) == self.area**2),
            ("points on curve", all(self.curve.contains(q) for q in self.points)),
            ("order 4 (degenerate)", orders == (4, 4, 4, 4))
            if self.k == 0
            else ("infinite order", orders is None),
        ]


def lucas_pairs(n):
    """Yield (F_k, L_k) for k = 0..n by the standard recurrences.

    Raises OutputTooLarge at the first L_k past the int-to-str digit limit
    (read once, at the first step), as every family prints a multiple of L_k.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    check = printable_checker()
    f0, f1 = 0, 1
    l0, l1 = 2, 1
    yield f0, l0
    for _ in range(n):
        f0, f1 = f1, f0 + f1
        l0, l1 = l1, l0 + l1
        check(l0)
        yield f0, l0


def fib_lucas(n):
    """The pair (F_n, L_n): the last value of lucas_pairs(n)."""
    for f, l in lucas_pairs(n):
        pass
    # L^2 - 5 F^2 = 4(-1)^n: tests/test_identities.py::test_lucas_identity_at_every_index
    return FibPair(n, f, l)


def standard_points(tri):
    """The companion points P1, P2 on E_N for a triangle of area N.

    P1 = triangle_point(tri) and P2 = (c^2/4, c(a^2-b^2)/8); in the even
    Fibonacci and the Chebyshev families they are (0,0) + P0 and 2 P0.
    """
    a, b, c = tri.a, tri.b, tri.c
    # P2 on E_{ab/2}: tests/test_identities.py::test_standard_points_lie_on_e_n
    return triangle_point(tri), Point(c**2 / 4, c * (a**2 - b**2) / 8)


def _pell_family(d, t, u, s):
    """Triangle, congruent number and curve points for T^2 - D U^2 = s^2.

    The triangle (DU, 2sT/U, (T^2+s^2)/U) has area N = sDT, and P0 =
    (-s^2 D, s^2 D^2 U) lies on E_N with P1 = (0,0) + P0 and P2 = 2 P0.
    """
    # all of the above: tests/test_identities.py::test_pell_group_relations
    tri = RatTriangle._proved(Fraction(d * u), Fraction(2 * s * t, u), Fraction(t**2 + s**2, u))
    p0 = Point(Fraction(-s * s * d), Fraction(s * s * d * d * u))
    return Family(tri, s * d * t, (p0, *standard_points(tri)))


def fib_even_family(n):
    """Triangle, congruent number and curve points for index 2n.

    The Pell family at (D, s) = (5, 2), (T, U) = (L_2n, F_2n): the triangle
    (5F, 4L/F, (L^2+4)/F) of area N = 10 L_2n; every curve in the sequence
    passes through the vertical line x = -20 at P0 = (-20, 100 F_2n).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    pair = fib_lucas(2 * n)
    # L^2 - 5 F^2 = 4 at an even index: tests/test_identities.py::test_lucas_identity_at_every_index
    return _pell_family(5, pair.l, pair.f, 2)


def fib_odd_family(n):
    """Integer triangle (L^2-4, 4L, 5F^2) for index 2n+1; N = 2(L^2-4)L."""
    if n < 1:
        raise ValueError("need n >= 1")
    pair = fib_lucas(2 * n + 1)
    f, l = pair.f, pair.l
    # right: tests/test_identities.py::test_fib_odd_triangle_is_right
    tri = RatTriangle._proved(Fraction(l**2 - 4), Fraction(4 * l), Fraction(5 * f**2))
    return Family(tri, 2 * (l**2 - 4) * l, standard_points(tri))


def fib_family(n, odd=False):
    """fib_odd_family(n) if odd, else fib_even_family(n)."""
    return (fib_odd_family if odd else fib_even_family)(n)


def cheb_pairs(n):
    """Yield the integers (T_m(n), U_{m-1}(n)) for m = 0, 1, ... by P_{k+1} = 2n P_k - P_{k-1}.

    It starts at (T_{-1}, T_0) = (n, 1) and (U_{-2}, U_{-1}) = (-1, 0), so m = 0
    gives (1, 0); raises OutputTooLarge at the first value past the digit
    limit, read once at the first step.
    """
    check = printable_checker()
    t0, t1, u0, u1 = n, 1, -1, 0
    while True:
        yield t1, u1
        t0, t1 = t1, 2 * n * t1 - t0
        u0, u1 = u1, 2 * n * u1 - u0
        check(t1, u1)


def cheb_pair(m, n):
    """The integers (T_m(n), U_{m-1}(n)): value m of cheb_pairs(n)."""
    if m < 0:
        raise ValueError("chebyshev index must be >= 0")
    return next(islice(cheb_pairs(n), m, None))


def cheb_family(m, n):
    """Triangle, congruent number and P0 for the Chebyshev family.

    The Pell family at (D, s) = (n^2-1, 1) and (T, U) = (T_m(n), U_{m-1}(n)):
    the triangle ((n^2-1)U, 2T/U, (T^2+1)/U) of area N = (n^2-1)T, with
    P0 = (1-n^2, (n^2-1)^2 U) on E_N and the standard companion points P1, P2.
    """
    if m < 1 or n < 2:
        raise ValueError("need m >= 1 and n >= 2")
    t, u = cheb_pair(m, n)
    # T^2 - (n^2-1) U^2 = 1: pell_identity_check
    return _pell_family(n**2 - 1, t, u, 1)


def pell_identity_check(max_m=12):
    """T_m(x)^2 - (x^2-1) U_{m-1}(x)^2 = 1 as polynomial identities, m <= max_m.

    The left side has degree <= 2m, so holding at the 2m + 1 points
    x = 0, 1, ..., 2m proves the identity for index m.  One cheb_pairs(x)
    run serves every m >= x/2 at the point x.
    """
    return all(
        t**2 - (x**2 - 1) * u**2 == 1
        for x in range(2 * max_m + 1)
        for m, (t, u) in enumerate(islice(cheb_pairs(x), max_m + 1))
        if m >= 1 and x <= 2 * m
    )


def brahmagupta(k):
    """The k-th Heronian triangle with consecutive sides and its curves.

    t = 2 T_k(2) gives sides (t-1, t, t+1), semiperimeter P = 3t/2 and
    integer area S = 3 T_k(2) U_{k-1}(2).  P equals the area of the
    Chebyshev-family right triangle at (k, 2), so P is a congruent
    number.  The curve y^2 = (x+AB)(x+BC)(x+AC) carries the integral
    points Q0..Q3; they have infinite order for t > 2 and order 4 in the
    degenerate t = 2 case.  Returns the Brahmagupta record, with orders
    None when all four points are certified of infinite order and
    otherwise the orders of Q0..Q3 from Curve.order_at_most.
    """
    if not 0 <= k <= MAX_BRAHMAGUPTA_K:
        raise EffortOutOfRange("k", 0, MAX_BRAHMAGUPTA_K, k)
    tk, uk = cheb_pair(k, 2)
    t = 2 * tk
    a, b, c = t - 1, t, t + 1
    p = Fraction(3 * t, 2)
    s = Fraction(3 * tk * uk)
    # P = 3 T_k(2) is the Chebyshev area: tests/test_identities.py::test_brahmagupta_semiperimeter
    # S^2 is Heron's P(P-a)(P-b)(P-c): tests/test_identities.py::test_brahmagupta_heron_area
    ab, bc, ac = a * b, b * c, a * c
    curve = Curve(a2=ab + bc + ac, a4=ab * bc + ab * ac + bc * ac, a6=ab * bc * ac)
    qs = (
        Point(Fraction(0), Fraction(a * b * c)),
        Point(Fraction(-(b**2)), Fraction(b)),
        Point(Fraction(2 - ab), Fraction(2 * c)),
        Point(Fraction(2 - bc), Fraction(2 * a)),
    )
    # Q1 = Q0 + T_AC, Q2 = T_AB - Q0 and Q3 = T_BC - Q0 for the 2-torsion points
    # T_AB = (-AB, 0) etc.: tests/test_identities.py::test_brahmagupta_points_are_shifts_of_q0
    # So 2 Q_i = ±2 Q0, and one Mazur loop on Q0 certifies all four points.
    q0 = qs[0]
    certified = (
        t > 2
        and (
            curve.add(q0, Point(Fraction(-ac))),
            curve.add(Point(Fraction(-ab)), -q0),
            curve.add(Point(Fraction(-bc)), -q0),
        )
        == qs[1:]
        and curve.certify_infinite_order(q0)
    )
    orders = None if certified else tuple(curve.order_at_most(q) for q in qs)
    return Brahmagupta((a, b, c), p, s, curve, qs, orders, k)
