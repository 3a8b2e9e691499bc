"""Rational right triangles derived from Euclid's parameterization.

From one integer Pythagorean triple (A, B, C) three rational right
triangles are built by pairing its sides; their areas are congruent
numbers tied together by a single quartic identity.  Also here: the
point of a right triangle of area N on y^2 = x^3 - N^2 x, the collinear
points the three areas induce on their curves, Euler concordant-form
solutions read off the hypotenuses, and the three-dimensional distance
identity of the side differences, each read from the one EuclidPair
that derive(m, n) builds.  area_relation and distance_relation state the
two identities over the printed quantities, integers or Fractions; the
checks() of derived_family's record reads both.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import isqrt

from .elliptic import Point, curve_en
from .exact import rat_sqrt, squarefree_part

__all__ = [
    "PythTriple",
    "RatTriangle",
    "triangle_point",
    "AreaQuad",
    "ConcordantSolution",
    "EuclidPair",
    "euclid",
    "derive",
    "derived_triples",
    "area_relation",
    "area_identity",
    "connecting_points",
    "concordant_solutions",
    "distance_relation",
    "distance_identity",
    "derived_family",
]


PythTriple = namedtuple("PythTriple", "a b c")


class RatTriangle(namedtuple("RatTriangle", "a b c")):
    """A right triangle with exact rational (possibly signed) sides."""

    __slots__ = ()

    def __new__(cls, a, b, c):
        a, b, c = Fraction(a), Fraction(b), Fraction(c)
        if a**2 + b**2 != c**2:
            raise ValueError(f"sides ({a}, {b}, {c}) violate a^2 + b^2 = c^2")
        return tuple.__new__(cls, (a, b, c))

    @classmethod
    def _proved(cls, a, b, c):
        """The triangle of Fraction sides whose a^2 + b^2 = c^2 the caller's proof covers."""
        return tuple.__new__(cls, (a, b, c))

    @classmethod
    def from_legs(cls, a, b):
        """The right triangle with legs a, b and hypotenuse the exact root of a^2 + b^2."""
        a, b = Fraction(a), Fraction(b)
        c = rat_sqrt(a**2 + b**2)
        if c is None:
            raise ValueError("a and b are not the legs of a rational right triangle")
        # c^2 = a^2 + b^2: tests/test_exact.py::test_rat_sqrt_matches_sympy_sqrt
        return cls._proved(a, b, c)

    @property
    def area(self):
        """Signed area a*b/2; the associated congruent number up to squares."""
        return self.a * self.b / 2

    def is_right_of_area(self, n):
        """Whether a^2 + b^2 = c^2 and ab/2 = n, compared in integers over the denominators."""
        (a, ad), (b, bd), (c, cd) = (x.as_integer_ratio() for x in (self.a, self.b, self.c))
        right = (a * bd * cd) ** 2 + (b * ad * cd) ** 2 == (c * ad * bd) ** 2
        return right and a * b * n.denominator == 2 * n.numerator * ad * bd

    def congruent_number(self):
        """|squarefree part of numerator*denominator| of the area."""
        n = self.area
        return abs(squarefree_part(n.numerator * n.denominator))

    def scaled(self, factor):
        """Similar triangle with both legs divided by factor."""
        factor = Fraction(factor)
        # similar to a right triangle: a^2 + b^2 = c^2 divided by factor^2
        return RatTriangle._proved(self.a / factor, self.b / factor, self.c / factor)


def triangle_point(tri):
    """The point (N(a+c)/b, 2N^2(a+c)/b^2) on E_N, N = ab/2 (Koblitz, ch. I)."""
    a = tri.a
    x = a * (a + tri.c) / 2
    # N/b = a/2; on E_N: tests/test_identities.py::test_triangle_point_lies_on_e_n
    return Point(x, a * x)


# the four areas (N, N_AC, N_BC, N_BA); N_BA may be negative
AreaQuad = namedtuple("AreaQuad", "n n_ac n_bc n_ba")


# integers with x^2 + N y^2 = z^2 and x^2 - N y^2 = t^2, checked by concordant_solutions
ConcordantSolution = namedtuple("ConcordantSolution", "x y z t n")


# what derive(m, n) returns; every derived quantity below reads one pair
EuclidPair = namedtuple("EuclidPair", "triple quad d sides")


def _check_mn(m, n):
    if not (m > n > 0):
        raise ValueError(f"need m > n > 0, got (m, n) = ({m}, {n})")


def euclid(m, n):
    """Euclid's fundamental formula (m^2 - n^2, 2mn, m^2 + n^2)."""
    _check_mn(m, n)
    # a^2 + b^2 = c^2: tests/test_identities.py::test_euclid_and_fermat_triples_are_pythagorean
    return PythTriple(m**2 - n**2, 2 * m * n, m**2 + n**2)


def derive(m, n):
    """The EuclidPair of euclid(m, n): the triple, its AreaQuad, D = ABC and
    the integer side numerators over D of the derived triples AC, BC, BA.

    With (X, Y, Z) = (A, C, B), (B, C, A) and (A, B, C) in turn, the sides
    are (2 X^2 Y^2, Z^2 (Y^2 + X^2), X^4 + Y^4) / D, with Y^2 - X^2 for BA;
    c - a is then B^4, A^4 and (B^2 - A^2)^2 over D.
    """
    t = euclid(m, n)
    a2, b2, c2 = t.a**2, t.b**2, t.c**2
    q = AreaQuad(t.a * t.b // 2, a2 + c2, b2 + c2, b2 - a2)
    return EuclidPair(t, q, t.a * t.b * t.c, (
        (2 * a2 * c2, b2 * (a2 + c2), a2**2 + c2**2),
        (2 * b2 * c2, a2 * (b2 + c2), b2**2 + c2**2),
        (2 * a2 * b2, c2 * (b2 - a2), a2**2 + b2**2),
    ))


def derived_triples(pair):
    """The three rational triples built by pairing sides of the pair's triple.

    Returns (AC, BC, BA); BA's middle side goes negative once B < A.
    """
    # right: tests/test_identities.py::test_derived_triples_are_right
    return tuple(
        RatTriangle._proved(*(Fraction(side, pair.d) for side in sides)) for sides in pair.sides
    )


def area_relation(areas, c, value):
    """Whether N_AC^2 + N_BC^2 + N_BA^2 = value = 6(C^4 - 4N^2), areas = (N, N_AC, N_BC, N_BA)."""
    n, *derived = areas
    return sum(x * x for x in derived) == value == 6 * (c**4 - 4 * n**2)


def area_identity(pair):
    """Both sides (lhs, rhs) of N_AC^2 + N_BC^2 + N_BA^2 = 6(C^4 - 4N^2); area_relation checks them."""
    q, c = pair.quad, pair.triple.c
    return q.n_ac**2 + q.n_bc**2 + q.n_ba**2, 6 * (c**4 - 4 * q.n**2)


def connecting_points(pair):
    """The collinear points at y = 2ABC on the three area curves.

    Returns three (curve, point) pairs; each curve is y^2 = x^3 - N^2 x
    built from the squared area, so the sign of N_BA does not matter.
    """
    (a, b, c), q = pair.triple, pair.quad
    y = Fraction(2 * pair.d)
    # on their curves: tests/test_identities.py::test_connecting_points_lie_on_their_curves
    return (
        (curve_en(q.n_ac), Point(Fraction(-(b**2)), y)),
        (curve_en(q.n_bc), Point(Fraction(-(a**2)), y)),
        (curve_en(q.n_ba), Point(Fraction(c**2), y)),
    )


def concordant_solutions(pair):
    """Euler concordant-form solutions for the AC, BC and BA hypotenuses.

    (x, y) is (numerator of c over D = ABC, 2D); z and t are the roots of
    the radical definitions, and all three y values equal 2ABC.
    """
    q = pair.quad
    y = 2 * pair.d
    y2 = y * y
    out = []
    # x^2 ± N y^2 are squares: tests/test_identities.py::test_concordant_radicals_are_squares
    for (_, _, x), area in zip(pair.sides, (q.n_ac, q.n_bc, q.n_ba)):
        x2, ny2 = x * x, area * y2
        plus, minus = x2 + ny2, x2 - ny2
        z, t = isqrt(plus), isqrt(minus)
        if z * z != plus:
            raise ValueError("concordant form x^2 + N y^2 = z^2 fails")
        if t * t != minus:
            raise ValueError("concordant form x^2 - N y^2 = t^2 fails")
        out.append(ConcordantSolution(x, y, z, t, area))
    return tuple(out)


def distance_relation(sides, root):
    """Whether root^2 = 2 sum d_i^2 = (sum d_i)^2, d_i = c_i - a_i of the AC, BC, BA sides."""
    ds = [c - a for a, _, c in sides]
    return root**2 == 2 * sum(d * d for d in ds) == sum(ds) ** 2


def distance_identity(pair):
    """The squared-distance identity for the vectors of first sides vs hypotenuses.

    distance_relation checks (2(C^4 - 3(AB)^2)/(ABC))^2 = 2 sum d_i^2 = (sum d_i)^2.
    As that gives sum d_i^2 = 2 sum d_i d_j, it implies 4 d_i d_j = u^2, v^2, w^2
    for the signed combinations u, v, w of the d_i, and the Pythagorean
    quadruple (sum d_i)^2 = u^2 + v^2 + w^2.  Returns (root, quadruple), each
    an integer numerator over D = pair.d.
    """
    t = pair.triple
    d1, d2, d3 = (c - a for a, _, c in pair.sides)
    return 2 * (t.c**4 - 3 * (t.a * t.b) ** 2), (d1 + d2 + d3, d1 + d2 - d3, d1 - d2 + d3, -d1 + d2 + d3)


class DerivedFamily(
    namedtuple(
        "DerivedFamily", "triple_ac triple_bc triple_ba areas area_identity_value concordant distance_root m n"
    )
):
    """The derived triples of euclid(m, n), the areas (N, N_AC, N_BC, N_BA), the area
    identity's value, the concordant solutions and the distance identity's root."""

    __slots__ = ()

    def checks(self):
        c = self.m**2 + self.n**2  # the hypotenuse of euclid(m, n)
        tris = self.triple_ac, self.triple_bc, self.triple_ba
        return [
            ("area identity", area_relation(self.areas, c, self.area_identity_value)),
            ("distance identity", distance_relation(tris, self.distance_root)),
        ]


def derived_family(m, n):
    """The DerivedFamily of derive(m, n)."""
    pair = derive(m, n)
    tris = derived_triples(pair)
    lhs, _ = area_identity(pair)
    root = Fraction(distance_identity(pair)[0], pair.d)
    return DerivedFamily(*tris, tuple(pair.quad), lhs, concordant_solutions(pair), root, m, n)
