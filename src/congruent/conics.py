"""Congruent numbers from conjugate conics and twin hyperbolas.

A right triangle of area N is parameterized by two conjugate conics — an
ellipse e and a degenerate hyperbola h touching at a rational point — in
two integer variables f1, f2.  Intersecting the ellipse with rational
lines produces congruent-number polynomials and lattice-point families,
and each triangle gives points of infinite order on y^2 = x^3 - N^2 x.
The triangle is written once, in signed_triangle: conic_triangle, the
intersection family (at its f = 1 ellipse point, scaled by 4t^2+1) and
the lattice family all read it, and their curve points come from
conic_ec_points.  A second pair of conics (the twin hyperbolas) yields
two more quartic congruent-number polynomials.  All arithmetic is exact:
irrational f2 (multiples of sqrt(N) or sqrt(2N)) is only ever handled
through f2^2, and square roots are taken of full rational squares.

The CLI and the gate take each family's checks from the checks() of its
record, ConicExample, IntersectExample, TwinHyperbolas or LatticeExample
(which reads lattice_relation and secondary_relation), on the values
computed.  The intersection and twin relations hold identically in t,
proved once in tests/test_identities.py; only twin's H(x_i) decompositions
are also checked here as identities in t.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .elliptic import Point, curve_en
from .exact import ParameterError, rat_sqrt, squarefree_part
from .polyrat import RatFunc
from .triples import RatTriangle, triangle_point

__all__ = [
    "f2_squared",
    "ellipse",
    "signed_triangle",
    "conic_triangle",
    "conic_ec_points",
    "conic_example",
    "intersect_example",
    "reduce_raise",
    "lattice_relation",
    "Secondary",
    "lattice_secondary",
    "secondary_relation",
    "lattice_example",
    "twin_hyperbolas",
    "twin_polynomial_identities",
]


def f2_squared(n, f2, adjoin="none"):
    """f2^2 from the rational part of f2; f2 itself may be irrational.

    adjoin is the class of f2: with 'none' f2 is the rational given, with
    'sqrtN' it means f2*sqrt(N) and with 'sqrt2N' it means f2*sqrt(2N).
    """
    f2sq = Fraction(f2) ** 2
    if adjoin == "sqrtN":
        f2sq *= n
    elif adjoin == "sqrt2N":
        f2sq *= 2 * n
    elif adjoin != "none":
        raise ValueError(f"unknown adjunction class {adjoin!r}")
    if f2sq <= 0:
        raise ValueError("f2^2 must be positive")
    return f2sq


def ellipse(x, f2sq):
    """(2e)^2 at x on the (1, f2) ellipse; the (N, f1, f2) ellipse is it at x = N f1^2."""
    return 4 * f2sq * x - (x - f2sq) ** 2


def signed_triangle(n, f1sq, f2sq, ef):
    """Triangle from the conic closed forms given E = e*f1*f2 (signed)."""
    x, y = n * f1sq, f2sq  # X = N f1^2 and Y = f2^2
    w, s = x - y, x + y
    a = ef * s / (f1sq * y * w)
    x2, y2, xy = x * x, y * y, x * y
    c = ((x2 + y2) ** 2 + 4 * xy * (5 * xy - x2 - y2)) / (4 * ef * s * w)
    # b from ab = 2N, c over X^2 - Y^2 = s w; right, of area N:
    # tests/test_identities.py::test_heegner_two_triangle_is_the_conic_triangle
    return RatTriangle._proved(a, 2 * n / a, c)


def conic_triangle(n, f1, f2, adjoin="none"):
    """The rational right triangle of area N defined by (N, f1, f2); see f2_squared."""
    f1sq, f2sq = Fraction(f1**2), f2_squared(n, f2, adjoin)
    x = n * f1sq
    if x == f2sq:
        raise ValueError("degenerate input: N f1^2 = f2^2")
    e2 = ellipse(x, f2sq) / 4
    if e2 <= 0:
        raise ValueError("point lies outside the real ellipse (e^2 <= 0)")
    ef = rat_sqrt(e2 * f1sq * f2sq)
    if ef is None:
        raise ValueError(
            "e*f1*f2 is irrational; (N, f1, f2) is not a valid rational input"
        )
    return signed_triangle(n, f1sq, f2sq, ef)


def conic_ec_points(tri):
    """Two points of infinite order on E_N from a conic triangle of area N.

    P2 is the triangle's point and P1 = -(P2 + (0,0)) = (-N^2/x, -N^2 y/x^2).
    """
    p2 = triangle_point(tri)
    n2 = tri.area**2
    # equal to the conic closed forms, with y != 0:
    # tests/test_identities.py::test_conic_points_match_the_conic_forms
    return Point(-n2 / p2.x, -n2 * p2.y / p2.x**2), p2


EllipsePoint = namedtuple("EllipsePoint", "x e")


class ConicExample(namedtuple("ConicExample", "triangle p1 p2 n")):
    """The conic triangle of (N, f1, f2) and its two points on E_N."""

    __slots__ = ()

    def checks(self):
        e_n = curve_en(self.n)
        return [
            ("area = N", self.triangle.is_right_of_area(self.n)),
            # E_N(Q)_tors = {O, (0,0), (±N,0)} (Koblitz, ch. I, Prop. 17): a point
            # of E_N with y != 0 has infinite order
            ("points infinite order", all(p.y != 0 and e_n.contains(p) for p in (self.p1, self.p2))),
        ]


def conic_example(n, f1, f2, adjoin="none"):
    """The ConicExample of conic_triangle(n, f1, f2, adjoin)."""
    tri = conic_triangle(n, f1, f2, adjoin)
    return ConicExample(tri, *conic_ec_points(tri), n)


def reduce_raise(tri):
    """(N, the similar triangle of area ±N) for N the primitive congruent number of tri.

    The legs are divided by the rational s with s^2 = |area|/N, which
    removes square factors and clears the denominator in one step.
    """
    n_prim = tri.congruent_number()
    return n_prim, tri.scaled(rat_sqrt(abs(tri.area) / n_prim))


# --- the line-ellipse intersection family N(t) = (4t^2+1)(4t^2-8t+5) ---


def _intersect_forms(t):
    """N(t) and the f = 1 ellipse point (x_t, e_t)."""
    n_t = (4 * t**2 + 1) * (4 * t**2 - 8 * t + 5)
    x_t = (4 * t**2 - 8 * t + 5) / (4 * t**2 + 1)
    e_t = (-4 * t**2 + 4 * t + 1) / (4 * t**2 + 1)
    return n_t, x_t, e_t


class IntersectExample(namedtuple("IntersectExample", "n ellipse_point triangle p1 p2 f")):
    """N(t), the ellipse point (x, e), the triangle and P1, P2 at one t, for f."""

    __slots__ = ()

    def checks(self):
        """The family's five relations, read on the values."""
        (x, e), (a, b, c), on_curve = self.ellipse_point, self.triangle, curve_en(self.n).contains
        return [
            ("pythagoras", a**2 + b**2 == c**2),
            ("area = N(t)", a * b / 2 == self.n),
            ("point on ellipse", 4 * e**2 == ellipse(x, self.f**2)),
            ("P1 on curve", on_curve(self.p1)),
            ("P2 on curve", on_curve(self.p2)),
        ]


def intersect_example(t, f=1):
    """The quartic congruent-number family from one line-ellipse intersection.

    Returns the IntersectExample where N(t) = (4t^2+1)(4t^2-8t+5), the
    triangle has area N(t), and P1, P2 lie on E_{N(t)}, for every t; its
    checks() reads these relations on the values.  The triangle is the
    conic triangle at the f = 1 point, of area x_t, scaled up by 4t^2+1
    (N(t) = (4t^2+1)^2 x_t), and P1 is P2 + (0,0), the negative of the
    conic P1.  The ellipse point carries the f^2 factor that the reduce
    step removes; the triangle and curve points do not depend on f.
    """
    t = Fraction(t)
    if t == Fraction(1, 2):
        raise ValueError("t = 1/2 is the singular slope")
    if f == 0:
        raise ParameterError("f", "must be nonzero: f = 0 collapses the ellipse point to (0, 0)")
    n_t, x_t, e_t = _intersect_forms(t)
    # x_t = 1 only at t = 1/2 and e_t = 0 only at irrational t, so the
    # triangle exists; the relations hold identically in t:
    # tests/test_identities.py::test_intersect_family_identities
    tri = signed_triangle(x_t, 1, 1, e_t).scaled(1 / (4 * t**2 + 1))
    p1, p2 = conic_ec_points(tri)
    return IntersectExample(n_t, EllipsePoint(f**2 * x_t, f**2 * e_t), tri, -p1, p2, f)


# --- the lattice-point family ---
#
# One closed form each gives the index-1 point P(m, n) = (x, e) and
# secondary number N(m, n, t); the triangle T(m, n) of area x is the conic
# triangle of the (1, m^2+n^2) ellipse at P(m, n).  The other indices are
# signed swaps of (m, n), all keeping s = m^2 + n^2: for the i-th entry
# (u, v, e_sign, sign) of _lattice_subs, point i is (x, e_sign * e) of
# P(u, v), triangle i is sign * T(u, v) and N_i2 is N(u, v, sign * t).


def _lattice_subs(m, n):
    return ((m, n, 1, 1), (m, -n, 1, -1), (n, -m, -1, -1), (n, m, -1, 1))


def _lattice_point(m, n):
    s = m**2 + n**2
    return s * (m**2 + 4 * m * n + 5 * n**2), s * (m**2 + 2 * m * n - n**2)


def _lattice_triangle(m, n, name):
    """T(m, n); name labels the leg a in the degenerate-input error."""
    # the conic's N f1^2 - f2^2 is x - s^2 = 4 s n (m+n)
    if n * (m + n) == 0:
        raise ValueError(f"degenerate (m, n): denominator of {name} vanishes")
    s = m**2 + n**2
    x, e = _lattice_point(m, n)
    return signed_triangle(x, Fraction(1), s**2, e * s)


class LatticeExample(namedtuple("LatticeExample", "m n points triangles t secondary", defaults=(None, None))):
    """The lattice points and triangles of (m, n), with the slope-t secondaries if t is given."""

    __slots__ = ()

    def checks(self):
        m, n, t = self.m, self.n, self.t
        checks = [("lattice triangles have area x_i", lattice_relation(m, n, self.points, self.triangles))]
        if t is not None:
            checks.append(("secondary intersections verified", secondary_relation(m, n, t, self.secondary)))
        return checks


def lattice_example(m, n, t=None):
    """Four ellipse lattice points, their closed-form right triangles and, for a t,
    the lattice_secondary(m, n, t) records.

    The ellipse is the (f1, f2) = (1, m^2+n^2) instance; each x_i is a
    congruent number (unless square) with triangle area exactly x_i.
    """
    pts, tris = [], []
    for i, (u, v, e_sign, sign) in enumerate(_lattice_subs(m, n), 1):
        x, e = _lattice_point(u, v)
        pts.append(EllipsePoint(x, e_sign * e))
        tris.append(_lattice_triangle(u, v, f"a{i}").scaled(sign))
    secondary = None if t is None else lattice_secondary(m, n, t)
    return LatticeExample(m, n, tuple(pts), tuple(tris), t, secondary)


def lattice_relation(m, n, points, triangles):
    """Whether each triangle is right of area x_i, each (x_i, e_i) on the (1, m^2+n^2) ellipse."""
    f2sq = (m**2 + n**2) ** 2
    return all(
        tri.is_right_of_area(x) and 4 * e**2 == ellipse(x, f2sq)
        for (x, e), tri in zip(points, triangles)
    )


def _lattice_n2(m, n, t):
    """N(m, n, t): the raised congruent number of the slope-t second intersection."""
    return (4 * t**2 + 1) * (m**2 + n**2) * (
        m**2 * (4 * t * (t - 2) + 5)
        + 4 * m * n * (4 * t * (t - 1) - 1)
        + n**2 * (4 * t * (5 * t + 2) + 1)
    )


# one second intersection (x2, e2), its raised congruent number N_i2, the
# primitive congruent number and the reduced triangle
Secondary = namedtuple("Secondary", "x2 e2 n2 primitive triangle")


def lattice_secondary(m, n, t):
    """Second intersection points of slope-t lines through the lattice points.

    For each lattice point the line meets the ellipse again at a rational
    point (x_i2, e_i2); raising x_i2 by its denominator 4t^2+1 gives the
    four displayed congruent numbers N_i2 with verifying triangles.
    Returns a list of four Secondary records.
    """
    t = Fraction(t)
    s = m**2 + n**2
    f2sq = Fraction(s**2)
    out = []
    for u, v, _, sign in _lattice_subs(m, n):
        n_i2 = _lattice_n2(u, v, sign * t)
        x_i, e_i = _lattice_point(u, v)
        # the slope-t line passes through (x_i, sign * e_i), the point
        # whose second intersection the closed form N(u, v, sign * t) raises
        e_i = sign * e_i
        # Vieta: the quadratic (t^2+1/4)x^2 + ... has roots x_i and x_i2
        root_sum = (Fraction(3, 2) * f2sq - 2 * t * e_i + 2 * t**2 * x_i) / (
            t**2 + Fraction(1, 4)
        )
        x2 = root_sum - x_i
        if x2 == x_i:
            raise ValueError("line is tangent at the lattice point")
        if x2 == f2sq:
            raise ValueError("second intersection at x = (m^2+n^2)^2 gives a degenerate triangle")
        # on the ellipse: tests/test_identities.py::test_lattice_second_point_lies_on_the_ellipse
        e2 = t * (x2 - x_i) + e_i
        # the triangle is built from the positive root at the new abscissa
        ef = abs(e2) * s  # f1 = 1, f2 = m^2+n^2 exactly rational here
        primitive, tri = reduce_raise(signed_triangle(x2, Fraction(1), f2sq, ef))
        if primitive != abs(squarefree_part(n_i2)):
            raise AssertionError("secondary congruent number mismatch")
        out.append(Secondary(x2, e2, n_i2, primitive, tri))
    return out


def secondary_relation(m, n, t, secondaries):
    """Whether each x_i2 (4t^2+1)^2, x_i2 from Vieta, is its closed form N_i2, each (x_i2, e_i2)
    lies on the ellipse and each reduced triangle is right of area ±primitive."""
    f2sq, raise_sq = (m**2 + n**2) ** 2, (4 * t**2 + 1) ** 2
    return all(
        r.x2 * raise_sq == r.n2
        and 4 * r.e2**2 == ellipse(r.x2, f2sq)
        and (r.triangle.is_right_of_area(r.primitive) or r.triangle.is_right_of_area(-r.primitive))
        for r in secondaries
    )


# --- the twin hyperbolas ---


def _twin_n(t):
    n1 = 2 * (11 * t**4 - 36 * t**3 + 30 * t**2 - 12 * t + 19)
    n2 = 2 * (11 * t**4 + 60 * t**3 + 66 * t**2 - 132 * t + 43)
    return n1, n2


def _twin_sides(t):
    n1, n2 = _twin_n(t)
    p1 = 3 * t**2 - 10 * t + 9
    q1 = t**4 + 12 * t**3 - 62 * t**2 + 84 * t - 31
    s1 = (t**2 - 2 * t - 1) * (7 * t**2 - 22 * t + 17) * (
        5 * t**4 - 24 * t**3 + 46 * t**2 - 48 * t + 25
    )
    a1 = -p1 * q1 * n1 / (2 * s1)
    b1 = -4 * s1 / (p1 * q1)
    p2 = 3 * t**2 - 2 * t + 3
    q2 = t**4 + 36 * t**3 + 22 * t**2 - 60 * t + 17
    s2 = (t**2 + 2 * t - 7) * (7 * t**2 - 2 * t - 1) * (
        5 * t**4 + 12 * t**3 + 22 * t**2 - 36 * t + 13
    )
    a2 = -p2 * q2 * n2 / (2 * s2)
    b2 = -4 * s2 / (p2 * q2)
    return (a1, b1), (a2, b2)


def _twin_h(t):
    """H(x) = 2 h1(x)^2 h2(x)^2 at the abscissae x1, x2 of the two second intersections."""
    xs = (2 * (2 - 3 * t + t**2) / (t**2 - 3), (3 - 6 * t - t**2) / (2 * (t**2 - 1)))
    return [2 * (1 - 2 * x + 3 * x**2) * (3 + 2 * x + x**2) for x in xs]


class TwinHyperbolas(namedtuple("TwinHyperbolas", "n1 n2 triangle1 triangle2 t")):
    """The twin congruent numbers N1, N2 at t and their triangles."""

    __slots__ = ()

    def checks(self):
        """The family's four checks.

        "H(x_i) decomposition" is the identity in t and H(x_i) times triangle
        i's area being a square; "area_i = N_i" is triangle i right of area N_i.
        """
        tri1, tri2 = self.triangle1, self.triangle2
        checks = [
            (name, ok and rat_sqrt(h * tri.area) is not None)
            for (name, ok), h, tri in zip(twin_polynomial_identities(), _twin_h(self.t), (tri1, tri2))
        ]
        checks.append(("area1 = N1", tri1.is_right_of_area(self.n1)))
        return checks + [("area2 = N2", tri2.is_right_of_area(self.n2))]


def twin_hyperbolas(t):
    """The TwinHyperbolas of the two quartic congruent numbers N1, N2 at t.

    N1 = 2(11t^4-36t^3+30t^2-12t+19), N2 = 2(11t^4+60t^3+66t^2-132t+43);
    the legs come from the closed forms and the hypotenuse from the exact
    square root of a^2 + b^2.
    """
    t = Fraction(t)
    if t**2 in (1, 3):
        raise ValueError("t^2 in {1, 3} makes the intersection lines singular")
    n1, n2 = _twin_n(t)
    tris = []
    for a, b in _twin_sides(t):
        if a == 0 or b == 0:
            raise ValueError("degenerate t: a closed-form leg vanishes")
        # a^2 + b^2 is a square in Q(t): tests/test_identities.py::test_twin_triangles_are_right_of_area_n
        tris.append(RatTriangle.from_legs(a, b))
    return TwinHyperbolas(n1, n2, tris[0], tris[1], t)


def twin_polynomial_identities():
    """The twin-hyperbola H(x) decompositions, as identities in t.

    H(x) = 2 h1(x)^2 h2(x)^2 evaluated at the two second-intersection
    abscissae factors into a rational square times N1 (resp. N2/4).
    """
    t = RatFunc.t()
    h1, h2 = _twin_h(t)
    n1, n2 = _twin_n(t)
    rhs1 = ((9 - 10 * t + 3 * t**2) / (t**2 - 3) ** 2) ** 2 * n1
    # square factor carries 2(t^2-1)^2, so that H(x2) = (...)^2 * (N2/2)/2;
    # four times its squarefree class recovers N2
    rhs2 = ((3 - 2 * t + 3 * t**2) / (2 * (t**2 - 1) ** 2)) ** 2 * n2 * Fraction(1, 4)
    return [("H(x1) decomposition", h1 == rhs1), ("H(x2) decomposition", h2 == rhs2)]
