"""Congruent numbers from conjugate conics and twin hyperbolas.

A right triangle of area N is parameterized by two conjugate conics — an
ellipse e and a degenerate hyperbola h touching at a rational point — in
two integer variables f1, f2.  Intersecting the ellipse with rational
lines produces congruent-number polynomials, lattice-point families, and
points of infinite order on y^2 = x^3 - N^2 x.  A second pair of conics
(the twin hyperbolas) yields two more quartic congruent-number
polynomials.  All arithmetic is exact: irrational f2 (multiples of
sqrt(N) or sqrt(2N)) is only ever handled through f2^2, and square roots
are taken of full rational squares.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .elliptic import Point, curve_en
from .exact import rat_sqrt, squarefree_part
from .polyrat import RatFunc
from .triples import RatTriangle

__all__ = [
    "ConicInput",
    "CongruentResult",
    "conic_input",
    "conic_triangle",
    "conic_ec_points",
    "intersect_example",
    "intersect_polynomial_identity",
    "reduce_raise",
    "lattice_points",
    "lattice_secondary",
    "twin_hyperbolas",
    "twin_polynomial_identities",
]


@dataclass(frozen=True)
class ConicInput:
    """N with f1 and the square of f2; f2 itself may be irrational.

    adjoin records the class of f2: 'none' for integer f2 (f2sq a perfect
    square), 'sqrtN' for f2 = u*sqrt(N), 'sqrt2N' for f2 = u*sqrt(2N).
    """

    n: int
    f1: int
    f2sq: Fraction
    adjoin: str = "none"

    def __post_init__(self):
        if self.f2sq <= 0:
            raise ValueError("f2^2 must be positive")
        if self.adjoin not in ("none", "sqrtN", "sqrt2N"):
            raise ValueError(f"unknown adjunction class {self.adjoin!r}")
        if self.adjoin == "none" and rat_sqrt(self.f2sq) is None:
            raise ValueError("f2^2 must be a perfect square when f2 is rational")


def conic_input(n, f1, f2, adjoin="none"):
    """Build a ConicInput from the rational part of f2.

    With adjoin='sqrtN' the pair (f1, f2) means (f1, f2*sqrt(N)); with
    'sqrt2N' it means (f1, f2*sqrt(2N)).
    """
    f2 = Fraction(f2)
    if adjoin == "none":
        f2sq = f2**2
    elif adjoin == "sqrtN":
        f2sq = f2**2 * n
    elif adjoin == "sqrt2N":
        f2sq = f2**2 * 2 * n
    else:
        raise ValueError(f"unknown adjunction class {adjoin!r}")
    return ConicInput(n, f1, f2sq, adjoin)


@dataclass(frozen=True)
class CongruentResult:
    """A primitive congruent number with its certifying triangle."""

    n_raw: Fraction
    n_primitive: int
    triangle: RatTriangle
    scale: Fraction  # legs of the input triangle were divided by this


def _core_quantities(n, f1sq, f2sq):
    w = n * f1sq - f2sq
    if w == 0:
        raise ValueError("degenerate input: N f1^2 = f2^2")
    e2 = n * f1sq * f2sq - Fraction(w**2, 4)
    return w, e2


def _signed_triangle(n, f1sq, f2sq, ef):
    """Triangle from the conic closed forms given E = e*f1*f2 (signed)."""
    w = n * f1sq - f2sq
    s = n * f1sq + f2sq
    a = ef * s / (f1sq * f2sq * w)
    b = 2 * n * w * f1sq * f2sq / (ef * s)
    c_num = 4 * n * f1sq * f2sq * (3 * n * f1sq * f2sq - w**2) + (
        n**2 * f1sq**2 + f2sq**2
    ) ** 2
    c = c_num / (4 * ef * (n**2 * f1sq**2 - f2sq**2))
    return RatTriangle(a, b, c)


def _principal_ef(n, f1sq, f2sq):
    w, e2 = _core_quantities(n, f1sq, f2sq)
    if e2 <= 0:
        raise ValueError("point lies outside the real ellipse (e^2 <= 0)")
    ef = rat_sqrt(e2 * f1sq * f2sq)
    if ef is None:
        raise ValueError(
            "e*f1*f2 is irrational; (N, f1, f2) is not a valid rational input"
        )
    return w, e2, ef


def conic_triangle(inp):
    """The rational right triangle of area N defined by (N, f1, f2)."""
    f1sq = Fraction(inp.f1**2)
    _, _, ef = _principal_ef(inp.n, f1sq, inp.f2sq)
    tri = _signed_triangle(inp.n, f1sq, inp.f2sq, ef)
    if tri.area != inp.n:
        raise AssertionError("conic triangle area mismatch")
    return tri


def _ec_points(n, f1sq, f2sq, ef):
    w = n * f1sq - f2sq
    h = Fraction(n * f1sq + f2sq, 2)
    x1 = -Fraction(w**2) / (4 * f1sq * f2sq)
    y1 = w * (w**4 - 16 * n**2 * f1sq**2 * f2sq**2) / (32 * ef * h * f1sq * f2sq)
    x2 = 4 * n**2 * f1sq * f2sq / Fraction(w**2)
    y2 = n**2 * f1sq * f2sq * (16 * n**2 * f1sq**2 * f2sq**2 - w**4) / (
        2 * ef * h * w**3
    )
    return Point(x1, y1), Point(x2, y2)


def conic_ec_points(inp):
    """Two points of infinite order on E_N produced by (N, f1, f2)."""
    f1sq = Fraction(inp.f1**2)
    _, _, ef = _principal_ef(inp.n, f1sq, inp.f2sq)
    p1, p2 = _ec_points(inp.n, f1sq, inp.f2sq, ef)
    curve = curve_en(inp.n)
    for p in (p1, p2):
        if not curve.contains(p):
            raise AssertionError(f"conic point {p} not on E_N")
        if not curve.certify_infinite_order(p):
            raise AssertionError(f"conic point {p} has small finite order")
    return p1, p2


def reduce_raise(x_t, tri):
    """Reduce/raise a rational area to its primitive congruent number.

    The primitive congruent number of x_t is |squarefree part of
    numerator*denominator|; the triangle legs are divided by the rational
    scale s with s^2 = area/N, which removes square factors and clears
    the denominator in one step.
    """
    x_t = Fraction(x_t)
    if x_t == 0:
        raise ValueError("zero area has no congruent number")
    n_prim = abs(squarefree_part(x_t.numerator * x_t.denominator))
    s = rat_sqrt(tri.area / n_prim)
    if s is None:
        raise ValueError("triangle area and x_t are in different square classes")
    scaled = tri.scaled(s)
    if scaled.area != n_prim:
        raise AssertionError("reduce/raise produced wrong area")
    return CongruentResult(x_t, n_prim, scaled, s)


# --- the line-ellipse intersection family N(t) = (4t^2+1)(4t^2-8t+5) ---


def _intersect_sides(t):
    a = (-16 * t**4 + 32 * t**3 - 24 * t**2 + 8 * t + 3) / (2 - 4 * t)
    b = 4 * (32 * t**5 - 80 * t**4 + 80 * t**3 - 40 * t**2 + 18 * t - 5) / (
        16 * t**4 - 32 * t**3 + 24 * t**2 - 8 * t - 3
    )
    c = (
        256 * t**8
        - 1024 * t**7
        + 1792 * t**6
        - 1792 * t**5
        + 1504 * t**4
        - 1216 * t**3
        + 688 * t**2
        - 208 * t
        + 41
    ) / (64 * t**5 - 160 * t**4 + 160 * t**3 - 80 * t**2 + 4 * t + 6)
    return a, b, c


def _intersect_forms(t):
    """N(t), the f = 1 ellipse point (x_t, e_t) and P1, P2 as (x, y) pairs."""
    n_t = (4 * t**2 + 1) * (4 * t**2 - 8 * t + 5)
    x_t = (4 * t**2 - 8 * t + 5) / (4 * t**2 + 1)
    e_t = (-4 * t**2 + 4 * t + 1) / (4 * t**2 + 1)
    u = 2 * t - 1
    v1 = 4 * t**2 - 4 * t - 1
    v2 = 4 * t**2 - 4 * t + 3
    p1 = (-4 * u**2, 2 * u * v1 * v2)
    p2 = (n_t**2 / (4 * u**2), n_t**2 * v1 * v2 / (8 * u**3))
    return n_t, x_t, e_t, p1, p2


def intersect_example(t, f=1):
    """The quartic congruent-number family from one line-ellipse intersection.

    Returns (N(t), ellipse point (x, e), triangle, P1, P2) where
    N(t) = (4t^2+1)(4t^2-8t+5), the triangle has area N(t), and P1, P2
    lie on E_{N(t)}.  The ellipse point carries the f^2 factor that the
    reduce step removes; the triangle and curve points do not depend on f.
    """
    t = Fraction(t)
    if t == Fraction(1, 2):
        raise ValueError("t = 1/2 is the singular slope")
    n_t, x_t, e_t, p1, p2 = _intersect_forms(t)
    tri = RatTriangle(*_intersect_sides(t))
    if tri.area != n_t:
        raise AssertionError("intersection triangle area mismatch")
    p1, p2 = Point(*p1), Point(*p2)
    curve = curve_en(n_t)
    for p in (p1, p2):
        if not curve.contains(p):
            raise AssertionError("intersection curve point off E_N(t)")
    return n_t, (f**2 * x_t, f**2 * e_t), tri, p1, p2


def intersect_polynomial_identity():
    """Proof obligations of the intersection family, as identities in t.

    Checks, as rational-function identities in t: a^2 + b^2 = c^2,
    ab/2 = (4t^2+1)(4t^2-8t+5), the ellipse membership of the
    parameterized point, and that P1, P2 satisfy y^2 = x^3 - N(t)^2 x.
    """
    t = RatFunc.t()
    a, b, c = _intersect_sides(t)
    n_t, x_t, e_t, (x1, y1), (x2, y2) = _intersect_forms(t)
    # ellipse with f = 1: e(x)^2 = x - (x-1)^2/4
    ellipse = x_t - (x_t - 1) ** 2 * Fraction(1, 4)
    return [
        ("pythagoras", a**2 + b**2 == c**2),
        ("area = N(t)", a * b * Fraction(1, 2) == n_t),
        ("point on ellipse", e_t**2 == ellipse),
        ("P1 on curve", y1**2 == x1**3 - n_t**2 * x1),
        ("P2 on curve", y2**2 == x2**3 - n_t**2 * x2),
    ]


# --- the lattice-point family ---
#
# One closed form each gives the index-1 point P(m, n) = (x, e), triangle
# T(m, n) of area x and secondary number N(m, n, t).  The other indices are
# signed swaps of (m, n), all keeping s = m^2 + n^2: for the i-th entry
# (u, v, e_sign, sign) of _lattice_subs, point i is (x, e_sign * e) of
# P(u, v), triangle i is sign * T(u, v) and N_i2 is N(u, v, sign * t).


def _lattice_subs(m, n):
    return ((m, n, 1, 1), (m, -n, 1, -1), (n, -m, -1, -1), (n, m, -1, 1))


def _lattice_point(m, n):
    s = m**2 + n**2
    return s * (m**2 + 4 * m * n + 5 * n**2), s * (m**2 + 2 * m * n - n**2)


def _lattice_triangle(m, n, name):
    """Sides of T(m, n); name labels the leg a in the degenerate-input error."""
    x, _ = _lattice_point(m, n)
    p = (m**2 + 2 * m * n - n**2) * (m**2 + 2 * m * n + 3 * n**2)
    den = 2 * n * (m + n)
    if den * p == 0:
        raise ValueError(f"degenerate (m, n): denominator of {name} vanishes")
    c_num = (
        m**8 + 8 * m**7 * n + 28 * m**6 * n**2 + 56 * m**5 * n**3 + 94 * m**4 * n**4
        + 152 * m**3 * n**5 + 172 * m**2 * n**6 + 104 * m * n**7 + 41 * n**8
    )
    return Fraction(p, den), Fraction(2 * den * x, p), Fraction(c_num, den * p)


def lattice_points(m, n):
    """Four ellipse lattice points and their closed-form right triangles.

    The ellipse is the (f1, f2) = (1, m^2+n^2) instance; each x_i is a
    congruent number (unless square) with triangle area exactly x_i.
    """
    pts, tris = [], []
    for i, (u, v, e_sign, sign) in enumerate(_lattice_subs(m, n), 1):
        x, e = _lattice_point(u, v)
        tri = RatTriangle(*(sign * side for side in _lattice_triangle(u, v, f"a{i}")))
        if tri.area != x:
            raise AssertionError("lattice triangle area mismatch")
        pts.append((x, e_sign * e))
        tris.append(tri)
    return tuple(pts), tuple(tris)


def _lattice_n2(m, n, t):
    """N(m, n, t): the raised congruent number of the slope-t second intersection."""
    return (4 * t**2 + 1) * (m**2 + n**2) * (
        m**2 * (4 * t * (t - 2) + 5)
        + 4 * m * n * (4 * t * (t - 1) - 1)
        + n**2 * (4 * t * (5 * t + 2) + 1)
    )


def _n_secondary(m, n, t):
    """The four secondary numbers N_12, ..., N_42."""
    return tuple(_lattice_n2(u, v, sign * t) for u, v, _, sign in _lattice_subs(m, n))


def lattice_secondary(m, n, t):
    """Second intersection points of slope-t lines through the lattice points.

    For each lattice point the line meets the ellipse again at a rational
    point (x_i2, e_i2); raising x_i2 by its denominator 4t^2+1 gives the
    four displayed congruent numbers N_i2 with verifying triangles.
    Returns a list of dicts with the raw point, N_i2 and triangle.
    """
    t = Fraction(t)
    s = m**2 + n**2
    f2sq = Fraction(s**2)
    out = []
    for (u, v, _, _), n_i2 in zip(_lattice_subs(m, n), _n_secondary(m, n, t)):
        x_i, e_i = _lattice_point(u, v)
        # the slope-t lines pass through the positive-ordinate ellipse
        # points; the displayed lattice points carry a signed ordinate
        e_i = abs(e_i)
        # Vieta: the quadratic (t^2+1/4)x^2 + ... has roots x_i and x_i2
        root_sum = (Fraction(3, 2) * f2sq - 2 * t * e_i + 2 * t**2 * x_i) / (
            t**2 + Fraction(1, 4)
        )
        x2 = root_sum - x_i
        if x2 == x_i:
            raise ValueError("line is tangent at the lattice point")
        e2 = t * (x2 - x_i) + e_i
        if e2**2 != x2 * f2sq - (x2 - f2sq) ** 2 / 4:
            raise AssertionError("second intersection point off the ellipse")
        # the triangle is built from the positive root at the new abscissa
        ef = abs(e2) * s  # f1 = 1, f2 = m^2+n^2 exactly rational here
        tri_raw = _signed_triangle(x2, Fraction(1), f2sq, ef)
        result = reduce_raise(x2, tri_raw)
        if result.n_primitive != abs(squarefree_part(n_i2)):
            raise AssertionError("secondary congruent number mismatch")
        out.append(
            {
                "point": (x2, e2),
                "n2": n_i2,
                "primitive": result.n_primitive,
                "triangle": result.triangle,
            }
        )
    return out


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


def twin_hyperbolas(t):
    """The two quartic congruent numbers N1, N2 with their triangles.

    N1 = 2(11t^4-36t^3+30t^2-12t+19), N2 = 2(11t^4+60t^3+66t^2-132t+43);
    the legs come from the closed forms and the hypotenuse from the exact
    square root of a^2 + b^2.
    """
    t = Fraction(t)
    if t**2 in (1, 3):
        raise ValueError("t^2 in {1, 3} makes the intersection lines singular")
    n1, n2 = _twin_n(t)
    tris = []
    for (a, b), n_val in zip(_twin_sides(t), (n1, n2)):
        if a == 0 or b == 0:
            raise ValueError("degenerate t: a closed-form leg vanishes")
        c2 = a**2 + b**2
        c = rat_sqrt(c2)
        if c is None:
            raise AssertionError("twin hypotenuse is irrational")
        tri = RatTriangle(a, b, c)
        if tri.area != n_val:
            raise AssertionError("twin triangle area mismatch")
        tris.append(tri)
    return n1, n2, tris[0], tris[1]


def twin_polynomial_identities():
    """Checks of the twin-hyperbola construction, as identities in t.

    H(x) = 2 h1(x)^2 h2(x)^2 evaluated at the two second-intersection
    abscissae factors into a rational square times N1 (resp. N2/4), and
    the closed-form legs multiply to twice each congruent-number quartic.
    """
    t = RatFunc.t()
    x1 = 2 * (2 - 3 * t + t**2) / (t**2 - 3)
    x2 = (3 - 6 * t - t**2) / (2 * (t**2 - 1))
    n1, n2 = _twin_n(t)

    def h_prod(x):
        return 2 * (1 - 2 * x + 3 * x**2) * (3 + 2 * x + x**2)

    rhs1 = ((9 - 10 * t + 3 * t**2) / (t**2 - 3) ** 2) ** 2 * n1
    # square factor carries 2(t^2-1)^2, so that H(x2) = (...)^2 * (N2/2)/2;
    # four times its squarefree class recovers N2
    rhs2 = ((3 - 2 * t + 3 * t**2) / (2 * (t**2 - 1) ** 2)) ** 2 * n2 * Fraction(1, 4)
    (a1, b1), (a2, b2) = _twin_sides(t)
    return [
        ("H(x1) decomposition", h_prod(x1) == rhs1),
        ("H(x2) decomposition", h_prod(x2) == rhs2),
        ("area1 = N1", a1 * b1 * Fraction(1, 2) == n1),
        ("area2 = N2", a2 * b2 * Fraction(1, 2) == n2),
    ]
