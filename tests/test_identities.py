"""Proofs of the construction identities that the library does not re-check.

Each closed form below has its defining property as an algebraic identity in
inputs that the constructing function has already validated, so checking it
again at run time could never fail.  Each test proves the identity once: it
expands the closed form, or reduces its cleared numerator modulo the stated
relation by a Groebner basis, to zero; a value that must be nonzero is shown
to vanish only at irrational inputs.  Where the library's own function
accepts symbols, the test calls it; otherwise it writes the same closed form.
"""

from types import SimpleNamespace

import pytest

from congruent import conics, sequences, triples, trinity
from congruent.cassini import CassiniOval
from congruent.elliptic import Curve, Point

sympy = pytest.importorskip("sympy")


def _vanishes(expr, relations=(), gens=()):
    """True when the numerator of expr is 0, modulo relations in gens (lex order).

    expr is a sympy expression or an element of a sympy polynomial ring.
    """
    if not isinstance(expr, sympy.Basic):
        expr = expr.as_expr()
    num = sympy.expand(sympy.numer(sympy.together(expr)))
    if not relations:
        return num == 0
    return sympy.groebner(relations, *gens, order="lex").reduce(num)[1] == 0


def _off_e_n(p, n):
    """y^2 - (x^3 - N^2 x), which is 0 exactly when p lies on E_N."""
    return p.y**2 - p.x**3 + n**2 * p.x


# --- cassini ---


def test_axis_points_lie_on_the_oval():
    # oval_axis_points: x^2 = (a'^2 ± b'^2)/w and y^2 = b'^2 - a'^2, where
    # b'^2 is the root of b'^4
    a2, b2, w = sympy.symbols("a2 b2 w")
    oval = SimpleNamespace(a2=a2, b4=b2**2, x_weight=w)
    for x2 in ((a2 + b2) / w, (a2 - b2) / w):
        assert _vanishes(CassiniOval.residual(oval, x2, 0))
    assert _vanishes(CassiniOval.residual(oval, 0, b2 - a2))


def test_heegner_four_axis_points():
    # heegner_four's oval (c2^2, c1^4 N^2) in the weight-2 form; its guards
    # c4^2 > c3^2 and c3 != 0 make b'^2 = |c1^2 N| = c4^2 - c3^2 and both
    # x^2 = (c2^2 ± b'^2)/2 positive, so oval_axis_points keeps both
    f1, f2sq, n = sympy.symbols("f1 f2sq n")
    c3 = f1**2 - f2sq
    c4sq = 4 * f1**2 * f2sq
    c2 = f1**2 + f2sq
    c1sq = (c4sq - c3**2) / n
    b2 = c4sq - c3**2
    assert _vanishes(b2**2 - c1sq**2 * n**2)
    assert _vanishes((c2**2 + b2) / 2 - c4sq)
    assert _vanishes((c2**2 - b2) / 2 - c3**2)



def _heegner_two_values():
    """heegner_two's c1^2, c2^2 and c4^2 in the symbols n, f1 and f2sq = f2^2."""
    n, f1, f2sq = sympy.symbols("n f1 f2sq")
    c1sq = f1**2 * f2sq
    c2sq = ((n * f1**2 - f2sq) / 2) ** 2
    return (n, f1, f2sq), c1sq, c2sq, n * c1sq + c2sq


def test_heegner_two_c4_is_rational():
    # c4^2 = N c1^2 + c2^2 = ((N f1^2 + f2^2)/2)^2, a rational square
    (n, f1, f2sq), _, _, c4sq = _heegner_two_values()
    assert _vanishes(c4sq - ((n * f1**2 + f2sq) / 2) ** 2)


def test_heegner_two_c3_is_nonzero():
    # with r = N f1^2 / f2^2, 4 (N c1^2 - c2^2) / f2^4 = -(r^2 - 6r + 1), so
    # c3^2 = 0 needs r = 3 ± 2 sqrt 2; r is rational once f2^2 != 0
    (n, f1, f2sq), c1sq, c2sq, _ = _heegner_two_values()
    r = sympy.Symbol("r")
    quadratic = r**2 - 6 * r + 1
    assert _vanishes(4 * (n * c1sq - c2sq) / f2sq**2 + quadratic.subs(r, n * f1**2 / f2sq))
    roots = sympy.roots(quadratic, r)
    assert len(roots) == 2 and not any(root.is_rational for root in roots)


# --- conics ---


@pytest.fixture
def record_triangles(monkeypatch):
    """conics builds plain records, so its triangle formulas accept symbols."""

    def record(a, b, c):
        return SimpleNamespace(a=a, b=b, c=c, area=a * b / 2)

    monkeypatch.setattr(conics, "RatTriangle", SimpleNamespace(_proved=record))


def test_conic_points_match_the_conic_forms(record_triangles):
    n, f1sq, f2sq, ef = sympy.symbols("n f1sq f2sq ef")
    w = n * f1sq - f2sq
    e2 = n * f1sq * f2sq - w**2 / 4
    # conic_triangle takes ef as the root of e2 f1^2 f2^2
    relation, gens = [ef**2 - e2 * f1sq * f2sq], (ef, n, f1sq, f2sq)
    p1, p2 = conics.conic_ec_points(conics.signed_triangle(n, f1sq, f2sq, ef))
    # the closed forms in (N, f1^2, f2^2, ef) that P1, P2 were computed from
    # before they were read off the triangle
    h = (n * f1sq + f2sq) / 2
    x1 = -(w**2) / (4 * f1sq * f2sq)
    y1 = w * (w**4 - 16 * n**2 * f1sq**2 * f2sq**2) / (32 * ef * h * f1sq * f2sq)
    x2 = 4 * n**2 * f1sq * f2sq / w**2
    y2 = n**2 * f1sq * f2sq * (16 * n**2 * f1sq**2 * f2sq**2 - w**4) / (2 * ef * h * w**3)
    for p, x, y in ((p1, x1, y1), (p2, x2, y2)):
        assert _vanishes(p.x - x, relation, gens)
        assert _vanishes(p.y - y, relation, gens)
        assert _vanishes(_off_e_n(p, n), relation, gens)
    # y != 0: conic_triangle requires e2 > 0, so n f1^2 f2^2 > w^2/4 >= 0 and
    # n, f1^2, h = (n f1^2 + f2^2)/2 and ef are nonzero; it also requires
    # w != 0.  Each y is a product of these factors and e2 (w^2 + 2 e2).
    pos = e2 * (w**2 + 2 * e2)
    assert _vanishes(y1 + w * pos / (4 * ef * h * f1sq * f2sq))
    assert _vanishes(y2 - 4 * n**2 * f1sq * f2sq * pos / (ef * h * w**3))


def test_heegner_two_triangle_is_the_conic_triangle(record_triangles):
    # heegner_two calls signed_triangle at ef = c1 c3, where c3^2 = |e2|:
    # ef^2 = e2 f1^2 f2^2 inside the real ellipse and -e2 f1^2 f2^2 outside
    n, f1sq, f2sq, ef = sympy.symbols("n f1sq f2sq ef")
    w = n * f1sq - f2sq
    s = n * f1sq + f2sq
    e2 = n * f1sq * f2sq - w**2 / 4
    tri = conics.signed_triangle(n, f1sq, f2sq, ef)
    assert _vanishes(tri.a * tri.b / 2 - n)
    for sign in (1, -1):
        relation, gens = [ef**2 - sign * e2 * f1sq * f2sq], (ef, n, f1sq, f2sq)
        assert _vanishes(tri.a**2 + tri.b**2 - tri.c**2, relation, gens)
    # c = ((4 N f1^2 f2^2)^2 + w^4) / (4 ef w s) with w != 0 and ef > 0, so
    # heegner_two's sign flip on c < 0 multiplies the sides by sign(w s)
    assert _vanishes(tri.c - ((4 * n * f1sq * f2sq) ** 2 + w**4) / (4 * ef * w * s))
    # the oracle: heegner_two's former legs a = c3 c4/(c1 c2) and
    # b = 2 N c1 c2/(c3 c4), with c2 = |w|/2 and c4 = |s|/2, are the sides
    # times sign(w s) for every sign of w and of s
    c1sq = f1sq * f2sq
    for sign_w in (1, -1):
        for sign_s in (1, -1):
            c2, c4 = sign_w * w / 2, sign_s * s / 2
            assert _vanishes(sign_w * sign_s * tri.a - ef * c4 / (c1sq * c2))
            assert _vanishes(sign_w * sign_s * tri.b - 2 * n * c1sq * c2 / (ef * c4))


def test_heegner_four_triangle_is_the_conic_triangle(record_triangles):
    # heegner_four calls signed_triangle for (N, f1, f2 sqrt(N)) at
    # ef = N^2 c1c4/4, where c1c4^2 = c1^2 c4^2 and c1^2 = (c4^2 - c3^2)/N
    n, f1, f2sq, c1c4 = sympy.symbols("n f1 f2sq c1c4")
    c3, c4sq, c2 = f1**2 - f2sq, 4 * f1**2 * f2sq, f1**2 + f2sq
    relation, gens = [n * c1c4**2 - (c4sq - c3**2) * c4sq], (c1c4, n, f1, f2sq)
    x, y, ef = n * f1**2, n * f2sq, n * n * c1c4 / 4
    # ef^2 = e^2 f1^2 (N f2^2), with 4 e^2 = ellipse(N f1^2, N f2^2) = N^3 c1^2
    assert _vanishes(ef**2 - conics.ellipse(x, y) / 4 * f1**2 * y, relation, gens)
    tri = conics.signed_triangle(n, f1**2, y, ef)
    assert _vanishes(tri.a * tri.b / 2 - n)
    assert _vanishes(tri.a**2 + tri.b**2 - tri.c**2, relation, gens)
    # c = ((4XY)^2 + w^4) / (4 ef w s) with X = N f1^2, Y = N f2^2, w = X - Y =
    # N c3 and s = X + Y = N c2; c1^2 > 0 makes N > 0, and ef > 0, so
    # heegner_four's sign flip on c < 0 multiplies the sides by sign(c3)
    assert _vanishes(tri.c - ((4 * x * y) ** 2 + (x - y) ** 4) / (4 * ef * (x - y) * (x + y)))
    # the oracle: heegner_four's former legs N c2 c1c4/(|c3| c4^2) and
    # 2 |c3| c4^2/(c2 c1c4) are the sides times sign(c3), for either sign
    for sign in (1, -1):
        abs_c3 = sign * c3
        assert _vanishes(sign * tri.a - n * c2 * c1c4 / (abs_c3 * c4sq))
        assert _vanishes(sign * tri.b - 2 * abs_c3 * c4sq / (c2 * c1c4))


def test_lattice_triangle_matches_its_closed_form(record_triangles):
    # T(m, n), the conic triangle at P(m, n), is the closed form in (m, n)
    # that lattice_example printed before it was built by signed_triangle
    m, n = sympy.symbols("m n")
    tri = conics._lattice_triangle(m, n, "a1")
    x, _ = conics._lattice_point(m, n)
    p = (m**2 + 2 * m * n - n**2) * (m**2 + 2 * m * n + 3 * n**2)
    den = 2 * n * (m + n)
    c_num = (
        m**8 + 8 * m**7 * n + 28 * m**6 * n**2 + 56 * m**5 * n**3 + 94 * m**4 * n**4
        + 152 * m**3 * n**5 + 172 * m**2 * n**6 + 104 * m * n**7 + 41 * n**8
    )
    assert _vanishes(tri.a - p / den)
    assert _vanishes(tri.b - 2 * den * x / p)
    assert _vanishes(tri.c - c_num / (den * p))


def test_lattice_second_point_lies_on_the_ellipse():
    # every signed swap (u, v) of (m, n) keeps u^2 + v^2, so general (m, n)
    # covers all four lattice points
    m, n, t = sympy.symbols("m n t")
    f2sq = (m**2 + n**2) ** 2

    def off_ellipse(x, e):
        return e**2 - (x * f2sq - (x - f2sq) ** 2 / 4)

    x_i, e = conics._lattice_point(m, n)
    assert _vanishes(off_ellipse(x_i, e))
    # lattice_secondary's Vieta step, for either sign of e_i
    for e_i in (e, -e):
        root_sum = (sympy.Rational(3, 2) * f2sq - 2 * t * e_i + 2 * t**2 * x_i) / (
            t**2 + sympy.Rational(1, 4)
        )
        x2 = root_sum - x_i
        e2 = t * (x2 - x_i) + e_i
        assert _vanishes(off_ellipse(x2, e2))


# The intersection and twin families are closed forms in t, proved in
# sympy's field of rational functions, whose elements are kept in lowest
# terms: == between two of them is the identity in t.


def _is_square(f):
    """Whether f, in a field of rational functions over Q, is the square of one."""
    coeff, factors = (f.numer * f.denom).sqf_list()
    return sympy.sqrt(coeff).is_rational and all(k % 2 == 0 for _, k in factors)


def _intersect_values(t):
    """intersect_example's N(t), ellipse point, triangle and points at f = 1, built as it builds them."""
    n_t, x_t, e_t = conics._intersect_forms(t)
    # intersect_example's .scaled(1 / (4t^2+1)) converts to Fraction, so the product is written out
    tri = conics.signed_triangle(x_t, 1, 1, e_t)
    tri = triples.RatTriangle._proved(*(side * (4 * t**2 + 1) for side in tri))
    p1, p2 = conics.conic_ec_points(tri)
    return n_t, x_t, e_t, tri, -p1, p2


def intersect_proofs():
    """{name: proved} for IntersectExample.checks()' five relations on intersect_example's values."""
    _, t, f = sympy.field("t, f", sympy.QQ)
    n_t, x_t, e_t, (a, b, c), p1, p2 = _intersect_values(t)
    return {
        "pythagoras": a**2 + b**2 == c**2,
        "area = N(t)": a * b / 2 == n_t,
        # the point intersect_example returns for f, read with f2 = f
        "point on ellipse": 4 * (f**2 * e_t) ** 2 == conics.ellipse(f**2 * x_t, f**2),
        "P1 on curve": _off_e_n(p1, n_t) == 0,
        "P2 on curve": _off_e_n(p2, n_t) == 0,
    }


def twin_proofs():
    """{name: proved} for the twin checks' "area_i = N_i": a_i b_i / 2 = N_i and a_i^2 + b_i^2 a square."""
    _, t = sympy.field("t", sympy.QQ)
    return {
        f"area{i} = N{i}": a * b / 2 == n and _is_square(a**2 + b**2)
        for i, ((a, b), n) in enumerate(zip(conics._twin_sides(t), conics._twin_n(t)), 1)
    }


def test_intersect_family_identities():
    assert intersect_proofs() == dict.fromkeys(
        ["pythagoras", "area = N(t)", "point on ellipse", "P1 on curve", "P2 on curve"], True
    )


def test_intersect_triangle_is_the_conic_triangle():
    # (x_t, e_t) is on the (1, 1) ellipse, so signed_triangle(x_t, 1, 1, e_t)
    # is right of area x_t, and multiplying its sides by 4t^2+1 gives area N(t)
    _, t = sympy.field("t", sympy.QQ)
    n_t, x_t, e_t, tri, p1, p2 = _intersect_values(t)
    assert 4 * e_t**2 == conics.ellipse(x_t, 1)
    assert n_t == (4 * t**2 + 1) ** 2 * x_t
    # the oracle: the closed forms in t that intersect_example returned
    # before it built the triangle and points from the conic formula
    a = (-16 * t**4 + 32 * t**3 - 24 * t**2 + 8 * t + 3) / (2 - 4 * t)
    b = 4 * (32 * t**5 - 80 * t**4 + 80 * t**3 - 40 * t**2 + 18 * t - 5) / (
        16 * t**4 - 32 * t**3 + 24 * t**2 - 8 * t - 3
    )
    c = (
        256 * t**8 - 1024 * t**7 + 1792 * t**6 - 1792 * t**5 + 1504 * t**4
        - 1216 * t**3 + 688 * t**2 - 208 * t + 41
    ) / (64 * t**5 - 160 * t**4 + 160 * t**3 - 80 * t**2 + 4 * t + 6)
    u, v1, v2 = 2 * t - 1, 4 * t**2 - 4 * t - 1, 4 * t**2 - 4 * t + 3
    assert tuple(tri) == (a, b, c)
    assert p1 == Point(-4 * u**2, 2 * u * v1 * v2)
    assert p2 == Point(n_t**2 / (4 * u**2), n_t**2 * v1 * v2 / (8 * u**3))


def test_twin_triangles_are_right_of_area_n():
    # so twin_hyperbolas' from_legs finds the hypotenuse wherever the legs exist
    assert twin_proofs() == {"area1 = N1": True, "area2 = N2": True}


# --- recurrence ---


def test_recurrence_step():
    # walk holds a triangle of area N with chosen leg p/q; r^2 = p^4 + 4N^2 q^4
    p, q, n, r = sympy.symbols("p q n r")
    relation = (r**2 - p**4 - 4 * n**2 * q**4,)
    gens = (r, p, q, n)
    # the held triangle (p/q, 2N/(p/q), r/(pq)) is right: its hypotenuse is
    # |c| = r/(pq), so r = |c| p q
    assert _vanishes((p / q) ** 2 + (2 * n * q / p) ** 2 - (r / (p * q)) ** 2, relation, gens)
    # the next triangle is right, has area r, and its hypotenuse is the root
    # that the state (r, p r, q^2 N) would take: p^4 r^2 + 4 q^8 N^4 = (p^4 + 2N^2 q^4)^2
    a, b = p * r / (q**2 * n), 2 * q**2 * n / p
    c = (p**4 + 2 * n**2 * q**4) / (p * q**2 * n)
    assert _vanishes(a**2 + b**2 - c**2, relation, gens)
    assert _vanishes(a * b / 2 - r)
    assert _vanishes(p**4 * r**2 + 4 * q**8 * n**4 - (p**4 + 2 * n**2 * q**4) ** 2, relation, gens)


def test_recurrence_closed_forms_are_right():
    m, n = sympy.symbols("m n")
    # closed_form's a^i triangle ((M - N)/d, 2d, (M + N)/d) with M = m^e,
    # N = n^e and d = (mn)^(e/4), e = 2^(i+1): d^4 = MN at every i
    big_m, big_n, d = sympy.symbols("M N d")
    a, b, c = (big_m - big_n) / d, 2 * d, (big_m + big_n) / d
    assert _vanishes(a**2 + b**2 - c**2, [d**4 - big_m * big_n], (d, big_m, big_n))
    # its b and ba triangles
    d = m**2 - n**2
    a, b, c = 4 * m * n * (m**2 + n**2) / d, d, (m**4 + 6 * m**2 * n**2 + n**4) / d
    assert _vanishes(a**2 + b**2 - c**2)
    d = (m**2 - n**2) ** 2
    a = 8 * m * n * (m**6 + 7 * m**4 * n**2 + 7 * m**2 * n**4 + n**6) / d
    c = (m**8 + 28 * m**6 * n**2 + 70 * m**4 * n**4 + 28 * m**2 * n**6 + n**8) / d
    assert _vanishes(a**2 + d**2 - c**2)


# --- sequences ---


def test_standard_points_lie_on_e_n():
    # P1 is triples.triangle_point's, proved in test_triangle_point_lies_on_e_n
    a, b, c = sympy.symbols("a b c")
    tri = SimpleNamespace(a=a, b=b, c=c)
    p1, p2 = sequences.standard_points(tri)
    assert p1 == triples.triangle_point(tri)
    assert _vanishes(_off_e_n(p2, a * b / 2), [c**2 - a**2 - b**2], (c, a, b))


def _assert_group_relations(tri, n, p0, relation, gens):
    """tri right, P0 on E_N, (0,0) + P0 = P1 and 2 P0 = P2 by Curve.add, modulo relation."""
    curve = SimpleNamespace(a2=0, a4=-(n**2), a6=0)
    p1, p2 = sequences.standard_points(tri)
    assert _vanishes(tri.a**2 + tri.b**2 - tri.c**2, [relation], gens)
    assert _vanishes(_off_e_n(p0, n), [relation], gens)
    for got, want in ((Curve.add(curve, Point(0, 0), p0), p1), (Curve.add(curve, p0, p0), p2)):
        assert _vanishes(got.x - want.x, [relation], gens)
        assert _vanishes(got.y - want.y, [relation], gens)


@pytest.fixture
def symbolic_pell(monkeypatch):
    """sequences._pell_family over sympy symbols, its triangle left unchecked."""
    monkeypatch.setattr(sequences, "Fraction", lambda num, den=1: sympy.sympify(num) / den)
    record = SimpleNamespace(_proved=lambda a, b, c: SimpleNamespace(a=a, b=b, c=c))
    monkeypatch.setattr(sequences, "RatTriangle", record)
    return sequences._pell_family


def test_pell_group_relations(symbolic_pell):
    # _pell_family at a solution of T^2 - D U^2 = s^2
    t, u, d, s = sympy.symbols("t u d s")
    tri, n, (p0, p1, p2) = symbolic_pell(d, t, u, s)
    assert _vanishes(tri.a * tri.b / 2 - n)
    relation, gens = t**2 - d * u**2 - s**2, (t, u, d, s)
    _assert_group_relations(tri, n, p0, relation, gens)
    assert (p1, p2) == sequences.standard_points(tri)


def test_fib_group_relations(symbolic_pell):
    # fib_even_family is the Pell family at (D, s) = (5, 2) and
    # (T, U) = (L_2k, F_2k), where L^2 = 5 F^2 + 4
    f, l = sympy.symbols("f l")
    tri, n, (p0, _, _) = symbolic_pell(5, l, f, 2)
    assert (tri.a, tri.b, tri.c) == (5 * f, 4 * l / f, (l**2 + 4) / f)
    assert (n, p0) == (10 * l, Point(-20, 100 * f))
    _assert_group_relations(tri, n, p0, l**2 - 5 * f**2 - 4, (l, f))


def test_cheb_group_relations(symbolic_pell):
    # cheb_family is the Pell family at (D, s) = (k^2 - 1, 1) and
    # (T, U) = (T_m(k), U_{m-1}(k)), where T^2 = (k^2-1) U^2 + 1
    t, u, k = sympy.symbols("t u k")
    tri, n, (p0, _, _) = symbolic_pell(k**2 - 1, t, u, 1)
    want = ((k**2 - 1) * u, 2 * t / u, (t**2 + 1) / u)
    assert all(_vanishes(got - w) for got, w in zip((tri.a, tri.b, tri.c), want))
    assert _vanishes(n - (k**2 - 1) * t)
    assert _vanishes(p0.x - (1 - k**2)) and _vanishes(p0.y - (k**2 - 1) ** 2 * u)
    _assert_group_relations(tri, n, p0, t**2 - (k**2 - 1) * u**2 - 1, (t, u, k))


def test_fib_odd_triangle_is_right():
    # fib_odd_family's (L^2 - 4, 4L, 5F^2) at (F, L) = (F_2n+1, L_2n+1), where
    # L^2 = 5 F^2 - 4
    f, l = sympy.symbols("f l")
    a, b, c = l**2 - 4, 4 * l, 5 * f**2
    assert _vanishes(a**2 + b**2 - c**2, [l**2 - 5 * f**2 + 4], (l, f))


def test_brahmagupta_semiperimeter():
    # P = 3t/2 with t = 2 T_k(2) is the Chebyshev area (2^2 - 1) T_k(2)
    tk = sympy.Symbol("tk")
    assert _vanishes(sympy.Rational(3, 2) * (2 * tk) - (2**2 - 1) * tk)



def test_brahmagupta_heron_area():
    # sides (t-1, t, t+1) with t = 2T, P = 3T and S = 3TU, where (T, U) =
    # (T_k(2), U_{k-1}(2)) obey the Pell relation T^2 = 3U^2 + 1
    t, u = sympy.symbols("t u")
    p = 3 * t
    heron = p * (p - (2 * t - 1)) * (p - 2 * t) * (p - (2 * t + 1))
    assert _vanishes(heron - (3 * t * u) ** 2, [t**2 - 3 * u**2 - 1], (t, u))


def test_brahmagupta_points_are_shifts_of_q0():
    # sides (t-1, t, t+1) on y^2 = (x+AB)(x+BC)(x+AC), with 2-torsion T_XY = (-XY, 0)
    t = sympy.Symbol("t")
    a, b, c = t - 1, t, t + 1
    ab, bc, ac = a * b, b * c, a * c
    curve = SimpleNamespace(a2=ab + bc + ac, a4=ab * bc + ab * ac + bc * ac, a6=ab * bc * ac)
    q0, q1, q2, q3 = Point(0, a * b * c), Point(-(b**2), b), Point(2 - ab, 2 * c), Point(2 - bc, 2 * a)
    assert _vanishes(q0.y**2 - (q0.x + ab) * (q0.x + bc) * (q0.x + ac))
    shifts = (
        (Curve.add(curve, q0, Point(-ac, 0)), q1),
        (Curve.add(curve, Point(-ab, 0), -q0), q2),
        (Curve.add(curve, Point(-bc, 0), -q0), q3),
    )
    for got, want in shifts:
        assert _vanishes(got.x - want.x) and _vanishes(got.y - want.y)


def test_lucas_identity_at_every_index():
    # fib_lucas steps (F_n, F_n+1) -> (F_n+1, F_n + F_n+1) from (0, 1), and
    # L_n by the same recurrence from (2, 1).  L_n = 2 F_n+1 - F_n holds at
    # n = 0, 1 and so for all n.  The step negates Q = F_n+1^2 - F_n F_n+1 -
    # F_n^2, which is 1 at n = 0, so Q = (-1)^n and L_n^2 - 5 F_n^2 = 4Q.
    f0, f1 = sympy.symbols("f0 f1")

    def q(f0, f1):
        return f1**2 - f0 * f1 - f0**2

    fib = [0, 1, 1]
    assert [2 * fib[n + 1] - fib[n] for n in (0, 1)] == [2, 1] and q(0, 1) == 1
    assert _vanishes(q(f1, f0 + f1) + q(f0, f1))
    assert _vanishes((2 * f1 - f0) ** 2 - 5 * f0**2 - 4 * q(f0, f1))


# --- triangles and points ---


def test_triangle_point_lies_on_e_n():
    a, b, c = sympy.symbols("a b c")
    p = triples.triangle_point(SimpleNamespace(a=a, b=b, c=c))
    assert _vanishes(_off_e_n(p, a * b / 2), [c**2 - a**2 - b**2], (c, a, b))


# --- triples and fermat ---


def test_euclid_and_fermat_triples_are_pythagorean():
    m, n, p, q = sympy.symbols("m n p q")
    # euclid's (m^2 - n^2, 2mn, m^2 + n^2)
    assert _vanishes((m**2 - n**2) ** 2 + (2 * m * n) ** 2 - (m**2 + n**2) ** 2)
    # node_from_fraction's (pq, -(p^2 - q^2)/2, (p^2 + q^2)/2)
    a, b, c = p * q, -(p**2 - q**2) / 2, (p**2 + q**2) / 2
    assert _vanishes(a**2 + b**2 - c**2)


@pytest.fixture
def symbolic_triples(monkeypatch):
    """triples with euclid(m, n) = (m^2 - n^2, 2mn, m^2 + n^2) in Z[m, n].

    derive's AB // 2 is then the exact quotient, and == between two values
    is the identity in m and n.
    """
    _, m, n = sympy.ring("m, n", sympy.ZZ)
    euclid = SimpleNamespace(a=m**2 - n**2, b=2 * m * n, c=m**2 + n**2)
    monkeypatch.setattr(triples, "euclid", lambda *_: euclid)
    return m, n


def test_derived_triples_are_right(symbolic_triples):
    # derived_triples' sides are these numerators over the one D = ABC
    m, n = symbolic_triples
    for a, b, c in triples.derive(m, n).sides:
        assert _vanishes(a**2 + b**2 - c**2)


def test_connecting_points_lie_on_their_curves(symbolic_triples):
    m, n = symbolic_triples
    t, q, _, _ = triples.derive(m, n)
    # connecting_points' (x, 2ABC) on the curve of each area
    y = 2 * t.a * t.b * t.c
    for x, big_n in ((-(t.b**2), q.n_ac), (-(t.a**2), q.n_bc), (t.c**2, q.n_ba)):
        assert _vanishes(_off_e_n(Point(x, y), big_n))


def _euclid_proofs(pair):
    """{name: proved} for the CLI's "area identity" and "distance identity" on the pair.

    The relations the CLI and the gate check, area_relation and
    distance_relation, read area_identity's and distance_identity's values.
    """
    (lhs, _), (root, _) = triples.area_identity(pair), triples.distance_identity(pair)
    return {
        "area identity": triples.area_relation(pair.quad, pair.triple.c, lhs),
        "distance identity": triples.distance_relation(pair.sides, root),
    }


def test_euclid_identities_hold_identically(symbolic_triples):
    proofs = _euclid_proofs(triples.derive(*symbolic_triples))
    assert proofs == {"area identity": True, "distance identity": True}


def _first_side_plus_one(pair):
    (a, b, c), *rest = pair.sides
    return pair._replace(sides=((a + 1, b, c), *rest))


@pytest.mark.parametrize(
    "change, failing",
    [
        (lambda p: p._replace(quad=p.quad._replace(n_ac=p.quad.n_ac + 1)), "area identity"),
        (_first_side_plus_one, "distance identity"),
    ],
    ids=["N_AC+1", "AC a+1"],
)
def test_perturbed_euclid_form_fails_its_proof(symbolic_triples, change, failing):
    proofs = _euclid_proofs(change(triples.derive(*symbolic_triples)))
    assert proofs == {name: name != failing for name in proofs}


def test_concordant_radicals_are_squares(symbolic_triples):
    m, n = symbolic_triples
    _, q, d, table = triples.derive(m, n)
    # the legs a/D, b/D have area N, so N (2D)^2 = 2ab and x^2 ± N y^2 = (a ± b)^2
    for (a, b, x), big_n in zip(table, (q.n_ac, q.n_bc, q.n_ba)):
        assert _vanishes(x**2 + big_n * (2 * d) ** 2 - (a + b) ** 2)
        assert _vanishes(x**2 - big_n * (2 * d) ** 2 - (a - b) ** 2)


# --- trinity ---

HALF = sympy.Rational(1, 2)
K = trinity.Vec3F(HALF, HALF, -HALF)


def _trinity_vectors():
    """a = p1, b = p2 with y negated and c = p3 with z negated, as functions of t."""
    t = sympy.Symbol("t")
    den = sum(c * t**i for i, c in enumerate(trinity._DEN))
    p1, p2, p3 = (
        [sum(c * t**i for i, c in enumerate(num)) / den for num in trinity._SPHERES[s]]
        for s in (1, 2, 3)
    )
    return trinity.Vec3F(*p1), trinity._flip((1, -1, 1), p2), trinity._flip((1, 1, -1), p3)


def test_trinity_base_relations_hold_identically():
    # the premises of trinity's theorem, on the sphere table: one circle,
    # k.a = 1/2 and |a|^2 = 1, of which b and c are affine images
    a, b, c = _trinity_vectors()
    assert _vanishes(K.dot(a) - HALF) and _vanishes(a.norm2() - 1)
    for residual in (c.scaled(2) - a - K.scaled(2), b.scaled(2) - K.scaled(2).cross(a),
                     b - K.scaled(2).cross(c)):
        assert all(_vanishes(x) for x in residual), residual


def _modulo(relations, gens):
    """A number type on sympy expressions whose == reduces the difference by _vanishes."""

    def expr(v):
        return v.expr if isinstance(v, Mod) else v

    def lift(op):
        return lambda self, other: Mod(op(self.expr, expr(other)))

    class Mod:
        def __init__(self, e):
            self.expr = e

        __add__ = __radd__ = lift(lambda x, y: x + y)
        __sub__ = lift(lambda x, y: x - y)
        __rsub__ = lift(lambda x, y: y - x)
        __mul__ = __rmul__ = lift(lambda x, y: x * y)
        __pow__ = lift(lambda x, y: x**y)

        def __neg__(self):
            return Mod(-self.expr)

        def __eq__(self, other):
            return _vanishes(self.expr - expr(other), relations, gens)

    return Mod


def test_trinity_battery_follows_from_the_base_facts(monkeypatch):
    # generic jets A_0..A_2 with k.A_0 = 1/2, |A_0|^2 = 1 and k.A_n = 0 for
    # n >= 1, B_n = k x A_n and C_n = A_n/2 (+ k at n = 0), in place of the
    # sphere jets at scale 1: _battery's own code then finds every check and
    # every premise 0 modulo those relations.  A check on orders n and m reads
    # only the jets of those orders, and every order n >= 1 obeys the same
    # relation, so orders 1 and 2, giving both n = m and n != m, prove the
    # battery at every order.
    order = 2
    jets = [sympy.symbols(f"x{n} y{n} z{n}") for n in range(order + 1)]
    relations = [K.dot(trinity.Vec3F(*jets[0])) - HALF, trinity.Vec3F(*jets[0]).norm2() - 1]
    relations += [K.dot(trinity.Vec3F(*v)) for v in jets[1:]]
    gens = [x for v in jets for x in v]
    Mod = _modulo(relations, gens)
    a = [trinity.Vec3F(*map(Mod, v)) for v in jets]
    b = [K.cross(v) for v in a]
    c = [v.scaled(HALF) - K.scaled(-1 if n == 0 else 0) for n, v in enumerate(a)]
    p2 = [trinity._flip((1, -1, 1), v) for v in b]
    p3 = [trinity._flip((1, 1, -1), v) for v in c]
    names = [name for name, _ in trinity.verify_derivative_identities(order)]
    monkeypatch.setattr(trinity, "_jets", lambda t0, order: ((a, p2, p3), 1))
    checks = trinity._battery(0, order)
    assert [name for name, _ in checks] == names
    assert [name for name, ok in checks if not ok] == []
    # not vacuous: without |A_0|^2 = 1, a.c = |A_0|^2/2 + 1/2 is not 1
    free = _modulo(relations[:1] + relations[2:], gens)
    assert not free(a[0].dot(c[0]).expr) == 1
