import math
from collections import Counter
from fractions import Fraction
from itertools import product, zip_longest
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from congruent import trinity

F = Fraction


def test_sphere_relations_low_order():
    # the sphere relations lead the one pass: 9 base checks and 3 plane checks per order
    checks = trinity.verify_derivative_identities(2)[: 9 + 3 * 2]
    assert checks[0][0] == "plane1: x1+y1-z1 = 1" and checks[-1][0] == "d^2 plane3 = 0"
    assert all(ok for _, ok in checks)


def _jets_at(points, order=2):
    """The integer jets of p1, p2, p3 at each point."""
    for t0 in points:
        jets, _ = trinity._jets(t0, order)
        yield jets


def test_vector_cross_and_dot_structure():
    for jets in _jets_at((0, 1, 3, 40, -7)):
        assert len(jets) == 3
        assert not any(jet[0].is_zero() for jet in jets)
        for k in range(3):
            u, v, w = (jet[k] for jet in jets)
            # scalar triple product is antisymmetric under swapping two arguments
            assert u.cross(v).dot(w) == -v.cross(u).dot(w)


def test_vec_ops_dot_and_cross():
    for da, db, _ in _jets_at((0, 2, 5, 81, -3)):
        for u, v in zip(da, db):
            c = u.cross(v)
            # the cross product is orthogonal to both factors
            assert c.dot(u) == 0
            assert c.dot(v) == 0


def test_derivative_identities_small():
    checks = trinity.verify_derivative_identities(2)
    assert checks and all(ok for _, ok in checks)


# (checks of identities(max_order), jet evaluation points) for max_order
# 1..6: the points are 0..8, as the base facts have weight <= 2 at every order
ONE_PASS = {1: (49, 9), 2: (88, 9), 3: (147, 9), 4: (226, 9), 5: (325, 9), 6: (444, 9)}


@pytest.mark.parametrize("max_order", sorted(ONE_PASS))
def test_one_pass_takes_one_jet_table_per_point(monkeypatch, max_order):
    calls = []
    orders = []
    real = trinity._jets

    def counted(t0, order):
        calls.append(t0)
        orders.append(order)
        return real(t0, order)

    monkeypatch.setattr(trinity, "_jets", counted)
    for _ in range(2):
        # a second call takes the same tables again: nothing is kept between calls
        calls.clear()
        orders.clear()
        checks = trinity.identities(max_order).checks()
        assert (len(checks), len(calls)) == ONE_PASS[max_order]
        assert calls == list(range(len(calls)))
        assert all(ok for _, ok in checks)
        # the base facts read the values at t0 = 0..7; the derived checks
        # read every order once, at t0 = 8
        assert list(zip(calls, orders)) == [(t0, 0) for t0 in range(8)] + [(8, max_order)]


def test_derived_checks_are_computed_not_read_from_their_gates(monkeypatch):
    # every derivative of p1 at t0 = 8 moves by (-S, 0, 0), and no value at
    # any point moves: every base fact, and so every gate, still holds, so
    # only the derived checks' own comparisons can fail
    real = trinity._jets

    def moved(t0, order):
        (p1, p2, p3), scale = real(t0, order)
        if t0 == 8:
            p1 = [p1[0], *(v - trinity.Vec3F(scale, 0, 0) for v in p1[1:])]
        return (p1, p2, p3), scale

    monkeypatch.setattr(trinity, "_jets", moved)
    checks = dict(trinity.verify_derivative_identities(2))
    # the base facts: the sphere relations and the norms of a, b, c
    base = (
        "plane1: x1+y1-z1 = 1", "plane2: x2-y2-z2 = 0", "plane3: x3+y3+z3 = 2",
        "norm1 = 1", "norm2 = 1/2", "norm3 = 3/2",
        "x1^2+x2^2 = x3^2", "y1^2+y2^2 = y3^2", "z1^2+z2^2 = z3^2",
        "|a|^2 = 1", "|b|^2 = 1/2", "|c|^2 = 3/2",
    )
    assert all(checks[name] for name in base)
    for name in ("d^1 plane1 = 0", "d^2 plane1 = 0", "d1a.d1c = |d1a|^2/2", "d2a x d2c = 0",
                 "3 d1a.d2a = 4 d1b.d2b", "3 d1a x d2c = (d1b.d2a)(1,1,-1)"):
        assert not checks[name], name
    assert all(checks[k] for k in ("d^1 plane2 = 0", "d^2 plane3 = 0", "d1b.d1c = 0", "a.b = 0"))


def _plus(num, extra):
    return tuple(a + b for a, b in zip_longest(num, extra, fillvalue=0))


# t^9/d, as a numerator over the sphere denominator 2d
T9_OVER_D = (0,) * 9 + (2,)


def test_perturbed_sphere_fails_by_name(monkeypatch):
    # t^9/d moves x1 off sphere 1 and its plane: every check on x1 must fail
    x1, y1, z1 = trinity._SPHERES[1]
    monkeypatch.setitem(trinity._SPHERES, 1, (_plus(x1, T9_OVER_D), y1, z1))
    checks = dict(trinity.verify_derivative_identities(2))
    for name in ("plane1: x1+y1-z1 = 1", "norm1 = 1", "d^1 plane1 = 0", "d^2 plane1 = 0"):
        assert not checks[name], name
    assert all(checks[k] for k in ("plane2: x2-y2-z2 = 0", "norm2 = 1/2", "d^2 plane3 = 0"))
    for name in ("a.b = 0", "|a|^2 = 1", "cxa = b", "d1a.d1b = 0", "d2a x d2c = 0"):
        assert not checks[name], name
    assert all(checks[k] for k in ("b.c = 0", "|b|^2 = 1/2", "d2b.d2c = 0"))


def test_perturbed_b_fails_the_checks_that_carry_scale_powers(monkeypatch):
    # t^9/d moves y2, and so b = (x2, -y2, z2): the checks that compare b
    # with a constant times a power of the common scale must fail
    x2, y2, z2 = trinity._SPHERES[2]
    monkeypatch.setitem(trinity._SPHERES, 2, (x2, _plus(y2, T9_OVER_D), z2))
    checks = dict(trinity.verify_derivative_identities(2))
    assert not checks["norm2 = 1/2"]
    assert all(checks[k] for k in ("plane1: x1+y1-z1 = 1", "norm1 = 1", "norm3 = 3/2"))
    for name in ("|b|^2 = 1/2", "a.(bxc) = 1/2", "ax(bxc) = b"):
        assert not checks[name], name
    assert all(checks[k] for k in ("a.c = 1", "|a|^2 = 1", "|c|^2 = 3/2", "d2a x d2c = 0"))


# verify_derivative_identities proves the base facts at weight 2: at the
# 8w + 1 = 17 points 0..16 for a table with an odd power, and at the
# 4w + 1 = 9 points 0..8 for an even one
@pytest.mark.parametrize("name", ["norm1 = 1", "|a|^2 = 1"], ids=["norm1", "a-norm"])
def test_perturbation_hidden_below_the_bound_is_caught(monkeypatch, name):
    # the evaluation points are 0, 1, 2, ...; each perturbation of x1 (a
    # numerator over 2d) vanishes at all of them but one, so dropping any
    # point would miss it
    x1, y1, z1 = trinity._SPHERES[1]
    points = 17
    for seen in (0, points - 1):
        hidden = (1,)
        for k in range(points):
            if k != seen:
                # times (t - k)
                hidden = tuple(a - k * b for a, b in zip((0, *hidden), (*hidden, 0)))
        monkeypatch.setitem(trinity._SPHERES, 1, (_plus(x1, hidden), y1, z1))
        assert not dict(trinity.verify_derivative_identities(1))[name], seen


def _hidden_even(seen, points):
    """An even numerator over 2d that vanishes at 0, 1, ..., points - 1 but at seen."""
    hidden = (1,)
    for k in range(points):
        if k != seen:
            # times (t^2 - k^2)
            hidden = tuple(a - k * k * b for a, b in zip((0, 0, *hidden), (*hidden, 0, 0)))
    assert not any(hidden[1::2])
    return hidden


@pytest.mark.parametrize("name", ["norm1 = 1", "|a|^2 = 1"], ids=["norm1", "a-norm"])
def test_even_perturbation_hidden_below_the_parity_bound_is_caught(monkeypatch, name):
    # an even table is proved at 0, 1, ..., 4w; each even perturbation of x1
    # vanishes at all of them but one, so dropping any point would miss it
    x1, y1, z1 = trinity._SPHERES[1]
    points = 9
    for seen in (0, points - 1):
        monkeypatch.setitem(trinity._SPHERES, 1, (_plus(x1, _hidden_even(seen, points)), y1, z1))
        assert not dict(trinity.verify_derivative_identities(1))[name], seen


@pytest.mark.parametrize(
    "name", ["cxa = b", "3 d1a x d2c = (d1b.d2a)(1,1,-1)", "d2a.d2c = 2|d2c|^2", "d^2 plane3 = 0"]
)
def test_sphere3_perturbation_hidden_at_all_but_one_point_fails_derived_checks(monkeypatch, name):
    # each of these checks is gated on a premise that a change to z3 breaks
    # where it is seen (2c = a + 2k, or plane3 for the derivative plane), so
    # the change fails it when seen at just one of the 9 points
    x3, y3, z3 = trinity._SPHERES[3]
    for seen in (0, 8):
        monkeypatch.setitem(trinity._SPHERES, 3, (x3, y3, _plus(z3, _hidden_even(seen, 9))))
        assert trinity._points(2) == range(9)
        checks = dict(trinity.verify_derivative_identities(2))
        assert not checks[name], seen
        untouched = ("norm1 = 1", "a.b = 0", "d2a.d2b = 0", "3 d1a.d2a = 4 d1b.d2b")
        assert all(checks[k] for k in untouched), seen


def _c_to_its_antipode(p1, p2, p3, scale):
    """c to 8k/3 - c, its antipode on its circle, and each d^n c to -d^n c.

    The table is scaled by 3, so that the new c is an integer over the scale.
    """
    p1, p2, p3 = ([v.scaled(3) for v in p] for p in (p1, p2, p3))
    p3 = [trinity.Vec3F(1, 1, 1).scaled(4 * scale) - p3[0], *(v.scaled(-1) for v in p3[1:])]
    return p1, p2, p3, 3 * scale


def _b_negated(p1, p2, p3, scale):
    """Each d^n b to -d^n b."""
    return p1, [v.scaled(-1) for v in p2], p3, scale


def _a_reflected(p1, p2, p3, scale):
    """a to a - (4/3)k, its mirror image in the plane k.x = 0, and c to c - (2/3)k.

    That keeps |a|^2 = 1, 2b = 2k x a and 2c = a + 2k, and the table is
    scaled by 3, so that the new a and c are integers over the scale.
    """
    p1, p2, p3 = ([v.scaled(3) for v in p] for p in (p1, p2, p3))
    p1[0] -= trinity.Vec3F(1, 1, -1).scaled(2 * scale)
    p3[0] -= trinity.Vec3F(1, 1, 1).scaled(scale)
    return p1, p2, p3, 3 * scale


def _a_negated(p1, p2, p3, scale):
    """a to -a, with every other jet kept: only b and c still obey b = 2k x c."""
    return [p1[0].scaled(-1), *p1[1:]], p2, p3, scale


# (the move at t0 = 8, checks it fails by a premise of their gate alone, as
# their own comparison still holds there, and checks it keeps)
GATES = {
    "ac-relation": (
        _c_to_its_antipode,
        ("d1a x d1c = 0", "3 d1a x d2a = 12 d1c x d2c", "b.c = 0", "d2b.d2c = 0",
         "(d1a.d2c)(-1,-1,1) = 2 d1b x d2c"),
        ("plane3: x3+y3+z3 = 2", "norm3 = 3/2", "|c|^2 = 3/2", "a.b = 0", "d2a.d2b = 0"),
    ),
    "ab-relation": (
        _b_negated,
        ("a.b = 0", "d1a.d1b = 0", "3 d1a.d2a = 4 d1b.d2b", "b.c = 0", "d2b.d2c = 0",
         "2 d1b.d2c = d1b.d2a"),
        ("plane2: x2-y2-z2 = 0", "norm2 = 1/2", "a.c = 1", "d2a x d2c = 0"),
    ),
    "plane1": (
        _a_reflected,
        ("a.b = 0", "d1a.d1b = 0", "d2a x d2c = 0", "d^1 plane1 = 0"),
        ("norm1 = 1", "|a|^2 = 1", "plane2: x2-y2-z2 = 0", "norm2 = 1/2", "d^1 plane2 = 0"),
    ),
    "abc-beyond-bc": (
        _a_negated,
        ("2 d1b.d2c = d1b.d2a", "3 d1a x d2c = (d1b.d2a)(1,1,-1)", "d1a.d1b = 0"),
        ("b.c = 0", "d2b.d2c = 0", "norm1 = 1", "plane3: x3+y3+z3 = 2"),
    ),
}


@pytest.mark.parametrize("premise", sorted(GATES))
def test_a_derived_check_fails_where_its_premise_does(monkeypatch, premise):
    move, failed, held = GATES[premise]
    real = trinity._jets

    def moved(t0, order):
        (p1, p2, p3), scale = real(t0, order)
        if t0 == 8:
            *jets, scale = move(p1, p2, p3, scale)
            return jets, scale
        return (p1, p2, p3), scale

    monkeypatch.setattr(trinity, "_jets", moved)
    checks = dict(trinity.verify_derivative_identities(2))
    assert [name for name in failed if checks[name]] == []
    assert all(checks[name] for name in held)


def test_points_halve_only_for_an_even_table(monkeypatch):
    assert trinity._points(2) == range(9)
    x1, y1, z1 = trinity._SPHERES[1]
    monkeypatch.setitem(trinity._SPHERES, 1, (_plus(x1, T9_OVER_D), y1, z1))
    assert trinity._points(2) == range(17)


def _value_at(coeffs, t0):
    return sum(c * t0**i for i, c in enumerate(coeffs))


def _times(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def _quotient_rule(num, den, order):
    """Numerators n_k with f^(k) = n_k / den^(k+1), by (n/D^w)' = (n'D - w n D')/D^(w+1)."""

    def deriv(p):
        return tuple(i * c for i, c in enumerate(p))[1:]

    out = [num]
    for w in range(1, order + 1):
        n = out[-1]
        out.append(_plus(_times(deriv(n), den), [-w * c for c in _times(n, deriv(den))]))
    return out


def _sphere_numerators():
    return [f for i in (1, 2, 3) for f in trinity._SPHERES[i]]


def test_sphere_table_matches_the_product_forms():
    # the product forms written next to the table in trinity.py, as numerators
    # over _DEN = 2d; each side has degree <= 8, so 9 points prove each equality
    forms = {
        1: (
            lambda t: 2 * (t**4 - 1) ** 2,
            lambda t: 8 * t**2 * (t**2 + 1) ** 2,
            lambda t: 8 * t**2 * (t**2 - 1) ** 2,
        ),
        2: (
            lambda t: 8 * t**2 * (t**4 + 1),
            lambda t: (t**2 - 1) ** 2 * (t**4 + 6 * t**2 + 1),
            lambda t: -((t**2 + 1) ** 2) * (t**4 - 6 * t**2 + 1),
        ),
        3: (
            lambda t: 2 * (t**8 + 6 * t**4 + 1),
            lambda t: t**8 + 4 * t**6 + 22 * t**4 + 4 * t**2 + 1,
            lambda t: t**8 - 4 * t**6 + 22 * t**4 - 4 * t**2 + 1,
        ),
    }
    assert len(trinity._DEN) <= 9 and all(len(num) <= 9 for num in _sphere_numerators())
    for t in range(9):
        assert _value_at(trinity._DEN, t) == 2 * (t**8 + 14 * t**4 + 1)
        for i, form in forms.items():
            table = trinity._SPHERES[i]
            assert tuple(_value_at(num, t) for num in table) == tuple(f(t) for f in form), (i, t)


def test_integer_jets_match_the_quotient_rule():
    nums = _sphere_numerators()
    den = trinity._DEN
    references = [_quotient_rule(num, den, 4) for num in nums]
    for t0 in range(81):
        values, scale = trinity._derivatives(nums, trinity._DEN, t0, 4)
        assert type(scale) is int and all(type(v) is int for vs in values for v in vs)
        d = _value_at(den, t0)
        for i, (vs, reference) in enumerate(zip(values, references)):
            want = [Fraction(_value_at(n, t0), d ** (k + 1)) for k, n in enumerate(reference)]
            assert [Fraction(v, scale) for v in vs] == want, (i, t0)


def test_first_derivative_matches_the_quotient_rule():
    # f = (t^2 + 1) / (t^3 - 2)
    num, den = (1, 0, 1), (-2, 0, 0, 1)
    for v in (Fraction(2), Fraction(-1), Fraction(5, 3)):
        [(value, slope)], scale = trinity._derivatives([num], den, v, 1)
        slope_num = 2 * v * (v**3 - 2) - (v**2 + 1) * 3 * v**2
        assert value / scale == (v**2 + 1) / (v**3 - 2)
        assert slope / scale == slope_num / (v**3 - 2) ** 2


def test_derivatives_at_rejects_a_pole():
    # 1 / (t - 2) at t = 2
    with pytest.raises(ZeroDivisionError):
        trinity._derivatives([(1,)], (-2, 1), 2, 3)


def test_sphere_derivatives_match_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    nums = _sphere_numerators()
    points = (F(2, 3), F(-3))
    ours = [trinity._derivatives(nums, trinity._DEN, t0, 4) for t0 in points]
    den = sum(c * t**k for k, c in enumerate(trinity._DEN))
    for i, num in enumerate(nums):
        g = sum(c * t**k for k, c in enumerate(num)) / den
        for k in range(5):
            if k:
                g = sympy.diff(g, t)
            for t0, (values, scale) in zip(points, ours):
                want = g.subs(t, sympy.Rational(t0.numerator, t0.denominator))
                got = values[i][k] / scale
                assert sympy.Rational(got.numerator, got.denominator) == want, (i, k, t0)


@given(
    st.tuples(st.integers(2, 40), st.integers(1, 39)).filter(
        lambda t: t[1] < t[0] and gcd(*t) == 1 and (t[0] - t[1]) % 2 == 1
    )
)
@settings(max_examples=60, deadline=None)
def test_sum_of_squares_identity(mn):
    assert trinity.sum_of_squares_identity(*mn)


def _reference_point(family, signs, angle):
    """The float parameterization of each circle family: the reference for the exact data."""
    cs, sn = math.cos(angle), math.sin(angle)
    if family == 1:
        base = (
            1 / 3 - cs / math.sqrt(3) - sn / 3,
            1 / 3 + cs / math.sqrt(3) - sn / 3,
            1 / 3 + 2 * sn / 3,
        )
    elif family == 2:
        base = (
            -cs / 2 - sn / (2 * math.sqrt(3)),
            -cs / 2 + sn / (2 * math.sqrt(3)),
            -sn / math.sqrt(3),
        )
    else:
        base = (
            2 / 3 - cs / (2 * math.sqrt(3)) - sn / 6,
            2 / 3 + cs / (2 * math.sqrt(3)) - sn / 6,
            2 / 3 + sn / 3,
        )
    return tuple(s * v for s, v in zip(signs, base))


def test_circle_check_proves_every_circle():
    assert trinity.circle_check() == (20, [])


def test_circle_check_proves_each_family_on_its_base_circle(monkeypatch):
    # a sign flip is orthogonal, so the base circle of each family carries
    # the proof: one call per sphere of it, the origin, the center and, in
    # families 1 and 3, the second sphere (3 + 2 + 3), not one per signed circle
    calls = []
    real = trinity._on_sphere

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(trinity, "_on_sphere", counted)
    assert not trinity.circle_check()[1]
    assert len(calls) == 8


def test_exact_circles_match_the_float_parameterization():
    for (family, info), signs in product(trinity._FAMILY.items(), product((1, -1), repeat=3)):
        center, u, v = (trinity._flip(signs, info[k]) for k in ("C", "u", "v"))
        a, b = math.sqrt(info["su"]), math.sqrt(info["sv"])
        for angle in (0.123, 1.0, 2.5, -2.0, 4.7):
            cs, sn = math.cos(angle), math.sin(angle)
            got = [c + cs * a * x + sn * b * y for c, x, y in zip(center, u, v)]
            want = _reference_point(family, signs, angle)
            assert all(abs(g - w) < 1e-12 for g, w in zip(got, want)), (family, signs, angle)


def _mutations(info):
    """Every datum of one family, changed one at a time."""
    for key in ("C", "u", "v", "normal"):
        for i in range(3):
            vec = list(info[key])
            vec[i] += Fraction(1, 7)
            yield key, tuple(vec)
    for key in ("su", "sv", "const", "sphere2", "radius2"):
        yield key, info[key] + Fraction(1, 7)
    if info["second"] is not None:
        k, r2 = info["second"]
        yield "second", (k + Fraction(1, 7), r2)
        yield "second", (k, r2 + Fraction(1, 7))


_SIGN_SETS = {
    1: list(product((1, -1), repeat=3)),
    2: [(1, 1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, -1)],
    3: list(product((1, -1), repeat=3)),
}


@pytest.mark.parametrize("family", [1, 2, 3])
def test_circle_check_fails_on_any_changed_datum(monkeypatch, family):
    info = trinity._FAMILY[family]
    for key, value in _mutations(info):
        monkeypatch.setitem(trinity._FAMILY, family, {**info, key: value})
        _, failed = trinity.circle_check()
        # every signed circle of the family fails with it, in order
        assert failed == [(family, signs) for signs in _SIGN_SETS[family]], (family, key, value)


def test_circle_check_builds_no_fraction(monkeypatch):
    # each family's data are cleared to ints by integer division, so the
    # proof of the twenty circles runs in integers throughout
    built = []

    def counting(make):
        def counted(*args, **kwargs):
            built.append(args)
            return make(*args, **kwargs)

        return counted

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting(Fraction.__new__)))
    if hasattr(Fraction, "_from_coprime_ints"):  # Python >= 3.12 builds results here
        make = Fraction._from_coprime_ints.__func__
        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counting(make)))
    assert Fraction(1, 3) * 3 == 1 and len(built) >= 2
    built.clear()
    assert not trinity.circle_check()[1]
    assert built == []


def test_twenty_signed_circles(monkeypatch):
    # with every sphere condition failing, circle_check lists each signed circle once
    monkeypatch.setattr(trinity, "_on_sphere", lambda *_: False)
    count, failed = trinity.circle_check()
    assert count == len(failed) == len(set(failed)) == 20
    by_family = Counter(family for family, _ in failed)
    assert by_family == {1: 8, 2: 4, 3: 8}
    # family 2 keeps one of each pair of opposite sign patterns
    flips = {signs for family, signs in failed if family == 2}
    assert not flips & {tuple(-s for s in signs) for signs in flips}


def test_verify_all_low_order():
    checks = trinity.identities(max_order=1).checks()
    assert checks and all(ok for _, ok in checks)
