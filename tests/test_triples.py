import re
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from congruent import cli, triples, verify
from congruent.triples import (
    RatTriangle,
    area_identity,
    area_relation,
    concordant_solutions,
    connecting_points,
    derive,
    derived_triples,
    distance_identity,
    distance_relation,
    euclid,
)

F = Fraction

admissible_mn = (
    st.tuples(st.integers(2, 60), st.integers(1, 59))
    .filter(lambda t: t[1] < t[0] and gcd(*t) == 1 and (t[0] - t[1]) % 2 == 1)
)


def test_euclid_baseline():
    t = euclid(2, 1)
    assert (t.a, t.b, t.c) == (3, 4, 5)
    assert F(t.a * t.b, 2) == 6


@given(admissible_mn)
@settings(max_examples=100)
def test_euclid_is_primitive_pythagorean(mn):
    m, n = mn
    t = euclid(m, n)
    assert t.a**2 + t.b**2 == t.c**2
    assert gcd(t.a, gcd(t.b, t.c)) == 1


def test_euclid_rejects_bad_parameters():
    for m, n in ((1, 1), (2, 3), (2, 0)):
        with pytest.raises(ValueError):
            euclid(m, n)


def test_derived_triples_baseline():
    ac, bc, ba = derived_triples(derive(2, 1))
    assert ac == RatTriangle(F(15, 2), F(136, 15), F(353, 30))
    assert bc == RatTriangle(F(40, 3), F(123, 20), F(881, 60))
    assert ba == RatTriangle(F(24, 5), F(35, 12), F(337, 60))


@given(admissible_mn)
@settings(max_examples=60, deadline=None)
def test_derived_areas_match_quadruple(mn):
    m, n = mn
    pair = derive(m, n)
    q = pair.quad
    ac, bc, ba = derived_triples(pair)
    assert ac.area == q.n_ac
    assert bc.area == q.n_bc
    assert ba.area == q.n_ba
    t = euclid(m, n)
    assert F(t.a * t.b, 2) == q.n


def test_area_quad_baseline():
    q = derive(2, 1).quad
    assert (q.n, q.n_ac, q.n_bc, q.n_ba) == (6, 34, 41, 7)


def test_area_identity_value():
    pair = derive(2, 1)
    lhs, rhs = area_identity(pair)
    assert area_relation(pair.quad, pair.triple.c, lhs)
    assert lhs == rhs == 2886


@given(admissible_mn)
@settings(max_examples=60, deadline=None)
def test_area_identity_generic(mn):
    pair = derive(*mn)
    assert area_relation(pair.quad, pair.triple.c, area_identity(pair)[0])


def test_connecting_points_on_curves():
    pairs = connecting_points(derive(2, 1))
    assert [(p.x, p.y) for _, p in pairs] == [(-16, 120), (-9, 120), (25, 120)]
    for mn in ((2, 1), (3, 2), (7, 4), (12, 5)):
        assert all(curve.contains(p) for curve, p in connecting_points(derive(*mn)))


def test_concordant_solutions_satisfy_both_forms():
    sols = concordant_solutions(derive(2, 1))
    for s in sols:
        assert s.x**2 + s.n * s.y**2 == s.z**2
        assert s.x**2 - s.n * s.y**2 == s.t**2
    assert [(s.x, s.y, s.z, s.t, s.n) for s in sols] == [
        (706, 120, 994, 94, 34),
        (881, 120, 1169, 431, 41),
        (337, 120, 463, 113, 7),
    ]


@given(admissible_mn)
@settings(max_examples=40, deadline=None)
def test_distance_identity_generic(mn):
    pair = derive(*mn)
    root, quadruple = distance_identity(pair)
    assert distance_relation(pair.sides, root)
    assert root**2 == sum(v**2 for v in quadruple[1:])


def test_from_legs_takes_the_exact_hypotenuse():
    assert RatTriangle.from_legs(3, 4) == RatTriangle(F(3), F(4), F(5))
    assert RatTriangle.from_legs(F(3, 2), F(20, 3)).c == F(41, 6)
    with pytest.raises(ValueError, match="not the legs of a rational right triangle"):
        RatTriangle.from_legs(1, 1)


def test_rat_triangle_rejects_non_pythagorean():
    with pytest.raises((ValueError, AssertionError)):
        RatTriangle(F(1), F(1), F(1))


def test_gate_pair_checks_agree_with_the_public_results():
    # the area identity, the distance identity and the concordant solutions
    # are integers over the one D = ABC of derive(m, n); they agree with the
    # closed forms and with the d_i = c_i - a_i of the Fraction triangles
    for m in range(2, 41):
        for n in range(1, m):
            if gcd(m, n) != 1 or (m - n) % 2 == 0:
                continue
            pair = derive(m, n)
            t, q, d, _ = pair
            assert area_relation(q, t.c, area_identity(pair)[0])
            sols = concordant_solutions(pair)
            tris = derived_triples(pair)
            want = [(tri.c * d, 2 * d, tri.area) for tri in tris]
            assert [(s.x, s.y, s.n) for s in sols] == want
            root, quadruple = distance_identity(pair)
            assert distance_relation(pair.sides, root)
            assert root == 2 * (t.c**4 - 3 * (t.a * t.b) ** 2)
            d1, d2, d3 = (tri.c - tri.a for tri in tris)
            want = (d1 + d2 + d3, d1 + d2 - d3, d1 - d2 + d3, -d1 + d2 + d3)
            assert tuple(F(x, d) for x in quadruple) == want
            assert (q.n, q.n_ac) == (t.a * t.b // 2, t.a**2 + t.c**2)


@pytest.mark.parametrize(
    "wrong, message",
    [(1, "concordant form x^2 + N y^2 = z^2 fails"), (0, "concordant form x^2 - N y^2 = t^2 fails")],
    ids=["z", "t"],
)
def test_a_wrong_concordant_root_raises_and_fails_its_checks(monkeypatch, capsys, wrong, message):
    # concordant_solutions takes z, then t, from isqrt; the wrong one is off by one
    calls = []

    def root(v):
        calls.append(v)
        return isqrt(v) + (len(calls) % 2 == wrong)

    monkeypatch.setattr(triples, "isqrt", root)
    with pytest.raises(ValueError, match=re.escape(message)):
        concordant_solutions(derive(2, 1))
    assert cli.main(["triples", "--m", "2", "--n", "1"]) == 3
    assert message in capsys.readouterr().err
    checks = verify.run_all()["triples"]
    assert [name for name, ok in checks if not ok] == ["concordant solutions"]
