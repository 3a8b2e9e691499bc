from fractions import Fraction

import pytest

from congruent import sequences
from congruent.elliptic import Point, curve_en
from congruent.triples import RatTriangle

F = Fraction


def _tri(a, b, c):
    return RatTriangle(F(a), F(b), F(c))


def test_fib_lucas_identity():
    for n in range(20):
        pair = sequences.fib_lucas(n)
        assert pair.l**2 - 5 * pair.f**2 == 4 * (-1) ** n


def test_fib_even_family_baseline():
    tri, n, pts = sequences.fib_even_family(3)
    assert n == 180
    assert tri.scaled(6) == _tri("20/3", "3/2", "41/6")
    e = curve_en(n)
    for p in pts:
        assert e.contains(p)


def test_fib_odd_family_points_on_curve():
    for k in (1, 2, 4):
        tri, n, pts = sequences.fib_odd_family(k)
        assert tri.area == n
        e = curve_en(n)
        for p in pts:
            assert e.contains(p)


def test_standard_points_relations():
    tri, n, pts = sequences.cheb_family(3, 2)
    p1, p2 = sequences.standard_points(tri, n)
    e = curve_en(n)
    assert e.contains(p1) and e.contains(p2)


def test_cheb_eval_matches_recurrence():
    t0, t1 = 1, 3
    for m in range(2, 8):
        t0, t1 = t1, 2 * 3 * t1 - t0
    assert sequences.cheb_eval("first", 7, 3) == t1


def test_cheb_eval_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for m in range(41):
        t = sympy.chebyshevt_poly(m, x, polys=True)
        u = sympy.chebyshevu_poly(m, x, polys=True)
        for n in range(-3, 10):
            assert sequences.cheb_eval("first", m, n) == t.eval(n)
            assert sequences.cheb_eval("second", m, n) == u.eval(n)


def test_cheb_eval_rejects_bad_kind_and_index():
    with pytest.raises(ValueError):
        sequences.cheb_eval("third", 2, 3)
    with pytest.raises(ValueError):
        sequences.cheb_eval("first", -1, 3)


def test_cheb_family_baseline():
    tri, n, pts = sequences.cheb_family(3, 2)
    assert n == 78
    assert tri == _tri(45, "52/15", "677/15")
    assert pts == (
        Point(F(-3), F(135)),
        Point(F(2028), F(91260)),
        Point(F("458329/900"), F("306627517/27000")),
    )


def test_pell_identity():
    assert sequences.pell_identity_check(8)


def test_pell_identity_catches_one_wrong_value(monkeypatch):
    cheb_eval = sequences.cheb_eval

    def off_by_one(kind, m, n):
        v = cheb_eval(kind, m, n)
        return v + 1 if (kind, m, n) == ("second", 6, 9) else v

    monkeypatch.setattr(sequences, "cheb_eval", off_by_one)
    assert not sequences.pell_identity_check(12)


def test_brahmagupta_baseline():
    bt, curve, qs, orders = sequences.brahmagupta(3)
    assert (bt.a, bt.b, bt.c) == (51, 52, 53)
    assert bt.area == 1170 and bt.perimeter_half == 78
    for q in qs:
        assert curve.contains(q)
    assert qs[0] == Point(F(0), F(140556))


def test_brahmagupta_heron():
    for k in (1, 2, 4):
        bt, curve, qs, _ = sequences.brahmagupta(k)
        s = bt.perimeter_half
        assert bt.area**2 == s * (s - bt.a) * (s - bt.b) * (s - bt.c)
        for q in qs:
            assert curve.contains(q)


def test_brahmagupta_degenerate_torsion():
    bt, curve, qs, orders = sequences.brahmagupta(0)
    assert orders == (4, 4, 4, 4)
    for q in qs:
        assert curve.order_at_most(q) == 4


def test_brahmagupta_rejects_negative():
    with pytest.raises(ValueError):
        sequences.brahmagupta(-1)
