import json
import sys
from fractions import Fraction
from itertools import islice

import pytest

from congruent import cli, sequences
from congruent.exact import MAX_DIGITS, OutputTooLarge
from congruent.elliptic import Curve, Point, curve_en
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
    families = [sequences.fib_even_family(k) for k in (1, 5)]
    families += [sequences.cheb_family(m, k) for m, k in ((3, 2), (1, 5), (4, 7))]
    for _, n, (p0, p1, p2) in families:
        e = curve_en(n)
        assert e.contains(p0) and e.contains(p1) and e.contains(p2)
        assert e.add(Point(F(0), F(0)), p0) == p1
        assert e.double(p0) == p2


def test_cheb_pair_matches_recurrence():
    t0, t1 = 1, 3
    u0, u1 = 1, 6
    for m in range(2, 8):
        t0, t1 = t1, 2 * 3 * t1 - t0
        u0, u1 = u1, 2 * 3 * u1 - u0
    # the loop ends at (t0, t1) = (T_6(3), T_7(3)) and (u0, u1) = (U_6(3), U_7(3))
    assert sequences.cheb_pair(7, 3) == (t1, u0)
    assert sequences.cheb_pair(0, 3) == (1, 0)


def test_cheb_pair_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for m in range(41):
        t = sympy.chebyshevt_poly(m, x, polys=True)
        u = sympy.chebyshevu_poly(m - 1, x, polys=True) if m else sympy.Poly(0, x)
        for n in range(-3, 10):
            assert sequences.cheb_pair(m, n) == (t.eval(n), u.eval(n))


def test_lucas_pairs_are_the_fib_lucas_values():
    pairs = list(sequences.lucas_pairs(60))
    assert pairs == [(p.f, p.l) for p in map(sequences.fib_lucas, range(61))]


def test_cheb_pairs_match_the_two_term_recurrence():
    # (T_m(n), U_{m-1}(n)) stepped from (T_{-1}, T_0) = (n, 1), (U_{-2}, U_{-1}) = (-1, 0)
    for n in range(25):
        t0, t1, u0, u1 = n, 1, -1, 0
        want = [(t1, u1)]
        for _ in range(12):
            t0, t1 = t1, 2 * n * t1 - t0
            u0, u1 = u1, 2 * n * u1 - u0
            want.append((t1, u1))
        assert list(islice(sequences.cheb_pairs(n), 13)) == want


def test_cheb_pair_rejects_negative_index():
    with pytest.raises(ValueError):
        sequences.cheb_pair(-1, 3)


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
    # the check runs one cheb_pairs(n) per point, so U_6(9) + 1 is wrong at (7, 9) only
    cheb_pairs = sequences.cheb_pairs

    def off_by_one(n):
        for m, (t, u) in enumerate(cheb_pairs(n)):
            yield t, u + ((m, n) == (7, 9))

    monkeypatch.setattr(sequences, "cheb_pairs", off_by_one)
    assert not sequences.pell_identity_check(12)


def test_brahmagupta_baseline():
    bt = sequences.brahmagupta(3)
    assert bt.sides == (51, 52, 53)
    assert bt.area == 1170 and bt.semiperimeter == 78
    curve, qs = bt.curve, bt.points
    for q in qs:
        assert curve.contains(q)
    assert qs[0] == Point(F(0), F(140556))


def test_brahmagupta_heron():
    for k in (1, 2, 4):
        bt = sequences.brahmagupta(k)
        s, (a, b, c), curve, qs = bt.semiperimeter, bt.sides, bt.curve, bt.points
        assert bt.area**2 == s * (s - a) * (s - b) * (s - c)
        # the semiperimeter is the area of the Chebyshev triangle at (k, 2)
        assert s == sequences.cheb_family(k, 2)[0].area
        for q in qs:
            assert curve.contains(q)


def test_brahmagupta_degenerate_torsion():
    bt = sequences.brahmagupta(0)
    assert bt.orders == (4, 4, 4, 4)
    for q in bt.points:
        assert bt.curve.order_at_most(q) == 4


def test_brahmagupta_points_have_infinite_order_by_the_mazur_loop():
    # the per-point loop is the oracle for the one certificate on Q0
    for k in range(1, 41):
        bt = sequences.brahmagupta(k)
        assert bt.orders is None
        for q in bt.points:
            assert bt.curve.order_at_most(q) is None, (k, q)


def test_brahmagupta_certifies_only_q0(monkeypatch):
    certified = []
    certify = Curve.certify_infinite_order

    def counting(self, p):
        certified.append(p)
        return certify(self, p)

    monkeypatch.setattr(Curve, "certify_infinite_order", counting)
    for k in (0, 1, 2, 3, 10, 40):
        certified.clear()
        q0 = sequences.brahmagupta(k).points[0]
        assert certified == ([q0] if k else []), k


def _cli_checks_at_k3(capsys):
    assert cli.main(["seq", "brahmagupta", "--k", "3", "--json"]) == 1
    return {c["name"]: c["pass"] for c in json.loads(capsys.readouterr().out)["checks"]}


@pytest.mark.parametrize("swap", ["2-torsion", "negated"])
def test_brahmagupta_fails_when_q2_is_off_the_shift(monkeypatch, capsys, swap):
    bt = sequences.brahmagupta(3)
    curve, q2 = bt.curve, bt.points[2]
    other = {"2-torsion": Point(F(-51 * 52)), "negated": -q2}[swap]
    assert curve.contains(other) and other != q2
    monkeypatch.setattr(sequences, "Point", lambda *xy: other if Point(*xy) == q2 else Point(*xy))
    assert sequences.brahmagupta(3).orders is not None
    checks = _cli_checks_at_k3(capsys)
    assert checks == {"Heron area": True, "points on curve": True, "infinite order": False}


def test_brahmagupta_fails_when_q0_is_not_certified(monkeypatch, capsys):
    monkeypatch.setattr(Curve, "certify_infinite_order", lambda self, p: False)
    assert sequences.brahmagupta(3).orders == (None, None, None, None)
    checks = _cli_checks_at_k3(capsys)
    assert checks == {"Heron area": True, "points on curve": True, "infinite order": False}


def test_brahmagupta_rejects_negative():
    with pytest.raises(ValueError):
        sequences.brahmagupta(-1)


@pytest.mark.parametrize("limit", [640, 4300])
def test_sequences_stop_at_the_first_value_past_the_digit_limit(limit):
    # fib_lucas bounds each L_k and cheb_pair each T_k(9) and U_{k-1}(9) by the
    # current digit limit; the first k with a value of more digits raises
    bound = 10**limit
    lucas, t, u = [2, 1], [9, 1], [-1, 0]
    while lucas[-2] < bound:
        lucas.append(lucas[-1] + lucas[-2])
    while t[-1] < bound and u[-1] < bound:
        t.append(18 * t[-1] - t[-2])
        u.append(18 * u[-1] - u[-2])
    first_l, first_t = len(lucas) - 2, len(t) - 2
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        assert sequences.fib_lucas(first_l - 1).l == lucas[first_l - 1]
        with pytest.raises(OutputTooLarge):
            sequences.fib_lucas(first_l)
        assert [l for _, l in sequences.lucas_pairs(first_l - 1)] == lucas[:first_l]
        with pytest.raises(OutputTooLarge):
            list(sequences.lucas_pairs(first_l))
        assert sequences.cheb_pair(first_t - 1, 9) == (t[-2], u[-2])
        with pytest.raises(OutputTooLarge):
            sequences.cheb_pair(first_t, 9)
        pairs = sequences.cheb_pairs(9)
        assert list(islice(pairs, first_t)) == list(zip(t[1:-1], u[1:-1]))
        with pytest.raises(OutputTooLarge):
            next(pairs)
        # 0 lifts nothing: the bound is then MAX_DIGITS, which only a lower limit is below
        sys.set_int_max_str_digits(0)
        if limit < MAX_DIGITS:
            assert sequences.fib_lucas(first_l).l == lucas[first_l]
            assert sequences.cheb_pair(first_t, 9) == (t[-1], u[-1])
        else:
            with pytest.raises(OutputTooLarge):
                sequences.fib_lucas(first_l)
            with pytest.raises(OutputTooLarge):
                sequences.cheb_pair(first_t, 9)
    finally:
        sys.set_int_max_str_digits(old)


def test_each_generator_run_reads_the_digit_limit_once(monkeypatch):
    real = sys.get_int_max_str_digits
    reads = []
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: reads.append(1) or real())
    sequences.fib_lucas(300)
    sequences.cheb_pair(200, 9)
    assert len(reads) == 2
