import sys
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from congruent import recurrence, verify
from congruent.triples import RatTriangle

F = Fraction

TRI345 = RatTriangle(F(3), F(4), F(5))

CLOSED_FORM_PATHS = ("a", "aa", "b", "ba")


def _root(n, p, q):
    """sqrt(p^4 + 4N^2 q^4), which is an integer for a leg p/q of area N."""
    r = isqrt(p**4 + 4 * n**2 * q**4)
    assert r * r == p**4 + 4 * n**2 * q**4
    return r


def _reference_walk(tri, n, path):
    """The recurrence as states (N, p, q) -> (r, p r, q^2 N), r = _root(N, p, q).

    The state (N, p, q) stands for the triangle (p/q, 2Nq/p, r/(pq)).
    """
    out = []
    for side in path:
        leg = tri.a if side == "a" else tri.b
        p, q = leg.numerator, leg.denominator
        r = _root(n, p, q)
        n, leg = r, F(p * r, q**2 * n)
        p, q = leg.numerator, leg.denominator
        tri = RatTriangle(leg, F(2 * n * q, p), F(_root(n, p, q), p * q))
        out.append((n, tri))
    return out


def _isqrt_calls(fn):
    """Run fn() and count its calls of math.isqrt, however they are bound."""
    calls = []

    def profile(frame, event, arg):
        if event == "c_call" and arg is isqrt:
            calls.append(arg)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return len(calls)


def test_walk_takes_no_square_roots():
    assert _isqrt_calls(lambda: recurrence.walk(TRI345, 6, "abba")) == 0
    # the count sees the two roots per step of the reference
    assert _isqrt_calls(lambda: _reference_walk(TRI345, 6, "abba")) == 2 * 4


@given(
    st.integers(2, 7).flatmap(lambda m: st.tuples(st.just(m), st.integers(1, m - 1))),
    st.text("ab", min_size=1, max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_walk_matches_the_reference_step(mn, path):
    tri0, n0 = recurrence.euclid_root(*mn)
    assert recurrence.walk(tri0, n0, path) == _reference_walk(tri0, n0, path)


def test_walk_known_path():
    steps = recurrence.walk(TRI345, 6, "abba")
    assert [n for n, _ in steps][:2] == [15, 34]
    for n, tri in steps:
        assert tri.area == n
        assert tri.a**2 + tri.b**2 == tri.c**2


def test_walk_rejects_bad_path():
    with pytest.raises(ValueError):
        recurrence.walk(TRI345, 6, "abx")


@pytest.mark.parametrize(
    "tri0, n0",
    [
        (TRI345, 7),
        (TRI345, F(6, 1) + F(1, 2)),
        (RatTriangle(F(3, 2), F(2), F(5, 2)), F(3, 2)),
        (RatTriangle(F(-3), F(-4), F(5)), 6),
    ],
)
def test_walk_rejects_a_start_that_is_not_its_positive_integer_area(tri0, n0):
    with pytest.raises(ValueError):
        recurrence.walk(tri0, n0, "a")


def test_tree_table_verifies():
    assert recurrence.tree_report() == (28, 0)


def test_tree_table_walks_each_root_once_per_leaf(monkeypatch):
    # the one-step cells are read off the two-step walks "aa" and "ba"
    real, paths = recurrence.walk, []

    def spy(tri0, n0, path):
        paths.append((n0, path))
        return real(tri0, n0, path)

    monkeypatch.setattr(recurrence, "walk", spy)
    assert not recurrence.tree_report().failed
    assert paths == [(n0, p) for n0 in (6, 34, 41, 7) for p in ("aa", "ab", "ba", "bb")]


def _walk_table_check():
    return dict(verify.suite_recurrence())["28-cell walk table"]


def test_wrong_printed_triangle_fails_the_walk_table(monkeypatch):
    # the table is parsed once per process, so the misprint goes into the parsed cell
    _, cells = recurrence._tree_table()
    a, b, c = recurrence._TABLE_TRIANGLES[41, "ba"]
    monkeypatch.setitem(cells, (41, "ba"), (F(a), F(b), F(c + "1")))
    assert not _walk_table_check()


def test_wrong_walk_n_fails_the_walk_table(monkeypatch):
    real = recurrence.walk

    def off_by_one(tri0, n0, path):
        *steps, (n, tri) = real(tri0, n0, path)
        return steps + [(n + (path == "ab"), tri)]

    monkeypatch.setattr(recurrence, "walk", off_by_one)
    assert not _walk_table_check()


def test_closed_form_baseline():
    tri0, n0 = recurrence.euclid_root(2, 1)
    for path in CLOSED_FORM_PATHS:
        assert recurrence.walk(tri0, n0, path)[-1][1] == recurrence.closed_form(2, 1, path)


def test_closed_form_rejects_other_paths():
    for path in ("", "ab", "bb", "aab"):
        with pytest.raises(ValueError):
            recurrence.closed_form(2, 1, path)


admissible_mn = (
    st.tuples(st.integers(2, 30), st.integers(1, 29))
    .filter(lambda t: t[1] < t[0] and gcd(*t) == 1 and (t[0] - t[1]) % 2 == 1)
)


@given(admissible_mn)
@settings(max_examples=25, deadline=None)
def test_closed_forms_generic(mn):
    m, n = mn
    tri0, n0 = recurrence.euclid_root(m, n)
    for path in CLOSED_FORM_PATHS:
        assert recurrence.walk(tri0, n0, path)[-1][1] == recurrence.closed_form(m, n, path)


@given(admissible_mn)
@settings(max_examples=25, deadline=None)
def test_closed_form_triangle_is_right(mn):
    m, n = mn
    tri = recurrence.closed_form(m, n, "aa")
    assert tri.a**2 + tri.b**2 == tri.c**2


def test_a_walk_reads_the_digit_limit_once(monkeypatch):
    # walk makes one printable checker and checks every step with it
    real = sys.get_int_max_str_digits
    reads = []
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: reads.append(1) or real())
    tri0, n0 = recurrence.euclid_root(2, 1)
    assert len(recurrence.walk(tri0, n0, "abab")) == 4
    assert len(reads) == 1
