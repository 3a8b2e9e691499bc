from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from congruent import recurrence
from congruent.triples import RatTriangle, euclid

F = Fraction

TRI345 = RatTriangle(F(3), F(4), F(5))


def test_assign_and_radical():
    s = recurrence.assign(TRI345, "a", 6)
    tri = recurrence.state_triangle(s)
    assert tri.area == s.n
    assert s.radical ** 2 == s.p**4 + 4 * s.n**2 * s.q**4


def test_walk_step_takes_two_square_roots(monkeypatch):
    # one when assign builds the state, one when rec_step builds the next;
    # state_triangle and rec_step read the root the state keeps
    calls = []
    real = recurrence.is_square
    monkeypatch.setattr(recurrence, "is_square", lambda n: calls.append(n) or real(n))
    recurrence.walk(TRI345, 6, "abba")
    assert len(calls) == 2 * 4


def test_rec_step_produces_valid_state():
    s = recurrence.assign(TRI345, "b", 6)
    s2 = recurrence.rec_step(s)
    tri2 = recurrence.state_triangle(s2)
    assert tri2.area == s2.n
    assert tri2.a**2 + tri2.b**2 == tri2.c**2


def test_walk_known_path():
    steps = recurrence.walk(TRI345, 6, "abba")
    assert [n for n, _ in steps][:2] == [15, 34]
    for n, tri in steps:
        assert tri.area == n
        assert tri.a**2 + tri.b**2 == tri.c**2


def test_walk_rejects_bad_path():
    with pytest.raises(ValueError):
        recurrence.walk(TRI345, 6, "abx")


def test_tree_table_verifies():
    reports = recurrence.verify_tree_table()
    assert len(reports) == 28
    assert all(r["ok"] for r in reports)


def test_closed_form_baseline():
    for which, i in (("a_pow_i", 1), ("a_pow_i", 2), ("ab", 1), ("bb", 1)):
        rep = recurrence.closed_form_check(2, 1, which, i)
        assert rep["match"]


admissible_mn = (
    st.tuples(st.integers(2, 30), st.integers(1, 29))
    .filter(lambda t: t[1] < t[0] and gcd(*t) == 1 and (t[0] - t[1]) % 2 == 1)
)


@given(admissible_mn)
@settings(max_examples=25, deadline=None)
def test_closed_forms_generic(mn):
    m, n = mn
    for which, i in (("a_pow_i", 1), ("a_pow_i", 2), ("ab", 1), ("bb", 1)):
        assert recurrence.closed_form_check(m, n, which, i)["match"]


@given(admissible_mn)
@settings(max_examples=25, deadline=None)
def test_closed_form_triangle_is_right(mn):
    m, n = mn
    tri = recurrence.closed_form(m, n, "a_pow_i", 2)
    assert tri.a**2 + tri.b**2 == tri.c**2
