from fractions import Fraction
from itertools import product

import pytest

from congruent import footprints
from congruent.footprints import CLASSES
from congruent.exact import rat_sqrt
from congruent.triples import RatTriangle

F = Fraction


def test_classify_residues():
    assert footprints.classify(17) == "T0"
    assert footprints.classify(5) == "TI"
    assert footprints.classify(13) == "TI"
    assert footprints.classify(7) == "TII"
    assert footprints.classify(23) == "TII"
    assert footprints.classify(14) == "TIII"
    assert footprints.classify(6) == "TIV"
    assert footprints.classify(22) == "TIV"
    for bad in (3, 9, 15, 26):
        with pytest.raises(ValueError):
            footprints.classify(bad)


def test_load_rows_shape():
    rows = footprints.load_rows()
    assert len(rows) == 143
    by_class = {}
    for r in rows:
        by_class[r.cls] = by_class.get(r.cls, 0) + 1
    assert by_class == {"T0a": 3, "T0b": 4, "TI": 43, "TII": 43, "TIII": 25, "TIV": 25}


def test_load_rows_returns_a_fresh_list():
    rows = footprints.load_rows()
    rows.clear()
    assert footprints.load_rows() is not rows
    assert len(footprints.load_rows()) == 143


def test_all_rows_verify():
    reports = footprints.verify_tables()
    bad = [r for r in reports if not r["ok"]]
    assert not bad


def test_pq_squares_consistent():
    # a = p/q and b = 2Nq/p must both be rational for every row
    for row in footprints.load_rows()[::17]:
        p_sq, q_sq = footprints.footprint_pq(row)
        assert rat_sqrt(p_sq / q_sq) is not None
        assert rat_sqrt(4 * row.n**2 * q_sq / p_sq) is not None


def _triangle(row):
    return footprints.footprint_triangle(row, *footprints.footprint_pq(row))


def test_canonical_small_examples():
    tri = _triangle(footprints.FootprintRow(14, 2, 1, "TIII"))
    assert tri == RatTriangle(F(21, 2), F(8, 3), F(65, 6))
    tri = _triangle(footprints.FootprintRow(353, 4, 1, "T0a"))
    assert tri == RatTriangle(F(5295, 136), F(272, 15), F(87617, 2040))


def test_rejects_unknown_class():
    with pytest.raises(ValueError):
        footprints.FootprintRow(6, 2, 1, "TX")


def _from_legs_oracle(row):
    # footprint_triangle before it ran in integers: two rational roots and from_legs
    p_sq, q_sq = footprints.footprint_pq(row)
    if p_sq <= 0 or q_sq <= 0:
        raise ValueError("row yields a nonpositive p^2 or q^2")
    a = rat_sqrt(p_sq / q_sq)
    if a is None:
        raise ValueError("row does not rationalize: a side square is not a square")
    return RatTriangle.from_legs(a, 2 * abs(row.n) / a)


def _outcome(build, row):
    try:
        return build(row)
    except ValueError as exc:
        return str(exc)


def test_integer_triangle_matches_the_from_legs_oracle():
    for row in footprints.load_rows():
        tri = _triangle(row)
        assert tri == _from_legs_oracle(row), row
        assert tri.a**2 + tri.b**2 == tri.c**2 and tri.area == row.n
    # rows that do not rationalize, or break their class, raise the same message
    outcomes = set()
    for n, m, k, cls in product((-7, 0, 5, 14, 353), range(-3, 5), range(-3, 5), CLASSES):
        row = footprints.FootprintRow(n, m, k, cls)
        want = _outcome(_from_legs_oracle, row)
        assert _outcome(_triangle, row) == want, row
        outcomes.add(want if isinstance(want, str) else "triangle")
    assert outcomes == {
        "triangle",
        "row yields a nonpositive p^2 or q^2",
        "row does not rationalize: a side square is not a square",
        "T0a requires N = m^4 + 6 m^2 n^2 + n^4",
    }


def test_irrational_hypotenuse_raises_the_from_legs_message(monkeypatch):
    # no class formula gets here: a = 1 and b = 2 leave c^2 = 5
    monkeypatch.setattr(footprints, "footprint_pq", lambda row: (F(1), F(1)))
    row = footprints.FootprintRow(1, 1, 1, "TI")
    message = "a and b are not the legs of a rational right triangle"
    assert _outcome(_from_legs_oracle, row) == message
    assert _outcome(_triangle, row) == message
