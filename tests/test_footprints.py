from fractions import Fraction

import pytest

from congruent import footprints
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


def test_all_rows_verify():
    reports = footprints.verify_tables()
    bad = [r for r in reports if not r["ok"]]
    assert not bad


def test_triangle_area_is_n():
    for row in footprints.load_rows()[:20]:
        tri = footprints.footprint_triangle(row)
        assert tri.area == row.n
        assert tri.a**2 + tri.b**2 == tri.c**2


def test_pq_squares_consistent():
    # a = p/q and b = 2Nq/p must both be rational for every row
    for row in footprints.load_rows()[::17]:
        pq = footprints.footprint_pq(row)
        assert rat_sqrt(pq.p_sq / pq.q_sq) is not None
        assert rat_sqrt(4 * row.n**2 * pq.q_sq / pq.p_sq) is not None


def test_canonical_small_examples():
    tri = footprints.footprint_triangle(footprints.FootprintRow(14, 2, 1, "TIII"))
    assert tri == RatTriangle(F(21, 2), F(8, 3), F(65, 6))
    tri = footprints.footprint_triangle(footprints.FootprintRow(353, 4, 1, "T0a"))
    assert tri == RatTriangle(F(5295, 136), F(272, 15), F(87617, 2040))


def test_rejects_unknown_class():
    with pytest.raises(ValueError):
        footprints.FootprintRow(6, 2, 1, "TX")


def test_verify_tables_fails_a_row_with_the_wrong_area(monkeypatch):
    real = footprints.footprint_triangle

    def doubled_legs_for_14(row):
        tri = real(row)
        return tri.scaled(F(1, 2)) if row.n == 14 else tri

    monkeypatch.setattr(footprints, "footprint_triangle", doubled_legs_for_14)
    bad = [r for r in footprints.verify_tables("III") if not r["ok"]]
    assert [r["row"].n for r in bad] == [14]
    assert bad[0]["triangle"] is None
    assert bad[0]["error"] == "triangle area 56 is not N = 14"
