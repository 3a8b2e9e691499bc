"""Footprint equations: (m, n) witnesses for prime-related congruent numbers.

For N prime (or twice a prime) a pair of integers (m, n) pins down a
rational right triangle (p/q, 2Nq/p, sqrt(p^4+4N^2q^4)/(pq)) of area N
through one of five closed-form families selected by the congruence
class of N mod 8.  The p and q values may individually be irrational
(multiples of sqrt(N) or sqrt(2)); the module works entirely with p^2
and q^2 so the triangle sides emerge from exact integer square roots.
A table of solutions for every qualifying N below 1000 ships with the
package and is verified row by row.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache
from importlib import resources
from math import gcd

from . import FOOTPRINT_CLASSES as CLASSES
from .exact import is_probable_prime, is_square
from .triples import RatTriangle

__all__ = [
    "FootprintRow",
    "CLASSES",
    "classify",
    "footprint_pq",
    "footprint_triangle",
    "load_rows",
    "verify_tables",
    "row_triangle",
    "tables_report",
]


# k is the table's second solution column (named n there)
class FootprintRow(namedtuple("FootprintRow", "n m k cls")):
    __slots__ = ()

    def __new__(_cls, n, m, k, cls):
        if cls not in CLASSES:
            raise ValueError(f"unknown footprint class {cls!r}")
        return tuple.__new__(_cls, (n, m, k, cls))


def classify(n):
    """The footprint family of N: 'T0', 'TI', 'TII', 'TIII' or 'TIV'.

    N must be a prime congruent to 1, 5 or 7 mod 8, or twice a prime
    congruent to 7 or 3 mod 8.  The 'T0' family splits into T0a/T0b per
    row, depending on whether N = m^4 + 6m^2n^2 + n^4 for that row.
    """
    if n >= 2 and is_probable_prime(n):
        r = n % 8
        if r == 1:
            return "T0"
        if r == 5:
            return "TI"
        if r == 7:
            return "TII"
        raise ValueError(f"prime {n} = 3 mod 8 is not congruent")
    if n % 2 == 0 and is_probable_prime(n // 2):
        r = (n // 2) % 8
        if r == 7:
            return "TIII"
        if r == 3:
            return "TIV"
        raise ValueError(f"{n} = 2p with p = {r} mod 8 is outside the families")
    raise ValueError(f"{n} is neither prime nor twice a prime")


def footprint_pq(row):
    """(p^2, q^2) for a table row, by its class formula; p and q themselves may be irrational."""
    n, m, k = row.n, row.m, row.k
    if row.cls == "T0a":
        if n != m**4 + 6 * m**2 * k**2 + k**4:
            raise ValueError("T0a requires N = m^4 + 6 m^2 n^2 + n^4")
        return Fraction((n * (m**2 - k**2)) ** 2), Fraction((2 * m * k * (m**2 + k**2)) ** 2)
    if row.cls == "T0b":
        p_sq = Fraction((m**2 + k**2) ** 2 * n * ((2 * m * k) ** 2 - (m**2 - k**2) ** 2), 16)
        return p_sq, Fraction((m * k * (m**2 - k**2)) ** 2, 4)
    if row.cls == "TI":
        p_sq = Fraction(16 * (m**2 * k**2 * n) ** 2 - (m**2 * n - k**2) ** 4, 16)
        return p_sq, Fraction((m * k * (m**2 * n - k**2)) ** 2, 4)
    if row.cls == "TII":
        p_sq = Fraction((m**2 + k**2) ** 2 * n * ((2 * m * k) ** 2 - (m**2 - k**2) ** 2))
        return p_sq, Fraction((2 * m * k * (m**2 - k**2)) ** 2)
    if row.cls == "TIII":
        p_sq = Fraction((m**2 + 2 * k**2) ** 2 * n * (8 * m**2 * k**2 - (m**2 - 2 * k**2) ** 2))
        return p_sq, Fraction(8 * m**2 * k**2 * (m**2 - 2 * k**2) ** 2)
    # TIV
    p2 = (m**2 - k**2 - 2 * m * k) ** 2 * n * ((m - k) ** 2 + 2 * m**2) * ((m + k) ** 2 + 2 * k**2)
    return Fraction(p2, 2), Fraction(((m**2 - k**2 + 2 * m * k) * (m**2 + k**2)) ** 2)


def footprint_triangle(row, p_sq, q_sq):
    """The positive rational right triangle (x/y, 2|N|y/x, r/(xy)) of area N for a table row,
    with p^2/q^2 = x^2/y^2 in lowest terms and r^2 = x^4 + 4N^2 y^4 = (cxy)^2.

    (p_sq, q_sq) is the row's footprint_pq(row).
    """
    num = p_sq.numerator * q_sq.denominator
    den = p_sq.denominator * q_sq.numerator
    if num <= 0 or den <= 0:
        raise ValueError("row yields a nonpositive p^2 or q^2")
    g = gcd(num, den)
    x, y = is_square(num // g), is_square(den // g)
    if x is None or y is None:
        raise ValueError("row does not rationalize: a side square is not a square")
    r = is_square(x**4 + 4 * row.n**2 * y**4)
    if r is None:
        raise ValueError("a and b are not the legs of a rational right triangle")
    return RatTriangle._proved(Fraction(x, y), Fraction(2 * abs(row.n) * y, x), Fraction(r, x * y))


@cache
def _table_rows():
    """Every row of the shipped table, read and validated once."""
    text = resources.files("congruent.data").joinpath("footprint_tables.txt").read_text()
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        n_s, m_s, k_s, cls = line.split()
        rows.append(FootprintRow(int(n_s), int(m_s), int(k_s), cls))
    return tuple(rows)


def load_rows(table=None):
    """All shipped table rows, optionally filtered by family.

    table may be '0' (both T0 subclasses), 'I', 'II', 'III', 'IV', or a
    full class name like 'T0a'.
    """
    rows = list(_table_rows())
    if table is not None:
        if table == "0":
            wanted = {"T0a", "T0b"}
        elif table in ("I", "II", "III", "IV"):
            wanted = {"T" + table}
        elif table in CLASSES:
            wanted = {table}
        else:
            raise ValueError(f"unknown table {table!r}")
        rows = [r for r in rows if r.cls in wanted]
    return rows


def verify_tables(table=None):
    """Reconstruct every row's triangle; returns per-row reports.

    Each report carries the row, a validity flag and either the triangle
    or the failure reason; a row fails when its class disagrees with
    classify() or footprint_triangle() rejects it.  A built triangle has
    area |N| = N, since classify() admits only N >= 2.
    """
    reports = []
    for row in load_rows(table):
        report = {"row": row, "ok": True, "triangle": None, "error": None}
        try:
            family = classify(row.n)
            expected = {"T0": {"T0a", "T0b"}}.get(family, {family})
            if row.cls not in expected:
                raise ValueError(
                    f"row class {row.cls} inconsistent with N = {row.n} ({family})"
                )
            # area N: tests/test_footprints.py::test_integer_triangle_matches_the_from_legs_oracle
            report["triangle"] = footprint_triangle(row, *footprint_pq(row))
        except ValueError as exc:
            report["ok"] = False
            report["error"] = str(exc)
        reports.append(report)
    return reports


class RowTriangle(namedtuple("RowTriangle", "p_sq q_sq triangle n")):
    """A table row's squared (p, q) and its triangle of area N."""

    __slots__ = ()

    def checks(self):
        return [("area = N", self.triangle.is_right_of_area(self.n))]


def row_triangle(n, m, k, cls):
    """The RowTriangle of the table row (n, m, k, cls)."""
    row = FootprintRow(n, m, k, cls)
    pq = footprint_pq(row)
    return RowTriangle(*pq, footprint_triangle(row, *pq), n)


class TablesReport(namedtuple("TablesReport", "rows failed failures", defaults=(None,))):
    """How many rows verify_tables rebuilt and how many failed, with each failure if any."""

    __slots__ = ()

    def checks(self):
        return [(f"all {self.rows} rows rebuild their triangle", not self.failed)]


def tables_report(table=None):
    """The TablesReport of verify_tables(table); a failure is its row's text and error."""
    reports = verify_tables(table)
    failures = [{"row": str(r["row"]), "error": r["error"]} for r in reports if not r["ok"]]
    return TablesReport(len(reports), len(failures), failures or None)
