"""A recurrence on right triangles generating congruent-number trees.

Any rational right triangle of area N with a leg written as p/q in lowest
terms satisfies (a, b, c) = (p/q, 2Nq/p, sqrt(p^4 + 4N^2 q^4)/(pq)); the
map (N, p, q) -> (r, p r, q^2 N) with r = sqrt(p^4 + 4N^2 q^4) produces a
new congruent number r with its own triangle.  Because either leg may
seed (p, q), iterating traces out a binary tree; a walk is named by the
string of side choices ('a' or 'b').  Closed forms for three short walks
started from a Euclid triple are verified against the iteration.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .exact import OutputTooLarge, is_square, printable_bits
from .triples import RatTriangle, euclid

__all__ = [
    "RecState",
    "rec_step",
    "assign",
    "state_triangle",
    "walk",
    "closed_form",
    "closed_form_check",
    "tree_table",
    "verify_tree_table",
]


@dataclass(frozen=True)
class RecState:
    """(N, p, q) with p/q a leg of a right triangle of area N; radical = sqrt(p^4 + 4N^2q^4)."""

    n: int
    p: int
    q: int
    radical: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.q <= 0 or self.p <= 0 or self.n <= 0:
            raise ValueError("state entries must be positive")
        radical = is_square(self.p**4 + 4 * self.n**2 * self.q**4)
        if radical is None:
            raise ValueError("not a right-triangle state")
        object.__setattr__(self, "radical", radical)


def state_triangle(s):
    """The triangle (p/q, 2Nq/p, r/(pq)) encoded by a state."""
    a = Fraction(s.p, s.q)
    b = Fraction(2 * s.n * s.q, s.p)
    c = Fraction(s.radical, s.p * s.q)
    return RatTriangle(a, b, c)


def rec_step(s):
    """One recurrence step (N, p, q) -> (r, p r, q^2 N), reduced.

    The raw output leg (p r)/(q^2 N) is put in lowest terms so the new
    state matches the reduced triples the tree is usually written with;
    the triangle itself is identical either way.
    """
    r = s.radical
    p_raw, q_raw = s.p * r, s.q**2 * s.n
    g = gcd(p_raw, q_raw)
    return RecState(r, p_raw // g, q_raw // g)


def assign(tri, side, n):
    """Seed a state from the chosen leg of a triangle of area n."""
    if side not in ("a", "b"):
        raise ValueError("side must be 'a' or 'b'")
    leg = tri.a if side == "a" else tri.b
    if leg <= 0:
        raise ValueError("chosen side must be positive")
    return RecState(n, leg.numerator, leg.denominator)


def walk(tri0, n0, path):
    """Iterate the recurrence along a side-choice string.

    Returns the list of (N, triangle) pairs after each step; the start
    pair is not included.  Deterministic: same start and path always
    produce the same output.  Raises OutputTooLarge at the first step past
    the int-to-str digit limit; sizes roughly double each step.
    """
    if not path or set(path) - {"a", "b"}:
        raise ValueError("path must be a nonempty string over {a, b}")
    bits = printable_bits(sys.get_int_max_str_digits())
    out = []
    tri, n = tri0, n0
    for side in path:
        s = rec_step(assign(tri, side, n))
        tri, n = state_triangle(s), s.n
        if bits is not None and any(
            max(v.numerator.bit_length(), v.denominator.bit_length()) > bits
            for v in (n, tri.a, tri.b, tri.c)
        ):
            raise OutputTooLarge
        out.append((n, tri))
    return out


def closed_form(m, n, which, i=1):
    """The printed closed-form triangle for a named short walk.

    which is 'a_pow_i' (i repeated 'a' steps), 'ab' or 'bb'.  The labels
    follow the source tree's headings; in walk() terms they correspond to
    the paths 'a'*i, 'b' and 'ba' respectively.
    """
    if not (m > n > 0):
        raise ValueError("need m > n > 0")
    if which == "a_pow_i":
        if i < 1:
            raise ValueError("need i >= 1")
        e = 2 ** (i + 1)
        d = Fraction(m * n) ** (2 ** (i - 1))
        return RatTriangle((m**e - n**e) / d, 2 * d, (m**e + n**e) / d)
    if which == "ab":
        d = Fraction(m**2 - n**2)
        return RatTriangle(
            4 * m * n * (m**2 + n**2) / d, d, (m**4 + 6 * m**2 * n**2 + n**4) / d
        )
    if which == "bb":
        d = Fraction(m**2 - n**2) ** 2
        return RatTriangle(
            8 * m * n * (m**6 + 7 * m**4 * n**2 + 7 * m**2 * n**4 + n**6) / d,
            d,
            (m**8 + 28 * m**6 * n**2 + 70 * m**4 * n**4 + 28 * m**2 * n**6 + n**8) / d,
        )
    raise ValueError(f"unknown closed form {which!r}")


_FORM_PATHS = {"a_pow_i": None, "ab": "b", "bb": "ba"}


def closed_form_check(m, n, which, i=1):
    """Compare a closed form with the corresponding iterated walk.

    Returns a report dict; 'match' is exact equality of the triangles.
    """
    t = euclid(m, n)
    tri0 = RatTriangle(Fraction(t.a), Fraction(t.b), Fraction(t.c))
    n0 = int(tri0.area)
    path = "a" * i if which == "a_pow_i" else _FORM_PATHS[which]
    walked = walk(tri0, n0, path)[-1][1]
    formed = closed_form(m, n, which, i)
    return {
        "m": m,
        "n": n,
        "which": which,
        "i": i if which == "a_pow_i" else None,
        "path": path,
        "walk": walked,
        "closed_form": formed,
        "match": walked == formed,
    }


def tree_table():
    """The reference two-level walk tree from four root triangles.

    Returns a list of (root_n, root_triangle, path, expected_n) covering
    all 28 cells: for each root, paths a, aa, ab, b, ba, bb plus the root
    itself (path '').
    """
    f = Fraction
    roots = [
        (6, RatTriangle(f(3), f(4), f(5))),
        (34, RatTriangle(f(15, 2), f(136, 15), f(353, 30))),
        (41, RatTriangle(f(40, 3), f(123, 20), f(881, 60))),
        (7, RatTriangle(f(24, 5), f(35, 12), f(337, 60))),
    ]
    expected = {
        6: {"a": 15, "aa": 255, "ab": 34, "b": 20, "ba": 1640, "bb": 41},
        34: {
            "a": 353,
            "aa": 30928801,
            "ab": 175234,
            "b": 24004,
            "ba": 9534052744,
            "bb": 198593,
        },
        41: {
            "a": 1762,
            "aa": 4990551364,
            "ab": 1416161,
            "b": 36121,
            "ba": 16476991481,
            "bb": 912322,
        },
        7: {
            "a": 674,
            "aa": 264899524,
            "ab": 196513,
            "b": 2359,
            "ba": 170076823,
            "bb": 144194,
        },
    }
    cells = []
    for n0, tri in roots:
        cells.append((n0, tri, "", n0))
        for path, nexp in expected[n0].items():
            cells.append((n0, tri, path, nexp))
    return cells


# the printed triangles for every non-root cell, keyed by (root_n, path)
_TABLE_TRIANGLES = {
    (6, "a"): ("15/2", "4", "17/2"),
    (6, "aa"): ("255/4", "8", "257/4"),
    (6, "ab"): ("136/15", "15/2", "353/30"),
    (6, "b"): ("40/3", "3", "41/3"),
    (6, "ba"): ("3280/9", "9", "3281/9"),
    (6, "bb"): ("123/20", "40/3", "881/60"),
    (34, "a"): ("5295/136", "272/15", "87617/2040"),
    (34, "aa"): ("463932015/18496", "36992/15", "6992534657/277440"),
    (34, "ab"): ("47663648/79425", "79425/136", "9045146753/10801800"),
    (34, "b"): ("96016/225", "225/2", "198593/450"),
    (34, "ba"): ("38136210976/50625", "50625/2", "76315468673/101250"),
    (34, "bb"): ("44683425/96016", "192032/225", "21001035137/21603600"),
    (41, "a"): ("70480/369", "369/20", "1416161/7380"),
    (41, "aa"): ("199622054560/136161", "136161/20", "3992484137921/2723220"),
    (41, "ab"): ("522563409/704800", "1409600/369", "1012025897921/260071200"),
    (41, "b"): ("108363/400", "800/3", "456161/1200"),
    (41, "ba"): ("49430974443/160000", "320000/3", "156882857921/480000"),
    (41, "bb"): ("729857600/325089", "325089/400", "310482857921/130035600"),
    (7, "a"): ("16176/175", "175/12", "196513/2100"),
    (7, "aa"): ("6357588576/30625", "30625/12", "76296827713/367500"),
    (7, "ab"): ("34389775/97056", "194112/175", "19777624897/16984800"),
    (7, "b"): ("11795/144", "288/5", "72097/720"),
    (7, "ba"): ("850384115/20736", "41472/5", "4338014017/103680"),
    (7, "bb"): ("41527872/58975", "58975/144", "6917904193/8492400"),
}


def verify_tree_table():
    """Recompute every cell of the reference tree; per-cell reports.

    Each non-root cell checks both the congruent number and, where the
    table prints it, the exact triangle.  Triangle sides are compared as
    unordered leg pairs (the table swaps legs when re-rooting).
    """
    reports = []
    for n0, tri0, path, nexp in tree_table():
        if not path:
            ok = tri0.area == n0
            reports.append({"root": n0, "path": path, "n": n0, "ok": ok})
            continue
        ncomp, tricomp = walk(tri0, n0, path)[-1]
        ok = ncomp == nexp
        expected = _TABLE_TRIANGLES.get((n0, path))
        if expected is not None:
            want = tuple(Fraction(s) for s in expected)
            got = (tricomp.a, tricomp.b, tricomp.c)
            ok = ok and {got[0], got[1]} == {want[0], want[1]} and got[2] == want[2]
        reports.append(
            {"root": n0, "path": path, "n": ncomp, "triangle": tricomp, "ok": ok}
        )
    return reports
