"""A recurrence on right triangles generating congruent-number trees.

Write a leg of a rational right triangle of area N as p/q in lowest terms.
The other leg is 2Nq/p and the hypotenuse is r/(pq) with r^2 = p^4 + 4N^2 q^4,
so r = |c| p q is an integer read off the triangle without a square root.
The step to (pr/(q^2 N), 2q^2 N/p, (p^4 + 2N^2 q^4)/(p q^2 N)) gives a new
right triangle whose area r is a new congruent number.  Because either leg
may seed (p, q), iterating traces out a binary tree; a walk is named by the
string of side choices ('a' or 'b').  Closed forms for three short walks
started from a Euclid triple are verified against the iteration.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache

from .exact import printable_checker
from .triples import RatTriangle, euclid

__all__ = [
    "euclid_root",
    "walk",
    "closed_form",
    "walk_from",
    "tree_report",
]


def euclid_root(m, n):
    """The Euclid triangle (m^2 - n^2, 2mn, m^2 + n^2) and its area N."""
    t = euclid(m, n)
    # right: tests/test_identities.py::test_euclid_and_fermat_triples_are_pythagorean
    return RatTriangle._proved(Fraction(t.a), Fraction(t.b), Fraction(t.c)), t.a * t.b // 2


def walk(tri0, n0, path):
    """Iterate the recurrence along a side-choice string.

    n0 must be the positive integer area of tri0.  Returns the list of
    (N, triangle) pairs after each step; the start pair is not included.
    Deterministic: same start and path always produce the same output.
    Raises OutputTooLarge at the first step past the int-to-str digit limit;
    sizes roughly double each step.
    """
    if not path or set(path) - {"a", "b"}:
        raise ValueError("path must be a nonempty string over {a, b}")
    area = tri0.area
    if not (n0 > 0 and area == n0 and area.denominator == 1):
        raise ValueError("n0 must be the positive integer area of the start triangle")
    # the area is positive, so both legs share the sign of a
    if tri0.a < 0:
        raise ValueError("the start triangle's legs must be positive")
    out = []
    check = printable_checker()
    tri, n = tri0, int(n0)
    for side in path:
        leg = tri.a if side == "a" else tri.b
        p, q = leg.numerator, leg.denominator
        # |c| = r/(pq) and the next triangle is right, of area r:
        # tests/test_identities.py::test_recurrence_step
        r = abs(tri.c.numerator) * p * q // tri.c.denominator
        qqn = q * q * n
        tri = RatTriangle._proved(
            Fraction(p * r, qqn), Fraction(2 * qqn, p), Fraction(p**4 + 2 * qqn**2, p * qqn)
        )
        n = r
        check(n, tri.a, tri.b, tri.c)
        out.append((n, tri))
    return out


def closed_form(m, n, path):
    """The printed closed-form triangle at the end of a walk from euclid_root(m, n).

    path is 'a'*i, 'b' or 'ba'; the source tree heads these a^i, ab and bb.
    """
    if not (m > n > 0):
        raise ValueError("need m > n > 0")
    i = len(path)
    if i and path == "a" * i:
        e = 2 ** (i + 1)
        d = (m * n) ** (2 ** (i - 1))
        sides = m**e - n**e, 2 * d * d, m**e + n**e
    elif path == "b":
        d = m**2 - n**2
        sides = 4 * m * n * (m**2 + n**2), d * d, m**4 + 6 * m**2 * n**2 + n**4
    elif path == "ba":
        d = (m**2 - n**2) ** 2
        sides = (
            8 * m * n * (m**6 + 7 * m**4 * n**2 + 7 * m**2 * n**4 + n**6),
            d * d,
            m**8 + 28 * m**6 * n**2 + 70 * m**4 * n**4 + 28 * m**2 * n**6 + n**8,
        )
    else:
        raise ValueError(f"no closed form for path {path!r}")
    # right: tests/test_identities.py::test_recurrence_closed_forms_are_right
    return RatTriangle._proved(*(Fraction(side, d) for side in sides))


# the reference tree's four root triangles, keyed by their area
_ROOTS = {
    6: ("3", "4", "5"),
    34: ("15/2", "136/15", "353/30"),
    41: ("40/3", "123/20", "881/60"),
    7: ("24/5", "35/12", "337/60"),
}

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


@cache
def _tree_table():
    """The roots as triangles and the other cells as Fraction sides, parsed once."""
    roots = {n0: RatTriangle(*sides) for n0, sides in _ROOTS.items()}
    cells = {key: tuple(map(Fraction, sides)) for key, sides in _TABLE_TRIANGLES.items()}
    return roots, cells


class Walk(namedtuple("Walk", "start steps")):
    """The start and each step of a walk, as {"n": N, "triangle": its triangle}."""

    __slots__ = ()

    def checks(self):
        # each printed N must be the area of its printed triangle
        right = all(step["triangle"].is_right_of_area(step["n"]) for step in (self.start, *self.steps))
        return [("every step is a valid right triangle", right)]


def walk_from(start_m, start_n, path):
    """The Walk along path from euclid_root(start_m, start_n)."""
    tri0, n0 = euclid_root(start_m, start_n)
    return Walk({"n": n0, "triangle": tri0}, [{"n": n, "triangle": tri} for n, tri in walk(tri0, n0, path)])


class TreeReport(namedtuple("TreeReport", "cells failed")):
    """How many cells of the reference tree tree_report recomputed, and how many failed."""

    __slots__ = ()

    def checks(self):
        return [("all table cells reproduce", not self.failed)]


def tree_report():
    """Recompute every cell of the reference tree: the TreeReport of its 28 cells.

    A root cell checks that its triangle has area N.  Every other cell walks
    from its root and checks the congruent number, which is the area of the
    printed triangle, the legs as an unordered pair (the table swaps legs
    when re-rooting) and the hypotenuse.  The walks "aa", "ab", "ba" and
    "bb" reach every cell; a one-step cell is read off the walk "aa" or "ba".
    """
    roots, cells = _tree_table()
    oks = []
    for n0, tri0 in roots.items():
        oks.append(tri0.area == n0)
        aa, ab, ba, bb = (walk(tri0, n0, path) for path in ("aa", "ab", "ba", "bb"))
        steps = {"a": aa[0], "aa": aa[1], "ab": ab[1], "b": ba[0], "ba": ba[1], "bb": bb[1]}
        for path, (n, tri) in steps.items():
            a, b, c = cells[n0, path]
            oks.append(n == a * b / 2 and {tri.a, tri.b} == {a, b} and tri.c == c)
    return TreeReport(len(oks), oks.count(False))
