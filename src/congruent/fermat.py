"""Pythagorean triples with square hypotenuse and square leg sum.

Fermat asked for the smallest right triangle whose hypotenuse and sum of
legs are both perfect squares.  Writing a solution as a fraction x = p/q
(p, q odd and coprime) with triple (pq, -(p^2-q^2)/2, (p^2+q^2)/2), each
solution yields up to two child fractions through an explicit quadratic
construction, so the solutions form an infinite binary tree rooted at
x = 1 (the trivial 1^2 + 0^2 = 1^2).  Nodes where both legs are positive
are genuine sum-of-legs solutions; nodes with a negative leg solve the
difference variant.  Enumerating the tree locates Fermat's 13-digit
solution and its 45-digit successor.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .exact import EffortOutOfRange, is_square

__all__ = [
    "FermatNode",
    "FermatTree",
    "node_from_fraction",
    "children",
    "enumerate_tree",
]

# the largest hypotenuse has 14,164 bits (4,264 digits) at depth 6 and
# 57,104 bits at depth 7, past the 4300-digit int-to-str limit
MAX_DEPTH = 6


class FermatNode(namedtuple("FermatNode", "x a b c sum_root hyp_root")):
    """One solution: the defining fraction, its signed integer triple and
    the square roots of a + b and c, which FermatNode(x, a, b, c) computes."""

    __slots__ = ()

    def __new__(cls, x, a, b, c):
        sum_root, hyp_root = is_square(a + b), is_square(c)
        if sum_root is None or hyp_root is None:
            raise ValueError("node violates the square invariants")
        return tuple.__new__(cls, (x, a, b, c, sum_root, hyp_root))

    @property
    def kind(self):
        """'sum' for all-positive legs, 'root' for the trivial node,
        'diff' when one leg is negative (|a|+|b| sums to a non-square)."""
        if self.b == 0:
            return "root"
        return "sum" if self.a > 0 and self.b > 0 else "diff"


def _digits(c):
    """The decimal digits of an int c > 0, counted by powers of ten, not by converting c to text."""
    # 10**(k - 1) <= 2**(bits - 1) <= c, as 30102/100000 < log10(2)
    k = (c.bit_length() - 1) * 30102 // 100000 + 1
    while 10**k <= c:
        k += 1
    return k


class FermatTree(namedtuple("FermatTree", "depth nodes find_smallest", defaults=(False,))):
    """Nodes in discovery order, as (depth found at, FermatNode), to a depth;
    with find_smallest, its checks() and printed form add the smallest sum node."""

    __slots__ = ()

    def checks(self):
        checks = [(f"{len(self.nodes)} nodes pass square invariants", self.invariants_hold())]
        if self.find_smallest:
            checks.append(("smallest sum-type solution found", self.smallest_sum() is not None))
        return checks

    def _asdict(self):
        """The tree as printed: each node with its depth, kind and the digits of c,
        then, with find_smallest, the smallest sum node's sides and roots if there is one."""
        nodes = [
            {"depth": d, "x": n.x, "a": n.a, "b": n.b, "c": n.c, "kind": n.kind, "digits": _digits(n.c)}
            for d, n in self.nodes
        ]
        printed = {"nodes": nodes}
        small = self.smallest_sum() if self.find_smallest else None
        if small is not None:
            printed["smallest"] = {f: getattr(small, f) for f in ("a", "b", "c", "sum_root", "hyp_root")}
        return printed

    def smallest_sum(self):
        """The nontrivial all-positive node with the smallest hypotenuse."""
        candidates = [n for _, n in self.nodes if n.kind == "sum"]
        if not candidates:
            return None
        return min(candidates, key=lambda n: n.c)

    def invariants_hold(self):
        """Whether every node has a = pq, 2b = q^2 - p^2 and 2c = p^2 + q^2 for its
        x = p/q, a + b = sum_root^2 and c = hyp_root^2.

        The triple of x is Pythagorean:
        tests/test_identities.py::test_euclid_and_fermat_triples_are_pythagorean
        """
        for _, n in self.nodes:
            p, q = n.x.numerator, n.x.denominator
            if (n.a, 2 * n.b, 2 * n.c) != (p * q, q * q - p * p, p * p + q * q):
                return False
            if n.a + n.b != n.sum_root**2 or n.c != n.hyp_root**2:
                return False
        return True


def node_from_fraction(x):
    """Build and validate the node for a fraction p/q with p, q odd."""
    x = Fraction(x)
    p, q = x.numerator, x.denominator
    if p % 2 == 0 or q % 2 == 0:
        raise ValueError("p and q must both be odd")
    a = p * q
    b = -(p**2 - q**2) // 2
    c = (p**2 + q**2) // 2
    # a^2 + b^2 = c^2: tests/test_identities.py::test_euclid_and_fermat_triples_are_pythagorean
    return FermatNode(x, a, b, c)


def children(node):
    """The 0-2 child fractions of a node.

    With n = a - b and m = sqrt(a+b) sqrt(c) (integers by the node
    invariants), the children are ((2mn)^2 + n^4 ± 4mn·sqrt(8m^4+n^4))
    over (16m^4 + n^4); the value 1 (the root) is excluded.  The radical
    is always a square: with u = a + b, v = a - b = n and
    c^2 = a^2 + b^2 = (u^2 + v^2)/2, m^4 = u^2 c^2 and
    8m^4 + n^4 = 4u^2 (u^2 + v^2) + v^4 = (2u^2 + v^2)^2,
    whose positive root is 2u^2 + v^2 = 3a^2 + 2ab + 3b^2.
    """
    n = node.a - node.b
    m = node.sum_root * node.hyp_root
    d = 2 * (node.a + node.b) ** 2 + n**2
    den = 16 * m**4 + n**4
    out = []
    for sign in (1, -1):
        num = (2 * m * n) ** 2 + n**4 + sign * 4 * m * n * d
        x = Fraction(num, den)
        if x != 1:
            out.append(x)
    return out


def enumerate_tree(depth, find_smallest=False):
    """Breadth-first expansion of the solution tree to a given depth.

    Fractions are deduplicated; each node is validated on construction.
    Node count doubles per level and the integers roughly quadruple in
    length, so depth is bounded by MAX_DEPTH.
    """
    if not 1 <= depth <= MAX_DEPTH:
        raise EffortOutOfRange("depth", 1, MAX_DEPTH, depth)
    root = node_from_fraction(Fraction(1))
    seen = {root.x}
    nodes = [(0, root)]
    frontier = [root]
    for level in range(1, depth + 1):
        nxt = []
        for node in frontier:
            for x in children(node):
                if x in seen:
                    continue
                seen.add(x)
                child = node_from_fraction(x)
                nodes.append((level, child))
                nxt.append(child)
        frontier = nxt
    return FermatTree(depth, tuple(nodes), find_smallest)
