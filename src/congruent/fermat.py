"""Pythagorean triples with square hypotenuse and square leg sum.

Fermat asked for the smallest right triangle whose hypotenuse and sum of
legs are both perfect squares.  Writing a solution as a fraction x = p/q
(p, q odd and coprime) with triple (pq, -(p^2-q^2)/2, (p^2+q^2)/2), each
solution yields up to two child fractions through an explicit quadratic
construction, so the solutions form an infinite binary tree rooted at
x = 1 (the trivial 1^2 + 0^2 = 1^2).  Nodes where both legs are positive
are genuine sum-of-legs solutions; nodes with a negative leg solve the
difference variant.  Enumerating the tree locates Fermat's 13-digit
solution and its 45-digit successor.  enumerate_tree returns a FermatTree
that holds what it prints: its FermatNodes and, with find_smallest, the
SumSolution of the smallest sum node.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .exact import EffortOutOfRange, is_square

__all__ = [
    "FermatNode",
    "SumSolution",
    "FermatTree",
    "node_from_fraction",
    "children",
    "enumerate_tree",
]

# the largest hypotenuse has 14,164 bits (4,264 digits) at depth 6 and
# 57,104 bits at depth 7, past the 4300-digit int-to-str limit
MAX_DEPTH = 6


def _digits(c):
    """The decimal digits of an int c > 0, counted by powers of ten, not by converting c to text."""
    # 10**(k - 1) <= 2**(bits - 1) <= c, as 30102/100000 < log10(2)
    k = (c.bit_length() - 1) * 30102 // 100000 + 1
    while 10**k <= c:
        k += 1
    return k


class FermatNode(namedtuple("FermatNode", "depth x a b c kind digits")):
    """One solution: the depth it is found at, its defining fraction, its signed
    integer triple, its kind and the decimal digits of c, which
    FermatNode(depth, x, a, b, c) computes once a + b and c are squares.  The
    kind is 'sum' for all-positive legs, 'root' for the trivial node, 'diff'
    when one leg is negative (|a|+|b| sums to a non-square)."""

    __slots__ = ()

    def __new__(cls, depth, x, a, b, c):
        if is_square(a + b) is None or is_square(c) is None:
            raise ValueError("node violates the square invariants")
        kind = "root" if b == 0 else "sum" if a > 0 and b > 0 else "diff"
        return tuple.__new__(cls, (depth, x, a, b, c, kind, _digits(c)))


# The sides of a sum node and the square roots of a + b and c
SumSolution = namedtuple("SumSolution", "a b c sum_root hyp_root")


class FermatTree(namedtuple("FermatTree", "depth nodes find_smallest smallest", defaults=(False, None))):
    """The FermatNodes in discovery order to a depth; with find_smallest,
    smallest is the SumSolution of the sum node with the least c, if there is one."""

    __slots__ = ()

    def checks(self):
        checks = [(f"{len(self.nodes)} nodes pass square invariants", self.invariants_hold())]
        if self.find_smallest:
            checks.append(("smallest sum-type solution found", self.smallest_holds()))
        return checks

    def smallest_holds(self):
        """Whether smallest gives the sides of the sum node with the least c,
        and a + b = sum_root^2 and c = hyp_root^2."""
        s = self.smallest
        sums = [(n.c, n.a, n.b) for n in self.nodes if n.kind == "sum"]
        if s is None or not sums:
            return False
        c, a, b = min(sums)
        return (s.a, s.b, s.c) == (a, b, c) and s.a + s.b == s.sum_root**2 and s.c == s.hyp_root**2

    def invariants_hold(self):
        """Whether every node has a = pq, 2b = q^2 - p^2 and 2c = p^2 + q^2 for its
        x = p/q, and a + b and c are squares.

        The triple of x is Pythagorean:
        tests/test_identities.py::test_euclid_and_fermat_triples_are_pythagorean
        """
        for n in self.nodes:
            p, q = n.x.numerator, n.x.denominator
            if (n.a, 2 * n.b, 2 * n.c) != (p * q, q * q - p * p, p * p + q * q):
                return False
            if is_square(n.a + n.b) is None or is_square(n.c) is None:
                return False
        return True


def node_from_fraction(x, depth=0):
    """Build and validate the node found at a depth for a fraction p/q with p, q odd."""
    x = Fraction(x)
    p, q = x.numerator, x.denominator
    if p % 2 == 0 or q % 2 == 0:
        raise ValueError("p and q must both be odd")
    a = p * q
    b = -(p**2 - q**2) // 2
    c = (p**2 + q**2) // 2
    # a^2 + b^2 = c^2: tests/test_identities.py::test_euclid_and_fermat_triples_are_pythagorean
    return FermatNode(depth, x, a, b, c)


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
    m = is_square(node.a + node.b) * is_square(node.c)
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
    nodes = [root]
    frontier = [root]
    for level in range(1, depth + 1):
        nxt = []
        for node in frontier:
            for x in children(node):
                if x in seen:
                    continue
                seen.add(x)
                child = node_from_fraction(x, level)
                nodes.append(child)
                nxt.append(child)
        frontier = nxt
    smallest = None
    sums = [n for n in nodes if n.kind == "sum"]
    if find_smallest and sums:
        s = min(sums, key=lambda n: n.c)
        smallest = SumSolution(s.a, s.b, s.c, is_square(s.a + s.b), is_square(s.c))
    return FermatTree(depth, tuple(nodes), find_smallest, smallest)
