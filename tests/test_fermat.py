from fractions import Fraction
from math import isqrt

import pytest

from congruent import fermat

F = Fraction


def test_root_node():
    root = fermat.node_from_fraction(F(1))
    assert (root.a, root.b, root.c) == (1, 0, 1)
    assert root.kind == "root"


def test_node_from_fraction_validates_parity():
    with pytest.raises(ValueError):
        fermat.node_from_fraction(F(2, 3))


def test_off_tree_fraction_rejected():
    # (13/7) gives the Pythagorean (91, -60, 109), but 91-60 is not square
    with pytest.raises(ValueError):
        fermat.node_from_fraction(F(13, 7))


def test_children_of_root():
    root = fermat.node_from_fraction(F(1))
    kids = fermat.children(root)
    assert len(kids) == 1  # the root's other branch reproduces itself
    child = fermat.node_from_fraction(kids[0])
    assert (child.a, child.b, child.c) == (-119, 120, 169)
    assert child.kind == "diff"


def test_tree_depth_two_contains_table_entries():
    tree = fermat.enumerate_tree(2)
    triples = {(n.a, n.b, n.c) for n in tree.nodes}
    assert (-119, 120, 169) in triples
    assert (2276953, -473304, 2325625) in triples
    assert (4565486027761, 1061652293520, 4687298610289) in triples


def test_smallest_sum_witnesses():
    tree = fermat.enumerate_tree(2, find_smallest=True)
    small = tree.smallest
    assert (small.a, small.b, small.c) == (4565486027761, 1061652293520, 4687298610289)
    assert small.sum_root == 2372159
    assert small.hyp_root == 2165017
    assert small.a + small.b == small.sum_root**2
    assert small.c == small.hyp_root**2
    assert tree.smallest_holds()
    assert fermat.enumerate_tree(2).smallest is None


def test_nodes_hold_their_depth_kind_and_digits():
    tree = fermat.enumerate_tree(3)
    assert [n.depth for n in tree.nodes] == sorted(n.depth for n in tree.nodes)
    for node in tree.nodes:
        assert node.digits == len(str(node.c))
        assert node == fermat.node_from_fraction(node.x, node.depth)


def _solution(node):
    """The SumSolution of a node's sides and roots."""
    return fermat.SumSolution(node.a, node.b, node.c, isqrt(node.a + node.b), isqrt(node.c))


def _other_sum_node(tree):
    """A sum node that is not the one with the least c."""
    least = min((n for n in tree.nodes if n.kind == "sum"), key=lambda n: n.c)
    return next(n for n in tree.nodes if n.kind == "sum" and n != least)


@pytest.mark.parametrize(
    "wrong",
    [
        # the root, which is not a sum node and has the least c of all
        lambda tree: _solution(tree.nodes[0]),
        lambda tree: _solution(_other_sum_node(tree)),
        # the right sides with one root off by one
        lambda tree: tree.smallest._replace(sum_root=tree.smallest.sum_root + 1),
        lambda tree: tree.smallest._replace(hyp_root=tree.smallest.hyp_root + 1),
        lambda tree: None,
    ],
)
def test_smallest_check_reads_the_printed_sides_and_roots(wrong):
    tree = fermat.enumerate_tree(3, find_smallest=True)
    assert tree.smallest_holds()
    assert not tree._replace(smallest=wrong(tree)).smallest_holds()


def test_tree_growth_and_invariants():
    tree = fermat.enumerate_tree(3)
    for node in tree.nodes:
        assert node.a**2 + node.b**2 == node.c**2
        assert node.depth <= 3
    kinds = {n.kind for n in tree.nodes}
    assert kinds == {"root", "sum", "diff"}


def test_negative_depth_rejected():
    with pytest.raises(ValueError):
        fermat.enumerate_tree(-1)


def test_radical_closed_form_matches_isqrt():
    # children() takes sqrt(8m^4 + n^4) = 2(a+b)^2 + (a-b)^2 in closed form
    for node in fermat.enumerate_tree(5).nodes:
        n = node.a - node.b
        m = isqrt(node.a + node.b) * isqrt(node.c)
        radical = 8 * m**4 + n**4
        root = isqrt(radical)
        assert root * root == radical
        assert root == 3 * node.a**2 + 2 * node.a * node.b + 3 * node.b**2
        den = 16 * m**4 + n**4
        kids = [F((2 * m * n) ** 2 + n**4 + s * 4 * m * n * root, den) for s in (1, -1)]
        assert fermat.children(node) == [x for x in kids if x != 1]


def test_invariants_hold_on_the_tree():
    assert fermat.enumerate_tree(3).invariants_hold()
