"""Mutations that each check name of the conic and Euclid families must see.

The gate's checks of the line-ellipse intersection, the twin hyperbolas and
the (2, 1) derived triples read the values their suites compute, so a wrong
value from the producer fails its check by name.  The CLI and the gate read
the same relations (conics.ellipse, conics.lattice_relation, Curve.contains,
triples.area_relation and triples.distance_relation), so a wrong relation
fails both.
"""

import json
from fractions import Fraction

import pytest

from congruent import cli, conics, triples, verify
from congruent.elliptic import Curve, Point
from congruent.triples import RatTriangle


def _nth(i, change):
    """A mutation of a returned tuple or record that changes its i-th value only."""
    return lambda result: getattr(result, "_make", tuple)(
        change(v) if j == i else v for j, v in enumerate(result)
    )


def _double_legs(tri):
    # a similar triangle: still right, four times the area
    return tri.scaled(Fraction(1, 2))


def _double_a(tri):
    # twice the area, so another square class; no longer right
    return RatTriangle._proved(2 * tri.a, tri.b, tri.c)


def _first_side_plus_one(pair):
    # the AC triangle's a: d_1 = c_1 - a_1 changes, the areas do not
    (a, b, c), *rest = pair.sides
    return pair._replace(sides=((a + 1, b, c), *rest))


# (suite, check, module, producer, mutation of the producer's result)
GATE_MUTATIONS = [
    # N = AB/2 is not one of the concordant areas, so the suite still runs
    ("triples", "area identity holds", triples, "derive",
     lambda p: p._replace(quad=p.quad._replace(n=p.quad.n + 1))),
    ("triples", "distance identity holds", triples, "derive", _first_side_plus_one),
    # the AC triangle as printed, not its integer numerators over D
    ("triples", "distance identity holds", triples, "derived_triples",
     _nth(0, lambda tri: RatTriangle._proved(tri.a + 1, tri.b, tri.c))),
    ("conics-intersect", "pythagoras", conics, "intersect_example",
     _nth(2, lambda tri: RatTriangle._proved(tri.a, tri.b, tri.c + 1))),
    ("conics-intersect", "area = N(t)", conics, "intersect_example", _nth(2, _double_legs)),
    ("conics-intersect", "point on ellipse", conics, "intersect_example",
     _nth(1, lambda xe: (xe[0] + 1, xe[1]))),
    ("conics-intersect", "P1 on curve", conics, "intersect_example",
     _nth(3, lambda p: Point(p.x, p.y + 1))),
    ("conics-intersect", "P2 on curve", conics, "intersect_example",
     _nth(4, lambda p: Point(p.x, p.y + 1))),
    ("conics-twin", "H(x1) decomposition", conics, "twin_hyperbolas", _nth(2, _double_a)),
    ("conics-twin", "H(x2) decomposition", conics, "twin_hyperbolas", _nth(3, _double_a)),
    ("conics-twin", "area1 = N1", conics, "twin_hyperbolas", _nth(0, lambda n1: n1 + 1)),
    ("conics-twin", "area2 = N2", conics, "twin_hyperbolas", _nth(3, _double_legs)),
]  # fmt: skip


def _gate_check(suite, check):
    checks = dict(verify.run_all()[suite])
    assert check in checks, checks  # the suite ran to its end
    return checks[check]


@pytest.mark.parametrize(
    "suite, check, module, producer, change",
    GATE_MUTATIONS,
    ids=[f"{row[1]}-{row[3]}" for row in GATE_MUTATIONS],
)
def test_gate_check_reads_the_value_of_its_producer(monkeypatch, suite, check, module, producer, change):
    assert _gate_check(suite, check)
    real = getattr(module, producer)
    monkeypatch.setattr(module, producer, lambda *args: change(real(*args)))
    assert not _gate_check(suite, check)


def test_every_conic_and_euclid_identity_check_is_mutated():
    # the checks that read only identities in t or in (m, n) before they also
    # read computed values; none of them is left without a mutation
    names = {"area identity holds", "distance identity holds"}
    names |= {name for name, _ in conics.intersect_example(3).checks()}
    names |= {name for name, _ in conics.twin_hyperbolas(10).checks()}
    assert len(names) == 11
    assert names == {row[1] for row in GATE_MUTATIONS}


def _cli_check(capsys, argv, check):
    cli.main(argv + ["--json"])
    checks = {c["name"]: c["pass"] for c in json.loads(capsys.readouterr().out)["checks"]}
    return checks[check]


def _negated(function):
    return lambda *args: not function(*args)


def _plus_one(function):
    return lambda *args: function(*args) + 1


# (owner, relation, mutation, CLI argv and check, gate suite and check)
SHARED_RELATIONS = [
    (conics, "ellipse", _plus_one,
     ["conics", "intersect", "--t", "3"], "point on ellipse",
     "conics-intersect", "point on ellipse"),
    (Curve, "contains", _negated,
     ["conics", "intersect", "--t", "3"], "P1 on curve", "conics-intersect", "P1 on curve"),
    (Curve, "contains", _negated,
     ["conics", "intersect", "--t", "3"], "P2 on curve", "conics-intersect", "P2 on curve"),
    (triples, "area_relation", _negated,
     ["triples", "--m", "2", "--n", "1"], "area identity", "triples", "area identity holds"),
    (triples, "distance_relation", _negated,
     ["triples", "--m", "2", "--n", "1"], "distance identity", "triples", "distance identity holds"),
    (conics, "lattice_relation", _negated,
     ["conics", "lattice", "--m", "1", "--n", "2"], "lattice triangles have area x_i",
     "conics-lattice", "lattice closed forms"),
    (conics, "ellipse", _plus_one,
     ["conics", "lattice", "--m", "1", "--n", "2"], "lattice triangles have area x_i",
     "conics-lattice", "lattice closed forms"),
]  # fmt: skip


@pytest.mark.parametrize(
    "owner, relation, change, argv, cli_check, suite, gate_check",
    SHARED_RELATIONS,
    ids=[f"{row[1]}-{row[4]}" for row in SHARED_RELATIONS],
)
def test_one_relation_fails_the_cli_and_the_gate(
    capsys, monkeypatch, owner, relation, change, argv, cli_check, suite, gate_check
):
    assert _cli_check(capsys, argv, cli_check) and _gate_check(suite, gate_check)
    monkeypatch.setattr(owner, relation, change(getattr(owner, relation)))
    assert not _cli_check(capsys, argv, cli_check)
    assert not _gate_check(suite, gate_check)
