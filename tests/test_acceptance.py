"""End-to-end acceptance gate: every reference example, exactly.

Each test pins one family of published values: worked fixtures, random
property sweeps, symbolic identities, the shipped tables, and finally
the `verify-all` CLI command as the whole-repository gate.
"""

import json
import random
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import outputs
import pytest

from congruent import cli, fermat, footprints, recurrence, sequences, triples, verify
from congruent.elliptic import Curve


F = Fraction


def _all_pass(checks):
    bad = [name for name, ok in checks if not ok]
    assert not bad, f"failed checks: {bad}"


def test_euclid_pair_worked_example():
    # (m, n) = (2, 1): derived triples, area quadruple (6, 34, 41, 7),
    # the identity 34^2 + 41^2 + 7^2 = 6(5^4 - 144) = 2886, connecting
    # EC points at y = 120, concordant solutions and the distance root
    _all_pass(verify.suite_triples())


def test_random_euclid_pairs_hold_all_identities():
    _all_pass(verify.suite_triples_random())


def test_vector_system_identities_to_order_four():
    # full battery: derivative identities for orders <= 4, exact dot/cross
    # ratios 2/3 and 1/3, and the twenty signed circles
    _all_pass(verify.suite_trinity())


def test_smallest_triangle_for_157():
    _all_pass(verify.suite_conics_zagier())


def test_line_ellipse_intersection_family():
    _all_pass(verify.suite_conics_intersect())


def test_lattice_secondary_intersections():
    _all_pass(verify.suite_conics_lattice())


def test_twin_hyperbolas():
    _all_pass(verify.suite_conics_twin())


def test_oval_systems():
    _all_pass(verify.suite_cassini())


def test_tangent_chains():
    _all_pass(verify.suite_tangent())


def test_footprint_tables_and_worked_examples():
    _all_pass(verify.suite_footprints())


def test_worked_footprint_examples_read_the_table_run(monkeypatch):
    # each worked example is the triangle the table run built for its row:
    # a row missing from the run reads False, and a wrong triangle there too
    real = footprints.verify_tables

    def changed():
        reports = [r for r in real() if r["row"].n != 353]
        for r in reports:
            if r["row"].n == 761:
                r["triangle"] = r["triangle"].scaled(2)
        return reports

    monkeypatch.setattr(footprints, "verify_tables", changed)
    checks = dict(verify.suite_footprints())
    assert checks["all 142 table rows"]
    assert not checks["worked example N=353"] and not checks["worked example N=761"]
    assert checks["worked example N=173"] and checks["worked example N=326"]


def test_walk_table_and_closed_forms():
    _all_pass(verify.suite_recurrence())


def test_sequence_families():
    _all_pass(verify.suite_sequences())


def test_square_hypotenuse_tree():
    _all_pass(verify.suite_fermat())


def test_verify_all_cli_exits_zero(capsys):
    # the whole gate, through the command line
    assert cli.main(["verify-all"]) == 0
    out = capsys.readouterr().out
    assert "verify-all" in out


def test_raising_suite_becomes_one_named_failing_check(monkeypatch):
    def broken():
        raise ValueError("boom")

    monkeypatch.setattr(verify, "SUITES", (("broken", broken), ("triples", verify.suite_triples)))
    results = verify.run_all()
    assert results["broken"] == [("broken: ValueError: boom", False)]
    assert results["triples"] == verify.suite_triples()


def _corrupt_one(monkeypatch, module, name, which, corrupt):
    """Make module.name return corrupt(result) when its first argument is `which` only."""
    original = getattr(module, name)

    def patched(*args, **kwargs):
        result = original(*args, **kwargs)
        return corrupt(result) if [*args, *kwargs.values()][0] == which else result

    monkeypatch.setattr(module, name, patched)


def test_fibonacci_family_check_catches_one_wrong_area(monkeypatch):
    def wrong(family):
        return family._replace(congruent_number=family.congruent_number + 1)

    _corrupt_one(monkeypatch, sequences, "fib_odd_family", 4, wrong)
    checks = dict(verify.suite_sequences())
    assert not checks["Fibonacci families, 10 instances"]
    assert checks["Fibonacci/Lucas identity n <= 60"]


def test_fibonacci_family_check_catches_a_triangle_that_is_not_right(monkeypatch):
    # N is built from the same wrong L, so only a^2 + b^2 = c^2 sees it
    def wrong(pair):
        return sequences.FibPair(pair.index, pair.f, pair.l + 1)

    _corrupt_one(monkeypatch, sequences, "fib_lucas", 7, wrong)
    assert not dict(verify.suite_sequences())["Fibonacci families, 10 instances"]


def test_lucas_identity_check_catches_one_wrong_value(monkeypatch):
    # the check reads one run of lucas_pairs, so L_37 + 1 is wrong there only
    real = sequences.lucas_pairs

    def wrong(n):
        for k, (f, l) in enumerate(real(n)):
            yield f, l + (k == 37)

    monkeypatch.setattr(sequences, "lucas_pairs", wrong)
    checks = dict(verify.suite_sequences())
    assert not checks["Fibonacci/Lucas identity n <= 60"]
    assert checks["Fibonacci families, 10 instances"]


def test_brahmagupta_points_check_fails_an_uncertified_q0(monkeypatch):
    monkeypatch.setattr(Curve, "certify_infinite_order", lambda self, p: False)
    checks = dict(verify.run_all()["sequences"])
    assert not checks["Brahmagupta k=3 points"]
    assert [name for name, ok in checks.items() if not ok] == ["Brahmagupta k=3 points"]


def _corrupt_last_node(tree):
    depth, node = tree.nodes[-1]
    fields = ("x", "a", "b", "c", "kind", "sum_root", "hyp_root")
    bad = SimpleNamespace(**{k: getattr(node, k) for k in fields})
    bad.hyp_root += 1
    return tree._replace(nodes=tree.nodes[:-1] + ((depth, bad),))


def test_fermat_node_check_catches_one_wrong_node(monkeypatch):
    _corrupt_one(monkeypatch, fermat, "enumerate_tree", 4, _corrupt_last_node)
    checks = verify.suite_fermat()
    invariants = [ok for name, ok in checks if name.endswith("nodes pass invariants")]
    assert invariants == [False]
    assert all(ok for name, ok in checks if not name.endswith("nodes pass invariants"))


def test_fermat_cli_check_catches_one_wrong_node(monkeypatch, capsys):
    _corrupt_one(monkeypatch, fermat, "enumerate_tree", 4, _corrupt_last_node)
    assert cli.main(["fermat", "--depth", "4", "--json"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks == [{"name": "16 nodes pass square invariants", "pass": False}]


def test_random_pairs_are_the_seeded_euclid_pairs():
    for seed, count, max_m in ((20210525, 200, 80), (79, 20, 40)):
        rng, want = random.Random(seed), []
        while len(want) < count:
            m = rng.randint(2, max_m)
            n = rng.randint(1, m - 1)
            if gcd(m, n) == 1 and (m - n) % 2 == 1:
                want.append((m, n))
        assert list(verify._random_pairs(seed, count, max_m)) == want


def _count_fractions(monkeypatch):
    """A list that grows by one for every Fraction built from now on."""
    built = []

    def counting(make):
        def counted(*args, **kwargs):
            built.append(args)
            return make(*args, **kwargs)

        return counted

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting(Fraction.__new__)))
    if hasattr(Fraction, "_from_coprime_ints"):  # Python >= 3.12 builds results here
        make = Fraction._from_coprime_ints.__func__
        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counting(make)))
    assert Fraction(1, 3) * 3 == 1 and len(built) >= 2
    built.clear()
    return built


def test_random_triples_suite_builds_no_fraction(monkeypatch):
    # each pair's identities are integers over the one D = ABC of triples.derive
    built = _count_fractions(monkeypatch)
    assert verify.suite_triples_random() == [("200 random (m,n) pass all identities", True)]
    assert built == []


def test_gate_builds_a_bounded_number_of_fractions(monkeypatch):
    # a cost guard that needs no timing: one run_all() built 8,467 Fractions
    # before triples-random, footprints, recurrence and sequences ran on
    # shared integers, 5,050 after, 4,750 once the checks that could not
    # fail and the repeated sides and areas were gone, 4,572 after polyrat
    # kept its results in normal form, 4,249 once the reference values and
    # tables were built once per process, not once per call, and 4,092 once
    # each Euclid pair was derived once, the side-vector norms compared in
    # integers and the worked footprints read from the table run (CPython 3.11)
    verify.run_all()  # the walk table is parsed on first use
    built = _count_fractions(monkeypatch)
    results = verify.run_all()
    assert all(ok for checks in results.values() for _, ok in checks)
    assert len(built) <= 4092


@pytest.mark.parametrize(
    "corrupt, check",
    [
        # a wrong first side changes d_1 = c_1 - a_1 only
        (lambda p: p._replace(sides=((p.sides[0][0] + 1, *p.sides[0][1:]), *p.sides[1:])),
         "distance identity"),
        # a wrong area fails its identity before the concordant forms can raise
        (lambda p: p._replace(quad=p.quad._replace(n_ac=p.quad.n_ac + 1)),
         "area identity"),
    ],
)  # fmt: skip
def test_random_triples_suite_names_a_corrupted_pair(monkeypatch, corrupt, check):
    pairs = list(verify._random_pairs(20210525, 200, 80))
    m, n = pairs[57]
    real = triples.derive
    monkeypatch.setattr(
        triples, "derive", lambda *mn: corrupt(real(*mn)) if mn == (m, n) else real(*mn)
    )
    assert verify.suite_triples_random() == [(f"{check} ({m},{n})", False)]


@pytest.mark.parametrize("path", ["aa", "b"])
def test_wrong_closed_form_fails_under_its_first_name(monkeypatch, path):
    # the suite compares every prefix of the "aaa" and "ba" walks in the
    # order a, aa, aaa, b, ba, so a wrong form is named at its own path
    real = recurrence.closed_form
    monkeypatch.setattr(
        recurrence,
        "closed_form",
        lambda m, n, p: real(m, n, p).scaled(2) if p == path else real(m, n, p),
    )
    m, n = next(verify._random_pairs(79, 20, 40))
    assert verify.suite_recurrence() == [
        ("28-cell walk table", True),
        (f"closed form {path} ({m},{n})", False),
    ]


def test_gate_replays_the_recorded_digest():
    # the benchmark's gate op compares this digest of the whole check list
    # (suite, name and outcome of every check) with the one recorded in its
    # op pool, so any change to the gate's checks fails here as well
    assert outputs.ops(gate=["gate"]) == {outputs.GATE: outputs.gate_digest()}


# the cli and growth strata each replay test below runs; together, every one
_RECUR_AND_SEQ = {
    "cli": ("recur", "seq-fib", "seq-cheb", "seq-brahmagupta"),
    "growth": ("recur-8", "recur-10", "recur-12"),
}
_CONIC_CASSINI_AND_TANGENT = {
    "cli": (
        "readme", "conics-triangle", "conics-intersect", "conics-lattice",
        "conics-lattice-t", "conics-twin", "cassini", "tangent",
    ),
    "growth": ("tangent-4", "tangent-5"),
}  # fmt: skip
_TRIPLES_FOOTPRINTS_AND_FERMAT = {
    "cli": ("triples", "footprints-triangle", "fermat"),
    "growth": (
        "brahmagupta-25", "brahmagupta-50", "brahmagupta-100", "brahmagupta-200",
        "fermat-5", "fermat-6",
    ),
}  # fmt: skip


def test_replays_cover_every_cli_and_growth_stratum():
    groups = (_RECUR_AND_SEQ, _CONIC_CASSINI_AND_TANGENT, _TRIPLES_FOOTPRINTS_AND_FERMAT)
    workloads = outputs.pool()["workloads"]
    for workload in ("cli", "growth"):
        assert sorted(name for group in groups for name in group[workload]) == sorted(workloads[workload])


def test_recur_and_seq_ops_replay_their_recorded_digests():
    # the benchmark digests the JSON output of each CLI op and compares it
    # with its op pool; replaying the recur and seq strata here makes any
    # change to those outputs fail the tests as well
    ops = outputs.ops(**_RECUR_AND_SEQ)
    assert len(ops) == 316
    assert outputs.replay(ops) == []


def test_conic_cassini_and_tangent_ops_replay_their_recorded_digests():
    # the strata whose triangles and curve points come from the conic
    # triangle formula and triples.triangle_point, plus the README examples
    ops = outputs.ops(**_CONIC_CASSINI_AND_TANGENT)
    assert len(ops) == 228
    assert outputs.replay(ops) == []


def test_triples_footprints_and_fermat_ops_replay_their_recorded_digests():
    # the remaining strata; fermat-5 and fermat-6 repeat two ops of the cli
    # fermat stratum, so 215 pool entries are 213 distinct ops
    ops = outputs.ops(**_TRIPLES_FOOTPRINTS_AND_FERMAT)
    assert len(ops) == 213
    assert outputs.replay(ops) == []
