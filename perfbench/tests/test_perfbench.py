"""Tests of the benchmark itself: op lists, oracle, failure accounting, tracing.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import calibrate
import harness
import oracle
import ops
import run
import tracer

ROOT = Path(__file__).resolve().parents[2]
POOL = ops.load_pool()

# The per-layer metrics the benchmark promises, spelled out independently.
PROMISED_LAYER_METRICS = (
    "polyrat.mul_calls polyrat.mul_s polyrat.divmod_s polyrat.gcd_calls polyrat.gcd_s "
    "polyrat.gcd_nontrivial_ratio polyrat.ratfunc_calls polyrat.ratfunc_s polyrat.chebyshev_s "
    "polyrat.max_degree polyrat.max_coeff_bits "
    "trinity.sphere_relations_s trinity.derivative_identities_s trinity.circle_check_s "
    "trinity.vec_deriv_calls "
    "elliptic.add_calls elliptic.add_s elliptic.contains_calls elliptic.contains_s "
    "elliptic.certify_calls elliptic.certify_s elliptic.adds_per_certify elliptic.max_coord_bits "
    "exact.factorize_calls exact.factorize_s exact.squarefree_part_s "
    "exact.is_probable_prime_calls exact.rat_sqrt_calls exact.rat_sqrt_s exact.format_rat_s "
    "exact.budget_exceeded "
    "cli.parse_s cli.handler_s cli.emit_s cli.output_bytes cli.max_result_digits "
    "cli.domain_errors cli.uncaught_errors "
    "verify.checks verify.checks_failed "
    "conics.identity_s conics.ec_points_s trace_overhead_share"
).split()
SUITES = (
    "triples triples-random trinity conics-zagier conics-intersect conics-lattice "
    "conics-twin cassini tangent footprints recurrence sequences fermat"
).split()
MODULES = "triples conics cassini tangent footprints recurrence sequences fermat".split()


@pytest.fixture(scope="module")
def program():
    return harness.load_program(ROOT / "src")


def envelope_n5():
    """A correct 'conics triangle' envelope for N = 5."""
    return {
        "command": "conics triangle",
        "inputs": {"n": 5, "f1": 1, "f2": 1, "adjoin": "none"},
        "results": {
            "triangle": {"a": "3/2", "b": "20/3", "c": "41/6"},
            "p1": {"x": -4, "y": 6},
            "p2": {"x": "1681/144", "y": "62279/1728"},
        },
        "checks": [{"name": "area = N", "pass": True}],
    }


def test_same_seed_same_op_list():
    for workload in ("gate", "cli", "growth"):
        first = ops.op_list(workload, 7, POOL)
        assert first == ops.op_list(workload, 7, POOL)
        assert len(first) == sum(ops.PASS_COUNTS[workload].values())
    assert ops.op_list("cli", 7, POOL) != ops.op_list("cli", 8, POOL)


def test_every_seed_gets_the_same_mix():
    for workload in ("cli", "growth"):
        for seed in (1, 2, 3):
            strata = [stratum for stratum, _, _ in ops.op_list(workload, seed, POOL)]
            assert {s: strata.count(s) for s in strata} == ops.PASS_COUNTS[workload]


def test_oracle_accepts_a_correct_envelope():
    assert oracle.check_envelope(envelope_n5()) == []


def test_oracle_rejects_a_perturbed_leg():
    env = envelope_n5()
    env["results"]["triangle"]["a"] = "3/2000000001"
    assert any("a^2 + b^2 != c^2" in p for p in oracle.check_envelope(env))


def test_oracle_rejects_a_point_off_the_curve():
    env = envelope_n5()
    env["results"]["p2"]["y"] = "62279/1729"
    assert oracle.check_envelope(env) == ["p2: point off the curve"]


def test_oracle_rejects_a_wrong_gate_count():
    results = {"suite": [("a", True), ("b", False)]}
    problems = oracle.check_gate(results)
    assert "check failed: suite: b" in problems
    assert f"2 checks, expected {oracle.GATE_CHECKS}" in problems


def fake_program(behaviours):
    """A stand-in for congruent whose cli.main follows ``behaviours[argv[0]]``."""

    def main(argv):
        action = behaviours[argv[0]]
        if action == "raise":
            raise RuntimeError("boom")
        if action == "sleep":
            time.sleep(5)
        if action == "exit":
            return 3
        print(json.dumps(envelope_n5()))
        return 0

    return SimpleNamespace(cli=SimpleNamespace(main=main))


def test_failures_are_counted_and_the_run_continues():
    program = fake_program({"ok": "ok", "raise": "raise", "exit": "exit", "sleep": "sleep"})
    op_list = [("s", key, None) for key in ("raise", "ok", "exit", "sleep", "ok")]
    start = time.perf_counter()
    passes, outcomes = harness.run_passes(
        program, op_list, seconds=0, deadline=0.2, hard_end=time.perf_counter() + 60
    )
    assert time.perf_counter() - start < 3
    assert len(passes) == 1
    assert [o.kind for o in outcomes] == ["exception", "", "exit", "deadline", ""]
    latencies = harness.op_latencies(outcomes, 0.2)
    ranked = sorted(range(len(outcomes)), key=latencies.__getitem__)
    assert {outcomes[i].ok for i in ranked[:2]} == {True}  # failures rank above successes


def test_known_defect_fails_and_the_next_op_still_runs(program):
    good_key, good = next(iter(POOL["workloads"]["cli"]["readme"].items()))
    op_list = [
        ("defects", "conics lattice --m 3 --n 2 --t 5/3", None),
        ("readme", good_key, good["digest"]),
    ]
    _, outcomes = harness.run_passes(program, op_list, 0, 10.0, time.perf_counter() + 60)
    assert outcomes[0].kind == "exception" and "AssertionError" in outcomes[0].failure
    assert outcomes[1].ok


def test_changed_output_fails_the_digest(program):
    key, entry = next(iter(POOL["workloads"]["cli"]["triples"].items()))
    assert harness.run_op(program, key, entry["digest"], 10.0).ok
    assert harness.run_op(program, key, "0" * 16, 10.0).kind == "digest"


def test_tracer_wraps_aliases_and_restores_them(program):
    import congruent.conics as conics
    import congruent.exact as exact
    import congruent.footprints as footprints
    import congruent.triples as triples

    original = exact.squarefree_part
    modules = {n.rpartition(".")[2]: m for n, m in sys.modules.items() if n.startswith("congruent.")}
    t = tracer.Tracer()
    t.install(modules)
    try:
        assert conics.squarefree_part is exact.squarefree_part is triples.squarefree_part
        assert exact.squarefree_part is not original
        assert footprints.is_probable_prime is exact.is_probable_prime
        assert conics.curve_en is sys.modules["congruent.elliptic"].curve_en
        triples.RatTriangle(3, 4, 5).congruent_number()
    finally:
        t.uninstall()
    assert exact.squarefree_part is original
    names = {t.names[i] for i in t.name_id}
    assert {"triples.RatTriangle.congruent_number", "exact.squarefree_part", "exact.factorize"} <= names


def test_traced_run_reports_every_layer_metric(program):
    modules = {n.rpartition(".")[2]: m for n, m in sys.modules.items() if n.startswith("congruent.")}
    suites = {name: fn.__name__ for name, fn in program.verify.SUITES}
    keys = ["conics triangle --n=5 --f1=1 --f2=1", "seq brahmagupta --k=3", "conics twin --t=3"]
    t = tracer.Tracer()
    t.install(modules)
    try:
        _, outcomes = harness.run_passes(
            program, [("s", k, None) for k in keys], 0, 10.0, time.perf_counter() + 60, t.set_op
        )
    finally:
        t.uninstall()
    metrics = t.layer_metrics(1, outcomes, suites, 0.1)
    want = set(PROMISED_LAYER_METRICS)
    want |= {f"verify.suite_s.{s}" for s in SUITES}
    want |= {f"{m}.{k}" for m in MODULES for k in ("calls", "s")}
    assert set(metrics) == want
    assert metrics["elliptic.adds_per_certify"][0] == 12
    assert metrics["cli.parse_s"][0] > 0 and metrics["polyrat.ratfunc_calls"][0] > 0
    assert {span for span in set(t.op)} == {0, 1, 2}


def test_benchmark_json_matches_the_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in tracer.PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [u for _, u in tracer.PER_LAYER]
    e2e = run.end_to_end([0.1], [1.0], [harness.Outcome("k", 0.5)], 1.0)
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in e2e.values()]
    assert [w["name"] for w in spec["workloads"]] == ["gate", "cli", "growth"]


def test_speed_meter_takes_samples_out_and_scales_the_rest():
    meter = calibrate.SpeedMeter()
    ref = calibrate.REF_KERNEL_S
    # The machine runs at half the reference speed: the kernel takes 2 * ref.
    meter.starts = [0.0, 1.0, 2.0, 3.0, 4.0]
    meter.seconds = [2 * ref] * 5
    assert meter.scaled(0.5, 0.9) == pytest.approx(0.2)
    # A sample inside the op is taken out before scaling.
    assert meter.scaled(0.5, 1.5) == pytest.approx((1.0 - 2 * ref) / 2)


def test_the_kernel_itself_scales_to_the_reference_time():
    with calibrate.SpeedMeter() as meter:
        start = time.perf_counter()
        for _ in range(200):
            calibrate.kernel()
        end = time.perf_counter()
    assert len(meter.seconds) > 8  # samples were taken during the loop
    assert 0.7 < meter.scaled(start, end) / (200 * calibrate.REF_KERNEL_S) < 1.4
