import argparse
import ast
import contextlib
import importlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product, takewhile
from pathlib import Path

import outputs
import pytest
from test_leaves import EXAMPLES
from test_mutations import _double_legs, _nth

import congruent
from congruent import (
    cassini,
    cli,
    conics,
    fermat,
    footprints,
    recurrence,
    sequences,
    tangent,
    triples,
    trinity,
    verify,
)
from congruent.elliptic import Curve, Point, curve_en
from congruent.triples import RatTriangle, derive, derived_triples


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_triples_text(capsys):
    code, out, _ = run(capsys, ["triples", "--m", "2", "--n", "1"])
    assert code == 0
    assert "== triples ==" in out
    assert "353/30" in out


def test_triples_json_flag_after_subcommand(capsys):
    code, out, _ = run(capsys, ["triples", "--m", "2", "--n", "1", "--json"])
    assert code == 0
    env = json.loads(out)
    assert env["command"] == "triples"
    assert env["inputs"] == {"m": 2, "n": 1}
    assert all(c["pass"] for c in env["checks"])


@pytest.mark.parametrize(
    "argv",
    ["--json triples --m 2 --n 1", "--json conics lattice --m 1 --n 2", "conics --json lattice --m 1 --n 2"],
)
def test_json_is_a_flag_of_the_leaf_only(capsys, argv):
    # the root and the groups take no --json: before the leaf it is a usage error,
    # not a flag that the leaf's own default overwrites
    with pytest.raises(SystemExit) as exc:
        cli.main(argv.split())
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("error: unrecognized arguments: --json\n")
    leaf = argv.replace("--json ", "")
    code, out, _ = run(capsys, leaf.split() + ["--json"])
    assert code == 0 and leaf.startswith(json.loads(out)["command"])


def test_big_integers_serialized_as_strings(capsys):
    code, out, _ = run(capsys, ["fermat", "--depth", "2", "--find-smallest", "--json"])
    assert code == 0
    env = json.loads(out)
    blob = json.dumps(env)
    assert "4565486027761" in blob


def test_conics_intersect(capsys):
    code, out, _ = run(capsys, ["conics", "intersect", "--t", "3", "--json"])
    assert code == 0
    env = json.loads(out)
    assert env["command"] == "conics intersect"
    assert all(c["pass"] for c in env["checks"])


def test_cassini_two(capsys):
    code, out, _ = run(capsys, ["cassini", "two", "--n", "29", "--f1", "1", "--f2", "-13", "--json"])
    assert code == 0
    env = json.loads(out)
    assert all(c["pass"] for c in env["checks"])


def test_cassini_emit_curve(capsys):
    argv = ["cassini", "two", "--n", "29", "--f1", "1", "--f2", "-13", "--json", "--emit-curve"]
    for count in (5, 1):
        code, out, _ = run(capsys, argv + [str(count)])
        assert code == 0
        pts = json.loads(out)["results"]["curve_points_approx"]
        # the first point is the left end of the oval's x range, on the axis
        assert len(pts) == count and pts[0] == {"x": -99.0, "y": 0.0}


def test_recur_walk(capsys):
    code, out, _ = run(
        capsys,
        ["recur", "walk", "--start-m", "2", "--start-n", "1", "--path", "abba", "--json"],
    )
    assert code == 0
    env = json.loads(out)
    assert all(c["pass"] for c in env["checks"])


def test_footprints_triangle(capsys):
    code, out, _ = run(
        capsys,
        ["footprints", "triangle", "--n", "14", "--m", "2", "--k", "1", "--cls", "TIII", "--json"],
    )
    assert code == 0
    env = json.loads(out)
    assert all(c["pass"] for c in env["checks"])


def test_seq_brahmagupta(capsys):
    code, out, _ = run(capsys, ["seq", "brahmagupta", "--k", "3", "--json"])
    assert code == 0


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["triples", "--m", "2"])  # missing required --n
    assert exc.value.code == 2


def test_unknown_command_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, ["triples", "--m", "1", "--n", "2"])
    assert code == 3
    assert "error:" in err


def test_intersect_refuses_a_zero_f(capsys):
    # f = 0 scales the ellipse point to (0, 0); the command names its flag,
    # and the library refuses it too, in its own words
    code, out, err = run(capsys, ["conics", "intersect", "--t", "3", "--f", "0"])
    assert code == 3 and not out
    assert err == "error: --f must be nonzero: f = 0 collapses the ellipse point to (0, 0)\n"
    with pytest.raises(ValueError, match="^f must be nonzero"):
        conics.intersect_example(3, 0)


@pytest.mark.parametrize("system, build", [("two", cassini.heegner_two), ("four", cassini.heegner_four)])
def test_cassini_refuses_a_zero_n(capsys, system, build):
    # at N = 0 heegner_four would divide by N and heegner_two build an oval with
    # b'^4 = 0, and at N < 0 heegner_two printed a passing triangle; both refuse
    # N <= 0 before any work, and the command names its flag
    for n in (0, -1):
        code, out, err = run(capsys, ["cassini", system, "--n", str(n), "--f1", "1", "--f2", "1"])
        assert code == 3 and not out
        assert err == "error: --n must be positive: no right triangle has area N <= 0\n"
        with pytest.raises(ValueError, match="^n must be positive"):
            build(n, 1, 1)


def test_degenerate_lattice_secondary_exits_3_with_its_reason(capsys):
    # each slope puts a second intersection at x2 = (m^2+n^2)^2, where w = 0
    for m, n, t in (("1", "2", "-3/2"), ("2", "3", "1/3"), ("4", "1", "2")):
        code, out, err = run(capsys, ["conics", "lattice", "--m", m, "--n", n, f"--t={t}"])
        assert (code, out) == (3, "")
        assert err.startswith("error: second intersection at x = (m^2+n^2)^2 gives a degenerate")


def test_integer_t_lattice_secondaries_pass_their_checks(capsys):
    # both once raised AssertionError: the slope-t line went through (x_i, |e_i|)
    for m, n, t in (("2", "7", "3"), ("1", "4", "1")):
        code, out, _ = run(capsys, ["conics", "lattice", "--m", m, "--n", n, "--t", t, "--json"])
        assert code == 0
        assert [c["name"] for c in json.loads(out)["checks"] if c["pass"]] == [
            "lattice triangles have area x_i",
            "secondary intersections verified",
        ]


def test_verify_all_fast(capsys, monkeypatch):
    monkeypatch.setattr(verify, "SUITES", (("triples", verify.suite_triples),))
    code, out, _ = run(capsys, ["verify-all", "--json"])
    assert code == 0
    env = json.loads(out)
    assert env["inputs"] == {}
    assert env["results"] == {"triples": "11/11"}
    monkeypatch.setattr(verify, "SUITES", (("broken", lambda: [("one", True), ("two", False)]),))
    code, out, _ = run(capsys, ["verify-all", "--json"])
    assert code == 1
    assert json.loads(out)["checks"] == [{"name": "broken", "pass": False}]


def test_verify_all_names_a_raising_suite(capsys, monkeypatch):
    def broken():
        raise AssertionError("secondary congruent number mismatch")

    monkeypatch.setattr(verify, "SUITES", (("broken", broken), ("triples", verify.suite_triples)))
    code, out, err = run(capsys, ["verify-all", "--json"])
    assert code == 1
    env = json.loads(out)
    assert env["checks"] == [{"name": "broken", "pass": False}, {"name": "triples", "pass": True}]
    assert env["results"]["broken"] == "0/1"
    assert env["results"]["failed_checks"] == [
        "broken: AssertionError: secondary congruent number mismatch"
    ]
    assert not err


PAST_THE_DIGIT_LIMIT = [
    (["recur", "walk", "--start-m", "2", "--start-n", "1", "--path", "aaaaaaaaaaaaaa"], "--path"),
    (["recur", "walk", "--start-m", "2", "--start-n", "1", "--path", "a" * 20], "--path"),
    (["seq", "fib", "--n", "2000000"], "--n"),
    (["seq", "cheb", "--m", "1000000", "--k", "9"], "--m"),
]


@pytest.mark.parametrize("argv, flag", PAST_THE_DIGIT_LIMIT)
def test_result_past_the_digit_limit_exits_3(capsys, argv, flag):
    # the walk and the sequence loops stop at the first value past the limit,
    # not at the end of the path or the index
    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 1
    assert code == 3
    assert not out
    assert "4300-digit output limit" in err and flag in err
    assert "set_int_max_str_digits" not in err


# Runs each argv of its first argument, a JSON list, and prints [exit code,
# stderr, seconds] of each
_TIMED_CHILD = """
import contextlib, io, json, sys, time
from congruent import cli

def run(argv):
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue(), time.perf_counter() - start

print(json.dumps([run(argv) for argv in json.loads(sys.argv[1])]))
"""


def test_no_int_to_str_limit_lifts_no_bound(capsys):
    # PYTHONINTMAXSTRDIGITS=0 turns off the interpreter's limit; the library's
    # exact.MAX_DIGITS still bounds every input and result, with the same message
    argvs = [argv for argv, _ in PAST_THE_DIGIT_LIMIT] + [["conics", "twin", "--t", "1e200000"]]
    # a 1501-digit --m prints sides of about 6000 digits, which format_rat refuses
    argvs.append(["triples", "--m", "1" + "0" * 1500, "--n", "1", "--json"])
    argvs += [argv for _, *argv in outputs.readme_examples()]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]), PYTHONINTMAXSTRDIGITS="0")
    child = [sys.executable, "-c", _TIMED_CHILD, json.dumps(argvs)]
    proc = subprocess.run(child, env=env, check=True, capture_output=True, text=True, timeout=120)
    for argv, (code, err, seconds) in zip(argvs, json.loads(proc.stdout), strict=True):
        assert seconds < 2, argv
        want_code, _, want_err = run(capsys, argv)
        assert (code, err) == (want_code, want_err), argv


def test_an_over_long_literal_is_refused_alike_under_both_digit_limits():
    # the interpreter refuses a run of more than 4300 digits, leading zeros
    # counted, in its own words unless PYTHONINTMAXSTRDIGITS=0 lifts its limit;
    # the flag is refused from its text either way, naming the flag
    zeros = "0" * 4400
    argvs = [["conics", "twin", "--t", "1" + zeros], ["conics", "twin", "--t", "0" + zeros + "1"]]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    child = [sys.executable, "-c", _TIMED_CHILD, json.dumps(argvs)]
    runs = [
        json.loads(subprocess.run(child, env=e, check=True, capture_output=True, text=True, timeout=60).stdout)
        for e in (env, {**env, "PYTHONINTMAXSTRDIGITS": "0"})
    ]
    for default, unlimited in zip(*runs, strict=True):
        assert default[:2] == unlimited[:2] == [3, "error: --t: a number in the text has more than 4300 digits\n"]
        assert "sys." not in default[1]


def test_tangent_stops_at_the_first_step_past_the_digit_limit(capsys, monkeypatch):
    # the fourth entry of the README chain has 423-digit legs; its second step
    # is past the limit, and the three steps after it are never computed
    tri = tangent.tangent_chain(5, Fraction(3, 2), Fraction(20, 3), depth=4).triangles[-1]
    steps = []
    solve_f = tangent.solve_f
    monkeypatch.setattr(tangent, "solve_f", lambda *a: steps.append(a) or solve_f(*a))
    start = time.perf_counter()
    code, out, err = run(capsys, ["tangent", "--n", "5", "--a", str(tri.a), "--b", str(tri.b), "--depth", "5"])
    assert time.perf_counter() - start < 1
    assert code == 3
    assert not out
    assert err == "error: a result exceeds the 4300-digit output limit; use a smaller --depth\n"
    assert len(steps) == 2


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["conics", "intersect", "--t", "1e1000000000"], "--t"),
        (["conics", "twin", "--t", "1e1000000000"], "--t"),
        (["conics", "lattice", "--m", "1", "--n", "2", "--t", "1e1000000000"], "--t"),
        (["tangent", "--n", "5", "--a", "1e1000000000", "--b", "20/3"], "--a"),
        (["tangent", "--n", "5", "--a", "3/2", "--b=-2E-1_000_000_000"], "--b"),
        (["conics", "triangle", "--n", "5", "--f1", "1", "--f2", "1e5000"], "--f2"),
        (["cassini", "four", "--n", "5", "--f1", "1", "--f2", "0.5e-4400"], "--f2"),
    ],
)  # fmt: skip
def test_rational_flag_past_the_digit_limit_exits_3(capsys, argv, flag):
    # Fraction would multiply out the exponent first; the flag is refused
    # from its text, or from its value when that is small enough to build
    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 1
    assert code == 3
    assert not out
    assert f"{flag}: the value or its exponent is past the 4300-digit limit" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        ("conics twin --t 1/0", "--t: the denominator is zero"),
        ("cassini two --n 29 --f1 1 --f2 twin", "--f2: Invalid literal for Fraction: 'twin'"),
    ],
)
def test_a_flag_that_is_not_a_rational_exits_3_naming_it(capsys, argv, message):
    code, out, err = run(capsys, argv.split())
    assert code == 3
    assert not out
    assert err == f"error: {message}\n"


def test_trinity_json_is_exact(capsys):
    code, out, _ = run(capsys, ["trinity", "--max-order", "1", "--json"])
    assert code == 0
    env = json.loads(out, parse_float=lambda text: pytest.fail(f"float {text} in output"))
    assert env["results"] == {"circles": 20, "circles_failed": []}
    assert all(c["pass"] for c in env["checks"])


# the arguments a bounded command needs besides its effort flag
_REQUIRED = {
    "tangent": ["--n", "5", "--a", "3/2", "--b", "20/3"],
    "cassini two": ["--n", "29", "--f1", "1", "--f2", "-13"],
}


def _readme_bound_cases():
    """(argv, message) just outside each "`cmd --flag` lo..hi" bound the README states."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    bounds = re.findall(r"`([a-z ]+) (--[a-z-]+)` (\d+)\.\.(\d+)", readme)
    assert len(bounds) == 5, bounds
    return [
        (cmd.split() + _REQUIRED.get(cmd, []) + [flag, str(value)],
         f"{flag} must be between {lo} and {hi}, got {value}")
        for cmd, flag, lo, hi in bounds
        for value in (int(lo) - 1, int(hi) + 1)
    ]  # fmt: skip


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["trinity", "--max-order", "0"], "--max-order must be between 1 and 6"),
        (["trinity", "--max-order", "7"], "--max-order must be between 1 and 6"),
        (["tangent", "--n", "5", "--a", "3/2", "--b", "20/3", "--depth", "6"],
         "--depth must be between 1 and 5"),
        (["fermat", "--depth", "7"], "--depth must be between 1 and 6"),
        (["fermat", "--depth", "0"], "--depth must be between 1 and 6"),
        (["fermat", "--depth", "8"], "--depth must be between 1 and 6"),
        (["seq", "brahmagupta", "--k", "1200"], "--k must be between 0 and 400"),
        (["seq", "brahmagupta", "--k", "3000"], "--k must be between 0 and 400"),
        (["seq", "brahmagupta", "--k", "-1"], "--k must be between 0 and 400"),
    ]
    + _readme_bound_cases()
    # the README states the --emit-curve bound for cassini two
    + [(["cassini", "four", "--n", "79", "--f1", "125", "--f2", "52", "--emit-curve", "1001"],
        "--emit-curve must be between 0 and 1000")],
)
def test_out_of_range_effort_exits_before_work(capsys, monkeypatch, argv, flag):
    # each module checks its own bound before its work; the cli names the flag
    monkeypatch.setattr(trinity, "_vectors", lambda *_: pytest.fail("trinity ran"))
    monkeypatch.setattr(fermat, "node_from_fraction", lambda *_: pytest.fail("fermat ran"))
    monkeypatch.setattr(sequences, "cheb_pair", lambda *_: pytest.fail("brahmagupta ran"))
    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 1
    assert code == 3
    assert not out
    assert flag in err


def _zero_y(points):
    p1, p2 = points
    return p1, Point(p2.x, Fraction(0))


def _p1_off_curve(points):
    p1, p2 = points
    return Point(p1.x, p1.y + 1), p2


def _wrong_area(bt):
    return bt._replace(area=bt.area + 1)


def _point_off_curve(bt):
    q0, *qs = bt.points
    return bt._replace(points=(Point(q0.x, q0.y + 1), *qs))


def _leg_off_by_one(steps):
    n, tri = steps[-1]
    return steps[:-1] + [(n, RatTriangle._proved(tri.a + 1, tri.b, tri.c))]


def _stretch(tri):
    # (2a, b/2, c) keeps the area and breaks a^2 + b^2 = c^2
    return RatTriangle._proved(2 * tri.a, tri.b / 2, tri.c)


def _longer_hypotenuse(tri):
    return RatTriangle._proved(tri.a, tri.b, tri.c + 1)


def _y_plus_one(p):
    return Point(p.x, p.y + 1)


@pytest.mark.parametrize(
    "argv, module, name, change, check",
    [
        (["conics", "triangle", "--n", "157", "--f1", "87005", "--f2", "610961"],
         conics, "conic_ec_points", _zero_y, "points infinite order"),
        (["seq", "brahmagupta", "--k", "3"], sequences, "brahmagupta", _wrong_area, "Heron area"),
        (["seq", "brahmagupta", "--k", "3"],
         sequences, "brahmagupta", _point_off_curve, "points on curve"),
        (["recur", "walk", "--start-m", "2", "--start-n", "1", "--path", "abba"],
         recurrence, "walk", _leg_off_by_one, "every step is a valid right triangle"),
        # the constructions no longer check these themselves; only the named
        # check sees a broken helper, and the points of a wrong conic
        # triangle are off E_N too
        (["conics", "triangle", "--n", "157", "--f1", "87005", "--f2", "610961"],
         conics, "signed_triangle", _double_legs, ["area = N", "points infinite order"]),
        (["conics", "lattice", "--m", "1", "--n", "2"],
         conics, "_lattice_triangle", lambda tri: tri.scaled(Fraction(1, 2)),
         "lattice triangles have area x_i"),
        (["tangent", "--n", "5", "--a", "3/2", "--b", "20/3"],
         tangent.TangentChain, "doubling_holds", lambda ok: False, "doubling relation"),
        (["cassini", "two", "--n", "29", "--f1", "1", "--f2", "-13"],
         cassini, "signed_triangle", _double_legs, "triangle area = N"),
        (["footprints", "triangle", "--n", "14", "--m", "2", "--k", "1", "--cls", "TIII"],
         footprints, "footprint_triangle", _double_legs, "area = N"),
        (["seq", "brahmagupta", "--k", "0"],
         Curve, "order_at_most", lambda order: order + 1, "order 4 (degenerate)"),
        # 4 N_i2 keeps the square class, so only the Vieta comparison sees it
        (["conics", "lattice", "--m", "1", "--n", "2", "--t", "3"],
         conics, "_lattice_n2", lambda n2: 4 * n2, "secondary intersections verified"),
        # each printed triangle must be right as well as of area N
        (["conics", "triangle", "--n", "157", "--f1", "87005", "--f2", "610961"],
         conics, "signed_triangle", _stretch, ["area = N", "points infinite order"]),
        (["conics", "lattice", "--m", "1", "--n", "2"],
         conics, "_lattice_triangle", _stretch, "lattice triangles have area x_i"),
        (["cassini", "two", "--n", "29", "--f1", "1", "--f2", "-13"],
         cassini, "signed_triangle", _stretch, "triangle area = N"),
        (["footprints", "triangle", "--n", "14", "--m", "2", "--k", "1", "--cls", "TIII"],
         footprints, "footprint_triangle", _stretch, "area = N"),
        (["seq", "fib", "--n", "3"],
         sequences, "fib_lucas", lambda p: sequences.FibPair(p.index, p.f, p.l + 1), "area = N"),
        (["seq", "cheb", "--m", "3", "--k", "2"],
         sequences, "cheb_pair", lambda tu: (tu[0] + 1, tu[1]), "area = N"),
        # a point with y != 0 has infinite order only if it lies on E_N
        (["conics", "triangle", "--n", "157", "--f1", "87005", "--f2", "610961"],
         conics, "conic_ec_points", _p1_off_curve, "points infinite order"),
        # the identities in t and in (m, n) are read on the printed values too
        (["triples", "--m", "2", "--n", "1"],
         triples, "area_identity", _nth(0, lambda lhs: lhs + 1), "area identity"),
        (["triples", "--m", "2", "--n", "1"],
         triples, "distance_identity", _nth(0, lambda root: root + 1), "distance identity"),
        (["conics", "intersect", "--t", "3"],
         conics, "intersect_example", _nth(2, _longer_hypotenuse), "pythagoras"),
        (["conics", "intersect", "--t", "3"],
         conics, "intersect_example", _nth(2, _double_legs), "area = N(t)"),
        (["conics", "intersect", "--t", "5/7", "--f", "2"],
         conics, "intersect_example", _nth(1, lambda xe: (xe[0] + 1, xe[1])), "point on ellipse"),
        (["conics", "intersect", "--t", "3"],
         conics, "intersect_example", _nth(3, _y_plus_one), "P1 on curve"),
        (["conics", "intersect", "--t", "3"],
         conics, "intersect_example", _nth(4, _y_plus_one), "P2 on curve"),
        (["conics", "twin", "--t", "10"],
         conics, "twin_hyperbolas", _nth(0, lambda n1: n1 + 1), "area1 = N1"),
        (["conics", "twin", "--t", "10"],
         conics, "twin_hyperbolas", _nth(3, _double_legs), "area2 = N2"),
    ],
)  # fmt: skip
def test_perturbed_result_fails_its_cli_check(
    capsys, monkeypatch, argv, module, name, change, check
):
    # each check is computed from the result it prints, so a wrong result
    # fails that check by name and exits 1
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs: change(real(*args, **kwargs)))
    code, out, _ = run(capsys, argv + ["--json"])
    assert code == 1
    failed = [c["name"] for c in json.loads(out)["checks"] if not c["pass"]]
    assert failed == ([check] if isinstance(check, str) else check)


def test_wrong_walk_step_fails_its_check(capsys, monkeypatch):
    # walk builds each step unchecked, so a step that is not a right triangle
    # reaches the printed result and fails the named check (exit 1, not 3)
    real = RatTriangle._proved.__func__
    built = []

    def last_step_off(cls, a, b, c):
        # calls: euclid_root's start triangle, then one per step of "abba"
        built.append(a)
        return real(cls, a + 1 if len(built) == 5 else a, b, c)

    monkeypatch.setattr(RatTriangle, "_proved", classmethod(last_step_off))
    argv = ["recur", "walk", "--start-m", "2", "--start-n", "1", "--path", "abba", "--json"]
    code, out, _ = run(capsys, argv)
    assert code == 1 and len(built) == 5
    env = json.loads(out)
    assert [c["name"] for c in env["checks"] if not c["pass"]] == [
        "every step is a valid right triangle"
    ]
    sides = [[Fraction(step["triangle"][k]) for k in "abc"] for step in env["results"]["steps"]]
    assert [a**2 + b**2 == c**2 for a, b, c in sides] == [True, True, True, False]


def test_wrong_walk_n_fails_the_step_check(capsys, monkeypatch):
    # every step stays a right triangle, so only its printed N, one more than
    # the area, can fail the check
    real = recurrence.walk
    monkeypatch.setattr(
        recurrence, "walk", lambda *args: [(n + 1, tri) for n, tri in real(*args)]
    )
    argv = ["recur", "walk", "--start-m", "2", "--start-n", "1", "--path", "ab", "--json"]
    code, out, _ = run(capsys, argv)
    assert code == 1
    env = json.loads(out)
    assert [c["name"] for c in env["checks"] if not c["pass"]] == [
        "every step is a valid right triangle"
    ]
    assert [step["n"] for step in env["results"]["steps"]] == [16, 35]


def test_wrong_chebyshev_value_fails_heron_area_by_name(capsys, monkeypatch):
    # BrahmaguptaTriangle holds what it is given, so a wrong U_{k-1}(2)
    # reaches the printed result and fails only the check on Heron's formula
    real = sequences.cheb_pair

    def off_by_one(m, n):
        t, u = real(m, n)
        return t, u + 1

    monkeypatch.setattr(sequences, "cheb_pair", off_by_one)
    code, out, _ = run(capsys, ["seq", "brahmagupta", "--k", "3", "--json"])
    assert code == 1
    assert [c["name"] for c in json.loads(out)["checks"] if not c["pass"]] == ["Heron area"]


def test_readme_cli_block_parses():
    lines = outputs.readme_examples()
    assert len(lines) >= 10
    for prog, *argv in lines:
        assert prog == "congruent"
        cli.build_parser(argv).parse_args(argv)


# Run in a fresh interpreter: the congruent modules loaded after importing
# the CLI, then after one triples command.
_IMPORT_CHILD = """
import contextlib, io, json, sys
import congruent.cli

def loaded():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "congruent")

first = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    code = congruent.cli.main(["triples", "--m", "2", "--n", "1", "--json"])
print(json.dumps([first, code, loaded()]))
"""


def test_cli_imports_each_subcommand_module_on_first_use():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_CHILD], env=env, check=True, capture_output=True, text=True
    )
    first, code, after = json.loads(proc.stdout)
    eager = ("cli", "exact")
    assert first == sorted(["congruent"] + [f"congruent.{m}" for m in eager])
    assert code == 0
    # triples loads elliptic for its curve points; nothing else follows it
    lazy = ("trinity", "verify", "polyrat", "conics", "cassini", "footprints")
    assert not {f"congruent.{m}" for m in lazy} & set(after)
    # under -S no site hook preloads stdlib modules, so the child sees what the import loads
    heavy = ["dataclasses", "inspect", "json", "importlib.resources"]
    child = f"import sys, congruent.cli; print([m for m in {heavy!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-S", "-c", child], env=env, check=True, capture_output=True, text=True)
    assert proc.stdout == "[]\n"
    # verify loads every module; the records are namedtuples, so none builds a dataclass
    child = "import sys, congruent.verify; print([m for m in ('dataclasses', 'inspect') if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-S", "-c", child], env=env, check=True, capture_output=True, text=True)
    assert proc.stdout == "[]\n"


USAGES = [
    "congruent [-h] {triples,trinity,conics,cassini,tangent,footprints,recur,seq,fermat,verify-all} ...",
    "congruent triples [-h] [--json] --m M --n N",
    "congruent trinity [-h] [--json] [--max-order MAX_ORDER]",
    "congruent conics [-h] {triangle,intersect,lattice,twin} ...",
    "congruent conics triangle [-h] [--json] --n N --f1 F1 --f2 F2 [--adjoin {none,sqrtN,sqrt2N}]",
    "congruent conics intersect [-h] [--json] --t T [--f F]",
    "congruent conics lattice [-h] [--json] --m M --n N [--t T]",
    "congruent conics twin [-h] [--json] --t T",
    "congruent cassini [-h] {two,four} ...",
    "congruent cassini two [-h] [--json] --n N --f1 F1 --f2 F2 [--emit-curve COUNT] [--adjoin {none,sqrtN,sqrt2N}]",
    "congruent cassini four [-h] [--json] --n N --f1 F1 --f2 F2 [--emit-curve COUNT]",
    "congruent tangent [-h] [--json] --n N --a A --b B [--depth DEPTH]",
    "congruent footprints [-h] {verify,triangle} ...",
    "congruent footprints verify [-h] [--json] [--table TABLE]",
    "congruent footprints triangle [-h] [--json] --n N --m M --k K --cls {T0a,T0b,TI,TII,TIII,TIV}",
    "congruent recur [-h] {walk,table-check} ...",
    "congruent recur walk [-h] [--json] --start-m START_M --start-n START_N --path PATH",
    "congruent recur table-check [-h] [--json]",
    "congruent seq [-h] {fib,cheb,brahmagupta} ...",
    "congruent seq fib [-h] [--json] --n N [--odd]",
    "congruent seq cheb [-h] [--json] --m M --k K",
    "congruent seq brahmagupta [-h] [--json] --k K",
    "congruent fermat [-h] [--json] [--depth DEPTH] [--find-smallest]",
    "congruent verify-all [-h] [--json]",
]


def test_every_parser_keeps_its_usage_line(monkeypatch):
    # build_parser passes each subparser group the prog argparse would derive,
    # so every parser's usage still starts with its full command path
    monkeypatch.setenv("COLUMNS", "200")
    parsers = outputs.parsers(cli.build_parser(outputs.PATH_WORDS))
    assert [p.format_usage() for p in parsers] == [f"usage: {u}\n" for u in USAGES]


def test_every_parser_keeps_its_texts(monkeypatch):
    # -h and a bad flag on all 24 parsers, no arguments on the root and each
    # group, at COLUMNS=200; test_interpreters replays this on 3.10 to 3.13
    monkeypatch.setenv("COLUMNS", "200")
    assert outputs.digest(outputs.transcript(outputs.PARSER_CALLS)) == outputs.PARSER_TEXTS_DIGEST


def test_the_tree_argv_names_parses_like_the_full_tree(monkeypatch):
    # every call tests/outputs.py hashes; test_interpreters replays this on 3.10 to 3.13
    monkeypatch.setenv("COLUMNS", "200")
    assert outputs.unlike_the_full_tree() == []


def test_only_the_parsers_argv_names_get_arguments():
    # every parser is made, but a group or leaf argv does not name gets no -h,
    # no flags and no defaults; the root keeps its -h
    parser = cli.build_parser("triples --m 2 --n 1".split())
    assert len(list(outputs.parsers(parser))) == 24
    armed = {p.prog for p in outputs.parsers(parser)
             if p._defaults or any(not isinstance(a, argparse._SubParsersAction) for a in p._actions)}
    assert armed == {"congruent", "congruent triples"}


def test_build_parser_reads_the_terminal_width_once(monkeypatch):
    real = shutil.get_terminal_size
    calls = []
    monkeypatch.setattr(shutil, "get_terminal_size", lambda *a: calls.append(a) or real(*a))
    parser = cli.build_parser(outputs.PATH_WORDS)
    for p in outputs.parsers(parser):
        p.format_help()
    assert len(calls) == 1


@pytest.mark.parametrize(
    "flags, code",
    [(["--n", "5", "--m", "1", "--k", "1", "--cls", "T9"], 2), (["-h"], 0)],
)
def test_footprints_cls_choices_are_the_six_classes(capsys, flags, code):
    # the choices come from the package, so parsing does not import footprints
    with pytest.raises(SystemExit) as exc:
        cli.main(["footprints", "triangle", *flags])
    assert exc.value.code == code
    out = capsys.readouterr()
    assert "{T0a,T0b,TI,TII,TIII,TIV}" in out.out + out.err
    assert footprints.CLASSES is congruent.FOOTPRINT_CLASSES


def test_every_proved_triangle_is_right(monkeypatch, capsys):
    # RatTriangle._proved takes a^2 + b^2 = c^2 from the identity proof named
    # at each call site; here every triangle it builds is checked again
    real = RatTriangle._proved.__func__
    seen = []

    def checked(cls, a, b, c):
        assert all(type(x) is Fraction for x in (a, b, c)), (a, b, c)
        assert a**2 + b**2 == c**2, (a, b, c)
        seen.append((a, b, c))
        return real(cls, a, b, c)

    monkeypatch.setattr(RatTriangle, "_proved", classmethod(checked))
    for suite, checks in verify.run_all().items():
        assert all(ok for _, ok in checks), suite
    for _, *argv in outputs.readme_examples():
        assert cli.main(argv) == 0, argv
    capsys.readouterr()
    for m in range(2, 13):
        for n in range(1, m):
            derived_triples(derive(m, n))
            tri0, n0 = recurrence.euclid_root(m, n)
            for path in map("".join, product("ab", repeat=4)):
                recurrence.walk(tri0, n0, path)
            for path in ("a", "aa", "aaa", "aaaa", "b", "ba"):
                recurrence.closed_form(m, n, path)
    for m, n in ((1, 2), (2, 2), (4, 2), (2, 3), (1, 5)):
        sequences.cheb_family(m, n)
    assert len(seen) > 500


def test_every_row_names_a_public_entry():
    # argparse picks the leaf, and the leaf carries its row's entry, which
    # names a public function of its module; a group parser only dispatches
    entries = {}
    for p in outputs.parsers(cli.build_parser(outputs.PATH_WORDS)):
        if any(isinstance(a, argparse._SubParsersAction) for a in p._actions):
            assert p.get_default("entry") is None, p.prog
        else:
            entries[p.prog] = p.get_default("entry")
    assert entries == {f"congruent {path}": entry for path, _, _, entry in cli.LEAVES}
    assert len(entries) == 18
    for entry in entries.values():
        module_name, function = entry.split()[0].split(".")
        module = importlib.import_module(f"congruent.{module_name}")
        assert function in module.__all__ and callable(getattr(module, function)), entry
    # one dispatch, _cmd_run, serves every leaf
    assert [name for name in vars(cli) if name.startswith("_cmd_")] == ["_cmd_run"]


# The echoes measured before the echo was built from the parsed flags: a parsed
# rational prints reduced, --f2 as given, and an absent --table as null
ECHO_VALUES = {
    "conics lattice --m 1 --n 2 --t 6/2": {"m": 1, "n": 2, "t": "3"},
    "tangent --n 5 --a 6/4 --b 20/3": {"n": 5, "a": "3/2", "b": "20/3", "depth": 3},
    "cassini two --n 29 --f1 1 --f2=-26/2 --emit-curve 2": {"n": 29, "f1": 1, "f2": "-26/2", "adjoin": "none"},
    "footprints verify": {"table": None},
}  # fmt: skip


def _echoed_keys(text):
    """The keys of the text output's inputs block, in order."""
    lines = text.splitlines()
    if "inputs:" not in lines:
        return []
    block = lines[lines.index("inputs:") + 1 :]
    return [line.split(" = ")[0].strip() for line in takewhile(lambda s: s.startswith("  "), block)]


def test_every_leaf_echoes_its_flags(capsys):
    # the echo is the leaf's flags in table order, --cls as "class", without
    # --emit-curve, and lattice --t only when given; JSON sorts its keys, so
    # the order is read from the text output
    rows = {path: flags for path, _, flags, _ in cli.LEAVES}
    cases = EXAMPLES + list(outputs.ECHO_CASES)
    paths = set()
    for case in cases:
        argv = case.split()
        path = " ".join(takewhile(lambda w: not w.startswith("--"), argv))
        paths.add(path)
        keys = []
        for flag in rows[path]:
            key = "class" if flag == "--cls" else flag[2:].replace("-", "_")
            given = any(w == flag or w.startswith(flag + "=") for w in argv)
            if key != "emit_curve" and (given or (path, key) != ("conics lattice", "t")):
                keys.append(key)
        cli.main(argv)
        assert _echoed_keys(capsys.readouterr().out) == keys, case
    assert paths == set(rows)
    for case, inputs in ECHO_VALUES.items():
        cli.main(case.split() + ["--json"])
        assert json.loads(capsys.readouterr().out)["inputs"] == inputs, case


def test_the_echo_cases_keep_their_digest():
    # each echo case's exit code and output, as text and as --json;
    # test_interpreters replays this on 3.10 to 3.13
    assert outputs.digest(outputs.transcript(outputs.ECHO_CALLS)) == outputs.ECHO_DIGEST


def test_cli_never_reads_args_sub():
    tree = ast.parse(Path(cli.__file__).read_text())
    reads = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "sub"]
    reads += [
        n.lineno
        for n in ast.walk(tree)
        if isinstance(n, ast.Call)
        and getattr(n.func, "id", None) in ("getattr", "hasattr")
        and any(isinstance(a, ast.Constant) and a.value == "sub" for a in n.args)
    ]
    assert not reads


def test_fmt_prints_each_record_as_its_fields():
    # results hold the library's records; _fmt prints each as its fields, in
    # order, and a point without its infinity flag
    pair = derive(2, 1)
    tri = derived_triples(pair)[0]
    secondary = conics.lattice_secondary(1, 2, 3)[0]
    cases = [
        (tri, ["a", "b", "c"]),
        (triples.triangle_point(tri), ["x", "y"]),
        (curve_en(5), ["a2", "a4", "a6"]),
        (triples.concordant_solutions(pair)[0], ["x", "y", "z", "t", "n"]),
        (secondary, ["x2", "e2", "n2", "primitive", "triangle"]),
    ]
    for record, keys in cases:
        assert list(cli._fmt(record)) == keys, type(record)
    assert cli._fmt(secondary)["triangle"] == {
        "a": "71757/418", "b": "157907860/71757", "c": "66206019401/29994426"
    }  # fmt: skip
