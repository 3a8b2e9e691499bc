"""Running ops in-process: deadlines, failure accounting and timed passes.

Every op runs in this process, one after another (a closed loop with one
caller).  An op fails when ``cli.main`` raises, exits nonzero, overruns its
deadline, or prints output that the oracle rejects or whose digest differs
from the one recorded on the reference commit.  A failure is recorded and
the run goes on.  For the latency percentiles a failed op counts as taking
at least its deadline, so it ranks above every success.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import oracle
from ops import GATE_KEY

# Per-op wall-clock deadlines in seconds.  A successful op never takes longer.
DEADLINE_S = {"gate": 120.0, "cli": 10.0, "growth": 20.0, "defects": 20.0}


class DeadlineExceeded(BaseException):
    """Raised by the alarm handler; a BaseException so no handler in the program swallows it."""


@dataclass
class Outcome:
    key: str
    seconds: float
    failure: str = ""  # empty on success, else "<kind>: <detail>"
    exit_code: int | None = None
    output_bytes: int = 0
    result_digits: int = 0
    checks: int = 0
    checks_failed: int = 0
    digest: str = ""
    start: float = 0.0  # perf_counter() when the call began

    @property
    def ok(self):
        return not self.failure

    @property
    def kind(self):
        return self.failure.partition(":")[0]


def load_program(src):
    """Import ``congruent`` from ``src`` (never from anywhere else)."""
    src = Path(src).resolve()
    sys.path.insert(0, str(src))
    import congruent.cli
    import congruent.verify

    if Path(congruent.__file__).resolve().parent != src / "congruent":
        raise ImportError(f"congruent was imported from {congruent.__file__}, not {src}")
    return SimpleNamespace(cli=congruent.cli, verify=congruent.verify)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def timed_call(fn, deadline):
    """Run ``fn()`` under a wall-clock deadline; returns (value, exception, start, seconds)."""
    armed = [True]

    def on_alarm(signum, frame):
        if armed[0]:
            armed[0] = False
            raise DeadlineExceeded()

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(deadline, 1e-3))
    value = exc = None
    start = time.perf_counter()
    try:
        value = fn()
    except (Exception, SystemExit, DeadlineExceeded) as caught:
        exc = caught
    finally:
        armed[0] = False
        seconds = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    if exc is None and seconds > deadline:
        exc = DeadlineExceeded()
    return value, exc, start, seconds


def run_gate(program, expected, deadline):
    results, exc, start, seconds = timed_call(program.verify.run_all, deadline)
    if exc is not None:
        return Outcome(GATE_KEY, seconds, _exception_failure(exc), start=start)
    named = [[suite, name, bool(ok)] for suite, checks in results.items() for name, ok in checks]
    outcome = Outcome(
        GATE_KEY,
        seconds,
        checks=len(named),
        checks_failed=sum(not ok for _, _, ok in named),
        start=start,
    )
    outcome.digest = digest(json.dumps(named))
    problems = oracle.check_gate(results)
    if problems:
        outcome.failure = "oracle: " + "; ".join(problems[:3])
    elif expected is not None and outcome.digest != expected:
        outcome.failure = "digest: check list differs from the reference commit"
    return outcome


def run_cli(program, key, expected, deadline):
    argv = key.split() + ["--json"]
    out, err = io.StringIO(), io.StringIO()

    def call():
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return program.cli.main(argv)

    code, exc, start, seconds = timed_call(call, deadline)
    text = out.getvalue()
    outcome = Outcome(key, seconds, exit_code=code, output_bytes=len(text.encode()), start=start)
    if exc is not None:
        outcome.failure = _exception_failure(exc)
        return outcome
    if code != 0:
        message = err.getvalue().strip().splitlines()
        outcome.failure = f"exit: code {code}" + (f": {message[-1][:200]}" if message else "")
        return outcome
    env = json.loads(text)
    outcome.digest = digest(text)
    outcome.result_digits = oracle.result_digits(env["results"])
    outcome.checks = len(env["checks"])
    problems = oracle.check_envelope(env)
    if problems:
        outcome.failure = "oracle: " + "; ".join(problems[:3])
    elif expected is not None and outcome.digest != expected:
        outcome.failure = "digest: output differs from the reference commit"
    return outcome


def _exception_failure(exc):
    if isinstance(exc, DeadlineExceeded):
        return "deadline: op overran its deadline"
    if isinstance(exc, SystemExit):
        return f"exit: SystemExit({exc.code})"
    return f"exception: {type(exc).__name__}: {str(exc)[:200]}"


def run_op(program, key, expected, deadline):
    if key == GATE_KEY:
        return run_gate(program, expected, deadline)
    return run_cli(program, key, expected, deadline)


def run_passes(program, ops, seconds, deadline, hard_end, on_op=None):
    """Repeat the op list while the next pass is expected to end within ``seconds``.

    The first pass always runs.  Returns (pass times, outcomes); a pass time is
    the sum of its ops' call times, so the oracle's own work is not counted.
    ``on_op(index)`` is called before each op (the tracer tags spans with it).
    """
    start = time.perf_counter()
    pass_times, outcomes = [], []
    while True:
        pass_start = time.perf_counter()
        total = 0.0
        for _, key, expected in ops:
            if on_op is not None:
                on_op(len(outcomes))
            remaining = hard_end - time.perf_counter()
            if remaining <= 0:
                outcome = Outcome(
                    key, 0.0, "deadline: run out of time before the op started", start=time.perf_counter()
                )
            else:
                outcome = run_op(program, key, expected, min(deadline, remaining))
            outcomes.append(outcome)
            total += outcome.seconds
        pass_times.append(total)
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds or now >= hard_end:
            return pass_times, outcomes


def op_latencies(outcomes, deadline):
    """Per-op seconds, with every failed op ranked above every success."""
    return [o.seconds if o.ok else max(o.seconds, deadline) for o in outcomes]


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]
