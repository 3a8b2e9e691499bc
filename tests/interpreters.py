"""Replay the gate digest and the README examples' digests on one interpreter.

Usage: python3.X tests/interpreters.py

It uses the standard library only, so it runs on an interpreter without the
test dependencies.  It reads the digests recorded in perfbench/pool.json
(read-only), runs verify.run_all() and each README example through
cli.main(argv + ["--json"]), prints each op whose digest differs and exits
1 if there is one.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from congruent import cli, verify  # noqa: E402


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def mismatches():
    """The ops whose output differs from the recorded digest: the gate, then the README examples."""
    workloads = json.loads((ROOT / "perfbench" / "pool.json").read_text())["workloads"]
    gate = "verify.run_all()"
    named = [[suite, name, bool(ok)] for suite, checks in verify.run_all().items() for name, ok in checks]
    bad = [] if digest(json.dumps(named)) == workloads["gate"]["gate"][gate]["digest"] else [gate]
    for key, entry in workloads["cli"]["readme"].items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(key.split() + ["--json"])
        if code != 0 or digest(out.getvalue()) != entry["digest"]:
            bad.append(key)
    return bad


if __name__ == "__main__":
    bad = mismatches()
    for key in bad:
        print(f"differs: {key}")
    sys.exit(1 if bad else 0)
