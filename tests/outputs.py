"""Hash the output of every CLI call the benchmark pool, the parsers and the README name.

Usage:
    python3 tests/outputs.py OUT          write one "<hash>  <call>" line per call to OUT
    python3 tests/outputs.py --diff A B   print each call whose hash differs between A and B

Run the first form in two checkouts (a parent and a change) and compare the
files with --diff, which exits 1 if a call differs.  The calls, each made in
process through cli.main with COLUMNS=200 and CONGRUENT_FORMAT unset:
every op key of perfbench/pool.json (cli, growth and defects) and each of
its rejected keys, each as text and with --json; the README examples, the
same two ways; -h and a bad flag on every parser, and no arguments on the
root and each group; EDGE_CASES; and repr(verify.run_all()).  A call's hash
covers its exit code (or the exception it raised), its stdout and its
stderr.  It uses the standard library only, and is a tool, not a test.
"""

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from congruent import cli, verify  # noqa: E402

# Calls that no pool op makes: --json before a leaf, and N = 0 in both Cassini systems
EDGE_CASES = (
    "--json triples --m 2 --n 1",
    "conics --json lattice --m 1 --n 2",
    "cassini two --n 0 --f1 1 --f2 1",
    "cassini four --n 0 --f1 1 --f2 1",
)


def _call(argv):
    """The exit code or raised exception, stdout and stderr of cli.main(argv), as one text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = f"exit {cli.main(argv)}"
        except SystemExit as exc:
            result = f"exit {exc.code}"
        except Exception as exc:  # a defect op raises out of cli.main
            result = f"exception {type(exc).__name__}: {exc}"
    return f"{result}\n{out.getvalue()}\n{err.getvalue()}"


def _readme_examples():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [" ".join(shlex.split(line)[1:]) for line in block.splitlines() if line.strip()]


def calls():
    """The argv of every CLI call, in a fixed order."""
    pool = json.loads((ROOT / "perfbench" / "pool.json").read_text())
    keys = [
        key
        for workload in ("cli", "growth", "defects")
        for stratum in pool["workloads"][workload].values()
        for key in stratum
    ]
    keys += list(pool["rejected"]) + _readme_examples()
    for key in dict.fromkeys(keys):  # the README examples are pool ops too
        yield key.split()
        yield [*key.split(), "--json"]
    groups = ["", *cli._GROUPS]
    for path in groups + [path for path, _, _ in cli.LEAVES]:
        for tail in ["-h"], ["--no-such-flag"], *([[]] if path in groups else []):
            yield path.split() + tail
    for case in EDGE_CASES:
        yield case.split()


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def hashes():
    """One "<hash>  <call>" line per call, then the gate's."""
    os.environ["COLUMNS"] = "200"
    os.environ.pop("CONGRUENT_FORMAT", None)
    lines = [f"{digest(_call(argv))}  {' '.join(['congruent', *argv])}" for argv in calls()]
    lines.append(f"{digest(repr(verify.run_all()))}  verify.run_all()")
    return lines


def _read(path):
    """{call: hash} from a file of hashes()."""
    lines = (line.partition("  ") for line in Path(path).read_text().splitlines())
    return {call: h for h, _, call in lines}


def diff(a, b):
    """The calls whose hash differs between two files of hashes(), or that only one holds."""
    old, new = _read(a), _read(b)
    return [call for call in {**old, **new} if old.get(call) != new.get(call)]


if __name__ == "__main__":
    if sys.argv[1:2] == ["--diff"] and len(sys.argv) == 4:
        changed = diff(*sys.argv[2:])
        for call in changed:
            print(f"differs: {call}")
        sys.exit(1 if changed else 0)
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    Path(sys.argv[1]).write_text("\n".join(hashes()) + "\n")
