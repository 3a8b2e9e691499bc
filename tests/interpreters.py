"""Replay the digests of the gate, README examples, parser texts and echoes on one interpreter.

Usage: python3.X tests/interpreters.py

It uses the standard library only, so it runs on an interpreter without the
test dependencies.  It reads the digests recorded in perfbench/pool.json
(read-only), runs verify.run_all() and each README example through
cli.main(argv + ["--json"]), compares the parser texts with
PARSER_TEXTS_DIGEST and the echo cases' outputs with ECHO_DIGEST, prints
each op whose digest differs and exits 1 if there is one.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from congruent import cli, verify  # noqa: E402


# The digest of parser_texts(), the same on CPython 3.10 to 3.13
PARSER_TEXTS_DIGEST = "ed990620125adc7a"

# The echo cases: a parsed rational prints reduced and --f2 as given,
# --emit-curve is not echoed, an absent lattice --t is left out while an
# absent --table prints null, and --cls prints as "class"
ECHO_CASES = (
    "conics lattice --m 1 --n 2 --t 6/2",
    "conics lattice --m 1 --n 2",
    "tangent --n 5 --a 6/4 --b 20/3",
    "cassini two --n 29 --f1 1 --f2=-26/2 --emit-curve 2",
    "footprints verify",
    "footprints triangle --n 14 --m 2 --k 1 --cls TIII",
)

# The digest of echo_outputs(), the same on CPython 3.10 to 3.13
ECHO_DIGEST = "c2d69b5e984b3861"


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def parser_texts():
    """The exit code, stdout and stderr of each parser's texts at COLUMNS=200.

    Each of the 24 parsers gets -h and a bad flag, and the root and each group
    also no arguments.  At 200 columns no text wraps differently between
    interpreters; at 30, 80 and 100, 3.13 re-wraps some.
    """
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "200"
    groups = ["", *cli._GROUPS]
    texts = []
    try:
        for path in groups + [path for path, _, _ in cli.LEAVES]:
            for tail in ["-h"], ["--no-such-flag"], *([[]] if path in groups else []):
                argv = path.split() + tail
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = cli.main(argv)
                    except SystemExit as exc:
                        code = exc.code
                head = f"$ congruent {' '.join(argv)}\n[exit {code}]\n"
                texts += [head, out.getvalue(), err.getvalue()]
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return "".join(texts)


def echo_outputs():
    """The exit code and stdout of each echo case, as text and as --json.

    JSON sorts its keys, so only the text shows the echo's order.
    """
    texts = []
    for case in ECHO_CASES:
        for tail in [], ["--json"]:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(case.split() + tail)
            texts += [f"$ congruent {' '.join([case, *tail])}\n[exit {code}]\n", out.getvalue()]
    return "".join(texts)


def mismatches():
    """The ops whose output differs from its digest: gate, README examples, parser texts, echoes."""
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
    if digest(parser_texts()) != PARSER_TEXTS_DIGEST:
        bad.append("parser texts")
    if digest(echo_outputs()) != ECHO_DIGEST:
        bad.append("echoes")
    return bad


if __name__ == "__main__":
    bad = mismatches()
    for key in bad:
        print(f"differs: {key}")
    sys.exit(1 if bad else 0)
