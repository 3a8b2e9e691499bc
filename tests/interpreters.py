"""Replay the gate's, the README examples' and the parser texts' digests on one interpreter.

Usage: python3.X tests/interpreters.py

It uses the standard library only, so it runs on an interpreter without the
test dependencies.  It reads the digests recorded in perfbench/pool.json
(read-only), runs verify.run_all() and each README example through
cli.main(argv + ["--json"]), compares the parser texts with
PARSER_TEXTS_DIGEST, prints each op whose digest differs and exits 1 if
there is one.
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
PARSER_TEXTS_DIGEST = "9b8cd4066406c9d4"


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


def mismatches():
    """The ops whose output differs from its digest: the gate, the README examples, the parser texts."""
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
    return bad


if __name__ == "__main__":
    bad = mismatches()
    for key in bad:
        print(f"differs: {key}")
    sys.exit(1 if bad else 0)
