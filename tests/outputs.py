"""Capture, digest and replay the CLI calls the tests pin or compare.

Usage:
    python3.X tests/outputs.py              replay the pinned digests on this interpreter
    python3.X tests/outputs.py OUT          write one "<hash>  <call>" line per call to OUT
    python3.X tests/outputs.py --diff A B   print each call whose hash differs between A and B

It uses the standard library only, so it runs on an interpreter without the
test dependencies, and reads perfbench/pool.json read-only.  Every call runs
in process through cli.main at COLUMNS=200, where no parser text wraps
differently between interpreters (at 30, 80 and 100, 3.13 re-wraps some).

The replay compares the gate's check list and the README ops' --json output
with the digests the pool records, the parser texts with PARSER_TEXTS_DIGEST
and the echo cases' outputs with ECHO_DIGEST, and parses every hashed call
with the tree its argv names and with the full tree (unlike_the_full_tree);
it prints each that differs and exits 1 if there is one.

OUT hashes every op key of the pool (cli, growth and defects) and each of
its rejected keys, each as text and with --json; the README examples, the
same two ways; PARSER_CALLS; EDGE_CASES; and repr(verify.run_all()).  A
call's hash covers its exit code (or the exception it raised), its stdout
and its stderr.  Run it in two checkouts (a parent and a change) and
compare the files with --diff, which exits 1 if a call differs.  Any
other first argument that starts with "-" prints this usage.
"""

import argparse
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

GATE = "verify.run_all()"

_ROOT_AND_GROUPS = ["", *cli._GROUPS]
# -h and a bad flag on all 24 parsers, and no arguments on the root and each group
PARSER_CALLS = [
    path.split() + tail
    for path in _ROOT_AND_GROUPS + [row[0] for row in cli.LEAVES]
    for tail in (["-h"], ["--no-such-flag"], *([[]] if path in _ROOT_AND_GROUPS else []))
]

# The digest of transcript(PARSER_CALLS), the same on CPython 3.10 to 3.13
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
# each as text and as --json: JSON sorts its keys, so only the text shows the echo's order
ECHO_CALLS = [argv for case in ECHO_CASES for argv in (case.split(), [*case.split(), "--json"])]

# The digest of transcript(ECHO_CALLS), the same on CPython 3.10 to 3.13
ECHO_DIGEST = "c2d69b5e984b3861"

# Calls that no pool op makes: --json before a leaf, a leaf and a group
# abbreviated, a leaf's and a group's name as a flag value, a zero
# denominator, and N <= 0 in both Cassini systems
EDGE_CASES = (
    "--json triples --m 2 --n 1",
    "conics --json lattice --m 1 --n 2",
    "conics lat --m 1 --n 2",
    "con twin --t 10",
    "cassini two --n 29 --f1 1 --f2 twin",
    "recur walk --start-m 2 --start-n 1 --path seq",
    "conics twin --t 1/0",
    "cassini two --n 0 --f1 1 --f2 1",
    "cassini four --n 0 --f1 1 --f2 1",
    "cassini two --n -30 --f1 1 --f2 3",
    "cassini four --n -5 --f1 1 --f2 1",
)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def capture(argv):
    """("exit <code>" or the exception raised, stdout, stderr) of cli.main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = f"exit {cli.main(argv)}"
        except SystemExit as exc:
            result = f"exit {exc.code}"
        except Exception as exc:  # a defect op raises out of cli.main
            result = f"exception {type(exc).__name__}: {exc}"
    return result, out.getvalue(), err.getvalue()


def transcript(argvs):
    """Each call's command line, [exit code], stdout and stderr, as one text."""
    texts = []
    for argv in argvs:
        result, out, err = capture(argv)
        texts += [f"$ congruent {' '.join(argv)}\n[{result}]\n", out, err]
    return "".join(texts)


def pool():
    return json.loads((ROOT / "perfbench" / "pool.json").read_text())


def ops(**strata):
    """{key: recorded digest} of the pool ops in the named strata, as ops(cli=["readme"])."""
    workloads = pool()["workloads"]
    return {
        key: entry["digest"]
        for workload, names in strata.items()
        for name in names
        for key, entry in workloads[workload][name].items()
    }


def replay(ops):
    """The keys of ops {key: digest} whose --json call fails or prints other bytes."""
    bad = []
    for key, want in ops.items():
        result, out, _ = capture([*key.split(), "--json"])
        if result != "exit 0" or digest(out) != want:
            bad.append(key)
    return bad


def gate_digest():
    """The digest of every check's suite, name and outcome, as the pool records the gate's."""
    named = [[suite, name, bool(ok)] for suite, checks in verify.run_all().items() for name, ok in checks]
    return digest(json.dumps(named))


def readme_examples():
    """The README's CLI examples, each split into words."""
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.splitlines() if line.strip()]


# Every word of every command path, groups included: build_parser(PATH_WORDS)
# is the full tree, in which every parser has -h and every leaf its flags
PATH_WORDS = list(dict.fromkeys(word for path, *_ in cli.LEAVES for word in path.split()))


def parsers(parser):
    """The parser and every parser below it, depth first."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for child in action.choices.values():
                yield from parsers(child)


def parse(parser, argv):
    """vars(parser.parse_args(argv)), or (exit code, stdout, stderr) where argparse exits."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


def unlike_the_full_tree():
    """The hashed calls that build_parser(argv) parses unlike the full tree.

    Each must give the full tree's namespace, or its exit code, stdout and
    stderr.  build_parser reads only which path words argv holds, so one tree
    serves each set of them.  "the full tree" is listed when it lacks a
    parser's -h or a leaf's flags, and an abbreviated leaf or group is listed
    unless the full tree refuses it: argparse picks a parser only by a word
    equal to its name, so a parser argv does not name never runs.
    """
    full = cli.build_parser(PATH_WORDS)
    options = {p.prog: [a.option_strings[0] for a in p._actions if a.option_strings] for p in parsers(full)}
    want = {f"congruent {path}": ["-h", "--json", *flags] for path, _, flags, _ in cli.LEAVES}
    bad = [] if options == {prog: want.get(prog, ["-h"]) for prog in options} else ["the full tree"]
    trees = {}
    for argv in calls():
        named = frozenset(argv).intersection(PATH_WORDS)
        if named not in trees:
            trees[named] = cli.build_parser(argv)
        if parse(trees[named], argv) != parse(full, argv):
            bad.append(" ".join(argv))
    for abbreviated in ("conics lat --m 1 --n 2", "con twin --t 10"):
        code, _, err = parse(full, abbreviated.split())
        if code != 2 or "invalid choice" not in err:
            bad.append(abbreviated)
    return bad


def mismatches():
    """The pinned outputs that differ: the gate, README ops, parser texts, echoes and narrow parses."""
    bad = [] if ops(gate=["gate"]) == {GATE: gate_digest()} else [GATE]
    bad += replay(ops(cli=["readme"]))
    pins = ("parser texts", PARSER_CALLS, PARSER_TEXTS_DIGEST), ("echoes", ECHO_CALLS, ECHO_DIGEST)
    for name, argvs, want in pins:
        if digest(transcript(argvs)) != want:
            bad.append(name)
    return bad + unlike_the_full_tree()


def calls():
    """The argv of every hashed CLI call, in a fixed order."""
    recorded = pool()
    keys = [
        key
        for workload in ("cli", "growth", "defects")
        for stratum in recorded["workloads"][workload].values()
        for key in stratum
    ]
    keys += list(recorded["rejected"]) + [" ".join(words[1:]) for words in readme_examples()]
    for key in dict.fromkeys(keys):  # the README examples are pool ops too
        yield key.split()
        yield [*key.split(), "--json"]
    yield from PARSER_CALLS
    for case in EDGE_CASES:
        yield case.split()


def hashes():
    """One "<hash>  <call>" line per call, then the gate's."""
    lines = [(digest("\n".join(capture(argv))), " ".join(["congruent", *argv])) for argv in calls()]
    lines.append((digest(repr(verify.run_all())), GATE))
    return [f"{h}  {call}" for h, call in lines]


def _read(path):
    """{call: hash} from a file of hashes()."""
    lines = (line.partition("  ") for line in Path(path).read_text().splitlines())
    return {call: h for h, _, call in lines}


def diff(a, b):
    """The calls whose hash differs between two files of hashes(), or that only one holds."""
    old, new = _read(a), _read(b)
    return [call for call in {**old, **new} if old.get(call) != new.get(call)]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "200"
    if len(sys.argv) == 2 and not sys.argv[1].startswith("-"):
        Path(sys.argv[1]).write_text("\n".join(hashes()) + "\n")
        sys.exit()
    if len(sys.argv) == 1:
        bad = mismatches()
    elif sys.argv[1] == "--diff" and len(sys.argv) == 4:
        bad = diff(*sys.argv[2:])
    else:
        sys.exit(__doc__)
    for key in bad:
        print(f"differs: {key}")
    sys.exit(1 if bad else 0)
