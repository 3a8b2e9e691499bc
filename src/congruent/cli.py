"""Command-line interface: one subcommand per module plus verify-all.

Each leaf command is one row of LEAVES: its path ("conics lattice"), help,
argparse flags and library entry ("module.function", then "dest=parameter"
where a flag is not named as the entry's parameter).  build_parser(argv)
makes every parser of the tree from the rows but gives a leaf its flags only
when its name, the last word of its path, is one of argv's words: argparse
picks a leaf only by a word equal to its name, so the leaf that runs has all
its flags, and every help, usage and error text is the full tree's.  The one
dispatch, _cmd_run, parses the leaf's rational flags, imports the entry's
module on first use and calls the entry, which returns the leaf's record,
and record.checks() gives its named checks.  The results print the record's
_asdict() but the inputs it carries and optional fields left at their
default, every rational exactly as "p/q"; the echoed inputs are the parsed
flags but _NOT_INPUTS, in table order.  The envelope is aligned text or
stable-key JSON; only cassini --emit-curve's labeled approximate points are
floating-point.  Exit codes: 0 all checks pass, 1 a check failed, 2 usage
error, 3 domain error.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from fractions import Fraction
from importlib import import_module

from . import FOOTPRINT_CLASSES
from .exact import EffortOutOfRange, FactorBudgetExceeded, OutputTooLarge, ParameterError
from .exact import format_rat, max_digits, printable_checker

__all__ = ["main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_DOMAIN = 3

# cassini --emit-curve COUNT draws at most this many points, about 0.05 s and
# 50 KB of JSON; COUNT = 1 is the left end of the oval's x range, 0 is none.
MAX_CURVE_POINTS = 1000


# The phrase naming the flag that bounds each command's result size, used
# when a result has more digits than the limit, exact.max_digits()
_SIZE_FLAGS = {
    "recur": "a shorter --path",
    "seq": "a smaller --n (fib), or --m or --k (cheb)",
    "tangent": "a smaller --depth",
}

_INT = {"type": int, "required": True}
_TEXT = {"required": True}  # kept as text; a rational one is parsed by _rational
_SWITCH = {"action": "store_true"}
_ADJOIN = {"choices": ("none", "sqrtN", "sqrt2N"), "default": "none"}
_CASSINI = {
    "--n": _INT, "--f1": _INT, "--f2": _TEXT,
    "--emit-curve": {"type": int, "default": 0, "metavar": "COUNT"},
}  # fmt: skip

# One row per leaf command, in the order of its parser: the command path, its
# help in the top-level list (None for a leaf inside a group), its flags as
# {flag: argparse keywords} and its library entry.
LEAVES = (
    ("triples", "derived rational triples from a Euclid pair", {"--m": _INT, "--n": _INT},
     "triples.derived_family"),
    ("trinity", "vector-system identities, proved by exact evaluation",
     {"--max-order": {"type": int, "default": 4}}, "trinity.identities"),
    ("conics triangle", None, {"--n": _INT, "--f1": _INT, "--f2": _TEXT, "--adjoin": _ADJOIN},
     "conics.conic_example"),
    ("conics intersect", None, {"--t": _TEXT, "--f": {"type": int, "default": 1}},
     "conics.intersect_example"),
    ("conics lattice", None, {"--m": _INT, "--n": _INT, "--t": {"default": argparse.SUPPRESS}},
     "conics.lattice_example"),
    ("conics twin", None, {"--t": _TEXT}, "conics.twin_hyperbolas"),
    ("cassini two", None, {**_CASSINI, "--adjoin": _ADJOIN}, "cassini.heegner_two"),
    ("cassini four", None, _CASSINI, "cassini.four_example"),
    ("tangent", "solution chains by point doubling",
     {"--n": _INT, "--a": _TEXT, "--b": _TEXT, "--depth": {"type": int, "default": 3}},
     "tangent.chain_from_legs"),
    ("footprints verify", None, {"--table": {}}, "footprints.tables_report"),
    ("footprints triangle", None,
     {"--n": _INT, "--m": _INT, "--k": _INT,
      "--cls": {**_TEXT, "choices": FOOTPRINT_CLASSES, "dest": "class"}},
     "footprints.row_triangle class=cls"),
    ("recur walk", None, {"--start-m": _INT, "--start-n": _INT, "--path": _TEXT},
     "recurrence.walk_from"),
    ("recur table-check", None, {}, "recurrence.tree_report"),
    ("seq fib", None, {"--n": _INT, "--odd": _SWITCH}, "sequences.fib_family"),
    ("seq cheb", None, {"--m": _INT, "--k": _INT}, "sequences.cheb_family k=n"),
    ("seq brahmagupta", None, {"--k": _INT}, "sequences.brahmagupta"),
    ("fermat", "square-hypotenuse solution tree",
     {"--depth": {"type": int, "default": 4}, "--find-smallest": _SWITCH}, "fermat.enumerate_tree"),
    ("verify-all", "run every reference-example suite", {}, "verify.report"),
)  # fmt: skip

# The help of each group, the first word of a leaf's path; a group's parser is
# made at its first leaf.
_GROUPS = {
    "conics": "conic constructions",
    "cassini": "quadratic-system ovals and triangles",
    "footprints": "per-class closed forms and tables",
    "recur": "side-walk recurrence trees",
    "seq": "Fibonacci/Lucas and Chebyshev families",
}

# The rational flags' dests; each is parsed before any work
_RATIONALS = ("t", "a", "b", "f2")


def _rational(flag, text):
    """Fraction(text) for a rational flag; ValueError naming the flag past the digit limit.

    Fraction multiplies out an exponent before anything can check it, so an
    exponent beyond the limit plus the text's length, which makes a numerator
    or denominator past the limit, is refused from the text alone.
    """
    limit = max_digits()
    exp = text.lower().partition("e")[2].lstrip("+-").replace("_", "")
    # int() itself refuses an exponent with more digits than the limit
    if not (exp.isdigit() and (len(exp) > limit or int(exp) > limit + len(text))):
        value = Fraction(text)
        with contextlib.suppress(OutputTooLarge):
            printable_checker()(value)
            return value
    raise ValueError(f"{flag}: the value or its exponent is past the {limit}-digit limit")


def _fmt(value):
    """Render any result value with exact rationals as 'p/q' strings."""
    if isinstance(value, Fraction):
        return format_rat(value)
    if isinstance(value, (bool, float)) or value is None:
        return value
    if isinstance(value, int):
        return format_rat(value) if abs(value) >= 2**53 else value
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        # a record prints as its _asdict(); every printed point is affine
        return {k: _fmt(v) for k, v in value._asdict().items() if k != "infinity"}
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    return str(value)


# The namespace entries that are not a command's inputs: argparse's own dests,
# the leaf's entry and the two flags that shape the output, --json and --emit-curve
_NOT_INPUTS = {"json", "command", "sub", "entry", "emit_curve"}


def _envelope(args, record, checks):
    # argparse fills the namespace in flag order, so the echo keeps it
    inputs = {k: v for k, v in vars(args).items() if k not in _NOT_INPUTS}
    # a field that is an input is echoed already, and an optional one left at its default is left out
    defaults = record._field_defaults
    printed = record._asdict().items()
    results = {k: v for k, v in printed if k not in inputs and (k not in defaults or v != defaults[k])}
    return {
        "command": args.command,
        "inputs": _fmt(inputs),
        "results": _fmt(results),
        "checks": [{"name": n, "pass": bool(ok)} for n, ok in checks],
    }


def _emit(envelope, use_json):
    if use_json:
        import json

        sys.stdout.write(json.dumps(envelope, sort_keys=True) + "\n")
        return
    lines = [f"== {envelope['command']} =="]
    for block in ("inputs", "results"):
        if envelope[block]:
            lines += [f"{block}:", *(f"  {k} = {v}" for k, v in envelope[block].items())]
    checks = envelope["checks"]
    if checks:
        width = max(len(c["name"]) for c in checks)
        lines += ["checks:", *(f"  {c['name']:<{width}}  {'pass' if c['pass'] else 'FAIL'}" for c in checks)]
    sys.stdout.write("\n".join(lines) + "\n")


def _oval_points(oval, count):
    """Approximate points {"x": x, "y": y} on the upper half of an oval."""
    import math

    xmax = math.sqrt((float(oval.a2) + math.sqrt(float(oval.b4))) / oval.x_weight)
    pts = []
    for i in range(count):
        x = -xmax + 2 * xmax * i / max(count - 1, 1)
        s, r = oval.y_squared(Fraction(x).limit_denominator(10**6))
        y2 = math.sqrt(float(s)) - float(r)
        pts.append({"x": x, "y": math.sqrt(y2) if y2 > 0 else 0.0})
    return pts


def _cmd_run(args):
    """The envelope of the leaf's record: its entry called with the parsed flags."""
    emit = getattr(args, "emit_curve", 0)
    if not 0 <= emit <= MAX_CURVE_POINTS:  # before any work
        raise EffortOutOfRange("emit_curve", 0, MAX_CURVE_POINTS, emit)
    params = {k: v for k, v in vars(args).items() if k not in _NOT_INPUTS}
    for key in params:
        if key in _RATIONALS:  # in flag order, so the first bad flag is the one reported
            params[key] = _rational(f"--{key}", params[key])
            if key != "f2":  # --f2 may stand for f2 sqrt(N), so it echoes as given
                setattr(args, key, params[key])
    entry, *renames = args.entry.split()
    module, _, function = entry.partition(".")
    renames = dict(rename.split("=") for rename in renames)
    params = {renames.get(k, k): v for k, v in params.items()}
    record = getattr(import_module(f".{module}", __package__), function)(**params)
    envelope = _envelope(args, record, record.checks())
    if emit:
        envelope["results"]["curve_points_approx"] = _oval_points(record.oval, emit)
    return envelope


def build_parser(argv):
    import shutil

    # argparse reads the terminal width for every formatter; read it once per tree
    width = shutil.get_terminal_size().columns - 2

    def formatter(prog):
        return argparse.HelpFormatter(prog, width=width)

    # only a leaf takes --json, as its first flag, so it goes after the command path
    json_flag = {"action": "store_true", "help": "emit a JSON envelope instead of text"}
    description = "Exact constructions and checks for congruent numbers."
    parser = argparse.ArgumentParser(prog="congruent", description=description, formatter_class=formatter)
    # each group gets the prog argparse would derive from its parser's usage
    groups = {"": parser.add_subparsers(dest="command", required=True, prog=parser.prog)}
    named = set(argv)
    for path, summary, flags, entry in LEAVES:
        group, _, name = path.rpartition(" ")
        if group not in groups:
            p = groups[""].add_parser(group, help=_GROUPS[group], formatter_class=formatter)
            # dest only names the missing leaf in argparse's usage error
            groups[group] = p.add_subparsers(dest="sub", required=True, prog=p.prog)
        # a help=None keyword would still list the leaf in its group's help
        kwargs = {} if summary is None else {"help": summary}
        p = groups[group].add_parser(name, **kwargs, formatter_class=formatter)
        # the leaf overrides the group's command with its own path, "conics triangle"
        p.set_defaults(command=path, entry=entry)
        if name in named:  # a leaf argv does not name cannot run, so its flags go unused
            for flag, spec in {"--json": json_flag, **flags}.items():
                p.add_argument(flag, **spec)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        envelope = _cmd_run(args)
    except OutputTooLarge:
        hint = _SIZE_FLAGS.get(args.command.partition(" ")[0], "smaller inputs")
        print(f"error: a result exceeds the {max_digits()}-digit output limit; use {hint}", file=sys.stderr)
        return EXIT_DOMAIN
    except ParameterError as exc:  # the one place a library parameter is worded as its flag
        print(f"error: --{exc.name.replace('_', '-')} {exc.reason}", file=sys.stderr)
        return EXIT_DOMAIN
    except (ValueError, ArithmeticError, FactorBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    _emit(envelope, args.json)
    return EXIT_OK if all(c["pass"] for c in envelope["checks"]) else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
