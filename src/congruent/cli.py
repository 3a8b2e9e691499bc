"""Command-line interface: one subcommand per module plus verify-all.

The table LEAVES holds one row per leaf command: its path ("conics
lattice"), its help and its flags as argparse keywords.  build_parser
makes the parser tree from it, a group's parser (help from _GROUPS) at
the group's first leaf.  argparse picks the leaf, and each leaf parser
names its one handler, _cmd_<path> looked up by name as the tree is
built, which returns (results, checks).  The results hold the library's
own records; _fmt prints a record as its fields, every rational exactly
as "p/q".  The echoed inputs are the parsed flags but _NOT_INPUTS, in the
table's order, each rational a handler parsed stored back on args.  The
envelope (command path, inputs, results, named checks) is emitted as
aligned text or stable-key JSON; only the labeled approximate point
dumps of cassini --emit-curve are floating-point.  Exit codes: 0 all
checks pass, 1 a check failed, 2 usage error, 3 domain/arithmetic error.
Each handler imports its modules on first use, so a one-shot command
loads only what it runs.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from fractions import Fraction

from . import FOOTPRINT_CLASSES
from .exact import EffortOutOfRange, FactorBudgetExceeded, OutputTooLarge, ParameterError
from .exact import format_rat, printable_checker

__all__ = ["main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3

# cassini --emit-curve COUNT draws at most this many points, about 0.05 s and
# 50 KB of JSON; COUNT = 1 is the left end of the oval's x range, 0 is none.
MAX_CURVE_POINTS = 1000


# The phrase naming the flag that bounds each command's result size, used
# when a result has more digits than Python converts to text (4300 by
# default, sys.get_int_max_str_digits()).
_SIZE_FLAGS = {
    "recur": "a shorter --path",
    "seq": "a smaller --n (fib), or --m or --k (cheb)",
    "tangent": "a smaller --depth",
}

_INT = {"type": int, "required": True}
_TEXT = {"required": True}  # kept as text; a handler parses a rational with _rational
_SWITCH = {"action": "store_true"}
_ADJOIN = {"choices": ("none", "sqrtN", "sqrt2N"), "default": "none"}
_CASSINI = {
    "--n": _INT, "--f1": _INT, "--f2": _TEXT,
    "--emit-curve": {"type": int, "default": 0, "metavar": "COUNT"},
}  # fmt: skip

# One row per leaf command, in the order of its parser: the command path, its
# help in the top-level list (None for a leaf inside a group) and its flags as
# {flag: argparse keywords}.  The path names the handler, _cmd_<path>.
LEAVES = (
    ("triples", "derived rational triples from a Euclid pair", {"--m": _INT, "--n": _INT}),
    ("trinity", "vector-system identities, proved by exact evaluation",
     {"--max-order": {"type": int, "default": 4}}),
    ("conics triangle", None, {"--n": _INT, "--f1": _INT, "--f2": _TEXT, "--adjoin": _ADJOIN}),
    ("conics intersect", None, {"--t": _TEXT, "--f": {"type": int, "default": 1}}),
    ("conics lattice", None, {"--m": _INT, "--n": _INT, "--t": {"default": argparse.SUPPRESS}}),
    ("conics twin", None, {"--t": _TEXT}),
    ("cassini two", None, {**_CASSINI, "--adjoin": _ADJOIN}),
    ("cassini four", None, _CASSINI),
    ("tangent", "solution chains by point doubling",
     {"--n": _INT, "--a": _TEXT, "--b": _TEXT, "--depth": {"type": int, "default": 3}}),
    ("footprints verify", None, {"--table": {}}),
    ("footprints triangle", None,
     {"--n": _INT, "--m": _INT, "--k": _INT,
      "--cls": {**_TEXT, "choices": FOOTPRINT_CLASSES, "dest": "class"}}),
    ("recur walk", None, {"--start-m": _INT, "--start-n": _INT, "--path": _TEXT}),
    ("recur table-check", None, {}),
    ("seq fib", None, {"--n": _INT, "--odd": _SWITCH}),
    ("seq cheb", None, {"--m": _INT, "--k": _INT}),
    ("seq brahmagupta", None, {"--k": _INT}),
    ("fermat", "square-hypotenuse solution tree",
     {"--depth": {"type": int, "default": 4}, "--find-smallest": _SWITCH}),
    ("verify-all", "run every reference-example suite", {}),
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


def _rational(flag, text):
    """Fraction(text) for a rational flag; ValueError naming the flag past the digit limit.

    Fraction multiplies out an exponent before anything can check it, so an
    exponent beyond the limit plus the text's length, which makes a numerator
    or denominator past the limit, is refused from the text alone.
    """
    limit = sys.get_int_max_str_digits()
    exp = text.lower().partition("e")[2].lstrip("+-").replace("_", "")
    # int() itself refuses an exponent with more digits than the limit
    if not (limit and exp.isdigit() and (len(exp) > limit or int(exp) > limit + len(text))):
        value = Fraction(text)
        with contextlib.suppress(OutputTooLarge):
            printable_checker()(value)
            return value
    raise ValueError(f"{flag}: the value or its exponent is past the {limit}-digit limit")


def _fmt(value):
    """Render any result value with exact rationals as 'p/q' strings."""
    if isinstance(value, Fraction):
        return format_rat(value)
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, int):
        return format_rat(value) if abs(value) >= 2**53 else value
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        # a record prints as its fields; every printed point is affine
        return {f: _fmt(v) for f, v in zip(value._fields, value) if f != "infinity"}
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    return str(value)


# The namespace entries that are not a command's inputs: argparse's own dests
# and the two flags that shape the output, --json and --emit-curve
_NOT_INPUTS = {"json", "command", "sub", "handler", "emit_curve"}


def _envelope(args, results, checks):
    # argparse fills the namespace in flag order, so the echo keeps it
    inputs = {k: v for k, v in vars(args).items() if k not in _NOT_INPUTS}
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
    sys.stdout.write(f"== {envelope['command']} ==\n")
    if envelope["inputs"]:
        sys.stdout.write("inputs:\n")
        for k, v in envelope["inputs"].items():
            sys.stdout.write(f"  {k} = {v}\n")
    if envelope["results"]:
        sys.stdout.write("results:\n")
        for k, v in envelope["results"].items():
            sys.stdout.write(f"  {k} = {v}\n")
    if envelope["checks"]:
        width = max(len(c["name"]) for c in envelope["checks"])
        sys.stdout.write("checks:\n")
        for c in envelope["checks"]:
            mark = "pass" if c["pass"] else "FAIL"
            sys.stdout.write(f"  {c['name']:<{width}}  {mark}\n")


# --- one handler per leaf command; each returns (results, checks) ---


def _cmd_triples(args):
    from . import triples
    pair = triples.derive(args.m, args.n)
    tris = triples.derived_triples(pair)
    areas, lhs = list(pair.quad), triples.area_identity(pair)["lhs"]
    root = Fraction(triples.distance_identity(pair)["lhs_root"], pair.d)
    concordant = triples.concordant_solutions(pair)
    results = dict(zip(("triple_ac", "triple_bc", "triple_ba"), tris))
    results.update(areas=areas, area_identity_value=lhs, concordant=concordant, distance_root=root)
    checks = [
        ("area identity", triples.area_relation(areas, pair.triple.c, lhs)),
        ("distance identity", triples.distance_relation(tris, root)),
    ]
    return results, checks


def _cmd_trinity(args):
    from . import trinity
    checks = trinity.verify_all(args.max_order)
    rep = trinity.circle_check()
    checks.append(("trig circles numeric", rep["ok"]))
    results = {"circles": rep["circles"], "circles_failed": rep["failed"]}
    return results, checks


def _cmd_conics_triangle(args):
    from . import conics, elliptic
    tri = conics.conic_triangle(args.n, args.f1, _rational("--f2", args.f2), args.adjoin)
    p1, p2 = conics.conic_ec_points(tri)
    e_n = elliptic.curve_en(args.n)
    checks = [
        ("area = N", tri.is_right_of_area(args.n)),
        # E_N(Q)_tors = {O, (0,0), (±N,0)} (Koblitz, ch. I, Prop. 17): a point
        # of E_N with y != 0 has infinite order
        ("points infinite order", all(p.y != 0 and e_n.contains(p) for p in (p1, p2))),
    ]
    return {"triangle": tri, "p1": p1, "p2": p2}, checks


def _cmd_conics_intersect(args):
    from . import conics
    args.t = t = _rational("--t", args.t)
    n_t, (x, e), tri, p1, p2 = conics.intersect_example(t, args.f)
    results = {"n": n_t, "ellipse_point": {"x": x, "e": e}, "triangle": tri, "p1": p1, "p2": p2}
    checks = conics.intersect_checks(n_t, (x, e), tri, p1, p2, args.f)
    return results, checks


def _cmd_conics_lattice(args):
    from . import conics
    if "t" in args:  # parsed before any work, so a bad --t is the error reported
        args.t = _rational("--t", args.t)
    m, n = args.m, args.n
    pts, tris = conics.lattice_points(m, n)
    results = {"points": [{"x": x, "e": e} for x, e in pts], "triangles": tris}
    checks = [("lattice triangles have area x_i", conics.lattice_relation(m, n, pts, tris))]
    if "t" in args:
        results["secondary"] = sec = conics.lattice_secondary(m, n, args.t)
        checks.append(("secondary intersections verified", conics.secondary_relation(m, n, args.t, sec)))
    return results, checks


def _cmd_conics_twin(args):
    from . import conics
    args.t = t = _rational("--t", args.t)
    n1, n2, tri1, tri2 = conics.twin_hyperbolas(t)
    checks = conics.twin_checks(t, n1, n2, tri1, tri2)
    return {"n1": n1, "n2": n2, "triangle1": tri1, "triangle2": tri2}, checks


def _oval_points(oval, count):
    """Approximate (x, y) points on the upper half of an oval."""
    import math

    b2 = math.sqrt(float(oval.b4))
    a2 = float(oval.a2)
    w = oval.x_weight
    xmax = math.sqrt((a2 + b2) / w)
    pts = []
    for i in range(count):
        x = -xmax + 2 * xmax * i / max(count - 1, 1)
        s, r = oval.y_squared(Fraction(x).limit_denominator(10**6))
        y2 = math.sqrt(float(s)) - float(r)
        pts.append((x, math.sqrt(y2) if y2 > 0 else 0.0))
    return pts


def _cassini(args, quad, tri, oval, axis):
    """The envelope parts that the two- and four-intersection systems share."""
    results = {
        "c1_sq": quad.c1sq,
        "c2": quad.c2,
        "c3_sq": quad.c3sq,
        "c4_sq": quad.c4sq,
        "triangle": tri,
        "oval": {"a_sq": oval.a2, "b_4": oval.b4, "loops": oval.loops},
        "axis_x_sq": axis["x2"],
        "axis_y_sq": axis["y2"],
    }
    if args.emit_curve:
        results["curve_points_approx"] = [
            {"x": x, "y": y} for x, y in _oval_points(oval, args.emit_curve)
        ]
    return results, [("triangle area = N", tri.is_right_of_area(args.n))]


def _cmd_cassini_two(args):
    from . import cassini
    if not 0 <= args.emit_curve <= MAX_CURVE_POINTS:  # before any work
        raise EffortOutOfRange("emit_curve", 0, MAX_CURVE_POINTS, args.emit_curve)
    quad, tri, oval = cassini.heegner_two(args.n, args.f1, _rational("--f2", args.f2), args.adjoin)
    return _cassini(args, quad, tri, oval, cassini.oval_axis_points(oval))


def _cmd_cassini_four(args):
    from . import cassini
    if not 0 <= args.emit_curve <= MAX_CURVE_POINTS:  # before any work
        raise EffortOutOfRange("emit_curve", 0, MAX_CURVE_POINTS, args.emit_curve)
    f2 = _rational("--f2", args.f2)
    return _cassini(args, *cassini.heegner_four(args.n, args.f1, f2**2))


def _cmd_tangent(args):
    from . import tangent, triples
    args.a = a = _rational("--a", args.a)
    args.b = b = _rational("--b", args.b)
    tri = triples.RatTriangle.from_legs(a, b)
    chain = tangent.tangent_chain(tri, args.n, depth=args.depth)
    results = {
        "solutions": [{"f1": e.f1, "f2": e.f2} for e in chain.entries],
        "triangles": [e.triangle for e in chain.entries],
        "points": [e.point for e in chain.entries],
    }
    checks = [("doubling relation", chain.doubling_holds())]
    return results, checks


def _cmd_footprints_verify(args):
    from . import footprints
    reports = footprints.verify_tables(args.table)
    bad = [r for r in reports if not r["ok"]]
    results = {"rows": len(reports), "failed": len(bad)}
    if bad:
        results["failures"] = [{"row": str(r["row"]), "error": r["error"]} for r in bad]
    checks = [(f"all {len(reports)} rows rebuild their triangle", not bad)]
    return results, checks


def _cmd_footprints_triangle(args):
    from . import footprints
    row = footprints.FootprintRow(args.n, args.m, args.k, getattr(args, "class"))
    pq = footprints.footprint_pq(row)
    tri = footprints.footprint_triangle(row, pq)
    results = {"p_sq": pq.p_sq, "q_sq": pq.q_sq, "triangle": tri}
    checks = [("area = N", tri.is_right_of_area(args.n))]
    return results, checks


def _cmd_recur_walk(args):
    from . import recurrence
    tri0, n0 = recurrence.euclid_root(args.start_m, args.start_n)
    steps = recurrence.walk(tri0, n0, args.path)
    results = {
        "start": {"n": n0, "triangle": tri0},
        "steps": [{"n": n, "triangle": tri} for n, tri in steps],
    }
    # each printed N must be the area of its printed triangle
    right = all(tri.is_right_of_area(n) for n, tri in [(n0, tri0), *steps])
    checks = [("every step is a valid right triangle", right)]
    return results, checks


def _cmd_recur_table_check(args):
    from . import recurrence
    reports = recurrence.verify_tree_table()
    bad = [r for r in reports if not r["ok"]]
    results = {"cells": len(reports), "failed": len(bad)}
    return results, [("all table cells reproduce", not bad)]


def _seq_family(tri, n, pts):
    """The envelope of a family that prints a triangle, its N and its curve points."""
    results = {"triangle": tri, "congruent_number": n, "points": pts}
    return results, [("area = N", tri.is_right_of_area(n))]


def _cmd_seq_fib(args):
    from . import sequences
    family = sequences.fib_odd_family if args.odd else sequences.fib_even_family
    return _seq_family(*family(args.n))


def _cmd_seq_cheb(args):
    from . import sequences
    return _seq_family(*sequences.cheb_family(args.m, args.k))


def _cmd_seq_brahmagupta(args):
    from . import sequences
    bt, curve, qs, orders = sequences.brahmagupta(args.k)
    results = {
        "sides": [bt.a, bt.b, bt.c],
        "semiperimeter": bt.perimeter_half,
        "area": bt.area,
        "curve": curve,
        "points": qs,
        "orders": orders,
    }
    p = bt.perimeter_half
    checks = [
        ("Heron area", p * (p - bt.a) * (p - bt.b) * (p - bt.c) == bt.area**2),
        ("points on curve", all(curve.contains(q) for q in qs)),
        ("order 4 (degenerate)", orders == (4, 4, 4, 4))
        if args.k == 0
        else ("infinite order", orders is None),
    ]
    return results, checks


def _cmd_fermat(args):
    from . import fermat
    tree = fermat.enumerate_tree(args.depth)
    nodes = []
    for d, n in tree.nodes:
        # c > 0 is converted to text once; the digit count reads that text
        c = _fmt(n.c)
        nodes.append(
            {
                "depth": d,
                "x": n.x,
                "a": n.a,
                "b": n.b,
                "c": c,
                "kind": n.kind,
                "digits": len(str(c)),
            }
        )
    results = {"nodes": nodes}
    checks = [(f"{len(nodes)} nodes pass square invariants", tree.invariants_hold())]
    if args.find_smallest:
        small = tree.smallest_sum()
        if small is not None:
            results["smallest"] = {f: getattr(small, f) for f in ("a", "b", "c", "sum_root", "hyp_root")}
        checks.append(("smallest sum-type solution found", small is not None))
    return results, checks


def _cmd_verify_all(args):
    from . import verify
    results = {}
    checks = []
    failed = []
    for name, suite_checks in verify.run_all().items():
        ok = all(p for _, p in suite_checks)
        results[name] = f"{sum(p for _, p in suite_checks)}/{len(suite_checks)}"
        checks.append((name, ok))
        failed += [check for check, p in suite_checks if not p]
    if failed:
        results["failed_checks"] = failed
    return results, checks


def build_parser():
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
    for path, summary, flags in LEAVES:
        group, _, name = path.rpartition(" ")
        if group not in groups:
            p = groups[""].add_parser(group, help=_GROUPS[group], formatter_class=formatter)
            # dest only names the missing leaf in argparse's usage error
            groups[group] = p.add_subparsers(dest="sub", required=True, prog=p.prog)
        # a help=None keyword would still list the leaf in its group's help
        kwargs = {} if summary is None else {"help": summary}
        p = groups[group].add_parser(name, **kwargs, formatter_class=formatter)
        # the handler is looked up now, so a rebound _cmd_* attribute is the one called
        handler = globals()["_cmd_" + path.replace(" ", "_").replace("-", "_")]
        # the leaf overrides the group's command with its own path, "conics triangle"
        p.set_defaults(handler=handler, command=path)
        for flag, spec in {"--json": json_flag, **flags}.items():
            p.add_argument(flag, **spec)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        envelope = _envelope(args, *args.handler(args))
    except OutputTooLarge:
        limit = sys.get_int_max_str_digits()
        hint = _SIZE_FLAGS.get(args.command.partition(" ")[0], "smaller inputs")
        print(f"error: a result exceeds the {limit}-digit output limit; use {hint}", file=sys.stderr)
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
