"""Command-line interface: one subcommand per module plus verify-all.

Every command builds an envelope (command echo, inputs, exact results,
named checks) and emits it as aligned text or stable-key JSON.  All
rationals are printed exactly as "p/q"; the only floating-point values
ever emitted are the explicitly labeled approximate entries of the
trinity circle report and --emit-curve point dumps.  Exit codes: 0 all
checks pass, 1 a check failed, 2 usage error, 3 domain/arithmetic error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import (
    cassini,
    conics,
    fermat,
    footprints,
    recurrence,
    sequences,
    tangent,
    trinity,
    triples,
    verify,
)
from .exact import FactorBudgetExceeded, format_rat, parse_rat

__all__ = ["main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3


def _fmt(value):
    """Render any result value with exact rationals as 'p/q' strings."""
    if isinstance(value, Fraction):
        return format_rat(value)
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, int):
        return str(value) if abs(value) >= 2**53 else value
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    return str(value)


def _envelope(args, inputs, results, checks):
    return {
        "command": args.command if not getattr(args, "sub", None) else f"{args.command} {args.sub}",
        "inputs": _fmt(inputs),
        "results": _fmt(results),
        "checks": [{"name": n, "pass": bool(ok)} for n, ok in checks],
    }


def _emit(envelope, use_json, stream=None):
    if stream is None:
        stream = sys.stdout
    if use_json:
        stream.write(json.dumps(envelope, sort_keys=True) + "\n")
        return
    stream.write(f"== {envelope['command']} ==\n")
    if envelope["inputs"]:
        stream.write("inputs:\n")
        for k, v in envelope["inputs"].items():
            stream.write(f"  {k} = {v}\n")
    if envelope["results"]:
        stream.write("results:\n")
        for k, v in envelope["results"].items():
            stream.write(f"  {k} = {v}\n")
    if envelope["checks"]:
        width = max(len(c["name"]) for c in envelope["checks"])
        stream.write("checks:\n")
        for c in envelope["checks"]:
            mark = "pass" if c["pass"] else "FAIL"
            stream.write(f"  {c['name']:<{width}}  {mark}\n")


def _tri_dict(tri):
    return {"a": tri.a, "b": tri.b, "c": tri.c}


def _point(p):
    return {"x": p.x, "y": p.y}


# --- per-command handlers; each returns (inputs, results, checks) ---


def _cmd_triples(args):
    m, n = args.m, args.n
    ac, bc, ba = triples.derived_triples(m, n)
    quad = triples.area_quad(m, n)
    ident = triples.area_identity_check(m, n)
    dist = triples.distance_identity(m, n)
    sols = triples.concordant_solutions(m, n)
    results = {
        "triple_ac": _tri_dict(ac),
        "triple_bc": _tri_dict(bc),
        "triple_ba": _tri_dict(ba),
        "areas": [quad.n, quad.n_ac, quad.n_bc, quad.n_ba],
        "area_identity_value": ident["lhs"],
        "concordant": [
            {"x": s.x, "y": s.y, "z": s.z, "t": s.t, "n": s.n} for s in sols
        ],
        "distance_root": dist["lhs_root"],
    }
    checks = [
        ("area identity", ident["holds"]),
        ("distance identity", dist["holds"]),
    ]
    return {"m": m, "n": n}, results, checks


def _cmd_trinity(args):
    checks = verify.suite_trinity(max_order=args.max_order, samples=args.samples)
    rep = trinity.circle_check(args.samples)
    results = {
        "circle_points_checked": rep["points"],
        "circle_max_residual_approx": rep["max_residual"],
        "tolerance": 1e-9,
    }
    return {"max_order": args.max_order, "samples": args.samples}, results, checks


def _cmd_conics(args):
    if args.sub == "triangle":
        inp = conics.conic_input(args.n, args.f1, parse_rat(args.f2), args.adjoin)
        tri = conics.conic_triangle(inp)
        p1, p2 = conics.conic_ec_points(inp)
        results = {
            "triangle": _tri_dict(tri),
            "p1": _point(p1),
            "p2": _point(p2),
        }
        checks = [("area = N", tri.area == args.n), ("points infinite order", True)]
        inputs = {"n": args.n, "f1": args.f1, "f2": args.f2, "adjoin": args.adjoin}
    elif args.sub == "intersect":
        t = parse_rat(args.t)
        n_t, (x_t, e_t), tri, p1, p2 = conics.intersect_example(t, args.f)
        results = {
            "n": n_t,
            "ellipse_point": {"x": x_t, "e": e_t},
            "triangle": _tri_dict(tri),
            "p1": _point(p1),
            "p2": _point(p2),
        }
        checks = conics.intersect_polynomial_identity()
        inputs = {"t": t, "f": args.f}
    elif args.sub == "lattice":
        pts, tris = conics.lattice_points(args.m, args.n)
        results = {
            "points": [{"x": x, "e": e} for x, e in pts],
            "triangles": [_tri_dict(t) for t in tris],
        }
        areas_ok = all(tri.area == x for (x, _), tri in zip(pts, tris))
        checks = [("lattice triangles have area x_i", areas_ok)]
        inputs = {"m": args.m, "n": args.n}
        if args.t is not None:
            sec = conics.lattice_secondary(args.m, args.n, parse_rat(args.t))
            results["secondary"] = [
                {
                    "x2": r["point"][0],
                    "e2": r["point"][1],
                    "n2": r["n2"],
                    "primitive": r["primitive"],
                    "triangle": _tri_dict(r["triangle"]),
                }
                for r in sec
            ]
            sec_ok = all(r["triangle"].area == r["primitive"] for r in sec)
            checks.append(("secondary intersections verified", sec_ok))
            inputs["t"] = parse_rat(args.t)
    else:  # twin
        t = parse_rat(args.t)
        n1, n2, t1, t2 = conics.twin_hyperbolas(t)
        results = {
            "n1": n1,
            "n2": n2,
            "triangle1": _tri_dict(t1),
            "triangle2": _tri_dict(t2),
        }
        checks = conics.twin_polynomial_identities()
        inputs = {"t": t}
    return inputs, results, checks


def _oval_samples(oval, count):
    """Approximate (x, y) samples on the upper half of an oval."""
    import math

    b2 = math.sqrt(float(oval.b4))
    a2 = float(oval.a2)
    w = oval.x_weight
    xmax = math.sqrt((a2 + b2) / w)
    pts = []
    for i in range(count):
        x = -xmax + 2 * xmax * i / (count - 1)
        s, r = oval.y_squared(Fraction(x).limit_denominator(10**6))
        y2 = math.sqrt(float(s)) - float(r)
        pts.append((x, math.sqrt(y2) if y2 > 0 else 0.0))
    return pts


def _cmd_cassini(args):
    if args.sub == "two":
        quad, tri, oval = cassini.heegner_two(
            args.n, args.f1, parse_rat(args.f2), args.adjoin
        )
    else:
        quad, tri, oval, _ = cassini.heegner_four(
            args.n, args.f1, parse_rat(args.f2) ** 2
        )
    axis = cassini.oval_axis_points(oval)
    results = {
        "c1_sq": quad.c1sq,
        "c2": quad.c2,
        "c3_sq": quad.c3sq,
        "c4_sq": quad.c4sq,
        "triangle": _tri_dict(tri),
        "oval": {"a_sq": oval.a2, "b_4": oval.b4, "loops": oval.loops},
        "axis_x_sq": axis["x2"],
        "axis_y_sq": axis["y2"],
    }
    if args.emit_curve:
        results["curve_points_approx"] = [
            {"x": x, "y": y} for x, y in _oval_samples(oval, args.emit_curve)
        ]
    checks = [("triangle area = N", tri.area == args.n)]
    inputs = {"n": args.n, "f1": args.f1, "f2": args.f2}
    if args.sub == "two":
        inputs["adjoin"] = args.adjoin
    return inputs, results, checks


def _cmd_tangent(args):
    from .triples import RatTriangle

    a = parse_rat(args.a)
    b = parse_rat(args.b)
    from .exact import rat_sqrt

    c = rat_sqrt(a**2 + b**2)
    if c is None:
        raise ValueError("a and b are not the legs of a rational right triangle")
    tri = RatTriangle(a, b, c)
    chain = tangent.tangent_chain(tri, args.n, depth=args.depth)
    results = {
        "solutions": [{"f1": e.f1, "f2": e.f2} for e in chain.entries],
        "triangles": [_tri_dict(e.triangle) for e in chain.entries],
        "points": [_point(e.point) for e in chain.entries],
    }
    checks = [("doubling relation", chain.doubling_holds())]
    return {"n": args.n, "a": a, "b": b, "depth": args.depth}, results, checks


def _cmd_footprints(args):
    if args.sub == "verify":
        reports = footprints.verify_tables(args.table)
        bad = [r for r in reports if not r["ok"]]
        results = {"rows": len(reports), "failed": len(bad)}
        if bad:
            results["failures"] = [
                {"row": str(r["row"]), "error": r["error"]} for r in bad
            ]
        checks = [(f"all {len(reports)} rows rebuild their triangle", not bad)]
        return {"table": args.table}, results, checks
    row = footprints.FootprintRow(args.n, args.m, args.k, args.cls)
    tri = footprints.footprint_triangle(row)
    pq = footprints.footprint_pq(row)
    results = {
        "p_sq": pq.p_sq,
        "q_sq": pq.q_sq,
        "triangle": _tri_dict(tri),
    }
    checks = [("area = N", tri.area == args.n)]
    return {"n": args.n, "m": args.m, "k": args.k, "class": args.cls}, results, checks


def _cmd_recur(args):
    if args.sub == "table-check":
        reports = recurrence.verify_tree_table()
        bad = [r for r in reports if not r["ok"]]
        results = {"cells": len(reports), "failed": len(bad)}
        checks = [("all table cells reproduce", not bad)]
        return {}, results, checks
    t = triples.euclid(args.start_m, args.start_n)
    from .triples import RatTriangle

    tri0 = RatTriangle(Fraction(t.a), Fraction(t.b), Fraction(t.c))
    n0 = int(tri0.area)
    steps = recurrence.walk(tri0, n0, args.path)
    results = {
        "start": {"n": n0, "triangle": _tri_dict(tri0)},
        "steps": [{"n": n, "triangle": _tri_dict(tr)} for n, tr in steps],
    }
    checks = [("every step is a valid right triangle", True)]
    inputs = {"start_m": args.start_m, "start_n": args.start_n, "path": args.path}
    return inputs, results, checks


def _cmd_seq(args):
    if args.sub == "fib":
        family = sequences.fib_odd_family if args.odd else sequences.fib_even_family
        tri, n, pts = family(args.n)
        results = {
            "triangle": _tri_dict(tri),
            "congruent_number": n,
            "points": [_point(p) for p in pts],
        }
        checks = [("area = N", tri.area == n)]
        return {"n": args.n, "odd": args.odd}, results, checks
    if args.sub == "cheb":
        tri, n, pts = sequences.cheb_family(args.m, args.k)
        results = {
            "triangle": _tri_dict(tri),
            "congruent_number": n,
            "points": [_point(p) for p in pts],
        }
        checks = [("area = N", tri.area == n)]
        return {"m": args.m, "k": args.k}, results, checks
    bt, curve, qs, orders = sequences.brahmagupta(args.k)
    results = {
        "sides": [bt.a, bt.b, bt.c],
        "semiperimeter": bt.perimeter_half,
        "area": bt.area,
        "curve": {"a2": curve.a2, "a4": curve.a4, "a6": curve.a6},
        "points": [_point(q) for q in qs],
        "orders": list(orders) if orders else None,
    }
    checks = [
        ("Heron area", True),
        ("points on curve", True),
        (
            "infinite order" if orders is None else "order 4 (degenerate)",
            True,
        ),
    ]
    return {"k": args.k}, results, checks


def _cmd_fermat(args):
    tree = fermat.enumerate_tree(args.depth)
    nodes = [
        {
            "depth": d,
            "x": n.x,
            "a": n.a,
            "b": n.b,
            "c": n.c,
            "kind": n.kind,
            "digits": len(str(abs(n.c))),
        }
        for d, n in tree.nodes
    ]
    results = {"nodes": nodes}
    checks = [(f"{len(nodes)} nodes pass square invariants", True)]
    if args.find_smallest:
        small = tree.smallest_sum()
        if small is None:
            checks.append(("smallest sum-type solution found", False))
        else:
            results["smallest"] = {
                "a": small.a,
                "b": small.b,
                "c": small.c,
                "sum_root": small.sum_root,
                "hyp_root": small.hyp_root,
            }
            checks.append(("smallest sum-type solution found", True))
    return {"depth": args.depth, "find_smallest": args.find_smallest}, results, checks


def _cmd_verify_all(args):
    overrides = {
        "trinity": {"max_order": args.max_order, "samples": args.samples},
    }
    results = {}
    checks = []
    for name, suite_checks in verify.run_all(**overrides).items():
        ok = all(p for _, p in suite_checks)
        results[name] = f"{sum(p for _, p in suite_checks)}/{len(suite_checks)}"
        checks.append((name, ok))
    inputs = {"max_order": args.max_order, "samples": args.samples}
    return inputs, results, checks


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json",
        action="store_true",
        default=os.environ.get("CONGRUENT_FORMAT") == "json",
        help="emit a JSON envelope instead of text",
    )
    parser = argparse.ArgumentParser(
        prog="congruent",
        description="Exact constructions and checks for congruent numbers.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(group, name, **kwargs):
        return group.add_parser(name, parents=[common], **kwargs)

    p = add_parser(sub, "triples", help="derived rational triples from a Euclid pair")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_triples, sub=None)

    p = add_parser(sub, "trinity", help="vector-system identities, proved by exact evaluation")
    p.add_argument("--max-order", type=int, default=4)
    p.add_argument("--samples", type=int, default=32)
    p.set_defaults(handler=_cmd_trinity, sub=None)

    p = add_parser(sub, "conics", help="conic constructions")
    csub = p.add_subparsers(dest="sub", required=True)
    q = add_parser(csub, "triangle")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--f1", type=int, required=True)
    q.add_argument("--f2", required=True)
    q.add_argument("--adjoin", choices=("none", "sqrtN", "sqrt2N"), default="none")
    q = add_parser(csub, "intersect")
    q.add_argument("--t", required=True)
    q.add_argument("--f", type=int, default=1)
    q = add_parser(csub, "lattice")
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--t", default=None)
    q = add_parser(csub, "twin")
    q.add_argument("--t", required=True)
    p.set_defaults(handler=_cmd_conics)

    p = add_parser(sub, "cassini", help="quadratic-system ovals and triangles")
    csub = p.add_subparsers(dest="sub", required=True)
    for name in ("two", "four"):
        q = add_parser(csub, name)
        q.add_argument("--n", type=int, required=True)
        q.add_argument("--f1", type=int, required=True)
        q.add_argument("--f2", required=True)
        q.add_argument("--emit-curve", type=int, default=0, metavar="COUNT")
        if name == "two":
            q.add_argument(
                "--adjoin", choices=("none", "sqrtN", "sqrt2N"), default="none"
            )
    p.set_defaults(handler=_cmd_cassini)

    p = add_parser(sub, "tangent", help="solution chains by point doubling")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--depth", type=int, default=3)
    p.set_defaults(handler=_cmd_tangent, sub=None)

    p = add_parser(sub, "footprints", help="per-class closed forms and tables")
    csub = p.add_subparsers(dest="sub", required=True)
    q = add_parser(csub, "verify")
    q.add_argument("--table", default=None)
    q = add_parser(csub, "triangle")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--cls", required=True, choices=footprints.CLASSES)
    p.set_defaults(handler=_cmd_footprints)

    p = add_parser(sub, "recur", help="side-walk recurrence trees")
    csub = p.add_subparsers(dest="sub", required=True)
    q = add_parser(csub, "walk")
    q.add_argument("--start-m", type=int, required=True)
    q.add_argument("--start-n", type=int, required=True)
    q.add_argument("--path", required=True)
    add_parser(csub, "table-check")
    p.set_defaults(handler=_cmd_recur)

    p = add_parser(sub, "seq", help="Fibonacci/Lucas and Chebyshev families")
    csub = p.add_subparsers(dest="sub", required=True)
    q = add_parser(csub, "fib")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--odd", action="store_true")
    q = add_parser(csub, "cheb")
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q = add_parser(csub, "brahmagupta")
    q.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_seq)

    p = add_parser(sub, "fermat", help="square-hypotenuse solution tree")
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--find-smallest", action="store_true")
    p.set_defaults(handler=_cmd_fermat, sub=None)

    p = add_parser(sub, "verify-all", help="run every reference-example suite")
    p.add_argument("--max-order", type=int, default=4)
    p.add_argument("--samples", type=int, default=32)
    p.set_defaults(handler=_cmd_verify_all, sub=None)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        inputs, results, checks = args.handler(args)
    except (ValueError, ArithmeticError, FactorBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    envelope = _envelope(args, inputs, results, checks)
    _emit(envelope, args.json)
    return EXIT_OK if all(c["pass"] for c in envelope["checks"]) else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
