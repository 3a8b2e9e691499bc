"""Span tracing of congruent from outside the package.

``Tracer.install`` replaces every traced function of every ``congruent``
module with a wrapper that records a span (name, start, end, parent span,
op id).  Aliases are rebound too, so ``conics.squarefree_part`` and
``triples.squarefree_part`` record as ``exact.squarefree_part``.  Spans stay
in memory until the run ends; ``layer_metrics`` turns them into per-layer
numbers and ``write`` saves them.  ``uninstall`` restores the originals.

A function's self time is its span's duration minus the durations of its
direct child spans.  Every ``*_s`` metric below is a self time, except
``verify.suite_s.<suite>``, which is the whole duration of the suite: the
suites are the top spans of a gate pass and their own code is only glue.
"""

from __future__ import annotations

import argparse
import functools
import gzip
import inspect
import time
from array import array
from collections import defaultdict

from ops import GATE_KEY

# Operators of the package's value types; other dunders are not traced.
OPERATORS = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "__call__",
}  # fmt: skip
# Private functions whose spans the cli metrics need.
CLI_PRIVATE = ("_envelope", "_emit")

SUITES = (
    "triples", "triples-random", "trinity", "conics-zagier", "conics-intersect",
    "conics-lattice", "conics-twin", "cassini", "tangent", "footprints",
    "recurrence", "sequences", "fermat",
)  # fmt: skip
CONSTRUCTION_MODULES = (
    "triples", "conics", "cassini", "tangent", "footprints", "recurrence", "sequences", "fermat",
)  # fmt: skip

# (metric, unit) in report order; BENCHMARK.json lists the same names.
PER_LAYER = (
    [
        ("polyrat.mul_calls", "count"),
        ("polyrat.mul_s", "s"),
        ("polyrat.divmod_s", "s"),
        ("polyrat.gcd_calls", "count"),
        ("polyrat.gcd_s", "s"),
        ("polyrat.gcd_nontrivial_ratio", "ratio"),
        ("polyrat.ratfunc_calls", "count"),
        ("polyrat.ratfunc_s", "s"),
        ("polyrat.chebyshev_s", "s"),
        ("polyrat.max_degree", "count"),
        ("polyrat.max_coeff_bits", "bits"),
        ("trinity.sphere_relations_s", "s"),
        ("trinity.derivative_identities_s", "s"),
        ("trinity.circle_check_s", "s"),
        ("trinity.vec_deriv_calls", "count"),
        ("elliptic.add_calls", "count"),
        ("elliptic.add_s", "s"),
        ("elliptic.contains_calls", "count"),
        ("elliptic.contains_s", "s"),
        ("elliptic.certify_calls", "count"),
        ("elliptic.certify_s", "s"),
        ("elliptic.adds_per_certify", "ratio"),
        ("elliptic.max_coord_bits", "bits"),
        ("exact.factorize_calls", "count"),
        ("exact.factorize_s", "s"),
        ("exact.squarefree_part_s", "s"),
        ("exact.is_probable_prime_calls", "count"),
        ("exact.rat_sqrt_calls", "count"),
        ("exact.rat_sqrt_s", "s"),
        ("exact.format_rat_s", "s"),
        ("exact.budget_exceeded", "count"),
        ("cli.parse_s", "s"),
        ("cli.handler_s", "s"),
        ("cli.emit_s", "s"),
        ("cli.output_bytes", "bytes"),
        ("cli.max_result_digits", "digits"),
        ("cli.domain_errors", "count"),
        ("cli.uncaught_errors", "count"),
    ]
    + [(f"verify.suite_s.{suite}", "s") for suite in SUITES]
    + [("verify.checks", "count"), ("verify.checks_failed", "count")]
    + [(f"{m}.{k}", u) for m in CONSTRUCTION_MODULES for k, u in (("calls", "count"), ("s", "s"))]
    + [("conics.identity_s", "s"), ("conics.ec_points_s", "s"), ("trace_overhead_share", "share")]
)


def _bits(q):
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def _traced_function(module, name):
    if module == "cli":
        return not name.startswith("_") or name.startswith("_cmd_") or name in CLI_PRIVATE
    return not name.startswith("_")


def _traced_method(module, cls, name):
    if name in OPERATORS:
        return True
    return not name.startswith("_") or (module, cls, name) == ("polyrat", "RatFunc", "__init__")


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.errors = {}  # span index -> exception type name
        self.stats = defaultdict(int)  # maxima and counts taken from results
        self.current_op = -1
        self._stack = [-1]
        self._undo = []
        self._wrappers = {}  # id(original) -> (original, wrapper)

    def set_op(self, op_id):
        self.current_op = op_id

    def wrap(self, fn, name, observe=None):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack, errors, clock = self._stack, self.errors, time.perf_counter
        name_id, parent, op, start, end = self.name_id, self.parent, self.op, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op.append(self.current_op)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                errors[idx] = type(exc).__name__
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return traced

    def _set(self, target, attr, value):
        self._undo.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def _wrapper(self, fn, name):
        if id(fn) not in self._wrappers:
            self._wrappers[id(fn)] = (fn, self.wrap(fn, name, self._observer(name)))
        return self._wrappers[id(fn)][1]

    def _observer(self, name):
        stats = self.stats

        def poly(result):
            stats["max_degree"] = max(stats["max_degree"], result.degree)
            bits = max(map(_bits, result.coeffs), default=0)
            stats["max_coeff_bits"] = max(stats["max_coeff_bits"], bits)

        def gcd(result):
            stats["gcd_nontrivial"] += result.degree > 0

        def point(result):
            if not result.infinity:
                bits = max(_bits(result.x), _bits(result.y))
                stats["max_coord_bits"] = max(stats["max_coord_bits"], bits)

        return {
            "polyrat.Poly.__mul__": poly,
            "polyrat.chebyshev": poly,
            "polyrat.Poly.gcd": gcd,
            "elliptic.Curve.add": point,
        }.get(name)

    def install(self, modules):
        """Trace ``modules`` ({short name: module}, every congruent module)."""
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and _traced_function(short, attr):
                    self._wrapper(obj, f"{short}.{attr}")
                elif inspect.isclass(obj):
                    self._install_class(short, obj)
        # rebind every name bound to a traced function, aliases included
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                original, wrapper = self._wrappers.get(id(obj), (None, None))
                if original is obj:
                    self._set(mod, attr, wrapper)
        verify = modules["verify"]
        suites = tuple((name, self._wrappers[id(fn)][1]) for name, fn in verify.SUITES)
        self._set(verify, "SUITES", suites)
        parse = argparse.ArgumentParser.parse_args
        self._set(argparse.ArgumentParser, "parse_args", self.wrap(parse, "cli.parse_args"))

    def _install_class(self, short, cls):
        for attr, member in list(vars(cls).items()):
            is_classmethod = isinstance(member, classmethod)
            fn = member.__func__ if is_classmethod else member
            if inspect.isfunction(fn) and _traced_method(short, cls.__name__, attr):
                wrapper = self._wrapper(fn, f"{short}.{cls.__name__}.{fn.__name__}")
                self._set(cls, attr, classmethod(wrapper) if is_classmethod else wrapper)

    def uninstall(self):
        while self._undo:
            target, attr, value = self._undo.pop()
            setattr(target, attr, value)

    def span_totals(self):
        """{span name: (calls, self seconds, whole seconds)}."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = defaultdict(int)
        self_s = defaultdict(float)
        whole_s = defaultdict(float)
        for i in range(n):
            name = self.names[self.name_id[i]]
            dur = self.end[i] - self.start[i]
            calls[name] += 1
            self_s[name] += dur - child[i]
            whole_s[name] += dur
        return {k: (calls[k], self_s[k], whole_s[k]) for k in calls}

    def _count_under(self, name, ancestor):
        """Spans called ``name`` with a span called ``ancestor`` above them."""
        want, above = self._name_ids.get(name), self._name_ids.get(ancestor)
        if want is None or above is None:
            return 0
        count = 0
        for i in range(len(self.start)):
            if self.name_id[i] != want:
                continue
            p = self.parent[i]
            while p >= 0 and self.name_id[p] != above:
                p = self.parent[p]
            count += p >= 0
        return count

    def layer_metrics(self, passes, outcomes, suite_functions, overhead_share):
        """Per-layer metrics, counts and times per pass; {name: (value, unit)}."""
        totals = self.span_totals()

        def calls(*names):
            return sum(totals.get(n, (0, 0.0, 0.0))[0] for n in names) / passes

        def self_s(*names):
            return sum(totals.get(n, (0, 0.0, 0.0))[1] for n in names) / passes

        def prefixed(prefix):
            return [n for n in totals if n.startswith(prefix)]

        gcd_calls = calls("polyrat.Poly.gcd")
        certify_calls = calls("elliptic.Curve.certify_infinite_order")
        adds_in_certify = self._count_under("elliptic.Curve.add", "elliptic.Curve.certify_infinite_order")
        budget = sum(
            1
            for i, err in self.errors.items()
            if err == "FactorBudgetExceeded" and self.names[self.name_id[i]] == "exact.factorize"
        )
        gate = [o for o in outcomes if o.key == GATE_KEY]
        values = {
            "polyrat.mul_calls": calls("polyrat.Poly.__mul__"),
            "polyrat.mul_s": self_s("polyrat.Poly.__mul__"),
            "polyrat.divmod_s": self_s("polyrat.Poly.divmod"),
            "polyrat.gcd_calls": gcd_calls,
            "polyrat.gcd_s": self_s("polyrat.Poly.gcd"),
            "polyrat.gcd_nontrivial_ratio": (
                self.stats["gcd_nontrivial"] / passes / gcd_calls if gcd_calls else 0.0
            ),
            "polyrat.ratfunc_calls": calls("polyrat.RatFunc.__init__"),
            "polyrat.ratfunc_s": self_s(*prefixed("polyrat.RatFunc.")),
            "polyrat.chebyshev_s": self_s("polyrat.chebyshev"),
            "polyrat.max_degree": self.stats["max_degree"],
            "polyrat.max_coeff_bits": self.stats["max_coeff_bits"],
            "trinity.sphere_relations_s": self_s("trinity.verify_sphere_relations"),
            "trinity.derivative_identities_s": self_s("trinity.verify_derivative_identities"),
            "trinity.circle_check_s": self_s("trinity.circle_check"),
            "trinity.vec_deriv_calls": calls("trinity.Vec3F.deriv"),
            "elliptic.add_calls": calls("elliptic.Curve.add"),
            "elliptic.add_s": self_s("elliptic.Curve.add"),
            "elliptic.contains_calls": calls("elliptic.Curve.contains"),
            "elliptic.contains_s": self_s("elliptic.Curve.contains"),
            "elliptic.certify_calls": certify_calls,
            "elliptic.certify_s": self_s("elliptic.Curve.certify_infinite_order"),
            "elliptic.adds_per_certify": (
                adds_in_certify / passes / certify_calls if certify_calls else 0.0
            ),
            "elliptic.max_coord_bits": self.stats["max_coord_bits"],
            "exact.factorize_calls": calls("exact.factorize"),
            "exact.factorize_s": self_s("exact.factorize"),
            "exact.squarefree_part_s": self_s("exact.squarefree_part"),
            "exact.is_probable_prime_calls": calls("exact.is_probable_prime"),
            "exact.rat_sqrt_calls": calls("exact.rat_sqrt"),
            "exact.rat_sqrt_s": self_s("exact.rat_sqrt"),
            "exact.format_rat_s": self_s("exact.format_rat"),
            "exact.budget_exceeded": budget / passes,
            "cli.parse_s": self_s("cli.build_parser", "cli.parse_args"),
            "cli.handler_s": self_s(*prefixed("cli._cmd_")),
            "cli.emit_s": self_s("cli._envelope", "cli._emit"),
            "cli.output_bytes": sum(o.output_bytes for o in outcomes) / passes,
            "cli.max_result_digits": max((o.result_digits for o in outcomes), default=0),
            "cli.domain_errors": sum(o.exit_code == 3 for o in outcomes) / passes,
            "cli.uncaught_errors": sum(o.kind == "exception" for o in outcomes) / passes,
            "verify.checks": sum(o.checks for o in gate) / passes,
            "verify.checks_failed": sum(o.checks_failed for o in gate) / passes,
            "conics.identity_s": self_s(
                "conics.intersect_polynomial_identity", "conics.twin_polynomial_identities"
            ),
            "conics.ec_points_s": self_s("conics.conic_ec_points"),
            "trace_overhead_share": overhead_share,
        }
        for suite, fn_name in suite_functions.items():
            values[f"verify.suite_s.{suite}"] = totals.get(f"verify.{fn_name}", (0, 0.0, 0.0))[2] / passes
        for module in CONSTRUCTION_MODULES:
            names = prefixed(f"{module}.")
            values[f"{module}.calls"] = calls(*names)
            values[f"{module}.s"] = self_s(*names)
        return {name: (values[name], unit) for name, unit in PER_LAYER}

    def write(self, path):
        """Save every span as CSV: op, name, start, end, parent, error."""
        with gzip.open(path, "wt") as fh:
            fh.write("span,op,name,start,end,parent,error\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.op[i]},{self.names[self.name_id[i]]},{self.start[i]:.9f},"
                    f"{self.end[i]:.9f},{self.parent[i]},{self.errors.get(i, '')}\n"
                )
