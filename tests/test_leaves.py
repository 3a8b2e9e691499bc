"""Every printed value is read by a check, or is listed as unread.

Each leaf command runs on one example.  Every int or Fraction leaf of the
record its entry returns (the "module.function" of its cli.LEAVES row) is
made off by one in turn, and the command runs again through
``cli.main(argv + ["--json"])``.  Exit 1 or 3 means a check read the leaf.
Exit 0 with the same printed results means the leaf is not printed, and it
is skipped.  Exit 0 with other printed results means a printed value that
no check reads.  UNREAD lists each such value by its path in the JSON
results, and the test fails both when a value is missing from UNREAD and
when a listed value is read, so the list can only shrink.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
from fractions import Fraction

import pytest

from congruent import cli

# One example per leaf command
EXAMPLES = [
    "triples --m 2 --n 1",
    "trinity --max-order 1",
    "conics triangle --n 157 --f1 87005 --f2 610961",
    "conics intersect --t 3",
    "conics lattice --m 1 --n 2 --t 3",
    "conics twin --t 10",
    "cassini two --n 29 --f1 1 --f2 -13",
    "cassini four --n 79 --f1 125 --f2 52",
    "tangent --n 5 --a 3/2 --b 20/3 --depth 3",
    "footprints verify",
    "footprints triangle --n 14 --m 2 --k 1 --cls TIII",
    "recur walk --start-m 2 --start-n 1 --path abba",
    "recur table-check",
    "seq fib --n 3",
    "seq cheb --m 3 --k 2",
    "seq brahmagupta --k 3",
    "seq brahmagupta --k 0",
    "fermat --depth 2 --find-smallest",
    "verify-all",
]

# The printed values that no check reads, by example, as paths in the JSON
# results.  ROADMAP item 13 gives each a relation to check; until then a
# wrong value here prints with every check passing.
UNREAD = {
    "triples --m 2 --n 1": {
        "triple_ac.b", "triple_bc.b", "triple_ba.b",
        "concordant[].x", "concordant[].y", "concordant[].z", "concordant[].t", "concordant[].n",
    },
    # the number of circles checked, a count
    "trinity --max-order 1": {"circles"},
    # the checks read the triangle alone; nor does any read oval.loops, a
    # string, which the probe does not bump
    "cassini two --n 29 --f1 1 --f2 -13": {
        "c1_sq", "c2", "c3_sq", "c4_sq", "oval.a_sq", "oval.b_4", "axis_x_sq[0]", "axis_y_sq[0]",
    },
    "cassini four --n 79 --f1 125 --f2 52": {
        "c1_sq", "c2", "c3_sq", "c4_sq", "oval.a_sq", "oval.b_4", "axis_x_sq[0]", "axis_x_sq[1]",
    },
    "tangent --n 5 --a 3/2 --b 20/3 --depth 3": {"solutions[].f1", "solutions[].f2"},
    # the number of rows rebuilt, a count
    "footprints verify": {"rows"},
    "footprints triangle --n 14 --m 2 --k 1 --cls TIII": {"p_sq", "q_sq"},
    # the number of cells recomputed, a count
    "recur table-check": {"cells"},
    "seq fib --n 3": {"points[].x", "points[].y"},
    "seq cheb --m 3 --k 2": {"points[].x", "points[].y"},
    # Heron's product p(p - a)(p - b)(p - c) is 0 for any a and b when p = c
    "seq brahmagupta --k 0": {"sides[0]", "sides[1]"},
    "fermat --depth 2 --find-smallest": {"nodes[].depth", "nodes[].digits"},
}  # fmt: skip


def _leaves(value, path=()):
    """The path of every int or Fraction leaf of a result, bools excepted.

    A path holds a record's field names, a dict's keys and a list's indices.
    """
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        yield path
    elif isinstance(value, dict) or hasattr(value, "_fields"):
        items = value.items() if isinstance(value, dict) else zip(value._fields, value)
        for key, item in items:
            yield from _leaves(item, (*path, key))
    elif isinstance(value, (tuple, list)):
        for i, item in enumerate(value):
            yield from _leaves(item, (*path, i))


def _bumped(value, path):
    """value with its leaf at path off by one; a record is rebuilt without its validation."""
    if not path:
        return value + 1
    key, rest = path[0], path[1:]
    if isinstance(value, dict):
        return {**value, key: _bumped(value[key], rest)}
    if hasattr(value, "_fields"):
        return value._replace(**{key: _bumped(getattr(value, key), rest)})
    items = list(value)
    items[key] = _bumped(items[key], rest)
    return type(value)(items)


def _changed(base, printed, path=""):
    """The printed paths where two results differ; a list of records indexes as "[]"."""
    if isinstance(base, dict) and isinstance(printed, dict) and base.keys() == printed.keys():
        for key in base:
            yield from _changed(base[key], printed[key], f"{path}.{key}" if path else key)
    elif isinstance(base, list) and isinstance(printed, list) and len(base) == len(printed):
        for i, (old, new) in enumerate(zip(base, printed)):
            yield from _changed(old, new, f"{path}[{'' if isinstance(old, dict) else i}]")
    elif base != printed:
        yield path


def _run(argv):
    """(exit code, printed results or None)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv + ["--json"])
    text = out.getvalue()
    return code, json.loads(text)["results"] if text else None


def _unread(argv, monkeypatch):
    """The printed paths that change, with every check passing, when a leaf of the entry's record is off by one."""
    code, base = _run(argv)
    assert code == 0, argv
    module_name, _, func = cli.build_parser(argv).parse_args(argv).entry.split()[0].partition(".")
    module = importlib.import_module(f"congruent.{module_name}")
    real = getattr(module, func)
    seen = []
    monkeypatch.setattr(module, func, lambda *a, **k: seen.append(real(*a, **k)) or seen[-1])
    _run(argv)
    unread = set()
    for path in _leaves(seen[0]):
        # the leaf's path is bound as _leaf, since an entry may take a "path" keyword
        monkeypatch.setattr(module, func, lambda *a, _leaf=path, **k: _bumped(real(*a, **k), _leaf))
        code, printed = _run(argv)
        if code == 0:
            unread.update(_changed(base, printed))
    return unread


def test_every_leaf_command_has_an_example():
    leaves = {row[0] for row in cli.LEAVES}
    parsed = (cli.build_parser(argv.split()).parse_args(argv.split()) for argv in EXAMPLES)
    assert {args.command for args in parsed} == leaves


@pytest.mark.parametrize("argv", EXAMPLES)
def test_each_printed_leaf_is_read_or_listed(monkeypatch, argv):
    assert _unread(argv.split(), monkeypatch) == UNREAD.get(argv, set())
