import ast
import importlib
import pkgutil
import re
from fractions import Fraction
from pathlib import Path

import pytest

import congruent
from congruent import cassini, cli, conics, elliptic, fermat, footprints, recurrence, sequences
from congruent import tangent, triples, trinity, verify
from congruent.exact import EffortOutOfRange


def test_every_exported_name_exists():
    modules = [info.name for info in pkgutil.iter_modules(congruent.__path__)]
    assert "conics" in modules
    for name in modules:
        module = importlib.import_module(f"congruent.{name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, (name, missing)


# A computed check reports a failure by name and exit code 1; an AssertionError
# escapes as a traceback. The one site left is pinned by perfbench until the
# lattice secondaries take their square classes from closed-form factors
# (ROADMAP item 8). This set may only shrink.
ASSERTION_SITES = {("conics", "lattice_secondary")}


def _raises_assertion(node):
    if isinstance(node, ast.Assert):
        return True
    if not isinstance(node, ast.Raise):
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_new_assertion_error_in_src():
    sites = set()
    for path in Path(congruent.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        funcs = [f for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if _raises_assertion(node):
                owners = [f for f in funcs if f.lineno <= node.lineno <= f.end_lineno]
                # the innermost enclosing function starts last
                owner = max(owners, key=lambda f: f.lineno).name if owners else "<module>"
                sites.add((path.stem, owner))
    assert sites == ASSERTION_SITES


# A module reads only its siblings' public names: a private helper serves its
# own module, and a helper that two modules share is public. Class attributes
# such as RatTriangle._proved are not module reads. This set may only shrink.
PRIVATE_READS = set()


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


def _private_reads(tree):
    """(sibling, name) for each `from .sibling import _name` and `sibling._name` in tree."""
    reads = set()
    siblings = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level and node.module is None:
            siblings.update((a.asname or a.name, a.name) for a in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level and node.module is not None:
            reads |= {(node.module, a.name) for a in node.names if _is_private(a.name)}
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in siblings and _is_private(node.attr):
                reads.add((siblings[node.value.id], node.attr))
    return reads


def test_the_private_name_rule_sees_imports_and_attributes():
    source = (
        "from .conics import _a, b\n"
        "from . import triples as t, verify\n"
        "def f():\n"
        "    return t._pair(1), verify.__name__, RatTriangle._proved, triples._x\n"
    )
    assert _private_reads(ast.parse(source)) == {("conics", "_a"), ("triples", "_pair")}


def test_no_module_reads_a_private_name_of_another():
    sites = set()
    for path in Path(congruent.__file__).parent.glob("*.py"):
        sites |= {(path.stem, *read) for read in _private_reads(ast.parse(path.read_text()))}
    assert sites == PRIVATE_READS


def test_only_the_cli_names_flags():
    # a library module words its errors in its own parameter names; cli.main
    # turns an effort bound into its flag
    paths = [p for p in Path(congruent.__file__).parent.glob("*.py") if p.name != "cli.py"]
    flags = {p.name: re.findall(r"--[a-z][a-z-]*", p.read_text()) for p in paths}
    assert not any(flags.values()), flags


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: tangent.tangent_chain(5, 3, 4, depth=9), "depth must be between 1 and 5, got 9"),
        (lambda: fermat.enumerate_tree(0), "depth must be between 1 and 6, got 0"),
        (lambda: sequences.brahmagupta(401), "k must be between 0 and 400, got 401"),
        (lambda: trinity.identities(7), "max_order must be between 1 and 6, got 7"),
    ],
)
def test_each_effort_bound_raises_one_error_in_library_words(build, message):
    with pytest.raises(EffortOutOfRange) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: triples.RatTriangle(3, 4, 6), "sides (3, 4, 6) violate a^2 + b^2 = c^2"),
        (lambda: fermat.FermatNode(0, 1, 1, 0, 2), "node violates the square invariants"),
        (lambda: footprints.FootprintRow(6, 2, 1, "TX"), "unknown footprint class 'TX'"),
        (lambda: cassini.CassiniOval(1, 0), "need a'^2 >= 0 and b'^4 > 0"),
        (lambda: elliptic.Curve(0, 0, 0), "singular curve"),
    ],
)
def test_each_validating_record_rejects_bad_input(build, message):
    # the checks moved from __post_init__ and __init__ into __new__ with their messages
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_every_record_is_a_slotted_tuple():
    # every namedtuple class of the package, found by scanning its modules
    records = set()
    for info in pkgutil.iter_modules(congruent.__path__):
        module = importlib.import_module(f"congruent.{info.name}")
        records |= {
            obj for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields")
        }  # fmt: skip
    assert {triples.RatTriangle, cassini.CassiniSystem, verify.Report} <= records
    for cls in records:
        # built without the validation some records' __new__ does
        record = tuple.__new__(cls, (None,) * len(cls._fields))
        assert not hasattr(record, "__dict__"), cls
        with pytest.raises(AttributeError):
            record.extra = 1


# Functions and methods that no code in src/ names, each with its reader
# outside src/. This set may only shrink.
UNCALLED = {
    # perfbench/tracer.py reads the degree of the polynomials it traces
    "Poly.degree",
    # the oval equation tests/test_identities.py proves the axis points against;
    # ROADMAP item 13 makes it a check of the printed cassini values
    "CassiniOval.residual",
}


def _uncalled(sources):
    """"module.function" or "Class.method" for each one that no code names outside its own body.

    sources maps module names to their text. A function is named by a bare
    name or an attribute read, a method by an attribute read alone, so a local
    variable cannot hide a method of the same name. Any attribute read of a
    method's name counts as a call, so the scan cannot see a method whose name
    another class shares: PythTriple.area went unseen beside RatTriangle.area.
    Dunder methods are called by the language, and are skipped.
    """
    names, attrs, defs = [], [], []
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.append((module, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                attrs.append((module, node.lineno, node.attr))
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                defs += [(module, node.name, f, attrs) for f in node.body if isinstance(f, ast.FunctionDef)]
            elif isinstance(node, ast.FunctionDef):
                defs.append((module, module, node, names + attrs))
    return {
        f"{owner}.{f.name}"
        for module, owner, f, uses in defs
        if not (f.name.startswith("__") and f.name.endswith("__"))
        and not any(
            name == f.name and not (m == module and f.lineno <= line <= f.end_lineno)
            for m, line, name in uses
        )
    }


def test_the_caller_scan_sees_calls_outside_the_body():
    source = (
        "class A:\n"
        "    def used(self):\n"
        "        return self.used()\n"
        "    def hidden(self):\n"
        "        return 0\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "def f(a):\n"
        "    return f(a)\n"
        "def g(a):\n"
        "    return a.used()\n"
        "def h(hidden):\n"
        "    return g(hidden)\n"
    )
    # h's parameter is a bare name, not a call of A.hidden
    assert _uncalled({"m": source}) == {"A.hidden", "m.f", "m.h"}


def test_every_function_has_a_caller():
    paths = Path(congruent.__file__).parent.glob("*.py")
    # cli._cmd_run calls each LEAVES row's entry by its name, "module.function"
    entries = {entry.split()[0] for _, _, _, entry in cli.LEAVES}
    assert _uncalled({p.stem: p.read_text() for p in paths}) - entries == UNCALLED
