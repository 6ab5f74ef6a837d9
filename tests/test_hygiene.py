"""Source invariants that must survive ``python -O``."""

import ast
import re
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "mosva").glob("*.py"))


def test_sources_found():
    assert SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert on lines {lines} vanishes under python -O"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_functools_cache(path):
    # a process-wide memo carries work and memory across calls; memos belong
    # on the per-call objects (a series, a vertex map) that own the data
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = {"cache", "lru_cache"}
    lines = [node.lineno for node in ast.walk(tree)
             if (isinstance(node, ast.ImportFrom) and node.module == "functools"
                 and any(a.name in names for a in node.names))
             or (isinstance(node, ast.Attribute) and node.attr in names
                 and isinstance(node.value, ast.Name) and node.value.id == "functools")]
    assert not lines, f"{path.name}: functools cache on lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_add_of_a_scaled_copy(path):
    # x.add(y.scale(c)) copies x and builds a scaled copy of y for one term;
    # a sum accumulates into one dict (graded._accumulate) or calls x.add(y, c)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

    def method_call(node, name):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == name)

    lines = [node.lineno for node in ast.walk(tree)
             if method_call(node, "add")
             and any(method_call(arg, "scale") for arg in node.args)]
    assert not lines, f"{path.name}: add of a scaled copy on lines {lines}"


ROLE_LITERALS = {"left", "right", "bi", "compat"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_roles_are_compared_through_constants(path):
    # a role spelled out as a string drifts from the one table in vertex.py;
    # compare against LEFT, RIGHT, BI and COMPAT (argparse choices are no
    # comparison and stay free)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

    def literals(node):
        if isinstance(node, ast.Constant):
            return [node.value]
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return [e.value for e in node.elts if isinstance(e, ast.Constant)]
        return []

    ops = (ast.Eq, ast.NotEq, ast.In, ast.NotIn)
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Compare) and any(isinstance(op, ops) for op in node.ops)
             and any(v in ROLE_LITERALS for operand in [node.left, *node.comparators]
                     for v in literals(operand) if isinstance(v, str))]
    assert not lines, f"{path.name}: role literal compared on lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_dual_prime_is_spelled_once(path):
    # dual labels are primed through graded.DUAL_SUFFIX alone, so priming and
    # stripping cannot drift apart
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    allowed = {id(node.value) for node in ast.walk(tree)
               if isinstance(node, ast.Assign)
               and [getattr(t, "id", None) for t in node.targets] == ["DUAL_SUFFIX"]}
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and node.value == "'"
             and id(node) not in allowed]
    assert not lines, f"{path.name}: a bare prime on lines {lines}; use DUAL_SUFFIX"


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "scalars.py"],
                         ids=lambda p: p.name)
def test_integers_pass_one_gate(path):
    # int() truncates a float or a rational and reads True as 1; an exponent,
    # pole order or cutoff goes through scalars.exact_int, which raises
    # instead, and a Fraction known to be integral gives up .numerator
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "int"]
    assert not lines, f"{path.name}: builtin int() on lines {lines}; use scalars.exact_int"


VERDICTS = {"pass", "fail", "skip"}


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "report.py"],
                         ids=lambda p: p.name)
def test_verdicts_are_spelled_in_report_only(path):
    # report.py names the verdicts once, as PASS, FAIL and SKIP; a verdict
    # spelled out elsewhere drifts from them unseen
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and node.value in VERDICTS]
    assert not lines, f"{path.name}: a verdict string on lines {lines}; use report.PASS/FAIL/SKIP"


INFINITE_NAME = re.compile(r"(^|_)inf(inity)?($|_)", re.IGNORECASE)
INFINITE_TEXT = {"inf", "+inf", "-inf", "infinity", "+infinity", "-infinity", "nan"}


def _float_rejection(tree):
    """The ``float`` names in exact_scalar's isinstance test, the one place
    where a float may be named: to be turned away."""
    return {id(name) for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "exact_scalar"
            for call in ast.walk(fn)
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "isinstance"
            for name in ast.walk(call.args[1]) if isinstance(name, ast.Name)}


def _float_lines(tree, allowed=frozenset()):
    """Lines with a float() call, a float literal or an infinity, whether a
    name (math.inf, _INF) or a string (float("inf")); ``allowed`` holds the
    ids of the ``float`` names that may stay."""
    return sorted({node.lineno for node in ast.walk(tree)
                   if (isinstance(node, ast.Name) and node.id == "float"
                       and id(node) not in allowed)
                   or (isinstance(node, ast.Constant) and isinstance(node.value, float))
                   or (isinstance(node, ast.Constant) and isinstance(node.value, str)
                       and node.value.strip().lower() in INFINITE_TEXT)
                   or (isinstance(node, ast.Name) and INFINITE_NAME.search(node.id))
                   or (isinstance(node, ast.Attribute) and INFINITE_NAME.search(node.attr))})


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_float_enters(path):
    # scalars.py: "No float ever enters a computation"; exact_scalar names
    # float only to reject it
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    allowed = _float_rejection(tree) if path.name == "scalars.py" else set()
    lines = _float_lines(tree, allowed)
    assert not lines, f"{path.name}: a float or an infinity on lines {lines}"


def test_the_float_rule_sees_floats():
    src = ('import math\n_INF = float("inf")\nx = -math.inf\ny = 0.5\n'
           'def exact_scalar(x):\n    return isinstance(x, float) or float(x)\n')
    tree = ast.parse(src)
    assert _float_lines(tree, _float_rejection(tree)) == [2, 3, 4, 6]
    # the float bound that expand_rational used to carry
    old = (ROOT / "tests" / "oracle_expansion.py").read_text(encoding="utf-8")
    assert _float_lines(ast.parse(old))


# calls whose result is (value, exact), the exactness flag last
FLAGGED_CALLS = {"apply", "mode_apply", "vertex_series", "basis_entry",
                 "opposite_vertex_components", "exp_op_series"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_exactness_flags_are_never_dropped(path):
    # reading only the value of a (value, exact) result takes absent data
    # for zero; bind the flag to a name and use it
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

    def flagged(node):
        func = getattr(node, "func", None)
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        return isinstance(node, ast.Call) and name in FLAGGED_CALLS

    lines = [node.lineno for node in ast.walk(tree)
             if (isinstance(node, ast.Assign) and flagged(node.value)
                 and any(isinstance(t, ast.Tuple) and isinstance(t.elts[-1], ast.Name)
                         and t.elts[-1].id == "_" for t in node.targets))
             or (isinstance(node, ast.Subscript) and flagged(node.value)
                 and isinstance(node.slice, ast.Constant) and node.slice.value == 0)]
    assert not lines, f"{path.name}: exactness flag dropped on lines {lines}"


ROOT = Path(__file__).resolve().parent.parent
OUTSIDE_SOURCES = sorted(
    p for p in [*ROOT.glob("tests/*.py"), *ROOT.glob("bench/*.py")]
    if not p.name.startswith("oracle_"))


@pytest.mark.parametrize("path", OUTSIDE_SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_unchecked_constructors_stay_internal(path):
    # Vec._wrap, LaurentPoly._wrap and VertexMap._wrap trust their caller to
    # hand over data that is already valid; only src/mosva and the verbatim
    # oracles (tests/oracle_*.py) may call them
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "_wrap"]
    assert not lines, f"{path.name}: unchecked _wrap constructor on lines {lines}"


def _unused_imports(tree):
    """(line, name) of each name an import binds that the module never reads;
    ``from __future__`` binds nothing."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(node.lineno, bound) for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
            for bound in [alias.asname or alias.name.split(".")[0]]
            if bound not in read]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unused = _unused_imports(tree)
    assert not unused, f"{path.name}: unused imports {unused}"


def _unreferenced_privates(trees):
    """(module, name) of each private module-level function or class that no
    code in ``trees`` (module name -> tree) names outside its own body."""
    refs: dict[str, int] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            if name is not None:
                refs[name] = refs.get(name, 0) + 1
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                inside = sum(1 for sub in ast.walk(node)
                             if getattr(sub, "id", None) == node.name
                             or getattr(sub, "attr", None) == node.name
                             or (isinstance(sub, ast.alias) and sub.name == node.name))
                if refs.get(node.name, 0) == inside:
                    dead.append((module, node.name))
    return dead


def test_every_private_definition_is_referenced():
    # a private helper that nothing in src/mosva names is dead code: tests
    # may read it, but only through something the package itself calls
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for p in SOURCES}
    dead = _unreferenced_privates(trees)
    assert not dead, f"private definitions never referenced: {dead}"


def test_the_dead_code_rules_see_dead_code():
    factory = ROOT / "src" / "mosva" / "factory.py"
    text = factory.read_text(encoding="utf-8")
    assert _unused_imports(ast.parse("import os\n" + text)) == [(1, "os")]
    leftover = ("\n\ndef _add_part(part, p):\n"
                "    return tuple(sorted(part + (p,), reverse=True))\n")
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in SOURCES}
    trees["factory.py"] = ast.parse(text + leftover)
    assert _unreferenced_privates(trees) == [("factory.py", "_add_part")]
    # a private helper that only calls itself is still dead
    trees["factory.py"] = ast.parse(text + "\n\ndef _spin(n):\n    return _spin(n - 1)\n")
    assert _unreferenced_privates(trees) == [("factory.py", "_spin")]


FROZEN_BASE = "_Frozen"
FROZEN_HOOKS = {"__setattr__", "__delattr__"}


def _source_trees():
    return {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
            for p in SOURCES}


def _stray_frozen_hooks(trees):
    """(module, line) of each __setattr__ or __delattr__ that a module defines
    or assigns anywhere but in the body of the frozen base in scalars.py."""
    base = [node for node in ast.walk(trees["scalars.py"])
            if isinstance(node, ast.ClassDef) and node.name == FROZEN_BASE]
    allowed = {id(node) for cls in base for node in cls.body}
    return [(module, node.lineno) for module, tree in trees.items()
            for node in ast.walk(tree) if id(node) not in allowed
            and ((isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and node.name in FROZEN_HOOKS)
                 or (isinstance(node, ast.Assign)
                     and any(getattr(t, "id", None) in FROZEN_HOOKS for t in node.targets)))]


def _frozen_without_slots(trees):
    """The classes that are the frozen base or inherit it, directly or not,
    and declare no __slots__ (so their instances grow a __dict__)."""
    classes = [node for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)]
    frozen = {FROZEN_BASE}
    while True:
        more = {cls.name for cls in classes if cls.name not in frozen
                and any(getattr(b, "id", getattr(b, "attr", None)) in frozen
                        for b in cls.bases)}
        if not more:
            break
        frozen |= more
    return sorted(cls.name for cls in classes if cls.name in frozen
                  and not any(isinstance(node, ast.Assign)
                              and any(getattr(t, "id", None) == "__slots__"
                                      for t in node.targets)
                              for node in cls.body))


def test_immutability_is_written_once():
    # every value class inherits scalars._Frozen, whose __setattr__ and
    # __delattr__ refuse assignment and deletion; a second copy drifts
    assert not _stray_frozen_hooks(_source_trees())


def test_every_frozen_class_declares_slots():
    # without __slots__ a subclass's instances carry a __dict__, which
    # object.__setattr__ writes past the frozen base
    assert not _frozen_without_slots(_source_trees())


def test_the_frozen_rules_see_strays():
    text = (ROOT / "src" / "mosva" / "factory.py").read_text(encoding="utf-8")
    trees = _source_trees()
    trees["factory.py"] = ast.parse(text + "\n\nclass _Loose(Vec):\n    pass\n")
    assert _frozen_without_slots(trees) == ["_Loose"]
    sealed = ("\n\nclass _Sealed:\n    def __setattr__(self, name, value):\n"
              "        raise AttributeError(name)\n")
    trees["factory.py"] = ast.parse(text + sealed)
    assert _stray_frozen_hooks(trees) == [("factory.py", text.count("\n") + 4)]
