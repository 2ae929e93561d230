"""Every module-level function and class in ``src/`` is reached from a root.

The roots are what users and the benchmark run: the statements at module
level of each package module (the CLI's ``main`` call, tables such as
``BUILTIN_MAPS``), the names the package exports in ``__all__``, the
acceptance criteria in ``tests/test_acceptance.py`` and the benchmark in
``perfbench/*.py``, which is parsed, never imported.  From the roots the
scan follows the bodies of the definitions it reaches; a definition that
only other tests call is reported as ``file:line name``.

A use is an identifier in code: a name, or an attribute such as
``bounds.coeccentricity``.  A docstring or an ``import`` line is not a use,
and modules are not told apart, so two definitions of one name are reached
together.  The benchmark names its tracer targets in strings, so the words
of its string constants count as uses as well.

Methods count as definitions of their own: a method is reached when its
name is used in reached code, and a dunder method, which Python calls by
itself, when its class is.  A method that only code outside the package
calls is listed in ``CALLED_FROM_OUTSIDE`` with that caller.
"""

import ast
import copy
import pathlib
import re

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "hypcoords"

_DEFS = (ast.FunctionDef, ast.ClassDef)
_IMPORTS = (ast.Import, ast.ImportFrom)


def _docstring(node):
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(
        node.value.value, str
    )


def names_used(tree, strings=False):
    """Identifiers used in ``tree``, and with ``strings`` the words of its string constants."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    if strings:
        docstrings = {
            id(node.body[0].value)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Module,) + _DEFS) and node.body and _docstring(node.body[0])
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
                used.update(re.findall(r"\w+", node.value))
    return used


def _method(stmt):
    """Whether ``stmt`` in a class body is a method that code calls by name:
    a function other than a dunder, which Python calls on its own."""
    return isinstance(stmt, ast.FunctionDef) and not (stmt.name.startswith("__") and stmt.name.endswith("__"))


def _definitions(stmt):
    """(name, qualified name, node) of a module-level definition and, for a
    class, of each of its methods.  A class's node keeps its other
    statements only, so reaching a class does not reach its methods."""
    if not isinstance(stmt, ast.ClassDef):
        return [(stmt.name, stmt.name, stmt)]
    methods = [item for item in stmt.body if _method(item)]
    own = copy.copy(stmt)
    own.body = [item for item in stmt.body if not _method(item)]
    return [(stmt.name, stmt.name, own)] + [(m.name, f"{stmt.name}.{m.name}", m) for m in methods]


def unreached(modules, roots, exempt=()):
    """``file:line name`` of each module-level definition and method not
    reached from ``roots``, other than those named in ``exempt``.

    ``modules`` maps a label to source text; the statements at module level
    of every module other than definitions, imports and docstrings are roots
    too.  A method is reached when its name is, and a dunder method with its
    class.
    """
    defs = {}
    reached = set(roots)
    for label, text in modules.items():
        for stmt in ast.parse(text).body:
            if isinstance(stmt, _DEFS):
                for name, qualname, node in _definitions(stmt):
                    defs.setdefault(name, []).append((label, qualname, node))
            elif not (isinstance(stmt, _IMPORTS) or _docstring(stmt)):
                reached |= names_used(stmt)
    todo = list(reached)
    while todo:
        for _, _, node in defs.get(todo.pop(), ()):
            new = names_used(node) - reached
            reached |= new
            todo.extend(new)
    missed = sorted(
        (label, node.lineno, qualname)
        for name, found in defs.items()
        if name not in reached
        for label, qualname, node in found
        if qualname not in exempt
    )
    return [f"{label}:{line} {qualname}" for label, line, qualname in missed]


# Methods that code outside the package calls by name, with the caller
CALLED_FROM_OUTSIDE = {
    "_ArgumentParser.error": "argparse.ArgumentParser calls self.error on a malformed command line",
}


def _exports(text):
    for stmt in ast.parse(text).body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            return {elt.value for elt in stmt.value.elts}
    return set()


def test_scanner_reports_docstring_and_import_only_names():
    source = '''"""Mentions helper_in_docstring."""
from .other import imported_only


def helper_in_docstring():
    """Also names imported_only."""


def called():
    return inner()


def inner():
    return TABLE


def imported_only():
    pass


def tabled():
    pass


TABLE = {"key": tabled}
'''
    roots = names_used(ast.parse("called()"))
    assert unreached({"m.py": source}, roots) == [
        "m.py:5 helper_in_docstring",
        "m.py:17 imported_only",
    ]


def test_scanner_reports_methods_that_no_reached_code_calls():
    source = '''class Reached:
    size = measure()

    def __init__(self):
        self.used()

    def used(self):
        return helper()

    def unused(self):
        return only_unused_calls()

    def hook(self):
        pass


def measure():
    pass


def helper():
    pass


def only_unused_calls():
    pass
'''
    roots = names_used(ast.parse("Reached()"))
    assert unreached({"m.py": source}, roots, exempt={"Reached.hook"}) == [
        "m.py:10 Reached.unused",
        "m.py:25 only_unused_calls",
    ]


def test_every_src_definition_is_reached_from_a_command_criterion_or_benchmark():
    modules = {
        str(path.relative_to(REPO)): path.read_text(encoding="utf-8")
        for path in sorted(SRC.glob("*.py"))
    }
    roots = _exports(modules["src/hypcoords/__init__.py"])
    roots |= names_used(ast.parse((REPO / "tests" / "test_acceptance.py").read_text(encoding="utf-8")))
    for path in sorted((REPO / "perfbench").glob("*.py")):
        roots |= names_used(ast.parse(path.read_text(encoding="utf-8")), strings=True)
    missed = unreached(modules, roots, exempt=CALLED_FROM_OUTSIDE)
    assert not missed, "reached only from tests:\n" + "\n".join(missed)


def unused_imports(modules):
    """``file:line name`` of each name that an import at module level binds
    and no code of its module uses, other than a name in ``__all__`` or on a
    line marked ``# noqa: F401``.  A use is a name in code, annotations
    included; ``import a.b`` binds ``a``."""
    missed = []
    for label, text in modules.items():
        tree = ast.parse(text)
        lines = text.splitlines()
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exports(text)
        for stmt in tree.body:
            if not isinstance(stmt, _IMPORTS) or getattr(stmt, "module", None) == "__future__":
                continue
            for alias in stmt.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                    missed.append(f"{label}:{alias.lineno} {name}")
    return missed


def test_import_scan_reports_names_no_code_uses():
    source = '''"""Names unused_in_docstring."""
from __future__ import annotations

import os.path
import numpy as np
from .a import used, unused_in_docstring
from .b import exempt  # noqa: F401
from .c import (
    annotation_only,
    never,
)


def f(x: annotation_only):
    return np.array(used(x)), os.sep


TABLE = {"never": 1}
'''
    assert unused_imports({"m.py": source}) == ["m.py:6 unused_in_docstring", "m.py:10 never"]


def test_every_src_import_is_used():
    modules = {
        str(path.relative_to(REPO)): path.read_text(encoding="utf-8")
        for path in sorted(SRC.glob("*.py"))
    }
    missed = unused_imports(modules)
    assert not missed, "imported and never used:\n" + "\n".join(missed)


# The builtin sum() compensates its rounding from Python 3.12 on, so a float
# sum taken with it would make report bytes depend on the Python version.
# These modules add floats left to right with ``+=``; cli's sums are integer
# tallies, exact either way.
FLOAT_SUM_MODULES = ("bounds", "certificate", "cocycle", "hypframe", "foliation", "linalg2")


def builtin_sum_calls(modules):
    """``file:line sum`` of each call of ``sum`` by its bare name."""
    return [
        f"{label}:{node.lineno} sum"
        for label, text in modules.items()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum"
    ]


def test_sum_scan_reports_builtin_calls_only():
    source = '''import numpy as np


def f(xs, arr):
    total = 0.0
    for x in xs:
        total += x
    return total + np.sum(arr) + arr.sum(axis=0) + sum(
        xs
    )


TABLE = {"sum": sum}
'''
    assert builtin_sum_calls({"m.py": source}) == ["m.py:8 sum"]


def test_float_sums_add_left_to_right():
    modules = {
        f"src/hypcoords/{name}.py": (SRC / f"{name}.py").read_text(encoding="utf-8")
        for name in FLOAT_SUM_MODULES
    }
    calls = builtin_sum_calls(modules)
    assert not calls, "builtin sum() on floats:\n" + "\n".join(calls)
