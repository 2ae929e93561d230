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
of its string constants count as uses as well.  Methods are not reported;
a reached class reaches every name its methods use.
"""

import ast
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


def unreached(modules, roots):
    """``file:line name`` of each module-level definition not reached from ``roots``.

    ``modules`` maps a label to source text; the statements at module level
    of every module other than definitions, imports and docstrings are roots
    too.
    """
    defs = {}
    reached = set(roots)
    for label, text in modules.items():
        for stmt in ast.parse(text).body:
            if isinstance(stmt, _DEFS):
                defs.setdefault(stmt.name, []).append((label, stmt))
            elif not (isinstance(stmt, _IMPORTS) or _docstring(stmt)):
                reached |= names_used(stmt)
    todo = list(reached)
    while todo:
        for _, stmt in defs.get(todo.pop(), ()):
            new = names_used(stmt) - reached
            reached |= new
            todo.extend(new)
    missed = sorted(
        (label, stmt.lineno, name)
        for name, found in defs.items()
        if name not in reached
        for label, stmt in found
    )
    return [f"{label}:{line} {name}" for label, line, name in missed]


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


def test_every_src_definition_is_reached_from_a_command_criterion_or_benchmark():
    modules = {
        str(path.relative_to(REPO)): path.read_text(encoding="utf-8")
        for path in sorted(SRC.glob("*.py"))
    }
    roots = _exports(modules["src/hypcoords/__init__.py"])
    roots |= names_used(ast.parse((REPO / "tests" / "test_acceptance.py").read_text(encoding="utf-8")))
    for path in sorted((REPO / "perfbench").glob("*.py")):
        roots |= names_used(ast.parse(path.read_text(encoding="utf-8")), strings=True)
    missed = unreached(modules, roots)
    assert not missed, "reached only from tests:\n" + "\n".join(missed)
