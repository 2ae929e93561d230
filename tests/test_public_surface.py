"""Every module-level function and class in ``src/`` is reached from a root.

The roots are what users and the benchmark run: the statements at module
level of each package module (the CLI's ``main`` call, tables such as
``BUILTIN_MAPS``), the names the package exports in ``__all__`` and the
benchmark in ``perfbench/*.py``, which is parsed, never imported.  The
tests are no root, the acceptance criteria included: they check what the
commands compute.  From the roots the scan follows the bodies of the
definitions it reaches; a definition that only tests call is reported as
``file:line name``.

A use is an identifier in code: a name, or an attribute such as
``bounds.verify_apriori_all``.  A docstring or an ``import`` line is not a use,
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
    "ScaledMatrix.from_matrix": "the public constructor of the exported ScaledMatrix",
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


def test_every_src_definition_is_reached_from_a_command_or_benchmark():
    modules = {
        str(path.relative_to(REPO)): path.read_text(encoding="utf-8")
        for path in sorted(SRC.glob("*.py"))
    }
    roots = _exports(modules["src/hypcoords/__init__.py"])
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


# An optional parameter that no call in the repository sets is a setting
# that every run leaves at its default: the default belongs in the body.


def _callee(call):
    """The name a call uses: ``f`` of ``f(...)`` and of ``x.f(...)``."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def passed_settings(texts):
    """For each callee name, the keywords its calls pass and the most
    positional arguments one of them passes before any ``*``."""
    keywords, positions = {}, {}
    for text in texts:
        for node in ast.walk(ast.parse(text)):
            name = _callee(node) if isinstance(node, ast.Call) else None
            if name:
                keywords.setdefault(name, set()).update(k.arg for k in node.keywords if k.arg)
                count = next((n for n, a in enumerate(node.args) if isinstance(a, ast.Starred)), len(node.args))
                positions[name] = max(positions.get(name, 0), count)
    return keywords, positions


def _optional_parameters(tree):
    """(name a call uses, line, parameter, position) of each parameter with a
    default, positional or keyword-only (position None), of every function
    and method in ``tree``.  ``__init__`` is called by its class's name, and
    a method's ``self`` or ``cls`` takes no position."""
    owner = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        shift = int(id(node) in owner and bool(positional) and positional[0].arg in ("self", "cls"))
        name = owner[id(node)] if node.name == "__init__" and id(node) in owner else node.name
        for pos in range(len(positional) - len(args.defaults), len(positional)):
            yield name, node.lineno, positional[pos].arg, pos - shift
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield name, node.lineno, arg.arg, None


def unset_settings(modules, callers, exempt=()):
    """``file:line function(parameter)`` of each optional parameter of a
    function in ``modules`` that no call in ``callers`` passes, other than
    those of a function named in ``exempt``.

    Both map a label to source text.  As in ``unreached``, modules are not
    told apart: a call of ``f(...)`` or ``x.f(...)`` passes its arguments
    to every function named ``f``, by keyword or by position.  Values
    passed through ``*`` or ``**`` are not seen.
    """
    keywords, positions = passed_settings(callers.values())
    missed = []
    for label, text in modules.items():
        for name, line, param, pos in _optional_parameters(ast.parse(text)):
            passed = param in keywords.get(name, ()) or (pos is not None and pos < positions.get(name, 0))
            if not (passed or name in exempt):
                missed.append((label, line, f"{name}({param})"))
    return [f"{label}:{line} {what}" for label, line, what in sorted(missed)]


# Functions whose optional parameters only ``**`` passes, with that caller
SET_THROUGH_KEYWORD_DICT = {
    **dict.fromkeys(
        ("henon", "standard", "lorenz2d", "linear"),
        "make_map(name, **params) passes the map parameters of the CLI's --param, --a, --b, --K "
        "and --matrix",
    ),
    "structural_violations": "ConstantsLedger.__post_init__ passes the prefactors B, B_tilde, C "
    "and D with every other field as **",
}


def test_setting_scan_reports_parameters_no_call_passes():
    source = '''class Box:
    def __init__(self, size, label=None):
        pass

    def fill(self, item, count=1, *, strict=False):
        pass


def tune(x, scale=1.0, shift=0.0, *, mode="a"):
    pass


def spread(x, width=1.0):
    pass


def exempted(x, factor=2.0):
    pass


Box(1).fill("a", 2)
tune(1.0, 2.0, mode="b")
spread(*[1.0, 2.0])
spread(**{"x": 1.0, "width": 3.0})
'''
    assert unset_settings({"m.py": source}, {"m.py": source}, exempt={"exempted"}) == [
        "m.py:2 Box(label)",
        "m.py:5 fill(strict)",
        "m.py:9 tune(shift)",
        "m.py:13 spread(width)",
    ]


def test_every_optional_src_parameter_is_set_by_some_call():
    modules = {
        str(path.relative_to(REPO)): path.read_text(encoding="utf-8")
        for path in sorted(SRC.glob("*.py"))
    }
    callers = {
        str(path.relative_to(REPO)): path.read_text(encoding="utf-8")
        for folder in ("src", "tests", "perfbench")
        for path in sorted((REPO / folder).rglob("*.py"))
    }
    missed = unset_settings(modules, callers, exempt=SET_THROUGH_KEYWORD_DICT)
    assert not missed, "optional parameters that no call sets:\n" + "\n".join(missed)


# Every error the package raises is a HypcoordsError, which the CLI turns into
# its documented exit code.  These are the exceptions src/ raises outside that
# tree, each with the caller that catches it.
RAISED_OUTSIDE_THE_TREE = {
    ("make_map", "KeyError"): "cli._build_map turns it into a ConfigError",
    ("_positive", "OverflowError"): "auxiliary_constants catches it and forms the constants again "
    "from exact rationals",
}


def error_classes(modules, base="HypcoordsError"):
    """``base`` and the names of the classes in ``modules`` that derive from it."""
    bases = {
        node.name: {b.id for b in node.bases if isinstance(b, ast.Name)}
        for text in modules.values()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.ClassDef)
    }
    found = {base}
    while True:
        more = {name for name, parents in bases.items() if parents & found} - found
        if not more:
            return found
        found |= more


def _raises(node, function="<module>"):
    """(innermost enclosing function, node) of each ``raise`` under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Raise):
            yield function, child
        yield from _raises(child, child.name if isinstance(child, ast.FunctionDef) else function)


def untyped_raises(modules, exempt=()):
    """``file:line function raises name`` of each ``raise`` in ``modules``
    whose exception is neither a HypcoordsError class of ``modules`` nor the
    call of a function annotated to return one, other than the (function,
    name) pairs in ``exempt``.  A bare ``raise`` re-raises what its handler
    caught and is not reported."""
    errors = error_classes(modules)
    helpers = {
        node.name
        for text in modules.values()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.FunctionDef) and isinstance(node.returns, ast.Name)
        and node.returns.id in errors
    }
    missed = []
    for label, text in modules.items():
        for function, node in _raises(ast.parse(text)):
            if node.exc is None:
                continue
            target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = target.id if isinstance(target, ast.Name) else getattr(target, "attr", "?")
            if not (name in errors or name in helpers or (function, name) in exempt):
                missed.append(f"{label}:{node.lineno} {function} raises {name}")
    return missed


def test_raise_scan_reports_exceptions_outside_the_error_tree():
    source = '''class HypcoordsError(Exception):
    pass


class Oops(HypcoordsError):
    pass


class Worse(Oops):
    pass


def made() -> Oops:
    return Worse("x")


def f(x):
    if x:
        raise Worse("a")
    try:
        g()
    except KeyError:
        raise
    raise made() from None


def g():
    def inner():
        raise ValueError("b")
    raise errors.Oops("c") if inner() else KeyError("d")


def allowed():
    raise OverflowError("e")


raise RuntimeError
'''
    assert untyped_raises({"m.py": source}, exempt={("allowed", "OverflowError")}) == [
        "m.py:29 inner raises ValueError",
        "m.py:30 g raises ?",
        "m.py:37 <module> raises RuntimeError",
    ]


def test_every_src_raise_is_a_package_error():
    modules = {
        str(path.relative_to(REPO)): path.read_text(encoding="utf-8")
        for path in sorted(SRC.glob("*.py"))
    }
    missed = untyped_raises(modules, exempt=RAISED_OUTSIDE_THE_TREE)
    assert not missed, "raised outside the HypcoordsError tree:\n" + "\n".join(missed)
