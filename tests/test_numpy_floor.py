"""The package keeps to the numpy floor that pyproject.toml declares.

``pyproject.toml`` asks for ``numpy>=1.24``, so ``src/`` may not call a
name that only NumPy 2 has.  The installed numpy is newer and would run
such a call, so the sources are scanned instead.
"""

import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "hypcoords"

# Functions that NumPy 2 added at the top level or in numpy.linalg; the
# array-API aliases (acos, pow, concat, ...) are among them.
NUMPY2_ONLY = frozenset({
    "acos", "acosh", "asin", "asinh", "atan", "atan2", "atanh", "bitwise_count",
    "bitwise_invert", "bitwise_left_shift", "bitwise_right_shift", "concat",
    "cumulative_prod", "cumulative_sum", "isdtype", "matrix_norm", "matrix_transpose",
    "matvec", "permute_dims", "pow", "svdvals", "unique_all", "unique_counts",
    "unique_inverse", "unique_values", "unstack", "vecdot", "vecmat", "vector_norm",
})

# np.name, numpy.name, np.linalg.name, and names imported from numpy
_ATTRIBUTE = re.compile(r"\b(?:np|numpy)(?:\.linalg)?\.(\w+)")
_IMPORT = re.compile(r"^\s*from\s+numpy(?:\.linalg)?\s+import\s+\(?([\w\s,]+)", re.MULTILINE)


def numpy2_names(text):
    used = set(_ATTRIBUTE.findall(text))
    for names in _IMPORT.findall(text):
        used.update(name.split(" as ")[0].strip() for name in names.split(","))
    return sorted(used & NUMPY2_ONLY)


def test_scanner_finds_numpy2_names():
    assert numpy2_names("d = np.vecdot(u, v)\nn = numpy.linalg.matrix_norm(m)") == [
        "matrix_norm", "vecdot",
    ]
    assert numpy2_names("from numpy import concat, zeros\nx = math.atan2(y, x)") == ["concat"]


def test_sources_use_no_numpy2_only_names():
    found = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if (names := numpy2_names(path.read_text(encoding="utf-8")))
    }
    assert found == {}
