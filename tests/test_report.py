"""The ``BoundReport`` constructor is the one place that decides a row's status.

Each row is lhs <= rhs * (1 + tol) + abs_tol, status 0 where that fails, 1
where it passes only through abs_tol (lhs > rhs * (1 + tol)) and 2 where it
passes outright.  These tests evaluate that rule row by row on Python floats
and compare it with what the constructor stored, on inf and NaN sides, with
one allowance for every row or one per check, negative allowances included;
and they pin the row order, the index rows a report takes and the empty report.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hypcoords.bounds import BoundReport
from hypcoords.errors import InvalidInput

SPECIAL = [0.0, -0.0, 1.0, -1.0, 1e-12, -1e-12, 2.0, 1e308, -1e308, 5e-324, math.inf, -math.inf, math.nan]
NUMBERS = st.one_of(st.sampled_from(SPECIAL), st.floats())


def python_status(lhs: float, rhs: float, tol: float, abs_tol: float) -> int:
    limit = rhs * (1.0 + tol)
    if not lhs <= limit + abs_tol:
        return 0
    return 1 if lhs > limit else 2


@st.composite
def tables(draw):
    """(tol, checks, indices, lhs, rhs, abs_tol) of one report: per check a
    value or an array over the indices; abs_tol also one value for all."""
    tol = draw(st.sampled_from([0.0, 1e-9, -0.5, 2.0, math.inf, math.nan]))
    checks = draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4, unique=True))
    n = draw(st.integers(1, 4))
    per_check = st.lists(
        st.one_of(NUMBERS, st.lists(NUMBERS, min_size=n, max_size=n).map(np.array)),
        min_size=len(checks), max_size=len(checks),
    )
    abs_tol = draw(st.one_of(NUMBERS, per_check))
    return tol, checks, [(j, 7) for j in range(n)], draw(per_check), draw(per_check), abs_tol


def _value(values, c: int, j: int) -> float:
    value = values[c]
    return float(value[j] if isinstance(value, np.ndarray) else value)


@settings(max_examples=300, deadline=None)
@given(tables())
@example((0.0, ["strict", "loose"], [(1,), (2,)], [np.array([-1e-12, -2e-12]), np.array([0.0, 1e-12])],
          [0.0, 0.0], [-1e-12, 1e-12]))
@example((1e-9, ["a"], [(0,)], [math.nan], [1.0], math.inf))
@example((1e-9, ["a", "b"], [(0,)], [math.inf, 1.0], [math.inf, -math.inf], [0.0, math.inf]))
def test_constructor_stores_the_row_rule_evaluated_row_by_row(table):
    tol, checks, indices, lhs, rhs, abs_tol = table
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = BoundReport("rule", tol, checks, indices, lhs, rhs, abs_tol)
    expected = []
    for j, index in enumerate(indices):
        for c, check in enumerate(checks):
            a, b = _value(lhs, c, j), _value(rhs, c, j)
            allowance = _value(abs_tol, c, j) if isinstance(abs_tol, list) else float(abs_tol)
            expected.append((check, index, a.hex(), b.hex(), python_status(a, b, tol, allowance)))
    names, check, index_rows, index, lhs_column, rhs_column, status = report.columns()
    assert index_rows.tolist() == [list(index) for index in indices]
    stored = [(names[c], tuple(index_rows[i].tolist()), a.hex(), b.hex(), s) for c, i, a, b, s in zip(
        check.tolist(), index.tolist(), lhs_column.tolist(), rhs_column.tolist(), status.tolist())]
    assert stored == expected
    assert status.dtype == np.int8
    # the table holds the same rows, check by index
    assert report.status.shape == report.lhs.shape == report.rhs.shape == (len(checks), len(indices))
    assert report.status.T.ravel().tolist() == status.tolist()
    rows = report.rows
    assert [r.passed for r in rows] == [s > 0 for *_, s in expected]
    assert report.verdict == all(s > 0 for *_, s in expected)
    first = next((n for n, (*_, s) in enumerate(expected) if s == 0), None)
    assert repr(report.first_failure()) == repr(None if first is None else rows[first])  # NaN sides


def test_rows_come_index_outer_check_inner():
    report = BoundReport("order", 0.0, ["x", "y"], [(1,), (2,), (5,)],
                         [[0.0, 3.0, 2.0], [1.0, 1.0, 2.0]], [[1.0, 2.0, 2.0], [1.0, 1.0, 1.0]], [0.0, 1.0])
    assert [(r.check, r.index, r.passed) for r in report.rows] == [
        ("x", (1,), True), ("y", (1,), True), ("x", (2,), False), ("y", (2,), True),
        ("x", (5,), True), ("y", (5,), True),
    ]
    names, check, _, index, *_, status = report.columns()
    assert names == ["x", "y"] and check.tolist() == [0, 1] * 3 and index.tolist() == [0, 0, 1, 1, 2, 2]
    assert status.tolist() == [2, 2, 0, 2, 2, 1]
    assert report.status.tolist() == [[2, 0, 2], [2, 2, 1]]
    assert report.first_failure().index == (2,) and not report.verdict


def test_an_empty_report_passes_with_no_rows():
    # no checks (a bracket report without inputs), or no index rows
    for checks, indices in (([], [(0,)]), (["a", "b"], np.zeros((0, 2), int)), ([], np.zeros((0, 1), int))):
        report = BoundReport("empty", 0.0, checks, indices, [np.zeros(len(indices))] * len(checks),
                             [1.0] * len(checks))
        assert report.verdict and report.rows == () and report.first_failure() is None
        names, check, rows, index, *sides = report.columns()
        assert names == checks and rows.shape == np.shape(indices)
        assert [len(column) for column in (check, index, *sides)] == [0] * 5


def test_a_side_without_one_value_per_check_is_refused():
    for lhs, rhs, abs_tol in (([1.0], [1.0, 2.0], 0.0), ([1.0, 2.0], [1.0, 2.0], [0.0]),
                              ([1.0, 2.0], [1.0, np.zeros(3)], 0.0)):
        with pytest.raises(ValueError):
            BoundReport("short", 0.0, ["a", "b"], [(0,), (1,)], lhs, rhs, abs_tol)


def test_index_rows_must_be_an_n_by_d_int_array():
    report = BoundReport("pairs", 0.0, ["a", "b"], np.array([[1, 2], [3, 4]], np.uint16),
                         [np.zeros(2), 2.0], [1.0, 1.0])
    rows = report.rows
    assert [(r.check, r.index) for r in rows] == [("a", (1, 2)), ("b", (1, 2)), ("a", (3, 4)), ("b", (3, 4))]
    assert all(type(i) is int for r in rows for i in r.index)
    assert report.first_failure().index == (1, 2)
    # no rows, a flat list, three axes, floats, bools, ragged tuples, texts
    for indices in ([], [1, 2], [[[1]]], [(1.0, 2.0)], np.array([[True, False]]), [(1, 2), (3,)], [("a",)]):
        with pytest.raises(ValueError):
            BoundReport("refused", 0.0, ["a"], indices, [0.0], [1.0])


def test_a_check_named_twice_is_refused():
    # each check is one row of the table, and a written summary is keyed by its name
    with pytest.raises(InvalidInput, match="named twice"):
        BoundReport("twice", 0.0, ["a", "b", "a"], [(0,)], [0.0] * 3, [1.0] * 3)
