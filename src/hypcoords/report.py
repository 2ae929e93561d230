"""Verdict reports: every inequality the package checks is a row of a
``BoundReport``, and ``BoundReport.add`` is the one place that evaluates a
row's rule and decides its status."""

from __future__ import annotations

import numbers
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np


class BoundRow(NamedTuple):
    check: str
    index: Tuple[int, ...]
    lhs: float
    rhs: float
    margin: float
    passed: bool


class BoundReport:
    """Rows ``lhs <= rhs * (1 + tol) + abs_tol``, each a check at an index,
    with a status: 0 fail, 1 pass only through abs_tol (lhs > rhs * (1 + tol)),
    2 pass.  Kept as the blocks ``add`` received: the codes of their checks,
    the position of their first index tuple, then lhs, rhs (float64; an int
    beyond 2^53 becomes its float) and status, each a check x index array."""

    def __init__(self, name: str, tol: float):
        self.name = name
        self.tol = tol
        self.context: Dict[str, float] = {}
        self._codes: Dict[str, int] = {}  # each check name's position, in the order first added
        self._indices: List[Tuple[int, ...]] = []
        self._blocks: List[tuple] = []

    def add(self, checks, indices, lhs, rhs, abs_tol=0.0) -> None:
        """For each index tuple of ``indices`` in turn, one row per check of
        ``checks``.  ``lhs`` and ``rhs`` hold per check a value, or an array
        over ``indices``; so does ``abs_tol``, which may also be one value for
        every row; a count other than one per check is a ValueError.  Inf and
        NaN are valid sides and raise no warning; a row with a NaN in its
        rule fails."""
        if isinstance(abs_tol, numbers.Real):  # one allowance for every row
            abs_tol = [abs_tol] * len(checks)
        sides = np.empty((3, len(checks), len(indices)))
        for side, values in zip(sides, (lhs, rhs, abs_tol)):
            for c, value in zip(range(len(checks)), values, strict=True):
                side[c] = value
        lhs, rhs, allowance = sides
        with np.errstate(all="ignore"):
            limit = rhs * (1.0 + float(self.tol))
            passed = lhs <= limit + allowance
            status = passed.view(np.int8) + (passed & (lhs <= limit))
        codes = [self._codes.setdefault(check, len(self._codes)) for check in checks]
        self._blocks.append((codes, len(self._indices), lhs, rhs, status))
        self._indices.extend(indices)

    def columns(self) -> tuple:
        """The check names and the index tuples, each followed by every row's
        position among them, then lhs, rhs and status; numpy copies but the lists."""
        check, index, *sides = ([np.zeros(0, dtype)] for dtype in (np.intp, np.intp, float, float, np.int8))
        for codes, start, *blocks in self._blocks:
            n = blocks[0].shape[1]
            check.append(np.tile(np.array(codes, np.intp), n))
            index.append(np.arange(start, start + n).repeat(len(codes)))
            for column, block in zip(sides, blocks):
                column.append(block.T.ravel())
        return (list(self._codes), np.concatenate(check), self._indices, np.concatenate(index),
                *map(np.concatenate, sides))

    def _each_row(self) -> Iterator[BoundRow]:
        checks, check, indices, index, *sides = self.columns()
        for c, i, lhs, rhs, status in zip(check.tolist(), index.tolist(), *(x.tolist() for x in sides)):
            yield BoundRow(checks[c], indices[i], lhs, rhs, rhs - lhs, status > 0)

    @property
    def rows(self) -> Tuple[BoundRow, ...]:
        """Every row as a BoundRow, built on each call."""
        return tuple(self._each_row())

    @property
    def verdict(self) -> bool:
        return all(status.all() for *_, status in self._blocks)

    def first_failure(self) -> Optional[BoundRow]:
        return next((row for row in self._each_row() if not row.passed), None)
