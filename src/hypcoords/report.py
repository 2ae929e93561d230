"""Verdict reports: every inequality the package checks is a row of a
``BoundReport``, whose constructor is the one place that evaluates a row's
rule and decides its status.  ``_spell`` gives the %.17g text of the floats
that the CSV reports hold."""

from __future__ import annotations

import functools
import math
import numbers
import sys
from typing import Dict, Iterator, NamedTuple, Optional, Tuple

import numpy as np

from .errors import InvalidInput


class BoundRow(NamedTuple):
    check: str
    index: Tuple[int, ...]
    lhs: float
    rhs: float
    margin: float
    passed: bool


class BoundReport:
    """Rows ``lhs <= rhs * (1 + tol) + abs_tol``, one for each of ``checks``
    at each row of ``indices``, an (n, d) int array or n int tuples of one
    length d, with a status: 0 fail, 1 pass only through abs_tol (lhs > rhs
    * (1 + tol)), 2 pass.  Kept as one table: the check names, ``indices``,
    and ``lhs``, ``rhs`` (float64; an int beyond 2^53 becomes its float) and
    ``status``, each a check x index array; ``columns`` flattens it to rows.

    Other index rows, or a check named twice, are InvalidInput.  ``lhs`` and
    ``rhs`` hold per check a value, or an array over ``indices``; so does
    ``abs_tol``, which may also be one value for every row; a count other
    than one per check is a ValueError.  Inf and NaN are valid sides and
    raise no warning; a row with a NaN in its rule fails."""

    def __init__(self, name: str, tol: float, checks, indices, lhs, rhs, abs_tol=0.0):
        indices = np.array(indices)
        if indices.dtype.kind not in "iu" or indices.ndim != 2:
            raise InvalidInput(f"index rows {indices.dtype} {indices.shape} are not an (n, d) int array")
        if len(set(checks)) != len(checks):
            raise InvalidInput(f"a check is named twice among {list(checks)}")
        self.name, self.tol, self.checks, self.indices = name, tol, list(checks), indices
        self.context: Dict[str, float] = {}
        if isinstance(abs_tol, numbers.Real):  # one allowance for every row
            abs_tol = [abs_tol] * len(checks)
        sides = np.empty((3, len(checks), len(indices)))
        for side, values in zip(sides, (lhs, rhs, abs_tol)):
            for c, value in zip(range(len(checks)), values, strict=True):
                side[c] = value
        self.lhs, self.rhs, allowance = sides
        with np.errstate(all="ignore"):
            limit = self.rhs * (1.0 + float(tol))
            passed = self.lhs <= limit + allowance
            self.status = passed.view(np.int8) + (passed & (self.lhs <= limit))

    def columns(self) -> tuple:
        """The table as rows, index outer and check inner: the check names and
        each row's position among them, the index rows and each row's
        position among them, then lhs, rhs and status; all copies."""
        count, n = self.status.shape
        return (list(self.checks), np.tile(np.arange(count), n), self.indices.copy(), np.arange(n).repeat(count),
                *(side.T.flatten() for side in (self.lhs, self.rhs, self.status)))

    def _each_row(self) -> Iterator[BoundRow]:
        checks, check, indices, index, *sides = self.columns()
        for c, i, lhs, rhs, status in zip(check.tolist(), indices[index].tolist(), *(x.tolist() for x in sides)):
            yield BoundRow(checks[c], tuple(i), lhs, rhs, rhs - lhs, status > 0)

    @property
    def rows(self) -> Tuple[BoundRow, ...]:
        """Every row as a BoundRow, built on each call."""
        return tuple(self._each_row())

    @property
    def verdict(self) -> bool:
        return bool(self.status.all())

    def first_failure(self) -> Optional[BoundRow]:
        return next((row for row in self._each_row() if not row.passed), None)


# The longest %.17g text, "-2.2250738585072014e-308", and the most values
# ``_spell`` turns into text at once, which bounds its temporary arrays
_TEXT_WIDTH = 24
_SPELL_BLOCK = 4096
# A source row of ``_spell``: sign or NUL, "0", ".", the 17 digits, "e", the
# exponent's sign, two NULs, then the exponent's four digits
_SIGN, _ZERO, _POINT, _DIGITS, _EXP, _NUL, _SOURCE = 0, 1, 2, 3, 20, 22, 28
_SOURCE_ROW = np.zeros(_SOURCE, np.uint8)
_SOURCE_ROW[[_ZERO, _POINT, _EXP]] = [ord("0"), ord("."), ord("e")]
_POWERS = range(-300, 331)  # the exponents q of the 10^q that _scaled reads


@functools.lru_cache(maxsize=None)
def _digit_tables() -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The four ASCII digits of each n < 10^4 as one uint32, the number of
    trailing zeros among them (four for 0), and the %.17g text of each
    class of value, as the positions of its bytes in a source row: fixed
    notation at exponents -4 .. 16, then exponent notation with two and
    three exponent digits, each for 0 .. 17 kept digits, at row
    18 * notation + digits.  Built at first use."""
    n = np.arange(10**4)
    quads = np.empty((10**4, 4), np.uint8)
    trailing_zeros = np.zeros(10**4, np.uint8)
    for place in range(4):  # one column at a time, which keeps the temporaries small
        quads[:, 3 - place] = n // 10**place % 10 + ord("0")
        trailing_zeros[::10 ** (place + 1)] += 1
    digits = list(range(_DIGITS, _DIGITS + 17))
    rows, heads = [], []  # heads: the digits ahead of the point (0 where "0." leads)
    for x in range(-4, 17):
        if x < 0:
            rows.append([_SIGN, _ZERO, _POINT, *[_ZERO] * (-x - 1), *digits])
        else:
            rows.append([_SIGN, *digits[:x + 1], _POINT, *digits[x + 1:]])
        heads.append(max(x + 1, 0))
    for width in (2, 3):
        rows.append([_SIGN, digits[0], _POINT, *digits[1:], _EXP, _EXP + 1, *range(_SOURCE - width, _SOURCE)])
        heads.append(1)
    rows = np.array([row + [_NUL] * (_TEXT_WIDTH - len(row)) for row in rows])[:, None]
    heads, kept = np.array(heads)[:, None, None], np.arange(18)[:, None]
    # trailing zeros after the point go, and so does a point with no digit after it
    drop = (rows >= _DIGITS + np.maximum(kept, heads)) & (rows < _DIGITS + 17)
    drop |= (rows == _POINT) & (0 < heads) & (kept <= heads)
    return quads.view(np.uint32).ravel(), trailing_zeros, np.where(drop, _NUL, rows).reshape(-1, _TEXT_WIDTH)


@functools.lru_cache(maxsize=None)
def _powers_of_ten() -> Tuple[np.ndarray, ...]:
    """For each q of ``_POWERS``: the 26-bit halves of h, then l and s, where
    10^q = (h + l) 2^s to a relative 2^-104 and h is in [1/2, 2]; built
    from the integer round(10^q 2^(120 - s))."""
    his, los, shifts = [], [], []
    for q in _POWERS:
        num, den = (10**q, 1) if q >= 0 else (1, 10**-q)
        shift = num.bit_length() - den.bit_length()
        num, den = num << max(0, 120 - shift), den << max(0, shift - 120)
        a = (2 * num + den) // (2 * den)
        hi = float(a)
        his.append(math.ldexp(hi, -120))
        los.append(math.ldexp(float(a - int(hi)), -120))
        shifts.append(shift)
    hi = np.array(his)
    split = 134217729.0 * hi  # 2^27 + 1
    high = split - (split - hi)
    return high, hi - high, np.array(los), np.array(shifts)


def _scaled(m: np.ndarray, e: np.ndarray, p: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """round(m 2^e 10^(16 - p)) as int64, and whether the scaled value lies
    within 2^-30 of a half-integer; see ``_spell``."""
    high, low, lo, shift = (column[16 - p - _POWERS.start] for column in _powers_of_ten())
    split = 134217729.0 * m
    m_high = split - (split - m)
    m_low = m - m_high
    big = m * (high + low)
    small = ((m_high * high - big) + m_high * low + m_low * high) + m_low * low + m * lo
    big, small = np.ldexp(big, e + shift), np.ldexp(small, e + shift)
    whole = np.floor(big)
    rest = (big - whole) + small
    tie = np.abs(rest - np.floor(rest) - 0.5) < 2.0**-30
    return whole.astype(np.int64) + np.floor(rest + 0.5).astype(np.int64), tie


def _decimal(ax: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For finite normal ``ax`` > 0: the 17 significant digits N as an
    integer in [10^16, 10^17), the decimal exponent p of ax ~ N 10^(p - 16),
    and whether any rounding on the way was within the tie window."""
    m, e = np.frexp(ax)
    p = np.floor(np.log10(ax)).astype(np.int64)  # p or p + 1 near a power of ten
    n, tie = _scaled(m, e, p)
    while True:
        off = np.flatnonzero((n < 10**16) | (n >= 10**17))
        if not off.size:
            break
        p[off] += np.where(n[off] < 10**16, -1, 1)
        n[off], near = _scaled(m[off], e[off], p[off])
        tie[off] |= near
    # N = 10^16 at p where ax < 10^p may round to 17 nines at p - 1
    edge = np.flatnonzero(n == 10**16)
    below, near = _scaled(m[edge], e[edge], p[edge] - 1)
    tie[edge] |= near
    edge, below = edge[below < 10**17], below[below < 10**17]
    n[edge], p[edge] = below, p[edge] - 1
    return n, p, tie


def _python_spelled(values: np.ndarray) -> np.ndarray:
    """``'%.17g' % value`` of each of ``values`` as NUL-padded rows."""
    texts = ("%.17g\n" * len(values) % tuple(values.tolist())).encode().split(b"\n")[:-1]
    return np.array(texts, dtype=f"S{_TEXT_WIDTH}").view(np.uint8).reshape(len(texts), _TEXT_WIDTH)


def _spell(values: np.ndarray) -> np.ndarray:
    """The %.17g text of each float64 of ``values``, byte for byte that of
    C and Python, as an (n, 24) uint8 array whose rows hold the text's bytes
    in order, with NULs between and after them; spelled in numpy passes,
    4,096 values at a time.

    Each finite, normal, nonzero |x| = m 2^e (np.frexp) is multiplied by
    10^(16 - p), p = floor(log10 |x|), and rounded to the integer N; a p
    that leaves N outside [10^16, 10^17) is moved by one and the product
    taken again.  The digits of N, taken four at a time from a table, and
    the exponent p fill a source row; one layout per class (fixed notation
    at p = -4 .. 16 or exponent notation with two or three exponent digits,
    by the number of digits left after the trailing zeros) picks its bytes.
    Python's '%.17g' spells the rest: +-0, inf, NaN, subnormals, and every
    value whose scaled product lies within 2^-30 of a half-integer.

    Error bound.  Write u = 2^-53.  The table gives 10^q = (h + l) 2^s
    to a relative 2^-104: 2^120 (h + l) is within 2^14 (the rounding of
    the low part l) of the integer round(10^q 2^(120 - s)) >= 2^119, which
    is within 1/2 of 10^q 2^(120 - s).  Dekker's split product gives
    m h = P + E exactly, as
    m, h >= 1/2 and no partial product underflows; m l is within u |m l| <=
    u^2 |m h| of fl(m l), and the sum E + fl(m l), at most 2u |m h|, within
    2u^2 |m h| of its float.  So P + t, t the computed low part, is within
    2^-103 of m (h + l), and both scale by 2^(e + s) exactly.  Every
    product taken has V = |x| 10^(16 - p) < 10^18 < 2^60 (p is off by at
    most one), so P + t is within 2^-43 of V, and the fraction of V that
    is rounded, (P - floor(P)) + t with |t| < 2^9, within 2^-42.  A
    computed fraction at least 2^-30 from 1/2 thus lies on the same side of
    1/2 as the exact one, and N is the correctly rounded 17-digit integer
    of |x|.  The window is 2^12 times that error and holds every exact tie,
    which Python rounds half to even.
    """
    out = np.empty((len(values), _TEXT_WIDTH), np.uint8)
    for start in range(0, len(values), _SPELL_BLOCK):
        x = values[start:start + _SPELL_BLOCK]
        ax = np.abs(x)
        normal = np.flatnonzero((ax >= sys.float_info.min) & (ax <= sys.float_info.max))
        n, p, tie = _decimal(ax[normal])
        at, n, p = normal[~tie], n[~tie], p[~tie]
        high = n // 10**8
        low = n - high * 10**8
        lead = high // 10**8
        high -= lead * 10**8
        quads = (high // 10**4, high % 10**4, low // 10**4, low % 10**4)
        source = np.empty((len(at), _SOURCE), np.uint8)
        source[:] = _SOURCE_ROW
        source[:, _SIGN] = (x[at] < 0) * ord("-")
        source[:, _DIGITS] = lead + ord("0")
        source[:, _EXP + 1] = np.where(p < 0, ord("-"), ord("+"))
        digits, trailing_zeros, layouts = _digit_tables()
        words = source.view(np.uint32)
        for word, quad in enumerate(quads, start=1):
            words[:, word] = digits[quad]
        words[:, -1] = digits[np.abs(p)]
        zeros, empty = trailing_zeros[quads[3]], quads[3] == 0
        for quad in quads[2::-1]:  # a group of zeros adds the trailing zeros of the group before it
            zeros += empty * trailing_zeros[quad]
            empty &= quad == 0
        layout = np.where((p >= -4) & (p < 17), p + 4, 21 + (np.abs(p) >= 100)) * 18 + 17 - zeros
        rows = np.take(layouts, layout, axis=0)
        rows += (np.arange(len(at)) * _SOURCE)[:, None]
        block = out[start:start + _SPELL_BLOCK]
        block[at] = np.take(source.ravel(), rows)
        rest = np.ones(len(x), bool)
        rest[at] = False
        block[rest] = _python_spelled(x[rest])
    return out
