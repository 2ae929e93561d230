"""Numerical verification of the convergence and slow-variation inequalities.

Three layers, mirroring how the estimates stack up:

* cocycle-only bounds that assume nothing beyond the existence of frames
  (drift sums, sacrifice/tail variants, the quotient alternative);
* certificate-powered geometric envelopes for frame drift and pushforward
  norms;
* the slow-variation chain: the exact spatial derivative of the order-k
  frame field, carried forward along the orbit, checked against the
  second derivative of the map plus the co-eccentricity rate, along with
  every intermediate term bound.

All left-hand sides are measured quantities (frame distances are taken up
to the sign ambiguity); right-hand sides are assembled in log form and
exponentiated only for the final comparison, with pass defined as
lhs <= rhs * (1 + DEFAULT_REL_TOL) plus a rounding allowance of ROUNDING_UNIT
times the row's norm scale.  These two are the only tolerances: no
verifier takes a tolerance or constants from its caller.
"""

from __future__ import annotations

import array
import math
import numbers
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from . import linalg2
from .certificate import (
    AuxiliaryConstants,
    ConstantsLedger,
    auxiliary_constants,
    check_quasi_hyperbolic,
)
from .cocycle import (
    MatrixCocycle,
    OrbitSegment,
    cocycle_of,
    compute_orbit,  # noqa: F401  perfbench's tracer test rebinds bounds.compute_orbit
    norm_conorm_det,
    normalize_stack,
)
from .errors import (
    BoundOverflow,
    CertificateRequired,
    DegenerateStep,
    HypcoordsError,
    IndexOutOfRange,
    InvalidInput,
    ZeroDeterminant,
    ZeroMatrix,
)
from .hypframe import (
    HyperbolicFrame,
    aligned_distance,
    canonical_sign,
    frame_coecc,
    frame_sequence,
    hyperbolic_coordinates,
)
from .planar_maps import MapSpec

SQRT2 = math.sqrt(2.0)
DEFAULT_REL_TOL = 1e-9  # read by each verifier when it is called

# Measured left sides that push a vector through the cocycle carry rounding
# of order eps * |DPhi^i| in absolute terms; once the contracted component
# shrinks below that, no double-precision measurement can match a purely
# relative tolerance.  Every such check therefore also gets an absolute
# allowance of ROUNDING_UNIT times the relevant norm scale -- orders of
# magnitude below any meaningful violation of the inequalities themselves.
ROUNDING_UNIT = 64.0 * 2.220446049250313e-16


class BoundRow(NamedTuple):
    check: str
    index: Tuple[int, ...]
    lhs: float
    rhs: float
    margin: float
    passed: bool


class BoundReport:
    """Rows ``lhs <= rhs * (1 + tol) + abs_tol``, each a check at an index,
    kept as columns: per row, lhs and rhs as float64 (an int side beyond 2^53
    becomes its float), the pass flag, and the positions of its check name
    and index tuple in lists of the callers' objects.  ``rows`` builds
    BoundRow tuples on demand."""

    def __init__(self, name: str, tol: float):
        self.name = name
        self.tol = tol
        self.context: Dict[str, float] = {}
        self._checks: List[str] = []
        self._codes: Dict[str, int] = {}  # position of each check in _checks
        self._indices: List[Tuple[int, ...]] = []
        self._check, self._index = array.array("i"), array.array("i")
        self._lhs, self._rhs = array.array("d"), array.array("d")
        self._passed = bytearray()

    def _code(self, check: str) -> int:
        code = self._codes.get(check)
        if code is None:
            code = self._codes[check] = len(self._checks)
            self._checks.append(check)
        return code

    def add(self, check: str, index: Tuple[int, ...], lhs: float, rhs: float, abs_tol: float = 0.0):
        lhs, rhs = float(lhs), float(rhs)
        self._check.append(self._code(check))
        self._index.append(len(self._indices))
        self._indices.append(index)
        self._lhs.append(lhs)
        self._rhs.append(rhs)
        self._passed.append(lhs <= rhs * (1.0 + float(self.tol)) + float(abs_tol))

    def add_pairs(self, checks, indices, lhs, rhs, abs_tol) -> None:
        """``add`` for several index tuples at once: for each in turn, one row
        per check.  ``lhs`` and ``rhs`` hold an array over ``indices`` per
        check, ``abs_tol`` an array or a scalar per check.  Each row equals
        what ``add`` makes of its values, without a warning for inf or NaN."""
        lhs, rhs = np.array(lhs, dtype=float), np.array(rhs, dtype=float)  # check x index
        allowance = np.empty_like(rhs)
        for row, value in zip(allowance, abs_tol):  # faster than np.broadcast_arrays
            row[:] = value
        with np.errstate(all="ignore"):
            passed = lhs <= rhs * (1.0 + float(self.tol)) + allowance
        codes = array.array("i", map(self._code, checks))
        positions = np.arange(len(self._indices), len(self._indices) + len(indices), dtype=np.intc)
        self._indices.extend(indices)
        self._check.frombytes(codes.tobytes() * len(indices))
        self._index.frombytes(positions.repeat(len(checks)).tobytes())
        self._lhs.frombytes(lhs.T.tobytes())
        self._rhs.frombytes(rhs.T.tobytes())
        self._passed += passed.T.tobytes()

    def columns(self) -> tuple:
        """The check names and the index tuples, each followed by every row's
        position among them, then lhs, rhs and passed; numpy copies but the lists."""
        return (self._checks, np.array(self._check), self._indices, np.array(self._index),
                np.array(self._lhs), np.array(self._rhs), np.array(self._passed, dtype=bool))

    def _row(self, n: int) -> BoundRow:
        lhs, rhs = self._lhs[n], self._rhs[n]
        check, index = self._checks[self._check[n]], self._indices[self._index[n]]
        return BoundRow(check, index, lhs, rhs, rhs - lhs, self._passed[n] == 1)

    @property
    def rows(self) -> Tuple[BoundRow, ...]:
        """Every row as a BoundRow, built on each call."""
        return tuple(map(self._row, range(len(self._lhs))))

    @property
    def verdict(self) -> bool:
        return 0 not in self._passed

    def first_failure(self) -> Optional[BoundRow]:
        n = self._passed.find(0)
        return None if n < 0 else self._row(n)


# Per-index terms of ctilde and of the four a-priori sums.  The per-pair
# functions add these terms left to right with plain ``+=`` (never ``sum()``,
# which compensates from Python 3.12 on).  The sweeps add the same terms in
# the same order with numpy's elementwise ``+=`` over i, which rounds each
# addition as Python does, so their sums equal the per-pair sums bit for bit.
# Logs and exponentials stay ``math`` calls per element (``linalg2.each``):
# ``np.log`` and ``np.exp`` differ from them in the last bit on a few
# percent of inputs.


_LOG_MAX = math.log(np.finfo(float).max)  # math.exp overflows on finite x above it


def _overflow(x: float) -> BoundOverflow:
    return BoundOverflow(f"bound term exp({x:.6g}) exceeds the double range")


def _exp(x: float) -> float:
    """math.exp of a bound term; a term beyond the double range is a BoundOverflow."""
    try:
        return math.exp(x)
    except OverflowError:
        raise _overflow(x) from None


def _exp_or_inf(x: np.ndarray) -> np.ndarray:
    """math.exp over the elements of an array, with inf beyond the double range."""
    out = np.full(x.shape, math.inf)
    finite = ~(x > _LOG_MAX)  # NaN included
    out[finite] = linalg2.each(math.exp, x[finite])
    return out


def _ctilde_sq_term(coc: MatrixCocycle, i: int) -> float:
    """2 / (1 - coecc_i^2) for order i >= 1; NoHyperbolicCoordinates where
    the frame of order i does not exist."""
    cc = frame_coecc(coc.log_norm[i], coc.log_conorm[i])
    return 2.0 / (1.0 - cc * cc)


def _log_terms(coc: MatrixCocycle, j: int, log_absdet_i):
    """Logs of the j-th terms of the drift, det drift, tail and det tail sums of
    a pair (i, k), given log |det DPhi^i| as a float or an array over i; +inf
    tails for a zero one-step co-eccentricity."""
    log_coecc, step_log_coecc = coc.log_coecc(j), coc.step_log_coecc(j)
    det_ratio = coc.log_absdet[j] - log_absdet_i
    return (
        log_coecc + coc.log_norm[j] + coc.step_log_norm[j] - coc.log_norm[j + 1],
        det_ratio + coc.step_log_norm[j] - coc.log_norm[j] - coc.log_norm[j + 1],
        log_coecc - step_log_coecc,
        det_ratio - 2.0 * coc.log_norm[j] - step_log_coecc,
    )


def _sum(coc: MatrixCocycle, i: int, k: int, term: int) -> float:
    """Sum over j = i..k-1 of the exponential of ``_log_terms``' ``term``; at a
    step of zero one-step co-eccentricity a tail term (2 or 3) is a DegenerateStep."""
    total = 0.0
    for j in range(i, k):
        if term >= 2 and math.isinf(coc.step_log_coecc(j)):
            raise DegenerateStep(f"one-step co-eccentricity at {j} is zero")
        total += _exp(_log_terms(coc, j, coc.log_absdet[i])[term])
    return total


def _check_pair(coc: MatrixCocycle, i: int, k: int) -> None:
    if not 1 <= i <= k <= coc.k:
        raise IndexOutOfRange(f"pair ({i}, {k}) outside 1 <= i <= k <= {coc.k}")


def ctilde(source: Union[OrbitSegment, MatrixCocycle], k: int) -> float:
    """max over 1 <= i <= k of sqrt(2 / (1 - coecc_i^2))."""
    coc = cocycle_of(source)
    _check_pair(coc, 1, k)
    worst = 0.0
    for i in range(1, k + 1):
        worst = max(worst, _ctilde_sq_term(coc, i))
    return math.sqrt(worst)


def tail_T(source: Union[OrbitSegment, MatrixCocycle], i: int, k: int) -> float:
    """Sum over j = i..k-1 of coecc_j / onestep_coecc_j (empty sum is 0)."""
    coc = cocycle_of(source)
    _check_pair(coc, i, k)
    return _sum(coc, i, k, 2)


def _pair_measurements(
    coc: MatrixCocycle, frames: List[HyperbolicFrame], i: int, k: int
) -> Tuple[float, float, float, float, float]:
    """The measured left sides of pair (i, k) -- the drift |e_k - e_i|,
    |DPhi^i e_k| and |DPhi^i e_k| / |det DPhi^i| -- then the rounding
    allowances of the last two.  A singular DPhi^i leaves the
    determinant-normalized rows undefined."""
    if coc.log_absdet[i] == float("-inf"):
        raise ZeroDeterminant(f"det DPhi^{i} is zero: determinant-normalized rows undefined")
    drift = aligned_distance(frames[k - 1].e, frames[i - 1].e)
    log_push = float(coc.images(frames[k - 1].e, [i])[1][0])
    push_noise = ROUNDING_UNIT * _exp(coc.log_norm[i])
    det_noise = ROUNDING_UNIT * _exp(coc.log_norm[i] - coc.log_absdet[i])
    return drift, _exp(log_push), _exp(log_push - coc.log_absdet[i]), push_noise, det_noise


class _PairColumns(NamedTuple):
    """``_pair_measurements`` of every pair (i, k), k outer and i inner, as
    rows over the pairs; ``_order_pairs(k)`` is where order k sits."""

    indices: List[Tuple[int, int]]
    i: np.ndarray
    measured: np.ndarray  # drift, push, push_over_det, push_noise, det_noise
    log_pushes: np.ndarray  # the logs of push and push_over_det
    in_range: np.ndarray  # at k: whether every term of order k is in the double range


def _order_pairs(k: int) -> slice:
    """The pairs (1, k) .. (k, k) among ``_pair_columns``."""
    return slice(k * (k - 1) // 2, k * (k + 1) // 2)


def _pair_columns(coc: MatrixCocycle) -> _PairColumns:
    """``_pair_measurements`` of every pair in one array pass, bit for bit
    where that function returns, with each order's contracted direction in
    the frame's sign whether or not the frame exists.  Raises nothing: a
    term beyond the double range is inf, and a sweep checks the frame and
    ``in_range`` of an order before it reads the order's pairs;
    ``_first_error`` names what the per-pair function raises."""
    orders = np.arange(1, coc.k + 1)
    k = np.repeat(orders, orders)
    i = np.arange(len(k)) - k * (k - 1) // 2 + 1
    e = canonical_sign(coc.contracted)
    log_norm, log_absdet = np.array(coc.log_norm), np.array(coc.log_absdet)
    with np.errstate(all="ignore"):  # inf and NaN as on Python floats
        # a stack of (1, 2) @ (2, 1) matmuls runs the dot of np.linalg.norm on
        # each row; a*a + b*b and einsum round differently
        drift = np.minimum(*(
            np.sqrt(np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0])
            for d in (e[k] - e[i], e[k] + e[i])
        ))
        log_push = coc.images(e[k], i)[1]
        log_pushes = np.stack((log_push, log_push - log_absdet[i]))
        log_noise = np.stack((log_norm, log_norm - log_absdet))  # column i: the allowances at i
    beyond = (log_pushes > _LOG_MAX).any(axis=0)
    in_range = ~(log_noise > _LOG_MAX).any(axis=0)
    in_range[1:] &= ~np.logical_or.reduceat(beyond, orders * (orders - 1) // 2)
    noise = ROUNDING_UNIT * _exp_or_inf(log_noise)
    measured = np.vstack(([drift], _exp_or_inf(log_pushes), noise[:, i]))
    return _PairColumns(list(zip(i.tolist(), k.tolist())), i, measured, log_pushes, in_range)


def _first_error(coc: MatrixCocycle, columns: _PairColumns, k: int, sums=None) -> HypcoordsError:
    """What the per-pair function raises at the first pair (i, k) of order k
    to fail, in row order, meeting each pair's terms as it does: the measured
    ones, then ``verify_apriori_all``'s ``sums`` (the terms of j = k - 1, the
    max |entry| of each block, the log quotients); index i < k passed at order i."""
    log_push, log_push_over_det = columns.log_pushes[:, _order_pairs(k)]

    def overflows(*logs):
        return (_overflow(x) for x in logs if x > _LOG_MAX)

    def errors(i):
        if i == k:
            if coc.log_absdet[k] == -math.inf:
                yield ZeroDeterminant(
                    f"det DPhi^{k} is zero: determinant-normalized rows undefined"
                )
            yield from overflows(coc.log_norm[k], coc.log_norm[k] - coc.log_absdet[k])
        yield from overflows(log_push[i - 1], log_push_over_det[i - 1])
        if sums is None:
            return
        (drift, det_drift, tail, det_tail), peak, log_quotient = sums
        if i < k:
            yield from overflows(drift, det_drift[i - 1])
            if math.isinf(coc.step_log_coecc(k - 1)):
                yield DegenerateStep(f"one-step co-eccentricity at {k - 1} is zero")
            yield from overflows(tail, det_tail[i - 1])
            if peak[i - 1] == 0.0:
                yield ZeroMatrix("norms undefined for the zero matrix")  # as norm_conorm_det
        yield from overflows(log_quotient[i - 1])

    return next(e for i in range(1, k + 1) for e in errors(i))


_APRIORI_CHECKS = (
    "frame_drift_sum",
    "pushforward_norm_sum",
    "det_normalized_sum",
    "frame_drift_tail",
    "pushforward_norm_tail",
    "det_normalized_tail",
    "frame_drift_quotient",
)


def _apriori_sides(measured, ct, norm, conorm, inv_norm, sums, quotient):
    """Left sides, right sides and allowances of the seven a-priori rows, in
    row order, for one pair (floats) or for the pairs of one order (arrays
    over i).  ``measured`` is ``_pair_measurements``, ``sums`` the drift,
    determinant drift, tail and determinant tail sums over j = i..k-1 and
    ``quotient`` the direct alternative before its factor ctilde."""
    drift, push, push_over_det, push_noise, det_noise = measured
    drift_sum, det_drift_sum, tail, det_tail_sum = sums
    lhs = (drift, push, push_over_det) * 2 + (drift,)
    ct_norm = ct * norm
    rhs = (
        ct * drift_sum,
        conorm + ct_norm * drift_sum,
        inv_norm + ct_norm * det_drift_sum,
        tail * ct,
        conorm + norm * tail * ct,
        inv_norm + ct_norm * det_tail_sum,
        ct * quotient,
    )
    abs_tol = (ROUNDING_UNIT, push_noise, det_noise) * 2 + (ROUNDING_UNIT,)
    return lhs, rhs, abs_tol


def verify_apriori_convergence(
    source: Union[OrbitSegment, MatrixCocycle],
    i: int,
    k: int,
) -> BoundReport:
    """The assumption-free drift bounds at one (i, k) pair.

    Checks, with measured left sides: the drift sum bound, its pushforward
    and determinant-normalized companions, the three tail (sacrifice)
    variants, and the direct quotient alternative.  Every sum and block is
    computed from scratch, so this is the reference ``verify_apriori_all``
    is tested against.
    """
    coc = cocycle_of(source)
    _check_pair(coc, i, k)
    rep = BoundReport("apriori_convergence", DEFAULT_REL_TOL)
    measured = _pair_measurements(coc, frame_sequence(coc, k), i, k)
    ct = ctilde(coc, k)
    sums = (_sum(coc, i, k, 0), _sum(coc, i, k, 1), tail_T(coc, i, k), _sum(coc, i, k, 3))
    block_log_norm = norm_conorm_det(coc.block(i, k)).log_norm
    norm_i = _exp(coc.log_norm[i])
    conorm_i = _exp(coc.log_conorm[i])
    inv_norm_i = 1.0 / norm_i
    quotient = _exp(coc.log_coecc(i) + coc.log_norm[i] + block_log_norm - coc.log_norm[k])
    sides = _apriori_sides(measured, ct, norm_i, conorm_i, inv_norm_i, sums, quotient)
    for check, lhs, rhs, abs_tol in zip(_APRIORI_CHECKS, *sides):
        rep.add(check, (i, k), lhs, rhs, abs_tol=abs_tol)
    return rep


def verify_apriori_all(source: Union[OrbitSegment, MatrixCocycle]) -> BoundReport:
    """Drift bounds over every pair 1 <= i <= k <= length, in one O(k^2) sweep.

    Rows come k outer, i inner, and equal those of
    ``verify_apriori_convergence`` bit for bit; so do its errors.  Each
    order k is one array pass over i = 1..k: one matmul carries the blocks
    block(i, k - 1) forward by step k - 1, the four sums add their j = k - 1
    terms (``_log_terms``) elementwise, and the measured left sides are the
    order's slice of ``_pair_columns``, measured once before the sweep.
    Array operations round as their scalar counterparts (``math`` per
    element for logs, hypots and exponentials).  After the frame of order k,
    one test of the order's log terms catches any beyond the double range or
    a zero one-step co-eccentricity, block or determinant; only then does
    ``_first_error`` go pair by pair.
    """
    coc = cocycle_of(source)
    rep = BoundReport("apriori_convergence", DEFAULT_REL_TOL)
    n = coc.k
    # slot i holds the state of pair (i, k) once the sweep has reached k
    blocks = np.tile(np.eye(2), (n + 1, 1, 1))
    block_log_scales = np.zeros(n + 1)
    sums = np.zeros((4, n + 1))  # drift, det drift, tail, det tail
    norm, conorm, inv_norm = np.zeros((3, n + 1))
    log_norm = np.array(coc.log_norm)
    log_coecc = np.array(coc.log_conorm) - log_norm
    log_absdet = np.array(coc.log_absdet)
    empty_sum_terms = (-math.inf, np.zeros(0), -math.inf, np.zeros(0))  # order 1 has no j
    worst = 0.0
    columns = _pair_columns(coc)

    with np.errstate(all="ignore"):  # overflow to inf, as on Python floats
        for k in range(1, n + 1):
            worst = max(worst, _ctilde_sq_term(coc, k))  # the frame of order k exists
            ct = math.sqrt(worst)
            before, upto = slice(1, k), slice(1, k + 1)
            bodies, scales, peak = normalize_stack(
                np.matmul(coc.step_bodies[k - 1], blocks[before]),
                coc.step_log_scales[k - 1] + block_log_scales[before],
            )
            blocks[before], block_log_scales[before] = bodies, scales
            terms = _log_terms(coc, k - 1, log_absdet[before]) if k > 1 else empty_sum_terms
            drift, det_drift, tail, det_tail = terms
            smax = linalg2.spectral_norm_array(*blocks[upto].reshape(-1, 4).T)
            nonzero = peak.all()
            block_log_norm = linalg2.log_each(smax)
            block_log_norm += block_log_scales[upto]
            log_quotient = log_coecc[upto] + log_norm[upto] + block_log_norm - log_norm[k]
            logs = np.concatenate((det_drift, det_tail, log_quotient))
            if (not (columns.in_range[k] and nonzero) or drift > _LOG_MAX or tail > _LOG_MAX
                    or (logs > _LOG_MAX).any()):
                raise _first_error(coc, columns, k, (terms, peak, log_quotient))
            exps = linalg2.each(math.exp, logs)
            norm[k] = norm_k = _exp(coc.log_norm[k])
            conorm[k] = _exp(coc.log_conorm[k])
            inv_norm[k] = 1.0 / norm_k
            sums[0, before] += math.exp(drift)
            sums[1, before] += exps[: k - 1]
            sums[2, before] += math.exp(tail)
            sums[3, before] += exps[k - 1 : 2 * k - 2]
            pairs = _order_pairs(k)
            sides = _apriori_sides(
                columns.measured[:, pairs], ct, norm[upto], conorm[upto], inv_norm[upto],
                sums[:, upto], exps[2 * k - 2 :],
            )
            rep.add_pairs(_APRIORI_CHECKS, columns.indices[pairs], *sides)
    return rep


def _envelope_rates(
    ledger: ConstantsLedger, aux: AuxiliaryConstants
) -> List[Tuple[str, float, float]]:
    """(check, Q, r) of each envelope row of a pair, in row order: the
    drift, pushforward and determinant-normalized rows of type I, then of
    type II, as the flavor has them.  The right side at index i is Q r^i."""
    rates = []
    if ledger.flavor.has_type_one:
        r1 = ledger.Gamma * ledger.Gamma_tilde * ledger.c / ledger.lam
        rates += [
            ("frame_drift_envelope_I", aux.Q1, r1),
            ("pushforward_envelope_I", aux.Q1, ledger.Gamma * r1),
            ("det_normalized_envelope_I", aux.Q2,
             ledger.Gamma * ledger.Gamma_tilde / (ledger.lam * ledger.lam)),
        ]
    if ledger.flavor.has_type_two:
        r1 = ledger.c / ledger.c_tilde
        rates += [
            ("frame_drift_envelope_II", aux.Qt1, r1),
            ("pushforward_envelope_II", aux.Qt1, ledger.Gamma * r1),
            ("det_normalized_envelope_II", aux.Qt2,
             ledger.Gamma / (ledger.lam * ledger.lam * ledger.c_tilde)),
        ]
    return rates


def _certified_aux(orbit: OrbitSegment, ledger: ConstantsLedger) -> AuxiliaryConstants:
    """The auxiliary constants of ``ledger``, once the per-index certificate
    of that ledger passes; CertificateRequired names its first failure."""
    cert = check_quasi_hyperbolic(orbit, ledger)
    if not cert.verdict:
        i, name = cert.first_failure
        raise CertificateRequired(f"{name} fails at i={i}")
    return auxiliary_constants(ledger)


def verify_explicit_convergence(orbit: OrbitSegment, ledger: ConstantsLedger) -> BoundReport:
    """Certificate-powered geometric envelopes over every (i, k) pair.

    Raises CertificateRequired unless the per-index certificate passes.
    Rows come k outer, i inner: at pair (i, k), for each row of
    ``_envelope_rates``, the measured left side of ``_pair_measurements``
    against Q r^i.  The pairs are measured in one pass (``_pair_columns``)
    and their rows added at once.  Before that, each order k in turn raises
    what its first pair to fail would raise if the rows were built pair by
    pair: an undefined frame of order k, else what ``_first_error`` names
    from the measured terms; Q r^k is formed after them, as at pair (k, k).
    """
    aux = _certified_aux(orbit, ledger)
    coc = orbit.cocycle
    rates = _envelope_rates(ledger, aux)
    envelopes = np.zeros((len(rates), coc.k + 1))  # column i: the right sides at index i
    columns = _pair_columns(coc)
    for k in range(1, coc.k + 1):
        frame_coecc(coc.log_norm[k], coc.log_conorm[k])  # the frame of order k exists
        if not columns.in_range[k]:
            raise _first_error(coc, columns, k)
        envelopes[:, k] = [q * r**k for _, q, r in rates]
    drift, push, push_over_det, push_noise, det_noise = columns.measured
    types = len(rates) // 3
    rep = BoundReport("explicit_convergence", DEFAULT_REL_TOL)
    rep.add_pairs(
        [check for check, _, _ in rates], columns.indices, (drift, push, push_over_det) * types,
        envelopes[:, columns.i], (ROUNDING_UNIT, push_noise, det_noise) * types,
    )
    return rep


# ---------------------------------------------------------------------------
# Second-derivative identity
# ---------------------------------------------------------------------------


# Entrywise error ``d2_contraction_identity`` allows, per unit of the
# largest |second partial| (at least 1)
_D2_IDENTITY_SCALE = 1e-10


def d2_contraction_identity(spec: MapSpec, p: np.ndarray, v: np.ndarray) -> BoundReport:
    """Entrywise check that D2Phi(v, axis_k) equals (d_axis_k DPhi) v, to
    ``_D2_IDENTITY_SCALE`` times the scale of the second partials.

    The left side is assembled from the Hessian coordinate expansion, the
    right from the partial matrices; equality encodes symmetry of the
    supplied mixed partials.
    """
    dx, dy = spec.second_partials_at(p)
    h1 = np.array([dx[0], dy[0]])  # Hessians of the two components
    h2 = np.array([dx[1], dy[1]])
    rep = BoundReport("d2_contraction_identity", 0.0)
    scale = max(float(np.abs(dx).max()), float(np.abs(dy).max()), 1.0)
    for axis, (unit, dmat) in enumerate(
        ((np.array([1.0, 0.0]), dx), (np.array([0.0, 1.0]), dy))
    ):
        lhs_vec = np.array([v @ h1 @ unit, v @ h2 @ unit])
        rhs_vec = dmat @ np.asarray(v, dtype=float)
        err = float(np.abs(lhs_vec - rhs_vec).max())
        rep.add(f"coordinate_identity_axis{axis}", (axis,), err, _D2_IDENTITY_SCALE * scale)
    return rep


# ---------------------------------------------------------------------------
# Column / bilinear norm bounds in dimension n <= 4
# ---------------------------------------------------------------------------


def _scaled_grams(mats: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The n x n Gram matrices M^T M of an (s, m, n) stack, each matrix M
    first divided by the power of two 2^e that brings its largest |entry|
    into [1/2, 1), and the exponents e (0 for a zero matrix).  So scaled, no
    Gram matrix overflows, and the top eigenvalue of a nonzero one is 1/4 or
    more and cannot underflow."""
    # the maxima run down the rows of the entries' transpose: numpy reduces
    # a long axis much faster than many axes of 4 to 16 entries
    _, e = np.frexp(np.abs(mats.reshape(len(mats), -1).T, order="C").max(axis=0))
    m = np.ldexp(mats, -e[:, None, None])
    return np.swapaxes(m, 1, 2) @ m, e


def _gram_norms(grams: np.ndarray, e: np.ndarray) -> np.ndarray:
    """2^e sqrt(top eigenvalue) of each scaled Gram matrix (symmetric
    eigensolver, which reads the lower triangle)."""
    top = np.linalg.eigvalsh(grams)[:, -1]
    return np.ldexp(np.sqrt(np.maximum(top, 0.0)), e)


def _power_norms(mats: np.ndarray) -> np.ndarray:
    """Operator 2-norms of an (s, m, n) stack of matrices, n <= 4: the
    largest singular value of each.

    sigma_max is the square root of the top eigenvalue of the matrix's
    Gram matrix, scaled by its own power of two (``_scaled_grams``), scaled
    back.  The scaling is per matrix, so a norm does not depend on the rest
    of the stack.  Against 40-digit mpmath singular values the result is
    within 8 eps (tests/test_bounds.py).

    The name is left from the power iteration this replaced, because the
    benchmark's tracer (``perfbench/tracing.py``) wraps and counts the
    function by it.
    """
    return _gram_norms(*_scaled_grams(mats))


def _largest_norm(mats: np.ndarray) -> float:
    """The largest operator 2-norm of an (s, m, n) stack, n <= 4:
    ``_power_norms(mats).max()`` bit for bit, with the eigensolver run only
    on the matrices that a certified upper bound cannot exclude.

    For a symmetric n x n G with t = tr G, f = |G|_F^2 and
    q = f - t^2/n = sum (lambda_i - t/n)^2, the top eigenvalue is at most
    t/n + sqrt((n - 1) q / n) (Wolkowicz and Styan, Bounds for eigenvalues
    using traces, 1980).  The bound reads the scaled Gram matrices of
    ``_scaled_grams``, the ones the eigensolver sees (diagonal and lower
    triangle), and allows for three errors, with u = eps/2 and the
    diagonal >= 0:

    * rounding of t (n - 1 additions) and of f (at most 10 squares,
      summed), within 3 u t and 11 u f; t^2/n <= f, so the computed t^2/n
      is within 9 u f;
    * cancellation in q, whose computed value is thus off by up to 21 u f
      in absolute terms.  A G near c^2 I has q near 0 and cannot absorb
      that relatively, so the bound adds 16 eps f (32 u f) to max(q, 0);
    * the few roundings of the bound itself and the eigensolver's backward
      error, a small multiple of eps |G|_2 for n <= 4: the bound is
      multiplied by 1 + 2^-40 (4096 eps).

    The matrix with the highest bound, 2^e sqrt(bound), is eigensolved
    first.  Any other matrix whose bound is strictly below that norm is
    skipped: its computed norm, 2^e sqrt(top) with monotone rounding, would
    be below it too, so the maximum cannot move.  The test is negated, so
    a NaN bound keeps its matrix.
    """
    grams, e = _scaled_grams(mats)
    n = grams.shape[-1]
    entries = np.ascontiguousarray(grams.reshape(len(grams), -1).T)  # one row per entry, as above
    diag = entries[:: n + 1]
    lower = entries[np.flatnonzero(np.tri(n, k=-1))]
    tr = diag.sum(axis=0)
    frob_sq = (diag * diag).sum(axis=0) + 2.0 * (lower * lower).sum(axis=0)
    spread = np.maximum(frob_sq - tr * tr / n, 0.0) + 16.0 * np.finfo(float).eps * frob_sq
    top_bound = (tr / n + np.sqrt(spread * ((n - 1) / n))) * (1.0 + 2.0**-40)
    norm_bound = np.ldexp(np.sqrt(top_bound), e)
    ref = int(np.argmax(norm_bound))
    ref_norm = _gram_norms(grams[ref:ref + 1], e[ref:ref + 1])[0]
    keep = ~(norm_bound < ref_norm)
    keep[ref] = False
    return float(max(ref_norm, _gram_norms(grams[keep], e[keep]).max(initial=0.0)))


def _sampled_matrix_norm(m: np.ndarray, rng: np.random.Generator, samples: int) -> float:
    n = m.shape[1]
    pts = rng.standard_normal((samples, n))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts = np.vstack([pts, np.eye(n)])
    return float(np.linalg.norm(pts @ m.T, axis=1).max())


def _bracket_input(x, name: str, ndim: int, n: Optional[int] = None) -> Tuple[np.ndarray, int]:
    """``x`` as floats divided by 2^e, and e, where 2^e brings the largest
    |entry| into [1/2, 1) (e = 0 for a zero ``x``), as
    ``cocycle.normalize_stack`` scales its bodies.

    ``x`` must have ``ndim`` axes and an entry, and every axis but a
    matrix's first must have one length: ``n`` when given, at most 4.  Any
    other shape, or a non-finite entry, is InvalidInput."""
    x = np.asarray(x, dtype=float)
    square = x.shape[1:] if ndim == 2 else x.shape  # a matrix may have any number of rows
    if x.ndim != ndim or x.size == 0 or len(set(square)) != 1 or n not in (None, x.shape[0]):
        want = {1: f"({n},) to match bilinear", 2: "(m, n), non-empty", 3: "(n, n, n), non-empty"}
        raise InvalidInput(f"{name} has shape {x.shape}; expected {want[ndim]}")
    if not np.isfinite(x).all():
        raise InvalidInput(f"{name} has a non-finite entry")
    if x.shape[-1] > 4:
        raise InvalidInput(f"{name}: dimension capped at 4")
    _, e = math.frexp(float(np.abs(x).max()))
    return np.ldexp(x, -e), e


def _scaled_back(x: float, e: int) -> float:
    """x * 2^e; a value beyond the double range is a BoundOverflow."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        raise BoundOverflow(f"bracket value {x!r} * 2^{e} exceeds the double range") from None


def bilinear_column_bounds(
    matrix: Optional[np.ndarray] = None,
    bilinear: Optional[np.ndarray] = None,
    v: Optional[np.ndarray] = None,
    rng: Optional[np.random.Generator] = None,
    samples: int = 4000,
) -> BoundReport:
    """Column-norm and bilinear-norm bracket checks, dimension n <= 4.

    For a matrix A with columns a_k:   max_k |a_k| <= |A| <= sqrt(n) max_k |a_k|,
    with |A| the largest singular value, cross-checked against a
    sampled-sphere value.

    A bilinear map B is an (n, n, n) tensor, ``bilinear[p, i, j]`` being
    component p of B(e_i, e_j).  A planar map's second derivative at a point
    p is the Hessian tensor ``np.stack(spec.second_partials_at(p), axis=1)``,
    whose entry [p, i, j] is d_i d_j Phi_p.  The slices B(., e_k) bracket
    |B| = max |B(u, w)| over unit u, w as the columns bracket |A|, and the
    columns B(v, e_k) bracket |B(v, .)|.  |A|, the slice norms and
    |B(v, .)| are largest singular values, each the square root of the top
    eigenvalue of its Gram matrix (``_power_norms``), within 8 eps of the
    exact value; |B| is a sampled lower estimate, the largest |B(u, .)|
    over both bases and a seeded sphere sample of ``samples`` points u, so
    it dominates every slice and the lower rows cannot falsely fail.  That
    maximum is taken over the whole sample, but only the slot matrices
    B(u, .) whose trace-and-Frobenius bound on the top Gram eigenvalue
    reaches the best norm found are eigensolved (``_largest_norm``, which
    states the bound and its rounding allowance); the estimate equals the
    maximum of every slot norm bit for bit.

    Each input is first divided by the power of two that brings its largest
    |entry| into [1/2, 1), so no norm over- or underflows; both sides of
    every row are scaled back, and a side beyond the double range is a
    BoundOverflow.  A malformed shape (``v`` must match ``bilinear``), a
    non-finite entry, n > 4, or ``samples`` other than an int >= 0 (a bool
    is not), is InvalidInput.
    """
    if isinstance(samples, bool) or not isinstance(samples, numbers.Integral) or samples < 0:
        raise InvalidInput(f"samples must be an int >= 0, got {samples!r}")
    rng = rng if rng is not None else np.random.default_rng(0)
    rep = BoundReport("bilinear_column_bounds", DEFAULT_REL_TOL)
    if matrix is not None:
        a, e_a = _bracket_input(matrix, "matrix", 2)
    if bilinear is not None:
        t, e_t = _bracket_input(bilinear, "bilinear", 3)
        if v is not None:  # v is read only with a bilinear map
            vv, e_v = _bracket_input(v, "v", 1, t.shape[0])

    def add(check: str, lhs: float, rhs: float, e: int) -> None:
        rep.add(check, (0,), _scaled_back(lhs, e), _scaled_back(rhs, e))

    if matrix is not None:
        n = a.shape[1]
        col_max = float(np.linalg.norm(a, axis=0).max())
        norm = float(_power_norms(a[None])[0])
        norm_sampled = _sampled_matrix_norm(a, rng, samples)
        rep.context["matrix_norm"] = _scaled_back(norm, e_a)
        rep.context["matrix_norm_sampled"] = _scaled_back(norm_sampled, e_a)
        add("matrix_norm_cross_check", abs(norm - norm_sampled), 0.02 * max(norm, 1e-300), e_a)
        add("column_lower", col_max, norm, e_a)
        add("column_upper", norm, math.sqrt(n) * col_max, e_a)

    if bilinear is not None:
        n = t.shape[0]
        basis = np.eye(n)

        # candidate first arguments: both bases plus a seeded sphere sample;
        # the second slot is maximized exactly (largest singular value), so
        # the estimate dominates every basis-slice value by construction
        cand = rng.standard_normal((samples, n))
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        cand = np.vstack([basis, cand])
        slot_mats = (cand @ t.transpose(1, 0, 2).reshape(n, n * n)).reshape(-1, n, n)
        second_mats = np.einsum("pij,kj->kpi", t, basis)
        second_slot = _power_norms(second_mats)
        full_norm = max(_largest_norm(slot_mats), float(second_slot.max()))
        rep.context["bilinear_norm_sampled"] = _scaled_back(full_norm, e_t)

        add("bilinear_slice_lower", float(second_slot.max()), full_norm, e_t)
        add("bilinear_slice_upper", full_norm, math.sqrt(n) * float(second_slot.max()), e_t)

        if v is not None:
            mv = np.einsum("i,pij->pj", vv, t)
            norm_v = float(_power_norms(mv[None])[0])
            per_basis = [float(np.linalg.norm(mv @ basis[k])) for k in range(n)]
            add("bilinear_v_lower", max(per_basis), norm_v, e_v + e_t)
            add("bilinear_v_upper", norm_v, math.sqrt(n) * max(per_basis), e_v + e_t)

    return rep


# ---------------------------------------------------------------------------
# Slow variation
# ---------------------------------------------------------------------------


class SlowVariationTerms(NamedTuple):
    """One axis's per-step terms controlling the frame field's spatial
    derivative, their sums and the derivative itself: e_dot_df is
    <e, d_axis f> of the order-k frame."""

    EE: List[float]
    FF: List[float]
    sum_EE_tail: float
    sum_FF: float
    e_dot_df: float


def _push_tangent(
    coc: MatrixCocycle, j: int, v: np.ndarray, v_log: float, source: np.ndarray, source_log: float
) -> Tuple[np.ndarray, float]:
    """Step j (exp(v_log) v) + exp(source_log) source as (vector, log scale), the
    vector scaled by a power of two to max |entry| in [1/2, 1) unless zero."""
    image_log = v_log + float(coc.step_log_scales[j])
    lead = max(image_log, source_log)
    image = coc.step_bodies[j] @ v
    out = image * math.exp(image_log - lead) + source * math.exp(source_log - lead)
    _, e = math.frexp(float(np.abs(out).max()))
    return np.ldexp(out, -e), lead + e * math.log(2.0)


def _contracted_images(
    coc: MatrixCocycle, e: np.ndarray, u1: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """DPhi^i e for i = 0..k as the unit directions, an (k + 1, 2) array, and
    the log norms, as ``MatrixCocycle.images`` returns them; e is the order-k
    contracted direction and u1 the direction of DPhi^k f.

    A forward product holds DPhi^i e only to eps |DPhi^i| in absolute terms,
    which swamps it once the co-eccentricity drops below eps.  The inverse
    steps expand that direction instead, so it is pulled back from order k:
    DPhi^k e is normal to the image of f, and the pulled-back vector at
    i = 0, parallel to e, fixes the scale and sign of all the others.
    """
    directions, log_norms = np.empty((k + 1, 2)), np.empty(k + 1)
    w, w_log = np.array([-u1[1], u1[0]]), 0.0
    directions[k], log_norms[k] = w, w_log
    log_scales = coc.step_log_scales.tolist()
    for j in range(k - 1, -1, -1):
        (a, b), (c, d) = coc.step_bodies[j].tolist()
        adj_w = np.array([d * w[0] - b * w[1], a * w[1] - c * w[0]])  # det(body) body^-1 w
        n = math.hypot(float(adj_w[0]), float(adj_w[1]))
        det = a * d - b * c
        w = adj_w / (n if det > 0.0 else -n)
        w_log += math.log(n) - math.log(abs(det)) - log_scales[j]
        directions[j], log_norms[j] = w, w_log
    sign = 1.0 if float(directions[0] @ e) > 0.0 else -1.0
    return sign * directions, log_norms - log_norms[0]


def slow_variation_terms(
    orbit: OrbitSegment, k: int
) -> Tuple[HyperbolicFrame, Dict[str, SlowVariationTerms]]:
    """The order-k frame and, for the axes "x" and "y", the second-derivative
    transfer terms and <e, d_axis f>.

    The i-th term differentiates the i-th step Jacobian along the axis
    perturbation *carried to the orbit point* by the cocycle (the product
    rule for the k-step derivative transports the base displacement through
    the first i steps): the second derivative at the orbit point is
    contracted with DPhi^i applied to the axis vector, kept as a unit
    direction plus a log norm.  At i = 0 this reduces to the raw axis
    partial of the step Jacobian.

    The same carried vectors give the exact derivative of the frame
    (forward mode): with dM the axis derivative of M = DPhi^k,
    dM_(i+1) v = J_i dM_i v + D2Phi(x_i)[M_i axis] M_i v is pushed for v = e
    and v = f in scaled form.  First-order perturbation of the right
    singular vectors then gives
    <e, d f> = (u1.dM e / s1 + coecc u2.dM f / s1) / (1 - coecc^2),
    where u1, u2 are the directions of M f, M e and s1 = |M|.

    The frame and the images of e and f are built once and serve both axes.
    The sums add their terms left to right, as the a-priori sums do.
    """
    coc = orbit.cocycle
    if any(d == float("-inf") for d in coc.step_log_absdet[:k]):
        raise ZeroDeterminant("slow-variation terms need nonzero step determinants")
    for i in range(1, min(k, coc.k + 1)):  # the frames below order k must exist too
        frame_coecc(coc.log_norm[i], coc.log_conorm[i])
    frame = hyperbolic_coordinates(coc, k)
    cc = frame.coecc
    f_dirs, f_logs = coc.images(frame.f, range(k + 1))
    e_dirs, e_logs = _contracted_images(coc, frame.e, f_dirs[k], k)
    u1, u2 = f_dirs[k], e_dirs[k]  # directions of DPhi^k f and DPhi^k e

    by_axis = {}
    for axis, axis_vec in zip("xy", np.eye(2)):
        log_ee, log_ff = [], []
        de_vec, de_log = np.zeros(2), 0.0  # dM_i e = exp(de_log) de_vec
        df_vec, df_log = np.zeros(2), 0.0  # dM_i f
        w_dirs, w_logs = coc.images(axis_vec, range(k))  # the carried axis vector
        for i in range(k):
            dx, dy = orbit.step_second_partials[i]
            w_dir, w_log = w_dirs[i], w_logs[i]
            dmat = w_dir[0] * dx + w_dir[1] * dy  # D2Phi(x_i), carried direction in one slot
            e_dir, e_log, e1_log = e_dirs[i], e_logs[i], e_logs[i + 1]
            f_dir, f_log, f1_log = f_dirs[i], f_logs[i], f_logs[i + 1]
            det_log = coc.log_absdet[i + 1]
            d2e = dmat @ e_dir
            d2f = dmat @ f_dir
            de = float(np.linalg.norm(d2e))
            dfv = float(np.linalg.norm(d2f))
            log_ee.append(
                (math.log(de) if de > 0.0 else float("-inf")) + w_log + e_log + e1_log - det_log
            )
            log_ff.append(
                (math.log(dfv) if dfv > 0.0 else float("-inf")) + w_log + f_log + f1_log - det_log
            )
            de_vec, de_log = _push_tangent(coc, i, de_vec, de_log, d2e, w_log + e_log)
            df_vec, df_log = _push_tangent(coc, i, df_vec, df_log, d2f, w_log + f_log)

        lead = max(de_log, df_log)
        num = float(u1 @ de_vec) * math.exp(de_log - lead) + cc * float(
            u2 @ df_vec
        ) * math.exp(df_log - lead)
        e_dot_df = num * _exp(lead - coc.log_norm[k]) / (1.0 - cc * cc)

        ee = [_exp(v) for v in log_ee]
        ff = [_exp(v) for v in log_ff]
        sum_ee_tail = sum_ff = 0.0
        for v in ee[1:]:
            sum_ee_tail += v
        for v in ff:
            sum_ff += v
        by_axis[axis] = SlowVariationTerms(ee, ff, sum_ee_tail, sum_ff, e_dot_df)
    return frame, by_axis


def verify_slow_variation(orbit: OrbitSegment, ledger: ConstantsLedger) -> BoundReport:
    """The slow-variation chain at order k = orbit.k.

    (a) the exact frame derivative |D f| against K1 |D2Phi(e1, .)| + K2 c;
    (b) both sides of the per-axis bracketing of |D2Phi(e1, .)|;
    (c) the inner-product form against the transfer-term sums, per axis;
    (d) the individual term bounds of the certificate flavor.

    Raises CertificateRequired unless the per-index certificate passes.
    """
    aux = _certified_aux(orbit, ledger)
    k = orbit.k

    frame1 = hyperbolic_coordinates(orbit.cocycle, 1)
    dx, dy = orbit.step_second_partials[0]
    # w -> D2Phi(e1, w) has the columns (d_axis DPhi) e1
    d2_x, d2_y = dx @ frame1.e, dy @ frame1.e
    d2e1_norm = linalg2.spectral_norm(np.column_stack([d2_x, d2_y]))
    axis_e1 = (float(np.linalg.norm(d2_x)), float(np.linalg.norm(d2_y)))

    frame_k, by_axis = slow_variation_terms(orbit, k)
    # d_axis f = <e, d_axis f> e, so |D f| is the norm of the two inner products
    df_norm = math.hypot(by_axis["x"].e_dot_df, by_axis["y"].e_dot_df)

    rep = BoundReport("slow_variation", DEFAULT_REL_TOL)
    rep.context.update(
        d2_e1_norm=d2e1_norm,
        d2_e1_axis_x=axis_e1[0],
        d2_e1_axis_y=axis_e1[1],
    )

    rep.add(
        "frame_derivative_master_bound",
        (k,),
        df_norm,
        aux.K1 * d2e1_norm + aux.K2 * ledger.c,
    )
    rep.add("second_derivative_factor_upper", (k,), d2e1_norm, SQRT2 * max(axis_e1))
    rep.add("second_derivative_factor_lower", (k,), max(axis_e1), d2e1_norm)

    ratio_sq = frame_k.coecc * frame_k.coecc
    for axis, terms in by_axis.items():
        lhs_inner = SQRT2 * abs(terms.e_dot_df)
        rhs_inner = aux.K1 * (
            terms.EE[0] + terms.sum_EE_tail + ratio_sq * terms.sum_FF
        )
        rep.add(f"aposteriori_inner_product_{axis}", (k,), lhs_inner, rhs_inner)

        if ledger.flavor.has_type_one:
            rep.add(
                f"first_term_bound_I_{axis}",
                (k,),
                terms.EE[0],
                d2e1_norm + aux.Q3 * ledger.c,
            )
            rep.add(f"middle_terms_bound_I_{axis}", (k,), terms.sum_EE_tail, aux.Q4 * ledger.c)
        if ledger.flavor.has_type_two:
            rep.add(
                f"first_term_bound_II_{axis}",
                (k,),
                terms.EE[0],
                d2e1_norm + aux.Qt3 * ledger.c / ledger.c_tilde,
            )
            rep.add(
                f"middle_terms_bound_II_{axis}",
                (k,),
                terms.sum_EE_tail,
                aux.Qt4 * ledger.c / ledger.c_tilde,
            )
        rep.add(
            f"expanded_terms_bound_{axis}",
            (k,),
            ratio_sq * terms.sum_FF,
            aux.Q * ledger.c,
        )
    return rep
