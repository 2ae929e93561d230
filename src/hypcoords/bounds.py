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

All left-hand sides are measured from one pull-back of the contracted
directions (``MatrixCocycle.contracted_images``): the pushes |DPhi^i e_k|
directly, and the drift |e_k - e_i|, up to sign, from the angles between
DPhi^i e_k and DPhi^i f_i and between e_k and e_i (``_drifts``).  Right-hand sides
are assembled in log form and exponentiated only for the final comparison.
A bound row passes iff lhs <= rhs * (1 + DEFAULT_REL_TOL), the only
tolerance: no verifier takes a tolerance or constants from its caller.
"""

from __future__ import annotations

import math
import weakref
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
    check_order,
    cocycle_of,
    compute_orbit,  # noqa: F401  perfbench's tracer test rebinds bounds.compute_orbit
    float_array,
    is_int,
    norm_conorm_det,
    normalize_stack,
)
from .errors import (
    BoundOverflow,
    CertificateRequired,
    HypcoordsError,
    InvalidInput,
    ZeroDeterminant,
    ZeroMatrix,
)
from .hypframe import (
    EPS_COECC,
    HyperbolicFrame,
    frame_coecc,
    frame_sequence,
    hyperbolic_coordinates,
)
from .report import BoundReport

SQRT2 = math.sqrt(2.0)
DEFAULT_REL_TOL = 1e-9  # read by each verifier when it is called


# Per-index terms of ctilde and the logs of the terms of the two a-priori
# sums, drift and tail.  The per-pair functions add these logs left to right
# with ``np.logaddexp`` on floats; the sweep adds the same logs in the same
# order with ``np.logaddexp.accumulate`` (``_log_sum_table``), so its sums
# equal the per-pair sums bit for bit.


_LOG_MAX = math.log(np.finfo(float).max)  # exp overflows on finite x above it
_LN2 = math.log(2.0)


def _overflow(x: float) -> BoundOverflow:
    return BoundOverflow(f"bound term exp({x:.6g}) exceeds the double range")


def _exp(x: float) -> float:
    """np.exp of a bound term; a term beyond the double range is a BoundOverflow."""
    if x > _LOG_MAX:
        raise _overflow(x)
    return float(np.exp(x))


def _ctilde_sq_term(coc: MatrixCocycle, i: int) -> float:
    """2 / (1 - coecc_i^2) for order i >= 1; NoHyperbolicCoordinates where
    the frame of order i does not exist."""
    cc = frame_coecc(coc.log_norm[i], coc.log_conorm[i])
    return 2.0 / (1.0 - cc * cc)


def _log_terms(coc: MatrixCocycle, j: int) -> Tuple[float, float]:
    """Logs of the j-th terms of the drift and tail sums of a pair (i, k),
    which do not depend on i."""
    log_coecc = coc.log_coecc(j)
    return (
        log_coecc + coc.log_norm[j] + coc.step_log_norm[j] - coc.log_norm[j + 1],
        log_coecc - coc.step_log_coecc(j),
    )


def _log_sum(coc: MatrixCocycle, i: int, k: int, term: int) -> float:
    """log of the sum over j = i..k-1 of the exponential of ``_log_terms``'
    ``term`` (0 drift, 1 tail), -inf for an empty sum."""
    total = -math.inf
    for j in range(i, k):
        total = float(np.logaddexp(total, _log_terms(coc, j)[term]))
    return total


def _check_pair(coc: MatrixCocycle, i: int, k: int) -> None:
    check_order(k, 1, coc.k, "order")
    check_order(i, 1, k, "index")


def ctilde(source: Union[OrbitSegment, MatrixCocycle], k: int) -> float:
    """max over 1 <= i <= k of sqrt(2 / (1 - coecc_i^2))."""
    coc = cocycle_of(source)
    _check_pair(coc, 1, k)
    worst = 0.0
    for i in range(1, k + 1):
        worst = max(worst, _ctilde_sq_term(coc, i))
    return math.sqrt(worst)


def _drifts(w: np.ndarray, u: np.ndarray, e_k: np.ndarray, e_i: np.ndarray, log_push: np.ndarray, log_norm):
    """The drifts |e_k - e_i|, up to sign, of pairs (i, k) given as arrays
    over the pairs: w and u the directions of DPhi^i e_k and DPhi^i f_i,
    e_k and e_i the pulled-back vectors at 0, and the logs of |DPhi^i e_k|
    and |DPhi^i|.  DPhi^i maps e_i and f_i to orthogonal vectors, the image
    of f_i of length |DPhi^i|, so s = |<w, u>| |DPhi^i e_k| / |DPhi^i| is
    |sin| of the angle between e_k and e_i, and c = |<e_k, e_i>| (not
    sqrt(1 - s^2), which keeps half the digits of s near a quarter turn)
    its |cos|; the drift, 2 sin of half that angle, is s / sqrt((1 + c) / 2).
    Elementwise, so that one pair alone and in a sweep round alike."""
    s = np.abs(w[..., 0] * u[..., 0] + w[..., 1] * u[..., 1]) * np.exp(log_push - log_norm)
    s = np.minimum(s, 1.0)  # a |sin| that rounds above 1
    c = np.abs(e_k[..., 0] * e_i[..., 0] + e_k[..., 1] * e_i[..., 1])
    return s / np.sqrt((1.0 + c) / 2.0)


def _pair_measurements(
    coc: MatrixCocycle, frames: List[HyperbolicFrame], i: int, k: int
) -> Tuple[float, float, float]:
    """The measured left sides of pair (i, k): the drift |e_k - e_i|,
    |DPhi^i e_k| and |DPhi^i e_k| / |det DPhi^i|, all from the cocycle's
    pull-back of e_k, which a singular DPhi^k leaves undefined
    (ZeroDeterminant), and the drift from the image of f_i and the
    pull-back of e_i as well (``_drifts``); a side whose log or its
    negative is beyond the double range is a BoundOverflow."""
    directions, log_norms = coc.contracted_images([k, i])
    log_push = float(log_norms[0, i])
    logs = (log_push, log_push - coc.log_absdet[i])
    for x in logs:
        if abs(x) > _LOG_MAX:
            raise _overflow(x)
    u = coc.images(frames[i - 1].f, [i])[0]
    drift = float(_drifts(directions[0, i], u, *directions[:, 0], np.array([log_push]), coc.log_norm[i])[0])
    return (drift, *map(float, np.exp(logs)))


class _PairColumns(NamedTuple):
    """``_pair_measurements`` of every pair (i, k), k outer and i inner, as
    read-only rows over the pairs; ``_order_pairs(k)`` is where order k sits."""

    pairs: np.ndarray  # (i, k) of each pair, as an (n, 2) int array
    measured: np.ndarray  # drift, push, push_over_det
    log_pushes: np.ndarray  # the logs of push and push_over_det
    in_range: np.ndarray  # at k: whether order k has a pull-back and all its logs are in range


def _order_pairs(k: int) -> slice:
    """The pairs (1, k) .. (k, k) among ``_pair_columns``."""
    return slice(k * (k - 1) // 2, k * (k + 1) // 2)


# Each cocycle's ``_measure_pairs``, which its two sweeps share; an entry goes with its cocycle
_MEASURED: "weakref.WeakKeyDictionary[MatrixCocycle, _PairColumns]" = weakref.WeakKeyDictionary()


def _pair_columns(coc: MatrixCocycle) -> _PairColumns:
    """``_measure_pairs`` of ``coc``, measured at its first call."""
    return _MEASURED.get(coc) or _MEASURED.setdefault(coc, _measure_pairs(coc))


def _measure_pairs(coc: MatrixCocycle) -> _PairColumns:
    """``_pair_measurements`` of every pair in one array pass, bit for bit
    where that function returns, all read off the cocycle's pull-back,
    which starts order i from the normal to DPhi^i f_i.
    Raises nothing: a term beyond the double range is inf or 0, the
    measurements of a singular order are NaN, and a sweep checks the frame
    and ``in_range`` of an order before it reads the order's pairs;
    ``_first_error`` names what the per-pair function raises."""
    orders = np.arange(1, coc.k + 1)
    k = np.repeat(orders, orders)
    i = np.arange(len(k)) - k * (k - 1) // 2 + 1
    log_absdet = np.array(coc.log_absdet)
    pulled = np.count_nonzero(log_absdet > -math.inf)  # orders 0.. with a pull-back
    n = coc.k + 1
    with np.errstate(all="ignore"):  # inf and NaN as on Python floats
        directions, log_norms = np.full((n, n, 2), math.nan), np.full((n, n), math.nan)
        directions[:pulled], log_norms[:pulled] = coc.contracted_images(range(pulled))
        u = linalg2.rotate_quarter_cw(directions[range(n), range(n)])  # DPhi^i f_i, up to sign
        log_push = log_norms[k, i]
        drift = _drifts(directions[k, i], u[i], directions[k, 0], directions[i, 0], log_push,
                        np.array(coc.log_norm)[i])
        log_pushes = np.stack((log_push, log_push - log_absdet[i]))
        measured = np.vstack(([drift], np.exp(log_pushes)))
    in_range = np.ones(n, dtype=bool)
    in_range[1:] = np.logical_and.reduceat((k < pulled) & ~(np.abs(log_pushes) > _LOG_MAX).any(axis=0),
                                           orders * (orders - 1) // 2)
    columns = _PairColumns(np.column_stack((i, k)), measured, log_pushes, in_range)
    for column in columns:
        column.flags.writeable = False
    return columns


def _first_error(coc: MatrixCocycle, columns: _PairColumns, k: int, rhs=None) -> HypcoordsError:
    """What the per-pair function raises at the first pair (i, k) of order k
    to fail, in row order, meeting each pair's terms as it does: the frame of
    order k, which it raises here, the measured terms, then
    ``verify_apriori_all``'s ``rhs`` (the max |entry| of each block and the
    logs of the right sides, over all pairs); index i < k passed at order i."""
    frame_coecc(coc.log_norm[k], coc.log_conorm[k])  # NoHyperbolicCoordinates where order k has no frame
    pairs = _order_pairs(k)
    log_pushes = columns.log_pushes[:, pairs]
    peak, logs = (None, None) if rhs is None else (x[..., pairs] for x in rhs)

    def errors(i):
        if i == 1 and coc.log_absdet[k] == -math.inf:  # the first order of a singular product
            yield ZeroDeterminant(f"det DPhi^{k} is zero: determinant-normalized rows undefined")
        yield from (_overflow(x) for x in log_pushes[:, i - 1] if abs(x) > _LOG_MAX)
        if peak is None:
            return
        if i < k and peak[i - 1] == 0.0:
            yield ZeroMatrix("norms undefined for the zero matrix")  # as norm_conorm_det
        yield from (_overflow(x) for x in logs[:, i - 1] if x > _LOG_MAX)

    return next(e for i in range(1, k + 1) for e in errors(i))


def _order_coeccs(coc: MatrixCocycle) -> np.ndarray:
    """``frame_coecc`` of every order 0..k, unchecked, as an array: NaN where
    log_norm - log_conorm is inf - inf."""
    with np.errstate(all="ignore"):
        return np.exp(np.subtract(coc.log_conorm, coc.log_norm))


def _first_stop(coecc: np.ndarray, failed: np.ndarray) -> int:
    """The first order k >= 1 whose frame is undefined (``frame_coecc``
    raises at ``coecc[k]``) or whose ``failed[k]`` is set, for arrays over
    the orders 0..K; K + 1 where there is none."""
    stops = np.flatnonzero(((coecc >= 1.0 - EPS_COECC) | failed)[1:])
    return int(stops[0]) + 1 if stops.size else len(coecc)


_APRIORI_CHECKS = (
    "frame_drift_sum",
    "pushforward_norm_sum",
    "det_normalized_sum",
    "frame_drift_tail",
    "pushforward_norm_tail",
    "det_normalized_tail",
    "frame_drift_quotient",
)


def _apriori_rhs_logs(log_ct, log_norm, log_conorm, log_absdet, log_drift, log_tail, log_quotient):
    """Logs of the right sides of the seven a-priori rows, in row order, for
    one pair (floats) or for the pairs of one order (arrays over i), from
    log ctilde, the logs of |DPhi^i|, its co-norm and |det DPhi^i|, the log
    drift and tail sums over j = i..k-1 and the log direct alternative
    before its factor ctilde.  A push row's right side is the co-norm plus
    ctilde |DPhi^i| times a sum, added as logs; the determinant-normalized
    row below it is the same log less log |det DPhi^i|, as its left side is."""
    scaled = log_ct + log_norm
    push_drift = np.logaddexp(log_conorm, scaled + log_drift)
    push_tail = np.logaddexp(log_conorm, scaled + log_tail)
    return (
        log_ct + log_drift,
        push_drift,
        push_drift - log_absdet,
        log_ct + log_tail,
        push_tail,
        push_tail - log_absdet,
        log_ct + log_quotient,
    )


def _apriori_lhs(measured) -> tuple:
    """The left sides of the seven a-priori rows, in row order, from
    ``_pair_measurements`` of one pair or of the pairs of one order."""
    drift, push, push_over_det = measured
    return (drift, push, push_over_det) * 2 + (drift,)


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
    measured = _pair_measurements(coc, frame_sequence(coc, k), i, k)
    log_ct = np.log(ctilde(coc, k))
    log_sums = (_log_sum(coc, i, k, 0), _log_sum(coc, i, k, 1))
    block_log_norm = norm_conorm_det(coc.block(i, k)).log_norm
    log_quotient = coc.log_coecc(i) + coc.log_norm[i] + block_log_norm - coc.log_norm[k]
    logs = _apriori_rhs_logs(log_ct, coc.log_norm[i], coc.log_conorm[i], coc.log_absdet[i],
                             *log_sums, log_quotient)
    return BoundReport("apriori_convergence", DEFAULT_REL_TOL, _APRIORI_CHECKS, [(i, k)], _apriori_lhs(measured),
                       [_exp(x) for x in logs])


def _log_sum_table(coc: MatrixCocycle) -> np.ndarray:
    """``_log_sum`` of every pair (i, k) and term at [term, k - 1, i], as a
    2 x K x (K + 1) table: column i holds -inf above row i and the terms
    j = i..K-1 (``_log_terms``) from there, added down the column by one
    ``np.logaddexp.accumulate``, the additions of ``_log_sum`` in its order
    (-inf and -inf add to -inf)."""
    terms = np.array([_log_terms(coc, j) for j in range(coc.k)]).T
    j, i = np.ogrid[: coc.k, : coc.k + 1]
    table = np.where(j >= i, terms[:, :, None], -math.inf)
    return np.logaddexp.accumulate(table, axis=1, out=table)


def _block_log_norms(coc: MatrixCocycle, pairs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """log |block(i, k)| of each pair (i, k) of ``pairs``, k outer and i
    inner, and the max |entry| of each block's body before its last
    scaling, 1 for block(k, k) = I.  The one loop over the orders:
    block(i, k) is step k - 1 times block(i, k - 1) for every i < k, one
    matmul per order, scaled as ``MatrixCocycle.block`` scales its products."""
    i, k = pairs.T
    bodies, log_scales, peak = np.empty((len(pairs), 2, 2)), np.zeros(len(pairs)), np.ones(len(pairs))
    bodies[i == k] = np.eye(2)
    with np.errstate(all="ignore"):  # overflow to inf, as on Python floats
        for order in range(2, coc.k + 1):
            last = _order_pairs(order - 1)
            now = slice(last.stop, last.stop + order - 1)  # the pairs (i, order), i < order
            bodies[now], log_scales[now], peak[now] = normalize_stack(
                np.matmul(coc.step_bodies[order - 1], bodies[last]),
                coc.step_log_scales[order - 1] + log_scales[last],
            )
        return np.log(linalg2.svd2_closed(*bodies.reshape(-1, 4).T).smax) + log_scales, peak


def verify_apriori_all(source: Union[OrbitSegment, MatrixCocycle]) -> BoundReport:
    """Drift bounds over every pair 1 <= i <= k <= length, in one O(k^2) sweep.

    Rows come k outer, i inner, and equal those of
    ``verify_apriori_convergence`` bit for bit; so do its errors.  Only the
    blocks need a loop over the orders (``_block_log_norms``).  Every other
    term is one array pass over all pairs: ctilde's running max
    (``np.fmax.accumulate``, which skips a NaN term as Python's ``max``
    does), the log drift and tail sums (``_log_sum_table``), the right-side
    logs, and the measured left sides, the pairs' ``_pair_columns``.  The
    first order with no frame, or with a singular product, a zero block or
    a term beyond the double range, then raises what the per-pair function
    raises there (``_first_error``).
    """
    coc = cocycle_of(source)
    n = coc.k
    columns = _pair_columns(coc)
    i, k = columns.pairs.T
    log_norm, log_conorm, log_absdet = map(np.array, (coc.log_norm, coc.log_conorm, coc.log_absdet))
    coecc = _order_coeccs(coc)
    block_log_norm, peak = _block_log_norms(coc, columns.pairs)
    with np.errstate(all="ignore"):  # overflow to inf, as on Python floats
        worst = np.fmax.accumulate(np.concatenate(([0.0], 2.0 / (1.0 - coecc[1:] * coecc[1:]))))
        log_ct = np.log(np.sqrt(worst))
        log_quotient = (log_conorm - log_norm)[i] + log_norm[i] + block_log_norm - log_norm[k]
        log_rhs = np.array(_apriori_rhs_logs(log_ct[k], log_norm[i], log_conorm[i], log_absdet[i],
                                             *_log_sum_table(coc)[:, k - 1, i], log_quotient))
    failed = ~columns.in_range
    orders = np.arange(1, n + 1)
    failed[1:] |= np.logical_or.reduceat((peak == 0.0) | (log_rhs > _LOG_MAX).any(axis=0),
                                         orders * (orders - 1) // 2)
    stop = _first_stop(coecc, failed)
    if stop <= n:
        raise _first_error(coc, columns, stop, (peak, log_rhs))
    return BoundReport("apriori_convergence", DEFAULT_REL_TOL, _APRIORI_CHECKS, columns.pairs,
                       _apriori_lhs(columns.measured), np.exp(log_rhs))


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
        row = cert.first_failure()
        raise CertificateRequired(f"{row.check} fails at i={row.index[0]}")
    return auxiliary_constants(ledger)


def verify_explicit_convergence(orbit: OrbitSegment, ledger: ConstantsLedger) -> BoundReport:
    """Certificate-powered geometric envelopes over every (i, k) pair.

    Raises CertificateRequired unless the per-index certificate passes.
    Rows come k outer, i inner: at pair (i, k), for each row of
    ``_envelope_rates``, the measured left side of ``_pair_measurements``
    against Q r^i.  The pairs are measured in one pass (``_pair_columns``)
    and their rows added at once.  Before that, the sweep raises what the
    first pair to fail would raise if the rows were built pair by pair: at
    the first order k with no frame or with a measured term out of range,
    what ``_first_error`` names, after Q r^j of every order j < k, each
    formed by Python's ``**`` as at pair (j, j).
    """
    aux = _certified_aux(orbit, ledger)
    coc = orbit.cocycle
    rates = _envelope_rates(ledger, aux)
    columns = _pair_columns(coc)
    stop = _first_stop(_order_coeccs(coc), ~columns.in_range)
    envelopes = np.zeros((len(rates), coc.k + 1))  # column i: the right sides at index i
    envelopes[:, 1:stop] = np.reshape([q * r**j for j in range(1, stop) for _, q, r in rates], (-1, len(rates))).T
    if stop <= coc.k:
        raise _first_error(coc, columns, stop)
    types = len(rates) // 3
    return BoundReport("explicit_convergence", DEFAULT_REL_TOL, [check for check, _, _ in rates], columns.pairs,
                       tuple(columns.measured) * types, envelopes[:, columns.pairs[:, 0]])


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
    # a contiguous transpose: with both operands on one buffer numpy makes one
    # BLAS syrk call per matrix, with two it takes the stacked gemm path
    return np.ascontiguousarray(np.swapaxes(m, 1, 2)) @ m, e


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
    other shape, an entry that is not a number or a non-finite one, is
    InvalidInput."""
    x = float_array(x, name)
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
    (x, y) is the Hessian tensor ``np.stack(spec.second_partials(x, y), axis=1)``,
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
    if not (is_int(samples) and samples >= 0):
        raise InvalidInput(f"samples must be an int >= 0, got {samples!r}")
    rng = rng if rng is not None else np.random.default_rng(0)
    if matrix is not None:
        a, e_a = _bracket_input(matrix, "matrix", 2)
    if bilinear is not None:
        t, e_t = _bracket_input(bilinear, "bilinear", 3)
        if v is not None:  # v is read only with a bilinear map
            vv, e_v = _bracket_input(v, "v", 1, t.shape[0])

    context, rows = {}, []  # rows: (check, lhs, rhs) of each row, all at index (0,)

    def add(check: str, lhs: float, rhs: float, e: int) -> None:
        rows.append((check, _scaled_back(lhs, e), _scaled_back(rhs, e)))

    if matrix is not None:
        n = a.shape[1]
        col_max = float(np.linalg.norm(a, axis=0).max())
        norm = float(_power_norms(a[None])[0])
        norm_sampled = _sampled_matrix_norm(a, rng, samples)
        context["matrix_norm"] = _scaled_back(norm, e_a)
        context["matrix_norm_sampled"] = _scaled_back(norm_sampled, e_a)
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
        context["bilinear_norm_sampled"] = _scaled_back(full_norm, e_t)

        add("bilinear_slice_lower", float(second_slot.max()), full_norm, e_t)
        add("bilinear_slice_upper", full_norm, math.sqrt(n) * float(second_slot.max()), e_t)

        if v is not None:
            mv = np.einsum("i,pij->pj", vv, t)
            norm_v = float(_power_norms(mv[None])[0])
            per_basis = [float(np.linalg.norm(mv @ basis[k])) for k in range(n)]
            add("bilinear_v_lower", max(per_basis), norm_v, e_v + e_t)
            add("bilinear_v_upper", norm_v, math.sqrt(n) * max(per_basis), e_v + e_t)

    checks, lhs, rhs = zip(*rows) if rows else ((),) * 3
    rep = BoundReport("bilinear_column_bounds", DEFAULT_REL_TOL, checks, [(0,)], lhs, rhs)
    rep.context.update(context)
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
    The terms are (axis, vector, step) arrays, and one loop over the steps
    pushes the four carries dM_i v (axis x or y, v = e or f) together.
    Log terms and sums add left to right.
    """
    coc = orbit.cocycle
    check_order(k, 1, coc.k, "order")
    if any(d == float("-inf") for d in coc.step_log_absdet[:k]):
        raise ZeroDeterminant("slow-variation terms need nonzero step determinants")
    for i in range(1, min(k, coc.k + 1)):  # the frames below order k must exist too
        frame_coecc(coc.log_norm[i], coc.log_conorm[i])
    frame = hyperbolic_coordinates(coc, k)
    cc = frame.coecc
    f_dirs, f_logs = coc.images(frame.f, range(k + 1))
    e_dirs, e_logs = (x[0, : k + 1] for x in coc.contracted_images([k]))
    u1, u2 = f_dirs[k], e_dirs[k]  # directions of DPhi^k f and DPhi^k e
    dirs, logs = np.stack((e_dirs, f_dirs)), np.stack((e_logs, f_logs))  # vector, order

    # the carried axis vectors, axis x then y, at orders 0..k-1
    w_dirs, w_logs = coc.images(np.repeat(np.eye(2), k, axis=0), np.tile(np.arange(k), 2))
    w_dirs, w_logs = w_dirs.reshape(2, 1, k, 2), w_logs.reshape(2, 1, k)  # axis, vector, step
    with np.errstate(all="ignore"):  # inf and NaN as on Python floats
        dx, dy = np.moveaxis(np.array(orbit.step_second_partials[:k]), 1, 0)
        # D2Phi(x_i), carried direction in one slot, and its images of e_i and f_i
        dmat = w_dirs[..., 0, None, None] * dx + w_dirs[..., 1, None, None] * dy
        d2 = np.matmul(dmat, dirs[:, :k, :, None])[..., 0]  # axis, vector, step, entry
        d2_norm = np.sqrt(np.matmul(d2[..., None, :], d2[..., None])[..., 0, 0])
        log_d2 = np.log(np.where(d2_norm > 0.0, d2_norm, 0.0))
        # added left to right, as the per-step scalar terms: grouping otherwise moves last bits
        log_terms = log_d2 + w_logs + logs[:, :k] + logs[:, 1:] - np.array(coc.log_absdet[1:k + 1])
        source_logs = w_logs + logs[:, :k]  # of the source term of each carry
        # dM_(i+1) v = J_i dM_i v + D2Phi(x_i)[M_i axis] M_i v = exp(carry_log) carry
        carry, carry_log = np.zeros((2, 2, 2)), np.zeros((2, 2))
        for i in range(k):
            image_log = carry_log + coc.step_log_scales[i]
            source_log = source_logs[..., i]
            lead = np.maximum(image_log, source_log)
            image = np.matmul(coc.step_bodies[i], carry[..., None])[..., 0]
            image_weight, source_weight = np.exp(np.stack((image_log, source_log)) - lead)[..., None]
            out = image * image_weight + d2[..., i, :] * source_weight
            _, e = np.frexp(np.maximum.reduce(np.abs(out), axis=-1))
            carry, carry_log = np.ldexp(out, -e[..., None]), lead + e * _LN2

    by_axis = {}
    for axis, (de_vec, df_vec), (de_log, df_log), (log_ee, log_ff) in zip(
        "xy", carry, carry_log.tolist(), log_terms.tolist()
    ):
        lead = max(de_log, df_log)
        num = (float(u1 @ de_vec) * math.exp(de_log - lead)
               + cc * float(u2 @ df_vec) * math.exp(df_log - lead))
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

    rows = [  # (check, lhs, rhs), all at index (k,)
        ("frame_derivative_master_bound", df_norm, aux.K1 * d2e1_norm + aux.K2 * ledger.c),
        ("second_derivative_factor_upper", d2e1_norm, SQRT2 * max(axis_e1)),
        ("second_derivative_factor_lower", max(axis_e1), d2e1_norm),
    ]

    ratio_sq = frame_k.coecc * frame_k.coecc
    # (type, first-term rate, middle-terms rate) of each term-bound type the flavor has
    rates = []
    if ledger.flavor.has_type_one:
        rates.append(("I", aux.Q3 * ledger.c, aux.Q4 * ledger.c))
    if ledger.flavor.has_type_two:
        rates.append(("II", aux.Qt3 * ledger.c / ledger.c_tilde, aux.Qt4 * ledger.c / ledger.c_tilde))
    for axis, terms in by_axis.items():
        lhs_inner = SQRT2 * abs(terms.e_dot_df)
        rhs_inner = aux.K1 * (terms.EE[0] + terms.sum_EE_tail + ratio_sq * terms.sum_FF)
        rows.append((f"aposteriori_inner_product_{axis}", lhs_inner, rhs_inner))
        for kind, first, middle in rates:
            rows.append((f"first_term_bound_{kind}_{axis}", terms.EE[0], d2e1_norm + first))
            rows.append((f"middle_terms_bound_{kind}_{axis}", terms.sum_EE_tail, middle))
        rows.append((f"expanded_terms_bound_{axis}", ratio_sq * terms.sum_FF, aux.Q * ledger.c))
    checks, lhs, rhs = zip(*rows)
    rep = BoundReport("slow_variation", DEFAULT_REL_TOL, checks, [(k,)], lhs, rhs)
    rep.context.update(d2_e1_norm=d2e1_norm, d2_e1_axis_x=axis_e1[0], d2_e1_axis_y=axis_e1[1])
    return rep
