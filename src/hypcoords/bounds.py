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
lhs <= rhs * (1 + tol).
"""

from __future__ import annotations

import array
import math
from dataclasses import dataclass
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
    ScaledMatrix,
    cocycle_of,
    compute_orbit,  # noqa: F401  perfbench's tracer test rebinds bounds.compute_orbit
    norm_conorm_det,
    normalize_stack,
)
from .errors import (
    BoundOverflow,
    CertificateRequired,
    DegenerateCoeccentricity,
    DegenerateStep,
    HypcoordsError,
    InvalidInput,
    ZeroDeterminant,
    ZeroMatrix,
)
from .hypframe import (
    EPS_COECC,
    HyperbolicFrame,
    aligned_distance,
    frame_sequence,
    hyperbolic_coordinates,
)
from .planar_maps import MapSpec

SQRT2 = math.sqrt(2.0)
DEFAULT_REL_TOL = 1e-9

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
        self._indices: List[Tuple[int, ...]] = []
        self._check, self._index = array.array("i"), array.array("i")
        self._lhs, self._rhs = array.array("d"), array.array("d")
        self._passed = bytearray()

    def _code(self, check: str) -> int:
        if check not in self._checks:
            self._checks.append(check)
        return self._checks.index(check)

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
        for row, value in zip(allowance, abs_tol):
            row[:] = value
        with np.errstate(all="ignore"):
            passed = lhs <= rhs * (1.0 + float(self.tol)) + allowance
        codes = np.array([self._code(check) for check in checks], dtype=np.intc)
        positions = np.arange(len(self._indices), len(self._indices) + len(indices), dtype=np.intc)
        self._indices.extend(indices)
        self._check.frombytes(np.tile(codes, len(indices)).tobytes())
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


def _exp(x: float) -> float:
    """math.exp of a bound term; a term beyond the double range is a BoundOverflow."""
    try:
        return math.exp(x)
    except OverflowError:
        raise BoundOverflow(f"bound term exp({x:.6g}) exceeds the double range") from None


def _ctilde_sq_term(coc: MatrixCocycle, i: int) -> float:
    """2 / (1 - coecc_i^2) for order i >= 1."""
    cc = _exp(coc.log_coecc(i))
    if cc >= 1.0 - EPS_COECC:
        raise DegenerateCoeccentricity(f"co-eccentricity at order {i} is {cc}")
    return 2.0 / (1.0 - cc * cc)


def _one_step_log_coecc(coc: MatrixCocycle, j: int) -> float:
    lc1 = coc.step_log_coecc(j)
    if math.isinf(lc1):
        raise DegenerateStep(f"one-step co-eccentricity at {j} is zero")
    return lc1


def _drift_term(coc: MatrixCocycle, j: int) -> float:
    return _exp(
        coc.log_coecc(j) + coc.log_norm[j] + coc.step_log_norm[j] - coc.log_norm[j + 1]
    )


def _det_drift_term(coc: MatrixCocycle, i: int, j: int) -> float:
    return _exp(
        (coc.log_absdet[j] - coc.log_absdet[i])
        + coc.step_log_norm[j]
        - coc.log_norm[j]
        - coc.log_norm[j + 1]
    )


def _tail_term(coc: MatrixCocycle, j: int) -> float:
    return _exp(coc.log_coecc(j) - _one_step_log_coecc(coc, j))


def _det_tail_term(coc: MatrixCocycle, i: int, j: int) -> float:
    return _exp(
        (coc.log_absdet[j] - coc.log_absdet[i])
        - 2.0 * coc.log_norm[j]
        - _one_step_log_coecc(coc, j)
    )


def ctilde(source: Union[OrbitSegment, MatrixCocycle], k: int) -> float:
    """max over 1 <= i <= k of sqrt(2 / (1 - coecc_i^2))."""
    coc = cocycle_of(source)
    worst = 0.0
    for i in range(1, k + 1):
        worst = max(worst, _ctilde_sq_term(coc, i))
    return math.sqrt(worst)


def tail_T(source: Union[OrbitSegment, MatrixCocycle], i: int, k: int) -> float:
    """Sum over j = i..k-1 of coecc_j / onestep_coecc_j (empty sum is 0)."""
    coc = cocycle_of(source)
    if not 1 <= i <= k <= coc.k:
        raise ValueError(f"need 1 <= i <= k <= {coc.k}")
    total = 0.0
    for j in range(i, k):
        total += _tail_term(coc, j)
    return total


def _drift_sum(coc: MatrixCocycle, i: int, k: int) -> float:
    """Sum over j of coecc_j |DPhi^j| |step_j| / |DPhi^(j+1)|."""
    total = 0.0
    for j in range(i, k):
        total += _drift_term(coc, j)
    return total


def _det_drift_sum(coc: MatrixCocycle, i: int, k: int) -> float:
    """Sum over j of |det block(i,j)| |step_j| / (|DPhi^j| |DPhi^(j+1)|)."""
    total = 0.0
    for j in range(i, k):
        total += _det_drift_term(coc, i, j)
    return total


def _det_tail_sum(coc: MatrixCocycle, i: int, k: int) -> float:
    """Sum over j of |det block(i,j)| / (|DPhi^j|^2 onestep_coecc_j)."""
    total = 0.0
    for j in range(i, k):
        total += _det_tail_term(coc, i, j)
    return total


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
    _, log_push = coc.prefix(i).apply(frames[k - 1].e)
    push_noise = ROUNDING_UNIT * _exp(coc.log_norm[i])
    det_noise = ROUNDING_UNIT * _exp(coc.log_norm[i] - coc.log_absdet[i])
    return drift, _exp(log_push), _exp(log_push - coc.log_absdet[i]), push_noise, det_noise


class _OrderColumns(NamedTuple):
    """The index tuples of the pairs (1, k) .. (k, k), then their
    ``_pair_measurements`` as arrays over i."""

    indices: List[Tuple[int, int]]
    drift: np.ndarray
    push: np.ndarray
    push_over_det: np.ndarray
    push_noise: np.ndarray
    det_noise: np.ndarray


class _Measured:
    """What both sweeps of one cocycle measure, kept on it (``MatrixCocycle._measured``):
    the frame directions, the prefix products as one stack, the per-i rounding
    allowances, the index tuples of every pair and the columns of each order
    measured so far.  Row i of an array belongs to order or index i."""

    def __init__(self, coc: MatrixCocycle):
        n = coc.k
        self.e = np.zeros((n + 1, 2))
        self.prefix_bodies = np.array([coc.prefix(i).body for i in range(n + 1)])
        self.prefix_log_scales = np.array([coc.prefix(i).log_scale for i in range(n + 1)])
        self.log_absdet = np.array(coc.log_absdet)
        self.push_noise = np.zeros(n + 1)
        self.det_noise = np.zeros(n + 1)
        # pair (i, k) sits at k (k - 1) / 2 + i - 1
        self.indices = [(i, k) for k in range(1, n + 1) for i in range(1, k + 1)]
        self.columns: List[_OrderColumns] = []


def _measured(coc: MatrixCocycle, k: int) -> _OrderColumns:
    """The columns of order k, measured once per cocycle.  Orders are measured
    in turn, so each finds the frames and allowances of the orders below it;
    an order that raises is measured again when next asked for."""
    if coc._measured is None:
        coc._measured = _Measured(coc)
    measured = coc._measured
    while len(measured.columns) < k:
        measured.columns.append(_order_measurements(coc, len(measured.columns) + 1))
    return measured.columns[k - 1]


def _order_measurements(coc: MatrixCocycle, k: int) -> _OrderColumns:
    """``_pair_measurements`` of every pair (i, k) in one array pass over i,
    bit for bit.

    Raises what the first of those pairs to fail raises.  The terms of
    index i < k that can fail (the allowances, a zero determinant) were
    taken at order i; the terms of index k come in the per-pair order.  The
    pushes |DPhi^i e_k| of i < k stay below |DPhi^i|, whose exponential was
    taken at order i, up to an ulp at the edge of the double range.
    """
    m = coc._measured
    m.e[k] = hyperbolic_coordinates(coc, k).e
    if coc.log_absdet[k] == float("-inf"):
        raise ZeroDeterminant(f"det DPhi^{k} is zero: determinant-normalized rows undefined")
    m.push_noise[k] = ROUNDING_UNIT * _exp(coc.log_norm[k])
    m.det_noise[k] = ROUNDING_UNIT * _exp(coc.log_norm[k] - coc.log_absdet[k])
    upto = slice(1, k + 1)
    e_k = m.e[k]
    # a stack of (1, 2) @ (2, 1) matmuls runs the dot of np.linalg.norm on
    # each row; a*a + b*b and einsum round differently
    drift = np.minimum(*(
        np.sqrt(np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0])
        for d in (e_k - m.e[upto], e_k + m.e[upto])
    ))
    w = np.matmul(m.prefix_bodies[upto], e_k[:, None])
    push_norms = linalg2.each(math.hypot, w[:, 0, 0], w[:, 1, 0])
    # a zero image has log norm -inf, as in ScaledMatrix.apply
    log_push = linalg2.each(lambda x: math.log(x) if x != 0.0 else -math.inf, push_norms)
    log_push += m.prefix_log_scales[upto]
    return _OrderColumns(
        m.indices[k * (k - 1) // 2 : k * (k + 1) // 2],
        drift,
        linalg2.each(_exp, log_push),
        linalg2.each(_exp, log_push - m.log_absdet[upto]),
        m.push_noise[upto],
        m.det_noise[upto],
    )


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
    rhs = (
        ct * drift_sum,
        conorm + ct * norm * drift_sum,
        inv_norm + ct * norm * det_drift_sum,
        tail * ct,
        conorm + norm * tail * ct,
        inv_norm + ct * norm * det_tail_sum,
        ct * quotient,
    )
    abs_tol = (ROUNDING_UNIT, push_noise, det_noise) * 2 + (ROUNDING_UNIT,)
    return lhs, rhs, abs_tol


def verify_apriori_convergence(
    source: Union[OrbitSegment, MatrixCocycle],
    i: int,
    k: int,
    report: Optional[BoundReport] = None,
    tol: float = DEFAULT_REL_TOL,
) -> BoundReport:
    """The assumption-free drift bounds at one (i, k) pair.

    Checks, with measured left sides: the drift sum bound, its pushforward
    and determinant-normalized companions, the three tail (sacrifice)
    variants, and the direct quotient alternative.  Every sum and block is
    computed from scratch, so this is the reference ``verify_apriori_all``
    is tested against.
    """
    coc = cocycle_of(source)
    if not 1 <= i <= k <= coc.k:
        raise ValueError(f"need 1 <= i <= k <= {coc.k}")
    rep = report if report is not None else BoundReport("apriori_convergence", tol)
    measured = _pair_measurements(coc, frame_sequence(coc, k), i, k)
    ct = ctilde(coc, k)
    sums = (
        _drift_sum(coc, i, k), _det_drift_sum(coc, i, k),
        tail_T(coc, i, k), _det_tail_sum(coc, i, k),
    )
    block_log_norm = norm_conorm_det(coc.block(i, k)).log_norm
    norm_i = _exp(coc.log_norm[i])
    conorm_i = _exp(coc.log_conorm[i])
    inv_norm_i = 1.0 / norm_i
    quotient = _exp(coc.log_coecc(i) + coc.log_norm[i] + block_log_norm - coc.log_norm[k])
    sides = _apriori_sides(measured, ct, norm_i, conorm_i, inv_norm_i, sums, quotient)
    for check, lhs, rhs, abs_tol in zip(_APRIORI_CHECKS, *sides):
        rep.add(check, (i, k), lhs, rhs, abs_tol=abs_tol)
    return rep


def verify_apriori_all(
    source: Union[OrbitSegment, MatrixCocycle], tol: float = DEFAULT_REL_TOL
) -> BoundReport:
    """Drift bounds over every pair 1 <= i <= k <= length, in one O(k^2) sweep.

    Rows come k outer, i inner, and equal those of
    ``verify_apriori_convergence`` bit for bit.  Each order k is one array
    pass over i = 1..k: one matmul carries the stack of blocks block(i, k - 1)
    forward by step k - 1, the four sums take their j = k - 1 terms by
    elementwise ``+=``, and the measured left sides are the order's columns,
    which ``verify_explicit_convergence`` reads too.  Every array operation
    rounds as its scalar counterpart in the per-pair function; logs, hypots
    and exponentials are taken per element with ``math``.  ctilde is a
    running max over orders, and norm, co-norm and 1/norm of order i are
    formed once.  An order whose pass meets a term that would raise (a
    near-conformal order, a zero determinant or block, a degenerate step, a
    term beyond the double range) and every order after it are built pair by
    pair through ``verify_apriori_convergence``, which raises its own error
    at its own pair.
    """
    coc = cocycle_of(source)
    rep = BoundReport("apriori_convergence", tol)
    n = coc.k
    # slot i holds the state of pair (i, k) once the sweep has reached k
    blocks = np.tile(np.eye(2), (n + 1, 1, 1))
    block_log_scales = np.zeros(n + 1)
    sums = np.zeros((4, n + 1))  # drift, det drift, tail, det tail
    norm, conorm, inv_norm = np.zeros((3, n + 1))
    log_norm = np.array(coc.log_norm)
    log_coecc = np.array(coc.log_conorm) - log_norm
    log_absdet = np.array(coc.log_absdet)
    worst = 0.0

    @np.errstate(all="ignore")  # overflow to inf, as on Python floats
    def order(k: int) -> None:
        nonlocal worst
        worst = max(worst, _ctilde_sq_term(coc, k))
        ct = math.sqrt(worst)
        columns = _measured(coc, k)
        norm[k] = norm_k = _exp(coc.log_norm[k])
        conorm[k] = _exp(coc.log_conorm[k])
        inv_norm[k] = 1.0 / norm_k
        if k > 1:
            j = k - 1
            before = slice(1, k)
            step = coc.scaled_steps[j]
            bodies, scales, peak = normalize_stack(
                np.matmul(step.body, blocks[before]), step.log_scale + block_log_scales[before]
            )
            if not peak.all():
                raise ZeroMatrix(f"a block ending at step {j} is the zero matrix")
            blocks[before], block_log_scales[before] = bodies, scales
            det_ratio = log_absdet[j] - log_absdet[before]
            sums[0, before] += _drift_term(coc, j)
            sums[1, before] += linalg2.each(
                math.exp, det_ratio + coc.step_log_norm[j] - coc.log_norm[j] - coc.log_norm[j + 1]
            )
            sums[2, before] += _tail_term(coc, j)
            sums[3, before] += linalg2.each(
                math.exp, det_ratio - 2.0 * coc.log_norm[j] - _one_step_log_coecc(coc, j)
            )
        upto = slice(1, k + 1)
        smax = linalg2.spectral_norm_array(*blocks[upto].reshape(-1, 4).T)
        block_log_norm = linalg2.each(math.log, smax) + block_log_scales[upto]
        quotient = linalg2.each(
            math.exp, log_coecc[upto] + log_norm[upto] + block_log_norm - log_norm[k]
        )
        sides = _apriori_sides(
            columns[1:], ct, norm[upto], conorm[upto], inv_norm[upto], sums[:, upto], quotient
        )
        rep.add_pairs(_APRIORI_CHECKS, columns.indices, *sides)

    for k in range(1, n + 1):
        try:
            order(k)
        except (HypcoordsError, ArithmeticError):
            # the pass takes ctilde before the frames and the sums' terms by
            # raw math.exp, so the error would not always be the reference's
            for k_rest in range(k, n + 1):
                for i in range(1, k_rest + 1):
                    verify_apriori_convergence(coc, i, k_rest, report=rep)
            break
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


def _certified_aux(
    orbit: OrbitSegment, ledger: ConstantsLedger, aux: Optional[AuxiliaryConstants]
) -> AuxiliaryConstants:
    """``aux``, or the ledger's auxiliary constants when it is None, once the
    per-index certificate passes; CertificateRequired names its first failure."""
    cert = check_quasi_hyperbolic(orbit, ledger)
    if not cert.verdict:
        i, name = cert.first_failure
        raise CertificateRequired(f"{name} fails at i={i}")
    return aux if aux is not None else auxiliary_constants(ledger)


def verify_explicit_convergence(
    orbit: OrbitSegment,
    ledger: ConstantsLedger,
    aux: Optional[AuxiliaryConstants] = None,
    tol: float = DEFAULT_REL_TOL,
) -> BoundReport:
    """Certificate-powered geometric envelopes over every (i, k) pair.

    Raises CertificateRequired unless the per-index certificate passes.
    Rows come k outer, i inner: at pair (i, k), for each row of
    ``_envelope_rates``, the measured left side of ``_pair_measurements``
    against Q r^i.  Each order k is one pass over i = 1..k that reads the
    order's measured columns, shared with ``verify_apriori_all``, and the
    right sides Q r^i, each formed once.  An order that raises raises what
    the first pair to fail raises when its rows are built pair by pair:
    Q r^k comes after the measurements of order k, as at pair (k, k).
    """
    aux = _certified_aux(orbit, ledger, aux)
    coc = orbit.cocycle
    rates = _envelope_rates(ledger, aux)
    checks = tuple(check for check, _, _ in rates)
    types = len(rates) // 3
    envelopes = np.zeros((len(rates), coc.k + 1))  # column i: the right sides at index i
    rep = BoundReport("explicit_convergence", tol)
    with np.errstate(all="ignore"):  # overflow to inf, as on Python floats
        for k in range(1, coc.k + 1):
            columns = _measured(coc, k)
            envelopes[:, k] = [q * r**k for _, q, r in rates]
            rep.add_pairs(
                checks, columns.indices, columns[1:4] * types, envelopes[:, 1 : k + 1],
                ((ROUNDING_UNIT,) + columns[4:]) * types,
            )
    return rep


# ---------------------------------------------------------------------------
# Second-derivative identity
# ---------------------------------------------------------------------------


def d2_contraction_identity(
    spec: MapSpec, p: np.ndarray, v: np.ndarray, tol: float = 1e-10
) -> BoundReport:
    """Entrywise check that D2Phi(v, axis_k) equals (d_axis_k DPhi) v.

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
        rep.add(f"coordinate_identity_axis{axis}", (axis,), err, tol * scale)
    return rep


# ---------------------------------------------------------------------------
# Column / bilinear norm bounds in dimension n <= 4
# ---------------------------------------------------------------------------


def _power_norms(mats: np.ndarray) -> np.ndarray:
    """Operator 2-norms of an (s, m, n) stack of matrices: the largest
    singular value of each, exact to rounding.

    The name is left from the power iteration this replaced, because the
    benchmark's tracer (``perfbench/tracing.py``) wraps and counts the
    function by it.
    """
    return np.linalg.svd(mats, compute_uv=False)[:, 0]


def _sampled_matrix_norm(m: np.ndarray, rng: np.random.Generator, samples: int) -> float:
    n = m.shape[1]
    pts = rng.standard_normal((samples, n))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts = np.vstack([pts, np.eye(n)])
    return float(np.linalg.norm(pts @ m.T, axis=1).max())


def _bracket_input(x, name: str, ndim: int, n: Optional[int] = None) -> Tuple[np.ndarray, int]:
    """``x`` as floats divided by 2^e, and e, where 2^e brings the largest
    |entry| into [1/2, 1) (e = 0 for a zero ``x``), as ``cocycle._normalize``
    scales its bodies.

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
    tol: float = 1e-9,
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
    columns B(v, e_k) bracket |B(v, .)|.  Slice norms and |B(v, .)| are
    exact largest singular values; |B| is a sampled lower estimate, the
    largest |B(u, .)| over both bases and a seeded sphere sample of u, so
    it dominates every slice and the lower rows cannot falsely fail.

    Each input is first divided by the power of two that brings its largest
    |entry| into [1/2, 1), so no norm over- or underflows; both sides of
    every row are scaled back, and a side beyond the double range is a
    BoundOverflow.  A malformed shape (``v`` must match ``bilinear``), a
    non-finite entry, or n > 4, is InvalidInput.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    rep = BoundReport("bilinear_column_bounds", tol)
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
        slot_mats = np.einsum("si,pij->spj", cand, t)
        slot_norms = _power_norms(slot_mats)
        second_mats = np.einsum("pij,kj->kpi", t, basis)
        second_slot = _power_norms(second_mats)
        full_norm = float(max(slot_norms.max(), second_slot.max()))
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

_AXES = {"x": 0, "y": 1}


@dataclass(frozen=True)
class SlowVariationTerms:
    """The per-step terms controlling the frame field's spatial derivative,
    and the derivative itself: e_dot_df is <e, d_axis f> of the order-k frame."""

    k: int
    axis: str
    A_k: float
    B_k: float
    EE: List[float]
    FF: List[float]
    rhs_apriori: float
    e_dot_df: float

    @property
    def sum_EE_tail(self) -> float:
        return float(sum(self.EE[1:]))

    @property
    def sum_FF(self) -> float:
        return float(sum(self.FF))


def _push_tangent(
    step: ScaledMatrix, v: np.ndarray, v_log: float, source: np.ndarray, source_log: float
) -> Tuple[np.ndarray, float]:
    """step (exp(v_log) v) + exp(source_log) source as (vector, log scale), the
    vector scaled by a power of two to max |entry| in [1/2, 1) unless zero."""
    image_log = v_log + step.log_scale
    lead = max(image_log, source_log)
    out = (step.body @ v) * math.exp(image_log - lead) + source * math.exp(source_log - lead)
    _, e = math.frexp(float(np.abs(out).max()))
    return np.ldexp(out, -e), lead + e * math.log(2.0)


def _contracted_images(coc: MatrixCocycle, e: np.ndarray, k: int) -> List[Tuple[np.ndarray, float]]:
    """DPhi^i e for i = 0..k, as (unit direction, log norm), e the order-k contracted direction.

    A forward product holds DPhi^i e only to eps |DPhi^i| in absolute terms,
    which swamps it once the co-eccentricity drops below eps.  The inverse
    steps expand that direction instead, so it is pulled back from order k:
    DPhi^k e is normal to the image of f, and the pulled-back vector at
    i = 0, parallel to e, fixes the scale and sign of all the others.
    """
    u1, _ = coc.prefix(k).apply(linalg2.rotate_quarter_cw(e))
    w, w_log = np.array([-u1[1], u1[0]]), 0.0
    images = [(w, w_log)]
    for j in range(k - 1, -1, -1):
        step = coc.scaled_steps[j]
        (a, b), (c, d) = step.body.tolist()
        adj_w = np.array([d * w[0] - b * w[1], a * w[1] - c * w[0]])  # det(body) body^-1 w
        n = math.hypot(float(adj_w[0]), float(adj_w[1]))
        det = a * d - b * c
        w = adj_w / (n if det > 0.0 else -n)
        w_log += math.log(n) - math.log(abs(det)) - step.log_scale
        images.append((w, w_log))
    images.reverse()
    sign = 1.0 if float(images[0][0] @ e) > 0.0 else -1.0
    return [(sign * w, w_log - images[0][1]) for w, w_log in images]


def slow_variation_terms(orbit: OrbitSegment, k: int, axis: str) -> SlowVariationTerms:
    """A_k, B_k, the second-derivative transfer terms and <e, d_axis f> at order k.

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
    """
    if axis not in _AXES:
        raise ValueError("axis must be 'x' or 'y'")
    a = _AXES[axis]
    axis_vec = np.array([1.0, 0.0]) if a == 0 else np.array([0.0, 1.0])
    coc = orbit.cocycle
    if any(d == float("-inf") for d in coc.step_log_absdet[:k]):
        raise ZeroDeterminant("slow-variation terms need nonzero step determinants")
    frame = frame_sequence(coc, k)[k - 1]
    cc = frame.coecc
    A_k = SQRT2 / (1.0 - cc * cc)
    B_k = SQRT2 * cc * cc / (1.0 - cc * cc)

    log_ee: List[float] = []
    log_ff: List[float] = []
    de_vec, de_log = np.zeros(2), 0.0  # dM_i e = exp(de_log) de_vec
    df_vec, df_log = np.zeros(2), 0.0  # dM_i f
    e_images = _contracted_images(coc, frame.e, k)
    for i in range(k):
        dx, dy = orbit.step_second_partials[i]
        w_dir, w_log = coc.prefix(i).apply(axis_vec)
        dmat = w_dir[0] * dx + w_dir[1] * dy  # D2Phi at the orbit point, carried direction in one slot
        e_dir, e_log = e_images[i]
        e1_dir, e1_log = e_images[i + 1]
        f_dir, f_log = coc.prefix(i).apply(frame.f)
        f1_dir, f1_log = coc.prefix(i + 1).apply(frame.f)
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
        step = coc.scaled_steps[i]
        de_vec, de_log = _push_tangent(step, de_vec, de_log, d2e, w_log + e_log)
        df_vec, df_log = _push_tangent(step, df_vec, df_log, d2f, w_log + f_log)

    u1, u2 = f1_dir, e_images[k][0]  # directions of DPhi^k f and DPhi^k e
    lead = max(de_log, df_log)
    num = float(u1 @ de_vec) * math.exp(de_log - lead) + cc * float(
        u2 @ df_vec
    ) * math.exp(df_log - lead)
    e_dot_df = num * _exp(lead - coc.log_norm[k]) / (1.0 - cc * cc)

    ee = [_exp(v) for v in log_ee]
    ff = [_exp(v) for v in log_ff]
    rhs = A_k * ee[0] + A_k * sum(ee[1:]) + B_k * sum(ff)
    return SlowVariationTerms(
        k=k,
        axis=axis,
        A_k=A_k,
        B_k=B_k,
        EE=ee,
        FF=ff,
        rhs_apriori=rhs,
        e_dot_df=e_dot_df,
    )


def verify_slow_variation(
    orbit: OrbitSegment,
    ledger: ConstantsLedger,
    aux: Optional[AuxiliaryConstants] = None,
    tol: float = DEFAULT_REL_TOL,
) -> BoundReport:
    """The slow-variation chain at order k = orbit.k.

    (a) the exact frame derivative |D f| against K1 |D2Phi(e1, .)| + K2 c;
    (b) both sides of the per-axis bracketing of |D2Phi(e1, .)|;
    (c) the inner-product form against the transfer-term sums, per axis;
    (d) the individual term bounds of the certificate flavor.

    Raises CertificateRequired unless the per-index certificate passes.
    """
    aux = _certified_aux(orbit, ledger, aux)
    k = orbit.k

    frame1 = hyperbolic_coordinates(orbit.cocycle, 1)
    dx, dy = orbit.step_second_partials[0]
    # w -> D2Phi(e1, w) has the columns (d_axis DPhi) e1
    d2_x, d2_y = dx @ frame1.e, dy @ frame1.e
    d2e1_norm = linalg2.spectral_norm(np.column_stack([d2_x, d2_y]))
    axis_e1 = (float(np.linalg.norm(d2_x)), float(np.linalg.norm(d2_y)))

    by_axis = {axis: slow_variation_terms(orbit, k, axis) for axis in _AXES}
    # d_axis f = <e, d_axis f> e, so |D f| is the norm of the two inner products
    df_norm = math.hypot(by_axis["x"].e_dot_df, by_axis["y"].e_dot_df)

    rep = BoundReport("slow_variation", tol)
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

    frame_k = hyperbolic_coordinates(orbit.cocycle, k)
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
