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

import math
from dataclasses import dataclass, field
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
)
from .errors import (
    BoundOverflow,
    CertificateRequired,
    DegenerateCoeccentricity,
    DegenerateStep,
    ZeroDeterminant,
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


@dataclass
class BoundReport:
    name: str
    tol: float
    rows: List[BoundRow] = field(default_factory=list)
    context: Dict[str, float] = field(default_factory=dict)

    def add(self, check: str, index: Tuple[int, ...], lhs: float, rhs: float, abs_tol: float = 0.0):
        passed = lhs <= rhs * (1.0 + self.tol) + abs_tol
        self.rows.append(BoundRow(check, index, lhs, rhs, rhs - lhs, passed))

    @property
    def verdict(self) -> bool:
        return all(r.passed for r in self.rows)

    def failures(self) -> List[BoundRow]:
        return [r for r in self.rows if not r.passed]

    def first_failure(self) -> Optional[BoundRow]:
        for r in self.rows:
            if not r.passed:
                return r
        return None


# Per-index terms of ctilde and of the four a-priori sums.  The per-pair
# functions and the all-pairs sweep both add these same terms left to right
# with plain ``+=`` (never ``sum()``, which compensates from Python 3.12 on),
# so the sweep's running sums equal the per-pair sums bit for bit.


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


class _PairMeasurement(NamedTuple):
    """Measured left sides at one pair (i, k), after the index tuple that
    every row of the pair shares: the drift |e_k - e_i|, |DPhi^i e_k| and
    |DPhi^i e_k| / |det DPhi^i|, then the rounding allowances of the last two."""

    index: Tuple[int, int]
    drift: float
    push: float
    push_over_det: float
    push_noise: float
    det_noise: float


def _pair_measurements(
    coc: MatrixCocycle, frames: List[HyperbolicFrame], index: Tuple[int, int]
) -> _PairMeasurement:
    """The measurements at ``index`` = (i, k).  A singular DPhi^i leaves the
    determinant-normalized rows undefined."""
    i, k = index
    if coc.log_absdet[i] == float("-inf"):
        raise ZeroDeterminant(f"det DPhi^{i} is zero: determinant-normalized rows undefined")
    drift = aligned_distance(frames[k - 1].e, frames[i - 1].e)
    _, log_push = coc.prefix(i).apply(frames[k - 1].e)
    push_noise = ROUNDING_UNIT * _exp(coc.log_norm[i])
    det_noise = ROUNDING_UNIT * _exp(coc.log_norm[i] - coc.log_absdet[i])
    return _PairMeasurement(
        index, drift, _exp(log_push), _exp(log_push - coc.log_absdet[i]), push_noise, det_noise
    )


def _measured_pairs(coc: MatrixCocycle):
    """A function (i, k) -> ``_pair_measurements`` that measures each pair of
    ``coc`` once: frames and measurements live on the cocycle, so both sweeps
    of one orbit share them.  A pair is measured when a sweep first reaches
    it, so errors arise in the sweep's own order.
    """
    if coc._pair_table is None:
        # pair (i, k) sits in slot k (k - 1) / 2 + i - 1.  The index tuples
        # are built together: those that Python's tuple free list keeps after
        # the reports are freed then pin one block, not the rows' memory.
        indices = [(i, k) for k in range(1, coc.k + 1) for i in range(1, k + 1)]
        coc._pair_table = (frame_sequence(coc), indices, [None] * len(indices))
    frames, indices, table = coc._pair_table

    def measured(i: int, k: int) -> _PairMeasurement:
        slot = k * (k - 1) // 2 + i - 1
        found = table[slot]
        if found is None:
            found = table[slot] = _pair_measurements(coc, frames, indices[slot])
        return found

    return measured


def _apriori_rows(
    rep: BoundReport, coc: MatrixCocycle, measured: _PairMeasurement,
    ct: float, drift_sum: float, det_drift_sum: float, tail: float, det_tail_sum: float,
    block_log_norm: float,
) -> None:
    """The seven a-priori rows of one pair, given its ``_pair_measurements``,
    ctilde(k), the four sums over j = i..k-1 and the log-norm of block(i, k)."""
    index, drift, push, push_over_det, push_noise, det_noise = measured
    i, k = index
    norm_i = _exp(coc.log_norm[i])
    conorm_i = _exp(coc.log_conorm[i])

    rep.add("frame_drift_sum", index, drift, ct * drift_sum, abs_tol=ROUNDING_UNIT)
    rep.add(
        "pushforward_norm_sum",
        index,
        push,
        conorm_i + ct * norm_i * drift_sum,
        abs_tol=push_noise,
    )
    rep.add(
        "det_normalized_sum",
        index,
        push_over_det,
        1.0 / norm_i + ct * norm_i * det_drift_sum,
        abs_tol=det_noise,
    )

    rep.add("frame_drift_tail", index, drift, tail * ct, abs_tol=ROUNDING_UNIT)
    rep.add(
        "pushforward_norm_tail",
        index,
        push,
        conorm_i + norm_i * tail * ct,
        abs_tol=push_noise,
    )
    rep.add(
        "det_normalized_tail",
        index,
        push_over_det,
        1.0 / norm_i + ct * norm_i * det_tail_sum,
        abs_tol=det_noise,
    )

    quotient = _exp(coc.log_coecc(i) + coc.log_norm[i] + block_log_norm - coc.log_norm[k])
    rep.add("frame_drift_quotient", index, drift, ct * quotient, abs_tol=ROUNDING_UNIT)


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
    _apriori_rows(
        rep, coc, _pair_measurements(coc, frame_sequence(coc, k), (i, k)), ctilde(coc, k),
        _drift_sum(coc, i, k), _det_drift_sum(coc, i, k),
        tail_T(coc, i, k), _det_tail_sum(coc, i, k),
        norm_conorm_det(coc.block(i, k)).log_norm,
    )
    return rep


def verify_apriori_all(
    source: Union[OrbitSegment, MatrixCocycle], tol: float = DEFAULT_REL_TOL
) -> BoundReport:
    """Drift bounds over every pair 1 <= i <= k <= length, in one O(k^2) sweep.

    Rows come k outer, i inner, and equal those of
    ``verify_apriori_convergence`` bit for bit: from k - 1 to k, each i < k
    carries block(i, k - 1) and its four sums forward by step j = k - 1, with
    the products and left-to-right additions the per-pair function performs,
    and ctilde is a running max over orders.  State is one block and four
    sums per i.  Degenerate input raises what the per-pair loop raises, in
    the same order: NoHyperbolicCoordinates for a near-conformal order (the
    frames come first, so the DegenerateCoeccentricity of ``ctilde``, on the
    same threshold, is never reached), then DegenerateStep at step k - 1,
    then ZeroMatrix from a block norm.
    """
    coc = cocycle_of(source)
    measured = _measured_pairs(coc)
    rep = BoundReport("apriori_convergence", tol)
    n = coc.k
    # slot i holds the state of pair (i, k) once the sweep has reached k
    blocks = [ScaledMatrix.identity()] * (n + 1)
    drift_sums = [0.0] * (n + 1)
    det_drift_sums = [0.0] * (n + 1)
    tails = [0.0] * (n + 1)
    det_tail_sums = [0.0] * (n + 1)
    worst = 0.0
    for k in range(1, n + 1):
        worst = max(worst, _ctilde_sq_term(coc, k))
        ct = math.sqrt(worst)
        j = k - 1
        if k > 1:
            step = ScaledMatrix.from_matrix(coc.steps[j])
            drift_term = _drift_term(coc, j)
            tail_term = _tail_term(coc, j)
        for i in range(1, k + 1):
            if i < k:
                blocks[i] = step @ blocks[i]
                drift_sums[i] += drift_term
                det_drift_sums[i] += _det_drift_term(coc, i, j)
                tails[i] += tail_term
                det_tail_sums[i] += _det_tail_term(coc, i, j)
            _apriori_rows(
                rep, coc, measured(i, k), ct,
                drift_sums[i], det_drift_sums[i], tails[i], det_tail_sums[i],
                norm_conorm_det(blocks[i]).log_norm,
            )
    return rep


def verify_consecutive_rotation(
    source: Union[OrbitSegment, MatrixCocycle], tol: float = DEFAULT_REL_TOL
) -> BoundReport:
    """Per-step frame rotation: the sine-squared bound and drift <= sqrt(2)|sin|."""
    coc = cocycle_of(source)
    frames = frame_sequence(coc)
    rep = BoundReport("consecutive_rotation", tol)
    for j in range(1, coc.k):
        nxt = frames[j]
        e_j = frames[j - 1].e
        cos = float(np.dot(e_j, nxt.e))
        sin = float(np.dot(e_j, nxt.f))
        if cos < 0.0:  # align so the rotation angle is at most a quarter turn
            cos, sin = -cos, -sin
        cc_next = nxt.coecc
        bound = (
            1.0
            / (1.0 - cc_next * cc_next)
            * _exp(
                2.0
                * (
                    coc.log_coecc(j)
                    + coc.log_norm[j]
                    + coc.step_log_norm[j]
                    - coc.log_norm[j + 1]
                )
            )
        )
        # angles below the double-precision angular floor measure as noise,
        # hence the squared rounding allowance
        rep.add("rotation_sine_squared", (j,), sin * sin, bound, abs_tol=ROUNDING_UNIT**2)
        drift = math.hypot(1.0 - cos, sin)
        rep.add("drift_vs_sine", (j,), drift, SQRT2 * abs(sin), abs_tol=ROUNDING_UNIT)
    return rep


def _envelope_rows_one(rep, ledger, aux, index, drift, push, push_det, push_noise, det_noise):
    i = index[0]
    r1 = ledger.Gamma * ledger.Gamma_tilde * ledger.c / ledger.lam
    rep.add("frame_drift_envelope_I", index, drift, aux.Q1 * r1**i, abs_tol=ROUNDING_UNIT)
    r2 = ledger.Gamma * r1
    rep.add("pushforward_envelope_I", index, push, aux.Q1 * r2**i, abs_tol=push_noise)
    r3 = ledger.Gamma * ledger.Gamma_tilde / (ledger.lam * ledger.lam)
    rep.add("det_normalized_envelope_I", index, push_det, aux.Q2 * r3**i, abs_tol=det_noise)


def _envelope_rows_two(rep, ledger, aux, index, drift, push, push_det, push_noise, det_noise):
    i = index[0]
    r1 = ledger.c / ledger.c_tilde
    rep.add("frame_drift_envelope_II", index, drift, aux.Qt1 * r1**i, abs_tol=ROUNDING_UNIT)
    r2 = ledger.Gamma * r1
    rep.add("pushforward_envelope_II", index, push, aux.Qt1 * r2**i, abs_tol=push_noise)
    r3 = ledger.Gamma / (ledger.lam * ledger.lam * ledger.c_tilde)
    rep.add("det_normalized_envelope_II", index, push_det, aux.Qt2 * r3**i, abs_tol=det_noise)


def verify_explicit_convergence(
    orbit: OrbitSegment,
    ledger: ConstantsLedger,
    aux: Optional[AuxiliaryConstants] = None,
    tol: float = DEFAULT_REL_TOL,
) -> BoundReport:
    """Certificate-powered geometric envelopes over every (i, k) pair.

    Raises CertificateRequired unless the per-index certificate passes.
    """
    cert = check_quasi_hyperbolic(orbit, ledger)
    if not cert.verdict:
        i, name = cert.first_failure
        raise CertificateRequired(f"{name} fails at i={i}")
    if aux is None:
        aux = auxiliary_constants(ledger)
    coc = orbit.cocycle
    measured = _measured_pairs(coc)
    rep = BoundReport("explicit_convergence", tol)
    for k in range(1, coc.k + 1):
        for i in range(1, k + 1):
            pair = measured(i, k)
            if ledger.flavor.has_type_one:
                _envelope_rows_one(rep, ledger, aux, *pair)
            if ledger.flavor.has_type_two:
                _envelope_rows_two(rep, ledger, aux, *pair)
    return rep


# ---------------------------------------------------------------------------
# Second-derivative norms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class D2Brackets:
    """Bracketing of the second-derivative norm by per-axis matrix norms."""

    axis_norms: Tuple[float, float]
    lower: float
    upper: float
    sampled: float
    v_axis_norms: Optional[Tuple[float, float]]
    v_lower: Optional[float]
    v_upper: Optional[float]
    v_sampled: Optional[float]
    angle_grid: int


def _hessians(spec: MapSpec, p: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Hessians of the two components, assembled from the partial matrices."""
    dx, dy = spec.second_partials_at(p)
    h1 = np.array([dx[0], dy[0]])
    h2 = np.array([dx[1], dy[1]])
    return h1, h2


def second_derivative_norm(
    spec: MapSpec, p: np.ndarray, v: Optional[np.ndarray] = None, angle_grid: int = 720
) -> D2Brackets:
    """Bracket the bilinear second-derivative norm at p.

    Lower bracket: max over axes of the spectral norm of d_axis(DPhi);
    upper: sqrt(2) times that.  The sampled value scans unit-vector pairs
    on an angle_grid x angle_grid grid, independent of the closed-form SVD,
    and must land inside the bracket (up to grid resolution).
    """
    dx, dy = spec.second_partials_at(p)
    axis_norms = (linalg2.spectral_norm(dx), linalg2.spectral_norm(dy))
    lower = max(axis_norms)
    upper = SQRT2 * lower

    h1, h2 = _hessians(spec, p)
    phis = np.arange(angle_grid) * (math.pi / angle_grid)
    units = np.column_stack([np.sin(phis), np.cos(phis)])  # (n, 2)
    b1 = units @ h1 @ units.T
    b2 = units @ h2 @ units.T
    norms_sq = b1 * b1 + b2 * b2
    sampled = math.sqrt(float(norms_sq.max()))

    v_axis = v_lower = v_upper = v_sampled = None
    if v is not None:
        v = np.asarray(v, dtype=float)
        v_axis = (
            float(np.linalg.norm(dx @ v)),
            float(np.linalg.norm(dy @ v)),
        )
        v_lower = max(v_axis)
        v_upper = SQRT2 * v_lower
        bv1 = units @ h1 @ v
        bv2 = units @ h2 @ v
        v_sampled = math.sqrt(float((bv1 * bv1 + bv2 * bv2).max()))

    return D2Brackets(
        axis_norms=axis_norms,
        lower=lower,
        upper=upper,
        sampled=sampled,
        v_axis_norms=v_axis,
        v_lower=v_lower,
        v_upper=v_upper,
        v_sampled=v_sampled,
        angle_grid=angle_grid,
    )


def d2_operator_matrix(spec: MapSpec, p: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix of w -> D2Phi_p(v, w): columns are (d_axis DPhi) v."""
    dx, dy = spec.second_partials_at(p)
    return np.column_stack([dx @ v, dy @ v])


def d2_contraction_identity(
    spec: MapSpec, p: np.ndarray, v: np.ndarray, tol: float = 1e-10
) -> BoundReport:
    """Entrywise check that D2Phi(v, axis_k) equals (d_axis_k DPhi) v.

    The left side is assembled from the Hessian coordinate expansion, the
    right from the partial matrices; equality encodes symmetry of the
    supplied mixed partials.
    """
    h1, h2 = _hessians(spec, p)
    dx, dy = spec.second_partials_at(p)
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


def _power_norms(mats: np.ndarray, iters: int = 50, starts: int = 2, seed: int = 0) -> np.ndarray:
    """Operator 2-norms of a stack of matrices by batched power iteration."""
    rng = np.random.default_rng(seed)
    s, n = mats.shape[0], mats.shape[2]
    gram = np.einsum("sji,sjk->sik", mats, mats)
    best = np.zeros(s)
    for start in range(starts):
        v = np.ones((s, n)) if start == 0 else rng.standard_normal((s, n))
        v /= np.maximum(np.linalg.norm(v, axis=1, keepdims=True), 1e-300)
        for _ in range(iters):
            v = np.einsum("sik,sk->si", gram, v)
            v /= np.maximum(np.linalg.norm(v, axis=1, keepdims=True), 1e-300)
        best = np.maximum(best, np.linalg.norm(np.einsum("sik,sk->si", mats, v), axis=1))
    return best


def _power_norm(m: np.ndarray, iters: int = 50, starts: int = 2, seed: int = 0) -> float:
    return float(_power_norms(np.asarray(m, dtype=float)[None], iters, starts, seed)[0])


def _sampled_matrix_norm(m: np.ndarray, rng: np.random.Generator, samples: int) -> float:
    n = m.shape[1]
    pts = rng.standard_normal((samples, n))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts = np.vstack([pts, np.eye(n)])
    return float(np.linalg.norm(pts @ m.T, axis=1).max())


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
    with |A| taken as the power-iteration value, cross-checked against a
    sampled-sphere value.  For a bilinear map B (an (n, n, n) tensor) the
    analogues with basis vectors in one slot are checked; the full norm of
    B is a sampled estimate whose candidate set contains every basis-slice
    maximizer, so the lower comparisons cannot falsely fail.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    rep = BoundReport("bilinear_column_bounds", tol)

    if matrix is not None:
        a = np.asarray(matrix, dtype=float)
        n = a.shape[1]
        if n > 4:
            raise ValueError("dimension capped at 4")
        col_max = float(np.linalg.norm(a, axis=0).max())
        norm_power = _power_norm(a)
        norm_sampled = _sampled_matrix_norm(a, rng, samples)
        rep.context["matrix_norm_power"] = norm_power
        rep.context["matrix_norm_sampled"] = norm_sampled
        rep.add("matrix_norm_cross_check", (0,), abs(norm_power - norm_sampled), 0.02 * max(norm_power, 1e-300))
        rep.add("column_lower", (0,), col_max, norm_power)
        rep.add("column_upper", (0,), norm_power, math.sqrt(n) * col_max)

    if bilinear is not None:
        t = np.asarray(bilinear, dtype=float)
        n = t.shape[0]
        if n > 4:
            raise ValueError("dimension capped at 4")
        basis = np.eye(n)

        # candidate first arguments: both bases plus a seeded sphere sample;
        # the second slot is maximized exactly (power iteration), so the
        # estimate dominates every basis-slice value by construction
        cand = rng.standard_normal((samples, n))
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        cand = np.vstack([basis, cand])
        slot_mats = np.einsum("si,pij->spj", cand, t)
        slot_norms = _power_norms(slot_mats)
        second_mats = np.einsum("pij,kj->kpi", t, basis)
        second_slot = _power_norms(second_mats)
        full_norm = float(max(slot_norms.max(), second_slot.max()))
        rep.context["bilinear_norm_sampled"] = full_norm

        rep.add("bilinear_slice_lower", (0,), float(second_slot.max()), full_norm)
        rep.add(
            "bilinear_slice_upper",
            (0,),
            full_norm,
            math.sqrt(n) * float(second_slot.max()),
        )

        if v is not None:
            vv = np.asarray(v, dtype=float)
            mv = np.einsum("i,pij->pj", vv, t)
            norm_v = _power_norm(mv)
            per_basis = [float(np.linalg.norm(mv @ basis[k])) for k in range(n)]
            rep.add("bilinear_v_lower", (0,), max(per_basis), norm_v)
            rep.add("bilinear_v_upper", (0,), norm_v, math.sqrt(n) * max(per_basis))

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
        step = ScaledMatrix.from_matrix(coc.steps[j])
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
        step = ScaledMatrix.from_matrix(coc.steps[i])
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
    cert = check_quasi_hyperbolic(orbit, ledger)
    if not cert.verdict:
        i, name = cert.first_failure
        raise CertificateRequired(f"{name} fails at i={i}")
    if aux is None:
        aux = auxiliary_constants(ledger)
    spec = orbit.spec
    xi0 = orbit.points[0]
    k = orbit.k

    frame1 = hyperbolic_coordinates(orbit.cocycle, 1)
    d2e1 = d2_operator_matrix(spec, xi0, frame1.e)
    d2e1_norm = linalg2.spectral_norm(d2e1)
    dx, dy = orbit.step_second_partials[0]
    axis_e1 = (
        float(np.linalg.norm(dx @ frame1.e)),
        float(np.linalg.norm(dy @ frame1.e)),
    )

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
