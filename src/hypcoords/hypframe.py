"""Order-k hyperbolic coordinates: most contracted / most expanded unit directions.

The frame of order k at a point is the orthonormal pair {e, f} of right
singular directions of the k-step derivative: e maps to the minor semi-axis
of the image ellipse of the unit circle (most contracted), f to the major
one (most expanded).  The frame exists whenever the co-eccentricity
(co-norm over norm) is strictly below 1.

Sign convention: e is chosen with e_y > 0, or e_y = 0 and e_x > 0, and f is
e rotated by -pi/2.  Signs are only a labelling; helpers that difference or
compare frames align them first (``aligned_distance``).

Critical angles use the (sin t, cos t) parametrization of the unit circle.
For the derivative with entries m = [[Phi1_x, Phi1_y], [Phi2_x, Phi2_y]],
the angle 2t of the most expanded direction solves

    tan 2t = 2 (Phi1_x Phi1_y + Phi2_x Phi2_y)
             / ((Phi1_y^2 + Phi2_y^2) - (Phi1_x^2 + Phi2_x^2)),

evaluated with a two-argument arctangent so the maximizing root is picked
directly; the contracting angle sits a quarter turn away.

The grid oracle (``oracle_extremal_directions``) checks these closed forms
without the SVD: it maximizes and minimizes |M (sin t, cos t)|^2 over a
uniform angle grid.  It skips grid blocks whose interval enclosure,
widened by a floating-point error bound, shows that they cannot hold an
extremum, so it returns exactly what the full sweep returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from . import linalg2
from .cocycle import MatrixCocycle, OrbitSegment, ScaledMatrix, cocycle_of
from .errors import ConformalDegenerate, IndexOutOfRange, NoHyperbolicCoordinates

EPS_COECC = 1e-12  # below double discrimination of the two singular values
LOW_CONFIDENCE_COECC = 0.999  # angle ill-conditioned beyond this


@dataclass(frozen=True)
class HyperbolicFrame:
    """Order-k frame {e, f} with its log singular values.

    coecc = exp(log_sigma_min - log_sigma_max) in (0, 1); low_confidence
    marks the near-conformal band where the angle is ill-conditioned.
    """

    k: int
    e: np.ndarray
    f: np.ndarray
    log_sigma_max: float
    log_sigma_min: float
    coecc: float
    theta: float
    low_confidence: bool


def canonical_sign(e: np.ndarray) -> np.ndarray:
    """Resolve the +-e ambiguity of one vector, or of each row of an (n, 2)
    array: e_y > 0, or e_y == 0 and e_x > 0."""
    x, y = e[..., 0], e[..., 1]
    return np.where(((y < 0.0) | ((y == 0.0) & (x < 0.0)))[..., None], -e, e)


def aligned_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Distance between unit vectors defined up to sign."""
    return min(
        float(np.linalg.norm(u - v)),
        float(np.linalg.norm(u + v)),
    )


def frame_coecc(log_max: float, log_min: float) -> float:
    """exp(log_min - log_max), 0 for a singular product; NoHyperbolicCoordinates
    unless it is below 1 - EPS_COECC, as a frame needs."""
    coecc = math.exp(log_min - log_max)
    if coecc >= 1.0 - EPS_COECC:
        raise NoHyperbolicCoordinates(
            f"co-eccentricity {coecc} >= 1 - {EPS_COECC:g}: frame undefined"
        )
    return coecc


def _frame(k: int, e_dir: np.ndarray, log_max: float, log_min: float) -> HyperbolicFrame:
    """Frame of order k from the contracted direction and the log singular values."""
    coecc = frame_coecc(log_max, log_min)
    e = canonical_sign(e_dir)
    f = linalg2.rotate_quarter_cw(e)
    return HyperbolicFrame(
        k=k,
        e=e,
        f=f,
        log_sigma_max=log_max,
        log_sigma_min=log_min,
        coecc=coecc,
        theta=linalg2.direction_to_sincos_angle(f),
        low_confidence=coecc > LOW_CONFIDENCE_COECC,
    )


def frame_from_scaled(m: ScaledMatrix) -> HyperbolicFrame:
    """Frame of one scaled matrix, as order 0, from its closed-form SVD (no
    iterative eigensolver)."""
    s = linalg2.svd2_matrix(m.body)
    log_min = math.log(s.smin) + m.log_scale if s.smin > 0.0 else float("-inf")
    return _frame(0, s.v_min, math.log(s.smax) + m.log_scale, log_min)


def hyperbolic_coordinates(
    source: Union[OrbitSegment, MatrixCocycle], k: int
) -> HyperbolicFrame:
    """Frame of order k along the orbit (1 <= k <= orbit length), read off
    the cocycle: the contracted direction of the closed-form SVD of the
    product, and the determinant-accumulated co-norm, which stays accurate
    long after direct extraction from the assembled product has cancelled."""
    coc = cocycle_of(source)
    if not 1 <= k <= coc.k:
        raise IndexOutOfRange(f"order {k} outside 1..{coc.k}")
    return _frame(k, coc.contracted[k], coc.log_norm[k], coc.log_conorm[k])


def frame_sequence(
    source: Union[OrbitSegment, MatrixCocycle], kmax: Optional[int] = None
) -> List[HyperbolicFrame]:
    """Frames of every order 1..kmax (defaults to the full length)."""
    coc = cocycle_of(source)
    kmax = coc.k if kmax is None else kmax
    return [hyperbolic_coordinates(coc, i) for i in range(1, kmax + 1)]


@dataclass(frozen=True)
class CoeccValues:
    """The co-eccentricity computed three ways (they agree for invertible maps):

    |det| / norm^2,  conorm^2 / |det|,  conorm / norm.
    """

    from_det_over_norm2: Optional[float]
    from_conorm2_over_det: Optional[float]
    from_conorm_over_norm: float
    log_value: float
    singular: bool


def coeccentricity(source: Union[OrbitSegment, MatrixCocycle], k: int) -> CoeccValues:
    """Three independent evaluations of the order-k co-eccentricity.

    The determinant comes from the entrywise cross product of the scaled
    body, the singular values from the closed-form SVD; the three routes
    agree whenever the contracted direction is resolvable at working
    precision.  A singular product only supports the ratio form (reported
    as 0); the other two are flagged unavailable.
    """
    coc = cocycle_of(source)
    if not 1 <= k <= coc.k:
        raise IndexOutOfRange(f"order {k} outside 1..{coc.k}")
    m = coc.prefix(k)
    s = linalg2.svd2_matrix(m.body)
    det_body = abs(linalg2.det2(m.body))
    if det_body == 0.0 or s.smin == 0.0:
        return CoeccValues(None, None, 0.0, float("-inf"), True)
    return CoeccValues(
        from_det_over_norm2=det_body / (s.smax * s.smax),
        from_conorm2_over_det=s.smin * s.smin / det_body,
        from_conorm_over_norm=s.smin / s.smax,
        log_value=math.log(s.smin) - math.log(s.smax),
        singular=False,
    )


@dataclass(frozen=True)
class CriticalAngles:
    """Critical angles of the norm over the unit circle, (sin t, cos t) form."""

    theta_contract: float
    theta_expand: float


def angle_theta(px1: float, px2: float, py1: float, py2: float) -> CriticalAngles:
    """Critical angles from the four first partials (x1, x2, y1, y2 order).

    Arguments are d_x Phi1, d_x Phi2, d_y Phi1, d_y Phi2.  Raises
    ConformalDegenerate when numerator and denominator both vanish
    (every direction is critical).
    """
    num = 2.0 * (px1 * py1 + px2 * py2)
    den = (py1 * py1 + py2 * py2) - (px1 * px1 + px2 * px2)
    if abs(num) < 1e-14 and abs(den) < 1e-14:
        raise ConformalDegenerate("conformal derivative: every direction is critical")
    theta_expand = 0.5 * math.atan2(num, den)
    if theta_expand < 0.0:
        theta_expand += math.pi
    theta_contract = theta_expand + 0.5 * math.pi
    if theta_contract >= math.pi:
        theta_contract -= math.pi
    return CriticalAngles(theta_contract=theta_contract, theta_expand=theta_expand)


@dataclass(frozen=True)
class PushedFrame:
    """Images of the order-k frame under the first i steps, as (direction, log norm)."""

    k: int
    i: int
    e_dir: np.ndarray
    e_log_norm: float
    f_dir: np.ndarray
    f_log_norm: float


def pushforward_frames(
    source: Union[OrbitSegment, MatrixCocycle], k: int, i: int
) -> PushedFrame:
    """e and f of order k pushed forward i steps (orthogonal only at i == k)."""
    coc = cocycle_of(source)
    if not 0 <= i <= k:
        raise IndexOutOfRange(f"pushforward step {i} outside 0..{k}")
    frame = hyperbolic_coordinates(coc, k)
    (e_dir, f_dir), (e_log, f_log) = coc.images(np.stack((frame.e, frame.f)), [i, i])
    return PushedFrame(k=k, i=i, e_dir=e_dir, e_log_norm=float(e_log), f_dir=f_dir,
                       f_log_norm=float(f_log))


@dataclass(frozen=True)
class OracleResult:
    """Brute-force extremal directions of theta -> |M (sin theta, cos theta)|."""

    theta_max: float
    theta_min: float
    norm_max: float
    norm_min: float
    flat: bool
    grid_n: int


_grid_cache: dict = {}

# Grid points per block of the oracle's block ranges.
_ORACLE_BLOCK = 256
# Relative rounding allowance of the block bounds, in units of 2^-53 times
# |g11| + |g12| + |g22|: f and each bound carry at most three roundings of
# that size, and the two comparisons one more each.
_ORACLE_ROUNDING = 16.0 * 2.0 ** -53
# Absolute allowance for products that underflow (at most 2^-1075 each).
_ORACLE_UNDERFLOW = 2.0 ** -1070
# Gram sums above this could overflow in f or its bounds: every block is kept.
_ORACLE_GRAM_LIMIT = 2.0 ** 1020


def _grid_basis(grid_n: int):
    """sin^2, 2 sin cos and cos^2 on the grid, and their (min, max) per block."""
    cached = _grid_cache.get(grid_n)
    if cached is None:
        # in place where an operand is dead: each fresh 8 MB array costs page faults
        theta = np.arange(grid_n, dtype=float)
        theta *= math.pi / grid_n
        s = np.sin(theta)
        c = np.cos(theta, out=theta)
        sc2 = 2.0 * s
        sc2 *= c
        columns = (np.multiply(s, s, out=s), sc2, np.multiply(c, c, out=c))
        starts = np.arange(0, grid_n, _ORACLE_BLOCK)
        ranges = tuple(
            (np.minimum.reduceat(w, starts), np.maximum.reduceat(w, starts)) for w in columns
        )
        cached = (columns, ranges)
        _grid_cache.clear()  # keep at most one resolution resident
        _grid_cache[grid_n] = cached
    return cached


def _kept_runs(g11: float, g12: float, g22: float, ranges) -> List[Tuple[int, int]]:
    """Runs [first, last) of consecutive blocks that may hold the max or the min of f."""
    (s2lo, s2hi), (sc2lo, sc2hi), (c2lo, c2hi) = ranges
    gram_sum = abs(g11) + abs(g12) + abs(g22)
    if not gram_sum <= _ORACLE_GRAM_LIMIT:  # NaN, infinite or near overflow
        return [(0, len(s2lo))]
    # g11 and g22 are sums of squares, so only the sign of g12 picks an end
    sc_lo, sc_hi = (sc2lo, sc2hi) if g12 >= 0.0 else (sc2hi, sc2lo)
    lo = g11 * s2lo + g12 * sc_lo + g22 * c2lo
    hi = g11 * s2hi + g12 * sc_hi + g22 * c2hi
    tol = _ORACLE_ROUNDING * gram_sum + _ORACLE_UNDERFLOW
    # negated prune tests, so that a NaN bound keeps its block
    keep = ~(hi + tol < np.max(lo) - tol) | ~(lo - tol > np.min(hi) + tol)
    edges = np.flatnonzero(np.diff(keep, prepend=False, append=False))
    return list(zip(edges[0::2].tolist(), edges[1::2].tolist()))


def _sweep_extremes(
    g11: float, g12: float, g22: float, grid_n: int
) -> Tuple[int, int, float, float]:
    """(imax, imin, f[imax], f[imin]) of the squared image norm f on the grid."""
    (s2, sc2, c2), ranges = _grid_basis(grid_n)
    run_max: List[Tuple[int, float]] = []
    run_min: List[Tuple[int, float]] = []
    for first, last in _kept_runs(g11, g12, g22, ranges):
        lo, hi = first * _ORACLE_BLOCK, min(last * _ORACLE_BLOCK, grid_n)
        f = g11 * s2[lo:hi]
        f += g12 * sc2[lo:hi]
        f += g22 * c2[lo:hi]
        i, j = int(np.argmax(f)), int(np.argmin(f))
        run_max.append((lo + i, float(f[i])))
        run_min.append((lo + j, float(f[j])))
    imax, fmax = run_max[int(np.argmax([v for _, v in run_max]))]
    imin, fmin = run_min[int(np.argmin([v for _, v in run_min]))]
    return imax, imin, fmax, fmin


def oracle_extremal_directions(
    m: Union[ScaledMatrix, np.ndarray], grid_n: int
) -> OracleResult:
    """Maximize/minimize the image norm over a uniform angle grid on [0, pi).

    Entirely independent of the closed-form SVD: the squared image norm
    f = g11 sin^2 + g12 (2 sin cos) + g22 cos^2 of the Gram entries is
    evaluated on grid points, and the returned angles are within pi/grid_n
    of the true extremal angles.

    Blocks of the grid that cannot hold an extremum are skipped; the
    result is that of the full sweep, index for index.  Interval
    arithmetic over the cached per-block ranges of the three grid columns
    encloses the exact value of f on the stored grid values of a block in
    [lo, hi] (Moore's enclosure).  Computed f and computed bounds each sit
    within three roundings, at most 3 * 2^-53 (|g11| + |g12| + |g22|) plus
    underflow, of those exact values, and the allowance tol covers both
    plus the rounding of the comparisons.  A block is skipped for the
    maximum only if hi + tol < max(lo) - tol, and then every value in it
    is strictly below a value attained in the block with the largest lo;
    the minimum is the mirror image.  So the first occurrence of each
    extremum, ties included, lies in a kept block.  Kept blocks are
    evaluated with the same three statements as the full sweep, and the
    per-run extremes are combined by argmax/argmin in index order.  Gram
    sums that are NaN, infinite or near overflow keep every block, which
    is the full sweep.
    """
    if grid_n < 4:
        raise ValueError("grid_n must be >= 4")
    if isinstance(m, ScaledMatrix):
        body, log_scale = m.body, m.log_scale
    else:
        body, log_scale = np.asarray(m, dtype=float), 0.0
    a, b = float(body[0, 0]), float(body[0, 1])
    c, d = float(body[1, 0]), float(body[1, 1])
    imax, imin, fmax, fmin = _sweep_extremes(a * a + c * c, a * b + c * d, b * b + d * d, grid_n)
    step = math.pi / grid_n
    scale = math.exp(log_scale)
    return OracleResult(
        theta_max=imax * step,
        theta_min=imin * step,
        norm_max=math.sqrt(max(fmax, 0.0)) * scale,
        norm_min=math.sqrt(max(fmin, 0.0)) * scale,
        flat=(fmax - fmin) <= 1e-12 * max(fmax, 1e-300),
        grid_n=grid_n,
    )


def diagonal_form_residuals(
    source: Union[OrbitSegment, MatrixCocycle], k: int
) -> Tuple[float, float]:
    """Express the k-step derivative in the frame bases and measure diagonality.

    In the input basis {f, e} and the normalized output basis {f_k, e_k} the
    matrix must be diag(sigma_max, sigma_min).  Returns (max off-diagonal
    relative to sigma_max, max relative diagonal error).
    """
    coc = cocycle_of(source)
    frame = hyperbolic_coordinates(coc, k)
    pushed = pushforward_frames(coc, k, k)
    m = coc.prefix(k)
    basis_in = np.column_stack([frame.f, frame.e])
    basis_out = np.column_stack([pushed.f_dir, pushed.e_dir])
    rep = basis_out.T @ m.body @ basis_in  # representation in body scale
    smax_body = math.exp(frame.log_sigma_max - m.log_scale)
    smin_body = math.exp(frame.log_sigma_min - m.log_scale)
    off = max(abs(float(rep[0, 1])), abs(float(rep[1, 0]))) / smax_body
    diag_err = max(
        abs(abs(float(rep[0, 0])) - smax_body) / smax_body,
        abs(abs(float(rep[1, 1])) - smin_body) / max(smin_body, 1e-300),
    )
    return off, diag_err
