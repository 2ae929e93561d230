"""Order-k hyperbolic coordinates: most contracted / most expanded unit directions.

The frame of order k at a point is the orthonormal pair {e, f} of right
singular directions of the k-step derivative: e maps to the minor semi-axis
of the image ellipse of the unit circle (most contracted), f to the major
one (most expanded).  The frame exists whenever the co-eccentricity
(co-norm over norm) is strictly below 1.

Sign convention: e is chosen with e_y > 0, or e_y = 0 and e_x > 0, and f is
e rotated by -pi/2.  Signs are only a labelling: ``bounds`` measures the
drift |e_k - e_i| up to sign, from the angle between the images of e_k and
f_i under DPhi^i, and never differences two frames.

Critical angles use the (sin t, cos t) parametrization of the unit circle.
For the derivative with entries m = [[Phi1_x, Phi1_y], [Phi2_x, Phi2_y]],
the angle 2t of the most expanded direction solves

    tan 2t = 2 (Phi1_x Phi1_y + Phi2_x Phi2_y)
             / ((Phi1_y^2 + Phi2_y^2) - (Phi1_x^2 + Phi2_x^2)),

evaluated with a two-argument arctangent so the maximizing root is picked
directly; the contracting angle sits a quarter turn away.

The grid oracle (``oracle_extremal_directions``) checks these closed forms
without the SVD: it maximizes and minimizes |M (sin t, cos t)|^2 over a
uniform angle grid.  It skips grid blocks whose mean-value enclosure,
widened by a floating-point error bound, shows that they cannot hold an
extremum, so it returns exactly what the full sweep returns.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple, Union

import numpy as np

from . import linalg2
from .cocycle import MatrixCocycle, OrbitSegment, ScaledMatrix, check_order, cocycle_of, float_array, is_int
from .errors import ConformalDegenerate, InvalidInput, NoHyperbolicCoordinates, ZeroMatrix

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


def frame_coecc(log_max: float, log_min: float) -> float:
    """exp(log_min - log_max), 0 for a singular product; NoHyperbolicCoordinates
    unless it is below 1 - EPS_COECC, as a frame needs."""
    coecc = float(np.exp(log_min - log_max))
    if coecc >= 1.0 - EPS_COECC:
        raise NoHyperbolicCoordinates(
            f"co-eccentricity {coecc} >= 1 - {EPS_COECC:g}: frame undefined"
        )
    return coecc


def _frame(k: int, e: np.ndarray, log_max: float, log_min: float) -> HyperbolicFrame:
    """Frame of order k from the signed contracted direction and the log singular values."""
    coecc = frame_coecc(log_max, log_min)
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
    iterative eigensolver); ZeroMatrix where the SVD reads a zero matrix,
    InvalidInput for a non-finite entry or log scale."""
    if not (np.isfinite(m.body).all() and math.isfinite(m.log_scale)):
        raise InvalidInput("matrix has a non-finite entry")
    s = linalg2.svd2_matrix(m.body)
    if s.smax == 0.0:
        raise ZeroMatrix("norms undefined for the zero matrix")
    log_min = np.log(s.smin) + m.log_scale if s.smin > 0.0 else float("-inf")
    return _frame(0, linalg2.canonical_sign(s.v_min), np.log(s.smax) + m.log_scale, log_min)


def hyperbolic_coordinates(
    source: Union[OrbitSegment, MatrixCocycle], k: int
) -> HyperbolicFrame:
    """Frame of order k along the orbit (1 <= k <= orbit length), read off
    the cocycle: the contracted direction of the closed-form SVD of the
    product, and the determinant-accumulated co-norm, which stays accurate
    long after direct extraction from the assembled product has cancelled."""
    coc = cocycle_of(source)
    check_order(k, 1, coc.k, "order")
    return _frame(k, coc.contracted[k].copy(), coc.log_norm[k], coc.log_conorm[k])


def frame_sequence(
    source: Union[OrbitSegment, MatrixCocycle], kmax: Optional[int] = None
) -> List[HyperbolicFrame]:
    """Frames of every order 1..kmax, kmax in 0..k by ``check_order`` (default k)."""
    coc = cocycle_of(source)
    kmax = coc.k if kmax is None else kmax
    check_order(kmax, 0, coc.k, "kmax")
    return [hyperbolic_coordinates(coc, i) for i in range(1, kmax + 1)]


@dataclass(frozen=True)
class CoeccValues:
    """The co-eccentricity computed three ways (they agree for invertible maps):

    |det| / norm^2,  conorm^2 / |det|,  conorm / norm.
    """

    from_det_over_norm2: Optional[float]
    from_conorm2_over_det: Optional[float]
    from_conorm_over_norm: float
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
    check_order(k, 1, coc.k, "order")
    m = coc.prefix(k)
    s = linalg2.svd2_matrix(m.body)
    det_body = abs(linalg2.det2(m.body))
    if det_body == 0.0 or s.smin == 0.0:
        return CoeccValues(None, None, 0.0, True)
    return CoeccValues(
        from_det_over_norm2=det_body / (s.smax * s.smax),
        from_conorm2_over_det=s.smin * s.smin / det_body,
        from_conorm_over_norm=s.smin / s.smax,
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
    """e and f of order k pushed forward i steps (orthogonal only at i == k);
    e by the cocycle's pull-back, f by its forward push."""
    coc = cocycle_of(source)
    frame = hyperbolic_coordinates(coc, k)
    check_order(i, 0, k, "pushforward step")
    e_dirs, e_logs = coc.contracted_images([k])
    (f_dir,), (f_log,) = coc.images(frame.f, [i])
    return PushedFrame(k=k, i=i, e_dir=e_dirs[0, i], e_log_norm=float(e_logs[0, i]), f_dir=f_dir,
                       f_log_norm=float(f_log))


@dataclass(frozen=True)
class OracleResult:
    """Brute-force extremal directions of theta -> |M (sin theta, cos theta)|."""

    theta_max: float
    theta_min: float
    norm_max: float
    norm_min: float
    grid_n: int


# Grid points per block of the oracle's block bounds.
_ORACLE_BLOCK = 256
# Each block is bounded about its centre point, its point 128 (or its last
# point, if it has fewer): no point of it is more than this many steps away.
_ORACLE_REACH = 128.0
# Grid points per pass of the first differences, which reuse one buffer.
_ORACLE_CHUNK = 64 * _ORACLE_BLOCK
# Allowance of the block bounds in units of sigma * (|g11| + |g12| + |g22|),
# plus an absolute term for products that underflow (derivation in
# ``oracle_extremal_directions``).
_ORACLE_ROUNDING = 16.0 * 2.0 ** -53
_ORACLE_UNDERFLOW = 2.0 ** -1070
# sigma * Gram sums above this could overflow in the bounds: every block is kept.
_ORACLE_GRAM_LIMIT = 2.0 ** 1020


class _BlockBounds(NamedTuple):
    """Per-block data of the oracle's mean-value bounds over nb blocks.

    centre_slope: (3, 2 nb); row k holds grid column k (sin^2, 2 sin cos,
    cos^2) at the centre of each block, then the midpoint of the range of
    its first differences in each block times _ORACLE_REACH.  reach: per
    column, the largest half-width of those ranges over the blocks, widened
    for rounding, times _ORACLE_REACH.  sigma: the largest |centre value|
    plus the largest |slope term| plus the largest reach, which bounds
    every |grid value|.
    """

    centre_slope: np.ndarray
    reach: Tuple[float, float, float]
    sigma: float


def _block_bounds(columns) -> _BlockBounds:
    """Centre values and first-difference ranges of each grid column per block."""
    grid_n = len(columns[0])
    starts = np.arange(0, grid_n, _ORACLE_BLOCK)
    nb, per_pass = len(starts), _ORACLE_CHUNK // _ORACLE_BLOCK
    diff = np.empty(min(grid_n, _ORACLE_CHUNK))
    dlo, dhi = np.empty(nb), np.empty(nb)
    centre_slope = np.empty((3, 2, nb))
    reach = []
    for x, (centre, slope) in zip(columns, centre_slope):
        for j in range(0, nb, per_pass):
            first = int(starts[j])
            d = diff[: min(_ORACLE_CHUNK, grid_n - first)]
            inner = min(len(d), grid_n - 1 - first)  # differences within the grid
            np.subtract(x[first + 1 : first + 1 + inner], x[first : first + inner], out=d[:inner])
            d[inner:] = d[inner - 1] if inner else 0.0  # a last block of one point needs none
            block = starts[j : j + per_pass] - first
            dlo[j : j + per_pass] = np.minimum.reduceat(d, block)
            dhi[j : j + per_pass] = np.maximum.reduceat(d, block)
        centre[:] = x[np.minimum(starts + (_ORACLE_BLOCK // 2 - 1), grid_n - 1)]
        np.add(dlo, dhi, out=slope)
        slope *= 0.5 * _ORACLE_REACH
        widest = float(np.max(dhi - dlo))
        largest = max(-float(np.min(dlo)), float(np.max(dhi)))
        reach.append((0.5 * widest + 8.0 * 2.0 ** -53 * largest) * _ORACLE_REACH)
    centre_max, slope_max = (
        max(-float(np.min(v)), float(np.max(v))) for v in centre_slope.swapaxes(0, 1)
    )
    sigma = centre_max + slope_max + max(reach)
    return _BlockBounds(centre_slope.reshape(3, -1), tuple(reach), sigma)


@functools.lru_cache(maxsize=1)  # keep one resolution resident
def _grid_basis(grid_n: int):
    """sin^2, 2 sin cos and cos^2 on the grid, and their per-block bound data."""
    # in place where an operand is dead: each fresh 8 MB array costs page faults
    theta = np.arange(grid_n, dtype=float)
    theta *= math.pi / grid_n
    s = np.sin(theta)
    c = np.cos(theta, out=theta)
    sc2 = 2.0 * s
    sc2 *= c
    columns = (np.multiply(s, s, out=s), sc2, np.multiply(c, c, out=c))
    return columns, _block_bounds(columns)


def _block_enclosures(
    g11: float, g12: float, g22: float, blocks: _BlockBounds
) -> Tuple[np.ndarray, np.ndarray, float]:
    """(lo, hi, tol): every swept value of f in block b lies in
    [lo[b] - tol, hi[b] + tol], where sigma G is at most _ORACLE_GRAM_LIMIT."""
    nb = blocks.centre_slope.shape[1] // 2
    values = np.array([g11, g12, g22]) @ blocks.centre_slope
    centre, slope = values[:nb], values[nb:]
    r11, r12, r22 = blocks.reach
    bound = np.abs(slope)
    bound += abs(g11) * r11 + abs(g12) * r12 + abs(g22) * r22
    tol = _ORACLE_ROUNDING * blocks.sigma * (abs(g11) + abs(g12) + abs(g22)) + _ORACLE_UNDERFLOW
    return centre - bound, centre + bound, tol


def _kept_runs(g11: float, g12: float, g22: float, blocks: _BlockBounds) -> List[Tuple[int, int]]:
    """Runs [first, last) of consecutive blocks that may hold the max or the min of f."""
    nb = blocks.centre_slope.shape[1] // 2
    if not (abs(g11) + abs(g12) + abs(g22)) * blocks.sigma <= _ORACLE_GRAM_LIMIT:
        return [(0, nb)]  # NaN, infinite or near overflow
    lo, hi, tol = _block_enclosures(g11, g12, g22, blocks)
    # negated prune tests, so that a NaN bound keeps its block
    keep = ~(hi + tol < lo.max() - tol) | ~(lo - tol > hi.min() + tol)
    edges = (np.flatnonzero(keep[1:] != keep[:-1]) + 1).tolist()
    if keep[0]:
        edges.insert(0, 0)
    if keep[-1]:
        edges.append(nb)
    return list(zip(edges[0::2], edges[1::2]))


def _sweep_extremes(
    g11: float, g12: float, g22: float, grid_n: int
) -> Tuple[int, int, float, float]:
    """(imax, imin, f[imax], f[imin]) of the squared image norm f on the grid."""
    (s2, sc2, c2), blocks = _grid_basis(grid_n)
    run_max: List[Tuple[int, float]] = []
    run_min: List[Tuple[int, float]] = []
    for first, last in _kept_runs(g11, g12, g22, blocks):
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


def oracle_extremal_directions(m: np.ndarray, grid_n: int) -> OracleResult:
    """Maximize/minimize the image norm over a uniform angle grid on [0, pi).

    Entirely independent of the closed-form SVD: the squared image norm
    f = g11 sin^2 + g12 (2 sin cos) + g22 cos^2 of the Gram entries is
    evaluated on grid points, and the returned angles are within pi/grid_n
    of the true extremal angles.  A grid_n that is not an int, is a bool or
    is below 4 is InvalidInput, and so is an ``m`` that is not a 2x2 array
    of finite numbers.

    Blocks of the grid that cannot hold an extremum are skipped; the result
    is that of the full sweep, index for index.

    Block bounds.  Write X for one of the stored grid columns (sin^2,
    2 sin cos, cos^2), g_X for its Gram entry, G = |g11| + |g12| + |g22|,
    u = 2^-53 and eta = 2^-1075, the largest error of a product that
    underflows.  Every point i of a block lies within T = 128 steps of the
    block's centre point c.  The computed first differences
    D_l = fl(X[l+1] - X[l]) of a block lie in [dlo, dhi]; the exact ones
    lie within u |D_l| of them (none underflows: nonzero grid values and
    their differences are far above 2^-1022).  With a = fl(dlo + dhi) / 2,
    every exact difference lies within (dhi - dlo) / 2 + 2u max(|dlo|,
    |dhi|) of a; h_X, the largest of these over the blocks, is stored
    rounded up (half the widest computed range plus 8u times the largest
    |D| covers the roundings).  X_i - X_c is a sum of |i - c| exact
    differences, so the exact value of f on the stored grid values of the
    block lies within T (|sum g_X a_X| + sum |g_X| h_X) of
    F = sum g_X X_c, the mean-value form.  Near an extremum
    sum g_X a_X ~ f' ~ 0, so the enclosure is second order in the block
    width: a few blocks survive, not some 80 around each extremum as with
    per-column interval ranges.  lo and hi are F minus and plus that bound.

    Allowance.  Let sigma be the largest |X_c| plus the largest T |a_X| plus
    the largest T h_X over the grid (stored with the block data; about
    1 + pi for grids of 256 points or more), so every |X_i| <= sigma.
    Three-term dot products are within 3u(1 + 3u) times the sum of their
    absolute terms, plus 3 eta, of their exact values in any summation
    order, FMA or not.  The matrix product that forms F and
    T sum g_X a_X and the sum of |g_X| T h_X thus err by at most
    3u sigma G + 9 eta together (to first order in u); the sum forming the
    bound and the sum forming lo or hi add two roundings, so each computed
    lo and hi is within 5u sigma G + 9 eta of its exact value.  Each swept
    f (three roundings) is within 3u sigma G + 3 eta of the exact value.
    The two comparison sides hi + tol and max(lo) - tol round by at most
    2u sigma G between them.  A block skipped for the maximum, hi + tol < max(lo) - tol, then
    holds only values strictly below one attained in the block with the
    largest lo as soon as 2 tol >= 2 (5 + 3) u sigma G + 2u sigma G
    + 24 eta, that is tol >= 9u sigma G + 12 eta.  tol = 16u sigma G
    + 2^-1070 covers this and the roundings of tol, G and sigma.  The
    minimum is the mirror image.  So the first occurrence of each extremum,
    ties included, lies in a kept block.  Kept blocks are evaluated with
    the same three statements as the full sweep, and the per-run extremes
    are combined by argmax/argmin in index order.  When sigma G is NaN,
    infinite or above 2^1020 every block is kept, which is the full sweep;
    below it nothing in the bounds overflows.
    """
    if not (is_int(grid_n) and grid_n >= 4):
        raise InvalidInput(f"grid_n must be an int >= 4, got {grid_n!r}")
    (a, b), (c, d) = float_array(m, "matrix", (2, 2)).tolist()
    if not all(map(math.isfinite, (a, b, c, d))):
        raise InvalidInput("matrix has a non-finite entry")
    imax, imin, fmax, fmin = _sweep_extremes(a * a + c * c, a * b + c * d, b * b + d * d, grid_n)
    step = math.pi / grid_n
    return OracleResult(
        theta_max=imax * step,
        theta_min=imin * step,
        norm_max=math.sqrt(max(fmax, 0.0)),
        norm_min=math.sqrt(max(fmin, 0.0)),
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
