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
uniform angle grid, for one matrix or a stack of them.  It skips grid
blocks, at three levels of block size, whose mean-value enclosure, widened
by a floating-point error bound, shows that they cannot hold an extremum,
so it returns exactly what the full sweep returns.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from . import linalg2
from .cocycle import (MatrixCocycle, OrbitSegment, ScaledMatrix, check_order, cocycle_of, float_array, is_int,
                      normalize_stack)
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


def frame_directions(ms: np.ndarray) -> Tuple[np.ndarray, List[float]]:
    """(e, theta) of ``frame_from_scaled(ScaledMatrix.from_matrix(m))`` for
    each matrix m of an (n, 2, 2) stack: e as an (n, 2) array, theta as a
    list.  The first matrix that call refuses raises its error here."""
    bodies, log_scales, peak = normalize_stack(ms, 0.0)
    finite = np.isfinite(peak)
    bodies[~finite] = 0.0
    s = linalg2.svd2_closed(bodies[:, 0, 0], bodies[:, 0, 1], bodies[:, 1, 0], bodies[:, 1, 1])
    with np.errstate(divide="ignore", invalid="ignore"):  # the log and ratio of a zero matrix
        log_max = np.log(s.smax) + log_scales
        log_min = np.where(s.smin > 0.0, np.log(s.smin) + log_scales, -np.inf)
        coecc = np.exp(log_min - log_max)
    refused = ~finite | (s.smax == 0.0) | (coecc >= 1.0 - EPS_COECC)
    if refused.any():
        i = int(np.argmax(refused))
        if not finite[i]:
            raise InvalidInput("matrix has a non-finite entry")
        if s.smax[i] == 0.0:
            raise ZeroMatrix("norms undefined for the zero matrix")
        frame_coecc(float(log_max[i]), float(log_min[i]))
    e = linalg2.canonical_sign(s.v_min)
    return e, [linalg2.direction_to_sincos_angle(f) for f in linalg2.rotate_quarter_cw(e).tolist()]


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
    """Brute-force extremal directions of theta -> |M (sin theta, cos theta)|:
    floats for one matrix, arrays over a stack of matrices."""

    theta_max: Union[float, np.ndarray]
    theta_min: Union[float, np.ndarray]
    norm_max: Union[float, np.ndarray]
    norm_min: Union[float, np.ndarray]
    grid_n: int


# Grid points per block of the finest level of the oracle's block bounds.
_ORACLE_BLOCK = 16
# Blocks per block of the level above, and levels: blocks of 4,096, 256
# and 16 grid points.
_ORACLE_FANOUT = 16
_ORACLE_LEVELS = 3
# Grid points per pass of the first differences, which reuse one buffer.
_ORACLE_CHUNK = 2**14
# Most blocks bounded, or swept, per pass of the prune, which bounds its
# temporaries where every block is kept.
_ORACLE_PASS = 2**15
# Allowance of the block bounds in units of sigma * (|g11| + |g12| + |g22|),
# plus an absolute term for products that underflow (derivation in
# ``oracle_extremal_directions``).
_ORACLE_ROUNDING = 16.0 * 2.0 ** -53
_ORACLE_UNDERFLOW = 2.0 ** -1070
# sigma * Gram sums above this could overflow in the bounds: every block is kept.
_ORACLE_GRAM_LIMIT = 2.0 ** 1020


class _BlockBounds(NamedTuple):
    """Data of the oracle's mean-value bounds over one level of blocks.

    centre_slope: (groups, 3, 2 w), the blocks in groups of w; row k of a
    group holds grid column k (sin^2, 2 sin cos, cos^2) at the centre point
    of each of its blocks, then the midpoint of the range of its first
    differences in each block times the reach T, half the block size.  The
    top level is one group; every lower level has one group of 16 per block
    of the level above, its children, the last padded with copies of the
    grid's last block.  reach: per column, the largest half-width of those
    ranges over the blocks, widened for rounding, times T.  sigma: the
    largest |centre value| plus the largest |slope term| plus the largest
    reach, which bounds every |grid value|.  count: the number of blocks.
    """

    centre_slope: np.ndarray
    reach: np.ndarray
    sigma: float
    count: int


def _level(columns, size: int, dlo: np.ndarray, dhi: np.ndarray, width: int) -> _BlockBounds:
    """Bound data of the blocks of ``size`` grid points, in groups of
    ``width``, from their first-difference ranges, (3, blocks) each."""
    steps = size // 2  # T: no point of a block is further from its centre point
    count = dlo.shape[1]
    groups = -(-count // width)
    # the blocks of each group, the last repeated into the padding
    at = np.minimum(np.arange(groups * width), count - 1)
    centre = np.stack([x[np.minimum(at * size + (steps - 1), len(x) - 1)] for x in columns])
    slope = dlo[:, at] + dhi[:, at]
    slope *= 0.5 * steps
    largest = np.maximum(-dlo.min(axis=1), dhi.max(axis=1))
    reach = (0.5 * (dhi - dlo).max(axis=1) + 8.0 * 2.0 ** -53 * largest) * steps
    sigma = float(np.abs(centre).max() + np.abs(slope).max() + reach.max())
    layout = np.empty((groups, 3, 2, width))
    for half, v in enumerate((centre, slope)):
        layout[:, :, half] = v.reshape(3, groups, width).transpose(1, 0, 2)
    return _BlockBounds(layout.reshape(groups, 3, 2 * width), reach, sigma, count)


def _block_bounds(columns) -> List[_BlockBounds]:
    """Bound data of every level of the grid columns, the top level first,
    from one pass of first differences per column: a block's range is the
    union of the ranges of its children."""
    grid_n = len(columns[0])
    starts = np.arange(0, grid_n, _ORACLE_BLOCK)
    nb, per_pass = len(starts), _ORACLE_CHUNK // _ORACLE_BLOCK
    diff = np.empty(min(nb * _ORACLE_BLOCK, _ORACLE_CHUNK))
    dlo, dhi = np.empty((3, nb)), np.empty((3, nb))
    for x, x_lo, x_hi in zip(columns, dlo, dhi):
        for j in range(0, nb, per_pass):
            first, blocks = int(starts[j]), min(per_pass, nb - j)
            d = diff[: blocks * _ORACLE_BLOCK]
            inner = min(len(d), grid_n - 1 - first)  # differences within the grid
            np.subtract(x[first + 1 : first + 1 + inner], x[first : first + inner], out=d[:inner])
            # a short last block repeats its last difference; one of one point needs none
            d[inner:] = d[inner - 1] if inner else 0.0
            lo = hi = d
            while len(lo) > blocks:  # pairwise halvings, down to one range per block
                lo, hi = np.minimum(lo[0::2], lo[1::2]), np.maximum(hi[0::2], hi[1::2])
            x_lo[j : j + blocks], x_hi[j : j + blocks] = lo, hi
    levels = []
    for depth in range(_ORACLE_LEVELS):
        if depth:
            parents = np.arange(0, dlo.shape[1], _ORACLE_FANOUT)
            dlo, dhi = np.minimum.reduceat(dlo, parents, axis=1), np.maximum.reduceat(dhi, parents, axis=1)
        top = depth == _ORACLE_LEVELS - 1
        levels.append(_level(columns, _ORACLE_BLOCK * _ORACLE_FANOUT**depth, dlo, dhi,
                             dlo.shape[1] if top else _ORACLE_FANOUT))
    return levels[::-1]


@functools.lru_cache(maxsize=1)  # keep one resolution resident
def _grid_basis(grid_n: int):
    """sin^2, 2 sin cos and cos^2 on the grid, and the block bound data of every level, the top first."""
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
    gram: np.ndarray, values: np.ndarray, level: _BlockBounds
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lo, hi, tol) of w blocks of a level for each row of gram, (n, 3),
    from ``values``, (n, 2 w), the row times the blocks' centre and slope
    data, which it overwrites: every swept value of f in block b lies in
    [lo[i, b] - tol[i], hi[i, b] + tol[i]], where sigma G is at most
    _ORACLE_GRAM_LIMIT."""
    size = np.abs(gram)
    width = values.shape[1] // 2
    centre, bound = values[:, :width], values[:, width:]
    np.abs(bound, out=bound)
    bound += (size @ level.reach)[:, None]
    return centre - bound, centre + bound, _ORACLE_ROUNDING * level.sigma * size.sum(axis=1) + _ORACLE_UNDERFLOW


def _may_hold_extremum(lo, hi, tol, lo_max, hi_min) -> np.ndarray:
    """The blocks, (pairs, w), that the best lower and upper bounds of their
    row, lo_max and hi_min (pairs,), do not rule out, from hi < lo_max - 2 tol
    and lo > hi_min + 2 tol, which it negates, so that a NaN bound keeps its
    block; each threshold takes two roundings."""
    return ~((hi < (lo_max - tol - tol)[:, None]) & (lo > (hi_min + tol + tol)[:, None]))


def _segments(row: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """First position and length of each run of equal values of ``row``."""
    edge = np.empty(len(row) + 1, dtype=bool)
    edge[0] = edge[-1] = True
    np.not_equal(row[1:], row[:-1], out=edge[1:-1])
    bounds = np.flatnonzero(edge)
    return bounds[:-1], bounds[1:] - bounds[:-1]


def _kept_children(gram: np.ndarray, row: np.ndarray, group: np.ndarray,
                   level: _BlockBounds) -> Tuple[np.ndarray, np.ndarray]:
    """(row, block) of the blocks of ``level`` in the groups ``group`` of the
    rows ``row`` of gram, in index order, that may hold the max or the min
    of f: each is compared with the blocks of its row bounded here."""
    paired = gram[row]
    layout = level.centre_slope
    values = np.matmul(paired[:, None, :], layout if len(layout) == 1 else layout[group])[:, 0]
    lo, hi, tol = _block_enclosures(paired, values, level)
    width = lo.shape[1]
    first, length = _segments(row)
    lo_max = np.repeat(np.maximum.reduceat(lo.reshape(-1), first * width), length)
    hi_min = np.repeat(np.minimum.reduceat(hi.reshape(-1), first * width), length)
    pair, column = np.divmod(np.flatnonzero(_may_hold_extremum(lo, hi, tol, lo_max, hi_min)), width)
    block = group[pair] * width + column
    real = block < level.count  # not the padding
    return row[pair[real]], block[real]


def _kept_blocks(gram: np.ndarray, row: np.ndarray, group: np.ndarray, levels) -> Iterator[Tuple[np.ndarray, ...]]:
    """(row, block) of the finest blocks that may hold the max or the min of
    f in the groups ``group`` of ``levels[0]`` (the children of kept blocks)
    in the rows ``row`` of gram, (n, 3), in index order, in passes of at
    most _ORACLE_PASS blocks: each pass of groups, then their children."""
    level, *lower = levels
    step = _ORACLE_PASS // _ORACLE_FANOUT
    for i in range(0, len(row), step):
        kept = _kept_children(gram, row[i : i + step], group[i : i + step], level)
        yield from _kept_blocks(gram, *kept, lower) if lower else [kept]


def _sweep_extremes(gram: np.ndarray, grid_n: int) -> Tuple[np.ndarray, ...]:
    """(imax, imin, fmax, fmin): for each row (g11, g12, g22) of gram, (n, 3),
    the first index of the max and of the min of the squared image norm f
    on the grid, and f there, as arrays."""
    (s2, sc2, c2), (top, *lower) = _grid_basis(grid_n)
    with np.errstate(over="ignore"):
        size = np.abs(gram).sum(axis=1) * max(level.sigma for level in (top, *lower))
    bounded = np.flatnonzero(size <= _ORACLE_GRAM_LIMIT)
    n = len(gram)
    imax, imin, fmax, fmin = np.zeros(n, np.intp), np.zeros(n, np.intp), np.full(n, -np.inf), np.full(n, np.inf)
    whole = [np.flatnonzero(~(size <= _ORACLE_GRAM_LIMIT))]  # NaN, infinite or near overflow
    step = max(1, _ORACLE_PASS // top.count)
    for i in range(0, len(bounded), step):
        rows = bounded[i : i + step]
        top_row, top_block = _kept_children(gram, rows, np.zeros_like(rows), top)
        first, length = _segments(top_row)
        # a row that keeps most top blocks is nearly flat to the bounds: its
        # full sweep reads the grid in order, faster than gathered blocks
        flat = length > max(top.count // 2, _ORACLE_FANOUT)
        whole.append(top_row[first[flat]])
        pruned = np.repeat(~flat, length)
        for row, block in _kept_blocks(gram, top_row[pruned], top_block[pruned], lower):
            g = gram[row]
            # the three statements of the full sweep, as products of the same
            # factors, on the kept blocks of every row, one block per row of
            # at; a last block short of 16 points repeats the grid's last point
            at = block[:, None] * _ORACLE_BLOCK + np.arange(_ORACLE_BLOCK)
            np.minimum(at, grid_n - 1, out=at)
            f = s2[at] * g[:, :1]
            f += sc2[at] * g[:, 1:2]
            f += c2[at] * g[:, 2:]
            # per row, the extremum and the first point that attains it (f
            # holds no NaN where the bounds are finite); a later pass wins
            # only with a larger max (smaller min)
            first, length = _segments(row)
            owner, starts = row[first], first * _ORACLE_BLOCK
            for best_i, best_f, extreme, better in ((imax, fmax, np.maximum, np.greater),
                                                    (imin, fmin, np.minimum, np.less)):
                per_row = extreme.reduceat(f.reshape(-1), starts)
                hits = np.flatnonzero(f == np.repeat(per_row, length)[:, None])
                hit = hits[_segments(np.searchsorted(starts, hits, side="right"))[0]]  # the first of each row
                update = better(per_row, best_f[owner])
                target = owner[update]
                best_f[target] = per_row[update]
                best_i[target] = at.reshape(-1)[hit[update]]
    for row in np.concatenate(whole).tolist():
        g11, g12, g22 = gram[row].tolist()
        f = g11 * s2
        f += g12 * sc2
        f += g22 * c2
        imax[row], imin[row] = f.argmax(), f.argmin()
        fmax[row], fmin[row] = f[imax[row]], f[imin[row]]
    return imax, imin, fmax, fmin


def oracle_extremal_directions(m, grid_n: int) -> OracleResult:
    """Maximize/minimize the image norm over a uniform angle grid on [0, pi),
    for one 2x2 matrix (float fields) or each matrix of an (n, 2, 2) stack
    (array fields); one matrix is the stack of one.

    Entirely independent of the closed-form SVD: the squared image norm
    f = g11 sin^2 + g12 (2 sin cos) + g22 cos^2 of the Gram entries is
    evaluated on grid points, and the returned angles are within pi/grid_n
    of the true extremal angles.  A grid_n that is not an int, is a bool or
    is below 4 is InvalidInput, and so is an ``m`` that is not a 2x2 array
    or a stack of them, or that holds a number that is not finite.

    Blocks of the grid that cannot hold an extremum are skipped; the result
    is that of the full sweep, index for index.  The prune has three
    levels: blocks of 4,096 points, bounded for the whole stack at once,
    then the 16 blocks of 256 points inside each one kept, then the 16
    blocks of 16 points inside each of those kept.  The kept 16-point
    blocks of every matrix are swept in one gathered array pass.

    Block bounds.  Write X for one of the stored grid columns (sin^2,
    2 sin cos, cos^2), g_X for its Gram entry, G = |g11| + |g12| + |g22|,
    u = 2^-53 and eta = 2^-1075, the largest error of a product that
    underflows.  At any level, every point i of a block lies within T
    steps of the block's centre point c, T half the block size (2,048, 128
    or 8).  The computed first differences D_l = fl(X[l+1] - X[l]) of a
    block lie in [dlo, dhi] (above the finest level, the least dlo and the
    largest dhi of its children); the exact ones lie within u |D_l| of them
    (none underflows: nonzero grid values and their differences are far
    above 2^-1022).  With a = fl(dlo + dhi) / 2, every exact difference lies
    within (dhi - dlo) / 2 + 2u max(|dlo|, |dhi|) of a; h_X, the largest of
    these over the blocks of a level, is stored rounded up (half the widest
    computed range plus 8u times the largest |D| covers the roundings).
    X_i - X_c is a sum of |i - c| exact differences, so the exact value of f
    on the stored grid values of the block lies within
    T (|sum g_X a_X| + sum |g_X| h_X) of F = sum g_X X_c, the mean-value
    form.  Near an extremum sum g_X a_X ~ f' ~ 0, so the enclosure is second
    order in the block width: a few blocks survive at each level, not some
    80 around each extremum as with per-column interval ranges.  lo and hi
    are F minus and plus that bound.

    Allowance.  Let sigma be the largest |X_c| plus the largest T |a_X| plus
    the largest T h_X over the blocks of a level (stored with its block
    data), so every |X_i| <= sigma.  Three-term dot products are within
    3u(1 + 3u) times the sum of their absolute terms, plus 3 eta, of their
    exact values in any summation order, FMA or not.  The matrix product
    that forms F and T sum g_X a_X and the sum of |g_X| T h_X thus err by
    at most 3u sigma G + 9 eta together (to first order in u); the sum
    forming the bound and the sum forming lo or hi add two roundings, so
    each computed lo and hi is within 5u sigma G + 9 eta of its exact value.
    Each swept f (three roundings) is within 3u sigma G + 3 eta of the
    exact value.  The threshold max(lo) - 2 tol, formed in two roundings,
    errs by at most 2u sigma G.  A block skipped for the maximum,
    hi < max(lo) - 2 tol with the max over any blocks of the row, then
    holds only values strictly below one attained in the block with the
    largest lo as soon as 2 tol >= 2 (5 + 3) u sigma G + 2u sigma G
    + 24 eta, that is tol >= 9u sigma G + 12 eta.  tol = 16u sigma G
    + 2^-1070, with the sigma of the level, covers this and the roundings
    of tol, G and sigma.  The minimum is the mirror image.  Each level
    compares a block with the blocks of its row bounded in the same pass,
    so the first occurrence of each extremum, ties included, lies in a kept
    16-point block.  Kept blocks are evaluated with the same three products
    and sums as the full sweep, and each row takes the first index of its
    extremum over them.  When sigma G is NaN, infinite or above 2^1020 for
    the largest sigma of the levels, nothing is pruned: the row is swept
    whole, as is a row that keeps more than half of its top blocks (and
    more than 16), which a gather would only slow; below the limit nothing
    in the bounds overflows.
    """
    if not (is_int(grid_n) and grid_n >= 4):
        raise InvalidInput(f"grid_n must be an int >= 4, got {grid_n!r}")
    ms = float_array(m, "matrix")
    if ms.ndim not in (2, 3) or ms.shape[-2:] != (2, 2):
        expected = "(n, 2, 2)" if ms.ndim == 3 else "(2, 2)"
        raise InvalidInput(f"matrix has shape {ms.shape}; expected {expected}")
    if not np.isfinite(ms).all():
        raise InvalidInput("matrix has a non-finite entry")
    stack = ms.reshape(-1, 2, 2)
    a, b, c, d = stack[:, 0, 0], stack[:, 0, 1], stack[:, 1, 0], stack[:, 1, 1]
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN, silent as with floats
        gram = np.stack([a * a + c * c, a * b + c * d, b * b + d * d], axis=1)
    imax, imin, fmax, fmin = _sweep_extremes(gram, grid_n)
    step = math.pi / grid_n
    fields = (imax * step, imin * step, np.sqrt(np.where(fmax < 0.0, 0.0, fmax)),
              np.sqrt(np.where(fmin < 0.0, 0.0, fmin)))
    if ms.ndim == 2:
        fields = tuple(float(v[0]) for v in fields)
    return OracleResult(*fields, grid_n=grid_n)


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
