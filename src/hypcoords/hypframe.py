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
uniform angle grid, for one matrix or a stack of them.  It evaluates only
a window of grid points around each closed-form extremal angle of the Gram
form, certified by the values at the window's ends, so it returns exactly
what the full sweep returns.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

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
class CriticalAngles:
    """Critical angles of the norm over the unit circle, (sin t, cos t) form:
    floats for four floats, arrays for four arrays."""

    theta_contract: Union[float, np.ndarray]
    theta_expand: Union[float, np.ndarray]


def angle_theta(px1, px2, py1, py2) -> CriticalAngles:
    """Critical angles from the four first partials (x1, x2, y1, y2 order),
    four floats or four equal-length arrays of them.

    Arguments are d_x Phi1, d_x Phi2, d_y Phi1, d_y Phi2.  Raises
    ConformalDegenerate when numerator and denominator both vanish at any
    entry (every direction is critical).  The arctangent is numpy's ufunc,
    so an entry of an array gets the bits of the same entry as a float.
    """
    num = 2.0 * (px1 * py1 + px2 * py2)
    den = (py1 * py1 + py2 * py2) - (px1 * px1 + px2 * px2)
    if np.any((np.abs(num) < 1e-14) & (np.abs(den) < 1e-14)):
        raise ConformalDegenerate("conformal derivative: every direction is critical")
    theta_expand = 0.5 * np.arctan2(num, den)
    theta_expand = np.where(theta_expand < 0.0, theta_expand + math.pi, theta_expand)
    theta_contract = theta_expand + 0.5 * math.pi
    theta_contract = np.where(theta_contract >= math.pi, theta_contract - math.pi, theta_contract)
    if theta_expand.ndim == 0:
        return CriticalAngles(theta_contract=float(theta_contract), theta_expand=float(theta_expand))
    return CriticalAngles(theta_contract=theta_contract, theta_expand=theta_expand)


@dataclass(frozen=True)
class OracleResult:
    """Brute-force extremal directions of theta -> |M (sin theta, cos theta)|:
    floats for one matrix, arrays over a stack of matrices."""

    theta_max: Union[float, np.ndarray]
    theta_min: Union[float, np.ndarray]
    norm_max: Union[float, np.ndarray]
    norm_min: Union[float, np.ndarray]
    grid_n: int


# The premise of the window sweep: numpy's sin and cos are within this of
# the exact sine and cosine at every grid angle (libm's errors are below
# 2^-52).
_TRIG_DELTA = 2.0 ** -40
# A window's extremum must clear both of its end values by more than
# _WINDOW_TOL * G, G = |g11| + |g12| + |g22| (derivation in
# ``oracle_extremal_directions``).
_WINDOW_TOL = 16.0 * _TRIG_DELTA
# Rows whose G is outside this range, or NaN, are swept whole.
_WINDOW_GRAM_RANGE = (2.0 ** -1022, 2.0 ** 1020)
# Widest half-width of a window, and most grid points evaluated per pass of
# windows, each padded to the widest of its pass.
_WINDOW_MAX = 2**14
_WINDOW_PASS = 2**17


def _grid_values(theta: np.ndarray, grid_n: int) -> Tuple[np.ndarray, ...]:
    """sin^2, 2 sin cos and cos^2 at the grid indices ``theta``, a float
    array that it overwrites: the whole grid and a window take the same
    operations, so their values agree bit for bit."""
    # in place where an operand is dead: each fresh 8 MB array costs page faults
    theta *= math.pi / grid_n
    s = np.sin(theta)
    c = np.cos(theta, out=theta)
    sc2 = 2.0 * s
    sc2 *= c
    return np.multiply(s, s, out=s), sc2, np.multiply(c, c, out=c)


@functools.lru_cache(maxsize=1)  # keep one resolution resident
def _grid_basis(grid_n: int) -> Tuple[np.ndarray, ...]:
    """sin^2, 2 sin cos and cos^2 on the whole grid."""
    return _grid_values(np.arange(grid_n, dtype=float), grid_n)


def _windows(gram: np.ndarray, grid_n: int) -> Tuple[np.ndarray, np.ndarray]:
    """(half, centre) for each row (g11, g12, g22) of gram, (n, 3): the
    half-width W of its two windows, 0 for a row swept whole, and the grid
    indices nearest its closed-form angles of the max and of the min, (n, 2)."""
    step = math.pi / grid_n
    low, high = _WINDOW_GRAM_RANGE
    with np.errstate(all="ignore"):  # NaN, infinite and conformal rows are swept whole
        x, y = 0.5 * (gram[:, 2] - gram[:, 0]), gram[:, 1]
        size = np.abs(gram).sum(axis=1)
        half = np.ceil(1.6 * np.sqrt(_WINDOW_TOL * size / np.hypot(x, y)) / step) + 2.0
        windowed = (size >= low) & (size <= high) & (half <= min(_WINDOW_MAX, (grid_n - 2) // 4))
        at_max = np.where(windowed, np.arctan2(y, x) / (2.0 * step), 0.0)
    centre = np.floor(np.stack([at_max, at_max + 0.5 * grid_n], axis=1) + 0.5) % grid_n
    return np.where(windowed, half, 0.0).astype(np.intp), centre.astype(np.intp)


def _sweep_windows(gram: np.ndarray, centre: np.ndarray, half: int, grid_n: int) -> Tuple[np.ndarray, ...]:
    """(imax, imin, fmax, fmin, certified) for each row of gram, (n, 3), from
    its windows of the max and of the min: the 2 half + 1 grid indices
    around each of its ``centre``, (n, 2), mod grid_n; certified where each
    extremum clears both ends of its window, so that it is the full sweep's."""
    at = centre[:, :, None] + np.arange(-half, half + 1)
    at %= grid_n
    s2, sc2, c2 = _grid_values(at.astype(float), grid_n)
    g11, g12, g22 = (gram[:, i, None, None] for i in range(3))
    # the three statements of the full sweep, on the same grid values
    f = s2 * g11
    f += sc2 * g12
    f += c2 * g22
    fmax, fmin = f[:, 0].max(axis=1), f[:, 1].min(axis=1)
    tol = _WINDOW_TOL * np.abs(gram).sum(axis=1)
    certified = ((fmax - np.maximum(f[:, 0, 0], f[:, 0, -1]) > tol)
                 & (np.minimum(f[:, 1, 0], f[:, 1, -1]) - fmin > tol))
    # the least index that attains each extremum, whichever way the window wraps
    imax = np.where(f[:, 0] == fmax[:, None], at[:, 0], grid_n).min(axis=1)
    imin = np.where(f[:, 1] == fmin[:, None], at[:, 1], grid_n).min(axis=1)
    return imax, imin, fmax, fmin, certified


def _sweep_extremes(gram: np.ndarray, grid_n: int) -> Tuple[np.ndarray, ...]:
    """(imax, imin, fmax, fmin): for each row (g11, g12, g22) of gram, (n, 3),
    the first index of the max and of the min of the squared image norm f
    on the grid, and f there, as arrays."""
    n = len(gram)
    imax, imin, fmax, fmin = np.zeros(n, np.intp), np.zeros(n, np.intp), np.full(n, -np.inf), np.full(n, np.inf)
    half, centre = _windows(gram, grid_n)
    whole = [np.flatnonzero(half == 0)]
    rows = np.flatnonzero(half)
    rows = rows[np.argsort(half[rows], kind="stable")]
    points = 4 * half[rows] + 2  # of both windows of each row, narrowest first
    start = 0
    while start < len(rows):
        # the most rows whose windows, padded to the widest, fit in a pass
        stop = start + int(np.searchsorted(points[start:] * np.arange(1, len(rows) - start + 1), _WINDOW_PASS,
                                           side="right"))
        take = rows[start:stop]
        *found, certified = _sweep_windows(gram[take], centre[take], int(half[take[-1]]), grid_n)
        for best, value in zip((imax, imin, fmax, fmin), found):
            best[take] = value
        whole.append(take[~certified])
        start = stop
    whole = np.concatenate(whole)
    if len(whole):
        s2, sc2, c2 = _grid_basis(grid_n)
    for row in whole.tolist():
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

    Only a window of grid points around each extremal angle of the Gram
    form is evaluated; the result is that of the full sweep, index for
    index.  Exactly, f(t) = A + R cos(2t - phi) with A = (g11 + g22) / 2,
    R = hypot((g22 - g11) / 2, g12) and phi = atan2(g12, (g22 - g11) / 2):
    the maximum lies at phi / 2 and the minimum a quarter turn away, mod
    pi.  A window holds the 2 W + 1 grid indices within W of the index
    nearest one of these angles, mod grid_n.  The windows of all rows are
    evaluated in array passes of at most _WINDOW_PASS points, narrowest
    first, each padded to the widest window of its pass.

    Premise.  numpy's sin and cos lie within delta = 2^-40 of the exact
    sine and cosine at every grid angle; libm's errors are below 2^-52,
    and tests/test_hypframe.py checks the grids of the tests against
    mpmath.

    Certificate.  Write u = 2^-53, eta = 2^-1075 (the largest error of a
    product that underflows), G = |g11| + |g12| + |g22| and t_i for the
    stored angle of grid index i.  Each stored column value, one or two
    roundings of products of a sine and a cosine within delta, lies within
    5 delta of its exact value at t_i, and each swept f (three products and
    two sums) within E = (5 delta + 4u) G + 3 eta of the exact f(t_i).
    When R > 0, f falls strictly from its maximum to its minimum either way
    round the circle of angles mod pi.  So where the exact f at an index m
    of a window exceeds f at both of its end indices a and b, the maximum
    lies on the window's arc, and f(t_p) <= max(f(t_a), f(t_b)) at every
    index p outside it.  A window of the maximum is accepted when its
    largest swept value exceeds both of its end values by more than
    tol = 16 delta G.  The roundings of that test and of tol are below
    3u G, and 6 eta is below delta G / 2^10 as G >= 2^-1022, so the swept
    gap then exceeds 2E: every swept value outside the window lies strictly
    below the window's largest, and the first index that attains the
    maximum on the grid is the least index that attains it in the window,
    which the sweep takes.  The minimum is the mirror image.  The window's
    grid values come from ``_grid_values``, the operations of the stored
    columns on the same angles, and f from the three products and two sums
    of the full sweep, so they equal the full sweep's bit for bit.

    Width.  W = ceil(1.6 sqrt(tol / R) / step) + 2, step = pi / grid_n,
    makes the test pass whenever the centre index of a window is the grid
    index nearest the exact angle: at a distance d <= pi / 2 from the
    maximum, f lies 2R sin^2 d >= 8 R d^2 / pi^2 below it, the window's
    ends lie at least (W - 1) steps from the maximum and its centre within
    half a step, so the exact gap exceeds 2 tol.  W sizes only the work:
    a row whose window fails the test is swept whole.

    Whole sweep.  A row is swept whole, over the cached ``_grid_basis``,
    where G is NaN, infinite, above 2^1020 (where a product could
    overflow) or below 2^-1022; where W exceeds _WINDOW_MAX or
    (grid_n - 2) / 4, so that a window would reach half the grid (flat and
    near-conformal rows, tiny grids); and where a window fails the test.
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
