"""Derivative cocycles along orbits, with overflow-safe scaled products.

Norms of k-step derivative products grow or decay exponentially, so raw
matrix products overflow doubles long before the desk-scale horizons here
become interesting.  Every product is therefore stored scaled (``ScaledMatrix``):
a body with max-entry magnitude in [1/2, 2] plus a natural-log scale.  The
renormalization factor is always a power of two, so the body entries stay
bit-exact relative to the unscaled product.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from . import linalg2
from .errors import (
    IndexOutOfRange,
    OrbitEscaped,
    SingularEncounter,
    ZeroMatrix,
)
from .planar_maps import MapSpec, jacobian_matrix

_LN2 = math.log(2.0)
# A 2x2 matrix whose max |entry| reaches this has a nonzero closed-form SVD
_TINY = 2.0**-1021


@dataclass(frozen=True)
class ScaledMatrix:
    """exp(log_scale) * body, with max |body entry| in [1/2, 2] (or body == 0)."""

    body: np.ndarray
    log_scale: float

    @staticmethod
    def from_matrix(m: np.ndarray) -> "ScaledMatrix":
        body, log_scale, _ = normalize_stack(np.array(m, dtype=float), 0.0)
        return ScaledMatrix(body, float(log_scale))

    def __matmul__(self, other: "ScaledMatrix") -> "ScaledMatrix":
        body, log_scale, _ = normalize_stack(self.body @ other.body, self.log_scale + other.log_scale)
        return ScaledMatrix(body, float(log_scale))


def normalize_stack(bodies: np.ndarray, log_scales) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(body / 2^e, log_scale + e log 2) per body of a (..., 2, 2) stack, max |entry| = f 2^e, f in [1/2, 1).

    Returns the scaled bodies, their log scales and the max |entry| of each
    input body.  A zero body stays zero and keeps its log scale.
    """
    m = np.maximum.reduce(np.abs(bodies), axis=(-2, -1))
    _, e = np.frexp(m)
    return np.ldexp(bodies, -e[..., None, None]), log_scales + e * _LN2, m


def measure_steps(steps: np.ndarray) -> Tuple[np.ndarray, ...]:
    """The k steps of one orbit, (k, 2, 2), or of m orbits, (k, m, 2, 2) with
    step j of orbit i at [j, i], scaled, and their renormalized products.

    Returns ``(step_bodies, step_log_scales, step_log_absdet, zero_steps,
    prefix_bodies, prefix_log_scales)``.  A step's log |det| comes from the
    raw determinant unless that is not a normal float (overflow, underflow,
    cancellation), then from the scaled body; a zero step is one whose
    closed-form SVD is zero; order i = 0..k of the products is steps 0..i-1.
    """
    # overflow, 0 * inf and inf - inf as on Python floats
    with np.errstate(all="ignore"):
        step_bodies, step_log_scales, peak = normalize_stack(steps, 0.0)
        det = np.abs(_det_stack(steps))
        step_log_absdet = linalg2.log_each(det.ravel()).reshape(det.shape)
        redo = ~((det >= sys.float_info.min) & (det < math.inf))  # NaN included
        if np.count_nonzero(redo):
            body_det = np.abs(_det_stack(step_bodies[redo]))
            body_log_det = linalg2.log_each(body_det) + 2.0 * step_log_scales[redo]
            step_log_absdet[redo] = np.where(body_det > 0.0, body_log_det, -math.inf)  # NaN included
        zero_steps = peak < _TINY
        if np.count_nonzero(zero_steps):
            zero_steps[zero_steps] = linalg2.spectral_norm_array(*steps[zero_steps].reshape(-1, 4).T) == 0.0
        prefix_bodies = np.empty((len(steps) + 1, *steps.shape[1:]))
        body = prefix_bodies[0] = np.eye(2)
        exps = np.empty((len(steps), *steps.shape[1:-2], 1, 1), dtype=np.intc)
        for step_body, e, product in zip(step_bodies, exps, prefix_bodies[1:]):
            body = np.matmul(step_body, body, out=product)
            np.frexp(np.maximum.reduce(np.abs(body), axis=(-2, -1), keepdims=True), out=(None, e))
            np.ldexp(body, -e, out=body)
        # log scale j + 1 = (log scale j + step j's) + e_j log 2, added left to right
        scale_terms = np.zeros((2 * len(steps) + 1, *steps.shape[1:-2]))
        scale_terms[1::2], scale_terms[2::2] = step_log_scales, exps[..., 0, 0] * _LN2
        prefix_log_scales = np.add.accumulate(scale_terms, axis=0)[::2]
    return step_bodies, step_log_scales, step_log_absdet, zero_steps, prefix_bodies, prefix_log_scales


def guard_limit(spec: MapSpec, guard: Optional[float]) -> float:
    """Singular-set distance below which ``compute_orbit`` stops an orbit."""
    if guard is None:
        guard = 1e-8 if spec.has_singular_set else 0.0
    return max(guard, 1e-300)


@dataclass(frozen=True)
class NormData:
    """Log-domain norm data of a scaled matrix."""

    log_norm: float
    log_conorm: float
    log_absdet: float
    det_sign: float


def norm_conorm_det(m: ScaledMatrix) -> NormData:
    """Spectral norm, co-norm and determinant of the represented matrix, in logs.

    The co-norm is the smaller singular value (norm of the image of the most
    contracted unit vector).  A singular matrix is allowed: its co-norm and
    determinant logs are -inf.
    """
    if float(np.abs(m.body).max()) == 0.0:
        raise ZeroMatrix("norms undefined for the zero matrix")
    s = linalg2.svd2_matrix(m.body)
    log_norm = math.log(s.smax) + m.log_scale
    if s.smin == 0.0:
        return NormData(log_norm, float("-inf"), float("-inf"), 0.0)
    log_conorm = math.log(s.smin) + m.log_scale
    return NormData(log_norm, log_conorm, log_norm + log_conorm, s.det_sign)


class MatrixCocycle:
    """Products of a finite sequence of 2x2 step matrices, measured once.

    ``prefix(i)`` is the product of steps 0..i-1 (the i-step derivative at
    the base point), ``prefix(0)`` the identity.  Steps and products are
    stacks of scaled bodies (``step_bodies``, ``prefix_bodies``), from which
    array passes take the log norm, co-norm and |det| of every step and
    order, and the most contracted direction of every order; ``images``
    pushes vectors through the products.  Each value equals its scalar
    closed form bit for bit, but for the co-norm of a step whose closed-form
    smin cancels to 0: there it is |det| / norm.
    """

    def __init__(self, steps: Sequence[np.ndarray]):
        if len(steps) == 0:
            raise ValueError("cocycle needs at least one step matrix")
        raw = np.array(steps, dtype=float)
        self.steps: List[np.ndarray] = list(raw)
        self.k = k = len(raw)
        (self.step_bodies, self.step_log_scales, step_log_absdet, zero_steps,
         self.prefix_bodies, self.prefix_log_scales) = measure_steps(raw)
        with np.errstate(all="ignore"):  # overflow and inf - inf as on Python floats
            # the steps, then the products of every order, in one SVD pass
            svd = linalg2.svd2_closed_array(*np.concatenate((raw, self.prefix_bodies)).reshape(-1, 4).T)
            zero = np.flatnonzero(np.concatenate((zero_steps, svd.smax[k:] == 0.0)))
            if zero.size:  # steps first; entry k + i is order i
                j = zero[0]
                what = f"step {j}" if j < k else f"product of steps 0..{j - k - 1}"
                raise ZeroMatrix(what + " is the zero matrix")
            log_smax = linalg2.each(math.log, svd.smax)
            # Per-order norms.  The larger singular value is well conditioned,
            # but extracting the smaller one from the assembled product cancels
            # catastrophically once the co-eccentricity drops below the working
            # precision, so the co-norm is taken as |det| / norm with the
            # determinant accumulated stepwise (exact multiplicativity).
            log_norm = log_smax[k:] + self.prefix_log_scales
            log_absdet = np.cumsum(np.concatenate(([0.0], step_log_absdet)))
            log_conorm = log_absdet - log_norm
            # q - r cancels to 0 below a step co-eccentricity of about 1e-16;
            # there the co-norm is |det| / norm, as for the orders
            step_log_conorm = linalg2.log_each(svd.smin[:k])
            cancelled = ~(svd.smin[:k] > 0.0)  # NaN included
            step_log_conorm[cancelled] = np.where(
                np.isfinite(step_log_absdet), step_log_absdet - log_smax[:k], -math.inf)[cancelled]
        # lists of Python floats, as messages and reports print them
        self.step_log_norm, self.step_log_conorm, self.step_log_absdet = (
            x.tolist() for x in (log_smax[:k], step_log_conorm, step_log_absdet))
        self.log_norm, self.log_conorm, self.log_absdet = (
            x.tolist() for x in (log_norm, log_conorm, log_absdet))
        # the most contracted input direction of every order, Svd2.v_min
        theta_v = svd.theta_v[k:]
        self.contracted = np.stack(
            (-linalg2.each(math.sin, theta_v), linalg2.each(math.cos, theta_v)), axis=1
        )

    def prefix(self, i: int) -> ScaledMatrix:
        if not 0 <= i <= self.k:
            raise IndexOutOfRange(f"prefix index {i} outside 0..{self.k}")
        return ScaledMatrix(self.prefix_bodies[i], float(self.prefix_log_scales[i]))

    def images(self, v: np.ndarray, orders) -> Tuple[np.ndarray, np.ndarray]:
        """The image under ``prefix(i)`` for each i of ``orders``, from one
        stacked matmul: of ``v``, or of row j of an (n, 2) ``v`` at the j-th
        order.  Returns the unit directions as an (n, 2) array and the log
        norms, each the body's image w over math.hypot(w) and log hypot(w)
        plus the log scale; a zero image has a zero direction and log norm
        -inf.  This is the one push of a vector through the products."""
        w = np.matmul(self.prefix_bodies[orders], np.asarray(v, dtype=float)[..., None])[..., 0]
        norms = linalg2.each(math.hypot, w[:, 0], w[:, 1])
        nonzero = (norms != 0.0)[:, None]
        directions = np.divide(w, norms[:, None], out=np.zeros_like(w), where=nonzero)
        return directions, linalg2.log_each(norms) + self.prefix_log_scales[orders]

    def block(self, i: int, j: int) -> ScaledMatrix:
        """Product of steps i..j-1 (the (j-i)-step derivative at point i)."""
        if not 0 <= i <= j <= self.k:
            raise IndexOutOfRange(f"block ({i}, {j}) outside 0 <= i <= j <= {self.k}")
        *_, bodies, log_scales = measure_steps(np.array(self.steps[i:j]).reshape(-1, 2, 2))
        return ScaledMatrix(bodies[-1], float(log_scales[-1]))

    def log_coecc(self, i: int) -> float:
        """log co-eccentricity of the i-step product, i >= 1."""
        return self.log_conorm[i] - self.log_norm[i]

    def step_log_coecc(self, j: int) -> float:
        """log one-step co-eccentricity at orbit point j (0-based step index)."""
        return self.step_log_conorm[j] - self.step_log_norm[j]


def _det_stack(m: np.ndarray) -> np.ndarray:
    """Determinants of a (..., 2, 2) stack."""
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


@dataclass(frozen=True)
class OrbitSegment:
    """Orbit points with per-step derivative data and scaled cocycle products."""

    spec: MapSpec
    points: np.ndarray  # shape (k+1, 2)
    step_second_partials: List[Tuple[np.ndarray, np.ndarray]]
    cocycle: MatrixCocycle

    @property
    def k(self) -> int:
        return self.cocycle.k


def cocycle_of(source: Union[OrbitSegment, MatrixCocycle]) -> MatrixCocycle:
    """The cocycle of an orbit segment, or the cocycle itself."""
    return source.cocycle if isinstance(source, OrbitSegment) else source


def compute_orbit(
    spec: MapSpec, xi0: np.ndarray, k: int, guard: Optional[float] = None
) -> OrbitSegment:
    """Iterate the map k times from xi0, collecting derivative data.

    Raises SingularEncounter(i) if any orbit point comes within ``guard`` of
    the singular set, OrbitEscaped(i) if one is not finite, leaves the
    domain or has non-finite first or second partials (a callback that
    raises OverflowError counts as a non-finite value); either means the
    orbit is unusable at this order.  ``guard`` defaults to 1e-8 for maps
    with a singular set and 0 for smooth ones.
    """
    if k < 1:
        raise ValueError("orbit order k must be >= 1")
    limit = guard_limit(spec, guard)

    pts = np.empty((k + 1, 2))
    pts[0] = np.asarray(xi0, dtype=float)
    jacobians = []
    seconds = []
    p = pts[0]
    # overflow to inf is tested for explicitly, as on Python floats
    with np.errstate(all="ignore"):
        for i in range(k + 1):
            x, y = float(p[0]), float(p[1])
            if not (math.isfinite(x) and math.isfinite(y) and spec.domain_check(x, y)):
                raise OrbitEscaped(i)
            if spec.singular_set_distance(x, y) < limit:
                raise SingularEncounter(i)
            if i == k:
                break
            try:  # a callback on Python floats raises where numpy would give inf
                jacobian = jacobian_matrix(spec.jacobian(x, y))
                second = spec.second_partials(x, y)
                finite = np.isfinite(jacobian).all() and np.isfinite(second).all()
            except OverflowError:
                finite = False
            if not finite:
                raise OrbitEscaped(i, f"orbit point {i} has non-finite derivatives")
            jacobians.append(jacobian)
            seconds.append(second)
            try:
                p = np.array(spec.eval(x, y))
            except OverflowError:
                raise OrbitEscaped(i + 1) from None
            pts[i + 1] = p

    return OrbitSegment(
        spec=spec,
        points=pts,
        step_second_partials=seconds,
        cocycle=MatrixCocycle(jacobians),
    )
