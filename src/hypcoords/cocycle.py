"""Derivative cocycles along orbits, with overflow-safe scaled products.

Norms of k-step derivative products grow or decay exponentially, so raw
matrix products overflow doubles long before the desk-scale horizons here
become interesting.  Every product is therefore stored as a ``ScaledMatrix``:
a body with max-entry magnitude in [1/2, 2] plus a natural-log scale.  The
renormalization factor is always a power of two, so the body entries stay
bit-exact relative to the unscaled product.
"""

from __future__ import annotations

import itertools
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


@dataclass(frozen=True)
class ScaledMatrix:
    """exp(log_scale) * body, with max |body entry| in [1/2, 2] (or body == 0)."""

    body: np.ndarray
    log_scale: float

    @staticmethod
    def from_matrix(m: np.ndarray) -> "ScaledMatrix":
        return _normalize(np.array(m, dtype=float), 0.0)

    @staticmethod
    def identity() -> "ScaledMatrix":
        return ScaledMatrix(np.eye(2), 0.0)

    def __matmul__(self, other: "ScaledMatrix") -> "ScaledMatrix":
        return _normalize(self.body @ other.body, self.log_scale + other.log_scale)

    def apply(self, v: np.ndarray) -> Tuple[np.ndarray, float]:
        """Image of v as (unit direction, log norm)."""
        w = self.body @ v
        n = math.hypot(float(w[0]), float(w[1]))
        if n == 0.0:
            return np.zeros(2), float("-inf")
        return w / n, math.log(n) + self.log_scale

    def dense(self) -> np.ndarray:
        """Unscaled matrix; only safe when exp(log_scale) fits a double."""
        return math.exp(self.log_scale) * self.body


def _normalize(body: np.ndarray, log_scale: float) -> ScaledMatrix:
    m = float(np.abs(body).max())
    if m == 0.0:
        return ScaledMatrix(np.zeros((2, 2)), 0.0)
    _, e = math.frexp(m)  # m = f * 2^e with f in [0.5, 1)
    if e != 0:
        body = np.ldexp(body, -e)
        log_scale += e * _LN2
    return ScaledMatrix(body, log_scale)


def _log_abs_det(step: np.ndarray) -> float:
    """log |det step| from the raw determinant, or from the scaled body when
    the raw one is not a normal float (overflow, underflow, cancellation)."""
    a, b, c, d = step.ravel().tolist()
    det = abs(a * d - b * c)  # Python floats: an overflow is inf, not a warning
    if math.isfinite(det) and det >= sys.float_info.min:
        return math.log(det)
    m = ScaledMatrix.from_matrix(step)
    body_det = abs(linalg2.det2(m.body))
    return math.log(body_det) + 2.0 * m.log_scale if body_det > 0.0 else float("-inf")


def normalize_stack(bodies: np.ndarray, log_scales) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_normalize`` over an (n, 2, 2) stack, with the same powers of two.

    Returns the scaled bodies, their log scales and the max |entry| of each
    input body.  A zero body stays zero and keeps its log scale.
    """
    m = np.abs(bodies).max(axis=(1, 2))
    _, e = np.frexp(m)
    return np.ldexp(bodies, -e[:, None, None]), log_scales + e * _LN2, m


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
    """Products of a finite sequence of 2x2 step matrices.

    Index convention: ``prefix(i)`` represents the product of steps
    0..i-1 (the i-step derivative at the base point); ``prefix(0)`` is the
    identity.  Each step is normalized once (``scaled_steps``); per-order
    norm data is precomputed in log form.
    """

    def __init__(self, steps: Sequence[np.ndarray]):
        if len(steps) == 0:
            raise ValueError("cocycle needs at least one step matrix")
        self.steps: List[np.ndarray] = [np.array(s, dtype=float) for s in steps]
        self.scaled_steps = [ScaledMatrix.from_matrix(s) for s in self.steps]
        self.k = len(self.steps)
        prefixes = [ScaledMatrix.identity()]
        for s in self.scaled_steps:
            prefixes.append(s @ prefixes[-1])
        self._prefix = prefixes

        self.step_log_absdet = [_log_abs_det(s) for s in self.steps]
        step_svd = [linalg2.svd2_matrix(s) for s in self.steps]
        for j, s in enumerate(step_svd):
            if s.smax == 0.0:
                raise ZeroMatrix(f"step {j} is the zero matrix")
        self.step_log_norm = [math.log(s.smax) for s in step_svd]
        self.step_log_conorm = [
            math.log(s.smin) if s.smin > 0.0 else float("-inf") for s in step_svd
        ]

        # log |det DPhi^i| by multiplicativity of the determinant
        self.log_absdet = list(itertools.accumulate(self.step_log_absdet, initial=0.0))

        # Per-order norms.  The larger singular value is well conditioned,
        # but extracting the smaller one from the assembled product cancels
        # catastrophically once the co-eccentricity drops below the working
        # precision, so the co-norm is taken as |det| / norm with the
        # determinant accumulated stepwise (exact multiplicativity).
        self.log_norm = [0.0]
        self.log_conorm = [0.0]
        for i in range(1, self.k + 1):
            s = linalg2.svd2_matrix(self._prefix[i].body)
            if s.smax == 0.0:
                raise ZeroMatrix(f"product of steps 0..{i - 1} is the zero matrix")
            log_norm = math.log(s.smax) + self._prefix[i].log_scale
            self.log_norm.append(log_norm)
            self.log_conorm.append(self.log_absdet[i] - log_norm)

        # frames and per-order measurements, filled by bounds on first use
        self._measured = None

    def prefix(self, i: int) -> ScaledMatrix:
        if not 0 <= i <= self.k:
            raise IndexOutOfRange(f"prefix index {i} outside 0..{self.k}")
        return self._prefix[i]

    def block(self, i: int, j: int) -> ScaledMatrix:
        """Product of steps i..j-1 (the (j-i)-step derivative at point i)."""
        if not 0 <= i <= j <= self.k:
            raise IndexOutOfRange(f"block ({i}, {j}) outside 0 <= i <= j <= {self.k}")
        if i == 0:
            return self._prefix[j]
        out = ScaledMatrix.identity()
        for m in self.scaled_steps[i:j]:
            out = m @ out
        return out

    def log_coecc(self, i: int) -> float:
        """log co-eccentricity of the i-step product, i >= 1."""
        return self.log_conorm[i] - self.log_norm[i]

    def step_log_coecc(self, j: int) -> float:
        """log one-step co-eccentricity at orbit point j (0-based step index)."""
        return self.step_log_conorm[j] - self.step_log_norm[j]


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
    domain or has non-finite first or second partials; either means the
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
            jacobian = jacobian_matrix(spec.jacobian(x, y))
            second = spec.second_partials(x, y)
            if not (np.isfinite(jacobian).all() and np.isfinite(second).all()):
                raise OrbitEscaped(i, f"orbit point {i} has non-finite derivatives")
            jacobians.append(jacobian)
            seconds.append(second)
            p = np.array(spec.eval(x, y))
            pts[i + 1] = p

    return OrbitSegment(
        spec=spec,
        points=pts,
        step_second_partials=seconds,
        cocycle=MatrixCocycle(jacobians),
    )
