"""Closed-form 2x2 linear algebra used throughout the package.

Everything here works on plain floats so the hot paths (orbit frames,
curve integration) avoid small-array overhead.  The SVD uses the
two-rotation closed form: split M into its rotation-like and
reflection-like parts, take two hypots for the singular values and two
arctangents for the rotation angles.  No iterative eigensolver is
involved, so orthogonality of the singular directions is exact by
construction.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np


class Svd2(NamedTuple):
    """SVD of a 2x2 matrix, M = R(theta_u) diag(smax, det_sign*smin) R(theta_v)^T; theta_u is not kept."""

    smax: float
    smin: float
    theta_v: float
    det_sign: float

    @property
    def v_min(self):
        """Right singular vector for smin (most contracted input direction)."""
        return np.array([-math.sin(self.theta_v), math.cos(self.theta_v)])


def svd2_closed(a: float, b: float, c: float, d: float) -> Svd2:
    """Closed-form SVD of [[a, b], [c, d]]."""
    e = 0.5 * (a + d)
    f = 0.5 * (a - d)
    g = 0.5 * (c + b)
    h = 0.5 * (c - b)
    q = math.hypot(e, h)
    r = math.hypot(f, g)
    s2 = q - r
    a1 = math.atan2(g, f)  # theta_u + theta_v
    a2 = math.atan2(h, e)  # theta_u - theta_v
    sign = 1.0 if s2 > 0.0 else (-1.0 if s2 < 0.0 else 0.0)
    return Svd2(q + r, abs(s2), 0.5 * (a1 - a2), sign)


def each(fn, u: np.ndarray, v: Optional[np.ndarray] = None) -> np.ndarray:
    """fn over the elements of a 1-d array, or of two of equal length, called
    on Python floats.

    For the ``math`` functions whose numpy counterparts differ in the last
    bit on some inputs (hypot, atan2, log, exp).  Two fixed arguments rather
    than ``*arrays``, which costs about a microsecond more per call.
    """
    if v is None:
        return np.fromiter(map(fn, u.tolist()), float, len(u))
    return np.fromiter(map(fn, u.tolist(), v.tolist()), float, len(u))


def log_each(u: np.ndarray) -> np.ndarray:
    """``math.log`` over the elements of a 1-d array, with log 0 = -inf."""
    return each(math.log if u.all() else lambda x: math.log(x) if x else -math.inf, u)


def svd2_closed_array(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> Svd2:
    """``svd2_closed`` over 1-d arrays of entries: an Svd2 whose fields are arrays.

    Every field equals the scalar one bit for bit: hypot and atan2 come from
    ``math``, whose results numpy's vectorized versions miss by an ulp on a
    few percent of inputs.  ``v_min`` is for scalar fields only.
    """
    e = 0.5 * (a + d)
    f = 0.5 * (a - d)
    g = 0.5 * (c + b)
    h = 0.5 * (c - b)
    q = each(math.hypot, e, h)
    r = each(math.hypot, f, g)
    s2 = q - r
    a1 = each(math.atan2, g, f)
    a2 = each(math.atan2, h, e)
    sign = (s2 > 0.0).astype(float) - (s2 < 0.0)
    return Svd2(q + r, np.abs(s2), 0.5 * (a1 - a2), sign)


def spectral_norm_array(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``svd2_closed_array(a, b, c, d).smax`` without the angle columns: q + r."""
    q = each(math.hypot, 0.5 * (a + d), 0.5 * (c - b))
    return q + each(math.hypot, 0.5 * (a - d), 0.5 * (c + b))


def svd2_matrix(m: np.ndarray) -> Svd2:
    return svd2_closed(float(m[0, 0]), float(m[0, 1]), float(m[1, 0]), float(m[1, 1]))


def spectral_norm(m: np.ndarray) -> float:
    return svd2_matrix(m).smax


def det2(m: np.ndarray):
    """Determinant of one 2x2 matrix, a float, or of each of a (..., 2, 2) stack, an array."""
    det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    return det if det.ndim else float(det)


def canonical_sign(e: np.ndarray) -> np.ndarray:
    """Resolve the +-e ambiguity of one vector, or of each row of an (n, 2)
    array, as frames sign e: e_y > 0, or e_y == 0 and e_x > 0."""
    x, y = e[..., 0], e[..., 1]
    return np.where(((y < 0.0) | ((y == 0.0) & (x < 0.0)))[..., None], -e, e)


def rotate_quarter_cw(v: np.ndarray) -> np.ndarray:
    """Rotate one vector, or each row of an (n, 2) array, by -pi/2."""
    w = np.empty_like(v)
    w[..., 0] = v[..., 1]
    w[..., 1] = -v[..., 0]
    return w


def angle_between(u: np.ndarray, v: np.ndarray) -> float:
    """Unsigned angle between two nonzero vectors, in [0, pi]."""
    cross = float(u[0] * v[1] - u[1] * v[0])
    dot = float(u[0] * v[0] + u[1] * v[1])
    return abs(math.atan2(cross, dot))


def line_angle_distance(t1: float, t2: float) -> float:
    """Distance between two undirected line angles, in [0, pi/2]."""
    d = math.fmod(t1 - t2, math.pi)
    if d < 0.0:
        d += math.pi
    return min(d, math.pi - d)


def direction_to_sincos_angle(v: np.ndarray) -> float:
    """Angle theta with v = +-(sin theta, cos theta), normalized to [0, pi)."""
    theta = math.atan2(float(v[0]), float(v[1]))
    if theta < 0.0:
        theta += math.pi
    if theta >= math.pi:
        theta -= math.pi
    return theta
