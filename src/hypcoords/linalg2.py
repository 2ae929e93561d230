"""Closed-form 2x2 linear algebra used throughout the package.

The SVD uses the two-rotation closed form: split M into its rotation-like
and reflection-like parts, take two hypots for the singular values and two
arctangents for the rotation angles.  No iterative eigensolver is
involved, so orthogonality of the singular directions is exact by
construction.  ``svd2_closed`` takes four floats or four arrays of
entries alike: its elementwise functions are numpy's ufuncs, which give
the same bits on a float as on each element of an array, so a matrix
measured alone and in a stack agree bit for bit.  Callers that take logs,
exponentials or hypots of what it returns use the same ufuncs.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np


class Svd2(NamedTuple):
    """SVD of a 2x2 matrix, M = R(theta_u) diag(smax, det_sign*smin) R(theta_v)^T; theta_u is not kept.

    Each field is a float, or an array over a stack of matrices."""

    smax: float
    smin: float
    theta_v: float
    det_sign: float

    @property
    def v_min(self) -> np.ndarray:
        """Right singular vector for smin (most contracted input direction),
        shape (2,), or (n, 2) over a stack."""
        return np.array([-np.sin(self.theta_v), np.cos(self.theta_v)]).T


def svd2_closed(a, b, c, d) -> Svd2:
    """Closed-form SVD of [[a, b], [c, d]], or of each matrix of four
    equal-length arrays of entries."""
    e = 0.5 * (a + d)
    f = 0.5 * (a - d)
    g = 0.5 * (c + b)
    h = 0.5 * (c - b)
    q = np.hypot(e, h)
    r = np.hypot(f, g)
    s2 = q - r
    a1 = np.arctan2(g, f)  # theta_u + theta_v
    a2 = np.arctan2(h, e)  # theta_u - theta_v
    return Svd2(q + r, abs(s2), 0.5 * (a1 - a2), np.sign(s2))


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


def line_angle_distance(t1, t2):
    """Distance between two undirected line angles, in [0, pi/2], or of
    each pair of two arrays of them."""
    d = np.fmod(t1 - t2, math.pi)
    d = np.where(d < 0.0, d + math.pi, d)
    return np.minimum(d, math.pi - d)


def direction_to_sincos_angle(v: np.ndarray) -> float:
    """Angle theta with v = +-(sin theta, cos theta), normalized to [0, pi)."""
    theta = math.atan2(float(v[0]), float(v[1]))
    if theta < 0.0:
        theta += math.pi
    if theta >= math.pi:
        theta -= math.pi
    return theta
