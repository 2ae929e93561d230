"""Planar maps with exact first- and second-order derivative data.

Built-in systems: the Henon family, the standard (kicked-rotor) map, a
Lorenz-like planar map with a singular line at x = 0 where the derivative
norm blows up, and arbitrary constant linear maps for oracle tests.

Every map carries closed-form callbacks for the Jacobian and for the two
matrices of second partials, laid out so that ``second_partials(p)[0]`` is
the entrywise x-derivative of the Jacobian and ``[1]`` the y-derivative:

    d_s(DPhi) = [[Phi1_sx, Phi1_sy],
                 [Phi2_sx, Phi2_sy]]      for s in {x, y}.

Nothing here is differentiated symbolically.  The point callbacks take
Python floats or equal-length arrays alike, so the orbit code and the
batched foliation kernel call the same definition of each map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np

from .errors import OnSingularSet, OutsideDomain

Point = np.ndarray
Matrix = np.ndarray

_INF = float("inf")


def _finite(x, y):
    return np.isfinite(x) & np.isfinite(y)


def _nowhere_singular(x, y) -> float:
    return _INF


def jacobian_matrix(entries) -> Matrix:
    """The 2x2 Jacobian from the entries (j11, j12, j21, j22) of a point."""
    return np.array(entries, dtype=float).reshape(2, 2)


@dataclass(frozen=True)
class MapSpec:
    """A planar map with analytic derivative data.

    Immutable after construction; all callbacks are pure, so instances are
    safe to share across workers.

    ``eval``, ``jacobian``, ``singular_set_distance`` and ``domain_check``
    take either two Python floats or two equal-length 1-d arrays x and y,
    and return

    * ``eval``: the image coordinates (X, Y);
    * ``jacobian``: the entries (j11, j12, j21, j22), which
      ``jacobian_matrix`` turns into the 2x2 matrix;
    * ``singular_set_distance``: the distance to the singular set;
    * ``domain_check``: whether the point lies in the domain, False at
      every non-finite point.

    On arrays, each returned value may be a scalar that broadcasts against
    x.  ``second_partials`` takes floats only.
    """

    name: str
    parameters: Dict[str, float]
    eval: Callable[[float, float], Tuple[float, float]]
    jacobian: Callable[[float, float], Tuple[float, float, float, float]]
    second_partials: Callable[[float, float], Tuple[Matrix, Matrix]]
    singular_set_distance: Callable[[float, float], float] = _nowhere_singular
    domain_check: Callable[[float, float], bool] = _finite
    # True when the map declares a singular set: sets compute_orbit's default
    # guard and whether fit_constants fits the tilde constants
    has_singular_set: bool = False

    def _guard(self, p: Point) -> Tuple[float, float]:
        x, y = float(p[0]), float(p[1])
        if not self.domain_check(x, y):
            raise OutsideDomain(f"{self.name}: point ({x}, {y}) outside domain")
        if self.singular_set_distance(x, y) == 0.0:
            raise OnSingularSet(f"{self.name}: point ({x}, {y}) on the singular set")
        return x, y

    def second_partials_at(self, p: Point) -> Tuple[Matrix, Matrix]:
        x, y = self._guard(p)
        return self.second_partials(x, y)


def henon(a: float = 1.4, b: float = 0.3) -> MapSpec:
    """Henon family (x, y) -> (1 + y - a x^2, b x)."""

    dx = np.array([[-2.0 * a, 0.0], [0.0, 0.0]])
    dy = np.zeros((2, 2))

    def second(x, y):
        return dx.copy(), dy.copy()

    return MapSpec(
        name="henon",
        parameters={"a": a, "b": b},
        eval=lambda x, y: (1.0 + y - a * x * x, b * x),
        jacobian=lambda x, y: (-2.0 * a * x, 1.0, b, 0.0),
        second_partials=second,
        domain_check=lambda x, y: (abs(x) < 1e6) & (abs(y) < 1e6),
    )


def standard(K: float = 6.0) -> MapSpec:
    """Standard map (x, y) -> (x + y + K sin x, y + K sin x), area preserving.

    Coordinates are kept on the universal cover (no angle wrap): that keeps
    the map smooth on all of R^2 and leaves the derivative cocycle unchanged.
    """

    def f(x, y):
        kick = K * np.sin(x)
        return x + y + kick, y + kick

    def jac(x, y):
        kc = K * np.cos(x)
        return 1.0 + kc, 1.0, kc, 1.0

    def second(x, y):
        ks = -K * math.sin(x)
        return np.array([[ks, 0.0], [ks, 0.0]]), np.zeros((2, 2))

    return MapSpec(
        name="standard",
        parameters={"K": K},
        eval=f,
        jacobian=jac,
        second_partials=second,
    )


def linear(
    m11: float = 1.0, m12: float = 0.0, m21: float = 0.0, m22: float = 1.0
) -> MapSpec:
    """Constant linear map p -> M p, for oracle tests."""
    zero = np.zeros((2, 2))
    return MapSpec(
        name="linear",
        parameters={"m11": m11, "m12": m12, "m21": m21, "m22": m22},
        eval=lambda x, y: (m11 * x + m12 * y, m21 * x + m22 * y),
        jacobian=lambda x, y: (m11, m12, m21, m22),
        second_partials=lambda x, y: (zero.copy(), zero.copy()),
    )


def rotation(theta: float) -> MapSpec:
    ct, st = math.cos(theta), math.sin(theta)
    return linear(ct, -st, st, ct)


def _power(base: float, exponent: float) -> float:
    """base ** exponent for base >= 0, inf where the float result overflows."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def lorenz2d(
    alpha: float = 0.5,
    beta: float = 0.8,
    a1: float = 1.2,
    b1: float = 0.1,
    c1: float = -1.0,
    a2: float = 0.6,
    b2: float = 0.1,
    c2: float = -0.3,
) -> MapSpec:
    """Lorenz-like planar map, singular on the line x = 0.

    (x, y) -> (sgn(x) (|x|^alpha g1(y) + c1),  |x|^beta g2(y) + c2)
    with g1(y) = a1 + b1 y and g2(y) = a2 + b2 y.  For 0 < alpha < 1 the
    x-derivative |x|^(alpha-1) blows up as x -> 0.  This is a representative
    stand-in for two-dimensional Lorenz return maps, not a section of the
    Lorenz flow; the coefficients are configuration.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("lorenz2d requires 0 < alpha < 1")

    def f(x, y):
        s = np.copysign(1.0, x)
        ax = np.abs(x)
        return s * (ax**alpha * (a1 + b1 * y) + c1), ax**beta * (a2 + b2 * y) + c2

    def jac(x, y):
        s = np.copysign(1.0, x)
        ax = np.abs(x)
        return (
            alpha * ax ** (alpha - 1.0) * (a1 + b1 * y),
            s * ax**alpha * b1,
            s * beta * ax ** (beta - 1.0) * (a2 + b2 * y),
            ax**beta * b2,
        )

    def second(x, y):
        s = math.copysign(1.0, x)
        ax = abs(x)
        g1 = a1 + b1 * y
        g2 = a2 + b2 * y
        dxx1 = alpha * (alpha - 1.0) * _power(ax, alpha - 2.0) * s * g1
        dxy1 = alpha * _power(ax, alpha - 1.0) * b1
        dxx2 = beta * (beta - 1.0) * _power(ax, beta - 2.0) * g2
        dxy2 = s * beta * _power(ax, beta - 1.0) * b2
        d_x = np.array([[dxx1, dxy1], [dxx2, dxy2]])
        d_y = np.array([[dxy1, 0.0], [dxy2, 0.0]])
        return d_x, d_y

    return MapSpec(
        name="lorenz2d",
        parameters={
            "alpha": alpha,
            "beta": beta,
            "a1": a1,
            "b1": b1,
            "c1": c1,
            "a2": a2,
            "b2": b2,
            "c2": c2,
        },
        eval=f,
        jacobian=jac,
        second_partials=second,
        singular_set_distance=lambda x, y: abs(x),
        domain_check=lambda x, y: (abs(x) <= 4.0) & (abs(y) <= 4.0),
        has_singular_set=True,
    )


BUILTIN_MAPS: Dict[str, Callable[..., MapSpec]] = {
    "henon": henon,
    "standard": standard,
    "lorenz2d": lorenz2d,
    "linear": linear,
    "rotation": rotation,
}


def make_map(name: str, **params: float) -> MapSpec:
    """Instantiate a builtin by name; unknown parameters are rejected."""
    try:
        factory = BUILTIN_MAPS[name]
    except KeyError:
        raise KeyError(f"unknown map {name!r}; builtins: {sorted(BUILTIN_MAPS)}") from None
    return factory(**params)
