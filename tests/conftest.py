import math

import numpy as np
import pytest

from hypcoords import compute_orbit, make_map
from hypcoords.planar_maps import MapSpec, jacobian_matrix

# Regression fixture on the Henon attractor: 635 iterations from (0.1, 0.1)
# with the repo-default parameters a = 1.4, b = 0.3.  Chosen (by a one-off
# scan) so the flavor-II fit at slack 1.05 is feasible for k <= 20 and the
# whole slow-variation chain passes for k <= 8.
HENON_FIXTURE = np.array([0.7058109212783455, 0.019317772022865685])
HENON_BURN_IN = 635

# Standard-map fixture in the strongly chaotic regime (K = 6): one iterate
# of (0.5, 0.3); flavor-II feasible at k = 12.
STANDARD_K = 6.0
STANDARD_FIXTURE = np.array([3.676553231625218, 3.176553231625218])

# Lorenz-like fixture: the endpoint of the 60-step orbit of (0.3, 0.2) under
# the default lorenz2d, whose powers of |x| go through numpy.
LORENZ_START = np.array([0.3, 0.2])
LORENZ_K = 60
LORENZ_FIXTURE = np.array([0.2916092987128571, -0.04250950927462577])

# Small-kick elliptic island point: no co-eccentricity decay, fits fail.
ISLAND_K = 0.5
ISLAND_START = np.array([math.pi + 0.3, 0.0])


@pytest.fixture(scope="session")
def henon():
    return make_map("henon", a=1.4, b=0.3)


@pytest.fixture(scope="session")
def henon_orbit20(henon):
    return compute_orbit(henon, HENON_FIXTURE, 20)


@pytest.fixture(scope="session")
def henon_orbit8(henon):
    return compute_orbit(henon, HENON_FIXTURE, 8)


@pytest.fixture(scope="session")
def diag_map():
    return make_map("linear", m11=2.0, m22=0.5)


@pytest.fixture(scope="session")
def diag_orbit(diag_map):
    return compute_orbit(diag_map, np.array([1.0, 1.0]), 20)


def dense(m):
    """The matrix a ScaledMatrix stands for; only safe when exp(log_scale) fits a double."""
    return math.exp(m.log_scale) * m.body


def evaluate(spec, p):
    """Phi(p), with the domain and singular-set checks of MapSpec.second_partials_at."""
    x, y = spec._guard(p)
    return np.array(spec.eval(x, y))


def jacobian_at(spec, p):
    """DPhi(p) as a 2x2 matrix, with the checks of ``evaluate``."""
    x, y = spec._guard(p)
    return jacobian_matrix(spec.jacobian(x, y))


def random_step_matrix(rng: np.random.Generator, coecc_max: float = 0.9, conorm_min: float = 0.05):
    """Seeded random 2x2 step: entries in [-2, 2], bounded distortion."""
    from hypcoords.linalg2 import svd2_matrix

    while True:
        m = rng.uniform(-2.0, 2.0, size=(2, 2))
        s = svd2_matrix(m)
        if s.smin >= conorm_min and s.smin / s.smax < coecc_max:
            return m


def random_cocycle(rng: np.random.Generator, max_len: int = 15):
    from hypcoords.cocycle import MatrixCocycle
    from hypcoords.hypframe import EPS_COECC

    while True:
        length = int(rng.integers(2, max_len + 1))
        coc = MatrixCocycle([random_step_matrix(rng) for _ in range(length)])
        if all(
            coc.log_coecc(i) < math.log(1.0 - EPS_COECC) for i in range(1, length + 1)
        ):
            return coc


def make_cubic_map(rng: np.random.Generator, scale: float = 0.5) -> MapSpec:
    """Random bivariate cubic map with exact derivative callbacks."""
    # coefficients c[j][m][n] of x^m y^n for component j, m + n <= 3
    coef = scale * rng.uniform(-1.0, 1.0, size=(2, 4, 4))
    for j in range(2):
        for m in range(4):
            for n in range(4):
                if m + n > 3:
                    coef[j, m, n] = 0.0

    def value(j, x, y, dm=0, dn=0):
        total = 0.0
        for m in range(dm, 4):
            for n in range(dn, 4):
                c = coef[j, m, n]
                if c == 0.0:
                    continue
                fac = 1.0
                for t in range(dm):
                    fac *= m - t
                for t in range(dn):
                    fac *= n - t
                total += c * fac * x ** (m - dm) * y ** (n - dn)
        return total

    def f(x, y):
        return (value(0, x, y), value(1, x, y))

    def jac(x, y):
        return (
            value(0, x, y, 1, 0),
            value(0, x, y, 0, 1),
            value(1, x, y, 1, 0),
            value(1, x, y, 0, 1),
        )

    def second(x, y):
        d_x = np.array(
            [
                [value(0, x, y, 2, 0), value(0, x, y, 1, 1)],
                [value(1, x, y, 2, 0), value(1, x, y, 1, 1)],
            ]
        )
        d_y = np.array(
            [
                [value(0, x, y, 1, 1), value(0, x, y, 0, 2)],
                [value(1, x, y, 1, 1), value(1, x, y, 0, 2)],
            ]
        )
        return d_x, d_y

    return MapSpec(
        name="cubic",
        parameters={},
        eval=f,
        jacobian=jac,
        second_partials=second,
    )
