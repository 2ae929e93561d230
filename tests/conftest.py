import math

import numpy as np
import pytest
from hypothesis import settings

from hypcoords import compute_orbit, make_map
from hypcoords.planar_maps import MapSpec

# Tier-1 checks the same inputs on every run: the "fixed" profile derives each
# test's examples from its name and keeps no database of earlier failures.
# ``pytest --hypothesis-profile=explore`` draws fresh examples instead; an
# input that fails there becomes an ``@example`` of its test.
settings.register_profile("fixed", derandomize=True, database=None)
settings.register_profile("explore")


def pytest_configure(config):
    # hypothesis loads a profile named on the command line in its own
    # pytest_configure, which may run before this one
    settings.load_profile(config.getoption("hypothesis_profile", None) or "fixed")


# Regression fixture on the Henon attractor: 635 iterations from (0.1, 0.1)
# with the repo-default parameters a = 1.4, b = 0.3.  Chosen (by a one-off
# scan) so the flavor-II fit at slack 1.05 is feasible for k <= 20 and the
# whole slow-variation chain passes for k <= 8.
HENON_FIXTURE = np.array([0.7058109212783455, 0.019317772022865685])
HENON_BURN_IN = 635
# The fixture iterated 2,073 and 2,080 times: at k = 80 a forward push of the
# contracted direction is off there by more than 100 in log.
HENON_START_A = np.array([0.6985013692329781, -0.010485509461833464])
HENON_START_B = np.array([-0.8104708147484793, 0.3310660637099755])

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
    """Phi(p) as an array, from the map's callback on the two floats of p."""
    return np.array(spec.eval(float(p[0]), float(p[1])))


def jacobian_matrix(entries):
    """The 2x2 Jacobian from the entries (j11, j12, j21, j22) of a point."""
    return np.array(entries, dtype=float).reshape(2, 2)


def jacobian_at(spec, p):
    """DPhi(p) as a 2x2 matrix, from the map's callback on the two floats of p."""
    return jacobian_matrix(spec.jacobian(float(p[0]), float(p[1])))


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
