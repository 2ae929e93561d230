import dataclasses
import math

import numpy as np
import pytest

from hypcoords.cocycle import (
    MatrixCocycle,
    ScaledMatrix,
    compute_orbit,
    norm_conorm_det,
)
from hypcoords.errors import (
    IndexOutOfRange,
    OrbitEscaped,
    SingularEncounter,
    ZeroMatrix,
)
from hypcoords.planar_maps import MapSpec, henon, linear, lorenz2d, make_map, rotation

from conftest import dense, evaluate, jacobian_at, random_step_matrix


def test_scaled_matrix_representation_invariant():
    rng = np.random.default_rng(0)
    m = ScaledMatrix.from_matrix(rng.uniform(-2, 2, size=(2, 2)))
    for _ in range(200):
        m = ScaledMatrix.from_matrix(rng.uniform(-2, 2, size=(2, 2))) @ m
        top = np.abs(m.body).max()
        assert 0.5 <= top <= 2.0


def test_scaled_matrix_zero():
    z = ScaledMatrix.from_matrix(np.zeros((2, 2)))
    assert z.log_scale == 0.0 and not z.body.any()
    with pytest.raises(ZeroMatrix):
        norm_conorm_det(z)


def test_zero_step_or_zero_product_raises_zero_matrix():
    with pytest.raises(ZeroMatrix, match="step 1 is the zero matrix"):
        MatrixCocycle([np.eye(2), np.zeros((2, 2))])
    nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ZeroMatrix, match=r"product of steps 0\.\.1 is the zero matrix"):
        MatrixCocycle([nilpotent, nilpotent])


def test_scaled_product_matches_direct_product():
    rng = np.random.default_rng(1)
    for _ in range(300):
        a = rng.uniform(-2, 2, size=(2, 2))
        b = rng.uniform(-2, 2, size=(2, 2))
        direct = a @ b
        scaled = dense(ScaledMatrix.from_matrix(a) @ ScaledMatrix.from_matrix(b))
        denom = max(np.abs(direct).max(), 1e-300)
        assert np.abs(scaled - direct).max() / denom <= 1e-12


def test_diagonal_prefix_powers():
    lin = linear(2.0, 0.0, 0.0, 0.5)
    orbit = compute_orbit(lin, np.array([1.0, 1.0]), 3)
    assert np.allclose(dense(orbit.cocycle.prefix(3)), [[8.0, 0.0], [0.0, 0.125]], rtol=1e-14)


def test_henon_two_step_product_and_fd_cross_check():
    h = henon(a=1.4, b=0.3)
    orbit = compute_orbit(h, np.array([0.0, 0.0]), 2)
    assert np.allclose(orbit.points[1], [1.0, 0.0])
    assert np.allclose(orbit.points[2], [-0.4, 0.3])
    m2 = dense(orbit.cocycle.prefix(2))
    assert np.allclose(m2, [[0.3, -2.8], [0.0, 0.3]], atol=1e-14)
    # independent check: finite differences of the twice-iterated map
    eps = 1e-6

    def phi2(p):
        return evaluate(h, evaluate(h, p))

    fd = np.column_stack(
        [
            (phi2(np.array([eps, 0.0])) - phi2(np.array([-eps, 0.0]))) / (2 * eps),
            (phi2(np.array([0.0, eps])) - phi2(np.array([0.0, -eps]))) / (2 * eps),
        ]
    )
    assert np.abs(fd - m2).max() <= 1e-6


def test_lorenz2d_guard_trigger():
    lz = lorenz2d()
    # x0 chosen so the first image lands (up to rounding) on the line x = 0
    x0 = (1.0 / lz.parameters["a1"]) ** (1.0 / lz.parameters["alpha"])
    with pytest.raises(SingularEncounter) as err:
        compute_orbit(lz, np.array([x0, 0.0]), 2)
    assert err.value.index == 1


def _shift_map(has_singular_set):
    """(x, y) -> (x, y + 1/2), singular on the line y = 2.

    The distance callback is inf at (0.123456, 0.654321), so a single probe
    there would take the map for smooth.
    """
    zero = np.zeros((2, 2))
    return MapSpec(
        name="shift",
        parameters={},
        eval=lambda x, y: (x, y + 0.5),
        jacobian=lambda x, y: (1.0, 0.0, 0.0, 1.0),
        second_partials=lambda x, y: (zero.copy(), zero.copy()),
        singular_set_distance=lambda x, y: (
            math.inf if (x, y) == (0.123456, 0.654321) else abs(y - 2.0)
        ),
        has_singular_set=has_singular_set,
    )


def test_declared_singular_set_sets_default_guard():
    start = np.array([0.0, 1.0 + 1e-9])  # orbit point 2 lies within 1e-9 of y = 2
    with pytest.raises(SingularEncounter) as err:
        compute_orbit(_shift_map(True), start, 3)
    assert err.value.index == 2
    # undeclared: the default guard is 0, so only an exact hit would stop the orbit
    assert compute_orbit(_shift_map(False), start, 3).k == 3


@pytest.mark.parametrize(
    "name, guard", [("lorenz2d", 1e-8), ("henon", 0.0), ("standard", 0.0), ("linear", 0.0)]
)
def test_builtin_default_guard(name, guard):
    spec = make_map(name)
    assert spec.has_singular_set == (guard > 0.0)
    start = np.array([0.5, 0.1])

    def at_distance(d):
        return dataclasses.replace(spec, singular_set_distance=lambda x, y: d)

    assert compute_orbit(at_distance(max(1.01 * guard, 1e-12)), start, 1).k == 1
    if guard > 0.0:
        with pytest.raises(SingularEncounter):
            compute_orbit(at_distance(0.99 * guard), start, 1)


def test_orbit_escape():
    h = henon()
    with pytest.raises(OrbitEscaped) as err:
        compute_orbit(h, np.array([5.0, 5.0]), 10)
    assert err.value.index >= 1


@pytest.mark.parametrize(
    "start, index",
    [((1e308, 1e308), 1), ((float("nan"), 0.3), 0), ((0.3, float("inf")), 0)],
)
def test_non_finite_orbit_point_escapes_before_any_callback(start, index):
    # x + y overflows to inf on the first step; math.sin(inf) would raise
    with pytest.raises(OrbitEscaped) as err:
        compute_orbit(make_map("standard", K=6.0), np.array(start), 3)
    assert err.value.index == index


def test_cocycle_block_identity_and_full():
    h = henon()
    orbit = compute_orbit(h, np.array([0.1, 0.1]), 8)
    ident = orbit.cocycle.block(3, 3)
    assert ident.log_scale == 0.0
    assert np.array_equal(ident.body, np.eye(2))
    full = orbit.cocycle.block(0, 8)
    assert np.allclose(dense(full), dense(orbit.cocycle.prefix(8)), rtol=1e-13)


def test_cocycle_block_matches_direct_product():
    h = henon()
    orbit = compute_orbit(h, np.array([0.1, 0.1]), 8)
    block = dense(orbit.cocycle.block(2, 5))
    direct = orbit.cocycle.steps[4] @ orbit.cocycle.steps[3] @ orbit.cocycle.steps[2]
    assert np.abs(block - direct).max() / np.abs(direct).max() <= 1e-12
    with pytest.raises(IndexOutOfRange):
        orbit.cocycle.block(5, 2)


def test_norm_conorm_det_examples():
    nd = norm_conorm_det(ScaledMatrix.from_matrix(np.diag([2.0, 0.5])))
    assert math.isclose(nd.log_norm, math.log(2.0), rel_tol=1e-14)
    assert math.isclose(nd.log_conorm, math.log(0.5), rel_tol=1e-14)
    assert abs(nd.log_absdet) <= 1e-14
    assert nd.det_sign == 1.0

    rot = jacobian_at(rotation(0.9), np.zeros(2))
    nd = norm_conorm_det(ScaledMatrix.from_matrix(rot))
    assert abs(nd.log_norm) <= 1e-12 and abs(nd.log_conorm) <= 1e-12
    assert nd.det_sign == 1.0

    nd = norm_conorm_det(ScaledMatrix.from_matrix(np.array([[0.0, 1.0], [0.3, 0.0]])))
    assert abs(nd.log_norm) <= 1e-12
    assert math.isclose(nd.log_conorm, math.log(0.3), rel_tol=1e-12)
    assert math.isclose(nd.log_absdet, math.log(0.3), rel_tol=1e-12)
    assert nd.det_sign == -1.0


def test_norm_times_conorm_equals_absdet():
    rng = np.random.default_rng(2)
    for _ in range(500):
        m = ScaledMatrix.from_matrix(random_step_matrix(rng))
        nd = norm_conorm_det(m)
        assert abs(nd.log_norm + nd.log_conorm - nd.log_absdet) <= 1e-10


def test_singular_matrix_norm_data():
    nd = norm_conorm_det(ScaledMatrix.from_matrix(np.array([[1.0, 0.0], [0.0, 0.0]])))
    assert nd.log_conorm == float("-inf")
    assert nd.log_absdet == float("-inf")
    assert nd.det_sign == 0.0


def test_determinant_multiplicativity_along_prefixes():
    # compare the determinant extracted from the assembled product against
    # the stepwise-accumulated one; the assembled route resolves the
    # determinant only while the co-eccentricity stays well above working
    # precision, so restrict to that regime
    h = henon()
    orbit = compute_orbit(h, np.array([0.1, 0.1]), 20)
    coc = orbit.cocycle
    checked = 0
    for i in range(1, 21):
        if coc.log_coecc(i) < math.log(1e-4):
            continue
        direct = norm_conorm_det(coc.prefix(i)).log_absdet
        assert abs(direct - coc.log_absdet[i]) <= 1e-10 * max(1.0, abs(direct))
        checked += 1
    assert checked >= 3

    # a mild near-isometric cocycle keeps every order resolvable
    rng = np.random.default_rng(9)
    steps = []
    for _ in range(15):
        theta = rng.uniform(0, 2 * math.pi)
        ct, st = math.cos(theta), math.sin(theta)
        steps.append(np.array([[ct, -st], [st, ct]]) @ np.diag([1.2, 0.9]))
    coc = MatrixCocycle(steps)
    for i in range(1, 16):
        direct = norm_conorm_det(coc.prefix(i)).log_absdet
        assert abs(direct - coc.log_absdet[i]) <= 1e-10 * max(1.0, abs(direct))


def test_norm_supermultiplicativity():
    # |DPhi^(i+1)| >= |DPhi^i| * conorm(step_i)
    h = henon()
    orbit = compute_orbit(h, np.array([0.1, 0.1]), 20)
    coc = orbit.cocycle
    for i in range(20):
        lhs = coc.log_norm[i] + coc.step_log_conorm[i]
        assert lhs <= coc.log_norm[i + 1] + 1e-10


def test_scaled_matches_naive_products_up_to_k20():
    h = henon()
    orbit = compute_orbit(h, np.array([0.1, 0.1]), 20)
    naive = np.eye(2)
    for i, j in enumerate(orbit.cocycle.steps, start=1):
        naive = j @ naive
        scaled = dense(orbit.cocycle.prefix(i))
        assert np.abs(scaled - naive).max() / np.abs(naive).max() <= 1e-10


def test_random_cocycle_prefix_recursion():
    rng = np.random.default_rng(3)
    steps = [random_step_matrix(rng) for _ in range(12)]
    coc = MatrixCocycle(steps)
    for i in range(12):
        lhs = dense(ScaledMatrix.from_matrix(steps[i]) @ coc.prefix(i))
        rhs = dense(coc.prefix(i + 1))
        assert np.abs(lhs - rhs).max() / np.abs(rhs).max() <= 1e-12


def test_scaled_products_survive_where_naive_overflows():
    # strongly expanding standard-map products overflow doubles near
    # k ~ 650; the scaled representation keeps norms finite in log form
    from hypcoords.planar_maps import standard

    from conftest import STANDARD_FIXTURE, STANDARD_K

    orbit = compute_orbit(standard(K=STANDARD_K), STANDARD_FIXTURE, 700)
    coc = orbit.cocycle
    naive = np.eye(2)
    overflowed_at = None
    with np.errstate(over="ignore"):
        for i, j in enumerate(coc.steps, start=1):
            naive = j @ naive
            if not np.isfinite(naive).all():
                overflowed_at = i
                break
    assert overflowed_at is not None
    assert math.isfinite(coc.log_norm[700])
    assert 0.5 <= np.abs(coc.prefix(700).body).max() <= 2.0
    from hypcoords.hypframe import hyperbolic_coordinates

    frame = hyperbolic_coordinates(orbit, 700)
    assert math.isfinite(frame.log_sigma_max)
    assert frame.coecc < 1e-100


def test_step_log_absdet_of_steps_whose_raw_determinant_overflows():
    coc = MatrixCocycle([np.diag([1e160, 1e155]), np.diag([0.5, 0.25])])
    assert coc.step_log_absdet[0] == pytest.approx(315.0 * math.log(10.0), rel=1e-12)
    assert coc.step_log_absdet[1] == math.log(0.125)
    assert coc.log_absdet == [0.0, coc.step_log_absdet[0], coc.step_log_absdet[0] + math.log(0.125)]
