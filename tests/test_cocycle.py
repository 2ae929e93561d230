import dataclasses
import itertools
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hypcoords import linalg2
from hypcoords.cocycle import (
    ORBIT_DERIVATIVES,
    ORBIT_DOMAIN,
    ORBIT_SINGULAR,
    MatrixCocycle,
    ScaledMatrix,
    cocycle,
    compute_orbit,
    guard_limit,
    measure_steps,
    norm_conorm_det,
)
from hypcoords.errors import (
    IndexOutOfRange,
    InvalidInput,
    OrbitEscaped,
    SingularEncounter,
    ZeroDeterminant,
    ZeroMatrix,
)
from hypcoords.planar_maps import MapSpec, henon, linear, lorenz2d, make_map, rotation

from conftest import (
    dense,
    evaluate,
    jacobian_at,
    make_cubic_map,
    random_cocycle,
    random_step_matrix,
)
from test_bounds import fuzz_steps


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
    # a zero step is named before a zero product of the steps before it
    with pytest.raises(ZeroMatrix, match="^step 2 is the zero matrix$"):
        MatrixCocycle([nilpotent, nilpotent, np.zeros((2, 2))])
    with pytest.raises(ZeroMatrix, match=r"^product of steps 0\.\.2 is the zero matrix$"):
        MatrixCocycle([np.eye(2), nilpotent, nilpotent])


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
    # undeclared: the guard does not run, so not even an exact hit stops the orbit
    assert compute_orbit(_shift_map(False), start, 3).k == 3


def test_singular_set_distance_runs_only_on_a_map_that_declares_a_singular_set():
    def never(x, y):
        raise AssertionError("singular_set_distance called")

    spec = dataclasses.replace(_shift_map(False), singular_set_distance=never)
    start = np.array([0.0, 1.0])  # orbit point 2 lies exactly on y = 2
    assert compute_orbit(spec, start, 3).k == 3
    assert compute_orbit(spec, start, 3, guard=0.5).k == 3
    with pytest.raises(SingularEncounter) as err:
        compute_orbit(_shift_map(True), start, 3, guard=0.0)
    assert err.value.index == 2


@pytest.mark.parametrize("start, shape", [([0.1], "(1,)"), ([0.1, 0.2, 0.3], "(3,)"),
                                          ([[0.1, 0.2]], "(1, 2)"), (0.1, "()")])
def test_orbit_start_must_be_two_coordinates(start, shape):
    with pytest.raises(InvalidInput, match=rf"^orbit start has shape {re.escape(shape)}; expected \(2,\)$"):
        compute_orbit(henon(), np.array(start), 3)


@pytest.mark.parametrize("k", [0, -1, 2.5, True, "3", None])
def test_orbit_order_must_be_an_int_from_one(k):
    with pytest.raises(InvalidInput, match=rf"^orbit order k must be an int >= 1, got {re.escape(repr(k))}$"):
        compute_orbit(henon(), np.array([0.1, 0.1]), k)
    assert compute_orbit(henon(), np.array([0.1, 0.1]), np.int64(2)).k == 2


@pytest.mark.parametrize("steps, message", [
    ([], "cocycle needs one or more 2x2 step matrices"),
    (np.eye(2), "cocycle needs one or more 2x2 step matrices"),
    ([np.eye(3)], "cocycle needs one or more 2x2 step matrices"),
    ([np.eye(2), np.eye(3)], "cocycle needs one or more 2x2 step matrices"),
    ([np.ones(4)], "cocycle needs one or more 2x2 step matrices"),
    ([np.eye(2), np.array([[math.nan, 1.0], [0.0, 1.0]])], "cocycle steps have a non-finite entry"),
    ([np.array([[1.0, -math.inf], [0.0, 1.0]])], "cocycle steps have a non-finite entry"),
])
def test_cocycle_steps_must_be_finite_2x2_matrices(steps, message):
    with pytest.raises(InvalidInput, match=f"^{message}$"):
        MatrixCocycle(steps)


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


@pytest.mark.parametrize("guard", [math.nan, -1.0, math.inf, -math.inf])
def test_guard_is_none_or_finite_and_nonnegative(guard):
    # a NaN guard never fired, and a negative one became 1e-300
    message = f"^guard must be finite and >= 0, got {guard!r}$"
    with pytest.raises(InvalidInput, match=message):
        compute_orbit(lorenz2d(), np.array([1e-12, 0.1]), 3, guard=guard)
    with pytest.raises(InvalidInput, match=message):
        guard_limit(henon(), guard)
    assert (guard_limit(lorenz2d(), None), guard_limit(henon(), None), guard_limit(henon(), 0.0)) == (
        1e-8, 1e-300, 1e-300)
    with pytest.raises(SingularEncounter):
        compute_orbit(lorenz2d(), np.array([1e-12, 0.1]), 3)


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


def test_map_callback_overflow_escapes_the_orbit():
    # the orbit pass calls the cubic's callbacks on arrays, where its powers
    # overflow to inf, not to OverflowError: point 14 ends the orbit through
    # the rule on non-finite derivatives
    with pytest.raises(OrbitEscaped) as err:
        compute_orbit(make_cubic_map(np.random.default_rng(4)), np.array([0.2535, 0.0381]), 32)
    assert (err.value.index, str(err.value)) == (14, "orbit point 14 has non-finite derivatives")

    def overflowing(x, y):
        raise OverflowError("math range error")

    h = henon()
    with pytest.raises(OrbitEscaped) as err:
        compute_orbit(dataclasses.replace(h, eval=overflowing), np.array([0.1, 0.1]), 3)
    assert (err.value.index, str(err.value)) == (1, "orbit point 1 left the domain")


def _doubling(jacobian=None, eval=None):
    """(x, y) -> (2 x, y) on |x|, |y| < 4, with optional callbacks swapped in."""
    zero = np.zeros((2, 2))
    spec = MapSpec(
        name="doubling",
        parameters={},
        eval=lambda x, y: (2.0 * x, y),
        jacobian=lambda x, y: (2.0, 0.0, 0.0, 1.0),
        second_partials=lambda x, y: (zero.copy(), zero.copy()),
        domain_check=lambda x, y: (abs(x) < 4.0) & (abs(y) < 4.0),
    )
    return dataclasses.replace(spec, **{name: f for name, f in (("jacobian", jacobian), ("eval", eval)) if f})


def _raising_past_one(x, y):
    if np.any(np.abs(x) > 1.0):
        raise OverflowError("math range error")
    return 2.0, 0.0, 0.0, 1.0


def test_one_orbit_pass_for_many_starts_equals_compute_orbit_per_start():
    spec = lorenz2d()
    hit = (1.0 / spec.parameters["a1"]) ** (1.0 / spec.parameters["alpha"])  # image on x = 0
    starts = np.array([[0.3, 0.2], [hit, 0.0], [5.0, 0.0], [1e-250, 0.1], [-0.4, 0.1], [math.nan, 0.0]])
    stops, orders, points, jacobians, seconds = cocycle(spec, starts, 3, 0.0)
    assert stops.tolist() == [0, ORBIT_SINGULAR, ORBIT_DOMAIN, ORBIT_DERIVATIVES, 0, ORBIT_DOMAIN]
    assert orders.tolist() == [3, 1, 0, 0, 3, 0]
    assert (points.shape, jacobians.shape, seconds.shape) == ((4, 6, 2), (3, 6, 2, 2), (3, 6, 2, 2, 2))
    for j, start in enumerate(starts):
        if stops[j]:
            with pytest.raises((OrbitEscaped, SingularEncounter)) as err:
                compute_orbit(spec, start, 3, 0.0)
            assert err.value.index == orders[j]
            continue
        orbit = compute_orbit(spec, start, 3, 0.0)
        assert orbit.points.tobytes() == points[:, j].tobytes()
        assert np.array(orbit.cocycle.steps).tobytes() == jacobians[:, j].tobytes()
        assert orbit.step_second_partials.tobytes() == seconds[:, j].tobytes()
        for i, p in enumerate(orbit.points[:-1]):
            assert np.array(spec.second_partials(*p.tolist())).tobytes() == orbit.step_second_partials[i].tobytes()


def test_overflow_in_a_derivative_ends_every_orbit_running_at_that_order():
    # the batched call raises; order by order, order 2 is the first that does
    spec = _doubling(jacobian=_raising_past_one)
    stops, orders, _, jacobians, _ = cocycle(spec, np.array([[0.3, 0.0], [0.1, 0.0], [5.0, 0.0]]), 5, None)
    assert stops.tolist() == [ORBIT_DERIVATIVES, ORBIT_DERIVATIVES, ORBIT_DOMAIN]
    assert orders.tolist() == [2, 2, 0]
    assert not np.isfinite(jacobians[2:]).any() and np.isfinite(jacobians[:2, :2]).all()
    for start, index in (((0.3, 0.0), 2), ((0.1, 0.0), 4)):
        with pytest.raises(OrbitEscaped) as err:
            compute_orbit(spec, np.array(start), 5)
        assert (err.value.index, str(err.value)) == (index, f"orbit point {index} has non-finite derivatives")


def test_overflow_in_eval_ends_every_orbit_running_at_that_order():
    def raising_past_one(x, y):
        if np.any(np.abs(x) > 1.0):
            raise OverflowError("math range error")
        return 2.0 * x, y

    stops, orders, points, jacobians, _ = cocycle(
        _doubling(eval=raising_past_one), np.array([[0.3, 0.0], [0.1, 0.0], [5.0, 0.0]]), 5, None)
    # at order 2, 0.3 has become 1.2: both running orbits escape at order 3
    assert stops.tolist() == [ORBIT_DOMAIN] * 3
    assert orders.tolist() == [3, 3, 0]
    assert np.isnan(points[3:]).all() and not np.isnan(jacobians[:3, :2]).any()


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


@pytest.mark.parametrize("scale, expected", [(1e9, -20.72), (1e20, -46.05), (1e60, -138.16)])
def test_step_conorm_below_closed_form_resolution_is_det_over_norm(scale, expected):
    # q - r of the closed-form SVD cancels to 0 for these steps
    coc = MatrixCocycle([np.diag([scale, 1.0 / scale])])
    assert linalg2.svd2_matrix(coc.steps[0]).smin == 0.0
    assert coc.step_log_conorm[0] == coc.step_log_absdet[0] - coc.step_log_norm[0]
    assert round(coc.step_log_conorm[0], 2) == expected
    assert MatrixCocycle([np.diag([scale, 0.0])]).step_log_conorm == [-math.inf]


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


def test_det2_of_a_stack_is_the_det2_of_each_matrix():
    rng = np.random.default_rng(7)
    stack = np.ldexp(rng.standard_normal((6, 50, 2, 2)), rng.integers(-600, 600, (6, 50, 1, 1)))
    stack[0, :4] = [np.zeros((2, 2)), np.eye(2), [[1e300, 1e300], [-1e300, 1e300]], [[math.inf, 1], [1, 1]]]
    with np.errstate(all="ignore"):
        dets = linalg2.det2(stack)
        assert dets.shape == (6, 50)
        for index in np.ndindex(6, 50):
            a, b, c, d = stack[index].ravel().tolist()
            det = linalg2.det2(stack[index])
            assert type(det) is float
            assert det.hex() == dets[index].item().hex() == (a * d - b * c).hex()


# ---------------------------------------------------------------------------
# The cocycle's array passes against the scalar closed forms
# ---------------------------------------------------------------------------


def _scalar_log_abs_det(step):
    """log |det step| from the raw determinant, or from the scaled body when
    the raw one is not a normal float."""
    a, b, c, d = step.ravel().tolist()
    det = abs(a * d - b * c)
    if math.isfinite(det) and det >= sys.float_info.min:
        return np.log(det)
    m = _scalar_scaled(step, 0.0)
    body_det = abs(linalg2.det2(m.body))
    return np.log(body_det) + 2.0 * m.log_scale if body_det > 0.0 else float("-inf")


def _scalar_scaled(body, log_scale):
    """body scaled by the power of two that brings max |entry| into [1/2, 1)."""
    m = float(np.abs(body).max())
    if m == 0.0:
        return ScaledMatrix(np.zeros((2, 2)), 0.0)
    _, e = math.frexp(m)
    return ScaledMatrix(np.ldexp(body, -e), log_scale + e * math.log(2.0))


def _scalar_apply(m, v):
    """The image of v under a ScaledMatrix as (unit direction, log norm), one
    vector at a time: the reference for ``MatrixCocycle.images``."""
    w = m.body @ v
    n = np.hypot(float(w[0]), float(w[1]))
    if n == 0.0:
        return np.zeros(2), float("-inf")
    return w / n, np.log(n) + m.log_scale


def _scalar_cocycle(steps, v):
    """What MatrixCocycle stores, and the images of v, one element at a time
    with the scalar closed forms (2x2 products scaled one at a time,
    ``svd2_matrix``, ``_scalar_apply``), as reprs; or the InvalidInput of a
    non-finite step or of a step with an entry lost to its scaling, or the
    ZeroMatrix a zero step or product raises, steps first."""
    steps = [np.array(s, dtype=float) for s in steps]
    if not all(np.isfinite(s).all() for s in steps):
        raise InvalidInput("cocycle steps have a non-finite entry")
    scaled = [_scalar_scaled(s, 0.0) for s in steps]
    for j, (s, m) in enumerate(zip(steps, scaled)):
        if any(x != 0.0 and abs(y) < 2.0**-1022 for x, y in zip(s.ravel(), m.body.ravel())):
            raise InvalidInput(f"step {j} has a nonzero entry below 2^-1022 once scaled")
    prefixes = [ScaledMatrix(np.eye(2), 0.0)]
    for s in scaled:
        last = prefixes[-1]
        prefixes.append(_scalar_scaled(s.body @ last.body, s.log_scale + last.log_scale))
    step_svd = [linalg2.svd2_matrix(s) for s in steps]
    for j, s in enumerate(step_svd):
        if s.smax == 0.0:
            raise ZeroMatrix(f"step {j} is the zero matrix")
    step_log_absdet = [_scalar_log_abs_det(s) for s in steps]
    log_absdet = list(itertools.accumulate(step_log_absdet, initial=0.0))
    log_norm, contracted = [0.0], [linalg2.canonical_sign(linalg2.svd2_matrix(np.eye(2)).v_min)]
    for i in range(1, len(steps) + 1):
        s = linalg2.svd2_matrix(prefixes[i].body)
        if s.smax == 0.0:
            raise ZeroMatrix(f"product of steps 0..{i - 1} is the zero matrix")
        log_norm.append(np.log(s.smax) + prefixes[i].log_scale)
        contracted.append(linalg2.canonical_sign(s.v_min))
    images = [_scalar_apply(p, v) for p in prefixes]
    return _reprs(
        step_log_norm=[np.log(s.smax) for s in step_svd],
        # a cancelled closed-form co-norm is |det| / norm, as for the orders
        step_log_conorm=[
            np.log(s.smin) if s.smin > 0.0 else d - np.log(s.smax) if math.isfinite(d) else -math.inf
            for s, d in zip(step_svd, step_log_absdet)
        ],
        step_log_absdet=step_log_absdet,
        step_bodies=[s.body for s in scaled],
        step_log_scales=[s.log_scale for s in scaled],
        prefix_bodies=[p.body for p in prefixes],
        prefix_log_scales=[p.log_scale for p in prefixes],
        log_norm=log_norm,
        log_conorm=[d - n for d, n in zip(log_absdet, log_norm)],
        log_absdet=log_absdet,
        contracted=contracted,
        image_directions=[w for w, _ in images],
        image_log_norms=[w_log for _, w_log in images],
    )


def _reprs(**fields):
    """Each field as the reprs of its floats in order: equal reprs are equal bits
    up to the payload of a NaN."""
    def flat(x):
        if isinstance(x, (list, tuple)):
            return [y for item in x for y in flat(item)]
        return [repr(y) for y in np.ravel(x).tolist()]

    return {name: flat(value) for name, value in fields.items()}


def _stored(steps, v):
    coc = MatrixCocycle(steps)
    k = coc.k
    directions, log_norms = coc.images(v, range(k + 1))
    lists = ("step_log_norm", "step_log_conorm", "step_log_absdet", "log_norm", "log_conorm",
             "log_absdet")
    assert all(type(x) is float for name in lists for x in getattr(coc, name))
    return _reprs(
        **{name: getattr(coc, name) for name in lists},
        step_bodies=coc.step_bodies,
        step_log_scales=coc.step_log_scales,
        prefix_bodies=[coc.prefix(i).body for i in range(k + 1)],
        prefix_log_scales=[coc.prefix(i).log_scale for i in range(k + 1)],
        contracted=coc.contracted,
        image_directions=directions,
        image_log_norms=log_norms,
    )


def _outcome(compute, steps, v):
    try:
        with np.errstate(all="ignore"):  # ScaledMatrix products of non-finite steps warn
            return compute(steps, v)
    except (InvalidInput, ZeroMatrix) as exc:
        return str(exc)


_VECTORS = st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)).map(np.array)


@settings(max_examples=200, deadline=None)
@given(st.lists(fuzz_steps(), min_size=1, max_size=6), _VECTORS)
@example([np.zeros((2, 2)), np.array([[0.0, 1.0], [0.0, 0.0]])], np.array([1.0, 0.0]))
@example([np.array([[0.0, 1.0], [0.0, 0.0]])] * 2, np.array([1.0, 0.0]))
@example([np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2))], np.array([0.6, 0.8]))
@example([np.diag([1.0, 0.0])], np.array([0.0, 1.0]))  # a zero image
@example([np.diag([1e300, 1e-300]), np.diag([1e300, 1e300])], np.array([1.0, 0.0]))
@example([np.array([[1.5e308, -1.5e308], [1.5e308, 1.5e308]])], np.array([1.0, 0.5]))
@example([np.array([[math.inf, 1.0], [0.0, 1.0]]), np.eye(2)], np.array([1.0, 1.0]))
@example([np.array([[math.nan, 1.0], [0.0, 1.0]])], np.array([0.0, 1.0]))
def test_stored_cocycle_equals_scalar_closed_forms_on_fuzzed_steps(steps, v):
    assert _outcome(_stored, steps, v) == _outcome(_scalar_cocycle, steps, v)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), _VECTORS)
def test_stored_cocycle_equals_scalar_closed_forms_on_random_cocycles(seed, v):
    steps = random_cocycle(np.random.default_rng(seed), max_len=24).steps
    assert _stored(steps, v) == _scalar_cocycle(steps, v)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_images_push_one_vector_per_order_as_apply(seed, data):
    coc = random_cocycle(np.random.default_rng(seed), max_len=12)
    orders = data.draw(st.lists(st.integers(0, coc.k), min_size=1, max_size=20))
    vectors = np.array(data.draw(st.lists(_VECTORS, min_size=len(orders), max_size=len(orders))))
    directions, log_norms = coc.images(vectors, orders)
    applied = [_scalar_apply(coc.prefix(i), w) for i, w in zip(orders, vectors)]
    assert _reprs(directions=directions, log_norms=log_norms) == _reprs(
        directions=[w for w, _ in applied], log_norms=[w_log for _, w_log in applied])


_MEASURED = ("step_bodies", "step_log_scales", "step_log_absdet", "zero_steps", "lost_steps",
             "prefix_bodies", "prefix_log_scales")


def _assert_batch_measures_each_orbit(orbits):
    """``measure_steps`` of the (k, m, 2, 2) stack of m orbits equals, slice by
    slice, the call on each orbit alone and what MatrixCocycle stores, bit for
    bit; a zero step is one whose closed-form SVD is zero, a lost step one
    with a nonzero entry below 2^-1022 once scaled."""
    batch = measure_steps(np.stack(orbits, axis=1))
    for i, steps in enumerate(orbits):
        alone = dict(zip(_MEASURED, measure_steps(steps)))
        assert _reprs(**dict(zip(_MEASURED, (x[:, i] for x in batch)))) == _reprs(**alone), i
        zero = [linalg2.svd2_matrix(s).smax == 0.0 for s in steps]
        assert alone["zero_steps"].tolist() == zero
        lost = [bool(((s != 0.0) & (np.abs(body) < 2.0**-1022)).any())
                for s, body in zip(steps, alone["step_bodies"])]
        assert alone["lost_steps"].tolist() == lost
        try:
            with np.errstate(all="ignore"):
                coc = MatrixCocycle(steps)
        except InvalidInput as exc:
            assert str(exc) == f"step {lost.index(True)} has a nonzero entry below 2^-1022 once scaled"
            continue
        except ZeroMatrix as exc:
            assert not any(lost)
            assert str(exc).startswith(f"step {zero.index(True)} " if any(zero) else "product of steps")
            continue
        stored = {name: getattr(coc, name) for name in _MEASURED if name not in ("zero_steps", "lost_steps")}
        del alone["zero_steps"], alone["lost_steps"]
        assert _reprs(**stored) == _reprs(**alone), i


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda k: st.lists(st.lists(fuzz_steps(), min_size=k, max_size=k), min_size=1, max_size=4)))
@example([[np.diag([1e160, 1e155]), np.eye(2)], [np.diag([5e-324, 0.0]), np.eye(2)],
          [np.diag([1e-310, 2e-310]), np.eye(2)], [np.array([[0.0, 1.0], [0.0, 0.0]])] * 2])
def test_batched_step_measurement_equals_each_orbit_on_fuzzed_steps(orbits):
    _assert_batch_measures_each_orbit([np.array(steps) for steps in orbits])


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_batched_step_measurement_equals_each_orbit_on_random_cocycles(seed, m):
    rng = np.random.default_rng(seed)
    orbits = [np.array(random_cocycle(rng, max_len=12).steps) for _ in range(m)]
    k = min(len(steps) for steps in orbits)
    _assert_batch_measures_each_orbit([steps[:k] for steps in orbits])


_ORDERS_OF = {
    "images": lambda coc, orders: coc.images(np.array([1.0, 0.0]), orders),
    "contracted_images": lambda coc, orders: coc.contracted_images(orders),
}


@pytest.mark.parametrize("method", list(_ORDERS_OF))
def test_orders_are_checked_before_they_index_the_products(method):
    coc = MatrixCocycle([np.diag([2.0, 0.5])] * 3)
    directions, log_norms = _ORDERS_OF[method](coc, np.arange(4))
    assert len(directions) == len(log_norms) == 4
    for orders, bad in (([-1], -1), ([4], 4), ([0, 2, 5], 5)):
        with pytest.raises(IndexOutOfRange, match=f"^order {bad} outside 0..3$"):
            _ORDERS_OF[method](coc, orders)
    for orders in ([1.5], [True], np.array([1.0]), 2.0, [[1]]):
        with pytest.raises(InvalidInput, match="^order must be an int, got "):
            _ORDERS_OF[method](coc, orders)


def test_no_pull_back_through_a_singular_step():
    singular = np.array([[1.0, 0.0], [0.0, 0.0]])
    coc = MatrixCocycle([np.diag([2.0, 0.5]), singular, np.diag([2.0, 0.5]), singular])
    directions, log_norms = coc.contracted_images([0, 1])
    assert np.isfinite(directions[1, :2]).all() and math.isclose(log_norms[1, 1], math.log(0.5))
    for orders in ([2], [1, 4], [3]):
        with pytest.raises(ZeroDeterminant, match=r"^det DPhi\^2 is zero: determinant-normalized"):
            coc.contracted_images(orders)
