import math
import re
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hypcoords import hypframe, linalg2
from hypcoords.cocycle import MatrixCocycle, ScaledMatrix, cocycle_of, compute_orbit
from hypcoords.errors import (
    ConformalDegenerate,
    InvalidInput,
    NoHyperbolicCoordinates,
    ZeroMatrix,
)
from hypcoords.hypframe import (
    angle_theta,
    frame_from_scaled,
    frame_sequence,
    hyperbolic_coordinates,
    oracle_extremal_directions,
)
from hypcoords.linalg2 import det2, line_angle_distance, svd2_matrix
from hypcoords.planar_maps import henon, linear, rotation

from conftest import dense, jacobian_at, random_step_matrix


def scaled(m):
    return ScaledMatrix.from_matrix(np.asarray(m, dtype=float))


def test_svd2_diagonal():
    s = frame_from_scaled(scaled(np.diag([3.0, 1.0])))
    assert math.isclose(s.log_sigma_max, math.log(3.0), rel_tol=1e-14)
    assert abs(s.log_sigma_min) <= 1e-14
    assert min(np.abs(s.f - [1, 0]).max(), np.abs(s.f + [1, 0]).max()) <= 1e-14
    assert min(np.abs(s.e - [0, 1]).max(), np.abs(s.e + [0, 1]).max()) <= 1e-14


def test_svd2_antidiagonal():
    s = frame_from_scaled(scaled([[0.0, 1.0], [0.3, 0.0]]))
    assert abs(s.log_sigma_max) <= 1e-14
    assert math.isclose(s.log_sigma_min, math.log(0.3), rel_tol=1e-12)
    assert min(np.abs(s.f - [0, 1]).max(), np.abs(s.f + [0, 1]).max()) <= 1e-14
    assert min(np.abs(s.e - [1, 0]).max(), np.abs(s.e + [1, 0]).max()) <= 1e-14


def test_svd2_matches_numpy_on_random_matrices():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        m = rng.uniform(-3, 3, size=(2, 2))
        s = frame_from_scaled(scaled(m))
        sv = np.linalg.svd(m, compute_uv=False)
        assert math.isclose(math.exp(s.log_sigma_max), sv[0], rel_tol=1e-12)
        if sv[1] > 1e-12:
            assert math.isclose(math.exp(s.log_sigma_min), sv[1], rel_tol=1e-9)
        # image norms certify the directions without reference to numpy's
        assert math.isclose(
            np.linalg.norm(m @ s.f), math.exp(s.log_sigma_max), rel_tol=1e-12
        )


def test_svd2_closed_of_a_stack_is_each_matrix_alone_bit_for_bit():
    rng = np.random.default_rng(2)
    for scale in (1.0, 1e-300, 1e300):
        entries = rng.uniform(-3, 3, size=(4, 200)) * scale
        entries[:, :4] = [[0.0, 1.0, 0.0, -0.0], [0.0, 0.0, 2.0, 0.0], [0.0, 0.0, 2.0, 5e-324], [0.0, 1.0, 0.0, 0.0]]
        stacked = linalg2.svd2_closed(*entries)
        alone = [linalg2.svd2_closed(*m) for m in entries.T.tolist()]
        for field, values in zip(linalg2.Svd2._fields, stacked):
            assert values.tobytes() == np.array([getattr(s, field) for s in alone]).tobytes(), field
        assert stacked.v_min.tobytes() == np.array([s.v_min for s in alone]).tobytes()


def test_frame_sign_convention_and_orthogonality():
    rng = np.random.default_rng(1)
    for _ in range(500):
        frame = frame_from_scaled(scaled(random_step_matrix(rng)))
        assert frame.e[1] > 0.0 or (frame.e[1] == 0.0 and frame.e[0] > 0.0)
        assert np.allclose(frame.f, [frame.e[1], -frame.e[0]])
        assert abs(np.dot(frame.e, frame.f)) <= 1e-12
        assert abs(np.linalg.norm(frame.e) - 1.0) <= 1e-12
        assert abs(np.linalg.norm(frame.f) - 1.0) <= 1e-12
        assert math.isclose(
            frame.coecc,
            math.exp(frame.log_sigma_min - frame.log_sigma_max),
            rel_tol=1e-12,
        )


def test_diagonal_orbit_frame():
    lin = linear(2.0, 0.0, 0.0, 0.5)
    orbit = compute_orbit(lin, np.array([1.0, 1.0]), 4)
    frame = hyperbolic_coordinates(orbit, 4)
    assert np.allclose(frame.e, [0.0, 1.0])
    assert np.allclose(frame.f, [1.0, 0.0])
    assert math.isclose(frame.coecc, 2.0**-8, rel_tol=1e-12)


def test_identity_orbit_has_no_frame():
    orbit = compute_orbit(linear(), np.array([0.5, 0.5]), 3)
    with pytest.raises(NoHyperbolicCoordinates):
        hyperbolic_coordinates(orbit, 2)


def test_rotation_has_no_frame():
    with pytest.raises(NoHyperbolicCoordinates):
        frame_from_scaled(scaled(jacobian_at(rotation(0.77), np.zeros(2))))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_matrix_has_no_frame(bad):
    m = np.array([[1.0, bad], [0.5, 2.0]])
    with pytest.raises(InvalidInput, match="^matrix has a non-finite entry$"):
        ScaledMatrix.from_matrix(m)
    for scaled_m in (ScaledMatrix(m, 0.0), ScaledMatrix(np.eye(2), bad)):
        with pytest.raises(InvalidInput, match="^matrix has a non-finite entry$"):
            frame_from_scaled(scaled_m)


def test_henon_k2_coecc_vs_grid_oracle():
    h = henon(a=1.4, b=0.3)
    orbit = compute_orbit(h, np.array([0.0, 0.0]), 2)
    frame = hyperbolic_coordinates(orbit, 2)
    # co-eccentricity equals |det| / sigma_max^2 with |det| = 0.09
    assert math.isclose(frame.coecc, 0.09 / math.exp(2 * frame.log_sigma_max), rel_tol=1e-10)
    oracle = oracle_extremal_directions(orbit.cocycle.prefix(2).body, 10**6)
    assert math.isclose(oracle.norm_min / oracle.norm_max, frame.coecc, rel_tol=1e-6)


def test_coeccentricity_three_expressions():
    # |det| / norm^2 and conorm^2 / |det| against the cocycle's co-eccentricity
    for orbit, coecc in ((compute_orbit(linear(2.0, 0.0, 0.0, 0.5), np.zeros(2), 1), 0.25),
                         (compute_orbit(rotation(0.3), np.zeros(2), 1), 1.0),
                         (MatrixCocycle([np.array([[0.0, 1.0], [0.3, 0.0]])]), 0.3)):
        coc = cocycle_of(orbit)
        m = coc.steps[0]
        s, det = svd2_matrix(m), abs(det2(m))
        for v in (det / s.smax**2, s.smin**2 / det, math.exp(coc.log_coecc(1))):
            assert math.isclose(v, coecc, rel_tol=1e-12)

    # a singular product: the co-eccentricity reads 0, and |det| is 0
    singular = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert math.exp(MatrixCocycle([singular]).log_coecc(1)) == 0.0
    assert det2(singular) == 0.0


def test_coeccentricity_three_way_agreement_random():
    rng = np.random.default_rng(2)
    for _ in range(500):
        m = random_step_matrix(rng)
        s, det = svd2_matrix(m), abs(det2(m))
        coecc = math.exp(MatrixCocycle([m]).log_coecc(1))
        assert coecc <= 1.0 + 1e-12
        for v in (det / s.smax**2, s.smin**2 / det, s.smin / s.smax):
            assert math.isclose(v, coecc, rel_tol=1e-10)


def test_angle_theta_diagonal():
    angles = angle_theta(2.0, 0.0, 0.0, 0.5)
    assert {round(angles.theta_contract, 12), round(angles.theta_expand, 12)} == {
        0.0,
        round(math.pi / 2, 12),
    }
    # contracted direction (sin 0, cos 0) = (0, 1)
    assert angles.theta_contract == 0.0


def test_angle_theta_conformal_raises():
    with pytest.raises(ConformalDegenerate):
        angle_theta(math.cos(0.4), math.sin(0.4), -math.sin(0.4), math.cos(0.4))


def test_angle_theta_henon_first_order():
    # partials of (1 + y - a x^2, b x) at the origin: (0, 0.3, 1, 0)
    angles = angle_theta(0.0, 0.3, 1.0, 0.0)
    assert {round(angles.theta_contract, 12), round(angles.theta_expand, 12)} == {
        0.0,
        round(math.pi / 2, 12),
    }
    frame = frame_from_scaled(scaled([[0.0, 1.0], [0.3, 0.0]]))
    t = angles.theta_contract
    dir_contract = np.array([math.sin(t), math.cos(t)])
    assert min(np.linalg.norm(dir_contract - frame.e), np.linalg.norm(dir_contract + frame.e)) <= 1e-12


def test_angle_theta_agrees_with_svd_randomly():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        m = random_step_matrix(rng)
        frame = frame_from_scaled(scaled(m))
        angles = angle_theta(m[0, 0], m[1, 0], m[0, 1], m[1, 1])
        assert line_angle_distance(angles.theta_expand, frame.theta) <= 1e-9
        assert (
            abs(line_angle_distance(angles.theta_contract, angles.theta_expand) - math.pi / 2)
            <= 1e-12
        )


def test_pushforward_identity_at_zero_and_orthogonal_at_k(henon):
    # the images of the order-6 frame: e by the pull-back, f by the forward push
    coc = compute_orbit(henon, np.array([0.1, 0.0]), 6).cocycle
    frame = hyperbolic_coordinates(coc, 6)
    e_dirs, e_logs = coc.contracted_images([6])
    assert np.allclose(e_dirs[0, 0], frame.e) and abs(e_logs[0, 0]) <= 1e-14
    (f_dir,), (f_log,) = coc.images(frame.f, [6])
    assert abs(np.dot(e_dirs[0, 6], f_dir)) <= 1e-9
    assert math.isclose(f_log, frame.log_sigma_max, rel_tol=1e-9, abs_tol=1e-9)


def test_pushforward_not_orthogonal_between(henon):
    # some intermediate image frame deviates from orthogonality by > 0.1 rad
    found = False
    for x0 in (0.0, 0.1, 0.2, -0.3):
        coc = compute_orbit(henon, np.array([x0, 0.05]), 5).cocycle
        e_dirs = coc.contracted_images([5])[0][0]
        f_dirs = coc.images(hyperbolic_coordinates(coc, 5).f, [1, 2, 3, 4])[0]
        for e_dir, f_dir in zip(e_dirs[1:5], f_dirs):
            cross = float(e_dir[0] * f_dir[1] - e_dir[1] * f_dir[0])
            angle = abs(math.atan2(cross, float(np.dot(e_dir, f_dir))))
            if abs(angle - math.pi / 2) > 0.1:
                found = True
    assert found


def test_gram_operator_examples():
    diag = compute_orbit(linear(2.0, 0.0, 0.0, 0.5), np.zeros(2), 1)
    m = dense(diag.cocycle.prefix(1))
    assert np.allclose(m.T @ m, np.diag([4.0, 0.25]), rtol=1e-14)

    rot = compute_orbit(rotation(1.1), np.zeros(2), 1)
    m = dense(rot.cocycle.prefix(1))
    assert np.allclose(m.T @ m, np.eye(2), atol=1e-15)


def test_gram_operator_henon_symmetry_and_eigenrelations(henon):
    orbit = compute_orbit(henon, np.array([0.0, 0.0]), 2)
    m = dense(orbit.cocycle.prefix(2))
    gram = m.T @ m
    assert np.abs(gram - gram.T).max() <= 1e-12 * np.abs(gram).max()
    # eigen relations with the frame, residual relative to the operator norm
    frame = hyperbolic_coordinates(orbit, 2)
    smax2 = math.exp(2 * frame.log_sigma_max)
    smin2 = math.exp(2 * frame.log_sigma_min)
    res_f = np.abs(gram @ frame.f - smax2 * frame.f).max()
    res_e = np.abs(gram @ frame.e - smin2 * frame.e).max()
    assert res_f <= 1e-9 * smax2
    assert res_e <= 1e-9 * smax2
    # at this mild order the contracted eigenvalue is resolvable too
    assert res_e <= 1e-9 * max(smin2, 1e-12 * smax2)
    evals = np.linalg.eigvalsh(gram)
    assert evals.min() >= -1e-12 * np.trace(gram)


def test_oracle_diagonal():
    res = oracle_extremal_directions(np.diag([3.0, 1.0]), 10**6)
    assert line_angle_distance(res.theta_max, math.pi / 2) <= 1e-5
    assert abs(res.norm_max - 3.0) <= 1e-9
    assert abs(res.norm_min - 1.0) <= 1e-9


def test_oracle_rotation_flat():
    res = oracle_extremal_directions(jacobian_at(rotation(0.4), np.zeros(2)), 10**4)
    assert abs(res.norm_max - 1.0) <= 1e-12
    assert abs(res.norm_min - 1.0) <= 1e-12


def test_oracle_agrees_with_svd_small_sweep():
    rng = np.random.default_rng(4)
    n = 20001
    for _ in range(50):
        m = random_step_matrix(rng)
        frame = frame_from_scaled(scaled(m))
        res = oracle_extremal_directions(m, n)
        assert line_angle_distance(res.theta_max, frame.theta) <= math.pi / n
        assert math.isclose(res.norm_max, math.exp(frame.log_sigma_max), rel_tol=1e-8)


def gram_rows(ms):
    """(g11, g12, g22) of each matrix in float arithmetic, as an (n, 3) array."""
    rows = []
    for m in ms:
        (a, b), (c, d) = np.asarray(m, dtype=float).tolist()
        rows.append((a * a + c * c, a * b + c * d, b * b + d * d))
    return np.array(rows, dtype=float).reshape(-1, 3)


def full_sweep(m, grid_n):
    """Reference for the windowed oracle: f on every grid point, then argmax and argmin."""
    g11, g12, g22 = gram_rows([m])[0].tolist()
    s2, sc2, c2 = hypframe._grid_basis(grid_n)
    f = g11 * s2
    f += g12 * sc2
    f += g22 * c2
    imax = int(np.argmax(f))
    imin = int(np.argmin(f))
    return imax, imin, float(f[imax]), float(f[imin])


def same_float(x, y):
    return x == y or (math.isnan(x) and math.isnan(y))


def assert_sweeps_equal(got, expected):
    """Row i of the stacked sweep ``got`` is expected[i], index for index."""
    assert len(got[0]) == len(expected)
    for i, (imax, imin, fmax, fmin) in enumerate(expected):
        assert (got[0][i], got[1][i]) == (imax, imin)
        assert same_float(got[2][i], fmax) and same_float(got[3][i], fmin)


_UNIT = st.floats(-1.0, 1.0)
_ANGLE = st.floats(0.0, 2.0 * math.pi)


@st.composite
def oracle_matrices(draw):
    """Random, flat, near-conformal, rank-one and zero matrices at scales 1e-160..1e160."""
    kind = draw(st.sampled_from(["random", "rotation", "near_conformal", "rank_one", "zero"]))
    if kind == "random":
        m = np.array(draw(st.lists(_UNIT, min_size=4, max_size=4))).reshape(2, 2)
    elif kind == "rotation":
        m = jacobian_at(rotation(draw(_ANGLE)), np.zeros(2))
    elif kind == "near_conformal":
        stretch = np.diag([1.0, 1.0 + draw(st.floats(1e-15, 1e-3))])
        turn_in, turn_out = (jacobian_at(rotation(draw(_ANGLE)), np.zeros(2)) for _ in range(2))
        m = turn_out @ stretch @ turn_in
    elif kind == "rank_one":
        m = np.outer(draw(st.lists(_UNIT, min_size=2, max_size=2)),
                     draw(st.lists(_UNIT, min_size=2, max_size=2)))
    else:
        m = np.zeros((2, 2))
    return m * 10.0 ** draw(st.sampled_from([-160, -150, 0, 150, 155, 160]))


# diag(2, 1) times the rotation taking (sin t, cos t) to e1, t = 255 pi / 256:
# on the 256-point grid the maximum is the last grid point
_T = 255.0 * math.pi / 256.0
PEAK_AT_LAST_POINT_OF_256 = np.diag([2.0, 1.0]) @ np.array(
    [[math.sin(_T), math.cos(_T)], [math.cos(_T), -math.sin(_T)]]
)
# a finite Gram sum above the window's limit of 2^1020, and an infinite one:
# both are swept whole, as is the identity's flat f
_GRAM_ABOVE_LIMIT = np.diag([4e153, 1.0])
_GRAM_INFINITE = np.array([[1.0, 1e160], [0.0, 1.0]])


# grids too small for a window (up to 16 points), grids next to powers of
# two, and a medium and the full grid
@pytest.mark.parametrize("grid_n", [4, 5, 15, 16, 17, 255, 256, 257, 4095, 4096, 4097, 4111, 4112, 4113, 20001,
                                    65537, 65551, 10**6])
@settings(max_examples=60, deadline=None)
@given(ms=st.lists(oracle_matrices(), min_size=1, max_size=3))
@example(ms=[np.eye(2)])
@example(ms=[np.array([[1e160, 1.0], [0.0, 1.0]])])
@example(ms=[np.array([[math.nan, 1.0], [0.0, 1.0]])])
@example(ms=[np.array([[math.inf, 1.0], [0.0, 1.0]])])
@example(ms=[np.array([[1e-170, 3e-170], [0.0, 1e-200]])])
@example(ms=[PEAK_AT_LAST_POINT_OF_256])
@example(ms=[PEAK_AT_LAST_POINT_OF_256, _GRAM_ABOVE_LIMIT, np.diag([3.0, 1.0]), _GRAM_INFINITE, np.eye(2)])
def test_oracle_pruned_sweep_equals_full_sweep(grid_n, ms):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        expected = [full_sweep(m, grid_n) for m in ms]
    finite = np.isfinite(ms).all()
    with warnings.catch_warnings():
        # the windowed sweep warns only where the full sweep does
        warnings.simplefilter("ignore" if caught else "error")
        if finite:
            res = oracle_extremal_directions(np.array(ms), grid_n)
            alone = [oracle_extremal_directions(m, grid_n) for m in ms]
        else:  # the oracle refuses the stack; its sweep still equals the full one
            with pytest.raises(InvalidInput, match=r"^matrix has a non-finite entry$"):
                oracle_extremal_directions(np.array(ms), grid_n)
        got = hypframe._sweep_extremes(gram_rows(ms), grid_n)
    assert_sweeps_equal(got, expected)
    if not finite:
        return
    step = math.pi / grid_n
    for i, (imax, imin, fmax, fmin) in enumerate(expected):
        fields = (imax * step, imin * step, math.sqrt(max(fmax, 0.0)), math.sqrt(max(fmin, 0.0)))
        for name, value in zip(("theta_max", "theta_min", "norm_max", "norm_min"), fields):
            # a stack gives what each of its matrices gives alone, as floats
            assert same_float(float(getattr(res, name)[i]), value)
            assert type(getattr(alone[i], name)) is float and same_float(getattr(alone[i], name), value)


def _battery_matrix(rng, grid_n):
    """A seeded matrix of one of four kinds, at a scale from 1e-161 to 1e160.

    The wrap kind maps the grid direction (sin t, cos t) to the major or
    minor axis, with t on a grid point or halfway between two, within a grid
    step of index 0, of index grid_n - 1 or of a random index, so that an
    extremum sits at the wrap of its window or in a near tie of two points.
    """
    kind = rng.integers(4)
    if kind == 0:
        m = rng.uniform(-1.0, 1.0, (2, 2))
    elif kind == 1:
        stretch = np.diag([1.0, 1.0 + 10.0 ** rng.uniform(-15.0, -3.0)])
        turn_in, turn_out = (jacobian_at(rotation(rng.uniform(0.0, 2.0 * math.pi)), np.zeros(2))
                             for _ in range(2))
        m = turn_out @ stretch @ turn_in
    elif kind == 2:
        m = np.outer(rng.uniform(-1.0, 1.0, 2), rng.uniform(-1.0, 1.0, 2))
    else:
        near = rng.choice([0, grid_n - 1, rng.integers(grid_n)])
        t = (near + rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0])) * math.pi / grid_n
        axes = np.diag(rng.permutation([2.0, rng.uniform(0.0, 1.9)]))
        m = axes @ np.array([[math.sin(t), math.cos(t)], [math.cos(t), -math.sin(t)]])
    return m * 10.0 ** rng.choice([-161, -160, -155, -150, 0, 150, 155, 160])


# (grids, matrices per grid): every grid up to 1,024 points, grids next to
# powers of two (the ids name the edges of the block prune that the window
# sweep replaced), a medium and the full grid
_BATTERY = {
    "4-1024": (range(4, 1025), 3),
    "chunk-edges": ((16383, 16384, 16385, 16386, 16640, 16641, 32769), 60),
    "block-edges": ((4111, 4112, 4113, 20015, 20016, 20017, 65551), 60),
    "coarse-edges": ((4095, 4096, 4097, 8191, 8192, 8193, 65537), 60),
    "20001": ((20001,), 1500),
    "1e6": ((10**6,), 12),
}


@pytest.mark.parametrize("grids, count", _BATTERY.values(), ids=_BATTERY.keys())
def test_oracle_pruned_sweep_equals_full_sweep_on_a_seeded_battery(grids, count):
    rng = np.random.default_rng(31)
    with np.errstate(all="ignore"):
        for grid_n in grids:
            ms = [_battery_matrix(rng, grid_n) for _ in range(count)]
            gram = gram_rows(ms)
            expected = [full_sweep(m, grid_n) for m in ms]
            assert_sweeps_equal(hypframe._sweep_extremes(gram, grid_n), expected)
            for i in range(count):  # so each matrix alone gives its row of the stack
                assert_sweeps_equal(hypframe._sweep_extremes(gram[i : i + 1], grid_n), expected[i : i + 1])


def row_sweep(g, grid_n):
    """full_sweep of a Gram row (g11, g12, g22)."""
    s2, sc2, c2 = hypframe._grid_basis(grid_n)
    f = g[0] * s2
    f += g[1] * sc2
    f += g[2] * c2
    imax, imin = int(np.argmax(f)), int(np.argmin(f))
    return imax, imin, float(f[imax]), float(f[imin])


def _window(half, centre, grid_n):
    """The grid indices of a window, in the order of its arc."""
    return (centre + np.arange(-half, half + 1)) % grid_n


@pytest.mark.parametrize("grid_n", [17, 300, 1000, 4097, 4113, 20001, 65537, 10**6])
def test_oracle_window_certificate_separates_every_swept_value(grid_n):
    # every swept value off a window lies strictly beyond its extremum, and
    # the swept values of the window lie within the derivation's E of the
    # exact f at their angles
    rng = np.random.default_rng(32)
    s2, sc2, c2 = hypframe._grid_basis(grid_n)
    step = math.pi / grid_n
    with np.errstate(all="ignore"):
        gram = gram_rows([_battery_matrix(rng, grid_n) for _ in range(40 if grid_n < 10**6 else 12)])
    half, centre = hypframe._windows(gram, grid_n)
    assert np.count_nonzero(half) >= 3
    windowed = half > 0
    assert hypframe._sweep_windows(gram[windowed], centre[windowed], int(half.max()), grid_n)[-1].all()
    with mpmath.workdps(50):
        for g, w, (cmax, cmin) in zip(gram[windowed].tolist(), half[windowed].tolist(), centre[windowed].tolist()):
            f = g[0] * s2
            f += g[1] * sc2
            f += g[2] * c2
            allowance = (5.0 * hypframe._TRIG_DELTA + 4.0 * 2.0**-53) * sum(map(abs, g)) + 3.0 * 2.0**-1075
            at_max, at_min = _window(w, cmax, grid_n), _window(w, cmin, grid_n)
            assert f[at_max].max() > np.delete(f, at_max).max()
            assert f[at_min].min() < np.delete(f, at_min).min()
            for i in np.concatenate([at_max, at_min])[::3].tolist():
                s, c = mpmath.sin(mpmath.mpf(i * step)), mpmath.cos(mpmath.mpf(i * step))
                assert abs(f[i] - (g[0] * s * s + g[1] * 2 * s * c + g[2] * c * c)) <= allowance


def _count_grid_values(monkeypatch):
    """The sizes of the arrays of angles that ``_grid_values`` evaluates from
    here on, where the whole grid's basis may not be used."""
    counted = []
    grid_values = hypframe._grid_values

    def counting(theta, grid_n):
        counted.append(theta.size)
        return grid_values(theta, grid_n)

    monkeypatch.setattr(hypframe, "_grid_values", counting)
    monkeypatch.setattr(hypframe, "_grid_basis", None)
    return counted


def test_oracle_window_evaluates_22_points_of_a_hyperbolic_matrix(monkeypatch):
    # 11 points around each extremum of this row at 10^6 points
    gram = np.array([[10.0, 1.0, 0.5]])
    expected = row_sweep(gram[0], 10**6)
    assert expected[:2] == (466976, 966976)
    counted = _count_grid_values(monkeypatch)
    assert_sweeps_equal(hypframe._sweep_extremes(gram, 10**6), [expected])
    assert counted == [22]
    # a stack takes the windows of each matrix alone, in one pass
    assert_sweeps_equal(hypframe._sweep_extremes(np.tile(gram, (3, 1)), 10**6), [expected] * 3)
    assert counted == [22, 66]


@pytest.mark.parametrize("grid_n", [256, 1000, 10**6])
def test_oracle_window_holds_both_ends_of_the_grid_at_the_wrap(grid_n):
    # the maximum at index 0 (diag(1, 2)) and at index grid_n - 1, and the
    # minimum at index 0 (diag(2, 1)): each of these windows wraps
    t = (grid_n - 1) * math.pi / grid_n
    peak_at_last = np.diag([2.0, 1.0]) @ np.array([[math.sin(t), math.cos(t)], [math.cos(t), -math.sin(t)]])
    ms = [np.diag([1.0, 2.0]), peak_at_last, np.diag([2.0, 1.0])]
    gram = gram_rows(ms)
    expected = [full_sweep(m, grid_n) for m in ms]
    assert (expected[0][0], expected[1][0], expected[2][1]) == (0, grid_n - 1, 0)
    half, centre = hypframe._windows(gram, grid_n)
    for row, extreme in ((0, 0), (1, 0), (2, 1)):
        assert half[row] > 0 and {0, grid_n - 1} <= set(_window(half[row], centre[row, extreme], grid_n).tolist())
    assert hypframe._sweep_windows(gram, centre, int(half.max()), grid_n)[-1].all()
    assert_sweeps_equal(hypframe._sweep_extremes(gram, grid_n), expected)


@pytest.mark.parametrize("grid_n", [1001, 4097, 20001, 10**6 + 1])
def test_oracle_window_takes_the_first_index_of_a_tie(grid_n):
    # on an odd grid the extremum at pi / 2 of diag(3, 1) (the max) and of
    # diag(1, 3) (the min) lies midway between two grid points, whose swept
    # values tie; the first of them wins
    ms = [np.diag([3.0, 1.0]), np.diag([1.0, 3.0])]
    first = (grid_n - 1) // 2
    expected = [full_sweep(m, grid_n) for m in ms]
    assert expected[0][0] == expected[1][1] == first
    for m in ms:
        g = gram_rows([m])[0]
        s2, sc2, c2 = hypframe._grid_basis(grid_n)
        f = g[0] * s2[first : first + 2] + g[1] * sc2[first : first + 2] + g[2] * c2[first : first + 2]
        assert f[0] == f[1]
    assert_sweeps_equal(hypframe._sweep_extremes(gram_rows(ms), grid_n), expected)


@pytest.mark.parametrize("grid_n", [1000, 4096, 10**6])
def test_oracle_window_at_the_wrap_takes_index_0_of_a_tie(grid_n):
    # the maximum half a step below pi, between indices grid_n - 1 and 0:
    # rows whose swept values there tie take index 0, the first on the
    # grid, though grid_n - 1 comes first along the window
    s2, sc2, c2 = hypframe._grid_basis(grid_n)
    step = math.pi / grid_n
    mean = np.linspace(1.5, 3.0, 201)
    gram = np.stack([mean - math.cos(step), np.full_like(mean, -math.sin(step)), mean + math.cos(step)], axis=1)
    ends = [g11 * s2[[0, -1]] + g12 * sc2[[0, -1]] + g22 * c2[[0, -1]] for g11, g12, g22 in gram.tolist()]
    gram = gram[[f[0] == f[1] for f in ends]]
    assert len(gram) >= 20
    half, centre = hypframe._windows(gram, grid_n)
    assert half.all() and set(centre[:, 0].tolist()) <= {0, grid_n - 1}
    expected = [row_sweep(g, grid_n) for g in gram]
    assert all(row[0] == 0 for row in expected)
    assert_sweeps_equal(hypframe._sweep_extremes(gram, grid_n), expected)


@pytest.mark.parametrize("shift", [-9, -4, 4, 9])
def test_oracle_window_that_fails_its_test_is_swept_whole(monkeypatch, shift):
    # windows moved off their extrema, to an end or past it: the test fails
    # and the row is swept whole, so the result is still the full sweep's
    rng = np.random.default_rng(35)
    gram = gram_rows(rng.uniform(-1.0, 1.0, (8, 2, 2)))
    half, centre = hypframe._windows(gram, 1000)
    assert (half == 3).all()
    assert not hypframe._sweep_windows(gram, centre + shift, 3, 1000)[-1].any()
    windows = hypframe._windows

    def shifted(g, n):
        half, centre = windows(g, n)
        return half, centre + shift

    monkeypatch.setattr(hypframe, "_windows", shifted)
    assert_sweeps_equal(hypframe._sweep_extremes(gram, 1000), [row_sweep(g, 1000) for g in gram])


@pytest.mark.parametrize("grid_n", [20001, 10**6])
def test_oracle_near_conformal_rows_on_both_sides_of_the_whole_sweep(grid_n):
    # diag(1, 1 + eps) turned by 0.3: the last eps whose window would reach
    # half the grid (20,001) or pass _WINDOW_MAX (10^6), and the first whose
    # window does not
    turn = jacobian_at(rotation(0.3), np.zeros(2))
    eps = np.geomspace(1e-14, 1e-4, 4001)
    gram = gram_rows([np.diag([1.0, 1.0 + e]) @ turn for e in eps.tolist()])
    half, centre = hypframe._windows(gram, grid_n)
    last = int(np.flatnonzero(half == 0).max())
    widest = min(hypframe._WINDOW_MAX, (grid_n - 2) // 4)
    assert (half[last + 1 :] > 0).all() and 0.99 * widest <= half[last + 1] <= widest
    assert hypframe._sweep_windows(gram[last + 1 : last + 2], centre[last + 1 : last + 2], int(half[last + 1]),
                                   grid_n)[-1].all()
    pair = gram[last : last + 2]
    assert_sweeps_equal(hypframe._sweep_extremes(pair, grid_n), [row_sweep(g, grid_n) for g in pair])


@pytest.mark.parametrize("grid_n", [1000, 10**6])
def test_oracle_gram_entries_near_1e_320(grid_n):
    # a subnormal Gram sum is swept whole; next to a normal entry, products
    # of entries near 1e-320 underflow inside an accepted window
    gram = np.array([[1e-320, 0.0, 3e-320], [2e-320, -1e-320, 1e-321], [5e-324, 5e-324, 0.0],
                     [3e-308, 1e-320, 1e-308], [1e-300, 2e-320, 3e-320], [2.5e-308, -3e-320, 2.3e-308],
                     [1e-320, 1e-320, 4e-308], [3e-320, -2e-320, 2.5e-308]])
    half, centre = hypframe._windows(gram, grid_n)
    assert not half[:3].any() and half[3:].all()
    assert hypframe._sweep_windows(gram[3:], centre[3:], int(half.max()), grid_n)[-1].all()
    assert_sweeps_equal(hypframe._sweep_extremes(gram, grid_n), [row_sweep(g, grid_n) for g in gram])


def test_oracle_mixed_stack_stays_within_a_bounded_allocation(monkeypatch):
    # 3,584 narrow rows and 512 near-conformal rows with windows of 9,000 to
    # 11,500 points at 10^6: padded to the widest, one pass would take about
    # 4,096 x 46,000 points, 1.5 GB a float array
    rng = np.random.default_rng(33)
    narrow = gram_rows(rng.uniform(-1.0, 1.0, (3584, 2, 2)))
    wide = gram_rows([np.diag([1.0, 1.0 + e]) for e in rng.uniform(6e-8, 1e-7, 512).tolist()])
    gram = np.concatenate([narrow, wide])[rng.permutation(4096)]
    half, _ = hypframe._windows(gram, 10**6)
    assert half.all() and half.max() > hypframe._WINDOW_MAX // 2 and np.median(half) < 16
    counted = _count_grid_values(monkeypatch)
    tracemalloc.start()
    try:
        got = hypframe._sweep_extremes(gram, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # passes of at most _WINDOW_PASS points, padding at most a fifth
    assert max(counted) <= hypframe._WINDOW_PASS and sum(counted) <= 1.2 * np.sum(4 * half + 2)
    assert peak < 16e6
    monkeypatch.undo()
    for i in [*rng.choice(np.flatnonzero(half < 16), 3), *rng.choice(np.flatnonzero(half > 1000), 3)]:
        assert_sweeps_equal(tuple(v[i : i + 1] for v in got), [row_sweep(gram[i], 10**6)])


# every grid that the tests sweep, and MAX_GRID_N
_TEST_GRIDS = sorted({*range(4, 1025), 4095, 4096, 4097, 4111, 4112, 4113, 8191, 8192, 8193, 10**4, 10001,
                      16383, 16384, 16385, 16386, 16640, 16641, 20001, 20015, 20016, 20017, 32769, 65537, 65551,
                      100001, 10**6, 10**6 + 1, 10**8})


def test_numpy_sin_and_cos_are_within_the_premise_of_the_window():
    # the premise of the window's certificate, at sampled angles of every
    # grid of the tests and next to 0, pi / 2 and pi
    rng = np.random.default_rng(34)
    angles = [0.0, 5e-324, 2.0**-1022, 1e-300, 1e-17, 1e-8]
    for edge in (math.pi / 2, math.pi):
        angles += [edge, np.nextafter(edge, 0.0), np.nextafter(edge, 4.0), edge - 1e-15, edge - 1e-8]
    for grid_n in _TEST_GRIDS:
        picks = {1, 2, grid_n // 4, grid_n // 2 - 1, grid_n // 2, grid_n // 2 + 1, grid_n - 2, grid_n - 1}
        theta = np.array(sorted(picks | set(rng.integers(grid_n, size=4).tolist())), dtype=float)
        theta *= math.pi / grid_n  # the angles of _grid_values
        angles += theta.tolist()
    angles = np.array(angles)
    with mpmath.workdps(50):
        for ufunc, exact in ((np.sin, mpmath.sin), (np.cos, mpmath.cos)):
            for t, value in zip(angles.tolist(), ufunc(angles).tolist()):
                assert abs(value - exact(mpmath.mpf(t))) <= hypframe._TRIG_DELTA


@pytest.mark.parametrize("grid_n", [10.5, 3, True, 4.0, "1000", None])
def test_oracle_grid_n_must_be_an_int_of_at_least_4(grid_n):
    with pytest.raises(InvalidInput, match="grid_n"):
        oracle_extremal_directions(np.eye(2), grid_n)


@pytest.mark.parametrize("m, message", [
    (np.eye(3), r"matrix has shape \(3, 3\); expected \(2, 2\)"),
    (np.ones(2), r"matrix has shape \(2,\); expected \(2, 2\)"),
    (np.ones((1, 2)), r"matrix has shape \(1, 2\); expected \(2, 2\)"),
    (np.array([[1.0, math.nan], [0.0, 1.0]]), "matrix has a non-finite entry"),
    (np.array([[1.0, 0.0], [-math.inf, 1.0]]), "matrix has a non-finite entry"),
    (np.array([[1.0, 0.0], [0.0, math.nan]]), "matrix has a non-finite entry"),
    (np.ones((3, 2, 3)), r"matrix has shape \(3, 2, 3\); expected \(n, 2, 2\)"),
    (np.ones((1, 1, 2, 2)), r"matrix has shape \(1, 1, 2, 2\); expected \(2, 2\)"),
    (np.array([np.eye(2), [[1.0, 0.0], [math.inf, 1.0]]]), "matrix has a non-finite entry"),
])
def test_oracle_matrix_must_be_a_finite_2x2(m, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput, match=f"^{message}$"):
            oracle_extremal_directions(m, 1000)


@pytest.mark.parametrize("m", [np.zeros((2, 2)), np.diag([5e-324, 0.0])])
def test_frame_of_a_zero_matrix_is_zero_matrix(m):
    # 5e-324 / 2 underflows to 0 in the closed form, which then reads a zero matrix
    with pytest.raises(ZeroMatrix, match="^norms undefined for the zero matrix$"):
        frame_from_scaled(ScaledMatrix(m, 0.0))


def test_frame_directions_of_a_stack_are_those_of_each_frame():
    rng = np.random.default_rng(45)
    random = np.concatenate([
        rng.uniform(-2.0, 2.0, (300, 2, 2)),
        [np.outer(rng.uniform(-1.0, 1.0, 2), rng.uniform(-1.0, 1.0, 2)) for _ in range(20)],
    ]) * 10.0 ** rng.choice([-300, -150, 0, 150, 300], (320, 1, 1))
    ms = np.concatenate([random, [
        np.diag([1.0, 0.0]), np.diag([0.0, -3.0]), np.diag([5e-324, 0.0]), np.diag([2.0, -1.0]),
        np.array([[0.0, 1.0], [0.0, 0.0]]), PEAK_AT_LAST_POINT_OF_256]])
    e, theta = hypframe.frame_directions(ms)
    for m, e_i, theta_i in zip(ms, e, theta):
        frame = frame_from_scaled(scaled(m))
        assert e_i.tobytes() == frame.e.tobytes() and theta_i == frame.theta
        assert type(theta_i) is float


_REFUSED = {
    "zero": np.zeros((2, 2)),
    "nan": np.array([[1.0, math.nan], [0.0, 1.0]]),
    "inf": np.array([[1.0, 0.0], [-math.inf, 1.0]]),
    "conformal": np.eye(2) * 3.0,
    "near-conformal": np.diag([1.0, 1.0 + 1e-13]),
}


@pytest.mark.parametrize("first, second", [(a, b) for a in _REFUSED for b in _REFUSED if a != b])
@pytest.mark.parametrize("at", [0, 2])
def test_frame_directions_raise_what_the_first_refused_frame_raises(first, second, at):
    ms = [np.diag([2.0, 1.0])] * 4
    ms[at], ms[at + 1] = _REFUSED[first], _REFUSED[second]
    with pytest.raises((InvalidInput, ZeroMatrix, NoHyperbolicCoordinates)) as each:
        for m in ms:
            frame_from_scaled(ScaledMatrix.from_matrix(m))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(type(each.value), match=f"^{re.escape(str(each.value))}$"):
            hypframe.frame_directions(np.array(ms))


def test_diagonal_form_identity():
    # the 3-step product maps the frame {f, e} of order 3 to orthogonal
    # vectors of lengths sigma_max and sigma_min (in the product's body scale)
    rng = np.random.default_rng(5)
    for _ in range(200):
        coc = MatrixCocycle([random_step_matrix(rng) for _ in range(3)])
        frame = hyperbolic_coordinates(coc, 3)
        m = coc.prefix(3)
        u, w = m.body @ frame.f, m.body @ frame.e
        smax, smin = math.exp(frame.log_sigma_max - m.log_scale), math.exp(frame.log_sigma_min - m.log_scale)
        assert abs(float(np.dot(u, w))) / smax**2 <= 1e-9
        assert abs(np.linalg.norm(u) - smax) / smax <= 1e-9
        assert abs(np.linalg.norm(w) - smin) / smin <= 1e-9


def test_frame_sequence_matches_individual(henon):
    orbit = compute_orbit(henon, np.array([0.1, 0.0]), 6)
    frames = frame_sequence(orbit)
    assert [f.k for f in frames] == list(range(1, 7))
    for k, frame in enumerate(frames, start=1):
        single = hyperbolic_coordinates(orbit, k)
        assert np.array_equal(single.e, frame.e)


def test_coecc_not_multiplicative():
    a = np.diag([4.0, 1.0])
    b = np.array([[0.0, -1.0], [4.0, 0.0]])
    c_a = math.exp(MatrixCocycle([a]).log_coecc(1))
    c_b = math.exp(MatrixCocycle([b]).log_coecc(1))
    c_ab = math.exp(MatrixCocycle([b, a]).log_coecc(2))
    # the product a @ b is conformal although both factors are far from it
    assert abs(c_ab - c_a * c_b) > 0.1


def test_low_confidence_band_flag():
    # nearly conformal but still above the existence threshold
    m = np.diag([1.0, 0.9995])
    frame = frame_from_scaled(scaled(m))
    assert frame.low_confidence
    frame = frame_from_scaled(scaled(np.diag([1.0, 0.9])))
    assert not frame.low_confidence


def test_singular_cocycle_frame_has_sentinel_sigma_min():
    coc = MatrixCocycle([np.array([[2.0, 0.0], [0.0, 0.0]])])
    s = frame_from_scaled(coc.prefix(1))
    assert s.coecc == 0.0 and s.log_sigma_min == float("-inf")
    frame = hyperbolic_coordinates(coc, 1)
    assert frame.coecc == 0.0
    assert frame.log_sigma_min == float("-inf")
    assert np.allclose(frame.e, [0.0, 1.0])


def test_frame_sign_and_quarter_turn_of_rows_equal_those_of_each_vector():
    rng = np.random.default_rng(3)
    edges = [[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0], [-0.0, 0.0], [0.5, -0.0], [-0.5, -0.0]]
    rows = np.vstack((rng.standard_normal((40, 2)), edges))
    for fn in (linalg2.canonical_sign, linalg2.rotate_quarter_cw):
        assert list(map(repr, fn(rows).ravel().tolist())) == [
            repr(x) for row in rows for x in fn(row).tolist()]
    signed = linalg2.canonical_sign(rows[rows.any(axis=1)])  # the zero vector has no sign
    assert ((signed[:, 1] > 0.0) | ((signed[:, 1] == 0.0) & (signed[:, 0] > 0.0))).all()
