import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hypcoords import hypframe, linalg2
from hypcoords.cocycle import MatrixCocycle, ScaledMatrix, compute_orbit
from hypcoords.errors import ConformalDegenerate, NoHyperbolicCoordinates
from hypcoords.hypframe import (
    aligned_distance,
    angle_theta,
    coeccentricity,
    diagonal_form_residuals,
    frame_from_scaled,
    frame_sequence,
    hyperbolic_coordinates,
    oracle_extremal_directions,
    pushforward_frames,
)
from hypcoords.linalg2 import line_angle_distance
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


def test_spectral_norm_array_is_the_closed_form_smax_bit_for_bit():
    rng = np.random.default_rng(2)
    for scale in (1.0, 1e-300, 1e300):
        entries = rng.uniform(-3, 3, size=(4, 200)) * scale
        entries[:, :4] = [[0.0, 1.0, 0.0, -0.0], [0.0, 0.0, 2.0, 0.0], [0.0, 0.0, 2.0, 5e-324], [0.0, 1.0, 0.0, 0.0]]
        norms = linalg2.spectral_norm_array(*entries)
        assert norms.tobytes() == linalg2.svd2_closed_array(*entries).smax.tobytes()
        assert norms.tobytes() == np.array([linalg2.svd2_closed(*m).smax for m in entries.T.tolist()]).tobytes()


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


def test_henon_k2_coecc_vs_grid_oracle():
    h = henon(a=1.4, b=0.3)
    orbit = compute_orbit(h, np.array([0.0, 0.0]), 2)
    frame = hyperbolic_coordinates(orbit, 2)
    # co-eccentricity equals |det| / sigma_max^2 with |det| = 0.09
    assert math.isclose(frame.coecc, 0.09 / math.exp(2 * frame.log_sigma_max), rel_tol=1e-10)
    oracle = oracle_extremal_directions(orbit.cocycle.prefix(2), 10**6)
    assert math.isclose(oracle.norm_min / oracle.norm_max, frame.coecc, rel_tol=1e-6)


def test_coeccentricity_three_expressions():
    lin = linear(2.0, 0.0, 0.0, 0.5)
    vals = coeccentricity(compute_orbit(lin, np.zeros(2), 1), 1)
    for v in (vals.from_det_over_norm2, vals.from_conorm2_over_det, vals.from_conorm_over_norm):
        assert math.isclose(v, 0.25, rel_tol=1e-12)

    rot = compute_orbit(rotation(0.3), np.zeros(2), 1)
    vals = coeccentricity(rot, 1)
    for v in (vals.from_det_over_norm2, vals.from_conorm2_over_det, vals.from_conorm_over_norm):
        assert math.isclose(v, 1.0, rel_tol=1e-12)

    anti = MatrixCocycle([np.array([[0.0, 1.0], [0.3, 0.0]])])
    vals = coeccentricity(anti, 1)
    assert math.isclose(vals.from_conorm_over_norm, 0.3, rel_tol=1e-12)

    singular = MatrixCocycle([np.array([[1.0, 0.0], [0.0, 0.0]])])
    vals = coeccentricity(singular, 1)
    assert vals.singular
    assert vals.from_det_over_norm2 is None and vals.from_conorm2_over_det is None
    assert vals.from_conorm_over_norm == 0.0


def test_coeccentricity_three_way_agreement_random():
    rng = np.random.default_rng(2)
    for _ in range(500):
        coc = MatrixCocycle([random_step_matrix(rng)])
        vals = coeccentricity(coc, 1)
        assert vals.from_conorm_over_norm <= 1.0 + 1e-12
        for v in (vals.from_det_over_norm2, vals.from_conorm2_over_det):
            assert math.isclose(v, vals.from_conorm_over_norm, rel_tol=1e-10)


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
    assert aligned_distance(dir_contract, frame.e) <= 1e-12


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
    orbit = compute_orbit(henon, np.array([0.1, 0.0]), 6)
    frame = hyperbolic_coordinates(orbit, 6)
    p0 = pushforward_frames(orbit, 6, 0)
    assert np.allclose(p0.e_dir, frame.e) and abs(p0.e_log_norm) <= 1e-14
    pk = pushforward_frames(orbit, 6, 6)
    assert abs(np.dot(pk.e_dir, pk.f_dir)) <= 1e-9
    assert math.isclose(pk.f_log_norm, frame.log_sigma_max, rel_tol=1e-9, abs_tol=1e-9)


def test_pushforward_not_orthogonal_between(henon):
    # some intermediate image frame deviates from orthogonality by > 0.1 rad
    found = False
    for x0 in (0.0, 0.1, 0.2, -0.3):
        orbit = compute_orbit(henon, np.array([x0, 0.05]), 5)
        for i in range(1, 5):
            p = pushforward_frames(orbit, 5, i)
            cross = float(p.e_dir[0] * p.f_dir[1] - p.e_dir[1] * p.f_dir[0])
            angle = abs(math.atan2(cross, float(np.dot(p.e_dir, p.f_dir))))
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
    assert not res.flat


def test_oracle_rotation_flat():
    res = oracle_extremal_directions(jacobian_at(rotation(0.4), np.zeros(2)), 10**4)
    assert res.flat
    assert abs(res.norm_max - 1.0) <= 1e-12


def test_oracle_agrees_with_svd_small_sweep():
    rng = np.random.default_rng(4)
    n = 20001
    for _ in range(50):
        m = random_step_matrix(rng)
        frame = frame_from_scaled(scaled(m))
        res = oracle_extremal_directions(m, n)
        assert line_angle_distance(res.theta_max, frame.theta) <= math.pi / n
        assert math.isclose(res.norm_max, math.exp(frame.log_sigma_max), rel_tol=1e-8)


def full_sweep(m, grid_n):
    """Reference for the pruned oracle: f on every grid point, then argmax and argmin."""
    body = np.asarray(m, dtype=float)
    a, b = float(body[0, 0]), float(body[0, 1])
    c, d = float(body[1, 0]), float(body[1, 1])
    g11 = a * a + c * c
    g12 = a * b + c * d
    g22 = b * b + d * d
    (s2, sc2, c2), _ = hypframe._grid_basis(grid_n)
    f = g11 * s2
    f += g12 * sc2
    f += g22 * c2
    imax = int(np.argmax(f))
    imin = int(np.argmin(f))
    return imax, imin, float(f[imax]), float(f[imin])


def same_float(x, y):
    return x == y or (math.isnan(x) and math.isnan(y))


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


@pytest.mark.parametrize("grid_n", [4, 5, 255, 256, 257, 20001, 10**6])
@settings(max_examples=60, deadline=None)
@given(m=oracle_matrices())
@example(m=np.eye(2))
@example(m=np.array([[1e160, 1.0], [0.0, 1.0]]))
@example(m=np.array([[math.nan, 1.0], [0.0, 1.0]]))
@example(m=np.array([[math.inf, 1.0], [0.0, 1.0]]))
@example(m=np.array([[1e-170, 3e-170], [0.0, 1e-200]]))
@example(m=PEAK_AT_LAST_POINT_OF_256)
def test_oracle_pruned_sweep_equals_full_sweep(grid_n, m):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        expected = full_sweep(m, grid_n)
    with warnings.catch_warnings():
        # the pruned sweep warns only where the full sweep does
        warnings.simplefilter("ignore" if caught else "error")
        res = oracle_extremal_directions(m, grid_n)
        a, b, c, d = (float(v) for v in np.asarray(m, dtype=float).ravel())
        got = hypframe._sweep_extremes(a * a + c * c, a * b + c * d, b * b + d * d, grid_n)
    assert got[:2] == expected[:2]
    assert same_float(got[2], expected[2]) and same_float(got[3], expected[3])
    step = math.pi / grid_n
    assert res.theta_max == float(np.arange(grid_n)[expected[0]] * step)
    assert res.theta_min == float(np.arange(grid_n)[expected[1]] * step)
    assert same_float(res.norm_max, math.sqrt(max(expected[2], 0.0)))
    assert same_float(res.norm_min, math.sqrt(max(expected[3], 0.0)))


def test_oracle_prunes_most_blocks_of_a_hyperbolic_matrix():
    _, ranges = hypframe._grid_basis(10**6)
    runs = hypframe._kept_runs(10.0, 1.0, 0.5, ranges)
    kept = sum(last - first for first, last in runs)
    assert 0 < kept <= len(ranges[0][0]) // 10


def test_diagonal_form_identity():
    rng = np.random.default_rng(5)
    for _ in range(200):
        coc = MatrixCocycle([random_step_matrix(rng) for _ in range(3)])
        off, diag_err = diagonal_form_residuals(coc, 3)
        assert off <= 1e-9
        assert diag_err <= 1e-9


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
    c_a = coeccentricity(MatrixCocycle([a]), 1).from_conorm_over_norm
    c_b = coeccentricity(MatrixCocycle([b]), 1).from_conorm_over_norm
    c_ab = coeccentricity(MatrixCocycle([b, a]), 2).from_conorm_over_norm
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
