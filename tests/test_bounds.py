import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hypcoords import bounds, linalg2
from hypcoords.certificate import Flavor, auxiliary_constants, fit_constants
from hypcoords.cocycle import MatrixCocycle, OrbitSegment, cocycle_of, compute_orbit
from hypcoords.errors import (
    BoundOverflow,
    CertificateRequired,
    DegenerateCoeccentricity,
    DegenerateStep,
    HypcoordsError,
    Infeasible,
    InvalidInput,
    NoHyperbolicCoordinates,
    ZeroDeterminant,
)
from hypcoords.hypframe import frame_sequence, hyperbolic_coordinates
from hypcoords.planar_maps import henon, linear, lorenz2d, rotation, standard

from conftest import HENON_FIXTURE, LORENZ_FIXTURE, jacobian_at, make_cubic_map, random_cocycle

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# ctilde and the tail sum
# ---------------------------------------------------------------------------


def test_ctilde_diagonal(diag_orbit):
    assert math.isclose(bounds.ctilde(diag_orbit, 1), math.sqrt(32.0 / 15.0), rel_tol=1e-12)


def test_ctilde_limit_for_tiny_coecc():
    coc = MatrixCocycle([np.diag([100.0, 1e-4])])
    assert abs(bounds.ctilde(coc, 1) - SQRT2) <= 1e-6


def test_ctilde_degenerate():
    coc = MatrixCocycle([np.eye(2)])
    with pytest.raises(DegenerateCoeccentricity):
        bounds.ctilde(coc, 1)


def test_tail_empty_sum(diag_orbit):
    assert bounds.tail_T(diag_orbit, 5, 5) == 0.0


def test_tail_diagonal_geometric(diag_orbit):
    # coecc_j = 4^-j and one-step coecc = 1/4, so terms are 4^(1-j)
    for i, k in ((1, 6), (2, 9), (3, 20)):
        expected = sum(4.0 ** (1 - j) for j in range(i, k))
        assert math.isclose(bounds.tail_T(diag_orbit, i, k), expected, rel_tol=1e-12)


def test_tail_henon_regression(henon_orbit20):
    # frozen from the first verified run; cross-checked by direct summation
    # in extended precision (agreement ~4e-16)
    assert math.isclose(bounds.tail_T(henon_orbit20, 2, 10), 0.5446182426249054, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# assumption-free drift bounds
# ---------------------------------------------------------------------------


def test_apriori_constant_diagonal(diag_orbit):
    rep = bounds.verify_apriori_convergence(diag_orbit, 3, 12)
    assert rep.verdict
    drift_rows = [r for r in rep.rows if r.check.startswith("frame_drift")]
    assert all(r.lhs == 0.0 for r in drift_rows)


def test_apriori_henon_pair(henon_orbit20):
    rep = bounds.verify_apriori_convergence(henon_orbit20, 3, 12)
    assert rep.verdict
    assert len(rep.rows) == 7


def test_apriori_all_henon(henon_orbit20):
    rep = bounds.verify_apriori_all(henon_orbit20)
    assert rep.verdict
    # every ordered pair contributes all seven checks
    assert len(rep.rows) == 7 * sum(range(1, 21))


def test_apriori_random_cocycles():
    rng = np.random.default_rng(11)
    for _ in range(200):
        rep = bounds.verify_apriori_all(random_cocycle(rng))
        assert rep.verdict, rep.first_failure()


def _exact_rows(report):
    # repr keeps the sign of zero and every last bit of each float
    return [
        (r.check, r.index, repr(r.lhs), repr(r.rhs), repr(r.margin), r.passed)
        for r in report.rows
    ]


def _sweep_outcome(coc):
    try:
        return _exact_rows(bounds.verify_apriori_all(coc))
    except HypcoordsError as exc:
        return type(exc), str(exc)


def _per_pair_outcome(coc):
    rep = bounds.BoundReport("apriori_convergence", bounds.DEFAULT_REL_TOL)
    try:
        for k in range(1, coc.k + 1):
            for i in range(1, k + 1):
                bounds.verify_apriori_convergence(coc, i, k, report=rep)
    except HypcoordsError as exc:
        return type(exc), str(exc)
    return _exact_rows(rep)


@pytest.mark.parametrize("k", [20, 60])
def test_apriori_sweep_equals_per_pair_henon(henon, k):
    coc = compute_orbit(henon, HENON_FIXTURE, k).cocycle
    rows = _sweep_outcome(coc)
    assert len(rows) == 7 * k * (k + 1) // 2
    assert rows == _per_pair_outcome(coc)


def test_apriori_sweep_equals_per_pair_diagonal_and_random(diag_orbit):
    cocycles = [diag_orbit.cocycle]
    rng = np.random.default_rng(21)
    cocycles += [random_cocycle(rng) for _ in range(20)]
    for coc in cocycles:
        rows = _sweep_outcome(coc)
        assert isinstance(rows, list)
        assert rows == _per_pair_outcome(coc)


def _rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _first_failing_pair(coc):
    for k in range(1, coc.k + 1):
        for i in range(1, k + 1):
            try:
                bounds.verify_apriori_convergence(coc, i, k)
            except HypcoordsError:
                return i, k
    return None


# 0.1 * 0.6 == 0.3 * 0.2 in doubles, so det is 0, while the closed-form SVD
# leaves a co-norm of 5.6e-17 and the one-step co-eccentricity nonzero
_FLOAT_SINGULAR = np.array([[0.1, 0.3], [0.2, 0.6]])
# DPhi^2 of norm exp(-350): the determinant drift term at (2, 2) is 1e304,
# and the determinant tail term, larger by the step's 1e10 distortion, overflows
_TINY = math.exp(-350.0) / 2.0


# (steps, error, first failing pair) of inputs on which both paths raise
_RAISING = [
    # step 1 is singular: its one-step co-eccentricity vanishes
    (
        [np.diag([2.0, 0.5]), np.array([[1.0, 0.0], [0.0, 0.0]]), np.diag([2.0, 0.5])],
        DegenerateStep,
        (1, 2),
    ),
    # conformal products: the frame check, with the same threshold as
    # ctilde's DegenerateCoeccentricity, fires first on both paths
    ([_rotation(0.3), _rotation(0.7)], NoHyperbolicCoordinates, (1, 1)),
    # a singular step after regular ones: det DPhi^3 is zero
    (
        [np.diag([2.0, 0.5]), np.diag([3.0, 0.4]), _FLOAT_SINGULAR, np.diag([2.0, 0.5])],
        ZeroDeterminant,
        (3, 3),
    ),
    # |step_2| / (|DPhi^2| |DPhi^3|) = 1 / |DPhi^2|^2 = exp(919.6) in _det_drift_term
    (
        [np.diag([2.0, 0.5]), np.diag([1e-200, 1e-201]), np.diag([1e150, 1e149])],
        BoundOverflow,
        (2, 3),
    ),
    # exp(723.0) in _det_tail_term, after a finite _det_drift_term
    (
        [np.diag([2.0, 0.5]), np.diag([_TINY, _TINY / 10.0]), np.diag([1e10, 1.0])],
        BoundOverflow,
        (2, 3),
    ),
]


@pytest.mark.parametrize(
    "steps, expected, pair",
    [pytest.param(*case, id=f"steps{n}-{case[1].__name__}") for n, case in enumerate(_RAISING)],
)
def test_apriori_sweep_raises_like_per_pair(steps, expected, pair):
    coc = MatrixCocycle(steps)
    assert _first_failing_pair(coc) == pair
    outcome = _sweep_outcome(coc)
    assert outcome[0] is expected
    assert outcome == _per_pair_outcome(coc)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_apriori_sweep_equals_per_pair_on_random_cocycles(seed):
    coc = random_cocycle(np.random.default_rng(seed), max_len=12)
    assert _sweep_outcome(coc) == _per_pair_outcome(coc)


def verify_consecutive_rotation(source):
    """Per-step frame rotation: the sine-squared bound and drift <= sqrt(2)|sin|."""
    coc = cocycle_of(source)
    frames = frame_sequence(coc)
    rep = bounds.BoundReport("consecutive_rotation", bounds.DEFAULT_REL_TOL)
    for j in range(1, coc.k):
        nxt = frames[j]
        e_j = frames[j - 1].e
        cos = float(np.dot(e_j, nxt.e))
        sin = float(np.dot(e_j, nxt.f))
        if cos < 0.0:  # align so the rotation angle is at most a quarter turn
            cos, sin = -cos, -sin
        cc_next = nxt.coecc
        bound = (
            1.0
            / (1.0 - cc_next * cc_next)
            * bounds._exp(
                2.0
                * (
                    coc.log_coecc(j)
                    + coc.log_norm[j]
                    + coc.step_log_norm[j]
                    - coc.log_norm[j + 1]
                )
            )
        )
        # angles below the double-precision angular floor measure as noise,
        # hence the squared rounding allowance
        rep.add("rotation_sine_squared", (j,), sin * sin, bound, abs_tol=bounds.ROUNDING_UNIT**2)
        drift = math.hypot(1.0 - cos, sin)
        rep.add("drift_vs_sine", (j,), drift, SQRT2 * abs(sin), abs_tol=bounds.ROUNDING_UNIT)
    return rep


def test_consecutive_rotation_henon_and_random(henon_orbit20):
    assert verify_consecutive_rotation(henon_orbit20).verdict
    rng = np.random.default_rng(12)
    for _ in range(100):
        rep = verify_consecutive_rotation(random_cocycle(rng))
        assert rep.verdict, rep.first_failure()


# ---------------------------------------------------------------------------
# certificate-powered envelopes
# ---------------------------------------------------------------------------


def test_explicit_convergence_diagonal_both_flavors(diag_orbit):
    for flavor in (Flavor.SINGULAR_II, Flavor.SINGULAR_I):
        ledger = fit_constants(diag_orbit, flavor, 1.05)
        rep = bounds.verify_explicit_convergence(diag_orbit, ledger)
        assert rep.verdict
        drift = [r for r in rep.rows if r.check.startswith("frame_drift")]
        assert all(r.lhs == 0.0 for r in drift)
        assert all(r.margin >= 0.0 for r in rep.rows)


def test_explicit_convergence_henon(henon_orbit20):
    ledger = fit_constants(henon_orbit20, Flavor.SINGULAR_II, 1.05)
    rep = bounds.verify_explicit_convergence(henon_orbit20, ledger)
    assert rep.verdict
    assert all(r.margin >= 0.0 for r in rep.rows)


def test_explicit_convergence_requires_certificate(henon_orbit20):
    ledger = fit_constants(henon_orbit20, Flavor.SINGULAR_II, 1.05)
    corrupted = ledger.with_c(ledger.c / 100.0)  # below the true decay rate
    with pytest.raises(CertificateRequired, match=r"^coecc_decay fails at i=1$"):
        bounds.verify_explicit_convergence(henon_orbit20, corrupted)


def _envelope_rows(rep, rates, index, measured):
    """The envelope rows of one pair, given its ``_pair_measurements``."""
    drift, push, push_over_det, push_noise, det_noise = measured
    lhs = itertools.cycle((drift, push, push_over_det))
    abs_tol = itertools.cycle((bounds.ROUNDING_UNIT, push_noise, det_noise))
    for (check, q, r), lhs_value, tol_value in zip(rates, lhs, abs_tol):
        rep.add(check, index, lhs_value, q * r ** index[0], abs_tol=tol_value)


def _explicit_per_pair(orbit, ledger):
    """verify_explicit_convergence's rows, pair by pair from scratch."""
    coc = orbit.cocycle
    rates = bounds._envelope_rates(ledger, auxiliary_constants(ledger))
    rep = bounds.BoundReport("explicit_convergence", bounds.DEFAULT_REL_TOL)
    for k in range(1, coc.k + 1):
        frames = frame_sequence(coc, k)
        for i in range(1, k + 1):
            _envelope_rows(rep, rates, (i, k), bounds._pair_measurements(coc, frames, i, k))
    return _exact_rows(rep)


def _fitted_random_orbits(flavor, count):
    """Random cocycles, as orbit segments with zero second partials, that
    admit a ``flavor`` ledger, with the ledger."""
    rng = np.random.default_rng(31)
    spec = linear(m11=2.0, m22=0.5)
    found = []
    while len(found) < count:
        coc = random_cocycle(rng)
        orbit = OrbitSegment(spec, np.zeros((coc.k + 1, 2)), [(np.zeros((2, 2)),) * 2] * coc.k, coc)
        try:
            found.append((orbit, fit_constants(orbit, flavor, 1.05)))
        except Infeasible:
            pass
    return found


@pytest.mark.parametrize("flavor", [Flavor.SINGULAR_I, Flavor.SINGULAR_II, Flavor.SINGULAR_BOTH])
def test_explicit_sweep_equals_per_pair(flavor, henon, diag_orbit):
    # a fresh Henon orbit, so that this sweep measures the pairs itself
    fixtures = [compute_orbit(henon, HENON_FIXTURE, 20), diag_orbit]
    cases = [(orbit, fit_constants(orbit, flavor, 1.05)) for orbit in fixtures]
    cases += _fitted_random_orbits(flavor, 5)
    for orbit, ledger in cases:
        rows = _exact_rows(bounds.verify_explicit_convergence(orbit, ledger))
        per_pair = 6 if flavor is Flavor.SINGULAR_BOTH else 3
        assert len(rows) == per_pair * orbit.k * (orbit.k + 1) // 2
        assert rows == _explicit_per_pair(orbit, ledger)


def test_geometric_tail_dominates_finite_sums(henon_orbit20):
    # the finite geometric sums in the envelope proofs never exceed the
    # closed-form infinite-tail values used for the constants
    ledger = fit_constants(henon_orbit20, Flavor.SINGULAR_II, 1.05)
    ratios = (
        ledger.c / ledger.c_tilde,
        ledger.Gamma * ledger.c / ledger.c_tilde,
        ledger.b / (ledger.lam**2 * ledger.c_tilde),
    )
    for r in ratios:
        assert 0.0 < r < 1.0
        for i in (1, 3, 7):
            finite = sum(r**j for j in range(i, 20))
            assert finite <= r**i / (1.0 - r) * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# second-derivative norms
# ---------------------------------------------------------------------------


def _hessian_tensor(spec, p):
    """A planar map's second derivative at p as a bilinear tensor:
    entry [q, i, j] is d_i d_j Phi_q."""
    return np.stack(spec.second_partials_at(p), axis=1)


def _rows_by_check(rep):
    return {r.check: r for r in rep.rows}


def test_second_derivative_norm_linear_zero():
    rep = bounds.bilinear_column_bounds(bilinear=_hessian_tensor(linear(1.0, 2.0, 0.5, -1.0), np.zeros(2)))
    assert rep.verdict
    assert rep.context["bilinear_norm_sampled"] == 0.0
    assert all(r.lhs == 0.0 and r.rhs == 0.0 for r in rep.rows)


def test_second_derivative_norm_henon():
    h = henon(a=1.4, b=0.3)
    rep = bounds.bilinear_column_bounds(
        bilinear=_hessian_tensor(h, np.array([0.3, -0.1])), v=np.array([1.0, 0.0])
    )
    assert rep.verdict
    by = _rows_by_check(rep)
    assert math.isclose(by["bilinear_slice_lower"].lhs, 2.8, rel_tol=1e-14)
    assert math.isclose(by["bilinear_slice_upper"].rhs, 2.8 * SQRT2, rel_tol=1e-14)
    assert abs(rep.context["bilinear_norm_sampled"] - 2.8) <= 1e-3
    assert math.isclose(by["bilinear_v_lower"].lhs, 2.8, rel_tol=1e-14)
    assert abs(by["bilinear_v_lower"].rhs - 2.8) <= 1e-3


def test_second_derivative_brackets_contain_sampled_norm():
    rng = np.random.default_rng(13)
    for _ in range(500):
        spec = make_cubic_map(rng)
        p = rng.uniform(-1, 1, size=2)
        partials = spec.second_partials_at(p)
        lower = max(map(linalg2.spectral_norm, partials))  # closed-form slice norms
        v = None
        if lower != 0.0:
            v = rng.uniform(-1, 1, size=2)
            v /= np.linalg.norm(v)
        rep = bounds.bilinear_column_bounds(bilinear=_hessian_tensor(spec, p), v=v)
        by = _rows_by_check(rep)
        sampled = rep.context["bilinear_norm_sampled"]
        # the slices D2Phi(., e_k) are the partial matrices d_k DPhi
        assert math.isclose(by["bilinear_slice_lower"].lhs, lower, rel_tol=1e-14)
        if v is None:
            assert sampled <= 1e-12
            continue
        assert rep.verdict, rep.first_failure()
        assert sampled >= lower * (1.0 - 1e-4)
        assert sampled <= by["bilinear_slice_upper"].rhs * (1.0 + 1e-12)
        v_lower, v_norm = by["bilinear_v_lower"].lhs, by["bilinear_v_lower"].rhs
        assert math.isclose(v_lower, max(np.linalg.norm(m @ v) for m in partials), rel_tol=1e-14)
        assert v_norm >= v_lower * (1.0 - 1e-4)
        assert v_norm <= by["bilinear_v_upper"].rhs * (1.0 + 1e-12)


def test_d2_contraction_identity_examples():
    assert bounds.d2_contraction_identity(
        linear(1.0, 2.0, 0.5, -1.0), np.zeros(2), np.array([0.3, 0.7])
    ).verdict
    h = henon(a=1.4, b=0.3)
    rep = bounds.d2_contraction_identity(h, np.array([0.2, 0.1]), np.array([1.0, 0.0]))
    assert rep.verdict
    dx, _ = h.second_partials_at(np.array([0.2, 0.1]))
    assert np.allclose(dx @ np.array([1.0, 0.0]), [-2.8, 0.0])


def test_d2_contraction_identity_random_cubics():
    rng = np.random.default_rng(14)
    for _ in range(200):
        spec = make_cubic_map(rng)
        p = rng.uniform(-1, 1, size=2)
        v = rng.uniform(-1, 1, size=2)
        assert bounds.d2_contraction_identity(spec, p, v).verdict


# ---------------------------------------------------------------------------
# column / bilinear norm brackets
# ---------------------------------------------------------------------------


def test_column_bounds_identity_and_tight_case():
    rep = bounds.bilinear_column_bounds(matrix=np.eye(2))
    assert rep.verdict
    rep = bounds.bilinear_column_bounds(matrix=np.array([[1.0, 1.0], [0.0, 0.0]]))
    assert rep.verdict
    by = {r.check: r for r in rep.rows}
    # upper bound is attained: |A| = sqrt(2) = sqrt(n) * max column norm
    assert math.isclose(by["column_upper"].lhs, by["column_upper"].rhs, rel_tol=1e-9)


def test_bilinear_bounds_small_sweep():
    rng = np.random.default_rng(15)
    for trial in range(30):
        n = 2 + trial % 3
        rep = bounds.bilinear_column_bounds(
            matrix=rng.standard_normal((n, n)),
            bilinear=rng.standard_normal((n, n, n)),
            v=rng.standard_normal(n),
            rng=rng,
        )
        assert rep.verdict, rep.first_failure()


@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e150])
def test_power_norms_match_mpmath_singular_values(scale):
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(1313)
    for n in range(2, 5):
        stack = scale * rng.standard_normal((25, n, n))
        norms = bounds._power_norms(stack)
        with mp.workdps(40):
            for m, norm in zip(stack, norms):
                exact = max(mp.svd_r(mp.matrix(m.tolist()), compute_uv=False))
                assert abs(mp.mpf(float(norm)) / exact - 1) <= 8 * np.finfo(float).eps, (n, m)


def _bracket_inputs(rng, n):
    return rng.standard_normal((n, n)), rng.standard_normal((n, n, n)), rng.standard_normal(n)


@pytest.mark.parametrize("power", [600, -600])
def test_bracket_rows_scale_with_powers_of_two(power):
    # a power of two scales every norm exactly, so rows at 2^p x are 2^p times
    # the rows at x; squaring entries of 2^600 x (or of 2^-600 x) would leave
    # the double range
    cases = [(np.array([[1.0, 1.0], [0.0, 0.0]]), None, None)]
    rng = np.random.default_rng(600)
    cases += [_bracket_inputs(rng, 2 + trial % 3) for trial in range(12)]
    for trial, (matrix, bilinear, v) in enumerate(cases):
        at_one = bounds.bilinear_column_bounds(
            matrix=matrix, bilinear=bilinear, v=v, rng=np.random.default_rng(trial), samples=300)
        scaled = bounds.bilinear_column_bounds(
            matrix=np.ldexp(matrix, power), bilinear=None if bilinear is None else np.ldexp(bilinear, power),
            v=v, rng=np.random.default_rng(trial), samples=300)
        assert at_one.verdict and scaled.verdict, (trial, scaled.first_failure())
        assert [r.check for r in scaled.rows] == [r.check for r in at_one.rows]
        for row, base in zip(scaled.rows, at_one.rows):
            for value, unscaled in zip(row[2:5], base[2:5]):
                assert value == math.ldexp(unscaled, power), (trial, row, base)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("slot", ["matrix", "bilinear", "v"])
def test_bracket_non_finite_input_is_a_typed_error(slot, bad):
    inputs = dict(zip(("matrix", "bilinear", "v"), _bracket_inputs(np.random.default_rng(5), 3)))
    inputs[slot].flat[1] = bad
    with pytest.raises(InvalidInput, match="non-finite"):
        bounds.bilinear_column_bounds(**inputs)


@pytest.mark.parametrize(
    "inputs",
    [
        {"matrix": np.ones(3)},
        {"matrix": np.ones((2, 2, 2))},
        {"matrix": np.ones((0, 2))},
        {"bilinear": np.ones((2, 2))},
        {"bilinear": np.ones((2, 3, 3))},
        {"bilinear": np.ones((3, 3, 3)), "v": np.ones(2)},
    ],
    ids=["matrix-1d", "matrix-3d", "matrix-empty", "bilinear-2d", "bilinear-2x3x3", "v-length"],
)
def test_bracket_malformed_shape_is_a_typed_error(inputs):
    slot = list(inputs)[-1]
    with pytest.raises(InvalidInput, match=f"^{slot} has shape"):
        bounds.bilinear_column_bounds(**inputs)


def test_bracket_v_without_bilinear_is_ignored():
    # v is read only with a bilinear map, so without one it is not checked
    rep = bounds.bilinear_column_bounds(matrix=np.eye(2), v=np.array([math.nan, 0.0]))
    assert rep.verdict
    assert [r.check for r in rep.rows] == ["matrix_norm_cross_check", "column_lower", "column_upper"]


@pytest.mark.parametrize("slot", ["matrix", "bilinear"])
def test_bracket_dimension_above_four_is_a_typed_error(slot):
    inputs = dict(zip(("matrix", "bilinear", "v"), _bracket_inputs(np.random.default_rng(5), 5)))
    with pytest.raises(InvalidInput, match="dimension") as caught:
        bounds.bilinear_column_bounds(**{slot: inputs[slot]})
    # callers that caught the ValueError of a bad dimension still do
    assert isinstance(caught.value, ValueError) and isinstance(caught.value, HypcoordsError)


def test_bracket_value_beyond_double_range_is_bound_overflow():
    # |B(v, .)| is about 1e600, though each input is far inside the range
    with pytest.raises(BoundOverflow):
        bounds.bilinear_column_bounds(bilinear=np.full((2, 2, 2), 1e300), v=np.full(2, 1e300))


# ---------------------------------------------------------------------------
# slow variation
# ---------------------------------------------------------------------------


def test_slow_variation_terms_linear_zero():
    orbit = compute_orbit(linear(2.0, 0.0, 0.0, 0.5), np.zeros(2), 6)
    terms = bounds.slow_variation_terms(orbit, 6, "x")
    assert terms.rhs_apriori == 0.0
    assert all(v == 0.0 for v in terms.EE)
    assert all(v == 0.0 for v in terms.FF)
    assert terms.A_k >= SQRT2


def test_slow_variation_terms_henon_regression(henon_orbit8):
    # frozen from the first verified run (recomputed at extended precision)
    terms = bounds.slow_variation_terms(henon_orbit8, 8, "x")
    assert math.isclose(terms.A_k, 1.4142135623730954, rel_tol=1e-12)
    assert math.isclose(terms.EE[0], 0.6387713677395335, rel_tol=1e-9)
    assert math.isclose(terms.sum_EE_tail, 0.30261967813891205, rel_tol=1e-9)
    assert math.isclose(terms.sum_FF, 19161068177.633003, rel_tol=1e-9)
    terms_y = bounds.slow_variation_terms(henon_orbit8, 8, "y")
    assert terms_y.EE[0] == 0.0
    assert math.isclose(terms_y.sum_EE_tail, 0.15156980104949713, rel_tol=1e-9)


def test_slow_variation_ratio_identity(henon_orbit8):
    from hypcoords.hypframe import hyperbolic_coordinates

    terms = bounds.slow_variation_terms(henon_orbit8, 8, "x")
    frame = hyperbolic_coordinates(henon_orbit8, 8)
    assert math.isclose(terms.B_k / terms.A_k, frame.coecc**2, rel_tol=1e-12)
    ledger = fit_constants(henon_orbit8, Flavor.SINGULAR_II, 1.05)
    assert terms.B_k / terms.A_k <= (ledger.B * ledger.c**8) ** 2


# ---------------------------------------------------------------------------
# The exact frame derivative against central differences and mpmath
# ---------------------------------------------------------------------------


def frame_derivative_fd(spec, xi0, k, h):
    """Central difference of the order-k f field at xi0, as (d_f, e_dot_df, f_dot_df).

    Neighbour frames are sign-aligned to the centre frame before
    differencing; d_f has the columns d_x f and d_y f.
    """
    xi0 = np.asarray(xi0, dtype=float)
    center = hyperbolic_coordinates(compute_orbit(spec, xi0, k), k)
    cols = []
    for axis in range(2):
        step = np.zeros(2)
        step[axis] = h
        plus, minus = (
            hyperbolic_coordinates(compute_orbit(spec, p, k), k).f for p in (xi0 + step, xi0 - step)
        )
        plus = plus if plus @ center.f > 0.0 else -plus
        minus = minus if minus @ center.f > 0.0 else -minus
        cols.append((plus - minus) / ((xi0 + step)[axis] - (xi0 - step)[axis]))
    d_f = np.column_stack(cols)
    return d_f, center.e @ d_f, center.f @ d_f


def exact_frame_derivative(spec, xi0, k):
    """(<e, d_x f>, <e, d_y f>) of the order-k frame from slow_variation_terms."""
    orbit = compute_orbit(spec, np.asarray(xi0, dtype=float), k)
    return np.array([bounds.slow_variation_terms(orbit, k, axis).e_dot_df for axis in "xy"])


def test_frame_derivative_fd_linear_constant_field():
    d_f, _, _ = frame_derivative_fd(linear(2.0, 0.0, 0.0, 0.5), np.array([0.3, 0.1]), 3, 1e-5)
    assert np.linalg.norm(d_f, 2) <= 1e-9


def test_frame_derivative_fd_henon_vs_angle_gradient(henon):
    # independent oracle at order 1: differentiate the critical angle of the
    # one-step derivative; for a unit field |D f| equals the angle gradient
    from hypcoords.hypframe import angle_theta

    hh = 1e-5

    def theta_f(p):
        j = jacobian_at(henon, p)
        return angle_theta(j[0, 0], j[1, 0], j[0, 1], j[1, 1]).theta_expand

    tx = (theta_f(HENON_FIXTURE + [hh, 0]) - theta_f(HENON_FIXTURE - [hh, 0])) / (2 * hh)
    ty = (theta_f(HENON_FIXTURE + [0, hh]) - theta_f(HENON_FIXTURE - [0, hh])) / (2 * hh)
    d_f, _, _ = frame_derivative_fd(henon, HENON_FIXTURE, 1, hh)
    assert abs(math.hypot(tx, ty) - np.linalg.norm(d_f, 2)) <= 1e-4
    exact = exact_frame_derivative(henon, HENON_FIXTURE, 1)
    assert abs(math.hypot(tx, ty) - math.hypot(*exact)) <= 1e-4


def test_frame_derivative_fd_orthogonality_decomposition(henon):
    d_f, e_dot_df, f_dot_df = frame_derivative_fd(henon, HENON_FIXTURE, 8, 1e-5)
    # differentiating |f|^2 = 1 kills the f component
    assert np.abs(f_dot_df).max() <= 1e-6
    # so the column norm reduces to the e component
    for axis in range(2):
        assert abs(np.linalg.norm(d_f[:, axis]) - abs(e_dot_df[axis])) <= 1e-4


def test_frame_derivative_fd_richardson(henon):
    coarse = np.linalg.norm(frame_derivative_fd(henon, HENON_FIXTURE, 8, 1e-5)[0], 2)
    fine = np.linalg.norm(frame_derivative_fd(henon, HENON_FIXTURE, 8, 5e-6)[0], 2)
    assert abs(coarse - fine) <= 0.05 * fine


# (map, point, order, step); at K = 6 the order-8 field bends so fast that a
# step of 1e-8 still leaves a truncation error of 3e-5, so it gets 1e-9 only
FD_CASES = (
    [(henon(), HENON_FIXTURE, k, h) for k in range(1, 13) for h in (1e-8, 1e-9)]
    + [(lorenz2d(), LORENZ_FIXTURE, k, h) for k in range(1, 6) for h in (1e-8, 1e-9)]
    + [(standard(6.0), np.array([0.3, 0.7]), 8, 1e-9)]
)


@pytest.mark.parametrize(
    "spec, xi0, k, h", FD_CASES, ids=[f"{c[0].name}-k{c[2]}-h{c[3]:g}" for c in FD_CASES]
)
def test_exact_frame_derivative_matches_central_difference(spec, xi0, k, h):
    exact = exact_frame_derivative(spec, xi0, k)
    _, fd, _ = frame_derivative_fd(spec, xi0, k, h)
    assert math.isclose(math.hypot(*exact), math.hypot(*fd), rel_tol=1e-5)
    for axis in range(2):
        assert math.isclose(exact[axis], fd[axis], rel_tol=1e-5, abs_tol=1e-12), axis


def _mp_steps(name, x, y, k):
    """Orbit points and step Jacobians of the fixture maps, in mpmath arithmetic."""
    import mpmath as mp

    out = []
    for _ in range(k):
        if name == "henon":
            a, b = mp.mpf(1.4), mp.mpf(0.3)
            jac = mp.matrix([[-2 * a * x, 1], [b, 0]])
            nxt = (1 + y - a * x * x, b * x)
        else:  # standard, K = 6
            kick, bend = 6 * mp.sin(x), 6 * mp.cos(x)
            jac = mp.matrix([[1 + bend, 1], [bend, 1]])
            nxt = (x + y + kick, y + kick)
        out.append(((x, y), jac))
        x, y = nxt
    return out


def _mp_f_field(name, x, y, k):
    """Unit f of the order-k frame at (x, y): top eigenvector of M^T M."""
    import mpmath as mp

    m = mp.eye(2)
    for _, jac in _mp_steps(name, x, y, k):
        m = jac * m
    g = m.T * m
    p, q, r = g[0, 0], g[0, 1], g[1, 1]
    top = (p + r) / 2 + mp.sqrt(((p - r) / 2) ** 2 + q * q)
    v = mp.matrix([q, top - p]) if abs(top - p) > abs(top - r) else mp.matrix([top - r, q])
    return v / mp.norm(v)


def _mp_e_dot_df(name, xi0, k):
    """<e, d_axis f> per axis by a central difference at 10^-(dps/3) in mpmath.

    Truncation (h^2) and rounding (10^-dps / h) both stay far below 1e-10;
    the working precision grows with k to resolve co-eccentricities far
    below the double range.
    """
    import mpmath as mp

    with mp.workdps(60 + 2 * k):
        h = mp.mpf(10) ** -(mp.mp.dps // 3)
        x0, y0 = mp.mpf(float(xi0[0])), mp.mpf(float(xi0[1]))
        f = _mp_f_field(name, x0, y0, k)
        e = mp.matrix([-f[1], f[0]])
        out = []
        for dx, dy in ((h, 0), (0, h)):
            plus = _mp_f_field(name, x0 + dx, y0 + dy, k)
            minus = _mp_f_field(name, x0 - dx, y0 - dy, k)
            plus = plus if (plus.T * f)[0] > 0 else -plus
            minus = minus if (minus.T * f)[0] > 0 else -minus
            out.append(float((e.T * (plus - minus))[0] / (2 * h)))
    return np.array(out)


@pytest.mark.parametrize(
    "name, xi0, k, rel",
    [("henon", HENON_FIXTURE, 8, 1e-10),
     # large orders: DPhi^i e sits far below eps |DPhi^i| in a forward product
     ("henon", HENON_FIXTURE, 40, 1e-10),
     ("henon", HENON_FIXTURE, 80, 1e-10),
     # the float orbit of the K = 6 map drifts from the exact one
     ("standard", np.array([0.3, 0.7]), 8, 1e-9)],
    ids=["henon-k8", "henon-k40", "henon-k80", "standard-k8"],
)
def test_exact_frame_derivative_matches_mpmath(name, xi0, k, rel):
    pytest.importorskip("mpmath")
    spec = henon() if name == "henon" else standard(6.0)
    exact = exact_frame_derivative(spec, xi0, k)
    oracle = _mp_e_dot_df(name, xi0, k)
    for axis in range(2):
        assert math.isclose(exact[axis], oracle[axis], rel_tol=rel), axis
    assert math.isclose(math.hypot(*exact), math.hypot(*oracle), rel_tol=rel)


def test_middle_terms_match_mpmath_at_large_order(henon):
    # EE_i = |D2Phi(x_i)[DPhi^i x] DPhi^i e| |DPhi^(i+1) e| / |det DPhi^(i+1)|, and
    # for Henon D2Phi[w] v = (-2 a w_x v_x, 0).  At k = 40 a forward product
    # loses DPhi^i e entirely for i near k.
    mp = pytest.importorskip("mpmath")
    k = 40
    with mp.workdps(60 + 2 * k):
        x0, y0 = mp.mpf(float(HENON_FIXTURE[0])), mp.mpf(float(HENON_FIXTURE[1]))
        f = _mp_f_field("henon", x0, y0, k)
        e = mp.matrix([-f[1], f[0]])
        m = mp.eye(2)
        images = []  # (DPhi^i x, DPhi^i e, |det DPhi^i|)
        for _, jac in _mp_steps("henon", x0, y0, k):
            images.append((m * mp.matrix([1, 0]), m * e, abs(mp.det(m))))
            m = jac * m
        images.append((None, m * e, abs(mp.det(m))))
        a = mp.mpf(1.4)
        ee = [
            2 * a * abs(w[0] * v[0]) * mp.norm(images[i + 1][1]) / images[i + 1][2]
            for i, (w, v, _) in enumerate(images[:-1])
        ]
        head, tail = float(ee[0]), float(mp.fsum(ee[1:]))
    terms = bounds.slow_variation_terms(compute_orbit(henon, HENON_FIXTURE, k), k, "x")
    assert math.isclose(terms.EE[0], head, rel_tol=1e-12)
    assert math.isclose(terms.sum_EE_tail, tail, rel_tol=1e-10)


def test_exact_frame_derivative_standard_map_outside_the_coarse_step_regime():
    # at K = 6 a step of 1e-5 is far outside the linear regime of the order-8
    # field: the central difference reads about 0.15 where the derivative is 1.063
    exact = exact_frame_derivative(standard(6.0), np.array([0.3, 0.7]), 8)
    coarse = frame_derivative_fd(standard(6.0), np.array([0.3, 0.7]), 8, 1e-5)[1]
    assert math.isclose(math.hypot(*exact), 1.0630021232865734, rel_tol=1e-9)
    assert abs(math.hypot(*coarse) - math.hypot(*exact)) > 0.5


def test_exact_frame_derivative_of_a_constant_field_is_zero():
    for k in (1, 3, 8):
        exact = exact_frame_derivative(linear(2.0, 0.3, 0.1, 0.5), np.array([0.3, 0.1]), k)
        assert exact.tolist() == [0.0, 0.0]


def test_verify_slow_variation_henon(henon):
    orbit = compute_orbit(henon, HENON_FIXTURE, 8)
    ledger = fit_constants(orbit, Flavor.SINGULAR_II, 1.05)
    rep = bounds.verify_slow_variation(orbit, ledger)
    assert rep.verdict, rep.first_failure()
    names = {r.check for r in rep.rows}
    assert "frame_derivative_master_bound" in names
    assert "aposteriori_inner_product_x" in names
    assert "expanded_terms_bound_y" in names


def test_verify_slow_variation_henon_large_order(henon):
    # the chain holds at k = 40 once DPhi^i e is pulled back through the
    # inverse steps; forward products put a sum_EE_tail near 6e16 here
    orbit = compute_orbit(henon, HENON_FIXTURE, 40)
    ledger = fit_constants(orbit, Flavor.SINGULAR_II, 1.05)
    rep = bounds.verify_slow_variation(orbit, ledger)
    assert rep.verdict, rep.first_failure()


def test_verify_slow_variation_linear():
    lin = linear(2.0, 0.0, 0.0, 0.5)
    orbit = compute_orbit(lin, np.zeros(2), 5)
    ledger = fit_constants(orbit, Flavor.SINGULAR_II, 1.05)
    rep = bounds.verify_slow_variation(orbit, ledger)
    assert rep.verdict
    fd_rows = [r for r in rep.rows if r.check == "frame_derivative_master_bound"]
    assert fd_rows[0].lhs == 0.0


def test_verify_slow_variation_requires_certificate(henon):
    orbit = compute_orbit(henon, HENON_FIXTURE, 8)
    ledger = fit_constants(orbit, Flavor.SINGULAR_II, 1.05)
    with pytest.raises(CertificateRequired, match=r"^coecc_decay fails at i=1$"):
        bounds.verify_slow_variation(orbit, ledger.with_c(ledger.c / 100.0))


def test_consecutive_rotation_standard_fixture():
    from hypcoords.planar_maps import standard

    from conftest import STANDARD_FIXTURE, STANDARD_K

    orbit = compute_orbit(standard(K=STANDARD_K), STANDARD_FIXTURE, 12)
    rep = verify_consecutive_rotation(orbit)
    assert rep.verdict, rep.first_failure()
    assert bounds.verify_apriori_all(orbit).verdict


def test_explicit_and_slow_variation_both_flavors(henon, henon_orbit20):
    ledger = fit_constants(henon_orbit20, Flavor.SINGULAR_BOTH, 1.05)
    rep = bounds.verify_explicit_convergence(henon_orbit20, ledger)
    assert rep.verdict
    checks = {r.check for r in rep.rows}
    assert "frame_drift_envelope_I" in checks and "frame_drift_envelope_II" in checks

    orbit8 = compute_orbit(henon, np.array(henon_orbit20.points[0]), 8)
    ledger8 = fit_constants(orbit8, Flavor.SINGULAR_BOTH, 1.05)
    rep8 = bounds.verify_slow_variation(orbit8, ledger8)
    assert rep8.verdict
    checks8 = {r.check for r in rep8.rows}
    assert "first_term_bound_I_x" in checks8 and "first_term_bound_II_x" in checks8


def test_lorenz2d_singular_bounds_chain():
    import dataclasses

    from hypcoords.certificate import check_quasi_hyperbolic

    from test_certificate import LORENZ_FIXTURE

    orbit = compute_orbit(lorenz2d(), LORENZ_FIXTURE, 8)
    base = fit_constants(orbit, Flavor.SINGULAR_I, 1.1)
    assert bounds.verify_explicit_convergence(orbit, base).verdict
    assert bounds.verify_apriori_all(orbit).verdict

    ct = 0.9
    coc = orbit.cocycle
    log_bt = min(0.0, min(coc.step_log_coecc(j) - j * math.log(ct) for j in range(8)))
    both = dataclasses.replace(
        base, flavor=Flavor.SINGULAR_BOTH, c_tilde=ct, B_tilde=math.exp(log_bt)
    )
    assert check_quasi_hyperbolic(orbit, both).verdict
    assert bounds.verify_explicit_convergence(orbit, both).verdict
    short = compute_orbit(lorenz2d(), LORENZ_FIXTURE, 5)
    rep = bounds.verify_slow_variation(short, both)
    assert rep.verdict, rep.first_failure()


# ---------------------------------------------------------------------------
# Library fuzz: random cocycles end in a typed error or a NaN-free result
# ---------------------------------------------------------------------------


@st.composite
def fuzz_steps(draw):
    """One step matrix: generic, huge, tiny, near singular, a rotation or nilpotent."""
    kind = draw(st.sampled_from(
        ["generic", "huge", "tiny", "near_singular", "rotation", "nilpotent"]
    ))
    entries = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4))).reshape(2, 2)
    if kind == "huge":
        return entries * 10.0 ** draw(st.integers(100, 300))
    if kind == "tiny":
        return entries * 10.0 ** -draw(st.integers(100, 300))
    if kind == "near_singular":
        u, v = entries[0], entries[1]
        return np.outer(u, v) + draw(st.floats(-1e-12, 1e-12)) * np.eye(2)
    if kind == "rotation":
        return jacobian_at(rotation(draw(st.floats(0.0, 2.0 * math.pi))), np.zeros(2))
    if kind == "nilpotent":
        return np.array([[0.0, 1.0], [0.0, 0.0]]) * entries[0, 0]
    return entries


def _finite_frame(frame):
    values = [*frame.e, *frame.f, frame.log_sigma_max, frame.coecc, frame.theta]
    return all(math.isfinite(v) for v in values) and not math.isnan(frame.log_sigma_min)


def _nan_free_report(report):
    return not any(math.isnan(v) for r in report.rows for v in (r.lhs, r.rhs, r.margin))


@settings(max_examples=200, deadline=None)
@given(st.lists(fuzz_steps(), min_size=1, max_size=6))
@example([np.array([[0.0, 0.0], [0.0, 2.2e-311]])])  # singular, subnormal
@example([np.array([[-6.8e171, 1.77e172], [-1.2e172, 4.9e170]])])  # det2 overflows
@example([np.diag([2e200, 1e200])] * 2)  # |DPhi^2| beyond the double range
def test_library_calls_end_in_typed_error_or_nan_free_result(steps):
    def outcome(call):
        try:
            return call()
        except HypcoordsError:
            return None

    coc = outcome(lambda: MatrixCocycle(steps))
    if coc is None:
        return
    frames = outcome(lambda: frame_sequence(coc))
    assert frames is None or all(_finite_frame(f) for f in frames)
    for verify in (bounds.verify_apriori_all, verify_consecutive_rotation):
        report = outcome(lambda: verify(coc))
        assert report is None or _nan_free_report(report)


@settings(max_examples=200, deadline=None)
@given(st.lists(fuzz_steps(), min_size=1, max_size=6))
def test_apriori_sweep_equals_per_pair_on_fuzzed_steps(steps):
    try:
        coc = MatrixCocycle(steps)
    except HypcoordsError:
        return
    assert _sweep_outcome(coc) == _per_pair_outcome(coc)


def _measurement_outcome(measure):
    try:
        return [tuple(map(repr, values)) for values in measure()]
    except (HypcoordsError, ArithmeticError) as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(st.lists(fuzz_steps(), min_size=1, max_size=6))
def test_order_measurements_equal_per_pair_on_fuzzed_steps(steps):
    # verify_explicit_convergence reads these columns and has no per-pair
    # path, so the batched measurements must raise as the per-pair ones do
    try:
        coc = MatrixCocycle(steps)
    except HypcoordsError:
        return

    def batched():
        for k in range(1, coc.k + 1):
            c = bounds._measured(coc, k)
            yield from zip(c.indices, *(column.tolist() for column in c[1:]))

    def per_pair():
        for k in range(1, coc.k + 1):
            frames = frame_sequence(coc, k)
            for i in range(1, k + 1):
                yield ((i, k), *bounds._pair_measurements(coc, frames, i, k))

    assert _measurement_outcome(batched) == _measurement_outcome(per_pair)
