import collections
import dataclasses
import inspect
import itertools
import math
import pickle
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from hypcoords import bounds, foliation, hypframe, linalg2
from hypcoords.certificate import Flavor, auxiliary_constants, fit_constants
from hypcoords.cocycle import MatrixCocycle, OrbitSegment, ScaledMatrix, cocycle_of, compute_orbit
from hypcoords.errors import (
    BoundOverflow,
    CertificateRequired,
    HypcoordsError,
    IndexOutOfRange,
    Infeasible,
    InvalidInput,
    NoHyperbolicCoordinates,
    ZeroDeterminant,
    ZeroMatrix,
)
from hypcoords.hypframe import EPS_COECC, frame_coecc, frame_sequence, hyperbolic_coordinates
from hypcoords.planar_maps import henon, linear, lorenz2d, rotation, standard

from conftest import (
    HENON_FIXTURE,
    HENON_START_A,
    HENON_START_B,
    LORENZ_FIXTURE,
    jacobian_at,
    make_cubic_map,
    random_cocycle,
)

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
    with pytest.raises(NoHyperbolicCoordinates):
        bounds.ctilde(coc, 1)


def log_tail(source, i, k):
    """The log tail sum over j = i..k-1 of coecc_j / onestep_coecc_j."""
    return bounds._log_sum(cocycle_of(source), i, k, 1)


def test_tail_empty_sum(diag_orbit):
    assert log_tail(diag_orbit, 5, 5) == -math.inf


def test_tail_diagonal_geometric(diag_orbit):
    # coecc_j = 4^-j and one-step coecc = 1/4, so terms are 4^(1-j)
    for i, k in ((1, 6), (2, 9), (3, 20)):
        expected = sum(4.0 ** (1 - j) for j in range(i, k))
        assert math.isclose(math.exp(log_tail(diag_orbit, i, k)), expected, rel_tol=1e-12)


def test_tail_at_a_singular_step_is_a_zero_determinant():
    # a zero one-step co-eccentricity makes the product through that step
    # singular, so the pair's pull-back is undefined before its tail is read
    coc = MatrixCocycle([np.diag([2.0, 0.5]), np.array([[1.0, 0.0], [0.0, 0.0]])])
    for verify in (lambda: bounds.verify_apriori_convergence(coc, 1, 2), lambda: bounds.verify_apriori_all(coc)):
        with pytest.raises(ZeroDeterminant, match=r"^det DPhi\^2 is zero: determinant-normalized rows undefined$"):
            verify()


def test_tail_henon_regression(henon_orbit20):
    # frozen from the first verified run; cross-checked by direct summation
    # in extended precision (agreement ~4e-16)
    assert math.isclose(math.exp(log_tail(henon_orbit20, 2, 10)), 0.5446182426249054, rel_tol=1e-12)


# The co-eccentricity and the pushed frame of order k are read as the commands
# read them: from the frame of ``hyperbolic_coordinates``, pushed by the cocycle
_ORDER_CALLS = {
    "hyperbolic_coordinates": lambda orbit, k: hypframe.hyperbolic_coordinates(orbit, k),
    "coeccentricity": lambda orbit, k: hypframe.hyperbolic_coordinates(orbit, k).coecc,
    "pushforward_frames": lambda orbit, k: orbit.cocycle.images(hypframe.hyperbolic_coordinates(orbit, k).f, [0]),
    "ctilde": lambda orbit, k: bounds.ctilde(orbit, k),
    "verify_apriori_convergence": lambda orbit, k: bounds.verify_apriori_convergence(orbit, 1, k),
    "slow_variation_terms": lambda orbit, k: bounds.slow_variation_terms(orbit, k),
}


@pytest.mark.parametrize("k", [0, 9])
@pytest.mark.parametrize("name", list(_ORDER_CALLS))
def test_order_outside_the_orbit_is_index_out_of_range(henon, name, k):
    orbit = compute_orbit(henon, HENON_FIXTURE, 5)
    with pytest.raises(IndexOutOfRange, match="outside"):
        _ORDER_CALLS[name](orbit, k)


@pytest.mark.parametrize("k", [2.5, True])
@pytest.mark.parametrize(
    "name", [*_ORDER_CALLS, "pushforward step", "verify_apriori_convergence index"])
def test_order_that_is_not_an_int_is_invalid_input(henon, name, k):
    # the rule compute_orbit applies to its k: an int, and not a bool
    calls = {
        **_ORDER_CALLS,
        "pushforward step": lambda orbit, i: orbit.cocycle.images(hypframe.hyperbolic_coordinates(orbit, 2).f, i),
        "verify_apriori_convergence index": lambda orbit, i: bounds.verify_apriori_convergence(orbit, i, 3),
    }
    orbit = compute_orbit(henon, HENON_FIXTURE, 5)
    with pytest.raises(InvalidInput, match=f"must be an int, got {k!r}$"):
        calls[name](orbit, k)


_CURVE = {"total_arclength": 0.01, "step": 0.005}
# Each entry point with a value in one argument, on the Henon fixture at k = 5;
# those of _ORDER_CALLS take it as the order
_VALUE_CALLS = {
    **_ORDER_CALLS,
    "frame_sequence": lambda o, v: hypframe.frame_sequence(o, v),
    # the frame of order 2 pushed v steps, and the frame of order v pushed to
    # its diagonal form, each at one step
    "pushforward_frames step": lambda o, v: o.cocycle.images(hypframe.hyperbolic_coordinates(o, 2).f, [v]),
    "diagonal_form_residuals": lambda o, v: o.cocycle.images(hypframe.hyperbolic_coordinates(o, v).f, [v]),
    "oracle matrix": lambda o, v: hypframe.oracle_extremal_directions(v, 100),
    "prefix": lambda o, v: o.cocycle.prefix(v),
    "block start": lambda o, v: o.cocycle.block(v, 3),
    "block end": lambda o, v: o.cocycle.block(0, v),
    "images": lambda o, v: o.cocycle.images(np.array([1.0, 0.0]), v),
    "images vector": lambda o, v: o.cocycle.images(v, [1]),
    "contracted_images": lambda o, v: o.cocycle.contracted_images(v),
    "fit_constants slack": lambda o, v: fit_constants(o, Flavor.SINGULAR_II, v),
    "compute_orbit start": lambda o, v: compute_orbit(o.spec, v, 3),
    "compute_orbit guard": lambda o, v: compute_orbit(o.spec, HENON_FIXTURE, 3, guard=v),
    "integrate_curve start": lambda o, v: foliation.integrate_curve(o.spec, v, 2, **_CURVE),
    "integrate_curve step": lambda o, v: foliation.integrate_curve(o.spec, HENON_FIXTURE, 2, 0.01, v),
    "integrate_curve total_arclength": lambda o, v: foliation.integrate_curve(
        o.spec, HENON_FIXTURE, 2, total_arclength=v, step=0.005),
    "integrate_curve guard": lambda o, v: foliation.integrate_curve(o.spec, HENON_FIXTURE, 2, guard=v, **_CURVE),
    "foliation_grid rectangle": lambda o, v: foliation.foliation_grid(o.spec, v, 2, 0.5, **_CURVE),
    "foliation_grid seed_spacing": lambda o, v: foliation.foliation_grid(o.spec, (0, 1, 0, 1), 2, v, **_CURVE),
    "ScaledMatrix.from_matrix": lambda o, v: ScaledMatrix.from_matrix(v),
    "bilinear_column_bounds matrix": lambda o, v: bounds.bilinear_column_bounds(matrix=v),
}
_VALUES = {"str": "x", "bool": True, "list": [2], "None": None, "pair": (1, 2), "triple": (1, 2, 3),
           "ragged": [[1], 2]}
# the (entry point, value) pairs that are valid: the call returns
_VALID_VALUES = {
    ("frame_sequence", "None"), ("compute_orbit guard", "None"), ("integrate_curve guard", "None"),
    ("images", "list"), ("images", "pair"), ("contracted_images", "list"), ("contracted_images", "pair"),
    ("images", "triple"), ("contracted_images", "triple"), ("images vector", "pair"),
    ("bilinear_column_bounds matrix", "None"),
    ("compute_orbit start", "pair"), ("integrate_curve start", "pair"),
}


@pytest.mark.parametrize("value", list(_VALUES))
@pytest.mark.parametrize("entry", list(_VALUE_CALLS))
def test_a_wrong_typed_argument_is_a_typed_error(henon, entry, value):
    orbit = compute_orbit(henon, HENON_FIXTURE, 5)
    if (entry, value) in _VALID_VALUES:
        _VALUE_CALLS[entry](orbit, _VALUES[value])
    else:
        with pytest.raises(HypcoordsError):
            _VALUE_CALLS[entry](orbit, _VALUES[value])


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
    rows = []
    try:
        for k in range(1, coc.k + 1):
            for i in range(1, k + 1):
                rows += _exact_rows(bounds.verify_apriori_convergence(coc, i, k))
    except HypcoordsError as exc:
        return type(exc), str(exc)
    return rows


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
# and the determinant tail term, larger by the step's 1e10 distortion, is beyond
# the double range before it is multiplied by |DPhi^2| / |det DPhi^2|
_TINY = math.exp(-350.0) / 2.0


# (steps, error, its message, first failing pair) of inputs on which both paths raise
_RAISING = [
    # step 1 is singular: DPhi^2 is, and e_2 has no pull-back, before its
    # zero one-step co-eccentricity is met
    (
        [np.diag([2.0, 0.5]), np.array([[1.0, 0.0], [0.0, 0.0]]), np.diag([2.0, 0.5])],
        ZeroDeterminant,
        "det DPhi^2 is zero: determinant-normalized rows undefined",
        (1, 2),
    ),
    # conformal products: the frame check, which ctilde shares, fires first
    # on both paths
    (
        [_rotation(0.3), _rotation(0.7)],
        NoHyperbolicCoordinates,
        "co-eccentricity 1.0 >= 1 - 1e-12: frame undefined",
        (1, 1),
    ),
    # a singular step after regular ones: det DPhi^3 is zero, so the first
    # pair of order 3 has no pull-back of e_3
    (
        [np.diag([2.0, 0.5]), np.diag([3.0, 0.4]), _FLOAT_SINGULAR, np.diag([2.0, 0.5])],
        ZeroDeterminant,
        "det DPhi^3 is zero: determinant-normalized rows undefined",
        (1, 3),
    ),
    # the push tail row: the tail term coecc_1 / onestep_coecc_1 = 1e110 is in
    # range, ctilde |DPhi^1| times it, 1e310, is not
    (
        [np.diag([1e200, 1e10]), np.array([[0.0, 1.0], [1e300, 0.0]])],
        BoundOverflow,
        "bound term exp(714.148) exceeds the double range",
        (1, 2),
    ),
    # the determinant tail row: ctilde |DPhi^1| T = 1e-50 is in range, over
    # |det DPhi^1| = 1e-450 it is not; the push tail row above it is
    (
        [np.diag([1e-200, 1e-250]), np.diag([1e-100, 1e-300])],
        BoundOverflow,
        "bound term exp(921.381) exceeds the double range",
        (1, 2),
    ),
    # |DPhi^2 e_2| = 1e-600 underflows: a measured side whose reciprocal
    # would overflow is out of range; every side of (1, 2) is in it
    (
        [np.diag([1e-300, 2e-300])] * 3,
        BoundOverflow,
        "bound term exp(-1381.55) exceeds the double range",
        (2, 2),
    ),
]

# Steps with a determinant-normalized term beyond the double range on its own,
# whose right side, a sum scaled by ctilde |DPhi^i| / |det DPhi^i|, is in it
_SCALED_INTO_RANGE = [
    # the determinant drift term |step_2| / (|DPhi^2| |DPhi^3|) = 1 / |DPhi^2|^2 = e^919.648
    [np.diag([2.0, 0.5]), np.diag([1e-200, 1e-201]), np.diag([1e150, 1e149])],
    # the determinant tail term, larger by the step's 1e10 distortion: e^723.026
    [np.diag([2.0, 0.5]), np.diag([_TINY, _TINY / 10.0]), np.diag([1e10, 1.0])],
]


@pytest.mark.parametrize("steps", _SCALED_INTO_RANGE)
def test_sums_in_log_form_give_a_verdict_where_a_term_alone_overflows(steps):
    coc = MatrixCocycle(steps)
    rep = bounds.verify_apriori_all(coc)
    status = rep.columns()[-1]
    assert len(status) == 7 * 6 and (status == 2).all()  # every row passes, none through the allowance
    assert _exact_rows(rep) == _per_pair_outcome(coc)


@pytest.mark.parametrize(
    "steps, expected, message, pair",
    [pytest.param(*case, id=f"steps{n}-{case[1].__name__}") for n, case in enumerate(_RAISING)],
)
def test_apriori_sweep_raises_like_per_pair(steps, expected, message, pair):
    coc = MatrixCocycle(steps)
    assert _first_failing_pair(coc) == pair
    outcome = _sweep_outcome(coc)
    assert outcome == (expected, message)
    assert outcome == _per_pair_outcome(coc)


# 0.1 * 3 and 0.7 * 3 round as the second column does, so this step maps
# (3, -1) to zero in doubles, while its computed det is -5.6e-17, not 0
_FLOAT_KERNEL = np.array([[0.1, 0.1 * 3], [0.7, 0.7 * 3]])
_POWER_SQUASH = np.diag([2.0**300, 2.0**-240])  # scaled, twice: diag(1/4, 0)

# (steps, error, its message, first failing pair, and the orders with no
# frame and with a measured term out of range) where failures of two kinds
# meet: both paths raise at the first order to fail, whatever its kind
_RAISING_ACROSS_KINDS = [
    # DPhi^3 = 4e-10 I has no frame; |DPhi^4 e_4| = 4e-310 is out of range
    (
        [np.diag([4e-10, 1e-10]), np.diag([1.0, 2.0]), np.diag([1.0, 2.0]), np.diag([1e-300, 2e-300])],
        NoHyperbolicCoordinates,
        "co-eccentricity 1.000000000000007 >= 1 - 1e-12: frame undefined",
        (1, 3),
        ([3], [4]),
    ),
    # |DPhi^2 e_2| = 1e-600 is out of range; DPhi^3 = 4e-600 I has no frame
    (
        [np.diag([1e-300, 2e-300])] * 2 + [np.diag([4.0, 1.0])],
        BoundOverflow,
        "bound term exp(-1381.55) exceeds the double range",
        (2, 2),
        ([3], [2, 3]),
    ),
    # orders 1..4 pass; block(1, 5) is zero: the squash leaves diag(1/4, 0),
    # the next step maps it onto (3, -1) exactly, the last to zero, while
    # the rounding of the full product DPhi^5 leaves it nonzero
    (
        [np.array([[0.7, 0.2], [0.1, 0.9]]), _POWER_SQUASH, _POWER_SQUASH, np.array([[3.0, 1.0], [-1.0, 1.0]]),
         _FLOAT_KERNEL],
        ZeroMatrix,
        "norms undefined for the zero matrix",
        (1, 5),
        ([], []),
    ),
]


@pytest.mark.parametrize(
    "steps, expected, message, pair, failing",
    [pytest.param(*case, id=f"steps{n}-{case[1].__name__}") for n, case in enumerate(_RAISING_ACROSS_KINDS)],
)
def test_apriori_sweep_raises_at_the_first_failing_order_across_kinds(steps, expected, message, pair, failing):
    coc = MatrixCocycle(steps)
    frameless = np.flatnonzero(bounds._order_coeccs(coc)[1:] >= 1.0 - EPS_COECC) + 1
    assert (frameless.tolist(), np.flatnonzero(~bounds._pair_columns(coc).in_range).tolist()) == failing
    assert _first_failing_pair(coc) == pair
    outcome = _sweep_outcome(coc)
    assert outcome == (expected, message)
    assert outcome == _per_pair_outcome(coc)
    assert _sweep_outcome_alone(coc) == outcome


def _barred(*args, **kwargs):
    raise AssertionError("verify_apriori_all called the per-pair path")


def _sweep_outcome_alone(coc):
    """``_sweep_outcome`` with the per-pair function and its measurements barred."""
    with mock.patch.object(bounds, "verify_apriori_convergence", _barred), \
            mock.patch.object(bounds, "_pair_measurements", _barred):
        return _sweep_outcome(coc)


@pytest.mark.parametrize(
    "steps", [pytest.param(case[0], id=f"steps{n}") for n, case in enumerate(_RAISING)]
)
def test_apriori_sweep_raises_without_the_per_pair_function(steps):
    coc = MatrixCocycle(steps)
    assert _sweep_outcome_alone(coc) == _per_pair_outcome(coc)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_apriori_sweep_equals_per_pair_on_random_cocycles(seed):
    coc = random_cocycle(np.random.default_rng(seed), max_len=12)
    assert _sweep_outcome(coc) == _per_pair_outcome(coc)


def verify_consecutive_rotation(source):
    """Per-step frame rotation: the sine-squared bound and drift <= sqrt(2)|sin|,
    |sin| of the angle between e_j and e_(j+1) read from the pull-back:
    |<w, u>| |DPhi^j e_(j+1)| / |DPhi^j|, w and u the directions of
    DPhi^j e_(j+1) and DPhi^j f_j; the drift also reads the pulled-back
    e_(j+1) and e_j at 0."""
    coc = cocycle_of(source)
    frames = frame_sequence(coc)
    lhs, rhs = [], []  # per step j: (sine squared, drift) and their bounds
    for j in range(1, coc.k):
        directions, log_norms = coc.contracted_images([j + 1, j])
        w, log_push = directions[0, j], log_norms[0, j : j + 1]
        u = coc.images(frames[j - 1].f, [j])[0]
        sin = abs(float(w @ u[0])) * math.exp(float(log_push[0]) - coc.log_norm[j])
        drift = float(bounds._drifts(w, u, *directions[:, 0], log_push, coc.log_norm[j])[0])
        cc_next = frames[j].coecc
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
        lhs.append((sin * sin, drift))
        rhs.append((bound, SQRT2 * sin))
    checks = ("rotation_sine_squared", "drift_vs_sine")
    return bounds.BoundReport("consecutive_rotation", bounds.DEFAULT_REL_TOL, checks, np.arange(1, coc.k)[:, None],
                              np.reshape(lhs, (-1, 2)).T, np.reshape(rhs, (-1, 2)).T)


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
    corrupted = dataclasses.replace(ledger, c=ledger.c / 100.0)  # below the true decay rate
    with pytest.raises(CertificateRequired, match=r"^coecc_decay fails at i=1$"):
        bounds.verify_explicit_convergence(henon_orbit20, corrupted)


def _explicit_per_pair(orbit, ledger):
    """verify_explicit_convergence's rows, pair by pair from scratch: at
    pair (i, k), for each rate, the pair's ``_pair_measurements`` in turn
    against Q r^i."""
    coc = orbit.cocycle
    rates = bounds._envelope_rates(ledger, auxiliary_constants(ledger))
    pairs, lhs, rhs = [], [], []  # per pair: the sides of its rows
    for k in range(1, coc.k + 1):
        frames = frame_sequence(coc, k)
        for i in range(1, k + 1):
            measured = itertools.cycle(bounds._pair_measurements(coc, frames, i, k))  # drift, push, push_over_det
            pairs.append((i, k))
            lhs.append([value for _, value in zip(rates, measured)])
            rhs.append([q * r ** i for _, q, r in rates])
    rep = bounds.BoundReport("explicit_convergence", bounds.DEFAULT_REL_TOL, [check for check, _, _ in rates],
                             pairs, np.transpose(lhs), np.transpose(rhs))
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
    return np.stack(spec.second_partials(*p), axis=1)


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
        partials = spec.second_partials(*p)
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


# D2Phi(v, e_k) = (d_k DPhi) v: contracting the second derivative in either
# slot gives the same vector, as the mixed partials agree; the bracket rows
# of ``bilinear_column_bounds`` read the slices of this symmetric tensor
def test_d2_contraction_identity_examples():
    hessian = _hessian_tensor(linear(1.0, 2.0, 0.5, -1.0), np.zeros(2))
    assert not hessian.any()
    hessian = _hessian_tensor(henon(a=1.4, b=0.3), np.array([0.2, 0.1]))
    v = np.array([1.0, 0.0])
    assert np.array_equal(hessian @ v, np.einsum("qij,i->qj", hessian, v))
    dx, _ = henon(a=1.4, b=0.3).second_partials(0.2, 0.1)
    assert np.allclose(dx @ v, [-2.8, 0.0])


def test_d2_contraction_identity_random_cubics():
    rng = np.random.default_rng(14)
    for _ in range(200):
        spec = make_cubic_map(rng)
        hessian = _hessian_tensor(spec, rng.uniform(-1, 1, size=2))
        v = rng.uniform(-1, 1, size=2)
        scale = max(float(np.abs(hessian).max()), 1.0)
        assert np.abs(hessian @ v - np.einsum("qij,i->qj", hessian, v)).max() <= 1e-10 * scale


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


def _norm_stacks(rng):
    """Gaussian stacks, n = 2..4, then stacks where a largest singular value
    is easy to get wrong: rank 1 plus 1e-12 noise, orthogonal (all singular
    values equal), zero, and rectangular."""
    for n in range(2, 5):
        yield rng.standard_normal((25, n, n))
    for n in range(2, 5):
        rank_one = rng.standard_normal((8, n, 1)) @ rng.standard_normal((8, 1, n))
        yield rank_one + 1e-12 * rng.standard_normal((8, n, n))
        yield np.linalg.qr(rng.standard_normal((8, n, n)))[0]
        yield np.zeros((1, n, n))
    yield rng.standard_normal((8, 3, 2))
    yield rng.standard_normal((8, 1, 4))


@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e150])
def test_power_norms_match_mpmath_singular_values(scale):
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(1313)
    stacks = [scale * stack for stack in _norm_stacks(rng)]
    # one stack of tiny and huge matrices: a scale shared by the stack would
    # square the tiny ones to zero
    for n in range(2, 5):
        stacks.append(np.concatenate([stacks[n - 2][:4], 1e-200 * rng.standard_normal((4, n, n)),
                                      1e150 * rng.standard_normal((4, n, n))]))
    for stack in stacks:
        norms = bounds._power_norms(stack)
        with mp.workdps(40):
            for i, (m, norm) in enumerate(zip(stack, norms)):
                # a norm does not depend on the rest of its stack
                assert norm == bounds._power_norms(stack[i:i + 1])[0], m
                exact = max(mp.svd_r(mp.matrix(m.tolist()), compute_uv=False))
                if exact == 0:
                    assert norm == 0.0
                else:
                    assert abs(mp.mpf(float(norm)) / exact - 1) <= 8 * np.finfo(float).eps, m


def test_scaled_grams_are_exactly_symmetric():
    rng = np.random.default_rng(4747)
    for stack in _norm_stacks(rng):
        for scale in (1e-200, 1.0, 1e150):
            grams, _ = bounds._scaled_grams(scale * stack)
            assert np.array_equal(grams, np.swapaxes(grams, 1, 2))


def _prune_stacks(rng):
    """Stacks on which the bounds that let ``_largest_norm`` skip a matrix
    are tight or degenerate."""
    for n in range(1, 5):
        for noise in (1e-14, 1e-12, 1e-10, 1e-9, 1e-8):
            # G near c^2 I: the trace/Frobenius spread is lost to rounding
            q = np.linalg.qr(rng.standard_normal((40, n, n)))[0]
            yield 3.0 * q + noise * rng.standard_normal((40, n, n))
            yield q * rng.uniform(1.0, 1.0 + 1e-9, (40, 1, 1)) + noise * rng.standard_normal((40, n, n))
        m = rng.standard_normal((n, n))
        yield np.repeat(m[None], 6, axis=0)  # exact ties
        yield m * rng.choice([-1.0, 1.0], (6, 1, 1))
        yield np.zeros((5, n, n))
        lone = np.zeros((7, n, n))
        lone[rng.integers(7)] = rng.standard_normal((n, n))
        yield lone
        yield np.concatenate([1e-200 * rng.standard_normal((30, n, n)),
                              1e150 * rng.standard_normal((3, n, n)),
                              1e-200 * rng.standard_normal((30, n, n))])
        for s in (1, 2, 3):  # a stack of one to three matrices
            yield rng.standard_normal((s, n, n))
    yield rng.standard_normal((1501, 1, 1))


def test_largest_norm_equals_the_max_of_every_norm():
    rng = np.random.default_rng(2525)
    stacks = [scale * stack for scale in (1e-200, 1.0, 1e150) for stack in _norm_stacks(rng)]
    for stack in [*stacks, *_prune_stacks(rng)]:
        expected = bounds._power_norms(stack).max()
        assert bounds._largest_norm(stack).hex() == float(expected).hex(), stack


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4).flatmap(lambda n: st.tuples(
        hnp.arrays(float, st.tuples(st.integers(1, 30), st.just(n), st.just(n)),
                   elements=st.floats(-4.0, 4.0, width=64)),
        st.lists(st.integers(-1, 1) | st.integers(-600, 600), min_size=30, max_size=30),
    ))
)
# norms 5.2661 and 5.2697: a prune 1 % too eager skips the second matrix
@example((np.array([[[-3.0, 3.0, 3.0], [-3.0, 0.0, -2.0], [1.0, -1.0, 3.0]],
                    [[2.0, 0.0, 0.0], [-3.0, -2.0, 2.0], [2.0, -1.0, -3.0]]]), [0] * 30))
def test_largest_norm_equals_the_max_of_every_norm_on_random_stacks(case):
    stack, powers = case
    stack = np.ldexp(stack, np.array(powers[:len(stack)])[:, None, None])
    expected = bounds._power_norms(stack).max()
    assert bounds._largest_norm(stack).hex() == float(expected).hex()


def test_largest_norm_equals_the_max_of_every_norm_on_uniform_stacks():
    # uniform entries separate norms a prune slightly too eager would skip:
    # one that drops matrices whose bound is below 1.01 x the best norm found
    # changes the maximum on 27 of these 3,000 stacks
    rng = np.random.default_rng(2025)
    for _ in range(3000):
        n, s = rng.integers(3, 5), rng.integers(1, 31)
        stack = rng.uniform(-4.0, 4.0, (s, n, n)) * rng.choice([0.5, 1.0, 2.0], (s, 1, 1))
        expected = bounds._power_norms(stack).max()
        assert bounds._largest_norm(stack).hex() == float(expected).hex(), stack


@pytest.mark.parametrize("shape", [(3, 2), (1, 4), (6, 4)], ids=["3x2", "1x4", "6x4"])
def test_column_bounds_on_rectangular_matrices(shape):
    # a matrix may have any number of rows; its Gram matrix is n x n
    rng = np.random.default_rng(sum(shape))
    for _ in range(10):
        matrix = rng.standard_normal(shape)
        rep = bounds.bilinear_column_bounds(matrix=matrix, rng=rng)
        assert rep.verdict, rep.first_failure()
        exact = np.linalg.svd(matrix, compute_uv=False)[0]
        assert abs(rep.context["matrix_norm"] / exact - 1) <= 8 * np.finfo(float).eps


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


@pytest.mark.parametrize(
    "setting",
    [{"samples": -1}, {"samples": 2.5}, {"samples": True}],
    ids=["samples-negative", "samples-float", "samples-bool"],
)
def test_bracket_bad_setting_is_a_typed_error(setting):
    with pytest.raises(InvalidInput, match=f"^{next(iter(setting))} must be"):
        bounds.bilinear_column_bounds(matrix=np.eye(2), **setting)


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
    _, by_axis = bounds.slow_variation_terms(orbit, 6)
    for terms in by_axis.values():
        assert all(v == 0.0 for v in terms.EE)
        assert all(v == 0.0 for v in terms.FF)
        assert terms.sum_EE_tail == terms.sum_FF == 0.0


def test_slow_variation_needs_every_frame_below_order_k():
    # order 1 is a rotation, without a frame; order 2 has one
    steps = [np.array([[0.0, -1.0], [1.0, 0.0]]), np.diag([2.0, 0.5])]
    coc = MatrixCocycle(steps)
    assert hyperbolic_coordinates(coc, 2).coecc == pytest.approx(0.25)
    zero = np.zeros((2, 2))
    orbit = OrbitSegment(linear(), np.zeros((3, 2)), [(zero, zero)] * 2, coc)
    with pytest.raises(NoHyperbolicCoordinates) as info:
        bounds.slow_variation_terms(orbit, 2)
    assert str(info.value) == "co-eccentricity 1.0 >= 1 - 1e-12: frame undefined"


def test_frames_measurements_and_slow_variation_read_the_cocycle(henon, monkeypatch):
    # the cocycle measures once: frames, the a-priori measurements and the
    # slow-variation terms run no SVD of their own
    orbit = compute_orbit(henon, HENON_FIXTURE, 8)
    calls = collections.Counter()

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for name in ("svd2_closed", "svd2_matrix"):
        counted(linalg2, name)
    frames = [hyperbolic_coordinates(orbit, k) for k in range(1, 9)]
    columns = bounds._pair_columns(orbit.cocycle)
    _, by_axis = bounds.slow_variation_terms(orbit, 8)
    assert calls == {}
    assert len(frames) == 8 and len(columns.pairs) == 36 and len(by_axis) == 2


def test_bounds_keep_no_state_on_the_cocycle(henon):
    orbit = compute_orbit(henon, HENON_FIXTURE, 8)
    coc = orbit.cocycle
    coc.contracted_images([8])  # the cocycle's own pull-back, which it measures on first use
    before = {name: (id(value), pickle.dumps(value)) for name, value in vars(coc).items()}
    ledger = fit_constants(orbit, Flavor.SINGULAR_BOTH, 1.05)
    assert bounds.verify_apriori_all(orbit).verdict
    assert bounds.verify_explicit_convergence(orbit, ledger).verdict
    assert bounds.verify_slow_variation(orbit, ledger).verdict
    assert {name: (id(value), pickle.dumps(value)) for name, value in vars(coc).items()} == before


def test_measurements_called_directly_warn_nothing():
    # a singular DPhi^1 leaves the push of e_1 undefined: NaN, then NaN - -inf
    coc = MatrixCocycle([np.diag([1.0, 0.0])])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        columns = bounds._pair_columns(coc)
    assert np.isnan(columns.log_pushes[:, 0]).all()
    assert not columns.in_range[1]


def test_step_whose_scaled_body_loses_an_entry_is_refused():
    # diag(2^600, 2^-600) scaled by 2^-601 has the body [[0.5, 0], [0, 0]]:
    # its pull-back read |DPhi^1 e_1| as 0 where it is 2^-600
    message = r"^step 0 has a nonzero entry below 2\^-1022 once scaled$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput, match=message):
            MatrixCocycle([np.diag([2.0**600, 2.0**-600]), np.diag([2.0, 0.5])])
        # an entry that stays nonzero but becomes subnormal, in the second step
        with pytest.raises(InvalidInput, match=message.replace("0", "1", 1)):
            MatrixCocycle([np.eye(2), np.array([[2.0**100, 2.0**-930], [0.0, 1.0]])])
        with pytest.raises(InvalidInput, match=message):
            MatrixCocycle([np.diag([2.0**511, 2.0**-511])])
    # the widest power-of-two diagonal whose entries all stay normal once scaled
    assert MatrixCocycle([np.diag([2.0**511, 2.0**-510])]).step_log_absdet == [math.log(2.0)]


def test_slow_variation_terms_henon_regression(henon_orbit8):
    # frozen from the first verified run (recomputed at extended precision)
    _, by_axis = bounds.slow_variation_terms(henon_orbit8, 8)
    terms, terms_y = by_axis["x"], by_axis["y"]
    assert math.isclose(terms.EE[0], 0.6387713677395335, rel_tol=1e-9)
    assert math.isclose(terms.sum_EE_tail, 0.30261967813891205, rel_tol=1e-9)
    assert math.isclose(terms.sum_FF, 19161068177.633003, rel_tol=1e-9)
    assert terms_y.EE[0] == 0.0
    assert math.isclose(terms_y.sum_EE_tail, 0.15156980104949713, rel_tol=1e-9)


def _push_tangent(coc, j, v, v_log, source, source_log):
    """Step j (exp(v_log) v) + exp(source_log) source as (vector, log scale), the
    vector scaled by a power of two to max |entry| in [1/2, 1) unless zero."""
    image_log = v_log + float(coc.step_log_scales[j])
    lead = max(image_log, source_log)
    image = coc.step_bodies[j] @ v
    out = image * np.exp(image_log - lead) + source * np.exp(source_log - lead)
    _, e = math.frexp(float(np.abs(out).max()))
    return np.ldexp(out, -e), lead + e * math.log(2.0)


def contracted_images_per_order(coc, e, u1, k):
    """DPhi^i e for i = 0..k as the unit directions, an (k + 1, 2) array, and
    the log norms, pulled back from order k one vector at a time; e is the
    order-k contracted direction and u1 the direction of DPhi^k f.  The
    reference ``MatrixCocycle.contracted_images`` must equal bit for bit."""
    directions, log_norms = np.empty((k + 1, 2)), np.empty(k + 1)
    w, w_log = np.array([-u1[1], u1[0]]), 0.0
    directions[k], log_norms[k] = w, w_log
    log_scales = coc.step_log_scales.tolist()
    for j in range(k - 1, -1, -1):
        (a, b), (c, d) = coc.step_bodies[j].tolist()
        adj_w = np.array([d * w[0] - b * w[1], a * w[1] - c * w[0]])  # det(body) body^-1 w
        n = np.hypot(float(adj_w[0]), float(adj_w[1]))
        det = a * d - b * c
        w = adj_w / (n if det > 0.0 else -n)
        w_log += np.log(n) - np.log(abs(det)) - log_scales[j]
        directions[j], log_norms[j] = w, w_log
    sign = 1.0 if float(directions[0] @ e) > 0.0 else -1.0
    return sign * directions, log_norms - log_norms[0]


def _contracted_reference(coc, k):
    """``contracted_images_per_order`` of order k as the cocycle seeds it:
    the frame's e and the direction of DPhi^k f, whether or not the frame exists."""
    e = linalg2.canonical_sign(coc.contracted[k])
    u1 = coc.images(linalg2.rotate_quarter_cw(e), [k])[0][0]
    return contracted_images_per_order(coc, e, u1, k)


def _hex(directions, log_norms):
    return [v.hex() for v in directions.ravel().tolist() + log_norms.tolist()]


def test_stacked_pull_back_equals_the_per_order_reference():
    h = henon()
    cases = [compute_orbit(h, HENON_FIXTURE, k).cocycle for k in (80, 287)]
    cases.append(compute_orbit(lorenz2d(), LORENZ_FIXTURE, 60).cocycle)
    rng = np.random.default_rng(33)
    cases += [random_cocycle(rng, 40) for _ in range(50)]
    for coc in cases:
        directions, log_norms = coc.contracted_images(range(coc.k + 1))
        for k in range(coc.k + 1):
            assert _hex(directions[k, : k + 1], log_norms[k, : k + 1]) == _hex(
                *_contracted_reference(coc, k)), (coc.k, k)
            assert np.isnan(directions[k, k + 1:]).all() and np.isnan(log_norms[k, k + 1:]).all()


def _exact_frames(mp, coc):
    """P_0..P_k and e_1..e_k (at positions 1..k) in mpmath at the caller's
    precision: the float steps converted exactly, P_k their product and e_k
    the unit eigenvector of P_k^T P_k for its smaller eigenvalue."""
    products, frames = [mp.eye(2)], [None]
    for step in coc.steps:
        products.append(mp.matrix(step.tolist()) * products[-1])
        gram = products[-1].T * products[-1]
        a, b, d = gram[0, 0], gram[0, 1], gram[1, 1]
        small = (a + d) / 2 - mp.sqrt(((a - d) / 2) ** 2 + b * b)
        e = max((mp.matrix([b, small - a]), mp.matrix([small - d, b])), key=mp.norm)
        frames.append(e / mp.norm(e))
    return products, frames


def _exact_contracted_logs(coc):
    """log |P_i e_k| for 1 <= i <= k <= coc.k, keyed (i, k), in 400-digit
    mpmath (``_exact_frames``)."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(400):
        products, frames = _exact_frames(mp, coc)
        return {(i, k): float(mp.log(mp.norm(products[i] * frames[k])))
                for k in range(1, coc.k + 1) for i in range(1, k + 1)}


@pytest.mark.parametrize("start", [HENON_FIXTURE, HENON_START_A, HENON_START_B], ids=["fixture", "A", "B"])
def test_pull_back_matches_mpmath_at_every_pair(henon, start):
    coc = compute_orbit(henon, start, 80).cocycle
    exact = _exact_contracted_logs(coc)
    log_norms = coc.contracted_images(range(81))[1]
    assert max(abs(log_norms[k, i] - v) for (i, k), v in exact.items()) <= 1e-12
    if start is HENON_START_A:
        # |DPhi^15 e_77| is 3.7e-12; a forward push of the float frame's e reads 8.5e-11
        assert math.isclose(math.exp(log_norms[77, 15]), 3.7e-12, rel_tol=0.01)
        forward = coc.images(hyperbolic_coordinates(coc, 77).e, [15])[1][0]
        assert math.isclose(math.exp(forward), 8.5e-11, rel_tol=0.01)


@pytest.mark.parametrize("start", [HENON_FIXTURE, HENON_START_A, HENON_START_B], ids=["fixture", "A", "B"])
def test_pull_back_drift_matches_mpmath_at_every_pair(henon, start):
    # the drift column the sweeps read against |e_k -+ e_i| of the 400-digit
    # frames of the float steps; a pair (k, k) reads exactly 0
    mp = pytest.importorskip("mpmath")
    coc = compute_orbit(henon, start, 80).cocycle
    columns = bounds._pair_columns(coc)
    worst = 0.0
    with mp.workdps(400):
        frames = _exact_frames(mp, coc)[1]
        for (i, k), drift in zip(columns.pairs.tolist(), columns.measured[0].tolist()):
            if i == k:
                assert drift == 0.0
                continue
            exact = min(mp.norm(frames[k] - frames[i]), mp.norm(frames[k] + frames[i]))
            worst = max(worst, float(abs(drift / exact - 1)))
    assert worst <= 1e-12


def test_drift_of_perpendicular_frames_is_sqrt2():
    # e_2 is perpendicular to e_1, and at some angles of the conjugating
    # rotation the measured |sin| of pair (1, 2) rounds above 1: the drift
    # is still sqrt(2), not NaN.  c = |<e_2, e_1>| is read off the pulled-back
    # vectors, so the drift keeps every digit near a quarter turn, where
    # c = sqrt(1 - s^2) lost half of them (1.7e-8 relative)
    for theta in np.linspace(0.01, 3.1, 300):
        r = _rotation(theta)
        coc = MatrixCocycle([r @ np.diag([2.0, 0.5]) @ r.T, r @ np.diag([0.1, 10.0]) @ r.T])
        drift = bounds._pair_columns(coc).measured[0, 1]
        assert math.isclose(drift, SQRT2, rel_tol=4 * sys.float_info.epsilon), theta


def test_log_sums_match_mpmath_at_every_pair(henon):
    # the drift and tail sums, added as logs, against 50-digit sums of the
    # same float terms
    mp = pytest.importorskip("mpmath")
    coc = compute_orbit(henon, HENON_FIXTURE, 80).cocycle
    terms = [bounds._log_terms(coc, j) for j in range(coc.k)]
    worst = 0.0
    with mp.workdps(50):
        for term in (0, 1):
            for i in range(1, coc.k + 1):
                exact = mp.mpf(0)
                for k in range(i, coc.k + 1):
                    if k > i:
                        exact += mp.exp(terms[k - 1][term])
                    log_sum = bounds._log_sum(coc, i, k, term)
                    if k == i:
                        assert log_sum == -math.inf
                    else:
                        worst = max(worst, float(abs(mp.exp(log_sum) / exact - 1)))
    assert worst <= 1e-12


@pytest.mark.parametrize(
    "start, k", [(HENON_START_A, 80), (HENON_START_B, 80), (HENON_FIXTURE, 440)],
    ids=["A", "B", "fixture-440"])
def test_push_and_det_rows_pass_without_their_allowance(henon, start, k):
    # at K >= 368 on the fixture a drift sum alone underflows (e^-748 at
    # (367, 368)); the push and det right sides add it as a log
    orbit = compute_orbit(henon, start, k)
    ledger = fit_constants(orbit, Flavor.SINGULAR_II, 1.05)
    pairs = k * (k + 1) // 2
    for rep in (bounds.verify_apriori_all(orbit), bounds.verify_explicit_convergence(orbit, ledger)):
        checks, code, _, _, lhs, rhs, status = rep.columns()
        push_or_det = np.array([c.startswith(("pushforward", "det_normalized")) for c in checks])[code]
        assert push_or_det.sum() in (4 * pairs, 2 * pairs)  # four rows a pair, two an envelope pair
        assert (lhs <= rhs * (1.0 + rep.tol))[push_or_det].all()
        assert not (status[push_or_det] == 1).any()


def test_order_horizon_on_the_fixture(henon):
    # the co-norm |DPhi^441 e_441| = e^-710.547 is below the double range, and
    # its reciprocal, which scales the det row of (441, 441), above it
    orbit = compute_orbit(henon, HENON_FIXTURE, 441)
    assert bounds.verify_apriori_all(MatrixCocycle(orbit.cocycle.steps[:440])).verdict
    with pytest.raises(BoundOverflow, match=r"^bound term exp\(-710\.547\) exceeds the double range$"):
        bounds.verify_apriori_all(orbit)


def slow_variation_terms_per_axis(orbit, k):
    """``bounds.slow_variation_terms`` one axis, one vector and one step at a
    time: the reference the stacked pass must equal bit for bit."""
    coc = orbit.cocycle
    if any(d == float("-inf") for d in coc.step_log_absdet[:k]):
        raise ZeroDeterminant("slow-variation terms need nonzero step determinants")
    for i in range(1, min(k, coc.k + 1)):
        frame_coecc(coc.log_norm[i], coc.log_conorm[i])
    frame = hyperbolic_coordinates(coc, k)
    cc = frame.coecc
    f_dirs, f_logs = coc.images(frame.f, range(k + 1))
    e_dirs, e_logs = contracted_images_per_order(coc, frame.e, f_dirs[k], k)
    u1, u2 = f_dirs[k], e_dirs[k]
    by_axis = {}
    for axis, axis_vec in zip("xy", np.eye(2)):
        log_ee, log_ff = [], []
        de_vec, de_log = np.zeros(2), 0.0
        df_vec, df_log = np.zeros(2), 0.0
        w_dirs, w_logs = coc.images(axis_vec, range(k))
        for i in range(k):
            dx, dy = orbit.step_second_partials[i]
            w_dir, w_log = w_dirs[i], w_logs[i]
            dmat = w_dir[0] * dx + w_dir[1] * dy
            e_dir, e_log, e1_log = e_dirs[i], e_logs[i], e_logs[i + 1]
            f_dir, f_log, f1_log = f_dirs[i], f_logs[i], f_logs[i + 1]
            det_log = coc.log_absdet[i + 1]
            d2e = dmat @ e_dir
            d2f = dmat @ f_dir
            de = float(np.linalg.norm(d2e))
            dfv = float(np.linalg.norm(d2f))
            log_ee.append(
                (np.log(de) if de > 0.0 else float("-inf")) + w_log + e_log + e1_log - det_log
            )
            log_ff.append(
                (np.log(dfv) if dfv > 0.0 else float("-inf")) + w_log + f_log + f1_log - det_log
            )
            de_vec, de_log = _push_tangent(coc, i, de_vec, de_log, d2e, w_log + e_log)
            df_vec, df_log = _push_tangent(coc, i, df_vec, df_log, d2f, w_log + f_log)
        lead = max(de_log, df_log)
        num = float(u1 @ de_vec) * math.exp(de_log - lead) + cc * float(
            u2 @ df_vec
        ) * math.exp(df_log - lead)
        e_dot_df = num * bounds._exp(lead - coc.log_norm[k]) / (1.0 - cc * cc)
        ee = [bounds._exp(v) for v in log_ee]
        ff = [bounds._exp(v) for v in log_ff]
        sum_ee_tail = sum_ff = 0.0
        for v in ee[1:]:
            sum_ee_tail += v
        for v in ff:
            sum_ff += v
        by_axis[axis] = bounds.SlowVariationTerms(ee, ff, sum_ee_tail, sum_ff, e_dot_df)
    return frame, by_axis


def _slow_variation_outcome(terms_of, orbit, k):
    """The frame and every axis's terms as hex, or the error's type and message."""
    try:
        frame, by_axis = terms_of(orbit, k)
    except HypcoordsError as exc:
        return type(exc).__name__, str(exc)
    terms = [(axis, [v.hex() for v in t.EE], [v.hex() for v in t.FF], t.sum_EE_tail.hex(),
              t.sum_FF.hex(), t.e_dot_df.hex()) for axis, t in by_axis.items()]
    return frame.e.tobytes(), frame.coecc.hex(), terms


def _slow_variation_battery():
    """(orbit, k): the Henon fixture, 40 starts on its attractor, random
    lorenz2d and standard orbits, and orbits whose terms raise."""
    h = henon()
    cases = [(compute_orbit(h, HENON_FIXTURE, 288), k) for k in [*range(1, 13), 80, 287, 288]]
    start = HENON_FIXTURE
    for _ in range(40):
        for _ in range(7):
            start = np.array(h.eval(*start))
        cases.append((compute_orbit(h, start, 80), 80))
    rng = np.random.default_rng(2032)
    for spec, count, high in ((lorenz2d(), 50, 60), (standard(6.0), 30, 30)):
        while count:
            k = int(rng.integers(1, high + 1))
            try:
                orbit = compute_orbit(spec, rng.uniform(-1.0, 1.0, 2), k)
            except HypcoordsError:
                continue
            cases.append((orbit, k))
            count -= 1
    for spec in (rotation(0.7), linear(2.0, 0.0, 0.0, 0.0), linear(2.0, 0.0, 0.0, 0.5)):
        cases.append((compute_orbit(spec, np.array([0.3, 0.2]), 4), 4))
    return cases


def test_stacked_slow_variation_terms_equal_the_per_axis_loop():
    outcomes = collections.Counter()
    for orbit, k in _slow_variation_battery():
        got = _slow_variation_outcome(bounds.slow_variation_terms, orbit, k)
        assert got == _slow_variation_outcome(slow_variation_terms_per_axis, orbit, k), (orbit.spec.name, k)
        outcomes[got[0] if isinstance(got[0], str) else "terms"] += 1
    # every kind of outcome is met: terms, and each error the terms can raise
    assert set(outcomes) == {"terms", "BoundOverflow", "NoHyperbolicCoordinates", "ZeroDeterminant"}


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
    _, by_axis = bounds.slow_variation_terms(orbit, k)
    return np.array([by_axis[axis].e_dot_df for axis in "xy"])


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
    terms = bounds.slow_variation_terms(compute_orbit(henon, HENON_FIXTURE, k), k)[1]["x"]
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


@pytest.mark.parametrize("k", [2, 8])
def test_verify_slow_variation_builds_the_shared_terms_once(henon, k, monkeypatch):
    # both axes read one order-k frame, one push of f and one pull-back of e
    assert list(inspect.signature(bounds.slow_variation_terms).parameters) == ["orbit", "k"]
    orbit = compute_orbit(henon, HENON_FIXTURE, k)
    ledger = fit_constants(orbit, Flavor.SINGULAR_II, 1.05)
    calls = collections.Counter()
    frame, contracted = hypframe._frame, MatrixCocycle.contracted_images

    def counted_frame(order, *args):
        calls["frame", order] += 1
        return frame(order, *args)

    def counted_contracted(*args):
        calls["contracted"] += 1
        return contracted(*args)

    monkeypatch.setattr(hypframe, "_frame", counted_frame)
    monkeypatch.setattr(MatrixCocycle, "contracted_images", counted_contracted)
    assert bounds.verify_slow_variation(orbit, ledger).verdict
    assert calls == {("frame", 1): 1, ("frame", k): 1, "contracted": 1}


@pytest.mark.parametrize("k", [8, 40])
def test_slow_variation_rows_do_not_depend_on_the_builtin_sum(henon, k, monkeypatch):
    # sum() compensates its rounding from Python 3.12 on; the slow-variation
    # sums add left to right, so a compensated sum in bounds moves no row
    orbit = compute_orbit(henon, HENON_FIXTURE, k)
    ledger = fit_constants(orbit, Flavor.SINGULAR_BOTH, 1.05)

    def rows():
        rep = bounds.verify_slow_variation(orbit, ledger)
        return [(r.check, r.index, float(r.lhs).hex(), float(r.rhs).hex()) for r in rep.rows]

    plain = rows()
    monkeypatch.setattr(bounds, "sum", math.fsum, raising=False)
    assert rows() == plain


def test_verify_slow_variation_requires_certificate(henon):
    orbit = compute_orbit(henon, HENON_FIXTURE, 8)
    ledger = fit_constants(orbit, Flavor.SINGULAR_II, 1.05)
    with pytest.raises(CertificateRequired, match=r"^coecc_decay fails at i=1$"):
        bounds.verify_slow_variation(orbit, dataclasses.replace(ledger, c=ledger.c / 100.0))


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


@settings(max_examples=60, deadline=None)
@given(st.lists(fuzz_steps(), min_size=1, max_size=4))
def test_apriori_sweep_on_fuzzed_steps_without_the_per_pair_function(steps):
    try:
        coc = MatrixCocycle(steps)
    except HypcoordsError:
        return
    assert _sweep_outcome_alone(coc) == _per_pair_outcome(coc)


def _measurement_outcome(measure):
    try:
        return [tuple(map(repr, values)) for values in measure()]
    except (HypcoordsError, ArithmeticError) as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(st.lists(fuzz_steps(), min_size=1, max_size=6))
def test_order_measurements_equal_per_pair_on_fuzzed_steps(steps):
    # verify_explicit_convergence reads these columns and has no per-pair
    # path, so the batched measurements and their checks must raise as the
    # per-pair ones do
    try:
        coc = MatrixCocycle(steps)
    except HypcoordsError:
        return

    def batched():
        c = bounds._pair_columns(coc)
        for k in range(1, coc.k + 1):
            frame_coecc(coc.log_norm[k], coc.log_conorm[k])  # as the sweeps check each order
            if not c.in_range[k]:
                raise bounds._first_error(coc, c, k)
            pairs = bounds._order_pairs(k)
            yield from zip(map(tuple, c.pairs[pairs].tolist()), *c.measured[:, pairs].tolist())

    def per_pair():
        for k in range(1, coc.k + 1):
            frames = frame_sequence(coc, k)
            for i in range(1, k + 1):
                yield ((i, k), *bounds._pair_measurements(coc, frames, i, k))

    assert _measurement_outcome(batched) == _measurement_outcome(per_pair)
