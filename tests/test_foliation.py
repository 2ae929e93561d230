import dataclasses
import hashlib
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hypcoords import compute_orbit, foliation
from hypcoords.cocycle import guard_limit
from hypcoords.errors import NoFrameAtStart
from hypcoords.foliation import (
    curve_to_csv_rows,
    curves_to_svg,
    foliation_grid,
    integrate_curve,
    pushforward_seed_angle,
)
from hypcoords.hypframe import angle_theta
from hypcoords.linalg2 import line_angle_distance
from hypcoords.planar_maps import MapSpec, henon, linear, lorenz2d, rotation, standard

from conftest import evaluate, jacobian_at


def test_linear_stable_curve_is_vertical():
    lin = linear(2.0, 0.0, 0.0, 0.5)
    curve = integrate_curve(lin, np.array([0.0, 0.0]), 2, "stable", 1.0, 1e-3)
    assert curve.termination == "length"
    assert np.abs(curve.points[:, 0]).max() <= 1e-12
    assert np.abs(np.abs(curve.endpoint[1]) - 1.0) <= 1e-9


def test_rotation_start_raises():
    with pytest.raises(NoFrameAtStart):
        integrate_curve(rotation(0.5), np.array([0.0, 0.0]), 1, "stable", 1.0, 1e-3)


def test_henon_curve_tangent_matches_angle_field(henon):
    curve = integrate_curve(henon, np.array([0.0, 0.0]), 1, "stable", 0.5, 1e-3)
    assert curve.termination == "length"
    # frozen endpoint from the first verified run
    assert math.isclose(curve.endpoint[0], -0.4130314963357854, rel_tol=1e-9)
    assert math.isclose(curve.endpoint[1], 0.25309354692476976, rel_tol=1e-9)
    # per-vertex tangents against the critical-angle field
    for v in range(1, len(curve.points) - 1, 25):
        tangent = curve.points[v + 1] - curve.points[v - 1]
        j = jacobian_at(henon, curve.points[v])
        theta = angle_theta(j[0, 0], j[1, 0], j[0, 1], j[1, 1]).theta_contract
        field = (math.sin(theta), math.cos(theta))
        dev = line_angle_distance(
            math.atan2(tangent[1], tangent[0]), math.atan2(field[1], field[0])
        )
        assert dev <= 1e-3


def test_segment_lengths_match_step(henon):
    curve = integrate_curve(henon, np.array([0.0, 0.0]), 1, "stable", 0.5, 1e-3)
    seg = np.linalg.norm(np.diff(curve.points, axis=0), axis=1)
    assert np.abs(seg - 1e-3).max() <= 0.01 * 1e-3


def test_integrator_order_ratio(henon):
    ends = {}
    for st in (0.02, 0.01, 0.005):
        ends[st] = integrate_curve(henon, np.array([0.0, 0.0]), 1, "stable", 0.48, st).endpoint
    shift_coarse = np.linalg.norm(ends[0.02] - ends[0.01])
    shift_fine = np.linalg.norm(ends[0.01] - ends[0.005])
    assert shift_coarse / shift_fine >= 8.0


def test_grid_axis_parallel_families_and_orthogonal_seeds():
    lin = linear(2.0, 0.0, 0.0, 0.5)
    rect = (-1.0, 1.0, -1.0, 1.0)
    stable = foliation_grid(lin, rect, 2, 0.5, "stable", 0.3, 1e-3)
    unstable = foliation_grid(lin, rect, 2, 0.5, "unstable", 0.3, 1e-3)
    assert not stable.failed_seeds and not unstable.failed_seeds
    for curve in stable.curves:
        assert np.abs(curve.points[:, 0] - curve.points[0, 0]).max() <= 1e-12
    for curve in unstable.curves:
        assert np.abs(curve.points[:, 1] - curve.points[0, 1]).max() <= 1e-12
    # e and f curves through the same seed leave orthogonally
    for cs, cu in zip(stable.curves, unstable.curves):
        assert np.array_equal(cs.seed, cu.seed)
        assert abs(np.dot(cs.seed_direction, cu.seed_direction)) <= 1e-9


def test_grid_orthogonality_henon(henon):
    rect = (-0.6, 0.6, -0.3, 0.3)
    stable = foliation_grid(henon, rect, 2, 0.3, "stable", 0.1, 1e-3)
    unstable = foliation_grid(henon, rect, 2, 0.3, "unstable", 0.1, 1e-3)
    assert stable.curves and len(stable.curves) == len(unstable.curves)
    for cs, cu in zip(stable.curves, unstable.curves):
        assert abs(np.dot(cs.seed_direction, cu.seed_direction)) <= 1e-9


def test_lorenz2d_unstable_curves_stop_at_singular_line():
    lz = lorenz2d()
    grid = foliation_grid(
        lz, (-0.5, 0.5, -0.5, 0.5), 1, 0.25, "unstable", 0.6, 2e-3, guard=1e-3
    )
    stopped = [c for c in grid.curves if c.termination == "singular"]
    assert stopped
    # the family heading into the line halts just outside the guard band
    at_line = [c for c in stopped if abs(c.endpoint[0]) <= 5e-3]
    assert at_line


def pushforward_tangent_deviation(spec, curve, i, stride=1):
    """Angular deviation of the image polyline from the pushed frame field.

    For each strided interior vertex, compares the tangent of the image
    polyline with the i-step image of the curve's field direction at the
    original vertex; returns the deviations in radians.
    """
    image = curve.points
    for _ in range(i):
        image = np.array([evaluate(spec, q) for q in image])
    out = []
    for v in range(1, len(curve.points) - 1, stride):
        tangent = image[v + 1] - image[v - 1]
        pushed, stop = foliation._field_direction(spec, curve.points[v], curve.k, curve.field, None)
        assert stop == 0, (curve.points[v], foliation.TERMINATIONS[stop])
        if i > 0:
            pushed = compute_orbit(spec, curve.points[v], i).cocycle.images(pushed, [i])[0][0]
        out.append(line_angle_distance(
            math.atan2(tangent[1], tangent[0]), math.atan2(pushed[1], pushed[0])
        ))
    return out


def test_pushforward_consistency_linear():
    lin = linear(2.0, 0.0, 0.0, 0.5)
    curve = integrate_curve(lin, np.array([0.2, 0.0]), 2, "stable", 0.4, 2e-3)
    deviations = pushforward_tangent_deviation(lin, curve, 2, stride=20)
    assert max(deviations) <= 1e-9


def test_pushforward_consistency_henon(henon):
    curve = integrate_curve(henon, np.array([0.0, 0.0]), 2, "stable", 0.3, 1e-3)
    deviations = pushforward_tangent_deviation(henon, curve, 2, stride=20)
    assert max(deviations) <= 5e-3
    # at i = k the image e and f directions through a seed are orthogonal
    assert abs(pushforward_seed_angle(henon, np.array([0.0, 0.0]), 2, 2) - math.pi / 2) <= 1e-3
    # strict intermediate images generally are not: exhibit a seed
    found = False
    for seed in ([0.0, 0.0], [0.2, 0.1], [-0.3, 0.05], [0.5, 0.0]):
        dev = abs(pushforward_seed_angle(henon, np.array(seed), 2, 1) - math.pi / 2)
        if dev > 0.1:
            found = True
    assert found


def test_exports(henon, tmp_path):
    curve = integrate_curve(henon, np.array([0.0, 0.0]), 1, "stable", 0.1, 2e-3)
    rows = curve_to_csv_rows(0, curve)
    assert rows[0] == (0, 0.0, 0.0, 0.0)
    assert len(rows) == len(curve.points)
    svg = curves_to_svg([curve], (-1.0, 1.0, -1.0, 1.0))
    assert svg.startswith("<svg") and "<polyline" in svg and svg.rstrip().endswith("</svg>")


def test_frame_field_convergence_mirrors_envelope(henon):
    # at a seed with a passing certificate, successive frame orders rotate
    # by a geometrically decaying angle no slower than the certificate's
    # drift envelope ratio (plus a small measurement allowance)
    from hypcoords.certificate import Flavor, fit_constants
    from hypcoords.cocycle import compute_orbit
    from hypcoords.hypframe import aligned_distance, frame_sequence

    from conftest import HENON_FIXTURE

    orbit = compute_orbit(henon, HENON_FIXTURE, 12)
    ledger = fit_constants(orbit, Flavor.SINGULAR_II, 1.05)
    frames = frame_sequence(orbit)
    angles = []
    for k in range(len(frames) - 1):
        d = aligned_distance(frames[k].e, frames[k + 1].e)
        angles.append(2.0 * math.asin(min(1.0, d / 2.0)))
    mean_ratio = (angles[-1] / angles[0]) ** (1.0 / (len(angles) - 1))
    assert mean_ratio <= ledger.c / ledger.c_tilde + 0.05


def test_henon_curve_families_export_across_orders(henon, tmp_path):
    rect = (-1.0, 1.0, -1.0, 1.0)
    for k in (1, 2, 3):
        grid = foliation_grid(henon, rect, k, 0.5, "stable", 0.2, 2e-3)
        assert grid.curves
        rows = []
        for cid, curve in enumerate(grid.curves):
            rows.extend(curve_to_csv_rows(cid, curve))
        assert rows
        svg = curves_to_svg(grid.curves, rect)
        path = tmp_path / f"stable_k{k}.svg"
        path.write_text(svg)
        assert path.read_text().count("<polyline") == len(grid.curves)


# -- the batched field kernel against the scalar reference ------------------

_ZERO = np.zeros((2, 2))
# (x, y) -> (2 x, y + 1/2), singular on the line y = 2 without declaring it:
# its guard limit is 1e-300, so only an orbit point exactly on the line stops
_SHIFT = MapSpec(
    name="shift",
    parameters={},
    eval=lambda x, y: (2.0 * x, y + 0.5),
    jacobian=lambda x, y: (2.0, 0.0, 0.0, 1.0),
    second_partials=lambda x, y: (_ZERO.copy(), _ZERO.copy()),
    singular_set_distance=lambda x, y: abs(y - 2.0),
)
_LORENZ = lorenz2d().parameters
# the first image lands (up to rounding) on lorenz2d's singular line x = 0
_LORENZ_HIT = (1.0 / _LORENZ["a1"]) ** (1.0 / _LORENZ["alpha"])

KERNEL_SPECS = [
    henon(),
    standard(6.0),
    standard(0.5),
    lorenz2d(),
    rotation(0.7),
    linear(2.0, 0.3, 0.0, 0.5),
    linear(0.0, 1.0, 0.0, 0.0),  # nilpotent: the two-step product is zero
    linear(0.0, 0.0, 0.0, 0.0),
    linear(5e-324, 0.0, 0.0, 0.0),  # nonzero, but svd2_closed sees a zero matrix
    linear(1e160, 0.0, 0.0, 1e155),  # the raw step determinant overflows
    linear(1e-170, 0.0, 0.0, 1e-170),  # conformal; the raw step determinant underflows to 0
    _SHIFT,
]
SPECIAL_COORDS = [0.0, -0.0, 1e-9, -1e-9, 1e-3, 4.5, -5.0, 1e7, 1e308, -1e308,
                  math.inf, -math.inf, math.nan]
# Within about 1e-205 of x = 0, lorenz2d's second partials overflow when the
# guard is 0: the scalar reference stops there ("domain", non-finite
# derivatives), while the kernel, which needs no second partials, does not.
COORDS = st.one_of(st.floats(-3.0, 3.0).filter(lambda v: abs(v) > 1e-200 or v == 0.0),
                   st.sampled_from(SPECIAL_COORDS))


def _scalar_field(spec, p, k, field, guard):
    direction, stop = foliation._field_direction(spec, p, k, field, guard)
    return direction, foliation.TERMINATIONS[stop] if stop else "ok"


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(range(len(KERNEL_SPECS))),
    st.lists(st.tuples(COORDS, COORDS), min_size=1, max_size=6),
    st.integers(1, 6),
    st.sampled_from([foliation.STABLE, foliation.UNSTABLE]),
    st.sampled_from([None, 0.0, 1e-3]),
)
@example(3, [(1e-9, 0.2), (-4.5, 0.1), (0.3, 0.2)], 2, "unstable", None)
@example(1, [(1e308, 1e308), (0.3, 0.7)], 3, "stable", None)
@example(9, [(0.25, 0.25), (0.75, 0.25)], 1, "stable", None)
@example(10, [(0.25, 0.25), (0.75, 0.25)], 2, "unstable", None)
# points that stop mid-orbit next to points that run on: Henon from (3, 0)
# leaves |x| < 1e6 at order 4, lorenz2d reaches the guard at order 1, the
# shift map lands exactly on y = 2 at order 2
@example(0, [(3.0, 0.0), (0.1, 0.1), (0.2, -0.1)], 6, "stable", None)
@example(3, [(0.3, 0.2), (_LORENZ_HIT, 0.0), (-0.4, 0.1)], 3, "unstable", None)
@example(11, [(0.0, 1.0), (0.0, 1.25)], 3, "stable", None)
def test_field_directions_match_scalar_field_direction(which, pts, k, field, guard):
    spec = KERNEL_SPECS[which]
    points = np.array(pts, dtype=float)
    directions, stops = foliation._field_directions(spec, points, k, field, guard)
    for p, v, code in zip(points, directions, stops):
        expected, reason = _scalar_field(spec, p, k, field, guard)
        assert (foliation.TERMINATIONS[code] if code else "ok") == reason, (p, reason)
        if spec.name == "lorenz2d":
            # numpy's ``**`` on an array and on a scalar differ in the last bit
            # on some inputs, so the two orbits may part by an ulp: 190 of 5,711
            # points drawn from these strategies were not bit-equal
            np.testing.assert_allclose(v, expected, rtol=0, atol=1e-12)
        else:
            assert v.tobytes() == expected.tobytes(), (p, v, expected)


# MapSpec lets a point callback answer arrays with a scalar
SCALAR_ANSWER_SPECS = [
    # True is right only on finite points: the test draws finite ones, which
    # stay finite for k <= 6
    dataclasses.replace(standard(6.0), domain_check=lambda x, y: True),
    # one image for every point; both paths take the same callbacks, so the
    # Jacobian need not belong to it
    dataclasses.replace(linear(2.0, 0.3, 0.0, 0.5), eval=lambda x, y: (0.5, 0.25)),
    # the same image outside the domain: every point stops at order 1
    dataclasses.replace(linear(2.0, 0.3, 0.0, 0.5), eval=lambda x, y: (math.nan, 0.25)),
]


@settings(max_examples=50, deadline=None)
@given(
    st.sampled_from(range(len(SCALAR_ANSWER_SPECS))),
    st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)), min_size=1, max_size=6),
    st.integers(1, 6),
    st.sampled_from([foliation.STABLE, foliation.UNSTABLE]),
)
def test_field_directions_take_scalar_callback_answers(which, pts, k, field):
    spec = SCALAR_ANSWER_SPECS[which]
    points = np.array(pts, dtype=float)
    directions, stops = foliation._field_directions(spec, points, k, field, None)
    for p, v, code in zip(points, directions, stops):
        expected, reason = _scalar_field(spec, p, k, field, None)
        assert (foliation.TERMINATIONS[code] if code else "ok") == reason, (p, reason)
        if which == 0:  # the scalar True drops nothing
            assert code != foliation._DOMAIN, p
        assert v.tobytes() == expected.tobytes(), (p, v, expected)


_POINT_CALLBACKS = ("domain_check", "singular_set_distance", "jacobian", "eval")


def _recording(spec):
    """``spec`` with each point callback wrapped to record the (n, 2) points it receives."""
    seen = {name: [] for name in _POINT_CALLBACKS}

    def wrap(name):
        callback = getattr(spec, name)

        def recorded(x, y):
            seen[name].append(np.column_stack(np.broadcast_arrays(np.ravel(x), np.ravel(y))))
            return callback(x, y)

        return recorded

    return dataclasses.replace(spec, **{name: wrap(name) for name in _POINT_CALLBACKS}), seen


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(range(len(KERNEL_SPECS))),
    st.lists(st.tuples(COORDS, COORDS), min_size=1, max_size=6),
    st.integers(1, 6),
    st.sampled_from([None, 0.0, 1e-3]),
)
@example(3, [(1e-9, 0.2), (5.0, 0.0), (math.nan, 0.0), (0.3, 0.2)], 3, None)
@example(1, [(1e308, 1e308), (0.3, 0.7)], 3, 0.0)
def test_field_kernel_callbacks_see_only_points_that_passed_the_checks(which, pts, k, guard):
    spec = KERNEL_SPECS[which]
    recorded, seen = _recording(spec)
    foliation._field_directions(recorded, np.array(pts, dtype=float), k, "stable", guard)
    limit = guard_limit(spec, guard)

    def in_domain(q):
        return np.broadcast_to(spec.domain_check(q[:, 0], q[:, 1]), len(q))

    def off_singular(q):
        return ~np.less(spec.singular_set_distance(q[:, 0], q[:, 1]), limit)

    with np.errstate(all="ignore"):
        for q in seen["singular_set_distance"]:
            assert in_domain(q).all(), q
        for name in ("jacobian", "eval"):
            for q in seen[name]:
                assert (in_domain(q) & off_singular(q)).all(), (name, q)


def test_field_directions_stop_reasons_on_lorenz2d():
    points = np.array([[0.3, 0.2], [1e-9, 0.2], [5.0, 0.0], [math.nan, 0.0], [0.0, 0.1]])
    _, stops = foliation._field_directions(lorenz2d(), points, 2, "stable", None)
    reasons = [foliation.TERMINATIONS[c] if c else "ok" for c in stops]
    assert reasons == ["ok", "singular", "domain", "domain", "singular"]


GRID_CASES = [
    (henon(), (-1.0, 1.0, -0.4, 0.4), 8, 0.2, "unstable", 0.2, 2e-3, None),
    (lorenz2d(), (-0.5, 0.5, -0.5, 0.5), 1, 0.25, "unstable", 0.6, 2e-3, 1e-3),
    (standard(6.0), (-1.0, 1.0, -1.0, 1.0), 3, 0.5, "stable", 0.2, 2e-3, None),
    (rotation(0.5), (-1.0, 1.0, -1.0, 1.0), 1, 0.5, "stable", 0.2, 2e-3, None),
]


@pytest.mark.parametrize("case", GRID_CASES, ids=lambda c: f"{c[0].name}-k{c[2]}")
def test_grid_curves_match_single_curve_integration(case):
    spec, rect, k, spacing, field, length, step, guard = case
    grid = foliation_grid(spec, rect, k, spacing, field, length, step, guard)
    for seed, message in grid.failed_seeds:
        with pytest.raises(NoFrameAtStart, match=re.escape(message)):
            integrate_curve(spec, seed, k, field, length, step, guard)
    for curve in grid.curves:
        single = integrate_curve(spec, curve.seed, k, field, length, step, guard)
        assert single.termination == curve.termination
        assert single.points.shape == curve.points.shape
        assert np.abs(single.points - curve.points).max() <= 1e-12
        assert np.array_equal(single.arclengths, curve.arclengths)
        assert np.array_equal(single.seed_direction, curve.seed_direction)


# GRID_CASES and one shifted rectangle of the foliate-k8 benchmark pool (its
# entries 4 to 7): the lattice over -1,1,-0.4,0.4 at spacing 0.2, shifted by
# 0.2 times the fractional parts of the golden ratio and the plastic number,
# rounded to 6 decimals.  Three of its seeds have no usable frame.
_SHIFT = (0.123607, 0.150976)
PINNED_GRID_CASES = GRID_CASES + [
    (henon(1.4, 0.3), (-1.0 + _SHIFT[0], 1.0 + _SHIFT[0], -0.4 + _SHIFT[1], 0.4 + _SHIFT[1]),
     8, 0.2, "unstable", 0.2, 2e-3, None),
]

# Recorded with Python 3.11.7 and numpy 2.4.6.  A change to the field kernel
# or the integrator keeps these bytes unless it declares new curves.
_GRID_DIGESTS = [
    "4b43f857ae8779c7ce2c48eddde3f95074f16c1d076cae2c2bfa6030f721344e",
    "f831944f94828114898c0298e0bfc2e565480a06edebc8e828788d88af3dda2d",
    "3bdb4a4763be2b5971f3d9cee48df1242127c942b1757646f42aad298ea365ba",
    "92690d2c7678b89c940ca5575e38cf83ca58e314182a9918841d1b4e2efabda2",
    "b6065212e88b89c3a007929a51306d7136571c01ea20634294407a615ab3a2b3",
]


def _grid_digest(grid):
    """SHA-256 over every curve's points, arclengths, seed direction and
    termination, then every failed seed and its message."""
    h = hashlib.sha256()
    for c in grid.curves:
        h.update(repr(c.points.shape).encode())
        for a in (c.points, c.arclengths, c.seed_direction):
            h.update(np.ascontiguousarray(a, dtype=float).tobytes())
        h.update(c.termination.encode())
    for seed, message in grid.failed_seeds:
        h.update(np.ascontiguousarray(seed, dtype=float).tobytes())
        h.update(message.encode())
    return h.hexdigest()


@pytest.mark.parametrize("case, digest", list(zip(PINNED_GRID_CASES, _GRID_DIGESTS)),
                         ids=[f"{c[0].name}-k{c[2]}-{i}" for i, c in enumerate(PINNED_GRID_CASES)])
def test_grid_bytes_are_pinned(case, digest):
    assert _grid_digest(foliation_grid(*case)) == digest


def test_lockstep_curves_end_on_their_own():
    grid = foliation_grid(henon(), (-1.0, 1.0, -0.4, 0.4), 8, 0.2, "unstable", 0.2, 2e-3)
    assert {c.termination for c in grid.curves} == {"length", "domain"}
    assert {len(c.points) for c in grid.curves if c.termination == "length"} == {101}
    assert all(len(c.points) < 101 for c in grid.curves if c.termination == "domain")
    stalled = integrate_curve(henon(), np.array([0.3, 0.1]), 1, "stable", 1e-300, 1e-300)
    assert stalled.termination == "stalled" and len(stalled.points) == 1


def test_field_kernel_and_integrator_raise_no_numpy_warnings():
    points = np.array([[0.3, 0.2], [1e-9, 0.2], [-1e-12, 0.1], [5.0, 0.0], [math.nan, 0.0],
                       [0.0, 0.1], [math.inf, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for spec in (lorenz2d(), standard(6.0), henon(), linear(0.0, 0.0, 0.0, 0.0),
                     linear(0.0, 1.0, 0.0, 0.0)):
            for k in (1, 3):
                foliation._field_directions(spec, np.vstack([points, [[1e308, 1e308]]]), k, "stable", None)
                foliation._field_directions(spec, points, k, "unstable", 0.0)
        foliation_grid(lorenz2d(), (-0.5, 0.5, -0.5, 0.5), 1, 0.25, "unstable", 0.6, 2e-3, 1e-3)
        foliation_grid(henon(), (-1.0, 1.0, -0.4, 0.4), 8, 0.2, "unstable", 0.2, 2e-3)
