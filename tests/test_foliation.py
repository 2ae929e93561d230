import math

import numpy as np
import pytest

from hypcoords import foliation
from hypcoords.errors import HypcoordsError, NoFrameAtStart, NoFrameAtVertex
from hypcoords.foliation import (
    FoliationCurve,
    curve_to_csv_rows,
    curves_to_svg,
    foliation_grid,
    integrate_curve,
    pushforward_seed_angle,
    pushforward_tangent_deviation,
)
from hypcoords.hypframe import angle_theta
from hypcoords.linalg2 import line_angle_distance, sincos_direction
from hypcoords.planar_maps import linear, lorenz2d, rotation


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
        j = henon.jacobian_at(curve.points[v])
        theta = angle_theta(j[0, 0], j[1, 0], j[0, 1], j[1, 1]).theta_contract
        field = sincos_direction(theta)
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


def test_pushforward_consistency_linear():
    lin = linear(2.0, 0.0, 0.0, 0.5)
    curve = integrate_curve(lin, np.array([0.2, 0.0]), 2, "stable", 0.4, 2e-3)
    deviations = pushforward_tangent_deviation(lin, curve, 2, stride=20)
    assert max(d for _, d in deviations) <= 1e-9


def _polyline(*points):
    pts = np.array(points, dtype=float)
    return FoliationCurve(
        k=1, field="stable", points=pts, arclengths=np.arange(len(pts), dtype=float),
        termination="length", step=1.0, seed_direction=np.array([1.0, 0.0]),
    )


@pytest.mark.parametrize("i", [0, 1])
def test_pushforward_deviation_without_frame_is_typed_error(i):
    rot = linear(0.0, -1.0, 1.0, 0.0)
    curve = _polyline([0.0, 0.0], [0.1, 0.0], [0.2, 0.0])
    with pytest.raises(NoFrameAtVertex, match="vertex 1") as info:
        pushforward_tangent_deviation(rot, curve, i)
    assert isinstance(info.value, HypcoordsError) and info.value.vertex == 1


def test_pushforward_deviation_builds_image_orbit_only_for_i_positive(monkeypatch):
    lin = linear(2.0, 0.0, 0.0, 0.5)
    curve = _polyline([0.2, -0.1], [0.2, 0.0], [0.2, 0.1], [0.2, 0.2])
    orders = []
    real = foliation.compute_orbit

    def spy(spec, p, k, guard=None):
        orders.append(k)
        return real(spec, p, k, guard)

    monkeypatch.setattr(foliation, "compute_orbit", spy)
    assert pushforward_tangent_deviation(lin, curve, 0) == [(1, 0.0), (2, 0.0)]
    assert orders == [curve.k, curve.k]  # the field direction at each vertex only
    orders.clear()
    pushforward_tangent_deviation(lin, curve, 3)
    assert orders == [curve.k, 3, curve.k, 3]


def test_pushforward_consistency_henon(henon):
    curve = integrate_curve(henon, np.array([0.0, 0.0]), 2, "stable", 0.3, 1e-3)
    deviations = pushforward_tangent_deviation(henon, curve, 2, stride=20)
    assert max(d for _, d in deviations) <= 5e-3
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
