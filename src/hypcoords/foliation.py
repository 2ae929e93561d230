"""Integral curves of the frame fields: finite-time stable/unstable curves.

The order-k contracted and expanded unit directions extend to fields on any
region where the co-eccentricity stays below 1; their integral curves play
the role of finite-time stable and unstable manifolds.  Curves are traced
with a fixed-step fourth-order integrator.  The field is only defined up to
sign, so each stage sample is flipped to match the direction the curve is
already travelling (sign continuation, not the global convention, to avoid
spurious reversals across the convention's flip locus).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import linalg2
from .cocycle import compute_orbit
from .errors import (
    HypcoordsError,
    NoFrameAtStart,
    NoFrameAtVertex,
    OrbitEscaped,
    OutsideDomain,
    SingularEncounter,
)
from .hypframe import LOW_CONFIDENCE_COECC, hyperbolic_coordinates, pushforward_frames
from .planar_maps import MapSpec

STABLE = "stable"
UNSTABLE = "unstable"


@dataclass(frozen=True)
class FoliationCurve:
    k: int
    field: str  # stable (contracted) or unstable (expanded)
    points: np.ndarray  # (n, 2)
    arclengths: np.ndarray
    termination: str  # length | degenerate | singular | domain | stalled
    step: float
    seed_direction: np.ndarray  # exact field direction at the seed

    @property
    def seed(self) -> np.ndarray:
        return self.points[0]

    @property
    def endpoint(self) -> np.ndarray:
        return self.points[-1]


class _FieldStop(Exception):
    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


def _field_direction(spec: MapSpec, p: np.ndarray, k: int, field: str, guard) -> np.ndarray:
    try:
        orbit = compute_orbit(spec, p, k, guard)
        frame = hyperbolic_coordinates(orbit, k)
    except SingularEncounter as exc:
        raise _FieldStop("singular") from exc
    except (OrbitEscaped, OutsideDomain) as exc:
        raise _FieldStop("domain") from exc
    except HypcoordsError as exc:
        raise _FieldStop("degenerate") from exc
    if frame.coecc > LOW_CONFIDENCE_COECC:
        raise _FieldStop("degenerate")
    return frame.e if field == STABLE else frame.f


def integrate_curve(
    spec: MapSpec,
    start: np.ndarray,
    k: int,
    field: str = STABLE,
    total_arclength: float = 1.0,
    step: float = 1e-3,
    guard: Optional[float] = None,
) -> FoliationCurve:
    """Trace the unit frame field from ``start`` for ``total_arclength``.

    Terminates early (with the reason recorded) on near-conformal
    degeneracy, singular-set proximity, domain exit, or a step too small to
    move the point.
    """
    if field not in (STABLE, UNSTABLE):
        raise ValueError(f"field must be {STABLE!r} or {UNSTABLE!r}")
    if step > total_arclength:
        raise ValueError("step must not exceed total_arclength")
    start = np.asarray(start, dtype=float)
    try:
        direction = _field_direction(spec, start, k, field, guard)
    except _FieldStop as exc:
        raise NoFrameAtStart(f"no usable frame at {start}: {exc.reason}") from exc

    def sample(p: np.ndarray, ref: np.ndarray) -> np.ndarray:
        v = _field_direction(spec, p, k, field, guard)
        return v if float(np.dot(v, ref)) >= 0.0 else -v

    n_steps = max(1, round(total_arclength / step))
    pts = [start.copy()]
    arcs = [0.0]
    p = start.copy()
    prev = direction
    termination = "length"
    for _ in range(n_steps):
        try:
            k1 = sample(p, prev)
            k2 = sample(p + 0.5 * step * k1, prev)
            k3 = sample(p + 0.5 * step * k2, prev)
            k4 = sample(p + step * k3, prev)
        except _FieldStop as exc:
            termination = exc.reason
            break
        moved = p + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        shift = moved - p
        if not shift.any():  # step below the resolution of the coordinates
            termination = "stalled"
            break
        p = moved
        pts.append(p.copy())
        arcs.append(arcs[-1] + step)
        prev = linalg2.unit(shift)
    return FoliationCurve(
        k=k,
        field=field,
        points=np.array(pts),
        arclengths=np.array(arcs),
        termination=termination,
        step=step,
        seed_direction=direction,
    )


@dataclass(frozen=True)
class FoliationGrid:
    curves: List[FoliationCurve]
    failed_seeds: List[Tuple[np.ndarray, str]]


def foliation_grid(
    spec: MapSpec,
    rectangle: Tuple[float, float, float, float],
    k: int,
    seed_spacing: float,
    field: str = STABLE,
    total_arclength: float = 0.5,
    step: float = 1e-3,
    guard: Optional[float] = None,
) -> FoliationGrid:
    """Curves seeded on a regular lattice inside (xmin, xmax, ymin, ymax).

    Per-seed frame failures are recorded, not fatal.
    """
    xmin, xmax, ymin, ymax = rectangle
    xs = np.arange(xmin + 0.5 * seed_spacing, xmax, seed_spacing)
    ys = np.arange(ymin + 0.5 * seed_spacing, ymax, seed_spacing)
    curves: List[FoliationCurve] = []
    failed: List[Tuple[np.ndarray, str]] = []
    for x in xs:
        for y in ys:
            seed = np.array([x, y])
            try:
                curves.append(
                    integrate_curve(spec, seed, k, field, total_arclength, step, guard)
                )
            except NoFrameAtStart as exc:
                failed.append((seed, str(exc)))
    return FoliationGrid(curves=curves, failed_seeds=failed)


def iterate_point(spec: MapSpec, p: np.ndarray, i: int) -> np.ndarray:
    q = np.asarray(p, dtype=float)
    for _ in range(i):
        q = spec.evaluate(q)
    return q


def pushforward_seed_angle(
    spec: MapSpec, seed: np.ndarray, k: int, i: int, guard: Optional[float] = None
) -> float:
    """Angle between the i-step images of e and f at a seed (pi/2 at i = k)."""
    orbit = compute_orbit(spec, np.asarray(seed, dtype=float), k, guard)
    pushed = pushforward_frames(orbit, k, i)
    return linalg2.angle_between(pushed.e_dir, pushed.f_dir)


def pushforward_tangent_deviation(
    spec: MapSpec,
    curve: FoliationCurve,
    i: int,
    stride: int = 1,
    guard: Optional[float] = None,
) -> List[Tuple[int, float]]:
    """Angular deviation of the image polyline from the pushed frame field.

    For each (strided) interior vertex, compares the tangent of the image
    polyline with the i-step image of the curve's field direction at the
    original vertex.  Returns (vertex index, deviation in radians); a vertex
    without a usable frame raises NoFrameAtVertex.
    """
    image = np.array([iterate_point(spec, p, i) for p in curve.points])
    out: List[Tuple[int, float]] = []
    for v in range(1, len(curve.points) - 1, stride):
        tangent = image[v + 1] - image[v - 1]
        try:
            pushed = _field_direction(spec, curve.points[v], curve.k, curve.field, guard)
        except _FieldStop as exc:
            raise NoFrameAtVertex(
                v, f"no usable frame at curve vertex {v} {curve.points[v]}: {exc.reason}"
            ) from exc
        if i > 0:
            orbit = compute_orbit(spec, curve.points[v], i, guard)
            pushed = orbit.cocycle.prefix(i).apply(pushed)[0]
        out.append((v, linalg2.line_angle_distance(
            math.atan2(float(tangent[1]), float(tangent[0])),
            math.atan2(float(pushed[1]), float(pushed[0])),
        )))
    return out


def curve_to_csv_rows(curve_id: int, curve: FoliationCurve) -> List[Tuple[int, float, float, float]]:
    return [
        (curve_id, float(s), float(p[0]), float(p[1]))
        for s, p in zip(curve.arclengths, curve.points)
    ]


def curves_to_svg(
    curves: List[FoliationCurve],
    viewbox: Tuple[float, float, float, float],
    stroke_width: float = 0.004,
) -> str:
    """Minimal SVG: one polyline per curve, fixed viewbox, no styling engine."""
    xmin, xmax, ymin, ymax = viewbox
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{xmin:g} {ymin:g} {xmax - xmin:g} {ymax - ymin:g}">'
    ]
    for curve in curves:
        pts = " ".join(f"{p[0]:.6g},{p[1]:.6g}" for p in curve.points)
        lines.append(
            f'<polyline points="{pts}" fill="none" stroke="black" '
            f'stroke-width="{stroke_width:g}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
