"""Integral curves of the frame fields: finite-time stable/unstable curves.

The order-k contracted and expanded unit directions extend to fields on any
region where the co-eccentricity stays below 1; their integral curves play
the role of finite-time stable and unstable manifolds.  Curves are traced
with a fixed-step fourth-order integrator.  The field is only defined up to
sign, so each stage sample is flipped to match the direction the curve is
already travelling (sign continuation, not the global convention, to avoid
spurious reversals across the convention's flip locus).

All curves of a call advance in lockstep: each integrator stage samples the
field at every curve still running with ``_field_directions``, the array
form of the scalar ``_field_direction``.  It takes the orbits of all
points, and why and where each one stops, from ``cocycle.cocycle``, the
one orbit pass, of which ``compute_orbit`` is the one-start case; then it
measures the steps of every orbit that reached order k with
``cocycle.measure_steps`` and the order-k products with
``cocycle.measure_orders``, the measurements ``MatrixCocycle`` makes of one
orbit.  The scalar path gives the exact direction at each seed and stays
the reference the kernel is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import linalg2
from .cocycle import (check_orbit_order, cocycle, compute_orbit, float_array, guard_limit, is_finite_real,
                      measure_orders, measure_steps)
from .errors import (
    HypcoordsError,
    InvalidInput,
    NoFrameAtStart,
    OrbitEscaped,
    SingularEncounter,
)
from .hypframe import LOW_CONFIDENCE_COECC, hyperbolic_coordinates
from .planar_maps import MapSpec

STABLE = "stable"
UNSTABLE = "unstable"

# Why a curve ends, by code.  Code 0 is a curve that ran its full length
# and, from ``_field_directions``, a usable direction.
TERMINATIONS = ("length", "singular", "domain", "degenerate", "stalled")
_SINGULAR, _DOMAIN, _DEGENERATE, _STALLED = 1, 2, 3, 4
# The termination code of each ``cocycle`` stop code; "domain" where compute_orbit raises OrbitEscaped
_ORBIT_STOPS = np.array([0, _SINGULAR, _DOMAIN, _DOMAIN], dtype=np.int8)

# SVG polyline width, in the units of the viewbox
_STROKE_WIDTH = 0.004


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


def _field_direction(spec: MapSpec, p: np.ndarray, k: int, field: str, guard) -> Tuple[np.ndarray, int]:
    """``_field_directions`` at one point, through ``compute_orbit`` and
    ``hyperbolic_coordinates``: ``(direction, 0)``, or a NaN direction and
    the code of the reason it stops; as in the kernel, the caught error is dropped."""
    try:
        frame = hyperbolic_coordinates(compute_orbit(spec, p, k, guard), k)
    except SingularEncounter:
        stop = _SINGULAR
    except OrbitEscaped:
        stop = _DOMAIN
    except HypcoordsError:
        stop = _DEGENERATE
    else:
        if frame.coecc <= LOW_CONFIDENCE_COECC:
            return (frame.e if field == STABLE else frame.f), 0
        stop = _DEGENERATE
    return np.full(2, np.nan), stop


def _field_directions(
    spec: MapSpec, points: np.ndarray, k: int, field: str, guard: Optional[float]
) -> Tuple[np.ndarray, np.ndarray]:
    """``_field_direction`` at the n points of an (n, 2) array, in numpy passes.

    Returns ``(directions, stops)``.  Where ``stops[j]`` is 0,
    ``directions[j]`` is the order-k field direction at point j (canonical
    sign), equal to the scalar one bit for bit.  Elsewhere it is NaN and
    ``TERMINATIONS[stops[j]]`` is the reason the scalar path stops there:
    "singular", "domain" (the stops of ``cocycle``, whose one-start case
    is ``compute_orbit``) or "degenerate": a zero or lost step, a zero
    product or a co-eccentricity above ``LOW_CONFIDENCE_COECC``, measured
    as ``MatrixCocycle`` and ``hyperbolic_coordinates`` measure one orbit.
    """
    orbit_stops, _, _, steps, _ = cocycle(spec, points, k, guard)
    stops = _ORBIT_STOPS[orbit_stops]
    directions = np.full((len(points), 2), np.nan)
    live = np.flatnonzero(stops == 0)
    steps = steps[:, live] if len(live) < len(points) else steps
    # Overflow to inf, log(0) and NaN are tested for explicitly, as the
    # scalar path tests them on Python floats.
    with np.errstate(all="ignore"):
        *_, step_log_absdet, zero_steps, lost_steps, bodies, log_scales = measure_steps(steps)
        smax, log_norm, log_conorm, e = measure_orders(
            bodies[k], log_scales[k], np.cumsum(step_log_absdet, axis=0)[-1])
        coecc = np.exp(log_conorm - log_norm)  # as hyperbolic_coordinates takes it
        # A zero product stays zero, so the last one stands for every order;
        # coecc >= 1 - EPS_COECC (no frame) implies coecc > LOW_CONFIDENCE_COECC.
        degenerate = (zero_steps | lost_steps).any(axis=0) | (smax == 0.0) | (coecc > LOW_CONFIDENCE_COECC)
    if np.count_nonzero(degenerate):
        stops[live[degenerate]] = _DEGENERATE
        live, e = live[~degenerate], e[~degenerate]
    directions[live] = e if field == STABLE else linalg2.rotate_quarter_cw(e)
    return directions, stops


def _check_curve_arguments(spec: MapSpec, k: int, field: str, step: float, total_arclength: float, guard):
    """InvalidInput for a bad argument that ``integrate_curve`` and ``foliation_grid`` share."""
    check_orbit_order(k)
    guard_limit(spec, guard)
    if field not in (STABLE, UNSTABLE):
        raise InvalidInput(f"field must be {STABLE!r} or {UNSTABLE!r}")
    for name, value in (("step", step), ("total_arclength", total_arclength)):
        if not (is_finite_real(value) and value > 0.0):
            raise InvalidInput(f"{name} must be positive and finite, got {value!r}")
    if step > total_arclength:
        raise InvalidInput("step must not exceed total_arclength")


def _seed_direction(spec: MapSpec, seed: np.ndarray, k: int, field: str, guard) -> np.ndarray:
    direction, stop = _field_direction(spec, seed, k, field, guard)
    if stop:
        raise NoFrameAtStart(f"no usable frame at {seed}: {TERMINATIONS[stop]}")
    return direction


def _integrate(
    spec: MapSpec,
    seeds: np.ndarray,
    directions: np.ndarray,
    k: int,
    field: str,
    total_arclength: float,
    step: float,
    guard: Optional[float],
) -> List[FoliationCurve]:
    """Lockstep RK4 from every seed, one ``_field_directions`` call per stage.

    ``directions`` holds the exact field direction at each seed.  Each curve
    takes the steps ``integrate_curve`` describes and ends on its own, with
    the reason of the first stage that has no usable direction, or as
    "stalled" on a step that does not move its point; the rest go on.
    """
    n = len(seeds)
    if n == 0:
        return []
    n_steps = max(1, round(total_arclength / step))
    ends = np.zeros(n, dtype=np.int8)
    counts = np.full(n, n_steps + 1)
    live = np.arange(n)
    p, prev = seeds, directions
    visits, visited = [live], [seeds]

    def sample(q: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        v, stop = _field_directions(spec, q, k, field, guard)
        v *= np.where(np.add.reduce(v * prev, axis=1) < 0.0, -1.0, 1.0)[:, None]
        return v, stop

    for s in range(n_steps):
        k1, stop = sample(p)
        k2, stop2 = sample(p + 0.5 * step * k1)
        k3, stop3 = sample(p + 0.5 * step * k2)
        k4, stop4 = sample(p + step * k3)
        for later in (stop2, stop3, stop4):
            stop = np.where(stop != 0, stop, later)
        moved = p + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        shift = moved - p
        # a step below the resolution of the coordinates
        stop[(stop == 0) & ~shift.any(axis=1)] = _STALLED
        go = stop == 0
        if not go.all():
            ends[live[~go]] = stop[~go]
            counts[live[~go]] = s + 1
            live, moved, shift = live[go], moved[go], shift[go]
            if not live.size:
                break
        p = moved
        prev = shift / np.hypot(shift[:, 0], shift[:, 1])[:, None]
        visits.append(live)
        visited.append(p)
    order = np.argsort(np.concatenate(visits), kind="stable")
    points = np.split(np.concatenate(visited)[order], np.cumsum(counts)[:-1])
    arcs = np.add.accumulate(np.r_[0.0, np.full(n_steps, step)])
    return [
        FoliationCurve(
            k=k,
            field=field,
            points=pts,
            arclengths=arcs[: len(pts)].copy(),
            termination=TERMINATIONS[end],
            step=step,
            seed_direction=direction,
        )
        for pts, end, direction in zip(points, ends, directions)
    ]


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
    _check_curve_arguments(spec, k, field, step, total_arclength, guard)
    start = float_array(start, "curve start", (2,))
    direction = _seed_direction(spec, start, k, field, guard)
    return _integrate(spec, start[None], direction[None], k, field, total_arclength, step, guard)[0]


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

    Per-seed frame failures are recorded, not fatal.  All curves are
    integrated together, in lockstep.
    """
    _check_curve_arguments(spec, k, field, step, total_arclength, guard)
    if not (is_finite_real(seed_spacing) and seed_spacing > 0.0):
        raise InvalidInput(f"seed_spacing must be positive and finite, got {seed_spacing!r}")
    corners = list(rectangle) if np.iterable(rectangle) else []
    if len(corners) != 4 or not all(map(is_finite_real, corners)):
        raise InvalidInput(f"rectangle must be four finite numbers xmin, xmax, ymin, ymax, got {rectangle!r}")
    xmin, xmax, ymin, ymax = corners
    xs = np.arange(xmin + 0.5 * seed_spacing, xmax, seed_spacing)
    ys = np.arange(ymin + 0.5 * seed_spacing, ymax, seed_spacing)
    seeds: List[np.ndarray] = []
    directions: List[np.ndarray] = []
    failed: List[Tuple[np.ndarray, str]] = []
    for x in xs:
        for y in ys:
            seed = np.array([x, y])
            try:
                directions.append(_seed_direction(spec, seed, k, field, guard))
                seeds.append(seed)
            except NoFrameAtStart as exc:
                failed.append((seed, str(exc)))
    curves = _integrate(
        spec, np.array(seeds).reshape(-1, 2), np.array(directions).reshape(-1, 2),
        k, field, total_arclength, step, guard,
    )
    return FoliationGrid(curves=curves, failed_seeds=failed)


def curves_to_svg(
    curves: List[FoliationCurve], viewbox: Tuple[float, float, float, float]
) -> str:
    """Minimal SVG: one polyline per curve, fixed viewbox, no styling engine."""
    xmin, xmax, ymin, ymax = viewbox
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{xmin:g} {ymin:g} {xmax - xmin:g} {ymax - ymin:g}">'
    ]
    for curve in curves:
        coords = curve.points.ravel().tolist()  # Python floats format faster than numpy scalars
        pts = " ".join(f"{x:.6g},{y:.6g}" for x, y in zip(coords[::2], coords[1::2]))
        lines.append(
            f'<polyline points="{pts}" fill="none" stroke="black" '
            f'stroke-width="{_STROKE_WIDTH:g}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
