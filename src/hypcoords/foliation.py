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
form of the scalar ``_field_direction``.  It works in two passes: the orbit
pass iterates all points together, order by order, keeps the coordinates
of each order in a list, and drops those that leave the domain or come
near the singular set (a guard that runs only on a map that declares a
singular set); the derivative pass then takes the Jacobians at every
step of every surviving orbit in one stacked call and measures them with
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
from .cocycle import (check_orbit_order, compute_orbit, float_array, guard_limit, is_finite_real, measure_orders,
                      measure_steps)
from .errors import (
    HypcoordsError,
    InvalidInput,
    NoFrameAtStart,
    OrbitEscaped,
    SingularEncounter,
)
from .hypframe import LOW_CONFIDENCE_COECC, hyperbolic_coordinates, pushforward_frames
from .planar_maps import MapSpec

STABLE = "stable"
UNSTABLE = "unstable"

# Why a curve ends, by code.  Code 0 is a curve that ran its full length
# and, from ``_field_directions``, a usable direction.
TERMINATIONS = ("length", "singular", "domain", "degenerate", "stalled")
_SINGULAR, _DOMAIN, _DEGENERATE, _STALLED = 1, 2, 3, 4

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

    @property
    def endpoint(self) -> np.ndarray:
        return self.points[-1]


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
    """``_field_direction`` at the n points of an (n, 2) array, in two numpy passes.

    Returns ``(directions, stops)``.  Where ``stops[j]`` is 0,
    ``directions[j]`` is the order-k field direction at point j (canonical
    sign), equal to the scalar one bit for bit.  Elsewhere it is NaN and
    ``TERMINATIONS[stops[j]]`` is the reason the scalar path stops there:
    "singular", "domain" or "degenerate".

    The steps follow ``compute_orbit``, ``MatrixCocycle`` and
    ``hyperbolic_coordinates``.  The orbit pass runs order by order: the
    domain check (a non-finite point fails it), then the singular guard on
    the points in the domain, then ``eval`` on the points that passed both.
    The coordinates of each order are kept in a list, one array per order;
    a stopped point leaves the pass and every stored order.  As in
    ``compute_orbit``, the guard runs only where ``spec.has_singular_set``
    declares a singular set.  The derivative pass takes the k steps of
    every orbit that reached order k at once: one ``jacobian`` call, one
    ``cocycle.measure_steps`` and one ``cocycle.measure_orders`` of the
    order-k products, as ``MatrixCocycle`` measures one orbit; then the
    co-eccentricity as ``hyperbolic_coordinates`` takes it.  A zero or lost
    step, a zero product or a co-eccentricity above ``LOW_CONFIDENCE_COECC``
    is degenerate.  So the map callbacks see only points the scalar path
    would evaluate.
    """
    limit = guard_limit(spec, guard)
    n = len(points)
    stops = np.zeros(n, dtype=np.int8)
    directions = np.full((n, 2), np.nan)
    live = np.arange(n)
    x, y = points[:, 0], points[:, 1]
    xs, ys = [], []  # orbit point i of the live seeds at [i]

    def drop(bad: np.ndarray, code: int) -> None:
        nonlocal live, x, y
        stops[live[bad]] = code
        keep = ~bad
        live, x, y = live[keep], x[keep], y[keep]
        xs[:] = [u[keep] for u in xs]
        ys[:] = [u[keep] for u in ys]

    # Overflow to inf, log(0) and NaN are tested for explicitly, as the
    # scalar path tests them on Python floats.
    with np.errstate(all="ignore"):
        for i in range(k + 1):
            bad = np.logical_not(spec.domain_check(x, y))
            if np.count_nonzero(bad):  # also for a scalar; faster than .any() on small arrays
                drop(np.broadcast_to(bad, x.shape), _DOMAIN)
            if spec.has_singular_set:
                near = np.less(spec.singular_set_distance(x, y), limit)
                if np.count_nonzero(near):
                    drop(np.broadcast_to(near, x.shape), _SINGULAR)
            if i == k:
                break
            xs.append(x)
            ys.append(y)
            x, y = spec.eval(x, y)
            if np.ndim(x) + np.ndim(y) < 2:  # a scalar image, which MapSpec allows
                x, y = np.broadcast_to(x, live.shape), np.broadcast_to(y, live.shape)
        # every step of every surviving orbit at once, step i of seed j at [i, j]
        m = len(live)
        jac = np.empty((k * m, 2, 2))
        jac[:, 0, 0], jac[:, 0, 1], jac[:, 1, 0], jac[:, 1, 1] = spec.jacobian(
            np.concatenate(xs), np.concatenate(ys)
        )
        *_, step_log_absdet, zero_steps, lost_steps, bodies, log_scales = measure_steps(jac.reshape(k, m, 2, 2))
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


def pushforward_seed_angle(spec: MapSpec, seed: np.ndarray, k: int, i: int) -> float:
    """Angle between the i-step images of e and f at a seed (pi/2 at i = k)."""
    orbit = compute_orbit(spec, np.asarray(seed, dtype=float), k)
    pushed = pushforward_frames(orbit, k, i)
    return linalg2.angle_between(pushed.e_dir, pushed.f_dir)


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
        pts = " ".join(f"{p[0]:.6g},{p[1]:.6g}" for p in curve.points)
        lines.append(
            f'<polyline points="{pts}" fill="none" stroke="black" '
            f'stroke-width="{_STROKE_WIDTH:g}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
