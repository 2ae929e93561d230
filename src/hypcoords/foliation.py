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
pass iterates all points together, order by order, and drops those that
leave the domain or come near the singular set; the derivative pass then
takes the Jacobians at every step of every surviving orbit in one stacked
call and multiplies the steps order by order.  The scalar path gives the
exact direction at each seed and stays the reference the kernel is tested
against.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import linalg2
from .cocycle import _det_stack, compute_orbit, guard_limit, normalize_stack
from .errors import (
    HypcoordsError,
    NoFrameAtStart,
    OrbitEscaped,
    SingularEncounter,
)
from .hypframe import LOW_CONFIDENCE_COECC, canonical_sign, hyperbolic_coordinates, pushforward_frames
from .planar_maps import MapSpec

STABLE = "stable"
UNSTABLE = "unstable"

# Why a curve ends, by code.  Code 0 is a curve that ran its full length
# and, from ``_field_directions``, a usable direction.
TERMINATIONS = ("length", "singular", "domain", "degenerate", "stalled")
_SINGULAR, _DOMAIN, _DEGENERATE, _STALLED = 1, 2, 3, 4

# A step matrix whose max |entry| reaches this has a nonzero closed-form SVD
_TINY = 2.0**-1021

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
    except OrbitEscaped as exc:
        raise _FieldStop("domain") from exc
    except HypcoordsError as exc:
        raise _FieldStop("degenerate") from exc
    if frame.coecc > LOW_CONFIDENCE_COECC:
        raise _FieldStop("degenerate")
    return frame.e if field == STABLE else frame.f


def _field_directions(
    spec: MapSpec, points: np.ndarray, k: int, field: str, guard: Optional[float]
) -> Tuple[np.ndarray, np.ndarray]:
    """``_field_direction`` at the n points of an (n, 2) array, in two numpy passes.

    Returns ``(directions, stops)``.  Where ``stops[j]`` is 0,
    ``directions[j]`` is the order-k field direction at point j (canonical
    sign), equal to the scalar one to rounding.  Elsewhere it is NaN and
    ``TERMINATIONS[stops[j]]`` is the reason the scalar path stops there:
    "singular", "domain" or "degenerate".

    The steps follow ``compute_orbit``, ``MatrixCocycle`` and
    ``hyperbolic_coordinates``.  The orbit pass runs order by order: the
    domain check (a non-finite point fails it), then the singular guard on
    the points in the domain, then ``eval`` on the points that passed both;
    a stopped point leaves the pass, and the coordinates of each order are
    kept.  The derivative pass takes the k steps of every orbit that
    reached order k at once: one ``jacobian`` call, the step normalization
    and log|det| over the whole stack, log|det| summed in order of the
    steps; then the product of the renormalized steps, order by order, with
    the same power-of-two scaling.  A zero product or a co-eccentricity
    above ``LOW_CONFIDENCE_COECC`` is degenerate.  So the map callbacks see
    only points the scalar path would evaluate.
    """
    limit = guard_limit(spec, guard)
    n = len(points)
    stops = np.zeros(n, dtype=np.int8)
    directions = np.full((n, 2), np.nan)
    live = np.arange(n)
    x, y = points[:, 0], points[:, 1]
    xs, ys = np.empty((k, n)), np.empty((k, n))  # orbit point i of seed j at [i, j]

    def drop(bad: np.ndarray, code: int) -> None:
        nonlocal live, x, y
        stops[live[bad]] = code
        live, x, y = live[~bad], x[~bad], y[~bad]

    # Overflow to inf, log(0) and NaN are tested for explicitly, as the
    # scalar path tests them on Python floats.
    with np.errstate(all="ignore"):
        for i in range(k + 1):
            bad = np.logical_not(spec.domain_check(x, y))
            if bad.any():
                drop(np.broadcast_to(bad, x.shape), _DOMAIN)
            near = np.less(spec.singular_set_distance(x, y), limit)
            if near.any():
                drop(np.broadcast_to(near, x.shape), _SINGULAR)
            if i == k:
                break
            xs[i, live], ys[i, live] = x, y
            x, y = spec.eval(x, y)
        # every step of every surviving orbit at once, row i * m + j for order i of seed j
        m = len(live)
        jac = np.empty((k * m, 2, 2))
        jac[:, 0, 0], jac[:, 0, 1], jac[:, 1, 0], jac[:, 1, 1] = spec.jacobian(
            xs[:, live].ravel(), ys[:, live].ravel()
        )
        step_body, step_scale, mag = normalize_stack(jac, 0.0)
        # as MatrixCocycle's step log |det|: the raw determinant unless it is not a
        # normal float, then the scaled body's
        raw_det = np.abs(_det_stack(jac))
        step_log_det = np.log(raw_det)
        redo = ~((raw_det >= sys.float_info.min) & (raw_det < math.inf))  # NaN included
        if redo.any():
            body_det = np.abs(_det_stack(step_body[redo]))
            step_log_det[redo] = np.log(body_det) + 2.0 * step_scale[redo]
        log_det = np.cumsum(step_log_det.reshape(k, m), axis=0)[-1]
        zero_step = mag < _TINY  # a step that svd2_closed sees as zero
        if zero_step.any():
            zero_step &= linalg2.spectral_norm_array(*jac.reshape(-1, 4).T) == 0.0
        zero_step = zero_step.reshape(k, m).any(axis=0)
        step_body, step_scale = step_body.reshape(k, m, 2, 2), step_scale.reshape(k, m)
        body, log_scale = np.broadcast_to(np.eye(2), (m, 2, 2)), np.zeros(m)
        for i in range(k):
            body, log_scale, _ = normalize_stack(np.matmul(step_body[i], body), step_scale[i] + log_scale)
        svd = linalg2.svd2_closed_array(*body.reshape(-1, 4).T)
        log_norm = np.log(svd.smax) + log_scale
        # A zero product stays zero, so the last one stands for every order;
        # coecc >= 1 - EPS_COECC (no frame) implies coecc > LOW_CONFIDENCE_COECC.
        coecc = np.exp(log_det - log_norm - log_norm)
        degenerate = zero_step | (svd.smax == 0.0) | (coecc > LOW_CONFIDENCE_COECC)
    stops[live[degenerate]] = _DEGENERATE
    ok = ~degenerate
    e = canonical_sign(np.stack((-np.sin(svd.theta_v[ok]), np.cos(svd.theta_v[ok])), axis=1))
    directions[live[ok]] = e if field == STABLE else linalg2.rotate_quarter_cw(e)
    return directions, stops


def _check_curve_arguments(field: str, step: float, total_arclength: float) -> None:
    if field not in (STABLE, UNSTABLE):
        raise ValueError(f"field must be {STABLE!r} or {UNSTABLE!r}")
    if step > total_arclength:
        raise ValueError("step must not exceed total_arclength")


def _seed_direction(spec: MapSpec, seed: np.ndarray, k: int, field: str, guard) -> np.ndarray:
    try:
        return _field_direction(spec, seed, k, field, guard)
    except _FieldStop as exc:
        raise NoFrameAtStart(f"no usable frame at {seed}: {exc.reason}") from exc


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
        v *= np.where((v * prev).sum(axis=1) < 0.0, -1.0, 1.0)[:, None]
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
    _check_curve_arguments(field, step, total_arclength)
    start = np.asarray(start, dtype=float)
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
    _check_curve_arguments(field, step, total_arclength)
    xmin, xmax, ymin, ymax = rectangle
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


def pushforward_seed_angle(
    spec: MapSpec, seed: np.ndarray, k: int, i: int, guard: Optional[float] = None
) -> float:
    """Angle between the i-step images of e and f at a seed (pi/2 at i = k)."""
    orbit = compute_orbit(spec, np.asarray(seed, dtype=float), k, guard)
    pushed = pushforward_frames(orbit, k, i)
    return linalg2.angle_between(pushed.e_dir, pushed.f_dir)


def curve_to_csv_rows(curve_id: int, curve: FoliationCurve) -> List[Tuple[int, float, float, float]]:
    return [
        (curve_id, float(s), float(p[0]), float(p[1]))
        for s, p in zip(curve.arclengths, curve.points)
    ]


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
