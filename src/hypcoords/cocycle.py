"""Derivative cocycles along orbits, with overflow-safe scaled products.

Norms of k-step derivative products grow or decay exponentially, so raw
matrix products overflow doubles long before the desk-scale horizons here
become interesting.  Every product is therefore stored scaled (``ScaledMatrix``):
a body with max-entry magnitude in [1/2, 2] plus a natural-log scale.  The
renormalization factor is always a power of two, so the body entries stay
bit-exact relative to the unscaled product.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from . import linalg2
from .errors import (
    IndexOutOfRange,
    InvalidInput,
    OrbitEscaped,
    SingularEncounter,
    ZeroDeterminant,
    ZeroMatrix,
)
from .planar_maps import MapSpec

_LN2 = math.log(2.0)
# A 2x2 matrix whose max |entry| reaches this has a nonzero closed-form SVD
_TINY = 2.0**-1021
_EYE = np.eye(2)


@dataclass(frozen=True)
class ScaledMatrix:
    """exp(log_scale) * body, with max |body entry| in [1/2, 2] (or body == 0)."""

    body: np.ndarray
    log_scale: float

    @staticmethod
    def from_matrix(m: np.ndarray) -> "ScaledMatrix":
        """``m`` scaled; anything but a 2x2 matrix of finite numbers is InvalidInput."""
        body, log_scale, peak = normalize_stack(float_array(m, "matrix", (2, 2)), 0.0)
        if not math.isfinite(peak):  # the max |entry|, NaN or inf with any such entry
            raise InvalidInput("matrix has a non-finite entry")
        return ScaledMatrix(body, float(log_scale))

    def __matmul__(self, other: "ScaledMatrix") -> "ScaledMatrix":
        body, log_scale, _ = normalize_stack(self.body @ other.body, self.log_scale + other.log_scale)
        return ScaledMatrix(body, float(log_scale))


def normalize_stack(bodies: np.ndarray, log_scales) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(body / 2^e, log_scale + e log 2) per body of a (..., 2, 2) stack, max |entry| = f 2^e, f in [1/2, 1).

    Returns the scaled bodies, their log scales and the max |entry| of each
    input body.  A zero body stays zero and keeps its log scale.
    """
    m = np.maximum.reduce(np.abs(bodies), axis=(-2, -1))
    _, e = np.frexp(m)
    return np.ldexp(bodies, -e[..., None, None]), log_scales + e * _LN2, m


def measure_steps(steps: np.ndarray) -> Tuple[np.ndarray, ...]:
    """The k steps of one orbit, (k, 2, 2), or of m orbits, (k, m, 2, 2) with
    step j of orbit i at [j, i], scaled, and their renormalized products.

    Returns ``(step_bodies, step_log_scales, step_log_absdet, zero_steps,
    lost_steps, prefix_bodies, prefix_log_scales)``.  A step's log |det|
    comes from the raw determinant unless that is not a normal float
    (overflow, underflow, cancellation), then from the scaled body; a zero
    step is one whose closed-form SVD is zero; a lost step has a nonzero
    entry below 2^-1022 once scaled, which has lost bits or become 0; order
    i = 0..k of the products is steps 0..i-1.
    """
    # overflow, 0 * inf and inf - inf as on Python floats
    with np.errstate(all="ignore"):
        step_bodies, step_log_scales, peak = normalize_stack(steps, 0.0)
        det = np.abs(linalg2.det2(steps))
        step_log_absdet = np.log(det)
        redo = ~((det >= sys.float_info.min) & (det < math.inf))  # NaN included
        if np.count_nonzero(redo):
            body_det = np.abs(linalg2.det2(step_bodies[redo]))
            body_log_det = np.log(body_det) + 2.0 * step_log_scales[redo]
            step_log_absdet[redo] = np.where(body_det > 0.0, body_log_det, -math.inf)  # NaN included
        zero_steps = peak < _TINY
        if np.count_nonzero(zero_steps):
            zero_steps[zero_steps] = linalg2.svd2_closed(*steps[zero_steps].reshape(-1, 4).T).smax == 0.0
        lost_steps = np.zeros(peak.shape, dtype=bool)
        below = np.abs(step_bodies) < sys.float_info.min  # as is every zero entry: more are lost ones
        if np.count_nonzero(below) + np.count_nonzero(steps) > steps.size:
            lost_steps = (below & (steps != 0.0)).any(axis=(-2, -1))
        prefix_bodies = np.empty((len(steps) + 1, *steps.shape[1:]))
        body = prefix_bodies[0] = _EYE
        exps = np.empty((len(steps), *steps.shape[1:-2], 1, 1), dtype=np.intc)
        abs_body = np.empty(steps.shape[1:])
        for step_body, e, product in zip(step_bodies, exps, prefix_bodies[1:]):
            body = np.matmul(step_body, body, out=product)
            np.frexp(np.maximum.reduce(np.abs(body, out=abs_body), axis=(-2, -1), keepdims=True), out=(None, e))
            np.ldexp(body, -e, out=body)
        # log scale j + 1 = (log scale j + step j's) + e_j log 2, added left to right
        scale_terms = np.zeros((2 * len(steps) + 1, *steps.shape[1:-2]))
        scale_terms[1::2], scale_terms[2::2] = step_log_scales, exps[..., 0, 0] * _LN2
        prefix_log_scales = np.add.accumulate(scale_terms, axis=0)[::2]
    return (step_bodies, step_log_scales, step_log_absdet, zero_steps, lost_steps,
            prefix_bodies, prefix_log_scales)


def measure_orders(bodies: np.ndarray, log_scales, log_absdet) -> Tuple[np.ndarray, ...]:
    """``(smax, log_norm, log_conorm, contracted)`` of an (n, 2, 2) stack of
    renormalized products with their log scales and log |det|s: the
    closed-form SVD's larger singular value, the log norm (-inf for a zero
    body), the log co-norm and ``Svd2.v_min`` in the frame's sign
    (``linalg2.canonical_sign``).  Callers silence numpy's log 0 and
    inf - inf warnings."""
    svd = linalg2.svd2_closed(*bodies.reshape(-1, 4).T)
    log_norm = np.log(svd.smax) + log_scales
    # smin of the assembled product cancels once the co-eccentricity drops
    # below the working precision; |det| / norm, with the determinant
    # accumulated stepwise (exact multiplicativity), does not
    log_conorm = log_absdet - log_norm
    return svd.smax, log_norm, log_conorm, linalg2.canonical_sign(svd.v_min)


def is_int(value) -> bool:
    """Whether ``value`` is an int; a bool is not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_finite_real(value) -> bool:
    """Whether ``value`` is a finite real number; a bool is not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def float_array(value, name: str, shape: Optional[Tuple[int, ...]] = None) -> np.ndarray:
    """``value`` as a float array, of ``shape`` when one is given; anything
    else is InvalidInput."""
    try:
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise InvalidInput(f"{name} must be numbers, got {value!r}") from None
    if shape is not None and array.shape != shape:
        raise InvalidInput(f"{name} has shape {array.shape}; expected {shape}")
    return array


def check_order(order, lo: int, hi: int, name: str) -> None:
    """InvalidInput unless ``order`` is an int, IndexOutOfRange outside lo..hi."""
    if not is_int(order):
        raise InvalidInput(f"{name} must be an int, got {order!r}")
    if not lo <= order <= hi:
        raise IndexOutOfRange(f"{name} {order} outside {lo}..{hi}")


def check_orders(orders, lo: int, hi: int, name: str) -> np.ndarray:
    """``check_order`` for an int or a 1-d sequence of ints: an index array."""
    try:
        idx = np.atleast_1d(orders)
    except ValueError:  # a ragged sequence, refused below as not 1-d
        idx = np.empty((0, 0))
    if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
        raise InvalidInput(f"{name} must be an int, got {orders!r}")
    outside = idx[(idx < lo) | (idx > hi)]
    if outside.size:
        raise IndexOutOfRange(f"{name} {outside[0]} outside {lo}..{hi}")
    return idx.astype(np.intp, copy=False)


def guard_limit(spec: MapSpec, guard: Optional[float]) -> float:
    """Singular-set distance below which ``compute_orbit`` stops an orbit; a
    ``guard`` other than None or a finite number >= 0 is InvalidInput."""
    if guard is None:
        guard = 1e-8 if spec.has_singular_set else 0.0
    elif not (is_finite_real(guard) and guard >= 0.0):
        raise InvalidInput(f"guard must be finite and >= 0, got {guard!r}")
    return max(guard, 1e-300)


def check_orbit_order(k) -> None:
    """InvalidInput unless the orbit order ``k`` is an int >= 1."""
    if not (is_int(k) and k >= 1):
        raise InvalidInput(f"orbit order k must be an int >= 1, got {k!r}")


@dataclass(frozen=True)
class NormData:
    """Log-domain norm data of a scaled matrix."""

    log_norm: float
    log_conorm: float
    log_absdet: float
    det_sign: float


def norm_conorm_det(m: ScaledMatrix) -> NormData:
    """Spectral norm, co-norm and determinant of the represented matrix, in logs.

    The co-norm is the smaller singular value (norm of the image of the most
    contracted unit vector).  A singular matrix is allowed: its co-norm and
    determinant logs are -inf.
    """
    if float(np.abs(m.body).max()) == 0.0:
        raise ZeroMatrix("norms undefined for the zero matrix")
    s = linalg2.svd2_matrix(m.body)
    log_norm = np.log(s.smax) + m.log_scale
    if s.smin == 0.0:
        return NormData(log_norm, float("-inf"), float("-inf"), 0.0)
    log_conorm = np.log(s.smin) + m.log_scale
    return NormData(log_norm, log_conorm, log_norm + log_conorm, s.det_sign)


class MatrixCocycle:
    """Products of a finite sequence of 2x2 step matrices, measured once.

    ``prefix(i)`` is the product of steps 0..i-1 (the i-step derivative at
    the base point), ``prefix(0)`` the identity.  Steps and products are
    stacks of scaled bodies (``step_bodies``, ``prefix_bodies``), from which
    array passes take the log norm, co-norm and |det| of every step and
    order, and the signed most contracted direction of every order
    (``contracted``, by ``measure_orders``); ``images``
    pushes vectors through the products, ``contracted_images`` pulls the
    contracted directions back.  Each value equals its scalar closed form
    bit for bit, but for the co-norm of a step whose closed-form smin
    cancels to 0: there it is |det| / norm.  No step, a step that is not
    2x2, a non-finite entry or a lost step (``measure_steps``) is InvalidInput.
    """

    def __init__(self, steps: Sequence[np.ndarray]):
        try:
            raw = np.array(steps, dtype=float)
        except ValueError:  # steps of unequal shapes
            raw = np.empty(0)
        if raw.ndim != 3 or raw.shape[1:] != (2, 2) or not len(raw):
            raise InvalidInput("cocycle needs one or more 2x2 step matrices")
        if not np.isfinite(raw).all():
            raise InvalidInput("cocycle steps have a non-finite entry")
        self.steps: List[np.ndarray] = list(raw)
        self.k = k = len(raw)
        (self.step_bodies, self.step_log_scales, step_log_absdet, zero_steps, lost_steps,
         self.prefix_bodies, self.prefix_log_scales) = measure_steps(raw)
        if lost_steps.any():
            raise InvalidInput(f"step {lost_steps.argmax()} has a nonzero entry below 2^-1022 once scaled")
        with np.errstate(all="ignore"):  # overflow and inf - inf as on Python floats
            log_absdet = np.cumsum(np.concatenate(([0.0], step_log_absdet)))
            smax, log_norm, log_conorm, self.contracted = measure_orders(
                self.prefix_bodies, self.prefix_log_scales, log_absdet)
            zero = np.flatnonzero(np.concatenate((zero_steps, smax == 0.0)))
            if zero.size:  # steps first; entry k + i is order i
                j = zero[0]
                what = f"step {j}" if j < k else f"product of steps 0..{j - k - 1}"
                raise ZeroMatrix(what + " is the zero matrix")
            step_svd = linalg2.svd2_closed(*raw.reshape(-1, 4).T)
            step_log_norm = np.log(step_svd.smax)
            # q - r cancels to 0 below a step co-eccentricity of about 1e-16; there the
            # co-norm is |det| / norm, as for the orders (a step's log |det| is never +inf)
            step_log_conorm = np.log(step_svd.smin)
            cancelled = ~(step_svd.smin > 0.0)  # NaN included
            step_log_conorm[cancelled] = (step_log_absdet - step_log_norm)[cancelled]
        # lists of Python floats, as messages and reports print them
        self.step_log_norm, self.step_log_conorm, self.step_log_absdet = (
            x.tolist() for x in (step_log_norm, step_log_conorm, step_log_absdet))
        self.log_norm, self.log_conorm, self.log_absdet = (
            x.tolist() for x in (log_norm, log_conorm, log_absdet))
        self._pulled_back: Optional[Tuple[np.ndarray, np.ndarray]] = None  # on first use

    def prefix(self, i: int) -> ScaledMatrix:
        check_order(i, 0, self.k, "prefix index")
        return ScaledMatrix(self.prefix_bodies[i], float(self.prefix_log_scales[i]))

    def images(self, v: np.ndarray, orders) -> Tuple[np.ndarray, np.ndarray]:
        """The image under ``prefix(i)`` for each i of ``orders``, from one
        stacked matmul: of ``v``, or of row j of an (n, 2) ``v`` at the j-th
        order.  Returns the unit directions as an (n, 2) array and the log
        norms, each the body's image w over hypot(w) and log hypot(w)
        plus the log scale; a zero image has a zero direction and log norm
        -inf.  It pushes f and the axis vectors; e goes by ``contracted_images``.
        Orders are checked by ``check_orders``; a ``v`` of any other shape, or
        not of numbers, is InvalidInput."""
        orders = check_orders(orders, 0, self.k, "order")
        v = float_array(v, "vector")
        if v.shape not in ((2,), (len(orders), 2)):
            raise InvalidInput(f"vector has shape {v.shape}; expected (2,) or ({len(orders)}, 2)")
        w = np.matmul(self.prefix_bodies[orders], v[..., None])[..., 0]
        norms = np.hypot(w[:, 0], w[:, 1])
        nonzero = (norms != 0.0)[:, None]
        directions = np.divide(w, norms[:, None], out=np.zeros_like(w), where=nonzero)
        with np.errstate(divide="ignore"):  # log 0 = -inf
            return directions, np.log(norms) + self.prefix_log_scales[orders]

    def contracted_images(self, orders) -> Tuple[np.ndarray, np.ndarray]:
        """DPhi^i e_k at i = 0..k for each order k of ``orders`` (as ``images``
        takes them), e_k the ``contracted`` direction in the frame's sign:
        unit directions (n, self.k + 1, 2) and log norms (n, self.k + 1), NaN
        at i > k; a singular order is a ZeroDeterminant.  A forward product
        holds DPhi^i e_k only to eps |DPhi^i| in absolute terms, so e_k is
        pulled back from order k, where it is normal to DPhi^k f_k, through
        the inverse steps, which expand it; ``_pull_back`` pulls every order
        back at once, on first use."""
        orders = check_orders(orders, 0, self.k, "order")
        if orders.size and self.log_absdet[orders.max()] == -math.inf:
            first = self.log_absdet.index(-math.inf)
            raise ZeroDeterminant(f"det DPhi^{first} is zero: determinant-normalized rows undefined")
        if self._pulled_back is None:
            self._pulled_back = self._pull_back()
        return tuple(x[orders] for x in self._pulled_back)

    def _pull_back(self) -> Tuple[np.ndarray, np.ndarray]:
        """``contracted_images`` of each nonsingular order, stepping back from
        the last step: step j maps w of each order k > j to its adjugate image
        over +-hypot, signed as det(body); the log norm of w at i adds the log
        growths of steps k - 1 down to i, in that order, by one accumulate
        after the loop; the vector at i = 0, parallel to e_k, fixes the scale
        and sign of the others."""
        n = self.log_absdet.index(-math.inf) if -math.inf in self.log_absdet else self.k + 1
        e = self.contracted[:n]
        u = self.images(linalg2.rotate_quarter_cw(e), range(n))[0]  # DPhi^k f_k
        w = np.vstack((-u[:, 1], u[:, 0]))  # x and y of each order
        table = np.full((3, self.k + 1, n), math.nan)  # x, y and log norm of w of order k at i in [:, i, k]
        table[:2, range(n), range(n)] = w
        hypots = np.ones((n, n))  # of step j's image of w of order k in [j, k]
        bodies = self.step_bodies.tolist()
        dets = linalg2.det2(self.step_bodies[: n - 1])
        with np.errstate(all="ignore"):  # a body det that underflows: inf and NaN as on Python floats
            for j in range(n - 2, -1, -1):
                (a, b), (c, d) = bodies[j]
                x, y = w[:, j + 1:]
                p, q = d * x - b * y, a * y - c * x
                norm = np.hypot(p, q)
                hypots[j, j + 1:] = norm
                signed = norm if dets[j] > 0.0 else -norm
                np.divide(p, signed, out=x)
                np.divide(q, signed, out=y)
                table[:2, j, j + 1:] = w[:, j + 1:]
            # the log growth of step j for order k in [j, k] where j < k, else 0
            growth = np.log(hypots)
            growth[: n - 1] -= np.log(np.abs(dets))[:, None]
            growth[: n - 1] -= self.step_log_scales[: n - 1, None]
            np.copyto(growth, 0.0, where=np.tri(n, dtype=bool))
            # added from j = n - 1, a zero, up to i, as the loop added them
            np.copyto(table[2, :n], np.add.accumulate(growth[::-1])[::-1], where=~np.tri(n, k=-1, dtype=bool))
            x, y, log_norms = table.transpose(0, 2, 1)
            sign = np.where(x[:, 0] * e[:, 0] + y[:, 0] * e[:, 1] > 0.0, 1.0, -1.0)[:, None]
            return np.stack((x * sign, y * sign), axis=-1), log_norms - log_norms[:, :1]

    def block(self, i: int, j: int) -> ScaledMatrix:
        """Product of steps i..j-1 (the (j-i)-step derivative at point i)."""
        if not (is_int(i) and is_int(j)):
            raise InvalidInput(f"block ({i!r}, {j!r}) must be two ints")
        if not 0 <= i <= j <= self.k:
            raise IndexOutOfRange(f"block ({i}, {j}) outside 0 <= i <= j <= {self.k}")
        *_, bodies, log_scales = measure_steps(np.array(self.steps[i:j]).reshape(-1, 2, 2))
        return ScaledMatrix(bodies[-1], float(log_scales[-1]))

    def log_coecc(self, i: int) -> float:
        """log co-eccentricity of the i-step product, i >= 1."""
        return self.log_conorm[i] - self.log_norm[i]

    def step_log_coecc(self, j: int) -> float:
        """log one-step co-eccentricity at orbit point j (0-based step index)."""
        return self.step_log_conorm[j] - self.step_log_norm[j]


@dataclass(frozen=True)
class OrbitSegment:
    """Orbit points with per-step derivative data and scaled cocycle products."""

    spec: MapSpec
    points: np.ndarray  # shape (k+1, 2)
    step_second_partials: np.ndarray  # shape (k, 2, 2, 2): step, axis, row, column
    cocycle: MatrixCocycle

    @property
    def k(self) -> int:
        return self.cocycle.k


def cocycle_of(source: Union[OrbitSegment, MatrixCocycle]) -> MatrixCocycle:
    """The cocycle of an orbit segment, or the cocycle itself."""
    return source.cocycle if isinstance(source, OrbitSegment) else source


# Why an orbit stops, by code; 0 is an orbit that reaches order k
ORBIT_SINGULAR, ORBIT_DOMAIN, ORBIT_DERIVATIVES = 1, 2, 3


def _derivatives_at(spec: MapSpec, xs: np.ndarray, ys: np.ndarray, valid) -> np.ndarray:
    """The Jacobians and the second partials d_x and d_y, a (3, k, m, 2, 2)
    array, at the ``valid`` entries of (k, m) points (a slice: all), NaN at
    the others."""
    x, y = xs[valid].ravel(), ys[valid].ravel()
    derivatives = np.empty((3, len(x), 2, 2))
    if len(x):  # MapSpec callbacks take no empty arrays
        jacobians = derivatives[0]
        jacobians[:, 0, 0], jacobians[:, 0, 1], jacobians[:, 1, 0], jacobians[:, 1, 1] = spec.jacobian(x, y)
        for axis, d in enumerate(spec.second_partials(x, y), 1):
            d = np.asarray(d)
            derivatives[axis] = d if d.ndim == 2 else d.transpose(2, 0, 1)  # (2, 2) or (2, 2, n)
    if isinstance(valid, slice):
        return derivatives.reshape(3, *xs.shape, 2, 2)
    out = np.full((3, *xs.shape, 2, 2), math.nan)
    out[:, valid] = derivatives
    return out


def cocycle(spec: MapSpec, starts: np.ndarray, k: int, guard: Optional[float]) -> Tuple[np.ndarray, ...]:
    """The orbits of an (m, 2) array of starts to order k, orbit j in column j,
    as ``(stops, orders, points, jacobians, second_partials)``: why each one
    stops (int8 ORBIT_* codes, 0 where it reaches order k) and at which order
    (k where it does not), the points (k + 1, m, 2), the Jacobians
    (k, m, 2, 2) and the second partials (k, m, 2, 2, 2) by step, orbit,
    axis, row and column.  Entries past a stop are no part of the orbit.

    At orbit point i an orbit stops at the first that fails of the domain
    check (False at a non-finite point), the singular guard (only where
    ``spec.has_singular_set``) and, for i < k, finite first and second
    partials.  ``eval`` takes each order's points that passed both checks,
    the derivative callbacks every step before each stop in one call.  A
    callback that raises OverflowError ends every orbit running at that
    order: in ``eval`` at order i at i + 1, in a derivative at the first
    order whose call raises."""
    limit = guard_limit(spec, guard)
    m = len(starts)
    xs, ys = coords = np.full((2, k + 1, m), math.nan)  # orbit point i of orbit j at [i, j]
    coords[:, 0] = starts.T
    stops, orders = np.zeros(m, dtype=np.int8), np.full(m, k)
    live, x, y = slice(None), xs[0], ys[0]  # the running orbits: all of them until one stops

    def end(ended, code: int, order: int) -> None:  # stop the running orbits where ``ended`` holds
        nonlocal live, x, y
        if np.count_nonzero(ended):  # faster than .any() on small arrays
            index = np.arange(m)[live]
            ended = np.broadcast_to(ended, index.shape)
            stops[index[ended]], orders[index[ended]] = code, order
            live, x, y = index[~ended], x[~ended], y[~ended]

    # overflow to inf and NaN are tested for explicitly, as on Python floats
    with np.errstate(all="ignore"):
        for i in range(k + 1):
            end(np.logical_not(spec.domain_check(x, y)), ORBIT_DOMAIN, i)
            if spec.has_singular_set and len(x):
                end(np.less(spec.singular_set_distance(x, y), limit), ORBIT_SINGULAR, i)
            if i == k or not len(x):
                break
            try:  # a scalar image, which MapSpec allows, broadcasts
                xs[i + 1, live], ys[i + 1, live] = spec.eval(x, y)
            except OverflowError:
                end(True, ORBIT_DOMAIN, i + 1)
                break
            x, y = xs[i + 1, live], ys[i + 1, live]

        # the steps before each stop, step i of orbit j at [i, j]
        valid = np.arange(k)[:, None] < orders if np.count_nonzero(stops) else slice(None)
        try:
            derivs = _derivatives_at(spec, xs[:k], ys[:k], valid)
        except OverflowError:  # order by order; the first call that raises gives inf
            valid = np.arange(k)[:, None] < orders
            derivs = np.full((3, k, m, 2, 2), math.nan)
            for i in range(k):
                try:
                    derivs[:, i : i + 1] = _derivatives_at(spec, xs[i : i + 1], ys[i : i + 1], valid[i : i + 1])
                except OverflowError:
                    derivs[:, i, valid[i]] = math.inf
                    break
        if not np.isfinite(derivs).all():  # NaN past each stop
            finite = np.isfinite(derivs).all(axis=(0, -2, -1))
            first = np.where(finite.all(axis=0), k, finite.argmin(axis=0))
            earlier = first < orders
            stops[earlier], orders[earlier] = ORBIT_DERIVATIVES, first[earlier]
    return stops, orders, coords.transpose(1, 2, 0), derivs[0], derivs[1:].transpose(1, 2, 0, 3, 4)


def compute_orbit(
    spec: MapSpec, xi0: np.ndarray, k: int, guard: Optional[float] = None
) -> OrbitSegment:
    """Iterate the map k times from xi0, collecting derivative data: the
    one-start case of ``cocycle``, whose stop at orbit point i it raises as
    SingularEncounter(i) at the guard, else as OrbitEscaped(i).  ``guard``
    defaults to 1e-8 for maps with a singular set and 0 for smooth ones.  A
    start that is not two coordinates, or a ``k`` that is not an int >= 1
    (a bool is not), is InvalidInput."""
    check_orbit_order(k)
    start = float_array(xi0, "orbit start", (2,))
    stops, orders, points, jacobians, seconds = cocycle(spec, start[None], k, guard)
    stop, i = stops[0], int(orders[0])
    if stop == ORBIT_SINGULAR:
        raise SingularEncounter(i)
    if stop:
        raise OrbitEscaped(i, f"orbit point {i} has non-finite derivatives" if stop == ORBIT_DERIVATIVES else None)
    return OrbitSegment(spec, points[:, 0].copy(), seconds[:, 0], MatrixCocycle(jacobians[:, 0]))
