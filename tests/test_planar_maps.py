import math
from dataclasses import dataclass

import numpy as np
import pytest

from hypcoords import compute_orbit
from hypcoords.errors import InvalidInput, OrbitEscaped, SingularEncounter
from hypcoords.linalg2 import det2
from hypcoords.planar_maps import (
    BUILTIN_MAPS,
    henon,
    linear,
    lorenz2d,
    make_map,
    rotation,
    standard,
)

from conftest import STANDARD_K, evaluate, jacobian_at, jacobian_matrix


@dataclass(frozen=True)
class FdReport:
    """Relative finite-difference errors of the analytic derivative callbacks."""

    jacobian_error: float
    second_error: float


def _fd_jacobian(spec, x, y, h):
    cols = []
    for dx, dy in ((h, 0.0), (0.0, h)):
        fp = spec.eval(x + dx, y + dy)
        fm = spec.eval(x - dx, y - dy)
        step = (x + dx) - (x - dx) if dx else (y + dy) - (y - dy)
        cols.append([(fp[0] - fm[0]) / step, (fp[1] - fm[1]) / step])
    return np.array(cols).T


def _fd_second(spec, x, y, h):
    out = []
    for dx, dy in ((h, 0.0), (0.0, h)):
        jp = jacobian_matrix(spec.jacobian(x + dx, y + dy))
        jm = jacobian_matrix(spec.jacobian(x - dx, y - dy))
        step = (x + dx) - (x - dx) if dx else (y + dy) - (y - dy)
        out.append((jp - jm) / step)
    return out[0], out[1]


def _rel_err(analytic, approx):
    scale = max(float(np.abs(analytic).max()), 1.0)
    return float(np.abs(analytic - approx).max()) / scale


def fd_validate(spec, p, h=1e-6):
    """Cross-check analytic derivatives against central finite differences.

    The oracle for every derivative callback.  Requires the whole stencil
    to stay clear of the singular set (distance > 10 h at the base point).
    """
    x, y = float(p[0]), float(p[1])
    if spec.singular_set_distance(x, y) <= 10.0 * h:
        raise ValueError(
            f"{spec.name}: ({x}, {y}) within 10h={10 * h:g} of the singular set"
        )
    jac_err = _rel_err(jacobian_matrix(spec.jacobian(x, y)), _fd_jacobian(spec, x, y, h))
    ax, ay = spec.second_partials(x, y)
    fx, fy = _fd_second(spec, x, y, h)
    sec_err = max(_rel_err(ax, fx), _rel_err(ay, fy))
    return FdReport(jacobian_error=jac_err, second_error=sec_err)


def test_henon_eval_examples():
    h = henon(a=1.4, b=0.3)
    assert np.allclose(evaluate(h, np.array([0.0, 0.0])), [1.0, 0.0])
    assert np.allclose(evaluate(h, np.array([1.0, 0.0])), [-0.4, 0.3])


def test_linear_identity_eval():
    ident = linear()
    p = np.array([0.3, -0.7])
    assert np.array_equal(evaluate(ident, p), p)


def test_henon_jacobian_at_origin():
    h = henon(a=1.4, b=0.3)
    assert np.array_equal(jacobian_at(h, np.array([0.0, 0.0])), [[0.0, 1.0], [0.3, 0.0]])


def test_linear_jacobian_constant():
    m = linear(1.0, 2.0, -0.5, 0.25)
    expected = np.array([[1.0, 2.0], [-0.5, 0.25]])
    for p in ([0.0, 0.0], [3.0, -4.0]):
        assert np.array_equal(jacobian_at(m, np.array(p)), expected)


def test_standard_map_unit_determinant():
    s = standard(K=STANDARD_K)
    rng = np.random.default_rng(1)
    pts = [np.zeros(2)] + [rng.uniform(-10, 10, size=2) for _ in range(100)]
    for p in pts:
        assert abs(abs(det2(jacobian_at(s, p))) - 1.0) <= 1e-12


def test_henon_determinant_is_minus_b():
    h = henon(a=1.4, b=0.3)
    rng = np.random.default_rng(2)
    for _ in range(100):
        p = rng.uniform(-2, 2, size=2)
        assert abs(det2(jacobian_at(h, p)) - (-0.3)) <= 1e-14


def test_henon_second_partials():
    h = henon(a=1.4, b=0.3)
    dx, dy = h.second_partials(0.7, -0.2)
    assert np.array_equal(dx, [[-2.8, 0.0], [0.0, 0.0]])
    assert np.array_equal(dy, np.zeros((2, 2)))


def test_linear_second_partials_vanish():
    m = linear(1.0, 2.0, -0.5, 0.25)
    dx, dy = m.second_partials(1.0, 1.0)
    assert not dx.any() and not dy.any()


def test_lorenz2d_second_partials_grow_near_singular_line():
    lz = lorenz2d()
    close = lz.second_partials(0.02, 0.1)[0]
    far = lz.second_partials(0.8, 0.1)[0]
    assert np.abs(close).max() > 10 * np.abs(far).max()
    # cross-check against finite differences away from the line
    rep = fd_validate(lz, np.array([0.02, 0.1]), h=1e-7)
    assert rep.second_error <= 1e-4


def test_fd_validate_henon():
    rep = fd_validate(henon(), np.array([0.1, 0.1]), h=1e-6)
    assert rep.jacobian_error <= 1e-6
    assert rep.second_error <= 1e-5


def test_fd_validate_exact_for_exact_arithmetic_linear_maps():
    # identity and power-of-two diagonal evaluate without rounding, so the
    # central differences cancel exactly
    for m in (linear(), linear(2.0, 0.0, 0.0, 0.5)):
        rep = fd_validate(m, np.array([0.3, -0.7]), h=1e-6)
        assert rep.jacobian_error <= 1e-14
        assert rep.second_error <= 1e-14


def test_fd_validate_on_singular_line_raises():
    with pytest.raises(ValueError, match="within 10h=1e-05 of the singular set$"):
        fd_validate(lorenz2d(), np.array([0.0, 0.5]), h=1e-6)


def test_fd_validate_all_builtins_random_points():
    rng = np.random.default_rng(3)
    specs = {
        "henon": henon(),
        "standard": standard(),
        "lorenz2d": lorenz2d(),
        "linear": linear(1.2, -0.3, 0.4, 0.9),
        "rotation": rotation(0.7),
    }
    for name, spec in specs.items():
        for _ in range(100):
            p = rng.uniform(-1.5, 1.5, size=2)
            if name == "lorenz2d" and abs(p[0]) < 2e-3:
                p[0] = math.copysign(2e-3 + abs(p[0]), p[0] if p[0] else 1.0)
            rep = fd_validate(spec, p, h=1e-6)
            assert rep.jacobian_error <= 1e-6, (name, p)
            assert rep.second_error <= 1e-5, (name, p)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.5, math.nan])
def test_lorenz2d_alpha_outside_the_unit_interval_is_invalid_input(alpha):
    with pytest.raises(InvalidInput, match=r"^lorenz2d requires 0 < alpha < 1$"):
        lorenz2d(alpha=alpha)


def test_eval_guards():
    # the orbit pass refuses a start outside the domain or on the singular set
    h = henon()
    assert not h.domain_check(2e6, 0.0)
    with pytest.raises(OrbitEscaped) as err:
        compute_orbit(h, np.array([2e6, 0.0]), 1)
    assert err.value.index == 0
    lz = lorenz2d()
    assert lz.singular_set_distance(0.0, 0.0) == 0.0
    with pytest.raises(SingularEncounter) as err:
        compute_orbit(lz, np.array([0.0, 0.0]), 1)
    assert err.value.index == 0


def test_registry_contains_required_builtins():
    for name in ("henon", "standard", "lorenz2d", "linear"):
        assert name in BUILTIN_MAPS
    spec = make_map("henon", a=1.2, b=0.2)
    assert spec.parameters == {"a": 1.2, "b": 0.2}
    with pytest.raises(KeyError):
        make_map("nosuchmap")


def test_fixture_points_reproduce_from_their_definitions():
    # the frozen regression points are plain iterations of the builtins;
    # bit-for-bit equality guards against drift in the map implementations
    from conftest import (
        HENON_BURN_IN,
        HENON_FIXTURE,
        LORENZ_FIXTURE,
        LORENZ_K,
        LORENZ_START,
        STANDARD_FIXTURE,
        STANDARD_K,
    )

    h = henon(a=1.4, b=0.3)
    p = np.array([0.1, 0.1])
    for _ in range(HENON_BURN_IN):
        p = evaluate(h, p)
    assert np.array_equal(p, HENON_FIXTURE)

    s = standard(K=STANDARD_K)
    assert np.array_equal(evaluate(s, np.array([0.5, 0.3])), STANDARD_FIXTURE)

    orbit = compute_orbit(lorenz2d(), LORENZ_START, LORENZ_K)
    assert np.array_equal(orbit.points[-1], LORENZ_FIXTURE)


ARRAY_SPECS = [
    henon(a=1.4, b=0.3),
    standard(K=STANDARD_K),
    lorenz2d(),
    linear(1.0, 2.0, -0.5, 0.25),
    rotation(0.3),
]


@pytest.mark.parametrize("spec", ARRAY_SPECS, ids=lambda s: s.name)
def test_array_callbacks_agree_with_scalar_callbacks(spec):
    # one callback serves both: per element on Python floats, once on the array
    rng = np.random.default_rng(5)
    inf, nan = math.inf, math.nan
    x = np.concatenate([rng.uniform(-6.0, 6.0, 200), [2e6, 1e-9, nan, inf, 0.5, 0.1, -inf, nan, inf, 1e-250, -1e-210]])
    y = np.concatenate([rng.uniform(-6.0, 6.0, 200), [0.1, -5.0, 0.2, 0.3, -inf, nan, 0.1, nan, inf, 0.1, 0.3]])
    in_domain = np.broadcast_to(spec.domain_check(x, y), x.shape)
    for i, (a, b) in enumerate(zip(x.tolist(), y.tolist())):
        assert in_domain[i] == spec.domain_check(a, b)
    finite = np.isfinite(x) & np.isfinite(y)
    assert not in_domain[~finite].any()
    # the other callbacks are only ever called at finite points
    x, y = x[finite], y[finite]
    images = spec.eval(x, y)
    entries = [np.broadcast_to(j, x.shape) for j in spec.jacobian(x, y)]
    distances = np.broadcast_to(spec.singular_set_distance(x, y), x.shape)
    with np.errstate(over="ignore"):  # lorenz2d's second partials are inf within about 1e-205 of x = 0
        # per axis a (2, 2) constant or a (2, 2, n) stack, bit for bit the matrices of each point alone
        assert all(np.shape(d) in ((2, 2), (2, 2, len(x))) for d in spec.second_partials(x, y))
        seconds = np.stack([np.broadcast_to(np.reshape(d, (2, 2, -1)), (2, 2, len(x)))
                            for d in spec.second_partials(x, y)])
        alone = np.array([spec.second_partials(a, b) for a, b in zip(x.tolist(), y.tolist())], dtype=float)
    assert np.moveaxis(seconds, -1, 0).tobytes() == alone.tobytes()
    for i, (a, b) in enumerate(zip(x.tolist(), y.tolist())):
        assert distances[i] == spec.singular_set_distance(a, b)
        # numpy's array power may differ from its scalar power in the last bit
        np.testing.assert_allclose([images[0][i], images[1][i]], spec.eval(a, b), rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose([e[i] for e in entries], spec.jacobian(a, b), rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("name, bound, closed", [("henon", 1e6, False), ("lorenz2d", 4.0, True)])
def test_domain_is_a_box_that_holds_no_non_finite_point(name, bound, closed):
    spec = make_map(name)
    edges = [0.0, -0.0, 1.0, -3.5, bound, -bound, np.nextafter(bound, 0.0), np.nextafter(bound, math.inf),
             1e300, -math.inf, math.inf, math.nan]
    x, y = (np.array(v) for v in zip(*[(u, v) for u in edges for v in edges]))
    inside = (abs(x) <= bound) & (abs(y) <= bound) if closed else (abs(x) < bound) & (abs(y) < bound)
    assert np.array_equal(spec.domain_check(x, y), inside)
    assert [bool(spec.domain_check(u, v)) for u, v in zip(x.tolist(), y.tolist())] == inside.tolist()
