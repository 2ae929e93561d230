import math

import numpy as np
import pytest

from hypcoords.errors import OnSingularSet, OutsideDomain
from hypcoords.linalg2 import det2
from hypcoords.planar_maps import (
    BUILTIN_MAPS,
    MapSpec,
    fd_validate,
    henon,
    linear,
    lorenz2d,
    make_map,
    rotation,
    standard,
)

from conftest import STANDARD_K


def test_henon_eval_examples():
    h = henon(a=1.4, b=0.3)
    assert np.allclose(h.evaluate(np.array([0.0, 0.0])), [1.0, 0.0])
    assert np.allclose(h.evaluate(np.array([1.0, 0.0])), [-0.4, 0.3])


def test_linear_identity_eval():
    ident = linear()
    p = np.array([0.3, -0.7])
    assert np.array_equal(ident.evaluate(p), p)


def test_henon_jacobian_at_origin():
    h = henon(a=1.4, b=0.3)
    assert np.array_equal(h.jacobian_at(np.array([0.0, 0.0])), [[0.0, 1.0], [0.3, 0.0]])


def test_linear_jacobian_constant():
    m = linear(1.0, 2.0, -0.5, 0.25)
    expected = np.array([[1.0, 2.0], [-0.5, 0.25]])
    for p in ([0.0, 0.0], [3.0, -4.0]):
        assert np.array_equal(m.jacobian_at(np.array(p)), expected)


def test_standard_map_unit_determinant():
    s = standard(K=STANDARD_K)
    rng = np.random.default_rng(1)
    pts = [np.zeros(2)] + [rng.uniform(-10, 10, size=2) for _ in range(100)]
    for p in pts:
        assert abs(abs(det2(s.jacobian_at(p))) - 1.0) <= 1e-12


def test_henon_determinant_is_minus_b():
    h = henon(a=1.4, b=0.3)
    rng = np.random.default_rng(2)
    for _ in range(100):
        p = rng.uniform(-2, 2, size=2)
        assert abs(det2(h.jacobian_at(p)) - (-0.3)) <= 1e-14


def test_henon_second_partials():
    h = henon(a=1.4, b=0.3)
    dx, dy = h.second_partials_at(np.array([0.7, -0.2]))
    assert np.array_equal(dx, [[-2.8, 0.0], [0.0, 0.0]])
    assert np.array_equal(dy, np.zeros((2, 2)))


def test_linear_second_partials_vanish():
    m = linear(1.0, 2.0, -0.5, 0.25)
    dx, dy = m.second_partials_at(np.array([1.0, 1.0]))
    assert not dx.any() and not dy.any()


def test_lorenz2d_second_partials_grow_near_singular_line():
    lz = lorenz2d()
    close = lz.second_partials_at(np.array([0.02, 0.1]))[0]
    far = lz.second_partials_at(np.array([0.8, 0.1]))[0]
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
    with pytest.raises(OnSingularSet):
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


def test_eval_guards():
    h = henon()
    with pytest.raises(OutsideDomain):
        h.evaluate(np.array([2e6, 0.0]))
    lz = lorenz2d()
    with pytest.raises(OnSingularSet):
        lz.evaluate(np.array([0.0, 0.0]))


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
        STANDARD_FIXTURE,
        STANDARD_K,
    )

    h = henon(a=1.4, b=0.3)
    p = np.array([0.1, 0.1])
    for _ in range(HENON_BURN_IN):
        p = h.evaluate(p)
    assert np.array_equal(p, HENON_FIXTURE)

    s = standard(K=STANDARD_K)
    assert np.array_equal(s.evaluate(np.array([0.5, 0.3])), STANDARD_FIXTURE)


ARRAY_SPECS = [
    henon(a=1.4, b=0.3),
    standard(K=STANDARD_K),
    lorenz2d(),
    linear(1.0, 2.0, -0.5, 0.25),
    rotation(0.3),
]


@pytest.mark.parametrize("spec", ARRAY_SPECS, ids=lambda s: s.name)
def test_array_callbacks_agree_with_scalar_callbacks(spec):
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.uniform(-6.0, 6.0, 200), [2e6, 1e-9, float("nan"), float("inf"), 0.5]])
    y = np.concatenate([rng.uniform(-6.0, 6.0, 200), [0.1, -5.0, 0.2, 0.3, -float("inf")]])
    in_domain = spec.in_domain(x, y)
    for i, (a, b) in enumerate(zip(x.tolist(), y.tolist())):
        assert in_domain[i] == (math.isfinite(a) and math.isfinite(b) and spec.domain_check(a, b))
    # the other callbacks are only ever called at finite points
    x, y = x[np.isfinite(x) & np.isfinite(y)], y[np.isfinite(x) & np.isfinite(y)]
    images = spec.images(x, y)
    entries = [np.broadcast_to(j, x.shape) for j in spec.jacobian_entries(x, y)]
    distances = np.broadcast_to(spec.singular_distances(x, y), x.shape)
    for i, (a, b) in enumerate(zip(x.tolist(), y.tolist())):
        assert distances[i] == spec.singular_set_distance(a, b)
        # numpy's power may differ from ** in the last bit
        np.testing.assert_allclose([images[0][i], images[1][i]], spec.eval(a, b), rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(
            [e[i] for e in entries], spec.jacobian(a, b).ravel(), rtol=1e-14, atol=1e-15
        )


def test_array_methods_fall_back_to_scalar_callbacks():
    h = henon(a=1.4, b=0.3)
    bare = MapSpec(h.name, h.parameters, h.eval, h.jacobian, h.second_partials,
                   domain_check=h.domain_check)
    x = np.array([0.1, -0.7, 2e6, float("nan")])
    y = np.array([0.2, 0.4, 0.0, 0.0])
    np.testing.assert_array_equal(bare.in_domain(x, y), [True, True, False, False])
    np.testing.assert_array_equal(bare.singular_distances(x, y), np.full(4, math.inf))
    np.testing.assert_array_equal(np.stack(bare.images(x[:2], y[:2])), np.stack(h.images(x[:2], y[:2])))
    np.testing.assert_array_equal(
        np.stack(bare.jacobian_entries(x[:2], y[:2])),
        np.stack([np.broadcast_to(j, (2,)) for j in h.jacobian_entries(x[:2], y[:2])]),
    )
