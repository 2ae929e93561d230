"""The invariant the package's elementwise arithmetic rests on.

A matrix measured alone and the same matrix measured in a stack agree bit
for bit because both call the same numpy ufunc: on a Python float, an
``np.float64``, or an element of an array, contiguous or strided.  This file
checks that each ufunc the package applies elementwise gives identical bits
in all four forms, over random inputs and edge values, and so does
``hypframe.angle_theta``, which is built from them, so that a numpy
build or CPU on which that stops holding fails here by name rather than in
the sweep-equals-reference tests one by one.
"""

import itertools
import math

import numpy as np
import pytest

from hypcoords.errors import ConformalDegenerate
from hypcoords.hypframe import angle_theta

_EDGES = np.array([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, -1e-310, 1.0, -1.0, 0.5, 2.0,
    np.pi, -np.pi, np.pi / 2, 1e-16, 1e16, 1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308,
    709.782712893384, 709.7827128933841, 710.0, -708.3964185322641, -745.1332191019411, -746.0,
    np.inf, -np.inf, np.nan,
])


def _inputs(rng, n):
    """Random values over many scales and signs, then the edge values."""
    values = [rng.uniform(-1.0, 1.0, n), rng.uniform(-750.0, 750.0, n),
              rng.standard_normal(n) * 10.0 ** rng.uniform(-320.0, 308.0, n)]
    return np.concatenate((*values, _EDGES))


def _pairs(rng, n):
    """Random pairs and every pair of edge values."""
    x, y = _inputs(rng, n), _inputs(rng, n)
    edge_x, edge_y = np.meshgrid(_EDGES, _EDGES)
    return np.concatenate((x, edge_x.ravel())), np.concatenate((y, edge_y.ravel()))


def _four_ways(fn, *args):
    """fn on contiguous lanes, on strided lanes, on np.float64 scalars and on
    Python floats, each as an array of its results."""
    strided = []
    for a in args:
        wide = np.full(2 * len(a), 7.0)
        wide[::2] = a
        strided.append(wide[::2])
    rows = list(zip(*(a.tolist() for a in args)))
    return {
        "contiguous": fn(*args),
        "strided": fn(*strided),
        "float64": np.array([fn(*map(np.float64, row)) for row in rows]),
        "float": np.array([fn(*row) for row in rows]),
    }


def _assert_same_bits(results):
    expected = results.pop("contiguous").tobytes()
    assert [form for form, values in results.items() if values.tobytes() != expected] == []


@pytest.mark.parametrize("fn", [np.exp, np.log, np.sin, np.cos], ids=lambda fn: fn.__name__)
def test_unary_ufuncs_give_the_same_bits_on_floats_and_lanes(fn):
    with np.errstate(all="ignore"):
        _assert_same_bits(_four_ways(fn, _inputs(np.random.default_rng(0), 3000)))


@pytest.mark.parametrize("fn", [np.hypot, np.arctan2, np.logaddexp, np.fmod], ids=lambda fn: fn.__name__)
def test_binary_ufuncs_give_the_same_bits_on_floats_and_lanes(fn):
    with np.errstate(all="ignore"):
        _assert_same_bits(_four_ways(fn, *_pairs(np.random.default_rng(1), 3000)))


# the exponents of lorenz2d's powers at its default parameters, and others
@pytest.mark.parametrize("exponent", [0.5, 0.8, -0.5, -0.2, -1.5, -1.2, 2.0, 3.0, -1.0, 1.0 / 3.0])
def test_power_to_one_exponent_gives_the_same_bits_on_floats_and_lanes(exponent):
    # the exponent is one number, as the maps pass it: numpy takes x^0.5,
    # x^2 and x^-1 as sqrt, square and reciprocal then, but through pow
    # where the exponents are an array, which differs in the last bit
    with np.errstate(all="ignore"):
        _assert_same_bits(_four_ways(lambda x: np.power(x, exponent), _inputs(np.random.default_rng(2), 3000)))


def _critical_angles(px1, px2, py1, py2):
    """``angle_theta``'s contracting and expanding angles side by side: a
    pair for four floats, an (n, 2) array for four arrays."""
    angles = angle_theta(px1, px2, py1, py2)
    return np.stack([angles.theta_contract, angles.theta_expand], axis=-1)


def _conformal(row):
    try:
        angle_theta(*row)
    except ConformalDegenerate:
        return True
    return False


def test_angle_theta_gives_the_same_bits_on_floats_and_lanes():
    rng = np.random.default_rng(3)
    # random partials with the edge values among them, then every row of
    # signed zeros, ones and halves, so that arctan2 meets each sign of zero
    random_rows = zip(*(rng.permutation(_inputs(rng, 3000)).tolist() for _ in range(4)))
    signed_rows = itertools.product([0.0, -0.0, 1.0, -1.0, 0.5], repeat=4)
    with np.errstate(all="ignore"):
        rows = [row for row in (*random_rows, *signed_rows) if not _conformal(row)]
        results = _four_ways(_critical_angles, *np.array(rows).T)
    assert len(rows) > 3000
    _assert_same_bits(results)
    assert type(angle_theta(1.0, -0.0, 0.0, 0.5).theta_expand) is float


def test_angle_theta_raises_on_floats_and_on_an_array_holding_a_conformal_entry():
    c, s = math.cos(0.4), math.sin(0.4)
    conformal = [(0.0, 0.0, 0.0, 0.0), (-0.0, 2.0, -2.0, 0.0), (c, s, -s, c)]
    regular = [(2.0, 0.0, 0.0, 0.5), (1.0, 0.3, -0.2, 0.7)]
    mixed = np.array([*regular, conformal[1]]).T  # four lanes whose last entry is conformal
    for args in [*conformal, mixed]:
        with pytest.raises(ConformalDegenerate, match="^conformal derivative: every direction is critical$"):
            angle_theta(*args)
    assert len(angle_theta(*np.array(regular).T).theta_expand) == 2
