import argparse
import collections
import contextlib
import csv
import dataclasses
import filecmp
import gc
import hashlib
import io
import json
import math
import os
import pathlib
import re
import sys
import tempfile
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from hypcoords import MatrixCocycle, bounds, certificate, cli, compute_orbit, make_map
from hypcoords import report as report_module
from hypcoords.cli import fmt, main, write_bound_report
from hypcoords.errors import ConfigError

import parity_battery
from conftest import HENON_FIXTURE, LORENZ_FIXTURE, STANDARD_FIXTURE, STANDARD_K

HENON_ARGS = [
    "--map", "henon", "--a", "1.4", "--b", "0.3",
    "--x0", repr(float(HENON_FIXTURE[0])), "--y0", repr(float(HENON_FIXTURE[1])),
]


def run(argv):
    return main([str(a) for a in argv])


def test_orbit_command(tmp_path):
    assert run(["orbit", *HENON_ARGS, "--k", "6", "--out-dir", tmp_path]) == 0
    lines = (tmp_path / "orbit.csv").read_text().splitlines()
    assert lines[0] == "i,x,y,j11,j12,j21,j22,log_norm,log_conorm,log_absdet"
    assert len(lines) == 8  # header + 7 rows
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == float(HENON_FIXTURE[0])


def test_frames_command(tmp_path):
    assert run(["frames", *HENON_ARGS, "--k", "6", "--out-dir", tmp_path]) == 0
    lines = (tmp_path / "frames.csv").read_text().splitlines()
    assert len(lines) == 7
    assert lines[0].startswith("k,e_x,e_y,f_x,f_y,")


def test_certify_henon(tmp_path, capsys):
    code = run(["certify", *HENON_ARGS, "--k", "20", "--flavor", "II", "--eta", "1.05",
                "--out-dir", tmp_path])
    assert code == 0
    assert (tmp_path / "ledger.txt").exists()
    report = json.loads((tmp_path / "certificate.json").read_text())
    assert report["verdict"] is True
    assert report["flavor"] == "II"


def test_certify_rotation_fails_with_named_inequality(tmp_path, capsys):
    code = run(["certify", "--map", "linear", "--matrix", "0,1,-1,0",
                "--x0", "0.1", "--y0", "0", "--k", "5", "--flavor", "II",
                "--out-dir", tmp_path])
    assert code == 1
    err = capsys.readouterr().err
    assert "c < 1" in err


def test_aux_constants_command(tmp_path, capsys):
    code = run(["aux-constants", *HENON_ARGS, "--k", "12", "--flavor", "II",
                "--out-dir", tmp_path])
    assert code == 0
    payload = json.loads((tmp_path / "aux_constants.json").read_text())
    assert payload["K1"] > 0 and payload["K2"] > 0
    assert payload["Q1"] is None  # type-(I) branch undefined for a II ledger
    assert payload["branches"] == ["II"]
    out = capsys.readouterr().out
    assert "K2 = " in out


def test_verify_convergence_command(tmp_path):
    code = run(["verify-convergence", *HENON_ARGS, "--k", "10", "--flavor", "II",
                "--out-dir", tmp_path])
    assert code == 0
    for stem in ("apriori_convergence", "explicit_convergence"):
        header = (tmp_path / f"{stem}.csv").read_text().splitlines()[0]
        assert header == "check,index,lhs,rhs,margin,passed,status"
        payload = json.loads((tmp_path / f"{stem}.json").read_text())
        assert payload["verdict"] is True


def test_verify_variation_command(tmp_path, capsys):
    code = run(["verify-variation", *HENON_ARGS, "--k", "6", "--flavor", "II",
                "--out-dir", tmp_path])
    assert code == 0
    assert capsys.readouterr().out == (
        "slow-variation chain passes at k=6\n"
        "slow_variation: 11 rows checked, 0 failed, 0 pass_within_rounding, "
        "worst relative margin 0 (second_derivative_factor_lower at (6,))\n"
    )
    payload = json.loads((tmp_path / "slow_variation.json").read_text())
    assert payload["verdict"] is True
    assert "frame_derivative_master_bound" in payload["checks"]
    assert "richardson_stability" not in payload["checks"]
    assert sorted(payload["context"]) == ["d2_e1_axis_x", "d2_e1_axis_y", "d2_e1_norm"]


def test_verify_variation_takes_no_step(tmp_path, capsys):
    # the derivative is exact, so there is no finite-difference step to set
    argv = ["verify-variation", *HENON_ARGS, "--k", "4", "--flavor", "II"]
    assert run([*argv, "--h", "1e-5", "--out-dir", tmp_path / "flag"]) == 2
    assert "--h" in _one_line_error(capsys)
    config = tmp_path / "run.cfg"
    config.write_text("h = 1e-5\n")
    assert run([*argv, "--config", config, "--out-dir", tmp_path / "config"]) == 2
    assert "unknown keys ['h']" in _one_line_error(capsys)


def test_certify_with_rates_beyond_float_products(tmp_path, capsys):
    # Gamma^2 and lambda^2 overflow a double here; the structural
    # inequalities hold, as they do for the same matrix scaled to 1e5, 1
    for matrix in ("1e155,0,0,1e150", "1e5,0,0,1"):
        argv = ["certify", "--map", "linear", "--matrix", matrix, "--x0", "1e-300",
                "--y0", "1e-300", "--k", "1", "--flavor", "II", "--out-dir", tmp_path]
        assert run(argv) == 0, matrix
        assert capsys.readouterr().out == "certificate passes for k <= 1 (flavor II)\n"
    # a constant itself beyond the double range: a typed error, not a traceback
    ledger = tmp_path / "huge.txt"
    certificate.write_ledger(str(ledger), certificate.ConstantsLedger(
        flavor=certificate.Flavor.SINGULAR_I, Gamma=1e300, Gamma_tilde=1.0, lam=1e299, b=1.0,
        c=1e-4, c_tilde=1.0, B=1.0, B_tilde=1.0, C=1.0, D=1e10,
    ))
    assert run(["aux-constants", "--ledger", ledger, "--out-dir", tmp_path / "huge"]) == 1
    assert _one_line_error(capsys) == "an auxiliary constant exceeds the double range"


def _mpmath_auxiliary_constants(ledger):
    """The auxiliary constants of ``ledger`` evaluated at 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        G, Gt, lam, b, c, ct, B, Bt, C, D = map(mpmath.mpf, (
            ledger.Gamma, ledger.Gamma_tilde, ledger.lam, ledger.b, ledger.c, ledger.c_tilde,
            ledger.B, ledger.B_tilde, ledger.C, ledger.D,
        ))
        Q0 = mpmath.sqrt(2 / (1 - B**2 * c**2))
        out = {"Q0": Q0, "K1": Q0**2 / mpmath.sqrt(2),
               "Q": B * D**3 * G**4 * Gt / (C**2 * lam**2 * (G**2 * Gt - b))}
        branches = []
        if ledger.flavor.has_type_one:
            out["Q1"] = B * D + Q0 * B * D**3 * G / (C * (lam - G * Gt * c))
            out["Q2"] = 1 / C + Q0 * D**2 * G * lam / (C**2 * (lam**2 - Gt * b))
            out["Q3"] = out["Q1"] * D * G**2 * Gt / lam
            out["Q4"] = (out["Q1"] * out["Q2"] * D * G**5 * Gt**4
                         / (lam**2 * (lam**3 - (G * Gt) ** 3 * c)))
            branches.append(out["Q3"] + out["Q4"])
        if ledger.flavor.has_type_two:
            out["Qt1"] = B * D + Q0 * B * ct / (Bt * (ct - c))
            out["Qt2"] = 1 / C + Q0 * D * lam**2 * ct / (Bt * C**2 * (lam**2 * ct - b))
            out["Qt3"] = out["Qt1"] * D * G
            out["Qt4"] = (out["Qt1"] * out["Qt2"] * D * G**4 * Gt
                          / (lam**2 * (lam**2 * ct**2 - G**2 * Gt * c)))
            branches.append(out["Qt3"] + out["Qt4"])
        out["K2"] = out["K1"] * (max(branches) + out["Q"])
        return {name: float(value) for name, value in out.items()}


@pytest.mark.parametrize("flavor", ["II", "nonsingular", "I", "both"])
def test_aux_constants_with_rates_beyond_float_products(tmp_path, capsys, flavor):
    # Gamma^2 and lambda^2 overflow here, so the float form of
    # lambda^2*c_tilde^2 - Gamma^2*Gamma_tilde*c is inf - inf; the constants
    # themselves fit the double range
    args = ["--map", "linear", "--matrix", "1e155,0,0,1e150", "--x0", "1e-300", "--y0", "1e-300",
            "--k", "1", "--flavor", flavor]
    assert run(["aux-constants", *args, "--out-dir", tmp_path]) == 0
    written = json.loads((tmp_path / "aux_constants.json").read_text())
    orbit = compute_orbit(make_map("linear", m11=1e155, m22=1e150), np.array([1e-300, 1e-300]), 1)
    ledger = certificate.fit_constants(orbit, certificate.Flavor.parse(flavor), 1.05)
    expected = _mpmath_auxiliary_constants(ledger)
    assert {name for name, value in written.items() if value is not None} - {"branches"} == set(expected)
    for name, value in expected.items():
        assert written[name] == pytest.approx(value, rel=1e-12), name
    assert capsys.readouterr().err == ""


def test_foliate_with_huge_steps(tmp_path, capsys):
    # the raw step determinant 1e315 overflows; the field is still defined
    assert run(["foliate", "--map", "linear", "--matrix", "1e160,0,0,1e155", "--k", "1",
                "--rect=0,1,0,1", "--spacing", "0.5", "--length", "0.01", "--step", "0.001",
                "--out-dir", tmp_path]) == 0
    assert capsys.readouterr().out == "wrote 4 curves (0 seeds without frames)\n"
    rows = (tmp_path / "curves.csv").read_text().splitlines()[1:]
    assert len(rows) == 4 * 11


def test_foliate_command(tmp_path):
    code = run(["foliate", "--map", "henon", "--a", "1.4", "--b", "0.3",
                "--k", "1", "--rect=-0.5,0.5,-0.3,0.3", "--spacing", "0.25",
                "--field", "stable", "--length", "0.1", "--step", "0.002",
                "--out-dir", tmp_path])
    assert code == 0
    assert (tmp_path / "curves.csv").read_text().startswith("curve_id,s,x,y")
    svg = (tmp_path / "curves.svg").read_text()
    assert svg.startswith("<svg") and "<polyline" in svg


def test_oracle_check_command(tmp_path):
    code = run(["oracle-check", "--seed", "7", "--trials", "50", "--grid-n", "20001",
                "--out-dir", tmp_path])
    assert code == 0
    payload = json.loads((tmp_path / "oracle_check.json").read_text())
    assert payload["violations"] == 0


def _random_test_matrix(rng):
    """One-at-a-time reference of ``cli._random_test_matrices``: uniform draws
    from [-2, 2] until one has co-eccentricity < 0.9 and co-norm >= 0.05."""
    while True:
        m = rng.uniform(-2.0, 2.0, size=(2, 2))
        s = cli.linalg2.svd2_matrix(m)
        if s.smin >= 0.05 and s.smin / s.smax < 0.9:
            return m


@pytest.mark.parametrize("seeds, trials", [(range(40), 1), (range(40), 100), ([0], 70000)],
                         ids=["pool-trials-1", "pool-trials-100", "two-bulk-draws"])
def test_oracle_check_draws_the_matrices_of_one_at_a_time_draws(seeds, trials):
    # seeds 0..39 are the oracle-1e6 benchmark pool
    for seed in seeds:
        rng = np.random.default_rng(seed)
        expected = np.array([_random_test_matrix(rng) for _ in range(trials)])
        got = cli._random_test_matrices(np.random.default_rng(seed), trials)
        assert got.shape == (trials, 2, 2) and got.tobytes() == expected.tobytes()


def _line_angle_distance(t1, t2):
    """``linalg2.line_angle_distance`` of two floats, in math's arithmetic."""
    d = math.fmod(t1 - t2, math.pi)
    if d < 0.0:
        d += math.pi
    return min(d, math.pi - d)


def _per_trial_checks(stack, s, theta_svd, oracle, grid_n):
    """Reference of ``cli._trial_checks``: the scalar loop over the trials,
    through ``angle_theta`` and a line angle distance in floats, as lists."""
    angle_tol = math.pi / grid_n
    delta_sq = (math.pi / (2.0 * grid_n)) ** 2
    checks = []
    for ((a, b), (c, d)), theta, smax, smin, theta_max, norm_max, norm_min in zip(
            stack.tolist(), theta_svd.tolist(), s.smax, s.smin, oracle.theta_max.tolist(),
            oracle.norm_max.tolist(), oracle.norm_min.tolist()):
        angles = cli.hypframe.angle_theta(a, c, b, d)
        d1 = _line_angle_distance(theta, angles.theta_expand)
        d2 = _line_angle_distance(theta, theta_max)
        n1 = abs(norm_max - smax) / smax
        n2 = abs(norm_min - smin) / smin
        tol_max = max(1e-8, 2.0 * delta_sq)
        tol_min = max(1e-8, 2.0 * delta_sq * (smax / smin) ** 2)
        checks.append((d1 > 1e-9 or d2 > angle_tol + 1e-9 or n1 > tol_max or n2 > tol_min, d1, d2, n1, n2))
    return [list(column) for column in zip(*checks)]


@pytest.mark.parametrize("grid_n", [4, 7, 64, 1000])
def test_trial_checks_of_a_stack_equal_the_per_trial_loop(grid_n):
    # 10^4 draws in stacks of 4,096, as oracle-check makes them, then the
    # same stacks against an oracle whose angles and norms are shifted, so
    # that some trials fail each check; every value is compared bit for bit
    ms = cli._random_test_matrices(np.random.default_rng(grid_n), 10**4)
    rng = np.random.default_rng(0)
    failed = 0
    for stack, s, theta_svd, oracle in cli._oracle_stacks(ms, grid_n):
        shifted = dataclasses.replace(
            oracle, theta_max=oracle.theta_max + rng.choice([0.0, 1e-9, 1.0, -2.0], len(stack)) * math.pi / grid_n,
            norm_max=oracle.norm_max * (1.0 + rng.choice([0.0, 1e-8, 1e-3, 1.0], len(stack))),
            norm_min=oracle.norm_min * (1.0 - rng.choice([0.0, 1e-8, 1e-3, 0.5], len(stack))))
        for checked in (oracle, shifted):
            got = cli._trial_checks(stack, s, theta_svd, checked, grid_n)
            expected = _per_trial_checks(stack, s, theta_svd, checked, grid_n)
            assert [v.tolist() for v in got] == expected
            assert all(float(x).hex() == float(y).hex() for v, e in zip(got[1:], expected[1:]) for x, y in zip(v, e))
            failed += int(got[0].sum())
    assert failed > 0


def test_trial_checks_raise_for_the_first_conformal_trial(monkeypatch):
    # trials 3 and 7 are conformal: every direction is critical
    stack = cli._random_test_matrices(np.random.default_rng(5), 10)
    stack[3] = [[0.0, -2.0], [2.0, 0.0]]
    stack[7] = np.eye(2)
    s = cli.linalg2.svd2_closed(stack[:, 0, 0], stack[:, 0, 1], stack[:, 1, 0], stack[:, 1, 1])
    inputs = (stack, s, np.zeros(10), cli.hypframe.oracle_extremal_directions(stack, 100), 100)
    calls = []
    angle_theta = cli.hypframe.angle_theta
    monkeypatch.setattr(cli.hypframe, "angle_theta", lambda *args: calls.append(args) or angle_theta(*args))
    for checks in (cli._trial_checks, _per_trial_checks):
        calls.clear()
        with pytest.raises(cli.hypframe.ConformalDegenerate, match="^conformal derivative"):
            checks(*inputs)
        assert calls[-1] == (0.0, 2.0, -2.0, 0.0)


def test_scan_constants_command(tmp_path):
    code = run(["scan-constants", "--flavor", "II",
                "--lambda-values", "1.5", "--gamma-values", "1.5,2.0",
                "--c-values", "0.1,1.0", "--b-values", "1.0",
                "--out-dir", tmp_path])
    assert code == 0
    lines = (tmp_path / "scan.csv").read_text().splitlines()
    assert len(lines) == 5
    cells = [line.split(",") for line in lines[1:]]
    # c = 1 cells are never feasible
    for cell in cells:
        if cell[2] == "1":
            assert cell[6] == "0"


def test_scan_csv_quotes_a_cell_that_holds_a_comma(tmp_path):
    assert run(["scan-constants", "--flavor", "I", "--lambda-values", "1.5,3", "--gamma-values", "2",
                "--out-dir", tmp_path]) == 0
    with open(tmp_path / "scan.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    cells = certificate.feasibility_region_scan(certificate.Flavor.SINGULAR_I, [1.5, 3.0], [2.0], [0.1], [1.0])
    assert [cell.violated for cell in cells] == ["", "Gamma > max(lambda, 1)"]
    assert len(rows) == 3 and all(len(row) == 8 for row in rows)
    assert [row[-1] for row in rows[1:]] == [cell.violated for cell in cells]


def test_scan_constants_keeps_zero_and_negative_values_as_infeasible_cells(tmp_path):
    assert run(["scan-constants", "--lambda-values", "0,-1.5", "--out-dir", tmp_path]) == 0
    cells = [line.split(",") for line in (tmp_path / "scan.csv").read_text().splitlines()[1:]]
    assert [(cell[0], cell[6]) for cell in cells] == [("0", "0"), ("-1.5", "0")]


@pytest.mark.parametrize(
    "flag, values",
    [("--lambda-values", "nan,1.5"), ("--gamma-values", "1.5,inf"), ("--c-values", "-inf"),
     ("--b-values", "1,nan"), ("--gamma-tilde-values", "inf"), ("--c-tilde-values", "1,-inf")],
)
def test_scan_constants_rejects_non_finite_values(tmp_path, capsys, flag, values):
    out = tmp_path / "out"
    assert run(["scan-constants", f"{flag}={values}", "--out-dir", out]) == 2
    assert _one_line_error(capsys) == f"usage error: {flag} entries must be finite"
    assert not out.exists()


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "map = henon\na = 1.4\nb = 0.3\nx0 = 0.0\ny0 = 0.0\nk = 4\n"
        f"out_dir = {tmp_path}\n"
    )
    assert run(["orbit", "--config", cfg]) == 0
    lines = (tmp_path / "orbit.csv").read_text().splitlines()
    assert len(lines) == 6

    # flags override the file
    assert run(["orbit", "--config", cfg, "--k", "2"]) == 0
    lines = (tmp_path / "orbit.csv").read_text().splitlines()
    assert len(lines) == 4

    capsys.readouterr()

    # a key whose flag has a default: the file beats the default, a flag the file
    def foliate(*argv):
        assert run(["foliate", "--map", "henon", "--length", "0.02", "--step", "0.002", *argv,
                    "--out-dir", tmp_path / "foliate"]) == 0
        return capsys.readouterr().out

    cfg.write_text("spacing = 0.5\n")
    assert foliate() == "wrote 64 curves (0 seeds without frames)\n"
    assert foliate("--config", cfg) == "wrote 16 curves (0 seeds without frames)\n"
    assert foliate("--config", cfg, "--spacing", "1") == "wrote 4 curves (0 seeds without frames)\n"

    def oracle_trials(*argv):
        out = tmp_path / "oracle"
        assert run(["oracle-check", "--grid-n", "100", *argv, "--out-dir", out]) == 0
        return json.loads((out / "oracle_check.json").read_text())["trials"]

    cfg.write_text("trials = 3\n")
    assert oracle_trials() == 1000
    assert oracle_trials("--config", cfg) == 3
    assert oracle_trials("--config", cfg, "--trials", "2") == 2

    def ledger(*argv):
        out = tmp_path / "certify"
        assert run(["certify", *HENON_ARGS, "--k", "8", *argv, "--out-dir", out]) == 0
        return (out / "ledger.txt").read_text()

    cfg.write_text("flavor = nonsingular\neta = 1.2\n")
    defaults = ledger()  # flavor II, eta 1.05
    assert defaults.startswith("flavor = II\n")
    assert ledger("--config", cfg) == ledger("--flavor", "nonsingular", "--eta", "1.2") != defaults
    assert ledger("--config", cfg, "--eta", "1.05") == ledger("--flavor", "nonsingular")
    assert ledger("--config", cfg, "--flavor", "II") == ledger("--eta", "1.2") != defaults
    assert ledger("--config", cfg, "--flavor", "II", "--eta", "1.05") == defaults


@pytest.mark.parametrize(
    "text, flags, error",
    [("x0 = abc\n", ["--k", "abc"], "x0: could not convert string to float: 'abc'"),
     ("x0 = abc\n", ["--k", "0"], "x0: could not convert string to float: 'abc'"),
     ("k = 0\n", ["--x0", "abc"], "k must be >= 1"),
     ("k = 0\n", ["--x0", "nan"], "k must be >= 1"),
     ("guard = -1\n", ["--guard", "x"], "guard must be finite and >= 0, got -1.0")],
    ids=["unparsable-flag", "out-of-range-flag", "range-file-unparsable-flag", "range-file-range-flag",
         "same-key"],
)
@pytest.mark.parametrize("config_first", [True, False], ids=["config-first", "config-last"])
def test_config_file_errors_come_before_command_line_errors(tmp_path, capsys, text, flags, error,
                                                            config_first):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("map = henon\nx0 = 0\ny0 = 0\nk = 3\n" + text)
    out = tmp_path / "out"
    argv = ["--config", cfg, *flags] if config_first else [*flags, "--config", cfg]
    assert run(["orbit", *argv, "--out-dir", out]) == 2
    assert _one_line_error(capsys) == f"usage error: {error}"
    assert not out.exists()


# Texts that some flag's type refuses, and the map whose parameter a map flag sets in a file
_REFUSED_TEXTS = ("abc", "nan", "-inf", "-1", "0", "3", "1,2", "1e309")
_MAP_OF_PARAMETER = {"a": "henon", "b": "henon", "K": "standard"}


def test_every_flag_refuses_text_alike_from_the_command_line_and_the_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "out"
    refusing = set()
    for command, parser in cli._subcommands(cli.build_parser()).items():
        for action in parser._actions:
            if not action.option_strings or action.type is None:
                continue
            flag, dest = action.option_strings[0], action.dest
            for text in _REFUSED_TEXTS:
                try:
                    action.type(text)
                    continue
                except ConfigError as exc:
                    line = f"usage error: {exc}"
                refusing.add((command, flag))
                assert line.startswith(f"usage error: {dest}") or flag in line, line
                assert run([command, f"{flag}={text}", "--out-dir", out]) == 2
                assert _one_line_error(capsys) == line
                if dest in cli._CONFIG_KEYS or dest in _MAP_OF_PARAMETER:
                    map_line = f"map = {_MAP_OF_PARAMETER[dest]}\n" if dest in _MAP_OF_PARAMETER else ""
                    cfg.write_text(f"{map_line}{dest} = {text}\n")
                    assert run([command, "--config", cfg, "--out-dir", out]) == 2
                    assert _one_line_error(capsys) == line
    assert not out.exists()
    flags = [(command, action) for command, parser in cli._subcommands(cli.build_parser()).items()
             for action in parser._actions if action.option_strings and action.nargs != 0]
    # every flag that takes a value converts it, but those of a path or a map name;
    # and each refuses some of these texts
    assert {action.dest for _, action in flags if action.type is None} == {"config", "out_dir", "map", "ledger"}
    assert refusing == {(command, action.option_strings[0]) for command, action in flags if action.type}


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("map = henon\nnonsense = 1\n")
    assert run(["orbit", "--config", cfg]) == 2
    assert "unknown keys" in capsys.readouterr().err


def test_missing_required_arguments_usage_error(tmp_path, capsys):
    assert run(["orbit", "--map", "henon", "--out-dir", tmp_path]) == 2


def test_determinism_byte_identical(tmp_path):
    d1 = tmp_path / "run1"
    d2 = tmp_path / "run2"
    for d in (d1, d2):
        assert run(["certify", *HENON_ARGS, "--k", "10", "--flavor", "II",
                    "--out-dir", d]) == 0
        assert run(["oracle-check", "--seed", "3", "--trials", "20",
                    "--grid-n", "10001", "--out-dir", d]) == 0
        assert run(["verify-convergence", *HENON_ARGS, "--k", "8", "--flavor", "II",
                    "--out-dir", d]) == 0
    names = [
        "ledger.txt",
        "certificate.csv",
        "certificate.json",
        "oracle_check.json",
        "apriori_convergence.csv",
        "apriori_convergence.json",
        "explicit_convergence.csv",
        "explicit_convergence.json",
    ]
    match, mismatch, errors = filecmp.cmpfiles(d1, d2, names, shallow=False)
    assert mismatch == [] and errors == []
    assert set(match) == set(names)


def test_param_flag_selects_lorenz_coefficients(tmp_path):
    code = run(["orbit", "--map", "lorenz2d", "--param", "alpha=0.6",
                "--param", "a1=1.1", "--x0", "0.8", "--y0", "0.1", "--k", "2",
                "--out-dir", tmp_path])
    assert code == 0
    lines = (tmp_path / "orbit.csv").read_text().splitlines()
    assert len(lines) == 4


def test_singular_orbit_reports_error(tmp_path, capsys):
    # the first image of this point lands on the singular line
    x0 = (1.0 / 1.2) ** 2.0
    code = run(["orbit", "--map", "lorenz2d", "--x0", x0, "--y0", "0",
                "--k", "3", "--out-dir", tmp_path])
    assert code == 1
    assert "singular" in capsys.readouterr().err


def test_certify_nonsingular_flavor_on_linear_map(tmp_path):
    code = run(["certify", "--map", "linear", "--matrix", "2,0,0,0.5",
                "--x0", "1", "--y0", "1", "--k", "10", "--flavor", "nonsingular",
                "--out-dir", tmp_path])
    assert code == 0
    text = (tmp_path / "ledger.txt").read_text()
    assert "flavor = nonsingular" in text
    assert "c_tilde = 1.0" in text and "Gamma_tilde = 1.0" in text


def _one_line_error(capsys):
    err = capsys.readouterr().err.strip()
    assert err and "\n" not in err and "Traceback" not in err
    return err


@pytest.mark.parametrize(
    "flag, value",
    [("--spacing", "0"), ("--spacing", "nan"), ("--step", "-0.1"), ("--step", "inf"),
     ("--length", "nan"), ("--step", "0.5"), ("--rect", "0,nan,0,1"), ("--k", "0"),
     ("--guard", "nan"), ("--guard", "-1")],
)
def test_foliate_rejects_bad_lengths(tmp_path, capsys, flag, value):
    code = run(["foliate", "--map", "henon", "--k", "1", "--spacing", "1", "--length", "0.2",
                flag, value, "--out-dir", tmp_path])
    assert code == 2
    assert flag[2:] in _one_line_error(capsys)
    assert not (tmp_path / "curves.csv").exists()


@pytest.mark.parametrize(
    "map_args, word",
    [(["--map", "linear", "--matrix", "1,nan,0,1"], "m12"),
     (["--map", "standard", "--K", "nan"], "K"),
     (["--map", "lorenz2d", "--param", "alpha=1.5"], "alpha")],
)
def test_bad_map_parameters_are_usage_errors(tmp_path, capsys, map_args, word):
    code = run(["orbit", *map_args, "--x0", "0.8", "--y0", "0.1", "--k", "3",
                "--out-dir", tmp_path])
    assert code == 2
    assert word in _one_line_error(capsys)
    assert not (tmp_path / "orbit.csv").exists()


@pytest.mark.parametrize("x0", ["nan", "inf", "-inf"])
def test_frames_rejects_non_finite_start(tmp_path, capsys, x0):
    code = run(["frames", "--map", "standard", f"--x0={x0}", "--y0", "0.1", "--k", "3",
                "--out-dir", tmp_path])
    assert code == 2
    assert "finite" in _one_line_error(capsys)
    assert not (tmp_path / "frames.csv").exists()


@pytest.mark.parametrize("matrix", ["0,0,0,0", "0,1,0,0"])
def test_orbit_zero_matrix_is_typed_error(tmp_path, capsys, matrix):
    code = run(["orbit", "--map", "linear", "--matrix", matrix, "--x0", "1", "--y0", "1",
                "--k", "3", "--out-dir", tmp_path])
    assert code == 1
    assert "zero matrix" in _one_line_error(capsys)


XY = ["--x0", "0.8", "--y0", "0.1", "--k", "3"]


@pytest.mark.parametrize(
    "argv, key",
    [(["orbit", "--map", "linear", "--matrix", "1,x,0,1", *XY], "matrix"),
     (["orbit", "--map", "henon", "--param", "a=x", *XY], "a"),
     (["foliate", "--map", "henon", "--rect=0,x,0,1"], "rect"),
     (["scan-constants", "--lambda-values", "1,x"], "lambda_values"),
     (["certify", "--map", "henon", *XY, "--flavor", "zz"], "flavor")],
)
def test_unparsable_values_are_usage_errors(tmp_path, capsys, argv, key):
    assert run([*argv, "--out-dir", tmp_path]) == 2
    assert _one_line_error(capsys).startswith(f"usage error: {key}: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command, text, key",
    [("orbit", "map = henon\nx0 = abc\ny0 = 0\nk = 3\n", "x0"),
     ("orbit", "map = henon\nx0 = 0\ny0 = 0\nk = three\n", "k"),
     ("orbit", "map = henon\na = x\nx0 = 0\ny0 = 0\nk = 3\n", "a"),
     ("foliate", "map = henon\nfield = sideways\n", "field"),
     # the file is read as a whole: a bad value is refused even where a flag overrides it
     ("orbit --k 3", "map = henon\nx0 = 0\ny0 = 0\nk = three\n", "k: ")],
)
def test_unparsable_config_values_are_usage_errors(tmp_path, capsys, command, text, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert run([*command.split(), "--config", cfg, "--out-dir", out]) == 2
    assert _one_line_error(capsys).startswith(f"usage error: {key}")
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize(
    "edit, key",
    [(lambda text: text.replace("flavor = II\n", ""), "no flavor line"),
     (lambda text: re.sub(r"^Gamma = .*$", "Gamma = x", text, flags=re.M), "Gamma: "),
     (lambda text: text.replace("flavor = II", "flavor = zz"), "flavor: "),
     (lambda text: re.sub(r"^lambda = .*\n", "", text, flags=re.M), "missing keys ['lambda']"),
     (lambda text: text + "foo = 1.0\n", "unknown keys ['foo']"),
     (lambda text: text.replace("lambda = ", "lam = "), "unknown keys ['lam']")],
)
def test_malformed_ledger_is_usage_error(tmp_path, capsys, edit, key):
    fitted = tmp_path / "fitted"
    assert run(["certify", *HENON_ARGS, "--k", "8", "--out-dir", fitted]) == 0
    ledger = tmp_path / "ledger.txt"
    ledger.write_text(edit((fitted / "ledger.txt").read_text()))
    capsys.readouterr()
    out = tmp_path / "out"
    assert run(["certify", *HENON_ARGS, "--k", "8", "--ledger", ledger, "--out-dir", out]) == 2
    assert key in _one_line_error(capsys)


def test_config_and_ledger_lines_without_equals_name_their_line(tmp_path, capsys):
    fitted = tmp_path / "fitted"
    assert run(["certify", *HENON_ARGS, "--k", "8", "--out-dir", fitted]) == 0
    lines = (fitted / "ledger.txt").read_text().splitlines(keepends=True)
    n = next(j for j, line in enumerate(lines) if line.startswith("lambda = "))
    lines[n] = lines[n].replace("=", "", 1)
    ledger = tmp_path / "ledger.txt"
    ledger.write_text("".join(lines))
    config = tmp_path / "run.cfg"
    config.write_text("# a comment\n\nmap = henon\nk 3\n")
    capsys.readouterr()
    out = tmp_path / "out"
    assert run(["certify", *HENON_ARGS, "--k", "8", "--ledger", ledger, "--out-dir", out]) == 2
    assert _one_line_error(capsys) == f"usage error: {ledger}:{n + 1}: expected 'key = value'"
    assert run(["orbit", "--config", config, "--out-dir", out]) == 2
    assert _one_line_error(capsys) == f"usage error: {config}:4: expected 'key = value'"
    assert not out.exists()


@pytest.mark.parametrize("flag", [["--map", "nonsense"], ["--param", "a=1"], ["--a", "1"],
                                  ["--b", "1"], ["--K", "1"], ["--matrix", "1,0,0,1"]])
@pytest.mark.parametrize("command", [["oracle-check", "--trials", "5", "--grid-n", "1000"],
                                     ["scan-constants"]])
def test_map_flags_are_usage_errors_where_no_map_is_built(tmp_path, capsys, command, flag):
    out = tmp_path / "out"
    assert run([*command, *flag, "--out-dir", out]) == 2
    assert _one_line_error(capsys) == f"usage error: unrecognized arguments: {' '.join(flag)}"
    assert not out.exists()


@pytest.mark.parametrize("command, own", [
    (["oracle-check", "--trials", "2", "--grid-n", "100"], "seed = 3\ntrials = 2\n"),
    (["scan-constants"], "flavor = II\n"),
], ids=["oracle-check", "scan-constants"])
def test_config_keys_of_other_commands_are_usage_errors(tmp_path, capsys, command, own):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(own + "map = nonsense\nmatrix = 1,2\nx0 = 5\n")
    out = tmp_path / "out"
    assert run([*command, "--config", cfg, "--out-dir", out]) == 2
    assert _one_line_error(capsys) == f"usage error: {cfg}: unknown keys ['map', 'matrix', 'x0']"
    assert not out.exists()
    # the keys of the command's own flags are read
    cfg.write_text(own)
    assert run([*command, "--config", cfg, "--out-dir", out]) == 0
    assert list(out.iterdir())


def test_step_below_closed_form_resolution_verifies_and_certifies(tmp_path, capsys):
    # the closed-form co-norm of diag(1e9, 1e-9) cancels to 0; |det| / norm is 1e-9
    args = ["--map", "linear", "--matrix", "1e9,0,0,1e-9", "--x0", "0", "--y0", "0.2",
            "--k", "5", "--flavor", "II"]
    assert run(["verify-convergence", *args, "--out-dir", tmp_path / "v"]) == 0
    assert run(["certify", *args, "--out-dir", tmp_path / "c"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert captured.err == "" and len(lines) == 4
    assert lines[0] == "convergence bounds pass over all pairs up to k=5"
    assert lines[3] == "certificate passes for k <= 5 (flavor II)"


@pytest.mark.parametrize(
    "argv, key",
    [(["verify-variation", *HENON_ARGS, "--k", "4", "--eta", "inf"], "eta"),
     (["verify-variation", *HENON_ARGS, "--k", "4", "--guard", "-1"], "guard"),
     (["certify", *HENON_ARGS, "--k", "4", "--eta", "1.0"], "eta"),
     (["orbit", *HENON_ARGS, "--k", "4", "--guard", "nan"], "guard"),
     (["oracle-check", "--grid-n", "2"], "grid_n"),
     (["oracle-check", "--seed", "-1"], "seed"),
     (["oracle-check", "--trials", "0"], "trials"),
     (["oracle-check", "--trials", "-1"], "trials")],
)
def test_degenerate_numeric_arguments_are_usage_errors(tmp_path, capsys, argv, key):
    assert run([*argv, "--out-dir", tmp_path]) == 2
    assert _one_line_error(capsys).startswith(f"usage error: {key} must be")
    assert list(tmp_path.iterdir()) == []


# Degenerate values for numeric flags: NaN, infinities, zero, negatives, the
# extreme magnitudes and text that is not a number.
DEGENERATE_VALUES = st.one_of(
    st.sampled_from(["nan", "-nan", "inf", "-inf", "0", "-0", "0.0", "-1", "-7", "1e308",
                     "-1e308", "1e-300", "5e-324", "abc", "", "1,2", "0x10"]),
    st.floats(max_value=-5e-324, allow_nan=False, allow_infinity=False).map(repr),
)

FOLIATE_ARGS = ["--map", "henon", "--k", "1", "--rect=-0.3,0.3,-0.3,0.3", "--spacing", "0.3",
                "--length", "0.02", "--step", "0.005"]
STANDARD_ARGS = ["--map", "standard", "--K", "6", "--x0", "0.3", "--y0", "0.7"]
STANDARD_FOLIATE_ARGS = ["--map", "standard", "--K", "6", "--k", "2", "--rect=-0.3,0.3,-0.3,0.3",
                         "--spacing", "0.3", "--length", "0.02", "--step", "0.005"]
ORBIT_FLAGS = ["--x0", "--y0", "--k", "--guard"]
FOLIATE_FLAGS = ["--k", "--guard", "--spacing", "--length", "--step"]
FUZZ_COMMANDS = {
    "orbit": (["orbit", *HENON_ARGS, "--k", "3"], ORBIT_FLAGS),
    "frames": (["frames", *HENON_ARGS, "--k", "3"], ORBIT_FLAGS),
    "orbit-standard": (["orbit", *STANDARD_ARGS, "--k", "3"], ORBIT_FLAGS),
    "frames-standard": (["frames", *STANDARD_ARGS, "--k", "3"], ORBIT_FLAGS),
    "foliate-standard": (["foliate", *STANDARD_FOLIATE_ARGS], FOLIATE_FLAGS),
    "verify-convergence": (["verify-convergence", *HENON_ARGS, "--k", "4", "--flavor", "II"],
                           [*ORBIT_FLAGS, "--eta"]),
    "verify-variation": (["verify-variation", *HENON_ARGS, "--k", "3", "--flavor", "II"],
                         [*ORBIT_FLAGS, "--eta"]),
    "foliate": (["foliate", *FOLIATE_ARGS], FOLIATE_FLAGS),
    "oracle-check": (["oracle-check", "--trials", "5", "--grid-n", "1000"], ["--trials", "--grid-n"]),
}
_CSV_NAN = re.compile(r"(?:^|,)nan(?:,|$)", re.MULTILINE)


@st.composite
def degenerate_command_lines(draw):
    base, flags = FUZZ_COMMANDS[draw(st.sampled_from(sorted(FUZZ_COMMANDS)))]
    chosen = draw(st.dictionaries(st.sampled_from(flags), DEGENERATE_VALUES, min_size=1))
    # a later flag overrides the base value; "=" keeps "-inf" from reading as an option
    return base + [f"{flag}={value}" for flag, value in sorted(chosen.items())]


def cli_contract_violations(argv):
    """Ways in which one CLI call breaks the exit-code and output contract."""
    with tempfile.TemporaryDirectory() as out:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*argv, "--out-dir", out])
        problems = []
        if code not in (0, 1, 2):
            problems.append(f"exit {code}")
        lines = err.getvalue().splitlines()
        if code == 2 and len(lines) != 1:
            problems.append(f"usage error on {len(lines)} stderr lines")
        if "Traceback" in err.getvalue():
            problems.append("traceback")
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), encoding="utf-8") as fh:
                text = fh.read()
            if (name.endswith(".csv") and _CSV_NAN.search(text)) or (
                name.endswith(".json") and re.search(r"\bNaN\b", text)
            ):
                problems.append(f"NaN in {name}")
        return problems


@settings(max_examples=200, deadline=None)
@given(degenerate_command_lines())
@example(["foliate", *FOLIATE_ARGS, "--length=1e308"])
@example(["foliate", *FOLIATE_ARGS, "--step=5e-324"])
@example(["foliate", *FOLIATE_ARGS, "--spacing=1e-300"])
@example(["foliate", *FOLIATE_ARGS, "--length=1e-300", "--step=1e-300"])
@example(["orbit", "--map", "standard", "--K", "6", "--x0", "1e308", "--y0", "1e308", "--k", "3"])
@example(["frames", "--map", "standard", "--K", "6", "--x0", "1e308", "--y0", "1e308", "--k", "3"])
@example(["orbit", "--map", "lorenz2d", "--x0", "1e-238", "--y0", "0", "--k", "1", "--guard", "0"])
@example(["foliate", "--map", "standard", "--K", "6", "--rect=1e308,1.7e308,1e308,1.7e308",
          "--spacing", "1e307"])
def test_degenerate_numeric_flags_keep_the_cli_contract(argv):
    assert cli_contract_violations(argv) == []


@pytest.mark.parametrize(
    "argv",
    [["orbit", "--config", "{missing}"],
     ["orbit", "--config", "{directory}"],
     ["certify", *HENON_ARGS, "--k", "4", "--ledger", "{missing}"],
     ["aux-constants", "--ledger", "{missing}"]],
)
def test_unreadable_config_or_ledger_is_usage_error(tmp_path, capsys, argv):
    paths = {"missing": tmp_path / "no" / "such.cfg", "directory": tmp_path}
    argv = [a.format(**paths) for a in argv]
    out = tmp_path / "out"
    assert run([*argv, "--out-dir", out]) == 2
    err = _one_line_error(capsys)
    assert err.startswith("usage error: cannot read ") and any(str(p) in err for p in paths.values())
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, key",
    [(["certify", *HENON_ARGS, "--k", "4", "--eta", "1.0"], "eta"),
     (["aux-constants", *HENON_ARGS, "--k", "4", "--flavor", "zz"], "flavor"),
     (["verify-convergence", *HENON_ARGS, "--k", "4", "--eta", "nan"], "eta"),
     (["verify-variation", *HENON_ARGS, "--k", "4", "--eta", "1.0"], "eta"),
     (["foliate", "--map", "henon", "--step", "-1"], "step"),
     (["foliate", "--map", "henon", "--rect=0,1,0,1", "--spacing", "5"], "--rect holds no seed"),
     (["oracle-check", "--trials", "0"], "trials"),
     (["scan-constants", "--c-values", "1,x"], "c_values")],
)
def test_usage_errors_leave_no_output_directory(tmp_path, capsys, argv, key):
    out = tmp_path / "out"
    assert run([*argv, "--out-dir", out]) == 2
    assert key in _one_line_error(capsys)
    assert not out.exists()


_ORDER_COMMANDS = [
    ["orbit", *HENON_ARGS], ["frames", *HENON_ARGS], ["certify", *HENON_ARGS],
    ["aux-constants", *HENON_ARGS], ["verify-convergence", *HENON_ARGS],
    ["verify-variation", *HENON_ARGS], ["foliate", *FOLIATE_ARGS],
]


@pytest.mark.parametrize(
    "argv, key, cap",
    [*(([*command, "--k", str(cli.MAX_COUNT + 1)], "k", cli.MAX_COUNT) for command in _ORDER_COMMANDS),
     (["oracle-check", "--trials", "1", "--grid-n", str(cli.MAX_GRID_N + 1)], "grid_n", cli.MAX_GRID_N),
     # verify-convergence measures all K(K+1)/2 pairs at once: 1413 * 1414 / 2 <= MAX_COUNT
     (["verify-convergence", *HENON_ARGS, "--k", "1414"], "k", 1413),
     (["oracle-check", "--trials", str(cli.MAX_COUNT + 1), "--grid-n", "100"], "trials", cli.MAX_COUNT)],
)
def test_sizes_above_the_caps_are_usage_errors(tmp_path, capsys, monkeypatch, argv, key, cap):
    def unreachable(*args, **kwargs):
        raise AssertionError("sized work started")

    for owner, name in ((cli, "compute_orbit"), (cli.foliation, "foliation_grid"),
                        (cli.hypframe, "oracle_extremal_directions")):
        monkeypatch.setattr(owner, name, unreachable)
    out = tmp_path / "out"
    assert run([*argv, "--out-dir", out]) == 2
    assert _one_line_error(capsys) == f"usage error: {key} must be <= {cap}, got {cap + 1}"
    assert not out.exists()


def test_non_finite_orbit_is_a_typed_error(tmp_path, capsys):
    argv = ["orbit", "--map", "standard", "--K", "6", "--x0", "1e308", "--y0", "1e308", "--k", "3"]
    assert run([*argv, "--out-dir", tmp_path]) == 1
    assert _one_line_error(capsys) == "orbit point 1 left the domain"
    argv = ["orbit", "--map", "lorenz2d", "--x0", "1e-238", "--y0", "0", "--k", "1", "--guard", "0"]
    assert run([*argv, "--out-dir", tmp_path]) == 1
    assert _one_line_error(capsys) == "orbit point 0 has non-finite derivatives"
    # |x|^(beta - 1) overflows in the Jacobian: inf, without a numpy warning
    argv = ["orbit", "--map", "lorenz2d", "--param", "beta=-1", "--x0", "1e-290", "--y0", "0",
            "--k", "2", "--guard", "0"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([*argv, "--out-dir", tmp_path]) == 1
    assert _one_line_error(capsys) == "orbit point 0 has non-finite derivatives"
    assert run(["foliate", "--map", "standard", "--K", "6", "--rect=1e308,1.7e308,1e308,1.7e308",
                "--spacing", "1e307", "--out-dir", tmp_path]) == 0
    assert "wrote 0 curves (49 seeds without frames)" in capsys.readouterr().out
    # an empty int column still writes the header
    assert (tmp_path / "curves.csv").read_bytes() == b"curve_id,s,x,y\n"


def test_certify_step_determinant_beyond_double_range_is_named(tmp_path, capsys):
    # det = 1e315 overflows as a product of entries; its log comes from the
    # scaled step, so the fit names b instead of failing "b > 0" on inf
    argv = ["certify", "--map", "linear", "--matrix", "1e160,0,0,1e155",
            "--x0", "1e-300", "--y0", "1e-300", "--k", "1", "--flavor", "II"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([*argv, "--out-dir", tmp_path]) == 1
    found = re.fullmatch(r"b = exp\((.+)\) exceeds the double range", _one_line_error(capsys))
    assert found
    log_b = float(found.group(1))
    assert math.isfinite(log_b)
    assert log_b == pytest.approx(315.0 * math.log(10.0) + math.log(1.05), rel=1e-12)


def _reference_status(row, tol):
    if not row.passed:
        return "fail"
    # lhs > rhs * (1 + tol) is what the allowance alone can carry; NaN never is
    return "pass_within_rounding" if row.lhs > row.rhs * (1.0 + tol) else "pass"


def _reference_summary(rows, tol):
    """The per-check summary of ``rows``, recomputed from the whole list."""
    checks = {}
    for check in {r.check for r in rows}:
        mine = [r for r in rows if r.check == check]
        failures = [r for r in mine if not r.passed]
        # the first row of least finite margin / |rhs|; rhs = 0 gives none
        relative = [(r.margin / abs(r.rhs), n) for n, r in enumerate(mine) if r.rhs != 0]
        finite = [(value, n) for value, n in relative if math.isfinite(value)]
        least = min(finite, default=None)
        checks[check] = {
            "rows": len(mine),
            "failed": len(failures),
            "failures": [
                {"check": r.check, "index": list(r.index), "lhs": r.lhs, "rhs": r.rhs, "margin": r.margin,
                 "passed": r.passed}
                for r in failures
            ],
            "pass_within_rounding": sum(_reference_status(r, tol) == "pass_within_rounding" for r in mine),
            "least_relative_margin": (
                None if least is None else {"index": list(mine[least[1]].index), "value": least[0]}
            ),
        }
    return checks


def _quoted(text):
    """``text`` as a CSV cell: in double quotes, its own doubled, where it
    holds a comma, a double quote or a line break (RFC 4180)."""
    return '"' + text.replace('"', '""') + '"' if re.search('[,"\r\n]', text) else text


def _reference_bound_report(report, out_dir, stem):
    """The bound-report writer without a memo or a running tally: fmt rows
    with the check name quoted, a status per row, and json.dump of a summary
    recomputed from the rows; numpy-scalar overflow to inf or NaN is a valid
    status input, not a warning."""
    with open(os.path.join(out_dir, stem + ".csv"), "w", encoding="utf-8", newline="\n") as fh, \
            np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        fh.write("check,index,lhs,rhs,margin,passed,status\n")
        for r in report.rows:
            row = [_quoted(r.check), ":".join(str(i) for i in r.index), r.lhs, r.rhs, r.margin, r.passed,
                   _reference_status(r, report.tol)]
            fh.write(",".join(fmt(v) for v in row) + "\n")
        checks = _reference_summary(report.rows, report.tol)
    payload = {"name": report.name, "tol": report.tol, "verdict": report.verdict,
               "context": report.context, "checks": checks}
    with open(os.path.join(out_dir, stem + ".json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _written_bytes(writer, report):
    with tempfile.TemporaryDirectory() as out:
        writer(report, out, "report")
        return [pathlib.Path(out, "report" + ext).read_bytes() for ext in (".csv", ".json")]


# Exact 17th-digit ties: k / 2^(q + 1) for odd k scales by 10^q to a
# half-integer with 17 digits before the point (k / 4 for k in [4e15, 9e15])
TIES = st.sampled_from([1, 2, 3, 8]).flatmap(lambda q: st.integers(
    2 * 10**15 // 5 ** (q - 1), min(2 * 10**16 // 5 ** (q - 1), 2**52) - 1).map(
        lambda j: (2 * j + 1) / 2 ** (q + 1)))
# Every power of ten that is not below the double range, and its two float neighbours
POWERS_OF_TEN = st.tuples(st.integers(-323, 308), st.sampled_from([None, 0.0, math.inf])).map(
    lambda e_toward: float(f"1e{e_toward[0]}") if e_toward[1] is None
    else math.nextafter(float(f"1e{e_toward[0]}"), e_toward[1]))
REPORT_NUMBERS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072e-308, math.nan, math.inf, -math.inf]),
    st.floats().map(np.float64),
    st.integers(-10**15, 10**15),
    TIES,
    POWERS_OF_TEN,
)
CHECK_NAMES = st.one_of(
    st.sampled_from(['say "when"', "back\\slash", "\\\"", "naïve", "Hénon–Lozi", "\u2211\u03b4"]),
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6),
)


# An allowance of +inf passes a row and one of -inf fails it (unless its
# sides are NaN or infinite), so a drawn allowance sets most pass flags
ALLOWANCES = st.sampled_from([math.inf, -math.inf, 0.0])


def _table(draw, checks, indices, number, allowance):
    """Sides of a report over ``indices``: per check a list of one ``number``
    per index row for lhs and rhs, and of one ``allowance`` per row."""
    sides = [st.lists(values, min_size=len(indices), max_size=len(indices)) for values in (number, number, allowance)]
    return [[draw(side) for _ in checks] for side in sides]


@st.composite
def bound_reports(draw):
    checks = draw(st.lists(CHECK_NAMES, min_size=1, max_size=4, unique=True))
    width = draw(st.integers(1, 3))  # of every index row of the report
    indices = draw(st.lists(st.lists(st.integers(0, 10**8 - 1), min_size=width, max_size=width).map(tuple),
                            min_size=1, max_size=4))
    report = bounds.BoundReport(draw(CHECK_NAMES), draw(REPORT_NUMBERS), checks, indices,
                                *_table(draw, checks, indices, REPORT_NUMBERS, ALLOWANCES))
    report.context.update(draw(st.dictionaries(CHECK_NAMES, REPORT_NUMBERS, min_size=1, max_size=3)))
    return report


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(bound_reports())
@example(bounds.BoundReport("empty", 1e-9, [], np.zeros((0, 1), int), [], []))
@example(bounds.BoundReport("no_checks", 1e-9, [], [(0,)], [], []))
def test_bound_report_writer_matches_json_dump(report):
    assert _written_bytes(write_bound_report, report) == _written_bytes(_reference_bound_report, report)


# Values that compare equal but are spelled differently (0.0 and -0.0; 1,
# 1.0 and np.float64(1.0); 2**53 + 1 and float(2**53) in JSON), next to NaN,
# infinities and subnormals, so that a writer that formats each distinct
# number once would show a merge of two of them.  Sides are stored as
# float64, so the ints among them reach the files only through the tolerance
# and the context.
SHARED_NUMBERS = [
    0.0, -0.0, 1, 1.0, np.float64(1.0), np.float64(-0.0), 2**53 + 1, float(2**53), 2**53,
    math.nan, float("nan"), -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
    2.2250738585072e-308, 0.1, 0.1 + 2**-56, -(2**63),
]


@st.composite
def shared_value_reports(draw):
    number = st.sampled_from(SHARED_NUMBERS)
    # index rows of one width, each shared by many rows
    indices = draw(st.sampled_from([[(0,), (1,), (10,)], [(1, 2), (2, 1), (0, 0)], [(0, 0, 0), (9, 10, 0)]]))
    indices = draw(st.lists(st.sampled_from(indices), min_size=1, max_size=13))
    checks = draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3, unique=True))
    report = bounds.BoundReport("shared", draw(number), checks, indices, *_table(draw, checks, indices, number,
                                                                                  ALLOWANCES))
    report.context.update(draw(st.dictionaries(st.sampled_from("xyz"), number, min_size=1)))
    return report


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(shared_value_reports())
def test_bound_report_writer_keeps_equal_values_apart(report):
    assert _written_bytes(write_bound_report, report) == _written_bytes(_reference_bound_report, report)


# Signed zeros and NaNs of three bit patterns among a few other values, so
# that the rows of a table repeat them
BLOCK_NUMBERS = [
    0.0, -0.0, math.nan, -math.nan, np.frombuffer(np.uint64(0x7FF8000000000001).tobytes())[0].item(),
    1.0, -1.0, 0.1, math.inf, -math.inf, 5e-324,
]


@st.composite
def block_reports(draw):
    """Reports over an array of index pairs whose sides hold per check
    one value for every row or an array over the rows, and whose allowance
    is one value for the whole report, or per check."""
    number = st.sampled_from(BLOCK_NUMBERS)
    checks = tuple(draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True)))
    indices = draw(st.lists(st.tuples(st.integers(1, 9), st.integers(1, 9)), min_size=1, max_size=8))
    side = st.one_of(number, st.lists(number, min_size=len(indices), max_size=len(indices)).map(np.array))
    allowance = st.one_of(ALLOWANCES, st.lists(st.one_of(ALLOWANCES, side), min_size=len(checks),
                                               max_size=len(checks)))
    return bounds.BoundReport("blocks", draw(st.sampled_from([0.0, 1e-9, -0.5])), checks, np.array(indices),
                              [draw(side) for _ in checks], [draw(side) for _ in checks], draw(allowance))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(block_reports())
def test_bound_report_writer_spells_blocks_as_rows(report):
    assert _written_bytes(write_bound_report, report) == _written_bytes(_reference_bound_report, report)


def _percent_17g(values):
    return ["%.17g" % v for v in values]


def _strings(values):
    """The texts of ``report._spell`` of ``values``, as a list of str."""
    text = np.empty((len(values), report_module._TEXT_WIDTH + 1), np.uint8)
    text[:, :-1] = report_module._spell(np.asarray(values, dtype=np.float64))
    text[:, -1] = ord("\n")
    return text[text != 0].tobytes().decode().split("\n")[:-1]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(), TIES, POWERS_OF_TEN), max_size=50))
@example([])
def test_speller_is_percent_17g_on_any_floats(values):
    assert _strings(np.array(values, dtype=np.float64)) == _percent_17g(values)


def test_speller_is_percent_17g_on_a_million_random_bit_patterns():
    bits = np.random.default_rng(20261020).integers(0, 2**64 - 1, 10**6, dtype=np.uint64, endpoint=True)
    values = bits.view(np.float64)
    assert _strings(values) == _percent_17g(values.tolist())


def test_speller_is_percent_17g_at_powers_of_ten_notation_edges_ties_and_specials():
    tiny, huge = sys.float_info.min, sys.float_info.max
    powers = [float(f"1e{e}") for e in range(-323, 309)]
    edges = [1e-5, 1e-4, 1e16, 1e17, tiny, huge, 1.0, 0.1]
    values = [v for x in powers + edges for v in (x, math.nextafter(x, 0.0), math.nextafter(x, math.inf))]
    subnormals = [5e-324, 1e-320, math.nextafter(tiny, 0.0), tiny / 3, 2.0**-1070]
    specials = [0.0, math.inf, math.nan, -math.nan, *subnormals]
    ties = [k / 4 for k in range(4 * 10**15 + 1, 9 * 10**15, 10**11 + 2)]  # odd k
    ties += [k / 2 ** (q + 1) for q in range(2, 10)
             for k in range(4 * 10**15 // 5 ** (q - 1) + 1, min(4 * 10**16 // 5 ** (q - 1), 2**53), 10**11 + 2)]
    for t in ties[::50]:
        scaled = Fraction(t) * Fraction(10) ** (16 - math.floor(math.log10(t)))
        assert scaled.denominator == 2 and 10**16 <= scaled < 10**17
    values = np.array(values + specials + ties)
    values = np.concatenate((values, -values))
    assert _strings(values) == _percent_17g(values.tolist())


@pytest.mark.parametrize("k, fallback, distinct", [(80, 1, 21725), (440, 1104, 158537)])
def test_speller_hands_only_zeros_and_subnormals_of_the_fixture_report_to_python(
        henon, monkeypatch, tmp_path, k, fallback, distinct):
    """How many of the distinct numbers of the fixture's a-priori report
    Python spells: those that the numpy path leaves, all 0.0 or subnormal.
    Each of the columns lhs, rhs and margin is spelled once per distinct
    bit pattern in it."""
    given_to = {"_spell": [], "_python_spelled": []}
    for module, name in ((cli, "_spell"), (report_module, "_python_spelled")):
        monkeypatch.setattr(module, name, lambda v, fn=getattr(module, name), seen=given_to[name]:
                            seen.append(v) or fn(v))
    report = bounds.verify_apriori_all(compute_orbit(henon, HENON_FIXTURE, k))
    write_bound_report(report, tmp_path, "report")
    lhs, rhs = report.columns()[4:6]
    with np.errstate(all="ignore"):
        columns = (lhs, rhs, rhs - lhs)
    assert [len(v) for v in given_to["_spell"]] == [len(np.unique(c.view(np.int64))) for c in columns]
    spelled, python = (np.unique(np.concatenate(given_to[name]).view(np.int64)).view(np.float64)
                       for name in ("_spell", "_python_spelled"))
    assert (python.size, spelled.size) == (fallback, distinct)
    assert (np.abs(python) < sys.float_info.min).all()


# Texts of a list column as the CLI builds them: "" and check names
CSV_NAMES = st.one_of(st.just(""), CHECK_NAMES)
CSV_FLOATS = st.one_of(st.floats(), TIES, POWERS_OF_TEN, st.sampled_from([0.0, -0.0, 5e-324, -math.nan]))


def _cell_text(value):
    return _quoted(fmt(value))


@st.composite
def csv_columns(draw):
    """Columns of each kind that ``_write_csv`` takes, all of one number of
    lines but for float64 columns one line short after the first column,
    and the values that each column's lines hold ("" where one is short)."""
    lines = draw(st.integers(0, 12))
    columns, values = [], []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["list", "float64", "int64", "bool", "pair"] + ["short"] * bool(columns)))
        if kind == "pair":
            distinct = draw(st.one_of(st.lists(CSV_NAMES, min_size=1, max_size=4),
                                      st.lists(CSV_FLOATS, min_size=1, max_size=4).map(np.array),
                                      st.lists(st.booleans(), min_size=1, max_size=2).map(np.array)))
            codes = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=lines, max_size=lines))
            columns.append((distinct, np.array(codes, dtype=np.intp)))
            listed = distinct.tolist() if isinstance(distinct, np.ndarray) else distinct
            values.append([listed[c] for c in codes])
            continue
        elements = {"list": CSV_NAMES, "float64": CSV_FLOATS, "short": CSV_FLOATS, "int64": st.integers(0, 10**8 - 1),
                    "bool": st.booleans()}[kind]
        length = max(lines - 1, 0) if kind == "short" else lines
        column = draw(st.lists(elements, min_size=length, max_size=length))
        columns.append(column if kind == "list" else np.array(column, dtype="float64" if kind == "short" else kind))
        values.append(column + [""] * (lines - length))
    return columns, values


@settings(max_examples=300, deadline=None)
@given(csv_columns())
def test_write_csv_spells_every_value_as_fmt(columns_and_values):
    columns, values = columns_and_values
    header = [f"c{n}" for n in range(len(columns))]
    with tempfile.TemporaryDirectory() as out:
        path = pathlib.Path(out, "table.csv")
        cli._write_csv(str(path), header, columns)
        written = path.read_bytes()
    expected = ",".join(header) + "\n" + "".join(
        ",".join(_cell_text(v) for v in row) + "\n" for row in zip(*values))
    assert written == expected.encode("utf-8")


# Ints at the edges of a group of four digits, and the largest an int
# column may hold
INT_EDGES = [0, 9, 10, 99, 100, 9999, 10**4, 10**8 - 1]
INT_SHAPES = st.one_of(st.tuples(st.integers(0, 12)), st.tuples(st.integers(0, 12), st.integers(1, 3)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(hnp.arrays(np.int64, INT_SHAPES, elements=st.one_of(st.sampled_from(INT_EDGES),
                                                                     st.integers(0, 10**8 - 1))),
                 hnp.arrays(np.bool_, INT_SHAPES)),
       st.one_of(st.integers(-2**63, -1), st.integers(10**8, 2**63 - 1)))
@example(np.array(INT_EDGES), -1)
@example(np.array(INT_EDGES).reshape(4, 2), 10**8)
def test_write_csv_spells_int_and_bool_rows_joined_by_colons(column, outside):
    rows = [row if isinstance(row, list) else [row] for row in column.astype(np.int64).tolist()]
    with tempfile.TemporaryDirectory() as out:
        path = pathlib.Path(out, "table.csv")
        cli._write_csv(str(path), ["c"], [column])
        assert path.read_text() == "c\n" + "".join(":".join(map(str, row)) + "\n" for row in rows)
        if column.size and column.dtype == np.int64:
            column.flat[outside % column.size] = outside
            with pytest.raises(ValueError):
                cli._write_csv(str(path), ["c"], [column])


def test_no_bound_row_is_built_by_a_sweep_or_the_writer(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("a BoundRow was built")

    monkeypatch.setattr("hypcoords.report.BoundRow", refuse)
    assert run(["verify-convergence", *HENON_ARGS, "--k", "20", "--flavor", "both",
                "--out-dir", tmp_path]) == 0
    # the certificate writer reads the report's columns too
    assert run(["certify", *HENON_ARGS, "--k", "20", "--flavor", "both", "--out-dir", tmp_path]) == 0
    lines = (tmp_path / "certificate.csv").read_text().splitlines()
    assert lines[0] == "i,check,log_lhs,log_rhs,margin,passed" and len(lines) == 1 + 20 * 8


def test_verify_convergence_pulls_back_once_and_pushes_f_once(tmp_path, monkeypatch, henon_orbit20):
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("_pair_measurements", "hyperbolic_coordinates", "frame_sequence"):
        monkeypatch.setattr(bounds, name, counted(name, getattr(bounds, name)))
    for name in ("images", "contracted_images", "_pull_back"):
        monkeypatch.setattr(MatrixCocycle, name, counted(name, getattr(MatrixCocycle, name)))
    # the measurement itself is counted, under the module's own cache
    monkeypatch.setattr(bounds, "_measure_pairs", counted("_measure_pairs", bounds._measure_pairs))
    assert run(["verify-convergence", *HENON_ARGS, "--k", "20", "--flavor", "II",
                "--out-dir", tmp_path]) == 0
    # the two sweeps share one measurement of the pairs, in one pass that
    # reads the cocycle's pull-back of e, with the one push of f that seeds
    # it; nothing goes order by order or pair by pair
    assert calls == {"_measure_pairs": 1, "contracted_images": 1, "_pull_back": 1, "images": 1}
    for stem, per_pair in (("apriori_convergence", 7), ("explicit_convergence", 3)):
        rows = (tmp_path / f"{stem}.csv").read_text().splitlines()[1:]
        assert len(rows) == 20 * 21 // 2 * per_pair
    # what the cache hands out cannot be written to
    for column in bounds._pair_columns(henon_orbit20.cocycle):
        with pytest.raises(ValueError):
            column[(0,) * column.ndim] = 0


def test_a_measured_cocycle_goes_with_its_pair_measurement(henon):
    # the measurement that both sweeps share is held only as long as its
    # cocycle: neither outlives the orbit
    orbit = compute_orbit(henon, HENON_FIXTURE, 20)
    assert bounds.verify_apriori_all(orbit).verdict
    cocycle = weakref.ref(orbit.cocycle)
    measured = weakref.ref(bounds._pair_columns(orbit.cocycle).measured)
    del orbit
    gc.collect()
    assert cocycle() is None and measured() is None


def test_bound_report_json_round_trips_on_henon(tmp_path, henon_orbit20):
    assert run(["verify-convergence", *HENON_ARGS, "--k", "20", "--flavor", "II",
                "--out-dir", tmp_path]) == 0
    for stem in ("apriori_convergence", "explicit_convergence"):
        text = (tmp_path / f"{stem}.json").read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    ledger = certificate.fit_constants(henon_orbit20, certificate.Flavor.parse("II"), 1.05)
    for report in (bounds.verify_apriori_all(henon_orbit20),
                   bounds.verify_explicit_convergence(henon_orbit20, ledger)):
        assert _written_bytes(write_bound_report, report) == _written_bytes(_reference_bound_report, report)
        assert _status_counts(report) == _tracer_allowance_rows(report)


def test_bound_report_summary_lists_failing_rows(henon_orbit20, monkeypatch):
    # a negative tolerance fails every row whose lhs exceeds half its rhs
    # (plus allowance), on values and indices of a real sweep
    monkeypatch.setattr(bounds, "DEFAULT_REL_TOL", -0.5)
    report = bounds.verify_apriori_all(henon_orbit20)
    assert _written_bytes(write_bound_report, report) == _written_bytes(_reference_bound_report, report)
    with tempfile.TemporaryDirectory() as out:
        summaries = write_bound_report(report, out, "report")
        payload = json.loads(pathlib.Path(out, "report.json").read_text())
        statuses = collections.Counter(
            line.rsplit(",", 1)[1] for line in pathlib.Path(out, "report.csv").read_text().splitlines()[1:]
        )
    checks = payload["checks"]
    assert checks == json.loads(json.dumps(summaries))
    for c in summaries.values():
        assert type(c["rows"]) is type(c["pass_within_rounding"]) is int
        for f in c["failures"]:
            assert f["passed"] is False and all(type(i) is int for i in f["index"])
    assert payload["verdict"] is False
    failed = [r for r in report.rows if not r.passed]
    assert 0 < len(failed) < len(report.rows)
    assert statuses["fail"] == len(failed) == sum(c["failed"] for c in checks.values())
    listed = [(check, tuple(f["index"]), f["lhs"]) for check, c in checks.items() for f in c["failures"]]
    assert sorted(listed) == sorted((r.check, r.index, r.lhs) for r in failed)
    assert statuses["pass_within_rounding"] == sum(c["pass_within_rounding"] for c in checks.values())


def _tracer_allowance_rows(report):
    """Rows that pass only through the absolute allowance, counted as the
    benchmark's tracer counts ``bounds.allowance_rows`` (without its
    numpy-scalar overflow warnings)."""
    with np.errstate(over="ignore", invalid="ignore"):
        limit = 1.0 + report.tol
        return sum(1 for r in report.rows if r.passed and r.lhs > r.rhs * limit)


def _status_counts(report):
    """The written report's pass_within_rounding count, checked to agree
    between the CSV status column and the JSON summary."""
    with tempfile.TemporaryDirectory() as out:
        write_bound_report(report, out, "report")
        text = pathlib.Path(out, "report.csv").read_text(encoding="utf-8")
        payload = json.loads(pathlib.Path(out, "report.json").read_text(encoding="utf-8"))
    # check names may hold line breaks of their own, so count line ends
    in_csv = text.count(",pass_within_rounding\n")
    in_json = sum(c["pass_within_rounding"] for c in payload["checks"].values())
    assert in_csv == in_json
    assert sum(c["rows"] for c in payload["checks"].values()) == len(report.rows)
    return in_json


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(st.one_of(bound_reports(), shared_value_reports()))
def test_pass_within_rounding_counts_as_the_tracer_does(report):
    assert _status_counts(report) == _tracer_allowance_rows(report)


def _summary_lines_of(out_dir, stems):
    """The CLI summary lines that the written JSON summaries imply."""
    lines = []
    for stem in stems:
        checks = json.loads((out_dir / f"{stem}.json").read_text())["checks"]
        least = min(((c["least_relative_margin"]["value"], name, tuple(c["least_relative_margin"]["index"]))
                     for name, c in checks.items() if c["least_relative_margin"]), default=None)
        lines.append(
            f"{stem}: {sum(c['rows'] for c in checks.values())} rows checked, "
            f"{sum(c['failed'] for c in checks.values())} failed, "
            f"{sum(c['pass_within_rounding'] for c in checks.values())} pass_within_rounding, "
            f"worst relative margin {least[0]:.3g} ({least[1]} at {least[2]})"
        )
    return lines


def test_verify_convergence_summary_lines_and_timings(tmp_path, capsys):
    argv = ["verify-convergence", *HENON_ARGS, "--k", "12", "--flavor", "II"]
    assert run([*argv, "--out-dir", tmp_path / "plain"]) == 0
    plain = capsys.readouterr()
    assert plain.err == ""
    stems = ("apriori_convergence", "explicit_convergence")
    assert plain.out.splitlines() == [
        "convergence bounds pass over all pairs up to k=12", *_summary_lines_of(tmp_path / "plain", stems)
    ]
    assert run([*argv, "--timings", "--out-dir", tmp_path / "timed"]) == 0
    timed = capsys.readouterr()
    assert timed.out == plain.out
    stages = [re.fullmatch(r"timing (\w+) (\d+\.\d{6}) s", line).group(1) for line in timed.err.splitlines()]
    assert stages == ["orbit", "apriori_sweep", "apriori_write", "ledger", "envelope_sweep", "envelope_write"]
    names = [stem + ext for stem in stems for ext in (".csv", ".json")]
    assert filecmp.cmpfiles(tmp_path / "plain", tmp_path / "timed", names, shallow=False)[0] == names


def test_verify_convergence_timings_of_stages_before_a_failed_one(tmp_path, capsys):
    # a start whose flavor-II ledger fit is infeasible, after the a-priori
    # report is written
    argv = ["verify-convergence", "--map", "henon", "--a", "1.4", "--b", "0.3", "--x0", "1.0762235314518263",
            "--y0", "0.09231363694596369", "--k", "80", "--flavor", "II"]
    assert run([*argv, "--out-dir", tmp_path / "plain"]) == 1
    plain = capsys.readouterr()
    assert plain.out == "" and plain.err == "c < lambda^2*c_tilde^2/(Gamma^2*Gamma_tilde)\n"
    assert run([*argv, "--timings", "--out-dir", tmp_path / "timed"]) == 1
    timed = capsys.readouterr()
    *timings, error = timed.err.splitlines(keepends=True)
    stages = [re.fullmatch(r"timing (\w+) (\d+\.\d{6}) s\n", line).group(1) for line in timings]
    assert stages == ["orbit", "apriori_sweep", "apriori_write"]
    assert (timed.out, error) == (plain.out, plain.err)


def test_verify_convergence_failure_keeps_exit_code_and_reports_counts(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(bounds, "DEFAULT_REL_TOL", -0.5)
    assert run(["verify-convergence", *HENON_ARGS, "--k", "6", "--flavor", "II",
                "--out-dir", tmp_path]) == 1
    captured = capsys.readouterr()
    first = bounds.verify_apriori_all(compute_orbit(make_map("henon", a=1.4, b=0.3), np.array(
        [float(HENON_FIXTURE[0]), float(HENON_FIXTURE[1])]), 6)).first_failure()
    assert captured.err == f"apriori_convergence: {first.check} fails at {first.index}\n"
    summary = _summary_lines_of(tmp_path, ("apriori_convergence", "explicit_convergence"))
    assert captured.out.splitlines() == summary
    assert " 0 failed" not in summary[0]


def _start(point):
    return ["--x0", repr(float(point[0])), "--y0", repr(float(point[1]))]


_PARITY_HENON = ["--map", "henon", "--a", "1.4", "--b", "0.3", *_start(HENON_FIXTURE)]
_PARITY_STANDARD = ["--map", "standard", "--K", repr(STANDARD_K), *_start(STANDARD_FIXTURE)]
_PARITY_LORENZ = ["--map", "lorenz2d", *_start(LORENZ_FIXTURE)]
_PARITY_BATTERY = {
    "converge-henon-II": ["verify-convergence", *_PARITY_HENON, "--k", "20", "--flavor", "II"],
    "converge-henon-I": ["verify-convergence", *_PARITY_HENON, "--k", "20", "--flavor", "I"],
    "converge-lorenz-I": ["verify-convergence", *_PARITY_LORENZ, "--k", "20", "--flavor", "I"],
    "frames-henon": ["frames", *_PARITY_HENON, "--k", "20"],
    "orbit-henon": ["orbit", *_PARITY_HENON, "--k", "20"],
    "frames-standard": ["frames", *_PARITY_STANDARD, "--k", "12"],
    "orbit-standard": ["orbit", *_PARITY_STANDARD, "--k", "12"],
    "frames-lorenz": ["frames", *_PARITY_LORENZ, "--k", "20"],
    "orbit-lorenz": ["orbit", *_PARITY_LORENZ, "--k", "20"],
    "frames-zero-step": ["frames", "--map", "linear", "--matrix", "0,0,0,0", *_start((1.0, 1.0)),
                         "--k", "3"],
    "variation": ["verify-variation", *_PARITY_HENON, "--k", "8", "--flavor", "II"],
    "variation-henon-k80-I": ["verify-variation", *_PARITY_HENON, "--k", "80", "--flavor", "I"],
    "variation-henon-k80-II": ["verify-variation", *_PARITY_HENON, "--k", "80", "--flavor", "II"],
    "variation-lorenz-I": ["verify-variation", *_PARITY_LORENZ, "--k", "20", "--flavor", "I"],
    "foliate": ["foliate", "--map", "henon", "--a", "1.4", "--b", "0.3", "--k", "4",
                "--rect=-0.5,0.5,-0.3,0.3", "--spacing", "0.25", "--field", "stable",
                "--length", "0.05", "--step", "0.005"],
    "certify": ["certify", *_PARITY_HENON, "--k", "12", "--flavor", "II"],
    "aux-constants": ["aux-constants", *_PARITY_HENON, "--k", "12", "--flavor", "II"],
    "scan-constants-I": ["scan-constants", "--flavor", "I", "--lambda-values", "1.5,3", "--gamma-values", "2"],
    "orbit-linear-rank-one": ["orbit", "--map", "linear", "--matrix", "1,0,0,0", *_start((1.0, 1.0)),
                              "--k", "3"],
}


def _battery_digests(tmp_path, monkeypatch, capsys):
    """Per command: the exit code and the SHA-256 of stdout, stderr and every
    file written, run from ``tmp_path`` with a relative output directory."""
    monkeypatch.chdir(tmp_path)
    digests = {}
    for name, argv in _PARITY_BATTERY.items():
        code = run([*argv, "--out-dir", name])
        captured = capsys.readouterr()
        entry = {"exit": code, "stdout": captured.out, "stderr": captured.err}
        written = sorted(pathlib.Path(name).iterdir()) if os.path.isdir(name) else []
        entry.update((p.name, p.read_bytes()) for p in written)
        digests[name] = {
            key: value if key == "exit" else hashlib.sha256(
                value.encode() if isinstance(value, str) else value).hexdigest()
            for key, value in entry.items()
        }
    return digests


# Recorded with Python 3.11.7 and numpy 2.4.6.  A change that declares new
# report bytes (ROADMAP items 2, 3, 5, 10 and 23, the a-priori right sides
# added as logs, the drift's cosine read off the pulled-back vectors, numpy's
# ufuncs in place of ``math``, lorenz2d's ``np.power`` and the quoting of a
# CSV text that holds a comma) updates these digests in the same change;
# any other change keeps every byte, stream and exit code.
_PARITY_DIGESTS = {
    "converge-henon-II": {
        "exit": 0,
        "stdout": "ed43fecdc461b4387e6a364793317f179d3e7155e63a1f2718bcaa0d02749960",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "apriori_convergence.csv": "9b1f9c58dcea8a4beeec714beabe347eb714683e2504ab2631b63805da102403",
        "apriori_convergence.json": "e5ee8956d86379bbf3a83017c2cee91685bb93c9bfa899d1c290ef723e1e2f4f",
        "explicit_convergence.csv": "15d5e38676e49a5c103f6025fea8cebf0b8c745487ebdf7d9d6ed800563821e6",
        "explicit_convergence.json": "cb2d51f6aaa50ea99ab7da83f128b52a23c96597ab06444cece65a8b831266b2",
    },
    "converge-henon-I": {
        "exit": 0,
        "stdout": "8fa7fee7571fcf14a3f7f4f6404df2bd74be5390489c31695f3107f30e5d6503",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "apriori_convergence.csv": "9b1f9c58dcea8a4beeec714beabe347eb714683e2504ab2631b63805da102403",
        "apriori_convergence.json": "e5ee8956d86379bbf3a83017c2cee91685bb93c9bfa899d1c290ef723e1e2f4f",
        "explicit_convergence.csv": "1bdec000571e3e68f718639bb1ed15385f2a9b5a393a7bf928f54e8859dec06f",
        "explicit_convergence.json": "12bbde20aff533a086a04adefe65308494ceec8fdfabc5053a58ee724043db4a",
    },
    "converge-lorenz-I": {
        "exit": 0,
        "stdout": "de88b0a09e8dc620578c6ae0645202f93603958be0165da3ceacdfe12fbdef75",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "apriori_convergence.csv": "e527a17e732fae8d473d7984b85f9f58debe10663d154999d93e15c0a7880971",
        "apriori_convergence.json": "f33d1dabd10398f786c9a07f504d3402737b749ab8d3605806c82dff0c1237ae",
        "explicit_convergence.csv": "5fe6fa2c46124dfbe2d8f101653d48e62d1fb8c84b7a9e194622db403996e453",
        "explicit_convergence.json": "f53715729bdb118749d0e46ec74684ed51b779f8f19e15ac58e97a867b20e62b",
    },
    "frames-henon": {
        "exit": 0,
        "stdout": "3cdc071699b4ab556d1cc8e6e7ff4582396870164be432e55eea71225d4bc967",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "frames.csv": "f74eff3bfbf0ae0cf745c1a9ad1c1d7d663cfee067d86c6ab5b18f7568bbe99f",
    },
    "orbit-henon": {
        "exit": 0,
        "stdout": "c2d4233bdbef66e8730cbe0c31cb3354946992a39d3a79826f0f6ef840add2e4",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "orbit.csv": "772e1b9b77d8400df9e30bb18afb470137b6c6bbd0fead608a09c97fe96889eb",
    },
    "frames-standard": {
        "exit": 0,
        "stdout": "35c279cb570df73a1b25256a0b284782980d55a6d8a0e70c722dc603a766b562",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "frames.csv": "786723d29dc99a4cec67d3a2e80b3095f349d54892ec5c4f429abbd9e5052daa",
    },
    "orbit-standard": {
        "exit": 0,
        "stdout": "408aa00b2ea583746360ee99e51105d2db68ecd6880325c08bec166821d9bdc1",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "orbit.csv": "434ed331f4646cf57aa2cca75ce483fb6aed47823418bc17dc038eb3512ebacd",
    },
    "frames-lorenz": {
        "exit": 0,
        "stdout": "c9e7a0d8819b4681efc914c36b39284343de99bb32d8327f502a81446a7ab09f",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "frames.csv": "d6217e9aa414b5afb7a178af4346c67796267404a51523b48c2910ef39e5eb63",
    },
    "orbit-lorenz": {
        "exit": 0,
        "stdout": "fdd37a1fa888ff95618bf4488558124c90dc1e0e6ffc2f49aaa097dd3edbe9e9",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "orbit.csv": "e44c804609fcc0778cfa2a2c56d9fa3a478b75871f68f1b31dd07a81455457e1",
    },
    "frames-zero-step": {
        "exit": 1,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "b20588e8511681b20b5ccb2d66cdafaafde9a865343676ab3e586d4c320b8d93",
    },
    "variation": {
        "exit": 0,
        "stdout": "ee77954dff4658f3c37ce82565934e47f792d095a206974ddfb55f1c918cd8ca",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "slow_variation.csv": "d7b956af3402a91de37ea700e50bb186733166622ed7d1be25351ce3fa770835",
        "slow_variation.json": "3dec34c26d0eb2446834c3f461200d27f5e4874b3c58d6038c7b814421db47f6",
    },
    "variation-henon-k80-I": {
        "exit": 0,
        "stdout": "4e0bb582594e774fbef4587200ea9b33520ca7a27ec902b1073461c3254c5f53",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "slow_variation.csv": "c46085c6d8a74d8173c1ffa44a367463c178a3927f7fc26177e4874364ab767f",
        "slow_variation.json": "e062d751b76aad15a82567239af6c12ec345ad596864a7e88832fb9deb7637ef",
    },
    "variation-henon-k80-II": {
        "exit": 0,
        "stdout": "4e0bb582594e774fbef4587200ea9b33520ca7a27ec902b1073461c3254c5f53",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "slow_variation.csv": "b598dc33860c9a8d70097ddb3d33dac4421b601a71e689127e4f39199dbbc2b2",
        "slow_variation.json": "759482d26b6232b78f7a70d8e447d581c061b3e1b66a3956c86e08fbe31dc297",
    },
    "variation-lorenz-I": {
        "exit": 0,
        "stdout": "3bf73022a7b8a27aa29d1918517b8b7f99450627d98eab7666157f0a6ed145ae",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "slow_variation.csv": "1095d6dc3c6e02fed21a19f1bc4a4e217300782c76c36f84d8be362d1e07c8fd",
        "slow_variation.json": "25b287a82ea7ad7de3057625111ac82d541ac77be5b985b2bc7a0cd3eb54cd04",
    },
    "foliate": {
        "exit": 0,
        "stdout": "2c7422f16f21f19b3c7074ed54ee93f659243a288b21207971e80c9946a9248f",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "curves.csv": "473ac4024008dac57ea50e136dceb70c695b761e02c615c1a50fc55ef0d65a7a",
        "curves.svg": "eb803462d6bc75a4afe303344363edff3130df3232868bed4b186691870c2647",
    },
    "certify": {
        "exit": 0,
        "stdout": "a941c40c2eaf821f0b8478941666d2d71a955ea7ecc354afc1962ad6a37692fe",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "certificate.csv": "72edcae003bd1e5c544e1c38a7c2310b6f8655e36de3aa3cda36f551dbb87988",
        "certificate.json": "2adfa184474b8b9e5f09ba2446cf435e25c130ed54fb7b0db6490912169d40fb",
        "ledger.txt": "69b59fb2debe15f53a277af286da22fc2ef8ddfeabfcd8bd3ba4cc09e003eba1",
    },
    "aux-constants": {
        "exit": 0,
        "stdout": "c8cd68e9f13cc42c63778da0147b1229a12f284977f955e54583b20741998172",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "aux_constants.json": "f61293bc73866339edff1f863eaa7db7e41c2e9ed4187f31b095d0a431887a6c",
    },
    "scan-constants-I": {
        "exit": 0,
        "stdout": "a7f0f0b69a29d65b8716a1104861e034d84dd7297d038999861aa372fc5c7443",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "scan.csv": "dec0d8bab0c5ae8f3b82a1552fe81acdc7253212c81fcc80b314b721e1b3cd31",
    },
    "orbit-linear-rank-one": {
        "exit": 0,
        "stdout": "1160097a45eefc9df90fd70efc23faef77b2cf3820403eba366b942030af256b",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "orbit.csv": "64688ded36b97385b069125d5a99c1a31488fcae7b75f409e9bbf63e418727ca",
    },
}


def test_cli_battery_bytes_are_pinned(tmp_path, monkeypatch, capsys):
    assert _battery_digests(tmp_path, monkeypatch, capsys) == _PARITY_DIGESTS


def test_every_csv_goes_through_the_one_writer(tmp_path, monkeypatch):
    """Every subcommand, run with ``_write_csv`` wrapped: each CSV file in
    its output directory went through the wrapper once."""
    written = []
    write = cli._write_csv
    monkeypatch.setattr(cli, "_write_csv", lambda path, *rest: written.append(os.path.realpath(path))
                        or write(path, *rest))
    runs = {**_PARITY_BATTERY, "oracle-check": ["oracle-check", "--trials", "3", "--grid-n", "100"]}
    assert {argv[0] for argv in runs.values()} == set(cli._subcommands(cli.build_parser()))
    found = []
    for name, argv in runs.items():
        assert run([*argv, "--out-dir", tmp_path / name]) in (0, 1)
        found += [os.path.realpath(path) for path in (tmp_path / name).glob("*.csv")]
    assert len(found) > 10
    assert sorted(written) == sorted(found)


def test_parity_battery_compare_tells_outcomes_from_bytes(capsys):
    report = {"verdict": True, "rows": 7, "failed": 0, "pass_within_rounding": 2}
    run = {"exit": 0, "stdout": "s", "stderr": "e", "a.csv": "x", "reports": {"a.json": report}}
    parent = {"same": run, "bytes": run, "counts": run}
    change = {"same": run, "bytes": {**run, "a.csv": "y"},
              "counts": {**run, "reports": {"a.json": {**report, "pass_within_rounding": 0}}}}
    assert parity_battery.compare(parent, change) == 1
    assert capsys.readouterr().out.splitlines() == [
        "3 runs in both files, 0 in one only",
        "1 runs differ in exit code, stderr, verdicts or counts",
        "  counts: a.json pass_within_rounding 2 -> 0",
        "1 runs differ in bytes alone",
        "  bytes: a.csv",
    ]
    assert parity_battery.compare(parent, {**parent, "bytes": change["bytes"]}) == 0


def test_one_parser_serves_every_call(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trials = 3\n")
    calls = [["oracle-check", "--trials", "3", "--grid-n", "100", "--out-dir", tmp_path / "a"],
             ["orbit", "--no-such-flag"],
             ["scan-constants", "--out-dir", tmp_path / "b"],
             # a --config run, then the same command with the flag's default
             ["oracle-check", "--config", cfg, "--grid-n", "100", "--out-dir", tmp_path / "c"],
             ["oracle-check", "--grid-n", "100", "--out-dir", tmp_path / "d"]]
    fresh = []
    for argv in calls:  # each on a parser of its own
        cli._parser.cache_clear()
        fresh.append((run(argv), capsys.readouterr().out))
    built = []
    build = cli.build_parser

    def counting():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        shared = []
        for argv in calls:
            shared.append((run(argv), capsys.readouterr().out))
    finally:
        cli._parser.cache_clear()
    assert [code for code, _ in shared] == [0, 2, 0, 0, 0]
    assert shared == fresh
    assert [out.split(",")[0] for _, out in shared[3:]] == ["oracle check: 3 trials", "oracle check: 1000 trials"]
    assert len(built) == 2  # the cached parser, and a fresh one that takes the file's defaults


def test_config_keys_are_the_flags_that_take_a_value():
    """Each --config key is the dest of a flag that takes a value; every
    other such flag is named here."""
    parser = cli.build_parser()
    commands, = (a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    dests = {action.dest for command in commands.values() for action in command._actions
             if action.option_strings and action.nargs != 0}
    values_lists = {f"{name}_values" for name in ("lambda", "gamma", "c", "b", "gamma_tilde", "c_tilde")}
    assert len(cli._CONFIG_KEYS) == len(set(cli._CONFIG_KEYS)) == 17
    assert dests - set(cli._CONFIG_KEYS) == {"config", "param", "a", "b", "K", "ledger", *values_lists}
    assert set(cli._CONFIG_KEYS) <= dests
