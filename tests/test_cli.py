import collections
import contextlib
import filecmp
import hashlib
import io
import json
import math
import os
import pathlib
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hypcoords import MatrixCocycle, bounds, certificate, compute_orbit, make_map
from hypcoords.cli import fmt, main, write_bound_report

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


def test_config_file_and_flag_override(tmp_path):
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
     ("foliate", "map = henon\nfield = sideways\n", "field")],
)
def test_unparsable_config_values_are_usage_errors(tmp_path, capsys, command, text, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert run([command, "--config", cfg, "--out-dir", out]) == 2
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


def _reference_bound_report(report, out_dir, stem):
    """The bound-report writer without a memo or a running tally: fmt rows,
    a status per row, and json.dump of a summary recomputed from the rows;
    numpy-scalar overflow to inf or NaN is a valid status input, not a warning."""
    with open(os.path.join(out_dir, stem + ".csv"), "w", encoding="utf-8", newline="\n") as fh, \
            np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        fh.write("check,index,lhs,rhs,margin,passed,status\n")
        for r in report.rows:
            row = [r.check, ":".join(str(i) for i in r.index), r.lhs, r.rhs, r.margin, r.passed,
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


REPORT_NUMBERS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072e-308, math.nan, math.inf, -math.inf]),
    st.floats().map(np.float64),
    st.integers(-10**15, 10**15),
)
CHECK_NAMES = st.one_of(
    st.sampled_from(['say "when"', "back\\slash", "\\\"", "naïve", "Hénon–Lozi", "\u2211\u03b4"]),
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6),
)


# An allowance of +inf passes a row and one of -inf fails it (unless its
# sides are NaN or infinite), so a drawn allowance sets most pass flags
ALLOWANCES = st.sampled_from([math.inf, -math.inf, 0.0])


@st.composite
def bound_reports(draw):
    names = draw(st.lists(CHECK_NAMES, min_size=1, max_size=4, unique=True))
    report = bounds.BoundReport(draw(CHECK_NAMES), draw(REPORT_NUMBERS))
    for _ in range(draw(st.integers(0, 12))):
        report.add(
            draw(st.sampled_from(names)), draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=3).map(tuple)),
            draw(REPORT_NUMBERS), draw(REPORT_NUMBERS), abs_tol=draw(ALLOWANCES),
        )
    report.context.update(draw(st.dictionaries(CHECK_NAMES, REPORT_NUMBERS, min_size=1, max_size=3)))
    return report


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(bound_reports())
@example(bounds.BoundReport("empty", 1e-9))
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
    # (1,) and (1.0,) are equal tuples with different spellings
    indices = [(0,), (1,), (1.0,), (1, 2), (2, 1), (0, 0, 0)]
    report = bounds.BoundReport("shared", draw(number))
    for _ in range(draw(st.integers(1, 40))):
        report.add(draw(st.sampled_from(["a", "b", "c"])), draw(st.sampled_from(indices)),
                   draw(number), draw(number), abs_tol=draw(ALLOWANCES))
    report.context.update(draw(st.dictionaries(st.sampled_from("xyz"), number, min_size=1)))
    return report


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(shared_value_reports())
def test_bound_report_writer_keeps_equal_values_apart(report):
    assert _written_bytes(write_bound_report, report) == _written_bytes(_reference_bound_report, report)


# Signed zeros and NaNs of three bit patterns among a few other values, so
# that blocks of rows repeat them
BLOCK_NUMBERS = [
    0.0, -0.0, math.nan, -math.nan, np.frombuffer(np.uint64(0x7FF8000000000001).tobytes())[0].item(),
    1.0, -1.0, 0.1, math.inf, -math.inf, 5e-324,
]


@st.composite
def block_reports(draw):
    """Reports built by add_pairs blocks, with single adds between them."""
    number = st.sampled_from(BLOCK_NUMBERS)
    report = bounds.BoundReport("blocks", draw(st.sampled_from([0.0, 1e-9, -0.5])))
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            report.add(draw(st.sampled_from("abc")), (draw(st.integers(0, 3)),), draw(number), draw(number),
                       abs_tol=draw(ALLOWANCES))
            continue
        checks = tuple(draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3)))
        indices = draw(st.lists(st.tuples(st.integers(1, 9), st.integers(1, 9)), min_size=1, max_size=8))
        side = st.lists(number, min_size=len(indices), max_size=len(indices)).map(np.array)
        report.add_pairs(checks, indices, [draw(side) for _ in checks], [draw(side) for _ in checks],
                         [draw(st.one_of(ALLOWANCES, side)) for _ in checks])
    return report


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(block_reports())
def test_bound_report_writer_spells_blocks_as_rows(report):
    assert _written_bytes(write_bound_report, report) == _written_bytes(_reference_bound_report, report)


def test_no_bound_row_is_built_by_a_sweep_or_the_writer(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("a BoundRow was built")

    monkeypatch.setattr(bounds, "BoundRow", refuse)
    assert run(["verify-convergence", *HENON_ARGS, "--k", "20", "--flavor", "both",
                "--out-dir", tmp_path]) == 0


def test_verify_convergence_measures_each_pair_once(tmp_path, monkeypatch):
    calls = collections.Counter()

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    for name in ("_pair_columns", "_pair_measurements", "hyperbolic_coordinates",
                 "frame_sequence"):
        counted(bounds, name)
    counted(MatrixCocycle, "images")
    assert run(["verify-convergence", *HENON_ARGS, "--k", "20", "--flavor", "II",
                "--out-dir", tmp_path]) == 0
    # each sweep measures its pairs once, with one push of a vector per pair;
    # nothing goes order by order or pair by pair
    assert calls == {"_pair_columns": 2, "images": 2}
    for stem, per_pair in (("apriori_convergence", 7), ("explicit_convergence", 3)):
        rows = (tmp_path / f"{stem}.csv").read_text().splitlines()[1:]
        assert len(rows) == 20 * 21 // 2 * per_pair


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


def test_bound_report_summary_lists_failing_rows(henon_orbit20):
    # a negative tolerance fails every row whose lhs exceeds half its rhs
    # (plus allowance), on values and indices of a real sweep
    report = bounds.verify_apriori_all(henon_orbit20, tol=-0.5)
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
    sweep = bounds.verify_apriori_all
    monkeypatch.setattr(bounds, "verify_apriori_all", lambda orbit: sweep(orbit, tol=-0.5))
    assert run(["verify-convergence", *HENON_ARGS, "--k", "6", "--flavor", "II",
                "--out-dir", tmp_path]) == 1
    captured = capsys.readouterr()
    first = sweep(compute_orbit(make_map("henon", a=1.4, b=0.3), np.array(
        [float(HENON_FIXTURE[0]), float(HENON_FIXTURE[1])]), 6), tol=-0.5).first_failure()
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
    "foliate": ["foliate", "--map", "henon", "--a", "1.4", "--b", "0.3", "--k", "4",
                "--rect=-0.5,0.5,-0.3,0.3", "--spacing", "0.25", "--field", "stable",
                "--length", "0.05", "--step", "0.005"],
    "certify": ["certify", *_PARITY_HENON, "--k", "12", "--flavor", "II"],
    "aux-constants": ["aux-constants", *_PARITY_HENON, "--k", "12", "--flavor", "II"],
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
# report bytes (ROADMAP items 2, 3, 5 and 10) updates these digests in the
# same change; any other change keeps every byte, stream and exit code.
_PARITY_DIGESTS = {
    "converge-henon-II": {
        "exit": 0,
        "stdout": "4877f2e9d0a653e9d06cae37316e8cddf9b102b8dbabdbca7d0d8952f72809b5",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "apriori_convergence.csv": "e2e22a92ec21cede8ee265870412e6b5eda91314b69111c38e766da5be948593",
        "apriori_convergence.json": "8edb64e7ca29c2094c1dff35387ab1bdc92adeaf71b2412200cba2be2072ac3f",
        "explicit_convergence.csv": "72daf0aaacb09f514c125c6181f2ce9e3c0d1f1b15612fc6905fefeea70a9d2e",
        "explicit_convergence.json": "a4d9839c20f7beccf3acd8645bf732bcd96bde5c6709ca82ca48c7cf7c6873bd",
    },
    "converge-henon-I": {
        "exit": 0,
        "stdout": "1c6b44fec0ac344dcec27ca3bdf7f083c52ee33ff26214603728379c5f2f89d8",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "apriori_convergence.csv": "e2e22a92ec21cede8ee265870412e6b5eda91314b69111c38e766da5be948593",
        "apriori_convergence.json": "8edb64e7ca29c2094c1dff35387ab1bdc92adeaf71b2412200cba2be2072ac3f",
        "explicit_convergence.csv": "2562cfd7c3d50285d9d8ef9e9d603313857a3d423010392cfe7ebfc05bf4eb49",
        "explicit_convergence.json": "12bbde20aff533a086a04adefe65308494ceec8fdfabc5053a58ee724043db4a",
    },
    "converge-lorenz-I": {
        "exit": 0,
        "stdout": "fa3e04b4388e4fcde0777e2e3e5414f41bca86c5366a720621b231c7ca8413dc",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "apriori_convergence.csv": "456126084839efe26a9fd5027e5dc4d96a859c12402c22b479007347fc2fe58d",
        "apriori_convergence.json": "06ecef6d5782f0a6d97e82b10e1fec9dce4b1b92010d146df5009a6c3e0829db",
        "explicit_convergence.csv": "eac4fb3112cb27dcd944a983157fe52c7f951a040af93db4b365d90b2ef1c11d",
        "explicit_convergence.json": "fadb678b266c178b74db9d83108fc5ea659b587053b8a805fb29fe03bc59ece0",
    },
    "frames-henon": {
        "exit": 0,
        "stdout": "3cdc071699b4ab556d1cc8e6e7ff4582396870164be432e55eea71225d4bc967",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "frames.csv": "87b65f98c7d92a6bc585c14b6721ff6df443bc054786a2e72c576150f1fe9afe",
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
        "frames.csv": "620f04f90a80c81ddbe47d2049b918719659f2a45057b224e1b33e101ca88d78",
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
        "frames.csv": "aaba880932f62b130aa15102c5ca820f8183f514f09ba253495a39c9e8f09fef",
    },
    "orbit-lorenz": {
        "exit": 0,
        "stdout": "fdd37a1fa888ff95618bf4488558124c90dc1e0e6ffc2f49aaa097dd3edbe9e9",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "orbit.csv": "b3257221aa81b405e89afed7c576306ee7b2935243f1736cae582168dc0b699f",
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
}


def test_cli_battery_bytes_are_pinned(tmp_path, monkeypatch, capsys):
    assert _battery_digests(tmp_path, monkeypatch, capsys) == _PARITY_DIGESTS
