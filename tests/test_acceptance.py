"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines and timings.  Every tolerance is pinned here; the runtime caps are
part of the criteria.
"""

import filecmp
import math
import time

import numpy as np

from hypcoords import bounds, hypframe
from hypcoords.certificate import Flavor, auxiliary_constants, fit_constants
from hypcoords.cocycle import MatrixCocycle, ScaledMatrix, compute_orbit
from hypcoords.foliation import foliation_grid, integrate_curve, pushforward_seed_angle
from hypcoords.linalg2 import line_angle_distance, svd2_matrix

from conftest import HENON_FIXTURE, random_cocycle, random_step_matrix

SQRT2 = math.sqrt(2.0)


def finish(name: str, t0: float, limit: float, violations: list):
    elapsed = time.time() - t0
    status = "PASS" if not violations and elapsed <= limit else "FAIL"
    print(f"criterion {name}: {status} ({elapsed:.1f}s / limit {limit:.0f}s)")
    assert elapsed <= limit, f"runtime {elapsed:.1f}s exceeds {limit}s"
    assert not violations, violations[:5]


def test_criterion_1_frame_correctness():
    t0 = time.time()
    rng = np.random.default_rng(1001)
    grid_n = 10**6
    angle_tol = math.pi / grid_n
    violations = []
    for trial in range(1000):
        m = random_step_matrix(rng)
        s = svd2_matrix(m)
        frame = hypframe.frame_from_scaled(ScaledMatrix.from_matrix(m))
        angles = hypframe.angle_theta(m[0, 0], m[1, 0], m[0, 1], m[1, 1])
        oracle = hypframe.oracle_extremal_directions(m, grid_n)
        checks = [
            line_angle_distance(frame.theta, angles.theta_expand) <= angle_tol,
            line_angle_distance(frame.theta, oracle.theta_max) <= angle_tol,
            line_angle_distance(
                hypframe.linalg2.direction_to_sincos_angle(frame.e), oracle.theta_min
            )
            <= angle_tol,
            abs(oracle.norm_max - s.smax) <= 1e-8 * s.smax,
            abs(oracle.norm_min - s.smin) <= 1e-8 * s.smin,
            abs(float(np.dot(frame.e, frame.f))) <= 1e-9,
        ]
        off, diag_err = hypframe.diagonal_form_residuals(MatrixCocycle([m]), 1)
        checks.append(off <= 1e-9 and diag_err <= 1e-9)
        if not all(checks):
            violations.append((trial, checks))
    finish("1 (frame correctness)", t0, 60.0, violations)


def test_criterion_2_coeccentricity_identities():
    t0 = time.time()
    rng = np.random.default_rng(1001)  # same seed: the frames of criterion 1
    violations = []
    for trial in range(1000):
        m = random_step_matrix(rng)
        vals = hypframe.coeccentricity(MatrixCocycle([m]), 1)
        ref = vals.from_conorm_over_norm
        for v in (vals.from_det_over_norm2, vals.from_conorm2_over_det):
            if abs(v - ref) > 1e-10 * ref:
                violations.append((trial, v, ref))
    # non-multiplicativity witness: a conformal product of distorting factors
    a = np.diag([4.0, 1.0])
    b = np.array([[0.0, -1.0], [4.0, 0.0]])
    c_a = hypframe.coeccentricity(MatrixCocycle([a]), 1).from_conorm_over_norm
    c_b = hypframe.coeccentricity(MatrixCocycle([b]), 1).from_conorm_over_norm
    c_ab = hypframe.coeccentricity(MatrixCocycle([b, a]), 2).from_conorm_over_norm
    if abs(c_ab - c_a * c_b) <= 0.1:
        violations.append(("witness", c_ab, c_a * c_b))
    finish("2 (co-eccentricity identities)", t0, 5.0, violations)


def test_criterion_3_apriori_suite(henon_orbit20):
    t0 = time.time()
    rng = np.random.default_rng(3003)
    violations = []
    for trial in range(1000):
        rep = bounds.verify_apriori_all(random_cocycle(rng, max_len=15))
        if not rep.verdict:
            violations.append((trial, rep.first_failure()))
    rep = bounds.verify_apriori_all(henon_orbit20)
    if not rep.verdict:
        violations.append(("henon", rep.first_failure()))
    finish("3 (assumption-free drift bounds)", t0, 120.0, violations)


def test_criterion_4_certificate_and_convergence(henon_orbit20, diag_orbit):
    t0 = time.time()
    violations = []
    ledger = fit_constants(henon_orbit20, Flavor.SINGULAR_II, 1.05)
    cert = bounds.check_quasi_hyperbolic(henon_orbit20, ledger)
    if not cert.verdict:
        violations.append(("henon certificate", cert.first_failure()))
    rep = bounds.verify_explicit_convergence(henon_orbit20, ledger)
    bad = [r for r in rep.rows if r.margin < 0.0]
    if bad:
        violations.append(("henon envelopes", bad[0]))
    for flavor in (Flavor.SINGULAR_II, Flavor.SINGULAR_I):
        led = fit_constants(diag_orbit, flavor, 1.05)
        rep = bounds.verify_explicit_convergence(diag_orbit, led)
        bad = [r for r in rep.rows if r.margin < 0.0]
        if bad:
            violations.append((f"diagonal {flavor.value}", bad[0]))
    finish("4 (certificate and convergence envelopes)", t0, 30.0, violations)


def test_criterion_5_auxiliary_constants():
    t0 = time.time()
    from test_certificate import nonsingular_ledger, random_valid_ledger

    violations = []
    led = nonsingular_ledger(c=1e-6)
    aux = auxiliary_constants(led)
    if abs(aux.Q0 - SQRT2) > 1e-6 or abs(aux.K1 - SQRT2) > 1e-6:
        violations.append(("limit", aux.Q0, aux.K1))
    rng = np.random.default_rng(5005)
    flavors = [Flavor.NONSINGULAR, Flavor.SINGULAR_I, Flavor.SINGULAR_II, Flavor.SINGULAR_BOTH]
    for trial in range(100):
        led = random_valid_ledger(rng, flavors[trial % 4])
        aux = auxiliary_constants(led)
        aux_half = auxiliary_constants(led.with_c(led.c / 2.0))
        for name, before in aux.as_dict().items():
            after = aux_half.as_dict()[name]
            if before is None:
                continue
            if not (before > 0.0 and math.isfinite(before)):
                violations.append((trial, name, "not positive finite"))
            if after > before * (1.0 + 1e-12):
                violations.append((trial, name, "not monotone"))
    finish("5 (auxiliary constants)", t0, 5.0, violations)


def test_criterion_6_norm_brackets():
    t0 = time.time()
    rng = np.random.default_rng(6006)
    violations = []
    for trial in range(1000):
        n = 2 + trial % 3
        rep = bounds.bilinear_column_bounds(
            matrix=rng.standard_normal((n, n)),
            bilinear=rng.standard_normal((n, n, n)),
            v=rng.standard_normal(n),
            rng=rng,
            samples=1500,
        )
        if not rep.verdict:
            violations.append((trial, rep.first_failure()))
    from conftest import make_cubic_map

    for trial in range(500):
        spec = make_cubic_map(rng)
        p = rng.uniform(-1, 1, size=2)
        v = rng.uniform(-1, 1, size=2)
        rep = bounds.d2_contraction_identity(spec, p, v)
        if not rep.verdict:
            violations.append(("identity", trial))
    finish("6 (column/bilinear norm brackets)", t0, 60.0, violations)


def test_criterion_7_slow_variation(henon):
    t0 = time.time()
    violations = []
    orbit8 = compute_orbit(henon, HENON_FIXTURE, 8)
    ledger = fit_constants(orbit8, Flavor.SINGULAR_II, 1.05)
    for k in range(1, 9):
        orbit = compute_orbit(henon, HENON_FIXTURE, k)
        rep = bounds.verify_slow_variation(orbit, ledger)
        if not rep.verdict:
            violations.append((k, rep.first_failure()))
    finish("7 (slow-variation chain)", t0, 120.0, violations)


def test_criterion_8_foliations(henon):
    t0 = time.time()
    violations = []
    rect = (-0.6, 0.6, -0.3, 0.3)
    stable = foliation_grid(henon, rect, 2, 0.3, "stable", 0.1, 1e-3)
    unstable = foliation_grid(henon, rect, 2, 0.3, "unstable", 0.1, 1e-3)
    for cs, cu in zip(stable.curves, unstable.curves):
        if abs(float(np.dot(cs.seed_direction, cu.seed_direction))) > 1e-9:
            violations.append(("seed orthogonality", cs.seed))
    for seed in ([0.0, 0.0], [0.2, 0.1], [-0.3, 0.05]):
        angle = pushforward_seed_angle(henon, np.array(seed), 2, 2)
        if abs(angle - math.pi / 2) > 1e-3:
            violations.append(("image orthogonality", seed, angle))
    witnessed = any(
        abs(pushforward_seed_angle(henon, np.array(seed), 2, 1) - math.pi / 2) > 0.1
        for seed in ([0.0, 0.0], [0.2, 0.1], [-0.3, 0.05], [0.5, 0.0])
    )
    if not witnessed:
        violations.append(("no intermediate non-orthogonality witness",))
    ends = {}
    for st in (0.02, 0.01, 0.005):
        ends[st] = integrate_curve(henon, np.array([0.0, 0.0]), 1, "stable", 0.48, st).endpoint
    ratio = np.linalg.norm(ends[0.02] - ends[0.01]) / np.linalg.norm(ends[0.01] - ends[0.005])
    if ratio < 8.0:
        violations.append(("integrator order", ratio))
    finish("8 (foliations)", t0, 60.0, violations)


def test_criterion_9_determinism(tmp_path):
    import subprocess
    import sys

    t0 = time.time()
    henon_args = [
        "--map", "henon", "--a", "1.4", "--b", "0.3",
        "--x0", repr(float(HENON_FIXTURE[0])), "--y0", repr(float(HENON_FIXTURE[1])),
    ]

    def battery(out):
        # a fresh interpreter per run: byte-identity must not depend on
        # any in-process state
        commands = [
            ["orbit", *henon_args, "--k", "10"],
            ["frames", *henon_args, "--k", "10"],
            ["certify", *henon_args, "--k", "12", "--flavor", "II"],
            ["verify-convergence", *henon_args, "--k", "10", "--flavor", "II"],
            ["verify-variation", *henon_args, "--k", "6", "--flavor", "II"],
            ["oracle-check", "--seed", "7", "--trials", "100", "--grid-n", "100001"],
            ["scan-constants", "--flavor", "II", "--lambda-values", "1.2,1.5",
             "--gamma-values", "1.5,2.0", "--c-values", "0.05,0.2,1.0",
             "--b-values", "0.5,1.0"],
            ["foliate", "--map", "henon", "--a", "1.4", "--b", "0.3", "--k", "1",
             "--rect=-0.5,0.5,-0.3,0.3", "--spacing", "0.25", "--field", "stable",
             "--length", "0.1", "--step", "0.002"],
        ]
        script = (
            "import sys\nfrom hypcoords.cli import main\n"
            "for argv in " + repr(commands) + ":\n"
            "    code = main(argv + ['--out-dir', sys.argv[1]])\n"
            "    assert code == 0, (argv, code)\n"
        )
        subprocess.run([sys.executable, "-c", script, out], check=True)

    d1, d2 = str(tmp_path / "run1"), str(tmp_path / "run2")
    battery(d1)
    battery(d2)
    names = [
        "orbit.csv", "frames.csv", "ledger.txt", "certificate.csv", "certificate.json",
        "apriori_convergence.csv", "apriori_convergence.json",
        "explicit_convergence.csv", "explicit_convergence.json",
        "slow_variation.csv", "slow_variation.json",
        "oracle_check.json", "scan.csv", "curves.csv", "curves.svg",
    ]
    match, mismatch, errors = filecmp.cmpfiles(d1, d2, names, shallow=False)
    violations = []
    if mismatch or errors or set(match) != set(names):
        violations.append((mismatch, errors))
    finish("9 (byte-identical reports)", t0, 120.0, violations)
