import math

import numpy as np
import pytest

from hypcoords.certificate import (
    ConstantsLedger,
    Flavor,
    auxiliary_constants,
    check_quasi_hyperbolic,
    feasibility_region_scan,
    fit_constants,
    read_ledger,
    structural_violations,
    write_ledger,
)
from hypcoords.cocycle import compute_orbit
from hypcoords.errors import DomainViolation, Infeasible, InvalidLedger
from hypcoords.planar_maps import linear, make_map, rotation

from conftest import (
    ISLAND_K,
    ISLAND_START,
    STANDARD_FIXTURE,
    STANDARD_K,
    evaluate,
)


def nonsingular_ledger(**overrides):
    fields = dict(
        flavor=Flavor.NONSINGULAR,
        Gamma=2.1,
        Gamma_tilde=1.0,
        lam=1.9,
        b=1.5,
        c=0.3,
        c_tilde=1.0,
        B=1.0,
        B_tilde=0.25,
        C=1.0,
        D=1.0,
    )
    fields.update(overrides)
    return ConstantsLedger(**fields)


def bypass_ledger(**fields):
    """Construct a ledger without structural validation (for error paths)."""
    led = object.__new__(ConstantsLedger)
    for key, value in fields.items():
        object.__setattr__(led, key, value)
    return led


def test_hand_checked_diagonal_certificate(diag_orbit):
    report = check_quasi_hyperbolic(diag_orbit, nonsingular_ledger())
    assert report.verdict
    assert report.first_failure is None
    # 2^i sits strictly inside (1.9^i, 2.1^i) and 4^-i <= 0.3^i
    by_name = {}
    for row in report.rows:
        by_name.setdefault(row.name, []).append(row)
    assert all(r.margin > 0 for r in by_name["norm_lower"])
    assert all(r.margin > 0 for r in by_name["norm_upper"])
    assert all(r.margin >= 0 for r in by_name["coecc_decay"])


def test_identity_orbit_fails_at_first_index():
    orbit = compute_orbit(linear(), np.array([0.2, 0.2]), 5)
    report = check_quasi_hyperbolic(orbit, nonsingular_ledger())
    assert not report.verdict
    assert report.first_failure[0] == 1
    # the co-eccentricity of the identity never drops below 1
    failed_at_one = {r.name for r in report.rows if not r.passed and r.i == 1}
    assert "coecc_decay" in failed_at_one


def test_fitted_henon_certificate_passes(henon_orbit20):
    ledger = fit_constants(henon_orbit20, Flavor.SINGULAR_II, 1.05)
    assert ledger.c_tilde == 1.0 and ledger.Gamma_tilde == 1.0
    report = check_quasi_hyperbolic(henon_orbit20, ledger)
    assert report.verdict


def test_fit_diagonal_both_flavors(diag_orbit):
    led2 = fit_constants(diag_orbit, Flavor.SINGULAR_II, 1.05)
    assert math.isclose(led2.lam, 2.0 / 1.05, rel_tol=1e-12)
    assert math.isclose(led2.Gamma, 2.0 * 1.05, rel_tol=1e-12)
    assert math.isclose(led2.c, 1.05 / 4.0, rel_tol=1e-12)
    assert led2.c_tilde == 1.0 and led2.Gamma_tilde == 1.0
    assert check_quasi_hyperbolic(diag_orbit, led2).verdict

    led1 = fit_constants(diag_orbit, Flavor.SINGULAR_I, 1.05)
    assert check_quasi_hyperbolic(diag_orbit, led1).verdict


def test_fit_rotation_infeasible():
    orbit = compute_orbit(rotation(0.9), np.array([0.1, 0.0]), 8)
    with pytest.raises(Infeasible) as err:
        fit_constants(orbit, Flavor.SINGULAR_II, 1.05)
    assert "c < 1" in str(err.value)


def test_standard_map_island_vs_chaotic_segment():
    island = make_map("standard", K=ISLAND_K)
    q = ISLAND_START.copy()
    for _ in range(50):
        q = evaluate(island, q)
    orbit = compute_orbit(island, q, 12)
    with pytest.raises(Infeasible):
        fit_constants(orbit, Flavor.SINGULAR_II, 1.05)

    chaotic = make_map("standard", K=STANDARD_K)
    orbit = compute_orbit(chaotic, STANDARD_FIXTURE, 12)
    ledger = fit_constants(orbit, Flavor.SINGULAR_II, 1.05)
    assert check_quasi_hyperbolic(orbit, ledger).verdict
    # area preserving: the determinant bound is just above 1
    assert math.isclose(ledger.b, 1.05, rel_tol=1e-9)


def test_fit_minimality_witness(henon_orbit20):
    # tightening any fitted rate by the squared slack flips a per-index check
    eta = 1.05
    ledger = fit_constants(henon_orbit20, Flavor.SINGULAR_II, eta)
    tightening = {
        "lam": ledger.lam * eta**2,
        "Gamma": ledger.Gamma / eta**2,
        "c": ledger.c / eta**2,
        "b": ledger.b / eta**2,
        "D": ledger.D / eta**2,
    }
    for name, value in tightening.items():
        fields = dict(
            flavor=ledger.flavor,
            Gamma=ledger.Gamma,
            Gamma_tilde=ledger.Gamma_tilde,
            lam=ledger.lam,
            b=ledger.b,
            c=ledger.c,
            c_tilde=ledger.c_tilde,
            B=ledger.B,
            B_tilde=ledger.B_tilde,
            C=ledger.C,
            D=ledger.D,
        )
        fields[name] = value
        tightened = bypass_ledger(**fields)
        report = check_quasi_hyperbolic(henon_orbit20, tightened)
        assert not report.verdict, name


def test_aux_constants_limits_and_values():
    # c -> 0 limit of the leading constants is sqrt(2)
    led = nonsingular_ledger(c=1e-6)
    aux = auxiliary_constants(led)
    assert abs(aux.Q0 - math.sqrt(2)) <= 1e-6
    assert abs(aux.K1 - math.sqrt(2)) <= 1e-6

    led = nonsingular_ledger(Gamma=2.5, lam=2.0, b=1.0, c=0.5)
    aux = auxiliary_constants(led)
    assert math.isclose(aux.Q0, math.sqrt(8.0 / 3.0), rel_tol=1e-12)
    assert math.isclose(aux.K1, (8.0 / 3.0) / math.sqrt(2.0), rel_tol=1e-12)
    assert aux.Q1 is None and aux.Qt1 is not None
    assert aux.branches == ("II",)


def test_aux_constants_domain_violation_on_bypassed_ledger():
    led = bypass_ledger(
        flavor=Flavor.SINGULAR_I,
        Gamma=2.0,
        Gamma_tilde=1.5,
        lam=1.2,
        b=0.5,
        c=0.5,  # lambda <= Gamma * Gamma_tilde * c
        c_tilde=1.0,
        B=1.0,
        B_tilde=1.0,
        C=1.0,
        D=1.0,
    )
    with pytest.raises(DomainViolation) as err:
        auxiliary_constants(led)
    assert "lambda - Gamma*Gamma_tilde*c" in str(err.value)


def random_valid_ledger(rng, flavor):
    while True:
        lam = 0.6 + 1.4 * rng.random()
        Gamma = max(lam, 1.0) * (1.02 + 0.8 * rng.random())
        Gt = 1.0 + rng.random() if flavor is not Flavor.NONSINGULAR else 1.0
        ct = 0.3 + 0.7 * rng.random() if flavor is not Flavor.NONSINGULAR else 1.0
        if flavor is Flavor.NONSINGULAR:
            Gt = ct = 1.0
        c_caps = []
        b_caps = [Gamma * Gamma * Gt]
        if flavor.has_type_one:
            c_caps.append((lam / (Gamma * Gt)) ** 3)
            b_caps.append(lam * lam / Gt)
        if flavor.has_type_two:
            c_caps.append(lam * lam * ct * ct / (Gamma * Gamma * Gt))
            b_caps.append(lam * lam * ct)
        c = 0.9 * min(c_caps) * rng.random()
        b = 0.9 * min(b_caps) * rng.random()
        B = 1.0 + rng.random()
        fields = dict(
            flavor=flavor,
            Gamma=Gamma,
            Gamma_tilde=Gt,
            lam=lam,
            b=b,
            c=c,
            c_tilde=ct,
            B=B,
            B_tilde=0.1 + 0.9 * rng.random(),
            C=0.1 + 0.9 * rng.random(),
            D=1.0 + 2.0 * rng.random(),
        )
        if c <= 0.0 or b <= 0.0:
            continue
        if structural_violations(**fields):
            continue
        return ConstantsLedger(**fields)


def test_aux_constants_monotone_in_c():
    rng = np.random.default_rng(7)
    flavors = [Flavor.NONSINGULAR, Flavor.SINGULAR_I, Flavor.SINGULAR_II, Flavor.SINGULAR_BOTH]
    for trial in range(100):
        flavor = flavors[trial % len(flavors)]
        led = random_valid_ledger(rng, flavor)
        aux = auxiliary_constants(led)
        aux_half = auxiliary_constants(led.with_c(led.c / 2.0))
        for name, before in aux.as_dict().items():
            after = aux_half.as_dict()[name]
            if before is None:
                assert after is None
                continue
            assert before > 0.0 and math.isfinite(before)
            if name == "Q":
                assert after == before
            else:
                assert after <= before * (1.0 + 1e-12), name


def test_nonsingular_equals_reduced_type_two(diag_orbit):
    base = dict(
        Gamma=2.1,
        Gamma_tilde=1.0,
        lam=1.9,
        b=1.5,
        c=0.3,
        c_tilde=1.0,
        B=1.0,
        B_tilde=0.25,
        C=1.0,
        D=1.0,
    )
    rep_ns = check_quasi_hyperbolic(diag_orbit, ConstantsLedger(flavor=Flavor.NONSINGULAR, **base))
    rep_ii = check_quasi_hyperbolic(diag_orbit, ConstantsLedger(flavor=Flavor.SINGULAR_II, **base))
    assert len(rep_ns.rows) == len(rep_ii.rows)
    for a, b_ in zip(rep_ns.rows, rep_ii.rows):
        assert (a.i, a.name, a.log_lhs, a.log_rhs, a.passed) == (
            b_.i,
            b_.name,
            b_.log_lhs,
            b_.log_rhs,
            b_.passed,
        )


def test_reciprocal_root_tie_is_consistent():
    # choosing c_tilde = Gamma_tilde^(-1/2) stays inside the type-(II) chain
    rng = np.random.default_rng(8)
    for _ in range(50):
        Gt = 1.0 + 3.0 * rng.random()
        ct = Gt**-0.5
        lam = 0.8 + 1.2 * rng.random()
        Gamma = max(lam, 1.0) * (1.05 + 0.5 * rng.random())
        mid = lam * lam * ct * ct / (Gamma * Gamma * Gt)
        c = 0.9 * mid * rng.random()
        b = 0.9 * lam * lam * ct * rng.random()
        if c <= 0 or b <= 0:
            continue
        v = structural_violations(Flavor.SINGULAR_II, Gamma, Gt, lam, b, c, ct)
        assert not v
        assert c < mid <= ct <= 1.0


def test_feasibility_scan_examples():
    cells = feasibility_region_scan(
        Flavor.SINGULAR_II, [1.5], [1.5], [0.1], [1.0], [1.0], [1.0]
    )
    assert len(cells) == 1 and cells[0].feasible

    cells = feasibility_region_scan(
        Flavor.SINGULAR_II, [1.5], [1.5], [1.0], [1.0], [1.0], [1.0]
    )
    assert not cells[0].feasible  # c >= 1 never admissible

    # boundary cell b = lambda^2 * c_tilde exactly: strict inequality fails
    cells = feasibility_region_scan(
        Flavor.SINGULAR_II, [1.5], [2.0], [0.1], [2.25], [1.0], [1.0]
    )
    assert not cells[0].feasible
    assert "b < lambda^2*c_tilde" in cells[0].violated


def test_structural_inequalities_beyond_float_products():
    # Gamma^2 and lambda^2 overflow a double here, yet every inequality holds
    for flavor in Flavor:
        assert structural_violations(flavor, 1.05e155, 1.0, 9.5e154, 1.05e305, 1.05e-5, 1.0) == []
    # an exact tie still violates the strict inequality
    v = structural_violations(Flavor.SINGULAR_II, 2.0**201, 1.0, 2.0**200, 2.0**400, 1e-5, 1.0)
    assert v == ["b < lambda^2*c_tilde"]


def test_ledger_io_round_trip(tmp_path, henon_orbit20):
    ledger = fit_constants(henon_orbit20, Flavor.SINGULAR_II, 1.05)
    path = tmp_path / "ledger.txt"
    write_ledger(str(path), ledger)
    back = read_ledger(str(path))
    assert back == ledger


def test_invalid_ledger_rejected_at_construction():
    with pytest.raises(InvalidLedger):
        nonsingular_ledger(b=4.0)  # b < lambda^2 fails
    with pytest.raises(InvalidLedger):
        nonsingular_ledger(c=0.9)  # c < lambda^2 / Gamma^2 fails


def test_fit_henon_both_flavors(henon_orbit20):
    ledger = fit_constants(henon_orbit20, Flavor.SINGULAR_BOTH, 1.05)
    assert check_quasi_hyperbolic(henon_orbit20, ledger).verdict
    aux = auxiliary_constants(ledger)
    assert aux.branches == ("I", "II")
    # the two-branch maximum dominates each branch alone
    assert aux.K2 >= aux.K1 * (aux.Q3 + aux.Q4 + aux.Q) - 1e-12
    assert aux.K2 >= aux.K1 * (aux.Qt3 + aux.Qt4 + aux.Q) - 1e-12


LORENZ_FIXTURE = np.array([0.426543, 0.458993])


def test_lorenz2d_singular_certificate():
    # a genuinely singular-flavored certificate: the step-norm cap needs
    # Gamma_tilde well above 1 and lambda may sit below 1
    from hypcoords.planar_maps import lorenz2d

    orbit = compute_orbit(lorenz2d(), LORENZ_FIXTURE, 8)
    ledger = fit_constants(orbit, Flavor.SINGULAR_I, 1.1)
    assert ledger.Gamma_tilde > 1.5
    assert ledger.lam < 1.0
    assert check_quasi_hyperbolic(orbit, ledger).verdict
    aux = auxiliary_constants(ledger)
    assert aux.branches == ("I",)
    assert all(v > 0 for v in (aux.Q1, aux.Q2, aux.Q3, aux.Q4, aux.Q, aux.K2))


def test_lorenz2d_one_step_floor_below_one():
    # widen the fitted type-(I) ledger into a dual-flavor one whose
    # one-step co-eccentricity floor genuinely decays (c_tilde < 1)
    import dataclasses

    from hypcoords.planar_maps import lorenz2d

    orbit = compute_orbit(lorenz2d(), LORENZ_FIXTURE, 8)
    base = fit_constants(orbit, Flavor.SINGULAR_I, 1.1)
    ct = 0.9
    coc = orbit.cocycle
    log_bt = min(
        0.0, min(coc.step_log_coecc(j) - j * math.log(ct) for j in range(8))
    )
    ledger = dataclasses.replace(
        base, flavor=Flavor.SINGULAR_BOTH, c_tilde=ct, B_tilde=math.exp(log_bt)
    )
    report = check_quasi_hyperbolic(orbit, ledger)
    assert report.verdict
    onestep = [r for r in report.rows if r.name == "onestep_coecc"]
    assert len(onestep) == 8 and all(r.passed for r in onestep)
