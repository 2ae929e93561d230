import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from hypcoords.certificate import (
    LOG_STRICT_MARGIN,
    ConstantsLedger,
    Flavor,
    auxiliary_constants,
    check_quasi_hyperbolic,
    feasibility_region_scan,
    fit_constants,
    read_ledger,
    structural_violations,
    write_ledger,
    _step_log_d2_norms,
)
from hypcoords.cocycle import MatrixCocycle, OrbitSegment, compute_orbit
from hypcoords.errors import DomainViolation, HypcoordsError, Infeasible, InvalidInput, InvalidLedger
from hypcoords.planar_maps import linear, lorenz2d, make_map, rotation

from conftest import (
    HENON_FIXTURE,
    HENON_START_A,
    HENON_START_B,
    ISLAND_K,
    ISLAND_START,
    STANDARD_FIXTURE,
    STANDARD_K,
    evaluate,
)


@pytest.mark.parametrize("slack", [1.0, 0.5, -2.0, math.nan, math.inf])
def test_fit_slack_must_be_finite_and_above_one(slack):
    orbit = compute_orbit(make_map("standard", K=STANDARD_K), STANDARD_FIXTURE, 4)
    with pytest.raises(InvalidInput, match=rf"^slack must be finite and > 1, got {slack!r}$"):
        fit_constants(orbit, Flavor.SINGULAR_II, slack)


def test_unknown_flavor_is_invalid_input():
    with pytest.raises(InvalidInput, match=r"^unknown flavor 'III'; use nonsingular, I, II or both$"):
        Flavor.parse("III")
    assert Flavor.parse(" Both ") is Flavor.SINGULAR_BOTH


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
    assert report.first_failure() is None
    # 2^i sits strictly inside (1.9^i, 2.1^i) and 4^-i <= 0.3^i
    by_name = {}
    for row in report.rows:
        by_name.setdefault(row.check, []).append(row)
    assert all(r.margin > 0 for r in by_name["norm_lower"])
    assert all(r.margin > 0 for r in by_name["norm_upper"])
    assert all(r.margin >= 0 for r in by_name["coecc_decay"])


def test_identity_orbit_fails_at_first_index():
    orbit = compute_orbit(linear(), np.array([0.2, 0.2]), 5)
    report = check_quasi_hyperbolic(orbit, nonsingular_ledger())
    assert not report.verdict
    assert report.first_failure().index == (1,)
    # the co-eccentricity of the identity never drops below 1
    failed_at_one = {r.check for r in report.rows if not r.passed and r.index == (1,)}
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
        assert (a.index, a.check, a.lhs, a.rhs, a.passed) == (b_.index, b_.check, b_.lhs, b_.rhs, b_.passed)


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


def test_a_ledger_with_an_infinite_constant_is_invalid(tmp_path, henon_orbit20):
    path = tmp_path / "ledger.txt"
    write_ledger(str(path), fit_constants(henon_orbit20, Flavor.SINGULAR_II, 1.05))
    path.write_text(re.sub(r"(?m)^D = .*$", "D = inf", path.read_text()))
    with pytest.raises(InvalidLedger, match="^D < inf$"):
        read_ledger(str(path))


def test_a_second_derivative_beyond_the_double_range_is_infeasible():
    # sqrt(2) times the second-partial norm 1.7e308 is inf, and so would be
    # the fitted D: no ledger holds it, and the fit warns of nothing
    big = np.array([[1.7e308, 0.0], [0.0, 0.0]])
    steps = [np.diag([2.0, 0.5])] * 3
    orbit = OrbitSegment(linear(m11=2.0, m22=0.5), np.zeros((4, 2)), [(big, np.zeros((2, 2)))] * 3,
                         MatrixCocycle(steps))
    for flavor in Flavor:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(Infeasible, match="^D < inf$"):
                fit_constants(orbit, flavor, 1.05)


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
    onestep = [r for r in report.rows if r.check == "onestep_coecc"]
    assert len(onestep) == 8 and all(r.passed for r in onestep)


def _per_row_certificate(orbit, ledger):
    """The certificate rows as one object per row, each with its own strict
    or non-strict margin rule: the reference the ``BoundReport`` rows of
    ``check_quasi_hyperbolic`` must equal bit for bit, as
    (index, check, lhs, rhs, margin, passed) with floats in hex."""
    coc = orbit.cocycle
    lg = {name: math.log(val) for name, val in ledger.as_dict().items()}
    log_d2 = _step_log_d2_norms(orbit)
    rows = []

    def add(i, name, log_lhs, log_rhs, strict):
        margin = log_rhs - log_lhs
        passed = margin > LOG_STRICT_MARGIN if strict else margin >= -LOG_STRICT_MARGIN
        rows.append(((i,), name, log_lhs.hex(), log_rhs.hex(), margin.hex(), passed))

    for i in range(1, coc.k + 1):
        add(i, "norm_lower", lg["C"] + i * lg["lambda"], coc.log_norm[i], strict=True)
        add(i, "norm_upper", coc.log_norm[i], lg["D"] + i * lg["Gamma"], strict=True)
        add(i, "coecc_decay", coc.log_coecc(i), lg["B"] + i * lg["c"], strict=False)
        add(i, "coecc_below_one", lg["B"] + i * lg["c"], 0.0, strict=True)
        step_cap = lg["D"] + lg["Gamma"] + (i - 1) * lg["Gamma_tilde"]
        add(i, "step_norm", coc.step_log_norm[i - 1], step_cap, strict=True)
        add(i, "step_second_norm", log_d2[i - 1], step_cap, strict=True)
        add(i, "step_det", coc.step_log_absdet[i - 1], lg["b"], strict=False)
        if ledger.flavor.has_type_two:
            add(i, "onestep_coecc", lg["B_tilde"] + (i - 1) * lg["c_tilde"], coc.step_log_coecc(i - 1),
                strict=False)
    return rows


def _certificate_cases():
    """(orbit, ledger) pairs for every flavor: the Henon fixture at k = 80,
    lorenz2d, and 50 random Henon attractor orbits, each with the ledger fitted
    to it where the fit is feasible and the one fitted to a short fixture orbit
    (which fails on many of them) otherwise."""
    henon = make_map("henon", a=1.4, b=0.3)
    orbits = [compute_orbit(henon, HENON_FIXTURE, 80), compute_orbit(lorenz2d(), LORENZ_FIXTURE, 8)]
    rng = np.random.default_rng(34)
    for _ in range(50):
        start = HENON_FIXTURE
        for _ in range(int(rng.integers(1, 400))):
            start = evaluate(henon, start)
        orbits.append(compute_orbit(henon, start, int(rng.integers(1, 60))))
    short = compute_orbit(henon, HENON_FIXTURE, 10)
    for flavor in Flavor:
        fallback = fit_constants(short, flavor, 1.05)
        for orbit in orbits:
            try:
                yield orbit, fit_constants(orbit, flavor, 1.05)
            except Infeasible:
                yield orbit, fallback


def test_certificate_rows_equal_the_per_row_rule_bit_for_bit():
    verdicts = set()
    for orbit, ledger in _certificate_cases():
        report = check_quasi_hyperbolic(orbit, ledger)
        rows = [(r.index, r.check, r.lhs.hex(), r.rhs.hex(), r.margin.hex(), r.passed) for r in report.rows]
        assert rows == _per_row_certificate(orbit, ledger)
        assert report.verdict == all(r[-1] for r in rows)
        verdicts.add(report.verdict)
    assert verdicts == {True, False}


def _reference_fitted(name, log_value):
    try:
        return math.exp(log_value)
    except OverflowError:
        raise Infeasible(f"{name} = exp({log_value!r}) exceeds the double range") from None


def _reference_fit(orbit, flavor, slack):
    """``fit_constants`` as a walk over the orders in Python, a list per
    quantity and a branch per case: the reference the array pass must equal
    bit for bit, ledger and Infeasible message alike."""
    if not 1.0 < slack < math.inf:
        raise InvalidInput(f"slack must be finite and > 1, got {slack!r}")
    coc = orbit.cocycle
    k = coc.k
    log_eta = math.log(slack)

    rates_norm = [coc.log_norm[i] / i for i in range(1, k + 1)]
    log_lam = min(rates_norm) - log_eta
    log_gamma = max(max(rates_norm), math.log(1.0 + 1e-6)) + log_eta
    rates_cc = [coc.log_coecc(i) / i for i in range(1, k + 1)]
    if any(math.isinf(r) for r in rates_cc):
        raise Infeasible("co-eccentricity vanishes at some order (singular product)")
    log_c = max(rates_cc) + log_eta
    if log_c >= 0.0:
        raise Infeasible("c < 1 fails: co-eccentricity does not decay")

    log_b = max(coc.step_log_absdet) + log_eta
    if log_b == float("-inf"):
        raise Infeasible("step determinant vanishes")

    step_caps = [max(n, d2) for n, d2 in zip(coc.step_log_norm, _step_log_d2_norms(orbit))]

    fit_tilde = flavor is not Flavor.NONSINGULAR and orbit.spec.has_singular_set

    log_d = max(0.0, step_caps[0] + log_eta - log_gamma)
    if fit_tilde:
        log_gamma_tilde = max(
            [0.0] + [(step_caps[j] + log_eta - log_d - log_gamma) / j for j in range(1, k)]
        )
    else:
        log_gamma_tilde = 0.0
        log_d = max(0.0, max(step_caps) + log_eta - log_gamma)

    if flavor.has_type_two:
        if fit_tilde:
            step_cc = [coc.step_log_coecc(j) for j in range(k)]
            if any(math.isinf(s) for s in step_cc):
                raise Infeasible("one-step co-eccentricity vanishes")
            log_ct = min(0.0, min(step_cc[j] / j for j in range(1, k)) - log_eta) if k > 1 else 0.0
        else:
            log_ct = 0.0
    else:
        log_ct = 0.0

    log_B = max(0.0, max(coc.log_coecc(i) - i * log_c for i in range(1, k + 1)))
    log_C = min(0.0, min(coc.log_norm[i] - i * log_lam for i in range(1, k + 1)) - log_eta)
    if flavor.has_type_two:
        log_Bt = min([0.0] + [coc.step_log_coecc(j) - j * log_ct for j in range(k)])
        if math.isinf(log_Bt):
            raise Infeasible("one-step co-eccentricity vanishes")
    else:
        log_Bt = 0.0

    try:
        ledger = ConstantsLedger(
            flavor=flavor,
            Gamma=_reference_fitted("Gamma", log_gamma),
            Gamma_tilde=_reference_fitted("Gamma_tilde", log_gamma_tilde),
            lam=_reference_fitted("lambda", log_lam),
            b=_reference_fitted("b", log_b),
            c=_reference_fitted("c", log_c),
            c_tilde=_reference_fitted("c_tilde", log_ct),
            B=_reference_fitted("B", log_B),
            B_tilde=_reference_fitted("B_tilde", log_Bt),
            C=_reference_fitted("C", log_C),
            D=_reference_fitted("D", log_d),
        )
    except InvalidLedger as exc:
        raise Infeasible(exc.violations[0]) from None

    report = check_quasi_hyperbolic(orbit, ledger)
    if not report.verdict:
        row = report.first_failure()
        raise Infeasible(f"{row.check} fails at i={row.index[0]}")
    return ledger


def _fit_outcome(fit, orbit, flavor, slack):
    """The ledger's constants in hex, or the Infeasible message."""
    try:
        return [value.hex() for value in fit(orbit, flavor, slack).as_dict().values()]
    except Infeasible as exc:
        return str(exc)


def _attractor_orbits(spec, start, count, max_k, rng):
    """``count`` orbits of random order up to ``max_k`` from random iterates of ``start``."""
    orbits = []
    while len(orbits) < count:
        for _ in range(int(rng.integers(1, 100))):
            start = evaluate(spec, start)
        try:
            orbits.append(compute_orbit(spec, start, int(rng.integers(1, max_k + 1))))
        except HypcoordsError:  # an orbit through the singular guard of lorenz2d
            pass
    return orbits


def test_fit_equals_the_per_order_reference_bit_for_bit():
    henon = make_map("henon", a=1.4, b=0.3)
    standard = make_map("standard", K=STANDARD_K)
    rng = np.random.default_rng(35)
    orbits = [
        compute_orbit(henon, start, k)
        for start in (HENON_FIXTURE, HENON_START_A, HENON_START_B) for k in (1, 2, 5, 20, 80)
    ]
    orbits += [compute_orbit(lorenz2d(), LORENZ_FIXTURE, k) for k in (1, 2, 8)]
    orbits += [compute_orbit(standard, STANDARD_FIXTURE, k) for k in (1, 2, 5, 12, 40)]
    orbits += _attractor_orbits(henon, HENON_FIXTURE, 20, 80, rng)
    orbits += _attractor_orbits(lorenz2d(), LORENZ_FIXTURE, 30, 40, rng)
    orbits += _attractor_orbits(standard, STANDARD_FIXTURE, 10, 40, rng)
    # Gamma_tilde and c_tilde are fitted only on a map that declares a
    # singular set; no lorenz2d orbit has a type-II ledger, these do
    declared = dataclasses.replace(standard, has_singular_set=True)
    orbits += _attractor_orbits(declared, STANDARD_FIXTURE, 20, 40, rng)
    for diagonals in ([(2.7, 0.06), (1.2, 0.9)], [(3.7, 0.07), (1.7, 1.1)]):
        steps = [np.diag(d) for d in diagonals]
        seconds = [(0.5 * j * np.eye(2), np.zeros((2, 2))) for j in range(len(steps))]
        orbits.append(OrbitSegment(declared, np.zeros((len(steps) + 1, 2)), seconds, MatrixCocycle(steps)))
    fitted = set()
    for orbit in orbits:
        for flavor in Flavor:
            for slack in (1.05, 1.5):
                outcome = _fit_outcome(fit_constants, orbit, flavor, slack)
                assert outcome == _fit_outcome(_reference_fit, orbit, flavor, slack)
                fitted.add(isinstance(outcome, list))
    assert fitted == {True, False}


# Each raise of the fit that some orbit reaches, with a constant step matrix
# (the linear map at the origin), its order and a slack that reach it in
# every flavor.  Unreachable: "step determinant vanishes" and "one-step
# co-eccentricity vanishes", since a singular step makes every later order
# singular, and an overflow of any constant but Gamma and b (lambda <= Gamma;
# c, c_tilde, B_tilde and C are at most 1 and B is 1 up to rounding; a finite
# step cap is at most the largest double, which D and Gamma_tilde stay below;
# an infinite one, from second partials, is "D < inf", tested above).
_FIT_RAISES = {
    "co-eccentricity vanishes at some order (singular product)": ([[1.0, 0.0], [0.0, 0.0]], 3, 1.05),
    "c < 1 fails: co-eccentricity does not decay": ([[0.0, -1.0], [1.0, 0.0]], 3, 1.05),
    "Gamma = exp(709.8046145942709) exceeds the double range": ([[1.75e308, 0.0], [0.0, 1e200]], 1, 1.05),
    "b = exp(1169.7620174051447) exceeds the double range": ([[1e308, 0.0], [0.0, 1e200]], 1, 1.05),
    "b > 0": ([[1e-100, 0.0], [0.0, 1e-300]], 1, 1.05),  # a structural inequality
    # the closing check: a slack whose log is below LOG_STRICT_MARGIN
    "norm_lower fails at i=1": ([[2.0, 0.0], [0.0, 2.0 * (1.0 - 5e-13)]], 3, 1.0 + 5e-14),
}


@pytest.mark.parametrize("message", list(_FIT_RAISES))
def test_every_reachable_fit_raise_equals_the_reference(message):
    step, k, slack = _FIT_RAISES[message]
    orbit = compute_orbit(linear(*np.ravel(step)), np.zeros(2), k)
    for flavor in Flavor:
        for fit in (fit_constants, _reference_fit):
            with pytest.raises(Infeasible, match=f"^{re.escape(message)}$"):
                fit(orbit, flavor, slack)
