"""Quasi-hyperbolicity certificates: the constants ledger and its checks.

A certificate for an orbit of length k is a tuple of positive rates
(Gamma, Gamma_tilde, lambda, b, c, c_tilde) plus prefactors (B, B_tilde,
C, D) such that for every 1 <= i <= k, in log form:

    C lambda^i < |DPhi^i| < D Gamma^i
    coecc_i    <= B c^i < 1
    |DPhi_step|, |D2Phi_step| < D Gamma Gamma_tilde^(i-1)
    |det DPhi_step| <= b

plus, for the singular type (II) flavor, a one-step co-eccentricity floor
coecc_step(i-1) >= B_tilde c_tilde^(i-1).  The non-singular flavor is the
special case c_tilde = Gamma_tilde = 1 and is represented that way
internally, so non-singular and reduced type-(II) ledgers produce
identical reports.

Structural inequalities between the constants (checked at construction)
guarantee that every auxiliary constant's denominator is positive.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import linalg2
from .cocycle import OrbitSegment, is_finite_real
from .errors import (
    BoundOverflow,
    ConfigError,
    DomainViolation,
    Infeasible,
    InvalidInput,
    InvalidLedger,
    parse_value,
    read_config,
)
from .report import BoundReport

LOG_STRICT_MARGIN = 1e-12  # log-units margin distinguishing < from <=

# Rates in this range keep every product of up to nine of them, and so every
# structural comparison, within the normal floats.
_FLOAT_RATES = (2.0**-100, 2.0**100)


class Flavor(enum.Enum):
    NONSINGULAR = "nonsingular"
    SINGULAR_I = "I"
    SINGULAR_II = "II"
    SINGULAR_BOTH = "both"

    @staticmethod
    def parse(text: str) -> "Flavor":
        key = text.strip().lower()
        aliases = {
            "nonsingular": Flavor.NONSINGULAR,
            "non-singular": Flavor.NONSINGULAR,
            "i": Flavor.SINGULAR_I,
            "ii": Flavor.SINGULAR_II,
            "both": Flavor.SINGULAR_BOTH,
        }
        if key not in aliases:
            raise InvalidInput(f"unknown flavor {text!r}; use nonsingular, I, II or both")
        return aliases[key]

    @property
    def has_type_one(self) -> bool:
        return self in (Flavor.SINGULAR_I, Flavor.SINGULAR_BOTH)

    @property
    def has_type_two(self) -> bool:
        return self in (Flavor.NONSINGULAR, Flavor.SINGULAR_II, Flavor.SINGULAR_BOTH)


def structural_violations(
    flavor: Flavor,
    Gamma: float,
    Gamma_tilde: float,
    lam: float,
    b: float,
    c: float,
    c_tilde: float,
    B: float = 1.0,
    B_tilde: float = 1.0,
    C: float = 1.0,
    D: float = 1.0,
) -> List[str]:
    """Names of the structural inequalities a candidate ledger violates.

    Every constant must be finite.  Comparisons at the ends of chained
    conditions are strict, interior comparisons non-strict, matching how the
    conditions are consumed (every auxiliary-constant denominator stays
    strictly positive).  Rates outside ``_FLOAT_RATES`` are compared as
    exact rationals, so that no product of them overflows or underflows.
    """
    v: List[str] = []
    for name, val in (
        ("Gamma", Gamma),
        ("Gamma_tilde", Gamma_tilde),
        ("lambda", lam),
        ("b", b),
        ("c", c),
        ("c_tilde", c_tilde),
    ):
        if not (val > 0.0 and math.isfinite(val)):
            v.append(f"{name} > 0")
    v += [f"{name} < inf" for name, val in (("B", B), ("B_tilde", B_tilde), ("C", C), ("D", D))
          if not math.isfinite(val)]
    if v:
        return v
    if not B >= 1.0:
        v.append("B >= 1")
    if not D >= 1.0:
        v.append("D >= 1")
    if not 0.0 < B_tilde <= 1.0:
        v.append("0 < B_tilde <= 1")
    if not 0.0 < C <= 1.0:
        v.append("0 < C <= 1")
    if not B * c < 1.0:
        v.append("B*c < 1")
    rates = (Gamma, Gamma_tilde, lam, b, c, c_tilde)
    if not all(_FLOAT_RATES[0] <= r <= _FLOAT_RATES[1] for r in rates):
        Gamma, Gamma_tilde, lam, b, c, c_tilde = map(Fraction, rates)

    if flavor is Flavor.NONSINGULAR:
        if not (Gamma_tilde == 1.0 and c_tilde == 1.0):
            v.append("nonsingular requires Gamma_tilde = c_tilde = 1")
        if not Gamma >= max(lam, 1.0):
            v.append("Gamma >= max(lambda, 1)")
        if not b < lam * lam:
            v.append("b < lambda^2")
        if not c < lam * lam / (Gamma * Gamma):
            v.append("c < lambda^2/Gamma^2")
        if not lam * lam / (Gamma * Gamma) <= 1.0:
            v.append("lambda^2/Gamma^2 <= 1")
        return v

    if not Gamma_tilde >= 1.0:
        v.append("Gamma_tilde >= 1")
    if flavor.has_type_one:
        if not Gamma > max(lam, 1.0):
            v.append("Gamma > max(lambda, 1)")
    else:
        if not Gamma >= max(lam, 1.0):
            v.append("Gamma >= max(lambda, 1)")
    if not b < Gamma * Gamma * Gamma_tilde:
        v.append("b < Gamma^2*Gamma_tilde")

    if flavor.has_type_one:
        if not b < lam * lam / Gamma_tilde:
            v.append("b < lambda^2/Gamma_tilde")
        ratio = (lam / (Gamma * Gamma_tilde)) ** 3
        if not c < ratio:
            v.append("c < lambda^3/(Gamma^3*Gamma_tilde^3)")
        if not c < 1.0:
            v.append("c < 1")

    if flavor.has_type_two:
        if not c_tilde <= 1.0:
            v.append("c_tilde <= 1")
        if not b < lam * lam * c_tilde:
            v.append("b < lambda^2*c_tilde")
        mid = lam * lam * c_tilde * c_tilde / (Gamma * Gamma * Gamma_tilde)
        if not c < mid:
            v.append("c < lambda^2*c_tilde^2/(Gamma^2*Gamma_tilde)")
        if not mid <= c_tilde:
            v.append("lambda^2*c_tilde^2/(Gamma^2*Gamma_tilde) <= c_tilde")
    return v


@dataclass(frozen=True)
class ConstantsLedger:
    """Certificate constants; structural inequalities hold by construction."""

    flavor: Flavor
    Gamma: float
    Gamma_tilde: float
    lam: float
    b: float
    c: float
    c_tilde: float
    B: float
    B_tilde: float
    C: float
    D: float

    def __post_init__(self):
        v = structural_violations(**{f.name: getattr(self, f.name) for f in fields(self)})
        if v:
            raise InvalidLedger(v)

    def as_dict(self) -> Dict[str, float]:
        """The constants by ledger key, in field order."""
        return {key: getattr(self, name) for name, key in _LEDGER_KEYS.items()}


# the ledger key of each constant: its field name, but lambda for lam
_LEDGER_KEYS = {
    f.name: "lambda" if f.name == "lam" else f.name
    for f in fields(ConstantsLedger) if f.name != "flavor"
}


def _step_log_d2_norms(orbit: OrbitSegment) -> List[float]:
    """Log of a conservative norm of the second derivative at every step,
    sqrt(2) * max axis norm (-inf where it is 0), in one array pass.

    Over-estimates the true bilinear norm, making the certificate check
    stricter, never laxer.
    """
    partials = np.array(orbit.step_second_partials, dtype=float)  # step, axis, 2, 2
    with np.errstate(all="ignore"):  # a norm beyond the double range is inf, log 0 is -inf
        axis_norms = linalg2.svd2_closed(*partials.reshape(-1, 4).T).smax.reshape(-1, 2)
        return np.log(math.sqrt(2.0) * axis_norms.max(axis=1)).tolist()


def check_quasi_hyperbolic(orbit: OrbitSegment, ledger: ConstantsLedger) -> BoundReport:
    """Per-index certificate check along the orbit, entirely in log domain.

    The rows compare log values with tol 0, for each i = 1..k in turn one
    per check; a strict inequality gets the allowance -LOG_STRICT_MARGIN,
    a non-strict one +LOG_STRICT_MARGIN.
    """
    coc = orbit.cocycle
    lg = {name: math.log(val) for name, val in ledger.as_dict().items()}
    i = np.arange(1, coc.k + 1)
    log_norm = np.array(coc.log_norm[1:])
    coecc_cap = lg["B"] + i * lg["c"]
    step_cap = lg["D"] + lg["Gamma"] + (i - 1) * lg["Gamma_tilde"]
    rows = [  # (check, log lhs, log rhs, strict)
        ("norm_lower", lg["C"] + i * lg["lambda"], log_norm, True),
        ("norm_upper", log_norm, lg["D"] + i * lg["Gamma"], True),
        ("coecc_decay", np.array(coc.log_conorm[1:]) - log_norm, coecc_cap, False),
        ("coecc_below_one", coecc_cap, 0.0, True),
        ("step_norm", coc.step_log_norm, step_cap, True),
        ("step_second_norm", _step_log_d2_norms(orbit), step_cap, True),
        ("step_det", coc.step_log_absdet, lg["b"], False),
    ]
    if ledger.flavor.has_type_two:  # the one-step co-eccentricity floor; exponent i-1 exactly
        step_log_coecc = np.array(coc.step_log_conorm) - coc.step_log_norm
        rows.append(("onestep_coecc", lg["B_tilde"] + (i - 1) * lg["c_tilde"], step_log_coecc, False))
    checks, lhs, rhs, strict = zip(*rows)
    return BoundReport("certificate", 0.0, checks, i[:, None], lhs, rhs,
                       [-LOG_STRICT_MARGIN if s else LOG_STRICT_MARGIN for s in strict])


def _fitted(name: str, log_value: float) -> float:
    """A fitted constant from its log; Infeasible where it exceeds the double range."""
    try:
        return math.exp(log_value)
    except OverflowError:
        raise Infeasible(f"{name} = exp({log_value!r}) exceeds the double range") from None


def fit_constants(
    orbit: OrbitSegment, flavor: Flavor, slack: float = 1.05
) -> ConstantsLedger:
    """Fit a minimal feasible ledger from orbit data, in one array pass.

    Each constant is fitted once, as a log, from the per-index logs that
    ``check_quasi_hyperbolic`` reads.  Rates come from geometric (per-step
    root) envelopes with multiplicative margin ``slack``, so the check
    passes by construction; prefactors are then the tightest values the
    data allows (minimal B and D, maximal B_tilde and C).  Gamma_tilde and
    c_tilde are fitted for the singular flavors of a map that declares a
    singular set, and are 1 otherwise.  Raises Infeasible naming the first
    constant (in field order) beyond the double range, the first violated
    structural inequality, or the first row the closing check fails.  A
    ``slack`` that is not a finite number above 1 is InvalidInput.
    """
    if not (is_finite_real(slack) and slack > 1.0):
        raise InvalidInput(f"slack must be finite and > 1, got {slack!r}")
    coc = orbit.cocycle
    log_eta = math.log(slack)
    i = np.arange(1, coc.k + 1)
    j = i - 1
    log_norm = np.array(coc.log_norm[1:])
    log_coecc = np.array(coc.log_conorm[1:]) - log_norm
    if np.isinf(log_coecc).any():
        raise Infeasible("co-eccentricity vanishes at some order (singular product)")
    rates = log_norm / i
    logs = {  # by field name; the tilde constants are 1 unless fitted below
        "lam": rates.min() - log_eta,
        "Gamma": max(rates.max(), math.log(1.0 + 1e-6)) + log_eta,
        "c": (log_coecc / i).max() + log_eta,
        "b": max(coc.step_log_absdet) + log_eta,
        "Gamma_tilde": 0.0, "c_tilde": 0.0, "B_tilde": 0.0,
    }
    if logs["c"] >= 0.0:
        raise Infeasible("c < 1 fails: co-eccentricity does not decay")
    if logs["b"] == -math.inf:
        raise Infeasible("step determinant vanishes")
    step_log_coecc = np.array(coc.step_log_conorm) - coc.step_log_norm
    if flavor.has_type_two and np.isinf(step_log_coecc).any():
        raise Infeasible("one-step co-eccentricity vanishes")
    step_caps = np.fmax(coc.step_log_norm, _step_log_d2_norms(orbit))
    fit_tilde = flavor is not Flavor.NONSINGULAR and orbit.spec.has_singular_set
    logs["D"] = max(0.0, step_caps[: 1 if fit_tilde else None].max() + log_eta - logs["Gamma"])
    if fit_tilde:
        logs["Gamma_tilde"] = ((step_caps[1:] + log_eta - logs["D"] - logs["Gamma"]) / j[1:]).max(initial=0.0)
        if flavor.has_type_two:
            logs["c_tilde"] = min(0.0, (step_log_coecc[1:] / j[1:]).min(initial=math.inf) - log_eta)
    logs["B"] = max(0.0, (log_coecc - i * logs["c"]).max())
    logs["C"] = min(0.0, (log_norm - i * logs["lam"]).min() - log_eta)
    if flavor.has_type_two:
        logs["B_tilde"] = (step_log_coecc - j * logs["c_tilde"]).min(initial=0.0)
    try:
        ledger = ConstantsLedger(flavor=flavor, **{
            name: _fitted(key, float(logs[name])) for name, key in _LEDGER_KEYS.items()
        })
    except InvalidLedger as exc:
        raise Infeasible(exc.violations[0]) from None

    report = check_quasi_hyperbolic(orbit, ledger)
    if not report.verdict:
        row = report.first_failure()
        raise Infeasible(f"{row.check} fails at i={row.index[0]}")
    return ledger


@dataclass(frozen=True)
class AuxiliaryConstants:
    """Derived constants of the two certificate flavors.

    The type-(I) family Q1..Q4 is populated only when the flavor carries
    type (I), the tilde family only for type (II); K2 maximizes over the
    populated branches only (for a single-flavor ledger the other branch is
    undefined, so the max is restricted -- flagged via ``branches``).
    """

    Q0: float
    K1: float
    Q1: Optional[float]
    Q2: Optional[float]
    Q3: Optional[float]
    Q4: Optional[float]
    Qt1: Optional[float]
    Qt2: Optional[float]
    Qt3: Optional[float]
    Qt4: Optional[float]
    Q: float
    K2: float
    branches: Tuple[str, ...]

    def as_dict(self) -> Dict[str, Optional[float]]:
        """The constants by name, in field order (``branches`` left out)."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "branches"}


def _positive(value, name: str):
    """``value`` if it is positive.  A value that is not finite (an overflow,
    or inf - inf) raises OverflowError: the float form cannot decide it."""
    if not -math.inf < value < math.inf:
        raise OverflowError(name)
    if not value > 0:
        raise DomainViolation(f"{name} <= 0")
    return value


def auxiliary_constants(ledger: ConstantsLedger) -> AuxiliaryConstants:
    """The derived constants of ``ledger``.

    They are formed in floats first.  Where a denominator or a product of
    that form is not finite, they are formed again from exact rationals,
    where nothing overflows, and rounded once at the end; a constant beyond
    the double range is then a BoundOverflow.
    """
    try:
        aux = _auxiliary_constants(ledger, float)
        if all(math.isfinite(v) for v in aux.as_dict().values() if v is not None):
            return aux
    except (OverflowError, ZeroDivisionError):
        pass
    try:
        exact = _auxiliary_constants(ledger, Fraction)
        return replace(exact, **{
            name: None if v is None else float(v) for name, v in exact.as_dict().items()
        })
    except OverflowError:
        raise BoundOverflow("an auxiliary constant exceeds the double range") from None


def _auxiliary_constants(ledger: ConstantsLedger, num: type) -> AuxiliaryConstants:
    """The constants in the number type ``num`` (float or Fraction); only the
    square root in Q0 and K1 is taken in floats."""
    G, Gt = num(ledger.Gamma), num(ledger.Gamma_tilde)
    lam, b, c, ct = num(ledger.lam), num(ledger.b), num(ledger.c), num(ledger.c_tilde)
    B, Bt, C, D = num(ledger.B), num(ledger.B_tilde), num(ledger.C), num(ledger.D)

    one_minus = _positive(1 - B * B * c * c, "1 - B^2*c^2")
    Q0 = num(math.sqrt(2 / one_minus))
    K1 = Q0 * Q0 / num(math.sqrt(2.0))

    Q1 = Q2 = Q3 = Q4 = None
    if ledger.flavor.has_type_one:
        den1 = _positive(lam - G * Gt * c, "lambda - Gamma*Gamma_tilde*c")
        den2 = _positive(lam * lam - Gt * b, "lambda^2 - Gamma_tilde*b")
        den4 = _positive(lam**3 - (G * Gt) ** 3 * c, "lambda^3 - Gamma^3*Gamma_tilde^3*c")
        Q1 = B * D + Q0 * B * D**3 * G / (C * den1)
        Q2 = 1 / C + Q0 * D * D * G * lam / (C * C * den2)
        Q3 = Q1 * D * G * G * Gt / lam
        Q4 = Q1 * Q2 * D * G**5 * Gt**4 / (lam * lam * den4)

    Qt1 = Qt2 = Qt3 = Qt4 = None
    if ledger.flavor.has_type_two:
        dent1 = _positive(ct - c, "c_tilde - c")
        dent2 = _positive(lam * lam * ct - b, "lambda^2*c_tilde - b")
        dent4 = _positive(
            lam * lam * ct * ct - G * G * Gt * c,
            "lambda^2*c_tilde^2 - Gamma^2*Gamma_tilde*c",
        )
        Qt1 = B * D + Q0 * B * ct / (Bt * dent1)
        Qt2 = 1 / C + Q0 * D * lam * lam * ct / (Bt * C * C * dent2)
        Qt3 = Qt1 * D * G
        Qt4 = Qt1 * Qt2 * D * G**4 * Gt / (lam * lam * dent4)

    denq = _positive(G * G * Gt - b, "Gamma^2*Gamma_tilde - b")
    Q = B * D**3 * G**4 * Gt / (C * C * lam * lam * denq)

    k2_candidates = []
    branches = []
    if Q3 is not None:
        k2_candidates.append(K1 * (Q3 + Q4 + Q))
        branches.append("I")
    if Qt3 is not None:
        k2_candidates.append(K1 * (Qt3 + Qt4 + Q))
        branches.append("II")
    K2 = max(k2_candidates)

    return AuxiliaryConstants(
        Q0=Q0,
        K1=K1,
        Q1=Q1,
        Q2=Q2,
        Q3=Q3,
        Q4=Q4,
        Qt1=Qt1,
        Qt2=Qt2,
        Qt3=Qt3,
        Qt4=Qt4,
        Q=Q,
        K2=K2,
        branches=tuple(branches),
    )


@dataclass(frozen=True)
class ScanCell:
    lam: float
    Gamma: float
    c: float
    b: float
    Gamma_tilde: float
    c_tilde: float
    feasible: bool
    violated: str  # first violated inequality, empty if feasible


def feasibility_region_scan(
    flavor: Flavor,
    lam_values: Sequence[float],
    Gamma_values: Sequence[float],
    c_values: Sequence[float],
    b_values: Sequence[float],
    Gamma_tilde_values: Sequence[float] = (1.0,),
    c_tilde_values: Sequence[float] = (1.0,),
) -> List[ScanCell]:
    """Structural-inequality verdict for every cell of the given grid."""
    cells: List[ScanCell] = []
    grid = (lam_values, Gamma_values, c_values, b_values, Gamma_tilde_values, c_tilde_values)
    for lam, Gamma, c, b, Gt, ct in itertools.product(*grid):
        v = structural_violations(flavor, Gamma, Gt, lam, b, c, ct)
        cells.append(ScanCell(lam, Gamma, c, b, Gt, ct, feasible=not v, violated=v[0] if v else ""))
    return cells


def write_ledger(path: str, ledger: ConstantsLedger) -> None:
    """Flat key-value text, one constant per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"flavor = {ledger.flavor.value}\n")
        for name, value in ledger.as_dict().items():
            fh.write(f"{name} = {value!r}\n")


def read_ledger(path: str) -> ConstantsLedger:
    """The ledger ``write_ledger`` wrote; a line other than ``key = value``,
    a key it does not write, or one of its keys missing, is a ConfigError
    naming the line or the key."""
    entries = read_config(path)
    if "flavor" not in entries:
        raise ConfigError(f"{path}: no flavor line")
    flavor = parse_value("flavor", entries.pop("flavor"), Flavor.parse)
    unknown = sorted(set(entries) - set(_LEDGER_KEYS.values()))
    missing = [key for key in _LEDGER_KEYS.values() if key not in entries]
    for problem, keys in (("unknown", unknown), ("missing", missing)):
        if keys:
            raise ConfigError(f"{path}: {problem} keys {keys}")
    return ConstantsLedger(flavor=flavor, **{
        name: parse_value(key, entries[key], float) for name, key in _LEDGER_KEYS.items()
    })
