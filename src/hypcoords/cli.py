"""Command-line front end.

Subcommands: orbit, frames, certify, aux-constants, verify-convergence,
verify-variation, foliate, oracle-check, scan-constants.  Outputs are CSV
(17 significant digits) and JSON (shortest round-trip floats); identical
configuration and seed produce byte-identical files.  Exit code 0 means
every verdict passed, 1 names the first failing inequality on stderr,
2 is a usage error.
"""

from __future__ import annotations

import argparse
import inspect
import itertools
import json
import math
import os
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import bounds, certificate, foliation, hypframe, linalg2
from .cocycle import ScaledMatrix, compute_orbit
from .errors import HypcoordsError, ConfigError, parse_value, read_config
from .planar_maps import BUILTIN_MAPS, MapSpec, make_map

# Keys a --config file may hold; each one only on a subcommand with the flag
# of that name (dest), and map parameters where the subcommand builds a map.
_CONFIG_KEYS = {
    "map",
    "matrix",
    "x0",
    "y0",
    "k",
    "flavor",
    "eta",
    "seed",
    "guard",
    "out_dir",
    "trials",
    "grid_n",
    "rect",
    "spacing",
    "field",
    "length",
    "step",
}


# Most seeds in a foliate lattice, and most steps per curve.  Far larger
# counts do not fit in memory, and an infinite one overflows the count.
MAX_FOLIATE_COUNT = 10**6


def fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# The last field of a bound-report CSV line, the pass flag and status, by status code
_FLAG_STATUS = np.array(["0,fail\n", "1,pass_within_rounding\n", "1,pass\n"], dtype=object)
_ROWS_PER_WRITE = 1024


def _spelled(columns: Sequence[np.ndarray]) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Per float64 column, the texts (``fmt`` and a comma) of its distinct
    values as an object array, and the position of each value's text.  Each
    distinct bit pattern among all columns is spelled once, so 0.0 and -0.0
    stay apart; patterns are found per column first, to keep the sorts small."""
    found = [np.unique(column.view(np.int64), return_inverse=True) for column in columns]
    distinct, merged = np.unique(np.concatenate([bits for bits, _ in found]), return_inverse=True)
    values = distinct.view(np.float64).tolist()
    texts = np.array(("%.17g,\n" * len(values) % tuple(values)).split("\n")[:-1], dtype=object)
    starts = np.cumsum([0] + [len(bits) for bits, _ in found])
    return [(texts[merged[start:start + len(bits)]], where) for start, (bits, where) in zip(starts, found)]


def write_bound_report(report: bounds.BoundReport, out_dir: str, stem: str) -> Dict[str, dict]:
    """Write ``report`` to ``stem``.csv and a summary of each check to
    ``stem``.json; return the summaries by check.

    Each CSV row ends with a status: ``fail`` if it did not pass,
    ``pass_within_rounding`` if it passed only through its absolute
    allowance (lhs > rhs * (1 + tol)), else ``pass``.  A check's summary
    counts its rows, failures and allowance-only passes, lists its failing
    rows, and names its first row of least finite margin / |rhs| (none where
    rhs = 0).  All of it is computed on the report's columns; the CSV spells
    each distinct float and each index tuple once, and is written in blocks.
    """
    checks, check, indices, index, lhs, rhs, passed = report.columns()
    with np.errstate(all="ignore"):  # inf and NaN are valid sides
        margin = rhs - lhs
        status = np.where(passed, np.where(lhs > rhs * (1.0 + report.tol), 1, 2), 0).astype(np.int8)
    # each field carries the separator after it, so a block of rows is one join
    check_text = np.array([name + "," for name in checks], dtype=object)
    index_text = np.array([":".join(map(str, i)) + "," for i in indices], dtype=object)
    numbers = _spelled((lhs, rhs, margin))
    with open(os.path.join(out_dir, stem + ".csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("check,index,lhs,rhs,margin,passed,status\n")
        for start in range(0, len(lhs), _ROWS_PER_WRITE):
            block = slice(start, start + _ROWS_PER_WRITE)
            fh.write("".join(itertools.chain.from_iterable(zip(
                check_text[check[block]].tolist(), index_text[index[block]].tolist(),
                *(texts[at[block]].tolist() for texts, at in numbers), _FLAG_STATUS[status[block]].tolist(),
            ))))
    with np.errstate(all="ignore"):
        relative = np.where(rhs != 0.0, margin / np.abs(rhs), np.nan)
    summaries = {}
    for code, name in enumerate(checks):
        mine = check == code
        failed = np.flatnonzero(mine & (status == 0))
        candidates = np.flatnonzero(mine & np.isfinite(relative))
        least = None
        if candidates.size:
            n = candidates[np.flatnonzero(relative[candidates] == relative[candidates].min())[0]]
            least = {"index": indices[index[n]], "value": relative[n].item()}
        failures = [{"check": name, "index": indices[i], "lhs": a, "rhs": b, "margin": m, "passed": False}
                    for i, a, b, m in zip(*(column[failed].tolist() for column in (index, lhs, rhs, margin)))]
        summaries[name] = {
            "rows": int(np.count_nonzero(mine)), "failed": len(failures), "failures": failures,
            "pass_within_rounding": int(np.count_nonzero(mine & (status == 1))),
            "least_relative_margin": least,
        }
    _write_json(
        os.path.join(out_dir, stem + ".json"),
        {"name": report.name, "tol": report.tol, "verdict": report.verdict,
         "context": report.context, "checks": summaries},
    )
    return summaries


def _summary_line(name: str, checks: Dict[str, dict]) -> str:
    """A written bound report in one line: row counts and the worst margin."""
    tallies = checks.values()
    text = (f"{name}: {sum(c['rows'] for c in tallies)} rows checked, "
            f"{sum(c['failed'] for c in tallies)} failed, "
            f"{sum(c['pass_within_rounding'] for c in tallies)} pass_within_rounding, ")
    worst = min(((c["least_relative_margin"]["value"], check, c["least_relative_margin"]["index"])
                 for check, c in checks.items() if c["least_relative_margin"]), default=None)
    if worst is None:
        return text + "no finite relative margin"
    return text + "worst relative margin %.3g (%s at %s)" % worst


def write_certificate_report(
    report: certificate.CertificateReport, out_dir: str, stem: str
) -> None:
    _write_csv(
        os.path.join(out_dir, stem + ".csv"),
        ["i", "check", "log_lhs", "log_rhs", "margin", "passed"],
        [[r.i, r.name, r.log_lhs, r.log_rhs, r.margin, r.passed] for r in report.rows],
    )
    nested: Dict[str, List[dict]] = {}
    for r in report.rows:
        nested.setdefault(r.name, []).append(
            {"i": r.i, "log_lhs": r.log_lhs, "log_rhs": r.log_rhs, "margin": r.margin, "passed": r.passed}
        )
    _write_json(
        os.path.join(out_dir, stem + ".json"),
        {
            "flavor": report.flavor.value,
            "verdict": report.verdict,
            "first_failure": list(report.first_failure) if report.first_failure else None,
            "checks": nested,
        },
    )


def _load_config(args) -> Dict[str, str]:
    """The ``--config`` file of a subcommand: keys of its own flags only and,
    where it builds a map, the parameters of the map the file names."""
    path = args.config
    if not path:
        return {}
    cfg = read_config(path)
    allowed = _CONFIG_KEYS & set(vars(args))
    if "map" in allowed and cfg.get("map") in BUILTIN_MAPS:
        allowed |= set(inspect.signature(BUILTIN_MAPS[cfg["map"]]).parameters)
    unknown = sorted(set(cfg) - allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}")
    return cfg


def _resolve(args, cfg: Dict[str, str], key: str, cast, default=None):
    flag = getattr(args, key.replace("-", "_"), None)
    if flag is not None:
        return flag
    if key in cfg:
        return parse_value(key, cfg[key], cast)
    return default


def _build_map(args, cfg: Dict[str, str]) -> MapSpec:
    name = _resolve(args, cfg, "map", str)
    if not name:
        raise ConfigError("no map selected (use --map or a config file)")
    params: Dict[str, float] = {}
    for item in getattr(args, "param", None) or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--param expects key=value, got {item!r}")
        params[key.strip()] = parse_value(key.strip(), value, float)
    matrix = _resolve(args, cfg, "matrix", str)
    if matrix is not None:
        vals = _values_list("matrix", matrix)
        if len(vals) != 4:
            raise ConfigError("--matrix expects four comma-separated entries")
        params.update(m11=vals[0], m12=vals[1], m21=vals[2], m22=vals[3])
    for short in ("a", "b", "K"):
        val = getattr(args, short, None)
        if val is not None:
            params[short] = val
    # config files may carry map parameters directly (a = 1.4 etc.)
    for key, value in cfg.items():
        if key not in _CONFIG_KEYS:
            params.setdefault(key, parse_value(key, value, float))
    non_finite = sorted(key for key, value in params.items() if not math.isfinite(value))
    if non_finite:
        raise ConfigError(f"map parameters must be finite: {', '.join(non_finite)}")
    try:
        return make_map(name, **params)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _orbit_from_args(args, cfg):
    spec = _build_map(args, cfg)
    x0 = _resolve(args, cfg, "x0", float)
    y0 = _resolve(args, cfg, "y0", float)
    k = _resolve(args, cfg, "k", int)
    guard = _resolve(args, cfg, "guard", float)
    if x0 is None or y0 is None or k is None:
        raise ConfigError("x0, y0 and k are required")
    if k < 1:
        raise ConfigError("k must be >= 1")
    if not (math.isfinite(x0) and math.isfinite(y0)):
        raise ConfigError(f"x0 and y0 must be finite, got ({x0!r}, {y0!r})")
    _check_guard(guard)
    return spec, compute_orbit(spec, np.array([x0, y0]), k, guard)


def _check_guard(guard: Optional[float]) -> None:
    if guard is not None and not (math.isfinite(guard) and guard >= 0.0):
        raise ConfigError(f"guard must be finite and >= 0, got {guard!r}")


def _out_dir(args, cfg) -> str:
    out = _resolve(args, cfg, "out_dir", str)
    if out is None:
        out = os.environ.get("HYPCOORDS_OUT", ".")
    os.makedirs(out, exist_ok=True)
    return out


def cmd_orbit(args) -> int:
    cfg = _load_config(args)
    spec, orbit = _orbit_from_args(args, cfg)
    out = _out_dir(args, cfg)
    rows = []
    coc = orbit.cocycle
    for i in range(orbit.k + 1):
        if i < orbit.k:
            j = coc.steps[i]
            jac = [j[0, 0], j[0, 1], j[1, 0], j[1, 1]]
        else:
            jac = ["", "", "", ""]
        rows.append(
            [i, orbit.points[i][0], orbit.points[i][1], *jac,
             coc.log_norm[i], coc.log_conorm[i], coc.log_absdet[i]]
        )
    _write_csv(
        os.path.join(out, "orbit.csv"),
        ["i", "x", "y", "j11", "j12", "j21", "j22", "log_norm", "log_conorm", "log_absdet"],
        rows,
    )
    print(f"wrote {os.path.join(out, 'orbit.csv')}")
    return 0


def cmd_frames(args) -> int:
    cfg = _load_config(args)
    spec, orbit = _orbit_from_args(args, cfg)
    out = _out_dir(args, cfg)
    rows = []
    for frame in hypframe.frame_sequence(orbit):
        rows.append(
            [
                frame.k,
                frame.e[0],
                frame.e[1],
                frame.f[0],
                frame.f[1],
                frame.log_sigma_max,
                frame.log_sigma_min,
                frame.coecc,
                frame.theta,
                frame.low_confidence,
            ]
        )
    _write_csv(
        os.path.join(out, "frames.csv"),
        ["k", "e_x", "e_y", "f_x", "f_y", "log_sigma_max", "log_sigma_min", "coecc", "theta", "confidence_flag"],
        rows,
    )
    print(f"wrote {os.path.join(out, 'frames.csv')}")
    return 0


def _ledger_source(args, cfg):
    """Read ``--ledger``, or check the fit flags, before anything is written.

    Returns a function from the orbit to its ledger: the one read, or a fit.
    """
    ledger_path = getattr(args, "ledger", None)
    if ledger_path:
        ledger = certificate.read_ledger(ledger_path)
        return lambda orbit: ledger
    flavor = _flavor(args, cfg)
    eta = _resolve(args, cfg, "eta", float, 1.05)
    if not (math.isfinite(eta) and eta > 1.0):
        raise ConfigError(f"eta must be finite and > 1, got {eta!r}")
    return lambda orbit: certificate.fit_constants(orbit, flavor, eta)


def _flavor(args, cfg) -> certificate.Flavor:
    text = _resolve(args, cfg, "flavor", str, "II")
    return parse_value("flavor", text, certificate.Flavor.parse)


def cmd_certify(args) -> int:
    cfg = _load_config(args)
    spec, orbit = _orbit_from_args(args, cfg)
    ledger = _ledger_source(args, cfg)(orbit)
    out = _out_dir(args, cfg)
    report = certificate.check_quasi_hyperbolic(orbit, ledger)
    certificate.write_ledger(os.path.join(out, "ledger.txt"), ledger)
    write_certificate_report(report, out, "certificate")
    if not report.verdict:
        i, name = report.first_failure
        print(f"certificate check {name} fails at i={i}", file=sys.stderr)
        return 1
    print(f"certificate passes for k <= {orbit.k} (flavor {ledger.flavor.value})")
    return 0


def cmd_aux_constants(args) -> int:
    cfg = _load_config(args)
    source = _ledger_source(args, cfg)
    orbit = None if args.ledger else _orbit_from_args(args, cfg)[1]
    ledger = source(orbit)
    out = _out_dir(args, cfg)
    aux = certificate.auxiliary_constants(ledger)
    payload = {k: v for k, v in aux.as_dict().items()}
    payload["branches"] = list(aux.branches)
    _write_json(os.path.join(out, "aux_constants.json"), payload)
    for name, value in aux.as_dict().items():
        if value is not None:
            print(f"{name} = {fmt(value)}")
    return 0


def cmd_verify_convergence(args) -> int:
    stage_times: List[str] = []

    def timed(stage, fn, *fn_args):
        start = time.perf_counter()
        result = fn(*fn_args)
        stage_times.append(f"timing {stage} {time.perf_counter() - start:.6f} s")
        return result

    cfg = _load_config(args)
    try:
        spec, orbit = timed("orbit", _orbit_from_args, args, cfg)
        source = _ledger_source(args, cfg)
        out = _out_dir(args, cfg)
        apriori = timed("apriori_sweep", bounds.verify_apriori_all, orbit)
        summaries = [timed("apriori_write", write_bound_report, apriori, out, "apriori_convergence")]
        ledger = timed("ledger", source, orbit)
        explicit = timed("envelope_sweep", bounds.verify_explicit_convergence, orbit, ledger)
        summaries.append(timed("envelope_write", write_bound_report, explicit, out, "explicit_convergence"))
    finally:  # a stage that raises still leaves the times of those before it
        if args.timings and stage_times:
            print("\n".join(stage_times), file=sys.stderr)
    failing = [rep for rep in (apriori, explicit) if not rep.verdict]
    if failing:
        row = failing[0].first_failure()
        print(f"{failing[0].name}: {row.check} fails at {row.index}", file=sys.stderr)
    else:
        print(f"convergence bounds pass over all pairs up to k={orbit.k}")
    for rep, checks in zip((apriori, explicit), summaries):
        print(_summary_line(rep.name, checks))
    return 1 if failing else 0


def cmd_verify_variation(args) -> int:
    cfg = _load_config(args)
    spec, orbit = _orbit_from_args(args, cfg)
    ledger = _ledger_source(args, cfg)(orbit)
    out = _out_dir(args, cfg)
    report = bounds.verify_slow_variation(orbit, ledger)
    checks = write_bound_report(report, out, "slow_variation")
    if report.verdict:
        print(f"slow-variation chain passes at k={orbit.k}")
    else:
        print(f"slow variation: {report.first_failure().check} fails", file=sys.stderr)
    print(_summary_line(report.name, checks))
    return 0 if report.verdict else 1


def cmd_foliate(args) -> int:
    cfg = _load_config(args)
    spec = _build_map(args, cfg)
    rect = _values_list("rect", _resolve(args, cfg, "rect", str, "-1,1,-1,1"))
    if len(rect) != 4 or not all(math.isfinite(v) for v in rect):
        raise ConfigError("--rect expects four finite numbers xmin,xmax,ymin,ymax")
    k = _resolve(args, cfg, "k", int, 1)
    if k < 1:
        raise ConfigError("k must be >= 1")
    spacing = _resolve(args, cfg, "spacing", float, 0.25)
    field = _resolve(args, cfg, "field", str, foliation.STABLE)
    length = _resolve(args, cfg, "length", float, 0.5)
    step = _resolve(args, cfg, "step", float, 1e-3)
    guard = _resolve(args, cfg, "guard", float)
    _check_guard(guard)
    if field not in (foliation.STABLE, foliation.UNSTABLE):
        raise ConfigError(f"field must be stable or unstable, got {field!r}")
    for name, value in (("spacing", spacing), ("length", length), ("step", step)):
        if not (math.isfinite(value) and value > 0.0):
            raise ConfigError(f"{name} must be positive and finite, got {value!r}")
    if step > length:
        raise ConfigError(f"step {step!r} exceeds length {length!r}")
    if not length / step <= MAX_FOLIATE_COUNT:
        raise ConfigError(f"length/step gives more than {MAX_FOLIATE_COUNT} steps per curve")
    nx, ny = (max(0.0, (hi - lo) / spacing) for lo, hi in (rect[:2], rect[2:]))
    if not max(nx, ny, nx * ny) <= MAX_FOLIATE_COUNT:
        raise ConfigError(f"spacing {spacing!r} gives more than {MAX_FOLIATE_COUNT} seeds in --rect")
    grid = foliation.foliation_grid(spec, tuple(rect), k, spacing, field, length, step, guard)
    if not grid.curves and not grid.failed_seeds:
        raise ConfigError(f"--rect holds no seed at spacing {spacing!r}")
    out = _out_dir(args, cfg)
    rows = []
    for cid, curve in enumerate(grid.curves):
        rows.extend(foliation.curve_to_csv_rows(cid, curve))
    _write_csv(os.path.join(out, "curves.csv"), ["curve_id", "s", "x", "y"], rows)
    svg = foliation.curves_to_svg(grid.curves, tuple(rect))
    with open(os.path.join(out, "curves.svg"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)
    print(
        f"wrote {len(grid.curves)} curves ({len(grid.failed_seeds)} seeds without frames)"
    )
    return 0


def _random_test_matrix(rng: np.random.Generator):
    """Seeded random 2x2 matrix with co-eccentricity < 0.9 and co-norm >= 0.05."""
    while True:
        m = rng.uniform(-2.0, 2.0, size=(2, 2))
        s = linalg2.svd2_matrix(m)
        if s.smin >= 0.05 and s.smin / s.smax < 0.9:
            return m, s


def cmd_oracle_check(args) -> int:
    cfg = _load_config(args)
    seed = _resolve(args, cfg, "seed", int, 0)
    trials = _resolve(args, cfg, "trials", int, 1000)
    grid_n = _resolve(args, cfg, "grid_n", int, 1_000_000)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    if grid_n < 4:
        raise ConfigError(f"grid_n must be >= 4, got {grid_n}")
    out = _out_dir(args, cfg)
    rng = np.random.default_rng(seed)
    angle_tol = math.pi / grid_n
    # nearest grid angle sits within pi/(2 n) of the extremum; the induced
    # norm error scales with the curvature over the extremal value, which
    # for the small singular value carries a 1/coecc^2 factor
    delta_sq = (math.pi / (2.0 * grid_n)) ** 2
    violations = 0
    worst_angle = 0.0
    worst_norm = 0.0
    for _ in range(trials):
        m, s = _random_test_matrix(rng)
        frame = hypframe.frame_from_scaled(ScaledMatrix.from_matrix(m))
        angles = hypframe.angle_theta(m[0, 0], m[1, 0], m[0, 1], m[1, 1])
        oracle = hypframe.oracle_extremal_directions(m, grid_n)
        theta_svd = frame.theta
        d1 = linalg2.line_angle_distance(theta_svd, angles.theta_expand)
        d2 = linalg2.line_angle_distance(theta_svd, oracle.theta_max)
        n1 = abs(oracle.norm_max - s.smax) / s.smax
        n2 = abs(oracle.norm_min - s.smin) / s.smin
        tol_max = max(1e-8, 2.0 * delta_sq)
        tol_min = max(1e-8, 2.0 * delta_sq * (s.smax / s.smin) ** 2)
        worst_angle = max(worst_angle, d1, d2)
        worst_norm = max(worst_norm, n1, n2)
        if d1 > 1e-9 or d2 > angle_tol + 1e-9 or n1 > tol_max or n2 > tol_min:
            violations += 1
    payload = {
        "seed": seed,
        "trials": trials,
        "grid_n": grid_n,
        "violations": violations,
        "worst_angle_deviation": worst_angle,
        "worst_norm_relative_error": worst_norm,
    }
    _write_json(os.path.join(out, "oracle_check.json"), payload)
    print(
        f"oracle check: {trials} trials, {violations} violations, "
        f"worst angle dev {worst_angle:.3e}, worst norm rel err {worst_norm:.3e}"
    )
    if violations:
        print("extremal-direction agreement fails", file=sys.stderr)
        return 1
    return 0


def _values_list(key: str, text: str) -> List[float]:
    return [parse_value(key, v, float) for v in str(text).split(",")]


def cmd_scan_constants(args) -> int:
    cfg = _load_config(args)
    keys = ("lambda_values", "gamma_values", "c_values", "b_values", "gamma_tilde_values",
            "c_tilde_values")
    grids = [_values_list(key, getattr(args, key)) for key in keys]
    for key, values in zip(keys, grids):
        if not all(math.isfinite(v) for v in values):
            raise ConfigError(f"--{key.replace('_', '-')} entries must be finite")
    cells = certificate.feasibility_region_scan(_flavor(args, cfg), *grids)
    out = _out_dir(args, cfg)
    _write_csv(
        os.path.join(out, "scan.csv"),
        ["lambda", "Gamma", "c", "b", "Gamma_tilde", "c_tilde", "feasible", "violated"],
        [
            [c.lam, c.Gamma, c.c, c.b, c.Gamma_tilde, c.c_tilde, c.feasible, c.violated]
            for c in cells
        ],
    )
    feasible = sum(1 for c in cells if c.feasible)
    print(f"scanned {len(cells)} cells, {feasible} feasible")
    return 0


def _add_common(p: argparse.ArgumentParser, map_args: bool = True, orbit_args: bool = True) -> None:
    """The flags of every subcommand, then those of the map it builds and
    of the orbit it starts, where it does."""
    p.add_argument("--config", help="flat key = value configuration file")
    p.add_argument("--out-dir", dest="out_dir", help="output directory (env HYPCOORDS_OUT)")
    if map_args:
        p.add_argument("--map", help="builtin map name")
        p.add_argument("--param", action="append", help="map parameter key=value (repeatable)")
        p.add_argument("--a", type=float, help="Henon a")
        p.add_argument("--b", type=float, help="Henon b")
        p.add_argument("--K", type=float, help="standard-map kick strength")
        p.add_argument("--matrix", help="linear map entries m11,m12,m21,m22")
    if orbit_args:
        p.add_argument("--x0", type=float, help="orbit start x")
        p.add_argument("--y0", type=float, help="orbit start y")
        p.add_argument("--k", type=int, help="orbit order")
        p.add_argument("--guard", type=float, help="singular-set guard distance")


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a malformed command line as a ConfigError: one stderr line, exit 2."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="hypcoords",
        description=(
            "Finite-time hyperbolic coordinates of planar maps: orbit frames, "
            "quasi-hyperbolicity certificates, and numerical verification of "
            "the convergence and slow-variation bounds."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("orbit", help="iterate a map and dump the derivative cocycle")
    _add_common(p)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("frames", help="hyperbolic frames of every order along an orbit")
    _add_common(p)
    p.set_defaults(func=cmd_frames)

    p = sub.add_parser(
        "certify", help="fit a constants ledger and run the per-index certificate check"
    )
    _add_common(p)
    p.add_argument("--flavor", help="nonsingular, I, II or both")
    p.add_argument("--eta", type=float, help="multiplicative fit slack > 1")
    p.add_argument("--ledger", help="check an existing ledger file instead of fitting")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("aux-constants", help="derived constants of a ledger")
    _add_common(p)
    p.add_argument("--flavor", help="nonsingular, I, II or both")
    p.add_argument("--eta", type=float)
    p.add_argument("--ledger", help="ledger file to read")
    p.set_defaults(func=cmd_aux_constants)

    p = sub.add_parser(
        "verify-convergence",
        help="frame-drift bounds: assumption-free sums and certificate envelopes",
    )
    _add_common(p)
    p.add_argument("--flavor", help="nonsingular, I, II or both")
    p.add_argument("--eta", type=float)
    p.add_argument("--ledger")
    p.add_argument("--timings", action="store_true", help="write per-stage wall times to stderr")
    p.set_defaults(func=cmd_verify_convergence)

    # no abbreviations: "--h", the finite-difference step of earlier versions,
    # would otherwise abbreviate --help and end with exit 0 and no report
    p = sub.add_parser(
        "verify-variation",
        help="slow-variation chain: frame-field derivative vs second-derivative and rate",
        allow_abbrev=False,
    )
    _add_common(p)
    p.add_argument("--flavor", help="nonsingular, I, II or both")
    p.add_argument("--eta", type=float)
    p.add_argument("--ledger")
    p.set_defaults(func=cmd_verify_variation)

    p = sub.add_parser("foliate", help="integral curves of the frame fields over a rectangle")
    _add_common(p, orbit_args=False)
    p.add_argument("--k", type=int)
    p.add_argument("--rect", help="xmin,xmax,ymin,ymax")
    p.add_argument("--spacing", type=float)
    p.add_argument("--field", choices=[foliation.STABLE, foliation.UNSTABLE])
    p.add_argument("--length", type=float)
    p.add_argument("--step", type=float)
    p.add_argument("--guard", type=float)
    p.set_defaults(func=cmd_foliate)

    p = sub.add_parser(
        "oracle-check",
        help="closed-form SVD vs critical-angle formula vs brute-force grid sweep",
    )
    _add_common(p, map_args=False, orbit_args=False)
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--grid-n", dest="grid_n", type=int)
    p.set_defaults(func=cmd_oracle_check)

    # no abbreviations: "--b", a map flag elsewhere, would abbreviate --b-values
    p = sub.add_parser(
        "scan-constants", help="structural feasibility over a constants grid", allow_abbrev=False
    )
    _add_common(p, map_args=False, orbit_args=False)
    p.add_argument("--flavor")
    p.add_argument("--lambda-values", dest="lambda_values", default="1.5")
    p.add_argument("--gamma-values", dest="gamma_values", default="1.5")
    p.add_argument("--c-values", dest="c_values", default="0.1")
    p.add_argument("--b-values", dest="b_values", default="1.0")
    p.add_argument("--gamma-tilde-values", dest="gamma_tilde_values", default="1.0")
    p.add_argument("--c-tilde-values", dest="c_tilde_values", default="1.0")
    p.set_defaults(func=cmd_scan_constants)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except HypcoordsError as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
