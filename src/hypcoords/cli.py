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
import functools
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

# The keys a --config file may set: the dest of a flag, and that flag's type.
_CONFIG_KEYS = {
    "map": str, "matrix": str, "x0": float, "y0": float, "k": int, "flavor": str,
    "eta": float, "seed": int, "guard": float, "out_dir": str, "trials": int,
    "grid_n": int, "rect": str, "spacing": float, "field": str, "length": float,
    "step": float,
}


# Highest orbit order k, and most seeds in a foliate lattice, steps per
# curve and oracle-check trials.  Far larger counts do not fit in memory or
# run for hours, and an infinite one overflows the count.
MAX_COUNT = 10**6
# Most angles in an oracle-check grid sweep: about 4 GB at 40 B per angle.
MAX_GRID_N = 10**8


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


def _build_map(args) -> MapSpec:
    if not args.map:
        raise ConfigError("no map selected (use --map or a config file)")
    params: Dict[str, float] = {}
    for item in args.param or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--param expects key=value, got {item!r}")
        params[key.strip()] = parse_value(key.strip(), value, float)
    if args.matrix is not None:
        vals = _values_list("matrix", args.matrix)
        if len(vals) != 4:
            raise ConfigError("--matrix expects four comma-separated entries")
        params.update(m11=vals[0], m12=vals[1], m21=vals[2], m22=vals[3])
    for short in ("a", "b", "K"):
        val = getattr(args, short)
        if val is not None:
            params[short] = val
    non_finite = sorted(key for key, value in params.items() if not math.isfinite(value))
    if non_finite:
        raise ConfigError(f"map parameters must be finite: {', '.join(non_finite)}")
    try:
        return make_map(args.map, **params)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _orbit_from_args(args):
    spec = _build_map(args)
    x0, y0, k, guard = args.x0, args.y0, args.k, args.guard
    if x0 is None or y0 is None or k is None:
        raise ConfigError("x0, y0 and k are required")
    _check_k(k)
    if not (math.isfinite(x0) and math.isfinite(y0)):
        raise ConfigError(f"x0 and y0 must be finite, got ({x0!r}, {y0!r})")
    _check_guard(guard)
    return spec, compute_orbit(spec, np.array([x0, y0]), k, guard)


def _check_k(k: int) -> None:
    if k < 1:
        raise ConfigError("k must be >= 1")
    if k > MAX_COUNT:
        raise ConfigError(f"k must be <= {MAX_COUNT}, got {k}")


def _check_guard(guard: Optional[float]) -> None:
    if guard is not None and not (math.isfinite(guard) and guard >= 0.0):
        raise ConfigError(f"guard must be finite and >= 0, got {guard!r}")


def _out_dir(args) -> str:
    out = os.environ.get("HYPCOORDS_OUT", ".") if args.out_dir is None else args.out_dir
    os.makedirs(out, exist_ok=True)
    return out


def cmd_orbit(args) -> int:
    spec, orbit = _orbit_from_args(args)
    out = _out_dir(args)
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
    spec, orbit = _orbit_from_args(args)
    out = _out_dir(args)
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


def _ledger_source(args):
    """Read ``--ledger``, or check the fit flags, before anything is written.

    Returns a function from the orbit to its ledger: the one read, or a fit.
    """
    if args.ledger:
        ledger = certificate.read_ledger(args.ledger)
        return lambda orbit: ledger
    flavor, eta = _flavor(args), args.eta
    if not (math.isfinite(eta) and eta > 1.0):
        raise ConfigError(f"eta must be finite and > 1, got {eta!r}")
    return lambda orbit: certificate.fit_constants(orbit, flavor, eta)


def _flavor(args) -> certificate.Flavor:
    return parse_value("flavor", args.flavor, certificate.Flavor.parse)


def cmd_certify(args) -> int:
    spec, orbit = _orbit_from_args(args)
    ledger = _ledger_source(args)(orbit)
    out = _out_dir(args)
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
    source = _ledger_source(args)
    orbit = None if args.ledger else _orbit_from_args(args)[1]
    ledger = source(orbit)
    out = _out_dir(args)
    aux = certificate.auxiliary_constants(ledger)
    payload = aux.as_dict()
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

    if args.k is not None:  # both sweeps measure all K(K+1)/2 pairs of orders up front
        _check_k(args.k)
        most = (math.isqrt(8 * MAX_COUNT + 1) - 1) // 2  # the largest K with K(K+1)/2 <= MAX_COUNT
        if args.k > most:
            raise ConfigError(f"k must be <= {most}, got {args.k}")
    try:
        spec, orbit = timed("orbit", _orbit_from_args, args)
        source = _ledger_source(args)
        out = _out_dir(args)
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
    spec, orbit = _orbit_from_args(args)
    ledger = _ledger_source(args)(orbit)
    out = _out_dir(args)
    report = bounds.verify_slow_variation(orbit, ledger)
    checks = write_bound_report(report, out, "slow_variation")
    if report.verdict:
        print(f"slow-variation chain passes at k={orbit.k}")
    else:
        print(f"slow variation: {report.first_failure().check} fails", file=sys.stderr)
    print(_summary_line(report.name, checks))
    return 0 if report.verdict else 1


def cmd_foliate(args) -> int:
    spec = _build_map(args)
    rect = _values_list("rect", args.rect)
    if len(rect) != 4 or not all(math.isfinite(v) for v in rect):
        raise ConfigError("--rect expects four finite numbers xmin,xmax,ymin,ymax")
    k, spacing, field, length, step, guard = (
        args.k, args.spacing, args.field, args.length, args.step, args.guard)
    _check_k(k)
    _check_guard(guard)
    if field not in (foliation.STABLE, foliation.UNSTABLE):
        raise ConfigError(f"field must be stable or unstable, got {field!r}")
    for name, value in (("spacing", spacing), ("length", length), ("step", step)):
        if not (math.isfinite(value) and value > 0.0):
            raise ConfigError(f"{name} must be positive and finite, got {value!r}")
    if step > length:
        raise ConfigError(f"step {step!r} exceeds length {length!r}")
    if not length / step <= MAX_COUNT:
        raise ConfigError(f"length/step gives more than {MAX_COUNT} steps per curve")
    nx, ny = (max(0.0, (hi - lo) / spacing) for lo, hi in (rect[:2], rect[2:]))
    if not max(nx, ny, nx * ny) <= MAX_COUNT:
        raise ConfigError(f"spacing {spacing!r} gives more than {MAX_COUNT} seeds in --rect")
    grid = foliation.foliation_grid(spec, tuple(rect), k, spacing, field, length, step, guard)
    if not grid.curves and not grid.failed_seeds:
        raise ConfigError(f"--rect holds no seed at spacing {spacing!r}")
    out = _out_dir(args)
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
    seed, trials, grid_n = args.seed, args.trials, args.grid_n
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    if trials > MAX_COUNT:
        raise ConfigError(f"trials must be <= {MAX_COUNT}, got {trials}")
    if grid_n < 4:
        raise ConfigError(f"grid_n must be >= 4, got {grid_n}")
    if grid_n > MAX_GRID_N:
        raise ConfigError(f"grid_n must be <= {MAX_GRID_N}, got {grid_n}")
    out = _out_dir(args)
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
    keys = ("lambda_values", "gamma_values", "c_values", "b_values", "gamma_tilde_values",
            "c_tilde_values")
    grids = [_values_list(key, getattr(args, key)) for key in keys]
    for key, values in zip(keys, grids):
        if not all(math.isfinite(v) for v in values):
            raise ConfigError(f"--{key.replace('_', '-')} entries must be finite")
    cells = certificate.feasibility_region_scan(_flavor(args), *grids)
    out = _out_dir(args)
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


def _add_ledger(p: argparse.ArgumentParser) -> None:
    """The flags of a subcommand that reads or fits a constants ledger."""
    p.add_argument("--flavor", default="II", help="nonsingular, I, II or both")
    p.add_argument("--eta", type=float, default=1.05, help="multiplicative fit slack > 1")
    p.add_argument("--ledger", help="read this ledger file instead of fitting one")


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
    _add_ledger(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("aux-constants", help="derived constants of a ledger")
    _add_common(p)
    _add_ledger(p)
    p.set_defaults(func=cmd_aux_constants)

    p = sub.add_parser(
        "verify-convergence",
        help="frame-drift bounds: assumption-free sums and certificate envelopes",
    )
    _add_common(p)
    _add_ledger(p)
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
    _add_ledger(p)
    p.set_defaults(func=cmd_verify_variation)

    p = sub.add_parser("foliate", help="integral curves of the frame fields over a rectangle")
    _add_common(p, orbit_args=False)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--rect", default="-1,1,-1,1", help="xmin,xmax,ymin,ymax")
    p.add_argument("--spacing", type=float, default=0.25)
    p.add_argument("--field", choices=[foliation.STABLE, foliation.UNSTABLE], default=foliation.STABLE)
    p.add_argument("--length", type=float, default=0.5)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--guard", type=float)
    p.set_defaults(func=cmd_foliate)

    p = sub.add_parser(
        "oracle-check",
        help="closed-form SVD vs critical-angle formula vs brute-force grid sweep",
    )
    _add_common(p, map_args=False, orbit_args=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--grid-n", dest="grid_n", type=int, default=1_000_000)
    p.set_defaults(func=cmd_oracle_check)

    # no abbreviations: "--b", a map flag elsewhere, would abbreviate --b-values
    p = sub.add_parser(
        "scan-constants", help="structural feasibility over a constants grid", allow_abbrev=False
    )
    _add_common(p, map_args=False, orbit_args=False)
    p.add_argument("--flavor", default="II", help="nonsingular, I, II or both")
    p.add_argument("--lambda-values", dest="lambda_values", default="1.5")
    p.add_argument("--gamma-values", dest="gamma_values", default="1.5")
    p.add_argument("--c-values", dest="c_values", default="0.1")
    p.add_argument("--b-values", dest="b_values", default="1.0")
    p.add_argument("--gamma-tilde-values", dest="gamma_tilde_values", default="1.0")
    p.add_argument("--c-tilde-values", dest="c_tilde_values", default="1.0")
    p.set_defaults(func=cmd_scan_constants)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process: parsing leaves it unchanged."""
    return build_parser()


def _with_config(args: argparse.Namespace, argv: Optional[Sequence[str]]) -> argparse.Namespace:
    """``argv`` parsed again, with the values of the ``--config`` file as the
    subcommand's defaults: a flag beats the file, and the file a flag's own
    default.  The file may hold the keys of the subcommand's own flags and,
    where it builds a map, the parameters of the map the file names, which
    go ahead of the ``--param`` flags."""
    cfg = read_config(args.config)
    own = {key: cast for key, cast in _CONFIG_KEYS.items() if hasattr(args, key)}
    map_params = set()
    if "map" in own and cfg.get("map") in BUILTIN_MAPS:
        map_params = set(inspect.signature(BUILTIN_MAPS[cfg["map"]]).parameters)
    unknown = sorted(set(cfg) - set(own) - map_params)
    if unknown:
        raise ConfigError(f"{args.config}: unknown keys {unknown}")
    defaults = {key: parse_value(key, text, own[key]) for key, text in cfg.items() if key in own}
    params = [f"{key}={text}" for key, text in cfg.items() if key not in own]
    if params:
        defaults["param"] = params
    parser = build_parser()  # the cached parser keeps the flags' own defaults
    commands, = (a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    commands[args.command].set_defaults(**defaults)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.config:
            args = _with_config(args, argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except HypcoordsError as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
