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
import dataclasses
import functools
import inspect
import json
import math
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import bounds, certificate, foliation, hypframe, linalg2
from .cocycle import compute_orbit
from .errors import HypcoordsError, ConfigError, InvalidInput, parse_value, read_config
from .planar_maps import BUILTIN_MAPS, MapSpec, make_map
from .report import _TEXT_WIDTH, _digit_tables, _spell

# The keys a --config file may set: each the dest of a flag, whose type
# converts the file's text as it converts the flag's.
_CONFIG_KEYS = (
    "map", "matrix", "x0", "y0", "k", "flavor", "eta", "seed", "guard", "out_dir", "trials",
    "grid_n", "rect", "spacing", "field", "length", "step",
)


# Highest orbit order k, and most seeds in a foliate lattice, steps per
# curve and oracle-check trials.  Far larger counts do not fit in memory or
# run for hours, and an infinite one overflows the count.
MAX_COUNT = 10**6
# Most angles in an oracle-check grid.  Only a matrix that the oracle sweeps
# whole (flat or near-conformal, which the trials never are) builds the
# grid's columns: about 4 GB at 40 B per angle.
MAX_GRID_N = 10**8
# oracle-check trials per stacked frame and oracle call, which bounds the
# lists and arrays of a call (about 3 MB)
_ORACLE_TRIALS = 4096


def fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


# The byte that pads the texts of a CSV field, which no UTF-8 text holds (a
# check name may hold NUL)
_PAD = 0xFF
# Most lines that ``_write_csv`` assembles at once, which bounds its temporary bytes
_ROWS_PER_WRITE = 4096


def _texts(names: Sequence[str]) -> np.ndarray:
    """Each of ``names`` and a comma, as the rows of an (n, longest) uint8
    array padded with _PAD; a name that holds a comma, a double quote or a
    line break goes in double quotes, its own doubled (RFC 4180)."""
    texts = []
    for text in names:
        if any(mark in text for mark in ',"\r\n'):
            text = '"' + text.replace('"', '""') + '"'
        texts.append(text.encode() + b",")
    width = max(map(len, texts), default=1)
    return np.frombuffer(b"".join(text.ljust(width, bytes([_PAD])) for text in texts),
                         np.uint8).reshape(len(texts), width)


def _field(column) -> Tuple[np.ndarray, np.ndarray]:
    """A CSV column as the texts of its values, each with a comma, as rows
    padded with _PAD, and each line's row among them.  A column is a
    float64 array, whose distinct bit patterns ``_spell`` spells (0.0 and
    -0.0 stay apart); an int or bool array, 1-d or (n, d), each row its d
    ints in [0, 10^8) (else InvalidInput) joined by ":", in as many digits
    as the largest; a list of names (``_texts``); or a tuple of such a
    column and each line's position in it."""
    if isinstance(column, tuple):
        texts, at = _field(column[0])
        return texts, at[column[1]]
    if not isinstance(column, np.ndarray):
        return _texts(column), np.arange(len(column))
    if column.dtype != np.float64:  # digits from the four-digit groups of ``_digit_tables``
        ints = column.astype(np.int64, casting="same_kind")
        ints = ints[:, None] if ints.ndim == 1 else ints
        if not ((ints >= 0) & (ints < 10**8)).all():
            raise InvalidInput("an int column holds a value outside [0, 10^8)")
        width = len(str(ints.max(initial=0)))
        texts = np.full(ints.shape + (width + 1,), ord(":"), np.uint8)
        texts[:, -1:, -1] = ord(",")
        texts[..., :-1] = _digit_tables()[0][np.stack(np.divmod(ints, 10**4), -1)].view(np.uint8)[..., 8 - width:]
        texts[..., :-2][~np.logical_or.accumulate(texts[..., :-2] != ord("0"), axis=-1)] = _PAD  # leading zeros
        return texts.reshape(len(ints), ints.shape[1] * (width + 1)), np.arange(len(ints))
    distinct, at = np.unique(column.view(np.int64), return_inverse=True)
    texts = np.full((len(distinct), _TEXT_WIDTH + 1), ord(","), np.uint8)
    texts[:, :-1] = _spell(distinct.view(np.float64))
    texts[texts == 0] = _PAD
    return texts, at


def _write_csv(path: str, header: Sequence[str], columns: Sequence) -> None:
    """``header`` and the lines of ``columns`` (see ``_field``) as CSV, as
    many as the longest column has; a shorter column leaves its last cells
    empty.  A block of lines is the rows of their fields side by side,
    without the padding, the last field's comma turned into a line break."""
    fields = list(map(_field, columns))
    lines = max(len(at) for _, at in fields)
    for n, (texts, at) in enumerate(fields):
        if len(at) < lines:  # each missing cell reads an empty text: a comma
            empty = np.full((1, texts.shape[1]), _PAD, np.uint8)
            empty[0, 0] = ord(",")
            fields[n] = np.vstack((texts, empty)), np.pad(at, (0, lines - len(at)), constant_values=len(texts))
    *fields, (last, at) = fields
    last = last.copy()
    if last.size:
        last[np.arange(len(last)), last.shape[1] - 1 - np.argmax(last[:, ::-1] != _PAD, axis=1)] = ord("\n")
    fields.append((last, at))
    line = np.dtype([(f"f{n}", (np.void, texts.shape[1])) for n, (texts, _) in enumerate(fields)])
    fields = [(texts.view(line[n]).ravel(), at) for n, (texts, at) in enumerate(fields)]
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, len(at), _ROWS_PER_WRITE):
            block = slice(start, start + _ROWS_PER_WRITE)
            lines = np.empty(len(at[block]), line)
            for n, (texts, rows) in enumerate(fields):
                lines[f"f{n}"] = texts[rows[block]]
            fh.write(lines.tobytes().translate(None, bytes([_PAD])))


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _check_summary(name: str, indices: np.ndarray, lhs: np.ndarray, rhs: np.ndarray, status: np.ndarray) -> dict:
    """The summary of one check of a bound report, from its row of the report's table."""
    with np.errstate(all="ignore"):  # inf and NaN are valid sides
        margin = rhs - lhs
        relative = np.where(rhs != 0.0, margin / np.abs(rhs), np.nan)
    failed = np.flatnonzero(status == 0)
    finite = np.flatnonzero(np.isfinite(relative))
    n = finite[np.argmin(relative[finite])] if finite.size else None  # the first of least margin
    least = None if n is None else {"index": tuple(indices[n].tolist()), "value": relative[n].item()}
    failures = [{"check": name, "index": tuple(i), "lhs": a, "rhs": b, "margin": m, "passed": False}
                for i, a, b, m in zip(*(x[failed].tolist() for x in (indices, lhs, rhs, margin)))]
    return {"rows": len(status), "failed": len(failures), "failures": failures,
            "pass_within_rounding": int(np.count_nonzero(status == 1)), "least_relative_margin": least}


def write_bound_report(report: bounds.BoundReport, out_dir: str, stem: str) -> Dict[str, dict]:
    """Write ``report`` to ``stem``.csv and a summary of each check to
    ``stem``.json; return the summaries by check.

    The CSV rows are the report's ``columns``, each ending with the status
    the report gave it: ``fail``, ``pass_within_rounding`` (passed only
    through its absolute allowance) or ``pass``.  A check's summary, taken
    from its row of the report's table, counts its rows, failures and
    allowance-only passes, lists its failing rows, and names its first row
    of least finite margin / |rhs| (none where rhs = 0).
    """
    checks, check, indices, index, lhs, rhs, status = report.columns()
    with np.errstate(all="ignore"):  # inf and NaN are valid sides
        margin = rhs - lhs
    header = ["check", "index", "lhs", "rhs", "margin", "passed", "status"]
    _write_csv(os.path.join(out_dir, stem + ".csv"), header, [
        (checks, check), (indices, index), lhs, rhs, margin,
        (np.array([False, True, True]), status), (["fail", "pass_within_rounding", "pass"], status)])
    summaries = {name: _check_summary(name, indices, *row)
                 for name, *row in zip(checks, report.lhs, report.rhs, report.status)}
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


def write_certificate_report(report: bounds.BoundReport, flavor: certificate.Flavor,
                             out_dir: str, stem: str) -> None:
    """The certificate rows of ``report``, log values at index (i,), as
    ``stem``.csv and, grouped by check, ``stem``.json."""
    checks, check, indices, index, lhs, rhs, status = report.columns()
    with np.errstate(all="ignore"):  # inf and NaN are valid sides
        values = [lhs, rhs, rhs - lhs, status > 0]
        table = [report.lhs, report.rhs, report.rhs - report.lhs, report.status > 0]
    header = ["i", "check", "log_lhs", "log_rhs", "margin", "passed"]
    _write_csv(os.path.join(out_dir, stem + ".csv"), header, [(indices, index), (checks, check), *values])
    i = indices[:, 0].tolist()
    nested = {name: [dict(zip(header[:1] + header[2:], cells)) for cells in zip(i, *(x.tolist() for x in row))]
              for name, *row in zip(checks, *table)}  # each check's row of the table
    failed = np.flatnonzero(status == 0)
    first = [i[index[failed[0]]], checks[check[failed[0]]]] if failed.size else None
    _write_json(os.path.join(out_dir, stem + ".json"),
                {"flavor": flavor.value, "verdict": report.verdict, "first_failure": first, "checks": nested})


def _build_map(args) -> MapSpec:
    if not args.map:
        raise ConfigError("no map selected (use --map or a config file)")
    params: Dict[str, float] = dict(args.param or [])
    if args.matrix is not None:
        params.update(zip(("m11", "m12", "m21", "m22"), args.matrix))
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
    if args.x0 is None or args.y0 is None or args.k is None:
        raise ConfigError("x0, y0 and k are required")
    return spec, compute_orbit(spec, np.array([args.x0, args.y0]), args.k, args.guard)


def _out_dir(args) -> str:
    out = os.environ.get("HYPCOORDS_OUT", ".") if args.out_dir is None else args.out_dir
    os.makedirs(out, exist_ok=True)
    return out


def cmd_orbit(args) -> int:
    spec, orbit = _orbit_from_args(args)
    out = _out_dir(args)
    coc = orbit.cocycle
    # each Jacobian entry of the k steps, one line short: the last point's cells stay empty
    _write_csv(os.path.join(out, "orbit.csv"),
               ["i", "x", "y", "j11", "j12", "j21", "j22", "log_norm", "log_conorm", "log_absdet"],
               [np.arange(orbit.k + 1), *orbit.points.T, *np.reshape(coc.steps, (-1, 4)).T,
                *map(np.array, (coc.log_norm, coc.log_conorm, coc.log_absdet))])
    print(f"wrote {os.path.join(out, 'orbit.csv')}")
    return 0


def cmd_frames(args) -> int:
    spec, orbit = _orbit_from_args(args)
    out = _out_dir(args)
    frames = hypframe.frame_sequence(orbit)
    k, e, f, *logs, flags = (np.array([getattr(frame, name) for frame in frames]) for name in (
        "k", "e", "f", "log_sigma_max", "log_sigma_min", "coecc", "theta", "low_confidence"))
    _write_csv(os.path.join(out, "frames.csv"), ["k", "e_x", "e_y", "f_x", "f_y", "log_sigma_max", "log_sigma_min",
                                                 "coecc", "theta", "confidence_flag"],
               [k, *e.T, *f.T, *logs, flags])
    print(f"wrote {os.path.join(out, 'frames.csv')}")
    return 0


def _ledger_source(args):
    """Read ``--ledger`` before anything is written; return a function from
    the orbit to its ledger: the one read, or a fit."""
    if args.ledger:
        ledger = certificate.read_ledger(args.ledger)
        return lambda orbit: ledger
    return lambda orbit: certificate.fit_constants(orbit, args.flavor, args.eta)


def cmd_certify(args) -> int:
    spec, orbit = _orbit_from_args(args)
    ledger = _ledger_source(args)(orbit)
    out = _out_dir(args)
    report = certificate.check_quasi_hyperbolic(orbit, ledger)
    certificate.write_ledger(os.path.join(out, "ledger.txt"), ledger)
    write_certificate_report(report, ledger.flavor, out, "certificate")
    if not report.verdict:
        row = report.first_failure()
        print(f"certificate check {row.check} fails at i={row.index[0]}", file=sys.stderr)
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
    rect, spacing, length, step = args.rect, args.spacing, args.length, args.step
    if step > length:
        raise ConfigError(f"step {step!r} exceeds length {length!r}")
    if not length / step <= MAX_COUNT:
        raise ConfigError(f"length/step gives more than {MAX_COUNT} steps per curve")
    nx, ny = (max(0.0, (hi - lo) / spacing) for lo, hi in (rect[:2], rect[2:]))
    if not max(nx, ny, nx * ny) <= MAX_COUNT:
        raise ConfigError(f"spacing {spacing!r} gives more than {MAX_COUNT} seeds in --rect")
    grid = foliation.foliation_grid(spec, tuple(rect), args.k, spacing, args.field, length, step, args.guard)
    if not grid.curves and not grid.failed_seeds:
        raise ConfigError(f"--rect holds no seed at spacing {spacing!r}")
    out = _out_dir(args)
    sizes = [len(curve.points) for curve in grid.curves]
    points = np.concatenate([np.zeros((0, 3)), *(np.column_stack((c.arclengths, c.points)) for c in grid.curves)])
    _write_csv(os.path.join(out, "curves.csv"), ["curve_id", "s", "x", "y"],
               [np.repeat(np.arange(len(sizes)), sizes), *points.T])
    svg = foliation.curves_to_svg(grid.curves, tuple(rect))
    with open(os.path.join(out, "curves.svg"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)
    print(
        f"wrote {len(grid.curves)} curves ({len(grid.failed_seeds)} seeds without frames)"
    )
    return 0


def _random_test_matrices(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` seeded random 2x2 matrices with co-eccentricity < 0.9 and
    co-norm >= 0.05, (count, 2, 2): the uniform draws from [-2, 2] that pass,
    in the order drawn."""
    passed = []
    while count > 0:  # about 95 % of draws pass, so one batch nearly always does
        m = rng.uniform(-2.0, 2.0, size=(min(2 * count + 8, 2**16), 2, 2))
        s = linalg2.svd2_closed(m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1])
        keep = s.smin >= 0.05
        keep[keep] = s.smin[keep] / s.smax[keep] < 0.9
        passed.append(m[keep][:count])
        count -= len(passed[-1])
    return np.concatenate(passed)


def _oracle_stacks(ms: np.ndarray, grid_n: int):
    """Per stack of up to _ORACLE_TRIALS trial matrices: the stack, its
    singular values, its frame angles as an array and the grid oracle's
    result, from one stacked call of each."""
    for start in range(0, len(ms), _ORACLE_TRIALS):
        stack = ms[start : start + _ORACLE_TRIALS]
        s = linalg2.svd2_closed(stack[:, 0, 0], stack[:, 0, 1], stack[:, 1, 0], stack[:, 1, 1])
        _, thetas = hypframe.frame_directions(stack)
        yield stack, s, np.array(thetas), hypframe.oracle_extremal_directions(stack, grid_n)


def _trial_checks(stack: np.ndarray, s: linalg2.Svd2, theta_svd: np.ndarray, oracle: hypframe.OracleResult,
                  grid_n: int) -> Tuple[np.ndarray, ...]:
    """Per trial of one stack: whether it fails a check; the distance of the
    closed-form frame angle from the critical angle of
    ``hypframe.angle_theta`` and from the grid oracle's; and the relative
    errors of the oracle's norms against the singular values.  Array
    expressions in the arithmetic of one trial at a time; math.atan2 and
    Python's ** 2 stay per trial, whose last bit np.arctan2 and x * x do not
    always match."""
    a, b, c, d = stack[:, 0, 0], stack[:, 0, 1], stack[:, 1, 0], stack[:, 1, 1]
    num = 2.0 * (a * b + c * d)  # angle_theta(a, c, b, d)
    den = (b * b + d * d) - (a * a + c * c)
    degenerate = (np.abs(num) < 1e-14) & (np.abs(den) < 1e-14)
    if degenerate.any():  # ConformalDegenerate, from the first such trial
        i = int(np.argmax(degenerate))
        hypframe.angle_theta(float(a[i]), float(c[i]), float(b[i]), float(d[i]))
    theta_expand = 0.5 * np.array([math.atan2(y, x) for y, x in zip(num.tolist(), den.tolist())])
    theta_expand[theta_expand < 0.0] += math.pi
    d1 = linalg2.line_angle_distance(theta_svd, theta_expand)
    d2 = linalg2.line_angle_distance(theta_svd, oracle.theta_max)
    n1 = np.abs(oracle.norm_max - s.smax) / s.smax
    n2 = np.abs(oracle.norm_min - s.smin) / s.smin
    # nearest grid angle sits within pi/(2 n) of the extremum; the induced
    # norm error scales with the curvature over the extremal value, which
    # for the small singular value carries a 1/coecc^2 factor
    delta_sq = (math.pi / (2.0 * grid_n)) ** 2
    tol_max = max(1e-8, 2.0 * delta_sq)
    tol_min = np.maximum(1e-8, 2.0 * delta_sq * np.array([r**2 for r in (s.smax / s.smin).tolist()]))
    failed = (d1 > 1e-9) | (d2 > math.pi / grid_n + 1e-9) | (n1 > tol_max) | (n2 > tol_min)
    return failed, d1, d2, n1, n2


def cmd_oracle_check(args) -> int:
    seed, trials, grid_n = args.seed, args.trials, args.grid_n
    out = _out_dir(args)
    ms = _random_test_matrices(np.random.default_rng(seed), trials)
    violations = 0
    worst_angle = 0.0
    worst_norm = 0.0
    for stack in _oracle_stacks(ms, grid_n):
        failed, d1, d2, n1, n2 = _trial_checks(*stack, grid_n)
        violations += int(np.count_nonzero(failed))
        worst_angle = max(worst_angle, float(d1.max()), float(d2.max()))
        worst_norm = max(worst_norm, float(n1.max()), float(n2.max()))
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


def cmd_scan_constants(args) -> int:
    grids = [getattr(args, f"{name}_values") for name in _SCAN_GRIDS]
    cells = certificate.feasibility_region_scan(args.flavor, *grids)
    out = _out_dir(args)
    *numbers, feasible, violated = ([getattr(cell, field.name) for cell in cells]
                                    for field in dataclasses.fields(certificate.ScanCell))
    _write_csv(os.path.join(out, "scan.csv"), ["lambda", "Gamma", "c", "b", "Gamma_tilde", "c_tilde", "feasible",
                                               "violated"], [*np.array(numbers), np.array(feasible), violated])
    feasible = sum(1 for c in cells if c.feasible)
    print(f"scanned {len(cells)} cells, {feasible} feasible")
    return 0


def _flag(key: str, cast: Callable, *rules: Tuple[Callable, str]) -> Callable:
    """The ``type`` of the flag whose dest is ``key``, which also converts
    its ``--config`` value: ``cast`` (a ConfigError "key: reason" where that
    fails), then each rule, a test and the message of a value that fails it."""

    def convert(text: str):
        value = parse_value(key, text, cast)
        for test, message in rules:
            if not test(value):
                raise ConfigError(message.format(value))
        return value

    return convert


def _count(key: str, low: int, high: float) -> Callable:
    return _flag(key, int, (lambda n: n >= low, f"{key} must be >= {low}, got {{!r}}"),
                 (lambda n: n <= high, f"{key} must be <= {high}, got {{!r}}"))


def _positive(key: str) -> Callable:
    rule = key + " must be positive and finite, got {!r}"
    return _flag(key, float, (lambda v: math.isfinite(v) and v > 0.0, rule))


def _floats(text: str) -> List[float]:
    return [float(v) for v in text.split(",")]


def _param(text: str) -> Tuple[str, float]:
    """The type of ``--param`` and of a map parameter in a ``--config`` file."""
    key, sep, value = text.partition("=")
    if not sep:
        raise ConfigError(f"--param expects key=value, got {text!r}")
    return key.strip(), parse_value(key.strip(), value, float)


_ORDER = ((lambda k: k >= 1, "k must be >= 1"),
          (lambda k: k <= MAX_COUNT, f"k must be <= {MAX_COUNT}, got {{!r}}"))
_GUARD = _flag("guard", float, (lambda g: math.isfinite(g) and g >= 0.0,
                                "guard must be finite and >= 0, got {!r}"))
_FLAVOR = _flag("flavor", certificate.Flavor.parse)
# The grids of scan-constants, by the name in their flag and dest, with their defaults
_SCAN_GRIDS = {"lambda": "1.5", "gamma": "1.5", "c": "0.1", "b": "1.0", "gamma_tilde": "1.0", "c_tilde": "1.0"}


def _add_common(p: argparse.ArgumentParser, map_args: bool = True,
                order: Optional[Callable] = _flag("k", int, *_ORDER)) -> None:
    """The flags of every subcommand, then those of the map it builds, where
    it does, and with ``order`` the type of ``--k``, of the orbit it starts."""
    p.add_argument("--config", help="flat key = value configuration file")
    p.add_argument("--out-dir", dest="out_dir", help="output directory (env HYPCOORDS_OUT)")
    if map_args:
        p.add_argument("--map", help="builtin map name")
        p.add_argument("--param", action="append", type=_param, help="map parameter key=value (repeatable)")
        p.add_argument("--a", type=_flag("a", float), help="Henon a")
        p.add_argument("--b", type=_flag("b", float), help="Henon b")
        p.add_argument("--K", type=_flag("K", float), help="standard-map kick strength")
        p.add_argument("--matrix", type=_flag("matrix", _floats, (
            lambda m: len(m) == 4, "--matrix expects four comma-separated entries")),
            help="linear map entries m11,m12,m21,m22")
    if order:
        for start in ("x0", "y0"):
            rule = start + " must be finite, got {!r}"
            p.add_argument(f"--{start}", type=_flag(start, float, (math.isfinite, rule)),
                           help=f"orbit start {start[0]}")
        p.add_argument("--k", type=order, help="orbit order")
        p.add_argument("--guard", type=_GUARD, help="singular-set guard distance")


def _add_ledger(p: argparse.ArgumentParser) -> None:
    """The flags of a subcommand that reads or fits a constants ledger."""
    p.add_argument("--flavor", type=_FLAVOR, default="II", help="nonsingular, I, II or both")
    p.add_argument("--eta", type=_flag("eta", float, (lambda e: math.isfinite(e) and e > 1.0,
                                                      "eta must be finite and > 1, got {!r}")),
                   default=1.05, help="multiplicative fit slack > 1")
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
    # both sweeps hold all K(K+1)/2 pairs of orders at once: the largest K with K(K+1)/2 <= MAX_COUNT
    most = (math.isqrt(8 * MAX_COUNT + 1) - 1) // 2
    _add_common(p, order=_flag("k", int, *_ORDER, (lambda k: k <= most, f"k must be <= {most}, got {{!r}}")))
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
    _add_common(p, order=None)
    p.add_argument("--k", type=_flag("k", int, *_ORDER), default=1)
    p.add_argument("--rect", default="-1,1,-1,1", help="xmin,xmax,ymin,ymax", type=_flag("rect", _floats, (
        lambda r: len(r) == 4 and all(map(math.isfinite, r)),
        "--rect expects four finite numbers xmin,xmax,ymin,ymax")))
    p.add_argument("--spacing", type=_positive("spacing"), default=0.25)
    fields = (foliation.STABLE, foliation.UNSTABLE)
    p.add_argument("--field", metavar="{%s}" % ",".join(fields), default=foliation.STABLE, type=_flag(
        "field", str, (fields.__contains__, "field must be stable or unstable, got {!r}")))
    p.add_argument("--length", type=_positive("length"), default=0.5)
    p.add_argument("--step", type=_positive("step"), default=1e-3)
    p.add_argument("--guard", type=_GUARD)
    p.set_defaults(func=cmd_foliate)

    p = sub.add_parser(
        "oracle-check",
        help="closed-form SVD vs critical-angle formula vs brute-force grid sweep",
    )
    _add_common(p, map_args=False, order=None)
    p.add_argument("--seed", type=_count("seed", 0, math.inf), default=0)
    p.add_argument("--trials", type=_count("trials", 1, MAX_COUNT), default=1000)
    p.add_argument("--grid-n", dest="grid_n", type=_count("grid_n", 4, MAX_GRID_N), default=1_000_000)
    p.set_defaults(func=cmd_oracle_check)

    # no abbreviations: "--b", a map flag elsewhere, would abbreviate --b-values
    p = sub.add_parser(
        "scan-constants", help="structural feasibility over a constants grid", allow_abbrev=False
    )
    _add_common(p, map_args=False, order=None)
    p.add_argument("--flavor", type=_FLAVOR, default="II", help="nonsingular, I, II or both")
    for name, default in _SCAN_GRIDS.items():
        flag = f"--{name.replace('_', '-')}-values"
        p.add_argument(flag, dest=f"{name}_values", default=default, type=_flag(f"{name}_values", _floats, (
            lambda v: all(map(math.isfinite, v)), flag + " entries must be finite")))
    p.set_defaults(func=cmd_scan_constants)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process: parsing leaves it unchanged."""
    return build_parser()


def _subcommands(parser: argparse.ArgumentParser) -> Dict[str, argparse.ArgumentParser]:
    commands, = (a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return commands


@functools.lru_cache(maxsize=None)
def _config_finder() -> argparse.ArgumentParser:
    """A parser that reads only the subcommand and its ``--config`` path,
    abbreviated as far as the subcommand allows, and leaves the rest."""
    finder = _ArgumentParser(add_help=False)
    sub = finder.add_subparsers(dest="command", required=True)
    for name, command in _subcommands(_parser()).items():
        sub.add_parser(name, add_help=False, allow_abbrev=command.allow_abbrev).add_argument("--config")
    return finder


def _parser_for(argv: Optional[Sequence[str]]) -> argparse.ArgumentParser:
    """The cached parser, or for a ``--config`` run a fresh one whose
    subcommand defaults are the file's values, each converted by its flag's
    type before the command line is read: a flag beats the file, but the
    file's bad values are reported first.  The file may hold the keys of the
    subcommand's flags and the parameters of the map it names (ahead of any
    ``--param``)."""
    try:
        found, _ = _config_finder().parse_known_args(argv)
    except ConfigError:  # the full parse reports it, or a -h before it prints the help
        return _parser()
    if not found.config:
        return _parser()
    cfg = read_config(found.config)
    parser = build_parser()  # the cached parser keeps the flags' own defaults
    command = _subcommands(parser)[found.command]
    flags = {a.dest: a for a in command._actions if a.dest in _CONFIG_KEYS}
    map_params = set()
    if "map" in flags and cfg.get("map") in BUILTIN_MAPS:
        map_params = set(inspect.signature(BUILTIN_MAPS[cfg["map"]]).parameters)
    unknown = sorted(set(cfg) - set(flags) - map_params)
    if unknown:
        raise ConfigError(f"{found.config}: unknown keys {unknown}")
    defaults = {key: (flags[key].type or str)(text) for key, text in cfg.items() if key in flags}
    params = [_param(f"{key}={text}") for key, text in cfg.items() if key not in flags]
    if params:
        defaults["param"] = params
    command.set_defaults(**defaults)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser_for(argv).parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except HypcoordsError as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
