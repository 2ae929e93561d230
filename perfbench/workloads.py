"""Workloads of the hypcoords benchmark: inputs, ops and the correctness gate.

Every workload draws its ops from a fixed pool of inputs, and
``reference.json`` records the outcome of every pool entry at the commit
that defined the benchmark.  The run's seed picks the entries (see
``pool_window``), so the same seed always gives the same ops.  An op passes
the gate when it returns, its outcome equals the recorded one, the
workload's own rule holds, and no report it wrote holds NaN.

Sizes: ``full`` is what the benchmark measures; ``tiny`` runs the same code
paths on small inputs, for the benchmark's own tests.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

# Henon regression fixture of the test suite (635 iterations from (0.1, 0.1)).
HENON_A, HENON_B = 1.4, 0.3
FIXTURE = (0.7058109212783455, 0.019317772022865685)
ATTRACTOR_STRIDE = 25  # Henon iterations between consecutive pool starts

# Fractional parts of j * (golden ratio, plastic number) give lattice
# shifts that fill the unit square without repeating.
_SHIFT_X, _SHIFT_Y = 0.6180339887498949, 0.7548776662466927

# Bytes the oracle sweep reads and writes per grid point, counted from the
# numpy passes in hypframe.oracle_extremal_directions: f = g11*s2 (read s2,
# write f), two passes f += g*w that each build a temporary (read w, write
# tmp, read f, read tmp, write f), then argmax and argmin (read f each):
# 16 + 40 + 40 + 8 + 8.  Computed from grid_n, not measured.
ORACLE_BYTES_PER_POINT = 112
# Arithmetic per grid point: three multiplies, two adds, two compares.
ORACLE_OPS_PER_POINT = 7
# Arrays the sweep touches: s2, sc2, c2, f and one temporary, 8 bytes each.
ORACLE_WORKING_SET_BYTES_PER_POINT = 40

SIZES = ("full", "tiny")

PARAMS: Dict[str, Dict[str, dict]] = {
    "converge-k80": {
        "full": {"k": 80, "nominal_op_s": 2.2},
        "tiny": {"k": 6, "nominal_op_s": 0.25},
    },
    "foliate-k8": {
        "full": {"k": 8, "spacing": 0.2, "length": 0.2, "step": 0.002, "nominal_op_s": 1.0},
        "tiny": {"k": 2, "spacing": 0.5, "length": 0.02, "step": 0.002, "nominal_op_s": 0.25},
    },
    "oracle-1e6": {
        "full": {"trials": 100, "grid_n": 1_000_000, "nominal_op_s": 1.1},
        "tiny": {"trials": 3, "grid_n": 10_000, "nominal_op_s": 0.25},
    },
    "brackets": {
        "full": {"samples": 1500, "nominal_op_s": 0.04},
        "tiny": {"samples": 1500, "nominal_op_s": 0.25},
    },
}

POOL_SIZE = {"converge-k80": 40, "foliate-k8": 160, "oracle-1e6": 40, "brackets": 1200}

WORK_UNIT = {
    "converge-k80": "bound rows checked",
    "foliate-k8": "curve points integrated",
    "oracle-1e6": "oracle trials",
    "brackets": "bracket checks",
}

# Kernel of speed.SpeedProbe that slows down like the workload's ops.
PROBE_KERNEL = {"converge-k80": "python", "foliate-k8": "python", "oracle-1e6": "stream", "brackets": "python"}

# A foliate op integrates one row of the seed lattice over FOLIATE_RECT (10
# seeds, 4 rows at full size): pool entry j is row j % rows of the lattice
# shifted by lattice_shift(j // rows).  One row rather than the whole
# rectangle keeps an op near one second, so the speed probe, which samples
# only between ops, samples about once a second.
FOLIATE_RECT = (-1.0, 1.0, -0.4, 0.4)

_CSV_NAN = re.compile(rb"(?:^|,)nan(?:,|$)", re.MULTILINE)
_JSON_NAN = re.compile(rb"\bNaN\b")


def attractor_start(entry: int) -> tuple:
    """Point of the Henon attractor ``entry * ATTRACTOR_STRIDE`` steps past the fixture."""
    x, y = FIXTURE
    for _ in range(entry * ATTRACTOR_STRIDE):
        x, y = 1.0 + y - HENON_A * x * x, HENON_B * x
    return x, y


def lattice_shift(j: int, spacing: float) -> tuple:
    """Shift of the foliate seed lattice for pool entry j, each below one spacing."""
    return (
        round(spacing * ((j * _SHIFT_X) % 1.0), 6),
        round(spacing * ((j * _SHIFT_Y) % 1.0), 6),
    )


def ops_per_run(workload: str, size: str, seconds: float) -> int:
    """Fixed number of ops for a run of ``seconds`` on the reference machine."""
    return max(1, round(seconds / PARAMS[workload][size]["nominal_op_s"]))


def pool_window(seed: int, count: int, outcomes: List[dict]) -> List[int]:
    """Pool entries of a run, ``count`` in all, in pool order.

    Entries are grouped by their recorded exit code (or verdict).  Each
    group gives its share of ``count`` (largest remainder) as consecutive
    members from ``seed * share``, wrapping, so every run mixes outcomes as
    the whole pool does, and seed 0 starts at pool entry 0.
    """
    groups: Dict[str, List[int]] = {}
    for j, o in enumerate(outcomes):
        groups.setdefault(str(o.get("exit", o.get("verdict"))), []).append(j)
    quotas = {k: count * len(v) / len(outcomes) for k, v in groups.items()}
    shares = {k: int(q) for k, q in quotas.items()}
    for k in sorted(quotas, key=lambda k: shares[k] - quotas[k])[: count - sum(shares.values())]:
        shares[k] += 1
    picked = []
    for k, members in groups.items():
        n = shares[k]
        picked += [members[(seed * n + i) % len(members)] for i in range(n)]
    return sorted(picked)


def has_nan(out_dir: str) -> List[str]:
    """Names of CSV or JSON reports in ``out_dir`` that hold NaN."""
    bad = []
    for name in sorted(os.listdir(out_dir)):
        pattern = _CSV_NAN if name.endswith(".csv") else _JSON_NAN if name.endswith(".json") else None
        if pattern is None:
            continue
        with open(os.path.join(out_dir, name), "rb") as fh:
            if pattern.search(fh.read()):
                bad.append(name)
    return bad


def _bound_report(out_dir: str, stem: str):
    """(rows, verdict) of a written bound report, or (None, None) if absent."""
    csv_path = os.path.join(out_dir, stem + ".csv")
    if not os.path.exists(csv_path):
        return None, None
    with open(csv_path, "rb") as fh:
        rows = fh.read().count(b"\n") - 1
    with open(os.path.join(out_dir, stem + ".json"), "rb") as fh:
        return rows, json.loads(fh.read())["verdict"]


@dataclass
class Op:
    """One timed call: ``prepare`` (untimed) returns the zero-argument call to time."""

    workload: str
    entry: int
    label: str
    prepare: Callable[[], Callable[[], object]]
    outcome: Callable[[object], dict]
    work: Callable[[dict], int]
    rule: Callable[[dict], List[str]]


def _no_rule(outcome: dict) -> List[str]:
    return []


class CliCall:
    """One in-process ``hypcoords.cli.main(argv)`` call writing into ``out_dir``."""

    def __init__(self, argv: List[str], out_dir: str):
        self.argv = list(argv) + ["--out-dir", out_dir]
        self.out_dir = out_dir

    def prepare(self) -> Callable[[], int]:
        import hypcoords.cli

        shutil.rmtree(self.out_dir, ignore_errors=True)
        os.makedirs(self.out_dir)

        def call() -> int:
            # the module attribute is read at call time, so a traced run
            # goes through the tracer's wrapper
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                return hypcoords.cli.main(self.argv)

        return call



def _converge_op(entry: int, size: str, out_dir: str) -> Op:
    p = PARAMS["converge-k80"][size]
    start = attractor_start(entry)
    cli = CliCall(
        [
            "verify-convergence", "--map", "henon", "--a", repr(HENON_A), "--b", repr(HENON_B),
            "--x0", repr(start[0]), "--y0", repr(start[1]), "--k", str(p["k"]), "--flavor", "II",
        ],
        out_dir,
    )

    def outcome(rc) -> dict:
        a_rows, a_verdict = _bound_report(out_dir, "apriori_convergence")
        e_rows, e_verdict = _bound_report(out_dir, "explicit_convergence")
        return {
            "exit": rc,
            "apriori_rows": a_rows,
            "apriori_verdict": a_verdict,
            "explicit_rows": e_rows,
            "explicit_verdict": e_verdict,
            "nan_reports": has_nan(out_dir),
        }

    return Op(
        "converge-k80", entry, f"verify-convergence x0={start[0]!r}", cli.prepare, outcome,
        lambda o: (o["apriori_rows"] or 0) + (o["explicit_rows"] or 0), _no_rule,
    )


def _foliate_op(entry: int, size: str, out_dir: str) -> Op:
    p = PARAMS["foliate-k8"][size]
    x0, x1, y0, y1 = FOLIATE_RECT
    rows = round((y1 - y0) / p["spacing"])
    dx, dy = lattice_shift(entry // rows, p["spacing"])
    band = y0 + dy + (entry % rows) * p["spacing"]
    rect = f"{x0 + dx!r},{x1 + dx!r},{band!r},{band + p['spacing']!r}"
    cli = CliCall(
        [
            "foliate", "--map", "henon", "--a", repr(HENON_A), "--b", repr(HENON_B),
            "--k", str(p["k"]), f"--rect={rect}", "--spacing", repr(p["spacing"]),
            "--field", "unstable", "--length", repr(p["length"]), "--step", repr(p["step"]),
        ],
        out_dir,
    )

    def outcome(rc) -> dict:
        ids = set()
        points = 0
        path = os.path.join(out_dir, "curves.csv")
        if os.path.exists(path):
            with open(path, "rb") as fh:
                next(fh)
                for line in fh:
                    ids.add(line.split(b",", 1)[0])
                    points += 1
        return {"exit": rc, "curves": len(ids), "points": points, "nan_reports": has_nan(out_dir)}

    return Op(
        "foliate-k8", entry, f"foliate rect={rect}", cli.prepare, outcome,
        lambda o: o["points"], _no_rule,
    )


def _oracle_rule(outcome: dict) -> List[str]:
    return [f"{outcome['violations']} oracle violations"] if outcome["violations"] != 0 else []


def _oracle_op(entry: int, size: str, out_dir: str, trials: Optional[int] = None) -> Op:
    p = PARAMS["oracle-1e6"][size]
    trials = p["trials"] if trials is None else trials
    cli = CliCall(
        ["oracle-check", "--seed", str(entry), "--trials", str(trials), "--grid-n", str(p["grid_n"])],
        out_dir,
    )

    def outcome(rc) -> dict:
        with open(os.path.join(out_dir, "oracle_check.json"), "rb") as fh:
            report = json.loads(fh.read())
        return {
            "exit": rc,
            "trials": report["trials"],
            "violations": report["violations"],
            "nan_reports": has_nan(out_dir),
        }

    return Op(
        "oracle-1e6", entry, f"oracle-check --seed {entry}", cli.prepare, outcome,
        lambda o: o["trials"], _oracle_rule,
    )


def _brackets_op(entry: int, size: str) -> Op:
    import numpy as np

    samples = PARAMS["brackets"][size]["samples"]
    n = 2 + entry % 3
    gen = np.random.default_rng([entry, 0])
    matrix = gen.standard_normal((n, n))
    bilinear = gen.standard_normal((n, n, n))
    v = gen.standard_normal(n)

    def prepare():
        from hypcoords import bounds

        # a fresh sampling generator per call, so a repeated op repeats exactly
        rng = np.random.default_rng([entry, 1])
        return lambda: bounds.bilinear_column_bounds(
            matrix=matrix, bilinear=bilinear, v=v, rng=rng, samples=samples
        )

    def outcome(report) -> dict:
        return {"verdict": report.verdict, "rows": len(report.rows)}

    return Op("brackets", entry, f"bilinear_column_bounds n={n} entry={entry}", prepare, outcome,
              lambda o: 1, _no_rule)


def make_op(workload: str, entry: int, size: str, out_dir: str) -> Op:
    if workload == "converge-k80":
        return _converge_op(entry, size, out_dir)
    if workload == "foliate-k8":
        return _foliate_op(entry, size, out_dir)
    if workload == "oracle-1e6":
        return _oracle_op(entry, size, out_dir)
    if workload == "brackets":
        return _brackets_op(entry, size)
    raise ValueError(f"unknown workload {workload!r}")


def make_ops(workload: str, seed: int, size: str, count: int, out_dir: str, reference: dict) -> List[Op]:
    """The run's op list: ``count`` pool entries chosen by ``seed``."""
    entries = pool_window(seed, count, reference[reference_key(workload, size)])
    return [make_op(workload, j, size, out_dir) for j in entries]


def warmup_op(workload: str, size: str, out_dir: str) -> Op:
    """A cheap op that loads every code path and cache the timed ops use."""
    if workload == "oracle-1e6":
        return _oracle_op(0, size, out_dir, trials=1)  # builds the full-size angle grid
    return make_op(workload, 0, "tiny", out_dir)


def reference_key(workload: str, size: str) -> str:
    """Key of a workload's recorded outcomes at ``size``, as "size/workload".

    A size whose inputs equal the ``full`` ones (only the nominal op time
    differs, as for ``brackets``) shares the ``full`` record.
    """

    def inputs(s):
        return {k: v for k, v in PARAMS[workload][s].items() if k != "nominal_op_s"}

    return f"{'full' if inputs(size) == inputs('full') else size}/{workload}"


def load_reference(path: str) -> Dict[str, List[dict]]:
    """Recorded outcomes, keyed by ``reference_key``, one per pool entry."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def gate(op: Op, outcome: dict, reference: dict, size: str) -> List[str]:
    """Problems with an op's outcome; an empty list means the op passed."""
    problems = []
    expected = reference[reference_key(op.workload, size)][op.entry]
    if outcome != expected:
        diff = {k: (outcome.get(k), expected.get(k)) for k in set(outcome) | set(expected)
                if outcome.get(k) != expected.get(k)}
        problems.append(f"outcome differs from reference (got, expected): {diff}")
    if outcome.get("nan_reports"):
        problems.append(f"NaN in {outcome['nan_reports']}")
    problems.extend(op.rule(outcome))
    return problems
