"""Benchmark of the hypcoords package: time to verdict, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload converge-k80 --seed 0 --seconds 20 --trace 0

The benchmark drives the package from outside, as one process in a closed
loop: one caller, each op starting only after the previous one returned.
An op is one in-process ``hypcoords.cli.main(argv)`` call, or one public
library call where no CLI path exists (``brackets``).  A run executes a
fixed number of ops, ``round(seconds / nominal op time)``, so a faster
program finishes the same ops sooner.  Op times are corrected for the
speed the shared machine ran at (see speed.py).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics from a traced run (see tracing.py).  Every op goes
through the correctness gate of workloads.py.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it describe the run and the machine.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
REFERENCE = os.path.join(HERE, "reference.json")

if HERE not in sys.path:
    sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


@dataclass
class OpResult:
    label: str
    start: float
    end: float
    work: int = 0
    problems: List[str] = field(default_factory=list)
    seconds: float = 0.0  # wall time, corrected for machine speed when probed

    @property
    def ok(self) -> bool:
        return not self.problems


def run_ops(ops, check, tracer: Optional[tracing.Tracer] = None, probe=None) -> List[OpResult]:
    """Run ops one after another; an op that raises is recorded, not fatal.

    ``check(op, outcome)`` returns the gate's problems for one op.  With a
    ``speed.SpeedProbe``, the machine's speed is sampled right before and
    right after each op, outside its timed call, and op times are corrected
    by those samples.
    """
    results = []
    for op_id, op in enumerate(ops):
        gc.collect()
        start = end = time.perf_counter()
        try:
            call = op.prepare()
            if tracer is not None:
                tracer.op_id = op_id
            if probe is not None:
                probe.sample()
            start = time.perf_counter()
            try:
                value = call()
            finally:
                end = time.perf_counter()
                if probe is not None:
                    probe.sample()
            outcome = op.outcome(value)
            results.append(OpResult(op.label, start, end, op.work(outcome), check(op, outcome)))
        except (Exception, SystemExit) as exc:  # an op that raises counts as failed
            results.append(OpResult(op.label, start, end, 0, [f"raised {type(exc).__name__}: {exc}"]))
    for r in results:
        r.seconds = probe.corrected(r.start, r.end) if probe is not None else r.end - r.start
    return results


def machine() -> Dict[str, object]:
    """The machine the run measured on."""
    import numpy

    l3 = None
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size", "r", encoding="ascii") as fh:
            text = fh.read().strip()
        l3 = int(text[:-1]) * 1024 if text.endswith("K") else int(text)
    except (OSError, ValueError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "l3_bytes": l3,
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
    }


def setup(workload: str, seed: int, size: str, seconds: float, out_dir: str):
    """Import the package, build the run's ops and warm up; returns (ops, seconds)."""
    t0 = time.perf_counter()
    import hypcoords.cli  # noqa: F401

    count = workloads.ops_per_run(workload, size, seconds)
    reference = workloads.load_reference(REFERENCE)
    ops = workloads.make_ops(workload, seed, size, count, os.path.join(out_dir, "op"), reference)
    warm = workloads.warmup_op(workload, size, os.path.join(out_dir, "warmup"))
    warm.prepare()()
    return ops, time.perf_counter() - t0


def probe_setup_seconds(args) -> List[float]:
    """[raw, corrected] set-up time of SETUP_PROBES fresh processes, each measuring itself."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--probe-setup",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--size", args.size],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append([float(v) for v in proc.stdout.split()[-2:]])
    return samples


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(results: List[OpResult], setup_samples: List[float]) -> Dict[str, dict]:
    times = [r.seconds for r in results]
    wall = sum(times)
    work = sum(r.work for r in results)
    ok = sum(1 for r in results if r.ok)
    return {
        "setup_s": metric(statistics.median(setup_samples), "s"),
        "wall_s": metric(wall, "s"),
        "op_s_p50": metric(statistics.median(times), "s"),
        "work_per_s": metric(work / wall if wall > 0 else 0.0, "1/s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ratio": metric(ok / len(results), "ratio"),
    }


def _median_per_call(fn, calls: int, repeats: int = 5) -> float:
    """Median over ``repeats`` of the mean time of one call, in microseconds."""
    per_call = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        per_call.append((time.perf_counter() - t0) / calls * 1e6)
    return statistics.median(per_call)


def micro_timings() -> Dict[str, dict]:
    """The ROADMAP per-layer primitives, each called in isolation on fixed inputs."""
    import numpy as np

    from hypcoords import cocycle, foliation, linalg2, planar_maps

    spec = planar_maps.make_map("henon", a=workloads.HENON_A, b=workloads.HENON_B)
    p = np.array(workloads.FIXTURE)
    k = 8
    return {
        "linalg2.svd2_us": metric(_median_per_call(lambda: linalg2.svd2_closed(1.3, -0.4, 0.7, 0.2), 20000), "us"),
        "cocycle.orbit_step_us": metric(_median_per_call(lambda: cocycle.compute_orbit(spec, p, k), 300) / k, "us"),
        "foliation.sample_us": metric(
            _median_per_call(lambda: foliation._field_direction(spec, p, k, foliation.UNSTABLE, None), 300), "us"),
    }


WRITE_SPANS = ("cli.write_bound_report", "cli.write_certificate_report", "cli._write_csv", "cli._write_json")
FRAME_SPANS = ("hypframe.hyperbolic_coordinates", "hypframe.frame_from_scaled")


def per_layer(tr: tracing.Tracer, n_ops: int, untraced_wall: float, traced_wall: float) -> Dict[str, dict]:
    """Per-op layer metrics from one traced pass of ``n_ops`` ops."""
    calls = tr.by_name()
    counts = tr.counts

    def n(name):
        return calls.get(name, (0, 0.0))[0] / n_ops

    def s(name):
        return calls.get(name, (0, 0.0))[1] / n_ops

    def c(name):
        return counts.get(name, 0) / n_ops

    write_s = sum(
        rec[tracing.END] - rec[tracing.START]
        for rec in tr.spans
        if rec[tracing.NAME] in WRITE_SPANS
        and (rec[tracing.PARENT] < 0 or tr.spans[rec[tracing.PARENT]][tracing.NAME] not in WRITE_SPANS)
    ) / n_ops
    oracle_s = s("hypframe.oracle_extremal_directions")
    grid_points = c("hypframe.oracle_grid_points")
    oracle_calls = n("hypframe.oracle_extremal_directions")
    oracle_bytes = grid_points * workloads.ORACLE_BYTES_PER_POINT
    seeds = counts.get("foliation.seeds", 0)
    out = {
        "cocycle.block_calls": metric(n("cocycle.MatrixCocycle.block"), "count"),
        "cocycle.block_steps": metric(c("cocycle.block_steps"), "count"),
        "cocycle.block_s": metric(s("cocycle.MatrixCocycle.block"), "s"),
        "cocycle.orbit_calls": metric(n("cocycle.compute_orbit"), "count"),
        "cocycle.orbit_steps": metric(c("cocycle.orbit_steps"), "count"),
        "cocycle.orbit_s": metric(s("cocycle.compute_orbit"), "s"),
        "bounds.apriori_rows": metric(c("bounds.apriori_rows"), "count"),
        "bounds.apriori_s": metric(s("bounds.verify_apriori_all"), "s"),
        "bounds.explicit_rows": metric(c("bounds.explicit_rows"), "count"),
        "bounds.explicit_s": metric(s("bounds.verify_explicit_convergence"), "s"),
        "bounds.allowance_rows": metric(c("bounds.allowance_rows"), "count"),
        "bounds.bracket_calls": metric(n("bounds.bilinear_column_bounds"), "count"),
        "bounds.power_norms_calls": metric(n("bounds._power_norms"), "count"),
        "bounds.power_norms_s": metric(s("bounds._power_norms"), "s"),
        "cli.write_s": metric(write_s, "s"),
        "cli.bytes_written": metric(c("cli.bytes_written"), "B"),
        "cli.write_mb_per_s": metric(c("cli.bytes_written") / write_s / 1e6 if write_s > 0 else 0.0, "MB/s"),
        "linalg2.svd2_calls": metric(n("linalg2.svd2_closed"), "count"),
        "planar_maps.callback_calls": metric(n("planar_maps.callback"), "count"),
        "planar_maps.callback_s": metric(s("planar_maps.callback"), "s"),
        "foliation.field_samples": metric(n("foliation._field_direction"), "count"),
        "foliation.full_length_ratio": metric(
            counts.get("foliation.terminations.length", 0) / seeds if seeds else 0.0, "ratio"),
        "foliation.no_frame_seeds": metric(c("foliation.no_frame_seeds"), "count"),
        "hypframe.frame_calls": metric(sum(n(x) for x in FRAME_SPANS), "count"),
        "hypframe.frame_s": metric(sum(s(x) for x in FRAME_SPANS), "s"),
        "hypframe.oracle_calls": metric(oracle_calls, "count"),
        "hypframe.oracle_s": metric(oracle_s, "s"),
        "hypframe.oracle_bytes_computed": metric(oracle_bytes, "B"),
        "hypframe.oracle_ops_computed": metric(grid_points * workloads.ORACLE_OPS_PER_POINT, "count"),
        "hypframe.oracle_gb_per_s_computed": metric(oracle_bytes / oracle_s / 1e9 if oracle_s > 0 else 0.0, "GB/s"),
        "hypframe.oracle_working_set_mb": metric(
            grid_points / oracle_calls * workloads.ORACLE_WORKING_SET_BYTES_PER_POINT / 1e6
            if oracle_calls else 0.0, "MB"),
        "certificate.fit_s": metric(s("certificate.fit_constants"), "s"),
        "certificate.check_rows": metric(c("certificate.check_rows"), "count"),
        "certificate.check_s": metric(s("certificate.check_quasi_hyperbolic"), "s"),
        "trace.spans": metric(len(tr.spans) / n_ops, "count"),
        "trace.overhead_s": metric((traced_wall - untraced_wall) / n_ops, "s"),
    }
    for reason in ("length", "domain", "singular", "degenerate"):
        out["foliation.terminations." + reason] = metric(c("foliation.terminations." + reason), "count")
    for layer, seconds in tr.self_seconds().items():
        out[layer + ".self_s"] = metric(seconds / n_ops, "s")
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PARAMS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="tiny runs the same code paths on small inputs (for tests)")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hypcoords", "cli.py")):
        print(f"perfbench: no hypcoords package under {SRC}", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    out_dir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    try:
        if args.probe_setup:
            _, seconds = setup(args.workload, args.seed, args.size, args.seconds, out_dir)
            import speed  # imports numpy, so only after the set-up was timed

            slowdown = speed.slowdown_now()
            print(f"setup_s {seconds!r} {seconds / slowdown!r}")
            return 0
        return run(args, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def run(args, out_dir: str) -> int:
    reference = workloads.load_reference(REFERENCE)

    def check(op, outcome):
        return workloads.gate(op, outcome, reference, args.size)

    setup_samples = [] if args.trace else probe_setup_seconds(args)
    ops, _ = setup(args.workload, args.seed, args.size, args.seconds, out_dir)
    info = {
        "workload": args.workload, "seed": args.seed, "size": args.size, "trace": args.trace,
        "ops": len(ops), "closed_loop_callers": 1, "work_unit": workloads.WORK_UNIT[args.workload],
        "machine": machine(),
    }
    import speed

    kernel = workloads.PROBE_KERNEL[args.workload]
    if args.trace:
        n_traced = max(1, len(ops) // 2)
        ops = ops[:n_traced]
        metrics = micro_timings()
        untraced = run_ops(ops, check, probe=speed.SpeedProbe(kernel))
        tr = tracing.Tracer()
        with tr:
            traced = run_ops(ops, check, tr, speed.SpeedProbe(kernel))
        results = untraced + traced
        untraced_wall = sum(r.seconds for r in untraced)
        traced_wall = sum(r.seconds for r in traced)
        metrics.update(per_layer(tr, len(ops), untraced_wall, traced_wall))
        os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
        trace_path = os.path.join(OUT, "traces", f"{args.workload}-seed{args.seed}.json")
        tr.write(trace_path, {"run": info, "untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall})
        info["trace_file"] = os.path.relpath(trace_path, ROOT)
        info["traced_ops"] = len(ops)
    else:
        probe = speed.SpeedProbe(kernel)
        results = run_ops(ops, check, probe=probe)
        metrics = end_to_end(results, [corrected for _, corrected in setup_samples])
        info["setup_samples_s"] = setup_samples
        info["op_samples"] = len(results)
        info["raw_wall_s"] = sum(r.end - r.start for r in results)
        info["raw_op_s_p50"] = statistics.median(r.end - r.start for r in results)
        slowdowns = [probe.slowdown(r.start, r.end) for r in results]
        info["slowdown_min_p50_max"] = [min(slowdowns), statistics.median(slowdowns), max(slowdowns)]
    failed = [r for r in results if not r.ok]
    info["fail_ratio"] = len(failed) / len(results)
    print("run " + json.dumps(info, sort_keys=True))
    for r in failed:
        print(f"failed op: {r.label}: {'; '.join(r.problems)}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
