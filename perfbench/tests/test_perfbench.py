"""Tests of the benchmark itself (not of hypcoords).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def tiny_result(workload: str, trace: int, seed: int = 1) -> dict:
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_workloads_match_the_benchmark():
    assert sorted(WORKLOADS) == sorted(workloads.PARAMS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace, section):
    result = tiny_result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    if trace == 0:
        for name in expected:
            assert result["metrics"][name]["value"] > 0, name


def test_traced_counts_repeat_for_the_same_seed():
    counted = ("cocycle.block_steps", "cocycle.orbit_calls", "linalg2.svd2_calls",
               "bounds.apriori_rows", "bounds.allowance_rows")
    for workload in ("converge-k80", "foliate-k8"):
        first = tiny_result(workload, 1, seed=4)["metrics"]
        second = tiny_result(workload, 1, seed=4)["metrics"]
        for name in counted:
            assert first[name]["value"] == second[name]["value"], (workload, name)


def _wrappers_left():
    from hypcoords import cocycle, planar_maps

    left = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "hypcoords" or mod_name.startswith("hypcoords."):
            for attr, value in vars(mod).items():
                if getattr(value, "__perfbench_wrapper__", False):
                    left.append(f"{mod_name}.{attr}")
    for attr, value in vars(cocycle.MatrixCocycle).items():
        if getattr(value, "__perfbench_wrapper__", False):
            left.append(f"MatrixCocycle.{attr}")
    for key, value in planar_maps.BUILTIN_MAPS.items():
        if getattr(value, "__perfbench_wrapper__", False):
            left.append(f"BUILTIN_MAPS[{key}]")
    return left


def test_tracer_wraps_rebound_names_and_leaves_no_wrapper(tmp_path):
    from hypcoords import bounds, cli, cocycle, foliation, linalg2

    originals = (cocycle.compute_orbit, cocycle.MatrixCocycle.block, linalg2.svd2_closed, cli.main)
    tr = tracing.Tracer()
    with tr:
        for mod in (cocycle, bounds, foliation, cli):
            assert mod.compute_orbit.__perfbench_wrapper__
        assert _wrappers_left()
        op = workloads.make_op("foliate-k8", 0, "tiny", str(tmp_path / "out"))
        op.outcome(op.prepare()())
    assert _wrappers_left() == []
    assert (cocycle.compute_orbit, cocycle.MatrixCocycle.block, linalg2.svd2_closed, cli.main) == originals
    for mod in (bounds, foliation, cli):
        assert mod.compute_orbit is cocycle.compute_orbit
    calls = tr.by_name()
    assert calls["cocycle.compute_orbit"][0] == calls["foliation._field_direction"][0] > 0
    assert calls["planar_maps.callback"][0] > 0
    assert sum(tr.self_seconds().values()) == pytest.approx(
        sum(r[tracing.END] - r[tracing.START] for r in tr.spans if r[tracing.PARENT] < 0), rel=1e-9)


def test_tracer_fails_on_a_missing_target(monkeypatch):
    targets = tracing.SPAN_TARGETS + (("hypcoords.bounds", "no_such_function", None),)
    monkeypatch.setattr(tracing, "SPAN_TARGETS", targets)
    with pytest.raises(RuntimeError, match="hypcoords.bounds.no_such_function"):
        tracing.Tracer().install()
    assert _wrappers_left() == []


def test_sizes_with_the_same_inputs_share_a_reference():
    reference = workloads.load_reference(run.REFERENCE)
    assert workloads.reference_key("brackets", "tiny") == "full/brackets"
    assert workloads.reference_key("converge-k80", "tiny") == "tiny/converge-k80"
    assert {workloads.reference_key(w, s) for w in workloads.PARAMS for s in workloads.SIZES} == set(reference)


def _raising_op():
    def prepare():
        def call():
            raise RuntimeError("synthetic failure")
        return call

    return workloads.Op("brackets", 0, "raises", prepare, dict, lambda o: 1, workloads._no_rule)


def test_op_that_raises_is_counted_not_fatal():
    good = workloads.make_op("brackets", 0, "tiny", "unused")
    reference = workloads.load_reference(run.REFERENCE)
    results = run.run_ops(
        [good, _raising_op(), good],
        lambda op, outcome: workloads.gate(op, outcome, reference, "tiny"),
    )
    assert [r.ok for r in results] == [True, False, True]
    assert "synthetic failure" in results[1].problems[0]
    metrics = run.end_to_end(results, [0.1])
    assert metrics["ok_ratio"]["value"] == pytest.approx(2 / 3)


def test_speed_probe_samples_only_between_ops():
    import speed

    op = workloads.make_op("brackets", 0, "tiny", "unused")
    probe = speed.SpeedProbe()
    results = run.run_ops([op] * 5, lambda op, outcome: [], probe=probe)
    assert probe.samples
    for r in results:
        assert not any(r.start <= t < r.end for t, _ in probe.samples)
        assert r.seconds == pytest.approx((r.end - r.start) / probe.slowdown(r.start, r.end))


def test_gate_flags_a_changed_outcome_and_nan(tmp_path):
    op = workloads.make_op("brackets", 0, "tiny", "unused")
    reference = workloads.load_reference(run.REFERENCE)
    assert workloads.gate(op, {"rows": 7, "verdict": True}, reference, "tiny") == []
    assert workloads.gate(op, {"rows": 6, "verdict": True}, reference, "tiny")
    (tmp_path / "r.csv").write_text("check,lhs\nx,nan\n")
    (tmp_path / "r.json").write_text('{"lhs": NaN}\n')
    (tmp_path / "ok.csv").write_text("check,lhs\nnanny,1.5\n")
    assert workloads.has_nan(str(tmp_path)) == ["r.csv", "r.json"]


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".*"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("--workload", "brackets", "--seed", "0", "--seconds", "1", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
