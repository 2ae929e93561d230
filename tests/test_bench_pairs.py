import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def test_summary_of_the_recorded_pairs_is_the_recorded_summary():
    # BENCH_45.json was assembled by hand from its runs
    record = json.loads((ROOT / "BENCH_45.json").read_text())
    summary = bench_pairs.summarize(record["runs"], END_TO_END)
    assert summary == record["summary"]
    assert bench_pairs.medians(summary) == record["medians"]


def _run(pair, side, **metrics):
    return {"workload": "w", "seed": 7 + pair, "pair": pair, "side": side, "order": 0, "trace": 0,
            "metrics": metrics}


def test_wins_and_losses_follow_each_metric_direction_and_ties_count_for_neither():
    spec = [{"name": "op_s_p50", "better": "lower", "bound": 0.25},
            {"name": "work_per_s", "better": "higher", "bound": 0.25}]
    runs = [_run(0, "parent", op_s_p50=2.0, work_per_s=1.0), _run(0, "change", op_s_p50=1.0, work_per_s=1.0),
            _run(1, "change", op_s_p50=3.0, work_per_s=3.0), _run(1, "parent", op_s_p50=2.0, work_per_s=2.0),
            _run(2, "parent", op_s_p50=2.0, work_per_s=2.0), _run(2, "change", op_s_p50=2.0, work_per_s=1.0),
            # a traced run and a pair with one side only are left out
            {**_run(3, "parent", op_s_p50=9.0, work_per_s=9.0), "trace": 1},
            _run(4, "parent", op_s_p50=9.0, work_per_s=9.0)]
    entry = bench_pairs.summarize(runs, spec)["w"]
    assert (entry["seeds"], entry["pairs"]) == ([7, 8, 9], 3)
    op, work = entry["metrics"]["op_s_p50"], entry["metrics"]["work_per_s"]
    assert (op["change_wins"], op["change_losses"]) == (1, 1)
    assert (work["change_wins"], work["change_losses"]) == (1, 1)
    assert op["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0, "n": 3} and op["median_change_relative"] == 0.0
    # the work rate's median fell by half: worse by 50 % for a higher-is-better metric
    assert work["median_change_relative"] == pytest.approx(-0.5) and work["worse_by_relative"] == pytest.approx(0.5)
    assert work["parent_iqr"] == pytest.approx(0.5) and work["bound"] == 0.25
