"""The benchmark's tracer still finds every function it wraps, and the
``brackets`` ops still give their recorded outcomes and, with the pruned
slot-norm maximum, the same values as without it.

``perfbench/tracing.py`` wraps package functions by name and refuses to
install when one is missing, and the benchmark's gate compares each op's
outcome with ``perfbench/reference.json``; without these tests a rename, an
inlined function or a changed bracket verdict would surface only when the
benchmark runs.
"""

import importlib
import os
import sys
from collections import Counter

import numpy as np

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_tracer_installs_every_hook(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    from hypcoords import cocycle

    original = cocycle.compute_orbit
    with tracing.Tracer():
        assert cocycle.compute_orbit is not original
    assert cocycle.compute_orbit is original


def test_tracer_counts_map_callbacks_of_orbit_and_field_kernel(monkeypatch):
    # the tracer swaps the MapSpec callback fields by name: a renamed field
    # fails here, not only in a traced benchmark run
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    from hypcoords import cocycle, foliation, planar_maps

    with tracing.Tracer() as tracer:
        spec = planar_maps.make_map("henon")
        assert all(getattr(getattr(spec, f), "__perfbench_wrapper__", False) for f in tracing.MAP_CALLBACKS)
        cocycle.compute_orbit(spec, np.array([0.1, 0.1]), 3)
        orbit_calls = tracer.leaf["planar_maps.callback"][0]
        assert orbit_calls > 0
        _, stops = foliation._field_directions(spec, np.array([[0.1, 0.1], [0.2, -0.1]]), 3, "stable", None)
        assert not stops.any()
        assert tracer.leaf["planar_maps.callback"][0] > orbit_calls


def test_foliate_op_computes_one_orbit_per_scalar_field_sample(monkeypatch, tmp_path):
    # the benchmark's ``foliation.field_samples`` counts ``_field_direction``
    # calls and times them as one frame-field sample; each must still build
    # its orbit with ``compute_orbit``, so a change that sends the seeds
    # through the batched kernel fails here, not only in perfbench's tests
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")

    with tracing.Tracer() as tracer:
        op = workloads.make_op("foliate-k8", 0, "tiny", str(tmp_path / "out"))
        op.outcome(op.prepare()())
    calls = tracer.by_name()
    assert calls["cocycle.compute_orbit"][0] == calls["foliation._field_direction"][0] > 0


def test_bracket_pool_keeps_recorded_outcomes(monkeypatch):
    # every 10th ``brackets`` pool entry, and entry 125 whose recorded
    # verdict is False, run through the benchmark's own op: a change to the
    # bracket checks that moves an outcome fails here before the benchmark's
    # gate refuses it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(PERFBENCH)
    workloads = importlib.import_module("workloads")
    recorded = workloads.load_reference(os.path.join(PERFBENCH, "reference.json"))["full/brackets"]
    assert recorded[125] == {"verdict": False, "rows": 7}
    for entry in [*range(0, len(recorded), 10), 125]:
        op = workloads.make_op("brackets", entry, "full", out_dir="")
        assert op.outcome(op.prepare()()) == recorded[entry], entry


def test_bracket_pool_pruned_norm_equals_every_slot_norm(monkeypatch):
    # every 10th ``brackets`` pool entry: the bilinear estimate, which
    # eigensolves only the slot matrices its bound cannot exclude, equals the
    # unpruned max(_power_norms(slot_mats).max(), second_slot.max()) bit for bit
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(PERFBENCH)
    workloads = importlib.import_module("workloads")
    from hypcoords import bounds

    def sides(report):
        rows = [(r.check, r.lhs.hex(), r.rhs.hex(), r.passed)
                for r in report.rows if r.check.startswith("bilinear_slice_")]
        return report.context["bilinear_norm_sampled"].hex(), rows

    pruned = bounds._largest_norm
    for entry in range(0, workloads.POOL_SIZE["brackets"], 10):
        op = workloads.make_op("brackets", entry, "full", out_dir="")
        monkeypatch.setattr(bounds, "_largest_norm", pruned)
        got = sides(op.prepare()())
        monkeypatch.setattr(bounds, "_largest_norm", lambda mats: float(bounds._power_norms(mats).max()))
        expected = sides(op.prepare()())
        assert len(got[1]) == 2 and got == expected, entry


def test_tracer_counts_rows_as_the_report_status_says(monkeypatch, tmp_path):
    # perfbench/tracing.py counts ``bounds.allowance_rows`` with its own copy
    # of the row rule and ``certificate.check_rows`` from the rows; both must
    # agree with the status that the ``BoundReport`` constructor stored.
    # Bound rows take no allowance, so a report with rows that pass only
    # through one is built by hand
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    from hypcoords import bounds, certificate, compute_orbit, make_map

    report = bounds.BoundReport("hand_built", 1e-9, ["a", "b"], [(0,), (1,), (2,)],
                                [[1.0, 2.0, 3.0], [1.0, 0.6, np.nan]], [[1.0, 1.5, 3.0], [2.0, 0.5, 1.0]],
                                [1.0, 0.25])
    counts = Counter()
    tracing._count_report("bounds.apriori")(counts, (), {}, report)
    status = report.columns()[-1]
    assert sorted(status.tolist()) == [0, 1, 1, 2, 2, 2]
    assert counts["bounds.allowance_rows"] == int((status == 1).sum())
    assert counts["bounds.apriori_rows"] == len(status)

    with tracing.Tracer() as tracer:
        op = workloads.make_op("converge-k80", 0, "full", str(tmp_path / "out"))
        assert op.outcome(op.prepare()())["exit"] == 0
        assert tracer.counts["bounds.allowance_rows"] == 0
        henon = make_map("henon", a=workloads.HENON_A, b=workloads.HENON_B)
        k = workloads.PARAMS["converge-k80"]["full"]["k"]
        orbit = compute_orbit(henon, np.array(workloads.attractor_start(0)), k)
        ledger = certificate.fit_constants(orbit, certificate.Flavor.SINGULAR_II, 1.05)
        before = tracer.counts["certificate.check_rows"]
        cert = certificate.check_quasi_hyperbolic(orbit, ledger)
        check_rows = tracer.counts["certificate.check_rows"] - before
    assert check_rows == len(cert.columns()[-1]) > 0


def test_tracer_counts_every_byte_a_converge_op_writes(monkeypatch, tmp_path):
    # ``cli.bytes_written`` adds the size of each file that ``_write_csv``
    # and ``_write_json`` wrote, so a report that bypassed them would be
    # missing from it; a ``converge-k80`` op writes two CSVs and two JSONs
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    out = tmp_path / "out"
    with tracing.Tracer() as tracer:
        op = workloads.make_op("converge-k80", 0, "full", str(out))
        assert op.outcome(op.prepare()())["exit"] == 0
    sizes = {path.name: path.stat().st_size for path in out.iterdir()}
    assert sorted(sizes) == [f"{stem}.{ext}" for stem in ("apriori_convergence", "explicit_convergence")
                             for ext in ("csv", "json")]
    assert tracer.counts["cli.bytes_written"] == sum(sizes.values()) > 10**6
