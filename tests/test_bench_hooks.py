"""The benchmark's tracer still finds every function it wraps.

``perfbench/tracing.py`` wraps package functions by name and refuses to
install when one is missing, so a rename or an inlined function would
otherwise surface only when the benchmark runs.
"""

import importlib
import os
import sys

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
