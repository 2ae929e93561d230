"""In-memory span tracer for the hypcoords benchmark.

The tracer wraps entry points of the ``hypcoords`` modules from outside:
the package itself is not modified.  Each wrapped call records a span
``[name, start, end, parent, op_id, leaf_s]`` in a list held in memory;
nothing is written until the caller asks for it after the run.

Two kinds of wrappers exist:

* span wrappers for layer-boundary calls (a few per op up to about 50,000
  per ``foliate`` op);
* leaf wrappers for the hottest calls (``linalg2.svd2_closed`` and the map
  callbacks, about a million per ``foliate`` op).  A leaf call only adds to a
  per-name call count and busy time, and to the ``leaf_s`` slot of the
  enclosing span, so that the enclosing span's self time excludes it.  A
  span per leaf call would cost more than the call itself.

A function that ``from .x import y`` re-binds in another module is wrapped
in every module namespace that holds it, and ``uninstall`` puts every
original back, so an untraced run after a traced one stays untraced.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import os
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

# Span fields, by position.
NAME, START, END, PARENT, OP, LEAF_S = range(6)

MAP_CALLBACKS = ("eval", "jacobian", "second_partials", "singular_set_distance", "domain_check")

Hook = Callable[[Counter, tuple, dict, object], None]


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_report(prefix: str) -> Hook:
    """Rows of a returned BoundReport, and rows that pass only through abs_tol."""

    def hook(counts, args, kwargs, report):
        counts[prefix + "_rows"] += len(report.rows)
        limit = 1.0 + report.tol
        counts["bounds.allowance_rows"] += sum(
            1 for r in report.rows if r.passed and r.lhs > r.rhs * limit
        )

    return hook


def _count_block(counts, args, kwargs, result):
    counts["cocycle.block_steps"] += _arg(args, kwargs, 2, "j") - _arg(args, kwargs, 1, "i")


def _count_orbit(counts, args, kwargs, result):
    counts["cocycle.orbit_steps"] += _arg(args, kwargs, 2, "k")


def _count_certificate(counts, args, kwargs, report):
    counts["certificate.check_rows"] += len(report.rows)


def _count_grid(counts, args, kwargs, grid):
    for curve in grid.curves:
        counts["foliation.terminations." + curve.termination] += 1
    counts["foliation.no_frame_seeds"] += len(grid.failed_seeds)
    counts["foliation.seeds"] += len(grid.curves) + len(grid.failed_seeds)


def _count_oracle(counts, args, kwargs, result):
    counts["hypframe.oracle_grid_points"] += _arg(args, kwargs, 1, "grid_n")


def _count_written(counts, args, kwargs, result):
    counts["cli.bytes_written"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


# (module, attribute, hook): span wrappers.  "Class.method" wraps a method.
# ``install`` fails if the package no longer has a target, so a renamed or
# inlined function cannot silently report zero calls.
SPAN_TARGETS: Tuple[Tuple[str, str, Optional[Hook]], ...] = (
    ("hypcoords.cli", "main", None),
    ("hypcoords.cli", "write_bound_report", None),
    ("hypcoords.cli", "write_certificate_report", None),
    ("hypcoords.cli", "_write_csv", _count_written),
    ("hypcoords.cli", "_write_json", _count_written),
    ("hypcoords.cocycle", "compute_orbit", _count_orbit),
    ("hypcoords.cocycle", "MatrixCocycle.__init__", None),
    ("hypcoords.cocycle", "MatrixCocycle.block", _count_block),
    ("hypcoords.cocycle", "norm_conorm_det", None),
    ("hypcoords.hypframe", "hyperbolic_coordinates", None),
    ("hypcoords.hypframe", "frame_from_scaled", None),
    ("hypcoords.hypframe", "frame_sequence", None),
    ("hypcoords.hypframe", "angle_theta", None),
    ("hypcoords.hypframe", "oracle_extremal_directions", _count_oracle),
    ("hypcoords.certificate", "fit_constants", None),
    ("hypcoords.certificate", "check_quasi_hyperbolic", _count_certificate),
    ("hypcoords.certificate", "auxiliary_constants", None),
    ("hypcoords.bounds", "verify_apriori_all", _count_report("bounds.apriori")),
    ("hypcoords.bounds", "verify_apriori_convergence", None),
    ("hypcoords.bounds", "verify_explicit_convergence", _count_report("bounds.explicit")),
    ("hypcoords.bounds", "bilinear_column_bounds", _count_report("bounds.bracket")),
    ("hypcoords.bounds", "_power_norms", None),
    ("hypcoords.foliation", "foliation_grid", _count_grid),
    ("hypcoords.foliation", "integrate_curve", None),
    ("hypcoords.foliation", "_field_direction", None),
)

LEAF_TARGETS: Tuple[Tuple[str, str], ...] = (("hypcoords.linalg2", "svd2_closed"),)

LAYERS = (
    "planar_maps",
    "linalg2",
    "cocycle",
    "hypframe",
    "certificate",
    "bounds",
    "foliation",
    "cli",
)


def layer_of(name: str) -> str:
    """Layer (module) of a span or leaf name such as 'cocycle.MatrixCocycle.block'."""
    return name.split(".", 1)[0]


class Tracer:
    """Wraps hypcoords entry points and records spans in memory.

    Use ``install()`` before the traced ops and ``uninstall()`` after them;
    set ``op_id`` before each op so that its spans share the identifier.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.leaf: Dict[str, List[float]] = {}
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn, hook: Optional[Hook]):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        wrapper.__perfbench_wrapper__ = True
        return wrapper

    def _leaf(self, name: str, fn):
        spans, stack = self.spans, self._stack
        stat = self.leaf.setdefault(name, [0, 0.0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args):
            t0 = clock()
            try:
                return fn(*args)
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt
                if stack:
                    spans[stack[-1]][LEAF_S] += dt

        wrapper.__perfbench_wrapper__ = True
        return wrapper

    # -- install / uninstall ---------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _rebind_everywhere(self, original, wrapper) -> None:
        """Replace ``original`` in every hypcoords module namespace that holds it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hypcoords" or mod_name.startswith("hypcoords.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        span_targets, leaf_targets, missing = [], [], []
        for mod_name, attr, hook in SPAN_TARGETS:
            mod = importlib.import_module(mod_name)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            target = method or attr
            if owner is None or not callable(getattr(owner, target, None)):
                missing.append(f"{mod_name}.{attr}")
            else:
                span_targets.append((mod_name.split(".", 1)[1] + "." + attr, owner_name, owner, target, hook))
        for mod_name, attr in LEAF_TARGETS:
            original = getattr(importlib.import_module(mod_name), attr, None)
            if original is None:
                missing.append(f"{mod_name}.{attr}")
            else:
                leaf_targets.append((mod_name.split(".", 1)[1] + "." + attr, original))
        if missing:
            raise RuntimeError(f"tracer targets missing from the package: {', '.join(missing)}")
        for name, owner_name, owner, target, hook in span_targets:
            original = getattr(owner, target)
            wrapper = self._span(name, original, hook)
            if owner_name:
                self._patch(owner, target, wrapper)
            else:
                self._rebind_everywhere(original, wrapper)
        for name, original in leaf_targets:
            self._rebind_everywhere(original, self._leaf(name, original))
        self._wrap_map_factories()

    def _wrap_map_factories(self) -> None:
        """Wrap the callbacks of every MapSpec that ``make_map`` builds."""
        from hypcoords import planar_maps

        def wrap_factory(factory):
            @functools.wraps(factory)
            def traced_factory(*args, **kwargs):
                spec = factory(*args, **kwargs)
                fields = {
                    f: self._leaf("planar_maps.callback", getattr(spec, f)) for f in MAP_CALLBACKS
                }
                return dataclasses.replace(spec, **fields)

            traced_factory.__perfbench_wrapper__ = True
            return traced_factory

        registry = planar_maps.BUILTIN_MAPS
        for key in list(registry):
            self._patches.append((registry, key, registry[key]))
            registry[key] = wrap_factory(registry[key])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- derived numbers ---------------------------------------------------

    def by_name(self) -> Dict[str, Tuple[int, float]]:
        """Calls and inclusive seconds per span or leaf name."""
        out: Dict[str, List[float]] = {}
        for rec in self.spans:
            entry = out.setdefault(rec[NAME], [0, 0.0])
            entry[0] += 1
            entry[1] += rec[END] - rec[START]
        for name, (calls, seconds) in self.leaf.items():
            out[name] = [calls, seconds]
        return {k: (int(v[0]), float(v[1])) for k, v in out.items()}

    def self_seconds(self) -> Dict[str, float]:
        """Self time per layer: span time minus child spans and leaf calls."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        out = {layer: 0.0 for layer in LAYERS}
        for idx, rec in enumerate(self.spans):
            own = rec[END] - rec[START] - child[idx] - rec[LEAF_S]
            out[layer_of(rec[NAME])] = out.get(layer_of(rec[NAME]), 0.0) + own
        for name, (_, seconds) in self.leaf.items():
            out[layer_of(name)] = out.get(layer_of(name), 0.0) + seconds
        return out

    def write(self, path: str, extra: dict) -> None:
        """Write every span, leaf total and count to ``path`` as JSON."""
        names = sorted({rec[NAME] for rec in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = dict(extra)
        payload.update(
            span_fields=["name", "start", "end", "parent", "op", "leaf_s"],
            span_names=names,
            spans=[[index[r[NAME]], r[START], r[END], r[PARENT], r[OP], r[LEAF_S]] for r in self.spans],
            leaf={k: {"calls": v[0], "seconds": v[1]} for k, v in self.leaf.items()},
            counts=dict(self.counts),
        )
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
