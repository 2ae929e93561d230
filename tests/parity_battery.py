"""Parity battery: the exit code, stdout, stderr and report digests of a
fixed set of CLI runs, written as one JSON file.

Run it on two trees and compare the files; equal files mean every run gave
the same exit code, streams and report bytes:

    PYTHONPATH=src python tests/parity_battery.py parity.json

The runs, each in-process through ``hypcoords.cli.main`` with a fresh
output directory:

* the 40 Henon attractor starts of the ``converge-k80`` benchmark workload
  (the test fixture iterated 25 j times, j = 0..39) at k = 80: ``certify``
  and ``verify-convergence`` under flavors II, I and both, then
  ``aux-constants`` and ``verify-variation`` under II;
* ``certify`` and ``verify-convergence`` on the lorenz2d and standard-map
  fixtures at k = 5, 12 and 40 under every flavor;
* ``oracle-check`` with seeds 0..4 at grids of 10^6 and 20,001 points,
  100 trials each.

Digests are SHA-256.  The starts are recomputed here, as the benchmark
computes them; this file imports nothing from the benchmark.  pytest does
not collect it.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from hypcoords import cli

HENON_A, HENON_B = 1.4, 0.3
HENON_FIXTURE = (0.7058109212783455, 0.019317772022865685)
STANDARD_K = 6.0
STANDARD_FIXTURE = (3.676553231625218, 3.176553231625218)
LORENZ_FIXTURE = (0.2916092987128571, -0.04250950927462577)
FLAVORS = ("nonsingular", "I", "II", "both")


def henon_start(entry: int) -> tuple:
    """The fixture iterated 25 * entry times, as the benchmark's pool starts are."""
    x, y = HENON_FIXTURE
    for _ in range(25 * entry):
        x, y = 1.0 + y - HENON_A * x * x, HENON_B * x
    return x, y


def _start(point) -> list:
    return ["--x0", repr(point[0]), "--y0", repr(point[1])]


def battery() -> dict:
    """The argv of every run, by label."""
    runs = {}
    for entry in range(40):
        henon = ["--map", "henon", "--a", repr(HENON_A), "--b", repr(HENON_B),
                 *_start(henon_start(entry)), "--k", "80"]
        for command in ("certify", "verify-convergence"):
            for flavor in ("II", "I", "both"):
                runs[f"henon-{entry}-{command}-{flavor}"] = [command, *henon, "--flavor", flavor]
        for command in ("aux-constants", "verify-variation"):
            runs[f"henon-{entry}-{command}-II"] = [command, *henon, "--flavor", "II"]
    maps = {
        "lorenz2d": ["--map", "lorenz2d", *_start(LORENZ_FIXTURE)],
        "standard": ["--map", "standard", "--K", repr(STANDARD_K), *_start(STANDARD_FIXTURE)],
    }
    for name, args in maps.items():
        for k in (5, 12, 40):
            for command in ("certify", "verify-convergence"):
                for flavor in FLAVORS:
                    runs[f"{name}-k{k}-{command}-{flavor}"] = [command, *args, "--k", str(k),
                                                              "--flavor", flavor]
    for seed in range(5):
        for grid_n in (1_000_000, 20_001):
            runs[f"oracle-{seed}-{grid_n}"] = ["oracle-check", "--seed", str(seed), "--trials", "100",
                                              "--grid-n", str(grid_n)]
    return runs


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_battery() -> dict:
    """Per run: the exit code and the digests of stdout, stderr and each report."""
    results = {}
    with tempfile.TemporaryDirectory() as scratch:
        for label, argv in battery().items():
            out_dir = os.path.join(scratch, label)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([*argv, "--out-dir", out_dir])
            entry = {"exit": code, "stdout": _digest(out.getvalue().encode()),
                     "stderr": _digest(err.getvalue().encode())}
            for name in sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []:
                with open(os.path.join(out_dir, name), "rb") as fh:
                    entry[name] = _digest(fh.read())
            results[label] = entry
    return results


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: parity_battery.py OUTPUT.json", file=sys.stderr)
        return 2
    results = run_battery()
    with open(argv[0], "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
    exits = [entry["exit"] for entry in results.values()]
    print(f"{len(results)} runs, exit codes " + ", ".join(
        f"{code}: {exits.count(code)}" for code in sorted(set(exits))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
