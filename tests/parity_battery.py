"""Parity battery: the exit code, stdout, stderr and report digests of a
fixed set of CLI runs, written as one JSON file, with the verdict and the
row, failure and ``pass_within_rounding`` counts of every bound report.

Run it on two trees and compare the files; equal files mean every run gave
the same exit code, streams and report bytes:

    PYTHONPATH=src python tests/parity_battery.py parity.json
    python tests/parity_battery.py --compare parent.json change.json

``--compare`` lists the runs whose exit code, stderr, report verdicts or
counts differ apart from those whose bytes alone differ (stdout or a report
file), and exits 1 if any run is in the first list or in one file only.

The runs, each in-process through ``hypcoords.cli.main`` with a fresh
output directory:

* the 40 Henon attractor starts of the ``converge-k80`` benchmark workload
  (the test fixture iterated 25 j times, j = 0..39) at k = 80: ``certify``
  and ``verify-convergence`` under flavors II, I and both, then
  ``aux-constants`` and ``verify-variation`` under II;
* ``verify-convergence`` at k = 80 under flavors II and I from the Henon
  starts A and B of ``tests/conftest.py``, whose float SVD frames lie
  farther from the exact ones than some true drifts;
* ``certify`` and ``verify-convergence`` on the lorenz2d and standard-map
  fixtures at k = 5, 12 and 40 under every flavor;
* ``orbit`` of the linear map with matrix 1,0,0,0 at k = 3, whose CSV
  has empty last-row Jacobian cells and -inf logs;
* ``scan-constants`` under flavor I at lambda 1.5 and 3 and Gamma 2,
  whose ``violated`` cells are empty and a text holding a comma;
* ``oracle-check`` with seeds 0..4 at grids of 10^6, 20,001, 4,095,
  4,097, 4,111 and 65,551 points (odd grids next to powers of two, kept
  from the edges of the block prune that the window sweep replaced; the
  oracle's windows wrap and pass the grid's midpoint on them as on any
  grid), 100 trials each, and with seed 0 at 10^6 points and one trial;
* ``orbit`` and ``frames`` at k = 80 from the Henon fixture, A and B and
  the lorenz2d and standard-map fixtures;
* ``foliate`` at k = 2 and 8, stable and unstable, on the four rows of
  the ``foliate-k8`` workload's unshifted Henon seed lattice and on one
  lorenz2d and one standard-map rectangle;
* ``verify-convergence`` from the Henon fixture at k = 440 under flavor I
  and ``verify-variation`` at k = 287, the last orders that pass, whose
  reports reach 1e-305 and subnormal numbers;
* five runs that end in a sweep error: ``verify-convergence`` from the
  Henon fixture at k = 441 under flavor I and ``verify-variation`` at
  k = 288, each one order past its overflow horizon,
  ``verify-convergence`` of a linear map whose step has determinant 0,
  and of the rotation by theta = 0.3 at k = 1 and 5, whose first order
  has no frame.

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

HENON_A, HENON_B = 1.4, 0.3
HENON_FIXTURE = (0.7058109212783455, 0.019317772022865685)
HENON_STARTS = {"A": (0.6985013692329781, -0.010485509461833464),
                "B": (-0.8104708147484793, 0.3310660637099755)}
STANDARD_K = 6.0
STANDARD_FIXTURE = (3.676553231625218, 3.176553231625218)
LORENZ_FIXTURE = (0.2916092987128571, -0.04250950927462577)
FLAVORS = ("nonsingular", "I", "II", "both")
# foliate rectangles: the rows of the foliate-k8 lattice, each 0.2 high
# from y = -0.4 + 0.2 row, with its spacing, length and step
FOLIATE_RECTS = {
    **{f"henon-row{row}": ("henon", f"-1.0,1.0,{-0.4 + row * 0.2!r},{-0.4 + row * 0.2 + 0.2!r}")
       for row in range(4)},
    "lorenz2d": ("lorenz2d", "-1.0,1.0,-0.1,0.1"),
    "standard": ("standard", "0.0,2.0,3.0,3.2"),
}
FOLIATE_SETTINGS = ["--spacing", "0.2", "--length", "0.2", "--step", "0.002"]


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
    maps = {
        "henon": ["--map", "henon", "--a", repr(HENON_A), "--b", repr(HENON_B)],
        "lorenz2d": ["--map", "lorenz2d"],
        "standard": ["--map", "standard", "--K", repr(STANDARD_K)],
    }
    for entry in range(40):
        henon = [*maps["henon"], *_start(henon_start(entry)), "--k", "80"]
        for command in ("certify", "verify-convergence"):
            for flavor in ("II", "I", "both"):
                runs[f"henon-{entry}-{command}-{flavor}"] = [command, *henon, "--flavor", flavor]
        for command in ("aux-constants", "verify-variation"):
            runs[f"henon-{entry}-{command}-II"] = [command, *henon, "--flavor", "II"]
    for name, start in HENON_STARTS.items():
        for flavor in ("II", "I"):
            runs[f"henon-{name}-verify-convergence-{flavor}"] = [
                "verify-convergence", *maps["henon"], *_start(start), "--k", "80", "--flavor", flavor]
    for name, start in (("lorenz2d", LORENZ_FIXTURE), ("standard", STANDARD_FIXTURE)):
        for k in (5, 12, 40):
            for command in ("certify", "verify-convergence"):
                for flavor in FLAVORS:
                    runs[f"{name}-k{k}-{command}-{flavor}"] = [command, *maps[name], *_start(start),
                                                              "--k", str(k), "--flavor", flavor]
    starts = {"henon-fixture": ("henon", HENON_FIXTURE),
              **{f"henon-{name}": ("henon", start) for name, start in HENON_STARTS.items()},
              "lorenz2d": ("lorenz2d", LORENZ_FIXTURE), "standard": ("standard", STANDARD_FIXTURE)}
    for name, (map_name, start) in starts.items():
        for command in ("orbit", "frames"):
            runs[f"{name}-k80-{command}"] = [command, *maps[map_name], *_start(start), "--k", "80"]
    for name, (map_name, rect) in FOLIATE_RECTS.items():
        for k in (2, 8):
            for field in ("stable", "unstable"):
                runs[f"foliate-{name}-k{k}-{field}"] = [
                    "foliate", *maps[map_name], "--k", str(k), f"--rect={rect}", *FOLIATE_SETTINGS,
                    "--field", field]
    fixture = [*maps["henon"], *_start(HENON_FIXTURE)]
    runs["henon-fixture-k440-verify-convergence-I"] = ["verify-convergence", *fixture, "--k", "440",
                                                        "--flavor", "I"]
    runs["henon-fixture-k287-verify-variation"] = ["verify-variation", *fixture, "--k", "287"]
    runs["henon-fixture-k441-verify-convergence-I"] = ["verify-convergence", *fixture, "--k", "441",
                                                        "--flavor", "I"]
    runs["henon-fixture-k288-verify-variation"] = ["verify-variation", *fixture, "--k", "288"]
    runs["linear-singular-verify-convergence"] = ["verify-convergence", "--map", "linear", "--matrix", "2,0,0,0",
                                                  "--x0", "0.3", "--y0", "0.2", "--k", "3"]
    for k in (1, 5):
        runs[f"rotation-k{k}-verify-convergence"] = ["verify-convergence", "--map", "rotation", "--param", "theta=0.3",
                                                   "--x0", "0.3", "--y0", "0.2", "--k", str(k)]
    runs["linear-rank-one-orbit"] = ["orbit", "--map", "linear", "--matrix", "1,0,0,0", "--x0", "1", "--y0", "1",
                                     "--k", "3"]
    runs["scan-constants-I"] = ["scan-constants", "--flavor", "I", "--lambda-values", "1.5,3", "--gamma-values", "2"]
    for seed in range(5):
        for grid_n in (1_000_000, 20_001, 4_095, 4_097, 4_111, 65_551):
            runs[f"oracle-{seed}-{grid_n}"] = ["oracle-check", "--seed", str(seed), "--trials", "100",
                                              "--grid-n", str(grid_n)]
    runs["oracle-0-1000000-trials-1"] = ["oracle-check", "--seed", "0", "--trials", "1", "--grid-n", "1000000"]
    return runs


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _tallies(report: dict) -> dict:
    """The verdict of a report's JSON and its counts over every check: rows,
    failed and pass_within_rounding, or of a certificate report (a list of
    rows per check) rows and failed."""
    tallies = {"verdict": report["verdict"]}
    for summary in report["checks"].values():
        if isinstance(summary, list):
            summary = {"rows": len(summary), "failed": sum(not row["passed"] for row in summary)}
        for key in ("rows", "failed", "pass_within_rounding"):
            if key in summary:
                tallies[key] = tallies.get(key, 0) + summary[key]
    return tallies


def run_battery() -> dict:
    """Per run: the exit code, the digests of stdout, stderr and each report,
    and under "reports" the ``_tallies`` of each bound report."""
    from hypcoords import cli  # here, so that --compare runs without the package

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)  # relative output directories, so a printed path is the same in every run
        try:
            return {label: _run(cli, label, argv) for label, argv in battery().items()}
        finally:
            os.chdir(cwd)


def _run(cli, out_dir: str, argv: list) -> dict:
    """One run of ``run_battery``, writing to ``out_dir``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--out-dir", out_dir])
    entry = {"exit": code, "stdout": _digest(out.getvalue().encode()),
             "stderr": _digest(err.getvalue().encode()), "reports": {}}
    for name in sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []:
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        entry[name] = _digest(data)
        if name.endswith(".json"):
            report = json.loads(data)
            if "checks" in report and "verdict" in report:
                entry["reports"][name] = _tallies(report)
    return entry


def compare(parent: dict, change: dict) -> int:
    """Print the runs of two battery files whose outcome differs (exit code,
    stderr, report verdicts or counts), then those whose bytes alone differ;
    1 if any outcome differs or a run is in one file only."""
    outcome, byte_only = [], []
    for label in sorted(set(parent) & set(change)):
        a, b = parent[label], change[label]
        moved = [key for key in ("exit", "stderr") if a[key] != b[key]]
        reports_a, reports_b = a.get("reports", {}), b.get("reports", {})
        for name in sorted(set(reports_a) | set(reports_b)):
            ra, rb = reports_a.get(name, {}), reports_b.get(name, {})
            moved += [f"{name} {key} {ra.get(key)} -> {rb.get(key)}"
                      for key in sorted(set(ra) | set(rb)) if ra.get(key) != rb.get(key)]
        files = sorted(key for key in set(a) | set(b)
                       if key not in ("exit", "stderr", "reports") and a.get(key) != b.get(key))
        if moved:
            outcome.append(f"  {label}: " + "; ".join(moved + files))
        elif files:
            byte_only.append(f"  {label}: " + ", ".join(files))
    alone = sorted(set(parent) ^ set(change))
    print(f"{len(set(parent) & set(change))} runs in both files, {len(alone)} in one only"
          + "".join(f"\n  {label}" for label in alone))
    for title, lines in (("exit code, stderr, verdicts or counts", outcome), ("bytes alone", byte_only)):
        print(f"{len(lines)} runs differ in {title}")
        for line in lines:
            print(line)
    return 1 if outcome or alone else 0


def main(argv) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        files = []
        for path in argv[1:]:
            with open(path, encoding="utf-8") as fh:
                files.append(json.load(fh))
        return compare(*files)
    if len(argv) != 1:
        print("usage: parity_battery.py OUTPUT.json | --compare PARENT.json CHANGE.json", file=sys.stderr)
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
