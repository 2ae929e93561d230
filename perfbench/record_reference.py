"""Record reference.json: the outcome of every pool entry of every workload.

    python3 perfbench/record_reference.py [SIZE ...]

With no SIZE every size is recorded; otherwise only the named sizes are
re-recorded and the rest of the file is kept.  Run this only when the
benchmark itself changes (new workload, new pool entry, new size).  The outcomes are those of the package at the commit
where it runs; the gate then holds every later commit to them.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import run
import workloads


def main() -> int:
    sys.path.insert(0, run.SRC)
    out_dir = os.path.join(run.OUT, f"record-{os.getpid()}")
    sizes = sys.argv[1:] or list(workloads.SIZES)
    reference = workloads.load_reference(run.REFERENCE) if os.path.exists(run.REFERENCE) else {}
    try:
        for size in sizes:
            for name in workloads.PARAMS:
                key = workloads.reference_key(name, size)
                if key != f"{size}/{name}":
                    continue  # same inputs as another size, recorded there
                pool = workloads.POOL_SIZE[name]
                outcomes = []
                t0 = time.perf_counter()
                for entry in range(pool):
                    op = workloads.make_op(name, entry, size, out_dir)
                    outcomes.append(op.outcome(op.prepare()()))
                reference[key] = outcomes
                print(f"{size} {name}: {pool} entries in {time.perf_counter() - t0:.1f} s", flush=True)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    lines = []
    for key in sorted(reference):
        entries = ",\n".join(json.dumps(o, sort_keys=True) for o in reference[key])
        lines.append(f'"{key}": [\n{entries}\n]')
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
