#!/usr/bin/env python3
"""Write the stored result fingerprints of the default seed.

    python3 perfbench/record_fingerprints.py [WORKLOAD ...]

Runs instances 0..FINGERPRINTED-1 of the default seed through the same
session calls as the benchmark, untimed and in this process with BLAS
pinned to one thread, checks every session, and writes
``perfbench/fingerprints/<workload>.json``. The benchmark then fails any
default-seed session whose outcomes differ, so re-record only for a
change that is meant to alter results.
"""

from __future__ import annotations

import os
import sys

os.environ.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"})

import json  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads as W  # noqa: E402
from worker import run_session  # noqa: E402


def record(workload: str) -> None:
    import latmax.cli as cli

    work = HERE.parent / ".perfbench" / f"record-{workload}"
    checker = checks.Checker(workload, seed=-1)  # no stored prints to compare
    prints = {}
    try:
        with open(os.devnull, "w") as sink:
            for i in range(checks.FINGERPRINTED):
                d = work / f"{i:05d}"
                W.generate(workload, checks.DEFAULT_SEED, i, d)
                calls = run_session(cli, workload, d, sink)
                bad = [c for c in calls if c["rc"] != 0]
                problems = checker.check(i, d) if not bad else [str(bad)]
                if problems:
                    raise SystemExit(f"{workload} instance {i} fails: {problems}")
                prints[i] = checks.fingerprint(workload, d)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    checks.FINGERPRINT_DIR.mkdir(exist_ok=True)
    out = checks.FINGERPRINT_DIR / f"{workload}.json"
    out.write_text(json.dumps({"workload": workload, "seed": checks.DEFAULT_SEED,
                               "instances": prints}, separators=(",", ":")) + "\n")
    print(f"wrote {len(prints)} fingerprints to {out}")


if __name__ == "__main__":
    for name in sys.argv[1:] or W.WORKLOADS:
        record(name)
