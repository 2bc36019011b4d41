#!/usr/bin/env python3
"""Session benchmark for latmax.

    python3 perfbench/run.py --workload set-certify --seed 0 --seconds 20 --trace 0

Runs one workload as a closed loop of "solve and certify one instance"
sessions through ``latmax.cli.main``, from the root of a source checkout.
Steps:

1. Draw the instance pool from ``--seed`` and write it under
   ``.perfbench/`` (not timed, not part of set-up).
2. Start the workload process (``worker.py``) SETUP_SAMPLES times with
   BLAS and OpenMP pinned to one thread. Each start is timed until the
   process has imported latmax and finished one warm-up session; the
   median is ``setup_s``. The last process then runs the timed loop.
3. Check every session's reports (``checks.py``) and, for the default
   seed, compare them with the stored fingerprints.
4. Print the metrics named in ``BENCHMARK.json``, one per line with its
   unit, write a run record to ``.perfbench/runs/``, and print the result
   object as the last line.

With ``--trace 1`` the workload process runs half the time untraced and
half traced (``tracing.py``) and the metrics are the per-layer ones.
Exits 2 without a result when the checkout holds no ``src/latmax``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter

import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_SAMPLES = 5
MIN_SESSIONS = 11  # the tail statistic needs ten sessions beyond it
TRACE_MIN_SESSIONS = 3
DEADLINE_S = 170  # the whole run, set-up and checks included
# Printed on every run and kept in the run record, but not listed in
# BENCHMARK.json: on a host whose CPU speed drifts, the median and the
# throughput spread over ten runs beyond the largest bound a listed metric
# may have, and failed_ratio is 0, which no relative bound fits (NOTES.md).
UNGATED = {"session_p50_s": "s", "sessions_per_s": "1/s", "failed_ratio": "ratio"}
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def tail(times: list[float]) -> tuple[float, float]:
    """The highest order statistic with ten sessions beyond it, and its
    percentile; the maximum when fewer than eleven sessions ran."""
    s = sorted(times)
    n = len(s)
    if n > 10:
        return s[n - 11], 100.0 * (n - 10) / n
    return s[-1], 100.0 * (n - 1) / n


def start_worker(args: list[str], env: dict, err_path: Path, deadline: float):
    """Start the workload process; return it and its seconds until READY."""
    t0 = perf_counter()
    with open(err_path, "w") as err:
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                                stdout=subprocess.PIPE, stderr=err, env=env,
                                cwd=ROOT, text=True)
    readable, _, _ = select.select([proc.stdout], [], [], max(1.0, deadline - perf_counter()))
    line = proc.stdout.readline() if readable else ""
    ready = perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise BenchError(f"workload process not READY:\n{err_path.read_text()[-3000:]}")
    return proc, ready


def finish_worker(proc, err_path: Path, deadline: float) -> None:
    try:
        proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("workload process ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}:\n"
                         f"{err_path.read_text()[-3000:]}")


def session_problems(session: dict, checker, pool_dir: Path) -> list[str]:
    for call in session["calls"]:
        if call["rc"] != 0:
            last = (call["stderr"].strip().splitlines() or [""])[-1]
            return [f"{call['name']} exited {call['rc']}: {last[:300]}"]
    return checker.check(session["index"], pool_dir / f"{session['index']:05d}")


def machine_record() -> dict:
    import numpy as np

    def getconf(name):
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True,
                                 timeout=10).stdout.strip()
            return int(out) if out.isdigit() else None
        except (OSError, subprocess.SubprocessError):
            return None

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "latmax").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit, "source_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_pinning": PINNED, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "l2_bytes": getconf("LEVEL2_CACHE_SIZE"), "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
    }


def run(args) -> int:
    if not (SRC / "latmax" / "cli.py").is_file():
        print(f"perfbench: no latmax sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    deadline = perf_counter() + DEADLINE_S
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    pool_dir = work / "pool"
    try:
        pool = W.pool_size(args.workload, args.seconds)
        W.generate(args.workload, args.seed, W.WARMUP_INDEX, pool_dir / "warmup")
        for i in range(pool):
            W.generate(args.workload, args.seed, i, pool_dir / f"{i:05d}")

        env = {**os.environ, **PINNED,
               "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC),
                                                           os.environ.get("PYTHONPATH")]))}
        setups = []
        for k in range(SETUP_SAMPLES):
            last = k == SETUP_SAMPLES - 1
            result_path = work / f"result-{k}.json"
            err_path = work / f"worker-{k}.err"
            proc, ready = start_worker(
                [args.workload, str(pool_dir), str(pool if last else 0), str(args.seconds),
                 str(TRACE_MIN_SESSIONS if args.trace else MIN_SESSIONS),
                 str(int(args.trace)), str(result_path)], env, err_path, deadline)
            setups.append(ready)
            finish_worker(proc, err_path, deadline)
            result = json.loads(result_path.read_text())

        sys.path.insert(0, str(SRC))
        from checks import Checker
        checker = Checker(args.workload, args.seed)
        warm_fail = any(c["rc"] != 0 for c in result["warmup"])
        phases = [result["sessions"]] + ([result["traced_sessions"]] if args.trace else [])
        failures = {}
        for sessions in phases:
            for s in sessions:
                problems = session_problems(s, checker, pool_dir)
                if problems:
                    failures[s["index"]] = problems
        if warm_fail:
            failures["warmup"] = [f"{c['name']} exited {c['rc']}" for c in result["warmup"]
                                  if c["rc"] != 0]
        attempted = sum(len(p) for p in phases) + warm_fail
        failed = len(failures)

        times = [s["seconds"] for s in result["sessions"]]
        ok_sessions = sum(1 for s in result["sessions"] if s["index"] not in failures)
        p50 = statistics.median(times)
        tail_s, tail_pct = tail(times)
        values = {
            "setup_s": statistics.median(setups),
            "session_p50_s": p50,
            "session_tail_s": tail_s,
            "sessions_per_s": ok_sessions / result["phase_seconds"],
            "peak_rss_mb": result["maxrss_kb"] / 1024.0,
            "failed_ratio": failed / attempted,
        }
        if args.trace:
            from tracing import aggregate
            traced = {s["index"]: s["seconds"] for s in result["traced_sessions"]}
            values = aggregate(result["trace"], traced)
            values["trace.overhead_ratio"] = statistics.median(traced.values()) / p50
        units = {m["name"]: m["unit"] for m in wanted}
        missing = set(units) ^ (set(values) - (set() if args.trace else set(UNGATED)))
        if missing:
            raise BenchError(f"metrics and BENCHMARK.json disagree on {sorted(missing)}")

        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": int(args.trace), "utc": datetime.now(timezone.utc).isoformat(),
            "machine": machine_record(), "pool_size": pool,
            "input_sizes": W.input_sizes(args.workload),
            "sessions": len(times), "timed_phase_s": result["phase_seconds"],
            "session_seconds": times, "tail_percentile": tail_pct,
            "setup_samples_s": setups,
            "failures": {str(k): v for k, v in failures.items()},
            "fingerprints_checked": sum(1 for p in phases for s in p
                                        if s["index"] in checker.prints),
            "metrics": values,
        }
        if args.trace:
            record["traced_sessions"] = len(result["traced_sessions"])
            record["traced_session_seconds"] = [s["seconds"] for s in result["traced_sessions"]]
            record["wait_time"] = "none: one thread, no queues"
        runs = OUT / "runs"
        runs.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}-{os.getpid()}"
        (runs / f"{stem}.json").write_text(json.dumps(record, indent=1))
        if args.trace:
            (runs / f"{stem}-spans.json").write_text(json.dumps(result["trace"]))

        print(f"perfbench {args.workload} seed {args.seed}: {len(times)} timed sessions "
              f"in {result['phase_seconds']:.2f} s, pool {pool}, {failed} failed of "
              f"{attempted}, fingerprints checked {record['fingerprints_checked']}")
        print(f"  set-up samples {', '.join(f'{t:.4f}' for t in setups)} s; "
              f"tail is p{tail_pct:.1f} of {len(times)} sessions")
        if args.trace:
            layer_map = json.loads((HERE / "layer_map.json").read_text())["per_layer"]
            print(f"  traced sessions {len(result['traced_sessions'])}; "
                  "wait time: none (one thread, no queues)")
            for name in units:
                moves = layer_map.get(name, "")
                print(f"  {name:38s} {values[name]:14.6g} {units[name]:6s} {moves}")
        else:
            for name, unit in {**units, **UNGATED}.items():
                gate = "" if name in units else "  (not in BENCHMARK.json)"
                print(f"  {name:16s} {values[name]:12.6g} {unit}{gate}")
        for key, problems in list(failures.items())[:5]:
            print(f"  FAILED session {key}: {'; '.join(problems)[:400]}")
        print(f"  run record {(runs / f'{stem}.json').relative_to(ROOT)}")
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                          "metrics": {n: {"value": values[n], "unit": units[n]}
                                      for n in units}}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        return run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
