"""The workload process: import latmax, run one untimed warm-up session,
print READY, then run the closed loop of timed sessions.

One client, no think time: each session starts when the previous one
returns. Every session is a list of ``latmax.cli.main(argv)`` calls made
in this process, so interpreter and numpy start-up are paid once, in
set-up. The harness (``run.py``) starts this process, times it from
start to READY, and reads the JSON result file it writes at the end.

Usage: worker.py WORKLOAD POOL_DIR POOL_SIZE SECONDS MIN_SESSIONS TRACE RESULT
(POOL_SIZE 0 stops after READY: a set-up sample only).
"""

from __future__ import annotations

import io
import json
import os
import resource
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import workloads as W


def run_session(cli, workload: str, d: Path, sink) -> list[dict]:
    """Run the calls of one session; stop at the first failing call."""
    calls = []
    for name, argv in W.session_calls(workload, d):
        err = io.StringIO()
        try:
            with redirect_stdout(sink), redirect_stderr(err):
                rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code
        except Exception:  # a traceback is a failed call, not a dead worker
            rc = None
            err.write(traceback.format_exc())
        calls.append({"name": name, "rc": rc, "stderr": err.getvalue()[-2000:]})
        if rc != 0:
            break
    return calls


def closed_loop(cli, workload, pool_dir, first, pool, seconds, min_sessions,
                sink, tracer=None):
    """Sessions on instances first, first+1, ... until ``seconds`` have
    passed and at least ``min_sessions`` ran, or the pool runs out."""
    sessions = []
    start = perf_counter()
    i = first
    while i < pool:
        if perf_counter() - start >= seconds and len(sessions) >= min_sessions:
            break
        if tracer is not None:
            tracer.start_session(i)
        t0 = perf_counter()
        calls = run_session(cli, workload, pool_dir / f"{i:05d}", sink)
        sessions.append({"index": i, "seconds": perf_counter() - t0, "calls": calls})
        i += 1
    return sessions, perf_counter() - start


def main(argv) -> int:
    workload, pool_dir, pool, seconds, min_sessions, trace, result = argv
    pool_dir, pool, seconds = Path(pool_dir), int(pool), float(seconds)
    min_sessions, trace = int(min_sessions), trace == "1"

    import latmax.cli as cli

    with open(os.devnull, "w") as sink:
        warmup = run_session(cli, workload, pool_dir / "warmup", sink)
        print("READY", flush=True)
        doc = {"warmup": warmup}
        if pool and not trace:
            doc["sessions"], doc["phase_seconds"] = closed_loop(
                cli, workload, pool_dir, 0, pool, seconds, min_sessions, sink)
        elif pool:
            # half the time untraced, then the same workload traced on the
            # following instances; the ratio of the two medians is the
            # tracing overhead
            from tracing import Tracer
            doc["sessions"], doc["phase_seconds"] = closed_loop(
                cli, workload, pool_dir, 0, pool, seconds / 2, min_sessions, sink)
            tracer = Tracer()
            tracer.install()
            try:
                doc["traced_sessions"], doc["traced_phase_seconds"] = closed_loop(
                    cli, workload, pool_dir, len(doc["sessions"]), pool, seconds / 2,
                    min_sessions, sink, tracer)
            finally:
                tracer.uninstall()
            doc["trace"] = tracer.dump()
    doc["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(result).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
