"""Smoke test of the benchmark harness in `perfbench/`: its tracer still
finds every name it patches in latmax, and default-seed sessions of the
two certify workloads, of the subspace search and of the subset-lattice
solvers pass its output checks and stored fingerprints."""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from latmax.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def test_tracer_installs_and_uninstalls():
    import latmax.dictionary as dictionary

    original = dictionary.enumerate_lattice
    tracer = Tracer()
    tracer.install()
    try:
        assert dictionary.enumerate_lattice is not original
    finally:
        tracer.uninstall()
    assert dictionary.enumerate_lattice is original


@pytest.mark.parametrize("workload", ["span-certify", "set-certify", "subspace-search",
                                      "set-solve"])
def test_default_seed_sessions_pass_checks(workload, tmp_path):
    checker = checks.Checker(workload, checks.DEFAULT_SEED)
    for i in (0, 1):
        assert i in checker.prints
        d = tmp_path / f"{i:05d}"
        workloads.generate(workload, checks.DEFAULT_SEED, i, d)
        for _, argv in workloads.session_calls(workload, d):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
        assert checker.check(i, d) == []
