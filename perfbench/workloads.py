"""Workload definitions: instance generation and the CLI calls of one session.

Every workload is a closed loop of "solve and certify one instance"
sessions. Instance ``i`` of a run is drawn from ``(seed, i)`` alone and
written to its own directory before any timing starts; the program under
test only ever sees those files. A session is a fixed list of
``latmax.cli.main(argv)`` calls on one instance directory, each writing
its full JSON report next to the inputs so the checker can read it.

This module uses numpy only, so the harness can generate inputs without
importing the program.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("set-certify", "span-certify", "subspace-search", "set-solve")

# Instance index of the untimed warm-up session; timed instances count
# up from 0, so the warm-up never shares an instance with them.
WARMUP_INDEX = 1_000_000

# The instance pool of a run holds POOL_RATE x seconds instances: about
# two to five times the session rate of the parent commit on a 2-core
# Xeon, lower where instances are expensive to write. A program that
# outruns its pool ends the timed phase early; every session still meets
# a fresh instance.
POOL_RATE = {"set-certify": 12.0, "span-certify": 8.0,
             "subspace-search": 2.0, "set-solve": 4.0}
MIN_POOL = 12

SET_CERTIFY_ITEMS = 9
SET_CERTIFY_K = 4
SET_CERTIFY_BUDGET = 4.5
SPAN_PLANES = 3
SPAN_ROWS = 200
SPAN_K = 3
MIX_ROWS = 1000
WIDE_DIM = 16
WIDE_ROWS = 1000
WIDE_GPCA_K = 4
WIDE_PCA_K = 8
RANDOM_SAMPLES = 8192
GRID_WIDTH = 0.05
QCUT_VERTICES = 5
SOLVE_ITEMS = 16
SOLVE_FACILITIES = 6
SOLVE_ITEM_COST = 0.15
SOLVE_K = 8
SOLVE_BUDGET = 5.0


def pool_size(workload: str, seconds: float) -> int:
    return max(MIN_POOL, math.ceil(seconds * POOL_RATE[workload]))


def instance_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng((seed, index))


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc))


def _write_csv(path: Path, rows: np.ndarray) -> None:
    # 17 significant digits round-trip every float64 exactly
    np.savetxt(path, rows, delimiter=",", fmt="%.17g")


def _random_cut_graph(rng, n, p, wmax):
    """Axis-vector vertices; each directed edge present with probability p."""
    edges = [[i, j, float(rng.uniform(0.0, wmax))]
             for i in range(n) for j in range(n)
             if i != j and rng.random() < p]
    if not edges:
        edges = [[0, 1, 1.0]]
    return {"vertices": np.eye(n).tolist(), "edges": edges}


def _tilted_planes(rng):
    """Three planes of R^6, each spanned by two axes and holding a third
    atom: the first axis tilted towards the second by eps in
    U[0.02, 0.1]. A random rotation is applied to all nine atoms."""
    d = 2 * SPAN_PLANES
    atoms = []
    for j in range(SPAN_PLANES):
        eps = float(rng.uniform(0.02, 0.1))
        t = eps / math.sqrt(1.0 - eps ** 2)
        u, v = np.eye(d)[2 * j], np.eye(d)[2 * j + 1]
        atoms += [u, (u + t * v) / math.hypot(1.0, t), v]
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    rot = q * np.sign(np.diag(r))
    return np.array(atoms) @ rot.T


def mixture_rows(seed: int, n: int = MIX_ROWS) -> np.ndarray:
    """The mixture draw of ``latmax.experiments.generate_mixture`` for
    ``MixtureSpec(seed=seed, n_samples=n)`` with its default weights,
    restated here so inputs are made without importing the program."""
    q, s1, s2 = 0.95, (1.0, 0.1, 0.3), (0.1, 1.0, 0.3)
    rng = np.random.Generator(np.random.PCG64(seed))
    first = rng.random(n) < q
    u1 = rng.random((n, 3))
    u2 = rng.random((n, 3))
    normals = np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)
    scale = np.where(first[:, None], np.sqrt(np.asarray(s1))[None, :],
                     np.sqrt(np.asarray(s2))[None, :])
    return normals * scale


def facility_values(w: np.ndarray, item_cost: float) -> np.ndarray:
    """sum_f max_{i in S} w[i, f] - item_cost * |S| for every mask S."""
    n = w.shape[0]
    best = np.zeros((1 << n, w.shape[1]))
    sizes = np.zeros(1 << n)
    for i in range(n):
        # masks with top bit i extend the masks below 1 << i by item i
        lo, hi = 1 << i, 1 << (i + 1)
        best[lo:hi] = np.maximum(best[:lo], w[i])
        sizes[lo:hi] = sizes[:lo] + 1
    return best.sum(axis=1) - item_cost * sizes


def generate(workload: str, seed: int, index: int, out: Path) -> dict:
    """Write instance (seed, index) of a workload into ``out``; return
    the parameters the session and the checker need."""
    out.mkdir(parents=True, exist_ok=True)
    rng = instance_rng(seed, index)
    if workload == "set-certify":
        _write_json(out / "graph.json",
                    _random_cut_graph(rng, SET_CERTIFY_ITEMS, 0.4, 2.0))
        return {}
    if workload == "span-certify":
        atoms = _tilted_planes(rng)
        _write_json(out / "lattice.json",
                    {"kind": "dictionary", "atoms": atoms.tolist()})
        _write_csv(out / "data.csv", rng.normal(size=(SPAN_ROWS, 2 * SPAN_PLANES)))
        return {}
    if workload == "subspace-search":
        mix_seed = int(rng.integers(2 ** 31))
        search_seed = int(rng.integers(2 ** 31))
        _write_csv(out / "mixture.csv", mixture_rows(mix_seed))
        scales = 1.0 / np.sqrt(1.0 + np.arange(WIDE_DIM))
        _write_csv(out / "wide.csv", rng.normal(size=(WIDE_ROWS, WIDE_DIM)) * scales)
        # the acceptance-10 family: five vector-labeled vertices in R^3
        vertices = 0.7 * rng.normal(size=(QCUT_VERTICES, 3))
        edges = [[i, j, float(rng.uniform(0.2, 1.5))]
                 for i in range(QCUT_VERTICES) for j in range(QCUT_VERTICES)
                 if i != j and rng.random() < 0.5] or [[0, 1, 1.0]]
        _write_json(out / "qgraph.json", {"vertices": vertices.tolist(), "edges": edges})
        params = {"mix_seed": mix_seed, "search_seed": search_seed}
        _write_json(out / "params.json", params)
        return params
    if workload == "set-solve":
        w = rng.uniform(0.0, 1.0, size=(SOLVE_ITEMS, SOLVE_FACILITIES))
        _write_json(out / "table.json",
                    {"values": facility_values(w, SOLVE_ITEM_COST).tolist()})
        _write_json(out / "graph.json", _random_cut_graph(rng, SOLVE_ITEMS, 0.4, 2.0))
        return {}
    raise ValueError(f"unknown workload {workload!r}")


def session_calls(workload: str, d: Path) -> list[tuple[str, list[str]]]:
    """The (call name, argv) pairs of one session on instance dir ``d``.

    Each call writes its report to ``d/<call name>.json`` (the appendix
    study writes into ``d/appendix``)."""
    def rep(name):
        return ["--report", str(d / f"{name}.json")]

    if workload == "set-certify":
        inst = ["--objective", "cut", "--lattice", f"set:{SET_CERTIFY_ITEMS}",
                "--graph", str(d / "graph.json")]
        k, b = str(SET_CERTIFY_K), str(SET_CERTIFY_BUDGET)
        return [
            ("diagnose", ["diagnose", *inst, "--direction", "all", *rep("diagnose")]),
            ("greedy", ["greedy", *inst, "--k", k, *rep("greedy")]),
            ("knapsack", ["knapsack", *inst, "--budget", b, "--cost", "uniform",
                          *rep("knapsack")]),
            ("double_greedy", ["double-greedy", *inst, *rep("double_greedy")]),
            ("oracle", ["oracle", *inst, *rep("oracle")]),
            ("oracle_k", ["oracle", *inst, "--k", k, *rep("oracle_k")]),
            ("oracle_budget", ["oracle", *inst, "--budget", b, "--cost", "uniform",
                               *rep("oracle_budget")]),
        ]
    if workload == "span-certify":
        inst = ["--objective", "gpca", "--lattice", str(d / "lattice.json"),
                "--data", str(d / "data.csv")]
        k = str(SPAN_K)
        return [
            ("diagnose", ["diagnose", *inst, "--direction", "all",
                          "--check-saturation", *rep("diagnose")]),
            ("greedy", ["greedy", *inst, "--k", k, *rep("greedy")]),
            ("oracle_k", ["oracle", *inst, "--k", k, *rep("oracle_k")]),
            ("double_greedy", ["double-greedy", *inst, *rep("double_greedy")]),
        ]
    if workload == "subspace-search":
        p = json.loads((d / "params.json").read_text())
        grid = f"grid:{GRID_WIDTH}"
        wide = ["--data", str(d / "wide.csv"), "--lattice", f"vector:{WIDE_DIM}"]
        return [
            ("appendix", ["experiment", "appendix", "--seed", str(p["mix_seed"]),
                          "--width", str(GRID_WIDTH), "--out", str(d / "appendix")]),
            ("mixture_dg", ["double-greedy", "--objective", "gpca", "--lattice", "vector:3",
                            "--data", str(d / "mixture.csv"), "--strategy", grid,
                            *rep("mixture_dg")]),
            ("wide_gpca", ["greedy", "--objective", "gpca", *wide, "--k", str(WIDE_GPCA_K),
                           "--strategy", f"random:{RANDOM_SAMPLES}:{p['search_seed']}",
                           "--seed", str(p["search_seed"]), *rep("wide_gpca")]),
            ("wide_pca", ["greedy", "--objective", "pca", *wide, "--k", str(WIDE_PCA_K),
                          "--strategy", "exact-eigen", *rep("wide_pca")]),
            ("qcut_dg", ["double-greedy", "--objective", "qcut", "--lattice", "vector:3",
                         "--graph", str(d / "qgraph.json"), "--strategy", grid,
                         *rep("qcut_dg")]),
        ]
    if workload == "set-solve":
        lat = ["--lattice", f"set:{SOLVE_ITEMS}"]
        table = ["--objective", "table", *lat, "--table", str(d / "table.json")]
        cut = ["--objective", "cut", *lat, "--graph", str(d / "graph.json")]
        return [
            ("greedy", ["greedy", *table, "--k", str(SOLVE_K), *rep("greedy")]),
            ("knapsack", ["knapsack", *table, "--budget", str(SOLVE_BUDGET),
                          "--cost", "uniform", *rep("knapsack")]),
            ("double_greedy", ["double-greedy", *table, *rep("double_greedy")]),
            ("cut_dg", ["double-greedy", *cut, *rep("cut_dg")]),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def input_sizes(workload: str) -> dict:
    """Per-session input sizes for the run record. Chunk-buffer bytes are
    computed: rows x min(candidates, 16384 columns) x 8 bytes."""
    chunk = 16384
    if workload == "set-certify":
        return {"elements": 1 << SET_CERTIFY_ITEMS, "atoms": SET_CERTIFY_ITEMS,
                "rows": SET_CERTIFY_ITEMS}
    if workload == "span-certify":
        return {"elements": 5 ** SPAN_PLANES, "atoms": 3 * SPAN_PLANES,
                "spans_enumerated": (1 << 3 * SPAN_PLANES) - 1, "rows": SPAN_ROWS}
    if workload == "subspace-search":
        grid3 = len(np.arange(0.0, 1.0 + GRID_WIDTH / 2, GRID_WIDTH)) * \
            len(np.arange(-1.0, 1.0 + GRID_WIDTH / 2, GRID_WIDTH)) ** 2
        return {"elements": None, "atoms": None,
                "rows": {"mixture": MIX_ROWS, "wide": WIDE_ROWS, "qcut": QCUT_VERTICES},
                "candidates_per_step": {"grid_vector3": grid3, "random_vector16": RANDOM_SAMPLES},
                "chunk_buffer_bytes": {"mixture": MIX_ROWS * min(grid3, chunk) * 8,
                                       "wide": WIDE_ROWS * min(RANDOM_SAMPLES, chunk) * 8,
                                       "qcut": QCUT_VERTICES * min(grid3, chunk) * 8}}
    if workload == "set-solve":
        return {"elements": 1 << SOLVE_ITEMS, "atoms": SOLVE_ITEMS,
                "table_values": 1 << SOLVE_ITEMS, "cut_vertices": SOLVE_ITEMS}
    raise ValueError(f"unknown workload {workload!r}")
