"""Output checks and result fingerprints for one finished session.

Checks run untimed, after the workload process has exited, on the report
files each CLI call wrote. Reference quantities (optima over all subsets,
eigenvalue sums, objective values of a reported basis) are recomputed
here with plain numpy; only the gap-witness re-evaluation, the
incrementality of a span lattice and the lattice construction behind
them call into latmax.

A fingerprint keeps the outcomes of a session: chosen elements,
iteration choices, gap witnesses, selected planes and values. The
fingerprints of the default seed are stored under ``fingerprints/``;
discrete fields must match exactly and floats within 1e-9 relative (with
a 1e-12 absolute floor for components that are zero up to rounding).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import workloads as W

FINGERPRINT_DIR = Path(__file__).resolve().parent / "fingerprints"
DEFAULT_SEED = 0
FINGERPRINTED = 64  # instances 0..63 of the default seed are stored
REL = 1e-9


def _read(path: Path):
    return json.loads(path.read_text())


def _close(a, b, rel=REL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _popcounts(n_items: int) -> np.ndarray:
    masks = np.arange(1 << n_items)
    return sum((masks >> i) & 1 for i in range(n_items))


def _cut_values(graph: dict, n_items: int) -> np.ndarray:
    """Directed cut value of every subset, for axis-vector vertices."""
    masks = np.arange(1 << n_items)
    inside = [((masks >> i) & 1).astype(float) for i in range(n_items)]
    out = np.zeros(1 << n_items)
    for i, j, w in graph["edges"]:
        out += w * inside[i] * (1.0 - inside[j])
    return out


def _basis(report: dict) -> np.ndarray:
    return np.asarray(report["basis"]["basis"], dtype=float).reshape(
        -1, report["basis"]["ambient_dim"])


def _orthonormal(rows: np.ndarray) -> bool:
    return bool(np.abs(rows @ rows.T - np.eye(rows.shape[0])).max() <= 1e-8)


def _energies(data, rows):
    return ((data @ rows.T) ** 2).sum(axis=1)


def _pca(data, rows) -> float:
    return float(_energies(data, rows).sum())


def _gpca(data, rows, fraction=0.01, slope=0.1) -> float:
    """Default reshaping: identity up to a per-datum threshold at
    ``fraction`` of the datum's energy, then slope ``slope``."""
    e = _energies(data, rows)
    th = fraction * (data ** 2).sum(axis=1)
    return float(np.minimum(e, slope * e + (1.0 - slope) * th).sum())


def _qcut(graph, rows) -> float:
    v = np.asarray(graph["vertices"], dtype=float)
    p = _energies(v, rows)
    q = (v ** 2).sum(axis=1) - p
    return float(sum(w * p[i] * max(q[j], 0.0) for i, j, w in graph["edges"]))


def _top_eigs(data) -> np.ndarray:
    return np.linalg.eigvalsh(data.T @ data)[::-1]


class Checker:
    """Checks the sessions of one workload; keeps the lattices that do
    not depend on the instance."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.prints = {}
        path = FINGERPRINT_DIR / f"{workload}.json"
        if seed == DEFAULT_SEED and path.exists():
            self.prints = {int(k): v for k, v in _read(path)["instances"].items()}
        self._set_lattice = None

    def check(self, index: int, d: Path) -> list[str]:
        """Problems found in the outputs of session ``index``; empty when
        every check and the stored fingerprint (if any) agree."""
        problems: list[str] = []

        def need(ok, what):
            if not ok:
                problems.append(what)

        try:
            getattr(self, "_" + self.workload.replace("-", "_"))(d, need)
            if index in self.prints:
                diff = compare(self.prints[index], fingerprint(self.workload, d))
                need(diff is None, f"fingerprint differs at {diff}")
        except (OSError, KeyError, TypeError, ValueError, IndexError) as exc:
            problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
        return problems

    # -- per-workload checks ---------------------------------------------

    def _witnesses(self, need, obj, lat, reports):
        from latmax.diagnostics import GapReport, reevaluate_witness
        for direction, r in reports.items():
            if r["witness"] is None:
                continue
            again = reevaluate_witness(obj, lat, GapReport(**r))
            need(_close(max(0.0, again), r["measured_delta"]),
                 f"{direction} witness re-evaluates to {again!r}, "
                 f"report says {r['measured_delta']!r}")

    def _double_greedy(self, need, rep, height):
        need(rep["meta"]["iterations_used"] <= height,
             f"double greedy used {rep['meta']['iterations_used']} > {height} iterations")
        for it in rep["iterations"]:
            need(it["a_leq_b"], f"double greedy iteration {it['iteration']} lost a <= b")
            need(it["alpha"] is not None and it["alpha"] + it["beta"] >= -1e-9,
                 f"double greedy iteration {it['iteration']}: alpha + beta < 0")

    def _set_certify(self, d, need):
        from latmax.lattice import SetLattice
        from latmax.objectives import QuantumCutObjective, WeightedDigraph
        n, k, budget = W.SET_CERTIFY_ITEMS, W.SET_CERTIFY_K, W.SET_CERTIFY_BUDGET
        graph = _read(d / "graph.json")
        cut = _cut_values(graph, n)
        pop = _popcounts(n)
        opt = {"oracle": cut.max(), "oracle_k": cut[pop <= k].max(),
               "oracle_budget": cut[pop <= budget + 1e-12].max()}
        reps = {name: _read(d / f"{name}.json") for name, _ in W.session_calls(self.workload, d)}
        for name, best in opt.items():
            r = reps[name]
            need(_close(r["value"], best), f"{name} value {r['value']!r} != optimum {best!r}")
            need(_close(cut[r["element"]], r["value"]), f"{name} element value mismatch")
        for name, cap, ref in (("greedy", k, "oracle_k"), ("knapsack", budget, "oracle_budget")):
            r = reps[name]
            need(pop[r["element"]] <= cap + 1e-12, f"{name} element {r['element']} infeasible")
            need(_close(cut[r["element"]], r["value"]), f"{name} element value mismatch")
            need(r["value"] <= reps[ref]["value"] + 1e-9, f"{name} beats the oracle")
        dg = reps["double_greedy"]
        need(dg["value"] >= opt["oracle"] / 3 - 1e-9, "double greedy below OPT/3")
        need(_close(cut[dg["element"]], dg["value"]), "double greedy element value mismatch")
        self._double_greedy(need, dg, n)
        doc = reps["diagnose"]
        need(doc["ok"], "diagnose reported a failure")
        if self._set_lattice is None:
            self._set_lattice = SetLattice(n)
        obj = QuantumCutObjective(WeightedDigraph.from_json_dict(graph))
        self._witnesses(need, obj, self._set_lattice, doc["reports"])

    def _span_certify(self, d, need):
        from latmax.dictionary import Dictionary, enumerate_lattice
        from latmax.objectives import GeneralizedPCAObjective, fractional_energy_family
        data = np.loadtxt(d / "data.csv", delimiter=",", ndmin=2)
        lat = enumerate_lattice(Dictionary.from_json_dict(_read(d / "lattice.json")))
        obj = GeneralizedPCAObjective(data, fractional_energy_family(data))
        doc = _read(d / "diagnose.json")
        need(doc["ok"], "diagnose reported a failure")
        need(doc["checks"]["saturation"]["holds"], "saturation bound does not hold")
        self._witnesses(need, obj, lat, doc["reports"])
        k = W.SPAN_K
        greedy, oracle = _read(d / "greedy.json"), _read(d / "oracle_k.json")
        p = lat.incrementality()
        delta = doc["reports"]["downward"]["measured_delta"]
        ratio = 1.0 - math.exp(-(k // p) / k)
        floor = ratio * oracle["value"] - delta * ratio * k
        need(greedy["value"] >= floor - 1e-9,
             f"greedy {greedy['value']!r} below the ratio bound {floor!r}")
        need(greedy["value"] <= oracle["value"] + 1e-9, "greedy beats the oracle")
        need(lat.height(greedy["element"]) <= k, "greedy element above height k")
        dg = _read(d / "double_greedy.json")
        need(_close(obj.value(lat, dg["element"]), dg["value"]),
             "double greedy element value mismatch")

    def _subspace_search(self, d, need):
        mix = np.loadtxt(d / "mixture.csv", delimiter=",", ndmin=2)
        wide = np.loadtxt(d / "wide.csv", delimiter=",", ndmin=2)
        qgraph = _read(d / "qgraph.json")
        eig_w, eig_m = _top_eigs(wide), _top_eigs(mix)

        def basis_ok(name, rep, value_fn, data):
            rows = _basis(rep)
            need(_orthonormal(rows), f"{name} basis is not orthonormal")
            need(_close(value_fn(data, rows), rep["value"]),
                 f"{name} basis does not reproduce its value")
            return rows

        r = _read(d / "wide_pca.json")
        basis_ok("wide_pca", r, _pca, wide)
        top = eig_w[:W.WIDE_PCA_K].sum()
        need(abs(r["value"] - top) <= 1e-6 * top, "exact-eigen value != eigenvalue sum")
        r = _read(d / "wide_gpca.json")
        basis_ok("wide_gpca", r, _gpca, wide)
        need(r["value"] <= eig_w[:W.WIDE_GPCA_K].sum() * (1 + REL),
             "gpca value above the eigenvalue sum")
        r = _read(d / "mixture_dg.json")
        rows = basis_ok("mixture_dg", r, _gpca, mix)
        need(r["value"] <= eig_m[:rows.shape[0]].sum() * (1 + REL),
             "mixture gpca value above the eigenvalue sum")
        r = _read(d / "qcut_dg.json")
        basis_ok("qcut_dg", r, _qcut, qgraph)
        self._double_greedy(need, r, 3)
        s = _read(d / "appendix" / "summary.json")
        for part, value_fn in (("plain", _pca), ("generalized", _gpca)):
            rows = np.asarray(s[part]["directions"], dtype=float)
            need(_orthonormal(rows), f"appendix {part} directions are not orthonormal")
            need(_close(value_fn(mix, rows), s[part]["value"]),
                 f"appendix {part} directions do not reproduce the value")
        top2 = eig_m[:2].sum()
        need(abs(s["plain"]["value"] - top2) <= 1e-6 * top2,
             "appendix plain value != top-2 eigenvalue sum")
        need(s["generalized"]["value"] <= top2 * (1 + REL),
             "appendix saturating value above the eigenvalue sum")

    def _set_solve(self, d, need):
        n = W.SOLVE_ITEMS
        table = np.asarray(_read(d / "table.json")["values"], dtype=float)
        pop = _popcounts(n)
        g = _read(d / "greedy.json")
        need(pop[g["element"]] <= W.SOLVE_K, "greedy element above height k")
        need(g["value"] == table[g["element"]], "greedy value != table[element]")
        need(g["value"] <= table[pop <= W.SOLVE_K].max(), "greedy beats the optimum")
        r = _read(d / "knapsack.json")
        need(pop[r["element"]] * 1.0 <= W.SOLVE_BUDGET + 1e-12, "knapsack over budget")
        need(r["value"] == table[r["element"]], "knapsack value != table[element]")
        need(r["value"] <= table[pop <= W.SOLVE_BUDGET].max(), "knapsack beats the optimum")
        r = _read(d / "double_greedy.json")
        need(r["value"] == table[r["element"]], "double greedy value != table[element]")
        self._double_greedy(need, r, n)
        cut = _cut_values(_read(d / "graph.json"), n)
        r = _read(d / "cut_dg.json")
        need(r["value"] >= cut.max() / 3 - 1e-9, "cut double greedy below OPT/3")
        need(_close(cut[r["element"]], r["value"]), "cut double greedy element value mismatch")
        self._double_greedy(need, r, n)


# -- fingerprints -------------------------------------------------------------

def _solve_print(r: dict) -> dict:
    keys = ("choice", "element", "direction", "value", "alpha", "beta")
    return {"value": r["value"], "element": r["element"],
            "steps": [[it.get(k) for k in keys] for it in r["iterations"]]}


def fingerprint(workload: str, d: Path) -> dict:
    """Outcomes of the session whose reports sit in ``d``."""
    out = {}
    for name, _ in W.session_calls(workload, d):
        if name == "appendix":
            s = _read(d / "appendix" / "summary.json")
            out[name] = {part: [s[part]["plane"], s[part]["value"], s[part]["directions"]]
                         for part in ("plain", "generalized")}
            continue
        r = _read(d / f"{name}.json")
        if name == "diagnose":
            out[name] = {k: [v["measured_delta"], v["witness"], v["excluded_triples"]]
                         for k, v in r["reports"].items()}
            if "saturation" in r["checks"]:
                c = r["checks"]["saturation"]
                out[name]["saturation"] = [c["holds"], c["mu_lattice"], c["bound"]]
        elif "algorithm" in r:
            out[name] = _solve_print(r)
        else:
            out[name] = [r["element"], r["value"], r["feasible_count"]]
    return out


def compare(want, got, where="") -> str | None:
    """Path of the first difference between two fingerprints, or None."""
    if isinstance(want, dict) and isinstance(got, dict):
        if want.keys() != got.keys():
            return where or "/"
        for k in want:
            diff = compare(want[k], got[k], f"{where}/{k}")
            if diff:
                return diff
        return None
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return where or "/"
        for i, (a, b) in enumerate(zip(want, got)):
            diff = compare(a, b, f"{where}/{i}")
            if diff:
                return diff
        return None
    floats = isinstance(want, float) or isinstance(got, float)
    if floats and not isinstance(want, bool) and not isinstance(got, bool) \
            and isinstance(want, (int, float)) and isinstance(got, (int, float)):
        ok = abs(want - got) <= REL * max(abs(want), abs(got)) + 1e-12
        return None if ok else where
    return None if want == got and type(want) is type(got) else where
