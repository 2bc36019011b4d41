import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import latmax
from latmax.dictionary import Dictionary, enumerate_lattice
from latmax.lattice import SetLattice
from latmax.objectives import (
    GeneralizedPCAObjective,
    ModularCost,
    PCAObjective,
    QuantumCutObjective,
    WeightedDigraph,
    fractional_energy_family,
)
from latmax.oracle import BruteForceResult, brute_force_max
from latmax.solvers import (
    _MAX_COLUMNS,
    ExactEigen,
    Grid,
    RandomRestart,
    _grid_axes,
    _grid_points,
    _search_columns,
    double_greedy,
    greedy_height,
    greedy_knapsack,
    strategy_from_name,
)
from latmax.subspaces import VectorLattice

from conftest import classical_graph, make_n5, ratio_holds


class TableObjective:
    """Objective defined by an explicit value per element."""

    def __init__(self, values):
        self.values = values

    def value(self, lat, e):
        return float(self.values[e])


def axis_lattice_and_pca():
    lat = enumerate_lattice(Dictionary(np.eye(3)))
    obj = PCAObjective(np.diag([1.0, 2.0, 3.0]))  # axis energies 1, 4, 9
    return lat, obj


class TestBruteForce:
    def test_feasible_count_under_height_cap(self):
        lat = SetLattice(5)
        res = brute_force_max(TableObjective(np.zeros(32)), lat, height_cap=2)
        assert res.feasible_count == 1 + 5 + 10

    def test_constant_values_give_lowest_element(self):
        lat = SetLattice(3)
        res = brute_force_max(TableObjective(np.ones(8)), lat)
        assert res.element == 0

    def test_budget_filter(self):
        lat = SetLattice(2)
        cost = ModularCost(lat, {1: 1.0, 2: 5.0})
        res = brute_force_max(TableObjective([0.0, 1.0, 9.0, 10.0]), lat,
                              cost=cost, budget=1.0)
        assert res == BruteForceResult(1, 1.0, 2)
        with pytest.raises(ValueError):
            brute_force_max(TableObjective(np.ones(4)), lat, cost=cost)

    def test_ratio_helper(self):
        assert ratio_holds(0.5, 1.0, 0.5)
        assert ratio_holds(0.4, 1.0, 0.5, additive=0.1)
        assert not ratio_holds(0.4, 1.0, 0.5)


class TestGreedyHeightFinite:
    def test_picks_largest_axes_first(self):
        lat, obj = axis_lattice_and_pca()
        rep = greedy_height(obj, lat, 2)
        assert abs(rep.value - 13.0) < 1e-12
        assert [round(it["marginal"], 9) for it in rep.iterations] == [9.0, 4.0]
        assert [it["height"] for it in rep.iterations] == [1, 2]
        assert rep.element == brute_force_max(obj, lat, height_cap=2).element

    def test_full_height_reaches_total_energy(self):
        lat, obj = axis_lattice_and_pca()
        rep = greedy_height(obj, lat, 5)
        assert abs(rep.value - obj.total_energy) < 1e-12
        assert rep.element == lat.top

    def test_report_serializes(self):
        lat, obj = axis_lattice_and_pca()
        doc = greedy_height(obj, lat, 2).to_json_dict()
        json.dumps(doc)
        assert doc["algorithm"] == "greedy-height"


class TestGreedyHeightVector:
    def test_exact_eigen_matches_spectrum(self, rng):
        data = rng.normal(size=(50, 5))
        eigs = np.sort(np.linalg.eigvalsh(data.T @ data))[::-1]
        rep = greedy_height(PCAObjective(data), VectorLattice(5), 3,
                            strategy=ExactEigen())
        assert abs(rep.value - eigs[:3].sum()) < 1e-9 * eigs[0]
        got = np.sort([it["marginal"] for it in rep.iterations])[::-1]
        assert np.allclose(got, eigs[:3], rtol=1e-9)
        basis = np.array(rep.basis["basis"]).T
        assert np.abs(basis.T @ basis - np.eye(3)).max() < 1e-8

    def test_grid_approaches_exact(self, rng):
        data = rng.normal(size=(30, 3))
        exact = greedy_height(PCAObjective(data), VectorLattice(3), 1,
                              strategy=ExactEigen()).value
        coarse = greedy_height(PCAObjective(data), VectorLattice(3), 1,
                               strategy=Grid(width=0.05)).value
        fine = greedy_height(PCAObjective(data), VectorLattice(3), 1,
                             strategy=Grid(width=0.05, refine_rounds=2)).value
        assert coarse >= 0.995 * exact
        assert fine >= (1 - 1e-4) * exact
        assert fine <= exact + 1e-9

    def test_random_restarts_land_close(self, rng):
        data = rng.normal(size=(30, 3))
        exact = greedy_height(PCAObjective(data), VectorLattice(3), 1,
                              strategy=ExactEigen()).value
        sampled = greedy_height(PCAObjective(data), VectorLattice(3), 1,
                                strategy=RandomRestart(samples=8192), seed=7).value
        assert sampled >= 0.9 * exact

    def test_eigen_strategy_rejects_reshaped_objectives(self, rng):
        from latmax.objectives import ConcaveRho, GeneralizedPCAObjective
        data = rng.normal(size=(5, 3))
        gen = GeneralizedPCAObjective(data, ConcaveRho.capped(0.1))
        with pytest.raises(ValueError):
            greedy_height(gen, VectorLattice(3), 1, strategy=ExactEigen())

    def test_determinism_across_calls(self, rng):
        data = rng.normal(size=(20, 3))
        obj = PCAObjective(data)
        a = greedy_height(obj, VectorLattice(3), 2, strategy=RandomRestart(), seed=3)
        b = greedy_height(obj, VectorLattice(3), 2, strategy=RandomRestart(), seed=3)
        assert a.to_json_dict() == b.to_json_dict()

    def test_pruned_search_scores_few_candidates_exactly(self):
        from latmax.experiments import MixtureSpec, generate_mixture
        from latmax.objectives import GeneralizedPCAObjective, fractional_energy_family
        data = generate_mixture(MixtureSpec())
        obj = GeneralizedPCAObjective(data, fractional_energy_family(data))
        rep = greedy_height(obj, VectorLattice(3), 2, strategy=Grid(width=0.05, refine_rounds=1))
        for it in rep.iterations:
            # 21 x 41 x 41 grid points less the zero vector, plus 11^3 refined
            assert it["candidates"] == 21 * 41 * 41 - 1 + 11 ** 3
            assert 0 < it["evaluated"] < it["candidates"] / 10
        eigen = greedy_height(PCAObjective(data), VectorLattice(3), 1, strategy=ExactEigen())
        assert "evaluated" not in eigen.iterations[0]


def _energy_score(rows):
    from latmax.objectives import GeneralizedPCAObjective, fractional_energy_family
    obj = GeneralizedPCAObjective(rows, fractional_energy_family(rows))

    def score(units):
        e = rows @ units
        np.square(e, out=e)
        return obj.value_from_scratch_energies(e)
    return score


@pytest.mark.parametrize("n, d", [(1, 3), (1, 16), (7, 3), (7, 16), (1000, 3), (1000, 16)])
def test_padded_columns_match_full_batch_scores(n, d, rng):
    # greedy proposes _unitize's columns (F order), double greedy the gap
    # basis times them (C order); one-row data scores the two orders differently
    from latmax.solvers import _score_columns, _slice_width, _unitize
    score = _energy_score(rng.normal(size=(n, d)))
    gap = np.linalg.qr(rng.normal(size=(d, d - 1)))[0]
    for order, units in (("F", _unitize(rng.normal(size=(d, 4096)))),
                         ("C", gap @ _unitize(rng.normal(size=(d - 1, 4096))))):
        assert units.shape[1] == 4096 and units.flags.f_contiguous == (order == "F")
        full = score(units)
        for k in (1, 2, 7, 9, 600, 4096):
            idx = np.sort(rng.choice(4096, k, replace=False))
            assert np.array_equal(_score_columns(score, units, idx, _slice_width(n)),
                                  full[idx])


@pytest.mark.parametrize("n_rows, expected", [(1, 512), (5, 512), (200, 512),
                                               (1000, 128), (10 ** 5, 8)])
def test_slice_width_keeps_the_energy_buffer_in_one_mebibyte(n_rows, expected):
    from latmax.solvers import _slice_width
    width = _slice_width(n_rows)
    assert width == expected
    assert width % 8 == 0 and 8 <= width <= 512
    assert width == 8 or n_rows * width * 8 <= 1 << 20


def test_gather_width_leaves_the_sweep_unchanged(monkeypatch, rng):
    # candidates are scored in slices of solvers._slice_width(n_rows) columns,
    # and a column's score does not depend on the columns it shares a slice with
    from latmax import solvers
    from latmax.experiments import MixtureSpec, generate_mixture
    from latmax.objectives import GeneralizedPCAObjective, fractional_energy_family
    mixture = generate_mixture(MixtureSpec())
    one_row = rng.normal(size=(1, 3))
    wide = rng.normal(size=(1000, 16)) / np.sqrt(1.0 + np.arange(16))
    vertices = rng.normal(size=(5, 3))
    qcut = QuantumCutObjective(WeightedDigraph(vertices, ((0, 1, 1.0), (1, 2, 0.5),
                                                          (3, 4, 2.0), (4, 0, 0.7))))
    runs = {}
    for width in (None, 8, 512):  # None: the width from the row count
        if width is not None:
            monkeypatch.setattr(solvers, "_slice_width", lambda n_rows: width)
        reps = []
        for data in (mixture, one_row):
            gpca = GeneralizedPCAObjective(data, fractional_energy_family(data))
            reps.append(greedy_height(gpca, VectorLattice(3), 2, strategy=Grid(width=0.05)))
            reps.append(double_greedy(gpca, VectorLattice(3), strategy=Grid(width=0.1)))
        reps.append(double_greedy(qcut, VectorLattice(3), strategy=Grid(width=0.1)))
        reps.append(greedy_height(qcut, VectorLattice(3), 2, strategy=RandomRestart(1000)))
        wide_gpca = GeneralizedPCAObjective(wide, fractional_energy_family(wide))
        reps.append(greedy_height(wide_gpca, VectorLattice(16), 2,
                                  strategy=RandomRestart(2000), seed=3))
        runs[width] = [json.dumps(r.to_json_dict()) for r in reps]
    assert runs[None] == runs[8] == runs[512]


class TestGreedyKnapsack:
    def test_density_order_and_budget_stop(self):
        lat = SetLattice(3)
        obj = TableObjective([0, 6, 5, 11, 1, 7, 6, 12])  # additive weights 6, 5, 1
        cost = ModularCost(lat, {1: 3.0, 2: 2.0, 4: 1.0})
        rep = greedy_knapsack(obj, lat, cost, budget=3.0)
        assert [it["element"] for it in rep.iterations] == [2, 4]
        assert rep.value == 6.0
        assert rep.element == 0b110
        assert rep.meta["winner"] == "greedy"
        assert rep.iterations[-1]["spent"] == 3.0

    def test_zero_budget_stays_at_bottom(self):
        lat = SetLattice(3)
        obj = TableObjective([0, 6, 5, 11, 1, 7, 6, 12])
        cost = ModularCost(lat, {1: 3.0, 2: 2.0, 4: 1.0})
        rep = greedy_knapsack(obj, lat, cost, budget=0.0)
        assert rep.value == 0.0 and rep.element == lat.bottom
        assert rep.iterations == []

    def test_non_finite_budget_rejected(self):
        lat = SetLattice(2)
        obj = TableObjective([0, 1, 1, 2])
        with pytest.raises(ValueError, match="finite"):
            greedy_knapsack(obj, lat, ModularCost.uniform(lat), float("nan"))

    def test_zero_cost_steps_go_first(self):
        lat = SetLattice(3)
        obj = TableObjective([0, 0.5, 9, 9.5, 1, 1.5, 10, 10.5])
        cost = ModularCost(lat, {1: 0.0, 2: 1.0, 4: 1.0})
        rep = greedy_knapsack(obj, lat, cost, budget=1.0)
        assert rep.iterations[0]["element"] == 1
        assert rep.iterations[0]["density"] == float("inf")
        assert rep.value == 9.5

    def test_singleton_can_win(self):
        # the cheap item is denser, but taking it blocks the valuable one
        lat = SetLattice(2)
        obj = TableObjective([0, 1, 10, 11])
        cost = ModularCost(lat, {1: 0.1, 2: 2.0})
        rep = greedy_knapsack(obj, lat, cost, budget=2.0)
        assert rep.meta["winner"] == "singleton"
        assert rep.element == 2 and rep.value == 10.0
        assert rep.meta["greedy_value"] == 1.0

    def test_ratio_against_brute_force(self, rng):
        ratio = (1 - 1 / np.e) / 2
        for _ in range(10):
            lat = SetLattice(4)
            w = rng.random(4) * 3
            vals = [sum(w[i] for i in range(4) if m >> i & 1) for m in range(16)]
            cost = ModularCost(lat, {1 << i: float(0.2 + rng.random()) for i in range(4)})
            budget = float(0.5 + 1.5 * rng.random())
            rep = greedy_knapsack(TableObjective(vals), lat, cost, budget)
            opt = brute_force_max(TableObjective(vals), lat, cost=cost, budget=budget)
            assert ratio_holds(rep.value, opt.value, ratio)

    def test_vector_lattice_rejected(self):
        with pytest.raises(TypeError):
            greedy_knapsack(TableObjective([]), VectorLattice(2), None, 1.0)


def cut_values(graph, n):
    obj = QuantumCutObjective(graph)
    return [obj.value_of_mask(m) for m in range(1 << n)]


class TestDoubleGreedyFinite:
    def test_three_vertex_cut_trace(self):
        g = WeightedDigraph(np.eye(3), ((0, 1, 2.0), (1, 2, 1.0), (2, 0, 0.5)))
        rep = double_greedy(QuantumCutObjective(g), SetLattice(3))
        assert rep.value == 2.0
        assert rep.element == 0b101
        assert [it["choice"] for it in rep.iterations] == ["ascend", "descend", "ascend"]
        assert all(it["a_leq_b"] for it in rep.iterations)
        assert rep.meta["iterations_used"] <= 3

    def test_random_cuts_meet_the_third_ratio(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 6))
            w = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
            np.fill_diagonal(w, 0.0)
            g = classical_graph(w)
            obj = QuantumCutObjective(g)
            lat = SetLattice(n)
            rep = double_greedy(obj, lat)
            opt = brute_force_max(obj, lat)
            assert ratio_holds(rep.value, opt.value, 1 / 3)
            assert rep.meta["iterations_used"] <= n
            for it in rep.iterations:
                assert it["a_leq_b"]
                assert it["alpha"] + it["beta"] >= -1e-9

    def test_descent_fallback_on_ungraded_interval(self, n5):
        # steer toward a = the short-chain element, then force the final
        # descent where no element of height h(b) - 1 sits between
        rep = double_greedy(TableObjective({0: 0, 1: 0, 2: 10, 3: 0, 4: 1}), n5)
        assert rep.value == 10.0 and rep.element == 2
        assert [it["choice"] for it in rep.iterations] == ["ascend", "descend"]
        assert rep.meta["iterations_used"] == 2


class TestDoubleGreedyVector:
    def test_monotone_energy_never_descends(self, rng):
        data = rng.normal(size=(20, 4))
        rep = double_greedy(PCAObjective(data), VectorLattice(4),
                            strategy=ExactEigen())
        assert all(it["choice"] == "ascend" for it in rep.iterations)
        assert rep.meta["iterations_used"] == 4
        eigs = np.sort(np.linalg.eigvalsh(data.T @ data))[::-1]
        alphas = [it["alpha"] for it in rep.iterations]
        assert np.allclose(alphas, eigs, rtol=1e-8)
        assert abs(rep.value - eigs.sum()) < 1e-8

    def test_cut_certificate_on_r3(self, rng):
        for trial in range(3):
            verts = rng.normal(size=(5, 3))
            edges = tuple((i, j, float(rng.random()))
                          for i in range(5) for j in range(5) if i != j)
            obj = QuantumCutObjective(WeightedDigraph(verts, edges))
            rep = double_greedy(obj, VectorLattice(3), strategy=Grid(width=0.05))
            assert rep.meta["iterations_used"] == 3
            for it in rep.iterations:
                assert it["alpha"] + it["beta"] >= -1e-9
            basis = np.array(rep.basis["basis"]).T
            if basis.size:
                assert np.abs(basis.T @ basis - np.eye(basis.shape[1])).max() < 1e-8

    def test_double_greedy_moves_share_one_draw(self):
        # with one random direction per draw, alpha + beta >= 0 holds only
        # if the ascent and the descent search the same draw
        rng = np.random.default_rng(10)
        runs = []
        for seed in range(200):
            edges = tuple((i, j, float(rng.uniform(0.2, 1.5)))
                          for i in range(5) for j in range(5)
                          if i != j and rng.random() < 0.5) or ((0, 1, 1.0),)
            graph = WeightedDigraph(0.7 * rng.normal(size=(5, 3)), edges)
            runs.append((QuantumCutObjective(graph), VectorLattice(3), seed))
        for seed in range(100):
            data = rng.normal(size=(50, 4))
            runs.append((PCAObjective(data), VectorLattice(4), seed))
            runs.append((GeneralizedPCAObjective(data, fractional_energy_family(data)),
                         VectorLattice(4), seed))
        sums = [it["alpha"] + it["beta"]
                for obj, lat, seed in runs
                for it in double_greedy(obj, lat, strategy=RandomRestart(1),
                                        seed=seed).iterations]
        assert len(sums) == 1400
        assert min(sums) >= -1e-9


class TestSearchSize:
    @pytest.mark.parametrize("width", [2.0, 0.5, 1 / 3, 0.3, 0.1, 0.07, 0.05])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_counts_the_columns_the_grid_builds(self, width, dim):
        built = _grid_points(_grid_axes(width, dim)).shape[1]
        assert _search_columns(Grid(width), dim) == built
        assert _search_columns(Grid(width, refine_rounds=2), dim) == built + 2 * 11 ** dim

    def test_cap_admits_every_search_in_use(self):
        # the default grid at d = 4, acceptance 02's grid, and the benchmark's
        # grid and random draws
        assert _search_columns(Grid(), 4) == 41 * 81 ** 3 <= _MAX_COLUMNS
        assert _search_columns(Grid(0.025), 3) == 41 * 81 * 81
        assert _search_columns(Grid(0.05), 3) == 35_301
        assert _search_columns(RandomRestart(8192), 16) == 8192


class TestStrategyParsing:
    def test_names(self):
        assert strategy_from_name("exhaustive") is None
        assert strategy_from_name("exact-eigen") == ExactEigen()
        assert strategy_from_name("grid:0.1") == Grid(width=0.1)
        assert strategy_from_name("random:64") == RandomRestart(samples=64)
        with pytest.raises(ValueError):
            strategy_from_name("annealing")

    def test_random_seed_field_is_ignored(self, rng):
        # the solver's seed drives the draw; a third field changes nothing
        assert strategy_from_name("random:64:1") == strategy_from_name("random:64:2")
        obj = PCAObjective(rng.normal(size=(20, 4)))
        reports = [greedy_height(obj, VectorLattice(4), 2, seed=5,
                                 strategy=strategy_from_name(f"random:64:{s}")).to_json_dict()
                   for s in (1, 2)]
        assert reports[0] == reports[1]


def test_sweep_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    """A grid greedy in R^3 and a random double greedy in R^16, one process
    under one OpenBLAS thread and one under two, write identical reports:
    each column is scored on a full 8-column tile (_score_columns), in the
    ascent and the descent alike."""
    rng = np.random.default_rng(0)
    for d in (3, 16):
        rows = rng.normal(size=(300, d)) / np.sqrt(1.0 + np.arange(d))
        np.savetxt(tmp_path / f"data{d}.csv", rows, delimiter=",", fmt="%.17g")
    src = str(Path(latmax.__file__).parents[1])
    script = ("import json, sys\nfrom latmax.cli import main\n"
              "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))")
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        calls = [
            ["greedy", "--objective", "gpca", "--lattice", "vector:3",
             "--data", str(tmp_path / "data3.csv"), "--k", "2", "--strategy", "grid:0.05",
             "--report", str(out / "greedy.json")],
            ["double-greedy", "--objective", "gpca", "--lattice", "vector:16",
             "--data", str(tmp_path / "data16.csv"), "--strategy", "random:2048",
             "--seed", "3", "--report", str(out / "double_greedy.json")],
        ]
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        subprocess.run([sys.executable, "-c", script, json.dumps(calls)],
                       env=env, check=True, capture_output=True)
        reports.append([(out / name).read_text() for name in ("greedy.json", "double_greedy.json")])
    assert reports[0] == reports[1]
