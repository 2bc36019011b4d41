import json

import numpy as np
import pytest

from latmax import solvers
from latmax.cli import main
from latmax.objectives import QuantumCutObjective, WeightedDigraph
from latmax.solvers import double_greedy


@pytest.fixture
def data_csv(tmp_path, rng):
    path = tmp_path / "data.csv"
    np.savetxt(path, rng.normal(size=(40, 3)), delimiter=",")
    return path


@pytest.fixture
def graph_json(tmp_path):
    doc = {"vertices": np.eye(3).tolist(),
           "edges": [[0, 1, 2.0], [1, 2, 1.0], [2, 0, 0.5]]}
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def table_json(tmp_path):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"values": [0.0, 1.0, 10.0, 11.0]}))
    return path


class TestGreedy:
    def test_vector_pca_matches_eigensum(self, data_csv, tmp_path, capsys):
        out = tmp_path / "rep.json"
        rc = main(["greedy", "--objective", "pca", "--lattice", "vector:3",
                   "--data", str(data_csv), "--k", "2",
                   "--strategy", "exact-eigen", "--report", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        data = np.loadtxt(data_csv, delimiter=",")
        top2 = np.linalg.eigvalsh(data.T @ data)[-2:].sum()
        assert abs(doc["value"] - top2) < 1e-8 * top2
        assert len(doc["iterations"]) == 2
        assert "greedy value" in capsys.readouterr().out

    def test_finite_table(self, table_json, capsys):
        rc = main(["greedy", "--objective", "table", "--lattice", "set:2",
                   "--table", str(table_json), "--k", "1"])
        assert rc == 0
        assert "after 1 steps" in capsys.readouterr().out


class TestKnapsack:
    def test_uniform_cost_budget_one(self, table_json, tmp_path):
        out = tmp_path / "rep.json"
        rc = main(["knapsack", "--objective", "table", "--lattice", "set:2",
                   "--table", str(table_json), "--budget", "1",
                   "--report", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["value"] == 10.0 and doc["element"] == 2

    def test_vector_lattice_rejected(self, data_csv, capsys):
        rc = main(["knapsack", "--objective", "pca", "--lattice", "vector:3",
                   "--data", str(data_csv), "--budget", "1"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestDoubleGreedy:
    def test_cut_matches_library_call(self, graph_json, tmp_path):
        out = tmp_path / "rep.json"
        rc = main(["double-greedy", "--objective", "cut",
                   "--lattice", "set:3", "--graph", str(graph_json),
                   "--report", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        graph = WeightedDigraph.from_json_dict(json.loads(graph_json.read_text()))
        from latmax.lattice import SetLattice
        ref = double_greedy(QuantumCutObjective(graph), SetLattice(3))
        assert doc["value"] == ref.value and doc["element"] == ref.element

    def test_grid_refinement_on_the_subspace_lattice(self, data_csv, tmp_path):
        # refinement centres on the best unit in the gap basis's coordinates
        out = tmp_path / "rep.json"
        rc = main(["double-greedy", "--objective", "gpca", "--lattice", "vector:3",
                   "--data", str(data_csv), "--strategy", "grid:0.1:1",
                   "--report", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["meta"]["iterations_used"] == 3
        for it in doc["iterations"]:
            assert abs(np.linalg.norm(it["direction"]) - 1.0) < 1e-12


class TestOracle:
    def test_mirrors_solver_flags(self, table_json, capsys):
        rc = main(["oracle", "--objective", "table", "--lattice", "set:2",
                   "--table", str(table_json), "--k", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "oracle optimum 10" in out and "3 feasible" in out


class TestDiagnose:
    def test_reports_all_directions(self, table_json, capsys):
        rc = main(["diagnose", "--objective", "table", "--lattice", "set:2",
                   "--table", str(table_json)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["reports"]) == {"strong", "downward", "upward"}
        assert doc["ok"]

    def test_max_delta_gate(self, tmp_path, capsys):
        path = tmp_path / "super.json"
        path.write_text(json.dumps(
            {"values": [v**2 for v in [0, 1, 1, 2, 1, 2, 2, 3]]}))
        rc = main(["diagnose", "--objective", "table", "--lattice", "set:3",
                   "--table", str(path), "--max-delta", "1e-9"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.err
        assert not json.loads(captured.out)["ok"]

    def test_coherence_check_passes(self, tmp_path, rng, capsys):
        v = np.eye(4) + 0.02 * rng.normal(size=(4, 4))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        dic = tmp_path / "dict.json"
        dic.write_text(json.dumps(
            {"kind": "dictionary", "atoms": v.tolist()}))
        table = tmp_path / "flat.json"
        table.write_text(json.dumps({"values": [0.0, 0.0, 0.0, 0.0]}))
        rc = main(["diagnose", "--objective", "table", "--lattice", "set:2",
                   "--table", str(table), "--check-coherence", str(dic)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["checks"]["coherence"]["holds"]


class TestExperiment:
    def test_appendix_outputs(self, tmp_path, capsys):
        rc = main(["experiment", "appendix", "--samples", "120",
                   "--width", "0.2", "--seed", "1",
                   "--out", str(tmp_path / "study")])
        assert rc == 0
        names = {p.name for p in (tmp_path / "study").iterdir()}
        assert names == {"scatter_x1_x2.csv", "scatter_x2_x3.csv",
                         "scatter_x3_x1.csv", "summary.json"}
        assert "plain plane" in capsys.readouterr().out


def test_one_parser_serves_consecutive_calls(table_json, data_csv, capsys):
    # main parses with one parser per process; no call may see another's flags
    from latmax.cli import build_parser
    table = ["--objective", "table", "--lattice", "set:2", "--table", str(table_json)]
    calls = [["greedy", *table, "--k", "1"],
             ["knapsack", *table, "--budget", "1"],
             ["oracle", *table, "--k", "1"],
             ["oracle", *table],
             ["double-greedy", *table],
             ["diagnose", *table, "--direction", "strong"],
             ["greedy", "--objective", "pca", "--lattice", "vector:3", "--data", str(data_csv),
              "--k", "2", "--strategy", "random:64", "--seed", "3"],
             ["greedy", "--objective", "pca", "--lattice", "vector:3", "--data", str(data_csv),
              "--k", "2"]]
    outs = []
    for argv in calls + calls[::-1]:
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[:len(calls)] == outs[len(calls):][::-1]
    assert build_parser() is build_parser()


@pytest.mark.parametrize("command", [["greedy", "--k", "1"], ["knapsack", "--budget", "1"],
                                     ["double-greedy"], ["oracle"], ["diagnose"]])
def test_report_into_a_missing_directory(command, table_json, tmp_path, capsys):
    # every subcommand makes the report's directory; stdout is unchanged
    argv = [command[0], "--objective", "table", "--lattice", "set:2",
            "--table", str(table_json), *command[1:]]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    report = tmp_path / "new" / "dir" / "report.json"
    assert main([*argv, "--report", str(report)]) == 0
    out = capsys.readouterr().out
    if command[0] == "diagnose":
        assert out == plain and json.loads(out) == json.loads(report.read_text())
    else:
        assert out == plain + f"report written to {report}\n"
        assert json.loads(report.read_text())["value"] == float(plain.split()[2])


class TestUsageErrors:
    def test_missing_data_flag(self, capsys):
        rc = main(["greedy", "--objective", "pca", "--lattice", "vector:3",
                   "--k", "1"])
        assert rc == 2
        assert "requires --data" in capsys.readouterr().err

    def test_unknown_objective_rejected(self):
        with pytest.raises(SystemExit):
            main(["greedy", "--objective", "nope", "--lattice", "set:2",
                  "--k", "1"])

    def test_unknown_strategy(self, table_json, capsys):
        rc = main(["greedy", "--objective", "table", "--lattice", "set:2",
                   "--table", str(table_json), "--k", "1",
                   "--strategy", "simulated-annealing"])
        assert rc == 2
        assert "unknown strategy" in capsys.readouterr().err


class TestInputErrors:
    """Malformed input exits 2 with one `error:` line, never a traceback;
    exit 1 stays reserved for diagnose gate failures."""

    @staticmethod
    def _one_error_line(capsys, *words):
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        for w in words:
            assert w in err

    def test_diagnose_refuses_lattices_above_the_scan_cap(self, tmp_path, capsys):
        table = tmp_path / "zeros.json"
        table.write_text(json.dumps({"values": [0.0] * (1 << 13)}))
        rc = main(["diagnose", "--objective", "table", "--lattice", "set:13",
                   "--table", str(table)])
        assert rc == 2
        self._one_error_line(capsys, "8192 elements", "cap 4096")

    @pytest.mark.parametrize("command", [
        ["oracle"], ["oracle", "--budget", "1"], ["diagnose", "--direction", "all"]])
    def test_exhaustive_scans_on_the_subspace_lattice(self, command, tmp_path, capsys):
        data = tmp_path / "d.csv"
        np.savetxt(data, np.eye(2), delimiter=",")
        rc = main([command[0], "--objective", "pca", "--lattice", "vector:2",
                   "--data", str(data), *command[1:]])
        assert rc == 2
        self._one_error_line(capsys, "finite lattice")

    @pytest.mark.parametrize("key", ["3", "99"])
    def test_cost_key_that_names_no_irreducible(self, key, tmp_path, table_json, capsys):
        path = tmp_path / "cost.json"
        path.write_text(json.dumps({"increments": {"1": 1.0, "2": 1.0, key: 1.0}}))
        rc = main(["oracle", "--objective", "table", "--lattice", "set:2",
                   "--table", str(table_json), "--budget", "1", "--cost", str(path)])
        assert rc == 2
        self._one_error_line(capsys, str(path), f"increment keys [{key}]", "ids 0..3")

    @pytest.mark.parametrize("command", [["greedy", "--k", "1"], ["diagnose"]])
    def test_table_shorter_than_lattice(self, command, tmp_path, capsys):
        table = tmp_path / "short.json"
        table.write_text(json.dumps({"values": [0.0, 1.0, 2.0]}))
        rc = main([command[0], "--objective", "table", "--lattice", "set:3",
                   "--table", str(table), *command[1:]])
        assert rc == 2
        self._one_error_line(capsys, "3 values", "8 elements")

    def test_non_finite_table_value(self, tmp_path, capsys):
        table = tmp_path / "nan.json"
        table.write_text('{"values": [0.0, NaN, 1.0, 2.0]}')
        rc = main(["greedy", "--objective", "table", "--lattice", "set:2",
                   "--table", str(table), "--k", "1"])
        assert rc == 2
        self._one_error_line(capsys, "finite")

    def test_non_finite_data_row(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        path.write_text("1.0,0.0,0.0\nnan,1.0,0.0\n0.0,0.0,1.0\n")
        rc = main(["greedy", "--objective", "pca", "--lattice", "vector:3",
                   "--data", str(path), "--k", "1"])
        assert rc == 2
        self._one_error_line(capsys, "finite")

    @pytest.mark.parametrize("vertices, weight", [
        ([[1.0, 0.0, 0.0], [0.0, float("nan"), 0.0], [0.0, 0.0, 1.0]], 1.0),
        (np.eye(3).tolist(), float("inf")),
    ])
    def test_non_finite_graph(self, vertices, weight, tmp_path, capsys):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({"vertices": vertices,
                                    "edges": [[0, 1, weight], [1, 2, 1.0]]}))
        rc = main(["double-greedy", "--objective", "cut", "--lattice", "set:3",
                   "--graph", str(path)])
        assert rc == 2
        self._one_error_line(capsys, "finite")

    def test_table_objective_on_a_subspace_lattice(self, table_json, capsys):
        rc = main(["greedy", "--objective", "table", "--lattice", "vector:3",
                   "--table", str(table_json), "--k", "1"])
        assert rc == 2
        self._one_error_line(capsys, "finite lattice")

    @pytest.mark.parametrize("items", [2, 5])
    def test_graph_vertex_count_differs_from_items(self, items, graph_json, capsys):
        rc = main(["greedy", "--objective", "cut", "--lattice", f"set:{items}",
                   "--graph", str(graph_json), "--k", "1"])
        assert rc == 2
        self._one_error_line(capsys, "3 vertices", f"{items} items")

    @pytest.mark.parametrize("lattice", ["vector:3", "dictionary"])
    def test_data_width_differs_from_ambient_dimension(self, lattice, tmp_path, capsys):
        data = tmp_path / "wide.csv"
        np.savetxt(data, np.ones((5, 4)), delimiter=",")
        if lattice == "dictionary":
            lattice = str(tmp_path / "lattice.json")
            (tmp_path / "lattice.json").write_text(
                json.dumps({"kind": "dictionary", "atoms": np.eye(3).tolist()}))
        rc = main(["greedy", "--objective", "pca", "--lattice", lattice,
                   "--data", str(data), "--k", "1"])
        assert rc == 2
        self._one_error_line(capsys, "dimension 4", "ambient dimension is 3")

    def test_graph_vertex_width_differs_from_ambient_dimension(self, graph_json, capsys):
        rc = main(["double-greedy", "--objective", "qcut", "--lattice", "vector:2",
                   "--graph", str(graph_json)])
        assert rc == 2
        self._one_error_line(capsys, "dimension 3", "ambient dimension is 2")

    def test_cut_objective_on_an_explicit_lattice(self, graph_json, tmp_path, capsys):
        # element ids of an explicit lattice are not vertex bitmasks
        path = tmp_path / "m3.json"
        path.write_text(json.dumps({"kind": "explicit", "n": 5, "cover_edges": [
            [0, 1], [0, 2], [0, 3], [1, 4], [2, 4], [3, 4]]}))
        rc = main(["greedy", "--objective", "cut", "--lattice", str(path),
                   "--graph", str(graph_json), "--k", "2"])
        assert rc == 2
        self._one_error_line(capsys, "explicit lattice")

    @pytest.mark.parametrize("edge", [[1, 7], [-1, 2]])
    def test_cover_edge_outside_the_lattice(self, edge, tmp_path, capsys):
        path = tmp_path / "lattice.json"
        path.write_text(json.dumps({"kind": "explicit", "n": 3,
                                    "cover_edges": [[0, 1], edge]}))
        table = tmp_path / "table.json"
        table.write_text(json.dumps({"values": [0.0, 1.0, 2.0]}))
        rc = main(["greedy", "--objective", "table", "--lattice", str(path),
                   "--table", str(table), "--k", "1"])
        assert rc == 2
        self._one_error_line(capsys, f"[{edge[0]}, {edge[1]}]", "missing element")

    @pytest.mark.parametrize("labels", [{"x": "a"}, ["a", "b"], ["a", "b", 2]])
    def test_explicit_labels_not_one_string_per_element(self, labels, tmp_path, capsys):
        path = tmp_path / "lattice.json"
        path.write_text(json.dumps({"kind": "explicit", "n": 3,
                                    "cover_edges": [[0, 1], [1, 2]], "labels": labels}))
        table = tmp_path / "table.json"
        table.write_text(json.dumps({"values": [0.0, 1.0, 2.0]}))
        rc = main(["greedy", "--objective", "table", "--lattice", str(path),
                   "--table", str(table), "--k", "1"])
        assert rc == 2
        self._one_error_line(capsys, "labels", "3 strings")

    def test_non_finite_dictionary_atom(self, tmp_path, capsys):
        path = tmp_path / "lattice.json"
        path.write_text('{"kind": "dictionary", "atoms": [[1.0, 0.0], [0.0, NaN]]}')
        data = tmp_path / "data.csv"
        np.savetxt(data, np.eye(2), delimiter=",")
        rc = main(["greedy", "--objective", "gpca", "--lattice", str(path),
                   "--data", str(data), "--k", "1"])
        assert rc == 2
        self._one_error_line(capsys, "atoms", "finite")

    @pytest.mark.parametrize("doc, key", [
        ({"kind": "dictionary"}, "atoms"),
        ({"kind": "explicit", "cover_edges": [[0, 1]]}, "n"),
        ({"kind": "explicit", "n": 2}, "cover_edges"),
    ])
    def test_lattice_file_missing_a_key(self, doc, key, tmp_path, capsys):
        path = tmp_path / "lattice.json"
        path.write_text(json.dumps(doc))
        table = tmp_path / "table.json"
        table.write_text(json.dumps({"values": [0.0, 1.0]}))
        rc = main(["greedy", "--objective", "table", "--lattice", str(path),
                   "--table", str(table), "--k", "1"])
        assert rc == 2
        self._one_error_line(capsys, doc["kind"], f"no {key!r} key")

    @pytest.mark.parametrize("flag, doc, key", [
        ("--table", {"value": [0.0, 1.0, 2.0, 3.0]}, "values"),
        ("--graph", {"edges": [[0, 1, 1.0]]}, "vertices"),
        ("--graph", {"vertices": np.eye(2).tolist()}, "edges"),
        ("--cost", {"base": 0.0}, "increments"),
        ("--check-coherence", {"kind": "dictionary"}, "atoms"),
        ("--rho", {"kind": "capped"}, "threshold"),
        ("--rho", "capped", "threshold"),
        ("--rho", {"kind": "knots", "t": [0.0, 1.0]}, "y"),
        ("--rho", {"kind": "saturating_family", "slope": 0.1}, "thresholds"),
    ])
    def test_json_input_missing_a_key(self, flag, doc, key, tmp_path, table_json,
                                      data_csv, capsys):
        argv = self._json_input_argv(flag, doc, tmp_path, table_json, data_csv)
        assert main(argv) == 2
        self._one_error_line(capsys, argv[argv.index(flag) + 1], f"no {key!r} key")

    @pytest.mark.parametrize("flag, doc, key", [
        ("--table", {"values": {"a": 1}}, "values"),
        ("--table", {"values": [0.0, "1", 2.0, 3.0]}, "values"),
        ("--table", {"values": [[0.0, 1.0], [2.0, 3.0]]}, "values"),
        ("--cost", {"increments": [1, 2]}, "increments"),
        ("--cost", {"increments": {"1": [1.0], "2": 1.0}}, "increments"),
        ("--cost", {"base": "x", "increments": {"1": 1.0, "2": 1.0}}, "base"),
        ("--graph", {"vertices": {"a": 1}, "edges": [[0, 1, 1.0]]}, "vertices"),
        ("--lattice", {"kind": "explicit", "n": "x", "cover_edges": [[0, 1]]}, "n"),
        ("--lattice", {"kind": "explicit", "n": 2.5, "cover_edges": [[0, 1]]}, "n"),
        ("--graph", {"vertices": np.eye(2).tolist(), "edges": [[0, "x", 1]]}, "edges"),
        ("--graph", {"vertices": np.eye(2).tolist(), "edges": [[0, 1.5, 1]]}, "edges"),
        ("--cost", {"base": "0.5", "increments": {"1": 1.0, "2": 1.0}}, "base"),
        ("--cost", {"base": True, "increments": {"1": 1.0, "2": 1.0}}, "base"),
        ("--rho", {"kind": "saturating_family", "thresholds": [1.0] * 40, "slope": "0.5"},
         "slope"),
        ("--rho", {"kind": "knots", "t": [0, True], "y": [0, 1]}, "t"),
        ("--rho", {"kind": "capped", "threshold": "1"}, "threshold"),
        *[("--lattice", {"kind": "explicit", "n": 4, "cover_edges": [[0, hi], [1, 2], [2, 3]]},
           "cover_edges") for hi in (1.5, 1.0, True)],
        *[(flag, {"kind": "dictionary", "atoms": atoms}, "atoms")
          for flag in ("--lattice", "--check-coherence")
          for atoms in ([["1", 0], [0, 1]], [[1, 0], [0, True]])],
        ("--graph", {"vertices": [["1", 0], [0, 1]], "edges": [[0, 1, 1.0]]}, "vertices"),
        *[("--cost", {"increments": {key: 1.0, "2": 1.0}}, "increments")
          for key in ("1.0", "x", "01", " 1")],
        ("--lattice", {"kind": "explicit", "n": -1, "cover_edges": []}, "n"),
    ])
    def test_json_input_value_of_the_wrong_type(self, flag, doc, key, tmp_path, table_json,
                                                data_csv, capsys):
        argv = self._json_input_argv(flag, doc, tmp_path, table_json, data_csv)
        assert main(argv) == 2
        self._one_error_line(capsys, argv[argv.index(flag) + 1], repr(key))

    @staticmethod
    def _json_input_argv(flag, doc, tmp_path, table_json, data_csv):
        """A run on set:2 (vector:3 for --rho) that reads ``doc`` through ``flag``;
        ``--lattice`` reads the lattice itself from ``doc``."""
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        table = ["--objective", "table", "--lattice", "set:2", "--table", str(table_json)]
        return {
            "--table": ["greedy", *table[:4], "--table", str(path), "--k", "1"],
            "--graph": ["greedy", "--objective", "cut", "--lattice", "set:2",
                        "--graph", str(path), "--k", "1"],
            "--cost": ["knapsack", *table, "--budget", "1", "--cost", str(path)],
            "--check-coherence": ["diagnose", *table, "--check-coherence", str(path)],
            "--rho": ["greedy", "--objective", "gpca", "--lattice", "vector:3",
                      "--data", str(data_csv), "--rho", str(path), "--k", "1"],
            "--lattice": ["greedy", "--objective", "table", "--lattice", str(path),
                          "--table", str(table_json), "--k", "1"],
        }[flag]

    def test_knots_that_bend_upward_past_ten(self, tmp_path, table_json, data_csv, capsys):
        doc = {"kind": "knots", "t": [0.0, 1.0, 20.0, 21.0], "y": [0.0, 1.0, 1.5, 10.0]}
        argv = self._json_input_argv("--rho", doc, tmp_path, table_json, data_csv)
        assert main(argv) == 2
        self._one_error_line(capsys, argv[argv.index("--rho") + 1], "concave")

    @pytest.mark.parametrize("rho", ["capped", "capped:1:0.1:5", "fractional:0.01:0.1:3"])
    def test_rho_with_the_wrong_number_of_fields(self, rho, data_csv, capsys):
        rc = main(["greedy", "--objective", "gpca", "--lattice", "vector:3",
                   "--data", str(data_csv), "--rho", rho, "--k", "1"])
        assert rc == 2
        self._one_error_line(capsys, repr(rho), "capped:THRESHOLD[:SLOPE]")

    @pytest.mark.parametrize("flag, spec", [
        ("--strategy", "grid:0.1:0:junk"), ("--strategy", "random:5:1:junk"),
        ("--cost", "uniform:1:junk"), ("--lattice", "set:2:1"),
    ])
    def test_colon_spec_with_extra_fields(self, flag, spec, table_json, data_csv, capsys):
        argv = {"--strategy": ["greedy", "--objective", "pca", "--lattice", "vector:3",
                               "--data", str(data_csv), "--k", "1"],
                "--cost": ["knapsack", "--objective", "table", "--lattice", "set:2",
                           "--table", str(table_json), "--budget", "1"],
                "--lattice": ["greedy", "--objective", "table", "--table", str(table_json),
                              "--k", "1"]}[flag]
        assert main([*argv, flag, spec]) == 2
        self._one_error_line(capsys, repr(spec), "expected")

    @pytest.mark.parametrize("flag, text", [
        ("--table", '{"values": [0,\n 1, 2'),
        ("--lattice", '{"kind": "explicit", "n": 2'),
        ("--cost", '{"increments": {"1": 1.0,}}'),
        ("--data", '{"values": [0, 1]}\n'),
    ], ids=["table", "lattice", "cost", "data"])
    def test_input_file_that_does_not_parse(self, flag, text, tmp_path, table_json, capsys):
        path = tmp_path / "input.txt"
        path.write_text(text)
        table = ["--objective", "table", "--lattice", "set:2", "--table", str(table_json)]
        argv = {"--table": ["greedy", *table[:4], "--table", str(path), "--k", "1"],
                "--lattice": ["greedy", "--objective", "table", "--lattice", str(path),
                              "--table", str(table_json), "--k", "1"],
                "--cost": ["knapsack", *table, "--budget", "1", "--cost", str(path)],
                "--data": ["greedy", "--objective", "pca", "--lattice", "vector:3",
                           "--data", str(path), "--k", "1"]}[flag]
        assert main(argv) == 2
        self._one_error_line(capsys, str(path))

    @pytest.mark.parametrize("strategy, words", [
        ("grid:0", "grid width"), ("grid:-0.5", "grid width"), ("grid:inf", "grid width"),
        ("grid:0.2:-1", "refine rounds"), ("random:0", "at least one sample"),
    ])
    @pytest.mark.parametrize("command", ["greedy", "double-greedy"])
    def test_bad_strategy_value(self, command, strategy, words, data_csv, capsys):
        rc = main([command, "--objective", "pca", "--lattice", "vector:3",
                   "--data", str(data_csv), "--strategy", strategy,
                   *(["--k", "1"] if command == "greedy" else [])])
        assert rc == 2
        self._one_error_line(capsys, words)

    @pytest.mark.parametrize("strategy, words", [
        ("grid:0.001", "4,008,005,001"), ("grid:1e-9", "candidate directions"),
        ("grid:1e-320", "inf candidate directions"),
        ("grid:0.5:100000", "133,100,075"), ("random:100000000", "100,000,000"),
    ])
    @pytest.mark.parametrize("command", ["greedy", "double-greedy"])
    def test_direction_search_too_large_to_build(self, command, strategy, words, data_csv,
                                                  capsys, monkeypatch):
        # the columns are counted: no grid is built and no direction drawn
        class NoDraws:
            def normal(self, *args, **kwargs):
                raise AssertionError("drew the candidate directions")

        def no_grid(*args):
            raise AssertionError("built the candidate grid")
        monkeypatch.setattr(solvers, "_grid_axes", no_grid)
        monkeypatch.setattr(solvers, "_grid_points", no_grid)
        monkeypatch.setattr(np.random, "default_rng", lambda seed=None: NoDraws())
        rc = main([command, "--objective", "gpca", "--lattice", "vector:3",
                   "--data", str(data_csv), "--strategy", strategy,
                   *(["--k", "1"] if command == "greedy" else [])])
        assert rc == 2
        self._one_error_line(capsys, words, "cap of 33,554,432")

    @pytest.mark.parametrize("command", ["greedy", "double-greedy"])
    def test_eigenvector_step_needs_plain_pca(self, command, data_csv, capsys):
        rc = main([command, "--objective", "gpca", "--lattice", "vector:3",
                   "--data", str(data_csv), "--strategy", "exact-eigen",
                   *(["--k", "1"] if command == "greedy" else [])])
        assert rc == 2
        self._one_error_line(capsys, "eigenvector step")

    @pytest.mark.parametrize("width", ["0", "-0.1"])
    def test_bad_experiment_width(self, width, tmp_path, capsys):
        rc = main(["experiment", "appendix", "--samples", "20", "--width", width,
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        self._one_error_line(capsys, "grid width")

    @pytest.mark.parametrize("command", ["knapsack", "oracle"])
    @pytest.mark.parametrize("budget", ["nan", "inf"])
    def test_non_finite_budget(self, command, budget, table_json, capsys):
        rc = main([command, "--objective", "table", "--lattice", "set:2",
                   "--table", str(table_json), "--budget", budget, "--cost", "uniform"])
        assert rc == 2
        self._one_error_line(capsys, "--budget", "finite")

    @pytest.mark.parametrize("max_delta", ["nan", "inf"])
    def test_non_finite_max_delta(self, max_delta, table_json, capsys):
        # NaN fails every comparison, so it would pass every gap unchecked
        rc = main(["diagnose", "--objective", "table", "--lattice", "set:2",
                   "--table", str(table_json), "--max-delta", max_delta])
        assert rc == 2
        self._one_error_line(capsys, "--max-delta", "finite")

    @pytest.mark.parametrize("lattice", ["vector:1", "vector:3"])
    @pytest.mark.parametrize("text", ["", "\n\n\n"], ids=["empty", "blank-lines"])
    def test_data_file_without_rows(self, lattice, text, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        rc = main(["greedy", "--objective", "pca", "--lattice", lattice,
                   "--data", str(path), "--k", "1"])
        assert rc == 2
        self._one_error_line(capsys, str(path), "no rows")

    @pytest.mark.parametrize("command", ["knapsack", "oracle"])
    @pytest.mark.parametrize("cost, key", [
        ('{"base": NaN, "increments": {"1": 1.0, "2": 1.0}}', "base"),
        ('{"base": Infinity, "increments": {"1": 1.0, "2": 1.0}}', "base"),
        ('{"increments": {"1": NaN, "2": 1.0}}', "increments"),
    ])
    def test_non_finite_cost_file(self, command, cost, key, tmp_path, table_json, capsys):
        path = tmp_path / "cost.json"
        path.write_text(cost)
        rc = main([command, "--objective", "table", "--lattice", "set:2",
                   "--table", str(table_json), "--budget", "1", "--cost", str(path)])
        assert rc == 2
        self._one_error_line(capsys, str(path), key, "finite")

    @pytest.mark.parametrize("lattice", ["dictionary", "vector:3"])
    @pytest.mark.parametrize("command", [["greedy", "--k", "2"], ["oracle"], ["double-greedy"]])
    @pytest.mark.parametrize("rho", ["fractional:nan", "fractional:inf", "file"])
    def test_non_finite_saturating_thresholds(self, lattice, command, rho, tmp_path,
                                              data_csv, capsys):
        if lattice == "dictionary":
            lattice = tmp_path / "lattice.json"
            lattice.write_text(json.dumps({"kind": "dictionary", "atoms": np.eye(3).tolist()}))
        if rho == "file":
            rho = tmp_path / "rho.json"
            rho.write_text(json.dumps({"kind": "saturating_family",
                                       "thresholds": [float("nan")] + [1.0] * 39}))
        rc = main([command[0], "--objective", "gpca", "--lattice", str(lattice),
                   "--data", str(data_csv), "--rho", str(rho), *command[1:]])
        assert rc == 2
        self._one_error_line(capsys, "thresholds", "finite")

    @pytest.mark.parametrize("rho", ["capped:nan", "capped:inf", "capped:1:nan"])
    def test_non_finite_capped_rho(self, rho, data_csv, capsys):
        rc = main(["greedy", "--objective", "gpca", "--lattice", "vector:3",
                   "--data", str(data_csv), "--rho", rho, "--k", "1"])
        assert rc == 2
        self._one_error_line(capsys, "finite threshold > 0", "slope in [0, 1]")

    @pytest.mark.parametrize("command", ["knapsack", "oracle"])
    @pytest.mark.parametrize("step", ["nan", "inf"])
    def test_non_finite_uniform_cost(self, command, step, table_json, capsys):
        rc = main([command, "--objective", "table", "--lattice", "set:2",
                   "--table", str(table_json), "--budget", "1", "--cost", f"uniform:{step}"])
        assert rc == 2
        self._one_error_line(capsys, "increments", "finite")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rows", ["unit", "gaussian"])
    def test_fractional_rho_past_the_float_range(self, rows, tmp_path, data_csv, capsys):
        # 1e308 times a squared norm above 1.8 overflows, and so does the sum
        # of the finite thresholds of unit rows; numpy warns of neither
        if rows == "unit":
            data_csv = tmp_path / "eye.csv"
            np.savetxt(data_csv, np.eye(3), delimiter=",")
        rc = main(["greedy", "--objective", "gpca", "--lattice", "vector:3",
                   "--data", str(data_csv), "--rho", "fractional:1e308", "--k", "2"])
        if rows == "unit":
            assert rc == 0 and capsys.readouterr().err == ""
        else:
            assert rc == 2
            self._one_error_line(capsys, "thresholds", "finite")

    @pytest.mark.parametrize("command", ["greedy", "oracle"])
    def test_negative_height_cap(self, command, table_json, capsys):
        rc = main([command, "--objective", "table", "--lattice", "set:2",
                   "--table", str(table_json), "--k", "-1"])
        assert rc == 2
        self._one_error_line(capsys, "--k", "nonnegative")
