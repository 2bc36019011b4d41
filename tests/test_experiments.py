import json

import numpy as np
import pytest

from latmax.experiments import (
    ExperimentReport,
    MixtureSpec,
    generate_mixture,
    run_appendix_experiment,
    write_scatter_csvs,
    write_summary_json,
)
from latmax.objectives import ConcaveRho
from latmax.solvers import Grid


class TestMixtureSpec:
    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            MixtureSpec(q=1.5)

    def test_rejects_negative_variance(self):
        with pytest.raises(ValueError):
            MixtureSpec(sigma1=(1.0, -0.1, 0.3))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            MixtureSpec(sigma1=(1.0, 0.1), sigma2=(0.1, 1.0, 0.3))

    def test_json_round_trip(self):
        assert json.loads(json.dumps(MixtureSpec(seed=7).to_json_dict())) == {
            "q": 0.95, "sigma1": [1.0, 0.1, 0.3], "sigma2": [0.1, 1.0, 0.3],
            "n_samples": 1000, "seed": 7}


class TestGenerateMixture:
    def test_single_component_covariance(self):
        spec = MixtureSpec(q=1.0, n_samples=1000, seed=0)
        data = generate_mixture(spec)
        tol = 3.0 / np.sqrt(spec.n_samples)
        cov = data.T @ data / spec.n_samples
        for i, s in enumerate(spec.sigma1):
            assert abs(cov[i, i] - s) / s < tol
        offdiag = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(offdiag)) < tol

    def test_total_variance_law(self):
        spec = MixtureSpec(seed=0)
        data = generate_mixture(spec)
        second = (data**2).mean(axis=0)
        expect = 0.95 * np.array(spec.sigma1) + 0.05 * np.array(spec.sigma2)
        assert np.allclose(second, expect, atol=0.15)

    def test_seed_fixed_runs_are_byte_identical(self):
        a = generate_mixture(MixtureSpec(seed=3))
        b = generate_mixture(MixtureSpec(seed=3))
        assert a.tobytes() == b.tobytes()
        assert generate_mixture(MixtureSpec(seed=4)).tobytes() != a.tobytes()

    def test_shape_follows_spec(self):
        data = generate_mixture(MixtureSpec(n_samples=17))
        assert data.shape == (17, 3)


class TestAppendixExperiment:
    def test_plain_path_finds_heavy_axes(self):
        report = run_appendix_experiment(MixtureSpec(seed=0),
                                         strategy=Grid(width=0.2))
        cos = report.plain.axis_cosines
        assert cos[0, 0] > 0.99
        assert cos[1, 2] > 0.9
        assert report.plain.plane == "x1-x3"

    def test_identity_rho_reduces_to_plain(self):
        report = run_appendix_experiment(MixtureSpec(seed=1),
                                         rho=ConcaveRho.identity(),
                                         strategy=Grid(width=0.05))
        assert report.generalized.plane == report.plain.plane
        assert report.generalized.value <= report.plain.value + 1e-9

    def test_rejects_non_three_dim_spec(self):
        spec = MixtureSpec(sigma1=(1.0, 0.5), sigma2=(0.5, 1.0))
        with pytest.raises(ValueError):
            run_appendix_experiment(spec)

    def test_report_serializes(self):
        spec = MixtureSpec(n_samples=120, seed=2)
        report = run_appendix_experiment(spec, strategy=Grid(width=0.2))
        doc = json.loads(json.dumps(report.to_json_dict()))
        assert doc["spec"]["n_samples"] == 120
        assert len(doc["plain"]["directions"]) == 2
        assert doc["generalized"]["plane"].count("-") == 1


class TestOutputs:
    def test_scatter_files(self, tmp_path):
        data = generate_mixture(MixtureSpec(n_samples=25, seed=5))
        paths = write_scatter_csvs(data, tmp_path)
        assert [p.name for p in paths] == [
            "scatter_x1_x2.csv", "scatter_x2_x3.csv", "scatter_x3_x1.csv"]
        lines = paths[2].read_text().strip().splitlines()
        assert lines[0] == "x3,x1"
        assert len(lines) == 26
        first = [float(v) for v in lines[1].split(",")]
        assert np.allclose(first, [data[0, 2], data[0, 0]], atol=1e-9)

    def test_summary_file(self, tmp_path):
        report = run_appendix_experiment(MixtureSpec(n_samples=80, seed=6),
                                         strategy=Grid(width=0.25))
        out = write_summary_json(report, tmp_path / "summary.json")
        doc = json.loads(out.read_text())
        assert set(doc) == {"spec", "plain", "generalized"}
