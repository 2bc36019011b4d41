"""Gaussian-mixture study comparing plain and saturating subspace selection."""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .objectives import (
    ConcaveRho,
    GeneralizedPCAObjective,
    PCAObjective,
    SaturatingFamily,
    fractional_energy_family,
)
from .solvers import ExactEigen, Grid, greedy_height
from .subspaces import VectorLattice

AXIS_NAMES = ("x1", "x2", "x3")
SCATTER_PAIRS = ((0, 1), (1, 2), (2, 0))


@dataclass(frozen=True)
class MixtureSpec:
    """Two-component centered Gaussian mixture with diagonal covariances."""

    q: float = 0.95
    sigma1: tuple[float, ...] = (1.0, 0.1, 0.3)
    sigma2: tuple[float, ...] = (0.1, 1.0, 0.3)
    n_samples: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"mixing weight must lie in [0, 1], got {self.q}")
        if len(self.sigma1) != len(self.sigma2):
            raise ValueError("covariance diagonals must have equal length")
        if any(s < 0 for s in self.sigma1) or any(s < 0 for s in self.sigma2):
            raise ValueError("covariance diagonals must be nonnegative")
        if self.n_samples < 1:
            raise ValueError("n_samples must be positive")

    @property
    def dim(self) -> int:
        return len(self.sigma1)

    def to_json_dict(self) -> dict:
        return asdict(self)


def generate_mixture(spec: MixtureSpec) -> np.ndarray:
    """Draw samples deterministically from the mixture.

    Uses the PCG64 generator and an explicit Box-Muller transform of its
    uniform stream, so a fixed seed reproduces the same bytes everywhere.
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    n, d = spec.n_samples, spec.dim
    first = rng.random(n) < spec.q
    u1 = rng.random((n, d))
    u2 = rng.random((n, d))
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    normals = radius * np.cos(2.0 * np.pi * u2)
    scale = np.where(first[:, None],
                     np.sqrt(np.asarray(spec.sigma1))[None, :],
                     np.sqrt(np.asarray(spec.sigma2))[None, :])
    return normals * scale


@dataclass(frozen=True)
class PlaneSelection:
    """Chosen directions of one greedy run plus alignment summaries."""

    directions: tuple[tuple[float, ...], ...]
    value: float

    @property
    def axis_cosines(self) -> np.ndarray:
        return np.abs(np.asarray(self.directions))

    @property
    def dominant_axes(self) -> tuple[int, ...]:
        return tuple(int(i) for i in self.axis_cosines.argmax(axis=1))

    @property
    def plane(self) -> str:
        basis = np.asarray(self.directions).T
        weight = np.linalg.norm(basis, axis=1)
        top = sorted(np.argsort(weight)[-2:].tolist())
        return "-".join(AXIS_NAMES[i] for i in top)

    def to_json_dict(self) -> dict:
        return {
            "directions": [list(d) for d in self.directions],
            "value": self.value,
            "axis_cosines": self.axis_cosines.tolist(),
            "dominant_axes": list(self.dominant_axes),
            "plane": self.plane,
        }


@dataclass(frozen=True)
class ExperimentReport:
    spec: MixtureSpec
    plain: PlaneSelection
    generalized: PlaneSelection

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec.to_json_dict(),
            "plain": self.plain.to_json_dict(),
            "generalized": self.generalized.to_json_dict(),
        }


def _selection_from_report(report) -> PlaneSelection:
    dirs = tuple(tuple(step["direction"]) for step in report.iterations)
    return PlaneSelection(directions=dirs, value=report.value)


def run_appendix_experiment(spec: MixtureSpec = MixtureSpec(),
                            rho: ConcaveRho | SaturatingFamily | None = None,
                            strategy=None) -> ExperimentReport:
    """Run plain and saturating 2-dim selection on one mixture draw."""
    if spec.dim != 3:
        raise ValueError("the study is defined on 3-dimensional data")
    data = generate_mixture(spec)
    lat = VectorLattice(3)

    plain = greedy_height(PCAObjective(data), lat, 2, strategy=ExactEigen())

    if rho is None:
        rho = fractional_energy_family(data)
    if strategy is None:
        strategy = Grid(width=0.025)
    generalized = greedy_height(GeneralizedPCAObjective(data, rho), lat, 2,
                                strategy=strategy)

    return ExperimentReport(
        spec=spec,
        plain=_selection_from_report(plain),
        generalized=_selection_from_report(generalized),
    )


def write_scatter_csvs(data: np.ndarray, out_dir) -> list[Path]:
    """Write the three coordinate-plane projections as CSV files."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, j in SCATTER_PAIRS:
        path = out_dir / f"scatter_{AXIS_NAMES[i]}_{AXIS_NAMES[j]}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([AXIS_NAMES[i], AXIS_NAMES[j]])
            for row in data:
                writer.writerow([f"{row[i]:.10g}", f"{row[j]:.10g}"])
        paths.append(path)
    return paths


def write_summary_json(report: ExperimentReport, path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report.to_json_dict(), indent=2) + "\n")
    return path
