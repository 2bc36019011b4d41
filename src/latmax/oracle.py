"""Exhaustive reference maximization for small finite lattices."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from latmax.lattice import FiniteLattice, check_scan_cap
from latmax.solvers import first_max


@dataclass(frozen=True)
class BruteForceResult:
    element: int
    value: float
    feasible_count: int

    def to_json_dict(self) -> dict:
        return asdict(self)


def brute_force_max(obj, lat: FiniteLattice, *, height_cap=None, cost=None,
                    budget=None) -> BruteForceResult:
    """Value every feasible element, in increasing id order; ties go to the
    lowest element id.

    Feasibility can be cut by a height cap, a cost budget, or both.
    """
    check_scan_cap(lat, "the exhaustive oracle")
    if (cost is None) != (budget is None):
        raise ValueError("cost and budget go together")
    feasible = np.ones(lat.n, dtype=bool)
    if height_cap is not None:
        feasible &= lat.heights <= height_cap
    if cost is not None:
        feasible &= cost.costs <= budget + 1e-12
    ids = np.flatnonzero(feasible).tolist()
    if not ids:
        raise ValueError("no feasible element")
    best, best_v = first_max(ids, lambda e: obj.value(lat, e))
    return BruteForceResult(best, float(best_v), len(ids))
