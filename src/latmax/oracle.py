"""Exhaustive reference maximization for small finite lattices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from latmax.lattice import FiniteLattice, check_scan_cap


@dataclass(frozen=True)
class BruteForceResult:
    element: int
    value: float
    feasible_count: int

    def to_json_dict(self) -> dict:
        return {"element": self.element, "value": self.value,
                "feasible_count": self.feasible_count}


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
    best, best_v = None, None
    for e in ids:
        v = obj.value(lat, e)
        if best_v is None or v > best_v:
            best, best_v = e, v
    return BruteForceResult(best, float(best_v), len(ids))
