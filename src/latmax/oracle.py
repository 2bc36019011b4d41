"""Exhaustive reference maximization for small finite lattices."""

from __future__ import annotations

from dataclasses import dataclass

from latmax.lattice import SCAN_CAP, FiniteLattice, SizeLimitError


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
    """Scan every element; ties go to the lowest element id.

    Feasibility can be cut by a height cap, a cost budget, or both.
    """
    if lat.n > SCAN_CAP:
        raise SizeLimitError(f"{lat.n} elements exceed the scan cap {SCAN_CAP}")
    if (cost is None) != (budget is None):
        raise ValueError("cost and budget go together")
    best, best_v, feasible = None, None, 0
    for e in range(lat.n):
        if height_cap is not None and lat.height(e) > height_cap:
            continue
        if cost is not None and cost.of(e) > budget + 1e-12:
            continue
        feasible += 1
        v = obj.value(lat, e)
        if best_v is None or v > best_v:
            best, best_v = e, v
    if best is None:
        raise ValueError("no feasible element")
    return BruteForceResult(best, float(best_v), feasible)
