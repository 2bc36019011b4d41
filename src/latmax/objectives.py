"""Monotone objectives on subspace and subset lattices, and modular costs.

Objectives evaluate lattice elements through their payloads: subspace
payloads go through per-datum projection energies, subset payloads (bit
masks) through membership. Concave reshaping functions are piecewise
linear, and their knots are checked at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from latmax.lattice import SCAN_CAP, FiniteLattice, SetLattice
from latmax.subspaces import Subspace, json_integer, json_numbers


class ConcaveRho:
    """Monotone concave reshaping of a scalar energy, vanishing at zero:
    the piecewise-linear function through the knots (ts, ys), extended
    past the last knot with the last slope. Starting at (0, 0),
    nondecreasing and concave are checked exactly on the knot slopes."""

    def __init__(self, ts, ys):
        ts, ys = (np.asarray(a, dtype=float) for a in (ts, ys))
        if not (ts.ndim == 1 and ts.shape == ys.shape and ts.size >= 2
                and np.isfinite(ts).all() and np.isfinite(ys).all()):
            raise ValueError("knots need two equally long lists of at least two finite numbers")
        if ts[0] != 0.0 or ys[0] != 0.0:
            raise ValueError("knots must start at (0, 0)")
        if np.diff(ts).min() <= 0:
            raise ValueError("knot positions must increase")
        slopes = np.diff(ys) / np.diff(ts)
        if slopes.min() < 0:
            raise ValueError("reshaping function must be nondecreasing")
        if (np.diff(slopes) > 0).any():
            raise ValueError("reshaping function must be concave")
        self.knots = (ts, ys)
        self._slopes = slopes

    def apply(self, t):
        t = np.asarray(t, dtype=float)
        ts, ys = self.knots
        out = np.interp(t, ts, ys)
        beyond = t > ts[-1]
        if beyond.any():
            out = np.where(beyond, ys[-1] + self._slopes[-1] * (t - ts[-1]), out)
        return out

    def dprime0(self) -> float:
        """Right slope at zero."""
        return float(self._slopes[0])

    @classmethod
    def identity(cls):
        return cls([0.0, 1.0], [0.0, 1.0])

    @classmethod
    def capped(cls, threshold, slope=0.1):
        """Identity up to the threshold, then a gentler slope."""
        if not (0 < threshold < np.inf and 0 <= slope <= 1):
            raise ValueError("need a finite threshold > 0 and slope in [0, 1]")
        return cls([0.0, threshold, 2 * threshold],
                   [0.0, threshold, threshold + slope * threshold])


def rho_from_json_dict(doc) -> "ConcaveRho | SaturatingFamily":
    if isinstance(doc, str):
        doc = {"kind": doc}
    kind = doc["kind"]
    if kind == "identity":
        return ConcaveRho.identity()
    slope = json_numbers(doc.get("slope", 0.1), "slope")
    if kind == "capped":
        return ConcaveRho.capped(json_numbers(doc["threshold"], "threshold"), slope)
    if kind == "knots":
        return ConcaveRho(json_numbers(doc["t"], "t", 1), json_numbers(doc["y"], "y", 1))
    if kind == "saturating_family":
        return SaturatingFamily(json_numbers(doc["thresholds"], "thresholds", 1), slope)
    raise ValueError(f"unknown reshaping kind {kind!r}")


@dataclass(frozen=True)
class SaturatingFamily:
    """Per-datum reshaping: identity below a datum-specific threshold,
    then a shared gentler slope. Applies rowwise to energy matrices."""

    thresholds: np.ndarray  # (n_data,)
    slope: float = 0.1

    def __post_init__(self):
        th = np.asarray(self.thresholds, dtype=float)
        # NaN fails every comparison, so test for what is allowed
        if not (th.ndim == 1 and th.size and ((0.0 <= th) & (th < np.inf)).all()):
            raise ValueError("thresholds must be a nonempty vector of finite, "
                             "nonnegative numbers")
        if not 0 <= self.slope <= 1:
            raise ValueError("slope must lie in [0, 1]")
        object.__setattr__(self, "thresholds", th)

    def apply_rows(self, energies):
        e = np.asarray(energies, dtype=float)
        th = self.thresholds if e.ndim == 1 else self.thresholds[:, None]
        return np.minimum(e, self.slope * e + (1.0 - self.slope) * th)

    def dprime0(self) -> float:
        return self.slope if (self.thresholds == 0).all() else 1.0


def fractional_energy_family(data, fraction=0.01, slope=0.1) -> SaturatingFamily:
    """Thresholds set to a fraction of each datum's squared norm."""
    norms = (np.asarray(data, dtype=float) ** 2).sum(axis=1)
    # a product past the float range is an infinite threshold, which the
    # family refuses with its own message
    with np.errstate(over="ignore"):
        return SaturatingFamily(fraction * norms, slope)


class _EnergyObjective:
    """An objective whose value on a subspace is a function of the
    projection energies of its feature rows (value_from_energies)."""

    feature_rows: np.ndarray  # (n_rows, d)

    @property
    def ambient_dim(self):
        return self.feature_rows.shape[1]

    def energies(self, sub: Subspace):
        return ((self.feature_rows @ sub.basis) ** 2).sum(axis=1)

    def value_of_subspace(self, sub: Subspace) -> float:
        return float(self.value_from_energies(self.energies(sub)))


class PCAObjective(_EnergyObjective):
    """Total captured energy: sum of squared projections of the data rows."""

    def __init__(self, data):
        self.data = self.feature_rows = np.asarray(data, dtype=float)
        if self.data.ndim != 2 or not np.isfinite(self.data).all():
            raise ValueError("data must be a finite (n_rows, d) array")
        self.total_energy = float((self.data ** 2).sum())

    @cached_property
    def scatter(self):
        """d x d scatter matrix of the rows: the captured energy of a unit
        vector u is u^T scatter u."""
        return self.data.T @ self.data

    def value_from_energies(self, energies):
        return np.asarray(energies, dtype=float).sum(axis=0)

    def value_from_scratch_energies(self, energies):
        """Same result as value_from_energies; may overwrite the buffer."""
        return self.value_from_energies(energies)

    def value(self, lat: FiniteLattice, e) -> float:
        payload = lat.payload(e)
        if not isinstance(payload, Subspace):
            raise TypeError("objective needs subspace payloads")
        return self.value_of_subspace(payload)

    def energy_bound(self):
        """Upper bound on the value of a subspace capturing q energy in
        total, as a vectorized function of q: q itself."""
        return lambda q: q


class GeneralizedPCAObjective(PCAObjective):
    """Captured energy reshaped per datum by a concave function."""

    def __init__(self, data, rho):
        super().__init__(data)
        self.rho = rho
        if isinstance(rho, SaturatingFamily):
            if len(rho.thresholds) != self.data.shape[0]:
                raise ValueError("one threshold per data row required")
        elif not isinstance(rho, ConcaveRho):
            raise ValueError("rho must be a ConcaveRho or a SaturatingFamily")

    def value_from_energies(self, energies):
        e = np.asarray(energies, dtype=float)
        if isinstance(self.rho, SaturatingFamily):
            return self.rho.apply_rows(e).sum(axis=0)
        return self.rho.apply(e).sum(axis=0)

    def value_from_scratch_energies(self, energies):
        # min(e, se + (1-s)t) = se + (1-s)min(e, t) for e, t >= 0, so the
        # column sum folds into two reductions over a reusable buffer
        fam = self.rho
        if isinstance(fam, SaturatingFamily) and getattr(energies, "ndim", 1) == 2:
            total = energies.sum(axis=0)
            np.minimum(energies, fam.thresholds[:, None], out=energies)
            return fam.slope * total + (1.0 - fam.slope) * energies.sum(axis=0)
        return self.value_from_energies(energies)

    def energy_bound(self):
        """s*q + (1-s)*min(q, sum(t)) for a saturating family with slope s
        and thresholds t; n*rho(q/n) on n rows for one concave rho (Jensen)."""
        rho = self.rho
        if isinstance(rho, SaturatingFamily):
            # finite thresholds can sum past the float range: then min(q, inf) = q
            with np.errstate(over="ignore"):
                s, total = rho.slope, float(rho.thresholds.sum())
            return lambda q: s * q + (1.0 - s) * np.minimum(q, total)
        n = self.data.shape[0]
        return lambda q: n * rho.apply(q / n)


@dataclass(frozen=True)
class WeightedDigraph:
    """Directed graph with vector-valued vertices and weighted edges."""

    vertices: np.ndarray  # (n, d) one vector per vertex
    edges: tuple          # ((i, j, weight), ...)

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[0] == 0 or not np.isfinite(v).all():
            raise ValueError("vertices must be a nonempty, finite (n, d) array")
        es = []
        for i, j, c in self.edges:
            i, j, c = int(i), int(j), float(c)
            if not (0 <= i < v.shape[0] and 0 <= j < v.shape[0]):
                raise ValueError(f"edge ({i},{j}) references a missing vertex")
            if not np.isfinite(c):
                raise ValueError(f"edge ({i},{j}) has a non-finite weight")
            es.append((i, j, c))
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "edges", tuple(es))

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @classmethod
    def from_json_dict(cls, doc) -> "WeightedDigraph":
        vertices = json_numbers(doc["vertices"], "vertices", 2)
        edges = json_numbers(doc["edges"], "edges", 2)
        if edges and len(edges[0]) != 3:
            raise TypeError("'edges': expected [source, target, weight] triples")
        return cls(np.asarray(vertices, dtype=float),
                   tuple((json_integer(i, "edges"), json_integer(j, "edges"), w)
                         for i, j, w in edges))


class QuantumCutObjective(_EnergyObjective):
    """Weighted sum over edges of source energy inside the subspace times
    target energy in its orthogonal complement. With axis-vector vertices
    and subset payloads this is the classical directed cut value."""

    def __init__(self, graph: WeightedDigraph):
        self.graph = graph
        self.feature_rows = graph.vertices
        self.vertex_norms = (graph.vertices ** 2).sum(axis=1)
        self._src = np.array([e[0] for e in graph.edges], dtype=int)
        self._dst = np.array([e[1] for e in graph.edges], dtype=int)
        self._w = np.array([e[2] for e in graph.edges], dtype=float)

    def value_from_energies(self, energies):
        p = np.asarray(energies, dtype=float)
        q = (self.vertex_norms[:, None] if p.ndim > 1 else self.vertex_norms) - p
        src = p[self._src]
        dst = np.maximum(q[self._dst], 0.0)
        if p.ndim > 1:
            return (self._w[:, None] * src * dst).sum(axis=0)
        return (self._w * src * dst).sum(axis=0)

    def value_from_scratch_energies(self, energies):
        return self.value_from_energies(energies)

    def energy_bound(self):
        """None: no bound on the cut from the captured energy alone."""
        return None

    def value(self, lat: FiniteLattice, e) -> float:
        payload = lat.payload(e)
        if isinstance(payload, Subspace):
            return self.value_of_subspace(payload)
        # a vertex set captures its members' whole energy and no other
        bits = int(payload) >> np.arange(self.graph.n_vertices) & 1
        return float(self.value_from_energies(self.vertex_norms * bits))


class TableObjective:
    """Objective given directly by a value per lattice element."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        if not np.isfinite(self.values).all():
            raise ValueError("table values must be finite")

    def value(self, lat: FiniteLattice, e) -> float:
        return float(self.values[e])


class ModularCost:
    """Cost that adds a fixed increment per join-irreducible step.

    An element's cost is the base plus the increments along a canonical
    chain from the bottom, which always takes the lowest-indexed admissible
    irreducible below the element. For genuinely modular assignments the
    chain does not matter.
    """

    def __init__(self, lat: FiniteLattice, increments, base=0.0):
        self.lat = lat
        self.base = float(base)
        self.increments = {int(a): float(c) for a, c in increments.items()}
        irr = lat.join_irreducibles()
        unknown = sorted(set(self.increments) - set(irr))
        if unknown:
            raise ValueError(f"increment keys {unknown} are not join-irreducible "
                             f"elements among the ids 0..{lat.n - 1}")
        missing = set(irr) - set(self.increments)
        if missing:
            raise ValueError(f"missing increments for irreducibles {sorted(missing)}")
        if not np.isfinite(self.base):
            raise ValueError(f"base must be finite, got {self.base}")
        # NaN fails every comparison, so test for what is allowed
        if not all(0.0 <= c < np.inf for c in self.increments.values()):
            raise ValueError("increments must be finite and nonnegative")

    @classmethod
    def uniform(cls, lat, step=1.0, base=0.0) -> "ModularCost":
        """Height cost when every irreducible step costs the same."""
        return cls(lat, {a: step for a in lat.join_irreducibles()}, base)

    @cached_property
    def costs(self) -> np.ndarray:
        """Read-only cost of every element, from one pass that adds each
        element's increments in the order of its canonical chain."""
        lat = self.lat
        irr = lat.join_irreducibles()
        inc = np.array([self.increments[a] for a in irr])
        costs = np.full(lat.n, self.base)
        if isinstance(lat, SetLattice):
            # the chain adds a mask's bits in increasing order; bit k is
            # set in the upper half of every block of 2^(k+1) ids
            for k, c in enumerate(inc):
                costs.reshape(-1, 2, 1 << k)[:, 1] += c
        else:
            # every element's chain advances at once, by the first
            # admissible irreducible below it
            below = lat.leq_matrix()[list(irr)]
            x = np.full(lat.n, lat.bottom)
            live = np.flatnonzero(x != np.arange(lat.n))
            while live.size:
                at = x[live]
                i = ((lat.steps[:, at] >= 0) & below[:, live]).argmax(axis=0)
                costs[live] += inc[i]
                x[live] = lat.steps[i, at]
                live = live[x[live] != live]
        costs.flags.writeable = False
        return costs

    def of(self, e) -> float:
        lat = self.lat
        if isinstance(lat, SetLattice) and lat.n > SCAN_CAP:
            # above the cap, no whole-lattice vector: the bits as in `costs`
            total = self.base
            for k in range(lat.n_items):
                if e >> k & 1:
                    total += self.increments[1 << k]
            return total
        return float(self.costs[e])

    def is_modular(self) -> bool:
        """Exhaustive pairwise check of the valuation identity."""
        vals = self.costs
        jt, mt = self.lat.join_table(), self.lat.meet_table()
        lhs = vals[:, None] + vals[None, :]
        rhs = vals[jt] + vals[mt]
        return bool(np.abs(lhs - rhs).max() <= 1e-9)


def check_order_consistency(lat: FiniteLattice, increments):
    """Comparable irreducibles must have nondecreasing step costs.

    Returns (True, None) or (False, (smaller, larger)) as a witness.
    """
    irr = lat.join_irreducibles()
    for a in irr:
        for b in irr:
            if a != b and lat.leq(a, b) and increments[a] > increments[b] + 1e-12:
                return False, (a, b)
    return True, None
