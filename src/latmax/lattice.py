"""Finite lattices: order queries, join/meet, heights, admissible steps.

Elements are integer ids, stable for the lifetime of the lattice object.
Three concrete families live here or in sibling modules: bitmask subset
lattices (`SetLattice`), explicit cover-relation lattices
(`ExplicitLattice`), and enumerated span lattices (`dictionary.py`).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np


class NotALatticeError(ValueError):
    """Raised when a poset lacks a unique join or meet for some pair."""


class SizeLimitError(ValueError):
    """Raised when an exhaustive scan would exceed the configured cap."""


class FiniteLattice:
    """Base class: subclasses provide n, leq, join, meet, height, bottom, top.

    Generic operations (admissibility, closure, incrementality, Hasse
    edges, modularity and distributivity scans) are implemented here on
    top of those primitives, the cached order matrix and the step table.
    """

    n: int
    bottom: int
    top: int

    def leq(self, i: int, j: int) -> bool:
        raise NotImplementedError

    def join(self, i: int, j: int) -> int:
        raise NotImplementedError

    def meet(self, i: int, j: int) -> int:
        raise NotImplementedError

    def height(self, i: int) -> int:
        raise NotImplementedError

    def payload(self, i: int):
        """Semantic value behind an element id (mask, subspace, ...)."""
        return i

    def label(self, i: int) -> str:
        return str(self.payload(i))

    @cached_property
    def _leq(self) -> np.ndarray:
        # in a lattice i <= j exactly when i join j is j
        return self.join_table() == np.arange(self.n)

    def leq_matrix(self) -> np.ndarray:
        out = self._leq.copy()
        out.flags.writeable = False
        return out

    @cached_property
    def _join_table(self) -> np.ndarray:
        t = np.empty((self.n, self.n), dtype=np.int64)
        for i in range(self.n):
            for j in range(i, self.n):
                t[i, j] = t[j, i] = self.join(i, j)
        return t

    def join_table(self) -> np.ndarray:
        return self._join_table

    @cached_property
    def _meet_table(self) -> np.ndarray:
        t = np.empty((self.n, self.n), dtype=np.int64)
        for i in range(self.n):
            for j in range(i, self.n):
                t[i, j] = t[j, i] = self.meet(i, j)
        return t

    def meet_table(self) -> np.ndarray:
        return self._meet_table

    @cached_property
    def heights(self) -> np.ndarray:
        return np.array([self.height(i) for i in range(self.n)])

    @cached_property
    def _join_irreducibles(self) -> tuple[int, ...]:
        # By definition: no pair of strictly smaller elements joins to e.
        # The bottom is the empty join and is excluded.
        out = []
        leq = self._leq
        jt = self.join_table()
        for e in range(self.n):
            if e == self.bottom:
                continue
            below = np.flatnonzero(leq[:, e] & (np.arange(self.n) != e))
            if below.size and (jt[np.ix_(below, below)] == e).any():
                continue
            out.append(e)
        return tuple(out)

    def join_irreducibles(self) -> tuple[int, ...]:
        return self._join_irreducibles

    @cached_property
    def steps(self) -> np.ndarray:
        """steps[i, x]: the join of irreducible i with x when that is an
        admissible step (irreducible i not below x, everything strictly
        below it below x), else -1."""
        leq, jt = self._leq, self.join_table()
        out = np.full((len(self._join_irreducibles), self.n), -1, dtype=np.int64)
        for i, a in enumerate(self._join_irreducibles):
            below = leq[:, a] & (np.arange(self.n) != a)
            ok = ~leq[a] & leq[below].all(axis=0)
            out[i, ok] = jt[a, ok]
        return out

    def _step(self, a: int, x: int) -> int:
        if not self.is_join_irreducible(a):
            raise ValueError(f"element {a} is not join-irreducible")
        return int(self.steps[self._join_irreducibles.index(a), x])

    def is_join_irreducible(self, a: int) -> bool:
        return a in self._join_irreducibles

    def is_admissible(self, a: int, x: int) -> bool:
        """True when a is a legal unit step from x: a is join-irreducible,
        a is not below x, and every element strictly below a is below x."""
        return self._step(a, x) >= 0

    def admissibles(self, x: int) -> tuple[int, ...]:
        irr = self._join_irreducibles
        return tuple(irr[i] for i in np.flatnonzero(self.steps[:, x] >= 0))

    def closure_of(self, a: int, x: int) -> tuple[int, ...]:
        """Admissible elements producing the same join with x as a does."""
        target = self._step(a, x)
        if target < 0:
            raise ValueError(f"element {a} is not admissible to {x}")
        irr = self._join_irreducibles
        return tuple(irr[i] for i in np.flatnonzero(self.steps[:, x] == target))

    def incrementality(self) -> int:
        """Largest height jump a single admissible step can cause."""
        h, s = self.heights, self.steps
        jumps = (h[s] - h)[s >= 0]
        return max(1, int(jumps.max())) if jumps.size else 1

    def hasse_edges(self) -> list[tuple[int, int]]:
        strict = self._leq & ~np.eye(self.n, dtype=bool)
        # (i,j) is a cover iff i < j with nothing strictly between
        covers = strict & ~(strict @ strict)
        return [(int(i), int(j)) for i, j in zip(*np.nonzero(covers))]

    def is_modular(self) -> bool:
        """Height is a modular valuation: h(x)+h(y) = h(x∨y)+h(x∧y) on all pairs."""
        h = self.heights
        jt, mt = self.join_table(), self.meet_table()
        lhs = h[:, None] + h[None, :]
        return bool((lhs == h[jt] + h[mt]).all())

    def is_distributive(self, cap: int = 1024) -> bool:
        if self.n > cap:
            raise SizeLimitError(f"distributivity scan over {self.n}^3 triples exceeds cap")
        jt, mt = self.join_table(), self.meet_table()
        for z in range(self.n):
            jz = jt[:, z]
            # (x∧y)∨z vs (x∨z)∧(y∨z) for all x, y at this z
            lhs = jt[mt, z]
            rhs = mt[np.ix_(jz, jz)]
            if not (lhs == rhs).all():
                return False
        return True


class SetLattice(FiniteLattice):
    """Subset lattice of {0,...,n_items-1}; element ids are bitmasks."""

    def __init__(self, n_items: int):
        if n_items < 0:
            raise ValueError("n_items must be nonnegative")
        if n_items > 20:
            raise SizeLimitError("set lattice above 2^20 elements is not supported")
        self.n_items = n_items
        self.n = 1 << n_items
        self.bottom = 0
        self.top = self.n - 1

    def leq(self, i, j):
        return i | j == j

    def join(self, i, j):
        return i | j

    def meet(self, i, j):
        return i & j

    def height(self, i):
        return int(i).bit_count()

    def label(self, i):
        return "{" + ",".join(str(k) for k in range(self.n_items) if i >> k & 1) + "}"

    @cached_property
    def _join_irreducibles(self):
        return tuple(1 << k for k in range(self.n_items))

    def is_join_irreducible(self, a):
        return int(a).bit_count() == 1

    def is_admissible(self, a, x):
        if not self.is_join_irreducible(a):
            raise ValueError(f"element {a} is not join-irreducible")
        return a & x == 0

    def admissibles(self, x):
        return tuple(1 << k for k in range(self.n_items) if not x >> k & 1)

    def incrementality(self):
        return 1

    @cached_property
    def _leq(self):
        # the narrowest unsigned ids keep the n x n temporary small
        ids = np.arange(self.n, dtype=np.min_scalar_type(self.top))
        return (ids[:, None] | ids) == ids

    @cached_property
    def _join_table(self):
        ids = np.arange(self.n)
        return ids[:, None] | ids

    @cached_property
    def steps(self):
        ids = np.arange(self.n)
        bits = 1 << np.arange(self.n_items)[:, None]
        return np.where(ids & bits, -1, ids | bits)

    def to_json_dict(self) -> dict:
        return {"kind": "set", "atoms": list(range(self.n_items)), "tolerance": 0.0}


class ExplicitLattice(FiniteLattice):
    """Lattice given by an explicit order matrix; joins and meets are
    computed by uniqueness scans, raising NotALatticeError otherwise."""

    def __init__(self, leq: np.ndarray, labels: list[str] | None = None):
        leq = np.asarray(leq, dtype=bool)
        n = leq.shape[0]
        if leq.shape != (n, n):
            raise ValueError("order matrix must be square")
        if not leq.diagonal().all():
            raise ValueError("order must be reflexive")
        if (leq & leq.T & ~np.eye(n, dtype=bool)).any():
            raise ValueError("order must be antisymmetric")
        closure = leq @ leq
        if (closure & ~leq).any():
            raise ValueError("order must be transitive")
        self.n = n
        self._order = leq
        self._labels = labels
        bottoms = np.flatnonzero(leq.all(axis=1))
        tops = np.flatnonzero(leq.all(axis=0))
        if bottoms.size != 1 or tops.size != 1:
            raise NotALatticeError("lattice needs a unique bottom and top")
        self.bottom = int(bottoms[0])
        self.top = int(tops[0])
        self._jt = self._bound_table(upper=True)
        self._mt = self._bound_table(upper=False)

    def _bound_table(self, upper: bool) -> np.ndarray:
        leq = self._order
        n = self.n
        t = np.empty((n, n), dtype=np.int64)
        for i in range(n):
            for j in range(i, n):
                if upper:
                    cand = np.flatnonzero(leq[i] & leq[j])
                    best = cand[np.argmin(self.heights[cand])] if i != j else i
                    ok = leq[best, cand].all()
                else:
                    cand = np.flatnonzero(leq[:, i] & leq[:, j])
                    best = cand[np.argmax(self.heights[cand])] if i != j else i
                    ok = leq[cand, best].all()
                if not cand.size or not ok:
                    kind = "upper" if upper else "lower"
                    raise NotALatticeError(f"no unique least {kind} bound for ({i},{j})")
                t[i, j] = t[j, i] = best
        return t

    @cached_property
    def heights(self):
        # longest chain from the bottom, by increasing number of elements below
        order = self._order
        h = np.zeros(self.n, dtype=np.int64)
        for i in sorted(range(self.n), key=lambda e: int(order[:, e].sum())):
            below = np.flatnonzero(order[:, i] & (np.arange(self.n) != i))
            h[i] = 1 + h[below].max() if below.size else 0
        return h

    @classmethod
    def from_cover_edges(cls, n: int, edges: list[tuple[int, int]],
                         labels: list[str] | None = None) -> "ExplicitLattice":
        leq = np.eye(n, dtype=bool)
        for lo, hi in edges:
            if not (0 <= lo < n and 0 <= hi < n):
                raise ValueError(f"cover edge [{lo}, {hi}] references a missing element "
                                 f"(ids run from 0 to {n - 1})")
            leq[lo, hi] = True
        # transitive closure
        for _ in range(n):
            new = leq | (leq @ leq)
            if (new == leq).all():
                break
            leq = new
        return cls(leq, labels=labels)

    def leq(self, i, j):
        return bool(self._order[i, j])

    def join(self, i, j):
        return int(self._jt[i, j])

    def meet(self, i, j):
        return int(self._mt[i, j])

    def height(self, i):
        return int(self.heights[i])

    def join_table(self):
        return self._jt

    def meet_table(self):
        return self._mt

    @cached_property
    def _leq(self):
        return self._order

    def label(self, i):
        return self._labels[i] if self._labels else str(i)
