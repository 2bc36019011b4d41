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


# the most elements an exhaustive scan visits: the oracle's and the gap scans'
SCAN_CAP = 4096


class FiniteLattice:
    """A finite lattice on ids 0..n-1, held as four arrays that every
    subclass sets: the order ``_leq`` (``_leq[i, j]`` is i <= j), the
    ``_join_table`` and ``_meet_table`` of element ids, and ``heights``.

    The scalar queries and the generic operations (admissibility, closure,
    descents, incrementality, modularity and distributivity)
    read those arrays, the join-irreducibles and the step table derived
    from them.
    """

    n: int
    bottom: int
    top: int
    _leq: np.ndarray
    _join_table: np.ndarray
    _meet_table: np.ndarray
    heights: np.ndarray

    def leq(self, i: int, j: int) -> bool:
        return bool(self._leq[i, j])

    def join(self, i: int, j: int) -> int:
        return int(self._join_table[i, j])

    def height(self, i: int) -> int:
        return int(self.heights[i])

    def payload(self, i: int):
        """Semantic value behind an element id (mask, subspace, ...)."""
        return i

    def label(self, i: int) -> str:
        return str(self.payload(i))

    def leq_matrix(self) -> np.ndarray:
        out = self._leq.copy()
        out.flags.writeable = False
        return out

    def join_table(self) -> np.ndarray:
        return self._join_table

    def meet_table(self) -> np.ndarray:
        return self._meet_table

    @cached_property
    def _join_irreducibles(self) -> tuple[int, ...]:
        # e is join-reducible exactly when it is the join of two elements
        # other than itself, which then both lie strictly below it; the
        # bottom is the empty join and is excluded
        jt = self._join_table
        ids = np.arange(self.n)
        irr = ids != self.bottom
        irr[jt[(jt != ids[:, None]) & (jt != ids)]] = False
        return tuple(int(e) for e in np.flatnonzero(irr))

    def join_irreducibles(self) -> tuple[int, ...]:
        return self._join_irreducibles

    @cached_property
    def steps(self) -> np.ndarray:
        """steps[i, x]: the join of irreducible i with x when that is an
        admissible step (irreducible i not below x, everything strictly
        below it below x), else -1."""
        leq, jt = self._leq, self._join_table
        out = np.full((len(self._join_irreducibles), self.n), -1, dtype=np.int64)
        for i, a in enumerate(self._join_irreducibles):
            below = leq[:, a] & (np.arange(self.n) != a)
            ok = ~leq[a] & leq[below].all(axis=0)
            out[i, ok] = jt[a, ok]
        return out

    def admissibles(self, x: int) -> tuple[int, ...]:
        irr = self._join_irreducibles
        return tuple(irr[i] for i in np.flatnonzero(self.steps[:, x] >= 0))

    def closure_of(self, a: int, x: int) -> tuple[int, ...]:
        """Admissible elements producing the same join with x as a does."""
        irr = self._join_irreducibles
        if a not in irr:
            raise ValueError(f"element {a} is not join-irreducible")
        target = self.steps[irr.index(a), x]
        if target < 0:
            raise ValueError(f"element {a} is not admissible to {x}")
        return tuple(irr[i] for i in np.flatnonzero(self.steps[:, x] == target))

    def descents(self, a: int, b: int) -> list[int]:
        """The one-step descents of b inside [a, b], in increasing id order:
        the elements of [a, b] at height h(b) - 1, or, where the interval is
        ungraded and holds none, the highest elements of [a, b)."""
        between = self._leq[a] & self._leq[:, b]
        between[b] = False
        h = self.heights
        downs = between & (h == h[b] - 1)
        if not downs.any() and between.any():
            downs = between & (h == h[between].max())
        return [int(e) for e in np.flatnonzero(downs)]

    def incrementality(self) -> int:
        """Largest height jump a single admissible step can cause."""
        h, s = self.heights, self.steps
        jumps = (h[s] - h)[s >= 0]
        return max(1, int(jumps.max())) if jumps.size else 1

    def is_modular(self) -> bool:
        """Height is a modular valuation: h(x)+h(y) = h(x∨y)+h(x∧y) on all pairs."""
        h = self.heights
        jt, mt = self.join_table(), self.meet_table()
        lhs = h[:, None] + h[None, :]
        return bool((lhs == h[jt] + h[mt]).all())

    def is_distributive(self) -> bool:
        """Birkhoff's test: a finite lattice is distributive exactly when
        every join-irreducible j is join-prime, that is j <= x∨y only if
        j <= x or j <= y (Davey and Priestley, Introduction to Lattices
        and Order)."""
        jt = self._join_table
        for j in self._join_irreducibles:
            up = self._leq[j]
            if (up[jt] & ~up[:, None] & ~up).any():
                return False
        return True


def check_scan_cap(lat, what: str) -> None:
    """Refuse a lattice that ``what``, an exhaustive scan, cannot visit:
    one that is not finite, or one above ``SCAN_CAP`` elements. Called
    before any table is built."""
    if not isinstance(lat, FiniteLattice):
        raise TypeError(f"{what} runs on finite lattices")
    if lat.n > SCAN_CAP:
        raise SizeLimitError(f"{lat.n} elements exceed the scan cap {SCAN_CAP} of {what}")


class SetLattice(FiniteLattice):
    """Subset lattice of {0,...,n_items-1}; element ids are bitmasks.

    Scalar queries are bit operations, and each array is derived from the
    ids the first time it is read, so a solver that asks only scalar
    queries builds no whole-lattice table."""

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

    def height(self, i):
        return int(i).bit_count()

    def label(self, i):
        return "{" + ",".join(str(k) for k in range(self.n_items) if i >> k & 1) + "}"

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
    def _meet_table(self):
        ids = np.arange(self.n)
        return ids[:, None] & ids

    @cached_property
    def heights(self):
        # popcounts: those of 2^(k+1) ids are those of 2^k, then the same
        # plus one for item k (np.bitwise_count needs numpy 2)
        h = np.zeros(1, dtype=np.int64)
        for _ in range(self.n_items):
            h = np.concatenate([h, h + 1])
        return h

    @cached_property
    def _join_irreducibles(self):
        return tuple(1 << k for k in range(self.n_items))

    def admissibles(self, x):
        return tuple(1 << k for k in range(self.n_items) if not x >> k & 1)

    def descents(self, a, b):
        # b less one item of b - a; the highest item first gives the
        # smallest id, so the ids come out increasing
        if a & ~b:
            return []
        return [b ^ (1 << k) for k in reversed(range(self.n_items)) if (b & ~a) >> k & 1]

    @cached_property
    def steps(self):
        ids = np.arange(self.n)
        bits = 1 << np.arange(self.n_items)[:, None]
        return np.where(ids & bits, -1, ids | bits)


class ExplicitLattice(FiniteLattice):
    """Lattice given by an explicit order matrix; joins and meets are read
    off one linear extension, raising NotALatticeError where none is least."""

    def __init__(self, leq: np.ndarray, labels: list[str] | None = None):
        # a copy: the caller's matrix must not change the order under the tables
        leq = np.array(leq, dtype=bool)
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
        if labels is not None and not (isinstance(labels, (list, tuple)) and len(labels) == n
                                       and all(isinstance(s, str) for s in labels)):
            raise ValueError(f"labels must be a list of {n} strings")
        self.n = n
        self._leq = leq
        self._labels = labels
        bottoms = np.flatnonzero(leq.all(axis=1))
        tops = np.flatnonzero(leq.all(axis=0))
        if bottoms.size != 1 or tops.size != 1:
            raise NotALatticeError("lattice needs a unique bottom and top")
        self.bottom = int(bottoms[0])
        self.top = int(tops[0])
        # longest chain from the bottom, by increasing number of elements below
        self.heights = np.zeros(n, dtype=np.int64)
        strict = leq & ~np.eye(n, dtype=bool)
        for e in np.argsort(leq.sum(axis=0), kind="stable"):
            below = np.flatnonzero(strict[:, e])
            self.heights[e] = 1 + self.heights[below].max() if below.size else 0
        # increasing height, ids breaking ties, is a linear extension; by
        # decreasing height it is one of the dual order, whose joins are meets
        self._join_table = self._bound_table(leq, np.argsort(self.heights, kind="stable"),
                                             "upper")
        self._meet_table = self._bound_table(leq.T.copy(),
                                             np.argsort(-self.heights, kind="stable"), "lower")

    @staticmethod
    def _bound_table(leq, order, kind) -> np.ndarray:
        """Least upper bounds under ``leq``, one row at a time: in the linear
        extension ``order`` the least upper bound of i and j is their first
        common upper bound, when that lies below all the others."""
        n = len(leq)
        t = np.empty((n, n), dtype=np.int64)
        for i in range(n):
            ups = leq[i] & leq  # ups[j, k]: k is above both i and j
            first = order[ups[:, order].argmax(axis=1)]
            bad = (ups & ~leq[first]).any(axis=1)
            if bad.any():
                # the first failing pair: any j < i failed in row j already
                raise NotALatticeError(f"no unique least {kind} bound for ({i},{bad.argmax()})")
            t[i] = first
        return t

    @classmethod
    def from_cover_edges(cls, n: int, edges: list[tuple[int, int]],
                         labels: list[str] | None = None) -> "ExplicitLattice":
        # the order matrix and the bound tables are n x n, and no exhaustive
        # scan takes a lattice above the cap
        if n > SCAN_CAP:
            raise SizeLimitError(f"an explicit lattice of {n} elements exceeds the "
                                 f"scan cap {SCAN_CAP}")
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

    def label(self, i):
        return self._labels[i] if self._labels else str(i)
