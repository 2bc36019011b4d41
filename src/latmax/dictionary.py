"""Finite span lattices generated by a dictionary of unit vectors.

A span is fixed by the set of atoms it contains, its flat, so the span
lattice is the lattice of flats of the atoms' vector matroid. Spans are
enumerated over atom subsets in increasing bitmask order and keyed by
their flats, held as bitmasks; an atom inside the span is one whose
residual passes the RANK_TOL test `vjoin` uses to drop a column. Each
distinct (element, atom) join is computed once. Order is inclusion of
flats, join is the element of the union of two flats, and meet the
element of their intersection, which is again a flat.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from latmax.lattice import FiniteLattice, SizeLimitError
from latmax.subspaces import (
    ORTH_TOL,
    RANK_TOL,
    Direction,
    Subspace,
    json_numbers,
    vjoin,
)

_ENUMERATION_CAP = 12  # atoms, so at most 2^12 atom subsets


@dataclass(frozen=True)
class Dictionary:
    """A finite set of unit vectors spanning candidate directions."""

    vectors: np.ndarray  # (n_atoms, d), one unit vector per row

    def __post_init__(self):
        v = np.array(self.vectors, dtype=float)
        if v.ndim != 2 or v.shape[0] == 0:
            raise ValueError("dictionary needs a nonempty (n_atoms, d) array")
        if not np.isfinite(v).all():
            raise ValueError("dictionary atoms must be finite")
        nrm = np.linalg.norm(v, axis=1)
        if np.abs(nrm - 1.0).max() > ORTH_TOL:
            raise ValueError("dictionary vectors must be unit norm")
        gram = np.abs(v @ v.T)
        np.fill_diagonal(gram, 0.0)
        if gram.max() >= 1.0 - 1e-10:
            raise ValueError("dictionary vectors must be pairwise distinct as lines")
        v.flags.writeable = False
        object.__setattr__(self, "vectors", v)

    @property
    def n_atoms(self) -> int:
        return self.vectors.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.vectors.shape[1]

    def direction(self, i: int) -> Direction:
        return Direction(self.vectors[i])

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Dictionary":
        return cls(np.asarray(json_numbers(doc["atoms"], "atoms", 2), dtype=float))


class EnumeratedLattice(FiniteLattice):
    """Span lattice of a dictionary: each element is keyed by its flat,
    the bitmask of the atoms its span contains."""

    def __init__(self, dictionary: Dictionary):
        m = dictionary.n_atoms
        if m > _ENUMERATION_CAP:
            raise SizeLimitError(f"{m} atoms exceed the enumeration cap {_ENUMERATION_CAP}")
        self.dictionary = dictionary
        atoms = [dictionary.direction(i) for i in range(m)]
        units = np.array([a.vector for a in atoms]).T  # (d, m)
        bits = 1 << np.arange(m)

        subspaces = [Subspace.bottom(dictionary.ambient_dim)]
        gen_masks = [0]
        flats = [0]
        id_of_flat = {0: 0}
        # the span of an element and an atom is fixed by the pair, so each
        # distinct pair is joined once, at the first mask that reaches it
        joined = {}
        elem_of_mask = np.zeros(1 << m, dtype=np.int64)

        for mask in range(1, 1 << m):
            low = mask & -mask
            prev = int(elem_of_mask[mask ^ low])
            if flats[prev] & low:
                elem_of_mask[mask] = prev
                continue
            found = joined.get((prev, low))
            if found is not None:
                elem_of_mask[mask] = found
                continue
            span = vjoin(subspaces[prev], atoms[low.bit_length() - 1])
            # the atoms inside the span, by vjoin's own residual test
            b = span.basis
            resid = units - b @ (b.T @ units)
            resid -= b @ (b.T @ resid)
            flat = int(bits[np.linalg.norm(resid, axis=0) <= RANK_TOL].sum())
            found = id_of_flat.get(flat)
            if found is None:
                found = id_of_flat[flat] = len(subspaces)
                subspaces.append(span)
                gen_masks.append(mask)
                flats.append(flat)
            elem_of_mask[mask] = joined[prev, low] = found

        self.n = len(subspaces)
        self.subspaces = tuple(subspaces)
        self.gen_masks = tuple(gen_masks)
        self._elem_of_mask = elem_of_mask
        self.bottom = 0
        self.top = int(elem_of_mask[-1])
        self.heights = np.array([s.dim for s in subspaces])

        # flats are closed under intersection, so a meet is the element
        # of the common atoms, as a join is that of all atoms of both
        f = np.array(flats, dtype=np.int64)
        self._leq = (f[:, None] & ~f) == 0
        self._join_table = elem_of_mask[f[:, None] | f]
        self._meet_table = elem_of_mask[f[:, None] & f]

    def payload(self, i) -> Subspace:
        return self.subspaces[i]

    def label(self, i):
        bits = [str(k) for k in range(self.dictionary.n_atoms) if self.gen_masks[i] >> k & 1]
        return "span{" + ",".join(bits) + "}"


def enumerate_lattice(dictionary: Dictionary) -> EnumeratedLattice:
    return EnumeratedLattice(dictionary)


def coherence_vectors(dictionary: Dictionary) -> float:
    """Largest off-diagonal |inner product| between dictionary vectors."""
    if dictionary.n_atoms < 2:
        raise ValueError("coherence needs at least two vectors")
    gram = np.abs(dictionary.vectors @ dictionary.vectors.T)
    np.fill_diagonal(gram, 0.0)
    return float(gram.max())


def _alignment(x: Subspace, y: Subspace) -> float:
    """Worst-case |cosine| between unit vectors of two subspaces."""
    if x.dim == 0 or y.dim == 0:
        return 0.0
    s = np.linalg.svd(x.basis.T @ y.basis, compute_uv=False)
    return float(min(s[0], 1.0))


@dataclass
class CoherenceReport:
    """Best-complement alignment per element, and the lattice-wide worst case."""

    value: float
    per_element: dict[int, float] = field(default_factory=dict)
    best_complement: dict[int, int] = field(default_factory=dict)
    no_complement: tuple[int, ...] = ()


def lattice_coherence_report(lat: EnumeratedLattice) -> CoherenceReport:
    """For every element, find the complement (meet bottom, join top) whose
    alignment is smallest, the first in element order on ties; report the
    max of those minima. Elements with no complement at all make the
    coherence infinite."""
    if lat.height(lat.top) != lat.dictionary.ambient_dim:
        raise ValueError("lattice top must span the ambient space")
    jt, mt = lat.join_table(), lat.meet_table()
    report = CoherenceReport(value=0.0)
    offenders = []
    for x in range(lat.n):
        ys = np.flatnonzero((jt[x] == lat.top) & (mt[x] == lat.bottom))
        if not ys.size:
            offenders.append(x)
            continue
        aligns = [_alignment(lat.subspaces[x], lat.subspaces[y]) for y in ys]
        k = int(np.argmin(aligns))
        report.per_element[x] = aligns[k]
        report.best_complement[x] = int(ys[k])
    report.no_complement = tuple(offenders)
    report.value = float("inf") if offenders else max(report.per_element.values())
    return report
