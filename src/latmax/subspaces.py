"""Subspaces of R^d as orthonormal bases, with lattice operations.

Join appends columns with twice-iterated Gram-Schmidt; meet solves the
stacked nullspace system [P_X - I; P_Y - I] v = 0 by SVD. Tolerances:
RANK_TOL for keep/drop decisions relative to the largest singular value,
ORTH_TOL for orthonormality and containment residues, EQ_TOL for
projector equality. All objects are immutable value types.

The input checks that every reader shares live here too: the data CSV
loader, and the JSON integer and number tests of the JSON readers.
"""

from __future__ import annotations

import warnings
from itertools import chain

import numpy as np

RANK_TOL = 1e-9
ORTH_TOL = 1e-8
EQ_TOL = 1e-8


class Subspace:
    """Linear subspace of R^d held as a d x r orthonormal basis."""

    __slots__ = ("basis",)

    def __init__(self, basis: np.ndarray):
        basis = np.array(basis, dtype=float)
        if basis.ndim != 2:
            raise ValueError("basis must be a 2-d array of column vectors")
        d, r = basis.shape
        if r > d:
            raise ValueError(f"more basis vectors ({r}) than ambient dimensions ({d})")
        if r and np.abs(basis.T @ basis - np.eye(r)).max() > ORTH_TOL:
            raise ValueError("basis columns are not orthonormal")
        basis.flags.writeable = False
        object.__setattr__(self, "basis", basis)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.T

    @classmethod
    def bottom(cls, d: int) -> "Subspace":
        return cls(np.zeros((d, 0)))

    @classmethod
    def top(cls, d: int) -> "Subspace":
        return cls(np.eye(d))

    @classmethod
    def from_spanning(cls, columns: np.ndarray) -> "Subspace":
        """Orthonormalize arbitrary spanning columns, dropping rank deficiency."""
        columns = np.asarray(columns, dtype=float)
        if columns.ndim == 1:
            columns = columns[:, None]
        if columns.shape[1] == 0:
            return cls.bottom(columns.shape[0])
        u, s, _ = np.linalg.svd(columns, full_matrices=False)
        rank = int(np.sum(s > RANK_TOL * (s[0] if s.size else 1.0)))
        return cls(u[:, :rank])

    def to_json_dict(self) -> dict:
        return {"ambient_dim": self.ambient_dim, "basis": self.basis.T.tolist()}

    def __repr__(self):
        return f"Subspace(d={self.ambient_dim}, dim={self.dim})"


class Direction:
    """Unit vector in R^d, the atomic step of the subspace lattice."""

    __slots__ = ("vector",)

    def __init__(self, vector: np.ndarray):
        v = np.array(vector, dtype=float).ravel()
        nrm = float(np.linalg.norm(v))
        if nrm <= 1e-12:
            raise ValueError("direction must be a nonzero vector")
        v = v / nrm
        v.flags.writeable = False
        object.__setattr__(self, "vector", v)

    def __setattr__(self, name, value):
        raise AttributeError("Direction is immutable")

    @property
    def ambient_dim(self) -> int:
        return self.vector.shape[0]

    def __repr__(self):
        return f"Direction({np.array2string(self.vector, precision=4)})"


def _append_orthonormal(basis: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Twice-iterated Gram-Schmidt append; drops columns below RANK_TOL."""
    b = basis
    for v in columns.T:
        w = v - b @ (b.T @ v)
        w = w - b @ (b.T @ w)
        nrm = float(np.linalg.norm(w))
        if nrm > RANK_TOL * max(1.0, float(np.linalg.norm(v))):
            b = np.hstack([b, (w / nrm)[:, None]])
    return b


def vjoin(x: Subspace, other: "Subspace | Direction") -> Subspace:
    """Least upper bound: the span of x together with other."""
    cols = other.basis if isinstance(other, Subspace) else other.vector[:, None]
    if cols.shape[0] != x.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return Subspace(_append_orthonormal(x.basis, cols))


def vmeet(x: Subspace, y: Subspace) -> Subspace:
    """Greatest lower bound: intersection via the stacked nullspace system."""
    if x.ambient_dim != y.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    d = x.ambient_dim
    eye = np.eye(d)
    stacked = np.vstack([x.projector() - eye, y.projector() - eye])
    _, s, vt = np.linalg.svd(stacked, full_matrices=True)
    null_mask = np.concatenate([s, np.zeros(d - s.size)]) <= ORTH_TOL
    basis = vt[null_mask].T
    return Subspace(basis)


def codim1_descend(b: Subspace, w: Direction) -> Subspace:
    """Remove the line of w from b, keeping the orthogonal remainder in b."""
    coords = b.basis.T @ w.vector
    resid = w.vector - b.basis @ coords
    if float(np.linalg.norm(resid)) > ORTH_TOL:
        raise ValueError("direction is not inside the subspace")
    u, _, _ = np.linalg.svd(coords[:, None], full_matrices=True)
    return Subspace(b.basis @ u[:, 1:])


class VectorLattice:
    """The full subspace lattice of R^d (modular, 1-incremental)."""

    def __init__(self, d: int):
        if d < 1:
            raise ValueError("ambient dimension must be positive")
        self.d = d

    @property
    def ambient_dim(self) -> int:
        return self.d

    def bottom(self) -> Subspace:
        return Subspace.bottom(self.d)

    def top(self) -> Subspace:
        return Subspace.top(self.d)

    def incrementality(self) -> int:
        # joining one line raises dimension by at most one
        return 1


def load_vectors_csv(path) -> np.ndarray:
    """Read one vector per row from a comma-separated file with at least
    one row."""
    try:
        with warnings.catch_warnings():
            # numpy warns about a file without rows; it is refused below
            warnings.simplefilter("ignore", UserWarning)
            rows = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    except ValueError as exc:
        raise ValueError(f"data file {path}: {exc}") from None
    if rows.shape[0] == 0:
        raise ValueError(f"data file {path} holds no rows")
    return rows


def json_integer(value, key):
    """``value`` if it is a JSON integer; ``int`` would truncate 2.5 and take
    true. Any other value is refused with ``key``, the name it was read under."""
    if type(value) is not int:
        raise TypeError(f"{key!r}: expected an integer, got {value!r}")
    return value


def json_numbers(value, key, depth=0):
    """``value`` if it is a JSON number (``depth`` 0), a list of numbers (1) or
    a list of equally long lists of numbers (2); ``float`` would take "0.5"
    and true. Any other value is refused with ``key``."""
    def numbers(items):
        return all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in items)
    if depth == 0:
        ok = numbers([value])
    elif depth == 1:
        ok = isinstance(value, list) and numbers(value)
    else:
        ok = (isinstance(value, list) and all(isinstance(row, list) for row in value)
              and len(set(map(len, value))) <= 1 and numbers(chain.from_iterable(value)))
    if not ok:
        shape = ("a number", "a list of numbers", "a list of equally long lists of numbers")
        raise TypeError(f"{key!r}: expected {shape[depth]}"
                        + (f", got {value!r}" if depth == 0 else ""))
    return value
