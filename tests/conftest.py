import numpy as np
import pytest

from latmax.lattice import ExplicitLattice
from latmax.objectives import WeightedDigraph


# the whole-lattice arrays a SetLattice builds on first read
WHOLE_LATTICE_TABLES = {"steps", "_leq", "_join_table", "_meet_table", "heights"}


def ratio_holds(achieved, optimum, ratio, additive=0.0, slack=1e-9) -> bool:
    """Check achieved >= ratio * optimum - additive, with float slack."""
    return achieved >= ratio * optimum - additive - slack


def make_chain(length):
    """Total order 0 < 1 < ... < length."""
    n = length + 1
    return ExplicitLattice.from_cover_edges(n, [(i, i + 1) for i in range(length)])


def classical_graph(weights):
    """Axis-vector vertices and an edge i -> j for every nonzero off-diagonal
    weights[i, j]: the quantum cut of a vertex set is then its directed cut."""
    w = np.asarray(weights, dtype=float)
    n = w.shape[0]
    edges = [(i, j, w[i, j]) for i in range(n) for j in range(n) if i != j and w[i, j] != 0.0]
    return WeightedDigraph(np.eye(n), tuple(edges))


def make_m3():
    """Diamond with three incomparable height-1 elements: 0 < 1,2,3 < 4."""
    edges = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]
    return ExplicitLattice.from_cover_edges(5, edges, labels=["bot", "l1", "l2", "l3", "top"])


def make_n5():
    """Pentagon: 0 < 1 < 3 < 4 and 0 < 2 < 4, with 1,2 and 3,2 incomparable."""
    edges = [(0, 1), (1, 3), (3, 4), (0, 2), (2, 4)]
    return ExplicitLattice.from_cover_edges(5, edges, labels=["bot", "a", "b", "c", "top"])


@pytest.fixture
def m3():
    return make_m3()


@pytest.fixture
def n5():
    return make_n5()


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(0))


def random_orthonormal(rng, d, r):
    """Haar-ish d x r orthonormal basis."""
    g = rng.standard_normal((d, max(r, 1)))
    q, _ = np.linalg.qr(g)
    return q[:, :r]
