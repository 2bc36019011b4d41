import json

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from latmax.subspaces import (
    EQ_TOL,
    Direction,
    Subspace,
    VectorLattice,
    codim1_descend,
    vjoin,
    vmeet,
)

from conftest import random_orthonormal
from reference import subspace_leq


def svd_span_oracle(columns):
    """Independent route: orthonormal range via scipy's SVD-based orth."""
    if columns.size == 0:
        return columns.reshape(columns.shape[0], 0)
    return scipy.linalg.orth(columns, rcond=1e-9)


def projector(mat):
    return mat @ mat.T


class TestSubspaceBasics:
    def test_bottom_and_top(self):
        bot, top = Subspace.bottom(4), Subspace.top(4)
        assert bot.dim == 0 and top.dim == 4
        assert np.allclose(bot.projector(), np.zeros((4, 4)))
        assert np.allclose(top.projector(), np.eye(4))

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            Subspace(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_from_spanning_drops_dependent_columns(self):
        cols = np.array([[1.0, 2.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]).T
        sp = Subspace.from_spanning(cols.T)
        assert sp.dim == 2

    def test_direction_normalizes_and_rejects_zero(self):
        d = Direction([3.0, 4.0])
        assert np.allclose(d.vector, [0.6, 0.8])
        with pytest.raises(ValueError):
            Direction([0.0, 0.0])

    def test_json_roundtrip(self, rng):
        # a report's basis: one row per basis vector
        basis = random_orthonormal(rng, 5, 2)
        doc = json.loads(json.dumps(Subspace(basis).to_json_dict()))
        assert doc["ambient_dim"] == 5 and np.array_equal(doc["basis"], basis.T)
        assert Subspace.bottom(3).to_json_dict() == {"ambient_dim": 3, "basis": []}


class TestJoin:
    def test_join_with_new_direction_adds_one_dim(self, rng):
        x = Subspace(random_orthonormal(rng, 6, 2))
        a = Direction(rng.standard_normal(6))
        j = vjoin(x, a)
        assert j.dim == 3
        assert subspace_leq(x, j)
        assert subspace_leq(Subspace.from_spanning(a.vector), j)

    def test_join_with_contained_direction_is_identity(self, rng):
        x = Subspace(random_orthonormal(rng, 5, 3))
        a = Direction(x.basis @ np.array([0.3, -1.2, 0.5]))
        assert np.abs(vjoin(x, a).projector() - x.projector()).max() <= EQ_TOL

    def test_join_matches_svd_stack_oracle(self, rng):
        for _ in range(20):
            x = Subspace(random_orthonormal(rng, 7, 3))
            y = Subspace(random_orthonormal(rng, 7, 2))
            ours = vjoin(x, y)
            oracle = svd_span_oracle(np.hstack([x.basis, y.basis]))
            assert ours.dim == oracle.shape[1]
            assert np.abs(projector(ours.basis) - projector(oracle)).max() < 1e-9

    def test_join_is_least_upper_bound(self, rng):
        x = Subspace(random_orthonormal(rng, 6, 2))
        y = Subspace(random_orthonormal(rng, 6, 2))
        j = vjoin(x, y)
        assert subspace_leq(x, j) and subspace_leq(y, j)
        # any other upper bound contains the join
        up = vjoin(j, Direction(rng.standard_normal(6)))
        assert subspace_leq(j, up)


class TestMeet:
    def test_meet_of_constructed_overlap(self, rng):
        q = random_orthonormal(rng, 8, 6)
        a, b, c = q[:, :2], q[:, 2:4], q[:, 4:6]
        x = Subspace.from_spanning(np.hstack([a, b]))
        y = Subspace.from_spanning(np.hstack([b, c]))
        m = vmeet(x, y)
        assert m.dim == 2
        assert np.abs(projector(m.basis) - projector(b)).max() < 1e-8

    def test_meet_in_general_position_is_bottom(self, rng):
        x = Subspace(random_orthonormal(rng, 7, 2))
        y = Subspace(random_orthonormal(rng, 7, 3))
        assert vmeet(x, y).dim == 0

    def test_modular_height_identity(self, rng):
        # overlapping spans: dim x + dim y = dim join + dim meet
        for _ in range(10):
            q = random_orthonormal(rng, 9, 7)
            x = Subspace.from_spanning(q[:, :4])
            y = Subspace.from_spanning(q[:, 2:7])
            j, m = vjoin(x, y), vmeet(x, y)
            assert x.dim + y.dim == j.dim + m.dim

    def test_meet_against_principal_angle_oracle(self, rng):
        q = random_orthonormal(rng, 6, 4)
        x = Subspace.from_spanning(q[:, :3])
        y = Subspace.from_spanning(q[:, 1:4])
        m = vmeet(x, y)
        # principal angles: number of ~zero angles equals meet dimension
        angles = scipy.linalg.subspace_angles(x.basis, y.basis)
        assert int(np.sum(angles < 1e-8)) == m.dim


class TestComplementAndResidual:
    def test_codim1_descend(self, rng):
        b = Subspace(random_orthonormal(rng, 6, 3))
        w = Direction(b.basis @ np.array([0.5, -0.5, 1.0]))
        down = codim1_descend(b, w)
        assert down.dim == 2
        assert subspace_leq(down, b)
        assert np.abs(down.basis.T @ w.vector).max() < 1e-9
        outside = Direction(rng.standard_normal(6))
        with pytest.raises(ValueError):
            codim1_descend(b, outside)


class TestVectorLattice:
    def test_handles(self):
        vl = VectorLattice(4)
        assert vl.bottom().dim == 0
        assert vl.top().dim == vl.ambient_dim == 4

    def test_modular_law_with_constraint(self, rng):
        # x <= b: x join (a meet b) equals (x join a) meet b
        vl = VectorLattice(7)
        q = random_orthonormal(rng, 7, 5)
        x = Subspace.from_spanning(q[:, :1])
        b = Subspace.from_spanning(q[:, :4])
        a = Subspace(random_orthonormal(rng, 7, 2))
        lhs = vjoin(x, vmeet(a, b))
        rhs = vmeet(vjoin(x, a), b)
        assert np.abs(lhs.projector() - rhs.projector()).max() <= EQ_TOL


@given(st.integers(0, 10_000), st.integers(2, 8), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_join_meet_dimension_bounds(seed, d, r1, r2):
    r1, r2 = min(r1, d), min(r2, d)
    rng = np.random.Generator(np.random.PCG64(seed))
    x = Subspace(random_orthonormal(rng, d, r1))
    y = Subspace(random_orthonormal(rng, d, r2))
    j, m = vjoin(x, y), vmeet(x, y)
    assert max(r1, r2) <= j.dim <= min(d, r1 + r2)
    assert m.dim == r1 + r2 - j.dim
    assert subspace_leq(m, x) and subspace_leq(m, y)
    assert subspace_leq(x, j) and subspace_leq(y, j)
