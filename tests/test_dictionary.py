import numpy as np
import pytest
import scipy.linalg

from latmax.dictionary import (
    Dictionary,
    coherence_vectors,
    enumerate_lattice,
    lattice_coherence_report,
)
from latmax.subspaces import EQ_TOL, Subspace

from conftest import random_orthonormal
from reference import covers
from test_lattice import order_scan_glb, order_scan_lub


def tilted_pair(eps):
    """Three unit vectors in the plane: two axes plus a slight tilt of the first."""
    return Dictionary(np.array([
        [1.0, 0.0],
        [1.0, eps] / np.sqrt(1 + eps**2),
        [0.0, 1.0],
    ]))


def skew_quad():
    """Four vectors in R^3 whose span lattice is not modular."""
    r = 1 / np.sqrt(2)
    return Dictionary(np.array([
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [r, 0.0, r],
        [0.0, r, r],
    ]))


def subset_span_count(dictionary):
    """Oracle: span every subset directly via SVD, dedup by pairwise projector."""
    v = dictionary.vectors
    projs = []
    for mask in range(1 << dictionary.n_atoms):
        rows = v[[k for k in range(dictionary.n_atoms) if mask >> k & 1]]
        if len(rows) == 0:
            b = np.zeros((dictionary.ambient_dim, 0))
        else:
            b = scipy.linalg.orth(rows.T, rcond=1e-9)
        projs.append(b @ b.T)
    kept = []
    for p in projs:
        if not any(np.abs(p - q).max() <= EQ_TOL for q in kept):
            kept.append(p)
    return len(kept)


def assert_meet_is_glb(lat):
    """Every meet-table entry is the greatest common lower bound."""
    glb = [[order_scan_glb(lat, i, j) for j in range(lat.n)] for i in range(lat.n)]
    assert np.array_equal(lat.meet_table(), glb)


def random_dictionary(rng, n_atoms, d):
    v = rng.normal(size=(n_atoms, d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return Dictionary(v)


class TestEnumeration:
    def test_two_axes_make_a_square(self):
        lat = enumerate_lattice(Dictionary(np.eye(2)))
        assert lat.n == 4
        assert lat.height(lat.top) == 2
        assert_meet_is_glb(lat)
        assert lat.is_modular()
        assert lat.is_distributive()

    def test_tilted_pair_has_five_elements(self):
        lat = enumerate_lattice(tilted_pair(0.1))
        assert lat.n == 5
        lines = [e for e in range(lat.n) if lat.height(e) == 1]
        assert len(lines) == 3
        for a in lines:
            for b in lines:
                if a != b:
                    assert lat.join(a, b) == lat.top
                    assert lat.meet(a, b) == lat.bottom
        assert lat.is_modular()
        assert not lat.is_distributive()

    def test_full_orthonormal_basis_gives_boolean_lattice(self, rng):
        q = random_orthonormal(rng, 4, 4)
        lat = enumerate_lattice(Dictionary(q.T))
        assert lat.n == 16
        assert lat.is_modular()
        assert lat.is_distributive()

    def test_element_count_matches_subset_span_oracle(self, rng):
        for _ in range(5):
            dic = random_dictionary(rng, 4, 3)
            lat = enumerate_lattice(dic)
            assert lat.n == subset_span_count(dic)

    def test_join_is_span_of_union(self, rng):
        dic = random_dictionary(rng, 5, 3)
        lat = enumerate_lattice(dic)
        for i in range(lat.n):
            for j in range(lat.n):
                direct = Subspace.from_spanning(np.hstack([
                    lat.payload(i).basis, lat.payload(j).basis,
                ]))
                got = lat.payload(lat.join(i, j))
                assert got.dim == direct.dim
                assert np.abs(got.projector() - direct.projector()).max() < 1e-9

    def test_tables_match_order_scan(self, rng):
        for dic in (tilted_pair(0.3), skew_quad(), random_dictionary(rng, 4, 3)):
            lat = enumerate_lattice(dic)
            for i in range(lat.n):
                for j in range(lat.n):
                    assert lat.join(i, j) == order_scan_lub(lat, i, j)
                    assert lat.meet(i, j) == order_scan_glb(lat, i, j)

    def test_skew_quad_is_a_nonmodular_lattice_with_unit_steps(self):
        lat = enumerate_lattice(skew_quad())
        assert_meet_is_glb(lat)
        assert not lat.is_modular()
        assert lat.incrementality() == 1

    def test_heights_are_dimensions(self, rng):
        lat = enumerate_lattice(random_dictionary(rng, 5, 3))
        for e in range(lat.n):
            assert lat.height(e) == lat.payload(e).dim

    def test_join_irreducibles_are_the_atom_lines(self, rng):
        lat = enumerate_lattice(random_dictionary(rng, 5, 4))
        atom_lines = {int(lat._elem_of_mask[1 << i]) for i in range(5)}
        assert set(lat.join_irreducibles()) == atom_lines
        for e in lat.join_irreducibles():
            assert lat.height(e) == 1

    def test_random_enumerations_are_lattices(self, rng):
        for _ in range(10):
            n_atoms = int(rng.integers(2, 7))
            d = int(rng.integers(2, 5))
            lat = enumerate_lattice(random_dictionary(rng, n_atoms, d))
            assert_meet_is_glb(lat)

    def test_labels_and_json_dump(self):
        lat = enumerate_lattice(Dictionary(np.eye(2)))
        assert lat.label(lat.bottom) == "span{}"
        assert lat.label(lat.top) == "span{0,1}"
        assert lat.n == 4 and len(covers(lat)) == 4
        assert lat.is_modular()
        doc = lat.dictionary.to_json_dict()
        assert doc["kind"] == "dictionary"
        again = Dictionary.from_json_dict(doc)
        assert np.array_equal(again.vectors, lat.dictionary.vectors)

    def test_enumeration_cap(self):
        v = np.eye(13)
        with pytest.raises(Exception):
            enumerate_lattice(Dictionary(v))

    def test_rejects_duplicate_lines(self):
        with pytest.raises(ValueError):
            Dictionary(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        with pytest.raises(ValueError):
            Dictionary(np.array([[1.0, 0.0], [0.0, 2.0]]))


def grid_alignment(x, y, steps=6000):
    """Oracle: scan unit vectors of each subspace on an angle grid."""
    if x.dim == 0 or y.dim == 0:
        return 0.0

    def unit_grid(s):
        if s.dim == 1:
            return s.basis.T
        assert s.dim == 2
        t = np.linspace(0.0, np.pi, steps, endpoint=False)
        return (s.basis @ np.stack([np.cos(t), np.sin(t)])).T
    gx, gy = unit_grid(x), unit_grid(y)
    return float(np.abs(gx @ gy.T).max())


class TestCoherence:
    def test_orthonormal_vectors_have_zero_coherence(self):
        dic = Dictionary(np.eye(3))
        assert coherence_vectors(dic) == 0.0
        assert lattice_coherence_report(enumerate_lattice(dic)).value == 0.0

    def test_tilted_pair_values(self):
        eps = 0.01
        dic = tilted_pair(eps)
        assert abs(coherence_vectors(dic) - 1 / np.sqrt(1 + eps**2)) < 1e-12
        lat = enumerate_lattice(dic)
        assert abs(lattice_coherence_report(lat).value - eps / np.sqrt(1 + eps**2)) < 1e-12

    def test_report_details_on_tilted_pair(self):
        lat = enumerate_lattice(tilted_pair(0.2))
        rep = lattice_coherence_report(lat)
        assert rep.no_complement == ()
        assert rep.per_element[lat.bottom] == 0.0
        assert rep.best_complement[lat.bottom] == lat.top
        assert set(rep.per_element) == set(range(lat.n))

    def test_lattice_coherence_matches_grid_scan(self, rng):
        for _ in range(3):
            dic = random_dictionary(rng, 3, 3)
            lat = enumerate_lattice(dic)
            rep = lattice_coherence_report(lat)
            for x in range(lat.n):
                vals = []
                for y in range(lat.n):
                    if lat.join(x, y) == lat.top and lat.meet(x, y) == lat.bottom:
                        vals.append(grid_alignment(lat.payload(x), lat.payload(y)))
                assert abs(rep.per_element[x] - min(vals)) < 1e-3
            assert abs(rep.value - max(
                min(grid_alignment(lat.payload(x), lat.payload(y))
                    for y in range(lat.n)
                    if lat.join(x, y) == lat.top and lat.meet(x, y) == lat.bottom)
                for x in range(lat.n))) < 1e-3

    def test_near_orthonormal_quadruple_obeys_relative_bound(self, rng):
        for _ in range(20):
            v = np.eye(4) + 0.02 * rng.normal(size=(4, 4))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            dic = Dictionary(v)
            eps = coherence_vectors(dic)
            assert eps <= 0.1
            d = dic.ambient_dim
            assert lattice_coherence_report(enumerate_lattice(dic)).value <= d * eps / (1 - d * eps) + 1e-12

    def test_single_vector_coherence_rejected(self):
        with pytest.raises(ValueError):
            coherence_vectors(Dictionary(np.array([[1.0, 0.0]])))
