import re

import numpy as np
import pytest

from latmax.dictionary import Dictionary, enumerate_lattice
from latmax.lattice import SetLattice
from latmax.objectives import (
    ConcaveRho,
    GeneralizedPCAObjective,
    ModularCost,
    PCAObjective,
    QuantumCutObjective,
    SaturatingFamily,
    WeightedDigraph,
    check_order_consistency,
    fractional_energy_family,
    rho_from_json_dict,
)
from latmax.subspaces import Subspace

from conftest import classical_graph, make_chain, make_n5, random_orthonormal
from test_dictionary import tilted_pair


class TestConcaveRho:
    def test_identity_and_capped_values(self):
        ident = ConcaveRho.identity()
        assert ident.apply(np.array([0.0, 2.5, 7.0])).tolist() == [0.0, 2.5, 7.0]
        capped = ConcaveRho.capped(1.0, slope=0.1)
        got = capped.apply(np.array([0.5, 1.0, 4.0]))
        assert np.allclose(got, [0.5, 1.0, 1.3], atol=1e-12)

    def test_dprime0(self):
        assert ConcaveRho.identity().dprime0() == 1.0
        assert ConcaveRho.capped(0.5, slope=0.2).dprime0() == 1.0
        assert ConcaveRho([0.0, 2.0, 3.0], [0.0, 1.0, 1.5]).dprime0() == 0.5

    def test_rejects_non_concave_and_non_monotone(self):
        for ts, ys, words in [
            ([0.0, 1.0, 2.0], [0.0, 1.0, 3.0], "concave"),
            # concave on [0, 10], convex past it
            ([0.0, 1.0, 20.0, 21.0], [0.0, 1.0, 1.5, 10.0], "concave"),
            ([0.0, 1.0], [0.0, -1.0], "nondecreasing"),
            ([0.0, 1.0], [1.0, 2.0], "(0, 0)"),
            ([0.0, 1.0, 1.0], [0.0, 1.0, 1.0], "increase"),
            ([0.0], [0.0], "at least two"),
            ([0.0, 1.0, 2.0], [0.0, 1.0], "equally long"),
            ([0.0, 1.0], [0.0, float("nan")], "finite"),
        ]:
            with pytest.raises(ValueError, match=re.escape(words)):
                ConcaveRho(ts, ys)

    @pytest.mark.parametrize("doc", [
        "identity", {"kind": "identity"},
        {"kind": "capped", "threshold": 0.5}, {"kind": "capped", "threshold": 1e-3, "slope": 0.0},
        {"kind": "capped", "threshold": 7.0, "slope": 1.0},
        {"kind": "knots", "t": [0.0, 1.0, 3.0], "y": [0.0, 1.0, 1.0]},
        {"kind": "saturating_family", "thresholds": [0.0, 0.5, 2.0]},
        {"kind": "saturating_family", "thresholds": [1.0], "slope": 1.0},
    ])
    def test_accepts_the_concave_families(self, doc):
        rho = rho_from_json_dict(doc)
        t = np.linspace(0.0, 30.0, 301)
        rows = (rho.apply(t)[None] if isinstance(rho, ConcaveRho)
                else rho.apply_rows(np.tile(t, (rho.thresholds.size, 1))))
        assert (rows[:, 0] == 0.0).all()
        assert (np.diff(rows) >= -1e-12).all() and (np.diff(rows, 2) <= 1e-12).all()

    def test_json_roundtrip(self):
        capped = ConcaveRho.capped(2.0, slope=0.3)
        knots = rho_from_json_dict({"kind": "knots", "t": [0, 2, 4], "y": [0.0, 2.0, 2.6]})
        again = rho_from_json_dict({"kind": "capped", "threshold": 2, "slope": 0.3})
        t = np.linspace(0, 10, 50)
        assert np.array_equal(capped.apply(t), again.apply(t))
        assert np.allclose(capped.apply(t), knots.apply(t))
        assert rho_from_json_dict("identity").apply(np.array([3.0]))[0] == 3.0

    def test_saturating_family_rows(self):
        fam = SaturatingFamily(np.array([1.0, 2.0]), slope=0.1)
        got = fam.apply_rows(np.array([[0.5], [3.0]]))
        assert np.allclose(got, [[0.5], [2.1]], atol=1e-12)
        assert fam.dprime0() == 1.0
        assert SaturatingFamily(np.zeros(2), slope=0.1).dprime0() == 0.1
        # each row is the capped form at its own threshold
        t = np.array([0.5, 2.0, 3.0])
        assert np.allclose(fam.apply_rows(np.tile(t, (2, 1)))[1],
                           ConcaveRho.capped(2.0, 0.1).apply(t), atol=1e-12)

    @pytest.mark.parametrize("thresholds", [[], [1.0, np.nan], [np.inf], [-1.0], [[1.0]]])
    def test_saturating_family_refuses_thresholds(self, thresholds):
        with pytest.raises(ValueError, match="nonempty vector of finite, nonnegative"):
            SaturatingFamily(thresholds)

    def test_saturating_family_json_roundtrip(self):
        again = rho_from_json_dict({"kind": "saturating_family",
                                    "thresholds": [0.5, 1, 4.0], "slope": 0.25})
        assert isinstance(again, SaturatingFamily)
        assert np.array_equal(again.thresholds, [0.5, 1.0, 4.0])
        assert again.slope == 0.25
        default = rho_from_json_dict({"kind": "saturating_family", "thresholds": [1.0]})
        assert default.slope == SaturatingFamily(np.ones(1)).slope

    def test_fractional_family_thresholds(self):
        data = np.array([[2.0, 0.0], [0.0, 1.0]])
        fam = fractional_energy_family(data, fraction=0.01, slope=0.1)
        assert np.allclose(fam.thresholds, [0.04, 0.01])


def scatter_trace_oracle(data, sub):
    """Independent route: trace of the projector against the scatter matrix."""
    s = data.T @ data
    return float(np.trace(sub.projector() @ s))


class TestPCA:
    def test_energy_values_on_axes(self):
        obj = PCAObjective(np.array([[1.0, 2.0], [3.0, 4.0]]))
        e1 = Subspace(np.array([[1.0], [0.0]]))
        assert np.allclose(obj.energies(e1), [1.0, 9.0])
        assert obj.value_of_subspace(e1) == 10.0
        assert obj.value_of_subspace(Subspace.top(2)) == 30.0
        assert obj.value_of_subspace(Subspace.bottom(2)) == 0.0
        assert obj.total_energy == 30.0

    def test_matches_scatter_trace_oracle(self, rng):
        data = rng.normal(size=(20, 5))
        obj = PCAObjective(data)
        for r in range(6):
            sub = Subspace(random_orthonormal(rng, 5, r))
            assert abs(obj.value_of_subspace(sub) - scatter_trace_oracle(data, sub)) < 1e-9

    def test_monotone_along_containment(self, rng):
        data = rng.normal(size=(15, 4))
        obj = PCAObjective(data)
        b = random_orthonormal(rng, 4, 3)
        small, big = Subspace(b[:, :1]), Subspace(b)
        assert obj.value_of_subspace(small) <= obj.value_of_subspace(big) + 1e-12

    def test_lattice_evaluation_and_marginal(self):
        lat = enumerate_lattice(Dictionary(np.eye(2)))
        obj = PCAObjective(np.array([[1.0, 2.0], [3.0, 4.0]]))
        vals = {lat.height(e): obj.value(lat, e) for e in range(lat.n)
                if lat.height(e) != 1}
        assert vals == {0: 0.0, 2: 30.0}
        atom_lines = (int(lat._elem_of_mask[1 << i]) for i in range(2))
        e2 = next(e for e in atom_lines if abs(lat.payload(e).basis[1, 0]) > 0.9)
        assert e2 in lat.admissibles(lat.bottom) and e2 not in lat.admissibles(lat.top)
        gain = obj.value(lat, lat.join(e2, lat.bottom)) - obj.value(lat, lat.bottom)
        assert abs(gain - 20.0) < 1e-12


class TestGeneralizedPCA:
    def test_identity_reduces_to_plain(self, rng):
        data = rng.normal(size=(10, 3))
        plain = PCAObjective(data)
        gen = GeneralizedPCAObjective(data, ConcaveRho.identity())
        for r in range(4):
            sub = Subspace(random_orthonormal(rng, 3, r))
            assert abs(gen.value_of_subspace(sub) - plain.value_of_subspace(sub)) < 1e-12

    def test_capped_never_exceeds_plain(self, rng):
        data = rng.normal(size=(10, 3))
        plain = PCAObjective(data)
        gen = GeneralizedPCAObjective(data, ConcaveRho.capped(0.2, 0.1))
        for r in range(4):
            sub = Subspace(random_orthonormal(rng, 3, r))
            assert gen.value_of_subspace(sub) <= plain.value_of_subspace(sub) + 1e-12

    def test_per_datum_family_value(self):
        data = np.array([[2.0, 0.0], [0.0, 1.0]])
        fam = SaturatingFamily(np.array([1.0, 2.0]), slope=0.1)
        gen = GeneralizedPCAObjective(data, fam)
        e1 = Subspace(np.array([[1.0], [0.0]]))
        # energies (4, 0); row 0 saturates: 0.1*4 + 0.9*1 = 1.3
        assert abs(gen.value_of_subspace(e1) - 1.3) < 1e-12
        with pytest.raises(ValueError):
            GeneralizedPCAObjective(data, SaturatingFamily(np.ones(3)))


def complement_projector_oracle(obj, sub):
    """Independent route through explicit complement projectors."""
    p = sub.projector()
    pc = np.eye(sub.ambient_dim) - p
    total = 0.0
    for i, j, c in obj.graph.edges:
        vi, vj = obj.graph.vertices[i], obj.graph.vertices[j]
        total += c * (vi @ p @ vi) * (vj @ pc @ vj)
    return total


class TestQuantumCut:
    def graph3(self):
        return WeightedDigraph(np.eye(3), ((0, 1, 2.0), (1, 2, 1.0), (2, 0, 0.5)))

    def test_classical_reduction_on_masks(self):
        obj = QuantumCutObjective(self.graph3())
        assert obj.value_of_mask(0b001) == 2.0
        assert obj.value_of_mask(0b011) == 1.0
        assert obj.value_of_mask(0b000) == 0.0
        assert obj.value_of_mask(0b111) == 0.0

    def test_axis_subspaces_agree_with_masks(self):
        obj = QuantumCutObjective(self.graph3())
        span01 = Subspace(np.eye(3)[:, :2])
        assert abs(obj.value_of_subspace(span01) - obj.value_of_mask(0b011)) < 1e-12
        lat = SetLattice(3)
        assert obj.value(lat, 0b001) == 2.0

    def test_matches_complement_projector_oracle(self, rng):
        verts = rng.normal(size=(4, 3))
        edges = tuple((i, j, float(rng.random())) for i in range(4) for j in range(4) if i != j)
        obj = QuantumCutObjective(WeightedDigraph(verts, edges))
        for r in range(4):
            sub = Subspace(random_orthonormal(rng, 3, r))
            assert abs(obj.value_of_subspace(sub) - complement_projector_oracle(obj, sub)) < 1e-10

    def test_not_monotone(self):
        obj = QuantumCutObjective(self.graph3())
        assert obj.value_of_mask(0b001) > obj.value_of_mask(0b111)

    def test_graph_json_and_validation(self):
        g = self.graph3()
        again = WeightedDigraph.from_json_dict({
            "vertices": [[1, 0, 0], [0, 1.0, 0], [0, 0, 1]],
            "edges": [[0, 1, 2], [1, 2, 1.0], [2, 0, 0.5]]})
        assert again.edges == g.edges
        assert np.array_equal(again.vertices, g.vertices)
        with pytest.raises(ValueError):
            WeightedDigraph(np.eye(2), ((0, 5, 1.0),))

    def test_complete_classical_builder(self):
        g = WeightedDigraph.from_json_dict({"vertices": [[1, 0], [0, 1]],
                                            "edges": [[0, 1, 3.0], [1, 0, 1.0]]})
        assert g.edges == classical_graph([[0.0, 3.0], [1.0, 0.0]]).edges
        obj = QuantumCutObjective(g)
        assert obj.value_of_mask(0b01) == 3.0
        assert obj.value_of_mask(0b10) == 1.0


class TestModularCost:
    def test_set_lattice_is_item_weight_sum(self):
        lat = SetLattice(3)
        cost = ModularCost(lat, {1: 1.0, 2: 2.0, 4: 3.0}, base=0.5)
        for mask in range(8):
            direct = 0.5 + sum(w for bit, w in ((1, 1.0), (2, 2.0), (4, 3.0))
                               if mask & bit)
            assert cost.of(mask) == direct
        assert cost.is_modular()

    def test_uniform_cost_is_height(self):
        lat = enumerate_lattice(tilted_pair(0.2))
        cost = ModularCost.uniform(lat)
        for e in range(lat.n):
            assert cost.of(e) == lat.height(e)
        assert cost.is_modular()

    def test_unequal_increments_on_joined_lines_break_modularity(self):
        lat = enumerate_lattice(tilted_pair(0.2))
        irr = lat.join_irreducibles()
        cost = ModularCost(lat, {a: float(k + 1) for k, a in enumerate(irr)})
        assert not cost.is_modular()

    def test_missing_or_negative_increments_rejected(self):
        lat = SetLattice(2)
        with pytest.raises(ValueError):
            ModularCost(lat, {1: 1.0})
        with pytest.raises(ValueError):
            ModularCost(lat, {1: 1.0, 2: -0.5})

    @pytest.mark.parametrize("lat, key", [(SetLattice(2), 3), (SetLattice(2), 99),
                                          (make_n5(), 0), (make_n5(), -1)])
    def test_increment_for_no_irreducible_rejected(self, lat, key):
        incs = {a: 1.0 for a in lat.join_irreducibles()}
        with pytest.raises(ValueError, match=re.escape(f"increment keys [{key}] are not "
                                                       f"join-irreducible elements among "
                                                       f"the ids 0..{lat.n - 1}")):
            ModularCost(lat, {**incs, key: 1.0})

    @pytest.mark.parametrize("increment, base, words", [
        (float("nan"), 0.0, "increments must be finite"),
        (float("inf"), 0.0, "increments must be finite"),
        (1.0, float("nan"), "base must be finite"),
        (1.0, float("-inf"), "base must be finite"),
    ])
    def test_non_finite_increment_or_base_rejected(self, increment, base, words):
        with pytest.raises(ValueError, match=words):
            ModularCost(SetLattice(2), {1: 1.0, 2: increment}, base=base)

    def test_lattice_without_irreducibles_takes_no_increments(self):
        assert ModularCost(SetLattice(0), {}, base=0.5).of(0) == 0.5

    def test_order_consistency_vacuous_on_antichains(self):
        lat = SetLattice(3)
        ok, witness = check_order_consistency(lat, {1: 5.0, 2: 1.0, 4: 0.5})
        assert ok and witness is None

    def test_order_consistency_violated_on_chain(self):
        lat = make_chain(3)
        ok, witness = check_order_consistency(lat, {1: 3.0, 2: 2.0, 3: 1.0})
        assert not ok
        assert witness == (1, 2)
        ok2, _ = check_order_consistency(lat, {1: 1.0, 2: 2.0, 3: 2.0})
        assert ok2
