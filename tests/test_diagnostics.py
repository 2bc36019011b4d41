import json

import numpy as np
import pytest

from latmax.diagnostics import (
    check_coherence_bound,
    check_prop1_equivalence,
    check_saturation_gap_bound,
    measure_downward_gap,
    measure_strong_gap,
    measure_upward_gap,
    reevaluate_witness,
    sample_strong_gap_vector,
)
from latmax.dictionary import Dictionary, enumerate_lattice
from latmax.lattice import SetLattice, SizeLimitError
from latmax.objectives import (
    ConcaveRho,
    GeneralizedPCAObjective,
    PCAObjective,
    TableObjective,
)

from conftest import WHOLE_LATTICE_TABLES, make_chain, random_orthonormal
from test_dictionary import skew_quad, tilted_pair


def slow_strong_gap(obj, lat):
    """Reference: four explicit nested loops, no marginal matrix. Returns
    the gap and the number of (X, Y, a, b) configurations visited."""
    worst, visited = 0.0, 0
    for x in range(lat.n):
        for y in range(lat.n):
            if not lat.leq(x, y):
                continue
            for a in lat.admissibles(x):
                for b in lat.admissibles(y):
                    if not lat.leq(a, b):
                        continue
                    visited += 1
                    up_a = obj.value(lat, lat.join(a, x)) - obj.value(lat, x)
                    up_b = obj.value(lat, lat.join(b, y)) - obj.value(lat, y)
                    worst = max(worst, up_b - up_a)
    return worst, visited


def slow_downward_gap(obj, lat):
    """Reference: closures recomputed from their definition in place.
    Returns the gap and the number of (Y, b, X) triples visited."""
    worst, visited = 0.0, 0
    for y in range(lat.n):
        for b in lat.admissibles(y):
            lhs = obj.value(lat, lat.join(b, y)) - obj.value(lat, y)
            closure = [bp for bp in lat.admissibles(y)
                       if lat.join(bp, y) == lat.join(b, y)]
            for x in range(lat.n):
                if not lat.leq(x, y):
                    continue
                visited += 1
                outer = []
                for bp in closure:
                    inner = [obj.value(lat, lat.join(a, x)) - obj.value(lat, x)
                             for a in lat.admissibles(x) if lat.leq(a, bp)]
                    if inner:
                        outer.append(min(inner))
                if outer:
                    worst = max(worst, lhs - max(outer))
    return worst, visited


def slow_upward_gap(obj, lat):
    """Returns the gap and the number of (X, a, Y) triples visited."""
    worst, visited = 0.0, 0
    for x in range(lat.n):
        for a in lat.admissibles(x):
            lhs = obj.value(lat, lat.join(a, x)) - obj.value(lat, x)
            xa = lat.join(a, x)
            for y in range(lat.n):
                if not lat.leq(xa, y):
                    continue
                visited += 1
                outer = []
                for b in lat.join_irreducibles():
                    if not lat.leq(a, b):
                        continue
                    inner = [obj.value(lat, y) - obj.value(lat, y0)
                             for y0 in range(lat.n)
                             if lat.leq(x, y0) and b in lat.admissibles(y0)
                             and lat.join(b, y0) == y]
                    if inner:
                        outer.append(min(inner))
                if outer:
                    worst = max(worst, max(outer) - lhs)
    return worst, visited


def random_table(rng, lat):
    return TableObjective(rng.random(lat.n))


class TestGapScans:
    def test_modular_heights_have_zero_gaps(self, m3):
        for lat in (SetLattice(3), m3):
            obj = TableObjective([lat.height(e) for e in range(lat.n)])
            assert measure_strong_gap(obj, lat).measured_delta == 0.0
            assert measure_downward_gap(obj, lat).measured_delta == 0.0
            assert measure_upward_gap(obj, lat).measured_delta == 0.0

    def test_supermodular_square_has_gap_four(self):
        lat = SetLattice(3)
        obj = TableObjective([bin(m).count("1") ** 2 for m in range(8)])
        for measure in (measure_strong_gap, measure_downward_gap, measure_upward_gap):
            rep = measure(obj, lat)
            assert abs(rep.measured_delta - 4.0) < 1e-12
            assert abs(reevaluate_witness(obj, lat, rep) - rep.witness["violation"]) < 1e-10

    def test_matches_slow_references(self, rng, m3, n5):
        for lat in (SetLattice(3), m3, n5, make_chain(3)):
            for _ in range(5):
                obj = random_table(rng, lat)
                assert abs(measure_strong_gap(obj, lat).measured_delta
                           - slow_strong_gap(obj, lat)[0]) < 1e-12
                assert abs(measure_downward_gap(obj, lat).measured_delta
                           - slow_downward_gap(obj, lat)[0]) < 1e-12
                assert abs(measure_upward_gap(obj, lat).measured_delta
                           - slow_upward_gap(obj, lat)[0]) < 1e-12

    def test_triples_scanned_match_slow_references(self, rng, m3, n5):
        pairs = ((measure_strong_gap, slow_strong_gap),
                 (measure_downward_gap, slow_downward_gap),
                 (measure_upward_gap, slow_upward_gap))
        for lat in (SetLattice(3), m3, n5):
            obj = random_table(rng, lat)
            for measure, slow in pairs:
                rep = measure(obj, lat)
                assert rep.triples_scanned == slow(obj, lat)[1] > 0
                assert rep.triples_scanned >= rep.excluded_triples
                assert rep.to_json_dict()["triples_scanned"] == rep.triples_scanned

    def test_scans_refuse_lattices_above_the_cap(self):
        lat = SetLattice(13)
        obj = TableObjective(np.zeros(lat.n))
        for measure in (measure_strong_gap, measure_downward_gap, measure_upward_gap):
            with pytest.raises(SizeLimitError, match="cap 4096"):
                measure(obj, lat)
        with pytest.raises(SizeLimitError, match="cap 4096"):
            check_prop1_equivalence(lat, 1)
        assert not WHOLE_LATTICE_TABLES & set(lat.__dict__)

    def test_set_upward_scan_builds_no_whole_lattice_table(self, rng):
        lat = SetLattice(12)
        rep = measure_upward_gap(random_table(rng, lat), lat)
        assert rep.triples_scanned == 12 * 3 ** 11
        assert rep.excluded_triples == 0
        assert not WHOLE_LATTICE_TABLES & set(lat.__dict__)

    def test_strong_dominates_directional(self, rng, m3, n5):
        for lat in (SetLattice(4), m3, n5):
            for _ in range(5):
                obj = random_table(rng, lat)
                strong = measure_strong_gap(obj, lat).measured_delta
                down = measure_downward_gap(obj, lat).measured_delta
                up = measure_upward_gap(obj, lat).measured_delta
                assert strong >= max(down, up) - 1e-12

    def test_witness_reevaluates_on_random_instances(self, rng):
        lat = SetLattice(3)
        for _ in range(5):
            obj = random_table(rng, lat)
            for measure in (measure_strong_gap, measure_downward_gap,
                            measure_upward_gap):
                rep = measure(obj, lat)
                if rep.witness is not None:
                    again = reevaluate_witness(obj, lat, rep)
                    assert abs(again - rep.witness["violation"]) < 1e-10
                    assert rep.measured_delta == max(0.0, rep.witness["violation"])

    def test_upward_exclusions_on_ungraded_lattice(self, n5):
        obj = TableObjective([n5.height(e) for e in range(n5.n)])
        rep = measure_upward_gap(obj, n5)
        assert rep.excluded_triples >= 1

    def test_downward_never_excludes(self, rng, m3, n5):
        for lat in (SetLattice(3), m3, n5):
            rep = measure_downward_gap(random_table(rng, lat), lat)
            assert rep.excluded_triples == 0

    def test_report_serializes(self, rng):
        lat = SetLattice(2)
        doc = measure_strong_gap(random_table(rng, lat), lat).to_json_dict()
        json.dumps(doc)
        assert doc["direction"] == "strong" and doc["exhaustive"]


class TestEnergyObjectiveGaps:
    def test_orthonormal_lattice_pca_gaps_vanish(self, rng):
        q = random_orthonormal(rng, 3, 3)
        lat = enumerate_lattice(Dictionary(q.T))
        obj = PCAObjective(rng.normal(size=(12, 3)))
        assert measure_downward_gap(obj, lat).measured_delta <= 1e-10
        assert measure_upward_gap(obj, lat).measured_delta <= 1e-10
        assert measure_strong_gap(obj, lat).measured_delta <= 1e-10

    def test_two_line_config_keeps_large_strong_gap(self):
        for eps in (1e-2, 1e-3):
            dic = Dictionary(np.array([
                [1.0, 0.0],
                [1.0, eps] / np.sqrt(1 + eps**2),
            ]))
            lat = enumerate_lattice(dic)
            obj = PCAObjective(np.array([[0.0, 1.0]]))
            gap = measure_strong_gap(obj, lat).measured_delta
            assert 0.9 <= gap <= 1.0


class TestEquivalence:
    def test_boolean_lattices_pass(self):
        assert check_prop1_equivalence(SetLattice(3), 20)
        assert check_prop1_equivalence(SetLattice(4), 5)
        assert check_prop1_equivalence(SetLattice(10), 3)

    def test_chain_passes(self):
        assert check_prop1_equivalence(make_chain(4), 10)

    def test_non_distributive_rejected(self, m3):
        with pytest.raises(ValueError):
            check_prop1_equivalence(m3, 1)


class TestCoherenceBound:
    def test_near_orthonormal_holds(self, rng):
        v = np.eye(4) + 0.02 * rng.normal(size=(4, 4))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        check = check_coherence_bound(Dictionary(v))
        assert check.applicable and check.holds
        assert check.mu_lattice <= check.bound + 1e-9
        json.dumps(check.to_json_dict())

    def test_high_coherence_not_applicable(self):
        check = check_coherence_bound(tilted_pair(0.1))
        assert not check.applicable
        assert check.bound is None and check.holds is None


class TestSaturationGapBound:
    def test_tilted_lattice_bound_holds(self, rng):
        eps = 0.1
        t = eps / np.sqrt(1 - eps**2)
        lat = enumerate_lattice(tilted_pair(t))
        data = 0.5 * rng.normal(size=(6, 2))
        obj = GeneralizedPCAObjective(data, ConcaveRho.capped(0.05, 0.1))
        check = check_saturation_gap_bound(obj, lat)
        assert abs(check.mu_lattice - eps) < 1e-9
        assert check.holds
        assert check.measured_delta <= check.bound + 1e-9

    def test_nonmodular_lattice_rejected(self, rng):
        lat = enumerate_lattice(skew_quad())
        obj = GeneralizedPCAObjective(rng.normal(size=(3, 3)),
                                      ConcaveRho.capped(0.1))
        with pytest.raises(ValueError):
            check_saturation_gap_bound(obj, lat)


class TestSampledVectorGap:
    def test_two_line_data_shows_positive_lower_bound(self):
        obj = PCAObjective(np.array([[0.0, 1.0]]))
        rep = sample_strong_gap_vector(obj, 2, trials=300, seed=1)
        assert not rep.exhaustive
        assert rep.measured_delta > 0.1
        assert rep.witness is not None

    def test_reports_zero_floor(self, rng):
        # a single direction datum in high dimension rarely violates at random
        obj = PCAObjective(np.zeros((1, 3)))
        rep = sample_strong_gap_vector(obj, 3, trials=50, seed=0)
        assert rep.measured_delta == 0.0
