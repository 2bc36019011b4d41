import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latmax.lattice import ExplicitLattice, NotALatticeError, SetLattice

from conftest import make_chain, make_m3, make_n5
from reference import covers


def order_scan_lub(lat, i, j):
    """Independent least-upper-bound oracle: scan every common upper bound."""
    cand = [k for k in range(lat.n) if lat.leq(i, k) and lat.leq(j, k)]
    least = [m for m in cand if all(lat.leq(m, c) for c in cand)]
    assert len(least) == 1
    return least[0]


def order_scan_glb(lat, i, j):
    cand = [k for k in range(lat.n) if lat.leq(k, i) and lat.leq(k, j)]
    greatest = [m for m in cand if all(lat.leq(c, m) for c in cand)]
    assert len(greatest) == 1
    return greatest[0]


class TestSetLattice:
    def test_join_meet_are_union_intersection(self):
        lat = SetLattice(4)
        assert lat.join(0b0011, 0b0101) == 0b0111
        assert lat.meet_table()[0b0011, 0b0101] == 0b0001
        assert lat.join(0b0011, lat.bottom) == 0b0011
        assert lat.meet_table()[0b0011, lat.top] == 0b0011
        ids = np.arange(1 << 10)
        assert np.array_equal(SetLattice(10).meet_table(), ids[:, None] & ids)

    def test_height_is_cardinality(self):
        lat = SetLattice(5)
        assert lat.height(lat.bottom) == 0
        assert lat.height(0b10110) == 3
        assert lat.height(lat.top) == 5

    def test_tables_match_order_scan(self):
        lat = SetLattice(3)
        for i in range(lat.n):
            for j in range(lat.n):
                assert lat.join_table()[i, j] == order_scan_lub(lat, i, j)
                assert lat.meet_table()[i, j] == order_scan_glb(lat, i, j)

    def test_join_irreducibles_are_singletons(self):
        lat = SetLattice(4)
        assert set(lat.join_irreducibles()) == {1, 2, 4, 8}

    def test_admissible_iff_item_absent(self):
        lat = SetLattice(4)
        x = 0b0101
        assert lat.admissibles(x) == (0b0010, 0b1000)
        # one row per item: x with the item added where it is absent, else -1
        assert lat.steps[:, x].tolist() == [-1, 0b0111, -1, 0b1101]
        with pytest.raises(ValueError, match="not join-irreducible"):
            lat.closure_of(0b0011, x)
        with pytest.raises(ValueError, match="not admissible"):
            lat.closure_of(0b0001, x)

    def test_closure_is_singleton(self):
        lat = SetLattice(4)
        for x in range(lat.n):
            for a in lat.admissibles(x):
                assert lat.closure_of(a, x) == (a,)

    def test_incrementality_is_one(self):
        assert SetLattice(4).incrementality() == 1
        # generic scan agrees with the shortcut
        lat = SetLattice(3)
        generic = max(
            lat.height(lat.join(x, a)) - lat.height(x)
            for x in range(lat.n)
            for a in lat.admissibles(x)
        )
        assert generic == 1

    def test_modular_and_distributive(self):
        lat = SetLattice(3)
        assert lat.is_modular()
        assert lat.is_distributive()

    def test_hasse_edges_of_square(self):
        assert covers(SetLattice(2)) == [(0, 1), (0, 2), (1, 3), (2, 3)]

    @given(st.integers(0, 31), st.integers(0, 31), st.integers(0, 31))
    @settings(max_examples=100, deadline=None)
    def test_lattice_laws(self, x, y, z):
        lat = SetLattice(5)
        meet = lat.meet_table()
        assert lat.join(x, y) == lat.join(y, x)
        assert lat.join(x, lat.join(y, z)) == lat.join(lat.join(x, y), z)
        assert lat.join(x, meet[x, y]) == x
        assert meet[x, lat.join(x, y)] == x
        # distributive law
        assert lat.join(meet[x, y], z) == meet[lat.join(x, z), lat.join(y, z)]

    @given(st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=100, deadline=None)
    def test_modular_height_equality(self, x, y):
        lat = SetLattice(8)
        assert lat.height(x) + lat.height(y) == lat.height(lat.join(x, y)) + lat.height(
            lat.meet_table()[x, y]
        )


class TestExplicitLattice:
    def test_chain_structure(self):
        lat = make_chain(3)
        assert lat.bottom == 0 and lat.top == 3
        assert [lat.height(i) for i in range(4)] == [0, 1, 2, 3]
        # every non-bottom element of a chain is join-irreducible
        assert lat.join_irreducibles() == (1, 2, 3)
        assert lat.admissibles(0) == (1,)
        assert lat.admissibles(1) == (2,)
        assert lat.incrementality() == 1

    def test_m3_joins_meets_and_closure(self, m3):
        l1, l2, l3 = 1, 2, 3
        assert m3.join(l1, l2) == m3.top
        assert m3.meet_table()[l1, l2] == m3.bottom
        # all three lines produce the same join with any other line
        assert m3.closure_of(l2, l1) == (l2, l3)
        assert m3.closure_of(l3, l1) == (l2, l3)
        assert m3.is_modular()
        assert not m3.is_distributive()
        assert m3.incrementality() == 1

    def test_n5_is_two_incremental_and_nonmodular(self, n5):
        a, b, c = 1, 2, 3
        assert not n5.is_modular()
        assert not n5.is_distributive()
        # joining the atom a to x=b jumps height by two
        assert a in n5.admissibles(b)
        assert n5.join(b, a) == n5.top
        assert n5.height(n5.top) - n5.height(b) == 2
        assert n5.incrementality() == 2
        # c has a lower element (a) not below b, so c is not admissible to b
        assert c not in n5.admissibles(b)

    def test_tables_match_order_scan(self, m3, n5):
        for lat in (m3, n5, make_chain(4)):
            for i in range(lat.n):
                for j in range(lat.n):
                    assert lat.join(i, j) == order_scan_lub(lat, i, j)
                    assert lat.meet_table()[i, j] == order_scan_glb(lat, i, j)

    def test_order_is_not_shared_with_the_input(self):
        leq = np.triu(np.ones((3, 3), dtype=bool))
        lat = ExplicitLattice(leq)
        leq[0, 1] = False
        assert lat.leq(0, 1) and lat.join(0, 1) == 1

    def test_rejects_non_lattice_poset(self):
        # two maximal elements: pair {1,2} has no join
        leq = np.eye(4, dtype=bool)
        leq[0, :] = True
        with pytest.raises(NotALatticeError):
            ExplicitLattice(leq)

    def test_rejects_non_unique_upper_bound(self):
        # bottom 0, atoms 1,2, two incomparable common upper bounds 3,4, top 5
        edges = [(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 5), (4, 5)]
        with pytest.raises(NotALatticeError):
            ExplicitLattice.from_cover_edges(6, edges)

    @pytest.mark.parametrize("edge", [(1, 3), (-1, 2)])
    def test_rejects_cover_edges_outside_the_ids(self, edge):
        with pytest.raises(ValueError, match="missing element"):
            ExplicitLattice.from_cover_edges(3, [(0, 1), edge])

    @pytest.mark.parametrize("leq, words", [
        (np.ones((2, 3), dtype=bool), "square"),
        (np.triu(np.ones((3, 3), dtype=bool)) & ~np.eye(3, dtype=bool), "reflexive"),
        # 0 <= 1 <= 2 without 0 <= 2
        (np.eye(3, dtype=bool) | np.eye(3, k=1, dtype=bool), "transitive"),
    ])
    def test_rejects_an_order_matrix_that_is_no_order(self, leq, words):
        with pytest.raises(ValueError, match=words):
            ExplicitLattice(leq)

    def test_hasse_recovers_cover_edges(self, n5):
        assert covers(n5) == [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4)]


def test_join_irreducibles_by_definition_on_m3(m3):
    # independent check: e is join-irreducible iff it has exactly one lower cover
    lower_counts = {e: sum(1 for lo, hi in covers(m3) if hi == e) for e in range(m3.n)}
    expected = tuple(e for e in range(m3.n) if lower_counts[e] == 1)
    assert m3.join_irreducibles() == expected
