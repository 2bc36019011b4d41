"""The step table, the table-driven gap scans and the flat enumeration of
span lattices against the loop-based code they replaced (`reference.py`):
identical tables, identical lattice queries, identical span bases, and
byte-identical gap reports, witnesses included. The upward scan's
superset-max transform on subset lattices against the table-driven scan
on the same lattice given explicitly. Every lattice's order,
join, meet and height tables and join-irreducibles against the same built
by definition from its elements, Birkhoff's distributivity test against
the triple scan, and the work counts of enumeration and `diagnose`.
Finite double greedy and its descents against the scan over every
element: byte-identical reports, the same candidates, and the objective
and height calls of one run on a 2^16-element subset lattice. Height and
budgeted greedy against their own best-so-far loops: byte-identical
reports, ties included.
Modular costs against the chain walk, bit for bit, and the exhaustive
oracle against its one-element-at-a-time loop, ties included.
Greedy's bound-pruned direction search against the full sweep that
scoring without each objective's energy bound gives: byte-identical
reports."""

import json
from functools import cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import reference as ref
from latmax import dictionary as dictionary_module
from latmax.cli import main
from latmax.diagnostics import (
    measure_downward_gap,
    measure_strong_gap,
    measure_upward_gap,
)
from latmax.dictionary import Dictionary, enumerate_lattice, lattice_coherence_report
from latmax.lattice import ExplicitLattice, FiniteLattice, NotALatticeError, SetLattice
from latmax.objectives import (
    ConcaveRho,
    GeneralizedPCAObjective,
    ModularCost,
    PCAObjective,
    QuantumCutObjective,
    SaturatingFamily,
    TableObjective,
    fractional_energy_family,
)
from latmax.oracle import brute_force_max
from latmax.solvers import Grid, RandomRestart, double_greedy, greedy_height, greedy_knapsack
from latmax.subspaces import VectorLattice

from conftest import WHOLE_LATTICE_TABLES, classical_graph, make_chain, make_m3, make_n5
from test_dictionary import skew_quad, tilted_pair

SCANS = ((measure_strong_gap, ref.measure_strong_gap),
         (measure_downward_gap, ref.measure_downward_gap),
         (measure_upward_gap, ref.measure_upward_gap))


def closure_system(masks, ground):
    """Lattice of the given subsets of {0..ground-1} closed under
    intersection, with the full set added; ordered by inclusion."""
    family = {(1 << ground) - 1} | set(masks)
    while True:
        more = {a & b for a in family for b in family} - family
        if not more:
            break
        family |= more
    ms = np.array(sorted(family))
    return ExplicitLattice((ms[:, None] & ms[None, :]) == ms[:, None])


def long_pentagon():
    """0 < 1 < 2 < 3 < 6 and 0 < 4 < 5 < 6: [4, 6) holds elements of two
    heights and none at h(6) - 1, so a descent from 6 above 4 falls back
    to the highest of them."""
    return ExplicitLattice.from_cover_edges(
        7, [(0, 1), (1, 2), (2, 3), (3, 6), (0, 4), (4, 5), (5, 6)])


def tilted_plane_dictionary(seed, planes=2):
    """`planes` coordinate planes of R^(2*planes), each holding its two
    axes and the first axis tilted towards the second, under a random
    rotation: a modular span lattice with three-member closures."""
    rng = np.random.default_rng(seed)
    d = 2 * planes
    atoms = []
    for j in range(planes):
        t = rng.uniform(0.02, 0.1)
        u, v = np.eye(d)[2 * j], np.eye(d)[2 * j + 1]
        atoms += [u, (u + t * v) / np.hypot(1.0, t), v]
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return Dictionary(np.array(atoms) @ q.T)


def random_dictionary(seed, n_atoms, d):
    v = np.random.default_rng(seed).normal(size=(n_atoms, d))
    return Dictionary(v / np.linalg.norm(v, axis=1, keepdims=True))


def near_orthonormal_frame(seed):
    v = np.eye(4) + 0.02 * np.random.default_rng(seed).normal(size=(4, 4))
    return Dictionary(v / np.linalg.norm(v, axis=1, keepdims=True))


lattices = st.one_of(
    st.integers(1, 6).map(SetLattice),
    st.sampled_from([make_m3, make_n5, long_pentagon]).map(lambda make: make()),
    st.integers(1, 6).map(make_chain),
    st.integers(2, 4).flatmap(lambda g: st.lists(
        st.integers(0, (1 << g) - 1), max_size=8).map(
            lambda masks: closure_system(masks, g))),
    st.integers(0, 2 ** 16).map(lambda seed: enumerate_lattice(tilted_plane_dictionary(seed))),
)


@st.composite
def cover_edge_posets(draw):
    """(n, cover edges) of M3, N5, a chain, a product of chains, the bowtie,
    or a random poset between a bottom and a top, under a random relabelling:
    lattices, and posets where some pair has no least upper bound."""
    kind = draw(st.sampled_from(["m3", "n5", "chain", "product", "bowtie", "random"]))
    if kind == "m3":
        n, edges = 5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]
    elif kind == "bowtie":
        # 1 and 2 lie below both 3 and 4, which are incomparable
        n, edges = 6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)]
    elif kind == "n5":
        n, edges = 5, [(0, 1), (1, 3), (3, 4), (0, 2), (2, 4)]
    elif kind == "chain":
        n = draw(st.integers(1, 7))
        edges = [(i, i + 1) for i in range(n - 1)]
    elif kind == "product":
        shape = draw(st.lists(st.integers(1, 4), min_size=2, max_size=3))
        ids = np.arange(np.prod(shape)).reshape(shape)
        n = ids.size
        edges = [(int(lo), int(hi)) for axis in range(len(shape))
                 for lo, hi in zip(np.delete(ids, -1, axis).ravel(),
                                   np.delete(ids, 0, axis).ravel())]
    else:
        middle = draw(st.integers(0, 7))
        n = middle + 2
        pairs = [(i, j) for i in range(1, n - 1) for j in range(i + 1, n - 1)]
        edges = ([(0, i) for i in range(1, n - 1)] + [(i, n - 1) for i in range(1, n - 1)]
                 + [p for p in pairs if draw(st.booleans())])
        if not middle:
            edges = [(0, 1)]
    perm = draw(st.permutations(range(n)))
    return n, [(perm[lo], perm[hi]) for lo, hi in edges]


def tables_or_error(build):
    """The join and meet tables that ``build`` returns, or the message of the
    NotALatticeError it raises."""
    try:
        return [t.tolist() for t in build()]
    except NotALatticeError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(cover_edge_posets())
def test_explicit_bound_tables_match_reference(poset):
    n, edges = poset

    def library():
        lat = ExplicitLattice.from_cover_edges(n, edges)
        return lat.join_table(), lat.meet_table()
    assert tables_or_error(library) == tables_or_error(lambda: ref.explicit_bound_tables(n, edges))


def objective(lat, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "ties":
        # few distinct values: many equal violations, so tie-breaking shows
        return TableObjective(rng.integers(0, 3, lat.n).astype(float))
    if kind == "cut" and isinstance(lat, SetLattice):
        # a directed cut is submodular: every gap is rounding noise
        w = rng.uniform(0.0, 2.0, (lat.n_items, lat.n_items))
        w *= rng.random(w.shape) < 0.5
        np.fill_diagonal(w, 0.0)
        return QuantumCutObjective(classical_graph(w))
    if kind == "ulps" and isinstance(lat, SetLattice):
        # ties broken by an ulp or two: two marginals that differ can give
        # equal violations once m_a(X) is subtracted
        v = rng.choice([0.0, 0.3, 1.0, 7.0, 1e3], lat.n)
        for _ in range(3):
            v = np.where(rng.random(lat.n) < 0.5, np.nextafter(v, np.inf), v)
        return TableObjective(v)
    if kind == "cut" and hasattr(lat, "dictionary"):
        data = rng.normal(size=(12, lat.dictionary.ambient_dim))
        return GeneralizedPCAObjective(data, fractional_energy_family(data, 0.3))
    return TableObjective(rng.random(lat.n))


@settings(max_examples=60, deadline=None)
@given(lattices)
def test_step_table_and_queries_match_reference(lat):
    leq = ref.order(lat)
    jt, mt = ref.bound_tables(leq)
    h = ref.heights(leq)
    assert np.array_equal(lat.leq_matrix(), leq)
    assert np.array_equal(lat.join_table(), jt)
    assert np.array_equal(lat.meet_table(), mt)
    assert np.array_equal(lat.heights, h)
    assert lat.join_irreducibles() == ref.join_irreducibles(leq, jt)
    # the scalar queries, bitmask overrides included, agree with the tables
    assert np.array_equal(ref.leq_matrix(lat), leq)
    ids = range(lat.n)
    assert [[lat.join(i, j) for j in ids] for i in ids] == jt.tolist()
    assert [lat.height(i) for i in ids] == h.tolist()
    steps = lat.steps
    assert steps.dtype == np.int64
    assert np.array_equal(steps, ref.steps(lat))
    assert lat.incrementality() == ref.incrementality(lat)
    for x in range(lat.n):
        assert lat.admissibles(x) == ref.admissibles(lat, x)
        for a in lat.admissibles(x):
            assert lat.closure_of(a, x) == ref.closure_of(lat, a, x)
    # closures of steps that are not admissible, and of the bottom, which
    # is never join-irreducible, are refused
    for x in range(lat.n):
        for a in set(lat.join_irreducibles()) - set(lat.admissibles(x)):
            with pytest.raises(ValueError, match="not admissible"):
                lat.closure_of(a, x)
        with pytest.raises(ValueError, match="not join-irreducible"):
            lat.closure_of(lat.bottom, x)


@settings(max_examples=60, deadline=None)
@given(lattices)
def test_birkhoff_distributivity_matches_triple_scan(lat):
    assert lat.is_distributive() == ref.is_distributive(lat)


@settings(max_examples=60, deadline=None)
@given(lattices, st.sampled_from(["random", "ties", "cut"]), st.integers(0, 2 ** 32 - 1))
def test_gap_reports_match_reference(lat, kind, seed):
    obj = objective(lat, kind, seed)
    for fast, slow in SCANS:
        got = fast(obj, lat).to_json_dict()
        want = slow(obj, lat).to_json_dict()
        assert got.pop("triples_scanned") >= got["excluded_triples"]
        want.pop("triples_scanned")
        assert json.dumps(got) == json.dumps(want)


@cache
def generic_set_lattice(n_items):
    """SetLattice(n_items) as an explicit lattice: the same ids and order,
    without the subset-lattice path of the upward scan."""
    return ExplicitLattice(SetLattice(n_items).leq_matrix())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 7), st.sampled_from(["random", "ties", "cut", "ulps"]),
       st.integers(0, 2 ** 32 - 1))
@example(0, "random", 0)
@example(4, "ulps", 5)  # the first largest m_a(Z) is not the witness
def test_set_upward_transform_matches_the_generic_scan(n_items, kind, seed):
    assume(n_items or kind != "cut")
    lat = SetLattice(n_items)
    obj = objective(lat, kind, seed)
    got = measure_upward_gap(obj, lat).to_json_dict()
    want = measure_upward_gap(obj, generic_set_lattice(n_items)).to_json_dict()
    assert json.dumps(got) == json.dumps(want)


@pytest.mark.parametrize("n_items, kind, seed", [(8, "cut", 0), (8, "ties", 1),
                                                 (9, "cut", 2), (9, "random", 3)])
def test_set_upward_transform_matches_reference(n_items, kind, seed):
    lat = SetLattice(n_items)
    obj = objective(lat, kind, seed)
    got = measure_upward_gap(obj, lat).to_json_dict()
    assert got.pop("triples_scanned") == n_items * 3 ** (n_items - 1)
    want = ref.measure_upward_gap(obj, lat).to_json_dict()
    want.pop("triples_scanned")
    assert json.dumps(got) == json.dumps(want)


@settings(max_examples=60, deadline=None)
@given(lattices, st.sampled_from(["random", "ties", "cut"]), st.integers(0, 2 ** 32 - 1))
def test_double_greedy_matches_reference(lat, kind, seed):
    obj = objective(lat, kind, seed)
    got = double_greedy(obj, lat).to_json_dict()
    assert json.dumps(got) == json.dumps(ref.double_greedy_finite(obj, lat).to_json_dict())


def test_double_greedy_matches_reference_through_the_ungraded_fallback():
    # N5 is 0 < 1 < 3 < 4 and 0 < 2 < 4: the ascent to 2 leaves [2, 4] with
    # nothing at height h(4) - 1 = 2, so the descent takes the fallback
    lat = make_n5()
    obj = TableObjective([0.0, 0.0, 10.0, 0.0, 1.0])
    assert lat.descents(2, 4) == ref.descents(lat, 2, 4) == [2]
    got = double_greedy(obj, lat).to_json_dict()
    assert json.dumps(got) == json.dumps(ref.double_greedy_finite(obj, lat).to_json_dict())
    last = got["iterations"][-1]
    assert (last["a"], last["b"], last["choice"], last["element"]) == (2, 4, "descend", 2)


@settings(max_examples=60, deadline=None)
@given(lattices)
@example(long_pentagon())
def test_descents_match_reference_scan(lat):
    leq = lat.leq_matrix()
    for a in range(lat.n):
        for b in range(lat.n):
            # the generic array path, also on lattices that override it
            both = (lat.descents(a, b), FiniteLattice.descents(lat, a, b))
            if a != b and leq[a, b]:
                assert both == (ref.descents(lat, a, b),) * 2
            else:
                assert both == ([], [])


def test_double_greedy_work_on_a_large_set_lattice():
    """Each iteration values the ascent candidates and the descents once,
    and asks a bit count, not a scan over all 2^16 elements, for heights."""
    lat = SetLattice(16)
    obj = TableObjective(np.random.default_rng(0).random(lat.n))
    calls = {"value": 0, "height": 0}
    value, height = obj.value, SetLattice.height

    def counted_value(lat, e):
        calls["value"] += 1
        return value(lat, e)

    def counted_height(self, i):
        calls["height"] += 1
        return height(self, i)

    with mock.patch.object(obj, "value", counted_value), \
            mock.patch.object(SetLattice, "height", counted_height):
        rep = double_greedy(obj, lat)
    per_iteration = [
        sum(lat.leq(u, it["b"]) for u in lat.admissibles(it["a"]))
        + len(lat.descents(it["a"], it["b"]))
        for it in rep.iterations]
    assert calls["value"] == 2 + sum(per_iteration)
    assert calls["height"] < 1000


def test_solvers_build_no_whole_lattice_table():
    lat = SetLattice(16)
    obj = TableObjective(np.random.default_rng(0).random(lat.n))
    cost = ModularCost.uniform(lat)
    greedy_height(obj, lat, 3)
    greedy_knapsack(obj, lat, cost, 3.0)
    double_greedy(obj, lat)
    assert not WHOLE_LATTICE_TABLES & set(lat.__dict__)
    assert not any(np.size(v) == lat.n for v in vars(cost).values())


cost_lattices = st.one_of(st.integers(0, 7).map(SetLattice), lattices)


def random_cost(lat, kind, rng):
    """Increments drawn at random, from two tied values, or half of them
    zero; the sums of 0.1 and 0.3 round differently in different orders."""
    irr = lat.join_irreducibles()
    if kind == "random":
        incs = rng.uniform(0.0, 3.0, len(irr))
    elif kind == "tied":
        incs = rng.choice([0.1, 0.3], len(irr))
    else:
        incs = np.where(rng.random(len(irr)) < 0.5, 0.0, rng.uniform(0.0, 3.0, len(irr)))
    return ModularCost(lat, dict(zip(irr, incs.tolist())), base=float(rng.normal()))


@settings(max_examples=150, deadline=None)
@given(cost_lattices, st.sampled_from(["random", "tied", "zero"]), st.integers(0, 2 ** 32 - 1))
def test_costs_match_the_chain_walk(lat, kind, seed):
    cost = random_cost(lat, kind, np.random.default_rng(seed))
    walk = [ref.cost_of(cost, e) for e in range(lat.n)]
    assert [cost.of(e) for e in range(lat.n)] == walk
    assert cost.costs.tolist() == walk


@pytest.mark.parametrize("kind", ["random", "tied", "zero"])
def test_costs_above_the_scan_cap_match_the_chain_walk(kind):
    lat = SetLattice(13)
    rng = np.random.default_rng(0)
    cost = random_cost(lat, kind, rng)
    for e in rng.integers(lat.n, size=50).tolist() + [lat.top]:
        assert cost.of(e) == ref.cost_of(cost, e)
    assert "costs" not in vars(cost)


@settings(max_examples=150, deadline=None)
@given(cost_lattices, st.sampled_from(["random", "tied", "zero"]), st.integers(0, 2 ** 32 - 1),
       st.one_of(st.none(), st.integers(0, 5)), st.booleans(),
       st.sampled_from([0.0, -5e-13, -2e-12]))
def test_oracle_matches_the_element_loop(lat, kind, seed, height_cap, budgeted, slack):
    """Budgets sit at an element's cost, or just below it, inside and
    outside the oracle's 1e-12 slack; tied values exercise the tie-break."""
    rng = np.random.default_rng(seed)
    cost = random_cost(lat, kind, rng)
    obj = objective(lat, "ties" if kind == "tied" else "table", seed)
    budget = cost.of(int(rng.integers(lat.n))) + slack if budgeted else None
    args = dict(height_cap=height_cap, cost=cost if budgeted else None, budget=budget)
    try:
        expected = ref.brute_force_max(obj, lat, **args)
    except ValueError:
        with pytest.raises(ValueError, match="no feasible element"):
            brute_force_max(obj, lat, **args)
        return
    assert brute_force_max(obj, lat, **args) == expected


@settings(max_examples=60, deadline=None)
@given(lattices, st.sampled_from(["random", "ties", "cut"]), st.integers(0, 2 ** 32 - 1),
       st.integers(0, 7))
def test_greedy_height_matches_reference(lat, kind, seed, k):
    obj = objective(lat, kind, seed)
    got = greedy_height(obj, lat, k).to_json_dict()
    assert json.dumps(got) == json.dumps(ref.greedy_height_finite(obj, lat, k).to_json_dict())


@settings(max_examples=150, deadline=None)
@given(cost_lattices, st.sampled_from(["random", "ties", "cut"]),
       st.sampled_from(["random", "tied", "zero"]), st.integers(0, 2 ** 32 - 1))
def test_greedy_knapsack_matches_reference(lat, kind, cost_kind, seed):
    """Zero increments rank steps by raw gain, tied ones tie densities, and
    the budget sits exactly at some element's cost."""
    assume(lat.n > 1 or kind != "cut")
    rng = np.random.default_rng(seed)
    cost = random_cost(lat, cost_kind, rng)
    obj = objective(lat, kind, seed)
    budget = cost.of(int(rng.integers(lat.n)))
    got = greedy_knapsack(obj, lat, cost, budget).to_json_dict()
    want = ref.greedy_knapsack(obj, lat, cost, budget).to_json_dict()
    assert json.dumps(got) == json.dumps(want)


def test_budgeted_oracle_work_on_a_set_lattice():
    """The budgeted oracle reads its costs from one vector: no admissibility
    query, and one value per feasible element."""
    lat = SetLattice(9)
    obj = objective(lat, "cut", 0)
    calls = {"value": 0, "admissibles": 0}
    value, admissibles = obj.value, SetLattice.admissibles

    def counted_value(lat, e):
        calls["value"] += 1
        return value(lat, e)

    def counted_admissibles(self, x):
        calls["admissibles"] += 1
        return admissibles(self, x)

    with mock.patch.object(obj, "value", counted_value), \
            mock.patch.object(SetLattice, "admissibles", counted_admissibles):
        res = brute_force_max(obj, lat, cost=ModularCost.uniform(lat), budget=4.5)
    assert res.feasible_count == 1 + 9 + 36 + 84 + 126
    assert calls == {"value": res.feasible_count, "admissibles": 0}


dictionaries = st.one_of(
    st.builds(random_dictionary, st.integers(0, 2 ** 32 - 1),
              st.integers(1, 9), st.integers(2, 5)),
    st.floats(1e-4, 0.4).map(tilted_pair),
    st.just(skew_quad()),
    st.integers(0, 2 ** 16).map(lambda seed: tilted_plane_dictionary(seed, 3)),
    st.integers(0, 2 ** 16).map(near_orthonormal_frame),
)


@settings(max_examples=60, deadline=None)
@given(dictionaries)
def test_flat_enumeration_matches_reference(dic):
    lat, want = enumerate_lattice(dic), ref.enumerate_spans(dic)
    assert lat.n == want.n
    assert lat.gen_masks == want.gen_masks
    assert np.array_equal(lat._elem_of_mask, want.elem_of_mask)
    for got, old in zip(lat.subspaces, want.subspaces):
        assert np.array_equal(got.basis, old.basis)
    assert np.array_equal(lat.leq_matrix(), want.order)
    assert np.array_equal(lat.join_table(), want.jt)
    assert np.array_equal(lat.meet_table(), want.mt)


@settings(max_examples=60, deadline=None)
@given(dictionaries)
def test_flat_join_irreducibles_match_definition(dic):
    lat = enumerate_lattice(dic)
    assert lat.join_irreducibles() == ref.join_irreducibles(lat.leq_matrix(), lat.join_table())


def counted_enumeration(dic):
    calls = []
    vjoin = dictionary_module.vjoin

    def counted(x, other):
        calls.append(1)
        return vjoin(x, other)

    with mock.patch.object(dictionary_module, "vjoin", counted):
        lat = enumerate_lattice(dic)
    return lat, len(calls)


def distinct_joins(lat, n_atoms):
    """(element, atom) pairs the enumeration reaches with the atom outside
    the element's flat: the lowest atom of a mask and the element of the rest."""
    pairs = set()
    for mask in range(1, 1 << n_atoms):
        low = mask & -mask
        prev = int(lat._elem_of_mask[mask ^ low])
        if not lat.leq(int(lat._elem_of_mask[low]), prev):
            pairs.add((prev, low))
    return len(pairs)


@settings(max_examples=40, deadline=None)
@given(dictionaries)
def test_enumeration_joins_each_distinct_pair_once(dic):
    lat, calls = counted_enumeration(dic)
    assert calls == distinct_joins(lat, dic.n_atoms)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_three_tilted_planes_take_186_joins(seed):
    assert counted_enumeration(tilted_plane_dictionary(seed, 3))[1] == 186


def write_span_instance(tmp_path, seed):
    dic = tilted_plane_dictionary(seed, 3)
    lattice = tmp_path / "lattice.json"
    lattice.write_text(json.dumps({"kind": "dictionary", "atoms": dic.vectors.tolist()}))
    data = tmp_path / "data.csv"
    np.savetxt(data, np.random.default_rng(seed).normal(size=(40, 6)), delimiter=",")
    return dic, ["--objective", "gpca", "--lattice", str(lattice), "--data", str(data)]


@pytest.mark.parametrize("seed", [0, 1])
def test_diagnose_evaluates_each_element_once(seed, tmp_path, capsys):
    dic, instance = write_span_instance(tmp_path, seed)
    value = PCAObjective.value
    calls = []

    def counted(obj, lat, e):
        calls.append(e)
        return value(obj, lat, e)

    with mock.patch.object(PCAObjective, "value", counted):
        main(["diagnose", *instance, "--direction", "all", "--check-saturation"])
    assert sorted(calls) == list(range(enumerate_lattice(dic).n))


@pytest.mark.parametrize("seed", [0, 1])
def test_saturation_check_same_with_handed_in_downward_report(seed, tmp_path, capsys):
    _, instance = write_span_instance(tmp_path, seed)
    checks = []
    for direction in ("all", "upward"):  # only "all" hands the scan over
        capsys.readouterr()
        main(["diagnose", *instance, "--direction", direction, "--check-saturation"])
        checks.append(json.loads(capsys.readouterr().out)["checks"]["saturation"])
    assert json.dumps(checks[0]) == json.dumps(checks[1])


@settings(max_examples=40, deadline=None)
@given(dictionaries)
def test_coherence_report_matches_reference(dic):
    lat = enumerate_lattice(dic)
    assume(lat.height(lat.top) == dic.ambient_dim)
    assert lattice_coherence_report(lat) == ref.lattice_coherence_report(lat)


def direction_data(seed, n, d, shape):
    """n rows in R^d. "duplicated" repeats a few rows, "axis" scales axis
    vectors (u and its sign flips tie exactly), "mirrored" pairs each row
    with its negation and with its first coordinate flipped."""
    rng = np.random.default_rng(seed)
    if shape == "duplicated":
        few = rng.normal(size=(max(1, n // 4), d))
        return few[rng.integers(0, len(few), n)]
    if shape == "axis":
        return np.eye(d)[rng.integers(0, d, n)] * rng.integers(1, 4, (n, 1))
    if shape == "mirrored":
        half = rng.normal(size=(-(-n // 4), d))
        flip = half * np.r_[-1.0, np.ones(d - 1)]
        return np.vstack([half, -half, flip, -flip])[:n]
    return rng.normal(size=(n, d)) * rng.uniform(0.2, 2.0, d)


def direction_objective(data, kind, level, slope, seed):
    if kind == "pca":
        return PCAObjective(data)
    norms = (data ** 2).sum(axis=1)
    if kind == "family":
        spread = np.random.default_rng(seed).uniform(0.0, 2.0, len(norms))
        return GeneralizedPCAObjective(data, SaturatingFamily(level * spread * norms, slope))
    return GeneralizedPCAObjective(data, ConcaveRho.capped(level * norms.mean() + 1e-3, slope))


def grid_widths(d):
    # at d = 5 a width of 0.1 would be 2.1 million grid points
    return st.floats(0.1 if d < 5 else 0.25, 0.5)


direction_strategies = st.integers(2, 5).flatmap(lambda d: st.tuples(
    st.just(d),
    st.one_of(
        st.builds(Grid, grid_widths(d), st.integers(0, 1)),
        st.builds(RandomRestart, st.integers(1, 3000)))))


@settings(max_examples=80, deadline=None)
@given(direction_strategies, st.integers(1, 60),
       st.sampled_from(["gauss", "duplicated", "axis", "mirrored"]),
       st.sampled_from(["pca", "family", "capped"]),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_pruned_direction_search_matches_full_sweep(dim_strategy, n, shape, kind,
                                                     level, slope, k, seed):
    d, strategy = dim_strategy
    obj = direction_objective(direction_data(seed, n, d, shape), kind, level, slope, seed)
    pruned = greedy_height(obj, VectorLattice(d), k, strategy=strategy, seed=seed).to_json_dict()
    with mock.patch.object(PCAObjective, "energy_bound", lambda self: None), \
            mock.patch.object(GeneralizedPCAObjective, "energy_bound", lambda self: None):
        full = greedy_height(obj, VectorLattice(d), k, strategy=strategy, seed=seed).to_json_dict()
    for got, want in zip(pruned["iterations"], full["iterations"]):
        assert 0 < got.pop("evaluated") <= got["candidates"]
        assert want.pop("evaluated") == want["candidates"]
    assert json.dumps(pruned) == json.dumps(full)
