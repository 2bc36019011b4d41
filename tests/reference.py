"""Loop-based implementations that the step table and the flat
enumeration replaced, and lattice tables by their definitions.

The order, join, meet and height tables and the join-irreducibles of a
finite lattice from the elements themselves (bitmasks, subspaces, or an
explicit lattice's given order) by order scans and longest chains, and
distributivity by the scan over all triples that Birkhoff's test
replaced. Lattice queries and the three gap scans as they were written
before `FiniteLattice.steps` existed: admissibility from the order matrix one
(irreducible, element) pair at a time, closures by rescanning the
admissible set, and marginals filled one entry per call. The span
enumerator as it was written before elements were keyed by their flats:
spans deduplicated by projector, order by a containment scan over the
projector stack, meet by a search for the highest common lower bound;
and the coherence report with one join and one meet query per pair.
Finite double greedy as it was written before `FiniteLattice.descents`,
finding each iteration's descents by scanning every element. Height and
budgeted greedy as they were written before every finite choice went
through `solvers.first_max`, each with its own best-so-far loop. Modular
costs by the chain walk and the exhaustive oracle as one feasibility test
and one value per element, which the cost vector and the feasibility mask
replaced. An explicit lattice's join and meet tables by a scan of the
common bounds of every pair, which one linear extension replaced.
The quantum cut of a vertex set by its own membership formula, and the
cut from energies with its target energies clipped by `np.clip`, which
one formula with `np.maximum` replaced.
Subspace containment and the cover pairs of a finite lattice,
which the library does not need.
The differential tests run them as oracles against the table-driven
code, which must agree bit for bit, witnesses included.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from latmax.diagnostics import GapReport
from latmax.dictionary import CoherenceReport, EnumeratedLattice, _alignment
from latmax.lattice import NotALatticeError, SetLattice
from latmax.oracle import BruteForceResult
from latmax.solvers import SolveReport
from latmax.subspaces import EQ_TOL, ORTH_TOL, Subspace, VectorLattice, vjoin


def subspace_leq(x: Subspace, y: Subspace) -> bool:
    """x is contained in y: every basis column of x lies in y up to ORTH_TOL."""
    if x.dim == 0:
        return True
    if x.dim > y.dim:
        return False
    resid = x.basis - y.basis @ (y.basis.T @ x.basis)
    return float(np.linalg.norm(resid, axis=0).max()) <= ORTH_TOL


def covers(lat):
    """The cover pairs (lo, hi) in increasing order: lo < hi with no element
    strictly between them."""
    strict = lat.leq_matrix() & ~np.eye(lat.n, dtype=bool)
    return [(int(lo), int(hi)) for lo, hi in zip(*np.nonzero(strict))
            if not (strict[lo] & strict[:, hi]).any()]


def order(lat):
    """order[i, j] is i <= j: inclusion of bitmasks on a set lattice,
    containment of subspaces on a span lattice; an explicit lattice's
    order is the one it was given."""
    if isinstance(lat, SetLattice):
        return np.array([[i & ~j == 0 for j in range(lat.n)] for i in range(lat.n)])
    if isinstance(lat, EnumeratedLattice):
        subs = lat.subspaces
        return np.array([[subspace_leq(x, y) for y in subs] for x in subs])
    return lat.leq_matrix()


def bound_tables(leq):
    """Join and meet tables by scanning all common upper and lower bounds
    for the one below, or above, every other."""
    n = len(leq)
    jt = np.empty((n, n), dtype=np.int64)
    mt = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            ups = np.flatnonzero(leq[i] & leq[j])
            (jt[i, j],) = [u for u in ups if leq[u, ups].all()]
            downs = np.flatnonzero(leq[:, i] & leq[:, j])
            (mt[i, j],) = [d for d in downs if leq[downs, d].all()]
    return jt, mt


def explicit_bound_tables(n, edges):
    """The join and meet tables of the order that ``edges`` cover, by
    ExplicitLattice's scan over every pair as it was before the tables came
    from one linear extension; NotALatticeError, with the same message, for
    the first pair without a least bound."""
    leq = np.eye(n, dtype=bool)
    for lo, hi in edges:
        leq[lo, hi] = True
    for k in range(n):
        leq |= leq[:, k, None] & leq[k]
    h = heights(leq)
    return _explicit_bound_table(leq, h, upper=True), _explicit_bound_table(leq, h, upper=False)


def _explicit_bound_table(leq, h, upper):
    n = len(leq)
    t = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i, n):
            if upper:
                cand = np.flatnonzero(leq[i] & leq[j])
                best = cand[np.argmin(h[cand])] if i != j else i
                ok = leq[best, cand].all()
            else:
                cand = np.flatnonzero(leq[:, i] & leq[:, j])
                best = cand[np.argmax(h[cand])] if i != j else i
                ok = leq[cand, best].all()
            if not cand.size or not ok:
                kind = "upper" if upper else "lower"
                raise NotALatticeError(f"no unique least {kind} bound for ({i},{j})")
            t[i, j] = t[j, i] = best
    return t


def heights(leq):
    """Longest chain up from the bottom: raise h[y] to h[x] + 1 over all
    x < y until nothing changes."""
    strict = leq & ~np.eye(len(leq), dtype=bool)
    h = np.zeros(len(leq), dtype=np.int64)
    while True:
        new = np.where(strict, h[:, None] + 1, 0).max(axis=0)
        if np.array_equal(new, h):
            return h
        h = new


def join_irreducibles(leq, jt):
    """By definition: no pair of strictly smaller elements joins to e.
    The bottom, the empty join, is excluded."""
    n = len(leq)
    bottom = int(np.flatnonzero(leq.all(axis=1))[0])
    out = []
    for e in range(n):
        below = np.flatnonzero(leq[:, e] & (np.arange(n) != e))
        if e != bottom and not (jt[np.ix_(below, below)] == e).any():
            out.append(e)
    return tuple(out)


def is_distributive(lat):
    """(x∧y)∨z == (x∨z)∧(y∨z) over all triples."""
    jt, mt = lat.join_table(), lat.meet_table()
    for z in range(lat.n):
        jz = jt[:, z]
        if not (jt[mt, z] == mt[np.ix_(jz, jz)]).all():
            return False
    return True


def leq_matrix(lat):
    return np.array([[lat.leq(i, j) for j in range(lat.n)]
                     for i in range(lat.n)])


def is_join_irreducible(lat, a):
    return a in set(lat.join_irreducibles())


def is_admissible(lat, a, x):
    """True when a is a legal unit step from x: a is join-irreducible,
    a is not below x, and every element strictly below a is below x."""
    if not is_join_irreducible(lat, a):
        raise ValueError(f"element {a} is not join-irreducible")
    if lat._leq[a, x]:
        return False
    below_a = lat._leq[:, a] & (np.arange(lat.n) != a)
    return bool(lat._leq[below_a, x].all())


def admissibles(lat, x):
    return tuple(a for a in lat.join_irreducibles() if is_admissible(lat, a, x))


def closure_of(lat, a, x):
    """Admissible elements producing the same join with x as a does."""
    if not is_admissible(lat, a, x):
        raise ValueError(f"element {a} is not admissible to {x}")
    target = lat.join(x, a)
    return tuple(b for b in admissibles(lat, x) if lat.join(x, b) == target)


def incrementality(lat):
    """Largest height jump a single admissible step can cause."""
    p = 1
    for x in range(lat.n):
        hx = lat.height(x)
        for a in admissibles(lat, x):
            p = max(p, lat.height(lat.join(x, a)) - hx)
    return p


def steps(lat):
    """steps[i, x]: join of irreducible i with x, or -1 when not admissible."""
    irr = lat.join_irreducibles()
    out = np.full((len(irr), lat.n), -1, dtype=np.int64)
    for i, a in enumerate(irr):
        for x in range(lat.n):
            if is_admissible(lat, a, x):
                out[i, x] = lat.join(a, x)
    return out


def values(obj, lat):
    return np.array([obj.value(lat, e) for e in range(lat.n)])


def marginals(lat, vals):
    """marg[i, X] for irreducible index i admissible to X, else NaN."""
    irr = lat.join_irreducibles()
    jt = lat.join_table()
    m = np.full((len(irr), lat.n), np.nan)
    adm = np.zeros((len(irr), lat.n), dtype=bool)
    for i, a in enumerate(irr):
        for x in range(lat.n):
            if is_admissible(lat, a, x):
                adm[i, x] = True
                m[i, x] = vals[jt[a, x]] - vals[x]
    return irr, m, adm


def measure_strong_gap(obj, lat) -> GapReport:
    vals = values(obj, lat)
    irr, m, adm = marginals(lat, vals)
    leq = leq_matrix(lat)
    worst, witness = -np.inf, None
    for ia, a in enumerate(irr):
        # smallest gain of a over bases X <= Y, per Y
        base = np.where(adm[ia], m[ia], np.inf)
        low = np.where(leq, base[:, None], np.inf).min(axis=0)  # indexed by Y
        for ib, b in enumerate(irr):
            if not lat.leq(a, b):
                continue
            cand = np.where(adm[ib], m[ib], -np.inf) - low
            y = int(np.argmax(cand))
            if cand[y] > worst and np.isfinite(cand[y]):
                worst = float(cand[y])
                x = int(np.argmin(np.where(leq[:, y], base, np.inf)))
                witness = {"X": x, "Y": y, "a": int(a), "b": int(b),
                           "violation": worst}
    if witness is None:
        return GapReport("strong", 0.0)
    return GapReport("strong", max(0.0, worst), witness)


def measure_downward_gap(obj, lat) -> GapReport:
    vals = values(obj, lat)
    irr, m, adm = marginals(lat, vals)
    idx = {a: i for i, a in enumerate(irr)}
    leq = leq_matrix(lat)
    # low[i, X]: least gain among admissible minorants of irreducible i at X;
    # +inf marks an empty minorant set (that closure member is skipped)
    low = np.full((len(irr), lat.n), np.inf)
    for ibp, bp in enumerate(irr):
        below = np.array([lat.leq(a, bp) for a in irr])
        low[ibp] = np.where(below[:, None] & adm, m, np.inf).min(axis=0)
    worst, witness, excluded = -np.inf, None, 0
    for y in range(lat.n):
        xs = np.flatnonzero(leq[:, y])
        for b in irr:
            if not adm[idx[b], y]:
                continue
            lhs = m[idx[b], y]
            cl = np.array([idx[bp] for bp in closure_of(lat, b, y)])
            sub = low[cl][:, xs]
            feasible = np.isfinite(sub)
            covered = feasible.any(axis=0)
            excluded += int((~covered).sum())
            if not covered.any():
                continue
            rhs = np.where(feasible, sub, -np.inf).max(axis=0)
            viol = lhs - rhs
            viol[~covered] = -np.inf
            k = int(np.argmax(viol))
            if viol[k] > worst:
                worst = float(viol[k])
                witness = {"X": int(xs[k]), "Y": y, "b": int(b),
                           "lhs_marginal": float(lhs),
                           "rhs_maxmin": float(rhs[k]),
                           "violation": worst}
    if witness is None:
        return GapReport("downward", 0.0, excluded_triples=excluded)
    return GapReport("downward", max(0.0, worst), witness,
                     excluded_triples=excluded)


def measure_upward_gap(obj, lat) -> GapReport:
    vals = values(obj, lat)
    irr, m, adm = marginals(lat, vals)
    idx = {a: i for i, a in enumerate(irr)}
    jt = np.asarray(lat.join_table())
    leq = leq_matrix(lat)
    above = np.array([[lat.leq(a, b) for b in irr] for a in irr])
    worst, witness, excluded = -np.inf, None, 0
    for x in range(lat.n):
        # best[i, Y]: largest f over feet Y0 >= X from which irreducible i
        # completes to Y; -inf marks no such foot
        best = np.full((len(irr), lat.n), -np.inf)
        for ib, b in enumerate(irr):
            feet = leq[x] & adm[ib]
            if feet.any():
                np.maximum.at(best[ib], jt[b, feet], vals[feet])
        for a in irr:
            ia = idx[a]
            if not adm[ia, x]:
                continue
            lhs = m[ia, x]
            ys = np.flatnonzero(leq[jt[a, x]])
            sub = best[above[ia]][:, ys]
            has_foot = np.isfinite(sub)
            covered = has_foot.any(axis=0)
            excluded += int((~covered).sum())
            if not covered.any():
                continue
            inner = vals[ys][None, :] - sub
            inner[~has_foot] = -np.inf
            rhs = inner.max(axis=0)
            viol = rhs - lhs
            viol[~covered] = -np.inf
            k = int(np.argmax(viol))
            if viol[k] > worst:
                worst = float(viol[k])
                witness = {"X": x, "a": int(a), "Y": int(ys[k]),
                           "lhs_marginal": float(lhs),
                           "rhs_maxmin": float(rhs[k]),
                           "violation": worst}
    if witness is None:
        return GapReport("upward", 0.0, excluded_triples=excluded)
    return GapReport("upward", max(0.0, worst), witness,
                     excluded_triples=excluded)


def enumerate_spans(dictionary):
    """Span lattice of a dictionary with its order, join and meet tables;
    `mt` holds -1 where no greatest lower bound was found."""
    d = dictionary.ambient_dim
    n_subsets = 1 << dictionary.n_atoms

    subspaces: list[Subspace] = [Subspace.bottom(d)]
    gen_masks: list[int] = [0]
    projs: list[np.ndarray] = [np.zeros((d, d))]
    by_dim: dict[int, list[int]] = {0: [0]}
    elem_of_mask = np.zeros(n_subsets, dtype=np.int64)

    for mask in range(1, n_subsets):
        low = mask & -mask
        prev = int(elem_of_mask[mask ^ low])
        span = vjoin(subspaces[prev], dictionary.direction(low.bit_length() - 1))
        p = span.projector()
        found = -1
        bucket = by_dim.get(span.dim, [])
        if bucket:
            stack = np.stack([projs[i] for i in bucket])
            diffs = np.abs(stack - p[None]).max(axis=(1, 2))
            hit = int(np.argmin(diffs))
            if diffs[hit] <= EQ_TOL:
                found = bucket[hit]
        if found < 0:
            found = len(subspaces)
            subspaces.append(span)
            gen_masks.append(mask)
            projs.append(p)
            by_dim.setdefault(span.dim, []).append(found)
        elem_of_mask[mask] = found

    n = len(subspaces)
    dims = np.array([s.dim for s in subspaces])

    proj_stack = np.stack(projs)
    order = np.zeros((n, n), dtype=bool)
    for x in range(n):
        bx = subspaces[x].basis
        if bx.shape[1] == 0:
            order[x, :] = True
            continue
        resid = np.einsum("nij,jk->nik", proj_stack, bx) - bx[None]
        order[x, :] = np.abs(resid).max(axis=(1, 2)) <= ORTH_TOL

    gm = np.array(gen_masks)
    jt = elem_of_mask[gm[:, None] | gm[None, :]]

    mt = np.full((n, n), -1, dtype=np.int64)
    heights = dims
    for i in range(n):
        common = order[:, [i]] & order  # (z, j): z below both i and j
        masked = np.where(common, heights[:, None], -1)
        m = np.argmax(masked, axis=0)
        ok = (~common | order[:, m]).all(axis=0)
        mt[i, ok] = m[ok]
    return SimpleNamespace(n=n, subspaces=tuple(subspaces),
                           gen_masks=tuple(gen_masks), elem_of_mask=elem_of_mask,
                           order=order, jt=jt, mt=mt)


def lattice_coherence_report(lat) -> CoherenceReport:
    if lat.height(lat.top) != lat.dictionary.ambient_dim:
        raise ValueError("lattice top must span the ambient space")
    report = CoherenceReport(value=0.0)
    offenders = []
    for x in range(lat.n):
        best, best_y = None, None
        for y in range(lat.n):
            if lat.join(x, y) != lat.top or lat.meet_table()[x, y] != lat.bottom:
                continue
            a = _alignment(lat.subspaces[x], lat.subspaces[y])
            if best is None or a < best:
                best, best_y = a, y
        if best is None:
            offenders.append(x)
        else:
            report.per_element[x] = best
            report.best_complement[x] = best_y
    report.no_complement = tuple(offenders)
    report.value = float("inf") if offenders else max(report.per_element.values())
    return report


def double_greedy_finite(obj, lat) -> SolveReport:
    a, b = lat.bottom, lat.top
    fa, fb = obj.value(lat, a), obj.value(lat, b)
    report = SolveReport("double-greedy", fa,
                         meta={"strategy": "exhaustive", "n_elements": lat.n,
                               "lattice_height": lat.height(lat.top)})
    it = 0
    while a != b:
        up_best, up_v = None, None
        for u in lat.admissibles(a):
            if not lat.leq(u, b):
                continue
            v = obj.value(lat, lat.join(u, a))
            if up_v is None or v > up_v:
                up_best, up_v = u, v

        hb = lat.height(b)
        downs = [e for e in range(lat.n)
                 if lat.height(e) == hb - 1 and e != b
                 and lat.leq(a, e) and lat.leq(e, b)]
        if not downs:
            # no graded step below b: fall back to the highest elements of [a, b)
            between = [e for e in range(lat.n)
                       if e != b and lat.leq(a, e) and lat.leq(e, b)]
            hmax = max(lat.height(e) for e in between)
            downs = [e for e in between if lat.height(e) == hmax]
        down_best, down_v = None, None
        for e in downs:
            v = obj.value(lat, e)
            if down_v is None or v > down_v:
                down_best, down_v = e, v

        alpha = up_v - fa if up_best is not None else None
        beta = down_v - fb
        record = {"iteration": it, "alpha": alpha, "beta": beta,
                  "a": int(a), "b": int(b),
                  "a_height": lat.height(a), "b_height": hb,
                  "a_leq_b": bool(lat.leq(a, b))}
        if up_best is not None and alpha >= beta:
            a, fa = lat.join(up_best, a), up_v
            record["choice"] = "ascend"
            record["element"] = int(up_best)
        else:
            b, fb = down_best, down_v
            record["choice"] = "descend"
            record["element"] = int(down_best)
        report.iterations.append(record)
        it += 1
    report.value, report.element = float(fa), int(a)
    report.meta["iterations_used"] = it
    return report


def greedy_height_finite(obj, lat, k) -> SolveReport:
    x = lat.bottom
    current = obj.value(lat, x)
    report = SolveReport("greedy-height", current, element=x,
                         meta={"k": k, "strategy": "exhaustive", "n_elements": lat.n})
    for step in range(k):
        best, best_v = None, None
        for a in lat.admissibles(x):
            y = lat.join(a, x)
            if lat.height(y) > k:
                continue
            v = obj.value(lat, y)
            if best_v is None or v > best_v:
                best, best_v = a, v
        if best is None:
            break
        y = lat.join(best, x)
        report.iterations.append({
            "step": step, "element": int(best), "label": lat.label(best),
            "marginal": best_v - current, "value": best_v,
            "height": lat.height(y),
        })
        x, current = y, best_v
    report.value, report.element = float(current), int(x)
    return report


def greedy_knapsack(obj, lat, cost, budget) -> SolveReport:
    """Density greedy under a budget, then compare with the best affordable
    single irreducible. Zero-cost steps rank first by raw gain."""
    if isinstance(lat, VectorLattice):
        raise TypeError("budgeted greedy runs on finite lattices")
    if not np.isfinite(budget):
        raise ValueError(f"budget must be finite, got {budget}")
    if cost.of(lat.bottom) > budget + 1e-12:
        raise ValueError("even the bottom exceeds the budget")
    x = lat.bottom
    current = obj.value(lat, x)
    spent = cost.of(x)
    report = SolveReport("greedy-knapsack", current, element=x,
                         meta={"budget": budget, "n_elements": lat.n})
    step = 0
    while True:
        zero_best, zero_v = None, None
        dens_best, dens_v, dens_m, dens_d = None, None, None, None
        for a in lat.admissibles(x):
            y = lat.join(a, x)
            cy = cost.of(y)
            if cy > budget + 1e-12:
                continue
            mv = obj.value(lat, y) - current
            dc = cy - spent
            if dc <= 1e-12:
                if zero_v is None or mv > zero_v:
                    zero_best, zero_v = a, mv
            else:
                dens = mv / dc
                if dens_v is None or dens > dens_v:
                    dens_best, dens_v, dens_m, dens_d = a, dens, mv, dc
        if zero_best is not None:
            a, mv, dc, dens = zero_best, zero_v, 0.0, float("inf")
        elif dens_best is not None:
            a, mv, dc, dens = dens_best, dens_m, dens_d, dens_v
        else:
            break
        x = lat.join(a, x)
        current = obj.value(lat, x)
        spent = cost.of(x)
        report.iterations.append({
            "step": step, "element": int(a), "label": lat.label(a),
            "marginal": mv, "cost_increment": dc, "density": dens,
            "value": current, "spent": spent,
        })
        step += 1
    greedy_value, greedy_elem = float(current), int(x)

    single_best, single_v = None, None
    for a in lat.join_irreducibles():
        if cost.of(a) > budget + 1e-12:
            continue
        v = obj.value(lat, a)
        if single_v is None or v > single_v:
            single_best, single_v = a, v
    if single_best is not None and single_v > greedy_value:
        report.value, report.element = float(single_v), int(single_best)
        report.meta["winner"] = "singleton"
    else:
        report.value, report.element = greedy_value, greedy_elem
        report.meta["winner"] = "greedy"
    report.meta["greedy_value"] = greedy_value
    report.meta["best_singleton_value"] = single_v
    return report


def descents(lat, a, b):
    """The descent candidates of `double_greedy_finite`, by its two scans
    over every element."""
    hb = lat.height(b)
    downs = [e for e in range(lat.n)
             if lat.height(e) == hb - 1 and e != b
             and lat.leq(a, e) and lat.leq(e, b)]
    if not downs:
        # no graded step below b: fall back to the highest elements of [a, b)
        between = [e for e in range(lat.n)
                   if e != b and lat.leq(a, e) and lat.leq(e, b)]
        hmax = max(lat.height(e) for e in between)
        downs = [e for e in between if lat.height(e) == hmax]
    return downs


def cost_of(cost, e) -> float:
    """`ModularCost.of` as a walk up a chain from the bottom, always taking
    the lowest-indexed admissible irreducible below the target."""
    lat = cost.lat
    total = cost.base
    x = lat.bottom
    while x != e:
        a = next(a for a in lat.admissibles(x)
                 if lat.leq(a, e) and a != x)
        total += cost.increments[a]
        x = lat.join(a, x)
    return total


def brute_force_max(obj, lat, *, height_cap=None, cost=None, budget=None) -> BruteForceResult:
    """The exhaustive oracle as one feasibility test and one value per element."""
    best, best_v, feasible = None, None, 0
    for e in range(lat.n):
        if height_cap is not None and lat.height(e) > height_cap:
            continue
        if cost is not None and cost_of(cost, e) > budget + 1e-12:
            continue
        feasible += 1
        v = obj.value(lat, e)
        if best_v is None or v > best_v:
            best, best_v = e, v
    if best is None:
        raise ValueError("no feasible element")
    return BruteForceResult(best, float(best_v), feasible)


def cut_value_of_mask(obj, mask: int) -> float:
    """`QuantumCutObjective.value` of a vertex set, from the membership of
    each vertex: inside it captures its whole energy, outside none."""
    inside = np.array([bool(mask >> i & 1) for i in range(obj.graph.n_vertices)])
    p = np.where(inside, obj.vertex_norms, 0.0)
    q = np.where(~inside, obj.vertex_norms, 0.0)
    return float((obj._w * p[obj._src] * q[obj._dst]).sum())


def cut_value_from_energies(obj, energies):
    """`QuantumCutObjective.value_from_energies` with the target energies
    clipped at zero by `np.clip`."""
    p = np.asarray(energies, dtype=float)
    q = (obj.vertex_norms[:, None] if p.ndim > 1 else obj.vertex_norms) - p
    src = p[obj._src]
    dst = np.clip(q[obj._dst], 0.0, None)
    if p.ndim > 1:
        return (obj._w[:, None] * src * dst).sum(axis=0)
    return (obj._w * src * dst).sum(axis=0)
