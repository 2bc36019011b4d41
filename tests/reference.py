"""Loop-based implementations that the step table replaced.

Lattice queries and the three gap scans as they were written before
`FiniteLattice.steps` existed: admissibility from the order matrix one
(irreducible, element) pair at a time, closures by rescanning the
admissible set, and marginals filled one entry per call. The
differential tests run them as oracles against the table-driven code,
which must agree bit for bit, witnesses included.
"""

from __future__ import annotations

import numpy as np

from latmax.diagnostics import GapReport


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
