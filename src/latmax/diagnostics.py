"""Measurement of diminishing-return gaps and the coherence bounds.

Each measurement scans a finite lattice exhaustively and reports the
smallest additive gap making the corresponding inequality hold, along
with the witness configuration of the worst violation.
"""

from __future__ import annotations

import weakref
from dataclasses import asdict, dataclass

import numpy as np

# lattice_coherence_report is looked up on its module at call time, so
# that patching it there (perfbench/tracing.py) also sees these calls
from latmax import dictionary as _dictionary
from latmax.dictionary import (
    Dictionary,
    EnumeratedLattice,
    coherence_vectors,
    enumerate_lattice,
)
from latmax.lattice import FiniteLattice, SetLattice, check_scan_cap
from latmax.objectives import PCAObjective, TableObjective
# not called here; the benchmark's tracer patches vjoin on this module by name
from latmax.subspaces import vjoin  # noqa: F401


@dataclass
class GapReport:
    """Smallest additive gap for one inequality family on one instance, with
    the configurations the scan visited and those with an empty right side."""

    direction: str
    measured_delta: float
    witness: dict | None = None
    exhaustive: bool = True  # every scan is; kept so the report schema stays
    excluded_triples: int = 0
    triples_scanned: int = 0

    def to_json_dict(self) -> dict:
        return asdict(self)


def _values(obj, lat):
    vals = np.array([obj.value(lat, e) for e in range(lat.n)])
    vals.flags.writeable = False
    return vals


_last_values = None  # (weak ref to objective, weak ref to lattice, values)


def _value_vector(obj, lat):
    """Read-only value of every element, built once for consecutive
    requests on the same objective and lattice. The pair is held by weak
    references: a dead one matches nothing, so a reused id cannot hit."""
    global _last_values
    last = _last_values
    if last is None or last[0]() is not obj or last[1]() is not lat:
        last = _last_values = (weakref.ref(obj), weakref.ref(lat), _values(obj, lat))
    return last[2]


def _marginals(lat, vals):
    """marg[i, X] for irreducible index i admissible to X, else NaN."""
    steps = lat.steps
    adm = steps >= 0
    return lat.join_irreducibles(), np.where(adm, vals[steps] - vals, np.nan), adm


_BOUND_TOL = 1e-9  # slack of the coherence and saturation bound checks
_PROP1_TOL = 1e-12  # largest spread of three gaps that still agree


def _scan_inputs(obj, lat: FiniteLattice):
    """Inputs shared by the scans."""
    check_scan_cap(lat, "the gap scan")
    vals = _value_vector(obj, lat)
    irr, m, adm = _marginals(lat, vals)
    leq = lat.leq_matrix()
    return vals, irr, m, adm, leq, leq[np.ix_(irr, irr)]


def measure_strong_gap(obj, lat: FiniteLattice) -> GapReport:
    """Worst violation of: one-step gains shrink when both the base and
    the step grow. Scans X <= Y, a admissible to X, b admissible to Y,
    a <= b."""
    _, irr, m, adm, leq, above = _scan_inputs(obj, lat)
    base = np.where(adm, m, np.inf)
    gain = np.where(adm, m, -np.inf)
    worst, witness, scanned = -np.inf, None, 0
    for ia, a in enumerate(irr):
        # smallest gain of a over bases X <= Y, per Y
        low = np.where(leq, base[ia][:, None], np.inf).min(axis=0)
        # cand[b, Y] for steps b >= a; argmax keeps the first in (b, Y) order
        cand = np.where(above[ia][:, None], gain - low, -np.inf)
        scanned += int(leq[adm[ia]].sum(axis=0) @ adm[above[ia]].sum(axis=0))
        k = int(np.argmax(cand))
        if cand.flat[k] > worst and np.isfinite(cand.flat[k]):
            worst = float(cand.flat[k])
            ib, y = divmod(k, lat.n)
            x = int(np.argmin(np.where(leq[:, y], base[ia], np.inf)))
            witness = {"X": x, "Y": y, "a": int(a), "b": int(irr[ib]),
                       "violation": worst}
    return GapReport("strong", max(0.0, worst), witness, triples_scanned=scanned)


def measure_downward_gap(obj, lat: FiniteLattice) -> GapReport:
    """Worst violation of: the gain of a step at Y is explained from
    below, by the best closure member whose admissible minorants at X
    all gain at least as much. Scans Y, b admissible to Y, X <= Y."""
    _, irr, m, adm, leq, above = _scan_inputs(obj, lat)
    steps = lat.steps
    # low[i, X]: least gain among admissible minorants of irreducible i at X;
    # -inf marks an empty minorant set (that closure member is skipped)
    gains = np.where(adm, m, np.inf)
    low = np.empty_like(gains)
    for ibp in range(len(irr)):
        low[ibp] = gains[above[:, ibp]].min(axis=0, initial=np.inf)
    low[~np.isfinite(low)] = -np.inf
    worst, witness, excluded = -np.inf, None, 0
    for y in range(lat.n):
        bs = np.flatnonzero(adm[:, y])
        if not bs.size:
            continue
        xs = np.flatnonzero(leq[:, y])
        # rhs[b, X]: best member of the closure of b at Y (same join with Y)
        closure = steps[bs, y][:, None] == steps[bs, y]
        rhs = np.where(closure[:, :, None], low[np.ix_(bs, xs)], -np.inf).max(axis=1)
        covered = rhs > -np.inf
        excluded += int((~covered).sum())
        viol = np.where(covered, m[bs, y][:, None] - rhs, -np.inf)
        k = int(np.argmax(viol))
        if viol.flat[k] > worst:
            worst = float(viol.flat[k])
            ib, ix = divmod(k, xs.size)
            witness = {"X": int(xs[ix]), "Y": y, "b": int(irr[bs[ib]]),
                       "lhs_marginal": float(m[bs[ib], y]),
                       "rhs_maxmin": float(rhs[ib, ix]),
                       "violation": worst}
    scanned = int((adm.sum(axis=0) * leq.sum(axis=0)).sum())
    return GapReport("downward", max(0.0, worst), witness,
                     excluded_triples=excluded, triples_scanned=scanned)


def _set_upward_gap(vals, n_items: int) -> GapReport:
    """The upward scan on a subset lattice. There every irreducible is an
    item a, the one foot of Y is Y - a and every closure is a singleton,
    so the violation at (X, a, Y) is m_a(Z) - m_a(X) with Z = Y - a. The
    worst over Y is a superset-max of m_a over the masks that miss a:
    Yates' zeta transform with max, one pass per other item."""
    if not n_items:
        return GapReport("upward", 0.0)
    n = 1 << n_items
    # viol[X, i]: worst violation of item i at X; -inf where X holds i
    viol = np.full((n, n_items), -np.inf)
    for i in range(n_items):
        pair = vals.reshape(-1, 2, 1 << i)
        low = pair[:, 1] - pair[:, 0]  # m_a over the masks missing a
        up = low.flatten()
        for j in range(n_items - 1):
            half = up.reshape(-1, 2, 1 << j)
            np.maximum(half[:, 0], half[:, 1], out=half[:, 0])
        viol.reshape(-1, 2, 1 << i, n_items)[:, 0, :, i] = up.reshape(low.shape) - low
    # the first worst in (X, a) order, then its first Y, as the scan finds it
    x, i = divmod(int(np.argmax(viol)), n_items)
    a = 1 << i
    lhs = vals[x | a] - vals[x]
    ids = np.arange(n)
    zs = ids[(ids & (x | a)) == x]
    rhs = vals[zs | a] - vals[zs]
    k = int(np.argmax(rhs - lhs))
    worst = float(rhs[k] - lhs)
    witness = {"X": x, "a": a, "Y": int(zs[k] | a), "lhs_marginal": float(lhs),
               "rhs_maxmin": float(rhs[k]), "violation": worst}
    return GapReport("upward", max(0.0, worst), witness,
                     triples_scanned=n_items * 3 ** (n_items - 1))


def measure_upward_gap(obj, lat: FiniteLattice) -> GapReport:
    """Worst violation of: the gain of a step at X is not beaten by the
    cheapest completion of any larger step into a target above X join a.
    Scans X, a admissible to X, Y >= X join a."""
    if isinstance(lat, SetLattice):
        check_scan_cap(lat, "the gap scan")
        return _set_upward_gap(_value_vector(obj, lat), lat.n_items)
    vals, irr, m, adm, leq, above = _scan_inputs(obj, lat)
    steps = lat.steps
    worst, witness, excluded = -np.inf, None, 0
    for x in range(lat.n):
        as_ = np.flatnonzero(adm[:, x])
        if not as_.size:
            continue
        up = np.flatnonzero(leq[x])
        # best[i, Y]: largest f over feet Y0 >= X from which irreducible i
        # completes to Y, over the Y >= X; -inf marks no such foot
        best = np.full((len(irr), up.size), -np.inf)
        rows, feet = np.nonzero(adm[:, up])
        np.maximum.at(best, (rows, np.searchsorted(up, steps[rows, up[feet]])),
                      vals[up[feet]])
        # inner[a, b, Y]: completion cost of step b >= a from its best foot
        has_foot = above[as_][:, :, None] & np.isfinite(best)
        inner = np.where(has_foot, vals[up] - best, -np.inf)
        rhs = inner.max(axis=1)
        targets = leq[steps[as_, x]][:, up]
        covered = has_foot.any(axis=1)
        excluded += int((targets & ~covered).sum())
        viol = np.where(targets & covered, rhs - m[as_, x][:, None], -np.inf)
        k = int(np.argmax(viol))
        if viol.flat[k] > worst:
            worst = float(viol.flat[k])
            ia, iy = divmod(k, up.size)
            witness = {"X": x, "a": int(irr[as_[ia]]), "Y": int(up[iy]),
                       "lhs_marginal": float(m[as_[ia], x]),
                       "rhs_maxmin": float(rhs[ia, iy]),
                       "violation": worst}
    scanned = int(leq.sum(axis=1)[steps[adm]].sum())
    return GapReport("upward", max(0.0, worst), witness,
                     excluded_triples=excluded, triples_scanned=scanned)


def reevaluate_witness(obj, lat: FiniteLattice, report: GapReport) -> float:
    """Recompute the witness violation from its coordinates alone."""
    w = report.witness
    if w is None:
        raise ValueError("report carries no witness")
    vals = _value_vector(obj, lat)
    if report.direction == "strong":
        up_a = vals[lat.join(w["a"], w["X"])] - vals[w["X"]]
        up_b = vals[lat.join(w["b"], w["Y"])] - vals[w["Y"]]
        return float(up_b - up_a)
    irr, m, adm = _marginals(lat, vals)
    idx = {a: i for i, a in enumerate(irr)}
    if report.direction == "downward":
        x, y, b = w["X"], w["Y"], w["b"]
        lhs = m[idx[b], y]
        rhs = []
        for bp in lat.closure_of(b, y):
            inner = [m[idx[a], x] for a in irr
                     if adm[idx[a], x] and lat.leq(a, bp)]
            if inner:
                rhs.append(min(inner))
        return float(lhs - max(rhs))
    if report.direction == "upward":
        x, a, y = w["X"], w["a"], w["Y"]
        terms = []
        for b in irr:
            if not lat.leq(a, b):
                continue
            cands = [vals[y] - vals[y0] for y0 in range(lat.n)
                     if lat.leq(x, y0) and adm[idx[b], y0] and lat.join(b, y0) == y]
            if cands:
                terms.append(min(cands))
        return float(max(terms) - m[idx[a], x])
    raise ValueError(f"unknown direction {report.direction!r}")


def check_prop1_equivalence(lat: FiniteLattice, trials: int, *, seed=0) -> bool:
    """On a distributive lattice the three gap measurements must agree,
    and every closure must be a singleton."""
    check_scan_cap(lat, "the gap scan")
    if not lat.is_distributive():
        raise ValueError("equivalence check needs a distributive lattice")
    for col in lat.steps.T:
        if np.unique(col[col >= 0]).size < (col >= 0).sum():
            return False
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        obj = TableObjective(rng.random(lat.n))
        gaps = [measure_strong_gap(obj, lat).measured_delta,
                measure_downward_gap(obj, lat).measured_delta,
                measure_upward_gap(obj, lat).measured_delta]
        if max(gaps) - min(gaps) > _PROP1_TOL:
            return False
    return True


@dataclass
class CoherenceBoundCheck:
    """Vector-level coherence against the induced lattice-level bound."""

    mu_vectors: float
    ambient_dim: int
    applicable: bool
    bound: float | None = None
    mu_lattice: float | None = None
    holds: bool | None = None

    def to_json_dict(self) -> dict:
        return asdict(self)


def check_coherence_bound(dictionary: Dictionary) -> CoherenceBoundCheck:
    """mu of the generated lattice against d*eps/(1 - d*eps); only
    meaningful when d*eps < 1."""
    eps = coherence_vectors(dictionary)
    d = dictionary.ambient_dim
    check = CoherenceBoundCheck(eps, d, applicable=bool(d * eps < 1.0))
    if not check.applicable:
        return check
    check.bound = d * eps / (1.0 - d * eps)
    check.mu_lattice = _dictionary.lattice_coherence_report(enumerate_lattice(dictionary)).value
    check.holds = bool(check.mu_lattice <= check.bound + _BOUND_TOL)
    return check


@dataclass
class SaturationGapCheck:
    """Downward gap of a reshaped energy objective against the coherence
    times slope-at-zero times total energy bound."""

    mu_lattice: float
    slope_at_zero: float
    total_energy: float
    bound: float
    measured_delta: float
    holds: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


def check_saturation_gap_bound(obj, lat: EnumeratedLattice, *,
                               downward: GapReport | None = None) -> SaturationGapCheck:
    """The reshaped-energy objective on a modular span lattice must be
    downward DR-submodular with gap at most
    3 * mu * slope0 * total_energy / (1 - mu^2). ``downward``, the
    downward report of the same objective and lattice, skips the scan."""
    if not isinstance(lat, EnumeratedLattice):
        raise ValueError(f"the saturation bound needs a dictionary span lattice, "
                         f"not a {type(lat).__name__}")
    if not isinstance(obj, PCAObjective):
        raise ValueError(f"the saturation bound needs a pca or gpca objective, "
                         f"not a {type(obj).__name__}")
    if not lat.is_modular():
        raise ValueError("the bound needs a modular span lattice")
    mu = _dictionary.lattice_coherence_report(lat).value
    slope0 = obj.rho.dprime0() if hasattr(obj, "rho") else 1.0
    total = obj.total_energy
    bound = 3.0 * mu * slope0 * total / (1.0 - mu ** 2)
    rep = downward if downward is not None else measure_downward_gap(obj, lat)
    return SaturationGapCheck(mu, slope0, total, bound, rep.measured_delta,
                              bool(rep.measured_delta <= bound + _BOUND_TOL))
