"""Greedy maximization routines on finite lattices and on the full
subspace lattice of R^d.

Finite lattices get exact inner scans over admissible steps. The
continuous subspace lattice delegates the inner step to a strategy:
an exact eigenvector step (quadratic objectives only), a deterministic
direction grid, or random sampling. Double greedy evaluates ascent and
descent over one shared direction set so its per-iteration certificate
inherits the objective's exchange inequality.

Greedy's grid and random sweeps are pruned. A candidate unit u captures
q = u^T S u + sum(base) energy in total (S the d x d scatter matrix), and
the objective's value is at most the function of q that its
energy_bound() returns. The sweep bounds every candidate from q, scores
the highest-bound ones exactly to get a lower bound on the best score,
then scores exactly only the candidates whose bound still reaches it. The
first maximum among those, in column order, is the first maximum over all
columns, so the chosen direction is the one scoring every column would
choose. Objectives without such a bound (the quantum cut) and double
greedy pass none, and every candidate is scored. Scores are exact and do
not depend on which candidates are scored together (_score_columns).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from latmax.lattice import FiniteLattice
from latmax.objectives import PCAObjective
from latmax.subspaces import (
    Direction,
    Subspace,
    VectorLattice,
    codim1_descend,
    vjoin,
)


@dataclass(frozen=True)
class ExactEigen:
    """Closed-form inner step through the residual scatter matrix."""


@dataclass(frozen=True)
class Grid:
    """Deterministic direction grid: first coordinate in [0, 1], the rest
    in [-1, 1], normalized. Optional local refinement around the best cell."""

    width: float = 0.025
    refine_rounds: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.width) and self.width > 0):
            raise ValueError(f"grid width must be finite and positive, got {self.width}")
        if self.refine_rounds < 0:
            raise ValueError(f"grid refine rounds must be nonnegative, got {self.refine_rounds}")


@dataclass(frozen=True)
class RandomRestart:
    """Uniformly random unit directions, drawn from the solver's rng."""

    samples: int = 8192

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError(f"random strategy needs at least one sample, got {self.samples}")


def describe_strategy(strategy) -> str:
    if isinstance(strategy, ExactEigen):
        return "exact-eigen"
    if isinstance(strategy, Grid):
        return f"grid:{strategy.width}" + (
            f"+refine{strategy.refine_rounds}" if strategy.refine_rounds else "")
    if isinstance(strategy, RandomRestart):
        return f"random:{strategy.samples}"
    return "exhaustive"


def spec_fields(spec: str, *forms: str):
    """Split a colon spec such as ``grid:0.1:2`` into its kind and fields,
    checked against the form of that kind among forms, written like
    ``grid[:WIDTH[:ROUNDS]]``: fields outside brackets are required, those
    inside optional. The fields are None when no form has the spec's kind."""
    kind, *fields = spec.split(":")
    for form in forms:
        required = form.split("[")[0]
        if required.split(":")[0] == kind:
            if required.count(":") <= len(fields) <= form.count(":"):
                return kind, fields
            raise ValueError(f"{spec!r}: expected {' or '.join(forms)}")
    return kind, None


def strategy_from_name(name: str):
    if name in (None, "", "exhaustive"):
        return None
    if name == "exact-eigen":
        return ExactEigen()
    kind, fields = spec_fields(name, "grid[:WIDTH[:ROUNDS]]", "random[:SAMPLES[:SEED]]")
    if kind == "grid":
        return Grid(*map(float, fields[:1]), *map(int, fields[1:]))
    if kind == "random":
        # SEED is accepted and ignored: the solver's seed drives the draw
        return RandomRestart(*map(int, fields[:1]))
    raise ValueError(f"unknown strategy {name!r}")


@dataclass
class SolveReport:
    """Trajectory and outcome of one solver run."""

    algorithm: str
    value: float
    element: int | None = None
    basis: dict | None = None
    iterations: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return asdict(self)


def _grid_axes(width, dim):
    first = np.arange(0.0, 1.0 + width / 2, width)
    rest = np.arange(-1.0, 1.0 + width / 2, width)
    return [first] + [rest] * (dim - 1)


def _grid_points(axes):
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh])


# candidates scored exactly before pruning; the best of them is the lower
# bound every other candidate's upper bound must reach
_PROBE = 256
# a slice's energy buffer (n_rows x width float64s) stays within this many
# bytes, well inside L2: a 512-column slice is 4 MB at 1000 rows
_SLICE_BYTES = 1 << 20
# the widest slice; on few rows, as in a 5-vertex quantum cut, wider slices
# gain nothing and narrower ones pay a per-call overhead
_GATHER = 512


def _slice_width(n_rows):
    """Columns scored together on n_rows data rows: the most whose energy
    buffer fits _SLICE_BYTES, a multiple of 8 between 8 and _GATHER."""
    fit = _SLICE_BYTES // (8 * max(n_rows, 1))
    return min(_GATHER, max(8, fit // 8 * 8))


# the most candidate columns one direction search may build; the default
# grid at d = 4 has 41 x 81^3 = 21.8M
_MAX_COLUMNS = 1 << 25


def _search_columns(strategy, dim):
    """Candidate columns one direction search in R^dim builds, counted
    without building any: the random draws, or the grid's points plus
    11^dim per refinement round. A grid axis holds
    ceil((stop - start) / width) points, as np.arange counts them in
    _grid_axes; a width too small for that ratio to be finite counts as
    infinitely many."""
    if isinstance(strategy, RandomRestart):
        return strategy.samples
    if not isinstance(strategy, Grid):
        raise ValueError(f"strategy {strategy!r} cannot propose directions")
    w = strategy.width
    first, rest = (((1.0 + w / 2) - start) / w for start in (0.0, -1.0))
    if math.isinf(rest):
        return math.inf
    return math.ceil(first) * math.ceil(rest) ** (dim - 1) + strategy.refine_rounds * 11 ** dim


def _subspace_setup(obj, d, strategy, seed, *, eigen_default):
    """The strategy, rng and report meta both subspace solvers start from.
    Without a strategy, the eigenvector step when eigen_default and obj is
    plain PCA, else a grid in low ambient dimension and random directions
    above it. Refuses the eigenvector step on other objectives, and a
    search that would build more than _MAX_COLUMNS columns."""
    if strategy is None:
        if eigen_default and type(obj) is PCAObjective:
            strategy = ExactEigen()
        else:
            # a full grid is affordable only in low ambient dimension
            strategy = Grid() if d <= 4 else RandomRestart()
    if isinstance(strategy, ExactEigen):
        if type(obj) is not PCAObjective:
            raise ValueError("the eigenvector step needs a plain quadratic objective")
    elif (columns := _search_columns(strategy, d)) > _MAX_COLUMNS:
        raise ValueError(f"{describe_strategy(strategy)} in R^{d} would build {columns:,} "
                         f"candidate directions, above the cap of {_MAX_COLUMNS:,}")
    meta = {"strategy": describe_strategy(strategy), "ambient_dim": d, "seed": seed}
    return strategy, np.random.default_rng(seed), meta


def _directions(strategy, dim, rng):
    """Raw candidate columns for one direction search in R^dim: the
    strategy's standard normal draws, or its grid points."""
    if isinstance(strategy, RandomRestart):
        return rng.normal(size=(dim, strategy.samples))
    return _grid_points(_grid_axes(strategy.width, dim))


def _best_direction(raw, strategy, propose, score, n_rows, bound=None, gap=None):
    """Best unit direction among the raw candidate columns (_directions),
    then, for a refined Grid, among finer grids around the best so far.

    propose maps raw columns to unit columns, score maps unit columns to
    their scores on n_rows data rows, and bound, if given, to upper bounds
    on them; the first maximum wins. Only the candidates whose bound
    reaches the best of the _PROBE highest-bound ones are scored, so
    without a bound every candidate is. When the raw columns are
    coordinates in the orthonormal columns of gap, the units are gap times
    them. Returns (best_score, best_unit, candidates, evaluated), the last
    two counting the unit columns proposed and scored exactly.
    """
    width = _slice_width(n_rows)
    rounds = strategy.refine_rounds if isinstance(strategy, Grid) else 0
    step = strategy.width if rounds else None
    best_s, best_u, candidates, evaluated = -np.inf, None, 0, 0
    for r in range(rounds + 1):
        if r:
            if best_u is None:
                break
            step /= 5.0
            center = best_u if gap is None else gap.T @ best_u
            raw = _grid_points([np.linspace(c - 5 * step, c + 5 * step, 11) for c in center])
        units = propose(raw)
        m = units.shape[1]
        if m == 0:
            continue
        upper = np.full(m, np.inf) if bound is None else bound(units)
        scores, done = np.empty(m), np.zeros(m, dtype=bool)
        top = max(m - _PROBE, 0)
        probe = np.sort(np.argpartition(upper, top)[top:])
        scores[probe], done[probe] = _score_columns(score, units, probe, width), True
        low = scores[probe].max()
        keep = np.flatnonzero(upper >= low - 1e-9 * max(1.0, abs(low)))
        rest = keep[~done[keep]]
        scores[rest], done[rest] = _score_columns(score, units, rest, width), True
        best = keep[int(np.argmax(scores[keep]))]
        candidates, evaluated = candidates + m, evaluated + int(done.sum())
        if not r or scores[best] > best_s:
            best_s, best_u = float(scores[best]), units[:, best].copy()
    return best_s, best_u, candidates, evaluated


def _score_columns(score, units, idx, width):
    """Scores of the columns idx of units. They are scored in slices of
    width columns (_slice_width), each padded with zero columns to a
    multiple of 8 in the units' own memory order. BLAS computes the last
    (width mod 8) columns of a product with edge kernels whose bits differ,
    and a one-column energy buffer sums its rows pairwise; with the padding
    every column sits on a full tile, so its score depends neither on the
    columns it is scored with nor on the width."""
    order = "F" if units.flags.f_contiguous else "C"
    out = np.empty(idx.size)
    for lo in range(0, idx.size, width):
        part = idx[lo:lo + width]
        padded = np.zeros((units.shape[0], -(-part.size // 8) * 8), order=order)
        padded[:, :part.size] = units[:, part]
        out[lo:lo + part.size] = score(padded)[:part.size]
    return out


def _unitize(raw, against=None):
    """Orthogonalize raw columns against a subspace and normalize."""
    w = np.asarray(raw, dtype=float)
    if against is not None and against.dim > 0:
        b = against.basis
        w = w - b @ (b.T @ w)
        w = w - b @ (b.T @ w)
    nrm = np.linalg.norm(w, axis=0)
    keep = nrm > 1e-9
    return w[:, keep] / nrm[keep]


def _scorer(obj, base, sign):
    """Scores of unit columns: the objective's value on the energies base
    plus (sign 1) or minus (sign -1) each column's squared projections of
    the feature rows. The energy buffer is the scorer's own scratch."""
    rows, base = obj.feature_rows, base[:, None]

    def score(units):
        e = rows @ units
        np.square(e, out=e)
        if sign > 0:
            e += base
        else:
            np.subtract(base, e, out=e)
        return obj.value_from_scratch_energies(e)
    return score


def _valued(obj, sub: Subspace):
    """sub, the projection energies of obj's feature rows on it, and obj's
    value of those energies."""
    energies = obj.energies(sub)
    return sub, energies, float(obj.value_from_energies(energies))


def _residual_scatter_top(obj, base: Subspace):
    """Best ascent direction of a quadratic energy sum: top eigenvector of
    the scatter matrix restricted to the orthogonal complement of base, or
    None when that complement is empty."""
    q = np.eye(obj.ambient_dim) - base.projector()
    vec = np.linalg.eigh(q @ obj.scatter @ q)[1][:, -1]
    resid = vec - base.projector() @ vec
    n = np.linalg.norm(resid)
    return None if n < 1e-9 else resid / n


def first_max(items, key):
    """The first of items with the largest key, and that key; (None, None)
    when there are none. Every finite choice goes through it, so a tie goes
    to the earliest candidate."""
    best, best_key = None, None
    for item in items:
        k = key(item)
        if best_key is None or k > best_key:
            best, best_key = item, k
    return best, best_key


def greedy_height(obj, lat, k, *, strategy=None, seed=0) -> SolveReport:
    """Height-constrained greedy: repeatedly join the admissible step of
    largest resulting value while the height stays within k."""
    if isinstance(lat, VectorLattice):
        return _greedy_height_vector(obj, lat, k, strategy, seed)
    return _greedy_height_finite(obj, lat, k)


def _greedy_height_finite(obj, lat: FiniteLattice, k) -> SolveReport:
    x = lat.bottom
    current = obj.value(lat, x)
    report = SolveReport("greedy-height", current, element=x,
                         meta={"k": k, "strategy": "exhaustive", "n_elements": lat.n})
    for step in range(k):
        # the admissible steps (a, a ∨ x) that stay within the height cap
        joins = ((a, lat.join(a, x)) for a in lat.admissibles(x))
        best, value = first_max([s for s in joins if lat.height(s[1]) <= k],
                                lambda s: obj.value(lat, s[1]))
        if best is None:
            break
        a, y = best
        report.iterations.append({
            "step": step, "element": int(a), "label": lat.label(a),
            "marginal": value - current, "value": value,
            "height": lat.height(y),
        })
        x, current = y, value
    report.value, report.element = float(current), int(x)
    return report


def _greedy_height_vector(obj, lat: VectorLattice, k, strategy, seed) -> SolveReport:
    d = lat.ambient_dim
    strategy, rng, meta = _subspace_setup(obj, d, strategy, seed, eigen_default=True)
    bound_of = obj.energy_bound()
    x, energies, current = _valued(obj, lat.bottom())
    report = SolveReport("greedy-height", current, meta={"k": k, **meta})
    for step in range(min(k, d)):
        if isinstance(strategy, ExactEigen):
            unit = _residual_scatter_top(obj, x)
        else:
            offset = float(energies.sum())

            def propose(raw):
                return _unitize(raw, against=x)

            def bound(units):
                q = np.einsum("ij,ij->j", units, obj.scatter @ units) + offset
                return bound_of(q)
            _, unit, candidates, evaluated = _best_direction(
                _directions(strategy, d, rng), strategy, propose,
                _scorer(obj, energies, 1), len(energies),
                None if bound_of is None else bound)
        if unit is None:
            break
        x, energies, value = _valued(obj, vjoin(x, Direction(unit)))
        record = {"step": step, "direction": unit.tolist(),
                  "marginal": value - current, "value": value, "height": x.dim}
        if not isinstance(strategy, ExactEigen):
            record["candidates"], record["evaluated"] = candidates, evaluated
        report.iterations.append(record)
        current = value
    report.value = float(current)
    report.basis = x.to_json_dict()
    return report


def greedy_knapsack(obj, lat: FiniteLattice, cost, budget) -> SolveReport:
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
        # the affordable steps as (a, a ∨ x, value, cost, marginal, cost increment)
        joins = ((a, lat.join(a, x)) for a in lat.admissibles(x))
        priced = ((a, y, cost.of(y)) for a, y in joins)
        valued = ((a, y, obj.value(lat, y), cy) for a, y, cy in priced if cy <= budget + 1e-12)
        best, key = first_max(
            [(a, y, v, cy, v - current, cy - spent) for a, y, v, cy in valued],
            lambda s: (True, s[4]) if s[5] <= 1e-12 else (False, s[4] / s[5]))
        if best is None:
            break
        a, x, current, spent, mv, dc = best
        free, dens = key
        if free:
            dc, dens = 0.0, float("inf")
        report.iterations.append({
            "step": step, "element": int(a), "label": lat.label(a),
            "marginal": mv, "cost_increment": dc, "density": dens,
            "value": current, "spent": spent,
        })
        step += 1
    greedy_value, greedy_elem = float(current), int(x)

    single_best, single_v = first_max(
        [a for a in lat.join_irreducibles() if cost.of(a) <= budget + 1e-12],
        lambda a: obj.value(lat, a))
    if single_best is not None and single_v > greedy_value:
        report.value, report.element = float(single_v), int(single_best)
        report.meta["winner"] = "singleton"
    else:
        report.value, report.element = greedy_value, greedy_elem
        report.meta["winner"] = "greedy"
    report.meta["greedy_value"] = greedy_value
    report.meta["best_singleton_value"] = single_v
    return report


def double_greedy(obj, lat, *, strategy=None, seed=0) -> SolveReport:
    """Two-pointer greedy between the bottom and the top: each iteration
    compares the best one-step ascent of the lower pointer against the
    best one-step descent of the upper pointer."""
    if isinstance(lat, VectorLattice):
        return _double_greedy_vector(obj, lat, strategy, seed)
    return _double_greedy_finite(obj, lat)


def _double_greedy_finite(obj, lat: FiniteLattice) -> SolveReport:
    a, b = lat.bottom, lat.top
    fa, fb = obj.value(lat, a), obj.value(lat, b)
    report = SolveReport("double-greedy", fa,
                         meta={"strategy": "exhaustive", "n_elements": lat.n,
                               "lattice_height": lat.height(lat.top)})
    it = 0
    while a != b:
        # the admissible steps (u, u ∨ a) that stay below b
        ups = [(u, lat.join(u, a)) for u in lat.admissibles(a) if lat.leq(u, b)]
        up, up_v = first_max(ups, lambda s: obj.value(lat, s[1]))
        down_best, down_v = first_max(lat.descents(a, b), lambda e: obj.value(lat, e))
        alpha = up_v - fa if up is not None else None
        beta = down_v - fb
        record = {"iteration": it, "alpha": alpha, "beta": beta,
                  "a": int(a), "b": int(b),
                  "a_height": lat.height(a), "b_height": lat.height(b),
                  "a_leq_b": bool(lat.leq(a, b))}
        if up is not None and alpha >= beta:
            (u, a), fa = up, up_v
            record["choice"] = "ascend"
            record["element"] = int(u)
        else:
            b, fb = down_best, down_v
            record["choice"] = "descend"
            record["element"] = int(down_best)
        report.iterations.append(record)
        it += 1
    report.value, report.element = float(fa), int(a)
    report.meta["iterations_used"] = it
    return report


def _double_greedy_vector(obj, lat: VectorLattice, strategy, seed) -> SolveReport:
    d = lat.ambient_dim
    strategy, rng, meta = _subspace_setup(obj, d, strategy, seed, eigen_default=False)
    a, ea, fa = _valued(obj, lat.bottom())
    b, eb, fb = _valued(obj, lat.top())
    report = SolveReport("double-greedy", fa, meta={**meta, "lattice_height": d})
    it = 0
    while a.dim < b.dim:
        # orthonormal basis of b restricted to the complement of a; both
        # moves search one draw of directions in this gap, so the ascent's
        # and the descent's best are maxima over the same set
        gap = Subspace.from_spanning(_unitize(b.basis, against=a)).basis
        if isinstance(strategy, ExactEigen):
            w, v = np.linalg.eigh(gap.T @ obj.scatter @ gap)
            up_unit, up_v = gap @ v[:, -1], fa + float(w[-1])
            down_unit, down_v = gap @ v[:, 0], fb - float(w[0])
        else:
            raw = _directions(strategy, gap.shape[1], rng)

            def propose(raw):
                return gap @ _unitize(raw)

            up_v, up_unit, _, _ = _best_direction(
                raw, strategy, propose, _scorer(obj, ea, 1), len(ea), gap=gap)
            down_v, down_unit, _, _ = _best_direction(
                raw, strategy, propose, _scorer(obj, eb, -1), len(eb), gap=gap)
        alpha, beta = up_v - fa, down_v - fb
        record = {"iteration": it, "alpha": alpha, "beta": beta,
                  "a_height": a.dim, "b_height": b.dim, "a_leq_b": True}
        if alpha >= beta:
            a, ea, fa = _valued(obj, vjoin(a, Direction(up_unit)))
            record["choice"] = "ascend"
            record["direction"] = up_unit.tolist()
        else:
            b, eb, fb = _valued(obj, codim1_descend(b, Direction(down_unit)))
            record["choice"] = "descend"
            record["direction"] = down_unit.tolist()
        report.iterations.append(record)
        it += 1
    report.value = float(fa)
    report.basis = a.to_json_dict()
    report.meta["iterations_used"] = it
    return report
