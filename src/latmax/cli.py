"""Command line front end for the solvers, the exhaustive oracle, the gap
diagnostics, and the mixture study.

Input conventions, shared by every subcommand that takes them:

* ``--lattice``: ``set:N`` for the subset lattice on N items, ``vector:D``
  for the subspace lattice of R^D, or a path to a JSON file with either
  ``{"kind": "dictionary", "atoms": [[...], ...]}`` (the lattice is
  enumerated from the spans) or ``{"kind": "explicit", "n": ...,
  "cover_edges": [[lo, hi], ...], "labels": [...]}``.
* ``--objective``: ``pca`` or ``gpca`` read ``--data`` (CSV, one vector per
  row); ``qcut``/``cut`` read ``--graph`` (JSON with ``vertices`` and
  ``edges``); ``table`` reads ``--table`` (JSON with ``values``).
* ``--rho`` (gpca only): ``identity``, ``capped:THRESHOLD[:SLOPE]``,
  ``fractional[:FRACTION[:SLOPE]]`` (per-datum thresholds), or a JSON file.
* ``--strategy``: ``exhaustive``, ``exact-eigen``, ``grid[:WIDTH[:ROUNDS]]``,
  or ``random[:SAMPLES[:SEED]]``; SEED is accepted and ignored, as ``--seed``
  seeds the draw.
* ``--cost`` (knapsack/oracle): ``uniform[:STEP]`` or a JSON file
  ``{"base": 0.0, "increments": {"<element-id>": weight, ...}}`` keyed by
  join-irreducible element ids.
* ``--report FILE``: write the full JSON report; a short summary always
  goes to stdout. Report schemas mirror ``to_json_dict`` of SolveReport,
  BruteForceResult, and GapReport and are stable.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from .diagnostics import (
    check_coherence_bound,
    check_saturation_gap_bound,
    measure_downward_gap,
    measure_strong_gap,
    measure_upward_gap,
)
from .dictionary import Dictionary, EnumeratedLattice, enumerate_lattice
from .experiments import (
    MixtureSpec,
    generate_mixture,
    run_appendix_experiment,
    write_scatter_csvs,
    write_summary_json,
)
from .lattice import ExplicitLattice, FiniteLattice, NotALatticeError, SetLattice
from .objectives import (
    ConcaveRho,
    GeneralizedPCAObjective,
    ModularCost,
    PCAObjective,
    QuantumCutObjective,
    TableObjective,
    WeightedDigraph,
    fractional_energy_family,
    rho_from_json_dict,
)
from .oracle import brute_force_max
from .solvers import (
    Grid,
    double_greedy,
    greedy_height,
    greedy_knapsack,
    spec_fields,
    strategy_from_name,
)
from .subspaces import VectorLattice, load_vectors_csv

_GAP_MEASURES = {
    "strong": measure_strong_gap,
    "downward": measure_downward_gap,
    "upward": measure_upward_gap,
}


def _read_json(path, load):
    """Parse the JSON input at ``path`` and build it with ``load``. A key that
    ``load`` needs and the file lacks, a value of the wrong type, or one that
    ``load`` refuses, is reported with the file, and with the input's kind
    when it names one; so is a file that is not JSON."""
    what = "input"
    try:
        doc = json.loads(Path(path).read_text())
        kind = doc.get("kind") if isinstance(doc, dict) else None
        if isinstance(kind, str):
            what = f"{kind} input"
        return load(doc)
    except KeyError as exc:
        raise ValueError(f"{what} {path} has no {exc.args[0]!r} key") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what} {path}: {exc}") from None


def _converted(doc, key, convert, *default):
    """``convert(doc[key])``, or of ``default`` when one is given and the key
    is missing; a value that ``convert`` refuses is reported with its key."""
    value = doc.get(key, *default) if default else doc[key]
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise TypeError(f"{key!r}: {exc}") from None


def _integer(value):
    """``value`` if it is a JSON integer; ``int`` would truncate 2.5."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"must be an integer, got {value!r}")
    return value


def _number(value):
    """``value`` if it is a JSON number; ``float`` would take "0.5" and true."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"must be a number, got {value!r}")
    return value


def _numbers(doc, key, container):
    """``doc[key]``, checked to be a JSON list (``container`` is ``list``) or
    object (``dict``) whose values are all numbers."""
    value = doc[key]
    items = value.values() if isinstance(value, dict) else value
    if not (isinstance(value, container)
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in items)):
        shape = "a list" if container is list else "an object"
        raise TypeError(f"{key!r} must be {shape} of numbers")
    return value


def _lattice_from_json(doc):
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind == "dictionary":
        return enumerate_lattice(Dictionary.from_json_dict(doc))
    if kind == "explicit":
        edges = [tuple(e) for e in doc["cover_edges"]]
        return ExplicitLattice.from_cover_edges(_converted(doc, "n", _integer), edges,
                                                labels=doc.get("labels"))
    raise ValueError(f"unknown lattice kind {kind!r}")


def load_lattice(arg: str):
    kind, fields = spec_fields(arg, "set:N", "vector:D")
    if kind == "set":
        return SetLattice(int(fields[0]))
    if kind == "vector":
        return VectorLattice(int(fields[0]))
    return _read_json(arg, _lattice_from_json)


def _load_rho(arg, data):
    if arg is None:
        return fractional_energy_family(data)
    if arg == "identity":
        return ConcaveRho.identity()
    kind, fields = spec_fields(arg, "capped:THRESHOLD[:SLOPE]", "fractional[:FRACTION[:SLOPE]]")
    if kind == "capped":
        return ConcaveRho.capped(*map(float, fields))
    if kind == "fractional":
        return fractional_energy_family(data, *map(float, fields))
    return _read_json(arg, _rho_from_json)


def _rho_from_json(doc):
    """``rho_from_json_dict`` on a document whose numbers, where present,
    are JSON numbers and whose knot and threshold lists hold only those."""
    if isinstance(doc, dict):
        for key in ("threshold", "slope"):
            if key in doc:
                _converted(doc, key, _number)
        for key in ("t", "y", "thresholds"):
            if key in doc:
                _numbers(doc, key, list)
    return rho_from_json_dict(doc)


def load_objective(args, lat):
    """Build the objective named by --objective and check its input sizes
    against the lattice it will be evaluated on."""
    name = args.objective
    if name == "table":
        if not args.table:
            raise ValueError("--objective table requires --table")
        if not isinstance(lat, FiniteLattice):
            raise ValueError("--objective table needs a finite lattice")
        obj = _read_json(args.table, lambda doc: TableObjective(_numbers(doc, "values", list)))
        if obj.values.size != lat.n:
            raise ValueError(f"--table holds {obj.values.size} values, lattice has {lat.n} elements")
        return obj
    if name in ("pca", "gpca"):
        if not args.data:
            raise ValueError(f"--objective {name} requires --data")
        data = load_vectors_csv(args.data)
        if name == "pca":
            obj = PCAObjective(data)
        else:
            obj = GeneralizedPCAObjective(data, _load_rho(args.rho, data))
        what = "--data rows"
    elif name in ("qcut", "cut"):
        if not args.graph:
            raise ValueError(f"--objective {name} requires --graph")
        if isinstance(lat, ExplicitLattice):
            raise ValueError(f"--objective {name} needs vertex sets or subspaces as elements; "
                             f"an explicit lattice has neither")
        obj = QuantumCutObjective(_read_json(args.graph, WeightedDigraph.from_json_dict))
        if isinstance(lat, SetLattice) and obj.graph.n_vertices != lat.n_items:
            raise ValueError(f"--graph has {obj.graph.n_vertices} vertices, "
                             f"lattice has {lat.n_items} items")
        what = "--graph vertices"
    else:
        raise ValueError(f"unknown objective {name!r}")
    dim = (lat.dictionary.ambient_dim if isinstance(lat, EnumeratedLattice)
           else getattr(lat, "ambient_dim", None))
    if dim is not None and obj.ambient_dim != dim:
        raise ValueError(f"{what} have dimension {obj.ambient_dim}, "
                         f"lattice ambient dimension is {dim}")
    return obj


def _load_cost(arg, lat):
    if not isinstance(lat, FiniteLattice):
        raise TypeError("costs and budgets need a finite lattice")
    arg = arg or "uniform"
    kind, fields = spec_fields(arg, "uniform[:STEP]")
    if kind == "uniform":
        return ModularCost.uniform(lat, *map(float, fields))
    return _read_json(arg, lambda doc: ModularCost(lat, _numbers(doc, "increments", dict),
                                                   base=_converted(doc, "base", _number, 0.0)))


def _emit(doc: dict, args, summary: str) -> None:
    print(summary)
    if getattr(args, "report", None):
        path = Path(args.report)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"report written to {path}")


def cmd_greedy(args) -> int:
    lat = load_lattice(args.lattice)
    obj = load_objective(args, lat)
    rep = greedy_height(obj, lat, args.k,
                        strategy=strategy_from_name(args.strategy),
                        seed=args.seed)
    where = f"element {rep.element}" if rep.element is not None else "basis in report"
    _emit(rep.to_json_dict(), args,
          f"greedy value {rep.value:.10g} after {len(rep.iterations)} steps ({where})")
    return 0


def cmd_knapsack(args) -> int:
    lat = load_lattice(args.lattice)
    obj = load_objective(args, lat)
    cost = _load_cost(args.cost, lat)
    rep = greedy_knapsack(obj, lat, cost, args.budget)
    _emit(rep.to_json_dict(), args,
          f"knapsack value {rep.value:.10g} at element {rep.element} "
          f"(winner: {rep.meta['winner']})")
    return 0


def cmd_double_greedy(args) -> int:
    lat = load_lattice(args.lattice)
    obj = load_objective(args, lat)
    rep = double_greedy(obj, lat, strategy=strategy_from_name(args.strategy),
                        seed=args.seed)
    where = f"element {rep.element}" if rep.element is not None else "basis in report"
    _emit(rep.to_json_dict(), args,
          f"double-greedy value {rep.value:.10g} "
          f"in {rep.meta['iterations_used']} iterations ({where})")
    return 0


def cmd_oracle(args) -> int:
    lat = load_lattice(args.lattice)
    obj = load_objective(args, lat)
    cost = _load_cost(args.cost, lat) if args.budget is not None else None
    res = brute_force_max(obj, lat, height_cap=args.k,
                          cost=cost, budget=args.budget)
    _emit(res.to_json_dict(), args,
          f"oracle optimum {res.value:.10g} at element {res.element} "
          f"({res.feasible_count} feasible)")
    return 0


def cmd_diagnose(args) -> int:
    lat = load_lattice(args.lattice)
    obj = load_objective(args, lat)
    directions = list(_GAP_MEASURES) if args.direction == "all" else [args.direction]
    doc: dict = {"reports": {}, "checks": {}}
    failures = []
    reports = {}
    for direction in directions:
        rep = reports[direction] = _GAP_MEASURES[direction](obj, lat)
        doc["reports"][direction] = rep.to_json_dict()
        if args.max_delta is not None and rep.measured_delta > args.max_delta:
            failures.append(f"{direction} delta {rep.measured_delta:.3e} "
                            f"> {args.max_delta:.3e}")
    if args.check_saturation:
        check = check_saturation_gap_bound(obj, lat, downward=reports.get("downward"))
        doc["checks"]["saturation"] = check.to_json_dict()
        if not check.holds:
            failures.append("saturation bound violated")
    if args.check_coherence:
        dic = _read_json(args.check_coherence, Dictionary.from_json_dict)
        check = check_coherence_bound(dic)
        doc["checks"]["coherence"] = check.to_json_dict()
        if check.applicable and not check.holds:
            failures.append("coherence bound violated")
    doc["ok"] = not failures
    print(json.dumps(doc, indent=2))
    if getattr(args, "report", None):
        Path(args.report).write_text(json.dumps(doc, indent=2) + "\n")
    for line in failures:
        print(f"FAIL: {line}", file=sys.stderr)
    return 1 if failures else 0


def cmd_experiment(args) -> int:
    if args.which != "appendix":
        raise ValueError(f"unknown experiment {args.which!r}")
    spec = MixtureSpec(q=args.q, n_samples=args.samples, seed=args.seed)
    rho = None if args.rho is None else _load_rho(args.rho, generate_mixture(spec))
    report = run_appendix_experiment(spec, rho=rho,
                                     strategy=Grid(width=args.width))
    out = Path(args.out)
    paths = write_scatter_csvs(generate_mixture(spec), out)
    summary = write_summary_json(report, out / "summary.json")
    print(f"plain plane {report.plain.plane}, "
          f"generalized plane {report.generalized.plane}")
    for p in paths + [summary]:
        print(f"wrote {p}")
    return 0


def _add_instance_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--objective", required=True,
                   choices=["pca", "gpca", "qcut", "cut", "table"])
    p.add_argument("--lattice", required=True,
                   help="set:N, vector:D, or a lattice JSON file")
    p.add_argument("--data", help="CSV data file for pca/gpca")
    p.add_argument("--graph", help="JSON graph file for qcut/cut")
    p.add_argument("--table", help="JSON value-table file")
    p.add_argument("--rho", help="gpca reshaping (see module help)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", help="write the full JSON report here")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parsing leaves it
    unchanged, and every build leaves cyclic garbage behind."""
    parser = argparse.ArgumentParser(
        prog="latmax",
        description="Monotone objective maximization over finite and "
                    "subspace lattices.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("greedy", help="height-capped greedy ascent")
    _add_instance_flags(p)
    p.add_argument("--k", type=int, required=True, help="height budget")
    p.add_argument("--strategy", help="inner direction strategy")
    p.set_defaults(func=cmd_greedy)

    p = sub.add_parser("knapsack", help="budgeted density greedy")
    _add_instance_flags(p)
    p.add_argument("--budget", type=float, required=True)
    p.add_argument("--cost", help="uniform[:STEP] or a JSON cost file")
    p.set_defaults(func=cmd_knapsack)

    p = sub.add_parser("double-greedy", help="unconstrained ascent/descent")
    _add_instance_flags(p)
    p.add_argument("--strategy", help="inner direction strategy")
    p.set_defaults(func=cmd_double_greedy)

    p = sub.add_parser("oracle", help="exhaustive maximization")
    _add_instance_flags(p)
    p.add_argument("--k", type=int, help="height cap")
    p.add_argument("--budget", type=float, help="cost budget")
    p.add_argument("--cost", help="uniform[:STEP] or a JSON cost file")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("diagnose", help="measure submodularity gaps")
    _add_instance_flags(p)
    p.add_argument("--direction", default="all",
                   choices=["all", "strong", "downward", "upward"])
    p.add_argument("--max-delta", type=float,
                   help="fail (exit 1) if a measured gap exceeds this")
    p.add_argument("--check-saturation", action="store_true",
                   help="also assert the coherence-scaled gap bound")
    p.add_argument("--check-coherence", metavar="DICT_JSON",
                   help="also assert the lattice-coherence bound for a dictionary")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("experiment", help="canned studies")
    p.add_argument("which", choices=["appendix"])
    p.add_argument("--q", type=float, default=0.95)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--width", type=float, default=0.025)
    p.add_argument("--rho", help="override the per-datum reshaping")
    p.add_argument("--out", default="appendix_out")
    p.set_defaults(func=cmd_experiment)

    return parser


def _check_limits(args) -> None:
    """A height cap is nonnegative and a budget finite."""
    k, budget = getattr(args, "k", None), getattr(args, "budget", None)
    if k is not None and k < 0:
        raise ValueError(f"--k must be nonnegative, got {k}")
    if budget is not None and not math.isfinite(budget):
        raise ValueError(f"--budget must be finite, got {budget}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_limits(args)
        return args.func(args)
    except (ValueError, TypeError, NotALatticeError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
