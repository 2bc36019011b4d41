"""Spans and counters around the public calls of each latmax module.

The tracer patches functions and methods at the module attributes and
class attributes their callers look up, so ``src/`` is not edited. Each
wrapped call records a span (name, start, end, parent span, session id)
in memory; tiny hot methods (order queries, admissibility tests) are
only counted, because a span per call there would mostly measure the
wrapper. ``aggregate`` turns the spans into per-layer metrics after the
run: a layer's self time is its span time minus the time its child
spans cover.

Everything runs on one thread with no queues, so no layer ever waits
and no wait time is recorded.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "lattice", "dictionary", "subspaces", "objectives",
          "solvers", "oracle", "diagnostics", "experiments")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self.stack: list[int] = []
        self.session = -1
        self.counts: dict[int, dict] = {}
        self.counters: dict = {}
        self.seen: set = set()
        self._patches: list = []

    def start_session(self, session: int) -> None:
        self.session = session
        self.counters = self.counts.setdefault(session, defaultdict(float))
        self.seen = set()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key: str, n=1) -> None:
        self.counters[key] += n

    def parent_name(self) -> str | None:
        """Name of the innermost open span, for use in post hooks."""
        if not self.stack:
            return None
        return self.names[self.spans[self.stack[-1]][0]]

    # -- wrappers ---------------------------------------------------------

    def span(self, name, fn, post=None, name_of=None):
        """Wrap fn in a span; post(tracer, args, result) runs after it
        closes; name_of(args) picks a span name per call."""
        fixed = self.name_id(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = fixed if name_of is None else self.name_id(name_of(args))
            idx = len(spans)
            spans.append([nid, 0.0, 0.0, stack[-1] if stack else -1, self.session])
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec = spans[idx]
                rec[2] = perf_counter()
                rec[1] = t0
                stack.pop()
            if post is not None:
                post(self, args, out)
            return out
        return wrapper

    def counter(self, key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- patching ---------------------------------------------------------

    def patch(self, owner, attr, make) -> None:
        """Replace owner.attr by make(original); restored by uninstall."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, raw))
        if isinstance(raw, functools.cached_property):
            new = functools.cached_property(make(raw.func))
            new.__set_name__(owner, attr)
        elif isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        setattr(owner, attr, new)

    def patch_span(self, owner, attr, name, post=None, name_of=None) -> None:
        self.patch(owner, attr, lambda fn: self.span(name, fn, post, name_of))

    def patch_count(self, owner, attr, key) -> None:
        self.patch(owner, attr, lambda fn: self.counter(key, fn))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def install(self) -> None:
        import latmax.cli as cli
        import latmax.diagnostics as diagnostics
        import latmax.dictionary as dictionary
        import latmax.experiments as experiments
        import latmax.lattice as lattice
        import latmax.objectives as objectives
        import latmax.solvers as solvers
        import latmax.subspaces as subspaces

        # cli: one root span per CLI call
        def after_main(t, args, rc):
            t.add("cli.calls")
            t.add("cli.failed", rc != 0)
        self.patch_span(cli, "main", "cli:main", after_main)
        self.patch_span(cli, "load_objective", "cli:load_objective")
        self.patch_span(cli, "load_lattice", "cli:load_lattice")

        # lattice: tables and scans get spans; order queries and
        # admissibility tests are counted
        finite = (lattice.FiniteLattice, lattice.SetLattice, dictionary.EnumeratedLattice)
        for cls in finite:
            own = cls.__dict__
            for attr in ("leq", "join", "meet", "height"):
                if attr in own:
                    self.patch_count(cls, attr, "lattice.order_queries")
            for attr in ("is_admissible", "admissibles"):
                if attr in own:
                    self.patch_count(cls, attr, "lattice.admissibility_calls")
            if "__init__" in own:
                self.patch_count(cls, "__init__", "lattice.instances")
            for attr in ("_leq", "_join_table", "_meet_table", "heights",
                         "_join_irreducibles", "incrementality", "is_modular"):
                if attr in own and not isinstance(own[attr], property):
                    self.patch_span(cls, attr, f"lattice:{cls.__name__}.{attr}")
        self.patch_span(lattice.FiniteLattice, "closure_of", "lattice:closure_of",
                        lambda t, a, r: t.add("lattice.closure_calls"))

        # dictionary: enumeration and the coherence report
        def after_enum(t, args, lat):
            t.add("dictionary.enumerations")
            t.add("dictionary.elements", lat.n)
        for mod in (cli, diagnostics, dictionary):
            self.patch_span(mod, "enumerate_lattice", "dictionary:enumerate_lattice",
                            after_enum)
        self.patch_span(dictionary, "lattice_coherence_report", "dictionary:coherence",
                        lambda t, a, r: t.add("dictionary.coherence_pairs", a[0].n ** 2))

        # subspaces: joins, meets, descents, orthonormalization
        def after_vjoin(t, args, out):
            t.add("subspaces.vjoin_calls")
            if t.parent_name() == "dictionary:enumerate_lattice":
                t.add("dictionary.spans_computed")
        for mod in (subspaces, dictionary, solvers, diagnostics):
            self.patch_span(mod, "vjoin", "subspaces:vjoin", after_vjoin)
        self.patch_span(subspaces, "vmeet", "subspaces:vmeet")
        self.patch_span(solvers, "codim1_descend", "subspaces:codim1_descend")
        self.patch_span(subspaces.Subspace, "from_spanning", "subspaces:from_spanning")

        # objectives: element values, batched candidate scoring, costs
        def after_value(t, args, out):
            obj, lat, e = args[0], args[1], args[2]
            t.add("objectives.value_calls")
            key = (type(obj).__name__, lat.n, int(e))
            if key not in t.seen:
                t.seen.add(key)
                t.add("objectives.distinct_values")
        for cls in (objectives.PCAObjective, objectives.QuantumCutObjective,
                    objectives.TableObjective):
            self.patch_span(cls, "value", "objectives:value", after_value)
            self.patch_span(cls, "__init__", "objectives:init")

        def after_batch(t, args, out):
            e = args[1]
            if getattr(e, "ndim", 1) == 2:
                t.add("objectives.candidates_scored", e.shape[1])
                t.counters["objectives.energy_bytes"] = max(
                    t.counters["objectives.energy_bytes"], e.shape[0] * e.shape[1] * 8)
        for cls in (objectives.PCAObjective, objectives.GeneralizedPCAObjective,
                    objectives.QuantumCutObjective):
            self.patch_span(cls, "value_from_scratch_energies", "objectives:batch",
                            after_batch)
        self.patch_span(objectives.GeneralizedPCAObjective, "__init__", "objectives:init")
        self.patch_span(objectives.ModularCost, "__init__", "objectives:init")
        self.patch_span(objectives.ModularCost, "of", "objectives:cost_of",
                        lambda t, a, r: t.add("objectives.cost_of_calls"))

        # solvers: one span per solve, named apart on the subspace lattice
        def solver_name(base):
            def name_of(args):
                vec = isinstance(args[1], subspaces.VectorLattice)
                return f"solvers:{base}" + ("[vector]" if vec else "")
            return name_of

        def after_solve(t, args, rep):
            t.add("solvers.steps", len(rep.iterations))
            if isinstance(args[1], subspaces.VectorLattice):
                t.add("solvers.vector_steps", len(rep.iterations))
        for fn in ("greedy_height", "greedy_knapsack", "double_greedy"):
            self.patch_span(cli, fn, f"solvers:{fn}", after_solve, solver_name(fn))
        self.patch_span(experiments, "greedy_height", "solvers:greedy_height",
                        after_solve, solver_name("greedy_height"))

        # oracle
        self.patch_span(cli, "brute_force_max", "oracle:brute_force_max",
                        lambda t, a, r: t.add("oracle.feasible", r.feasible_count))

        # diagnostics: the three scans (the cli looks them up in a table),
        # the saturation check, and the value tables each scan rebuilds
        def after_gap(t, args, rep):
            t.add("diagnostics.excluded_triples", rep.excluded_triples)
        self.patch(cli, "_GAP_MEASURES", lambda table: {
            key: self.span(f"diagnostics:{key}", fn, after_gap)
            for key, fn in table.items()})
        self.patch_span(diagnostics, "measure_downward_gap", "diagnostics:downward",
                        after_gap)
        self.patch_span(cli, "check_saturation_gap_bound", "diagnostics:saturation")
        self.patch_count(diagnostics, "_values", "diagnostics.value_tables")

        # experiments: mixture draws, output files, the study itself
        for mod in (cli, experiments):
            self.patch_span(mod, "generate_mixture", "experiments:generate")
        self.patch_span(cli, "write_scatter_csvs", "experiments:write")
        self.patch_span(cli, "write_summary_json", "experiments:write")
        self.patch_span(cli, "run_appendix_experiment", "experiments:run")

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans,
                "counts": {str(s): dict(c) for s, c in self.counts.items()}}


def aggregate(dump: dict, session_times: dict[int, float]) -> dict[str, float]:
    """Per-layer metrics from a tracer dump, per traced session.

    Times are seconds per session: self time (span time minus child span
    time) unless the name says otherwise. Counts are per session, except
    ``objectives.energy_bytes`` (the largest energy buffer of one call)
    and the ratios named below.
    """
    names, spans = dump["names"], dump["spans"]
    child = [0.0] * len(spans)
    for nid, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    own = defaultdict(float)
    incl = defaultdict(float)
    for i, (nid, t0, t1, _, session) in enumerate(spans):
        if session in session_times:
            own[names[nid]] += t1 - t0 - child[i]
            incl[names[nid]] += t1 - t0
    layer = defaultdict(float)
    for name, t in own.items():
        layer[name.split(":")[0]] += t

    c = defaultdict(float)
    for session, counts in dump["counts"].items():
        if int(session) in session_times:
            for key, v in counts.items():
                if key == "objectives.energy_bytes":
                    c[key] = max(c[key], v)
                else:
                    c[key] += v

    n = len(session_times)
    total = sum(session_times.values())

    def ratio(a, b):
        return a / b if b else 0.0

    def own_of(prefix):
        return sum(t for name, t in own.items() if name.startswith(prefix))

    vector_self = sum(t for name, t in own.items()
                      if name.startswith("solvers:") and name.endswith("[vector]"))
    m = {
        "cli.self_s": layer["cli"] / n,
        "cli.load_s": own["cli:load_objective"] / n,
        "cli.calls": c["cli.calls"] / n,
        "cli.failed": c["cli.failed"] / n,
        "lattice.self_s": layer["lattice"] / n,
        "lattice.admissibility_calls": c["lattice.admissibility_calls"] / n,
        "lattice.closure_calls": c["lattice.closure_calls"] / n,
        "lattice.order_queries": c["lattice.order_queries"] / n,
        "lattice.instances": c["lattice.instances"] / n,
        "dictionary.enumerate_s": incl["dictionary:enumerate_lattice"] / n,
        "dictionary.enumerations_per_session": c["dictionary.enumerations"] / n,
        "dictionary.elements": ratio(c["dictionary.elements"], c["dictionary.enumerations"]),
        "dictionary.spans_per_element": ratio(c["dictionary.spans_computed"],
                                              c["dictionary.elements"]),
        "dictionary.coherence_s": incl["dictionary:coherence"] / n,
        "dictionary.coherence_pairs": c["dictionary.coherence_pairs"] / n,
        "subspaces.self_s": layer["subspaces"] / n,
        "subspaces.vjoin_calls": c["subspaces.vjoin_calls"] / n,
        "objectives.value_calls": c["objectives.value_calls"] / n,
        "objectives.value_s": incl["objectives:value"] / n,
        "objectives.value_repeat_ratio": ratio(c["objectives.value_calls"],
                                               c["objectives.distinct_values"]),
        "objectives.batch_s": incl["objectives:batch"] / n,
        "objectives.candidates_scored": c["objectives.candidates_scored"] / n,
        "objectives.energy_bytes": c["objectives.energy_bytes"],
        "objectives.cost_of_calls": c["objectives.cost_of_calls"] / n,
        "solvers.greedy_s": own_of("solvers:greedy_height") / n,
        "solvers.knapsack_s": own_of("solvers:greedy_knapsack") / n,
        "solvers.double_greedy_s": own_of("solvers:double_greedy") / n,
        "solvers.steps": c["solvers.steps"] / n,
        "solvers.inner_search_s_per_step": ratio(vector_self, c["solvers.vector_steps"]),
        "solvers.candidates_per_step": ratio(c["objectives.candidates_scored"],
                                             c["solvers.vector_steps"]),
        "oracle.self_s": layer["oracle"] / n,
        "oracle.feasible": c["oracle.feasible"] / n,
        "diagnostics.strong_s": own["diagnostics:strong"] / n,
        "diagnostics.downward_s": own["diagnostics:downward"] / n,
        "diagnostics.upward_s": own["diagnostics:upward"] / n,
        "diagnostics.saturation_s": own["diagnostics:saturation"] / n,
        "diagnostics.excluded_triples": c["diagnostics.excluded_triples"] / n,
        "diagnostics.value_tables": c["diagnostics.value_tables"] / n,
        "experiments.generate_s": incl["experiments:generate"] / n,
        "experiments.write_s": incl["experiments:write"] / n,
        "experiments.self_s": layer["experiments"] / n,
    }
    for name in LAYERS:
        m[f"{name}.share"] = ratio(layer[name], total)
    return m
