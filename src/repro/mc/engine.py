"""The path-sensitive analysis engine — the back half of the xg++ analog.

:func:`run_machine` replays a metal state machine down every execution
path of a function's CFG.  Like xgcc, it memoizes on ``(block, state)``
pairs: once a machine has entered a block in a given state, re-entering
in the same state cannot produce new behaviour, so whole families of
exponentially many paths are covered in linear work.

The walk runs over a checker-aware slice of the CFG
(:mod:`repro.mc.summary`): per-event candidate nodes, dead-tail
merging, whole-function skipping, and reusable per-function summaries
(:class:`repro.mc.cache.FunctionSummaryStore`).  The unsliced walk is
kept as a test oracle only: setting :data:`_PATHS_ORACLE` swaps in
:class:`_IdentitySlice`, and the differential tests hold reports,
suppressed reports, provenance, and confidence byte-identical between
the two (docs/engine.md).
"""

from __future__ import annotations

from typing import Optional

from ..cfg import Cfg, build_cfg
from ..lang import ast
from ..lang.source import Location
from ..metal.runtime import MatchContext, ReportSink
from ..metal.sm import StateMachine
from ..obs.metrics import current_metrics
from ..obs.provenance import build_steps, report_key
from ..obs.trace import MAX_PATH_SPANS_PER_FUNCTION, current_tracer
from . import feasibility as _feas
from . import summary as _summary
from .cache import FunctionSummary, function_summaries
from .resilience import Budget, Quarantine


#: Test-only: when True, :func:`run_machine` walks the unsliced CFG
#: (:class:`_IdentitySlice`, no summary store) — the paths oracle the
#: differential tests compare against.  Tests flip it with
#: ``unittest.mock.patch.object``; it is read per call, so it reaches
#: checkers that imported ``run_machine`` directly, in-process only.
_PATHS_ORACLE = False


class _IdentitySlice:
    """The paths oracle's slice: every node of every event is stepped.

    Independent of the slicer on purpose — nodes come from
    ``event.walk()`` and opaque regions from its own scan, never from
    :func:`repro.mc.summary.event_index` — and nothing is skipped: no
    dead tails, no whole-function skip, no sliced-out nodes to charge.
    """

    def __init__(self):
        self._opaque: dict[int, bool] = {}

    def candidates(self, event: ast.Node):
        return event.walk()

    def event_opaque(self, event: ast.Node) -> bool:
        cached = self._opaque.get(id(event))
        if cached is None:
            cached = self._opaque[id(event)] = any(
                isinstance(n, (ast.OpaqueStmt, ast.OpaqueExpr))
                for n in event.walk())
        return cached

    def skipped_nodes(self, event: ast.Node) -> int:
        return 0

    def skip_edge(self, edge) -> bool:
        return False


class _OutOfBudget(Exception):
    """Internal: the active Budget ran out mid-exploration."""


class _Run:
    """Shared pieces of one machine-over-one-function execution.

    Also the accounting point for observability: every run counts its
    machine steps, fired transitions, created (block, state) pairs, and
    path ends (flushed to the active metrics registry and trace span by
    :func:`run_machine`), and tracks enough position — the current
    (block, state) key, event ordinal, and in-block transitions — for
    :mod:`repro.obs.provenance` to reconstruct the trail behind each
    new diagnostic.
    """

    def __init__(self, sm: StateMachine, cfg: Cfg, sink: ReportSink,
                 budget: Optional[Budget],
                 feas: Optional["_feas.FunctionFeasibility"],
                 cfg_slice):
        self.sm = sm
        self.cfg = cfg
        self.sink = sink
        self.budget = budget
        self.function = cfg.function
        # Feasibility: None when pruning is off for this run.
        self.feas = feas
        self.current_store: Optional[_feas.Store] = None
        # The machine's slice of the CFG (an _IdentitySlice for the
        # paths oracle).
        self.cfg_slice = cfg_slice
        # Work counters (see class docstring).
        self.steps = 0
        self.transitions = 0
        self.states = 0
        self.path_ends = 0
        self.pruned_edges = 0
        # Join points: (block, state, store, opaque) points reached again
        # and folded into the first visit instead of being re-explored.
        self.merged = 0
        # Machine states observed at function exits (path ends) — the
        # "entry-state → exit-states" face of a function summary.
        self.exit_states: set[str] = set()
        # Provenance position: where the machine is right now.
        self.parents: dict[tuple, tuple] = {}
        self.block_transitions_by_key: dict[tuple, list] = {}
        self.pruned_by_key: dict[tuple, list] = {}
        self.current_key: Optional[tuple] = None
        self.current_ordinal = 0
        self._block_transitions: Optional[list] = None
        self.tracer = current_tracer()
        # Tolerant frontend: True while the current path has crossed an
        # opaque (unparsed) region — reports fired past that point are
        # held back by :meth:`opaque_gate`.
        self.path_opaque = False
        self._suppressed_before = len(sink.suppressed)

    def opaque_gate(self, report) -> Optional[str]:
        """``ReportSink.report_gate`` hook: suppress on opaque paths."""
        return "opaque" if self.path_opaque else None

    def ctx_factory(self, node: ast.Node, bindings: dict, state: str) -> MatchContext:
        facts = None
        if self.feas is not None and self.current_store is not None:
            facts = _feas.FactsView(self.feas, self.current_store)
        return MatchContext(
            checker=self.sm.name,
            node=node,
            bindings=bindings,
            function=self.function,
            sink=self.sink,
            state=state,
            facts=facts,
        )

    def run_block_events(self, block, state: str) -> tuple[str, bool]:
        """Feed one block's events through the machine.

        Returns ``(state_after, stopped)``.  Only the slice's candidate
        nodes are stepped (any other step is a proven no-op, see
        repro.mc.summary), but every event is visited in order, so
        ordinals, opaque poisoning, and the feasibility transfer match
        the unsliced walk.  With feasibility on, the abstract store is
        advanced across each event *after* the machine has seen it, so
        checker actions observe the facts established by prior events on
        the path.
        """
        cfg_slice = self.cfg_slice
        for ordinal, event in enumerate(block.events):
            self.current_ordinal = ordinal
            if not self.path_opaque and cfg_slice.event_opaque(event):
                # Poison the path *before* stepping the machine over the
                # event, so a rule firing on the opaque region itself is
                # already held back.
                self.path_opaque = True
            if self.budget is not None:
                # Sliced-out nodes are charged but not stepped, so a
                # budgeted run exhausts at the same work level as the
                # unsliced walk would.
                for _ in range(cfg_slice.skipped_nodes(event)):
                    if not self.budget.charge_step():
                        raise _OutOfBudget()
            for node in cfg_slice.candidates(event):
                if self.budget is not None and not self.budget.charge_step():
                    raise _OutOfBudget()
                self.steps += 1
                result = self.sm.step(state, node, self.ctx_factory)
                if result.fired is not None:
                    self.transitions += 1
                    if (result.state != state
                            and self._block_transitions is not None):
                        loc = node.location
                        self._block_transitions.append(
                            (ordinal, loc.filename, loc.line, state,
                             result.state, result.fired.name))
                state = result.state
                if result.stopped:
                    return state, True
            if self.feas is not None and self.current_store is not None:
                self.current_store = self.feas.transfer_event(
                    self.current_store, event)
        return state, False

    def at_path_end(self, state: str) -> None:
        self.path_ends += 1
        self.exit_states.add(state)
        if self.sm.path_end_action is None:
            return
        # Past every event ordinal, so provenance keeps the whole block.
        self.current_ordinal = 1 << 30
        marker = ast.Ident(name="<function-exit>",
                           location=self.function.location)
        ctx = self.ctx_factory(marker, {}, state)
        self.sm.path_end_action(state, ctx)

    def attach_provenance(self, report) -> None:
        """Record the trail behind a report the first time it fires."""
        key = report_key(report)
        if key in self.sink.provenance or self.current_key is None:
            return
        try:
            self.sink.provenance[key] = build_steps(
                self.cfg, self.parents, self.block_transitions_by_key,
                self.current_key, self.current_ordinal, report,
                pruned=self.pruned_by_key)
        except Exception:
            # Provenance is best-effort; it must never break analysis.
            pass


def _edge_state(sm: StateMachine, block, state: str, edge) -> str:
    """Apply the machine's edge-sensitive hook, if any.

    The hook only fires for ``true``/``false`` edges out of a block whose
    last event is the branch condition (how conditions are lowered by
    :mod:`repro.cfg.builder`).
    """
    if sm.branch_fn is None or not block.events:
        return state
    if edge.label not in ("true", "false"):
        return state
    override = sm.branch_fn(state, block.events[-1], edge.label)
    return override if override is not None else state


def _flush_run(run: _Run, span) -> None:
    """Fold one machine execution's counters into the active metrics
    registry and close its trace span (both no-ops when observability
    is off)."""
    metrics = current_metrics()
    if metrics is not None:
        metrics.inc("engine.functions")
        metrics.inc("engine.steps", run.steps)
        metrics.inc("engine.transitions", run.transitions)
        metrics.inc("engine.states", run.states)
        metrics.inc("engine.paths", run.path_ends)
        if run.pruned_edges:
            metrics.inc("engine.pruned_edges", run.pruned_edges)
        if run.merged:
            metrics.inc("engine.merged_states", run.merged)
        suppressed = len(run.sink.suppressed) - run._suppressed_before
        if suppressed > 0:
            metrics.inc("engine.suppressed_reports", suppressed)
    if span is not None:
        span.counters["steps"] = run.steps
        span.counters["transitions"] = run.transitions
        span.counters["states"] = run.states
        span.counters["paths"] = run.path_ends
        if run.pruned_edges:
            span.counters["pruned"] = run.pruned_edges
        if run.merged:
            span.counters["merged"] = run.merged
        span.__exit__(None, None, None)


def run_machine(sm: StateMachine, cfg: Cfg, sink: ReportSink, *,
                budget: Optional[Budget] = None,
                isolate: bool = False,
                feasibility: Optional[bool] = None) -> None:
    """Run ``sm`` over every path of ``cfg`` with (block, state) caching.

    With a ``budget``, exploration stops gracefully when it runs out:
    diagnostics found so far stay in ``sink``, which is marked
    ``degraded``.  With ``isolate=True``, an exception escaping the
    machine (a buggy checker action, a malformed pattern) quarantines
    this (checker, function) pair into ``sink.quarantines`` instead of
    propagating.

    ``feasibility`` controls correlated-branch pruning
    (:mod:`repro.mc.feasibility`): ``None`` defers to the process-wide
    ``--feasibility`` default.  When on, the visited set is keyed on
    ``(block, state, store)`` — stores are restricted to still-relevant
    facts at every edge, so the extra key component stays small — and
    edges whose condition contradicts the path's facts are pruned and
    counted (``engine.pruned_edges``).

    The walk covers a checker-aware slice of the CFG, merges away dead
    tails, skips functions the machine cannot observe, and serves
    repeat analyses of an unchanged function from the process-wide
    summary store — with reports, suppressions, provenance, and
    confidence byte-identical to the unsliced walk (docs/engine.md).
    Budgeted runs bypass the store: their outcome depends on the
    budget, not just on content.

    Every execution also records path provenance for each *new* report
    (``sink.provenance``), counts its work into the active metrics
    registry, and — when a tracer is active — emits a ``function`` span
    with a sample of ``path`` spans.
    """
    initial = sm.initial_state(cfg.function)
    if initial is None:
        return
    if feasibility is None:
        feasibility = _feas.default_enabled()
    walk_sink = sink
    store = store_key = None
    if _PATHS_ORACLE:
        cfg_slice = _IdentitySlice()
    else:
        cfg_slice = _summary.slice_for(sm, cfg)
        metrics = current_metrics()
        if cfg_slice.full_skip:
            # No pattern of this machine can match anything reachable
            # from the entry, and there is no path-end action: the
            # machine cannot observe this function at all.
            if metrics is not None:
                metrics.inc("engine.functions")
                metrics.inc("engine.skipped_functions")
            return
        if budget is None:
            store = function_summaries()
            store_key = store.key(cfg, entry_state=initial,
                                  feasibility=bool(feasibility))
            cached = store.get(sm, store_key)
            if cached is not None:
                _summary.merge_into(sink, cached)
                if metrics is not None:
                    metrics.inc("engine.functions")
                    metrics.inc("engine.summary_hits")
                return
            if metrics is not None:
                metrics.inc("engine.summary_misses")
            # Walk into a private sink so the summary records this
            # function's *full* emissions, not the delta left after
            # unit-wide de-duplication — a replay into any sink must
            # compose the way a live walk would.
            walk_sink = ReportSink()
    feas = _feas.for_cfg(cfg) if feasibility else None
    run = _Run(sm, cfg, walk_sink, budget, feas, cfg_slice)
    span = (run.tracer.span("function", cfg.name, checker=sm.name)
            if run.tracer.enabled else None)
    previous_hook = walk_sink.on_new_report
    previous_gate = walk_sink.report_gate
    walk_sink.on_new_report = run.attach_provenance
    walk_sink.report_gate = run.opaque_gate
    if budget is not None:
        budget.start_clock()
    completed = False
    try:
        _walk_cached(run, cfg)
        completed = True
    except _OutOfBudget:
        walk_sink.degraded = True
        walk_sink.degradation_notes.append(
            f"[{sm.name}] {cfg.name}: exploration stopped — {budget.note()}"
        )
        if span is not None:
            span.status = "degraded"
    except Exception as exc:
        if span is not None:
            span.status = "error"
        if not isolate:
            raise
        walk_sink.add_quarantine(Quarantine(
            checker=sm.name, function=cfg.name, phase="path-walk",
            error_type=type(exc).__name__, message=str(exc),
        ))
    finally:
        walk_sink.on_new_report = previous_hook
        walk_sink.report_gate = previous_gate
        _flush_run(run, span)
        if walk_sink is not sink:
            _summary.merge_into(sink, walk_sink)
            if (completed and store is not None and not walk_sink.degraded
                    and not walk_sink.quarantines):
                store.put(sm, store_key, FunctionSummary(
                    entry_state=initial,
                    exit_states=tuple(sorted(run.exit_states)),
                    reports=tuple(walk_sink.reports),
                    suppressed=tuple(walk_sink.suppressed),
                    provenance=dict(walk_sink.provenance),
                ))


def _walk_cached(run: _Run, cfg: Cfg) -> None:
    feas = run.feas
    cfg_slice = run.cfg_slice
    initial_store = feas.initial_store() if feas is not None else None
    visited: set[tuple] = set()
    stack: list[tuple] = [
        (cfg.entry, run.sm.initial_state(cfg.function), None, None,
         initial_store, None, False)
    ]
    path_spans = 0
    while stack:
        block, state, pred_key, edge_label, store, fact, opaque = stack.pop()
        # The opaque flag is part of the visited key: a block reached on
        # both a clean and a poisoned path must be explored under both,
        # or clean-path reports past the join would be lost.  Strict
        # parses carry a constant False here, so caching is unchanged.
        if feas is not None:
            key = (block.index, state, store.key(), opaque)
        else:
            key = (block.index, state, opaque)
        if key in visited:
            # A join point: this path reached an abstract state already
            # explored and is merged into the earlier visit.
            run.merged += 1
            continue
        visited.add(key)
        run.states += 1
        run.parents[key] = (pred_key, edge_label, fact)
        run.current_key = key
        run.current_store = store
        run.path_opaque = opaque
        in_block: list = []
        run._block_transitions = in_block
        state, stopped = run.run_block_events(block, state)
        store = run.current_store
        opaque = run.path_opaque
        if in_block:
            run.block_transitions_by_key[key] = in_block
        if stopped:
            continue
        if block is cfg.exit or not block.out_edges:
            # The exit, or a dead end that is not the exit (e.g. an
            # infinite loop body).
            run.at_path_end(state)
            if (run.tracer.enabled
                    and path_spans < MAX_PATH_SPANS_PER_FUNCTION):
                path_spans += 1
                with run.tracer.span("path", f"{cfg.name}#{run.path_ends}",
                                     end_state=state):
                    pass
            continue
        for edge in reversed(block.out_edges):
            if cfg_slice.skip_edge(edge):
                # Dead-tail merge: no candidate node is reachable past
                # this edge and the machine has no path-end action, so
                # every path through the region is equivalent — don't
                # explore it.  The branch assumption is still evaluated
                # so pruned-edge provenance on this (live) block matches
                # the unsliced walk byte for byte.
                if _edge_assume(run, block, store, edge, key)[0] is not _PRUNED:
                    run.merged += 1
                continue
            next_store, next_fact = _edge_store(run, block, store, edge, key)
            if next_store is _PRUNED:
                continue
            stack.append((edge.dst, _edge_state(run.sm, block, state, edge),
                          key, edge.label, next_store, next_fact, opaque))


#: Sentinel: the edge's condition contradicts the path's facts.
_PRUNED = object()


def _edge_assume(run: _Run, block, store, edge, key):
    """Assume ``edge``'s branch outcome into ``store``.

    Returns ``(store, fact)``, or ``(_PRUNED, None)`` after recording
    the contradiction (metrics counter and provenance) when the edge's
    condition contradicts the path's facts.
    """
    feas = run.feas
    if feas is None:
        return None, None
    fact = None
    if edge.label in ("true", "false") and block.events:
        cond = block.events[-1]
        outcome = feas.assume_edge(store, cond, edge.label)
        if isinstance(outcome, _feas.Contradiction):
            run.pruned_edges += 1
            loc = cond.location
            run.pruned_by_key.setdefault(key, []).append({
                "kind": "pruned", "file": loc.filename, "line": loc.line,
                "taken": edge.label, "reason": outcome.reason,
            })
            return _PRUNED, None
        store, fact = outcome
    return store, fact


def _edge_store(run: _Run, block, store, edge, key):
    """The store carried across ``edge``, or ``(_PRUNED, None)``.

    Branch conditions (``true``/``false`` edges out of a block whose
    last event is the condition) are assumed into the store
    (:func:`_edge_assume`).  Every survivor is restricted to the facts
    still relevant at the destination, which is what keeps the
    ``(block, state, store)`` visited set from outgrowing the plain
    ``(block, state)`` one.
    """
    if run.feas is None:
        return None, None
    store, fact = _edge_assume(run, block, store, edge, key)
    if store is _PRUNED:
        return _PRUNED, None
    return run.feas.restrict(store, edge.dst), fact


def check_function(sm: StateMachine, function: ast.FunctionDef,
                   sink: Optional[ReportSink] = None, *,
                   budget: Optional[Budget] = None,
                   keep_going: bool = False,
                   feasibility: Optional[bool] = None) -> ReportSink:
    """Convenience: build the CFG of ``function`` and run ``sm`` over it."""
    sink = sink if sink is not None else ReportSink()
    run_machine(sm, build_cfg(function), sink, budget=budget,
                isolate=keep_going, feasibility=feasibility)
    return sink


def check_unit(sm: StateMachine, unit: ast.TranslationUnit,
               sink: Optional[ReportSink] = None, *,
               budget: Optional[Budget] = None,
               keep_going: bool = False,
               feasibility: Optional[bool] = None) -> ReportSink:
    """Run ``sm`` over every function in a translation unit.

    With ``keep_going``, a crash in one (checker, function) pair —
    whether in CFG construction or in the machine itself — quarantines
    that pair and moves on; the remaining functions still report.  A
    quarantine is final: the pair is never re-analysed another way.
    """
    sink = sink if sink is not None else ReportSink()
    for function in unit.functions():
        try:
            cfg = build_cfg(function)
        except Exception as exc:
            if not keep_going:
                raise
            sink.add_quarantine(Quarantine(
                checker=sm.name, function=function.name, phase="cfg-build",
                error_type=type(exc).__name__, message=str(exc),
            ))
            continue
        run_machine(sm, cfg, sink, budget=budget, isolate=keep_going,
                    feasibility=feasibility)
    return sink
