"""The engine's two test oracles: the unsliced walk and the naive
path enumerator.

``repro.mc.engine.run_machine`` walks a checker-aware slice of the CFG
(:mod:`repro.mc.summary`) and memoizes on ``(block, state)`` pairs
(plus the feasibility store and the opaque flag), so exponentially many
paths cost linear work.  This module keeps what each of those replaces,
the way ``tests/reference_frontend.py`` keeps the old lexer and parser:

* :func:`paths_oracle` makes ``run_machine`` walk the unsliced CFG
  (:class:`_IdentitySlice`) for a block.  ``tests/test_engine_summary.py``
  and ``tests/test_feasibility.py`` hold reports, suppressions,
  provenance and confidence byte-identical between the two walks;
* :func:`run_machine_naive` enumerates every path explicitly, with no
  state cache, over the same identity slice, so it is independent of
  the slicer too.  The property tests (``tests/test_property_fuzz.py``),
  the engine tests (``tests/test_mc_engine.py``), the feasibility tests
  (``tests/test_feasibility.py``) and the state-cache ablation
  benchmark (``benchmarks/bench_ablation_state_cache.py``) compare
  against it.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Optional
from unittest import mock

from repro.cfg import Cfg
from repro.lang import ast
from repro.mc import feasibility as _feas
from repro.mc import summary
from repro.mc.engine import (
    _PRUNED,
    _Run,
    _edge_state,
    _edge_store,
    _flush_run,
)
from repro.metal.runtime import ReportSink
from repro.metal.sm import StateMachine


class _IdentitySlice:
    """The paths oracle's slice: every node of every event is stepped.

    Independent of the slicer on purpose — nodes come from
    ``event.walk()`` and opaque regions from its own scan, never from
    :func:`repro.mc.summary.event_index` — and nothing is skipped: no
    dead tails, no whole-function skip, no sliced-out nodes to charge.
    """

    full_skip = False

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


def paths_oracle(enabled: bool = True):
    """Switch ``run_machine`` to the unsliced paths walk for a block.

    ``run_machine`` looks up ``repro.mc.summary.slice_for`` on every
    call, so the patch reaches the checkers that import ``run_machine``
    directly — in-process runs only (``--jobs 1``, the ``check_files``
    default)."""
    if not enabled:
        return nullcontext()
    return mock.patch.object(summary, "slice_for",
                             lambda sm, cfg: _IdentitySlice())


def run_machine_naive(sm: StateMachine, cfg: Cfg, sink: ReportSink,
                      max_paths: int = 100000,
                      feasibility: Optional[bool] = None) -> int:
    """Run ``sm`` by explicit path enumeration (no state cache).

    Back edges are skipped, as in :mod:`repro.cfg.paths`.  Returns the
    number of paths walked, and raises ``ValueError`` past
    ``max_paths``.  Feasibility pruning applies here too (same
    semantics as ``run_machine``; pruned paths are simply not
    enumerated), though no provenance is recorded.

    Note: on loop-free CFGs this produces exactly the diagnostics of
    ``run_machine``; with loops it can under-approximate, because
    cutting back edges loses the "loop body executed, then exited"
    paths that the cached engine covers by following back edges with
    memoization.
    """
    initial = sm.initial_state(cfg.function)
    if initial is None:
        return 0
    if feasibility is None:
        feasibility = _feas.default_enabled()
    feas = _feas.for_cfg(cfg) if feasibility else None
    run = _Run(sm, cfg, sink, None, feas, _IdentitySlice())
    span = (run.tracer.span("function", f"{cfg.name} (naive)",
                            checker=sm.name)
            if run.tracer.enabled else None)
    back = cfg.back_edges()
    paths_walked = 0
    initial_store = feas.initial_store() if feas is not None else None
    previous_gate = sink.report_gate
    sink.report_gate = run.opaque_gate
    stack: list[tuple] = [(cfg.entry, initial, initial_store, False)]
    try:
        while stack:
            block, state, store, opaque = stack.pop()
            run.current_store = store
            run.path_opaque = opaque
            state, stopped = run.run_block_events(block, state)
            store = run.current_store
            opaque = run.path_opaque
            if stopped:
                paths_walked += 1
                continue
            edges = [
                e for e in block.out_edges
                if (block.index, e.dst.index) not in back
            ]
            if block is cfg.exit or not edges:
                run.at_path_end(state)
                paths_walked += 1
                if paths_walked > max_paths:
                    raise ValueError(
                        f"{cfg.name}: more than {max_paths} paths")
                continue
            for edge in reversed(edges):
                next_store, _fact = _edge_store(run, block, store, edge,
                                                None)
                if next_store is _PRUNED:
                    continue
                stack.append((edge.dst,
                              _edge_state(sm, block, state, edge),
                              next_store, opaque))
    finally:
        sink.report_gate = previous_gate
        _flush_run(run, span)
    return paths_walked
