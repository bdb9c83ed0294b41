"""The naive path enumerator, kept as a test oracle.

``repro.mc.engine.run_machine`` memoizes on ``(block, state)`` pairs
(plus the feasibility store and the opaque flag), so exponentially many
paths cost linear work.  This module keeps the walk that caching
replaces, the way ``tests/reference_frontend.py`` keeps the old lexer
and parser: every path is enumerated explicitly, with no state cache.
It steps the unsliced paths oracle's :class:`_IdentitySlice`, so it is
independent of the slicer too.

The property tests (``tests/test_property_fuzz.py``), the engine tests
(``tests/test_mc_engine.py``), the feasibility tests
(``tests/test_feasibility.py``) and the state-cache ablation benchmark
(``benchmarks/bench_ablation_state_cache.py``) compare against it.
"""

from __future__ import annotations

from typing import Optional

from repro.cfg import Cfg
from repro.mc import feasibility as _feas
from repro.mc.engine import (
    _PRUNED,
    _IdentitySlice,
    _Run,
    _edge_state,
    _edge_store,
    _flush_run,
)
from repro.metal.runtime import ReportSink
from repro.metal.sm import StateMachine


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
