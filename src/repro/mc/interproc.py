"""Inter-procedural analysis helpers (the paper's §7 framework).

xg++'s global framework emitted per-function flow graphs, linked them
into a call graph, and let extensions traverse it.  The generic piece —
processing functions bottom-up so callee summaries exist before callers
need them, with strongly-connected components handled as cycles — lives
here.  The lane checker supplies the per-function summarizer.
"""

from __future__ import annotations

from typing import Callable, Optional, TypeVar

from ..cfg.callgraph import CallGraph, FlowGraph

Summary = TypeVar("Summary")


def bottom_up(
    callgraph: CallGraph,
    summarize: Callable[[FlowGraph, dict[str, Summary], set[str]], Summary],
) -> dict[str, Summary]:
    """Compute a summary per function, callees first.

    ``summarize(flowgraph, summaries, cycle_peers)`` receives the
    summaries of exactly the function's callees outside its own SCC,
    plus the names of functions in the same SCC (``cycle_peers``),
    which the client must treat as fixed points (paper §7: cycles that
    do not send can be ignored; cycles that send are flagged).  The
    SCCs are visited callees first, and the members of one SCC in name
    order.

    A ``summarize`` whose result is pure in those three inputs can be
    memoized across runs with :class:`repro.mc.cache.AnalysisMemo` —
    key on flow-graph content plus the callee summaries it can consult
    (see the lanes checker) and keep any report emission *outside* the
    memoized computation, since reports are per-run state.
    """
    summaries: dict[str, Summary] = {}
    for component in callgraph.sccs():
        members = set(component)
        peers = members if callgraph.in_cycle(component) else set()
        for name in sorted(component):
            callees = {callee: summaries[callee]
                       for callee in callgraph.edges[name]
                       if callee not in members}
            summaries[name] = summarize(callgraph.graphs[name], callees,
                                        peers)
    return summaries


def walk_paths(
    graph: FlowGraph,
    visit: Callable[[int, int, Optional[str], Optional[dict]], None],
) -> None:
    """Visit every (block, event) pair of a flow graph in block order.

    ``visit(block_index, event_index, call_target, annotation)`` — a
    convenience for clients that only need flat iteration rather than
    path sensitivity.
    """
    for node in graph.nodes.values():
        for i, call in enumerate(node.calls):
            visit(node.index, i, call, node.annotations[i])
