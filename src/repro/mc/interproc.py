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
    already-computed summaries of every callee outside the function's own
    SCC, plus the names of functions in the same SCC (``cycle_peers``),
    which the client must treat as fixed points (paper §7: cycles that do
    not send can be ignored; cycles that send are flagged).

    A ``summarize`` whose result is pure in those three inputs can be
    memoized across runs with :class:`repro.mc.cache.AnalysisMemo` —
    key on flow-graph content plus the callee summaries it can consult
    (see the lanes checker) and keep any report emission *outside* the
    memoized computation, since reports are per-run state.
    """
    import networkx as nx

    condensation = nx.condensation(callgraph.nx)
    summaries: dict[str, Summary] = {}
    for scc_id in reversed(list(nx.topological_sort(condensation))):
        members: set[str] = set(condensation.nodes[scc_id]["members"])
        in_cycle = len(members) > 1 or any(
            callgraph.nx.has_edge(m, m) for m in members
        )
        for name in sorted(members):
            graph = callgraph.graphs.get(name)
            if graph is None:
                continue
            peers = members if in_cycle else set()
            summaries[name] = summarize(graph, summaries, peers)
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
