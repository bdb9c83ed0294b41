"""§7 — Deadlock restrictions on message sends (inter-procedural).

FLASH divides the network into four virtual lanes; a handler may not send
more than its declared allowance on a lane without explicitly waiting for
output-queue space (``WAIT_FOR_SPACE``), or the machine can deadlock.

Following the paper, the checker runs in two passes over xg++'s global
framework: a *local* pass walks every function, annotates each send with
its lane, and emits the function's flow graph; a *global* pass links the
flow graphs into a call graph and traverses it, computing the maximum
number of sends per lane any inter-procedural path can perform.  A send
pushing a handler past its allowance is flagged with a textual backtrace
of the call path — the feature the paper calls "crucial for diagnosing
errors".

Cycles are handled with the paper's fixed-point rule: a call cycle that
performs no sends cannot change the send count and is ignored; a cycle
that does send is reported as a possible error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cfg.callgraph import CallGraph, FlowGraph, emit_flowgraph
from ..flash import machine
from ..lang import ast
from ..lang.source import Location
from ..mc.interproc import bottom_up
from ..metal.runtime import Report
from ..project import Program, ProtocolInfo
from .base import CheckerResult, TwoPassChecker, register

LANES = machine.LANE_COUNT


def annotate_lanes(calls: tuple[ast.Call, ...]) -> dict | None:
    """The local pass's annotation hook: mark the sends and space waits
    among one event's calls."""
    sends: list[list] = []
    waits: list[int] = []
    for node in calls:
        if node.callee_name is None:
            continue
        lane = machine.lane_of_send(node.callee_name, node.args)
        if lane is not None:
            sends.append([lane, node.location.line])
        elif node.callee_name == machine.WAIT_FOR_SPACE and node.args:
            lane_arg = node.args[0]
            if isinstance(lane_arg, ast.IntLit):
                waits.append(lane_arg.value)
            elif isinstance(lane_arg, ast.Ident):
                waits.append(_lane_constant(lane_arg.name))
    if not sends and not waits:
        return None
    return {"sends": sends, "waits": waits}


def _lane_constant(name: str) -> int:
    return {
        "LANE_PI": machine.LANE_PI,
        "LANE_IO": machine.LANE_IO,
        "LANE_NI_REQUEST": machine.LANE_NI_REQUEST,
        "LANE_NI_REPLY": machine.LANE_NI_REPLY,
    }.get(name, machine.LANE_PI)


@dataclass
class LaneSummary:
    """Per-function summary of lane usage over any path."""

    #: Maximum sends on each lane along any path through the function.
    peak: list[int] = field(default_factory=lambda: [0] * LANES)
    #: Sends still "outstanding" on each lane when the function returns.
    net: list[int] = field(default_factory=lambda: [0] * LANES)
    #: Whether the function resets the count on each lane (WAIT_FOR_SPACE).
    resets: list[bool] = field(default_factory=lambda: [False] * LANES)
    #: Backtrace frames ("function:line") achieving each lane's peak.
    witness: list[tuple] = field(default_factory=lambda: [()] * LANES)
    #: True if the function sends at all (for the cycle fixed-point rule).
    sends_any: bool = False


def summarize_lanes(graph: FlowGraph, summaries: dict[str, LaneSummary],
                    cycle_peers: set[str]) -> LaneSummary:
    """Compute one function's :class:`LaneSummary` from callee summaries.

    Works on the acyclic block structure: per-lane *maximum* cumulative
    counts merge with ``max`` at joins, which is exact because a path's
    suffix contribution is independent of its prefix.
    """
    out = LaneSummary()
    # Per-block entry state: (cum counts, cum witness) per lane.
    entry: dict[int, tuple] = {}
    entry[graph.entry] = ([0] * LANES, [()] * LANES)
    order = _topo_blocks(graph)
    exit_cum = [0] * LANES
    exit_wit: list[tuple] = [()] * LANES
    for index in order:
        node = graph.nodes[index]
        if index not in entry:
            continue  # unreachable
        cum, wit = entry[index]
        cum, wit = list(cum), list(wit)
        for i, call in enumerate(node.calls):
            ann = node.annotations[i] or {}
            for lane, line in ann.get("sends", ()):
                cum[lane] += 1
                wit[lane] = wit[lane] + ((f"{graph.function}:{line}"),)
                out.sends_any = True
                if cum[lane] > out.peak[lane]:
                    out.peak[lane] = cum[lane]
                    out.witness[lane] = tuple(wit[lane])
            for lane in ann.get("waits", ()):
                cum[lane] = 0
                wit[lane] = ()
                out.resets[lane] = True
            callee = call if call is not None else None
            targets = [callee] if callee else []
            targets += (ann.get("calls") or [])
            for target in targets:
                if target is None or target in cycle_peers:
                    continue
                sub = summaries.get(target)
                if sub is None:
                    continue
                out.sends_any = out.sends_any or sub.sends_any
                for lane in range(LANES):
                    candidate = cum[lane] + sub.peak[lane]
                    if candidate > out.peak[lane]:
                        out.peak[lane] = candidate
                        out.witness[lane] = tuple(sub.witness[lane]) + (
                            f"{graph.function}:{node.lines[i]}",
                        )
                    if sub.resets[lane]:
                        cum[lane] = sub.net[lane]
                        wit[lane] = tuple(sub.witness[lane])
                        out.resets[lane] = True
                    elif sub.net[lane]:
                        cum[lane] += sub.net[lane]
                        wit[lane] = tuple(wit[lane]) + tuple(sub.witness[lane])
        if index == graph.exit or not node.successors:
            for lane in range(LANES):
                if cum[lane] > exit_cum[lane]:
                    exit_cum[lane] = cum[lane]
                    exit_wit[lane] = tuple(wit[lane])
        for succ in node.successors:
            if succ not in entry:
                entry[succ] = (list(cum), list(wit))
            else:
                scum, swit = entry[succ]
                for lane in range(LANES):
                    if cum[lane] > scum[lane]:
                        scum[lane] = cum[lane]
                        swit[lane] = wit[lane]
    out.net = exit_cum
    # Reuse the per-lane exit witnesses for net composition.
    for lane in range(LANES):
        if not out.witness[lane]:
            out.witness[lane] = tuple(exit_wit[lane])
    return out


def _topo_blocks(graph: FlowGraph) -> list[int]:
    """Topological order of the flow graph's blocks, back edges dropped."""
    back: set[tuple[int, int]] = set()
    color: dict[int, int] = {graph.entry: 1}
    stack: list[tuple[int, int]] = [(graph.entry, 0)]
    while stack:
        index, edge_i = stack[-1]
        succs = graph.nodes[index].successors
        if edge_i < len(succs):
            stack[-1] = (index, edge_i + 1)
            succ = succs[edge_i]
            state = color.get(succ, 0)
            if state == 1:
                back.add((index, succ))
            elif state == 0:
                color[succ] = 1
                stack.append((succ, 0))
        else:
            color[index] = 2
            stack.pop()
    indegree: dict[int, int] = {i: 0 for i in graph.nodes}
    for index, node in graph.nodes.items():
        for succ in node.successors:
            if (index, succ) not in back:
                indegree[succ] += 1
    ready = [i for i, d in indegree.items() if d == 0]
    order: list[int] = []
    while ready:
        index = ready.pop()
        order.append(index)
        for succ in graph.nodes[index].successors:
            if (index, succ) in back:
                continue
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
    return order


@register
class LaneChecker(TwoPassChecker):
    """Handlers must not exceed their per-lane send allowance."""

    name = "lanes"
    metal_loc = 220

    def local(self, program: Program) -> CheckerResult:
        """Emit the unit's annotated flow graphs as the part's facts."""
        result = CheckerResult(checker=self.name)
        result.facts = [
            emit_flowgraph(program.cfg(f), annotate=annotate_lanes).to_json()
            for f in program.functions()
        ]
        return result

    def link(self, parts: list[CheckerResult],
             info: ProtocolInfo) -> CheckerResult:
        result, sink = self._new_result()
        graphs = [FlowGraph.from_json(obj) for part in parts
                  for obj in part.facts]
        callgraph = CallGraph(graphs)
        # Global pass: bottom-up summaries with the fixed-point cycle rule.
        warned_cycles: set[frozenset] = set()

        def summarize(graph: FlowGraph, summaries, cycle_peers):
            summary = summarize_lanes(graph, summaries, cycle_peers)
            if cycle_peers and summary.sends_any:
                key = frozenset(cycle_peers)
                if key not in warned_cycles:
                    warned_cycles.add(key)
                    sink.add(Report(
                        checker=self.name,
                        message=("call cycle through "
                                 f"{', '.join(sorted(cycle_peers))} contains "
                                 "message sends; cannot bound lane usage"),
                        location=Location(graph.filename, 1, 1),
                        function=graph.function,
                    ))
            return summary

        summaries = bottom_up(callgraph, summarize)

        result.applied = sum(
            1
            for graph in graphs
            for node in graph.nodes.values()
            for ann in node.annotations
            if ann and ann.get("sends")
        )

        # A name defined in several units reports at its first definition.
        file_of: dict[str, str] = {}
        for graph in graphs:
            file_of.setdefault(graph.function, graph.filename)
        for handler in info.handlers.values():
            if handler.kind == "proc":
                continue
            summary = summaries.get(handler.name)
            if summary is None:
                continue
            for lane in range(LANES):
                if summary.peak[lane] > handler.lane_allowance[lane]:
                    # Report at the send that exceeds the allowance (the
                    # last frame); earlier frames become the backtrace.
                    frames = summary.witness[lane]
                    head = frames[-1] if frames else f"{handler.name}:1"
                    fname, _, line = head.rpartition(":")
                    sink.add(Report(
                        checker=self.name,
                        message=(
                            f"handler {handler.name} can send "
                            f"{summary.peak[lane]} messages on lane "
                            f"{machine.LANE_NAMES[lane]} but is allowed "
                            f"{handler.lane_allowance[lane]} (add "
                            "WAIT_FOR_SPACE before the extra send)"
                        ),
                        location=Location(
                            file_of.get(fname, "<unknown>"), int(line or 1), 1
                        ),
                        function=handler.name,
                        backtrace=tuple(frames[:-1]),
                    ))
        return self._finish(result, sink)
