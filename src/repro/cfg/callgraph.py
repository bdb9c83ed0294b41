"""Inter-procedural support: annotated flow graphs and the global call graph.

xg++ did not integrate global analysis with the SM framework; instead it
let extensions *emit client-annotated flow graphs to a file*, then *link
them together into a global call graph* and traverse that (paper §3.2 and
§7).  This module reproduces that workflow:

- :func:`emit_flowgraph` serializes one function's CFG plus client
  annotations to a JSON-able dict (and optionally a file);
- :func:`load_flowgraph` reads one back;
- :class:`CallGraph` links a set of flow graphs, exposes callees/callers,
  and answers cycle queries from its strongly-connected components
  (:func:`strongly_connected`, an iterative Tarjan walk over the
  graph's ``name -> callees`` map).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

from ..mc.summary import event_calls, event_index
from .graph import Cfg


@dataclass
class FlowNode:
    """One basic block in an emitted flow graph.

    ``events`` holds one entry per original CFG event: the call target name
    for calls (or None), plus whatever annotation the client attached.
    """

    index: int
    calls: list[Optional[str]] = field(default_factory=list)
    annotations: list[Optional[dict]] = field(default_factory=list)
    successors: list[int] = field(default_factory=list)
    lines: list[int] = field(default_factory=list)


@dataclass
class FlowGraph:
    """A serializable, client-annotated CFG for one function."""

    function: str
    filename: str
    entry: int
    exit: int
    nodes: dict[int, FlowNode] = field(default_factory=dict)

    def callees(self) -> set[str]:
        """Every name the graph's events call: single-call events'
        targets plus each call of an event with several (carried in
        its annotation's ``calls`` list)."""
        names: set = set()
        for node in self.nodes.values():
            names.update(node.calls)
            for annotation in node.annotations:
                if annotation:
                    names.update(annotation.get("calls") or ())
        names.discard(None)
        return names

    def to_json(self) -> dict:
        return {
            "function": self.function,
            "filename": self.filename,
            "entry": self.entry,
            "exit": self.exit,
            "nodes": [
                {
                    "index": node.index,
                    "calls": node.calls,
                    "annotations": node.annotations,
                    "successors": node.successors,
                    "lines": node.lines,
                }
                for node in self.nodes.values()
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "FlowGraph":
        graph = FlowGraph(
            function=data["function"],
            filename=data["filename"],
            entry=data["entry"],
            exit=data["exit"],
        )
        for node in data["nodes"]:
            graph.nodes[node["index"]] = FlowNode(
                index=node["index"],
                calls=list(node["calls"]),
                annotations=list(node["annotations"]),
                successors=list(node["successors"]),
                lines=list(node["lines"]),
            )
        return graph


def emit_flowgraph(cfg: Cfg, annotate=None, filename: str = "") -> FlowGraph:
    """Emit ``cfg`` as an annotated flow graph.

    ``annotate`` is the client hook: called as ``annotate(calls)`` with
    each event's ``Call`` nodes, in walk order (read from
    :func:`repro.mc.summary.event_index`), and may return a JSON-able
    dict to attach (the lane checker attaches ``{"sends": [lane, ...]}``),
    or None.
    """
    graph = FlowGraph(
        function=cfg.name,
        filename=filename or cfg.function.location.filename,
        entry=cfg.entry.index,
        exit=cfg.exit.index,
    )
    index = event_index(cfg)
    for block in cfg.blocks:
        node = FlowNode(index=block.index)
        for event in block.events:
            calls = event_calls(index[id(event)])
            targets = [call.callee_name for call in calls
                       if call.callee_name is not None]
            node.calls.append(targets[0] if len(targets) == 1 else None)
            if len(targets) > 1:
                # Multiple calls in one event: keep them all via annotation.
                node.annotations.append({"calls": targets})
            else:
                node.annotations.append(None)
            if annotate is not None:
                extra = annotate(calls)
                if extra is not None:
                    merged = node.annotations[-1] or {}
                    merged.update(extra)
                    node.annotations[-1] = merged
            node.lines.append(event.location.line)
        node.successors = [e.dst.index for e in block.out_edges]
        graph.nodes[block.index] = node
    return graph


def write_flowgraph(graph: FlowGraph, path: Path) -> None:
    path.write_text(json.dumps(graph.to_json(), indent=1))


def load_flowgraph(path: Path) -> FlowGraph:
    return FlowGraph.from_json(json.loads(path.read_text()))


def strongly_connected(edges: dict[str, set[str]]) -> list[list[str]]:
    """The strongly-connected components of ``edges`` (node -> successor
    nodes, every successor itself a key), each listed after every
    component it reaches: callees before callers.

    Tarjan's algorithm with an explicit stack, so deep call chains
    cannot hit the recursion limit.  Roots are tried in ``edges`` order
    and successors in sorted order, so the result never depends on set
    iteration order.
    """
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    on_stack: set[str] = set()
    components: list[list[str]] = []

    def visit(node: str) -> tuple:
        index[node] = low[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        return node, iter(sorted(edges[node]))

    for root in edges:
        if root in index:
            continue
        work = [visit(root)]
        while work:
            node, successors = work[-1]
            for succ in successors:
                if succ not in index:
                    work.append(visit(succ))
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)
    return components


class CallGraph:
    """Linked set of flow graphs for a whole protocol."""

    def __init__(self, graphs: Iterable[FlowGraph]):
        self.graphs: dict[str, FlowGraph] = {}
        for graph in graphs:
            self.graphs[graph.function] = graph
        #: Function -> the defined functions it calls.
        self.edges: dict[str, set[str]] = {
            name: {callee for callee in graph.callees()
                   if callee in self.graphs}
            for name, graph in self.graphs.items()
        }

    @staticmethod
    def from_files(paths: Iterable[Path]) -> "CallGraph":
        return CallGraph(load_flowgraph(p) for p in paths)

    @staticmethod
    def from_cfgs(cfgs: Iterable[Cfg], annotate=None) -> "CallGraph":
        return CallGraph(emit_flowgraph(cfg, annotate=annotate) for cfg in cfgs)

    def __contains__(self, name: str) -> bool:
        return name in self.graphs

    def __getitem__(self, name: str) -> FlowGraph:
        return self.graphs[name]

    def callees(self, name: str) -> set[str]:
        return set(self.edges.get(name, ()))

    def callers(self, name: str) -> set[str]:
        return {caller for caller, callees in self.edges.items()
                if name in callees}

    def sccs(self) -> list[list[str]]:
        """Strongly-connected components, callees first
        (:func:`strongly_connected`)."""
        return strongly_connected(self.edges)

    def in_cycle(self, component: list[str]) -> bool:
        """Whether the functions of one SCC call each other (or the
        only one calls itself)."""
        return len(component) > 1 or component[0] in self.edges[component[0]]

    def recursive_functions(self) -> set[str]:
        """Functions involved in any call cycle (including self-recursion)."""
        return {name for component in self.sccs()
                if self.in_cycle(component) for name in component}

    def reachable_from(self, name: str) -> set[str]:
        if name not in self.edges:
            return set()
        seen = {name}
        todo = [name]
        while todo:
            for callee in self.edges[todo.pop()]:
                if callee not in seen:
                    seen.add(callee)
                    todo.append(callee)
        return seen
