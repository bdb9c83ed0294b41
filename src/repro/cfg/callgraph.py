"""Inter-procedural support: annotated flow graphs and the global call graph.

xg++ did not integrate global analysis with the SM framework; instead it
let extensions *emit client-annotated flow graphs to a file*, then *link
them together into a global call graph* and traverse that (paper §3.2 and
§7).  This module reproduces that workflow:

- :func:`emit_flowgraph` serializes one function's CFG plus client
  annotations to a JSON-able dict (and optionally a file);
- :func:`load_flowgraph` reads one back;
- :class:`CallGraph` links a set of flow graphs, exposes callees/callers,
  and builds a :mod:`networkx` digraph for cycle/SCC queries.

:mod:`networkx` is imported where a graph is built or queried, not at
module level: importing it takes about a third of a warm no-op
``check``, and most commands never build a call graph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

from ..lang import ast
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
        return {
            name
            for node in self.nodes.values()
            for name in node.calls
            if name is not None
        }

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


def _call_targets(event: ast.Node) -> list[str]:
    """All direct-call target names inside one event, in source order."""
    return [
        node.callee_name
        for node in event.walk()
        if isinstance(node, ast.Call) and node.callee_name is not None
    ]


def emit_flowgraph(cfg: Cfg, annotate=None, filename: str = "") -> FlowGraph:
    """Emit ``cfg`` as an annotated flow graph.

    ``annotate`` is the client hook: called as ``annotate(event)`` for each
    event and may return a JSON-able dict to attach (the lane checker
    attaches ``{"sends": [lane, ...]}``), or None.
    """
    graph = FlowGraph(
        function=cfg.name,
        filename=filename or cfg.function.location.filename,
        entry=cfg.entry.index,
        exit=cfg.exit.index,
    )
    for block in cfg.blocks:
        node = FlowNode(index=block.index)
        for event in block.events:
            targets = _call_targets(event)
            node.calls.append(targets[0] if len(targets) == 1 else None)
            if len(targets) > 1:
                # Multiple calls in one event: keep them all via annotation.
                node.annotations.append({"calls": targets})
            else:
                node.annotations.append(None)
            if annotate is not None:
                extra = annotate(event)
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


class CallGraph:
    """Linked set of flow graphs for a whole protocol."""

    def __init__(self, graphs: Iterable[FlowGraph]):
        import networkx as nx

        self.graphs: dict[str, FlowGraph] = {}
        for graph in graphs:
            self.graphs[graph.function] = graph
        self.nx = nx.DiGraph()
        for name, graph in self.graphs.items():
            self.nx.add_node(name)
            for callee in graph.callees():
                if callee in self.graphs:
                    self.nx.add_edge(name, callee)

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
        if name not in self.nx:
            return set()
        return set(self.nx.successors(name))

    def callers(self, name: str) -> set[str]:
        if name not in self.nx:
            return set()
        return set(self.nx.predecessors(name))

    def recursive_functions(self) -> set[str]:
        """Functions involved in any call cycle (including self-recursion)."""
        import networkx as nx

        result: set[str] = set()
        for scc in nx.strongly_connected_components(self.nx):
            if len(scc) > 1:
                result |= scc
            else:
                (only,) = scc
                if self.nx.has_edge(only, only):
                    result.add(only)
        return result

    def reachable_from(self, name: str) -> set[str]:
        import networkx as nx

        if name not in self.nx:
            return set()
        return set(nx.descendants(self.nx, name)) | {name}
