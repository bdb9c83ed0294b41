"""Flow-graph emission, serialization, and call-graph linking."""

from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfg import (
    CallGraph,
    FlowGraph,
    FlowNode,
    build_cfg,
    emit_flowgraph,
    load_flowgraph,
    write_flowgraph,
)
from repro.lang import ast
from repro.lang.parser import parse
from repro.mc.interproc import bottom_up

SRC = """
void leaf(void) { work(); }
void mid(void) { leaf(); leaf(); }
void top(void) { if (x) { mid(); } else { leaf(); } }
void self_rec(void) { if (x) { self_rec(); } }
void mutual_a(void) { mutual_b(); }
void mutual_b(void) { mutual_a(); }
"""


def make_callgraph():
    unit = parse(SRC)
    return CallGraph.from_cfgs(build_cfg(f) for f in unit.functions())


class TestEmission:
    def test_calls_recorded(self):
        unit = parse(SRC)
        graph = emit_flowgraph(build_cfg(unit.function("mid")))
        assert graph.callees() == {"leaf"}

    def test_every_call_of_a_multi_call_event_is_a_callee(self):
        unit = parse("int a(void) { return 1; }\n"
                     "int b(void) { return 2; }\n"
                     "int c(void) { return a() + b(); }\n")
        graph = emit_flowgraph(build_cfg(unit.function("c")))
        assert graph.callees() == {"a", "b"}
        cg = CallGraph.from_cfgs(build_cfg(f) for f in unit.functions())
        assert cg.callees("c") == {"a", "b"}

    def test_lines_recorded(self):
        unit = parse("void f(void) {\n    g();\n}")
        graph = emit_flowgraph(build_cfg(unit.function("f")))
        lines = [ln for node in graph.nodes.values() for ln in node.lines]
        assert 2 in lines

    def test_annotation_hook(self):
        unit = parse(SRC)

        def annotate(event):
            calls = [n for n in event.walk()
                     if isinstance(n, ast.Call)]
            return {"ncalls": len(calls)} if calls else None

        graph = emit_flowgraph(build_cfg(unit.function("mid")),
                               annotate=annotate)
        annotations = [a for node in graph.nodes.values()
                       for a in node.annotations if a]
        assert all(a["ncalls"] == 1 for a in annotations)
        assert len(annotations) == 2

    def test_json_round_trip(self, tmp_path: Path):
        unit = parse(SRC)
        graph = emit_flowgraph(build_cfg(unit.function("top")))
        path = tmp_path / "top.flow"
        write_flowgraph(graph, path)
        loaded = load_flowgraph(path)
        assert loaded.function == "top"
        assert loaded.entry == graph.entry
        assert loaded.callees() == graph.callees()
        assert set(loaded.nodes) == set(graph.nodes)

    def test_callgraph_from_files(self, tmp_path: Path):
        unit = parse(SRC)
        paths = []
        for func in unit.functions():
            graph = emit_flowgraph(build_cfg(func))
            p = tmp_path / f"{func.name}.flow"
            write_flowgraph(graph, p)
            paths.append(p)
        cg = CallGraph.from_files(paths)
        assert cg.callees("top") == {"mid", "leaf"}


class TestCallGraphQueries:
    def test_callees(self):
        cg = make_callgraph()
        assert cg.callees("top") == {"mid", "leaf"}
        assert cg.callees("leaf") == set()

    def test_callers(self):
        cg = make_callgraph()
        assert cg.callers("leaf") == {"mid", "top"}

    def test_contains(self):
        cg = make_callgraph()
        assert "top" in cg
        assert "nonexistent" not in cg

    def test_self_recursion_detected(self):
        cg = make_callgraph()
        assert "self_rec" in cg.recursive_functions()

    def test_mutual_recursion_detected(self):
        cg = make_callgraph()
        rec = cg.recursive_functions()
        assert {"mutual_a", "mutual_b"} <= rec

    def test_non_recursive_not_flagged(self):
        cg = make_callgraph()
        rec = cg.recursive_functions()
        assert "top" not in rec and "leaf" not in rec

    def test_reachable_from(self):
        cg = make_callgraph()
        assert cg.reachable_from("top") == {"top", "mid", "leaf"}
        assert cg.reachable_from("missing") == set()

    def test_unknown_callee_ignored(self):
        # `work()` is not defined in the program; the call graph only
        # links defined functions.
        cg = make_callgraph()
        assert cg.callees("leaf") == set()


# -- the call graph against a brute-force transitive closure -----------------

def _random_callgraph(calls: dict, multi: dict) -> CallGraph:
    """One flow graph per function, with one event per call.  Calls
    listed in ``multi`` share one event (the emitter records those in
    the event's annotation, not in ``calls``)."""
    graphs = []
    for name, callees in calls.items():
        node = FlowNode(index=0)
        for callee in callees:
            node.calls.append(callee)
            node.annotations.append(None)
        if multi.get(name):
            node.calls.append(None)
            node.annotations.append({"calls": list(multi[name])})
        graphs.append(FlowGraph(function=name, filename="p.c", entry=0,
                                exit=0, nodes={0: node}))
    return CallGraph(graphs)


@st.composite
def call_tables(draw):
    """Up to 12 functions calling each other, themselves, and names no
    unit defines."""
    n = draw(st.integers(min_value=1, max_value=12))
    names = [f"f{i}" for i in range(n)]
    targets = st.sampled_from(names + ["unknown", "undefined"])
    calls = {name: draw(st.lists(targets, max_size=4)) for name in names}
    multi = {name: draw(st.lists(targets, max_size=3)) for name in names}
    return calls, multi


def _closure(edges: dict) -> dict:
    """name -> every name reachable in one or more calls."""
    reach = {name: set(callees) for name, callees in edges.items()}
    for via in edges:
        for name in edges:
            if via in reach[name]:
                reach[name] |= reach[via]
    return reach


@settings(max_examples=300, deadline=None)
@given(call_tables())
def test_callgraph_matches_brute_force(table):
    calls, multi = table
    cg = _random_callgraph(calls, multi)
    edges = {name: {c for c in calls[name] + multi[name] if c in calls}
             for name in calls}
    reach = _closure(edges)

    def scc_of(name):
        return frozenset({name} | {other for other in reach[name]
                                   if name in reach[other]})

    sccs = cg.sccs()
    assert sorted(map(sorted, sccs)) == sorted(
        sorted(c) for c in {scc_of(name) for name in calls})
    position = {name: i for i, scc in enumerate(sccs) for name in scc}
    for name, callees in edges.items():
        for callee in callees:
            # A callee's SCC never comes after its caller's.
            assert position[callee] <= position[name]
    assert cg.recursive_functions() == {n for n in calls if n in reach[n]}
    for name in calls:
        assert cg.callees(name) == edges[name]
        assert cg.callers(name) == {c for c in calls if name in edges[c]}
        assert cg.reachable_from(name) == reach[name] | {name}
    assert cg.reachable_from("unknown") == set()

    seen = {}

    def summarize(graph, summaries, cycle_peers):
        seen[graph.function] = (dict(summaries), set(cycle_peers))
        return f"summary of {graph.function}"

    summaries = bottom_up(cg, summarize)
    assert set(seen) == set(summaries) == set(calls)
    for name, (given_summaries, peers) in seen.items():
        own = scc_of(name)
        assert given_summaries == {callee: f"summary of {callee}"
                                   for callee in edges[name] - own}
        assert peers == (set(own) if name in reach[name] else set())
