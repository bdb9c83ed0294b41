"""The shared node indexes: each function's nodes are gathered once,
in walk order, and a cold check reads them instead of walking the AST.

``frontend.nodes_indexed`` counts the nodes each function index holds
when it is built, so a run that indexes every function exactly once
reports the program's function node count.  The checkers that used to
walk every body (lanes' local pass, exec-restrict, no-float,
table-audit) read that index or the engine's per-event index, so
``Node.walk`` is left for small subtrees only.
"""

import dataclasses
import json

from repro.cli import main
from repro.flash.spec import dump_spec
from repro.lang import ast, clear_memo, parse
from repro.project import Program


def test_index_is_walk_order_and_built_once():
    unit = parse("""
        int g;
        void f(int a) {
            int x = a + 1;
            if (x) { g = h(x, &x); } else { h(*&a, 2); }
        }
    """)
    function = unit.function("f")
    index = function.node_index()
    assert list(index.nodes) == list(function.walk())
    for cls in (ast.Call, ast.UnaryOp, ast.Ident, ast.DeclStmt):
        assert index.of(cls) == [n for n in function.walk()
                                 if type(n) is cls]
    assert index.of(ast.FloatLit) == []
    assert function.node_index() is index


def test_payload_fields_hold_no_nodes(bitvector):
    """The traversals skip fields annotated as names, operators,
    spellings and flags; none of them holds a node anywhere in a
    generated protocol."""
    program = Program(bitvector.files)
    for unit in program.units.values():
        for node in unit.walk():
            children = ast._child_fields(type(node))
            for field in dataclasses.fields(node):
                if field.name in children or field.name == "location":
                    continue
                value = getattr(node, field.name)
                items = value if isinstance(value, (list, tuple)) else [value]
                assert not any(isinstance(item, ast.Node) for item in items)


def test_cold_check_indexes_each_function_once_and_barely_walks(
        bitvector, tmp_path, monkeypatch, capsys):
    units = []
    for filename, text in bitvector.files.items():
        path = tmp_path / filename
        path.write_text(text)
        units.append(str(path))
    spec = tmp_path / "bitvector.spec"
    spec.write_text(dump_spec(bitvector.info))
    metrics = tmp_path / "metrics.json"
    # A cold process: no unit parsed, so no function indexed, yet.
    clear_memo()

    yielded = 0
    walk = ast.Node.walk

    def counting_walk(node):
        nonlocal yielded
        for item in walk(node):
            yielded += 1
            yield item

    monkeypatch.setattr(ast.Node, "walk", counting_walk)
    code = main(["check", "--spec", str(spec), "--cache-dir",
                 str(tmp_path / "cache"), "--format", "json", "--jobs", "1",
                 "--metrics-out", str(metrics), *units])
    monkeypatch.undo()
    capsys.readouterr()
    assert code == 1  # bitvector carries seeded bugs

    program = Program({path: bitvector.files[path.rsplit("/", 1)[-1]]
                       for path in units})
    function_nodes = sum(len(list(f.walk())) for f in program.functions())
    counters = json.loads(metrics.read_text())["counters"]
    assert counters["frontend.nodes_indexed"] == function_nodes
    # The parent walked every body about four times over (4.1x).
    assert yielded < 0.1 * function_nodes, (yielded, function_nodes)
