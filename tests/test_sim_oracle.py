"""The compiled interpreter against the tree-walking oracle.

``repro.flash.sim.interp.Interpreter`` runs each function through
closures compiled once per program (``repro.flash.sim.compiler``);
``tests/reference_interp.py`` keeps the tree-walker it replaced.  Three
checks tie them together:

* generated handler bodies give the same return value or ``InterpError``
  text, step count, executed functions, tick-hook node sequence, global
  writes and builtin calls;
* campaign runs over the five generated protocols give equal outcome
  records with either interpreter inside the nodes;
* a campaign shard compiles each executed function exactly once, however
  many machines, nodes and shrink re-runs it makes.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.flash.sim.compiler
import repro.flash.sim.node
from repro.campaign import CampaignSpec, run_campaign
from repro.campaign.plans import runs_for_shard
from repro.campaign.runner import execute_run
from repro.errors import InterpError
from repro.flash.codegen import generate_protocol
from repro.flash.sim.interp import GlobalsView, Interpreter
from repro.lang.parser import parse
from repro.project import Program

from .reference_interp import ReferenceInterpreter

# -- generated bodies -----------------------------------------------------------

BINARY = ("+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^", "==", "!=",
          "<", ">", "<=", ">=", "&&", "||")
COMPOUND = ("+=", "-=", "*=", "/=", "%=", "<<=", ">>=", "&=", "|=", "^=")
LITERALS = ("0", "1", "2", "7", "31", "0x1F", "010", "3u", "4294967295",
            "0xFFFFFFFFUL", "'A'", "'\\n'", "\"s\"")
#: Locals, parameters and a constant.
NAMES = ("a", "b", "c", "p", "q", "K")
LEAVES = LITERALS + NAMES + ("HANDLER_GLOBALS(header.nh.len)",)
#: Leaves that fail or call out, drawn one time in ten.
RARE_LEAVES = ("sizeof(a)", "B0()", "UNDEF", "1.5", "09")
LVALUES = ("a", "b", "c", "p", "HANDLER_GLOBALS(dirEntry)",
           "HANDLER_GLOBALS(header.nh.len)")
MAX_DEPTH = 3


@st.composite
def expressions(draw, depth=0):
    leaf = depth >= MAX_DEPTH or draw(st.integers(0, 3)) == 0
    if leaf:
        if draw(st.integers(0, 9)) == 0:
            return draw(st.sampled_from(RARE_LEAVES))
        return draw(st.sampled_from(LEAVES))
    sub = expressions(depth + 1)
    kind = draw(st.integers(0, 10))
    if kind <= 3:
        return f"({draw(sub)} {draw(st.sampled_from(BINARY))} {draw(sub)})"
    if kind == 4:
        op = draw(st.sampled_from(("!", "-", "+", "~")))
        return f"{op}({draw(sub)})"
    if kind == 5:
        target = draw(st.sampled_from(LVALUES))
        return draw(st.sampled_from((f"++{target}", f"--{target}",
                                     f"{target}++", f"{target}--")))
    if kind == 6:
        target = draw(st.sampled_from(LVALUES))
        op = draw(st.sampled_from(("=",) + COMPOUND))
        return f"({target} {op} {draw(sub)})"
    if kind == 7:
        return f"({draw(sub)} ? {draw(sub)} : {draw(sub)})"
    if kind == 8:
        return draw(st.sampled_from((
            f"B1({draw(sub)})", f"B2({draw(sub)}, {draw(sub)})",
            f"g({draw(sub)}, {draw(sub)})", f"f({draw(sub)}, 0)")))
    if kind == 9:
        return f"({draw(sub)}, {draw(sub)})"
    return f"(unsigned)({draw(sub)})"


@st.composite
def statements(draw, depth=0):
    expr = expressions(min(depth + 1, MAX_DEPTH))
    if depth >= MAX_DEPTH:
        kind = draw(st.integers(0, 2))
    else:
        kind = draw(st.integers(0, 13))
    if kind <= 1:
        return f"{draw(expr)};"
    if kind == 2:
        return draw(st.sampled_from(("break;", "continue;", "goto L1;",
                                     "goto L2;", "goto nested;", ";")))
    body = statements(depth + 1)
    block = st.lists(body, max_size=3).map(
        lambda parts: "{ " + " ".join(parts) + " }")
    if kind == 3:
        return f"if ({draw(expr)}) {draw(block)}"
    if kind == 4:
        return f"if ({draw(expr)}) {draw(block)} else {draw(body)}"
    if kind == 5:
        return f"while ({draw(expr)}) {draw(block)}"
    if kind == 6:
        return f"do {draw(block)} while ({draw(expr)});"
    if kind == 7:
        return f"for (c = 0; c < {draw(st.integers(0, 4))}; c++) {draw(block)}"
    if kind == 8:
        return f"for (;;) {{ if ({draw(expr)}) {{ break; }} {draw(body)} }}"
    if kind == 9:
        cases = []
        for value in draw(st.lists(st.integers(0, 3), max_size=4)):
            arm = " ".join(draw(st.lists(body, max_size=2)))
            ending = draw(st.sampled_from(("break;", "")))
            cases.append(f"case {value}: {arm} {ending}")
        if draw(st.booleans()):
            cases.insert(draw(st.integers(0, len(cases))),
                         f"default: {draw(body)}")
        return f"switch ({draw(expr)}) {{ {' '.join(cases)} }}"
    if kind == 10:
        return f"return {draw(expr)};"
    if kind == 11:
        return "{ nested: ; }"
    return draw(block)


@st.composite
def programs(draw):
    """``f(p, q)`` and a helper ``g``; top-level labels ``L1``/``L2``."""
    f_body = draw(st.lists(statements(), max_size=5))
    for label in ("L1", "L2"):
        if draw(st.booleans()):
            f_body.insert(draw(st.integers(0, len(f_body))), f"{label}: ;")
    g_body = draw(st.lists(statements(1), max_size=2))
    return (
        "unsigned g(unsigned x, unsigned y) {\n"
        "    unsigned a = x; unsigned b = y; unsigned c;\n"
        f"    {' '.join(g_body)}\n"
        "    return a ^ b;\n}\n"
        "unsigned f(unsigned p, unsigned q) {\n"
        "    unsigned a = p + 1, b = 2; unsigned c;\n"
        f"    {chr(10).join(f_body)}\n"
        "    return a + b;\n}\n"
    )


def _run(cls, functions, args, max_steps):
    """Call ``f`` under ``cls``; everything observable about the call."""
    calls = []

    def builtin(name, result):
        def call(*values):
            calls.append((name, values))
            return result(*values)
        return call

    hooked = []
    globals_view = GlobalsView()
    interp = cls(functions,
                 builtins={
                     "B0": builtin("B0", lambda: len(calls)),
                     "B1": builtin("B1", lambda x: x % 2 == 0),
                     "B2": builtin("B2", lambda x, y: None),
                 },
                 constants={"K": 5}, handler_globals=globals_view,
                 max_steps=max_steps, max_depth=6, tick_hook=hooked.append)
    try:
        outcome = ("value", interp.call("f", list(args)))
    except InterpError as exc:
        outcome = ("InterpError", str(exc))
    return (outcome, interp._steps, list(interp.executed.items()),
            globals_view.fields, calls), hooked


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs(), st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 5)),
       st.sampled_from((40, 400, 4000)))
def test_generated_bodies_match_the_tree_walker(source, args, max_steps):
    functions = {f.name: f for f in parse(source).functions()}
    compiled, compiled_nodes = _run(Interpreter, functions, args, max_steps)
    reference, reference_nodes = _run(ReferenceInterpreter, functions, args,
                                      max_steps)
    assert compiled == reference
    assert len(compiled_nodes) == len(reference_nodes)
    assert all(a is b for a, b in zip(compiled_nodes, reference_nodes))


@pytest.mark.parametrize("source,error", [
    ("unsigned f(unsigned p, unsigned q) { return p / (q - q); }",
     "division by zero at <input>:1:"),
    ("unsigned f(unsigned p, unsigned q) { return p % 0; }",
     "modulo by zero at <input>:1:"),
    ("unsigned f(unsigned p, unsigned q) { return nope; }",
     "undefined variable 'nope' at <input>:1:"),
    ("unsigned f(unsigned p, unsigned q) { return 1 + 09; }",
     "malformed integer literal '09' at <input>:1:"),
    ("unsigned f(unsigned p, unsigned q) { return 2.5; }",
     "floating point is not available on the protocol processor"),
    ("unsigned f(unsigned p, unsigned q) { return q.x; }",
     "cannot evaluate Member at <input>:1:"),
    ("unsigned f(unsigned p, unsigned q) { return *p; }",
     "unsupported unary '*' at <input>:1:"),
    ("unsigned f(unsigned p, unsigned q) { (*p)(); return 0; }",
     "indirect calls unsupported at <input>:1:"),
    ("unsigned f(unsigned p, unsigned q) { HANDLER_GLOBALS(a[1]) = 1; }",
     "unsupported HANDLER_GLOBALS field: Index"),
    ("unsigned f(unsigned p, unsigned q) { return HANDLER_GLOBALS(); }",
     "HANDLER_GLOBALS needs a field at <input>:1:"),
    ("unsigned f(unsigned p, unsigned q) { p.x = 1; }",
     "unsupported assignment target Member at <input>:1:"),
    ("unsigned f(unsigned p, unsigned q) { missing(); }",
     "call to undefined 'missing' at <input>:1:"),
    ("unsigned f(unsigned p, unsigned q) { goto out; { out: ; } }",
     "goto to non-top-level label 'out' in f"),
    ("unsigned f(unsigned p, unsigned q) { while (1) { } }",
     "step budget exhausted at <input>:1:"),
    ("unsigned f(unsigned p, unsigned q) { return f(p, q); }",
     "call depth exceeded in f"),
])
def test_error_texts_match_the_tree_walker(source, error):
    functions = {f.name: f for f in parse(source).functions()}
    compiled, _ = _run(Interpreter, functions, (1, 2), 400)
    reference, _ = _run(ReferenceInterpreter, functions, (1, 2), 400)
    assert compiled == reference
    assert compiled[0][0] == "InterpError"
    assert compiled[0][1].startswith(error)


def test_unsupported_code_fails_only_when_it_runs():
    source = """
        unsigned f(unsigned p, unsigned q) {
            if (p == 99) { return 1.5 + q.x + (*p) + HANDLER_GLOBALS(); }
            return p;
        }
    """
    functions = {f.name: f for f in parse(source).functions()}
    assert Interpreter(functions).call("f", [3, 0]) == 3


# -- the five generated protocols ----------------------------------------------

PROTOCOLS = ("bitvector", "dyn_ptr", "sci", "coma", "rac")


@pytest.mark.parametrize("name", PROTOCOLS)
def test_campaign_runs_match_the_tree_walker(name):
    gp = generate_protocol(name)
    program = Program(dict(gp.files), info=gp.info, unit_memo=True)
    functions = {f.name: f for f in program.functions()}
    handlers = sorted(n for n, h in gp.info.handlers.items()
                      if h.kind == "hw" and n in functions)
    spec = CampaignSpec(files=tuple(sorted(gp.files)),
                        dispatch=tuple(enumerate(handlers, start=1)),
                        runs=3, shard_size=3, seed=7, messages=10)
    dispatch = dict(spec.dispatch)
    plans = runs_for_shard(spec, 0)
    compiled = [execute_run(functions, dispatch, spec, plan)
                for plan in plans]
    with mock.patch.object(repro.flash.sim.node, "Interpreter",
                           ReferenceInterpreter):
        reference = [execute_run(functions, dispatch, spec, plan)
                     for plan in plans]
    assert compiled == reference
    assert any(outcome["handlers_run"] for outcome in compiled)


# -- compile once ------------------------------------------------------------------

CRASHING = """
void PILocalGet(void) {
    HANDLER_DEFS();
    long db = DB_ALLOC();
    MISCBUS_READ_DB(HANDLER_GLOBALS(header.nh.addr), 0);
    HANDLER_GLOBALS(header.nh.len) = LEN_NODATA;
    NI_SEND(NI_REPLY, F_NODATA, 1, 0, 0, 0);
    release(db);
    release(db);
}
void release(long db) { DB_FREE(db); }
void NILocalPut(void) {
    HANDLER_DEFS();
    long db = DB_ALLOC();
    WAIT_FOR_DB_FULL(HANDLER_GLOBALS(header.nh.addr));
    HANDLER_GLOBALS(header.nh.len) = LEN_CACHELINE;
    NI_SEND(NI_REPLY, F_DATA, 1, 0, 0, 0);
    release(db);
}
void unused(void) { DB_FREE(0); }
"""


def test_a_shard_compiles_each_executed_function_once(tmp_path):
    path = tmp_path / "crashing.c"
    path.write_text(CRASHING)
    spec = CampaignSpec(files=(str(path),),
                        dispatch=((1, "PILocalGet"), (2, "NILocalPut")),
                        runs=5, shard_size=5, seed=11, messages=8, nodes=3)
    compile_function = repro.flash.sim.compiler.compile_function
    with mock.patch.object(repro.flash.sim.compiler, "compile_function",
                           wraps=compile_function) as compiling:
        camp = run_campaign(spec, jobs=1)
    assert camp.complete and len(camp.outcomes) == 5
    # The shard ran many machines of three nodes each, shrink re-runs
    # included, and still compiled each function it ran exactly once.
    assert sum(o["shrunk"]["iterations"] for o in camp.outcomes
               if o["shrunk"]) > 5
    compiled = [call.args[0].name for call in compiling.call_args_list]
    executed = set().union(*(o["functions_executed"] for o in camp.outcomes))
    assert sorted(compiled) == sorted(executed) == [
        "NILocalPut", "PILocalGet", "release"]
