"""Path-sensitive engine tests: caching, naive equivalence, hooks."""

from repro.cfg import build_cfg
from repro.lang import ast
from repro.lang.parser import parse
from repro.lang.sema import annotate
from repro.metal.runtime import ReportSink
from repro.metal.sm import STOP, StateMachine
from repro.mc.engine import check_unit, run_machine

from .reference_engine import run_machine_naive


def build(src, name="f"):
    unit = parse(src)
    annotate(unit)
    return unit, build_cfg(unit.function(name))


def simple_machine():
    """open() must precede use(); close() stops the path."""
    sm = StateMachine("test")
    sm.decl("any", "x")
    sm.state("start")
    sm.add_rule("start", "open(x)", target="opened")
    sm.state("opened")
    sm.add_rule(
        "start", "use(x)",
        action=lambda ctx: ctx.err("use before open"),
    )
    sm.add_rule("opened", "close(x)", target=STOP)
    return sm


class TestBasics:
    def test_error_reported(self):
        _, cfg = build("void f(void) { use(1); }")
        sink = ReportSink()
        run_machine(simple_machine(), cfg, sink)
        assert len(sink) == 1

    def test_transition_suppresses(self):
        _, cfg = build("void f(void) { open(1); use(1); }")
        sink = ReportSink()
        run_machine(simple_machine(), cfg, sink)
        assert len(sink) == 0

    def test_one_bad_path_found(self):
        _, cfg = build("""
            void f(void) {
                if (c) { open(1); }
                use(1);
            }
        """)
        sink = ReportSink()
        run_machine(simple_machine(), cfg, sink)
        assert len(sink) == 1

    def test_stop_halts_path(self):
        _, cfg = build("void f(void) { open(1); close(1); use(1); }")
        sink = ReportSink()
        run_machine(simple_machine(), cfg, sink)
        # After close the path stops; the use is never seen.
        assert len(sink) == 0

    def test_duplicate_reports_deduplicated(self):
        _, cfg = build("""
            void f(void) {
                if (a) { x1 = 1; }
                if (b) { x2 = 1; }
                use(1);
            }
        """)
        sink = ReportSink()
        run_machine(simple_machine(), cfg, sink)
        # Four paths reach the same bad use; one diagnostic.
        assert len(sink) == 1

    def test_initial_state_fn_skips_function(self):
        sm = simple_machine()
        sm.initial_state_fn = lambda fn: None
        _, cfg = build("void f(void) { use(1); }")
        sink = ReportSink()
        run_machine(sm, cfg, sink)
        assert len(sink) == 0

    def test_initial_state_fn_selects_state(self):
        sm = simple_machine()
        sm.initial_state_fn = (
            lambda fn: "opened" if fn.name == "trusted" else "start"
        )
        unit = parse("void trusted(void) { use(1); }\n"
                     "void other(void) { use(1); }")
        annotate(unit)
        sink = check_unit(sm, unit)
        assert len(sink) == 1
        assert sink.reports[0].function == "other"


class TestPathEndHook:
    def make_machine(self):
        sm = StateMachine("t")
        sm.decl("any", "x")
        sm.state("clean")
        sm.state("dirty")
        sm.add_rule("clean", "acquire(x)", target="dirty")
        sm.add_rule("dirty", "release(x)", target="clean")
        ends = []
        sm.path_end_action = lambda state, ctx: ends.append(state)
        return sm, ends

    def test_end_state_reported(self):
        sm, ends = self.make_machine()
        _, cfg = build("void f(void) { acquire(1); }")
        run_machine(sm, cfg, ReportSink())
        assert ends == ["dirty"]

    def test_end_states_per_path(self):
        sm, ends = self.make_machine()
        _, cfg = build("""
            void f(void) {
                acquire(1);
                if (c) { release(1); }
            }
        """)
        run_machine(sm, cfg, ReportSink())
        assert sorted(ends) == ["clean", "dirty"]


class TestBranchHook:
    def make_machine(self):
        sm = StateMachine("t")
        sm.decl("any", "x")
        sm.state("unknown")
        sm.state("yes")
        sm.state("no")

        def branch(state, cond, label):
            if (isinstance(cond, ast.Call)
                    and cond.callee_name == "test_it"
                    and state == "unknown"):
                return "yes" if label == "true" else "no"
            return None

        sm.branch_fn = branch
        seen = []
        sm.path_end_action = lambda state, ctx: seen.append(state)
        return sm, seen

    def test_edge_sensitive_states(self):
        sm, seen = self.make_machine()
        _, cfg = build("""
            void f(void) {
                if (test_it()) { a(); } else { b(); }
            }
        """)
        run_machine(sm, cfg, ReportSink())
        assert sorted(seen) == ["no", "yes"]

    def test_unrelated_condition_ignored(self):
        sm, seen = self.make_machine()
        _, cfg = build("void f(void) { if (z) { a(); } }")
        run_machine(sm, cfg, ReportSink())
        assert sorted(seen) == ["unknown"]


class TestCachingVsNaive:
    SOURCES = [
        "void f(void) { if (a) { open(1); } use(1); }",
        "void f(void) { open(1); if (a) { close(1); } use(1); }",
        """void f(void) {
            if (a) { open(1); } else { use(1); }
            if (b) { use(2); }
            use(3);
        }""",
        """void f(void) {
            while (a) { if (b) { open(1); } }
            use(1);
        }""",
    ]

    def test_same_reports_with_and_without_cache(self):
        for src in self.SOURCES:
            _, cfg = build(src)
            cached, naive = ReportSink(), ReportSink()
            run_machine(simple_machine(), cfg, cached)
            run_machine_naive(simple_machine(), cfg, naive)
            assert (
                sorted(str(r) for r in cached.reports)
                == sorted(str(r) for r in naive.reports)
            ), src

    def test_naive_walks_exponentially_many_paths(self):
        body = " ".join(f"if (c{i}) {{ a(); }}" for i in range(10))
        _, cfg = build(f"void f(void) {{ {body} use(1); }}")
        walked = run_machine_naive(simple_machine(), cfg, ReportSink())
        assert walked >= 2 ** 10

    def test_naive_respects_path_cap(self):
        import pytest
        body = " ".join(f"if (c{i}) {{ a(); }}" for i in range(14))
        _, cfg = build(f"void f(void) {{ {body} }}")
        with pytest.raises(ValueError):
            run_machine_naive(simple_machine(), cfg, ReportSink(),
                              max_paths=1000)

    def test_cached_engine_visits_loops_finitely(self):
        _, cfg = build("""
            void f(void) {
                while (a) { if (b) { open(1); } else { use(9); } }
            }
        """)
        sink = ReportSink()
        run_machine(simple_machine(), cfg, sink)  # must terminate
        assert len(sink) == 1


class TestMessageExpansion:
    def test_binding_interpolation(self):
        sm = StateMachine("t")
        sm.decl("any", "x")
        sm.state("s")
        sm.add_rule("s", "free(x)",
                    action=lambda ctx: ctx.err("freeing %x twice"))
        unit = parse("void f(void) { free(buffer_ptr); }")
        annotate(unit)
        sink = check_unit(sm, unit)
        assert "buffer_ptr" in sink.reports[0].message
