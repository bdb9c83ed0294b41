"""AST interpreter tests."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import InterpError
from repro.flash.sim.interp import GlobalsView, Interpreter
from repro.lang.parser import parse


def make(src, builtins=None, constants=None):
    unit = parse(src)
    functions = {f.name: f for f in unit.functions()}
    return Interpreter(functions, builtins=builtins, constants=constants)


def run_expr(expr_text, constants=None):
    interp = make(f"unsigned f(void) {{ return {expr_text}; }}",
                  constants=constants)
    return interp.call("f")


class TestExpressions:
    @pytest.mark.parametrize("text,value", [
        ("1 + 2", 3), ("7 - 3", 4), ("4 * 5", 20), ("9 / 2", 4),
        ("9 % 4", 1), ("1 << 4", 16), ("32 >> 2", 8), ("6 & 3", 2),
        ("4 | 1", 5), ("5 ^ 1", 4), ("~0", 0xFFFFFFFF),
        ("1 == 1", 1), ("1 != 1", 0), ("2 < 3", 1), ("3 <= 3", 1),
        ("4 > 5", 0), ("5 >= 5", 1), ("!0", 1), ("!7", 0),
        ("-1", 0xFFFFFFFF), ("1 ? 10 : 20", 10), ("0 ? 10 : 20", 20),
        ("(2 + 3) * 4", 20), ("0x10 + 010", 24),
    ])
    def test_arithmetic(self, text, value):
        assert run_expr(text) == value

    def test_unsigned_wraparound(self):
        assert run_expr("0xFFFFFFFF + 1") == 0
        assert run_expr("0 - 1") == 0xFFFFFFFF

    def test_short_circuit_and(self):
        interp = make("""
            unsigned side(void) { return 1; }
            unsigned f(void) { return 0 && boom(); }
        """)
        assert interp.call("f") == 0  # boom() never evaluated

    def test_short_circuit_or(self):
        interp = make("unsigned f(void) { return 1 || boom(); }")
        assert interp.call("f") == 1

    def test_division_by_zero_raises(self):
        with pytest.raises(InterpError):
            run_expr("1 / 0")

    def test_constants_resolved(self):
        assert run_expr("LEN_WORD + 1", constants={"LEN_WORD": 1}) == 2

    def test_undefined_variable_raises(self):
        with pytest.raises(InterpError):
            run_expr("mystery")

    def test_float_literal_raises(self):
        # The protocol processor has no floating point.
        with pytest.raises(InterpError):
            run_expr("1.5")

    def test_char_literal(self):
        assert run_expr("'A'") == 65

    def test_comma(self):
        interp = make("unsigned f(void) { unsigned a; return (a = 3, a + 1); }")
        assert interp.call("f") == 4


class TestStatements:
    def test_locals_and_assignment(self):
        interp = make("""
            unsigned f(void) { unsigned a = 3; a += 4; a *= 2; return a; }
        """)
        assert interp.call("f") == 14

    def test_if_else(self):
        interp = make("""
            unsigned f(unsigned x) {
                if (x > 10) { return 1; } else { return 2; }
            }
        """)
        assert interp.call("f", [11]) == 1
        assert interp.call("f", [5]) == 2

    def test_while_loop(self):
        interp = make("""
            unsigned f(void) {
                unsigned i = 0, total = 0;
                while (i < 5) { total += i; i++; }
                return total;
            }
        """)
        assert interp.call("f") == 10

    def test_for_loop(self):
        interp = make("""
            unsigned f(void) {
                unsigned total = 0;
                for (unsigned i = 1; i <= 4; i++) { total += i; }
                return total;
            }
        """)
        assert interp.call("f") == 10

    def test_do_while(self):
        interp = make("""
            unsigned f(void) {
                unsigned i = 0;
                do { i++; } while (i < 3);
                return i;
            }
        """)
        assert interp.call("f") == 3

    def test_break_and_continue(self):
        interp = make("""
            unsigned f(void) {
                unsigned total = 0;
                for (unsigned i = 0; i < 10; i++) {
                    if (i == 2) { continue; }
                    if (i == 5) { break; }
                    total += i;
                }
                return total;
            }
        """)
        assert interp.call("f") == 0 + 1 + 3 + 4

    def test_switch_dispatch(self):
        interp = make("""
            unsigned f(unsigned x) {
                unsigned r = 0;
                switch (x) {
                case 1: r = 10; break;
                case 2: r = 20; break;
                default: r = 99; break;
                }
                return r;
            }
        """)
        assert interp.call("f", [1]) == 10
        assert interp.call("f", [2]) == 20
        assert interp.call("f", [7]) == 99

    def test_switch_fallthrough(self):
        interp = make("""
            unsigned f(unsigned x) {
                unsigned r = 0;
                switch (x) {
                case 1: r += 1;
                case 2: r += 2; break;
                case 3: r += 4; break;
                }
                return r;
            }
        """)
        assert interp.call("f", [1]) == 3
        assert interp.call("f", [2]) == 2

    def test_postfix_and_prefix_increment(self):
        interp = make("""
            unsigned f(void) {
                unsigned a = 5, b;
                b = a++;
                b += ++a;
                return b * 100 + a;
            }
        """)
        assert interp.call("f") == (5 + 7) * 100 + 7

    def test_infinite_loop_hits_step_budget(self):
        interp = make("void f(void) { while (1) { } }")
        interp.max_steps = 1000
        with pytest.raises(InterpError):
            interp.call("f")

    def test_goto_forward_to_top_level_label(self):
        interp = make("""
            unsigned f(void) {
                unsigned r = 0;
                goto out;
                r = 99;
            out:
                r = r + 1;
                return r;
            }
        """)
        assert interp.call("f") == 1

    def test_goto_error_exit_idiom(self):
        interp = make("""
            unsigned f(unsigned x) {
                unsigned cleanup = 0;
                if (x > 10) { goto fail; }
                return 0;
            fail:
                cleanup = 1;
                return cleanup + 100;
            }
        """)
        assert interp.call("f", [20]) == 101
        assert interp.call("f", [1]) == 0

    def test_goto_into_nested_block_rejected(self):
        interp = make("""
            void f(void) {
                goto inner;
                if (x) { inner: return; }
            }
        """)
        with pytest.raises(InterpError):
            interp.call("f")

    def test_goto_loop_hits_step_budget(self):
        interp = make("void f(void) { again: goto again; }")
        interp.max_steps = 1000
        with pytest.raises(InterpError):
            interp.call("f")


class TestCallsAndGlobals:
    def test_program_function_call(self):
        interp = make("""
            unsigned add(unsigned a, unsigned b) { return a + b; }
            unsigned f(void) { return add(40, 2); }
        """)
        assert interp.call("f") == 42

    def test_recursion(self):
        interp = make("""
            unsigned fact(unsigned n) {
                if (n < 2) { return 1; }
                return n * fact(n - 1);
            }
        """)
        assert interp.call("fact", [6]) == 720

    def test_recursion_depth_limit(self):
        interp = make("unsigned f(unsigned n) { return f(n + 1); }")
        with pytest.raises(InterpError):
            interp.call("f", [0])

    def test_builtin_call(self):
        seen = []
        interp = make("void f(void) { log_it(7); }",
                      builtins={"log_it": lambda v: seen.append(v)})
        interp.call("f")
        assert seen == [7]

    def test_handler_globals_read_write(self):
        interp = make("""
            unsigned f(void) {
                HANDLER_GLOBALS(header.nh.len) = 2;
                return HANDLER_GLOBALS(header.nh.len) + 1;
            }
        """)
        assert interp.call("f") == 3
        assert interp.globals.read("header.nh.len") == 2

    def test_handler_globals_compound_assign(self):
        interp = make("""
            void f(void) { HANDLER_GLOBALS(dirEntry) |= 4; }
        """)
        interp.call("f")
        assert interp.globals.read("dirEntry") == 4

    def test_undefined_call_raises(self):
        interp = make("void f(void) { nothere(); }")
        with pytest.raises(InterpError):
            interp.call("f")


@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_property_add_matches_c_semantics(a, b):
    interp = make("unsigned f(unsigned a, unsigned b) { return a + b; }")
    assert interp.call("f", [a, b]) == (a + b) % 2**32


@given(st.integers(0, 2**32 - 1), st.integers(1, 31))
def test_property_shift_matches_c_semantics(a, s):
    interp = make("unsigned f(unsigned a, unsigned s) { return a << s; }")
    assert interp.call("f", [a, s]) == (a << s) % 2**32


class TestNoEscapes:
    """Every failure of a simulated handler is an ``InterpError``."""

    def test_stray_break_is_an_interp_error(self):
        interp = make("void H(void) { unsigned a = 1; break; }")
        with pytest.raises(InterpError,
                           match=r"^break outside loop/switch in H$"):
            interp.call("H")
        assert interp._steps == 3  # decl, its literal, break; nothing after

    def test_stray_continue_is_an_interp_error(self):
        interp = make("void H(void) { if (1) { continue; } }")
        with pytest.raises(InterpError,
                           match=r"^continue outside loop in H$"):
            interp.call("H")

    def test_break_in_callee_does_not_end_callers_loop(self):
        interp = make("""
            void leave(void) { break; }
            unsigned H(void) {
                unsigned i = 0;
                while (i < 3) { i++; leave(); }
                return i;
            }
        """)
        with pytest.raises(InterpError,
                           match=r"^break outside loop/switch in leave$"):
            interp.call("H")

    def test_python_stack_exhaustion_names_the_handler(self):
        # A recursive helper whose call sits deep inside nested blocks
        # runs out of Python stack before max_depth stops it.
        depth = 30
        nested = "if (n) { " * depth + "return R(n - 1) + 1;" + " }" * depth
        interp = make(f"""
            unsigned R(unsigned n) {{ {nested} return 0; }}
            unsigned H(void) {{ return R(60); }}
        """)
        with pytest.raises(InterpError, match=r"^stack exhausted in H: "):
            interp.call("H")
        assert interp._depth == 0
        assert interp.call("R", [2]) == 2
