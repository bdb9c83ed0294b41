"""Interpreter for generated protocol code.

FlashLite ran the real protocol C on a simulated MAGIC; this interpreter
plays that role for our substrate: it executes handler
:class:`FunctionDef` bodies from the frontend's AST, with the FLASH
macro vocabulary supplied as builtin callables by the node model
(:mod:`repro.flash.sim.node`).  Each function is compiled once, on its
first call, into a tree of closures (:mod:`repro.flash.sim.compiler`);
the :class:`CompiledProgram` holding them is shared by every
interpreter its creator passes it to.

Semantics: 32-bit unsigned arithmetic, C truthiness, short-circuit
``&&``/``||``, one frame of locals per call, calls into other program
functions, and the ``HANDLER_GLOBALS(field)`` pseudo-macro resolved as a
read or write of the node's handler-global block.  A step budget guards
against runaway loops (generated code always terminates, but the
interpreter is also exercised on adversarial inputs in tests).
"""

from __future__ import annotations

from typing import Callable, Optional

from ...errors import InterpError
from ...lang import ast
from .compiler import MASK32, CompiledProgram, as_int


class GlobalsView:
    """Read/write access to the handler-global block (override per node)."""

    def __init__(self) -> None:
        self.fields: dict[str, int] = {}

    def read(self, path: str) -> int:
        return self.fields.get(path, 0)

    def write(self, path: str, value: int) -> None:
        self.fields[path] = value & MASK32


class Interpreter:
    """Executes functions from one parsed program.

    ``program`` is the compiled form of ``functions``; pass the same one
    to every interpreter over the same program so each function is
    compiled once.  Without it the interpreter compiles its own.
    """

    def __init__(
        self,
        functions: dict[str, ast.FunctionDef],
        builtins: Optional[dict[str, Callable]] = None,
        constants: Optional[dict[str, int]] = None,
        handler_globals: Optional[GlobalsView] = None,
        max_steps: int = 1_000_000,
        max_depth: int = 64,
        tick_hook: Optional[Callable[[ast.Node], None]] = None,
        program: Optional[CompiledProgram] = None,
    ):
        self.functions = functions
        self.program = (program if program is not None
                        else CompiledProgram(functions))
        self.builtins = dict(builtins or {})
        self.constants = dict(constants or {})
        self.globals = handler_globals if handler_globals is not None else GlobalsView()
        self.max_steps = max_steps
        self.max_depth = max_depth
        #: Called once per executed statement/expression — the
        #: simulator's cycle clock.  A fault injector installs itself
        #: here to support cycle-window triggers and ``handler_crash``
        #: rules (which raise out of the hook).
        self.tick_hook = tick_hook
        #: Names of program functions this interpreter has executed, in
        #: first-execution order.  Campaign cross-tabulation uses this to
        #: decide whether a statically-reported function was actually
        #: exercised by a run (a report in dead-for-this-workload code
        #: cannot be dynamically confirmed).
        self.executed: dict[str, int] = {}
        self._steps = 0
        self._depth = 0

    # -- public API ----------------------------------------------------------

    def call(self, name: str, args: Optional[list[int]] = None) -> int:
        """Call a program function (or builtin) by name."""
        args = args or []
        if name in self.functions:
            try:
                return self.program.function(name)(self, args)
            except RecursionError:
                # Nesting ran out of Python stack before max_depth
                # stopped the calls.
                raise InterpError(
                    f"stack exhausted in {name}: calls and blocks "
                    f"nested too deeply") from None
        if name in self.builtins:
            return as_int(self.builtins[name](*args))
        raise InterpError(f"undefined function {name!r}")

    def reset_steps(self) -> None:
        self._steps = 0
