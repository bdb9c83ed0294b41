"""Compile handler ASTs into trees of Python closures.

The simulator runs a handler thousands of times per campaign, so each
program function is compiled once, on its first call, and every later
call runs the compiled form.  Compiling resolves what does not change
between calls: literal values, the function for each operator,
``HANDLER_GLOBALS`` field paths and the table of top-level labels.
Everything an interpreter owns (``builtins``, ``constants``,
``globals``, ``max_steps``, ``tick_hook``, the step and depth counters)
is read from it at run time, so one :class:`CompiledProgram` serves
every node and machine that shares it.

Shapes of the compiled code:

- an expression becomes ``ev(interp, frame) -> int``;
- a statement becomes ``ex(interp, frame) -> status``.  The status is
  ``None`` when the statement completes normally, ``_BREAK`` or
  ``_CONTINUE``, a goto's label (a ``str``), or a return's value (an
  ``int``).  Loops and ``switch`` consume the statuses they own and pass
  the rest up; the function body turns a stray ``break``/``continue``
  or a goto to a nested label into an :class:`InterpError`.

Every closure starts with the same tick, written out inline because a
call per tick would cost as much as the node itself: count the step,
stop with ``step budget exhausted at <location>`` past ``max_steps``,
then hand the node to ``tick_hook``.  The ticks fall at the same nodes,
in the same order, as they did in the tree-walking interpreter this
replaced (``tests/reference_interp.py``); ``docs/simulator.md`` states
the contract.  Constructs the interpreter cannot run still compile:
they raise their error when executed, not when compiled.
"""

from __future__ import annotations

import gc
import operator
from typing import Callable

from ...errors import InterpError
from ...lang import ast

MASK32 = 0xFFFFFFFF

_BREAK = object()
_CONTINUE = object()

#: Operators whose C result is the Python result masked to 32 bits
#: (a comparison's ``bool`` masks to 0 or 1).
_MASKED_OPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "&": operator.and_, "|": operator.or_, "^": operator.xor,
    "==": operator.eq, "!=": operator.ne, "<": operator.lt,
    ">": operator.gt, "<=": operator.le, ">=": operator.ge,
}


def as_int(value) -> int:
    """A builtin's return value as a 32-bit unsigned C value."""
    if value is None or value is False:
        return 0
    if value is True:
        return 1
    return int(value) & MASK32


def _path_of(expr: ast.Expr) -> str:
    """Render the HANDLER_GLOBALS argument (``header.nh.len``) as a path."""
    if isinstance(expr, ast.Ident):
        return expr.name
    if isinstance(expr, ast.Member):
        return f"{_path_of(expr.base)}.{expr.name}"
    raise InterpError(f"unsupported HANDLER_GLOBALS field: {expr.kind}")


def _exhausted(node: ast.Node) -> InterpError:
    return InterpError(f"step budget exhausted at {node.location}")


def _operation(op: str, node: ast.Node) -> Callable[[int, int], int]:
    """``left op right`` on 32-bit unsigned values; errors name ``node``."""
    masked = _MASKED_OPS.get(op)
    if masked is not None:
        return lambda left, right: masked(left, right) & MASK32
    if op in ("/", "%"):
        word = "division" if op == "/" else "modulo"
        divide = operator.floordiv if op == "/" else operator.mod

        def checked(left: int, right: int) -> int:
            if right == 0:
                raise InterpError(f"{word} by zero at {node.location}")
            return divide(left, right) & MASK32
        return checked
    if op == "<<":
        return lambda left, right: (left << (right & 31)) & MASK32
    if op == ">>":
        return lambda left, right: (left >> (right & 31)) & MASK32

    def unsupported(left: int, right: int) -> int:
        raise InterpError(f"unsupported operator {op!r} at {node.location}")
    return unsupported


class CompiledProgram:
    """The compiled functions of one program, each built on first call.

    Whoever builds interpreters for a program creates one of these and
    passes it to each: a :class:`~repro.flash.sim.FlashMachine` shares
    one across its nodes, and a campaign shard across every machine it
    runs.  Nothing is cached process-wide.
    """

    def __init__(self, functions: dict[str, ast.FunctionDef]):
        self.functions = functions
        #: Function name -> ``run(interp, args) -> int``.
        self.compiled: dict[str, Callable] = {}

    def function(self, name: str) -> Callable:
        """The compiled form of program function ``name``."""
        code = self.compiled.get(name)
        if code is None:
            code = self.compiled[name] = compile_function(
                self.functions[name], self)
        return code


def compile_function(func: ast.FunctionDef,
                     program: CompiledProgram) -> Callable:
    """Compile ``func`` into ``run(interp, args) -> int``; calls it makes
    go through ``program``."""
    # Compiling allocates a few closures per node and frees none of
    # them, so a collection in the middle finds no garbage; it only
    # re-scans the live heap, parsed ASTs included, which made a compile
    # about ten times slower.  Pause the collector while compiling.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _Compiler(func, program).function()
    finally:
        if collecting:
            gc.enable()


class _Compiler:
    """Compiles the body of one function."""

    def __init__(self, func: ast.FunctionDef, program: CompiledProgram):
        self.func = func
        self.program = program

    def _lookup(self, table: dict, node: ast.Node):
        for cls in type(node).__mro__:
            method = table.get(cls)
            if method is not None:
                return method
        return None

    # -- the function -------------------------------------------------------

    def function(self) -> Callable:
        name = self.func.name
        body = self.func.body
        params = tuple(param.name for param in self.func.params)
        stmts = tuple(self.stmt(stmt) for stmt in body.stmts)
        # A taken goto resumes at its top-level label; nested labels
        # are not jump targets.
        resume = {stmt.name: stmts[i:] for i, stmt in enumerate(body.stmts)
                  if isinstance(stmt, ast.Label)}

        def run(interp, args):
            if interp._depth >= interp.max_depth:
                raise InterpError(f"call depth exceeded in {name}")
            executed = interp.executed
            executed[name] = executed.get(name, 0) + 1
            frame = {}
            for param, value in zip(params, args):
                if param:
                    frame[param] = value & MASK32
            interp._depth += 1
            try:
                todo = stmts
                while True:
                    for ex in todo:
                        status = ex(interp, frame)
                        if status is not None:
                            break
                    else:
                        return 0
                    if type(status) is int:
                        return status
                    if status is _BREAK:
                        raise InterpError(
                            f"break outside loop/switch in {name}")
                    if status is _CONTINUE:
                        raise InterpError(f"continue outside loop in {name}")
                    todo = resume.get(status)
                    if todo is None:
                        raise InterpError(
                            f"goto to non-top-level label {status!r} "
                            f"in {name}")
                    interp._steps += 1
                    if interp._steps > interp.max_steps:
                        raise _exhausted(body)
                    if interp.tick_hook is not None:
                        interp.tick_hook(body)
            finally:
                interp._depth -= 1
        return run

    # -- statements ---------------------------------------------------------

    def stmt(self, node: ast.Stmt) -> Callable:
        method = self._lookup(self._STMTS, node)
        if method is None:
            return self._raising(node, f"cannot execute {node.kind}")
        return method(self, node)

    def _raising(self, node: ast.Node, message: str) -> Callable:
        """A node that ticks, then fails with ``message``."""
        def ex(interp, frame):
            interp._steps += 1
            if interp._steps > interp.max_steps:
                raise _exhausted(node)
            if interp.tick_hook is not None:
                interp.tick_hook(node)
            raise InterpError(message)
        return ex

    def _nothing(self, node: ast.Stmt) -> Callable:
        """Empty statements, labels and case markers: a tick, nothing
        else."""
        def ex(interp, frame):
            interp._steps += 1
            if interp._steps > interp.max_steps:
                raise _exhausted(node)
            if interp.tick_hook is not None:
                interp.tick_hook(node)
        return ex

    def _jump(self, node: ast.Stmt) -> Callable:
        """``break``, ``continue`` and ``goto``: a tick, then the status."""
        if isinstance(node, ast.Goto):
            status = node.label
        elif isinstance(node, ast.Break):
            status = _BREAK
        else:
            status = _CONTINUE

        def ex(interp, frame):
            interp._steps += 1
            if interp._steps > interp.max_steps:
                raise _exhausted(node)
            if interp.tick_hook is not None:
                interp.tick_hook(node)
            return status
        return ex

    def _block(self, node: ast.Block) -> Callable:
        stmts = tuple(self.stmt(stmt) for stmt in node.stmts)

        def ex(interp, frame):
            interp._steps += 1
            if interp._steps > interp.max_steps:
                raise _exhausted(node)
            if interp.tick_hook is not None:
                interp.tick_hook(node)
            for stmt in stmts:
                status = stmt(interp, frame)
                if status is not None:
                    return status
        return ex

    def _expr_stmt(self, node: ast.ExprStmt) -> Callable:
        expr = self.expr(node.expr)

        def ex(interp, frame):
            interp._steps += 1
            if interp._steps > interp.max_steps:
                raise _exhausted(node)
            if interp.tick_hook is not None:
                interp.tick_hook(node)
            expr(interp, frame)
        return ex

    def _decl_stmt(self, node: ast.DeclStmt) -> Callable:
        decls = tuple(
            (decl.name,
             self.expr(decl.init) if decl.init is not None else None)
            for decl in node.decls)

        def ex(interp, frame):
            interp._steps += 1
            if interp._steps > interp.max_steps:
                raise _exhausted(node)
            if interp.tick_hook is not None:
                interp.tick_hook(node)
            for name, init in decls:
                frame[name] = init(interp, frame) & MASK32 if init else 0
        return ex

    def _if(self, node: ast.If) -> Callable:
        cond = self.expr(node.cond)
        then = self.stmt(node.then)
        otherwise = (self.stmt(node.otherwise)
                     if node.otherwise is not None else None)

        def ex(interp, frame):
            interp._steps += 1
            if interp._steps > interp.max_steps:
                raise _exhausted(node)
            if interp.tick_hook is not None:
                interp.tick_hook(node)
            if cond(interp, frame):
                return then(interp, frame)
            if otherwise is not None:
                return otherwise(interp, frame)
        return ex

    def _while(self, node: ast.While) -> Callable:
        cond = self.expr(node.cond)
        body = self.stmt(node.body)

        def ex(interp, frame):
            interp._steps += 1
            if interp._steps > interp.max_steps:
                raise _exhausted(node)
            if interp.tick_hook is not None:
                interp.tick_hook(node)
            while cond(interp, frame):
                interp._steps += 1
                if interp._steps > interp.max_steps:
                    raise _exhausted(node)
                if interp.tick_hook is not None:
                    interp.tick_hook(node)
                status = body(interp, frame)
                if status is not None:
                    if status is _BREAK:
                        break
                    if status is not _CONTINUE:
                        return status
        return ex

    def _do_while(self, node: ast.DoWhile) -> Callable:
        body = self.stmt(node.body)
        cond = self.expr(node.cond)

        def ex(interp, frame):
            interp._steps += 1
            if interp._steps > interp.max_steps:
                raise _exhausted(node)
            if interp.tick_hook is not None:
                interp.tick_hook(node)
            while True:
                interp._steps += 1
                if interp._steps > interp.max_steps:
                    raise _exhausted(node)
                if interp.tick_hook is not None:
                    interp.tick_hook(node)
                status = body(interp, frame)
                if status is not None:
                    if status is _BREAK:
                        break
                    if status is not _CONTINUE:
                        return status
                if not cond(interp, frame):
                    break
        return ex

    def _for(self, node: ast.For) -> Callable:
        if isinstance(node.init, ast.DeclStmt):
            init = self.stmt(node.init)
        elif isinstance(node.init, ast.Expr):
            init = self.expr(node.init)
        else:
            init = None
        cond = self.expr(node.cond) if node.cond is not None else None
        step = self.expr(node.step) if node.step is not None else None
        body = self.stmt(node.body)

        def ex(interp, frame):
            interp._steps += 1
            if interp._steps > interp.max_steps:
                raise _exhausted(node)
            if interp.tick_hook is not None:
                interp.tick_hook(node)
            if init is not None:
                init(interp, frame)
            while cond is None or cond(interp, frame):
                interp._steps += 1
                if interp._steps > interp.max_steps:
                    raise _exhausted(node)
                if interp.tick_hook is not None:
                    interp.tick_hook(node)
                status = body(interp, frame)
                if status is not None:
                    if status is _BREAK:
                        break
                    if status is not _CONTINUE:
                        return status
                if step is not None:
                    step(interp, frame)
        return ex

    def _switch(self, node: ast.Switch) -> Callable:
        cond = self.expr(node.cond)
        children = node.body.stmts
        stmts = tuple(self.stmt(child) for child in children)
        # Each case: its value, and the statements from its label on.
        cases = tuple((self.expr(child.value), stmts[i:])
                      for i, child in enumerate(children)
                      if isinstance(child, ast.Case))
        default = next((stmts[i:] for i, child in enumerate(children)
                        if isinstance(child, ast.Default)), None)

        def ex(interp, frame):
            interp._steps += 1
            if interp._steps > interp.max_steps:
                raise _exhausted(node)
            if interp.tick_hook is not None:
                interp.tick_hook(node)
            selector = cond(interp, frame)
            todo = None
            # Every case value is evaluated, in order, even after a match.
            for value, suffix in cases:
                if value(interp, frame) == selector and todo is None:
                    todo = suffix
            if todo is None:
                todo = default
            if todo is None:
                return None
            for stmt in todo:
                status = stmt(interp, frame)
                if status is not None:
                    return None if status is _BREAK else status
        return ex

    def _return(self, node: ast.Return) -> Callable:
        value = self.expr(node.value) if node.value is not None else None

        def ex(interp, frame):
            interp._steps += 1
            if interp._steps > interp.max_steps:
                raise _exhausted(node)
            if interp.tick_hook is not None:
                interp.tick_hook(node)
            return value(interp, frame) if value is not None else 0
        return ex

    _STMTS = {
        ast.Block: _block, ast.ExprStmt: _expr_stmt,
        ast.DeclStmt: _decl_stmt, ast.If: _if, ast.While: _while,
        ast.DoWhile: _do_while, ast.For: _for, ast.Switch: _switch,
        ast.Return: _return, ast.Break: _jump, ast.Continue: _jump,
        ast.Goto: _jump, ast.EmptyStmt: _nothing, ast.Label: _nothing,
        ast.Case: _nothing, ast.Default: _nothing,
    }

    # -- expressions --------------------------------------------------------

    def expr(self, node: ast.Expr) -> Callable:
        method = self._lookup(self._EXPRS, node)
        if method is None:
            return self._raising(
                node, f"cannot evaluate {node.kind} at {node.location}")
        return method(self, node)

    def _constant(self, node: ast.Expr, value: int) -> Callable:
        def ev(interp, frame):
            interp._steps += 1
            if interp._steps > interp.max_steps:
                raise _exhausted(node)
            if interp.tick_hook is not None:
                interp.tick_hook(node)
            return value
        return ev

    def _int_lit(self, node: ast.IntLit) -> Callable:
        try:
            value = node.value & MASK32
        except ValueError:
            return self._raising(
                node, f"malformed integer literal {node.text!r} at "
                      f"{node.location}")
        return self._constant(node, value)

    def _char_lit(self, node: ast.CharLit) -> Callable:
        body = node.text[1:-1]
        return self._constant(node, (ord(body[-1]) if body else 0) & MASK32)

    def _float_lit(self, node: ast.FloatLit) -> Callable:
        return self._raising(
            node, f"floating point is not available on the protocol "
                  f"processor ({node.location})")

    def _ident(self, node: ast.Ident) -> Callable:
        name = node.name

        def ev(interp, frame):
            interp._steps += 1
            if interp._steps > interp.max_steps:
                raise _exhausted(node)
            if interp.tick_hook is not None:
                interp.tick_hook(node)
            if name in frame:
                return frame[name]
            constants = interp.constants
            if name in constants:
                return constants[name] & MASK32
            raise InterpError(
                f"undefined variable {name!r} at {node.location}")
        return ev

    def store(self, target: ast.Expr) -> Callable:
        """``store(interp, frame, value)`` for an assignment target."""
        if isinstance(target, ast.Ident):
            name = target.name

            def to_frame(interp, frame, value):
                frame[name] = value & MASK32
            return to_frame
        if (isinstance(target, ast.Call)
                and target.callee_name == "HANDLER_GLOBALS" and target.args):
            try:
                path = _path_of(target.args[0])
            except InterpError as exc:
                message = str(exc)
            else:
                def to_globals(interp, frame, value):
                    interp.globals.write(path, value & MASK32)
                return to_globals
        else:
            message = (f"unsupported assignment target {target.kind} at "
                       f"{target.location}")

        def unsupported(interp, frame, value):
            raise InterpError(message)
        return unsupported

    def _assign(self, node: ast.Assign) -> Callable:
        value = self.expr(node.value)
        if node.op != "=":
            current = self.expr(node.target)
            apply = _operation(node.op[:-1], node)
            store = self.store(node.target)

            def ev_compound(interp, frame):
                interp._steps += 1
                if interp._steps > interp.max_steps:
                    raise _exhausted(node)
                if interp.tick_hook is not None:
                    interp.tick_hook(node)
                result = apply(current(interp, frame), value(interp, frame))
                store(interp, frame, result)
                return result
            return ev_compound
        if isinstance(node.target, ast.Ident):
            name = node.target.name

            def ev_local(interp, frame):
                interp._steps += 1
                if interp._steps > interp.max_steps:
                    raise _exhausted(node)
                if interp.tick_hook is not None:
                    interp.tick_hook(node)
                result = value(interp, frame)
                frame[name] = result & MASK32
                return result
            return ev_local
        store = self.store(node.target)

        def ev(interp, frame):
            interp._steps += 1
            if interp._steps > interp.max_steps:
                raise _exhausted(node)
            if interp.tick_hook is not None:
                interp.tick_hook(node)
            result = value(interp, frame)
            store(interp, frame, result)
            return result
        return ev

    def _binary(self, node: ast.BinaryOp) -> Callable:
        op = node.op
        left = self.expr(node.left)
        right = self.expr(node.right)
        if op in ("&&", "||"):
            conjunction = op == "&&"

            def ev_logic(interp, frame):
                interp._steps += 1
                if interp._steps > interp.max_steps:
                    raise _exhausted(node)
                if interp.tick_hook is not None:
                    interp.tick_hook(node)
                if conjunction:
                    return 1 if (left(interp, frame)
                                 and right(interp, frame)) else 0
                return 1 if (left(interp, frame)
                             or right(interp, frame)) else 0
            return ev_logic
        masked = _MASKED_OPS.get(op)
        if masked is not None:
            def ev_masked(interp, frame):
                interp._steps += 1
                if interp._steps > interp.max_steps:
                    raise _exhausted(node)
                if interp.tick_hook is not None:
                    interp.tick_hook(node)
                return masked(left(interp, frame),
                              right(interp, frame)) & MASK32
            return ev_masked
        apply = _operation(op, node)

        def ev(interp, frame):
            interp._steps += 1
            if interp._steps > interp.max_steps:
                raise _exhausted(node)
            if interp.tick_hook is not None:
                interp.tick_hook(node)
            return apply(left(interp, frame), right(interp, frame))
        return ev

    def _unary(self, node: ast.UnaryOp) -> Callable:
        op = node.op
        if op in ("++", "--"):
            return self._step(node, prefix=True)
        if op not in ("!", "-", "+", "~"):
            return self._raising(
                node, f"unsupported unary {op!r} at {node.location}")
        operand = self.expr(node.operand)

        def ev(interp, frame):
            interp._steps += 1
            if interp._steps > interp.max_steps:
                raise _exhausted(node)
            if interp.tick_hook is not None:
                interp.tick_hook(node)
            value = operand(interp, frame)
            if op == "!":
                return 0 if value else 1
            if op == "-":
                return -value & MASK32
            if op == "~":
                return ~value & MASK32
            return value
        return ev

    def _postfix(self, node: ast.PostfixOp) -> Callable:
        return self._step(node, prefix=False)

    def _step(self, node, prefix: bool) -> Callable:
        """``++``/``--``: the prefix form yields the new value, the
        postfix form the old one."""
        operand = self.expr(node.operand)
        store = self.store(node.operand)
        delta = 1 if node.op == "++" else -1

        def ev(interp, frame):
            interp._steps += 1
            if interp._steps > interp.max_steps:
                raise _exhausted(node)
            if interp.tick_hook is not None:
                interp.tick_hook(node)
            old = operand(interp, frame)
            new = (old + delta) & MASK32
            store(interp, frame, new)
            return new if prefix else old
        return ev

    def _ternary(self, node: ast.Ternary) -> Callable:
        cond = self.expr(node.cond)
        then = self.expr(node.then)
        otherwise = self.expr(node.otherwise)

        def ev(interp, frame):
            interp._steps += 1
            if interp._steps > interp.max_steps:
                raise _exhausted(node)
            if interp.tick_hook is not None:
                interp.tick_hook(node)
            if cond(interp, frame):
                return then(interp, frame)
            return otherwise(interp, frame)
        return ev

    def _cast(self, node: ast.Cast) -> Callable:
        operand = self.expr(node.operand)

        def ev(interp, frame):
            interp._steps += 1
            if interp._steps > interp.max_steps:
                raise _exhausted(node)
            if interp.tick_hook is not None:
                interp.tick_hook(node)
            return operand(interp, frame)
        return ev

    def _comma(self, node: ast.Comma) -> Callable:
        parts = tuple(self.expr(part) for part in node.parts)

        def ev(interp, frame):
            interp._steps += 1
            if interp._steps > interp.max_steps:
                raise _exhausted(node)
            if interp.tick_hook is not None:
                interp.tick_hook(node)
            value = 0
            for part in parts:
                value = part(interp, frame)
            return value
        return ev

    def _call(self, node: ast.Call) -> Callable:
        name = node.callee_name
        if name is None:
            return self._raising(
                node, f"indirect calls unsupported at {node.location}")
        if name == "HANDLER_GLOBALS":
            return self._global_read(node)
        args = tuple(self.expr(arg) for arg in node.args)
        program = self.program
        functions = program.functions

        def ev(interp, frame):
            interp._steps += 1
            if interp._steps > interp.max_steps:
                raise _exhausted(node)
            if interp.tick_hook is not None:
                interp.tick_hook(node)
            values = [arg(interp, frame) for arg in args] if args else ()
            builtins = interp.builtins
            if name in builtins:
                result = builtins[name](*values)
                if type(result) is int:
                    return result & MASK32
                return as_int(result)
            if name in functions:
                return program.function(name)(interp, values)
            raise InterpError(f"call to undefined {name!r} at {node.location}")
        return ev

    def _global_read(self, node: ast.Call) -> Callable:
        if not node.args:
            return self._raising(
                node, f"HANDLER_GLOBALS needs a field at {node.location}")
        try:
            path = _path_of(node.args[0])
        except InterpError as exc:
            return self._raising(node, str(exc))

        def ev(interp, frame):
            interp._steps += 1
            if interp._steps > interp.max_steps:
                raise _exhausted(node)
            if interp.tick_hook is not None:
                interp.tick_hook(node)
            return interp.globals.read(path)
        return ev

    _EXPRS = {
        ast.IntLit: _int_lit, ast.CharLit: _char_lit,
        ast.FloatLit: _float_lit,
        ast.StringLit: lambda self, node: self._constant(node, 0),
        ast.SizeofExpr: lambda self, node: self._constant(node, 4),
        ast.SizeofType: lambda self, node: self._constant(node, 4),
        ast.Ident: _ident, ast.Assign: _assign, ast.BinaryOp: _binary,
        ast.UnaryOp: _unary, ast.PostfixOp: _postfix,
        ast.Ternary: _ternary, ast.Call: _call, ast.Cast: _cast,
        ast.Comma: _comma,
    }
