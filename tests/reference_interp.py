"""The AST tree-walking interpreter, kept as a test oracle.

``repro.flash.sim.interp.Interpreter`` compiles each program function
once into a tree of closures (``repro.flash.sim.compiler``).  This
module keeps the interpreter it replaced, the way
``tests/reference_frontend.py`` keeps the old lexer and parser: every
statement and expression is dispatched through an ``isinstance`` chain
on every execution, and ``return``/``break``/``continue``/``goto``
unwind as exceptions.

``tests/test_sim_oracle.py`` checks that the compiled interpreter gives
the same return values, ``InterpError`` texts, step counts, executed
functions and tick-hook node sequences as this one.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import InterpError
from repro.flash.sim.interp import GlobalsView
from repro.lang import ast

MASK32 = 0xFFFFFFFF


class _Return(Exception):
    def __init__(self, value: int = 0):
        self.value = value


class _Goto(Exception):
    def __init__(self, label: str):
        self.label = label


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


def _path_of(expr: ast.Expr) -> str:
    """Render the HANDLER_GLOBALS argument (``header.nh.len``) as a path."""
    if isinstance(expr, ast.Ident):
        return expr.name
    if isinstance(expr, ast.Member):
        return f"{_path_of(expr.base)}.{expr.name}"
    raise InterpError(f"unsupported HANDLER_GLOBALS field: {expr.kind}")


class ReferenceInterpreter:
    """Executes functions from one parsed program by walking their ASTs.

    Takes the same arguments as ``Interpreter``; ``program`` (the
    compiled form) is accepted so the class can stand in for
    ``Interpreter`` wherever a node builds one, and is ignored.
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
        program=None,
    ):
        self.functions = functions
        self.builtins = dict(builtins or {})
        self.constants = dict(constants or {})
        self.globals = handler_globals if handler_globals is not None else GlobalsView()
        self.max_steps = max_steps
        self.max_depth = max_depth
        self.tick_hook = tick_hook
        self.executed: dict[str, int] = {}
        self._steps = 0
        self._depth = 0

    # -- public API ----------------------------------------------------------

    def call(self, name: str, args: Optional[list[int]] = None) -> int:
        """Call a program function (or builtin) by name."""
        args = args or []
        if name in self.functions:
            try:
                return self._call_function(self.functions[name], args)
            except RecursionError:
                raise InterpError(
                    f"stack exhausted in {name}: calls and blocks "
                    f"nested too deeply") from None
        if name in self.builtins:
            return self._as_int(self.builtins[name](*args))
        raise InterpError(f"undefined function {name!r}")

    def reset_steps(self) -> None:
        self._steps = 0

    # -- function invocation ----------------------------------------------------

    def _call_function(self, func: ast.FunctionDef, args: list[int]) -> int:
        if self._depth >= self.max_depth:
            raise InterpError(f"call depth exceeded in {func.name}")
        self.executed[func.name] = self.executed.get(func.name, 0) + 1
        frame: dict[str, int] = {}
        for param, value in zip(func.params, args):
            if param.name:
                frame[param.name] = value & MASK32
        labels = {
            stmt.name: i
            for i, stmt in enumerate(func.body.stmts)
            if isinstance(stmt, ast.Label)
        }
        self._depth += 1
        start = 0
        try:
            while True:
                try:
                    for stmt in func.body.stmts[start:]:
                        self._exec_stmt(stmt, frame)
                    return 0
                except _Goto as jump:
                    # Only function-top-level labels are supported (the
                    # common ``goto out; ... out: cleanup`` error-exit
                    # idiom); jumping into nested blocks is rejected.
                    if jump.label not in labels:
                        raise InterpError(
                            f"goto to non-top-level label {jump.label!r} "
                            f"in {func.name}"
                        ) from None
                    self._tick(func.body)
                    start = labels[jump.label]
        except _Return as ret:
            return ret.value
        except _Break:
            raise InterpError(
                f"break outside loop/switch in {func.name}") from None
        except _Continue:
            raise InterpError(f"continue outside loop in {func.name}") from None
        finally:
            self._depth -= 1

    # -- statements -------------------------------------------------------------

    def _tick(self, node: ast.Node) -> None:
        self._steps += 1
        if self._steps > self.max_steps:
            raise InterpError(
                f"step budget exhausted at {node.location}"
            )
        if self.tick_hook is not None:
            self.tick_hook(node)

    def _exec_block(self, block: ast.Block, frame: dict) -> None:
        for stmt in block.stmts:
            self._exec_stmt(stmt, frame)

    def _exec_stmt(self, stmt: ast.Stmt, frame: dict) -> None:
        self._tick(stmt)
        if isinstance(stmt, ast.Block):
            self._exec_block(stmt, frame)
        elif isinstance(stmt, ast.ExprStmt):
            self._eval(stmt.expr, frame)
        elif isinstance(stmt, ast.DeclStmt):
            for decl in stmt.decls:
                value = 0
                if decl.init is not None:
                    value = self._eval(decl.init, frame)
                frame[decl.name] = value & MASK32
        elif isinstance(stmt, ast.If):
            if self._eval(stmt.cond, frame):
                self._exec_stmt(stmt.then, frame)
            elif stmt.otherwise is not None:
                self._exec_stmt(stmt.otherwise, frame)
        elif isinstance(stmt, ast.While):
            while self._eval(stmt.cond, frame):
                self._tick(stmt)
                try:
                    self._exec_stmt(stmt.body, frame)
                except _Break:
                    break
                except _Continue:
                    continue
        elif isinstance(stmt, ast.DoWhile):
            while True:
                self._tick(stmt)
                try:
                    self._exec_stmt(stmt.body, frame)
                except _Break:
                    break
                except _Continue:
                    pass
                if not self._eval(stmt.cond, frame):
                    break
        elif isinstance(stmt, ast.For):
            if isinstance(stmt.init, ast.DeclStmt):
                self._exec_stmt(stmt.init, frame)
            elif isinstance(stmt.init, ast.Expr):
                self._eval(stmt.init, frame)
            while stmt.cond is None or self._eval(stmt.cond, frame):
                self._tick(stmt)
                try:
                    self._exec_stmt(stmt.body, frame)
                except _Break:
                    break
                except _Continue:
                    pass
                if stmt.step is not None:
                    self._eval(stmt.step, frame)
        elif isinstance(stmt, ast.Switch):
            self._exec_switch(stmt, frame)
        elif isinstance(stmt, ast.Return):
            value = self._eval(stmt.value, frame) if stmt.value is not None else 0
            raise _Return(value)
        elif isinstance(stmt, ast.Break):
            raise _Break()
        elif isinstance(stmt, ast.Continue):
            raise _Continue()
        elif isinstance(stmt, (ast.EmptyStmt, ast.Label)):
            pass
        elif isinstance(stmt, ast.Goto):
            raise _Goto(stmt.label)
        elif isinstance(stmt, (ast.Case, ast.Default)):
            pass
        else:
            raise InterpError(f"cannot execute {stmt.kind}")

    def _exec_switch(self, stmt: ast.Switch, frame: dict) -> None:
        selector = self._eval(stmt.cond, frame)
        stmts = stmt.body.stmts
        start: Optional[int] = None
        default_at: Optional[int] = None
        for i, child in enumerate(stmts):
            if isinstance(child, ast.Case):
                if self._eval(child.value, frame) == selector and start is None:
                    start = i
            elif isinstance(child, ast.Default) and default_at is None:
                default_at = i
        if start is None:
            start = default_at
        if start is None:
            return
        try:
            for child in stmts[start:]:
                self._exec_stmt(child, frame)
        except _Break:
            pass

    # -- expressions ----------------------------------------------------------

    def _as_int(self, value) -> int:
        if value is None or value is False:
            return 0
        if value is True:
            return 1
        return int(value) & MASK32

    def _eval(self, expr: ast.Expr, frame: dict) -> int:
        self._tick(expr)
        if isinstance(expr, ast.IntLit):
            try:
                return expr.value & MASK32
            except ValueError:
                raise InterpError(f"malformed integer literal {expr.text!r} "
                                  f"at {expr.location}") from None
        if isinstance(expr, ast.CharLit):
            body = expr.text[1:-1]
            return (ord(body[-1]) if body else 0) & MASK32
        if isinstance(expr, ast.FloatLit):
            raise InterpError(
                f"floating point is not available on the protocol "
                f"processor ({expr.location})"
            )
        if isinstance(expr, ast.StringLit):
            return 0
        if isinstance(expr, ast.Ident):
            return self._read_name(expr, frame)
        if isinstance(expr, ast.Assign):
            return self._assign(expr, frame)
        if isinstance(expr, ast.BinaryOp):
            return self._binary(expr, frame)
        if isinstance(expr, ast.UnaryOp):
            return self._unary(expr, frame)
        if isinstance(expr, ast.PostfixOp):
            old = self._eval(expr.operand, frame)
            delta = 1 if expr.op == "++" else -1
            self._store(expr.operand, (old + delta) & MASK32, frame)
            return old
        if isinstance(expr, ast.Ternary):
            if self._eval(expr.cond, frame):
                return self._eval(expr.then, frame)
            return self._eval(expr.otherwise, frame)
        if isinstance(expr, ast.Call):
            return self._call_expr(expr, frame)
        if isinstance(expr, ast.Cast):
            return self._eval(expr.operand, frame)
        if isinstance(expr, (ast.SizeofExpr, ast.SizeofType)):
            return 4
        if isinstance(expr, ast.Comma):
            value = 0
            for part in expr.parts:
                value = self._eval(part, frame)
            return value
        raise InterpError(f"cannot evaluate {expr.kind} at {expr.location}")

    def _read_name(self, expr: ast.Ident, frame: dict) -> int:
        name = expr.name
        if name in frame:
            return frame[name]
        if name in self.constants:
            return self.constants[name] & MASK32
        raise InterpError(f"undefined variable {name!r} at {expr.location}")

    def _assign(self, expr: ast.Assign, frame: dict) -> int:
        if expr.op == "=":
            value = self._eval(expr.value, frame)
        else:
            current = self._eval(expr.target, frame)
            rhs = self._eval(expr.value, frame)
            value = self._apply_op(expr.op[:-1], current, rhs, expr)
        self._store(expr.target, value, frame)
        return value

    def _store(self, target: ast.Expr, value: int, frame: dict) -> None:
        value &= MASK32
        if isinstance(target, ast.Ident):
            frame[target.name] = value
            return
        if (isinstance(target, ast.Call)
                and target.callee_name == "HANDLER_GLOBALS" and target.args):
            self.globals.write(_path_of(target.args[0]), value)
            return
        raise InterpError(f"unsupported assignment target {target.kind} at "
                          f"{target.location}")

    def _binary(self, expr: ast.BinaryOp, frame: dict) -> int:
        if expr.op == "&&":
            return 1 if (self._eval(expr.left, frame)
                         and self._eval(expr.right, frame)) else 0
        if expr.op == "||":
            return 1 if (self._eval(expr.left, frame)
                         or self._eval(expr.right, frame)) else 0
        left = self._eval(expr.left, frame)
        right = self._eval(expr.right, frame)
        return self._apply_op(expr.op, left, right, expr)

    def _apply_op(self, op: str, left: int, right: int, expr: ast.Expr) -> int:
        if op == "+":
            return (left + right) & MASK32
        if op == "-":
            return (left - right) & MASK32
        if op == "*":
            return (left * right) & MASK32
        if op == "/":
            if right == 0:
                raise InterpError(f"division by zero at {expr.location}")
            return (left // right) & MASK32
        if op == "%":
            if right == 0:
                raise InterpError(f"modulo by zero at {expr.location}")
            return (left % right) & MASK32
        if op == "<<":
            return (left << (right & 31)) & MASK32
        if op == ">>":
            return (left >> (right & 31)) & MASK32
        if op == "&":
            return left & right
        if op == "|":
            return left | right
        if op == "^":
            return left ^ right
        if op == "==":
            return int(left == right)
        if op == "!=":
            return int(left != right)
        if op == "<":
            return int(left < right)
        if op == ">":
            return int(left > right)
        if op == "<=":
            return int(left <= right)
        if op == ">=":
            return int(left >= right)
        raise InterpError(f"unsupported operator {op!r} at {expr.location}")

    def _unary(self, expr: ast.UnaryOp, frame: dict) -> int:
        if expr.op == "!":
            return int(not self._eval(expr.operand, frame))
        if expr.op == "-":
            return (-self._eval(expr.operand, frame)) & MASK32
        if expr.op == "+":
            return self._eval(expr.operand, frame)
        if expr.op == "~":
            return (~self._eval(expr.operand, frame)) & MASK32
        if expr.op in ("++", "--"):
            old = self._eval(expr.operand, frame)
            delta = 1 if expr.op == "++" else -1
            new = (old + delta) & MASK32
            self._store(expr.operand, new, frame)
            return new
        raise InterpError(f"unsupported unary {expr.op!r} at {expr.location}")

    def _call_expr(self, expr: ast.Call, frame: dict) -> int:
        name = expr.callee_name
        if name is None:
            raise InterpError(f"indirect calls unsupported at {expr.location}")
        if name == "HANDLER_GLOBALS":
            if not expr.args:
                raise InterpError(f"HANDLER_GLOBALS needs a field at "
                                  f"{expr.location}")
            return self.globals.read(_path_of(expr.args[0]))
        args = [self._eval(arg, frame) for arg in expr.args]
        if name in self.builtins:
            return self._as_int(self.builtins[name](*args))
        if name in self.functions:
            return self._call_function(self.functions[name], args)
        raise InterpError(f"call to undefined {name!r} at {expr.location}")
