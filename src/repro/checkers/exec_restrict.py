"""§8 — Handler execution restrictions.

FLASH's execution environment is more restrictive than C.  This module
implements the §8 checks as two registered checkers, matching how
Table 7 accounts for them separately:

:class:`ExecRestrictChecker` (84 lines of metal in the paper)
    * handlers take no parameters and return no results;
    * deprecated macros are flagged;
    * "no stack" handlers must not take the address of locals, must not
      declare too many locals or any aggregate larger than 64 bits, and
      every call out of them must be bracketed by ``SET_STACKPTR``
      (no spurious ``SET_STACKPTR`` either);
    * simulator hooks: a handler's first two statements must be
      ``HANDLER_DEFS()`` and ``HANDLER_PROLOGUE()`` (software handlers:
      ``SWHANDLER_PROLOGUE()``), and every other routine must open with
      ``SUBROUTINE_PROLOGUE()``.  The hardware-handler list comes from
      the protocol specification (``ProtocolInfo``), as in the paper.

:class:`NoFloatChecker` (7 lines)
    * protocol code cannot perform floating-point operations; the
      checker visits every tree node and objects to any floating type.

Table 5's "Handlers" and "Vars" columns are reported via
``result.extra["handlers_checked"]`` / ``extra["vars_checked"]``.
"""

from __future__ import annotations

from typing import Optional

from ..flash import machine
from ..lang import ast, ctypes
from ..lang.source import Location
from ..mc.cache import report_from_obj, report_to_obj
from ..metal.runtime import Report, ReportSink
from ..project import Program, ProtocolInfo
from .base import Checker, CheckerResult, TwoPassChecker, register

#: Names that are FLASH environment macros, not real subroutine calls —
#: calling these from a no-stack handler needs no SET_STACKPTR.
_MACRO_NAMES = frozenset({
    machine.HANDLER_DEFS, machine.HANDLER_PROLOGUE, machine.SWHANDLER_PROLOGUE,
    machine.SUBROUTINE_PROLOGUE, machine.SET_STACKPTR, machine.NOSTACK,
    machine.WAIT_FOR_DB_FULL, machine.MISCBUS_READ_DB, machine.MISCBUS_READ_DB_OLD,
    machine.DB_ALLOC, machine.DB_FREE, machine.DB_IS_ERROR, machine.DB_INC_REFCOUNT,
    machine.ANNOTATION_HAS_BUFFER, machine.ANNOTATION_NO_FREE_NEEDED,
    machine.DIR_LOAD, machine.DIR_WRITEBACK, machine.WAIT_FOR_SPACE,
    machine.HANDLER_GLOBALS,
    *machine.SEND_MACROS, *machine.WAIT_MACROS, *machine.DEPRECATED_MACROS,
})


def _first_call_stmts(function: ast.FunctionDef) -> list[str]:
    """Callee names of the function's first two top-level statements."""
    names: list[str] = []
    for stmt in function.body.stmts[:2]:
        if (isinstance(stmt, ast.ExprStmt) and isinstance(stmt.expr, ast.Call)
                and stmt.expr.callee_name is not None):
            names.append(stmt.expr.callee_name)
        else:
            names.append("")
    while len(names) < 2:
        names.append("")
    return names


class _Body:
    """What the rules need from one function body, gathered in one walk."""

    __slots__ = ("decls", "deprecated", "nostack_calls", "address_of")

    def __init__(self, function: ast.FunctionDef):
        #: Every local declaration, in walk order.
        self.decls: list[ast.VarDecl] = []
        #: Calls of deprecated macros, in walk order.
        self.deprecated: list[ast.Call] = []
        self.nostack_calls = 0
        #: ``&name`` operands, checked against the locals after the walk.
        self.address_of: list[ast.UnaryOp] = []
        for node in function.walk():
            if isinstance(node, ast.DeclStmt):
                self.decls.extend(node.decls)
            elif isinstance(node, ast.Call):
                if node.callee_name in machine.DEPRECATED_MACROS:
                    self.deprecated.append(node)
                elif node.callee_name == machine.NOSTACK:
                    self.nostack_calls += 1
            elif (isinstance(node, ast.UnaryOp) and node.op == "&"
                    and isinstance(node.operand, ast.Ident)):
                self.address_of.append(node)


def _call_name(stmt: Optional[ast.Stmt]) -> Optional[str]:
    """The callee of a statement that is a bare named call, else None."""
    if isinstance(stmt, ast.ExprStmt) and isinstance(stmt.expr, ast.Call):
        return stmt.expr.callee_name
    return None


@register
class ExecRestrictChecker(TwoPassChecker):
    """Signature, stack, deprecated-macro, and simulator-hook rules."""

    name = "exec-restrict"
    metal_loc = 84

    def local(self, program: Program) -> CheckerResult:
        """Every rule over the unit, except that a SET_STACKPTR site
        whose verdict turns on whether its callee is defined anywhere
        becomes a candidate in the facts, next to the unit's defined
        names, for :meth:`link` to resolve."""
        result, sink = self._new_result()
        info = program.info
        candidates: list[list] = []
        handlers_checked = 0
        vars_checked = 0
        for function in program.functions():
            body = _Body(function)
            handlers_checked += 1
            vars_checked += (sum(1 for p in function.params if p.name)
                             + len(body.decls))
            kind = info.kind_of(function.name)
            if kind in ("hw", "sw"):
                self._check_signature(function, sink)
            self._check_deprecated(function, body, sink)
            self._check_hooks(function, kind, sink)
            handler = info.handler(function.name)
            declared_nostack = handler is not None and handler.nostack
            if declared_nostack or body.nostack_calls > 0:
                self._check_nostack_annotation(function, body, sink)
                self._check_nostack(program, function, body, sink)
                self._check_stackptr_discipline(function, sink, candidates)
        result.applied = handlers_checked
        result.extra["handlers_checked"] = handlers_checked
        result.extra["vars_checked"] = vars_checked
        result = self._finish(result, sink)
        result.facts = {
            "defined": [f.name for f in program.functions()],
            "candidates": candidates,
        }
        return result

    def link(self, parts: list[CheckerResult],
             info: ProtocolInfo) -> CheckerResult:
        """Each part's reports, with its candidates resolved against
        every unit's defined names and put back where they were found."""
        result, sink = self._new_result()
        defined = {name for part in parts for name in part.facts["defined"]}
        for part in parts:
            found: dict[int, list] = {}
            for position, callee, if_defined, obj in part.facts["candidates"]:
                if (callee in defined) == if_defined:
                    found.setdefault(position, []).append(obj)
            for position, report in enumerate([*part.reports, None]):
                for obj in found.get(position, ()):
                    sink.add(report_from_obj(obj))
                if report is not None:
                    sink.add(report)
            result.applied += part.applied
            for key in ("handlers_checked", "vars_checked"):
                result.extra[key] = result.extra.get(key, 0) + part.extra[key]
        return self._finish(result, sink)

    # -- individual rules ---------------------------------------------------

    def _check_signature(self, function: ast.FunctionDef, sink: ReportSink) -> None:
        if not function.return_type.is_void:
            sink.add(Report(
                checker=self.name,
                message=f"handler {function.name} must return void",
                location=function.location, function=function.name,
            ))
        if not function.takes_no_params:
            sink.add(Report(
                checker=self.name,
                message=f"handler {function.name} must take no parameters",
                location=function.location, function=function.name,
            ))

    def _check_deprecated(self, function: ast.FunctionDef, body: _Body,
                          sink: ReportSink) -> None:
        for node in body.deprecated:
            sink.add(Report(
                checker=self.name,
                message=f"deprecated macro {node.callee_name} used",
                location=node.location, function=function.name,
                severity="warning",
            ))

    def _check_hooks(self, function: ast.FunctionDef, kind: str,
                     sink: ReportSink) -> None:
        first, second = _first_call_stmts(function)
        if kind == "hw":
            expected = (machine.HANDLER_DEFS, machine.HANDLER_PROLOGUE)
        elif kind == "sw":
            expected = (machine.HANDLER_DEFS, machine.SWHANDLER_PROLOGUE)
        else:
            expected = (machine.SUBROUTINE_PROLOGUE, None)
        if first != expected[0]:
            sink.add(Report(
                checker=self.name,
                message=(f"{function.name}: first statement must call "
                         f"{expected[0]} (simulator hook missing)"),
                location=function.location, function=function.name,
            ))
        if expected[1] is not None and second != expected[1]:
            sink.add(Report(
                checker=self.name,
                message=(f"{function.name}: second statement must call "
                         f"{expected[1]} (simulator hook missing)"),
                location=function.location, function=function.name,
            ))

    def _check_nostack_annotation(self, function: ast.FunctionDef,
                                  body: _Body, sink: ReportSink) -> None:
        """§8: exactly one NOSTACK() at the beginning of the handler."""
        count = body.nostack_calls
        if count != 1:
            sink.add(Report(
                checker=self.name,
                message=(f"no-stack handler {function.name} must carry "
                         f"exactly one NOSTACK() annotation (found {count})"),
                location=function.location, function=function.name,
            ))
            if count == 0:
                return
        # It must come before anything but the simulator hooks.
        hooks = {machine.HANDLER_DEFS, machine.HANDLER_PROLOGUE,
                 machine.SWHANDLER_PROLOGUE, machine.SUBROUTINE_PROLOGUE}
        for stmt in function.body.stmts:
            if (isinstance(stmt, ast.ExprStmt)
                    and isinstance(stmt.expr, ast.Call)):
                name = stmt.expr.callee_name
                if name in hooks:
                    continue
                if name == machine.NOSTACK:
                    return
            sink.add(Report(
                checker=self.name,
                message=(f"{function.name}: NOSTACK() must be the first "
                         "statement after the simulator hooks"),
                location=stmt.location, function=function.name,
            ))
            return

    def _check_nostack(self, program: Program, function: ast.FunctionDef,
                       body: _Body, sink: ReportSink) -> None:
        local_names = {p.name for p in function.params if p.name}
        local_count = len(local_names)
        for decl in body.decls:
            local_names.add(decl.name)
            local_count += 1
            self._check_aggregate(program, decl, function, sink)
        if local_count > machine.NOSTACK_MAX_LOCALS:
            sink.add(Report(
                checker=self.name,
                message=(f"no-stack handler {function.name} declares "
                         f"{local_count} locals (max "
                         f"{machine.NOSTACK_MAX_LOCALS})"),
                location=function.location, function=function.name,
            ))
        for node in body.address_of:
            if node.operand.name in local_names:
                sink.add(Report(
                    checker=self.name,
                    message=(f"no-stack handler {function.name} takes the "
                             f"address of local {node.operand.name!r}"),
                    location=node.location, function=function.name,
                ))

    def _check_aggregate(self, program: Program, decl: ast.VarDecl,
                         function: ast.FunctionDef, sink: ReportSink) -> None:
        type_name = decl.type_name
        if type_name.array_dims:
            sink.add(Report(
                checker=self.name,
                message=(f"no-stack handler {function.name} declares array "
                         f"{decl.name!r}"),
                location=decl.location, function=function.name,
            ))
            return
        if type_name.specifiers and type_name.specifiers[0] in ("struct", "union") \
                and type_name.pointer_depth == 0:
            # §8: aggregates up to 64 bits "safely reside in registers".
            bits = self._aggregate_bits(program, function, type_name)
            if bits is not None and bits <= machine.NOSTACK_MAX_AGGREGATE_BITS:
                return
            detail = (f"({bits} bits)" if bits is not None
                      else "(unknown size)")
            sink.add(Report(
                checker=self.name,
                message=(f"no-stack handler {function.name} declares "
                         f"aggregate {decl.name!r} larger than "
                         f"{machine.NOSTACK_MAX_AGGREGATE_BITS} bits "
                         f"{detail}"),
                location=decl.location, function=function.name,
            ))

    @staticmethod
    def _aggregate_bits(program: Program, function: ast.FunctionDef,
                        type_name: ast.TypeName):
        sema = program.sema.get(function.location.filename)
        if sema is None or len(type_name.specifiers) < 2:
            return None
        struct = sema.structs.get(type_name.specifiers[1])
        if struct is None:
            return None
        return struct.size_bits()

    def _check_stackptr_discipline(self, function: ast.FunctionDef,
                                   sink: ReportSink,
                                   candidates: list[list]) -> None:
        """Every call out of a no-stack function is preceded by
        ``SET_STACKPTR``, and every ``SET_STACKPTR`` precedes a call.
        A call counts only when its callee is defined in the program,
        which :meth:`link` decides: such sites become ``[position,
        callee, report-if-defined, report]`` candidates, ``position``
        being the number of reports the sink held when the site was
        reached."""

        def real_callee(stmt: Optional[ast.Stmt]) -> Optional[str]:
            name = _call_name(stmt)
            return name if name not in _MACRO_NAMES else None

        def candidate(callee: str, if_defined: bool, stmt: ast.Stmt,
                      message: str) -> None:
            report = Report(checker=self.name,
                            message=f"{function.name}: {message}",
                            location=stmt.location, function=function.name)
            candidates.append([len(sink), callee, if_defined,
                               report_to_obj(report)])

        def scan(block: ast.Block) -> None:
            stmts = block.stmts
            for i, stmt in enumerate(stmts):
                if _call_name(stmt) == machine.SET_STACKPTR:
                    nxt = stmts[i + 1] if i + 1 < len(stmts) else None
                    callee = real_callee(nxt)
                    if callee is None:
                        sink.add(Report(
                            checker=self.name,
                            message=(f"{function.name}: SET_STACKPTR not "
                                     "followed by a call"),
                            location=stmt.location, function=function.name,
                        ))
                    else:
                        candidate(callee, False, stmt,
                                  "SET_STACKPTR not followed by a call")
                else:
                    callee = real_callee(stmt)
                    prev = stmts[i - 1] if i > 0 else None
                    if (callee is not None
                            and _call_name(prev) != machine.SET_STACKPTR):
                        candidate(callee, True, stmt,
                                  "call without SET_STACKPTR in no-stack "
                                  "handler")
                for child in stmt.children():
                    if isinstance(child, ast.Block):
                        scan(child)
                if isinstance(stmt, ast.Block):
                    scan(stmt)

        scan(function.body)


@register
class NoFloatChecker(Checker):
    """Protocol code cannot perform floating point operations."""

    name = "no-float"
    metal_loc = 7

    def check(self, program: Program) -> CheckerResult:
        result, sink = self._new_result()
        nodes_checked = 0
        for function in program.functions():
            for node in function.walk():
                nodes_checked += 1
                if self._is_floating(node):
                    sink.add(Report(
                        checker=self.name,
                        message="floating point is not available on the "
                                "protocol processor",
                        location=node.location, function=function.name,
                    ))
        result.applied = nodes_checked
        return self._finish(result, sink)

    @staticmethod
    def _is_floating(node: ast.Node) -> bool:
        if isinstance(node, ast.FloatLit):
            return True
        if isinstance(node, ast.Expr):
            ctype = getattr(node, "ctype", None)
            if ctype is not None and ctype.is_floating:
                return True
        if isinstance(node, (ast.VarDecl, ast.ParamDecl, ast.FieldDecl)):
            return node.type_name is not None and node.type_name.is_floating
        return False
