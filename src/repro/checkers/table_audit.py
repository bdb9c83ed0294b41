"""Auditing the protocol-writer tables against the code (§3.2, §6).

The §6 checker is parameterized by hand-maintained tables: routines that
free the current buffer when called, and routines that expect a live
buffer and keep it.  The paper's scheme "can then be done in two parts:
the checker verifies that each caller preserves any necessary
preconditions and that the procedure itself preserves the restriction"
— and mis-tabled routines were exactly the §11 trap (the "never used"
refcount call nobody's table knew about).

This checker closes the loop: it *infers* each subroutine's buffer
behaviour by abstract interpretation over its CFG (does every path
free? no path? some paths?) and reports routines whose declared table
entry uniformly contradicts their code:

- a declared ``free_routine`` through which **no** path frees;
- a declared ``buffer_use_routine`` through which **every** path frees.

Mixed (data-dependent) behaviour is tolerated — that is what the
``frees_if_true`` refinement and annotations exist for.  Routines that
allocate their own buffer manage their own lifetime and are skipped.
"""

from __future__ import annotations

from ..flash import machine
from ..lang import ast
from ..mc.summary import event_calls, event_index
from ..metal.runtime import Report
from ..project import Program, ProtocolInfo
from .base import Checker, CheckerResult, register


@register
class TableAuditChecker(Checker):
    """Declared buffer tables must match each routine's actual behaviour."""

    name = "table-audit"
    #: Not one of the paper's Table 7 checkers (metal_loc 0 keeps it out
    #: of the summary); it guards the tables the others consume.
    metal_loc = 0

    def check(self, program: Program) -> CheckerResult:
        result, sink = self._new_result()
        info = program.info
        audited = 0
        for function in program.functions():
            if info.is_handler(function.name):
                continue
            behaviour = self._infer(program, function, info)
            if behaviour is None:
                continue  # allocates: owns its own buffer lifetime
            audited += 1
            self._judge(function, behaviour, info, sink)
        result.applied = audited
        return self._finish(result, sink)

    # -- inference -----------------------------------------------------------

    def _infer(self, program: Program, function: ast.FunctionDef,
               info: ProtocolInfo):
        """Exit states {True: still holds, False: freed} over all paths.

        Returns None when the routine allocates (skipped).
        """
        cfg = program.cfg(function)
        index = event_index(cfg)
        exit_states: set[bool] = set()
        visited: set[tuple[int, bool]] = set()
        stack: list[tuple] = [(cfg.entry, True)]
        while stack:
            block, has = stack.pop()
            if (block.index, has) in visited:
                continue
            visited.add((block.index, has))
            for event in block.events:
                for call in event_calls(index[id(event)]):
                    callee = call.callee_name
                    if callee == machine.DB_ALLOC:
                        return None
                    if (callee == machine.DB_FREE
                            or callee in info.free_routines):
                        has = False
                    elif callee == machine.ANNOTATION_NO_FREE_NEEDED:
                        has = False
                    elif callee == machine.ANNOTATION_HAS_BUFFER:
                        has = True
            if block is cfg.exit or not block.successors:
                exit_states.add(has)
                continue
            for succ in block.successors:
                stack.append((succ, has))
        return exit_states

    # -- judgement ----------------------------------------------------------

    def _judge(self, function: ast.FunctionDef, exit_states: set,
               info: ProtocolInfo, sink) -> None:
        name = function.name
        frees_always = exit_states == {False}
        frees_never = exit_states == {True} or not exit_states
        if name in info.free_routines and frees_never:
            sink.add(Report(
                checker=self.name,
                message=(f"{name} is tabled as a freeing routine but no "
                         "path through it frees the buffer"),
                location=function.location, function=name,
            ))
        if name in info.buffer_use_routines and frees_always:
            sink.add(Report(
                checker=self.name,
                message=(f"{name} is tabled as buffer-expecting (no free) "
                         "but every path through it frees the buffer"),
                location=function.location, function=name,
            ))
        if name in info.frees_if_true and (frees_always or frees_never):
            sink.add(Report(
                checker=self.name,
                message=(f"{name} is tabled as conditionally freeing but "
                         "its behaviour is unconditional"),
                location=function.location, function=name,
                severity="warning",
            ))