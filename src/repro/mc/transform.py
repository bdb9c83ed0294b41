"""MC as a *transformer*: source-level optimization of protocol code.

The paper positions meta-level compilation as a framework to "check,
transform, and optimize system-level operations" (§3.1), and its §4
notes the FLASH convention that ``WAIT_FOR_DB_FULL`` "is only called
along paths that require access to the buffer contents, and it is called
as late as possible" — synchronization is expensive, so redundant waits
cost parallelism.

:class:`RedundantWaitEliminator` implements that optimization with the
same infrastructure the checkers use: a wait statement is *redundant*
when every path from the function entry to it already performed a wait
(equivalently: it is dominated by blocks whose paths all waited).  The
analysis reuses the path-sensitive engine's semantics in reverse — we
compute, per block, whether all paths into it have synchronized — and
the rewrite drops the statement from the AST, after which
:func:`repro.lang.unparse.unparse_unit` regenerates source.

Safety: removing a dominated wait never changes which reads are
synchronized, so the §4 checker must be clean before and after; tests
and the simulator verify both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cfg.builder import build_cfg
from ..cfg.graph import Cfg
from ..lang import ast

WAIT = "WAIT_FOR_DB_FULL"


def _is_wait_stmt(stmt: ast.Stmt) -> bool:
    return (isinstance(stmt, ast.ExprStmt)
            and isinstance(stmt.expr, ast.Call)
            and stmt.expr.callee_name == WAIT)


@dataclass
class TransformResult:
    """What a transformation pass did to one function."""

    function: str
    removed: list[ast.Node] = field(default_factory=list)

    @property
    def removed_lines(self) -> list[int]:
        return [node.location.line for node in self.removed]


class RedundantWaitEliminator:
    """Remove ``WAIT_FOR_DB_FULL`` calls that every path already made."""

    def transform_function(self, function: ast.FunctionDef) -> TransformResult:
        result = TransformResult(function=function.name)
        cfg = build_cfg(function)
        synced_at = self._synced_before_event(cfg)
        redundant_ids = {
            node_id for node_id, synced in synced_at.items() if synced
        }
        if redundant_ids:
            self._remove_stmts(function.body, redundant_ids, result)
            # The AST changed in place: a function summary fingerprint
            # taken before the rewrite no longer describes this node.
            from .cache import invalidate_fingerprint
            invalidate_fingerprint(function)
        return result

    # -- analysis ------------------------------------------------------------

    @staticmethod
    def _is_wait_event(event: ast.Node) -> bool:
        return (isinstance(event, ast.Call)
                and event.callee_name == WAIT)

    def _synced_before_event(self, cfg: Cfg) -> dict:
        """For each wait event: have *all* paths reaching it already waited?

        Standard forward must-analysis: ``IN[b] = AND over predecessors
        of OUT[p]``, ``OUT[p] = IN[p] or p contains a wait``, initialized
        optimistically (True everywhere but the entry) and iterated to
        the greatest fixed point, so loops are handled soundly (a loop
        cannot unsynchronize a buffer).
        """
        reachable = cfg.reachable_blocks()
        reachable_ids = {b.index for b in reachable}
        synced_in: dict[int, bool] = {b.index: True for b in reachable}
        synced_in[cfg.entry.index] = False

        def out_state(block) -> bool:
            return synced_in[block.index] or self._block_waits(block)

        changed = True
        while changed:
            changed = False
            for block in reachable:
                if block is cfg.entry:
                    continue
                preds = [
                    e.src for e in block.in_edges
                    if e.src.index in reachable_ids
                ]
                new = all(out_state(p) for p in preds) if preds else False
                if new != synced_in[block.index]:
                    synced_in[block.index] = new
                    changed = True

        # Keyed by id() because AST nodes are unhashable by design.
        synced_at_event: dict[int, bool] = {}
        for block in reachable:
            state = synced_in[block.index]
            for event in block.events:
                for node in event.walk():
                    if self._is_wait_event(node):
                        synced_at_event[id(node)] = state
                        state = True
        return synced_at_event

    @staticmethod
    def _block_waits(block) -> bool:
        return any(
            isinstance(node, ast.Call) and node.callee_name == WAIT
            for event in block.events
            for node in event.walk()
        )

    # -- rewriting ---------------------------------------------------------------

    def _remove_stmts(self, block: ast.Block, redundant_ids: set,
                      result: TransformResult) -> None:
        kept: list[ast.Stmt] = []
        for stmt in block.stmts:
            if _is_wait_stmt(stmt) and id(stmt.expr) in redundant_ids:
                result.removed.append(stmt.expr)
                continue
            for child in stmt.children():
                if isinstance(child, ast.Block):
                    self._remove_stmts(child, redundant_ids, result)
            kept.append(stmt)
        block.stmts = kept

    def transform_unit(self, unit: ast.TranslationUnit) -> list[TransformResult]:
        """Transform every function; returns per-function results."""
        return [
            self.transform_function(function)
            for function in unit.functions()
        ]
