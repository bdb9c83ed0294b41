"""Checker-aware slicing and join-point merging for the engine.

Unsliced, the engine (:mod:`repro.mc.engine`) would replay a state
machine over *every* node of *every* block it visits.  But a metal
machine is blind to almost all of a function: a rule only fires when
one of its patterns unifies at an AST node, and
:meth:`repro.metal.sm.StateMachine.step` on a non-matching node is a
state-preserving no-op.  This module computes, per
(machine, CFG) pair, exactly which parts of the function the machine can
observe, and the engine uses that slice three ways:

1. **Event slicing** — within each visited block, only the *candidate*
   nodes (those some pattern of the machine could possibly match, per
   :class:`MachineFilter`) are fed to the machine.  Everything else is a
   proven no-op and is skipped.  Events themselves are still iterated in
   order, so opaque-region poisoning, feasibility transfer, and event
   ordinals (provenance) are untouched.

2. **Dead-tail merging** — a block from which no candidate node is
   reachable can never fire a rule, so (when the machine has no
   ``path_end_action``) every path into it is equivalent to every other:
   the engine merges them all by simply not exploring the region.  This
   is what collapses the ``2^d`` stores built by ``d`` correlated
   branches *after* the last machine-relevant statement into one.
   Branch assumptions on the frontier edges are still evaluated so that
   pruned-edge provenance on live paths stays byte-identical.

3. **Whole-function skipping** — when no candidate is reachable from the
   entry at all, the machine is never run.

The per-checker lattice is the engine's visited set: abstract states
are ``(block, sm-state, feasibility-store, opaque)`` points, and two
paths reaching the same point are joined (the second is dropped —
counted as ``engine.merged_states``).  Slicing makes the join
*effective* by erasing the store components that only dead code could
distinguish.

All three transformations are exact for reports, suppressions,
provenance trails, and therefore confidence scores — the differential
test in ``tests/test_engine_summary.py`` holds the sliced walk to
byte-identical output against the unsliced paths oracle.  They are
*not* exact for work counters (``engine.steps``, ``engine.paths``).
Budget accounting is kept in parity: sliced-out nodes are charged to
the budget without being stepped (:meth:`CfgSlice.skipped_nodes`), so a
``--budget-steps`` run exhausts at the same work level as the unsliced
walk.
"""

from __future__ import annotations

import weakref
from typing import Optional

from ..lang import ast


# -- the machine filter ------------------------------------------------------

#: AST node kinds whose pattern match requires an equal operator.
_OP_KINDS = ("BinaryOp", "UnaryOp", "PostfixOp", "Assign")


class MachineFilter:
    """Which AST nodes can a machine's patterns possibly match?

    Built once per machine from the *roots* of every pattern of every
    rule (the matcher unifies at the root only; :meth:`Pattern.match`).
    The filter is a sound over-approximation: :class:`CfgSlice` may
    keep a node no pattern matches, but never drops one a pattern would
    match — the discriminators below only use facts ``Pattern._unify``
    checks unconditionally at the root:

    * a metavar root accepts any expression (type-class constraints are
      ignored — conservative);
    * a ``Call`` root requires a ``Call`` node, and when the pattern's
      callee is a concrete identifier, one with that callee name;
    * ``Ident`` requires the same name; ``Member`` the same member name;
    * operator kinds require the same operator;
    * everything else discriminates on the node kind alone.
    """

    __slots__ = ("any_expr", "keys")

    def __init__(self, sm):
        self.any_expr = False
        keys: set[tuple[str, Optional[str]]] = set()
        for state in sm.states.values():
            for rule in state.rules:
                for pattern in rule.patterns:
                    self.any_expr |= self._add(pattern, keys)
        self.keys = keys

    @staticmethod
    def _add(pattern, keys: set) -> bool:
        """Fold one pattern root into ``keys``; True if it matches any
        expression (a bare metavariable root)."""
        root = pattern.template
        if isinstance(root, ast.Ident) and root.name in pattern.metavars:
            return True
        kind = type(root).__name__
        if isinstance(root, ast.Call):
            func = root.func
            if isinstance(func, ast.Ident) and func.name not in pattern.metavars:
                keys.add((kind, func.name))
            else:
                keys.add((kind, None))
        elif isinstance(root, ast.Ident):
            keys.add((kind, root.name))
        elif isinstance(root, ast.Member):
            keys.add((kind, root.name))
        elif kind in _OP_KINDS:
            keys.add((kind, root.op))
        else:
            keys.add((kind, None))
        return False


# How a node class's secondary discriminator is derived (see event_index).
_MODE_PLAIN, _MODE_CALL, _MODE_NAME, _MODE_OP = 0, 1, 2, 3

#: node class -> (primary, is_expr, is_opaque, mode, kind).  Everything
#: about a node the discriminators depend on except its own payload,
#: resolved once per class so the per-node cost in :func:`event_index`
#: is one dict lookup.
_CLS_INFO: dict = {}


def _cls_info(cls) -> tuple:
    info = _CLS_INFO.get(cls)
    if info is None:
        kind = cls.__name__
        if issubclass(cls, ast.Call):
            mode = _MODE_CALL
        elif issubclass(cls, (ast.Ident, ast.Member)):
            mode = _MODE_NAME
        elif kind in _OP_KINDS:
            mode = _MODE_OP
        else:
            mode = _MODE_PLAIN
        info = ((kind, None), issubclass(cls, ast.Expr),
                issubclass(cls, (ast.OpaqueStmt, ast.OpaqueExpr)),
                mode, kind)
        _CLS_INFO[cls] = info
    return info


_FILTERS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def filter_for(sm) -> MachineFilter:
    filt = _FILTERS.get(sm)
    if filt is None:
        filt = _FILTERS[sm] = MachineFilter(sm)
    return filt


# -- the CFG slice -----------------------------------------------------------

#: cfg -> {id(event): (nodes, by_key, exprs, opaque)}.
#: Everything machine-independent about an event, from one pre-order
#: pass: its flat node tuple; each discriminator present mapped to the
#: positions of the nodes that carry it; the positions of its
#: expression nodes; and whether it contains an opaque region.  A set
#: of positions is an int whose bit ``i`` stands for ``nodes[i]``
#: (:func:`_at` reads it back in walk order).  Every node carries its
#: kind's wildcard discriminator ``(kind, None)``; a call with a named
#: callee, an identifier, a member and an operator node also carry
#: ``(kind, name-or-operator)``.  Built once per CFG and shared by
#: every machine's slice (a corpus pass runs six machines over the same
#: CFGs), by feasibility's transfer-function builder, and by the
#: readers of each event's calls (:func:`event_calls`).
_EVENT_INDEX: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def event_index(cfg) -> dict:
    index = _EVENT_INDEX.get(cfg)
    if index is None:
        index = {}
        cls_map = _CLS_INFO
        cls_info = _cls_info
        preorder = ast.preorder
        is_ident = ast.Ident
        for block in cfg.blocks:
            for event in block.events:
                # The flat node tuple, in exact ``walk`` pre-order
                # (candidate order is part of report byte-identity).
                nodes = preorder(event)
                by_key: dict = {}
                get = by_key.get
                exprs = 0
                opaque = False
                bit = 1
                for n in nodes:
                    cls = n.__class__
                    info = cls_map.get(cls)
                    if info is None:
                        info = cls_info(cls)
                    primary, is_expr, is_opaque, mode, kind = info
                    by_key[primary] = get(primary, 0) | bit
                    if mode == _MODE_CALL:
                        func = n.func
                        if isinstance(func, is_ident):
                            key = (kind, func.name)
                            by_key[key] = get(key, 0) | bit
                    elif mode == _MODE_NAME:
                        key = (kind, n.name)
                        by_key[key] = get(key, 0) | bit
                    elif mode == _MODE_OP:
                        key = (kind, n.op)
                        by_key[key] = get(key, 0) | bit
                    if is_expr:
                        exprs |= bit
                    if is_opaque:
                        opaque = True
                    bit <<= 1
                index[id(event)] = (tuple(nodes), by_key, exprs, opaque)
        _EVENT_INDEX[cfg] = index
    return index


def _at(nodes: tuple, positions: int) -> tuple:
    """The ``nodes`` at a set of positions, in walk order."""
    if not positions:
        return ()
    return tuple(node for i, node in enumerate(nodes) if positions >> i & 1)


_CALL_KEY = ("Call", None)


def event_calls(entry: tuple) -> tuple:
    """The ``Call`` nodes of one :func:`event_index` entry, in walk
    order."""
    return _at(entry[0], entry[1].get(_CALL_KEY, 0))


class CfgSlice:
    """One machine's view of one CFG.

    ``candidates(event)`` is the (possibly empty) tuple of nodes within
    ``event`` the machine could match.  ``skip_edge(edge)`` says an edge
    leads into a *dead tail* — a region from which no candidate is
    reachable — and may be merged away.  ``full_skip`` says the entry
    itself is dead: the machine cannot observe this function at all.

    Dead-tail and full skipping are disabled when the machine has a
    ``path_end_action``: such machines fire at function exits, so every
    path must actually reach the exit in its precise state.
    """

    __slots__ = ("_candidates", "_index", "_dead", "use_dead_tail",
                 "full_skip", "live_blocks")

    def __init__(self, sm, cfg):
        filt = filter_for(sm)
        self._candidates: dict[int, tuple] = {}
        index = event_index(cfg)
        self._index = index
        live: list[bool] = []
        any_expr = filt.any_expr
        keys = filt.keys
        candidates = self._candidates
        for block in cfg.blocks:
            block_live = False
            for event in block.events:
                eid = id(event)
                all_nodes, by_key, exprs, _ = index[eid]
                positions = exprs if any_expr else 0
                for key in keys.intersection(by_key):
                    positions |= by_key[key]
                if positions:
                    candidates[eid] = _at(all_nodes, positions)
                    block_live = True
                else:
                    candidates[eid] = ()
            live.append(block_live)
        self.live_blocks = sum(live)
        # can_reach_live: reverse reachability from the live blocks.
        can_reach = list(live)
        worklist = [b for b in cfg.blocks if can_reach[b.index]]
        while worklist:
            block = worklist.pop()
            for edge in block.in_edges:
                src = edge.src
                if not can_reach[src.index]:
                    can_reach[src.index] = True
                    worklist.append(src)
        self._dead = [not flag for flag in can_reach]
        self.use_dead_tail = sm.path_end_action is None
        self.full_skip = (self.use_dead_tail
                          and self._dead[cfg.entry.index])

    def candidates(self, event: ast.Node) -> tuple:
        """The machine-visible nodes of one block event, in walk order."""
        nodes = self._candidates.get(id(event))
        if nodes is None:
            # An event not seen at slice time (defensive; block events
            # are fixed once the CFG is built): fall back to all nodes.
            nodes = tuple(event.walk())
        return nodes

    def event_opaque(self, event: ast.Node) -> bool:
        """Does the event contain an opaque node?  Precomputed, so the
        engine's per-visit opaque check costs a dict lookup instead of
        an AST walk."""
        entry = self._index.get(id(event))
        if entry is None:
            return any(isinstance(n, (ast.OpaqueStmt, ast.OpaqueExpr))
                       for n in event.walk())
        return entry[3]

    def skipped_nodes(self, event: ast.Node) -> int:
        """How many of the event's nodes the slice removed (nodes the
        unsliced walk would have stepped).  Budgeted runs charge these
        to the budget without stepping them, so a ``--budget-steps`` run
        degrades at the same work level as the unsliced walk."""
        eid = id(event)
        entry = self._index.get(eid)
        if entry is None:
            return 0
        return len(entry[0]) - len(self._candidates.get(eid, entry[0]))

    def skip_edge(self, edge) -> bool:
        """May exploration across ``edge`` be merged away entirely?"""
        return self.use_dead_tail and self._dead[edge.dst.index]


def slice_for(sm, cfg) -> CfgSlice:
    """``sm``'s slice of ``cfg``; the engine builds one per run."""
    return CfgSlice(sm, cfg)
