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
walk.  Budgeted runs are never cached.
"""

from __future__ import annotations

import weakref
from typing import Optional

from ..lang import ast

#: Version of the summary-engine semantics; folded into every
#: function-summary key so changing slicing/replay behaviour can never
#: replay a stale record.
ENGINE_SUMMARY_VERSION = 1


# -- the machine filter ------------------------------------------------------

#: AST node kinds whose pattern match requires an equal operator.
_OP_KINDS = ("BinaryOp", "UnaryOp", "PostfixOp", "Assign")


class MachineFilter:
    """Which AST nodes can a machine's patterns possibly match?

    Built once per machine from the *roots* of every pattern of every
    rule (the matcher unifies at the root only; :meth:`Pattern.match`).
    The filter is a sound over-approximation: :meth:`match_possible`
    may say yes for a node no pattern matches, but never no for one a
    pattern would match — the discriminators below only use facts
    ``Pattern._unify`` checks unconditionally at the root:

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

    def match_possible(self, node: ast.Node) -> bool:
        if self.any_expr and isinstance(node, ast.Expr):
            return True
        primary, secondary, _ = node_key(node)
        keys = self.keys
        return (primary in keys
                or (secondary is not None and secondary in keys))


# How a node class's secondary discriminator is derived (see node_key).
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


def node_key(node: ast.Node) -> tuple:
    """The discriminator triple ``(primary, secondary, is_expr)`` that
    :meth:`MachineFilter.match_possible` tests a node by.

    ``primary`` is ``(kind, None)`` — the wildcard entry for the node's
    kind; ``secondary`` is the name/operator-refined entry, or ``None``
    when the kind carries no payload the filter discriminates on.
    :func:`event_index` folds these into one set per event, so a
    machine's slice dismisses most events with a single set
    intersection and recomputes per-node triples only for the rest.
    """
    primary, is_expr, _, mode, kind = _cls_info(type(node))
    if mode == _MODE_CALL:
        func = node.func
        secondary = ((kind, func.name)
                     if isinstance(func, ast.Ident) else None)
    elif mode == _MODE_NAME:
        secondary = (kind, node.name)
    elif mode == _MODE_OP:
        secondary = (kind, node.op)
    else:
        secondary = None
    return primary, secondary, is_expr


_FILTERS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def filter_for(sm) -> MachineFilter:
    filt = _FILTERS.get(sm)
    if filt is None:
        filt = _FILTERS[sm] = MachineFilter(sm)
    return filt


# -- the CFG slice -----------------------------------------------------------

#: cfg -> {id(event): (nodes, key-set, has_expr, opaque)}.
#: Everything machine-independent about an event — its flat node tuple,
#: the frozenset of every discriminator present, whether any node is an
#: expression, and whether it contains an opaque region — computed once
#: per CFG and shared by every machine's slice (a corpus pass runs six
#: machines over the same CFGs — without this, each re-walks the whole
#: program), by feasibility's transfer-function builder, and by the
#: readers of each event's calls (:func:`event_calls`).  Per-node
#: discriminators are *not* stored: the slice recomputes them only for
#: the few events its fast path cannot dismiss.
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
                # (candidate order is part of report byte-identity),
                # then the set of all discriminators present, the
                # expression flag, and opaque detection in one pass.
                nodes = preorder(event)
                key_set: set = set()
                add = key_set.add
                has_expr = False
                opaque = False
                for n in nodes:
                    cls = n.__class__
                    info = cls_map.get(cls)
                    if info is None:
                        info = cls_info(cls)
                    primary, is_expr, is_opaque, mode, kind = info
                    add(primary)
                    if mode != _MODE_PLAIN:
                        if mode == _MODE_CALL:
                            func = n.func
                            if isinstance(func, is_ident):
                                add((kind, func.name))
                        elif mode == _MODE_NAME:
                            add((kind, n.name))
                        else:
                            add((kind, n.op))
                    if is_expr:
                        has_expr = True
                    if is_opaque:
                        opaque = True
                index[id(event)] = (tuple(nodes), frozenset(key_set),
                                    has_expr, opaque)
        _EVENT_INDEX[cfg] = index
    return index


_CALL_KEY = ("Call", None)


def event_calls(entry: tuple) -> list:
    """The ``Call`` nodes of one :func:`event_index` entry, in walk
    order; an event without one is dismissed by its key set."""
    if _CALL_KEY not in entry[1]:
        return []
    call = ast.Call
    return [node for node in entry[0] if node.__class__ is call]


#: cfg -> {id(event): (discriminator -> node positions, expr positions)}
#: for events at least one machine's fast path could not dismiss.  The
#: inverted map is machine-independent; building it lazily (first live
#: encounter) shares the work across the six machines of a corpus pass,
#: and each machine's slice then costs one set intersection plus a few
#: position lookups instead of a per-node scan.
_EVENT_KEYS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _event_keymap(cfg, eid: int, all_nodes: tuple) -> tuple:
    per_cfg = _EVENT_KEYS.get(cfg)
    if per_cfg is None:
        per_cfg = _EVENT_KEYS[cfg] = {}
    entry = per_cfg.get(eid)
    if entry is None:
        by_key: dict = {}
        expr_positions: list = []
        for pos, n in enumerate(all_nodes):
            primary, secondary, is_expr = node_key(n)
            by_key.setdefault(primary, []).append(pos)
            if secondary is not None:
                by_key.setdefault(secondary, []).append(pos)
            if is_expr:
                expr_positions.append(pos)
        entry = (by_key, tuple(expr_positions))
        per_cfg[eid] = entry
    return entry


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

    __slots__ = ("filter", "_candidates", "_index", "_dead",
                 "use_dead_tail", "full_skip", "live_blocks")

    def __init__(self, sm, cfg):
        filt = filter_for(sm)
        self.filter = filt
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
                all_nodes, key_set, has_expr, _ = index[eid]
                if keys.isdisjoint(key_set) and not (any_expr and has_expr):
                    # Fast path: no discriminator of any pattern occurs
                    # anywhere in the event — the whole event is sliced
                    # out without touching its nodes.
                    candidates[eid] = ()
                    continue
                by_key, expr_positions = _event_keymap(cfg, eid, all_nodes)
                picked_pos = (set(expr_positions)
                              if any_expr and has_expr else set())
                get = by_key.get
                for key in keys & key_set:
                    picked_pos.update(get(key, ()))
                if picked_pos:
                    candidates[eid] = tuple(
                        all_nodes[i] for i in sorted(picked_pos))
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


#: sm -> (cfg -> CfgSlice).  Both levels weak: checker instances build
#: fresh machines per run and Programs memoize CFGs, so neither object's
#: id may be used as a plain dict key without risking stale-id reuse.
_SLICES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def slice_for(sm, cfg) -> CfgSlice:
    per_machine = _SLICES.get(sm)
    if per_machine is None:
        per_machine = _SLICES[sm] = weakref.WeakKeyDictionary()
    sl = per_machine.get(cfg)
    if sl is None:
        sl = per_machine[cfg] = CfgSlice(sm, cfg)
    return sl


# -- summary replay ----------------------------------------------------------

def merge_into(sink, walk_sink, *, provenance_from: Optional[dict] = None):
    """Fold one function's completed walk (or replayed summary) into
    ``sink``.

    ``walk_sink`` holds everything one ``run_machine`` execution
    emitted, isolated from the unit-wide sink.  Replaying its final
    state — reports first (so a clean report beats a suppression from an
    *earlier* function, exactly as a shared-sink walk would resolve it),
    then suppressions, then resilience state — produces the same
    unit-wide sink a shared-sink walk builds directly.  Used both when a
    walk just finished and when a cached summary is served.
    """
    from ..obs.provenance import report_key

    provenance = (provenance_from if provenance_from is not None
                  else walk_sink.provenance)
    previous_gate = sink.report_gate
    previous_hook = sink.on_new_report
    sink.report_gate = None
    sink.on_new_report = None
    try:
        for report in walk_sink.reports:
            if sink.add(report):
                steps = provenance.get(report_key(report))
                if steps is not None:
                    sink.provenance.setdefault(report_key(report), steps)
        for report, why in walk_sink.suppressed:
            key = report_key(report)
            if key not in sink._suppressed_seen:
                sink._suppressed_seen.add(key)
                sink.suppressed.append((report, why))
                sink.provenance.setdefault(
                    key,
                    provenance.get(key)
                    or [{"kind": "suppressed", "suppressed_by": why}])
    finally:
        sink.report_gate = previous_gate
        sink.on_new_report = previous_hook
    for quarantine in walk_sink.quarantines:
        sink.add_quarantine(quarantine)
    if walk_sink.degraded:
        sink.degraded = True
    if walk_sink.degradation_notes:
        sink.degradation_notes.extend(walk_sink.degradation_notes)
