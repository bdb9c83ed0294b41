"""Flow-graph-search checking — the style the authors used *before* metal.

§11: "We initially used a technique based on searching the flow graph
generated by xg++ for our checks.  A common situation was ensuring that
a condition held along all paths ... After building several checks this
way we realized that many were describable as simple finite state
machines.  When we converted the checks to SMs, the code became easier
to understand and, in several cases, shrank by a factor of two."

This module keeps that first style alive: two reusable graph searches
(:func:`find_unguarded` and :func:`find_unfollowed`) that cover the
"X must come before Y" and "X must be followed by Y" rule templates of
§3.1 directly on the CFG, without a state machine.  Tests demonstrate
equivalence with the metal formulation of the buffer-race rule — and the
code size difference the paper reports is visible by inspection.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..cfg.graph import Cfg
from ..lang import ast

NodePredicate = Callable[[ast.Node], bool]


def _event_nodes(block):
    for event in block.events:
        for node in event.walk():
            yield node


def find_unguarded(cfg: Cfg, use: NodePredicate, guard: NodePredicate,
                   feasibility: Optional[bool] = None) -> list[ast.Node]:
    """Nodes matching ``use`` reachable from entry with no prior ``guard``.

    The "always do X before Y" template (§3.1): any returned node is a
    ``use`` that some execution path reaches without passing a ``guard``
    — e.g. a ``MISCBUS_READ_DB`` with no ``WAIT_FOR_DB_FULL`` before it.

    With ``feasibility`` on (None follows the engine-wide default), the
    search carries the same abstract store as the SM engine and skips
    branch edges whose condition contradicts facts already on the path,
    so a use reachable only through an infeasible edge (the Table 2
    correlated-branch shape) is not an offender.
    """
    from . import feasibility as _feas
    enabled = (_feas.default_enabled() if feasibility is None
               else feasibility)
    feas = _feas.for_cfg(cfg) if enabled else None
    found: dict[int, ast.Node] = {}
    if feas is None:
        visited: set[int] = set()
        stack = [cfg.entry]
        while stack:
            block = stack.pop()
            if block.index in visited:
                continue
            visited.add(block.index)
            guarded = False
            for node in _event_nodes(block):
                if guard(node):
                    guarded = True
                    break
                if use(node):
                    found[id(node)] = node
            if guarded:
                continue
            stack.extend(block.successors)
    else:
        seen: set[tuple] = set()
        work = [(cfg.entry, feas.initial_store())]
        while work:
            block, store = work.pop()
            key = (block.index, store.key())
            if key in seen:
                continue
            seen.add(key)
            guarded = False
            for event in block.events:
                for node in event.walk():
                    if guard(node):
                        guarded = True
                        break
                    if use(node):
                        found[id(node)] = node
                if guarded:
                    break
                store = feas.transfer_event(store, event)
            if guarded:
                continue
            for edge in block.out_edges:
                succ_store = store
                if edge.label in ("true", "false") and block.events:
                    outcome = feas.assume_edge(store, block.events[-1],
                                               edge.label)
                    if isinstance(outcome, _feas.Contradiction):
                        continue
                    succ_store, _fact = outcome
                work.append((edge.dst, feas.restrict(succ_store, edge.dst)))
    return sorted(found.values(),
                  key=lambda n: (n.location.line, n.location.column))


def find_unfollowed(cfg: Cfg, trigger: NodePredicate,
                    required: NodePredicate) -> list[ast.Node]:
    """Triggers not followed by ``required`` on *every* outgoing path.

    The "if you do X you must do Y" template (§3.1): for each node
    matching ``trigger``, check that all paths from it to the function
    exit pass a node matching ``required`` — e.g. every wait-bit send
    must be followed by the wait macro.
    """
    # For each block, does every path from its *end* hit `required`?
    satisfied: dict[int, bool] = {}

    def block_satisfies_from(block, start_index: int) -> bool:
        """True if every path from events[start_index:] hits required."""
        for event in block.events[start_index:]:
            for node in event.walk():
                if required(node):
                    return True
        return all_successors_satisfy(block)

    def all_successors_satisfy(block) -> bool:
        if not block.successors or block is cfg.exit:
            return False
        return all(from_block_start(s) for s in set(block.successors))

    def from_block_start(block) -> bool:
        cached = satisfied.get(block.index)
        if cached is not None:
            return cached
        satisfied[block.index] = False  # cycles: conservatively unsatisfied
        value = block_satisfies_from(block, 0)
        satisfied[block.index] = value
        return value

    offenders: list[ast.Node] = []
    for block in cfg.reachable_blocks():
        for i, event in enumerate(block.events):
            trigger_nodes = [n for n in event.walk() if trigger(n)]
            if not trigger_nodes:
                continue
            # Required may appear later in the same event stream.
            rest_ok = False
            for later in block.events[i + 1:]:
                if any(required(n) for n in later.walk()):
                    rest_ok = True
                    break
            if not rest_ok:
                rest_ok = all_successors_satisfy(block)
            if not rest_ok:
                offenders.extend(trigger_nodes)
    return offenders


def quarantining(predicate: NodePredicate, sink, checker: str,
                 function: str, phase: str = "flow-search") -> NodePredicate:
    """Wrap ``predicate`` so one raise quarantines instead of aborting.

    The flow-graph searches take arbitrary user predicates; in
    keep-going mode a predicate that raises should cost only its own
    (checker, function) pair, exactly like a crashing SM action in the
    path-sensitive engine.  After the first raise the wrapped predicate
    answers False (the search completes, conservatively) and a
    :class:`~repro.mc.resilience.Quarantine` is recorded in ``sink``.
    """
    from .resilience import Quarantine
    dead = False

    def wrapped(node: ast.Node) -> bool:
        nonlocal dead
        if dead:
            return False
        try:
            return predicate(node)
        except Exception as exc:
            dead = True
            sink.add_quarantine(Quarantine(
                checker=checker, function=function, phase=phase,
                error_type=type(exc).__name__, message=str(exc),
            ))
            return False
    return wrapped


def is_call_to(*names: str) -> NodePredicate:
    """Predicate: node is a direct call to one of ``names``."""
    nameset = frozenset(names)

    def predicate(node: ast.Node) -> bool:
        return isinstance(node, ast.Call) and node.callee_name in nameset
    return predicate
