"""The multi-node FLASH machine (FlashLite-lite).

Drives a set of :class:`Node` objects with a workload: each injected
message dispatches the handler registered for its opcode; messages the
handler sends are delivered to their destination nodes, which run
handlers for them in turn (bounded by a hop limit so buggy protocols
cannot ping-pong forever).  The run either completes with statistics or
raises :class:`ProtocolDeadlock` — the same observable the real FLASH
team spent days chasing.

Two classes of mid-handler failures are *recorded* rather than fatal
(they end one handler, not the run):

- :class:`LaneOverflowError` — a send overran its lane's bounded queue
  (§7); the handler aborts and the event is counted in
  ``SimStats.lane_overflow_events`` (in ``strict`` mode it still ends
  the run, like the real machine wedging);
- :class:`InjectedFault` — a :class:`~repro.faults.FaultPlan` rule
  deliberately crashed the handler or dropped its incoming message.

Pass ``fault_plan=`` to force failure paths (allocation failure, lane
backpressure, message delay/duplication) deterministically; the firing
log lands in ``SimStats.fault_events``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ...errors import InjectedFault, LaneOverflowError, ProtocolDeadlock
from ...faults.injector import FaultInjector
from ...faults.plan import FaultPlan
from ...lang import ast
from .compiler import CompiledProgram
from .network import Message
from .node import Node
from .workload import WorkloadSpec, generate


@dataclass
class SimStats:
    """Aggregated observations from one simulation run."""

    handlers_run: int = 0
    sends: int = 0
    double_frees: int = 0
    use_after_free: int = 0
    unsynchronized_reads: int = 0
    msglen_mismatches: int = 0
    pending_wait_violations: int = 0
    stale_directory_writebacks: int = 0
    lane_overruns: int = 0
    refcount_errors: int = 0
    leaked_buffers: int = 0
    deadlock: Optional[str] = None
    #: Handlers aborted because a send overran its lane (recorded, not fatal).
    lane_overflow_events: int = 0
    #: Handlers aborted / messages dropped by the fault plan.
    injected_crashes: int = 0
    dropped_messages: int = 0
    #: Every fault-plan firing, in order (strings; deterministic per seed).
    fault_events: list = field(default_factory=list)
    #: Firing counts keyed by injection site.
    faults_by_site: dict = field(default_factory=dict)
    #: Handler name -> number of times it ran (or started to run).
    handlers_seen: dict = field(default_factory=dict)
    #: Violation field name -> {handler name -> count} for every counter
    #: that can be pinned on the handler that was running when it moved.
    attribution: dict = field(default_factory=dict)
    #: Program functions the interpreter actually executed (sorted).
    functions_executed: list = field(default_factory=list)
    #: Handler that was running when the run deadlocked, if any.
    deadlock_handler: Optional[str] = None

    @property
    def injected_faults(self) -> int:
        return len(self.fault_events)

    @property
    def clean(self) -> bool:
        return (self.deadlock is None and self.double_frees == 0
                and self.use_after_free == 0
                and self.unsynchronized_reads == 0
                and self.msglen_mismatches == 0
                and self.pending_wait_violations == 0
                and self.stale_directory_writebacks == 0
                and self.lane_overruns == 0
                and self.refcount_errors == 0
                and self.leaked_buffers == 0)


class FlashMachine:
    """A small FLASH machine running one protocol's handlers."""

    def __init__(self, functions: dict[str, ast.FunctionDef],
                 dispatch: dict[int, str], nodes: int = 2,
                 n_buffers: int = 16, lane_capacity: int = 8,
                 strict: bool = False, max_hops: int = 4,
                 fault_plan: Optional[FaultPlan] = None,
                 program: Optional[CompiledProgram] = None):
        self.dispatch = dispatch
        self.max_hops = max_hops
        self.injector = (FaultInjector(fault_plan)
                         if fault_plan is not None else None)
        # The nodes share one compiled program; pass ``program`` to
        # share it with other machines over the same functions.
        if program is None:
            program = CompiledProgram(functions)
        self.nodes = [
            Node(i, functions, n_buffers=n_buffers,
                 lane_capacity=lane_capacity, strict=strict,
                 injector=self.injector, program=program)
            for i in range(nodes)
        ]
        self._lane_overflow_events = 0
        self._injected_crashes = 0
        self._dropped_messages = 0
        self._handlers_seen: dict[str, int] = {}
        self._attribution: dict[str, dict[str, int]] = {}
        self._deadlock_handler: Optional[str] = None

    #: Violation counters that can be attributed to the handler running
    #: when they moved: SimStats field name -> per-node reader.
    _ATTRIBUTED = (
        ("double_frees", lambda n: n.pool.double_frees),
        ("use_after_free", lambda n: n.pool.use_after_free),
        ("unsynchronized_reads", lambda n: n.pool.unsynchronized_reads),
        ("msglen_mismatches", lambda n: n.msglen_mismatches),
        ("pending_wait_violations", lambda n: n.pending_wait_violations),
        ("stale_directory_writebacks", lambda n: n.directory.stale_writebacks),
        ("lane_overruns", lambda n: n.queues.overruns),
        ("refcount_errors", lambda n: n.pool.refcount_errors),
    )

    def _snapshot(self, node: Node) -> tuple:
        return tuple(read(node) for _, read in self._ATTRIBUTED)

    def _attribute(self, handler: str, before: tuple, after: tuple) -> None:
        for (name, _), prev, cur in zip(self._ATTRIBUTED, before, after):
            if cur > prev:
                per_handler = self._attribution.setdefault(name, {})
                per_handler[handler] = per_handler.get(handler, 0) + (cur - prev)

    def run(self, spec: WorkloadSpec) -> SimStats:
        """Run the workload to completion (or deadlock)."""
        stats = SimStats()
        try:
            for message in generate(spec):
                self._deliver(message, hops=0)
        except ProtocolDeadlock as deadlock:
            stats.deadlock = str(deadlock)
        self._collect(stats)
        return stats

    def _deliver(self, message: Message, hops: int) -> None:
        handler = self.dispatch.get(message.opcode)
        if handler is None:
            return
        node = self.nodes[message.dest % len(self.nodes)]
        self._handlers_seen[handler] = self._handlers_seen.get(handler, 0) + 1
        before = self._snapshot(node)
        try:
            try:
                outgoing = node.run_handler(handler, message)
            finally:
                self._attribute(handler, before, self._snapshot(node))
        except LaneOverflowError:
            if node.strict:
                raise
            node.abort_handler()
            self._lane_overflow_events += 1
            return
        except InjectedFault as fault:
            node.abort_handler()
            if fault.kind == "dropped_message":
                self._dropped_messages += 1
            else:
                self._injected_crashes += 1
            return
        except ProtocolDeadlock:
            if self._deadlock_handler is None:
                self._deadlock_handler = handler
            raise
        if hops >= self.max_hops:
            return
        for reply in outgoing:
            reply.dest = reply.dest % len(self.nodes)
            self._deliver(reply, hops + 1)

    def _collect(self, stats: SimStats) -> None:
        for node in self.nodes:
            stats.handlers_run += node.handlers_run
            stats.sends += node.sends
            stats.double_frees += node.pool.double_frees
            stats.use_after_free += node.pool.use_after_free
            stats.unsynchronized_reads += node.pool.unsynchronized_reads
            stats.msglen_mismatches += node.msglen_mismatches
            stats.pending_wait_violations += node.pending_wait_violations
            stats.stale_directory_writebacks += node.directory.stale_writebacks
            stats.lane_overruns += node.queues.overruns
            stats.refcount_errors += node.pool.refcount_errors
            stats.leaked_buffers += node.pool.live_count
        stats.lane_overflow_events = self._lane_overflow_events
        stats.injected_crashes = self._injected_crashes
        stats.dropped_messages = self._dropped_messages
        stats.handlers_seen = dict(self._handlers_seen)
        stats.attribution = {
            name: dict(sorted(per.items()))
            for name, per in sorted(self._attribution.items())
        }
        executed: set[str] = set()
        for node in self.nodes:
            executed.update(node.interp.executed)
        stats.functions_executed = sorted(executed)
        stats.deadlock_handler = self._deadlock_handler
        if self.injector is not None:
            stats.fault_events = [str(e) for e in self.injector.events]
            stats.faults_by_site = self.injector.counts_by_site()
