"""Runtime side of fault injection: counters, context, and the clock.

A :class:`FaultInjector` is created by the machine from a
:class:`~repro.faults.plan.FaultPlan` and threaded into every node's
buffer pool, output queues, and interpreter.  The simulator asks it one
question — :meth:`fires` — at each injection site; everything that makes
the answer deterministic lives here:

- a **cycle clock** advanced once per interpreted statement/expression
  (the interpreter's tick hook), shared machine-wide;
- a **context** (node id, handler name) set around each handler run;
- **per-rule counters** of eligible events and firings;
- **per-rule seeded RNGs** for probability rules, derived from the plan
  seed and the rule index so rule order is part of the contract.

Every firing is appended to :attr:`events`, which the machine copies
into ``SimStats`` so a run can report exactly which faults it forced.
"""

from __future__ import annotations

from random import Random
from typing import Optional

from ..errors import InjectedFault
from .plan import FaultEvent, FaultPlan


class FaultInjector:
    """Evaluates a :class:`FaultPlan` against the running simulation."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.cycle = 0
        self.node_id: Optional[int] = None
        self.handler: Optional[str] = None
        self._eligible = [0] * len(plan.rules)
        self._fired = [0] * len(plan.rules)
        self._rngs = [
            Random(plan.seed * 1000003 + index)
            for index in range(len(plan.rules))
        ]
        self.events: list[FaultEvent] = []
        #: Site -> ``[(rule index, rule)]``, in plan order: ``fires``
        #: looks only at the rules for the site it is asked about.
        self._rules_at: dict[str, list] = {}
        for index, rule in enumerate(plan.rules):
            self._rules_at.setdefault(rule.site, []).append((index, rule))
        self._crash_rules = "handler_crash" in self._rules_at

    # -- context ------------------------------------------------------------

    def begin_handler(self, node_id: int, handler: str) -> None:
        self.node_id = node_id
        self.handler = handler

    def end_handler(self) -> None:
        self.node_id = None
        self.handler = None

    # -- the clock ----------------------------------------------------------

    def tick(self, _node=None) -> None:
        """Interpreter tick hook: advance the clock, maybe crash the handler."""
        self.cycle += 1
        if self._crash_rules and self.fires("handler_crash"):
            raise InjectedFault(
                f"fault plan crashed handler {self.handler!r} on node "
                f"{self.node_id} at cycle {self.cycle}"
            )

    # -- the one question the simulator asks ---------------------------------

    def fires(self, site: str, lane: Optional[int] = None) -> bool:
        """Should a fault be injected at ``site`` right now?

        Evaluates every rule (several may match one event; each records
        its own firing), so rule counters stay deterministic regardless
        of which rule answers first.
        """
        fired = False
        for index, rule in self._rules_at.get(site, ()):
            if rule.node is not None and rule.node != self.node_id:
                continue
            if rule.handler is not None and rule.handler != self.handler:
                continue
            if rule.lane is not None and rule.lane != lane:
                continue
            if rule.from_cycle is not None and self.cycle < rule.from_cycle:
                continue
            if rule.until_cycle is not None and self.cycle >= rule.until_cycle:
                continue
            self._eligible[index] += 1
            n = self._eligible[index]
            if n <= rule.after:
                continue
            if (n - rule.after - 1) % rule.every != 0:
                continue
            if rule.count is not None and self._fired[index] >= rule.count:
                continue
            if (rule.probability is not None
                    and self._rngs[index].random() >= rule.probability):
                continue
            self._fired[index] += 1
            self.events.append(FaultEvent(
                site=site, node=self.node_id, handler=self.handler,
                lane=lane, cycle=self.cycle, rule_index=index,
            ))
            fired = True
        return fired

    # -- reporting -----------------------------------------------------------

    def counts_by_site(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event.site] = counts.get(event.site, 0) + 1
        return counts
