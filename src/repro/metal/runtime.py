"""Metal runtime objects: match bindings, reports, and the action context.

When a rule's pattern matches an AST node, the engine builds a
:class:`MatchContext` and invokes the rule's action with it.  Actions call
``ctx.err(...)`` to emit a :class:`Report` — the analog of metal's
``err()`` escape — and can read the matched node, the bindings of the
pattern's wildcard variables, and the enclosing function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..lang.source import Location, unknown_location

if TYPE_CHECKING:
    from ..lang import ast


@dataclass(frozen=True)
class Report:
    """One diagnostic produced by a checker."""

    checker: str
    message: str
    location: Location
    function: str = ""
    severity: str = "error"
    # Inter-procedural checkers attach a call-path backtrace.
    backtrace: tuple = ()

    def __str__(self) -> str:
        text = f"{self.location}: [{self.checker}] {self.message}"
        if self.function:
            text += f" (in {self.function})"
        for frame in self.backtrace:
            text += f"\n    called from {frame}"
        return text


class ReportSink:
    """Collects reports, de-duplicating repeats of the same diagnostic.

    The path-sensitive engine can reach the same program point many times
    in the same SM state via different paths; a diagnostic is identified
    by (checker, message, location) so each distinct problem is reported
    once, the way xg++ presented its output.

    A sink also carries the run's resilience state: quarantined
    (checker, function) pairs (crashes isolated by the engine's
    ``keep_going`` mode) and a ``degraded`` flag set when an analysis
    budget ran out before exploration finished — partial results are
    still results, but they say so.
    """

    def __init__(self) -> None:
        self._reports: list[Report] = []
        self._seen: set[tuple] = set()
        #: :class:`repro.mc.resilience.Quarantine` records, deduplicated
        #: on (checker, function).
        self.quarantines: list = []
        self._quarantined: set[tuple] = set()
        #: True when any exploration stopped early (budget, quarantine).
        self.degraded: bool = False
        #: Human-readable notes on what was cut short and why.
        self.degradation_notes: list[str] = []
        #: Path provenance per report key (checker, message, location):
        #: the interleaved source-line/state-transition trail that first
        #: reached the diagnostic (see :mod:`repro.obs.provenance`).
        self.provenance: dict[tuple, list] = {}
        #: Engine hook, invoked with each *new* (non-duplicate) report —
        #: this is how the path-sensitive engine attaches provenance at
        #: the moment a diagnostic first fires.
        self.on_new_report = None
        #: Engine hook consulted *before* a report is recorded.  Returns
        #: a reason string to suppress it (e.g. ``"opaque"`` when the
        #: path crossed a tolerant-frontend opaque region) or None to
        #: let it through.  Suppressed reports land in ``suppressed``
        #: with ``suppressed_by=<reason>`` provenance instead.
        self.report_gate = None
        #: (report, reason) pairs held back by ``report_gate``,
        #: deduplicated like ordinary reports.
        self.suppressed: list[tuple[Report, str]] = []
        self._suppressed_seen: set[tuple] = set()

    def add(self, report: Report) -> bool:
        key = (report.checker, report.message, report.location)
        if self.report_gate is not None:
            reason = self.report_gate(report)
            if reason is not None:
                if key not in self._suppressed_seen:
                    self._suppressed_seen.add(key)
                    self.suppressed.append((report, reason))
                    self.provenance.setdefault(
                        key, [{"kind": "suppressed", "suppressed_by": reason}])
                return False
        if key in self._seen:
            return False
        self._seen.add(key)
        if key in self._suppressed_seen:
            # A clean path reached a diagnostic earlier held back on an
            # opaque path: the report stands, the suppression does not.
            self._suppressed_seen.discard(key)
            self.suppressed = [
                (r, why) for r, why in self.suppressed
                if (r.checker, r.message, r.location) != key
            ]
            self.provenance.pop(key, None)
        self._reports.append(report)
        if self.on_new_report is not None:
            self.on_new_report(report)
        return True

    def add_quarantine(self, quarantine) -> bool:
        """Record a quarantined (checker, function) pair, once."""
        key = (quarantine.checker, quarantine.function)
        if key in self._quarantined:
            return False
        self._quarantined.add(key)
        self.quarantines.append(quarantine)
        self.degraded = True
        return True

    @property
    def reports(self) -> list[Report]:
        return list(self._reports)

    def __len__(self) -> int:
        return len(self._reports)

    def __iter__(self):
        return iter(self._reports)


class MatchContext:
    """What an action sees when its rule fires.

    ``facts`` is the path-feasibility window
    (:class:`repro.mc.feasibility.FactsView`) when the engine runs with
    pruning on, ``None`` otherwise — actions must treat it as optional.
    It lets a checker ask whether a condition is already known
    true/false on the path the rule fired down.
    """

    def __init__(
        self,
        checker: str,
        node: ast.Node,
        bindings: dict[str, ast.Node],
        function: Optional[ast.FunctionDef],
        sink: ReportSink,
        state: str = "",
        facts=None,
    ):
        self.checker = checker
        self.node = node
        self.bindings = bindings
        self.function = function
        self.sink = sink
        self.state = state
        self.facts = facts

    @property
    def location(self) -> Location:
        return self.node.location if self.node is not None else unknown_location()

    @property
    def function_name(self) -> str:
        return self.function.name if self.function is not None else ""

    def err(self, message: str, severity: str = "error") -> None:
        """Emit a diagnostic at the matched node (metal's ``err()``)."""
        self.sink.add(
            Report(
                checker=self.checker,
                message=self._expand(message),
                location=self.location,
                function=self.function_name,
                severity=severity,
            )
        )

    def warn(self, message: str) -> None:
        self.err(message, severity="warning")

    def binding_text(self, name: str) -> str:
        """Render a bound wildcard variable back to C text."""
        from ..lang import ast
        from ..lang.unparse import unparse_expr

        node = self.bindings.get(name)
        if node is None:
            return f"<{name}?>"
        if isinstance(node, ast.Expr):
            return unparse_expr(node)
        return node.kind

    def _expand(self, message: str) -> str:
        """Expand ``%name`` references to bound variables in messages."""
        if "%" not in message:
            return message
        out = message
        for name in self.bindings:
            out = out.replace(f"%{name}", self.binding_text(name))
        return out
