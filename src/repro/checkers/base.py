"""Checker framework: base classes and registration.

Each checker corresponds to one section of the paper and produces a
:class:`CheckerResult`: the diagnostics it emitted, how many times the
check was *applied* (the "Applied" columns of Tables 2, 3 and 6), and any
annotation sites it honoured (Table 4 counts these).  Classifying
diagnostics into true errors / minor violations / false positives is the
benchmark layer's job — the paper's authors did that by hand; we do it
against the code generator's ground-truth manifest.

The result model, the registry and its lookups live in
:mod:`repro.mc.registry`, which the fleet imports without importing
any checker; they are re-exported here.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional, Type

from ..mc.registry import (
    _ORIGINS,
    _REGISTRY,
    BUILTIN_PACK,
    CheckerOrigin,
    CheckerResult,
    checker_names,
    checker_origin,
    is_pack_checker,
)
from ..metal.runtime import ReportSink
from ..project import Program, ProtocolInfo

__all__ = [
    "BUILTIN_PACK", "Checker", "CheckerOrigin", "CheckerResult", "Parts",
    "TwoPassChecker", "all_checkers", "checker_names", "checker_origin",
    "get_checker", "is_pack_checker", "register", "register_pack_checker",
    "run_all", "unregister_pack_checker",
]


class Checker(ABC):
    """Base class for all checkers.

    Subclasses set :attr:`name` and :attr:`metal_loc` (the size of the
    equivalent metal extension, reported in Table 7) and implement
    :meth:`check`.  Inter-procedural checkers that can split their work
    into a per-unit pass and a link derive from :class:`TwoPassChecker`.
    """

    #: Stable identifier, used in reports and benchmark tables.
    name: str = ""
    #: Lines of metal the paper's version of this checker took (Table 7).
    metal_loc: int = 0
    #: True when ``check`` over a single translation unit produces the
    #: same diagnostics as over the whole program (per-function
    #: analyses).  The parallel driver fans such checkers out one unit
    #: at a time, and runs any other checker that is not a
    #: :class:`TwoPassChecker` as a single whole-program work item.
    unit_parallel: bool = True

    @abstractmethod
    def check(self, program: Program) -> CheckerResult:
        """Run over ``program`` and return the result."""

    # -- shared helpers ------------------------------------------------------

    def _new_result(self) -> tuple[CheckerResult, ReportSink]:
        result = CheckerResult(checker=self.name)
        sink = ReportSink()
        return result, sink

    def _finish(self, result: CheckerResult, sink: ReportSink) -> CheckerResult:
        result.reports = sink.reports
        result.quarantines = list(getattr(sink, "quarantines", []))
        result.degraded = bool(getattr(sink, "degraded", False))
        result.degradation_notes = list(getattr(sink, "degradation_notes", []))
        result.provenance = dict(getattr(sink, "provenance", {}))
        result.suppressed = list(getattr(sink, "suppressed", []))
        return result


@dataclass
class Parts:
    """A program after a two-pass checker's local pass: the part
    :meth:`TwoPassChecker.local` returned for each unit, in unit order,
    and the protocol the global pass reads."""

    parts: list[CheckerResult]
    info: ProtocolInfo


class TwoPassChecker(Checker):
    """An inter-procedural checker in the paper's two-pass form (§3.2,
    §7): :meth:`local` runs over one translation unit and leaves its
    facts on the part it returns, and :meth:`link` builds the
    whole-program result from every unit's part.

    The parallel driver runs ``local`` once per unit, stores each part,
    and calls ``check`` on the :class:`Parts` in the parent, so an edit
    re-runs the local pass over the edited unit only.
    """

    #: ``check`` over one unit cannot see the calls into other units.
    unit_parallel = False

    def check(self, program: Program | Parts) -> CheckerResult:
        """Both passes over a :class:`Program`; over :class:`Parts`,
        whose local passes already ran, the global pass alone."""
        if not isinstance(program, Parts):
            program = Parts([self.local(program)], program.info)
        return self.link(program.parts, program.info)

    @abstractmethod
    def local(self, program: Program) -> CheckerResult:
        """The per-unit pass: a part whose ``facts`` :meth:`link` reads."""

    def link(self, parts: list[CheckerResult],
             info: ProtocolInfo) -> CheckerResult:
        """The global pass: one result from the parts, in unit order.
        The default merges them as the fleet merges per-unit items."""
        from ..mc.parallel import merge_parts
        return merge_parts(self.name, parts)


def register(cls: Type[Checker]) -> Type[Checker]:
    """Class decorator adding a checker to the global registry."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} must set a name")
    _REGISTRY[cls.name] = cls
    return cls


def register_pack_checker(cls: Type[Checker],
                          origin: CheckerOrigin) -> Type[Checker]:
    """Register a pack-provided checker with its provenance.

    Name collisions — with a builtin or with another pack's checker —
    are structural load errors (:class:`repro.packs.PackError`): two
    checkers sharing a name would make reports, cache keys, and
    ``--checker`` selection ambiguous.  So is a class that leaves an
    abstract method unimplemented (a :class:`TwoPassChecker` without
    ``local``), which could never be instantiated.
    """
    from ..packs.manifest import PackError
    if not cls.name:
        raise PackError(
            f"pack {origin.label}: checker class {cls.__name__} in "
            f"{origin.source or '<module>'} sets no name")
    missing = sorted(getattr(cls, "__abstractmethods__", ()))
    if missing:
        raise PackError(
            f"pack {origin.label}: checker class {cls.__name__} in "
            f"{origin.source or '<module>'} does not implement "
            f"{', '.join(missing)}")
    existing = _REGISTRY.get(cls.name)
    if existing is not None and existing is not cls:
        holder = _ORIGINS.get(cls.name)
        held_by = holder.label if holder is not None else "builtin"
        raise PackError(
            f"pack {origin.label}: checker name {cls.name!r} collides "
            f"with the one registered by {held_by}")
    _REGISTRY[cls.name] = cls
    _ORIGINS[cls.name] = origin
    from ..mc.cache import _CHECKER_FP
    _CHECKER_FP.pop(cls.name, None)
    return cls


def unregister_pack_checker(name: str) -> None:
    """Remove a pack checker (pack unload; tests).  Builtin names are
    never removable through this path."""
    if name in _ORIGINS:
        _ORIGINS.pop(name, None)
        _REGISTRY.pop(name, None)
        from ..mc.cache import _CHECKER_FP
        _CHECKER_FP.pop(name, None)


def get_checker(name: str) -> Checker:
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise KeyError(
            f"unknown checker {name!r}; known: {', '.join(_REGISTRY)}"
        ) from None


def all_checkers() -> list[Checker]:
    """Fresh instances of every registered checker, registration order."""
    return [cls() for cls in _REGISTRY.values()]


def run_all(program: Program,
            names: Optional[list[str]] = None, *,
            keep_going: bool = False,
            deadline: Optional[float] = None) -> dict[str, CheckerResult]:
    """Run the named checkers (default: all) over ``program``.

    With ``keep_going``, one checker blowing up costs only that checker:
    its crash becomes a quarantine diagnostic on an otherwise-empty
    (degraded) result, and every other checker still reports — the
    engine analog of the simulator surviving a single handler's fault.

    ``deadline`` is an absolute ``time.time()`` instant bounding the
    whole run: checkers not yet started when it passes are skipped with
    a degraded, noted result (partial results now beat complete results
    never).  The parallel driver (:mod:`repro.mc.parallel`) shares the
    same deadline across every worker.
    """
    checkers = (
        [get_checker(n) for n in names] if names is not None else all_checkers()
    )
    results: dict[str, CheckerResult] = {}
    for checker in checkers:
        if deadline is not None and time.time() >= deadline:
            result = CheckerResult(checker=checker.name, degraded=True)
            result.degradation_notes.append(
                f"[{checker.name}] not run: run deadline exceeded")
            results[checker.name] = result
            continue
        try:
            results[checker.name] = checker.check(program)
        except Exception as exc:
            # Pack checkers run sandboxed unconditionally: third-party
            # code blowing up costs that pack's result, never the run.
            # Builtins keep the opt-in keep_going contract.
            from_pack = is_pack_checker(checker.name)
            if not keep_going and not from_pack:
                raise
            from ..mc.resilience import Quarantine
            result = CheckerResult(checker=checker.name, degraded=True)
            result.quarantines.append(Quarantine(
                checker=checker.name, function="*",
                phase="pack" if from_pack else "checker",
                error_type=type(exc).__name__, message=str(exc),
            ))
            results[checker.name] = result
    return results
