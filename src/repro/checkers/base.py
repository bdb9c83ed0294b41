"""Checker framework: result model, base class, and registry.

Each checker corresponds to one section of the paper and produces a
:class:`CheckerResult`: the diagnostics it emitted, how many times the
check was *applied* (the "Applied" columns of Tables 2, 3 and 6), and any
annotation sites it honoured (Table 4 counts these).  Classifying
diagnostics into true errors / minor violations / false positives is the
benchmark layer's job — the paper's authors did that by hand; we do it
against the code generator's ground-truth manifest.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Optional, Type

from ..lang.source import Location
from ..metal.runtime import Report, ReportSink
from ..project import Program, ProtocolInfo


@dataclass
class CheckerResult:
    """Everything one checker produced over one program."""

    checker: str
    reports: list[Report] = field(default_factory=list)
    #: How many program points the check examined (paper's "Applied").
    applied: int = 0
    #: Annotation calls (``has_buffer``/``no_free_needed``/...) honoured.
    annotations: list[Location] = field(default_factory=list)
    #: Checker-specific extras (e.g. Table 5's handler/variable counts).
    extra: dict = field(default_factory=dict)
    #: (checker, function) pairs this run had to isolate after a crash.
    quarantines: list = field(default_factory=list)
    #: True when the result is partial (quarantine or exhausted budget).
    degraded: bool = False
    #: Human-readable notes on what was cut short and why (engine
    #: degradation, skipped work past a run deadline, ...).
    degradation_notes: list[str] = field(default_factory=list)
    #: Per-report path provenance, keyed on (checker, message, location)
    #: — the trail ``mc-check explain`` renders (repro.obs.provenance).
    provenance: dict = field(default_factory=dict)
    #: (report, reason) pairs held back by the engine's report gate —
    #: e.g. reports whose path crossed a tolerant-frontend opaque
    #: region (``suppressed_by="opaque"``).
    suppressed: list = field(default_factory=list)
    #: A two-pass checker's per-unit facts (JSON-able), set by
    #: :meth:`TwoPassChecker.local` and read by its ``link``.
    #: ``None`` on every linked or single-pass result, and on a part
    #: that never completed (skipped, poisoned, crashed).
    facts: Optional[object] = None

    @property
    def errors(self) -> list[Report]:
        return [r for r in self.reports if r.severity == "error"]

    @property
    def warnings(self) -> list[Report]:
        return [r for r in self.reports if r.severity == "warning"]

    def __repr__(self) -> str:
        return (f"<CheckerResult {self.checker}: {len(self.reports)} reports, "
                f"applied {self.applied}>")


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


_REGISTRY: dict[str, Type[Checker]] = {}

#: The pseudo-pack every first-party checker belongs to.  The builtin
#: registry is "just the default pack": same origin shape, same
#: provenance surfaces (``mc-check checkers``, report JSON), but wired
#: in at import time rather than discovered from a ``pack.toml``.
BUILTIN_PACK = "builtin"


@dataclass(frozen=True)
class CheckerOrigin:
    """Where a registered checker came from: which pack, which version.

    Folded into cache/journal keys (:func:`repro.mc.cache.checker_fingerprint`)
    and report provenance, so bumping a pack's version invalidates
    exactly that pack's entries and every diagnostic can be attributed
    to the pack that produced it.
    """

    pack: str
    version: str
    #: The implementation file (Python module or ``.metal`` program)
    #: the checker was loaded from; empty for builtins (their source is
    #: located through the class itself).
    source: str = ""

    @property
    def builtin(self) -> bool:
        return self.pack == BUILTIN_PACK

    @property
    def label(self) -> str:
        return f"{self.pack}@{self.version}"


#: Checker name -> origin, for pack-provided checkers.  Builtins are
#: not stored: :func:`checker_origin` synthesizes their origin so the
#: builtin registry needs no load-time bookkeeping.
_ORIGINS: dict[str, CheckerOrigin] = {}


def _builtin_origin() -> CheckerOrigin:
    from .. import __version__
    return CheckerOrigin(pack=BUILTIN_PACK, version=__version__)


def checker_origin(name: str) -> CheckerOrigin:
    """The :class:`CheckerOrigin` of a registered checker.

    Builtins report the ``builtin`` pseudo-pack at the engine version;
    unknown names raise ``KeyError`` like :func:`get_checker`.
    """
    origin = _ORIGINS.get(name)
    if origin is not None:
        return origin
    if name not in _REGISTRY:
        raise KeyError(name)
    return _builtin_origin()


def is_pack_checker(name: str) -> bool:
    """True when ``name`` was provided by a loaded pack (not builtin)."""
    return name in _ORIGINS


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


def checker_names() -> list[str]:
    return list(_REGISTRY)

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
