"""The checker registry's data, importable without importing a checker.

What a checker returns (:class:`CheckerResult`), where a registered
checker came from (:class:`CheckerOrigin`), the registry itself, and
the lookups the fleet makes before it runs anything.
:mod:`repro.checkers.base` re-exports all of it and adds the checker
classes and the registration functions.

Importing :mod:`repro.checkers` registers every builtin; until then
the registry is empty, and the lookups answer for the builtins from
:data:`repro.mc.cache.BUILTIN_CHECKERS`.  So a run whose every item is
a cache hit never imports a checker.  Once anything is registered
(the checkers imported, a pack loaded), the registry is authoritative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Type

from ..lang.source import Location
from ..metal.runtime import Report


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


#: Checker name -> class, in registration order.
_REGISTRY: dict[str, Type] = {}

#: Checker name -> origin, for pack-provided checkers.  Builtins are
#: not stored: :func:`checker_origin` synthesizes their origin so the
#: builtin registry needs no load-time bookkeeping.
_ORIGINS: dict[str, CheckerOrigin] = {}


def checker_names() -> list[str]:
    """Every checker a run can select, in registration order."""
    if _REGISTRY:
        return list(_REGISTRY)
    from .cache import BUILTIN_CHECKERS
    return [row.name for row in BUILTIN_CHECKERS]


def _unknown(name: str) -> KeyError:
    return KeyError(f"unknown checker {name!r}; known: "
                    f"{', '.join(checker_names())}")


def checker_shape(name: str) -> str:
    """How the fleet schedules a checker: ``"unit"`` (one item per
    translation unit), ``"link"`` (a :class:`TwoPassChecker`: local
    parts per unit, linked in the parent) or ``"program"`` (one
    whole-program item)."""
    if not _REGISTRY:
        from .cache import builtin_checker
        row = builtin_checker(name)
        if row is None:
            raise _unknown(name)
        return row.shape
    cls = _REGISTRY.get(name)
    if cls is None:
        raise _unknown(name)
    from ..checkers.base import TwoPassChecker
    checker = cls()
    if isinstance(checker, TwoPassChecker):
        return "link"
    return "unit" if checker.unit_parallel else "program"


def checker_origin(name: str) -> CheckerOrigin:
    """The :class:`CheckerOrigin` of a registered checker.

    Builtins report the ``builtin`` pseudo-pack at the engine version;
    unknown names raise ``KeyError`` like :func:`get_checker`.
    """
    origin = _ORIGINS.get(name)
    if origin is not None:
        return origin
    if name not in checker_names():
        raise KeyError(name)
    from .. import __version__
    return CheckerOrigin(pack=BUILTIN_PACK, version=__version__)


def is_pack_checker(name: str) -> bool:
    """True when ``name`` was provided by a loaded pack (not builtin)."""
    return name in _ORIGINS
