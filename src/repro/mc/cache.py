"""Persistent content-hash result cache for the checker fleet.

A checker's output over a translation unit is a pure function of three
things: the unit's source text, the checker's own implementation, and
the analysis engine under both.  The cache therefore keys every entry
on ``sha256(engine fingerprint + checker fingerprint + protocol-spec
text + the unit's (filename, content-hash) pairs)`` — unchanged files
are skipped entirely on re-runs, and editing a file, bumping a
checker's source, or upgrading the engine invalidates exactly the
affected entries, with no mtime heuristics to go wrong.

Entries store the *serialised* result payload (the same JSON shape the
parallel workers ship back over the queue, :func:`result_to_payload`),
including quarantine records and degradation notes.  Results that are
degraded or quarantined are never stored: they depend on the run's
budget and luck, not just on content, so replaying them would poison
later unbudgeted runs.  It is the only payload store: a run journal
lists keys into it.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import tempfile
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from ..lang.source import Location
from ..metal.runtime import Report, ReportSink
from ..obs.provenance import provenance_from_obj, provenance_to_obj
from .resilience import Quarantine

#: Bump when the payload shape changes; stale-schema entries are misses.
#: v2 added per-report path provenance to result/sink payloads.
#: v3: feasibility pruning changed provenance steps (fact/pruned) and
#: keys fold in the analysis configuration (``config_fp``).
#: v4: tolerant frontend — payloads gained ``suppressed`` reports, and
#: ``config_fp`` carries ``frontend=`` plus this schema version so
#: switching ``--frontend`` can never replay the other mode's entries.
#: v5: summary engine — ``config_fp`` carries ``engine=paths|summary``
#: so switching ``--engine`` can never replay the other mode's entries,
#: and the run journal header records the run's configuration.
#: v6: one engine — ``config_fp`` drops ``engine=``.
#: v7: one store — the run journal lists keys, payloads live only here,
#: and :func:`work_item_key` folds this version in once for every key.
SCHEMA_VERSION = 7


# -- fingerprints ------------------------------------------------------------

def _sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
        h.update(b"\x00")
    return h.hexdigest()


def _module_digest(module) -> str:
    try:
        path = inspect.getsourcefile(module)
    except TypeError:
        path = None
    if not path or not os.path.exists(path):
        return f"<no-source:{getattr(module, '__name__', module)!r}>"
    return _sha256(Path(path).read_bytes())


_ENGINE_FILES_FP: Optional[str] = None


def engine_fingerprint() -> str:
    """Hash of every module whose behaviour feeds analysis results.

    Covers the frontend (lexer/parser/sema), CFG construction, the metal
    pattern matcher and state machines, the path-sensitive engine, and
    the built-in FLASH knowledge (headers, machine vocabulary, spec
    parsing).  Combined with ``repro.__version__`` on every call so a
    version bump invalidates even without a source change.
    """
    global _ENGINE_FILES_FP
    if _ENGINE_FILES_FP is None:
        import repro.cfg
        import repro.lang
        import repro.metal
        import repro.mc
        import repro.obs
        import repro.project
        from repro.flash import headers, machine, spec

        # repro.obs is included because provenance trails it builds are
        # part of the cached payloads.
        digests = []
        for package in (repro.lang, repro.cfg, repro.metal, repro.mc,
                        repro.obs):
            root = Path(inspect.getsourcefile(package)).parent
            for path in sorted(root.glob("*.py")):
                digests.append(_sha256(path.read_bytes()))
        for module in (repro.project, headers, machine, spec):
            digests.append(_module_digest(module))
        _ENGINE_FILES_FP = _sha256(*(d.encode() for d in digests))
    import repro
    return _sha256(_ENGINE_FILES_FP.encode(), repro.__version__.encode())


_CHECKER_FP: dict[str, Optional[str]] = {}


def checker_fingerprint(name: str) -> Optional[str]:
    """Hash of one registered checker's implementation, or ``None``.

    ``None`` marks the checker *uncacheable* — its source cannot be
    located (e.g. defined in a ``python -c`` script or a REPL), so there
    is no way to notice when it changes.  The framework (``base.py``)
    and the shared metal listings are folded in: they are part of every
    checker's behaviour.
    """
    if name in _CHECKER_FP:
        return _CHECKER_FP[name]
    from ..checkers import base as checkers_base
    from ..checkers import metal_sources
    from ..checkers.base import _ORIGINS, _REGISTRY

    cls = _REGISTRY.get(name)
    fp: Optional[str] = None
    origin = _ORIGINS.get(name)
    if cls is not None and origin is not None:
        # Pack checkers key on the pack's identity (name@version) plus
        # the implementation file the manifest named — not on the class
        # object, which for metal packs is synthesized inside the
        # loader.  Bumping the pack's version (or editing its source)
        # therefore invalidates exactly that pack's entries; builtin
        # keys are untouched, keeping no-pack and with-pack runs on the
        # same cache lines.
        source = Path(origin.source) if origin.source else None
        if source is not None and source.exists():
            fp = _sha256(
                name.encode(),
                origin.label.encode(),
                source.read_bytes(),
                _module_digest(checkers_base).encode(),
            )
        _CHECKER_FP[name] = fp
        return fp
    if cls is not None:
        try:
            path = inspect.getsourcefile(cls)
        except (OSError, TypeError):
            # No source on disk (python -c, REPL): uncacheable.
            path = None
        if path and os.path.exists(path):
            fp = _sha256(
                name.encode(),
                Path(path).read_bytes(),
                _module_digest(checkers_base).encode(),
                _module_digest(metal_sources).encode(),
            )
    _CHECKER_FP[name] = fp
    return fp


def metal_fingerprint(text: str) -> str:
    """Fingerprint for a textual metal checker: its program text."""
    return _sha256(b"metal", text.encode("utf-8"))


def clear_fingerprint_memo() -> None:
    """Tests: recompute fingerprints after monkeypatching sources."""
    global _ENGINE_FILES_FP
    _ENGINE_FILES_FP = None
    _CHECKER_FP.clear()


# -- payload (de)serialisation ----------------------------------------------

def _location_to_obj(loc: Location) -> list:
    return [loc.filename, loc.line, loc.column]


def _location_from_obj(obj) -> Location:
    return Location(obj[0], int(obj[1]), int(obj[2]))


def report_to_obj(report: Report) -> dict:
    return {
        "checker": report.checker,
        "message": report.message,
        "location": _location_to_obj(report.location),
        "function": report.function,
        "severity": report.severity,
        "backtrace": list(report.backtrace),
    }


def report_from_obj(obj: dict) -> Report:
    return Report(
        checker=obj["checker"],
        message=obj["message"],
        location=_location_from_obj(obj["location"]),
        function=obj.get("function", ""),
        severity=obj.get("severity", "error"),
        backtrace=tuple(obj.get("backtrace", ())),
    )


def quarantine_to_obj(q: Quarantine) -> dict:
    return {
        "checker": q.checker, "function": q.function, "phase": q.phase,
        "error_type": q.error_type, "message": q.message,
    }


def quarantine_from_obj(obj: dict) -> Quarantine:
    return Quarantine(
        checker=obj["checker"], function=obj["function"], phase=obj["phase"],
        error_type=obj["error_type"], message=obj["message"],
    )


def result_to_payload(result) -> dict:
    """Serialise a :class:`repro.checkers.base.CheckerResult` to JSON-able data."""
    return {
        "schema": SCHEMA_VERSION,
        "checker": result.checker,
        "reports": [report_to_obj(r) for r in result.reports],
        "applied": result.applied,
        "annotations": [_location_to_obj(l) for l in result.annotations],
        "extra": dict(result.extra),
        "quarantines": [quarantine_to_obj(q) for q in result.quarantines],
        "degraded": bool(result.degraded),
        "degradation_notes": list(result.degradation_notes),
        "provenance": provenance_to_obj(result.provenance),
        "suppressed": [[report_to_obj(r), why]
                       for r, why in getattr(result, "suppressed", [])],
    }


def result_from_payload(payload: dict):
    from ..checkers.base import CheckerResult

    result = CheckerResult(checker=payload["checker"])
    result.reports = [report_from_obj(o) for o in payload["reports"]]
    result.applied = payload["applied"]
    result.annotations = [_location_from_obj(o) for o in payload["annotations"]]
    result.extra = dict(payload["extra"])
    result.quarantines = [quarantine_from_obj(o) for o in payload["quarantines"]]
    result.degraded = payload["degraded"]
    result.degradation_notes = list(payload["degradation_notes"])
    result.provenance = provenance_from_obj(payload.get("provenance", []))
    result.suppressed = [(report_from_obj(o), why)
                         for o, why in payload.get("suppressed", [])]
    return result


def sink_to_payload(sink: ReportSink) -> dict:
    """Serialise a metal run's :class:`ReportSink` (quarantines and
    degradation notes survive the worker round-trip)."""
    return {
        "schema": SCHEMA_VERSION,
        "reports": [report_to_obj(r) for r in sink.reports],
        "quarantines": [quarantine_to_obj(q) for q in sink.quarantines],
        "degraded": bool(sink.degraded),
        "degradation_notes": list(sink.degradation_notes),
        "provenance": provenance_to_obj(sink.provenance),
        "suppressed": [[report_to_obj(r), why]
                       for r, why in getattr(sink, "suppressed", [])],
    }


def sink_from_payload(payload: dict) -> ReportSink:
    sink = ReportSink()
    for obj in payload["reports"]:
        sink.add(report_from_obj(obj))
    for obj in payload["quarantines"]:
        sink.add_quarantine(quarantine_from_obj(obj))
    # add_quarantine sets degraded; restore the recorded flag exactly.
    sink.degraded = payload["degraded"]
    sink.degradation_notes = list(payload["degradation_notes"])
    prov = provenance_from_obj(payload.get("provenance", []))
    for obj, why in payload.get("suppressed", []):
        report = report_from_obj(obj)
        key = (report.checker, report.message, report.location)
        sink._suppressed_seen.add(key)
        sink.suppressed.append((report, why))
    sink.provenance = prov
    return sink


def _config_fp(feasibility: bool, frontend: str) -> str:
    """The analysis settings every check and metal key folds in."""
    return (f"feasibility={'on' if feasibility else 'off'},"
            f"frontend={frontend}")


def work_item_key(*, checker_fp: str, units: list[tuple[str, str]],
                  spec_fp: str = "", engine_fp: Optional[str] = None,
                  config_fp: str = "") -> str:
    """Content-hash key for one check, metal or campaign work item.

    ``units`` is a list of ``(filename, content-hash)`` pairs, ``spec_fp``
    the protocol or campaign spec, and ``config_fp`` the settings that
    change results (:func:`_config_fp`, or a shard index).  The payload
    ``SCHEMA_VERSION`` is folded in here and nowhere else.
    """
    engine = engine_fp if engine_fp is not None else engine_fingerprint()
    chunks = [f"schema={SCHEMA_VERSION}".encode(), engine.encode(),
              checker_fp.encode(), spec_fp.encode(), config_fp.encode()]
    for filename, digest in units:
        chunks.append(filename.encode())
        chunks.append(digest.encode())
    return _sha256(*chunks)


# -- in-memory function summaries (the summary engine's third leg) -----------

# The engine fingerprints each function once per store lookup, and a
# corpus pass runs one lookup per checker — six identical sha256 walks
# without a memo.  AST nodes are unhashable by design, so the memo is
# stashed on the node itself (the same idiom feasibility uses for
# ``cfg._feasibility``).  This is safe *after* annotation because
# nothing else mutates an analyzed AST; in-place mutators must call
# :func:`invalidate_fingerprint` (sema runs before any fingerprint can
# exist — Programs annotate at load — and the transform pass
# invalidates explicitly).
_FINGERPRINT_ATTR = "_mc_fingerprint"
#: Set by :func:`invalidate_fingerprint`: the node was mutated in place,
#: so a *source-derived* fingerprint no longer describes it.  Only the
#: AST-walk fingerprint may be memoized from then on.
_FINGERPRINT_DIRTY_ATTR = "_mc_fingerprint_dirty"


def invalidate_fingerprint(function) -> None:
    """Drop ``function``'s memoized fingerprint after an in-place AST
    mutation (see :class:`repro.mc.transform.RedundantWaitEliminator`)."""
    try:
        delattr(function, _FINGERPRINT_ATTR)
    except AttributeError:
        pass
    try:
        setattr(function, _FINGERPRINT_DIRTY_ATTR, True)
    except (AttributeError, TypeError):
        pass


def seed_fingerprints(unit, filename: str, text: str, *,
                      context: str = "") -> None:
    """Stash source-derived fingerprints on every function of a parsed
    unit, replacing the per-function AST walk with one hash of the unit.

    A function's analyzed form is fully determined by the unit's source
    text, its filename (part of report locations), the sema context
    (``context`` — the prelude text, which folds in typedefs and struct
    layouts the same way ``ctype`` payloads did), and the function's
    name and position inside the unit.  Any edit anywhere in the unit
    therefore invalidates every summary of the unit — coarser than the
    AST-walk fingerprint, never stale.

    Functions flagged by :func:`invalidate_fingerprint` (mutated in
    place after parsing, e.g. by the transform pass) are skipped: their
    source text no longer describes them, so they keep using the
    AST-walk fingerprint.  Programs sharing memoized unit ASTs re-seed
    the same value, which is idempotent.
    """
    unit_fp = _sha256(filename.encode(), text.encode(), context.encode())
    for function in unit.functions():
        if getattr(function, _FINGERPRINT_DIRTY_ATTR, False):
            continue
        if getattr(function, _FINGERPRINT_ATTR, None) is not None:
            continue
        loc = function.location
        fp = hashlib.sha256(
            f"{unit_fp}\x00{function.name}\x00{loc.line}\x00{loc.column}"
            .encode()).hexdigest()
        try:
            setattr(function, _FINGERPRINT_ATTR, fp)
        except (AttributeError, TypeError):
            pass


#: The node payload attributes the fingerprint covers.
_PAYLOAD_NAMES = ("name", "op", "value", "text", "arrow",
                  "specifiers", "pointer_depth")

#: node class -> the subset of ``_PAYLOAD_NAMES`` the class can carry
#: (dataclass fields or properties).  Looked up per class instead of
#: probing all seven names on every node.
_PAYLOAD_ATTRS: dict = {}


def _payload_attrs(cls) -> tuple:
    attrs = _PAYLOAD_ATTRS.get(cls)
    if attrs is None:
        fields_ = getattr(cls, "__dataclass_fields__", {})
        attrs = tuple(a for a in _PAYLOAD_NAMES
                      if a in fields_ or hasattr(cls, a))
        _PAYLOAD_ATTRS[cls] = attrs
    return attrs


def function_fingerprint(function) -> str:
    """Content hash of one function's *analyzed* form.

    Covers everything the engine's behaviour over the function can
    depend on: the node kinds and their structural order (pre-order
    walk), identifier/operator/literal/member payloads, declaration type
    spellings, resolved semantic types (``ctype`` — these fold in
    whole-unit context like typedefs and struct layouts, so an edit
    elsewhere in the file that retypes an expression changes the
    fingerprint even when the function's own text did not), and absolute
    source locations including the filename — report locations and
    provenance lines are part of a summary, so replay must be
    position-exact by construction, never rebased.

    Memoized on the node object itself; mutate-in-place callers
    invalidate via :func:`invalidate_fingerprint`.
    """
    cached = getattr(function, _FINGERPRINT_ATTR, None)
    if cached is not None:
        return cached
    # Hot: one full-AST pass per function per process.  The payload is
    # accumulated as one list and hashed in a single update — per-node
    # hashlib calls and f-strings are what made the naive version slow.
    parts = [function.location.filename]
    append = parts.append
    for node in function.walk():
        cls = type(node)
        loc = node.location
        append(f"|{cls.__name__}:{loc.line}:{loc.column}")
        for attr in _payload_attrs(cls):
            value = getattr(node, attr, None)
            if value is not None and not hasattr(value, "walk"):
                append(f";{attr}={value!r}")
        ctype = getattr(node, "ctype", None)
        if ctype is not None:
            append(f";t={ctype!r}")
    fp = hashlib.sha256("\x00".join(parts).encode()).hexdigest()
    try:
        setattr(function, _FINGERPRINT_ATTR, fp)
    except (AttributeError, TypeError):  # slotted stand-in (tests)
        pass
    return fp


@dataclass(frozen=True)
class FunctionSummary:
    """One completed (machine, function) analysis: entry state to exit
    states, plus everything the walk emitted.  Shaped like the slice of
    a :class:`ReportSink` one ``run_machine`` call produces, so
    :func:`repro.mc.summary.merge_into` can replay it verbatim."""

    entry_state: str
    exit_states: tuple
    reports: tuple
    suppressed: tuple
    #: Per-report provenance trails for exactly the keys above.
    provenance: dict = field(default_factory=dict)
    # A stored summary is always from a clean, unbudgeted run.
    quarantines: tuple = ()
    degraded: bool = False
    degradation_notes: tuple = ()


class FunctionSummaryStore:
    """In-process store of :class:`FunctionSummary` records.

    Keyed on the machine *object* (weakly — machines built per checker
    run die with it) times :func:`function_fingerprint` times the
    analysis configuration.  Object identity, not a source fingerprint,
    scopes a machine's entries: Python-API machines close over protocol
    spec tables, so two textually identical machines can behave
    differently — identity is the only safe equivalence.  Entries are
    LRU-bounded per machine; a hit replays reports, suppressions, and
    provenance byte-identically (same content hash, same engine
    semantics version, same filename and absolute positions).
    """

    def __init__(self, capacity: int = 4096):
        self._by_machine: "weakref.WeakKeyDictionary" = (
            weakref.WeakKeyDictionary())
        self.capacity = capacity
        self.hits = 0
        self.misses = 0

    def key(self, cfg, *, entry_state: str, feasibility: bool) -> tuple:
        from .summary import ENGINE_SUMMARY_VERSION
        return (function_fingerprint(cfg.function), entry_state,
                bool(feasibility), ENGINE_SUMMARY_VERSION)

    def get(self, sm, key: tuple) -> Optional[FunctionSummary]:
        try:
            entries = self._by_machine.get(sm)
        except TypeError:
            return None
        if entries is None:
            self.misses += 1
            return None
        summary = entries.get(key)
        if summary is None:
            self.misses += 1
            return None
        entries.move_to_end(key)
        self.hits += 1
        return summary

    def put(self, sm, key: tuple, summary: FunctionSummary) -> None:
        try:
            entries = self._by_machine.get(sm)
            if entries is None:
                entries = self._by_machine[sm] = OrderedDict()
        except TypeError:
            return  # an un-weakref-able machine is simply not cached
        entries[key] = summary
        entries.move_to_end(key)
        while len(entries) > self.capacity:
            entries.popitem(last=False)

    def clear(self) -> None:
        self._by_machine = weakref.WeakKeyDictionary()
        self.hits = 0
        self.misses = 0


_FUNCTION_SUMMARIES = FunctionSummaryStore()


def function_summaries() -> FunctionSummaryStore:
    """The process-wide function-summary store."""
    return _FUNCTION_SUMMARIES


def clear_function_summaries() -> None:
    """Tests and benchmarks: drop every cached function summary."""
    _FUNCTION_SUMMARIES.clear()


class AnalysisMemo:
    """A small bounded LRU memo for pure interprocedural summaries.

    :func:`repro.mc.interproc.bottom_up` callers use one to skip
    re-summarizing callees whose inputs have not changed (the lanes
    checker keys on flowgraph content plus callee summaries).  Hits and
    misses feed the ``engine.summary_hits``/``engine.summary_misses``
    counters alongside the function-summary store's.
    """

    def __init__(self, capacity: int = 4096):
        self._entries: OrderedDict = OrderedDict()
        self.capacity = capacity
        self.hits = 0
        self.misses = 0

    _MISSING = object()

    def get(self, key):
        value = self._entries.get(key, self._MISSING)
        if value is self._MISSING:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key, value) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0


# -- the on-disk store -------------------------------------------------------

@dataclass
class CacheStats:
    """Hit/miss accounting for one run, shown in the CLI summary line."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Entries that existed on disk but would not parse or decode
    #: (truncated by a crash or power loss mid-write on a non-atomic
    #: filesystem, bit rot, manual tampering).  Each one is also a miss
    #: — the item is recomputed — and the bad file is deleted so it
    #: cannot keep tripping every future run.
    corrupt: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def line(self) -> str:
        line = f"cache: {self.hits} hit(s), {self.misses} miss(es)"
        if self.corrupt:
            line += f", {self.corrupt} corrupt"
        return line


def default_cache_dir() -> Path:
    """``$MC_CHECK_CACHE_DIR``, else ``~/.cache/mc-check``."""
    env = os.environ.get("MC_CHECK_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "mc-check"


class ResultCache:
    """Content-addressed store of serialised work-item results.

    Layout: ``<root>/<key[:2]>/<key>.json`` — two-level fanout keeps
    directories small at fleet scale.  Writes are atomic (temp file +
    rename) so concurrent runs sharing a cache directory can only ever
    observe whole entries.
    """

    def __init__(self, root: Path):
        self.root = Path(root)
        self.stats = CacheStats()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str, decode):
        """The entry under ``key`` decoded by ``decode`` (e.g.
        :func:`result_from_payload`), or ``None`` on a miss.  An entry
        that does not parse or decode is corrupt: deleted and counted.
        """
        path = self._path(key)
        try:
            data = path.read_bytes()
        except OSError:
            self.stats.misses += 1
            return None
        try:
            payload = json.loads(data)
            stale = payload.get("schema") != SCHEMA_VERSION
            value = None if stale else decode(payload)
        except (ValueError, LookupError, TypeError, AttributeError):
            # A half-written file from a crash on a non-atomic
            # filesystem, bit rot, tampering: delete it so it cannot
            # keep biting.
            self.stats.misses += 1
            self.stats.corrupt += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        if stale:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return value

    def put(self, key: str, payload: dict) -> bool:
        """Store a complete payload under ``key``; ``True`` once stored."""
        if payload.get("degraded") or payload.get("quarantines"):
            return False  # budget or crash luck, not content
        if "obs" in payload:
            # Timings and counters are run observations, not content —
            # storing them would make cache entries non-reproducible.
            payload = {k: v for k, v in payload.items() if k != "obs"}
        path = self._path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as fh:
                    json.dump(payload, fh, separators=(",", ":"))
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            return False  # a read-only or full cache never fails the run
        self.stats.stores += 1
        return True
