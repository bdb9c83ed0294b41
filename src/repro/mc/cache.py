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
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional

from ..lang.source import Location
from ..metal.runtime import Report, ReportSink
from ..obs.provenance import provenance_from_obj, provenance_to_obj
from .registry import _ORIGINS, _REGISTRY, CheckerResult
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


#: The ``repro`` package directory: fingerprints hash its files by
#: path, so computing a key imports nothing.
_REPRO_DIR = Path(__file__).resolve().parent.parent
_CHECKERS_DIR = _REPRO_DIR / "checkers"


def _file_digest(path: Path) -> str:
    try:
        return _sha256(path.read_bytes())
    except OSError:
        return f"<no-source:{path.name}>"


def _dir_digests(*dirs: Path) -> list[str]:
    """Digest of every ``*.py`` directly inside each directory, in path
    order: a fingerprint built from these notices a new module as well
    as an edited one."""
    return [_sha256(path.read_bytes())
            for root in dirs for path in sorted(root.glob("*.py"))]


def package_digests(*packages) -> list[str]:
    """:func:`_dir_digests` of imported packages' directories."""
    return _dir_digests(*(Path(inspect.getsourcefile(package)).parent
                          for package in packages))


_ENGINE_FILES_FP: Optional[str] = None


def engine_fingerprint() -> str:
    """Hash of every module whose behaviour feeds analysis results.

    Covers the frontend (lexer/parser/sema), CFG construction, the metal
    pattern matcher and state machines, the path-sensitive engine, and
    the built-in FLASH knowledge (headers, machine vocabulary, spec
    parsing).  ``repro.obs`` is included because the provenance trails
    it builds are part of the cached payloads.  Combined with
    ``repro.__version__`` on every call so a version bump invalidates
    even without a source change.
    """
    global _ENGINE_FILES_FP
    if _ENGINE_FILES_FP is None:
        digests = _dir_digests(*(_REPRO_DIR / name for name in
                                 ("lang", "cfg", "metal", "mc", "obs")))
        for rel in ("project.py", "flash/headers.py", "flash/machine.py",
                    "flash/spec.py"):
            digests.append(_file_digest(_REPRO_DIR / rel))
        _ENGINE_FILES_FP = _sha256(*(d.encode() for d in digests))
    import repro
    return _sha256(_ENGINE_FILES_FP.encode(), repro.__version__.encode())


class BuiltinChecker(NamedTuple):
    """One row of :data:`BUILTIN_CHECKERS`."""

    name: str
    #: How the fleet schedules it (:func:`repro.mc.registry.checker_shape`).
    shape: str
    #: Its module file under ``repro/checkers``.
    module: str


#: Every builtin checker, in registration order, for runs that never
#: import :mod:`repro.checkers` (every item a cache hit).
#: ``tests/test_checker_table.py`` pins it to the registry.
BUILTIN_CHECKERS = (
    BuiltinChecker("buffer-race", "unit", "buffer_race.py"),
    BuiltinChecker("msg-length", "unit", "msg_length.py"),
    BuiltinChecker("buffer-mgmt", "unit", "buffer_mgmt.py"),
    BuiltinChecker("lanes", "link", "lanes.py"),
    BuiltinChecker("exec-restrict", "link", "exec_restrict.py"),
    BuiltinChecker("no-float", "unit", "exec_restrict.py"),
    BuiltinChecker("alloc-fail", "unit", "alloc_fail.py"),
    BuiltinChecker("directory", "unit", "directory.py"),
    BuiltinChecker("send-wait", "unit", "send_wait.py"),
    BuiltinChecker("table-audit", "unit", "table_audit.py"),
)
_BUILTIN_BY_NAME = {row.name: row for row in BUILTIN_CHECKERS}


def builtin_checker(name: str) -> Optional[BuiltinChecker]:
    """The :data:`BUILTIN_CHECKERS` row named ``name``, or ``None``."""
    return _BUILTIN_BY_NAME.get(name)


_CHECKER_FP: dict[str, Optional[str]] = {}


def _checker_source(name: str) -> Optional[Path]:
    """The file a registered checker's class is defined in: through the
    class once the registry holds it, else from the builtin table."""
    cls = _REGISTRY.get(name)
    if cls is None:
        row = None if _REGISTRY else builtin_checker(name)
        return _CHECKERS_DIR / row.module if row is not None else None
    try:
        path = inspect.getsourcefile(cls)
    except (OSError, TypeError):
        # No source on disk (python -c, REPL): uncacheable.
        return None
    return Path(path) if path else None


def checker_fingerprint(name: str) -> Optional[str]:
    """Hash of one registered checker's implementation, or ``None``.

    ``None`` marks the checker *uncacheable* — its source cannot be
    located (e.g. defined in a ``python -c`` script or a REPL), so there
    is no way to notice when it changes.  The framework (``base.py``)
    and the shared metal listings are folded in: they are part of every
    checker's behaviour.  A builtin hashes the same file whether it is
    found through its class or through :data:`BUILTIN_CHECKERS`, so the
    key does not depend on what the process has imported.
    """
    if name in _CHECKER_FP:
        return _CHECKER_FP[name]
    fp: Optional[str] = None
    origin = _ORIGINS.get(name)
    if origin is not None:
        # Pack checkers key on the pack's identity (name@version) plus
        # the implementation file the manifest named — not on the class
        # object, which for metal packs is synthesized inside the
        # loader.  Bumping the pack's version (or editing its source)
        # therefore invalidates exactly that pack's entries; builtin
        # keys are untouched, keeping no-pack and with-pack runs on the
        # same cache lines.
        source = Path(origin.source) if origin.source else None
        if name in _REGISTRY and source is not None and source.exists():
            fp = _sha256(
                name.encode(),
                origin.label.encode(),
                source.read_bytes(),
                _file_digest(_CHECKERS_DIR / "base.py").encode(),
            )
    else:
        path = _checker_source(name)
        if path is not None and path.exists():
            fp = _sha256(
                name.encode(),
                path.read_bytes(),
                _file_digest(_CHECKERS_DIR / "base.py").encode(),
                _file_digest(_CHECKERS_DIR / "metal_sources.py").encode(),
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


def result_to_payload(result: CheckerResult) -> dict:
    """Serialise a :class:`repro.mc.registry.CheckerResult` to JSON-able
    data; a two-pass checker's unit part also carries its ``facts``."""
    payload = {
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
    if getattr(result, "facts", None) is not None:
        payload["facts"] = result.facts
    return payload


def result_from_payload(payload: dict) -> CheckerResult:
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
    result.facts = payload.get("facts")
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


def clear_function_summaries() -> None:
    """No-op, kept importable for the benchmark harness, which calls it
    between in-process invocations.  The in-process function-summary
    store it used to empty is gone: it was keyed on machine objects,
    and every run builds fresh machines, so it never answered a lookup.
    """


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
