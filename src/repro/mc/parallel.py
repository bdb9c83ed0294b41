"""Parallel checker fleet: fan (checker, translation-unit) work across cores.

The paper's xg++ applies every checker down every path of every
function — embarrassingly parallel work this module schedules as
(checker, unit) **work items** over a :class:`multiprocessing` pool:

* per-function checkers (``Checker.unit_parallel``) get one item per
  translation unit;
* two-pass checkers (``TwoPassChecker``: lanes, exec-restrict) get a
  *link item* keyed like a whole-program item.  On a store miss it
  expands into one ``local`` item per unit, each stored under its own
  key, and the parent links their parts in unit order and stores the
  result, so an edit re-runs the local pass over the edited unit only;
  a hit never expands.  Other inter-procedural checkers run as a
  single whole-program item;
* items are scheduled **largest first** (by source size) so the long
  poles start early and tail latency stays low;
* the queue carries *paths and checker names*, never pickled ASTs —
  each worker parses and annotates units locally, once per process,
  through the content-hash memo of :mod:`repro.lang.memo`;
* workers ship back serialised result payloads
  (:func:`repro.mc.cache.result_to_payload`) — quarantine records and
  degradation notes survive the round-trip — and the parent merges
  them into one deterministic report, sorted by
  ``(file, line, column, checker)`` so ``--jobs 4`` output is
  byte-identical to ``--jobs 1``;
* a :class:`repro.mc.cache.ResultCache` short-circuits items whose
  key (content hash × checker fingerprint × engine fingerprint) was
  seen before, or that a resumed run journal lists, so unchanged files
  are skipped entirely on re-runs;
* a wall-clock budget is one run-wide absolute deadline shared by all
  workers (items starting after it report themselves skipped and
  degraded), not a fresh ``max_seconds`` per process.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from ..errors import SourceError, SourceReadError
from ..lang.source import read_sources, source_fingerprint
from ..metal.runtime import Report, ReportSink
from .cache import (
    SCHEMA_VERSION,
    CacheStats,
    ResultCache,
    _config_fp,
    checker_fingerprint,
    engine_fingerprint,
    metal_fingerprint,
    quarantine_to_obj,
    result_from_payload,
    result_to_payload,
    sink_from_payload,
    sink_to_payload,
    work_item_key,
)
from .registry import (
    CheckerResult,
    checker_names,
    checker_shape,
    is_pack_checker,
)
from .resilience import Budget, Quarantine
from .supervisor import RunJournal, RunStats, SupervisorPolicy

if TYPE_CHECKING:
    from ..faults.plan import FaultPlan


def resolve_jobs(value) -> int:
    """``N`` | ``"auto"`` | ``None`` → a concrete worker count (≥ 1)."""
    if value is None:
        return 1
    if isinstance(value, int):
        return max(1, value)
    text = str(value).strip().lower()
    if text in ("", "1"):
        return 1
    if text == "auto":
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except AttributeError:  # pragma: no cover - non-linux
            return max(1, os.cpu_count() or 1)
    return max(1, int(text))


@dataclass(frozen=True)
class WorkItem:
    """One (checker, unit-set) unit of schedulable work."""

    kind: str                 # "checker" (registered) | "metal" (textual)
                              # | "campaign" (simulation shard)
                              # | "local" (a two-pass checker's unit part)
                              # | "link" (its linked result, parent-side)
    checker: str              # registered checker name; "" for metal/campaign
    paths: tuple              # one unit, or every unit for global items
    weight: int               # source bytes — schedule largest first
                              # (campaign: runs in the shard)
    index: int                # deterministic merge position
                              # (campaign: the shard index)


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker needs, shipped once at pool start."""

    spec_text: Optional[str] = None
    spec_name: str = "<spec>"
    keep_going: bool = False
    #: Absolute ``time.time()`` deadline shared by the whole run.
    deadline: Optional[float] = None
    #: Per-item step cap (metal items; run-wide when serial).
    budget_steps: Optional[int] = None
    metal_text: Optional[str] = None
    metal_name: str = "<metal>"
    #: Worker-site fault rules (``worker_crash``/``worker_hang``/...)
    #: armed only inside supervised worker processes, never inline.
    fault_plan: Optional[FaultPlan] = None
    #: Directory each worker appends its trace spans into
    #: (``--trace``); ``None`` disables span tracing entirely.
    trace_dir: Optional[str] = None
    #: Collect per-item metrics into the payload's ``obs`` section
    #: (``--trace``/``--metrics-out``); stripped before it is stored.
    collect_obs: bool = False
    #: Directory supervised workers append heartbeat events into
    #: (``--progress``); ``None`` disables heartbeats.  Like the trace
    #: dir, writes are best-effort and never fail the analysis.
    heartbeat_dir: Optional[str] = None
    #: Infeasible-path pruning (``--feasibility``, repro.mc.feasibility).
    #: Shipped in the config so every execution mode — inline, pooled,
    #: supervised — runs the engine with the same setting.
    feasibility: bool = True
    #: Frontend mode (``--frontend strict|tolerant``): strict parses
    #: raise on the first unsupported construct; tolerant parses recover
    #: (repro.lang.parser) and unrecoverable regions become per-function
    #: ``Quarantine(phase="input")`` entries instead of run failures.
    frontend: str = "strict"
    #: Canonical :class:`repro.campaign.plans.CampaignSpec` JSON for
    #: campaign items (``mc-check campaign``); ``None`` otherwise.
    campaign_spec: Optional[str] = None
    #: Checker-pack directories (``--pack-dir``, repro.packs), resolved
    #: by the parent and re-loaded at worker init so spawned/supervised
    #: workers carry the same registry as the parent.  Loading is
    #: idempotent, and the parent always loads first, so workers can
    #: only re-validate an already-accepted pack.
    pack_dirs: tuple = ()


# -- worker side -------------------------------------------------------------

_CONFIG: Optional[WorkerConfig] = None
_SPEC_MEMO: dict[str, object] = {}
_SM_MEMO: dict[str, object] = {}

#: Worker-level fault injection state.  Armed by the supervisor's
#: worker entry point only, so inline/serial execution (where a
#: ``worker_crash`` would take down the *parent*) never injects.
_WORKER_FAULTS = None
_WORKER_ATTEMPT = 0


def _init_worker(config: WorkerConfig) -> None:
    global _CONFIG
    _CONFIG = config
    # The engine reads the process-wide feasibility default; set it here
    # so the flag reaches inline runs, pool workers, and supervised
    # workers alike (the supervisor's _worker_main calls _init_worker
    # too).  The frontend mode travels the same way: every parse in the
    # worker — including the memoized ones — honours ``--frontend``.
    from ..lang import parser
    from . import feasibility
    feasibility.set_default_enabled(config.feasibility)
    parser.set_default_mode(config.frontend)
    if config.pack_dirs:
        from ..packs import load_packs
        load_packs(Path(d) for d in config.pack_dirs)


def _arm_worker_faults(config: WorkerConfig) -> None:
    """Called in supervised worker processes to enable worker faults."""
    global _WORKER_FAULTS
    if config.fault_plan is not None:
        from ..faults.worker import WorkerFaultInjector
        _WORKER_FAULTS = WorkerFaultInjector(config.fault_plan)


def _maybe_worker_fault(item: "WorkItem") -> None:
    if _WORKER_FAULTS is not None:
        _WORKER_FAULTS.perturb(item.index, _WORKER_ATTEMPT,
                               checker=item.checker)


def _spec_info(config: WorkerConfig):
    if not config.spec_text:
        return None
    info = _SPEC_MEMO.get(config.spec_text)
    if info is None:
        from ..flash.spec import parse_spec
        info = parse_spec(config.spec_text, config.spec_name)
        _SPEC_MEMO[config.spec_text] = info
    return info


def _metal_machine(config: WorkerConfig):
    sm = _SM_MEMO.get(config.metal_text)
    if sm is None:
        from ..metal.parser import parse_metal
        sm = parse_metal(config.metal_text, filename=config.metal_name)
        _SM_MEMO[config.metal_text] = sm
    return sm


def _past_deadline(config: WorkerConfig) -> bool:
    return config.deadline is not None and time.time() >= config.deadline


def _item_label(item: WorkItem, config: WorkerConfig) -> str:
    if item.checker:
        return item.checker
    if item.kind == "campaign":
        return f"campaign-shard-{item.index}"
    return config.metal_name


def _skipped_payload(item: WorkItem, config: WorkerConfig,
                     note: str) -> dict:
    """A degraded, kind-aware payload for an item that never ran
    (deadline passed before dispatch, run interrupted)."""
    label = _item_label(item, config)
    where = ", ".join(item.paths)
    if item.kind == "metal":
        sink = ReportSink()
        sink.degraded = True
        sink.degradation_notes.append(f"[{label}] {where}: {note}")
        return sink_to_payload(sink)
    if item.kind == "campaign":
        # Degraded: never stored — the shard reruns on resume.
        return {"schema": SCHEMA_VERSION, "shard": item.index,
                "degraded": True, "outcomes": [],
                "degradation_notes": [f"[{label}] {note}"]}
    result = CheckerResult(checker=label, degraded=True)
    result.degradation_notes.append(f"[{label}] {where}: {note}")
    return result_to_payload(result)


def _quarantine_payload(item: WorkItem, config: WorkerConfig,
                        error_type: str, message: str,
                        phase: str = "worker") -> dict:
    """A kind-aware payload carrying a :class:`Quarantine` record —
    poisoned items (``phase="worker"``) and unreadable inputs
    (``phase="input"``) flow into the existing DEGRADED reporting."""
    label = _item_label(item, config)
    where = ", ".join(item.paths)
    quarantine = Quarantine(
        checker=label, function="*", phase=phase,
        error_type=error_type, message=f"{where}: {message}")
    if item.kind == "campaign":
        return {"schema": SCHEMA_VERSION, "shard": item.index,
                "degraded": True, "outcomes": [],
                "quarantines": [quarantine_to_obj(quarantine)],
                "degradation_notes": [f"[{label}] {where}: {message}"]}
    if item.kind == "metal":
        sink = ReportSink()
        sink.add_quarantine(quarantine)
        sink.degradation_notes.append(f"[{label}] {where}: {message}")
        return sink_to_payload(sink)
    result = CheckerResult(checker=label, degraded=True)
    result.quarantines.append(quarantine)
    result.degradation_notes.append(f"[{label}] {where}: {message}")
    return result_to_payload(result)


def _input_quarantines(label: str, units) -> list[Quarantine]:
    """Per-function ``phase="input"`` records for every region the
    tolerant frontend gave up on (``TranslationUnit.quarantined``).

    Each unrecoverable top-level region becomes its own record, named
    after the function the parser guessed it belonged to, so the
    fleet's dedup-on-(checker, function) keeps distinct broken regions
    distinct in the DEGRADED section."""
    records = []
    for unit in units:
        for func, message in getattr(unit, "quarantined", ()):
            records.append(Quarantine(
                checker=label, function=func, phase="input",
                error_type="ParseError", message=message))
    return records


def _guarded(name: str, config: WorkerConfig, run):
    """``run()``'s :class:`CheckerResult`; if it raises, a quarantined
    one when the checker is sandboxed, else the exception.

    Pack checkers are sandboxed unconditionally: third-party code
    raising becomes Quarantine(phase="pack") on that pack's result,
    never a crashed worker or a failed fleet.  Builtins keep the opt-in
    keep_going contract."""
    try:
        return run()
    except Exception as exc:
        from_pack = is_pack_checker(name)
        if not config.keep_going and not from_pack:
            raise
        result = CheckerResult(checker=name, degraded=True)
        result.quarantines.append(Quarantine(
            checker=name, function="*",
            phase="pack" if from_pack else "checker",
            error_type=type(exc).__name__, message=str(exc),
        ))
        return result


def _run_checker_item(item: WorkItem, config: WorkerConfig) -> dict:
    from ..checkers.base import get_checker
    from ..project import Program

    name = item.checker
    if _past_deadline(config):
        return _skipped_payload(item, config,
                                "not analysed — run deadline exceeded")
    _maybe_worker_fault(item)
    # A unit deleted between dispatch and execution must not kill the
    # worker: it becomes a per-item input quarantine.  In strict mode,
    # parse errors still propagate even under keep_going, exactly as
    # the serial driver treats them: keep-going covers crashing
    # *checkers*, not broken *inputs*.  In tolerant mode the parser is
    # designed never to raise — this net exists so a frontend bug
    # degrades to an input quarantine rather than a crashed run.
    try:
        files = read_sources(item.paths)
    except SourceReadError as exc:
        return _quarantine_payload(item, config, type(exc).__name__,
                                   str(exc), phase="input")
    try:
        program = Program(files, info=_spec_info(config), unit_memo=True)
    except SourceError as exc:
        if config.frontend != "tolerant":
            raise
        return _quarantine_payload(item, config, type(exc).__name__,
                                   str(exc), phase="input")
    checker = get_checker(name)
    run = checker.local if item.kind == "local" else checker.check
    result = _guarded(name, config, lambda: run(program))
    for quarantine in _input_quarantines(name, program.units.values()):
        result.quarantines.append(quarantine)
        result.degraded = True
        result.degradation_notes.append(
            f"[{name}] {quarantine.function}: unparseable region "
            f"quarantined — {quarantine.message}")
    return result_to_payload(result)


def _link_payload(item: WorkItem, config: WorkerConfig,
                  parts: list) -> dict:
    """The linked result of ``item``'s checker over its ``local``
    parts, carrying every part's quarantines and degradation notes in
    unit order.  A part without facts never completed (skipped,
    poisoned, crashed): then the result is degraded and has no reports,
    as a whole-program item that never ran would be."""
    from ..checkers.base import Parts, get_checker
    from ..project import ProtocolInfo

    name = item.checker
    if any(part.facts is None for part in parts):
        result = CheckerResult(checker=name, degraded=True)
    else:
        linked = Parts(parts, _spec_info(config) or ProtocolInfo())
        result = _guarded(name, config,
                          lambda: get_checker(name).check(linked))
    for part in parts:
        result.quarantines.extend(part.quarantines)
        result.degradation_notes.extend(part.degradation_notes)
        result.degraded = result.degraded or part.degraded
    return result_to_payload(result)


def _item_budget(config: WorkerConfig) -> Optional[Budget]:
    """The config's step cap and what is left of the run deadline as a
    fresh :class:`Budget`; ``None`` when neither limit is set."""
    remaining = None
    if config.deadline is not None:
        remaining = max(0.001, config.deadline - time.time())
    if config.budget_steps is None and remaining is None:
        return None
    return Budget(max_steps=config.budget_steps, max_seconds=remaining)


def _run_metal_item(item: WorkItem, config: WorkerConfig,
                    shared_budget: Optional[Budget] = None) -> dict:
    from ..lang.memo import parse_annotated
    from .engine import check_unit

    path = item.paths[0]
    if _past_deadline(config):
        return _skipped_payload(item, config,
                                "not analysed — run deadline exceeded")
    _maybe_worker_fault(item)
    sm = _metal_machine(config)
    try:
        text = read_sources(item.paths)[path]
    except SourceReadError as exc:
        return _quarantine_payload(item, config, type(exc).__name__,
                                   str(exc), phase="input")
    try:
        unit, _sema = parse_annotated(path, text)
    except SourceError as exc:
        if config.frontend != "tolerant":
            raise
        return _quarantine_payload(item, config, type(exc).__name__,
                                   str(exc), phase="input")
    budget = shared_budget if shared_budget is not None else _item_budget(config)
    sink = ReportSink()
    check_unit(sm, unit, sink, budget=budget, keep_going=config.keep_going)
    label = _item_label(item, config)
    for quarantine in _input_quarantines(label, [unit]):
        if sink.add_quarantine(quarantine):
            sink.degradation_notes.append(
                f"[{label}] {quarantine.function}: unparseable region "
                f"quarantined — {quarantine.message}")
    return sink_to_payload(sink)


def _execute_item_plain(item: WorkItem, config: WorkerConfig,
                        shared_budget: Optional[Budget] = None) -> dict:
    if item.kind == "metal":
        return _run_metal_item(item, config, shared_budget)
    if item.kind == "campaign":
        from ..campaign.runner import run_campaign_item
        return run_campaign_item(item, config)
    return _run_checker_item(item, config)


#: This process's trace file handle, one per (pid, trace run).  Keyed by
#: pid because forked workers inherit the parent's module state and must
#: not share its file, and by trace directory because the parent traces
#: the items it runs itself in every traced run.
_TRACER: Optional[tuple] = None


def _obs_tracer(config: WorkerConfig):
    from ..obs.trace import NULL_TRACER, Tracer

    global _TRACER
    if config.trace_dir is None:
        return NULL_TRACER
    owner = (os.getpid(), config.trace_dir)
    if _TRACER is None or _TRACER[0] != owner:
        _TRACER = (owner, Tracer(Path(config.trace_dir)
                                 / f"worker-{owner[0]}.jsonl"))
    return _TRACER[1]


def _execute_item(item: WorkItem, config: WorkerConfig,
                  shared_budget: Optional[Budget] = None) -> dict:
    """Execute one work item, observed when the config asks for it."""
    return _observed(item, config,
                     lambda: _execute_item_plain(item, config, shared_budget))


def _observed(item: WorkItem, config: WorkerConfig, execute) -> dict:
    """``execute()``'s payload for ``item``, observed when the config
    asks for it.

    Observation wraps — never alters — execution: a per-item metrics
    registry and this process's tracer are activated around
    ``execute``, the item's counters/timings ship back in the payload's
    ``obs`` section, and an item span (id ``i<index>a<attempt>``)
    closes into the process's trace file.
    """
    if not config.collect_obs and config.trace_dir is None:
        return execute()
    from ..obs.metrics import MetricsRegistry, activate_metrics
    from ..obs.trace import activate_tracer

    tracer = _obs_tracer(config)
    registry = MetricsRegistry()
    previous_metrics = activate_metrics(registry)
    previous_tracer = activate_tracer(tracer)
    span = (tracer.item(item.index, _WORKER_ATTEMPT,
                        _item_label(item, config), units=list(item.paths))
            if tracer.enabled else None)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        payload = execute()
    except BaseException as exc:
        if span is not None:
            span.status = "error"
            span.set(error=type(exc).__name__)
            span.__exit__(None, None, None)
        raise
    finally:
        activate_tracer(previous_tracer)
        activate_metrics(previous_metrics)
    if config.collect_obs:
        payload["obs"] = {
            "counters": dict(registry.counters),
            "wall": round(time.perf_counter() - wall0, 6),
            "cpu": round(time.process_time() - cpu0, 6),
        }
    if span is not None:
        if payload.get("quarantines"):
            span.status = "quarantined"
        elif payload.get("degraded"):
            span.status = "degraded"
        span.counters.update(registry.counters)
        span.__exit__(None, None, None)
    return payload


# -- parent side -------------------------------------------------------------

def _load_analysis(items: list, config: WorkerConfig) -> None:
    """Import what executing ``items`` runs, here in the parent, before
    any item runs inline or a worker forks: the workers then inherit
    these modules instead of each importing them.  A run whose every
    item resolved from the store has no item to run, so it imports no
    frontend, engine or checker."""
    kinds = {item.kind for item in items}
    if kinds & {"checker", "local", "link"}:
        from .. import checkers  # noqa: F401 (registers every builtin)
        if config.spec_text:
            from ..flash import spec  # noqa: F401
    if kinds & {"checker", "local", "metal"}:
        from ..lang import memo  # noqa: F401 (the parser and sema)
        from . import engine  # noqa: F401


def _mp_context():
    import multiprocessing as mp
    try:
        return mp.get_context("fork")
    except ValueError:  # pragma: no cover - non-posix platforms
        return mp.get_context("spawn")


def _run_items(items: list, config: WorkerConfig, jobs: int,
               cache: Optional[ResultCache], keys: dict, decode,
               journal: Optional[RunJournal] = None,
               policy: Optional[SupervisorPolicy] = None,
               observation=None, links: Optional[dict] = None,
               ) -> tuple[dict, Optional[Budget], RunStats]:
    """Resolve every item to its ``decode``-d result: read from the
    store when the resumed ``journal`` lists its key (a replay) or the
    run has a ``cache``, else executed (supervised pool or inline) and
    stored once, through the journal when there is one.

    ``links`` maps a ``link`` item's index to its ``local`` part items.
    A link item that is not in the store is resolved through its parts
    instead — each looked up or executed like any other item — and then
    linked here in the parent (:func:`_link_payload`) and stored.

    ``observation`` (a :class:`repro.obs.Observation`, optional) sees
    every item exactly once: fresh completions and links via
    ``absorb_payload``, everything else resolved parent-side — journal
    replays, cache hits, poison quarantines, interruption skips — via
    ``item_resolved``.

    Returns ``(results by item index, shared serial budget or None,
    supervision stats)``.
    """
    from .supervisor import SupervisorUnavailable, supervise_items

    policy = policy if policy is not None else SupervisorPolicy()
    stats = RunStats()
    links = links or {}
    results: dict = {}
    payloads: dict[int, dict] = {}   # executed (or skipped) items
    pending: list[WorkItem] = []
    to_link: list[WorkItem] = []

    def resolved(item: WorkItem, status: str) -> None:
        if observation is not None:
            observation.item_resolved(item, _item_label(item, config),
                                      status)

    items = list(items)
    for item in items:   # grows by the parts of every link that misses
        key = keys.get(item.index)
        listed = journal is not None and key in journal
        store = journal.store if listed else cache
        value = (store.get(key, decode)
                 if store is not None and key is not None else None)
        if value is None:
            if item.index in links:
                to_link.append(item)
                items.extend(links[item.index])
            else:
                pending.append(item)
            continue
        results[item.index] = value
        if listed:
            stats.replayed += 1
        resolved(item, "replayed" if listed else "cached")
    if observation is not None:
        observation.set_item_total(len(items))

    def record(item: WorkItem, payload: dict) -> None:
        if observation is not None:
            observation.absorb_payload(item, _item_label(item, config),
                                       payload)
        key = keys.get(item.index)
        if key is None:
            return
        if journal is not None:
            journal.record(key, payload)
        elif cache is not None:
            cache.put(key, payload)

    _load_analysis(pending + to_link, config)
    shared_budget: Optional[Budget] = None
    progress = observation.progress if observation is not None else None
    if observation is not None:
        observation.begin_pool(len(pending))
    # Largest units first: the long poles start immediately, the small
    # ones backfill, and the pool drains with minimal tail latency.
    pending.sort(key=lambda it: (-it.weight, it.index))

    def run_inline() -> None:
        nonlocal shared_budget
        from ..lang import parser
        from . import feasibility
        # Inline execution runs in the caller's process: restore the
        # caller's feasibility/frontend defaults afterwards so a library
        # user mixing runs is not left with flipped globals.
        previous_feasibility = feasibility.default_enabled()
        previous_mode = parser.default_mode()
        _init_worker(config)
        # Serial runs share one Budget across every item.
        shared_budget = _item_budget(config)
        try:
            for item in pending:
                if item.index in payloads:
                    continue
                if policy.should_stop(stats.completed):
                    if not stats.interrupted:
                        stats.interrupted = True
                        stats.stop_reason = policy.stop_reason()
                    payloads[item.index] = _skipped_payload(
                        item, config,
                        f"not analysed — run interrupted "
                        f"({stats.stop_reason})")
                    resolved(item, "skipped")
                    continue
                payload = _execute_item(item, config, shared_budget)
                payloads[item.index] = payload
                stats.completed += 1
                record(item, payload)
                if progress is not None:
                    progress.tick(stats)
        finally:
            feasibility.set_default_enabled(previous_feasibility)
            parser.set_default_mode(previous_mode)
        if progress is not None:
            progress.finish(stats)

    def quarantined(item: WorkItem, error_type: str, message: str) -> dict:
        resolved(item, "quarantined")
        return _quarantine_payload(item, config, error_type, message)

    def skipped(item: WorkItem, note: str) -> dict:
        resolved(item, "skipped")
        return _skipped_payload(item, config, note)

    if not pending:
        if progress is not None:
            progress.finish(stats)
    elif jobs <= 1 or len(pending) == 1:
        run_inline()
    else:
        try:
            supervise_items(
                pending, config, jobs, policy, stats, payloads, record,
                quarantine_payload=quarantined,
                skipped_payload=skipped,
                progress=progress,
            )
        except SupervisorUnavailable:
            # No usable multiprocessing here (restricted sandbox, missing
            # semaphores): degrade to in-process execution, results intact.
            run_inline()
    for index, payload in payloads.items():
        results[index] = decode(payload)
    for item in to_link:
        parts = [results[part.index] for part in links[item.index]]
        payload = _observed(item, config,
                            lambda: _link_payload(item, config, parts))
        stats.completed += 1
        record(item, payload)
        results[item.index] = decode(payload)
    return results, shared_budget, stats


def _report_sort_key(report: Report) -> tuple:
    loc = report.location
    return (loc.filename, loc.line, loc.column, report.checker,
            report.message, report.function)


def merge_parts(checker: str, parts: list):
    """Merge per-unit :class:`CheckerResult` parts into one, deterministically.

    Reports are de-duplicated on (checker, message, location) — the same
    identity :class:`ReportSink` uses — and sorted by
    ``(file, line, column, checker)``, so the merge of any partition of
    the work equals the serial result.
    """
    merged = CheckerResult(checker=checker)
    seen_reports: set[tuple] = set()
    seen_quarantines: set[tuple] = set()
    for part in parts:
        for report in part.reports:
            key = (report.checker, report.message, report.location)
            if key in seen_reports:
                continue
            seen_reports.add(key)
            merged.reports.append(report)
        merged.applied += part.applied
        merged.annotations.extend(part.annotations)
        for name, value in part.extra.items():
            if (isinstance(value, (int, float))
                    and isinstance(merged.extra.get(name), (int, float))):
                merged.extra[name] += value
            elif (isinstance(value, dict)
                    and isinstance(merged.extra.get(name), dict)):
                # Count maps (e.g. applied_by_function) sum key-wise.
                target = merged.extra[name]
                for k, v in value.items():
                    if isinstance(v, (int, float)):
                        target[k] = target.get(k, 0) + v
                    else:
                        target.setdefault(k, v)
            elif name not in merged.extra:
                # Copy dicts so later parts merge without mutating the
                # part (which may be a cached payload's object).
                merged.extra[name] = dict(value) if isinstance(value, dict) \
                    else value
        for quarantine in part.quarantines:
            key = (quarantine.checker, quarantine.function)
            if key in seen_quarantines:
                continue
            seen_quarantines.add(key)
            merged.quarantines.append(quarantine)
        merged.degraded = merged.degraded or part.degraded
        merged.degradation_notes.extend(part.degradation_notes)
        for key, steps in getattr(part, "provenance", {}).items():
            # First part wins: every part's trail for the same report
            # reaches the same site, and dedup keeps one report anyway.
            merged.provenance.setdefault(key, steps)
    merged.reports.sort(key=_report_sort_key)
    merged.annotations.sort(key=lambda l: (l.filename, l.line, l.column))
    return merged


def _item_keys(items: list, sources: dict, checker_fp, spec_fp: str,
               config_fp: str) -> dict:
    """Store key per item index; an item whose ``checker_fp(item)`` is
    ``None`` (a checker without locatable source) is uncacheable.  A
    ``local`` part's key is marked, so it never equals the key of the
    link item of a one-unit program."""
    engine_fp = engine_fingerprint()
    digests = {p: source_fingerprint(t) for p, t in sources.items()}
    keys = {}
    for item in items:
        fp = checker_fp(item)
        if fp is not None:
            keys[item.index] = work_item_key(
                checker_fp=fp, units=[(p, digests[p]) for p in item.paths],
                spec_fp=spec_fp, engine_fp=engine_fp,
                config_fp=(f"{config_fp},pass=local"
                           if item.kind == "local" else config_fp))
    return keys


@dataclass
class CheckRun:
    """A full checker-fleet run: merged results plus run metadata."""

    results: dict                      # checker name -> CheckerResult
    jobs: int = 1
    stats: Optional[CacheStats] = None
    #: Journal identity of this run (``--resume`` takes it), if any.
    run_id: Optional[str] = None
    #: Supervision accounting: retries, crashes, replays, interruption.
    supervision: Optional[RunStats] = None

    @property
    def interrupted(self) -> bool:
        return bool(self.supervision is not None
                    and self.supervision.interrupted)

    def summary_line(self) -> str:
        line = f"run: jobs={self.jobs}"
        if self.stats is not None:
            line += f", {self.stats.line()}, {self.stats.stores} stored"
        if self.supervision is not None and self.supervision.noteworthy():
            from .report import format_run_stats
            line += f", {format_run_stats(self.supervision)}"
        return line


def check_files(paths: list, *, names: Optional[list] = None,
                spec_path: Optional[str] = None,
                jobs: int = 1, cache: Optional[ResultCache] = None,
                keep_going: bool = False,
                deadline: Optional[float] = None,
                journal: Optional[RunJournal] = None,
                policy: Optional[SupervisorPolicy] = None,
                observation=None, feasibility: bool = True,
                frontend: str = "strict",
                pack_dirs: tuple = (),
                texts: Optional[dict] = None) -> CheckRun:
    """Run the registered checker fleet over source files, in parallel.

    The parallel analog of :func:`repro.checkers.base.run_all`: same
    results dict (one merged :class:`CheckerResult` per checker, in
    registration order), computed as (checker, unit) work items over a
    supervised worker pool, short-circuited by ``cache`` and by a
    resumed ``journal`` where content allows.  ``policy`` tunes the
    supervision (per-item timeout, retries, stop requests, injected
    worker faults); the default supervises with no per-item timeout.
    ``observation`` (a :class:`repro.obs.Observation`) turns on span
    tracing and metrics collection; reports are identical with or
    without it.  ``feasibility`` toggles infeasible-path pruning
    (``--feasibility``); ``frontend`` picks the parse mode
    (``--frontend strict|tolerant``).  Both are part of every store
    key, so runs with different settings never share entries.
    ``texts`` maps the units and the spec, already read, to their text;
    without it they are read here, units first.
    """
    ordered_paths = list(dict.fromkeys(paths))
    if texts is None:
        texts = read_sources([*ordered_paths, spec_path] if spec_path
                             else ordered_paths)
    sources = {path: texts[path] for path in ordered_paths}
    spec_text = texts[spec_path] if spec_path else None
    selected = list(names) if names is not None else checker_names()

    config = WorkerConfig(
        spec_text=spec_text,
        spec_name=spec_path or "<spec>",
        keep_going=keep_going,
        deadline=deadline,
        fault_plan=policy.fault_plan if policy is not None else None,
        trace_dir=(observation.worker_trace_dir
                   if observation is not None else None),
        collect_obs=observation is not None,
        heartbeat_dir=(observation.worker_heartbeat_dir
                       if observation is not None else None),
        feasibility=feasibility,
        frontend=frontend,
        pack_dirs=tuple(str(d) for d in pack_dirs),
    )

    def work_item(kind: str, name: str, paths: tuple,
                  index: int) -> WorkItem:
        return WorkItem(kind=kind, checker=name, paths=paths,
                        weight=sum(len(sources[p]) for p in paths),
                        index=index)

    items: list[WorkItem] = []
    parts_of: dict[str, list[int]] = {}
    for name in selected:
        shape = checker_shape(name)
        if shape == "link":
            kind, units = "link", [tuple(ordered_paths)]
        elif shape == "unit":
            kind, units = "checker", [(path,) for path in ordered_paths]
        else:
            kind, units = "checker", [tuple(ordered_paths)]
        parts_of[name] = []
        for paths in units:
            items.append(work_item(kind, name, paths, len(items)))
            parts_of[name].append(len(items) - 1)
    # Part indices follow every top-level index, so a run whose links
    # all hit numbers its items 0..n-1 with no gaps.
    next_index = len(items)
    links: dict[int, list[WorkItem]] = {}
    for link in [item for item in items if item.kind == "link"]:
        links[link.index] = [
            work_item("local", link.checker, (path,), next_index + i)
            for i, path in enumerate(ordered_paths)]
        next_index += len(ordered_paths)

    keys = {}
    if cache is not None or journal is not None:
        keys = _item_keys(
            items + [part for parts in links.values() for part in parts],
            sources, lambda item: checker_fingerprint(item.checker),
            source_fingerprint(spec_text) if spec_text else "",
            _config_fp(feasibility, frontend))

    parts, _, run_stats = _run_items(items, config, jobs, cache, keys,
                                     result_from_payload, journal=journal,
                                     policy=policy, observation=observation,
                                     links=links)

    results = {name: merge_parts(name, [parts[i] for i in parts_of[name]])
               for name in selected}
    return CheckRun(results=results, jobs=jobs,
                    stats=cache.stats if cache is not None else None,
                    run_id=journal.run_id if journal is not None else None,
                    supervision=run_stats)


@dataclass
class MetalRun:
    """A textual-metal run over many files."""

    sm_name: str
    sinks: list                        # [(path, ReportSink)] in input order
    jobs: int = 1
    stats: Optional[CacheStats] = None
    #: The shared serial budget, when one was used (its ``note()``
    #: explains a DEGRADED footer the way PR 1's CLI did).
    budget: Optional[Budget] = None
    #: Journal identity of this run (``--resume`` takes it), if any.
    run_id: Optional[str] = None
    #: Supervision accounting: retries, crashes, replays, interruption.
    supervision: Optional[RunStats] = None

    @property
    def interrupted(self) -> bool:
        return bool(self.supervision is not None
                    and self.supervision.interrupted)

    def summary_line(self) -> str:
        line = f"run: jobs={self.jobs}"
        if self.stats is not None:
            line += f", {self.stats.line()}, {self.stats.stores} stored"
        if self.supervision is not None and self.supervision.noteworthy():
            from .report import format_run_stats
            line += f", {format_run_stats(self.supervision)}"
        return line


def metal_files(metal_path: str, paths: list, *, jobs: int = 1,
                cache: Optional[ResultCache] = None,
                keep_going: bool = False,
                budget_steps: Optional[int] = None,
                budget_seconds: Optional[float] = None,
                journal: Optional[RunJournal] = None,
                policy: Optional[SupervisorPolicy] = None,
                observation=None, feasibility: bool = True,
                frontend: str = "strict",
                texts: Optional[dict] = None) -> MetalRun:
    """Run one textual metal checker over files as parallel work items.

    The step budget applies per work item when ``jobs > 1`` (each worker
    explores independently) but stays shared across every file when
    serial, preserving the original semantics; the wall-clock budget is
    a single run-wide deadline either way.  Budgeted runs make no cache
    lookups — a cached result would mask the degradation the budget is
    there to show — though the complete items they journal still land
    in the store.  A serial step-budgeted run disables the journal:
    replaying some items against a journal would hand the live items a
    budget the original run never gave them.  ``texts`` maps the metal
    program and the units, already read, to their text; without it they
    are read here, the metal program first.
    """
    from ..metal.parser import parse_metal

    ordered_paths = list(dict.fromkeys(paths))
    if texts is None:
        texts = read_sources([metal_path, *ordered_paths])
    metal_text = texts[metal_path]
    sm = parse_metal(metal_text, filename=metal_path)  # validate up front

    if budget_steps is not None or budget_seconds is not None:
        cache = None
    if jobs <= 1 and budget_steps is not None:
        journal = None
    deadline = (time.time() + budget_seconds
                if budget_seconds is not None else None)

    config = WorkerConfig(
        keep_going=keep_going, deadline=deadline,
        budget_steps=budget_steps,
        metal_text=metal_text, metal_name=metal_path,
        fault_plan=policy.fault_plan if policy is not None else None,
        trace_dir=(observation.worker_trace_dir
                   if observation is not None else None),
        collect_obs=observation is not None,
        heartbeat_dir=(observation.worker_heartbeat_dir
                       if observation is not None else None),
        feasibility=feasibility,
        frontend=frontend,
    )

    sources = {path: texts[path] for path in ordered_paths}
    items = [
        WorkItem(kind="metal", checker="", paths=(path,),
                 weight=len(sources[path]), index=i)
        for i, path in enumerate(ordered_paths)
    ]

    keys = {}
    if cache is not None or journal is not None:
        metal_fp = metal_fingerprint(metal_text)
        keys = _item_keys(items, sources, lambda item: metal_fp, "",
                          _config_fp(feasibility, frontend))

    sinks_by_index, shared_budget, run_stats = _run_items(
        items, config, jobs, cache, keys, sink_from_payload,
        journal=journal, policy=policy, observation=observation)
    sinks = [(path, sinks_by_index[i])
             for i, path in enumerate(ordered_paths)]
    return MetalRun(sm_name=sm.name, sinks=sinks, jobs=jobs,
                    stats=cache.stats if cache is not None else None,
                    budget=shared_budget,
                    run_id=journal.run_id if journal is not None else None,
                    supervision=run_stats)
