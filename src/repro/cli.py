"""``mc-check`` — command-line front end.

Subcommands:

``mc-check check FILE...``
    Run the FLASH checkers (all, or ``--checker name`` repeated) over C
    source files and print diagnostics.

``mc-check metal CHECKER.metal FILE...``
    Compile a textual metal program and run it over C source files —
    the xg++ usage model.

``mc-check generate PROTOCOL [-o DIR]``
    Emit one generated protocol's sources (and its ground-truth
    manifest) to a directory.

``mc-check tables``
    Regenerate every table of the paper and print paper-vs-measured.

``mc-check simulate FILE... --dispatch OP=HANDLER``
    Run protocol handlers in the FlashLite-lite simulator, optionally
    under a deterministic fault plan (``--fault-plan plan.json``).
    Typed protocol errors (``--strict`` violations, pool-invariant
    breaches) become structured ``failure:`` records with salvaged
    counters and exit 1; interpreter/plan errors exit 2 — never a raw
    traceback.

``mc-check campaign FILE... [--spec SPEC | --dispatch OP=HANDLER]``
    Fleet-scale simulation campaign: shard deterministic (seed,
    workload, fault-plan) runs across the worker pool, shrink every
    crash to a minimal repro, and cross-tabulate dynamic violations
    against the static checkers' reports — per-report verdicts
    ``confirmed``/``unmanifested`` plus ``checker gap`` rows for
    dynamic violations nothing static predicted (docs/campaign.md).

``mc-check checkers`` (alias ``list``)
    List the checkers a run would dispatch — builtin and pack-provided —
    with their pack, version, and Table 7 metacode size.

``mc-check stats METRICS.json``
    Render a ``--metrics-out`` document as a human-readable table.

``mc-check explain REPORT.json ERROR-ID``
    Show the source-line + state-transition path that produced one
    diagnostic of a ``--format json`` report.

``mc-check profile [--trace FILE | RUN-ID]``
    Aggregate a span trace into a deterministic cost tree: per-phase /
    per-checker / per-function time, hotspots, critical path, cache
    attribution (crashed and superseded attempts excluded).

``mc-check history`` / ``mc-check diff RUN-A RUN-B``
    The persistent run ledger (``<cache-dir>/ledger.jsonl``): list
    recorded runs; diff two of them — new/lost/changed report ids,
    counter deltas, wall-time regressions — exiting 1 on drift so CI
    can gate run-over-run.

Stream discipline: diagnostics and reports go to **stdout**; run
chatter (``run: id=...``, resume hints, trace/metrics summaries) goes
to **stderr**, so ``--format json`` output is parseable as-is.

Exit codes (``check``, ``metal``, ``simulate``, ``campaign``): **0**
clean, **1**
bugs/diagnostics found, **2** internal error or quarantined checker —
so CI can tell "the protocol is buggy" from "the tool is" — and
**130** when a run is interrupted (SIGINT/SIGTERM): the partial report
is flushed, and the printed ``run: id=...`` can be fed back as
``--resume RUN-ID`` to finish the run without redoing completed work.
Under ``--frontend tolerant``, unparseable input regions are expected
degradation, not tool failure: their ``phase="input"`` quarantines are
listed in the DEGRADED section but do not force exit 2, so a messy
codebase exits 0/1 (see docs/frontend-tolerance.md).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .errors import ReproError
from .lang.source import read_source
from .mc.cache import ResultCache
from .mc.parallel import check_files, metal_files, resolve_jobs
from .mc.registry import checker_names
from .mc.report import format_quarantines, format_reports
from .mc.supervisor import (
    RunJournal,
    StopFlag,
    SupervisorPolicy,
    default_runs_dir,
    graceful_shutdown,
)
from .project import Program, read_sources

#: Exit statuses: clean / bugs found / the tool itself misbehaved /
#: interrupted by SIGINT/SIGTERM (128 + SIGINT, the shell convention).
EXIT_CLEAN = 0
EXIT_BUGS = 1
EXIT_INTERNAL = 2
EXIT_INTERRUPTED = 130


def _load_program(paths: list[str], spec_path: str | None = None) -> Program:
    """The program behind ``simulate``, ``campaign`` and ``paths``.

    Its units come from the per-process parse memo, because these
    commands only read the ASTs: a campaign's shards, inline or in
    forked workers, then reuse this parse instead of repeating it.
    """
    info = None
    if spec_path is not None:
        from .flash.spec import parse_spec
        info = parse_spec(read_source(spec_path), spec_path)
    return Program(read_sources(paths), info=info, unit_memo=True)


def _policy_from_args(args, stop_flag: StopFlag) -> SupervisorPolicy:
    """Supervision policy for check/metal from their shared flags."""
    fault_plan = None
    plan_path = getattr(args, "fault_plan", None)
    if plan_path:
        from .faults.plan import load_fault_plan
        fault_plan = load_fault_plan(plan_path)
    policy = SupervisorPolicy(stop_flag=stop_flag, fault_plan=fault_plan)
    item_timeout = getattr(args, "item_timeout", None)
    if item_timeout is not None:
        policy.item_timeout = item_timeout
    max_retries = getattr(args, "max_retries", None)
    if max_retries is not None:
        policy.max_retries = max_retries
    return policy


def _interrupted(run, journal, json_mode: bool = False) -> int:
    """Footer + exit status for a gracefully interrupted run.

    The resume hint is operator chatter and goes to stderr (stdout must
    stay parseable); the INTERRUPTED marker stays in the text report but
    moves to stderr under ``--format json``.
    """
    reason = run.supervision.stop_reason if run.supervision else ""
    print(f"INTERRUPTED: {reason or 'stop requested'} — partial results above",
          file=sys.stderr if json_mode else sys.stdout)
    if journal is not None and not journal.disabled:
        print(f"resume with: --resume {journal.run_id}", file=sys.stderr)
    return EXIT_INTERRUPTED


def _observation_from_args(args, metrics: bool = True):
    """An :class:`repro.obs.Observation` when ``--trace``,
    ``--metrics-out``, or ``--progress`` asked for one, else ``None``
    (no observability code runs at all).

    ``metrics=False`` leaves ``--metrics-out`` to the caller (campaign
    derives its metrics from the finished cross-tab instead)."""
    trace = getattr(args, "trace", None)
    metrics_out = getattr(args, "metrics_out", None) if metrics else None
    want_progress = getattr(args, "progress", False)
    if not trace and not metrics_out and not want_progress:
        return None
    from .obs import Observation
    progress = None
    if want_progress:
        from .obs.progress import ProgressReporter
        progress = ProgressReporter()
    return Observation(trace_path=trace, metrics_path=metrics_out,
                       progress=progress)


def _ledger_path_from_args(args):
    from .obs.ledger import ledger_path
    cache_dir = getattr(args, "cache_dir", None)
    return ledger_path(Path(cache_dir) if cache_dir else None)


def _ledger_counters(observation, run) -> dict:
    """The counter snapshot a ledger record carries.

    With observability on, the run's own registry (post-finalize) is
    authoritative; otherwise count reports/cache/supervision into a
    scratch registry — same code path, so ledger counters mean the same
    thing either way.  Never feeds anything back into the run."""
    if observation is not None:
        return dict(observation.metrics.counters)
    from .obs import Observation
    scratch = Observation()
    scratch._count_reports(run)
    scratch._count_run(run)
    return dict(scratch.metrics.counters)


class _Fleet:
    """The set-up ``check``, ``metal`` and ``campaign`` share around one
    fleet run, in the order the operator sees its effects.

    Construction loads the checker packs, so a broken pack fails the run
    before anything else.  :meth:`open` builds the worker count, the
    result cache, the stop flag and supervision policy, the observation
    and the run journal, announcing ``run: id=`` on stderr; every
    command reads its inputs first, so an unreadable one leaves no run
    behind.  :meth:`running` wraps the run itself, :meth:`finish`
    finalizes its observation, and :meth:`record` appends it to the run
    ledger.
    ``command`` names the run in the journal header and the ledger.
    """

    def __init__(self, args, command: str):
        self.args = args
        self.command = command
        self.pack_dirs = _packs_from_args(args)

    def open(self, *, budgeted: bool = False,
             journal_config: dict | None = None,
             metrics: bool = True) -> None:
        """``budgeted`` runs make no cache lookups: a cached result
        would mask the degradation the budget is there to show.
        ``journal_config`` replaces the analysis settings recorded in
        (and checked on ``--resume`` against) the journal header, next
        to the command; ``metrics=False`` leaves ``--metrics-out`` to
        the caller.

        The journal is resumed from ``--resume``, else created under
        ``<cache-dir>/runs``; either way its payloads go into the cache
        directory, so a budgeted run's complete items are stored too.
        There is none (the run is simply not resumable) when the
        directory is unwritable or ``--no-cache`` (whose default reads
        ``$MC_CHECK_NO_CACHE``) asked for no disk writes; an explicit
        ``--resume`` always wins."""
        args = self.args
        self.jobs = resolve_jobs(args.jobs)
        self.stop_flag = StopFlag()
        self.policy = _policy_from_args(args, self.stop_flag)
        self.observation = _observation_from_args(args, metrics)
        if journal_config is None:
            journal_config = {"feasibility": args.feasibility,
                              "frontend": args.frontend}
        journal_config = {"command": self.command, **journal_config}
        runs_dir = default_runs_dir(args.cache_dir)
        if args.resume:
            self.journal = RunJournal.resume(runs_dir, args.resume,
                                             journal_config)
        elif args.no_cache:
            self.journal = None
        else:
            self.journal = RunJournal.create(runs_dir, config=journal_config)
        # One store object, so journal writes count in the cache's stats.
        store = (self.journal.store if self.journal is not None
                 else ResultCache(runs_dir.parent))
        self.cache = None if args.no_cache or budgeted else store
        if self.journal is not None:
            print(f"run: id={self.journal.run_id}", file=sys.stderr,
                  flush=True)

    @contextmanager
    def running(self):
        """Drain gracefully on SIGINT/SIGTERM, time the wall clock, and
        close the journal however the run ends."""
        wall0 = time.perf_counter()
        try:
            with graceful_shutdown(self.stop_flag):
                yield
        finally:
            if self.journal is not None:
                self.journal.close()
        self.wall = time.perf_counter() - wall0

    def finish(self, run) -> None:
        """Merge the trace, write metrics, and summarise on stderr."""
        observation = self.observation
        if observation is None:
            return
        out = observation.finalize(run)
        stats = out.get("trace")
        if stats is not None:
            line = (f"trace: {stats['spans']} span(s), "
                    f"{stats['items_covered']} item(s) -> "
                    f"{observation.trace_path}")
            if stats.get("orphan_spans"):
                line += f", {stats['orphan_spans']} orphan"
            if stats.get("superseded_spans"):
                line += f", {stats['superseded_spans']} superseded"
            print(line, file=sys.stderr)
        if observation.metrics_path is not None:
            print(f"metrics: wrote {observation.metrics_path}",
                  file=sys.stderr)

    def record(self, *, config: dict, run, exit_code: int,
               doc: dict, degraded: bool = False,
               counters: dict | None = None) -> None:
        """Record the finished run in ``<cache-dir>/ledger.jsonl``.

        Pure output: derived entirely from the completed run.  Skipped
        when there is no journal (``--no-cache`` contracts to zero disk
        writes, and without a journal there is no run id to key the
        record by).  Append failures are silently absorbed by
        :class:`RunLedger`.  ``counters`` replaces the run's own counter
        snapshot (campaigns record their cross-tab counters).
        """
        journal = self.journal
        if journal is None or journal.run_id is None or self.args.no_cache:
            return
        from .obs.ledger import RunLedger, make_record, reports_from_doc
        ledger = RunLedger(_ledger_path_from_args(self.args))
        trace = self.args.trace
        if counters is None:
            counters = _ledger_counters(self.observation, run)
        ledger.append(make_record(
            run_id=journal.run_id, command=self.command,
            files=self.args.files,
            config=config, wall=self.wall, exit_code=exit_code,
            reports=reports_from_doc(doc), counters=counters,
            interrupted=getattr(run, "interrupted", False),
            degraded=degraded,
            trace=str(Path(trace).resolve()) if trace else None,
        ))


def _report_doc(run, min_confidence=None) -> dict:
    from .mc.report import run_to_json
    return run_to_json(run, min_confidence=min_confidence)


def _packs_from_args(args) -> tuple:
    """Discover and load the run's checker packs; returns the resolved
    pack-directory strings shipped to workers.

    Sources, in order: ``--pack-dir`` flags, ``$MC_CHECK_PACK_PATH``,
    and the working directory's ``mc-check.toml`` (``[packs] dirs``).
    Loading in the parent — before any worker forks — means a broken
    pack fails the run up front with a structured ``PackError`` (a
    :class:`ReproError`: ``mc-check: internal error:`` + exit 2), never
    a traceback or a half-loaded fleet.
    """
    from .packs import discover_pack_dirs, load_packs
    dirs = discover_pack_dirs(getattr(args, "pack_dir", None) or ())
    if dirs:
        load_packs(dirs)
    return tuple(str(d) for d in dirs)


def _pack_config_labels() -> list:
    """``name@version`` labels of the loaded packs, for ledger configs."""
    from .packs import loaded_packs
    return sorted(pack.label for pack in loaded_packs())


def _validate_checker_names(names) -> None:
    """``--checker`` validation, after packs have loaded (so pack
    checkers are selectable); unknown names fail structured."""
    known = checker_names()
    for name in names or ():
        if name not in known:
            raise ReproError(
                f"--checker: unknown checker {name!r}; known: "
                + ", ".join(known))


def cmd_check(args) -> int:
    fleet = _Fleet(args, "check")
    _validate_checker_names(args.checker)
    names = args.checker or None
    json_mode = args.format == "json"
    feasibility = args.feasibility == "on"
    min_confidence = args.min_confidence
    budget_seconds = args.budget_seconds
    # Every input is read before the run journal exists, so one that
    # cannot be read leaves no run behind.
    texts = read_sources([*args.files, args.spec] if args.spec
                         else args.files)
    fleet.open(budgeted=budget_seconds is not None)
    deadline = (time.time() + budget_seconds
                if budget_seconds is not None else None)
    with fleet.running():
        run = check_files(
            args.files, names=names, spec_path=args.spec, jobs=fleet.jobs,
            cache=fleet.cache, keep_going=args.keep_going, deadline=deadline,
            journal=fleet.journal, policy=fleet.policy,
            observation=fleet.observation, feasibility=feasibility,
            frontend=args.frontend, pack_dirs=fleet.pack_dirs, texts=texts,
        )
    fleet.finish(run)
    from .mc.ranking import score_run
    from .mc.report import filter_by_confidence
    scores = score_run(run)
    failures = 0
    quarantines = []
    degraded = False
    notes = []
    for result in run.results.values():
        kept = filter_by_confidence(result.errors, scores, min_confidence)
        failures += len(kept)
        quarantines.extend(result.quarantines)
        degraded = degraded or result.degraded
        notes.extend(result.degradation_notes)
    doc = _report_doc(run, min_confidence=min_confidence)
    if json_mode:
        import json
        print(json.dumps(doc, indent=2))
        print(run.summary_line(), file=sys.stderr)
    else:
        for result in run.results.values():
            reports = filter_by_confidence(result.reports, scores,
                                           min_confidence)
            if reports:
                print(format_reports(reports, scores=scores,
                                     heading=f"checker: {result.checker}"))
                print()
        if quarantines:
            print(format_quarantines(quarantines))
            print()
        if degraded:
            print("DEGRADED: results are partial")
            for note in notes:
                print(f"  - {note}")
        if failures == 0 and not quarantines:
            print("no errors found")
        print(run.summary_line())
    if run.interrupted:
        code = _interrupted(run, fleet.journal, json_mode)
    elif _hard_quarantines(quarantines, args.frontend):
        code = EXIT_INTERNAL
    else:
        code = EXIT_BUGS if failures else EXIT_CLEAN
    fleet.record(
        config={"command": "check", "feasibility": feasibility,
                "frontend": args.frontend, "jobs": fleet.jobs,
                "checkers": sorted(names or []),
                "keep_going": args.keep_going,
                "min_confidence": min_confidence,
                "packs": _pack_config_labels()},
        run=run, exit_code=code, doc=doc, degraded=degraded)
    return code


def _hard_quarantines(quarantines, frontend: str) -> list:
    """Quarantines that make the run a tool failure (exit 2).

    In tolerant mode, ``phase="input"`` quarantines are the *expected*
    outcome for unparseable regions — degradation, not malfunction —
    so they report in the DEGRADED section without failing the run.
    Strict mode keeps every quarantine hard."""
    if frontend != "tolerant":
        return list(quarantines)
    return [q for q in quarantines if getattr(q, "phase", "") != "input"]


def cmd_metal(args) -> int:
    fleet = _Fleet(args, "metal")  # validates --pack-dir; one machine
    json_mode = args.format == "json"
    feasibility = args.feasibility == "on"
    min_confidence = args.min_confidence
    texts = read_sources([args.checker, *args.files])  # before the journal
    fleet.open(budgeted=(args.budget_steps is not None
                         or args.budget_seconds is not None))
    with fleet.running():
        run = metal_files(
            args.checker, args.files, jobs=fleet.jobs, cache=fleet.cache,
            keep_going=args.keep_going, budget_steps=args.budget_steps,
            budget_seconds=args.budget_seconds, journal=fleet.journal,
            policy=fleet.policy, observation=fleet.observation,
            feasibility=feasibility, frontend=args.frontend, texts=texts,
        )
    fleet.finish(run)
    total = 0
    quarantines = []
    degraded = False
    for _path, sink in run.sinks:
        total += len(sink)
        quarantines.extend(sink.quarantines)
        degraded = degraded or sink.degraded
    doc = _report_doc(run, min_confidence=min_confidence)
    if json_mode:
        import json
        print(json.dumps(doc, indent=2))
        print(run.summary_line(), file=sys.stderr)
    else:
        for _path, sink in run.sinks:
            for report in sink.reports:
                print(report)
            if sink.quarantines:
                print(format_quarantines(sink.quarantines))
        print(f"{total} diagnostic(s) from sm {run.sm_name}")
        if degraded:
            print("DEGRADED: results are partial")
        print(run.summary_line())
    if run.interrupted:
        code = _interrupted(run, fleet.journal, json_mode)
    elif _hard_quarantines(quarantines, args.frontend):
        code = EXIT_INTERNAL
    else:
        code = EXIT_BUGS if total else EXIT_CLEAN
    fleet.record(
        config={"command": "metal", "checker": args.checker,
                "feasibility": feasibility, "frontend": args.frontend,
                "jobs": fleet.jobs, "keep_going": args.keep_going,
                "min_confidence": min_confidence},
        run=run, exit_code=code, doc=doc, degraded=degraded)
    return code


def _parse_dispatch(entries, functions: dict) -> dict[int, str]:
    """``OPCODE=HANDLER`` flags into a validated dispatch table."""
    dispatch: dict[int, str] = {}
    for entry in entries or ():
        opcode, sep, handler = entry.partition("=")
        if not sep or not handler:
            raise ReproError(f"--dispatch wants OPCODE=HANDLER, got {entry!r}")
        if handler not in functions:
            raise ReproError(f"--dispatch: no function named {handler!r}")
        try:
            dispatch[int(opcode, 0)] = handler
        except ValueError:
            raise ReproError(
                f"--dispatch: opcode {opcode!r} is not an integer") from None
    return dispatch


def cmd_simulate(args) -> int:
    from .campaign.runner import _error_property
    from .errors import InterpError, SimulationError
    from .faults.plan import load_fault_plan
    from .flash.sim import FlashMachine, WorkloadSpec
    from .flash.sim.machine import SimStats

    program = _load_program(args.files)
    functions = {f.name: f for f in program.functions()}
    dispatch = _parse_dispatch(args.dispatch, functions)
    # A malformed plan raises FaultPlanError (a ReproError): main()
    # turns it into the structured internal-error line and exit 2.
    plan = load_fault_plan(args.fault_plan) if args.fault_plan else None
    machine = FlashMachine(
        functions, dispatch, nodes=args.nodes, n_buffers=args.buffers,
        lane_capacity=args.lane_capacity, strict=args.strict,
        max_hops=args.max_hops, fault_plan=plan,
    )
    spec = WorkloadSpec(
        messages=args.messages, nodes=args.nodes, seed=args.seed,
        opcode_weights=tuple((op, 1) for op in dispatch),
    )
    # Typed failures never escape as tracebacks: a protocol error (a
    # --strict violation, a pool-invariant breach) is a *finding* —
    # structured failure record, salvaged counters, exit 1 — while an
    # interpreter error means the simulation itself could not run
    # (exit 2).  See the exit-code contract in the module docstring.
    failure = None
    internal = False
    try:
        stats = machine.run(spec)
    except InterpError as exc:
        failure = ("InterpError", None, str(exc))
        internal = True
        stats = SimStats()
        machine._collect(stats)
    except SimulationError as exc:
        failure = (type(exc).__name__, _error_property(exc), str(exc))
        stats = SimStats()
        machine._collect(stats)
    print(f"handlers run: {stats.handlers_run}, sends: {stats.sends}")
    observed = {
        "double frees": stats.double_frees,
        "use after free": stats.use_after_free,
        "unsynchronized reads": stats.unsynchronized_reads,
        "msglen mismatches": stats.msglen_mismatches,
        "pending-wait violations": stats.pending_wait_violations,
        "stale directory writebacks": stats.stale_directory_writebacks,
        "lane overruns": stats.lane_overruns,
        "refcount errors": stats.refcount_errors,
        "leaked buffers": stats.leaked_buffers,
    }
    for label, value in observed.items():
        if value:
            print(f"  {label}: {value}")
    if stats.deadlock:
        print(f"  deadlock: {stats.deadlock}")
    if plan is not None:
        print(f"injected faults: {stats.injected_faults} "
              f"({stats.faults_by_site}), handler crashes: "
              f"{stats.injected_crashes}, dropped messages: "
              f"{stats.dropped_messages}")
        for event in stats.fault_events:
            print(f"  {event}")
    if failure is not None:
        etype, prop, message = failure
        record = f"failure: type={etype}"
        if prop:
            record += f" property={prop}"
        record += f" message={message}"
        print(record)
        print("NOT CLEAN")
        return EXIT_INTERNAL if internal else EXIT_BUGS
    print("clean" if stats.clean else "NOT CLEAN")
    return EXIT_CLEAN if stats.clean else EXIT_BUGS


def cmd_campaign(args) -> int:
    """Fleet-scale simulation campaign + static×dynamic cross-tab."""
    import hashlib
    import json

    from .campaign import (
        CampaignSpec,
        cross_tabulate,
        crosstab_to_json,
        render_crosstab,
        run_campaign,
    )
    from .campaign.crosstab import reports_from_json, reports_from_run

    json_mode = args.format == "json"
    fleet = _Fleet(args, "campaign")
    spec_path = args.spec
    program = _load_program(args.files, spec_path)
    functions = {f.name: f for f in program.functions()}
    dispatch = _parse_dispatch(args.dispatch, functions)
    if not dispatch and program.info is not None:
        # Auto-dispatch from the protocol spec: the hw handlers, in
        # name order, get opcodes 1..n — the paper's §8 move of
        # extracting the handler list from the specification.
        handlers = sorted(name for name, h in program.info.handlers.items()
                          if h.kind == "hw" and name in functions)
        dispatch = dict(enumerate(handlers, start=1))
    if not dispatch:
        raise ReproError(
            "campaign needs a dispatch table: repeat --dispatch "
            "OPCODE=HANDLER, or pass --spec so the hw handler table "
            "can be extracted from the protocol specification")

    fault_sites = getattr(args, "fault_sites", None)
    extra = {}
    if fault_sites:
        extra["fault_sites"] = tuple(sorted(
            site for site in (s.strip() for s in fault_sites.split(","))
            if site))
    spec = CampaignSpec(
        files=tuple(args.files), dispatch=tuple(sorted(dispatch.items())),
        runs=args.runs, shard_size=args.shard_size, seed=args.campaign_seed,
        nodes=args.nodes, buffers=args.buffers,
        lane_capacity=args.lane_capacity, max_hops=args.max_hops,
        messages=args.messages, max_fault_rules=args.max_fault_rules,
        **extra,
    )
    campaign_fp = hashlib.sha256(spec.to_json().encode()).hexdigest()[:16]
    if args.report:
        try:
            doc = json.loads(Path(args.report).read_text())
        except OSError as exc:
            raise ReproError(
                f"cannot read {args.report}: {exc}") from None
        except ValueError as exc:
            raise ReproError(
                f"{args.report} is not JSON: {exc}") from None
    # Campaign metrics come from the finished cross-tab (below), so the
    # Observation covers --trace/--progress only.
    fleet.open(journal_config={"campaign": campaign_fp}, metrics=False)
    with fleet.running():
        # -- static side: prior report doc, or an in-process check -----
        if args.report:
            static_reports = reports_from_json(doc)
        else:
            static_run = check_files(
                args.files, spec_path=spec_path, jobs=fleet.jobs,
                cache=fleet.cache, keep_going=True,
                feasibility=args.feasibility == "on",
                frontend=args.frontend, pack_dirs=fleet.pack_dirs)
            static_reports = reports_from_run(static_run)
        print(f"static: {len(static_reports)} error report(s) "
              f"to cross-validate", file=sys.stderr)

        # -- dynamic side: the campaign over the fleet -----------------
        camp = run_campaign(spec, jobs=fleet.jobs, cache=fleet.cache,
                            journal=fleet.journal, policy=fleet.policy,
                            observation=fleet.observation)
    fleet.finish(camp)
    print(camp.summary_line(), file=sys.stderr)
    if camp.interrupted:
        # No cross-tab for a partial campaign: verdicts over a run
        # subset would contradict the byte-identity guarantee.
        return _interrupted(camp, fleet.journal, json_mode)
    if not camp.complete:
        for slot in camp.incomplete_shards:
            print(f"mc-check: shard {slot['shard']} incomplete: "
                  f"{slot['note']}", file=sys.stderr)
        return EXIT_INTERNAL

    crosstab = cross_tabulate(static_reports, camp.outcomes)
    doc = crosstab_to_json(crosstab, spec)
    if json_mode:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(render_crosstab(crosstab))
    out = args.out
    if out:
        Path(out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"cross-tab: wrote {out}", file=sys.stderr)
    metrics_out = args.metrics_out
    if metrics_out:
        # Metrics are derived from the finished cross-tab — observing
        # a campaign cannot change one byte of its results.
        from .obs.metrics import MetricsRegistry
        registry = MetricsRegistry()
        for name, value in crosstab.counters.items():
            registry.inc(f"campaign.{name}", value)
        registry.inc("campaign.shards", spec.n_shards)
        Path(metrics_out).write_text(
            json.dumps(registry.snapshot(), indent=2) + "\n")
        print(f"metrics: wrote {metrics_out}", file=sys.stderr)
    code = EXIT_BUGS if crosstab.counters["crashes"] else EXIT_CLEAN
    fleet.record(
        config={"command": "campaign", "campaign": campaign_fp,
                "jobs": fleet.jobs, "runs": spec.runs,
                "shard_size": spec.shard_size, "seed": spec.seed},
        run=camp, exit_code=code, doc=doc,
        counters={f"campaign.{name}": value
                  for name, value in sorted(crosstab.counters.items())})
    return code


def cmd_generate(args) -> int:
    from .flash.codegen import generate_protocol
    from .flash.spec import dump_spec
    gp = generate_protocol(args.protocol)
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in gp.files.items():
        (out / name).write_text(text)
    (out / f"{gp.name}.spec").write_text(dump_spec(gp.info))
    manifest = out / f"{gp.name}.manifest.tsv"
    with manifest.open("w") as fh:
        fh.write("checker\tlabel\tfile\tline\tnote\n")
        for site in gp.manifest:
            fh.write(f"{site.checker}\t{site.label}\t{site.file}\t"
                     f"{site.line}\t{site.note}\n")
    print(f"wrote {len(gp.files)} files ({gp.loc()} LOC) and "
          f"{manifest.name} to {out}")
    return 0


def cmd_transform(args) -> int:
    from .lang.parser import parse
    from .lang.sema import annotate
    from .lang.unparse import unparse_unit
    from .mc.transform import RedundantWaitEliminator
    eliminator = RedundantWaitEliminator()
    total = 0
    for path in args.files:
        unit = parse(read_source(path), path)
        annotate(unit)
        removed_here = 0
        for result in eliminator.transform_unit(unit):
            for line in result.removed_lines:
                print(f"{path}:{line}: removed redundant WAIT_FOR_DB_FULL")
            removed_here += len(result.removed)
        total += removed_here
        if removed_here and args.write:
            Path(path).write_text(unparse_unit(unit))
            print(f"rewrote {path}")
        elif removed_here:
            print(unparse_unit(unit), end="")
    print(f"{total} redundant synchronization(s) removed")
    return 0


def cmd_tables(args) -> int:
    from .bench import Experiment, render_all
    experiment = Experiment()
    print(render_all(experiment.all_tables()))
    return 0


def cmd_paths(args) -> int:
    """Table-1-style size/path statistics for arbitrary C files."""
    from .cfg.builder import build_cfg
    from .cfg.paths import path_stats
    program = _load_program(args.files)
    print(f"{'function':32s} {'paths':>7s} {'avg':>7s} {'max':>6s}")
    total_paths = 0
    total_len = 0
    longest = 0
    for function in program.functions():
        stats = path_stats(build_cfg(function))
        total_paths += stats.path_count
        total_len += stats.total_length
        longest = max(longest, stats.max_length)
        print(f"{function.name:32s} {stats.path_count:7d} "
              f"{stats.average_length:7.1f} {stats.max_length:6d}")
    average = total_len / total_paths if total_paths else 0.0
    print(f"{'TOTAL':32s} {total_paths:7d} {average:7.1f} {longest:6d}")
    print(f"{program.loc()} non-blank lines in {len(args.files)} file(s)")
    return 0


def cmd_stats(args) -> int:
    import json
    from .obs import format_metrics
    from .obs.metrics import format_prometheus, validate_metrics_snapshot
    try:
        snapshot = json.loads(Path(args.metrics).read_text())
    except OSError as exc:
        raise ReproError(f"cannot read {args.metrics}: {exc}") from None
    except ValueError as exc:
        raise ReproError(f"{args.metrics} is not JSON: {exc}") from None
    problem = validate_metrics_snapshot(snapshot)
    if problem is not None:
        raise ReproError(
            f"{args.metrics} is not a usable metrics document: {problem}")
    if getattr(args, "format", "text") == "prometheus":
        sys.stdout.write(format_prometheus(snapshot))
    else:
        print(format_metrics(snapshot))
    return 0


def cmd_lint(args) -> int:
    """Checker-of-checkers: lint metal state machines themselves.

    With no arguments, lints every builtin metal listing *and* every
    metal program of the discovered checker packs (``--pack-dir`` /
    ``$MC_CHECK_PACK_PATH`` / project ``mc-check.toml``) — the same
    machines a pack run would load.
    """
    from .errors import MetalError
    from .metal.lint import lint_source

    sources: list[tuple[str, str]] = []
    if args.checkers:
        for path in args.checkers:
            try:
                sources.append((path, Path(path).read_text()))
            except OSError as exc:
                raise ReproError(f"cannot read {path}: {exc}") from None
    else:
        from .checkers.metal_sources import BUILTIN_LISTINGS
        sources.extend(BUILTIN_LISTINGS.items())
        # Packs are *not* loaded here: loading refuses lint-dirty packs
        # outright, and lint's job is to show the findings.  Read the
        # manifests and lint the machines they name directly.
        from .packs import discover_pack_dirs, load_manifest
        for pack_dir in discover_pack_dirs(
                getattr(args, "pack_dir", None) or ()):
            manifest = load_manifest(pack_dir)
            for rel in manifest.metal_checkers:
                path = manifest.root / rel
                try:
                    sources.append((f"{manifest.label}:{rel}",
                                    path.read_text()))
                except OSError as exc:
                    raise ReproError(
                        f"cannot read {path}: {exc}") from None
    total = 0
    for name, text in sources:
        try:
            findings = lint_source(text, name)
        except MetalError as exc:
            raise ReproError(f"{name}: {exc}") from None
        for finding in findings:
            print(f"{name}: {finding}")
        total += len(findings)
    label = ("1 checker" if len(sources) == 1
             else f"{len(sources)} checkers")
    if total == 0:
        print(f"lint: {label} clean")
        return EXIT_CLEAN
    print(f"lint: {total} finding(s) in {label}")
    return EXIT_BUGS


def cmd_checkers(args) -> int:
    """Enumerate what a run would dispatch: builtin checkers (the
    default pack) plus every checker of the discovered packs, each with
    the pack name and version that owns it."""
    import json as json_mod
    from .checkers.base import checker_origin, get_checker
    from .packs import loaded_packs

    _packs_from_args(args)
    rows = []
    for name in checker_names():
        origin = checker_origin(name)
        checker = get_checker(name)
        rows.append({
            "name": name,
            "pack": origin.pack,
            "version": origin.version,
            "builtin": origin.builtin,
            "metal_loc": checker.metal_loc,
            "unit_parallel": checker.unit_parallel,
            **({"source": origin.source} if origin.source else {}),
        })
    if getattr(args, "format", "text") == "json":
        doc = {
            "schema": 1,
            "checkers": rows,
            "packs": [{
                "name": pack.name,
                "version": pack.version,
                "root": str(pack.manifest.root),
                "checkers": list(pack.checkers),
            } for pack in loaded_packs()],
        }
        print(json_mod.dumps(doc, indent=2))
        return EXIT_CLEAN
    print(f"{'checker':20s} {'pack':24s} {'metal LOC':>9s}")
    for row in rows:
        label = f"{row['pack']}@{row['version']}"
        print(f"{row['name']:20s} {label:24s} {row['metal_loc']:9d}")
    if loaded_packs():
        print()
        for pack in loaded_packs():
            print(f"pack {pack.label}: {len(pack.checkers)} checker(s) "
                  f"from {pack.manifest.root}")
    return EXIT_CLEAN


def cmd_explain(args) -> int:
    import json
    from .obs import render_explain
    try:
        doc = json.loads(Path(args.report).read_text())
    except OSError as exc:
        raise ReproError(f"cannot read {args.report}: {exc}") from None
    except ValueError as exc:
        raise ReproError(f"{args.report} is not JSON: {exc}") from None
    reports = doc.get("reports", []) if isinstance(doc, dict) else []
    if not isinstance(reports, list):
        raise ReproError(
            f"{args.report}: 'reports' is not a list — not a "
            f"'--format json' report document")
    reports = [r for r in reports if isinstance(r, dict)]
    matches = [r for r in reports
               if str(r.get("id", "")).startswith(args.error_id)]
    if not matches:
        known = ", ".join(str(r.get("id")) for r in reports[:20])
        raise ReproError(
            f"no report with id {args.error_id!r} in {args.report}"
            + (f"; known ids: {known}" if known else " (report is empty)"))
    if len(matches) > 1:
        raise ReproError(
            f"id prefix {args.error_id!r} is ambiguous: "
            + ", ".join(str(r["id"]) for r in matches))
    report = matches[0]
    try:
        print(render_explain(report, report.get("provenance", [])))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        # A hand-edited or truncated report entry must fail structured,
        # not as a rendering traceback.
        raise ReproError(
            f"{args.report}: report {report.get('id')!r} is malformed: "
            f"{type(exc).__name__}: {exc}") from None
    return 0


def cmd_profile(args) -> int:
    """Cost attribution over a span trace: ``mc-check profile``."""
    import json
    from .obs.profile import build_profile, format_profile
    from .obs.trace import read_trace

    trace = getattr(args, "trace", None)
    if not trace and not getattr(args, "run", None):
        raise ReproError("profile wants --trace FILE or a RUN-ID "
                         "(see 'mc-check history')")
    if not trace:
        from .obs.ledger import find_run, read_ledger
        record = find_run(read_ledger(_ledger_path_from_args(args)),
                          args.run)
        trace = record.get("trace")
        if not trace:
            raise ReproError(
                f"run {record['run']} was not traced; rerun it with "
                f"--trace FILE to profile it")
    if not Path(trace).exists():
        raise ReproError(f"cannot read {trace}: no such file")
    profile = build_profile(read_trace(trace), top=args.top)
    if getattr(args, "format", "text") == "json":
        print(json.dumps(profile, indent=2, sort_keys=True))
    else:
        print(format_profile(profile, top=args.top))
    return 0


def cmd_history(args) -> int:
    """List the run ledger: ``mc-check history``."""
    import json
    from .obs.ledger import format_history, read_ledger
    records = read_ledger(_ledger_path_from_args(args))
    if getattr(args, "format", "text") == "json":
        print(json.dumps(records[-args.limit:], indent=2, sort_keys=True))
    else:
        print(format_history(records, limit=args.limit))
    return 0


def cmd_diff(args) -> int:
    """Run-over-run drift report: ``mc-check diff RUN-A RUN-B``.

    Exit 0 means no report drift and no wall regression; exit 1 means
    either, so a CI job can gate on it directly.
    """
    import json
    from .obs.ledger import diff_runs, find_run, format_diff, read_ledger
    records = read_ledger(_ledger_path_from_args(args))
    a = find_run(records, args.run_a)
    b = find_run(records, args.run_b)
    for record in (a, b):
        if record.get("interrupted"):
            raise ReproError(
                f"run {record['run']} was interrupted; its report set is "
                f"partial and cannot be diffed")
    if a.get("command") != b.get("command"):
        raise ReproError(
            f"cannot diff a {a.get('command')!r} run against a "
            f"{b.get('command')!r} run")
    diff = diff_runs(a, b, wall_threshold=args.wall_threshold)
    if getattr(args, "format", "text") == "json":
        print(json.dumps(diff, indent=2, sort_keys=True))
    else:
        print(format_diff(diff))
    return EXIT_BUGS if diff["regression"] else EXIT_CLEAN


def _jobs_arg(text: str) -> int:
    """``--jobs`` as a worker count.  argparse applies it to the
    ``$MC_CHECK_JOBS`` default too, so a bad value of either is a usage
    error (exit 2), not a traceback."""
    try:
        return resolve_jobs(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid value {text!r} (from --jobs or $MC_CHECK_JOBS): "
            "expected a worker count or 'auto'") from None


def _ranged(kind, low, high=None, *, above=False):
    """An argparse ``type``: ``kind(text)``, at least ``low`` (more than
    ``low`` with ``above``) and at most ``high``.  Like ``--jobs``, a
    value out of range is a usage error (exit 2) before any work
    starts."""
    def parse(text: str):
        value = kind(text)
        ok = value > low if above else value >= low
        if not (ok and (high is None or value <= high)):
            noun = "an integer" if kind is int else "a number"
            bound = (f"from {low} to {high}" if high is not None
                     else f"{'above' if above else 'of at least'} {low}")
            raise argparse.ArgumentTypeError(
                f"invalid value {text!r}: expected {noun} {bound}")
        return value
    # argparse names the type in its message for a non-numeric value.
    parse.__name__ = kind.__name__
    return parse


def _add_fleet_flags(parser: argparse.ArgumentParser) -> None:
    """Worker-pool and result-cache flags shared by check/metal."""
    parser.add_argument("--jobs", type=_jobs_arg,
                        default=os.environ.get("MC_CHECK_JOBS", "1"),
                        metavar="N|auto",
                        help="fan (checker, file) work items across N worker "
                             "processes; 'auto' uses every core "
                             "(default: $MC_CHECK_JOBS or 1)")
    parser.add_argument("--cache-dir", default=None,
                        help="incremental analysis cache location (default: "
                             "$MC_CHECK_CACHE_DIR or ~/.cache/mc-check)")
    parser.add_argument("--no-cache", action="store_true",
                        default=bool(os.environ.get("MC_CHECK_NO_CACHE")),
                        help="disable the content-hash result cache")
    parser.add_argument("--item-timeout", type=_ranged(float, 0, above=True),
                        default=None, metavar="SECONDS",
                        help="watchdog: kill and retry any single work item "
                             "running longer than this (default: no per-item "
                             "timeout; hung workers wait forever)")
    parser.add_argument("--max-retries", type=_ranged(int, 0), default=None,
                        metavar="N",
                        help="re-dispatch an item whose worker crashed or "
                             "hung up to N times before quarantining it "
                             "(default: 2)")
    parser.add_argument("--resume", default=None, metavar="RUN-ID",
                        help="replay completed items from an interrupted "
                             "run's journal (the id printed as 'run: id=...' "
                             "and by the exit-130 footer) and run only the "
                             "remainder; the merged report is identical to "
                             "an uninterrupted run")
    parser.add_argument("--fault-plan", default=None, metavar="PLAN.json",
                        help="inject worker_crash/worker_hang/worker_slow "
                             "faults into the fleet's own workers from a "
                             "JSON fault plan (supervision testing; see "
                             "docs/resilience.md)")
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="write a structured JSONL span trace of the "
                             "run (run -> item -> unit/function -> path, "
                             "with timings and engine counters; see "
                             "docs/observability.md)")
    parser.add_argument("--metrics-out", default=None, metavar="FILE",
                        help="write run metrics (counters, gauges, latency "
                             "histograms) as JSON; render with "
                             "'mc-check stats FILE'")
    parser.add_argument("--progress", action="store_true",
                        help="render live fleet status to stderr: items "
                             "done, items/sec, ETA, worker liveness (from "
                             "the supervisor's pool), retry/quarantine "
                             "counts; reports stay byte-identical")
    parser.add_argument("--format", choices=["text", "json"], default="text",
                        help="report format: 'json' prints a machine-"
                             "readable document (report ids + path "
                             "provenance, consumed by 'mc-check explain') "
                             "on stdout and routes all chatter to stderr")
    parser.add_argument("--feasibility", choices=["on", "off"], default="on",
                        help="path-feasibility analysis: prune branch edges "
                             "whose conditions contradict facts already "
                             "established on the path (suppresses "
                             "correlated-branch false positives; 'off' "
                             "walks every syntactic path like the paper's "
                             "engine; default: on)")
    parser.add_argument("--min-confidence", type=_ranged(float, 0, 1),
                        default=None, metavar="SCORE",
                        help="drop reports whose z-ranking confidence is "
                             "below SCORE (0..1); see docs/analysis.md")
    parser.add_argument("--pack-dir", action="append", default=None,
                        metavar="DIR",
                        help="load checker pack(s) from DIR — a directory "
                             "with a pack.toml, or one whose "
                             "subdirectories carry them (repeatable; "
                             "$MC_CHECK_PACK_PATH and a project "
                             "mc-check.toml [packs] dirs are also "
                             "consulted; see docs/checkers.md)")
    parser.add_argument("--frontend", choices=["strict", "tolerant"],
                        default="strict",
                        help="parse mode: 'strict' fails the run on the "
                             "first unsupported construct; 'tolerant' "
                             "recovers (opaque statements/expressions, "
                             "per-function input quarantines) and analyses "
                             "everything that did parse — exit stays 0/1 "
                             "on messy codebases (see "
                             "docs/frontend-tolerance.md)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mc-check",
        description="Meta-level compilation checkers for FLASH protocol "
                    "code (ASPLOS 2000 reproduction)",
        epilog="exit codes: 0 clean; 1 bugs/diagnostics found; 2 internal "
               "error or quarantined checker; 130 run interrupted by "
               "SIGINT/SIGTERM (partial report flushed; finish it with "
               "--resume RUN-ID)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run FLASH checkers over C files")
    p_check.add_argument("files", nargs="+")
    p_check.add_argument("--checker", action="append",
                         help="run only this checker (repeatable; builtin "
                              "or pack-provided — see 'mc-check checkers')")
    p_check.add_argument("--spec",
                         help="protocol specification file (handler table, "
                              "lane allowances, buffer routine tables)")
    p_check.add_argument("--keep-going", action="store_true",
                         help="a crashing checker is quarantined (exit 2) "
                              "instead of aborting the whole run")
    _add_fleet_flags(p_check)
    p_check.add_argument("--budget-seconds",
                         type=_ranged(float, 0, above=True), default=None,
                         help="run-wide wall-clock deadline shared by all "
                              "workers; work past it is skipped and the "
                              "result marked DEGRADED (disables the cache)")
    p_check.set_defaults(func=cmd_check)

    p_metal = sub.add_parser("metal", help="run a textual metal checker")
    p_metal.add_argument("checker", help="path to a .metal file")
    p_metal.add_argument("files", nargs="+")
    p_metal.add_argument("--keep-going", action="store_true",
                         help="quarantine crashing (checker, function) "
                              "pairs instead of aborting")
    p_metal.add_argument("--budget-steps", type=_ranged(int, 0, above=True),
                         default=None,
                         help="stop exploring a file after this many machine "
                              "steps, at any --jobs (partial results, "
                              "marked DEGRADED)")
    p_metal.add_argument("--budget-seconds",
                         type=_ranged(float, 0, above=True), default=None,
                         help="wall-clock cap for the whole analysis "
                              "(a single run-wide deadline, shared by all "
                              "workers under --jobs)")
    _add_fleet_flags(p_metal)
    p_metal.set_defaults(func=cmd_metal)

    p_sim = sub.add_parser(
        "simulate", help="run handlers in the FlashLite-lite simulator")
    p_sim.add_argument("files", nargs="+")
    p_sim.add_argument("--dispatch", action="append", required=True,
                       metavar="OPCODE=HANDLER",
                       help="dispatch-table entry (repeatable)")
    p_sim.add_argument("--messages", type=_ranged(int, 1), default=1000)
    p_sim.add_argument("--nodes", type=_ranged(int, 1), default=2)
    p_sim.add_argument("--buffers", type=_ranged(int, 1), default=16)
    p_sim.add_argument("--lane-capacity", type=_ranged(int, 1), default=8)
    p_sim.add_argument("--max-hops", type=_ranged(int, 0), default=4)
    p_sim.add_argument("--seed", type=int, default=7)
    p_sim.add_argument("--strict", action="store_true",
                       help="violations raise instead of being counted")
    p_sim.add_argument("--fault-plan", default=None,
                       help="JSON fault plan forcing failure paths "
                            "(see docs/simulator.md)")
    p_sim.set_defaults(func=cmd_simulate)

    p_camp = sub.add_parser(
        "campaign",
        help="fleet-scale simulation campaign with static×dynamic "
             "cross-validation: derive N deterministic (seed, workload, "
             "fault-plan) runs, shard them across the worker pool, "
             "shrink every crash to a minimal repro, and give each "
             "static report a confirmed/unmanifested verdict (plus "
             "checker gaps for uncovered dynamic violations)")
    p_camp.add_argument("files", nargs="+")
    p_camp.add_argument("--dispatch", action="append",
                        metavar="OPCODE=HANDLER",
                        help="dispatch-table entry (repeatable); omit "
                             "with --spec to auto-dispatch the spec's hw "
                             "handlers as opcodes 1..n")
    p_camp.add_argument("--spec",
                        help="protocol specification file; also feeds "
                             "the static checkers")
    p_camp.add_argument("--report", default=None, metavar="REPORT.json",
                        help="cross-validate against this prior "
                             "'check --format json' document instead of "
                             "running the static checkers in-process")
    p_camp.add_argument("--runs", type=int, default=100,
                        help="simulation runs in the campaign "
                             "(default: 100)")
    p_camp.add_argument("--shard-size", type=int, default=10,
                        help="runs per fleet work item (default: 10); "
                             "re-sharding never changes any run's "
                             "outcome, only scheduling")
    p_camp.add_argument("--campaign-seed", type=int, default=7,
                        metavar="SEED",
                        help="root seed; every run's workload seed and "
                             "fault plan derive from sha256(seed, run) "
                             "(default: 7)")
    p_camp.add_argument("--messages", type=_ranged(int, 1), default=25,
                        help="workload messages per run (default: 25)")
    p_camp.add_argument("--nodes", type=_ranged(int, 1), default=2)
    p_camp.add_argument("--buffers", type=_ranged(int, 1), default=16)
    p_camp.add_argument("--lane-capacity", type=_ranged(int, 1), default=8)
    p_camp.add_argument("--max-hops", type=_ranged(int, 0), default=2)
    p_camp.add_argument("--fault-sites", default=None, metavar="SITE,...",
                        help="simulator fault sites campaign plans draw "
                             "rules from (default: all sites)")
    p_camp.add_argument("--max-fault-rules", type=_ranged(int, 0), default=3,
                        metavar="N",
                        help="at most N generated fault rules per run; "
                             "~1/(N+1) of runs stay fault-free as the "
                             "baseline (default: 3)")
    p_camp.add_argument("--out", default=None, metavar="CROSSTAB.json",
                        help="also write the cross-tab JSON document "
                             "here (byte-identical across --resume, "
                             "--jobs, and cache states)")
    _add_fleet_flags(p_camp)
    p_camp.set_defaults(func=cmd_campaign)

    p_gen = sub.add_parser("generate", help="emit a generated protocol")
    p_gen.add_argument("protocol",
                       choices=["bitvector", "dyn_ptr", "sci", "coma",
                                "rac", "common"])
    p_gen.add_argument("-o", "--output", default="generated")
    p_gen.set_defaults(func=cmd_generate)

    p_transform = sub.add_parser(
        "transform", help="remove redundant WAIT_FOR_DB_FULL calls")
    p_transform.add_argument("files", nargs="+")
    p_transform.add_argument("--write", action="store_true",
                             help="rewrite files in place (default: print)")
    p_transform.set_defaults(func=cmd_transform)

    p_tables = sub.add_parser("tables", help="regenerate the paper's tables")
    p_tables.set_defaults(func=cmd_tables)

    p_paths = sub.add_parser(
        "paths", help="per-function path statistics (Table 1 style)")
    p_paths.add_argument("files", nargs="+")
    p_paths.set_defaults(func=cmd_paths)

    p_checkers = sub.add_parser(
        "checkers", aliases=["list"],
        help="enumerate builtin + pack checkers with the pack and "
             "version each belongs to (what a run would dispatch)")
    p_checkers.add_argument("--format", choices=["text", "json"],
                            default="text")
    p_checkers.add_argument("--pack-dir", action="append", default=None,
                            metavar="DIR",
                            help="also load checker pack(s) from DIR "
                                 "(repeatable)")
    p_checkers.set_defaults(func=cmd_checkers)

    p_lint = sub.add_parser(
        "lint",
        help="lint metal state machines (checker-of-checkers): "
             "undeclared transition targets, unreachable states, "
             "patterns that can never fire")
    p_lint.add_argument("checkers", nargs="*", metavar="CHECKER.metal",
                        help="textual metal programs to lint (default: "
                             "the built-in paper listings plus every "
                             "discovered checker pack's machines)")
    p_lint.add_argument("--pack-dir", action="append", default=None,
                        metavar="DIR",
                        help="also lint checker pack(s) from DIR "
                             "(repeatable)")
    p_lint.set_defaults(func=cmd_lint)

    p_stats = sub.add_parser(
        "stats", help="render a --metrics-out document as a table")
    p_stats.add_argument("metrics", metavar="METRICS.json",
                         help="metrics document written by --metrics-out")
    p_stats.add_argument("--format", choices=["text", "prometheus"],
                         default="text",
                         help="'prometheus' emits the registry in "
                              "Prometheus text exposition format "
                              "(counters as *_total, histograms as "
                              "summaries) — the scrape surface for a "
                              "resident daemon")
    p_stats.set_defaults(func=cmd_stats)

    p_profile = sub.add_parser(
        "profile",
        help="aggregate a --trace span file into a cost tree: time per "
             "phase (parse/engine/dispatch), per checker, per analyzed "
             "function, top-N hotspots, the fleet's critical path, and "
             "cache attribution; crashed/retried attempts are excluded "
             "so the tree is deterministic")
    p_profile.add_argument("run", nargs="?", default=None, metavar="RUN-ID",
                           help="profile this ledger run's recorded trace "
                                "(the run must have been traced; a unique "
                                "id prefix is enough)")
    p_profile.add_argument("--trace", default=None, metavar="FILE",
                           help="profile this span trace file directly "
                                "instead of resolving a RUN-ID")
    p_profile.add_argument("--top", type=_ranged(int, 1), default=10,
                           metavar="N",
                           help="hotspot list length (default: 10)")
    p_profile.add_argument("--format", choices=["text", "json"],
                           default="text")
    p_profile.add_argument("--cache-dir", default=None,
                           help="where the run ledger lives (default: "
                                "$MC_CHECK_CACHE_DIR or ~/.cache/mc-check)")
    p_profile.set_defaults(func=cmd_profile)

    p_history = sub.add_parser(
        "history",
        help="list recorded runs from the ledger "
             "(<cache-dir>/ledger.jsonl): one line per check/metal/"
             "campaign run with wall time, exit code, and report count")
    p_history.add_argument("--limit", type=_ranged(int, 1), default=20,
                           metavar="N",
                           help="show the N most recent runs (default: 20)")
    p_history.add_argument("--format", choices=["text", "json"],
                           default="text")
    p_history.add_argument("--cache-dir", default=None,
                           help="where the run ledger lives (default: "
                                "$MC_CHECK_CACHE_DIR or ~/.cache/mc-check)")
    p_history.set_defaults(func=cmd_history)

    p_diff = sub.add_parser(
        "diff",
        help="three-part drift report between two ledger runs: "
             "new/lost/changed report ids, counter deltas, and wall-time "
             "regression past a threshold; exits 1 on report drift or "
             "regression so CI can gate run-over-run")
    p_diff.add_argument("run_a", metavar="RUN-A",
                        help="baseline run id (unique prefix is enough)")
    p_diff.add_argument("run_b", metavar="RUN-B",
                        help="candidate run id (unique prefix is enough)")
    p_diff.add_argument("--wall-threshold", type=float, default=0.25,
                        metavar="FRACTION",
                        help="flag a wall-time regression when run B is "
                             "more than this fraction slower than run A "
                             "(and slower by at least 0.5s of absolute "
                             "wall; default: 0.25)")
    p_diff.add_argument("--format", choices=["text", "json"],
                        default="text")
    p_diff.add_argument("--cache-dir", default=None,
                        help="where the run ledger lives (default: "
                             "$MC_CHECK_CACHE_DIR or ~/.cache/mc-check)")
    p_diff.set_defaults(func=cmd_diff)

    p_explain = sub.add_parser(
        "explain",
        help="show the path that produced one diagnostic")
    p_explain.add_argument("report", metavar="REPORT.json",
                           help="report written by 'check/metal "
                                "--format json'")
    p_explain.add_argument("error_id", metavar="ERROR-ID",
                           help="the diagnostic's id from the JSON report "
                                "(a unique prefix is enough)")
    p_explain.set_defaults(func=cmd_explain)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Piped into head/less that exited early: not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0
    except KeyboardInterrupt:
        # A second SIGINT/SIGTERM during the graceful drain: abort hard,
        # but still with the conventional interrupted status.
        print("mc-check: aborted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except ReproError as exc:
        # The tool (or its input plumbing) failed — distinct from "the
        # checked protocol has bugs" (exit 1).  Pack problems are the
        # user's manifest, not our bug: label them as such.
        from .packs import PackError
        kind = "pack error" if isinstance(exc, PackError) else \
            "internal error"
        print(f"mc-check: {kind}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
