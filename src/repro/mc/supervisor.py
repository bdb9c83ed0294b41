"""Supervision for the checker fleet: watchdog, retry, journal, resume.

The paper's value proposition is a *whole-program* sweep — every
checker down every path of every function — which at production scale
means runs long enough for the infrastructure itself to fail: a worker
process OOM-killed mid-item, a hung native extension, an operator's
Ctrl-C, a pre-empted batch job.  PR 2's fleet handled none of that: a
dead worker raised ``BrokenProcessPool`` up through the run, and a
killed run lost everything not already cached.  This module wraps the
fleet in a supervisor so the run survives its own machinery:

- **watchdog**: every in-flight item has a wall-clock timeout; a hung
  worker is killed and respawned, a crashed worker (process death, pipe
  EOF) is detected and replaced — the pool never wedges;
- **retry with backoff**: a crashed/hung item is re-dispatched with
  exponential backoff plus seeded jitter; after ``max_retries``
  failures it is poison-quarantined as a ``Quarantine(phase="worker")``
  record flowing into the existing DEGRADED reporting, and the run
  continues;
- **graceful shutdown**: SIGINT/SIGTERM stop dispatch, drain in-flight
  items, flush a partial report, and exit with a distinct code (130);
  a second signal aborts hard;
- **run journal**: an append-only manifest of completed items' cache
  keys (``<cache-dir>/runs/<run-id>.jsonl``) makes every run
  resumable: ``mc-check check --resume RUN-ID`` replays those items
  from the cache and re-dispatches only the remainder, with the
  resumed report byte-identical to an uninterrupted run (the same
  determinism contract as ``--jobs``).

Failure taxonomy: worker *death* (crash/hang/timeout) is an
infrastructure failure and is retried; an *exception* inside a worker
(parse error, checker crash without ``--keep-going``) is deterministic
— retrying would only reproduce it — and is re-raised in the parent as
:class:`~repro.errors.WorkerFailure`; an unreadable input is
quarantined per item by the worker itself (``phase="input"``).

Deterministic testing comes from :mod:`repro.faults.worker`: a
``FaultPlan`` with ``worker_crash``/``worker_hang``/``worker_slow``
rules is shipped to the workers and perturbs them on schedule, so every
supervisor behaviour has a seeded, repeatable trigger.
"""

from __future__ import annotations

import json
import os
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from typing import TYPE_CHECKING, Callable, Optional

from ..errors import ReproError, WorkerFailure
from .cache import ResultCache

if TYPE_CHECKING:
    from ..faults.plan import FaultPlan

#: Journal schema; bump when the record shape changes.
#: v2: header carries the run's configuration (engine/feasibility/
#: frontend) so ``--resume`` can refuse a run replayed under different
#: analysis settings instead of silently mixing results.
#: v3: key-only records over the result cache; config names the command.
JOURNAL_SCHEMA = 3

#: Retry backoff: ``BACKOFF_BASE * BACKOFF_FACTOR**attempt`` seconds,
#: plus up to ``BACKOFF_JITTER`` of it again, the jitter seeded by
#: (``BACKOFF_SEED``, item, attempt) so runs repeat.
BACKOFF_BASE = 0.05
BACKOFF_FACTOR = 2.0
BACKOFF_JITTER = 0.25
BACKOFF_SEED = 0

#: Parent poll granularity (result wait, watchdog checks), in seconds.
POLL_INTERVAL = 0.05

#: A worker that has owned its item for longer than this (seconds) is
#: shown as *stalled* by ``--progress`` — the human-facing twin of the
#: watchdog's ``item_timeout``, read from the same ``started_at`` clock.
STALL_AFTER = 10.0


class SupervisorUnavailable(Exception):
    """No worker process could be spawned (restricted sandbox, missing
    primitives); the caller degrades to inline execution."""


# -- run control -------------------------------------------------------------

class StopFlag:
    """A cooperative stop request, set by signal handlers or tests."""

    def __init__(self) -> None:
        self.stop_requested = False
        self.reason = ""

    def request(self, reason: str = "stop requested") -> None:
        self.stop_requested = True
        self.reason = reason


@contextmanager
def graceful_shutdown(flag: StopFlag):
    """Install SIGINT/SIGTERM handlers that set ``flag`` instead of
    killing the process; a second signal aborts hard.

    Restores the previous handlers on exit.  A no-op where handlers
    cannot be installed (non-main thread).
    """
    previous: dict[int, object] = {}

    def handler(signum, _frame):
        if flag.stop_requested:
            raise KeyboardInterrupt
        try:
            name = signal.Signals(signum).name
        except ValueError:  # pragma: no cover - unknown signal number
            name = str(signum)
        flag.request(f"received {name}")

    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[sig] = signal.signal(sig, handler)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass
    try:
        yield flag
    finally:
        for sig, old in previous.items():
            try:
                signal.signal(sig, old)
            except (ValueError, OSError):  # pragma: no cover
                pass


@dataclass
class SupervisorPolicy:
    """Everything tunable about supervision, with safe defaults."""

    #: Wall-clock seconds one attempt of one item may run; ``None``
    #: disables the watchdog (workers are still replaced on death).
    item_timeout: Optional[float] = None
    #: Re-dispatches after the first attempt; past that, quarantine.
    max_retries: int = 2
    #: Worker-site fault rules shipped to every worker (testing).
    fault_plan: Optional[FaultPlan] = None
    #: Signal-driven stop request (see :func:`graceful_shutdown`).
    stop_flag: Optional[StopFlag] = None
    #: Test hook: behave as if a signal arrived after N completions.
    stop_after_items: Optional[int] = None

    def should_stop(self, completed: int) -> bool:
        if self.stop_flag is not None and self.stop_flag.stop_requested:
            return True
        return (self.stop_after_items is not None
                and completed >= self.stop_after_items)

    def stop_reason(self) -> str:
        if self.stop_flag is not None and self.stop_flag.reason:
            return self.stop_flag.reason
        return "stop requested"

    def backoff(self, item_index: int, attempt: int) -> float:
        delay = BACKOFF_BASE * (BACKOFF_FACTOR ** attempt)
        jitter = Random(f"{BACKOFF_SEED}:{item_index}:{attempt}").random()
        return delay * (1.0 + BACKOFF_JITTER * jitter)


@dataclass
class RunStats:
    """Supervision accounting for one run (shown in the summary line)."""

    completed: int = 0      # items executed to a payload this run
    replayed: int = 0       # journaled items read from the store (--resume)
    retried: int = 0        # re-dispatches after a crash/hang
    crashes: int = 0        # worker deaths observed
    timeouts: int = 0       # hung workers killed by the watchdog
    quarantined: int = 0    # items poisoned after max_retries failures
    interrupted: bool = False
    stop_reason: str = ""

    def noteworthy(self) -> bool:
        return bool(self.replayed or self.retried or self.crashes
                    or self.timeouts or self.quarantined or self.interrupted)


# -- the run journal ---------------------------------------------------------

def new_run_id() -> str:
    """Sortable-by-time, collision-resistant run identifier."""
    return time.strftime("%Y%m%d-%H%M%S") + "-" + os.urandom(3).hex()


class RunJournal:
    """Append-only JSONL manifest of one run's completed work items.

    Line 1 is a header (``{"run", "schema", "created", "config"}``);
    every later line is ``{"key"}``: the content-hash key of one
    complete item whose payload :meth:`record` put into ``store``, the
    result cache in the directory holding ``runs/``, before appending
    the key as one ``write``+``flush``+``fsync``.  A run killed
    mid-append leaves at most one truncated tail line, which
    :meth:`resume` skips and the next append terminates.  A resumed run
    may read exactly the listed keys (``key in journal``) from the
    store; a listed entry that is missing, stale or corrupt there is a
    miss, so the item is recomputed rather than replayed.
    """

    def __init__(self, path: Path, run_id: str, keys=(),
                 partial_tail: bool = False):
        self.path = Path(path)
        self.run_id = run_id
        self.store = ResultCache(self.path.parent.parent)
        self._keys: set[str] = set(keys)
        self._partial_tail = partial_tail
        self._fh = None
        self.disabled = False

    # -- construction -------------------------------------------------------

    @classmethod
    def create(cls, root: Path, run_id: Optional[str] = None,
               config: Optional[dict] = None) -> Optional["RunJournal"]:
        """Start a fresh journal under ``root``; ``None`` if the
        directory is unwritable (a read-only cache never fails a run).

        ``config`` records the run's command and analysis settings
        (feasibility, frontend) in the header so a later ``--resume``
        of another command or under different settings is refused
        rather than mixing payloads computed under two configurations.
        """
        run_id = run_id or new_run_id()
        root = Path(root)
        journal = cls(root / f"{run_id}.jsonl", run_id)
        header = {"run": run_id, "schema": JOURNAL_SCHEMA,
                  "created": time.time()}
        if config:
            header["config"] = dict(config)
        try:
            root.mkdir(parents=True, exist_ok=True)
            journal._append(header)
        except OSError:
            return None
        return journal

    @classmethod
    def resume(cls, root: Path, run_id: str,
               config: Optional[dict] = None) -> "RunJournal":
        """Reopen an interrupted run's journal for replay + append.

        When both the header and the caller supply ``config``, every key
        present in both must agree; a mismatch (e.g. the run was started
        with ``--feasibility on`` and resumed with ``--feasibility off``,
        or a ``check`` run resumed by ``metal``) raises
        :class:`ReproError` naming the recorded setting.  Headers
        without a config (or callers passing none) skip the check.
        """
        path = Path(root) / f"{run_id}.jsonl"
        try:
            text = path.read_text()
        except OSError as exc:
            raise ReproError(
                f"no journal for run {run_id!r} under {Path(root)}: {exc}"
            ) from None
        keys: set[str] = set()
        header: Optional[dict] = None
        for line in text.splitlines():
            try:
                obj = json.loads(line)
            except ValueError:
                continue  # truncated tail from a mid-append kill
            if not isinstance(obj, dict):
                continue
            if header is None and "run" in obj:
                header = obj
            elif isinstance(obj.get("key"), str):
                keys.add(obj["key"])
        if header is None or header.get("schema") != JOURNAL_SCHEMA:
            raise ReproError(
                f"journal {path} is from an incompatible schema; "
                f"rerun without --resume")
        recorded = header.get("config")
        if config and isinstance(recorded, dict):
            for key in sorted(config):
                if key in recorded and recorded[key] != config[key]:
                    raise ReproError(
                        f"run {run_id!r} was recorded with "
                        f"{key}={recorded[key]!r} but --resume asked for "
                        f"{key}={config[key]!r}; rerun without --resume "
                        f"or restore the original setting")
        return cls(path, run_id, keys, partial_tail=not text.endswith("\n"))

    # -- replay + append -----------------------------------------------------

    def __contains__(self, key) -> bool:
        return key in self._keys

    def record(self, key: str, payload: dict) -> None:
        if not self.store.put(key, payload) or self.disabled:
            return
        if key in self._keys:
            return  # listed by the run we resumed; re-stored after a miss
        try:
            self._append({"key": key})
        except OSError:
            # Disk full / journal dir revoked: the run outlives its
            # journal, it just stops being resumable past this point.
            self.disabled = True
            return
        self._keys.add(key)

    def _append(self, obj: dict) -> None:
        if self._fh is None:
            self._fh = self.path.open("a")
            if self._partial_tail:
                self._fh.write("\n")  # end a mid-append kill's torn line
        self._fh.write(json.dumps(obj, separators=(",", ":")) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:  # pragma: no cover
                pass
            self._fh = None


def default_runs_dir(cache_dir: Optional[Path] = None) -> Path:
    """Where journals live: ``<cache-dir>/runs``."""
    from .cache import default_cache_dir
    base = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    return base / "runs"


# -- the supervised pool -----------------------------------------------------

class _Worker:
    """One supervised worker process and its private pipe."""

    __slots__ = ("process", "conn", "current", "started_at", "units")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.current = None        # (item, attempt) while busy
        self.started_at = 0.0
        #: The units of the item this process was sent last: its parse
        #: memo holds their ASTs, so more work on them costs no parse.
        self.units: set = set()


def _worker_main(config, conn) -> None:
    """Entry point of a supervised worker process.

    Arms the per-process parse memo, the engine's feasibility default
    (``WorkerConfig.feasibility``, applied by ``_init_worker`` so every
    execution mode — inline, pool, supervised — analyses identically),
    and (if the config carries a plan) worker-level fault injection,
    then serves ``(index, attempt, item)`` requests until the sentinel
    or EOF.  Before an item over units it has not parsed, it drops the
    units it has (:func:`repro.lang.memo.make_room_for`): affinity
    (:func:`_pick`) has sent it every ready item over those, so its
    memory is one item's units, whichever units timing handed it.
    Ignores SIGINT so a terminal Ctrl-C (delivered to the whole process
    group) leaves workers alive for the parent's graceful drain.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover
        pass
    from . import parallel
    from ..lang.memo import make_room_for
    parallel._init_worker(config)
    parallel._arm_worker_faults(config)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        index, attempt, item = message
        parallel._WORKER_ATTEMPT = attempt
        make_room_for(item.paths)
        try:
            response = (index, "ok", parallel._execute_item(item, config))
        except Exception as exc:
            response = (index, "error", {
                "error_type": type(exc).__name__, "message": str(exc)})
        try:
            conn.send(response)
        except (BrokenPipeError, OSError):
            return


def _spawn(ctx, config) -> _Worker:
    parent_conn, child_conn = ctx.Pipe()
    process = ctx.Process(target=_worker_main, args=(config, child_conn),
                          daemon=True)
    process.start()
    child_conn.close()
    return _Worker(process, parent_conn)


def _reap(worker: _Worker, kill: bool = False) -> None:
    """Shut one worker down; escalate terminate → kill as needed."""
    try:
        worker.conn.close()
    except OSError:  # pragma: no cover
        pass
    process = worker.process
    if process.is_alive() and kill:
        process.terminate()
    process.join(timeout=1.0)
    if process.is_alive():
        process.kill()
        process.join(timeout=1.0)


def _pick(queue: list, now: float, mine: set, others: set):
    """Queue position of the entry an idle worker takes next, or
    ``None`` when no entry's backoff delay has elapsed.

    Worker affinity, so each unit is parsed by as few processes as
    possible.  In order of preference: the first ready entry whose
    units the worker (``mine``) holds all of; else the first one none
    of whose units any other worker (``others``) holds; else the first
    ready entry.  A fault-free run of
    per-unit items parses each unit once, plus once more each time an
    idle worker finds every remaining unit started by another; with
    two workers, that happens at most once."""
    fresh = first = None
    for position, (item, _attempt, not_before) in enumerate(queue):
        if not_before > now:
            continue
        if mine.issuperset(item.paths):
            return position
        if fresh is None and others.isdisjoint(item.paths):
            fresh = position
        if first is None:
            first = position
    return fresh if fresh is not None else first


def supervise_items(pending: list, config, jobs: int,
                    policy: SupervisorPolicy, stats: RunStats,
                    payloads: dict, record: Callable,
                    quarantine_payload: Callable,
                    skipped_payload: Callable,
                    progress=None) -> None:
    """Run ``pending`` work items under supervision, filling ``payloads``.

    ``record(item, payload)`` persists each fresh completion (into the
    store, through the journal when there is one);
    ``quarantine_payload(item, error_type, message)`` and
    ``skipped_payload(item, note)`` build kind-aware degraded payloads
    for poisoned and interrupted items.  ``progress`` (a
    :class:`repro.obs.progress.ProgressReporter`) receives a ``tick``
    from every pass of the poll loop, with the pool's size and how many
    of its workers have held their item past :data:`STALL_AFTER` — pure
    stderr output, never an input to the analysis.  Raises
    :class:`SupervisorUnavailable` (before consuming any work) when no
    worker can be spawned, and :class:`WorkerFailure` when a worker
    reports a deterministic exception.
    """
    from .parallel import _mp_context

    ctx = _mp_context()
    workers: list[_Worker] = []
    try:
        for _ in range(min(jobs, len(pending))):
            workers.append(_spawn(ctx, config))
    except Exception as exc:
        for worker in workers:
            _reap(worker, kill=True)
        raise SupervisorUnavailable(str(exc)) from None

    import multiprocessing.connection as mp_connection

    #: (item, attempt, not_before) — pending keeps largest-first order;
    #: retries append with their backoff deadline.
    queue: list = [(item, 0, 0.0) for item in pending]
    unresolved = {item.index for item in pending}
    stopping = False

    def fail(worker: _Worker, kind: str) -> None:
        """One attempt died (``crash``) or hung (``timeout``)."""
        nonlocal stopping
        item, attempt = worker.current
        worker.current = None
        if kind == "timeout":
            stats.timeouts += 1
        else:
            stats.crashes += 1
        _reap(worker, kill=True)
        workers.remove(worker)
        if not stopping and unresolved:
            try:
                workers.append(_spawn(ctx, config))
            except Exception:
                pass  # degraded pool; remaining workers carry on
        if stopping:
            return  # the skip sweep below marks it interrupted
        if attempt >= policy.max_retries:
            message = (f"worker {kind} on attempt {attempt + 1}; "
                       f"quarantined after {policy.max_retries} retries")
            payloads[item.index] = quarantine_payload(
                item, "WorkerTimeout" if kind == "timeout" else "WorkerCrash",
                message)
            unresolved.discard(item.index)
            stats.quarantined += 1
        else:
            stats.retried += 1
            queue.append((item, attempt + 1,
                          time.monotonic() + policy.backoff(item.index,
                                                            attempt)))

    try:
        while unresolved:
            now = time.monotonic()
            if not stopping and policy.should_stop(stats.completed):
                stopping = True
                stats.interrupted = True
                stats.stop_reason = policy.stop_reason()
                queue.clear()
            # Dispatch ready work to idle workers.
            if not stopping:
                for worker in list(workers):
                    if worker.current is not None:
                        continue
                    others = set().union(*(other.units for other in workers
                                           if other is not worker))
                    position = _pick(queue, now, worker.units, others)
                    if position is None:
                        break
                    item, attempt, _ = queue.pop(position)
                    try:
                        worker.conn.send((item.index, attempt, item))
                    except (BrokenPipeError, OSError):
                        # Died while idle: charge the attempt to the
                        # item (fail() requeues or quarantines it) and
                        # replace the worker.
                        worker.current = (item, attempt)
                        fail(worker, "crash")
                        continue
                    worker.current = (item, attempt)
                    worker.started_at = now
                    worker.units = set(item.paths)
            busy = [worker for worker in workers
                    if worker.current is not None]
            if progress is not None:
                progress.tick(stats, busy=len(busy), workers=len(workers),
                              stalled=sum(1 for worker in busy
                                          if now - worker.started_at
                                          > STALL_AFTER))
            if not busy:
                if stopping or not unresolved:
                    break
                if not queue:  # pragma: no cover - defensive
                    break
                time.sleep(POLL_INTERVAL)  # everyone backing off
                continue
            try:
                ready = mp_connection.wait(
                    [worker.conn for worker in busy],
                    timeout=POLL_INTERVAL)
            except OSError:  # pragma: no cover - racing a dead pipe
                ready = []
            now = time.monotonic()
            for worker in busy:
                if worker.conn in ready:
                    try:
                        index, status, payload = worker.conn.recv()
                    except (EOFError, OSError):
                        fail(worker, "crash")
                        continue
                    item, _attempt = worker.current
                    worker.current = None
                    if status == "ok":
                        payloads[index] = payload
                        unresolved.discard(index)
                        stats.completed += 1
                        record(item, payload)
                    else:
                        raise WorkerFailure(
                            f"work item failed with {payload['error_type']}: "
                            f"{payload['message']}")
                elif not worker.process.is_alive():
                    fail(worker, "crash")
                elif (policy.item_timeout is not None
                        and now - worker.started_at > policy.item_timeout):
                    fail(worker, "timeout")
    finally:
        for worker in list(workers):
            if worker.current is None:
                try:
                    worker.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
                _reap(worker)
            else:
                _reap(worker, kill=True)

    if stopping:
        note = f"not analysed — run interrupted ({stats.stop_reason})"
        for item in pending:
            if item.index in unresolved:
                payloads[item.index] = skipped_payload(item, note)
