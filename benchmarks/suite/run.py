#!/usr/bin/env python3
"""The mc-check benchmark: four workloads, one closed-loop client.

Usage (from the repository root)::

    python3 benchmarks/suite/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1] [--out RESULTS.json]

Each run generates the workload's FLASH protocols from ``--seed``,
writes them into a private work directory under ``.bench_work/``, and
drives the real ``mc-check`` CLI there: one subprocess at a time, each
with a private ``--cache-dir`` and ``--format json``.  Every report is
checked against the generator's ground-truth manifest
(``oracle.py``).  Loop iterations repeat until ``--seconds`` would be
exceeded (at least one).  The run is pinned to the CPUs its ``--jobs``
needs, each timing sample is scaled to a reference CPU speed measured
alongside it (``SpeedMonitors``), and medians are reported.
``--trace 1`` adds one in-process iteration with spans around every
layer (``layers.py``), written to ``.bench_out/trace.jsonl``.

Without ``--workload`` every workload runs.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and the metrics
``BENCHMARK.json`` names (end-to-end ones, or per-layer ones with
``--trace 1``).  ``--out`` appends the full run records to a results
file that ``compare.py`` reads.  Exit status: 0 when every verdict is
right and no invocation failed, 1 otherwise, 2 when the checkout has no
``mc-check`` sources, 3 when the workload needs more CPUs than are
usable.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path
from random import Random

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
sys.path.insert(0, str(SUITE))

import corpus  # noqa: E402
import layers  # noqa: E402
from oracle import Oracle, crosstab_disagreements, failure  # noqa: E402

#: Environment variables that would change what ``mc-check`` does.
SCRUBBED = ("MC_CHECK_JOBS", "MC_CHECK_NO_CACHE", "MC_CHECK_CACHE_DIR",
            "MC_CHECK_PACK_PATH")
#: Input set-ups timed after each loop iteration, besides the one that
#: makes the run's inputs; ``setup_s`` is the median of them all.
SETUPS_PER_ITERATION = 3
#: Unchanged re-checks per loop iteration: they are short, so two per
#: iteration give ``noop_s`` a steadier median.
NOOPS = 2
#: ``mc-check --version`` runs behind ``cli.startup_s``.
STARTUP_RUNS = 10
#: No single invocation may take longer (the run must end in 180 s).
INVOCATION_TIMEOUT = 150.0
#: How often each speed monitor times the probe (see ``SpeedMonitors``).
PROBE_PERIOD = 0.02
#: The probe's time on an uncontended core of the reference machine
#: (2.1-GHz Xeon, Python 3.11.7: the 10th percentile of 938 probes
#: over 20 s on an otherwise idle CPU).  Timings are reported in
#: seconds at that speed.
PROBE_REFERENCE_S = 0.9e-3


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# -- invocations --------------------------------------------------------------

class Invocation:
    """One ``mc-check`` call and what the oracle made of it."""

    def __init__(self, kind, args, start, wall, cpu, rss_kb, code, stdout,
                 stderr, expect_doc=True):
        self.kind = kind        # prepare/pass/noop/startup
        self.args = args
        self.start = start      # time.perf_counter() when it began
        self.wall = wall
        self.cpu = cpu
        self.rss_kb = rss_kb
        self.stdout = stdout
        self.failure, self.doc = failure(code, stderr, stdout, expect_doc)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


#: Times one command and writes ``exit start wall cpu maxrss_kb`` to
#: argv[1].  Linux carries the exec-ing process's peak RSS into the
#: child's ``ru_maxrss``, so ``mc-check`` is started from this small
#: process rather than from the benchmark, whose own memory would
#: otherwise be read as the program's.
_LAUNCHER = """\
import os, sys, time
start = time.perf_counter()
pid = os.posix_spawn(sys.argv[2], sys.argv[2:], os.environ)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
with open(sys.argv[1], "w") as fh:
    fh.write(f"{os.waitstatus_to_exitcode(status)} {start!r} {wall!r} "
             f"{usage.ru_utime + usage.ru_stime!r} {usage.ru_maxrss}")
"""


def spawn(args, env: dict, work: Path) -> tuple:
    """Run ``python -m repro.cli ARGS`` in its own session, stdout and
    stderr to files in ``work``; returns ``(exit code, start, wall
    seconds, CPU seconds, peak RSS in KiB)``, ``start`` on the
    ``time.perf_counter`` clock.  CPU and RSS include the reaped fleet
    workers."""
    result = work / "result"
    result.unlink(missing_ok=True)
    argv = [sys.executable, "-S", "-c", _LAUNCHER, str(result),
            sys.executable, "-m", "repro.cli", *args]
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(work / "stdout"),
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600),
        (os.POSIX_SPAWN_OPEN, 2, str(work / "stderr"),
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600),
    ]
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions,
                         setsid=True)
    watchdog = threading.Timer(INVOCATION_TIMEOUT, _kill_group, (pid,))
    watchdog.start()
    try:
        os.wait4(pid, 0)
    except BaseException:
        _kill_group(pid)
        os.wait4(pid, 0)
        raise
    finally:
        watchdog.cancel()
        # A crashed CLI can leave workers behind; its session dies too.
        _kill_group(pid)
    try:
        code, start, wall, cpu, rss = result.read_text().split()
    except (OSError, ValueError):
        return (-signal.SIGKILL, time.perf_counter(), INVOCATION_TIMEOUT,
                0.0, 0)
    return int(code), float(start), float(wall), float(cpu), int(rss)


# -- speed monitors -----------------------------------------------------------

#: Times the probe, a fixed pure-Python loop, every argv[3] seconds on
#: CPU argv[1], appending ``start seconds`` lines to argv[2]; exits
#: when its parent does.
_MONITOR = """\
import os, sys, time

def probe():
    s = 0
    for i in range(15000):
        s += i * i % 7
    return s

os.sched_setaffinity(0, {int(sys.argv[1])})
parent, period = os.getppid(), float(sys.argv[3])
with open(sys.argv[2], "w", buffering=1) as out:
    while os.getppid() == parent:
        time.sleep(period)
        start = time.perf_counter()
        probe()
        out.write(f"{start!r} {time.perf_counter() - start!r}\\n")
"""


class SpeedMonitors:
    """One monitor process pinned to each CPU the run's work is pinned
    to, timing the probe every ``PROBE_PERIOD`` seconds.

    On a shared host other tenants slow the same work by up to 2x, in
    bursts that come and go within a second on each CPU and whose share
    of the time drifts over minutes, so raw times follow the host.  The
    probe runs on the same CPUs at the same time as the work and slows
    with it; ``slowdown(start, end)`` is how much slower than
    ``PROBE_REFERENCE_S`` it ran over an interval, and a time divided by
    it is what the work would have taken at the reference speed."""

    def __init__(self, cpus, work: Path):
        self.paths = [work / f"probe-{cpu}" for cpu in cpus]
        self.procs = [subprocess.Popen(
            [sys.executable, "-S", "-c", _MONITOR, str(cpu), str(path),
             str(PROBE_PERIOD)], stdin=subprocess.DEVNULL)
            for cpu, path in zip(cpus, self.paths)]
        self.starts, self.times = [], []

    def stop(self) -> None:
        """Stop every monitor, wait for it, and load its probes."""
        for proc in self.procs:
            proc.terminate()
        for proc in self.procs:
            proc.wait()
        if not self.procs:
            return
        self.procs = []
        probes = []
        for path in self.paths:
            for line in path.read_text().splitlines():
                fields = line.split()
                if len(fields) == 2:   # the last line may be cut short
                    probes.append((float(fields[0]), float(fields[1])))
        probes.sort()
        self.starts = [start for start, _ in probes]
        self.times = [seconds for _, seconds in probes]

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def slowdown(self, start: float, end: float) -> float:
        """Mean probe time over ``[start, end]`` (widened to at least
        four probes) relative to ``PROBE_REFERENCE_S``."""
        if not self.times:
            raise RuntimeError("the speed monitors recorded no probe")
        lo = bisect.bisect_left(self.starts, start - PROBE_PERIOD)
        hi = bisect.bisect_right(self.starts, end + PROBE_PERIOD)
        while hi - lo < 4 and (lo > 0 or hi < len(self.times)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.times))
        return statistics.mean(self.times[lo:hi]) / PROBE_REFERENCE_S


def _reset_process_state() -> None:
    """Drop the process-wide memos so an in-process invocation does the
    work a fresh ``mc-check`` process would."""
    from repro import project
    from repro.lang import clear_memo
    from repro.mc import clear_function_summaries, parallel
    from repro.mc.cache import clear_fingerprint_memo

    clear_memo()
    clear_function_summaries()
    clear_fingerprint_memo()
    project._HEADER_CACHE.clear()
    parallel._SPEC_MEMO.clear()
    parallel._SM_MEMO.clear()


class Run:
    """One benchmark run of one workload: its inputs, every invocation,
    and every wrong verdict found."""

    def __init__(self, seed: int, work: Path, env: dict):
        self.seed = seed
        self.work = work
        self.env = env
        self.protocols: dict = {}
        self.oracle = None
        self.invocations: list = []
        self.wrong: list = []
        self.references: dict = {}
        self.counters: dict = {}
        self.recorder = None
        self.spool = None
        self._dirs = 0

    def fresh_dir(self, stem: str) -> Path:
        self._dirs += 1
        path = self.work / f"{stem}-{self._dirs}"
        path.mkdir()
        return path

    # -- calling mc-check ----------------------------------------------------

    def mc_check(self, kind: str, *args, expect_doc: bool = True):
        if self.recorder is None:
            code, start, wall, cpu, rss = spawn(args, self.env, self.work)
            invocation = Invocation(
                kind, args, start, wall, cpu, rss, code,
                (self.work / "stdout").read_text(),
                (self.work / "stderr").read_text(), expect_doc)
        else:
            invocation = self._in_process(kind, args, expect_doc)
        self.invocations.append(invocation)
        return invocation

    def _in_process(self, kind: str, args, expect_doc: bool):
        """Call ``repro.cli.main`` here, under the span recorder, with
        ``--metrics-out`` so the program's own counters join the spans."""
        from repro import cli

        metrics = self.spool / f"metrics-{len(self.invocations)}.json"
        argv = [args[0], "--metrics-out", str(metrics), *args[1:]]
        _reset_process_state()
        gc.collect()
        self.recorder.invocation = len(self.invocations)
        out, err = io.StringIO(), io.StringIO()
        cpu0 = time.process_time()
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            code = 2
            err.write(traceback.format_exc())
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu0
        if metrics.exists():
            snapshot = json.loads(metrics.read_text())
            for name, value in snapshot.get("counters", {}).items():
                self.counters[name] = self.counters.get(name, 0) + value
            for name, hist in snapshot.get("histograms", {}).items():
                key = f"{name}.sum"
                self.counters[key] = self.counters.get(key, 0) + hist["sum"]
        return Invocation(kind, tuple(argv), start, wall, cpu, 0, code,
                          out.getvalue(), err.getvalue(), expect_doc)

    def check(self, kind: str, name: str, cache: Path, jobs: int):
        """``mc-check check`` over one protocol, verdicts checked."""
        protocol = self.protocols[name]
        invocation = self.mc_check(
            kind, "check", "--spec", protocol.spec, "--cache-dir", str(cache),
            "--format", "json", "--jobs", str(jobs), *protocol.units)
        if invocation.failure is None:
            reference = self.references.setdefault(name, invocation.doc)
            for site in self.oracle.wrong_verdicts(name, invocation.doc,
                                                   reference):
                self.wrong.append(f"{kind} {name}: {site[0]}:{site[1]} "
                                  f"{site[2]}")
        return invocation

    def noops(self, name: str, cache: Path, jobs: int) -> None:
        """``NOOPS`` unchanged re-checks of ``name`` against ``cache``."""
        for _ in range(NOOPS):
            self.check("noop", name, cache, jobs)


# -- workloads ----------------------------------------------------------------

#: The protocol every timed invocation checks: the smallest one
#: (10.4 KLOC, ~2.5 s cold), so a 20-s window holds several samples
#: for a steady median; and the one whose static reports campaigns
#: really confirm.
TIMED = "bitvector"


class Workload:
    """A workload materialises ``protocols``, runs ``prepare(run)``
    once, untimed, then ``iteration(run)`` — one step of the closed
    loop — until the window closes; ``traced`` is its traced pass."""

    jobs = 1
    protocols = (TIMED,)

    def input_seed(self, seed: int) -> int:
        return seed

    def traced(self, run: Run) -> None:
        self.iteration(run)


class Cold(Workload):
    """A check with an empty cache, then an unchanged re-check against
    the cache that check filled."""

    def __init__(self, jobs: int, protocols: tuple):
        self.jobs = jobs
        self.protocols = protocols

    def prepare(self, run: Run) -> None:
        # Untimed warm-up over every materialised protocol.  cold_j2
        # materialises the whole corpus, so each of its runs also holds
        # all 34 seeded errors against the oracle (~13 s at --jobs 2).
        for name in self.protocols:
            run.check("prepare", name, run.fresh_dir("cache"), self.jobs)

    def iteration(self, run: Run) -> None:
        cache = run.fresh_dir("cache")
        run.check("pass", TIMED, cache, self.jobs)
        run.noops(TIMED, cache, self.jobs)


class Incremental(Workload):
    """The developer loop on a warm cache: unchanged re-checks, then a
    seeded-random function gets a comment on its header line and the
    protocol is re-checked.  The edited units take turns in a seeded
    order: an edit costs more in a bigger unit, and drawing units with
    replacement made a window's median depend on the seed."""

    def prepare(self, run: Run) -> None:
        self.cache = run.fresh_dir("cache")
        self.rng = Random(f"edit:{run.seed}")
        self.units = self.rng.sample(corpus.UNIT_SUFFIXES,
                                     len(corpus.UNIT_SUFFIXES))
        self.edits = 0
        run.check("prepare", TIMED, self.cache, self.jobs)

    def iteration(self, run: Run) -> None:
        run.noops(TIMED, self.cache, self.jobs)
        kind = self.units[self.edits % len(self.units)]
        self.edits += 1
        unit = run.protocols[TIMED].unit(kind)
        corpus.edit_function(run.work / unit, self.rng, str(self.edits))
        run.check("pass", TIMED, self.cache, self.jobs)


class Campaign(Workload):
    """``mc-check campaign`` on generated bitvector, cross-tabulated
    against the report of a set-up ``check``.

    The inputs are pinned (corpus seed 0xF1A5, campaign seed 7, the
    pairing the repository's docs and tests use) rather than drawn
    from the seed: a campaign's cost is dominated by how often a
    generated handler spins until the simulator's step budget stops it,
    which differed 3.4x between corpus seeds 1 and 5 and would swamp
    any change to the simulator."""

    CORPUS_SEED = 0xF1A5
    CAMPAIGN_SEED = 7
    RUNS = 10
    SHARD_SIZE = 5

    def input_seed(self, seed: int) -> int:
        return self.CORPUS_SEED

    def prepare(self, run: Run) -> None:
        self.cache = run.fresh_dir("cache")
        invocation = run.check("prepare", TIMED, self.cache, self.jobs)
        self.report = run.fresh_dir("report") / "report.json"
        self.report.write_text(invocation.stdout)

    def iteration(self, run: Run) -> None:
        protocol = run.protocols[TIMED]
        invocation = run.mc_check(
            "pass", "campaign", "--spec", protocol.spec,
            "--report", str(self.report), "--runs", str(self.RUNS),
            "--shard-size", str(self.SHARD_SIZE),
            "--campaign-seed", str(self.CAMPAIGN_SEED),
            "--no-cache", "--jobs", str(self.jobs), "--format", "json",
            *protocol.units)
        if invocation.failure is None:
            doc = invocation.doc
            if doc["counters"]["confirmed"] < 1:
                run.wrong.append("campaign: no static report confirmed")
            reference = run.references.setdefault("campaign", doc)
            for where in crosstab_disagreements(doc, reference):
                run.wrong.append(f"campaign: cross-tab differs at {where}")
        run.noops(TIMED, self.cache, self.jobs)

    def traced(self, run: Run) -> None:
        # The set-up check is traced too: it is the only place this
        # workload runs the frontend, engine and checkers in full.
        self.prepare(run)
        self.iteration(run)


WORKLOADS = {
    "cold_j1": lambda: Cold(1, (TIMED,)),
    "cold_j2": lambda: Cold(2, corpus.PROTOCOLS),
    "incremental": Incremental,
    "campaign": Campaign,
}


# -- one run ------------------------------------------------------------------

@contextmanager
def isolated(work: Path):
    """Run in ``work`` with every ``mc-check`` setting scrubbed from the
    environment and every default store pointed inside ``work``, so no
    run reads or writes the user's ``~/.cache/mc-check``.  Yields the
    environment for child processes; removes ``work`` afterwards."""
    saved_env = dict(os.environ)
    saved_cwd = os.getcwd()
    saved_tempdir = tempfile.tempdir
    (work / "tmp").mkdir(parents=True)
    try:
        for var in SCRUBBED:
            os.environ.pop(var, None)
        os.environ["XDG_CACHE_HOME"] = str(work / "xdg")
        os.environ["TMPDIR"] = tempfile.tempdir = str(work / "tmp")
        os.chdir(work)
        if Path("mc-check.toml").exists():
            raise RuntimeError(f"{work} holds an mc-check.toml")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        yield env
    finally:
        os.chdir(saved_cwd)
        os.environ.clear()
        os.environ.update(saved_env)
        tempfile.tempdir = saved_tempdir
        shutil.rmtree(work, ignore_errors=True)


def environment() -> dict:
    """The hardware and software a result was measured on."""
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    head = None
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"usable_cpus": usable_cpus(), "cpu_model": model,
            "python": sys.version.split()[0], "git_head": head}


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


@contextmanager
def pinned(cpus):
    """Pin this process, and so every process it starts, to ``cpus``."""
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)


def measure(run: Run, workload, seconds: float, between) -> list:
    """Loop iterations, calling ``between()`` after each, until one more
    would overrun ``seconds`` (at least one); returns each iteration's
    invocations."""
    iterations = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        first = len(run.invocations)
        workload.iteration(run)
        iterations.append(run.invocations[first:])
        between()
        now = time.perf_counter()
        if (now - start) + (now - began) > seconds:
            return iterations


def traced_pass(run: Run, workload, iterations: list) -> tuple:
    """One in-process pass with layer spans; returns ``(per-layer
    metrics, wall, (t0, spans by process))``."""
    startup = statistics.median(
        [run.mc_check("startup", "--version", expect_doc=False).wall
         for _ in range(STARTUP_RUNS)])
    run.recorder = layers.SpanRecorder()
    run.spool = run.fresh_dir("spool")
    first = len(run.invocations)
    try:
        with layers.installed(run.recorder, run.spool):
            t0 = time.perf_counter()
            workload.traced(run)
            wall = time.perf_counter() - t0
    finally:
        processes = {"main": [s for s in run.recorder.spans if s]}
        run.recorder = None
    processes.update(layers.worker_spans(run.spool))
    traced = run.invocations[first:]

    def loop_wall(invocations):
        return sum(i.wall for i in invocations if i.kind in ("pass", "noop"))

    overhead = (loop_wall(traced)
                / statistics.median([loop_wall(i) for i in iterations]) - 1)
    caches = {i.args[i.args.index("--cache-dir") + 1] for i in traced
              if "--cache-dir" in i.args}
    metrics = layers.layer_metrics(
        processes, run.counters, wall=wall, overhead=overhead,
        startup=startup, jobs=workload.jobs,
        cache_bytes=sum(_dir_bytes(Path(c)) for c in caches))
    return metrics, wall, (t0, processes)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 bench: dict) -> dict:
    """One run of one workload; the record ``--out`` stores."""
    workload = WORKLOADS[name]()
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "env": environment()}
    if workload.jobs > record["env"]["usable_cpus"]:
        record["skipped"] = (f"needs --jobs {workload.jobs}, only "
                             f"{record['env']['usable_cpus']} usable CPU(s)")
        return record
    record["env"]["loadavg_before"] = os.getloadavg()
    cpus = sorted(os.sched_getaffinity(0))[-workload.jobs:]
    record["env"]["pinned_cpus"] = cpus
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    with isolated(work) as env, pinned(cpus):
        run = Run(seed, work, env)
        with SpeedMonitors(cpus, work) as monitors:
            setups = []   # (start, seconds)

            def set_up(dest: Path) -> dict:
                start = time.perf_counter()
                protocols = corpus.materialise(workload.input_seed(seed),
                                               workload.protocols, dest, work)
                setups.append((start, time.perf_counter() - start))
                return protocols

            def set_up_again() -> None:
                # More set-up samples, spread over the window as the
                # invocations are: samples taken back to back all met
                # the same spell of contention, which the speed
                # scaling removes less well from 20-ms samples.
                for _ in range(SETUPS_PER_ITERATION):
                    set_up(work / "again")
                    shutil.rmtree(work / "again")

            run.protocols = set_up(work / "inputs")
            run.oracle = Oracle(run.protocols)
            start = time.perf_counter()
            workload.prepare(run)
            prepare_s = time.perf_counter() - start
            iterations = measure(run, workload, seconds, set_up_again)
        if trace:
            layer_values, traced_wall, spans = traced_pass(
                run, workload, iterations)

    record["env"]["loadavg_after"] = os.getloadavg()
    invocations = run.invocations
    failures = [f"{i.kind} {' '.join(i.args[:1])}: {i.failure}"
                for i in invocations if i.failure]
    timed = [i for it in iterations for i in it]
    passes = [i for i in timed if i.kind == "pass"]
    noops = [i for i in timed if i.kind == "noop"]
    raw = {
        "setup_s": [(start, s, s) for start, s in setups],
        "pass_s": [(i.start, i.wall, i.wall) for i in passes],
        "pass_cpu_s": [(i.start, i.wall, i.cpu) for i in passes],
        "noop_s": [(i.start, i.wall, i.wall) for i in noops],
    }
    # Each sample, taken over [start, start + wall], at the reference speed.
    samples = {metric: [value / monitors.slowdown(start, start + wall)
                        for start, wall, value in v]
               for metric, v in raw.items()}
    values = {metric: statistics.median(v) for metric, v in samples.items()}
    values["peak_rss_mb"] = max(i.rss_kb for i in invocations) / 1024
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    record.update({
        "correct": not run.wrong and not failures,
        "attempted": len(invocations),
        "failed": len(failures),
        "wrong_verdicts": len(run.wrong),
        "failed_frac": len(failures) / len(invocations),
        "wrong": run.wrong[:50],
        "failures": failures[:50],
        "metrics": {m: {"value": values[m], "unit": units[m]}
                    for m in units},
        "samples": samples,
        "raw_samples": {metric: [value for _, _, value in v]
                        for metric, v in raw.items()},
        "details": {
            "iterations": len(iterations),
            "prepare_s": prepare_s,
            "error_sites": sum(run.oracle.error_sites(p)
                               for p in run.protocols),
            "kloc": sum(p.loc for p in run.protocols.values()) / 1000,
            "mb": sum(p.size for p in run.protocols.values()) / 1e6,
        },
    })
    if name == "campaign" and "campaign" in run.references:
        doc = run.references["campaign"]
        record["details"]["confirmed_reports"] = doc["counters"]["confirmed"]
        record["details"]["sims_per_s"] = (Campaign.RUNS
                                           / values["pass_s"])
    if trace:
        layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        record["layers"] = {m: {"value": layer_values[m],
                                "unit": layer_units[m]}
                            for m in layer_units}
        record["layers_unlisted"] = {m: v for m, v in layer_values.items()
                                     if m not in layer_units}
        record["details"]["traced_wall_s"] = traced_wall
        record["spans"] = spans
    return record


# -- reporting ----------------------------------------------------------------

def _fmt(value) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def print_record(record: dict) -> None:
    name = record["workload"]
    if "skipped" in record:
        print(f"{name:12s} skipped: {record['skipped']}")
        return
    cells = [f"{m} {_fmt(v['value'])} {v['unit']}"
             for m, v in record["metrics"].items()]
    print(f"{name:12s} " + "  ".join(cells)
          + f"  [{record['details']['iterations']} iteration(s), "
            f"{record['attempted']} invocations, "
            f"wrong_verdicts {record['wrong_verdicts']}, "
            f"failed_frac {_fmt(record['failed_frac'])}]")
    for line in record["wrong"] + record["failures"]:
        print(f"{'':12s} ! {line}")
    if "layers" in record:
        for metric, v in record["layers"].items():
            print(f"{'':12s} {metric:40s} {_fmt(v['value']):>12s} "
                  f"{v['unit']}")


def append_results(path: Path, records: list) -> None:
    """Add ``records`` to the results file at ``path`` (created if
    missing) — a set of runs ``compare.py`` reads."""
    doc = {"schema": 1, "runs": []}
    if path.exists():
        doc = json.loads(path.read_text())
    doc["runs"].extend({k: v for k, v in r.items() if k != "spans"}
                       for r in records)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")


def summary_line(records: list, trace: bool) -> dict:
    """The contract's last line; metric names are prefixed with the
    workload when more than one ran."""
    kind = "layers" if trace else "metrics"
    ran = [r for r in records if "skipped" not in r]
    metrics = {}
    for record in ran:
        for metric, value in record[kind].items():
            key = metric if len(records) == 1 else \
                f"{record['workload']}.{metric}"
            metrics[key] = value
    return {"correct": all(r["correct"] for r in ran),
            "attempted": sum(r["attempted"] for r in ran),
            "failed": sum(r["failed"] for r in ran),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark mc-check over the generated FLASH corpus.")
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=lambda v: int(v, 0), default=0xF1A5,
                        help="input seed (default 0xF1A5)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed window per workload (default: "
                             "run_seconds from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add the traced in-process pass and report "
                             "the per-layer metrics")
    parser.add_argument("--out", type=Path, default=None,
                        help="append the full run records to this file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"run.py: no mc-check sources under {ROOT / 'src'}; run it "
              "from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # SIGTERM unwinds like an error: the running mc-check's session is
    # killed and reaped, and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = (args.seconds if args.seconds is not None
               else bench["run_seconds"])
    names = [args.workload] if args.workload else list(WORKLOADS)

    records = []
    for name in names:
        print(f"run.py: {name} (seed {args.seed})", file=sys.stderr,
              flush=True)
        record = run_workload(name, args.seed, seconds, bool(args.trace),
                              bench)
        records.append(record)
        print_record(record)
    if args.trace:
        out = ROOT / ".bench_out" / "trace.jsonl"
        count = layers.write_trace(out, [(r["workload"], *r["spans"])
                                         for r in records if "spans" in r])
        print(f"run.py: {count} spans -> {out}", file=sys.stderr)
    if args.out is not None:
        append_results(args.out, records)
    if all("skipped" in r for r in records):
        print(f"run.py: {records[0]['skipped']}", file=sys.stderr)
        return 3
    line = summary_line(records, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] and not line["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
