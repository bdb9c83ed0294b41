"""Engine scaling: the sliced summary walk vs the exhaustive paths oracle.

The engine (``summary`` below) walks a checker-aware slice with function
summaries; the ``paths`` oracle is the same walk unsliced, selected by
patching ``repro.mc.engine._PATHS_ORACLE``.  Two claims ride on these
numbers (see ``docs/engine.md``):

* **Corpus speedup** — checking the paper's five-protocol corpus with
  the six state-machine checkers is several times faster with the
  engine than with the paths oracle, with *byte-identical* reports.
  Parse time is recorded separately — both walks consume the same
  parsed programs, so the ratio prices the analysis, not the frontend.  ``engine_seconds``
  counts time inside :func:`repro.mc.engine.run_machine` only (slicing,
  feasibility, and the walk itself); ``check_seconds`` adds the
  checkers' own applied-site counting around it.

* **Branch-depth sweep** — on a synthetic handler with a report site at
  the top and ``d`` tested-then-retested variables after it, the paths
  engine grows exponentially in ``d`` (feasibility stores diverge per
  branch combination, defeating the visited-set merge) while the
  summary engine stays flat: the machine's slice proves the whole tail
  dead and merges it away.  Paths timing is capped; depths past the cap
  record ``null``.

Writes ``BENCH_engine_scaling.json`` (checked in at the repo root).
Also runnable standalone: ``python benchmarks/bench_engine_scaling.py``.
"""

from __future__ import annotations

import gc
import importlib
import json
import time
from contextlib import contextmanager
from unittest import mock

from _timing import write_results

from repro.checkers import get_checker
from repro.checkers.metal_sources import FIGURE_2
from repro.flash.codegen import generate_protocol
from repro.lang import clear_memo
from repro.mc import clear_function_summaries
from repro.mc import engine as mc_engine
from repro.mc.engine import run_machine
from repro.metal.parser import parse_metal
from repro.metal.runtime import ReportSink
from repro.obs.metrics import MetricsRegistry, activate_metrics
from repro.project import Program

PROTOCOLS = ("bitvector", "dyn_ptr", "sci", "coma", "rac")
SM_CHECKERS = ("alloc-fail", "buffer-mgmt", "buffer-race", "directory",
               "msg-length", "send-wait")
#: The checker modules that bind ``run_machine`` by name; patched with a
#: stopwatch so ``engine_seconds`` isolates engine time from the
#: checkers' own applied-site counting.
_CHECKER_MODULES = ("alloc_fail", "buffer_mgmt", "buffer_race",
                    "directory", "msg_length", "send_wait")

OUTPUT = "BENCH_engine_scaling.json"
#: The CI perf gate: the best cold speedup (corpus or deep-branch
#: sweep) must clear this.
GATE_RATIO = 3.0
#: Regression floor for the corpus ratio alone (noise-safe: the corpus
#: is dominated by the merge-resistant path-end checkers; see
#: docs/engine.md).
CORPUS_FLOOR = 2.0
#: The acceptance target; met by the deep-branch sweep.
TARGET_RATIO = 5.0
#: Timed passes per engine, interleaved; minima are reported so one
#: noisy pass cannot sink the ratio.
ROUNDS = 2

SWEEP_DEPTHS = tuple(range(4, 21, 2))
#: Stop timing the paths engine once one depth exceeds this.
SWEEP_PATHS_CAP = 2.0


def _engine_mode(engine: str):
    """Run the block under ``"paths"`` (the oracle) or ``"summary"``."""
    return mock.patch.object(mc_engine, "_PATHS_ORACLE", engine == "paths")


@contextmanager
def _engine_stopwatch(acc: list):
    """Accumulate time spent inside ``run_machine`` into ``acc[0]``."""
    mods = [importlib.import_module(f"repro.checkers.{name}")
            for name in _CHECKER_MODULES]
    originals = [mod.run_machine for mod in mods]

    def wrap(original):
        def timed_run_machine(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                acc[0] += time.perf_counter() - start
        return timed_run_machine

    for mod, original in zip(mods, originals):
        mod.run_machine = wrap(original)
    try:
        yield
    finally:
        for mod, original in zip(mods, originals):
            mod.run_machine = original


def _corpus_pass(engine: str) -> tuple[dict, dict]:
    """One cold corpus run: parse the five protocols, run the six SM
    checkers, capture every report byte.  Returns (timings, output)."""
    clear_memo()
    clear_function_summaries()
    gc.collect()
    with _engine_mode(engine):
        parse_seconds = 0.0
        programs = []
        for name in PROTOCOLS:
            start = time.perf_counter()
            gp = generate_protocol(name)
            program = Program(dict(gp.files), info=gp.info)
            program.cfgs()
            parse_seconds += time.perf_counter() - start
            programs.append((name, program))

        engine_acc = [0.0]
        output: dict = {}
        with _engine_stopwatch(engine_acc):
            start = time.perf_counter()
            for name, program in programs:
                per_checker = {}
                for checker_name in SM_CHECKERS:
                    result = get_checker(checker_name).check(program)
                    per_checker[checker_name] = {
                        "applied": result.applied,
                        "reports": [str(r) for r in result.reports],
                        "suppressed": [[str(r), why]
                                       for r, why in result.suppressed],
                    }
                output[name] = per_checker
            check_seconds = time.perf_counter() - start

    timings = {
        "parse_seconds": round(parse_seconds, 4),
        "check_seconds": round(check_seconds, 4),
        "engine_seconds": round(engine_acc[0], 4),
    }
    return timings, output


def _sweep_source(depth: int) -> str:
    """A handler whose only checkable site is at the top: an unwaited
    data-buffer read, followed by ``depth`` variables each tested,
    conditionally reassigned, and tested again — so every feasibility
    fact stays relevant across the middle of the function and the paths
    engine's visited set sees ``2^depth`` distinct stores."""
    lines = ["void sweep_handler(long addr, long len) {",
             "    MISCBUS_READ_DB(addr, len);"]
    lines += [f"    int f{i};" for i in range(1, depth + 1)]
    for value in (0, 1):
        lines += [f"    if (f{i} != 0) {{ f{i} = {value}; }}"
                  for i in range(1, depth + 1)]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _sweep() -> dict:
    sm = parse_metal(FIGURE_2)
    rows = []
    paths_live = True
    for depth in SWEEP_DEPTHS:
        row: dict = {"depth": depth}
        for engine in ("paths", "summary"):
            if engine == "paths" and not paths_live:
                row["paths_seconds"] = None
                continue
            clear_function_summaries()
            program = Program({"sweep.c": _sweep_source(depth)})
            cfg = program.cfg(program.functions()[0])
            sink = ReportSink()
            with _engine_mode(engine):
                start = time.perf_counter()
                run_machine(sm, cfg, sink, feasibility=True)
                row[f"{engine}_seconds"] = round(
                    time.perf_counter() - start, 5)
            row[f"{engine}_reports"] = len(sink.reports)
            if engine == "paths" and row["paths_seconds"] > SWEEP_PATHS_CAP:
                paths_live = False
        rows.append(row)

    measured = [r for r in rows if r["paths_seconds"] is not None]
    first, last = measured[0], measured[-1]
    return {
        "machine": "figure-2 (buffer fill race)",
        "depths": list(SWEEP_DEPTHS),
        "paths_cap_seconds": SWEEP_PATHS_CAP,
        "rows": rows,
        "paths_measured_through_depth": last["depth"],
        "paths_growth_measured": round(
            last["paths_seconds"] / max(first["paths_seconds"], 1e-9), 1),
        "summary_growth_full_range": round(
            rows[-1]["summary_seconds"]
            / max(rows[0]["summary_seconds"], 1e-9), 1),
        # The cold-run speedup at the deepest depth the paths engine
        # still finished — a lower bound: past the cap it is unbounded.
        "speedup_at_deepest_measured": round(
            last["paths_seconds"] / max(last["summary_seconds"], 1e-9), 1),
    }


def _observed_metrics() -> dict:
    """Engine counters from one untimed observed summary run (bitvector):
    summary cache traffic and join-point merges land next to the
    timings."""
    clear_memo()
    clear_function_summaries()
    registry = MetricsRegistry()
    previous = activate_metrics(registry)
    try:
        gp = generate_protocol("bitvector")
        program = Program(dict(gp.files), info=gp.info)
        for checker_name in SM_CHECKERS:
            get_checker(checker_name).check(program)
    finally:
        activate_metrics(previous)
    counters = {name: value
                for name, value in registry.snapshot()["counters"].items()
                if name.startswith("engine.")}
    return {"schema": 1, "counters": counters}


def run_benchmark(output: str = OUTPUT) -> dict:
    results: dict = {
        "benchmark": "engine_scaling",
        "protocols": list(PROTOCOLS),
        "sm_checkers": list(SM_CHECKERS),
        "gate_ratio": GATE_RATIO,
        "corpus_floor": CORPUS_FLOOR,
        "target_ratio": TARGET_RATIO,
        "rounds": ROUNDS,
    }

    # Interleaved cold passes; per-engine minima price out machine
    # noise, and every pass's reports must agree with every other's.
    corpus: dict = {"paths": None, "summary": None}
    outputs: dict = {}
    identical = True
    for _ in range(ROUNDS):
        for engine in ("paths", "summary"):
            timings, captured = _corpus_pass(engine)
            best = corpus[engine]
            if best is None:
                corpus[engine] = timings
            else:
                for field in best:
                    best[field] = min(best[field], timings[field])
            if engine in outputs and outputs[engine] != captured:
                identical = False
            outputs[engine] = captured
    identical = identical and outputs["paths"] == outputs["summary"]
    report_count = sum(
        len(c["reports"])
        for per_checker in outputs["summary"].values()
        for c in per_checker.values())
    corpus["reports_identical"] = identical
    corpus["report_count"] = report_count
    corpus["check_speedup"] = round(
        corpus["paths"]["check_seconds"]
        / max(corpus["summary"]["check_seconds"], 1e-9), 2)
    corpus["engine_speedup"] = round(
        corpus["paths"]["engine_seconds"]
        / max(corpus["summary"]["engine_seconds"], 1e-9), 2)
    results["corpus"] = corpus
    sweep = _sweep()
    results["sweep"] = sweep
    # The cold-run speedup the CI gate holds: best of the corpus ratio
    # and the deep-branch sweep ratio.  The corpus is dominated by
    # small functions and the merge-resistant path-end checkers
    # (docs/engine.md); the sweep is where branch depth lets the
    # summary engine's merging actually bite.
    results["cold_speedup_gate"] = max(
        corpus["engine_speedup"], sweep["speedup_at_deepest_measured"])

    metrics = None
    try:
        metrics = _observed_metrics()
    except Exception:
        # Metrics are annotation, not measurement; never fail the
        # benchmark over the observation layer.
        pass
    return write_results(output, results, metrics=metrics)


def test_engine_scaling(show):
    results = run_benchmark()
    show(json.dumps(results, indent=2))

    corpus = results["corpus"]
    assert corpus["reports_identical"], (
        "summary engine must reproduce the paths engine's reports "
        "byte for byte on the paper corpus")
    assert corpus["report_count"] > 0
    assert corpus["engine_speedup"] >= CORPUS_FLOOR, (
        f"summary engine must be >= {CORPUS_FLOOR}x faster than paths on "
        f"the corpus: measured {corpus['engine_speedup']}x")
    assert results["cold_speedup_gate"] >= GATE_RATIO, (
        f"best cold speedup (corpus or sweep) must be >= {GATE_RATIO}x: "
        f"measured {results['cold_speedup_gate']}x")

    sweep = results["sweep"]
    rows = sweep["rows"]
    # Paths mode is exponential: it must either blow the cap before the
    # deepest sweep point or have grown enormously across the range.
    assert (sweep["paths_measured_through_depth"] < sweep["depths"][-1]
            or sweep["paths_growth_measured"] >= 50.0), sweep
    # Summary mode is flat-to-linear across the whole range.
    assert sweep["summary_growth_full_range"] <= 20.0, sweep
    assert all(r["summary_reports"] == 1 for r in rows)


if __name__ == "__main__":
    print(json.dumps(run_benchmark(), indent=2))
