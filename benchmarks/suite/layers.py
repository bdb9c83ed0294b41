"""Per-layer spans for the benchmark's traced pass.

The traced pass calls ``repro.cli.main`` in-process with spans recorded
around each layer's public functions.  Nothing in ``src/`` changes: the
functions are wrapped the way ``bench_engine_scaling._engine_stopwatch``
wraps ``run_machine`` — the module (or class) attribute is replaced,
and so is every name an already-imported ``repro`` module bound with
``from ... import``.  Modules imported later pick up the wrapper from
the patched attribute.

A span is ``(layer, start, end, parent, invocation, attrs)``.  Spans
stay in memory and are written to ``trace.jsonl`` once, at the end.  A
layer's self time is its span minus its child spans.  Forked fleet
workers inherit the wrappers; each writes its own spans to a spool
file when it exits, and the parent merges them.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


def _lexer_attrs(args, result):
    return {"bytes": len(args[0].text), "tokens": len(result or ())}


def _parser_attrs(args, result):
    return {"unit": args[0].filename,
            "functions": len(result.functions()) if result else 0}


def _cfg_attrs(args, result):
    return {"blocks": len(result.blocks) if result else 0}


#: (layer, module, attribute, attrs) for every wrapped public function.
#: Checker classes are added at install time, one ``checkers.<name>``
#: layer per registered builtin.
TARGETS = (
    ("cli", "repro.cli", "main", None),
    ("lang.lexer", "repro.lang.lexer", "Lexer.tokenize", _lexer_attrs),
    ("lang.parser", "repro.lang.parser", "Parser.parse_translation_unit",
     _parser_attrs),
    ("lang.sema", "repro.lang.sema", "annotate", None),
    ("lang.memo", "repro.lang.memo", "parse_annotated", None),
    ("cfg.build", "repro.cfg.builder", "build_cfg", _cfg_attrs),
    ("mc.summary", "repro.mc.summary", "slice_for", None),
    ("mc.summary", "repro.mc.summary", "event_index", None),
    ("mc.feasibility", "repro.mc.feasibility", "for_cfg", None),
    ("mc.engine", "repro.mc.engine", "run_machine", None),
    ("mc.cache.get", "repro.mc.cache", "ResultCache.get", None),
    ("mc.cache.put", "repro.mc.cache", "ResultCache.put", None),
    ("mc.cache.key", "repro.mc.cache", "checker_fingerprint", None),
    ("mc.cache.key", "repro.mc.cache", "work_item_key", None),
    ("mc.cache.payload", "repro.mc.cache", "result_to_payload", None),
    ("mc.cache.payload", "repro.mc.cache", "result_from_payload", None),
    ("mc.parallel.item", "repro.mc.parallel", "_execute_item", None),
    ("mc.parallel.merge", "repro.mc.parallel", "merge_parts", None),
    ("mc.supervisor.pool", "repro.mc.supervisor", "supervise_items", None),
    ("mc.ranking", "repro.mc.ranking", "score_run", None),
    ("mc.report.render", "repro.mc.report", "run_to_json", None),
    ("obs.ledger.append", "repro.obs.ledger", "RunLedger.append", None),
    ("flash.sim.run", "repro.flash.sim.machine", "FlashMachine.run", None),
    ("flash.sim.interp", "repro.flash.sim.interp", "Interpreter.call", None),
    ("campaign.shrink", "repro.campaign.shrink", "shrink_run", None),
    ("campaign.crosstab", "repro.campaign.crosstab", "cross_tabulate", None),
)


class SpanRecorder:
    """The spans of one process, plus the index of the CLI invocation
    they belong to (set by the driver before each ``main`` call)."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list = []
        self.invocation = -1

    def wrap(self, layer: str, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(index)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                self.stack.pop()
                self.spans[index] = (
                    layer, start, end, parent, self.invocation,
                    attrs(args, result) if attrs is not None else None)
        return traced

    def restart(self) -> None:
        """Forget the parent's spans (called first thing in a forked
        worker)."""
        self.spans = []
        self.stack = []


def _resolve(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


_ABSENT = object()


@contextmanager
def installed(recorder: SpanRecorder, spool: Path):
    """Wrap every target for the duration of the block; restore after."""
    from repro.checkers.base import _REGISTRY
    from repro.mc import supervisor

    targets = [(layer, *_resolve(module, attr), attrs)
               for layer, module, attr, attrs in TARGETS]
    # Resolve every checker's check() before patching any, so a checker
    # inheriting check() from another is charged to itself.
    targets += [(f"checkers.{name}", cls, "check", None)
                for name, cls in _REGISTRY.items()]
    targets = [(layer, owner, name, getattr(owner, name), attrs)
               for layer, owner, name, attrs in targets]
    loaded = [m for n, m in sys.modules.items()
              if n == "repro" or n.startswith("repro.")]
    worker_main = supervisor._worker_main

    def spooled_worker_main(config, conn):
        recorder.restart()
        try:
            return worker_main(config, conn)
        finally:
            path = spool / f"worker-{os.getpid()}.json"
            path.write_text(json.dumps(recorder.spans))

    patches = []   # (owner, name, previous value or _ABSENT)

    def patch(owner, name, value):
        patches.append((owner, name, owner.__dict__.get(name, _ABSENT)))
        setattr(owner, name, value)

    try:
        for layer, owner, name, original, attrs in targets:
            wrapper = recorder.wrap(layer, original, attrs)
            patch(owner, name, wrapper)
            if isinstance(owner, type):
                continue
            for module in loaded:
                for key, value in list(vars(module).items()):
                    if value is original:
                        patch(module, key, wrapper)
        patch(supervisor, "_worker_main", spooled_worker_main)
        yield
    finally:
        for owner, name, previous in reversed(patches):
            if previous is _ABSENT:
                delattr(owner, name)
            else:
                setattr(owner, name, previous)


def worker_spans(spool: Path) -> dict:
    """``{process: spans}`` for every worker that spooled its spans."""
    out = {}
    for path in sorted(spool.glob("worker-*.json")):
        out[path.stem] = [tuple(s) for s in json.loads(path.read_text())
                          if s is not None]
    return out


def self_times(spans: list) -> list:
    children = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            children[span[3]] += span[2] - span[1]
    return [span[2] - span[1] - children[i] for i, span in enumerate(spans)]


def write_trace(path: Path, traces: list) -> int:
    """Write ``[(workload, t0, {process: spans})]`` as JSON lines; one
    line per span, times in seconds from the traced pass's start."""
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with path.open("w") as fh:
        for workload, t0, processes in traces:
            for process, spans in processes.items():
                for index, (layer, start, end, parent, invocation,
                            attrs) in enumerate(spans):
                    fh.write(json.dumps({
                        "workload": workload, "process": process,
                        "id": index, "parent": parent, "layer": layer,
                        "start": start - t0, "end": end - t0,
                        "invocation": invocation, "attrs": attrs}) + "\n")
                    count += 1
    return count


#: Layers whose self time every workload's traced pass exercises;
#: each is reported as ``<layer>.self_s``.
TIMED_LAYERS = ("cli", "lang.lexer", "lang.parser", "lang.sema",
                "mc.summary", "mc.feasibility", "mc.engine",
                "mc.cache.get", "mc.cache.put", "mc.cache.key",
                "mc.cache.payload", "mc.parallel.item", "mc.parallel.merge",
                "mc.ranking", "mc.report.render", "obs.ledger.append")
#: Layers only some workloads reach (the fleet pool only at --jobs 2,
#: the simulator only in campaigns).  BENCHMARK.json lists each as its
#: share of the traced pass, ``<layer>.share``, a fraction that reads
#: 0 where the layer is bypassed; ``<layer>.self_s`` is emitted too.
SHARED_LAYERS = ("mc.supervisor.pool", "flash.sim.run", "flash.sim.interp",
                 "campaign.shrink", "campaign.crosstab")


def layer_metrics(processes: dict, counters: dict, *, wall: float,
                  overhead: float, startup: float, jobs: int,
                  cache_bytes: int) -> dict:
    """Every per-layer metric of one traced pass, ``{name: value}``.

    ``processes`` maps ``"main"`` and each worker to its spans;
    ``counters`` sums the invocations' ``--metrics-out`` counters
    (histogram sums under ``<name>.sum``); ``wall`` is the traced pass's
    wall time.
    """
    self_s: dict = defaultdict(float)
    inclusive: dict = defaultdict(float)
    attrs: dict = defaultdict(int)
    parses = 0
    units: set = set()
    memo_hits = memo_misses = 0
    executions = shrink_executions = 0
    main_self = 0.0
    for process, spans in processes.items():
        own = self_times(spans)
        has_child = {span[3] for span in spans}
        for index, span in enumerate(spans):
            layer = span[0]
            self_s[layer] += own[index]
            inclusive[layer] += span[2] - span[1]
            if process == "main":
                main_self += own[index]
            extra = span[5] or {}
            for key in ("bytes", "tokens", "functions", "blocks"):
                attrs[key] += extra.get(key, 0)
            if layer == "lang.parser" and extra.get("unit", "").endswith(".c"):
                parses += 1
                units.add((span[4], extra["unit"]))
            elif layer == "lang.memo":
                if index in has_child:
                    memo_misses += 1
                else:
                    memo_hits += 1
            elif layer == "flash.sim.run":
                executions += 1
                parent = span[3]
                while parent >= 0 and spans[parent][0] != "campaign.shrink":
                    parent = spans[parent][3]
                shrink_executions += parent >= 0

    def count(name):
        return counters.get(name, 0)

    checkers = sorted(layer for layer in inclusive
                      if layer.startswith("checkers."))
    cache_lookups = count("cache.hits") + count("cache.misses")
    pool = inclusive["mc.supervisor.pool"]
    out = {f"{layer}.self_s": self_s[layer]
           for layer in TIMED_LAYERS + SHARED_LAYERS}
    out.update({f"{layer}.share": self_s[layer] / wall
                for layer in SHARED_LAYERS})
    out.update({
        "cli.startup_s": startup,
        "lang.lexer.tokens": attrs["tokens"],
        "lang.lexer.mb_per_s": (attrs["bytes"] / 1e6 / self_s["lang.lexer"]
                                if self_s["lang.lexer"] else 0.0),
        "lang.parser.functions": attrs["functions"],
        "lang.memo.units_parsed": memo_misses,
        "lang.memo.hits": memo_hits,
        "lang.memo.parses_per_unit": parses / len(units) if units else 0.0,
        "cfg.build.self_s": self_s["cfg.build"],
        "cfg.blocks": attrs["blocks"],
        "mc.summary.skipped_functions": count("engine.skipped_functions"),
        "mc.summary.hits": count("engine.summary_hits"),
        "mc.summary.misses": count("engine.summary_misses"),
        "mc.feasibility.pruned_edges": count("engine.pruned_edges"),
        "mc.engine.steps": count("engine.steps"),
        "mc.engine.states": count("engine.states"),
        "mc.engine.merged_states": count("engine.merged_states"),
        "mc.engine.functions": count("engine.functions"),
        "checkers.self_s": sum(self_s[c] for c in checkers),
        "mc.cache.hits": count("cache.hits"),
        "mc.cache.misses": count("cache.misses"),
        "mc.cache.hit_ratio": (count("cache.hits") / cache_lookups
                               if cache_lookups else 0.0),
        "mc.cache.dir_bytes": cache_bytes,
        "mc.parallel.items": count("fleet.items"),
        "mc.parallel.items_fresh": count("fleet.items_fresh"),
        "mc.supervisor.worker_busy_frac": (
            count("item.wall_seconds.sum") / (jobs * pool) if pool else 0.0),
        "flash.sim.executions": executions,
        "flash.sim.handlers_run": count("campaign.handlers_run"),
        "campaign.shrink.executions": shrink_executions,
        "campaign.shrink.executions_per_crash": (
            shrink_executions / count("campaign.crashes")
            if count("campaign.crashes") else 0.0),
        "campaign.confirmed": count("campaign.confirmed"),
        "trace.overhead_frac": overhead,
        "trace.unaccounted_s": wall - main_self,
    })
    out.update({f"{c}.s": inclusive[c] for c in checkers})
    return out
