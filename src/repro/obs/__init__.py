"""``repro.obs`` — observability for the MC engine and checker fleet.

Three layers, importable piecemeal (nothing here imports the engine, so
the engine can import us without cycles):

* :mod:`repro.obs.trace` — structured JSONL span tracing
  (``--trace FILE``), per-worker files merged deterministically;
* :mod:`repro.obs.metrics` — counters/gauges/histograms
  (``--metrics-out FILE``, ``mc-check stats``);
* :mod:`repro.obs.provenance` — per-diagnostic path provenance
  (``mc-check explain``).

:class:`Observation` is the parent-side run context the CLI builds from
``--trace``/``--metrics-out``/``--progress`` and threads through
:func:`repro.mc.parallel.check_files` / ``metal_files``.  When it is
``None`` (the default) no observability code runs at all.  Its
``--progress`` reporter (:mod:`repro.obs.progress`) keeps no files of
its own: :func:`repro.mc.parallel._run_items` begins and finishes it
once per run, and the supervisor reports its pool's liveness into it.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path
from typing import Optional

from .metrics import (
    METRICS_SCHEMA,
    MetricsRegistry,
    activate_metrics,
    current_metrics,
    format_metrics,
)
from .provenance import (
    build_steps,
    provenance_from_obj,
    provenance_to_obj,
    render_explain,
    report_id,
    report_key,
)
from .trace import (
    NULL_TRACER,
    TRACE_SCHEMA,
    NullTracer,
    Span,
    Tracer,
    activate_tracer,
    current_tracer,
    merge_trace,
    read_trace,
    span_record,
)

__all__ = [
    "Observation",
    "MetricsRegistry", "activate_metrics", "current_metrics",
    "format_metrics", "METRICS_SCHEMA",
    "Tracer", "NullTracer", "NULL_TRACER", "Span", "span_record",
    "activate_tracer", "current_tracer", "merge_trace", "read_trace",
    "TRACE_SCHEMA",
    "build_steps", "provenance_from_obj", "provenance_to_obj",
    "render_explain", "report_id", "report_key",
]


class Observation:
    """Parent-side observability context for one fleet run.

    Collects three streams while the run executes — parent-side span
    records for items that never reached a worker (cache hits, journal
    replays, quarantines, interruption skips), metric counters absorbed
    from worker payloads, and per-worker trace files — then
    :meth:`finalize` merges them into the ``--trace`` file and the
    ``--metrics-out`` document.
    """

    def __init__(self, trace_path: Optional[str] = None,
                 metrics_path: Optional[str] = None,
                 progress=None):
        self.trace_path = Path(trace_path) if trace_path else None
        self.metrics_path = Path(metrics_path) if metrics_path else None
        self.metrics = MetricsRegistry()
        self.trace_dir: Optional[Path] = None
        if self.trace_path is not None:
            self.trace_dir = Path(tempfile.mkdtemp(prefix="mc-trace-"))
        self.progress = progress
        self._records: list[dict] = []
        self._t0 = time.time()
        self._w0 = time.perf_counter()
        self._c0 = time.process_time()
        self._item_total = 0
        self.trace_stats: Optional[dict] = None

    # -- hooks called by the fleet driver ------------------------------------

    @property
    def worker_trace_dir(self) -> Optional[str]:
        return str(self.trace_dir) if self.trace_dir is not None else None

    def set_item_total(self, n: int) -> None:
        self._item_total = n
        self.metrics.inc("fleet.items", n)

    def item_resolved(self, item, label: str, status: str) -> None:
        """Record an item that resolved parent-side (never ran a worker
        this attempt): cache hit, journal replay, poison quarantine, or
        an interruption skip."""
        self.metrics.inc(f"fleet.items_{status}")
        if self.trace_dir is None:
            return
        self._records.append(span_record(
            span_id=f"i{item.index}", parent="run", kind="checker",
            name=label, item=item.index, attempt=None, seq=0,
            t0=time.time(), wall=0.0, cpu=0.0, status=status,
            counters={}, attrs={"units": list(item.paths)},
        ))

    def absorb_payload(self, item, label: str, payload: dict) -> None:
        """Fold one fresh worker payload's ``obs`` section into the run
        metrics (engine counters, item latency histograms)."""
        self.metrics.inc("fleet.items_fresh")
        obs = payload.get("obs")
        if not isinstance(obs, dict):
            return
        self.metrics.merge_counters(obs.get("counters"))
        wall = obs.get("wall")
        if isinstance(wall, (int, float)):
            self.metrics.observe("item.wall_seconds", wall)
            self.metrics.observe(f"checker.wall_seconds.{label}", wall)

    # -- completion ----------------------------------------------------------

    def _count_reports(self, run) -> None:
        reports: list = []
        quarantines = 0
        degraded = 0
        results = getattr(run, "results", None)
        sinks = getattr(run, "sinks", None)
        if results is not None:
            for result in results.values():
                reports.extend(result.reports)
                quarantines += len(result.quarantines)
                degraded += 1 if result.degraded else 0
        elif sinks is not None:
            for _path, sink in sinks:
                reports.extend(sink.reports)
                quarantines += len(sink.quarantines)
                degraded += 1 if sink.degraded else 0
        else:
            # Campaign runs carry a cross-tab instead of per-file
            # sinks; report totals for them come from the cross-tab
            # counters the campaign layer merges separately.
            return
        self.metrics.inc("reports.emitted", len(reports))
        self.metrics.inc("reports.errors",
                         sum(1 for r in reports if r.severity == "error"))
        self.metrics.inc("reports.warnings",
                         sum(1 for r in reports if r.severity == "warning"))
        self.metrics.inc("quarantines", quarantines)
        self.metrics.inc("fleet.degraded_results", degraded)

    def _count_run(self, run) -> None:
        stats = getattr(run, "stats", None)
        if stats is not None:
            self.metrics.inc("cache.hits", stats.hits)
            self.metrics.inc("cache.misses", stats.misses)
            self.metrics.inc("cache.stores", stats.stores)
            self.metrics.inc("cache.corrupt", stats.corrupt)
        supervision = getattr(run, "supervision", None)
        if supervision is not None:
            self.metrics.inc("fleet.retries", supervision.retried)
            self.metrics.inc("fleet.crashes", supervision.crashes)
            self.metrics.inc("fleet.timeouts", supervision.timeouts)
            self.metrics.inc("fleet.interrupted",
                             1 if supervision.interrupted else 0)
        self.metrics.gauge("run.jobs", getattr(run, "jobs", 1))
        self.metrics.gauge("run.wall_seconds",
                           time.perf_counter() - self._w0)

    def finalize(self, run) -> dict:
        """Close the run: count totals, merge the trace, write metrics.

        ``run`` is a :class:`repro.mc.parallel.CheckRun` or ``MetalRun``.
        Returns ``{"trace": merge stats or None, "metrics": snapshot or
        None}`` so the CLI can print a one-line summary to stderr.
        """
        self._count_reports(run)
        self._count_run(run)
        out: dict = {"trace": None, "metrics": None}
        if self.trace_path is not None:
            run_record = span_record(
                span_id="run", parent=None, kind="run", name="mc-check",
                item=None, attempt=None, seq=0, t0=self._t0,
                wall=time.perf_counter() - self._w0,
                cpu=time.process_time() - self._c0,
                status="skipped" if getattr(run, "interrupted", False)
                else "ok",
                counters=dict(self.metrics.counters),
                attrs={"jobs": getattr(run, "jobs", 1),
                       "items": self._item_total,
                       "run_id": getattr(run, "run_id", None)},
            )
            self.trace_stats = merge_trace(
                self.trace_dir, [run_record] + self._records,
                self.trace_path)
            out["trace"] = self.trace_stats
            if self.trace_dir is not None:
                shutil.rmtree(self.trace_dir, ignore_errors=True)
                self.trace_dir = None
        snapshot = self.metrics.snapshot()
        if self.metrics_path is not None:
            import json
            self.metrics_path.write_text(
                json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
        out["metrics"] = snapshot
        return out
