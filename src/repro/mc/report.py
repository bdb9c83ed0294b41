"""Diagnostic formatting for checker output.

Re-exports the core :class:`Report`/:class:`ReportSink` types and adds
the textual presentation used by the CLI and the benchmarks: grouped,
sorted, with inter-procedural backtraces rendered the way the paper's
lane checker printed "precise textual back traces".
"""

from __future__ import annotations

from ..metal.runtime import Report, ReportSink
from .registry import checker_origin
from .resilience import Budget, Quarantine

__all__ = [
    "Report", "ReportSink", "Budget", "Quarantine",
    "format_reports", "format_quarantines", "format_sink",
    "format_run_stats", "summarize_by_severity", "filter_by_confidence",
    "report_to_json_obj", "run_to_json", "REPORT_JSON_SCHEMA",
]

#: ``--format json`` document schema; bump when the shape changes.
#: v2 added per-report ``confidence`` scores and feasibility provenance
#: steps (``fact`` on branches, ``pruned`` siblings).
#: v3 added the ``suppressed`` section: reports withheld because every
#: path reaching them crossed an opaque (unparsed) region, each tagged
#: with its ``suppressed_by`` reason.
#: v4 added per-report ``pack`` provenance (``{"name", "version"}``):
#: every report from a registered checker names the pack that produced
#: it — builtins report the ``builtin`` pseudo-pack at the engine
#: version, checker-pack findings their ``pack.toml`` identity.
REPORT_JSON_SCHEMA = 4


def _stable_key(report: Report) -> tuple:
    return (report.location.filename, report.location.line,
            report.location.column, report.checker, report.message)


def filter_by_confidence(reports, scores, min_confidence):
    """Drop reports scoring below ``min_confidence`` (None = keep all)."""
    if min_confidence is None or not scores:
        return list(reports)
    from ..obs.provenance import report_key
    return [r for r in reports
            if (scores.get(report_key(r)) is None
                or scores[report_key(r)] >= min_confidence)]


def format_reports(reports, heading: str = "", scores=None) -> str:
    """Render reports sorted by (file, line, column, checker).

    A *total* deterministic order — column and message break line-level
    ties — so parallel runs (``--jobs 4``) print byte-identically to
    serial ones no matter how the work was partitioned.  With
    ``scores`` (a :func:`repro.mc.ranking.score_run` map), reports are
    ranked by descending confidence first — the z-ranking presentation
    — with the stable key breaking ties, and each line is annotated
    with its score.
    """
    lines: list[str] = []
    if heading:
        lines.append(heading)
        lines.append("-" * len(heading))
    if scores:
        from ..obs.provenance import report_key

        def key(r):
            confidence = scores.get(report_key(r))
            return (-(confidence if confidence is not None else 0.5),
                    *_stable_key(r))

        ordered = sorted(reports, key=key)
    else:
        ordered = sorted(reports, key=_stable_key)
    for report in ordered:
        text = str(report)
        if scores:
            from ..obs.provenance import report_key
            confidence = scores.get(report_key(report))
            if confidence is not None:
                head, sep, tail = text.partition("\n")
                text = f"{head}  [confidence {confidence:.2f}]{sep}{tail}"
        lines.append(text)
    if not ordered:
        lines.append("(no diagnostics)")
    return "\n".join(lines)


def format_quarantines(quarantines) -> str:
    """Render quarantine diagnostics, one line per isolated pair."""
    return "\n".join(str(q) for q in quarantines)


def format_sink(sink: ReportSink, heading: str = "") -> str:
    """Render a sink's full state: reports, quarantines, degradation.

    A degraded run prints everything it *did* find, then says what it
    could not: which (checker, function) pairs were quarantined and
    which explorations a budget cut short.  ``DEGRADED`` in the footer
    is the machine-greppable marker that the result is partial.
    """
    lines = [format_reports(sink.reports, heading=heading)]
    suppressed = getattr(sink, "suppressed", [])
    if suppressed:
        lines.append("")
        lines.append(f"({len(suppressed)} report(s) suppressed: every "
                     "path to them crossed an unparsed region)")
    if sink.quarantines:
        lines.append("")
        lines.append(format_quarantines(sink.quarantines))
    if sink.degraded:
        lines.append("")
        lines.append("DEGRADED: results are partial")
        for note in sink.degradation_notes:
            lines.append(f"  - {note}")
    return "\n".join(lines)


def format_run_stats(stats) -> str:
    """Render a run's supervision accounting, compactly.

    Only *noteworthy* fields appear (replays, retries, crashes,
    timeouts, quarantines, interruption), so a clean run's summary line
    is byte-identical to one from before supervision existed — the
    determinism pins in CI keep holding.
    """
    parts: list[str] = []
    if stats.replayed:
        parts.append(f"{stats.replayed} replayed")
    if stats.retried:
        parts.append(f"{stats.retried} retried")
    if stats.crashes:
        parts.append(f"{stats.crashes} crash(es)")
    if stats.timeouts:
        parts.append(f"{stats.timeouts} timeout(s)")
    if stats.quarantined:
        parts.append(f"{stats.quarantined} quarantined")
    if stats.interrupted:
        parts.append("interrupted")
    return ", ".join(parts)


def summarize_by_severity(reports) -> dict[str, int]:
    counts: dict[str, int] = {}
    for report in reports:
        counts[report.severity] = counts.get(report.severity, 0) + 1
    return counts


# -- machine-readable reports (``--format json`` / ``mc-check explain``) ------

def report_to_json_obj(report: Report, provenance=None,
                       confidence=None, origin=None) -> dict:
    """One diagnostic as a JSON-able object.

    ``id`` is the stable short hash ``mc-check explain`` takes; it is a
    pure function of (checker, message, location), so it is identical
    across runs, job counts, and cache states.  ``provenance`` is the
    step trail recorded at first emission (may be empty: non-engine
    diagnostics carry none).  ``confidence`` is the
    z-ranking score (:mod:`repro.mc.ranking`), computed from the merged
    run — never cached — so it too is cache-state independent.
    ``origin`` (a :class:`repro.mc.registry.CheckerOrigin`) attributes
    the report to the checker pack that produced it.
    """
    from ..obs.provenance import report_id

    loc = report.location
    obj = {
        "id": report_id(report.checker, report.message, loc.filename,
                        loc.line, loc.column),
        "checker": report.checker,
        "message": report.message,
        "file": loc.filename,
        "line": loc.line,
        "column": loc.column,
        "function": report.function,
        "severity": report.severity,
        "backtrace": [str(frame) for frame in report.backtrace],
        "provenance": list(provenance) if provenance else [],
    }
    if origin is not None:
        obj["pack"] = {"name": origin.pack, "version": origin.version}
    if confidence is not None:
        obj["confidence"] = confidence
    return obj


def _part_origin(part):
    """The :class:`CheckerOrigin` of one merged result, or ``None`` for
    parts that are not registered checkers (textual metal sinks)."""
    name = getattr(part, "checker", "")
    if not name:
        return None
    try:
        return checker_origin(name)
    except KeyError:
        return None


def run_to_json(run, min_confidence=None) -> dict:
    """A :class:`~repro.mc.parallel.CheckRun` or ``MetalRun`` as the
    ``--format json`` document.

    Deterministic: reports carry the same total order as
    :func:`format_reports`, and nothing in the document depends on
    timing or scheduling — a traced run serialises byte-identically to
    an untraced one.  Every report carries its ranking ``confidence``;
    ``min_confidence`` drops lower-scoring reports from the document
    (summary counts follow).
    """
    from ..obs.provenance import report_key
    from .ranking import score_run

    scores = score_run(run)
    results = getattr(run, "results", None)
    parts = (list(results.values()) if results is not None
             else [sink for _path, sink in run.sinks])
    reports: list[dict] = []
    quarantines: list[dict] = []
    suppressed: list[dict] = []
    degraded = False
    notes: list[str] = []
    for part in parts:
        provenance = getattr(part, "provenance", {})
        origin = _part_origin(part)
        for report in filter_by_confidence(part.reports, scores,
                                           min_confidence):
            reports.append(report_to_json_obj(
                report, provenance.get(report_key(report)),
                confidence=scores.get(report_key(report)),
                origin=origin))
        for report, why in getattr(part, "suppressed", []):
            obj = report_to_json_obj(report, origin=origin)
            obj["suppressed_by"] = why
            suppressed.append(obj)
        for q in part.quarantines:
            quarantines.append({
                "checker": q.checker, "function": q.function,
                "phase": q.phase, "error_type": q.error_type,
                "message": q.message,
            })
        degraded = degraded or bool(part.degraded)
        notes.extend(part.degradation_notes)
    reports.sort(key=lambda o: (o["file"], o["line"], o["column"],
                                o["checker"], o["message"]))
    suppressed.sort(key=lambda o: (o["file"], o["line"], o["column"],
                                   o["checker"], o["message"]))
    summary: dict[str, int] = {}
    for obj in reports:
        summary[obj["severity"]] = summary.get(obj["severity"], 0) + 1
    return {
        "schema": REPORT_JSON_SCHEMA,
        "jobs": getattr(run, "jobs", 1),
        "run_id": getattr(run, "run_id", None),
        "interrupted": bool(getattr(run, "interrupted", False)),
        "degraded": degraded,
        "summary": summary,
        "reports": reports,
        "quarantines": quarantines,
        "suppressed": suppressed,
        "degradation_notes": notes,
    }
