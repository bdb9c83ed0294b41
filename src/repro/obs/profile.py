"""Cost attribution over merged span traces: ``mc-check profile``.

A trace answers "what happened"; this module answers "where did the
time go".  :func:`build_profile` folds a merged JSONL trace (see
:mod:`repro.obs.trace`) into one deterministic cost tree:

* **phases** — ``parse`` (``unit`` spans: parse + sema + CFG
  construction for one translation unit; the frontend runs them as one
  pass, so they are one phase here), ``engine`` (``function`` spans:
  path-sensitive machine execution, path sampling included), and
  ``dispatch`` (work-item self time: scheduling, cache probes, payload
  marshalling — item wall minus its children);
* **checkers** — per-checker wall/CPU/item totals across the fleet;
* **functions** — per ``(checker, function)`` wall, call count, and the
  engine counters (steps, transitions, states, path ends), ranked into
  a top-N **hotspot** list;
* **critical path** — the chain of most-expensive spans from the run
  root down, i.e. the wall-clock floor a perfectly parallel fleet
  cannot beat;
* **cache attribution** — how many items were served by the result
  cache / journal replay vs. freshly executed, plus the run's
  ``cache.*`` counters.

Correctness rule inherited from the supervisor: spans flagged
``orphan`` (attempt crashed before its item span closed) or
``superseded`` (attempt was retried over) are **excluded** — a run
that crashed and retried must profile to the same cost tree as its
clean re-run, counting only the attempts whose results were kept.

Everything keyed or counted here is deterministic given the same
analysis; only wall/CPU numbers vary run to run.
:func:`deterministic_view` strips those, leaving the invariant core
the test suite pins.
"""

from __future__ import annotations

from typing import Optional

#: Profile document schema; bump when the shape changes.
PROFILE_SCHEMA = 1

#: Item-span statuses meaning "resolved parent-side, no worker ran".
_RESOLVED_STATUSES = ("cached", "replayed", "quarantined", "skipped")


def _surviving(records: list[dict]) -> list[dict]:
    """Drop spans from attempts whose results were not kept."""
    kept = []
    for record in records:
        attrs = record.get("attrs") or {}
        if attrs.get("orphan") or attrs.get("superseded"):
            continue
        kept.append(record)
    return kept


def _round(x: float) -> float:
    return round(float(x), 6)


def build_profile(records: list[dict], top: int = 10) -> dict:
    """Aggregate one merged trace into the profile document.

    ``records`` is the output of :func:`repro.obs.trace.read_trace` on
    a merged ``--trace`` file.  Raises :class:`repro.errors.ReproError`
    when the trace holds no usable spans.
    """
    from ..errors import ReproError

    records = _surviving(records)
    if not records:
        raise ReproError("trace contains no usable spans "
                         "(empty, corrupt, or all attempts discarded)")

    run_span: Optional[dict] = None
    items: list[dict] = []
    units: list[dict] = []
    functions: list[dict] = []
    children: dict[str, list[dict]] = {}
    for record in records:
        kind = record.get("kind")
        if kind == "run" and run_span is None:
            run_span = record
        elif kind == "checker":
            items.append(record)
        elif kind == "unit":
            units.append(record)
        elif kind == "function":
            functions.append(record)
        parent = record.get("parent")
        if parent is not None:
            children.setdefault(parent, []).append(record)

    # -- phases ---------------------------------------------------------------
    # Item self time = item wall minus its direct unit/function children
    # (path spans are children of function spans and already inside the
    # function wall, so they never double-count).
    parse_wall = sum(r.get("wall", 0.0) for r in units)
    parse_cpu = sum(r.get("cpu", 0.0) for r in units)
    engine_wall = sum(r.get("wall", 0.0) for r in functions)
    engine_cpu = sum(r.get("cpu", 0.0) for r in functions)
    dispatch_wall = 0.0
    dispatch_cpu = 0.0
    for item in items:
        child_wall = sum(c.get("wall", 0.0)
                         for c in children.get(item.get("id") or "", ())
                         if c.get("kind") in ("unit", "function"))
        child_cpu = sum(c.get("cpu", 0.0)
                        for c in children.get(item.get("id") or "", ())
                        if c.get("kind") in ("unit", "function"))
        dispatch_wall += max(0.0, item.get("wall", 0.0) - child_wall)
        dispatch_cpu += max(0.0, item.get("cpu", 0.0) - child_cpu)
    phases = {
        "parse": {"wall": _round(parse_wall), "cpu": _round(parse_cpu),
                  "spans": len(units)},
        "engine": {"wall": _round(engine_wall), "cpu": _round(engine_cpu),
                   "spans": len(functions)},
        "dispatch": {"wall": _round(dispatch_wall),
                     "cpu": _round(dispatch_cpu), "spans": len(items)},
    }

    # -- per-checker ----------------------------------------------------------
    checkers: dict[str, dict] = {}
    for item in items:
        name = str(item.get("name") or "?")
        agg = checkers.setdefault(name, {
            "wall": 0.0, "cpu": 0.0, "items": 0,
            "by_status": {},
        })
        agg["wall"] += item.get("wall", 0.0)
        agg["cpu"] += item.get("cpu", 0.0)
        agg["items"] += 1
        status = str(item.get("status") or "ok")
        agg["by_status"][status] = agg["by_status"].get(status, 0) + 1
    for agg in checkers.values():
        agg["wall"] = _round(agg["wall"])
        agg["cpu"] = _round(agg["cpu"])
        agg["by_status"] = dict(sorted(agg["by_status"].items()))

    # -- per-function ---------------------------------------------------------
    func_aggs: dict[tuple[str, str], dict] = {}
    for record in functions:
        attrs = record.get("attrs") or {}
        checker = str(attrs.get("checker") or "?")
        name = str(record.get("name") or "?")
        agg = func_aggs.setdefault((checker, name), {
            "checker": checker, "function": name,
            "wall": 0.0, "cpu": 0.0, "calls": 0, "counters": {},
        })
        agg["wall"] += record.get("wall", 0.0)
        agg["cpu"] += record.get("cpu", 0.0)
        agg["calls"] += 1
        for cname, value in (record.get("counters") or {}).items():
            if isinstance(value, (int, float)):
                agg["counters"][cname] = agg["counters"].get(cname, 0) + value
    function_list = []
    for key in sorted(func_aggs):
        agg = func_aggs[key]
        agg["wall"] = _round(agg["wall"])
        agg["cpu"] = _round(agg["cpu"])
        agg["counters"] = dict(sorted(agg["counters"].items()))
        function_list.append(agg)
    hotspots = sorted(
        function_list,
        key=lambda a: (-a["wall"], a["checker"], a["function"]))[:top]

    # -- critical path --------------------------------------------------------
    # The run's wall-clock floor: the most expensive item, then the most
    # expensive child inside it, recursively.  Worker-side item spans
    # carry parent=None (each worker writes its own file), so the
    # run→item edge is by construction, not by parent pointer.
    critical_path: list[dict] = []
    if run_span is not None:
        critical_path.append({
            "kind": "run", "name": run_span.get("name"),
            "wall": _round(run_span.get("wall", 0.0)),
            "id": run_span.get("id"),
        })
    cursor = max(items, key=lambda r: r.get("wall", 0.0), default=None)
    while cursor is not None:
        critical_path.append({
            "kind": cursor.get("kind"), "name": cursor.get("name"),
            "wall": _round(cursor.get("wall", 0.0)),
            "id": cursor.get("id"),
        })
        kids = children.get(cursor.get("id") or "", [])
        cursor = max(kids, key=lambda r: r.get("wall", 0.0), default=None)

    # -- cache attribution ----------------------------------------------------
    run_counters = (run_span or {}).get("counters") or {}
    cache = {
        "items_fresh": sum(1 for i in items
                           if i.get("status") not in _RESOLVED_STATUSES),
    }
    for status in _RESOLVED_STATUSES:
        cache[f"items_{status}"] = sum(
            1 for i in items if i.get("status") == status)
    for cname in sorted(run_counters):
        if cname.startswith("cache."):
            value = run_counters[cname]
            if isinstance(value, (int, float)):
                cache[cname] = value

    run_attrs = (run_span or {}).get("attrs") or {}
    return {
        "schema": PROFILE_SCHEMA,
        "run": {
            "run_id": run_attrs.get("run_id"),
            "jobs": run_attrs.get("jobs"),
            "wall": _round((run_span or {}).get("wall", 0.0)),
            "cpu": _round((run_span or {}).get("cpu", 0.0)),
            "status": (run_span or {}).get("status"),
            "spans": len(records),
        },
        "phases": phases,
        "checkers": dict(sorted(checkers.items())),
        "functions": function_list,
        "hotspots": hotspots,
        "critical_path": critical_path,
        "cache": cache,
    }


def deterministic_view(profile: dict) -> dict:
    """The scheduling-invariant core of a profile.

    Strips everything that legitimately varies between byte-identical
    runs: all wall/CPU numbers, ``unit`` spans (parse memoization makes
    their presence depend on which worker got which item), dispatch
    accounting, and the critical path.  What remains — item counts per
    checker and per-function call/engine-counter totals — must be equal
    for a crash-plan run with retries and its clean re-run.
    """
    checkers = {
        name: {"items": agg["items"]}
        for name, agg in profile.get("checkers", {}).items()
    }
    functions = {
        f"{agg['checker']}::{agg['function']}": {
            "calls": agg["calls"],
            "counters": dict(agg.get("counters") or {}),
        }
        for agg in profile.get("functions", ())
    }
    return {"checkers": checkers, "functions": functions}


def format_profile(profile: dict, top: int = 10) -> str:
    """Human rendering of the profile document."""
    run = profile.get("run", {})
    lines = [
        f"profile: run={run.get('run_id') or '-'} "
        f"jobs={run.get('jobs') or '-'} "
        f"wall={run.get('wall', 0.0):.3f}s cpu={run.get('cpu', 0.0):.3f}s "
        f"spans={run.get('spans', 0)}",
        "",
        "phase              wall(s)     cpu(s)   spans",
    ]
    for name, phase in profile.get("phases", {}).items():
        lines.append(f"  {name:14s} {phase['wall']:9.3f} "
                     f"{phase['cpu']:9.3f} {phase['spans']:7d}")

    lines.append("")
    lines.append("checker                        wall(s)   items  statuses")
    for name, agg in profile.get("checkers", {}).items():
        statuses = ",".join(f"{k}={v}" for k, v in agg["by_status"].items())
        lines.append(f"  {name:28s} {agg['wall']:8.3f} {agg['items']:7d}"
                     f"  {statuses}")

    hotspots = profile.get("hotspots", ())[:top]
    if hotspots:
        lines.append("")
        lines.append(f"top {len(hotspots)} hotspots "
                     "(checker :: function, by wall)")
        for agg in hotspots:
            counters = agg.get("counters") or {}
            detail = " ".join(
                f"{k}={counters[k]}" for k in ("steps", "transitions",
                                               "states", "paths")
                if k in counters)
            lines.append(
                f"  {agg['wall']:8.3f}s x{agg['calls']:<3d} "
                f"{agg['checker']} :: {agg['function']}"
                + (f"  [{detail}]" if detail else ""))

    path = profile.get("critical_path", ())
    if path:
        lines.append("")
        lines.append("critical path (wall-clock floor)")
        for depth, node in enumerate(path):
            lines.append(f"  {'  ' * depth}{node['wall']:8.3f}s "
                         f"{node['kind']}: {node['name']}")

    cache = profile.get("cache", {})
    if cache:
        lines.append("")
        lines.append("cache attribution")
        for name in sorted(cache):
            lines.append(f"  {name:28s} {cache[name]}")
    return "\n".join(lines)
