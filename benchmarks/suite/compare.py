#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric.

Usage (from the repository root)::

    python3 benchmarks/suite/compare.py A.json B.json

``A`` is the baseline (the parent commit), ``B`` the change; each is a
results file that ``run.py --out`` appended runs to, ideally ten per
workload with different seeds.  One row per (workload, end-to-end
metric) gives each side's median and quartiles and a verdict, using the
bounds in ``BENCHMARK.json``:

- ``unresolved`` — either side's quartile spread (as a share of its
  median) is wider than the bound, unless every B run beats every A run;
- ``worse`` — B's median is worse than A's by more than the bound;
- ``better`` — B wins at least 9 of every 10 runs paired by seed (ties
  count for neither) and the medians differ by more than A's quartile
  spread;
- ``unchanged`` — otherwise.

Exit status 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
#: Share of paired runs the change must win to claim a gain.
WIN_SHARE = 0.9


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def runs_by_workload(path: Path) -> dict:
    out: dict = {}
    for run in json.loads(path.read_text())["runs"]:
        if "skipped" not in run:
            out.setdefault(run["workload"], []).append(run)
    return out


def verdict(a_runs: list, b_runs: list, metric: str, better: str,
            bound: float) -> tuple:
    """``(verdict, A quartiles, B quartiles, relative change)``; the
    change is signed so that positive means worse."""
    a = [r["metrics"][metric]["value"] for r in a_runs]
    b = [r["metrics"][metric]["value"] for r in b_runs]
    sign = 1 if better == "lower" else -1
    qa, qb = quartiles(a), quartiles(b)
    change = sign * (qb[1] - qa[1]) / qa[1]

    def beats(x, y):
        return sign * (y - x) > 0

    spread = max((q[2] - q[0]) / q[1] for q in (qa, qb))
    if spread > bound:
        if all(beats(x, y) for x in b for y in a):
            return "better", qa, qb, change
        return "unresolved", qa, qb, change
    if change > bound:
        return "worse", qa, qb, change
    paired_a = {r["seed"]: r["metrics"][metric]["value"] for r in a_runs}
    pairs = [(paired_a[r["seed"]], r["metrics"][metric]["value"])
             for r in b_runs if r["seed"] in paired_a]
    if not pairs:
        pairs = list(zip(a, b))
    wins = sum(beats(y, x) for x, y in pairs)
    if (pairs and wins >= WIN_SHARE * len(pairs)
            and abs(qb[1] - qa[1]) > qa[2] - qa[0]):
        return "better", qa, qb, change
    return "unchanged", qa, qb, change


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    a, b = (runs_by_workload(Path(p)) for p in argv)
    worse = False
    print(f"{'workload':12s} {'metric':12s} {'A median [q1, q3]':>30s} "
          f"{'B median [q1, q3]':>30s} {'change':>8s}  verdict")
    for workload in sorted(a.keys() & b.keys()):
        for m in bench["end_to_end"]:
            name = m["name"]
            result, qa, qb, change = verdict(a[workload], b[workload], name,
                                             m["better"], m["bound"])
            worse = worse or result == "worse"
            cells = [f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}] {m['unit']}"
                     for q in (qa, qb)]
            print(f"{workload:12s} {name:12s} {cells[0]:>30s} "
                  f"{cells[1]:>30s} {change:+8.1%}  {result} "
                  f"(bound {m['bound']:.0%}, n={len(a[workload])}/"
                  f"{len(b[workload])})")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
