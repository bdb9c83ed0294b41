"""Ablation 1 — the engine's (block, state) cache vs. naive enumeration.

xgcc-style caching makes path-sensitive checking linear in practice;
without it the engine walks exponentially many paths.  Both engines are
run over the same branch-heavy functions with the Figure 2 machine and
must produce identical diagnostics; the benchmark reports the wall-clock
gap and the number of paths the naive engine had to walk.
"""

import sys
import time
from pathlib import Path

import pytest

from repro.cfg import build_cfg
from repro.checkers.metal_sources import FIGURE_2
from repro.lang import annotate, parse
from repro.metal import ReportSink, parse_metal
from repro.mc.engine import run_machine

# The naive enumerator is a test oracle (tests/reference_engine.py).
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.reference_engine import run_machine_naive  # noqa: E402


def _branchy_function(branches: int):
    body = "\n".join(
        f"if (c{i}) {{ t{i} = {i}; }}" for i in range(branches)
    )
    src = f"""
    void h(void) {{
        unsigned v;
        {body}
        v = MISCBUS_READ_DB(addr, 0);
    }}
    """
    unit = parse(src)
    annotate(unit)
    return build_cfg(unit.function("h"))


@pytest.mark.parametrize("branches", [8, 12, 16])
def test_cached_engine(benchmark, branches):
    cfg = _branchy_function(branches)

    def cached():
        sm = parse_metal(FIGURE_2)
        sink = ReportSink()
        run_machine(sm, cfg, sink)
        return sink

    sink = benchmark(cached)
    assert len(sink) == 1
    benchmark.extra_info["paths_in_function"] = 2 ** branches


@pytest.mark.parametrize("branches", [8, 12, 16])
def test_naive_engine(benchmark, branches):
    cfg = _branchy_function(branches)

    def naive():
        sm = parse_metal(FIGURE_2)
        sink = ReportSink()
        walked = run_machine_naive(sm, cfg, sink, max_paths=10 ** 7)
        return sink, walked

    (sink, walked) = benchmark.pedantic(naive, rounds=1, iterations=1)
    assert len(sink) == 1  # identical result, exponential cost
    assert walked >= 2 ** branches


def test_ablation_summary(show):
    rows = ["state-cache ablation (identical diagnostics, wall-clock):"]
    for branches in (8, 12, 16):
        cfg = _branchy_function(branches)
        sm = parse_metal(FIGURE_2)

        start = time.perf_counter()
        run_machine(sm, cfg, ReportSink())
        cached_ms = (time.perf_counter() - start) * 1000

        start = time.perf_counter()
        walked = run_machine_naive(sm, cfg, ReportSink(), max_paths=10 ** 7)
        naive_ms = (time.perf_counter() - start) * 1000
        rows.append(
            f"  {branches:2d} branches ({walked:6d} paths): cached "
            f"{cached_ms:7.2f} ms, naive {naive_ms:9.2f} ms "
            f"({naive_ms / max(cached_ms, 0.001):7.1f}x)"
        )
    show("\n" + "\n".join(rows))
