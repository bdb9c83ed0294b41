"""Property-based and fuzz tests across the stack.

Three families:

1. the frontend never hangs or crashes with non-library exceptions on
   arbitrary input — it either parses or raises a Repro error;
2. metamorphic checker properties (e.g. guarding every read makes the
   buffer-race checker clean; removing guards can only add reports);
3. the cached engine and the naive engine agree on randomly generated
   structured programs.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.cfg import build_cfg, enumerate_paths, path_stats
from repro.checkers import BufferRaceChecker
from repro.checkers.metal_sources import FIGURE_3
from repro.errors import ReproError
from repro.lang import annotate, parse
from repro.metal import ReportSink, parse_metal
from repro.mc.engine import run_machine
from repro.project import program_from_source

from .reference_engine import run_machine_naive


class TestFrontendRobustness:
    @given(st.text(max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_parser_never_crashes_unexpectedly(self, text):
        try:
            parse(text)
        except ReproError:
            pass  # LexError / ParseError are the contract

    @given(st.text(
        alphabet="abcxyz(){};=+-*/<>&|!0123456789 \n\t\"'",
        max_size=300,
    ))
    @settings(max_examples=300, deadline=None)
    def test_c_flavoured_fuzz(self, text):
        try:
            unit = parse(text)
            annotate(unit)
        except ReproError:
            pass

    @given(st.text(alphabet="smdeclpat{}()|=>;\"errxyz_ ", max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_metal_parser_never_crashes_unexpectedly(self, text):
        try:
            parse_metal(text)
        except ReproError:
            pass


# -- random structured program generation -------------------------------------

_OPS = [
    "WAIT_FOR_DB_FULL(addr);",
    "v = MISCBUS_READ_DB(addr, 0);",
    "HANDLER_GLOBALS(header.nh.len) = LEN_NODATA;",
    "HANDLER_GLOBALS(header.nh.len) = LEN_WORD;",
    "PI_SEND(F_DATA, 1, 0, 0, 1, 0);",
    "PI_SEND(F_NODATA, 1, 0, 0, 1, 0);",
    "t = t + 1;",
]


def _random_body(rng: random.Random, depth: int = 2, length: int = 6) -> str:
    parts = []
    for _ in range(length):
        roll = rng.random()
        if roll < 0.25 and depth > 0:
            inner = _random_body(rng, depth - 1, rng.randrange(1, 4))
            if rng.random() < 0.5:
                other = _random_body(rng, depth - 1, rng.randrange(1, 3))
                parts.append(f"if (c{rng.randrange(4)}) {{ {inner} }} "
                             f"else {{ {other} }}")
            else:
                parts.append(f"if (c{rng.randrange(4)}) {{ {inner} }}")
        elif roll < 0.32 and depth > 0:
            inner = _random_body(rng, depth - 1, rng.randrange(1, 3))
            parts.append(f"while (w{rng.randrange(3)}) {{ {inner} }}")
        elif roll < 0.36:
            parts.append("return;")
        else:
            parts.append(rng.choice(_OPS))
    return " ".join(parts)


def _random_function(seed: int) -> str:
    rng = random.Random(seed)
    return (
        "void h(void) { unsigned v; unsigned t; unsigned addr; "
        + _random_body(rng, depth=3, length=rng.randrange(3, 9))
        + " }"
    )


@given(st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_property_cached_vs_naive_on_random_programs(seed):
    """Cached engine covers at least the naive engine's diagnostics.

    On loop-free programs they agree exactly.  With loops, the cached
    engine is strictly more thorough: it follows back edges (memoized),
    so state changes made in a loop body propagate to code after the
    loop, whereas the naive enumerator cuts back edges and never sees
    the "body executed, then exited" paths.
    """
    src = _random_function(seed)
    unit = parse(src)
    annotate(unit)
    cfg = build_cfg(unit.function("h"))
    sm_text = FIGURE_3
    cached, naive = ReportSink(), ReportSink()
    run_machine(parse_metal(sm_text), cfg, cached)
    try:
        run_machine_naive(parse_metal(sm_text), cfg, naive, max_paths=20000)
    except ValueError:
        return  # path explosion: skip comparison
    cached_set = {str(r) for r in cached.reports}
    naive_set = {str(r) for r in naive.reports}
    assert naive_set <= cached_set, src
    if not cfg.back_edges():
        assert naive_set == cached_set, src


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_property_path_count_dp_equals_enumeration_random(seed):
    src = _random_function(seed)
    unit = parse(src)
    cfg = build_cfg(unit.function("h"))
    stats = path_stats(cfg)
    try:
        enumerated = len(list(enumerate_paths(cfg, max_paths=20000)))
    except ValueError:
        return
    assert stats.path_count == enumerated, src


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_metamorphic_guarding_reads_silences_buffer_race(seed):
    """Inserting WAIT_FOR_DB_FULL before every read removes all reports."""
    src = _random_function(seed)
    guarded = src.replace(
        "v = MISCBUS_READ_DB(addr, 0);",
        "WAIT_FOR_DB_FULL(addr); v = MISCBUS_READ_DB(addr, 0);",
    )
    result = BufferRaceChecker().check(program_from_source(guarded))
    assert result.reports == []


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_metamorphic_removing_guards_never_reduces_reports(seed):
    src = _random_function(seed)
    stripped = src.replace("WAIT_FOR_DB_FULL(addr);", "t = t;")
    with_guards = BufferRaceChecker().check(program_from_source(src))
    without = BufferRaceChecker().check(program_from_source(stripped))
    assert len(without.reports) >= len(with_guards.reports), src
