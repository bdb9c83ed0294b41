"""The engine: differential equivalence against the paths oracle.

The engine's contract (docs/engine.md):

- the sliced walk with function summaries produces **byte-identical**
  reports, suppressions, provenance, and confidence to the unsliced
  paths oracle (``repro.mc.engine._PATHS_ORACLE``, flipped here with
  ``unittest.mock.patch.object``) — proved by direct differential
  testing over generated handlers (property), the five paper protocols,
  and tolerant-frontend/opaque input;
- replaying a cached function summary is indistinguishable from
  re-walking the function;
- the slicer's ``MachineFilter`` is a sound over-approximation of root
  unification, and slices classify dead regions correctly;
- ``engine.summary_hits``/``engine.summary_misses``/
  ``engine.merged_states`` flow into the metrics registry and
  ``mc-check stats``;
- ``--resume`` under different analysis settings refuses cleanly.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import parse_metal
from repro.checkers.metal_sources import FIGURE_2
from repro.errors import ReproError
from repro.lang import ast, clear_memo, set_default_mode
from repro.mc import (
    check_files,
    clear_function_summaries,
    function_summaries,
    run_to_json,
    score_run,
    slice_for,
)
from repro.mc import engine
from repro.mc.engine import run_machine
from repro.mc.summary import filter_for
from repro.mc.supervisor import RunJournal
from repro.metal.runtime import ReportSink
from repro.obs.metrics import MetricsRegistry, activate_metrics, format_metrics
from repro.project import program_from_source

SRC = Path(__file__).resolve().parent.parent / "src"

#: One machine shared by the whole module, so later differential
#: examples exercise the summary store's replay path (a fresh machine
#: per example would never hit the store).
_SM = parse_metal(FIGURE_2)


def run_cli(*argv, timeout=180, cache_dir=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    if cache_dir is not None:
        env["MC_CHECK_CACHE_DIR"] = str(cache_dir)
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


def paths_oracle(enabled: bool = True):
    """Switch ``run_machine`` to the unsliced paths walk for a block."""
    return mock.patch.object(engine, "_PATHS_ORACLE", enabled)


def _snapshot(sink: ReportSink):
    """Everything a sink tells the user, in a comparable shape."""
    return (
        tuple(str(r) for r in sink.reports),
        tuple((str(r), why) for r, why in sink.suppressed),
        {key: list(steps) for key, steps in sink.provenance.items()},
        sink.degraded,
        tuple(str(q) for q in sink.quarantines),
    )


def _machine_run(source: str, oracle: bool, *, feasibility=True,
                 tolerant=False):
    if tolerant:
        set_default_mode("tolerant")
    try:
        clear_memo()
        program = program_from_source(source)
        sink = ReportSink()
        with paths_oracle(oracle):
            for cfg in program.cfgs():
                run_machine(_SM, cfg, sink, feasibility=feasibility)
    finally:
        if tolerant:
            set_default_mode("strict")
            clear_memo()
    return _snapshot(sink)


# -- property: summary == paths over generated handlers ------------------------

_GUARDS = st.one_of(
    st.none(),
    st.tuples(st.sampled_from(["ca", "cb"]), st.booleans()),
)
_ITEMS = st.lists(
    st.tuples(st.sampled_from(["wait", "read", "free"]), _GUARDS),
    min_size=1, max_size=6,
)

_STMT = {
    "wait": "WAIT_FOR_DB_FULL(addr);",
    "read": "MISCBUS_READ_DB(addr, buf);",
    "free": "DB_FREE();",
}


def _handler_from(items, opaque_at=None) -> str:
    lines = [
        "void Gen(void) {",
        "    unsigned addr;",
        "    unsigned buf;",
        "    unsigned ca;",
        "    unsigned cb;",
        "    addr = HANDLER_GLOBALS(header.nh.addr);",
        "    ca = HANDLER_GLOBALS(header.nh.len);",
        "    cb = HANDLER_GLOBALS(header.nh.src);",
    ]
    for i, (what, guard) in enumerate(items):
        if opaque_at is not None and opaque_at == i:
            lines.append("    @@@ junk @@@;")
        if guard is None:
            lines.append(f"    {_STMT[what]}")
        else:
            var, negated = guard
            cond = f"!{var}" if negated else var
            lines.append(f"    if ({cond}) {{")
            lines.append(f"        {_STMT[what]}")
            lines.append("    }")
    lines.append("    return;")
    lines.append("}")
    return "\n" + "\n".join(lines) + "\n"


@settings(max_examples=40, deadline=None)
@given(items=_ITEMS, feasibility=st.booleans())
def test_summary_equals_paths_on_generated_handlers(items, feasibility):
    source = _handler_from(items)
    paths = _machine_run(source, True, feasibility=feasibility)
    summary = _machine_run(source, False, feasibility=feasibility)
    assert summary == paths, source


@settings(max_examples=20, deadline=None)
@given(items=_ITEMS, position=st.integers(min_value=0, max_value=5))
def test_summary_equals_paths_with_opaque_regions(items, position):
    # Tolerant-frontend input: an unparseable statement becomes an
    # opaque node; suppressed_by="opaque" bookkeeping must match too.
    source = _handler_from(items, opaque_at=min(position, len(items) - 1))
    paths = _machine_run(source, True, tolerant=True)
    summary = _machine_run(source, False, tolerant=True)
    assert summary == paths, source


# -- the five paper protocols --------------------------------------------------

class TestPaperCorpusEquivalence:
    @pytest.mark.parametrize(
        "protocol", ["bitvector", "dyn_ptr", "sci", "coma", "rac"])
    def test_protocol_reports_identical_and_confident(self, tmp_path,
                                                      protocol):
        from repro.flash.codegen import generate_protocol
        gp = generate_protocol(protocol)
        paths = []
        for filename, text in gp.files.items():
            p = tmp_path / filename
            p.write_text(text)
            paths.append(str(p))
        docs = {}
        scores = {}
        counters = {}
        for oracle in (True, False):
            clear_function_summaries()
            registry = MetricsRegistry()
            previous = activate_metrics(registry)
            # check_files at jobs=1 runs in this process, so the oracle
            # switch reaches every checker's run_machine call.
            try:
                with paths_oracle(oracle):
                    run = check_files(sorted(paths), keep_going=True,
                                      cache=None)
            finally:
                activate_metrics(previous)
            docs[oracle] = json.dumps(run_to_json(run), indent=2,
                                      sort_keys=True)
            scores[oracle] = score_run(run)
            counters[oracle] = registry.counters
        assert docs[True] == docs[False]
        assert scores[True] == scores[False]
        # The same answers for a fraction of the work: about 17x fewer
        # machine steps on every protocol (bitvector: 19,792 against
        # the oracle's 332,259) and fewer (block, state) visits.
        unsliced, sliced = counters[True], counters[False]
        assert sliced["engine.steps"] * 10 <= unsliced["engine.steps"]
        assert sliced["engine.states"] < unsliced["engine.states"]


# -- branch-depth sweep --------------------------------------------------------

def _sweep_source(depth: int) -> str:
    """A handler whose only checkable site is at the top: an unwaited
    data-buffer read, followed by ``depth`` variables each tested,
    conditionally reassigned, and tested again — so every feasibility
    fact stays relevant across the middle of the function and the
    oracle's visited set sees a distinct store per branch combination."""
    lines = ["void sweep_handler(long addr, long len) {",
             "    MISCBUS_READ_DB(addr, len);"]
    lines += [f"    int f{i};" for i in range(1, depth + 1)]
    for value in (0, 1):
        lines += [f"    if (f{i} != 0) {{ f{i} = {value}; }}"
                  for i in range(1, depth + 1)]
    lines.append("}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("depth", [4, 6, 8])
def test_depth_sweep_oracle_grows_engine_stays_flat(depth):
    # The oracle visits 2^(depth+2) - 2 (block, state, store) points;
    # the engine's slice proves everything after the read dead, so it
    # visits one block and takes one step at every depth.  Both report
    # the read once.
    sm = parse_metal(FIGURE_2)
    counters = {}
    for oracle in (True, False):
        clear_function_summaries()
        (cfg,) = program_from_source(_sweep_source(depth)).cfgs()
        sink = ReportSink()
        registry = MetricsRegistry()
        previous = activate_metrics(registry)
        try:
            with paths_oracle(oracle):
                run_machine(sm, cfg, sink, feasibility=True)
        finally:
            activate_metrics(previous)
        assert len(sink.reports) == 1
        counters[oracle] = registry.counters
    assert counters[True]["engine.states"] == 2 ** (depth + 2) - 2
    assert counters[False]["engine.states"] == 1
    assert counters[False]["engine.steps"] == 1


# -- summary replay ------------------------------------------------------------

_REAL_BUG = """
void RealBug(void) {
    unsigned addr;
    unsigned buf;
    addr = HANDLER_GLOBALS(header.nh.addr);
    MISCBUS_READ_DB(addr, buf);
    return;
}
"""

_IRRELEVANT = """
void Bystander(void) {
    unsigned i;
    for (i = 0; i < 4; i = i + 1) {
        bump_counter(i);
    }
    return;
}
"""


class TestSummaryStore:
    def test_replay_is_indistinguishable_from_walking(self):
        sm = parse_metal(FIGURE_2)
        program = program_from_source(_REAL_BUG)
        (cfg,) = program.cfgs()
        store = function_summaries()
        hits0, misses0 = store.hits, store.misses
        first, second = ReportSink(), ReportSink()
        run_machine(sm, cfg, first, feasibility=True)
        run_machine(sm, cfg, second, feasibility=True)
        assert store.misses == misses0 + 1
        assert store.hits == hits0 + 1
        assert _snapshot(first) == _snapshot(second)
        assert len(first.reports) == 1

    def test_budgeted_runs_bypass_the_store(self):
        from repro.mc import Budget
        sm = parse_metal(FIGURE_2)
        program = program_from_source(_REAL_BUG)
        (cfg,) = program.cfgs()
        store = function_summaries()
        lookups0 = store.hits + store.misses
        sink = ReportSink()
        run_machine(sm, cfg, sink, budget=Budget(max_steps=100000))
        assert store.hits + store.misses == lookups0

    def test_irrelevant_function_is_skipped_entirely(self):
        sm = parse_metal(FIGURE_2)
        program = program_from_source(_IRRELEVANT)
        (cfg,) = program.cfgs()
        sl = slice_for(sm, cfg)
        assert sl.full_skip
        sink = ReportSink()
        run_machine(sm, cfg, sink)
        assert _snapshot(sink) == _snapshot(ReportSink())


# -- the slicer ----------------------------------------------------------------

class TestMachineFilter:
    def _calls(self, source: str) -> dict[str, ast.Call]:
        program = program_from_source(source)
        out = {}
        for unit in program.units.values():
            for node in unit.walk():
                if isinstance(node, ast.Call) and node.callee_name:
                    out[node.callee_name] = node
        return out

    def test_relevant_calls_pass_irrelevant_fail(self):
        filt = filter_for(_SM)
        calls = self._calls("""
void F(void) {
    unsigned addr;
    unsigned buf;
    WAIT_FOR_DB_FULL(addr);
    MISCBUS_READ_DB(addr, buf);
    bump_counter(addr);
    return;
}
""")
        assert filt.match_possible(calls["WAIT_FOR_DB_FULL"])
        assert filt.match_possible(calls["MISCBUS_READ_DB"])
        assert not filt.match_possible(calls["bump_counter"])

    def test_slice_liveness(self):
        sm = parse_metal(FIGURE_2)
        program = program_from_source(_REAL_BUG)
        (cfg,) = program.cfgs()
        sl = slice_for(sm, cfg)
        assert not sl.full_skip
        assert sl.live_blocks >= 1
        # Slices are cached per (machine, cfg).
        assert slice_for(sm, cfg) is sl


# -- counters ------------------------------------------------------------------

_DIAMOND = """
void Diamond(void) {
    unsigned addr;
    unsigned buf;
    addr = HANDLER_GLOBALS(header.nh.addr);
    if (addr) {
        bump_a(addr);
    } else {
        bump_b(addr);
    }
    MISCBUS_READ_DB(addr, buf);
    return;
}
"""


class TestCounters:
    def test_summary_counters_reach_the_registry(self):
        sm = parse_metal(FIGURE_2)
        program = program_from_source(_REAL_BUG)
        (cfg,) = program.cfgs()
        registry = MetricsRegistry()
        previous = activate_metrics(registry)
        try:
            for _ in range(2):
                run_machine(sm, cfg, ReportSink(), feasibility=True)
        finally:
            activate_metrics(previous)
        counters = registry.snapshot()["counters"]
        assert counters.get("engine.summary_misses", 0) >= 1
        assert counters.get("engine.summary_hits", 0) >= 1

    def test_merged_states_counted_and_rendered(self):
        # Feasibility off: both diamond arms rejoin in the same
        # (block, state) key, so the join merges rather than forking.
        sm = parse_metal(FIGURE_2)
        program = program_from_source(_DIAMOND)
        (cfg,) = program.cfgs()
        registry = MetricsRegistry()
        previous = activate_metrics(registry)
        try:
            run_machine(sm, cfg, ReportSink())
        finally:
            activate_metrics(previous)
        snapshot = registry.snapshot()
        assert snapshot["counters"].get("engine.merged_states", 0) >= 1
        # ``mc-check stats`` renders every counter, these included.
        assert "engine.merged_states" in format_metrics(snapshot)

    def test_paths_oracle_steps_every_node_and_skips_the_store(self):
        # The differential tests above are only as good as the switch:
        # under the oracle the walk must step nodes the slice leaves out
        # and never consult the summary store.
        sm = parse_metal(FIGURE_2)
        program = program_from_source(_DIAMOND)
        (cfg,) = program.cfgs()
        store = function_summaries()
        steps = {}
        for oracle in (True, False):
            clear_function_summaries()
            lookups0 = store.hits + store.misses
            registry = MetricsRegistry()
            previous = activate_metrics(registry)
            try:
                with paths_oracle(oracle):
                    run_machine(sm, cfg, ReportSink())
            finally:
                activate_metrics(previous)
            steps[oracle] = registry.counters["engine.steps"]
            lookups = store.hits + store.misses - lookups0
            assert lookups == (0 if oracle else 1)
        assert steps[True] > steps[False]

    def test_stats_cli_shows_engine_counters(self, tmp_path):
        unit = tmp_path / "bug.c"
        unit.write_text(_REAL_BUG)
        metrics = tmp_path / "metrics.json"
        proc = run_cli("check", str(unit), "--no-cache",
                       "--metrics-out", str(metrics),
                       cache_dir=tmp_path / "cache")
        assert metrics.exists(), proc.stdout + proc.stderr
        shown = run_cli("stats", str(metrics))
        assert "engine.summary_misses" in shown.stdout


# -- resume under different analysis settings ---------------------------------

class TestResumeConfigRefusal:
    def test_resume_refuses_feasibility_mismatch(self, tmp_path):
        runs = tmp_path / "runs"
        journal = RunJournal.create(
            runs, config={"feasibility": "on", "frontend": "strict"})
        journal.close()
        RunJournal.resume(runs, journal.run_id,
                          {"feasibility": "on"}).close()
        with pytest.raises(ReproError, match="feasibility='on'"):
            RunJournal.resume(runs, journal.run_id, {"feasibility": "off"})

    def test_resume_refuses_feasibility_mismatch_end_to_end(self, tmp_path):
        unit = tmp_path / "a.c"
        unit.write_text(_REAL_BUG)
        cache_dir = tmp_path / "cachedir"
        first = run_cli("check", str(unit), cache_dir=cache_dir)
        run_id = None
        for line in first.stderr.splitlines():
            if line.startswith("run: id="):
                run_id = line.split("run: id=", 1)[1].strip()
        assert run_id, first.stderr
        second = run_cli("check", str(unit), "--resume", run_id,
                         "--feasibility", "off", cache_dir=cache_dir)
        assert second.returncode == 2
        assert "was recorded with feasibility='on'" in second.stderr

    def test_resume_refuses_another_commands_run(self, tmp_path):
        from repro.checkers.metal_sources import FIGURE_2
        unit = tmp_path / "a.c"
        unit.write_text(_REAL_BUG)
        metal = tmp_path / "wait.metal"
        metal.write_text(FIGURE_2)
        cache_dir = tmp_path / "cachedir"
        first = run_cli("check", str(unit), cache_dir=cache_dir)
        run_id = first.stderr.split("run: id=", 1)[1].split()[0]
        journal = cache_dir / "runs" / f"{run_id}.jsonl"
        before = journal.read_text()
        second = run_cli("metal", str(metal), str(unit), "--resume", run_id,
                         cache_dir=cache_dir)
        assert second.returncode == 2
        assert "was recorded with command='check'" in second.stderr
        assert journal.read_text() == before
        history = run_cli("history", "--format", "json", cache_dir=cache_dir)
        assert [r["command"] for r in json.loads(history.stdout)] == ["check"]
