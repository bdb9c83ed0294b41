"""Path-feasibility pruning, report ranking, and `mc-check lint`.

The PR's contract, end to end:

- the Table 2 correlated-branch false positive is suppressed by default
  and restored by ``--feasibility off``;
- pruning never drops a true bug — proved by property: over generated
  guarded handlers, every read that a concrete-execution oracle says is
  reachable un-waited on some *feasible* path is still reported with
  feasibility on;
- the cache, the parallel fleet, and journal resume all stay
  byte-identical with feasibility enabled, and cache entries are keyed
  by the feasibility configuration;
- confidence scores rank the surviving reports deterministically;
- ``mc-check lint`` finds undeclared targets, unreachable states, and
  dead rules in metal machines, and the shipped checkers are clean.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import check_source, parse_metal
from repro.checkers.metal_sources import (
    BUFFER_RACE_FULL,
    BUILTIN_LISTINGS,
    FIGURE_2,
)
from repro.mc import (
    ResultCache,
    check_files,
    clear_function_summaries,
    confidence_of,
    feasibility,
    filter_by_confidence,
    format_reports,
    score_run,
)
from repro.mc import engine as mc_engine
from repro.mc.engine import run_machine
from repro.mc.supervisor import RunJournal, SupervisorPolicy
from repro.metal import StateMachine, lint_machine, lint_source
from repro.metal.runtime import ReportSink
from repro.obs.metrics import MetricsRegistry, activate_metrics
from repro.project import program_from_source

from .reference_engine import run_machine_naive

SRC = Path(__file__).resolve().parent.parent / "src"

#: The Table 2 shape: wait and read guarded by the same already-tested
#: local, so the unguarded-read path exists only syntactically.
CORRELATED = """
void NILocalGet(void) {
    unsigned addr;
    unsigned buf;
    unsigned has_data;
    addr = HANDLER_GLOBALS(header.nh.addr);
    has_data = HANDLER_GLOBALS(header.nh.len);
    if (has_data) {
        WAIT_FOR_DB_FULL(addr);
    }
    if (has_data) {
        MISCBUS_READ_DB(addr, buf);
    }
    DB_FREE();
    return;
}
"""

TRUE_BUG = """
void RealBug(void) {
    unsigned addr;
    unsigned buf;
    addr = HANDLER_GLOBALS(header.nh.addr);
    MISCBUS_READ_DB(addr, buf);
    return;
}
"""


def run_cli(*argv, timeout=120, cache_dir=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    if cache_dir is not None:
        env["MC_CHECK_CACHE_DIR"] = str(cache_dir)
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


def _reports(source: str, enabled: bool, engine: str = "summary"):
    """``engine="paths"`` runs the unsliced paths oracle."""
    previous = feasibility.set_default_enabled(enabled)
    try:
        with mock.patch.object(mc_engine, "_PATHS_ORACLE",
                               engine == "paths"):
            return check_source(parse_metal(FIGURE_2), source)
    finally:
        feasibility.set_default_enabled(previous)


# -- the Table 2 false positive ------------------------------------------------

class TestCorrelatedBranchFP:
    def test_suppressed_by_default(self):
        assert _reports(CORRELATED, enabled=True) == []

    def test_restored_with_feasibility_off(self):
        reports = _reports(CORRELATED, enabled=False)
        assert len(reports) == 1
        assert "not synchronized" in reports[0].message

    def test_true_bug_survives_pruning(self):
        assert len(_reports(TRUE_BUG, enabled=True)) == 1

    def test_cli_default_on_and_off(self, tmp_path):
        unit = tmp_path / "corr.c"
        unit.write_text(CORRELATED)
        on = run_cli("check", "--checker", "buffer-race", str(unit))
        assert on.returncode == 0, on.stdout + on.stderr
        off = run_cli("check", "--feasibility", "off",
                      "--checker", "buffer-race", str(unit))
        assert off.returncode == 1
        assert "not synchronized" in off.stdout

    def test_naive_engine_prunes_too(self):
        program = program_from_source(CORRELATED)
        sm = parse_metal(FIGURE_2)
        cfg = program.cfgs()[0]
        walked = {}
        for enabled in (False, True):
            sink = ReportSink()
            walked[enabled] = run_machine_naive(sm, cfg, sink,
                                                feasibility=enabled)
        assert walked[True] < walked[False]

    def test_pruned_edge_recorded_in_provenance(self):
        # A true bug whose path passes a branch with a pruned sibling
        # edge: the second `if (has_data)` false edge is infeasible on
        # the has_data-true path, and the surviving report's provenance
        # must say so.
        source = """
        void RealBugBranch(void) {
            unsigned addr;
            unsigned buf;
            unsigned has_data;
            addr = HANDLER_GLOBALS(header.nh.addr);
            has_data = HANDLER_GLOBALS(header.nh.len);
            if (has_data) {
                NI_SEND(NI_REPLY, F_NODATA, 1, 0, 1, 0);
            }
            if (has_data) {
                MISCBUS_READ_DB(addr, buf);
            }
            return;
        }
        """
        program = program_from_source(source)
        sm = parse_metal(FIGURE_2)
        sink = ReportSink()
        for cfg in program.cfgs():
            run_machine(sm, cfg, sink, feasibility=True)
        assert len(sink.reports) == 1
        (steps,) = sink.provenance.values()
        assert any(step.get("kind") == "pruned" for step in steps)


# -- property: pruning never drops a true bug ----------------------------------

#: A guarded statement: (what, guard) where guard is None (straight
#: line) or (var, negated).
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


def _oracle_bug_lines(items, first_line: int) -> set:
    """Read lines reachable un-waited on some feasible path.

    Guards only test two two-valued header fields, so feasibility ground
    truth is a brute-force enumeration of their concrete values.
    """
    bugs = set()
    for ca, cb in itertools.product((0, 1), repeat=2):
        values = {"ca": ca, "cb": cb}
        waited = False
        line = first_line
        for what, guard in items:
            if guard is None:
                taken, stmt_line, span = True, line, 1
            else:
                var, negated = guard
                taken = (not values[var]) if negated else bool(values[var])
                stmt_line, span = line + 1, 3
            if taken:
                if what == "wait":
                    waited = True
                elif what == "read" and not waited:
                    bugs.add(stmt_line)
            line += span
    return bugs


def _handler_from(items) -> tuple[str, int]:
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
    first_line = len(lines) + 2  # 1-based, after the blank joined below
    for what, guard in items:
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
    return "\n" + "\n".join(lines) + "\n", first_line


@settings(max_examples=40, deadline=None)
@given(items=_ITEMS, engine=st.sampled_from(["paths", "summary"]))
def test_pruning_never_drops_a_true_bug(items, engine):
    source, first_line = _handler_from(items)
    expected = _oracle_bug_lines(items, first_line)
    on_lines = {r.location.line
                for r in _reports(source, enabled=True, engine=engine)}
    off_lines = {r.location.line
                 for r in _reports(source, enabled=False, engine=engine)}
    # Pruning only ever removes reports...
    assert on_lines <= off_lines
    # ...and never one the concrete-execution oracle calls a true bug.
    assert expected <= on_lines, (
        f"[{engine}] feasibility-on lost true bugs "
        f"{expected - on_lines}\n{source}")


# -- the paper corpus, feasibility off vs on -----------------------------------

def _corpus_totals(experiment) -> dict:
    """Ground-truth classification summed over every protocol and checker."""
    fields = ("errors", "minor", "violations", "fps", "useless_annotations",
              "unmatched")
    totals = dict.fromkeys(fields, 0)
    for proto, results in experiment.results.items():
        for checker in results:
            cls = experiment.classified(proto, checker)
            for field in fields:
                totals[field] += getattr(cls, field)
    return totals


class TestPaperCorpusPruning:
    def test_recall_kept_fps_and_useless_annotations_drop(
            self, paper_corpus, pruned_paper_corpus):
        # The paper's engine walks every syntactic path; pruning drops
        # two false positives and 17 of §6's useless annotations, and
        # keeps every true report.
        (off, off_counters), (on, on_counters) = (paper_corpus,
                                                  pruned_paper_corpus)
        recall = {"errors": 34, "minor": 6, "violations": 11, "unmatched": 0}
        assert _corpus_totals(off) == {**recall, "fps": 44,
                                       "useless_annotations": 25}
        assert _corpus_totals(on) == {**recall, "fps": 42,
                                      "useless_annotations": 8}
        assert off_counters.get("engine.pruned_edges", 0) == 0
        assert on_counters.get("engine.pruned_edges", 0) > 0


# -- the cost of tracking facts when nothing prunes ----------------------------

#: Every branch tests a distinct local used exactly once, so no condition
#: can contradict an earlier one and every fact dies at its branch: the
#: relevance GC's best case, and the honest worst case for pure
#: overhead, since the facts *are* tracked.
_NO_PRUNE_HANDLER = """
void Plain{i}(void) {{
    unsigned addr;
    unsigned buf;
    unsigned c0;
    unsigned c1;
    unsigned c2;
    unsigned c3;
    addr = HANDLER_GLOBALS(header.nh.addr);
    c0 = HANDLER_GLOBALS(header.nh.len);
    c1 = HANDLER_GLOBALS(header.nh.src);
    c2 = HANDLER_GLOBALS(header.nh.dst);
    c3 = HANDLER_GLOBALS(header.nh.op);
    if (c0) {{
        WAIT_FOR_DB_FULL(addr);
    }}
    if (c1) {{
        MISCBUS_READ_DB(addr, buf);
    }}
    if (c2) {{
        MISCBUS_READ_DB(addr, buf);
    }}
    if (c3) {{
        DB_FREE();
    }}
    return;
}}
"""


def test_nothing_to_prune_costs_no_extra_work():
    # With nothing to prune, feasibility on must do exactly the work of
    # feasibility off: restricting each store to the facts still live
    # keeps the (block, state, store) visited set the size of the
    # (block, state) one.  A store that kept every fact would take 240
    # steps and visit 480 states here.
    source = "\n".join(_NO_PRUNE_HANDLER.format(i=i) for i in range(60))
    cfgs = program_from_source(source).cfgs()
    sm = parse_metal(BUFFER_RACE_FULL)
    work = {}
    for enabled in (False, True):
        clear_function_summaries()
        sink = ReportSink()
        registry = MetricsRegistry()
        previous = activate_metrics(registry)
        try:
            for cfg in cfgs:
                run_machine(sm, cfg, sink, feasibility=enabled)
        finally:
            activate_metrics(previous)
        work[enabled] = {
            name: registry.counters.get(f"engine.{name}", 0)
            for name in ("steps", "states", "merged_states", "pruned_edges")}
        work[enabled]["reports"] = len(sink.reports)
    assert work[False] == work[True] == {
        "steps": 180, "states": 360, "merged_states": 180,
        "pruned_edges": 0, "reports": 120}


# -- cache / parallel / resume with feasibility on -----------------------------

@pytest.fixture
def mixed_files(tmp_path):
    a = tmp_path / "a.c"
    b = tmp_path / "b.c"
    a.write_text(CORRELATED)
    b.write_text(TRUE_BUG)
    return [str(a), str(b)]


def _formatted(results) -> str:
    return "\n".join(
        format_reports(result.reports, heading=name)
        for name, result in results.items()
    )


class TestComposition:
    def test_parallel_byte_identical(self, mixed_files):
        one = check_files(mixed_files, jobs=1, feasibility=True)
        two = check_files(mixed_files, jobs=2, feasibility=True)
        assert _formatted(one.results) == _formatted(two.results)

    def test_warm_cache_byte_identical(self, mixed_files, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cold = check_files(mixed_files, cache=cache, feasibility=True)
        warm = check_files(mixed_files, cache=cache, feasibility=True)
        assert warm.stats.hits > 0
        assert _formatted(cold.results) == _formatted(warm.results)

    def test_cache_keys_include_feasibility(self, mixed_files, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        on = check_files(mixed_files, cache=cache, feasibility=True)
        off = check_files(mixed_files, cache=cache, feasibility=False)
        # The off-run must not reuse the on-run's entries: it has more
        # reports (the correlated FP) and zero hits against them.
        assert off.stats.hits == 0
        on_count = sum(len(r.reports) for r in on.results.values())
        off_count = sum(len(r.reports) for r in off.results.values())
        assert off_count > on_count

    def test_resume_byte_identical(self, mixed_files, tmp_path):
        baseline = check_files(mixed_files, jobs=2, feasibility=True)
        runs = tmp_path / "runs"
        journal = RunJournal.create(runs)
        first = check_files(
            mixed_files, jobs=2, journal=journal, feasibility=True,
            policy=SupervisorPolicy(stop_after_items=3))
        journal.close()
        assert first.interrupted
        resumed = RunJournal.resume(runs, journal.run_id)
        second = check_files(mixed_files, jobs=2, journal=resumed,
                             feasibility=True)
        resumed.close()
        assert not second.interrupted
        assert _formatted(second.results) == _formatted(baseline.results)


# -- ranking -------------------------------------------------------------------

class TestRanking:
    def test_fp_scores_below_true_bug(self, mixed_files):
        run = check_files(mixed_files, feasibility=False,
                          names=["buffer-race"])
        scores = score_run(run)
        reports = run.results["buffer-race"].reports
        by_file = {Path(r.location.filename).name: confidence_of(r, scores)
                   for r in reports}
        assert by_file["b.c"] > by_file["a.c"]

    def test_min_confidence_filters(self, mixed_files):
        run = check_files(mixed_files, feasibility=False,
                          names=["buffer-race"])
        scores = score_run(run)
        reports = run.results["buffer-race"].reports
        lo = min(confidence_of(r, scores) for r in reports)
        hi = max(confidence_of(r, scores) for r in reports)
        kept = filter_by_confidence(reports, scores, (lo + hi) / 2)
        assert [Path(r.location.filename).name for r in kept] == ["b.c"]

    def test_json_scores_deterministic(self, mixed_files):
        a = run_cli("check", "--format", "json", "--feasibility", "off",
                    *mixed_files)
        b = run_cli("check", "--format", "json", "--feasibility", "off",
                    *mixed_files)
        # The run id embeds a timestamp; the report payload (including
        # every confidence score) must be identical run to run.
        doc_a, doc_b = json.loads(a.stdout), json.loads(b.stdout)
        assert doc_a["reports"] == doc_b["reports"]
        scored = [r for r in doc_a["reports"] if "confidence" in r]
        assert scored
        assert all(0.0 <= r["confidence"] <= 1.0 for r in scored)


# -- mc-check lint -------------------------------------------------------------

BAD_METAL = """\
{ #include "flash-includes.h" }
sm broken {
    decl { scalar } addr;
    start:
      { WAIT_FOR_DB_FULL(addr); } ==> nowhere
    | { MISCBUS_READ_DB(addr, addr); } ==> stop
    | { MISCBUS_READ_DB(addr, addr); } ==>
        { err("dead: shadowed by the previous rule"); }
    ;
    lonely:
      { DB_FREE(); } ==> stop
    ;
}
"""


class TestLint:
    def test_finds_all_three_kinds(self):
        kinds = {f.kind for f in lint_source(BAD_METAL, "bad.metal")}
        assert kinds == {"undeclared-target", "unreachable-state",
                         "dead-rule"}

    def test_builtin_checkers_are_clean(self):
        for name, listing in BUILTIN_LISTINGS.items():
            assert lint_source(listing, name) == [], name

    def test_dynamic_initial_state_suppresses_unreachable(self):
        sm = StateMachine("dyn")
        sm.decl("any", "x")
        sm.state("a")
        sm.state("b")
        sm.state("c")
        sm.add_rule("a", "f(x)", target="b")
        assert [f.subject for f in lint_machine(sm)
                if f.kind == "unreachable-state"] == ["c"]
        sm.initial_state_fn = lambda fn: "c"
        assert not [f for f in lint_machine(sm)
                    if f.kind == "unreachable-state"]

    def test_python_action_reaches_all_states(self):
        # A Python action may pick any target dynamically, so lint must
        # not call states it could jump to unreachable.
        sm = StateMachine("dyn2")
        sm.decl("any", "x")
        sm.state("a")
        sm.state("b")
        sm.add_rule("a", "f(x)", action=lambda ctx: None)
        assert not [f for f in lint_machine(sm)
                    if f.kind == "unreachable-state"]

    def test_cli_lint_builtins_clean(self):
        result = run_cli("lint")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "clean" in result.stdout

    def test_cli_lint_flags_bad_machine(self, tmp_path):
        bad = tmp_path / "bad.metal"
        bad.write_text(BAD_METAL)
        result = run_cli("lint", str(bad))
        assert result.returncode == 1
        assert "undeclared-target" in result.stdout
        assert "unreachable-state" in result.stdout
        assert "dead-rule" in result.stdout
