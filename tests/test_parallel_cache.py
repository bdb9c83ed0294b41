"""The parallel checker fleet and the content-hash result cache.

Covers the PR's contract: a warm-cache run reproduces cold-run reports
exactly; editing one file, bumping a checker's source, or changing the
engine version invalidates exactly the affected entries; quarantines
and degradation notes survive the worker serialisation round-trip; and
``--jobs N`` output is byte-identical to serial output.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

import repro.mc.cache as cache_mod
from repro.checkers.base import (
    CheckerResult,
    TwoPassChecker,
    checker_names,
    get_checker,
    run_all,
)
from repro.lang.source import Location
from repro.mc import (
    Budget,
    Quarantine,
    Report,
    ReportSink,
    ResultCache,
    check_files,
    format_reports,
    merge_parts,
    metal_files,
    resolve_jobs,
    result_from_payload,
    result_to_payload,
    sink_from_payload,
    sink_to_payload,
)
from repro.project import Program

FILE_A = """
void HandlerA(void) {
    SUBROUTINE_PROLOGUE();
    unsigned v;
    v = MISCBUS_READ_DB(0, 0);
    DB_FREE();
    return;
}
"""

FILE_B = """
void HandlerB(void) {
    SUBROUTINE_PROLOGUE();
    unsigned addr;
    addr = HANDLER_GLOBALS(header.nh.addr);
    WAIT_FOR_DB_FULL(addr);
    HANDLER_GLOBALS(dirEntry) = DIR_LOAD(addr);
    return;
}
"""


@pytest.fixture
def two_files(tmp_path):
    a = tmp_path / "a.c"
    b = tmp_path / "b.c"
    a.write_text(FILE_A)
    b.write_text(FILE_B)
    return [str(a), str(b)]


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def _two_pass():
    """Checkers the fleet runs as a per-unit local pass plus a link."""
    return [n for n in checker_names()
            if isinstance(get_checker(n), TwoPassChecker)]


def _linked_entry(path):
    """True for a cache entry a warm run reads: not a local part."""
    return "facts" not in json.loads(path.read_text())


def _report_set(results):
    return {
        (r.checker, r.message, r.location, r.function, r.severity)
        for result in results.values()
        for r in result.reports
    }


def _formatted(results):
    return "\n".join(
        format_reports(result.reports, heading=name)
        for name, result in results.items()
    )


class TestParallelMatchesSerial:
    def test_fleet_equals_run_all(self, two_files):
        run = check_files(two_files, jobs=1)
        files = {p: Path(p).read_text() for p in two_files}
        serial = run_all(Program(files))
        assert set(run.results) == set(serial)
        assert _report_set(run.results) == _report_set(serial)
        for name in serial:
            assert run.results[name].applied == serial[name].applied

    def test_jobs2_byte_identical_to_jobs1(self, two_files):
        one = check_files(two_files, jobs=1)
        two = check_files(two_files, jobs=2)
        assert _formatted(one.results) == _formatted(two.results)

    def test_budgeted_metal_json_is_the_same_at_any_jobs(self, tmp_path,
                                                          capsys):
        # Each file explores under its own step budget, inline or in a
        # worker, so a budget one racy handler fits in finds both.
        from repro import cli
        from repro.checkers.metal_sources import FIGURE_2
        metal = tmp_path / "wait.metal"
        metal.write_text(FIGURE_2)
        files = []
        for name in ("HandlerA", "HandlerC"):
            path = tmp_path / f"{name}.c"
            path.write_text(FILE_A.replace("HandlerA", name))
            files.append(str(path))
        docs = {}
        for jobs in (1, 2):
            code = cli.main(["metal", str(metal), *files, "--no-cache",
                             "--budget-steps", "12", "--jobs", str(jobs),
                             "--format", "json"])
            doc = json.loads(capsys.readouterr().out)
            assert code == 1 and doc.pop("jobs") == jobs
            doc.pop("run_id")
            docs[jobs] = doc
        assert docs[1] == docs[2]
        assert len(docs[1]["reports"]) == 2

    def test_merge_is_partition_independent(self):
        loc1 = Location("z.c", 9, 1)
        loc2 = Location("a.c", 2, 5)
        r1 = Report(checker="c", message="m1", location=loc1)
        r2 = Report(checker="c", message="m2", location=loc2)
        part1 = CheckerResult(checker="c", reports=[r1], applied=2)
        part2 = CheckerResult(checker="c", reports=[r2, r1], applied=3)
        ab = merge_parts("c", [part1, part2])
        ba = merge_parts("c", [part2, part1])
        assert ab.reports == ba.reports  # sorted + deduplicated
        assert ab.reports[0].location.filename == "a.c"
        assert ab.applied == ba.applied == 5


class TestCacheCorrectness:
    def test_warm_run_reproduces_cold_reports_exactly(self, two_files, cache):
        cold = check_files(two_files, cache=cache)
        assert cache.stats.hits == 0 and cache.stats.misses > 0
        warm_cache = ResultCache(cache.root)
        warm = check_files(two_files, cache=warm_cache)
        assert warm_cache.stats.misses == 0
        # Every cold lookup repeats, except those of the local parts:
        # their links hit, so a warm run never reads them.
        assert (warm_cache.stats.hits
                == cache.stats.misses - len(_two_pass()) * len(two_files))
        assert _formatted(cold.results) == _formatted(warm.results)
        for name in cold.results:
            assert (cold.results[name].applied
                    == warm.results[name].applied)
            assert (cold.results[name].extra
                    == warm.results[name].extra)

    def test_editing_one_file_invalidates_only_its_entries(
            self, two_files, cache):
        check_files(two_files, cache=cache)
        Path(two_files[1]).write_text(FILE_B + "\nvoid extra(void) { return; }\n")
        second = ResultCache(cache.root)
        check_files(two_files, cache=second)
        two_pass = len(_two_pass())
        per_unit = sum(1 for n in checker_names()
                       if get_checker(n).unit_parallel)
        assert two_pass and per_unit
        # Per-unit items over the *edited* unit miss, as does every
        # link (its key covers all files) and its local part over the
        # edited unit; items and parts over the untouched unit all hit.
        assert second.stats.misses == per_unit + 2 * two_pass
        assert second.stats.hits == per_unit + two_pass

    def test_checker_source_bump_invalidates_only_that_checker(
            self, two_files, cache, monkeypatch):
        check_files(two_files, cache=cache)
        original = cache_mod.checker_fingerprint

        def bumped(name):
            fp = original(name)
            return fp + "v2" if name == "buffer-race" else fp

        monkeypatch.setattr(cache_mod, "checker_fingerprint", bumped)
        import repro.mc.parallel as parallel_mod
        monkeypatch.setattr(parallel_mod, "checker_fingerprint", bumped)
        second = ResultCache(cache.root)
        check_files(two_files, cache=second)
        assert second.stats.misses == len(two_files)  # buffer-race per unit
        assert second.stats.hits > 0

    def test_engine_version_change_invalidates_everything(
            self, two_files, cache, monkeypatch):
        check_files(two_files, cache=cache)
        import repro
        monkeypatch.setattr(repro, "__version__", "999.0.0-test")
        second = ResultCache(cache.root)
        check_files(two_files, cache=second)
        assert second.stats.hits == 0
        assert second.stats.misses == cache.stats.misses

    def test_degraded_results_are_never_stored(self, two_files, cache):
        import time
        run = check_files(two_files, cache=cache,
                          deadline=time.time() - 1.0)
        assert all(r.degraded for r in run.results.values())
        assert cache.stats.stores == 0
        # and nothing partial can be served to a later unbudgeted run
        second = ResultCache(cache.root)
        clean = check_files(two_files, cache=second)
        assert second.stats.hits == 0
        assert not any(r.degraded for r in clean.results.values())

    def test_corrupt_entry_is_a_miss(self, two_files, cache):
        check_files(two_files, cache=cache)
        victim = next(filter(_linked_entry, cache.root.rglob("*.json")))
        victim.write_text("{not json")
        second = ResultCache(cache.root)
        check_files(two_files, cache=second)
        assert second.stats.misses == 1


#: A no-stack handler whose calls land in another unit (cross_b.c);
#: cross_c.c is a bystander.
CROSS_A = """
void HandlerA(void) {
    HANDLER_DEFS();
    HANDLER_PROLOGUE();
    NOSTACK();
    SET_STACKPTR();
    send_one();
    stray_call();
    return;
}
"""

CROSS_B = """
void send_one(void) {
    SUBROUTINE_PROLOGUE();
    NI_SEND(NI_REQUEST, F_NODATA, 1, 0, 1, 0);
    return;
}

void stray_call(void) {
    SUBROUTINE_PROLOGUE();
    return;
}
"""

CROSS_C = """
void bystander(void) {
    SUBROUTINE_PROLOGUE();
    return;
}
"""

#: Edits to cross_b.c alone that change what the links report about
#: HandlerA in cross_a.c: a second send over its lane allowance, and the
#: removal of the callee its unbracketed call reaches.
CROSS_EDITS = {
    "send": (CROSS_B.replace(
        "    return;\n}\n\nvoid stray_call",
        "    NI_SEND(NI_REQUEST, F_NODATA, 1, 0, 1, 0);\n"
        "    return;\n}\n\nvoid stray_call"),
        "handler HandlerA can send 2 messages", True),
    "remove": (CROSS_B[:CROSS_B.index("void stray_call")],
               "call without SET_STACKPTR", False),
}


def _cross_tree(root, b_text=CROSS_B, c_text=CROSS_C):
    """Write the cross-unit fixture and its spec; returns (units, spec)."""
    units = []
    for name, text in (("cross_a.c", CROSS_A), ("cross_b.c", b_text),
                       ("cross_c.c", c_text)):
        (root / name).write_text(text)
        units.append(str(root / name))
    spec = root / "cross.spec"
    spec.write_text(
        "protocol cross\nhandler HandlerA hw lanes 1 1 1 1 nostack\n")
    return units, str(spec)


class TestLinkedChecks:
    """lanes and exec-restrict run a local pass per unit and link the
    parts in the parent: an edit to one unit re-runs the local pass
    over that unit only, and the link still sees every unit."""

    @pytest.mark.parametrize("edit", sorted(CROSS_EDITS))
    def test_edit_parses_only_the_edited_unit(self, tmp_path, monkeypatch,
                                              capsys, edit):
        from unittest import mock

        from repro import cli
        from repro.lang import clear_memo, parser
        from repro.obs import read_trace

        _cross_tree(tmp_path)
        monkeypatch.chdir(tmp_path)
        argv = ["check", "cross_a.c", "cross_b.c", "cross_c.c",
                "--spec", "cross.spec", "--format", "json", "--jobs", "1"]
        cached = ["--cache-dir", str(tmp_path / "cache")]

        real_parse = parser.parse

        def check(*extra):
            clear_memo()
            with mock.patch("repro.lang.parser.parse",
                            wraps=real_parse) as a, \
                    mock.patch("repro.lang.memo.parse",
                               wraps=real_parse) as b:
                code = cli.main([*argv, *extra])
            messages = capsys.readouterr().out
            return code, messages, a.call_count + b.call_count

        def report(out):
            """The document minus its run id (only a cached run has one)."""
            doc = json.loads(out)
            del doc["run_id"]
            return doc

        text, message, present = CROSS_EDITS[edit]
        _, before, _ = check(*cached)
        assert (message in before) != present
        (tmp_path / "cross_b.c").write_text(text)
        code, after, parses = check(*cached, "--trace", "trace.jsonl")
        cold_code, cold, _ = check("--no-cache")
        assert (code, report(after)) == (cold_code, report(cold))
        assert (message in after) == present
        assert parses == 1
        # cross_a.c's local parts came from the cache.
        parts = {r["name"]: r["status"]
                 for r in read_trace(tmp_path / "trace.jsonl")
                 if r["kind"] == "checker"
                 and r["name"] in ("lanes", "exec-restrict")
                 and r["attrs"].get("units") == ["cross_a.c"]}
        assert parts == {"lanes": "cached", "exec-restrict": "cached"}

    def test_input_quarantined_parts_still_link(self, tmp_path):
        # Tolerant mode quarantines the template in cross_c.c; the
        # parts keep their facts, so the lanes finding survives.
        units, spec = _cross_tree(
            tmp_path, b_text=CROSS_EDITS["send"][0],
            c_text="template <class T> T id(T t) { return t; }\n" + CROSS_C)
        run = check_files(units, names=["lanes"], spec_path=spec,
                          frontend="tolerant")
        result = run.results["lanes"]
        assert result.degraded
        assert [q.phase for q in result.quarantines] == ["input"]
        assert [r.function for r in result.reports] == ["HandlerA"]

    def test_fleet_enters_every_checker_through_check(self, two_files,
                                                      monkeypatch):
        # Profilers and the benchmark's layer spans wrap each checker
        # class's ``check``; the fleet links two-pass checkers through
        # it, so every checker's span exists.
        from repro.checkers.base import _REGISTRY

        entered = set()

        def wrapped(name, check):
            def traced(self, program):
                entered.add(name)
                return check(self, program)
            return traced

        # Resolve every check before patching any, as the benchmark does.
        for name, cls, check in [(n, c, c.check)
                                 for n, c in _REGISTRY.items()]:
            monkeypatch.setattr(cls, "check", wrapped(name, check))
        check_files(two_files)
        assert entered == set(checker_names())
        assert _two_pass()

    def test_part_without_facts_leaves_the_link_unreported(
            self, tmp_path, monkeypatch):
        from repro.checkers.lanes import LaneChecker

        units, spec = _cross_tree(tmp_path, b_text=CROSS_EDITS["send"][0])
        real = LaneChecker.local

        def local(self, program):
            if units[2] in program.units:
                raise RuntimeError("local pass crashed")
            return real(self, program)

        monkeypatch.setattr(LaneChecker, "local", local)
        run = check_files(units, names=["lanes"], spec_path=spec,
                          keep_going=True)
        result = run.results["lanes"]
        assert result.degraded and not result.reports
        assert [q.message for q in result.quarantines] == [
            "local pass crashed"]


class TestPayloadRoundTrip:
    def test_result_payload_round_trips_quarantines_and_notes(self):
        result = CheckerResult(checker="c")
        result.reports = [Report(
            checker="c", message="boom at %x", function="f",
            location=Location("x.c", 3, 7), severity="warning",
            backtrace=("f:3", "g:9"),
        )]
        result.applied = 42
        result.annotations = [Location("x.c", 1, 1)]
        result.extra = {"handlers_checked": 7}
        result.quarantines = [Quarantine(
            checker="c", function="f", phase="path-walk",
            error_type="RuntimeError", message="deliberate")]
        result.degraded = True
        result.degradation_notes = ["[c] f: exploration stopped"]
        back = result_from_payload(result_to_payload(result))
        assert back.reports == result.reports
        assert back.applied == result.applied
        assert back.annotations == result.annotations
        assert back.extra == result.extra
        assert back.quarantines == result.quarantines
        assert back.degraded is True
        assert back.degradation_notes == result.degradation_notes

    def test_sink_payload_round_trips(self):
        sink = ReportSink()
        sink.add(Report(checker="m", message="msg",
                        location=Location("y.c", 5, 2)))
        sink.add_quarantine(Quarantine(
            checker="m", function="g", phase="cfg-build",
            error_type="ValueError", message="bad"))
        sink.degradation_notes.append("[m] g: stopped")
        back = sink_from_payload(sink_to_payload(sink))
        assert back.reports == sink.reports
        assert back.quarantines == sink.quarantines
        assert back.degraded == sink.degraded
        assert back.degradation_notes == sink.degradation_notes

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_quarantine_survives_worker_round_trip(self, two_files, jobs):
        # End to end: a crashing checker is quarantined inside the work
        # item (possibly in a forked worker) and the parent still sees
        # the Quarantine record and degradation after the payload
        # round-trip.  The class lives in this file, so it has source on
        # disk and fork workers inherit its registration.
        from repro.checkers import base as checkers_base

        class BoomChecker(checkers_base.Checker):
            name = "boom-test"
            description = "always crashes"

            def check(self, program):
                raise RuntimeError("deliberate crash")

        checkers_base._REGISTRY[BoomChecker.name] = BoomChecker
        try:
            run = check_files(two_files, names=["boom-test"],
                              jobs=jobs, keep_going=True)
        finally:
            del checkers_base._REGISTRY[BoomChecker.name]
        result = run.results["boom-test"]
        assert result.degraded
        assert result.quarantines
        assert result.quarantines[0].error_type == "RuntimeError"
        assert "deliberate crash" in result.quarantines[0].message


class TestResolveJobsAndBudget:
    def test_resolve_jobs(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs("1") == 1
        assert resolve_jobs(4) == 4
        assert resolve_jobs("8") == 8
        assert resolve_jobs("auto") >= 1

    def test_deadline_skips_are_noted(self, two_files):
        import time
        run = check_files(two_files, deadline=time.time() - 5)
        for result in run.results.values():
            assert result.degraded
            assert any("deadline" in n for n in result.degradation_notes)
            assert not result.reports

    def test_budgeted_metal_marks_degraded(self, two_files, tmp_path):
        from repro.checkers.metal_sources import FIGURE_2
        metal = tmp_path / "wait.metal"
        metal.write_text(FIGURE_2)
        run = metal_files(str(metal), two_files, budget_steps=1)
        assert any(sink.degraded for _p, sink in run.sinks)
        assert any("budget exhausted" in note for _p, sink in run.sinks
                   for note in sink.degradation_notes)
