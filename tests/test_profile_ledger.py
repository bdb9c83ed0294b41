"""Flight-recorder invariants: profiler, run ledger, live progress.

Three pillars, one correctness rule each:

* **profile** — a crash-plan run with retries must profile to the same
  deterministic cost tree as its clean re-run (orphan/superseded spans
  are excluded from attribution);
* **ledger** — two byte-identical runs must diff to "no drift, exit 0",
  while an injected report change or slowdown must exit nonzero;
* **progress** — ``--progress`` is stderr-only chatter computed *from*
  the run; stdout (the reports) stays byte-identical with it on or off.

Plus hardening: every read-a-file verb (``stats``, ``explain``,
``profile``, ``history``, ``diff``) must turn corrupt/truncated/missing
input into a structured exit-2 error, never a traceback.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.errors import ReproError
from repro.faults import FaultPlan, FaultRule
from repro.mc import SupervisorPolicy, check_files
from repro.obs import Observation, read_trace, span_record
from repro.obs.ledger import (
    RunLedger,
    config_fingerprint,
    diff_runs,
    find_run,
    format_diff,
    format_history,
    make_record,
    read_ledger,
    reports_digest,
    reports_from_doc,
)
from repro.obs.profile import build_profile, deterministic_view, format_profile
from repro.obs.progress import (
    ProgressReporter,
    read_heartbeats,
    write_heartbeat,
)

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

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

#: A handler with a real diagnostic (read with no wait), used to inject
#: report drift between two ledger records.
BUGGY = """
void HandlerBug(void) {
    SUBROUTINE_PROLOGUE();
    unsigned v;
    v = MISCBUS_READ_DB(0, 0);
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


def run_cli(*argv, timeout=120, cache_dir=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    if cache_dir is not None:
        env["MC_CHECK_CACHE_DIR"] = str(cache_dir)
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


def _run_id_from(proc) -> str:
    for line in proc.stderr.splitlines():
        if line.startswith("run: id="):
            return line.split("=", 1)[1].strip()
    raise AssertionError(f"no run id on stderr:\n{proc.stderr}")


# -- the profiler -------------------------------------------------------------

class TestProfile:
    def _traced(self, files, tmp_path, *, name, jobs=2, policy=None):
        trace = tmp_path / f"{name}.jsonl"
        observation = Observation(trace_path=str(trace))
        run = check_files(files, jobs=jobs, keep_going=True, policy=policy,
                          observation=observation)
        observation.finalize(run)
        return run, read_trace(trace)

    def test_profile_structure_and_accounting(self, two_files, tmp_path):
        run, records = self._traced(two_files, tmp_path, name="t")
        profile = build_profile(records)
        assert profile["schema"] == 1
        assert set(profile["phases"]) == {"parse", "engine", "dispatch"}
        # Every fleet item is attributed to exactly one checker bucket.
        items = sum(agg["items"] for agg in profile["checkers"].values())
        assert items == run.supervision.completed
        assert profile["cache"]["items_fresh"] == items
        # Engine work shows up as functions with their counters summed.
        assert profile["functions"]
        assert all(f["counters"].get("steps", 0) > 0
                   for f in profile["functions"])
        assert profile["hotspots"] == sorted(
            profile["functions"],
            key=lambda a: (-a["wall"], a["checker"], a["function"]))[:10]
        # The critical path descends from the run span into one item.
        path = profile["critical_path"]
        assert path[0]["kind"] == "run"
        assert path[1]["kind"] == "checker"
        assert profile["run"]["jobs"] == 2
        text = format_profile(profile)
        assert "critical path" in text and "hotspots" in text

    def test_crash_plan_profiles_to_the_clean_cost_tree(self, two_files,
                                                        tmp_path):
        """The ISSUE acceptance test: orphan/superseded attempts are
        excluded, so a run that crashed and retried attributes exactly
        the surviving work — equal to a clean re-run's tree."""
        plan = FaultPlan(rules=(
            FaultRule(site="worker_crash", after=0, every=2, count=3),))
        crashed, crash_records = self._traced(
            two_files, tmp_path, name="crash",
            policy=SupervisorPolicy(fault_plan=plan))
        assert crashed.supervision.crashes == 3
        clean, clean_records = self._traced(two_files, tmp_path,
                                            name="clean")
        crash_view = deterministic_view(build_profile(crash_records))
        clean_view = deterministic_view(build_profile(clean_records))
        assert crash_view == clean_view
        # Each crash was retried.  The raw traces need not be longer:
        # a crashed attempt dies before it opens a span, and how many
        # units each worker parses depends on which items it took.
        assert crashed.supervision.retried == 3

    def test_orphan_and_superseded_spans_are_dropped(self):
        def rec(span_id, parent, kind, name, item, wall, attrs=None,
                counters=None):
            return span_record(
                span_id=span_id, parent=parent, kind=kind, name=name,
                item=item, attempt=0, seq=0, t0=0.0, wall=wall, cpu=wall,
                status="ok", counters=counters or {}, attrs=attrs or {})

        records = [
            rec("run", None, "run", "mc-check", None, 9.0),
            rec("i0a0", None, "checker", "buffer-race", 0, 5.0,
                attrs={"superseded": True}),
            rec("i0a0.1", "i0a0", "function", "F", 0, 4.0,
                attrs={"superseded": True, "checker": "buffer-race"},
                counters={"steps": 99}),
            rec("i0a1", None, "checker", "buffer-race", 0, 2.0),
            rec("i0a1.1", "i0a1", "function", "F", 0, 1.0,
                attrs={"checker": "buffer-race"}, counters={"steps": 7}),
            rec("i1a0.1", "i1a0", "function", "G", 1, 3.0,
                attrs={"orphan": True, "checker": "buffer-race"}),
        ]
        profile = build_profile(records)
        assert profile["checkers"]["buffer-race"]["items"] == 1
        [f] = profile["functions"]
        assert (f["function"], f["calls"], f["counters"]["steps"]) \
            == ("F", 1, 7)
        # Only the surviving attempt's wall is attributed.
        assert profile["phases"]["engine"]["wall"] == 1.0
        assert profile["run"]["spans"] == 3

    def test_resolved_items_count_into_cache_attribution(self):
        def item(span_id, status):
            return span_record(
                span_id=span_id, parent="run", kind="checker", name="c",
                item=int(span_id[1:]), attempt=None, seq=0, t0=0.0,
                wall=0.0, cpu=0.0, status=status, counters={}, attrs={})

        run = span_record(
            span_id="run", parent=None, kind="run", name="mc-check",
            item=None, attempt=None, seq=0, t0=0.0, wall=1.0, cpu=1.0,
            status="ok", counters={"cache.hits": 2, "summary.hits": 5},
            attrs={})
        profile = build_profile(
            [run, item("i0", "cached"), item("i1", "cached"),
             item("i2", "replayed"), item("i3", "ok")])
        cache = profile["cache"]
        assert cache["items_fresh"] == 1
        assert cache["items_cached"] == 2
        assert cache["items_replayed"] == 1
        assert cache["cache.hits"] == 2
        assert cache["summary.hits"] == 5

    def test_empty_trace_is_a_structured_error(self):
        with pytest.raises(ReproError, match="no usable spans"):
            build_profile([])
        orphan_only = [span_record(
            span_id="x", parent=None, kind="checker", name="c", item=0,
            attempt=0, seq=0, t0=0.0, wall=0.0, cpu=0.0, status="ok",
            counters={}, attrs={"orphan": True})]
        with pytest.raises(ReproError, match="no usable spans"):
            build_profile(orphan_only)


# -- the ledger (unit) --------------------------------------------------------

def _record(run_id, *, reports=None, counters=None, wall=1.0, command="check",
            config=None, **kwargs):
    return make_record(
        run_id=run_id, command=command, files=["a.c"],
        config=config or {"jobs": 1}, wall=wall, exit_code=0,
        reports=reports or {}, counters=counters, now=1000.0, **kwargs)


class TestLedgerUnit:
    def test_fingerprints_are_stable_and_order_independent(self):
        assert (config_fingerprint({"a": 1, "b": 2})
                == config_fingerprint({"b": 2, "a": 1}))
        assert (config_fingerprint({"a": 1})
                != config_fingerprint({"a": 2}))
        assert reports_digest(["x", "y"]) == reports_digest(["y", "x"])
        assert reports_digest([]) != reports_digest(["x"])

    def test_record_shape(self):
        record = _record("r1", reports={"abc": {"checker": "c"}},
                         counters={"n": 3}, trace="/tmp/t.jsonl")
        assert record["schema"] == 1
        assert record["run"] == "r1"
        assert record["config_fp"] == config_fingerprint({"jobs": 1})
        assert record["reports_digest"] == reports_digest(["abc"])
        assert set(record["versions"]) == {
            "repro", "engine_fp", "report_schema", "payload_schema"}
        assert record["trace"] == "/tmp/t.jsonl"
        assert record["interrupted"] is False

    def test_reports_from_doc_keeps_verdicts_and_skips_junk(self):
        doc = {"reports": [
            {"id": "a1", "checker": "c", "file": "f.c", "line": 3,
             "function": "F", "message": "m"},
            {"id": "b2", "checker": "sim", "verdict": "crash",
             "message": "x"},
            {"no_id": True}, "junk",
        ]}
        reports = reports_from_doc(doc)
        assert set(reports) == {"a1", "b2"}
        assert reports["b2"]["verdict"] == "crash"
        assert "verdict" not in reports["a1"]

    def test_append_read_roundtrip_skips_corruption(self, tmp_path):
        path = tmp_path / "deep" / "ledger.jsonl"
        ledger = RunLedger(path)
        assert ledger.append(_record("r1"))
        assert ledger.append(_record("r2"))
        with path.open("a") as fh:
            fh.write('{"schema": 1, "run": "r3", "tru\n')    # torn tail
            fh.write("not json at all\n")
            fh.write(json.dumps({"schema": 999, "run": "other"}) + "\n")
        records = read_ledger(path)
        assert [r["run"] for r in records] == ["r1", "r2"]
        assert read_ledger(tmp_path / "absent.jsonl") == []

    def test_unwritable_ledger_disables_itself(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        ledger = RunLedger(blocker / "ledger.jsonl")   # parent is a file
        assert ledger.append(_record("r1")) is False
        assert ledger.disabled
        assert ledger.append(_record("r2")) is False

    def test_find_run_prefix_resolution(self):
        records = [_record("aaa111"), _record("aab222"), _record("aaa111")]
        assert find_run(records, "aaa111") is records[2]   # latest wins
        assert find_run(records, "aab")["run"] == "aab222"
        with pytest.raises(ReproError, match="ambiguous"):
            find_run(records, "aa")
        with pytest.raises(ReproError, match="no ledger record"):
            find_run(records, "zzz")
        with pytest.raises(ReproError, match="ledger is empty"):
            find_run([], "zzz")

    def test_identical_runs_have_no_drift(self):
        reports = {"abc": {"checker": "c", "function": "F", "message": "m",
                           "file": "f.c", "line": 3}}
        diff = diff_runs(_record("r1", reports=reports, wall=1.0),
                         _record("r2", reports=reports, wall=1.1))
        assert diff["drift"] is False
        assert diff["regression"] is False
        assert diff["reports"] == {"new": [], "lost": [], "changed": []}
        assert not diff["config_changed"]
        assert "no report drift" in format_diff(diff)

    def test_new_and_lost_reports_drive_drift(self):
        a = _record("r1", reports={"old": {
            "checker": "c", "function": "F", "message": "gone",
            "file": "f.c", "line": 1}})
        b = _record("r2", reports={"new": {
            "checker": "c", "function": "G", "message": "fresh",
            "file": "f.c", "line": 9}})
        diff = diff_runs(a, b)
        assert diff["drift"] is True and diff["regression"] is True
        assert [e["id"] for e in diff["reports"]["new"]] == ["new"]
        assert [e["id"] for e in diff["reports"]["lost"]] == ["old"]
        text = format_diff(diff)
        assert "+ new" in text and "- old" in text and "DRIFT" in text

    def test_moved_report_folds_into_changed(self):
        identity = {"checker": "c", "function": "F", "message": "m"}
        a = _record("r1", reports={
            "id_a": {**identity, "file": "f.c", "line": 3}})
        b = _record("r2", reports={
            "id_b": {**identity, "file": "f.c", "line": 30}})
        diff = diff_runs(a, b)
        assert diff["reports"]["new"] == [] and diff["reports"]["lost"] == []
        [moved] = diff["reports"]["changed"]
        assert (moved["id_a"], moved["id_b"]) == ("id_a", "id_b")
        assert (moved["from"], moved["to"]) == ("f.c:3", "f.c:30")
        assert diff["drift"] is True        # a move is still drift

    def test_wall_regression_needs_ratio_and_floor(self):
        # 2x slower but only +0.2s: under the absolute floor, not a
        # regression (scheduler jitter on fast runs must not gate CI).
        fast = diff_runs(_record("r1", wall=0.2), _record("r2", wall=0.4))
        assert fast["wall"]["regression"] is False
        # +40% and +2s: past both bars.
        slow = diff_runs(_record("r1", wall=5.0), _record("r2", wall=7.0))
        assert slow["wall"]["regression"] is True
        assert slow["regression"] is True and slow["drift"] is False
        assert "REGRESSION" in format_diff(slow)
        # Custom threshold: +100% required, +40% passes again.
        lax = diff_runs(_record("r1", wall=5.0), _record("r2", wall=7.0),
                        wall_threshold=1.0)
        assert lax["regression"] is False

    def test_counter_deltas_are_informational(self):
        diff = diff_runs(_record("r1", counters={"cache.hits": 0, "n": 2}),
                         _record("r2", counters={"cache.hits": 9, "n": 2}))
        assert diff["counters"] == {
            "cache.hits": {"a": 0, "b": 9, "delta": 9}}
        assert diff["regression"] is False

    def test_history_renders_newest_first_with_flags(self):
        records = [_record("older-run"),
                   _record("newer-run", interrupted=True, trace="/t.jsonl")]
        text = format_history(records)
        assert text.index("newer-run") < text.index("older-run")
        assert "interrupted,traced" in text
        assert format_history([]) == "(ledger is empty)"
        assert "1 older run(s) not shown" in format_history(records, limit=1)


# -- the ledger (end to end) --------------------------------------------------

class TestLedgerCLI:
    def _check(self, files, cache_dir, *extra):
        proc = run_cli("check", *files, "--format", "json",
                       "--feasibility", "off", "--keep-going", *extra,
                       cache_dir=cache_dir)
        assert proc.returncode in (0, 1), proc.stderr
        return proc

    def test_every_run_is_recorded_and_diffable(self, two_files, tmp_path):
        cache = tmp_path / "cache"
        run_a = _run_id_from(self._check(two_files, cache))
        run_b = _run_id_from(self._check(two_files, cache))
        records = read_ledger(cache / "ledger.jsonl")
        assert [r["run"] for r in records] == [run_a, run_b]
        assert records[0]["reports_digest"] == records[1]["reports_digest"]
        assert records[0]["config_fp"] == records[1]["config_fp"]
        assert records[1]["counters"].get("cache.hits", 0) > 0

        history = run_cli("history", cache_dir=cache)
        assert history.returncode == 0
        assert run_a in history.stdout and run_b in history.stdout

        # Back-to-back identical runs: zero drift, exit 0.
        diff = run_cli("diff", run_a, run_b, cache_dir=cache)
        assert diff.returncode == 0, diff.stdout + diff.stderr
        assert "no report drift" in diff.stdout

    def test_injected_report_change_fails_the_diff(self, two_files,
                                                   tmp_path):
        cache = tmp_path / "cache"
        run_a = _run_id_from(self._check(two_files, cache))
        bug = tmp_path / "bug.c"
        bug.write_text(BUGGY)
        run_b = _run_id_from(
            self._check(two_files + [str(bug)], cache))
        diff = run_cli("diff", run_a, run_b, "--format", "json",
                       cache_dir=cache)
        assert diff.returncode == 1
        doc = json.loads(diff.stdout)
        assert doc["drift"] is True
        assert doc["reports"]["new"], "the injected bug must surface"
        assert any(e.get("file", "").endswith("bug.c")
                   for e in doc["reports"]["new"])

    def test_no_cache_run_writes_no_ledger(self, two_files, tmp_path):
        cache = tmp_path / "cache"
        proc = run_cli("check", *two_files, "--no-cache", "--keep-going",
                       "--feasibility", "off", cache_dir=cache)
        assert proc.returncode in (0, 1)
        assert not (cache / "ledger.jsonl").exists()

    def test_profile_resolves_a_traced_run_id(self, two_files, tmp_path):
        cache = tmp_path / "cache"
        trace = tmp_path / "t.jsonl"
        run_id = _run_id_from(
            self._check(two_files, cache, "--trace", str(trace)))
        proc = run_cli("profile", run_id, cache_dir=cache)
        assert proc.returncode == 0, proc.stderr
        assert "critical path" in proc.stdout
        # Prefix resolution works for profile too.
        assert run_cli("profile", run_id[:8],
                       cache_dir=cache).returncode == 0

    def test_profile_of_untraced_run_says_how_to_fix_it(self, two_files,
                                                        tmp_path):
        cache = tmp_path / "cache"
        run_id = _run_id_from(self._check(two_files, cache))
        proc = run_cli("profile", run_id, cache_dir=cache)
        assert proc.returncode == 2
        assert "rerun it with --trace" in proc.stderr
        assert "Traceback" not in proc.stderr


# -- live progress ------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestProgressReporter:
    def _reporter(self, **kwargs):
        clock = FakeClock()
        stream = io.StringIO()
        reporter = ProgressReporter(stream=stream, interval=1.0,
                                    clock=clock, **kwargs)
        return reporter, clock, stream

    def test_ticks_are_throttled_but_finish_always_renders(self):
        reporter, clock, stream = self._reporter()
        stats = SimpleNamespace(completed=0, quarantined=0, retried=0)
        reporter.begin(total=10, resolved=2)
        for i in range(50):
            clock.t += 0.1                 # 5 seconds total
            stats.completed = i // 10
            reporter.tick(stats, busy=2)
        reporter.finish(stats)
        lines = stream.getvalue().splitlines()
        # begin + at most one per simulated second + the final line.
        assert 3 <= len(lines) <= 7
        assert lines[0].startswith("progress: 2/10 items (20%)")
        assert lines[-1].startswith("progress(done): 6/10 items (60%)")

    def test_rate_eta_and_flight_come_from_fresh_items_only(self):
        reporter, clock, stream = self._reporter()
        reporter.begin(total=8, resolved=4)
        clock.t = 2.0
        stats = SimpleNamespace(completed=2, quarantined=0, retried=1)
        reporter.tick(stats, busy=2)
        line = stream.getvalue().splitlines()[-1]
        # 2 fresh items in 2s = 1.0 items/s; 2 remaining => eta 2s.
        assert "6/8 items (75%)" in line
        assert "1.0 items/s" in line
        assert "eta 2s" in line
        assert "2 in flight" in line
        assert "retries 1" in line

    def test_all_cached_run_renders_without_rates(self):
        reporter, clock, stream = self._reporter()
        reporter.begin(total=5, resolved=5)
        reporter.finish(None)
        final = stream.getvalue().splitlines()[-1]
        assert "5/5 items (100%)" in final
        assert "all resolved from cache" in final

    def test_worker_liveness_from_heartbeats(self, tmp_path):
        write_heartbeat(str(tmp_path), item=0, attempt=0, event="start")
        write_heartbeat(str(tmp_path), item=0, attempt=0, event="done")
        beats = read_heartbeats(tmp_path)
        [beat] = beats.values()
        assert beat["event"] == "done" and beat["item"] == 0

        # Synthesize one live and one stalled worker.
        (tmp_path / "hb-111.jsonl").write_text(
            json.dumps({"pid": 111, "t": 100.0, "item": 1, "attempt": 0,
                        "event": "start"}) + "\n")
        (tmp_path / "hb-222.jsonl").write_text(
            json.dumps({"pid": 222, "t": 199.0, "item": 2, "attempt": 0,
                        "event": "start"}) + "\n{\"torn")
        reporter, clock, stream = self._reporter(
            heartbeat_dir=str(tmp_path), wall_clock=lambda: 200.0)
        reporter.begin(total=4, resolved=0)
        line = stream.getvalue().splitlines()[-1]
        assert "live" in line and "(1 stalled)" in line

    def test_heartbeat_writes_never_raise(self, tmp_path):
        write_heartbeat(None, item=0, attempt=0, event="start")
        blocker = tmp_path / "file"
        blocker.write_text("x")
        write_heartbeat(str(blocker), item=0, attempt=0, event="start")
        assert read_heartbeats(tmp_path / "absent") == {}


class TestProgressCLI:
    def test_progress_is_pure_stderr_chatter(self, two_files, tmp_path):
        plain = run_cli("check", *two_files, "--no-cache", "--keep-going",
                        "--feasibility", "off", "--format", "json",
                        cache_dir=tmp_path / "c1")
        observed = run_cli("check", *two_files, "--no-cache", "--keep-going",
                           "--feasibility", "off", "--format", "json",
                           "--progress", "--jobs", "2",
                           cache_dir=tmp_path / "c2")
        assert plain.returncode == observed.returncode
        plain_doc = json.loads(plain.stdout)
        observed_doc = json.loads(observed.stdout)
        assert plain_doc.pop("jobs") == 1 and observed_doc.pop("jobs") == 2
        assert json.dumps(plain_doc) == json.dumps(observed_doc)
        assert "progress(done):" in observed.stderr
        assert "progress" not in plain.stderr


# -- hardening: corrupt inputs fail structured --------------------------------

def _assert_structured_failure(proc):
    assert proc.returncode == 2, (proc.stdout, proc.stderr)
    assert "mc-check: internal error:" in proc.stderr
    assert "Traceback" not in proc.stderr


class TestHardening:
    def test_stats_on_missing_truncated_corrupt_files(self, tmp_path):
        _assert_structured_failure(
            run_cli("stats", str(tmp_path / "absent.json")))
        truncated = tmp_path / "truncated.json"
        truncated.write_text('{"schema": 1, "counters": {"a"')
        _assert_structured_failure(run_cli("stats", str(truncated)))
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"schema": 999}))
        _assert_structured_failure(run_cli("stats", str(wrong)))
        not_metrics = tmp_path / "list.json"
        not_metrics.write_text("[1, 2, 3]")
        _assert_structured_failure(run_cli("stats", str(not_metrics)))
        bad_values = tmp_path / "bad.json"
        bad_values.write_text(json.dumps(
            {"schema": 1, "counters": {"x": "NaN?"},
             "gauges": {}, "histograms": {}}))
        _assert_structured_failure(run_cli("stats", str(bad_values)))

    def test_explain_on_missing_corrupt_and_malformed_reports(self,
                                                              tmp_path):
        _assert_structured_failure(
            run_cli("explain", str(tmp_path / "absent.json"), "abc"))
        corrupt = tmp_path / "corrupt.json"
        corrupt.write_text('{"reports": [')
        _assert_structured_failure(run_cli("explain", str(corrupt), "abc"))
        not_a_list = tmp_path / "notalist.json"
        not_a_list.write_text(json.dumps({"reports": {"id": "abc"}}))
        _assert_structured_failure(
            run_cli("explain", str(not_a_list), "abc"))
        # A present id whose entry is mangled must fail structured too.
        mangled = tmp_path / "mangled.json"
        mangled.write_text(json.dumps({"reports": [
            {"id": "abc123", "provenance": [{"kind": 7}]}]}))
        proc = run_cli("explain", str(mangled), "abc123")
        _assert_structured_failure(proc)
        assert "malformed" in proc.stderr

    def test_profile_on_missing_and_empty_traces(self, tmp_path):
        _assert_structured_failure(
            run_cli("profile", "--trace", str(tmp_path / "absent.jsonl")))
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        _assert_structured_failure(run_cli("profile", "--trace", str(empty)))
        garbage = tmp_path / "garbage.jsonl"
        garbage.write_text("not json\n{\"torn\n")
        _assert_structured_failure(
            run_cli("profile", "--trace", str(garbage)))
        _assert_structured_failure(run_cli("profile"))   # no args at all

    def test_diff_and_history_on_empty_or_corrupt_ledgers(self, tmp_path):
        cache = tmp_path / "cache"
        _assert_structured_failure(
            run_cli("diff", "aaa", "bbb", cache_dir=cache))
        cache.mkdir(parents=True)
        (cache / "ledger.jsonl").write_text("garbage\n{\"torn\n")
        history = run_cli("history", cache_dir=cache)
        assert history.returncode == 0           # corruption is skipped
        assert "(ledger is empty)" in history.stdout
        _assert_structured_failure(
            run_cli("diff", "aaa", "bbb", cache_dir=cache))

    def test_diff_refuses_interrupted_and_mixed_command_runs(self,
                                                             tmp_path):
        cache = tmp_path / "cache"
        ledger = RunLedger(cache / "ledger.jsonl")
        ledger.append(_record("run-check"))
        ledger.append(_record("run-metal", command="metal"))
        ledger.append(_record("run-torn", interrupted=True))
        mixed = run_cli("diff", "run-check", "run-metal", cache_dir=cache)
        _assert_structured_failure(mixed)
        assert "cannot diff" in mixed.stderr
        torn = run_cli("diff", "run-check", "run-torn", cache_dir=cache)
        _assert_structured_failure(torn)
        assert "interrupted" in torn.stderr
