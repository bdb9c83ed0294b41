"""CLI exit-code discipline, exercised through real subprocesses.

The contract (``check``/``metal``/``simulate``): **0** the protocol is
clean, **1** the protocol has bugs, **2** the *tool* failed (internal
error or quarantined checker) — so CI can tell the two apart.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.checkers.metal_sources import FIGURE_2

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"


def run_cli(*argv, timeout=120, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


def run_python(code, timeout=120):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


# Clean for the static checkers: a utility with no buffer traffic.
CLEAN_UTIL = """
void util(void) {
    SUBROUTINE_PROLOGUE();
    unsigned a;
    a = 1 + 2;
    return;
}
"""

# Clean for the *simulator*: a handler doing the full correct dance.
CLEAN_HANDLER = """
void Handler(void) {
    unsigned addr;
    unsigned v;
    addr = HANDLER_GLOBALS(header.nh.addr);
    WAIT_FOR_DB_FULL(addr);
    v = MISCBUS_READ_DB(addr, 0);
    HANDLER_GLOBALS(dirEntry) = DIR_LOAD(addr);
    DIR_WRITEBACK(addr, HANDLER_GLOBALS(dirEntry));
    DB_FREE();
    return;
}
"""

RACY_HANDLER = """
void Racy(void) {
    SUBROUTINE_PROLOGUE();
    unsigned v;
    v = MISCBUS_READ_DB(0, 0);
    DB_FREE();
    return;
}
"""


@pytest.fixture
def clean_c(tmp_path):
    path = tmp_path / "clean.c"
    path.write_text(CLEAN_UTIL)
    return str(path)


@pytest.fixture
def sim_clean_c(tmp_path):
    path = tmp_path / "sim_clean.c"
    path.write_text(CLEAN_HANDLER)
    return str(path)


@pytest.fixture
def racy_c(tmp_path):
    path = tmp_path / "racy.c"
    path.write_text(RACY_HANDLER)
    return str(path)


@pytest.fixture
def stray_break_c(tmp_path):
    # ``check`` rejects this (break outside loop/switch in H); the
    # simulator must fail the same way, as an InterpError.
    path = tmp_path / "stray_break.c"
    path.write_text("void H(void) {\n    unsigned a;\n    a = 1;\n"
                    "    break;\n}\n")
    return str(path)


class TestCheckExitCodes:
    def test_clean_file_exits_zero(self, clean_c):
        proc = run_cli("check", clean_c)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "no errors found" in proc.stdout

    def test_buggy_file_exits_one(self, racy_c):
        proc = run_cli("check", racy_c)
        assert proc.returncode == 1, proc.stdout + proc.stderr

    def test_unreadable_input_exits_two(self, tmp_path):
        bad = tmp_path / "bad.c"
        bad.write_text('void broken( { "unterminated\n')
        proc = run_cli("check", str(bad))
        assert proc.returncode == 2
        assert "internal error" in proc.stderr

    def test_bad_jobs_flag_is_a_usage_error(self, clean_c):
        proc = run_cli("check", clean_c, "--jobs", "abc")
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "Traceback" not in proc.stderr
        assert "argument --jobs: invalid value 'abc'" in proc.stderr

    def test_bad_jobs_environment_is_a_usage_error(self, clean_c):
        proc = run_cli("check", clean_c, env_extra={"MC_CHECK_JOBS": "two"})
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "Traceback" not in proc.stderr
        assert "invalid value 'two'" in proc.stderr
        assert "$MC_CHECK_JOBS" in proc.stderr

    def test_quarantined_checker_exits_two(self, racy_c):
        # A checker that crashes at run time: without --keep-going the
        # interpreter dies (uncaught traceback); with it, the crash is
        # a quarantine diagnostic and the tool reports exit 2.
        code = f"""
import sys
from repro.checkers.base import Checker, register
from repro.cli import main

@register
class Boom(Checker):
    name = "boom"
    metal_loc = 0
    def check(self, program):
        raise RuntimeError("deliberately broken")

sys.exit(main(["check", {racy_c!r}, "--keep-going"]))
"""
        proc = run_python(code)
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "quarantined [boom]" in proc.stdout
        assert "DEGRADED" in proc.stdout
        # the other checkers still reported the seeded race
        assert "unsynchronized" in proc.stdout or "race" in proc.stdout

    def test_crash_without_keep_going_is_a_traceback(self, racy_c):
        code = f"""
import sys
from repro.checkers.base import Checker, register
from repro.cli import main

@register
class Boom(Checker):
    name = "boom"
    metal_loc = 0
    def check(self, program):
        raise RuntimeError("deliberately broken")

sys.exit(main(["check", {racy_c!r}]))
"""
        proc = run_python(code)
        # an uncaught crash is a traceback, not a tidy diagnostic
        assert "Traceback" in proc.stderr
        assert "RuntimeError" in proc.stderr
        assert "quarantined" not in proc.stdout


class TestMetalExitCodes:
    @pytest.fixture
    def figure2_metal(self, tmp_path):
        path = tmp_path / "wait.metal"
        path.write_text(FIGURE_2)
        return str(path)

    def test_clean_exits_zero(self, figure2_metal, clean_c):
        proc = run_cli("metal", figure2_metal, clean_c)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_diagnostics_exit_one(self, figure2_metal, racy_c):
        proc = run_cli("metal", figure2_metal, racy_c)
        assert proc.returncode == 1, proc.stdout + proc.stderr

    def test_budget_flag_marks_degraded(self, figure2_metal, racy_c):
        proc = run_cli("metal", figure2_metal, racy_c,
                       "--budget-steps", "1")
        assert "DEGRADED" in proc.stdout

    def test_missing_metal_file_exits_two(self, clean_c, tmp_path):
        proc = run_cli("metal", str(tmp_path / "nope.metal"), clean_c,
                       "--no-cache")
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "internal error" in proc.stderr


class TestSimulateExitCodes:
    def test_clean_run_exits_zero(self, sim_clean_c):
        proc = run_cli("simulate", sim_clean_c, "--dispatch", "1=Handler",
                       "--messages", "50")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout

    def test_buggy_run_exits_one(self, racy_c):
        proc = run_cli("simulate", racy_c, "--dispatch", "1=Racy",
                       "--messages", "20")
        assert proc.returncode == 1
        assert "NOT CLEAN" in proc.stdout

    def test_fault_plan_flips_clean_to_buggy(self, tmp_path):
        src = tmp_path / "alloc.c"
        src.write_text("""
void AllocNoCheck(void) {
    unsigned buf;
    unsigned v;
    DB_FREE();
    buf = DB_ALLOC();
    v = MISCBUS_READ_DB(0, 0);
    DB_FREE();
    return;
}
""")
        plan = tmp_path / "plan.json"
        plan.write_text(
            '{"seed": 42, "rules": [{"site": "alloc_fail", "every": 5}]}')
        base = ("simulate", str(src), "--dispatch", "1=AllocNoCheck",
                "--messages", "50")
        without = run_cli(*base)
        assert without.returncode == 0, without.stdout + without.stderr
        with_plan = run_cli(*base, "--fault-plan", str(plan))
        assert with_plan.returncode == 1
        assert "alloc_fail" in with_plan.stdout
        assert "NOT CLEAN" in with_plan.stdout

    def test_bad_dispatch_exits_two(self, clean_c):
        proc = run_cli("simulate", clean_c, "--dispatch", "1=NoSuch")
        assert proc.returncode == 2
        assert "internal error" in proc.stderr

    def test_malformed_fault_plan_exits_two(self, sim_clean_c, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text('{"rules": [{"site": "cosmic_ray"}]}')
        proc = run_cli("simulate", sim_clean_c, "--dispatch", "1=Handler",
                       "--fault-plan", str(plan))
        assert proc.returncode == 2
        assert "internal error" in proc.stderr


# Dynamically manifest bugs for the simulator hardening tests: a double
# free that --strict escalates into a typed error mid-run.
DOUBLE_FREE_HANDLER = """
void Doubler(void) {
    unsigned buf;
    buf = DB_ALLOC();
    DB_FREE();
    DB_FREE();
    return;
}
"""


class TestSimulateHardening:
    """Typed failures become structured ``failure:`` records — a raw
    traceback from ``simulate`` is always a bug (satellite contract)."""

    @pytest.fixture
    def doubler_c(self, tmp_path):
        path = tmp_path / "doubler.c"
        path.write_text(DOUBLE_FREE_HANDLER)
        return str(path)

    def test_strict_violation_is_a_structured_failure(self, doubler_c):
        proc = run_cli("simulate", doubler_c, "--dispatch", "1=Doubler",
                       "--messages", "10", "--strict")
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "failure: type=DoubleFreeError" in proc.stdout
        assert "property=buffer-refcount" in proc.stdout
        assert "NOT CLEAN" in proc.stdout
        assert "Traceback" not in proc.stderr

    def test_strict_failure_still_reports_partial_counters(self, doubler_c):
        proc = run_cli("simulate", doubler_c, "--dispatch", "1=Doubler",
                       "--messages", "10", "--strict")
        assert "handlers run:" in proc.stdout

    def test_interp_error_is_internal_not_a_traceback(self, tmp_path):
        src = tmp_path / "undefined.c"
        src.write_text("void Bad(void) {\n    NO_SUCH_BUILTIN();\n}\n")
        proc = run_cli("simulate", str(src), "--dispatch", "1=Bad",
                       "--messages", "5")
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "failure: type=InterpError" in proc.stdout
        assert "Traceback" not in proc.stderr

    def test_stray_break_is_internal_not_a_traceback(self, stray_break_c):
        proc = run_cli("simulate", stray_break_c, "--dispatch", "1=H")
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert ("failure: type=InterpError message=break outside "
                "loop/switch in H") in proc.stdout
        assert "Traceback" not in proc.stderr

    def test_stack_exhaustion_is_internal_not_a_traceback(self, tmp_path):
        # R's recursive call sits inside 30 nested blocks: Python's stack
        # runs out before the interpreter's call-depth limit of 64.
        nested = ("if (n) { " * 30 + "return R(n - 1) + 1;" + " }" * 30)
        src = tmp_path / "deep.c"
        src.write_text(f"unsigned R(unsigned n) {{ {nested} return 0; }}\n"
                       f"void H(void) {{ R(60); }}\n")
        proc = run_cli("simulate", str(src), "--dispatch", "1=H",
                       "--messages", "2")
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "failure: type=InterpError message=stack exhausted in H" \
            in proc.stdout
        assert "Traceback" not in proc.stderr

    def test_non_integer_opcode_exits_two(self, sim_clean_c):
        proc = run_cli("simulate", sim_clean_c, "--dispatch", "x=Handler")
        assert proc.returncode == 2
        assert "internal error" in proc.stderr


class TestCampaignExitCodes:
    """``campaign`` keeps the same 0/1/2/130 contract as check/metal."""

    def test_clean_campaign_exits_zero(self, sim_clean_c):
        # No generated faults, a correct handler: nothing can crash.
        proc = run_cli("campaign", sim_clean_c, "--dispatch", "1=Handler",
                       "--runs", "3", "--shard-size", "2", "--messages", "6",
                       "--max-fault-rules", "0", "--no-cache")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "cross-tab:" in proc.stdout

    def test_crashing_campaign_exits_one_and_confirms(self, racy_c):
        proc = run_cli("campaign", racy_c, "--dispatch", "1=Racy",
                       "--runs", "4", "--shard-size", "2", "--messages", "8",
                       "--no-cache")
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "confirmed" in proc.stdout
        assert "minimal repro" in proc.stdout

    def test_stray_break_is_recorded_as_the_runs_error(self, stray_break_c):
        proc = run_cli("campaign", stray_break_c, "--dispatch", "1=H",
                       "--runs", "2", "--shard-size", "2", "--messages", "3",
                       "--no-cache", "--format", "json")
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "Traceback" not in proc.stderr
        crashes = __import__("json").loads(proc.stdout)["crashes"]
        assert [c["error"] for c in crashes] == [
            ["InterpError", "break outside loop/switch in H"]] * 2

    def test_missing_dispatch_exits_two(self, racy_c):
        proc = run_cli("campaign", racy_c, "--runs", "2", "--no-cache")
        assert proc.returncode == 2
        assert "internal error" in proc.stderr

    def test_metrics_do_not_change_the_crosstab(self, racy_c, tmp_path):
        base = ("campaign", racy_c, "--dispatch", "1=Racy", "--runs", "3",
                "--shard-size", "2", "--messages", "6", "--no-cache")
        plain = tmp_path / "plain.json"
        observed = tmp_path / "observed.json"
        metrics = tmp_path / "metrics.json"
        a = run_cli(*base, "--out", str(plain))
        b = run_cli(*base, "--out", str(observed),
                    "--metrics-out", str(metrics))
        assert a.returncode == b.returncode
        assert plain.read_bytes() == observed.read_bytes()
        snapshot = __import__("json").loads(metrics.read_text())
        assert snapshot["counters"]["campaign.runs"] == 3


class TestNumericFlagRanges:
    """An out-of-range numeric flag is a usage error (exit 2) from
    argparse before any work starts, as a bad ``--jobs`` is.  Run
    anyway, each one misleads: a confidence above 1 hides a real race
    behind "no errors found", a negative budget skips every item, a
    negative item timeout kills every worker as hung, zero nodes die in
    a ``ZeroDivisionError`` with exit 1 ("bugs found"), zero buffers
    report a leak deadlock before any handler runs, lanes that hold
    nothing "confirm" a lanes report, zero messages check nothing and
    exit 0, and a negative fault-rule cap dies in a ``ValueError``
    traceback."""

    @pytest.mark.parametrize("command, flag, bad, boundary", [
        ("check", "--min-confidence", "5", "1"),
        ("check", "--min-confidence", "-0.5", "0"),
        ("check", "--budget-seconds", "-1", "0.001"),
        ("metal", "--budget-steps", "-1", "1"),
        ("metal", "--budget-steps", "0", "1"),
        ("metal", "--budget-seconds", "0", "0.001"),
        ("check", "--item-timeout", "-1", "0.001"),
        ("check", "--max-retries", "-3", "0"),
        ("simulate", "--nodes", "0", "1"),
        ("campaign", "--nodes", "-1", "1"),
        ("simulate", "--buffers", "0", "1"),
        ("campaign", "--lane-capacity", "0", "1"),
        ("campaign", "--messages", "0", "1"),
        ("simulate", "--messages", "-1", "1"),
        ("simulate", "--max-hops", "-1", "0"),
        ("campaign", "--max-fault-rules", "-1", "0"),
    ])
    def test_out_of_range_value_is_a_usage_error(self, command, flag, bad,
                                                 boundary, racy_c, tmp_path):
        from repro.cli import build_parser
        metal = tmp_path / "wait.metal"
        metal.write_text(FIGURE_2)
        inputs = {
            "check": [racy_c, "--jobs", "2", "--no-cache"],
            "metal": [str(metal), racy_c, "--no-cache"],
            "simulate": [racy_c, "--dispatch", "1=Racy"],
            "campaign": [racy_c, "--dispatch", "1=Racy", "--runs", "2",
                         "--no-cache"],
        }[command]
        proc = run_cli(command, *inputs, flag, bad)
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert f"argument {flag}: invalid value {bad!r}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""
        # The edge of the range stays valid.
        args = build_parser().parse_args([command, *inputs, flag, boundary])
        assert getattr(args, flag[2:].replace("-", "_")) == float(boundary)


class TestUnreadableInputs:
    """A spec, metal program or transform input that cannot be read is
    a structured internal error — one ``cannot read`` line on stderr,
    nothing on stdout, exit 2 — as an unreadable translation unit is,
    not a traceback with exit 1 ("bugs found")."""

    @pytest.mark.parametrize("argv", [
        ("check", "--spec", "{missing}", "{c}"),
        ("check", "--spec", "{directory}", "{c}"),
        ("campaign", "--spec", "{missing}", "{c}"),
        ("metal", "{missing}", "{c}"),
        ("metal", "{directory}", "{c}"),
        ("transform", "{missing}"),
        ("transform", "{directory}"),
    ], ids=["check-spec-missing", "check-spec-directory",
            "campaign-spec-missing", "metal-missing", "metal-directory",
            "transform-missing", "transform-directory"])
    def test_unreadable_input_exits_two(self, argv, racy_c, tmp_path):
        names = {"missing": str(tmp_path / "nope.input"),
                 "directory": str(tmp_path), "c": racy_c}
        argv = [arg.format(**names) for arg in argv]
        if argv[0] != "transform":
            argv.append("--no-cache")
        proc = run_cli(*argv)
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "Traceback" not in proc.stderr
        assert "mc-check: internal error: cannot read" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("argv", [
        ("check", "{missing}", "{c}"),
        ("check", "--keep-going", "{missing}", "{c}"),
        ("check", "--spec", "{missing}", "{c}"),
        ("metal", "{missing}", "{c}"),
        ("campaign", "--spec", "{missing}", "{c}"),
        ("campaign", "--dispatch", "1=Racy", "--report", "{missing}", "{c}"),
    ], ids=["check-unit", "check-unit-keep-going", "check-spec", "metal",
            "campaign-spec", "campaign-report"])
    def test_unreadable_input_leaves_no_run(self, argv, racy_c, tmp_path):
        """Every input is read before the run journal is created, so a
        run that cannot start announces no run id and leaves no
        journal to ``--resume``."""
        cache = tmp_path / "cache"
        names = {"missing": str(tmp_path / "nope.input"), "c": racy_c}
        argv = [arg.format(**names) for arg in argv]
        proc = run_cli(*argv, "--cache-dir", str(cache))
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "mc-check: internal error: cannot read" in proc.stderr
        assert "run: id=" not in proc.stderr
        assert not list(cache.glob("runs/*"))
