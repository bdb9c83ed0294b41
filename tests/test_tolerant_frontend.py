"""The tolerant frontend: crash-proof parsing, havoc semantics, opaque
suppression, input quarantines, and the strict/tolerant contracts.

The contracts under test:

1. **Tolerant never raises.**  ``parse(text, mode="tolerant")`` yields
   a :class:`TranslationUnit` for *any* input — byte soup, truncated
   source, C++ — recovering statements/expressions as opaque nodes and
   quarantining unrecoverable top-level regions.
2. **Strict fails cleanly.**  Strict parsing of arbitrary garbage may
   reject, but only ever with a :class:`SourceError` subclass carrying
   a position — never IndexError/AttributeError/RecursionError.
3. **Byte identity on clean input.**  On the paper corpus (which the
   subset grammar parses fully) tolerant mode is byte-identical to
   strict: same ASTs, same reports, same JSON document.
4. **Opaque poisons, never crashes.**  Sema/CFG/engine treat opaque
   nodes as havoc; reports whose every path crosses an opaque region
   are suppressed with ``suppressed_by="opaque"`` provenance, and a
   clean path to the same report un-suppresses it.
5. **Exit-code discipline.**  ``--frontend tolerant`` exits 0/1 on
   messy codebases (input quarantines land in DEGRADED, not exit 2);
   strict keeps exit 2.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.checkers import get_checker
from repro.errors import ParseError, SourceError
from repro.lang import ast, clear_memo, parse, parse_annotated, set_default_mode
from repro.mc import check_files, run_to_json
from repro.mc.cache import work_item_key
from repro.obs.metrics import MetricsRegistry, activate_metrics
from repro.project import HandlerInfo, Program, ProtocolInfo

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
REALWORLD = REPO / "examples" / "realworld"


def run_cli(*argv, timeout=120, cache_dir=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    if cache_dir is not None:
        env["MC_CHECK_CACHE_DIR"] = str(cache_dir)
    else:
        env["MC_CHECK_NO_CACHE"] = "1"
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


# -- 1. tolerant never raises -------------------------------------------------

class TestTolerantNeverRaises:
    @given(st.text(max_size=400))
    @settings(max_examples=300, deadline=None)
    def test_any_text_yields_a_unit(self, text):
        unit = parse(text, "fuzz.c", mode="tolerant")
        assert isinstance(unit, ast.TranslationUnit)
        # The recovered AST is well-formed enough to walk.
        for func in unit.functions():
            assert func.name

    @given(st.text(
        alphabet="intvoidchar(){};=+-*/<>&|!@#$%^~?:.,0123456789 \n\t\"'\\",
        max_size=500,
    ))
    @settings(max_examples=300, deadline=None)
    def test_c_flavoured_soup_yields_a_unit(self, text):
        unit = parse(text, "fuzz.c", mode="tolerant")
        assert isinstance(unit, ast.TranslationUnit)
        stats = unit.frontend_stats
        assert stats["quarantined_functions"] == len(unit.quarantined)

    def test_garbage_corpus_parses_without_raising(self):
        # The real-world code must yield ASTs and the garbage must
        # exercise recovery, so a frontend that "never raises" by
        # parsing nothing cannot pass.
        parsed = quarantined = 0
        for path in (sorted(REALWORLD.glob("*.c"))
                     + sorted((REALWORLD / "garbage").glob("*.c"))):
            text = path.read_bytes().decode("utf-8", errors="replace")
            unit = parse(text, str(path), mode="tolerant")
            assert isinstance(unit, ast.TranslationUnit)
            parsed += len(unit.functions())
            quarantined += len(unit.quarantined)
        assert parsed > 0
        assert quarantined > 0

    def test_deep_nesting_recovers_instead_of_overflowing(self):
        text = "int f(void) { return " + "(" * 100000 + ";"
        unit = parse(text, "deep.c", mode="tolerant")
        assert isinstance(unit, ast.TranslationUnit)


# -- 2. strict fails cleanly (the non-ParseError crash audit) -----------------

class TestStrictFailsCleanly:
    @given(st.text(max_size=400))
    @settings(max_examples=300, deadline=None)
    def test_strict_raises_only_source_errors(self, text):
        try:
            parse(text, "fuzz.c", mode="strict")
        except SourceError as exc:
            # Every rejection carries a position for the operator.
            assert exc.location is not None or str(exc)

    def test_eof_mid_declaration_is_a_parse_error(self):
        for tail in ("int", "int f(", "int f(void) {", "int f(void) { if (",
                     "struct s {", "typedef", "int a = ", "int a[",
                     "int f(void) { x = y ->", "int f(void) { call("):
            with pytest.raises(SourceError):
                parse(tail, "eof.c", mode="strict")

    def test_deep_nesting_is_a_parse_error_not_a_recursion_error(self):
        text = "int f(void) { return " + "(" * 100000 + "0" + ")" * 100000 + "; }"
        with pytest.raises(ParseError) as excinfo:
            parse(text, "deep.c", mode="strict")
        assert "nesting" in str(excinfo.value)


# -- 3. byte identity on clean input ------------------------------------------

class TestByteIdentityOnPaperCorpus:
    @pytest.mark.parametrize("protocol", ["bitvector", "dyn_ptr", "common"])
    def test_paper_protocol_reports_are_identical(self, tmp_path, protocol):
        from repro.flash.codegen import generate_protocol
        gp = generate_protocol(protocol)
        paths = []
        for filename, text in gp.files.items():
            p = tmp_path / filename
            p.write_text(text)
            paths.append(str(p))
        docs = {}
        for mode in ("strict", "tolerant"):
            clear_memo()
            run = check_files(sorted(paths), keep_going=True, cache=None,
                              frontend=mode)
            doc = run_to_json(run)
            for result in run.results.values():
                assert not result.quarantines, (
                    f"{mode}: paper corpus quarantined "
                    f"{result.quarantines}")
                assert not result.suppressed
            docs[mode] = json.dumps(doc, indent=2, sort_keys=True)
        assert docs["strict"] == docs["tolerant"]

    def test_clean_source_asts_unparse_identically(self):
        from repro.lang import unparse_unit
        source = (REALWORLD / "ringbuf.c").read_text()
        strict = parse(source, "ringbuf.c", mode="strict")
        tolerant = parse(source, "ringbuf.c", mode="tolerant")
        assert unparse_unit(strict) == unparse_unit(tolerant)
        assert tolerant.frontend_stats == {
            "recovered_statements": 0, "opaque_expressions": 0,
            "quarantined_functions": 0}


# -- 4. opaque nodes: havoc, suppression, quarantines -------------------------

_DOUBLE_FREE_TEMPLATE = """
void HandlerA(void) {{
    SUBROUTINE_PROLOGUE();
    FreeBuf();
    {between}
    FreeBuf();
    return;
}}
"""

_INFO = ProtocolInfo(
    handlers={"HandlerA": HandlerInfo("HandlerA", "hw")},
    free_routines={"FreeBuf"},
)


def _buffer_mgmt_reports(source):
    set_default_mode("tolerant")
    try:
        clear_memo()
        program = Program({"a.c": source}, info=_INFO)
        result = get_checker("buffer-mgmt").check(program)
    finally:
        set_default_mode("strict")
    return result


class TestOpaqueSemantics:
    def test_double_free_reported_on_clean_path(self):
        result = _buffer_mgmt_reports(
            _DOUBLE_FREE_TEMPLATE.format(between="x = 1;"))
        assert any("freed" in r.message for r in result.reports)
        assert not result.suppressed

    def test_report_suppressed_when_path_crosses_opaque(self):
        result = _buffer_mgmt_reports(
            _DOUBLE_FREE_TEMPLATE.format(between="@@@ junk @@@;"))
        assert not result.reports
        assert result.suppressed
        report, why = result.suppressed[0]
        assert why == "opaque"
        assert "freed" in report.message

    def test_clean_path_wins_over_suppressed_path(self):
        # Branch: one arm opaque, one clean — both reach the second
        # free.  The clean arm's report must surface.
        source = _DOUBLE_FREE_TEMPLATE.format(
            between="if (x) { @@@ junk @@@; } else { x = 1; }")
        result = _buffer_mgmt_reports(source)
        assert any("freed" in r.message for r in result.reports)
        assert not result.suppressed

    def test_opaque_statement_havocs_feasibility_facts(self):
        # fact 'x == 0' established, then an opaque statement: the
        # engine must drop the fact (the unparsed code may write x),
        # so the x != 0 arm stays feasible and its free reports.
        source = """
void HandlerA(void) {
    SUBROUTINE_PROLOGUE();
    x = 0;
    @@@ junk @@@;
    if (x != 0) { FreeBuf(); FreeBuf(); }
    return;
}
"""
        result = _buffer_mgmt_reports(source)
        # The double free is inside the arm guarded by havoc'd state:
        # it must be *seen* (reported or suppressed), not pruned away.
        assert result.reports or result.suppressed

    def test_unrecoverable_region_becomes_input_quarantine(self):
        set_default_mode("tolerant")
        try:
            clear_memo()
            unit = parse("template <class T> T id(T t) { return t; }\n"
                         "int ok(void) { return 1; }\n", "t.cc")
        finally:
            set_default_mode("strict")
        assert [f.name for f in unit.functions()] == ["ok"]
        assert unit.quarantined
        name, message = unit.quarantined[0]
        assert "t.cc:1" in message


# -- metrics ------------------------------------------------------------------

class TestFrontendMetrics:
    def test_recovery_counters_increment(self):
        registry = MetricsRegistry()
        previous = activate_metrics(registry)
        set_default_mode("tolerant")
        try:
            clear_memo()
            parse_annotated("m.c", """
int ok(void) { int z = @@@; @@@ junk @@@; return z; }
template <class T> struct W { T t; };
""")
        finally:
            set_default_mode("strict")
            activate_metrics(previous)
        snapshot = registry.snapshot()
        counters = snapshot.get("counters", snapshot)
        assert counters.get("frontend.recovered_statements", 0) >= 1
        assert counters.get("frontend.opaque_expressions", 0) >= 1
        assert counters.get("frontend.quarantined_functions", 0) >= 1

    def test_strict_parse_counts_nothing(self):
        registry = MetricsRegistry()
        previous = activate_metrics(registry)
        try:
            clear_memo()
            parse_annotated("m.c", "int ok(void) { return 1; }\n")
        finally:
            activate_metrics(previous)
        snapshot = registry.snapshot()
        counters = snapshot.get("counters", snapshot)
        assert not any(k.startswith("frontend.") for k in counters)


# -- cache keys ---------------------------------------------------------------

class TestCacheKeying:
    def test_frontend_mode_changes_the_work_item_key(self):
        units = [("a.c", "deadbeef")]
        strict = work_item_key(checker_fp="c", units=units, engine_fp="e",
                               config_fp="feasibility=on,frontend=strict,schema=4")
        tolerant = work_item_key(checker_fp="c", units=units, engine_fp="e",
                                 config_fp="feasibility=on,frontend=tolerant,schema=4")
        assert strict != tolerant

    def test_mode_switch_never_serves_stale_results(self, tmp_path):
        # Same file, same cache dir: tolerant run (exit 1, degraded),
        # then strict run (exit 2).  A stale tolerant payload served to
        # the strict run would change its exit code.
        target = str(REALWORLD / "mixed_cpp.c")
        cache = tmp_path / "cache"
        first = run_cli("check", target, "--frontend", "tolerant",
                        cache_dir=cache)
        assert first.returncode in (0, 1), first.stderr
        second = run_cli("check", target, cache_dir=cache)
        assert second.returncode == 2, second.stdout + second.stderr


# -- 5. CLI exit-code discipline ----------------------------------------------

class TestCliTolerantExitCodes:
    def test_tolerant_corpus_exits_zero_or_one_without_tracebacks(self):
        files = sorted(str(p) for p in REALWORLD.glob("*.c"))
        files += sorted(str(p) for p in (REALWORLD / "garbage").glob("*.c"))
        proc = run_cli("check", *files, "--frontend", "tolerant",
                       "--keep-going")
        assert proc.returncode in (0, 1), proc.stdout + proc.stderr
        assert "Traceback" not in proc.stderr
        assert "DEGRADED" in proc.stdout
        assert "during input" in proc.stdout
        # The parsed part of the corpus is still analysed.
        assert re.search(r"^\S+\.c:\d+:\d+: \[", proc.stdout, re.M), (
            proc.stdout)

    def test_strict_corpus_exits_two(self):
        proc = run_cli("check", str(REALWORLD / "mixed_cpp.c"))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr

    def test_tolerant_metal_exits_zero_or_one(self):
        from repro.checkers.metal_sources import FIGURE_2
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            metal = Path(tmp) / "fig2.metal"
            metal.write_text(FIGURE_2)
            proc = run_cli("metal", str(metal),
                           str(REALWORLD / "garbage" / "soup.c"),
                           str(REALWORLD / "netdrv.c"),
                           "--frontend", "tolerant")
        assert proc.returncode in (0, 1), proc.stdout + proc.stderr
        assert "Traceback" not in proc.stderr

    def test_worker_quarantines_still_exit_two_in_tolerant_mode(self,
                                                                tmp_path):
        # Only *input* quarantines are exempt: a crashing checker is
        # still a tool failure under --frontend tolerant.
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "seed": 7,
            "rules": [{"site": "worker_crash", "count": 1,
                       "attempts": 10}]}))
        target = str(REALWORLD / "ringbuf.c")
        proc = run_cli("check", target, "--frontend", "tolerant",
                       "--jobs", "2", "--max-retries", "0",
                       "--fault-plan", str(plan))
        assert proc.returncode == 2, proc.stdout + proc.stderr
