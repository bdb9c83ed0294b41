"""Program/ProtocolInfo model and CLI tests."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.project import (
    HandlerInfo,
    Program,
    ProtocolInfo,
    program_from_source,
)


#: Modules a warm no-op ``check`` and ``--version`` must not import.
_ANALYSIS_MODULES = {
    *(f"repro.lang.{m}" for m in ("lexer", "parser", "sema", "ast",
                                   "ctypes", "symtab", "unparse")),
    *(f"repro.mc.{m}" for m in ("engine", "summary", "feasibility",
                                 "interproc", "flowcheck", "transform")),
    *(f"repro.metal.{m}" for m in ("parser", "patterns", "sm", "lint")),
}
#: Packages none of whose modules they may import.
_ANALYSIS_PACKAGES = ("repro.cfg", "repro.checkers", "repro.flash.sim",
                      "repro.campaign", "networkx")


def _is_analysis(module: str) -> bool:
    return module in _ANALYSIS_MODULES or any(
        module == p or module.startswith(p + ".") for p in _ANALYSIS_PACKAGES)


def _run_probe(probe: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)


def _run_and_list_modules(argv) -> tuple:
    """``mc-check argv`` in a fresh interpreter: its exit code, every
    module it imported, and its stdout."""
    probe = ("import json, sys\n"
             "from repro.cli import main\n"
             "try:\n"
             f"    code = main({argv!r})\n"
             "except SystemExit as exc:\n"
             "    code = exc.code\n"
             "print(json.dumps([code, sorted(sys.modules)]))\n")
    proc = _run_probe(probe)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    *out, last = proc.stdout.splitlines()
    code, modules = json.loads(last)
    return code, modules, "\n".join(out)


class TestHandlerInfo:
    def test_valid_kinds(self):
        for kind in ("hw", "sw", "proc"):
            HandlerInfo("x", kind)

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            HandlerInfo("x", "hardware")

    def test_allowance_must_cover_lanes(self):
        with pytest.raises(ValueError):
            HandlerInfo("x", "hw", lane_allowance=(1, 2))


class TestProtocolInfo:
    def test_kind_of_unknown_is_proc(self):
        info = ProtocolInfo()
        assert info.kind_of("anything") == "proc"
        assert not info.is_handler("anything")

    def test_handler_queries(self):
        info = ProtocolInfo(handlers={
            "A": HandlerInfo("A", "hw"),
            "B": HandlerInfo("B", "sw"),
        })
        assert info.is_handler("A") and info.is_handler("B")
        assert info.hardware_handlers() == ["A"]
        assert info.software_handlers() == ["B"]


class TestProgram:
    def test_functions_across_files(self):
        program = Program({
            "a.c": "void f(void) { }",
            "b.c": "void g(void) { }",
        })
        assert sorted(fn.name for fn in program.functions()) == ["f", "g"]

    def test_function_lookup(self):
        program = program_from_source("void f(void) { }")
        assert program.function("f").name == "f"
        with pytest.raises(KeyError):
            program.function("g")

    def test_cfg_cached(self):
        program = program_from_source("void f(void) { a(); }")
        func = program.function("f")
        assert program.cfg(func) is program.cfg(func)

    def test_flash_header_types_available(self):
        # DB_ALLOC comes from the implicit flash-includes.h prelude.
        program = program_from_source(
            "void f(void) { unsigned b; b = DB_ALLOC(); }"
        )
        func = program.function("f")
        call = func.body.stmts[1].expr.value
        assert call.ctype.is_integer

    def test_header_does_not_shift_lines(self):
        program = program_from_source("void f(void) { }")
        assert program.function("f").location.line == 1

    def test_header_can_be_disabled(self):
        program = Program({"a.c": "void f(void) { }"},
                          include_flash_header=False)
        assert program.function("f").name == "f"

    def test_loc_counts_nonblank(self):
        program = Program({"a.c": "void f(void)\n{\n\n}\n"})
        assert program.loc() == 3

    def test_callgraph(self):
        program = Program({
            "a.c": "void f(void) { g(); }\nvoid g(void) { }",
        })
        assert program.callgraph.callees("f") == {"g"}


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "buffer-race" in out and "220" in out

    def test_check_clean_file(self, tmp_path, capsys):
        f = tmp_path / "clean.c"
        f.write_text("""
void util(void) {
    SUBROUTINE_PROLOGUE();
    unsigned a;
    a = 1 + 2;
    return;
}
""")
        assert main(["check", str(f)]) == 0
        assert "no errors" in capsys.readouterr().out

    def test_check_buggy_file(self, tmp_path, capsys):
        f = tmp_path / "buggy.c"
        f.write_text("""
void util(void) {
    SUBROUTINE_PROLOGUE();
    unsigned v;
    v = MISCBUS_READ_DB(addr, 0);
    return;
}
""")
        assert main(["check", str(f), "--checker", "buffer-race"]) == 1
        assert "Buffer not synchronized" in capsys.readouterr().out

    def test_metal_subcommand(self, tmp_path, capsys):
        checker = tmp_path / "race.metal"
        checker.write_text("""
sm my_race {
    decl { scalar } a, b;
    start:
      { WAIT_FOR_DB_FULL(a); } ==> stop
    | { MISCBUS_READ_DB(a, b); } ==> { err("race"); }
    ;
}
""")
        source = tmp_path / "x.c"
        source.write_text(
            "void h(void) { unsigned v; v = MISCBUS_READ_DB(a, 0); }"
        )
        assert main(["metal", str(checker), str(source)]) == 1
        out = capsys.readouterr().out
        assert "race" in out and "my_race" in out

    def test_generate_subcommand(self, tmp_path, capsys):
        assert main(["generate", "common", "-o", str(tmp_path)]) == 0
        files = {p.name for p in tmp_path.iterdir()}
        assert "common_util.c" in files
        assert "common.manifest.tsv" in files
        manifest = (tmp_path / "common.manifest.tsv").read_text()
        assert "buffer-race" in manifest

    def test_transform_subcommand(self, tmp_path, capsys):
        f = tmp_path / "legacy.c"
        f.write_text("""
void h(void) {
    unsigned v;
    WAIT_FOR_DB_FULL(0);
    WAIT_FOR_DB_FULL(0);
    v = MISCBUS_READ_DB(0, 0);
}
""")
        assert main(["transform", "--write", str(f)]) == 0
        out = capsys.readouterr().out
        assert "1 redundant" in out
        assert f.read_text().count("WAIT_FOR_DB_FULL") == 1

    def test_paths_subcommand(self, tmp_path, capsys):
        f = tmp_path / "p.c"
        f.write_text("""
void a(void) { if (x) { f(); } g(); }
void b(void) { h(); }
""")
        assert main(["paths", str(f)]) == 0
        out = capsys.readouterr().out
        assert "TOTAL" in out
        assert "a" in out and "b" in out

    def test_generated_protocol_checks_from_disk(self, tmp_path, capsys):
        # generate + check round trip through real files
        main(["generate", "common", "-o", str(tmp_path)])
        files = sorted(str(p) for p in tmp_path.glob("*.c"))
        code = main(["check", "--checker", "buffer-race", *files])
        out = capsys.readouterr().out
        # common carries one seeded (false positive) race report
        assert "Buffer not synchronized" in out
        assert code == 1

    def test_warm_noop_check_does_not_import_networkx(self, tmp_path, capsys):
        # A check whose every item is a cache hit reads and hashes the
        # sources, looks up the keys, ranks, renders and records the
        # run: it imports no frontend, CFG, engine, metal compiler,
        # checker, simulator or networkx, and neither does --version.
        f = tmp_path / "clean.c"
        f.write_text("""
void util(void) {
    SUBROUTINE_PROLOGUE();
    return;
}
""")
        argv = ["check", str(f), "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0  # cold: fills the cache
        capsys.readouterr()
        for args in (["--version"], [*argv, "--jobs", "1"],
                     [*argv, "--jobs", "2"]):
            code, modules, out = _run_and_list_modules(args)
            if args != ["--version"]:
                assert code == 0 and " 0 miss" in out, out
            assert [m for m in modules if _is_analysis(m)] == [], args

    def test_cold_parallel_check_imports_the_analysis_before_forking(
            self, tmp_path):
        # On a miss the parent imports the checkers, engine and frontend
        # before the supervised pool forks, so the workers inherit them
        # instead of each importing them.
        from repro.mc.cache import BUILTIN_CHECKERS
        files = []
        for name in ("a.c", "b.c"):
            path = tmp_path / name
            path.write_text("void util(void) { SUBROUTINE_PROLOGUE(); }\n")
            files.append(str(path))
        argv = ["check", *files, "--no-cache", "--jobs", "2"]
        probe = ("import json, sys\n"
                 "from repro.mc import supervisor\n"
                 "from repro.cli import main\n"
                 "seen = []\n"
                 "original = supervisor.supervise_items\n"
                 "def entered(*args, **kwargs):\n"
                 "    seen.append(sorted(sys.modules))\n"
                 "    return original(*args, **kwargs)\n"
                 "supervisor.supervise_items = entered\n"
                 f"code = main({argv!r})\n"
                 "print(json.dumps([code, seen]))\n")
        proc = _run_probe(probe)
        code, seen = json.loads(proc.stdout.splitlines()[-1])
        assert code == 0 and len(seen) == 1, proc.stdout + proc.stderr
        expected = {"repro.mc.engine", "repro.lang.parser", "repro.lang.sema"}
        expected |= {f"repro.checkers.{row.module[:-3]}"
                     for row in BUILTIN_CHECKERS}
        assert expected <= set(seen[0])
