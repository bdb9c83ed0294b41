"""Program/ProtocolInfo model and CLI tests."""

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
        # networkx is imported where a call graph is built; a check whose
        # every item is a cache hit builds none, so start-up skips it.
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
        probe = ("import sys\n"
                 "from repro.cli import main\n"
                 f"code = main({argv!r})\n"
                 "print(code, 'networkx' in sys.modules)\n")
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=120)
        assert " 0 miss" in proc.stdout, proc.stdout + proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 False", proc.stdout
