"""Checker-pack lifecycle: discovery, manifest hardening, sandboxing,
cache keying, and the flagship *consistency* pack end to end.

The pack layer's contracts under test:

* a malformed pack is a structured ``pack error`` + exit 2, never a
  traceback and never a half-loaded registry;
* a loaded pack whose checkers find nothing changes **zero bytes** of
  the run's output (purity);
* a pack checker that raises is quarantined (``phase="pack"``), never
  a fleet crash, and a ``--resume`` of that run reproduces the same
  quarantine;
* pack identity (name@version + source bytes) is folded into cache
  keys, so a version bump invalidates exactly that pack's entries and
  builtin keys never move.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

import repro.checkers  # noqa: F401  - registers the builtin checkers
from repro import cli
from repro.checkers.base import checker_names, checker_origin
from repro.flash.spec import SpecError, dump_spec, parse_spec
from repro.mc.cache import _CHECKER_FP, checker_fingerprint
from repro.packs import (
    PackError,
    clear_packs,
    discover_pack_dirs,
    load_manifest,
    load_pack,
    load_packs,
    loaded_packs,
)
from repro.packs.manifest import _parse_toml_subset, check_engine_constraint

REPO = Path(__file__).resolve().parent.parent
FLAGSHIP = REPO / "src" / "repro" / "packs" / "consistency"
DRIFT_C = REPO / "examples" / "consistency" / "drift_protocol.c"
DRIFT_SPEC = REPO / "examples" / "consistency" / "drift.spec"

CLEAN_C = """
void util(void) {
    SUBROUTINE_PROLOGUE();
    unsigned a;
    a = 1 + 2;
    return;
}
"""

QUIET_CHECKER = '''
from repro.checkers.base import Checker

class QuietChecker(Checker):
    name = "{name}"
    metal_loc = 0
    unit_parallel = False

    def check(self, program):
        result, sink = self._new_result()
        return self._finish(result, sink)
'''

BOOM_CHECKER = '''
from repro.checkers.base import Checker

class BoomChecker(Checker):
    name = "boom"
    metal_loc = 0
    unit_parallel = False

    def check(self, program):
        raise RuntimeError("kaboom")
'''


@pytest.fixture(autouse=True)
def _isolated(monkeypatch, tmp_path):
    """Every test gets its own cache dir and a clean pack registry."""
    monkeypatch.setenv("MC_CHECK_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("MC_CHECK_PACK_PATH", raising=False)
    clear_packs()
    yield
    clear_packs()


def write_pack(root: Path, name="demo", version="1.0.0",
               checker_src=None, metal_src=None, engine="") -> Path:
    """A minimal on-disk pack; returns its directory."""
    root.mkdir(parents=True, exist_ok=True)
    python_line = 'python = ["checker.py"]\n' if checker_src else ""
    metal_line = 'metal = ["machine.metal"]\n' if metal_src else ""
    engine_line = f'engine = "{engine}"\n' if engine else ""
    (root / "pack.toml").write_text(
        f'[pack]\nname = "{name}"\nversion = "{version}"\n{engine_line}'
        f'\n[pack.checkers]\n{python_line}{metal_line}')
    if checker_src:
        (root / "checker.py").write_text(checker_src)
    if metal_src:
        (root / "machine.metal").write_text(metal_src)
    return root


def clean_file(tmp_path: Path) -> Path:
    path = tmp_path / "clean.c"
    path.write_text(CLEAN_C)
    return path


def check_json(*argv) -> tuple[int, dict]:
    """Run ``mc-check check ... --format json`` in-process and parse."""
    import io
    from contextlib import redirect_stdout
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["check", *argv, "--format", "json"])
    return code, json.loads(out.getvalue())


# -- manifest hardening (satellite: never a traceback) -----------------------

class TestManifestHardening:

    def test_missing_manifest(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = cli.main(["check", str(clean_file(tmp_path)),
                         "--pack-dir", str(empty),
                         "--no-cache", "--jobs", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "pack error" in err
        assert "Traceback" not in err

    def test_corrupt_toml(self, tmp_path, capsys):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "pack.toml").write_text("name = [unclosed\n")
        code = cli.main(["check", str(clean_file(tmp_path)),
                         "--pack-dir", str(bad),
                         "--no-cache", "--jobs", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "pack error" in err
        assert "Traceback" not in err

    def test_bad_name_and_version(self, tmp_path):
        with pytest.raises(PackError, match="name"):
            load_manifest(write_pack(tmp_path / "a", name="Not Valid",
                                     checker_src=QUIET_CHECKER))
        with pytest.raises(PackError, match="version"):
            load_manifest(write_pack(tmp_path / "b", version="one",
                                     checker_src=QUIET_CHECKER))

    def test_engine_mismatch(self, tmp_path, capsys):
        pack = write_pack(tmp_path / "future", engine=">=99.0",
                          checker_src=QUIET_CHECKER.format(name="quiet"))
        code = cli.main(["check", str(clean_file(tmp_path)),
                         "--pack-dir", str(pack),
                         "--no-cache", "--jobs", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "requires engine" in err

    def test_engine_constraint_precision(self):
        # ">=1.0" accepts 1.0.3; "<2" rejects 2.0.0; lists are ANDed.
        check_engine_constraint(">=1.0", "1.0.3")
        check_engine_constraint(">=1.0, <2", "1.5.0")
        with pytest.raises(PackError):
            check_engine_constraint("<2", "2.0.0")
        with pytest.raises(PackError, match="bad engine constraint"):
            check_engine_constraint("~=1.0", "1.0.0")

    def test_listed_checker_missing(self, tmp_path):
        pack = write_pack(tmp_path / "p", checker_src=QUIET_CHECKER)
        (pack / "checker.py").unlink()
        with pytest.raises(PackError, match="does not exist"):
            load_manifest(pack)

    def test_no_checkers_at_all(self, tmp_path):
        root = tmp_path / "none"
        root.mkdir()
        (root / "pack.toml").write_text(
            '[pack]\nname = "none"\nversion = "1.0"\n')
        with pytest.raises(PackError, match="no checkers"):
            load_manifest(root)

    def test_toml_subset_parser_matches_flagship(self):
        # The 3.10 fallback must read the shipped manifest identically.
        text = (FLAGSHIP / "pack.toml").read_text()
        doc = _parse_toml_subset(text, "pack.toml")
        assert doc["pack"]["name"] == "consistency"
        assert doc["pack"]["checkers"]["python"] == ["consistency.py"]
        assert doc["pack"]["checkers"]["metal"] == ["len_reassign.metal"]
        try:
            import tomllib
        except ImportError:
            return
        assert doc == tomllib.loads(text)


# -- discovery ---------------------------------------------------------------

class TestDiscovery:

    def test_cli_env_project_precedence(self, tmp_path):
        a = write_pack(tmp_path / "a", name="aa",
                       checker_src=QUIET_CHECKER.format(name="q-a"))
        b = write_pack(tmp_path / "b", name="bb",
                       checker_src=QUIET_CHECKER.format(name="q-b"))
        project = tmp_path / "proj"
        c = write_pack(project / "packs" / "c", name="cc",
                       checker_src=QUIET_CHECKER.format(name="q-c"))
        (project / "mc-check.toml").write_text(
            '[packs]\ndirs = ["packs/c"]\n')
        dirs = discover_pack_dirs(
            [a], env={"MC_CHECK_PACK_PATH": str(b)}, project_root=project)
        assert [d.resolve() for d in dirs] == [
            a.resolve(), b.resolve(), c.resolve()]

    def test_container_dir_expands_sorted(self, tmp_path):
        write_pack(tmp_path / "zoo" / "z", name="zz",
                   checker_src=QUIET_CHECKER.format(name="q-z"))
        write_pack(tmp_path / "zoo" / "a", name="az",
                   checker_src=QUIET_CHECKER.format(name="q-az"))
        dirs = discover_pack_dirs([tmp_path / "zoo"], env={})
        assert [d.name for d in dirs] == ["a", "z"]

    def test_duplicate_dirs_deduped(self, tmp_path):
        a = write_pack(tmp_path / "a", name="aa",
                       checker_src=QUIET_CHECKER.format(name="q-a"))
        dirs = discover_pack_dirs(
            [a], env={"MC_CHECK_PACK_PATH": str(a)})
        assert len(dirs) == 1


# -- loading lifecycle -------------------------------------------------------

class TestLoading:

    def test_idempotent_reload(self, tmp_path):
        pack = write_pack(tmp_path / "p",
                          checker_src=QUIET_CHECKER.format(name="quiet"))
        first = load_pack(pack)
        assert load_pack(pack) is first
        assert [p.label for p in loaded_packs()] == ["demo@1.0.0"]

    def test_version_bump_is_an_upgrade(self, tmp_path):
        pack = write_pack(tmp_path / "p",
                          checker_src=QUIET_CHECKER.format(name="quiet"))
        load_pack(pack)
        write_pack(tmp_path / "p", version="2.0.0",
                   checker_src=QUIET_CHECKER.format(name="quiet"))
        load_pack(pack)
        assert [p.label for p in loaded_packs()] == ["demo@2.0.0"]
        assert checker_origin("quiet").version == "2.0.0"

    def test_duplicate_pack_name_different_root(self, tmp_path):
        load_pack(write_pack(tmp_path / "one",
                             checker_src=QUIET_CHECKER.format(name="q1")))
        other = write_pack(tmp_path / "two",
                           checker_src=QUIET_CHECKER.format(name="q2"))
        with pytest.raises(PackError, match="duplicate pack name"):
            load_pack(other)

    def test_collision_with_builtin_rolls_back(self, tmp_path):
        # Two classes: a fresh name then a collision with a builtin.
        # The load must fail AND unregister the fresh name (no residue).
        src = QUIET_CHECKER.format(name="fresh-name") + (
            "\n\nclass Impostor(QuietChecker):\n"
            '    name = "buffer-race"\n')
        pack = write_pack(tmp_path / "p", checker_src=src)
        before = set(checker_names())
        with pytest.raises(PackError, match="collides"):
            load_pack(pack)
        assert set(checker_names()) == before
        assert checker_origin("buffer-race").builtin
        assert loaded_packs() == []

    def test_module_without_checker_subclass(self, tmp_path):
        pack = write_pack(tmp_path / "p", checker_src="x = 1\n")
        with pytest.raises(PackError, match="no Checker subclass"):
            load_pack(pack)

    def test_two_pass_checker_without_local_is_refused(self, tmp_path):
        src = ("from repro.checkers.base import TwoPassChecker\n\n"
               "class HalfLinked(TwoPassChecker):\n"
               '    name = "half-linked"\n\n'
               "    def link(self, parts, info):\n"
               "        return parts[0]\n")
        pack = write_pack(tmp_path / "p", checker_src=src)
        with pytest.raises(PackError, match="does not implement local"):
            load_pack(pack)
        assert "half-linked" not in checker_names()

    def test_module_that_raises_on_import(self, tmp_path):
        pack = write_pack(tmp_path / "p",
                          checker_src='raise ValueError("nope")\n')
        with pytest.raises(PackError, match="import failed"):
            load_pack(pack)

    def test_lint_dirty_metal_is_refused(self, tmp_path):
        # "orphan" is unreachable from start: the checker-of-checkers
        # must refuse the machine at load time.
        dirty = (
            "sm dirty_machine {\n"
            "    pat p = { FOO() } ;\n"
            "    start: p ==> stop ;\n"
            "    orphan: p ==> stop ;\n"
            "}\n")
        pack = write_pack(tmp_path / "p", metal_src=dirty)
        with pytest.raises(PackError, match="lint"):
            load_pack(pack)
        assert loaded_packs() == []

    def test_flagship_pack_loads(self):
        pack = load_pack(FLAGSHIP)
        assert pack.label == "consistency@1.0.0"
        assert set(pack.checkers) == {"consistency", "len-reassign"}


# -- cache keying ------------------------------------------------------------

class TestCacheKeys:

    def test_builtin_fingerprints_unmoved_by_pack_load(self):
        baseline = {n: checker_fingerprint(n) for n in checker_names()}
        load_pack(FLAGSHIP)
        _CHECKER_FP.clear()
        assert all(checker_fingerprint(n) == fp
                   for n, fp in baseline.items())

    def test_version_bump_invalidates_exactly_that_pack(self, tmp_path):
        pack = write_pack(tmp_path / "p",
                          checker_src=QUIET_CHECKER.format(name="quiet"))
        load_pack(pack)
        pack_fp = checker_fingerprint("quiet")
        builtin_fp = checker_fingerprint("buffer-race")
        write_pack(tmp_path / "p", version="1.0.1",
                   checker_src=QUIET_CHECKER.format(name="quiet"))
        load_pack(pack)
        assert checker_fingerprint("quiet") != pack_fp
        assert checker_fingerprint("buffer-race") == builtin_fp

    def test_source_edit_invalidates_too(self, tmp_path):
        pack = write_pack(tmp_path / "p",
                          checker_src=QUIET_CHECKER.format(name="quiet"))
        load_pack(pack)
        fp = checker_fingerprint("quiet")
        (pack / "checker.py").write_text(
            QUIET_CHECKER.format(name="quiet") + "\n# edited\n")
        _CHECKER_FP.clear()
        assert checker_fingerprint("quiet") != fp


# -- CLI surfaces ------------------------------------------------------------

class TestCliSurfaces:

    def test_checkers_text_listing(self, capsys):
        code = cli.main(["checkers", "--pack-dir", str(FLAGSHIP)])
        out = capsys.readouterr().out
        assert code == 0
        assert "builtin@1.0.0" in out
        assert "consistency@1.0.0" in out
        assert "len-reassign" in out

    def test_checkers_json_listing(self, capsys):
        code = cli.main(["checkers", "--pack-dir", str(FLAGSHIP),
                         "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["schema"] == 1
        by_name = {c["name"]: c for c in doc["checkers"]}
        assert by_name["buffer-race"]["builtin"] is True
        assert by_name["consistency"] == {
            "name": "consistency", "pack": "consistency",
            "version": "1.0.0", "builtin": False, "metal_loc": 0,
            "unit_parallel": False,
            "source": by_name["consistency"]["source"]}
        assert by_name["consistency"]["source"].endswith("consistency.py")
        packs = {p["name"]: p for p in doc["packs"]}
        assert sorted(packs["consistency"]["checkers"]) == [
            "consistency", "len-reassign"]

    def test_checker_flag_selects_pack_checker(self, tmp_path):
        code, doc = check_json(
            str(DRIFT_C), "--spec", str(DRIFT_SPEC),
            "--pack-dir", str(FLAGSHIP), "--checker", "consistency",
            "--no-cache", "--jobs", "1")
        assert code == 1
        assert {r["checker"] for r in doc["reports"]} == {"consistency"}

    def test_unknown_checker_is_structured_error(self, tmp_path, capsys):
        code = cli.main(["check", str(clean_file(tmp_path)),
                         "--checker", "no-such-checker",
                         "--no-cache", "--jobs", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "no-such-checker" in err
        assert "Traceback" not in err

    def test_lint_covers_packs(self, tmp_path, capsys):
        assert cli.main(["lint", "--pack-dir", str(FLAGSHIP)]) == 0
        capsys.readouterr()
        dirty = (
            "sm dirty_machine {\n"
            "    pat p = { FOO() } ;\n"
            "    start: p ==> stop ;\n"
            "    orphan: p ==> stop ;\n"
            "}\n")
        pack = write_pack(tmp_path / "dirty", name="dirty",
                          metal_src=dirty)
        code = cli.main(["lint", "--pack-dir", str(pack)])
        out = capsys.readouterr().out
        assert code == 1
        assert "dirty@1.0.0:machine.metal" in out


# -- flagship pack end to end ------------------------------------------------

class TestFlagshipConsistency:

    def run_drift(self):
        return check_json(
            str(DRIFT_C), "--spec", str(DRIFT_SPEC),
            "--pack-dir", str(FLAGSHIP), "--no-cache", "--jobs", "1")

    def test_finds_every_seeded_drift_bug(self):
        code, doc = self.run_drift()
        assert code == 1
        messages = [r["message"] for r in doc["reports"]
                    if r["checker"] == "consistency"]
        assert any("PILocalGet sends LEN_NODATA" in m for m in messages)
        assert any("NIRemoteGet has a handler prologue" in m
                   for m in messages)
        assert any("handler table entry NILocalPut" in m for m in messages)
        assert any("dispatch config entry NILocalPut" in m
                   for m in messages)
        reassign = [r for r in doc["reports"]
                    if r["checker"] == "len_reassign"]
        assert len(reassign) == 1
        assert reassign[0]["function"] == "SWHandlerFlush"

    def test_pack_provenance_in_json(self):
        _code, doc = self.run_drift()
        pack_reports = [r for r in doc["reports"]
                        if r["checker"] in ("consistency", "len_reassign")]
        assert pack_reports
        assert all(r["pack"] == {"name": "consistency",
                                 "version": "1.0.0"}
                   for r in pack_reports)
        builtin_reports = [r for r in doc["reports"]
                           if r["checker"] not in ("consistency",
                                                   "len_reassign")]
        assert all(r.get("pack", {}).get("name") in (None, "builtin")
                   for r in builtin_reports)

    def test_explain_attributes_to_pack(self, tmp_path, capsys):
        _code, doc = self.run_drift()
        report = next(r for r in doc["reports"]
                      if r["checker"] == "consistency")
        path = tmp_path / "drift.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main(["explain", str(path), report["id"]]) == 0
        assert "from pack consistency@1.0.0" in capsys.readouterr().out

    def test_quiet_pack_is_byte_invisible(self, tmp_path):
        # The purity guarantee: a loaded pack that matches nothing
        # changes no byte of the run's JSON (modulo the random run id).
        target = clean_file(tmp_path)
        code_a, without = check_json(str(target), "--no-cache",
                                     "--jobs", "1")
        code_b, withpack = check_json(str(target), "--no-cache",
                                      "--jobs", "1",
                                      "--pack-dir", str(FLAGSHIP))
        assert code_a == code_b
        without.pop("run_id", None)
        withpack.pop("run_id", None)
        assert json.dumps(without, sort_keys=True) == \
            json.dumps(withpack, sort_keys=True)


# -- sandbox + resume --------------------------------------------------------

class TestSandbox:

    def test_raising_pack_checker_is_quarantined(self, tmp_path, capsys):
        pack = write_pack(tmp_path / "boom", name="boom",
                          checker_src=BOOM_CHECKER)
        code, doc = check_json(str(clean_file(tmp_path)),
                               "--pack-dir", str(pack),
                               "--no-cache", "--jobs", "1")
        assert code == 2
        quarantined = [q for q in doc["quarantines"]
                       if q["checker"] == "boom"]
        assert quarantined and quarantined[0]["phase"] == "pack"
        assert "kaboom" in quarantined[0]["message"]

    def test_quarantine_survives_resume(self, tmp_path):
        pack = write_pack(tmp_path / "boom", name="boom",
                          checker_src=BOOM_CHECKER)
        target = clean_file(tmp_path)
        code, doc = check_json(str(target), "--pack-dir", str(pack),
                               "--jobs", "1")
        assert code == 2
        run_id = doc["run_id"]
        code2, doc2 = check_json(str(target), "--pack-dir", str(pack),
                                 "--jobs", "1", "--resume", run_id)
        assert code2 == 2
        again = [q for q in doc2["quarantines"]
                 if q["checker"] == "boom"]
        assert again and again[0]["phase"] == "pack"

    def test_serial_run_all_sandboxes_packs_without_keep_going(self,
                                                               tmp_path):
        # Even `keep_going=False` (builtins crash the run) must not let
        # a pack checker escape its sandbox.
        from repro.checkers.base import run_all
        from repro.project import program_from_source
        pack = write_pack(tmp_path / "boom", name="boom",
                          checker_src=BOOM_CHECKER)
        load_pack(pack)
        program = program_from_source(CLEAN_C)
        results = run_all(program, names=["boom"], keep_going=False)
        result = results["boom"]
        assert result.quarantines
        assert result.quarantines[0].phase == "pack"
        assert result.degraded


# -- spec directives the flagship pack reads ---------------------------------

class TestSpecDirectives:

    def test_message_and_dispatch_roundtrip(self):
        info = parse_spec(DRIFT_SPEC.read_text())
        assert info.messages["PILocalGet"] == "LEN_NODATA"
        assert info.dispatch[3] == "NILocalPut"
        again = parse_spec(dump_spec(info))
        assert again.messages == info.messages
        assert again.dispatch == info.dispatch

    def test_duplicate_dispatch_opcode_rejected(self):
        text = ("protocol p\n"
                "dispatch 1 A\n"
                "dispatch 1 B\n")
        with pytest.raises(SpecError, match="dispatch"):
            parse_spec(text)
