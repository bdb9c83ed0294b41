"""One payload store: the result cache holds every finished item's
payload, and the run journal is a manifest of keys over it.

The contract under test:

- one key function (:func:`repro.mc.cache.work_item_key`) derives the
  key of every work item kind — check, metal and campaign shard — and
  its value on fixed inputs is pinned, so a key-schema change is one
  edit plus one golden diff;
- a journal holds only its header and ``{"key"}`` lines; the payloads
  are in the store, and a resumed run recomputes a listed item whose
  store entry has gone missing while the rest replay;
- budget flags turn cache lookups off, but the complete items a
  budgeted run journals land in the store and serve later unbudgeted
  runs; its degraded items never do.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import cli
from repro.campaign import CampaignSpec
from repro.campaign.fleet import campaign_fingerprint, shard_keys
from repro.checkers.metal_sources import FIGURE_2
from repro.lang.memo import source_fingerprint
from repro.mc import (
    ResultCache,
    RunJournal,
    SupervisorPolicy,
    check_files,
    metal_files,
    run_to_json,
)
from repro.mc.cache import (
    _config_fp,
    checker_fingerprint,
    engine_fingerprint,
    metal_fingerprint,
    work_item_key,
)

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

#: Finishes within a 20-step budget under FIGURE_2 ...
SMALL = """
void Small(void) {
    unsigned v;
    WAIT_FOR_DB_FULL(0);
    v = MISCBUS_READ_DB(0, 0);
    return;
}
"""

#: ... while this one exhausts it.
BIG = """
void Big(int x) {
    unsigned v;
    if (x) { v = 1; } else { v = 2; }
    if (x > 1) { v = 3; } else { v = 4; }
    if (x > 2) { v = 5; } else { v = 6; }
    if (x > 3) { v = 7; } else { v = 8; }
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


def _entry(root: Path, key: str) -> Path:
    return root / key[:2] / f"{key}.json"


def _journal_lines(journal: RunJournal) -> list[dict]:
    return [json.loads(line)
            for line in journal.path.read_text().splitlines()]


def _doc(run) -> str:
    doc = run_to_json(run)
    doc.pop("run_id")
    return json.dumps(doc, sort_keys=True)


def _body(out: str) -> list[str]:
    return [line for line in out.splitlines() if not line.startswith("run:")]


def _cli(capsys, *argv) -> tuple[int, str]:
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


class TestOneKeyFunction:
    def test_work_item_key_is_pinned(self):
        # Folds the payload schema, the engine, the checker, the spec,
        # the settings and every (file, digest) pair.  If this changes,
        # every store entry in the world goes stale: that must be a
        # deliberate SCHEMA_VERSION bump, never an accident.
        key = work_item_key(checker_fp="checker", units=[("a.c", "d1"),
                                                        ("b.c", "d2")],
                            spec_fp="spec", engine_fp="engine",
                            config_fp="feasibility=on,frontend=strict")
        assert key == ("e167043cef90a8efb1c016dea373c195"
                       "9bb1123d0e532ab1498966245f33db38")
        assert _config_fp(False, "tolerant") == (
            "feasibility=off,frontend=tolerant")

    def test_every_item_kind_is_keyed_by_it(self, two_files, tmp_path):
        engine_fp = engine_fingerprint()
        a = two_files[0]
        units = [(a, source_fingerprint(FILE_A))]
        settings = _config_fp(True, "strict")

        cache = ResultCache(tmp_path / "cache")
        check_files([a], names=["buffer-race"], cache=cache)
        check_key = work_item_key(
            checker_fp=checker_fingerprint("buffer-race"), units=units,
            engine_fp=engine_fp, config_fp=settings)
        assert _entry(cache.root, check_key).exists()

        metal = tmp_path / "wait.metal"
        metal.write_text(FIGURE_2)
        metal_files(str(metal), [a], cache=cache)
        metal_key = work_item_key(
            checker_fp=metal_fingerprint(FIGURE_2), units=units,
            engine_fp=engine_fp, config_fp=settings)
        assert _entry(cache.root, metal_key).exists()

        spec = CampaignSpec(files=(a,), dispatch=((1, "HandlerA"),),
                            runs=4, shard_size=2, seed=3)
        assert shard_keys(spec, {a: FILE_A}) == {
            shard: work_item_key(
                checker_fp=campaign_fingerprint(), units=units,
                spec_fp=source_fingerprint(spec.to_json()),
                engine_fp=engine_fp, config_fp=f"shard={shard}")
            for shard in range(2)}


class TestJournalOverStore:
    def test_journal_lists_keys_and_the_store_holds_payloads(
            self, two_files, tmp_path):
        journal = RunJournal.create(tmp_path / "cache" / "runs")
        store = journal.store
        run = check_files(two_files, jobs=1, journal=journal)
        journal.close()
        assert store.root == tmp_path / "cache"
        header, *records = _journal_lines(journal)
        assert header["run"] == journal.run_id
        assert records and all(set(r) == {"key"} for r in records)
        assert len(records) == run.supervision.completed
        for record in records:
            assert _entry(store.root, record["key"]).exists()
        assert store.stats.stores == len(records)

    def test_resume_recomputes_an_entry_missing_from_the_store(
            self, two_files, tmp_path):
        baseline = check_files(two_files, jobs=1)
        runs = tmp_path / "cache" / "runs"
        journal = RunJournal.create(runs)
        first = check_files(two_files, jobs=1, journal=journal,
                            policy=SupervisorPolicy(stop_after_items=4))
        journal.close()
        assert first.interrupted
        keys = [r["key"] for r in _journal_lines(journal)[1:]]
        assert len(keys) == 4
        _entry(journal.store.root, keys[0]).unlink()

        resumed = RunJournal.resume(runs, journal.run_id)
        second = check_files(two_files, jobs=1, journal=resumed)
        resumed.close()
        total = second.supervision.replayed + second.supervision.completed
        assert second.supervision.replayed == 3
        assert second.supervision.completed == total - 3
        assert _doc(second) == _doc(baseline)
        # the recomputed item is stored again, and its key not relisted
        assert _entry(journal.store.root, keys[0]).exists()
        listed = [r["key"] for r in _journal_lines(resumed)[1:]]
        assert len(listed) == len(set(listed)) == total


class TestBudgetsAndTheStore:
    def test_budgeted_complete_items_serve_later_runs(self, tmp_path,
                                                      capsys):
        small = tmp_path / "small.c"
        big = tmp_path / "big.c"
        metal = tmp_path / "wait.metal"
        small.write_text(SMALL)
        big.write_text(BIG)
        metal.write_text(FIGURE_2)
        cache_dir = str(tmp_path / "cache")
        argv = ["metal", str(metal), str(small), str(big),
                "--cache-dir", cache_dir]
        _code, out = _cli(capsys, *argv, "--jobs", "2",
                          "--budget-steps", "20")
        assert "DEGRADED" in out and "cache:" not in out
        # small.c completed within the budget and was stored through
        # the journal; big.c ran out of steps and was not
        code, out = _cli(capsys, *argv, "--jobs", "1")
        assert code == 1  # big.c's unchecked read, found unbudgeted
        assert "cache: 1 hit(s), 1 miss(es)" in out
        assert "DEGRADED" not in out

    def test_budgeted_run_makes_no_cache_lookups(self, two_files, tmp_path,
                                                 capsys, monkeypatch):
        cache_dir = str(tmp_path / "cache")
        argv = ["check", *two_files, "--jobs", "1", "--cache-dir", cache_dir]
        first_code, first = _cli(capsys, *argv)
        assert "0 hit(s)" in first  # this run warms the cache
        lookups = []
        real_get = ResultCache.get

        def counting_get(self, key, decode):
            lookups.append(key)
            return real_get(self, key, decode)

        monkeypatch.setattr(ResultCache, "get", counting_get)
        code, out = _cli(capsys, *argv, "--budget-seconds", "600")
        assert lookups == []
        assert code == first_code and "cache:" not in out
        assert _body(out) == _body(first)
