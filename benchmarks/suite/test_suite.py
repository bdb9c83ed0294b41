"""Harness test for the benchmark itself, on bitvector alone (< 60 s).

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q benchmarks/suite/test_suite.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import compare
import corpus
import run as suite
from oracle import Oracle

sys.path.insert(0, str(suite.ROOT / "src"))
BENCH = json.loads((suite.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def traced_cold_j1():
    return suite.run_workload("cold_j1", 7, 0, True, BENCH)


def test_every_benchmark_metric_is_emitted_with_its_unit(traced_cold_j1):
    record = traced_cold_j1
    assert record["correct"], record["wrong"] + record["failures"]
    for section, key in (("end_to_end", "metrics"), ("per_layer", "layers")):
        emitted = {name: v["unit"] for name, v in record[key].items()}
        assert emitted == {m["name"]: m["unit"] for m in BENCH[section]}
    line = suite.summary_line([record], True)
    assert line["metrics"] == record["layers"]


def test_layer_self_times_cover_the_traced_pass(traced_cold_j1):
    wall = traced_cold_j1["details"]["traced_wall_s"]
    unaccounted = traced_cold_j1["layers"]["trace.unaccounted_s"]["value"]
    assert 1 - unaccounted / wall >= 0.85


def test_cold_j1_parses_each_unit_once(traced_cold_j1):
    assert traced_cold_j1["layers"]["lang.memo.parses_per_unit"]["value"] \
        == 1.0


def test_dropping_one_report_is_one_wrong_verdict(tmp_path):
    protocols = corpus.materialise(7, ("bitvector",), tmp_path / "in",
                                   tmp_path)
    bitvector = protocols["bitvector"]
    env = {k: v for k, v in os.environ.items() if k not in suite.SCRUBBED}
    env["PYTHONPATH"] = str(suite.ROOT / "src")
    out = subprocess.run(
        [sys.executable, "-m", "repro.cli", "check", "--no-cache",
         "--format", "json", "--spec", bitvector.spec, *bitvector.units],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    doc = json.loads(out.stdout)
    oracle = Oracle(protocols)
    assert oracle.wrong_verdicts("bitvector", doc, doc) == []

    errors = {(s.file, s.line, s.checker) for s in bitvector.sites
              if s.label == "error"}
    dropped = next(r for r in doc["reports"] if oracle.site(r) in errors)
    doc["reports"].remove(dropped)
    reference = json.loads(out.stdout)
    assert oracle.wrong_verdicts("bitvector", doc, reference) == \
        [oracle.site(dropped)]


def _runs(values, seeds=range(10)):
    return [{"seed": s, "metrics": {"pass_s": {"value": v}}}
            for s, v in zip(seeds, values)]


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.05]
    same = compare.verdict(_runs(base), _runs(base), "pass_s", "lower", 0.1)
    assert same[0] == "unchanged"
    slower = compare.verdict(_runs(base), _runs([v * 1.2 for v in base]),
                             "pass_s", "lower", 0.1)
    assert slower[0] == "worse"
    faster = compare.verdict(_runs(base), _runs([v * 0.9 for v in base]),
                             "pass_s", "lower", 0.15)
    assert faster[0] == "better"
    noisy = compare.verdict(_runs(base), _runs([5, 15] * 5), "pass_s",
                            "lower", 0.1)
    assert noisy[0] == "unresolved"
