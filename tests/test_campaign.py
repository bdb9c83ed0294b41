"""Simulation campaigns: determinism, shrinking, cross-validation.

Covers the campaign subsystem end to end: the sha256 seed-derivation
audit (exact pinned values — any platform or refactor that shifts one
bit fails here), re-shard invariance, the delta-debugging shrinker's
minimality guarantees, property extraction from simulator stats, the
three-way cross-tab verdicts, the dynamically-confirmed ranking
evidence source, and journal-backed resume byte-identity.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import (
    CampaignSpec,
    cross_tabulate,
    crosstab_to_json,
    derive_seed,
    plan_for_run,
    render_crosstab,
    run_campaign,
    runs_for_shard,
)
from repro.campaign.crosstab import StaticReport, reports_from_run
from repro.campaign.plans import RunPlan
from repro.campaign.properties import (
    PROPERTIES,
    Violation,
    canonical_checker,
    machine_invariants,
    property_by_name,
    violations_of,
)
from repro.campaign.shrink import shrink_run
from repro.errors import ReproError
from repro.faults.plan import FaultPlan, FaultRule
from repro.mc.parallel import check_files
from repro.mc.ranking import dynamic_boost, score_run
from repro.mc.supervisor import RunJournal

# A protocol with real, statically-findable bugs that also manifest
# dynamically: a double free, an unchecked DB_ALLOC, an unsynchronized
# read, and a handler that floods one lane.
BUGGY = """
void PILocalGet(void) {
    HANDLER_DEFS();
    long db = DB_ALLOC();
    MISCBUS_READ_DB(HANDLER_GLOBALS(header.nh.addr), 0);
    HANDLER_GLOBALS(header.nh.len) = LEN_NODATA;
    NI_SEND(NI_REPLY, F_NODATA, 1, 0, 0, 0);
    DB_FREE(db);
    DB_FREE(db);
}
void NILocalPut(void) {
    HANDLER_DEFS();
    long db = DB_ALLOC();
    WAIT_FOR_DB_FULL(HANDLER_GLOBALS(header.nh.addr));
    HANDLER_GLOBALS(header.nh.len) = LEN_CACHELINE;
    NI_SEND(NI_REPLY, F_DATA, 1, 0, 0, 0);
    NI_SEND(NI_REQUEST, F_DATA, 1, 0, 0, 0);
    NI_SEND(NI_REQUEST, F_DATA, 1, 0, 0, 0);
    DB_FREE(db);
}
"""

DISPATCH = ((1, "PILocalGet"), (2, "NILocalPut"))


@pytest.fixture
def buggy_c(tmp_path):
    path = tmp_path / "buggy.c"
    path.write_text(BUGGY)
    return str(path)


def small_spec(buggy_c, **kw):
    defaults = dict(files=(buggy_c,), dispatch=DISPATCH, runs=6,
                    shard_size=2, seed=11, messages=8, lane_capacity=2)
    defaults.update(kw)
    return CampaignSpec(**defaults)


# -- seed-determinism audit (exact pinned values) ----------------------------

class TestSeedDerivation:
    def test_derive_seed_is_pinned(self):
        # sha256("mc-campaign:<seed>:<role>:<index>") — process state,
        # PYTHONHASHSEED, and platform word size must not matter.  If
        # this test fails, every journaled campaign in the world is
        # invalidated: bump CAMPAIGN_SCHEMA, don't "fix" the values.
        assert [derive_seed(7, "workload", i) for i in range(3)] == [
            8500624984484820018, 175299231772158007, 5224827852480059091]
        assert [derive_seed(7, "faults", i) for i in range(3)] == [
            8487217583496972848, 1891365481759523036, 8170071588235976281]
        assert derive_seed(99, "workload", 0) == 4407966416551831648

    def test_seeds_fit_in_63_bits(self):
        for i in range(200):
            assert 0 <= derive_seed(7, "workload", i) < 2 ** 63

    def test_roles_are_independent_streams(self):
        assert derive_seed(7, "workload", 0) != derive_seed(7, "faults", 0)
        assert derive_seed(7, "workload", 0) != derive_seed(8, "workload", 0)


class TestPlans:
    def test_plan_is_pinned(self):
        spec = CampaignSpec(files=("p.c",), dispatch=((1, "H"),),
                            runs=6, shard_size=2, seed=7)
        plan = plan_for_run(spec, 0)
        assert plan.seed == 8500624984484820018
        assert [r.site for r in plan.fault_plan.rules] == ["alloc_fail"]
        assert plan.fault_plan.seed == 47465
        assert plan_for_run(spec, 1).fault_plan is None

    def test_resharding_changes_scheduling_not_outcomes(self):
        a = CampaignSpec(files=("p.c",), dispatch=((1, "H"),),
                         runs=10, shard_size=2, seed=7)
        b = CampaignSpec(files=("p.c",), dispatch=((1, "H"),),
                         runs=10, shard_size=7, seed=7)
        plans_a = [p for s in range(a.n_shards) for p in runs_for_shard(a, s)]
        plans_b = [p for s in range(b.n_shards) for p in runs_for_shard(b, s)]
        assert plans_a == plans_b

    def test_spec_json_round_trip(self):
        spec = CampaignSpec(files=("a.c", "b.c"), dispatch=DISPATCH,
                            runs=17, shard_size=5, seed=3, messages=12,
                            fault_sites=("alloc_fail", "lane_overflow"))
        assert CampaignSpec.from_json(spec.to_json()) == spec

    def test_spec_validation(self):
        with pytest.raises(ReproError):
            CampaignSpec(files=("p.c",), dispatch=())
        with pytest.raises(ReproError):
            CampaignSpec(files=("p.c",), dispatch=((1, "H"),), runs=0)
        with pytest.raises(ReproError):
            CampaignSpec(files=("p.c",), dispatch=((1, "H"),),
                         fault_sites=("warp_core_breach",))

    def test_out_of_range_indexes_refused(self):
        spec = CampaignSpec(files=("p.c",), dispatch=((1, "H"),),
                            runs=4, shard_size=2)
        with pytest.raises(ReproError):
            plan_for_run(spec, 4)
        with pytest.raises(ReproError):
            runs_for_shard(spec, 2)


# -- the shrinker (pure, driven by a synthetic execute) ----------------------

def _rule(site, **kw):
    return FaultRule(site=site, **kw)


class TestShrinker:
    def test_drops_irrelevant_rules_and_prefixes(self):
        # Failure needs >= 5 messages and the alloc_fail rule; the two
        # other rules and the message tail are noise to strip.
        rules = (_rule("msg_dup"), _rule("alloc_fail"), _rule("msg_delay"))
        plan = RunPlan(run_index=0, seed=1, messages=40,
                       fault_plan=FaultPlan(rules=rules, seed=9))

        def execute(candidate):
            has_alloc = (candidate.fault_plan is not None and any(
                r.site == "alloc_fail" for r in candidate.fault_plan.rules))
            if has_alloc and candidate.messages >= 5:
                return frozenset({"buffer-leak"})
            return frozenset()

        result = shrink_run(plan, frozenset({"buffer-leak"}), execute)
        assert result.plan.messages == 5
        assert [r.site for r in result.plan.fault_plan.rules] == [
            "alloc_fail"]
        assert not result.capped
        assert result.iterations > 0

    def test_fault_free_failure_shrinks_to_shortest_prefix(self):
        plan = RunPlan(run_index=0, seed=1, messages=64, fault_plan=None)

        def execute(candidate):
            return (frozenset({"no-deadlock"})
                    if candidate.messages >= 17 else frozenset())

        result = shrink_run(plan, frozenset({"no-deadlock"}), execute)
        assert result.plan.messages == 17
        assert result.plan.fault_plan is None

    def test_shrunk_repro_preserves_the_full_signature(self):
        # Two target properties: a candidate reproducing only one must
        # be rejected, even though it is "still failing".
        rules = (_rule("alloc_fail"), _rule("lane_overflow"))
        plan = RunPlan(run_index=0, seed=1, messages=10,
                       fault_plan=FaultPlan(rules=rules, seed=9))

        def execute(candidate):
            found = set()
            if candidate.fault_plan is not None:
                sites = {r.site for r in candidate.fault_plan.rules}
                if "alloc_fail" in sites:
                    found.add("buffer-leak")
                if "lane_overflow" in sites:
                    found.add("lane-capacity")
            return frozenset(found)

        targets = frozenset({"buffer-leak", "lane-capacity"})
        result = shrink_run(plan, targets, execute)
        sites = {r.site for r in result.plan.fault_plan.rules}
        assert sites == {"alloc_fail", "lane_overflow"}

    def test_budget_cap_marks_result_capped(self):
        plan = RunPlan(run_index=0, seed=1, messages=1 << 20,
                       fault_plan=None)

        def execute(candidate):
            return frozenset({"x"}) if candidate.messages >= 3 else frozenset()

        result = shrink_run(plan, frozenset({"x"}), execute,
                            max_executions=3)
        assert result.capped
        assert result.iterations == 3
        # whatever it returns must still reproduce the failure
        assert execute(result.plan) == frozenset({"x"})


# -- properties --------------------------------------------------------------

class TestProperties:
    def test_registry_is_consistent(self):
        names = [p.name for p in PROPERTIES]
        assert len(names) == len(set(names))
        for prop in PROPERTIES:
            assert property_by_name(prop.name) is prop

    def test_checker_aliases(self):
        assert canonical_checker("wait_for_db") == "buffer-race"
        assert canonical_checker("msglen_check") == "msg-length"
        assert canonical_checker("buffer-mgmt") == "buffer-mgmt"

    def test_violations_from_attributed_stats(self):
        class Stats:
            attribution = {"double_frees": {"H": 2},
                           "lane_overruns": {"A": 1, "B": 3}}
            deadlock = ""
            deadlock_handler = None

            def __getattr__(self, name):
                counters = {"double_frees": 2, "lane_overruns": 4}
                return counters.get(name, 0)

        found = {v.property: v for v in violations_of(Stats())}
        assert found["buffer-refcount"].count == 2
        assert found["buffer-refcount"].handlers == ("H",)
        assert found["lane-capacity"].handlers == ("A", "B")
        assert "no-deadlock" not in found

    def test_machine_invariants_hold_even_for_buggy_protocols(
            self, buggy_c):
        from repro.flash.sim import FlashMachine, WorkloadSpec
        from repro.project import Program, read_sources
        program = Program(read_sources([buggy_c]))
        functions = {f.name: f for f in program.functions()}
        machine = FlashMachine(functions, dict(DISPATCH), strict=False,
                               lane_capacity=2, max_hops=2)
        machine.run(WorkloadSpec(messages=12, seed=3,
                                 opcode_weights=((1, 1), (2, 1))))
        assert machine_invariants(machine) == []


@given(seed=st.integers(0, 2 ** 32), messages=st.integers(1, 24),
       lanes=st.integers(1, 4))
@settings(max_examples=20, deadline=None)
def test_structural_invariants_under_fuzzed_workloads(
        seed, messages, lanes, tmp_path_factory):
    """Hypothesis drive: whatever the workload does to this buggy
    protocol, the simulator's own structures stay sane (refcounts
    non-negative, lanes within capacity, pool accounting exact)."""
    global _FUZZ_STATE
    try:
        functions = _FUZZ_STATE
    except NameError:
        from repro.project import Program, read_sources
        path = tmp_path_factory.mktemp("fuzz") / "buggy.c"
        path.write_text(BUGGY)
        program = Program(read_sources([str(path)]))
        functions = _FUZZ_STATE = {f.name: f for f in program.functions()}
    from repro.errors import SimulationError
    from repro.flash.sim import FlashMachine, WorkloadSpec
    machine = FlashMachine(functions, dict(DISPATCH), strict=False,
                           lane_capacity=lanes, max_hops=2)
    try:
        stats = machine.run(WorkloadSpec(
            messages=messages, seed=seed,
            opcode_weights=((1, 1), (2, 1))))
    except SimulationError:
        stats = None                   # escaped typed failure is legal
    assert machine_invariants(machine) == []
    if stats is not None:
        assert stats.handlers_run >= 0
        for violation in violations_of(stats):
            assert violation.count >= 0


# -- cross-tab verdicts ------------------------------------------------------

def _report(checker, function, line=1, confidence=0.4):
    return StaticReport(
        id=f"{checker}-{function}-{line}", checker=checker,
        machine=checker, function=function, file="p.c", line=line,
        column=1, message=f"{checker} message", key=(checker, function, line),
        confidence=confidence)


def _outcome(run, violations, executed, crashed=None):
    return {"run": run, "seed": 1, "messages": 8, "fault_plan": None,
            "violations": [v.to_obj() for v in violations],
            "crashed": bool(violations) if crashed is None else crashed,
            "error": None, "functions_executed": list(executed),
            "handlers_run": len(executed), "faults": 0, "shrunk": None}


class TestCrossTab:
    def test_three_way_verdicts(self):
        reports = [
            _report("buffer-race", "Reader"),      # confirmed via handler
            _report("buffer-mgmt", "Leaker"),      # confirmed via executed
            _report("msg-length", "Reader"),       # unmanifested
        ]
        outcomes = [
            _outcome(0, [Violation("buffer-sync", 2, ("Reader",)),
                         Violation("buffer-leak", 1, ())],
                     executed=["Reader", "Leaker"]),
            _outcome(1, [Violation("lane-capacity", 1, ("Flooder",))],
                     executed=["Flooder"]),
        ]
        tab = cross_tabulate(reports, outcomes)
        verdicts = {e["id"]: e["verdict"] for e in tab.entries}
        assert verdicts["buffer-race-Reader-1"] == "confirmed"
        assert verdicts["buffer-mgmt-Leaker-1"] == "confirmed"
        assert verdicts["msg-length-Reader-1"] == "unmanifested"
        # the lane violation has no static report at all: checker gap
        assert [(g["property"], g["handler"]) for g in tab.gaps] == [
            ("lane-capacity", "Flooder")]
        assert tab.counters["confirmed"] == 2
        assert tab.counters["unmanifested"] == 1
        assert tab.counters["gaps"] == 1
        assert tab.confirmed_keys == {("buffer-race", "Reader", 1),
                                      ("buffer-mgmt", "Leaker", 1)}

    def test_attribution_must_name_the_reported_function(self):
        # A violation pinned on *another* handler does not confirm.
        reports = [_report("buffer-race", "Innocent")]
        outcomes = [_outcome(0, [Violation("buffer-sync", 1, ("Guilty",))],
                             executed=["Innocent", "Guilty"])]
        tab = cross_tabulate(reports, outcomes)
        assert tab.entries[0]["verdict"] == "unmanifested"

    def test_confirmed_confidence_uses_dynamic_boost(self):
        reports = [_report("buffer-race", "Reader", confidence=0.3)]
        outcomes = [_outcome(0, [Violation("buffer-sync", 1, ("Reader",))],
                             executed=["Reader"])]
        tab = cross_tabulate(reports, outcomes)
        entry = tab.entries[0]
        assert entry["confidence"] == 0.3
        assert entry["confidence_dynamic"] == dynamic_boost(0.3) == 0.65

    def test_json_document_is_deterministic(self):
        reports = [_report("buffer-race", "Reader")]
        outcomes = [_outcome(0, [Violation("buffer-sync", 1, ("Reader",))],
                             executed=["Reader"])]
        a = json.dumps(crosstab_to_json(cross_tabulate(reports, outcomes)),
                       sort_keys=True)
        b = json.dumps(crosstab_to_json(cross_tabulate(reports, outcomes)),
                       sort_keys=True)
        assert a == b


class TestDynamicBoost:
    def test_monotone_and_bounded(self):
        for score in (0.0, 0.1, 0.5, 0.9, 0.99):
            boosted = dynamic_boost(score)
            assert score < boosted < 1.0
        # at the cap, the boost saturates but never reaches 1.0
        assert dynamic_boost(0.9999) == 0.9999

    def test_score_run_applies_evidence(self, buggy_c):
        run = check_files([buggy_c])
        static = score_run(run)
        key = next(iter(static))
        boosted = score_run(run, dynamically_confirmed=frozenset({key}))
        assert boosted[key] == dynamic_boost(static[key])
        for other in static:
            if other != key:
                assert boosted[other] == static[other]


# -- the campaign end to end -------------------------------------------------

class TestCampaignEndToEnd:
    def test_campaign_confirms_static_reports(self, buggy_c):
        spec = small_spec(buggy_c)
        camp = run_campaign(spec, jobs=1)
        assert camp.complete
        assert [o["run"] for o in camp.outcomes] == list(range(6))
        static = reports_from_run(check_files([buggy_c]))
        tab = cross_tabulate(static, camp.outcomes)
        assert tab.counters["confirmed"] >= 1
        # every confirmed report's confidence strictly increased
        for entry in tab.confirmed:
            assert entry["confidence_dynamic"] > entry["confidence"]
        # ...and the evidence flows through the ranking front door too
        boosted = score_run(check_files([buggy_c]),
                            dynamically_confirmed=tab.confirmed_keys)
        plain = score_run(check_files([buggy_c]))
        assert any(boosted[k] > plain[k] for k in tab.confirmed_keys)

    def test_every_crash_ships_a_minimal_repro(self, buggy_c):
        spec = small_spec(buggy_c)
        camp = run_campaign(spec, jobs=1)
        crashes = [o for o in camp.outcomes if o["crashed"]]
        assert crashes
        for outcome in crashes:
            shrunk = outcome["shrunk"]
            assert shrunk is not None
            assert 1 <= shrunk["messages"] <= outcome["messages"]
            assert shrunk["iterations"] >= 1

    def test_outcomes_do_not_depend_on_sharding(self, buggy_c):
        a = run_campaign(small_spec(buggy_c, shard_size=2), jobs=1)
        b = run_campaign(small_spec(buggy_c, shard_size=5), jobs=1)
        assert a.outcomes == b.outcomes

    def test_journal_resume_is_byte_identical(self, buggy_c, tmp_path):
        spec = small_spec(buggy_c)
        static = reports_from_run(check_files([buggy_c]))
        runs_dir = tmp_path / "runs"
        config = {"command": "campaign"}

        journal = RunJournal.create(runs_dir, config=config)
        first = run_campaign(spec, jobs=1, journal=journal)
        journal.close()

        resumed = RunJournal.resume(runs_dir, journal.run_id, config)
        second = run_campaign(spec, jobs=1, journal=resumed)
        resumed.close()

        doc_a = json.dumps(crosstab_to_json(
            cross_tabulate(static, first.outcomes), spec), sort_keys=True)
        doc_b = json.dumps(crosstab_to_json(
            cross_tabulate(static, second.outcomes), spec), sort_keys=True)
        assert doc_a == doc_b

    def test_missing_handler_quarantines_not_crashes(self, buggy_c):
        spec = small_spec(buggy_c, dispatch=((1, "NoSuchHandler"),))
        camp = run_campaign(spec, jobs=1)
        assert not camp.complete
        assert camp.outcomes == []
        assert all("NoSuchHandler" in slot["note"] or "not defined"
                   in slot["note"] for slot in camp.incomplete_shards)

    def test_render_crosstab_mentions_verdicts(self, buggy_c):
        spec = small_spec(buggy_c)
        camp = run_campaign(spec, jobs=1)
        static = reports_from_run(check_files([buggy_c]))
        text = render_crosstab(cross_tabulate(static, camp.outcomes))
        assert "confirmed" in text
        assert "minimal repro" in text


class TestGeneratedCorpus:
    """The acceptance anchor: on a *generated paper protocol*, a seeded
    campaign dynamically confirms at least one static report and raises
    its confidence through the ranking's evidence source."""

    def test_bitvector_campaign_confirms_static_reports(self, tmp_path):
        from repro.flash.codegen import generate_protocol
        gp = generate_protocol("bitvector")
        for name, text in gp.files.items():
            (tmp_path / name).write_text(text)
        files = sorted(str(tmp_path / f) for f in gp.files)
        handlers = sorted(n for n, h in gp.info.handlers.items()
                          if h.kind == "hw")
        dispatch = tuple(enumerate(handlers, start=1))

        spec = CampaignSpec(files=tuple(files), dispatch=dispatch,
                            runs=10, shard_size=5, seed=7, messages=20,
                            max_hops=2)
        camp = run_campaign(spec, jobs=1)
        assert camp.complete

        run = check_files(files)
        tab = cross_tabulate(reports_from_run(run), camp.outcomes)
        assert tab.counters["confirmed"] >= 1
        for entry in tab.confirmed:
            assert entry["confidence_dynamic"] > entry["confidence"]
        # the ranking front door agrees with the cross-tab's boost
        plain = score_run(run)
        boosted = score_run(run, dynamically_confirmed=tab.confirmed_keys)
        raised = [k for k in tab.confirmed_keys if boosted[k] > plain[k]]
        assert raised


class TestCampaignParsesOnce:
    """The CLI parses the units to build the dispatch table; the static
    check and the shards then reuse that parse from the memo."""

    def test_each_unit_is_parsed_once(self, tmp_path, monkeypatch, capsys):
        from unittest import mock

        from repro import cli
        from repro.flash.codegen import generate_protocol
        from repro.flash.spec import dump_spec
        from repro.lang import clear_memo, parser
        from repro.project import Program

        gp = generate_protocol("bitvector")
        for name, text in gp.files.items():
            (tmp_path / name).write_text(text)
        (tmp_path / "bitvector.spec").write_text(dump_spec(gp.info))
        monkeypatch.chdir(tmp_path)
        argv = ["campaign", *sorted(gp.files), "--spec", "bitvector.spec",
                "--runs", "4", "--shard-size", "2", "--campaign-seed", "7",
                "--jobs", "1", "--no-cache", "--format", "json"]

        real_parse = parser.parse

        def campaign():
            clear_memo()
            with mock.patch("repro.lang.parser.parse",
                            wraps=real_parse) as a, \
                    mock.patch("repro.lang.memo.parse",
                               wraps=real_parse) as b:
                code = cli.main(argv)
            return code, capsys.readouterr().out, a.call_count + b.call_count

        code, out, parses = campaign()
        assert parses == len(gp.files)
        assert json.loads(out)["counters"]["confirmed"] >= 1

        # Reference: the CLI's program parsed privately, outside the memo.
        def private_program(files, info=None, unit_memo=False):
            return Program(files, info=info)

        with mock.patch.object(cli, "Program", private_program):
            private_code, private_out, private_parses = campaign()
        assert private_parses == 2 * len(gp.files)
        assert (code, out) == (private_code, private_out)


class TestCampaignFingerprint:
    """Shard payloads are keyed on every module a campaign runs."""

    def test_every_module_of_the_packages_is_covered(self, monkeypatch):
        from pathlib import Path

        import repro.campaign
        import repro.faults
        import repro.flash.sim
        from repro.campaign import fleet

        files = [path
                 for package in (repro.campaign, repro.faults,
                                 repro.flash.sim)
                 for path in sorted(Path(package.__file__).parent.glob("*.py"))]
        assert {"fleet.py", "interp.py", "worker.py", "__init__.py"} <= {
            path.name for path in files}
        monkeypatch.setattr(fleet, "_CAMPAIGN_FP", None)
        baseline = fleet.campaign_fingerprint()
        read_bytes = Path.read_bytes
        for edited in files:
            def edited_bytes(path, edited=edited):
                data = read_bytes(path)
                return data + b"\n# edited\n" if path == edited else data

            with monkeypatch.context() as patch:
                patch.setattr(Path, "read_bytes", edited_bytes)
                patch.setattr(fleet, "_CAMPAIGN_FP", None)
                assert fleet.campaign_fingerprint() != baseline, edited
        monkeypatch.setattr(fleet, "_CAMPAIGN_FP", None)
        assert fleet.campaign_fingerprint() == baseline
