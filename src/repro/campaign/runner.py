"""Worker-side campaign execution: one shard = one fleet work item.

A shard executes a contiguous slice of the campaign's runs against one
parsed copy of the protocol (the per-worker parse memo makes the parse
cost amortize across every shard a worker executes).  Each failing run
is shrunk *in the worker*, before the payload ships back — so the
journaled payload already carries the minimal counterexample and a
``--resume`` replay is byte-identical without re-shrinking anything.

Payload shape (JSON-able, deterministic field order)::

    {"schema": <cache schema>, "campaign": <campaign schema>,
     "shard": N, "outcomes": [
        {"run", "seed", "messages", "fault_plan",
         "violations": [{"property", "count", "handlers"}...],
         "crashed", "error", "functions_executed", "handlers_run",
         "faults", "shrunk"}
     ...]}

Typed protocol errors that escape a lenient run (a negative refcount is
a pool-invariant breach and fatal even outside ``--strict``) are caught
here and recorded as the matching property violation — a worker never
dies because the *simulated protocol* is buggy.
"""

from __future__ import annotations

from typing import Optional

from ..errors import (
    DoubleFreeError,
    LaneOverflowError,
    RefcountError,
    SimulationError,
)
from .plans import CAMPAIGN_SCHEMA, CampaignSpec, RunPlan, runs_for_shard
from .properties import Violation, violations_of
from .shrink import shrink_run

#: Typed errors that escape ``FlashMachine.run`` mapped to the property
#: they witness (``None`` = tool-side failure, recorded but unmapped).
_ERROR_PROPERTY = {
    RefcountError: "refcount-negative",
    DoubleFreeError: "buffer-refcount",
    LaneOverflowError: "lane-capacity",
}


def _error_property(exc: BaseException) -> Optional[str]:
    for etype, prop in _ERROR_PROPERTY.items():
        if isinstance(exc, etype):
            return prop
    return None


def execute_plan(functions: dict, dispatch: dict, spec: CampaignSpec,
                 plan: RunPlan, program) -> tuple:
    """Run one plan; returns ``(stats, error)`` where ``error`` is
    ``None`` or ``(type-name, message)`` for an escaped typed failure.
    ``program`` is the :class:`~repro.flash.sim.CompiledProgram` of
    ``functions`` to run, shared with the caller's other runs."""
    from ..flash.sim import FlashMachine, WorkloadSpec
    from ..flash.sim.machine import SimStats

    machine = FlashMachine(
        functions, dispatch, nodes=spec.nodes, n_buffers=spec.buffers,
        lane_capacity=spec.lane_capacity, strict=False,
        max_hops=spec.max_hops, fault_plan=plan.fault_plan,
        program=program,
    )
    workload = WorkloadSpec(
        messages=plan.messages, nodes=spec.nodes, seed=plan.seed,
        opcode_weights=tuple((op, 1) for op, _name in sorted(dispatch.items())),
    )
    try:
        stats = machine.run(workload)
        return stats, None
    except SimulationError as exc:
        # Escaped typed failure (negative refcount, interpreter error):
        # salvage the counters the machine did accumulate.
        stats = SimStats()
        machine._collect(stats)
        return stats, (type(exc).__name__, str(exc))


def _violations(stats, error) -> list:
    found = violations_of(stats)
    if error is not None:
        prop = None
        for etype, name in _ERROR_PROPERTY.items():
            if etype.__name__ == error[0]:
                prop = name
                break
        if prop is not None and all(v.property != prop for v in found):
            found.append(Violation(prop, 1, ()))
    return found


def execute_run(functions: dict, dispatch: dict, spec: CampaignSpec,
                plan: RunPlan, shrink: bool = True, program=None) -> dict:
    """Execute one run plan into its outcome record (shrinking failures).

    The run and its shrink re-runs share ``program`` (a
    :class:`~repro.flash.sim.CompiledProgram`; a new one if omitted).
    """
    if program is None:
        from ..flash.sim import CompiledProgram
        program = CompiledProgram(functions)
    stats, error = execute_plan(functions, dispatch, spec, plan, program)
    violations = _violations(stats, error)
    crashed = bool(violations) or error is not None
    shrunk_obj = None
    targets = frozenset(v.property for v in violations)
    if shrink and crashed and targets:
        def rerun(candidate: RunPlan) -> frozenset:
            c_stats, c_error = execute_plan(functions, dispatch, spec,
                                            candidate, program)
            return frozenset(v.property
                             for v in _violations(c_stats, c_error))

        result = shrink_run(plan, targets, rerun)
        minimal = result.plan.to_obj()
        shrunk_obj = {
            "seed": minimal["seed"],
            "messages": minimal["messages"],
            "fault_plan": minimal["fault_plan"],
            "iterations": result.iterations,
            "capped": result.capped,
        }
    return {
        "run": plan.run_index,
        "seed": plan.seed,
        "messages": plan.messages,
        "fault_plan": plan.to_obj()["fault_plan"],
        "violations": [v.to_obj() for v in violations],
        "crashed": crashed,
        "error": list(error) if error is not None else None,
        "functions_executed": list(stats.functions_executed),
        "handlers_run": stats.handlers_run,
        "faults": stats.injected_faults,
        "shrunk": shrunk_obj,
    }


def run_campaign_item(item, config) -> dict:
    """Execute one campaign shard work item (called in fleet workers).

    Mirrors the checker/metal item runners: deadline skips and
    unreadable inputs degrade to the fleet's existing skipped/quarantine
    payloads instead of killing the worker; worker-site fault rules
    (``worker_crash``/...) perturb campaign items exactly as they do
    checker items, so the supervisor's crash/retry machinery is
    exercised by the same plans.
    """
    from ..errors import SourceReadError
    from ..flash.sim import CompiledProgram
    from ..mc import parallel as fleet
    from ..mc.cache import SCHEMA_VERSION
    from ..project import Program, read_sources

    if fleet._past_deadline(config):
        return fleet._skipped_payload(
            item, config, "not analysed — run deadline exceeded")
    fleet._maybe_worker_fault(item)
    spec = CampaignSpec.from_json(config.campaign_spec)
    try:
        files = read_sources(item.paths)
    except SourceReadError as exc:
        return fleet._quarantine_payload(item, config, type(exc).__name__,
                                         str(exc), phase="input")
    program = Program(files, unit_memo=True)
    functions = {f.name: f for f in program.functions()}
    dispatch = {op: name for op, name in spec.dispatch}
    missing = sorted(name for name in dispatch.values()
                     if name not in functions)
    if missing:
        return fleet._quarantine_payload(
            item, config, "ReproError",
            f"dispatch handler(s) not defined by the sources: "
            f"{', '.join(missing)}", phase="input")
    # One compiled program per shard: between them, the shard's runs,
    # shrink re-runs and nodes compile each handler at most once.
    program = CompiledProgram(functions)
    outcomes = [
        execute_run(functions, dispatch, spec, plan, program=program)
        for plan in runs_for_shard(spec, item.index)
    ]
    return {
        "schema": SCHEMA_VERSION,
        "campaign": CAMPAIGN_SCHEMA,
        "shard": item.index,
        "outcomes": outcomes,
    }
