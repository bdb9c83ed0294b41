"""Parent-side campaign orchestration over the supervised worker fleet.

A campaign reuses the checker fleet's whole execution stack unchanged —
:func:`repro.mc.parallel._run_items` gives shards journal replay,
cache short-circuiting, the supervised pool (crash detection, watchdog,
retry, poison quarantine), graceful interruption, and the inline
fallback — by introducing one new work-item kind, ``"campaign"``, whose
item index *is* the shard index.

Shard keys come from :func:`repro.mc.cache.work_item_key`, like every
item's, over the protocol sources' content hashes, the canonical
campaign-spec JSON, the shard index, and a fingerprint of the
campaign/simulator/fault implementation — so editing a protocol file,
changing any campaign parameter, or upgrading the simulator invalidates
exactly the affected store entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..lang.memo import source_fingerprint
from ..mc.cache import (
    ResultCache,
    _module_digest,
    _sha256,
    engine_fingerprint,
    work_item_key,
)
from ..mc.parallel import WorkerConfig, WorkItem, _run_items
from ..mc.supervisor import RunJournal, RunStats, SupervisorPolicy
from .plans import CAMPAIGN_SCHEMA, CampaignSpec

_CAMPAIGN_FP: Optional[str] = None


def campaign_fingerprint() -> str:
    """Hash of every module whose behaviour feeds campaign outcomes.

    Covers this package (plan derivation, properties, shrinking,
    running), the whole simulator, and the fault machinery — bumping
    any of them must invalidate journaled shard payloads, exactly as
    the engine fingerprint invalidates checker results.
    """
    global _CAMPAIGN_FP
    if _CAMPAIGN_FP is None:
        from ..faults import injector as faults_injector
        from ..faults import plan as faults_plan
        from ..flash.sim import buffers, directory, interp, machine
        from ..flash.sim import network, node, workload
        from . import crosstab, plans, properties, runner, shrink

        digests = [
            _module_digest(module)
            for module in (plans, properties, runner, shrink, crosstab,
                           machine, node, interp, buffers, directory,
                           network, workload, faults_plan, faults_injector)
        ]
        _CAMPAIGN_FP = _sha256(*(d.encode() for d in digests),
                               str(CAMPAIGN_SCHEMA).encode())
    return _CAMPAIGN_FP


@dataclass
class CampaignRun:
    """A full campaign: merged outcomes plus run metadata."""

    spec: CampaignSpec
    outcomes: list                     # run records, sorted by run index
    #: Shard indexes that did not complete (interrupted/quarantined),
    #: with the reason recorded by their degraded payloads.
    incomplete_shards: list
    jobs: int = 1
    #: Cache hit/miss statistics (:class:`repro.mc.cache.CacheStats`).
    stats: Optional[object] = None
    run_id: Optional[str] = None
    supervision: Optional[RunStats] = None

    @property
    def interrupted(self) -> bool:
        return bool(self.supervision is not None
                    and self.supervision.interrupted)

    @property
    def complete(self) -> bool:
        return not self.incomplete_shards

    def summary_line(self) -> str:
        line = (f"run: jobs={self.jobs}, shards={self.spec.n_shards}, "
                f"runs={len(self.outcomes)}/{self.spec.runs}")
        if self.stats is not None:
            line += f", {self.stats.line()}, {self.stats.stores} stored"
        if self.supervision is not None and self.supervision.noteworthy():
            from ..mc.report import format_run_stats
            line += f", {format_run_stats(self.supervision)}"
        return line


def shard_keys(spec: CampaignSpec, sources: dict) -> dict:
    """Store key per shard index (:func:`work_item_key`)."""
    checker_fp = campaign_fingerprint()
    engine_fp = engine_fingerprint()
    spec_fp = source_fingerprint(spec.to_json())
    units = [(path, source_fingerprint(text))
             for path, text in sources.items()]
    return {shard: work_item_key(checker_fp=checker_fp, units=units,
                                 spec_fp=spec_fp, engine_fp=engine_fp,
                                 config_fp=f"shard={shard}")
            for shard in range(spec.n_shards)}


def _shard_from_payload(payload: dict) -> dict:
    """A shard payload; a complete one must carry this campaign schema
    and run-numbered outcomes, or the store treats it as corrupt."""
    if not payload.get("degraded") and (
            payload["campaign"] != CAMPAIGN_SCHEMA
            or not all(isinstance(o["run"], int)
                       for o in payload["outcomes"])):
        raise ValueError("not a shard payload of this campaign schema")
    return payload


def run_campaign(spec: CampaignSpec, *, jobs: int = 1,
                 cache: Optional[ResultCache] = None,
                 journal: Optional[RunJournal] = None,
                 policy: Optional[SupervisorPolicy] = None,
                 observation=None) -> CampaignRun:
    """Execute a campaign's shards across the supervised fleet.

    Returns merged outcomes in global run order.  Interruption
    (SIGINT/SIGTERM via the policy's stop flag) drains gracefully:
    completed shards are journaled, the rest surface in
    ``incomplete_shards``, and a later ``--resume`` replays the journal
    and runs only the remainder — byte-identical outcomes guaranteed by
    the determinism of :mod:`repro.campaign.plans`.  ``observation``
    (a :class:`repro.obs.Observation`) enables span tracing, metrics,
    and ``--progress`` for shards exactly as for checker items; the
    cross-tab is identical with or without it.
    """
    from ..project import read_sources

    sources = read_sources(list(spec.files))
    config = WorkerConfig(
        campaign_spec=spec.to_json(),
        fault_plan=policy.fault_plan if policy is not None else None,
        trace_dir=(observation.worker_trace_dir
                   if observation is not None else None),
        collect_obs=observation is not None,
        heartbeat_dir=(observation.worker_heartbeat_dir
                       if observation is not None else None),
    )
    items = [
        WorkItem(kind="campaign", checker="", paths=tuple(spec.files),
                 weight=min(spec.runs - shard * spec.shard_size,
                            spec.shard_size),
                 index=shard)
        for shard in range(spec.n_shards)
    ]
    keys = (shard_keys(spec, sources)
            if cache is not None or journal is not None else {})
    payloads, _budget, run_stats = _run_items(
        items, config, jobs, cache, keys, _shard_from_payload,
        journal=journal, policy=policy, observation=observation)

    outcomes = []
    incomplete = []
    for shard in range(spec.n_shards):
        payload = payloads[shard]
        if payload.get("degraded"):
            incomplete.append({"shard": shard,
                               "note": payload["degradation_notes"][0]})
            continue
        outcomes.extend(payload["outcomes"])
    outcomes.sort(key=lambda o: o["run"])
    return CampaignRun(
        spec=spec, outcomes=outcomes, incomplete_shards=incomplete,
        jobs=jobs, stats=cache.stats if cache is not None else None,
        run_id=journal.run_id if journal is not None else None,
        supervision=run_stats,
    )
