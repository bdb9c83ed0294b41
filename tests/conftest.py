"""Shared fixtures: generated protocols and checker results are expensive
(parsing ~80K LOC), so they are session-scoped and shared."""

from __future__ import annotations

import pytest

from repro.bench.tables import Experiment
from repro.flash.codegen import generate_protocol
from repro.lang import clear_memo
from repro.obs.metrics import MetricsRegistry, activate_metrics


def _checked(feasibility: bool) -> tuple[Experiment, dict]:
    """A fully-checked experiment and the metrics counters of its check.

    The parse memo is emptied first, so every function is parsed,
    walked and counted, whatever earlier tests cached."""
    clear_memo()
    registry = MetricsRegistry()
    previous = activate_metrics(registry)
    try:
        exp = Experiment(feasibility=feasibility)
        exp.check()
    finally:
        activate_metrics(previous)
    return exp, registry.counters


@pytest.fixture(scope="session")
def paper_corpus() -> tuple[Experiment, dict]:
    """The paper's engine, feasibility off: (experiment, counters)."""
    return _checked(feasibility=False)


@pytest.fixture(scope="session")
def pruned_paper_corpus() -> tuple[Experiment, dict]:
    """The same corpus with feasibility pruning on: (experiment, counters)."""
    return _checked(feasibility=True)


@pytest.fixture(scope="session")
def experiment(paper_corpus) -> Experiment:
    """One fully-checked experiment shared by integration tests."""
    return paper_corpus[0]


@pytest.fixture(scope="session")
def bitvector():
    return generate_protocol("bitvector")


@pytest.fixture(scope="session")
def common():
    return generate_protocol("common")
