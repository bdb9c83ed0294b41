"""Table 4 — the buffer management checker over all protocols."""

from repro.bench.formatting import render_table
from repro.checkers import BufferMgmtChecker
from repro.mc import feasibility


def test_table4_buffer_mgmt(experiment, benchmark, show):
    programs = [gp.program() for gp in experiment.generate().values()]

    def run_checker():
        # The experiment's pruning setting (off: the paper's), not the
        # process default, so the annotation count is the paper's.
        previous = feasibility.set_default_enabled(experiment.feasibility)
        try:
            return [BufferMgmtChecker().check(p) for p in programs]
        finally:
            feasibility.set_default_enabled(previous)

    results = benchmark.pedantic(run_checker, rounds=3, iterations=1)
    table = experiment.table4()
    show("\n" + render_table(table))
    match, total = table.exact_cells()
    assert match == total
    annotations = sum(len(r.annotations) for r in results)
    assert annotations == 18 + 25  # useful + useless in the paper
