"""Unit tests for the lane checker's summary computation (the global
pass's building block), at the FlowGraph level."""

from repro.cfg import build_cfg, emit_flowgraph
from repro.cfg.callgraph import CallGraph
from repro.checkers.lanes import LaneSummary, annotate_lanes, summarize_lanes
from repro.flash import machine
from repro.lang import annotate, parse
from repro.mc.interproc import bottom_up
from repro.mc.summary import event_calls, event_index


def summaries_of(src):
    unit = parse(src)
    annotate(unit)
    graphs = [
        emit_flowgraph(build_cfg(f), annotate=annotate_lanes)
        for f in unit.functions()
    ]
    return bottom_up(CallGraph(graphs), summarize_lanes)


def test_single_send_peak_and_net():
    summaries = summaries_of("""
        void f(void) { PI_SEND(F_NODATA, 1, 0, 0, 1, 0); }
    """)
    s = summaries["f"]
    assert s.peak[machine.LANE_PI] == 1
    assert s.net[machine.LANE_PI] == 1
    assert s.sends_any


def test_no_sends():
    summaries = summaries_of("void f(void) { t = 1; }")
    s = summaries["f"]
    assert s.peak == [0, 0, 0, 0]
    assert not s.sends_any


def test_sequential_sends_accumulate():
    summaries = summaries_of("""
        void f(void) {
            NI_SEND(NI_REQUEST, F_NODATA, 1, 0, 1, 0);
            NI_SEND(NI_REQUEST, F_NODATA, 1, 0, 1, 0);
            NI_SEND(NI_REPLY, F_NODATA, 1, 0, 1, 0);
        }
    """)
    s = summaries["f"]
    assert s.peak[machine.LANE_NI_REQUEST] == 2
    assert s.peak[machine.LANE_NI_REPLY] == 1


def test_branches_merge_with_max():
    summaries = summaries_of("""
        void f(void) {
            if (c) {
                PI_SEND(F_NODATA, 1, 0, 0, 1, 0);
                PI_SEND(F_NODATA, 1, 0, 0, 1, 0);
            } else {
                PI_SEND(F_NODATA, 1, 0, 0, 1, 0);
            }
        }
    """)
    assert summaries["f"].peak[machine.LANE_PI] == 2


def test_wait_for_space_resets_and_flags():
    summaries = summaries_of("""
        void f(void) {
            IO_SEND(F_NODATA, 1, 0, 0, 1, 0);
            WAIT_FOR_SPACE(LANE_IO);
            IO_SEND(F_NODATA, 1, 0, 0, 1, 0);
        }
    """)
    s = summaries["f"]
    assert s.peak[machine.LANE_IO] == 1
    assert s.resets[machine.LANE_IO]
    assert s.net[machine.LANE_IO] == 1


def test_callee_contribution_composes():
    summaries = summaries_of("""
        void leaf(void) { PI_SEND(F_NODATA, 1, 0, 0, 1, 0); }
        void caller(void) {
            PI_SEND(F_NODATA, 1, 0, 0, 1, 0);
            leaf();
        }
    """)
    assert summaries["caller"].peak[machine.LANE_PI] == 2


def test_callee_in_branch_takes_max():
    summaries = summaries_of("""
        void leaf(void) { PI_SEND(F_NODATA, 1, 0, 0, 1, 0); }
        void caller(void) {
            if (c) { leaf(); } else { PI_SEND(F_NODATA, 1, 0, 0, 1, 0); }
        }
    """)
    assert summaries["caller"].peak[machine.LANE_PI] == 1


def test_witness_frames_record_lines():
    summaries = summaries_of("""
        void leaf(void) { PI_SEND(F_NODATA, 1, 0, 0, 1, 0); }
        void caller(void) { leaf(); }
    """)
    witness = summaries["caller"].witness[machine.LANE_PI]
    assert any(frame.startswith("leaf:") for frame in witness)
    assert witness[-1].startswith("caller:")


def test_cycle_peers_contribute_nothing():
    unit = parse("""
        void a(void) { if (x) { b(); } PI_SEND(F_NODATA, 1, 0, 0, 1, 0); }
        void b(void) { a(); }
    """)
    annotate(unit)
    graphs = [
        emit_flowgraph(build_cfg(f), annotate=annotate_lanes)
        for f in unit.functions()
    ]
    summaries = bottom_up(CallGraph(graphs), summarize_lanes)
    # Each member's own sends still count once; the recursive call does
    # not inflate the peak unboundedly.
    assert summaries["a"].peak[machine.LANE_PI] == 1


def test_annotate_lanes_hook():
    unit = parse("""
        void f(void) {
            PI_SEND(F_NODATA, 1, 0, 0, 1, 0);
            WAIT_FOR_SPACE(LANE_NI_REPLY);
            t = t + 1;
        }
    """)
    annotate(unit)
    cfg = build_cfg(unit.function("f"))
    index = event_index(cfg)
    annotations = [annotate_lanes(event_calls(index[id(e)]))
                   for e in cfg.events()]
    sends = [a for a in annotations if a and a.get("sends")]
    waits = [a for a in annotations if a and a.get("waits")]
    plain = [a for a in annotations if a is None]
    assert len(sends) == 1 and sends[0]["sends"][0][0] == machine.LANE_PI
    assert len(waits) == 1 and waits[0]["waits"] == [machine.LANE_NI_REPLY]
    assert plain  # the arithmetic event carries no annotation
