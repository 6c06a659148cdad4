"""Property suite for the conservative parallel DES driver.

Hammers the exactness contract over random small tori: for every
topology shape x wrap combination x traffic pattern x payload size x
partition count x cut axis, the partitioned run's result document is
byte-identical to the serial run's, and the lookahead geometry the
safety argument rests on holds exactly (slab lookahead == true minimum
route cost; no import ever lands below a partition's safe floor — the
runtime guard raising :class:`CausalityError` is armed on every
absorb, so a clean run IS the causality assertion).

Runs under the shared Hypothesis profiles: the derandomized ``fast``
profile in tier-1, ``HYPOTHESIS_PROFILE=nightly`` for the deep run.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from repro.hw.config import DEFAULT_CONFIG
from repro.machine.builder import partition_nodes
from repro.net import Torus3D, min_cut_hops, slab_cut_hops
from repro.sim.parallel import (
    SCENARIO_NAMES,
    PlaneScenario,
    initial_sends,
    lookahead_closure,
    lookahead_matrix,
    result_document,
    run_scenario,
)

pytestmark = pytest.mark.property

# small dims keep each example in the low milliseconds while still
# producing multi-hop, wraparound, and degenerate (extent-1) axes
dims_st = st.tuples(
    st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)
).filter(lambda d: 2 <= d[0] * d[1] * d[2] <= 48)
wrap_st = st.tuples(st.booleans(), st.booleans(), st.booleans())


@given(
    dims=dims_st,
    wrap=wrap_st,
    name=st.sampled_from(SCENARIO_NAMES),
    msg_bytes=st.sampled_from([64, 1024, 3000]),
    nparts=st.integers(2, 4),
    axis=st.one_of(st.none(), st.integers(0, 2)),
)
def test_partitioned_equals_serial(dims, wrap, name, msg_bytes, nparts, axis):
    scenario = PlaneScenario(name=name, dims=dims, wrap=wrap, msg_bytes=msg_bytes)
    base = run_scenario(scenario, 1)
    part = run_scenario(scenario, nparts, transport="memory", axis=axis)
    assert json.dumps(part["result"], sort_keys=True) == json.dumps(
        base["result"], sort_keys=True
    )
    # every message the pattern injects is delivered exactly once
    assert len(base["result"]["messages"]) > 0


@given(
    dims=dims_st,
    wrap=wrap_st,
    nparts=st.integers(2, 4),
    axis=st.integers(0, 2),
)
def test_slab_cut_matches_brute_force(dims, wrap, nparts, axis):
    """slab_cut_hops' closed-form minimum equals the brute-force minimum
    over all cross-slab node pairs — the lookahead is never optimistic
    about route length (too-large would stall, too-small would race)."""
    topo = Torus3D(dims, wrap=wrap)
    plan = partition_nodes(topo, nparts, axis)
    hops = slab_cut_hops(topo, plan.axis, list(plan.ranges))
    for i in range(plan.nparts):
        for j in range(plan.nparts):
            if i == j:
                assert hops[i][j] == 0
            else:
                assert hops[i][j] == min_cut_hops(
                    topo, plan.nodes[i], plan.nodes[j]
                )


@given(dims=dims_st, wrap=wrap_st, nparts=st.integers(2, 4))
def test_lookahead_admits_no_causality_violation(dims, wrap, nparts):
    """Structural safety: off-diagonal lookahead is strictly positive
    (progress) and the closure obeys the triangle property (no relay
    chain undercuts the direct bound the horizon uses)."""
    scenario = PlaneScenario(name="neighbor", dims=dims, msg_bytes=256, wrap=wrap)
    topo = scenario.topology()
    plan = partition_nodes(topo, nparts)
    la = lookahead_matrix(scenario, plan)
    closure = lookahead_closure(la)
    n = plan.nparts
    for i in range(n):
        assert closure[i][i] == 0
        for j in range(n):
            assert closure[i][j] <= la[i][j] or i == j
            if i != j:
                assert la[i][j] > 0
                assert closure[i][j] > 0
            for k in range(n):
                assert closure[i][j] <= closure[i][k] + closure[k][j]


def closed_form_delivered(scenario):
    """Pure oracle for patterns whose sends all happen at t=0.

    Builds every chunk from the injection formula (TX serializes one
    chunk at a time, then per-hop flight), sorts each destination's
    chunks in the canonical order and folds them through the RX link.
    No simulator, no heap: a message is delivered when the fold passes
    its last chunk.  Also returns the distinct (dst, last-chunk arrival)
    pairs: the fold records a run needs.
    """
    cfg = DEFAULT_CONFIG
    packet_time = cfg.link_packet_time()
    topo = scenario.topology()
    inbox = {}
    folds = set()
    tx_free = {}
    send_seq = {}
    for src, dst in initial_sends(scenario, topo):
        seq = send_seq.get(src, 0)
        send_seq[src] = seq + 1
        nbytes = scenario.msg_bytes
        sizes = [cfg.chunk_bytes] * (nbytes // cfg.chunk_bytes)
        if nbytes % cfg.chunk_bytes:
            sizes.append(nbytes % cfg.chunk_bytes)
        free = tx_free.get(src, 0)
        for chunk_seq, size in enumerate(sizes):
            npackets = max(1, -(-size // cfg.packet_bytes))
            free += npackets * packet_time
            arrival = free + topo.distance(src, dst) * cfg.hop_latency
            last = chunk_seq == len(sizes) - 1
            key = (arrival, src, (src, dst, seq), chunk_seq)
            inbox.setdefault(dst, []).append((key, npackets, last, nbytes))
            if last:
                folds.add((dst, arrival))
        tx_free[src] = free
    delivered = {}
    for chunks in inbox.values():
        busy = 0
        for (arrival, _, msg, _), npackets, last, nbytes in sorted(chunks):
            busy = max(busy, arrival) + npackets * packet_time
            if last:
                delivered[msg] = (nbytes, 0, busy)
    return delivered, folds


@given(
    dims=dims_st,
    wrap=wrap_st,
    name=st.sampled_from(["neighbor", "incast"]),
    msg_bytes=st.sampled_from([1, 64, 1000, 1024, 3000, 5000]),
)
def test_closed_form_oracle_equals_runs(dims, wrap, name, msg_bytes):
    """Serial and partitioned runs deliver exactly the oracle's records,
    and the serial run needs at most one heap record per message."""
    scenario = PlaneScenario(name=name, dims=dims, wrap=wrap, msg_bytes=msg_bytes)
    delivered, folds = closed_form_delivered(scenario)
    expected = result_document(scenario, delivered)
    serial = run_scenario(scenario, 1)
    assert serial["result"] == expected
    assert serial["info"]["events_scheduled"] <= len(expected["messages"])
    assert serial["info"]["events_scheduled"] == len(folds)
    for nparts in (2, 3):
        part = run_scenario(scenario, nparts, transport="memory")
        assert part["result"] == expected


def test_full_plane_neighbor_one_record_per_message():
    """The 27x16x24 Red Storm plane: the oracle's records, and at most one
    heap record per message (a record per chunk arrival is nearly four
    times that): one per distinct (dst, last-chunk arrival)."""
    scenario = PlaneScenario(name="neighbor", dims=(27, 16, 24), msg_bytes=2048)
    delivered, folds = closed_form_delivered(scenario)
    expected = result_document(scenario, delivered)
    serial = run_scenario(scenario, 1)
    assert len(expected["messages"]) == 30072
    assert serial["result"] == expected
    assert serial["info"]["events_scheduled"] <= len(expected["messages"])
    assert serial["info"]["events_scheduled"] == len(folds)
