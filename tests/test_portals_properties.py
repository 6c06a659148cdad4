"""Property-based tests of Portals semantics and engine-path identity.

Random *programs* — sequences of match-list attachments, incoming
headers, EQ posts/reads, and sim-process operations — are generated with
Hypothesis and checked against small pure-Python oracles:

* matching order: ``first_match`` always returns the earliest linked
  entry whose (source, bits, accepting-MD) criterion passes;
* truncation: ``mlength`` follows the TRUNCATE / MANAGE_REMOTE rules
  exactly, and a no-space drop leaves all state untouched;
* unlink: MD and ME retirement callbacks fire exactly once, UNLINK is
  posted at most once per MD, and a retired entry never matches again;
* EQ: events are read in post order and ``reads + pending + dropped``
  always equals the number of posts;
* engine identity: the same random process program produces the same
  trace (times and values) on the flattened-sleep fast path and the
  legacy event-object path (``Simulator(direct_resume=...)``);
* bulk-event identity: a NetPIPE sweep under any mix of tracing,
  metrics, and fault plans produces identical measurements, counters,
  spans, and logical event counts with ``bulk_events`` on and off — and
  with no observer attached the bulk path demonstrably engages.

Profiles live in ``tests/conftest.py``: the default ``fast`` profile is
small and derandomized for PR CI; set ``HYPOTHESIS_PROFILE=nightly`` for
the deeper randomized run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.portals import (
    PTL_MD_THRESH_INF,
    PTL_NID_ANY,
    PTL_PID_ANY,
    EventKind,
    EventQueue,
    MatchEntry,
    MatchList,
    MatchStatus,
    MDOptions,
    MsgType,
    PortalsHeader,
    PortalTable,
    ProcessId,
    PtlEQDropped,
    PtlEQEmpty,
    bits_match,
    commit_operation,
    match_request,
    md_from_buffer,
    source_match,
)
from repro.sim import Channel, Simulator, Store

pytestmark = pytest.mark.property

ANY = ProcessId(PTL_NID_ANY, PTL_PID_ANY)

# small pools keep collisions (the interesting case) frequent
_BIT_POOL = [0x0, 0x1, 0x2, 0x3, 0xFF, 0xDEAD]
_IGNORE_POOL = [0x0, 0x1, 0x3, (1 << 64) - 1]
_NIDS = [PTL_NID_ANY, 1, 2]
_PIDS = [PTL_PID_ANY, 1, 2]


# ---------------------------------------------------------------------------
# random match-list programs vs a pure oracle
# ---------------------------------------------------------------------------

@dataclass
class _EntrySpec:
    """Generator-side description of one attached entry."""

    nid: int
    pid: int
    match_bits: int
    ignore_bits: int
    md_size: int
    threshold: int  # -1 => infinite
    truncate: bool
    manage_remote: bool
    allow_get: bool
    unlink: bool
    at_head: bool
    with_eq: bool
    # runtime state, filled in by the test
    me: Optional[MatchEntry] = None
    local_offset: int = 0
    remaining: int = 0
    md_unlinks: int = 0
    me_unlinks: int = 0
    unlink_events: int = 0


entry_specs = st.builds(
    _EntrySpec,
    nid=st.sampled_from(_NIDS),
    pid=st.sampled_from(_PIDS),
    match_bits=st.sampled_from(_BIT_POOL),
    ignore_bits=st.sampled_from(_IGNORE_POOL),
    md_size=st.integers(0, 64),
    threshold=st.sampled_from([-1, 1, 2, 3]),
    truncate=st.booleans(),
    manage_remote=st.booleans(),
    allow_get=st.booleans(),
    unlink=st.booleans(),
    at_head=st.booleans(),
    with_eq=st.booleans(),
)

incoming_headers = st.tuples(
    st.sampled_from([1, 2]),          # nid
    st.sampled_from([1, 2]),          # pid
    st.sampled_from(_BIT_POOL),       # match bits
    st.integers(0, 96),               # length
    st.integers(0, 32),               # offset (MANAGE_REMOTE only)
    st.booleans(),                    # is_put
)


def _build_table(specs, sim):
    """Attach every spec; return (table, ordered shadow list)."""
    table = PortalTable(4)
    ml = table.match_list(0)
    ordered: list[_EntrySpec] = []
    for spec in specs:
        options = MDOptions.OP_PUT
        if spec.allow_get:
            options |= MDOptions.OP_GET
        if spec.truncate:
            options |= MDOptions.TRUNCATE
        if spec.manage_remote:
            options |= MDOptions.MANAGE_REMOTE
        eq = EventQueue(sim, 64) if spec.with_eq else None
        md = md_from_buffer(
            np.zeros(spec.md_size, dtype=np.uint8),
            threshold=PTL_MD_THRESH_INF if spec.threshold < 0 else spec.threshold,
            options=options,
            eq=eq,
            unlink=spec.unlink,
        )
        me = MatchEntry(
            ProcessId(spec.nid, spec.pid),
            spec.match_bits,
            spec.ignore_bits,
            md=md,
            unlink_on_use=spec.unlink,
        )
        # count retirement callbacks — "exactly once" is the invariant
        def _md_cb(s=spec):
            s.md_unlinks += 1

        def _me_cb(s=spec):
            s.me_unlinks += 1

        md.on_unlink = _md_cb
        me.on_unlink = _me_cb
        spec.me = me
        spec.remaining = spec.threshold
        if spec.at_head:
            ml.attach_head(me)
            ordered.insert(0, spec)
        else:
            ml.attach_tail(me)
            ordered.append(spec)
    return table, ordered


def _oracle_first(ordered, src, bits, is_put):
    """Reference walk: earliest linked entry whose criterion + MD accept."""
    for spec in ordered:
        if not spec.me.linked:
            continue
        if not source_match(src, ProcessId(spec.nid, spec.pid)):
            continue
        if not bits_match(bits, spec.match_bits, spec.ignore_bits):
            continue
        if spec.remaining == 0:
            continue
        if not is_put and not spec.allow_get:
            continue
        return spec
    return None


@given(
    specs=st.lists(entry_specs, min_size=1, max_size=6),
    deliveries=st.lists(incoming_headers, min_size=1, max_size=12),
)
def test_match_program_obeys_order_truncation_and_unlink(specs, deliveries):
    sim = Simulator()
    table, ordered = _build_table(specs, sim)
    ml = table.match_list(0)
    for nid, pid, bits, length, offset, is_put in deliveries:
        src = ProcessId(nid, pid)
        hdr = PortalsHeader(
            op=MsgType.PUT if is_put else MsgType.GET,
            src=src,
            dst=ProcessId(0, 0),
            ptl_index=0,
            match_bits=bits,
            length=length,
            offset=offset,
        )
        expected = _oracle_first(ordered, src, bits, is_put)
        result = match_request(table, hdr)

        if expected is None:
            assert result.status is MatchStatus.DROPPED_NO_MATCH
            continue
        assert result.me is expected.me, "matching-order invariant"

        # truncation oracle
        exp_offset = offset if expected.manage_remote else expected.local_offset
        available = max(0, expected.md_size - exp_offset)
        if length <= available:
            exp_mlength = length
        elif expected.truncate:
            exp_mlength = available
        else:
            assert result.status is MatchStatus.DROPPED_NO_SPACE
            # a drop must leave all state untouched
            assert expected.me.linked and expected.me.md.active
            assert expected.md_unlinks == 0 and expected.me_unlinks == 0
            continue
        assert result.matched
        assert result.offset == exp_offset
        assert result.mlength == exp_mlength
        assert result.rlength == length
        assert result.mlength <= length
        # accepted bytes always fit in the space beyond the offset (a
        # zero-length op may "match" at an out-of-range remote offset)
        assert result.mlength <= max(0, expected.md_size - result.offset)

        events = commit_operation(ml, result, hdr, started=True)
        events += commit_operation(ml, result, hdr, started=False)
        expected.unlink_events += sum(
            1 for e in events if e.kind is EventKind.UNLINK
        )

        # shadow state update
        if expected.remaining > 0:
            expected.remaining -= 1
        if not expected.manage_remote:
            expected.local_offset = exp_offset + exp_mlength

        if expected.remaining == 0 and expected.unlink:
            assert not expected.me.md.active
            assert not expected.me.linked
        else:
            assert expected.me.md.active
            assert expected.me.linked

    # exactly-once retirement, across the whole program
    for spec in ordered:
        retired = spec.remaining == 0 and spec.unlink
        assert spec.md_unlinks == (1 if retired else 0)
        assert spec.me_unlinks == (1 if retired else 0)
        # UNLINK posted at most once, and only when an EQ was attached
        assert spec.unlink_events == (1 if retired and spec.with_eq else 0)


# ---------------------------------------------------------------------------
# random EQ programs vs a circular-buffer oracle
# ---------------------------------------------------------------------------

def _mk_event(i: int):
    from repro.portals.events import PortalsEvent

    return PortalsEvent(
        kind=EventKind.PUT_END,
        initiator=ProcessId(1, 1),
        ptl_index=0,
        match_bits=i,
    )


@given(
    size=st.integers(1, 5),
    ops=st.lists(st.sampled_from(["post", "get"]), min_size=1, max_size=40),
)
def test_eq_program_order_and_conservation(size, ops, engine_sim):
    eq = EventQueue(engine_sim, size)
    posted = 0
    reads = 0
    dropped_total = 0
    next_expected = 1  # match_bits of the next event we should read
    for op in ops:
        if op == "post":
            posted += 1
            if eq.pending >= size:
                # will lap the reader: oldest unread is lost
                next_expected += 1
                dropped_total += 1
            eq.post(_mk_event(posted))
        else:
            if eq.dropped:
                with pytest.raises(PtlEQDropped):
                    eq.get()
                continue
            if eq.pending == 0:
                with pytest.raises(PtlEQEmpty):
                    eq.get()
                continue
            event = eq.get()
            assert event.match_bits == next_expected, "post order preserved"
            next_expected += 1
            reads += 1
        assert reads + eq.pending + dropped_total == posted, "conservation"


# ---------------------------------------------------------------------------
# engine-path identity: same program, both scheduler paths, same trace
# ---------------------------------------------------------------------------

_ops = st.one_of(
    st.tuples(st.just("sleep"), st.integers(0, 1000)),
    st.tuples(st.just("put"), st.integers(0, 1), st.integers(0, 99)),
    st.tuples(st.just("get"), st.integers(0, 1)),
    st.tuples(st.just("sput"), st.integers(0, 99)),
    st.tuples(st.just("sget")),
)

programs = st.lists(  # one op-list per process
    st.lists(_ops, min_size=1, max_size=8), min_size=1, max_size=4
)


def _run_program(direct_resume: bool, program):
    """Execute the program; return the (proc, op, time, value) trace."""
    sim = Simulator(direct_resume=direct_resume)
    channels = [Channel(sim), Channel(sim)]
    store = Store(sim, capacity=2)
    trace: list[tuple] = []

    def body(pid, ops):
        for i, op in enumerate(ops):
            kind = op[0]
            if kind == "sleep":
                yield op[1]
                trace.append((pid, i, sim.now, None))
            elif kind == "put":
                channels[op[1]].put(op[2])
                trace.append((pid, i, sim.now, op[2]))
            elif kind == "get":
                value = yield channels[op[1]].get()
                trace.append((pid, i, sim.now, value))
            elif kind == "sput":
                yield store.put(op[1])
                trace.append((pid, i, sim.now, op[1]))
            else:
                value = yield store.get()
                trace.append((pid, i, sim.now, value))

    for pid, ops in enumerate(program):
        sim.process(body(pid, ops), name=f"p{pid}")
    sim.run()
    return trace, sim.now


@given(program=programs)
def test_both_engine_paths_produce_identical_traces(program):
    fast = _run_program(True, program)
    legacy = _run_program(False, program)
    assert fast == legacy


# ---------------------------------------------------------------------------
# bulk-event identity: vectorized chunk trains must be invisible
# ---------------------------------------------------------------------------

# sizes straddling the bulk threshold: single-chunk small messages, and
# multi-chunk transfers where the TX engine can coalesce chunk trains
_BULK_SIZES = [1, 4096, 65536, 262144]


def _sweep_fingerprint(bulk, sizes, trace, metrics, plan_name):
    """Run a pingpong sweep; return (comparable-state, machine)."""
    from repro.faults.plan import named_plan
    from repro.fw.firmware import ExhaustionPolicy
    from repro.hw.dma import RxDmaEngine
    from repro.metrics.export import machine_counters
    from repro.netpipe import NetPipeRunner, PortalsPutModule

    plan = named_plan(plan_name) if plan_name else None
    deposit_plans: list = []
    program = RxDmaEngine.program

    def recording_program(engine, deposit_plan):
        deposit_plans.append(deposit_plan)
        return program(engine, deposit_plan)

    runner = NetPipeRunner(
        PortalsPutModule(),
        repeats=1,
        warmup=1,
        trace=trace,
        metrics=metrics,
        fault_plan=plan,
        policy=(
            ExhaustionPolicy.GO_BACK_N if plan else ExhaustionPolicy.PANIC
        ),
        bulk_events=bulk,
    )
    with mock.patch.object(RxDmaEngine, "program", recording_program):
        series = runner.run("pingpong", sizes)
    machine = runner.machine
    state = {
        "points": series.points,
        "now": machine.sim.now,
        "events": machine.sim.events_scheduled,
        "counters": machine_counters(machine),
        # byte accounting of every receive, bulk-deposited runs included
        "deposits": [
            (p.accept_bytes, p.deposited_bytes, p.discarded_bytes)
            for p in deposit_plans
        ],
    }
    if trace:
        # msg_ids come from a process-global allocator, so back-to-back
        # runs shift them uniformly; compare up to first-seen renaming
        remap: dict = {}
        state["spans"] = [
            (
                s.name, s.node, s.component, s.t0, s.t1,
                None if s.msg_id is None
                else remap.setdefault(s.msg_id, len(remap)),
            )
            for s in machine.tracer.spans
        ]
    if metrics:
        state["metrics"] = machine.metrics.snapshot()
        state["timelines"] = {
            name: (tl.starts, tl.ends)
            for name, tl in machine.metrics.timelines().items()
        }
    return state, machine


class _Materialized:
    """Counts, while active, every payload ``WireChunk`` a
    :class:`MessageTrain` builds, every transmission submitted, and every
    refusal of the TX bulk gate."""

    def __init__(self):
        from repro.hw.dma import TxDmaEngine
        from repro.net.packet import MessageTrain

        self.built: dict = {}  # (train id, index) -> chunks built there
        self.chunks: list = []
        self.transmissions: list = []
        self.refusals = 0
        chunk, submit = MessageTrain.chunk, TxDmaEngine.submit
        ready = TxDmaEngine._bulk_ready

        def counted_chunk(train, i):
            c = chunk(train, i)
            if i > 0:
                key = (id(train), i)
                self.built[key] = self.built.get(key, 0) + 1
                self.chunks.append(c)
            return c

        def counted_submit(engine, tx):
            self.transmissions.append(tx)
            return submit(engine, tx)

        def counted_ready(engine, *args):
            out = ready(engine, *args)
            self.refusals += out is None
            return out

        self._patches = [
            mock.patch.object(MessageTrain, "chunk", counted_chunk),
            mock.patch.object(TxDmaEngine, "submit", counted_submit),
            mock.patch.object(TxDmaEngine, "_bulk_ready", counted_ready),
        ]

    def __enter__(self):
        for p in self._patches:
            p.start()
        return self

    def __exit__(self, *exc):
        for p in reversed(self._patches):
            p.stop()


@given(
    sizes=st.lists(
        st.sampled_from(_BULK_SIZES), min_size=1, max_size=2, unique=True
    ),
    trace=st.booleans(),
    metrics=st.booleans(),
    plan_name=st.sampled_from([None, "fw-crash"]),
)
def test_bulk_events_invisible_under_any_observer_mix(
    sizes, trace, metrics, plan_name
):
    with _Materialized() as mat:
        fast, fast_machine = _sweep_fingerprint(
            True, sizes, trace, metrics, plan_name
        )
    exact, exact_machine = _sweep_fingerprint(
        False, sizes, trace, metrics, plan_name
    )
    assert fast == exact

    # bulk=False must never elide anything...
    assert exact_machine.sim._bulk_extra == 0
    # no payload chunk is ever built twice: a refused bulk gate neither
    # rescans nor rebuilds the message
    assert all(n == 1 for n in mat.built.values())
    trains = [tx.chunks for tx in mat.transmissions]
    messages = sum(len(t) > 1 for t in trains)
    built = len(mat.chunks)
    # ...and with no tracer or fault plan, a multi-chunk sweep must
    # actually engage the bulk path, metrics registry attached or not
    # (guards against the gate silently always falling back to
    # chunk-exact)
    if not trace and plan_name is None and max(sizes) >= 65536:
        assert fast_machine.sim._bulk_extra > 0
        assert fast_machine.sim._seq < exact_machine.sim._seq
        # Chunks are built only where the gate refuses (before the
        # receiver's deposit plan is programmed: a fixed latency, not a
        # share of the message) or where a run or the message ends --
        # O(messages + runs), never O(chunks): a 256-chunk message must
        # not build a chunk per chunk.
        assert built <= mat.refusals + 2 * messages
        assert built <= 16 * messages
    # a tracer or fault plan forces chunk-exact: identical raw heap
    # traffic, and every chunk built exactly once with its own meta (the
    # fault injector's CRC-corrupt flag lives there)
    if trace or plan_name is not None:
        assert fast_machine.sim._bulk_extra == 0
        assert built == sum(len(t) - 1 for t in trains)
        assert len({id(c.meta) for c in mat.chunks}) == built


@given(
    delays=st.lists(st.integers(0, 500), min_size=1, max_size=10),
    until=st.integers(0, 1500),
)
def test_run_until_identical_across_paths(delays, until):
    def clock(sim, log):
        for d in delays:
            yield d
            log.append(sim.now)

    results = []
    for mode in (True, False):
        sim = Simulator(direct_resume=mode)
        log: list[int] = []
        sim.process(clock(sim, log))
        sim.run(until=until)
        results.append((log, sim.now))
    assert results[0] == results[1]
    assert results[0][1] == until  # clock lands exactly on the horizon
