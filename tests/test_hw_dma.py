"""DMA engines: TX serialization, RX plans, truncation, stalls."""

import numpy as np
import pytest

from repro.hw.config import SeaStarConfig
from repro.hw.dma import DepositPlan, RxDmaEngine, Transmission, TxDmaEngine
from repro.net import Fabric, Torus3D, chunk_message
from repro.sim import NS, Simulator


@pytest.fixture
def rig(sim):
    cfg = SeaStarConfig()
    fabric = Fabric(sim, Torus3D((2, 1, 1), wrap=(False,) * 3), cfg)
    fabric.attach(0)
    port1 = fabric.attach(1)
    tx = TxDmaEngine(sim, cfg, fabric, node_id=0)
    headers = []
    rx = RxDmaEngine(sim, cfg, port1, on_header=headers.append)
    return cfg, fabric, tx, rx, headers


def make_tx(cfg, payload, on_sent, dst=1, body=None):
    body = len(payload) if body is None and payload is not None else (body or 0)
    chunks = chunk_message(
        src=0,
        dst=dst,
        header="H",
        body_bytes=body,
        payload=payload,
        packet_bytes=cfg.packet_bytes,
        chunk_bytes=cfg.chunk_bytes,
    )
    return Transmission(chunks=chunks, on_sent=on_sent)


class TestTxEngine:
    def test_rejects_empty_transmission(self, rig):
        cfg, fabric, tx, rx, _ = rig
        with pytest.raises(ValueError):
            tx.submit(Transmission(chunks=[], on_sent=lambda t: None))

    def test_on_sent_called_after_last_chunk(self, rig, sim):
        cfg, fabric, tx, rx, _ = rig
        sent = []
        payload = np.zeros(10000, dtype=np.uint8)
        t = make_tx(cfg, payload, lambda tr: sent.append(sim.now))
        tx.submit(t)
        rx.program(
            DepositPlan(
                msg_id=t.chunks[0].msg_id,
                dest=None,
                accept_bytes=0,
                on_complete=lambda p: None,
            )
        )
        sim.run()
        assert sent and t.finished_at == sent[0]
        assert t.started_at is not None and t.finished_at > t.started_at

    def test_transmits_serialize_in_order(self, rig, sim):
        """All transmits go through a single TX FIFO (section 4.3)."""
        cfg, fabric, tx, rx, headers = rig
        done = []
        for i in range(5):
            t = make_tx(cfg, None, lambda tr, i=i: done.append(i), body=0)
            tx.submit(t)
        sim.run()
        assert done == [0, 1, 2, 3, 4]
        assert [h.header for h in headers] == ["H"] * 5

    def test_packet_cost_dominates_duration(self, rig, sim):
        cfg, fabric, tx, rx, _ = rig
        payload = np.zeros(64 * 100, dtype=np.uint8)  # 100 packets
        t = make_tx(cfg, payload, lambda tr: None)
        rx.program(
            DepositPlan(
                msg_id=t.chunks[0].msg_id,
                dest=None,
                accept_bytes=0,
                on_complete=lambda p: None,
            )
        )
        tx.submit(t)
        sim.run()
        min_cost = 101 * cfg.tx_dma_per_packet  # header + 100 payload packets
        assert t.finished_at - t.started_at >= min_cost

    def test_counters(self, rig, sim):
        cfg, fabric, tx, rx, _ = rig
        t = make_tx(cfg, None, lambda tr: None, body=0)
        tx.submit(t)
        sim.run()
        assert tx.counters["messages"] == 1
        assert tx.counters["packets"] == 1


class TestRxEngine:
    def test_header_handed_to_firmware(self, rig, sim):
        cfg, fabric, tx, rx, headers = rig
        t = make_tx(cfg, None, lambda tr: None, body=0)
        tx.submit(t)
        sim.run()
        assert len(headers) == 1 and headers[0].is_header

    def test_deposit_copies_payload(self, rig, sim):
        cfg, fabric, tx, rx, _ = rig
        payload = (np.arange(10000) % 256).astype(np.uint8)
        dest = np.zeros(10000, dtype=np.uint8)
        done = []
        t = make_tx(cfg, payload, lambda tr: None)
        rx.program(
            DepositPlan(
                msg_id=t.chunks[0].msg_id,
                dest=dest,
                accept_bytes=10000,
                on_complete=lambda p: done.append(p),
            )
        )
        tx.submit(t)
        sim.run()
        assert done and done[0].deposited_bytes == 10000
        assert np.array_equal(dest, payload)

    def test_truncation_discards_tail(self, rig, sim):
        cfg, fabric, tx, rx, _ = rig
        payload = (np.arange(8192) % 256).astype(np.uint8)
        dest = np.zeros(1000, dtype=np.uint8)
        done = []
        t = make_tx(cfg, payload, lambda tr: None)
        rx.program(
            DepositPlan(
                msg_id=t.chunks[0].msg_id,
                dest=dest,
                accept_bytes=1000,
                on_complete=lambda p: done.append(p),
            )
        )
        tx.submit(t)
        sim.run()
        plan = done[0]
        assert plan.deposited_bytes == 1000
        assert plan.discarded_bytes == 8192 - 1000
        assert np.array_equal(dest, payload[:1000])

    @pytest.mark.parametrize("run", [(1, 3), (2, 4), (1, 4)])
    @pytest.mark.parametrize("accept", [0, 1500, 2048, 10000])
    @pytest.mark.parametrize("with_dest", [True, False])
    @pytest.mark.parametrize("with_payload", [True, False])
    def test_range_deposit_equals_per_chunk_deposits(
        self, rig, run, accept, with_dest, with_payload
    ):
        """One deposit over a run of chunks == those chunks deposited one
        by one: accept_bytes at 0, mid-chunk, on a chunk boundary, and
        beyond the body (2500 B body: two 1 KB chunks and a tail)."""
        cfg, fabric, tx, rx, _ = rig
        body = 2500
        payload = (
            (np.arange(body) % 251).astype(np.uint8) if with_payload else None
        )
        train = chunk_message(
            src=0, dst=1, header="H", body_bytes=body, payload=payload,
            packet_bytes=cfg.packet_bytes, chunk_bytes=cfg.chunk_bytes,
        )
        assert cfg.chunk_bytes == 1024 and len(train) == 4

        def plan():
            return DepositPlan(
                msg_id=train.msg_id,
                dest=np.zeros(body, np.uint8) if with_dest else None,
                accept_bytes=accept,
                on_complete=lambda p: None,
            )

        per_chunk, ranged = plan(), plan()
        for i in range(*run):
            c = train[i]
            rx._deposit(per_chunk, c.payload_offset, c.nbytes, c.payload)
        offset, nbytes = train.body_range(*run)
        data = payload[offset : offset + nbytes] if with_payload else None
        rx._deposit(ranged, offset, nbytes, data)
        assert ranged.deposited_bytes == per_chunk.deposited_bytes
        assert ranged.discarded_bytes == per_chunk.discarded_bytes
        assert ranged.deposited_bytes + ranged.discarded_bytes == nbytes
        if with_dest:
            assert np.array_equal(ranged.dest, per_chunk.dest)

    def test_stall_until_programmed(self, rig, sim):
        """Payload chunks head-of-line block until the firmware programs
        the deposit (the generic-mode latency mechanism)."""
        cfg, fabric, tx, rx, _ = rig
        payload = np.zeros(4096, dtype=np.uint8)
        dest = np.zeros(4096, dtype=np.uint8)
        done = []
        t = make_tx(cfg, payload, lambda tr: None)

        def program_late():
            yield sim.timeout(50_000 * NS)
            rx.program(
                DepositPlan(
                    msg_id=t.chunks[0].msg_id,
                    dest=dest,
                    accept_bytes=4096,
                    on_complete=lambda p: done.append(sim.now),
                )
            )

        tx.submit(t)
        sim.process(program_late())
        sim.run()
        assert rx.counters["stalls"] == 1
        assert done[0] >= 50_000 * NS

    def test_double_program_rejected(self, rig):
        cfg, fabric, tx, rx, _ = rig
        plan = DepositPlan(msg_id=7, dest=None, accept_bytes=0, on_complete=lambda p: None)
        rx.program(plan)
        with pytest.raises(ValueError):
            rx.program(
                DepositPlan(msg_id=7, dest=None, accept_bytes=0, on_complete=lambda p: None)
            )

    def test_interleaved_messages_from_two_sources(self, sim):
        """The RX engine de-multiplexes concurrent streams by msg id."""
        cfg = SeaStarConfig()
        fabric = Fabric(sim, Torus3D((3, 1, 1), wrap=(False,) * 3), cfg)
        fabric.attach(0)
        fabric.attach(2)
        port1 = fabric.attach(1)
        rx = RxDmaEngine(sim, cfg, port1, on_header=lambda c: None)
        tx0 = TxDmaEngine(sim, cfg, fabric, node_id=0)
        tx2 = TxDmaEngine(sim, cfg, fabric, node_id=2)
        pay0 = np.full(20000, 1, np.uint8)
        pay2 = np.full(20000, 2, np.uint8)
        dst0 = np.zeros(20000, np.uint8)
        dst2 = np.zeros(20000, np.uint8)
        done = []

        def mk(txe, src, pay, dst_buf):
            chunks = chunk_message(
                src=src, dst=1, header="H", body_bytes=len(pay), payload=pay,
                packet_bytes=cfg.packet_bytes, chunk_bytes=cfg.chunk_bytes,
            )
            t = Transmission(chunks=chunks, on_sent=lambda tr: None)
            rx.program(
                DepositPlan(
                    msg_id=chunks[0].msg_id, dest=dst_buf,
                    accept_bytes=len(pay), on_complete=lambda p: done.append(p),
                )
            )
            txe.submit(t)

        mk(tx0, 0, pay0, dst0)
        mk(tx2, 2, pay2, dst2)
        sim.run()
        assert len(done) == 2
        assert np.array_equal(dst0, pay0)
        assert np.array_equal(dst2, pay2)
