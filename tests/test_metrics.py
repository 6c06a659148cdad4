"""The metrics registry, attribution, and exporters."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.metrics import (
    EXPORT_SCHEMA,
    Gauge,
    Histogram,
    MetricCounter,
    MetricsRegistry,
    Timeline,
    attribute_windows,
    canonical_json,
    format_attribution,
    format_reconciliation,
    machine_counters,
    metrics_document,
    reconcile_with_spans,
    saturating_by_decade,
    to_prometheus_text,
)
from repro.netpipe import NetPipeRunner, PortalsPutModule
from repro.sim import Simulator
from repro.sim.monitor import TimeSeries


class TestInstruments:
    def test_counter_monotonic(self):
        c = MetricCounter("c")
        c.incr()
        c.incr(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.incr(-1)

    def test_gauge_summary_time_weighted(self):
        g = Gauge("g")
        g.sample(0, 10.0)
        g.sample(100, 0.0)
        s = g.summary(until=200)
        assert s["samples"] == 2
        assert s["last"] == 0.0
        assert s["min"] == 0.0 and s["max"] == 10.0
        # 10 held over [0,100), 0 held over [100,200) -> mean 5
        assert s["time_weighted_mean"] == pytest.approx(5.0)

    def test_gauge_empty_summary(self):
        assert Gauge("g").summary() == {"samples": 0}

    def test_timeline_busy_total(self):
        t = Timeline("t")
        t.add(0, 10)
        t.add(20, 25)
        assert t.busy_total() == 15
        assert len(t) == 2

    def test_timeline_busy_between_prorates_edges(self):
        t = Timeline("t")
        t.add(0, 10)
        t.add(20, 30)
        assert t.busy_between(5, 25) == 10  # 5 from each interval
        assert t.busy_between(10, 20) == 0  # gap only
        assert t.busy_between(0, 30) == 20
        assert t.busy_between(30, 30) == 0  # empty window
        assert t.utilization(0, 40) == pytest.approx(0.5)

    def test_timeline_add_run_equals_repeated_add(self):
        run, one = Timeline("run"), Timeline("one")
        run.add(0, 3)
        one.add(0, 3)
        run.add_run(10, 4, 7, 5)
        for k in range(5):
            one.add(10 + 7 * k, 14 + 7 * k)
        assert run.starts == one.starts and run.ends == one.ends
        # back-to-back jobs: length == period leaves no gaps
        run.add_run(50, 6, 6, 3)
        assert run.starts[-3:] == [50, 56, 62] and run.ends[-3:] == [56, 62, 68]

    def test_timeline_add_run_count_zero_is_noop(self):
        t = Timeline("t")
        t.add(0, 5)
        t.add_run(10, 2, 4, 0)
        assert t.starts == [0] and t.ends == [5]

    @pytest.mark.parametrize(
        "length, period, count",
        [(1, 4, -1), (5, 4, 2), (-1, 4, 2), (0, 0, 1)],
    )
    def test_timeline_add_run_rejects_bad_runs(self, length, period, count):
        t = Timeline("t")
        with pytest.raises(ValueError):
            t.add_run(0, length, period, count)
        assert len(t) == 0

    def test_histogram_bucket_edges(self):
        h = Histogram("h", [10, 100])
        h.observe(10)  # le=10 bucket (inclusive upper bound)
        h.observe(11)  # le=100 bucket
        h.observe(1000)  # overflow
        assert h.counts == [1, 1, 1]
        assert h.count == 3
        assert h.sum == pytest.approx(1021)

    def test_histogram_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            Histogram("h", [])
        with pytest.raises(ValueError):
            Histogram("h", [10, 10])
        with pytest.raises(ValueError):
            Histogram("h", [100, 10])


def _busy_between_oracle(starts, ends, w0, w1):
    """Per-interval clipping, the definition the closed form must match."""
    if w1 <= w0:
        return 0
    return sum(
        max(0, min(e, w1) - max(s, w0)) for s, e in zip(starts, ends)
    )


@st.composite
def _sorted_intervals(draw):
    """Intervals whose starts and ends are each nondecreasing (they may
    overlap, zero-length ones included)."""
    starts = sorted(draw(st.lists(st.integers(0, 200), max_size=12)))
    ends, last = [], 0
    for s in starts:
        last = max(last, s + draw(st.integers(0, 40)))
        ends.append(last)
    return starts, ends


@given(
    intervals=_sorted_intervals(),
    w0=st.integers(-20, 260),
    w1=st.integers(-20, 260),
)
def test_busy_between_closed_form_matches_loop(intervals, w0, w1):
    starts, ends = intervals
    t = Timeline("t")
    for s, e in zip(starts, ends):
        t.add(s, e)
    assert t.busy_between(w0, w1) == _busy_between_oracle(starts, ends, w0, w1)


class TestTimeWeightedStats:
    def test_integral_empty(self):
        assert TimeSeries("s").integral() == 0.0

    def test_mean_empty_raises(self):
        with pytest.raises(ValueError):
            TimeSeries("s").time_weighted_mean()

    def test_single_sample(self):
        s = TimeSeries("s")
        s.sample(50, 7.0)
        # no span yet: integral 0, mean degenerates to the sample value
        assert s.integral() == 0.0
        assert s.time_weighted_mean() == 7.0
        # extended to until: value held for the whole span
        assert s.integral(until=150) == pytest.approx(700.0)
        assert s.time_weighted_mean(until=150) == pytest.approx(7.0)

    def test_step_series(self):
        s = TimeSeries("s")
        s.sample(0, 0.0)
        s.sample(10, 4.0)
        s.sample(30, 1.0)
        # 0*10 + 4*20 + (last value contributes nothing without until)
        assert s.integral() == pytest.approx(80.0)
        assert s.time_weighted_mean() == pytest.approx(80.0 / 30)
        assert s.integral(until=40) == pytest.approx(90.0)
        assert s.time_weighted_mean(until=40) == pytest.approx(90.0 / 40)

    def test_sample_mean_is_still_sample_mean(self):
        s = TimeSeries("s")
        s.sample(0, 0.0)
        s.sample(1, 0.0)
        s.sample(1000, 3.0)
        assert s.mean == pytest.approx(1.0)  # not time-weighted


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry(Simulator())
        assert reg.counter("a") is reg.counter("a")
        assert reg.timeline("t") is reg.timeline("t")

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry(Simulator())
        reg.counter("a")
        with pytest.raises(TypeError):
            reg.gauge("a")

    def test_histogram_edge_mismatch_rejected(self):
        reg = MetricsRegistry(Simulator())
        reg.histogram("h", [1, 2])
        with pytest.raises(ValueError):
            reg.histogram("h", [1, 2, 3])

    def test_snapshot_shape(self):
        sim = Simulator()
        reg = MetricsRegistry(sim)
        reg.counter("c").incr(3)
        reg.gauge("g").sample(0, 1.0)
        reg.timeline("t.busy").add(0, 5)
        reg.histogram("h", [10]).observe(4)
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 3}
        assert snap["gauges"]["g"]["samples"] == 1
        assert snap["timelines"]["t.busy"]["busy_ps"] == 5
        assert snap["histograms"]["h"]["counts"] == [1, 0]
        assert snap["now_ps"] == sim.now


class TestMachineIntegration:
    @pytest.fixture(scope="class")
    def run(self):
        runner = NetPipeRunner(PortalsPutModule(), metrics=True, trace=True)
        series = runner.run("pingpong", [1, 64, 4096, 65536])
        return runner, series

    def test_disabled_mode_identity(self, run):
        _, with_metrics = run
        plain = NetPipeRunner(PortalsPutModule()).run(
            "pingpong", [1, 64, 4096, 65536]
        )
        assert [(p.nbytes, p.total_ps) for p in plain.points] == [
            (p.nbytes, p.total_ps) for p in with_metrics.points
        ]

    def test_attribution_reproduces_paper_narrative(self, run):
        runner, _ = run
        rows = attribute_windows(runner.machine.metrics, runner.windows)
        assert [r.nbytes for r in rows] == [1, 64, 4096, 65536]
        by_size = {r.nbytes: r for r in rows}
        # small messages: host (interrupt/app) dominated
        assert by_size[1].saturating == "host"
        # large messages: the TX DMA engine is the ceiling
        assert by_size[65536].saturating == "txdma"
        for row in rows:
            assert 0.0 < row.saturating_utilization <= 1.0
            assert row.window_ps > 0

    def test_saturating_by_decade(self, run):
        runner, _ = run
        rows = attribute_windows(runner.machine.metrics, runner.windows)
        verdicts = saturating_by_decade(rows)
        assert verdicts[0] == "host"
        assert verdicts[4] == "txdma"

    def test_reconciliation_within_tolerance(self, run):
        runner, _ = run
        rows = reconcile_with_spans(runner.machine, tolerance=0.05)
        assert rows, "reconciliation produced no rows"
        components = {r.component for r in rows}
        assert {"txdma", "rxdma", "fw", "wire"} <= components
        for row in rows:
            assert row.ok, f"{row.component} node {row.node}: {row.delta_frac:.2%}"

    def test_format_tables_render(self, run):
        runner, _ = run
        rows = attribute_windows(runner.machine.metrics, runner.windows)
        table = format_attribution(rows)
        assert "txdma" in table and "*" in table
        rec = format_reconciliation(reconcile_with_spans(runner.machine))
        assert "yes" in rec and "NO" not in rec

    def test_export_document(self, run):
        runner, _ = run
        machine = runner.machine
        rows = attribute_windows(machine.metrics, runner.windows)
        doc = metrics_document(
            machine.metrics,
            machine=machine,
            attribution=rows,
            reconciliation=reconcile_with_spans(machine),
            meta={"module": "put"},
        )
        assert doc["schema"] == EXPORT_SCHEMA
        assert doc["meta"] == {"module": "put"}
        # registry timelines and legacy component counters both present
        assert "node0.txdma.busy" in doc["timelines"]
        assert any(k.startswith("node0.host.") for k in doc["counters"])
        assert len(doc["attribution"]) == 4
        assert all(r["ok"] for r in doc["reconciliation"])
        # canonical JSON round-trips
        assert json.loads(canonical_json(doc)) == doc

    def test_prometheus_text(self, run):
        runner, _ = run
        doc = metrics_document(runner.machine.metrics, machine=runner.machine)
        text = to_prometheus_text(doc)
        assert "# TYPE repro_node0_txdma_busy_ps_total counter" in text
        assert "repro_node0_txdma_msg_bytes_bucket{le=" in text
        assert 'le="+Inf"' in text
        # every metric name is Prometheus-legal
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            name = line.split("{")[0].split(" ")[0]
            assert name.replace("_", "a").isalnum(), name

    def test_machine_counters_namespacing(self, run):
        runner, _ = run
        flat = machine_counters(runner.machine)
        assert "link.packets_carried" in flat
        assert any(k.startswith("fabric.") for k in flat)
        assert any(k.startswith("node1.fw.") for k in flat)

    def test_attribution_requires_metrics(self):
        reg = MetricsRegistry(Simulator())
        with pytest.raises(ValueError, match="metrics enabled"):
            attribute_windows(reg, [(1, 0, 10)])


def _parse_prom_labels(block: str) -> dict:
    """Tiny exposition-format label parser: the inverse of the exporter's
    escaping, so a round-trip proves the escapes are correct."""
    labels = {}
    i = 0
    while i < len(block):
        eq = block.index("=", i)
        key = block[i:eq]
        assert block[eq + 1] == '"'
        j = eq + 2
        out = []
        while block[j] != '"':
            ch = block[j]
            if ch == "\\":
                esc = block[j + 1]
                out.append({"\\": "\\", '"': '"', "n": "\n"}[esc])
                j += 2
            else:
                out.append(ch)
                j += 1
        labels[key] = "".join(out)
        i = j + 1
        if i < len(block) and block[i] == ",":
            i += 1
    return labels


class TestPrometheusExposition:
    """The text exporter against hostile values: label escaping must
    round-trip, NaN must spell ``NaN``, and every histogram must close
    with a ``+Inf`` bucket equal to ``_count``."""

    def test_hostile_label_values_round_trip(self):
        hostile = {
            "path": 'C:\\temp\\"quoted"',
            "multiline": "line one\nline two",
            "trailing_backslash": "ends with \\",
            "literal_backslash_n": "not a newline: \\n",
            "plain": "ok",
        }
        doc = {"schema": EXPORT_SCHEMA, "meta": hostile}
        text = to_prometheus_text(doc)
        line = next(
            ln for ln in text.splitlines()
            if ln.startswith("repro_meta_info{")
        )
        # one physical line: the newline inside a value must be escaped
        block = line[len("repro_meta_info{"): line.rindex("}")]
        assert _parse_prom_labels(block) == hostile

    def test_nan_and_inf_render_canonically(self):
        doc = {
            "schema": EXPORT_SCHEMA,
            "gauges": {
                "weird": {
                    "samples": 3,
                    "last": float("nan"),
                    "time_weighted_mean": float("inf"),
                },
            },
        }
        text = to_prometheus_text(doc)
        assert "repro_weird NaN" in text
        assert "repro_weird_time_weighted_mean +Inf" in text
        # Python float spellings are not legal exposition values
        assert "nan" not in text and "inf" not in text

    def test_histogram_closes_with_inf_bucket(self):
        doc = {
            "schema": EXPORT_SCHEMA,
            "histograms": {
                "lat": {
                    "edges": [1.0, 2.0],
                    "counts": [1, 2, 3],  # overflow slot included
                    "count": 6,
                    "sum": 11.5,
                },
            },
        }
        text = to_prometheus_text(doc)
        assert 'repro_lat_bucket{le="1.0"} 1' in text
        assert 'repro_lat_bucket{le="2.0"} 3' in text
        assert 'repro_lat_bucket{le="+Inf"} 6' in text
        assert "repro_lat_count 6" in text

    def test_explicit_inf_edge_not_duplicated(self):
        doc = {
            "schema": EXPORT_SCHEMA,
            "histograms": {
                "lat": {
                    "edges": [1.0, float("inf")],
                    "counts": [1, 2, 0],
                    "count": 3,
                    "sum": 2.5,
                },
            },
        }
        text = to_prometheus_text(doc)
        assert text.count('le="+Inf"') == 1
        assert 'repro_lat_bucket{le="+Inf"} 3' in text
