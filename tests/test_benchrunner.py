"""The benchmark orchestrator: discovery, pool determinism, the golden
comparator, and the parseable bench report file.

The load-bearing properties:

* sharding is sound — per-size measurements are independent of what
  else ran in the same process, so a sharded union equals a single
  serial sweep;
* the worker pool changes wall-clock only — simulated results from a
  pooled run are byte-identical to the serial reference;
* the comparator is airtight at its default (bit-identical) policy —
  it passes on identical input and flags a seeded ±1% perturbation.
"""

from __future__ import annotations

import copy
import gc
import json
import random
import tracemalloc
from pathlib import Path

import pytest

from repro.benchrunner import (
    SPECS,
    Tolerance,
    canonical_json,
    compare_results,
    discover_shards,
    execute_shard,
    format_compare_table,
    format_run_summary,
    load_golden_dir,
    parse_report_file,
    run_bench,
    simulated_json,
    update_golden,
)
from repro.benchrunner.discovery import Shard, spec_sizes
from repro.cli import main
from repro.netpipe import PortalsPutModule, run_series

FILTER = "fig4/put"  # small, fast shard set reused across tests


@pytest.fixture(scope="module")
def fig4_put_results():
    return run_bench(fast=True, workers=1, filter=FILTER)


# -- discovery --------------------------------------------------------------


def test_discovery_covers_every_spec():
    shards = discover_shards(fast=True)
    specs_seen = {s.spec for s in shards}
    assert specs_seen == set(SPECS)
    ids = [s.shard_id for s in shards]
    assert len(ids) == len(set(ids)), "shard ids must be unique"


def test_discovery_figures_shard_by_module_and_decade():
    shards = [s for s in discover_shards(fast=True) if s.spec == "fig5"]
    variants = {s.variant for s in shards}
    assert variants == {"put", "get", "mpich1", "mpich2"}
    put = [s for s in shards if s.variant == "put"]
    assert len(put) > 1, "an 8 MB sweep must split into several decades"
    merged = sorted(n for s in put for n in s.sizes)
    assert merged == spec_sizes(SPECS["fig5"], fast=True)


def test_discovery_fig4_keeps_piggyback_boundary_in_fast_mode():
    sizes = spec_sizes(SPECS["fig4"], fast=True)
    assert 12 in sizes and 13 in sizes


def test_discovery_filter():
    shards = discover_shards(fast=True, filter="fig4/put")
    assert shards and all("fig4/put" in s.shard_id for s in shards)
    with pytest.raises(ValueError):
        run_bench(fast=True, filter="no-such-shard")


# -- shard soundness --------------------------------------------------------


def test_sharded_union_equals_serial_sweep():
    """The decade decomposition reproduces a single-run sweep exactly."""
    sizes = spec_sizes(SPECS["fig4"], fast=True)
    reference = run_series(PortalsPutModule(), "pingpong", sizes)
    shards = discover_shards(fast=True, filter="fig4/put")
    merged = []
    for shard in shards:
        result = execute_shard(shard)
        assert result.series is not None
        merged.extend(
            zip(result.series.sizes, result.series.total_ps)
        )
    merged.sort()
    assert merged == [(p.nbytes, p.total_ps) for p in reference.points]


@pytest.mark.parametrize(
    "shard_id,stats",
    [("fig5/mpich2/d0", False), ("fig5/put/d6", False), ("fig5/put/d6", True)],
)
def test_figure_shard_frees_its_buffers_without_the_collector(shard_id, stats):
    """A finished machine is a web of reference cycles that only a full
    cyclic collection frees: with the collector off, ~3 MB of its own
    objects stay.  Its buffers must not stay with it.  mpich2's eight
    4 MB unexpected-message buffers (held by MDs), the put endpoints'
    four 8 MB buffers (held by the engines' last message and recycled
    pendings) and a stats run's ~28 MB of busy intervals are all freed
    by reference counting when the shard ends."""
    (shard,) = discover_shards(fast=True, filter=shard_id)
    execute_shard(shard, stats=stats)  # first-run imports and caches
    was_tracing = tracemalloc.is_tracing()
    gc.collect()
    gc.disable()
    try:
        if not was_tracing:
            tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        execute_shard(shard, stats=stats)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
        gc.enable()
    assert retained < 6 << 20


def test_pool_results_byte_identical_to_serial(fig4_put_results):
    pooled = run_bench(fast=True, workers=2, filter=FILTER)
    assert simulated_json(pooled) == simulated_json(fig4_put_results)


def test_results_document_shape(fig4_put_results):
    doc = fig4_put_results
    assert doc["schema"] == "repro-bench/1"
    assert doc["mode"] == "fast"
    var = doc["figures"]["fig4"]["variants"]["put"]
    assert var["series"]["sizes"] == sorted(var["series"]["sizes"])
    assert all(isinstance(t, int) for t in var["series"]["total_ps"])
    assert var["metrics"]["latency_1b_us"] == pytest.approx(5.39, rel=0.1)
    assert var["metrics"]["piggyback_step_us"] > 2.0
    assert doc["wallclock"]["shards"], "per-shard wall clock recorded"


def test_canonical_json_is_stable():
    assert canonical_json({"b": 1, "a": [2, 1]}) == canonical_json(
        {"a": [2, 1], "b": 1}
    )
    assert canonical_json({"x": 1.5}).endswith("\n")


# -- comparator -------------------------------------------------------------


def test_comparator_passes_on_identical_input(tmp_path, fig4_put_results):
    update_golden(fig4_put_results, tmp_path)
    goldens = load_golden_dir(tmp_path)
    report = compare_results(copy.deepcopy(fig4_put_results), goldens)
    assert report.ok
    assert report.compared > 0
    assert "PASS" in format_compare_table(report)


def test_comparator_detects_seeded_latency_perturbation(
    tmp_path, fig4_put_results
):
    """A ±1% perturbation of the simulated times must gate the run."""
    update_golden(fig4_put_results, tmp_path)
    goldens = load_golden_dir(tmp_path)
    perturbed = copy.deepcopy(fig4_put_results)
    rng = random.Random(42)
    var = perturbed["figures"]["fig4"]["variants"]["put"]
    var["series"]["total_ps"] = [
        round(t * (1.0 + rng.uniform(-0.01, 0.01)))
        for t in var["series"]["total_ps"]
    ]
    var["metrics"]["latency_1b_us"] *= 1.01
    report = compare_results(perturbed, goldens)
    assert not report.ok
    whats = {d.what for d in report.drifts}
    assert "latency_1b_us" in whats
    assert any(w.startswith("series[") for w in whats)
    table = format_compare_table(report)
    assert "FAIL" in table and "latency_1b_us" in table


def test_comparator_default_policy_is_bit_identical(tmp_path, fig4_put_results):
    """Even a one-ulp-scale metric change counts as drift by default."""
    update_golden(fig4_put_results, tmp_path)
    perturbed = copy.deepcopy(fig4_put_results)
    var = perturbed["figures"]["fig4"]["variants"]["put"]
    var["metrics"]["latency_1b_us"] += 1e-9
    report = compare_results(perturbed, load_golden_dir(tmp_path))
    assert not report.ok


def test_comparator_tolerances_relax_named_metrics(tmp_path, fig4_put_results):
    update_golden(fig4_put_results, tmp_path)
    perturbed = copy.deepcopy(fig4_put_results)
    var = perturbed["figures"]["fig4"]["variants"]["put"]
    var["metrics"]["latency_1b_us"] *= 1.01
    report = compare_results(
        perturbed,
        load_golden_dir(tmp_path),
        tolerances={"latency_1b_us": Tolerance(rel=0.05)},
    )
    assert report.ok


def test_comparator_flags_missing_figure_and_grid_change(
    tmp_path, fig4_put_results
):
    update_golden(fig4_put_results, tmp_path)
    goldens = load_golden_dir(tmp_path)

    empty = copy.deepcopy(fig4_put_results)
    empty["figures"] = {}
    assert not compare_results(empty, goldens).ok

    regrid = copy.deepcopy(fig4_put_results)
    series = regrid["figures"]["fig4"]["variants"]["put"]["series"]
    series["sizes"] = [n + 1 for n in series["sizes"]]
    report = compare_results(regrid, goldens)
    assert any("grid changed" in d.what for d in report.drifts)


def test_comparator_rejects_mode_mismatch(tmp_path, fig4_put_results):
    update_golden(fig4_put_results, tmp_path)
    other = copy.deepcopy(fig4_put_results)
    other["mode"] = "full"
    report = compare_results(other, load_golden_dir(tmp_path))
    assert any("mode" in d.what for d in report.drifts)


def test_committed_goldens_match_schema():
    """Every golden in the repo loads and names a known spec."""
    golden_dir = Path(__file__).resolve().parent.parent / "benchmarks" / "golden"
    goldens = load_golden_dir(golden_dir)
    assert set(goldens) == set(SPECS)
    for name, doc in goldens.items():
        assert doc["mode"] == "fast"
        assert doc["variants"], name


# -- CLI --------------------------------------------------------------------


def test_cli_bench_gate_roundtrip(tmp_path, capsys):
    out = tmp_path / "BENCH_results.json"
    golden = tmp_path / "golden"
    assert (
        main(
            [
                "bench", "--fast", "--filter", FILTER, "--quiet",
                "--out", str(out), "--compare", str(golden), "--update-golden",
            ]
        )
        == 0
    )
    assert out.exists() and golden.is_dir()
    diff = tmp_path / "diff.txt"
    assert (
        main(
            [
                "bench", "--fast", "--filter", FILTER, "--quiet",
                "--out", str(out), "--compare", str(golden),
                "--diff-file", str(diff),
            ]
        )
        == 0
    )
    assert "PASS" in diff.read_text()

    # poison one golden metric: the gate must exit nonzero
    poisoned = json.loads((golden / "fig4.json").read_text())
    poisoned["variants"]["put"]["metrics"]["latency_1b_us"] *= 1.01
    (golden / "fig4.json").write_text(canonical_json(poisoned))
    assert (
        main(
            [
                "bench", "--fast", "--filter", FILTER, "--quiet",
                "--out", str(out), "--compare", str(golden),
                "--diff-file", str(diff),
            ]
        )
        == 1
    )
    assert "FAIL" in diff.read_text()
    capsys.readouterr()


def test_cli_bench_list(capsys):
    assert main(["bench", "--fast", "--list"]) == 0
    out = capsys.readouterr().out
    assert "fig4/put/d0" in out and "inline_sram" in out


# -- run summary / report file ----------------------------------------------


def test_run_summary_mentions_paper_anchors(fig4_put_results):
    text = format_run_summary(fig4_put_results)
    assert "latency_1b_us" in text
    assert "paper 5.39" in text
    assert "wall-clock" in text


def test_conftest_report_file_roundtrip(tmp_path, monkeypatch):
    """The bench report file survives capture and parses back."""
    from benchmarks import conftest as bench_conftest

    monkeypatch.setattr(bench_conftest, "_REPORT_LINES", [])
    monkeypatch.setattr(bench_conftest, "_REPORT_PATH", None)
    monkeypatch.setenv("REPRO_BENCH_REPORT", str(tmp_path / "report.txt"))

    series = run_series(PortalsPutModule(), "pingpong", [1, 2, 4])
    bench_conftest.print_series_table("Figure X: demo", [series], latency=True)
    bench_conftest.print_anchor("put @1B", 5.39, 5.382, "us")
    bench_conftest.print_anchor("unanchored", 0, 1.25, "MB/s")
    path = bench_conftest.write_report_file()
    assert path is not None and path.exists()

    doc = parse_report_file(path)
    table = doc["tables"]["Figure X: demo"]
    assert table["header"][0] == "bytes"
    assert [row[0] for row in table["rows"]] == ["1", "2", "4"]
    anchors = {a["name"]: a for a in doc["anchors"]}
    assert anchors["put @1B"]["paper"] == pytest.approx(5.39)
    # the report renders 2 decimal places
    assert anchors["put @1B"]["measured"] == pytest.approx(5.382, abs=0.01)
    assert anchors["unanchored"]["paper"] is None


def test_shard_id_formats():
    assert Shard(spec="fig5", variant="put", chunk=3).shard_id == "fig5/put/d3"
    assert Shard(spec="inline_sram", variant="default", chunk=-1).shard_id == (
        "inline_sram"
    )
