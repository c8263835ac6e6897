"""Tests of the benchmark's own code: span arithmetic, tracing, input
generation and output checks.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
from spans import ITEM, MAP, Span, Tracer  # noqa: E402


def _span(sid, parent, start, end, thread=1, name="f"):
    return Span(sid, name, 0, parent, thread, start, end, 0.0)


def test_self_time_counts_overlapping_thread_children_once():
    parent = _span(0, None, 0.0, 10.0, thread=1)
    a = _span(1, 0, 1.0, 5.0, thread=2)
    b = _span(2, 0, 3.0, 8.0, thread=3)       # overlaps a on another thread
    late = _span(3, 0, 9.0, 12.0, thread=2)   # clipped to the parent's end
    grandchild = _span(4, 1, 2.0, 4.0, thread=2)
    selfs = spans.self_times([parent, a, b, late, grandchild])
    assert selfs[0] == 10.0 - (7.0 + 1.0)
    assert selfs[1] == 4.0 - 2.0
    assert selfs[2] == 5.0
    assert spans.union_length([(0, 1), (0.5, 2), (3, 4)]) == 3.0
    assert spans.union_length([]) == 0.0


def test_pool_items_are_children_of_the_map_span():
    tracer = Tracer()

    def pool_map(fn, items):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(fn, items))

    barrier = threading.Barrier(2)

    def work(x):
        barrier.wait(timeout=10)  # both items run at once, on two threads
        return tracer.call("leaf", lambda: x * 2, (), {})

    assert tracer.call(MAP, pool_map, (work, [1, 2]), {}) == [2, 4]
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (map_span,) = by_name[MAP]
    items = by_name[ITEM]
    assert len(items) == 2 and all(s.parent == map_span.id for s in items)
    assert len({s.thread for s in items}) == 2
    assert {s.parent for s in by_name["leaf"]} == {s.id for s in items}
    table = spans.function_table(tracer.spans)
    assert table[MAP]["items"] == 2
    assert table[MAP]["self_s"] <= table[MAP]["wall_s"]


def test_absent_names_are_recorded_and_present_ones_rebound():
    import pdbpe.bpe
    import pdbpe.pipeline
    original = pdbpe.bpe.fit_bpe
    tracer = Tracer()
    tracer.install({"bpe": ("fit_bpe", "no_such_function"),
                    "no_such_module": ("anything",)})
    try:
        assert tracer.absent == ["bpe.no_such_function", "no_such_module.anything"]
        assert pdbpe.pipeline.fit_bpe is pdbpe.bpe.fit_bpe is not original
        pdbpe.pipeline.fit_bpe([[0, 1, 0, 1]], 2, P=0.0, U=0.0)
    finally:
        tracer.uninstall()
    assert pdbpe.pipeline.fit_bpe is original and pdbpe.bpe.fit_bpe is original
    (span,) = tracer.spans
    assert span.name == "bpe.fit_bpe"
    assert span.counts == {"merges": 2, "tokens_in": 4, "tokens_out": 1}
    values = spans.layer_values(spans.function_table(tracer.spans))
    assert values["bpe.merges"] == 2 and values["data_io.read_data_csv.wall_s"] == 0


def test_a_failed_count_is_a_trace_error_not_a_zero():
    tracer = Tracer()
    # A fit_bpe whose result no longer has rules: the call succeeds, but
    # its counts cannot be taken.
    for _ in range(2):
        assert tracer.call("bpe.fit_bpe", lambda corpus: 42, ([[0, 1]],), {}) == 42
    assert tracer.counter_failures["bpe.fit_bpe"]["calls"] == 2
    assert "AttributeError" in tracer.counter_failures["bpe.fit_bpe"]["error"]
    table = spans.function_table(tracer.spans)
    assert table["bpe.fit_bpe"]["errors"] == 0
    assert spans.trace_errors(table, tracer.counter_failures) == 2


def test_same_seed_gives_same_inputs(tmp_path):
    small = dataclasses.replace(wl.WORKLOADS["multichannel_cv"], series=12,
                                heldout=4, samples=40)
    a, b = wl.generate(small, 3), wl.generate(small, 3)
    assert all(np.array_equal(a[k], b[k]) for k in a)
    assert not np.array_equal(a["values"], wl.generate(small, 4)["values"])
    info = wl.prepare(small, 3, str(tmp_path / "one"))
    wl.prepare(small, 3, str(tmp_path / "two"))
    for name in (wl.TRAIN_CSV, wl.HELDOUT_CSV, wl.LABELS_CSV):
        assert checks.sha256(str(tmp_path / "one" / name)) == \
            checks.sha256(str(tmp_path / "two" / name))
    assert info["csv_rows"] == int(a["mask"].sum() + a["heldout_mask"].sum())
    # Reading the CSV back gives the generated samples exactly.
    from pdbpe.data_io import read_data_csv
    ds = read_data_csv(str(tmp_path / "one" / wl.TRAIN_CSV))
    assert ds.ids == tuple(a["ids"])
    assert np.array_equal(ds.series[0].values[ds.series[0].mask],
                          a["values"][0][a["mask"][0]])


def test_cached_inputs_are_remade_when_the_workload_changes(tmp_path):
    small = dataclasses.replace(wl.WORKLOADS["reference_cli"], series=6,
                                heldout=2, samples=40)
    first = wl.prepare(small, 1, str(tmp_path))
    assert wl.prepare(small, 1, str(tmp_path)) == first
    larger = dataclasses.replace(small, series=8)
    info = wl.prepare(larger, 1, str(tmp_path))
    assert info["series"] == 8 and info["fingerprint"] != first["fingerprint"]
    from pdbpe.data_io import read_data_csv
    assert len(read_data_csv(str(tmp_path / wl.TRAIN_CSV)).series) == 8


def test_output_checks_catch_a_corrupted_features_file(tmp_path):
    good = tmp_path / "features.csv"
    good.write_text("series_id,a,b\ns0,0.5,0.25\ns1,0.125,1\n")
    assert checks.check_features(str(good), ["s0", "s1"]) is None
    copy = tmp_path / "copy.csv"
    copy.write_bytes(good.read_bytes())
    assert checks.same_bytes(str(copy), str(good)) is None

    corruptions = {
        "digit": "series_id,a,b\ns0,0.5,0.35\ns1,0.125,1\n",
        "nan": "series_id,a,b\ns0,0.5,nan\ns1,0.125,1\n",
        "text": "series_id,a,b\ns0,0.5,x\ns1,0.125,1\n",
        "short row": "series_id,a,b\ns0,0.5\ns1,0.125,1\n",
        "lost row": "series_id,a,b\ns0,0.5,0.25\n",
    }
    for kind, text in corruptions.items():
        bad = tmp_path / f"{kind}.csv"
        bad.write_text(text)
        caught = (checks.check_features(str(bad), ["s0", "s1"])
                  or checks.same_bytes(str(bad), str(good)))
        assert caught, kind
    assert checks.check_features(str(tmp_path / "missing.csv"), []) is not None


def test_benchmark_json_lists_every_reported_metric():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS)
    per_layer = {(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]}
    assert per_layer == set(spans.metric_specs())
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    assert end_to_end == {"setup_s", "peak_rss_mb", *run.METRIC_OF.values()}
