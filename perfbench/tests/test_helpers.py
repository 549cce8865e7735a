"""Tests of the benchmark's helpers: span self times, the tail
percentile rule, seeded inputs, the output check and the CPU probe.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import io
import pathlib
import random
import types

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from perfbench import inputs, jobs
from perfbench.spans import Span, Tracer, percentile, self_times, tail_percentile


def _parquet_bytes(t: pa.Table) -> bytes:
    buf = io.BytesIO()
    pq.write_table(t, buf)
    return buf.getvalue()


# ── spans ────────────────────────────────────────────────────────────

def test_self_time_subtracts_nested_children():
    spans = [Span("pdf", 0.0, 10.0, -1, 0),
             Span("pdf.interpret", 1.0, 6.0, 0, 0),
             Span("pdf.interpret", 2.0, 4.0, 1, 0),   # a form XObject
             Span("pdf.fonts", 7.0, 8.0, 0, 0)]
    assert self_times(spans) == [4.0, 3.0, 2.0, 1.0]
    assert sum(self_times(spans)) == 10.0


def test_traced_recursion_nests_and_adds_up():
    tracer = Tracer(doc_roots=("doc",))
    module = types.SimpleNamespace()

    def interpret(depth):
        # recurse through the module-level name, as interpret_content
        # does for form XObjects
        return 1 + (module.interpret(depth - 1) if depth else 0)

    module.interpret = interpret
    tracer.patch(module, "interpret", "pdf.interpret")
    doc = tracer.wrap("doc", lambda: module.interpret(2) + module.interpret(0))
    assert doc() == 4
    tracer.unpatch()
    assert module.interpret is interpret
    spans = tracer.spans
    assert [s.name for s in spans] == ["doc"] + ["pdf.interpret"] * 4
    assert [s.parent for s in spans] == [-1, 0, 1, 2, 0]
    assert {s.doc for s in spans} == {0}
    st = self_times(spans)
    assert min(st) >= 0
    assert sum(st) == pytest.approx(spans[0].end - spans[0].start, rel=1e-9)


def test_interpret_content_spans_nest_for_form_xobjects():
    from pdf_to_text_ray.fixtures.pdfgen import make_pdf
    from pdf_to_text_ray.stages import pdf_extract

    pdf, expected, _ = make_pdf(random.Random(3), n_pages=2, with_form=True)
    tracer = Tracer(doc_roots=("pdf",))
    tracer.patch(pdf_extract, "interpret_content", "pdf.interpret")
    tracer.patch(pdf_extract, "decode_stream", "pdf.filters")
    try:
        run = tracer.wrap("pdf", pdf_extract.extract_pdf_text)
        assert run(pdf).text == expected
    finally:
        tracer.unpatch()
    assert pdf_extract.interpret_content.__name__ == "interpret_content"
    spans = tracer.spans
    nested = [s for s in spans if s.name == "pdf.interpret"
              and spans[s.parent].name == "pdf.interpret"]
    assert nested, "form XObjects recurse into interpret_content"
    st = self_times(spans)
    assert min(st) >= 0
    assert sum(st) == pytest.approx(spans[0].end - spans[0].start, rel=1e-9)
    assert {s.doc for s in spans} == {0}


# ── percentiles ──────────────────────────────────────────────────────

@pytest.mark.parametrize("n, p", [
    (0, 50.0), (10, 50.0), (19, 50.0), (20, 50.0), (99, 50.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10_000, 99.9),
    (100_000, 99.99)])
def test_tail_percentile_keeps_ten_samples_beyond(n, p):
    assert tail_percentile(n) == p


def test_nearest_rank_percentile():
    v = list(range(100, 0, -1))  # 1..100, unsorted
    assert percentile(v, 50) == 50
    assert percentile(v, 99) == 99
    assert percentile(v, 99.9) == 100
    assert percentile([], 50) == 0.0


# ── inputs ───────────────────────────────────────────────────────────

def test_crawl_file_is_a_function_of_the_seed():
    a_pages, a_gold = inputs.crawl_file(5, 1)
    b_pages, b_gold = inputs.crawl_file(5, 1)
    assert _parquet_bytes(a_pages) == _parquet_bytes(b_pages)
    assert _parquet_bytes(a_gold) == _parquet_bytes(b_gold)
    c_pages, _ = inputs.crawl_file(6, 1)
    assert _parquet_bytes(c_pages) != _parquet_bytes(a_pages)


def test_crawl_file_has_exact_quotas():
    pages, golden = inputs.crawl_file(5, 0)
    kinds = golden["doc_type"].to_pylist()
    assert {k: kinds.count(k) for k in set(kinds)} == inputs.CRAWL_QUOTA
    assert pages.num_rows == len(kinds) + inputs.CRAWL_DUPS == inputs.ROWS_PER_FILE
    assert set(pages["url"].to_pylist()) == set(golden["url"].to_pylist())


def test_crawl_build_is_the_same_in_parallel(tmp_path, monkeypatch):
    monkeypatch.setattr(inputs, "CRAWL_FILES", 3)
    built = {}
    for workers in (1, 2):
        d, _ = inputs.ensure_inputs(str(tmp_path / str(workers)), "crawl_mix", 3,
                                    workers)
        built[workers] = {p.relative_to(d): p.read_bytes()
                          for p in pathlib.Path(d).glob("**/*.parquet")}
    assert sorted(map(str, built[1])) == [
        "golden.parquet", "pages/part-00000.parquet", "pages/part-00001.parquet",
        "pages/part-00002.parquet"]
    assert built[1] == built[2]


def test_query_tables_are_a_function_of_the_seed():
    a = inputs.query_tables(9, divisor=10)
    b = inputs.query_tables(9, divisor=10)
    c = inputs.query_tables(10, divisor=10)
    for name in inputs.QUERY_TABLE_ROWS:
        assert _parquet_bytes(a[name]) == _parquet_bytes(b[name])
        assert a[name].num_rows == inputs.QUERY_TABLE_ROWS[name] // 10
    assert _parquet_bytes(a["lineitem"]) != _parquet_bytes(c["lineitem"])


def test_ensure_inputs_caches_by_seed(tmp_path):
    d, built = inputs.ensure_inputs(str(tmp_path), "query_suite", 4)
    assert built
    first = {p.name: p.read_bytes() for p in (tmp_path.glob("**/*.parquet"))}
    assert inputs.ensure_inputs(str(tmp_path), "query_suite", 4) == (d, False)
    again = {p.name: p.read_bytes() for p in (tmp_path.glob("**/*.parquet"))}
    assert first == again


# ── output check ─────────────────────────────────────────────────────

def test_count_failures_counts_every_kind_of_wrong_row():
    golden = {"a": ("x", "html", 1), "b": ("y", "pdf", 2), "c": ("z", "text", 1),
              "d": ("w", "html", 1)}
    out = pa.table({
        "url": ["a", "b", "b", "c", "e"],
        "doc_type": ["html", "pdf", "pdf", "text", "html"],
        "text_extracted": ["x", "y", "y", "Z", "v"],
        "n_pages": [1, 2, 2, 1, 1],
        "parse_failure": [False, False, False, False, False],
    })
    # b repeated, c mismatched, e extra, d missing
    assert jobs.count_failures(out, golden) == 4
    ok = out.slice(0, 2)
    assert jobs.count_failures(ok, {k: golden[k] for k in ("a", "b")}) == 0
    failed = ok.set_column(4, "parse_failure", pa.array([True, False]))
    assert jobs.count_failures(failed, {k: golden[k] for k in ("a", "b")}) == 1


# ── probes ───────────────────────────────────────────────────────────

def test_tree_cpu_counts_a_child_running_and_reaped():
    import subprocess
    import sys

    burn = ("import sys, time\n"
            "t = time.process_time()\n"
            "while time.process_time() - t < 0.5: pass\n"
            "sys.stdout.write('x'); sys.stdout.flush(); time.sleep(60)\n")
    c0 = jobs.tree_cpu_s()
    child = subprocess.Popen([sys.executable, "-c", burn], stdout=subprocess.PIPE)
    try:
        assert child.stdout.read(1) == b"x"  # burned its CPU, now sleeping
        running = jobs.tree_cpu_s() - c0
    finally:
        child.kill()
        child.wait()
    reaped = jobs.tree_cpu_s() - c0
    assert running >= 0.45
    assert reaped >= running


# ── BENCHMARK.json ───────────────────────────────────────────────────

def test_benchmark_json_lists_what_the_runs_print():
    import json
    import os

    from perfbench import layers, run

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
