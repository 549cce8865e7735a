"""The traced run: per-layer figures for one workload.

Extract workloads are traced in two parts:

1. The Ray job itself, with driver-side spans around
   ``compute_latest_winners``, ``Dataset.write_parquet`` (whose dataset
   also yields the Ray operator stats) and ``state.manifest.write_manifest``;
   the rest of ``run_extract`` is ``extract.driver_other_s``.
2. A single-process replay of ``sniff_batch`` and ``ExtractDispatch`` over
   the job's own post-semi-join rows, in batches of the job's batch size,
   once with a span around every call into the layers below and, before
   and after it, untraced. The spans' self times must add up to the
   traced replay's wall time (``trace.coverage``); its excess over the
   untraced replays is the tracing cost (``trace.overhead_frac``).

The query workload records one span per pinned query over a traced pass
of the suite between two untraced ones.

Every figure a layer idle on this workload would give is 0, so each
traced run reports the same metric names.
"""

from __future__ import annotations

import glob
import os
import shutil
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from . import jobs
from .inputs import PINNED_QUERIES, digest_result
from .spans import Tracer, percentile, self_times, tail_percentile, totals

BATCH_SIZE = 64  # the extract job's dispatch batch size

# (owner module path, attribute, span name); owners are resolved at
# patch time so importing this module loads none of the program
_REPLAY_LAYERS = (
    ("pdf_to_text_ray.pipelines.extract", "extract_pdf_text", "pdf"),
    ("pdf_to_text_ray.pipelines.extract", "extract_html_text", "html"),
    ("pdf_to_text_ray.pipelines.extract", "decode_html_payload", "charset"),
    ("pdf_to_text_ray.stages.pdf_extract", "PdfDocument.__init__", "pdf.open"),
    ("pdf_to_text_ray.stages.pdf_extract", "decode_stream", "pdf.filters"),
    ("pdf_to_text_ray.stages.pdf_extract", "build_font_decoder", "pdf.fonts"),
    ("pdf_to_text_ray.stages.pdf_extract", "interpret_content", "pdf.interpret"),
    ("pdf_to_text_ray.stages.pdf_extract", "document_text", "reading_order"),
    ("pdf_to_text_ray.stages.pdf_crypto",
     "StandardSecurityHandler.decrypt_stream", "pdf_crypto"),
    ("pdf_to_text_ray.stages.pdf_crypto",
     "StandardSecurityHandler.decrypt_string", "pdf_crypto"),
    ("pdf_to_text_ray.stages.html_extract", "parse_html", "html.parse"),
    ("pdf_to_text_ray.stages.html_extract", "_subtree_stats", "html.select"),
    ("pdf_to_text_ray.stages.html_extract", "select_main_content", "html.select"),
    ("pdf_to_text_ray.stages.html_extract", "render_blocks", "html.render"),
)

EXTRACT_METRICS = {
    "extract.winners_s": "s", "extract.execute_s": "s",
    "extract.driver_other_s": "s", "manifest.write_s": "s",
    "extract.rows_read": "count", "extract.rows_parsed": "count",
    "extract.rows_written": "count", "extract.bytes_in": "bytes",
    "extract.bytes_out": "bytes", "extract.useful_ratio": "ratio",
    "ray.op.read.wall_s": "s", "ray.op.dispatch.wall_s": "s",
    "ray.op.dispatch.udf_s": "s", "ray.op.dispatch.overhead_s": "s",
    "ray.op.dispatch.task_wall_max_over_mean": "ratio",
    "ray.op.dispatch.peak_heap_mb": "MB",
    "sniff.us_per_row": "us", "charset.us_per_doc": "us",
    "html.parse_ms_per_doc": "ms", "html.select_ms_per_doc": "ms",
    "html.render_ms_per_doc": "ms", "html.ms_per_doc": "ms",
    "html.doc_ms_p50": "ms", "html.doc_ms_tail": "ms", "html.doc_tail_pct": "%",
    "html.docs": "count",
    "pdf.open_ms_per_doc": "ms", "pdf.filters_ms_per_doc": "ms",
    "pdf.fonts_ms_per_doc": "ms", "pdf.interpret_ms_per_doc": "ms",
    "pdf.ms_per_doc": "ms", "pdf.ms_per_page": "ms",
    "pdf.doc_ms_p50": "ms", "pdf.doc_ms_tail": "ms", "pdf.doc_tail_pct": "%",
    "pdf.docs": "count", "pdf.pages": "count", "pdf.fallback_docs": "count",
    "pdf_crypto.ms_per_doc": "ms", "reading_order.ms_per_doc": "ms",
}
QUERY_METRICS = {f"query.{q}_s": "s" for q in PINNED_QUERIES}
TRACE_METRICS = {"trace.coverage": "ratio", "trace.overhead_frac": "ratio"}
PER_LAYER = {**EXTRACT_METRICS, **QUERY_METRICS, **TRACE_METRICS}


def _resolve(module: str, attr: str):
    import importlib

    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for p in path:
        owner = getattr(owner, p)
    return owner, name


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


# ── extract: the Ray job ─────────────────────────────────────────────

def trace_extract_job(in_dir: str, out_dir: str, tracer: Tracer) -> dict:
    """Run the extract job once with driver-side spans. Returns the
    job's figures plus the winner arrays it computed."""
    import ray.data as rd

    from pdf_to_text_ray.pipelines import extract
    from pdf_to_text_ray.state import manifest

    seen: dict = {}
    shutil.rmtree(out_dir, ignore_errors=True)
    tracer.patch(extract, "compute_latest_winners", "extract.winners",
                 on_call=lambda args, r: seen.setdefault("winners", r))
    tracer.patch(rd.Dataset, "write_parquet", "extract.execute",
                 on_call=lambda args, r: seen.setdefault("ds", args[0]))
    tracer.patch(manifest, "write_manifest", "manifest.write")
    try:
        run = tracer.wrap("extract.run", extract.run_extract)
        run(in_dir, out_dir, files_per_wave=64, dedup=True, batch_size=64,
            winners_mode="broadcast")
    finally:
        tracer.unpatch()
    dur: dict[str, float] = {}
    for s in tracer.spans:
        dur[s.name] = dur.get(s.name, 0.0) + s.end - s.start
    out = {
        "extract.winners_s": dur["extract.winners"],
        "extract.execute_s": dur["extract.execute"],
        "extract.driver_other_s": dur["extract.run"] - dur["extract.winners"]
        - dur["extract.execute"],
        "manifest.write_s": dur["manifest.write"],
    }
    out.update(jobs.op_stats(seen["ds"]))
    return {"metrics": out, "winners": seen["winners"]}


# ── extract: the single-process replay ───────────────────────────────

def replay_batches(in_dir: str, winners) -> tuple[list, int, int]:
    """The job's post-semi-join rows in dispatch-sized batches, plus the
    count and payload bytes of every row read."""
    from pdf_to_text_ray.pipelines.extract import _winner_mask

    urls, ts = winners
    batches, rows_read, bytes_in = [], 0, 0
    for f in sorted(glob.glob(os.path.join(in_dir, "*.parquet"))):
        t = pq.read_table(f)
        rows_read += t.num_rows
        bytes_in += pc.sum(pc.binary_length(t["html"])).as_py() or 0
        t = t.filter(_winner_mask(t, urls, ts))
        batches.extend(t.slice(i, BATCH_SIZE) for i in range(0, t.num_rows, BATCH_SIZE))
    return batches, rows_read, bytes_in


def replay(batches: list, tracer: Tracer | None) -> tuple[float, list]:
    """sniff → dispatch over ``batches``; with a tracer, every layer call
    gets a span. Returns (wall seconds, output tables)."""
    from pdf_to_text_ray.pipelines.extract import ExtractDispatch
    from pdf_to_text_ray.stages.sniff import sniff_batch

    sniff, dispatch = sniff_batch, ExtractDispatch()
    if tracer is not None:
        for module, attr, name in _REPLAY_LAYERS:
            tracer.patch(*_resolve(module, attr), name)
        sniff = tracer.wrap("sniff", sniff)
        dispatch = tracer.wrap("dispatch", dispatch)
    try:
        outs = []
        t0 = time.perf_counter()
        for b in batches:
            outs.append(dispatch(sniff(b)))
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.unpatch()
    return wall, outs


def replay_metrics(spans, wall: float, rows: int, outs: list) -> dict:
    """Per-layer figures of one traced replay. Sub-layer figures are self
    times, so they add up; ``*.ms_per_doc`` of a whole document type is
    its inclusive time."""
    tot, calls = totals(spans)
    incl: dict[str, list[float]] = {}
    for s in spans:
        incl.setdefault(s.name, []).append(s.end - s.start)
    n_pdf, n_html = calls.get("pdf", 0), calls.get("html", 0)
    pages = fallbacks = 0
    for o in outs:
        is_pdf = pc.equal(o["doc_type"], "pdf")
        pages += pc.sum(pc.filter(o["n_pages"], is_pdf)).as_py() or 0
        fallbacks += pc.sum(pc.cast(pc.filter(o["fallback"], is_pdf), "int64")).as_py() or 0
    m = {"sniff.us_per_row": _div(sum(incl.get("sniff", [])), rows) * 1e6,
         "charset.us_per_doc": _div(sum(incl.get("charset", [])),
                                    calls.get("charset", 0)) * 1e6,
         "pdf.pages": pages, "pdf.fallback_docs": fallbacks,
         "pdf.ms_per_page": _div(sum(incl.get("pdf", [])), pages) * 1e3}
    for kind, n in (("pdf", n_pdf), ("html", n_html)):
        docs_ms = [d * 1e3 for d in incl.get(kind, [])]
        p = tail_percentile(len(docs_ms))
        m[f"{kind}.docs"] = n
        m[f"{kind}.ms_per_doc"] = _div(sum(docs_ms), n)
        m[f"{kind}.doc_ms_p50"] = percentile(docs_ms, 50)
        m[f"{kind}.doc_ms_tail"] = percentile(docs_ms, p)
        m[f"{kind}.doc_tail_pct"] = p if docs_ms else 0.0
    for layer in ("parse", "select", "render"):
        m[f"html.{layer}_ms_per_doc"] = _div(tot.get(f"html.{layer}", 0.0), n_html) * 1e3
    for layer in ("open", "filters", "fonts", "interpret"):
        m[f"pdf.{layer}_ms_per_doc"] = _div(tot.get(f"pdf.{layer}", 0.0), n_pdf) * 1e3
    for layer in ("pdf_crypto", "reading_order"):
        m[f"{layer}.ms_per_doc"] = _div(tot.get(layer, 0.0), n_pdf) * 1e3
    m["trace.coverage"] = _div(sum(self_times(spans)), wall)
    return m


def trace_extract(input_dir: str, work_dir: str, golden: dict) -> tuple[dict, int, int, dict]:
    """The whole extract trace. Returns (metrics, rows checked, rows
    failed, the job's and the replay's tracers by name)."""
    pages_dir = os.path.join(input_dir, "pages")
    out_dir = os.path.join(work_dir, "trace")
    job_tracer = Tracer()
    job = trace_extract_job(pages_dir, out_dir, job_tracer)
    written = jobs.read_output(out_dir)
    failed = jobs.count_failures(written, golden)
    shutil.rmtree(out_dir, ignore_errors=True)

    batches, rows_read, bytes_in = replay_batches(pages_dir, job["winners"])
    rows = sum(b.num_rows for b in batches)
    # untraced replays on both sides of the traced one, so that a drift
    # in host speed or a cold first pass does not read as tracing cost
    tracer = Tracer(doc_roots=("pdf", "html"))
    plain_wall, outs = 0.0, []
    for t in (None, tracer, None):
        w, o = replay(batches, t)
        failed += jobs.count_failures(pa.concat_tables(o), golden)
        if t is None:
            plain_wall += w / 2
        else:
            wall, outs = w, o

    m = dict(job["metrics"])
    m.update(replay_metrics(tracer.spans, wall, rows, outs))
    m.update({
        "extract.rows_read": rows_read,
        "extract.rows_parsed": rows,
        "extract.rows_written": written.num_rows,
        "extract.bytes_in": bytes_in,
        "extract.bytes_out": sum(len(x.encode()) for x in
                                 written["text_extracted"].to_pylist()),
        "extract.useful_ratio": _div(written.num_rows, rows),
        "trace.overhead_frac": _div(wall - plain_wall, plain_wall),
    })
    return m, 4 * len(golden), failed, {"job": job_tracer, "replay": tracer}


# ── queries ──────────────────────────────────────────────────────────

def trace_queries(tables_dir: str, digests: dict) -> tuple[dict, int, int, dict]:
    """One traced pass of the pinned queries between two untraced ones.
    Returns (metrics, queries checked, queries failed, the tracer by name)."""
    tracer = Tracer()
    traced_query = tracer.wrap("query", jobs.run_query)
    failed = 0
    walls = []
    for run in (jobs.run_query, traced_query, jobs.run_query):
        t0 = time.perf_counter()
        for q in PINNED_QUERIES:
            _, df = run(q, tables_dir)
            failed += df is None or digest_result(df) != digests[q]
        walls.append(time.perf_counter() - t0)
    plain = (walls[0] + walls[2]) / 2
    m = {f"query.{q}_s": s.end - s.start for q, s in zip(PINNED_QUERIES, tracer.spans)}
    m["trace.coverage"] = _div(sum(self_times(tracer.spans)), walls[1])
    m["trace.overhead_frac"] = _div(walls[1] - plain, plain)
    return m, 3 * len(PINNED_QUERIES), failed, {"suite": tracer}
