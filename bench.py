"""Benchmark harness.

Default: run the headline pipelines over ``$GRAFT_SF_DIR`` (default
/root/testdata/sf0.1) at ``$RAY_GRAFT_CPUS`` CPUs (default: the CPUs this process may run
on) and print
ONE JSON line:
  {"metric": ..., "value": <headline sec>, "unit": "sec",
   "queries": {...}, "sf": ..., "num_cpus": N,
   "docs_per_sec": ..., "pages_per_sec": ...}

``--scaling``: run the headline extraction job twice in fresh processes
(num_cpus=8 and num_cpus=32) on the same input and report both
throughputs + scaling efficiency (the sandbox evidence for the
north rule's N vs 4N cluster criterion).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS",
                              len(os.sched_getaffinity(0))))
CORPUS_MULT = int(os.environ.get("GRAFT_CORPUS_MULT", "4"))
HEAVY = os.environ.get("GRAFT_CORPUS_HEAVY", "1") == "1"
BENCH_REPS = int(os.environ.get("GRAFT_BENCH_REPS", "2"))


def corpus_rows(sf_dir: str) -> int:
    import pyarrow.parquet as pq

    n_docs = pq.ParquetFile(os.path.join(sf_dir, "documents.parquet")).metadata.num_rows
    return max(500, n_docs * CORPUS_MULT)


def run_bench() -> dict:
    import ray
    import ray.data as rd

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False

    from pdf_to_text_ray.fixtures.corpus import ensure_pages_parquet
    from pdf_to_text_ray.pipelines import queries as Q
    from pdf_to_text_ray.pipelines.extract import extract_corpus_pipeline
    from pdf_to_text_ray.stages.segment import records_batch, segment_batch

    n_rows = corpus_rows(SF_DIR)
    pages_dir, _ = ensure_pages_parquet(n_rows, seed=42, heavy=HEAVY)

    # warm the OS page cache so we measure compute+shuffle, not cold disk
    rd.read_parquet(pages_dir).count()

    # warm Ray workers too: the first pipeline execution pays each
    # worker's import of the extraction modules (numpy/pandas/parser
    # state) — measured at 20-40 s extra on the cold first rep. A
    # small untimed run through the SAME fused stage chain amortizes
    # it so timed reps measure steady-state throughput.
    warm_dir, _ = ensure_pages_parquet(min(2000, n_rows), seed=42,
                                       heavy=HEAVY)
    shutil.rmtree("/tmp/ptt_bench_warm", ignore_errors=True)
    extract_corpus_pipeline(
        warm_dir, override_num_blocks=NUM_CPUS * 2
    ).write_parquet("/tmp/ptt_bench_warm")
    shutil.rmtree("/tmp/ptt_bench_warm", ignore_errors=True)

    timings: dict[str, float] = {}

    def timed(name, fn):
        t0 = time.perf_counter()
        result = fn()
        timings[name] = round(time.perf_counter() - t0, 3)
        return result

    # headline: full extraction pipeline (sniff → extract → dedup → write)
    out_dir = f"/tmp/ptt_bench_out_{NUM_CPUS}"
    shutil.rmtree(out_dir, ignore_errors=True)

    def headline():
        shutil.rmtree(out_dir, ignore_errors=True)
        out = extract_corpus_pipeline(pages_dir, override_num_blocks=NUM_CPUS * 2)
        out.write_parquet(out_dir)
        return out

    # best-of-N: the sandbox is a VM on a shared host with heavy
    # run-to-run noise (±40% observed); min over reps estimates the
    # uncontended cost
    rep_times = []
    for _ in range(BENCH_REPS):
        t0 = time.perf_counter()
        headline()
        rep_times.append(round(time.perf_counter() - t0, 3))
    timings["extract"] = min(rep_times)
    timings["extract_reps"] = rep_times
    meta = rd.read_parquet(out_dir, columns=["n_pages"])
    total_docs = meta.count()
    total_pages = int(meta.to_pandas()["n_pages"].sum())

    if os.environ.get("GRAFT_HEADLINE_ONLY") == "1":
        # scaling legs: the efficiency ratio only uses the extract
        # numbers — skip the records pass and the operator suite so a
        # (lo, hi) pair fits inside one host-noise window
        ray.shutdown()
        return {
            "metric": "headline extraction pipeline wall time",
            "value": timings["extract"],
            "unit": "sec",
            "queries": timings,
            "sf": SF_DIR,
            "num_cpus": NUM_CPUS,
            "corpus_rows": n_rows,
            "docs_per_sec": round(total_docs / timings["extract"], 2),
            "pages_per_sec": round(total_pages / timings["extract"], 2),
        }

    # records path on the extracted output
    def records():
        ds = rd.read_parquet(out_dir, columns=["url", "text_extracted"])
        return ds.map_batches(segment_batch, batch_format="pyarrow").map_batches(
            records_batch, batch_format="pyarrow"
        ).count()

    timed("records", records)

    # representative operator suite at this sf
    for name in (
        "q1_pricing_summary",
        "filter_project_revenue",
        "dedup_events_latest",
        "events_running_sum",
        "dedup_exact_docs",
        "neardup_minhash_docs",
        "knn_cosine",
        "doc_token_stats",
        "bm25_search_docs",
        "bucketed_storage_join_orders",
        "quality_classifier_docs",
        # round-12 additions (new keys are ignored by cross-round
        # comparisons on shared keys)
        "merge_into_events",
        "host_boilerplate_strip",
        "maintenance_window_events",
        "events_lsm_compact",
        "host_mirror_similarity",
        # slow tier: the slowest of the full 263-query sf0.1 survey
        # (round-16 per-query timing re-run) minus keys already
        # pinned above — regressions in the non-extract tier show up
        # here at 10x the correctness-gate scale. Kept keys that
        # dropped out of the top-20 (bigram_pmi_top, sssp) so their
        # improvements stay guarded too.
        "training_corpus_pipeline",
        "catalog_consistent_join",
        "copurchase_triangles",
        "bigram_pmi_top",
        "purchase_views_band_join",
        "doc_chain_components",
        "part_copurchase_sssp",
        "hourly_value_p95",
        "event_props_k_stats",
        "session_stats_per_user",
        "media_features",
        "join_part_supplier_auto",
        "events_deletion_vectors",
        "events_key_skew_profile",
        "docs_line_deduped",
        "curation_pipeline",
        "neardup_keep_best_docs",
        "frequent_lines",
        # round-16 additions
        "neardup_editdist_docs",
        "part_clustering_coeff",
        "part_adamic_adar",
        "epoch_shuffle_plan",
        # round-18 additions (retrieval/curation tier)
        "hybrid_search_rrf",
        "bm25_prf_search",
        "source_token_kl",
        # round-19 additions (distributed statistics / quality tier)
        "poisson_bootstrap_value_ci",
        "doc_oov_rate",
        "doc_flesch_score",
        "part_kcore",
        "source_quality_report",
        "source_overlap_matrix",
    ):
        fn = Q.QUERIES[name]
        timed(name, lambda fn=fn: _consume(fn(SF_DIR)))

    ray.shutdown()
    extract_sec = timings["extract"]
    return {
        "metric": "headline extraction pipeline wall time",
        "value": extract_sec,
        "unit": "sec",
        "queries": timings,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "corpus_rows": n_rows,
        "docs_per_sec": round(total_docs / extract_sec, 2),
        "pages_per_sec": round(total_pages / extract_sec, 2),
    }


def _consume(result):
    import pyarrow as pa

    import ray.data

    if isinstance(result, ray.data.Dataset):
        return result.count()
    if isinstance(result, pa.Table):
        return result.num_rows
    return len(result)


def run_scaling() -> dict:
    """Same job, fresh processes, 8 vs 32 CPUs → scaling efficiency."""

    def one(ncpu: int) -> dict:
        # scaling legs use a MUCH larger corpus than the plain bench so
        # per-doc compute dominates the pipeline's fixed head/tail
        # (read + shuffle barrier + write) — the Amdahl floor otherwise
        # caps measurable efficiency regardless of cluster size.
        # Default 64x (320k docs at sf0.1, hi legs ~23 s): the round-5
        # long-leg runs measured raw 1.045 there, while 16x legs
        # (hi ~17 s) never cleared 0.68 raw — the short-leg figure was
        # head/tail-limited, not pipeline-limited.
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
                   GRAFT_HEADLINE_ONLY="1",
                   GRAFT_CORPUS_MULT=os.environ.get("GRAFT_SCALING_MULT", "64"))
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env, capture_output=True, text=True, check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    lo, hi = 8, 32
    # PAIRED sampling: host noise on this shared VM is time-correlated
    # and large (same-leg reps have swung 26 s ↔ 40 s within minutes),
    # so an efficiency built from the fastest lo leg of one window and
    # the fastest hi leg of another is dominated by which window each
    # min landed in. Each adjacent (lo, hi) pair instead shares a
    # window — contention inflates both legs and mostly cancels in the
    # ratio — and the MEDIAN over pairs rejects the odd window that
    # turns over mid-pair. (Each bench.py child still does
    # best-of-REPS internally.)
    import statistics

    pairs = int(os.environ.get("GRAFT_SCALING_PAIRS", "3"))
    runs = {lo: [], hi: []}
    pair_eff = []
    for _ in range(pairs):
        r_lo_i = one(lo)
        r_hi_i = one(hi)
        runs[lo].append(r_lo_i)
        runs[hi].append(r_hi_i)
        pair_eff.append(
            (r_hi_i["docs_per_sec"] / r_lo_i["docs_per_sec"]) / (hi / lo))
    eff = statistics.median(pair_eff)
    r_lo = min(runs[lo], key=lambda r: r["value"])
    r_hi = min(runs[hi], key=lambda r: r["value"])

    # Host-ceiling normalization (round-1 verdict item 2): the same
    # extraction code under plain multiprocessing (no Ray) caps below
    # 4x on this shared VM — memory bandwidth does not scale with
    # worker count here, though it does with NODES on a real cluster.
    # tools/mp_ceiling.py reproduces that ceiling; efficiency is
    # reported both raw and normalized to it.
    ceiling = None
    try:
        # the ceiling must run the SAME workload as the legs it
        # normalizes: same corpus, same doc count. Short legs on a
        # small corpus overstate the ceiling (sustained bandwidth
        # contention needs multi-second legs to show — measured 0.81
        # at 12k docs vs 0.66 at 21k in one window).
        from pdf_to_text_ray.fixtures.corpus import GENERATOR_VERSION

        mult = int(os.environ.get("GRAFT_SCALING_MULT", "64"))
        import pyarrow.parquet as pq

        n_docs = pq.ParquetFile(
            os.path.join(SF_DIR, "documents.parquet")).metadata.num_rows
        n_scaling = max(500, n_docs * mult)
        glob_pat = (f"/tmp/ptt_corpus/v{GENERATOR_VERSION}_n{n_scaling}"
                    "_s42_heavy/pages/*.parquet")
        env = dict(os.environ, CEILING_DOCS=str(n_scaling),
                   CEILING_CORPUS_GLOB=glob_pat)
        out = subprocess.run(
            [sys.executable,
             os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "tools", "mp_ceiling.py")],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        ceiling = json.loads(out.strip().splitlines()[-1])
    except Exception:
        pass
    result = {
        "metric": "scaling efficiency (docs/sec, 8 vs 32 CPUs)",
        "num_cpus_lo": lo,
        "num_cpus_hi": hi,
        "sec_lo": r_lo["value"],
        "sec_hi": r_hi["value"],
        "sec_lo_runs": [r["value"] for r in runs[lo]],
        "sec_hi_runs": [r["value"] for r in runs[hi]],
        "docs_per_sec_lo": r_lo["docs_per_sec"],
        "docs_per_sec_hi": r_hi["docs_per_sec"],
        "pages_per_sec_hi": r_hi["pages_per_sec"],
        "corpus_rows": r_hi["corpus_rows"],
        "scaling_efficiency": round(eff, 3),
        "pair_efficiencies": [round(e, 3) for e in pair_eff],
    }
    if ceiling:
        result["mp_ceiling_efficiency"] = ceiling["eff_extract"]
        result["scaling_efficiency_normalized"] = round(
            min(eff / ceiling["eff_extract"], 1.0), 3)
        result["ceiling_detail"] = ceiling
    return result


_TAIL_GUARD_PATTERNS = ("different schema", "Failed to hash")


def _guarded(fn):
    """Bench-tail hygiene guard (r03 task 3 / r04 task 8): the
    schema-metadata fixes eliminated Ray's 'RefBundle with a different
    schema' / 'Failed to hash the schemas' warning spam; fail the run
    if either reappears so the fix can't rot. All of Ray's driver- and
    worker-side log traffic lands on this process's fd 2, so the run
    executes with stderr dup'd to a scan file (restored after — and
    replayed on crash so real errors stay visible)."""
    scan_path = f"/tmp/ptt_bench_stderr_{os.getpid()}.log"
    orig_fd = os.dup(2)
    scan_f = open(scan_path, "w")
    os.dup2(scan_f.fileno(), 2)
    try:
        result = fn()
    except BaseException:
        os.dup2(orig_fd, 2)
        sys.stderr.write(open(scan_path).read())
        raise
    finally:
        os.dup2(orig_fd, 2)
        scan_f.close()
    hits = [ln.rstrip("\n") for ln in open(scan_path)
            if any(p in ln for p in _TAIL_GUARD_PATTERNS)]
    if hits:
        sys.stderr.write("bench tail guard: schema warnings reappeared\n")
        for ln in hits[:20]:
            sys.stderr.write(ln + "\n")
        sys.exit(1)
    os.unlink(scan_path)
    return result


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        # child legs run their own guard; check=True propagates a
        # child guard failure up through this leg
        print(json.dumps(run_scaling()))
    else:
        print(json.dumps(_guarded(run_bench)))
