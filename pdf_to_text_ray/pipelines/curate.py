"""End-to-end curation pipeline: quality gate → exact dedup → near-dup
dedup → contamination filter → sequence packing, composed as ONE lazy
Ray Data flow. NOTHING corpus-sized ever lands on the driver:

- Gopher gate: stateless vectorized map, no shuffle.
- Exact dedup: ONE hash-bucketed payload shuffle, min-id per content
  hash inside each bucket (vectorized drop_duplicates) — the streaming
  shape that survives 10^12 docs (no winner-id broadcast).
- Near-dup: MinHash-LSH pairs → min-label-propagation components; only
  the component labels broadcast (bounded by the LSH CANDIDATE set,
  ≪ corpus), probed per batch with searchsorted.
- Contamination: the benchmark gram set broadcasts (bounded by the
  benchmark suite, not the corpus); the filter is inline per batch.
- Packing: distributed prefix sum — only (doc_id, n_tokens) shuffles.

This is the curation analogue of pipelines/extract.py's flagship: the
composition a training-data team runs over extracted text. The
reference has no curation tier (one doc per request,
/root/reference/src/main.ts:136-148); this tier is the web-scale
addition the brief requires.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def _quality_gate(t: pa.Table) -> pa.Table:
    from ..stages.curation import gopher_stats_batch

    s = gopher_stats_batch(t)
    return t.filter(pa.array(s["keep_flag"].to_numpy() == 1))


def _exact_dedup_keep(ds, *, num_buckets: int = 32):
    """Keep the min-doc_id row per content hash — one bucketed payload
    shuffle, vectorized per bucket."""
    from ..stages.dedup import content_hash
    from ..stages.groups import bucketed_group_apply

    def add_hash(t: pa.Table) -> pa.Table:
        return t.append_column("text_hash", pa.array(
            [content_hash(x) for x in t["text"].to_pylist()], pa.string()))

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["text_hash", "doc_id"], kind="stable")
        return df.drop_duplicates("text_hash", keep="first") \
                 .drop(columns=["text_hash"])

    withh = ds.map_batches(add_hash, batch_format="pyarrow")
    return bucketed_group_apply(withh, "text_hash", per_bucket,
                                num_buckets=num_buckets)


def _neardup_filter(ds, *, threshold: float):
    """Drop near-duplicates: every doc in a MinHash-LSH component
    except its min-id root. The pair set stays a DATASET end to end
    (``output="dataset"`` forces join-verify and in-cluster pair
    dedup), so even a mirror-heavy crawl whose candidate-pair count
    explodes never lands a pair row on the driver; the only
    driver/broadcast object is the component label table (bounded by
    the LSH candidate set, ≪ corpus)."""
    import ray

    from ..stages.dedup import minhash_neardup_pairs, minlabel_components
    from ..stages.joins import probe_sorted

    pairs = minhash_neardup_pairs(ds, threshold=threshold,
                                  output="dataset")
    comp = minlabel_components(pairs)
    nodes = comp["node"].to_numpy()
    roots = comp["group_root"].to_numpy()
    order = np.argsort(nodes)
    ref = ray.put((nodes[order], roots[order]))

    def keep(t: pa.Table) -> pa.Table:
        ns, rs = ray.get(ref)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        drop, idx = probe_sorted(ns, ids)
        drop[drop] = rs[idx[drop]] != ids[drop]  # not its group's root
        return t.filter(pa.array(~drop))

    return ds.map_batches(keep, batch_format="pyarrow")


def _contamination_filter(ds, grams_ref, *, n: int = 3):
    """Drop docs sharing any word n-gram with the broadcast benchmark
    set. Inline per-batch probe — no id round-trip via the driver."""
    import ray

    from ..stages.curation import _word_ngrams

    def keep(t: pa.Table) -> pa.Table:
        bench: frozenset[str] = ray.get(grams_ref)
        mask = np.ones(t.num_rows, dtype=bool)
        for i, text in enumerate(t["text"].to_pylist()):
            for g in _word_ngrams(text or "", n):
                if g in bench:
                    mask[i] = False
                    break
        return t.filter(pa.array(mask))

    return ds.map_batches(keep, batch_format="pyarrow")


def curate_documents(sf_dir: str, *, pack_budget: int = 256,
                     neardup_threshold: float = 0.7,
                     bench_mod: int = 97):
    """The composed curation flow. Returns a Dataset with columns
    (doc_id, lang, source, n_tokens, seq_id) — the curated corpus
    packed into fixed token-budget training sequences."""
    import os

    import ray
    import ray.data as rd

    from ..stages.curation import benchmark_gram_set
    from ..stages.groups import ordered_prefix_sum

    path = os.path.join(sf_dir, "documents.parquet")
    ds = rd.read_parquet(path, columns=["doc_id", "text", "lang", "source"])

    gated = ds.map_batches(_quality_gate, batch_format="pyarrow")
    # Pin the deduped corpus ONCE (object-store blocks, spillable):
    # it is consumed by the MinHash pair generation AND by the final
    # filter→pack chain — unpinned, the read→gate→dedup shuffle
    # re-executes per consumer (measured ~2× the whole pipeline's
    # useful work at sf0.1; same tradeoff as the boilerplate explode
    # pin).
    deduped = _exact_dedup_keep(gated).materialize()
    neardeduped = _neardup_filter(deduped, threshold=neardup_threshold)

    def bench_split(t: pa.Table) -> pa.Table:
        m = (t["doc_id"].to_numpy() % bench_mod) == 0
        return t.filter(pa.array(m))

    bench = ds.map_batches(bench_split, batch_format="pyarrow")
    grams_ref = ray.put(benchmark_gram_set(bench, n=3))
    clean = _contamination_filter(neardeduped, grams_ref)

    def tokens(t: pa.Table) -> pa.Table:
        n = np.asarray([len((s or "").split(" ")) if s else 0
                        for s in t["text"].to_pylist()], dtype=np.int64)
        return pa.table({"doc_id": t["doc_id"], "lang": t["lang"],
                         "source": t["source"], "n_tokens": pa.array(n)})

    scanned = ordered_prefix_sum(
        clean.map_batches(tokens, batch_format="pyarrow"),
        order_col="doc_id", value_col="n_tokens", out_col="cum")

    def finish(t: pa.Table) -> pa.Table:
        cum = t["cum"].to_numpy().astype(np.int64)
        n = t["n_tokens"].to_numpy().astype(np.int64)
        return pa.table({
            "doc_id": t["doc_id"], "lang": t["lang"],
            "source": t["source"], "n_tokens": pa.array(n),
            "seq_id": pa.array((cum - n) // pack_budget),
        })

    return scanned.map_batches(finish, batch_format="pyarrow")


def rag_index_pipeline(sf_dir: str, *, chunk_width: int = 64,
                       chunk_stride: int = 48, embed_dim: int = 64):
    """Second composed flagship: raw corpus → RAG chunk index, one lazy
    flow. Gopher gate → exact dedup (bucketed) → overlapping
    token-window chunk explode → per-chunk hashed embedding (the
    deterministic stand-in for a model actor — identical actor-pool
    shape, stages/classifier.py::hash_features) → portable md5 split
    assignment. Returns (doc_id, chunk_idx, n_tokens, split,
    emb_norm, embedding) — what an embedding/ANN indexer ingests.
    Every stage is covered by its own oracle-checked query
    (gopher_quality_docs, dedup_exact_docs, doc_overlap_chunks,
    doc_split_assign) — and the COMPOSITION is oracle-checked too
    (queries.RAG_INDEX_SQL replays gate→dedup→chunk→md5-bucket
    embed→split end to end; emb_norm is the float64 norm of the
    float32-quantized components so both engines land inside the
    gate's 9 dp rounding)."""
    import os

    import ray.data as rd

    from ..stages.classifier import hash_features
    from ..stages.curation import explode_token_chunks
    from ..stages.sketches import assign_split

    path = os.path.join(sf_dir, "documents.parquet")
    ds = rd.read_parquet(path, columns=["doc_id", "text"])
    gated = ds.map_batches(_quality_gate, batch_format="pyarrow")
    deduped = _exact_dedup_keep(gated)

    def explode_embed(t: pa.Table) -> pa.Table:
        out_id, out_idx, out_n, chunks = explode_token_chunks(
            t["doc_id"].to_pylist(), t["text"].to_pylist(),
            width=chunk_width, stride=chunk_stride)
        emb = hash_features(chunks, embed_dim,
                            token_hash="md5").astype(np.float32)
        split = assign_split(out_id)
        return pa.table({
            "doc_id": pa.array(out_id, pa.int64()),
            "chunk_idx": pa.array(out_idx, pa.int64()),
            "n_tokens": pa.array(out_n, pa.int64()),
            "split": pa.array(split, pa.string()),
            # norm in float64 OVER the float32-quantized components:
            # the f32 cast is the engine-portable quantization barrier
            "emb_norm": pa.array(
                np.linalg.norm(emb.astype(np.float64), axis=1),
                pa.float64()),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(emb.ravel(), pa.float32()), embed_dim),
        })

    return deduped.map_batches(explode_embed, batch_format="pyarrow")
