"""Similarity search over an embedding column (list<float>).

- ``knn_bruteforce``: exact cosine top-k — numpy matmul per batch
  against a broadcast query matrix (``ray.put`` once, read per actor),
  per-batch partial top-k, small driver-side final merge. This is the
  baseline and the oracle-checkable path.
- ``ann_lsh``: random-hyperplane LSH (Charikar 2002): 16-bit signatures
  bucket the corpus; queries probe their own bucket (+ multiprobe on
  the nearest bits). Approximate; the scale path — the shuffle moves
  (bucket, id) pairs, search is per-bucket.
- ``embedding_neardup_pairs``: exact threshold self-join (cosine ≥ τ)
  via per-batch matmul against the broadcast normalized matrix —
  embedding-cosine near-dup detection for training corpora.

All math in float64 so results are comparable with DuckDB's
``list_cosine_similarity`` on DOUBLE-cast lists.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa


def list_column_to_matrix(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Zero-copy-ish (one flatten) list<float> column → (n, d) float64."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    offsets = col.offsets.to_numpy(zero_copy_only=False)
    widths = np.diff(offsets)
    if len(widths) == 0:
        return flat.reshape(0, 0)
    d = int(widths[0])
    if not (widths == d).all():
        raise ValueError("ragged embedding column")
    return flat.reshape(-1, d)


def _fetch_rows_by_id(ds, id_col: str, ids) -> pd.DataFrame:
    """Pruned point-lookup pass: Arrow-native ``is_in`` filter (keeps
    list columns out of the pandas block-size estimator, which chokes
    on empty object-dtype batches), then one small to_pandas."""
    import pyarrow.compute as pc

    value_set = pa.array(sorted(int(i) for i in ids), pa.int64())

    def keep(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.is_in(pc.cast(batch[id_col], pa.int64()), value_set=value_set))

    return ds.map_batches(keep, batch_format="pyarrow").to_pandas()


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


def knn_bruteforce(ds, query_ids: list[int], k: int = 10,
                   id_col: str = "vec_id", vec_col: str = "embedding") -> pd.DataFrame:
    """Exact cosine top-k for each query id → (query_id, vec_id, rank).

    The query matrix is materialized once (point lookups on small ids)
    and broadcast; each batch computes cosine against it and keeps its
    local top-k; the driver merges the tiny partials. Ties and ranking
    are deterministic: (-sim, vec_id)."""
    import ray

    qset = set(query_ids)
    q_pdf = _fetch_rows_by_id(ds, id_col, qset).sort_values(id_col)
    q_mat = _normalize(
        np.stack([np.asarray(v, dtype=np.float64) for v in q_pdf[vec_col]])
    )
    q_ids = q_pdf[id_col].to_numpy()
    ref = ray.put((q_ids, q_mat))

    def partial_topk(batch: pa.Table) -> pa.Table:
        qids, qm = ray.get(ref)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        out_q, out_v, out_s = [], [], []
        if len(ids) == 0:  # empty block: (0, 0) matmul would raise
            return pa.table({
                "query_id": pa.array([], pa.int64()),
                id_col: pa.array([], pa.int64()),
                "sim": pa.array([], pa.float64()),
            })
        m = _normalize(list_column_to_matrix(batch[vec_col]))
        sims = m @ qm.T  # (n, Q)
        for j, qid in enumerate(qids):
            col = sims[:, j]
            mask = ids != qid
            cand_ids = ids[mask]
            cand = col[mask]
            take = min(k, len(cand))
            if take == 0:
                continue
            # deterministic boundary: full (-sim, id) order — a bare
            # argpartition keeps an ARBITRARY candidate among ties at
            # the k-th score, so a tied lower id could never reach the
            # driver merge that promises (-sim, id) ranking
            idx = np.lexsort((cand_ids, -cand))[:take]
            out_q.extend([qid] * take)
            out_v.extend(cand_ids[idx].tolist())
            out_s.extend(cand[idx].tolist())
        return pa.table({
            "query_id": pa.array(out_q, pa.int64()),
            id_col: pa.array(out_v, pa.int64()),
            "sim": pa.array(out_s, pa.float64()),
        })

    partials = ds.map_batches(partial_topk, batch_format="pyarrow").to_pandas()
    partials = partials.sort_values(
        ["query_id", "sim", id_col], ascending=[True, False, True],
        kind="mergesort",
    )
    out = partials.groupby("query_id", sort=True).head(k).copy()
    out["rank"] = out.groupby("query_id").cumcount() + 1
    return out[["query_id", id_col, "rank"]].reset_index(drop=True)


# Row count above which embedding_neardup_pairs leaves the exact
# broadcast matmul for LSH blocking (read at call time).
EXACT_MAX_ROWS = 200_000


def embedding_neardup_pairs(ds, threshold: float = 0.95,
                            id_col: str = "vec_id",
                            vec_col: str = "embedding") -> pd.DataFrame:
    """Cosine-threshold self-join → (id_a, id_b) with id_a < id_b.

    Up to ``EXACT_MAX_ROWS`` rows it is exact: broadcast the normalized
    matrix once, each batch matmuls its rows against it (O(n²) work,
    O(n·d) broadcast; this is also the oracle-checked baseline).
    Beyond, ``embedding_neardup_pairs_blocked``: multi-table
    hyperplane-LSH bucketing + exact cosine within buckets (the scale
    path: no full-matrix broadcast, work ∝ bucket sizes; approximate
    with recall ≈ 1-(1-p^b)^T)."""
    if ds.count() > EXACT_MAX_ROWS:
        return embedding_neardup_pairs_blocked(
            ds, threshold, id_col=id_col, vec_col=vec_col)
    import ray

    full = ds.select_columns([id_col, vec_col]).to_pandas().sort_values(id_col)
    ids = full[id_col].to_numpy()
    mat = _normalize(np.stack([np.asarray(v, np.float64) for v in full[vec_col]]))
    ref = ray.put((ids, mat))

    def batch_pairs(batch: pa.Table) -> pa.Table:
        all_ids, all_mat = ray.get(ref)
        bids = batch[id_col].to_numpy(zero_copy_only=False)
        if len(bids) == 0:
            return pa.table({"id_a": pa.array([], pa.int64()),
                             "id_b": pa.array([], pa.int64())})
        bm = _normalize(list_column_to_matrix(batch[vec_col]))
        sims = bm @ all_mat.T
        rows_a, rows_b = [], []
        for i, a in enumerate(bids):
            hits = all_ids[(sims[i] >= threshold) & (all_ids > a)]
            rows_a.extend([a] * len(hits))
            rows_b.extend(hits.tolist())
        return pa.table({
            "id_a": pa.array(rows_a, pa.int64()),
            "id_b": pa.array(rows_b, pa.int64()),
        })

    out = ds.map_batches(batch_pairs, batch_format="pyarrow").to_pandas()
    if out.empty:
        out = pd.DataFrame({"id_a": pd.Series([], dtype="int64"),
                            "id_b": pd.Series([], dtype="int64")})
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


def embedding_neardup_pairs_blocked(ds, threshold: float = 0.95,
                                    id_col: str = "vec_id",
                                    vec_col: str = "embedding",
                                    n_bits: int = 12,
                                    n_tables: int = 6) -> pd.DataFrame:
    """Approximate cosine-threshold self-join for corpora beyond the
    broadcast budget: ``n_tables`` independent hyperplane-LSH tables
    bucket the vectors; exact cosine runs only WITHIN buckets; pair
    sets union across tables. For threshold τ, per-table bucket
    collision prob is p^n_bits with p = 1 - arccos(τ)/π, overall
    recall ≈ 1-(1-p^n_bits)^n_tables (τ=0.95 → ~0.93 at 12 bits ×
    6 tables). The shuffle moves (table, bucket, id, vec) — n_tables×
    the input, never O(n²)."""
    import ray.data as rd  # noqa: F401  (documents the dependency)

    from .groups import bucketed_group_apply

    def explode(batch: pa.Table) -> pd.DataFrame:
        m = list_column_to_matrix(batch[vec_col])
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        frames = []
        for t in range(n_tables):
            rng = np.random.RandomState(_LSH_SEED + 7919 * (t + 1))
            planes = rng.normal(size=(m.shape[1], n_bits))
            bits = (m @ planes) > 0
            bucket = (bits * (1 << np.arange(n_bits))).sum(axis=1).astype(np.int64)
            frames.append(pd.DataFrame({
                id_col: ids, "table": np.int64(t), "bucket": bucket,
                "vec": [row.tobytes() for row in m.astype(np.float64)],
            }))
        return pd.concat(frames, ignore_index=True)

    exploded = ds.map_batches(explode, batch_format="pyarrow")

    def pairs_bucket(g: pd.DataFrame) -> pd.DataFrame:
        counts = g.groupby(["table", "bucket"], sort=False)[id_col].transform("count")
        g = g[counts >= 2]
        out_a: list = []
        out_b: list = []
        for _, grp in g.groupby(["table", "bucket"], sort=False):
            grp = grp.drop_duplicates(id_col).sort_values(id_col)
            ids = grp[id_col].to_numpy()
            mat = _normalize(np.stack([np.frombuffer(v, np.float64)
                                       for v in grp["vec"]]))
            sims = mat @ mat.T
            ai, bi = np.nonzero(np.triu(sims >= threshold, k=1))
            out_a.extend(ids[ai].tolist())
            out_b.extend(ids[bi].tolist())
        return pd.DataFrame({"id_a": out_a, "id_b": out_b})

    pdf = bucketed_group_apply(exploded, ["table", "bucket"], pairs_bucket,
                               num_buckets=32).to_pandas()
    if pdf.empty:
        return pd.DataFrame({"id_a": pd.Series([], dtype="int64"),
                             "id_b": pd.Series([], dtype="int64")})
    return (pdf.drop_duplicates().astype({"id_a": "int64", "id_b": "int64"})
            .sort_values(["id_a", "id_b"]).reset_index(drop=True))


# ── LSH-bucketed ANN (the scale path) ────────────────────────────────

_LSH_SEED = 7243


def _hyperplanes(dim: int, n_bits: int,
                 plane_hash: str = "gauss") -> np.ndarray:
    """Sign-random-projection planes. ``plane_hash``: "gauss" (seeded
    Gaussian — the spherically-symmetric default) or "md5"
    (engine-portable: plane[j, b] = 2·u − 1 with u the md5 uniform of
    "lshp:{b}:{j}", which DuckDB computes verbatim — per-coordinate
    uniform is the standard cheap SRP variant and lets an oracle
    replay the whole bucketing/multiprobe path)."""
    if plane_hash == "md5":
        return _md5_planes(dim, n_bits)
    rng = np.random.RandomState(_LSH_SEED)
    return rng.normal(size=(dim, n_bits))


@functools.lru_cache(maxsize=8)
def _md5_planes(dim: int, n_bits: int) -> np.ndarray:
    import hashlib

    out = np.empty((dim, n_bits), np.float64)
    for b in range(n_bits):
        for j in range(dim):
            u = int(hashlib.md5(f"lshp:{b}:{j}".encode())
                    .hexdigest()[:8], 16) / 4294967296.0
            out[j, b] = 2.0 * u - 1.0
    return out


def lsh_bucket_batch(batch: pa.Table, id_col: str = "vec_id",
                     vec_col: str = "embedding", n_bits: int = 12,
                     plane_hash: str = "gauss") -> pa.Table:
    m = list_column_to_matrix(batch[vec_col])
    planes = _hyperplanes(m.shape[1], n_bits, plane_hash)
    bits = (m @ planes) > 0
    bucket = (bits * (1 << np.arange(n_bits))).sum(axis=1).astype(np.int64)
    return pa.table({
        id_col: batch[id_col],
        "bucket": pa.array(bucket, pa.int64()),
        vec_col: batch[vec_col],
    })


def _probe_buckets(qv: np.ndarray, planes: np.ndarray, n_probe: int) -> set[int]:
    """Multiprobe: the query's own bucket plus buckets reached by
    perturbation sets over the lowest-|margin| hyperplane bits (per Lv
    et al. 2007, multi-probe LSH) — subsets of 1-3 bits ranked by
    summed margin, so n_probe can usefully exceed n_bits+1."""
    from itertools import combinations

    proj = qv @ planes
    bits = (proj > 0).astype(np.int64)
    base = int((bits * (1 << np.arange(len(proj)))).sum())
    if n_probe <= 1:
        return {base}
    order = np.argsort(np.abs(proj))
    m = min(len(proj), 10)
    cands: list[tuple[float, int]] = []
    for r in (1, 2, 3):
        for combo in combinations(range(m), r):
            score = float(sum(abs(proj[order[i]]) for i in combo))
            mask = 0
            for i in combo:
                mask |= 1 << int(order[i])
            cands.append((score, base ^ mask))
    cands.sort()
    out = {base}
    for _, b in cands:
        if len(out) >= n_probe:
            break
        out.add(b)
    return out


def ann_lsh_topk(ds, query_ids: list[int], k: int = 10,
                 id_col: str = "vec_id", vec_col: str = "embedding",
                 n_bits: int = 12, n_probe: int = 1,
                 plane_hash: str = "gauss") -> pd.DataFrame:
    """Approximate top-k: per-bucket exact search; each query probes its
    own bucket plus ``n_probe-1`` multiprobe buckets (lowest-margin bit
    flips). Recall depends on bucket granularity (``n_bits`` vs corpus
    size — size buckets to ~1k-10k vectors at scale); compare against
    knn_bruteforce for recall measurements."""
    import ray

    bucketed = ds.map_batches(
        lambda b: lsh_bucket_batch(b, id_col, vec_col, n_bits, plane_hash),
        batch_format="pyarrow")
    qset = set(query_ids)

    # query → probed bucket set (broadcast); queries fetched via a
    # pruned filter pass
    q_pdf = _fetch_rows_by_id(ds, id_col, qset)
    probes: dict[int, set[int]] = {}
    qvecs_all: dict[int, np.ndarray] = {}
    for _, row in q_pdf.iterrows():
        qv = _normalize(np.asarray(row[vec_col], np.float64)[None, :])[0]
        planes = _hyperplanes(len(qv), n_bits, plane_hash)
        probes[int(row[id_col])] = _probe_buckets(qv, planes, n_probe)
        qvecs_all[int(row[id_col])] = qv
    # ONE broadcast for probes AND query vectors: a closure capture of
    # q_pdf would pickle the query payload into every per-bucket task
    probes_ref = ray.put((probes, qvecs_all))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        pr, qvecs = ray.get(probes_ref)
        bucket_val = int(g["bucket"].iloc[0]) if len(g) else -1
        # a query searches every bucket it probes, not only its own —
        # and its own bucket is always in its probe set
        probe_qids = sorted(q for q, bs in pr.items() if bucket_val in bs)
        if not probe_qids or len(g) == 0:
            return pd.DataFrame({"query_id": [], id_col: [], "sim": []})
        mat = _normalize(np.stack([np.asarray(v, np.float64)
                                   for v in g[vec_col]]))
        ids = g[id_col].to_numpy()
        out = []
        for qid in probe_qids:
            sims = mat @ qvecs[qid]
            order = np.lexsort((ids, -sims))
            cnt = 0
            for idx in order:
                if ids[idx] == qid:
                    continue
                cnt += 1
                out.append((qid, ids[idx], float(sims[idx])))
                if cnt >= k:
                    break
        return pd.DataFrame({
            "query_id": [o[0] for o in out],
            id_col: [o[1] for o in out],
            "sim": [o[2] for o in out],
        })

    res = bucketed.groupby("bucket").map_groups(per_bucket, batch_format="pandas")
    pdf = res.to_pandas()
    if pdf.empty:
        return pd.DataFrame({"query_id": pd.Series([], dtype="int64"),
                             id_col: pd.Series([], dtype="int64"),
                             "rank": pd.Series([], dtype="int64")})
    # global re-rank across probed buckets (deterministic ties)
    pdf = pdf.sort_values(["query_id", "sim", id_col],
                          ascending=[True, False, True], kind="mergesort")
    pdf = pdf.drop_duplicates(["query_id", id_col])
    out = pdf.groupby("query_id", sort=True).head(k).copy()
    out["rank"] = out.groupby("query_id").cumcount() + 1
    out = out[["query_id", id_col, "rank"]].astype("int64")
    return out.sort_values(["query_id", "rank"]).reset_index(drop=True)


# ── IVF (inverted-file) ANN: k-means-lite coarse quantizer ───────────

_IVF_SEED = 4099


def ivf_centroids_distributed(ds, n_lists: int, *, n_iters: int = 8,
                              vec_col: str = "embedding",
                              id_col: str = "vec_id",
                              portable: bool = False) -> np.ndarray:
    """Lloyd's k-means with the ITERATIONS inside ``map_batches``:
    per pass, every batch assigns its vectors to the broadcast
    centroids and emits per-centroid partial (sum, count) — n_lists
    rows per batch — which the driver merges and renormalizes. The
    full corpus never concentrates anywhere; driver traffic per
    iteration is O(n_lists · dim). Deterministic regardless of block
    layout / task completion order: the init sample is chosen by a
    multiplicative hash of the row's own vector bytes (not by block
    arrival), partials are lexsorted before each float summation.

    ``portable=True`` switches to the ORACLE-REPLAYABLE variant: init
    centroids are the ``n_lists`` rows with the smallest
    (md5_uniform(id), id) key, and every merged centroid rounds to
    6 dp — a quantization barrier that absorbs the ~1e-13
    partial-sum-order noise, so a DuckDB unroll of the identical
    fixed-iteration map lands on bit-equal centroids."""
    import ray

    if portable:
        from pdf_to_text_ray.stages.sketches import md5_uniform

        def init_sample(batch: pa.Table) -> pa.Table:
            ids = batch[id_col].to_pylist()
            if not ids:
                return pa.table({
                    "i": pa.array([], pa.int64()),
                    "u": pa.array([], pa.float64()),
                    "v": pa.array([], pa.list_(pa.float64()))})
            u = md5_uniform(ids)
            m = list_column_to_matrix(batch[vec_col])
            keep = np.argsort(u)[:n_lists]  # per-batch pre-prune
            return pa.table({
                "i": pa.array(np.asarray(ids, np.int64)[keep], pa.int64()),
                "u": pa.array(u[keep], pa.float64()),
                "v": pa.array(list(m[keep].astype(np.float64)),
                              pa.list_(pa.float64()))})

        init_pdf = (ds.map_batches(init_sample, batch_format="pyarrow")
                    .to_pandas().sort_values(["u", "i"]).head(n_lists))
        cents = np.round(_normalize(np.stack(
            [np.asarray(v, np.float64) for v in init_pdf["v"]])), 6)
    else:
        n_init = max(4 * n_lists, 64)

        def init_sample(batch: pa.Table) -> pa.Table:
            m = list_column_to_matrix(batch[vec_col])
            if len(m) == 0:
                return pa.table({"v": pa.array([], pa.list_(pa.float64())),
                                 "h": pa.array([], pa.uint64())})
            h = np.array([int.from_bytes(
                hashlib.blake2b(row.tobytes(), digest_size=8).digest(), "big")
                for row in m], dtype=np.uint64)
            keep = np.argsort(h)[: 4 * n_init]  # per-batch pre-prune
            return pa.table({"v": pa.array(list(m[keep]),
                                           pa.list_(pa.float64())),
                             "h": pa.array(h[keep], pa.uint64())})

        init_pdf = ds.map_batches(
            init_sample, batch_format="pyarrow").to_pandas()
        init_pdf = init_pdf.sort_values("h").head(n_init)
        init = _normalize(np.stack([np.asarray(v, np.float64)
                                    for v in init_pdf["v"]]))
        rng = np.random.RandomState(_IVF_SEED)
        idx = rng.choice(len(init), size=min(n_lists, len(init)),
                         replace=False)
        cents = init[idx].copy()

    for _ in range(n_iters):
        ref = ray.put(cents)

        def partial(batch: pa.Table) -> pa.Table:
            c = ray.get(ref)
            m = _normalize(list_column_to_matrix(batch[vec_col]))
            if len(m) == 0:
                return pa.table({
                    "cid": pa.array([], pa.int64()),
                    "cnt": pa.array([], pa.int64()),
                    "vecsum": pa.array([], pa.list_(pa.float64())),
                })
            assign = np.argmax(m @ c.T, axis=1)
            sums = np.zeros_like(c)
            np.add.at(sums, assign, m)
            counts = np.bincount(assign, minlength=len(c))
            return pa.table({
                "cid": pa.array(np.arange(len(c)), pa.int64()),
                "cnt": pa.array(counts.astype(np.int64), pa.int64()),
                "vecsum": pa.array(list(sums), pa.list_(pa.float64())),
            })

        parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
        agg_cnt = parts.groupby("cid", sort=True)["cnt"].sum()
        new = cents.copy()
        for cid, grp in parts.groupby("cid", sort=True):
            if agg_cnt[cid] == 0:
                continue  # empty list keeps its centroid
            arr = np.stack([np.asarray(x) for x in grp["vecsum"]])
            # float += is order-sensitive; lexsort partials so the merge
            # is identical whatever order tasks completed in
            arr = arr[np.lexsort(arr.T[::-1])]
            v = np.sum(arr, axis=0)
            norm = np.linalg.norm(v)
            if norm > 0:
                new[int(cid)] = (np.round(v / norm, 6) if portable
                                 else v / norm)
        cents = new
    return cents


def ivf_topk(ds, query_ids: list[int], k: int = 10, *, n_lists: int = 16,
             n_probe: int = 4, id_col: str = "vec_id",
             vec_col: str = "embedding",
             portable: bool = False) -> pd.DataFrame:
    """IVF ANN: assign vectors to their nearest centroid list
    (map_batches), queries probe the ``n_probe`` nearest lists, exact
    search within probed lists. The scale path: the shuffle moves
    (list_id, id, vec) and search touches n_probe/n_lists of the data.

    Centroids are trained DISTRIBUTED (ivf_centroids_distributed:
    partial-assign per batch + tiny driver merge per iteration)."""
    import ray

    # pin once: k-means iterations + assign + query fetch would each
    # re-execute a lazy upstream plan (the repo's multi-pass rule, see
    # groups.ordered_prefix_sum)
    ds = ds.materialize()
    cents = ivf_centroids_distributed(ds, n_lists, vec_col=vec_col,
                                      id_col=id_col, portable=portable)
    cents_ref = ray.put(cents)
    # queries fetched via a pruned filter pass
    qset0 = set(query_ids)
    sample_pdf = _fetch_rows_by_id(ds, id_col, qset0)

    def assign_lists(batch: pa.Table) -> pa.Table:
        c = ray.get(cents_ref)
        m = _normalize(list_column_to_matrix(batch[vec_col]))
        lists = np.argmax(m @ c.T, axis=1).astype(np.int64)
        return pa.table({
            id_col: batch[id_col],
            "list_id": pa.array(lists, pa.int64()),
            vec_col: batch[vec_col],
        })

    assigned = ds.map_batches(assign_lists, batch_format="pyarrow")

    # queries → probed lists
    q_pdf = sample_pdf
    probes: dict[int, set[int]] = {}
    for _, row in q_pdf.iterrows():
        qv = _normalize(np.asarray(row[vec_col], np.float64)[None, :])[0]
        order = np.argsort(-(cents @ qv))[:n_probe]
        probes[int(row[id_col])] = set(int(x) for x in order)
    probes_ref = ray.put((probes, {int(r[id_col]): np.asarray(r[vec_col], np.float64)
                                   for _, r in q_pdf.iterrows()}))

    def search_batch(batch: pa.Table) -> pa.Table:
        pr, qvecs = ray.get(probes_ref)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        if len(ids) == 0:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             id_col: pa.array([], pa.int64()),
                             "sim": pa.array([], pa.float64())})
        lists = batch["list_id"].to_numpy(zero_copy_only=False)
        m = _normalize(list_column_to_matrix(batch[vec_col]))
        out_q, out_v, out_s = [], [], []
        for qid, probe_lists in pr.items():
            mask = np.isin(lists, list(probe_lists)) & (ids != qid)
            if not mask.any():
                continue
            qv = _normalize(qvecs[qid][None, :])[0]
            sims = m[mask] @ qv
            cand = ids[mask]
            take = min(k, len(cand))
            # (-sim, id) lexsort: ties at the boundary resolve the same
            # way the driver merge does (see knn partial_topk)
            idx = np.lexsort((cand, -sims))[:take]
            out_q.extend([qid] * take)
            out_v.extend(cand[idx].tolist())
            out_s.extend(sims[idx].tolist())
        return pa.table({
            "query_id": pa.array(out_q, pa.int64()),
            id_col: pa.array(out_v, pa.int64()),
            "sim": pa.array(out_s, pa.float64()),
        })

    partials = assigned.map_batches(search_batch, batch_format="pyarrow").to_pandas()
    if partials.empty:
        return pd.DataFrame({"query_id": [], id_col: [], "rank": []}).astype("int64")
    partials = partials.sort_values(
        ["query_id", "sim", id_col], ascending=[True, False, True], kind="mergesort")
    out = partials.groupby("query_id", sort=True).head(k).copy()
    out["rank"] = out.groupby("query_id").cumcount() + 1
    return out[["query_id", id_col, "rank"]].reset_index(drop=True)


# ── exact sparse TF-IDF all-pairs cosine ─────────────────────────────

def tfidf_cosine_pairs(ds, *, key_col: str = "doc_id",
                       text_col: str = "text", threshold: float = 0.3,
                       max_df_frac: float = 0.5, num_buckets: int = 32):
    """EXACT all-pairs cosine similarity over sparse TF-IDF vectors,
    inverted-index blocked (no sketching, no dense vectors).

    One explode pass emits (term, doc, tf) triples; a term-bucketed
    groupby sees each term's FULL posting, so df (and the idf weight
    ``tf·ln(N/df)``) is computed in place — no separate df join — and
    the bucket emits BOTH the pairwise weight products and each doc's
    squared-norm partials in one pass (norm rows ride along keyed as
    ``(doc, -1)``). A second bucketed groupby sums partials per key
    pair: pair sums are exact dot products, ``(doc, -1)`` sums are
    ‖doc‖²; the tiny norm table broadcasts for the final division.

    ``max_df_frac`` drops stop-terms (df > frac·N) BEFORE pairing —
    the knob that keeps posting self-joins from going quadratic on
    "the"-class terms; weights are tiny there anyway. Text never
    shuffles: both exchanges move ≤ ~32-byte rows.

    Partitioning assumptions: a term's posting fits one bucket
    (stop-term pruning enforces it); the (doc → norm) table fits a
    broadcast (swap for a bucketed join beyond ~10^8 docs)."""
    import ray

    from .groups import bucketed_group_apply

    n_docs = float(ds.count())

    def explode(t: pa.Table) -> pd.DataFrame:
        keys = t[key_col].to_numpy(zero_copy_only=False)
        terms_l, keys_l, tf_l = [], [], []
        for k, x in zip(keys, t[text_col].to_pylist()):
            toks = (x or "").lower().split()
            if not toks:
                continue
            terms, counts = np.unique(toks, return_counts=True)
            terms_l.append(terms)
            keys_l.append(np.full(len(terms), k, dtype=np.int64))
            tf_l.append(counts.astype(np.float64))
        if not terms_l:
            return pd.DataFrame({"term": pd.Series([], dtype=object),
                                 "k": pd.Series([], dtype="int64"),
                                 "tf": pd.Series([], dtype="float64")})
        return pd.DataFrame({"term": np.concatenate(terms_l),
                             "k": np.concatenate(keys_l),
                             "tf": np.concatenate(tf_l)})

    tf = ds.map_batches(explode, batch_format="pyarrow")

    def weigh_and_pair(g: pd.DataFrame) -> pd.DataFrame:
        df_ = g.groupby("term", sort=False)["term"].transform("size")
        keep = df_.to_numpy() <= max_df_frac * n_docs
        g, df_ = g[keep], df_[keep]
        w = g["tf"].to_numpy() * np.log(n_docs / df_.to_numpy())
        g = pd.DataFrame({"term": g["term"].to_numpy(),
                          "k": g["k"].to_numpy(), "w": w})
        norm = (pd.DataFrame({"k": g["k"], "w2": w * w})
                .groupby("k", as_index=False)["w2"].sum())
        norm_rows = pd.DataFrame({"ia": norm["k"].astype("int64"),
                                  "ib": np.int64(-1),
                                  "x": norm["w2"]})
        m = g[g.duplicated("term", keep=False)].merge(
            g, on="term", suffixes=("_a", "_b"))
        m = m[m["k_a"] < m["k_b"]]
        m = m.assign(x=m["w_a"] * m["w_b"])
        pair_rows = (m.groupby(["k_a", "k_b"], sort=False, as_index=False)
                     ["x"].sum()
                     .rename(columns={"k_a": "ia", "k_b": "ib"}))
        return pd.concat([norm_rows, pair_rows[["ia", "ib", "x"]]],
                         ignore_index=True)

    partials = bucketed_group_apply(tf, "term", weigh_and_pair,
                                    num_buckets=num_buckets)

    def reduce_pairs(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(["ia", "ib"], sort=False, as_index=False)["x"].sum()

    combined = bucketed_group_apply(partials, ["ia", "ib"], reduce_pairs,
                                    num_buckets=num_buckets).materialize()

    norms = combined.filter(expr="ib == -1").to_pandas().sort_values("ia")
    nk = norms["ia"].to_numpy()
    nv = np.sqrt(norms["x"].to_numpy())
    ref = ray.put((nk, nv))

    def finish(t: pa.Table) -> pa.Table:
        keys, vals = ray.get(ref)
        ia = t["ia"].to_numpy(zero_copy_only=False)
        ib = t["ib"].to_numpy(zero_copy_only=False)
        dot = t["x"].to_numpy(zero_copy_only=False)
        na = vals[np.searchsorted(keys, ia)]
        nb = vals[np.searchsorted(keys, ib)]
        sim = dot / (na * nb)
        keep = sim >= threshold
        return pa.table({
            f"{key_col}1": pa.array(ia[keep], pa.int64()),
            f"{key_col}2": pa.array(ib[keep], pa.int64()),
            # half-away-from-zero (DuckDB round parity — np.round's
            # half-to-even flips exact .5 boundaries the other way)
            "cosine_sim": pa.array(
                np.copysign(np.floor(np.abs(sim[keep] * 1e6) + 0.5),
                            sim[keep]) / 1e6, pa.float64()),
        })

    return combined.filter(expr="ib != -1").map_batches(
        finish, batch_format="pyarrow")


# ── product quantization ANN (Jégou/Douze/Schmid, TPAMI 2011) ────────
# The 100-TB memory path: vectors compress to m uint8 codes (d·4 →
# m bytes, 32× at d=64/m=8), search runs over the CODES via asymmetric
# distance (per-query lookup tables), and only the tiny re-rank
# candidate set ever touches full vectors again.


def pq_train_codebooks(ds, *, m: int = 8, ks: int = 16, n_iters: int = 8,
                       vec_col: str = "embedding") -> np.ndarray:
    """(m, ks, d/m) per-subspace Euclidean k-means codebooks, trained
    distributed: ONE partial pass per iteration covers ALL m subspaces
    (each batch emits m·ks (sub, cid, count, vecsum) rows); the driver
    merge is O(m·ks·d/m) = O(ks·d) per iteration. Deterministic like
    ``ivf_centroids_distributed``: hash-chosen init sample, lexsorted
    partials before float summation."""
    import ray

    n_init = max(4 * ks, 64)

    def init_sample(batch: pa.Table) -> pa.Table:
        mat = list_column_to_matrix(batch[vec_col])
        if len(mat) == 0:
            return pa.table({"v": pa.array([], pa.list_(pa.float64())),
                             "h": pa.array([], pa.uint64())})
        h = np.array([int.from_bytes(
            hashlib.blake2b(row.tobytes(), digest_size=8).digest(), "big")
            for row in mat], dtype=np.uint64)
        keep = np.argsort(h)[: 4 * n_init]
        return pa.table({"v": pa.array(list(mat[keep]), pa.list_(pa.float64())),
                         "h": pa.array(h[keep], pa.uint64())})

    init_pdf = (ds.map_batches(init_sample, batch_format="pyarrow")
                .to_pandas().sort_values("h").head(n_init))
    sample = _normalize(np.stack([np.asarray(v, np.float64)
                                  for v in init_pdf["v"]]))
    d = sample.shape[1]
    if d % m:
        raise ValueError(f"dim {d} not divisible by m={m}")
    dsub = d // m
    rng = np.random.RandomState(_IVF_SEED ^ 0x50)
    books = np.empty((m, ks, dsub), np.float64)
    for j in range(m):
        idx = rng.choice(len(sample), size=min(ks, len(sample)),
                         replace=False)
        books[j, : len(idx)] = sample[idx, j * dsub:(j + 1) * dsub]
        if len(idx) < ks:  # degenerate tiny corpora: pad with repeats
            books[j, len(idx):] = books[j, : ks - len(idx)]

    def _assign(sub: np.ndarray, cb: np.ndarray) -> np.ndarray:
        # argmin ||x - c||² = argmin (||c||² - 2 x·c), vectorized
        return np.argmin((cb * cb).sum(1)[None, :] - 2.0 * (sub @ cb.T),
                         axis=1)

    for _ in range(n_iters):
        ref = ray.put(books)

        def partial(batch: pa.Table) -> pa.Table:
            cb = ray.get(ref)
            mat = _normalize(list_column_to_matrix(batch[vec_col]))
            mm, kk, dd = cb.shape
            subs, cids, cnts, sums = [], [], [], []
            for j in range(mm):
                if len(mat) == 0:
                    continue
                sub = mat[:, j * dd:(j + 1) * dd]
                a = _assign(sub, cb[j])
                s = np.zeros((kk, dd))
                np.add.at(s, a, sub)
                c = np.bincount(a, minlength=kk)
                subs.extend([j] * kk)
                cids.extend(range(kk))
                cnts.extend(c.astype(np.int64).tolist())
                sums.extend(list(s))
            return pa.table({
                "sub": pa.array(subs, pa.int64()),
                "cid": pa.array(cids, pa.int64()),
                "cnt": pa.array(cnts, pa.int64()),
                "vecsum": pa.array(sums, pa.list_(pa.float64())),
            })

        parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
        for (j, cid), grp in parts.groupby(["sub", "cid"], sort=True):
            n = grp["cnt"].sum()
            if n == 0:
                continue
            arr = np.stack([np.asarray(x) for x in grp["vecsum"]])
            arr = arr[np.lexsort(arr.T[::-1])]
            books[int(j), int(cid)] = arr.sum(axis=0) / n
    return books


def pq_encode(ds, codebooks: np.ndarray, *, id_col: str = "vec_id",
              vec_col: str = "embedding"):
    """Dataset of (id, code) where code is m bytes — the compressed
    index an ADC search (and nothing else) needs to touch."""
    import ray

    ref = ray.put(codebooks)

    def encode(batch: pa.Table) -> pa.Table:
        cb = ray.get(ref)
        mm, kk, dd = cb.shape
        if batch.num_rows == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "code": pa.array([], pa.binary())})
        mat = _normalize(list_column_to_matrix(batch[vec_col]))
        codes = np.empty((len(mat), mm), np.uint8)
        for j in range(mm):
            sub = mat[:, j * dd:(j + 1) * dd]
            codes[:, j] = np.argmin(
                (cb[j] * cb[j]).sum(1)[None, :] - 2.0 * (sub @ cb[j].T),
                axis=1).astype(np.uint8)
        return pa.table({
            id_col: batch[id_col],
            "code": pa.array([c.tobytes() for c in codes], pa.binary()),
        })

    return ds.map_batches(encode, batch_format="pyarrow")


def pq_topk(ds, query_ids: list[int], k: int = 10, *, m: int = 8,
            ks: int = 16, rerank: int = 4, id_col: str = "vec_id",
            vec_col: str = "embedding") -> pd.DataFrame:
    """PQ-ADC cosine top-k with exact re-rank.

    Pipeline: train codebooks (distributed) → encode corpus to m-byte
    codes → per-batch ADC scan over CODES ONLY (per-query (m, ks)
    inner-product lookup tables; sims are table-gather sums, no float
    matmul against the corpus) keeping top rerank·k per batch → driver
    union of candidates → one pruned filter pass fetches candidates'
    full vectors → exact cosine re-rank to top-k. Same deterministic
    (-sim, id) ordering as ``knn_bruteforce``."""
    import ray

    # pin once: codebook training (n_iters passes), encoding, and two
    # candidate-fetch scans all consume ds
    ds = ds.materialize()
    books = pq_train_codebooks(ds, m=m, ks=ks, vec_col=vec_col)
    codes = pq_encode(ds, books, id_col=id_col, vec_col=vec_col)

    q_pdf = _fetch_rows_by_id(ds, id_col, set(query_ids)).sort_values(id_col)
    q_mat = _normalize(np.stack(
        [np.asarray(v, np.float64) for v in q_pdf[vec_col]]))
    q_ids = q_pdf[id_col].to_numpy()
    mm, kk, dd = books.shape
    # per-query ADC tables: table[q, j, c] = q_sub_j · codebook[j, c]
    tables = np.einsum("qjd,jcd->qjc", q_mat.reshape(len(q_mat), mm, dd),
                       books)
    t_ref = ray.put((q_ids, tables))
    r = rerank * k

    def adc_partial(batch: pa.Table) -> pa.Table:
        qids, tbl = ray.get(t_ref)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        raw = b"".join(batch["code"].to_pylist())
        cm = np.frombuffer(raw, np.uint8).reshape(-1, tbl.shape[1])
        out_q, out_v, out_s = [], [], []
        cols = np.arange(tbl.shape[1])
        for qi, qid in enumerate(qids):
            sims = tbl[qi][cols[None, :], cm].sum(axis=1)
            mask = ids != qid
            cand, cs = ids[mask], sims[mask]
            take = min(r, len(cand))
            if take == 0:
                continue
            idx = np.lexsort((cand, -cs))[:take]
            out_q.extend([qid] * take)
            out_v.extend(cand[idx].tolist())
            out_s.extend(cs[idx].tolist())
        return pa.table({
            "query_id": pa.array(out_q, pa.int64()),
            id_col: pa.array(out_v, pa.int64()),
            "adc": pa.array(out_s, pa.float64()),
        })

    partials = codes.map_batches(adc_partial, batch_format="pyarrow").to_pandas()
    if partials.empty:
        return pd.DataFrame({"query_id": [], id_col: [], "rank": []}).astype("int64")
    partials = partials.sort_values(
        ["query_id", "adc", id_col], ascending=[True, False, True],
        kind="mergesort")
    cand = partials.groupby("query_id", sort=True).head(r)

    # exact re-rank: candidates' true vectors via one pruned pass
    cand_ids = set(cand[id_col].tolist())
    vec_pdf = _fetch_rows_by_id(ds, id_col, cand_ids)
    vmap = {int(row[id_col]): _normalize(
        np.asarray(row[vec_col], np.float64)[None, :])[0]
        for _, row in vec_pdf.iterrows()}
    rows = []
    for qi, qid in enumerate(q_ids):
        ids_q = cand.loc[cand["query_id"] == qid, id_col].to_numpy()
        if len(ids_q) == 0:
            continue
        sims = np.array([vmap[int(i)] @ q_mat[qi] for i in ids_q])
        order = np.lexsort((ids_q, -sims))[:k]
        for rank, pos in enumerate(order, 1):
            rows.append((int(qid), int(ids_q[pos]), rank))
    return pd.DataFrame(rows, columns=["query_id", id_col, "rank"])


# ── SemDeDup: semantic dedup via k-means + within-cluster cosine ─────

def semdedup_keep(ds, *, id_col: str = "vec_id",
                  vec_col: str = "embedding", n_clusters: int = 16,
                  threshold: float = 0.95, n_iters: int = 8,
                  portable: bool = False):
    """SemDeDup (Abbas et al. 2023, arXiv:2303.09540): k-means cluster
    the embedding space, then within each cluster drop every item that
    has a LOWER-id neighbor at cosine ≥ threshold (deterministic — no
    greedy-order ambiguity). Returns (id, cluster, kept).

    Scale shape: centroids train distributed (one partial pass per
    Lloyd iteration — ``ivf_centroids_distributed``); assignment is a
    per-batch matmul against the broadcast codebook; the O(|cluster|²)
    similarity check runs inside a hash-bucketed shuffle keyed on
    cluster id. Partitioning assumption: n_clusters scales with the
    corpus (SemDeDup uses ~100k clusters at web scale) so per-cluster
    cost stays bounded; a skewed giant cluster needs a higher
    n_clusters, not a bigger worker."""
    import ray

    from pdf_to_text_ray.stages.groups import bucketed_group_apply

    cents = ivf_centroids_distributed(ds, n_clusters, n_iters=n_iters,
                                      vec_col=vec_col, id_col=id_col,
                                      portable=portable)
    ref = ray.put(cents)

    def assign(batch: pa.Table) -> pa.Table:
        c = ray.get(ref)
        m = _normalize(list_column_to_matrix(batch[vec_col]))
        if len(m) == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "cluster": pa.array([], pa.int64()),
                             vec_col: pa.array([], pa.list_(pa.float64()))})
        cid = np.argmax(m @ c.T, axis=1).astype(np.int64)
        return pa.table({id_col: batch[id_col],
                         "cluster": pa.array(cid, pa.int64()),
                         vec_col: batch[vec_col]})

    assigned = ds.map_batches(assign, batch_format="pyarrow")

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        for cid, g in df.groupby("cluster", sort=True):
            ids = g[id_col].to_numpy()
            order = np.argsort(ids)
            ids = ids[order]
            m = _normalize(np.stack(
                [np.asarray(v, np.float64) for v in g[vec_col]]))[order]
            # dup[j] := ∃ i<j with cos(i,j) ≥ τ  (strict upper triangle)
            sims = np.triu(m @ m.T >= threshold, 1)
            out.append(pd.DataFrame({
                id_col: ids, "cluster": cid, "kept": ~sims.any(axis=0)}))
        if not out:
            return pd.DataFrame({id_col: pd.Series([], dtype="int64"),
                                 "cluster": pd.Series([], dtype="int64"),
                                 "kept": pd.Series([], dtype=bool)})
        return pd.concat(out, ignore_index=True)

    return bucketed_group_apply(assigned, "cluster", per_bucket,
                                num_buckets=min(16, n_clusters))


def pca_fit(ds, *, vec_col: str = "embedding", k: int = 2):
    """Distributed PCA fit: ONE streaming pass emits per-batch moment
    partials (n, Σx, ΣxxT — d + d² doubles per batch, payload never
    concentrates), the driver combines them into the d×d covariance
    and eigendecomposes (d is model-dimension scale, not data scale;
    for d where d² breaks the driver you'd switch to randomized
    sketching). Returns (mean, components (k, d), explained_var (k,)).

    Eigenvector sign is pinned (largest-|coefficient| entry made
    positive) so projections are reproducible across runs."""

    def partial(t: pa.Table) -> pa.Table:
        x = list_column_to_matrix(t[vec_col])
        if len(x) == 0:
            return pa.table({"n": pa.array([], pa.int64()),
                             "d": pa.array([], pa.int64()),
                             "s": pa.array([], pa.large_binary()),
                             "ss": pa.array([], pa.large_binary())})
        return pa.table({
            "n": pa.array([len(x)], pa.int64()),
            "d": pa.array([x.shape[1]], pa.int64()),
            "s": pa.array([x.sum(0).tobytes()], pa.large_binary()),
            "ss": pa.array([(x.T @ x).tobytes()], pa.large_binary())})

    parts = ds.map_batches(partial, batch_format="pyarrow").take_all()
    if not parts:
        raise ValueError("empty dataset")
    d = int(parts[0]["d"])
    n = sum(p["n"] for p in parts)
    s = np.zeros(d)
    ss = np.zeros((d, d))
    for p in parts:
        s += np.frombuffer(p["s"], np.float64)
        ss += np.frombuffer(p["ss"], np.float64).reshape(d, d)
    mean = s / n
    cov = (ss - n * np.outer(mean, mean)) / max(n - 1, 1)
    w, v = np.linalg.eigh(cov)           # ascending
    idx = np.argsort(w)[::-1][:k]
    comps = v[:, idx].T                  # (k, d)
    flip = np.sign(comps[np.arange(k), np.abs(comps).argmax(axis=1)])
    comps *= np.where(flip == 0, 1.0, flip)[:, None]
    return mean, comps, w[idx]


def pca_fit_power(ds, *, vec_col: str = "embedding", k: int = 2,
                  iters: int = 30):
    """PCA fit via FIXED-ITERATION power method with deflation — the
    ORACLE-REPLAYABLE twin of :func:`pca_fit`: eigh is not
    SQL-expressible, but ``iters`` power steps from the deterministic
    all-ones start are a closed-form function of the covariance, so a
    DuckDB oracle unrolls the identical map and the results agree to
    float noise (~1e-13) whether or not the iteration has CONVERGED.
    Same one-pass distributed moment partials as pca_fit; iteration
    runs on the d×d covariance driver-side. Sign is determined by the
    iteration itself (positive start), no pinning step. Returns
    (mean, components (k, d), eigenvalue estimates (k,))."""
    def partial(t: pa.Table) -> pa.Table:
        x = list_column_to_matrix(t[vec_col])
        if len(x) == 0:
            return pa.table({"n": pa.array([], pa.int64()),
                             "d": pa.array([], pa.int64()),
                             "s": pa.array([], pa.large_binary()),
                             "ss": pa.array([], pa.large_binary())})
        return pa.table({
            "n": pa.array([len(x)], pa.int64()),
            "d": pa.array([x.shape[1]], pa.int64()),
            "s": pa.array([x.sum(0).tobytes()], pa.large_binary()),
            "ss": pa.array([(x.T @ x).tobytes()], pa.large_binary())})

    parts = ds.map_batches(partial, batch_format="pyarrow").take_all()
    if not parts:
        raise ValueError("empty dataset")
    d = int(parts[0]["d"])
    n = sum(p["n"] for p in parts)
    s = np.zeros(d)
    ss = np.zeros((d, d))
    for p in parts:
        s += np.frombuffer(p["s"], np.float64)
        ss += np.frombuffer(p["ss"], np.float64).reshape(d, d)
    mean = s / n
    cov = (ss - n * np.outer(mean, mean)) / max(n - 1, 1)
    comps = np.zeros((k, d))
    lams = np.zeros(k)
    c = cov.copy()
    for j in range(k):
        v = np.full(d, 1.0 / np.sqrt(d))
        for _ in range(iters):
            v = c @ v
            v /= np.linalg.norm(v)
        lam = float(v @ (c @ v))
        comps[j] = v
        lams[j] = lam
        c = c - lam * np.outer(v, v)  # deflate
    return mean, comps, lams


def pca_project(ds, mean: np.ndarray, comps: np.ndarray, *,
                id_col: str = "vec_id", vec_col: str = "embedding",
                keep_cols: tuple = ()):
    """Project every vector onto the fitted components — per-batch
    centered matmul against the broadcast (k, d) component matrix;
    output columns pc1..pck."""
    import ray

    ref = ray.put((mean, comps))

    def project(t: pa.Table) -> pa.Table:
        m, c = ray.get(ref)
        x = list_column_to_matrix(t[vec_col])
        p = (x - m[None, :]) @ c.T if len(x) else np.zeros((0, len(c)))
        cols = {id_col: t[id_col]}
        for kc in keep_cols:
            cols[kc] = t[kc]
        for j in range(comps.shape[0]):
            cols[f"pc{j + 1}"] = pa.array(p[:, j], pa.float64())
        return pa.table(cols)

    return ds.map_batches(project, batch_format="pyarrow")
