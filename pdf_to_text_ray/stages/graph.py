"""Iterative graph algorithms as repeated edge-scan rounds.

PageRank (Page et al. 1999) in the broadcast-rank shape: the rank and
out-degree vectors are bounded by the NODE count and ship once per
iteration (``ray.put``); the EDGE list — the big side at web scale —
stays a streaming Dataset that is scanned once per iteration with
per-batch partial contribution aggregation, then one small groupby
per round.

Partitioning assumption: node count ≪ edge count, so the rank vector
fits a broadcast array (10^9 nodes × 8 B = 8 GB is the practical
ceiling). Beyond that, ranks become a keyed dataset and each round is
a bucketed rank⋈edges join — same round structure, one extra shuffle
per iteration (the components rounds in ``dedup.minlabel_components``
already demonstrate that shape).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

from pdf_to_text_ray.stages.groups import arrow_out
from pdf_to_text_ray.stages.joins import probe_sorted


def pagerank(edges, *, src_col: str = "src", dst_col: str = "dst",
             damping: float = 0.85, iters: int = 5,
             checkpoint_dir: str | None = None) -> pd.DataFrame:
    """PageRank over a directed edge Dataset where every node has
    out-degree ≥ 1 (feed an undirected graph as both edge directions —
    then there is no dangling-mass term). Returns (node, rank).

    Each iteration: map_batches over edges emits per-batch partial
    (dst, Σ r[src]/deg[src]) rows; a groupby-sum reduces them; the
    driver rebuilds the dense rank vector (O(N) work, N = #nodes).
    Deterministic to float-summation order at ~1e-16 — callers
    comparing across engines should round.

    ``checkpoint_dir``: write the rank vector after every iteration
    (atomic rename) and resume from the newest complete checkpoint —
    a killed 50-iteration job on 10^11 edges redoes only its current
    iteration. Checkpoints are keyed by iteration index; a caller
    changing the graph must use a fresh directory.
    """
    import ray

    # The edge list is scanned iters+1 times; pin its blocks in the
    # object store once instead of re-executing the upstream plan
    # (join + distinct) every iteration.
    edges = edges.materialize()
    # degrees: per-batch value_counts partials merged on the driver —
    # the driver already holds the O(N) rank vector, and a partial is
    # ≤ N rows per block, so this adds no new memory class while
    # skipping a whole Aggregate exchange (Ray's sort aggregate costs
    # seconds of per-group Python at graph node counts)
    def _deg_part(t: pa.Table) -> pa.Table:
        c = pd.Series(t[src_col].to_numpy(zero_copy_only=False)) \
            .value_counts()
        return arrow_out(pd.DataFrame({
            "node": c.index.to_numpy(),
            "c": c.to_numpy().astype("int64")}))

    deg_s = (edges.map_batches(_deg_part, batch_format="pyarrow")
             .to_pandas().groupby("node")["c"].sum())
    nodes = np.sort(deg_s.index.to_numpy())
    deg = deg_s.reindex(nodes).to_numpy().astype(np.float64)
    n = len(nodes)
    if n == 0:
        return pd.DataFrame({"node": pd.Series([], dtype="int64"),
                             "rank": pd.Series([], dtype="float64")})
    rank = np.full(n, 1.0 / n)

    start = 0
    if checkpoint_dir:
        os.makedirs(checkpoint_dir, exist_ok=True)
        done = sorted(
            int(f.split("_")[1].split(".")[0])
            for f in os.listdir(checkpoint_dir)
            if f.startswith("iter_") and f.endswith(".npy"))
        done = [i for i in done if i <= iters]
        if done:
            start = done[-1]
            rank = np.load(os.path.join(checkpoint_dir,
                                        f"iter_{start}.npy"))

    for _it in range(start, iters):
        ref = ray.put((nodes, rank / deg))

        def contrib(t: pa.Table) -> pa.Table:
            nd, w = ray.get(ref)
            s = t[src_col].to_numpy(zero_copy_only=False)
            idx = np.searchsorted(nd, s)  # every src is a known node
            part = pd.DataFrame({"v": t[dst_col].to_numpy(
                zero_copy_only=False), "s": w[idx]})
            return arrow_out(part.groupby("v", as_index=False)["s"].sum())

        # partials are ≤ N rows per block; merge them where the dense
        # vector already lives instead of paying an Aggregate exchange
        # per iteration
        parts = (edges.map_batches(contrib, batch_format="pyarrow")
                 .to_pandas())
        inflow = (parts.groupby("v")["s"].sum()
                  .reindex(nodes, fill_value=0.0).to_numpy())
        rank = (1.0 - damping) / n + damping * inflow
        if checkpoint_dir:
            tmp = os.path.join(checkpoint_dir, f".tmp_iter_{_it + 1}.npy")
            np.save(tmp, rank)
            os.replace(tmp, os.path.join(checkpoint_dir,
                                         f"iter_{_it + 1}.npy"))

    return pd.DataFrame({"node": nodes.astype(np.int64), "rank": rank})


def hits(edges, *, src_col: str = "src", dst_col: str = "dst",
         iters: int = 5) -> pd.DataFrame:
    """HITS hubs/authorities (Kleinberg 1999) in the same
    broadcast-vector + streaming-edge-scan shape as ``pagerank``:
    each iteration is two edge scans — auth(v) = Σ hub(u) over
    in-edges, then hub(u) = Σ auth(v) over out-edges — each an
    L2-normalized groupby-sum round. Returns (node, hub, authority).

    Same partitioning assumption as pagerank: node vectors broadcast,
    the edge list streams."""
    import ray

    edges = edges.materialize()

    def _node_part(t: pa.Table) -> pa.Table:
        u = np.unique(np.concatenate(
            [t[src_col].to_numpy(zero_copy_only=False),
             t[dst_col].to_numpy(zero_copy_only=False)]))
        return pa.table({"node": pa.array(u)})

    nodes = np.unique(edges.map_batches(_node_part,
                                        batch_format="pyarrow")
                      .to_pandas()["node"].to_numpy())
    n = len(nodes)
    if n == 0:
        return pd.DataFrame({"node": pd.Series([], dtype="int64"),
                             "hub": pd.Series([], dtype="float64"),
                             "authority": pd.Series([], dtype="float64")})
    hub = np.full(n, 1.0 / np.sqrt(n))
    auth = np.full(n, 1.0 / np.sqrt(n))

    def _push(vec: np.ndarray, key_col: str, out_col: str) -> np.ndarray:
        ref = ray.put((nodes, vec))

        def contrib(t: pa.Table) -> pa.Table:
            nd, w = ray.get(ref)
            idx = np.searchsorted(nd, t[key_col].to_numpy(
                zero_copy_only=False))
            part = pd.DataFrame({"v": t[out_col].to_numpy(
                zero_copy_only=False), "s": w[idx]})
            return arrow_out(part.groupby("v", as_index=False)["s"].sum())

        parts = (edges.map_batches(contrib, batch_format="pyarrow")
                 .to_pandas())
        out = (parts.groupby("v")["s"].sum()
               .reindex(nodes, fill_value=0.0).to_numpy())
        norm = np.sqrt((out * out).sum())
        return out / norm if norm > 0 else out

    for _ in range(iters):
        auth = _push(hub, src_col, dst_col)
        hub = _push(auth, dst_col, src_col)

    return pd.DataFrame({"node": nodes.astype(np.int64),
                         "hub": hub, "authority": auth})


# Oriented-edge count up to which triangle_count closes wedges against
# one broadcast edge-key array (read at call time).
BROADCAST_EDGES_MAX = 5_000_000


def triangle_count(edges, *, u_col: str = "u", v_col: str = "v",
                   num_buckets: int = 32) -> pd.DataFrame:
    """Exact triangle count over an undirected edge Dataset (rows may
    be in either vertex order; parallel duplicates are deduped here).
    Returns a 1-row DataFrame (n_triangles).

    The MapReduce-classic degree-ordered orientation (Suri & Vassilvitskii
    2011, "Counting Triangles and the Curse of the Last Reducer"):
    orient every edge from its lower-(degree, id) endpoint to the
    higher one, so per-node out-degree is O(√m) and total wedge volume
    is O(m^1.5) instead of Σ deg² — the hot-vertex (celebrity) skew
    killer. Rounds, all payload-free int pairs:

      1. one bucketed exchange to dedup/canonicalize edges,
      2. one bucketed exchange for degrees (node count ≪ edge count;
         the (node, orientation-rank) arrays broadcast once via
         ray.put),
      3. one bucketed shuffle by wedge-center to explode each node's
         out-neighbor pairs (vectorized triu per center),
      4. closure check. With ≤ ``BROADCAST_EDGES_MAX`` edges whose
         ids fit 31 bits, the oriented edge set ships ONCE as a sorted
         packed-uint64 array and every bucket closes its own wedges
         with one sorted-key probe — the O(m^1.5) wedge stream never
         leaves its bucket. Bigger graphs: wedges pre-aggregate per
         bucket to (a, b, cnt) and meet the oriented edges in a second
         bucketed exchange — nothing graph-sized on the driver or in
         any broadcast.
    """
    import ray
    from pdf_to_text_ray.stages.groups import bucketed_group_apply

    # canonicalize (min, max) + dedup: ONE payload-free groupby
    def canon(t: pa.Table) -> pa.Table:
        a = t[u_col].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t[v_col].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = a != b  # self-loops close no triangles
        lo, hi = np.minimum(a[keep], b[keep]), np.maximum(a[keep], b[keep])
        return pa.table({"u": lo, "v": hi})

    # dedup via ONE hash-bucket exchange + vectorized per-bucket
    # drop_duplicates (bucketing on u co-locates every (u, v)
    # duplicate) — Ray's sort aggregate walks the ~|E| one-row edge
    # groups at Python speed (measured 25 s vs 1 s at sf0.1)
    def dedup_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(["u", "v"])

    e = bucketed_group_apply(
        edges.map_batches(canon, batch_format="pyarrow"), "u",
        dedup_bucket, num_buckets=num_buckets).materialize()

    # degree → orientation rank (dense by (deg, id)); broadcast arrays
    def endpoints(t: pa.Table) -> pa.Table:
        return pa.table({"node": pa.concat_arrays(
            [t["u"].combine_chunks(), t["v"].combine_chunks()])})

    def degree_bucket(g: pd.DataFrame) -> pd.DataFrame:
        c = g["node"].value_counts()
        return pd.DataFrame({"node": c.index.to_numpy(),
                             "deg": c.to_numpy().astype("int64")})

    deg_pdf = bucketed_group_apply(
        e.map_batches(endpoints, batch_format="pyarrow"), "node",
        degree_bucket, num_buckets=num_buckets).to_pandas()
    if deg_pdf.empty:  # no non-loop edges → no triangles
        return pd.DataFrame({"n_triangles": pd.Series([0], dtype="int64")})
    nodes = deg_pdf["node"].to_numpy().astype(np.int64)
    degs = deg_pdf["deg"].to_numpy().astype(np.int64)
    order = np.argsort(nodes, kind="stable")
    nodes, degs = nodes[order], degs[order]
    rank = np.empty(len(nodes), dtype=np.int64)
    rank[np.lexsort((nodes, degs))] = np.arange(len(nodes))
    ref = ray.put((nodes, rank))

    def orient(t: pa.Table) -> pa.Table:
        nd, rk = ray.get(ref)
        a = t["u"].to_numpy(zero_copy_only=False)
        b = t["v"].to_numpy(zero_copy_only=False)
        ra, rb = rk[np.searchsorted(nd, a)], rk[np.searchsorted(nd, b)]
        swap = ra > rb
        src = np.where(swap, b, a)
        dst = np.where(swap, a, b)
        return pa.table({"src": src.astype(np.int64),
                         "dst": dst.astype(np.int64)})

    oriented = e.map_batches(orient, batch_format="pyarrow")

    # wedge explosion per center — vectorized ACROSS groups (one rank
    # lookup + one lexsort for the whole bucket, pair indices built
    # from per-group offsets; no per-center Python iteration, per
    # groups.py's own contract)
    def _wedge_pairs(g: pd.DataFrame):
        nd, rk = ray.get(ref)
        src = g["src"].to_numpy()
        dst = g["dst"].to_numpy()
        # sort rows by (src, rank(dst)) so each center's neighbors are
        # contiguous and orientation-ordered
        rdst = rk[np.searchsorted(nd, dst)]
        order = np.lexsort((rdst, src))
        src, dst = src[order], dst[order]
        # group boundaries over the sorted src column
        change = np.flatnonzero(np.diff(src)) + 1
        starts = np.concatenate(([0], change))
        ends = np.concatenate((change, [len(src)]))
        sizes = ends - starts
        keep = sizes >= 2
        starts, sizes = starts[keep], sizes[keep]
        if len(starts) == 0:
            z = np.empty(0, np.int64)
            return z, z
        # triu pair indices for every group at once: for group of size
        # k, pairs (i, j) with i < j, both offset by the group start
        n_pairs = sizes * (sizes - 1) // 2
        grp_of_pair = np.repeat(np.arange(len(sizes)), n_pairs)
        # within-group pair ordinal 0..n_pairs-1
        pair_ord = (np.arange(len(grp_of_pair))
                    - np.repeat(np.concatenate(([0],
                                np.cumsum(n_pairs)[:-1])), n_pairs))
        k = sizes[grp_of_pair].astype(np.float64)
        # invert ordinal -> (i, j) of the upper triangle, row-major:
        # ordinal = i*(2k-i-1)/2 + (j-i-1)
        i = np.floor(((2 * k - 1)
                      - np.sqrt((2 * k - 1) ** 2 - 8 * pair_ord)) / 2)\
            .astype(np.int64)
        before = (i * (2 * sizes[grp_of_pair] - i - 1)) // 2
        j = (pair_ord - before) + i + 1
        base = starts[grp_of_pair]
        return dst[base + i], dst[base + j]

    n_edges = e.count()
    max_node = int(nodes.max())
    if (n_edges <= BROADCAST_EDGES_MAX and 0 <= max_node < 2 ** 31
            and int(nodes.min()) >= 0):
        # bounded broadcast (≤ 8 B × BROADCAST_EDGES_MAX): the packed
        # sorted edge-key array closes every wedge in its own bucket
        ep = oriented.to_pandas()
        ekeys = np.sort((ep["src"].to_numpy().astype(np.uint64)
                         << np.uint64(32))
                        | ep["dst"].to_numpy().astype(np.uint64))
        eref = ray.put(ekeys)

        def close_in_place(g: pd.DataFrame) -> pd.DataFrame:
            a, b = _wedge_pairs(g)
            if len(a) == 0:
                return pd.DataFrame({"tri": pd.Series([0], dtype="int64")})
            keys = (a.astype(np.uint64) << np.uint64(32)) \
                | b.astype(np.uint64)
            hit, _ = probe_sorted(ray.get(eref), keys)
            return pd.DataFrame({"tri":
                                 pd.Series([int(hit.sum())],
                                           dtype="int64")})

        parts = bucketed_group_apply(oriented, "src", close_in_place,
                                     num_buckets=num_buckets).to_pandas()
        return pd.DataFrame({"n_triangles":
                             pd.Series([int(parts["tri"].sum())],
                                       dtype="int64")})

    def wedges_bucket(g: pd.DataFrame) -> pd.DataFrame:
        a, b = _wedge_pairs(g)
        if len(a) == 0:
            return pd.DataFrame({"a": pd.Series([], dtype="int64"),
                                 "b": pd.Series([], dtype="int64"),
                                 "cnt": pd.Series([], dtype="int64"),
                                 "kind": pd.Series([], dtype="int8")})
        w = (pd.DataFrame({"a": a, "b": b})
             .groupby(["a", "b"], sort=False, as_index=False).size()
             .rename(columns={"size": "cnt"}))
        w["cnt"] = w["cnt"].astype("int64")
        w["kind"] = np.int8(0)
        return w

    wedge_ds = bucketed_group_apply(oriented, "src", wedges_bucket,
                                    num_buckets=num_buckets)

    def tag_edges(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table({"a": t["src"], "b": t["dst"],
                         "cnt": pa.array(np.ones(n, np.int64)),
                         "kind": pa.array(np.zeros(n, np.int8) + 1)})

    tagged = wedge_ds.union(oriented.map_batches(tag_edges,
                                                 batch_format="pyarrow"))

    # closure: wedge (a,b) is a triangle iff oriented edge (a,b) exists
    def close_bucket(g: pd.DataFrame) -> pd.DataFrame:
        ed = g[g["kind"] == 1][["a", "b"]]
        wd = g[g["kind"] == 0]
        tri = int(wd.merge(ed, on=["a", "b"], how="inner")["cnt"].sum())
        return pd.DataFrame({"tri": pd.Series([tri], dtype="int64")})

    parts = bucketed_group_apply(tagged, ["a", "b"], close_bucket,
                                 num_buckets=num_buckets).to_pandas()
    return pd.DataFrame({"n_triangles":
                         pd.Series([int(parts["tri"].sum())], dtype="int64")})
