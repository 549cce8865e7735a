"""Mergeable sketches: HyperLogLog distinct counting.

The canonical at-scale aggregation shape (ray_guide "Aggregation at
scale"): each batch emits ONE serialized sketch; sketches merge
associatively in a tiny second stage — no shuffle of raw values.

HLL per Flajolet et al. 2007 ("HyperLogLog: the analysis of a
near-optimal cardinality estimation algorithm") with the standard bias
correction for small/large ranges. Hashes via pandas' stable siphash
(process-stable, seeded)."""

from __future__ import annotations

import numpy as np
import pandas as pd

HLL_P = 12                     # 2^12 = 4096 registers → ~1.6% std error
HLL_M = 1 << HLL_P
_ALPHA = 0.7213 / (1 + 1.079 / HLL_M)


def hll_sketch(values) -> np.ndarray:
    """(HLL_M,) uint8 register array for a batch of values."""
    arr = np.asarray(values, dtype=object)
    regs = np.zeros(HLL_M, dtype=np.uint8)
    if len(arr) == 0:
        return regs
    h = pd.util.hash_array(arr)  # stable 64-bit
    idx = (h >> np.uint64(64 - HLL_P)).astype(np.int64)
    rest = (h << np.uint64(HLL_P)) | np.uint64((1 << HLL_P) - 1)
    # rank = leading zeros of the remaining 64-P bits + 1
    lz = np.zeros(len(h), dtype=np.uint8)
    mask = np.uint64(1) << np.uint64(63)
    cur = rest.copy()
    found = np.zeros(len(h), dtype=bool)
    for r in range(1, 64 - HLL_P + 2):
        hit = (~found) & ((cur & mask) != 0)
        lz[hit] = r
        found |= hit
        if found.all():
            break
        cur = cur << np.uint64(1)
    np.maximum.at(regs, idx, lz)
    return regs


def hll_merge(sketches: list[np.ndarray]) -> np.ndarray:
    out = np.zeros(HLL_M, dtype=np.uint8)
    for s in sketches:
        np.maximum(out, s, out=out)
    return out


def hll_estimate(regs: np.ndarray) -> float:
    est = _ALPHA * HLL_M * HLL_M / np.sum(np.float64(2.0) ** -regs.astype(np.float64))
    zeros = int((regs == 0).sum())
    if est <= 2.5 * HLL_M and zeros:
        est = HLL_M * np.log(HLL_M / zeros)  # linear counting
    return float(est)


def approx_distinct(ds, col: str) -> float:
    """Distributed approximate COUNT(DISTINCT col): one sketch per
    batch (serialized bytes), merged on the driver (4 KiB each)."""
    import pyarrow as pa

    def batch_sketch(b: pa.Table) -> pa.Table:
        s = hll_sketch(b[col].to_pylist())
        return pa.table({"sketch": pa.array([s.tobytes()], pa.binary())})

    parts = ds.map_batches(batch_sketch, batch_format="pyarrow").to_pandas()
    merged = hll_merge([np.frombuffer(buf, dtype=np.uint8) for buf in parts["sketch"]])
    return hll_estimate(merged)


# ── Misra-Gries heavy hitters (exact via candidate verify pass) ──────

_TOKEN_SPLIT_RE = None


def _token_split():
    """lower + split on non-[a-z0-9] — mirrored exactly by the DuckDB
    oracle's string_split_regex so hashes match."""
    global _TOKEN_SPLIT_RE
    if _TOKEN_SPLIT_RE is None:
        import re

        _TOKEN_SPLIT_RE = re.compile(r"[^a-z0-9]+")
    return _TOKEN_SPLIT_RE


def tokenize_ascii(text: str) -> list[str]:
    return [t for t in _token_split().split(text.lower()) if t]


def mg_summary(counter: dict, capacity: int) -> dict:
    """Trim a counter to a Misra-Gries summary of ≤ ``capacity``
    entries: subtract the (capacity+1)-largest count from everything
    and drop non-positives. Mergeable: summing two summaries then
    trimming again keeps the MG error bound (Agarwal et al., PODS'12
    'Mergeable Summaries')."""
    if len(counter) <= capacity:
        return dict(counter)
    thresh = sorted(counter.values(), reverse=True)[capacity]
    return {k: v - thresh for k, v in counter.items() if v > thresh}


def heavy_hitter_tokens(ds, k: int = 20, *, text_col: str = "text",
                        capacity: int = 4096) -> "object":
    """EXACT top-k most frequent tokens (count desc, token asc ties)
    in two streaming passes — the raw token stream never shuffles:

    1. per-batch token Counter → MG summary (≤ capacity rows of
       (token, cnt) each) → groupby-sum → driver trim to the merged MG
       summary. Every token with true frequency > N/capacity is
       guaranteed present (N = total tokens), so for any k whose true
       k-th count exceeds N/capacity the candidate set is a superset
       of the true top-k.
    2. exact counts for the ~capacity candidates only (broadcast set,
       per-batch filtered Counter) → tiny groupby-sum → top-k.
    """
    import collections

    import pandas as pd
    import pyarrow as pa
    import ray
    from ray.data.aggregate import Sum

    def batch_mg(t: pa.Table) -> pa.Table:
        c: collections.Counter = collections.Counter()
        for s in t[text_col].to_pylist():
            c.update(tokenize_ascii(s or ""))
        s = mg_summary(c, capacity)
        return pa.table({"token": pa.array(list(s.keys()), pa.string()),
                         "cnt": pa.array(list(s.values()), pa.int64())})

    merged = (
        ds.map_batches(batch_mg, batch_format="pyarrow")
        .groupby("token").aggregate(Sum("cnt", alias_name="cnt"))
        .to_pandas()
    )
    cand = set(mg_summary(
        dict(zip(merged["token"], merged["cnt"])), capacity).keys())
    cand_ref = ray.put(cand)

    def batch_exact(t: pa.Table) -> pa.Table:
        keep = ray.get(cand_ref)
        c: collections.Counter = collections.Counter()
        for s in t[text_col].to_pylist():
            c.update(tok for tok in tokenize_ascii(s or "") if tok in keep)
        return pa.table({"token": pa.array(list(c.keys()), pa.string()),
                         "cnt": pa.array(list(c.values()), pa.int64())})

    exact = (
        ds.map_batches(batch_exact, batch_format="pyarrow")
        .groupby("token").aggregate(Sum("cnt", alias_name="cnt"))
        .to_pandas()
    )
    out = exact.sort_values(["cnt", "token"], ascending=[False, True],
                            kind="mergesort").head(k)
    out["cnt"] = out["cnt"].astype("int64")
    return out[["token", "cnt"]].reset_index(drop=True)


# ── mergeable equi-depth quantile sketch ─────────────────────────────

def quantile_sketch_batch(vals: np.ndarray, size: int = 512):
    """(values, weights) summary of one batch: ``size`` evenly spaced
    order statistics, each carrying weight n/size. Deterministic, one
    pass, 16·size bytes — the equi-depth histogram summary (cf.
    Greenwald-Khanna / KLL motivation; this is the simple mergeable
    variant with rank error ≤ n_batch/size per batch)."""
    v = np.sort(np.asarray(vals, np.float64))
    n = len(v)
    if n == 0:
        return np.empty(0), np.empty(0)
    if n <= size:
        return v, np.ones(n)
    idx = ((np.arange(size) + 0.5) * n / size).astype(np.int64)
    return v[idx], np.full(size, n / size)


def merged_quantile(values: np.ndarray, weights: np.ndarray,
                    qs: list[float]) -> list[float]:
    """Weighted quantile over concatenated batch summaries."""
    order = np.argsort(values, kind="mergesort")
    v, w = values[order], weights[order]
    cum = np.cumsum(w)
    total = cum[-1]
    out = []
    for q in qs:
        target = max(q * total, 1e-12)
        out.append(float(v[min(int(np.searchsorted(cum, target)),
                               len(v) - 1)]))
    return out


def approx_quantiles(ds, col: str, qs: list[float], *,
                     size: int = 512) -> list[float]:
    """One-pass approximate quantiles: each batch ships a 512-point
    equi-depth summary (vs the exact engine's multi-round refinement
    in stages/quantiles.py — this is the cheap screen, that is the
    exact answer)."""
    import pyarrow as pa

    def batch_summary(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        v = pc.drop_null(t[col]).to_numpy(zero_copy_only=False)
        sv, sw = quantile_sketch_batch(v, size)
        return pa.table({"v": pa.array(sv, pa.float64()),
                         "w": pa.array(sw, pa.float64())})

    pdf = ds.map_batches(batch_summary, batch_format="pyarrow").to_pandas()
    if pdf.empty:
        return [float("nan")] * len(qs)
    return merged_quantile(pdf["v"].to_numpy(), pdf["w"].to_numpy(), qs)


# ── Bloom filter (mergeable membership sketch) ───────────────────────
#
# Per-batch packed bitmaps OR-merge associatively — the same
# shuffle-free shape as the HLL above. k probe positions per element
# via double hashing (Kirsch & Mitzenmacher 2006, "Less hashing, same
# performance"): pos_i = (h + i·h2) mod m with h2 forced odd.

_BLOOM_C1 = np.uint64(0x9E3779B97F4A7C15)


def bloom_positions(h: np.ndarray, m_bits: int, k: int) -> np.ndarray:
    """(k, n) probe positions for stable 64-bit element hashes ``h``.
    ``m_bits`` must be a power of two (mask, not modulo)."""
    h = np.asarray(h, dtype=np.uint64)
    h2 = (h * _BLOOM_C1) | np.uint64(1)
    mask = np.uint64(m_bits - 1)
    out = np.empty((k, len(h)), np.uint64)
    for i in range(k):
        out[i] = (h + np.uint64(i) * h2) & mask
    return out


def bloom_add(words: np.ndarray, h: np.ndarray, *, m_bits: int,
              k: int) -> None:
    """Set the probe bits of hashes ``h`` in the packed uint64 bitmap
    ``words`` (in place)."""
    if len(h) == 0:
        return
    pos = bloom_positions(h, m_bits, k).ravel()
    np.bitwise_or.at(words, (pos >> np.uint64(6)).astype(np.int64),
                     np.uint64(1) << (pos & np.uint64(63)))


def bloom_contains(words: np.ndarray, h: np.ndarray, *, m_bits: int,
                   k: int) -> np.ndarray:
    """Membership verdicts for hashes ``h``: True = maybe present
    (false positives possible), False = definitely absent."""
    if len(h) == 0:
        return np.zeros(0, dtype=bool)
    pos = bloom_positions(h, m_bits, k)
    bits = (words[(pos >> np.uint64(6)).astype(np.int64)]
            >> (pos & np.uint64(63))) & np.uint64(1)
    return bits.all(axis=0)


def md5_bloom_positions(grams: list[str], m_bits: int,
                        k: int = 3) -> np.ndarray:
    """(k, n) probe positions straight from md5 hex slices — the
    engine-portable twin of :func:`bloom_positions`: position i of a
    gram is its md5 hexdigest's i-th 8-hex-char slice masked to the
    filter width, which DuckDB computes verbatim as
    ``('0x' || substr(md5(gram), 1 + 8*i, 8))::UBIGINT & (m - 1)``.
    k ≤ 4 (md5 has 32 hex chars). ``m_bits`` must be a power of two."""
    import hashlib

    assert k <= 4
    mask = m_bits - 1
    out = np.empty((k, len(grams)), np.uint64)
    for j, g in enumerate(grams):
        hx = hashlib.md5(g.encode()).hexdigest()
        for i in range(k):
            out[i, j] = int(hx[8 * i:8 * i + 8], 16) & mask
    return out


def bloom_add_md5(words: np.ndarray, grams: list[str], *, m_bits: int,
                  k: int = 3) -> None:
    """Set the md5-slice probe bits of ``grams`` in the packed bitmap."""
    if not grams:
        return
    pos = md5_bloom_positions(grams, m_bits, k).ravel()
    np.bitwise_or.at(words, (pos >> np.uint64(6)).astype(np.int64),
                     np.uint64(1) << (pos & np.uint64(63)))


def bloom_contains_md5(words: np.ndarray, grams: list[str], *,
                       m_bits: int, k: int = 3) -> np.ndarray:
    """Membership verdicts for ``grams`` under md5-slice positions."""
    if not grams:
        return np.zeros(0, dtype=bool)
    pos = md5_bloom_positions(grams, m_bits, k)
    bits = (words[(pos >> np.uint64(6)).astype(np.int64)]
            >> (pos & np.uint64(63))) & np.uint64(1)
    return bits.all(axis=0)


def bloom_corpus_ngrams(ds, *, text_col: str = "text", n: int = 13,
                        m_bits: int = 1 << 23, k: int = 3,
                        gram_hash: str = "sip") -> np.ndarray:
    """Distributed bloom build over ALL word n-grams of a corpus: each
    batch emits ONE packed bitmap (m_bits/8 bytes); the driver
    OR-reduces B bitmaps. The gram stream itself never shuffles —
    traffic is B × m/8 bytes regardless of corpus size. Size m to the
    expected distinct-gram count (load factor k·n_grams/m ≪ 1).
    ``gram_hash``: "sip" (vectorized siphash positions — the fast
    default) or "md5" (md5-slice positions via
    :func:`md5_bloom_positions`, SQL-replayable end to end)."""
    import pyarrow as pa

    from pdf_to_text_ray.stages.analysis import _gram_hashes

    def partial(t: pa.Table) -> pa.Table:
        words = np.zeros(m_bits // 64, np.uint64)
        for text in t[text_col].to_pylist():
            toks = (text or "").lower().split()
            if gram_hash == "md5":
                grams = [" ".join(toks[i:i + n])
                         for i in range(len(toks) - n + 1)]
                bloom_add_md5(words, grams, m_bits=m_bits, k=k)
            else:
                bloom_add(words, _gram_hashes(toks, n),
                          m_bits=m_bits, k=k)
        return pa.table({"bloom": pa.array([words.tobytes()], pa.binary())})

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    acc = np.zeros(m_bits // 64, np.uint64)
    for buf in parts["bloom"]:
        acc |= np.frombuffer(buf, dtype=np.uint64)
    return acc


def md5_uniform(ids) -> np.ndarray:
    """Engine-portable deterministic uniform in [0, 1) per id: first 8
    md5 hex digits / 2^32 — DuckDB computes the identical double via
    ('0x' || substr(md5(id::VARCHAR), 1, 8))::UBIGINT / 4294967296.0
    (property-tested exact in test_property.py). THE single source for
    every split/sample that needs a portable uniform.

    ``ids`` are integers or strings, in a list or an Arrow array; an
    integer hashes as its decimal text. The digests come from the
    vectorized ``md5np.md5_prefix64`` kernel."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from .md5np import md5_prefix64

    if not isinstance(ids, (pa.Array, pa.ChunkedArray)):
        ids = pa.array(ids)
    h = md5_prefix64(pc.cast(ids, pa.string())) >> np.uint64(32)
    return h.astype(np.float64) / 4294967296.0


def assign_split(ids, train: float = 0.8, val: float = 0.9) -> np.ndarray:
    """Deterministic train/val/test assignment on the md5 uniform."""
    u = md5_uniform(ids)
    return np.where(u < train, "train", np.where(u < val, "val", "test"))
