"""Deduplication family for web-scale corpora.

The reference has no dedup (single-document flow); the north rule's
10^12-document scale makes these first-class:

- **exact**: content hash (md5) → hash-partitioned groupby → keep the
  smallest key per group. One all-to-all on the (small) hash column.
- **MinHash + LSH near-dup** (Broder 1997; LSH banding per Leskovec/
  Rajaraman/Ullman, "Mining of Massive Datasets" ch.3): char-shingle →
  64 minhashes → 16 bands × 4 rows → `groupby(band, band_hash)` →
  candidate pairs → exact-Jaccard verification.
- **SimHash** (Charikar 2002; Manku et al. 2007 for the banded Hamming
  search): 64-bit token-weight signature; pairs within Hamming ≤ k
  found via 4 × 16-bit band tables (pigeonhole guarantee for k ≤ 3).

Everything per-batch is numpy-vectorized; hashes are seeded constants
(no Python ``hash()``), so results are stable across processes — a
requirement for resumable runs.

Scale notes: candidate generation shuffles only (band, band_hash,
doc_id) triples, never text. Verification joins text back by doc_id —
broadcast at test scale (``ray.put``), hash-partitioned join at corpus
scale (bucket column on both sides; documented assumption: candidate
set ≪ corpus).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

from .analysis import kgram_hashes
from .joins import bucketed_hash_join, probe_sorted

NUM_PERMS = 64
NUM_BANDS = 16
ROWS_PER_BAND = NUM_PERMS // NUM_BANDS

# Fixed odd multipliers/offsets for the 2^64-universe permutation family
# h_i(x) = a_i * x + b_i (mod 2^64) — seeded, process-stable.
_rng = np.random.RandomState(0xC0FFEE)
_PERM_A = (_rng.randint(1, 2**62, size=NUM_PERMS).astype(np.uint64) << np.uint64(1)) | np.uint64(1)
_PERM_B = _rng.randint(0, 2**62, size=NUM_PERMS).astype(np.uint64)
_BAND_MIX = (_rng.randint(1, 2**62, size=ROWS_PER_BAND).astype(np.uint64) << np.uint64(1)) | np.uint64(1)
del _rng

# Candidate-pair count above which minhash_neardup_pairs verifies
# through the bucketed shingle joins instead of one broadcast
# id→shingles map (read at call time).
JOIN_VERIFY_ABOVE = 50_000


def content_hash(text: str) -> str:
    return hashlib.md5((text or "").encode("utf-8")).hexdigest()


def exact_dedup(ds, key_col: str = "doc_id", text_col: str = "text"):
    """Exact dedup: min key per content hash. Returns (text_hash, doc_id).

    Pattern: hash inside map_batches on the ARROW batch (only the text
    column is materialized as Python strings; no pandas copy of the
    block), then a groupby over the small (hash, key) projection only —
    payload never shuffles."""
    from ray.data.aggregate import Min

    def hash_batch(t: pa.Table) -> pa.Table:
        return pa.table({
            "text_hash": pa.array([content_hash(x) for x in
                                   t[text_col].to_pylist()], pa.string()),
            key_col: t[key_col],
        })

    hashed = ds.map_batches(hash_batch, batch_format="pyarrow")
    return hashed.groupby("text_hash").aggregate(Min(key_col, alias_name=key_col))


# ── MinHash ───────────────────────────────────────────────────────────

def shingle_hashes(text: str, k: int = 5) -> np.ndarray:
    """Distinct 64-bit hashes of the text's char k-grams (whitespace-
    normalized, lowercased)."""
    norm = " ".join((text or "").lower().split())
    return np.unique(kgram_hashes(norm, k))


def minhash_signature(shingles: np.ndarray) -> np.ndarray:
    """(NUM_PERMS,) uint64 signature."""
    if len(shingles) == 0:
        return np.zeros(NUM_PERMS, dtype=np.uint64)
    # (n, P) wrap-mod-2^64 universal-ish permutations
    h = shingles[:, None] * _PERM_A[None, :] + _PERM_B[None, :]
    return h.min(axis=0)


def band_hashes(sig: np.ndarray) -> np.ndarray:
    """(NUM_BANDS,) uint64 — one mixed hash per band of the signature."""
    bands = sig.reshape(NUM_BANDS, ROWS_PER_BAND)
    return (bands * _BAND_MIX[None, :]).sum(axis=1, dtype=np.uint64)


def minhash_bands_batch(batch, key_col: str = "doc_id",
                        text_col: str = "text", k: int = 5) -> pd.DataFrame:
    """Explode each doc → NUM_BANDS (band, band_hash, key) rows.
    Accepts an Arrow table (zero pandas copy of the block; only the
    text column materializes as Python strings) or a pandas frame.

    Key dtype comes from the input column (``np.repeat`` of its numpy
    values), so empty batches — possible after upstream filters — carry
    the same schema as non-empty ones instead of float64-defaulted
    columns poisoning the concatenated dataset."""

    if isinstance(batch, pa.Table):
        texts = batch[text_col].to_pylist()
        keys = batch[key_col].to_numpy(zero_copy_only=False)
    else:
        texts = batch[text_col].fillna("").tolist()
        keys = batch[key_col].to_numpy()
    n = len(texts)
    bh = (
        np.stack([
            band_hashes(minhash_signature(shingle_hashes(text or "", k)))
            for text in texts
        ])
        if n
        else np.zeros((0, NUM_BANDS), dtype=np.uint64)
    )
    return pd.DataFrame(
        {
            key_col: np.repeat(keys, NUM_BANDS),
            "band": np.tile(np.arange(NUM_BANDS, dtype=np.int32), n),
            "band_hash": bh.reshape(-1).astype(np.uint64).astype(np.int64),
        }
    )


def jaccard(a: np.ndarray, b: np.ndarray) -> float:
    if len(a) == 0 and len(b) == 0:
        return 1.0
    inter = len(np.intersect1d(a, b, assume_unique=True))
    union = len(a) + len(b) - inter
    return inter / union if union else 0.0


def minhash_neardup_pairs(ds, *, key_col: str = "doc_id", text_col: str = "text",
                          k: int = 5, threshold: float = 0.7,
                          max_bucket: int = 200, output: str = "pandas"):
    """Full near-dup pipeline → (id_a, id_b, jaccard_sim).

    Stages: signature+bands (map_batches, vectorized) → shuffle on
    (band, band_hash) → per-bucket candidate pairs → exact-Jaccard
    verification. The LSH shuffle only moves 24-byte triples, never
    text.

    Verification ships an id→shingles map via ray.put and probes it per
    chunk (fast while candidate shingle sets fit one node). Above
    ``JOIN_VERIFY_ABOVE`` candidate pairs it re-derives shingles for
    candidate ids only and attaches them to the pair list via two
    hash-partitioned joins — nothing corpus-sized ever lands on one
    node.

    ``output``: "pandas" (default — sorted DataFrame; bounds the pair
    set by driver memory, fine for duplicate-sparse corpora) or
    "dataset" — the mirror-heavy-crawl path: candidates are deduped
    DISTRIBUTED, verification is forced onto the join path with the
    pair list kept as a Dataset end to end, and the verified pairs come
    back as an (unsorted) Dataset — the driver never holds a pair row.
    The one remaining driver-side object is the sorted candidate-ID
    array broadcast to the shingle collectors (8 B/id).

    ``max_bucket`` guards degenerate buckets (e.g. empty docs all
    hashing equal).
    """
    bands = ds.map_batches(
        lambda b: minhash_bands_batch(b, key_col, text_col, k),
        batch_format="pyarrow",
    )

    # ONE vectorized call per hash bucket, not one Python call per
    # (band, band_hash) group: singleton groups (the vast majority) are
    # dropped by a vectorized transform("count") and only genuine
    # collision groups are looped (stages/groups.py rationale).
    from .groups import bucketed_group_apply

    def pairs_bucket(g: pd.DataFrame) -> pd.DataFrame:
        counts = g.groupby(["band", "band_hash"], sort=False)[key_col].transform("count")
        g = g[counts >= 2]
        out_a: list = []
        out_b: list = []
        for _, grp in g.groupby(["band", "band_hash"], sort=False):
            ids = sorted(set(grp[key_col].tolist()))
            if len(ids) < 2 or len(ids) > max_bucket:
                continue
            for i, a in enumerate(ids):
                for b2 in ids[i + 1:]:
                    out_a.append(a)
                    out_b.append(b2)
        return pd.DataFrame({"id_a": out_a, "id_b": out_b})

    cand = bucketed_group_apply(bands, ["band", "band_hash"], pairs_bucket,
                                num_buckets=32)

    if output == "dataset":
        # distributed pair dedup (same band pair can surface from
        # several bands) — per-pair-bucket drop_duplicates, never on
        # the driver. PIN the deduped candidates: they are consumed by
        # _distinct_pair_ids AND the verify join — unpinned, the whole
        # band+pair exchange re-executes per consumer (object-store
        # blocks, spillable; nothing lands on the driver)
        cand = bucketed_group_apply(
            cand, ["id_a", "id_b"],
            lambda g: g.drop_duplicates(["id_a", "id_b"]),
            num_buckets=32).materialize()
        id_arr = _distinct_pair_ids(cand)
        if len(id_arr) == 0:
            import ray.data as rd

            return rd.from_pandas(pd.DataFrame({
                "id_a": pd.Series([], dtype="int64"),
                "id_b": pd.Series([], dtype="int64"),
                "jaccard_sim": pd.Series([], dtype="float64")}))
        # one small block per join bucket, coalesced by an explicit
        # batch_size: minlabel_components pays tasks per pair-set block
        # in every propagation round (training_corpus_pipeline at
        # sf0.1, 4 vCPU: components 6.1 s on 18 blocks, 2.2 s on 4).
        # The coalescing map runs behind a materialize(): fused into
        # the join, its batch_size would bundle the exchange's packed
        # rows (a few per bucket) and run the whole join as one task.
        # Pinned for the same reason as cand: minlabel_components
        # consumes the pair set twice (vocab pass + factorize pass)
        return _verify_pairs_join(
            ds, cand, key_col, text_col, k, threshold,
            id_arr=id_arr, as_dataset=True).materialize().map_batches(
                lambda t: t, batch_format="pyarrow",
                batch_size=32768).materialize()

    cand_pdf = cand.to_pandas().drop_duplicates()  # candidates ≪ corpus
    if len(cand_pdf) == 0:
        return pd.DataFrame({"id_a": [], "id_b": [], "jaccard_sim": []})
    if pd.api.types.is_integer_dtype(cand_pdf["id_a"]):
        cand_pdf = cand_pdf.astype({"id_a": "int64", "id_b": "int64"})

    if len(cand_pdf) > JOIN_VERIFY_ABOVE:
        verified = _verify_pairs_join(ds, cand_pdf, key_col, text_col, k, threshold)
    else:
        verified = _verify_pairs_broadcast(ds, cand_pdf, key_col, text_col, k, threshold)
    return verified.sort_values(["id_a", "id_b"]).reset_index(drop=True)


def _distinct_pair_ids(pairs_ds) -> np.ndarray:
    """Sorted distinct ids touched by a pair Dataset — per-batch
    np.unique partials merged on the driver (8 B/id; the documented
    broadcast bound of the dataset-output path)."""
    parts = pairs_ds.map_batches(
        lambda b: pd.DataFrame({"id": np.unique(np.concatenate(
            [b["id_a"].to_numpy(), b["id_b"].to_numpy()]))})
        if len(b) else pd.DataFrame({"id": []}),
        batch_format="pandas").to_pandas()
    if parts.empty:
        return np.empty(0, np.int64)
    return np.unique(parts["id"].to_numpy())


def _verify_pairs_broadcast(ds, cand_pdf: pd.DataFrame, key_col: str,
                            text_col: str, k: int, threshold: float) -> pd.DataFrame:
    """Jaccard verify via a broadcast id→shingles map (candidate ids
    only). Bound: candidate shingle sets fit one node's memory."""
    import ray

    cand_ids = set(cand_pdf["id_a"]) | set(cand_pdf["id_b"])

    def collect_shingles(t) -> pd.DataFrame:
        rows = [
            (key, shingle_hashes(text or "", k))
            for key, text in zip(t[key_col].to_pylist(), t[text_col].to_pylist())
            if key in cand_ids
        ]
        return pd.DataFrame(
            {key_col: [r[0] for r in rows],
             "shingles": [r[1].tobytes() for r in rows]}
        )

    stores = ds.map_batches(collect_shingles, batch_format="pyarrow").to_pandas()
    shingle_map = {
        key: np.frombuffer(buf, dtype=np.uint64)
        for key, buf in zip(stores[key_col], stores["shingles"])
    }
    ref = ray.put(shingle_map)

    @ray.remote
    def verify_chunk(chunk: pd.DataFrame, store_ref) -> pd.DataFrame:
        store = store_ref
        sims = [
            jaccard(store.get(a, np.empty(0, np.uint64)),
                    store.get(b, np.empty(0, np.uint64)))
            for a, b in zip(chunk["id_a"], chunk["id_b"])
        ]
        chunk = chunk.copy()
        chunk["jaccard_sim"] = sims
        return chunk[chunk["jaccard_sim"] >= threshold]

    chunks = np.array_split(cand_pdf, max(1, len(cand_pdf) // 5000))
    return pd.concat(
        ray.get([verify_chunk.remote(c, ref) for c in chunks]), ignore_index=True
    )


def _verify_pairs_join(ds, cand, key_col: str, text_col: str,
                       k: int, threshold: float, num_buckets: int = 32,
                       id_arr: np.ndarray | None = None,
                       as_dataset: bool = False):
    """Jaccard verify via hash-partitioned joins: shingles are derived
    for candidate ids only (a small broadcast id SET, not content) and
    attached to the pair list by two bucketed joins — no node ever
    holds more than one bucket of shingle content. The 10^12-doc
    path. ``cand`` is a pandas pair list or a pair Dataset;
    ``as_dataset=True`` returns the verified pairs as a Dataset
    (nothing pair-shaped ever lands on the driver)."""
    import ray
    import ray.data as rd

    if id_arr is None:
        id_arr = np.unique(np.concatenate([cand["id_a"].to_numpy(),
                                           cand["id_b"].to_numpy()]))
    ids_ref = ray.put(id_arr)  # sorted

    def collect_shingles(t: pa.Table) -> pa.Table:
        keys = t[key_col].to_numpy(zero_copy_only=False)
        hit, _ = probe_sorted(ray.get(ids_ref), keys)
        sel = t.filter(pa.array(hit))
        return pa.table({
            key_col: sel[key_col],
            "shingles": pa.array([shingle_hashes(x or "", k).tobytes()
                                  for x in sel[text_col].to_pylist()],
                                 pa.binary()),
        })

    def renamed(names):
        return lambda t: t.rename_columns(names)

    # Consumed by BOTH join sides below — pin the (candidate-bounded)
    # shingle rows once instead of re-deriving them per branch; lazy
    # branches would each re-read the corpus and re-shingle.
    sh = ds.map_batches(collect_shingles, batch_format="pyarrow").materialize()
    sh_a = sh.map_batches(renamed(["id_a", "sh_a"]), batch_format="pyarrow")
    sh_b = sh.map_batches(renamed(["id_b", "sh_b"]), batch_format="pyarrow")
    pairs_ds = cand if not isinstance(cand, pd.DataFrame) else rd.from_pandas(cand)
    j1 = bucketed_hash_join(pairs_ds, sh_a, on="id_a", num_buckets=num_buckets)
    j2 = bucketed_hash_join(j1, sh_b, on="id_b", num_buckets=num_buckets)

    def score(t: pa.Table) -> pa.Table:
        sims = np.array([
            jaccard(np.frombuffer(sa, dtype=np.uint64),
                    np.frombuffer(sb, dtype=np.uint64))
            for sa, sb in zip(t["sh_a"].to_pylist(), t["sh_b"].to_pylist())
        ], np.float64)
        out = pa.table({"id_a": t["id_a"], "id_b": t["id_b"],
                        "jaccard_sim": pa.array(sims, pa.float64())})
        return out.filter(pa.array(sims >= threshold))

    scored = j2.map_batches(score, batch_format="pyarrow")
    if as_dataset:
        return scored
    out = scored.to_pandas()
    if out.empty:
        out = pd.DataFrame({"id_a": pd.Series([], dtype="int64"),
                            "id_b": pd.Series([], dtype="int64"),
                            "jaccard_sim": pd.Series([], dtype="float64")})
    return out


# ── SimHash ───────────────────────────────────────────────────────────

def _md5_token_hashes(toks: np.ndarray) -> np.ndarray:
    """Engine-portable 64-bit token hashes: first 16 md5 hex digits —
    DuckDB computes the identical value, so a SimHash built on these is
    SQL-replayable. Hash unique tokens only (token streams repeat)."""
    uniq, inv = np.unique(toks, return_inverse=True)
    hu = np.fromiter(
        (int(hashlib.md5(t.encode()).hexdigest()[:16], 16) for t in uniq),
        dtype=np.uint64, count=len(uniq))
    return hu[inv]


def simhash64(text: str, token_hash: str = "sip") -> int:
    """64-bit SimHash over whitespace tokens (hash-weighted bit votes).

    ``token_hash``: "sip" (pd.util.hash_array — fastest, process-stable)
    or "md5" (engine-portable: the DuckDB oracle replays it exactly)."""
    toks = (text or "").lower().split()
    if not toks:
        return 0
    arr = np.asarray(toks, dtype=object)
    arr = (_md5_token_hashes(arr) if token_hash == "md5"
           else pd.util.hash_array(arr))
    bits = ((arr[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1))
    votes = (2 * bits.astype(np.int64) - 1).sum(axis=0)
    sh = np.uint64(0)
    for i in np.nonzero(votes > 0)[0]:
        sh |= np.uint64(1) << np.uint64(i)
    return int(sh)


def simhash_batch(batch, key_col: str = "doc_id",
                  text_col: str = "text",
                  token_hash: str = "sip") -> pd.DataFrame:

    if isinstance(batch, pa.Table):
        texts = batch[text_col].to_pylist()
        keys = batch[key_col].to_numpy(zero_copy_only=False)
    else:
        texts = batch[text_col].fillna("").tolist()
        keys = batch[key_col].to_numpy()
    return pd.DataFrame(
        {
            key_col: keys,
            "simhash": np.array(
                [simhash64(t or "", token_hash) for t in texts],
                dtype=np.uint64
            ).astype(np.int64),
        }
    )


def simhash_neardup_pairs(ds, *, key_col: str = "doc_id", text_col: str = "text",
                          max_hamming: int = 3, max_bucket: int = 500,
                          token_hash: str = "sip", output: str = "pandas"):
    """Pairs with Hamming(simhash) ≤ max_hamming via 4×16-bit band tables
    (pigeonhole: any pair within Hamming ≤ 3 collides in ≥ 1 band) —
    COMPLETE for max_hamming ≤ 3, so with ``token_hash="md5"`` the
    result set equals the exact SQL self-join the oracle runs.

    ``output="dataset"`` dedups the pair set DISTRIBUTED (per-pair-hash
    bucket) and returns it as an unsorted Dataset — the mirror-heavy
    path where the pair count is corpus-shaped and must never
    materialize on the driver."""
    sigs = ds.map_batches(
        lambda b: simhash_batch(b, key_col, text_col, token_hash),
        batch_format="pyarrow"
    )

    def explode_bands(b: pd.DataFrame) -> pd.DataFrame:
        h = b["simhash"].to_numpy().astype(np.uint64)
        out_key, out_band, out_val, out_sig = [], [], [], []
        for band in range(4):
            val = ((h >> np.uint64(band * 16)) & np.uint64(0xFFFF)).astype(np.int64)
            out_key.extend(b[key_col].tolist())
            out_band.extend([band] * len(b))
            out_val.extend(val.tolist())
            out_sig.extend(b["simhash"].tolist())
        return pd.DataFrame({key_col: out_key, "band": out_band,
                             "band_val": out_val, "simhash": out_sig})

    bands = sigs.map_batches(explode_bands, batch_format="pandas")

    # one vectorized call per hash bucket; only genuine band-value
    # collision groups are looped (see minhash_neardup_pairs)
    from .groups import bucketed_group_apply

    def pairs_bucket(g: pd.DataFrame) -> pd.DataFrame:
        counts = g.groupby(["band", "band_val"], sort=False)[key_col].transform("count")
        g = g[counts >= 2]
        out = []
        for _, grp in g.groupby(["band", "band_val"], sort=False):
            rows = sorted(set(zip(grp[key_col], grp["simhash"])))
            if len(rows) < 2 or len(rows) > max_bucket:
                continue
            for i, (ka, ha) in enumerate(rows):
                for kb, hb in rows[i + 1:]:
                    dist = bin((int(ha) ^ int(hb)) & 0xFFFFFFFFFFFFFFFF).count("1")
                    if dist <= max_hamming:
                        out.append((ka, kb, dist))
        return pd.DataFrame({"id_a": [o[0] for o in out],
                             "id_b": [o[1] for o in out],
                             "hamming": [o[2] for o in out]})

    pairs = bucketed_group_apply(bands, ["band", "band_val"], pairs_bucket,
                                 num_buckets=32)
    if output == "dataset":
        return bucketed_group_apply(
            pairs, ["id_a", "id_b"],
            lambda g: g.drop_duplicates(["id_a", "id_b"]), num_buckets=32)
    pdf = pairs.to_pandas().drop_duplicates()
    return pdf.sort_values(["id_a", "id_b"]).reset_index(drop=True)


# ── exact n-gram Jaccard near-dup (inverted-index blocked) ───────────

def jaccard_neardup_pairs(ds, *, key_col: str = "doc_id",
                          text_col: str = "text", n: int = 5,
                          threshold: float = 0.5, num_buckets: int = 32,
                          max_posting: int | None = None,
                          metric: str = "jaccard"):
    """EXACT word-n-gram Jaccard near-duplicate pairs (no sketching).

    Inverted-index blocking: each doc explodes into its DISTINCT word
    n-gram hashes with the doc's set size carried alongside; a
    hash-bucketed groupby on the gram expands every multi-doc posting
    into partial pair rows via a vectorized self-merge, and a second
    bucketed groupby sums partials per (id_a, id_b). That sum IS
    |A ∩ B| exactly (grams are distinct within a doc), so
    ``jaccard = c / (sz_a + sz_b - c)`` needs no text re-scan and no
    second corpus pass. Two payload-free shuffles: ~24-byte
    (gram, key, size) triples, then pair partials.

    Exact for ``threshold > 0`` when ``max_posting`` is None: a pair
    with J ≥ t shares ≥ 1 gram, and every shared gram is counted once.
    ``max_posting`` drops hotter postings (stop-gram pruning — the
    standard recall/cost knob at corpus scale; a pruned pair must then
    reach t through rarer shared grams). Gram identity is a 64-bit
    hash of the full joined gram string — a within-doc collision would
    shrink a set by one (probability ~grams²/2⁶⁴, negligible).

    ``metric="containment"`` scores ``c / min(|A|, |B|)`` instead (the
    asymmetric news-wire-inclusion signal: one doc's grams mostly
    inside the other — pairs Jaccard misses when sizes differ a lot);
    output column becomes ``containment_sim``. Same two shuffles."""
    from .analysis import _gram_hashes
    from .groups import bucketed_group_apply

    def explode(t: pa.Table) -> pd.DataFrame:
        keys = t[key_col].to_numpy(zero_copy_only=False)
        gs = [np.unique(_gram_hashes((x or "").lower().split(), n))
              for x in t[text_col].to_pylist()]
        cnt = np.array([len(g) for g in gs], dtype=np.int64)
        return pd.DataFrame({
            "gram": (np.concatenate(gs) if gs
                     else np.empty(0, dtype=np.uint64)),
            key_col: np.repeat(keys, cnt),
            "sz": np.repeat(cnt, cnt),
        })

    grams = ds.map_batches(explode, batch_format="pyarrow")

    def partial_pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g[g.duplicated("gram", keep=False)]
        if max_posting is not None and len(g):
            plen = g.groupby("gram", sort=False)["gram"].transform("size")
            g = g[plen <= max_posting]
        m = g.merge(g, on="gram", suffixes=("_a", "_b"))
        m = m[m[f"{key_col}_a"] < m[f"{key_col}_b"]]
        out = m.groupby([f"{key_col}_a", f"{key_col}_b", "sz_a", "sz_b"],
                        sort=False).size().reset_index(name="c")
        return out.rename(columns={f"{key_col}_a": "id_a",
                                   f"{key_col}_b": "id_b"})

    partials = bucketed_group_apply(grams, "gram", partial_pairs,
                                    num_buckets=num_buckets)

    sim_col = "containment_sim" if metric == "containment" else "jaccard_sim"

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby(["id_a", "id_b", "sz_a", "sz_b"], sort=False,
                        as_index=False)["c"].sum()
        if metric == "containment":
            j = agg["c"].to_numpy(dtype=np.float64) / np.minimum(
                agg["sz_a"].to_numpy(), agg["sz_b"].to_numpy())
        else:
            j = agg["c"].to_numpy(dtype=np.float64) / (
                agg["sz_a"].to_numpy() + agg["sz_b"].to_numpy()
                - agg["c"].to_numpy())
        agg[sim_col] = j
        return agg.loc[j >= threshold, ["id_a", "id_b", sim_col]]

    return bucketed_group_apply(partials, ["id_a", "id_b"], finish,
                                num_buckets=num_buckets)


# ── near-dup groups → canonical keep set ─────────────────────────────

def minlabel_components(pairs, *, num_buckets: int = 16,
                        max_rounds: int = 50) -> pd.DataFrame:
    """(node, group_root) for every node in ``pairs`` via DISTRIBUTED
    min-label propagation: per round, every node takes the min of its
    own label and its neighbors' labels — one hash-partitioned join
    (edge ⋈ label on src) plus one vectorized ``groupby(node).min``;
    repeat until the label sum (monotone non-increasing, integral)
    stops changing. O(component-diameter) rounds; no driver-side
    union-find, so component state never concentrates on one node.

    ``pairs`` is a pandas pair list (the LSH-banded candidate set,
    ≪ corpus) or a pair DATASET (``minhash_neardup_pairs(
    output="dataset")`` — the mirror-heavy path, where edges are
    factorized and deduped in-cluster and only the sorted id
    vocabulary touches the driver). Per-round working set is
    2·|pairs| (node, label) rows either way."""
    import ray
    import ray.data as rd

    from ray.data.aggregate import Min


    if isinstance(pairs, pd.DataFrame):
        if len(pairs) == 0:
            return pd.DataFrame({"node": pd.Series([], dtype="int64"),
                                 "group_root": pd.Series([], dtype="int64")})
        # factorize keys through a SORTED vocabulary so integer-code
        # min == key min — propagation then runs on int64 codes
        # regardless of the caller's key type (int ids, urls, ...)
        raw_a = pairs["id_a"].to_numpy()
        raw_b = pairs["id_b"].to_numpy()
        vocab = np.unique(np.concatenate([raw_a, raw_b]))
        a = np.searchsorted(vocab, raw_a).astype("int64")
        b = np.searchsorted(vocab, raw_b).astype("int64")
        sym = pd.DataFrame({"src": np.concatenate([a, b]),
                            "dst": np.concatenate([b, a])}).drop_duplicates()
        # Arrow blocks from the seed: union() requires homogeneous
        # block types, and every derived dataset in the loop is Arrow
        edges = rd.from_arrow(pa.table({
            "src": pa.array(sym["src"].to_numpy(), pa.int64()),
            "dst": pa.array(sym["dst"].to_numpy(), pa.int64())}))
        nodes = np.unique(sym["src"].to_numpy())
    else:
        # pairs as a DATASET (the mirror-heavy path): edges are
        # factorized and deduped distributed; the only driver-side
        # object is the sorted id vocabulary (8 B/id — the same
        # documented bound the keep-set broadcast already carries)
        from .groups import bucketed_group_apply

        vocab = _distinct_pair_ids(pairs)
        if len(vocab) == 0:
            return pd.DataFrame({"node": pd.Series([], dtype="int64"),
                                 "group_root": pd.Series([], dtype="int64")})
        vref = ray.put(vocab)

        def factorize(t: pa.Table) -> pa.Table:
            import ray as _ray

            voc = _ray.get(vref)
            ra = t["id_a"].to_numpy(zero_copy_only=False)
            rb = t["id_b"].to_numpy(zero_copy_only=False)
            fa = np.searchsorted(voc, ra).astype("int64")
            fb = np.searchsorted(voc, rb).astype("int64")
            return pa.table({
                "src": pa.array(np.concatenate([fa, fb]), pa.int64()),
                "dst": pa.array(np.concatenate([fb, fa]), pa.int64())})

        edges = bucketed_group_apply(
            pairs.map_batches(factorize, batch_format="pyarrow"),
            ["src", "dst"],
            lambda g: g.drop_duplicates(["src", "dst"]),
            num_buckets=num_buckets,
        ).materialize()  # consumed once per propagation round
        nodes = np.arange(len(vocab), dtype="int64")
    labels = rd.from_arrow(pa.table({
        "node": pa.array(nodes, pa.int64()),
        "label": pa.array(nodes, pa.int64())}))
    prev_sum = int(nodes.sum())
    converged = False
    for _ in range(max_rounds):
        # Arrow blocks throughout the round: the per-round
        # groupby(node).Min exchange takes the pandas slow path
        # otherwise (see groups.arrow_out)
        lab_src = labels.map_batches(
            lambda t: t.rename_columns(["src", "label"]),
            batch_format="pyarrow")
        cand = bucketed_hash_join(
            edges, lab_src, on="src", num_buckets=num_buckets,
        ).map_batches(
            lambda t: pa.table({"node": t["dst"], "label": t["label"]}),
            batch_format="pyarrow")
        # vectorized per-bucket grouped min, NOT groupby().aggregate:
        # node is every-vertex cardinality, and Ray's sort aggregate
        # walks the one-row groups at Python speed (groups.py
        # rationale); one bucketed exchange + pandas C-level min
        from .groups import bucketed_group_apply as _bga

        labels = _bga(
            cand.union(labels), "node",
            lambda g: g.groupby("node", as_index=False)["label"].min(),
            num_buckets=num_buckets,
        ).materialize()
        cur_sum = int(labels.sum("label"))
        if cur_sum == prev_sum:
            converged = True
            break
        prev_sum = cur_sum
    if not converged:
        # no silent caps: a component whose diameter exceeds max_rounds
        # would otherwise return intermediate labels (duplicates kept)
        raise RuntimeError(
            f"min-label propagation did not converge in {max_rounds} "
            f"rounds (component diameter exceeds it); raise max_rounds")
    out = labels.to_pandas().rename(columns={"label": "group_root"})
    out = out.astype({"node": "int64", "group_root": "int64"})
    out = pd.DataFrame({
        "node": vocab[out["node"].to_numpy()],
        "group_root": vocab[out["group_root"].to_numpy()],
    })
    return out.sort_values("node").reset_index(drop=True)


def star_components(pairs: pd.DataFrame, *, num_buckets: int = 16,
                    max_rounds: int = 60) -> pd.DataFrame:
    """Connected components via alternating large-star / small-star
    rounds (Kiveris et al., "Connected Components in MapReduce and
    Beyond", SoCC 2014): converges in O(log²) rounds REGARDLESS of
    component diameter — the scale path for pathological chains where
    ``minlabel_components``' O(diameter) rounds would not terminate.

    Each half-round is ONE hash-bucketed groupby on the edge's larger
    endpoint with a vectorized per-bucket grouped min; only (u, v)
    int64 edge pairs ever shuffle. Same contract/output schema as
    ``minlabel_components``."""
    import ray.data as rd

    from .groups import bucketed_group_apply

    if len(pairs) == 0:
        return pd.DataFrame({"node": pd.Series([], dtype="int64"),
                             "group_root": pd.Series([], dtype="int64")})
    raw_a = pairs["id_a"].to_numpy()
    raw_b = pairs["id_b"].to_numpy()
    vocab = np.unique(np.concatenate([raw_a, raw_b]))
    a = np.searchsorted(vocab, raw_a).astype("int64")
    b = np.searchsorted(vocab, raw_b).astype("int64")
    # orient (u, v) with u > v; drop self-loops
    u = np.maximum(a, b)
    v = np.minimum(a, b)
    keep = u != v
    edges_pdf = pd.DataFrame({"u": u[keep], "v": v[keep]}).drop_duplicates()
    all_nodes = np.unique(np.concatenate([u, v]))

    def small_star(df: pd.DataFrame) -> pd.DataFrame:
        # edges arrive oriented u > v; per u: m = min neighbor; relink
        # every neighbor (and u itself) to m
        mn = df.groupby("u")["v"].transform("min").to_numpy()
        out = pd.DataFrame({
            "u": np.concatenate([df["v"].to_numpy(), df["u"].to_numpy()]),
            "v": np.concatenate([mn, mn]),
        })
        return out[out["u"] != out["v"]].drop_duplicates()

    def checksum(ds) -> tuple[int, int]:
        def part(bdf: pd.DataFrame) -> pd.DataFrame:
            h = pd.util.hash_array(
                bdf["u"].to_numpy() * np.int64(1_000_003)
                + bdf["v"].to_numpy())
            return pd.DataFrame({"n": [len(bdf)],
                                 "h": [int(h.sum() % (1 << 61))]})
        p = ds.map_batches(part, batch_format="pandas").to_pandas()
        return int(p["n"].sum()), int(p["h"].sum() % (1 << 61))

    edges = rd.from_pandas(edges_pdf)
    prev = checksum(edges)
    converged = False
    for _ in range(max_rounds):
        # large-star groups SYMMETRIZED neighborhoods: bucket by the
        # node column after symmetrizing inside the bucket fn would
        # split a node's neighborhood across buckets, so symmetrize
        # FIRST, then bucket on the node
        sym = edges.map_batches(
            lambda bdf: pd.DataFrame({
                "n": np.concatenate([bdf["u"].to_numpy(),
                                     bdf["v"].to_numpy()]),
                "w": np.concatenate([bdf["v"].to_numpy(),
                                     bdf["u"].to_numpy()]),
            }),
            batch_format="pandas")

        def ls_bucket(g: pd.DataFrame) -> pd.DataFrame:
            m = g.groupby("n")["w"].transform("min").to_numpy()
            m = np.minimum(m, g["n"].to_numpy())
            big = g["w"].to_numpy() > g["n"].to_numpy()
            out = pd.DataFrame({"u": g["w"].to_numpy()[big], "v": m[big]})
            return out[out["u"] != out["v"]].drop_duplicates()

        edges = bucketed_group_apply(sym, "n", ls_bucket,
                                     num_buckets=num_buckets)
        edges = bucketed_group_apply(edges, "u", small_star,
                                     num_buckets=num_buckets).materialize()
        cur = checksum(edges)
        if cur == prev:
            converged = True
            break
        prev = cur
    if not converged:
        raise RuntimeError(
            f"star rounds did not converge in {max_rounds} iterations")
    final = edges.to_pandas().drop_duplicates()
    # at convergence every edge points a node at its component root
    root_of = final.groupby("u")["v"].min()
    roots = np.full(len(all_nodes), -1, dtype=np.int64)
    idx = np.searchsorted(all_nodes, root_of.index.to_numpy())
    roots[idx] = root_of.to_numpy()
    self_root = roots == -1
    roots[self_root] = all_nodes[self_root]
    return pd.DataFrame({
        "node": vocab[all_nodes],
        "group_root": vocab[roots],
    }).sort_values("node").reset_index(drop=True)


def connected_components(pairs: pd.DataFrame, a_col: str = "id_a",
                         b_col: str = "id_b") -> dict:
    """id → group-root (min id) via union-find on the candidate-pair
    set — the driver-side REFERENCE implementation, used to parity-test
    ``minlabel_components`` (the distributed path that production
    ``neardup_keep_set`` uses)."""
    parent: dict = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for a, b in zip(pairs[a_col], pairs[b_col]):
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = (ra, rb) if ra <= rb else (rb, ra)
            parent[hi] = lo
    return {x: find(x) for x in set(pairs[a_col]) | set(pairs[b_col])}


def neardup_keep_set(ds, *, key_col: str = "doc_id", text_col: str = "text",
                     threshold: float = 0.7):
    """Full near-dup dedup: MinHash-LSH pairs → min-label-propagation
    components (distributed; no driver union-find) → keep min key per
    group (plus every unpaired doc). Returns a Dataset of
    (doc_id, group_root, kept) — the corpus id column itself never
    materializes on the driver; only the component labels (bounded by
    the LSH candidate set, ≪ corpus) are broadcast."""
    import ray

    pairs = minhash_neardup_pairs(ds, key_col=key_col, text_col=text_col,
                                  threshold=threshold)
    return keep_set_from_pairs(ds, pairs, key_col=key_col)


def keep_set_from_pairs(ds, pairs, *, key_col: str = "doc_id"):
    """Near-dup pairs → (key, group_root, kept) over the full corpus:
    components of the pair graph, broadcast as sorted (nodes, roots)
    arrays (bounded by the candidate set, ≪ corpus), probed per batch
    with searchsorted. kept ⇔ the doc is its own group root (every
    unpaired doc roots itself). ``pairs`` is a pandas pair list or a
    pair Dataset."""
    import ray

    comp = minlabel_components(pairs)
    nodes = comp["node"].to_numpy()
    roots = comp["group_root"].to_numpy()
    ref = ray.put((nodes, roots))

    def flag(b) -> pd.DataFrame:
        # arrow-declared: only the key column is touched — a pandas
        # block would copy the (large) text payload per batch
        ns, rs = ray.get(ref)
        ids = b[key_col].to_numpy(zero_copy_only=False)
        grp = ids.copy()
        hit, idx = probe_sorted(ns, ids)
        grp[hit] = rs[idx[hit]]
        return pd.DataFrame({
            key_col: ids,
            "group_root": grp,
            "kept": ids == grp,
        })

    return ds.map_batches(flag, batch_format="pyarrow")


def jaccard_keep_set(ds, *, key_col: str = "doc_id", text_col: str = "text",
                     n: int = 5, threshold: float = 0.5,
                     max_posting: int | None = None):
    """Exact n-gram-Jaccard dedup end-to-end: inverted-index pairs →
    components → keep min key per group (plus every unpaired doc)."""
    pairs = jaccard_neardup_pairs(
        ds, key_col=key_col, text_col=text_col, n=n,
        threshold=threshold, max_posting=max_posting).to_pandas()
    return keep_set_from_pairs(ds, pairs, key_col=key_col)


# ── edit-distance (Levenshtein) near-dup ──────────────────────────────

def _encode_heads(texts, max_chars: int):
    """Pad-encode string heads to a (n, max_chars) uint32 codepoint
    matrix + length vector (UTF-32 codepoints, so CJK compares per
    character exactly like SQL ``levenshtein``)."""
    n = len(texts)
    codes = np.zeros((n, max_chars), dtype=np.uint32)
    lens = np.empty(n, dtype=np.int32)
    for i, t in enumerate(texts):
        # null text arrives as NaN from pandas .str ops — NaN is truthy,
        # so `t or ""` alone would try to slice a float
        t = (t if isinstance(t, str) else "")[:max_chars]
        lens[i] = len(t)
        if t:
            codes[i, : len(t)] = np.frombuffer(
                t.encode("utf-32-le"), dtype=np.uint32)
    return codes, lens


def levenshtein_pairs(codes: np.ndarray, lens: np.ndarray,
                      ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
    """Exact Levenshtein distance for many string pairs at once.

    Vectorized across the PAIR axis: the classic DP runs one python
    iteration per row of the (≤ max_chars)-row matrix; the horizontal
    insert recurrence cur[j] = min(base[k] + (j-k), k ≤ j) collapses
    to a prefix-min (``np.minimum.accumulate`` of base[k]-k), so each
    row is O(P·L) numpy work with NO inner python loop."""
    A = codes[ia]
    B = codes[ib]
    la = lens[ia].astype(np.int32)
    lb = lens[ib].astype(np.int32)
    P, L = A.shape
    j_idx = np.arange(L + 1, dtype=np.int32)
    prev = np.broadcast_to(j_idx, (P, L + 1)).copy()
    res = np.where(la == 0, lb, -1).astype(np.int32)
    base = np.empty((P, L + 1), dtype=np.int32)
    for i in range(1, int(la.max(initial=0)) + 1):
        cost = (A[:, i - 1][:, None] != B).astype(np.int32)
        base[:, 0] = i
        np.minimum(prev[:, 1:] + 1, prev[:, :-1] + cost, out=base[:, 1:])
        cur = np.minimum.accumulate(base - j_idx, axis=1) + j_idx
        done = la == i
        if done.any():
            res[done] = cur[done, lb[done]]
        prev = cur
    return res


def editdist_neardup_pairs(ds, *, key_col: str = "doc_id",
                           text_col: str = "text", lang_col: str = "lang",
                           len_col: str = "n_chars", head_chars: int = 40,
                           len_bucket: int = 64, threshold: int = 8,
                           num_buckets: int = 32):
    """Near-duplicate pairs by exact edit distance over document heads.

    Blocking: candidates must share ``(lang, floor(len/len_bucket))``
    — pairs never cross blocks, bounding the all-pairs cost per block;
    blocks are hash-bucketed (one shuffle of the ≤ head_chars
    projection, full text never moves) and each bucket computes ALL
    its pair distances in one ``levenshtein_pairs`` call.

    Partitioning assumption: a block's doc count is bounded (length ×
    language stratification); salt giant blocks via a finer
    ``len_bucket`` if one stratum dominates."""
    from .groups import bucketed_group_apply

    def project(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            key_col: df[key_col].to_numpy(),
            "_lang": df[lang_col].to_numpy(),
            "_blk": (df[len_col].to_numpy() // len_bucket).astype("int64"),
            "_head": df[text_col].str.slice(0, head_chars),
        })

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({f"{key_col}1": pd.Series([], dtype="int64"),
                              f"{key_col}2": pd.Series([], dtype="int64"),
                              "dist": pd.Series([], dtype="int64")})
        if len(df) < 2:
            return empty
        ids = df[key_col].to_numpy()
        codes, lens = _encode_heads(df["_head"].tolist(), head_chars)
        ia_parts, ib_parts = [], []
        for idx in df.groupby(["_lang", "_blk"], sort=False).indices.values():
            if len(idx) >= 2:
                iu, ju = np.triu_indices(len(idx), k=1)
                ia_parts.append(idx[iu])
                ib_parts.append(idx[ju])
        if not ia_parts:
            return empty
        ia = np.concatenate(ia_parts)
        ib = np.concatenate(ib_parts)
        d = levenshtein_pairs(codes, lens, ia, ib)
        keep = d <= threshold
        a, b = ids[ia[keep]], ids[ib[keep]]
        return pd.DataFrame({
            f"{key_col}1": np.minimum(a, b).astype("int64"),
            f"{key_col}2": np.maximum(a, b).astype("int64"),
            "dist": d[keep].astype("int64"),
        })

    return bucketed_group_apply(
        ds.map_batches(project, batch_format="pandas"),
        ["_lang", "_blk"], per_bucket, num_buckets=num_buckets)


# ── exact duplicate-substring span removal ───────────────────────────
# Lee et al., "Deduplicating Training Data Makes Language Models
# Better" (ACL 2022) motivates removing exact repeated substrings, not
# just whole near-dup documents. Their single-corpus suffix array does
# not distribute; this is the shuffle-light equivalent: rolling-hash
# blocking + text verification, so the result is collision-exact.


_SPAN_BASE = np.uint64(1099511628211)  # FNV prime (odd → unit mod 2^64)
_SPAN_BASE_INV = np.uint64(pow(1099511628211, -1, 1 << 64))


def _char_window_hashes(text: str, L: int) -> np.ndarray:
    """64-bit polynomial hashes of every L-CODEPOINT window (stride 1).
    Codepoint-level — not UTF-8 bytes — so window boundaries match SQL
    ``substr`` / Python slicing on non-ASCII text.

    O(n) prefix-scan formulation (was an O(n·L) sliding-window
    multiply-add — 50× the work at L=50, the whole cost of
    span_dedup at sf0.1): the base is odd, hence invertible mod 2^64,
    so with P_k = Σ_{j<k} c_j·b⁻ʲ every window hash is
    (P_{i+L} − P_i)·b^{i+L−1} — three cumulative passes over the
    codepoints, bit-identical to the windowed sum."""
    codes = np.frombuffer((text or "").encode("utf-32-le"), dtype=np.uint32)
    n = len(codes)
    if n < L:
        return np.empty(0, np.uint64)
    with np.errstate(over="ignore"):
        binv = np.full(n, _SPAN_BASE_INV, np.uint64)
        binv[0] = 1
        binv_pows = np.cumprod(binv)              # b^-j, j = 0..n-1
        b = np.full(n, _SPAN_BASE, np.uint64)
        b[0] = 1
        b_pows = np.cumprod(b)                    # b^j,  j = 0..n-1
        pref = np.zeros(n + 1, np.uint64)
        np.cumsum(codes.astype(np.uint64) * binv_pows, out=pref[1:])
        return (pref[L:] - pref[:n - L + 1]) * b_pows[L - 1:]


def span_dup_candidate_hashes(ds, *, text_col: str = "text", L: int = 50,
                              min_count: int = 2):
    """Window hashes occurring ≥ min_count times corpus-wide.

    Per-batch ``np.unique`` partials mean the shuffle carries one
    (hash, count) row per DISTINCT hash per batch — never the text,
    never one row per window. The merge is a bucketed exchange with a
    vectorized per-bucket sum+filter, NOT ``groupby().aggregate()`` —
    Ray's sort aggregate walks the millions of one-row hash groups at
    Python speed (measured 26 s vs 1 s for the same exchange at
    sf0.1)."""
    from .groups import bucketed_group_apply

    def partial(t: pa.Table) -> pa.Table:
        hs = [_char_window_hashes(x, L) for x in t[text_col].to_pylist()]
        allh = np.concatenate(hs) if hs else np.empty(0, np.uint64)
        u, c = np.unique(allh, return_counts=True)
        return pa.table({"gh": pa.array(u, pa.uint64()),
                         "n": pa.array(c.astype(np.int64), pa.int64())})

    def bucket_sum(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("gh", as_index=False)["n"].sum()
        return g[g["n"] >= min_count]

    return bucketed_group_apply(
        ds.map_batches(partial, batch_format="pyarrow"), "gh",
        bucket_sum, num_buckets=32)


def span_dedup(ds, *, key_col: str = "doc_id", text_col: str = "text",
               L: int = 50, min_count: int = 2):
    """Remove every character covered by an L-codepoint window whose
    exact text occurs ≥ min_count times in the corpus.

    Three passes, text never shuffles:
    1. hash-only partial counts → groupby sum → candidate dup hashes
       (hash collisions tolerated here);
    2. only candidate-hit windows ship their actual L-char gram, partial-
       counted per batch → groupby gram → true multiplicities — this
       makes the result EXACT regardless of hash collisions;
    3. verified grams broadcast (``ray.put``); each doc marks covered
       codepoints with a diff-array and cuts them locally.

    Broadcast sets are bounded by the corpus's duplicated fraction
    (candidate hashes + verified grams), not its size; beyond that
    budget the probe becomes a hash-partitioned join on ``gh`` like
    ``_verify_pairs_join``. Returns (key, dup_windows, text_spanclean).
    """
    import ray

    from .groups import bucketed_group_apply

    cand = span_dup_candidate_hashes(
        ds, text_col=text_col, L=L, min_count=min_count).to_pandas()
    cand_arr = np.sort(cand["gh"].to_numpy(dtype=np.uint64)) if len(cand) \
        else np.empty(0, np.uint64)
    cand_ref = ray.put(cand_arr)

    def _hits(cands: np.ndarray, text: str) -> np.ndarray:
        # start offsets of the text's candidate windows
        return np.nonzero(probe_sorted(cands, _char_window_hashes(text, L))[0])[0]

    def gram_partial(t: pa.Table) -> pa.Table:
        cands = ray.get(cand_ref)
        counts: dict[str, int] = {}
        for text in t[text_col].to_pylist():
            text = text or ""
            idx = _hits(cands, text)
            for i in idx:
                g = text[i:i + L]
                counts[g] = counts.get(g, 0) + 1
        return pa.table({"gram": pa.array(list(counts), pa.string()),
                         "n": pa.array(list(counts.values()), pa.int64())})

    def gram_sum(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("gram", as_index=False)["n"].sum()
        return g[g["n"] >= min_count]

    verified = bucketed_group_apply(
        ds.map_batches(gram_partial, batch_format="pyarrow"), "gram",
        gram_sum, num_buckets=16).to_pandas()
    dup_grams = frozenset(verified["gram"]) if len(verified) \
        else frozenset()
    ver_ref = ray.put(dup_grams)

    def clean(t: pa.Table) -> pa.Table:
        cands, dup = ray.get(cand_ref), ray.get(ver_ref)
        out_text, out_cnt = [], []
        for text in t[text_col].to_pylist():
            text = text or ""
            idx = _hits(cands, text)
            marked = [i for i in idx if text[i:i + L] in dup]
            if not marked:
                out_text.append(text)
                out_cnt.append(0)
                continue
            n = len(text)
            diff = np.zeros(n + 1, np.int32)
            ii = np.asarray(marked, np.int64)
            np.add.at(diff, ii, 1)
            np.add.at(diff, np.minimum(ii + L, n), -1)
            covered = np.cumsum(diff[:-1]) > 0
            codes = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
            out_text.append(codes[~covered].tobytes().decode("utf-32-le"))
            out_cnt.append(len(marked))
        return pa.table({key_col: t[key_col],
                         "dup_windows": pa.array(out_cnt, pa.int64()),
                         "text_spanclean": pa.array(out_text, pa.string())})

    return ds.map_batches(clean, batch_format="pyarrow")


def keep_best_from_pairs(ds, pairs: pd.DataFrame, *, key_col: str = "doc_id",
                         text_col: str = "text"):
    """Quality-ranked representative selection: like
    ``keep_set_from_pairs`` but the kept doc per near-dup cluster is
    the LONGEST (trimmed char count; key tiebreak) — the standard
    curation policy of keeping the most complete near-duplicate rather
    than an arbitrary one.

    Scale shape: component labels are bounded by the candidate set
    (≪ corpus); member scores arrive via ONE pruned filtered scan that
    ships (key, score) for component nodes only; the per-group argmax
    runs over that bounded frame on the driver; winners broadcast as
    sorted arrays probed per batch."""
    import ray

    comp = minlabel_components(pairs)
    nodes = np.sort(comp["node"].to_numpy())
    roots = comp.set_index("node")["group_root"]
    nodes_ref = ray.put(nodes)

    def node_scores(t) -> pd.DataFrame:
        ids = t[key_col].to_numpy(zero_copy_only=False)
        hit, _ = probe_sorted(ray.get(nodes_ref), ids)
        sel = t.filter(pa.array(hit))
        score = np.asarray([len((s or "").strip())
                            for s in sel[text_col].to_pylist()], np.int64)
        return pd.DataFrame({key_col: sel[key_col].to_numpy(
            zero_copy_only=False), "score": score})

    scored = ds.map_batches(node_scores, batch_format="pyarrow").to_pandas()
    scored["group_root"] = roots.reindex(scored[key_col]).to_numpy()
    ranked = scored.sort_values(["group_root", "score", key_col],
                                ascending=[True, False, True],
                                kind="mergesort")
    winners = ranked.drop_duplicates("group_root")
    win_of_root = winners.set_index("group_root")[key_col]
    node_sorted = np.sort(scored[key_col].to_numpy())
    node_winner = win_of_root.reindex(
        roots.reindex(node_sorted).to_numpy()).to_numpy()
    ref = ray.put((node_sorted, node_winner,
                   roots.reindex(node_sorted).to_numpy()))

    def flag(b) -> pd.DataFrame:
        # arrow-declared for the same payload-copy reason as
        # keep_set_from_pairs' flag
        ns, ws, rs = ray.get(ref)
        ids = b[key_col].to_numpy(zero_copy_only=False)
        grp = ids.copy()
        win = ids.copy()
        hit, idx = probe_sorted(ns, ids)
        grp[hit] = rs[idx[hit]]
        win[hit] = ws[idx[hit]]
        return pd.DataFrame({
            key_col: ids,
            "group_root": grp,
            "kept": ids == win,
        })

    return ds.map_batches(flag, batch_format="pyarrow")


# ── Jaro-Winkler near-dup (entity-resolution string similarity) ──────
# Winkler 1990 ("String Comparator Metrics and Enhanced Decision
# Rules..."): Jaro similarity with a shared-prefix boost — the
# census-linkage standard for short keys (titles, names, headers).
# DuckDB's jaro_winkler_similarity operates on UTF-8 BYTES (prefix
# weight 0.1, boost threshold 0.7, prefix cap 4); this implementation
# matches it bit-for-bit (validated on 8k random cases incl.
# multi-byte codepoints) so the oracle replays exactly.


def jaro_winkler_bytes(s1: bytes, s2: bytes, *, prefix_weight: float = 0.1,
                       boost_threshold: float = 0.7) -> float:
    """Byte-level Jaro-Winkler similarity, DuckDB-parity semantics
    (empty vs empty is 0.0, not 1.0)."""
    l1, l2 = len(s1), len(s2)
    if l1 == 0 or l2 == 0:
        return 0.0
    window = max(l1, l2) // 2 - 1
    if window < 0:
        window = 0
    m1 = bytearray(l1)
    m2 = bytearray(l2)
    matches = 0
    for i in range(l1):
        lo = i - window
        if lo < 0:
            lo = 0
        hi = i + window + 1
        if hi > l2:
            hi = l2
        c = s1[i]
        for j in range(lo, hi):
            if not m2[j] and c == s2[j]:
                m1[i] = m2[j] = 1
                matches += 1
                break
    if matches == 0:
        return 0.0
    t = 0
    k = 0
    for i in range(l1):
        if m1[i]:
            while not m2[k]:
                k += 1
            if s1[i] != s2[k]:
                t += 1
            k += 1
    t //= 2
    j = (matches / l1 + matches / l2 + (matches - t) / matches) / 3
    if j > boost_threshold:
        pl = 0
        for a, b in zip(s1[:4], s2[:4]):
            if a != b:
                break
            pl += 1
        j += pl * prefix_weight * (1 - j)
    return j


def jarowinkler_neardup_pairs(ds, *, key_col: str = "doc_id",
                              text_col: str = "text", lang_col: str = "lang",
                              len_col: str = "n_chars", head_chars: int = 40,
                              len_bucket: int = 64, threshold: float = 0.9,
                              num_buckets: int = 32):
    """Near-duplicate pairs by Jaro-Winkler similarity over document
    heads — the transposition-tolerant complement to
    ``editdist_neardup_pairs`` (same (lang, floor(len/len_bucket))
    blocking, same one-shuffle-of-heads shape; only the verifier
    differs). Similarities round to 6 dp BEFORE thresholding so the
    keep-set is engine-portable.

    Partitioning assumption: identical to editdist_neardup_pairs —
    block population is bounded by the (lang × length-bucket)
    stratification; refine ``len_bucket`` if one stratum dominates."""
    from .groups import bucketed_group_apply

    def project(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            key_col: df[key_col].to_numpy(),
            "_lang": df[lang_col].to_numpy(),
            "_blk": (df[len_col].to_numpy() // len_bucket).astype("int64"),
            "_head": df[text_col].str.slice(0, head_chars),
        })

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({f"{key_col}1": pd.Series([], dtype="int64"),
                              f"{key_col}2": pd.Series([], dtype="int64"),
                              "jw": pd.Series([], dtype="float64")})
        if len(df) < 2:
            return empty
        ids = df[key_col].to_numpy()
        heads = [h.encode("utf-8") for h in df["_head"].tolist()]
        out_a: list[int] = []
        out_b: list[int] = []
        out_s: list[float] = []
        for idx in df.groupby(["_lang", "_blk"], sort=False).indices.values():
            if len(idx) < 2:
                continue
            for u in range(len(idx) - 1):
                iu = idx[u]
                hu = heads[iu]
                for v in range(u + 1, len(idx)):
                    iv = idx[v]
                    s = round(jaro_winkler_bytes(hu, heads[iv]), 6)
                    if s >= threshold:
                        a, b = int(ids[iu]), int(ids[iv])
                        if a > b:
                            a, b = b, a
                        out_a.append(a)
                        out_b.append(b)
                        out_s.append(s)
        if not out_a:
            return empty
        return pd.DataFrame({
            f"{key_col}1": np.asarray(out_a, dtype="int64"),
            f"{key_col}2": np.asarray(out_b, dtype="int64"),
            "jw": np.asarray(out_s, dtype="float64"),
        })

    return bucketed_group_apply(
        ds.map_batches(project, batch_format="pandas"),
        ["_lang", "_blk"], per_bucket, num_buckets=num_buckets)


# ── content-defined chunking dedup (sub-document, shift-robust) ──────
# FastCDC/LBFS-style chunking (Muthitacharoen et al. 2001): chunk
# boundaries are declared wherever a rolling window's hash satisfies a
# modulus condition, so an insertion early in a document only
# re-chunks the window it touches — the boundary positions downstream
# re-synchronize, unlike fixed-width chunking. Corpus-wide dedup of
# the resulting chunks finds SHARED SPANS across documents (mirrors,
# quote farms, templated pages) that whole-document hashing misses.
# The window hash is the engine-portable md5 slice (same trick as
# winnow_selection_batch), so the full chunking + dedup replays in SQL.


def cdc_chunks(norm: str, *, width: int = 8, divisor: int = 16) -> list[str]:
    """Content-defined chunks of a normalized string: a boundary closes
    after every ``width``-gram whose md5[:8] (as uint32) ≡ 0 mod
    ``divisor``; expected chunk length ≈ ``divisor`` + ``width`` − 1.
    Strings shorter than one gram are a single chunk."""
    n = len(norm)
    if n == 0:
        return []
    if n < width:
        return [norm]
    bounds: list[int] = []
    for i in range(n - width + 1):
        d = hashlib.md5(norm[i:i + width].encode("utf-8")).hexdigest()
        if int(d[:8], 16) % divisor == 0:
            bounds.append(i + width)
    starts = [0] + bounds
    ends = bounds + [n]
    return [norm[a:b] for a, b in zip(starts, ends) if b > a]


def cdc_chunk_stats(ds, *, key_col: str = "doc_id", text_col: str = "text",
                    width: int = 8, divisor: int = 16,
                    num_buckets: int = 32):
    """Per-document shared-span statistics from content-defined chunks:
    ``n_chunks`` (all chunks), ``n_distinct`` (distinct chunk keys in
    the doc), ``n_shared`` (distinct keys that also appear in ≥ 1
    OTHER document), ``shared_ratio`` = n_shared / n_distinct (6 dp).

    Scale shape: chunking happens inside the read-side map (text never
    shuffles); what moves is (doc_id, 16-hex chunk key) pairs — two
    hash-bucketed exchanges of fixed-width rows (by key to count
    document frequency, then by doc to fold the per-doc stats), the
    same triple-shuffle discipline as minhash_neardup_pairs. Documents
    whose normalized text is empty emit no row (mirrors the SQL
    twin)."""
    from .groups import bucketed_group_apply

    def chunk_keys(df: pd.DataFrame) -> pd.DataFrame:
        doc_out: list[int] = []
        key_out: list[str] = []
        for doc_id, text in zip(df[key_col].tolist(),
                                df[text_col].tolist()):
            norm = " ".join((text or "").lower().split())
            for c in cdc_chunks(norm, width=width, divisor=divisor):
                doc_out.append(doc_id)
                key_out.append(
                    hashlib.md5(c.encode("utf-8")).hexdigest()[:16])
        return pd.DataFrame({key_col: pd.Series(doc_out, dtype="int64"),
                             "k": pd.Series(key_out, dtype="object")})

    def per_key_bucket(df: pd.DataFrame) -> pd.DataFrame:
        # multiplicity per (doc, key), then document frequency per key
        g = (df.groupby(["k", key_col], sort=False).size()
             .reset_index(name="cnt"))
        nd = g.groupby("k", sort=False)[key_col].transform("size")
        g["shared"] = (nd >= 2).astype("int64")
        return g

    def per_doc_bucket(df: pd.DataFrame) -> pd.DataFrame:
        agg = df.groupby(key_col, sort=False).agg(
            n_chunks=("cnt", "sum"), n_distinct=("k", "size"),
            n_shared=("shared", "sum"))
        out = agg.reset_index()
        out["shared_ratio"] = (
            out["n_shared"] / out["n_distinct"]).round(6)
        for c in ("n_chunks", "n_distinct", "n_shared"):
            out[c] = out[c].astype("int64")
        return out

    keys = ds.map_batches(chunk_keys, batch_format="pandas")
    flagged = bucketed_group_apply(keys, "k", per_key_bucket,
                                   num_buckets=num_buckets)
    return bucketed_group_apply(flagged, key_col, per_doc_bucket,
                                num_buckets=num_buckets)
