"""Text analysis ops for large-scale training-data pipelines.

Beyond the reference's scope (its only text analytics is the block
regex, src/main.ts:94); these are the standard corpus-quality stages a
100 TB text pipeline needs: token/char statistics, quality scoring,
n-gram-heuristic language ID, and rolling-hash document fingerprinting
(winnowing, per Schleimer/Wilkerson/Aiken "Winnowing: Local Algorithms
for Document Fingerprinting", SIGMOD 2003).

All batch fns are vectorized (pandas str kernels / numpy); language ID
is an actor-pool stage whose stopword tables build once per actor.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd

_PUNCT_RE = r"[.!?,;:]"

# Hash base/constants for the 64-bit polynomial rolling hash (public
# Rabin-Karp construction; arithmetic wraps mod 2^64).
_POLY_BASE = np.uint64(1099511628211)   # FNV prime
_POLY_SEED = np.uint64(1469598103934665603)


def token_stats_batch(batch: pd.DataFrame, text_col: str = "text") -> pd.DataFrame:
    """n_tokens / n_chars / punct_ratio / avg_token_len per row.

    Semantics match the DuckDB oracle exactly:
      n_tokens      = count of \\S+ groups
      punct_ratio   = punct_chars / max(n_chars, 1)
      avg_token_len = non-space chars / max(n_tokens, 1)
    """
    # explicit ASCII whitespace classes: Python \s is unicode-aware while
    # DuckDB's RE2 \s is ASCII — pinning the class keeps oracle parity
    text = batch[text_col].fillna("")
    n_chars = text.str.len().astype("int64")
    n_tokens = text.str.count(r"[^ \t\r\n\f\v]+").astype("int64")
    punct = text.str.count(_PUNCT_RE).astype("int64")
    nonspace = (n_chars - text.str.count(r"[ \t\r\n\f\v]").astype("int64")).astype("int64")
    out = pd.DataFrame(
        {
            "n_tokens": n_tokens,
            "n_chars": n_chars,
            "punct_ratio": punct / np.maximum(n_chars, 1),
            "avg_token_len": nonspace / np.maximum(n_tokens, 1),
        },
        index=batch.index,
    )
    for c in batch.columns:
        if c not in out.columns and c != text_col:
            out.insert(0, c, batch[c])
    return out


# ── language identification (n-gram / stopword heuristic) ─────────────

_STOPWORDS = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "that", "it", "for",
           "was", "on", "are", "with", "as", "this", "be", "at", "have"},
    "es": {"el", "la", "de", "que", "y", "en", "un", "una", "los", "las",
           "por", "con", "para", "es", "del", "se", "no", "al", "como"},
    "de": {"der", "die", "das", "und", "ist", "von", "mit", "den", "des",
           "im", "ein", "eine", "auf", "für", "nicht", "auch", "sich"},
    "fr": {"le", "la", "les", "de", "des", "et", "un", "une", "est", "que",
           "dans", "pour", "pas", "sur", "avec", "au", "par", "ce", "il"},
}


class LangId:
    """Actor-pool stage: stopword tables + regex compile once per actor.

    Prediction: CJK codepoint share → "zh"; else argmax stopword-hit
    ratio over the profiles; "und" when no profile scores."""

    def __init__(self, text_col: str = "text", out_col: str = "lang_pred"):
        import re

        self.text_col = text_col
        self.out_col = out_col
        self.word_re = re.compile(r"[^\W\d_]+", re.UNICODE)
        self.cjk_re = re.compile(r"[一-鿿]")
        self.profiles = {k: frozenset(v) for k, v in _STOPWORDS.items()}

    def predict(self, text: str) -> str:
        if not text:
            return "und"
        if len(self.cjk_re.findall(text[:2000])) >= 5:
            return "zh"
        toks = [t.lower() for t in self.word_re.findall(text[:5000])]
        if not toks:
            return "und"
        best_lang, best = "und", 0.0
        for lang in sorted(self.profiles):  # sorted → deterministic ties
            prof = self.profiles[lang]
            score = sum(1 for t in toks if t in prof) / len(toks)
            if score > best:
                best_lang, best = lang, score
        return best_lang if best > 0.02 else "und"

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch[self.out_col] = [
            self.predict(t or "") for t in batch[self.text_col].tolist()
        ]
        return batch


# ── rolling-hash fingerprinting (winnowing) ───────────────────────────

_POWERS_CACHE: dict[int, np.ndarray] = {}


def _poly_powers(k: int) -> np.ndarray:
    """base^(k-1-j) mod 2^64 for j in 0..k-1 — memoized per k (was
    recomputed per call, emitting a numpy overflow RuntimeWarning per
    multiply: warning formatting alone was measurable in the hot
    batch loop)."""
    powers = _POWERS_CACHE.get(k)
    if powers is None:
        powers = np.empty(k, dtype=np.uint64)
        p = np.uint64(1)
        with np.errstate(over="ignore"):
            for j in range(k - 1, -1, -1):  # wraps mod 2^64 by design
                powers[j] = p
                p = p * _POLY_BASE
        _POWERS_CACHE[k] = powers
    return powers


def kgram_hashes(text: str, k: int = 8) -> np.ndarray:
    """Vectorized 64-bit polynomial hashes of all k-byte grams."""
    b = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    if len(b) < k:
        b = np.pad(b, (0, k - len(b)), constant_values=0)
    win = np.lib.stride_tricks.sliding_window_view(b, k).astype(np.uint64)
    return (win * _poly_powers(k)).sum(axis=1, dtype=np.uint64) + _POLY_SEED


def winnow_fingerprint(text: str, k: int = 8, window: int = 16,
                       token_hash: str = "sip") -> str:
    """Winnowing: min k-gram hash per sliding window; the deduplicated
    selection set is digested to one stable hex fingerprint.

    ``token_hash``: "sip" (pd.util.hash_array grams + blake2b digest —
    fastest, process-stable) or "md5" (engine-portable end to end:
    grams hash to md5[:16] exactly like ``winnow_selection_batch``, and
    the digest is md5 over the sorted distinct minima's hex — so a
    DuckDB oracle replays the WHOLE fingerprint, not just the
    selection set)."""
    norm = " ".join(text.lower().split())
    if token_hash == "md5":
        n = len(norm) - k + 1
        if n <= 0:
            return hashlib.md5(b"").hexdigest()
        h = np.fromiter(
            (int(hashlib.md5(norm[i:i + k].encode()).hexdigest()[:16], 16)
             for i in range(n)), dtype=np.uint64, count=n)
    else:
        h = kgram_hashes(norm, k)
        if len(h) == 0:
            return hashlib.blake2b(b"", digest_size=8).hexdigest()
    if len(h) <= window:
        sel = np.array([h.min()], dtype=np.uint64)
    else:
        # strided view → per-window min without materializing n×window
        mins = np.lib.stride_tricks.sliding_window_view(h, window).min(axis=1)
        sel = np.unique(mins)
    if token_hash == "md5":
        return hashlib.md5(
            "".join(f"{v:016x}" for v in sel.tolist()).encode()).hexdigest()
    return hashlib.blake2b(sel.tobytes(), digest_size=8).hexdigest()


def fingerprint_batch(batch: pd.DataFrame, text_col: str = "text",
                      out_col: str = "fingerprint",
                      token_hash: str = "sip") -> pd.DataFrame:
    batch = batch.copy()
    batch[out_col] = [winnow_fingerprint(t or "", token_hash=token_hash)
                      for t in batch[text_col].tolist()]
    return batch


# ── corpus-level line dedup (CCNet-style boilerplate-line removal) ───

def line_count_batch(batch, text_col: str = "text") -> pd.DataFrame:
    """Per-batch partial counts of non-empty lines (md5-hashed) — the
    pre-aggregation half of corpus-level line-frequency counting.
    Accepts an Arrow table (no pandas copy of the block) or pandas."""
    import pyarrow as pa

    texts = (batch[text_col].to_pylist() if isinstance(batch, pa.Table)
             else batch[text_col].fillna("").tolist())
    counts: dict[str, int] = {}
    for text in texts:
        for line in (text or "").split("\n"):
            if line:
                h = hashlib.md5(line.encode("utf-8")).hexdigest()
                counts[h] = counts.get(h, 0) + 1
    return pd.DataFrame({"line_hash": list(counts), "n": list(counts.values())})


def line_frequencies(ds, text_col: str = "text", min_count: int = 2):
    """Corpus-wide line frequencies ≥ min_count: vectorized partial
    counts per batch, then one small groupby-sum over (hash, n) partials
    — the text itself never shuffles."""
    from ray.data.aggregate import Sum

    partials = ds.map_batches(
        lambda b: line_count_batch(b, text_col), batch_format="pyarrow")
    agg = partials.groupby("line_hash").aggregate(Sum("n", alias_name="n"))
    return agg.map_batches(
        lambda b: b[b["n"] >= min_count].astype({"n": "int64"}),
        batch_format="pandas")


def remove_frequent_lines(ds, *, text_col: str = "text", min_count: int = 3):
    """CCNet-style cleaning: drop lines whose corpus frequency ≥
    min_count (boilerplate/nav lines repeated across pages). The
    frequent-line set is broadcast (ray.put); each batch filters its
    docs' lines locally."""
    import ray

    freq = line_frequencies(ds, text_col, min_count).to_pandas()
    frequent = set(freq["line_hash"]) if "line_hash" in freq.columns else set()
    ref = ray.put(frequent)

    def clean(t) -> "object":
        import pyarrow as pa

        bad = ray.get(ref)
        out = []
        for text in t[text_col].to_pylist():
            kept = [
                ln for ln in (text or "").split("\n")
                if not ln or hashlib.md5(ln.encode("utf-8")).hexdigest() not in bad
            ]
            out.append("\n".join(kept))
        return t.append_column(text_col + "_clean", pa.array(out, pa.string()))

    return ds.map_batches(clean, batch_format="pyarrow")


# ── character n-gram LM perplexity (CCNet-style quality signal) ──────

_LM_BUCKETS = 1 << 20  # hashed context·char space; counts fit 8 MB


def _lm_hash(codes: np.ndarray) -> np.ndarray:
    """Vectorized bucket ids for (c0, c1, c2) trigram windows."""
    h = (codes[:-2].astype(np.uint64) * np.uint64(1_000_003)
         + codes[1:-1].astype(np.uint64)) * np.uint64(1_000_003) \
        + codes[2:].astype(np.uint64)
    return (h % np.uint64(_LM_BUCKETS)).astype(np.int64)


def _lm_ctx_hash(codes: np.ndarray) -> np.ndarray:
    """Bucket ids for the (c0, c1) context of each trigram window."""
    h = (codes[:-2].astype(np.uint64) * np.uint64(1_000_003)
         + codes[1:-1].astype(np.uint64))
    return (h % np.uint64(_LM_BUCKETS)).astype(np.int64)


def _text_codes(text: str) -> np.ndarray:
    norm = " ".join((text or "").lower().split())
    return np.frombuffer(norm.encode("utf-8"), dtype=np.uint8)


def train_char_lm(ds, text_col: str = "text") -> tuple[np.ndarray, np.ndarray]:
    """DISTRIBUTED char-trigram LM training: per-batch partial bucket
    counts (np.bincount over hashed trigram/context ids — one
    (_LM_BUCKETS,) vector per batch) merged by a tiny driver sum.
    Returns (trigram_counts, context_counts) — 8 MB each, broadcastable.
    Nothing corpus-sized ever concentrates: driver traffic is
    O(batches × buckets-present) via sparse partials."""
    import pyarrow as pa

    def partial(t: pa.Table) -> pd.DataFrame:
        tri_c = np.zeros(_LM_BUCKETS, np.int64)
        ctx_c = np.zeros(_LM_BUCKETS, np.int64)
        for text in t[text_col].to_pylist():
            codes = _text_codes(text)
            if len(codes) < 3:
                continue
            np.add.at(tri_c, _lm_hash(codes), 1)
            np.add.at(ctx_c, _lm_ctx_hash(codes), 1)
        # sparse representation: only non-zero buckets leave the task
        nz_t = np.nonzero(tri_c)[0]
        nz_c = np.nonzero(ctx_c)[0]
        return pd.DataFrame({
            "kind": np.concatenate([np.zeros(len(nz_t), np.int8),
                                    np.ones(len(nz_c), np.int8)]),
            "bucket": np.concatenate([nz_t, nz_c]),
            "n": np.concatenate([tri_c[nz_t], ctx_c[nz_c]]),
        })

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    tri = np.zeros(_LM_BUCKETS, np.int64)
    ctx = np.zeros(_LM_BUCKETS, np.int64)
    t_rows = parts[parts["kind"] == 0]
    c_rows = parts[parts["kind"] == 1]
    np.add.at(tri, t_rows["bucket"].to_numpy(), t_rows["n"].to_numpy())
    np.add.at(ctx, c_rows["bucket"].to_numpy(), c_rows["n"].to_numpy())
    return tri, ctx


def lm_perplexity(ds, *, key_col: str = "doc_id", text_col: str = "text",
                  k_smooth: float = 0.1):
    """Per-doc char-trigram cross-entropy perplexity against the
    corpus-trained LM (CCNet-style: low = fluent/common, high =
    gibberish). Model broadcast via ray.put; scoring vectorized per
    batch. Returns a Dataset of (key, lm_perplexity)."""
    import ray

    import pyarrow as pa

    tri, ctx = train_char_lm(ds, text_col)
    ref = ray.put((tri, ctx))

    def score(t: pa.Table) -> pd.DataFrame:
        tri_c, ctx_c = ray.get(ref)
        out = []
        for text in t[text_col].to_pylist():
            codes = _text_codes(text)
            if len(codes) < 3:
                out.append(float("nan"))
                continue
            num = tri_c[_lm_hash(codes)] + k_smooth
            den = ctx_c[_lm_ctx_hash(codes)] + k_smooth * 256.0
            out.append(float(np.exp(-np.mean(np.log(num / den)))))
        return pd.DataFrame({
            key_col: t[key_col].to_numpy(zero_copy_only=False),
            "lm_perplexity": out,
        })

    return ds.map_batches(score, batch_format="pyarrow")


def compression_ratio_batch(batch: pd.DataFrame, text_col: str = "text") -> pd.DataFrame:
    """zlib compression ratio per doc — a standard repetitive-spam
    signal (low ratio ⇒ highly repetitive content)."""
    import zlib

    ratios = []
    for text in batch[text_col].fillna(""):
        raw = text.encode("utf-8")
        ratios.append(len(zlib.compress(raw, 6)) / max(len(raw), 1))
    out = pd.DataFrame({"compression_ratio": ratios}, index=batch.index)
    for c in batch.columns:
        if c != text_col:
            out.insert(0, c, batch[c])
    return out


# ── benchmark decontamination (n-gram overlap vs an eval set) ────────

def _gram_hashes(toks: list[str], n: int) -> np.ndarray:
    """Stable 64-bit hashes of FULL word n-grams (vectorized siphash
    over the joined gram strings — the whole gram, not a prefix)."""
    grams = [" ".join(toks[i:i + n]) for i in range(len(toks) - n + 1)]
    if not grams:
        return np.empty(0, dtype=np.uint64)
    return pd.util.hash_array(np.asarray(grams, dtype=object))


def eval_ngram_set(eval_texts: list[str], n: int = 13) -> np.ndarray:
    """Sorted unique 64-bit hashes of the eval set's word n-grams — the
    GPT-3-style decontamination reference set (small; broadcastable)."""
    hashes = [
        _gram_hashes((text or "").lower().split(), n) for text in eval_texts
    ]
    return np.unique(np.concatenate(hashes)) if hashes \
        else np.empty(0, dtype=np.uint64)


def flag_contaminated(ds, eval_texts: list[str], *, n: int = 13,
                      key_col: str = "doc_id", text_col: str = "text"):
    """Flag corpus docs sharing ANY word n-gram with the eval set
    (training-set decontamination): the eval hash set broadcasts once
    (ray.put), each batch probes it with ``probe_sorted`` — no
    shuffle. Returns (key, contaminated, n_hits)."""
    import ray

    import pyarrow as pa

    from .joins import probe_sorted

    ref = ray.put(eval_ngram_set(eval_texts, n))

    def probe(t: pa.Table) -> pd.DataFrame:
        ev = ray.get(ref)
        flags, hits = [], []
        for text in t[text_col].to_pylist():
            hs = _gram_hashes((text or "").lower().split(), n)
            cnt = int(probe_sorted(ev, hs)[0].sum())
            flags.append(cnt > 0)
            hits.append(cnt)
        return pd.DataFrame({
            key_col: t[key_col].to_numpy(zero_copy_only=False),
            "contaminated": pd.Series(flags, dtype=bool),
            "n_hits": pd.Series(hits, dtype="int64"),
        })

    return ds.map_batches(probe, batch_format="pyarrow")


# ── PII detection ────────────────────────────────────────

# RE2-compatible (no lookaround) so the DuckDB oracle can run the
# identical patterns
PII_EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PII_PHONE_RE = r"\+?[0-9]{1,3}[-. ]?\(?[0-9]{3}\)?[-. ][0-9]{3}[-. ][0-9]{4}"
PII_IPV4_RE = r"\b(?:[0-9]{1,3}\.){3}[0-9]{1,3}\b"


def pii_counts_batch(batch, key_col: str = "doc_id",
                     text_col: str = "text") -> pd.DataFrame:
    """Per-doc counts of email/phone/IPv4 matches (vectorized pandas
    str.count with compiled patterns)."""
    import pyarrow as pa

    texts = (pd.Series(batch[text_col].to_pylist(), dtype=object).fillna("")
             if isinstance(batch, pa.Table) else batch[text_col].fillna(""))
    keys = (batch[key_col].to_numpy(zero_copy_only=False)
            if isinstance(batch, pa.Table) else batch[key_col].to_numpy())
    return pd.DataFrame({
        key_col: keys,
        "n_emails": texts.str.count(PII_EMAIL_RE).astype("int64").to_numpy(),
        "n_phones": texts.str.count(PII_PHONE_RE).astype("int64").to_numpy(),
        "n_ipv4": texts.str.count(PII_IPV4_RE).astype("int64").to_numpy(),
    })


# ── BM25 relevance scoring (Robertson/Spärck Jones; Lucene idf) ──────

def bm25_term_scores(ds, query_terms: list[str], *, key_col: str = "doc_id",
                     text_col: str = "text", k1: float = 1.2,
                     b: float = 0.75) -> pd.DataFrame:
    """Per-(doc, query-term) BM25 partial scores → DataFrame(doc_id,
    term, score) for docs where tf > 0.

    Two streaming passes, no token shuffle: (1) per-batch corpus
    partials — df per query term, doc count, token-length sum — merged
    on the driver (|terms|+2 numbers per batch); (2) per-doc tf/dl →
    score. Scores are per-term (no cross-term float summation) so the
    SQL oracle reproduces them bit-stably; idf is the Lucene
    ``ln(1 + (N - df + .5)/(df + .5))`` variant, rounded to 6 dp.
    """
    import pyarrow as pa
    import ray
    from .sketches import tokenize_ascii

    terms = sorted(set(query_terms))

    def partials(t: pa.Table) -> pa.Table:
        docs = 0
        len_sum = 0
        df = dict.fromkeys(terms, 0)
        for s in t[text_col].to_pylist():
            toks = tokenize_ascii(s or "")
            docs += 1
            len_sum += len(toks)
            tok_set = set(toks)
            for q in terms:
                if q in tok_set:
                    df[q] += 1
        # "t:" prefix keeps term keys out of the counters' keyspace
        # (a literal query term "__docs__" must not corrupt n_docs)
        keys = [*(f"t:{q}" for q in terms), "__docs__", "__len__"]
        vals = [*(df[q] for q in terms), docs, len_sum]
        return pa.table({"k": pa.array(keys, pa.string()),
                         "v": pa.array(vals, pa.int64())})

    agg = ds.map_batches(partials, batch_format="pyarrow").to_pandas()
    if agg.empty:
        return pd.DataFrame({key_col: pd.Series([], dtype="int64"),
                             "term": pd.Series([], dtype="object"),
                             "score": pd.Series([], dtype="float64")})
    sums = agg.groupby("k")["v"].sum()
    n_docs = int(sums.get("__docs__", 0))
    if n_docs == 0:
        return pd.DataFrame({key_col: pd.Series([], dtype="int64"),
                             "term": pd.Series([], dtype="object"),
                             "score": pd.Series([], dtype="float64")})
    avgdl = float(sums["__len__"]) / n_docs
    df_map = {q: int(sums.get(f"t:{q}", 0)) for q in terms}
    bcast = ray.put((terms, df_map, n_docs, avgdl))

    def score_batch(t: pa.Table) -> pa.Table:
        qs, dfm, n, ad = ray.get(bcast)
        out_id, out_t, out_s = [], [], []
        ids = t[key_col].to_pylist()
        for did, s in zip(ids, t[text_col].to_pylist()):
            toks = tokenize_ascii(s or "")
            dl = len(toks)
            for q in qs:
                tf = toks.count(q)
                if tf == 0 or dfm[q] == 0:
                    continue
                idf = np.log((n - dfm[q] + 0.5) / (dfm[q] + 0.5) + 1)
                frac = (tf * (k1 + 1)) / (tf + k1 * (1 - b + b * dl / ad))
                out_id.append(did)
                out_t.append(q)
                out_s.append(idf * frac)
        sc = np.asarray(out_s, np.float64) * 1e6
        sc = np.copysign(np.floor(np.abs(sc) + 0.5), sc) / 1e6
        return pa.table({key_col: pa.array(out_id, pa.int64()),
                         "term": pa.array(out_t, pa.string()),
                         "score": pa.array(sc, pa.float64())})

    out = ds.map_batches(score_batch, batch_format="pyarrow").to_pandas()
    return out.sort_values([key_col, "term"]).reset_index(drop=True)


def winnow_selection_batch(batch, *, k: int = 8, window: int = 16,
                           key_col: str = "doc_id",
                           text_col: str = "text") -> pd.DataFrame:
    """Winnowing SELECTION SET per doc (Schleimer et al. 2003) with
    engine-portable gram hashes: sel = distinct per-window minima of
    md5(k-gram)[:16]. Fixed-width hex compares lexicographically like
    the underlying uint64, so the whole pipeline stays on strings and
    the DuckDB oracle replays it with MIN() OVER a 15-PRECEDING frame.
    Docs with no k-gram (normalized length < k) emit nothing."""
    import pyarrow as pa

    if isinstance(batch, pa.Table):
        texts = batch[text_col].to_pylist()
        keys = batch[key_col].to_pylist()
    else:
        texts = batch[text_col].fillna("").tolist()
        keys = batch[key_col].tolist()
    out_key: list = []
    out_sel: list[str] = []
    for key, text in zip(keys, texts):
        norm = " ".join((text or "").lower().split())
        n = len(norm) - k + 1
        if n <= 0:
            continue
        hs = np.fromiter(
            (int(hashlib.md5(norm[i:i + k].encode()).hexdigest()[:16], 16)
             for i in range(n)), dtype=np.uint64, count=n)
        if n <= window:
            sel = hs.min(keepdims=True)
        else:
            sel = np.unique(
                np.lib.stride_tricks.sliding_window_view(hs, window)
                .min(axis=1))
        out_key.extend([key] * len(sel))
        out_sel.extend(f"{v:016x}" for v in sel.tolist())
    return pd.DataFrame({key_col: out_key, "sel_hash": out_sel})
