"""Distributed hashed-feature logistic-regression quality classifier.

The reference repo's only "quality gate" is an LLM call per chunk
(`/root/reference/src/main.ts:183-198`); real web-scale curation
pipelines replace that with a cheap linear classifier over hashed
bag-of-words features (CCNet, Wenzek et al. 2020; GPT-3's
WebText-vs-CommonCrawl filter, Brown et al. 2020 appendix A;
feature hashing per Weinberger et al. 2009). This module re-expresses
that op Ray-Data-first:

- **features**: dim-D hashed token counts per doc, l2-normalized,
  built vectorized per batch (one ``pd.util.hash_array`` over the
  batch's token stream — no per-token Python hashing).
- **training**: full-batch gradient descent with L2. Each batch ships
  ONE (D+1)-vector partial gradient — the only bytes that leave a
  node; documents never move. Per-doc gradient contributions are
  quantized to FIXED-POINT int64 before summation: integer addition
  is associative, so the learned weights are bit-identical no matter
  how Ray partitions the data or schedules tasks (float partial sums
  would differ across batch boundaries). Updated weights re-broadcast
  via ``ray.put`` each pass.
- **scoring**: one broadcast-weights fetch per task, vectorized
  sigmoid per batch.

Scale shape: training runs ``n_iters`` passes, so at 100 TB you train
on a hash-sampled slice (``train_mod`` — the standard practice: the
classifier needs ~10^5-10^6 docs, not the corpus) and score the full
corpus in a single streaming pass.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .sketches import tokenize_ascii

__all__ = [
    "hash_features",
    "lr_train",
    "lr_score_dataset",
    "default_label_batch",
]

def hash_features(texts: list[str | None], dim: int,
                  token_hash: str = "sip") -> np.ndarray:
    """(n, dim) float64 l2-normalized hashed token counts.

    ``token_hash``: "sip" (vectorized siphash buckets — the fast
    default) or "md5" (engine-portable: bucket = first-8-hex md5 of
    the token mod dim, which DuckDB computes verbatim — used by the
    oracle-checked rag_index_docs)."""
    import hashlib

    out = np.zeros((len(texts), dim), np.float64)
    toks_per_doc = [tokenize_ascii(t or "") for t in texts]
    flat = [t for toks in toks_per_doc for t in toks]
    if flat:
        if token_hash == "md5":
            # hash each DISTINCT token once — corpora repeat tokens
            # heavily, so this cuts the md5 count by ~the corpus'
            # type/token ratio on the hot scoring path
            uniq, inv = np.unique(np.asarray(flat, dtype=object),
                                  return_inverse=True)
            ub = np.array(
                [int(hashlib.md5(t.encode()).hexdigest()[:8], 16) % dim
                 for t in uniq], np.int64)
            buckets = ub[inv]
        else:
            buckets = (pd.util.hash_array(np.asarray(flat, dtype=object))
                       % np.uint64(dim)).astype(np.int64)
        rows = np.repeat(np.arange(len(texts)),
                         [len(t) for t in toks_per_doc])
        np.add.at(out, (rows, buckets), 1.0)
    norms = np.linalg.norm(out, axis=1)
    out /= np.where(norms > 0, norms, 1.0)[:, None]
    return out


def default_label_batch(t: pa.Table, text_col: str = "text") -> np.ndarray:
    """Deterministic weak-supervision labels: composite quality score
    0.6·TTR + 0.4·min(n_tokens, 100)/100 ≥ 0.52 — high type-token
    ratio (non-repetitive) AND reasonable length score well, the
    Gopher-repetition family as a soft score. On a real corpus you'd
    swap ``label_fn`` for source labels (wikipedia-vs-crawl, the GPT-3
    recipe); the driver's synthetic corpora carry NO content signal
    (one shared vocabulary across langs/sources — measured: a
    fully-converged model predicting lang-from-text tops out at 0.6),
    so the default label must be a shape rule for the training demo to
    have anything to learn.

    Returns {0.0, 1.0, nan}: nan marks docs within ±0.02 of the
    threshold — ambiguous examples excluded from TRAINING (standard
    confident-label practice; they are still SCORED)."""
    labels = np.zeros(t.num_rows, np.float64)
    for i, s in enumerate(t[text_col].to_pylist()):
        toks = tokenize_ascii(s or "")
        if not toks:
            continue
        ttr = len(set(toks)) / len(toks)
        score = 0.6 * ttr + 0.4 * min(len(toks), 100) / 100.0
        if abs(score - 0.52) < 0.02:
            labels[i] = float("nan")
        elif score >= 0.52:
            labels[i] = 1.0
    return labels


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * z))


N_SHAPE = 4  # appended dense features beyond the hashed dims


def feature_matrix(texts: list[str | None], dim: int,
                   token_hash: str = "sip") -> np.ndarray:
    """(n, dim + N_SHAPE): l2-normalized hashed counts PLUS four dense
    shape features a LINEAR model needs to express repetition/length
    rules (a norm ratio is nonlinear in raw counts, so pure BoW cannot
    learn a type-token-ratio gate): TTR, capped length share, mean
    token length, and count concentration (l2/l1 — high = repetitive)."""
    x = hash_features(texts, dim, token_hash=token_hash)
    shape = np.zeros((len(texts), N_SHAPE), np.float64)
    for i, s in enumerate(texts):
        toks = tokenize_ascii(s or "")
        n = len(toks)
        if not n:
            continue
        counts: dict[str, int] = {}
        for t in toks:
            counts[t] = counts.get(t, 0) + 1
        c = np.fromiter(counts.values(), np.float64, len(counts))
        shape[i, 0] = len(counts) / n
        shape[i, 1] = min(n, 100) / 100.0
        shape[i, 2] = min(sum(map(len, toks)) / n / 10.0, 1.0)
        shape[i, 3] = float(np.linalg.norm(c) / c.sum())
    return np.hstack([x, shape])


def _grad_partials(x: np.ndarray, y: np.ndarray, w: np.ndarray,
                   b: float) -> tuple[np.ndarray, int, int, int]:
    """Fixed-point gradient/loss partials (int64) for one chunk — the
    ONE quantization site the distributed and local training paths
    share, so their results are BIT-IDENTICAL: per-doc contributions
    quantize to int64 and integer sums are associative across any
    chunking/partitioning."""
    p = _sigmoid(x @ w + b)
    err = p - y
    gw = np.round(x * (err[:, None] * _SCALE)).astype(np.int64).sum(axis=0)
    gb = int(np.round(err * _SCALE).astype(np.int64).sum())
    eps = 1e-12
    pl = -(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps))
    loss = int(np.round(pl * _SCALE).astype(np.int64).sum())
    return gw, gb, loss, len(y)


# Fixed-point scale: per-doc |contribution| ≤ 1 per dim, so even
# 10^6 training docs stay ≪ 2^63 at 2^40.
_SCALE = float(1 << 40)

# Training sets of at most this many rows run lr_train's GD loop on the
# driver (read at call time).
LOCAL_TRAIN_BELOW = 100_000


def lr_train(ds, *, dim: int = 256, n_iters: int = 20, lr: float = 2.0,
             l2: float = 1e-4, key_col: str = "doc_id",
             text_col: str = "text", label_fn=default_label_batch,
             train_mod: int = 1, token_hash: str = "sip",
             ) -> tuple[np.ndarray, float, list[float]]:
    """Train and return (weights[dim], bias, per-iter mean losses).

    ``train_mod > 1`` hash-samples the training slice
    (``doc_id % train_mod == 0``) — corpus-scale runs train on a
    sliver and score everything.

    A training set of ≤ ``LOCAL_TRAIN_BELOW`` rows is gathered ONCE
    (after the one distributed featurize pass) and the GD loop runs on
    the driver: per-iteration Ray task launches were the dominant cost
    for small samples (15 × ~100 ms ≫ the matmul). The fixed-point
    quantization makes the two paths bit-identical (``_grad_partials``
    is shared; int sums are associative), so the switch is invisible
    to results — pytest asserts equality across the threshold.
    """
    import ray

    if train_mod > 1:
        def keep(t: pa.Table) -> pa.Table:
            keys = t[key_col].to_numpy(zero_copy_only=False)
            return t.filter(pa.array(keys % train_mod == 0))

        ds = ds.map_batches(keep, batch_format="pyarrow")

    fdim = dim + N_SHAPE

    # One materialization of the FEATURES (n × fdim floats + label),
    # not the text: n_iters passes then re-tokenize nothing.
    def featurize(t: pa.Table) -> pa.Table:
        x = feature_matrix(t[text_col].to_pylist(), dim,
                           token_hash=token_hash)
        y = label_fn(t, text_col)
        conf = ~np.isnan(y)  # drop label_fn's ambiguous (nan) examples
        x, y = x[conf], y[conf]
        keys = t[key_col].to_numpy(zero_copy_only=False)[conf]
        return pa.table({
            key_col: pa.array(keys),
            "x": pa.FixedSizeListArray.from_arrays(
                pa.array(x.ravel(), pa.float32()), fdim),
            "y": pa.array(y, pa.float32()),
        })

    feats = ds.map_batches(featurize, batch_format="pyarrow").materialize()

    n_train = feats.count()
    if n_train == 0:
        raise ValueError(
            "lr_train: empty effective training set — every example "
            "was filtered out (label_fn returned all-ambiguous NaN "
            "labels, or train_mod excluded every row)")

    def _x_matrix(t: pa.Table) -> np.ndarray:
        # zero-copy read of the FixedSizeList buffer (a .tolist()
        # round-trip here was the dominant per-iteration cost)
        return t["x"].combine_chunks().flatten().to_numpy(
            zero_copy_only=False).astype(np.float64).reshape(t.num_rows,
                                                             fdim)

    w = np.zeros(fdim, np.float64)
    b = 0.0
    losses: list[float] = []

    if n_train <= LOCAL_TRAIN_BELOW:
        xs, ys = [], []
        for t in feats.iter_batches(batch_size=8192,
                                    batch_format="pyarrow"):
            xs.append(_x_matrix(t))
            ys.append(t["y"].to_numpy(zero_copy_only=False)
                      .astype(np.float64))
        x_all = np.concatenate(xs)
        y_all = np.concatenate(ys)
        for _ in range(n_iters):
            gw_int, gb_int, loss_int, _ = _grad_partials(x_all, y_all, w, b)
            n = float(n_train)
            w = w - lr * (gw_int / _SCALE / n + l2 * w)
            b = b - lr * (float(gb_int) / _SCALE / n)
            losses.append(float(loss_int) / _SCALE / n)
        return w, b, losses

    for _ in range(n_iters):
        ref = ray.put((w, b))

        def partial(t: pa.Table) -> pa.Table:
            import ray as _ray

            wt, bt = _ray.get(ref)
            gw, gb, loss, n_rows = _grad_partials(
                _x_matrix(t),
                t["y"].to_numpy(zero_copy_only=False).astype(np.float64),
                wt, bt)
            return pa.table({
                "gw": pa.array([gw.tobytes()], pa.binary()),
                "gb": pa.array([gb], pa.int64()),
                "loss": pa.array([loss], pa.int64()),
                "n": pa.array([n_rows], pa.int64()),
            })

        parts = feats.map_batches(partial, batch_format="pyarrow").to_pandas()
        n = float(parts["n"].sum())
        gw_int = np.zeros(fdim, np.int64)
        for buf in parts["gw"]:
            gw_int += np.frombuffer(buf, np.int64)
        gw = gw_int / _SCALE / n + l2 * w
        gb = float(parts["gb"].sum()) / _SCALE / n
        w = w - lr * gw
        b = b - lr * gb
        losses.append(float(parts["loss"].sum()) / _SCALE / n)
    return w, b, losses


def lr_score_dataset(ds, w: np.ndarray, b: float, *, dim: int | None = None,
                     key_col: str = "doc_id", text_col: str = "text",
                     token_hash: str = "sip"):
    """Score every row: (key, prob, pred) — one streaming pass,
    weights broadcast once. ``dim`` is the HASHED dim (defaults to
    len(w) - N_SHAPE; the shape features ride at the end)."""
    import ray

    dim = dim if dim is not None else len(w) - N_SHAPE
    ref = ray.put((np.asarray(w, np.float64), float(b)))

    def score(t: pa.Table) -> pa.Table:
        wt, bt = ray.get(ref)
        x = feature_matrix(t[text_col].to_pylist(), dim,
                           token_hash=token_hash)
        p = _sigmoid(x @ wt + bt)
        return pa.table({
            key_col: t[key_col],
            "prob": pa.array(np.round(p, 6), pa.float64()),
            "pred": pa.array((p >= 0.5).astype(np.int64), pa.int64()),
        })

    return ds.map_batches(score, batch_format="pyarrow")
