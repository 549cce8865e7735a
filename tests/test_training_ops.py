"""Dedup family, similarity search, text analysis, multimodal plumbing."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from pdf_to_text_ray.stages.analysis import (
    LangId,
    kgram_hashes,
    token_stats_batch,
    winnow_fingerprint,
)
from pdf_to_text_ray.stages.dedup import (
    content_hash,
    exact_dedup,
    jaccard,
    minhash_neardup_pairs,
    minhash_signature,
    shingle_hashes,
    simhash64,
    simhash_neardup_pairs,
)
from pdf_to_text_ray.stages.multimodal import (
    MediaFeatureExtractor,
    extract_media_features,
)
from pdf_to_text_ray.stages.similarity import (
    ann_lsh_topk,
    embedding_neardup_pairs,
    knn_bruteforce,
    list_column_to_matrix,
)

SF = "/root/testdata/sf0.001"


# ── analysis ──────────────────────────────────────────────────────────

def test_token_stats():
    b = pd.DataFrame({"doc_id": [1, 2, 3], "text": ["Hello, world!", "", "a  b\tc"]})
    out = token_stats_batch(b)
    assert out["n_tokens"].tolist() == [2, 0, 3]
    assert out["n_chars"].tolist() == [13, 0, 6]
    assert out["punct_ratio"].tolist()[0] == pytest.approx(2 / 13)
    assert out["avg_token_len"].tolist()[2] == 1.0


def test_langid():
    lid = LangId()
    assert lid.predict("the cat and the dog are in the house for a while") == "en"
    assert lid.predict("el perro y el gato en la casa con los niños") == "es"
    assert lid.predict("der Hund und die Katze sind mit dem Kind im Haus") == "de"
    assert lid.predict("中文文本处理系统测试中文文本") == "zh"
    assert lid.predict("") == "und"


def test_fingerprint_stability_and_locality():
    a = winnow_fingerprint("the quick brown fox jumps over the lazy dog" * 5)
    b = winnow_fingerprint("the quick brown fox jumps over the lazy dog" * 5)
    c = winnow_fingerprint("a completely different document about other things" * 5)
    assert a == b and a != c
    assert winnow_fingerprint("CASE and   spacing") == winnow_fingerprint("case and spacing")


def test_kgram_hashes_deterministic():
    h1 = kgram_hashes("hello world", 5)
    h2 = kgram_hashes("hello world", 5)
    assert (h1 == h2).all() and h1.dtype == np.uint64


# ── dedup ─────────────────────────────────────────────────────────────

def test_minhash_similarity_estimates_jaccard():
    t1 = "the quick brown fox jumps over the lazy dog and runs far away " * 4
    t2 = "the quick brown fox jumps over the lazy cat and runs far away " * 4
    t3 = "completely unrelated text about database engines and columnar formats " * 4
    s1, s2, s3 = (shingle_hashes(t) for t in (t1, t2, t3))
    m1, m2, m3 = (minhash_signature(s) for s in (s1, s2, s3))
    est_12 = (m1 == m2).mean()
    est_13 = (m1 == m3).mean()
    assert jaccard(s1, s2) > 0.6 and est_12 > 0.5
    assert jaccard(s1, s3) < 0.1 and est_13 < 0.2


def test_simhash_locality():
    t1 = "the quick brown fox jumps over the lazy dog " * 8
    t2 = t1.replace("dog", "cat")
    t3 = "entirely different words appear within this other document " * 8
    d12 = bin(simhash64(t1) ^ simhash64(t2)).count("1")
    d13 = bin(simhash64(t1) ^ simhash64(t3)).count("1")
    assert d12 < d13
    assert simhash64(t1) == simhash64(t1)  # stable


@pytest.fixture()
def dup_docs_ds(ray_session):
    import ray.data as rd

    base = "the quick brown fox jumps over the lazy dog and keeps on running "
    rows = {
        "doc_id": list(range(8)),
        "text": [
            base * 6,                       # 0
            base * 6,                       # 1: exact dup of 0
            (base * 6).replace("dog", "cat"),  # 2: near dup of 0
            "short unrelated text here",    # 3
            "another unrelated document about parquet files and arrow",  # 4
            base * 6 + " tail",             # 5: near dup of 0
            "",                             # 6
            "third unrelated piece of writing with many distinct words",  # 7
        ],
    }
    return rd.from_arrow(pa.table(rows))


def test_exact_dedup(dup_docs_ds):
    out = exact_dedup(dup_docs_ds).to_pandas()
    assert len(out) == 7  # 8 docs, one exact-dup pair
    kept = set(out["doc_id"])
    assert 0 in kept and 1 not in kept  # min doc_id wins


def test_minhash_neardup_pairs(dup_docs_ds):
    pairs = minhash_neardup_pairs(dup_docs_ds, threshold=0.5)
    got = set(zip(pairs["id_a"], pairs["id_b"]))
    assert (0, 1) in got  # exact dup: jaccard 1.0
    assert (0, 2) in got or (0, 5) in got  # near dups found
    assert all(a < b for a, b in got)
    for _, row in pairs.iterrows():
        if (row["id_a"], row["id_b"]) == (0, 1):
            assert row["jaccard_sim"] == 1.0


def test_simhash_neardup_pairs(dup_docs_ds):
    pairs = simhash_neardup_pairs(dup_docs_ds, max_hamming=3)
    got = set(zip(pairs["id_a"], pairs["id_b"]))
    assert (0, 1) in got  # identical text → hamming 0
    assert all(h <= 3 for h in pairs["hamming"])


# ── similarity ────────────────────────────────────────────────────────

def test_list_column_to_matrix():
    t = pa.table({"v": pa.array([[1.0, 2.0], [3.0, 4.0]], pa.list_(pa.float32()))})
    m = list_column_to_matrix(t["v"])
    assert m.shape == (2, 2) and m.dtype == np.float64


def test_knn_bruteforce_exact(ray_session):
    import ray.data as rd

    ds = rd.read_parquet(f"{SF}/embeddings.parquet")
    out = knn_bruteforce(ds, query_ids=[0, 1], k=5)
    assert set(out["query_id"]) == {0, 1}
    assert (out.groupby("query_id")["rank"].max() == 5).all()
    # cross-check one query against plain numpy
    pdf = ds.to_pandas()
    mat = np.stack([np.asarray(v, np.float64) for v in pdf["embedding"]])
    mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    q = mat[pdf["vec_id"].tolist().index(0)]
    sims = mat @ q
    ids = pdf["vec_id"].to_numpy()
    order = np.lexsort((ids, -sims))
    expect = [int(ids[i]) for i in order if ids[i] != 0][:5]
    got = out[out["query_id"] == 0].sort_values("rank")["vec_id"].tolist()
    assert got == expect


def test_ann_lsh_has_reasonable_recall(ray_session):
    import ray.data as rd

    ds = rd.read_parquet(f"{SF}/embeddings.parquet")
    queries = [0, 1, 2, 3, 4]
    exact = knn_bruteforce(ds, queries, k=5)
    approx = ann_lsh_topk(ds, queries, k=5, n_bits=4)
    # LSH with 16-bit buckets on 500 rows is sparse; just require the
    # plumbing to produce *some* deterministic neighbors for each query
    assert len(approx) > 0
    approx2 = ann_lsh_topk(ds, queries, k=5, n_bits=4)
    pd.testing.assert_frame_equal(approx, approx2)
    del exact


def test_embedding_neardup_pairs_symmetry(ray_session):
    import ray.data as rd

    ds = rd.read_parquet(f"{SF}/embeddings.parquet")
    pairs = embedding_neardup_pairs(ds, threshold=0.9)
    assert (pairs["id_a"] < pairs["id_b"]).all()
    # deterministic across runs
    pairs2 = embedding_neardup_pairs(ds, threshold=0.9)
    pd.testing.assert_frame_equal(pairs, pairs2)


# ── multimodal plumbing ───────────────────────────────────────────────

def test_media_feature_extractor_plumbing(ray_session):
    import ray.data as rd

    t = pa.table({
        "media_id": pa.array([1, 2, 3], pa.int64()),
        "media_type": pa.array(["image", "audio", "video"]),
        "payload": pa.array([b"\x89PNG fake", b"RIFF fake", b"\x00\x00ftyp fake"], pa.binary()),
        "meta_width": pa.array([640, 0, 1920], pa.int32()),
        "meta_height": pa.array([480, 0, 1080], pa.int32()),
        "meta_duration_ms": pa.array([0, 4000, 9500], pa.int32()),
    })
    out = extract_media_features(rd.from_arrow(t), concurrency=2, batch_size=2)
    pdf = out.to_pandas()
    assert len(pdf) == 3
    assert all(len(f) == 64 for f in pdf["features"])
    assert "payload" not in pdf.columns  # payload projected away
    # deterministic fake features
    f1 = MediaFeatureExtractor()(t.slice(0, 1))
    f2 = MediaFeatureExtractor()(t.slice(0, 1))
    assert f1["features"].to_pylist() == f2["features"].to_pylist()


def test_media_strict_mode_raises_on_undecodable_only():
    from pdf_to_text_ray.stages.media_codecs import encode_bmp

    ext = MediaFeatureExtractor(strict=True)
    bmp = encode_bmp(np.full((4, 4, 3), 128, np.uint8))
    assert len(ext._features(bmp)) == 64          # stdlib-decodable: real
    with pytest.raises(NotImplementedError):      # JPEG: needs injection
        ext._features(b"\xff\xd8\xff\xe0 fake jpeg")


def test_media_codecs_roundtrip_and_features():
    from pdf_to_text_ray.stages.media_codecs import (
        audio_features, decode_bmp, decode_features, decode_ppm, decode_wav,
        encode_bmp, encode_ppm, encode_wav, image_features, resize_nearest)

    rng = np.random.RandomState(3)
    img = rng.randint(0, 256, size=(13, 7, 3)).astype(np.uint8)  # odd width: row padding
    assert (decode_bmp(encode_bmp(img)) == img).all()
    assert (decode_ppm(encode_ppm(img)) == img).all()
    gray = rng.randint(0, 256, size=(5, 9)).astype(np.uint8)
    assert (decode_ppm(encode_ppm(gray)) == gray).all()

    t = np.linspace(0, 1, 16000)
    sig = 0.5 * np.sin(2 * np.pi * 440 * t)
    rate, back = decode_wav(encode_wav(sig, 16000))
    assert rate == 16000 and len(back) == 16000
    assert np.abs(back - sig).max() < 1e-3        # 16-bit quantization

    # real features: image dims/histogram land where documented
    f = image_features(img)
    assert f[0] == pytest.approx(np.log1p(7)) and f[1] == pytest.approx(np.log1p(13))
    assert abs(f[16:48].sum() - 1.0) < 1e-6       # luma histogram normalized
    fa = audio_features(rate, back)
    assert fa[1] == pytest.approx(0.5 / np.sqrt(2), rel=1e-2)  # sine RMS

    # dispatch + resize
    assert len(decode_features(encode_wav(sig))) == 64
    assert resize_nearest(img, 4, 4).shape == (4, 4, 3)
    small = resize_nearest(img, 3, 2)
    assert small.shape == (2, 3, 3)


def test_ivf_topk_recall_vs_bruteforce(ray_session):
    import ray.data as rd

    from pdf_to_text_ray.stages.similarity import ivf_topk

    ds = rd.read_parquet(f"{SF}/embeddings.parquet")
    queries = [0, 1, 2]
    exact = knn_bruteforce(ds, queries, k=5)
    approx = ivf_topk(ds, queries, k=5, n_lists=8, n_probe=4)
    assert set(approx["query_id"]) == set(queries)
    # probing half the lists should recover most exact neighbors
    recall = len(set(map(tuple, approx[["query_id", "vec_id"]].values))
                 & set(map(tuple, exact[["query_id", "vec_id"]].values))) / len(exact)
    assert recall >= 0.5
    # deterministic
    approx2 = ivf_topk(ds, queries, k=5, n_lists=8, n_probe=4)
    pd.testing.assert_frame_equal(approx, approx2)


def test_ivf_topk_portable_exhaustive_equals_bruteforce(ray_session):
    """The portable (md5-init + 6 dp barrier) codebook still partitions
    correctly: probing every list makes the search exact, so the output
    must equal brute force rank-for-rank — and the portable trainer is
    deterministic across invocations."""
    import ray.data as rd

    from pdf_to_text_ray.stages.similarity import ivf_topk

    ds = rd.read_parquet(f"{SF}/embeddings.parquet")
    queries = [0, 1, 2]
    exact = knn_bruteforce(ds, queries, k=5)
    full = ivf_topk(ds, queries, k=5, n_lists=8, n_probe=8, portable=True)
    pd.testing.assert_frame_equal(
        full.reset_index(drop=True), exact.reset_index(drop=True))
    again = ivf_topk(ds, queries, k=5, n_lists=8, n_probe=8, portable=True)
    pd.testing.assert_frame_equal(full, again)


def test_connected_components_and_keep_set(dup_docs_ds):
    from pdf_to_text_ray.stages.dedup import connected_components, neardup_keep_set

    cc = connected_components(pd.DataFrame({"id_a": [1, 2, 5], "id_b": [2, 3, 6]}))
    assert cc[1] == cc[2] == cc[3] == 1 and cc[5] == cc[6] == 5

    out = neardup_keep_set(dup_docs_ds, threshold=0.5).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    assert len(out) == 8
    grouped = out[out["group_root"] == 0]
    assert len(grouped) >= 2           # 0,1(,2,5) clustered
    assert out[out["doc_id"] == 0]["kept"].item() is True or bool(out[out["doc_id"] == 0]["kept"].item())
    assert not out[out["doc_id"] == 1]["kept"].item()  # dup of 0 dropped
    kept = out[out["kept"]]
    assert kept.groupby("group_root").size().max() == 1  # one winner per group


def test_line_dedup_removes_boilerplate(ray_session):
    import ray.data as rd

    from pdf_to_text_ray.stages.analysis import remove_frequent_lines

    boiler = "ACCEPT COOKIES | HOME | ABOUT"
    docs = pa.table({
        "doc_id": [1, 2, 3, 4],
        "text": [
            boiler + "\nunique article one body",
            boiler + "\nanother different piece of writing",
            boiler + "\nthird separate document text",
            "no boilerplate in this one at all",
        ],
    })
    out = remove_frequent_lines(rd.from_arrow(docs), min_count=3).to_pandas()
    cleaned = dict(zip(out["doc_id"], out["text_clean"]))
    assert boiler not in cleaned[1] and "unique article" in cleaned[1]
    assert boiler not in cleaned[3] and "third separate" in cleaned[3]
    assert cleaned[4] == "no boilerplate in this one at all"


def test_compression_ratio_signal():
    from pdf_to_text_ray.stages.analysis import compression_ratio_batch

    b = pd.DataFrame({"doc_id": [1, 2], "text": [
        "spam spam spam " * 100,
        "the quick brown fox jumps over a lazy dog while thinking about parquet",
    ]})
    out = compression_ratio_batch(b)
    assert out.loc[0, "compression_ratio"] < 0.1      # repetitive → tiny
    assert out.loc[1, "compression_ratio"] > 0.5      # normal prose


def test_hll_accuracy_and_merge(ray_session):
    import ray.data as rd

    from pdf_to_text_ray.stages.sketches import (
        approx_distinct, hll_estimate, hll_merge, hll_sketch)

    # direct: 10k distinct values within ~5%
    vals = [f"user-{i}" for i in range(10_000)]
    est = hll_estimate(hll_sketch(vals))
    assert abs(est - 10_000) / 10_000 < 0.05
    # merge associativity: union of halves == whole
    a, b = hll_sketch(vals[:6000]), hll_sketch(vals[4000:])
    assert abs(hll_estimate(hll_merge([a, b])) - est) / est < 0.01
    # distributed path over the events table vs exact distinct users
    ds = rd.read_parquet(f"{SF}/events.parquet", columns=["user_id"])
    exact = len(set(ds.to_pandas()["user_id"]))
    approx = approx_distinct(ds, "user_id")
    assert abs(approx - exact) / max(exact, 1) < 0.1


def test_multiprobe_improves_recall(ray_session):
    import ray.data as rd

    ds = rd.read_parquet(f"{SF}/embeddings.parquet")
    queries = [0, 1, 2, 3, 4]
    exact = set(map(tuple, knn_bruteforce(ds, queries, k=5)[["query_id", "vec_id"]].values))

    def recall(n_probe):
        got = ann_lsh_topk(ds, queries, k=5, n_bits=4, n_probe=n_probe)
        return len(set(map(tuple, got[["query_id", "vec_id"]].values)) & exact) / len(exact)

    # n_bits=4 → 16 buckets on 500 vectors: 1 probe touches ~6% of the
    # corpus, 8 probes ~50% — recall must grow with probes
    r1, r8 = recall(1), recall(8)
    assert r8 >= r1  # multiprobe can only widen the candidate set
    assert r8 > 0.25


def test_stateful_sessionize_matches_groupby(ray_session):
    """The raw-actor incremental sessionizer must equal the batch
    groupby implementation on the same events."""
    import ray.data as rd

    from pdf_to_text_ray.pipelines.queries import sessionize_events
    from pdf_to_text_ray.stages.stateful import stateful_sessionize

    sf = "/root/testdata/sf0.001"
    batch_impl = (sessionize_events(sf).to_pandas()
                  .sort_values("user_id").reset_index(drop=True))
    ds = rd.read_parquet(f"{sf}/events.parquet",
                         columns=["user_id", "ts", "event_id"])
    actor_impl = stateful_sessionize(ds, num_actors=3)
    pd.testing.assert_frame_equal(
        actor_impl, batch_impl.astype({"user_id": "int64", "n_sessions": "int64"}))

def test_minlabel_components_matches_union_find(ray_session):
    """Distributed min-label propagation == driver-side union-find on
    chains (worst-case diameter), cliques, and singleton-free graphs."""
    from pdf_to_text_ray.stages.dedup import connected_components, minlabel_components

    pairs = pd.DataFrame({
        # chain 10-11-12-13-14, clique {2,4,6}, pair (100, 7)
        "id_a": [10, 11, 12, 13, 2, 2, 4, 100],
        "id_b": [11, 12, 13, 14, 4, 6, 6, 7],
    })
    got = minlabel_components(pairs)
    ref = connected_components(pairs)
    assert dict(zip(got["node"], got["group_root"])) == ref
    # empty input keeps schema
    empty = minlabel_components(pairs.iloc[0:0])
    assert list(empty.columns) == ["node", "group_root"] and len(empty) == 0


def test_minhash_verify_join_matches_broadcast(dup_docs_ds, monkeypatch):
    """The hash-partitioned verify join (10^12-doc path) returns exactly
    the broadcast-verified pair set."""
    from pdf_to_text_ray.stages import dedup
    from pdf_to_text_ray.stages.dedup import minhash_neardup_pairs

    monkeypatch.setattr(dedup, "JOIN_VERIFY_ABOVE", 10**9)
    a = minhash_neardup_pairs(dup_docs_ds, threshold=0.5)
    monkeypatch.setattr(dedup, "JOIN_VERIFY_ABOVE", -1)
    b = minhash_neardup_pairs(dup_docs_ds, threshold=0.5)
    pd.testing.assert_frame_equal(
        a.reset_index(drop=True), b.reset_index(drop=True))

def test_jaccard_neardup_exact_vs_bruteforce(dup_docs_ds):
    """Inverted-index Jaccard pairs == brute-force all-pairs Jaccard."""
    import numpy as np

    from pdf_to_text_ray.stages.analysis import _gram_hashes
    from pdf_to_text_ray.stages.dedup import jaccard_neardup_pairs

    texts = dup_docs_ds.to_pandas().set_index("doc_id")["text"].to_dict()
    sets = {k: set(np.unique(_gram_hashes((v or "").lower().split(), 3)))
            for k, v in texts.items()}
    want = {}
    ids = sorted(sets)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            u = len(sets[a] | sets[b])
            j = len(sets[a] & sets[b]) / u if u else 0.0
            if j >= 0.3:
                want[(a, b)] = j
    got = jaccard_neardup_pairs(dup_docs_ds, n=3, threshold=0.3).to_pandas()
    got_map = {(r.id_a, r.id_b): r.jaccard_sim for r in got.itertuples()}
    assert got_map.keys() == want.keys()
    for k in want:
        assert abs(got_map[k] - want[k]) < 1e-12
    # exact dup pair scores exactly 1.0
    assert got_map[(0, 1)] == 1.0


def test_jaccard_neardup_string_keys_and_keep_set(ray_session):
    """String doc keys flow through pairs → components → keep set."""
    import pyarrow as pa
    import ray.data as rd

    from pdf_to_text_ray.stages.dedup import jaccard_keep_set

    base = "alpha beta gamma delta epsilon zeta eta theta " * 4
    ds = rd.from_arrow(pa.table({
        "doc_id": ["u/a", "u/b", "u/c", "u/d"],
        "text": [base, base, base + " tail word", "totally different words"],
    }))
    out = jaccard_keep_set(ds, n=3, threshold=0.5).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    assert list(out["doc_id"]) == ["u/a", "u/b", "u/c", "u/d"]
    assert list(out["group_root"]) == ["u/a", "u/a", "u/a", "u/d"]
    assert list(out["kept"]) == [True, False, False, True]


def test_jaccard_max_posting_prunes_hot_grams(dup_docs_ds):
    """Stop-gram pruning only lowers counts — a subset of the exact
    pair set survives, with jaccard never overestimated."""
    from pdf_to_text_ray.stages.dedup import jaccard_neardup_pairs

    exact = jaccard_neardup_pairs(dup_docs_ds, n=3, threshold=0.3).to_pandas()
    pruned = jaccard_neardup_pairs(dup_docs_ds, n=3, threshold=0.3,
                                   max_posting=2).to_pandas()
    ex = {(r.id_a, r.id_b): r.jaccard_sim for r in exact.itertuples()}
    pr = {(r.id_a, r.id_b): r.jaccard_sim for r in pruned.itertuples()}
    assert pr.keys() <= ex.keys()
    for k, v in pr.items():
        assert v <= ex[k] + 1e-12


def test_embedding_neardup_blocked_recall(ray_session, monkeypatch):
    """The blocked (LSH-bucketed) threshold self-join returns a subset
    of the exact pair set with high recall at a high threshold."""
    import ray.data as rd

    from pdf_to_text_ray.stages import similarity
    from pdf_to_text_ray.stages.similarity import (
        embedding_neardup_pairs, embedding_neardup_pairs_blocked)

    ds = rd.read_parquet(f"{SF}/embeddings.parquet")
    monkeypatch.setattr(similarity, "EXACT_MAX_ROWS", 10**9)
    exact = embedding_neardup_pairs(ds, threshold=0.45)
    blocked = embedding_neardup_pairs_blocked(ds, threshold=0.45,
                                              n_bits=4, n_tables=8)
    ex = set(map(tuple, exact[["id_a", "id_b"]].values))
    bl = set(map(tuple, blocked[["id_a", "id_b"]].values))
    assert bl <= ex                      # no false positives (exact verify)
    if ex:
        assert len(bl & ex) / len(ex) >= 0.5
    # deterministic
    blocked2 = embedding_neardup_pairs_blocked(ds, threshold=0.45,
                                               n_bits=4, n_tables=8)
    pd.testing.assert_frame_equal(blocked, blocked2)

def test_char_lm_perplexity_separates_fluent_from_gibberish(ray_session):
    """Corpus-like text scores LOWER perplexity than random gibberish
    against the corpus-trained trigram LM; deterministic across runs."""
    import ray.data as rd

    from pdf_to_text_ray.stages.analysis import lm_perplexity

    rng = np.random.RandomState(4)
    fluent = ["the quick brown fox jumps over the lazy dog and runs on " * 6
              for _ in range(6)]
    gibberish = ["".join(chr(rng.randint(33, 127)) for _ in range(300))
                 for _ in range(2)]
    ds = rd.from_arrow(pa.table({
        "doc_id": list(range(8)),
        "text": fluent + gibberish,
    }))
    out = lm_perplexity(ds).to_pandas().sort_values("doc_id")
    fl = out["lm_perplexity"].iloc[:6].mean()
    gb = out["lm_perplexity"].iloc[6:].mean()
    assert fl < gb, (fl, gb)
    out2 = lm_perplexity(ds).to_pandas().sort_values("doc_id")
    pd.testing.assert_frame_equal(out.reset_index(drop=True),
                                  out2.reset_index(drop=True))

def test_pii_detection_and_scrubbing(ray_session):
    from pdf_to_text_ray.stages.analysis import pii_counts_batch

    t = pa.table({
        "doc_id": [1, 2, 3],
        "text": [
            "mail me at jane.doe+x@examp.le or call +1 (555) 123-4567",
            "server at 192.168.0.1 and 10.0.0.255 replied",
            "no pii here at all",
        ],
    })
    c = pii_counts_batch(t)
    assert c["n_emails"].tolist() == [1, 0, 0]
    assert c["n_phones"].tolist() == [1, 0, 0]
    assert c["n_ipv4"].tolist() == [0, 2, 0]


def test_decontamination_flags_eval_overlap(ray_session):
    import ray.data as rd

    from pdf_to_text_ray.stages.analysis import flag_contaminated

    base = ("alpha bravo charlie delta echo foxtrot golf hotel india "
            "juliet kilo lima mike november oscar papa quebec romeo ")
    docs = pa.table({
        "doc_id": [0, 1, 2],
        "text": [base * 2,                 # contains eval text verbatim
                 "completely different words " * 20,
                 base.upper() * 2],        # case-insensitive match
    })
    ds = rd.from_arrow(docs)
    out = flag_contaminated(ds, [base], n=13).to_pandas().sort_values("doc_id")
    assert out["contaminated"].tolist() == [True, False, True]
    assert out["n_hits"].iloc[0] > 0


def test_star_components_parity_and_long_path(ray_session):
    """Large-star/small-star components match union-find on random
    graphs AND converge on a 400-node path — a diameter min-label
    propagation would need 400 rounds for."""
    import numpy as np

    from pdf_to_text_ray.stages.dedup import (
        connected_components, star_components)

    rng = np.random.RandomState(3)
    # random sparse graph over 120 nodes
    a = rng.randint(0, 120, 150)
    b = rng.randint(0, 120, 150)
    m = a != b
    pairs = pd.DataFrame({"id_a": a[m], "id_b": b[m]})
    got = star_components(pairs)
    ref = connected_components(pairs)
    assert dict(zip(got["node"], got["group_root"])) == ref

    # path 0-1-2-...-399: one component rooted at 0, few star rounds
    path = pd.DataFrame({"id_a": np.arange(399), "id_b": np.arange(1, 400)})
    got = star_components(path, max_rounds=25)
    assert (got["group_root"] == 0).all() and len(got) == 400

    # string keys factorize through the sorted vocab
    sp = pd.DataFrame({"id_a": ["url/c", "url/b"], "id_b": ["url/b", "url/a"]})
    got = star_components(sp)
    assert dict(zip(got["node"], got["group_root"])) == {
        "url/a": "url/a", "url/b": "url/a", "url/c": "url/a"}

    # empty input keeps schema
    empty = star_components(pairs.iloc[0:0])
    assert list(empty.columns) == ["node", "group_root"] and len(empty) == 0


def test_png_codec_roundtrip_all_filters_and_colors():
    from pdf_to_text_ray.stages.media_codecs import (
        UnsupportedMediaError, decode_features, decode_png, encode_png)

    rng = np.random.RandomState(11)
    gray = rng.randint(0, 256, size=(9, 5)).astype(np.uint8)
    rgb = rng.randint(0, 256, size=(7, 11, 3)).astype(np.uint8)
    rgba = rng.randint(0, 256, size=(6, 4, 4)).astype(np.uint8)
    for ft in (0, 1, 2, 3, 4, -1):  # -1 cycles every filter per row
        assert (decode_png(encode_png(gray, ft)).squeeze(-1) == gray).all()
        assert (decode_png(encode_png(rgb, ft)) == rgb).all()
        assert (decode_png(encode_png(rgba, ft)) == rgba).all()

    # dispatch: PNG is now a REAL decode path
    f = decode_features(encode_png(rgb, -1))
    assert len(f) == 64 and f[0] == pytest.approx(np.log1p(11))

    # corrupt payload → typed error (CRC check), not garbage pixels
    blob = bytearray(encode_png(rgb))
    blob[40] ^= 0x01  # a byte inside IDAT data
    with pytest.raises(ValueError):
        decode_png(bytes(blob))

    # unsupported variant (16-bit depth) → UnsupportedMediaError
    import struct as _s
    import zlib as _z
    sig = b"\x89PNG\r\n\x1a\n"
    ihdr = _s.pack(">IIBBBBB", 1, 1, 16, 0, 0, 0, 0)
    chunk = _s.pack(">I", len(ihdr)) + b"IHDR" + ihdr + _s.pack(
        ">I", _z.crc32(b"IHDR" + ihdr))
    with pytest.raises(UnsupportedMediaError):
        decode_png(sig + chunk)


def test_gif_codec_roundtrip_and_lzw():
    from pdf_to_text_ray.stages.media_codecs import (
        _gif_lzw_decode, _gif_lzw_encode, decode_features, decode_gif,
        encode_gif)

    rng = np.random.RandomState(5)
    # raw LZW across width-growth boundaries and the 4096-entry reset
    for size in (1, 300, 1200, 30000, 120000):
        for mcs in (2, 8):
            data = rng.randint(0, 1 << mcs, size).astype(np.uint8).tobytes()
            assert _gif_lzw_decode(_gif_lzw_encode(data, mcs), mcs) == data

    # ≤256-color images roundtrip exactly, plain and interlaced
    img = (rng.randint(0, 4, (23, 17, 3)) * 80).astype(np.uint8)
    assert (decode_gif(encode_gif(img)) == img).all()
    assert (decode_gif(encode_gif(img, interlace=True)) == img).all()

    # >256 distinct colors quantize by low-bit masking: bounded error
    big = rng.randint(0, 256, (40, 40, 3)).astype(np.uint8)
    got = decode_gif(encode_gif(big))
    assert got.shape == big.shape
    assert np.abs(got.astype(int) - big.astype(int)).max() <= 63
    assert len(np.unique(got.reshape(-1, 3), axis=0)) <= 256

    # dispatch: GIF is a REAL decode path now
    f = decode_features(encode_gif(img))
    assert len(f) == 64 and f[0] == np.float32(np.log1p(17))


def _psnr(a: np.ndarray, b: np.ndarray) -> float:
    mse = np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2)
    return 10 * np.log10(255.0 ** 2 / mse) if mse else 99.0


def test_jpeg_codec_baseline_roundtrip():
    from pdf_to_text_ray.stages.jpeg_codec import (
        UnsupportedJpegError, decode_jpeg, encode_jpeg)
    from pdf_to_text_ray.stages.media_codecs import decode_features

    h, w = 37, 53  # non-multiple-of-8/16 exercises edge padding
    yy, xx = np.mgrid[0:h, 0:w]
    img = np.stack([xx * 255 // (w - 1), yy * 255 // (h - 1),
                    (xx + yy) * 255 // (w + h - 2)], axis=2).astype(np.uint8)

    # lossy codec: assert fidelity bounds, not equality
    assert _psnr(img, decode_jpeg(encode_jpeg(img, 95))) > 45
    assert _psnr(img, decode_jpeg(encode_jpeg(img, 50))) > 35
    # 4:2:0 subsampled MCUs (generic sampling-factor loop)
    dec = decode_jpeg(encode_jpeg(img, 90, subsample="420"))
    assert dec.shape == img.shape and _psnr(img, dec) > 35
    # grayscale single-component scan
    g = (yy * 255 // (h - 1)).astype(np.uint8)
    decg = decode_jpeg(encode_jpeg(g, 90))
    assert decg.shape == (h, w, 1) and _psnr(g, decg.squeeze(-1)) > 45
    # noise at q95 still bounded (worst case for DCT coding)
    rng = np.random.RandomState(3)
    noise = rng.randint(0, 256, (24, 24, 3)).astype(np.uint8)
    assert _psnr(noise, decode_jpeg(encode_jpeg(noise, 95))) > 30

    # restart markers: decode must be bit-identical to the no-DRI stream
    a = decode_jpeg(encode_jpeg(img, 90))
    for ri in (1, 3, 7):
        b = decode_jpeg(encode_jpeg(img, 90, restart_interval=ri))
        assert (a == b).all()
    c = decode_jpeg(encode_jpeg(img, 90, subsample="420",
                                restart_interval=2))
    assert (decode_jpeg(encode_jpeg(img, 90, subsample="420")) == c).all()

    # progressive (SOF2) is out of scope → typed error, not garbage
    with pytest.raises(UnsupportedJpegError):
        decode_jpeg(b"\xff\xd8\xff\xc2\x00\x0b\x08\x00\x08\x00\x08"
                    b"\x01\x01\x11\x00\xff\xd9")

    # dispatch: JPEG is a REAL decode path in the multimodal stage now
    f = decode_features(encode_jpeg(img, 85))
    assert len(f) == 64 and f[0] == np.float32(np.log1p(w))


def test_jpeg_zigzag_and_huffman_internals():
    from pdf_to_text_ray.stages.jpeg_codec import (
        UNZIGZAG, ZIGZAG, _BitReader, _BitWriter, _HuffDecoder,
        _HuffEncoder, _extend, _magnitude)

    # zigzag: first/last entries per spec Figure 5, inverse consistent
    assert list(ZIGZAG[:8]) == [0, 1, 8, 16, 9, 2, 3, 10]
    assert ZIGZAG[63] == 63
    assert (ZIGZAG[UNZIGZAG] == np.arange(64)).all()

    # magnitude coding roundtrips through EXTEND for every small value
    for v in range(-255, 256):
        size, bits = _magnitude(v)
        assert (_extend(bits, size) if size else 0) == v

    # writer stuffs 0xFF bytes; reader destuffing happens upstream,
    # so feed the raw (unstuffed) stream here
    wtr = _BitWriter()
    wtr.write(0xFF, 8)
    wtr.write(0xAB, 8)
    assert bytes(wtr.out) == b"\xff\x00\xab"

    # canonical Huffman enc/dec inverse over a whole table
    from pdf_to_text_ray.stages.jpeg_codec import AC_LUMA_BITS, AC_LUMA_VALS
    enc = _HuffEncoder(AC_LUMA_BITS, AC_LUMA_VALS)
    dec = _HuffDecoder(AC_LUMA_BITS, AC_LUMA_VALS)
    wtr = _BitWriter()
    for sym in AC_LUMA_VALS:
        ln, code = enc[sym]
        wtr.write(code, ln)
    wtr.flush()
    # destuff FF 00 pairs as the decoder does
    raw = bytes(wtr.out).replace(b"\xff\x00", b"\xff")
    rdr = _BitReader(raw)
    assert [dec.decode(rdr) for _ in AC_LUMA_VALS] == AC_LUMA_VALS


def _lev_ref(a: str, b: str) -> int:
    # textbook O(len(a)*len(b)) reference
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[len(b)]


def test_levenshtein_pairs_matches_reference():
    import random

    from pdf_to_text_ray.stages.dedup import _encode_heads, levenshtein_pairs

    rng = random.Random(11)
    alpha = "ab文字é "
    texts = ["", "a", "文", "kitten", "sitting"]
    texts += ["".join(rng.choice(alpha) for _ in range(rng.randrange(0, 24)))
              for _ in range(40)]
    codes, lens = _encode_heads(texts, 24)
    n = len(texts)
    ia, ib = np.triu_indices(n, k=1)
    got = levenshtein_pairs(codes, lens, ia, ib)
    for k in range(len(ia)):
        exp = _lev_ref(texts[ia[k]][:24], texts[ib[k]][:24])
        assert got[k] == exp, (texts[ia[k]], texts[ib[k]], got[k], exp)


def test_editdist_neardup_pairs_blocking(ray_session):
    import ray.data as rd

    from pdf_to_text_ray.stages.dedup import editdist_neardup_pairs

    df = pd.DataFrame({
        "doc_id": [1, 2, 3, 4, 5, 6],
        "text": ["hello world xyz", "hello world xyzq",  # dist 1, same block
                 "hello world xyz", "totally different content here",
                 "hello world xyz", "hello world xyz"],
        "lang": ["en", "en", "en", "en", "fr", "en"],
        "n_chars": [15, 16, 15, 30, 15, 300],  # 6: other length block
    })
    pairs = editdist_neardup_pairs(
        rd.from_pandas(df), len_bucket=64, threshold=3).to_pandas()
    got = set(zip(pairs["doc_id1"], pairs["doc_id2"]))
    # 5 is blocked out by lang, 6 by length bucket, 4 by distance
    assert got == {(1, 2), (1, 3), (2, 3)}
    d13 = pairs.loc[(pairs["doc_id1"] == 1) & (pairs["doc_id2"] == 3), "dist"]
    assert list(d13) == [0]


def test_mp4_mux_demux_roundtrip():
    from pdf_to_text_ray.stages.jpeg_codec import encode_jpeg
    from pdf_to_text_ray.stages.mp4_codec import (
        decode_mp4_frames, encode_mp4_mjpeg, parse_mp4, video_features)

    h, w, n = 20, 28, 4
    yy, xx = np.mgrid[0:h, 0:w]
    originals, jpegs = [], []
    for f in range(n):
        img = np.stack([(xx * 255 // (w - 1)), (yy * 255 // (h - 1)),
                        np.full((h, w), f * 60)], axis=2).astype(np.uint8)
        originals.append(img)
        jpegs.append(encode_jpeg(img, quality=90))
    mp4 = encode_mp4_mjpeg(jpegs, width=w, height=h, fps=4)

    info = parse_mp4(mp4)
    assert info.duration_ms == 1000
    t = info.tracks[0]
    assert (t.handler, t.codec) == ("vide", "jpeg")
    assert (t.width, t.height) == (w, h)
    # sample-table byte ranges must re-slice the exact frame bytes
    assert [mp4[a:b] for a, b in t.sample_ranges] == jpegs

    frames = decode_mp4_frames(mp4)
    assert len(frames) == n
    for orig, dec in zip(originals, frames):
        assert dec.shape == orig.shape
        assert np.abs(dec.astype(int) - orig.astype(int)).mean() < 12

    fv = video_features(mp4)
    assert fv.shape == (64,)
    assert fv[14] == n  # frame count feature


def test_mp4_unsupported_codec_raises():
    from pdf_to_text_ray.stages.media_codecs import (
        UnsupportedMediaError, decode_features)
    from pdf_to_text_ray.stages.mp4_codec import (
        UnsupportedSampleFormat, decode_mp4_frames)
    from pdf_to_text_ray.fixtures.mediagen import make_media_row

    # i % 5 == 4, i % 2 == 0, i % 4 == 2 → avc1 stub row
    row = make_media_row(14, seed=42)
    assert row["media_type"] == "video"
    with pytest.raises(UnsupportedSampleFormat):
        decode_mp4_frames(row["payload"])
    with pytest.raises(UnsupportedMediaError):
        decode_features(row["payload"])


def test_media_fixture_mjpeg_rows_decode_for_real():
    from pdf_to_text_ray.fixtures.mediagen import make_media_row
    from pdf_to_text_ray.stages.media_codecs import decode_features
    from pdf_to_text_ray.stages.mp4_codec import parse_mp4

    row = make_media_row(4, seed=42)  # i%5==4, i%2==0, i%4==0 → MJPEG MP4
    assert row["media_type"] == "video"
    info = parse_mp4(row["payload"])
    assert info.duration_ms == row["meta_duration_ms"]
    t = info.tracks[0]
    assert (t.width, t.height) == (row["meta_width"], row["meta_height"])
    feats = decode_features(row["payload"])
    assert feats.shape == (64,) and np.isfinite(feats).all()


def test_video_frame_sampler_pipeline(ray_session):
    import ray.data as rd

    from pdf_to_text_ray.fixtures.mediagen import ensure_media_parquet
    from pdf_to_text_ray.stages.multimodal import sample_video_frames

    media_dir = ensure_media_parquet(40, seed=42)
    ds = rd.read_parquet(media_dir).filter(expr="media_type == 'video'")
    n_videos = ds.count()
    assert n_videos > 0
    out = sample_video_frames(ds, concurrency=(1, 2)).to_pandas()
    ok = out[out["decodable"]]
    bad = out[~out["decodable"]]
    assert len(ok) > 0 and len(bad) > 0  # MJPEG rows + avc1 stubs
    assert (ok["frame_idx"] >= 0).all()
    assert (ok["width"] > 0).all() and (ok["height"] > 0).all()
    assert ok["luma_mean"].between(0, 255).all()
    # every decodable video contributes >= 2 frames (fixture makes 2-6)
    per_vid = ok.groupby("media_id").size()
    assert (per_vid >= 2).all()
    # ts monotone within a video
    for _, g in ok.groupby("media_id"):
        ts = g.sort_values("frame_idx")["ts_ms"].to_numpy()
        assert (np.diff(ts) >= 0).all()


def test_image_resizer_pipeline(ray_session):
    import ray.data as rd

    from pdf_to_text_ray.fixtures.mediagen import ensure_media_parquet
    from pdf_to_text_ray.stages.media_codecs import decode_ppm
    from pdf_to_text_ray.stages.multimodal import resize_images

    media_dir = ensure_media_parquet(40, seed=42)
    ds = rd.read_parquet(media_dir)
    out = resize_images(ds, width=8, height=6,
                        concurrency=(1, 2), batch_size=16).to_pandas()
    assert len(out) == ds.count()
    ok = out[out["decodable"]]
    assert len(ok) > 0  # fixture has real BMP/PPM images
    # every decodable row carries a parseable (6, 8, 3) PPM thumbnail
    for t in ok["thumb"]:
        img = decode_ppm(bytes(t))
        assert img.shape[:2] == (6, 8)
    # non-image rows (WAV audio, MP4 video) degrade, not fail
    assert not out.loc[out["media_type"] == "audio", "decodable"].any()
    assert (out.loc[~out["decodable"], "thumb"].map(len) == 0).all()


def test_tfidf_cosine_pairs_matches_bruteforce(ray_session):
    import math

    import ray.data as rd

    from pdf_to_text_ray.stages.similarity import tfidf_cosine_pairs

    docs = {
        1: "red apple pie with red apple filling",
        2: "red apple pie with green apple filling",
        3: "quantum flux capacitor maintenance manual",
        4: "red apple pie with red apple filling",  # exact dup of 1
        5: "",
    }
    df = pd.DataFrame({"doc_id": list(docs), "text": list(docs.values())})
    got = tfidf_cosine_pairs(
        rd.from_pandas(df), threshold=0.2, max_df_frac=1.0).to_pandas()
    got = got.set_index(["doc_id1", "doc_id2"])["cosine_sim"]

    # brute-force reference
    n = len(docs)
    tf = {k: pd.Series(v.lower().split()).value_counts().to_dict()
          for k, v in docs.items()}
    dfreq = {}
    for t in tf.values():
        for term in t:
            dfreq[term] = dfreq.get(term, 0) + 1
    vecs = {k: {term: c * math.log(n / dfreq[term])
                for term, c in t.items()} for k, t in tf.items()}

    def cos(a, b):
        dot = sum(w * vecs[b].get(t, 0.0) for t, w in vecs[a].items())
        na = math.sqrt(sum(w * w for w in vecs[a].values()))
        nb = math.sqrt(sum(w * w for w in vecs[b].values()))
        return dot / (na * nb) if na and nb else 0.0

    expected = {}
    for a in docs:
        for b in docs:
            if a < b and vecs[a] and vecs[b]:
                s = cos(a, b)
                if s >= 0.2:
                    expected[(a, b)] = s
    assert set(got.index) == set(expected)
    for k, v in expected.items():
        assert abs(got[k] - v) < 1e-6, (k, got[k], v)
    assert got[(1, 4)] == 1.0  # exact dup → cosine exactly 1


# ── exact duplicate-substring span removal ───────────────────────────

def _span_dedup_reference(texts: list[str], L: int, min_count: int):
    """Brute-force semantics: cut chars covered by any L-window whose
    exact text occurs >= min_count times over all (doc, pos)."""
    from collections import Counter

    counts = Counter(t[i:i + L] for t in texts
                     for i in range(len(t) - L + 1))
    out = []
    for t in texts:
        marked = [i for i in range(len(t) - L + 1)
                  if counts[t[i:i + L]] >= min_count]
        covered = set()
        for i in marked:
            covered.update(range(i, i + L))
        out.append(("".join(c for p, c in enumerate(t) if p not in covered),
                    len(marked)))
    return out


def test_span_dedup_matches_bruteforce(ray_session):
    import ray.data as rd

    from pdf_to_text_ray.stages.dedup import span_dedup

    boiler = "SHARED NAVIGATION BOILERPLATE " * 3   # 90 chars, dup'd
    texts = [
        "unique first document text " * 4 + boiler,
        boiler + " middle unique stretch here " * 3 + boiler,
        "wholly unique third document with no repeats at all " * 2,
        "short",
        "",
        "überschrift ünïcode " * 6,      # non-ASCII dup'd with next
        "überschrift ünïcode " * 6 + "tail",
        "self repeated inside one doc only " * 4,   # intra-doc dup
    ]
    L, mc = 50, 2
    ref = _span_dedup_reference(texts, L, mc)

    df = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
    got = (span_dedup(rd.from_pandas(df), key_col="doc_id",
                      text_col="text", L=L, min_count=mc)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    for i, (want_text, want_cnt) in enumerate(ref):
        assert got.loc[i, "text_spanclean"] == want_text, f"doc {i}"
        assert got.loc[i, "dup_windows"] == want_cnt, f"doc {i}"
    # the intra-doc repeat must have been caught (multiplicity counts
    # positions, not docs)
    assert got.loc[7, "dup_windows"] > 0


def test_ordered_prefix_sum_matches_numpy(ray_session):
    import ray.data as rd

    from pdf_to_text_ray.stages.groups import ordered_prefix_sum

    rng = np.random.RandomState(7)
    # sparse, shuffled, negative-friendly ids — the scan must order
    # globally, not per block
    ids = rng.permutation(np.arange(0, 5000, 3))
    vals = rng.randint(0, 100, size=len(ids))
    df = pd.DataFrame({"k": ids, "v": vals})
    got = (ordered_prefix_sum(
        rd.from_pandas(df).repartition(7),
        order_col="k", value_col="v", out_col="cum", num_buckets=8)
        .to_pandas().sort_values("k").reset_index(drop=True))
    want = df.sort_values("k").reset_index(drop=True)
    want["cum"] = want["v"].cumsum()
    assert (got["cum"].to_numpy() == want["cum"].to_numpy()).all()
    assert list(got.columns) == ["k", "v", "cum"]


def test_pq_topk_recall_and_compression(ray_session):
    import ray.data as rd

    from pdf_to_text_ray.stages.similarity import (
        knn_bruteforce,
        pq_encode,
        pq_topk,
        pq_train_codebooks,
    )

    ds = rd.read_parquet(f"{SF}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    books = pq_train_codebooks(ds, m=8, ks=32)
    assert books.shape == (8, 32, 8)
    codes = pq_encode(ds, books).to_pandas()
    assert codes["code"].map(len).eq(8).all()     # 32 B float → 8 B
    assert len(codes) == ds.count()

    qids = [0, 1, 2, 3, 4]
    exact = knn_bruteforce(ds, qids, k=10)
    pq = pq_topk(ds, qids, k=10, m=8, ks=32, rerank=10)
    ex = set(map(tuple, exact[["query_id", "vec_id"]].values))
    got = set(map(tuple, pq[["query_id", "vec_id"]].values))
    assert len(ex & got) / len(ex) >= 0.75
    # determinism: a second run returns the identical frame
    pq2 = pq_topk(ds, qids, k=10, m=8, ks=32, rerank=10)
    pd.testing.assert_frame_equal(pq, pq2)


# ── SemDeDup ─────────────────────────────────────────────────────────

def test_semdedup_matches_bruteforce_rule(ray_session):
    import ray.data as rd

    from pdf_to_text_ray.stages.similarity import (
        ivf_centroids_distributed, semdedup_keep)

    ds = rd.read_parquet(f"{SF}/embeddings.parquet")
    out = semdedup_keep(ds, n_clusters=8, threshold=0.95,
                        n_iters=4).to_pandas()
    pdf = ds.to_pandas().sort_values("vec_id").reset_index(drop=True)
    assert len(out) == len(pdf)
    assert set(out["vec_id"]) == set(pdf["vec_id"])

    # brute-force restatement: same centroids, plain numpy keep rule
    cents = ivf_centroids_distributed(ds, 8, n_iters=4)
    mat = np.stack([np.asarray(v, np.float64) for v in pdf["embedding"]])
    mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    cid = np.argmax(mat @ cents.T, axis=1)
    expect_kept = {}
    for c in np.unique(cid):
        idx = np.where(cid == c)[0]  # pdf is vec_id-sorted already
        sub = mat[idx]
        dup = np.triu(sub @ sub.T >= 0.95, 1).any(axis=0)
        for i, d in zip(idx, dup):
            expect_kept[int(pdf["vec_id"][i])] = not d
    got = dict(zip(out["vec_id"].astype(int), out["kept"].astype(bool)))
    assert got == expect_kept

    # synthetic near-dups: 3 clones of one vector + distinct others —
    # exactly the two higher-id clones drop, lowest id survives
    rng = np.random.RandomState(7)
    base = rng.randn(6, 16)
    base[1] = base[0] + 1e-3 * rng.randn(16)
    base[2] = base[0] - 1e-3 * rng.randn(16)
    syn = rd.from_pandas(pd.DataFrame({
        "vec_id": np.arange(6, dtype=np.int64),
        "embedding": [list(map(float, v)) for v in base]}))
    kept = (semdedup_keep(syn, n_clusters=2, threshold=0.99, n_iters=4)
            .to_pandas().sort_values("vec_id"))
    assert kept["kept"].tolist() == [True, False, False, True, True, True]


# ── Bloom filter ─────────────────────────────────────────────────────

def test_bloom_no_false_negatives_and_low_fp(ray_session):
    import ray.data as rd

    from pdf_to_text_ray.stages.analysis import _gram_hashes
    from pdf_to_text_ray.stages.sketches import (
        bloom_add, bloom_contains, bloom_corpus_ngrams)

    M, K = 1 << 23, 3
    # unit: everything added is found
    words = np.zeros(M // 64, np.uint64)
    h = np.arange(1000, dtype=np.uint64) * np.uint64(2654435761)
    bloom_add(words, h, m_bits=M, k=K)
    assert bloom_contains(words, h, m_bits=M, k=K).all()
    # absent keys: near-zero fp at this load factor
    absent = np.arange(100_000, dtype=np.uint64) + np.uint64(1 << 40)
    fp = bloom_contains(words, absent, m_bits=M, k=K).mean()
    assert fp < 1e-3

    # distributed build over the documents corpus: every in-corpus
    # gram hits (OR-merge loses nothing); out-of-corpus gram fp bounded
    ds = rd.read_parquet(f"{SF}/documents.parquet", columns=["text"])
    bloom = bloom_corpus_ngrams(ds, n=13, m_bits=M, k=K)
    texts = ds.to_pandas()["text"].fillna("").tolist()
    some = np.unique(np.concatenate(
        [_gram_hashes(t.lower().split(), 13) for t in texts[:20]]))
    assert bloom_contains(bloom, some, m_bits=M, k=K).all()
    oov = _gram_hashes([f"oovtok{i}" for i in range(200)], 13)
    assert bloom_contains(bloom, oov, m_bits=M, k=K).mean() < 0.01


# ── PageRank ─────────────────────────────────────────────────────────

def test_pagerank_matches_dense_iteration(ray_session):
    import ray.data as rd

    from pdf_to_text_ray.stages.graph import pagerank

    # small undirected graph: path 0-1-2 plus isolated pair 3-4
    und = [(0, 1), (1, 2), (3, 4)]
    e = pd.DataFrame({"src": [a for a, b in und] + [b for a, b in und],
                      "dst": [b for a, b in und] + [a for a, b in und]})
    out = pagerank(rd.from_pandas(e), damping=0.85, iters=5)

    nodes = np.arange(5)
    deg = np.array([1, 2, 1, 1, 1], np.float64)
    r = np.full(5, 1 / 5)
    adj = np.zeros((5, 5))
    for a, b in und:
        adj[a, b] = adj[b, a] = 1.0
    for _ in range(5):
        r = 0.15 / 5 + 0.85 * (adj.T @ (r / deg))
    got = out.set_index("node")["rank"].reindex(nodes).to_numpy()
    assert np.allclose(got, r, atol=1e-12)
    # ranks sum to ~1 on a dangling-free graph
    assert abs(out["rank"].sum() - 1.0) < 1e-9


def test_zonemap_pruning_skips_files(ray_session):
    import pandas as _pd

    from pdf_to_text_ray.pipelines.queries import (
        _cache_dir, events_zonemap_range_query, zonemap_overlap_files)

    # builds (or reuses) the ts-sorted 16-file layout as a side effect
    out = events_zonemap_range_query(SF)
    assert set(out.columns) == {"event_type", "n", "total_value"}
    part_dir = _cache_dir("events_zoned", 1, f"{SF}/events.parquet")
    keep, total = zonemap_overlap_files(
        part_dir, _pd.Timestamp("2024-01-08"), _pd.Timestamp("2024-01-15"))
    # a one-week window over a month of ts-sorted files must prune
    assert total == 16 and 0 < len(keep) < total


def test_cache_dir_follows_source_path_size_and_mtime_ns(tmp_path):
    import os

    from pdf_to_text_ray.pipelines.queries import _cache_dir

    src = tmp_path / "events.parquet"
    src.write_bytes(b"x" * 64)
    key = _cache_dir("events_zoned", 1, str(src))
    assert _cache_dir("events_zoned", 1, str(src)) == key
    assert _cache_dir("events_zoned", 2, str(src)) != key
    assert _cache_dir("events_part", 1, str(src)) != key
    # same size, st_mtime_ns 1 ms later: a new cache
    st = os.stat(src)
    src.write_bytes(b"y" * 64)
    os.utime(src, ns=(st.st_atime_ns, st.st_mtime_ns + 1_000_000))
    assert _cache_dir("events_zoned", 1, str(src)) != key
    # same basename and bytes in another directory: a new cache
    (tmp_path / "a" / "sf").mkdir(parents=True)
    (tmp_path / "b" / "sf").mkdir(parents=True)
    for d in ("a", "b"):
        p = tmp_path / d / "sf" / "events.parquet"
        p.write_bytes(b"z" * 64)
        os.utime(p, ns=(st.st_atime_ns, st.st_mtime_ns))
    assert (_cache_dir("events_zoned", 1, str(tmp_path / "a/sf/events.parquet"))
            != _cache_dir("events_zoned", 1,
                          str(tmp_path / "b/sf/events.parquet")))


def test_build_once_reuses_done_and_rebuilds_partial(tmp_path):
    import os

    from pdf_to_text_ray.pipelines.queries import _build_once

    calls = []

    def build(d):
        calls.append(d)
        open(os.path.join(d, f"part-{len(calls)}.parquet"), "w").close()

    out = str(tmp_path / "out")
    assert _build_once(out, build) == out
    assert _build_once(out, build) == out
    assert calls == [out]  # the second call reused the directory
    # no _DONE: a crashed attempt's partial output is cleared and rebuilt
    (tmp_path / "out" / "_DONE").unlink()
    assert _build_once(out, build) == out
    assert len(calls) == 2
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "_DONE", "part-2.parquet"]


def test_pagerank_checkpoint_resume(ray_session, tmp_path):
    import ray.data as rd

    from pdf_to_text_ray.stages.graph import pagerank

    und = [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)]
    e = pd.DataFrame({"src": [a for a, b in und] + [b for a, b in und],
                      "dst": [b for a, b in und] + [a for a, b in und]})
    direct = pagerank(rd.from_pandas(e), iters=5)

    ck = str(tmp_path / "pr_ck")
    # simulate a kill after 2 iterations, then a fresh call to 5
    pagerank(rd.from_pandas(e), iters=2, checkpoint_dir=ck)
    resumed = pagerank(rd.from_pandas(e), iters=5, checkpoint_dir=ck)
    assert np.allclose(direct["rank"], resumed["rank"], atol=1e-12)
    assert (direct["node"] == resumed["node"]).all()
    # checkpoints exist for every completed iteration
    import os
    assert sorted(f for f in os.listdir(ck) if f.startswith("iter_")) == \
        [f"iter_{i}.npy" for i in range(1, 6)]


def test_triangle_count_known_graphs(ray_session):
    import itertools

    import ray.data as rd

    from pdf_to_text_ray.stages.graph import triangle_count

    def tri(edges):
        e = pd.DataFrame({"u": [a for a, b in edges],
                          "v": [b for a, b in edges]})
        out = triangle_count(rd.from_pandas(e), num_buckets=4)
        return int(out["n_triangles"].iloc[0])

    # K4 has 4 triangles; duplicates / reversed rows / self-loops must
    # not change the count
    k4 = list(itertools.combinations(range(4), 2))
    assert tri(k4) == 4
    assert tri(k4 + [(b, a) for a, b in k4] + [(2, 2), (1, 2)]) == 4
    # path graph: none; cycle of 4: none; cycle + chord: 2
    assert tri([(0, 1), (1, 2), (2, 3)]) == 0
    assert tri([(0, 1), (1, 2), (2, 3), (3, 0)]) == 0
    assert tri([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]) == 2


def test_triangle_count_random_vs_bruteforce(ray_session):
    import itertools
    import random

    import ray.data as rd

    from pdf_to_text_ray.stages.graph import triangle_count

    rng = random.Random(5)
    edges = {tuple(sorted(rng.sample(range(30), 2))) for _ in range(140)}
    adj = {n: set() for n in range(30)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    want = sum(1 for a, b, c in itertools.combinations(range(30), 3)
               if b in adj[a] and c in adj[a] and c in adj[b])
    e = pd.DataFrame({"u": [a for a, b in edges],
                      "v": [b for a, b in edges]})
    got = triangle_count(rd.from_pandas(e), num_buckets=8)
    assert int(got["n_triangles"].iloc[0]) == want


def test_keep_best_from_pairs_keeps_longest(dup_docs_ds):
    """Cluster {0, 1, 2, 5}: doc 5 is the longest (base*6 + ' tail'),
    so the quality-ranked policy keeps 5 while min-id keeps 0."""
    from pdf_to_text_ray.stages.dedup import (keep_best_from_pairs,
                                              minhash_neardup_pairs)

    pairs = minhash_neardup_pairs(dup_docs_ds, threshold=0.5)
    out = (keep_best_from_pairs(dup_docs_ds, pairs)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert len(out) == 8
    cluster = out[out["group_root"] == 0]
    assert set(cluster["doc_id"]) >= {0, 1, 5}
    kept_in_cluster = cluster[cluster["kept"]]["doc_id"].tolist()
    assert kept_in_cluster == [5]
    # unpaired docs keep themselves
    for i in (3, 4, 7):
        assert out[out["doc_id"] == i]["kept"].item()


def test_streaming_split_trainer_ingestion(ray_session):
    """The feed-the-trainer surface: a curated corpus splits into K
    equal streaming shards consumed CONCURRENTLY (one per trainer
    rank) — together they cover every row exactly once."""
    import threading

    import ray.data as rd

    ds = rd.range(4096).map_batches(
        lambda t: pa.table({"id": t["id"]}), batch_format="pyarrow")
    its = ds.streaming_split(2, equal=True)
    seen: list[list[int]] = [[], []]

    def consume(rank: int):
        for b in its[rank].iter_batches(batch_size=256):
            seen[rank].extend(b["id"].tolist())

    threads = [threading.Thread(target=consume, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(seen[0]) == len(seen[1]) == 2048   # equal shards
    assert set(seen[0]) | set(seen[1]) == set(range(4096))
    assert not (set(seen[0]) & set(seen[1]))      # disjoint


def test_ordered_prefix_max_matches_numpy(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from pdf_to_text_ray.stages.groups import ordered_prefix_max

    rng = np.random.RandomState(3)
    order = np.arange(500, dtype="int64")
    vals = rng.randint(0, 10_000, 500).astype("int64")
    ds = rd.from_arrow(pa.table({"o": order, "v": vals})).repartition(7)
    out = (ordered_prefix_max(ds, order_col="o", value_col="v")
           .to_pandas().sort_values("o"))
    got = out["wm"].to_numpy()
    want = np.empty(500)
    want[0] = np.nan
    want[1:] = np.maximum.accumulate(vals)[:-1]
    assert np.isnan(got[0]) and np.allclose(got[1:], want[1:])


def test_ordered_prefix_scans_empty_input_keep_out_col(ray_session):
    """Zero-row input must still carry the scan's out_col so downstream
    unconditional t[out_col] reads don't KeyError on empty blocks."""
    import ray.data as rd

    from pdf_to_text_ray.stages.groups import (ordered_prefix_max,
                                               ordered_prefix_sum)

    empty = pd.DataFrame({"k": pd.Series([], dtype="int64"),
                          "v": pd.Series([], dtype="int64")})
    ds = rd.from_pandas(empty)
    def reader(col):
        # the ADVICE failure shape: a consumer that unconditionally
        # indexes the scan's out_col (events_watermark_late reads
        # t["wm"], pack/curate reads t["cum"]) on EVERY block delivered
        def fn(t):
            _ = t[col]
            return t
        return fn

    got_sum = ordered_prefix_sum(ds, order_col="k", value_col="v",
                                 out_col="cum")
    assert got_sum.map_batches(reader("cum"),
                               batch_format="pyarrow").count() == 0
    got_max = ordered_prefix_max(ds, order_col="k", value_col="v",
                                 out_col="wm")
    assert got_max.map_batches(reader("wm"),
                               batch_format="pyarrow").count() == 0


def test_pair_apis_dataset_output_mirror_heavy(ray_session):
    """output="dataset" on the pair-producing dedup APIs: a corpus
    where EVERYTHING is duplicated (pair count is corpus-shaped) must
    come back as a distributed Dataset matching the pandas path's pair
    set — no pair row materializes on the driver inside the API."""
    import ray.data as rd

    sents = [
        f"document number {i} about {w} with plenty of shared filler "
        "words running long enough to shingle properly and then some"
        for i, w in enumerate(
            ["parquet", "arrow", "shuffle", "actor", "lineage",
             "backlog", "codec", "charset"])
    ]
    # every text appears twice → every doc is in some duplicate pair
    rows = {"doc_id": list(range(16)), "text": sents + sents}
    ds = rd.from_arrow(pa.table(rows))

    want_mh = minhash_neardup_pairs(ds, threshold=0.9)
    got_mh_ds = minhash_neardup_pairs(ds, threshold=0.9, output="dataset")
    assert not isinstance(got_mh_ds, pd.DataFrame)
    got_mh = (got_mh_ds.to_pandas().sort_values(["id_a", "id_b"])
              .reset_index(drop=True))
    assert (set(zip(got_mh["id_a"], got_mh["id_b"]))
            == set(zip(want_mh["id_a"], want_mh["id_b"])))
    assert len(got_mh) == len(want_mh)  # distributed dedup is exact
    assert {(i, i + 8) for i in range(8)} <= set(
        zip(got_mh["id_a"], got_mh["id_b"]))

    want_sh = simhash_neardup_pairs(ds, max_hamming=3)
    got_sh_ds = simhash_neardup_pairs(ds, max_hamming=3, output="dataset")
    assert not isinstance(got_sh_ds, pd.DataFrame)
    got_sh = got_sh_ds.to_pandas()
    assert (set(zip(got_sh["id_a"], got_sh["id_b"]))
            == set(zip(want_sh["id_a"], want_sh["id_b"])))
    assert len(got_sh) == len(want_sh)

    # components straight from the pair DATASET (in-cluster edge build)
    # must match the pandas-pairs propagation
    from pdf_to_text_ray.stages.dedup import (keep_set_from_pairs,
                                              minlabel_components)

    comp_ds = minlabel_components(got_mh_ds)
    comp_pd = minlabel_components(want_mh)
    pd.testing.assert_frame_equal(comp_ds, comp_pd)
    keep = (keep_set_from_pairs(ds, got_mh_ds).to_pandas()
            .sort_values("doc_id").reset_index(drop=True))
    # every mirrored doc pairs with its twin: exactly 8 roots kept
    assert int(keep["kept"].sum()) == 8
