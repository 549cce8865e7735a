"""Round-13 operators: skyline, SCD2 gaps-and-islands, co-purchase
BFS, rolling median, lag-1 autocorrelation, sorted-neighborhood
blocking — kernel unit tests against hand-computed / brute-force
references on tiny constructed tables."""
import random

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from pdf_to_text_ray.pipelines.queries import (
    event_user_chisq,
    event_value_boxplot,
    events_key_skew_profile,
    lineitem_price_outliers,
    _batch_levenshtein,
    _skyline2d,
    _sn_keys,
    event_value_autocorr,
    events_rolling_median,
    lineitem_skyline,
    part_copurchase_bfs,
    sorted_neighborhood_pairs,
    user_state_scd2,
)


# ── pure kernels ──────────────────────────────────────────────────────

def _lev_scalar(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def test_batch_levenshtein_matches_scalar():
    rng = random.Random(13)
    alpha = "ab cd"
    pairs = [("".join(rng.choice(alpha) for _ in range(16)),
              "".join(rng.choice(alpha) for _ in range(16)))
             for _ in range(200)]
    A = np.frombuffer("".join(p[0] for p in pairs).encode(),
                      dtype=np.uint8).reshape(-1, 16)
    B = np.frombuffer("".join(p[1] for p in pairs).encode(),
                      dtype=np.uint8).reshape(-1, 16)
    got = _batch_levenshtein(A, B)
    want = [_lev_scalar(a, b) for a, b in pairs]
    assert got.tolist() == want


def _dominates(p1, q1, p2, q2):
    return p1 <= p2 and q1 >= q2 and (p1 < p2 or q1 > q2)


def test_skyline2d_dominance_invariants():
    rng = np.random.default_rng(7)
    price = rng.choice(np.arange(1, 40), size=300).astype(float)
    qty = rng.choice(np.arange(1, 15), size=300).astype(float)
    pts = set(zip(price, qty))
    p, q = _skyline2d(price, qty)
    sky = set(zip(p, q))
    # kept points are mutually non-dominated and present in the input
    assert sky <= pts
    for a in sky:
        assert not any(_dominates(*b, *a) for b in pts if b != a)
    # every dropped distinct point is dominated by some kept point
    for a in pts - sky:
        assert any(_dominates(*b, *a) for b in sky)


def test_skyline2d_local_merge_invariance():
    """Local skyline per split + merge == skyline of the whole — the
    property the distributed two-phase plan relies on."""
    rng = np.random.default_rng(11)
    price = rng.uniform(0, 100, 500)
    qty = rng.uniform(0, 50, 500)
    full = set(zip(*_skyline2d(price, qty)))
    parts = []
    for lo in range(0, 500, 83):
        p, q = _skyline2d(price[lo:lo + 83], qty[lo:lo + 83])
        parts.append(np.stack([p, q], axis=1))
    cand = np.concatenate(parts)
    merged = set(zip(*_skyline2d(cand[:, 0], cand[:, 1])))
    assert merged == full


# ── tiny-table e2e ────────────────────────────────────────────────────

TS0 = pd.Timestamp("2024-01-01")


def _write_events(tmp_path, users, types, values):
    n = len(users)
    t = pa.table({
        "event_id": pa.array(range(n), pa.int64()),
        "ts": pa.array([TS0 + pd.Timedelta(minutes=i) for i in range(n)]),
        "user_id": pa.array(users, pa.int64()),
        "event_type": pa.array(types, pa.string()),
        "value": pa.array(values, pa.float64()),
        "props": pa.array(["{}"] * n, pa.string()),
    })
    pq.write_table(t, tmp_path / "events.parquet")
    return str(tmp_path)


def test_user_state_scd2_runs(ray_session, tmp_path):
    # user 1: a a b a  → runs a(2) b(1) a(1); user 2: c → one current run
    d = _write_events(tmp_path,
                      users=[1, 1, 1, 1, 2],
                      types=["a", "a", "b", "a", "c"],
                      values=[0.0] * 5)
    out = user_state_scd2(d)
    u1 = out[out.user_id == 1]
    assert u1["state"].tolist() == ["a", "b", "a"]
    assert u1["n_events"].tolist() == [2, 1, 1]
    assert u1["is_current"].tolist() == [False, False, True]
    # valid_to chains to the next run's valid_from
    assert u1["valid_to"].iloc[0] == u1["valid_from"].iloc[1]
    assert pd.isna(u1["valid_to"].iloc[2])
    u2 = out[out.user_id == 2]
    assert len(u2) == 1 and bool(u2["is_current"].iloc[0])


def test_events_rolling_median_window(ray_session, tmp_path):
    d = _write_events(tmp_path,
                      users=[1] * 9,
                      types=["x"] * 9,
                      values=[float(v) for v in [9, 1, 8, 2, 7, 3, 6, 4, 5]])
    out = events_rolling_median(d)
    # window of 7 (6 preceding + current), min_periods=1
    vals = [9, 1, 8, 2, 7, 3, 6, 4, 5]
    want = [float(np.median(vals[max(0, i - 6):i + 1])) for i in range(9)]
    assert out["rolling_median"].tolist() == want


def test_event_value_autocorr_perfect_trend(ray_session, tmp_path):
    d = _write_events(tmp_path,
                      users=[1] * 6,
                      types=["x"] * 6,
                      values=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    out = event_value_autocorr(d)
    assert out["n_pairs"].tolist() == [5]
    assert out["autocorr_lag1"].tolist() == [1.0]


def test_part_copurchase_bfs_chain(ray_session, tmp_path):
    # path graph 1-2-3-4-5-6 via one order per edge: hop cap 4 →
    # part 6 (dist 5) stays unreached
    rows = [(o + 1, p) for o, edge in
            enumerate([(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)])
            for p in edge]
    t = pa.table({
        "l_orderkey": pa.array([r[0] for r in rows], pa.int64()),
        "l_partkey": pa.array([r[1] for r in rows], pa.int64()),
    })
    pq.write_table(t, tmp_path / "lineitem.parquet")
    out = part_copurchase_bfs(str(tmp_path))
    assert dict(zip(out["node"], out["dist"])) == {
        1: 0, 2: 1, 3: 2, 4: 3, 5: 4}


def test_sorted_neighborhood_matches_bruteforce(ray_session, tmp_path):
    """Distributed block pairs + boundary-strip stitching reproduce the
    single-node rank-window semantics exactly, across block splits."""
    rng = random.Random(3)
    words = ["alpha", "alpho", "alphq", "beta", "betb", "gamma",
             "gamna", "gamms", "delta", "deltb"]
    texts = []
    for i in range(64):
        w = words[rng.randrange(len(words))]
        texts.append((w + " " + w + " filler text 123")[:40])
    t = pa.table({
        "doc_id": pa.array(range(64), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })
    pq.write_table(t, tmp_path / "documents.parquet")

    out = sorted_neighborhood_pairs(str(tmp_path))

    # brute force: same key, global sort, rank-window pairs
    keys = _sn_keys(t).to_pandas()
    keys = keys.sort_values(["key", "doc_id"]).reset_index(drop=True)
    want = []
    for i in range(len(keys)):
        for j in range(i + 1, min(i + 6, len(keys))):
            d = _lev_scalar(keys["key"][i], keys["key"][j])
            if d <= 6:
                want.append((keys["doc_id"][i], keys["doc_id"][j], d))
    want_df = (pd.DataFrame(want, columns=["doc_a", "doc_b", "dist"])
               .sort_values(["doc_a", "doc_b"]).reset_index(drop=True))
    got = out[["doc_a", "doc_b", "dist"]].reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got.astype("int64"), want_df.astype("int64"))
    assert len(got) > 0


def test_lineitem_skyline_small(ray_session, tmp_path):
    t = pa.table({
        "l_extendedprice": pa.array(
            [10.0, 10.0, 20.0, 30.0, 5.0, 5.0], pa.float64()),
        "l_quantity": pa.array(
            [3.0, 7.0, 9.0, 9.0, 1.0, 1.0], pa.float64()),
    })
    pq.write_table(t, tmp_path / "lineitem.parquet")
    out = lineitem_skyline(str(tmp_path))
    # (5,1) cheapest; (10,7) beats (10,3); (20,9) max qty; (30,9) dominated
    assert list(zip(out["price"], out["qty"])) == [
        (5.0, 1.0), (10.0, 7.0), (20.0, 9.0)]


# ── analytics quartet ─────────────────────────────────────────────────

def test_event_value_boxplot_hand_computed(ray_session, tmp_path):
    # one type, values 1..12 plus a 100.0 outlier
    vals = [float(v) for v in range(1, 13)] + [100.0]
    d = _write_events(tmp_path, users=[1] * 13, types=["x"] * 13,
                      values=vals)
    out = event_value_boxplot(d)
    assert len(out) == 1
    r = out.iloc[0]
    s = pd.Series(vals)
    q1, med, q3 = s.quantile([0.25, 0.5, 0.75])
    iqr = q3 - q1
    assert r["q1"] == round(q1, 2) and r["median"] == round(med, 2)
    assert r["iqr"] == round(iqr, 2)
    inside = s[(s >= q1 - 1.5 * iqr) & (s <= q3 + 1.5 * iqr)]
    assert r["whisker_lo"] == inside.min()
    assert r["whisker_hi"] == inside.max()
    assert r["n_outliers"] == 1  # the 100.0


def test_event_user_chisq_independent(ray_session, tmp_path):
    # perfectly balanced design → chi2 == 0
    users, types = [], []
    for u in range(6):
        for t in ("a", "b"):
            users.append(u)
            types.append(t)
    d = _write_events(tmp_path, users=users, types=types,
                      values=[0.0] * len(users))
    out = event_user_chisq(d)
    assert out["chi2"].tolist() == [0.0]
    assert out["dof"].tolist() == [(2 - 1) * (3 - 1)]


def test_lineitem_price_outliers_planted(ray_session, tmp_path):
    # y = 10x + noise(0) for flag A, with two planted gross outliers
    rng = np.random.default_rng(5)
    x = rng.uniform(1, 50, 400)
    y = 10.0 * x + rng.normal(0, 5.0, 400)
    y[10] += 500.0
    y[20] -= 500.0
    t = pa.table({
        "l_returnflag": pa.array(["A"] * 400, pa.string()),
        "l_quantity": pa.array(x, pa.float64()),
        "l_extendedprice": pa.array(y, pa.float64()),
    })
    pq.write_table(t, tmp_path / "lineitem.parquet")
    out = lineitem_price_outliers(str(tmp_path))
    r = out.iloc[0]
    assert abs(r["slope"] - 10.0) < 0.5
    assert r["n"] == 400
    assert r["n_outliers"] >= 2  # the planted pair must be flagged


def test_events_key_skew_profile_uniform_vs_skewed(ray_session,
                                                   tmp_path):
    d = _write_events(tmp_path, users=[1] * 8,
                      types=["a", "b", "c", "d"] * 2,
                      values=[0.0] * 8)
    out = events_key_skew_profile(d)
    r = out.iloc[0]
    assert r["n_keys"] == 4
    assert r["gini"] == 0.0          # perfectly uniform
    assert r["entropy_bits"] == 2.0  # log2(4)
    assert r["top_share"] == 0.25

    d2 = _write_events(tmp_path, users=[1] * 8,
                       types=["a"] * 7 + ["b"],
                       values=[0.0] * 8)
    out2 = events_key_skew_profile(d2)
    r2 = out2.iloc[0]
    assert r2["gini"] > 0.3 and r2["top_share"] == 0.875


def test_triangle_closure_paths_agree(ray_session, monkeypatch):
    """broadcast and join closure modes count identically on a random
    graph (the auto switch must never change the answer)."""
    import ray.data as rd

    from pdf_to_text_ray.stages import graph
    from pdf_to_text_ray.stages.graph import triangle_count

    rng = np.random.default_rng(17)
    e = pd.DataFrame({"u": rng.integers(0, 40, 400),
                      "v": rng.integers(0, 40, 400)})
    monkeypatch.setattr(graph, "BROADCAST_EDGES_MAX", 10**9)
    nb = triangle_count(rd.from_pandas(e),
                        num_buckets=4)["n_triangles"].iloc[0]
    monkeypatch.setattr(graph, "BROADCAST_EDGES_MAX", -1)
    nj = triangle_count(rd.from_pandas(e),
                        num_buckets=4)["n_triangles"].iloc[0]
    assert int(nb) == int(nj) > 0


def test_deletion_vectors_merge_and_purge(ray_session, tmp_path):
    """Two deletes merge into one vector, and reads drop exactly the
    rows either delete marked."""
    import ray.data as rd

    from pdf_to_text_ray.state.delvec import delete_where, read_with_deletes

    root = str(tmp_path / "tbl")
    t = pa.table({"id": pa.array(range(100), pa.int64()),
                  "v": pa.array([float(i % 10) for i in range(100)])})
    rd.from_arrow(t).repartition(4).write_parquet(root)

    n1 = delete_where(root, lambda b: b["v"].to_numpy() < 2.0,
                      columns=["v"])
    assert n1 == 20
    # overlapping second delete: only the non-overlap counts as new
    n2 = delete_where(
        root, lambda b: b["id"].to_numpy(zero_copy_only=False) < 15,
        columns=["id"])
    assert 0 < n2 < 15
    kept = read_with_deletes(root).to_pandas()
    assert sorted(kept["id"]) == [
        i for i in range(100) if not (i % 10 < 2 or i < 15)]
