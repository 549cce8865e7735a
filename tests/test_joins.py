import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from pdf_to_text_ray.stages.joins import (
    asof_join, bucketed_hash_join, probe_sorted)


@pytest.mark.parametrize("keys, x, hit, pos", [
    # below the minimum, equal, between keys, a duplicated key (its
    # leftmost position), equal to the maximum, above it
    (np.array([3, 5, 5, 5, 9], np.int64),
     np.array([1, 3, 4, 5, 9, 12], np.int64),
     [False, True, False, True, True, False], [None, 0, None, 1, 4, None]),
    (np.array(["b", "d", "d", "f"], dtype=object),
     np.array(["a", "b", "c", "d", "f", "g"], dtype=object),
     [False, True, False, True, True, False], [None, 0, None, 1, 3, None]),
])
def test_probe_sorted_contract(keys, x, hit, pos):
    got_hit, idx = probe_sorted(keys, x)
    assert got_hit.dtype == bool and got_hit.tolist() == hit
    assert ((0 <= idx) & (idx < len(keys))).all()
    assert [int(i) if h else None for h, i in zip(hit, idx)] == pos


def test_probe_sorted_empty_keys_and_probes():
    for keys in (np.array([], np.int64), np.array([], dtype=object)):
        hit, idx = probe_sorted(keys, np.array([1, 2, 3]))
        assert hit.tolist() == [False] * 3 and idx.tolist() == [0] * 3
    hit, idx = probe_sorted(np.array([1, 2], np.int64),
                            np.array([], np.int64))
    assert len(hit) == 0 and len(idx) == 0 and hit.dtype == bool
    hit, idx = probe_sorted(np.array([], np.int64), np.array([], np.int64))
    assert len(hit) == 0 and len(idx) == 0


def test_bucketed_hash_join_matches_pandas(ray_session):
    import ray.data as rd

    left = pa.table({"k": [1, 2, 2, 3, 5], "lv": [10, 20, 21, 30, 50]})
    right = pa.table({"k": [2, 3, 3, 4], "rv": ["a", "b", "c", "d"]})
    out = (
        bucketed_hash_join(rd.from_arrow(left), rd.from_arrow(right), on="k",
                           num_buckets=4)
        .to_pandas()
        .sort_values(["k", "lv", "rv"])
        .reset_index(drop=True)
    )
    expect = (
        left.to_pandas().merge(right.to_pandas(), on="k")
        .sort_values(["k", "lv", "rv"]).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        out[["k", "lv", "rv"]].astype({"k": "int64", "lv": "int64"}), expect)


def test_asof_join_backward(ray_session):
    import ray.data as rd

    left = pa.table({
        "k": [1, 1, 2],
        "lts": pa.array([100, 200, 150], pa.int64()),
        "lid": [10, 11, 20],
    })
    right = pa.table({
        "k": [1, 1, 2, 2],
        "rts": pa.array([90, 150, 150, 160], pa.int64()),
        "val": [7, 8, 9, 12],
    })
    out = (
        asof_join(rd.from_arrow(left), rd.from_arrow(right), key="k",
                  left_ts="lts", right_ts="rts", value_cols=["val"],
                  num_buckets=2)
        .to_pandas().sort_values("lid").reset_index(drop=True)
    )
    # lid 10 (ts100) -> val 7 (ts90); lid 11 (ts200) -> val 8 (ts150);
    # lid 20 (ts150) -> val 9 (exact match allowed)
    assert out["val"].tolist() == [7, 8, 9]


def test_temporal_band_count(ray_session):
    """Boundary-inclusive band counting, windows spanning two time
    buckets, and zero-match probes."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from pdf_to_text_ray.stages.joins import temporal_band_count

    band = 10  # µs; bucket width 20
    base = np.datetime64("2024-01-01T00:00:00", "us")
    lts = base + np.array([15, 40, 100], "timedelta64[us]")  # probes
    #        probe 15: window [5, 25] spans buckets 0 and 1
    #        probe 40: window [30, 50] spans buckets 1 and 2
    #        probe 100: window [90, 110] — no right rows
    rts = base + np.array([5, 25, 19, 20, 30, 50, 51], "timedelta64[us]")
    left = rd.from_pandas(pd.DataFrame({"event_id": [1, 2, 3], "ts": lts}))
    right = rd.from_pandas(pd.DataFrame({"ts": rts}))
    out = (temporal_band_count(left, right, left_ts="ts", right_ts="ts",
                               left_key="event_id", band_us=band,
                               out_col="n")
           .to_pandas().sort_values("event_id").reset_index(drop=True))
    # probe 15 matches 5,25,19,20 (both endpoints inclusive) = 4
    # probe 40 matches 30,50 = 2 (51 excluded)
    assert out["event_id"].tolist() == [1, 2, 3]
    assert out["n"].tolist() == [4, 2, 0]


def test_temporal_band_count_matches_bruteforce(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from pdf_to_text_ray.stages.joins import temporal_band_count

    rng = np.random.RandomState(7)
    base = np.datetime64("2024-01-01", "us")
    lt = base + rng.randint(0, 10_000, 200).astype("timedelta64[us]")
    rt = base + rng.randint(0, 10_000, 500).astype("timedelta64[us]")
    band = 137
    left = rd.from_pandas(pd.DataFrame({"event_id": np.arange(200), "ts": lt}))
    right = rd.from_pandas(pd.DataFrame({"ts": rt}))
    out = (temporal_band_count(left, right, left_ts="ts", right_ts="ts",
                               left_key="event_id", band_us=band, out_col="n")
           .to_pandas().sort_values("event_id").reset_index(drop=True))
    li = lt.astype("int64")[:, None]
    ri = rt.astype("int64")[None, :]
    want = (np.abs(ri - li) <= band).sum(axis=1)
    assert out["n"].to_numpy().tolist() == want.tolist()


def test_auto_join_routes_and_parity(ray_session, monkeypatch):
    import numpy as np
    import ray.data as rd

    from pdf_to_text_ray.stages import joins
    from pdf_to_text_ray.stages.joins import (
        auto_join, broadcast_join, bucketed_hash_join)

    rng = np.random.RandomState(4)
    left = pd.DataFrame({"k": rng.randint(0, 50, 500),
                         "x": rng.rand(500)})
    right = pd.DataFrame({"k": np.arange(40), "name": [f"n{i}" for i in range(40)]})

    def run(ds):
        return (ds.to_pandas().sort_values(["k", "x"])
                .reset_index(drop=True))

    lds, rds = rd.from_pandas(left).repartition(4), rd.from_pandas(right)
    via_bcast = run(broadcast_join(lds, rds, "k"))
    via_bucket = run(bucketed_hash_join(lds, rds, "k").select_columns(["k", "x", "name"]))
    expect = (left.merge(right, on="k").sort_values(["k", "x"])
              .reset_index(drop=True))
    pd.testing.assert_frame_equal(via_bcast, expect)
    pd.testing.assert_frame_equal(via_bucket, expect)

    # planner: tiny right side → broadcast; forced 0-byte limit → bucketed
    small = run(auto_join(lds, rds, "k"))
    monkeypatch.setattr(joins, "BROADCAST_LIMIT_BYTES", 0)
    forced = run(auto_join(lds, rds, "k").select_columns(["k", "x", "name"]))
    pd.testing.assert_frame_equal(small, expect)
    pd.testing.assert_frame_equal(forced, expect)


def test_inverted_index_roundtrip(ray_session, tmp_path):
    import ray.data as rd

    from pdf_to_text_ray.stages.index import (
        build_inverted_index, lookup_postings)
    from pdf_to_text_ray.stages.sketches import tokenize_ascii

    docs = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": ["alpha beta gamma", "beta delta", "Alpha ALPHA zeta"],
    })
    idx = str(tmp_path / "idx")
    build_inverted_index(rd.from_pandas(docs).repartition(2), idx,
                         num_shards=4)
    out = lookup_postings(idx, ["alpha", "beta", "missing"], num_shards=4)
    expect = pd.DataFrame({
        "token": ["alpha", "alpha", "beta", "beta"],
        "doc_id": [1, 3, 1, 2],
    })
    pd.testing.assert_frame_equal(out, expect, check_dtype=False)
    # postings are distinct per doc even with repeated tokens
    assert len(out[(out.token == "alpha") & (out.doc_id == 3)]) == 1
    assert tokenize_ascii("Alpha ALPHA zeta") == ["alpha", "alpha", "zeta"]


def test_chained_bucketed_join_preserves_int_keys(ray_session):
    """Regression: the union NaN-pads side columns which coerced int64
    join keys to float64 in the OUTPUT; a chained second bucketed join
    then hashed int64 vs float64 keys differently and silently lost
    rows (TPC-H Q5 chain)."""
    import numpy as np
    import ray.data as rd

    from pdf_to_text_ray.stages.joins import bucketed_hash_join

    rng = np.random.RandomState(9)
    a = pd.DataFrame({"k1": rng.randint(0, 30, 300), "x": rng.rand(300)})
    b = pd.DataFrame({"k1": np.arange(30), "k2": np.arange(30) % 7})
    c = pd.DataFrame({"k2": np.arange(7), "name": [f"g{i}" for i in range(7)]})

    ab = bucketed_hash_join(rd.from_pandas(a).repartition(4),
                            rd.from_pandas(b), on="k1",
                            left_cols=["x"], right_cols=["k2"])
    sch = dict(zip(ab.schema().names, ab.schema().types))
    assert str(sch["k2"]) == "int64", sch
    abc = bucketed_hash_join(ab, rd.from_pandas(c), on="k2",
                             left_cols=["k1", "x"], right_cols=["name"])
    expect = a.merge(b, on="k1").merge(c, on="k2")
    assert abc.count() == len(expect)


def test_storage_bucketed_join_matches_pandas(ray_session, tmp_path):
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from pdf_to_text_ray.stages.joins import (storage_bucketed_join,
                                              write_bucketed)

    rng = np.random.RandomState(11)
    big = pd.DataFrame({"k": rng.randint(0, 50, 400),
                        "v": np.arange(400, dtype="int64")})
    small = pd.DataFrame({"k": np.arange(0, 50, dtype="int64"),
                          "name": [f"n{i}" for i in range(50)]})
    big_dir = str(tmp_path / "big")
    small_dir = str(tmp_path / "small")
    write_bucketed(rd.from_arrow(pa.Table.from_pandas(big)), "k", big_dir,
                   num_buckets=4)
    write_bucketed(rd.from_arrow(pa.Table.from_pandas(small)), "k",
                   small_dir, num_buckets=4)
    got = (storage_bucketed_join(big_dir, small_dir, "k", num_buckets=4)
           .to_pandas().sort_values(["k", "v"]).reset_index(drop=True))
    want = (big.merge(small, on="k").sort_values(["k", "v"])
            .reset_index(drop=True))
    pd.testing.assert_frame_equal(
        got[["k", "v", "name"]], want[["k", "v", "name"]])


def test_write_bucketed_partitions_are_key_disjoint(ray_session, tmp_path):
    """Every key lands in exactly one bucket dir (the co-location
    invariant the join relies on)."""
    import glob

    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from pdf_to_text_ray.stages.joins import write_bucketed

    df = pd.DataFrame({"k": np.arange(200, dtype="int64") % 37,
                       "v": np.arange(200, dtype="int64")})
    d = str(tmp_path / "t")
    write_bucketed(rd.from_arrow(pa.Table.from_pandas(df)), "k", d,
                   num_buckets=5)
    seen = {}
    for bdir in glob.glob(f"{d}/bucket=*"):
        b = int(bdir.rsplit("=", 1)[1])
        for key in pq.read_table(bdir)["k"].to_pylist():
            assert seen.setdefault(key, b) == b, (key, b, seen[key])
    assert len(seen) == 37


def test_snapshot_diff_classifies(ray_session):
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from pdf_to_text_ray.stages.joins import snapshot_diff

    old = pa.table({"k": pa.array([1, 2, 3, 4], pa.int64()),
                    "h": ["a", "b", "c", "d"]})
    new = pa.table({"k": pa.array([2, 3, 4, 5], pa.int64()),
                    "h": ["b", "C", "d", "e"]})
    out = (snapshot_diff(rd.from_arrow(old), rd.from_arrow(new),
                         key_col="k", num_buckets=3)
           .to_pandas().sort_values("k").reset_index(drop=True))
    want = pd.DataFrame({"k": pd.Series([1, 3, 5], dtype="int64"),
                         "change": ["removed", "changed", "added"]})
    pd.testing.assert_frame_equal(out[["k", "change"]], want)


def test_storage_bucketed_join_missing_small_buckets(ray_session, tmp_path):
    """write_parquet(partition_cols=...) only creates dirs for NON-EMPTY
    buckets: a big-side bucket with no small-side partition (including
    bucket 0, which merge() reads for its schema seed) must produce zero
    join rows, not FileNotFoundError."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from pdf_to_text_ray.stages.joins import (storage_bucketed_join,
                                              write_bucketed)

    big = pd.DataFrame({"k": np.arange(64, dtype="int64"),
                        "v": np.arange(64, dtype="int64") * 10})
    # ONE small-side key → 7 of 8 bucket dirs (usually incl. 0) missing
    small = pd.DataFrame({"k": np.array([5], dtype="int64"),
                          "name": ["only"]})
    big_dir, small_dir = str(tmp_path / "big"), str(tmp_path / "small")
    write_bucketed(rd.from_arrow(pa.Table.from_pandas(big)), "k", big_dir,
                   num_buckets=8)
    write_bucketed(rd.from_arrow(pa.Table.from_pandas(small)), "k",
                   small_dir, num_buckets=8)
    got = (storage_bucketed_join(big_dir, small_dir, "k", num_buckets=8)
           .to_pandas().sort_values("k").reset_index(drop=True))
    want = (big.merge(small, on="k").sort_values("k")
            .reset_index(drop=True))
    pd.testing.assert_frame_equal(got[["k", "v", "name"]],
                                  want[["k", "v", "name"]])


def test_bucketed_full_outer_emits_one_sided_buckets(ray_session):
    """FULL OUTER join where some hash buckets contain ONLY one side:
    left-only and right-only keys must all survive (the old empty-side
    guard dropped a bucket whose left side was empty)."""
    import pyarrow as pa
    import ray.data as rd

    from pdf_to_text_ray.stages.joins import bucketed_hash_join

    left = pd.DataFrame({"k": [1, 2, 3], "a": [10, 20, 30]})
    right = pd.DataFrame({"k": [3, 4, 5, 6], "b": [33, 44, 55, 66]})
    got = bucketed_hash_join(
        rd.from_arrow(pa.Table.from_pandas(left)),
        rd.from_arrow(pa.Table.from_pandas(right)),
        on="k", how="outer", num_buckets=7,
        left_cols=["a"], right_cols=["b"],
    ).to_pandas().sort_values("k").reset_index(drop=True)
    want = left.merge(right, on="k", how="outer").sort_values("k") \
        .reset_index(drop=True)
    assert got["k"].tolist() == [1, 2, 3, 4, 5, 6]
    pd.testing.assert_frame_equal(
        got[["k", "a", "b"]].astype("float64"),
        want[["k", "a", "b"]].astype("float64"))


def test_bucketed_right_join_emits_right_only_buckets(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from pdf_to_text_ray.stages.joins import bucketed_hash_join

    left = pd.DataFrame({"k": [1], "a": [10]})
    right = pd.DataFrame({"k": [1, 9], "b": [11, 99]})
    got = bucketed_hash_join(
        rd.from_arrow(pa.Table.from_pandas(left)),
        rd.from_arrow(pa.Table.from_pandas(right)),
        on="k", how="right", num_buckets=5,
        left_cols=["a"], right_cols=["b"],
    ).to_pandas().sort_values("k").reset_index(drop=True)
    assert got["k"].tolist() == [1, 9]
    assert got["b"].tolist() == [11, 99]


def test_skew_join_matches_plain_join_on_skewed_keys(ray_session):
    """skew_join with a celebrity key (60% of left rows): detection
    routes it to the broadcast branch, the tail stays bucketed, and
    the union equals the plain pandas merge."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from pdf_to_text_ray.stages.joins import skew_join

    rng = np.random.default_rng(7)
    keys = np.where(rng.random(4000) < 0.6, 1,
                    rng.integers(2, 200, 4000)).astype("int64")
    left = pd.DataFrame({"k": keys, "ev": np.arange(4000, dtype="int64")})
    right = pd.DataFrame({"k": np.arange(1, 200, dtype="int64"),
                          "name": [f"n{i}" for i in range(1, 200)]})
    got = skew_join(
        rd.from_arrow(pa.Table.from_pandas(left)),
        rd.from_arrow(pa.Table.from_pandas(right)),
        on="k", left_cols=["ev"], right_cols=["name"],
        sample_rows=1000, hot_share=0.05,
    ).to_pandas().sort_values("ev").reset_index(drop=True)
    want = left.merge(right, on="k").sort_values("ev") \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(got[["k", "ev", "name"]],
                                  want[["k", "ev", "name"]])


def test_skew_join_explicit_hot_keys_and_left_how(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from pdf_to_text_ray.stages.joins import skew_join

    left = pd.DataFrame({"k": [1, 1, 1, 2, 3], "ev": [0, 1, 2, 3, 4]})
    right = pd.DataFrame({"k": [1, 2], "name": ["a", "b"]})
    got = skew_join(
        rd.from_arrow(pa.Table.from_pandas(left)),
        rd.from_arrow(pa.Table.from_pandas(right)),
        on="k", how="left", left_cols=["ev"], right_cols=["name"],
        hot_keys=[1],
    ).to_pandas().sort_values("ev").reset_index(drop=True)
    want = left.merge(right, on="k", how="left").sort_values("ev") \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(got[["k", "ev", "name"]],
                                  want[["k", "ev", "name"]])
    import pytest as _pytest
    with _pytest.raises(ValueError):
        skew_join(rd.from_arrow(pa.Table.from_pandas(left)),
                  rd.from_arrow(pa.Table.from_pandas(right)),
                  on="k", how="outer", left_cols=["ev"],
                  right_cols=["name"], hot_keys=[1])


def test_merge_into_semantics(ray_session):
    import pytest
    import ray.data as rd

    from pdf_to_text_ray.stages.cdc import merge_into

    base = pa.table({"k": [1, 2, 3, 4], "v": [10.0, 20.0, 30.0, 40.0]})
    # update matched (1), delete matched (2), insert unmatched (5),
    # no-ops: unmatched delete (9), unmatched update (8), matched
    # insert (3) — SQL MERGE ignores all three.
    chg = pa.table({
        "k": [1, 2, 5, 9, 8, 3],
        "v": [11.0, None, 50.0, None, 99.0, 33.0],
        "op": ["U", "D", "I", "D", "U", "I"],
    })
    out = (merge_into(rd.from_arrow(base), rd.from_arrow(chg), key="k",
                      num_buckets=4)
           .to_pandas().sort_values("k").reset_index(drop=True))
    expect = pd.DataFrame({"k": [1, 3, 4, 5],
                           "v": [11.0, 30.0, 40.0, 50.0]})
    pd.testing.assert_frame_equal(out.astype({"k": "int64"}), expect)

    dup = pa.table({"k": [1, 1], "v": [1.0, 2.0], "op": ["U", "U"]})
    with pytest.raises(Exception, match="multiple change rows"):
        merge_into(rd.from_arrow(base), rd.from_arrow(dup), key="k",
                   num_buckets=2).to_pandas()


def test_interval_count_join_variable_widths(ray_session):
    import numpy as np
    import ray.data as rd

    from pdf_to_text_ray.stages.joins import interval_count_join

    rng = np.random.RandomState(11)
    pts = np.sort(rng.randint(0, 10_000, size=500)).astype(np.int64)
    ivl_lo = rng.randint(0, 9_000, size=40).astype(np.int64)
    ivl_hi = ivl_lo + rng.randint(0, 3_000, size=40)  # widths 0..3000
    ids = np.arange(40, dtype=np.int64)

    out = interval_count_join(
        rd.from_arrow(pa.table({"id": ids, "lo": ivl_lo, "hi": ivl_hi})),
        rd.from_arrow(pa.table({"ts": pts})),
        id_col="id", lo_col="lo", hi_col="hi", ts_col="ts",
        bucket_us=1_000,  # intervals span up to 4 buckets
    ).to_pandas().sort_values("id").reset_index(drop=True)

    expect = [int(((pts >= lo) & (pts <= hi)).sum())
              for lo, hi in zip(ivl_lo, ivl_hi)]
    assert out["id"].tolist() == list(range(40))
    assert out["n_matches"].tolist() == expect


def test_interval_count_join_string_interval_ids(ray_session):
    """Non-integer interval ids (string window names) must survive the
    union: the points side is padded with typed nulls from the
    intervals' id column, not hardcoded int64 zeros."""
    import numpy as np
    import ray.data as rd

    from pdf_to_text_ray.stages.joins import interval_count_join

    pts = np.arange(0, 5_000, 7, dtype=np.int64)
    names = ["alpha", "beta", "gamma"]
    lo = np.array([0, 1_500, 900], dtype=np.int64)
    hi = np.array([1_000, 3_200, 4_999], dtype=np.int64)

    out = interval_count_join(
        rd.from_arrow(pa.table({"win": names, "lo": lo, "hi": hi})),
        rd.from_arrow(pa.table({"ts": pts})),
        id_col="win", lo_col="lo", hi_col="hi", ts_col="ts",
        bucket_us=1_000,
    ).to_pandas().sort_values("win").reset_index(drop=True)

    expect = {nm: int(((pts >= a) & (pts <= b)).sum())
              for nm, a, b in zip(names, lo, hi)}
    assert dict(zip(out["win"], out["n_matches"])) == expect


def test_interval_count_join_rejects_axis_spanning_interval(ray_session):
    import numpy as np
    import pytest
    import ray.data as rd

    from pdf_to_text_ray.stages.joins import interval_count_join

    with pytest.raises(Exception, match="max_reps"):
        interval_count_join(
            rd.from_arrow(pa.table({"id": [0], "lo": [0],
                                    "hi": [10_000_000]})),
            rd.from_arrow(pa.table({"ts": np.arange(10, dtype=np.int64)})),
            id_col="id", lo_col="lo", hi_col="hi", ts_col="ts",
            bucket_us=100, max_reps=64,
        ).to_pandas()


def test_asof_join_forward_with_tolerance(ray_session):
    import ray.data as rd

    left = pa.table({
        "k": [1, 1, 2, 3],
        "lts": pa.array(
            pd.to_datetime([100, 200, 150, 500], unit="s")),
        "lid": [10, 11, 20, 30],
    })
    right = pa.table({
        "k": [1, 1, 2],
        "rts": pa.array(pd.to_datetime([120, 900, 150], unit="s")),
        "val": [7.0, 8.0, 9.0],
    })
    from pdf_to_text_ray.stages.joins import asof_join

    out = asof_join(
        rd.from_arrow(left), rd.from_arrow(right),
        key="k", left_ts="lts", right_ts="rts", value_cols=["val"],
        direction="forward", tolerance=pd.Timedelta(seconds=100),
        num_buckets=4,
    ).to_pandas().sort_values("lid").reset_index(drop=True)
    got = dict(zip(out["lid"], out["val"]))
    # lid=10: next right at 120 (within 100s) -> 7; lid=11: next right
    # at 900, beyond tolerance -> NaN; lid=20: exact-match 150 -> 9;
    # lid=30: no right rows for key 3 -> NaN
    assert got[10] == 7.0 and got[20] == 9.0
    assert pd.isna(got[11]) and pd.isna(got[30])


def test_merge_into_matches_reference_randomized(ray_session):
    import numpy as np
    import ray.data as rd

    from pdf_to_text_ray.stages.cdc import merge_into

    for seed in (0, 1, 2, 3, 4):
        rng = np.random.RandomState(seed)
        base_keys = np.unique(rng.randint(0, 300, size=150))
        base = pd.DataFrame({"k": base_keys,
                             "v": rng.rand(len(base_keys)).round(6)})
        chg_keys = np.unique(rng.randint(0, 400, size=80))
        ops = rng.choice(["I", "U", "D"], size=len(chg_keys))
        chg = pd.DataFrame({"k": chg_keys, "v": rng.rand(
            len(chg_keys)).round(6), "op": ops})

        out = (merge_into(rd.from_pandas(base), rd.from_pandas(chg),
                          key="k", num_buckets=8)
               .to_pandas().sort_values("k").reset_index(drop=True))

        in_base = np.isin(chg["k"], base["k"])
        upd = chg[(chg["op"] == "U") & in_base]
        ins = chg[(chg["op"] == "I") & ~in_base]
        gone = set(chg.loc[in_base & chg["op"].isin(["U", "D"]), "k"])
        kept = base[~base["k"].isin(gone)]
        expect = (pd.concat([kept, upd[["k", "v"]], ins[["k", "v"]]])
                  .sort_values("k").reset_index(drop=True))
        pd.testing.assert_frame_equal(
            out.astype({"k": "int64"}), expect.astype({"k": "int64"}))


def _typed_side(n: int, seed: int) -> pa.Table:
    """int32, int64, timestamp[us], string and binary columns keyed by
    an int64 ``k`` (duplicates included)."""
    rng = np.random.default_rng(seed)
    ts = (np.datetime64("2024-01-01T00:00:00", "us")
          + rng.integers(0, 3_600_000_000, n).astype("timedelta64[us]"))
    return pa.table({
        "k": pa.array(rng.integers(0, n // 2, n), pa.int64()),
        "i32": pa.array(rng.integers(-5, 5, n), pa.int32()),
        "i64": pa.array(rng.integers(0, 1 << 40, n), pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
        "s": pa.array([f"s{i}" for i in range(n)], pa.string()),
        "b": pa.array([b"\x00b%d" % i for i in range(n)], pa.binary())})


_TYPED = {"i32": pa.int32(), "i64": pa.int64(), "ts": pa.timestamp("us"),
          "s": pa.string(), "b": pa.binary()}


def _join(L, R):
    from pdf_to_text_ray.stages.joins import bucketed_hash_join

    right = R.map_batches(lambda t: t.rename_columns(
        ["k"] + [f"r_{c}" for c in t.column_names[1:]]),
        batch_format="pyarrow")
    return (bucketed_hash_join(L, right, "k", num_buckets=8),
            {**_TYPED, **{f"r_{c}": t for c, t in _TYPED.items()}})


def _asof(L, R):
    right = R.map_batches(lambda t: t.rename_columns(
        ["k", "v32", "v64", "ts", "vs", "vb"]), batch_format="pyarrow")
    return (asof_join(L, right, key="k", left_ts="ts", right_ts="ts",
                      value_cols=["v32", "v64", "vs", "vb"], num_buckets=8),
            {**_TYPED, "v32": pa.int32(), "v64": pa.int64(),
             "vs": pa.string(), "vb": pa.binary()})


def _band(L, R):
    from pdf_to_text_ray.stages.joins import temporal_band_count

    # Ray's grouped Sum widens an int32 key, so the ids here are the
    # types the aggregate keeps
    return (temporal_band_count(L, R, left_ts="ts", right_ts="ts",
                                left_key="b", band_us=60_000_000),
            {"b": pa.binary(), "n_matches": pa.int64()})


def _interval(L, R):
    from pdf_to_text_ray.stages.joins import interval_count_join

    def span(t):
        lo = t["ts"].cast(pa.int64())
        return pa.table({"s": t["s"], "lo": lo,
                         "hi": pa.array(lo.to_numpy() + 90_000_000)})

    return (interval_count_join(
        L.map_batches(span, batch_format="pyarrow"), R, id_col="s",
        lo_col="lo", hi_col="hi", ts_col="ts", bucket_us=60_000_000),
        {"s": pa.string(), "n_matches": pa.int64()})


def _diff(L, R):
    from pdf_to_text_ray.stages.joins import snapshot_diff

    def kh(t):
        return pa.table({"id": t["i32"], "h": t["s"]})

    return (snapshot_diff(L.map_batches(kh, batch_format="pyarrow"),
                          R.map_batches(kh, batch_format="pyarrow"),
                          key_col="id", num_buckets=8),
            {"id": pa.int32(), "change": pa.string()})


def _merge(L, R):
    from pdf_to_text_ray.stages.cdc import merge_into

    def unique_keys(t):
        return t.set_column(0, "k", t["i64"])

    def ops(t):
        op = np.where(t["i32"].to_numpy() < 0, "D", "U")
        return unique_keys(t).append_column("op", pa.array(op))

    return (merge_into(L.map_batches(unique_keys, batch_format="pyarrow"),
                       R.map_batches(ops, batch_format="pyarrow"),
                       key="k", num_buckets=8),
            {"k": pa.int64(), **_TYPED})


@pytest.mark.parametrize("build", [_join, _asof, _band, _interval, _diff,
                                   _merge])
def test_two_sided_exchange_one_schema_exact_types(ray_session, build):
    """Every two-sided operator runs one exchange with one schema: Ray
    logs no 'different schema' bundle, and the columns it carries
    through come back with their exact Arrow types (no int64
    widening, no float coercion, no pandas round trip of binary)."""
    import logging

    import ray
    import ray.data as rd

    class Capture(logging.Handler):
        def __init__(self):
            super().__init__(level=logging.WARNING)
            self.records = []

        def emit(self, record):
            self.records.append(record.getMessage())

    L = rd.from_arrow(_typed_side(400, 1)).repartition(4)
    R = rd.from_arrow(_typed_side(300, 2)).repartition(3)
    cap = Capture()
    lg = logging.getLogger("ray.data")
    lg.addHandler(cap)
    try:
        ds, want = build(L, R)
        out = pa.concat_tables(
            [t for t in ray.get(ds.to_arrow_refs()) if t.num_columns],
            promote_options="permissive")
    finally:
        lg.removeHandler(cap)
    assert not [m for m in cap.records if "different schema" in m]
    assert out.num_rows > 0
    assert {c: out.schema.field(c).type for c in want} == want


@pytest.mark.parametrize("how", ["left", "outer"])
def test_non_inner_join_keeps_declared_cols_of_an_empty_side(ray_session,
                                                            how):
    """A side whose rows are all filtered away ships nothing, not even
    its schema; a left or outer join still emits its declared
    ``right_cols``, as null columns, next to every left row."""
    import ray.data as rd

    left = pa.table({"k": pa.array([1, 2, 2, 3], pa.int64()),
                     "lv": pa.array([10, 20, 21, 30], pa.int32())})
    right = rd.from_arrow(pa.table({
        "k": pa.array([1, 2], pa.int64()), "rv": ["a", "b"],
        "rw": [1.5, 2.5]})).filter(expr="k > 5")
    out = (bucketed_hash_join(rd.from_arrow(left).repartition(2), right,
                              "k", how=how, num_buckets=4,
                              left_cols=["lv"], right_cols=["rv", "rw"])
           .to_pandas().sort_values(["k", "lv"]).reset_index(drop=True))
    assert list(out.columns) == ["k", "lv", "rv", "rw"]
    assert out["k"].tolist() == [1, 2, 2, 3]
    assert out["lv"].tolist() == [10, 20, 21, 30]
    assert out[["rv", "rw"]].isna().all().all()
