import os

import pyarrow as pa

from pdf_to_text_ray.fixtures.corpus import make_pages_table
from pdf_to_text_ray.pipelines.artifacts import lookup_artifact, write_artifacts
from pdf_to_text_ray.pipelines.extract import extract_pages
from pdf_to_text_ray.stages.segment import CSV_HEADERS, records_batch, segment_batch


def test_artifacts_roundtrip_and_lookup(ray_session, tmp_path):
    import ray.data as rd

    pages, golden = make_pages_table(40, seed=9)
    text = extract_pages(rd.from_arrow(pages), batch_size=16)
    blocks = text.map_batches(segment_batch, batch_format="pyarrow")
    records = blocks.map_batches(records_batch, batch_format="pyarrow")
    out_dir = str(tmp_path / "artifacts")
    paths = write_artifacts(text, records, out_dir)
    assert set(paths) == {"text", "records", "records_json", "records_csv"}

    csv_file = os.path.join(paths["records_csv"], "part-00000.csv")
    lines = open(csv_file).read().splitlines()
    assert lines[0] == CSV_HEADERS
    n_records = rd.read_parquet(paths["records"]).count()
    assert len(lines) == 1 + n_records
    if n_records:
        # toFixed(2) money formatting on every row
        assert all(line.rsplit(",", 1)[1].count(".") == 1 and
                   len(line.rsplit(".", 1)[1]) == 2 for line in lines[1:])

    url = golden["url"][0].as_py()
    hit = lookup_artifact(out_dir, url, "text").to_pandas()
    assert len(hit) >= 1 and (hit["url"] == url).all()
    miss = lookup_artifact(out_dir, "https://nope.test/x", "text").to_pandas()
    assert len(miss) == 0


def test_partitioned_text_artifact(ray_session, tmp_path):
    import os

    import ray.data as rd

    pages, _ = make_pages_table(40, seed=17)
    text = extract_pages(rd.from_arrow(pages), batch_size=16)
    blocks = text.map_batches(segment_batch, batch_format="pyarrow")
    records = blocks.map_batches(records_batch, batch_format="pyarrow")
    out = str(tmp_path / "art2")
    paths = write_artifacts(text, records, out, partition_text_by=["doc_type"])
    parts = sorted(os.listdir(paths["text"]))
    assert any(p.startswith("doc_type=") for p in parts)
    # partition-pruned read touches only the html directory
    html_only = rd.read_parquet(os.path.join(paths["text"], "doc_type=html"))
    assert html_only.count() > 0


def test_schema_validation(ray_session):
    """extract_pages emits every TEXT_SCHEMA column with its declared
    type; extra columns (lang, error_kind) ride along."""
    from pdf_to_text_ray.schemas import TEXT_SCHEMA

    import ray.data as rd

    pages, _ = make_pages_table(20, seed=18)
    out = extract_pages(rd.from_arrow(pages), batch_size=8).schema()
    got = dict(zip(out.names, out.types))
    for field in TEXT_SCHEMA:
        assert got.get(field.name) == field.type, (field, got)


def test_versioned_table_time_travel_and_orphan_commits(ray_session, tmp_path):
    """state/versioned.py: per-version snapshots resolve last-write-wins
    with tombstones; a crashed commit (data dir present, no log line)
    is invisible to readers."""
    import pyarrow as pa
    import ray.data as rd

    import pandas as pd

    from pdf_to_text_ray.state.versioned import (commit, latest_version,
                                                 read_as_of)

    root = str(tmp_path / "vt")
    base = pd.DataFrame({"k": [1, 2, 3, 4], "v": [10, 20, 30, 40]})
    assert latest_version(root) == 0
    assert commit(rd.from_arrow(pa.Table.from_pandas(base)), root,
                  key="k") == 1
    upd = pd.DataFrame({"k": [2], "v": [99]})
    assert commit(rd.from_arrow(pa.Table.from_pandas(upd)), root,
                  key="k") == 2
    dele = pd.DataFrame({"k": [3], "v": [0], "_deleted": [True]})
    assert commit(rd.from_arrow(pa.Table.from_pandas(dele)), root,
                  key="k") == 3

    def snap(v):
        df = read_as_of(root, v, key="k").to_pandas()
        return dict(zip(df["k"].astype(int), df["v"].astype(int)))

    assert snap(1) == {1: 10, 2: 20, 3: 30, 4: 40}
    assert snap(2) == {1: 10, 2: 99, 3: 30, 4: 40}
    assert snap(3) == {1: 10, 2: 99, 4: 40}

    # simulate a crashed commit: data directory written, log line never
    # appended — readers at any version must not see it
    import os
    orphan = os.path.join(root, "commit=4")
    os.makedirs(orphan)
    pa.parquet.write_table(
        pa.Table.from_pandas(pd.DataFrame(
            {"k": [1], "v": [777], "_deleted": [False], "_commit": [4]})),
        os.path.join(orphan, "part-0.parquet"))
    assert latest_version(root) == 3
    assert snap(3) == {1: 10, 2: 99, 4: 40}

    import pytest as _pytest
    with _pytest.raises(ValueError):
        read_as_of(root, 0, key="k")


def test_versioned_table_compaction(ray_session, tmp_path):
    """compact() rewrites resolved state as a fresh commit: reads at or
    past it open ONLY the compacted files, while as-of reads BEFORE the
    compaction still reconstruct history from the original dirs."""
    import os

    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from pdf_to_text_ray.state.versioned import (commit, compact,
                                                 read_as_of)

    root = str(tmp_path / "vt")
    base = pd.DataFrame({"k": [1, 2, 3], "v": [10, 20, 30]})
    commit(rd.from_arrow(pa.Table.from_pandas(base)), root, key="k")
    commit(rd.from_arrow(pa.Table.from_pandas(
        pd.DataFrame({"k": [2], "v": [99]}))), root, key="k")
    commit(rd.from_arrow(pa.Table.from_pandas(
        pd.DataFrame({"k": [3], "v": [0], "_deleted": [True]}))),
        root, key="k")
    cv = compact(root, key="k")
    assert cv == 4

    def snap(v):
        df = read_as_of(root, v, key="k").to_pandas()
        return dict(zip(df["k"].astype(int), df["v"].astype(int)))

    # post-compaction read == pre-compaction latest state
    assert snap(cv) == {1: 10, 2: 99}
    # history BEFORE the compaction is still reachable
    assert snap(1) == {1: 10, 2: 20, 3: 30}
    assert snap(2) == {1: 10, 2: 99, 3: 30}
    # the as-of-cv read lists only the compacted commit's files
    import json
    log = json.load(open(os.path.join(root, "_commits.json")))
    assert all(e.get("compacted_by") == cv
               for e in log if e["version"] < cv)


def test_bloom_file_index_prunes_without_false_negatives(ray_session,
                                                         tmp_path):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from pdf_to_text_ray.stages.fileindex import (
        bloom_candidate_files, bloom_point_lookup, build_bloom_index)

    n = 4000
    t = pa.table({"k": np.arange(n, dtype=np.int64),
                  "v": np.arange(n, dtype=np.int64) * 2})
    out = str(tmp_path / "bloomed")
    # shuffled layout: every file spans the full key range, so only
    # the bloom index (not zone maps) can prune
    rd.from_arrow(t).random_shuffle(seed=3).repartition(8) \
        .write_parquet(out)
    build_bloom_index(out, "k", m_bits=1 << 13, k=4)

    # every present key must be found (no false negatives), and the
    # probe must not open every file
    keys = [0, 1234, 3999]
    keep, total = bloom_candidate_files(out, keys)
    assert total == 8
    assert len(keep) < total
    got = bloom_point_lookup(out, "k", keys).to_pandas() \
        .sort_values("k").reset_index(drop=True)
    assert got["k"].tolist() == keys
    assert got["v"].tolist() == [k * 2 for k in keys]

    # absent key: usually zero candidate files; never a wrong row
    keep_absent, _ = bloom_candidate_files(out, [10**12])
    ds = bloom_point_lookup(out, "k", [10**12])
    assert ds is None or ds.count() == 0


def test_bloom_index_sharded_sidecars_bound_driver_loads(ray_session,
                                                         tmp_path):
    """Many-file / partitioned layout: per-file filters live in
    per-directory shard sidecars written by workers; the driver loads
    at most ONE sidecar per probed directory, and none at all for a
    directory whose shard-aggregate filter prunes the probe."""
    import json
    import os

    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from pdf_to_text_ray.stages.fileindex import (
        bloom_candidate_files, bloom_point_lookup, build_bloom_index)

    root = str(tmp_path / "parts")
    # three partition directories with DISJOINT key ranges, each split
    # into several files (shuffled inside, so zone maps can't help)
    for p, lo in [("part=a", 0), ("part=b", 100_000), ("part=c", 200_000)]:
        t = pa.table({"k": np.arange(lo, lo + 3_000, dtype=np.int64),
                      "v": np.arange(3_000, dtype=np.int64)})
        rd.from_arrow(t).random_shuffle(seed=1).repartition(6) \
            .write_parquet(os.path.join(root, p))
    build_bloom_index(root, "k", m_bits=1 << 13, k=4)

    # manifest holds NO per-file filters — only shard rows
    with open(os.path.join(root, "_bloom_index.json")) as f:
        man = json.load(f)
    assert "files" not in man
    assert sum(s["n_files"] for s in man["shards"]) == 18

    # probe keys living only in part=a and part=c
    keys = [5, 200_005]
    keep, total, stats = bloom_candidate_files(root, keys,
                                               with_stats=True)
    assert total == 18
    assert 0 < len(keep) < total  # real pruning
    # at most one sidecar load per probed directory; part=b's shard
    # (aggregate filter misses both keys) is never opened
    per_dir = {}
    for s in stats["loaded_sidecars"]:
        d = s  # one shard == one directory at this files_per_shard
        per_dir[d] = per_dir.get(d, 0) + 1
    assert all(v == 1 for v in per_dir.values())
    assert stats["shards_loaded"] <= 2 < stats["shards_total"] == 3
    assert not any("part=b" in p for p in keep)

    got = bloom_point_lookup(root, "k", keys).to_pandas() \
        .sort_values("k").reset_index(drop=True)
    assert got["k"].tolist() == keys

    # a flat directory larger than files_per_shard splits into chunks,
    # keeping any single shard (and so the driver) bounded
    flat = str(tmp_path / "flat")
    t = pa.table({"k": np.arange(1_000, dtype=np.int64)})
    rd.from_arrow(t).repartition(10).write_parquet(flat)
    build_bloom_index(flat, "k", m_bits=1 << 12, k=4, files_per_shard=3)
    with open(os.path.join(flat, "_bloom_index.json")) as f:
        man2 = json.load(f)
    assert len(man2["shards"]) == 4  # ceil(10 / 3)
    assert max(s["n_files"] for s in man2["shards"]) <= 3
    keep2, total2 = bloom_candidate_files(flat, [999])
    assert total2 == 10 and len(keep2) >= 1


def test_lsm_compaction_sorted_disjoint_and_prunable(ray_session,
                                                     tmp_path):
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from pdf_to_text_ray.stages.lsm import compact, write_run

    rng = np.random.RandomState(5)
    runs_dir = str(tmp_path / "runs")
    level = str(tmp_path / "level0")
    import os
    os.makedirs(runs_dir)
    all_keys = []
    for wave in range(3):
        k = rng.randint(0, 100_000, size=2_000).astype(np.int64)
        all_keys.append(k)
        write_run(rd.from_arrow(pa.table({"key": k})), "key",
                  runs_dir, wave)
    stats = compact(runs_dir, "key", level, num_ranges=4)

    assert stats["n"].sum() == 6_000
    # quantile-balanced ranges: no range more than 2x the even share
    assert stats["n"].max() <= 3_000
    # files are key-disjoint and individually sorted -> globally sorted
    parts = sorted(f for f in os.listdir(level) if f.endswith(".parquet"))
    assert len(parts) == 4
    prev_max = -1
    seen = []
    for p in parts:
        t = pq.read_table(os.path.join(level, p))["key"].to_numpy()
        assert (np.diff(t) >= 0).all()
        assert t[0] > prev_max
        prev_max = int(t[-1])
        seen.append(t)
    got = np.sort(np.concatenate(seen))
    assert (got == np.sort(np.concatenate(all_keys))).all()
    # zone maps on the compacted level prune: footer ranges disjoint
    mins = [pq.ParquetFile(os.path.join(level, p)).metadata.row_group(0)
            .column(0).statistics.min for p in parts]
    assert mins == sorted(mins)


def test_lsm_compact_keeps_int64_keys_exact(ray_session, tmp_path):
    """Integer keys must not round-trip through float64: ids above
    2^31 (but below 2^53) route to ranges exactly, and ids at ≥2^53
    are rejected loudly rather than silently misplaced."""
    import os

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import pytest
    import ray.data as rd

    from pdf_to_text_ray.stages.lsm import compact, write_run

    # keys clustered just below 2^53 where float64 spacing is 1.0 —
    # adjacent int keys are still distinguishable, so compaction must
    # keep them disjoint and complete
    base = 2**52
    keys = (base + np.arange(0, 4_000, dtype=np.int64))
    rng = np.random.RandomState(7)
    rng.shuffle(keys)
    runs_dir = str(tmp_path / "runs")
    os.makedirs(runs_dir)
    write_run(rd.from_arrow(pa.table({"key": keys[:2000]})), "key",
              runs_dir, 0)
    write_run(rd.from_arrow(pa.table({"key": keys[2000:]})), "key",
              runs_dir, 1)
    level = str(tmp_path / "level")
    stats = compact(runs_dir, "key", level, num_ranges=4)
    assert stats["n"].sum() == 4_000
    parts = sorted(f for f in os.listdir(level) if f.endswith(".parquet"))
    seen, prev_max = [], -1
    for p in parts:
        t = pq.read_table(os.path.join(level, p))["key"].to_numpy()
        assert t.dtype == np.int64 and (np.diff(t) >= 0).all()
        assert t[0] > prev_max
        prev_max = int(t[-1])
        seen.append(t)
    assert (np.sort(np.concatenate(seen)) == np.sort(keys)).all()

    # ≥ 2^53: refuse (float64 splitter refinement can't be trusted)
    runs2 = str(tmp_path / "runs2")
    os.makedirs(runs2)
    huge = 2**53 + np.arange(0, 100, dtype=np.int64)
    write_run(rd.from_arrow(pa.table({"key": huge})), "key", runs2, 0)
    with pytest.raises(ValueError, match="2\\^53"):
        compact(runs2, "key", str(tmp_path / "level2"), num_ranges=2)


def test_catalog_pins_are_atomic_and_validated(ray_session, tmp_path):
    import pyarrow as pa
    import pytest
    import ray.data as rd

    from pdf_to_text_ray.state.catalog import (publish, read_table,
                                               table_root)
    from pdf_to_text_ray.state.versioned import commit

    root = str(tmp_path / "cat")
    commit(rd.from_arrow(pa.table({"k": [1], "v": [1.0]})),
           table_root(root, "a"), key="k")
    commit(rd.from_arrow(pa.table({"k": [1], "name": ["x"]})),
           table_root(root, "b"), key="k")
    cv1 = publish(root, {"a": 1, "b": 1})

    # a pin referencing an unwritten version is rejected up front
    with pytest.raises(ValueError, match="cannot pin"):
        publish(root, {"a": 2, "b": 1})

    # an unpinned later commit is invisible through the catalog
    commit(rd.from_arrow(pa.table({"k": [1], "name": ["y"]})),
           table_root(root, "b"), key="k")
    got = read_table(root, cv1, "b", key="k").to_pandas()
    assert got["name"].tolist() == ["x"]

    cv2 = publish(root, {"a": 1, "b": 2})
    got2 = read_table(root, cv2, "b", key="k").to_pandas()
    assert got2["name"].tolist() == ["y"]

    # a table the catalog does not pin cannot be read through it
    with pytest.raises(ValueError, match="does not pin"):
        read_table(root, cv1, "zzz", key="k")


def test_catalog_concurrent_publishes_never_lost(ray_session, tmp_path):
    """publish() is a read-modify-write of _catalog.json; the O_EXCL
    lock must serialize concurrent publishers so every publish lands
    with a distinct version and none is silently dropped."""
    from concurrent.futures import ThreadPoolExecutor

    import pyarrow as pa
    import ray.data as rd

    from pdf_to_text_ray.state.catalog import (pins_as_of, publish,
                                               table_root)
    from pdf_to_text_ray.state.versioned import commit

    root = str(tmp_path / "cat")
    commit(rd.from_arrow(pa.table({"k": [1], "v": [1.0]})),
           table_root(root, "a"), key="k")

    with ThreadPoolExecutor(max_workers=8) as ex:
        versions = list(ex.map(lambda _: publish(root, {"a": 1}),
                               range(16)))
    assert sorted(versions) == list(range(1, 17))  # none lost, no dup
    for v in versions:
        assert pins_as_of(root, v) == {"a": 1}
