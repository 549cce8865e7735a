"""Join strategies for Ray Data (SURVEY.md §2.4).

Ray 2.49 has no stable ``Dataset.join``. A join of two large sides
runs on ONE exchange, ``groups.cogroup``: each side's map routes its
rows to buckets and ships every bucket's slice as an Arrow IPC stream
in one row ``{_bucket: int64, _side: int8, _ipc: large_binary}``, the
union of the sides sorts on ``_bucket`` (``batches × buckets`` rows,
one schema), and one function per bucket gets each side back as an
Arrow table with its exact column types. Every operator below that
co-locates two datasets is a routing rule plus that function:

- ``bucketed_hash_join``: both sides hash on the key; per bucket a
  pandas merge of the key columns yields row indices, and the output
  ``take``s every other column from the Arrow sides, so payload
  columns (blobs included) never pass through pandas and integers
  are never coerced to float.
- ``asof_join``: hash on the key, ``pd.merge_asof`` per bucket over
  ts-sorted index frames.
- ``temporal_band_count`` / ``interval_count_join``: range joins. The
  time axis splits into fixed-width time buckets that map onto the
  exchange buckets modulo their count; probes repeat into every time
  bucket they overlap and count that time bucket's points only.
- ``snapshot_diff`` (and ``cdc.merge_into``): hash on the key, one
  outer comparison per bucket.

Partitioning assumption: every key's rows fit in one bucket's memory;
salt hot keys (``skew_join``) if not. The other shapes need no
exchange: ``probe_sorted`` is the one membership probe of a small
sorted key set (every caller reads key-aligned values only under its
``hit`` mask, so an empty key set is safe everywhere), and
``broadcast_join`` ships a small side via ``ray.put`` to a per-batch
merge.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .groups import arrow_out, cogroup, stable_bucket


def probe_sorted(keys: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Membership of each ``x[i]`` in the ascending 1-D ``keys`` (ints
    or object strings; duplicates allowed) → ``(hit, idx)``.

    ``hit[i]`` is True iff ``x[i]`` equals a key, and then ``idx[i]``
    is the leftmost equal key's position; elsewhere ``idx[i]`` is some
    position in ``[0, len(keys))``. Empty ``keys`` give ``hit`` all
    False and ``idx`` all 0, so read key-aligned values only through
    ``idx[hit]`` or under ``hit``."""
    if len(keys) == 0:
        return np.zeros(len(x), bool), np.zeros(len(x), np.intp)
    idx = np.minimum(np.searchsorted(keys, x), len(keys) - 1)
    return keys[idx] == x, idx


def _take_idx(s: pd.Series) -> pa.Array:
    """Merge output row positions → Arrow ``take`` indices (NaN, from
    a side an outer merge left unmatched, becomes null)."""
    return pa.array(s.to_numpy(), from_pandas=True).cast(pa.int64())


def _absent(like: pa.Table, keys: list[str], cols) -> pa.Table:
    """Zero-row stand-in for a side that shipped nothing: ``keys``
    typed as in ``like`` (the present side), ``cols`` as null columns."""
    return pa.table([pa.array([], like.schema.field(k).type) for k in keys]
                    + [pa.nulls(0) for _ in cols or ()],
                    names=list(keys) + list(cols or ()))


def bucketed_hash_join(left, right, on: str, *, num_buckets: int = 32,
                       suffixes: tuple[str, str] = ("_l", "_r"),
                       how: str = "inner",
                       left_cols: list[str] | None = None,
                       right_cols: list[str] | None = None):
    """Partitioned hash join of two Datasets on one key column: one
    ``cogroup`` exchange, then per bucket a pandas merge of the key
    columns alone, whose row positions ``take`` the other columns from
    the Arrow sides. Output columns: the key, the left side's other
    columns, then the right side's, each with its input's Arrow type;
    names both sides carry get ``suffixes``.

    ``left_cols``/``right_cols`` name a side's non-key columns for the
    one case where that side ships no rows at all (every row filtered
    away): a left or outer join then still emits them, as null
    columns. Inner joins need neither."""

    def join_bucket(lt: pa.Table | None, rt: pa.Table | None):
        lt = _absent(rt, [on], left_cols) if lt is None else lt
        rt = _absent(lt, [on], right_cols) if rt is None else rt
        m = pd.DataFrame({on: lt[on].to_pandas(),
                          "_li": np.arange(lt.num_rows)}).merge(
            pd.DataFrame({on: rt[on].to_pandas(),
                          "_ri": np.arange(rt.num_rows)}),
            on=on, how=how)
        lnames = [c for c in lt.column_names if c != on]
        rnames = [c for c in rt.column_names if c != on]
        both = set(lnames) & set(rnames)
        li = m["_li"].to_numpy()
        if len(li) == lt.num_rows and (li == np.arange(len(li))).all():
            # every left row once, in order (the fact ⋈ dimension case):
            # the left columns pass through uncopied
            lpart = lt.select([on] + lnames)
        else:
            lpart = lt.select([on] + lnames).take(_take_idx(m["_li"]))
        ri = _take_idx(m["_ri"])
        key = lpart[on]
        if how in ("right", "outer"):
            key = pc.coalesce(key, rt[on].take(ri).cast(key.type))
        rpart = rt.select(rnames).take(ri)
        return pa.table(
            [key] + lpart.columns[1:] + rpart.columns,
            names=[on] + [c + suffixes[0] if c in both else c
                          for c in lnames]
            + [c + suffixes[1] if c in both else c for c in rnames])

    return cogroup([(left, on), (right, on)], join_bucket,
                   num_buckets=num_buckets)


def broadcast_join(left, right, on: str, *,
                   how: str = "inner",
                   suffixes: tuple[str, str] = ("_l", "_r")):
    """Small-side join: ``right`` (a Dataset or pandas frame) is
    materialized once, shipped via ``ray.put``, and merged per batch
    of ``left`` — the big side never shuffles.

    ``how`` is restricted to inner/left: the merge runs per LEFT
    batch, so an outer/right join would re-emit every right-only row
    once per batch — silently wrong output, not a performance issue.
    Use ``bucketed_hash_join`` for those."""
    import ray

    if how not in ("inner", "left"):
        raise ValueError(
            "broadcast_join supports how='inner'/'left' only (right-only "
            "rows would duplicate per batch); use bucketed_hash_join")

    rdf = right if isinstance(right, pd.DataFrame) else right.to_pandas()
    right_ref = ray.put(rdf)

    # pyarrow-declared (merge itself is pandas): a pandas-declared map
    # fused into a downstream aggregate forces the exchange onto the
    # pandas slow path (see groups.bucketed_group_apply)
    def merge(t: pa.Table):
        r = ray.get(right_ref)
        return arrow_out(t.to_pandas().merge(r, on=on, how=how,
                                             suffixes=suffixes))

    return left.map_batches(merge, batch_format="pyarrow")


# right sides at or under this estimate are broadcast (object-store
# copy per node on a real cluster; per-process memo locally)
BROADCAST_LIMIT_BYTES = 64 << 20


def auto_join(left, right, on: str, *,
              how: str = "inner",
              num_buckets: int = 32,
              suffixes: tuple[str, str] = ("_l", "_r"),
              left_cols: list[str] | None = None,
              right_cols: list[str] | None = None):
    """Join planner: broadcast the right side when its estimated size
    fits ``BROADCAST_LIMIT_BYTES``, else fall back to the bucketed
    hash join (one all-to-all).

    The size estimate is ``right.size_bytes()`` — metadata-only for
    scan-rooted Datasets (read_parquet without transforms), so call
    this with the right side as close to the read as possible; derived
    Datasets may execute to estimate, in which case prefer choosing
    the strategy explicitly."""
    try:
        est = right.size_bytes()
    except Exception:
        est = None
    if est is not None and est <= BROADCAST_LIMIT_BYTES \
            and how in ("inner", "left"):
        # outer/right joins always take the bucketed path: the
        # broadcast merge runs per left batch and cannot emit
        # right-only rows exactly once
        return broadcast_join(left, right, on, how=how, suffixes=suffixes)
    return bucketed_hash_join(left, right, on, num_buckets=num_buckets,
                              suffixes=suffixes, how=how,
                              left_cols=left_cols, right_cols=right_cols)


def skew_join(left, right, on: str, *,
              how: str = "inner",
              num_buckets: int = 32,
              suffixes: tuple[str, str] = ("_l", "_r"),
              left_cols: list[str] | None = None,
              right_cols: list[str] | None = None,
              sample_rows: int = 100_000,
              hot_share: float = 0.01,
              hot_keys: list | None = None):
    """Skew-defused join: HOT keys take the broadcast path — their
    right-side rows ship to every task instead of hashing into one
    overloaded bucket — while the cold remainder runs the normal
    bucketed hash join; the two outputs union. Because the split
    partitions rows BY KEY, the result equals the plain join for any
    split choice (all ``how`` modes included), so hot-key detection
    only needs to be cheap, not exact.

    Detection (when ``hot_keys`` is not passed): a bounded
    ``limit(sample_rows)`` scan of the left side's key column; keys
    holding more than ``hot_share`` of the sample are hot. The limit
    sample is first-blocks-biased — fine for the mirror/celebrity-key
    shapes skew comes from (they dominate every prefix); pass
    ``hot_keys`` explicitly when the hot set is known upstream.

    ``left_cols``/``right_cols`` are REQUIRED (both branches must emit
    one canonical column order for the union).

    Execution shape: the right side is ``materialize()``d once (it is
    split twice and its hot half driver-materialized anyway; a join's
    small side is small by assumption). The LEFT side's plan executes
    twice — once per split branch — deliberately: pinning a crawl-scale
    left with materialize() would trade two streaming scans for object
    store residency of the whole input, the wrong trade at 100 TB. The
    detection sample is a bounded ``limit()`` scan (early-exit read)."""
    if left_cols is None or right_cols is None:
        raise ValueError("skew_join requires left_cols and right_cols")
    if how not in ("inner", "left"):
        # the hot branch merges per left batch, so right-only rows
        # would be emitted per-batch (outer) — use bucketed_hash_join
        raise ValueError("skew_join supports how='inner'/'left' only")
    if hot_keys is None:
        sample = (left.select_columns([on]).limit(sample_rows)
                  .to_pandas()[on])
        counts = sample.value_counts()
        hot_keys = counts[counts > max(1, int(len(sample) * hot_share))] \
            .index.tolist()
    right = right.materialize()  # consumed by two splits below
    out_cols = [on] + list(left_cols) + list(right_cols)
    if not hot_keys:
        return bucketed_hash_join(
            left, right, on, num_buckets=num_buckets, suffixes=suffixes,
            how=how, left_cols=left_cols, right_cols=right_cols,
        ).map_batches(lambda t: t.select(out_cols), batch_format="pyarrow")
    hot_arr = pa.array(sorted(hot_keys))

    def split(ds, want_hot: bool):
        def fn(t: pa.Table) -> pa.Table:
            m = pc.is_in(t[on], value_set=hot_arr)
            return t.filter(m if want_hot else pc.invert(m))
        return ds.map_batches(fn, batch_format="pyarrow")

    # hot right side is small by construction (few keys): one driver
    # materialization, then ray.put inside broadcast_join
    right_hot = split(right, True).to_pandas()
    hot_joined = broadcast_join(split(left, True), right_hot, on,
                                how=how, suffixes=suffixes)
    cold_joined = bucketed_hash_join(
        split(left, False), split(right, False), on,
        num_buckets=num_buckets, suffixes=suffixes, how=how,
        left_cols=left_cols, right_cols=right_cols)
    canon = lambda t: t.select(out_cols)  # noqa: E731 — one union schema
    return (hot_joined.map_batches(canon, batch_format="pyarrow")
            .union(cold_joined.map_batches(canon, batch_format="pyarrow")))


def asof_join(left, right, *, key: str, left_ts: str, right_ts: str,
              value_cols: list[str], num_buckets: int = 32,
              direction: str = "backward", tolerance=None):
    """For each left row, the nearest right row with the same ``key``:
    ``direction="backward"`` (default) takes the latest ``right_ts`` ≤
    ``left_ts``; ``"forward"`` the earliest ``right_ts`` ≥ ``left_ts``.
    ``tolerance`` (``pd.Timedelta`` for datetime keys) bounds the gap —
    a match farther than that is treated as absent. Right value columns
    are appended, null when no match. One ``cogroup`` exchange on the
    key; per bucket ``pd.merge_asof`` over ts-sorted index frames, whose
    row positions ``take`` the columns from the Arrow sides."""

    def frame(t: pa.Table, ts_col: str, ts_type, pos: str) -> pd.DataFrame:
        return pd.DataFrame({
            "_ts": t[ts_col].cast(ts_type).to_pandas(),
            key: t[key].to_pandas(),
            pos: np.arange(t.num_rows)}).sort_values(["_ts", key],
                                                     kind="stable")

    def join_bucket(lt: pa.Table | None, rt: pa.Table | None):
        if lt is None:
            return pa.table({})
        ts_type = lt.schema.field(left_ts).type
        if rt is None:
            rt = _absent(lt, [key], value_cols).append_column(
                right_ts, pa.array([], ts_type))
        m = pd.merge_asof(
            frame(lt, left_ts, ts_type, "_li"),
            frame(rt, right_ts, ts_type, "_ri"), on="_ts", by=key,
            direction=direction, allow_exact_matches=True,
            tolerance=tolerance)
        out = lt.take(_take_idx(m["_li"]))
        vals = rt.select(value_cols).take(_take_idx(m["_ri"]))
        names = [key] + [c for c in lt.column_names if c != key]
        return pa.table(out.select(names).columns + vals.columns,
                        names=names + value_cols)

    return cogroup([(left, key), (right, key)], join_bucket,
                   num_buckets=num_buckets)


def _us(col) -> np.ndarray:
    """µs int64 of a datetime column of any unit, or of an integer
    column taken as µs already."""
    arr = np.asarray(col.to_numpy(zero_copy_only=False))
    if arr.dtype.kind == "M":
        return arr.astype("datetime64[us]").astype(np.int64)
    return arr.astype(np.int64)


def _time_bucketed_count(probes, points, *, probe_span, point_ts: str,
                         id_col: str, width: int, num_buckets: int,
                         max_reps: int | None = None):
    """The range-join shape behind ``temporal_band_count`` and
    ``interval_count_join``: per probe row, the count of ``points``
    rows whose ``point_ts`` lies in the probe's inclusive ``[lo, hi]``
    (``probe_span(t) -> (lo, hi)`` in µs), as rows ``(id_col,
    _partial)`` to sum by ``id_col``.

    The time axis splits into time buckets of ``width`` µs, which map
    onto the ``cogroup`` buckets modulo ``num_buckets``. A point ships
    to its one time bucket; a probe repeats into every time bucket its
    span overlaps and counts, with two ``searchsorted`` calls over the
    bucket's sorted points, only the points of the time bucket it was
    repeated into (time buckets are disjoint ranges, so clamping the
    span to that range is enough). Probes with no match still emit a
    zero partial."""

    def route_probes(b: pa.Table):
        lo, hi = probe_span(b)
        lo_b, hi_b = lo // width, hi // width
        reps = (hi_b - lo_b + 1).astype(np.int64)
        if max_reps is not None and len(reps) and reps.max() > max_reps:
            raise ValueError(
                f"interval spans {reps.max()} buckets > max_reps="
                f"{max_reps}; raise bucket_us or broadcast the outlier")
        starts = np.cumsum(reps) - reps
        rep_idx = np.repeat(np.arange(b.num_rows), reps)
        tb = lo_b[rep_idx] + np.arange(len(rep_idx)) - starts[rep_idx]
        return pa.table({
            "_tb": pa.array(tb, pa.int64()),
            "_lo": pa.array(lo[rep_idx], pa.int64()),
            "_hi": pa.array(hi[rep_idx], pa.int64()),
            # take keeps the id column's exact type
            id_col: b[id_col].take(pa.array(rep_idx))}), tb % num_buckets

    def route_points(b: pa.Table):
        ts = _us(b[point_ts])
        return (pa.table({"_ts": pa.array(ts, pa.int64())}),
                (ts // width) % num_buckets)

    def count_bucket(pr: pa.Table | None, pt: pa.Table | None):
        if pr is None:  # no probe rows anywhere: every bucket says so
            return pa.table({id_col: pa.array([], pa.int64()),
                             "_partial": pa.array([], pa.int64())})
        ts = np.sort(pt["_ts"].to_numpy()) if pt is not None \
            else np.empty(0, np.int64)
        tb = pr["_tb"].to_numpy()
        lo = np.maximum(pr["_lo"].to_numpy(), tb * width)
        hi = np.minimum(pr["_hi"].to_numpy(), (tb + 1) * width - 1)
        n = (np.searchsorted(ts, hi, side="right")
             - np.searchsorted(ts, lo, side="left"))
        return pa.table({id_col: pr[id_col],
                         "_partial": pa.array(n, pa.int64())})

    return cogroup([(probes, route_probes), (points, route_points)],
                   count_bucket, num_buckets=num_buckets)


def temporal_band_count(left, right, *, left_ts: str, right_ts: str,
                        left_key: str, band_us: int,
                        out_col: str = "n_matches"):
    """RANGE JOIN (no equi key): for each left row, the COUNT of right
    rows with ``|right_ts - left_ts| ≤ band_us``, inclusive both ends.

    Distributed shape (``_time_bucketed_count``): time buckets of width
    ``W = 2·band`` so a probe's window overlaps ≤ 2 of them. Right rows
    shuffle once as bare µs timestamps; each left row repeats into its
    ≤ 2 overlapping time buckets; per-bucket partial counts sum in a
    final small groupby on the left key (partials are ≤ 16-byte rows —
    the event payload never shuffles).

    Partitioning assumption: one time bucket's right rows fit in a
    worker's heap — i.e. the right stream is not pathologically
    concentrated inside a single 2·band window; narrow ``band``
    (or sub-salt a hot bucket) if it is."""
    from ray.data.aggregate import Sum

    def span(b: pa.Table):
        ts = _us(b[left_ts])
        return ts - band_us, ts + band_us

    partials = _time_bucketed_count(
        left, right, probe_span=span, point_ts=right_ts, id_col=left_key,
        width=2 * band_us, num_buckets=32)
    return partials.groupby(left_key).aggregate(
        Sum("_partial", alias_name=out_col))


def interval_count_join(intervals, points, *, id_col: str, lo_col: str,
                        hi_col: str, ts_col: str, bucket_us: int,
                        out_col: str = "n_matches", max_reps: int = 256):
    """VARIABLE-WIDTH interval overlap join: for each interval row
    ``[lo, hi]`` (inclusive both ends), the COUNT of point rows with
    ``lo ≤ ts ≤ hi`` — ``temporal_band_count`` generalized from a fixed
    ±band around a probe to arbitrary per-row intervals (maintenance
    windows, sessions, ad flights).

    Distributed shape (``_time_bucketed_count``): time buckets of
    ``bucket_us``; points shuffle ONCE to their single time bucket,
    each interval repeats into every time bucket it overlaps
    (``len/W + 1`` copies — choose W near the typical interval length),
    and per-bucket partials Sum by interval id. Intervals with zero
    matches still emit (their partials are 0), so the result covers
    every interval. ``id_col`` may be any Arrow type (int, string
    window names, …) and keeps it.

    Guard: an interval spanning > ``max_reps`` time buckets raises — a
    whole-axis interval would otherwise fan out to every bucket
    (replicate such outliers via a broadcast side channel instead)."""
    from ray.data.aggregate import Sum

    partials = _time_bucketed_count(
        intervals, points,
        probe_span=lambda b: (_us(b[lo_col]), _us(b[hi_col])),
        point_ts=ts_col, id_col=id_col, width=bucket_us, num_buckets=32,
        max_reps=max_reps)
    return partials.groupby(id_col).aggregate(
        Sum("_partial", alias_name=out_col))


# ── storage-bucketed (co-located) join ────────────────────────────────

def write_bucketed(ds, key: str, out_dir: str, *, num_buckets: int = 16,
                   columns: list[str] | None = None) -> str:
    """Bucket ``ds`` by ``hash(key) % num_buckets`` and write one hive
    partition dir per bucket (``bucket=i/`` — NOT ``_bucket``: readers
    following the Hadoop convention, Ray included, treat
    underscore-prefixed paths as hidden). This is the ONE shuffle
    — paid at ingest/write time. Every later join on ``key`` between
    tables bucketed this way is bucket-local (Hive/Spark bucketed-table
    pattern): at 100 TB the fact table never re-shuffles per query."""
    def add_bucket(t: pa.Table) -> pa.Table:
        if columns is not None:
            t = t.select(columns)
        b = stable_bucket(t[key].to_numpy(zero_copy_only=False), num_buckets)
        return t.append_column("bucket", pa.array(b, pa.int64()))

    (ds.map_batches(add_bucket, batch_format="pyarrow")
       .write_parquet(out_dir, partition_cols=["bucket"]))
    return out_dir


def storage_bucketed_join(big_dir: str, small_dir: str, on: str, *,
                          num_buckets: int = 16,
                          project: list[str] | None = None):
    """Join two storage-bucketed tables with ZERO query-time shuffle:
    read the big side's bucket files (blocks never span buckets), and
    each task merges against ONLY its bucket's small-side partition —
    a local parquet read, memoized per worker process. Requires both
    sides written by ``write_bucketed`` with the same key/bucket count
    (asserted per batch)."""
    import ray.data as rd

    def merge(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        # schema seed: an empty left⋈right merge keeps empty blocks'
        # schema identical to populated ones (column names AND order)
        out = [df.head(0).drop(columns=["bucket"])
               .merge(_bucket_cache_read(small_dir, 0).head(0), on=on)]
        for bucket, g in df.groupby("bucket", sort=False):
            right = _bucket_cache_read(small_dir, int(bucket))
            out.append(g.drop(columns=["bucket"]).merge(right, on=on))
        merged = pd.concat(out, ignore_index=True)
        if project is not None:
            merged = merged[project]
        return arrow_out(merged)

    big = rd.read_parquet(big_dir)
    return big.map_batches(merge, batch_format="pyarrow")


# per-WORKER-PROCESS memo (module-level, so repeat tasks on the same
# worker reuse the deserialized small-side bucket instead of re-reading)
_BUCKET_CACHE: dict = {}


def _bucket_cache_read(small_dir: str, bucket: int) -> pd.DataFrame:
    key = (small_dir, bucket)
    df = _BUCKET_CACHE.get(key)
    if df is None:
        import pyarrow.parquet as pq

        try:
            df = pq.read_table(f"{small_dir}/bucket={bucket}").to_pandas()
        except (FileNotFoundError, OSError):
            # write_parquet(partition_cols=...) only creates directories
            # for NON-EMPTY buckets: a missing bucket is zero small-side
            # rows (zero join rows), not an error.
            df = _empty_bucket_frame(small_dir)
        _BUCKET_CACHE[key] = df
    return df


def _empty_bucket_frame(small_dir: str) -> pd.DataFrame:
    """Empty frame carrying the small side's schema, seeded from ANY
    bucket that does exist (schema is identical across buckets)."""
    key = (small_dir, "__schema__")
    df = _BUCKET_CACHE.get(key)
    if df is None:
        import glob

        import pyarrow.parquet as pq

        files = sorted(glob.glob(f"{small_dir}/bucket=*/*.parquet"))
        if not files:
            raise FileNotFoundError(
                f"no bucketed parquet under {small_dir!r} — was the "
                "small side written by write_bucketed?")
        df = pq.read_schema(files[0]).empty_table().to_pandas()
        _BUCKET_CACHE[key] = df
    return df


def snapshot_diff(old_ds, new_ds, *, key_col: str, hash_col: str = "h",
                  num_buckets: int = 32):
    """Corpus snapshot diff (CDC shape): classify every key as
    added / removed / changed between two dataset versions.

    Scale shape: each side is first reduced to payload-free
    (key, content-hash) rows — the ONLY bytes that shuffle — then one
    ``cogroup`` exchange co-locates each key's two versions and a
    vectorized outer index-join per bucket emits the changed set.
    Unchanged keys (the overwhelming majority of an incremental
    refresh) are dropped inside the bucket, never collected."""
    cols = [key_col, hash_col]

    def diff_bucket(old: pa.Table | None, new: pa.Table | None):
        old = new.schema.empty_table() if old is None else old
        new = old.schema.empty_table() if new is None else new

        def hashes(t: pa.Table, name: str) -> pd.DataFrame:
            return pd.DataFrame({name: t[hash_col].to_numpy()},
                                index=t[key_col].to_numpy())

        j = hashes(old, "h_old").join(hashes(new, "h_new"), how="outer")
        change = np.where(
            j["h_old"].isna(), "added",
            np.where(j["h_new"].isna(), "removed",
                     np.where(j["h_old"] != j["h_new"], "changed", "same")))
        keep = change != "same"
        return pa.table({
            key_col: pa.array(j.index.to_numpy()[keep],
                              old.schema.field(key_col).type),
            "change": pa.array(change[keep], pa.string())})

    return cogroup([(old_ds.select_columns(cols), key_col),
                    (new_ds.select_columns(cols), key_col)], diff_bucket,
                   num_buckets=num_buckets)
