"""Join strategies for Ray Data (SURVEY.md §2.4).

Ray 2.49 has no stable ``Dataset.join``; these are the portable
patterns (documented in the public Ray Data guidance):

- ``probe_sorted``: the one membership probe of a small sorted key
  set (a broadcast semi-join, a keyed lookup). Every caller tests
  membership through it and reads key-aligned values only under its
  ``hit`` mask, so an empty key set is safe everywhere.
- ``broadcast_join``: small side via ``ray.put`` + per-batch pandas
  merge. No shuffle. (Used by queries.join_customer_orders.)
- ``bucketed_hash_join``: both sides large — add
  ``bucket = stable_hash(key) % B`` to both sides, union them with a
  side tag, shuffle once on the bucket, then one vectorized pandas
  merge per bucket. Blocks are Arrow on both sides of the exchange,
  blob columns included: one block type per dataset is what Ray's
  exchanges assume. Partitioning assumption: every key's rows fit in
  one bucket's memory; salt hot keys into sub-buckets if not.
- ``asof_join``: per-key ordered backward join (latest right row with
  ts ≤ left ts) — bucket by key, ``pd.merge_asof`` per bucket over
  key-sorted frames.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .groups import arrow_out


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


def bucketed_hash_join(left, right, on: str, *, num_buckets: int = 32,
                       suffixes: tuple[str, str] = ("_l", "_r"),
                       how: str = "inner",
                       left_cols: list[str] | None = None,
                       right_cols: list[str] | None = None,
                       pad_schemas: tuple[dict, dict] | None = None):
    """Explicit partitioned hash join of two Datasets on one key column.

    One all-to-all (the bucket groupby over the union); the per-bucket
    merge is vectorized pandas. Column name collisions get suffixes.

    ``left_cols``/``right_cols``: each side's non-key column names. The
    per-bucket schema is otherwise inferred from the rows present —
    a bucket that happens to contain only one side would drop the other
    side's columns under outer joins. Pass them for non-inner joins.

    ``pad_schemas``: optional ``(left_non_key, right_non_key)`` dicts
    of column name → pyarrow DataType, declaring each side's non-key
    columns. When given, each side's tag map pads the OTHER side's
    columns with typed nulls and emits a canonical column order, so
    the union's bundles all share ONE schema — without this, a fused
    union whose sides interleave trips Ray's per-operator
    schema-change warning once per side transition (noisy inside
    iterative callers like min-label propagation) and defeats its
    schema-dedup fast path. Statically-known schemas only — passing
    types that disagree with the data keeps the join correct but
    brings the warning back."""

    # The union NaN-pads each side's tagged columns into the other
    # side's blocks, which COERCES integer columns to float64 — and a
    # float64 key hashes differently from the int64 it came from, so a
    # CHAINED bucketed join on this output would silently lose rows
    # (found via TPC-H Q5's orders⋈customer → ⋈lineitem chain).
    # Integerness is recorded IN the tag prefix ("l::i::x" vs
    # "l::o::x") by the per-batch tag maps themselves — calling
    # ds.schema() here would EXECUTE a lazy upstream plan just to read
    # dtypes (measured: a chained join re-ran its 4 s left-side plan as
    # a limit-1 schema probe before running it again for real).

    # Side membership is carried explicitly via column PREFIXES (not
    # inferred from all-null columns post-union, which silently drops a
    # genuine column whose values happen to be all null in a bucket):
    # each side's non-key columns are renamed "l::i::x" / "l::o::x"
    # (i = integer dtype, to restore after the NaN-pad coercion) before
    # the union and stripped after the per-bucket merge.
    # Arrow-native, pyarrow-DECLARED tag maps: the declared format of
    # the map fused into the bucket exchange decides the exchange's
    # block type — pandas-declared maps force the sort onto the pandas
    # slow path (~5x, see groups.arrow_out) and make Ray emit empty
    # pandas partitions that break block-type homogeneity.
    def _tagged_name(side: str, c: str, typ) -> str:
        return f"{side}::{'i' if pa.types.is_integer(typ) else 'o'}::{c}"

    if pad_schemas is not None:
        # canonical union schema: key, then both sides' tagged columns
        # name-sorted, each present in EVERY block (own values or
        # typed nulls)
        pad_cols = []
        for s, sch in (("l", pad_schemas[0]), ("r", pad_schemas[1])):
            pad_cols += [(s, c, t) for c, t in sorted(sch.items())]

    def tag(side: str):
        def fn(t: pa.Table) -> pa.Table:
            if pad_schemas is None:
                t = t.rename_columns(
                    [c if c == on else
                     _tagged_name(side, c, t.schema.field(c).type)
                     for c in t.column_names])
            else:
                cols = [t[on]]
                names = [on]
                for s, c, typ in pad_cols:
                    cols.append(t[c] if s == side
                                else pa.nulls(t.num_rows, typ))
                    names.append(_tagged_name(s, c, typ))
                t = pa.table(dict(zip(names, cols)))
            h = (pd.util.hash_array(t[on].to_numpy(zero_copy_only=False))
                 % num_buckets).astype("int64")
            t = t.append_column("_bucket", pa.array(h, pa.int64()))
            return t.append_column(
                "_side", pa.array([side] * t.num_rows, pa.string()))

        return fn

    both = left.map_batches(tag("l"), batch_format="pyarrow").union(
        right.map_batches(tag("r"), batch_format="pyarrow")
    )

    def join_bucket(t: pa.Table) -> pa.Table:
        # pyarrow batch_format: see groups.bucketed_group_apply
        g = t.to_pandas()
        lcols = [c for c in g.columns if c.startswith("l::")]
        rcols = [c for c in g.columns if c.startswith("r::")]
        restore = {c[6:]: "int64" for c in g.columns
                   if c.startswith(("l::i::", "r::i::"))}
        lg = g.loc[g["_side"] == "l", [on] + lcols].rename(
            columns={c: c[6:] for c in lcols})
        rg = g.loc[g["_side"] == "r", [on] + rcols].rename(
            columns={c: c[6:] for c in rcols})
        for cols, side in ((left_cols, lg), (right_cols, rg)):
            if cols:
                for c in cols:
                    if c not in side.columns:
                        side[c] = pd.Series([], dtype=object) if side.empty \
                            else pd.NA
        # a bucket is empty-result only when the join type can't emit
        # rows from the side(s) present: inner needs both, left needs
        # the left side, right needs the right, outer needs either
        if (lg.empty and rg.empty) \
                or (lg.empty and how in ("inner", "left")) \
                or (rg.empty and how in ("inner", "right")):
            return arrow_out(pd.DataFrame())
        out = lg.merge(rg, on=on, how=how, suffixes=suffixes)
        for c, dt in restore.items():
            if c in out.columns and out[c].dtype != dt and \
                    not out[c].isna().any():
                out[c] = out[c].astype(dt)
        return arrow_out(out)

    return both.groupby("_bucket").map_groups(join_bucket,
                                              batch_format="pyarrow")


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
    # pandas slow path (see bucketed_hash_join's tag note)
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
    are appended (NaN/NaT when no match). One bucket shuffle;
    per-bucket ``pd.merge_asof`` over sorted frames."""

    # side membership via column prefixes; arrow-native pyarrow-declared
    # tags (see bucketed_hash_join)
    def tag(side: str, ts_col: str):
        def fn(t: pa.Table) -> pa.Table:
            t = t.rename_columns(
                [c if c == key else f"{side}::{c}" for c in t.column_names])
            h = (pd.util.hash_array(t[key].to_numpy(zero_copy_only=False))
                 % num_buckets).astype("int64")
            t = t.append_column("_bucket", pa.array(h, pa.int64()))
            t = t.append_column(
                "_side", pa.array([side] * t.num_rows, pa.string()))
            return t.append_column("_ts", t[f"{side}::{ts_col}"])

        return fn

    both = left.map_batches(tag("l", left_ts), batch_format="pyarrow").union(
        right.map_batches(tag("r", right_ts), batch_format="pyarrow")
    )

    def join_bucket(t: pa.Table):
        g = t.to_pandas()
        lcols = [c for c in g.columns if c.startswith("l::")]
        rcols = [c for c in g.columns if c.startswith("r::")]
        lg = g.loc[g["_side"] == "l", [key, "_ts"] + lcols].rename(
            columns={c: c[3:] for c in lcols})
        rg = g.loc[g["_side"] == "r", [key, "_ts"] + rcols].rename(
            columns={c: c[3:] for c in rcols})
        if lg.empty:
            return arrow_out(pd.DataFrame())
        lg = lg.sort_values(["_ts", key], kind="stable")
        if rg.empty:
            out = lg.copy()
            for c in value_cols:
                out[c] = pd.Series([pd.NA] * len(out), index=out.index)
        else:
            rg = rg.sort_values(["_ts", key], kind="stable")
            out = pd.merge_asof(
                lg, rg[[key, "_ts"] + value_cols], on="_ts", by=key,
                direction=direction, allow_exact_matches=True,
                tolerance=tolerance,
            )
        return arrow_out(out.drop(columns=["_ts"]))

    return both.groupby("_bucket").map_groups(join_bucket,
                                              batch_format="pyarrow")


def temporal_band_count(left, right, *, left_ts: str, right_ts: str,
                        left_key: str, band_us: int,
                        out_col: str = "n_matches"):
    """RANGE JOIN (no equi key): for each left row, the COUNT of right
    rows with ``|right_ts - left_ts| ≤ band_us``, inclusive both ends.

    Distributed shape — time-bucket partitioning with probe
    replication: the time axis splits into buckets of width
    ``W = 2·band`` so a probe's window overlaps ≤ 2 buckets. Right
    rows shuffle once as (bucket, ts µs) pairs; each left row is
    REPLICATED to its ≤ 2 overlapping buckets; per bucket, right
    timestamps sort once and every probe counts matches with two
    vectorized ``searchsorted`` calls. Per-bucket partial counts sum
    in a final small groupby on the left key (partials are ≤ 16-byte
    rows — the event payload never shuffles).

    Partitioning assumption: one time bucket's right rows fit in a
    worker's heap — i.e. the right stream is not pathologically
    concentrated inside a single 2·band window; narrow ``band``
    (or sub-salt a hot bucket) if it is."""
    from ray.data.aggregate import Sum

    width = 2 * band_us

    def _us(col) -> np.ndarray:
        # µs int64 regardless of the column's datetime unit (ns vs us)
        arr = col.to_numpy(zero_copy_only=False)
        return np.asarray(arr, dtype="datetime64[us]").astype(np.int64)

    # pyarrow-declared prep maps (see bucketed_hash_join's tag note)
    def prep_right(b: pa.Table) -> pa.Table:
        ts = _us(b[right_ts])
        return pa.table({
            "_bucket": pa.array(ts // width, pa.int64()),
            "_side": pa.array(np.repeat(np.int8(1), len(ts)), pa.int8()),
            "_ts": pa.array(ts, pa.int64()),
            left_key: pa.array(np.zeros(len(ts), dtype=np.int64), pa.int64()),
        })

    def prep_left(b: pa.Table) -> pa.Table:
        ts = _us(b[left_ts])
        keys = b[left_key].to_numpy(zero_copy_only=False)
        lo_b = (ts - band_us) // width
        hi_b = (ts + band_us) // width
        reps = (1 + (hi_b != lo_b)).astype(np.int64)
        buckets = np.empty(int(reps.sum()), dtype=np.int64)
        # first replica at lo bucket, optional second at hi bucket
        first = np.cumsum(reps) - reps
        buckets[first] = lo_b
        second = first[reps == 2] + 1
        buckets[second] = hi_b[reps == 2]
        return pa.table({
            "_bucket": pa.array(buckets, pa.int64()),
            "_side": pa.array(np.repeat(np.int8(0), len(buckets)), pa.int8()),
            "_ts": pa.array(np.repeat(ts, reps), pa.int64()),
            left_key: pa.array(np.repeat(keys, reps)),
        })

    both = left.map_batches(prep_left, batch_format="pyarrow").union(
        right.map_batches(prep_right, batch_format="pyarrow"))

    def count_bucket(t: pa.Table):
        g = t.to_pandas()
        probes = g[g["_side"] == 0]
        if probes.empty:
            return arrow_out(
                pd.DataFrame({left_key: pd.Series([], dtype="int64"),
                              "_partial": pd.Series([], dtype="int64")}))
        rts = np.sort(g.loc[g["_side"] == 1, "_ts"].to_numpy())
        # count right rows of THIS bucket only — the probe's replica in
        # its other overlapping bucket counts that bucket's (disjoint)
        # right rows, and the final Sum merges the partials
        bucket = int(g["_bucket"].iloc[0])
        pts = probes["_ts"].to_numpy()
        lo = np.maximum(pts - band_us, bucket * width)
        hi = np.minimum(pts + band_us, (bucket + 1) * width - 1)
        n = (np.searchsorted(rts, hi, side="right")
             - np.searchsorted(rts, lo, side="left"))
        return arrow_out(pd.DataFrame({left_key: probes[left_key].to_numpy(),
                                       "_partial": n.astype("int64")}))

    partials = both.groupby("_bucket").map_groups(
        count_bucket, batch_format="pyarrow")
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

    Distributed shape: the time axis splits into ``bucket_us`` buckets;
    points shuffle ONCE to their single bucket, each interval is
    replicated to every bucket it overlaps (``len/W + 1`` replicas —
    choose W near the typical interval length), each bucket sorts its
    points once and answers every interval with two ``searchsorted``
    calls over the CLAMPED sub-range, and per-bucket partials Sum by
    interval id. Intervals with zero matches still emit (their
    partials are 0), so the result covers every interval.

    Guard: an interval spanning > ``max_reps`` buckets raises — a
    whole-axis interval would otherwise fan out to every bucket
    (replicate such outliers via a broadcast side channel instead).

    ``id_col`` may be any Arrow type (int, string window names, …):
    the points side is padded with typed nulls matching the intervals'
    id column so the union schema always lines up."""
    from ray.data.aggregate import Sum

    # the points side never carries a real id — pad it with nulls of
    # the INTERVALS' id type so union() sees one schema regardless of
    # whether ids are int64 or string window names
    _sch = intervals.schema()
    id_type = dict(zip(_sch.names, _sch.types))[id_col]

    def _us(col) -> np.ndarray:
        arr = np.asarray(col.to_numpy(zero_copy_only=False))
        if arr.dtype.kind == "M":  # any datetime64 unit → µs int64
            return arr.astype("datetime64[us]").astype(np.int64)
        return arr.astype(np.int64)

    def prep_points(b: pa.Table) -> pa.Table:
        ts = _us(b[ts_col])
        return pa.table({
            "_bucket": pa.array(ts // bucket_us, pa.int64()),
            "_side": pa.array(np.repeat(np.int8(1), len(ts)), pa.int8()),
            "_lo": pa.array(ts, pa.int64()),
            "_hi": pa.array(np.zeros(len(ts), dtype=np.int64), pa.int64()),
            id_col: pa.nulls(len(ts), id_type),
        })

    def prep_intervals(b: pa.Table) -> pa.Table:
        lo = _us(b[lo_col])
        hi = _us(b[hi_col])
        lo_b = lo // bucket_us
        hi_b = hi // bucket_us
        reps = (hi_b - lo_b + 1).astype(np.int64)
        if len(reps) and reps.max() > max_reps:
            raise ValueError(
                f"interval spans {reps.max()} buckets > max_reps="
                f"{max_reps}; raise bucket_us or broadcast the outlier")
        starts = np.cumsum(reps) - reps
        offs = np.arange(int(reps.sum()), dtype=np.int64) \
            - np.repeat(starts, reps)
        rep_idx = np.repeat(np.arange(b.num_rows, dtype=np.int64), reps)
        return pa.table({
            "_bucket": pa.array(np.repeat(lo_b, reps) + offs, pa.int64()),
            "_side": pa.array(np.zeros(int(reps.sum()), dtype=np.int8),
                              pa.int8()),
            "_lo": pa.array(np.repeat(lo, reps), pa.int64()),
            "_hi": pa.array(np.repeat(hi, reps), pa.int64()),
            # arrow take preserves the id column's exact type
            id_col: b[id_col].take(pa.array(rep_idx)).combine_chunks(),
        })

    both = intervals.map_batches(prep_intervals,
                                 batch_format="pyarrow").union(
        points.map_batches(prep_points, batch_format="pyarrow"))

    def count_bucket(t: pa.Table):
        # stay Arrow-native: to_pandas would promote the null-padded
        # int id column to float64 and break the output schema
        side = t["_side"].to_numpy(zero_copy_only=False)
        probe_mask = side == 0
        if not probe_mask.any():
            return pa.table({id_col: pa.array([], id_type),
                             "_partial": pa.array([], pa.int64())})
        pts = np.sort(t["_lo"].to_numpy(zero_copy_only=False)[side == 1])
        bucket = int(t["_bucket"][0].as_py())
        # count THIS bucket's points only; other replicas cover the
        # rest of the interval and the final Sum merges the partials
        lo = np.maximum(t["_lo"].to_numpy(zero_copy_only=False)[probe_mask],
                        bucket * bucket_us)
        hi = np.minimum(t["_hi"].to_numpy(zero_copy_only=False)[probe_mask],
                        (bucket + 1) * bucket_us - 1)
        n = (np.searchsorted(pts, hi, side="right")
             - np.searchsorted(pts, lo, side="left"))
        ids = t[id_col].filter(pa.array(probe_mask)).combine_chunks()
        return pa.table({id_col: ids,
                         "_partial": pa.array(n.astype("int64"))})

    partials = both.groupby("_bucket").map_groups(
        count_bucket, batch_format="pyarrow")
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
    import pyarrow.compute as pc

    from .groups import stable_bucket

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
    hash-bucketed exchange co-locates each key's two versions and a
    vectorized outer index-join per bucket emits the changed set.
    Unchanged keys (the overwhelming majority of an incremental
    refresh) are dropped inside the bucket, never collected."""
    from .groups import bucketed_group_apply

    def tag(side: int):
        def fn(t: pa.Table) -> pa.Table:
            return pa.table({
                key_col: t[key_col],
                hash_col: t[hash_col],
                "_side": pa.array(
                    np.full(t.num_rows, side, np.int8), pa.int8()),
            })
        return fn

    both = old_ds.map_batches(tag(0), batch_format="pyarrow").union(
        new_ds.map_batches(tag(1), batch_format="pyarrow"))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty or key_col not in g.columns:
            # a fully-empty input dataset delivers a column-less frame
            return pd.DataFrame({key_col: pd.Series([], dtype="int64"),
                                 "change": pd.Series([], dtype="object")})
        old = g.loc[g["_side"] == 0].set_index(key_col)[hash_col]
        new = g.loc[g["_side"] == 1].set_index(key_col)[hash_col]
        j = old.to_frame("h_old").join(new.to_frame("h_new"), how="outer")
        change = np.where(
            j["h_old"].isna(), "added",
            np.where(j["h_new"].isna(), "removed",
                     np.where(j["h_old"] != j["h_new"], "changed", "same")))
        out = pd.DataFrame({key_col: j.index.to_numpy(), "change": change})
        return out[out["change"] != "same"]

    return bucketed_group_apply(both, key_col, per_bucket,
                                num_buckets=num_buckets)
