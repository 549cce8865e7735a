"""Grouped execution: one rule per key domain.

- **Small key domain** (bounded by the schema or a fixed binning:
  event types, languages, sources, nations, flags, years, histogram
  bins): ``grouped_partials``. Each batch reduces to at most |keys|
  partial rows and the driver merges them, with no all-to-all
  exchange. An exchange would shuffle every row only to land a handful
  of groups, and when its output partitions outnumber its keys it
  emits empty blocks. Driver volume is O(batches × keys) rows.
- **Key domain that grows with the data** (users, documents, urls):
  a Ray ``groupby(key).aggregate`` exchange for algebraic aggregates,
  or ``bucketed_group_apply`` for whole-group work.

``groupby(key).map_groups`` invokes Python ONCE PER KEY — measured in
this repo at a ~0.2 scaling efficiency floor on high-cardinality keys
(BENCH/BASELINE.md; 40k one-row groups). The scalable shape is to
shuffle on ``bucket = stable_hash(key) % B`` and run ONE vectorized
pandas call per bucket: per-group work becomes pandas' C-level grouped
kernels (sort / drop_duplicates / groupby.cumsum / groupby.head), and
the Python-call count drops from O(keys) to O(B).

Partitioning assumption: every key's rows land in one bucket (hash
partitioning guarantees it); a bucket must fit in a worker's heap —
size ``num_buckets`` ≳ 4× total cores at cluster scale and salt hot
keys if one key dominates a bucket.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def arrow_out(df: pd.DataFrame):
    """pandas → Arrow block at stage boundaries.

    Ray's sort/aggregate exchange operators take a per-row python slow
    path on pandas-format blocks — measured ~5× on a 2000-group
    Aggregate in this repo (13.3 s → 3.0 s once the blocks were
    Arrow). Every helper here therefore emits Arrow even when the
    per-bucket compute is pandas — INCLUDING empty frames: Ray's
    sort-boundary sampler asserts homogeneous block types across a
    dataset, so one pandas empty among Arrow blocks aborts the
    exchange. Empty object columns become Arrow ``null`` type, which
    Ray's permissive schema promotion unifies with the non-empty
    blocks' concrete types.

    The pandas metadata blob ``from_pandas`` attaches is stripped: it
    makes the schema UNHASHABLE, which defeats Ray's schema-dedup
    early exit in every exchange and spams 'Failed to hash the
    schemas' warnings from reduce workers; nothing downstream reads
    it."""
    return pa.Table.from_pandas(df, preserve_index=False) \
        .replace_schema_metadata(None)


def _meta_free(t: pa.Table) -> pa.Table:
    """Strip schema metadata before an exchange: parquet written by
    pandas carries a ``b'pandas'`` blob that makes block schemas
    UNHASHABLE, defeating Ray's schema-dedup early exit in every
    sort/aggregate and spamming 'Failed to hash the schemas' from
    reduce workers. Zero-copy; nothing downstream reads the blob."""
    return t.replace_schema_metadata(None) if t.schema.metadata else t


def grouped_partials(ds, keys, *, sums=(), mins=(), maxes=(),
                     count: str | None = None, prep=None,
                     batch_size: int | None = None) -> pd.DataFrame:
    """Grouped sums, mins, maxes and row count of ``ds`` by ``keys``
    with no exchange: the one way to aggregate over a small key domain
    (see the module docstring).

    Each batch runs ``prep(batch) -> pa.Table`` if given, then one
    Arrow ``group_by(keys)`` taking the sum of each column in ``sums``,
    the min of each in ``mins``, the max of each in ``maxes`` (distinct
    columns: ``prep`` can copy one) and, when ``count`` names it, the
    row count. The driver orders the partials
    by content (keys, then value columns), so the result does not
    depend on block cuts or task completion order, merges them in one
    grouped sum/min/max and returns a pandas frame sorted by keys, each
    value column under its input name. Integer sums stay int64. An
    empty input returns the key and value columns with no rows."""
    import ray

    key_list = [keys] if isinstance(keys, str) else list(keys)
    specs = ([(c, "sum") for c in sums] + [(c, "min") for c in mins]
             + [(c, "max") for c in maxes])
    cols = [c for c, _ in specs] + ([count] if count else [])

    def part(t: pa.Table) -> pa.Table:
        if prep is not None:
            t = prep(t)
        g = t.group_by(key_list, use_threads=False).aggregate(
            specs + ([([], "count_all")] if count else []))
        return pa.table([g[k] for k in key_list]
                        + [g[f"{c}_{f}"] for c, f in specs]
                        + ([g["count_all"]] if count else []),
                        names=key_list + cols)

    kw = {} if batch_size is None else {"batch_size": batch_size}
    # zero-row blocks skip the UDF and keep the input's schema. Block refs
    # straight from the bundles: to_arrow_refs() may run the plan again
    # for a schema
    out = ds.map_batches(part, batch_format="pyarrow", **kw)
    parts = ray.get([ref for bundle in out.iter_internal_ref_bundles()
                     for ref, meta in bundle.blocks if meta.num_rows != 0])
    if not parts:
        return pd.DataFrame(columns=key_list + cols)
    t = pa.concat_tables(parts, promote_options="default").sort_by(
        [(c, "ascending") for c in key_list + cols])
    merge = specs + ([(count, "sum")] if count else [])
    g = t.group_by(key_list, use_threads=False).aggregate(merge)
    out = pa.table([g[k] for k in key_list]
                   + [g[f"{c}_{f}"] for c, f in merge],
                   names=key_list + cols)
    return out.sort_by([(k, "ascending") for k in key_list]).to_pandas()


def stable_bucket(values: pd.Series | np.ndarray, num_buckets: int) -> np.ndarray:
    arr = values.to_numpy() if isinstance(values, pd.Series) else values
    # one hash per integer value whatever its width, so an int32 key
    # meets its int64 equal; other types hash as Python objects
    arr = arr.astype(np.int64) if arr.dtype.kind in "iu" \
        else np.asarray(arr, dtype=object)
    return (pd.util.hash_array(arr) % num_buckets).astype("int64")


def cogroup(sides, fn, *, num_buckets: int):
    """The one two-sided exchange: route the rows of every dataset in
    ``sides`` to buckets, shuffle once, and call ``fn`` once per bucket
    with each side's rows of that bucket.

    ``sides`` lists ``(ds, by)`` pairs. ``by`` is a key column, hashed
    by ``stable_bucket``, or a function ``t -> (rows, buckets)`` that
    returns the rows to ship (a projection of ``t``, or rows repeated
    into several buckets) and each row's bucket in ``[0, num_buckets)``.

    Each side's map emits one row per bucket of its batch, empty
    buckets included: ``{_bucket: int64, _side: int8, _ipc:
    large_binary}``, where ``_ipc`` holds that bucket's rows as an
    Arrow IPC stream. All of a batch's streams go to one sink, framed
    by one offsets buffer. So the union has one schema by
    construction, the sort moves ``batches × buckets`` rows, and every
    bucket holds the schema of every side that has rows anywhere.

    ``fn(*tables)`` gets one table per side, in ``sides`` order, with
    the side's exact Arrow types: nothing passes through pandas or a
    null-padded union. A side that sent no batch at all gets ``None``:
    Ray calls no map on an empty block, so a side whose rows were all
    filtered away ships nothing, not even its schema. ``fn`` returns
    an Arrow table."""
    def pack(side: int, by):
        def fn_pack(t: pa.Table) -> pa.Table:
            t = _meta_free(t)
            if isinstance(by, str):
                b = stable_bucket(t[by].to_numpy(zero_copy_only=False),
                                  num_buckets)
            else:
                t, b = by(t)
            # one chunk per column, or every take below concatenates
            # the chunks again (a no-op when already one chunk)
            t = t.combine_chunks()
            order = np.argsort(b, kind="stable")
            ends = np.cumsum(np.bincount(b, minlength=num_buckets))
            sink = pa.BufferOutputStream()
            offsets = np.zeros(num_buckets + 1, np.int64)
            start = 0
            for i, end in enumerate(ends):
                # gather one bucket at a time: its rows are copied once
                # into a small reused buffer, not into a sorted copy of
                # the whole batch first
                with pa.ipc.new_stream(sink, t.schema) as w:
                    w.write_table(t.take(order[start:end]))
                offsets[i + 1] = sink.tell()
                start = end
            ipc = pa.Array.from_buffers(
                pa.large_binary(), num_buckets,
                [None, pa.py_buffer(offsets), sink.getvalue()])
            return pa.table({
                "_bucket": pa.array(np.arange(num_buckets), pa.int64()),
                "_side": pa.array(np.full(num_buckets, side, np.int8)),
                "_ipc": ipc})
        return fn_pack

    def run_bucket(g: pa.Table):
        parts = [[] for _ in sides]
        side_of = iter(g["_side"].to_numpy())
        for chunk in g["_ipc"].chunks:
            _, offs, data = chunk.buffers()
            offs = np.frombuffer(offs, np.int64)[
                chunk.offset:chunk.offset + len(chunk) + 1]
            for lo, hi in zip(offs[:-1], offs[1:]):
                parts[next(side_of)].append(
                    pa.ipc.open_stream(data.slice(lo, hi - lo)).read_all())
        # zero-copy; the promotion only reconciles a side whose batches
        # differ in type (a null-typed column of an all-null batch)
        return fn(*(pa.concat_tables(ts, promote_options="permissive")
                    if ts else None for ts in parts))

    packed = [ds.map_batches(pack(i, by), batch_format="pyarrow")
              for i, (ds, by) in enumerate(sides)]
    return (packed[0].union(*packed[1:]).groupby("_bucket")
            .map_groups(run_bucket, batch_format="pyarrow"))


def bucketed_group_apply(ds, keys: list[str] | str, per_bucket_fn,
                         num_buckets: int = 32):
    """Shuffle ``ds`` by hash(keys) and run ``per_bucket_fn`` (a
    VECTORIZED pandas function — it sees every group of its bucket at
    once, complete) once per bucket.

    ``per_bucket_fn(df) -> df`` must itself use pandas grouped kernels
    (``df.groupby(keys)...``), not iterate groups, for the speedup to
    be real."""
    key_list = [keys] if isinstance(keys, str) else list(keys)

    # Both boundary maps DECLARE batch_format="pyarrow": the declared
    # format of the map fused into an exchange decides the exchange's
    # block type (a pandas-declared upstream map forces the whole
    # sort/aggregate onto the pandas slow path and makes Ray emit
    # empty PANDAS partitions that poison the type-homogeneity assert,
    # even when the UDF itself returns Arrow). Per-bucket compute
    # stays pandas internally.
    def add_bucket(t: pa.Table) -> pa.Table:
        if len(key_list) == 1:
            h = stable_bucket(
                t[key_list[0]].to_numpy(zero_copy_only=False), num_buckets)
        else:
            h = np.zeros(t.num_rows, dtype=np.uint64)
            for k in key_list:  # order-sensitive combine of per-key hashes
                arr = t[k].to_numpy(zero_copy_only=False)
                if arr.dtype.kind not in "iu":
                    arr = np.asarray(arr, dtype=object)
                h = h * np.uint64(0x9E3779B97F4A7C15) + pd.util.hash_array(arr)
            h = (h % num_buckets).astype("int64")
        return _meta_free(t).append_column("_bucket", pa.array(h, pa.int64()))

    def run_bucket(g: pa.Table):
        df = g.drop_columns(["_bucket"]).to_pandas()
        return arrow_out(per_bucket_fn(df))

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(run_bucket, batch_format="pyarrow")
    )


def salted_group_agg(ds, key: str, *, sum_cols: list[str],
                     num_salts: int = 16, count_alias: str = "n"):
    """Skew-defusing two-stage aggregation for ALGEBRAIC aggregates
    (sum/count here; mean = sum/count downstream): stage 1 groups by
    ``(key, salt)`` — a hot key's rows split across ``num_salts``
    reducers instead of landing on one — stage 2 merges the ≤
    num_salts partials per key (tiny: |keys| × num_salts rows).

    Per-group functions that need the WHOLE group (median, top-k per
    key) cannot be salted; use ``bucketed_group_apply`` and size
    buckets instead."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    def add_salt(t: pa.Table) -> pa.Table:
        n = t.num_rows
        # deterministic per-row salt: low bits of a cheap row mix —
        # independent of key so a hot key spreads uniformly
        salt = (np.arange(n, dtype=np.int64) * 0x9E3779B9) % num_salts
        return t.append_column("_salt", pa.array(salt, pa.int64()))

    stage1 = (
        ds.map_batches(add_salt, batch_format="pyarrow")
        .groupby([key, "_salt"])
        .aggregate(*(Sum(c, alias_name=f"{c}_p") for c in sum_cols),
                   _count_agg(count_alias))
    )
    stage2 = (
        stage1.groupby(key)
        .aggregate(*(Sum(f"{c}_p", alias_name=c) for c in sum_cols),
                   Sum(count_alias, alias_name=count_alias))
    )
    return stage2


def _count_agg(alias: str):
    from ray.data.aggregate import Count

    return Count(alias_name=alias)


def _cumsum_dtype(ds, value_col: str):
    """Arrow dtype a pandas cumsum over ``value_col`` would produce."""
    sch = ds.schema()
    try:
        vt = dict(zip(sch.names, sch.types))[value_col]
    except (KeyError, AttributeError):
        return pa.int64()
    return pa.float64() if pa.types.is_floating(vt) else pa.int64()


def _append_null_col(ds, out_col: str, dtype) -> "object":
    """map_batches an all-null typed ``out_col`` onto ``ds`` so an
    empty dataset keeps schema parity with the populated code path."""
    def add(t: pa.Table) -> pa.Table:
        return t.append_column(out_col, pa.nulls(t.num_rows, dtype))

    return ds.map_batches(add, batch_format="pyarrow")


def _two_level_scan(ds, *, order_col: str, value_col: str, out_col: str,
                    num_buckets: int, domain, how: str, empty_dtype,
                    offsets_of, scan):
    """The classic two-level scan behind the ordered prefix ops:
    range-bucket on ``order_col`` (so bucket i holds only keys ordered
    before bucket i+1), per-bucket ``how`` ("sum" or "max") totals via a
    tiny (bucket, total) groupby, ``offsets_of(totals)`` → each bucket's
    carry-in on the driver (B scalars, not rows), then one vectorized
    ``scan(rows, offsets)`` per bucket over its rows sorted by
    ``order_col``. Rows shuffle once, carrying only (order, value) plus
    carried columns. An empty input gets an all-null ``out_col`` of
    ``empty_dtype(ds)``."""
    import ray
    from ray.data.aggregate import Max, Min, Sum

    # Pin the input ONCE: without this the upstream plan executes three
    # times (min/max aggregate, totals pass, final scan) — measured on
    # curate.py's gate→dedup→neardup chain feeding this scan.
    ds = ds.materialize()
    if domain is not None:
        lo, hi = domain
    else:
        mm = ds.aggregate(Min(order_col), Max(order_col))
        lo, hi = mm[f"min({order_col})"], mm[f"max({order_col})"]
    if lo is None or hi is None:
        # empty input → empty scan, but the out_col must still exist so
        # downstream t[out_col] reads don't KeyError on zero-row blocks
        return _append_null_col(ds, out_col, empty_dtype(ds))
    span = max(int(hi) - int(lo) + 1, 1)
    nb = min(num_buckets, span)

    def add_bucket(t: pa.Table) -> pa.Table:
        v = t[order_col].to_numpy(zero_copy_only=False).astype(np.int64)
        b = (v - int(lo)) * nb // span
        return _meta_free(t).append_column("_rbucket", pa.array(b, pa.int64()))

    withb = ds.map_batches(add_bucket, batch_format="pyarrow")

    def bucket_partial(t: pa.Table) -> pa.Table:
        b = pd.DataFrame({
            "_rbucket": t["_rbucket"].to_numpy(zero_copy_only=False),
            "total": t[value_col].to_numpy(zero_copy_only=False)})
        return arrow_out(b.groupby("_rbucket", as_index=False)
                         .agg(total=("total", how)))

    agg = Sum if how == "sum" else Max
    totals = (withb.map_batches(bucket_partial, batch_format="pyarrow")
              .groupby("_rbucket").aggregate(agg("total", alias_name="total"))
              .to_pandas().sort_values("_rbucket"))
    off_ref = ray.put(offsets_of(totals))

    def scan_bucket(t: pa.Table):
        g = t.to_pandas().sort_values(order_col)
        g[out_col] = scan(g, ray.get(off_ref))
        return arrow_out(g.drop(columns=["_rbucket"]))

    return withb.groupby("_rbucket").map_groups(scan_bucket,
                                                batch_format="pyarrow")


def ordered_prefix_sum(ds, *, order_col: str, value_col: str,
                       out_col: str = "cum", num_buckets: int = 32,
                       domain: tuple[int, int] | None = None):
    """Distributed inclusive prefix sum of ``value_col`` in
    ``order_col`` order — a SCAN, the one shape neither map_batches nor
    groupby expresses alone (each row depends on every earlier row).
    ``_two_level_scan`` does it: an exclusive prefix over the B bucket
    totals, then one sort+cumsum per bucket with its offset added.

    ``order_col`` must be numeric with distinct values (ties would make
    the scan order ambiguous). Skewed key ranges skew bucket sizes —
    acceptable for dense ids; use quantile boundaries for heavy skew.
    ``domain=(lo, hi)``: pass the order key's known inclusive range
    (e.g. a hash prefix's full space) to skip the min/max aggregate
    pass — one fewer sequential execution; the caller guarantees every
    key falls inside it.
    """
    def offsets_of(totals):
        csum = totals["total"].cumsum().shift(fill_value=0)
        return dict(zip(totals["_rbucket"], csum))

    def scan(g, offsets):
        base = offsets.get(g["_rbucket"].iloc[0], 0) if len(g) else 0
        return g[value_col].cumsum() + base

    return _two_level_scan(
        ds, order_col=order_col, value_col=value_col, out_col=out_col,
        num_buckets=num_buckets, domain=domain, how="sum",
        empty_dtype=lambda d: _cumsum_dtype(d, value_col),
        offsets_of=offsets_of, scan=scan)


def ordered_prefix_max(ds, *, order_col: str, value_col: str,
                       out_col: str = "wm", num_buckets: int = 32):
    """Distributed EXCLUSIVE prefix max of ``value_col`` in
    ``order_col`` order — the streaming-watermark shape (watermark at
    row i = max over STRICTLY earlier rows). Same two-level scan as
    ``ordered_prefix_sum``; max is associative so bucket totals
    compose the same way. Rows with no earlier row get NULL."""
    def offsets_of(totals):
        # exclusive running max over the B bucket maxima (None before any)
        offsets: dict = {}
        running = None
        for _, row in totals.iterrows():
            offsets[int(row["_rbucket"])] = running
            running = row["total"] if running is None else max(running, row["total"])
        return offsets

    def scan(g, offsets):
        base = offsets.get(int(g["_rbucket"].iloc[0])) if len(g) else None
        v = g[value_col].to_numpy()
        # exclusive cummax: shift the inclusive cummax right by one
        inc = np.maximum.accumulate(v)
        exc = np.empty(len(v), dtype="float64")
        exc[0] = np.nan
        if len(v) > 1:
            exc[1:] = inc[:-1]
        if base is not None:
            exc = np.where(np.isnan(exc), float(base),
                           np.maximum(exc, float(base)))
        return exc

    return _two_level_scan(
        ds, order_col=order_col, value_col=value_col, out_col=out_col,
        num_buckets=num_buckets, domain=None, how="max",
        # schema parity with the non-empty path (exc scan is float64)
        empty_dtype=lambda d: pa.float64(), offsets_of=offsets_of, scan=scan)
