"""The query battery: every operator as a (Ray pipeline, DuckDB oracle)
pair over /root/testdata tables — the driver's correctness gate.

Conventions (driver compares row-count + schema + order-insensitive
value-hash, columns sorted by name):
- every computed column is NAMED IDENTICALLY in Ray and SQL;
- float aggregates are ``round(x, 2)`` on BOTH sides — partial-sum
  ordering differs between engines, rounding absorbs the low bits;
  pure int/int divisions are left unrounded (IEEE division is exactly
  rounded, so identical inputs give identical doubles);
- deterministic tiebreaks everywhere (explicit secondary sort keys).

Non-SQL-expressible ops (PDF/HTML extraction, MinHash/SimHash, LSH,
fingerprints, language ID) are registered without oracles → the driver
records rows-only checks.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from pdf_to_text_ray.stages.groups import arrow_out, grouped_partials
from pdf_to_text_ray.stages.joins import probe_sorted


# A Ray Data map task costs 10-15 ms of CPU across the process tree
# whatever its input (4 vCPU: an identity map over ``range(1000)``
# costs 0.04-0.08 s in 1 block, 0.16-0.19 s in 8, 0.42-0.49 s in 32),
# while decoding the whole 1.2 MB sf0.01 lineitem in-process takes
# about 8 ms — so a small read pays for its task count, not its
# bytes. Blocks therefore follow the uncompressed bytes of the column
# chunks the read decodes (footer-only metadata): one per
# _BLOCK_BYTES, 1 to 16. Two of lineitem's 11 columns are 12-26% of
# its bytes; sizing by the projection (with two exchanges turned into
# per-batch partials) cut one pinned-suite pass from 173 to 85 Ray
# tasks.
# 256 KiB rather than Ray's 1 MiB target_min_block_size: against a
# fixed 8 blocks, 256 KiB cut query_suite job CPU 38% with worker peak
# RSS within 1%; 1 MiB cut CPU further, but its busiest worker peaked
# 7% above 256 KiB's. Many-file corpus reads keep Ray's default.
_BLOCK_BYTES = 256 * 1024
_MAX_BLOCKS = 16
_BLOCKS_CACHE: dict[tuple, int] = {}


def _blocks_for(path: str, columns=None) -> int:
    key = (path, tuple(columns) if columns else None)
    b = _BLOCKS_CACHE.get(key)
    if b is None:
        import pyarrow.parquet as pq

        md = pq.ParquetFile(path).metadata
        chunks = [md.row_group(i).column(j) for i in range(md.num_row_groups)
                  for j in range(md.num_columns)]
        size = sum(c.total_uncompressed_size for c in chunks if not columns
                   or c.path_in_schema.split(".")[0] in columns)
        b = min(_MAX_BLOCKS, max(1, -(-size // _BLOCK_BYTES)))
        _BLOCKS_CACHE[key] = b
    return b


def _lineitem(sf_dir: str, columns=None):
    return _read(sf_dir, "lineitem", columns)


_SCHEMA_CACHE: dict[str, "pa.Schema"] = {}


def _clean_schema(path: str) -> "pa.Schema":
    s = _SCHEMA_CACHE.get(path)
    if s is None:
        import pyarrow.parquet as pq

        raw = pq.read_schema(path)
        s = pa.schema([raw.field(i).remove_metadata()
                       for i in range(len(raw))]).remove_metadata()
        _SCHEMA_CACHE[path] = s
    return s


def _read(sf_dir: str, name: str, columns=None):
    """Read one table as a Dataset in ``_blocks_for(path, columns)``
    blocks: the count follows the bytes of the projected columns."""
    import ray.data as rd

    from pdf_to_text_ray.stages.groups import _meta_free

    path = os.path.join(sf_dir, f"{name}.parquet")
    # the testdata parquet carries a pandas metadata blob that makes
    # block schemas unhashable — any operator consuming the raw read
    # then logs 'Failed to hash the schemas' per worker and defeats
    # Ray's schema-dedup early exit. Passing a metadata-free schema=
    # makes the READ ITSELF emit clean blocks (the fused _meta_free
    # map alone can't silence the read operator's own schema hashing);
    # the strip map stays as a belt-and-braces for file-level quirks.
    full = _clean_schema(path)
    schema = pa.schema([full.field(c) for c in columns]) \
        if columns else full
    return rd.read_parquet(
        path, columns=columns, schema=schema,
        override_num_blocks=_blocks_for(path, columns)
    ).map_batches(_meta_free, batch_format="pyarrow")


def _cache_dir(site: str, version: int, *sources: str) -> str:
    """Directory of a build-once ``/tmp`` cache derived from ``sources``:
    ``/tmp/ptt_<site>/v<version>_<md5>``, the md5 taken over the site,
    its layout version and each source's absolute path, size and
    ``st_mtime_ns``. A same-size rewrite or another directory with the
    same basename gets a fresh cache; bump ``version`` when the layout
    a site builds changes."""
    import hashlib

    h = hashlib.md5(f"{site}|v{version}".encode())
    for src in sources:
        src = os.path.abspath(src)
        st = os.stat(src)
        h.update(f"|{src}|{st.st_size}|{st.st_mtime_ns}".encode())
    return os.path.join("/tmp", f"ptt_{site}",
                        f"v{version}_{h.hexdigest()[:16]}")


def _build_once(out_dir: str, build) -> str:
    """Build ``out_dir`` in place once and return it. Without its
    ``_DONE`` marker the directory holds a crashed attempt's partial
    output (Ray parquet file names are unique per execution, so writing
    over it would duplicate rows): clear it, ``build(out_dir)``, then
    write the marker. In place rather than renamed, because some
    layouts (the Bloom index) record their files' absolute paths."""
    marker = os.path.join(out_dir, "_DONE")
    if not os.path.exists(marker):
        import shutil

        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        build(out_dir)
        with open(marker, "w") as f:
            f.write("ok")
    return out_dir


def round2(x):
    """DuckDB ``round(x, 2)`` parity: round(x*100)/100 in double with
    half-away-from-zero (verified against DuckDB 1.0 empirically) —
    pandas/pyarrow default to half-to-even, which diverges on the
    frequent ``.xx5``-scaled values in price arithmetic."""
    y = np.asarray(x, dtype=np.float64) * 100.0
    return np.copysign(np.floor(np.abs(y) + 0.5), y) / 100.0


def round6(x):
    """DuckDB ``round(x, 6)`` parity (half-away-from-zero)."""
    y = np.asarray(x, dtype=np.float64) * 1e6
    return np.copysign(np.floor(np.abs(y) + 0.5), y) / 1e6


def cents(x) -> np.ndarray:
    """DuckDB ``CAST(round(x * 100) AS BIGINT)`` parity: x·100 rounded
    half away from zero, as int64. The fixed-point money sums (Q1, Q9,
    RFM) add these, so their totals carry no float-order noise; on
    values of at most 2 decimals x·100 sits within float noise of an
    integer and no tie arises."""
    y = np.asarray(x, dtype=np.float64) * 100.0
    return np.copysign(np.floor(np.abs(y) + 0.5), y).astype(np.int64)


# ── relational ops (SURVEY.md §2.5-2.6) ───────────────────────────────

def q1_pricing_summary(sf_dir: str):
    """Grouped aggregation with vectorized pre-computation (TPC-H Q1
    shape): per-batch grouped partials, merged on the driver.

    Money sums run in EXACT fixed-point cents (int64): prices and
    discounts are 2-decimal values, so round(p·100)·round((1−d)·100)
    is an exact integer per row and the group sums carry ZERO
    float-order noise. This is not pedantry — at sf0.001 one group's
    true disc-price sum is 30158055.965000004, i.e. 5e-9 from the
    2dp rounding boundary, while both engines' parallel float sums
    wobble ~5e-6 across runs: the float formulation made this row a
    literal coin flip (observed flaking in full-registry sweeps).
    The classifier's int64 gradient quantization is the precedent.

    The (l_returnflag, l_linestatus) key has at most 6 values at any
    scale, so ``grouped_partials`` merges per-batch partials with no
    exchange. ``l_quantity`` holds integers, so its float sums are
    exact in any order."""
    keys = ["l_returnflag", "l_linestatus"]
    ds = _lineitem(sf_dir, keys + ["l_quantity", "l_extendedprice",
                                   "l_discount", "l_shipdate"])

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less_equal(t["l_shipdate"],
                                   pa.scalar(pd.Timestamp("1998-09-01"))))
        p = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        d = t["l_discount"].to_numpy(zero_copy_only=False)
        pc_ = cents(p)
        dc = cents(1.0 - d)
        return pa.table({
            "l_returnflag": t["l_returnflag"],
            "l_linestatus": t["l_linestatus"],
            "sum_qty": t["l_quantity"],
            "base_c": pa.array(pc_, pa.int64()),
            "disc_c": pa.array(pc_ * dc, pa.int64()),
        })

    out = grouped_partials(ds, keys, sums=["sum_qty", "base_c", "disc_c"],
                           count="count_order", prep=partial)
    out["avg_qty"] = round2(out["sum_qty"] / out["count_order"])
    out["sum_base_price"] = round2(out["base_c"].astype("int64")
                                   / 100.0)
    out["sum_disc_price"] = round2(out["disc_c"].astype("int64")
                                   / 10000.0)
    out["sum_qty"] = round2(out["sum_qty"])
    out["count_order"] = out["count_order"].astype("int64")
    return out[["l_returnflag", "l_linestatus", "sum_qty",
                "sum_base_price", "sum_disc_price", "avg_qty",
                "count_order"]]


Q1_SQL = """
SELECT l_returnflag, l_linestatus,
       round(sum(l_quantity), 2)       AS sum_qty,
       round(sum(CAST(round(l_extendedprice * 100) AS BIGINT))
             / 100.0, 2)               AS sum_base_price,
       round(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                 * CAST(round((1 - l_discount) * 100) AS BIGINT))
             / 10000.0, 2)             AS sum_disc_price,
       round(avg(l_quantity), 2)       AS avg_qty,
       count(*)                        AS count_order
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '1998-09-01'
GROUP BY l_returnflag, l_linestatus
"""


def top_orders(sf_dir: str):
    """Sort + limit with deterministic tiebreak."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    out = (
        ds.sort(["o_totalprice", "o_orderkey"], descending=[True, False])
        .limit(10)
        .to_pandas()
    )
    out["o_totalprice"] = round2(out["o_totalprice"])
    return out


TOP_ORDERS_SQL = """
SELECT o_orderkey, round(o_totalprice, 2) AS o_totalprice
FROM orders ORDER BY orders.o_totalprice DESC, o_orderkey LIMIT 10
"""


def filter_project_revenue(sf_dir: str):
    """Vectorized filter + computed projection (prune at the read)."""
    ds = _lineitem(sf_dir, ["l_orderkey", "l_linenumber", "l_extendedprice", "l_discount"])

    def fn(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t["l_discount"], pa.scalar(0.05)))
        rev = pa.array(round2(
            pc.multiply(t["l_extendedprice"],
                        pc.subtract(pa.scalar(1.0), t["l_discount"])).to_numpy(
                            zero_copy_only=False)), pa.float64())
        return pa.table({
            "l_orderkey": t["l_orderkey"],
            "l_linenumber": t["l_linenumber"],
            "revenue": rev,
        })

    return ds.map_batches(fn, batch_format="pyarrow")


FILTER_PROJECT_SQL = """
SELECT l_orderkey, l_linenumber,
       round(l_extendedprice * (1 - l_discount), 2) AS revenue
FROM lineitem WHERE l_discount > 0.05
"""


def dedup_events_latest(sf_dir: str):
    """Keyed last-write-wins dedup (S5/§2.6 pattern on the events log).

    Hash-bucketed: ONE vectorized sort + drop_duplicates per bucket —
    not one Python call per key (stages/groups.py rationale)."""
    from ..stages.groups import bucketed_group_apply

    ds = _read(sf_dir, "events", ["event_id", "user_id", "event_type", "ts", "value"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "event_type", "ts", "event_id"],
                          kind="stable")
        g = g.drop_duplicates(["user_id", "event_type"], keep="last")
        return pd.DataFrame({
            "user_id": g["user_id"].to_numpy(),
            "event_type": g["event_type"].to_numpy(),
            "last_ts": g["ts"].to_numpy(),
            "last_value": g["value"].to_numpy(),
        })

    return bucketed_group_apply(ds, ["user_id", "event_type"], per_bucket)


DEDUP_EVENTS_SQL = """
SELECT user_id, event_type, ts AS last_ts, value AS last_value
FROM (
  SELECT *, row_number() OVER (PARTITION BY user_id, event_type
                               ORDER BY ts DESC, event_id DESC) AS rn
  FROM events
) WHERE rn = 1
"""


def join_customer_orders(sf_dir: str):
    """Broadcast hash join: small side (customer) shipped once via
    ray.put, probed per batch — no shuffle of the big side."""
    import ray

    cust = _read(sf_dir, "customer", ["c_custkey", "c_name"]).to_pandas()
    name_map_ref = ray.put(dict(zip(cust["c_custkey"], cust["c_name"])))
    from ray.data.aggregate import Count, Sum

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    agg = (
        orders.groupby("o_custkey")
        .aggregate(
            Count(alias_name="order_count"),
            Sum("o_totalprice", alias_name="total_spent"),
        )
    )

    def attach_name(b: pd.DataFrame) -> pd.DataFrame:
        names = ray.get(name_map_ref)
        b = b.copy()
        b["c_name"] = b["o_custkey"].map(names)
        b = b[b["c_name"].notna()]
        return pd.DataFrame({
            "c_custkey": b["o_custkey"].astype("int64"),
            "c_name": b["c_name"],
            "order_count": b["order_count"].astype("int64"),
            "total_spent": round2(b["total_spent"]),
        })

    return agg.map_batches(attach_name, batch_format="pandas")


JOIN_CUSTOMER_ORDERS_SQL = """
SELECT c_custkey, c_name, count(*) AS order_count,
       round(sum(o_totalprice), 2) AS total_spent
FROM customer JOIN orders ON c_custkey = o_custkey
GROUP BY c_custkey, c_name
"""


def purchase_value_per_user(sf_dir: str):
    """Conditional aggregation (CASE WHEN shape): vectorized mask inside
    map_batches, then grouped sums."""
    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "events", ["user_id", "event_type", "value"])

    def mask(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": t["user_id"],
            "purchase_value_raw": pc.if_else(
                pc.equal(t["event_type"], pa.scalar("purchase")),
                t["value"], pa.scalar(0.0)),
        })

    out = (
        ds.map_batches(mask, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Sum("purchase_value_raw", alias_name="purchase_value"),
                   Count(alias_name="n_events"))
        .to_pandas()
    )
    out["purchase_value"] = round2(out["purchase_value"])
    out["n_events"] = out["n_events"].astype("int64")
    out["user_id"] = out["user_id"].astype("int64")
    return out


PURCHASE_VALUE_SQL = """
SELECT user_id,
       round(sum(CASE WHEN event_type = 'purchase' THEN value ELSE 0 END), 2)
         AS purchase_value,
       count(*) AS n_events
FROM events GROUP BY user_id
"""


def median_value_per_type(sf_dir: str):
    """Exact per-group median (interpolated, matching SQL median
    semantics): bucketed shuffle + pandas' grouped median kernel per
    bucket (holistic aggregate — needs all of a key's values together,
    which hash bucketing guarantees)."""
    from ..stages.groups import bucketed_group_apply

    ds = _read(sf_dir, "events", ["event_type", "value"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("event_type", sort=False, as_index=False)["value"].median()
        return pd.DataFrame({
            "event_type": out["event_type"].to_numpy(),
            "median_value": round2(out["value"]),
        })

    return bucketed_group_apply(ds, "event_type", per_bucket)


MEDIAN_SQL = """
SELECT event_type, round(median(value), 2) AS median_value
FROM events GROUP BY event_type
"""


def user_event_sequence(sf_dir: str):
    """Ordered grouped string aggregation: each user's full event-type
    sequence as a comma string (deterministic order: ts, event_id) —
    the string_agg/ARRAY_AGG shape, hash-bucketed."""
    from ..stages.groups import bucketed_group_apply

    ds = _read(sf_dir, "events", ["user_id", "event_type", "ts", "event_id"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="stable")
        out = (g.groupby("user_id", sort=False)["event_type"]
               .agg(",".join).reset_index())
        return pd.DataFrame({
            "user_id": out["user_id"].astype("int64"),
            "event_seq": out["event_type"],
        })

    return bucketed_group_apply(ds, "user_id", per_bucket)


STRING_AGG_SQL = """
SELECT user_id,
       string_agg(event_type, ',' ORDER BY ts, event_id) AS event_seq
FROM events GROUP BY user_id
"""


def doc_head_upper(sf_dir: str):
    """String-kernel projection (pc.utf8_slice_codeunits + utf8_upper —
    §2.7 scalar-function coverage with an oracle)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def fn(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t["doc_id"],
            "head": pc.utf8_upper(pc.utf8_slice_codeunits(t["text"], 0, 10)),
        })

    return ds.map_batches(fn, batch_format="pyarrow")


HEAD_UPPER_SQL = """
SELECT doc_id, upper(substr(coalesce(text,''), 1, 10)) AS head FROM documents
"""


def shuffled_lang_distribution(sf_dir: str):
    """random_shuffle + repartition are content-preserving: the grouped
    counts after a seeded shuffle must equal the unshuffled oracle."""
    ds = _read(sf_dir, "documents", ["lang"])
    ds = ds.random_shuffle(seed=7).repartition(8)
    return grouped_partials(ds, "lang", count="n_docs")


def top_events_per_user(sf_dir: str):
    """Per-key top-N (window rank): each user's 2 highest-value events,
    deterministic tiebreak (value desc, event_id asc)."""
    from ..stages.groups import bucketed_group_apply

    ds = _read(sf_dir, "events", ["user_id", "event_id", "value"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "value", "event_id"],
                          ascending=[True, False, True], kind="mergesort")
        g = g.groupby("user_id", sort=False).head(2)
        return pd.DataFrame({
            "user_id": g["user_id"].to_numpy(),
            "event_id": g["event_id"].to_numpy(),
            "value": g["value"].to_numpy(),
        })

    return bucketed_group_apply(ds, "user_id", per_bucket)


TOP_EVENTS_SQL = """
SELECT user_id, event_id, value FROM (
  SELECT user_id, event_id, value,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY value DESC, event_id) AS rn
  FROM events
) WHERE rn <= 2
"""


def event_value_stats(sf_dir: str):
    """Min/Max/Std aggregate kernels per event type (completes the Ray
    aggregate coverage beyond Sum/Mean/Count)."""
    from ray.data.aggregate import Max, Min, Std

    ds = _read(sf_dir, "events", ["event_type", "value"])
    out = (
        ds.groupby("event_type")
        .aggregate(
            Min("value", alias_name="min_value"),
            Max("value", alias_name="max_value"),
            Std("value", ddof=1, alias_name="std_value"),
        )
        .to_pandas()
    )
    out["std_value"] = round2(out["std_value"])
    return out


EVENT_STATS_SQL = """
SELECT event_type, min(value) AS min_value, max(value) AS max_value,
       round(stddev_samp(value), 2) AS std_value
FROM events GROUP BY event_type
"""


def distinct_user_event_pairs(sf_dir: str):
    """Multi-column distinct: per-batch drop_duplicates pre-reduction,
    then ONE hash-bucket exchange with a vectorized per-bucket
    drop_duplicates — not ``groupby().aggregate()``, whose sort
    aggregate walks every distinct pair group at Python speed
    (measured 16 s vs <1 s on the same exchange at sf0.1)."""
    from ..stages.groups import bucketed_group_apply

    ds = _read(sf_dir, "events", ["user_id", "event_type"])
    pre = ds.map_batches(
        lambda t: pa.Table.from_pandas(
            t.to_pandas().drop_duplicates(["user_id", "event_type"]),
            preserve_index=False),
        batch_format="pyarrow",
    )

    def dedupe(df: pd.DataFrame) -> pd.DataFrame:
        out = df.drop_duplicates(["user_id", "event_type"])
        return out.astype({"user_id": "int64"})

    return bucketed_group_apply(pre, ["user_id", "event_type"], dedupe,
                                num_buckets=16)


DISTINCT_PAIRS_SQL = "SELECT DISTINCT user_id, event_type FROM events"


def embedding_norms(sf_dir: str):
    """L2 norms over the list<float> column — zero-copy-ish Arrow path
    (the numpy batch format made Ray's block-size estimator choke on
    the ragged object column and spam the logs)."""
    from ..stages.similarity import list_column_to_matrix

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def fn(batch: pa.Table) -> pa.Table:
        mat = list_column_to_matrix(batch["embedding"])
        return pa.table({
            "vec_id": batch["vec_id"],
            "l2_norm": pa.array(round2(np.sqrt((mat * mat).sum(axis=1))),
                                pa.float64()),
        })

    return ds.map_batches(fn, batch_format="pyarrow")


EMB_NORMS_SQL = """
SELECT vec_id,
       round(sqrt(list_dot_product(embedding::DOUBLE[], embedding::DOUBLE[])), 2)
         AS l2_norm
FROM embeddings
"""


def nations_without_suppliers(sf_dir: str):
    """Broadcast ANTI-join: nations with no supplier (semi/anti pattern
    of SURVEY §2.4 — key set broadcast, filter inside map_batches; at
    scale a Bloom filter of the keys). Collected to pandas so an empty
    result still carries its schema."""
    import ray

    supp_keys = set(
        _read(sf_dir, "supplier", ["s_nationkey"]).to_pandas()["s_nationkey"]
    )
    keys_ref = ray.put(supp_keys)
    nation = _read(sf_dir, "nation", ["n_nationkey", "n_name"])

    def anti(b: pd.DataFrame) -> pd.DataFrame:
        keys = ray.get(keys_ref)
        return b[~b["n_nationkey"].isin(keys)].astype({"n_nationkey": "int32"})

    out = nation.map_batches(anti, batch_format="pandas").to_pandas()
    if out.empty:
        out = pd.DataFrame({"n_nationkey": pd.Series([], dtype="int32"),
                            "n_name": pd.Series([], dtype=object)})
    return out


ANTI_JOIN_SQL = """
SELECT n_nationkey, n_name FROM nation
WHERE n_nationkey NOT IN (SELECT s_nationkey FROM supplier)
"""


def distinct_event_types(sf_dir: str):
    vals = _read(sf_dir, "events", ["event_type"]).unique("event_type")
    return pa.table({"event_type": pa.array(sorted(vals), pa.string())})


DISTINCT_SQL = "SELECT DISTINCT event_type FROM events"


def union_nation_region_names(sf_dir: str):
    n = _read(sf_dir, "nation", ["n_name"]).map_batches(
        lambda t: pa.table({"name": t["n_name"]}), batch_format="pyarrow")
    r = _read(sf_dir, "region", ["r_name"]).map_batches(
        lambda t: pa.table({"name": t["r_name"]}), batch_format="pyarrow")
    return n.union(r)


UNION_SQL = "SELECT n_name AS name FROM nation UNION ALL SELECT r_name AS name FROM region"


def events_running_sum(sf_dir: str):
    """Ordered per-key window (streaming-shaped op): running sum of value
    by user, ordered by (ts, event_id) — the partition/order assumption
    is explicit (ray_guide 'streaming-shaped workloads')."""
    from ..stages.groups import bucketed_group_apply

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="stable")
        return pd.DataFrame({
            "event_id": g["event_id"].to_numpy(),
            "user_id": g["user_id"].to_numpy(),
            "running_value": round2(
                g.groupby("user_id", sort=False)["value"].cumsum()),
        })

    return bucketed_group_apply(ds, "user_id", per_bucket)


RUNNING_SUM_SQL = """
SELECT event_id, user_id,
       round(sum(value) OVER (PARTITION BY user_id ORDER BY ts, event_id), 2)
         AS running_value
FROM events
"""


def events_value_ewma(sf_dir: str, alpha: float = 1.0 / 3.0):
    """Per-user exponentially-weighted moving average of event values
    (streaming smoother — the stateful-op family's decaying cousin of
    the running sum). Engine side runs the y = (1-α)y + αx recurrence
    per user inside ONE bucketed shuffle — numerically stable at any
    partition length; the oracle reproduces it in closed form (valid at
    oracle scales; both sides round to 4 dp). α is 1/3 ON PURPOSE:
    with 2-dp money inputs, a terminating α like 0.3 makes the exact
    EWMA a short decimal that lands EXACTLY on rounding boundaries
    (56.63975 → the two sides' ~1e-12-apart floats round oppositely);
    a factor of 3 in the denominator never terminates, so boundary
    collisions are measure-zero."""
    from ..stages.groups import bucketed_group_apply

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="stable")
        ew = (g.groupby("user_id", sort=False)["value"]
              .transform(lambda s: s.ewm(alpha=alpha, adjust=False).mean()))
        return pd.DataFrame({
            "event_id": g["event_id"].to_numpy(),
            "user_id": g["user_id"].to_numpy(),
            "ewma_value": ew.round(4).to_numpy(),
        })

    return bucketed_group_apply(ds, "user_id", per_bucket)


# closed form of the adjust=False recurrence: with rn the 1-based row
# number per user and β = 1-α, y_rn = β^(rn-1)·x_1 + α·Σ_{j=2..rn}
# β^(rn-j)·x_j — factored as a prefix sum of x_j·α/β^j so ONE window
# sum covers every row (power-rescaling is exact enough at oracle
# partition lengths; the engine runs the recurrence instead, stable at
# any scale). β is spelled (1.0 - 1.0/3.0), matching the engine's
# pandas ewm internals to the ulp — 2.0/3.0 rounds differently.
EWMA_SQL = """
WITH t AS (
  SELECT event_id, user_id, value,
         row_number() OVER w AS rn,
         CASE WHEN row_number() OVER w = 1 THEN 0.0
              ELSE value * (1.0/3.0) / pow(1.0 - 1.0/3.0, row_number() OVER w)
         END AS term,
         first_value(value) OVER w AS x1
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
)
SELECT event_id, user_id,
       round(pow(1.0 - 1.0/3.0, rn) * (x1 / (1.0 - 1.0/3.0) +
             sum(term) OVER (PARTITION BY user_id ORDER BY rn)), 4)
         AS ewma_value
FROM t
"""


def _copurchase_pair_stream(sf_dir: str):
    """Part co-purchase edge stream: every intra-order (u < v) part
    pair, enumerated per order-hash bucket with NO python-per-order
    loop (index arithmetic over the sorted bucket). Pairs may repeat
    across orders — consumers dedupe if they need the simple graph."""
    from ..stages.groups import bucketed_group_apply

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def pairs_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # all intra-order part pairs with NO python-per-order loop:
        # sort + dedupe, then enumerate every (i < j) pair by index
        # arithmetic — each within-order position j contributes j
        # pairs (one per earlier position), so repeating row indices
        # by their position and offsetting a global arange yields the
        # (ii, jj) pair indices for ALL orders in one shot.
        empty = pd.DataFrame({"u": pd.Series([], dtype="int64"),
                              "v": pd.Series([], dtype="int64")})
        if not len(g):
            return empty
        d = (g.drop_duplicates(["l_orderkey", "l_partkey"])
             .sort_values(["l_orderkey", "l_partkey"], kind="mergesort"))
        order = d["l_orderkey"].to_numpy()
        parts = d["l_partkey"].to_numpy()
        n = len(order)
        starts = np.empty(n, dtype=np.int64)  # group start per row
        new = np.empty(n, dtype=bool)
        new[0] = True
        np.not_equal(order[1:], order[:-1], out=new[1:])
        starts[new] = np.flatnonzero(new)
        np.maximum.accumulate(np.where(new, starts, 0), out=starts)
        pos = np.arange(n, dtype=np.int64) - starts  # 0-based in group
        m = int(pos.sum())
        if m == 0:
            return empty
        jj = np.repeat(np.arange(n, dtype=np.int64), pos)
        cum = np.concatenate(([0], np.cumsum(pos)[:-1]))
        ii = np.arange(m, dtype=np.int64) - np.repeat(cum, pos) \
            + np.repeat(starts, pos)
        return pd.DataFrame({"u": parts[ii].astype("int64"),
                             "v": parts[jj].astype("int64")})

    return bucketed_group_apply(ds, "l_orderkey", pairs_bucket)


def copurchase_triangles(sf_dir: str):
    """Exact triangle count over the part co-purchase graph (parts
    sharing an order are adjacent) — graph analytics beyond the
    broadcast-vector family (pagerank/HITS): degree-ordered-orientation
    triangle counting, every shuffle a payload-free int-pair exchange
    (stages/graph.triangle_count)."""
    from ..stages.graph import triangle_count

    return triangle_count(_copurchase_pair_stream(sf_dir))


TRIANGLES_SQL = """
WITH items AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
e AS (
  SELECT DISTINCT a.l_partkey AS u, b.l_partkey AS v
  FROM items a JOIN items b
    ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
)
SELECT count(*)::BIGINT AS n_triangles
FROM e e1
JOIN e e2 ON e2.u = e1.v
JOIN e e3 ON e3.u = e1.u AND e3.v = e2.v
"""


def bpe_learn_merges(sf_dir: str):
    """Tokenizer training: learn a BPE merge table from the corpus
    (Sennrich et al. 2016) — one distributed word-count, then per-round
    pair-count partials over the (small) vocab table. Oracle: the
    fixed-depth merge chain unrolls to SQL (one windowed
    pair-count + argmax + greedy left-to-right apply per round,
    _bpe_sql below), so the driver hash-checks the full merge table."""
    from ..stages.bpe import learn_merges

    ds = _read(sf_dir, "documents", ["text"])
    return learn_merges(ds, n_merges=8)


def _bpe_sql(n_merges: int = 8, output: str = "merges") -> str:
    """Unrolled DuckDB replay of stages/bpe.py::learn_merges.

    Each round k: pair counts over adjacent symbols (lead() per word),
    deterministic argmax (count desc, then lexicographic), then the
    greedy LEFT-TO-RIGHT merge application. Greediness is the subtle
    part — for a run of identical symbols the paper merges pairs
    leftmost-first, which plain string replace cannot express — so
    candidate positions are grouped into maximal consecutive chains
    (gaps-and-islands) and only odd chain offsets merge, exactly
    _merge_sym's scan. A round whose best pair count is < 2 produces
    an empty winner row, applies no merge, and every later round then
    reproduces the same empty winner — the SQL analogue of the
    Python loop's break."""
    parts = ["""
WITH words AS MATERIALIZED (
  SELECT w AS word, count(*)::BIGINT AS n
  FROM (SELECT unnest(regexp_split_to_array(lower(text), '\\s+')) AS w
        FROM documents)
  WHERE w <> '' GROUP BY w),
r0 AS MATERIALIZED (
  SELECT word AS wid, n,
         generate_subscripts(syms, 1) AS pos, unnest(syms) AS sym
  FROM (SELECT word, n,
               list_append(string_split(word, ''), '</w>') AS syms
        FROM words))"""]
    for k in range(n_merges):
        parts.append(f""",
m{k} AS MATERIALIZED (
  SELECT l AS "left", r AS "right", sum(n)::BIGINT AS c FROM (
    SELECT sym AS l,
           lead(sym) OVER (PARTITION BY wid ORDER BY pos) AS r,
           n
    FROM r{k}) p
  WHERE r IS NOT NULL
  GROUP BY l, r HAVING sum(n) >= 2
  ORDER BY sum(n) DESC, l, r LIMIT 1),
a{k} AS MATERIALIZED (
  SELECT wid, n, pos, sym,
         CASE WHEN sym = (SELECT "left" FROM m{k})
               AND lead(sym) OVER (PARTITION BY wid ORDER BY pos)
                   = (SELECT "right" FROM m{k})
              THEN 1 ELSE 0 END AS cand
  FROM r{k}),
c{k} AS MATERIALIZED (
  SELECT wid, pos
  FROM (SELECT wid, pos,
               row_number() OVER (PARTITION BY wid, grp
                                  ORDER BY pos) AS chain_off
        FROM (SELECT wid, pos,
                     pos - row_number() OVER (PARTITION BY wid
                                              ORDER BY pos) AS grp
              FROM a{k} WHERE cand = 1))
  WHERE chain_off % 2 = 1),
r{k + 1} AS MATERIALIZED (
  SELECT wid, n,
         row_number() OVER (PARTITION BY wid ORDER BY pos) AS pos,
         sym
  FROM (SELECT r.wid, r.n, r.pos,
               CASE WHEN s.pos IS NOT NULL
                    THEN (SELECT "left" || "right" FROM m{k})
                    ELSE r.sym END AS sym,
               CASE WHEN d.pos IS NOT NULL THEN 1 ELSE 0 END AS dropped
        FROM a{k} r
        LEFT JOIN c{k} s ON s.wid = r.wid AND s.pos = r.pos
        LEFT JOIN c{k} d ON d.wid = r.wid AND d.pos + 1 = r.pos)
  WHERE dropped = 0)""")
    if output == "encode":
        # r{n} is the vocab AFTER every learned merge — its per-word
        # row count is exactly apply_merges_to_word's token count, so
        # per-doc totals are one join away (empty docs keep 0).
        parts.append(f""",
wsyms AS (SELECT wid, count(*)::BIGINT AS n_sym
          FROM r{n_merges} GROUP BY wid),
docw AS (
  SELECT doc_id, w, count(*)::BIGINT AS k
  FROM (SELECT doc_id,
               unnest(regexp_split_to_array(lower(text), '\\s+')) AS w
        FROM documents)
  WHERE w <> '' GROUP BY doc_id, w)
SELECT d.doc_id,
       coalesce(t.n, 0)::BIGINT AS n_bpe_tokens
FROM documents d
LEFT JOIN (SELECT doc_id, sum(k * n_sym) AS n
           FROM docw JOIN wsyms ON wsyms.wid = docw.w
           GROUP BY doc_id) t USING (doc_id)""")
        return "".join(parts)
    unions = "\nUNION ALL ".join(
        f'SELECT {k} AS merge_rank, "left", "right", c AS pair_count '
        f"FROM m{k}" for k in range(n_merges))
    parts.append(f"""
SELECT merge_rank::BIGINT AS merge_rank, "left", "right",
       pair_count::BIGINT AS pair_count
FROM ({unions}) ORDER BY merge_rank""")
    return "".join(parts)


def bpe_encode_docs(sf_dir: str):
    """Tokenizer SERVING: apply the learned merge table corpus-wide —
    merges broadcast once, per-batch word-memoized encode, token count
    per doc (stages/bpe.py::bpe_token_counts). rows-only: greedy
    merge-order tokenization is not SQL-expressible; the stage is
    pinned against the local reference encoder in tests/test_bpe.py."""
    from ..stages.bpe import bpe_token_counts, learn_merges

    train = _read(sf_dir, "documents", ["text"])
    merges = [tuple(r) for r in learn_merges(train, n_merges=8)
              [["left", "right"]].itertuples(index=False)]
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return bpe_token_counts(ds, merges)


def event_value_histogram(sf_dir: str, bins: int = 20):
    """Equi-width histogram of event values: pass 1 is a tiny global
    min/max aggregate, pass 2 emits per-batch nonzero bincount partials
    (≤ ``bins`` rows per block) merged by ONE bins-sized groupby — the
    values themselves never shuffle. The bin expression is the same
    IEEE op sequence on both sides (subtract → divide → scale → floor),
    so edge rows bin identically."""
    import ray.data.aggregate as ragg

    ds = _read(sf_dir, "events", ["value"])
    mm = ds.aggregate(ragg.Min("value"), ragg.Max("value"))
    mn, mx = float(mm["min(value)"]), float(mm["max(value)"])

    def binned(t: pa.Table) -> pa.Table:
        v = t["value"].to_numpy(zero_copy_only=False)
        v = v[~np.isnan(v)]
        if mx > mn:
            b = np.minimum(np.floor((v - mn) / (mx - mn) * float(bins)),
                           bins - 1).astype("int64")
        else:
            b = np.zeros(len(v), dtype="int64")
        return pa.table({"bin": b})

    return grouped_partials(ds, "bin", count="n_events", prep=binned)


HISTOGRAM_SQL = """
WITH mm AS (SELECT min(value) AS mn, max(value) AS mx FROM events),
b AS (
  SELECT CASE WHEN mx > mn
              THEN least(floor((value - mn) / (mx - mn) * 20.0), 19.0)
              ELSE 0.0 END::BIGINT AS bin
  FROM events, mm WHERE value IS NOT NULL
)
SELECT bin, count(*) AS n_events FROM b GROUP BY bin
"""


def point_lookup_event(sf_dir: str):
    """S5 parity (GET /file/:key → keyed point lookup, main.ts:266-287)."""
    ds = _read(sf_dir, "events")
    return ds.map_batches(
        lambda t: t.filter(pc.equal(t["event_id"], pa.scalar(42))),
        batch_format="pyarrow",
    )


POINT_LOOKUP_SQL = "SELECT * FROM events WHERE event_id = 42"


def sessionize_events(sf_dir: str, gap_minutes: int = 30):
    """Session counting per user (gap > 30 min ⇒ new session)."""
    from ..stages.groups import bucketed_group_apply

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id"])
    gap_us = gap_minutes * 60 * 1_000_000

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="stable")
        gaps = g.groupby("user_id", sort=False)["ts"].diff()
        new_session = (gaps.dt.total_seconds() * 1_000_000 > gap_us)
        out = (
            g.assign(_new=new_session)
            .groupby("user_id", sort=False, as_index=False)["_new"].sum()
        )
        return pd.DataFrame({
            "user_id": out["user_id"].astype("int64"),
            "n_sessions": (out["_new"] + 1).astype("int64"),
        })

    return bucketed_group_apply(ds, "user_id", per_bucket)


SESSIONIZE_SQL = """
SELECT user_id,
       (1 + sum(CASE WHEN gap_us > 1800000000 THEN 1 ELSE 0 END))::BIGINT AS n_sessions
FROM (
  SELECT user_id,
         epoch_us(ts) - lag(epoch_us(ts)) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS gap_us
  FROM events
) GROUP BY user_id
"""


def events_watermark_late(sf_dir: str, delay_minutes: int = 10):
    """Streaming late-data accounting (§2.8): watermark at arrival i =
    max event-time over STRICTLY earlier arrivals (arrival order =
    event_id) minus the allowed delay; an event is late iff its
    event-time is below the watermark. The exclusive prefix max runs
    as the two-level ordered scan (groups.ordered_prefix_max) — rows
    shuffle once by arrival-order range, nothing serial. Output:
    per-type late counts."""
    from ..stages.groups import ordered_prefix_max

    ds = _read(sf_dir, "events", ["event_id", "event_type", "ts"])
    delay_us = delay_minutes * 60 * 1_000_000

    def to_us(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": t["event_id"],
            "event_type": t["event_type"],
            "ts_us": pc.cast(t["ts"], pa.int64()),
        })

    scanned = ordered_prefix_max(
        ds.map_batches(to_us, batch_format="pyarrow"),
        order_col="event_id", value_col="ts_us", out_col="wm")

    def flag(t: pa.Table) -> pa.Table:
        wm = t["wm"].to_numpy(zero_copy_only=False)
        ts = t["ts_us"].to_numpy(zero_copy_only=False).astype(np.float64)
        late = (~np.isnan(wm)) & (ts < wm - delay_us)
        return pa.table({"event_type": t["event_type"],
                         "n_late": pa.array(late.astype(np.int64))})

    return grouped_partials(scanned, "event_type", sums=["n_late"],
                            count="n", prep=flag)


WATERMARK_LATE_SQL = """
SELECT event_type, count(*) AS n,
       sum(CASE WHEN late THEN 1 ELSE 0 END)::BIGINT AS n_late
FROM (
  SELECT event_type,
         epoch_us(ts) < max(epoch_us(ts)) OVER (ORDER BY event_id
             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
             - 600000000 AS late
  FROM events)
GROUP BY event_type
"""


def source_epoch_plan(sf_dir: str, *, alpha: float = 0.5,
                      budget_tokens: int = 1_000_000):
    """Temperature-based mixture plan (the GPT-3/PaLM data-mixing
    recipe): per-source sampling weight ∝ share^alpha (alpha < 1
    upweights small sources), then epochs = tokens the plan draws from
    a source / tokens it has. One grouped token count; the plan math
    runs on the SMALL per-source frame."""
    ds = _read(sf_dir, "documents", ["source", "text"])

    def toks(t: pa.Table) -> pa.Table:
        n = np.asarray([len((s or "").split()) for s in
                        t["text"].to_pylist()], dtype=np.int64)
        return pa.table({"source": t["source"], "n_tokens": pa.array(n)})

    agg = grouped_partials(ds, "source", sums=["n_tokens"], count="n_docs",
                           prep=toks)
    share = agg["n_tokens"] / agg["n_tokens"].sum()
    w = share ** alpha
    w = w / w.sum()
    agg["weight"] = round2(w * 100.0)         # percent, rounded
    agg["epochs"] = round2(budget_tokens * w / agg["n_tokens"])
    return agg


SOURCE_EPOCH_SQL = """
WITH tok AS (
  SELECT source,
         sum(length(list_filter(string_split_regex(coalesce(text, ''),
                                                   '\\s+'), x -> x <> '')))
           ::BIGINT AS n_tokens,
         count(*) AS n_docs
  FROM documents GROUP BY source
),
w AS (SELECT *, pow(n_tokens / (SELECT sum(n_tokens) FROM tok), 0.5) AS rw
      FROM tok)
SELECT source, n_tokens, n_docs,
       round(rw / (SELECT sum(rw) FROM w) * 100, 2) AS weight,
       round(1000000.0 * rw / (SELECT sum(rw) FROM w) / n_tokens, 2)
         AS epochs
FROM w
"""


def sessionize_events_stateful(sf_dir: str):
    """Incremental keyed-state sessionization via the raw-actor escape
    hatch (stages/stateful.py) — same semantics as sessionize_events,
    verified against the same SQL oracle."""
    from ..stages.stateful import stateful_sessionize

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id"])
    return stateful_sessionize(ds, num_actors=4)


def join_orders_lineitem(sf_dir: str):
    """Both-sides-large bucketed hash join (stages/joins.py): lineitem ⋈
    orders on the order key — one bucket shuffle, vectorized per-bucket
    merge."""
    from ..stages.joins import bucketed_hash_join

    li = _lineitem(sf_dir, ["l_orderkey", "l_linenumber", "l_extendedprice", "l_discount"])
    li = li.map_batches(
        lambda t: pa.table({
            "orderkey": t["l_orderkey"],
            "l_linenumber": t["l_linenumber"],
            "revenue": pa.array(round2(
                pc.multiply(t["l_extendedprice"],
                            pc.subtract(pa.scalar(1.0), t["l_discount"])).to_numpy(
                                zero_copy_only=False)), pa.float64()),
        }),
        batch_format="pyarrow",
    )
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"]).map_batches(
        lambda t: pa.table({"orderkey": t["o_orderkey"],
                            "o_orderpriority": t["o_orderpriority"]}),
        batch_format="pyarrow",
    )
    return bucketed_hash_join(li, orders, on="orderkey")


JOIN_ORDERS_LINEITEM_SQL = """
SELECT l_orderkey AS orderkey, l_linenumber,
       round(l_extendedprice * (1 - l_discount), 2) AS revenue,
       o_orderpriority
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
"""


def asof_prev_view(sf_dir: str):
    """As-of join (stages/joins.py): for each 'purchase' event, the
    latest prior 'view' event of the same user (backward, inner)."""
    from ..stages.joins import asof_join

    ev = _read(sf_dir, "events", ["event_id", "user_id", "event_type", "ts"])
    left = ev.map_batches(
        lambda t: t.filter(pc.equal(t["event_type"], "purchase")).select(
            ["event_id", "user_id", "ts"]),
        batch_format="pyarrow",
    )
    right = ev.map_batches(
        lambda t: t.filter(pc.equal(t["event_type"], "view")).select(
            ["event_id", "user_id", "ts"]).rename_columns(
            ["prev_event_id", "user_id", "ts"]),
        batch_format="pyarrow",
    )
    out = asof_join(left, right, key="user_id", left_ts="ts", right_ts="ts",
                    value_cols=["prev_event_id"])
    return out.map_batches(
        lambda t: t.filter(pc.is_valid(t["prev_event_id"])).select(
            ["event_id", "user_id", "prev_event_id"]),
        batch_format="pyarrow",
    )


ASOF_SQL = """
SELECT l.event_id, l.user_id, r.event_id AS prev_event_id
FROM (SELECT * FROM events WHERE event_type = 'purchase') l
ASOF JOIN (SELECT * FROM events WHERE event_type = 'view') r
  ON l.user_id = r.user_id AND r.ts <= l.ts
"""


def purchase_views_band_join(sf_dir: str):
    """RANGE join without an equi key (stages/joins.py
    ``temporal_band_count``): for each purchase event, the number of
    view events — by ANY user — within ±60 s. Time-bucket
    partitioning with ≤2-way probe replication; payload never
    shuffles."""
    from ..stages.joins import temporal_band_count

    ev = _read(sf_dir, "events", ["event_id", "ts", "event_type"])
    purchases = ev.map_batches(
        lambda t: t.filter(pc.equal(t["event_type"], "purchase")).select(
            ["event_id", "ts"]),
        batch_format="pyarrow",
    )
    views = ev.map_batches(
        lambda t: t.filter(pc.equal(t["event_type"], "view")).select(["ts"]),
        batch_format="pyarrow",
    )
    return temporal_band_count(purchases, views, left_ts="ts",
                               right_ts="ts", left_key="event_id",
                               band_us=60_000_000, out_col="n_views_60s")


BAND_JOIN_SQL = """
SELECT p.event_id, count(v.ts)::BIGINT AS n_views_60s
FROM (SELECT event_id, ts FROM events WHERE event_type = 'purchase') p
LEFT JOIN (SELECT ts FROM events WHERE event_type = 'view') v
  ON v.ts >= p.ts - INTERVAL 60 SECOND
 AND v.ts <= p.ts + INTERVAL 60 SECOND
GROUP BY p.event_id
"""


def supplier_count_per_nation(sf_dir: str):
    """LEFT OUTER bucketed hash join: every nation with its supplier
    count, zero included (exercises joins.py how='left' with empty
    right sides in some buckets)."""
    from ..stages.joins import bucketed_hash_join

    nation = _read(sf_dir, "nation", ["n_nationkey", "n_name"]).map_batches(
        lambda t: pa.table({"nkey": t["n_nationkey"], "n_name": t["n_name"]}),
        batch_format="pyarrow")
    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]).map_batches(
        lambda t: pa.table({"nkey": t["s_nationkey"], "s_suppkey": t["s_suppkey"]}),
        batch_format="pyarrow")
    joined = bucketed_hash_join(nation, supp, on="nkey", how="left",
                                num_buckets=8, right_cols=["s_suppkey"])

    def agg(b: pd.DataFrame) -> pd.DataFrame:
        out = (b.groupby(["nkey", "n_name"], sort=False, as_index=False)
               ["s_suppkey"].count())
        return pd.DataFrame({
            "n_nationkey": out["nkey"].astype("int64"),
            "n_name": out["n_name"],
            "n_suppliers": out["s_suppkey"].astype("int64"),
        })

    # buckets hold whole nations (join key = partition key) and
    # batch_size=None keeps bucket blocks intact, so the per-batch
    # count is already final per nation
    return joined.map_batches(agg, batch_format="pandas", batch_size=None)


LEFT_JOIN_SQL = """
SELECT n_nationkey::BIGINT AS n_nationkey, n_name,
       count(s_suppkey)::BIGINT AS n_suppliers
FROM nation LEFT JOIN supplier ON n_nationkey = s_nationkey
GROUP BY 1, 2
"""


def q3_shipping_priority(sf_dir: str):
    """TPC-H Q3 shape: 3-table join composed from a broadcast semi-join
    (customer segment filter) + bucketed hash join (orders ⋈ lineitem)
    + grouped aggregate + top-k."""
    import ray

    from ray.data.aggregate import Sum

    from ..stages.joins import bucketed_hash_join

    cutoff = pd.Timestamp("1996-01-01")
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).to_pandas()
    building = set(cust.loc[cust["c_mktsegment"] == "BUILDING", "c_custkey"])
    bset_ref = ray.put(building)

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])

    def sel_orders(t: pa.Table) -> pa.Table:
        keys = set(ray.get(bset_ref))
        mask = pa.array([
            (ck in keys) and (od is not None and od < cutoff)
            for ck, od in zip(t["o_custkey"].to_pylist(),
                              t["o_orderdate"].to_pylist())
        ], pa.bool_())
        t = t.filter(mask)
        return pa.table({"orderkey": t["o_orderkey"],
                         "o_orderdate": t["o_orderdate"]})

    orders_f = orders.map_batches(sel_orders, batch_format="pyarrow")
    li = _lineitem(sf_dir, ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"])

    def sel_li(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater_equal(t["l_shipdate"], pa.scalar(cutoff)))
        rev = pc.multiply(t["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return pa.table({"orderkey": t["l_orderkey"], "rev": rev})

    li_f = li.map_batches(sel_li, batch_format="pyarrow")
    joined = bucketed_hash_join(li_f, orders_f, on="orderkey")
    agg = joined.groupby("orderkey").aggregate(Sum("rev", alias_name="revenue"))
    out = agg.sort(["revenue", "orderkey"], descending=[True, False]).limit(10).to_pandas()
    out["orderkey"] = out["orderkey"].astype("int64")
    out["revenue"] = round2(out["revenue"])
    return out


Q3_SQL = """
SELECT l_orderkey AS orderkey, round(sum(l_extendedprice * (1 - l_discount)), 2) AS revenue
FROM customer JOIN orders ON c_custkey = o_custkey
              JOIN lineitem ON o_orderkey = l_orderkey
WHERE c_mktsegment = 'BUILDING'
  AND o_orderdate < TIMESTAMP '1996-01-01'
  AND l_shipdate >= TIMESTAMP '1996-01-01'
GROUP BY l_orderkey
ORDER BY sum(l_extendedprice * (1 - l_discount)) DESC, l_orderkey LIMIT 10
"""


def q6_forecast_revenue(sf_dir: str):
    """TPC-H Q6 shape: pure filter + single scalar aggregate — partial
    sums per batch, one tiny final reduce."""
    ds = _lineitem(sf_dir, ["l_extendedprice", "l_discount", "l_quantity", "l_shipdate"])
    lo, hi = pd.Timestamp("1995-01-01"), pd.Timestamp("1997-01-01")

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(
            pc.and_(
                pc.and_(pc.greater_equal(t["l_shipdate"], pa.scalar(lo)),
                        pc.less(t["l_shipdate"], pa.scalar(hi))),
                pc.and_(pc.greater_equal(t["l_discount"], pa.scalar(0.05)),
                        pc.less(t["l_quantity"], pa.scalar(24.0))),
            )
        )
        v = pc.sum(pc.multiply(t["l_extendedprice"], t["l_discount"])).as_py() or 0.0
        return pa.table({"v": pa.array([v], pa.float64())})

    partials = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    return pd.DataFrame({"promo_revenue": round2([partials["v"].sum()])})


Q6_SQL = """
SELECT round(sum(l_extendedprice * l_discount), 2) AS promo_revenue
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '1995-01-01' AND l_shipdate < TIMESTAMP '1997-01-01'
  AND l_discount >= 0.05 AND l_quantity < 24
"""


def orders_with_discounted_items(sf_dir: str):
    """EXISTS semi-join (TPC-H Q4 shape): orders having ≥1 lineitem
    with discount > 0.08, counted by priority — the distinct key set is
    computed distributed (per-batch unique → small union) and broadcast
    for the probe (Bloom filter at corpus scale)."""
    import ray

    li = _lineitem(sf_dir, ["l_orderkey", "l_discount"])
    keys_pdf = (
        li.map_batches(
            lambda t: pa.table({"k": pc.unique(
                t.filter(pc.greater(t["l_discount"], pa.scalar(0.08)))["l_orderkey"])}),
            batch_format="pyarrow")
        .to_pandas()
    )
    key_arr = np.unique(keys_pdf["k"].to_numpy())
    ref = ray.put(key_arr)

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])

    def semi(t: pa.Table) -> pa.Table:
        ids = t["o_orderkey"].to_numpy(zero_copy_only=False)
        return t.filter(pa.array(probe_sorted(ray.get(ref), ids)[0]))

    return grouped_partials(orders, "o_orderpriority", count="n_orders",
                            prep=semi)


EXISTS_SEMI_SQL = """
SELECT o_orderpriority, count(*)::BIGINT AS n_orders
FROM orders
WHERE EXISTS (SELECT 1 FROM lineitem
              WHERE l_orderkey = o_orderkey AND l_discount > 0.08)
GROUP BY o_orderpriority
"""


def events_lag_delta(sf_dir: str):
    """lag() window: per user (ordered by ts, event_id), the delta of
    value vs the previous event — hash-bucketed, one vectorized
    groupby.diff per bucket; first-row NULLs dropped."""
    from ..stages.groups import bucketed_group_apply

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="stable")
        delta = g.groupby("user_id", sort=False)["value"].diff()
        out = pd.DataFrame({
            "event_id": g["event_id"].to_numpy(),
            "user_id": g["user_id"].to_numpy(),
            "delta": delta.to_numpy(),
        }).dropna(subset=["delta"])
        out["delta"] = round2(out["delta"])
        return out

    return bucketed_group_apply(ds, "user_id", per_bucket)


LAG_DELTA_SQL = """
SELECT event_id, user_id, delta FROM (
  SELECT event_id, user_id,
         round(value - lag(value) OVER (PARTITION BY user_id
                                        ORDER BY ts, event_id), 2) AS delta
  FROM events
) WHERE delta IS NOT NULL
"""


def orders_monthly_volume(sf_dir: str):
    """Calendar bucketing: order count + revenue per (year, month)."""
    ds = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def bucketize(t: pa.Table) -> pa.Table:
        ym = pc.add(pc.multiply(pc.year(t["o_orderdate"]), pa.scalar(100)),
                    pc.month(t["o_orderdate"]))
        return pa.table({
            "ym": pc.cast(ym, pa.int64()),
            "revenue": t["o_totalprice"],
        })

    out = grouped_partials(ds, "ym", sums=["revenue"], count="n_orders",
                           prep=bucketize)
    out["revenue"] = round2(out["revenue"])
    return out


MONTHLY_VOLUME_SQL = """
SELECT (year(o_orderdate) * 100 + month(o_orderdate))::BIGINT AS ym,
       count(*)::BIGINT AS n_orders,
       round(sum(o_totalprice), 2) AS revenue
FROM orders GROUP BY 1
"""


def event_props_k_stats(sf_dir: str):
    """JSON-column extraction (the M6 fenced-JSON parser's scalar-path
    cousin, oracle-checked): parse props, average the \"k\" field per
    event type."""
    import json

    ds = _read(sf_dir, "events", ["event_type", "props"])

    def parse(t: pa.Table) -> pa.Table:
        # vectorized fast path for the flat {"k": <number>} shape (one
        # compiled-regex extract over the batch); rows with any other
        # JSON shape fall back to a real json.loads — semantics
        # identical, the per-row parser loop only runs on the rare tail
        s = t["props"].to_pandas().fillna("")
        k = pd.to_numeric(
            s.str.extract(
                r'^\{"k":\s*(-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)\s*\}$',
                expand=False),
            errors="coerce")
        miss = k.isna().to_numpy()
        if miss.any():
            vals = []
            for p in s.to_numpy()[miss]:
                try:
                    vals.append(float(json.loads(p or "{}").get("k", 0)))
                except (ValueError, TypeError):
                    vals.append(0.0)
            k = k.to_numpy()
            k[miss] = vals
        else:
            k = k.to_numpy()
        return pa.table({"event_type": t["event_type"],
                         "k_sum": pa.array(k, pa.float64())})

    out = grouped_partials(ds, "event_type", sums=["k_sum"], count="n",
                           prep=parse)
    res = pd.DataFrame({
        "event_type": out["event_type"],
        "avg_k": round2(out["k_sum"] / out["n"]),
    })
    return res


PROPS_K_SQL = """
SELECT event_type,
       round(avg(coalesce(CAST(json_extract_string(props, '$.k') AS DOUBLE), 0)), 2)
         AS avg_k
FROM events GROUP BY event_type
"""


def doc_lines_exploded(sf_dir: str):
    """Explode docs → one row per line with positional index (the
    flat_map shape, SURVEY §2.2's doc→blocks explode) — oracle-checked
    against DuckDB's aligned unnest. Bounded to doc_id < 50 to keep the
    compare small."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def explode(t: pa.Table) -> pd.DataFrame:
        t = t.filter(pc.less(t["doc_id"], pa.scalar(50)))
        ids, idxs, lines = [], [], []
        for did, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            for i, line in enumerate((text or "").split("\n"), start=1):
                ids.append(did)
                idxs.append(i)
                lines.append(line)
        return pd.DataFrame({
            "doc_id": pd.Series(ids, dtype="int64"),
            "line_idx": pd.Series(idxs, dtype="int64"),
            "line": pd.Series(lines, dtype=object),
        })

    return ds.map_batches(explode, batch_format="pyarrow")


DOC_LINES_SQL = """
SELECT doc_id,
       unnest(generate_series(1, len(l)))::BIGINT AS line_idx,
       unnest(l) AS line
FROM (SELECT doc_id, string_split(coalesce(text, ''), chr(10)) AS l
      FROM documents WHERE doc_id < 50)
"""


def artifact_roundtrip(sf_dir: str):
    """S2-S4 sink parity as a driver-gate entry (rows-only): write the
    three reference artifacts (text parquet, records parquet/json, CSV
    with the main.ts:40 header + toFixed(2) rendering) from the
    extracted cache, read them back, return per-artifact row counts."""
    import ray.data as rd

    from ..stages.segment import CSV_HEADERS, records_batch, segment_batch
    from .artifacts import write_artifacts

    text = rd.read_parquet(_ensure_extracted(sf_dir),
                           columns=["url", "text_extracted", "doc_type"])
    records = (
        rd.read_parquet(_ensure_extracted(sf_dir),
                        columns=["url", "text_extracted"])
        .map_batches(segment_batch, batch_format="pyarrow")
        .map_batches(records_batch, batch_format="pyarrow")
    )
    out_dir = "/tmp/ptt_artifacts_gate"
    import shutil

    shutil.rmtree(out_dir, ignore_errors=True)
    paths = write_artifacts(text, records, out_dir,
                            partition_text_by=["doc_type"])
    n_text = rd.read_parquet(paths["text"]).count()
    n_records = rd.read_parquet(paths["records"]).count()
    with open(os.path.join(paths["records_csv"], "part-00000.csv")) as f:
        csv_lines = f.read().splitlines()
    assert csv_lines[0] == CSV_HEADERS
    return pd.DataFrame({
        "artifact": ["text", "records", "records_csv_rows"],
        "n_rows": pd.Series([n_text, n_records, len(csv_lines) - 1],
                            dtype="int64"),
    })


# ── text ops over documents ───────────────────────────────────────────

def doc_token_stats(sf_dir: str):
    from ..stages.analysis import token_stats_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(
        lambda b: token_stats_batch(b)[["doc_id", "n_tokens", "n_chars",
                                        "punct_ratio", "avg_token_len"]],
        batch_format="pandas",
    )


DOC_TOKEN_STATS_SQL = r"""
SELECT doc_id,
       CASE WHEN trim(coalesce(text,'')) = '' THEN 0
            ELSE length(regexp_split_to_array(trim(text), '[ \t\r\n\f\v]+')) END::BIGINT AS n_tokens,
       length(coalesce(text,''))::BIGINT AS n_chars,
       length(regexp_replace(coalesce(text,''), '[^.!?,;:]', '', 'g'))
         / greatest(length(coalesce(text,'')), 1) AS punct_ratio,
       length(regexp_replace(coalesce(text,''), '[ \t\r\n\f\v]', '', 'g'))
         / greatest(CASE WHEN trim(coalesce(text,'')) = '' THEN 0
                         ELSE length(regexp_split_to_array(trim(text), '[ \t\r\n\f\v]+')) END, 1)
         AS avg_token_len
FROM documents
"""


def doc_quality_filter(sf_dir: str):
    from ..stages.analysis import token_stats_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def fn(b: pd.DataFrame) -> pd.DataFrame:
        s = token_stats_batch(b)
        keep = (s["n_tokens"] >= 10) & (s["punct_ratio"] <= 0.2) & (s["avg_token_len"] >= 2.0)
        return s[keep][["doc_id", "n_tokens", "punct_ratio"]]

    return ds.map_batches(fn, batch_format="pandas")


DOC_QUALITY_SQL = r"""
WITH s AS (
  SELECT doc_id,
         CASE WHEN trim(coalesce(text,'')) = '' THEN 0
              ELSE length(regexp_split_to_array(trim(text), '[ \t\r\n\f\v]+')) END::BIGINT AS n_tokens,
         length(regexp_replace(coalesce(text,''), '[^.!?,;:]', '', 'g'))
           / greatest(length(coalesce(text,'')), 1) AS punct_ratio,
         length(regexp_replace(coalesce(text,''), '[ \t\r\n\f\v]', '', 'g'))
           / greatest(CASE WHEN trim(coalesce(text,'')) = '' THEN 0
                           ELSE length(regexp_split_to_array(trim(text), '[ \t\r\n\f\v]+')) END, 1)
           AS avg_token_len
  FROM documents)
SELECT doc_id, n_tokens, punct_ratio FROM s
WHERE n_tokens >= 10 AND punct_ratio <= 0.2 AND avg_token_len >= 2.0
"""


BPE_PATTERN = r"'[a-z]+| ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9 \t\r\n\f\v]+|[ \t\r\n\f\v]+"


def doc_bpe_token_count(sf_dir: str):
    """BPE-ish pre-tokenizer count (GPT-2-style split, RE2-compatible —
    no lookahead — so the DuckDB oracle runs the identical pattern)."""
    import re

    rx = re.compile(BPE_PATTERN)
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def fn(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": b["doc_id"].astype("int64"),
            "n_bpe_tokens": [len(rx.findall(t or "")) for t in b["text"]],
        }).astype({"n_bpe_tokens": "int64"})

    return ds.map_batches(fn, batch_format="pandas")


BPE_COUNT_SQL = (
    "SELECT doc_id, length(regexp_extract_all(coalesce(text,''), '"
    + BPE_PATTERN.replace("'", "''")
    + "'))::BIGINT AS n_bpe_tokens FROM documents"
)


def events_tumbling_agg(sf_dir: str):
    """Tumbling 1-hour window aggregate over the events stream
    (streaming-shaped op, SURVEY.md §2.8): bucket = floor(ts / 1h)."""
    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "events", ["ts", "value"])

    def bucketize(t: pa.Table) -> pa.Table:
        us = pc.cast(t["ts"], pa.int64())
        return pa.table({
            "hour_bucket": pc.divide(us, pa.scalar(3_600_000_000, pa.int64())),
            "value": t["value"],
        })

    out = (
        ds.map_batches(bucketize, batch_format="pyarrow")
        .groupby("hour_bucket")
        .aggregate(Count(alias_name="n"), Sum("value", alias_name="total"))
        .to_pandas()
    )
    out["n"] = out["n"].astype("int64")
    out["total"] = round2(out["total"])
    return out


def events_hourly_dense(sf_dir: str):
    """Gap-filled hourly rollup (asfreq/densify shape): the grouped
    count runs distributed; the dense hour calendar is generated over
    the SMALL aggregated result (driver-side reindex — bounded by the
    time span, not the row count) with missing hours as zero."""
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "events", ["ts"])

    def bucketize(t: pa.Table) -> pa.Table:
        us = pc.cast(t["ts"], pa.int64())
        return pa.table({
            "hour_bucket": pc.divide(us, pa.scalar(3_600_000_000, pa.int64())),
        })

    out = (ds.map_batches(bucketize, batch_format="pyarrow")
           .groupby("hour_bucket")
           .aggregate(Count(alias_name="n"))
           .to_pandas().set_index("hour_bucket"))
    if out.empty:  # empty input: oracle's generate_series is empty too
        return pd.DataFrame({"hour_bucket": pd.Series([], dtype="int64"),
                             "n": pd.Series([], dtype="int64")})
    dense = out.reindex(range(int(out.index.min()), int(out.index.max()) + 1),
                        fill_value=0)
    return pd.DataFrame({
        "hour_bucket": dense.index.to_numpy(dtype="int64"),
        "n": dense["n"].to_numpy(dtype="int64"),
    })


HOURLY_DENSE_SQL = """
WITH b AS (SELECT epoch_us(ts) // 3600000000 AS hour_bucket FROM events),
agg AS (SELECT hour_bucket, count(*) AS n FROM b GROUP BY hour_bucket),
cal AS (SELECT unnest(generate_series((SELECT min(hour_bucket) FROM agg),
                                      (SELECT max(hour_bucket) FROM agg)))
               AS hour_bucket)
SELECT cal.hour_bucket, coalesce(agg.n, 0) AS n
FROM cal LEFT JOIN agg USING (hour_bucket)
"""


TUMBLING_SQL = """
SELECT (epoch_us(ts) // 3600000000) AS hour_bucket, count(*) AS n,
       round(sum(value), 2) AS total
FROM events GROUP BY 1
"""


def events_sliding_agg(sf_dir: str):
    """Sliding 3-hour trailing window over the events stream: per hour
    bucket, count/sum of events in [bucket-2, bucket] (RANGE-frame
    semantics — gaps in buckets matter, so the window is computed over
    bucket VALUES, not adjacent rows)."""
    out = events_tumbling_agg(sf_dir).sort_values("hour_bucket").reset_index(drop=True)
    b = out["hour_bucket"].to_numpy()
    n = out["n"].to_numpy()
    lo = np.searchsorted(b, b - 2, side="left")
    hi = np.arange(len(b)) + 1
    csum_n = np.concatenate([[0], np.cumsum(n)])
    return pd.DataFrame({
        "hour_bucket": b,
        "n_3h": (csum_n[hi] - csum_n[lo]).astype("int64"),
    })


SLIDING_SQL = """
SELECT hour_bucket,
       sum(n) OVER (ORDER BY hour_bucket
                    RANGE BETWEEN 2 PRECEDING AND CURRENT ROW)::BIGINT AS n_3h
FROM (
  SELECT (epoch_us(ts) // 3600000000) AS hour_bucket, count(*) AS n
  FROM events GROUP BY 1
)
"""


def approx_distinct_users(sf_dir: str):
    """HLL approximate COUNT(DISTINCT user_id): one 4 KiB sketch per
    batch, merged on the driver — the mergeable-sketch aggregation
    shape. Oracle-checkable: returns the EXACT distinct count (which
    SQL verifies) plus a within-5-percent flag for the HLL estimate
    (the accuracy claim, encoded in the oracle row)."""
    from ..stages.sketches import approx_distinct

    ds = _read(sf_dir, "events", ["user_id"])
    est = approx_distinct(ds, "user_id")
    exact = len(ds.unique("user_id"))
    ok = abs(est - exact) / max(exact, 1) < 0.05
    return pd.DataFrame({"n_users": [exact], "approx_within_5pct": [bool(ok)]})


APPROX_DISTINCT_SQL = """
SELECT count(DISTINCT user_id)::BIGINT AS n_users,
       true AS approx_within_5pct
FROM events
"""


def doc_selfrepeat_ratio(sf_dir: str):
    """Within-document repetition: 1 - distinct/total char-20-gram
    hashes over whitespace-normalized lowered text (oracle: the same
    ratio over the gram STRINGS in DuckDB — 64-bit hash collisions are
    the only possible divergence, odds ~grams²/2⁶⁴)."""
    from ..stages.analysis import kgram_hashes

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def fn(b: pd.DataFrame) -> pd.DataFrame:
        ratios = []
        for t in b["text"].fillna(""):
            h = kgram_hashes(" ".join(t.lower().split()), 20)
            ratios.append(1.0 - len(np.unique(h)) / max(len(h), 1))
        return pd.DataFrame({"doc_id": b["doc_id"].astype("int64"),
                             "selfrepeat_ratio": ratios})

    return ds.map_batches(fn, batch_format="pandas")


# Python hashes 20-BYTE grams of the normalized text; the corpus is
# ASCII so character substr is byte-identical. Sub-20-char text pads to
# exactly one gram on the Ray side → ratio 0, the CASE below mirrors it.
SELFREPEAT_SQL = r"""
WITH norm AS (
  SELECT doc_id,
         lower(regexp_replace(trim(coalesce(text, '')), '\s+', ' ', 'g')) AS t
  FROM documents
)
SELECT doc_id,
       CASE WHEN length(t) < 20 THEN 0.0
            ELSE 1.0 - len(list_distinct([substr(t, i, 20)
                     for i in range(1, length(t) - 18)]))::DOUBLE
                     / (length(t) - 19)
       END AS selfrepeat_ratio
FROM norm
"""


def dedup_exact_docs(sf_dir: str):
    from ..stages.dedup import exact_dedup

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return exact_dedup(ds)


DEDUP_EXACT_SQL = """
SELECT md5(coalesce(text,'')) AS text_hash, min(doc_id) AS doc_id
FROM documents GROUP BY md5(coalesce(text,''))
"""


def frequent_lines(sf_dir: str):
    """Corpus-wide line-frequency ranking (line-level dedup support,
    CCNet-style): top 50 most frequent non-empty lines, deterministic
    (n desc, line_hash asc)."""
    from ..stages.analysis import line_frequencies

    ds = _read(sf_dir, "documents", ["text"])
    freq = line_frequencies(ds, min_count=1)
    return freq.sort(["n", "line_hash"], descending=[True, False]).limit(50)


FREQUENT_LINES_SQL = """
SELECT md5(line) AS line_hash, count(*) AS n
FROM (SELECT unnest(string_split(coalesce(text,''), chr(10))) AS line FROM documents)
WHERE line <> '' GROUP BY 1
ORDER BY n DESC, line_hash LIMIT 50
"""


def docs_line_deduped(sf_dir: str):
    """Line-level cleaned docs (frequent lines removed), oracle-checked
    against a DuckDB unnest + frequency-CTE restatement."""
    from ..stages.analysis import remove_frequent_lines

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = remove_frequent_lines(ds, min_count=3)
    return out.map_batches(
        lambda b: pd.DataFrame({
            "doc_id": b["doc_id"].astype("int64"),
            "n_chars_clean": b["text_clean"].str.len().astype("int64"),
        }),
        batch_format="pandas",
    )


LINE_DEDUP_SQL = """
WITH l AS (
  SELECT doc_id, unnest(string_split(coalesce(text,''), chr(10))) AS line
  FROM documents
), f AS (
  SELECT line, count(*) AS n FROM l WHERE line <> '' GROUP BY line
), k AS (
  SELECT l.doc_id, length(l.line) AS len
  FROM l LEFT JOIN f USING (line)
  WHERE l.line = '' OR coalesce(f.n, 0) < 3
), s AS (
  SELECT doc_id,
         (sum(len) + greatest(count(*) - 1, 0))::BIGINT AS n_chars_clean
  FROM k GROUP BY doc_id
)
SELECT d.doc_id, coalesce(s.n_chars_clean, 0)::BIGINT AS n_chars_clean
FROM documents d LEFT JOIN s USING (doc_id)
"""


def ann_recall_floor(sf_dir: str):
    """Registered, checkable ANN quality gate: recall@10 of the LSH and
    IVF paths against the exact brute-force oracle (knn_cosine's own
    verified baseline), asserted against floors the oracle row encodes.
    The floors hold at sf0.001 and sf0.01 with margin (measured 0.52-
    0.66 LSH, 0.90-0.92 IVF on the driver testdata)."""
    from ..stages.similarity import ann_lsh_topk, ivf_topk, knn_bruteforce

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    exact = knn_bruteforce(ds, KNN_QUERY_IDS, k=10)
    ex = set(map(tuple, exact[["query_id", "vec_id"]].values))
    lsh = ann_lsh_topk(ds, KNN_QUERY_IDS, k=10, n_bits=6, n_probe=16)
    ivf = ivf_topk(ds, KNN_QUERY_IDS, k=10, n_lists=16, n_probe=10)

    def recall(a: pd.DataFrame) -> float:
        got = set(map(tuple, a[["query_id", "vec_id"]].values))
        return len(ex & got) / max(len(ex), 1)

    return pd.DataFrame({
        "method": ["ivf", "lsh"],
        "recall_ok": [bool(recall(ivf) >= 0.8), bool(recall(lsh) >= 0.4)],
    })


ANN_RECALL_SQL = """
SELECT 'ivf' AS method, true AS recall_ok
UNION ALL SELECT 'lsh', true
"""


def ann_lsh_exhaustive(sf_dir: str):
    """LSH ANN machinery under a FULL-VALUE oracle: with ``n_bits=3``
    every bucket lies within the 3-bit multiprobe radius, so
    ``n_probe=8`` searches the entire corpus and the output must EQUAL
    exact brute force rank-for-rank (oracle = KNN_SQL). This
    hash-checks the bucketing, candidate dedup, and deterministic
    (-sim, id) merge end to end; the approximate configs' recall
    floors stay in ``ann_recall_floor``."""
    from ..stages.similarity import ann_lsh_topk

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return ann_lsh_topk(ds, KNN_QUERY_IDS, k=10, n_bits=3, n_probe=8)


def ann_ivf_exhaustive(sf_dir: str):
    """IVF ANN machinery under a FULL-VALUE oracle: probing every list
    (``n_probe = n_lists``) makes the search exact, so the k-means
    assignment, per-list exact scoring, and top-k merge must reproduce
    brute force rank-for-rank (oracle = KNN_SQL)."""
    from ..stages.similarity import ivf_topk

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return ivf_topk(ds, KNN_QUERY_IDS, k=10, n_lists=16, n_probe=16)


def ann_pq_recall(sf_dir: str):
    """PQ-ADC quality gate: recall@10 of the product-quantized path
    (32-bit→40-bit codes + exact re-rank; `similarity.py::pq_topk`)
    vs the exact baseline, asserted against a floor. Measured 0.90-
    0.92 at sf0.001/sf0.01; floor 0.75 leaves host-noise margin
    (training/ADC are fully deterministic, so the only variance is
    corpus content)."""
    from ..stages.similarity import knn_bruteforce, pq_topk

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    exact = knn_bruteforce(ds, KNN_QUERY_IDS, k=10)
    ex = set(map(tuple, exact[["query_id", "vec_id"]].values))
    pq = pq_topk(ds, KNN_QUERY_IDS, k=10, m=8, ks=32, rerank=10)
    got = set(map(tuple, pq[["query_id", "vec_id"]].values))
    recall = len(ex & got) / max(len(ex), 1)
    return pd.DataFrame({"method": ["pq"],
                         "recall_ok": [bool(recall >= 0.75)]})


ANN_PQ_SQL = """
SELECT 'pq' AS method, true AS recall_ok
"""


def doc_lm_perplexity(sf_dir: str):
    """Char-trigram LM perplexity per doc vs the corpus-trained model —
    CCNet-style fluency/quality signal. FULL oracle: the hashed-bucket
    LM is pure integer arithmetic over UTF-8 byte values, so DuckDB
    replays training + scoring exactly (position explode → bucket ids
    → grouped counts → per-doc mean log-prob); round(6) absorbs the
    np.mean-vs-SQL-avg summation-order ulps."""
    from ..stages.analysis import lm_perplexity

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def r6(t: pa.Table) -> pa.Table:
        x = t["lm_perplexity"].to_numpy(zero_copy_only=False)
        # docs with <3 normalized chars score NaN; the SQL twin emits
        # no row for them (its position explode is empty) — drop on
        # this side too so row counts agree
        keep = ~np.isnan(x)
        x = x[keep]
        y = np.copysign(np.floor(np.abs(x * 1e6) + 0.5), x) / 1e6
        return pa.table({
            "doc_id": t["doc_id"].filter(pa.array(keep)),
            "lm_perplexity": pa.array(y, pa.float64())})

    return lm_perplexity(ds).map_batches(r6, batch_format="pyarrow")


# ASCII-corpus assumption (byte == codepoint): the engine hashes UTF-8
# bytes while ascii() yields codepoints; they agree only on ASCII,
# which the driver corpora are.
LM_PERPLEXITY_SQL = r"""
WITH norm AS (
  SELECT doc_id, trim(regexp_replace(lower(coalesce(text, '')),
                                     '\s+', ' ', 'g')) AS s
  FROM documents
),
pos AS (
  SELECT doc_id,
         ascii(substr(s, i, 1))     AS c0,
         ascii(substr(s, i + 1, 1)) AS c1,
         ascii(substr(s, i + 2, 1)) AS c2
  FROM norm, LATERAL unnest(generate_series(1, length(s) - 2)) AS t(i)
  WHERE length(s) >= 3
),
keyed AS (
  SELECT doc_id,
         ((c0::BIGINT * 1000003 + c1) * 1000003 + c2) % 1048576 AS tri_b,
         (c0::BIGINT * 1000003 + c1) % 1048576 AS ctx_b
  FROM pos
),
tri AS (SELECT tri_b, count(*) AS n FROM keyed GROUP BY tri_b),
ctx AS (SELECT ctx_b, count(*) AS n FROM keyed GROUP BY ctx_b)
SELECT k.doc_id,
       round(exp(-avg(ln((t.n + 0.1) / (c.n + 25.6)))), 6) AS lm_perplexity
FROM keyed k
JOIN tri t ON k.tri_b = t.tri_b
JOIN ctx c ON k.ctx_b = c.ctx_b
GROUP BY k.doc_id
"""


def doc_pii_counts(sf_dir: str):
    """PII detection counts per doc (emails/phones/IPv4) — the identical
    RE2-compatible patterns run on BOTH sides, so the oracle checks the
    detector exactly."""
    from ..stages.analysis import pii_counts_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(
        lambda t: pii_counts_batch(t).astype({"doc_id": "int64"}),
        batch_format="pyarrow")


def _sql_quote(pattern: str) -> str:
    # DuckDB standard string literals: only quote doubling, no
    # backslash escapes — the regex is embedded verbatim
    return pattern.replace("'", "''")


def _pii_sql() -> str:
    from ..stages.analysis import PII_EMAIL_RE, PII_IPV4_RE, PII_PHONE_RE

    return f"""
SELECT doc_id,
       length(regexp_extract_all(coalesce(text,''), '{_sql_quote(PII_EMAIL_RE)}'))::BIGINT AS n_emails,
       length(regexp_extract_all(coalesce(text,''), '{_sql_quote(PII_PHONE_RE)}'))::BIGINT AS n_phones,
       length(regexp_extract_all(coalesce(text,''), '{_sql_quote(PII_IPV4_RE)}'))::BIGINT AS n_ipv4
FROM documents
"""


def _langid_sql() -> str:
    """LangId heuristic replicated in SQL, profiles injected from the
    same ``_STOPWORDS`` tables the actor loads. The corpus is ASCII, so
    ``[a-zA-Z]+`` tokenizes identically to Python's unicode word regex;
    ties break to the alphabetically-first language (Python iterates
    sorted profiles with a strict '>')."""
    from ..stages.analysis import _STOPWORDS

    rows = ", ".join(
        f"('{lang}', '{w}')"
        for lang in sorted(_STOPWORDS)
        for w in sorted(_STOPWORDS[lang])
    )
    return f"""
WITH docs AS (SELECT doc_id, coalesce(text, '') AS text FROM documents),
cjk AS (
  SELECT doc_id, length(regexp_replace(substr(text, 1, 2000),
         '[^\\x{{4E00}}-\\x{{9FFF}}]', '', 'g')) AS ncjk
  FROM docs
),
toks AS (
  SELECT doc_id, list_transform(
           regexp_extract_all(substr(text, 1, 5000), '[a-zA-Z]+'),
           x -> lower(x)) AS t
  FROM docs
),
tok AS (SELECT doc_id, unnest(t) AS w FROM toks),
prof(lang, w) AS (VALUES {rows}),
scores AS (
  SELECT t.doc_id, p.lang, count(*) AS hits
  FROM tok t JOIN prof p ON p.w = t.w
  GROUP BY 1, 2
),
best AS (
  SELECT s.doc_id, s.lang, s.hits::DOUBLE / k.ntok AS score,
         row_number() OVER (PARTITION BY s.doc_id
                            ORDER BY s.hits::DOUBLE / k.ntok DESC, s.lang) AS rn
  FROM scores s
  JOIN (SELECT doc_id, len(t) AS ntok FROM toks) k USING (doc_id)
)
SELECT d.doc_id,
       CASE WHEN c.ncjk >= 5 THEN 'zh'
            WHEN b.score > 0.02 THEN b.lang
            ELSE 'und' END AS lang_pred
FROM docs d
LEFT JOIN cjk c USING (doc_id)
LEFT JOIN (SELECT * FROM best WHERE rn = 1) b USING (doc_id)
"""


def decontaminate_docs(sf_dir: str):
    """Benchmark decontamination (rows-only): flag corpus docs sharing
    any 13-gram with a deterministic 'eval set' (the 5 lowest-id docs
    stand in for held-out benchmark text — guaranteed hits by
    construction, so the probe path is exercised)."""
    from ..stages.analysis import flag_contaminated

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    eval_texts = (
        ds.map_batches(
            lambda t: t.filter(pc.less(t["doc_id"], pa.scalar(5))),
            batch_format="pyarrow")
        .to_pandas()["text"].fillna("").tolist()
    )
    return flag_contaminated(ds, eval_texts, n=13)


# Same gram definition as the Ray side (word 13-grams of lowered,
# whitespace-split text; eval set = distinct grams of docs 0-4). The
# Ray probe counts gram OCCURRENCES in the doc (not distinct), hence
# the non-distinct doc_g side of the join.
DECONTAMINATE_SQL = r"""
WITH toks AS (
  SELECT doc_id, regexp_split_to_array(lower(trim(text)), '\s+') AS t
  FROM documents WHERE trim(coalesce(text, '')) <> ''
),
eval_g AS (
  SELECT DISTINCT
         unnest([array_to_string(t[i:i+12], ' ')
                 for i in range(1, greatest(len(t) - 12, 0) + 1)]) AS gram
  FROM toks WHERE doc_id < 5
),
doc_g AS (
  SELECT doc_id,
         unnest([array_to_string(t[i:i+12], ' ')
                 for i in range(1, greatest(len(t) - 12, 0) + 1)]) AS gram
  FROM toks
),
hits AS (
  SELECT dg.doc_id, count(*) AS n_hits
  FROM doc_g dg JOIN eval_g e ON dg.gram = e.gram
  GROUP BY 1
)
SELECT d.doc_id,
       coalesce(h.n_hits, 0) > 0 AS contaminated,
       coalesce(h.n_hits, 0)::BIGINT AS n_hits
FROM documents d LEFT JOIN hits h ON h.doc_id = d.doc_id
"""


def doc_compression_ratio(sf_dir: str):
    """zlib compression-ratio quality signal — rows-only (no zlib in
    SQL)."""
    from ..stages.analysis import compression_ratio_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(compression_ratio_batch, batch_format="pandas")


def top_docs_by_len(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    return ds.sort(["n_chars", "doc_id"], descending=[True, False]).limit(20)


TOP_DOCS_SQL = """
SELECT doc_id, n_chars FROM documents
ORDER BY n_chars DESC, doc_id LIMIT 20
"""


def sample_hash_documents(sf_dir: str):
    """Deterministic hash sampling (repeatable across runs/engines —
    preferred over random_sample for resumable pipelines)."""
    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    return ds.map_batches(
        lambda t: t.filter(pc.equal(pc.bit_wise_and(t["doc_id"], pa.scalar(7)), pa.scalar(0))),
        batch_format="pyarrow",
    )


SAMPLE_HASH_SQL = """
SELECT doc_id, n_chars FROM documents WHERE doc_id % 8 = 0
"""


SAMPLE_SEED = 7
SAMPLE_RATE = 0.2


def sample_random_documents(sf_dir: str):
    """Deterministic Bernoulli sample at rate 0.2: keep a doc iff the
    first 12 hex digits of md5('doc_id:seed') fall under the rate
    threshold. Unlike engine-RNG sampling (ds.random_sample) this is
    layout-independent — the SAME rows survive any repartitioning or
    block split, which is what a resumable 100-TB sampling pass needs
    — and exactly replayable in SQL (DuckDB md5() on the same key)."""
    from ..stages.md5np import md5_prefix64

    ds = _read(sf_dir, "documents", ["doc_id"])
    cut = np.uint64(int(SAMPLE_RATE * 16 ** 12))

    def pick(t: pa.Table) -> pa.Table:
        keys = pc.binary_join_element_wise(
            pc.cast(t["doc_id"], pa.string()), str(SAMPLE_SEED), ":")
        return t.filter(pa.array(md5_prefix64(keys) >> np.uint64(16) < cut))

    return ds.map_batches(pick, batch_format="pyarrow")


SAMPLE_RANDOM_SQL = f"""
SELECT doc_id FROM documents
WHERE CAST(('0x' || substr(md5(doc_id::VARCHAR || ':{SAMPLE_SEED}'),
                           1, 12)) AS BIGINT)
      < CAST({int(SAMPLE_RATE * 16 ** 12)} AS BIGINT)
"""


def lang_distribution(sf_dir: str):
    return grouped_partials(_read(sf_dir, "documents", ["lang"]), "lang",
                            count="n_docs")


LANG_DIST_SQL = "SELECT lang, count(*) AS n_docs FROM documents GROUP BY lang"


# ── embedding ops ─────────────────────────────────────────────────────

KNN_QUERY_IDS = [0, 1, 2, 3, 4]


def knn_cosine(sf_dir: str):
    from ..stages.similarity import knn_bruteforce

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return knn_bruteforce(ds, KNN_QUERY_IDS, k=10)


KNN_SQL = """
WITH q AS (SELECT vec_id AS query_id, embedding FROM embeddings
           WHERE vec_id IN (0, 1, 2, 3, 4))
SELECT query_id, vec_id, rank FROM (
  SELECT q.query_id, e.vec_id,
         row_number() OVER (
           PARTITION BY q.query_id
           ORDER BY list_cosine_similarity(e.embedding::DOUBLE[],
                                           q.embedding::DOUBLE[]) DESC,
                    e.vec_id) AS rank
  FROM q CROSS JOIN embeddings e
  WHERE e.vec_id <> q.query_id
) WHERE rank <= 10
"""

NEARDUP_EMB_LIMIT = 2000  # bound the oracle's O(n²) cross join


def neardup_embedding(sf_dir: str):
    from ..stages.similarity import embedding_neardup_pairs

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    ds = ds.map_batches(
        lambda t: t.filter(pc.less(t["vec_id"], pa.scalar(NEARDUP_EMB_LIMIT))),
        batch_format="pyarrow",
    )
    return embedding_neardup_pairs(ds, threshold=0.45)


NEARDUP_EMB_SQL = f"""
SELECT a.vec_id AS id_a, b.vec_id AS id_b
FROM embeddings a JOIN embeddings b
  ON a.vec_id < b.vec_id
WHERE a.vec_id < {NEARDUP_EMB_LIMIT} AND b.vec_id < {NEARDUP_EMB_LIMIT}
  AND list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]) >= 0.45
"""


# ── extraction pipeline (rows-only: not SQL-expressible) ──────────────

def _corpus_rows_for(sf_dir: str) -> int:
    import pyarrow.parquet as pq

    n_docs = pq.ParquetFile(os.path.join(sf_dir, "documents.parquet")).metadata.num_rows
    return max(200, n_docs // 5)


def _corpus_dirs(sf_dir: str):
    from ..fixtures.corpus import ensure_pages_parquet

    return ensure_pages_parquet(_corpus_rows_for(sf_dir), seed=42)


def extract_corpus(sf_dir: str):
    """Flagship: synthesized pages corpus (scaled by sf) → sniff →
    extract → dedup. Rows-only check; byte-identity is enforced by the
    pytest golden suite."""
    from .extract import extract_corpus_pipeline

    pages_dir, _ = _corpus_dirs(sf_dir)
    out = extract_corpus_pipeline(pages_dir)
    return out.select_columns(["url", "doc_type", "n_pages", "parse_failure", "fallback"])


def _ensure_extracted(sf_dir: str) -> str:
    """Run the extraction once per sf and cache the output parquet —
    downstream queries (records, block_quality) read the cache instead
    of re-extracting the corpus."""
    from ..fixtures.corpus import GENERATOR_VERSION
    from .extract import extract_corpus_pipeline

    pages_dir, _ = _corpus_dirs(sf_dir)
    key = f"v{GENERATOR_VERSION}_n{_corpus_rows_for(sf_dir)}"
    return _build_once(
        os.path.join("/tmp/ptt_extracted", key),
        lambda d: extract_corpus_pipeline(pages_dir).write_parquet(d))


def extract_records(sf_dir: str):
    """PDF/HTML → text → blocks → records (reference main.ts full path)."""
    import ray.data as rd

    from ..stages.segment import records_batch, segment_batch

    text = rd.read_parquet(_ensure_extracted(sf_dir),
                           columns=["url", "text_extracted"])
    blocks = text.map_batches(segment_batch, batch_format="pyarrow")
    return blocks.map_batches(records_batch, batch_format="pyarrow")


def block_quality(sf_dir: str):
    """Block end-marker total vs sum of parsed record importes — the
    quality aggregate the reference parses but never verifies
    (main.ts:94; SURVEY.md §2.5)."""
    import ray.data as rd

    from ..stages.segment import records_batch, segment_batch

    text = rd.read_parquet(_ensure_extracted(sf_dir),
                           columns=["url", "text_extracted"])
    blocks = text.map_batches(segment_batch, batch_format="pyarrow")

    def with_sums(b: pa.Table) -> pa.Table:
        # each block row with the importe sum of its records (null for
        # none); a block's records come from its own row, so one batch
        # holds all of them and no exchange is needed
        sums = records_batch(b).group_by(
            ["url", "block_idx"], use_threads=False).aggregate(
            [("importe", "sum")])
        return b.select(["url", "block_idx", "block_total"]).join(
            sums, ["url", "block_idx"], join_type="left outer")

    # one pass: the block total rides along as a key (one value per
    # block)
    out = grouped_partials(blocks, ["url", "block_idx", "block_total"],
                           sums=["importe_sum"], prep=with_sums)
    out = out.rename(columns={"importe_sum": "sum_importe"})
    out["sum_importe"] = round2(out["sum_importe"].fillna(0.0))
    out["total_matches"] = (
        np.isfinite(out["block_total"])
        & ((out["block_total"] - out["sum_importe"]).abs() < 0.005)
    )
    return out.sort_values(["url", "block_idx"]).reset_index(drop=True)


def video_frames(sf_dir: str):
    """Video frame-sampling pipeline (rows-only): MP4 rows of the
    media table demuxed + frame-decoded for real (stages/mp4_codec
    MJPEG path) through the VideoFrameSampler actor pool — one output
    row per sampled frame; avc1-stub rows surface as
    ``decodable=False`` instead of failing the job."""
    import ray.data as rd

    from ..fixtures.mediagen import ensure_media_parquet
    from ..stages.multimodal import sample_video_frames

    media_dir = ensure_media_parquet(_corpus_rows_for(sf_dir), seed=42)
    ds = rd.read_parquet(media_dir).filter(
        expr="media_type == 'video'")
    return sample_video_frames(ds, concurrency=(1, 4))


def media_features(sf_dir: str):
    """Multimodal actor-pool pipeline (rows-only): synthetic media table
    (REAL BMP/PPM/WAV payloads + a fake-compressed tail, scaled by sf)
    → MediaFeatureExtractor → per-row feature L2 norm."""
    import ray.data as rd

    from ..fixtures.mediagen import ensure_media_parquet
    from ..stages.multimodal import FEATURE_DIM, extract_media_features

    media_dir = ensure_media_parquet(_corpus_rows_for(sf_dir), seed=42)
    ds = rd.read_parquet(media_dir)
    out = extract_media_features(ds, concurrency=(1, 4), batch_size=32)

    def norms(t: pa.Table) -> pa.Table:
        col = t["features"].combine_chunks()
        m = col.flatten().to_numpy(zero_copy_only=False).reshape(-1, FEATURE_DIM)
        return pa.table({
            "media_id": t["media_id"],
            "media_type": t["media_type"],
            "feat_norm": pa.array(round2(np.sqrt((m * m).sum(axis=1))),
                                  pa.float64()),
        })

    return out.map_batches(norms, batch_format="pyarrow")


def media_thumbnails(sf_dir: str):
    """Image-resize pipeline (rows-only): media table → ImageResizer
    actor pool (decode via in-repo stdlib codecs → nearest-neighbor
    resize → PPM re-encode). Video/audio/undecodable rows degrade per
    row (decodable=False, empty thumb)."""
    import ray.data as rd

    from ..fixtures.mediagen import ensure_media_parquet
    from ..stages.multimodal import resize_images

    media_dir = ensure_media_parquet(_corpus_rows_for(sf_dir), seed=42)
    ds = rd.read_parquet(media_dir)
    out = resize_images(ds, width=16, height=16, concurrency=(1, 4),
                        batch_size=32)

    def summarize(t: pa.Table) -> pa.Table:
        lens = [len(x) for x in t["thumb"].to_pylist()]
        return pa.table({
            "media_id": t["media_id"],
            "media_type": t["media_type"],
            "decodable": t["decodable"],
            "thumb_w": t["thumb_w"],
            "thumb_h": t["thumb_h"],
            "thumb_bytes": pa.array(lens, pa.int64())})

    return out.map_batches(summarize, batch_format="pyarrow")


def media_phash_neardup(sf_dir: str):
    """Image near-dup via 64-bit perceptual hash (rows-only — pixel
    decode is a binary-codec surface, not SQL): media table → pHash
    actor pool (in-repo BMP/PPM decoders) → 4×16-bit Hamming banding →
    per-image neighbor profile (stages/multimodal.py::
    image_phash_neardup). The fixture (fixtures/mediagen.py::
    ensure_phash_media_parquet) packs images in clusters of three —
    base, resized, noised renders of one band-limited texture — so
    every image must surface ≥ 2 in-cluster neighbors; asserted in
    tests/test_round17_ops.py."""
    import ray.data as rd

    from ..fixtures.mediagen import ensure_phash_media_parquet
    from ..stages.multimodal import image_phash_neardup

    media_dir = ensure_phash_media_parquet(_corpus_rows_for(sf_dir), seed=42)
    ds = rd.read_parquet(media_dir)
    out = image_phash_neardup(ds, concurrency=(1, 4)).to_pandas()
    return out.sort_values("media_id").reset_index(drop=True)


def neardup_minhash_docs(sf_dir: str):
    """MinHash+LSH near-dup pairs, oracle-checked against the EXACT
    char-5-gram Jaccard self-join: the engine verifies candidates with
    exact Jaccard, so its output equals the exact pair set iff banding
    recall is 1 — which the oracle therefore ASSERTS on every run (a
    banding miss surfaces as a row-count mismatch). At threshold 0.7
    with 16 bands × 4 rows, a pair is missed with p = (1-s⁴)^16 ≤
    0.013 at s = 0.7 and ≤ 7e-6 at the s ≥ 0.87 the driver corpora
    actually contain. Gram identity is 64-bit hashed on the engine
    side (collision odds negligible, as for the word-gram oracle)."""
    from ..stages.dedup import minhash_neardup_pairs

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return minhash_neardup_pairs(ds, threshold=0.7)


# Exact char-5-gram Jaccard over the SAME normalization the minhash
# path uses (lowercase, whitespace collapsed to single spaces).
NEARDUP_MINHASH_SQL = r"""
WITH toks AS (
  SELECT doc_id,
         regexp_replace(lower(trim(text)), '\s+', ' ', 'g') AS s
  FROM documents WHERE trim(coalesce(text, '')) <> ''
),
g AS (
  SELECT DISTINCT doc_id,
         unnest([substr(s, i, 5)
                 for i in range(1, greatest(len(s) - 4, 0) + 1)]) AS gram
  FROM toks
),
sizes AS (SELECT doc_id, count(*) AS n FROM g GROUP BY doc_id),
inter AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*) AS c
  FROM g a JOIN g b ON a.gram = b.gram AND a.doc_id < b.doc_id
  GROUP BY 1, 2
)
SELECT id_a, id_b, c::DOUBLE / (sa.n + sb.n - c) AS jaccard_sim
FROM inter
JOIN sizes sa ON sa.doc_id = inter.id_a
JOIN sizes sb ON sb.doc_id = inter.id_b
WHERE c::DOUBLE / (sa.n + sb.n - c) >= 0.7
"""


# End-to-end MinHash dedup oracle: the exact char-5-gram Jaccard pair
# set above (the engine verifies LSH candidates with exact Jaccard, so
# its pair set equals this whenever banding recall is 1 — asserted by
# neardup_minhash_docs' own green row) → transitive closure via the
# recursive reach CTE → min-reachable-id root per node → every doc
# keeps iff it is its own root (unpaired docs root themselves).
NEARDUP_MINHASH_KEEP_SQL = r"""
WITH RECURSIVE toks AS (
  SELECT doc_id,
         regexp_replace(lower(trim(text)), '\s+', ' ', 'g') AS s
  FROM documents WHERE trim(coalesce(text, '')) <> ''
),
g AS (
  SELECT DISTINCT doc_id,
         unnest([substr(s, i, 5)
                 for i in range(1, greatest(len(s) - 4, 0) + 1)]) AS gram
  FROM toks
),
sizes AS (SELECT doc_id, count(*) AS n FROM g GROUP BY doc_id),
inter AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*) AS c
  FROM g a JOIN g b ON a.gram = b.gram AND a.doc_id < b.doc_id
  GROUP BY 1, 2
),
pairs AS (
  SELECT id_a, id_b
  FROM inter
  JOIN sizes sa ON sa.doc_id = inter.id_a
  JOIN sizes sb ON sb.doc_id = inter.id_b
  WHERE c::DOUBLE / (sa.n + sb.n - c) >= 0.7
),
edges AS (
  SELECT id_a AS src, id_b AS dst FROM pairs
  UNION SELECT id_b, id_a FROM pairs
),
reach(node, r) AS (
  SELECT DISTINCT src, src FROM edges
  UNION
  SELECT e.dst, reach.r FROM reach JOIN edges e ON e.src = reach.node
),
comp AS (SELECT node, min(r) AS group_root FROM reach GROUP BY node)
SELECT d.doc_id,
       coalesce(c.group_root, d.doc_id) AS group_root,
       coalesce(c.group_root, d.doc_id) = d.doc_id AS kept
FROM documents d LEFT JOIN comp c ON c.node = d.doc_id
"""


def neardup_keep_best_docs(sf_dir: str):
    """Quality-ranked near-dup dedup (stages/dedup.py::
    keep_best_from_pairs): per cluster keep the LONGEST doc (trimmed
    char count, doc_id tiebreak) instead of the min id — the curation
    policy of preserving the most complete near-duplicate. Oracle:
    the recursive-closure components + a windowed argmax."""
    from ..stages.dedup import keep_best_from_pairs, minhash_neardup_pairs

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    pairs = minhash_neardup_pairs(ds, threshold=0.7)
    return keep_best_from_pairs(ds, pairs)


NEARDUP_KEEP_BEST_SQL = r"""
WITH RECURSIVE toks AS (
  SELECT doc_id,
         regexp_replace(lower(trim(text)), '\s+', ' ', 'g') AS s
  FROM documents WHERE trim(coalesce(text, '')) <> ''
),
g AS (
  SELECT DISTINCT doc_id,
         unnest([substr(s, i, 5)
                 for i in range(1, greatest(len(s) - 4, 0) + 1)]) AS gram
  FROM toks
),
sizes AS (SELECT doc_id, count(*) AS n FROM g GROUP BY doc_id),
inter AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*) AS c
  FROM g a JOIN g b ON a.gram = b.gram AND a.doc_id < b.doc_id
  GROUP BY 1, 2
),
pairs AS (
  SELECT id_a, id_b
  FROM inter
  JOIN sizes sa ON sa.doc_id = inter.id_a
  JOIN sizes sb ON sb.doc_id = inter.id_b
  WHERE c::DOUBLE / (sa.n + sb.n - c) >= 0.7
),
edges AS (
  SELECT id_a AS src, id_b AS dst FROM pairs
  UNION SELECT id_b, id_a FROM pairs
),
reach(node, r) AS (
  SELECT DISTINCT src, src FROM edges
  UNION
  SELECT e.dst, reach.r FROM reach JOIN edges e ON e.src = reach.node
),
comp AS (SELECT node, min(r) AS group_root FROM reach GROUP BY node),
ranked AS (
  SELECT comp.node, comp.group_root,
         row_number() OVER (PARTITION BY comp.group_root
                            ORDER BY length(trim(d.text)) DESC,
                                     comp.node) AS rn
  FROM comp JOIN documents d ON d.doc_id = comp.node
),
winners AS (SELECT group_root, node AS winner FROM ranked WHERE rn = 1)
SELECT d.doc_id,
       coalesce(c.group_root, d.doc_id) AS group_root,
       CASE WHEN c.node IS NULL THEN TRUE
            ELSE d.doc_id = w.winner END AS kept
FROM documents d
LEFT JOIN comp c ON c.node = d.doc_id
LEFT JOIN winners w ON w.group_root = c.group_root
"""


def neardup_simhash_docs(sf_dir: str):
    """SimHash near-dup pairs with a FULL oracle: the engine-portable
    md5 token hash makes the 64-bit signature SQL-replayable, and the
    4×16-band search is COMPLETE for Hamming ≤ 3, so the banded result
    equals DuckDB's exact bit_count self-join — every run doubles as a
    banding-completeness assertion. ``max_bucket`` is lifted (the
    default 500-row degenerate-bucket guard would silently drop pairs
    if >500 docs shared a band value, breaking the completeness
    claim)."""
    from ..stages.dedup import simhash_neardup_pairs

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return simhash_neardup_pairs(ds, max_hamming=3, token_hash="md5",
                                 max_bucket=1 << 30)


NEARDUP_SIMHASH_SQL = r"""
WITH toks AS (
  SELECT doc_id,
         unnest(list_filter(string_split_regex(lower(coalesce(text, '')),
                                               '\s+'), x -> x <> '')) AS tok
  FROM documents
),
tc AS (SELECT doc_id, tok, count(*) AS c FROM toks GROUP BY doc_id, tok),
th AS (SELECT doc_id, ('0x' || substr(md5(tok), 1, 16))::UBIGINT AS h, c
       FROM tc),
bits AS (
  SELECT doc_id, b.b,
         sum(CASE WHEN (h >> b.b) & 1 = 1 THEN c ELSE -c END) AS vote
  FROM th, (SELECT unnest(generate_series(0, 63)) AS b) b
  GROUP BY doc_id, b.b
),
sig AS (
  SELECT doc_id,
         sum(CASE WHEN vote > 0 THEN (1::UBIGINT << b) ELSE 0 END)::UBIGINT
           AS sh
  FROM bits GROUP BY doc_id
),
allsig AS (
  SELECT d.doc_id, coalesce(s.sh, 0)::UBIGINT AS sh
  FROM documents d LEFT JOIN sig s USING (doc_id)
)
SELECT a.doc_id AS id_a, b.doc_id AS id_b,
       bit_count(xor(a.sh, b.sh))::BIGINT AS hamming
FROM allsig a JOIN allsig b ON a.doc_id < b.doc_id
WHERE bit_count(xor(a.sh, b.sh)) <= 3
"""


def langid_docs(sf_dir: str):
    from ..stages.analysis import LangId

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = ds.map_batches(LangId(), batch_format="pandas")
    return out.select_columns(["doc_id", "lang_pred"])


def doc_winnow_selection(sf_dir: str):
    """Winnowing SELECTION SET (Schleimer et al. 2003) with a FULL
    oracle: md5-portable k-gram hashes make the window-min selection
    SQL-replayable (MIN() OVER 15-PRECEDING frame + distinct), so the
    fingerprint algorithm itself — not just its digest — is
    oracle-verified. Doc-local, zero shuffle."""
    from ..stages.analysis import winnow_selection_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(
        lambda t: winnow_selection_batch(t), batch_format="pyarrow")


WINNOW_SELECTION_SQL = r"""
WITH norm AS (
  SELECT doc_id, trim(regexp_replace(lower(coalesce(text, '')),
                                     '\s+', ' ', 'g')) AS s
  FROM documents
),
pos AS (
  SELECT doc_id, i, substr(md5(substr(s, i, 8)), 1, 16) AS gh
  FROM norm, LATERAL unnest(generate_series(1, len(s) - 7)) AS t(i)
  WHERE len(s) >= 8
),
counts AS (SELECT doc_id, count(*) AS n FROM pos GROUP BY doc_id),
small AS (
  SELECT p.doc_id, min(p.gh) AS sel_hash
  FROM pos p JOIN counts c USING (doc_id)
  WHERE c.n <= 16 GROUP BY p.doc_id
),
wmin AS (
  SELECT p.doc_id, p.i, c.n,
         min(p.gh) OVER (PARTITION BY p.doc_id ORDER BY p.i
                         ROWS BETWEEN 15 PRECEDING AND CURRENT ROW) AS m
  FROM pos p JOIN counts c USING (doc_id)
),
big AS (
  SELECT DISTINCT doc_id, m AS sel_hash
  FROM wmin WHERE n > 16 AND i >= 16
)
SELECT doc_id, sel_hash FROM small
UNION ALL
SELECT doc_id, sel_hash FROM big
"""


def fingerprint_docs(sf_dir: str):
    """Winnowing document fingerprints (Schleimer et al. 2003) with the
    engine-portable md5 hash chain, so the FULL fingerprint — window
    minima AND digest — replays in SQL: the oracle reuses the
    doc_winnow_selection CTEs and digests each doc's sorted distinct
    minima with md5(string_agg(...)). Docs too short for one k-gram
    digest the empty string. The sip/blake2b fast path stays available
    via winnow_fingerprint(token_hash=\"sip\") for throughput-bound
    production runs."""
    from ..stages.analysis import fingerprint_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(
        lambda b: fingerprint_batch(b, token_hash="md5"),
        batch_format="pandas").select_columns(["doc_id", "fingerprint"])


FINGERPRINT_SQL = r"""
WITH norm AS (
  SELECT doc_id, trim(regexp_replace(lower(coalesce(text, '')),
                                     '\s+', ' ', 'g')) AS s
  FROM documents
),
pos AS (
  SELECT doc_id, i, substr(md5(substr(s, i, 8)), 1, 16) AS gh
  FROM norm, LATERAL unnest(generate_series(1, len(s) - 7)) AS t(i)
  WHERE len(s) >= 8
),
counts AS (SELECT doc_id, count(*) AS n FROM pos GROUP BY doc_id),
small AS (
  SELECT p.doc_id, min(p.gh) AS sel_hash
  FROM pos p JOIN counts c USING (doc_id)
  WHERE c.n <= 16 GROUP BY p.doc_id
),
wmin AS (
  SELECT p.doc_id, p.i, c.n,
         min(p.gh) OVER (PARTITION BY p.doc_id ORDER BY p.i
                         ROWS BETWEEN 15 PRECEDING AND CURRENT ROW) AS m
  FROM pos p JOIN counts c USING (doc_id)
),
big AS (
  SELECT DISTINCT doc_id, m AS sel_hash
  FROM wmin WHERE n > 16 AND i >= 16
),
sel AS (SELECT doc_id, sel_hash FROM small
        UNION ALL SELECT doc_id, sel_hash FROM big),
fp AS (
  SELECT doc_id, md5(string_agg(sel_hash, '' ORDER BY sel_hash))
           AS fingerprint
  FROM sel GROUP BY doc_id)
SELECT d.doc_id, coalesce(fp.fingerprint, md5('')) AS fingerprint
FROM documents d LEFT JOIN fp USING (doc_id)
"""


def ivf_cosine(sf_dir: str):
    """IVF ANN (k-means coarse quantizer, n_probe lists probed), fully
    oracle-checked via the PORTABLE centroid trainer
    (similarity.ivf_centroids_distributed(portable=True)): md5-ranked
    init rows + a 6 dp rounding barrier per Lloyd iteration make the
    codebook a closed-form function of the table, so _ivf_kmeans_sql
    unrolls the identical 8 iterations, probes the same 6 lists, and
    re-ranks the same candidates. The blake2b/seeded trainer stays the
    library default (ann_ivf_exhaustive pins its machinery)."""
    from ..stages.similarity import ivf_topk

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return ivf_topk(ds, KNN_QUERY_IDS, k=10, n_lists=16, n_probe=6,
                    portable=True)


KMEANS_ITERS = 8


def _kmeans_sql_prefix(n_lists: int = 16, iters: int = KMEANS_ITERS) -> str:
    """Shared DuckDB unroll of the portable distributed k-means
    (similarity.ivf_centroids_distributed(portable=True)): normalized
    vectors explode to (vec_id, j, x); init centroids are the
    ``n_lists`` smallest (md5-uniform, vec_id) rows rounded to 6 dp;
    each Lloyd iteration reassigns by max-dot (ties → lowest cid) and
    rebuilds centroids as round(Σx/‖Σx‖, 6), empty lists keeping their
    centroid. Ends with ``afin`` = final assignment against the last
    codebook. Every per-iteration CTE is MATERIALIZED (same DuckDB
    re-expansion blowup as _pca_power_sql)."""
    parts = [f"""
WITH raw AS MATERIALIZED (
  SELECT vec_id, generate_subscripts(embedding, 1) - 1 AS j,
         unnest(embedding)::DOUBLE AS x
  FROM embeddings),
vnorm AS (SELECT vec_id, sqrt(sum(x * x)) AS n FROM raw GROUP BY vec_id),
nv AS MATERIALIZED (
  SELECT r.vec_id, r.j, r.x / v.n AS x
  FROM raw r JOIN vnorm v USING (vec_id)),
sel AS (
  SELECT vec_id,
         ('0x' || substr(md5(vec_id::VARCHAR), 1, 8))::UBIGINT
           / 4294967296.0 AS u
  FROM embeddings ORDER BY u, vec_id LIMIT {n_lists}),
c0 AS MATERIALIZED (
  SELECT s.cid, nv.j, round(nv.x, 6) AS w
  FROM (SELECT vec_id,
               row_number() OVER (ORDER BY u, vec_id) - 1 AS cid
        FROM sel) s
  JOIN nv USING (vec_id))"""]
    for t in range(1, iters + 1):
        parts.append(f""",
d{t} AS MATERIALIZED (
  SELECT nv.vec_id, c.cid, sum(nv.x * c.w) AS dot
  FROM nv JOIN c{t - 1} c USING (j) GROUP BY nv.vec_id, c.cid),
a{t} AS MATERIALIZED (
  SELECT vec_id, cid FROM (
    SELECT vec_id, cid,
           row_number() OVER (PARTITION BY vec_id
                              ORDER BY dot DESC, cid) AS rn
    FROM d{t}) WHERE rn = 1),
s{t} AS MATERIALIZED (
  SELECT a.cid, nv.j, sum(nv.x) AS s
  FROM a{t} a JOIN nv USING (vec_id) GROUP BY a.cid, nv.j),
sn{t} AS (SELECT cid, sqrt(sum(s * s)) AS n FROM s{t} GROUP BY cid),
c{t} AS MATERIALIZED (
  SELECT p.cid, p.j,
         CASE WHEN sn.n IS NULL OR sn.n <= 0 THEN p.w
              ELSE round(s.s / sn.n, 6) END AS w
  FROM c{t - 1} p
  LEFT JOIN s{t} s ON s.cid = p.cid AND s.j = p.j
  LEFT JOIN sn{t} sn ON sn.cid = p.cid)""")
    parts.append(f""",
dfin AS MATERIALIZED (
  SELECT nv.vec_id, c.cid, sum(nv.x * c.w) AS dot
  FROM nv JOIN c{iters} c USING (j) GROUP BY nv.vec_id, c.cid),
afin AS MATERIALIZED (
  SELECT vec_id, cid FROM (
    SELECT vec_id, cid,
           row_number() OVER (PARTITION BY vec_id
                              ORDER BY dot DESC, cid) AS rn
    FROM dfin) WHERE rn = 1)""")
    return "".join(parts)


def _ivf_kmeans_sql(n_lists: int = 16, n_probe: int = 6, k: int = 10,
                    iters: int = KMEANS_ITERS) -> str:
    return _kmeans_sql_prefix(n_lists, iters) + f""",
qp AS (
  SELECT query_id, cid FROM (
    SELECT nv.vec_id AS query_id, c.cid,
           row_number() OVER (PARTITION BY nv.vec_id
                              ORDER BY sum(nv.x * c.w) DESC, c.cid) AS rn
    FROM nv JOIN c{iters} c USING (j)
    WHERE nv.vec_id IN (0, 1, 2, 3, 4)
    GROUP BY nv.vec_id, c.cid) WHERE rn <= {n_probe})
SELECT query_id, vec_id, rank FROM (
  SELECT p.query_id, a.vec_id,
         row_number() OVER (
           PARTITION BY p.query_id
           ORDER BY list_cosine_similarity(e2.embedding::DOUBLE[],
                                           q.embedding::DOUBLE[]) DESC,
                    a.vec_id) AS rank
  FROM qp p
  JOIN afin a ON a.cid = p.cid
  JOIN embeddings e2 ON e2.vec_id = a.vec_id
  JOIN embeddings q ON q.vec_id = p.query_id
  WHERE a.vec_id <> p.query_id
) WHERE rank <= {k}
"""


def neardup_keep_docs(sf_dir: str):
    """Full near-dup dedup: LSH pairs → connected components → one
    kept doc per group."""
    from ..stages.dedup import neardup_keep_set

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return neardup_keep_set(ds, threshold=0.7)


def ann_lsh_cosine(sf_dir: str):
    """Multiprobe LSH ANN, fully oracle-checked: md5-derived
    hyperplanes (similarity._md5_planes) make the WHOLE approximate
    path — sign-projection bucketing, lowest-|margin| 1-3-bit
    perturbation ranking, (score, bucket) tie order, per-bucket exact
    search, global re-rank — a deterministic engine-portable function
    that ANN_LSH_SQL replays verbatim. The Gaussian-plane variant
    stays the library default (spherical symmetry ⇒ the textbook
    collision-probability bound)."""
    from ..stages.similarity import ann_lsh_topk

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return ann_lsh_topk(ds, KNN_QUERY_IDS, k=10, n_bits=6, n_probe=16,
                        plane_hash="md5")


# Exact replay of ann_lsh_topk(n_bits=6, n_probe=16, plane_hash="md5"):
# plane weights from the md5 uniform; bucket = Σ 2^b over positive
# projections; per query, candidate buckets = base XOR masks of 1-3-bit
# subsets of the six planes ranked by |projection|, taken in (score,
# bucket) order until 15 extras join the base bucket; exact cosine
# top-10 over the probed buckets' members. Projections use the raw
# (unnormalized) vectors — signs, |margin| order, and score order are
# invariant under the positive per-query scaling the engine applies.
ANN_LSH_SQL = """
WITH dims AS (SELECT len(embedding) AS d FROM embeddings LIMIT 1),
planes AS MATERIALIZED (
  SELECT t.j, bb.b,
         2.0 * (('0x' || substr(md5('lshp:' || bb.b || ':' || t.j), 1, 8))
                ::UBIGINT / 4294967296.0) - 1.0 AS w
  FROM dims, LATERAL unnest(generate_series(0, d - 1)) AS t(j),
       (VALUES (0), (1), (2), (3), (4), (5)) AS bb(b)),
e AS MATERIALIZED (
  SELECT vec_id, generate_subscripts(embedding, 1) - 1 AS j,
         unnest(embedding)::DOUBLE AS val
  FROM embeddings),
dots AS MATERIALIZED (
  SELECT e.vec_id, p.b, sum(e.val * p.w) AS dot
  FROM e JOIN planes p ON p.j = e.j GROUP BY e.vec_id, p.b),
buckets AS MATERIALIZED (
  SELECT vec_id,
         sum(CASE WHEN dot > 0 THEN 1 << b ELSE 0 END)::BIGINT AS bucket
  FROM dots GROUP BY vec_id),
qd AS (SELECT vec_id AS query_id, b, dot FROM dots
       WHERE vec_id IN (0, 1, 2, 3, 4)),
ranked AS (
  SELECT query_id, b, abs(dot) AS a,
         row_number() OVER (PARTITION BY query_id ORDER BY abs(dot)) AS r
  FROM qd),
cands AS (
  SELECT query_id, a AS score, (1 << b)::BIGINT AS mask FROM ranked
  UNION ALL
  SELECT x.query_id, x.a + y.a, ((1 << x.b) | (1 << y.b))::BIGINT
  FROM ranked x JOIN ranked y
    ON x.query_id = y.query_id AND x.r < y.r
  UNION ALL
  SELECT x.query_id, x.a + y.a + z.a,
         ((1 << x.b) | (1 << y.b) | (1 << z.b))::BIGINT
  FROM ranked x
  JOIN ranked y ON x.query_id = y.query_id AND x.r < y.r
  JOIN ranked z ON y.query_id = z.query_id AND y.r < z.r),
base AS (SELECT vec_id AS query_id, bucket AS base FROM buckets
         WHERE vec_id IN (0, 1, 2, 3, 4)),
perturbed AS (
  SELECT c.query_id, xor(b.base, c.mask) AS bucket,
         row_number() OVER (PARTITION BY c.query_id
                            ORDER BY c.score, xor(b.base, c.mask)) AS rn
  FROM cands c JOIN base b USING (query_id)),
probed AS (
  SELECT query_id, base AS bucket FROM base
  UNION ALL
  SELECT query_id, bucket FROM perturbed WHERE rn <= 15)
SELECT query_id, vec_id, rank FROM (
  SELECT p.query_id, bk.vec_id,
         row_number() OVER (
           PARTITION BY p.query_id
           ORDER BY list_cosine_similarity(e2.embedding::DOUBLE[],
                                           q.embedding::DOUBLE[]) DESC,
                    bk.vec_id) AS rank
  FROM probed p
  JOIN buckets bk ON bk.bucket = p.bucket
  JOIN embeddings e2 ON e2.vec_id = bk.vec_id
  JOIN embeddings q ON q.vec_id = p.query_id
  WHERE bk.vec_id <> p.query_id
) WHERE rank <= 10
"""


def neardup_jaccard_docs(sf_dir: str):
    """EXACT word-5-gram Jaccard near-dup pairs (inverted-index
    blocked; oracle: DuckDB set-overlap self-join over the same
    grams)."""
    from ..stages.dedup import jaccard_neardup_pairs

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return jaccard_neardup_pairs(ds, n=5, threshold=0.5)


# Word 5-gram Jaccard over lowered, whitespace-split text — tokenization
# mirrors Python's str.split(); gram identity by full string (the Ray
# side hashes the same strings at 64 bits: collision odds negligible).
NEARDUP_JACCARD_SQL = r"""
WITH toks AS (
  SELECT doc_id, regexp_split_to_array(lower(trim(text)), '\s+') AS t
  FROM documents WHERE trim(coalesce(text, '')) <> ''
),
g AS (
  SELECT DISTINCT doc_id,
         unnest([array_to_string(t[i:i+4], ' ')
                 for i in range(1, greatest(len(t) - 4, 0) + 1)]) AS gram
  FROM toks
),
sizes AS (SELECT doc_id, count(*) AS n FROM g GROUP BY doc_id),
inter AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*) AS c
  FROM g a JOIN g b ON a.gram = b.gram AND a.doc_id < b.doc_id
  GROUP BY 1, 2
)
SELECT id_a, id_b, c::DOUBLE / (sa.n + sb.n - c) AS jaccard_sim
FROM inter
JOIN sizes sa ON sa.doc_id = inter.id_a
JOIN sizes sb ON sb.doc_id = inter.id_b
WHERE c::DOUBLE / (sa.n + sb.n - c) >= 0.5
"""


def neardup_jaccard_keep_docs(sf_dir: str):
    """Exact-Jaccard dedup end-to-end: pairs → min-label components →
    keep min doc per group (oracle: recursive-CTE min-reachability)."""
    from ..stages.dedup import jaccard_keep_set

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return jaccard_keep_set(ds, n=5, threshold=0.5)


NEARDUP_JACCARD_KEEP_SQL = r"""
WITH RECURSIVE toks AS (
  SELECT doc_id, regexp_split_to_array(lower(trim(text)), '\s+') AS t
  FROM documents WHERE trim(coalesce(text, '')) <> ''
),
g AS (
  SELECT DISTINCT doc_id,
         unnest([array_to_string(t[i:i+4], ' ')
                 for i in range(1, greatest(len(t) - 4, 0) + 1)]) AS gram
  FROM toks
),
sizes AS (SELECT doc_id, count(*) AS n FROM g GROUP BY doc_id),
inter AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*) AS c
  FROM g a JOIN g b ON a.gram = b.gram AND a.doc_id < b.doc_id
  GROUP BY 1, 2
),
pairs AS (
  SELECT id_a, id_b
  FROM inter
  JOIN sizes sa ON sa.doc_id = inter.id_a
  JOIN sizes sb ON sb.doc_id = inter.id_b
  WHERE c::DOUBLE / (sa.n + sb.n - c) >= 0.5
),
edges AS (
  SELECT id_a AS src, id_b AS dst FROM pairs
  UNION SELECT id_b, id_a FROM pairs
),
reach(node, r) AS (
  SELECT DISTINCT src, src FROM edges
  UNION
  SELECT e.dst, reach.r FROM reach JOIN edges e ON e.src = reach.node
),
comp AS (SELECT node, min(r) AS group_root FROM reach GROUP BY node)
SELECT d.doc_id,
       coalesce(c.group_root, d.doc_id) AS group_root,
       coalesce(c.group_root, d.doc_id) = d.doc_id AS kept
FROM documents d LEFT JOIN comp c ON c.node = d.doc_id
"""


# ── exact distributed quantiles / heavy hitters / BM25 / rollup ──────

def quantiles_price(sf_dir: str):
    """Exact quantile_disc over l_extendedprice via iterative histogram
    refinement (stages/quantiles.py) — the column never materializes;
    small buckets/cap here deliberately force multi-round refinement +
    final exact gathers so the scale path is what's oracle-checked."""
    from pdf_to_text_ray.stages.quantiles import exact_quantiles

    ds = _lineitem(sf_dir, ["l_extendedprice"])
    return exact_quantiles(ds, "l_extendedprice",
                           [0.01, 0.25, 0.5, 0.75, 0.9, 0.99],
                           n_buckets=64, collect_cap=500)


QUANTILES_SQL = """
SELECT 0.01::DOUBLE AS q, quantile_disc(l_extendedprice, 0.01) AS value FROM lineitem
UNION ALL
SELECT 0.25::DOUBLE, quantile_disc(l_extendedprice, 0.25) FROM lineitem
UNION ALL
SELECT 0.5::DOUBLE, quantile_disc(l_extendedprice, 0.5) FROM lineitem
UNION ALL
SELECT 0.75::DOUBLE, quantile_disc(l_extendedprice, 0.75) FROM lineitem
UNION ALL
SELECT 0.9::DOUBLE, quantile_disc(l_extendedprice, 0.9) FROM lineitem
UNION ALL
SELECT 0.99::DOUBLE, quantile_disc(l_extendedprice, 0.99) FROM lineitem
ORDER BY q
"""


def event_value_quantiles(sf_dir: str):
    """Per-group exact quantiles: every (event_type, q) pair is one
    spec in the shared refinement rounds — pass count is O(rounds),
    independent of group count."""
    from pdf_to_text_ray.stages.quantiles import exact_group_quantiles

    ds = _read(sf_dir, "events", ["event_type", "value"])
    return exact_group_quantiles(ds, "event_type", "value",
                                 [0.25, 0.5, 0.75, 0.9],
                                 n_buckets=64, collect_cap=500)


GROUP_QUANTILES_SQL = """
SELECT event_type,
       quantile_disc(value, 0.25) AS q_25,
       quantile_disc(value, 0.5)  AS q_50,
       quantile_disc(value, 0.75) AS q_75,
       quantile_disc(value, 0.9)  AS q_90
FROM events
GROUP BY event_type
ORDER BY event_type
"""


def purchase_value_per_user_salted(sf_dir: str):
    """Skew-defusing variant of purchase_value_per_user: two-stage
    salted aggregation (stages/groups.py::salted_group_agg) — a hot
    user's rows split across 16 salt reducers before the per-key
    merge. Same oracle as the unsalted query."""
    from pdf_to_text_ray.stages.groups import salted_group_agg

    ds = _read(sf_dir, "events", ["user_id", "event_type", "value"])

    def mask(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "user_id": b["user_id"],
            "purchase_value_raw": np.where(b["event_type"] == "purchase",
                                           b["value"], 0.0),
        })

    out = salted_group_agg(
        ds.map_batches(mask, batch_format="pandas"),
        "user_id", sum_cols=["purchase_value_raw"], count_alias="n_events",
    ).to_pandas()
    out = out.rename(columns={"purchase_value_raw": "purchase_value"})
    out["purchase_value"] = round2(out["purchase_value"])
    out["n_events"] = out["n_events"].astype("int64")
    out["user_id"] = out["user_id"].astype("int64")
    return out[["user_id", "purchase_value", "n_events"]]


def approx_quantiles_value(sf_dir: str):
    """One-pass sketch quantiles vs the exact engine, encoded like
    approx_distinct_users: the EXACT quantile values (SQL-verified)
    plus a rank-error flag for the sketch estimate (rank measured by
    one distributed count pass per q)."""
    from pdf_to_text_ray.stages.quantiles import exact_quantiles
    from pdf_to_text_ray.stages.sketches import approx_quantiles

    qs = [0.25, 0.5, 0.75, 0.9]
    ds = _read(sf_dir, "events", ["value"])
    exact = exact_quantiles(ds, "value", qs, n_buckets=64, collect_cap=500)
    est = approx_quantiles(ds, "value", qs)
    n = ds.count()

    def rank_of(x: float) -> int:
        return ds.map_batches(
            lambda t, x=x: pa.table({"c": pa.array(
                [int(pc.sum(pc.cast(pc.less_equal(t["value"], pa.scalar(x)),
                                    pa.int64())).as_py() or 0)], pa.int64())}),
            batch_format="pyarrow").to_pandas()["c"].sum()

    flags = [bool(abs(rank_of(e) / n - q) <= 0.01)
             for e, q in zip(est, qs)]
    return pd.DataFrame({"q": pd.Series(qs, dtype="float64"),
                         "value": exact["value"],
                         "sketch_within_1pct_rank": flags})


APPROX_QUANTILES_SQL = """
SELECT 0.25::DOUBLE AS q, quantile_disc(value, 0.25) AS value,
       true AS sketch_within_1pct_rank FROM events
UNION ALL
SELECT 0.5::DOUBLE, quantile_disc(value, 0.5), true FROM events
UNION ALL
SELECT 0.75::DOUBLE, quantile_disc(value, 0.75), true FROM events
UNION ALL
SELECT 0.9::DOUBLE, quantile_disc(value, 0.9), true FROM events
ORDER BY q
"""


def heavy_hitter_tokens(sf_dir: str):
    """Exact top-25 tokens: Misra-Gries candidate pass + exact-count
    verify pass (stages/sketches.py) — the token stream never
    shuffles, only ≤capacity (token, cnt) partials per batch."""
    from pdf_to_text_ray.stages.sketches import heavy_hitter_tokens as hh

    ds = _read(sf_dir, "documents", ["text"])
    return hh(ds, k=25, capacity=2048)


HEAVY_HITTERS_SQL = """
SELECT t AS token, count(*) AS cnt
FROM (SELECT unnest(string_split_regex(lower(text), '[^a-z0-9]+')) AS t
      FROM documents)
WHERE t <> ''
GROUP BY t
ORDER BY cnt DESC, token ASC
LIMIT 25
"""


BM25_TERMS = ["hash", "join", "stream", "window"]


def bm25_doc_scores(sf_dir: str):
    """Per-(doc, term) BM25 scores for a fixed query term set
    (stages/analysis.py::bm25_term_scores): distributed df/avgdl
    partials + per-doc scoring; per-term rows keep the float math
    order-free so the SQL twin is bit-stable."""
    from pdf_to_text_ray.stages.analysis import bm25_term_scores

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return bm25_term_scores(ds, BM25_TERMS)


BM25_SQL = """
WITH toks AS (
  SELECT doc_id,
         list_filter(string_split_regex(lower(text), '[^a-z0-9]+'),
                     x -> x <> '') AS ts
  FROM documents
),
stats AS (SELECT count(*) AS n_docs, avg(len(ts)) AS avgdl FROM toks),
terms(term) AS (VALUES ('hash'), ('join'), ('stream'), ('window')),
df AS (
  SELECT term, count(*) AS df
  FROM toks, terms WHERE list_contains(ts, term) GROUP BY term
),
tf AS (
  SELECT doc_id, term, len(list_filter(ts, x -> x = term)) AS tf,
         len(ts) AS dl
  FROM toks, terms
)
SELECT t.doc_id, t.term,
       round(ln((s.n_docs - d.df + 0.5) / (d.df + 0.5) + 1)
             * (t.tf * (1.2 + 1))
             / (t.tf + 1.2 * (1 - 0.75 + 0.75 * t.dl / s.avgdl)), 6)
         AS score
FROM tf t JOIN df d USING (term) CROSS JOIN stats s
WHERE t.tf > 0
ORDER BY t.doc_id, t.term
"""


INDEX_TERMS = ["hash", "vector", "window"]


def inverted_index_lookup(sf_dir: str):
    """Build the sharded inverted index once per sf (hive-partitioned
    parquet, one dir per token-hash shard), then serve the term lookup
    by reading ONLY the shards the query terms hash to."""
    from pdf_to_text_ray.stages.index import (
        build_inverted_index, lookup_postings)

    out_dir = _build_once(
        _cache_dir("invindex", 2, os.path.join(sf_dir, "documents.parquet")),
        lambda d: build_inverted_index(
            _read(sf_dir, "documents", ["doc_id", "text"]), d,
            num_shards=16))
    return lookup_postings(out_dir, INDEX_TERMS, num_shards=16)


INV_INDEX_SQL = """
SELECT DISTINCT t AS token, doc_id
FROM (SELECT doc_id,
             unnest(string_split_regex(lower(text), '[^a-z0-9]+')) AS t
      FROM documents)
WHERE t IN ('hash', 'vector', 'window')
ORDER BY token, doc_id
"""


def doc_length_quartile(sf_dir: str):
    """Value-bucket assignment by exact quantile boundaries (composes
    the histogram-refinement quantile engine): boundaries computed
    distributed, then one vectorized searchsorted pass tags each doc."""
    from pdf_to_text_ray.stages.quantiles import exact_quantiles

    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    bounds = exact_quantiles(ds, "n_chars", [0.25, 0.5, 0.75],
                             n_buckets=64, collect_cap=500)
    edges = bounds["value"].to_numpy()

    def tag(t: pa.Table) -> pa.Table:
        v = t["n_chars"].to_numpy(zero_copy_only=False)
        # side="right": a value equal to a boundary belongs to the
        # upper bucket (SQL's strict `< b` CASE arms)
        quart = np.searchsorted(edges, v, side="right") + 1
        return pa.table({"doc_id": t["doc_id"],
                         "quartile": pa.array(quart, pa.int64())})

    return ds.map_batches(tag, batch_format="pyarrow")


DOC_QUARTILE_SQL = """
WITH b AS (SELECT quantile_disc(n_chars, 0.25) AS b1,
                  quantile_disc(n_chars, 0.5)  AS b2,
                  quantile_disc(n_chars, 0.75) AS b3
           FROM documents)
SELECT doc_id,
       CASE WHEN n_chars < b1 THEN 1
            WHEN n_chars < b2 THEN 2
            WHEN n_chars < b3 THEN 3
            ELSE 4 END AS quartile
FROM documents, b
"""


def join_part_supplier_auto(sf_dir: str):
    """auto_join planner: part (scan-rooted, small at test sf) joins
    supplier counts — the planner picks broadcast under the size
    limit, bucketed-hash beyond it; both routes parity-tested."""
    from pdf_to_text_ray.stages.joins import auto_join

    part = _read(sf_dir, "part", ["p_partkey", "p_name"])
    li = _lineitem(sf_dir, ["l_partkey", "l_quantity"])
    # key names differ; project lineitem key to the part key name first
    li = li.map_batches(
        lambda t: t.rename_columns(["p_partkey", "l_quantity"]),
        batch_format="pyarrow")
    joined = auto_join(li, part, on="p_partkey", how="inner")
    from pdf_to_text_ray.stages.groups import bucketed_group_apply

    # p_partkey is high-cardinality (~|part| groups): Ray's sort-based
    # Aggregate walks groups at Python speed. Map-side combine first
    # (per-batch pandas groupby → ≤ distinct-keys partial rows, and the
    # carried p_name never enters the exchange), then one bucketed
    # vectorized merge of the partials.
    def partial(t: pa.Table) -> pa.Table:
        g = (t.select(["p_partkey", "l_quantity"]).to_pandas()
             .groupby("p_partkey", sort=False)["l_quantity"]
             .agg(n_lines="size", total_qty="sum").reset_index())
        g["n_lines"] = g["n_lines"].astype("int64")
        return arrow_out(g)

    out = bucketed_group_apply(
        joined.map_batches(partial, batch_format="pyarrow"), "p_partkey",
        lambda g: g.groupby("p_partkey", as_index=False).sum(),
        num_buckets=32).to_pandas()
    out["n_lines"] = out["n_lines"].astype("int64")
    out["total_qty"] = round2(out["total_qty"])
    return out.sort_values("p_partkey").reset_index(drop=True)


JOIN_AUTO_SQL = """
SELECT l_partkey AS p_partkey, count(*) AS n_lines,
       round(sum(l_quantity), 2) AS total_qty
FROM lineitem JOIN part ON l_partkey = p_partkey
GROUP BY l_partkey
ORDER BY p_partkey
"""


def orders_rollup_volume(sf_dir: str):
    """GROUP BY ROLLUP(status, priority): per-batch partials at the
    finest grain (a schema-bounded key), super-aggregate levels derived
    from the tiny grouped result (counts re-sum exactly; price sums
    round2'd)."""
    ds = _read(sf_dir, "orders",
               ["o_orderstatus", "o_orderpriority", "o_totalprice"])
    fine = grouped_partials(
        ds, ["o_orderstatus", "o_orderpriority"], sums=["o_totalprice"],
        count="n").rename(columns={"o_totalprice": "total"})
    mid = (fine.groupby("o_orderstatus", as_index=False)
           .agg(n=("n", "sum"), total=("total", "sum")))
    mid["o_orderpriority"] = None
    top = pd.DataFrame({"o_orderstatus": [None], "o_orderpriority": [None],
                        "n": [int(fine["n"].sum())],
                        "total": [float(fine["total"].sum())]})
    out = pd.concat([fine, mid, top], ignore_index=True)
    out["n"] = out["n"].astype("int64")
    out["total"] = round2(out["total"])
    return (out[["o_orderstatus", "o_orderpriority", "n", "total"]]
            .sort_values(["o_orderstatus", "o_orderpriority"],
                         na_position="first")
            .reset_index(drop=True))


ROLLUP_SQL = """
SELECT o_orderstatus, o_orderpriority,
       count(*) AS n, round(sum(o_totalprice), 2) AS total
FROM orders
GROUP BY ROLLUP(o_orderstatus, o_orderpriority)
ORDER BY o_orderstatus NULLS FIRST, o_orderpriority NULLS FIRST
"""


def q5_local_supplier_volume(sf_dir: str):
    """TPC-H Q5 shape — six-table join pipeline, scale-typed per side:
    region/nation/supplier broadcast (tiny / per-nation bounded),
    orders⋈customer and lineitem⋈(orders+cust) as bucketed hash joins
    (the two fact-fact edges), revenue pre-aggregated per batch before
    the final small groupby."""
    import ray

    from pdf_to_text_ray.stages.joins import bucketed_hash_join

    # broadcast side: ASIA nations + supplier→nation
    nation = _read(sf_dir, "nation").to_pandas()
    region = _read(sf_dir, "region").to_pandas()
    asia_keys = region.loc[region["r_name"] == "ASIA", "r_regionkey"]
    asia_nations = nation[nation["n_regionkey"].isin(asia_keys)]
    n_names = dict(zip(asia_nations["n_nationkey"], asia_nations["n_name"]))
    supp = (_read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
            .to_pandas().sort_values("s_suppkey"))  # searchsorted probe
    supp_ref = ray.put((supp["s_suppkey"].to_numpy(),
                        supp["s_nationkey"].to_numpy(), n_names))

    lo = pd.Timestamp("1996-01-01")
    hi = pd.Timestamp("1997-01-01")
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey",
                                      "o_orderdate"]).map_batches(
        lambda t: (t.filter(
            pc.and_(pc.greater_equal(t["o_orderdate"], pa.scalar(lo)),
                    pc.less(t["o_orderdate"], pa.scalar(hi))))
            .select(["o_orderkey", "o_custkey"])
            .rename_columns(["o_orderkey", "c_custkey"])),
        batch_format="pyarrow")
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    o_c = bucketed_hash_join(orders, cust, on="c_custkey")

    li = _lineitem(sf_dir, ["l_orderkey", "l_suppkey", "l_extendedprice",
                            "l_discount"]).map_batches(
        lambda t: t.rename_columns(
            ["o_orderkey", "l_suppkey", "l_extendedprice", "l_discount"]),
        batch_format="pyarrow")
    joined = bucketed_hash_join(
        li, o_c.map_batches(lambda t: t.select(["o_orderkey", "c_nationkey"]),
                            batch_format="pyarrow"),
        on="o_orderkey")

    def revenue_partial(t: pa.Table):
        b = t.to_pandas()
        sk, sn, names = ray.get(supp_ref)
        hit, idx = probe_sorted(sk, b["l_suppkey"].to_numpy())
        s_nat = np.full(len(b), -1, sn.dtype)
        s_nat[hit] = sn[idx[hit]]
        keep = (s_nat == b["c_nationkey"].to_numpy()) & \
            np.isin(s_nat, list(names.keys()))
        b = b[keep]
        rev = (b["l_extendedprice"] * (1 - b["l_discount"]))
        return pa.table({"n_nat": s_nat[keep], "revenue": rev.to_numpy()})

    agg = grouped_partials(joined, "n_nat", sums=["revenue"],
                           prep=revenue_partial)
    agg["n_name"] = agg["n_nat"].map(n_names)
    agg["revenue"] = round2(agg["revenue"])
    return (agg[["n_name", "revenue"]]
            .sort_values(["revenue", "n_name"], ascending=[False, True])
            .reset_index(drop=True))


Q5_SQL = """
SELECT n_name, round(sum(l_extendedprice * (1 - l_discount)), 2) AS revenue
FROM customer, orders, lineitem, supplier, nation, region
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
  AND r_name = 'ASIA'
  AND o_orderdate >= TIMESTAMP '1996-01-01'
  AND o_orderdate <  TIMESTAMP '1997-01-01'
GROUP BY n_name
ORDER BY revenue DESC, n_name
"""


def q18_large_orders(sf_dir: str):
    """TPC-H Q18 shape (HAVING over a grouped fact + two joins): the
    HAVING filter runs distributed on the grouped aggregate, the
    surviving key set is tiny → broadcast-joined to orders/customer."""
    import ray

    from ..stages.groups import bucketed_group_apply

    def qty_partial(t: pa.Table) -> pa.Table:
        b = pd.DataFrame({
            "l_orderkey": t["l_orderkey"].to_numpy(zero_copy_only=False),
            "sum_qty": t["l_quantity"].to_numpy(zero_copy_only=False)})
        return arrow_out(b.groupby("l_orderkey", as_index=False).sum())

    # per-order Sum + HAVING via one bucketed exchange of per-batch
    # partials — |orders| one-row groups hit Ray's Python-speed sort
    # aggregate otherwise
    big = bucketed_group_apply(
        _lineitem(sf_dir, ["l_orderkey", "l_quantity"])
        .map_batches(qty_partial, batch_format="pyarrow"),
        "l_orderkey",
        lambda df: df.groupby("l_orderkey", as_index=False).sum()
        .query("sum_qty > 150.0"),
        num_buckets=16).to_pandas()
    big_ref = ray.put(dict(zip(big["l_orderkey"], big["sum_qty"])))

    def attach(b: pd.DataFrame) -> pd.DataFrame:
        m = ray.get(big_ref)
        b = b[b["o_orderkey"].isin(m.keys())].copy()
        b["sum_qty"] = b["o_orderkey"].map(m)
        return b

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_totalprice"]
                   ).map_batches(attach, batch_format="pandas")
    cust = _read(sf_dir, "customer", ["c_custkey", "c_name"]).to_pandas()
    out = orders.to_pandas().merge(
        cust, left_on="o_custkey", right_on="c_custkey")
    out["o_totalprice"] = round2(out["o_totalprice"])
    out["sum_qty"] = round2(out["sum_qty"])
    return (out[["c_name", "o_orderkey", "o_totalprice", "sum_qty"]]
            .sort_values(["o_totalprice", "o_orderkey"],
                         ascending=[False, True])
            .reset_index(drop=True))


Q18_SQL = """
SELECT c_name, o_orderkey, round(o_totalprice, 2) AS o_totalprice,
       round(sum_qty, 2) AS sum_qty
FROM (SELECT l_orderkey, sum(l_quantity) AS sum_qty
      FROM lineitem GROUP BY l_orderkey
      HAVING sum(l_quantity) > 150.0) big
JOIN orders ON o_orderkey = l_orderkey
JOIN customer ON c_custkey = o_custkey
ORDER BY o_totalprice DESC, o_orderkey
"""


def lineitem_price_corr(sf_dir: str):
    """Distributed Pearson correlation: one pass of per-batch moment
    partials (n, Σx, Σy, Σxy, Σx², Σy² — six doubles per batch),
    merged on the driver. The canonical custom-algebraic-aggregate
    shape: no shuffle, state is O(1)."""
    ds = _lineitem(sf_dir, ["l_quantity", "l_extendedprice"])

    def partial(t: pa.Table) -> pa.Table:
        x = t["l_quantity"].to_numpy(zero_copy_only=False)
        y = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        return pa.table({
            "n": pa.array([len(x)], pa.int64()),
            "sx": pa.array([float(x.sum())], pa.float64()),
            "sy": pa.array([float(y.sum())], pa.float64()),
            "sxy": pa.array([float((x * y).sum())], pa.float64()),
            "sxx": pa.array([float((x * x).sum())], pa.float64()),
            "syy": pa.array([float((y * y).sum())], pa.float64()),
        })

    p = ds.map_batches(partial, batch_format="pyarrow").to_pandas().sum()
    n = float(p["n"])
    cov = p["sxy"] / n - (p["sx"] / n) * (p["sy"] / n)
    vx = p["sxx"] / n - (p["sx"] / n) ** 2
    vy = p["syy"] / n - (p["sy"] / n) ** 2
    corr = cov / np.sqrt(vx * vy)
    return pd.DataFrame({"corr_qty_price": round2(np.asarray([corr * 1.0]))})


CORR_SQL = """
SELECT round(corr(l_quantity, l_extendedprice), 2) AS corr_qty_price
FROM lineitem
"""


def orders_percent_rank(sf_dir: str):
    """Global window function percent_rank() OVER (ORDER BY
    o_totalprice): distributed (value → count) aggregate, cumulative
    ranks over the sorted distinct values (bounded by |distinct|;
    beyond broadcast budgets, the histogram-refinement quantile engine
    supplies range boundaries instead), broadcast + searchsorted per
    batch. Ties share a rank, as SQL defines."""
    import ray

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    from ray.data.aggregate import Count

    vc = (ds.groupby("o_totalprice").aggregate(Count(alias_name="c"))
          .to_pandas().sort_values("o_totalprice"))
    vals = vc["o_totalprice"].to_numpy()
    below = np.concatenate([[0], np.cumsum(vc["c"].to_numpy())[:-1]])
    n = int(vc["c"].sum())
    ref = ray.put((vals, below))

    def rank_batch(t: pa.Table) -> pa.Table:
        v, b = ray.get(ref)
        x = t["o_totalprice"].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(v, x)
        pr = b[idx] / (n - 1) if n > 1 else np.zeros(len(x))
        pr = np.floor(np.abs(pr) * 1e6 + 0.5) / 1e6
        return pa.table({"o_orderkey": t["o_orderkey"],
                         "percent_rank": pa.array(pr, pa.float64())})

    return ds.map_batches(rank_batch, batch_format="pyarrow")


PERCENT_RANK_SQL = """
SELECT o_orderkey,
       round(percent_rank() OVER (ORDER BY o_totalprice), 6) AS percent_rank
FROM orders
"""


def mode_event_per_user(sf_dir: str):
    """Per-group MODE with deterministic ties (count desc, value asc):
    distributed (user, event_type) counts, then a bucketed vectorized
    argmax per user — two small shuffles, payload never moves."""
    from pdf_to_text_ray.stages.groups import bucketed_group_apply
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "events", ["user_id", "event_type"])
    counts = (ds.groupby(["user_id", "event_type"])
              .aggregate(Count(alias_name="c")))

    def pick(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "c", "event_type"],
                            ascending=[True, False, True], kind="mergesort")
        top = df.groupby("user_id", sort=True).head(1)
        return pd.DataFrame({
            "user_id": top["user_id"].astype("int64"),
            "mode_event": top["event_type"],
        })

    out = bucketed_group_apply(counts, "user_id", pick).to_pandas()
    return out.sort_values("user_id").reset_index(drop=True)


MODE_SQL = """
WITH c AS (SELECT user_id, event_type, count(*) AS c
           FROM events GROUP BY user_id, event_type),
r AS (SELECT user_id, event_type,
             row_number() OVER (PARTITION BY user_id
                                ORDER BY c DESC, event_type ASC) AS rn
      FROM c)
SELECT user_id, event_type AS mode_event FROM r WHERE rn = 1
ORDER BY user_id
"""


def q10_returned_revenue(sf_dir: str):
    """TPC-H Q10 shape — revenue lost to returned items per customer:
    date-pruned orders ⋈ returnflag-filtered lineitem as a bucketed
    hash join (both fact sides), per-batch revenue partials before the
    customer groupby, top-20 on the tiny grouped result, names
    attached from a driver-side point read of the survivors only."""
    from ray.data.aggregate import Sum

    from pdf_to_text_ray.stages.joins import bucketed_hash_join

    lo = pd.Timestamp("1996-01-01")
    hi = pd.Timestamp("1996-04-01")
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate"]).map_batches(
        lambda t: (t.filter(
            pc.and_(pc.greater_equal(t["o_orderdate"], pa.scalar(lo)),
                    pc.less(t["o_orderdate"], pa.scalar(hi))))
            .select(["o_orderkey", "o_custkey"])),
        batch_format="pyarrow")

    def returned_rev(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["l_returnflag"], pa.scalar("R")))
        rev = pc.multiply(t["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return pa.table({"o_orderkey": t["l_orderkey"], "rev": rev})

    li = _lineitem(sf_dir, ["l_orderkey", "l_returnflag",
                            "l_extendedprice", "l_discount"]
                   ).map_batches(returned_rev, batch_format="pyarrow")
    joined = bucketed_hash_join(li, orders, on="o_orderkey")

    def partial(t: pa.Table):
        b = t.to_pandas()
        return arrow_out(b.groupby("o_custkey", as_index=False)["rev"].sum())

    agg = (joined.map_batches(partial, batch_format="pyarrow")
           .groupby("o_custkey").aggregate(Sum("rev", alias_name="rev"))
           .to_pandas())
    top = (agg.sort_values(["rev", "o_custkey"], ascending=[False, True])
           .head(20))
    cust = _read(sf_dir, "customer", ["c_custkey", "c_name"]).map_batches(
        lambda t: t.filter(pc.is_in(
            t["c_custkey"], value_set=pa.array(top["o_custkey"], pa.int64()))),
        batch_format="pyarrow").to_pandas()
    out = top.merge(cust, left_on="o_custkey", right_on="c_custkey")
    out["revenue"] = round2(out["rev"])
    return (out[["c_custkey", "c_name", "revenue"]]
            .sort_values(["revenue", "c_custkey"], ascending=[False, True])
            .reset_index(drop=True))


Q10_SQL = """
WITH rev AS (
  SELECT o_custkey, sum(l_extendedprice * (1 - l_discount)) AS rev
  FROM lineitem JOIN orders ON l_orderkey = o_orderkey
  WHERE l_returnflag = 'R'
    AND o_orderdate >= TIMESTAMP '1996-01-01'
    AND o_orderdate <  TIMESTAMP '1996-04-01'
  GROUP BY o_custkey
  ORDER BY rev DESC, o_custkey LIMIT 20)
SELECT c_custkey, c_name, round(rev, 2) AS revenue
FROM rev JOIN customer ON c_custkey = o_custkey
ORDER BY revenue DESC, c_custkey
"""


def q14_promo_revenue(sf_dir: str):
    """TPC-H Q14 shape — promo revenue share for one ship month. The
    part side ships ONCE as a broadcast pair of sorted arrays
    (p_partkey, is_promo); each lineitem batch contributes two scalar
    partials (promo/total revenue) — no shuffle at all, merge is a
    2-double sum on the driver."""
    import ray

    part = (_read(sf_dir, "part", ["p_partkey", "p_type"])
            .to_pandas().sort_values("p_partkey"))
    part_ref = ray.put((part["p_partkey"].to_numpy(),
                        (part["p_type"] == "PROMO").to_numpy()))
    lo = pd.Timestamp("1996-06-01")
    hi = pd.Timestamp("1996-07-01")

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.and_(
            pc.greater_equal(t["l_shipdate"], pa.scalar(lo)),
            pc.less(t["l_shipdate"], pa.scalar(hi))))
        keys, promo = ray.get(part_ref)
        pk = t["l_partkey"].to_numpy(zero_copy_only=False)
        is_promo, idx = probe_sorted(keys, pk)
        is_promo[is_promo] = promo[idx[is_promo]]
        rev = (t["l_extendedprice"].to_numpy(zero_copy_only=False)
               * (1.0 - t["l_discount"].to_numpy(zero_copy_only=False)))
        return pa.table({
            "promo": pa.array([float(rev[is_promo].sum())], pa.float64()),
            "total": pa.array([float(rev.sum())], pa.float64()),
        })

    p = (_lineitem(sf_dir, ["l_partkey", "l_shipdate",
                            "l_extendedprice", "l_discount"])
         .map_batches(partial, batch_format="pyarrow").to_pandas().sum())
    ratio = 100.0 * p["promo"] / p["total"]
    return pd.DataFrame({"promo_revenue": round2(np.asarray([ratio]))})


Q14_SQL = """
SELECT round(100.0 * sum(CASE WHEN p_type = 'PROMO'
                         THEN l_extendedprice * (1 - l_discount)
                         ELSE 0 END)
             / sum(l_extendedprice * (1 - l_discount)), 2) AS promo_revenue
FROM lineitem JOIN part ON l_partkey = p_partkey
WHERE l_shipdate >= TIMESTAMP '1996-06-01'
  AND l_shipdate <  TIMESTAMP '1996-07-01'
"""


def nations_customers_and_suppliers(sf_dir: str):
    """INTERSECT set op: distributed distinct of each side's nation
    keys (unique() shuffles only the key column), tiny driver-side
    intersection mapped to names. Complements the EXCEPT-shaped
    ``nations_without_suppliers`` anti-join."""
    c = set(_read(sf_dir, "customer", ["c_nationkey"]).unique("c_nationkey"))
    s = set(_read(sf_dir, "supplier", ["s_nationkey"]).unique("s_nationkey"))
    nation = _read(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    keep = nation[nation["n_nationkey"].isin(c & s)]
    return (pd.DataFrame({"n_name": sorted(keep["n_name"])})
            .reset_index(drop=True))


INTERSECT_SQL = """
SELECT n_name FROM nation JOIN customer ON c_nationkey = n_nationkey
INTERSECT
SELECT n_name FROM nation JOIN supplier ON s_nationkey = n_nationkey
ORDER BY n_name
"""


def events_user_ntile(sf_dir: str):
    """Partitioned window functions row_number() + ntile(4) OVER
    (PARTITION BY user_id ORDER BY ts, event_id): hash-bucketed by
    user, ONE vectorized pandas call per bucket (groupby.cumcount +
    transform-size; the ntile big/small group split computed
    arithmetically per row — no per-key Python)."""
    from pdf_to_text_ray.stages.groups import bucketed_group_apply

    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id"])
    n = 4

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        g = df.groupby("user_id", sort=False)
        rn0 = g.cumcount().to_numpy()
        cnt = g["event_id"].transform("size").to_numpy()
        small = cnt // n
        rem = cnt % n
        big = small + 1
        cut = rem * big
        in_big = rn0 < cut
        tile = np.where(
            in_big,
            rn0 // np.maximum(big, 1),
            rem + (rn0 - cut) // np.maximum(small, 1),
        )
        return pd.DataFrame({
            "event_id": df["event_id"].to_numpy(),
            "user_id": df["user_id"].to_numpy(),
            "rn": (rn0 + 1).astype("int64"),
            "tile": (tile + 1).astype("int64"),
        })

    return bucketed_group_apply(ds, "user_id", per_bucket)


NTILE_SQL = """
SELECT event_id, user_id,
       row_number() OVER w AS rn,
       ntile(4)     OVER w AS tile
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
"""


def events_pivot_counts(sf_dir: str):
    """PIVOT (event_type values → one count column each): conditional
    indicator columns appended per batch (pyarrow casts, zero-copy
    key column), then ONE grouped Sum shuffle over the 6-column
    indicator table — the wide payload never exists pre-aggregation."""
    from ray.data.aggregate import Sum

    types = ["click", "error", "purchase", "signup", "view"]
    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def indicators(t: pa.Table) -> pa.Table:
        cols = {"user_id": t["user_id"]}
        for et in types:
            cols[f"n_{et}"] = pc.cast(
                pc.equal(t["event_type"], pa.scalar(et)), pa.int64())
        return pa.table(cols)

    out = (ds.map_batches(indicators, batch_format="pyarrow")
           .groupby("user_id")
           .aggregate(*(Sum(f"n_{et}", alias_name=f"n_{et}")
                        for et in types))
           .to_pandas())
    for et in types:
        out[f"n_{et}"] = out[f"n_{et}"].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


PIVOT_SQL = """
SELECT user_id,
       count(*) FILTER (WHERE event_type = 'click')    AS n_click,
       count(*) FILTER (WHERE event_type = 'error')    AS n_error,
       count(*) FILTER (WHERE event_type = 'purchase') AS n_purchase,
       count(*) FILTER (WHERE event_type = 'signup')   AS n_signup,
       count(*) FILTER (WHERE event_type = 'view')     AS n_view
FROM events GROUP BY user_id ORDER BY user_id
"""


def neardup_editdist_docs(sf_dir: str):
    """Edit-distance near-dup pairs (stages/dedup.py::
    editdist_neardup_pairs): (lang, length-bucket) blocking, one
    projection-only shuffle, all pair distances per bucket in a single
    pair-vectorized Levenshtein DP. Oracle is DuckDB ``levenshtein``
    over the identical blocking predicate."""
    from pdf_to_text_ray.stages.dedup import editdist_neardup_pairs

    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang", "n_chars"])
    pairs = editdist_neardup_pairs(ds).to_pandas()
    return (pairs.sort_values(["doc_id1", "doc_id2"])
            .reset_index(drop=True))


EDITDIST_SQL = """
WITH d AS (SELECT doc_id, lang, n_chars // 64 AS b,
                  substring(text, 1, 40) AS head
           FROM documents)
SELECT a.doc_id AS doc_id1, b.doc_id AS doc_id2,
       levenshtein(a.head, b.head) AS dist
FROM d a JOIN d b ON a.lang = b.lang AND a.b = b.b AND a.doc_id < b.doc_id
WHERE levenshtein(a.head, b.head) <= 8
ORDER BY doc_id1, doc_id2
"""


def doc_normalize_text(sf_dir: str):
    """Text canonicalization for dedup keying: NFC-normalize, lower,
    collapse ASCII whitespace runs, trim — emitted as an md5 content
    key (the exact-dedup key a cleaned corpus would group on).
    Vectorized pandas str ops per batch; text never shuffles."""
    import hashlib
    import re
    import unicodedata

    ws = re.compile(r"[ \t\r\n]+")
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def norm(df: pd.DataFrame) -> pd.DataFrame:
        texts = df["text"].map(
            lambda t: ws.sub(" ", unicodedata.normalize("NFC", t).lower())
            .strip(" "))
        return pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy(),
            "norm_len": texts.str.len().astype("int64"),
            "norm_md5": texts.map(
                lambda t: hashlib.md5(t.encode()).hexdigest()),
        })

    return ds.map_batches(norm, batch_format="pandas")


NORMALIZE_SQL = r"""
WITH n AS (SELECT doc_id,
                  trim(regexp_replace(nfc_normalize(lower(text)),
                                      '[ \t\r\n]+', ' ', 'g'), ' ') AS t
           FROM documents)
SELECT doc_id, length(t) AS norm_len, md5(t) AS norm_md5 FROM n
ORDER BY doc_id
"""


def doc_gopher_repetition(sf_dir: str):
    """Gopher-style repetition quality signals: fraction of characters
    inside duplicate lines + the max single-line repeat count, per
    document. One pandas split/explode per batch (C-level), grouped
    sums per doc — every doc lives in one row so NOTHING shuffles.
    int/int division is IEEE-exact, no rounding needed for the SQL
    twin."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def signals(df: pd.DataFrame) -> pd.DataFrame:
        lines = (df[["doc_id"]].assign(line=df["text"].str.split("\n"))
                 .explode("line"))
        lines["len"] = lines["line"].str.len()
        g = (lines.groupby(["doc_id", "line"], sort=False)
             .agg(c=("len", "size"), len=("len", "first"))
             .reset_index())
        g["chars"] = g["c"] * g["len"]
        g["dup_chars"] = np.where(g["c"] > 1, g["chars"], 0)
        s = (g.groupby("doc_id", sort=False)
             .agg(total=("chars", "sum"), dup=("dup_chars", "sum"),
                  max_line_count=("c", "max"))
             .reset_index())
        frac = np.where(s["total"] > 0,
                        s["dup"].to_numpy(dtype=np.float64)
                        / np.maximum(s["total"].to_numpy(), 1), 0.0)
        return pd.DataFrame({
            "doc_id": s["doc_id"].to_numpy(),
            "frac_dup_line_chars": frac,
            "max_line_count": s["max_line_count"].astype("int64"),
        })

    return ds.map_batches(signals, batch_format="pandas")


GOPHER_SQL = """
WITH l AS (SELECT doc_id, unnest(string_split(text, chr(10))) AS line
           FROM documents),
g AS (SELECT doc_id, line, count(*) AS c, length(line) AS len
      FROM l GROUP BY doc_id, line),
s AS (SELECT doc_id, sum(c * len) AS total,
             sum(CASE WHEN c > 1 THEN c * len ELSE 0 END) AS dup,
             max(c) AS maxc
      FROM g GROUP BY doc_id)
SELECT doc_id,
       CASE WHEN total > 0 THEN CAST(dup AS DOUBLE) / total
            ELSE 0.0 END AS frac_dup_line_chars,
       maxc AS max_line_count
FROM s ORDER BY doc_id
"""


def sample_stratified_docs(sf_dir: str):
    """Stratified deterministic sampling: the dominant language is
    downsampled 1-in-8, minority languages kept 1-in-2 — the standard
    corpus-rebalancing shape, resumable because membership is a pure
    function of the key (no RNG state)."""
    ds = _read(sf_dir, "documents", ["doc_id", "lang"])

    def pick(t: pa.Table) -> pa.Table:
        mod = pc.bit_wise_and(
            t["doc_id"],
            pc.if_else(pc.equal(t["lang"], pa.scalar("en")),
                       pa.scalar(7, pa.int64()), pa.scalar(1, pa.int64())))
        return t.filter(pc.equal(mod, pa.scalar(0, pa.int64())))

    return ds.map_batches(pick, batch_format="pyarrow")


STRATIFIED_SQL = """
SELECT doc_id, lang FROM documents
WHERE (lang = 'en' AND doc_id % 8 = 0)
   OR (lang <> 'en' AND doc_id % 2 = 0)
ORDER BY doc_id
"""


def customers_above_nation_avg(sf_dir: str):
    """Correlated-subquery decorrelation (c_acctbal > avg of the
    customer's nation): the per-nation average is a tiny grouped
    aggregate, broadcast once and probed per batch with searchsorted —
    the correlated scan never re-executes."""
    import ray

    ds = _read(sf_dir, "customer", ["c_custkey", "c_nationkey", "c_acctbal"])
    avg = grouped_partials(ds, "c_nationkey", sums=["c_acctbal"], count="n")
    ref = ray.put((avg["c_nationkey"].to_numpy(),
                   (avg["c_acctbal"] / avg["n"]).to_numpy()))

    def above(t: pa.Table) -> pa.Table:
        keys, means = ray.get(ref)
        nk = t["c_nationkey"].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(keys, nk)
        mask = t["c_acctbal"].to_numpy(zero_copy_only=False) > means[idx]
        t = t.filter(pa.array(mask))
        return pa.table({"c_custkey": t["c_custkey"],
                         "c_acctbal": pc.round(t["c_acctbal"], 2)})

    return ds.map_batches(above, batch_format="pyarrow")


ABOVE_AVG_SQL = """
SELECT c_custkey, round(c_acctbal, 2) AS c_acctbal
FROM customer c
WHERE c_acctbal > (SELECT avg(c_acctbal) FROM customer
                   WHERE c_nationkey = c.c_nationkey)
ORDER BY c_custkey
"""


def argmax_event_user(sf_dir: str):
    """ARG_MAX / max_by aggregate with deterministic ties: per event
    type, the (user, event) holding the maximum value — tie-broken by
    smallest event_id. Per-batch partial argmax (one row per type per
    batch) then the same combine over the tiny partials: the classic
    mergeable-argmax shape, no full shuffle."""
    ds = _read(sf_dir, "events",
               ["event_type", "event_id", "user_id", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["event_type", "value", "event_id"],
                            ascending=[True, False, True], kind="mergesort")
        return df.groupby("event_type", sort=False).head(1)

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out = partial(parts)
    out = out.rename(columns={"event_id": "max_event_id",
                              "user_id": "max_user_id",
                              "value": "max_value"})
    out["max_value"] = round2(out["max_value"])
    return (out[["event_type", "max_event_id", "max_user_id", "max_value"]]
            .sort_values("event_type").reset_index(drop=True))


ARGMAX_SQL = """
WITH r AS (SELECT event_type, event_id, user_id, value,
                  row_number() OVER (PARTITION BY event_type
                                     ORDER BY value DESC, event_id) AS rn
           FROM events)
SELECT event_type, event_id AS max_event_id, user_id AS max_user_id,
       round(value, 2) AS max_value
FROM r WHERE rn = 1 ORDER BY event_type
"""


def sample_k_per_lang(sf_dir: str):
    """Deterministic per-group k-sample: the k docs with smallest
    md5(doc_id) per language — repeatable across engines and runs
    (reservoir sampling without RNG state). Per-batch partial top-k
    per group, then the same top-k over the tiny partials."""
    import hashlib

    k = 10
    ds = _read(sf_dir, "documents", ["doc_id", "lang"])

    def rank_key(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["h"] = [hashlib.md5(str(d).encode()).hexdigest()
                   for d in df["doc_id"]]
        return (df.sort_values(["lang", "h"], kind="mergesort")
                .groupby("lang", sort=False).head(k))

    parts = ds.map_batches(rank_key, batch_format="pandas").to_pandas()
    out = (parts.sort_values(["lang", "h"], kind="mergesort")
           .groupby("lang", sort=False).head(k))
    return (out[["lang", "doc_id"]]
            .sort_values(["lang", "doc_id"]).reset_index(drop=True))


SAMPLE_K_SQL = """
WITH r AS (SELECT lang, doc_id,
                  row_number() OVER (PARTITION BY lang
                                     ORDER BY md5(CAST(doc_id AS VARCHAR)))
                      AS rn
           FROM documents)
SELECT lang, doc_id FROM r WHERE rn <= 10 ORDER BY lang, doc_id
"""


def tfidf_similar_docs(sf_dir: str):
    """Exact sparse TF-IDF all-pairs cosine (stages/similarity.py::
    tfidf_cosine_pairs): inverted-index blocked, df computed in-bucket,
    norms and dot products in one partial pass, stop-terms pruned at
    df > 0.5·N. Oracle recomputes the identical weighting in SQL."""
    from pdf_to_text_ray.stages.similarity import tfidf_cosine_pairs

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = tfidf_cosine_pairs(ds, threshold=0.3).to_pandas()
    return (out.sort_values(["doc_id1", "doc_id2"]).reset_index(drop=True))


TFIDF_SQL = r"""
WITH tok AS (
  SELECT doc_id, unnest(regexp_split_to_array(lower(trim(text)), '\s+'))
             AS term
  FROM documents WHERE trim(coalesce(text, '')) <> ''
),
tf AS (SELECT doc_id, term, count(*)::DOUBLE AS tf
       FROM tok GROUP BY doc_id, term),
n AS (SELECT count(*)::DOUBLE AS n FROM documents),
df AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY term),
w AS (SELECT tf.doc_id, tf.term, tf.tf * ln(n.n / df.df) AS w
      FROM tf, df, n
      WHERE tf.term = df.term AND df.df <= 0.5 * n.n),
nrm AS (SELECT doc_id, sqrt(sum(w * w)) AS nrm FROM w GROUP BY doc_id),
dot AS (SELECT a.doc_id AS doc_id1, b.doc_id AS doc_id2,
               sum(a.w * b.w) AS d
        FROM w a JOIN w b ON a.term = b.term AND a.doc_id < b.doc_id
        GROUP BY 1, 2)
SELECT doc_id1, doc_id2,
       round(d / (na.nrm * nb.nrm), 6) AS cosine_sim
FROM dot
JOIN nrm na ON na.doc_id = doc_id1
JOIN nrm nb ON nb.doc_id = doc_id2
WHERE d / (na.nrm * nb.nrm) >= 0.3
ORDER BY doc_id1, doc_id2
"""


def label_centroids(sf_dir: str):
    """Per-label embedding centroid (the grouped-vector-mean every
    embedding pipeline needs): per-batch float64 partial sums per
    label (one (labels × dim) matrix per batch — vectors never
    shuffle), merged on the driver, emitted exploded as
    (label, idx, centroid) rows for the SQL twin."""
    from pdf_to_text_ray.stages.similarity import list_column_to_matrix

    ds = _read(sf_dir, "embeddings", ["embedding", "label"])

    def partial(t: pa.Table) -> pa.Table:
        m = list_column_to_matrix(t["embedding"])
        labels = t["label"].to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(labels, return_inverse=True)
        sums = np.zeros((len(uniq), m.shape[1]), dtype=np.float64)
        np.add.at(sums, inv, m)
        counts = np.bincount(inv)
        d = m.shape[1]
        return pa.table({
            "label": pa.array(np.repeat(uniq, d), pa.int32()),
            "idx": pa.array(np.tile(np.arange(1, d + 1), len(uniq)),
                            pa.int64()),
            "s": pa.array(sums.ravel(), pa.float64()),
            "n": pa.array(np.repeat(counts, d).astype("int64"), pa.int64()),
        })

    parts = grouped_partials(ds, ["label", "idx"], sums=["s", "n"],
                             prep=partial)
    parts["centroid"] = round6(parts["s"] / parts["n"])
    return parts[["label", "idx", "centroid"]]


CENTROID_SQL = """
WITH e AS (SELECT label, generate_subscripts(embedding, 1) AS idx,
                  unnest(embedding)::DOUBLE AS v
           FROM embeddings)
SELECT label, idx, round(avg(v), 6) AS centroid
FROM e GROUP BY label, idx ORDER BY label, idx
"""


def curation_pipeline(sf_dir: str):
    """Flagship composite curation pipeline — the canonical training-
    data preparation chain as ONE streaming Dataset program with a
    full SQL twin:

      normalize → exact-dedup on normalized-content key (groupby-min
      winners, broadcast searchsorted semi-join) → quality filter
      (token stats thresholds) → stratified sample (downsample the
      dominant language) → (doc_id, lang, n_tokens).

    Only the (key, doc_id) projection ever shuffles; text stays in
    place and every other stage is a per-batch map. Winner set
    broadcasts (bounded by surviving doc count; swap for the bucketed
    winner filter beyond broadcast budgets — pipelines/extract.py has
    both shapes)."""
    import hashlib
    import re
    import unicodedata

    import ray

    from ray.data.aggregate import Min

    from pdf_to_text_ray.stages.analysis import token_stats_batch

    ws = re.compile(r"[ \t\r\n]+")

    def norm_key(t: str) -> str:
        n = ws.sub(" ", unicodedata.normalize("NFC", t).lower()).strip(" ")
        return hashlib.md5(n.encode()).hexdigest()

    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"])

    keys = ds.map_batches(
        lambda df: pd.DataFrame({
            "key": df["text"].map(norm_key),
            "doc_id": df["doc_id"].to_numpy()}),
        batch_format="pandas")
    winners = (keys.groupby("key")
               .aggregate(Min("doc_id", alias_name="keep_id"))
               .to_pandas())
    ref = ray.put(np.sort(winners["keep_id"].to_numpy()))

    def curate(df: pd.DataFrame) -> pd.DataFrame:
        df = df[probe_sorted(ray.get(ref), df["doc_id"].to_numpy())[0]]
        s = token_stats_batch(df)
        keep = ((s["n_tokens"] >= 10) & (s["punct_ratio"] <= 0.2)
                & (s["avg_token_len"] >= 2.0))
        strat = (s["lang"] != "en") | (s["doc_id"] % 2 == 0)
        s = s[keep & strat]
        return pd.DataFrame({"doc_id": s["doc_id"].to_numpy(),
                             "lang": s["lang"].to_numpy(),
                             "n_tokens": s["n_tokens"].to_numpy()})

    return ds.map_batches(curate, batch_format="pandas")


CURATION_SQL = r"""
WITH k AS (
  SELECT doc_id, lang, text,
         md5(trim(regexp_replace(nfc_normalize(lower(text)),
                                 '[ \t\r\n]+', ' ', 'g'), ' ')) AS key
  FROM documents),
w AS (SELECT key, min(doc_id) AS keep_id FROM k GROUP BY key),
d AS (SELECT k.doc_id, k.lang, k.text FROM k
      JOIN w ON k.doc_id = w.keep_id),
s AS (
  SELECT doc_id, lang,
         CASE WHEN trim(coalesce(text,'')) = '' THEN 0
              ELSE length(regexp_split_to_array(trim(text),
                                                '[ \t\r\n\f\v]+'))
         END::BIGINT AS n_tokens,
         length(regexp_replace(coalesce(text,''), '[^.!?,;:]', '', 'g'))
           / greatest(length(coalesce(text,'')), 1) AS punct_ratio,
         length(regexp_replace(coalesce(text,''), '[ \t\r\n\f\v]', '', 'g'))
           / greatest(CASE WHEN trim(coalesce(text,'')) = '' THEN 0
                           ELSE length(regexp_split_to_array(trim(text),
                                                     '[ \t\r\n\f\v]+'))
                      END, 1) AS avg_token_len
  FROM d)
SELECT doc_id, lang, n_tokens FROM s
WHERE n_tokens >= 10 AND punct_ratio <= 0.2 AND avg_token_len >= 2.0
  AND (lang <> 'en' OR doc_id % 2 = 0)
ORDER BY doc_id
"""


def q4_order_priority(sf_dir: str):
    """TPC-H Q4 shape — order count per priority for date-window
    orders having at least one line shipped after the order date.
    The EXISTS probe never ships the fact payload: lineitem collapses
    to max(l_shipdate) per orderkey (per-batch partial, then a
    key+8-byte groupby), the survivor test rides the bucketed join
    with the date-pruned orders, and the answer is a 5-row count."""
    from pdf_to_text_ray.stages.joins import bucketed_hash_join

    def ship_partial(t: pa.Table) -> pa.Table:
        b = pd.DataFrame({
            "o_orderkey": t["l_orderkey"].to_numpy(zero_copy_only=False),
            "ship_ns": t["l_shipdate"].cast(pa.int64()).to_numpy(
                zero_copy_only=False)})
        return arrow_out(b.groupby("o_orderkey", as_index=False)
                         .agg(ship_ns=("ship_ns", "max")))

    from ..stages.groups import bucketed_group_apply

    # per-order max via a bucketed exchange + vectorized reduce —
    # |orders| one-row groups hit Ray's Python-speed sort aggregate
    maxship = bucketed_group_apply(
        _lineitem(sf_dir, ["l_orderkey", "l_shipdate"])
        .map_batches(ship_partial, batch_format="pyarrow"),
        "o_orderkey",
        lambda df: df.groupby("o_orderkey", as_index=False)
        .agg(ship_ns=("ship_ns", "max")),
        num_buckets=16)

    lo = pd.Timestamp("1996-01-01")
    hi = pd.Timestamp("1996-04-01")
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderdate", "o_orderpriority"]
                   ).map_batches(
        lambda t: t.filter(
            pc.and_(pc.greater_equal(t["o_orderdate"], pa.scalar(lo)),
                    pc.less(t["o_orderdate"], pa.scalar(hi)))),
        batch_format="pyarrow")

    joined = bucketed_hash_join(
        maxship, orders, on="o_orderkey")

    def late(t: pa.Table) -> pa.Table:
        b = t.to_pandas()
        b = b[b["ship_ns"] > b["o_orderdate"].astype("int64")]
        return pa.table({"o_orderpriority": b["o_orderpriority"].to_numpy()})

    return grouped_partials(joined, "o_orderpriority", count="order_count",
                            prep=late)


Q4_SQL = """
SELECT o_orderpriority, count(*) AS order_count
FROM orders
WHERE o_orderdate >= TIMESTAMP '1996-01-01'
  AND o_orderdate <  TIMESTAMP '1996-04-01'
  AND EXISTS (SELECT 1 FROM lineitem
              WHERE l_orderkey = o_orderkey AND l_shipdate > o_orderdate)
GROUP BY o_orderpriority
ORDER BY o_orderpriority
"""


def q19_disjunctive_revenue(sf_dir: str):
    """TPC-H Q19 shape — revenue under an OR-of-ANDs predicate that
    couples part attributes with lineitem quantity bands. The part
    side ships once as broadcast sorted arrays (partkey, brand code,
    size); each lineitem batch evaluates all three disjuncts
    vectorized and contributes one scalar partial — zero shuffle."""
    import ray

    part = (_read(sf_dir, "part", ["p_partkey", "p_brand", "p_size"])
            .to_pandas().sort_values("p_partkey"))
    brands = ["Brand#12", "Brand#23", "Brand#34"]
    bcode = np.full(len(part), -1, np.int8)
    for i, b in enumerate(brands):
        bcode[(part["p_brand"] == b).to_numpy()] = i
    part_ref = ray.put((part["p_partkey"].to_numpy(), bcode,
                        part["p_size"].to_numpy()))
    # (brand, max_size, qty_lo, qty_hi) per disjunct
    bands = [(0, 5, 1.0, 11.0), (1, 10, 10.0, 20.0), (2, 15, 20.0, 30.0)]

    def partial(t: pa.Table) -> pa.Table:
        keys, code, size = ray.get(part_ref)
        hit, idx = probe_sorted(
            keys, t["l_partkey"].to_numpy(zero_copy_only=False))
        c, s = code[idx[hit]], size[idx[hit]]
        qty = t["l_quantity"].to_numpy(zero_copy_only=False)[hit]
        mask = np.zeros(len(c), bool)
        for bc, smax, qlo, qhi in bands:
            mask |= ((c == bc) & (s >= 1) & (s <= smax)
                     & (qty >= qlo) & (qty <= qhi))
        rev = (t["l_extendedprice"].to_numpy(zero_copy_only=False)
               * (1.0 - t["l_discount"].to_numpy(zero_copy_only=False)))[hit]
        return pa.table({"rev": pa.array([float(rev[mask].sum())],
                                         pa.float64())})

    total = (_lineitem(sf_dir, ["l_partkey", "l_quantity",
                                "l_extendedprice", "l_discount"])
             .map_batches(partial, batch_format="pyarrow")
             .to_pandas()["rev"].sum())
    return pd.DataFrame({"revenue": round2(np.asarray([total]))})


def docs_span_deduped(sf_dir: str):
    """Exact duplicate-substring removal (Lee et al. 2022 semantics,
    rolling-hash + text-verify instead of a suffix array): every char
    covered by a 50-codepoint window whose exact text occurs ≥2 times
    corpus-wide is cut. See ``stages/dedup.py::span_dedup`` for the
    three-pass shuffle-light shape."""
    from pdf_to_text_ray.stages.dedup import span_dedup

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return span_dedup(ds, key_col="doc_id", text_col="text",
                      L=50, min_count=2)


SPAN_DEDUP_SQL = """
WITH w AS (
  SELECT doc_id, gs.i AS i, substr(text, gs.i::INT, 50) AS g
  FROM documents
  CROSS JOIN LATERAL
    (SELECT unnest(range(1, greatest(length(text) - 48, 1))) AS i) gs),
dup AS (SELECT g FROM w GROUP BY g HAVING count(*) >= 2),
dw AS (SELECT w.doc_id, w.i FROM w WHERE w.g IN (SELECT g FROM dup)),
ch AS (
  SELECT doc_id, gs.p AS p, substr(text, gs.p::INT, 1) AS c
  FROM documents
  CROSS JOIN LATERAL
    (SELECT unnest(range(1, length(text) + 1)) AS p) gs),
keep AS (
  SELECT ch.doc_id, ch.p, ch.c FROM ch
  WHERE NOT EXISTS (SELECT 1 FROM dw
                    WHERE dw.doc_id = ch.doc_id
                      AND ch.p >= dw.i AND ch.p < dw.i + 50)),
cleaned AS (SELECT doc_id, string_agg(c, '' ORDER BY p) AS text_spanclean
            FROM keep GROUP BY doc_id),
counts AS (SELECT doc_id, count(*)::BIGINT AS dup_windows
           FROM dw GROUP BY doc_id)
SELECT d.doc_id,
       coalesce(cn.dup_windows, 0)::BIGINT AS dup_windows,
       coalesce(cl.text_spanclean, '') AS text_spanclean
FROM documents d
LEFT JOIN cleaned cl ON cl.doc_id = d.doc_id
LEFT JOIN counts cn ON cn.doc_id = d.doc_id
"""


Q19_SQL = """
SELECT coalesce(round(sum(l_extendedprice * (1 - l_discount)), 2), 0.0) AS revenue
FROM lineitem JOIN part ON p_partkey = l_partkey
WHERE (p_brand = 'Brand#12' AND p_size BETWEEN 1 AND 5
       AND l_quantity BETWEEN 1 AND 11)
   OR (p_brand = 'Brand#23' AND p_size BETWEEN 1 AND 10
       AND l_quantity BETWEEN 10 AND 20)
   OR (p_brand = 'Brand#34' AND p_size BETWEEN 1 AND 15
       AND l_quantity BETWEEN 20 AND 30)
"""


def seq_pack_offsets(sf_dir: str, seq_len: int = 2048):
    """Sequence packing for LM training (concatenate-and-chunk): docs
    in doc_id order, one EOS token after each, chunked into
    ``seq_len``-token training sequences. Emits each doc's token count
    and first/last sequence index. The cumulative offset is a true
    distributed SCAN (``groups.ordered_prefix_sum``: range-bucket
    partials + driver prefix over B scalars + vectorized in-bucket
    cumsum) — not a driver loop over rows."""
    from pdf_to_text_ray.stages.groups import ordered_prefix_sum

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def toks(t: pa.Table) -> pa.Table:
        s = pd.Series(t["text"].to_pylist()).fillna("")
        n = (s.str.count(r"[^ \t\r\n\f\v]+") + 1).astype("int64")  # +EOS
        return pa.table({
            "doc_id": t["doc_id"],
            "n_tokens": pa.array(n.to_numpy(), pa.int64())})

    cum = ordered_prefix_sum(ds.map_batches(toks, batch_format="pyarrow"),
                             order_col="doc_id", value_col="n_tokens",
                             out_col="cum")

    def place(t: pa.Table) -> pa.Table:
        c = t["cum"].to_numpy(zero_copy_only=False)
        n = t["n_tokens"].to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": t["doc_id"],
            "n_tokens": t["n_tokens"],
            "seq_start": pa.array((c - n) // seq_len, pa.int64()),
            "seq_end": pa.array((c - 1) // seq_len, pa.int64())})

    return cum.map_batches(place, batch_format="pyarrow")


SEQ_PACK_SQL = r"""
WITH t AS (
  SELECT doc_id,
         CASE WHEN trim(coalesce(text,'')) = '' THEN 0
              ELSE length(regexp_split_to_array(trim(text),
                                                '[ \t\r\n\f\v]+'))
         END::BIGINT + 1 AS n_tokens
  FROM documents),
c AS (
  SELECT doc_id, n_tokens,
         sum(n_tokens) OVER (ORDER BY doc_id
                             ROWS BETWEEN UNBOUNDED PRECEDING
                             AND CURRENT ROW) AS cum
  FROM t)
SELECT doc_id, n_tokens,
       ((cum - n_tokens) // 2048)::BIGINT AS seq_start,
       ((cum - 1) // 2048)::BIGINT AS seq_end
FROM c
"""


# ── registry ──────────────────────────────────────────────────────────

def q13_customer_distribution(sf_dir: str):
    """TPC-H Q13 shape — distribution of per-customer order counts,
    including the zero bucket. Two cascaded groupbys: the first is the
    wide one (orders by custkey, count); the second groups the already
    per-customer-small result by count. The zero bucket needs only the
    customer row COUNT (parquet footer metadata), not a join — orders
    reference existing customers (TPC-H referential integrity)."""
    import pyarrow.parquet as pq
    from ray.data.aggregate import Count

    per_cust = (_read(sf_dir, "orders", ["o_custkey"])
                .groupby("o_custkey")
                .aggregate(Count(alias_name="c_count")))
    dist = (per_cust.groupby("c_count")
            .aggregate(Count(alias_name="custdist"))
            .to_pandas())
    n_cust = pq.ParquetFile(
        os.path.join(sf_dir, "customer.parquet")).metadata.num_rows
    n_with = int(dist["custdist"].sum())
    if n_cust > n_with:
        dist = pd.concat(
            [dist, pd.DataFrame({"c_count": [0],
                                 "custdist": [n_cust - n_with]})],
            ignore_index=True)
    dist["c_count"] = dist["c_count"].astype("int64")
    dist["custdist"] = dist["custdist"].astype("int64")
    return (dist.sort_values(["custdist", "c_count"],
                             ascending=[False, False])
            .reset_index(drop=True))


Q13_SQL = """
SELECT c_count, count(*)::BIGINT AS custdist
FROM (SELECT c_custkey, count(o_orderkey)::BIGINT AS c_count
      FROM customer LEFT JOIN orders ON c_custkey = o_custkey
      GROUP BY c_custkey)
GROUP BY c_count
ORDER BY custdist DESC, c_count DESC
"""


def q15_top_supplier(sf_dir: str):
    """TPC-H Q15 shape — argmax over a grouped revenue aggregate: the
    per-supplier sum is distributed; the global max is a scalar
    aggregate on the (bounded-by-#suppliers) grouped dataset; the
    winner set is tiny and joins supplier names driver-side. The
    equality filter compares sums produced by ONE engine, so float
    summation order cannot split the winner between engines."""
    from ray.data.aggregate import Sum

    lo, hi = pd.Timestamp("1996-01-01"), pd.Timestamp("1996-04-01")

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.and_(
            pc.greater_equal(t["l_shipdate"], pa.scalar(lo)),
            pc.less(t["l_shipdate"], pa.scalar(hi))))
        rev = pc.multiply(t["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return pa.table({"s_suppkey": t["l_suppkey"],
                         "total_revenue": rev})

    per_supp = (_lineitem(sf_dir, ["l_suppkey", "l_shipdate",
                                   "l_extendedprice", "l_discount"])
                .map_batches(partial, batch_format="pyarrow")
                .groupby("s_suppkey")
                .aggregate(Sum("total_revenue", alias_name="total_revenue")))
    mx = per_supp.max("total_revenue")
    winners = (per_supp
               .filter(expr=f"total_revenue == {mx!r}")
               .to_pandas())
    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_name"]).to_pandas()
    out = winners.merge(supp, on="s_suppkey")
    out["total_revenue"] = round2(out["total_revenue"])
    return (out[["s_suppkey", "s_name", "total_revenue"]]
            .sort_values("s_suppkey").reset_index(drop=True))


Q15_SQL = """
WITH revenue AS (
  SELECT l_suppkey AS s_suppkey,
         sum(l_extendedprice * (1 - l_discount)) AS total_revenue
  FROM lineitem
  WHERE l_shipdate >= TIMESTAMP '1996-01-01'
    AND l_shipdate <  TIMESTAMP '1996-04-01'
  GROUP BY l_suppkey)
SELECT s.s_suppkey, s.s_name, round(r.total_revenue, 2) AS total_revenue
FROM supplier s JOIN revenue r ON s.s_suppkey = r.s_suppkey
WHERE r.total_revenue = (SELECT max(total_revenue) FROM revenue)
ORDER BY s.s_suppkey
"""


def q17_small_quantity_revenue(sf_dir: str):
    """TPC-H Q17 shape — correlated per-key average as a broadcast:
    pass 1 computes avg quantity per brand part (pruned to the brand's
    partkeys via a broadcast membership probe); pass 2 re-scans
    lineitem filtering quantity < 0.2·avg(partkey) through the
    broadcast per-part thresholds; each batch emits one scalar
    partial. Integer-valued quantities keep both engines' averages
    bit-exact (sums < 2^53), so the threshold comparison agrees."""
    import ray

    brand = "Brand#13"
    pk = (_read(sf_dir, "part", ["p_partkey", "p_brand"]).to_pandas())
    pkeys = np.sort(pk.loc[pk["p_brand"] == brand, "p_partkey"].to_numpy())
    pk_ref = ray.put(pkeys)

    def qty_partial(t: pa.Table) -> pa.Table:
        lp = t["l_partkey"].to_numpy(zero_copy_only=False)
        hit, _ = probe_sorted(ray.get(pk_ref), lp)
        qty = t["l_quantity"].to_numpy(zero_copy_only=False)[hit]
        part = pd.DataFrame({"p_partkey": lp[hit], "s": qty,
                             "n": np.ones(hit.sum(), np.int64)})
        g = part.groupby("p_partkey", as_index=False).sum()
        return arrow_out(g)

    from ray.data.aggregate import Sum

    avg = (_lineitem(sf_dir, ["l_partkey", "l_quantity"])
           .map_batches(qty_partial, batch_format="pyarrow")
           .groupby("p_partkey")
           .aggregate(Sum("s", alias_name="s"), Sum("n", alias_name="n"))
           .to_pandas())
    thresh = dict(zip(avg["p_partkey"],
                      0.2 * (avg["s"] / avg["n"])))
    tkeys = np.array(sorted(thresh), dtype=np.int64)
    tvals = np.array([thresh[k] for k in tkeys], dtype=np.float64)
    t_ref = ray.put((tkeys, tvals))

    def rev_partial(t: pa.Table) -> pa.Table:
        keys, vals = ray.get(t_ref)
        keep, idx = probe_sorted(
            keys, t["l_partkey"].to_numpy(zero_copy_only=False))
        qty = t["l_quantity"].to_numpy(zero_copy_only=False)
        keep[keep] = qty[keep] < vals[idx[keep]]
        s = float(t["l_extendedprice"].to_numpy(
            zero_copy_only=False)[keep].sum())
        return pa.table({"s": pa.array([s], pa.float64())})

    total = (_lineitem(sf_dir, ["l_partkey", "l_quantity",
                                "l_extendedprice"])
             .map_batches(rev_partial, batch_format="pyarrow")
             .to_pandas()["s"].sum())
    return pd.DataFrame({"avg_yearly": round2(np.asarray([total / 7.0]))})


Q17_SQL = """
SELECT coalesce(round(sum(l_extendedprice) / 7.0, 2), 0.0) AS avg_yearly
FROM lineitem JOIN part ON p_partkey = l_partkey
WHERE p_brand = 'Brand#13'
  AND l_quantity < (SELECT 0.2 * avg(l2.l_quantity)
                    FROM lineitem l2 WHERE l2.l_partkey = p_partkey)
"""


def q22_idle_customers(sf_dir: str):
    """TPC-H Q22 shape — anti-join against the distinct
    recently-ordering customer set (bounded by #customers → broadcast
    sorted-array probe, the EXISTS pattern in reverse) gated by a
    global scalar average computed from distributed partials."""
    import ray

    cust = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"])

    def bal_partial(t: pa.Table) -> pa.Table:
        b = t["c_acctbal"].to_numpy(zero_copy_only=False)
        pos = b[b > 0.0]
        return pa.table({"s": pa.array([float(pos.sum())], pa.float64()),
                         "n": pa.array([len(pos)], pa.int64())})

    parts = cust.map_batches(bal_partial, batch_format="pyarrow").to_pandas()
    avg_bal = parts["s"].sum() / parts["n"].sum()

    cut = pd.Timestamp("2000-01-01")
    active = (_read(sf_dir, "orders", ["o_custkey", "o_orderdate"])
              .map_batches(lambda t: t.filter(
                  pc.greater_equal(t["o_orderdate"], pa.scalar(cut)))
                  .select(["o_custkey"]), batch_format="pyarrow")
              .groupby("o_custkey").count().to_pandas())
    active_ref = ray.put(np.sort(active["o_custkey"].to_numpy()))

    def idle(t: pa.Table) -> pa.Table:
        ck = t["c_custkey"].to_numpy(zero_copy_only=False)
        has, _ = probe_sorted(ray.get(active_ref), ck)
        bal = t["c_acctbal"].to_numpy(zero_copy_only=False)
        keep = (~has) & (bal > avg_bal)
        return pa.table({"seg": ck[keep] % 10, "totacctbal": bal[keep]})

    out = grouped_partials(cust, "seg", sums=["totacctbal"],
                           count="numcust", prep=idle)
    if out.empty:  # every customer ordered — keep the typed schema
        return pd.DataFrame({"seg": pd.Series([], dtype="int64"),
                             "numcust": pd.Series([], dtype="int64"),
                             "totacctbal": pd.Series([], dtype="float64")})
    out["totacctbal"] = round2(out["totacctbal"])
    return out


Q22_SQL = """
SELECT c_custkey % 10 AS seg, count(*)::BIGINT AS numcust,
       round(sum(c_acctbal), 2) AS totacctbal
FROM customer
WHERE c_acctbal > (SELECT avg(c_acctbal) FROM customer
                   WHERE c_acctbal > 0.0)
  AND NOT EXISTS (SELECT 1 FROM orders WHERE o_custkey = c_custkey
                  AND o_orderdate >= TIMESTAMP '2000-01-01')
GROUP BY seg ORDER BY seg
"""


def q7_nation_volume(sf_dir: str):
    """TPC-H Q7 shape — bidirectional nation-pair trade volume by ship
    year. Same scale typing as Q5: supplier→nation ships once as
    broadcast sorted arrays; orders⋈customer and lineitem⋈(o⋈c) are
    the two bucketed fact-fact edges; the (supp_nation, cust_nation,
    year) partial aggregate happens inside each batch before the final
    tiny groupby."""
    import ray

    from pdf_to_text_ray.stages.joins import bucketed_hash_join

    nation = _read(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    names = dict(zip(nation["n_nationkey"], nation["n_name"]))
    pair = {1, 2}  # NATION_1 <-> NATION_2, both directions
    supp = (_read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
            .to_pandas().sort_values("s_suppkey"))
    supp_ref = ray.put((supp["s_suppkey"].to_numpy(),
                        supp["s_nationkey"].to_numpy()))

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"]).map_batches(
        lambda t: t.rename_columns(["o_orderkey", "c_custkey"]),
        batch_format="pyarrow")
    o_c = bucketed_hash_join(orders, cust, on="c_custkey")

    lo, hi = pd.Timestamp("1996-01-01"), pd.Timestamp("1998-01-01")
    li = _lineitem(sf_dir, ["l_orderkey", "l_suppkey", "l_shipdate",
                            "l_extendedprice", "l_discount"]).map_batches(
        lambda t: (t.filter(pc.and_(
            pc.greater_equal(t["l_shipdate"], pa.scalar(lo)),
            pc.less(t["l_shipdate"], pa.scalar(hi))))
            .rename_columns(["o_orderkey", "l_suppkey", "l_shipdate",
                             "l_extendedprice", "l_discount"])),
        batch_format="pyarrow")
    joined = bucketed_hash_join(
        li, o_c.map_batches(lambda t: t.select(["o_orderkey", "c_nationkey"]),
                            batch_format="pyarrow"),
        on="o_orderkey")

    def volume_partial(t: pa.Table) -> pa.Table:
        b = t.to_pandas()
        sk, sn = ray.get(supp_ref)
        hit, idx = probe_sorted(sk, b["l_suppkey"].to_numpy())
        s_nat = np.full(len(b), -1, sn.dtype)
        s_nat[hit] = sn[idx[hit]]
        c_nat = b["c_nationkey"].to_numpy()
        keep = (((s_nat == 1) & (c_nat == 2))
                | ((s_nat == 2) & (c_nat == 1)))
        b = b[keep]
        return pa.table({
            "supp_nation": s_nat[keep], "cust_nation": c_nat[keep],
            "l_year": b["l_shipdate"].dt.year.to_numpy().astype(np.int64),
            "volume": (b["l_extendedprice"]
                       * (1 - b["l_discount"])).to_numpy()})

    agg = grouped_partials(joined, ["supp_nation", "cust_nation", "l_year"],
                           sums=["volume"], prep=volume_partial)
    if agg.empty:  # no trade between the pair at this sf
        return pd.DataFrame({"supp_nation": pd.Series([], dtype=object),
                             "cust_nation": pd.Series([], dtype=object),
                             "l_year": pd.Series([], dtype="int64"),
                             "volume": pd.Series([], dtype="float64")})
    agg["supp_nation"] = agg["supp_nation"].map(names)
    agg["cust_nation"] = agg["cust_nation"].map(names)
    agg["volume"] = round2(agg["volume"])
    return (agg.sort_values(["supp_nation", "cust_nation", "l_year"])
            .reset_index(drop=True))


Q7_SQL = """
SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
       year(l_shipdate)::BIGINT AS l_year,
       round(sum(l_extendedprice * (1 - l_discount)), 2) AS volume
FROM supplier, lineitem, orders, customer, nation n1, nation n2
WHERE s_suppkey = l_suppkey AND o_orderkey = l_orderkey
  AND c_custkey = o_custkey AND s_nationkey = n1.n_nationkey
  AND c_nationkey = n2.n_nationkey
  AND ((n1.n_name = 'NATION_1' AND n2.n_name = 'NATION_2')
       OR (n1.n_name = 'NATION_2' AND n2.n_name = 'NATION_1'))
  AND l_shipdate >= TIMESTAMP '1996-01-01'
  AND l_shipdate <  TIMESTAMP '1998-01-01'
GROUP BY supp_nation, cust_nation, l_year
ORDER BY supp_nation, cust_nation, l_year
"""


def viewers_without_purchase(sf_dir: str):
    """EXCEPT set op — distinct viewers minus distinct big-ticket
    purchasers (value > 180). The subtrahend side is distinct-reduced
    distributed first (bounded by #users), then broadcast as a sorted
    array; the minuend stays a streaming distinct."""
    import ray

    ev = _read(sf_dir, "events", ["user_id", "event_type", "value"])
    buyers = (ev.filter(expr="event_type == 'purchase' and value > 180.0")
              .groupby("user_id").count().to_pandas())
    buyers_ref = ray.put(np.sort(buyers["user_id"].to_numpy())
                         if len(buyers) else np.array([], dtype=np.int64))

    def probe(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["event_type"], pa.scalar("view")))
        u = t["user_id"].to_numpy(zero_copy_only=False)
        isb, _ = probe_sorted(ray.get(buyers_ref), u)
        return pa.table({"user_id": pa.array(u[~isb])})

    out = (ev.map_batches(probe, batch_format="pyarrow")
           .groupby("user_id").count().to_pandas())
    if out.empty:
        return pd.DataFrame({"user_id": pd.Series([], dtype="int64")})
    return out[["user_id"]].sort_values("user_id").reset_index(drop=True)


EXCEPT_SQL = """
SELECT DISTINCT user_id FROM events WHERE event_type = 'view'
EXCEPT
SELECT DISTINCT user_id FROM events
WHERE event_type = 'purchase' AND value > 180.0
"""


def events_moving_avg(sf_dir: str):
    """ROWS-frame moving average (3-row trailing window) per user —
    hash-bucketed shuffle, one vectorized pandas rolling-mean call per
    bucket (`groups.bucketed_group_apply`)."""
    from pdf_to_text_ray.stages.groups import bucketed_group_apply

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"])
        mov = (df.groupby("user_id")["value"]
               .rolling(3, min_periods=1).mean()
               .reset_index(level=0, drop=True))
        return pd.DataFrame({"event_id": df["event_id"],
                             "mov_avg": round2(mov)})

    return bucketed_group_apply(ev, "user_id", per_bucket).to_pandas()


MOVING_AVG_SQL = """
SELECT event_id,
       round(avg(value) OVER (PARTITION BY user_id ORDER BY ts, event_id
                              ROWS BETWEEN 2 PRECEDING AND CURRENT ROW),
             2) AS mov_avg
FROM events
"""


def user_first_last_event(sf_dir: str):
    """first_value / last_value per partition — per-user first and
    last event type under the (ts, event_id) total order, one
    vectorized first/last per bucket."""
    from pdf_to_text_ray.stages.groups import bucketed_group_apply

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts",
                                  "event_type"])

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"])
        g = df.groupby("user_id")["event_type"]
        out = pd.DataFrame({"first_event": g.first(), "last_event": g.last(),
                            "n_events": g.size().astype("int64")})
        return out.reset_index()

    return (bucketed_group_apply(ev, "user_id", per_bucket)
            .to_pandas().sort_values("user_id").reset_index(drop=True))


FIRST_LAST_SQL = """
SELECT DISTINCT user_id,
       first_value(event_type) OVER w AS first_event,
       last_value(event_type) OVER (
           PARTITION BY user_id ORDER BY ts, event_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING
       ) AS last_event,
       count(*) OVER (PARTITION BY user_id) AS n_events
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
"""


def nation_supplier_rank(sf_dir: str):
    """rank() vs dense_rank() over a grouped count (ties are real —
    25 nations share supplier counts). The count is distributed; the
    ranking runs on the 25-row grouped result."""
    per_nation = grouped_partials(
        _read(sf_dir, "supplier", ["s_nationkey"]), "s_nationkey",
        count="n_supp")
    nation = _read(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    out = nation.merge(per_nation, left_on="n_nationkey",
                       right_on="s_nationkey", how="left")
    out["n_supp"] = out["n_supp"].fillna(0).astype("int64")
    out["rnk"] = (out["n_supp"].rank(method="min", ascending=False)
                  .astype("int64"))
    out["drnk"] = (out["n_supp"].rank(method="dense", ascending=False)
                   .astype("int64"))
    return (out[["n_name", "n_supp", "rnk", "drnk"]]
            .sort_values("n_name").reset_index(drop=True))


NATION_RANK_SQL = """
WITH c AS (SELECT n_name, count(s_suppkey)::BIGINT AS n_supp
           FROM nation LEFT JOIN supplier ON s_nationkey = n_nationkey
           GROUP BY n_name)
SELECT n_name, n_supp,
       rank() OVER (ORDER BY n_supp DESC) AS rnk,
       dense_rank() OVER (ORDER BY n_supp DESC) AS drnk
FROM c ORDER BY n_name
"""


def domain_stats(sf_dir: str):
    """Per-domain corpus profile (the `source` column stands in for
    the URL host): doc count, total whitespace tokens, mean length,
    distinct languages. Token counts pre-aggregate per batch; the lang
    cardinality rides a distinct-pairs reduction — both shuffles move
    only (source, partial) rows."""
    from ..stages.analysis import token_stats_batch

    docs = _read(sf_dir, "documents", ["source", "lang", "text", "n_chars"])

    def partial(t: pa.Table) -> pa.Table:
        s = token_stats_batch(t.to_pandas())
        return pa.table({"source": t["source"],
                         "total_tokens": pa.array(s["n_tokens"], pa.int64()),
                         "sum_chars": t["n_chars"]})

    agg = grouped_partials(docs, "source", sums=["total_tokens", "sum_chars"],
                           count="n_docs", prep=partial)
    langs = (grouped_partials(docs, ["source", "lang"], count="n")
             .groupby("source").size().rename("n_langs").reset_index())
    out = agg.merge(langs, on="source")
    out["avg_chars"] = round2(out["sum_chars"] / out["n_docs"])
    out["n_langs"] = out["n_langs"].astype("int64")
    return out[["source", "n_docs", "total_tokens", "avg_chars", "n_langs"]]


DOMAIN_STATS_SQL = r"""
WITH s AS (
  SELECT source, lang, n_chars,
         CASE WHEN trim(coalesce(text,'')) = '' THEN 0
              ELSE length(regexp_split_to_array(trim(text), '[ \t\r\n\f\v]+'))
         END::BIGINT AS n_tokens
  FROM documents)
SELECT source, count(*)::BIGINT AS n_docs,
       sum(n_tokens)::BIGINT AS total_tokens,
       round(sum(n_chars)::DOUBLE / count(*), 2) AS avg_chars,
       count(DISTINCT lang)::BIGINT AS n_langs
FROM s GROUP BY source ORDER BY source
"""


def user_big_value_outer(sf_dir: str):
    """FULL OUTER bucketed hash join (§2.4): per-user sums of big
    (value > 200) purchases vs big clicks — each side covers only a
    sparse, partially overlapping user subset, so the result exercises
    left-only, right-only and matched rows. Pre-aggregation happens
    BEFORE the join, so the all-to-all moves one row per (user, side),
    never raw events."""
    from ray.data.aggregate import Sum

    from ..stages.joins import bucketed_hash_join

    ev = _read(sf_dir, "events", ["user_id", "event_type", "value"])

    def side(event_type: str, out_col: str):
        return (ev.filter(
            expr=f"event_type == '{event_type}' and value > 200.0")
            .groupby("user_id")
            .aggregate(Sum("value", alias_name=out_col)))

    joined = bucketed_hash_join(
        side("purchase", "purchase_sum"), side("click", "click_sum"),
        on="user_id", how="outer", num_buckets=8,
        left_cols=["purchase_sum"], right_cols=["click_sum"])
    out = joined.to_pandas()
    out["purchase_sum"] = round2(out["purchase_sum"].fillna(0.0))
    out["click_sum"] = round2(out["click_sum"].fillna(0.0))
    out["user_id"] = out["user_id"].astype("int64")
    return (out[["user_id", "purchase_sum", "click_sum"]]
            .sort_values("user_id").reset_index(drop=True))


USER_BIG_VALUE_OUTER_SQL = r"""
WITH p AS (
  SELECT user_id, sum(value) AS purchase_sum FROM events
  WHERE event_type = 'purchase' AND value > 200 GROUP BY user_id),
c AS (
  SELECT user_id, sum(value) AS click_sum FROM events
  WHERE event_type = 'click' AND value > 200 GROUP BY user_id)
SELECT coalesce(p.user_id, c.user_id) AS user_id,
       round(coalesce(p.purchase_sum, 0), 2) AS purchase_sum,
       round(coalesce(c.click_sum, 0), 2) AS click_sum
FROM p FULL OUTER JOIN c ON p.user_id = c.user_id
ORDER BY user_id
"""


def skew_join_user_events(sf_dir: str):
    """Skew-defused join (stages/joins.skew_join): events ⋈ per-user
    purchase totals on user_id — hot keys (from a bounded sample of the
    left key column) ride a broadcast of THEIR right rows while the
    cold remainder takes the bucketed hash join; the union equals the
    plain join, which is exactly what the oracle replays. The split is
    the mirror-heavy-crawl defence: a celebrity key no longer lands a
    whole bucket on one reducer."""
    from ray.data.aggregate import Sum

    from ..stages.joins import skew_join

    ev = _read(sf_dir, "events", ["event_id", "user_id", "value"])
    dim = (_read(sf_dir, "events", ["user_id", "event_type", "value"])
           .filter(expr="event_type == 'purchase'")
           .groupby("user_id")
           .aggregate(Sum("value", alias_name="purchase_total")))
    out = skew_join(
        ev, dim, on="user_id", how="inner",
        left_cols=["event_id", "value"], right_cols=["purchase_total"],
        sample_rows=5000, hot_share=0.005,
    ).to_pandas()
    out["purchase_total"] = round2(out["purchase_total"])
    return (out[["event_id", "user_id", "value", "purchase_total"]]
            .sort_values("event_id").reset_index(drop=True))


SKEW_JOIN_SQL = r"""
WITH dim AS (
  SELECT user_id, round(sum(value), 2) AS purchase_total
  FROM events WHERE event_type = 'purchase' GROUP BY user_id)
SELECT e.event_id, e.user_id, e.value, d.purchase_total
FROM events e JOIN dim d USING (user_id)
ORDER BY e.event_id
"""


def doc_chain_components(sf_dir: str):
    """Distributed min-label connected components under a FULL-VALUE
    oracle: edges are synthesized deterministically from doc_id —
    (i-2, i) whenever (i-2) % 10 ∈ {0,2,4}, giving four-node chains
    per decade — the components run through the SAME in-cluster
    propagation the near-dup keep-set uses (stages/dedup.py:
    minlabel_components, pairs-Dataset path), and DuckDB replays the
    reachability closure with WITH RECURSIVE. Moves the component
    machinery from internally-exercised to driver-checked."""
    from ..stages.dedup import minlabel_components

    docs = _read(sf_dir, "documents", ["doc_id"])

    def mk_edges(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        src = ids - 2
        m = (ids >= 2) & np.isin(src % 10, (0, 2, 4))
        return pa.table({"id_a": pa.array(src[m], pa.int64()),
                         "id_b": pa.array(ids[m], pa.int64())})

    pairs = docs.map_batches(mk_edges, batch_format="pyarrow")
    out = minlabel_components(pairs, num_buckets=8)
    return out.reset_index(drop=True)


def doc_chain_components_star(sf_dir: str):
    """The same chain graph through the ALTERNATE component algorithm —
    large-star/small-star rounds (Kiveris et al., SoCC 2014; O(log²)
    rounds regardless of diameter, the pathological-chain scale path) —
    against the same recursive-CTE oracle, so both component engines
    are driver-checked."""
    from ..stages.dedup import star_components

    docs = _read(sf_dir, "documents", ["doc_id"]).to_pandas()
    ids = docs["doc_id"].to_numpy()
    src = ids - 2
    m = (ids >= 2) & np.isin(src % 10, (0, 2, 4))
    pairs = pd.DataFrame({"id_a": src[m], "id_b": ids[m]})
    return star_components(pairs, num_buckets=8).reset_index(drop=True)


DOC_CHAIN_COMPONENTS_SQL = r"""
WITH RECURSIVE base AS (
  SELECT doc_id - 2 AS a, doc_id AS b FROM documents
  WHERE doc_id >= 2 AND (doc_id - 2) % 10 IN (0, 2, 4)),
e AS (SELECT a, b FROM base UNION SELECT b, a FROM base),
walk(node, lbl) AS (
  SELECT a AS node, b AS lbl FROM e
  UNION
  SELECT w.node, e.b FROM walk w JOIN e ON w.lbl = e.a
)
SELECT node::BIGINT AS node,
       least(node, min(lbl))::BIGINT AS group_root
FROM walk GROUP BY node ORDER BY node
"""


def events_time_travel(sf_dir: str):
    """Versioned-table time travel (state/versioned.py): commit 1 =
    the events base, commit 2 = value updates to event_id % 10 == 0,
    commit 3 = tombstones for event_id % 7 == 0. Reads as-of versions
    2 AND 3 must reconstruct exactly the right snapshots — v2 sees the
    updates but not the deletes; v3 loses the tombstoned keys. Version
    pruning happens at the commit-directory listing (an as-of-2 read
    never opens commit 3's files); key resolution is a hash-bucketed
    last-write-wins, no driver materialization. The SQL oracle replays
    both snapshots from the flat table."""
    from ..state.versioned import commit, read_as_of

    def build(root: str) -> None:
        base = _read(sf_dir, "events", ["event_id", "user_id", "value"])
        commit(base, root, key="event_id")

        def updates(t: pa.Table) -> pa.Table:
            ids = t["event_id"].to_numpy(zero_copy_only=False)
            t = t.filter(pa.array(ids % 10 == 0))
            return t.set_column(
                t.schema.get_field_index("value"), "value",
                pc.add(t["value"], 1000.0))

        commit(base.map_batches(updates, batch_format="pyarrow"),
               root, key="event_id")

        def deletes(t: pa.Table) -> pa.Table:
            ids = t["event_id"].to_numpy(zero_copy_only=False)
            t = t.filter(pa.array(ids % 7 == 0))
            return t.append_column(
                "_deleted", pa.array([True] * t.num_rows, pa.bool_()))

        commit(base.map_batches(deletes, batch_format="pyarrow"),
               root, key="event_id")

    root = _build_once(_cache_dir(
        "events_versioned", 1, os.path.join(sf_dir, "events.parquet")),
        build)

    frames = []
    for v in (2, 3):
        snap = read_as_of(root, v, key="event_id").to_pandas()
        snap["as_of"] = v
        frames.append(snap)
    out = pd.concat(frames, ignore_index=True)
    for c in ("as_of", "event_id", "user_id"):
        out[c] = out[c].astype("int64")
    return (out[["as_of", "event_id", "user_id", "value"]]
            .sort_values(["as_of", "event_id"]).reset_index(drop=True))


EVENTS_TIME_TRAVEL_SQL = r"""
WITH v2 AS (
  SELECT event_id, user_id,
         CASE WHEN event_id % 10 = 0 THEN value + 1000 ELSE value END
           AS value
  FROM events),
v3 AS (SELECT * FROM v2 WHERE event_id % 7 <> 0)
SELECT 2::BIGINT AS as_of, * FROM v2
UNION ALL
SELECT 3::BIGINT AS as_of, * FROM v3
ORDER BY as_of, event_id
"""


def events_zorder_box_query(sf_dir: str):
    """Z-order (Morton-curve) clustered layout + two-dimensional
    zone-map pruning (stages/zorder.py): events are laid out ONCE per
    sf sorted by the bit-interleaved (user_id, ts) code, so every file
    is local in BOTH dimensions; a box predicate (user range × time
    range) then keeps only files whose footers overlap on BOTH columns
    — a 1D sort can prune on one dimension only. One all-to-all paid
    at write time buys selectivity-proportional box scans forever
    after. Oracle replays the box on the flat table."""
    import ray.data as rd

    from ..stages.zorder import zonemap_box_files, zorder_layout

    out_dir = _build_once(
        _cache_dir("events_zorder", 1, os.path.join(sf_dir, "events.parquet")),
        lambda d: zorder_layout(
            _read(sf_dir, "events", ["user_id", "ts", "event_type",
                                     "value"]),
            ("user_id", "ts"), d, num_files=16))

    u_lo, u_hi = 0, 8
    t_lo = pd.Timestamp("2024-01-08")
    t_hi = pd.Timestamp("2024-01-15")
    keep, _total = zonemap_box_files(
        out_dir, {"user_id": (u_lo, u_hi), "ts": (t_lo, t_hi)})
    if not keep:
        return pd.DataFrame({
            "event_type": pd.Series([], dtype=object),
            "n": pd.Series([], dtype="int64"),
            "total_value": pd.Series([], dtype="float64")})
    ds = rd.read_parquet(keep).map_batches(
        lambda t: t.filter(pc.and_(
            pc.and_(pc.greater_equal(t["user_id"], pa.scalar(u_lo)),
                    pc.less(t["user_id"], pa.scalar(u_hi))),
            pc.and_(pc.greater_equal(t["ts"], pa.scalar(t_lo)),
                    pc.less(t["ts"], pa.scalar(t_hi))))),
        batch_format="pyarrow")
    out = grouped_partials(ds, "event_type", sums=["value"], count="n") \
        .rename(columns={"value": "total_value"})
    out["total_value"] = round2(out["total_value"])
    return out[["event_type", "n", "total_value"]]


EVENTS_ZORDER_BOX_SQL = r"""
SELECT event_type, count(*)::BIGINT AS n,
       round(sum(value), 2) AS total_value
FROM events
WHERE user_id >= 0 AND user_id < 8
  AND ts >= TIMESTAMP '2024-01-08' AND ts < TIMESTAMP '2024-01-15'
GROUP BY event_type ORDER BY event_type
"""


def canonical_url_dedup(sf_dir: str):
    """URL canonicalization → exact dedup by canonical key
    (stages/urls.py): messy URL variants — scheme/host case, default
    :443 port, utm_*/gclid/fbclid tracking params, param order,
    fragments — are synthesized DETERMINISTICALLY from doc_id (both
    sides of the oracle build the same strings; testdata has no URL
    column), canonicalized with the reusable batch kernel, and grouped
    to (canonical url, duplicate count, first doc). At crawl scale the
    groupby moves only the canonical-key column — payloads never ride
    the shuffle."""
    from ray.data.aggregate import Count, Min

    from ..stages.urls import canonicalize_batch

    def mk(b: pd.DataFrame) -> pd.DataFrame:
        d = b["doc_id"]
        url = ("HTTPS://Host" + (d % 7).astype(str) + ".Example.COM"
               + np.select([d % 3 == 0, d % 3 == 1], [":443", ":8080"], "")
               + "/Path/" + (d % 11).astype(str)
               + np.select([d % 4 == 0, d % 4 == 1, d % 4 == 2],
                           ["?utm_source=x&b=2&a=1", "?a=1&b=2",
                            "?b=2&a=1&fbclid=zz"], "")
               + np.where(d % 5 == 0, "#frag", ""))
        return pd.DataFrame({"doc_id": d, "url": url})

    docs = _read(sf_dir, "documents", ["doc_id"])
    out = (docs.map_batches(lambda b: arrow_out(mk(b)),
                            batch_format="pandas")
           .map_batches(canonicalize_batch, batch_format="pyarrow")
           .groupby("url_canon")
           .aggregate(Count(alias_name="n_docs"),
                      Min("doc_id", alias_name="first_doc"))
           .to_pandas())
    out["n_docs"] = out["n_docs"].astype("int64")
    out["first_doc"] = out["first_doc"].astype("int64")
    return out.sort_values("url_canon").reset_index(drop=True)


CANONICAL_URL_SQL = r"""
WITH u AS (
  SELECT doc_id,
         'HTTPS://Host' || (doc_id % 7)::VARCHAR || '.Example.COM'
         || CASE WHEN doc_id % 3 = 0 THEN ':443'
                 WHEN doc_id % 3 = 1 THEN ':8080' ELSE '' END
         || '/Path/' || (doc_id % 11)::VARCHAR
         || CASE WHEN doc_id % 4 = 0 THEN '?utm_source=x&b=2&a=1'
                 WHEN doc_id % 4 = 1 THEN '?a=1&b=2'
                 WHEN doc_id % 4 = 2 THEN '?b=2&a=1&fbclid=zz'
                 ELSE '' END
         || CASE WHEN doc_id % 5 = 0 THEN '#frag' ELSE '' END AS url
  FROM documents),
parts AS (
  SELECT doc_id,
         lower(regexp_extract(url, '^([A-Za-z][A-Za-z0-9+.-]*)://', 1))
           AS scheme,
         lower(regexp_extract(url, '^[^:]+://([^/?#]*)', 1)) AS host,
         regexp_extract(url, '^[^:]+://[^/?#]*([^?#]*)', 1) AS path,
         regexp_extract(url, '\?([^#]*)', 1) AS query
  FROM u),
canon AS (
  SELECT doc_id,
         scheme || '://'
         || CASE WHEN scheme = 'https' AND host LIKE '%:443'
                 THEN left(host, length(host) - 4)
                 WHEN scheme = 'http' AND host LIKE '%:80'
                 THEN left(host, length(host) - 3)
                 ELSE host END
         || path
         || CASE WHEN qs <> '' THEN '?' || qs ELSE '' END AS url_canon
  FROM (
    SELECT doc_id, scheme, host, path,
           array_to_string(list_sort(list_filter(str_split(query, '&'),
             p -> p <> '' AND NOT (starts_with(p, 'utm_')
                   OR p = 'gclid' OR starts_with(p, 'gclid=')
                   OR p = 'fbclid' OR starts_with(p, 'fbclid=')))), '&')
             AS qs
    FROM parts))
SELECT url_canon, count(*)::BIGINT AS n_docs, min(doc_id) AS first_doc
FROM canon GROUP BY url_canon ORDER BY url_canon
"""


def semdedup_keep_docs(sf_dir: str):
    """SemDeDup over the embeddings table, fully oracle-checked via the
    portable k-means trainer (md5 init + 6 dp barrier — see
    ivf_cosine): SEMDEDUP_SQL unrolls the identical codebook, assigns
    each vector to its final cluster, and keeps exactly the vectors
    with no lower-id in-cluster neighbor at cosine ≥ 0.95."""
    from ..stages.similarity import semdedup_keep

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = semdedup_keep(ds, n_clusters=16, threshold=0.95,
                        portable=True).to_pandas()
    out["kept"] = out["kept"].astype(bool)
    return out.sort_values("vec_id").reset_index(drop=True)


def _semdedup_sql(n_clusters: int = 16, threshold: float = 0.95,
                  iters: int = KMEANS_ITERS) -> str:
    return _kmeans_sql_prefix(n_clusters, iters) + f""",
dup AS (
  SELECT b.vec_id,
         bool_or(list_cosine_similarity(ea.embedding::DOUBLE[],
                                        eb.embedding::DOUBLE[])
                   >= {threshold}) AS dup
  FROM afin a JOIN afin b ON a.cid = b.cid AND a.vec_id < b.vec_id
  JOIN embeddings ea ON ea.vec_id = a.vec_id
  JOIN embeddings eb ON eb.vec_id = b.vec_id
  GROUP BY b.vec_id)
SELECT a.vec_id, a.cid AS cluster,
       NOT coalesce(d.dup, false) AS kept
FROM afin a LEFT JOIN dup d USING (vec_id)
ORDER BY a.vec_id
"""


def bloom_eval_overlap(sf_dir: str):
    """Bloom-filter decontamination screen, fully oracle-checked: a
    mergeable bloom of ALL corpus word 13-grams (per-batch packed
    bitmaps, OR-merge — no gram ever shuffles), probed by an eval set
    of 5 in-corpus docs (every gram must hit) and 5 synthetic
    out-of-corpus texts (hits are bloom false positives only). Probe
    positions are md5 hex slices (stages/sketches.md5_bloom_positions),
    so DuckDB replays the EXACT filter — corpus bit set, probe grams,
    and per-gram all-k-bits verdicts — not just the row shape. The
    siphash fast path stays the default for the corpus-scale
    contamination ops."""
    from ..stages.sketches import bloom_contains_md5, bloom_corpus_ngrams

    M, K = 1 << 23, 3
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    bloom = bloom_corpus_ngrams(ds, n=13, m_bits=M, k=K, gram_hash="md5")

    probes = (ds.map_batches(
        lambda t: t.filter(pc.less(t["doc_id"], pa.scalar(5))),
        batch_format="pyarrow").to_pandas()
        .sort_values("doc_id"))
    texts = [(f"pos_{d}", t) for d, t in zip(probes["doc_id"],
                                             probes["text"])]
    texts += [(f"neg_{i}", " ".join(f"oov{i}w{j}" for j in range(40)))
              for i in range(5)]
    rows = []
    for pid, text in texts:
        toks = (text or "").lower().split()
        grams = sorted({" ".join(toks[i:i + 13])
                        for i in range(len(toks) - 12)})
        hits = bloom_contains_md5(bloom, grams, m_bits=M, k=K)
        rows.append((pid, len(grams), int(hits.sum())))
    return pd.DataFrame(rows, columns=["probe_id", "n_grams", "n_hits"])


# Exact SQL replay of the md5-slice bloom: corpus bit positions =
# distinct md5-slice probes of every corpus 13-gram; a probe gram hits
# iff ALL three of its positions are set. Negative probes are the same
# synthetic oov texts, generated in SQL.
BLOOM_EVAL_SQL = r"""
WITH corpus_toks AS (
  SELECT regexp_split_to_array(trim(lower(coalesce(text, ''))), '\s+') AS t
  FROM documents WHERE trim(coalesce(text, '')) <> ''
),
corpus_grams AS (
  SELECT DISTINCT array_to_string(t[i:i+12], ' ') AS gram
  FROM corpus_toks,
       LATERAL unnest(generate_series(1, greatest(len(t) - 12, 0))) AS s(i)
),
bits AS (
  SELECT DISTINCT
         ('0x' || substr(md5(gram), 1 + 8 * k.i, 8))::UBIGINT & 8388607 AS p
  FROM corpus_grams, (VALUES (0), (1), (2)) AS k(i)
),
probes AS (
  SELECT 'pos_' || doc_id::VARCHAR AS probe_id,
         regexp_split_to_array(trim(lower(coalesce(text, ''))), '\s+') AS t
  FROM documents WHERE doc_id < 5
  UNION ALL
  SELECT 'neg_' || i::VARCHAR,
         list_transform(range(0, 40), j -> 'oov' || i || 'w' || j)
  FROM range(5) AS r(i)
),
probe_grams AS (
  SELECT DISTINCT probe_id, array_to_string(t[i:i+12], ' ') AS gram
  FROM probes,
       LATERAL unnest(generate_series(1, greatest(len(t) - 12, 0))) AS s(i)
),
verdicts AS (
  SELECT probe_id, gram,
         bool_and(('0x' || substr(md5(gram), 1 + 8 * k.i, 8))::UBIGINT
                    & 8388607 IN (SELECT p FROM bits)) AS hit
  FROM probe_grams, (VALUES (0), (1), (2)) AS k(i)
  GROUP BY probe_id, gram
),
agg AS (
  SELECT probe_id, count(*)::BIGINT AS n_grams,
         count(*) FILTER (WHERE hit)::BIGINT AS n_hits
  FROM verdicts GROUP BY probe_id
)
SELECT p.probe_id, coalesce(a.n_grams, 0)::BIGINT AS n_grams,
       coalesce(a.n_hits, 0)::BIGINT AS n_hits
FROM (SELECT DISTINCT probe_id FROM probes) p
LEFT JOIN agg a USING (probe_id)
"""


def doc_ngram_novelty(sf_dir: str, n: int = 8):
    """Per-doc n-gram novelty: the fraction of a doc's DISTINCT word
    8-grams that occur nowhere else in the corpus (corpus count equals
    the doc's own count). Same two-payload-free-shuffle shape as the
    jaccard blocker: the text never moves — only (gram_hash, doc_id,
    count) triples shuffle to the gram bucket, then (doc_id, partial)
    rows to the doc reduce."""
    from pdf_to_text_ray.stages.analysis import _gram_hashes
    from pdf_to_text_ray.stages.groups import bucketed_group_apply
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def explode(t: pa.Table) -> pa.Table:
        ids, grams, counts = [], [], []
        for did, text in zip(t["doc_id"].to_pylist(),
                             t["text"].to_pylist()):
            hs = _gram_hashes((text or "").lower().split(), n)
            if len(hs) == 0:
                continue
            u, c = np.unique(hs, return_counts=True)
            ids.append(np.full(len(u), did, np.int64))
            grams.append(u)
            counts.append(c.astype(np.int64))
        if not ids:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "gram": pa.array([], pa.uint64()),
                             "c": pa.array([], pa.int64())})
        return pa.table({"doc_id": pa.array(np.concatenate(ids)),
                         "gram": pa.array(np.concatenate(grams)),
                         "c": pa.array(np.concatenate(counts))})

    def per_gram_bucket(df: pd.DataFrame) -> pd.DataFrame:
        total = df.groupby("gram")["c"].transform("sum")
        return pd.DataFrame({
            "doc_id": df["doc_id"],
            "novel": (df["c"] == total).astype("int64"),
            "one": np.ones(len(df), np.int64)})

    out = (bucketed_group_apply(
        ds.map_batches(explode, batch_format="pyarrow"),
        "gram", per_gram_bucket)
        .groupby("doc_id")
        .aggregate(Sum("novel", alias_name="n_novel"),
                   Sum("one", alias_name="n_grams"))
        .to_pandas())
    out["n_novel"] = out["n_novel"].astype("int64")
    out["n_grams"] = out["n_grams"].astype("int64")
    out["novelty"] = out["n_novel"] / out["n_grams"]  # int/int: exact
    return out.sort_values("doc_id").reset_index(drop=True)


NGRAM_NOVELTY_SQL = r"""
WITH toks AS (
  SELECT doc_id, regexp_split_to_array(lower(trim(text)), '\s+') AS t
  FROM documents WHERE trim(coalesce(text, '')) <> ''
),
g AS (
  SELECT doc_id, array_to_string(t[i:i+7], ' ') AS gram
  FROM toks CROSS JOIN LATERAL
    (SELECT unnest(range(1, greatest(len(t) - 7, 0) + 1)) AS i) _
),
dg AS (SELECT doc_id, gram, count(*)::BIGINT AS c FROM g GROUP BY 1, 2),
tot AS (SELECT gram, sum(c)::BIGINT AS n FROM dg GROUP BY 1)
SELECT dg.doc_id,
       sum(CASE WHEN dg.c = tot.n THEN 1 ELSE 0 END)::BIGINT AS n_novel,
       count(*)::BIGINT AS n_grams,
       sum(CASE WHEN dg.c = tot.n THEN 1 ELSE 0 END)::DOUBLE / count(*)
         AS novelty
FROM dg JOIN tot USING (gram)
GROUP BY dg.doc_id ORDER BY dg.doc_id
"""


def session_stats_per_user(sf_dir: str, gap_minutes: int = 30):
    """Two-level session analytics composed on the sessionize shape:
    session ids from the gap rule (cumsum inside the user bucket),
    per-session counts/spans, then per-user stats — all inside ONE
    bucketed shuffle."""
    from pdf_to_text_ray.stages.groups import bucketed_group_apply

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id"])
    gap_us = gap_minutes * 60 * 1_000_000

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="stable")
        gaps = g.groupby("user_id", sort=False)["ts"].diff()
        new_s = ((gaps.dt.total_seconds() * 1_000_000 > gap_us)
                 .fillna(False))
        g = g.assign(_sid=new_s.groupby(g["user_id"]).cumsum())
        per_sess = g.groupby(["user_id", "_sid"], sort=False).agg(
            n_events=("event_id", "size"), _mx=("ts", "max"),
            _mn=("ts", "min"))
        per_sess["span_sec"] = (per_sess["_mx"]
                                - per_sess["_mn"]).dt.total_seconds()
        out = per_sess.groupby("user_id").agg(
            n_sessions=("n_events", "size"),
            max_session_events=("n_events", "max"),
            avg_span_sec=("span_sec", "mean")).reset_index()
        out["n_sessions"] = out["n_sessions"].astype("int64")
        out["max_session_events"] = out["max_session_events"].astype("int64")
        out["avg_span_sec"] = round2(out["avg_span_sec"])
        return out

    return (bucketed_group_apply(ds, "user_id", per_bucket)
            .to_pandas().sort_values("user_id").reset_index(drop=True))


SESSION_STATS_SQL = """
WITH gaps AS (
  SELECT user_id, ts, event_id,
         CASE WHEN epoch_us(ts) - lag(epoch_us(ts)) OVER w > 1800000000
              THEN 1 ELSE 0 END AS new_s
  FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
), sess AS (
  SELECT user_id, ts,
         sum(new_s) OVER (PARTITION BY user_id ORDER BY ts, event_id
                          ROWS UNBOUNDED PRECEDING) AS sid
  FROM gaps
), per_sess AS (
  SELECT user_id, sid, count(*)::BIGINT AS n_events,
         epoch(max(ts)) - epoch(min(ts)) AS span_sec
  FROM sess GROUP BY user_id, sid
)
SELECT user_id, count(*)::BIGINT AS n_sessions,
       max(n_events)::BIGINT AS max_session_events,
       round(avg(span_sec), 2) AS avg_span_sec
FROM per_sess GROUP BY user_id ORDER BY user_id
"""


def q8_market_share(sf_dir: str):
    """TPC-H Q8 shape — a nation's revenue share of a filtered market
    per order year: part filter and supplier→nation ship as broadcast
    sorted arrays; orders⋈customer (region-filtered) and
    lineitem⋈orders are bucketed fact-fact joins; each batch emits
    (year, nation_rev, total_rev) partials so the share division runs
    on a handful of year rows."""
    import ray

    from pdf_to_text_ray.stages.joins import bucketed_hash_join

    nation = _read(sf_dir, "nation").to_pandas()
    region = _read(sf_dir, "region").to_pandas()
    am_keys = region.loc[region["r_name"] == "AMERICA", "r_regionkey"]
    am_nations = set(nation.loc[nation["n_regionkey"].isin(am_keys),
                                "n_nationkey"])
    part = _read(sf_dir, "part", ["p_partkey", "p_type"]).to_pandas()
    pkeys = np.sort(part.loc[part["p_type"] == "STANDARD",
                             "p_partkey"].to_numpy())
    supp = (_read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
            .to_pandas().sort_values("s_suppkey"))
    bref = ray.put((pkeys, supp["s_suppkey"].to_numpy(),
                    supp["s_nationkey"].to_numpy()))

    def orders_prep(t: pa.Table) -> pa.Table:
        yr = pc.year(t["o_orderdate"])
        return pa.table({"o_orderkey": t["o_orderkey"],
                         "c_custkey": t["o_custkey"],
                         "o_year": yr})

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate"]
                   ).map_batches(orders_prep, batch_format="pyarrow")
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    o_c = bucketed_hash_join(orders, cust, on="c_custkey")
    o_c = o_c.map_batches(
        lambda t: t.filter(pc.is_in(
            t["c_nationkey"],
            value_set=pa.array(sorted(am_nations), pa.int64())))
        .select(["o_orderkey", "o_year"]),
        batch_format="pyarrow")

    li = _lineitem(sf_dir, ["l_orderkey", "l_partkey", "l_suppkey",
                            "l_extendedprice", "l_discount"]).map_batches(
        lambda t: t.rename_columns(["o_orderkey", "l_partkey", "l_suppkey",
                                    "l_extendedprice", "l_discount"]),
        batch_format="pyarrow")
    joined = bucketed_hash_join(
        li, o_c, on="o_orderkey")

    def share_partial(t: pa.Table) -> pa.Table:
        keys, sk, sn = ray.get(bref)
        b = t.to_pandas()
        b = b[probe_sorted(keys, b["l_partkey"].to_numpy())[0]]
        if not len(b):
            return pa.table({"o_year": pa.array([], pa.int64()),
                             "nation_rev": pa.array([], pa.float64()),
                             "total_rev": pa.array([], pa.float64())})
        hit, idx = probe_sorted(sk, b["l_suppkey"].to_numpy())
        s_nat = np.full(len(b), -1, sn.dtype)
        s_nat[hit] = sn[idx[hit]]
        rev = (b["l_extendedprice"] * (1 - b["l_discount"])).to_numpy()
        return pa.table({"o_year": b["o_year"].to_numpy().astype(np.int64),
                         "nation_rev": np.where(s_nat == 3, rev, 0.0),
                         "total_rev": rev})

    agg = grouped_partials(joined, "o_year", sums=["nation_rev", "total_rev"],
                           prep=share_partial)
    if agg.empty:
        return pd.DataFrame({"o_year": pd.Series([], dtype="int64"),
                             "mkt_share": pd.Series([], dtype="float64")})
    agg["mkt_share"] = round2(agg["nation_rev"] / agg["total_rev"])
    return agg[["o_year", "mkt_share"]]


Q8_SQL = """
SELECT year(o_orderdate)::BIGINT AS o_year,
       round(sum(CASE WHEN s_nationkey = 3
                      THEN l_extendedprice * (1 - l_discount)
                      ELSE 0.0 END)
             / sum(l_extendedprice * (1 - l_discount)), 2) AS mkt_share
FROM lineitem, orders, customer, supplier, part, nation, region
WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey
  AND l_suppkey = s_suppkey AND l_partkey = p_partkey
  AND c_nationkey = n_nationkey AND n_regionkey = r_regionkey
  AND r_name = 'AMERICA' AND p_type = 'STANDARD'
GROUP BY o_year ORDER BY o_year
"""


def nation_presence_counts(sf_dir: str):
    """FULL OUTER join coverage — per-nation customer and supplier
    counts merged with outer semantics (a nation missing from either
    side keeps the other's count, absents are 0). Both inputs are
    distributed grouped counts; the outer merge runs on the two tiny
    per-nation results."""
    cust = grouped_partials(
        _read(sf_dir, "customer", ["c_nationkey"]), "c_nationkey",
        count="n_customers").rename(columns={"c_nationkey": "nationkey"})
    supp = grouped_partials(
        _read(sf_dir, "supplier", ["s_nationkey"]), "s_nationkey",
        count="n_suppliers").rename(columns={"s_nationkey": "nationkey"})
    out = cust.merge(supp, on="nationkey", how="outer")
    out["n_customers"] = out["n_customers"].fillna(0).astype("int64")
    out["n_suppliers"] = out["n_suppliers"].fillna(0).astype("int64")
    out["nationkey"] = out["nationkey"].astype("int64")
    return out.sort_values("nationkey").reset_index(drop=True)


FULL_OUTER_SQL = """
SELECT coalesce(c.k, s.k) AS nationkey,
       coalesce(c.n, 0)::BIGINT AS n_customers,
       coalesce(s.n, 0)::BIGINT AS n_suppliers
FROM (SELECT c_nationkey AS k, count(*) AS n FROM customer GROUP BY 1) c
FULL OUTER JOIN
     (SELECT s_nationkey AS k, count(*) AS n FROM supplier GROUP BY 1) s
  ON c.k = s.k
ORDER BY nationkey
"""


def sample_weighted_docs(sf_dir: str, k: int = 20):
    """Deterministic weighted sampling without replacement (Efraimidis
    & Spirakis 2006, A-Res): key = u^(1/w) with w = n_chars and u an
    engine-portable deterministic uniform (md5(doc_id) first 8 hex
    digits / 2^32 — both engines compute the identical double). The
    top-k by key IS the weighted sample. Per-batch partial top-k +
    tiny driver merge (the knn partial-top-k shape)."""
    from ..stages.sketches import md5_uniform

    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])

    def partial(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy().astype(np.int64)
        w = t["n_chars"].to_numpy(zero_copy_only=False).astype(np.float64)
        u = md5_uniform(t["doc_id"])
        key = u ** (1.0 / np.maximum(w, 1.0))
        order = np.argsort(-key)[:k]
        return pa.table({
            "doc_id": pa.array(ids[order]),
            "wkey": pa.array(key[order], pa.float64())})

    pdf = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    top = pdf.sort_values(["wkey", "doc_id"],
                          ascending=[False, True]).head(k)
    return top[["doc_id"]].sort_values("doc_id").reset_index(drop=True)


def events_ivm_counts(sf_dir: str):
    """Incremental view maintenance: a per-type (count, sum) aggregate
    is MAINTAINED by merging a delta aggregate instead of recomputed —
    the lakehouse pattern that makes a 100 TB rollup affordable when
    1% of rows change. The v2 snapshot is derived deterministically
    (event_id%13 removed, %7 value+1, %11 cloned under a new id); the
    delta (-1/-v for removes, Δv for changes, +1/+v for adds) is pure
    per-batch arithmetic — ZERO extra shuffle beyond the two tiny
    grouped partials. Oracle recomputes the v2 aggregate from scratch,
    so any drift between maintained and true state hash-mismatches."""
    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])

    base = grouped_partials(ds, "event_type", sums=["value"], count="n")

    def delta(t: pa.Table) -> pa.Table:
        ids = t["event_id"].to_numpy(zero_copy_only=False)
        v = t["value"].to_numpy(zero_copy_only=False)
        removed = ids % 13 == 0
        changed = (~removed) & (ids % 7 == 0)
        cloned = (~removed) & (ids % 11 == 0)
        dn = np.where(removed, -1, 0) + cloned.astype(np.int64)
        dv = (np.where(removed, -v, 0.0)
              + np.where(changed, 1.0, 0.0)          # value+1 delta
              + np.where(cloned, np.where(changed, v + 1.0, v), 0.0))
        return pa.table({"event_type": t["event_type"],
                         "dn": pa.array(dn, pa.int64()),
                         "dv": pa.array(dv, pa.float64())})

    d = grouped_partials(ds, "event_type", sums=["dn", "dv"], prep=delta)
    out = base.merge(d, on="event_type", how="outer").fillna(0.0)
    return pd.DataFrame({
        "event_type": out["event_type"],
        "n": (out["n"] + out["dn"]).astype("int64"),
        "total": round2(out["value"] + out["dv"]),
    }).sort_values("event_type").reset_index(drop=True)


IVM_SQL = """
WITH newv AS (
  SELECT event_type, value FROM events WHERE event_id % 13 <> 0 AND event_id % 7 <> 0
  UNION ALL
  SELECT event_type, value + 1.0 FROM events
  WHERE event_id % 13 <> 0 AND event_id % 7 = 0
  UNION ALL
  SELECT event_type, CASE WHEN event_id % 7 = 0 THEN value + 1.0
                          ELSE value END
  FROM events WHERE event_id % 13 <> 0 AND event_id % 11 = 0
)
SELECT event_type, count(*) AS n, round(sum(value), 2) AS total
FROM newv GROUP BY event_type
"""


def rag_index_docs(sf_dir: str):
    """The composed RAG-index flagship (pipelines/curate.py::
    rag_index_pipeline): gate → dedup → chunk → embed → split, one lazy
    flow — now oracle-checked END TO END: the md5-bucketed hashed
    embedding (classifier.hash_features(token_hash="md5")) plus a
    float64 norm over float32-quantized components make every column,
    including emb_norm, replayable in _rag_index_sql."""
    from .curate import rag_index_pipeline

    return rag_index_pipeline(sf_dir).select_columns(
        ["doc_id", "chunk_idx", "n_tokens", "split", "emb_norm"])


def _rag_index_sql(width: int = 64, stride: int = 48,
                   dim: int = 64) -> str:
    """SQL replay of rag_index_pipeline: gopher gate (same expressions
    as _gopher_sql) → min-doc_id-per-md5(text) exact dedup →
    single-space token chunks of ``width`` every ``stride`` (Python's
    ''.split(' ') yields one empty token, so every doc has ≥1 chunk)
    → md5 train/val/test split → emb_norm = float64 norm of the
    REAL-cast normalized md5-bucket token counts (bit-parity: integer
    counts and the correctly-rounded sqrt/divide make c/‖c‖ identical
    in both engines before the f32 cast; the final sum's 1e-16 order
    noise sits far inside the gate's 9 dp rounding)."""
    from ..stages.curation import (GOPHER_MAX_MEAN_WLEN, GOPHER_MAX_WORDS,
                                   GOPHER_MIN_MEAN_WLEN, GOPHER_MIN_STOP_HITS,
                                   GOPHER_MIN_WORDS, GOPHER_STOPWORDS)

    stops = ", ".join(f"'{w}'" for w in GOPHER_STOPWORDS)
    return f"""
WITH s AS (
  SELECT doc_id, text,
         CASE WHEN coalesce(text, '') = '' THEN 0
              ELSE length(str_split(text, ' ')) END::BIGINT AS n_words,
         CASE WHEN coalesce(text, '') = '' THEN 0.0
              ELSE (length(text) - (length(str_split(text, ' ')) - 1))::DOUBLE
                   / length(str_split(text, ' ')) END AS mean_word_len,
         CASE WHEN coalesce(text, '') = '' THEN 0
              ELSE length(list_filter(str_split(text, ' '),
                          x -> list_contains([{stops}], x))) END::BIGINT
           AS n_stop
  FROM documents),
kept AS (
  SELECT doc_id, text FROM s
  WHERE n_words >= {GOPHER_MIN_WORDS} AND n_words <= {GOPHER_MAX_WORDS}
    AND mean_word_len >= {GOPHER_MIN_MEAN_WLEN}
    AND mean_word_len <= {GOPHER_MAX_MEAN_WLEN}
    AND n_stop >= {GOPHER_MIN_STOP_HITS}),
winners AS (
  SELECT min(doc_id) AS doc_id FROM kept
  GROUP BY md5(coalesce(text, ''))),
docs2 AS (
  SELECT k.doc_id, str_split(coalesce(k.text, ''), ' ') AS t
  FROM kept k JOIN winners USING (doc_id)),
chunked AS MATERIALIZED (
  SELECT doc_id, ci::BIGINT AS chunk_idx,
         (least(ci * {stride} + {width}, len(t))
            - ci * {stride})::BIGINT AS n_tokens,
         array_to_string(
           t[ci * {stride} + 1 : least(ci * {stride} + {width}, len(t))],
           ' ') AS chunk
  FROM docs2, LATERAL unnest(generate_series(
         0, (len(t) - 1) // {stride})) AS u(ci)),
ctoks AS (
  SELECT doc_id, chunk_idx,
         unnest(regexp_extract_all(lower(chunk), '[a-z0-9]+')) AS tok
  FROM chunked),
cnt AS (
  SELECT doc_id, chunk_idx,
         ('0x' || substr(md5(tok), 1, 8))::UBIGINT % {dim} AS b,
         count(*)::DOUBLE AS c
  FROM ctoks GROUP BY doc_id, chunk_idx, b),
nrm AS (
  SELECT doc_id, chunk_idx, sqrt(sum(c * c)) AS n
  FROM cnt GROUP BY doc_id, chunk_idx),
en AS (
  SELECT c.doc_id, c.chunk_idx,
         sqrt(sum(CAST(c.c / n.n AS REAL)::DOUBLE
                  * CAST(c.c / n.n AS REAL)::DOUBLE)) AS emb_norm
  FROM cnt c JOIN nrm n USING (doc_id, chunk_idx)
  GROUP BY c.doc_id, c.chunk_idx)
SELECT ch.doc_id, ch.chunk_idx, ch.n_tokens,
       CASE WHEN u < 0.8 THEN 'train'
            WHEN u < 0.9 THEN 'val'
            ELSE 'test' END AS split,
       coalesce(e.emb_norm, 0.0) AS emb_norm
FROM (SELECT *,
             ('0x' || substr(md5(doc_id::VARCHAR), 1, 8))::UBIGINT
               / 4294967296.0 AS u
      FROM chunked) ch
LEFT JOIN en e USING (doc_id, chunk_idx)
"""


def doc_split_assign(sf_dir: str):
    """Deterministic train/val/test split (80/10/10) by the
    engine-portable md5 uniform — the assignment is a pure function of
    doc_id, so re-runs, other engines, and the SQL oracle all agree;
    no shuffle, no RNG state."""
    from ..stages.sketches import assign_split

    ds = _read(sf_dir, "documents", ["doc_id"])

    def assign(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        return pa.table({
            "doc_id": pa.array(np.asarray(ids, np.int64)),
            "split": pa.array(assign_split(ids), pa.string()),
        })

    return ds.map_batches(assign, batch_format="pyarrow")


SPLIT_ASSIGN_SQL = """
SELECT doc_id,
       CASE WHEN u < 0.8 THEN 'train'
            WHEN u < 0.9 THEN 'val'
            ELSE 'test' END AS split
FROM (SELECT doc_id,
             ('0x' || substr(md5(doc_id::VARCHAR), 1, 8))::UBIGINT
               / 4294967296.0 AS u
      FROM documents)
"""


WEIGHTED_SAMPLE_SQL = """
SELECT doc_id FROM (
  SELECT doc_id,
         pow(('0x' || substr(md5(doc_id::VARCHAR), 1, 8))::UBIGINT
               / 4294967296.0,
             1.0 / greatest(n_chars, 1)) AS wkey
  FROM documents ORDER BY wkey DESC, doc_id LIMIT 20)
ORDER BY doc_id
"""


def approx_distinct_users_per_type(sf_dir: str):
    """GROUPED HLL distinct sketch: each batch emits one 4 KiB register
    array PER GROUP (not per value), merged per group — the mergeable-
    sketch shape keyed. Oracle-checkable like approx_distinct_users:
    the exact per-group count (SQL-verified) plus a within-5% flag for
    each group's HLL estimate."""
    from ..stages.sketches import hll_estimate, hll_merge, hll_sketch

    ds = _read(sf_dir, "events", ["event_type", "user_id"])

    def batch_sketches(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "event_type": t["event_type"].to_numpy(zero_copy_only=False),
            "user_id": t["user_id"].to_numpy(zero_copy_only=False)})
        types, bufs = [], []
        for et, g in df.groupby("event_type", sort=True):
            types.append(et)
            bufs.append(hll_sketch(g["user_id"].to_numpy()).tobytes())
        return pa.table({"event_type": pa.array(types, pa.string()),
                         "sketch": pa.array(bufs, pa.binary())})

    sk = ds.map_batches(batch_sketches, batch_format="pyarrow").to_pandas()
    est = {et: hll_estimate(hll_merge(
        [np.frombuffer(b, np.uint8) for b in g["sketch"]]))
        for et, g in sk.groupby("event_type")}

    # distinct (type, user) pairs need the exchange; types do not
    exact = grouped_partials(ds.groupby(["event_type", "user_id"]).count(),
                             "event_type", count="n_users")
    exact["approx_within_5pct"] = [
        bool(abs(est[et] - n) / max(n, 1) < 0.05)
        for et, n in zip(exact["event_type"], exact["n_users"])]
    return exact


GROUPED_HLL_SQL = """
SELECT event_type, count(DISTINCT user_id)::BIGINT AS n_users,
       true AS approx_within_5pct
FROM events GROUP BY event_type ORDER BY event_type
"""


def customer_supplier_pagerank(sf_dir: str):
    """PageRank over the bipartite customer↔supplier trade graph
    (edges = distinct (custkey, suppkey) pairs from lineitem⋈orders,
    both directions so no dangling mass). Edge build is a bucketed
    fact-fact join + distinct; ranks iterate via broadcast-vector
    edge scans (`stages/graph.py::pagerank`). Oracle: the identical
    5 damped iterations unrolled as DuckDB CTEs."""
    from ..stages.graph import pagerank
    from ..stages.joins import bucketed_hash_join

    li = _lineitem(sf_dir, ["l_orderkey", "l_suppkey"]).map_batches(
        lambda t: t.rename_columns(["o_orderkey", "l_suppkey"]),
        batch_format="pyarrow")
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    j = bucketed_hash_join(li, orders, on="o_orderkey")
    # distinct via one bucketed exchange + vectorized drop_duplicates
    # (Ray's sort aggregate walks the ~|pairs| one-row groups at
    # Python speed)
    from ..stages.groups import bucketed_group_apply

    pairs = bucketed_group_apply(
        j, "o_custkey",
        lambda df: df.drop_duplicates(["o_custkey", "l_suppkey"]),
        num_buckets=16)

    def to_edges(t: pa.Table) -> pa.Table:
        c = t["o_custkey"].to_numpy(zero_copy_only=False) * 2
        s = t["l_suppkey"].to_numpy(zero_copy_only=False) * 2 + 1
        return pa.table({
            "src": pa.array(np.concatenate([c, s]), pa.int64()),
            "dst": pa.array(np.concatenate([s, c]), pa.int64())})

    edges = pairs.map_batches(to_edges, batch_format="pyarrow")
    pr = pagerank(edges, damping=0.85, iters=5)
    pr["node_type"] = np.where(pr["node"] % 2 == 0, "customer",
                               "supplier")
    pr["key"] = (pr["node"] // 2).astype("int64")
    return (pr[["node_type", "key", "rank"]]
            .sort_values(["node_type", "key"]).reset_index(drop=True))


def _pagerank_sql(iters: int = 5, d: float = 0.85) -> str:
    sql = """
WITH pairs AS (
  SELECT DISTINCT o_custkey * 2 AS a, l_suppkey * 2 + 1 AS b
  FROM lineitem JOIN orders ON l_orderkey = o_orderkey),
edges AS (SELECT a AS src, b AS dst FROM pairs
          UNION ALL SELECT b, a FROM pairs),
deg AS (SELECT src AS v, count(*)::DOUBLE AS d FROM edges GROUP BY 1),
nn AS (SELECT count(*)::DOUBLE AS n FROM deg),
r0 AS (SELECT v, 1.0 / nn.n AS r FROM deg CROSS JOIN nn)"""
    for i in range(1, iters + 1):
        sql += f""",
s{i} AS (SELECT e.dst AS v, sum(r{i-1}.r / deg.d) AS s
  FROM edges e JOIN r{i-1} ON r{i-1}.v = e.src
  JOIN deg ON deg.v = e.src GROUP BY e.dst),
r{i} AS (SELECT deg.v,
  (1.0 - {d}) / nn.n + {d} * coalesce(s{i}.s, 0.0) AS r
  FROM deg CROSS JOIN nn LEFT JOIN s{i} ON s{i}.v = deg.v)"""
    sql += f"""
SELECT CASE WHEN v % 2 = 0 THEN 'customer' ELSE 'supplier' END
         AS node_type,
       (v // 2)::BIGINT AS key, r AS rank
FROM r{iters} ORDER BY node_type, key
"""
    return sql


def _merge_moments(a, b):
    """Pairwise central-moment merge (Pébay 2008) — numerically stable
    vs raw power sums, associative up to float rounding."""
    na, ma, M2a, M3a, M4a = a
    nb, mb, M2b, M3b, M4b = b
    n = na + nb
    if n == 0:
        return (0, 0.0, 0.0, 0.0, 0.0)
    d = mb - ma
    m = ma + d * nb / n
    M2 = M2a + M2b + d * d * na * nb / n
    M3 = (M3a + M3b + d**3 * na * nb * (na - nb) / n**2
          + 3.0 * d * (na * M2b - nb * M2a) / n)
    M4 = (M4a + M4b
          + d**4 * na * nb * (na * na - na * nb + nb * nb) / n**3
          + 6.0 * d * d * (na * na * M2b + nb * nb * M2a) / n**2
          + 4.0 * d * (na * M3b - nb * M3a) / n)
    return (n, m, M2, M3, M4)


def event_value_moments(sf_dir: str):
    """Distributed higher-moment aggregate: per-batch per-group central
    moments (n, mean, M2, M3, M4) merged pairwise (Pébay 2008) — the
    mergeable generalization of Welford — then DuckDB-parity sample
    skewness (G1) and excess kurtosis (G2). Partials are sorted before
    merging so task completion order cannot change the float result."""
    ds = _read(sf_dir, "events", ["event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "event_type": t["event_type"].to_numpy(zero_copy_only=False),
            "v": t["value"].to_numpy(zero_copy_only=False)})
        rows = []
        for et, g in df.groupby("event_type", sort=True):
            v = g["v"].to_numpy()
            mu = v.mean()
            c = v - mu
            rows.append((et, len(v), mu, (c**2).sum(), (c**3).sum(),
                         (c**4).sum()))
        return arrow_out(pd.DataFrame(
            rows, columns=["event_type", "n", "mean", "m2", "m3", "m4"]))

    parts = (ds.map_batches(partial, batch_format="pyarrow").to_pandas()
             .sort_values(["event_type", "n", "mean"], kind="stable"))
    out = []
    for et, g in parts.groupby("event_type", sort=True):
        acc = (0, 0.0, 0.0, 0.0, 0.0)
        for r in g.itertuples(index=False):
            acc = _merge_moments(acc, (r.n, r.mean, r.m2, r.m3, r.m4))
        n, mu, M2, M3, M4 = acc
        m2, m3, m4 = M2 / n, M3 / n, M4 / n
        g1 = m3 / m2**1.5
        skew = g1 * np.sqrt(n * (n - 1.0)) / (n - 2.0)
        g2 = m4 / m2**2 - 3.0
        kurt = ((n + 1.0) * g2 + 6.0) * (n - 1.0) / ((n - 2.0) * (n - 3.0))
        out.append((et, n, mu, skew, kurt))
    pdf = pd.DataFrame(out, columns=["event_type", "n", "mean_value",
                                     "skew", "kurt"])
    pdf["n"] = pdf["n"].astype("int64")
    for c in ("mean_value", "skew", "kurt"):
        pdf[c] = round2(pdf[c])
    return pdf.reset_index(drop=True)


MOMENTS_SQL = """
SELECT event_type, count(*)::BIGINT AS n,
       round(avg(value), 2) AS mean_value,
       round(skewness(value), 2) AS skew,
       round(kurtosis(value), 2) AS kurt
FROM events GROUP BY event_type ORDER BY event_type
"""


def lineitem_regression(sf_dir: str):
    """Grouped least-squares regression (price on quantity per return
    flag) from five distributed partial sums — the algebraic-aggregate
    shape: each batch emits (n, Σx, Σy, Σxy, Σx²) per group, one tiny
    groupby merges them, the slope/intercept division runs on G rows."""
    ds = _lineitem(sf_dir, ["l_returnflag", "l_quantity",
                            "l_extendedprice"])

    def partial(t: pa.Table) -> pa.Table:
        x = t["l_quantity"].to_numpy(zero_copy_only=False)
        y = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        return pa.table({"l_returnflag": t["l_returnflag"], "sx": x,
                         "sy": y, "sxy": x * y, "sxx": x * x})

    agg = grouped_partials(ds, "l_returnflag",
                           sums=["sx", "sy", "sxy", "sxx"], count="n",
                           prep=partial)
    denom = agg["n"] * agg["sxx"] - agg["sx"] ** 2
    agg["slope"] = round2((agg["n"] * agg["sxy"]
                           - agg["sx"] * agg["sy"]) / denom)
    agg["intercept"] = round2((agg["sy"] - (agg["n"] * agg["sxy"]
                                            - agg["sx"] * agg["sy"])
                               / denom * agg["sx"]) / agg["n"])
    return agg[["l_returnflag", "n", "slope", "intercept"]]


REGRESSION_SQL = """
SELECT l_returnflag, count(*)::BIGINT AS n,
       round(regr_slope(l_extendedprice, l_quantity), 2) AS slope,
       round(regr_intercept(l_extendedprice, l_quantity), 2) AS intercept
FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag
"""


def event_hourly_anomaly(sf_dir: str):
    """Windowed anomaly scoring: hourly event counts per type
    (distributed calendar-bucket groupby), z-scored against the type's
    own hourly distribution; the z computation runs on the bounded
    (type × hour) grouped result. Flags |z| > 2."""
    ds = _read(sf_dir, "events", ["event_type", "ts"])

    def bucket(t: pa.Table) -> pa.Table:
        us = pc.cast(t["ts"], pa.int64())
        hour_us = pc.multiply(pc.divide(us, pa.scalar(3_600_000_000,
                                                      pa.int64())),
                              pa.scalar(3_600_000_000, pa.int64()))
        return pa.table({"event_type": t["event_type"],
                         "bucket_us": hour_us})

    counts = (ds.map_batches(bucket, batch_format="pyarrow")
              .groupby(["event_type", "bucket_us"]).count()
              .to_pandas().rename(columns={"count()": "n"}))
    g = counts.groupby("event_type")["n"]
    mu = g.transform("mean")
    sd = g.transform(lambda s: s.std(ddof=1))
    counts["z"] = round2((counts["n"] - mu) / sd)
    counts["n"] = counts["n"].astype("int64")
    out = counts[(counts["z"].abs() > 2.0)]
    return (out[["event_type", "bucket_us", "n", "z"]]
            .sort_values(["event_type", "bucket_us"])
            .reset_index(drop=True))


HOURLY_ANOMALY_SQL = """
WITH c AS (
  SELECT event_type,
         (epoch_us(ts) // 3600000000) * 3600000000 AS bucket_us,
         count(*)::BIGINT AS n
  FROM events GROUP BY 1, 2
), z AS (
  SELECT event_type, bucket_us, n,
         round((n - avg(n) OVER w) / stddev_samp(n) OVER w, 2) AS z
  FROM c WINDOW w AS (PARTITION BY event_type)
)
SELECT event_type, bucket_us, n, z FROM z WHERE abs(z) > 2.0
ORDER BY event_type, bucket_us
"""


def tfidf_top_terms(sf_dir: str, k: int = 3):
    """Per-doc keyword extraction: top-k terms by tf·ln(N/df) (stop
    terms pruned at df > 0.9·N — the corpus vocabulary is dense, a
    TPC-H-style half-N cutoff would stop nearly every term; ties broken
    by term). Two payload-free
    shuffles — (doc_id, term, tf) triples to the term bucket for df,
    weighted rows to the doc bucket for the top-k — the text itself
    never moves. Weights rounded to 6 (ties are exact: equal (tf, df)
    gives bit-identical weights in both engines)."""
    import pyarrow.parquet as pq

    from pdf_to_text_ray.stages.groups import bucketed_group_apply

    n_docs = float(pq.ParquetFile(
        os.path.join(sf_dir, "documents.parquet")).metadata.num_rows)
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def explode(t: pa.Table) -> pa.Table:
        ids, terms, tfs = [], [], []
        for did, text in zip(t["doc_id"].to_pylist(),
                             t["text"].to_pylist()):
            toks = (text or "").lower().split()
            if not toks:
                continue
            u, c = np.unique(np.asarray(toks, object), return_counts=True)
            ids.append(np.full(len(u), did, np.int64))
            terms.append(u)
            tfs.append(c.astype(np.float64))
        if not ids:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "term": pa.array([], pa.string()),
                             "tf": pa.array([], pa.float64())})
        return pa.table({
            "doc_id": pa.array(np.concatenate(ids)),
            "term": pa.array(np.concatenate(terms).astype(str)),
            "tf": pa.array(np.concatenate(tfs))})

    def weigh(df: pd.DataFrame) -> pd.DataFrame:
        dfreq = df.groupby("term")["doc_id"].transform("size").to_numpy(
            dtype=np.float64)
        keep = dfreq <= 0.9 * n_docs
        out = df[keep].copy()
        out["w"] = out["tf"].to_numpy() * np.log(n_docs / dfreq[keep])
        return out[["doc_id", "term", "w"]]

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["doc_id", "w", "term"],
                            ascending=[True, False, True], kind="stable")
        out = df.groupby("doc_id").head(k).copy()
        y = out["w"].to_numpy() * 1e6
        out["w"] = np.copysign(np.floor(np.abs(y) + 0.5), y) / 1e6
        return out

    weighted = bucketed_group_apply(
        ds.map_batches(explode, batch_format="pyarrow"), "term", weigh)
    out = (bucketed_group_apply(weighted, "doc_id", topk)
           .to_pandas()
           .sort_values(["doc_id", "w", "term"],
                        ascending=[True, False, True])
           .reset_index(drop=True))
    return out


TFIDF_TOP_TERMS_SQL = r"""
WITH tok AS (
  SELECT doc_id, unnest(regexp_split_to_array(lower(trim(text)), '\s+'))
             AS term
  FROM documents WHERE trim(coalesce(text, '')) <> ''
),
tf AS (SELECT doc_id, term, count(*)::DOUBLE AS tf
       FROM tok GROUP BY doc_id, term),
n AS (SELECT count(*)::DOUBLE AS n FROM documents),
df AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY term),
w AS (SELECT tf.doc_id, tf.term, tf.tf * ln(n.n / df.df) AS w
      FROM tf, df, n
      WHERE tf.term = df.term AND df.df <= 0.9 * n.n),
r AS (SELECT doc_id, term, w,
             row_number() OVER (PARTITION BY doc_id
                                ORDER BY w DESC, term) AS rn
      FROM w)
SELECT doc_id, term, round(w, 6) AS w
FROM r WHERE rn <= 3 ORDER BY doc_id, w DESC, term
"""


def events_partitioned_roundtrip(sf_dir: str):
    """Hive-partitioned sink + partition-pruned read: events written
    once per sf partitioned by event_type (write_parquet
    partition_cols), then ONLY the purchase partition's directory is
    read back — the other four partitions never leave disk — and
    aggregated per user. The resumable-output layout (one dir per
    partition value) the 100 TB pipeline writes."""
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    out_dir = _build_once(
        _cache_dir("events_part", 1, os.path.join(sf_dir, "events.parquet")),
        lambda d: _read(sf_dir, "events", ["event_type", "user_id", "value"])
        .write_parquet(d, partition_cols=["event_type"]))

    part = rd.read_parquet(os.path.join(out_dir, "event_type=purchase"))
    out = (part.groupby("user_id")
           .aggregate(Count(alias_name="n"),
                      Sum("value", alias_name="total_value"))
           .to_pandas())
    out["n"] = out["n"].astype("int64")
    out["total_value"] = round2(out["total_value"])
    return out.sort_values("user_id").reset_index(drop=True)


PARTITIONED_ROUNDTRIP_SQL = """
SELECT user_id, count(*)::BIGINT AS n, round(sum(value), 2) AS total_value
FROM events WHERE event_type = 'purchase'
GROUP BY user_id ORDER BY user_id
"""


_CMS_D, _CMS_W = 4, 1 << 14
_CMS_SALTS = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F,
                       0x165667B19E3779F9, 0x27D4EB2F165667C5],
                      dtype=np.uint64)


def cms_token_counts(sf_dir: str):
    """Count-min sketch frequency estimation (Cormode & Muthukrishnan
    2005): each batch emits ONE d×w count matrix over its token
    stream; matrices SUM-merge (mergeable-sketch shape, no token ever
    shuffles). Probe tokens are then estimated as min over d rows.
    Oracle-checkable like the HLL queries: exact counts (SQL-verified)
    plus the CMS guarantee flag est ≥ exact AND est ≤ exact + 2N/w."""
    ds = _read(sf_dir, "documents", ["text"])
    probes = ["the", "data", "merge", "row", "fast"]

    def batch_cms(t: pa.Table) -> pa.Table:
        cms = np.zeros((_CMS_D, _CMS_W), np.int64)
        total = 0
        for text in t["text"].to_pylist():
            toks = (text or "").lower().split()
            if not toks:
                continue
            total += len(toks)
            h = pd.util.hash_array(np.asarray(toks, object))
            for d in range(_CMS_D):
                idx = ((h * _CMS_SALTS[d]) >> np.uint64(40)) % _CMS_W
                np.add.at(cms[d], idx.astype(np.int64), 1)
        return pa.table({"cms": pa.array([cms.tobytes()], pa.binary()),
                         "total": pa.array([total], pa.int64())})

    parts = ds.map_batches(batch_cms, batch_format="pyarrow").to_pandas()
    cms = np.zeros((_CMS_D, _CMS_W), np.int64)
    for buf in parts["cms"]:
        cms += np.frombuffer(buf, np.int64).reshape(_CMS_D, _CMS_W)
    n_total = int(parts["total"].sum())

    hp = pd.util.hash_array(np.asarray(probes, object))
    est = {}
    for tok, h in zip(probes, hp):
        idx = ((np.uint64(h) * _CMS_SALTS) >> np.uint64(40)) % _CMS_W
        est[tok] = int(cms[np.arange(_CMS_D), idx.astype(np.int64)].min())

    def exact_partial(t: pa.Table) -> pa.Table:
        counts = dict.fromkeys(probes, 0)
        for text in t["text"].to_pylist():
            for tok in (text or "").lower().split():
                if tok in counts:
                    counts[tok] += 1
        return pa.table({"token": pa.array(probes, pa.string()),
                         "n": pa.array([counts[p] for p in probes],
                                       pa.int64())})

    from ray.data.aggregate import Sum

    exact = (ds.map_batches(exact_partial, batch_format="pyarrow")
             .groupby("token").aggregate(Sum("n", alias_name="n_exact"))
             .to_pandas())
    exact["n_exact"] = exact["n_exact"].astype("int64")
    bound = 2.0 * n_total / _CMS_W
    exact["cms_ok"] = [
        bool(est[t] >= n and est[t] <= n + bound)
        for t, n in zip(exact["token"], exact["n_exact"])]
    return exact.sort_values("token").reset_index(drop=True)


CMS_SQL = r"""
SELECT term AS token, count(*)::BIGINT AS n_exact, true AS cms_ok
FROM (SELECT unnest(regexp_split_to_array(lower(trim(text)), '\s+'))
          AS term
      FROM documents WHERE trim(coalesce(text, '')) <> '')
WHERE term IN ('the', 'data', 'merge', 'row', 'fast')
GROUP BY term ORDER BY token
"""


def embedding_outliers(sf_dir: str, k: int = 20):
    """Semantic outlier detection for curation: the k vectors least
    similar to their OWN label centroid. Centroids come from the
    distributed partial-sum shape (label_centroids); each batch then
    scores its vectors against the broadcast centroid matrix and emits
    a bottom-k partial — the driver merges B×k rows."""
    import ray

    from pdf_to_text_ray.stages.similarity import (_normalize,
                                                   list_column_to_matrix)

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding", "label"])

    def cent_partial(t: pa.Table) -> pa.Table:
        m = list_column_to_matrix(t["embedding"])
        labels = t["label"].to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(labels, return_inverse=True)
        sums = np.zeros((len(uniq), m.shape[1]), dtype=np.float64)
        np.add.at(sums, inv, m)
        return pa.table({
            "label": pa.array(np.repeat(uniq, m.shape[1]), pa.int64()),
            "idx": pa.array(np.tile(np.arange(m.shape[1]), len(uniq)),
                            pa.int64()),
            "s": pa.array(sums.ravel(), pa.float64()),
            "n": pa.array(np.repeat(np.bincount(inv), m.shape[1])
                          .astype("int64"), pa.int64())})

    parts = grouped_partials(ds, ["label", "idx"], sums=["s", "n"],
                             prep=cent_partial)
    labels = parts["label"].unique()
    dim = parts["idx"].max() + 1
    cents = (parts["s"] / parts["n"]).to_numpy().reshape(len(labels), dim)
    lab_pos = {int(l): i for i, l in enumerate(labels)}
    ref = ray.put((lab_pos, cents / np.linalg.norm(cents, axis=1,
                                                   keepdims=True)))

    def bottomk(t: pa.Table) -> pa.Table:
        pos, cn = ray.get(ref)
        m = _normalize(list_column_to_matrix(t["embedding"]))
        lab = t["label"].to_numpy(zero_copy_only=False)
        rows = np.array([pos[int(x)] for x in lab], np.int64)
        cos = np.einsum("ij,ij->i", m, cn[rows])
        ids = t["vec_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, cos))[:k]
        return pa.table({
            "vec_id": pa.array(ids[order], pa.int64()),
            "label": pa.array(lab[order].astype(np.int64), pa.int64()),
            "cos_sim": pa.array(cos[order], pa.float64())})

    pdf = ds.map_batches(bottomk, batch_format="pyarrow").to_pandas()
    out = pdf.sort_values(["cos_sim", "vec_id"]).head(k).copy()
    y = out["cos_sim"].to_numpy() * 1e6
    out["cos_sim"] = np.copysign(np.floor(np.abs(y) + 0.5), y) / 1e6
    return out.sort_values("vec_id").reset_index(drop=True)


EMB_OUTLIERS_SQL = """
WITH e AS (SELECT vec_id, label, generate_subscripts(embedding, 1) AS idx,
                  unnest(embedding)::DOUBLE AS v
           FROM embeddings),
c AS (SELECT label, idx, avg(v) AS cv FROM e GROUP BY label, idx),
dot AS (SELECT e.vec_id, e.label,
               sum(e.v * c.cv) AS d,
               sqrt(sum(e.v * e.v)) AS nv, sqrt(sum(c.cv * c.cv)) AS nc
        FROM e JOIN c USING (label, idx) GROUP BY e.vec_id, e.label),
s AS (SELECT vec_id, label::BIGINT AS label, d / (nv * nc) AS cos
      FROM dot)
SELECT vec_id, label, round(cos, 6) AS cos_sim
FROM (SELECT * FROM s ORDER BY cos, vec_id LIMIT 20)
ORDER BY vec_id
"""


def zonemap_overlap_files(part_dir: str, lo, hi) -> tuple[list, int]:
    """File-level zone-map pruning: read ONLY parquet footers, keep
    files whose ts [min, max] interval overlaps [lo, hi). Returns
    (overlapping file paths, total file count)."""
    import pyarrow.parquet as pq

    files = sorted(
        os.path.join(part_dir, f) for f in os.listdir(part_dir)
        if f.endswith(".parquet"))
    keep = []
    for f in files:
        md = pq.ParquetFile(f).metadata
        names = md.schema.to_arrow_schema().names
        col = names.index("ts")
        mn, mx = None, None
        for rg in range(md.num_row_groups):
            st = md.row_group(rg).column(col).statistics
            mn = st.min if mn is None else min(mn, st.min)
            mx = st.max if mx is None else max(mx, st.max)
        if mn is not None and mn < hi and mx >= lo:
            keep.append(f)
    return keep, len(files)


def events_zonemap_range_query(sf_dir: str):
    """Zone-map (footer min/max statistics) pruned range scan: events
    are laid out ONCE per sf as 16 ts-sorted parquet files; a ts-range
    aggregate then reads only the files whose footer [min, max]
    overlaps the predicate — the rest never leave storage. This is the
    file-skipping layer a 100 TB time-partitioned corpus relies on
    (pytest asserts real pruning: files_read < files_total)."""
    import ray.data as rd

    out_dir = _build_once(
        _cache_dir("events_zoned", 1, os.path.join(sf_dir, "events.parquet")),
        lambda d: _read(sf_dir, "events", ["ts", "event_type", "value"])
        .sort("ts").repartition(16).write_parquet(d))

    lo = pd.Timestamp("2024-01-08")
    hi = pd.Timestamp("2024-01-15")
    keep, _total = zonemap_overlap_files(out_dir, lo, hi)
    if not keep:
        return pd.DataFrame({
            "event_type": pd.Series([], dtype=object),
            "n": pd.Series([], dtype="int64"),
            "total_value": pd.Series([], dtype="float64")})
    ds = rd.read_parquet(keep).map_batches(
        lambda t: t.filter(pc.and_(
            pc.greater_equal(t["ts"], pa.scalar(lo)),
            pc.less(t["ts"], pa.scalar(hi)))),
        batch_format="pyarrow")
    out = grouped_partials(ds, "event_type", sums=["value"], count="n") \
        .rename(columns={"value": "total_value"})
    out["total_value"] = round2(out["total_value"])
    return out


ZONEMAP_SQL = """
SELECT event_type, count(*)::BIGINT AS n,
       round(sum(value), 2) AS total_value
FROM events
WHERE ts >= TIMESTAMP '2024-01-08' AND ts < TIMESTAMP '2024-01-15'
GROUP BY event_type ORDER BY event_type
"""


def events_schema_evolution(sf_dir: str):
    """Schema-evolution read: a corpus written in two layout
    generations — v1 files lack the event_type column (older writer),
    v2 files carry it — is read as ONE dataset by defaulting the
    missing column per batch before the union, then aggregated. The
    default fill is a per-batch map (no rewrite of old files), the
    union stays streaming. Split rule: even event_ids were written by
    the v1 writer."""
    import ray.data as rd

    def build(root: str) -> None:
        ev = _read(sf_dir, "events", ["event_id", "user_id", "event_type",
                                      "value"])
        (ev.map_batches(
            lambda t: t.filter(pc.equal(
                pc.bit_wise_and(t["event_id"], pa.scalar(1, pa.int64())),
                pa.scalar(0, pa.int64())))
            .select(["event_id", "user_id", "value"]),
            batch_format="pyarrow")
         .write_parquet(os.path.join(root, "v1")))
        (ev.map_batches(
            lambda t: t.filter(pc.equal(
                pc.bit_wise_and(t["event_id"], pa.scalar(1, pa.int64())),
                pa.scalar(1, pa.int64()))),
            batch_format="pyarrow")
         .write_parquet(os.path.join(root, "v2")))

    root = _build_once(
        _cache_dir("events_evo", 1, os.path.join(sf_dir, "events.parquet")),
        build)

    def fill_v1(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": t["event_id"], "user_id": t["user_id"],
            "event_type": pa.array(["unknown"] * t.num_rows, pa.string()),
            "value": t["value"]})

    def order_v2(t: pa.Table) -> pa.Table:
        return t.select(["event_id", "user_id", "event_type", "value"])

    v1 = rd.read_parquet(os.path.join(root, "v1")).map_batches(
        fill_v1, batch_format="pyarrow")
    v2 = rd.read_parquet(os.path.join(root, "v2")).map_batches(
        order_v2, batch_format="pyarrow")
    out = grouped_partials(v1.union(v2), "event_type", sums=["value"],
                           count="n") \
        .rename(columns={"value": "total_value"})
    out["total_value"] = round2(out["total_value"])
    return out


SCHEMA_EVOLUTION_SQL = """
SELECT CASE WHEN event_id % 2 = 0 THEN 'unknown' ELSE event_type END
         AS event_type,
       count(*)::BIGINT AS n, round(sum(value), 2) AS total_value
FROM events GROUP BY 1 ORDER BY event_type
"""


def events_window_distinct_users(sf_dir: str):
    """Windowed COUNT DISTINCT (non-algebraic — needs the two-level
    reduce): ONE bucketed exchange on user (every (type, day, user)
    triple is bucket-local), per-bucket vectorized dedupe reduced
    straight to (type, day, partial-distinct) rows — each window's
    partials sum on the driver (bounded by |windows| × buckets)."""
    from ..stages.groups import bucketed_group_apply

    ds = _read(sf_dir, "events", ["event_type", "ts", "user_id"])

    def bucket(t: pa.Table) -> pa.Table:
        us = pc.cast(t["ts"], pa.int64())
        day = pc.multiply(pc.divide(us, pa.scalar(86_400_000_000,
                                                  pa.int64())),
                          pa.scalar(86_400_000_000, pa.int64()))
        return pa.table({"event_type": t["event_type"], "day_us": day,
                         "user_id": t["user_id"]})

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates(["event_type", "day_us", "user_id"])
        return (d.groupby(["event_type", "day_us"])
                .size().reset_index(name="n_users"))

    return grouped_partials(bucketed_group_apply(
        ds.map_batches(bucket, batch_format="pyarrow"), "user_id",
        per_bucket, num_buckets=16), ["event_type", "day_us"],
        sums=["n_users"])


WINDOW_DISTINCT_SQL = """
SELECT event_type,
       (epoch_us(ts) // 86400000000) * 86400000000 AS day_us,
       count(DISTINCT user_id)::BIGINT AS n_users
FROM events GROUP BY 1, 2 ORDER BY event_type, day_us
"""


def lineitem_covariance(sf_dir: str):
    """Pairwise sample covariances among three measures from one pass
    of partial sums (n, Σx, Σy, Σxy per pair) — the mergeable shape;
    the cov division runs on 3 rows."""
    pairs = [("l_quantity", "l_extendedprice"),
             ("l_quantity", "l_discount"),
             ("l_extendedprice", "l_discount")]
    ds = _lineitem(sf_dir, ["l_quantity", "l_extendedprice",
                            "l_discount"])

    def partial(t: pa.Table) -> pa.Table:
        rows = []
        for xc, yc in pairs:
            x = t[xc].to_numpy(zero_copy_only=False)
            y = t[yc].to_numpy(zero_copy_only=False)
            rows.append((f"{xc}|{yc}", len(x), float(x.sum()),
                         float(y.sum()), float((x * y).sum())))
        return arrow_out(pd.DataFrame(
            rows, columns=["pair", "n", "sx", "sy", "sxy"]))

    agg = grouped_partials(ds, "pair", sums=["n", "sx", "sy", "sxy"],
                           prep=partial)
    agg["covar"] = round2((agg["sxy"] - agg["sx"] * agg["sy"] / agg["n"])
                          / (agg["n"] - 1))
    return agg[["pair", "n", "covar"]]


COVARIANCE_SQL = """
SELECT 'l_quantity|l_extendedprice' AS pair, count(*)::BIGINT AS n,
       round(covar_samp(l_quantity, l_extendedprice), 2) AS covar
FROM lineitem
UNION ALL
SELECT 'l_quantity|l_discount', count(*)::BIGINT,
       round(covar_samp(l_quantity, l_discount), 2) FROM lineitem
UNION ALL
SELECT 'l_extendedprice|l_discount', count(*)::BIGINT,
       round(covar_samp(l_extendedprice, l_discount), 2) FROM lineitem
ORDER BY pair
"""


def winsorized_value_mean(sf_dir: str):
    """Winsorized mean per group: clip at the group's exact p10/p90
    (the distributed histogram-refinement quantile engine — discrete
    definition, matching quantile_disc), then a second clipped-sum
    pass with the tiny (group → bounds) map broadcast."""
    import ray

    from pdf_to_text_ray.stages.quantiles import exact_group_quantiles

    ds = _read(sf_dir, "events", ["event_type", "value"])
    q = exact_group_quantiles(ds, "event_type", "value", [0.1, 0.9],
                              n_buckets=64, collect_cap=500)
    bounds = {et: (lo, hi) for et, lo, hi in
              zip(q["event_type"], q["q_10"], q["q_90"])}
    ref = ray.put(bounds)

    def clipped(t: pa.Table) -> pa.Table:
        b = ray.get(ref)
        df = pd.DataFrame({
            "event_type": t["event_type"].to_numpy(zero_copy_only=False),
            "v": t["value"].to_numpy(zero_copy_only=False)})
        lo = df["event_type"].map(lambda e: b[e][0]).to_numpy()
        hi = df["event_type"].map(lambda e: b[e][1]).to_numpy()
        return pa.table({"event_type": t["event_type"],
                         "s": np.clip(df["v"].to_numpy(), lo, hi)})

    agg = grouped_partials(ds, "event_type", sums=["s"], count="n",
                           prep=clipped)
    agg["wmean"] = round2(agg["s"] / agg["n"])
    return agg[["event_type", "n", "wmean"]]


WINSORIZED_SQL = """
WITH q AS (SELECT event_type, quantile_disc(value, 0.1) AS lo,
                  quantile_disc(value, 0.9) AS hi
           FROM events GROUP BY 1)
SELECT e.event_type, count(*)::BIGINT AS n,
       round(avg(least(greatest(value, lo), hi)), 2) AS wmean
FROM events e JOIN q USING (event_type)
GROUP BY e.event_type ORDER BY event_type
"""


def user_funnel(sf_dir: str):
    """Ordered-funnel analysis: of the users who signed up, how many
    later viewed, and of those how many later purchased — strict
    temporal ordering on (ts, event_id). Per-user stage timestamps
    reduce inside one bucketed shuffle; the funnel counts are three
    scalars."""
    from pdf_to_text_ray.stages.groups import bucketed_group_apply

    ds = _read(sf_dir, "events", ["user_id", "event_type", "ts",
                                  "event_id"])

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        # vectorized stage chain: per-user grouped mins + merges, no
        # per-user python loop (the round-1 map_groups anti-pattern)
        t0 = (df[df["event_type"] == "signup"]
              .groupby("user_id")["ts"].min().rename("t0"))
        vw = df[df["event_type"] == "view"].merge(
            t0, left_on="user_id", right_index=True)
        t1 = (vw[vw["ts"] > vw["t0"]]
              .groupby("user_id")["ts"].min().rename("t1"))
        pu = df[df["event_type"] == "purchase"].merge(
            t1, left_on="user_id", right_index=True)
        purchased = set(pu.loc[pu["ts"] > pu["t1"], "user_id"])
        out = t0.reset_index()[["user_id"]]
        out["signed_up"] = np.int64(1)
        out["viewed_after"] = out["user_id"].isin(t1.index).astype("int64")
        out["purchased_after"] = (out["user_id"].isin(purchased)
                                  .astype("int64"))
        return out

    per_user = bucketed_group_apply(ds, "user_id", per_bucket).to_pandas()
    return pd.DataFrame({
        "n_signed_up": [int(per_user["signed_up"].sum())],
        "n_viewed_after": [int(per_user["viewed_after"].sum())],
        "n_purchased_after": [int(per_user["purchased_after"].sum())]})


FUNNEL_SQL = """
WITH s AS (SELECT user_id, min(ts) AS t0 FROM events
           WHERE event_type = 'signup' GROUP BY user_id),
v AS (SELECT e.user_id, min(e.ts) AS t1
      FROM events e JOIN s USING (user_id)
      WHERE e.event_type = 'view' AND e.ts > s.t0 GROUP BY e.user_id),
p AS (SELECT e.user_id FROM events e JOIN v USING (user_id)
      WHERE e.event_type = 'purchase' AND e.ts > v.t1
      GROUP BY e.user_id)
SELECT (SELECT count(*) FROM s)::BIGINT AS n_signed_up,
       (SELECT count(*) FROM v)::BIGINT AS n_viewed_after,
       (SELECT count(*) FROM p)::BIGINT AS n_purchased_after
"""


def retention_cohorts(sf_dir: str):
    """Cohort retention: users grouped by first-seen day, counted as
    active on each later day offset. First-seen reduces distributed
    (groupby min), broadcasts as sorted arrays, and the (cohort,
    offset) matrix comes from distinct (user, day) pairs — the
    payload-free two-shuffle shape."""
    import ray

    from ray.data.aggregate import Count

    DAY = 86_400_000_000
    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def to_day(t: pa.Table) -> pa.Table:
        us = pc.cast(t["ts"], pa.int64())
        return pa.table({"user_id": t["user_id"],
                         "day": pc.divide(us, pa.scalar(DAY, pa.int64()))})

    days = ds.map_batches(to_day, batch_format="pyarrow")
    first = (days.groupby("user_id").min("day").to_pandas()
             .rename(columns={"min(day)": "cohort"}))
    fref = ray.put((np.sort(first["user_id"].to_numpy()),
                    first.sort_values("user_id")["cohort"].to_numpy()))

    def tag(t: pa.Table) -> pa.Table:
        users, coh = ray.get(fref)
        u = t["user_id"].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(users, u)
        return pa.table({
            "cohort": pa.array(coh[idx], pa.int64()),
            "offset": pc.subtract(t["day"],
                                  pa.array(coh[idx], pa.int64())),
            "user_id": t["user_id"]})

    out = (days.map_batches(tag, batch_format="pyarrow")
           .groupby(["cohort", "offset", "user_id"]).count()
           .groupby(["cohort", "offset"])
           .aggregate(Count(alias_name="n_active"))
           .to_pandas())
    out = out[out["offset"].isin([0, 1, 7])]
    for c in ("cohort", "offset", "n_active"):
        out[c] = out[c].astype("int64")
    return (out.sort_values(["cohort", "offset"])
            .reset_index(drop=True))


RETENTION_SQL = """
WITH d AS (SELECT user_id, epoch_us(ts) // 86400000000 AS day
           FROM events),
f AS (SELECT user_id, min(day) AS cohort FROM d GROUP BY user_id),
a AS (SELECT DISTINCT f.cohort, d.day - f.cohort AS "offset", d.user_id
      FROM d JOIN f USING (user_id))
SELECT cohort, "offset", count(*)::BIGINT AS n_active
FROM a WHERE "offset" IN (0, 1, 7)
GROUP BY cohort, "offset" ORDER BY cohort, "offset"
"""


def page_links(sf_dir: str):
    """Hyperlink-graph extraction (rows-only: HTML parsing is not
    SQL-expressible): the pages corpus → sniff-routed link explode —
    one edge row (src_url, dst_url, anchor, rel, is_nav, is_internal)
    per resolved <a href>. flat_map-shaped map_batches; non-HTML rows
    (PDF / plain text) contribute no edges."""
    import ray.data as rd

    from ..stages.html_links import links_batch

    pages_dir, _ = _corpus_dirs(sf_dir)
    ds = rd.read_parquet(pages_dir, columns=["url", "html"])
    return ds.map_batches(links_batch, batch_format="pyarrow")


def page_metadata(sf_dir: str):
    """Per-page metadata extraction (rows-only): title, declared lang,
    meta description, canonical URL, heading/link/script counts — one
    row per HTML page, from the same single parse family as the
    main-content extractor."""
    import ray.data as rd

    from ..stages.html_links import page_meta_batch

    pages_dir, _ = _corpus_dirs(sf_dir)
    ds = rd.read_parquet(pages_dir, columns=["url", "html"])
    return ds.map_batches(page_meta_batch, batch_format="pyarrow")


def host_link_summary(sf_dir: str):
    """Host-level link-graph rollup (rows-only): edges → per-host
    totals (outlinks, internal share, nav share). Hosts parse
    vectorized (one regex pass per batch); per-batch partials keep the
    final groupby at |hosts| rows."""
    edges = page_links(sf_dir)

    def partial(t: pa.Table) -> pa.Table:
        b = t.to_pandas()
        host = b["src_url"].str.extract(r"^[a-z+]+://([^/]+)",
                                        expand=False).fillna("")
        return arrow_out(pd.DataFrame({
            "host": host.str.lower(),
            "n_internal": b["is_internal"].to_numpy().astype(np.int64),
            "n_nav": b["is_nav"].to_numpy().astype(np.int64)}))

    return grouped_partials(edges, "host", sums=["n_internal", "n_nav"],
                            count="n_links", prep=partial)


def _host_edges(sf_dir: str):
    """Distinct (src_host, dst_host) edge list from the extracted
    hyperlink graph, plus the densified host→id map (bounded by
    |hosts| — catalog scale)."""
    edges = page_links(sf_dir)

    def host_pairs(t: pa.Table) -> pa.Table:
        b = t.to_pandas()
        pat = r"^[a-z+]+://([^/]+)"
        return arrow_out(pd.DataFrame({
            "src_host": b["src_url"].str.extract(pat, expand=False)
            .fillna("").str.lower(),
            "dst_host": b["dst_url"].str.extract(pat, expand=False)
            .fillna("").str.lower()}).drop_duplicates())

    pairs = (edges.map_batches(host_pairs, batch_format="pyarrow")
             .groupby(["src_host", "dst_host"]).count().to_pandas())
    pairs = pairs[(pairs["src_host"] != "") & (pairs["dst_host"] != "")]
    hosts = sorted(set(pairs["src_host"]) | set(pairs["dst_host"]))
    hid = {h: i for i, h in enumerate(hosts)}
    return pairs, hid


def host_pagerank(sf_dir: str):
    """Host-graph PageRank over the EXTRACTED hyperlink graph — the
    crawl-analytics composition: parse pages → outlink edges → host
    edge list → damped PageRank (rows-only: HTML parse upstream).
    The undirected host graph feeds ``stages/graph.pagerank`` as both
    edge directions so no node dangles."""
    import ray.data as rd

    from pdf_to_text_ray.stages.graph import pagerank

    pairs, hid = _host_edges(sf_dir)
    sym = pd.DataFrame({
        "src": [hid[h] for h in pairs["src_host"]] +
               [hid[h] for h in pairs["dst_host"]],
        "dst": [hid[h] for h in pairs["dst_host"]] +
               [hid[h] for h in pairs["src_host"]]}).drop_duplicates()
    ranks = pagerank(rd.from_pandas(sym), src_col="src", dst_col="dst",
                     iters=5)
    ranks["host"] = ranks["node"].map({i: h for h, i in hid.items()})
    ranks["rank"] = np.round(ranks["rank"].to_numpy(), 9)
    return (ranks[["host", "rank"]].sort_values("host")
            .reset_index(drop=True))


def host_hits(sf_dir: str):
    """HITS hubs/authorities over the DIRECTED extracted host graph
    (rows-only: HTML parse upstream) — `stages/graph.hits`, the
    broadcast-vector + streaming-edge-scan shape. Hubs: hosts whose
    outlinks point at well-cited hosts; authorities: the cited ones —
    the direction-sensitive complement to `host_pagerank`."""
    import ray.data as rd

    from pdf_to_text_ray.stages.graph import hits

    pairs, hid = _host_edges(sf_dir)
    dir_edges = pd.DataFrame({
        "src": [hid[h] for h in pairs["src_host"]],
        "dst": [hid[h] for h in pairs["dst_host"]]}).drop_duplicates()
    scores = hits(rd.from_pandas(dir_edges), iters=5)
    scores["host"] = scores["node"].map({i: h for h, i in hid.items()})
    scores["hub"] = np.round(scores["hub"].to_numpy(), 9)
    scores["authority"] = np.round(scores["authority"].to_numpy(), 9)
    return (scores[["host", "hub", "authority"]].sort_values("host")
            .reset_index(drop=True))


# Synthetic citation graph over doc_ids: every doc cites two "hub"
# docs, (7i+3) % 101 and (13i+5) % 101 — deterministic, hub-skewed,
# SQL-derivable. host_pagerank / host_hits stay rows-only because
# their upstream is an HTML parse; these run the SAME iteration
# engines (stages/graph.py) under a full-value oracle that unrolls
# the fixed-depth power method in SQL.
def _doc_cite_edges(sf_dir: str):
    docs = _read(sf_dir, "documents", ["doc_id"])

    def mk(t: pa.Table) -> pa.Table:
        i = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "src": pa.array(np.concatenate([i, i]), pa.int64()),
            "dst": pa.array(np.concatenate(
                [(7 * i + 3) % 101, (13 * i + 5) % 101]), pa.int64())})

    return docs.map_batches(mk, batch_format="pyarrow")


def doc_graph_pagerank(sf_dir: str):
    """Damped PageRank (5 iterations) over the synthetic citation
    graph, through stages/graph.pagerank's broadcast-rank +
    streaming-edge-scan rounds. Oracle: the identical five power-
    method steps unrolled as chained CTEs (_doc_pagerank_sql) — every
    node's rank hash-checked, 6-dp rounded on both sides."""
    from ..stages.graph import pagerank

    ranks = pagerank(_doc_cite_edges(sf_dir), iters=5)
    ranks["rank"] = round6(ranks["rank"].to_numpy())
    return ranks.sort_values("node").reset_index(drop=True)


def _doc_pagerank_sql(iters: int = 5, damping: float = 0.85) -> str:
    """Unrolled DuckDB replay of stages/graph.pagerank over the
    synthetic citation graph: rank_k(v) = (1-d)/n + d * Σ_{(u,v)∈E}
    rank_{k-1}(u)/outdeg(u). Edges are a multiset (UNION ALL), exactly
    as the Ray side counts them."""
    parts = [f"""
WITH e AS MATERIALIZED (
  SELECT doc_id AS src, (7 * doc_id + 3) % 101 AS dst FROM documents
  UNION ALL
  SELECT doc_id, (13 * doc_id + 5) % 101 FROM documents),
nodes AS MATERIALIZED (
  SELECT src AS node, count(*)::DOUBLE AS deg FROM e GROUP BY src),
c AS (SELECT count(*)::DOUBLE AS n FROM nodes),
r0 AS (SELECT node, deg, 1.0 / (SELECT n FROM c) AS rank FROM nodes)"""]
    for k in range(1, iters + 1):
        parts.append(f""",
r{k} AS MATERIALIZED (
  SELECT nd.node, nd.deg,
         {1.0 - damping} / (SELECT n FROM c)
           + {damping} * coalesce(f.s, 0) AS rank
  FROM nodes nd LEFT JOIN (
    SELECT e.dst AS node, sum(r.rank / r.deg) AS s
    FROM e JOIN r{k - 1} r ON r.node = e.src GROUP BY e.dst) f
  USING (node))""")
    parts.append(f"""
SELECT node::BIGINT AS node, round(rank, 6) AS rank
FROM r{iters} ORDER BY node""")
    return "".join(parts)


def doc_graph_hits(sf_dir: str):
    """HITS hubs/authorities (5 iterations) over the synthetic
    citation graph, through stages/graph.hits — two L2-normalized
    push rounds per iteration. Oracle: the ten half-steps unrolled
    in SQL (_hits_sql), 6-dp rounded on both sides."""
    from ..stages.graph import hits

    scores = hits(_doc_cite_edges(sf_dir), iters=5)
    scores["hub"] = round6(scores["hub"].to_numpy())
    scores["authority"] = round6(scores["authority"].to_numpy())
    return scores.sort_values("node").reset_index(drop=True)


def _hits_sql(iters: int = 5) -> str:
    """Unrolled DuckDB replay of stages/graph.hits: per iteration,
    auth = normalize(Σ hub over in-edges) then hub = normalize(Σ auth
    over out-edges); nodes are the endpoint union; both vectors start
    at 1/sqrt(n)."""
    parts = ["""
WITH e AS MATERIALIZED (
  SELECT doc_id AS src, (7 * doc_id + 3) % 101 AS dst FROM documents
  UNION ALL
  SELECT doc_id, (13 * doc_id + 5) % 101 FROM documents),
nodes AS MATERIALIZED (
  SELECT DISTINCT node FROM (
    SELECT src AS node FROM e UNION ALL SELECT dst FROM e)),
h0 AS (SELECT node, 1.0 / sqrt((SELECT count(*) FROM nodes)) AS hub
       FROM nodes)"""]
    for k in range(1, iters + 1):
        parts.append(f""",
a{k} AS MATERIALIZED (
  SELECT node, v / sqrt(sum(v * v) OVER ()) AS auth
  FROM (SELECT nd.node, coalesce(f.s, 0) AS v
        FROM nodes nd LEFT JOIN (
          SELECT e.dst AS node, sum(h.hub) AS s
          FROM e JOIN h{k - 1} h ON h.node = e.src GROUP BY e.dst) f
        USING (node))),
h{k} AS MATERIALIZED (
  SELECT node, v / sqrt(sum(v * v) OVER ()) AS hub
  FROM (SELECT nd.node, coalesce(f.s, 0) AS v
        FROM nodes nd LEFT JOIN (
          SELECT e.src AS node, sum(a.auth) AS s
          FROM e JOIN a{k} a ON a.node = e.dst GROUP BY e.src) f
        USING (node)))""")
    parts.append(f"""
SELECT node::BIGINT AS node, round(h{iters}.hub, 6) AS hub,
       round(a{iters}.auth, 6) AS authority
FROM h{iters} JOIN a{iters} USING (node) ORDER BY node""")
    return "".join(parts)


def rebalance_lang_docs(sf_dir: str):
    """Data-mixing rebalance: downsample every language to the
    minority language's count IN EXPECTATION via the engine-portable
    md5 uniform (keep iff u(doc_id) < min_count/count(lang)) — the
    training-mixture-balancing op, resumable because membership is a
    pure function of the key. Per-lang counts are a catalog-scale
    broadcast; the filter is one streaming pass. (At 100 TB the md5
    hop becomes a vectorized 64-bit hash; md5 here is the documented
    cross-engine determinism trick.)"""
    from ..stages.sketches import md5_uniform

    ds = _read(sf_dir, "documents", ["doc_id", "lang"])
    counts = grouped_partials(ds, "lang", count="n")
    mn = float(counts["n"].min())
    rate = {r.lang: mn / float(r.n) for r in counts.itertuples()}

    def keep(t: pa.Table) -> pa.Table:
        langs = t["lang"].to_pylist()
        u = md5_uniform(t["doc_id"])
        mask = u < np.array([rate[l] for l in langs], np.float64)
        return t.filter(pa.array(mask))

    out = ds.map_batches(keep, batch_format="pyarrow").to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


REBALANCE_LANG_SQL = """
WITH c AS (SELECT lang, count(*)::DOUBLE AS n FROM documents
           GROUP BY lang),
m AS (SELECT min(n) AS mn FROM c)
SELECT d.doc_id, d.lang
FROM documents d JOIN c ON d.lang = c.lang CROSS JOIN m
WHERE ('0x' || substr(md5(d.doc_id::VARCHAR), 1, 8))::UBIGINT
      / 4294967296.0 < m.mn / c.n
ORDER BY doc_id
"""


def bigram_pmi_top(sf_dir: str, k: int = 25, min_count: int = 5):
    """Top-k corpus bigrams by pointwise mutual information. ONE token
    explode per batch emits unigram AND bigram partial counts in a
    single union-shaped table (unigrams ride the ``w2=''`` sentinel —
    the vocabulary never contains empty tokens), so one payload-free
    shuffle aggregates both. The aggregated table is bounded by
    |vocab|² (min_count floors it at web scale — rare pairs never
    reach the driver); PMI = ln((c12/N) / ((c1/T)(c2/T))) with the
    identical expression shape in the SQL twin (exact-int inputs →
    identical doubles, no rounding needed)."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        ex = df["text"].fillna("").str.split(" ").explode()
        w = ex.to_numpy(dtype=object)
        doc = ex.index.to_numpy()
        uni = pd.DataFrame({"w1": w}).groupby("w1").size().rename("c")
        out = [uni.reset_index().assign(w2="")]
        if len(w) > 1:
            adj = doc[1:] == doc[:-1]
            big = (pd.DataFrame({"w1": w[:-1][adj], "w2": w[1:][adj]})
                   .groupby(["w1", "w2"]).size().rename("c").reset_index())
            out.append(big)
        return pd.concat(out, ignore_index=True)[["w1", "w2", "c"]]

    counts = (ds.map_batches(lambda t: arrow_out(partial(t.to_pandas())),
                             batch_format="pyarrow")
              .groupby(["w1", "w2"])
              .aggregate(Sum("c", alias_name="c"))
              .to_pandas())
    uni = counts[counts["w2"] == ""].set_index("w1")["c"]
    big = counts[counts["w2"] != ""].copy()
    T = float(uni.sum())
    N = float(big["c"].sum())
    big = big[big["c"] >= min_count]
    c12 = big["c"].to_numpy(dtype=np.int64)
    c1 = uni.reindex(big["w1"]).to_numpy(dtype=np.int64)
    c2 = uni.reindex(big["w2"]).to_numpy(dtype=np.int64)
    big["pair_count"] = c12
    big["pmi"] = np.log((c12 / N) / ((c1 / T) * (c2 / T)))
    return (big.sort_values(["pmi", "w1", "w2"],
                            ascending=[False, True, True])
            .head(k)[["w1", "w2", "pair_count", "pmi"]]
            .reset_index(drop=True))


BIGRAM_PMI_SQL = """
WITH toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS w,
         generate_subscripts(string_split(text, ' '), 1) AS pos
  FROM documents),
uni AS (SELECT w, count(*)::BIGINT AS c FROM toks GROUP BY w),
big AS (SELECT a.w AS w1, b.w AS w2, count(*)::BIGINT AS c12
        FROM toks a JOIN toks b
          ON a.doc_id = b.doc_id AND b.pos = a.pos + 1
        GROUP BY 1, 2),
tot AS (SELECT (SELECT sum(c)::DOUBLE FROM uni) AS t,
               (SELECT sum(c12)::DOUBLE FROM big) AS n)
SELECT w1, w2, c12 AS pair_count,
       ln((c12 / n) / ((u1.c / t) * (u2.c / t))) AS pmi
FROM big JOIN uni u1 ON big.w1 = u1.w JOIN uni u2 ON big.w2 = u2.w
CROSS JOIN tot
WHERE c12 >= 5
ORDER BY pmi DESC, w1, w2 LIMIT 25
"""


def doc_vocab_richness(sf_dir: str):
    """Per-document lexical richness: token count, distinct-token
    count, type-token ratio. One C-level split/explode +
    drop_duplicates per batch; every doc lives in one row so NOTHING
    shuffles. int/int IEEE division → no rounding."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def richness(df: pd.DataFrame) -> pd.DataFrame:
        ex = (df[["doc_id"]].assign(w=df["text"].fillna("").str.split(" "))
              .explode("w"))
        n = ex.groupby("doc_id", sort=False).size()
        d = (ex.drop_duplicates(["doc_id", "w"])
             .groupby("doc_id", sort=False).size())
        return pd.DataFrame({
            "doc_id": n.index.to_numpy(),
            "n_tokens": n.to_numpy(dtype=np.int64),
            "n_distinct": d.reindex(n.index).to_numpy(dtype=np.int64),
            "ttr": d.reindex(n.index).to_numpy(dtype=np.float64)
            / n.to_numpy(dtype=np.float64)})

    return ds.map_batches(lambda b: arrow_out(richness(b)),
                          batch_format="pandas")


VOCAB_RICHNESS_SQL = """
WITH t AS (SELECT doc_id, unnest(string_split(text, ' ')) AS w
           FROM documents)
SELECT doc_id, count(*)::BIGINT AS n_tokens,
       count(DISTINCT w)::BIGINT AS n_distinct,
       count(DISTINCT w)::DOUBLE / count(*) AS ttr
FROM t GROUP BY doc_id ORDER BY doc_id
"""


def source_token_entropy(sf_dir: str):
    """Per-source unigram Shannon entropy (distribution-shape signal
    for corpus mixing): per-batch (source, token) partial counts →
    one payload-free groupby-sum; entropy over the aggregated table —
    bounded by |sources|×|vocab| (catalog scale). Summation order
    differs between engines → round(6) both sides."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["source", "text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        ex = (df[["source"]].assign(w=df["text"].fillna("").str.split(" "))
              .explode("w"))
        return (ex.groupby(["source", "w"], sort=False).size()
                .rename("c").reset_index())

    counts = (ds.map_batches(lambda t: arrow_out(partial(t.to_pandas())),
                             batch_format="pyarrow")
              .groupby(["source", "w"])
              .aggregate(Sum("c", alias_name="c"))
              .to_pandas())
    tot = counts.groupby("source")["c"].transform("sum").astype(np.float64)
    p = counts["c"].to_numpy(dtype=np.int64) / tot.to_numpy()
    counts["h"] = p * np.log(p)
    g = counts.groupby("source").agg(
        vocab=("w", "size"), n_tokens=("c", "sum"), h=("h", "sum"))
    out = pd.DataFrame({
        "source": g.index.to_numpy(),
        "vocab": g["vocab"].to_numpy(dtype=np.int64),
        "n_tokens": g["n_tokens"].to_numpy(dtype=np.int64),
        "entropy": round6(-g["h"].to_numpy())})
    return out.sort_values("source").reset_index(drop=True)


SOURCE_ENTROPY_SQL = """
WITH t AS (SELECT source, unnest(string_split(text, ' ')) AS w
           FROM documents),
c AS (SELECT source, w, count(*)::BIGINT AS c FROM t GROUP BY 1, 2),
s AS (SELECT source, sum(c)::DOUBLE AS tot FROM c GROUP BY 1)
SELECT c.source, count(*)::BIGINT AS vocab, sum(c.c)::BIGINT AS n_tokens,
       round(-sum((c.c / s.tot) * ln(c.c / s.tot)), 6) AS entropy
FROM c JOIN s ON c.source = s.source
GROUP BY c.source ORDER BY c.source
"""


def doc_containment_pairs(sf_dir: str, threshold: float = 0.5):
    """EXACT word-5-gram CONTAINMENT pairs — c/min(|A|,|B|), the
    asymmetric inclusion signal (news-wire/boilerplate wrapping) that
    Jaccard misses when doc sizes differ. Same inverted-index-blocked
    two-shuffle pipeline as `neardup_jaccard_docs`; oracle is the
    set-overlap self-join with least() in the denominator."""
    from ..stages.dedup import jaccard_neardup_pairs

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = jaccard_neardup_pairs(ds, n=5, threshold=threshold,
                                metric="containment").to_pandas()
    return (out.sort_values(["id_a", "id_b"]).reset_index(drop=True))


CONTAINMENT_SQL = r"""
WITH toks AS (
  SELECT doc_id, regexp_split_to_array(lower(trim(text)), '\s+') AS t
  FROM documents WHERE trim(coalesce(text, '')) <> ''
),
g AS (
  SELECT DISTINCT doc_id,
         unnest([array_to_string(t[i:i+4], ' ')
                 for i in range(1, greatest(len(t) - 4, 0) + 1)]) AS gram
  FROM toks
),
sizes AS (SELECT doc_id, count(*) AS n FROM g GROUP BY doc_id),
inter AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*) AS c
  FROM g a JOIN g b ON a.gram = b.gram AND a.doc_id < b.doc_id
  GROUP BY 1, 2
)
SELECT id_a, id_b, c::DOUBLE / least(sa.n, sb.n) AS containment_sim
FROM inter
JOIN sizes sa ON sa.doc_id = inter.id_a
JOIN sizes sb ON sb.doc_id = inter.id_b
WHERE c::DOUBLE / least(sa.n, sb.n) >= 0.5
ORDER BY id_a, id_b
"""


def user_activity_rollup(sf_dir: str):
    """DAU / WAU / stickiness per day — the product-analytics
    headline. Payload-free throughout: distinct (day, user) pairs
    first (two-level distinct), DAU by day; WAU via a bounded 7-way
    day-offset explode of the distinct pairs (each pair contributes to
    windows [day, day+6]) → second (day, user) distinct → count;
    stickiness = dau/wau is int/int IEEE-exact. Day joins restrict to
    days that actually occur."""
    from ..stages.groups import bucketed_group_apply

    ds = _read(sf_dir, "events", ["ts", "user_id"])

    def pairs(t: pa.Table) -> pa.Table:
        day = pc.divide(pc.cast(t["ts"], pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64()))
        out = pa.table({"day": day, "user_id": t["user_id"]})
        return out.group_by(["day", "user_id"]).aggregate([])

    # distinct (day, user) via ONE bucketed exchange (bucketing on
    # user co-locates every duplicate pair) + vectorized dedupe; day
    # counts are small-domain partials — no sort aggregate anywhere
    du = bucketed_group_apply(
        ds.map_batches(pairs, batch_format="pyarrow"), "user_id",
        lambda df: df.drop_duplicates(["day", "user_id"]),
        num_buckets=16).materialize()  # scanned twice (dau + offsets)
    dau = grouped_partials(du, "day", count="dau")

    def offsets(t: pa.Table) -> pa.Table:
        day = t["day"].to_numpy(zero_copy_only=False)
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        k = np.arange(7, dtype=np.int64)
        return pa.table({
            "day": (day[:, None] + k[None, :]).ravel(),
            "user_id": np.repeat(uid, 7)})

    wau_pairs = bucketed_group_apply(
        du.map_batches(offsets, batch_format="pyarrow"), "user_id",
        lambda df: df.drop_duplicates(["day", "user_id"]),
        num_buckets=16)
    wau = grouped_partials(wau_pairs, "day", count="wau")
    out = dau.merge(wau, on="day")  # inner: only days with own activity
    out["stickiness"] = (out["dau"].to_numpy(dtype=np.float64)
                         / out["wau"].to_numpy(dtype=np.float64))
    for c in ("day", "dau", "wau"):
        out[c] = out[c].astype("int64")
    return (out[["day", "dau", "wau", "stickiness"]]
            .sort_values("day").reset_index(drop=True))


USER_ACTIVITY_SQL = """
WITH du AS (SELECT DISTINCT epoch_us(ts) // 86400000000 AS day, user_id
            FROM events),
dau AS (SELECT day, count(*)::BIGINT AS dau FROM du GROUP BY day),
wau AS (SELECT d.day, count(DISTINCT u.user_id)::BIGINT AS wau
        FROM dau d JOIN du u ON u.day BETWEEN d.day - 6 AND d.day
        GROUP BY d.day)
SELECT d.day::BIGINT AS day, d.dau, w.wau,
       d.dau::DOUBLE / w.wau AS stickiness
FROM dau d JOIN wau w ON d.day = w.day ORDER BY day
"""


def embedding_pca_project(sf_dir: str, k: int = 2):
    """Distributed PCA over the embeddings table, now FULLY oracled:
    one streaming moment-partials pass → driver d×d covariance →
    fixed-iteration POWER METHOD with deflation
    (stages/similarity.pca_fit_power — a closed-form function of the
    covariance, unlike eigh, so DuckDB unrolls the identical 30 steps
    per component) → broadcast components → per-batch projection
    matmul. Projections round to 6 dp on both sides; the engines agree
    to ~1e-13, far inside the rounding guard. The eigh-based pca_fit
    stays for library use."""
    from ..stages.similarity import pca_fit_power, pca_project

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding", "label"])
    mean, comps, _ = pca_fit_power(ds, k=k, iters=PCA_POWER_ITERS)
    out = (pca_project(ds, mean, comps, keep_cols=("label",))
           .to_pandas().sort_values("vec_id").reset_index(drop=True))
    out["vec_id"] = out["vec_id"].astype("int64")
    for j in range(k):
        out[f"pc{j + 1}"] = round6(out[f"pc{j + 1}"])
    return out


PCA_POWER_ITERS = 30


def _pca_power_sql(k: int = 2, iters: int = 30) -> str:
    """Unrolled DuckDB replay of pca_fit_power + pca_project: the
    embeddings explode to (vec_id, i, val), covariance comes from the
    raw-moment identity (Σxxᵀ − nμμᵀ)/(n−1) over a self-join on
    vec_id, and each component runs ``iters`` normalize(C·v) steps
    from the all-ones/√d start as chained 64-row CTEs, deflating
    between components. Projections = centered dot products, 6 dp.
    Every per-iteration CTE is MATERIALIZED — DuckDB otherwise
    inlines the chain and re-expands it super-linearly (>200 s at 14
    iterations vs 1.2 s materialized at 30)."""
    parts = ["""
WITH e AS MATERIALIZED (
  SELECT vec_id, i, CAST(v AS DOUBLE) AS val
  FROM (SELECT vec_id,
               generate_subscripts(embedding, 1) AS i,
               unnest(embedding) AS v
        FROM embeddings)),
nn AS (SELECT count(DISTINCT vec_id)::DOUBLE AS n FROM e),
mu AS MATERIALIZED (SELECT i, avg(val) AS m FROM e GROUP BY i),
cov0 AS MATERIALIZED (
  SELECT a.i AS i, b.i AS j,
         (sum(a.val * b.val)
            - (SELECT n FROM nn) * ma.m * mb.m)
           / ((SELECT n FROM nn) - 1) AS c
  FROM e a JOIN e b USING (vec_id)
  JOIN mu ma ON ma.i = a.i JOIN mu mb ON mb.i = b.i
  GROUP BY a.i, b.i, ma.m, mb.m),
dd AS (SELECT count(*)::DOUBLE AS d FROM mu)"""]
    for comp in range(k):
        parts.append(f""",
v{comp}_0 AS (SELECT i, 1.0 / sqrt((SELECT d FROM dd)) AS x FROM mu)""")
        for t in range(1, iters + 1):
            parts.append(f""",
w{comp}_{t} AS MATERIALIZED (
  SELECT c.i, sum(c.c * v.x) AS x
  FROM cov{comp} c JOIN v{comp}_{t - 1} v ON v.i = c.j GROUP BY c.i),
v{comp}_{t} AS MATERIALIZED (
  SELECT i, x / sqrt(sum(x * x) OVER ()) AS x FROM w{comp}_{t})""")
        parts.append(f""",
lam{comp} AS (
  SELECT sum(v.x * w.x) AS l
  FROM v{comp}_{iters} v JOIN (
    SELECT c.i, sum(c.c * v2.x) AS x
    FROM cov{comp} c JOIN v{comp}_{iters} v2 ON v2.i = c.j
    GROUP BY c.i) w ON w.i = v.i)""")
        if comp + 1 < k:
            parts.append(f""",
cov{comp + 1} AS MATERIALIZED (
  SELECT c.i, c.j,
         c.c - (SELECT l FROM lam{comp}) * vi.x * vj.x AS c
  FROM cov{comp} c
  JOIN v{comp}_{iters} vi ON vi.i = c.i
  JOIN v{comp}_{iters} vj ON vj.i = c.j)""")
    pcs = ", ".join(
        f"round(sum((e.val - mu.m) * v{j}.x), 6) AS pc{j + 1}"
        for j in range(k))
    joins = "\n".join(
        f"JOIN v{j}_{iters} v{j} ON v{j}.i = e.i" for j in range(k))
    parts.append(f"""
SELECT e.vec_id, any_value(l.label)::INT AS label, {pcs}
FROM e JOIN mu ON mu.i = e.i
{joins}
JOIN embeddings l ON l.vec_id = e.vec_id
GROUP BY e.vec_id
ORDER BY e.vec_id""")
    return "".join(parts)


# ── TPC-H completion: the seven shapes needing partsupp / shipmode /
# commit-date columns, adapted to the driver tables (lineitem is the
# part↔supplier bridge; l_shipdate vs o_orderdate is the lateness
# signal). With these the battery carries all 22 TPC-H query shapes. ──

def q2_min_cost_supplier(sf_dir: str):
    """TPC-H Q2 shape — correlated regional-minimum subquery: for each
    STANDARD small part, the AFRICA supplier with the cheapest observed
    unit price. The (part, supplier) min reduces distributed (per-batch
    pandas partial → one grouped Min); everything after is bounded by
    the catalog (|part|×|supplier| pairs, dimension tables) and
    finishes driver-side. The equality filter compares mins produced
    from identical IEEE divisions, so both engines agree exactly."""

    def pair_min(t: pa.Table) -> pa.Table:
        unit = (t["l_extendedprice"].to_numpy(zero_copy_only=False)
                / t["l_quantity"].to_numpy(zero_copy_only=False))
        part = pd.DataFrame({
            "p_partkey": t["l_partkey"].to_numpy(zero_copy_only=False),
            "s_suppkey": t["l_suppkey"].to_numpy(zero_copy_only=False),
            "unit_cost": unit})
        return arrow_out(part.groupby(["p_partkey", "s_suppkey"],
                                      as_index=False).min())

    from ..stages.groups import bucketed_group_apply

    def bucket_min(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["p_partkey", "s_suppkey"],
                          as_index=False)["unit_cost"].min()

    # grouped Min via one bucketed exchange + vectorized per-bucket
    # reduce — Ray's sort aggregate walks the ~|part×supp| one-row
    # groups at Python speed (was 10 s of the query's 11.8 at sf0.1)
    cost = bucketed_group_apply(
        _lineitem(sf_dir, ["l_partkey", "l_suppkey",
                           "l_extendedprice", "l_quantity"])
        .map_batches(pair_min, batch_format="pyarrow"),
        "p_partkey", bucket_min, num_buckets=16).to_pandas()

    nation = _read(sf_dir, "nation",
                   ["n_nationkey", "n_name", "n_regionkey"]).to_pandas()
    region = _read(sf_dir, "region",
                   ["r_regionkey", "r_name"]).to_pandas()
    supp = _read(sf_dir, "supplier",
                 ["s_suppkey", "s_name", "s_nationkey",
                  "s_acctbal"]).to_pandas()
    rs = (supp.merge(nation, left_on="s_nationkey", right_on="n_nationkey")
          .merge(region, left_on="n_regionkey", right_on="r_regionkey"))
    rs = rs[rs["r_name"] == "AFRICA"][
        ["s_suppkey", "s_name", "s_acctbal", "n_name"]]
    c2 = cost.merge(rs, on="s_suppkey")
    mins = (c2.groupby("p_partkey", as_index=False)["unit_cost"].min()
            .rename(columns={"unit_cost": "mc"}))
    c2 = c2.merge(mins, on="p_partkey")
    c2 = c2[c2["unit_cost"] == c2["mc"]]
    part = _read(sf_dir, "part",
                 ["p_partkey", "p_type", "p_size"]).to_pandas()
    part = part[(part["p_type"] == "STANDARD") & (part["p_size"] <= 25)]
    out = c2.merge(part[["p_partkey"]], on="p_partkey")
    out["unit_cost"] = round2(out["unit_cost"])
    return (out[["s_acctbal", "s_name", "n_name", "p_partkey", "unit_cost"]]
            .sort_values(["s_acctbal", "n_name", "s_name", "p_partkey"],
                         ascending=[False, True, True, True])
            .head(100).reset_index(drop=True))


Q2_SQL = """
WITH cost AS (
  SELECT l_partkey AS p_partkey, l_suppkey AS s_suppkey,
         min(l_extendedprice / l_quantity) AS unit_cost
  FROM lineitem GROUP BY 1, 2),
rs AS (SELECT s_suppkey, s_name, s_acctbal, n_name
       FROM supplier JOIN nation ON s_nationkey = n_nationkey
       JOIN region ON n_regionkey = r_regionkey
       WHERE r_name = 'AFRICA'),
c2 AS (SELECT cost.p_partkey, cost.unit_cost, rs.s_suppkey, rs.s_name,
              rs.s_acctbal, rs.n_name
       FROM cost JOIN rs USING (s_suppkey)),
m AS (SELECT p_partkey, min(unit_cost) AS mc FROM c2 GROUP BY 1)
SELECT c2.s_acctbal, c2.s_name, c2.n_name, c2.p_partkey,
       round(c2.unit_cost, 2) AS unit_cost
FROM c2 JOIN m ON c2.p_partkey = m.p_partkey AND c2.unit_cost = m.mc
JOIN part p ON p.p_partkey = c2.p_partkey
WHERE p.p_type = 'STANDARD' AND p.p_size <= 25
ORDER BY s_acctbal DESC, n_name, s_name, c2.p_partkey LIMIT 100
"""


def q9_profit_by_nation_year(sf_dir: str):
    """TPC-H Q9 shape — multi-dimension profit rollup: lineitem⋈orders
    is the bucketed fact-fact edge; part (price + name predicate) and
    supplier→nation ship once as broadcast sorted arrays (bounded by
    catalog size — the Q5/Q7 dimension pattern); per-batch partials
    keep the final groupby at |nation|×|year| rows with no exchange.

    Profit sums in exact int64 units of 1e-4 (Q1's fixed-point
    scheme): prices and discounts have 2 decimals and ``l_quantity``
    holds integers, so cents(E)·(100 − cents(D)) − cents(R)·Q is exact
    per row and the sums carry no float-order noise — the
    float form flipped a cent at sf0.001 with the table in 1 block."""
    import ray

    from pdf_to_text_ray.stages.joins import bucketed_hash_join

    part = _read(sf_dir, "part",
                 ["p_partkey", "p_name", "p_retailprice"]).to_pandas()
    part = (part[part["p_name"].str.contains("widget")]
            .sort_values("p_partkey"))
    part_ref = ray.put((part["p_partkey"].to_numpy(),
                        part["p_retailprice"].to_numpy()))
    supp = (_read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
            .to_pandas().sort_values("s_suppkey"))
    supp_ref = ray.put((supp["s_suppkey"].to_numpy(),
                        supp["s_nationkey"].to_numpy()))

    def pre(t: pa.Table) -> pa.Table:
        lp = t["l_partkey"].to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(probe_sorted(ray.get(part_ref)[0], lp)[0]))
        return t.rename_columns(["o_orderkey", "l_partkey", "l_suppkey",
                                 "l_quantity", "l_extendedprice",
                                 "l_discount"])

    li = _lineitem(sf_dir, ["l_orderkey", "l_partkey", "l_suppkey",
                            "l_quantity", "l_extendedprice",
                            "l_discount"]).map_batches(
        pre, batch_format="pyarrow")
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"])
    joined = bucketed_hash_join(
        li, orders, on="o_orderkey")

    def profit_partial(t: pa.Table) -> pa.Table:
        b = t.to_pandas()
        pk, price = ray.get(part_ref)
        sk, sn = ray.get(supp_ref)
        lp = b["l_partkey"].to_numpy()
        pidx = np.clip(np.searchsorted(pk, lp), 0, max(len(pk) - 1, 0))
        ls = b["l_suppkey"].to_numpy()
        sidx = np.clip(np.searchsorted(sk, ls), 0, len(sk) - 1)
        profit = (cents(b["l_extendedprice"])
                  * (100 - cents(b["l_discount"]))
                  - cents(price[pidx])
                  * b["l_quantity"].to_numpy().astype(np.int64))
        return pa.table({
            "n_nationkey": sn[sidx],
            "o_year": b["o_orderdate"].dt.year.to_numpy(),
            "profit_u": profit})

    agg = grouped_partials(joined, ["n_nationkey", "o_year"],
                           sums=["profit_u"], prep=profit_partial)
    names = _read(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    agg["nation"] = agg["n_nationkey"].map(
        dict(zip(names["n_nationkey"], names["n_name"])))
    agg["o_year"] = agg["o_year"].astype("int64")
    agg["sum_profit"] = round2(agg["profit_u"].astype("int64") / 10000.0)
    return (agg[["nation", "o_year", "sum_profit"]]
            .sort_values(["nation", "o_year"]).reset_index(drop=True))


Q9_SQL = """
SELECT n_name AS nation, year(o_orderdate)::BIGINT AS o_year,
       round(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                 * (100 - CAST(round(l_discount * 100) AS BIGINT))
                 - CAST(round(p_retailprice * 100) AS BIGINT)
                 * CAST(l_quantity AS BIGINT)) / 10000.0, 2)
         AS sum_profit
FROM lineitem JOIN orders ON o_orderkey = l_orderkey
JOIN supplier ON s_suppkey = l_suppkey
JOIN nation ON n_nationkey = s_nationkey
JOIN part ON p_partkey = l_partkey
WHERE p_name LIKE '%widget%'
GROUP BY n_name, year(o_orderdate) ORDER BY nation, o_year
"""


def q11_important_parts(sf_dir: str):
    """TPC-H Q11 shape — grouped value share with a global scalar gate:
    per-part value sums reduce distributed behind a broadcast supplier
    scope probe; the 2×mean threshold compares ROUNDED sums on both
    engines so partial-order float noise cannot flip the cut."""
    import ray

    from ray.data.aggregate import Sum

    nation = _read(sf_dir, "nation",
                   ["n_nationkey", "n_regionkey"]).to_pandas()
    region = _read(sf_dir, "region",
                   ["r_regionkey", "r_name"]).to_pandas()
    afr = set(nation.merge(
        region[region["r_name"] == "AFRICA"],
        left_on="n_regionkey", right_on="r_regionkey")["n_nationkey"])
    supp = _read(sf_dir, "supplier",
                 ["s_suppkey", "s_nationkey"]).to_pandas()
    scope_ref = ray.put(np.sort(
        supp.loc[supp["s_nationkey"].isin(afr), "s_suppkey"].to_numpy()))

    def value_partial(t: pa.Table) -> pa.Table:
        ls = t["l_suppkey"].to_numpy(zero_copy_only=False)
        hit, _ = probe_sorted(ray.get(scope_ref), ls)
        part = pd.DataFrame({
            "p_partkey": t["l_partkey"].to_numpy(zero_copy_only=False)[hit],
            "value": t["l_extendedprice"].to_numpy(
                zero_copy_only=False)[hit]})
        return arrow_out(part.groupby("p_partkey", as_index=False).sum())

    v = (_lineitem(sf_dir, ["l_partkey", "l_suppkey", "l_extendedprice"])
         .map_batches(value_partial, batch_format="pyarrow")
         .groupby("p_partkey")
         .aggregate(Sum("value", alias_name="value"))
         .to_pandas())
    if v.empty:
        return pd.DataFrame({"p_partkey": pd.Series([], dtype="int64"),
                             "value": pd.Series([], dtype="float64")})
    v["value"] = round2(v["value"])
    out = v[v["value"] > 2.0 * v["value"].mean()]
    return (out.sort_values(["value", "p_partkey"],
                            ascending=[False, True])
            .reset_index(drop=True))


Q11_SQL = """
WITH scope AS (SELECT s_suppkey FROM supplier
               JOIN nation ON s_nationkey = n_nationkey
               JOIN region ON n_regionkey = r_regionkey
               WHERE r_name = 'AFRICA'),
v AS (SELECT l_partkey AS p_partkey, round(sum(l_extendedprice), 2) AS value
      FROM lineitem JOIN scope ON l_suppkey = s_suppkey GROUP BY 1)
SELECT p_partkey, value FROM v
WHERE value > 2.0 * (SELECT avg(value) FROM v)
ORDER BY value DESC, p_partkey
"""


def q12_late_shipment_priority(sf_dir: str):
    """TPC-H Q12 shape — join + conditional counts by category: late
    lines (shipped >60 days after order) counted by priority class per
    return flag. One bucketed fact-fact join; the CASE sums collapse
    per batch before a |flags|-row groupby."""
    from pdf_to_text_ray.stages.joins import bucketed_hash_join

    li = _lineitem(sf_dir, ["l_orderkey", "l_returnflag",
                            "l_shipdate"]).map_batches(
        lambda t: t.rename_columns(["o_orderkey", "l_returnflag",
                                    "l_shipdate"]),
        batch_format="pyarrow")
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderdate", "o_orderpriority"])
    joined = bucketed_hash_join(
        li, orders, on="o_orderkey")

    def late_partial(t: pa.Table) -> pa.Table:
        b = t.to_pandas()
        late = b["l_shipdate"] > b["o_orderdate"] + pd.Timedelta(days=60)
        b = b[late]
        high = b["o_orderpriority"].isin(("1-URGENT", "2-HIGH"))
        return arrow_out(pd.DataFrame({
            "l_returnflag": b["l_returnflag"],
            "high_line_count": high.astype("int64"),
            "low_line_count": (~high).astype("int64")}))

    return grouped_partials(joined, "l_returnflag",
                            sums=["high_line_count", "low_line_count"],
                            prep=late_partial)


Q12_SQL = """
SELECT l_returnflag,
  sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
      THEN 1 ELSE 0 END)::BIGINT AS high_line_count,
  sum(CASE WHEN o_orderpriority NOT IN ('1-URGENT', '2-HIGH')
      THEN 1 ELSE 0 END)::BIGINT AS low_line_count
FROM orders JOIN lineitem ON o_orderkey = l_orderkey
WHERE l_shipdate > o_orderdate + INTERVAL 60 DAY
GROUP BY l_returnflag ORDER BY l_returnflag
"""


def q16_supplier_cnt(sf_dir: str):
    """TPC-H Q16 shape — distinct-supplier counts per part attribute
    with a NOT-IN supplier exclusion: part attributes and the excluded
    supplier set broadcast (catalog-bounded); the distinct reduce is a
    payload-free shuffle over (brand, size, supp) triples, and the
    count per (brand, size) merges per-batch partials."""
    import ray

    part = _read(sf_dir, "part",
                 ["p_partkey", "p_brand", "p_type", "p_size"]).to_pandas()
    part = part[(part["p_type"] != "PROMO")
                & part["p_size"].isin((1, 9, 17, 25, 33, 41, 49))]
    part = part.sort_values("p_partkey")
    supp = _read(sf_dir, "supplier",
                 ["s_suppkey", "s_acctbal"]).to_pandas()
    bad = np.sort(supp.loc[supp["s_acctbal"] < 1000.0,
                           "s_suppkey"].to_numpy())
    ref = ray.put((part["p_partkey"].to_numpy(),
                   part["p_brand"].to_numpy(),
                   part["p_size"].to_numpy(), bad))

    def triples(t: pa.Table) -> pa.Table:
        pk, brand, size, excl = ray.get(ref)
        hit, idx = probe_sorted(
            pk, t["l_partkey"].to_numpy(zero_copy_only=False))
        ls = t["l_suppkey"].to_numpy(zero_copy_only=False)
        hit &= ~probe_sorted(excl, ls)[0]
        part = pd.DataFrame({"p_brand": brand[idx[hit]],
                             "p_size": size[idx[hit]],
                             "l_suppkey": ls[hit]}).drop_duplicates()
        return arrow_out(part)

    # distinct (brand, size, supplier) grows with the suppliers: an
    # exchange; its count per (brand, size) is a small key domain
    distinct = (_lineitem(sf_dir, ["l_partkey", "l_suppkey"])
                .map_batches(triples, batch_format="pyarrow")
                .groupby(["p_brand", "p_size", "l_suppkey"]).count())
    out = grouped_partials(distinct, ["p_brand", "p_size"],
                           count="supplier_cnt")
    if out.empty:
        return pd.DataFrame({"p_brand": pd.Series([], dtype=object),
                             "p_size": pd.Series([], dtype="int64"),
                             "supplier_cnt": pd.Series([], dtype="int64")})
    out["p_size"] = out["p_size"].astype("int64")
    out["supplier_cnt"] = out["supplier_cnt"].astype("int64")
    return (out.sort_values(["supplier_cnt", "p_brand", "p_size"],
                            ascending=[False, True, True])
            .reset_index(drop=True))


Q16_SQL = """
SELECT p_brand, p_size, count(DISTINCT l_suppkey)::BIGINT AS supplier_cnt
FROM lineitem JOIN part ON p_partkey = l_partkey
WHERE p_type <> 'PROMO' AND p_size IN (1, 9, 17, 25, 33, 41, 49)
  AND l_suppkey NOT IN (SELECT s_suppkey FROM supplier
                        WHERE s_acctbal < 1000.0)
GROUP BY p_brand, p_size ORDER BY supplier_cnt DESC, p_brand, p_size
"""


def q20_excess_suppliers(sf_dir: str):
    """TPC-H Q20 shape — nested semi-join through grouped thresholds:
    AFRICA suppliers who shipped more than half of some contested
    (≥4-supplier) part's 1997 volume. The (supplier, part) quantity
    sums reduce distributed; the per-part totals and the dimension
    probe finish on the catalog-bounded result driver-side. Quantities
    are integral so the sums and the 0.5× threshold are exact."""
    from ray.data.aggregate import Sum

    lo, hi = pd.Timestamp("1997-01-01"), pd.Timestamp("1998-01-01")

    def pair_qty(t: pa.Table) -> pa.Table:
        t = t.filter(pc.and_(
            pc.greater_equal(t["l_shipdate"], pa.scalar(lo)),
            pc.less(t["l_shipdate"], pa.scalar(hi))))
        part = pd.DataFrame({
            "l_suppkey": t["l_suppkey"].to_numpy(zero_copy_only=False),
            "l_partkey": t["l_partkey"].to_numpy(zero_copy_only=False),
            "q": t["l_quantity"].to_numpy(zero_copy_only=False)})
        return arrow_out(part.groupby(["l_suppkey", "l_partkey"],
                                      as_index=False).sum())

    sp = (_lineitem(sf_dir, ["l_suppkey", "l_partkey", "l_quantity",
                             "l_shipdate"])
          .map_batches(pair_qty, batch_format="pyarrow")
          .groupby(["l_suppkey", "l_partkey"])
          .aggregate(Sum("q", alias_name="q"))
          .to_pandas())
    pt = sp.groupby("l_partkey", as_index=False).agg(
        total=("q", "sum"), ns=("q", "size"))
    sp = sp.merge(pt, on="l_partkey")
    sp = sp[(sp["ns"] >= 4) & (sp["q"] > 0.5 * sp["total"])]

    nation = _read(sf_dir, "nation",
                   ["n_nationkey", "n_regionkey"]).to_pandas()
    region = _read(sf_dir, "region",
                   ["r_regionkey", "r_name"]).to_pandas()
    afr = set(nation.merge(
        region[region["r_name"] == "AFRICA"],
        left_on="n_regionkey", right_on="r_regionkey")["n_nationkey"])
    supp = _read(sf_dir, "supplier",
                 ["s_suppkey", "s_name", "s_nationkey"]).to_pandas()
    supp = supp[supp["s_nationkey"].isin(afr)]
    out = (supp.merge(sp[["l_suppkey"]].drop_duplicates(),
                      left_on="s_suppkey", right_on="l_suppkey"))
    return (out[["s_suppkey", "s_name"]].sort_values("s_suppkey")
            .reset_index(drop=True))


Q20_SQL = """
WITH sp AS (SELECT l_suppkey, l_partkey, sum(l_quantity) AS q
            FROM lineitem
            WHERE l_shipdate >= TIMESTAMP '1997-01-01'
              AND l_shipdate < TIMESTAMP '1998-01-01'
            GROUP BY 1, 2),
pt AS (SELECT l_partkey, sum(q) AS total, count(*) AS ns
       FROM sp GROUP BY 1)
SELECT DISTINCT s.s_suppkey, s.s_name
FROM supplier s JOIN nation ON s_nationkey = n_nationkey
JOIN region ON n_regionkey = r_regionkey
JOIN sp ON sp.l_suppkey = s.s_suppkey
JOIN pt ON pt.l_partkey = sp.l_partkey
WHERE r_name = 'AFRICA' AND pt.ns >= 4 AND sp.q > 0.5 * pt.total
ORDER BY 1
"""


def q21_waiting_suppliers(sf_dir: str):
    """TPC-H Q21 shape — the EXISTS / NOT-EXISTS pair correlated on the
    order: suppliers whose late line (shipped >60 days after an 'F'
    order was placed) was the ONLY late one in a multi-supplier order.
    One bucketed join for the order date, then per-order distinct
    counts inside ONE bucketed shuffle on the order key."""
    from pdf_to_text_ray.stages.groups import bucketed_group_apply
    from pdf_to_text_ray.stages.joins import bucketed_hash_join

    li = _lineitem(sf_dir, ["l_orderkey", "l_suppkey",
                            "l_shipdate"]).map_batches(
        lambda t: t.rename_columns(["o_orderkey", "l_suppkey",
                                    "l_shipdate"]),
        batch_format="pyarrow")
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderdate",
                    "o_orderstatus"]).map_batches(
        lambda t: t.filter(pc.equal(t["o_orderstatus"], pa.scalar("F")))
        .select(["o_orderkey", "o_orderdate"]),
        batch_format="pyarrow")
    joined = bucketed_hash_join(
        li, orders, on="o_orderkey")

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        late = df["l_shipdate"] > df["o_orderdate"] + pd.Timedelta(days=60)
        ns = df.groupby("o_orderkey")["l_suppkey"].nunique()
        lt = df[late]
        nl = lt.groupby("o_orderkey")["l_suppkey"].nunique()
        culprit = lt.groupby("o_orderkey")["l_suppkey"].max()
        sel = nl.index[(nl == 1) & (ns.reindex(nl.index) >= 2)]
        return pd.DataFrame({"s_suppkey": culprit.reindex(sel)
                             .astype("int64").to_numpy()})

    waits = (bucketed_group_apply(joined, "o_orderkey", per_bucket)
             .groupby("s_suppkey").count().to_pandas())
    if waits.empty:
        return pd.DataFrame({"s_name": pd.Series([], dtype=object),
                             "numwait": pd.Series([], dtype="int64")})
    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_name"]).to_pandas()
    out = waits.merge(supp, on="s_suppkey").rename(
        columns={"count()": "numwait"})
    out["numwait"] = out["numwait"].astype("int64")
    return (out[["s_name", "numwait"]]
            .sort_values(["numwait", "s_name"], ascending=[False, True])
            .reset_index(drop=True))


Q21_SQL = """
WITH l AS (SELECT l_orderkey, l_suppkey,
                  (l_shipdate > o_orderdate + INTERVAL 60 DAY) AS late
           FROM lineitem JOIN orders ON o_orderkey = l_orderkey
           WHERE o_orderstatus = 'F'),
o AS (SELECT l_orderkey, count(DISTINCT l_suppkey) AS ns,
             count(DISTINCT l_suppkey) FILTER (late) AS nl,
             max(l_suppkey) FILTER (late) AS culprit
      FROM l GROUP BY 1)
SELECT s_name, count(*)::BIGINT AS numwait
FROM o JOIN supplier ON s_suppkey = culprit
WHERE ns >= 2 AND nl = 1 GROUP BY s_name ORDER BY numwait DESC, s_name
"""


def orders_cube_volume(sf_dir: str):
    """CUBE aggregate — all four grouping sets of (status, priority)
    from ONE distributed pass: the finest-level sums reduce through a
    per-batch partial + one small groupby (|statuses|×|priorities|
    rows); the coarser levels re-aggregate that bounded result
    driver-side from the RAW sums (rounding only at the end, so both
    engines round once). Null group keys coalesce to 'ALL' on both
    sides (sentinel-safe: no real status/priority is 'ALL')."""
    fine = grouped_partials(
        _read(sf_dir, "orders",
              ["o_orderstatus", "o_orderpriority", "o_totalprice"]),
        ["status", "priority"], sums=["total"], count="n_orders",
        prep=lambda t: t.rename_columns(["status", "priority", "total"]))

    def roll(keys: list[str]) -> pd.DataFrame:
        if keys:
            g = fine.groupby(keys, as_index=False)[
                ["n_orders", "total"]].sum()
        else:
            g = pd.DataFrame({"n_orders": [fine["n_orders"].sum()],
                              "total": [fine["total"].sum()]})
        for c in ("status", "priority"):
            if c not in keys:
                g[c] = "ALL"
        return g[["status", "priority", "n_orders", "total"]]

    out = pd.concat([roll(["status", "priority"]), roll(["status"]),
                     roll(["priority"]), roll([])], ignore_index=True)
    out["n_orders"] = out["n_orders"].astype("int64")
    out["total"] = round2(out["total"])
    return (out.sort_values(["status", "priority"])
            .reset_index(drop=True))


CUBE_SQL = """
SELECT coalesce(o_orderstatus, 'ALL') AS status,
       coalesce(o_orderpriority, 'ALL') AS priority,
       count(*)::BIGINT AS n_orders, round(sum(o_totalprice), 2) AS total
FROM orders GROUP BY CUBE (o_orderstatus, o_orderpriority)
ORDER BY status, priority
"""


def lineitem_unpivot_metrics(sf_dir: str):
    """Unpivot / melt — three measure columns explode into long
    (metric, val) rows INSIDE each batch (the wide→long reshape never
    materializes: each batch emits only its per-metric partials), then
    one |metrics|-row groupby merges sums/counts/extrema."""
    measures = ("discount", "extendedprice", "quantity")

    def partial(t: pa.Table) -> pa.Table:
        cols = {"discount": t["l_discount"].to_numpy(zero_copy_only=False),
                "extendedprice": t["l_extendedprice"].to_numpy(
                    zero_copy_only=False),
                "quantity": t["l_quantity"].to_numpy(zero_copy_only=False)}
        return pa.table({
            "metric": pa.array(list(measures), pa.string()),
            "n": pa.array([len(cols[m]) for m in measures], pa.int64()),
            "total": pa.array([float(cols[m].sum()) for m in measures]),
            "vmin": pa.array([float(cols[m].min()) for m in measures]),
            "vmax": pa.array([float(cols[m].max()) for m in measures]),
        })

    out = grouped_partials(
        _lineitem(sf_dir, ["l_quantity", "l_extendedprice", "l_discount"]),
        "metric", sums=["n", "total"], mins=["vmin"], maxes=["vmax"],
        prep=partial)
    for c in ("total", "vmin", "vmax"):
        out[c] = round2(out[c])
    return out


UNPIVOT_SQL = """
WITH u AS (
  SELECT 'quantity' AS metric, l_quantity AS val FROM lineitem
  UNION ALL SELECT 'extendedprice', l_extendedprice FROM lineitem
  UNION ALL SELECT 'discount', l_discount FROM lineitem)
SELECT metric, count(*)::BIGINT AS n, round(sum(val), 2) AS total,
       round(min(val), 2) AS vmin, round(max(val), 2) AS vmax
FROM u GROUP BY metric ORDER BY metric
"""


def event_value_mad_per_type(sf_dir: str):
    """Grouped robust statistics — exact per-group median and median
    absolute deviation. Holistic aggregates (need the whole group) →
    ONE bucketed shuffle on the group key, vectorized pandas grouped
    medians per bucket (verified bit-exact vs DuckDB mad/median)."""
    from pdf_to_text_ray.stages.groups import bucketed_group_apply

    ds = _read(sf_dir, "events", ["event_type", "value"])

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        med = df.groupby("event_type")["value"].median()
        dev = (df["value"] - df["event_type"].map(med)).abs()
        mad = dev.groupby(df["event_type"]).median()
        out = pd.DataFrame({"event_type": med.index,
                            "med_value": round2(med.to_numpy()),
                            "mad_value": round2(mad.to_numpy())})
        return out

    return (bucketed_group_apply(ds, "event_type", per_bucket)
            .to_pandas().sort_values("event_type")
            .reset_index(drop=True))


MAD_SQL = """
SELECT event_type, round(median(value), 2) AS med_value,
       round(mad(value), 2) AS mad_value
FROM events GROUP BY event_type ORDER BY event_type
"""


def event_transition_matrix(sf_dir: str):
    """Markov transition counts over per-user time-ordered event-type
    sequences (prev → next, ordered by ts with event_id tiebreak).
    Each user's whole sequence lands in one bucket (hash partitioning);
    per bucket the lag is ONE vectorized grouped shift; the per-bucket
    pair counts pre-aggregate before the tiny |types|² groupby."""
    from pdf_to_text_ray.stages.groups import bucketed_group_apply

    ds = _read(sf_dir, "events", ["user_id", "event_type", "ts",
                                  "event_id"])

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"],
                            kind="stable")
        prev = df.groupby("user_id")["event_type"].shift(1)
        pairs = pd.DataFrame({"from_type": prev,
                              "to_type": df["event_type"]}).dropna()
        out = pairs.groupby(["from_type", "to_type"],
                            as_index=False).size()
        return out.rename(columns={"size": "n"})

    return grouped_partials(bucketed_group_apply(ds, "user_id", per_bucket),
                            ["from_type", "to_type"], sums=["n"])


TRANSITION_SQL = """
WITH s AS (SELECT user_id, event_type,
                  lag(event_type) OVER (PARTITION BY user_id
                                        ORDER BY ts, event_id) AS prev
           FROM events)
SELECT prev AS from_type, event_type AS to_type, count(*)::BIGINT AS n
FROM s WHERE prev IS NOT NULL
GROUP BY prev, event_type ORDER BY from_type, to_type
"""


def orders_dow_volume(sf_dir: str):
    """Calendar-function rollup — order volume by ISO day-of-week
    (Mon=1..Sun=7). The dow derivation is one vectorized dt accessor
    per batch; partials collapse to ≤7 rows before the groupby."""
    def partial(t: pa.Table) -> pa.Table:
        dow = pc.add(pc.day_of_week(t["o_orderdate"]), 1)  # Mon=0
        return pa.table({"dow": pc.cast(dow, pa.int64()),
                         "total": t["o_totalprice"]})

    out = grouped_partials(
        _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"]), "dow",
        sums=["total"], count="n_orders", prep=partial)
    out["total"] = round2(out["total"])
    return out


DOW_SQL = """
SELECT isodow(o_orderdate)::BIGINT AS dow, count(*)::BIGINT AS n_orders,
       round(sum(o_totalprice), 2) AS total
FROM orders GROUP BY dow ORDER BY dow
"""


def doc_snippet_extract(sf_dir: str):
    """Keyword-in-context snippet extraction: for every document
    containing the term, a fixed 46-char window anchored 20 chars
    before the FIRST occurrence (1-based substr parity with the SQL).
    The find is a vectorized pandas str op per batch; the window slice
    is per-matching-row only."""
    term = "merge"

    def snip(t: pa.Table) -> pa.Table:
        texts = pd.Series(t["text"].to_pylist())
        pos = texts.str.find(term)
        hit = pos >= 0
        ids = t["doc_id"].to_numpy(zero_copy_only=False)[
            hit.to_numpy()]
        snippets = [s[max(0, p - 20):max(0, p - 20) + 46]
                    for s, p in zip(texts[hit], pos[hit])]
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "snippet": pa.array(snippets, pa.string())})

    return (_read(sf_dir, "documents", ["doc_id", "text"])
            .map_batches(snip, batch_format="pyarrow")
            .to_pandas().sort_values("doc_id").reset_index(drop=True))


SNIPPET_SQL = """
SELECT doc_id,
       substr(text, greatest(1, position('merge' IN text) - 20), 46)
         AS snippet
FROM documents WHERE position('merge' IN text) > 0 ORDER BY doc_id
"""


def doc_term_stats(sf_dir: str):
    """Corpus term statistics for a fixed term list: per term, the
    document frequency and the total (non-overlapping) occurrence
    count. Vectorized str.contains / str.count partials per batch →
    one |terms|-row groupby merge."""
    from ray.data.aggregate import Sum

    import re as _re

    terms = ("join", "merge", "scan", "window")

    def partial(t: pa.Table) -> pa.Table:
        texts = pd.Series(t["text"].to_pylist())
        rows = {"term": [], "n_docs": [], "n_occurrences": []}
        for term in terms:
            cnt = texts.str.count(_re.escape(term))
            rows["term"].append(term)
            rows["n_docs"].append(int((cnt > 0).sum()))
            rows["n_occurrences"].append(int(cnt.sum()))
        return pa.table({"term": pa.array(rows["term"], pa.string()),
                         "n_docs": pa.array(rows["n_docs"], pa.int64()),
                         "n_occurrences": pa.array(rows["n_occurrences"],
                                                   pa.int64())})

    out = (_read(sf_dir, "documents", ["text"])
           .map_batches(partial, batch_format="pyarrow")
           .groupby("term")
           .aggregate(Sum("n_docs", alias_name="n_docs"),
                      Sum("n_occurrences", alias_name="n_occurrences"))
           .to_pandas())
    for c in ("n_docs", "n_occurrences"):
        out[c] = out[c].astype("int64")
    return out.sort_values("term").reset_index(drop=True)


TERM_STATS_SQL = """
WITH t(term) AS (VALUES ('join'), ('merge'), ('scan'), ('window'))
SELECT term,
  sum(CASE WHEN position(term IN text) > 0 THEN 1 ELSE 0 END)::BIGINT
    AS n_docs,
  sum((len(text) - len(replace(text, term, ''))) // len(term))::BIGINT
    AS n_occurrences
FROM documents, t GROUP BY term ORDER BY term
"""


def anchor_text_index(sf_dir: str):
    """Anchor-text aggregation per link target (rows-only — feeds on
    the HTML link explode): for each dst_url, the inlink count and the
    most common anchor text (ties → lexicographic min). The classic
    web-search relevance signal; one bucketed shuffle on dst_url."""
    from pdf_to_text_ray.stages.groups import bucketed_group_apply

    edges = page_links(sf_dir)

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        n = (df.groupby("dst_url", as_index=False)
             .agg(n_refs=("src_url", "size")))
        top = (df.groupby(["dst_url", "anchor"]).size()
               .rename("c").reset_index()
               .sort_values(["dst_url", "c", "anchor"],
                            ascending=[True, False, True])
               .drop_duplicates("dst_url")[["dst_url", "anchor"]]
               .rename(columns={"anchor": "top_anchor"}))
        return n.merge(top, on="dst_url")

    out = (bucketed_group_apply(
        edges.map_batches(
            lambda t: t.select(["dst_url", "src_url", "anchor"]),
            batch_format="pyarrow"),
        "dst_url", per_bucket).to_pandas())
    out["n_refs"] = out["n_refs"].astype("int64")
    return out.sort_values("dst_url").reset_index(drop=True)


# ── training-data curation (stages/curation.py) ──────────────────────

def doc_duplicate_spans(sf_dir: str):
    """Exact duplicate-substring detection, gram-sampled (Lee et al.
    2022 goal; mod-p content-keyed sampling per Manber 1994 so shared
    spans select the SAME grams whatever their offsets): per doc, how
    many of its distinct sampled 24-char grams occur in ≥2 docs.
    Docs whose every gram position misses the 1/12 sample emit NO row
    (both sides agree — absence means "no sample", not "unique").
    Payload-free shuffles only (hash postings, then (doc_id, flag)
    rollup)."""
    from ..stages.curation import duplicate_gram_stats

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return duplicate_gram_stats(ds)


DUP_SPANS_SQL = r"""
WITH pos AS (
  SELECT doc_id, text,
         unnest(generate_series(1, length(text) - 23)) AS i
  FROM documents WHERE length(text) >= 24),
gall AS (SELECT doc_id,
                substr(md5(substr(text, i, 24)), 1, 16) AS gh FROM pos),
g AS (SELECT DISTINCT doc_id, gh FROM gall
      WHERE ('0x' || substr(gh, 1, 4))::UBIGINT % 12 = 0),
nd AS (SELECT gh, count(*) AS ndocs FROM g GROUP BY gh)
SELECT g.doc_id, count(*)::BIGINT AS n_grams,
       sum(CASE WHEN nd.ndocs >= 2 THEN 1 ELSE 0 END)::BIGINT AS n_dup_grams,
       sum(CASE WHEN nd.ndocs >= 2 THEN 1 ELSE 0 END)::DOUBLE / count(*)
         AS dup_ratio
FROM g JOIN nd USING (gh) GROUP BY g.doc_id
"""


def pii_redact_docs(sf_dir: str):
    """PII redaction (emails → <EMAIL>, IPv4 → <IP>, phones →
    <PHONE>): deterministic PII is synthesized from doc_id on BOTH
    sides (the corpus itself is PII-free word salad), then the
    sequential count-and-redact kernel runs; the oracle replays the
    identical RE2 patterns in the identical order."""
    from ..stages.curation import pii_redact_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def augment(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        texts = t["text"].to_pylist()
        aug = [
            f"{s or ''} contact u{d}@ex{d % 5}.org from "
            f"{d % 223 + 1}.{d % 256}.0.{d % 254 + 1} call "
            f"+1-555-{(d * 37) % 10000:04d}"
            for d, s in zip(ids, texts)
        ]
        return pa.table({"doc_id": t["doc_id"],
                         "text": pa.array(aug, pa.string())})

    return ds.map_batches(augment, batch_format="pyarrow").map_batches(
        pii_redact_batch, batch_format="pyarrow")


def _pii_redact_sql() -> str:
    from ..stages.curation import EMAIL_RE, IPV4_RE, PHONE_RE

    em, ip, ph = (_sql_quote(p) for p in (EMAIL_RE, IPV4_RE, PHONE_RE))
    return f"""
WITH aug AS (
  SELECT doc_id,
         coalesce(text, '') || ' contact u' || doc_id || '@ex'
           || (doc_id % 5) || '.org from ' || (doc_id % 223 + 1) || '.'
           || (doc_id % 256) || '.0.' || (doc_id % 254 + 1)
           || ' call +1-555-'
           || lpad(((doc_id * 37) % 10000)::VARCHAR, 4, '0') AS t
  FROM documents),
r AS (
  SELECT doc_id, t,
         regexp_replace(t, '{em}', '<EMAIL>', 'g') AS t1
  FROM aug),
r2 AS (SELECT doc_id, t, t1,
              regexp_replace(t1, '{ip}', '<IP>', 'g') AS t2 FROM r)
SELECT doc_id,
       length(regexp_extract_all(t, '{em}'))::BIGINT AS n_email,
       length(regexp_extract_all(t1, '{ip}'))::BIGINT AS n_ip,
       length(regexp_extract_all(t2, '{ph}'))::BIGINT AS n_phone,
       regexp_replace(t2, '{ph}', '<PHONE>', 'g') AS redacted
FROM r2
"""


def gopher_quality_docs(sf_dir: str):
    """Gopher word-level quality rules (Rae et al. 2021 §A1.1): word
    count bounds, mean word length band, ≥2 stop-word hits. Stateless
    vectorized map; no shuffle."""
    from ..stages.curation import gopher_stats_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(gopher_stats_batch, batch_format="pyarrow")


def _gopher_sql() -> str:
    from ..stages.curation import (GOPHER_MAX_MEAN_WLEN, GOPHER_MAX_WORDS,
                                   GOPHER_MIN_MEAN_WLEN, GOPHER_MIN_STOP_HITS,
                                   GOPHER_MIN_WORDS, GOPHER_STOPWORDS)

    stops = ", ".join(f"'{w}'" for w in GOPHER_STOPWORDS)
    return f"""
WITH s AS (
  SELECT doc_id,
         CASE WHEN coalesce(text, '') = '' THEN 0
              ELSE length(str_split(text, ' ')) END::BIGINT AS n_words,
         CASE WHEN coalesce(text, '') = '' THEN 0.0
              ELSE (length(text) - (length(str_split(text, ' ')) - 1))::DOUBLE
                   / length(str_split(text, ' ')) END AS mean_word_len,
         CASE WHEN coalesce(text, '') = '' THEN 0
              ELSE length(list_filter(str_split(text, ' '),
                          x -> list_contains([{stops}], x))) END::BIGINT
           AS n_stop
  FROM documents)
SELECT doc_id, n_words, mean_word_len, n_stop,
       (CASE WHEN n_words >= {GOPHER_MIN_WORDS}
              AND n_words <= {GOPHER_MAX_WORDS}
              AND mean_word_len >= {GOPHER_MIN_MEAN_WLEN}
              AND mean_word_len <= {GOPHER_MAX_MEAN_WLEN}
              AND n_stop >= {GOPHER_MIN_STOP_HITS}
         THEN 1 ELSE 0 END)::BIGINT AS keep_flag
FROM s
"""


PACK_BUDGET = 256


def pack_doc_sequences(sf_dir: str):
    """Sequence packing for training (sequential-fill): docs in doc_id
    order fill fixed {PACK_BUDGET}-token sequences; a doc's sequence id
    is its start offset // budget. The global running offset is a
    distributed prefix sum (groups.ordered_prefix_sum — one
    payload-free (doc_id, n_tokens) shuffle), NOT a driver loop."""
    from ..stages.groups import ordered_prefix_sum

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def tokens(t: pa.Table) -> pa.Table:
        n = np.asarray([len((s or "").split(" ")) if s else 0
                        for s in t["text"].to_pylist()], dtype=np.int64)
        return pa.table({"doc_id": t["doc_id"], "n_tokens": pa.array(n)})

    withn = ds.map_batches(tokens, batch_format="pyarrow")
    scanned = ordered_prefix_sum(withn, order_col="doc_id",
                                 value_col="n_tokens", out_col="cum")

    def finish(t: pa.Table) -> pa.Table:
        cum = t["cum"].to_numpy().astype(np.int64)
        n = t["n_tokens"].to_numpy().astype(np.int64)
        return pa.table({"doc_id": t["doc_id"], "n_tokens": pa.array(n),
                         "seq_id": pa.array((cum - n) // PACK_BUDGET)})

    return scanned.map_batches(finish, batch_format="pyarrow")


PACK_SEQ_SQL = f"""
WITH t AS (
  SELECT doc_id,
         CASE WHEN coalesce(text, '') = '' THEN 0
              ELSE length(str_split(text, ' ')) END::BIGINT AS n_tokens
  FROM documents)
SELECT doc_id, n_tokens,
       ((sum(n_tokens) OVER (ORDER BY doc_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) - n_tokens)
         // {PACK_BUDGET})::BIGINT AS seq_id
FROM t
"""


def events_ntile_quartiles(sf_dir: str):
    """NTILE(4) by value within each event_type (ANSI semantics: the
    first n%4 tiles get the extra row), deterministic tie-break
    (value, event_id). One bucketed shuffle on event_type; the tile
    assignment is a vectorized searchsorted per group."""
    from ..stages.groups import bucketed_group_apply

    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["event_type", "value", "event_id"],
                            kind="stable")

        def tile(g: pd.DataFrame) -> pd.DataFrame:
            n = len(g)
            q, r = divmod(n, 4)
            sizes = np.array([q + 1] * r + [q] * (4 - r))
            bounds = np.cumsum(sizes)
            g = g.copy()
            g["quartile"] = (np.searchsorted(
                bounds, np.arange(n), side="right") + 1).astype("int64")
            return g

        # one vectorized pass per group IN the bucket; groups per
        # bucket are few (5 event types)
        out = df.groupby("event_type", group_keys=False)[
            ["event_id", "event_type", "value"]].apply(tile)
        return out.reset_index(drop=True)

    return bucketed_group_apply(ds, "event_type", per_bucket,
                                num_buckets=8)


NTILE_QUARTILES_SQL = """
SELECT event_id, event_type, value,
       ntile(4) OVER (PARTITION BY event_type
                      ORDER BY value, event_id) AS quartile
FROM events
"""


EVENT_TYPES = ("click", "error", "purchase", "signup", "view")


def user_event_pivot(sf_dir: str):
    """Long→wide pivot: per user, one count column per event type.
    Distributed as a (user, type) groupby count (payload-free); the
    widening runs vectorized on the small grouped result."""
    from ray.data.aggregate import Count

    counts = (_read(sf_dir, "events", ["user_id", "event_type"])
              .groupby(["user_id", "event_type"])
              .aggregate(Count(alias_name="n"))
              .to_pandas())
    wide = counts.pivot_table(index="user_id", columns="event_type",
                              values="n", fill_value=0, aggfunc="sum")
    for t in EVENT_TYPES:
        if t not in wide.columns:
            wide[t] = 0
    out = wide.reset_index()[["user_id", *EVENT_TYPES]]
    out.columns = ["user_id"] + [f"n_{t}" for t in EVENT_TYPES]
    return out.astype({f"n_{t}": "int64" for t in EVENT_TYPES})


USER_PIVOT_SQL = """
SELECT user_id,
       count(*) FILTER (event_type = 'click')::BIGINT AS n_click,
       count(*) FILTER (event_type = 'error')::BIGINT AS n_error,
       count(*) FILTER (event_type = 'purchase')::BIGINT AS n_purchase,
       count(*) FILTER (event_type = 'signup')::BIGINT AS n_signup,
       count(*) FILTER (event_type = 'view')::BIGINT AS n_view
FROM events GROUP BY user_id
"""


BM25_SEARCH_TERMS = ["hash", "join"]


def bm25_search_docs(sf_dir: str):
    """BM25 top-20 for the query 'hash join': two streaming passes
    (tiny stats partials, then broadcast-stats scoring with per-batch
    partial top-k). Two query terms keep the per-doc score sum
    commutative, so engine and oracle doubles are bit-identical."""
    from ..stages.index import bm25_topk

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return bm25_topk(ds, BM25_SEARCH_TERMS)


BM25_SEARCH_SQL = """
WITH w AS (SELECT doc_id, str_split(text, ' ') AS w FROM documents
           WHERE coalesce(text, '') <> ''),
st AS (SELECT count(*) AS n,
              sum(length(w))::DOUBLE / count(*) AS avgdl FROM w),
q AS (SELECT unnest(['hash', 'join']) AS term),
tf AS (SELECT doc_id, term,
              length(list_filter(w, x -> x = term)) AS tf,
              length(w) AS dl FROM w, q),
df AS (SELECT term, count(*) FILTER (tf > 0) AS df FROM tf GROUP BY term),
sc AS (SELECT tf.doc_id,
              sum(ln((st.n - df.df + 0.5) / (df.df + 0.5) + 1)
                  * (tf.tf * 2.2)
                  / (tf.tf + 1.2 * (0.25 + 0.75 * tf.dl / st.avgdl)))
                AS score
       FROM tf JOIN df USING (term), st GROUP BY tf.doc_id)
SELECT doc_id, round(score, 2) AS score FROM sc
ORDER BY round(score, 2) DESC, doc_id LIMIT 20
"""


def training_corpus_pipeline(sf_dir: str):
    """The composed training-corpus flagship (pipelines/curate.py):
    Gopher gate → exact dedup (bucketed payload shuffle) → MinHash
    near-dup (component-label broadcast) → benchmark-contamination
    filter → sequence packing. Fully oracle-checked end-to-end: the
    SQL twin replays every stage — the MinHash stage verifies LSH
    candidates with exact char-5-gram Jaccard, so its pair set equals
    the oracle's exact self-join whenever banding recall is 1 (the
    same contract neardup_minhash_docs' own green row asserts), and
    the component keep-set is the recursive-closure min-root."""
    from .curate import curate_documents

    return curate_documents(sf_dir)


def _training_corpus_sql() -> str:
    """SQL twin of curate_documents: gopher gate → exact md5 dedup →
    exact char-5-gram Jaccard components (≥0.7) keep-root → benchmark
    word-trigram contamination drop (bench = doc_id % 97 == 0 over the
    FULL corpus; candidates = every survivor, bench members included)
    → doc_id-ordered prefix-sum packing into 256-token sequences."""
    from ..stages.curation import (GOPHER_MAX_MEAN_WLEN, GOPHER_MAX_WORDS,
                                   GOPHER_MIN_MEAN_WLEN, GOPHER_MIN_STOP_HITS,
                                   GOPHER_MIN_WORDS, GOPHER_STOPWORDS)

    stops = ", ".join(f"'{w}'" for w in GOPHER_STOPWORDS)
    return rf"""
WITH RECURSIVE gop AS (
  SELECT doc_id, text, lang, source FROM (
    SELECT doc_id, text, lang, source,
           CASE WHEN coalesce(text, '') = '' THEN 0
                ELSE length(str_split(text, ' ')) END::BIGINT AS n_words,
           CASE WHEN coalesce(text, '') = '' THEN 0.0
                ELSE (length(text) - (length(str_split(text, ' ')) - 1))
                     ::DOUBLE / length(str_split(text, ' ')) END AS mwl,
           CASE WHEN coalesce(text, '') = '' THEN 0
                ELSE length(list_filter(str_split(text, ' '),
                            x -> list_contains([{stops}], x))) END AS n_stop
    FROM documents)
  WHERE n_words >= {GOPHER_MIN_WORDS} AND n_words <= {GOPHER_MAX_WORDS}
    AND mwl >= {GOPHER_MIN_MEAN_WLEN} AND mwl <= {GOPHER_MAX_MEAN_WLEN}
    AND n_stop >= {GOPHER_MIN_STOP_HITS}),
ded AS (
  SELECT doc_id, text, lang, source FROM (
    SELECT *, min(doc_id) OVER (
        PARTITION BY md5(coalesce(text, ''))) AS keep_id FROM gop)
  WHERE doc_id = keep_id),
toks AS (
  SELECT doc_id, regexp_replace(lower(trim(text)), '\s+', ' ', 'g') AS s
  FROM ded WHERE trim(coalesce(text, '')) <> ''),
grams AS (
  SELECT DISTINCT doc_id,
         unnest([substr(s, i, 5)
                 for i in range(1, greatest(len(s) - 4, 0) + 1)]) AS gram
  FROM toks),
sizes AS (SELECT doc_id, count(*) AS n FROM grams GROUP BY doc_id),
inter AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*) AS c
  FROM grams a JOIN grams b ON a.gram = b.gram AND a.doc_id < b.doc_id
  GROUP BY 1, 2),
pairs AS (
  SELECT id_a, id_b FROM inter
  JOIN sizes sa ON sa.doc_id = inter.id_a
  JOIN sizes sb ON sb.doc_id = inter.id_b
  WHERE c::DOUBLE / (sa.n + sb.n - c) >= 0.7),
edges AS (
  SELECT id_a AS src, id_b AS dst FROM pairs
  UNION SELECT id_b, id_a FROM pairs),
reach(node, r) AS (
  SELECT DISTINCT src, src FROM edges
  UNION
  SELECT e.dst, reach.r FROM reach JOIN edges e ON e.src = reach.node),
comp AS (SELECT node, min(r) AS root FROM reach GROUP BY node),
nd AS (
  SELECT d.doc_id, d.text, d.lang, d.source FROM ded d
  LEFT JOIN comp c ON c.node = d.doc_id
  WHERE c.node IS NULL OR c.root = d.doc_id),
bw AS (SELECT str_split(text, ' ') AS w FROM documents
       WHERE doc_id % 97 = 0 AND coalesce(text, '') <> ''),
bg AS (SELECT DISTINCT array_to_string(w[i:i+2], ' ') AS g3
       FROM (SELECT w, unnest(generate_series(1, length(w) - 2)) AS i
             FROM bw WHERE length(w) >= 3)),
cg AS (SELECT doc_id, array_to_string(w[i:i+2], ' ') AS g3
       FROM (SELECT doc_id, w,
                    unnest(generate_series(1, length(w) - 2)) AS i
             FROM (SELECT doc_id, str_split(text, ' ') AS w FROM nd
                   WHERE coalesce(text, '') <> '')
             WHERE length(w) >= 3)),
contam AS (SELECT DISTINCT cg.doc_id FROM cg JOIN bg USING (g3)),
clean AS (
  SELECT doc_id, lang, source,
         CASE WHEN coalesce(text, '') = '' THEN 0
              ELSE length(str_split(text, ' ')) END::BIGINT AS n_tokens
  FROM nd WHERE doc_id NOT IN (SELECT doc_id FROM contam)),
packed AS (
  SELECT doc_id, lang, source, n_tokens,
         sum(n_tokens) OVER (ORDER BY doc_id
                             ROWS UNBOUNDED PRECEDING) AS cum
  FROM clean)
SELECT doc_id, lang, source, n_tokens,
       ((cum - n_tokens) // 256)::BIGINT AS seq_id
FROM packed ORDER BY doc_id
"""


def doc_top_bigram(sf_dir: str):
    """Gopher repetition signal: each doc's most frequent word bigram
    and its share of bigram positions. Doc-local, zero shuffle."""
    from ..stages.curation import top_bigram_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(top_bigram_batch, batch_format="pyarrow")


TOP_BIGRAM_SQL = """
WITH w AS (SELECT doc_id, str_split(text, ' ') AS w FROM documents
           WHERE coalesce(text, '') <> ''
             AND length(str_split(text, ' ')) >= 2),
bi AS (SELECT doc_id, array_to_string(w[i:i+1], ' ') AS g
       FROM (SELECT doc_id, w,
                    unnest(generate_series(1, length(w) - 1)) AS i FROM w)),
c AS (SELECT doc_id, g, count(*) AS n FROM bi GROUP BY doc_id, g),
tot AS (SELECT doc_id, sum(n) AS t FROM c GROUP BY doc_id),
top AS (SELECT doc_id, g, n,
               row_number() OVER (PARTITION BY doc_id
                                  ORDER BY n DESC, g) AS rk FROM c)
SELECT top.doc_id, top.g AS top_bigram, top.n::BIGINT AS top_n,
       top.n::DOUBLE / tot.t AS bigram_fraction
FROM top JOIN tot USING (doc_id) WHERE rk = 1
"""


def dsir_doc_weights(sf_dir: str):
    """DSIR importance weights (Xie et al. 2023): word unigram+bigram
    feature distributions estimated for the target slice (doc_id % 97
    == 0) vs the raw rest — ONE payload-free (feature, partials)
    shuffle — then the smoothed log-ratio table is broadcast and every
    doc sums its features' ratios. The paper's hashed-bucket variant
    only changes the feature key, not the pipeline shape."""
    import ray

    from ..stages.curation import dsir_log_ratios, dsir_weights

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    ratios = dsir_log_ratios(ds, target_expr=lambda ids: (ids % 97) == 0)
    ref = ray.put(ratios)
    return dsir_weights(ds, ref)


DSIR_SQL = """
WITH w AS (SELECT doc_id, str_split(text, ' ') AS w,
                  (doc_id % 97 = 0) AS is_t
           FROM documents WHERE coalesce(text, '') <> ''),
uni AS (SELECT doc_id, is_t, unnest(w) AS f FROM w),
bi AS (SELECT doc_id, is_t, array_to_string(w[i:i+1], ' ') AS f
       FROM (SELECT doc_id, is_t, w,
                    unnest(generate_series(1, length(w) - 1)) AS i
             FROM w WHERE length(w) >= 2)),
feats AS (SELECT * FROM uni UNION ALL SELECT * FROM bi),
counts AS (SELECT f,
                  sum(CASE WHEN is_t THEN 1 ELSE 0 END) AS nt,
                  sum(CASE WHEN is_t THEN 0 ELSE 1 END) AS nr
           FROM feats GROUP BY f),
tot AS (SELECT count(*) AS v, sum(nt) AS st, sum(nr) AS sr FROM counts),
ratio AS (SELECT f, ln((nt + 1)::DOUBLE / (st + v))
                    - ln((nr + 1)::DOUBLE / (sr + v)) AS r
          FROM counts, tot),
per_doc AS (SELECT feats.doc_id, sum(ratio.r) AS s
            FROM feats JOIN ratio USING (f) GROUP BY feats.doc_id)
SELECT d.doc_id, round(coalesce(per_doc.s, 0), 2) AS dsir_weight
FROM documents d LEFT JOIN per_doc USING (doc_id)
"""


def contaminated_docs(sf_dir: str):
    """Benchmark contamination check (GPT-3 appendix C style): word
    trigrams of the held-out 'benchmark' docs (doc_id % 97 == 0) are
    built distributed, collected (bounded by the benchmark, not the
    corpus), broadcast via ray.put; every candidate doc counts matching
    trigram positions."""
    import ray

    from ..stages.curation import benchmark_gram_set, contamination_stats

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def split(flag: bool):
        def fn(t: pa.Table) -> pa.Table:
            m = (t["doc_id"].to_numpy() % 97) == 0
            return t.filter(pa.array(m if flag else ~m))
        return fn

    bench = ds.map_batches(split(True), batch_format="pyarrow")
    cand = ds.map_batches(split(False), batch_format="pyarrow")
    grams = benchmark_gram_set(bench, n=3)
    ref = ray.put(grams)
    return contamination_stats(cand, ref, n=3)


CONTAMINATION_SQL = """
WITH bw AS (SELECT str_split(text, ' ') AS w FROM documents
            WHERE doc_id % 97 = 0 AND coalesce(text, '') <> ''),
bpos AS (SELECT w, unnest(generate_series(1, length(w) - 2)) AS i
         FROM bw WHERE length(w) >= 3),
bg AS (SELECT DISTINCT array_to_string(w[i:i+2], ' ') AS g FROM bpos),
cw AS (SELECT doc_id, str_split(text, ' ') AS w FROM documents
       WHERE doc_id % 97 <> 0 AND coalesce(text, '') <> ''),
cpos AS (SELECT doc_id, w, unnest(generate_series(1, length(w) - 2)) AS i
         FROM cw WHERE length(w) >= 3),
cg AS (SELECT doc_id, array_to_string(w[i:i+2], ' ') AS g FROM cpos)
SELECT cg.doc_id, count(bg.g)::BIGINT AS n_contam,
       (count(bg.g) > 0)::BIGINT AS contaminated
FROM cg LEFT JOIN bg ON cg.g = bg.g GROUP BY cg.doc_id
"""


def event_value_percentiles(sf_dir: str):
    """Exact interpolated per-group percentiles (SQL quantile_cont
    semantics, linear interpolation at rank (n-1)·q): holistic
    aggregate, so hash-bucketed shuffle co-locates each key's values,
    then ONE pandas grouped-quantile kernel per bucket."""
    from ..stages.groups import bucketed_group_apply

    ds = _read(sf_dir, "events", ["event_type", "value"])
    qs = [0.25, 0.50, 0.75, 0.90]

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        qt = (g.groupby("event_type", sort=False)["value"]
              .quantile(qs, interpolation="linear").unstack())
        out = pd.DataFrame({"event_type": qt.index.to_numpy()})
        for q in qs:
            out[f"p{int(q * 100)}"] = round2(qt[q].to_numpy())
        return out

    return bucketed_group_apply(ds, "event_type", per_bucket, num_buckets=8)


PERCENTILES_SQL = """
SELECT event_type,
       round(quantile_cont(value, 0.25), 2) AS p25,
       round(quantile_cont(value, 0.50), 2) AS p50,
       round(quantile_cont(value, 0.75), 2) AS p75,
       round(quantile_cont(value, 0.90), 2) AS p90
FROM events GROUP BY event_type
"""


def event_value_zscore(sf_dir: str):
    """Per-group z-score normalization (the window-function shape
    ``(x - avg() OVER w) / stddev_samp() OVER w``) WITHOUT a window
    sort or full shuffle: pass 1 reduces mergeable moments (n, Σx,
    Σx²) per group — the only exchanged bytes — pass 2 broadcasts the
    tiny (mean, std) table and normalizes each batch vectorized via
    one ``pc.index_in`` gather."""
    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])

    def moments(t: pa.Table) -> pa.Table:
        return pa.table({"event_type": t["event_type"], "s1": t["value"],
                         "s2": pc.multiply(t["value"], t["value"])})

    stats = grouped_partials(ds, "event_type", sums=["s1", "s2"], count="n",
                             prep=moments)
    n = stats["n"].to_numpy(dtype=np.float64)
    mean = stats["s1"].to_numpy() / n
    # sample variance from raw moments; n<2 → NULL (stddev_samp parity)
    var = np.where(n > 1, (stats["s2"].to_numpy() - n * mean * mean)
                   / np.maximum(n - 1, 1), np.nan)
    std = np.sqrt(np.maximum(var, 0.0))
    types = pa.array(stats["event_type"].tolist(), pa.string())

    def normalize(t: pa.Table) -> pa.Table:
        idx = pc.index_in(t["event_type"], value_set=types)\
            .to_numpy(zero_copy_only=False).astype(np.int64)
        v = t["value"].to_numpy(zero_copy_only=False)
        s = std[idx]
        z = np.where(s > 0, (v - mean[idx]) / np.where(s > 0, s, 1.0), np.nan)
        return pa.table({
            "event_id": t["event_id"],
            "event_type": t["event_type"],
            "zscore": pa.array(round2(z), pa.float64()),
        })

    return ds.map_batches(normalize, batch_format="pyarrow")


ZSCORE_SQL = """
SELECT event_id, event_type,
       round((value - avg(value) OVER w) / stddev_samp(value) OVER w, 2)
         AS zscore
FROM events WINDOW w AS (PARTITION BY event_type)
"""


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Stable 64-bit int mix (SplitMix64 finalizer) — bloom probe
    positions need high-entropy low bits, which raw sequential keys
    lack."""
    z = x.astype(np.uint64, copy=True)
    z += np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def bloom_prune_orders(sf_dir: str):
    """Bloom-pruned semi-join: the small side (BUILDING-segment
    customer keys) builds a 2^17-bit bloom + a sorted key array, both
    broadcast once via ``ray.put`` (~16 KB + keys, vs shipping the big
    side through a shuffle). Each orders batch drops definitely-absent
    custkeys with 3 bloom probes, then the surviving ~segment-share
    runs the exact ``np.searchsorted`` probe — false positives are
    removed, so the result is EXACTLY the semi-join and the oracle is
    plain SQL. At 100 TB the bloom is what keeps the exact probe's
    candidate set (and its memory) proportional to matches, not rows."""
    import ray

    from ..stages.sketches import bloom_add, bloom_contains

    M_BITS, K = 1 << 17, 3
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])

    def seg_keys(t: pa.Table) -> pa.Table:
        m = pc.equal(t["c_mktsegment"], pa.scalar("BUILDING"))
        return pa.table({"c_custkey": t.filter(m)["c_custkey"]})

    keys = np.sort(cust.map_batches(seg_keys, batch_format="pyarrow")
                   .to_pandas()["c_custkey"].to_numpy(dtype=np.int64))
    words = np.zeros(M_BITS // 64, np.uint64)
    bloom_add(words, _splitmix64(keys), m_bits=M_BITS, k=K)
    bcast = ray.put((words, keys))

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_totalprice"])

    def probe(t: pa.Table) -> pa.Table:
        w, ks = ray.get(bcast)
        ck = t["o_custkey"].to_numpy(zero_copy_only=False)
        maybe = bloom_contains(w, _splitmix64(ck), m_bits=M_BITS, k=K)
        t = t.filter(pa.array(maybe))
        ck = t["o_custkey"].to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(probe_sorted(ks, ck)[0]))
        return pa.table({
            "o_orderkey": t["o_orderkey"],
            "o_custkey": t["o_custkey"],
            "o_totalprice": pa.array(
                round2(t["o_totalprice"].to_numpy(zero_copy_only=False)),
                pa.float64()),
        })

    return orders.map_batches(probe, batch_format="pyarrow")


BLOOM_PRUNE_SQL = """
SELECT o_orderkey, o_custkey, round(o_totalprice, 2) AS o_totalprice
FROM orders
WHERE o_custkey IN
      (SELECT c_custkey FROM customer WHERE c_mktsegment = 'BUILDING')
"""


def _ensure_bucketed_store(sf_dir: str) -> tuple[str, str]:
    """Write orders + customer storage-bucketed by custkey ONCE per
    source version — the ingest-time shuffle that later bucket-local
    joins amortize. Cache keyed by ``_cache_dir`` over both source
    parquets, so regenerated testdata invalidates it (and distinct
    worker caches see a distinct small_dir path); the build lands via
    an atomic rename, so a racing second process either sees the
    finished store or re-builds in its own temp dir and loses the
    rename benignly."""
    import shutil

    from ..stages.joins import write_bucketed

    base = _cache_dir("bucketed", 1, os.path.join(sf_dir, "orders.parquet"),
                      os.path.join(sf_dir, "customer.parquet"))
    orders_dir = os.path.join(base, "orders")
    cust_dir = os.path.join(base, "customer")
    if not os.path.isdir(base):
        tmp = f"{base}.tmp.{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp, exist_ok=True)
        orders = _read(sf_dir, "orders",
                       ["o_orderkey", "o_custkey", "o_totalprice"])
        cust = _read(sf_dir, "customer", ["c_custkey", "c_name"])

        def rn_orders(t: pa.Table) -> pa.Table:
            return t.rename_columns(["o_orderkey", "custkey", "o_totalprice"])

        def rn_cust(t: pa.Table) -> pa.Table:
            return t.rename_columns(["custkey", "c_name"])

        write_bucketed(orders.map_batches(rn_orders, batch_format="pyarrow"),
                       "custkey", os.path.join(tmp, "orders"), num_buckets=8)
        write_bucketed(cust.map_batches(rn_cust, batch_format="pyarrow"),
                       "custkey", os.path.join(tmp, "customer"),
                       num_buckets=8)
        try:
            os.rename(tmp, base)
        except OSError:  # another process won the race
            shutil.rmtree(tmp, ignore_errors=True)
    return orders_dir, cust_dir


def bucketed_storage_join_orders(sf_dir: str):
    """Co-located bucket join (stages/joins.py::storage_bucketed_join):
    both tables were bucketed by hash(custkey) at WRITE time, so the
    join itself is a per-bucket local merge — zero query-time shuffle,
    the small side's bucket read once per worker. At 100 TB this is
    the pattern that makes repeated fact⋈dim joins affordable: the
    all-to-all is paid once at ingest, not per query."""
    from ..stages.joins import storage_bucketed_join

    orders_dir, cust_dir = _ensure_bucketed_store(sf_dir)
    out = storage_bucketed_join(
        orders_dir, cust_dir, "custkey", num_buckets=8,
        project=["o_orderkey", "custkey", "c_name", "o_totalprice"])

    def r2(t: pa.Table) -> pa.Table:
        return t.set_column(
            t.schema.get_field_index("o_totalprice"), "o_totalprice",
            pa.array(round2(t["o_totalprice"].to_numpy(zero_copy_only=False)),
                     pa.float64()))

    return out.map_batches(r2, batch_format="pyarrow")


BUCKETED_STORE_JOIN_SQL = """
SELECT o.o_orderkey, o.o_custkey AS custkey, c.c_name,
       round(o.o_totalprice, 2) AS o_totalprice
FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
"""


_PRUNED_DAYS = ("2024-01-05", "2024-01-06", "2024-01-07")


def _ensure_events_by_day(sf_dir: str) -> str:
    """Hive-partition the events table by calendar day ONCE per source
    (cache keyed by ``_cache_dir``), via a streaming Ray write with
    ``partition_cols`` — the ingest-time layout that lets every later
    time-ranged query read only its days' directories."""
    import shutil

    import ray.data as rd

    src = os.path.join(sf_dir, "events.parquet")
    out = _cache_dir("events_byday", 1, src)
    if os.path.exists(os.path.join(out, "_DONE")):
        return out

    def add_day(t: pa.Table) -> pa.Table:
        return t.append_column(
            "day", pc.strftime(t["ts"], format="%Y-%m-%d"))

    tmp = out + ".__tmp__"
    shutil.rmtree(tmp, ignore_errors=True)
    shutil.rmtree(out, ignore_errors=True)
    (rd.read_parquet(src)
     .map_batches(add_day, batch_format="pyarrow")
     .write_parquet(tmp, partition_cols=["day"]))
    os.replace(tmp, out)
    with open(os.path.join(out, "_DONE"), "w"):
        pass
    return out


def events_partition_pruned_counts(sf_dir: str):
    """Partition-PRUNED scan over day-partitioned storage: the query
    lists only the three wanted ``day=`` directories (plus the
    ``event_type`` column projection), so at 100 TB a 3-day query
    reads 3 days of files — never the month. The oracle replays the
    same day predicate over the unpartitioned table."""
    import glob

    import ray.data as rd

    part_dir = _ensure_events_by_day(sf_dir)
    paths = [f for d in _PRUNED_DAYS
             for f in sorted(glob.glob(
                 os.path.join(part_dir, f"day={d}", "*.parquet")))]
    if not paths:  # no events in the window at this sf
        return pd.DataFrame({"event_type": pd.Series([], dtype="object"),
                             "n_events": pd.Series([], dtype="int64")})
    return grouped_partials(rd.read_parquet(paths, columns=["event_type"]),
                            "event_type", count="n_events")


PARTITION_PRUNED_SQL = f"""
SELECT event_type, count(*)::BIGINT AS n_events
FROM events
WHERE strftime(ts, '%Y-%m-%d') IN {_PRUNED_DAYS!r}
GROUP BY event_type
"""


def doc_overlap_chunks(sf_dir: str):
    """RAG-style chunking: explode each doc into fixed-width
    token-window chunks with overlap (width 64, stride 48) — the
    flat_map doc→chunks shape every embedding/retrieval pipeline needs.
    Chunk boundaries are pure arithmetic over the doc's own token list
    (zero shuffle); the oracle replays the same windows via
    generate_series + list slicing."""
    from ..stages.curation import explode_token_chunks

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def explode(t: pa.Table) -> pa.Table:
        ids, idxs, ns, txts = explode_token_chunks(
            t["doc_id"].to_pylist(), t["text"].to_pylist())
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "chunk_idx": pa.array(idxs, pa.int64()),
            "n_tokens": pa.array(ns, pa.int64()),
            "chunk_text": pa.array(txts, pa.string()),
        })

    return ds.map_batches(explode, batch_format="pyarrow")


OVERLAP_CHUNKS_SQL = """
WITH w AS (SELECT doc_id, str_split(coalesce(text, ''), ' ') AS w
           FROM documents),
idx AS (SELECT doc_id, w,
               unnest(generate_series(0, greatest(len(w) - 1, 0), 48)) AS s
        FROM w)
SELECT doc_id,
       s // 48 AS chunk_idx,
       least(s + 64, len(w)) - s AS n_tokens,
       array_to_string(w[s + 1 : least(s + 64, len(w))], ' ') AS chunk_text
FROM idx
"""


def join_native_customer_orders(sf_dir: str):
    """Ray 2.49's NATIVE hash-shuffle ``Dataset.join`` (experimental) on
    the same shape as the hand-rolled strategies (stages/joins.py) —
    registered so the engine exercises the built-in operator too and a
    regression in either path surfaces as an oracle mismatch."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_name"])
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_totalprice"])
    j = orders.join(cust, "inner", 8, on=("o_custkey",),
                    right_on=("c_custkey",))

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": t["o_orderkey"],
            "o_custkey": t["o_custkey"],
            "c_name": t["c_name"],
            "o_totalprice": pa.array(
                round2(t["o_totalprice"].to_numpy(zero_copy_only=False)),
                pa.float64()),
        })

    return j.map_batches(finish, batch_format="pyarrow")


NATIVE_JOIN_SQL = """
SELECT o.o_orderkey, o.o_custkey, c.c_name,
       round(o.o_totalprice, 2) AS o_totalprice
FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
"""


def corpus_snapshot_diff(sf_dir: str):
    """Incremental-refresh CDC (stages/joins.py::snapshot_diff): diff
    two corpus snapshots by (key, md5-of-content). The new snapshot is
    derived deterministically in-pipeline (doc_id%13 removed, %7 text
    revised, %11 cloned under a new id), both sides reduce to
    payload-free (doc_id, md5) before the single bucketed exchange.
    Oracle replays the same derivation + FULL OUTER JOIN in SQL."""
    import hashlib

    from ..stages.joins import snapshot_diff

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def content_hash(t: pa.Table) -> pa.Table:
        hs = [hashlib.md5((s or "").encode()).hexdigest()
              for s in t["text"].to_pylist()]
        return pa.table({"doc_id": t["doc_id"],
                         "h": pa.array(hs, pa.string())})

    def new_version(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        texts = t["text"].to_pylist()
        out_ids: list[int] = []
        out_texts: list[str] = []
        for i, s in zip(ids.tolist(), texts):
            if i % 13 == 0:
                continue
            out_ids.append(i)
            out_texts.append((s or "") + " [rev2]" if i % 7 == 0 else (s or ""))
            if i % 11 == 0:
                out_ids.append(i + 1000000)
                out_texts.append(s or "")
        return pa.table({"doc_id": pa.array(out_ids, pa.int64()),
                         "text": pa.array(out_texts, pa.string())})

    old_h = ds.map_batches(content_hash, batch_format="pyarrow")
    new_h = (ds.map_batches(new_version, batch_format="pyarrow")
             .map_batches(content_hash, batch_format="pyarrow"))
    return snapshot_diff(old_h, new_h, key_col="doc_id")


SNAPSHOT_DIFF_SQL = """
WITH old AS (SELECT doc_id, md5(coalesce(text, '')) AS h FROM documents),
newv AS (
  SELECT doc_id,
         md5(CASE WHEN doc_id % 7 = 0
                  THEN coalesce(text, '') || ' [rev2]'
                  ELSE coalesce(text, '') END) AS h
  FROM documents WHERE doc_id % 13 <> 0
  UNION ALL
  SELECT doc_id + 1000000, md5(coalesce(text, ''))
  FROM documents WHERE doc_id % 13 <> 0 AND doc_id % 11 = 0
),
j AS (SELECT coalesce(o.doc_id, n.doc_id) AS doc_id,
             CASE WHEN o.doc_id IS NULL THEN 'added'
                  WHEN n.doc_id IS NULL THEN 'removed'
                  WHEN o.h <> n.h THEN 'changed'
                  ELSE 'same' END AS change
      FROM old o FULL OUTER JOIN newv n ON o.doc_id = n.doc_id)
SELECT doc_id, change FROM j WHERE change <> 'same'
"""


def quality_classifier_docs(sf_dir: str):
    """Model-based quality filter (stages/classifier.py): hashed-BoW +
    shape-feature logistic regression trained distributed on a doc_id%2
    hash-sample, then one streaming scoring pass over the FULL corpus —
    now fully ORACLE-CHECKED: md5 token buckets make the features
    engine-portable, the fixed-point int64 gradient quantization
    (classifier._grad_partials) is associative so DuckDB's sum order
    can't diverge, and _lr_train_sql unrolls the identical 15 GD steps
    (sigmoid via tanh, same lr/l2 float-op order) before scoring with
    round(p, 6). The siphash feature path stays the library default."""
    from ..stages.classifier import lr_score_dataset, lr_train

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    w, b, _ = lr_train(ds, dim=256, n_iters=15, train_mod=2,
                       token_hash="md5")
    return lr_score_dataset(ds, w, b, token_hash="md5")


def _lr_train_sql(dim: int = 256, n_iters: int = 15, train_mod: int = 2,
                  lr: float = 2.0, l2: float = 1e-4) -> str:
    """DuckDB unroll of lr_train(token_hash="md5") + lr_score_dataset:
    sparse (doc, j, v) features — md5-bucket normalized counts (f32-
    quantized for TRAINING exactly like classifier.featurize) plus the
    four dense shape features at j ≥ dim — roll through ``n_iters``
    full-batch GD steps with the shared fixed-point rule
    round(x·(err·2^40))::BIGINT, whose integer sums are associative, so
    both engines walk bit-comparable weights; the final pass scores ALL
    docs on the raw float64 features. Per-iteration CTEs MATERIALIZED
    (DuckDB re-expansion, see _pca_power_sql). DuckDB has no tanh, so
    the oracle computes the algebraically-equal 1/(1+exp(-z)) — the
    ~1e-16 disagreement with the engine's tanh form sits far inside
    the int64 quantization and the 6 dp score rounding."""
    S = "1099511627776.0"  # 2^40, classifier._SCALE
    head = f"""
WITH toks AS MATERIALIZED (
  SELECT doc_id,
         unnest(regexp_extract_all(lower(coalesce(text, '')),
                                   '[a-z0-9]+')) AS tok
  FROM documents),
tstat AS MATERIALIZED (
  SELECT doc_id, count(*)::BIGINT AS n,
         count(DISTINCT tok)::BIGINT AS nd,
         sum(length(tok))::BIGINT AS totlen
  FROM toks GROUP BY doc_id),
lab AS MATERIALIZED (
  SELECT d.doc_id,
         CASE WHEN t.n IS NULL THEN 0.0
              ELSE 0.6 * (t.nd::DOUBLE / t.n)
                   + 0.4 * least(t.n, 100) / 100.0 END AS score,
         t.n IS NOT NULL AS has_toks
  FROM documents d LEFT JOIN tstat t USING (doc_id)),
y AS MATERIALIZED (
  SELECT doc_id,
         CASE WHEN NOT has_toks THEN 0.0
              WHEN score >= 0.52 THEN 1.0 ELSE 0.0 END AS y,
         has_toks AND abs(score - 0.52) < 0.02 AS ambiguous
  FROM lab),
cnt AS MATERIALIZED (
  SELECT doc_id,
         ('0x' || substr(md5(tok), 1, 8))::UBIGINT % {dim} AS j,
         count(*)::DOUBLE AS c
  FROM toks GROUP BY doc_id, j),
hnorm AS (SELECT doc_id, sqrt(sum(c * c)) AS n FROM cnt GROUP BY doc_id),
xraw AS MATERIALIZED (
  SELECT c.doc_id, c.j::BIGINT AS j, c.c / h.n AS v
  FROM cnt c JOIN hnorm h USING (doc_id)
  UNION ALL
  SELECT doc_id, {dim}::BIGINT, nd::DOUBLE / n FROM tstat
  UNION ALL
  SELECT doc_id, {dim + 1}::BIGINT, least(n, 100) / 100.0 FROM tstat
  UNION ALL
  SELECT doc_id, {dim + 2}::BIGINT,
         least(totlen::DOUBLE / n / 10.0, 1.0) FROM tstat
  UNION ALL
  SELECT c.doc_id, {dim + 3}::BIGINT, sqrt(sum(c.c * c.c)) / sum(c.c)
  FROM (SELECT doc_id, tok, count(*)::DOUBLE AS c
        FROM toks GROUP BY doc_id, tok) c
  GROUP BY c.doc_id),
xt AS MATERIALIZED (
  SELECT x.doc_id, x.j, CAST(x.v AS REAL)::DOUBLE AS v
  FROM xraw x JOIN y USING (doc_id)
  WHERE x.doc_id % {train_mod} = 0 AND NOT y.ambiguous),
tdocs AS MATERIALIZED (
  SELECT doc_id, y.y FROM y
  WHERE doc_id % {train_mod} = 0 AND NOT ambiguous),
nn AS (SELECT count(*)::DOUBLE AS n FROM tdocs),
wd AS (SELECT unnest(generate_series(0, {dim + 3}))::BIGINT AS j),
w0 AS MATERIALIZED (SELECT j, 0.0 AS wv FROM wd),
b0 AS (SELECT 0.0 AS bv)"""
    parts = [head]
    for t in range(1, n_iters + 1):
        parts.append(f""",
z{t} AS MATERIALIZED (
  SELECT d.doc_id, d.y,
         coalesce(sum(x.v * w.wv), 0.0) + (SELECT bv FROM b{t - 1}) AS z
  FROM tdocs d
  LEFT JOIN xt x ON x.doc_id = d.doc_id
  LEFT JOIN w{t - 1} w ON w.j = x.j
  GROUP BY d.doc_id, d.y),
e{t} AS MATERIALIZED (
  SELECT doc_id, 1.0 / (1.0 + exp(-z)) - y AS err FROM z{t}),
g{t} AS MATERIALIZED (
  SELECT x.j,
         sum(CAST(round(x.v * (e.err * {S})) AS BIGINT)) AS g
  FROM xt x JOIN e{t} e USING (doc_id) GROUP BY x.j),
gb{t} AS (
  SELECT sum(CAST(round(err * {S}) AS BIGINT)) AS g FROM e{t}),
w{t} AS MATERIALIZED (
  SELECT w.j,
         w.wv - {lr} * ((coalesce(g.g, 0)::DOUBLE / {S})
                          / (SELECT n FROM nn)
                        + {l2} * w.wv) AS wv
  FROM w{t - 1} w LEFT JOIN g{t} g USING (j)),
b{t} AS (
  SELECT (SELECT bv FROM b{t - 1})
           - {lr} * (((SELECT g FROM gb{t})::DOUBLE / {S})
                       / (SELECT n FROM nn)) AS bv)""")
    parts.append(f""",
zs AS (
  SELECT d.doc_id,
         coalesce(sum(x.v * w.wv), 0.0)
           + (SELECT bv FROM b{n_iters}) AS z
  FROM documents d
  LEFT JOIN xraw x ON x.doc_id = d.doc_id
  LEFT JOIN w{n_iters} w ON w.j = x.j
  GROUP BY d.doc_id),
ps AS (SELECT doc_id, 1.0 / (1.0 + exp(-z)) AS p FROM zs)
SELECT doc_id, round(p, 6) AS prob,
       (p >= 0.5)::BIGINT AS pred
FROM ps
""")
    return "".join(parts)


def merge_into_events(sf_dir: str):
    """Distributed MERGE INTO (stages/cdc.py): apply a CDC change feed
    — updates, deletes, inserts tagged per row — to a base snapshot in
    ONE hash-bucketed exchange; per-bucket key resolution is vectorized
    pandas, nothing is materialized driver-side. Base = events with
    event_id%10<8; the feed (derived deterministically so the oracle
    replays it) deletes %13==0 keys, doubles matched values, inserts
    the %10>=8 tail — and carries no-op rows (unmatched deletes) the
    operator must ignore, per SQL MERGE semantics."""
    from ..stages.cdc import merge_into

    ev = _read(sf_dir, "events", ["event_id", "value"])

    def mk_base(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(eid % 10 < 8))
        return pa.table({"event_id": t["event_id"],
                         "value": pa.array(round2(t["value"].to_numpy()),
                                           pa.float64())})

    def mk_chg(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(eid % 3 == 0))
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        op = np.where(eid % 13 == 0, "D",
                      np.where(eid % 10 < 8, "U", "I"))
        return pa.table({
            "event_id": pa.array(eid, pa.int64()),
            "value": pa.array(round2(t["value"].to_numpy() * 2.0),
                              pa.float64()),
            "op": pa.array(op, pa.string()),
        })

    base = ev.map_batches(mk_base, batch_format="pyarrow")
    chg = ev.map_batches(mk_chg, batch_format="pyarrow")
    out = merge_into(base, chg, key="event_id").to_pandas()
    return out.sort_values("event_id").reset_index(drop=True)


MERGE_INTO_SQL = """
WITH base AS (
  SELECT event_id, round(value, 2) AS value
  FROM events WHERE event_id % 10 < 8),
chg AS (
  SELECT event_id,
         CASE WHEN event_id % 13 = 0 THEN 'D'
              WHEN event_id % 10 < 8 THEN 'U' ELSE 'I' END AS op,
         round(value * 2, 2) AS value
  FROM events WHERE event_id % 3 = 0),
kept AS (
  SELECT b.event_id, b.value FROM base b
  LEFT JOIN chg c ON b.event_id = c.event_id AND c.op IN ('U', 'D')
  WHERE c.event_id IS NULL),
upd AS (
  SELECT c.event_id, c.value FROM chg c
  JOIN base b ON b.event_id = c.event_id WHERE c.op = 'U'),
ins AS (
  SELECT c.event_id, c.value FROM chg c
  LEFT JOIN base b ON b.event_id = c.event_id
  WHERE c.op = 'I' AND b.event_id IS NULL)
SELECT event_id, value FROM kept
UNION ALL SELECT event_id, value FROM upd
UNION ALL SELECT event_id, value FROM ins
"""


def url_blocklist_filter(sf_dir: str):
    """robots.txt-style URL filtering (stages/urls.BlocklistFilter):
    a broadcast disallow list of (host, path_prefix) rules flags pages
    in one stateless vectorized pass — the crawl-ingest gate that runs
    BEFORE extraction so disallowed payloads never enter the pipeline.
    Rules are preprocessed once per actor (``__init__``), matching is
    one ``startswith`` pass per rule over only that host's rows; the
    aggregate moves two small columns. URLs are synthesized
    deterministically from doc_id (testdata has no URL column; the
    oracle builds identical strings)."""
    from ..stages.urls import BlocklistFilter

    RULES = [("host1.example.com", "/p3"),
             ("host2.example.com", "/"),
             ("host4.example.com", "/p7/q2"),
             ("host5.example.com", "/p2"),
             ("host5.example.com", "/p6"),
             ("absent.example.com", "/")]

    def mk(b: pd.DataFrame) -> pd.DataFrame:
        d = b["doc_id"]
        return pd.DataFrame({
            "host": "host" + (d % 7).astype(str) + ".example.com",
            "path": "/p" + (d % 11).astype(str) + "/q" + (d % 5).astype(str),
        })

    docs = _read(sf_dir, "documents", ["doc_id"])
    flt = BlocklistFilter(RULES)
    out = grouped_partials(
        docs.map_batches(lambda b: arrow_out(mk(b)), batch_format="pandas")
        .map_batches(flt, batch_format="pyarrow"), "host",
        sums=["n_blocked"], count="n_pages",
        prep=lambda t: pa.table({"host": t["host"], "n_blocked": pc.cast(
            t["blocked"], pa.int64())}))
    out["n_allowed"] = out["n_pages"] - out["n_blocked"]
    return out


URL_BLOCKLIST_SQL = """
WITH u AS (
  SELECT 'host' || (doc_id % 7)::VARCHAR || '.example.com' AS host,
         '/p' || (doc_id % 11)::VARCHAR || '/q' || (doc_id % 5)::VARCHAR
           AS path
  FROM documents),
r(rhost, pre) AS (VALUES
  ('host1.example.com', '/p3'), ('host2.example.com', '/'),
  ('host4.example.com', '/p7/q2'), ('host5.example.com', '/p2'),
  ('host5.example.com', '/p6'), ('absent.example.com', '/')),
f AS (
  SELECT host,
         EXISTS (SELECT 1 FROM r
                 WHERE r.rhost = u.host AND starts_with(u.path, r.pre))
           AS blocked
  FROM u)
SELECT host,
       count(*)                                           AS n_pages,
       sum(CASE WHEN blocked THEN 1 ELSE 0 END)::BIGINT   AS n_blocked,
       (count(*) - sum(CASE WHEN blocked THEN 1 ELSE 0 END))::BIGINT
         AS n_allowed
FROM f GROUP BY host
"""


def event_type_trend(sf_dir: str):
    """Per-group OLS regression (value vs day) with MERGEABLE partials:
    each batch contributes (n, Σx, Σy, Σxy, Σx²) per event_type — five
    scalars per group ride the shuffle, never the rows — and the
    closed-form slope/intercept is computed on the tiny grouped result.
    x is centered (epoch day − 19723) so the n·Σx² − (Σx)² cancellation
    keeps full precision; the oracle replays the identical raw-moment
    formula (DuckDB's regr_slope uses a different single-pass update
    order, so the formula — not the builtin — is the contract)."""
    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def moments(t: pa.Table) -> pa.Table:
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        x = np.floor((us / 1e6) / 86400.0) - 19723.0
        y = t["value"].to_numpy(zero_copy_only=False)
        return pa.table({
            "event_type": t["event_type"],
            "sx": pa.array(x, pa.float64()),
            "sy": pa.array(y, pa.float64()),
            "sxy": pa.array(x * y, pa.float64()),
            "sx2": pa.array(x * x, pa.float64()),
        })

    g = grouped_partials(ds, "event_type", sums=["sx", "sy", "sxy", "sx2"],
                         count="n", prep=moments)
    n = g["n"].astype("float64")
    denom = n * g["sx2"] - g["sx"] ** 2
    slope = (n * g["sxy"] - g["sx"] * g["sy"]) / denom
    intercept = (g["sy"] - slope * g["sx"]) / n
    return pd.DataFrame({
        "event_type": g["event_type"],
        "n": g["n"],
        "slope": round6(slope),
        "intercept": round6(intercept),
    })


EVENT_TYPE_TREND_SQL = """
WITH m AS (
  SELECT event_type,
         floor(epoch(ts) / 86400.0) - 19723 AS x,
         value AS y
  FROM events),
g AS (
  SELECT event_type, count(*)::BIGINT AS n,
         sum(x) AS sx, sum(y) AS sy, sum(x * y) AS sxy, sum(x * x) AS sx2
  FROM m GROUP BY event_type)
SELECT event_type, n,
       round((n * sxy - sx * sy) / (n * sx2 - sx * sx), 6) AS slope,
       round((sy - ((n * sxy - sx * sy) / (n * sx2 - sx * sx)) * sx) / n, 6)
         AS intercept
FROM g
"""


def bloom_point_lookup_events(sf_dir: str):
    """Point lookup through a file-level Bloom index
    (stages/fileindex.py) on a RANDOM layout — the case zone maps and
    Z-order cannot prune: events are shuffled then written as 16 files
    (every file spans the full key range), a per-file Bloom sidecar is
    built in one bucketed-by-file pass, and the 4-key lookup opens only
    maybe-files (~4/16; false negatives impossible, pytest asserts real
    pruning). One key is absent — the filter proves absence without
    touching data."""
    from ..stages.fileindex import bloom_point_lookup, build_bloom_index

    def build(out_dir: str) -> None:
        (_read(sf_dir, "events", ["event_id", "user_id", "value"])
         .random_shuffle(seed=7).repartition(16).write_parquet(out_dir))
        build_bloom_index(out_dir, "event_id")

    out_dir = _build_once(
        _cache_dir("events_bloom", 2, os.path.join(sf_dir, "events.parquet")),
        build)

    keys = [11, 404, 777, 1_000_000_000]
    ds = bloom_point_lookup(out_dir, "event_id", keys)
    if ds is None:
        return pd.DataFrame({"event_id": pd.Series([], dtype="int64"),
                             "user_id": pd.Series([], dtype="int64"),
                             "value": pd.Series([], dtype="float64")})
    out = ds.to_pandas()
    out["event_id"] = out["event_id"].astype("int64")
    out["user_id"] = out["user_id"].astype("int64")
    out["value"] = round2(out["value"])
    return out.sort_values("event_id").reset_index(drop=True)


BLOOM_POINT_LOOKUP_SQL = """
SELECT event_id, user_id, round(value, 2) AS value
FROM events WHERE event_id IN (11, 404, 777, 1000000000)
"""


def host_boilerplate_strip(sf_dir: str):
    """Per-host boilerplate-line removal (CCNet/onion-style, but scoped
    to the host — nav bars repeat within a SITE, not across the
    corpus): lines appearing in ≥50% of a host's pages are detected
    with one (host, line) grouped count, filtered to the tiny
    boilerplate set IN-CLUSTER against broadcast host totals, and
    stripped in a second pass whose per-batch (doc, chars, lines) sums
    the driver merges — no second exchange. Pages are synthesized as
    host-nav line (every page) + promo line (every 3rd page) + doc
    text, so detection must keep the 100%-frequency nav, keep the
    33%-frequency promo, and never touch unique text. Output: cleaned
    char count per doc (join-by-newline length semantics, replayed
    exactly in SQL)."""
    from ray.data.aggregate import Count

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def mk(b: pd.DataFrame) -> pd.DataFrame:
        d = b["doc_id"]
        h = "host" + (d % 7).astype(str) + ".example.com"
        nav = "Home | About | " + h + " portal"
        promo = np.where(d % 3 == 0, "Subscribe to " + h + " news\n", "")
        return pd.DataFrame({
            "doc_id": d, "host": h,
            "page": nav + "\n" + promo + b["text"].fillna(""),
        })

    def explode(b: pd.DataFrame) -> pa.Table:
        split = b["page"].str.split("\n")
        lens = split.str.len()
        return arrow_out(pd.DataFrame({
            "doc_id": b["doc_id"].repeat(lens).to_numpy(),
            "host": b["host"].repeat(lens).to_numpy(),
            "line": np.concatenate(split.to_numpy()),
        }))

    pages = docs.map_batches(lambda b: arrow_out(mk(b)),
                             batch_format="pandas")
    # pin the explode once: detection AND strip consume it, and the
    # object store spills oversized pins to disk — recomputing the
    # read+synth+explode per pass costs more than the spill at scale
    lines = pages.map_batches(explode, batch_format="pandas") \
        .materialize()

    # host totals (7 rows); the corpus-sized (host, line) counts never
    # reach the driver

    tot = grouped_partials(pages, "host", count="n_docs")
    totals = dict(zip(tot["host"], tot["n_docs"]))
    hl = lines.groupby(["host", "line"]).aggregate(Count(alias_name="n"))

    def keep_boiler(t: pa.Table) -> pa.Table:
        host = t["host"].to_pylist()
        n = t["n"].to_numpy(zero_copy_only=False)
        need = np.array([0.5 * totals[h] for h in host])
        return t.filter(pa.array(n >= need)).select(["host", "line"])

    bp = hl.map_batches(keep_boiler, batch_format="pyarrow").to_pandas()
    # lines hold no "\n" (they were split on it): an unambiguous joiner
    bp_keys = pa.array(bp["host"] + "\n" + bp["line"], pa.string())

    # per-batch (doc_id, chars, lines) sums of the kept lines: integer
    # partials merge exactly on the driver whatever the batch cuts
    def strip(t: pa.Table) -> pa.Table:
        key = pc.binary_join_element_wise(t["host"], t["line"], "\n")
        kept = t.filter(pc.invert(pc.is_in(key, value_set=bp_keys)))
        return pa.table({"doc_id": kept["doc_id"],
                         "s": pc.utf8_length(kept["line"])})

    per_doc = grouped_partials(lines, "doc_id", sums=["s"], count="c",
                               prep=strip)
    per_doc["n_chars_clean"] = (per_doc["s"] + per_doc["c"] - 1) \
        .astype("int64")
    all_docs = docs.select_columns(["doc_id"]).to_pandas()
    out = all_docs.merge(per_doc[["doc_id", "n_chars_clean"]],
                         on="doc_id", how="left")
    out["n_chars_clean"] = out["n_chars_clean"].fillna(0).astype("int64")
    out["doc_id"] = out["doc_id"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


HOST_BOILERPLATE_SQL = """
WITH p AS (
  SELECT doc_id,
         'host' || (doc_id % 7)::VARCHAR || '.example.com' AS host,
         'Home | About | host' || (doc_id % 7)::VARCHAR
           || '.example.com portal' || chr(10)
           || CASE WHEN doc_id % 3 = 0
                   THEN 'Subscribe to host' || (doc_id % 7)::VARCHAR
                        || '.example.com news' || chr(10)
                   ELSE '' END
           || coalesce(text, '') AS page
  FROM documents),
l AS (
  SELECT doc_id, host, unnest(string_split(page, chr(10))) AS line
  FROM p),
hd AS (SELECT host, count(*) AS nd FROM p GROUP BY host),
bp AS (
  SELECT hl.host, hl.line
  FROM (SELECT host, line, count(*) AS n FROM l GROUP BY host, line) hl
  JOIN hd ON hd.host = hl.host
  WHERE hl.n >= 0.5 * hd.nd),
kept AS (
  SELECT l.doc_id, length(l.line) AS line_len
  FROM l LEFT JOIN bp ON bp.host = l.host AND bp.line = l.line
  WHERE bp.line IS NULL),
agg AS (
  SELECT doc_id, sum(line_len)::BIGINT + count(*)::BIGINT - 1
           AS n_chars_clean
  FROM kept GROUP BY doc_id)
SELECT p.doc_id, coalesce(agg.n_chars_clean, 0) AS n_chars_clean
FROM p LEFT JOIN agg ON agg.doc_id = p.doc_id
"""


def maintenance_window_events(sf_dir: str):
    """Variable-width interval overlap join
    (stages/joins.interval_count_join): per maintenance window
    [ts, ts + 1..5 h] — one per every-50th event, widths varying by
    row — the count of ALL events inside it. Points shuffle once to
    their time bucket, each interval replicates only to the buckets it
    overlaps, per-bucket sorted ``searchsorted`` answers every window,
    partial counts Sum by window id. Generalizes the fixed-band range
    join to per-row interval lengths; zero-match windows are kept."""
    from ..stages.joins import interval_count_join

    ev = _read(sf_dir, "events", ["event_id", "ts"])

    def mk_intervals(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        m = eid % 50 == 0
        t = t.filter(pa.array(m))
        eid = eid[m]
        lo = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        hi = lo + (1 + eid % 5) * 3_600_000_000
        return pa.table({"window_id": pa.array(eid, pa.int64()),
                         "lo": pa.array(lo, pa.int64()),
                         "hi": pa.array(hi, pa.int64())})

    intervals = ev.map_batches(mk_intervals, batch_format="pyarrow")
    out = interval_count_join(
        intervals, ev, id_col="window_id", lo_col="lo", hi_col="hi",
        ts_col="ts", bucket_us=6 * 3_600_000_000, out_col="n_events",
    ).to_pandas()
    out["window_id"] = out["window_id"].astype("int64")
    out["n_events"] = out["n_events"].astype("int64")
    return out.sort_values("window_id").reset_index(drop=True)


MAINTENANCE_WINDOW_SQL = """
WITH w AS (
  SELECT event_id AS window_id, ts AS lo,
         ts + to_hours(1 + (event_id % 5)) AS hi
  FROM events WHERE event_id % 50 = 0)
SELECT w.window_id, count(e.ts)::BIGINT AS n_events
FROM w LEFT JOIN events e ON e.ts >= w.lo AND e.ts <= w.hi
GROUP BY w.window_id
"""


def events_lsm_compact(sf_dir: str):
    """LSM sorted-run ingest + range compaction (stages/lsm.py): events
    arrive as 4 ingest waves (event_id%4), each written as its own
    ts-sorted run — no global re-sort per wave — then compact() merges
    all runs into 8 key-disjoint sorted files using exact-quantile
    splitters (distributed refinement; R−1 scalars broadcast) and one
    per-range worker-side write. Output = the level manifest's
    per-range stats; the oracle replays the identical quantile_disc
    splitters and strictly-less range rule in SQL. Zone-map pruning on
    the compacted level is pytest-asserted."""
    import shutil

    from ..stages.lsm import compact, write_run

    base = _cache_dir("events_lsm", 1, os.path.join(sf_dir, "events.parquet"))
    runs_dir = os.path.join(base, "runs")
    level_dir = os.path.join(base, "level0")

    def build(_: str) -> None:
        os.makedirs(runs_dir)

        def keyed(t: pa.Table, wave: int) -> pa.Table:
            eid = t["event_id"].to_numpy(zero_copy_only=False)
            t = t.filter(pa.array(eid % 4 == wave))
            return pa.table({
                "event_id": t["event_id"],
                "key": t["ts"].cast(pa.int64()),
                "value": t["value"],
            })

        for wave in range(4):
            ev = _read(sf_dir, "events", ["event_id", "ts", "value"])
            write_run(ev.map_batches(keyed, fn_kwargs={"wave": wave},
                                     batch_format="pyarrow"),
                      "key", runs_dir, wave)

    _build_once(base, build)
    shutil.rmtree(level_dir, ignore_errors=True)
    return compact(runs_dir, "key", level_dir, num_ranges=8)


EVENTS_LSM_SQL = """
WITH k AS (SELECT epoch_us(ts) AS key FROM events),
s AS (
  SELECT unnest(quantile_disc(key, [0.125, 0.25, 0.375, 0.5, 0.625,
                                    0.75, 0.875])) AS v
  FROM k),
r AS (
  SELECT key,
         (SELECT count(*) FROM s WHERE s.v < k.key) AS range_idx
  FROM k)
SELECT range_idx, count(*)::BIGINT AS n,
       min(key) AS min_key, max(key) AS max_key
FROM r GROUP BY range_idx
"""


def data_quality_audit(sf_dir: str):
    """Deequ-style constraint audit (stages/audit.py) — the ingest
    gate a corpus wave passes before acceptance: not-null and range
    rules count violations in one streaming pass (mergeable partials,
    no shuffle), uniqueness reduces per-key counts over the key column
    only, and the FK rule probes a broadcast sorted key set per batch
    (semi-anti-join with zero shuffle). Output is one tiny row per
    rule regardless of corpus size."""
    from ..stages.audit import run_audit

    rules = [
        {"rule": "events_event_type_not_null", "kind": "not_null",
         "ds": _read(sf_dir, "events", ["event_type"]),
         "col": "event_type"},
        {"rule": "lineitem_quantity_in_1_50", "kind": "in_range",
         "ds": _lineitem(sf_dir, ["l_quantity"]),
         "col": "l_quantity", "lo": 1, "hi": 50},
        {"rule": "events_event_id_unique", "kind": "unique",
         "ds": _read(sf_dir, "events", ["event_id"]),
         "col": "event_id"},
        {"rule": "orders_custkey_fk_customer", "kind": "foreign_key",
         "ds": _read(sf_dir, "orders", ["o_custkey"]), "col": "o_custkey",
         "ref_ds": _read(sf_dir, "customer", ["c_custkey"]),
         "ref_col": "c_custkey"},
    ]
    return run_audit(rules)


DATA_QUALITY_AUDIT_SQL = """
SELECT 'events_event_id_unique' AS rule,
       (SELECT count(*) FROM events)::BIGINT AS n_rows,
       ((SELECT count(*) FROM events)
        - (SELECT count(DISTINCT event_id) FROM events))::BIGINT
         AS n_violations
UNION ALL
SELECT 'events_event_type_not_null',
       (SELECT count(*) FROM events)::BIGINT,
       (SELECT count(*) FROM events WHERE event_type IS NULL)::BIGINT
UNION ALL
SELECT 'lineitem_quantity_in_1_50',
       (SELECT count(*) FROM lineitem)::BIGINT,
       (SELECT count(*) FROM lineitem
        WHERE l_quantity IS NULL
           OR l_quantity < 1 OR l_quantity > 50)::BIGINT
UNION ALL
SELECT 'orders_custkey_fk_customer',
       (SELECT count(*) FROM orders)::BIGINT,
       (SELECT count(*) FROM orders
        WHERE o_custkey NOT IN (SELECT c_custkey FROM customer))::BIGINT
"""


# UTF-8-read-as-Latin-1 signature: 'Ã' (U+00C3) followed by a
# continuation-byte codepoint U+0080–U+00BF — the two-char shadow every
# mis-decoded Latin-accent character leaves ('café' → 'cafÃ©').
_MOJIBAKE_RE_PY = "\u00c3[\u0080-\u00bf]"


def mojibake_docs(sf_dir: str):
    """Encoding-damage (mojibake) detection — the double-decode scars a
    crawl picks up when UTF-8 bytes are read as Latin-1 (ftfy's core
    signal). A compiled-regex vectorized count per doc; damaged text is
    synthesized deterministically (every 4th doc gets the mis-decoded
    suffix, others the clean one) so the oracle replays construction
    AND detection with the same RE2 class. Stateless map — no shuffle;
    at crawl scale this runs fused into the extraction pass."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def score(b: pd.DataFrame) -> pa.Table:
        d = b["doc_id"]
        bad = " caffÃ© crÃ¨me naÃ¯ve"
        good = " caffé crème naïve"
        page = b["text"].fillna("") + np.where(d % 4 == 0, bad, good)
        n = page.str.count(_MOJIBAKE_RE_PY).astype("int64")
        return arrow_out(pd.DataFrame({
            "doc_id": d.astype("int64"),
            "n_mojibake": n,
            "damaged": (n > 0),
        }))

    return (docs.map_batches(score, batch_format="pandas")
            .to_pandas().sort_values("doc_id").reset_index(drop=True))


MOJIBAKE_SQL = r"""
WITH p AS (
  SELECT doc_id,
         coalesce(text, '') ||
         CASE WHEN doc_id % 4 = 0
              THEN ' caff' || chr(195) || chr(169) || ' cr'
                   || chr(195) || chr(168) || 'me na'
                   || chr(195) || chr(175) || 've'
              ELSE ' caff' || chr(233) || ' cr' || chr(232)
                   || 'me na' || chr(239) || 've' END AS page
  FROM documents)
SELECT doc_id,
       len(regexp_extract_all(page, 'Ã[\x80-\xBF]'))::BIGINT
         AS n_mojibake,
       len(regexp_extract_all(page, 'Ã[\x80-\xBF]')) > 0 AS damaged
FROM p
"""


def orders_grouping_sets(sf_dir: str):
    """GROUP BY GROUPING SETS ((year), (priority), (year, priority),
    ()) with GROUPING() indicator columns — the arbitrary-sets OLAP
    shape rollup/cube don't express (rollup drops suffixes, cube is
    every subset; sets here are hand-picked). One distributed
    aggregate at the finest grain; every set re-sums from that tiny
    grouped frame, and g_year/g_pri disambiguate a genuine NULL key
    from a grouped-out column exactly as SQL's GROUPING() does."""
    ds = _read(sf_dir, "orders", ["o_orderdate", "o_orderpriority",
                                  "o_totalprice"])

    def prep(t: pa.Table) -> pa.Table:
        yr = pc.year(t["o_orderdate"])
        return pa.table({"o_year": pc.cast(yr, pa.int64()),
                         "o_orderpriority": t["o_orderpriority"],
                         "total": t["o_totalprice"]})

    fine = grouped_partials(ds, ["o_year", "o_orderpriority"],
                            sums=["total"], count="n", prep=prep)

    def level(df, keys):
        if keys:
            g = df.groupby(keys, as_index=False).agg(
                n=("n", "sum"), total=("total", "sum"))
        else:
            g = pd.DataFrame({"n": [int(df["n"].sum())],
                              "total": [float(df["total"].sum())]})
        for c in ("o_year", "o_orderpriority"):
            if c not in g.columns:
                g[c] = None
        g["g_year"] = int("o_year" not in keys)
        g["g_pri"] = int("o_orderpriority" not in keys)
        return g

    out = pd.concat([level(fine, ["o_year"]),
                     level(fine, ["o_orderpriority"]),
                     level(fine, ["o_year", "o_orderpriority"]),
                     level(fine, [])], ignore_index=True)
    out["n"] = out["n"].astype("int64")
    out["total"] = round2(out["total"])
    out["g_year"] = out["g_year"].astype("int64")
    out["g_pri"] = out["g_pri"].astype("int64")
    # float64, not nullable Int64: the NULLs in super-aggregate rows
    # make DuckDB hand the column back as float, and the value-hash
    # compares dtype-faithful representations
    out["o_year"] = out["o_year"].astype("float64")
    return (out[["o_year", "o_orderpriority", "g_year", "g_pri", "n",
                 "total"]]
            .sort_values(["g_year", "g_pri", "o_year", "o_orderpriority"],
                         na_position="first")
            .reset_index(drop=True))


GROUPING_SETS_SQL = """
SELECT year(o_orderdate)::BIGINT AS o_year, o_orderpriority,
       grouping(year(o_orderdate))::BIGINT AS g_year,
       grouping(o_orderpriority)::BIGINT AS g_pri,
       count(*)::BIGINT AS n,
       round(sum(o_totalprice), 2) AS total
FROM orders
GROUP BY GROUPING SETS ((year(o_orderdate)), (o_orderpriority),
                        (year(o_orderdate), o_orderpriority), ())
"""


def asof_next_purchase(sf_dir: str):
    """FORWARD as-of join with tolerance (stages/joins.asof_join,
    direction='forward'): for each view event, the value of the same
    user's EARLIEST purchase within the next 24 h (absent → NaN) —
    the attribution-window lookup, mirror-image of the backward
    asof_prev_view. Same one-bucket-shuffle shape; the tolerance makes
    an out-of-window match count as no match."""
    from ..stages.joins import asof_join

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts",
                                  "event_type", "value"])

    def views(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["event_type"], "view"))
        return t.select(["event_id", "user_id", "ts"])

    def purchases(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["event_type"], "purchase"))
        return pa.table({
            "user_id": t["user_id"], "ts": t["ts"],
            "next_value": pa.array(round2(t["value"].to_numpy()),
                                   pa.float64()),
        })

    out = asof_join(
        ev.map_batches(views, batch_format="pyarrow"),
        ev.map_batches(purchases, batch_format="pyarrow"),
        key="user_id", left_ts="ts", right_ts="ts",
        value_cols=["next_value"], direction="forward",
        tolerance=pd.Timedelta(hours=24),
    ).to_pandas()
    return (out[["event_id", "next_value"]]
            .sort_values("event_id").reset_index(drop=True))


ASOF_NEXT_SQL = """
WITH v AS (
  SELECT event_id, user_id, ts FROM events WHERE event_type = 'view'),
p AS (
  SELECT user_id, ts, round(value, 2) AS value
  FROM events WHERE event_type = 'purchase')
SELECT v.event_id,
       (SELECT p.value FROM p
        WHERE p.user_id = v.user_id
          AND p.ts >= v.ts AND p.ts <= v.ts + INTERVAL 24 HOUR
        ORDER BY p.ts LIMIT 1) AS next_value
FROM v
"""


_STOPWORDS = {
    "en": ["the", "and", "of", "to", "in", "is", "that", "with"],
    "de": ["der", "die", "und", "das", "ist", "mit", "von", "nicht"],
    "fr": ["le", "la", "et", "les", "des", "est", "dans", "pour"],
}


def stopword_lang_scores(sf_dir: str):
    """Stopword-fraction language scoring (CCNet's cheap lang signal,
    here with a FULL value oracle — the n-gram ``langid_docs`` stays
    rows-only): per doc, the count of tokens hitting each language's
    broadcast stopword list and the argmax language with a
    deterministic (count desc, lang asc) tie rule. One vectorized
    isin pass per language over the token explode; no shuffle — the
    output is per-doc, computed where the doc already is."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    sets = {k: frozenset(v) for k, v in _STOPWORDS.items()}

    def score(b: pd.DataFrame) -> pa.Table:
        toks = b["text"].fillna("").str.lower().str.split(" ")
        out = {"doc_id": b["doc_id"].astype("int64")}
        flat = toks.explode()
        flat = flat[flat.notna() & (flat != "")]
        counts = {}
        for lang, sw in sets.items():
            hit = flat[flat.isin(sw)].groupby(level=0).size()
            counts[lang] = hit.reindex(b.index, fill_value=0) \
                .astype("int64").to_numpy()
            out[f"n_{lang}"] = counts[lang]
        mat = np.stack([counts[k] for k in sorted(sets)], axis=1)
        best = np.argmax(mat, axis=1)  # ties → lowest index = lang asc
        langs = np.array(sorted(sets))
        out["top_lang"] = np.where(mat.max(axis=1) > 0, langs[best], "und")
        return arrow_out(pd.DataFrame(out))

    return (docs.map_batches(score, batch_format="pandas")
            .to_pandas().sort_values("doc_id").reset_index(drop=True))


STOPWORD_LANG_SQL = """
WITH t AS (
  SELECT doc_id,
         unnest(string_split(lower(coalesce(text, '')), ' ')) AS tok
  FROM documents),
c AS (
  SELECT d.doc_id,
         coalesce(sum(CASE WHEN tok IN ('the','and','of','to','in','is',
                                        'that','with')
                           THEN 1 ELSE 0 END), 0)::BIGINT AS n_en,
         coalesce(sum(CASE WHEN tok IN ('der','die','und','das','ist',
                                        'mit','von','nicht')
                           THEN 1 ELSE 0 END), 0)::BIGINT AS n_de,
         coalesce(sum(CASE WHEN tok IN ('le','la','et','les','des','est',
                                        'dans','pour')
                           THEN 1 ELSE 0 END), 0)::BIGINT AS n_fr
  FROM documents d
  LEFT JOIN t ON t.doc_id = d.doc_id AND tok <> ''
  GROUP BY d.doc_id)
SELECT doc_id, n_en, n_de, n_fr,
       CASE WHEN greatest(n_en, n_de, n_fr) = 0 THEN 'und'
            WHEN n_de >= n_en AND n_de >= n_fr THEN 'de'
            WHEN n_en >= n_fr THEN 'en'
            ELSE 'fr' END AS top_lang
FROM c
"""


def view_to_purchase_latency(sf_dir: str):
    """Conversion-latency distribution: forward as-of join (each view
    → same user's next purchase ≤24 h) feeding the exact distributed
    quantile refinement — converted count plus p50/p90 seconds-to-
    convert, one row out. Composes two registered operators end to
    end; the oracle replays the correlated lookup and quantile_disc."""
    import ray.data as rd

    from ..stages.joins import asof_join
    from ..stages.quantiles import exact_quantiles

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts",
                                  "event_type"])

    def views(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["event_type"], "view"))
        return t.select(["event_id", "user_id", "ts"])

    def purchases(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["event_type"], "purchase"))
        return pa.table({"user_id": t["user_id"], "ts": t["ts"],
                         "pts": t["ts"]})

    joined = asof_join(
        ev.map_batches(views, batch_format="pyarrow"),
        ev.map_batches(purchases, batch_format="pyarrow"),
        key="user_id", left_ts="ts", right_ts="ts", value_cols=["pts"],
        direction="forward", tolerance=pd.Timedelta(hours=24))

    def delta(t: pa.Table) -> pa.Table:
        d = (t["pts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
             - t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False))
        return pa.table({"delta_s": pa.array(d / 1e6, pa.float64())})

    conv = (joined
            .map_batches(lambda t: t.filter(pc.is_valid(t["pts"])),
                         batch_format="pyarrow")
            .map_batches(delta, batch_format="pyarrow"))
    n = conv.count()
    q = exact_quantiles(conv, "delta_s", [0.5, 0.9])
    return pd.DataFrame({
        "n_converted": pd.Series([n], dtype="int64"),
        "p50_s": [round(float(q["value"].iloc[0]), 2)],
        "p90_s": [round(float(q["value"].iloc[1]), 2)],
    })


VIEW_TO_PURCHASE_SQL = """
WITH v AS (
  SELECT event_id, user_id, ts FROM events WHERE event_type = 'view'),
p AS (
  SELECT user_id, ts FROM events WHERE event_type = 'purchase'),
d AS (
  SELECT epoch_us((SELECT min(p.ts) FROM p
                   WHERE p.user_id = v.user_id AND p.ts >= v.ts
                     AND p.ts <= v.ts + INTERVAL 24 HOUR)
                  - v.ts) / 1000000.0 AS delta_s
  FROM v)
SELECT count(delta_s)::BIGINT AS n_converted,
       round(quantile_disc(delta_s, 0.5), 2) AS p50_s,
       round(quantile_disc(delta_s, 0.9), 2) AS p90_s
FROM d WHERE delta_s IS NOT NULL
"""


def pattern_match_counts(sf_dir: str):
    """Corpus grep as an operator: literal patterns broadcast once,
    counted per doc with one vectorized non-overlapping substring scan
    each — the 'how often does X appear across 100 TB' question that
    is otherwise a cluster-wide ripgrep. Output: per pattern, docs
    containing it and total occurrences (non-overlapping count
    semantics on BOTH sides). No shuffle beyond the tiny final
    aggregate."""
    from ray.data.aggregate import Sum

    import re as _re

    PATTERNS = ["the", "data", "ray", "zzz_absent"]
    escaped = {p: _re.escape(p) for p in PATTERNS}
    docs = _read(sf_dir, "documents", ["text"])

    def count(t: pa.Table) -> pa.Table:
        txt = t.to_pandas()["text"].fillna("")
        rows = {}
        for p in PATTERNS:
            n = txt.str.count(escaped[p]).astype("int64")
            rows[f"occ::{p}"] = n
            rows[f"doc::{p}"] = (n > 0).astype("int64")
        return arrow_out(pd.DataFrame(rows))

    agg = docs.map_batches(count, batch_format="pyarrow").aggregate(
        *[Sum(f"occ::{p}", alias_name=f"o::{p}") for p in PATTERNS],
        *[Sum(f"doc::{p}", alias_name=f"d::{p}") for p in PATTERNS])
    out = pd.DataFrame({
        "pattern": PATTERNS,
        "n_docs": [int(agg[f"d::{p}"]) for p in PATTERNS],
        "n_occurrences": [int(agg[f"o::{p}"]) for p in PATTERNS],
    })
    return out.sort_values("pattern").reset_index(drop=True)


PATTERN_MATCH_SQL = """
WITH p(pattern) AS (VALUES ('the'), ('data'), ('ray'), ('zzz_absent')),
m AS (
  SELECT p.pattern,
         CASE WHEN length(coalesce(d.text, '')) = 0 THEN 0
              ELSE (length(d.text)
                    - length(replace(d.text, p.pattern, '')))
                   // length(p.pattern) END AS occ
  FROM p CROSS JOIN documents d)
SELECT pattern,
       sum(CASE WHEN occ > 0 THEN 1 ELSE 0 END)::BIGINT AS n_docs,
       sum(occ)::BIGINT AS n_occurrences
FROM m GROUP BY pattern
"""


def events_windowed_dedup(sf_dir: str):
    """Time-windowed deduplication: a (user, event_type) pair is a
    duplicate only within its UTC hour — the crawl-recency variant of
    exact dedup where the same key is legitimate again later (re-crawl
    policies, rate-limited counters). Key = (user, type, hour bucket);
    the exchange moves only key columns; survivors = earliest event_id
    per key. Output: per event_type, survivor count vs raw count.

    One bucketed exchange on user (every (user, type, hour) group is
    bucket-local), per-bucket vectorized group count, reduced straight
    to per-type partials — |keys| one-row groups would otherwise walk
    Ray's Python-speed sort aggregate."""
    from ..stages.groups import bucketed_group_apply

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts",
                                  "event_type"])

    def key(t: pa.Table) -> pa.Table:
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({
            "event_id": t["event_id"], "user_id": t["user_id"],
            "event_type": t["event_type"],
            "hour_b": pa.array(us // 3_600_000_000, pa.int64()),
        })

    def survivors(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.groupby(["user_id", "event_type", "hour_b"])
             .size().reset_index(name="n_raw"))
        return (g.groupby("event_type", as_index=False)
                .agg(n_kept=("n_raw", "size"), n_raw=("n_raw", "sum")))

    return grouped_partials(bucketed_group_apply(
        ev.map_batches(key, batch_format="pyarrow"), "user_id",
        survivors, num_buckets=16), "event_type", sums=["n_kept", "n_raw"])


EVENTS_WINDOWED_DEDUP_SQL = """
WITH k AS (
  SELECT user_id, event_type, epoch_us(ts) // 3600000000 AS hour_b
  FROM events),
g AS (
  SELECT event_type, count(*) AS n_raw
  FROM k GROUP BY user_id, event_type, hour_b)
SELECT event_type, count(*)::BIGINT AS n_kept,
       sum(n_raw)::BIGINT AS n_raw
FROM g GROUP BY event_type
"""


def nation_revenue_share(sf_dir: str):
    """ratio_to_report window shape: each nation's share of ITS
    region's customer account-balance total — one fine-grain
    distributed aggregate, region totals derived from the tiny grouped
    result and joined back without touching the fact table again."""
    cust = _read(sf_dir, "customer", ["c_nationkey", "c_acctbal"])
    nation = _read(sf_dir, "nation").to_pandas()
    region = _read(sf_dir, "region").to_pandas()

    per_nat = grouped_partials(cust, "c_nationkey", sums=["bal"],
                               prep=lambda t: t.rename_columns(
                                   ["c_nationkey", "bal"]))
    per_nat = per_nat.merge(
        nation[["n_nationkey", "n_name", "n_regionkey"]],
        left_on="c_nationkey", right_on="n_nationkey")
    per_nat = per_nat.merge(region[["r_regionkey", "r_name"]],
                            left_on="n_regionkey",
                            right_on="r_regionkey")
    tot = per_nat.groupby("r_name")["bal"].transform("sum")
    out = pd.DataFrame({
        "r_name": per_nat["r_name"], "n_name": per_nat["n_name"],
        "bal": round2(per_nat["bal"]),
        "share": round6(per_nat["bal"] / tot),
    })
    return (out.sort_values(["r_name", "n_name"])
            .reset_index(drop=True))


NATION_REVENUE_SHARE_SQL = """
WITH b AS (
  SELECT r_name, n_name, sum(c_acctbal) AS raw_bal
  FROM customer
  JOIN nation ON n_nationkey = c_nationkey
  JOIN region ON r_regionkey = n_regionkey
  GROUP BY r_name, n_name)
SELECT r_name, n_name, round(raw_bal, 2) AS bal,
       round(raw_bal / sum(raw_bal) OVER (PARTITION BY r_name), 6)
         AS share
FROM b
"""


def events_column_profile(sf_dir: str):
    """Column-completeness profile (profiler-lite): per column of
    events — null count and exact distinct count, long-format. Null
    counts are one streaming pass of mergeable partials; distinct is
    one narrow single-column groupby per column (at 100 TB swap in the
    HLL sketch from stages/sketches.py — exactness here keeps the
    oracle byte-tight)."""
    cols = ["event_id", "user_id", "event_type", "value"]
    ds = _read(sf_dir, "events", cols)

    def nulls(t: pa.Table) -> pa.Table:
        return arrow_out(pd.DataFrame(
            {f"n::{c}": [t[c].null_count] for c in cols}
            | {"rows": [t.num_rows]}))

    from ..stages.groups import bucketed_group_apply

    part = ds.map_batches(nulls, batch_format="pyarrow").to_pandas()

    def distinct_count(col: str) -> int:
        # per-batch unique partial → bucketed exchange → per-bucket
        # nunique partial rows summed on the driver (one int per
        # bucket) — never a sort aggregate over |distinct| groups
        pre = _read(sf_dir, "events", [col]).map_batches(
            lambda t, c=col: pa.table({c: pa.array(
                pd.unique(t[c].to_pandas()))}),
            batch_format="pyarrow")
        parts = bucketed_group_apply(
            pre, col,
            lambda df, c=col: pd.DataFrame(
                {"nd": [df[c].nunique(dropna=False)]}),
            num_buckets=8).to_pandas()
        return int(parts["nd"].sum())

    rows = []
    for c in cols:
        nd = distinct_count(c)
        n_nulls = int(part[f"n::{c}"].sum())
        if n_nulls > 0:
            # SQL count(DISTINCT c) excludes NULL; the groupby counts
            # the null group as one extra key
            nd -= 1
        rows.append({"column": c,
                     "n_rows": int(part["rows"].sum()),
                     "n_nulls": n_nulls,
                     "n_distinct": nd})
    return (pd.DataFrame(rows).astype(
        {"n_rows": "int64", "n_nulls": "int64", "n_distinct": "int64"})
        .sort_values("column").reset_index(drop=True))


EVENTS_COLUMN_PROFILE_SQL = """
SELECT 'event_id' AS column, count(*)::BIGINT AS n_rows,
       (count(*) - count(event_id))::BIGINT AS n_nulls,
       count(DISTINCT event_id)::BIGINT AS n_distinct FROM events
UNION ALL
SELECT 'event_type', count(*), (count(*) - count(event_type)),
       count(DISTINCT event_type) FROM events
UNION ALL
SELECT 'user_id', count(*), (count(*) - count(user_id)),
       count(DISTINCT user_id) FROM events
UNION ALL
SELECT 'value', count(*), (count(*) - count(value)),
       count(DISTINCT value) FROM events
"""


def event_trigram_paths(sf_dir: str):
    """Sequential path mining: the top-10 most common 3-step event-type
    paths per user journey — LEAD()×2 window semantics computed
    distributed: users hash-bucket once, each bucket sorts its users'
    events and builds trigrams with two vectorized shifts (no per-user
    Python loop), then a tiny (path, n) aggregate. Ties break
    deterministically (n desc, path asc)."""
    from ..stages.groups import bucketed_group_apply

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_id",
                                  "event_type"])

    def paths(df: pd.DataFrame) -> pd.DataFrame:
        # deterministic order: (user, ts, event_id) — ts collisions
        # break on event_id exactly like the ORDER BY in the oracle
        df = df.sort_values(["user_id", "ts", "event_id"],
                            kind="stable")
        u = df["user_id"].to_numpy()
        t = df["event_type"].to_numpy()
        same3 = (u[:-2] == u[1:-1]) & (u[1:-1] == u[2:])
        if not same3.any():
            return pd.DataFrame({"path": pd.Series([], dtype=object)})
        a, b, c = t[:-2][same3], t[1:-1][same3], t[2:][same3]
        path = pd.Series(a) + ">" + pd.Series(b) + ">" + pd.Series(c)
        return pd.DataFrame({"path": path})

    # at most |types|³ paths
    out = grouped_partials(
        bucketed_group_apply(ev, "user_id", paths, num_buckets=16), "path",
        count="n")
    return (out.sort_values(["n", "path"], ascending=[False, True])
            .head(10).reset_index(drop=True))


EVENT_TRIGRAM_SQL = """
WITH s AS (
  SELECT user_id, event_type,
         lead(event_type, 1) OVER w AS e2,
         lead(event_type, 2) OVER w AS e3
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id))
SELECT event_type || '>' || e2 || '>' || e3 AS path,
       count(*)::BIGINT AS n
FROM s WHERE e3 IS NOT NULL
GROUP BY 1 ORDER BY n DESC, path LIMIT 10
"""


def doc_accent_fold(sf_dir: str):
    """Accent folding (Unicode NFD → drop combining marks → lower) —
    the text normalization step before dedup/tokenization treats
    'café' and 'cafe' as one. Accented suffixes are synthesized
    deterministically; the oracle folds with strip_accents()+lower()
    and both sides fingerprint the FOLDED STRING with md5, so the
    check is parity of the actual normalized text, not a summary.
    Stateless vectorized map, no shuffle."""
    import hashlib
    import unicodedata

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def fold_one(s: str) -> str:
        return "".join(
            ch for ch in unicodedata.normalize("NFD", s)
            if not unicodedata.combining(ch)).lower()

    def fold(b: pd.DataFrame) -> pa.Table:
        d = b["doc_id"]
        suffix = np.select(
            [d % 3 == 0, d % 3 == 1],
            [" Café crème naïve Über", " São Paulo piñata"],
            " plain ascii tail")
        page = b["text"].fillna("") + suffix
        folded = page.map(fold_one)
        return arrow_out(pd.DataFrame({
            "doc_id": d.astype("int64"),
            "folded_len": folded.str.len().astype("int64"),
            "folded_md5": folded.map(
                lambda s: hashlib.md5(s.encode()).hexdigest()),
        }))

    return (docs.map_batches(fold, batch_format="pandas")
            .to_pandas().sort_values("doc_id").reset_index(drop=True))


DOC_ACCENT_FOLD_SQL = """
WITH p AS (
  SELECT doc_id,
         coalesce(text, '') ||
         CASE WHEN doc_id % 3 = 0 THEN ' Café crème naïve Über'
              WHEN doc_id % 3 = 1 THEN ' São Paulo piñata'
              ELSE ' plain ascii tail' END AS page
  FROM documents),
f AS (SELECT doc_id, lower(strip_accents(page)) AS folded FROM p)
SELECT doc_id, length(folded)::BIGINT AS folded_len,
       md5(folded) AS folded_md5
FROM f
"""


def hourly_value_p95(sf_dir: str):
    """Windowed holistic aggregate — the observability query: exact
    p50/p95 of event value per UTC hour-of-day, via the shared-pass
    group-quantile refinement (every (hour, q) interval refines in the
    SAME histogram sweep per round; no per-group sort, no full-column
    gather). Oracle is quantile_disc per hour."""
    from ..stages.quantiles import exact_group_quantiles

    ev = _read(sf_dir, "events", ["ts", "value"])

    def hod(t: pa.Table) -> pa.Table:
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({
            "hour": pa.array((us // 3_600_000_000) % 24, pa.int64()),
            "value": t["value"],
        })

    g = exact_group_quantiles(ev.map_batches(hod, batch_format="pyarrow"),
                              "hour", "value", [0.5, 0.95])
    out = pd.DataFrame({
        "hour": g["hour"].astype("int64"),
        "p50": round2(g["q_50"]),
        "p95": round2(g["q_95"]),
    })
    return out.sort_values("hour").reset_index(drop=True)


HOURLY_P95_SQL = """
SELECT ((epoch_us(ts) // 3600000000) % 24)::BIGINT AS hour,
       round(quantile_disc(value, 0.5), 2) AS p50,
       round(quantile_disc(value, 0.95), 2) AS p95
FROM events GROUP BY 1
"""


def host_mirror_frame(docs, *, n_hosts: int = 7,
                      max_posting: int | None = 1024,
                      num_buckets: int = 16):
    """Core of :func:`host_mirror_similarity` — exact host-pair word-set
    Jaccard via inverted postings, with the ``max_posting`` STOP-WORD
    CAP that bounds the per-word pair fan-out at crawl scale.

    A word shared by H hosts emits C(H, 2) pair rows in the self-merge;
    a stop word present on every host of a real crawl (H ~ 10⁶) is an
    all-pairs explosion — the same hazard
    ``jaccard_neardup_pairs(max_posting=…)`` (stages/dedup.py) guards.
    Words whose posting (distinct-host count) exceeds ``max_posting``
    are dropped from the INTERSECTION counts (their contribution to the
    per-host union sizes is kept, so capped similarities are lower
    bounds — standard stop-word semantics). Dropped-word count is
    logged and returned so callers can see the cap fire.

    Returns ``(pairs DataFrame, n_dropped_hot_words)``. With
    ``max_posting=None`` (or ≥ n_hosts) the result is exact."""
    from ray.data.aggregate import Count

    from ..stages.groups import bucketed_group_apply

    def postings(t: pa.Table) -> pa.Table:
        b = t.to_pandas()
        host = "host" + (b["doc_id"] % n_hosts).astype(str)
        toks = b["text"].fillna("").str.lower().str.split(" ")
        df = pd.DataFrame({"host": host.repeat(toks.str.len()).to_numpy(),
                           "word": np.concatenate(toks.to_numpy())})
        df = df[df["word"] != ""].drop_duplicates()
        return arrow_out(df)

    # distinct (host, word) — batch-level dedup above shrinks the
    # exchange; the groupby makes it global. PINNED once: the posting
    # table feeds both the per-host totals and the pair pass below —
    # lazy, each consumer re-runs the postings tokenize + distinct
    # exchange from scratch (measured ~1 s per extra consumer at
    # sf0.1, the r04 slow-tier regression: the cap-accounting pass
    # added a third consumption). Object-store blocks, spillable —
    # never driver-side.
    hw = (docs.map_batches(postings, batch_format="pyarrow")
          .groupby(["host", "word"]).aggregate(Count(alias_name="c"))
          ).materialize()

    # per-host distinct-word totals over the already-distinct hw rows
    szs = grouped_partials(hw, "host", count="n")
    sizes = dict(zip(szs["host"], szs["n"]))

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        # vectorized per-word combinations: self-merge on word, keep
        # the ordered half, then PRE-AGGREGATE pair counts inside the
        # bucket (combiner — the pair stream never leaves the worker
        # unreduced). The bucketed groupby co-locates ALL of a word's
        # postings in one group, so the per-group size filter is the
        # word's exact global host count — which also makes the
        # dropped-hot-word count exact per bucket, folded into the
        # SAME pass as a marker row (host_a = "") instead of the
        # separate per-word Aggregate exchange it used to cost.
        hw_b = df[["word", "host"]]
        n_drop = 0
        if max_posting is not None and len(hw_b):
            plen = hw_b.groupby("word", sort=False)["word"] \
                .transform("size")
            big = plen > max_posting
            n_drop = int(hw_b.loc[big, "word"].nunique())
            hw_b = hw_b[~big]
        m = hw_b.merge(hw_b, on="word", suffixes=("_a", "_b"))
        m = m[m["host_a"] < m["host_b"]]
        agg = (m.groupby(["host_a", "host_b"], sort=False)
               .size().reset_index(name="n_common"))
        if n_drop:
            agg = pd.concat([agg, pd.DataFrame(
                {"host_a": [""], "host_b": [""], "n_common": [n_drop]})],
                ignore_index=True)
        return agg

    # driver merge of ≤ buckets × distinct-pairs partials — the same
    # volume the final result holds anyway (the pair matrix IS the
    # output), so no Count exchange needed
    parts = grouped_partials(
        bucketed_group_apply(hw, "word", pairs, num_buckets=num_buckets),
        ["host_a", "host_b"], sums=["n_common"])
    drop_mask = parts["host_a"] == ""
    n_dropped = int(parts.loc[drop_mask, "n_common"].sum())
    if n_dropped:
        import logging

        logging.getLogger(__name__).warning(
            "host_mirror_similarity: max_posting=%d dropped %d hot "
            "word(s) from intersection counts (similarities are "
            "lower bounds for pairs sharing them)",
            max_posting, n_dropped)
    inter = parts[~drop_mask].reset_index(drop=True)
    union = (inter["host_a"].map(sizes) + inter["host_b"].map(sizes)
             - inter["n_common"])
    inter["jaccard"] = round6(inter["n_common"] / union)
    return inter, n_dropped


def host_mirror_similarity(sf_dir: str):
    """Host-level mirror detection: exact Jaccard similarity of word
    SETS between every host pair, computed with the inverted-postings
    pattern — distinct (host, word) postings shuffle once by word,
    each word emits its host-pair combinations, pair counts Sum into
    intersections, and unions come from the tiny per-host distinct
    totals. The crawl question 'which sites serve the same content
    under different names'; hosts synthesized from doc_id as elsewhere.

    The per-word fan-out is bounded by the ``max_posting`` stop-word
    cap in :func:`host_mirror_frame` (default 1024 ≫ the 7 synthetic
    hosts, so the cap is INACTIVE here and the result exact — the
    oracle replays the uncapped semantics)."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out, _ = host_mirror_frame(docs)
    return out


HOST_MIRROR_SQL = """
WITH hw AS (
  SELECT DISTINCT 'host' || (doc_id % 7)::VARCHAR AS host,
         unnest(string_split(lower(coalesce(text, '')), ' ')) AS word
  FROM documents),
hw2 AS (SELECT host, word FROM hw WHERE word <> ''),
sz AS (SELECT host, count(*) AS n FROM hw2 GROUP BY host),
inter AS (
  SELECT a.host AS host_a, b.host AS host_b, count(*) AS n_common
  FROM hw2 a JOIN hw2 b ON a.word = b.word AND a.host < b.host
  GROUP BY 1, 2)
SELECT host_a, host_b, n_common::BIGINT AS n_common,
       round(n_common / (sa.n + sb.n - n_common), 6) AS jaccard
FROM inter
JOIN sz sa ON sa.host = inter.host_a
JOIN sz sb ON sb.host = inter.host_b
"""


def second_event_per_user(sf_dir: str):
    """Nth-ranked aggregate: each user's SECOND-most-frequent event
    type (deterministic count-desc, type-asc rank; users with fewer
    than two distinct types drop out). One (user, type) count, then a
    per-user vectorized rank inside hash buckets — no global sort."""
    from ray.data.aggregate import Count

    from ..stages.groups import bucketed_group_apply

    ev = _read(sf_dir, "events", ["user_id", "event_type"])
    counts = ev.groupby(["user_id", "event_type"]).aggregate(
        Count(alias_name="n"))

    def rank2(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "n", "event_type"],
                            ascending=[True, False, True],
                            kind="stable")
        r = df.groupby("user_id").cumcount()
        out = df[r == 1]
        return pd.DataFrame({
            "user_id": out["user_id"].astype("int64"),
            "second_event": out["event_type"],
            "n": out["n"].astype("int64"),
        })

    out = (bucketed_group_apply(counts, "user_id", rank2,
                                num_buckets=16).to_pandas())
    return out.sort_values("user_id").reset_index(drop=True)


SECOND_EVENT_SQL = """
WITH c AS (
  SELECT user_id, event_type, count(*) AS n
  FROM events GROUP BY user_id, event_type),
r AS (
  SELECT user_id, event_type AS second_event, n::BIGINT AS n,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY n DESC, event_type) AS rk
  FROM c)
SELECT user_id, second_event, n FROM r WHERE rk = 2
"""


def user_interarrival_stats(sf_dir: str):
    """Per-user inter-arrival gaps — ordered per-group diff: users
    hash-bucket once, each bucket sorts its users' events and takes
    ONE vectorized diff (masked at user boundaries), then per-user
    (n_gaps, mean, max) aggregate. The session-health metric behind
    bot detection and sessionization thresholds."""
    from ..stages.groups import bucketed_group_apply

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_id"])

    def gaps(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"],
                            kind="stable")
        u = df["user_id"].to_numpy()
        t = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        d = np.diff(t) / 1e6
        same = u[1:] == u[:-1]
        g = pd.DataFrame({"user_id": u[1:][same], "gap_s": d[same]})
        agg = g.groupby("user_id", as_index=False).agg(
            n_gaps=("gap_s", "size"), mean_gap_s=("gap_s", "mean"),
            max_gap_s=("gap_s", "max"))
        return agg

    out = (bucketed_group_apply(ev, "user_id", gaps, num_buckets=16)
           .to_pandas())
    out["user_id"] = out["user_id"].astype("int64")
    out["n_gaps"] = out["n_gaps"].astype("int64")
    out["mean_gap_s"] = out["mean_gap_s"].round(2)
    out["max_gap_s"] = out["max_gap_s"].round(2)
    return out.sort_values("user_id").reset_index(drop=True)


USER_INTERARRIVAL_SQL = """
WITH g AS (
  SELECT user_id,
         epoch_us(ts - lag(ts) OVER (PARTITION BY user_id
                                     ORDER BY ts, event_id)) / 1000000.0
           AS gap_s
  FROM events)
SELECT user_id, count(gap_s)::BIGINT AS n_gaps,
       round(avg(gap_s), 2) AS mean_gap_s,
       round(max(gap_s), 2) AS max_gap_s
FROM g WHERE gap_s IS NOT NULL
GROUP BY user_id
"""


def catalog_consistent_join(sf_dir: str):
    """Multi-table transactional snapshots (state/catalog.py): two
    versioned tables (fact events, user-tier dim) each take TWO
    commits, each catalog publish atomically pins a consistent
    (fact, dim) version pair, and a THIRD dim commit is deliberately
    left unpinned — reads through catalog v2 must not see it. The
    query reads both snapshots via their catalog pins, joins fact to
    dim (broadcast — the dim is small), and aggregates value per tier;
    the oracle replays both snapshots' last-write-wins states from the
    flat table."""
    from ..stages.joins import broadcast_join
    from ..state.catalog import publish, read_table, table_root
    from ..state.versioned import commit

    def build(root: str) -> None:
        ev = _read(sf_dir, "events", ["event_id", "user_id", "value"])

        def fact_v1(t: pa.Table) -> pa.Table:
            eid = t["event_id"].to_numpy(zero_copy_only=False)
            t = t.filter(pa.array(eid % 5 < 4))
            return pa.table({
                "event_id": t["event_id"], "user_id": t["user_id"],
                "v": pa.array(round2(t["value"].to_numpy()), pa.float64()),
            })

        def fact_v2_delta(t: pa.Table) -> pa.Table:
            eid = t["event_id"].to_numpy(zero_copy_only=False)
            changed = (eid % 5 < 4) & (eid % 7 == 0)
            inserts = eid % 5 == 4
            keep = changed | inserts
            t2 = t.filter(pa.array(keep))
            eid2 = t2["event_id"].to_numpy(zero_copy_only=False)
            val = t2["value"].to_numpy()
            v = np.where(eid2 % 5 < 4, round2(val * 2.0), round2(val))
            return pa.table({
                "event_id": t2["event_id"], "user_id": t2["user_id"],
                "v": pa.array(v, pa.float64()),
            })

        def dim_v1(t: pa.Table) -> pa.Table:
            u = np.unique(t["user_id"].to_numpy(zero_copy_only=False))
            return pa.table({"user_id": pa.array(u, pa.int64()),
                             "tier": pa.array(["bronze"] * len(u))})

        def dim_v2_delta(t: pa.Table) -> pa.Table:
            u = np.unique(t["user_id"].to_numpy(zero_copy_only=False))
            u = u[u % 2 == 0]
            return pa.table({"user_id": pa.array(u, pa.int64()),
                             "tier": pa.array(["gold"] * len(u))})

        froot, droot = table_root(root, "fact"), table_root(root, "dim")
        commit(ev.map_batches(fact_v1, batch_format="pyarrow"),
               froot, key="event_id")
        # the dim derivations need the GLOBAL distinct user set — at
        # this dim size a repartition(1) is the broadcast-build step
        commit(ev.select_columns(["user_id"]).repartition(1)
               .map_batches(dim_v1, batch_format="pyarrow"),
               droot, key="user_id")
        publish(root, {"fact": 1, "dim": 1})
        commit(ev.map_batches(fact_v2_delta, batch_format="pyarrow"),
               froot, key="event_id")
        commit(ev.select_columns(["user_id"]).repartition(1)
               .map_batches(dim_v2_delta, batch_format="pyarrow"),
               droot, key="user_id")
        publish(root, {"fact": 2, "dim": 2})
        # unpinned third dim commit: no catalog blesses it, so no read
        # below may observe 'silver'
        commit(ev.select_columns(["user_id"]).repartition(1)
               .map_batches(lambda t: pa.table({
                   "user_id": pa.array(np.unique(
                       t["user_id"].to_numpy(zero_copy_only=False)),
                       pa.int64()),
                   "tier": pa.array(["silver"] * len(np.unique(
                       t["user_id"].to_numpy(zero_copy_only=False)))),
               }), batch_format="pyarrow"), droot, key="user_id")

    root = _build_once(
        _cache_dir("catalog", 1, os.path.join(sf_dir, "events.parquet")),
        build)

    # tier is a ≤3-key domain: one partials pass per snapshot consumes
    # the lazy join once
    frames = []
    for snap in (1, 2):
        fact = read_table(root, snap, "fact", key="event_id")
        dim = read_table(root, snap, "dim", key="user_id")
        j = broadcast_join(fact, dim.to_pandas(), on="user_id")
        f = grouped_partials(
            j, "tier", sums=["total_value"], count="n_events",
            prep=lambda t: t.select(["tier", "v"]).rename_columns(
                ["tier", "total_value"]))
        f.insert(0, "snapshot", snap)
        frames.append(f)
    out = pd.concat(frames, ignore_index=True)
    out["snapshot"] = out["snapshot"].astype("int64")
    out["n_events"] = out["n_events"].astype("int64")
    out["total_value"] = round2(out["total_value"])
    return (out[["snapshot", "tier", "n_events", "total_value"]]
            .sort_values(["snapshot", "tier"]).reset_index(drop=True))


CATALOG_JOIN_SQL = """
WITH a1 AS (
  SELECT event_id, user_id, round(value, 2) AS v
  FROM events WHERE event_id % 5 < 4),
b1 AS (SELECT DISTINCT user_id, 'bronze' AS tier FROM events),
a2 AS (
  SELECT event_id, user_id,
         CASE WHEN event_id % 7 = 0 THEN round(value * 2, 2)
              ELSE round(value, 2) END AS v
  FROM events WHERE event_id % 5 < 4
  UNION ALL
  SELECT event_id, user_id, round(value, 2)
  FROM events WHERE event_id % 5 = 4),
b2 AS (
  SELECT DISTINCT user_id,
         CASE WHEN user_id % 2 = 0 THEN 'gold' ELSE 'bronze' END AS tier
  FROM events)
SELECT 1 AS snapshot, tier, count(*)::BIGINT AS n_events,
       round(sum(v), 2) AS total_value
FROM a1 JOIN b1 USING (user_id) GROUP BY tier
UNION ALL
SELECT 2, tier, count(*), round(sum(v), 2)
FROM a2 JOIN b2 USING (user_id) GROUP BY tier
"""


def quarantine_roundtrip(sf_dir: str):
    """Dead-letter path e2e (rows-only — parser failure classes are
    not SQL): a pages corpus with deliberately broken payloads (a
    garbage-body PDF, a truncated gzip) runs the real extraction, the
    failures land in a quarantine parquet with their exception class,
    and the result is read back. Rows scale with sf via the documents
    count."""
    import random
    import shutil

    import pyarrow.parquet as pq
    import ray.data as rd

    from ..fixtures.htmlgen import make_html_page
    from ..pipelines.extract import extract_pages, quarantine_failures

    n_ok = max(10, _read(sf_dir, "documents", ["doc_id"]).count() // 50)
    rng = random.Random(7)
    urls, payloads = [], []
    for i in range(n_ok):
        html, _ = make_html_page(rng, lang="en")
        urls.append(f"https://ok.test/{i}")
        payloads.append(html)
    urls += ["https://bad.test/pdf", "https://bad.test/gzip"]
    payloads += [b"%PDF-1.4 garbage without any xref",
                 b"\x1f\x8b\x08\x00trunc"]
    pages = pa.table({
        "url": urls,
        "warc_ts": pa.array(range(len(urls)), pa.int64()),
        "html": pa.array(payloads, pa.binary()),
        "text": pa.array([None] * len(urls), pa.string()),
        "lang": pa.array(["en"] * len(urls)),
    })
    qdir = "/tmp/ptt_quarantine_rt"
    shutil.rmtree(qdir, ignore_errors=True)
    n = quarantine_failures(extract_pages(rd.from_arrow(pages)), qdir)
    out = pq.read_table(qdir).to_pandas().sort_values("url") \
        .reset_index(drop=True)
    assert n == len(out) == 2, (n, len(out))
    return out[["url", "doc_type", "error_kind"]]


def _skyline2d(price: np.ndarray, qty: np.ndarray):
    """2-D skyline kernel (min price, max qty) over DISTINCT points:
    sort (price asc, qty desc), keep rows whose qty strictly exceeds
    the running max of every earlier row — a same-price row with lower
    qty and any later row not beating the max are both dominated."""
    order = np.lexsort((-qty, price))
    p, q = price[order], qty[order]
    if len(q) == 0:
        return p, q
    cm = np.maximum.accumulate(q)
    keep = np.empty(len(q), dtype=bool)
    keep[0] = True
    keep[1:] = q[1:] > cm[:-1]
    return p[keep], q[keep]


def lineitem_skyline(sf_dir: str):
    """Skyline / Pareto-frontier operator (min l_extendedprice, max
    l_quantity) via the classic two-phase distributed plan: every
    block computes its LOCAL skyline (dominance is subset-monotone —
    a point dominated inside any subset is dominated globally, so
    local pruning never drops a global skyline point), and only the
    surviving candidates (expected O(log n) per block for continuous
    value distributions) merge through the same kernel at the root.
    Only the two skyline columns leave the scan."""
    ds = _lineitem(sf_dir, ["l_extendedprice", "l_quantity"])

    def local(t: pa.Table) -> pa.Table:
        df = t.to_pandas().drop_duplicates()
        p, q = _skyline2d(df["l_extendedprice"].to_numpy(),
                          df["l_quantity"].to_numpy())
        return pa.table({"price": pa.array(p, pa.float64()),
                         "qty": pa.array(q, pa.float64())})

    cand = (ds.map_batches(local, batch_format="pyarrow")
            .to_pandas().drop_duplicates())
    p, q = _skyline2d(cand["price"].to_numpy(), cand["qty"].to_numpy())
    return (pd.DataFrame({"price": p, "qty": q})
            .sort_values("price").reset_index(drop=True))


SKYLINE_SQL = """
WITH d AS (
  SELECT DISTINCT l_extendedprice AS price, l_quantity AS qty
  FROM lineitem),
s AS (
  SELECT price, qty,
         max(qty) OVER (ORDER BY price ASC, qty DESC
                        ROWS BETWEEN UNBOUNDED PRECEDING
                        AND 1 PRECEDING) AS mq
  FROM d)
SELECT price, qty FROM s WHERE mq IS NULL OR qty > mq ORDER BY price
"""


def user_state_scd2(sf_dir: str):
    """Gaps-and-islands → SCD2 dimension history: each user's event
    stream compresses into runs of consecutive identical event_type;
    every run becomes a dimension row (valid_from = the run's first
    ts, valid_to = the NEXT run's valid_from, NULL ⇒ is_current) — the
    slowly-changing-dimension build warehouses run on change feeds.
    Users hash-bucket once; run detection is one vectorized
    shift-compare + cumsum, never a per-row loop."""
    from ..stages.groups import bucketed_group_apply

    ev = _read(sf_dir, "events",
               ["user_id", "event_type", "ts", "event_id"])

    def scd2(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"], kind="stable")
        u = df["user_id"].to_numpy()
        s = df["event_type"].to_numpy()
        new_run = np.empty(len(df), dtype=bool)
        if len(df):
            new_run[0] = True
            new_run[1:] = (u[1:] != u[:-1]) | (s[1:] != s[:-1])
        run = np.cumsum(new_run)
        g = pd.DataFrame({"user_id": u, "state": s,
                          "ts": df["ts"].to_numpy(), "_run": run})
        agg = g.groupby(["user_id", "_run"], as_index=False, sort=True) \
            .agg(state=("state", "first"), valid_from=("ts", "min"),
                 n_events=("ts", "size"))
        agg["run_id"] = agg.groupby("user_id").cumcount() + 1
        agg["valid_to"] = agg.groupby("user_id")["valid_from"].shift(-1)
        agg["is_current"] = agg["valid_to"].isna()
        return agg[["user_id", "run_id", "state", "valid_from",
                    "valid_to", "n_events", "is_current"]]

    out = (bucketed_group_apply(ev, "user_id", scd2, num_buckets=16)
           .to_pandas())
    out["user_id"] = out["user_id"].astype("int64")
    out["run_id"] = out["run_id"].astype("int64")
    out["n_events"] = out["n_events"].astype("int64")
    return (out.sort_values(["user_id", "run_id"])
            .reset_index(drop=True))


SCD2_SQL = """
WITH flagged AS (
  SELECT user_id, event_type, ts, event_id,
         CASE WHEN lag(event_type) OVER (PARTITION BY user_id
                                         ORDER BY ts, event_id)
                   IS DISTINCT FROM event_type THEN 1 ELSE 0 END AS chg
  FROM events),
runs AS (
  SELECT user_id, event_type, ts,
         sum(chg) OVER (PARTITION BY user_id ORDER BY ts, event_id)
           AS rid
  FROM flagged),
agg AS (
  SELECT user_id, rid, min(event_type) AS state, min(ts) AS valid_from,
         count(*)::BIGINT AS n_events
  FROM runs GROUP BY user_id, rid)
SELECT user_id, rid::BIGINT AS run_id, state, valid_from,
       lead(valid_from) OVER (PARTITION BY user_id ORDER BY rid)
         AS valid_to,
       n_events,
       lead(valid_from) OVER (PARTITION BY user_id ORDER BY rid)
         IS NULL AS is_current
FROM agg ORDER BY user_id, run_id
"""


def part_copurchase_bfs(sf_dir: str, max_hops: int = 4):
    """BFS hop distance (≤ ``max_hops``) from the smallest partkey
    over the co-purchase graph (parts sharing an order). Edges build
    distributed via one per-order self-merge inside orderkey hash
    buckets; each hop is one vectorized membership scan of the edge
    dataset against the broadcast frontier id set — driver state is
    the dist map, bounded by |parts| exactly like pagerank's rank
    vector, never the edges."""
    import ray
    from ray.data.aggregate import Min

    from ..stages.groups import bucketed_group_apply

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def order_pairs(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates()
        m = d.merge(d, on="l_orderkey")
        m = m[m["l_partkey_x"] != m["l_partkey_y"]]
        return (m[["l_partkey_x", "l_partkey_y"]]
                .rename(columns={"l_partkey_x": "src",
                                 "l_partkey_y": "dst"})
                .drop_duplicates())

    # pinned once: the edge set is scanned max_hops times (multi-pass
    # input), and it is the pruned 2-column pair table, not lineitem
    edges = bucketed_group_apply(li, "l_orderkey", order_pairs,
                                 num_buckets=16).materialize()

    src = int(li.aggregate(Min("l_partkey"))["min(l_partkey)"])
    dist = {src: 0}
    frontier = np.array([src], dtype=np.int64)
    for hop in range(1, max_hops + 1):
        f_ref = ray.put(np.sort(frontier))

        def step(t: pa.Table, f_ref=f_ref) -> pa.Table:
            s = t["src"].to_numpy(zero_copy_only=False)
            hit, _ = probe_sorted(ray.get(f_ref), s)
            return pa.table({"dst": pa.array(
                np.unique(t["dst"].to_numpy(zero_copy_only=False)[hit]),
                pa.int64())})

        reached = (edges.map_batches(step, batch_format="pyarrow")
                   .to_pandas()["dst"].unique())
        frontier = np.array(
            [n for n in reached if n not in dist], dtype=np.int64)
        if len(frontier) == 0:
            break
        for n in frontier:
            dist[int(n)] = hop
    out = pd.DataFrame({"node": list(dist.keys()),
                        "dist": list(dist.values())})
    out["node"] = out["node"].astype("int64")
    out["dist"] = out["dist"].astype("int64")
    return out.sort_values("node").reset_index(drop=True)


BFS_SQL = """
WITH RECURSIVE edges AS (
  SELECT DISTINCT a.l_partkey AS src, b.l_partkey AS dst
  FROM lineitem a JOIN lineitem b ON a.l_orderkey = b.l_orderkey
  WHERE a.l_partkey <> b.l_partkey),
bfs(node, dist) AS (
  SELECT (SELECT min(l_partkey) FROM lineitem), 0
  UNION
  SELECT e.dst, bfs.dist + 1
  FROM bfs JOIN edges e ON e.src = bfs.node
  WHERE bfs.dist < 4)
SELECT node, min(dist)::BIGINT AS dist FROM bfs GROUP BY node
ORDER BY node
"""


def events_rolling_median(sf_dir: str):
    """Rolling-median monitor: per event type, the median of the
    trailing 7 rows (6 preceding + current in (ts, event_id) order) —
    the robust-smoothing window mean-based movers can't give. Types
    hash-bucket once; each bucket computes every type's sliding
    medians in ONE pandas grouped-rolling pass (skiplist kernel, exact
    selection — no float-summation divergence to reconcile)."""
    from ..stages.groups import bucketed_group_apply

    ev = _read(sf_dir, "events", ["event_id", "event_type", "ts", "value"])

    def roll(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["event_type", "ts", "event_id"],
                            kind="stable")
        med = (df.groupby("event_type", sort=False)["value"]
               .rolling(7, min_periods=1).median()
               .reset_index(level=0, drop=True))
        return pd.DataFrame({
            "event_id": df["event_id"].to_numpy(),
            "event_type": df["event_type"].to_numpy(),
            "rolling_median": med.to_numpy()})

    out = (bucketed_group_apply(ev, "event_type", roll, num_buckets=8)
           .to_pandas())
    out["event_id"] = out["event_id"].astype("int64")
    return out.sort_values("event_id").reset_index(drop=True)


ROLLING_MEDIAN_SQL = """
SELECT event_id, event_type,
       median(value) OVER (PARTITION BY event_type ORDER BY ts, event_id
                           ROWS BETWEEN 6 PRECEDING AND CURRENT ROW)
         AS rolling_median
FROM events ORDER BY event_id
"""


def event_value_autocorr(sf_dir: str):
    """Per-type lag-1 autocorrelation — the drift/seasonality detector
    for metric streams. Types hash-bucket once; each bucket forms
    adjacent (value, next value) pairs with one boundary-masked shift
    and reduces them to Pearson r via mergeable raw moments (six
    scalars per type ride the shuffle)."""
    from ..stages.groups import bucketed_group_apply

    ev = _read(sf_dir, "events", ["event_type", "ts", "event_id", "value"])

    def ac(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["event_type", "ts", "event_id"],
                            kind="stable")
        s = df["event_type"].to_numpy()
        v = df["value"].to_numpy()
        same = s[1:] == s[:-1]
        pairs = pd.DataFrame({"event_type": s[1:][same],
                              "x": v[:-1][same], "y": v[1:][same]})
        pairs["xy"] = pairs["x"] * pairs["y"]
        pairs["xx"] = pairs["x"] ** 2
        pairs["yy"] = pairs["y"] ** 2
        g = pairs.groupby("event_type", as_index=False).agg(
            n=("x", "size"), sx=("x", "sum"), sy=("y", "sum"),
            sxy=("xy", "sum"), sxx=("xx", "sum"), syy=("yy", "sum"))
        num = g["n"] * g["sxy"] - g["sx"] * g["sy"]
        den = np.sqrt((g["n"] * g["sxx"] - g["sx"] ** 2)
                      * (g["n"] * g["syy"] - g["sy"] ** 2))
        return pd.DataFrame({
            "event_type": g["event_type"],
            "n_pairs": g["n"].astype("int64"),
            "autocorr_lag1": round6(num / den)})

    out = (bucketed_group_apply(ev, "event_type", ac, num_buckets=8)
           .to_pandas())
    out["n_pairs"] = out["n_pairs"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


AUTOCORR_SQL = """
WITH s AS (
  SELECT event_type, value,
         lag(value) OVER (PARTITION BY event_type ORDER BY ts, event_id)
           AS pv
  FROM events)
SELECT event_type, count(pv)::BIGINT AS n_pairs,
       round(corr(pv, value), 6) AS autocorr_lag1
FROM s WHERE pv IS NOT NULL GROUP BY event_type ORDER BY event_type
"""


def _batch_levenshtein(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Levenshtein distance over P pairs of equal-fixed-length byte
    rows in ONE vectorized DP: L×L scalar iterations, each a length-P
    numpy op — no per-pair Python. A, B: (P, L) uint8."""
    P, L = A.shape
    prev = np.tile(np.arange(L + 1, dtype=np.int32), (P, 1))
    cur = np.empty((P, L + 1), dtype=np.int32)
    for i in range(1, L + 1):
        cur[:, 0] = i
        ai = A[:, i - 1][:, None]  # (P, 1)
        sub = prev[:, :-1] + (ai != B).astype(np.int32)  # (P, L)
        dele = prev[:, 1:] + 1
        best = np.minimum(sub, dele)
        for j in range(1, L + 1):
            cur[:, j] = np.minimum(best[:, j - 1], cur[:, j - 1] + 1)
        prev, cur = cur, prev
    return prev[:, L]


_SN_KEYLEN = 16
_SN_WINDOW = 5
_SN_MAXDIST = 6


def _sn_keys(t: pa.Table) -> pa.Table:
    txt = t["text"].to_pandas().fillna("")
    key = (txt.str.replace("[^a-zA-Z ]", "", regex=True)
           .str.slice(0, _SN_KEYLEN).str.lower()
           .str.ljust(_SN_KEYLEN))
    return pa.table({"doc_id": t["doc_id"], "key": pa.array(key)})


def _sn_pairs_from_run(ids, keys, ranks):
    """All (i, j) pairs with rank_j − rank_i ≤ W inside one
    contiguous-rank run, verified by the batch DP kernel."""
    kb = np.frombuffer("".join(keys).encode("ascii"),
                       dtype=np.uint8).reshape(len(keys), _SN_KEYLEN)
    out = []
    for k in range(1, _SN_WINDOW + 1):
        if len(ids) <= k:
            break
        contiguous = ranks[k:] - ranks[:-k] <= _SN_WINDOW
        if not contiguous.any():
            continue
        d = _batch_levenshtein(kb[:-k][contiguous], kb[k:][contiguous])
        ok = d <= _SN_MAXDIST
        out.append(pd.DataFrame({
            "doc_a": ids[:-k][contiguous][ok],
            "doc_b": ids[k:][contiguous][ok],
            "dist": d[ok].astype("int64")}))
    if not out:
        return pd.DataFrame({"doc_a": pd.Series(dtype="int64"),
                             "doc_b": pd.Series(dtype="int64"),
                             "dist": pd.Series(dtype="int64")})
    return pd.concat(out, ignore_index=True)


def sorted_neighborhood_pairs(sf_dir: str):
    """Sorted-neighborhood entity-resolution blocking (Hernández &
    Stolfo 1995): docs sort globally by a normalized 16-char key;
    candidate pairs are the w=5 nearest neighbors in sort order,
    verified by edit distance ≤ 6 computed with a BATCH numpy DP over
    all pairs at once. Within-block pairs compute distributed over the
    range-partitioned sorted blocks; only each block's w-row boundary
    strips (O(blocks × w) rows, tagged with their block's first key
    for deterministic global ordering) meet on the driver to stitch
    the cross-block pairs — the corpus itself never gathers."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    keyed = (docs.map_batches(_sn_keys, batch_format="pyarrow")
             .sort(["key", "doc_id"]).materialize())  # two passes below

    W = _SN_WINDOW

    def inner_pairs(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        keys = t["key"].to_pylist()
        df = _sn_pairs_from_run(ids, keys, np.arange(len(ids)))
        return pa.Table.from_pandas(df, preserve_index=False)

    def strips(t: pa.Table) -> pa.Table:
        n = t.num_rows
        if n == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "key": pa.array([], pa.string()),
                             "pos": pa.array([], pa.int64()),
                             "blk_key": pa.array([], pa.string()),
                             "blk_doc": pa.array([], pa.int64()),
                             "blk_rows": pa.array([], pa.int64())})
        idx = np.unique(np.concatenate(
            [np.arange(min(W, n)), np.arange(max(0, n - W), n)]))
        sub = t.take(idx)
        return pa.table({
            "doc_id": sub["doc_id"],
            "key": sub["key"],
            "pos": pa.array(idx, pa.int64()),
            "blk_key": pa.array([t["key"][0].as_py()] * len(idx)),
            "blk_doc": pa.array([t["doc_id"][0].as_py()] * len(idx),
                                pa.int64()),
            "blk_rows": pa.array([n] * len(idx), pa.int64())})

    inner = (keyed.map_batches(inner_pairs, batch_format="pyarrow",
                               batch_size=None).to_pandas())

    st = (keyed.map_batches(strips, batch_format="pyarrow",
                            batch_size=None).to_pandas())
    # blocks are range-partitioned on (key, doc_id) → sorting by each
    # block's first row reconstructs the global block order; prefix
    # sums of block sizes give every strip row its exact global rank
    blocks = (st[["blk_key", "blk_doc", "blk_rows"]].drop_duplicates()
              .sort_values(["blk_key", "blk_doc"]).reset_index(drop=True))
    blocks["offset"] = blocks["blk_rows"].cumsum().shift(fill_value=0)
    st = st.merge(blocks[["blk_key", "blk_doc", "offset"]],
                  on=["blk_key", "blk_doc"])
    st["rank"] = st["offset"] + st["pos"]
    st = st.sort_values("rank").reset_index(drop=True)
    cross = _sn_pairs_from_run(st["doc_id"].to_numpy(),
                               st["key"].tolist(),
                               st["rank"].to_numpy())
    # strips of short blocks overlap their own inner pairs — dedupe
    out = (pd.concat([inner, cross], ignore_index=True)
           .drop_duplicates(["doc_a", "doc_b"]))
    out["doc_a"] = out["doc_a"].astype("int64")
    out["doc_b"] = out["doc_b"].astype("int64")
    return (out.sort_values(["doc_a", "doc_b"])
            .reset_index(drop=True))


SORTED_NEIGHBORHOOD_SQL = """
WITH k AS (
  SELECT doc_id,
         rpad(lower(substr(regexp_replace(text, '[^a-zA-Z ]', '', 'g'),
                           1, 16)), 16, ' ') AS key
  FROM documents),
r AS (SELECT doc_id, key,
             row_number() OVER (ORDER BY key, doc_id) AS rn
      FROM k)
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
       levenshtein(a.key, b.key)::BIGINT AS dist
FROM r a JOIN r b ON b.rn > a.rn AND b.rn <= a.rn + 5
WHERE levenshtein(a.key, b.key) <= 6
ORDER BY doc_a, doc_b
"""


def event_value_boxplot(sf_dir: str):
    """Tukey boxplot statistics per group — q1/median/q3/IQR, the
    whiskers (most extreme values INSIDE the 1.5·IQR fences), and the
    outlier count. Two passes: exact grouped quantiles (holistic →
    one hash-bucket shuffle), then the tiny fence table broadcasts
    and one vectorized scan reduces per-type (whisker_lo, whisker_hi,
    n_outliers) partials — the full column never re-shuffles."""
    import ray

    from ..stages.groups import bucketed_group_apply

    ds = _read(sf_dir, "events", ["event_type", "value"])

    def quart(g: pd.DataFrame) -> pd.DataFrame:
        qt = (g.groupby("event_type", sort=False)["value"]
              .quantile([0.25, 0.5, 0.75], interpolation="linear")
              .unstack())
        return pd.DataFrame({
            "event_type": qt.index.to_numpy(),
            "q1": qt[0.25].to_numpy(),
            "median": qt[0.5].to_numpy(),
            "q3": qt[0.75].to_numpy()})

    q = (bucketed_group_apply(ds, "event_type", quart, num_buckets=8)
         .to_pandas())
    q["iqr"] = q["q3"] - q["q1"]
    q["lo_fence"] = q["q1"] - 1.5 * q["iqr"]
    q["hi_fence"] = q["q3"] + 1.5 * q["iqr"]
    fences = ray.put(q.set_index("event_type")[["lo_fence", "hi_fence"]])

    def fence_partial(t: pa.Table) -> pa.Table:
        f = ray.get(fences)
        df = pd.DataFrame({
            "event_type": t["event_type"].to_pandas(),
            "value": t["value"].to_numpy(zero_copy_only=False)})
        df = df.join(f, on="event_type")
        inside = ((df["value"] >= df["lo_fence"])
                  & (df["value"] <= df["hi_fence"])).to_numpy()
        v_in = pa.array(df["value"].to_numpy(), mask=~inside)
        return pa.table({"event_type": t["event_type"],
                         "whisker_lo": v_in, "whisker_hi": v_in,
                         "n_outliers": pa.array((~inside).astype("int64"))})

    w = grouped_partials(ds, "event_type", sums=["n_outliers"],
                         mins=["whisker_lo"], maxes=["whisker_hi"],
                         prep=fence_partial)
    out = q.merge(w, on="event_type")
    for c in ("q1", "median", "q3", "iqr", "whisker_lo", "whisker_hi"):
        out[c] = round2(out[c])
    out["n_outliers"] = out["n_outliers"].astype("int64")
    cols = ["event_type", "q1", "median", "q3", "iqr",
            "whisker_lo", "whisker_hi", "n_outliers"]
    return out[cols].sort_values("event_type").reset_index(drop=True)


BOXPLOT_SQL = """
WITH q AS (
  SELECT event_type,
         quantile_cont(value, 0.25) AS q1,
         quantile_cont(value, 0.50) AS med,
         quantile_cont(value, 0.75) AS q3
  FROM events GROUP BY event_type),
f AS (
  SELECT event_type, q1, med, q3, q3 - q1 AS iqr,
         q1 - 1.5 * (q3 - q1) AS lo_fence,
         q3 + 1.5 * (q3 - q1) AS hi_fence
  FROM q)
SELECT f.event_type,
       round(q1, 2) AS q1, round(med, 2) AS median,
       round(q3, 2) AS q3, round(iqr, 2) AS iqr,
       round(min(CASE WHEN e.value >= lo_fence THEN e.value END), 2)
         AS whisker_lo,
       round(max(CASE WHEN e.value <= hi_fence THEN e.value END), 2)
         AS whisker_hi,
       count(CASE WHEN e.value < lo_fence OR e.value > hi_fence
                  THEN 1 END)::BIGINT AS n_outliers
FROM f JOIN events e ON e.event_type = f.event_type
GROUP BY f.event_type, q1, med, q3, iqr
ORDER BY f.event_type
"""


def event_user_chisq(sf_dir: str):
    """χ² test of independence between event_type and a derived user
    cohort (user_id mod 3): ONE distributed contingency-table count
    (the only exchange — |types|·|cohorts| cells), expected counts and
    the statistic assembled from the tiny table. The
    feature-vs-label dependence screen for dataset curation."""
    ev = _read(sf_dir, "events", ["event_type", "user_id"])

    def cohorted(t: pa.Table) -> pa.Table:
        u = t["user_id"].to_numpy(zero_copy_only=False)
        return pa.table({"event_type": t["event_type"],
                         "cohort": pa.array(u % 3, pa.int64())})

    cells = grouped_partials(ev, ["event_type", "cohort"], count="n",
                             prep=cohorted)
    pivot = (cells.pivot_table(index="event_type", columns="cohort",
                               values="n", fill_value=0,
                               aggfunc="sum").astype("float64"))
    o = pivot.to_numpy()
    row = o.sum(axis=1, keepdims=True)
    col = o.sum(axis=0, keepdims=True)
    e = row @ col / o.sum()
    chi2 = float(((o - e) ** 2 / e).sum())
    dof = (o.shape[0] - 1) * (o.shape[1] - 1)
    return pd.DataFrame({"chi2": [round6(chi2)],
                         "dof": [np.int64(dof)]})


CHISQ_SQL = """
WITH c AS (
  SELECT event_type, user_id % 3 AS cohort, count(*)::DOUBLE AS n
  FROM events GROUP BY event_type, cohort),
keys AS (SELECT DISTINCT event_type FROM events),
coh AS (SELECT DISTINCT user_id % 3 AS cohort FROM events),
grid AS (
  SELECT k.event_type, h.cohort, coalesce(c.n, 0) AS n
  FROM keys k CROSS JOIN coh h
  LEFT JOIN c ON c.event_type = k.event_type AND c.cohort = h.cohort),
tot AS (SELECT sum(n) AS t FROM grid),
m AS (
  SELECT event_type, cohort, n,
         sum(n) OVER (PARTITION BY event_type) AS row_n,
         sum(n) OVER (PARTITION BY cohort) AS col_n
  FROM grid)
SELECT round(sum((n - row_n * col_n / t) ^ 2 / (row_n * col_n / t)),
             6) AS chi2,
       ((count(DISTINCT event_type) - 1)
        * (count(DISTINCT cohort) - 1))::BIGINT AS dof
FROM m, tot
"""


def lineitem_price_outliers(sf_dir: str):
    """Model-based anomaly detection: per returnflag, OLS of
    extendedprice on quantity from ONE pass of mergeable raw moments
    (n, Σx, Σy, Σxy, Σx², Σy² — six scalars per group), residual σ in
    closed form from the same moments, then a second vectorized scan
    counts rows with |residual| > 2σ against the broadcast (slope,
    intercept, σ) table. No row-level data ever gathers."""
    import ray

    li = _lineitem(sf_dir, ["l_returnflag", "l_quantity",
                            "l_extendedprice"])

    def moments(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "f": t["l_returnflag"].to_pandas(),
            "x": t["l_quantity"].to_numpy(zero_copy_only=False),
            "y": t["l_extendedprice"].to_numpy(zero_copy_only=False)})
        return arrow_out(pd.DataFrame({
            "f": df["f"], "sx": df["x"], "sy": df["y"],
            "sxy": df["x"] * df["y"], "sxx": df["x"] ** 2,
            "syy": df["y"] ** 2}))

    m = grouped_partials(li, "f", sums=["sx", "sy", "sxy", "sxx", "syy"],
                         count="n", prep=moments)
    n, sx, sy = m["n"], m["sx"], m["sy"]
    sxy, sxx, syy = m["sxy"], m["sxx"], m["syy"]
    slope = (n * sxy - sx * sy) / (n * sxx - sx ** 2)
    intercept = (sy - slope * sx) / n
    # Σ resid² = Σy² − 2aΣy − 2bΣxy + na² + 2abΣx + b²Σx²
    ss = (syy - 2 * intercept * sy - 2 * slope * sxy
          + n * intercept ** 2 + 2 * intercept * slope * sx
          + slope ** 2 * sxx)
    sigma = np.sqrt(ss / (n - 1))
    model = pd.DataFrame({"f": m["f"], "slope": slope,
                          "intercept": intercept, "sigma": sigma})
    mref = ray.put(model.set_index("f"))

    def count_out(t: pa.Table) -> pa.Table:
        mm = ray.get(mref)
        df = pd.DataFrame({
            "f": t["l_returnflag"].to_pandas(),
            "x": t["l_quantity"].to_numpy(zero_copy_only=False),
            "y": t["l_extendedprice"].to_numpy(zero_copy_only=False)})
        df = df.join(mm, on="f")
        resid = df["y"] - (df["intercept"] + df["slope"] * df["x"])
        return pa.table({"f": t["l_returnflag"], "n_outliers": pa.array(
            (resid.abs() > 2 * df["sigma"]).to_numpy().astype("int64"))})

    cnt = grouped_partials(li, "f", sums=["n_outliers"], count="n",
                           prep=count_out)
    out = model.merge(cnt, on="f").rename(columns={"f": "l_returnflag"})
    # round(4): the raw-moment closed form and DuckDB's stable
    # single-pass stddev agree to ~1e-6 absolute at Σy² ≈ 1e14 — the
    # 6th decimal is inside the cancellation noise, the 4th is not
    out["slope"] = out["slope"].round(4)
    out["intercept"] = out["intercept"].round(4)
    out["sigma"] = out["sigma"].round(4)
    out["n_outliers"] = out["n_outliers"].astype("int64")
    out["n"] = out["n"].astype("int64")
    return (out[["l_returnflag", "slope", "intercept", "sigma",
                 "n_outliers", "n"]]
            .sort_values("l_returnflag").reset_index(drop=True))


PRICE_OUTLIERS_SQL = """
WITH mdl AS (
  SELECT l_returnflag,
         regr_slope(l_extendedprice, l_quantity) AS slope,
         regr_intercept(l_extendedprice, l_quantity) AS intercept
  FROM lineitem GROUP BY l_returnflag),
sig AS (
  SELECT l.l_returnflag, m.slope, m.intercept,
         stddev_samp(l.l_extendedprice
                     - (m.intercept + m.slope * l.l_quantity)) AS sigma
  FROM lineitem l JOIN mdl m USING (l_returnflag)
  GROUP BY l.l_returnflag, m.slope, m.intercept)
SELECT s.l_returnflag,
       round(s.slope, 4) AS slope,
       round(s.intercept, 4) AS intercept,
       round(s.sigma, 4) AS sigma,
       count(CASE WHEN abs(l.l_extendedprice
                           - (s.intercept + s.slope * l.l_quantity))
                       > 2 * s.sigma THEN 1 END)::BIGINT AS n_outliers,
       count(*)::BIGINT AS n
FROM sig s JOIN lineitem l USING (l_returnflag)
GROUP BY s.l_returnflag, s.slope, s.intercept, s.sigma
ORDER BY s.l_returnflag
"""


def events_key_skew_profile(sf_dir: str):
    """Shuffle-skew profiler — the planning signal behind every
    salting/bucketing decision in this repo: per-key counts (ONE
    pre-aggregated groupby, the only exchange) reduce to the key
    distribution's Gini coefficient, Shannon entropy (bits), top-key
    share, and key count. Output is one row at any corpus size."""
    c = grouped_partials(_read(sf_dir, "events", ["event_type"]),
                         "event_type", count="n")
    x = np.sort(c["n"].to_numpy().astype("float64"))
    n = len(x)
    tot = x.sum()
    gini = (2 * np.sum(np.arange(1, n + 1) * x)) / (n * tot) \
        - (n + 1) / n
    p = x / tot
    entropy = float(-(p * np.log2(p)).sum())
    return pd.DataFrame({
        "n_keys": [np.int64(n)],
        "gini": [round6(float(gini))],
        "entropy_bits": [round6(entropy)],
        "top_share": [round6(float(x[-1] / tot))]})


KEY_SKEW_SQL = """
WITH c AS (
  SELECT event_type, count(*)::DOUBLE AS n FROM events
  GROUP BY event_type),
r AS (
  SELECT n, row_number() OVER (ORDER BY n) AS i,
         count(*) OVER () AS k, sum(n) OVER () AS tot
  FROM c)
SELECT max(k)::BIGINT AS n_keys,
       round(2 * sum(i * n) / (max(k) * max(tot))
             - (max(k) + 1.0) / max(k), 6) AS gini,
       round(-sum((n / tot) * log2(n / tot)), 6) AS entropy_bits,
       round(max(n) / max(tot), 6) AS top_share
FROM r
"""


def events_deletion_vectors(sf_dir: str):
    """Positional deletion vectors (state/delvec.py — the Iceberg-v2
    merge-on-read delete): events land as immutable parquet files, TWO
    predicate deletes write per-file position bitmaps (the second
    merges into the first, no data file rewritten), and the read
    applies each file's vector in place. The aggregate proves the
    surviving-row semantics; the oracle replays both predicates as a
    WHERE NOT. Per-type partials merge on the driver (5 keys)."""
    import shutil

    import pyarrow.compute as _pc
    import ray.data as rd

    from ..state.delvec import delete_where, read_with_deletes

    root = "/tmp/ptt_delvec_events"
    shutil.rmtree(root, ignore_errors=True)
    # metadata-free schema= so the READ op emits hashable block
    # schemas (same rationale as _read; this raw read bypasses it)
    src = os.path.join(sf_dir, "events.parquet")
    (rd.read_parquet(src, schema=_clean_schema(src),
                     override_num_blocks=8)
     .write_parquet(root))

    delete_where(root, lambda t: _pc.less(
        t["value"], pa.scalar(10.0)).to_numpy(zero_copy_only=False),
        columns=["value"])
    delete_where(root, lambda t: (
        t["event_id"].to_numpy(zero_copy_only=False) % 97 == 0),
        columns=["event_id"])

    out = grouped_partials(
        read_with_deletes(root, columns=["event_type", "value"]),
        "event_type", sums=["total_value"], count="n",
        prep=lambda t: t.rename_columns(["event_type", "total_value"]))
    out["total_value"] = round2(out["total_value"])
    return out


DELETION_VECTORS_SQL = """
SELECT event_type, count(*)::BIGINT AS n,
       round(sum(value), 2) AS total_value
FROM events
WHERE NOT (value < 10.0 OR event_id % 97 = 0)
GROUP BY event_type ORDER BY event_type
"""


# ── round-14 additions: KMV intersection sketch, weighted SSSP,
#    item-item recommender, hashed Naive Bayes ───────────────────────

_KMV_K = 64
_TWO64 = 18446744073709551616.0  # 2^64, exactly representable


def kmv_user_overlap(sf_dir: str, k: int = _KMV_K):
    """Theta/KMV set-INTERSECTION sketch (Beyer et al. 2007, Dasgupta
    et al. 2016): the distinct-user overlap between the 'view' and
    'purchase' audiences, estimated from mergeable k-minimum-values
    sketches — the cross-set estimator HLL fundamentally cannot give
    (HLL only merges unions; inclusion-exclusion compounds error).
    Hashes are the first 16 md5 hex digits of the user id (the
    engine-portable hash the SimHash oracle already uses), so the
    ENTIRE estimator — k-min selection, θ = min(θ_a, θ_b), overlap =
    |{h < θ in both}|·2⁶⁴/θ — replays exactly in SQL. Every batch
    contributes at most k hashes per audience (a global k-minimum is
    necessarily a batch k-minimum), so the exchange is payload-free
    and the driver merge is bounded by k·types·blocks no matter the
    corpus size. An audience with fewer than k distinct users degrades
    to exact mode (θ = 2⁶⁴); both modes replay in the oracle, so the
    sf0.001 (exact) and sf0.01 (estimating) gates exercise both."""
    from ..stages.dedup import _md5_token_hashes

    ds = _read(sf_dir, "events", ["user_id", "event_type"])
    types = ("view", "purchase")

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "user_id": t["user_id"].to_numpy(zero_copy_only=False),
            "event_type": t["event_type"].to_pandas()})
        df = df[df["event_type"].isin(types)].drop_duplicates()
        frames = []
        for et, g in df.groupby("event_type", sort=False):
            h = np.unique(_md5_token_hashes(
                g["user_id"].astype(str).to_numpy()))
            frames.append(pd.DataFrame({"event_type": et, "h": h[:k]}))
        if not frames:
            return pa.table({"event_type": pa.array([], pa.string()),
                             "h": pa.array([], pa.uint64())})
        return arrow_out(pd.concat(frames, ignore_index=True))

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()

    sk = {}
    for et in types:
        h = np.unique(parts.loc[parts["event_type"] == et, "h"]
                      .to_numpy(dtype=np.uint64))
        sk[et] = h[:k]  # sorted ascending → global k smallest

    def estimate(h: np.ndarray):
        if len(h) >= k:
            theta = int(h[k - 1])  # θ = h_(k); k-1 distinct hashes below
            return (k - 1) * _TWO64 / float(theta), theta
        return float(len(h)), None  # exact mode: sketch IS the set

    est_v, th_v = estimate(sk["view"])
    est_p, th_p = estimate(sk["purchase"])
    both = np.intersect1d(sk["view"], sk["purchase"])
    thetas = [t for t in (th_v, th_p) if t is not None]
    if not thetas:
        est_b = float(len(both))
    else:
        theta = min(thetas)
        s = int((both < np.uint64(theta)).sum())
        est_b = s * _TWO64 / float(theta)
    return pd.DataFrame({"k": np.array([k], dtype=np.int64),
                         "n_view_est": [est_v],
                         "n_purchase_est": [est_p],
                         "n_both_est": [est_b]})


KMV_OVERLAP_SQL = """
WITH uh AS (
  SELECT DISTINCT event_type,
         ('0x' || substr(md5(CAST(user_id AS VARCHAR)), 1, 16))::UBIGINT AS h
  FROM events WHERE event_type IN ('view', 'purchase')),
ranked AS (
  SELECT event_type, h,
         row_number() OVER (PARTITION BY event_type ORDER BY h) AS r
  FROM uh),
sk AS (SELECT event_type, h, r FROM ranked WHERE r <= 64),
st AS (SELECT event_type, count(*) AS n,
              max(CASE WHEN r = 64 THEN h END) AS kth
       FROM sk GROUP BY event_type),
est AS (SELECT event_type,
               CASE WHEN n >= 64 THEN
                 63.0 * 18446744073709551616.0 / CAST(kth AS DOUBLE)
               ELSE CAST(n AS DOUBLE) END AS e,
               CASE WHEN n >= 64 THEN kth END AS theta
        FROM st),
th AS (SELECT min(theta) AS theta FROM est),
inter AS (
  SELECT count(*) AS s
  FROM (SELECT h FROM sk WHERE event_type = 'view') a
  JOIN (SELECT h FROM sk WHERE event_type = 'purchase') b USING (h)
  CROSS JOIN th
  WHERE th.theta IS NULL OR a.h < th.theta)
SELECT 64::BIGINT AS k,
       (SELECT e FROM est WHERE event_type = 'view') AS n_view_est,
       (SELECT e FROM est WHERE event_type = 'purchase') AS n_purchase_est,
       (SELECT CASE WHEN th.theta IS NULL THEN CAST(inter.s AS DOUBLE)
               ELSE inter.s * 18446744073709551616.0
                    / CAST(th.theta AS DOUBLE) END
        FROM inter, th) AS n_both_est
"""


def _copurchase_pairs(li, num_buckets: int = 16):
    """Distinct co-purchase pair counts (src, dst, c = shared orders):
    per-order pair expansion inside orderkey hash buckets (each order
    contributes a pair once — (order, part) rows dedupe first), then a
    per-(src, dst) partial-count reduce. Two payload-free exchanges;
    the pair table never gathers."""
    from ..stages.groups import bucketed_group_apply

    def order_pairs(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates()
        m = d.merge(d, on="l_orderkey")
        m = m[m["l_partkey_x"] != m["l_partkey_y"]]
        p = (m.groupby(["l_partkey_x", "l_partkey_y"], sort=False)
             .size().reset_index(name="c"))
        return p.rename(columns={"l_partkey_x": "src",
                                 "l_partkey_y": "dst"})

    partials = bucketed_group_apply(li, "l_orderkey", order_pairs,
                                    num_buckets=num_buckets)

    def total(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(["src", "dst"], as_index=False)["c"].sum()

    return bucketed_group_apply(partials, ["src", "dst"], total,
                                num_buckets=num_buckets)


def part_copurchase_sssp(sf_dir: str, max_rounds: int = 6):
    """Weighted single-source shortest paths over the co-purchase
    graph — Bellman-Ford relaxation rounds, the label-correcting
    scheme that distributes (Dijkstra's priority queue is inherently
    serial). Edge weight = max(1, 10 − |shared orders|): strongly
    co-purchased parts are cheap hops. Edges build distributed via
    ``_copurchase_pairs``; each round broadcasts the bounded dist
    vector (|parts|-sized, exactly like pagerank's rank vector) and
    relaxes every edge in one vectorized searchsorted scan,
    min-combining per batch so only candidate (dst, d) minima leave
    workers. A converged round is a no-op, so the unrolled-CTE oracle
    with the same round budget replays it exactly (integer weights —
    no float-summation divergence to absorb)."""
    import ray
    from ray.data.aggregate import Min

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def weigh(t: pa.Table) -> pa.Table:
        c = t["c"].to_numpy(zero_copy_only=False)
        w = np.maximum(1, 10 - c).astype(np.int64)
        return pa.table({"src": t["src"], "dst": t["dst"],
                         "w": pa.array(w, pa.int64())})

    # pinned once: the edge set is scanned max_rounds times
    edges = (_copurchase_pairs(li)
             .map_batches(weigh, batch_format="pyarrow").materialize())

    src = int(li.aggregate(Min("l_partkey"))["min(l_partkey)"])
    dist: dict[int, int] = {src: 0}
    for _ in range(max_rounds):
        keys = np.fromiter(dist.keys(), dtype=np.int64, count=len(dist))
        vals = np.fromiter(dist.values(), dtype=np.int64, count=len(dist))
        order = np.argsort(keys)
        ref = ray.put((keys[order], vals[order]))

        def relax(t: pa.Table, ref=ref) -> pa.Table:
            k, v = ray.get(ref)
            hit, idx = probe_sorted(k, t["src"].to_numpy(zero_copy_only=False))
            dst = t["dst"].to_numpy(zero_copy_only=False)[hit]
            d = v[idx[hit]] + t["w"].to_numpy(zero_copy_only=False)[hit]
            if len(dst) == 0:
                return pa.table({"dst": pa.array([], pa.int64()),
                                 "d": pa.array([], pa.int64())})
            o = np.lexsort((d, dst))
            dst, d = dst[o], d[o]
            first = np.ones(len(dst), dtype=bool)
            first[1:] = dst[1:] != dst[:-1]
            return pa.table({"dst": pa.array(dst[first], pa.int64()),
                             "d": pa.array(d[first], pa.int64())})

        mins = grouped_partials(edges, "dst", mins=["d"], prep=relax)
        changed = False
        for node, d in zip(mins["dst"], mins["d"]):
            node, d = int(node), int(d)
            if d < dist.get(node, 1 << 62):
                dist[node] = d
                changed = True
        if not changed:
            break
    out = pd.DataFrame({
        "node": np.fromiter(dist.keys(), dtype=np.int64, count=len(dist)),
        "dist": np.fromiter(dist.values(), dtype=np.int64,
                            count=len(dist))})
    return out.sort_values("node").reset_index(drop=True)


def _sssp_sql(rounds: int = 6) -> str:
    """Unrolled Bellman-Ford: dN = min(dN-1, min over edges of
    dN-1(src) + w) — a recursive UNION ALL CTE would enumerate every
    ≤N-hop path (combinatorial on a dense co-purchase graph)."""
    prev = "d0"
    steps = []
    for i in range(1, rounds + 1):
        steps.append(
            f"d{i} AS (SELECT node, min(d)::BIGINT AS d FROM ("
            f"SELECT node, d FROM {prev} UNION ALL "
            f"SELECT e.dst, {prev}.d + e.w FROM {prev} "
            f"JOIN edges e ON e.src = {prev}.node) GROUP BY node)")
        prev = f"d{i}"
    return f"""
WITH lp AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
edges AS (SELECT a.l_partkey AS src, b.l_partkey AS dst,
                 greatest(1, 10 - count(*))::BIGINT AS w
          FROM lp a JOIN lp b ON a.l_orderkey = b.l_orderkey
                              AND a.l_partkey <> b.l_partkey
          GROUP BY 1, 2),
d0(node, d) AS (SELECT min(l_partkey), 0::BIGINT FROM lineitem),
{",".join(steps)}
SELECT node, d AS dist FROM {prev} ORDER BY node
"""


SSSP_SQL = _sssp_sql(6)


def part_recommendations(sf_dir: str, topn: int = 3):
    """Item-item collaborative-filtering recommender (the classic
    co-occurrence cosine of Sarwar et al. 2001 / Amazon item-to-item):
    sim(a, b) = |orders with both| / sqrt(|orders with a| · |orders
    with b|), top-3 neighbors per part. Pair counts build distributed
    (``_copurchase_pairs``); per-part order totals reduce in partkey
    hash buckets and broadcast as one sorted array (bounded by
    |parts|, like a rank vector); scoring is a vectorized searchsorted
    gather + one sqrt per pair; ranking runs inside src-hash buckets.
    The cosine is a single-expression double over exact integers —
    deterministic bit-for-bit, so the oracle hash-checks scores, not
    just ranks."""
    import ray

    from ..stages.groups import bucketed_group_apply

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    pairs = _copurchase_pairs(li)

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        return (df.drop_duplicates()
                .groupby("l_partkey", as_index=False).size()
                .rename(columns={"size": "n"}))

    tot = bucketed_group_apply(li, "l_partkey", per_part,
                               num_buckets=16).to_pandas()
    keys = tot["l_partkey"].to_numpy(dtype=np.int64)
    ns = tot["n"].to_numpy(dtype=np.int64)
    o = np.argsort(keys)
    ref = ray.put((keys[o], ns[o]))

    def score(t: pa.Table, ref=ref) -> pd.DataFrame:
        k, n = ray.get(ref)
        src = t["src"].to_numpy(zero_copy_only=False)
        dst = t["dst"].to_numpy(zero_copy_only=False)
        c = t["c"].to_numpy(zero_copy_only=False)
        na = n[np.searchsorted(k, src)]
        nb = n[np.searchsorted(k, dst)]
        sim = c / np.sqrt((na * nb).astype(np.float64))
        return pa.table({"p_partkey": pa.array(src, pa.int64()),
                         "rec_partkey": pa.array(dst, pa.int64()),
                         "sim": pa.array(sim, pa.float64())})

    scored = pairs.map_batches(score, batch_format="pyarrow")

    def top(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["p_partkey", "sim", "rec_partkey"],
                          ascending=[True, False, True], kind="stable")
        g = g.assign(rank=g.groupby("p_partkey", sort=False).cumcount() + 1)
        return g[g["rank"] <= topn]

    out = bucketed_group_apply(scored, "p_partkey", top,
                               num_buckets=16).to_pandas()
    out = out.astype({"p_partkey": "int64", "rec_partkey": "int64",
                      "rank": "int64"})
    return (out[["p_partkey", "rec_partkey", "sim", "rank"]]
            .sort_values(["p_partkey", "rank"]).reset_index(drop=True))


PART_RECS_SQL = """
WITH lp AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
tot AS (SELECT l_partkey, count(*) AS n FROM lp GROUP BY l_partkey),
co AS (SELECT a.l_partkey AS src, b.l_partkey AS dst, count(*) AS c
       FROM lp a JOIN lp b ON a.l_orderkey = b.l_orderkey
                           AND a.l_partkey <> b.l_partkey
       GROUP BY 1, 2),
scored AS (
  SELECT co.src AS p_partkey, co.dst AS rec_partkey,
         co.c / sqrt(CAST(ta.n * tb.n AS DOUBLE)) AS sim
  FROM co JOIN tot ta ON ta.l_partkey = co.src
          JOIN tot tb ON tb.l_partkey = co.dst),
ranked AS (
  SELECT p_partkey, rec_partkey, sim,
         row_number() OVER (PARTITION BY p_partkey
                            ORDER BY sim DESC, rec_partkey) AS rank
  FROM scored)
SELECT p_partkey, rec_partkey, sim, rank::BIGINT AS rank
FROM ranked WHERE rank <= 3 ORDER BY p_partkey, rank
"""


_NB_BUCKETS = 65536


def nb_lang_classify(sf_dir: str):
    """Multinomial Naive Bayes language classifier with the hashing
    trick (Weinberger et al. 2009): tokens hash into 2¹⁶ buckets via
    the portable md5-derived 64-bit hash, so the MODEL is a fixed
    langs × 65536 count matrix regardless of corpus vocabulary — the
    bound that lets the same code train on 100 TB (per-batch (lang,
    bucket) partial counts; the driver merge and the broadcast
    log-prob matrix are model-sized, never corpus-sized). Laplace
    smoothing ln((c+1)/(t+B)); prediction is one vectorized gather +
    grouped sum per language over each doc's bucket counts. Output is
    the per-doc argmax label only (ties → lang asc): label decisions
    are stable under the ~1-ulp ln/summation-order differences between
    engines, unlike raw log-prob floats. Docs with no tokens are
    excluded (matching the SQL inner join on the token explode)."""
    import ray

    from ..stages.dedup import _md5_token_hashes

    docs = _read(sf_dir, "documents", ["doc_id", "text", "lang"])

    def tokens(t: pa.Table) -> pa.Table:
        b = t.to_pandas()
        toks = b["text"].fillna("").str.lower().str.split(" ")
        flat = toks.explode()
        flat = flat[flat.notna() & (flat != "")]
        if flat.empty:
            return pa.table({"lang": pa.array([], pa.string()),
                             "b": pa.array([], pa.int64())})
        buckets = (_md5_token_hashes(flat.to_numpy(dtype=object))
                   % np.uint64(_NB_BUCKETS)).astype(np.int64)
        return pa.table({"lang": b["lang"].reindex(flat.index).to_numpy(),
                         "b": buckets})

    # driver merge bounded by langs × buckets × blocks (model-sized)
    counts = grouped_partials(docs, ["lang", "b"], count="c", prep=tokens)
    langs = sorted(counts["lang"].unique())
    totals = counts.groupby("lang")["c"].sum()

    n_docs = docs.count()
    lang_docs = grouped_partials(docs, "lang", count="n") \
        .set_index("lang")["n"]

    logp = {}
    priors = {}
    for lang in langs:
        vec = np.zeros(_NB_BUCKETS, dtype=np.float64)
        sub = counts[counts["lang"] == lang]
        vec[sub["b"].to_numpy()] = sub["c"].to_numpy(dtype=np.float64)
        t = float(totals[lang])
        logp[lang] = np.log((vec + 1.0) / (t + float(_NB_BUCKETS)))
        priors[lang] = float(np.log(int(lang_docs[lang]) / float(n_docs)))
    model_ref = ray.put((langs, priors, logp))

    def predict(b: pd.DataFrame, ref=model_ref) -> pa.Table:
        langs, priors, logp = ray.get(ref)
        toks = b["text"].fillna("").str.lower().str.split(" ")
        flat = toks.explode()
        flat = flat[flat.notna() & (flat != "")]
        if flat.empty:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "pred_lang": pa.array([], pa.string())})
        buckets = (_md5_token_hashes(flat.to_numpy(dtype=object))
                   % np.uint64(_NB_BUCKETS)).astype(np.int64)
        db = (pd.DataFrame({"i": flat.index, "b": buckets})
              .groupby(["i", "b"], as_index=False).size())
        c = db["size"].to_numpy(dtype=np.float64)
        bs = db["b"].to_numpy()
        scores = np.stack([
            pd.Series(c * logp[lang][bs]).groupby(db["i"].to_numpy()).sum()
            .to_numpy() + priors[lang]
            for lang in langs], axis=1)
        idx = np.sort(db["i"].unique())
        best = np.argmax(scores, axis=1)  # ties → lowest index = lang asc
        return arrow_out(pd.DataFrame({
            "doc_id": b["doc_id"].reindex(idx).to_numpy(dtype=np.int64),
            "pred_lang": np.array(langs, dtype=object)[best]}))

    out = (docs.map_batches(predict, batch_format="pandas").to_pandas())
    return out.sort_values("doc_id").reset_index(drop=True)


NB_LANG_SQL = """
WITH toks AS (
  SELECT doc_id, lang, tok FROM (
    SELECT doc_id, lang,
           unnest(string_split(lower(coalesce(text, '')), ' ')) AS tok
    FROM documents) WHERE tok <> ''),
tb AS (SELECT doc_id, lang,
              ('0x' || substr(md5(tok), 1, 16))::UBIGINT % 65536 AS b
       FROM toks),
cb AS (SELECT lang, b, count(*) AS c FROM tb GROUP BY lang, b),
tot AS (SELECT lang, count(*) AS t FROM tb GROUP BY lang),
prior AS (SELECT lang,
                 ln(count(*) / (SELECT count(*)::DOUBLE FROM documents))
                   AS lp
          FROM documents GROUP BY lang),
docb AS (SELECT doc_id, b, count(*) AS c FROM tb GROUP BY doc_id, b),
score AS (
  SELECT d.doc_id, t.lang,
         any_value(p.lp)
         + sum(d.c * ln((coalesce(cb.c, 0) + 1)
                        / (t.t + 65536)::DOUBLE)) AS s
  FROM docb d
  CROSS JOIN tot t
  LEFT JOIN cb ON cb.lang = t.lang AND cb.b = d.b
  JOIN prior p ON p.lang = t.lang
  GROUP BY d.doc_id, t.lang, t.t)
SELECT doc_id, lang AS pred_lang
FROM (SELECT doc_id, lang,
             row_number() OVER (PARTITION BY doc_id
                                ORDER BY s DESC, lang) AS r
      FROM score)
WHERE r = 1 ORDER BY doc_id
"""


def event_value_auc(sf_dir: str):
    """Distributed ROC-AUC of ``value`` as a purchase-vs-rest score —
    the model-evaluation primitive (Mann-Whitney U). The rank-sum is
    computed EXACTLY as integers, so the result hashes deterministically:
    rows pre-aggregate per batch to (value, pos, neg) partials, range-
    bucket by value, and each bucket reduces sorted distinct values to
    ONE partial row (pairs won within the bucket + its pos/neg totals);
    the driver stitches B scalars with an exclusive prefix of earlier
    buckets' neg counts. No row-level sort, no driver loop over rows;
    AUC = (2*Σ pos·neg_below + Σ pos·neg_tied) / (2·P·N)."""
    from ray.data.aggregate import Max, Min

    ev = _read(sf_dir, "events", ["event_type", "value"])
    mm = ev.aggregate(Min("value"), Max("value"))
    lo, hi = float(mm["min(value)"]), float(mm["max(value)"])
    span = max(hi - lo, 1e-12)
    nb = 32

    def partial(t: pa.Table) -> pa.Table:
        v = t["value"].to_numpy(zero_copy_only=False)
        pos = (t["event_type"].to_numpy(zero_copy_only=False)
               == "purchase").astype("int64")
        keep = ~np.isnan(v)
        df = pd.DataFrame({"value": v[keep], "pos": pos[keep]})
        df["neg"] = 1 - df["pos"]
        g = df.groupby("value", as_index=False).agg(
            pos=("pos", "sum"), neg=("neg", "sum"))
        b = np.minimum(((g["value"].to_numpy() - lo) / span * nb)
                       .astype(np.int64), nb - 1)
        g["_rbucket"] = np.maximum(b, 0)
        return arrow_out(g)

    def reduce_bucket(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        g = (df.groupby("value", as_index=False)
             .agg(pos=("pos", "sum"), neg=("neg", "sum"))
             .sort_values("value"))
        negb = g["neg"].cumsum().shift(fill_value=0)
        contrib2 = int((2 * g["pos"] * negb + g["pos"] * g["neg"]).sum())
        return arrow_out(pd.DataFrame({
            "_rbucket": [int(df["_rbucket"].iloc[0])],
            "pos": [int(g["pos"].sum())], "neg": [int(g["neg"].sum())],
            "contrib2": [contrib2]}))

    parts = (ev.map_batches(partial, batch_format="pyarrow")
             .groupby("_rbucket")
             .map_groups(reduce_bucket, batch_format="pyarrow")
             .to_pandas().sort_values("_rbucket"))
    negb_prior = parts["neg"].cumsum().shift(fill_value=0)
    u2 = int(parts["contrib2"].sum()
             + (2 * parts["pos"] * negb_prior).sum())
    n_pos, n_neg = int(parts["pos"].sum()), int(parts["neg"].sum())
    return pd.DataFrame({
        "n_pos": pd.Series([n_pos], dtype="int64"),
        "n_neg": pd.Series([n_neg], dtype="int64"),
        "auc": [round6(u2 / (2.0 * n_pos * n_neg))]})


AUC_SQL = """
WITH l AS (
  SELECT value AS s,
         CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END AS y
  FROM events WHERE value IS NOT NULL),
g AS (SELECT s, sum(y)::BIGINT AS pos, sum(1 - y)::BIGINT AS neg
      FROM l GROUP BY s),
c AS (SELECT s, pos, neg,
             coalesce(sum(neg) OVER (ORDER BY s
               ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
               AS negb
      FROM g),
t AS (SELECT sum(pos)::BIGINT AS n_pos, sum(neg)::BIGINT AS n_neg,
             sum(2 * pos * negb + pos * neg)::BIGINT AS u2
      FROM c)
SELECT n_pos, n_neg, round(u2 / (2.0 * n_pos * n_neg), 6) AS auc FROM t
"""


def event_value_cusum(sf_dir: str):
    """Per-type one-sided CUSUM changepoint monitor (Page 1954): the
    non-associative recurrence S_i = max(0, S_{i-1} + z_i - K) is
    vectorized through the prefix-sum identity S_i = P_i - min(0,
    cummin P) — one grouped cumsum + one grouped cummin per bucket, no
    sequential loop. Per-type mean/std come from one mergeable-moments
    pass (broadcast: 5 scalars per type) and are rounded to 9 dp so
    the standardization is bit-identical to the SQL replay; alarms
    compare round(S, 9) > h for the same reason. K = 0.5 sigma,
    h = 4 sigma (standard ARL choices)."""
    from ..stages.groups import bucketed_group_apply

    ev = _read(sf_dir, "events", ["event_type", "ts", "event_id",
                                  "value"])

    def mom(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "event_type": t["event_type"].to_numpy(zero_copy_only=False),
            "v": t["value"].to_numpy(zero_copy_only=False)})
        # NULL values must not count toward n (SQL avg/stddev_pop skip
        # them; pandas size does not) — drop them like event_value_auc.
        df = df[~np.isnan(df["v"].to_numpy())]
        return arrow_out(pd.DataFrame({"event_type": df["event_type"],
                                       "s": df["v"],
                                       "ss": df["v"] * df["v"]}))

    p = grouped_partials(ev, "event_type", sums=["s", "ss"], count="n",
                         prep=mom)
    m = p["s"] / p["n"]
    sd = np.sqrt(p["ss"] / p["n"] - m * m)
    stats = {t: (round(float(mu), 9), round(float(s), 9))
             for t, mu, s in zip(p["event_type"], m, sd)}

    def cusum(df: pd.DataFrame) -> pd.DataFrame:
        df = df[~np.isnan(df["value"].to_numpy())]
        df = df.sort_values(["event_type", "ts", "event_id"],
                            kind="stable")
        ms = df["event_type"].map(lambda t: stats[t][0]).to_numpy()
        sds = df["event_type"].map(lambda t: stats[t][1]).to_numpy()
        a = (df["value"].to_numpy() - ms) / sds - 0.5
        pv = pd.Series(a, index=df.index).groupby(
            df["event_type"], sort=False).cumsum()
        cmin = pv.groupby(df["event_type"], sort=False).cummin()
        s = np.round(pv.to_numpy() - np.minimum(0.0, cmin.to_numpy()), 9)
        alarm = s > 4.0
        out = pd.DataFrame({"event_type": df["event_type"],
                            "ts": df["ts"], "s": s, "alarm": alarm})
        res = out.groupby("event_type", as_index=False).agg(
            n=("s", "size"), max_cusum=("s", "max"))
        al = (out[out["alarm"]].groupby("event_type", as_index=False)
              .agg(n_alarms=("alarm", "sum"),
                   first_alarm_ts=("ts", "min")))
        res = res.merge(al, on="event_type", how="left")
        res["n_alarms"] = res["n_alarms"].fillna(0).astype("int64")
        res["n"] = res["n"].astype("int64")
        res["max_cusum"] = round6(res["max_cusum"])
        # force datetime64 even when this bucket saw zero alarms, so
        # every bucket's Arrow schema unifies to timestamp (an all-NaN
        # float column would poison the exchange's type homogeneity)
        res["first_alarm_ts"] = pd.to_datetime(res["first_alarm_ts"])
        return res

    out = (bucketed_group_apply(ev, "event_type", cusum, num_buckets=8)
           .to_pandas())
    out["n"] = out["n"].astype("int64")
    out["n_alarms"] = out["n_alarms"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


CUSUM_SQL = """
WITH st AS (
  SELECT event_type, round(avg(value), 9) AS m,
         round(stddev_pop(value), 9) AS sd
  FROM events GROUP BY event_type),
a AS (
  SELECT e.event_type, ts, event_id, (value - m) / sd - 0.5 AS a
  FROM events e JOIN st USING (event_type)
  WHERE value IS NOT NULL),
p AS (
  SELECT event_type, ts, event_id,
         sum(a) OVER (PARTITION BY event_type ORDER BY ts, event_id)
           AS pv
  FROM a),
s AS (
  SELECT event_type, ts,
         round(pv - least(0, min(pv) OVER (
             PARTITION BY event_type ORDER BY ts, event_id
             ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)), 9)
           AS s
  FROM p)
SELECT event_type, count(*)::BIGINT AS n,
       round(max(s), 6) AS max_cusum,
       coalesce(sum(CASE WHEN s > 4.0 THEN 1 ELSE 0 END), 0)::BIGINT
         AS n_alarms,
       min(ts) FILTER (WHERE s > 4.0) AS first_alarm_ts
FROM s GROUP BY event_type ORDER BY event_type
"""


def ab_test_value_welch(sf_dir: str):
    """Per-type Welch two-sample t-test between deterministic A/B arms
    (arm = user_id % 2) — the experiment-analysis primitive. One
    streaming pass of mergeable (n, Σx, Σx²) partials per (type, arm);
    the t statistic and Welch–Satterthwaite df come from the ten-row
    merged frame on the driver. No shuffle carries values."""
    ev = _read(sf_dir, "events", ["event_type", "user_id", "value"])

    def mom(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "event_type": t["event_type"].to_numpy(zero_copy_only=False),
            "arm": (t["user_id"].to_numpy(zero_copy_only=False) % 2)
            .astype("int64"),
            "v": t["value"].to_numpy(zero_copy_only=False)})
        return arrow_out(df.rename(columns={"v": "s"})
                         .assign(ss=df["v"] * df["v"]))

    p = grouped_partials(ev, ["event_type", "arm"], sums=["s", "ss"],
                         count="n", prep=mom)
    p["mean"] = p["s"] / p["n"]
    p["var"] = (p["ss"] - p["s"] ** 2 / p["n"]) / (p["n"] - 1)
    a = p[p["arm"] == 0].set_index("event_type")
    b = p[p["arm"] == 1].set_index("event_type")
    types = sorted(set(a.index) & set(b.index))
    a, b = a.loc[types], b.loc[types]
    se2 = a["var"] / a["n"] + b["var"] / b["n"]
    t_stat = (a["mean"] - b["mean"]) / np.sqrt(se2)
    df_w = se2 ** 2 / ((a["var"] / a["n"]) ** 2 / (a["n"] - 1)
                       + (b["var"] / b["n"]) ** 2 / (b["n"] - 1))
    return pd.DataFrame({
        "event_type": types,
        "n_a": a["n"].astype("int64").to_numpy(),
        "n_b": b["n"].astype("int64").to_numpy(),
        "mean_a": round6(a["mean"]),
        "mean_b": round6(b["mean"]),
        "t_stat": t_stat.round(4).to_numpy(),
        "df_welch": df_w.round(2).to_numpy()})


WELCH_SQL = """
WITH g AS (SELECT event_type, user_id % 2 AS arm, value FROM events),
m AS (SELECT event_type, arm, count(*)::BIGINT AS n,
             sum(value) AS s, sum(value * value) AS ss
      FROM g GROUP BY event_type, arm),
v AS (SELECT event_type, arm, n, s / n AS mean,
             (ss - s * s / n) / (n - 1) AS var
      FROM m),
w AS (SELECT a.event_type, a.n AS n_a, b.n AS n_b,
             a.mean AS mean_a, b.mean AS mean_b,
             a.var / a.n + b.var / b.n AS se2,
             a.var / a.n AS va, b.var / b.n AS vb,
             a.n AS na, b.n AS nb2
      FROM v a JOIN v b ON a.event_type = b.event_type
      WHERE a.arm = 0 AND b.arm = 1)
SELECT event_type, n_a, n_b,
       round(mean_a, 6) AS mean_a, round(mean_b, 6) AS mean_b,
       round((mean_a - mean_b) / sqrt(se2), 4) AS t_stat,
       round(se2 * se2 / (va * va / (na - 1) + vb * vb / (nb2 - 1)), 2)
         AS df_welch
FROM w ORDER BY event_type
"""


def doc_fingerprint_clusters(sf_dir: str):
    """OpenRefine-style key-collision clustering for data cleaning:
    each doc's fingerprint is its unique lowercase [a-z0-9]+ tokens,
    sorted and space-joined (order/casing/punctuation/duplication-
    insensitive), md5'd so only a 32-char key shuffles — never the
    text. The fingerprint is built VECTORIZED (explode → dedup → sort
    → grouped join, all pandas kernels over the whole batch); clusters
    with >= 2 members reduce in hash buckets."""
    import hashlib

    from ..stages.groups import bucketed_group_apply

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def fp(b: pd.DataFrame) -> pa.Table:
        s = b["text"].fillna("").str.lower()
        ex = (s.str.findall("[a-z0-9]+").explode().dropna()
              .rename("w").rename_axis("i").reset_index())
        dd = ex.drop_duplicates().sort_values(["i", "w"])
        joined = dd.groupby("i")["w"].agg(" ".join) \
            .reindex(b.index, fill_value="")
        return arrow_out(pd.DataFrame({
            "doc_id": b["doc_id"].astype("int64"),
            "fp_md5": joined.map(
                lambda x: hashlib.md5(x.encode()).hexdigest()).to_numpy(),
        }))

    keyed = docs.map_batches(fp, batch_format="pandas")

    def clusters(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("fp_md5", as_index=False).agg(
            n_docs=("doc_id", "size"), min_doc_id=("doc_id", "min"))
        g = g[g["n_docs"] >= 2]
        # explicit dtypes so a bucket whose every group filters below
        # n>=2 still emits a string-typed (not null-typed) empty block
        return g.astype({"fp_md5": "string", "n_docs": "int64",
                         "min_doc_id": "int64"})

    out = (bucketed_group_apply(keyed, "fp_md5", clusters,
                                num_buckets=16).to_pandas())
    out["n_docs"] = out["n_docs"].astype("int64")
    return out.sort_values("fp_md5").reset_index(drop=True)


FINGERPRINT_CLUSTERS_SQL = """
WITH f AS (
  SELECT doc_id,
         md5(array_to_string(list_sort(list_distinct(
             regexp_extract_all(lower(coalesce(text, '')),
                                '[a-z0-9]+'))), ' ')) AS fp_md5
  FROM documents)
SELECT fp_md5, count(*)::BIGINT AS n_docs, min(doc_id) AS min_doc_id
FROM f GROUP BY fp_md5 HAVING count(*) >= 2 ORDER BY fp_md5
"""


def langid_agreement_kappa(sf_dir: str):
    """Cohen's kappa between the declared ``lang`` label and the
    stopword-argmax language heuristic — the annotator-agreement
    metric that corrects raw accuracy for chance. The confusion matrix
    builds from distributed (actual, predicted) count partials (tiny:
    |langs|² rows); po/pe/kappa are exact-integer ratios computed with
    the same expression shapes as the SQL replay."""
    docs = _read(sf_dir, "documents", ["doc_id", "text", "lang"])
    sets = {k: frozenset(v) for k, v in _STOPWORDS.items()}
    langs_sorted = np.array(sorted(sets))

    def conf(t: pa.Table) -> pa.Table:
        b = t.to_pandas()
        toks = b["text"].fillna("").str.lower().str.split(" ")
        flat = toks.explode()
        flat = flat[flat.notna() & (flat != "")]
        counts = []
        for lang in sorted(sets):
            hit = flat[flat.isin(sets[lang])].groupby(level=0).size()
            counts.append(hit.reindex(b.index, fill_value=0).to_numpy())
        mat = np.stack(counts, axis=1)
        best = np.argmax(mat, axis=1)
        pred = np.where(mat.max(axis=1) > 0, langs_sorted[best], "und")
        return pa.table({"a": b["lang"].to_numpy(), "b": pred})

    cm = grouped_partials(docs, ["a", "b"], count="c", prep=conf)
    n = int(cm["c"].sum())
    tr = int(cm.loc[cm["a"] == cm["b"], "c"].sum())
    ra = cm.groupby("a")["c"].sum()
    rb = cm.groupby("b")["c"].sum()
    labs = sorted(set(ra.index) | set(rb.index))
    sab = int(sum(int(ra.get(c, 0)) * int(rb.get(c, 0)) for c in labs))
    po = tr / float(n)
    pe = sab / (float(n) * n)
    return pd.DataFrame({
        "n_docs": pd.Series([n], dtype="int64"),
        "po": [round6(po)], "pe": [round6(pe)],
        "kappa": [round6((po - pe) / (1.0 - pe))]})


KAPPA_SQL = f"""
WITH pred AS ({STOPWORD_LANG_SQL.strip()}),
j AS (SELECT d.lang AS a, p.top_lang AS b
      FROM documents d JOIN pred p USING (doc_id)),
c AS (SELECT count(*)::BIGINT AS n,
             sum(CASE WHEN a = b THEN 1 ELSE 0 END)::BIGINT AS tr
      FROM j),
ma AS (SELECT a AS lab, count(*)::BIGINT AS ca FROM j GROUP BY a),
mb AS (SELECT b AS lab, count(*)::BIGINT AS cb FROM j GROUP BY b),
pe AS (SELECT sum(ca * cb)::BIGINT AS sab FROM ma JOIN mb USING (lab))
SELECT c.n AS n_docs,
       round(tr / c.n::DOUBLE, 6) AS po,
       round(sab / (c.n::DOUBLE * c.n), 6) AS pe,
       round((tr / c.n::DOUBLE - sab / (c.n::DOUBLE * c.n))
             / (1.0 - sab / (c.n::DOUBLE * c.n)), 6) AS kappa
FROM c, pe
"""


# ── round-15 additions: temporal PIT join, link prediction, model
#    calibration, forecast backtest, local clustering, ranking eval ──

def user_state_at_purchase(sf_dir: str):
    """Point-in-time dimension lookup (the feature-store join): each
    purchase event joins to the user's SCD2 state history built from
    the NON-purchase stream — the run whose [valid_from, next
    valid_from) interval contains the purchase ts; purchases before
    any state row get 'none'. Users hash-bucket ONCE; the
    gaps-and-islands dim build and the as-of probe (pd.merge_asof,
    ties to the latest run like the oracle's valid_from DESC, rid
    DESC) both run vectorized inside the bucket, so neither stream
    crosses the exchange twice."""
    from ..stages.groups import bucketed_group_apply

    ev = _read(sf_dir, "events",
               ["event_id", "user_id", "event_type", "ts"])

    def pit(df: pd.DataFrame) -> pd.DataFrame:
        fact = df[df["event_type"] == "purchase"]
        if fact.empty:
            return pd.DataFrame({
                "event_id": pd.Series([], dtype="int64"),
                "user_id": pd.Series([], dtype="int64"),
                "state_at": pd.Series([], dtype="object")})
        dim = (df[df["event_type"] != "purchase"]
               .sort_values(["user_id", "ts", "event_id"], kind="stable"))
        u = dim["user_id"].to_numpy()
        s = dim["event_type"].to_numpy()
        new_run = np.empty(len(dim), dtype=bool)
        if len(dim):
            new_run[0] = True
            new_run[1:] = (u[1:] != u[:-1]) | (s[1:] != s[:-1])
        runs = pd.DataFrame({"user_id": u, "state": s,
                             "valid_from": dim["ts"].to_numpy(),
                             "_run": np.cumsum(new_run)})
        hist = (runs.groupby(["user_id", "_run"], as_index=False, sort=True)
                .agg(state=("state", "first"),
                     valid_from=("valid_from", "min"))
                # merge_asof resolves valid_from ties to the LAST right
                # row; sorting (valid_from, _run) makes that the later
                # run — the oracle's (valid_from DESC, rid DESC) pick
                .sort_values(["valid_from", "_run"], kind="stable"))
        m = pd.merge_asof(
            fact[["event_id", "user_id", "ts"]].sort_values(
                "ts", kind="stable"),
            hist[["user_id", "valid_from", "state"]],
            left_on="ts", right_on="valid_from", by="user_id",
            direction="backward")
        return pd.DataFrame({
            "event_id": m["event_id"].astype("int64"),
            "user_id": m["user_id"].astype("int64"),
            "state_at": m["state"].fillna("none"),
        })

    out = bucketed_group_apply(ev, "user_id", pit,
                               num_buckets=16).to_pandas()
    return out.sort_values("event_id").reset_index(drop=True)


PIT_STATE_SQL = """
WITH flagged AS (
  SELECT user_id, event_type, ts, event_id,
         CASE WHEN lag(event_type) OVER (PARTITION BY user_id
                                         ORDER BY ts, event_id)
              IS DISTINCT FROM event_type THEN 1 ELSE 0 END AS chg
  FROM events WHERE event_type <> 'purchase'),
runs AS (
  SELECT user_id, event_type, ts,
         sum(chg) OVER (PARTITION BY user_id ORDER BY ts, event_id)
           AS rid
  FROM flagged),
dim AS (
  SELECT user_id, rid, min(event_type) AS state, min(ts) AS valid_from
  FROM runs GROUP BY user_id, rid),
p AS (SELECT event_id, user_id, ts FROM events
      WHERE event_type = 'purchase')
SELECT p.event_id, p.user_id, coalesce(d.state, 'none') AS state_at
FROM p LEFT JOIN dim d ON d.user_id = p.user_id AND d.valid_from <= p.ts
QUALIFY row_number() OVER (
    PARTITION BY p.event_id
    ORDER BY d.valid_from DESC NULLS LAST, d.rid DESC) = 1
ORDER BY event_id
"""


def _copurchase_adj(sf_dir: str):
    """Distinct directed co-purchase adjacency (both directions) as a
    Dataset: per-order pair gen inside orderkey hash buckets, then a
    src-bucketed vectorized drop_duplicates for the cross-order
    repeats (NOT groupby(src,dst).aggregate — Ray's sort-aggregate
    walks the ~10⁵ one-row groups at Python speed; the bucketed
    pandas dedup is the measured 15-70× fix). Pinned by callers that
    scan it multiply."""
    from ..stages.groups import bucketed_group_apply

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def order_pairs(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates()
        m = d.merge(d, on="l_orderkey")
        m = m[m["l_partkey_x"] != m["l_partkey_y"]]
        return (m[["l_partkey_x", "l_partkey_y"]]
                .rename(columns={"l_partkey_x": "src",
                                 "l_partkey_y": "dst"})
                .drop_duplicates())

    pairs = bucketed_group_apply(li, "l_orderkey", order_pairs,
                                 num_buckets=16)
    return bucketed_group_apply(
        pairs, "src", lambda df: df.drop_duplicates(), num_buckets=16)


def part_adamic_adar(sf_dir: str):
    """Link prediction (Adamic–Adar) for the 50 smallest partkeys of
    the co-purchase graph: candidates are 2-hop neighbors, scored
    Σ 1/ln(deg(z)) over common neighbors z, direct edges excluded,
    top-20 by rounded score. The wedge expansion is SEEDED — cost
    |S|·deg², not |V|·deg² — and runs as a map over edge batches of
    at most 16,384 rows against the broadcast seed adjacency; degrees
    travel as one sorted array, never per batch. Weights sum in int64
    fixed point (1e12/ln d), so the per-batch (u,v) partials merge in
    a bounded |S|·|V| frame exactly, whatever the batch cuts."""
    import ray

    adj = _copurchase_adj(sf_dir).materialize()

    # degrees via per-batch partials (|V| is pagerank-bounded driver
    # state; groupby().aggregate here walks |V| one-row groups at
    # Python speed — the measured sort-aggregate pathology)
    deg_pd = grouped_partials(adj, "src", count="d")
    nodes = deg_pd["src"].to_numpy(dtype=np.int64)
    degs = deg_pd["d"].to_numpy(dtype=np.int64)
    seeds = np.sort(nodes)[:50]

    def seed_rows(t: pa.Table) -> pa.Table:
        src = t["src"].to_numpy(zero_copy_only=False)
        return t.filter(pa.array(probe_sorted(seeds, src)[0]))

    seed_adj = (adj.map_batches(seed_rows, batch_format="pyarrow")
                .to_pandas())
    ref = ray.put((seed_adj.rename(columns={"src": "u", "dst": "z"}),
                   nodes, degs))

    def wedges(t: pa.Table) -> pa.Table:
        sa, nd, dg = ray.get(ref)
        m = sa.merge(t.to_pandas().rename(columns={"src": "z", "dst": "v"}),
                     on="z")
        m = m[m["u"] != m["v"]]
        zi = np.searchsorted(nd, m["z"].to_numpy())
        w = np.rint(1e12 / np.log(dg[zi].astype(np.float64)))
        return pa.table({"u": m["u"].to_numpy(), "v": m["v"].to_numpy(),
                         "aa": w.astype(np.int64)})

    sc = grouped_partials(adj, ["u", "v"], sums=["aa"], prep=wedges,
                          batch_size=16384)
    # exclude direct edges from the seeds (broadcast-scale: |S|·deg)
    big = int(nodes.max()) + 1
    excl = np.sort(seed_adj["src"].to_numpy(dtype=np.int64) * big
                   + seed_adj["dst"].to_numpy(dtype=np.int64))
    code = (sc["u"].to_numpy(dtype=np.int64) * big
            + sc["v"].to_numpy(dtype=np.int64))
    sc = sc[~probe_sorted(excl, code)[0]]
    sc = sc.assign(aa_score=round2(sc["aa"].to_numpy() / 1e12))
    out = (sc.sort_values(["aa_score", "u", "v"],
                          ascending=[False, True, True])
           .head(20)[["u", "v", "aa_score"]].reset_index(drop=True))
    out["u"] = out["u"].astype("int64")
    out["v"] = out["v"].astype("int64")
    return out


ADAMIC_ADAR_SQL = """
WITH pairs AS (
  SELECT DISTINCT a.l_partkey AS src, b.l_partkey AS dst
  FROM lineitem a JOIN lineitem b ON a.l_orderkey = b.l_orderkey
  WHERE a.l_partkey <> b.l_partkey),
deg AS (SELECT src AS node, count(*) AS d FROM pairs GROUP BY src),
seeds AS (SELECT node FROM deg ORDER BY node LIMIT 50),
cand AS (
  SELECT su.src AS u, su.dst AS z, al.dst AS v
  FROM pairs su JOIN pairs al ON al.src = su.dst
  WHERE su.src IN (SELECT node FROM seeds) AND al.dst <> su.src),
sc AS (
  SELECT u, v, sum(1.0 / ln(d.d)) AS aa
  FROM cand JOIN deg d ON d.node = cand.z GROUP BY u, v),
pruned AS (
  SELECT sc.u, sc.v, sc.aa FROM sc
  LEFT JOIN pairs e ON e.src = sc.u AND e.dst = sc.v
  WHERE e.src IS NULL)
SELECT u, v, round(aa, 2) AS aa_score FROM pruned
ORDER BY aa_score DESC, u, v LIMIT 20
"""


def part_clustering_coeff(sf_dir: str):
    """Local clustering coefficient for the 50 smallest partkeys of
    the co-purchase graph: coeff(u) = edges among N(u) / (d·(d−1))
    over ordered pairs. The seed neighbor lists broadcast once as
    sorted arrays; ONE streaming scan of the edge set emits per-batch
    (seed, count) partials — closed-neighborhood membership is two
    searchsorted probes per seed per batch, never a wedge
    materialization. Exact-integer division keeps the oracle
    bit-identical."""
    import ray

    adj = _copurchase_adj(sf_dir).materialize()
    deg_pd = grouped_partials(adj, "src", count="d")
    nodes = deg_pd["src"].to_numpy(dtype=np.int64)
    degs = deg_pd["d"].to_numpy(dtype=np.int64)
    seeds = nodes[:50]
    seed_deg = degs[:50]

    def seed_rows(t: pa.Table) -> pa.Table:
        src = t["src"].to_numpy(zero_copy_only=False)
        return t.filter(pa.array(probe_sorted(seeds, src)[0]))

    sa = adj.map_batches(seed_rows, batch_format="pyarrow").to_pandas()
    nbrs = {int(u): np.sort(g["dst"].to_numpy(dtype=np.int64))
            for u, g in sa.groupby("src")}
    ref = ray.put([(int(u), nbrs.get(int(u), np.empty(0, np.int64)))
                   for u in seeds])

    def tri_partial(t: pa.Table) -> pa.Table:
        sl = ray.get(ref)
        x = t["src"].to_numpy(zero_copy_only=False)
        y = t["dst"].to_numpy(zero_copy_only=False)
        out_n: list[int] = []
        out_c: list[int] = []
        for u, nb in sl:
            c = int(np.count_nonzero(probe_sorted(nb, x)[0]
                                     & probe_sorted(nb, y)[0]))
            if c:
                out_n.append(u)
                out_c.append(c)
        return pa.table({"node": pa.array(out_n, pa.int64()),
                         "t2": pa.array(out_c, pa.int64())})

    parts = grouped_partials(adj, "node", sums=["t2"], prep=tri_partial)
    t2 = dict(zip(parts["node"], parts["t2"]))
    coeff = np.array([
        round6(float(t2.get(int(u), 0)) / (float(d) * (d - 1)))[()]
        if d > 1 else 0.0
        for u, d in zip(seeds, seed_deg)], dtype=np.float64)
    return pd.DataFrame({"node": seeds.astype("int64"),
                         "deg": seed_deg.astype("int64"),
                         "coeff": coeff})


CLUSTERING_SQL = """
WITH pairs AS (
  SELECT DISTINCT a.l_partkey AS src, b.l_partkey AS dst
  FROM lineitem a JOIN lineitem b ON a.l_orderkey = b.l_orderkey
  WHERE a.l_partkey <> b.l_partkey),
deg AS (SELECT src AS node, count(*) AS d FROM pairs GROUP BY src),
seeds AS (SELECT node, d FROM deg ORDER BY node LIMIT 50),
tri AS (
  SELECT a.src AS node, count(*) AS t2
  FROM pairs a JOIN pairs e ON e.src = a.dst
  JOIN pairs b ON b.src = a.src AND b.dst = e.dst
  WHERE a.src IN (SELECT node FROM seeds)
  GROUP BY a.src)
SELECT s.node, s.d::BIGINT AS deg,
       CASE WHEN s.d > 1
            THEN round(coalesce(t.t2, 0) / (s.d::DOUBLE * (s.d - 1)), 6)
            ELSE 0.0 END AS coeff
FROM seeds s LEFT JOIN tri t ON t.node = s.node ORDER BY s.node
"""


def event_value_calibration(sf_dir: str):
    """Calibration / reliability table for 'value predicts purchase':
    score = global percent_rank of value (distributed value→count
    histogram, broadcast + searchsorted — the orders_percent_rank
    engine), binned into deciles; per bin the mergeable
    (n, Σscore, n_purchase) partials come back |batches|×10 rows — no
    all-to-all anywhere. frac_purchase is exact int/int division;
    mean_score rounds at 6dp on both sides."""
    import ray
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "events", ["event_type", "value"])
    vc = (ds.groupby("value").aggregate(Count(alias_name="c"))
          .to_pandas().sort_values("value"))
    vals = vc["value"].to_numpy()
    below = np.concatenate([[0], np.cumsum(vc["c"].to_numpy())[:-1]])
    n = int(vc["c"].sum())
    ref = ray.put((vals, below))

    def partials(t: pa.Table) -> pa.Table:
        v, b = ray.get(ref)
        x = t["value"].to_numpy(zero_copy_only=False)
        pr = b[np.searchsorted(v, x)] / (n - 1) if n > 1 \
            else np.zeros(len(x))
        pr = np.floor(np.abs(pr) * 1e6 + 0.5) / 1e6
        bins = np.minimum(np.floor(pr * 10.0), 9.0).astype(np.int64)
        pos = pc.equal(t["event_type"], pa.scalar("purchase")) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"bin": bins, "s": pr, "p": pos})

    parts = grouped_partials(ds, "bin", sums=["s", "p"], count="n",
                             prep=partials)
    nn = parts["n"].to_numpy(dtype=np.float64)
    out = pd.DataFrame({
        "bin": parts["bin"].astype("int64"),
        "n": parts["n"].astype("int64"),
        "mean_score": round6(parts["s"].to_numpy() / nn),
        "frac_purchase": parts["p"].to_numpy(dtype=np.float64) / nn,
    })
    return out.sort_values("bin").reset_index(drop=True)


CALIBRATION_SQL = """
WITH pr AS (
  SELECT event_type,
         round(percent_rank() OVER (ORDER BY value), 6) AS score
  FROM events),
b AS (SELECT least(floor(score * 10), 9)::BIGINT AS bin, score,
             CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END AS pos
      FROM pr)
SELECT bin, count(*)::BIGINT AS n,
       round(sum(score) / count(*), 6) AS mean_score,
       sum(pos)::DOUBLE / count(*) AS frac_purchase
FROM b GROUP BY bin ORDER BY bin
"""


def event_hourly_forecast_backtest(sf_dir: str):
    """Seasonal-naive forecast backtest: per event_type the hourly
    count series (dense over the corpus' GLOBAL hour span) is
    forecast by its own value 24 hours earlier; MAE is exact integer
    arithmetic over the evaluable hours, MASE divides by the lag-1
    naive baseline (the standard scale-free benchmark). Only the
    grouped count runs distributed; the calendar math runs on the
    bounded types×hours grid (720 h × 5 types here)."""
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "events", ["event_type", "ts"])

    def bucketize(t: pa.Table) -> pa.Table:
        us = pc.cast(t["ts"], pa.int64())
        return pa.table({
            "event_type": t["event_type"],
            "h": pc.divide(us, pa.scalar(3_600_000_000, pa.int64()))})

    agg = (ds.map_batches(bucketize, batch_format="pyarrow")
           .groupby(["event_type", "h"]).aggregate(Count(alias_name="n"))
           .to_pandas())
    if agg.empty:
        return pd.DataFrame({"event_type": pd.Series([], dtype="object"),
                             "n_eval": pd.Series([], dtype="int64"),
                             "mae": pd.Series([], dtype="float64"),
                             "mase": pd.Series([], dtype="float64")})
    hours = np.arange(int(agg["h"].min()), int(agg["h"].max()) + 1,
                      dtype=np.int64)
    rows = []
    for et in sorted(agg["event_type"].unique()):
        s = (agg.loc[agg["event_type"] == et].set_index("h")["n"]
             .reindex(hours, fill_value=0).to_numpy(dtype=np.int64))
        ae = np.abs(s[24:] - s[:-24])
        d1 = np.abs(s[1:] - s[:-1])
        mae = float(ae.sum()) / len(ae)
        naive = float(d1.sum()) / len(d1)
        rows.append({"event_type": et, "n_eval": len(ae), "mae": mae,
                     "mase": float(round6(mae / naive))})
    out = pd.DataFrame(rows)
    out["n_eval"] = out["n_eval"].astype("int64")
    return out


FORECAST_BACKTEST_SQL = """
WITH b AS (SELECT event_type, epoch_us(ts) // 3600000000 AS h
           FROM events),
agg AS (SELECT event_type, h, count(*) AS n FROM b
        GROUP BY event_type, h),
cal AS (SELECT unnest(generate_series((SELECT min(h) FROM b),
                                      (SELECT max(h) FROM b))) AS h),
types AS (SELECT DISTINCT event_type FROM events),
grid AS (SELECT t.event_type, c.h, coalesce(a.n, 0)::BIGINT AS n
         FROM types t CROSS JOIN cal c
         LEFT JOIN agg a ON a.event_type = t.event_type AND a.h = c.h),
lagd AS (SELECT event_type, n,
                lag(n, 24) OVER (PARTITION BY event_type ORDER BY h)
                  AS f,
                lag(n, 1) OVER (PARTITION BY event_type ORDER BY h)
                  AS p1
         FROM grid)
SELECT event_type,
       count(f)::BIGINT AS n_eval,
       sum(abs(n - f))::DOUBLE / count(f) AS mae,
       round((sum(abs(n - f))::DOUBLE / count(f))
             / (sum(abs(n - p1))::DOUBLE / count(p1)), 6) AS mase
FROM lagd GROUP BY event_type ORDER BY event_type
"""


def bm25_ndcg_eval(sf_dir: str):
    """NDCG@10 of the BM25 'hash join' ranking against a term-
    frequency relevance label (rel = Σ exact-word tf of the query
    terms): the ranking reuses the streaming bm25_topk engine; ONE
    relevance pass emits per-batch partial top-10-by-rel (the ideal
    DCG candidates — global top-10 is always inside the per-batch
    top-10 union) plus the ranked docs' rel rows, so the driver sees
    ≤ 11·|batches| rows. Rank-position discounts are fixed 10-term
    sums; the final ratio rounds at 6dp on both sides."""
    import ray

    from ..stages.index import bm25_topk

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    ranked = bm25_topk(ds, BM25_SEARCH_TERMS, topk=10)
    rid = ranked["doc_id"].to_numpy(dtype=np.int64)
    rid_ref = ray.put(np.sort(rid))

    def rel_partial(t: pa.Table) -> pa.Table:
        rs = ray.get(rid_ref)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        keep_ids: list[int] = []
        rels: list[int] = []
        for did, s in zip(ids, t["text"].to_pylist()):
            if not s:
                continue
            words = s.split(" ")
            keep_ids.append(int(did))
            rels.append(sum(words.count(term)
                            for term in BM25_SEARCH_TERMS))
        if not keep_ids:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "rel": pa.array([], pa.int64())})
        ri = np.asarray(keep_ids, np.int64)
        rv = np.asarray(rels, np.int64)
        keep = np.zeros(len(ri), dtype=bool)
        keep[np.lexsort((ri, -rv))[:10]] = True
        keep |= probe_sorted(rs, ri)[0]
        return pa.table({"doc_id": pa.array(ri[keep]),
                         "rel": pa.array(rv[keep])})

    parts = (ds.map_batches(rel_partial, batch_format="pyarrow")
             .to_pandas())
    ideal = parts.sort_values(["rel", "doc_id"],
                              ascending=[False, True]).head(10)
    idcg = float((ideal["rel"].to_numpy(dtype=np.float64)
                  / np.log2(np.arange(1, len(ideal) + 1) + 1.0)).sum())
    relmap = dict(zip(parts["doc_id"].astype(int), parts["rel"]))
    rvec = np.array([relmap.get(int(d), 0) for d in rid],
                    dtype=np.float64)
    dcg = float((rvec / np.log2(np.arange(1, len(rid) + 1) + 1.0)).sum())
    ndcg = float(round6(dcg / idcg)) if idcg > 0 else 0.0
    return pd.DataFrame({"ndcg_10": [ndcg]})


NDCG_SQL = """
WITH w AS (SELECT doc_id, str_split(text, ' ') AS w FROM documents
           WHERE coalesce(text, '') <> ''),
st AS (SELECT count(*) AS n,
              sum(length(w))::DOUBLE / count(*) AS avgdl FROM w),
q AS (SELECT unnest(['hash', 'join']) AS term),
tf AS (SELECT doc_id, term,
              length(list_filter(w, x -> x = term)) AS tf,
              length(w) AS dl FROM w, q),
df AS (SELECT term, count(*) FILTER (tf > 0) AS df FROM tf GROUP BY term),
sc AS (SELECT tf.doc_id,
              sum(ln((st.n - df.df + 0.5) / (df.df + 0.5) + 1)
                  * (tf.tf * 2.2)
                  / (tf.tf + 1.2 * (0.25 + 0.75 * tf.dl / st.avgdl)))
                AS score
       FROM tf JOIN df USING (term), st GROUP BY tf.doc_id),
ranked AS (SELECT doc_id,
                  row_number() OVER (ORDER BY round(score, 2) DESC,
                                     doc_id) AS rn
           FROM sc QUALIFY rn <= 10),
rel AS (SELECT doc_id, sum(tf)::BIGINT AS rel FROM tf GROUP BY doc_id),
dcg AS (SELECT sum(r.rel / log2(rk.rn + 1)) AS dcg
        FROM ranked rk JOIN rel r USING (doc_id)),
ideal AS (SELECT rel, row_number() OVER (ORDER BY rel DESC, doc_id)
                   AS rn
          FROM rel QUALIFY rn <= 10),
idcg AS (SELECT sum(rel / log2(rn + 1)) AS idcg FROM ideal)
SELECT round(dcg.dcg / idcg.idcg, 6) AS ndcg_10 FROM dcg, idcg
"""


def user_event_gini(sf_dir: str):
    """Gini coefficient of per-user event counts — the activity-
    inequality metric (is traffic dominated by a few heavy users?).
    Per-user counts come back as mergeable per-batch partials
    (|users| driver state, the pagerank bound); the Gini numerator
    Σ(2i−n−1)·cᵢ over the count-sorted array is EXACT integer
    arithmetic, so the single int/int division is bit-identical to
    the SQL window replay (ties in c are coefficient-sum invariant,
    so the tiebreak order cannot matter)."""

    counts = grouped_partials(_read(sf_dir, "events", ["user_id"]),
                              "user_id", count="c")
    c = np.sort(counts["c"].to_numpy(dtype=np.int64))
    n = len(c)
    s = int(c.sum())
    if n == 0 or s == 0:
        return pd.DataFrame({"n_users": pd.Series([0], dtype="int64"),
                             "gini": [0.0]})
    i = np.arange(1, n + 1, dtype=np.int64)
    num = int(((2 * i - n - 1) * c).sum())
    return pd.DataFrame({"n_users": pd.Series([n], dtype="int64"),
                         "gini": [float(num) / (float(n) * float(s))]})


GINI_SQL = """
WITH c AS (SELECT user_id, count(*)::BIGINT AS c FROM events
           GROUP BY user_id),
r AS (SELECT c, row_number() OVER (ORDER BY c, user_id) AS i,
             count(*) OVER () AS n, sum(c) OVER () AS s
      FROM c)
SELECT max(n)::BIGINT AS n_users,
       sum((2 * i - n - 1) * c)::DOUBLE / (max(n) * max(s)) AS gini
FROM r
"""


KS_SOURCES = ("src0", "src1")


def source_length_ks(sf_dir: str):
    """Two-sample Kolmogorov–Smirnov statistic between two sources'
    document-length distributions (the distribution-drift check a
    corpus-mixing pipeline runs between ingests): D = max |ECDF_a −
    ECDF_b| over the pooled support. The (source, n_chars) counts
    come back as per-batch partials (support-bounded driver state);
    every ECDF term is an exact int/int division, so D is
    bit-identical to the SQL window replay."""

    ds = _read(sf_dir, "documents", ["source", "n_chars"])

    def pick(t: pa.Table) -> pa.Table:
        m = pc.is_in(t["source"],
                     value_set=pa.array(list(KS_SOURCES)))
        return t.filter(m)

    c = grouped_partials(ds, ["source", "n_chars"], count="k",
                         prep=pick)
    wide = (c.pivot_table(index="n_chars", columns="source", values="k",
                          fill_value=0, aggfunc="sum")
            .reindex(columns=list(KS_SOURCES), fill_value=0)
            .sort_index())
    ca = np.cumsum(wide[KS_SOURCES[0]].to_numpy(dtype=np.int64))
    cb = np.cumsum(wide[KS_SOURCES[1]].to_numpy(dtype=np.int64))
    na, nb = int(ca[-1]) if len(ca) else 0, int(cb[-1]) if len(cb) else 0
    if na == 0 or nb == 0:
        return pd.DataFrame({"n_a": pd.Series([na], dtype="int64"),
                             "n_b": pd.Series([nb], dtype="int64"),
                             "ks_d": [0.0]})
    d = float(np.max(np.abs(ca / na - cb / nb)))
    return pd.DataFrame({"n_a": pd.Series([na], dtype="int64"),
                         "n_b": pd.Series([nb], dtype="int64"),
                         "ks_d": [d]})


KS_SQL = f"""
WITH ab AS (SELECT source, n_chars FROM documents
            WHERE source IN ('{KS_SOURCES[0]}', '{KS_SOURCES[1]}')),
c AS (SELECT n_chars AS x,
             count(*) FILTER (source = '{KS_SOURCES[0]}') AS a,
             count(*) FILTER (source = '{KS_SOURCES[1]}') AS b
      FROM ab GROUP BY n_chars),
cum AS (SELECT sum(a) OVER (ORDER BY x) AS ca,
               sum(b) OVER (ORDER BY x) AS cb FROM c),
n AS (SELECT sum(a)::BIGINT AS na, sum(b)::BIGINT AS nb FROM c)
SELECT n.na AS n_a, n.nb AS n_b,
       (SELECT max(abs(ca::DOUBLE / n.na - cb::DOUBLE / n.nb))
        FROM cum) AS ks_d
FROM n
"""


def source_length_psi(sf_dir: str):
    """Population stability index between the two sources' length
    distributions — KS's sibling, THE production drift metric for
    binned features: bins are the baseline source's deciles
    (quantile_disc 0.1..0.9 over src0), PSI = Σ (pa−pb)·ln(pa/pb)
    over bins where both sides are populated (the standard zero-bin
    skip, stated rather than epsilon-fudged). The (source, n_chars)
    counts come back as support-bounded per-batch partials; bin
    probabilities are exact int/int, only the final sum rounds."""

    ds = _read(sf_dir, "documents", ["source", "n_chars"])

    def pick(t: pa.Table) -> pa.Table:
        m = pc.is_in(t["source"], value_set=pa.array(list(KS_SOURCES)))
        return t.filter(m)

    c = grouped_partials(ds, ["source", "n_chars"], count="k",
                         prep=pick)
    a = (c[c["source"] == KS_SOURCES[0]]
         .sort_values("n_chars")[["n_chars", "k"]])
    b = (c[c["source"] == KS_SOURCES[1]]
         .sort_values("n_chars")[["n_chars", "k"]])
    na, nb = int(a["k"].sum()), int(b["k"].sum())
    # decile edges via the shared 0-indexed quantile_disc rank rule
    # (stages/quantiles._rank_for — DuckDB parity incl. the q*n
    # float-edge behavior)
    from ..stages.quantiles import _rank_for

    av = np.repeat(a["n_chars"].to_numpy(dtype=np.int64),
                   a["k"].to_numpy(dtype=np.int64))
    edges = np.unique([av[_rank_for(q, na)]
                       for q in (0.1, 0.2, 0.3, 0.4, 0.5,
                                 0.6, 0.7, 0.8, 0.9)])
    ca = np.bincount(np.searchsorted(edges, av, side="left"),
                     minlength=len(edges) + 1)
    bv = np.repeat(b["n_chars"].to_numpy(dtype=np.int64),
                   b["k"].to_numpy(dtype=np.int64))
    cb = np.bincount(np.searchsorted(edges, bv, side="left"),
                     minlength=len(edges) + 1)
    m = (ca > 0) & (cb > 0)
    pa_ = ca[m] / na
    pb_ = cb[m] / nb
    psi = float(round6(((pa_ - pb_) * np.log(pa_ / pb_)).sum()))
    return pd.DataFrame({"n_bins": pd.Series([int(m.sum())],
                                             dtype="int64"),
                         "psi": [psi]})


PSI_SQL = f"""
WITH a AS (SELECT n_chars FROM documents
           WHERE source = '{KS_SOURCES[0]}'),
b AS (SELECT n_chars FROM documents WHERE source = '{KS_SOURCES[1]}'),
edges AS (SELECT DISTINCT e FROM (
  SELECT unnest([quantile_disc(n_chars, 0.1), quantile_disc(n_chars, 0.2),
                 quantile_disc(n_chars, 0.3), quantile_disc(n_chars, 0.4),
                 quantile_disc(n_chars, 0.5), quantile_disc(n_chars, 0.6),
                 quantile_disc(n_chars, 0.7), quantile_disc(n_chars, 0.8),
                 quantile_disc(n_chars, 0.9)]) AS e
  FROM a)),
abin AS (SELECT (SELECT count(*) FROM edges WHERE e < n_chars) AS bin,
                count(*) AS c FROM a GROUP BY 1),
bbin AS (SELECT (SELECT count(*) FROM edges WHERE e < n_chars) AS bin,
                count(*) AS c FROM b GROUP BY 1),
j AS (SELECT abin.c::DOUBLE / (SELECT count(*) FROM a) AS pa,
             bbin.c::DOUBLE / (SELECT count(*) FROM b) AS pb
      FROM abin JOIN bbin USING (bin))
SELECT count(*)::BIGINT AS n_bins,
       round(sum((pa - pb) * ln(pa / pb)), 6) AS psi
FROM j
"""


def session_first_touch(sf_dir: str, gap_minutes: int = 30):
    """First-touch attribution: sessions (gap > 30 min ⇒ new session)
    are credited to their FIRST event type; per first-touch channel,
    how many sessions, how many converted (contain a purchase), and
    the attributed purchase value. One user hash bucket carries
    sessionization AND the per-session reduce; per-bucket partials
    are ≤ |event types| rows."""
    from ..stages.groups import bucketed_group_apply

    ds = _read(sf_dir, "events",
               ["user_id", "event_type", "value", "ts", "event_id"])
    gap_us = gap_minutes * 60 * 1_000_000

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"], kind="stable")
        gaps = df.groupby("user_id", sort=False)["ts"].diff()
        brk = (gaps.dt.total_seconds() * 1_000_000 > gap_us) \
            .fillna(False).astype("int64")
        df = df.assign(_sid=brk.groupby(df["user_id"]).cumsum())
        is_p = (df["event_type"] == "purchase")
        agg = (df.assign(_conv=is_p.astype("int64"),
                         _pv=np.where(is_p, df["value"], 0.0))
               .groupby(["user_id", "_sid"], sort=False)
               .agg(first_touch=("event_type", "first"),
                    conv=("_conv", "max"), pv=("_pv", "sum")))
        return (agg.groupby("first_touch", as_index=False)
                .agg(n_sessions=("conv", "size"),
                     n_converted=("conv", "sum"), pv=("pv", "sum")))

    parts = grouped_partials(
        bucketed_group_apply(ds, "user_id", per_bucket, num_buckets=16),
        "first_touch", sums=["n_sessions", "n_converted", "pv"])
    return pd.DataFrame({
        "first_touch": parts["first_touch"],
        "n_sessions": parts["n_sessions"].astype("int64"),
        "n_converted": parts["n_converted"].astype("int64"),
        "purchase_value": round2(parts["pv"].to_numpy()),
    })


FIRST_TOUCH_SQL = """
WITH g AS (
  SELECT user_id, event_type, value, ts, event_id,
         CASE WHEN epoch_us(ts) - lag(epoch_us(ts)) OVER (
                PARTITION BY user_id ORDER BY ts, event_id)
              > 1800000000 THEN 1 ELSE 0 END AS brk
  FROM events),
s AS (SELECT user_id, event_type, value, ts, event_id,
             sum(brk) OVER (PARTITION BY user_id
                            ORDER BY ts, event_id) AS sid
      FROM g),
sess AS (
  SELECT user_id, sid, event_type, value,
         first_value(event_type) OVER (PARTITION BY user_id, sid
                                       ORDER BY ts, event_id)
           AS first_touch
  FROM s),
agg AS (
  SELECT user_id, sid, min(first_touch) AS first_touch,
         max(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END)
           AS conv,
         sum(CASE WHEN event_type = 'purchase' THEN value
                  ELSE 0 END) AS pv
  FROM sess GROUP BY user_id, sid)
SELECT first_touch, count(*)::BIGINT AS n_sessions,
       sum(conv)::BIGINT AS n_converted,
       round(sum(pv), 2) AS purchase_value
FROM agg GROUP BY first_touch ORDER BY first_touch
"""


def weighted_median_price(sf_dir: str):
    """Exact GROUPED WEIGHTED median: per returnflag, the smallest
    price whose cumulative quantity weight reaches half the group
    total (the lower weighted median — inventory-weighted 'typical
    price'). Per-batch (flag, price)→Σwt partials collapse in price
    hash buckets (never a high-cardinality groupby().aggregate); the
    driver sees one row per DISTINCT (flag, price), bounded by the
    value domain, not the row count. Quantities are whole-number
    doubles, so every cumulative weight is exact in float64 and the
    2·cw ≥ tw crossing is bit-deterministic against the SQL window
    replay."""
    from ..stages.groups import bucketed_group_apply

    ds = _lineitem(sf_dir, ["l_returnflag", "l_extendedprice",
                            "l_quantity"])

    def partial(t: pa.Table) -> pa.Table:
        g = (t.to_pandas()
             .groupby(["l_returnflag", "l_extendedprice"],
                      as_index=False)["l_quantity"].sum())
        return arrow_out(g.rename(columns={"l_returnflag": "flag",
                                           "l_extendedprice": "price",
                                           "l_quantity": "wt"}))

    def collapse(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["flag", "price"], as_index=False)["wt"].sum()

    c = (bucketed_group_apply(
        ds.map_batches(partial, batch_format="pyarrow"), "price",
        collapse, num_buckets=16).to_pandas()
        .sort_values(["flag", "price"], kind="stable"))
    cw = c.groupby("flag")["wt"].cumsum().to_numpy()
    tw = c.groupby("flag")["wt"].transform("sum").to_numpy()
    hit = c[cw * 2 >= tw]
    out = (hit.groupby("flag", as_index=False)["price"].min()
           .rename(columns={"flag": "l_returnflag",
                            "price": "wmedian_price"}))
    return out.sort_values("l_returnflag").reset_index(drop=True)


WEIGHTED_MEDIAN_SQL = """
WITH c AS (SELECT l_returnflag AS flag, l_extendedprice AS price,
                  sum(l_quantity) AS wt
           FROM lineitem GROUP BY 1, 2),
cum AS (SELECT flag, price,
               sum(wt) OVER (PARTITION BY flag ORDER BY price) AS cw,
               sum(wt) OVER (PARTITION BY flag) AS tw
        FROM c)
SELECT flag AS l_returnflag, min(price) AS wmedian_price
FROM cum WHERE cw * 2 >= tw GROUP BY flag ORDER BY l_returnflag
"""


def users_to_half_events(sf_dir: str):
    """Pareto coverage: the smallest number of heaviest users whose
    events cover ≥ half of all traffic, plus the share they actually
    cover — the concentration headline next to [[user_event_gini]]'s
    index. Per-user counts come back as mergeable per-batch partials
    (|users| driver state, the pagerank bound); everything after is
    exact integer arithmetic on the count-sorted array, so the ≥½
    crossing is bit-deterministic (ties broken (count desc, user
    asc) identically to the window replay)."""

    counts = grouped_partials(_read(sf_dir, "events", ["user_id"]),
                              "user_id", count="c")
    df = counts.sort_values(["c", "user_id"],
                            ascending=[False, True], kind="stable")
    c = df["c"].to_numpy(dtype=np.int64)
    total = int(c.sum())
    if total == 0:
        return pd.DataFrame({"n_users": pd.Series([0], dtype="int64"),
                             "covered_share": [0.0]})
    cum = np.cumsum(c)
    k = int(np.searchsorted(cum * 2, total, side="left")) + 1
    return pd.DataFrame({
        "n_users": pd.Series([k], dtype="int64"),
        "covered_share": [int(cum[k - 1]) / total],
    })


PARETO_COVERAGE_SQL = """
WITH c AS (SELECT user_id, count(*)::BIGINT AS c FROM events
           GROUP BY user_id),
r AS (SELECT c,
             sum(c) OVER (ORDER BY c DESC, user_id) AS cum,
             sum(c) OVER () AS total,
             row_number() OVER (ORDER BY c DESC, user_id) AS i
      FROM c)
SELECT min(i)::BIGINT AS n_users,
       min_by(cum, i)::DOUBLE / min(total) AS covered_share
FROM r WHERE cum * 2 >= total
"""


SHUFFLE_EPOCH = 7


def epoch_shuffle_plan(sf_dir: str):
    """Deterministic epoch shuffle WITHOUT a random_shuffle exchange:
    each doc's position for epoch k is its rank under the portable
    md5(doc_id:k) key — any worker can recompute any shard's read
    order independently, which is how a 100-TB training run shuffles
    (a materialized permutation would itself be corpus-sized). The
    rank is the two-level ordered prefix sum over the 48-bit hash
    prefix (rows shuffle once by hash range, nothing serial); the
    48-bit key space makes collisions at corpus scale ~2⁻³⁰, the
    documented distinctness assumption ordered_prefix_sum carries."""
    from ..stages.groups import ordered_prefix_sum
    from ..stages.md5np import md5_prefix64

    ds = _read(sf_dir, "documents", ["doc_id"])

    def key(t: pa.Table) -> pa.Table:
        keys = pc.binary_join_element_wise(
            pc.cast(t["doc_id"], pa.string()), str(SHUFFLE_EPOCH), ":")
        h = (md5_prefix64(keys) >> np.uint64(16)).astype(np.int64)
        return pa.table({"doc_id": t["doc_id"],
                         "hk": pa.array(h, pa.int64()),
                         "one": pa.array(np.ones(len(h), np.int64))})

    scanned = ordered_prefix_sum(
        ds.map_batches(key, batch_format="pyarrow"),
        order_col="hk", value_col="one", out_col="pos",
        domain=(0, 16 ** 12 - 1))  # known hash space: skip min/max pass

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t["doc_id"],
            "pos": pc.cast(t["pos"], pa.int64()),
        })

    return scanned.map_batches(finish, batch_format="pyarrow")


EPOCH_SHUFFLE_SQL = f"""
WITH h AS (SELECT doc_id,
                  substr(md5(doc_id::VARCHAR || ':{SHUFFLE_EPOCH}'),
                         1, 12) AS hk
           FROM documents)
SELECT doc_id, row_number() OVER (ORDER BY hk, doc_id)::BIGINT AS pos
FROM h
"""


def label_centroid_drift(sf_dir: str):
    """Embedding-drift monitor: per label, cosine similarity between
    the centroid of even vec_ids and the centroid of odd vec_ids (two
    ingest halves) — the check a feature pipeline runs between model
    refreshes. Per-batch (label, half) partial sums (one
    labels×2×dim matrix per batch — vectors never shuffle) merge on
    the driver; centroids round at 6dp BEFORE the cosine on both
    sides so the oracle's avg() low bits can't leak into the dot
    product."""
    from pdf_to_text_ray.stages.similarity import list_column_to_matrix

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding", "label"])

    def partial(t: pa.Table) -> pa.Table:
        m = list_column_to_matrix(t["embedding"])
        labels = t["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        half = (t["vec_id"].to_numpy(zero_copy_only=False) % 2) \
            .astype(np.int64)
        key = labels * 2 + half
        uniq, inv = np.unique(key, return_inverse=True)
        sums = np.zeros((len(uniq), m.shape[1]), dtype=np.float64)
        np.add.at(sums, inv, m)
        counts = np.bincount(inv)
        d = m.shape[1]
        return pa.table({
            "key": pa.array(np.repeat(uniq, d), pa.int64()),
            "idx": pa.array(np.tile(np.arange(d), len(uniq)), pa.int64()),
            "s": pa.array(sums.ravel(), pa.float64()),
            "n": pa.array(np.repeat(counts, d).astype("int64"),
                          pa.int64()),
        })

    parts = grouped_partials(ds, ["key", "idx"], sums=["s", "n"],
                             prep=partial)
    parts["c"] = round6(parts["s"].to_numpy() / parts["n"].to_numpy())
    parts["label"] = parts["key"] // 2
    parts["half"] = parts["key"] % 2
    wide = parts.pivot_table(index=["label", "idx"], columns="half",
                             values="c")
    rows = []
    for lab, g in wide.groupby(level="label"):
        if 0 not in g.columns or 1 not in g.columns \
                or g[0].isna().any() or g[1].isna().any():
            continue  # a half with no vectors: the oracle's inner join
            # drops the label too
        a = g[0].to_numpy()
        b = g[1].to_numpy()
        rows.append({"label": int(lab), "cos_drift": float(round6(
            float(a @ b) / np.sqrt(float(a @ a) * float(b @ b))))})
    if not rows:  # every label missing a half: empty frame, kept typed
        return pd.DataFrame({"label": pd.Series([], dtype="int64"),
                             "cos_drift": pd.Series([], dtype="float64")})
    out = pd.DataFrame(rows)
    out["label"] = out["label"].astype("int64")
    return out.sort_values("label").reset_index(drop=True)


CENTROID_DRIFT_SQL = """
WITH e AS (SELECT label, vec_id % 2 AS half,
                  generate_subscripts(embedding, 1) AS idx,
                  unnest(embedding)::DOUBLE AS v
           FROM embeddings),
c AS (SELECT label, half, idx, round(avg(v), 6) AS c
      FROM e GROUP BY label, half, idx),
j AS (SELECT a.label, sum(a.c * b.c) AS dot,
             sum(a.c * a.c) AS na, sum(b.c * b.c) AS nb
      FROM c a JOIN c b ON a.label = b.label AND a.idx = b.idx
      WHERE a.half = 0 AND b.half = 1
      GROUP BY a.label)
SELECT label::BIGINT AS label, round(dot / sqrt(na * nb), 6) AS cos_drift
FROM j ORDER BY label
"""


def neardup_jarowinkler_docs(sf_dir: str):
    """Jaro-Winkler near-dup pairs (stages/dedup.py::
    jarowinkler_neardup_pairs): the same (lang, length-bucket)
    blocking + head projection as neardup_editdist_docs, verified by
    byte-level Jaro-Winkler ≥ 0.9 instead of edit distance — the
    transposition-tolerant census-linkage metric (Winkler 1990).
    Similarities round to 6 dp before the threshold on BOTH engines,
    so the keep-set is portable; the oracle is DuckDB's native
    ``jaro_winkler_similarity`` (byte semantics, matched bit-for-bit
    by the Python implementation) over the identical blocking join."""
    from pdf_to_text_ray.stages.dedup import jarowinkler_neardup_pairs

    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang", "n_chars"])
    pairs = jarowinkler_neardup_pairs(ds).to_pandas()
    return (pairs.sort_values(["doc_id1", "doc_id2"])
            .reset_index(drop=True))


JAROWINKLER_SQL = """
WITH d AS (SELECT doc_id, lang, n_chars // 64 AS b,
                  substring(text, 1, 40) AS head
           FROM documents)
SELECT a.doc_id AS doc_id1, b.doc_id AS doc_id2,
       round(jaro_winkler_similarity(a.head, b.head), 6) AS jw
FROM d a JOIN d b ON a.lang = b.lang AND a.b = b.b AND a.doc_id < b.doc_id
WHERE round(jaro_winkler_similarity(a.head, b.head), 6) >= 0.9
ORDER BY doc_id1, doc_id2
"""


def cdc_chunk_dedup(sf_dir: str):
    """Content-defined-chunking shared-span profile (stages/dedup.py::
    cdc_chunk_stats): FastCDC/LBFS-style md5-window boundaries chunk
    each normalized doc; chunks dedup corpus-wide; per doc the query
    reports total/distinct/shared chunk counts and the shared ratio —
    the sub-document dedup signal (mirrors, quote farms, templated
    pages) whole-doc hashing misses. Only (doc_id, 16-hex key) pairs
    shuffle; the oracle replays boundary selection, chunk spans, and
    the document-frequency join entirely in SQL."""
    from pdf_to_text_ray.stages.dedup import cdc_chunk_stats

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = cdc_chunk_stats(ds).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


CDC_CHUNK_SQL = r"""
WITH norm AS (
  SELECT doc_id, trim(regexp_replace(lower(coalesce(text, '')),
                                     '\s+', ' ', 'g')) AS s
  FROM documents
),
bounds AS (
  SELECT doc_id, i + 7 AS bend
  FROM norm, LATERAL unnest(generate_series(1, len(s) - 7)) AS t(i)
  WHERE len(s) >= 8
    AND ('0x' || substr(md5(substr(s, i, 8)), 1, 8))::UBIGINT % 16 = 0
),
spans AS (
  SELECT doc_id,
         coalesce(lag(bend) OVER (PARTITION BY doc_id ORDER BY bend),
                  0) + 1 AS st,
         bend AS en
  FROM bounds
  UNION ALL
  SELECT n.doc_id, coalesce(mx.b, 0) + 1, len(n.s)
  FROM norm n LEFT JOIN (SELECT doc_id, max(bend) AS b FROM bounds
                         GROUP BY doc_id) mx USING (doc_id)
  WHERE len(n.s) >= coalesce(mx.b, 0) + 1
),
keyed AS (
  SELECT doc_id, substr(md5(substr(s, st, en - st + 1)), 1, 16) AS k
  FROM spans JOIN norm USING (doc_id)
),
dk AS (SELECT doc_id, k, count(*) AS cnt FROM keyed GROUP BY doc_id, k),
dfreq AS (SELECT k, count(*) AS nd FROM dk GROUP BY k)
SELECT dk.doc_id, sum(dk.cnt)::BIGINT AS n_chunks,
       count(*)::BIGINT AS n_distinct,
       sum(CASE WHEN f.nd >= 2 THEN 1 ELSE 0 END)::BIGINT AS n_shared,
       round(sum(CASE WHEN f.nd >= 2 THEN 1 ELSE 0 END)::DOUBLE
             / count(*), 6) AS shared_ratio
FROM dk JOIN dfreq f USING (k)
GROUP BY dk.doc_id ORDER BY dk.doc_id
"""


def token_zipf_slope(sf_dir: str):
    """Zipf power-law fit per source: OLS slope/intercept of ln(count)
    on ln(rank) over each source's top-100 tokens (rank = count desc,
    token asc — deterministic). The Zipf exponent is the standard
    corpus-health diagnostic: natural text sits near −1; template- or
    spam-dominated sources flatten or steepen. Token counts aggregate
    from per-batch partials (a (source, token, n) groupby-sum — token
    strings shuffle once, pre-aggregated); only ≤ 100 rows per source
    reach the fit. Sums round at 6 dp so libm/DuckDB ln noise can't
    leak into the hash."""
    import re as _re

    from ray.data.aggregate import Sum

    from pdf_to_text_ray.stages.groups import arrow_out, bucketed_group_apply

    split_re = _re.compile(r"[ \t\r\n\f\v]+")
    ds = _read(sf_dir, "documents", ["text", "source"])

    def partial_counts(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        src_out: list[str] = []
        tok_out: list[str] = []
        n_out: list[int] = []
        acc: dict[tuple, int] = {}
        for src, text in zip(df["source"].tolist(), df["text"].tolist()):
            for tok in split_re.split(text or ""):
                if tok:
                    key = (src, tok)
                    acc[key] = acc.get(key, 0) + 1
        for (src, tok), n in acc.items():
            src_out.append(src)
            tok_out.append(tok)
            n_out.append(n)
        return arrow_out(pd.DataFrame({
            "source": src_out, "tok": tok_out,
            "n": pd.Series(n_out, dtype="int64")}))

    counts = (ds.map_batches(partial_counts, batch_format="pyarrow")
              .groupby(["source", "tok"]).aggregate(Sum("n", alias_name="n")))

    def fit_bucket(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for src, g in df.groupby("source", sort=False):
            top = g.sort_values(["n", "tok"], ascending=[False, True],
                                kind="mergesort").head(100)
            c = top["n"].to_numpy(dtype="float64")
            r = np.arange(1, len(c) + 1, dtype="float64")
            x = np.log(r)
            y = np.log(c)
            n = float(len(c))
            sx, sy = float(x.sum()), float(y.sum())
            sxy, sxx = float((x * y).sum()), float((x * x).sum())
            slope = (sxy - sx * sy / n) / (sxx - sx * sx / n)
            intercept = (sy - slope * sx) / n
            rows.append({"source": src, "n_terms": int(len(c)),
                         "zipf_slope": round6(slope),
                         "zipf_intercept": round6(intercept)})
        out = pd.DataFrame(rows)
        out["n_terms"] = out["n_terms"].astype("int64")
        return out

    out = bucketed_group_apply(counts, "source", fit_bucket,
                               num_buckets=8).to_pandas()
    return out.sort_values("source").reset_index(drop=True)


ZIPF_SQL = r"""
WITH toks AS (
  SELECT source,
         unnest(regexp_split_to_array(coalesce(text, ''),
                                      '[ \t\r\n\f\v]+')) AS tok
  FROM documents
),
cnt AS (SELECT source, tok, count(*) AS c FROM toks
        WHERE tok <> '' GROUP BY source, tok),
rk AS (SELECT source, c,
              row_number() OVER (PARTITION BY source
                                 ORDER BY c DESC, tok) AS r
       FROM cnt),
fit AS (SELECT source, count(*) AS n,
               sum(ln(r)) AS sx, sum(ln(c)) AS sy,
               sum(ln(r) * ln(c)) AS sxy, sum(ln(r) * ln(r)) AS sxx
        FROM rk WHERE r <= 100 GROUP BY source)
SELECT source, n::BIGINT AS n_terms,
       round((sxy - sx * sy / n) / (sxx - sx * sx / n), 6) AS zipf_slope,
       round((sy - (sxy - sx * sy / n) / (sxx - sx * sx / n) * sx) / n,
             6) AS zipf_intercept
FROM fit ORDER BY source
"""


# ── hybrid retrieval: reciprocal-rank fusion (round 18) ──────────────

RRF_QUERY_ID = 0     # semantic query = embedding of vec_id 0
RRF_K0 = 60          # the standard RRF constant (Cormack et al. 2009)
RRF_LEG_K = 50       # per-leg candidate depth
RRF_TOPK = 20


def hybrid_search_rrf(sf_dir: str):
    """Hybrid lexical+semantic retrieval via reciprocal-rank fusion
    (Cormack, Clarke & Büttcher 2009): leg 1 = BM25 top-50 for the
    fixed term query over documents.text; leg 2 = exact cosine top-50
    against the query vector (embeddings.vec_id 0, which indexes the
    same id space as doc_id); fused score = Σ 1/(60 + rank), missing
    leg contributes 0. Both legs are streaming partial-top-k passes
    (tiny per-block partials, driver merges ≤ blocks×k rows); the
    fusion itself touches ≤ 2k rows. Ranks derive from the legs' own
    deterministic orders (BM25 ranks on the 2dp-rounded score, cosine
    on raw sim — both orders are the ones their standalone oracles
    pin), and the fused score rounds at 6 dp before the final cut so
    the top-20 boundary is portable."""
    from ..stages.index import bm25_topk
    from ..stages.similarity import knn_bruteforce

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    lex = bm25_topk(docs, BM25_SEARCH_TERMS, topk=RRF_LEG_K)
    lex = pd.DataFrame({
        "doc_id": lex["doc_id"].to_numpy(np.int64),
        "lex_rank": np.arange(1, len(lex) + 1, dtype=np.int64),
    })
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    sem = knn_bruteforce(emb, [RRF_QUERY_ID], k=RRF_LEG_K)
    sem = pd.DataFrame({
        "doc_id": sem["vec_id"].to_numpy(np.int64),
        "sem_rank": sem["rank"].to_numpy(np.int64),
    })
    f = lex.merge(sem, on="doc_id", how="outer")
    lr = f["lex_rank"].to_numpy(np.float64)
    sr = f["sem_rank"].to_numpy(np.float64)
    # identical double arithmetic to the SQL twin: 1.0/(60+rank),
    # absent leg = 0.0, two-term sum in lex-then-sem order
    lex_term = np.where(np.isnan(lr), 0.0, 1.0 / (RRF_K0 + lr))
    sem_term = np.where(np.isnan(sr), 0.0, 1.0 / (RRF_K0 + sr))
    f["rrf_score"] = round6(lex_term + sem_term)
    f["lex_rank"] = f["lex_rank"].fillna(0).astype("int64")
    f["sem_rank"] = f["sem_rank"].fillna(0).astype("int64")
    f["doc_id"] = f["doc_id"].astype("int64")
    f = f.sort_values(["rrf_score", "doc_id"], ascending=[False, True],
                      kind="mergesort").head(RRF_TOPK)
    return f[["doc_id", "lex_rank", "sem_rank",
              "rrf_score"]].reset_index(drop=True)


HYBRID_RRF_SQL = f"""
WITH w AS (SELECT doc_id, str_split(text, ' ') AS w FROM documents
           WHERE coalesce(text, '') <> ''),
st AS (SELECT count(*) AS n,
              sum(length(w))::DOUBLE / count(*) AS avgdl FROM w),
q AS (SELECT unnest(['hash', 'join']) AS term),
tf AS (SELECT doc_id, term,
              length(list_filter(w, x -> x = term)) AS tf,
              length(w) AS dl FROM w, q),
df AS (SELECT term, count(*) FILTER (tf > 0) AS df FROM tf GROUP BY term),
sc AS (SELECT tf.doc_id,
              sum(ln((st.n - df.df + 0.5) / (df.df + 0.5) + 1)
                  * (tf.tf * 2.2)
                  / (tf.tf + 1.2 * (0.25 + 0.75 * tf.dl / st.avgdl)))
                AS score
       FROM tf JOIN df USING (term), st GROUP BY tf.doc_id),
lex AS (SELECT doc_id, lex_rank FROM (
          SELECT doc_id, row_number() OVER (
            ORDER BY round(score, 2) DESC, doc_id) AS lex_rank FROM sc)
        WHERE lex_rank <= {RRF_LEG_K}),
qv AS (SELECT embedding FROM embeddings WHERE vec_id = {RRF_QUERY_ID}),
sem AS (SELECT doc_id, sem_rank FROM (
          SELECT e.vec_id AS doc_id, row_number() OVER (
            ORDER BY list_cosine_similarity(e.embedding::DOUBLE[],
                                            qv.embedding::DOUBLE[]) DESC,
                     e.vec_id) AS sem_rank
          FROM embeddings e, qv WHERE e.vec_id <> {RRF_QUERY_ID})
        WHERE sem_rank <= {RRF_LEG_K}),
fused AS (
  SELECT coalesce(lex.doc_id, sem.doc_id) AS doc_id,
         coalesce(lex_rank, 0) AS lex_rank,
         coalesce(sem_rank, 0) AS sem_rank,
         round(CASE WHEN lex_rank IS NULL THEN 0.0::DOUBLE
                    ELSE 1.0::DOUBLE / ({RRF_K0} + lex_rank) END
             + CASE WHEN sem_rank IS NULL THEN 0.0::DOUBLE
                    ELSE 1.0::DOUBLE / ({RRF_K0} + sem_rank) END,
               6) AS rrf_score
  FROM lex FULL JOIN sem ON lex.doc_id = sem.doc_id)
SELECT doc_id, lex_rank, sem_rank, rrf_score FROM fused
ORDER BY rrf_score DESC, doc_id LIMIT {RRF_TOPK}
"""


# ── MMR diversified top-k (round 18) ─────────────────────────────────

MMR_QUERY_ID = 0
MMR_LAMBDA = 0.7
MMR_MU = 0.3        # 1 - λ, written as a literal so both engines use
                    # the same double (Python's 1-0.7 != 0.3)
MMR_CAND = 20
MMR_K = 10


def mmr_diverse_topk(sf_dir: str):
    """Maximal-marginal-relevance diversified top-k (Carbonell &
    Goldstein 1998) — the RAG retrieval step that trades relevance
    against redundancy: candidate pool = exact cosine top-20 for the
    query vector (a distributed partial-top-k pass, the knn_bruteforce
    shape), then the greedy argmax λ·rel − (1−λ)·max-sim-to-selected
    over the candidates. The greedy is inherently sequential but runs
    over a k×k float matrix on the driver (the candidate CUT is the
    distributed part — at corpus scale the pool stays k rows).
    Portability: rel and pairwise sims round at 6 dp BEFORE the
    greedy, and each step's MMR objective re-rounds at 6 dp, so the
    oracle's recursive list-accumulator CTE replays the identical
    pick sequence."""
    from ..stages.similarity import _fetch_rows_by_id, _normalize, \
        knn_bruteforce

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    ranked = knn_bruteforce(ds, [MMR_QUERY_ID], k=MMR_CAND)
    cand_ids = ranked["vec_id"].to_numpy(np.int64)
    rows = _fetch_rows_by_id(ds, "vec_id",
                             set(cand_ids.tolist()) | {MMR_QUERY_ID})
    vecs = {int(i): np.asarray(v, np.float64)
            for i, v in zip(rows["vec_id"], rows["embedding"])}
    q = vecs[MMR_QUERY_ID]
    q = q / np.linalg.norm(q)
    m = _normalize(np.stack([vecs[int(i)] for i in cand_ids]))
    rel = round6(m @ q)
    sims = round6(m @ m.T)
    selected: list[int] = []
    scores: list[float] = []
    remaining = list(range(len(cand_ids)))
    for _ in range(min(MMR_K, len(cand_ids))):
        best = None
        for j in remaining:
            mx = max((float(sims[j, i]) for i in selected), default=0.0)
            sc = float(round6(MMR_LAMBDA * float(rel[j]) - MMR_MU * mx))
            key = (-sc, int(cand_ids[j]))
            if best is None or key < best[0]:
                best = (key, j, sc)
        selected.append(best[1])
        remaining.remove(best[1])
        scores.append(best[2])
    return pd.DataFrame({
        "step": np.arange(1, len(selected) + 1, dtype=np.int64),
        "doc_id": cand_ids[selected].astype(np.int64),
        "mmr_score": np.asarray(scores, np.float64),
    })


MMR_SQL = f"""
WITH RECURSIVE
qv AS (SELECT embedding FROM embeddings WHERE vec_id = {MMR_QUERY_ID}),
cand AS (
  SELECT vec_id,
         round(list_cosine_similarity(embedding::DOUBLE[],
               (SELECT embedding FROM qv)::DOUBLE[]), 6) AS rel
  FROM (
    SELECT e.vec_id, e.embedding, row_number() OVER (
      ORDER BY list_cosine_similarity(e.embedding::DOUBLE[],
                                      qv.embedding::DOUBLE[]) DESC,
               e.vec_id) AS rnk
    FROM embeddings e, qv WHERE e.vec_id <> {MMR_QUERY_ID})
  WHERE rnk <= {MMR_CAND}),
sims AS (
  SELECT a.vec_id AS ia, b.vec_id AS ib,
         round(list_cosine_similarity(ea.embedding::DOUBLE[],
                                      eb.embedding::DOUBLE[]), 6) AS s
  FROM cand a JOIN cand b ON a.vec_id <> b.vec_id
  JOIN embeddings ea ON ea.vec_id = a.vec_id
  JOIN embeddings eb ON eb.vec_id = b.vec_id),
sel(step, picks) AS (
  SELECT 0, []::BIGINT[]
  UNION ALL
  SELECT step + 1, list_append(picks, (
      SELECT c.vec_id FROM cand c
      WHERE NOT list_contains(picks, c.vec_id)
      ORDER BY round({MMR_LAMBDA}::DOUBLE * c.rel
                     - {MMR_MU}::DOUBLE * coalesce((
                         SELECT max(s.s) FROM sims s
                         WHERE s.ia = c.vec_id
                           AND list_contains(picks, s.ib)), 0.0::DOUBLE),
                     6) DESC, c.vec_id
      LIMIT 1))
  FROM sel WHERE step < {MMR_K})
SELECT i AS step, list_extract(picks, i) AS doc_id,
       round({MMR_LAMBDA}::DOUBLE * (
               SELECT rel FROM cand c
               WHERE c.vec_id = list_extract(picks, i))
           - {MMR_MU}::DOUBLE * coalesce((
               SELECT max(s.s) FROM sims s
               WHERE s.ia = list_extract(picks, i)
                 AND list_contains(list_slice(picks, 1, i - 1), s.ib)),
               0.0::DOUBLE), 6) AS mmr_score
FROM (SELECT picks FROM sel WHERE step = {MMR_K}),
     range(1, {MMR_K} + 1) AS t(i)
ORDER BY step
"""


# ── pseudo-relevance-feedback retrieval (round 18) ───────────────────

PRF_FEEDBACK_K = 10   # feedback depth (pass-1 BM25 top-k)
PRF_EXPAND_M = 3      # expansion terms added to the query
PRF_TOPK = 20


def bm25_prf_search(sf_dir: str):
    """Two-pass BM25 with pseudo-relevance-feedback query expansion
    (RM3-style, Abdul-Jaleel et al. 2004, unweighted-term variant):
    pass 1 retrieves the top-10 docs for the fixed query; the 3
    highest-total-TF tokens of those docs (original terms excluded,
    ties by token asc) join the query; pass 2 re-ranks the corpus
    with the 5-term query and returns the top-20. Each pass is the
    streaming two-phase BM25 (tiny stats partials + broadcast-stats
    partial-top-k — stages/index.py:95); only the 10 feedback docs'
    texts land on the driver for term counting. Scores round at 2 dp
    before ranking so a last-ulp ln()/sum-order difference can't flip
    the cut."""
    from ..stages.index import bm25_topk
    from ..stages.similarity import _fetch_rows_by_id

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    fb = bm25_topk(docs, BM25_SEARCH_TERMS, topk=PRF_FEEDBACK_K)
    fb_ids = set(int(i) for i in fb["doc_id"])
    fb_rows = _fetch_rows_by_id(docs, "doc_id", fb_ids)
    tf: dict[str, int] = {}
    for s in fb_rows["text"].tolist():
        for tok in (s or "").split(" "):
            if tok and tok not in BM25_SEARCH_TERMS:
                tf[tok] = tf.get(tok, 0) + 1
    expansion = [t for t, _ in sorted(tf.items(),
                                      key=lambda kv: (-kv[1], kv[0]))
                 ][:PRF_EXPAND_M]
    out = bm25_topk(docs, BM25_SEARCH_TERMS + expansion, topk=PRF_TOPK)
    return out.reset_index(drop=True)


def _bm25_prf_sql() -> str:
    """SQL twin: pass-1 BM25 → feedback-doc term counts → expanded
    term list → pass-2 BM25. The BM25 CTE is instantiated twice with
    different term sources."""
    def bm25(qcte: str, limit: int, with_rank: bool) -> str:
        sel = ("doc_id, score" if not with_rank else "doc_id")
        return f"""
  SELECT {sel} FROM (
    SELECT tf.doc_id,
           round(sum(ln((st.n - df.df + 0.5) / (df.df + 0.5) + 1)
                     * (tf.tf * 2.2)
                     / (tf.tf + 1.2 * (0.25 + 0.75 * tf.dl / st.avgdl))),
                 2) AS score
    FROM (SELECT doc_id, term,
                 length(list_filter(w, x -> x = term)) AS tf,
                 length(w) AS dl FROM w, {qcte}) tf
    JOIN (SELECT term, count(*) FILTER (
            length(list_filter(w, x -> x = term)) > 0) AS df
          FROM w, {qcte} GROUP BY term) df USING (term), st
    GROUP BY tf.doc_id)
  ORDER BY score DESC, doc_id LIMIT {limit}"""

    return f"""
WITH w AS (SELECT doc_id, str_split(text, ' ') AS w FROM documents
           WHERE coalesce(text, '') <> ''),
st AS (SELECT count(*) AS n,
              sum(length(w))::DOUBLE / count(*) AS avgdl FROM w),
q1(term) AS (SELECT unnest(['hash', 'join'])),
fb AS ({bm25('q1', PRF_FEEDBACK_K, True)}),
ftoks AS (SELECT unnest(str_split(d.text, ' ')) AS tok
          FROM documents d JOIN fb ON d.doc_id = fb.doc_id),
exp AS (SELECT tok FROM (
          SELECT tok, count(*) AS c FROM ftoks
          WHERE tok <> '' AND tok NOT IN ('hash', 'join')
          GROUP BY tok)
        ORDER BY c DESC, tok LIMIT {PRF_EXPAND_M}),
q2(term) AS (SELECT unnest(['hash', 'join']) UNION ALL
             SELECT tok FROM exp)
{bm25('q2', PRF_TOPK, False)}
"""


# ── per-source token-distribution KL divergence (round 18) ───────────

KL_VOCAB_K = 100   # restrict to the corpus-wide top-100 tokens


def source_token_kl(sf_dir: str):
    """Vocabulary-shift monitor: KL(source ‖ corpus) over the corpus
    top-100 tokens with add-one smoothing — the domain-drift signal
    the length-based KS/PSI checks can't see (a source can keep the
    length profile while swapping its vocabulary). Token counts come
    from per-batch (source, token, n) partials (one pre-aggregated
    shuffle, the token_zipf_slope shape); the global top-100 cut is a
    per-block partial top-k (never the whole vocabulary on the
    driver); the KL itself touches ≤ 100×|sources| rows. KL rounds at
    6 dp (ln/sum-order noise absorbed, the zipf precedent)."""
    import re as _re

    from ray.data.aggregate import Sum

    from pdf_to_text_ray.stages.groups import arrow_out

    split_re = _re.compile(r"[ \t\r\n\f\v]+")
    ds = _read(sf_dir, "documents", ["text", "source"])

    def partial_counts(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        acc: dict[tuple, int] = {}
        for src, text in zip(df["source"].tolist(), df["text"].tolist()):
            for tok in split_re.split(text or ""):
                if tok:
                    acc[(src, tok)] = acc.get((src, tok), 0) + 1
        keys = list(acc.keys())
        return arrow_out(pd.DataFrame({
            "source": [k[0] for k in keys],
            "tok": [k[1] for k in keys],
            "n": pd.Series([acc[k] for k in keys], dtype="int64")}))

    counts = (ds.map_batches(partial_counts, batch_format="pyarrow")
              .groupby(["source", "tok"])
              .aggregate(Sum("n", alias_name="n"))
              # consumed twice (tok-level re-aggregate + vocab filter):
              # pin the aggregated table so the upstream shuffle does
              # not re-execute per pass
              .materialize())

    def topk_partial(t: pa.Table) -> pa.Table:
        # input rows are unique per tok (post-groupby), so a per-block
        # (n desc, tok asc) head-k is an exact candidate cut — the
        # global top-k is a subset of the union of block top-ks
        df = (t.to_pandas()
              .sort_values(["n", "tok"], ascending=[False, True],
                           kind="mergesort").head(KL_VOCAB_K))
        return arrow_out(df)

    gtok = counts.groupby("tok").aggregate(Sum("n", alias_name="n"))
    glob = (gtok.map_batches(topk_partial, batch_format="pyarrow")
            .to_pandas()
            .sort_values(["n", "tok"], ascending=[False, True],
                         kind="mergesort").head(KL_VOCAB_K))
    vocab = glob["tok"].tolist()
    vset = set(vocab)
    g_n = glob.set_index("tok")["n"].astype("float64")
    n_glob = float(g_n.sum())
    # add-one smoothing over the ACTUAL restricted vocabulary (which
    # can be < KL_VOCAB_K on tiny corpora) — with |V| in the
    # denominator both p and q are proper distributions, so KL >= 0
    nv = float(len(vocab))

    def keep_vocab(t: pa.Table) -> pa.Table:
        toks = t["tok"].to_pylist()
        mask = pa.array([tk in vset for tk in toks], pa.bool_())
        return t.filter(mask)

    sv = counts.map_batches(keep_vocab,
                            batch_format="pyarrow").to_pandas()
    q = (g_n.reindex(vocab).to_numpy() + 1.0) / (n_glob + nv)
    rows = []
    for src, g in sv.groupby("source", sort=True):
        ns = float(g["n"].sum())
        cnt = g.set_index("tok")["n"].reindex(vocab).fillna(0.0) \
            .to_numpy(np.float64)
        p = (cnt + 1.0) / (ns + nv)
        rows.append({"source": src,
                     "kl": float(round6(float(np.sum(p * np.log(p / q)))))})
    out = pd.DataFrame(rows)
    return out.sort_values("source").reset_index(drop=True)


SOURCE_KL_SQL = rf"""
WITH toks AS (
  SELECT source,
         unnest(regexp_split_to_array(coalesce(text, ''),
                                      '[ \t\r\n\f\v]+')) AS tok
  FROM documents),
cnt AS (SELECT source, tok, count(*) AS n FROM toks
        WHERE tok <> '' GROUP BY source, tok),
v AS (SELECT tok, n FROM (
        SELECT tok, sum(n) AS n FROM cnt GROUP BY tok)
      ORDER BY n DESC, tok LIMIT {KL_VOCAB_K}),
tot AS (SELECT sum(n)::DOUBLE AS ng, count(*)::DOUBLE AS nv FROM v),
ns AS (SELECT c.source, sum(c.n)::DOUBLE AS nsrc
       FROM cnt c JOIN v USING (tok) GROUP BY c.source),
kl AS (
  SELECT ns.source,
         sum(((coalesce(c.n, 0) + 1.0) / (ns.nsrc + tot.nv))
             * ln(((coalesce(c.n, 0) + 1.0) / (ns.nsrc + tot.nv))
                  / ((v.n + 1.0) / (tot.ng + tot.nv)))) AS kl
  FROM ns CROSS JOIN v
  LEFT JOIN cnt c ON c.source = ns.source AND c.tok = v.tok, tot
  GROUP BY ns.source)
SELECT source, round(kl, 6) AS kl FROM kl ORDER BY source
"""


# ── Markov stationary distribution (round 18) ────────────────────────

MARKOV_ITERS = 20


def event_markov_stationary(sf_dir: str):
    """Stationary distribution of the per-user event-type Markov chain
    (power iteration, 20 fixed rounds from the uniform vector) — the
    steady-state mix a session simulator or load model needs, one step
    past event_transition_matrix's raw counts. The distributed part is
    the transition-count build (per-user lag inside hash buckets, the
    transition-matrix shape); the iteration itself is a |types|²
    driver matmul. Requires every observed type to have at least one
    outgoing transition (true of this events stream; a dangling type
    would leak mass — the pagerank-style fix would add a self-loop).
    Probabilities round at 6 dp only at the END, matching the unrolled
    pagerank-oracle precedent (cross-engine double drift through 20
    small dot products stays far below the hash's 9 dp)."""

    counts = event_transition_matrix(sf_dir)
    # the type universe must match the oracle's SELECT DISTINCT
    # event_type FROM events — a type with no transitions at all
    # (single-event-only) would otherwise shrink k and shift every
    # probability (code-review r19 finding)
    types = grouped_partials(_read(sf_dir, "events", ["event_type"]),
                             "event_type", count="n")["event_type"].tolist()
    idx = {t: i for i, t in enumerate(types)}
    k = len(types)
    P = np.zeros((k, k), dtype=np.float64)
    for ft, tt, n in zip(counts["from_type"], counts["to_type"],
                         counts["n"]):
        P[idx[ft], idx[tt]] = float(n)
    row = P.sum(axis=1, keepdims=True)
    row[row == 0] = 1.0
    P = P / row
    x = np.full(k, 1.0 / k, dtype=np.float64)
    for _ in range(MARKOV_ITERS):
        x = x @ P
    return pd.DataFrame({"event_type": types,
                         "stationary_prob": round6(x)})


def _markov_sql(iters: int = MARKOV_ITERS) -> str:
    sql = """
WITH seq AS (
  SELECT event_type,
         lag(event_type) OVER (PARTITION BY user_id
                               ORDER BY ts, event_id) AS prev
  FROM events),
cnt AS (SELECT prev AS from_type, event_type AS to_type,
               count(*) AS n
        FROM seq WHERE prev IS NOT NULL GROUP BY 1, 2),
p AS (SELECT from_type, to_type,
             n::DOUBLE / sum(n) OVER (PARTITION BY from_type) AS pr
      FROM cnt),
types AS (SELECT DISTINCT event_type AS t FROM events),
nt AS (SELECT count(*)::DOUBLE AS n FROM types),
x0 AS (SELECT t, 1.0 / nt.n AS prob FROM types, nt)"""
    for i in range(1, iters + 1):
        sql += f""",
x{i} AS (SELECT p.to_type AS t, sum(x{i-1}.prob * p.pr) AS prob
  FROM x{i-1} JOIN p ON p.from_type = x{i-1}.t GROUP BY 1)"""
    sql += f"""
SELECT types.t AS event_type,
       round(coalesce(x{iters}.prob, 0.0), 6) AS stationary_prob
FROM types LEFT JOIN x{iters} ON x{iters}.t = types.t
ORDER BY event_type
"""
    return sql


# ── Unicode script-mix profile (round 18) ────────────────────────────

def doc_script_mix(sf_dir: str):
    """Per-document Unicode script distribution (Latin / Cyrillic /
    Han / digit / other fractions over non-whitespace codepoints) —
    the multilingual-curation feature that catches script-mixed spam
    and wrong-language shards before an n-gram langid ever runs. Pure
    vectorized map: each doc's codepoints come from one utf-32
    reinterpret (no per-char Python); exact integer range counts, one
    rounded division per fraction, no shuffle."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def profile(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        out = {"doc_id": [], "n_cp": [], "f_latin": [], "f_cyrillic": [],
               "f_han": [], "f_digit": [], "f_other": []}
        for did, s in zip(ids, t["text"].to_pylist()):
            cp = np.frombuffer((s or "").encode("utf-32-le"), np.uint32)
            ws = ((cp == 32) | ((cp >= 9) & (cp <= 13)))
            cp = cp[~ws]
            n = len(cp)
            if n == 0:
                continue
            latin = int(np.count_nonzero(
                ((cp >= 65) & (cp <= 90)) | ((cp >= 97) & (cp <= 122))
                | ((cp >= 0xC0) & (cp <= 0x24F))))
            cyr = int(np.count_nonzero((cp >= 0x400) & (cp <= 0x4FF)))
            han = int(np.count_nonzero((cp >= 0x4E00) & (cp <= 0x9FFF)))
            dig = int(np.count_nonzero((cp >= 48) & (cp <= 57)))
            out["doc_id"].append(int(did))
            out["n_cp"].append(n)
            out["f_latin"].append(latin / n)
            out["f_cyrillic"].append(cyr / n)
            out["f_han"].append(han / n)
            out["f_digit"].append(dig / n)
            out["f_other"].append((n - latin - cyr - han - dig) / n)
        return pa.table({
            "doc_id": pa.array(out["doc_id"], pa.int64()),
            "n_cp": pa.array(out["n_cp"], pa.int64()),
            "f_latin": pa.array(round6(out["f_latin"]), pa.float64()),
            "f_cyrillic": pa.array(round6(out["f_cyrillic"]),
                                   pa.float64()),
            "f_han": pa.array(round6(out["f_han"]), pa.float64()),
            "f_digit": pa.array(round6(out["f_digit"]), pa.float64()),
            "f_other": pa.array(round6(out["f_other"]), pa.float64()),
        })

    return ds.map_batches(profile, batch_format="pyarrow")


SCRIPT_MIX_SQL = """
WITH ch AS (
  SELECT doc_id,
         unnest(list_transform(split(text, ''), c -> unicode(c))) AS cp
  FROM documents
  WHERE coalesce(text, '') <> ''),
nws AS (SELECT doc_id, cp FROM ch
        WHERE NOT (cp = 32 OR (cp BETWEEN 9 AND 13))),
agg AS (
  SELECT doc_id, count(*) AS n,
         sum(CASE WHEN (cp BETWEEN 65 AND 90)
                    OR (cp BETWEEN 97 AND 122)
                    OR (cp BETWEEN 192 AND 591) THEN 1 ELSE 0 END)
           AS latin,
         sum(CASE WHEN cp BETWEEN 1024 AND 1279 THEN 1 ELSE 0 END)
           AS cyr,
         sum(CASE WHEN cp BETWEEN 19968 AND 40959 THEN 1 ELSE 0 END)
           AS han,
         sum(CASE WHEN cp BETWEEN 48 AND 57 THEN 1 ELSE 0 END) AS dig
  FROM nws GROUP BY doc_id)
SELECT doc_id, n::BIGINT AS n_cp,
       round(latin / n::DOUBLE, 6) AS f_latin,
       round(cyr / n::DOUBLE, 6) AS f_cyrillic,
       round(han / n::DOUBLE, 6) AS f_han,
       round(dig / n::DOUBLE, 6) AS f_digit,
       round((n - latin - cyr - han - dig) / n::DOUBLE, 6) AS f_other
FROM agg
"""


# ── source-overlap provenance matrix (round 18) ──────────────────────

def source_overlap_matrix(sf_dir: str):
    """Pairwise source-provenance overlap: Jaccard between every two
    sources' DISTINCT word-trigram sets — the syndication / quote-farm
    signal ACROSS catalog sources (host_mirror_similarity's shape, but
    on the curated documents table and keyed by origin, not host).
    Scale shape: trigram strings never shuffle — each batch emits
    distinct (source, 16-hex md5 gram key) rows (the minhash 24-byte
    discipline); one composite groupby dedups across batches; the
    postings self-join explodes per gram key inside hash buckets
    (pairs per gram ≤ C(|sources|,2) — sources are a CATALOG, small by
    construction, the documented bound); per-pair counts and set sizes
    are driver-side only at ≤ |sources|² rows. The oracle dedups on
    the same truncated md5 so both engines see identical keys even in
    the (2⁻⁶⁴-scale) collision case."""
    import hashlib

    from ..stages.curation import _word_ngrams
    from ..stages.groups import arrow_out, bucketed_group_apply

    ds = _read(sf_dir, "documents", ["source", "text"])

    def partial(df: pd.DataFrame) -> pa.Table:
        seen: set = set()
        for src, text in zip(df["source"].tolist(), df["text"].tolist()):
            for g in _word_ngrams(text or "", 3):
                seen.add((src, hashlib.md5(g.encode())
                          .hexdigest()[:16]))
        return arrow_out(pd.DataFrame({
            "source": [s for s, _ in seen],
            "g16": [k for _, k in seen]}))

    # ONE g16-hash-bucket pass does the cross-batch dedup, the
    # per-source set sizes, AND the postings pair explosion — a key's
    # rows all land in one bucket, so in-bucket drop_duplicates IS the
    # global distinct. (Was a Ray groupby over ~1.5M distinct
    # (source, g16) string keys + a second bucketed pass: 44 s at
    # sf0.1; this shape runs in ~2.3 s.)
    def bucket_fn(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates()
        sz = d.groupby("source").size().reset_index(name="n_common")
        sz = pd.DataFrame({"source_a": sz["source"],
                           "source_b": "", "n_common": sz["n_common"]})
        m = d.merge(d, on="g16", suffixes=("_a", "_b"))
        m = m[m["source_a"] < m["source_b"]]
        pr = (m.groupby(["source_a", "source_b"], as_index=False)
              .agg(n_common=("g16", "size")))
        return pd.concat([sz, pr], ignore_index=True)

    p = grouped_partials(bucketed_group_apply(
        ds.map_batches(partial, batch_format="pandas"),
        "g16", bucket_fn, num_buckets=32), ["source_a", "source_b"],
        sums=["n_common"])
    sizes = (p[p["source_b"] == ""]
             .set_index("source_a")["n_common"])
    pairs = p[p["source_b"] != ""].reset_index(drop=True)
    sa = sizes.reindex(pairs["source_a"]).to_numpy(np.float64)
    sb = sizes.reindex(pairs["source_b"]).to_numpy(np.float64)
    inter = pairs["n_common"].to_numpy(np.float64)
    pairs["jaccard"] = round6(inter / (sa + sb - inter))
    return pairs


SOURCE_OVERLAP_SQL = """
WITH w AS (SELECT source, str_split(text, ' ') AS w FROM documents
           WHERE coalesce(text, '') <> ''),
pos AS (SELECT source, w, unnest(generate_series(1, length(w) - 2)) AS i
        FROM w WHERE length(w) >= 3),
g AS (SELECT DISTINCT source,
             substr(md5(array_to_string(w[i:i+2], ' ')), 1, 16) AS g16
      FROM pos),
sz AS (SELECT source, count(*) AS n FROM g GROUP BY source),
inter AS (SELECT a.source AS source_a, b.source AS source_b,
                 count(*) AS n_common
          FROM g a JOIN g b ON a.g16 = b.g16 AND a.source < b.source
          GROUP BY 1, 2)
SELECT source_a, source_b, n_common::BIGINT AS n_common,
       round(n_common::DOUBLE
             / (sa.n + sb.n - n_common)::DOUBLE, 6) AS jaccard
FROM inter
JOIN sz sa ON sa.source = inter.source_a
JOIN sz sb ON sb.source = inter.source_b
ORDER BY source_a, source_b
"""


# ── exactly-portable HyperLogLog (round 18) ──────────────────────────

HLL_P = 6        # 2^6 = 64 registers: small enough that the SQL twin
HLL_M = 64       # replays every register exactly (rse ≈ 1.04/√64 ≈ 13%)
HLL_ALPHA = 0.709  # alpha_64 (Flajolet, Fusy, Gandouet & Meunier 2007)


def hll_estimate_users_per_type(sf_dir: str):
    """Grouped HyperLogLog distinct-user estimate whose VALUE is
    hash-checked, not just accuracy-flagged (cf.
    approx_distinct_users_per_type, whose 4 KiB internal-hash sketch
    the oracle can only bound): hash = first 8 md5 hex digits of the
    user id (the repo's engine-portable uniform), bucket = top 6 bits,
    rho = leading-zero count + 1 of the remaining 26 bits. Per-batch
    partials are (event_type, bucket, max rho) rows (≤ 64·|types| per
    batch — registers shuffle, never values); the indicator sum
    Σ 2^−M_j is a sum of exact dyadic rationals (|terms| ≤ 64,
    granularity 2^−27 — exactly representable in a double regardless
    of order), so engine and oracle agree bit-for-bit before the one
    rounded division. The ≤ 2.5m linear-counting branch (m·ln(m/V))
    is replayed identically; at sf0.001 (100 users) it takes the
    linear path, at sf0.01 (999) the raw path — both sides of the
    branch are driver-gated across scales."""
    from ..stages.md5np import md5_prefix64

    ds = _read(sf_dir, "events", ["event_type", "user_id"])

    def partial(t: pa.Table) -> pa.Table:
        h = (md5_prefix64(pc.cast(t["user_id"], pa.string()))
             >> np.uint64(32)).astype(np.int64)
        sfx = h & ((1 << 26) - 1)
        # rho = leading zeros of the 26-bit suffix + 1; frexp's exponent
        # is the exact bit length (floor(log2)+1, 0 for 0) the SQL twin
        # computes
        rho = 27 - np.frexp(sfx.astype(np.float64))[1].astype(np.int64)
        return pa.table({
            "event_type": pc.cast(t["event_type"], pa.string()),
            "bucket": pa.array(h >> 26, pa.int64()),
            "rho": pa.array(rho, pa.int64()),
        })

    regs = grouped_partials(ds, ["event_type", "bucket"], maxes=["rho"],
                            prep=partial)
    rows = []
    for et, g in regs.groupby("event_type", sort=True):
        m = np.zeros(HLL_M, dtype=np.int64)
        m[g["bucket"].to_numpy()] = g["rho"].to_numpy()
        s = float(np.sum(np.ldexp(1.0, -m)))  # exact dyadic sum
        v = int(np.count_nonzero(m == 0))
        e_raw = HLL_ALPHA * (HLL_M * HLL_M) / s
        if e_raw <= 2.5 * HLL_M and v > 0:
            est = HLL_M * np.log(HLL_M / v)
        else:
            est = e_raw
        rows.append({"event_type": et,
                     "hll_estimate": float(round6(est))})
    return pd.DataFrame(rows)


HLL_SQL = f"""
WITH b AS (
  SELECT event_type,
         h // 67108864 AS bucket,
         h % 67108864 AS sfx
  FROM (SELECT event_type,
               ('0x' || substr(md5(user_id::VARCHAR), 1, 8))::UBIGINT
                 AS h
        FROM events)),
r AS (SELECT event_type, bucket,
             max(CASE WHEN sfx = 0 THEN 27
                      ELSE 26 - floor(log2(sfx))::INT END) AS rho
      FROM b GROUP BY event_type, bucket),
reg AS (SELECT t.event_type, g.i AS bucket, coalesce(r.rho, 0) AS m
        FROM (SELECT DISTINCT event_type FROM events) t
        CROSS JOIN range(0, {HLL_M}) g(i)
        LEFT JOIN r ON r.event_type = t.event_type AND r.bucket = g.i),
s AS (SELECT event_type,
             sum(1.0::DOUBLE / ((1::BIGINT << m)::DOUBLE)) AS s,
             sum(CASE WHEN m = 0 THEN 1 ELSE 0 END) AS v
      FROM reg GROUP BY event_type),
e AS (SELECT event_type,
             {HLL_ALPHA}::DOUBLE * {HLL_M * HLL_M}.0 / s AS e_raw, v
      FROM s)
SELECT event_type,
       round(CASE WHEN e_raw <= {int(2.5 * HLL_M)}.0 AND v > 0
                  THEN {HLL_M}.0 * ln({HLL_M}.0 / v)
                  ELSE e_raw END, 6) AS hll_estimate
FROM e ORDER BY event_type
"""


# ── leakage-safe group split (round 18) ──────────────────────────────

def source_split_assign(sf_dir: str):
    """Leakage-safe train/val/test split: the split key is the GROUP
    (documents.source), not the row, so every document from one origin
    lands in the same split — the discipline that keeps near-duplicate
    shards of a single source from straddling train and test (the
    standard contamination guard when splitting crawled corpora; cf.
    doc_split_assign for the per-row variant). Same engine-portable
    md5 uniform, pure map — no shuffle, no RNG state."""
    from ..stages.sketches import md5_uniform

    ds = _read(sf_dir, "documents", ["doc_id", "source"])

    def assign(t: pa.Table) -> pa.Table:
        srcs = t["source"].to_pylist()
        u = md5_uniform(srcs)
        split = np.where(u < 0.8, "train", np.where(u < 0.9, "val",
                                                    "test"))
        return pa.table({
            "doc_id": pc.cast(t["doc_id"], pa.int64()),
            "source": t["source"],
            "split": pa.array(split.tolist(), pa.string()),
        })

    return ds.map_batches(assign, batch_format="pyarrow")


SOURCE_SPLIT_SQL = """
SELECT doc_id, source,
       CASE WHEN u < 0.8 THEN 'train'
            WHEN u < 0.9 THEN 'val'
            ELSE 'test' END AS split
FROM (SELECT doc_id, source,
             ('0x' || substr(md5(source), 1, 8))::UBIGINT
               / 4294967296.0 AS u
      FROM documents)
"""


# ── Poisson bootstrap CI (round 19) ──────────────────────────────────

BOOT_B = 100          # bootstrap replicates
_POIS_MAX = 8         # weight cap (P(X>8 | λ=1) ≈ 1e-6)
# cumulative Poisson(1) CDF thresholds, shared verbatim with the SQL
# oracle (repr round-trips to the identical double in DuckDB)
_POIS_CUM = [0.0] * _POIS_MAX
_c = 0.0
_term = float(np.exp(-1.0))
for _k in range(_POIS_MAX):
    _c += _term
    _POIS_CUM[_k] = _c
    _term /= (_k + 1)
_POIS_CUM_ARR = np.array(_POIS_CUM, np.float64)
# events per bootstrap batch: bounds the B × n key grid (≈100 k keys)
# so a worker's peak memory does not follow the read's block size
_POIS_BATCH = 1024


def poisson_bootstrap_value_ci(sf_dir: str):
    """95% CI of mean(events.value) by POISSON BOOTSTRAP — the
    web-scale bootstrap (Chamandy et al., Google 2012): sampling with
    replacement from a distributed table is not streamable, but
    per-row independent Poisson(1) replicate weights are — each batch
    of ≤ _POIS_BATCH events emits only B=100 partial (Σw·v, Σw) rows,
    the driver merges O(B·batches) partials, and the CI is two order
    statistics of the replicate means. Weights come from the
    engine-portable md5 uniform inverted through the Poisson CDF
    (thresholds shared verbatim with the oracle), so DuckDB replays the
    exact weight grid. NULL values drop before weighting (ADVICE r05
    precedent); bounds round 6 dp (partial-sum-order noise is
    ~1e-12)."""
    from ..stages.sketches import md5_uniform

    ds = _read(sf_dir, "events", ["event_id", "value"])
    reps = pc.cast(pa.array(np.arange(BOOT_B)), pa.string())

    def partials(t: pa.Table) -> pa.Table:
        v = t["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        keep = ~np.isnan(v)
        v = v[keep]
        n = len(v)
        ids = pc.cast(pa.array(
            t["event_id"].to_numpy(zero_copy_only=False)[keep]), pa.string())
        # the batch's whole (replicate, event) key grid in one kernel
        # call: B × ≤ _POIS_BATCH keys, whatever the block size
        grid = pc.binary_join_element_wise(
            "boot", ids.take(np.tile(np.arange(n), BOOT_B)),
            reps.take(np.repeat(np.arange(BOOT_B), n)), ":")
        w = np.searchsorted(_POIS_CUM_ARR, md5_uniform(grid),
                            side="right").reshape(BOOT_B, n)
        # one dot per replicate: a matrix-vector product may sum in
        # another order and move the replicate means' last bits
        sv = np.array([float(w[b] @ v) for b in range(BOOT_B)], np.float64)
        sw = w.sum(axis=1).astype(np.int64)
        # the batch's count and plain sum ride on replicate 0's row
        first = np.arange(BOOT_B) == 0
        return pa.table({"b": np.arange(BOOT_B, dtype=np.int64),
                         "sv": sv, "sw": sw,
                         "n": np.where(first, n, 0).astype(np.int64),
                         "s": np.where(first, float(v.sum()), 0.0)})

    g = grouped_partials(ds, "b", sums=["sv", "sw", "n", "s"],
                         prep=partials, batch_size=_POIS_BATCH)
    n = int(g["n"].iloc[0])
    total = float(g["s"].iloc[0])
    means = (g["sv"] / g["sw"]).to_numpy(np.float64)
    order = np.lexsort((g["b"].to_numpy(), means))
    lo = float(means[order[2]])      # 3rd smallest of 100 → 2.5th pct
    hi = float(means[order[97]])     # 98th smallest → 97.5th pct
    return pd.DataFrame({"n": pd.Series([n], dtype="int64"),
                         "mean_value": [round6(total / n)],
                         "ci_lo": [round6(lo)],
                         "ci_hi": [round6(hi)]})


def _bootstrap_sql(B: int = BOOT_B) -> str:
    case = "CASE " + " ".join(
        f"WHEN u < {_POIS_CUM[k]!r} THEN {k}"
        for k in range(_POIS_MAX)) + f" ELSE {_POIS_MAX} END"
    return f"""
WITH ev AS (SELECT event_id, value FROM events WHERE value IS NOT NULL),
grid AS (
  SELECT e.value, b.b,
         ('0x' || substr(md5('boot:' || e.event_id::VARCHAR || ':'
                             || b.b::VARCHAR), 1, 8))::UBIGINT
           / 4294967296.0 AS u
  FROM ev e CROSS JOIN (SELECT unnest(range({B})) AS b) b),
reps AS (
  SELECT b, sum(({case}) * value) / sum({case}) AS m
  FROM grid GROUP BY b),
ranked AS (SELECT m, row_number() OVER (ORDER BY m, b) AS rn FROM reps)
SELECT (SELECT count(*) FROM ev)::BIGINT AS n,
       round((SELECT avg(value) FROM ev), 6) AS mean_value,
       round((SELECT m FROM ranked WHERE rn = 3), 6) AS ci_lo,
       round((SELECT m FROM ranked WHERE rn = 98), 6) AS ci_hi
"""


# ── Johnson–Lindenstrauss random projection (round 19) ───────────────

RP_K = 8


def _rp_signs(d: int) -> np.ndarray:
    """±1 Rademacher projection matrix (Achlioptas 2003) derived from
    the engine-portable md5 uniform — data-independent, so unlike PCA
    it needs NO pass over the corpus: any worker (or the SQL oracle)
    regenerates the identical matrix from (d, k) alone. Rows are
    1-based to line up with DuckDB's generate_subscripts."""
    from pdf_to_text_ray.stages.sketches import md5_uniform

    keys = [f"rp:{i}:{j}" for i in range(1, d + 1) for j in range(RP_K)]
    u = md5_uniform(keys)
    return np.where(u < 0.5, 1.0, -1.0).reshape(d, RP_K)


def embedding_rp_project(sf_dir: str):
    """Random projection of the 64-d embeddings to k=8 dims: y = xᵀR/√k
    with the hash-derived ±1 matrix — the JL-lemma dimensionality
    reducer used before LSH/clustering when a PCA pass is too
    expensive. Pure map: the matrix regenerates per task (512 md5
    calls — at cluster scale it would be ray.put once), each batch is
    one float64 matmul; no shuffle, no driver traffic."""
    from pdf_to_text_ray.stages.similarity import list_column_to_matrix

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding", "label"])

    def project(t: pa.Table) -> pa.Table:
        m = list_column_to_matrix(t["embedding"]).astype(np.float64)
        r = _rp_signs(m.shape[1])
        y = round6(m @ r / np.sqrt(float(RP_K)))
        cols = {"vec_id": pc.cast(t["vec_id"], pa.int64()),
                "label": pc.cast(t["label"], pa.int32())}
        for j in range(RP_K):
            cols[f"rp{j + 1}"] = pa.array(y[:, j], pa.float64())
        return pa.table(cols)

    return ds.map_batches(project, batch_format="pyarrow")


def _rp_sql(k: int = RP_K) -> str:
    pcs = ", ".join(
        f"round(max(CASE WHEN p.j = {j} THEN p.y END), 6) AS rp{j + 1}"
        for j in range(k))
    return f"""
WITH e AS MATERIALIZED (
  SELECT vec_id, generate_subscripts(embedding, 1) AS i,
         CAST(unnest(embedding) AS DOUBLE) AS val
  FROM embeddings),
dims AS (SELECT DISTINCT i FROM e),
r AS MATERIALIZED (
  SELECT i, j,
         CASE WHEN ('0x' || substr(md5('rp:' || i::VARCHAR || ':'
                                       || j::VARCHAR), 1, 8))::UBIGINT
                     / 4294967296.0 < 0.5
              THEN 1.0 ELSE -1.0 END AS s
  FROM dims CROSS JOIN (SELECT unnest(range({k})) AS j)),
p AS (SELECT e.vec_id, r.j, sum(e.val * r.s) / sqrt({k}.0) AS y
      FROM e JOIN r USING (i) GROUP BY e.vec_id, r.j)
SELECT p.vec_id, any_value(l.label)::INT AS label, {pcs}
FROM p JOIN embeddings l ON l.vec_id = p.vec_id
GROUP BY p.vec_id
"""


# ── transition entropy (round 19) ────────────────────────────────────

def event_transition_entropy(sf_dir: str):
    """Per-state conditional entropy H(next | prev=s) in bits over the
    per-user event-type Markov chain — the predictability profile of
    the stream (a near-zero row is a deterministic funnel step, a
    log2(k) row is noise). Reuses event_transition_matrix's
    bucket-shuffled counts; the entropy itself touches |types|² rows
    on the driver."""
    counts = event_transition_matrix(sf_dir)
    rows = []
    for ft, g in counts.groupby("from_type", sort=True):
        n = g["n"].to_numpy(np.float64)
        p = n / n.sum()
        rows.append({"from_type": ft,
                     "n_out": int(n.sum()),
                     "entropy_bits":
                         float(round6(-np.sum(p * np.log2(p))))})
    return pd.DataFrame(rows)


TRANSITION_ENTROPY_SQL = """
WITH seq AS (
  SELECT event_type,
         lag(event_type) OVER (PARTITION BY user_id
                               ORDER BY ts, event_id) AS prev
  FROM events),
cnt AS (SELECT prev AS from_type, event_type AS to_type,
               count(*) AS n
        FROM seq WHERE prev IS NOT NULL GROUP BY 1, 2),
p AS (SELECT from_type, n,
             n::DOUBLE / sum(n) OVER (PARTITION BY from_type) AS pr
      FROM cnt)
SELECT from_type, sum(n)::BIGINT AS n_out,
       round(-sum(pr * log2(pr)), 6) AS entropy_bits
FROM p GROUP BY from_type ORDER BY from_type
"""


# ── temperature-based source mixing weights (round 19) ───────────────

MIX_ALPHA = 0.7


def source_mix_weights(sf_dir: str):
    """Multinomial source-mixing weights w_s ∝ n_s^α at temperature
    α=0.7 (the GPT-3 / multilingual-LM data-mixing rule): upsamples
    small sources relative to proportional sampling without letting
    any source dominate. boost = w_s / (n_s/N) is the per-source
    repetition factor an epoch planner applies. Counts come from
    vectorized per-batch partials (small key domain — no shuffle)."""

    ds = _read(sf_dir, "documents", ["source"])
    c = grouped_partials(ds, ["source"], count="n")
    n = c["n"].to_numpy(np.float64)
    pw = n ** MIX_ALPHA
    w = pw / pw.sum()
    boost = w * n.sum() / n
    return pd.DataFrame({"source": c["source"].to_numpy(),
                         "n_docs": c["n"].astype("int64").to_numpy(),
                         "w_temp": round6(w),
                         "boost": round6(boost)})


SOURCE_MIX_SQL = f"""
WITH c AS (SELECT source, count(*)::DOUBLE AS n
           FROM documents GROUP BY source),
t AS (SELECT sum(pow(n, {MIX_ALPHA})) AS s, sum(n) AS tot FROM c)
SELECT source, n::BIGINT AS n_docs,
       round(pow(n, {MIX_ALPHA}) / t.s, 6) AS w_temp,
       round(pow(n, {MIX_ALPHA}) / t.s * t.tot / n, 6) AS boost
FROM c, t ORDER BY source
"""


# ── out-of-vocabulary rate (round 19) ────────────────────────────────

OOV_MIN_DF = 5


def doc_oov_rate(sf_dir: str):
    """Per-document out-of-vocabulary occurrence rate against the
    corpus vocabulary of tokens with document frequency ≥ 5 — a
    gibberish/OCR-noise signal orthogonal to length and stopword
    gates. Scale shape: DF lives on the Zipf tail, so the vocabulary
    is NEVER broadcast — per-batch (doc_id, tok, n) partials (each doc
    wholly inside one batch, so rows are globally unique) shuffle by
    hash(tok) where DF and the rare-flag compute as one vectorized
    pandas pass per bucket, then a fixed-width (doc_id, n, oov)
    groupby sums the rates. Token convention matches source_token_kl
    (whitespace split, case-preserving)."""
    import re as _re

    from ray.data.aggregate import Sum

    from pdf_to_text_ray.stages.groups import bucketed_group_apply

    split_re = _re.compile(r"[ \t\r\n\f\v]+")
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def doc_tokens(df: pd.DataFrame) -> pa.Table:
        acc: dict[tuple, int] = {}
        for did, text in zip(df["doc_id"].tolist(), df["text"].tolist()):
            for tok in split_re.split(text or ""):
                if tok:
                    acc[(did, tok)] = acc.get((did, tok), 0) + 1
        keys = list(acc.keys())
        return arrow_out(pd.DataFrame({
            "doc_id": pd.Series([k[0] for k in keys], dtype="int64"),
            "tok": [k[1] for k in keys],
            "n": pd.Series([acc[k] for k in keys], dtype="int64")}))

    toks = ds.map_batches(doc_tokens, batch_format="pandas")

    def flag_rare(df: pd.DataFrame) -> pd.DataFrame:
        # rows are unique per (doc_id, tok) ⇒ DF = group size
        df = df.copy()
        df["df"] = df.groupby("tok")["tok"].transform("size")
        df["oov"] = np.where(df["df"].to_numpy() < OOV_MIN_DF,
                             df["n"].to_numpy(), 0).astype("int64")
        return df[["doc_id", "n", "oov"]]

    flagged = bucketed_group_apply(toks, "tok", flag_rare)
    agg = flagged.groupby("doc_id").aggregate(
        Sum("n", alias_name="n_tok"), Sum("oov", alias_name="oov_n"))

    # the per-doc result stays a Dataset — it is corpus-sized
    def finish(t: pa.Table) -> pa.Table:
        n = t["n_tok"].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        o = t["oov_n"].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        return pa.table({
            "doc_id": pc.cast(t["doc_id"], pa.int64()),
            "n_tok": pc.cast(t["n_tok"], pa.int64()),
            "oov_rate": pa.array(round6(o / n), pa.float64())})

    return agg.map_batches(finish, batch_format="pyarrow")


OOV_SQL = rf"""
WITH toks AS (
  SELECT doc_id,
         unnest(regexp_split_to_array(coalesce(text, ''),
                                      '[ \t\r\n\f\v]+')) AS tok
  FROM documents),
cnt AS (SELECT doc_id, tok, count(*) AS n FROM toks
        WHERE tok <> '' GROUP BY doc_id, tok),
dfreq AS (SELECT tok, count(*) AS df FROM cnt GROUP BY tok),
j AS (SELECT c.doc_id, c.n,
             CASE WHEN d.df < {OOV_MIN_DF} THEN c.n ELSE 0 END AS oov
      FROM cnt c JOIN dfreq d USING (tok))
SELECT doc_id, sum(n)::BIGINT AS n_tok,
       round(sum(oov)::DOUBLE / sum(n), 6) AS oov_rate
FROM j GROUP BY doc_id
"""


# ── Flesch reading ease (round 19) ───────────────────────────────────

def doc_flesch_score(sf_dir: str):
    """Flesch reading ease per document (Flesch 1948):
    206.835 − 1.015·(words/sentences) − 84.6·(syllables/words), with
    the standard orthographic heuristics — syllables = maximal vowel
    runs ([aeiouy], lowercased, min 1 per word), sentences = maximal
    [.!?] runs (min 1). The classic readability gate FineWeb-style
    curation runs next to the Gopher rules. Pure vectorized-per-doc
    map, no shuffle; score rounds 6 dp."""
    import re as _re

    split_re = _re.compile(r"[ \t\r\n\f\v]+")
    vowel_re = _re.compile(r"[aeiouy]+")
    sent_re = _re.compile(r"[.!?]+")
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def score(df: pd.DataFrame) -> pd.DataFrame:
        out = {"doc_id": [], "n_words": [], "n_sentences": [],
               "n_syllables": [], "flesch": []}
        for did, text in zip(df["doc_id"].tolist(), df["text"].tolist()):
            text = text or ""
            words = [w for w in split_re.split(text) if w]
            if not words:
                continue
            w = len(words)
            s = max(len(sent_re.findall(text)), 1)
            y = sum(max(len(vowel_re.findall(tok.lower())), 1)
                    for tok in words)
            out["doc_id"].append(did)
            out["n_words"].append(w)
            out["n_sentences"].append(s)
            out["n_syllables"].append(y)
            out["flesch"].append(round6(
                206.835 - 1.015 * (w / s) - 84.6 * (y / w)))
        return pd.DataFrame({
            "doc_id": pd.Series(out["doc_id"], dtype="int64"),
            "n_words": pd.Series(out["n_words"], dtype="int64"),
            "n_sentences": pd.Series(out["n_sentences"], dtype="int64"),
            "n_syllables": pd.Series(out["n_syllables"], dtype="int64"),
            "flesch": pd.Series(out["flesch"], dtype="float64")})

    return ds.map_batches(score, batch_format="pandas")


FLESCH_SQL = r"""
WITH toks AS (
  SELECT doc_id,
         unnest(regexp_split_to_array(coalesce(text, ''),
                                      '[ \t\r\n\f\v]+')) AS tok
  FROM documents),
syl AS (
  SELECT doc_id,
         greatest(len(list_filter(
           regexp_split_to_array(lower(tok), '[^aeiouy]+'),
           x -> x <> '')), 1) AS y
  FROM toks WHERE tok <> ''),
w AS (SELECT doc_id, count(*) AS n_words, sum(y) AS n_syllables
      FROM syl GROUP BY doc_id),
s AS (SELECT doc_id,
             greatest(len(regexp_extract_all(coalesce(text, ''),
                                             '[.!?]+')), 1) AS n_sent
      FROM documents)
SELECT w.doc_id, w.n_words::BIGINT AS n_words,
       s.n_sent::BIGINT AS n_sentences,
       w.n_syllables::BIGINT AS n_syllables,
       round(206.835
             - 1.015 * (w.n_words::DOUBLE / s.n_sent)
             - 84.6 * (w.n_syllables::DOUBLE / w.n_words), 6) AS flesch
FROM w JOIN s USING (doc_id)
"""


# ── per-doc character entropy (round 19) ─────────────────────────────

def doc_char_entropy(sf_dir: str):
    """Shannon entropy (bits) of the non-whitespace codepoint
    distribution per document — near-zero flags repeated-character
    spam, ≫ typical-language entropy flags base64/binary-in-text
    gibberish; orthogonal to the compression-ratio check (and, unlike
    zlib, exactly SQL-replayable). Same utf-32 reinterpret as
    doc_script_mix; one np.unique per doc, no shuffle."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def entropy(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        out_id, out_n, out_h = [], [], []
        for did, s in zip(ids, t["text"].to_pylist()):
            cp = np.frombuffer((s or "").encode("utf-32-le"), np.uint32)
            ws = ((cp == 32) | ((cp >= 9) & (cp <= 13)))
            cp = cp[~ws]
            n = len(cp)
            if n == 0:
                continue
            _, counts = np.unique(cp, return_counts=True)
            p = counts / n
            out_id.append(int(did))
            out_n.append(n)
            out_h.append(float(round6(-np.sum(p * np.log2(p)))))
        return pa.table({
            "doc_id": pa.array(out_id, pa.int64()),
            "n_cp": pa.array(out_n, pa.int64()),
            "entropy_bits": pa.array(out_h, pa.float64())})

    return ds.map_batches(entropy, batch_format="pyarrow")


CHAR_ENTROPY_SQL = """
WITH ch AS (
  SELECT doc_id,
         unnest(list_transform(split(text, ''), c -> unicode(c))) AS cp
  FROM documents
  WHERE coalesce(text, '') <> ''),
nws AS (SELECT doc_id, cp FROM ch
        WHERE NOT (cp = 32 OR (cp BETWEEN 9 AND 13))),
cnt AS (SELECT doc_id, cp, count(*) AS c FROM nws GROUP BY doc_id, cp),
tot AS (SELECT doc_id, sum(c)::DOUBLE AS n FROM cnt GROUP BY doc_id)
SELECT cnt.doc_id, tot.n::BIGINT AS n_cp,
       round(-sum((cnt.c / tot.n) * log2(cnt.c / tot.n)), 6)
         AS entropy_bits
FROM cnt JOIN tot USING (doc_id)
GROUP BY cnt.doc_id, tot.n
"""


# ── Benford first-digit audit (round 19) ─────────────────────────────

def value_benford_chisq(sf_dir: str):
    """Benford's-law first-significant-digit audit of events.value —
    the classic fabricated-data / unit-mixing detector. The first
    digit comes from the ENGINE-PORTABLE '%.6e' rendering of the
    double (identical round-half-even formatting in CPython and
    DuckDB), sidestepping log10-boundary drift. Per-batch digit
    counts are 9-row partials; χ² contributions round 6 dp."""
    import math

    ds = _read(sf_dir, "events", ["value"])

    def digits(t: pa.Table) -> pa.Table:
        v = t["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        v = v[~np.isnan(v)]
        v = v[v != 0.0]
        return pa.table({"digit": np.array(
            [int(f"{abs(x):.6e}"[0]) for x in v], np.int64)})

    p = grouped_partials(ds, "digit", count="n", prep=digits)
    g = dict(zip(p["digit"], p["n"]))
    total = float(sum(g.values()))
    rows = []
    for d in range(1, 10):
        nd = int(g.get(d, 0))
        pb = math.log10(1.0 + 1.0 / d)
        exp = total * pb
        rows.append({"digit": d, "n": nd,
                     "p_obs": round6(nd / total),
                     "p_benford": round6(pb),
                     "chisq_contrib": round6((nd - exp) ** 2 / exp)})
    out = pd.DataFrame(rows)
    out["digit"] = out["digit"].astype("int64")
    out["n"] = out["n"].astype("int64")
    return out


BENFORD_SQL = """
WITH ev AS (SELECT value FROM events
            WHERE value IS NOT NULL AND value <> 0),
d AS (SELECT substr(format('{:.6e}', abs(value)), 1, 1)::BIGINT AS digit
      FROM ev),
cnt AS (SELECT digit, count(*) AS n FROM d GROUP BY digit),
tot AS (SELECT sum(n)::DOUBLE AS t FROM cnt),
digits AS (SELECT unnest(range(1, 10)) AS digit)
SELECT digits.digit, coalesce(cnt.n, 0)::BIGINT AS n,
       round(coalesce(cnt.n, 0) / tot.t, 6) AS p_obs,
       round(log10(1.0 + 1.0 / digits.digit), 6) AS p_benford,
       round(pow(coalesce(cnt.n, 0) - tot.t * log10(1.0 + 1.0 / digits.digit), 2)
             / (tot.t * log10(1.0 + 1.0 / digits.digit)), 6)
         AS chisq_contrib
FROM digits LEFT JOIN cnt USING (digit), tot
ORDER BY digits.digit
"""


# ── duplicate-cluster size histogram (round 19) ──────────────────────

def dup_cluster_size_hist(sf_dir: str):
    """Histogram of exact-duplicate cluster sizes (md5(text) groups) —
    the dedup-observability readout that says whether duplication is a
    long tail of pairs or a few mega-clusters (which decides salting
    strategy before the dedup shuffle). Texts hash per batch (rows
    shrink to 16-byte keys before the exchange); two fixed-width
    groupbys."""
    import hashlib

    from ray.data.aggregate import Count

    ds = _read(sf_dir, "documents", ["text"])

    def to_hash(b: pa.Table) -> pa.Table:
        hs = [hashlib.md5((t or "").encode()).hexdigest()
              for t in b["text"].to_pylist()]
        return arrow_out(pd.DataFrame({"h": hs}))

    clusters = (ds.map_batches(to_hash, batch_format="pyarrow")
                .groupby("h").aggregate(Count(alias_name="cluster_size")))
    hist = (clusters.groupby("cluster_size")
            .aggregate(Count(alias_name="n_clusters"))
            .to_pandas().sort_values("cluster_size"))
    return pd.DataFrame({
        "cluster_size": hist["cluster_size"].astype("int64"),
        "n_clusters": hist["n_clusters"].astype("int64"),
    }).reset_index(drop=True)


DUP_HIST_SQL = """
SELECT cluster_size, count(*)::BIGINT AS n_clusters
FROM (SELECT md5(coalesce(text, '')) AS h, count(*) AS cluster_size
      FROM documents GROUP BY h)
GROUP BY cluster_size ORDER BY cluster_size
"""


# ── AMS self-join size estimate (round 19) ───────────────────────────

F2_BUCKETS = 64


def events_selfjoin_size_f2(sf_dir: str):
    """Self-join size |events ⋈ events on user_id| = Σ_u c_u² (the
    second frequency moment F2 — what an optimizer needs to size a
    shuffle join under skew) next to its B=64 hash-bucketed
    coarsening Σ_b (Σ_{u∈b} c_u)² — the AMS-sketch-granularity upper
    bound whose inflation ratio measures how much the key histogram
    is worth keeping. Per-batch partial (bucket, user, n) counts
    pre-aggregate before one small shuffle; both moments are integer
    sums (no float drift)."""
    from ray.data.aggregate import Sum

    from ..stages.md5np import md5_prefix64

    ds = _read(sf_dir, "events", ["user_id"])

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        # bucket is a pure function of user_id and the groupby below
        # drops non-aggregate columns anyway — moment_partials derives
        # it after the merge, so no hash is computed (or shuffled) here
        c = df.groupby("user_id").size()
        return arrow_out(pd.DataFrame({
            "user_id": pd.Series(c.index.to_numpy(), dtype="int64"),
            "n": pd.Series(c.to_numpy(), dtype="int64")}))

    per_user = (ds.map_batches(partial, batch_format="pyarrow")
                .groupby("user_id")
                .aggregate(Sum("n", alias_name="n")))

    # the per-user table never lands on the driver: each block emits
    # one Σn² row + ≤64 per-bucket partial sums; the driver merges
    # O(65 · blocks) fixed-width rows
    def moment_partials(t: pa.Table) -> pa.Table:
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        h = md5_prefix64(pc.cast(t["user_id"], pa.string()))
        b = ((h >> np.uint64(32)) % np.uint64(F2_BUCKETS)).astype(np.int64)
        return pa.table({"bucket": np.concatenate([[-1], b]),
                         "v": np.concatenate([[int(np.sum(n * n))], n])})

    p = grouped_partials(per_user, "bucket", sums=["v"],
                         prep=moment_partials)
    true_f2 = int(p.loc[p["bucket"] == -1, "v"].sum())
    bsums = p.loc[p["bucket"] >= 0, "v"].to_numpy(np.int64)
    bucket_f2 = int(np.sum(bsums * bsums))
    return pd.DataFrame({
        "true_f2": pd.Series([true_f2], dtype="int64"),
        "bucket_f2": pd.Series([bucket_f2], dtype="int64"),
        "inflation": [round6(bucket_f2 / true_f2)]})


F2_SQL = f"""
WITH c AS (SELECT user_id, count(*) AS n FROM events GROUP BY user_id),
b AS (SELECT ('0x' || substr(md5(user_id::VARCHAR), 1, 8))::UBIGINT
             % {F2_BUCKETS} AS bucket, n
      FROM c),
t AS (SELECT sum(n * n)::BIGINT AS true_f2 FROM c),
s AS (SELECT sum(bn * bn)::BIGINT AS bucket_f2
      FROM (SELECT bucket, sum(n) AS bn FROM b GROUP BY bucket))
SELECT t.true_f2, s.bucket_f2,
       round(s.bucket_f2::DOUBLE / t.true_f2, 6) AS inflation
FROM t, s
"""


# ── split-leakage PSI (round 19) ─────────────────────────────────────

def split_length_psi(sf_dir: str):
    """Drift check ON THE SPLITTER: PSI between the train and test
    length distributions under the leakage-safe source-keyed split —
    the post-hoc validation that hashing whole sources (required for
    leakage safety) did not hand the held-out set a skewed length
    profile. Composition of source_split_assign's md5(source) rule
    with source_length_psi's train-decile binning; per-batch
    (split, n_chars) partials, no shuffle."""
    from ..stages.quantiles import _rank_for
    from ..stages.sketches import md5_uniform

    ds = _read(sf_dir, "documents", ["source", "n_chars"])

    def tag(t: pa.Table) -> pa.Table:
        u = md5_uniform(t["source"].to_pylist())
        split = np.where(u < 0.8, "train",
                         np.where(u < 0.9, "val", "test"))
        return pa.table({"split": pa.array(split.tolist(), pa.string()),
                         "n_chars": pc.cast(t["n_chars"], pa.int64())})

    c = grouped_partials(ds, ["split", "n_chars"], count="k",
                         prep=tag)
    a = (c[c["split"] == "train"]
         .sort_values("n_chars")[["n_chars", "k"]])
    b = (c[c["split"] == "test"]
         .sort_values("n_chars")[["n_chars", "k"]])
    na, nb = int(a["k"].sum()), int(b["k"].sum())
    av = np.repeat(a["n_chars"].to_numpy(dtype=np.int64),
                   a["k"].to_numpy(dtype=np.int64))
    edges = np.unique([av[_rank_for(q, na)]
                       for q in (0.1, 0.2, 0.3, 0.4, 0.5,
                                 0.6, 0.7, 0.8, 0.9)])
    ca = np.bincount(np.searchsorted(edges, av, side="left"),
                     minlength=len(edges) + 1)
    bv = np.repeat(b["n_chars"].to_numpy(dtype=np.int64),
                   b["k"].to_numpy(dtype=np.int64))
    cb = np.bincount(np.searchsorted(edges, bv, side="left"),
                     minlength=len(edges) + 1)
    m = (ca > 0) & (cb > 0)
    pa_ = ca[m] / na
    pb_ = cb[m] / nb
    psi = float(round6(((pa_ - pb_) * np.log(pa_ / pb_)).sum()))
    return pd.DataFrame({"n_bins": pd.Series([int(m.sum())],
                                             dtype="int64"),
                         "psi": [psi]})


SPLIT_PSI_SQL = """
WITH s AS (SELECT n_chars,
                  CASE WHEN u < 0.8 THEN 'train'
                       WHEN u < 0.9 THEN 'val'
                       ELSE 'test' END AS split
           FROM (SELECT n_chars,
                        ('0x' || substr(md5(source), 1, 8))::UBIGINT
                          / 4294967296.0 AS u
                 FROM documents)),
a AS (SELECT n_chars FROM s WHERE split = 'train'),
b AS (SELECT n_chars FROM s WHERE split = 'test'),
edges AS (SELECT DISTINCT e FROM (
  SELECT unnest([quantile_disc(n_chars, 0.1), quantile_disc(n_chars, 0.2),
                 quantile_disc(n_chars, 0.3), quantile_disc(n_chars, 0.4),
                 quantile_disc(n_chars, 0.5), quantile_disc(n_chars, 0.6),
                 quantile_disc(n_chars, 0.7), quantile_disc(n_chars, 0.8),
                 quantile_disc(n_chars, 0.9)]) AS e
  FROM a)),
abin AS (SELECT (SELECT count(*) FROM edges WHERE e < n_chars) AS bin,
                count(*) AS c FROM a GROUP BY 1),
bbin AS (SELECT (SELECT count(*) FROM edges WHERE e < n_chars) AS bin,
                count(*) AS c FROM b GROUP BY 1),
j AS (SELECT abin.c::DOUBLE / (SELECT count(*) FROM a) AS pa,
             bbin.c::DOUBLE / (SELECT count(*) FROM b) AS pb
      FROM abin JOIN bbin USING (bin))
SELECT count(*)::BIGINT AS n_bins,
       round(sum((pa - pb) * ln(pa / pb)), 6) AS psi
FROM j
"""


# ── event-type lift (round 19) ───────────────────────────────────────

def event_type_lift(sf_dir: str):
    """Market-basket lift over users: for each unordered event-type
    pair, lift = P(user does A and B) / (P(A)·P(B)) — >1 means the
    behaviors co-occur beyond independence (the association-rule
    readout behind 'viewers who sign up also purchase'). One
    user-hash bucket shuffle carries the per-user distinct-type sets;
    pair partials are ≤ C(|types|,2) rows per bucket, merged on the
    driver with the per-type user counts (|types| rows)."""
    from ..stages.groups import bucketed_group_apply

    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        ut = df.drop_duplicates()
        m = ut.merge(ut, on="user_id")
        m = m[m["event_type_x"] < m["event_type_y"]]
        pairs = (m.groupby(["event_type_x", "event_type_y"])
                 .size().reset_index(name="n"))
        pairs.columns = ["type_a", "type_b", "n"]
        singles = (ut.groupby("event_type").size()
                   .reset_index(name="n"))
        singles = pd.DataFrame({"type_a": singles["event_type"],
                                "type_b": "", "n": singles["n"]})
        users = pd.DataFrame({"type_a": [""], "type_b": [""],
                              "n": [ut["user_id"].nunique()]})
        return pd.concat([pairs, singles, users], ignore_index=True)

    p = grouped_partials(bucketed_group_apply(ds, "user_id", per_bucket),
                         ["type_a", "type_b"], sums=["n"]) \
        .set_index(["type_a", "type_b"])["n"]
    n_users = float(p.loc[("", "")])
    singles = {k[0]: float(v) for k, v in p.items()
               if k[1] == "" and k[0] != ""}
    rows = []
    for (a, b), n_both in p.items():
        if not a or not b:
            continue
        rows.append({"type_a": a, "type_b": b,
                     "n_both": int(n_both),
                     "lift": float(round6(
                         n_both * n_users / (singles[a] * singles[b])))})
    if not rows:                 # no user holds two distinct types
        return pd.DataFrame({"type_a": pd.Series([], dtype=object),
                             "type_b": pd.Series([], dtype=object),
                             "n_both": pd.Series([], dtype="int64"),
                             "lift": pd.Series([], dtype="float64")})
    out = pd.DataFrame(rows)
    out["n_both"] = out["n_both"].astype("int64")
    return out.sort_values(["type_a", "type_b"]).reset_index(drop=True)


LIFT_SQL = """
WITH ut AS (SELECT DISTINCT user_id, event_type FROM events),
nu AS (SELECT count(DISTINCT user_id)::DOUBLE AS n FROM ut),
t AS (SELECT event_type, count(*)::DOUBLE AS c FROM ut GROUP BY 1),
p AS (SELECT a.event_type AS ta, b.event_type AS tb, count(*) AS n_both
      FROM ut a JOIN ut b
        ON a.user_id = b.user_id AND a.event_type < b.event_type
      GROUP BY 1, 2)
SELECT p.ta AS type_a, p.tb AS type_b, p.n_both::BIGINT AS n_both,
       round(p.n_both * nu.n / (t1.c * t2.c), 6) AS lift
FROM p JOIN t t1 ON t1.event_type = p.ta
JOIN t t2 ON t2.event_type = p.tb, nu
ORDER BY type_a, type_b
"""


# ── equi-depth histogram selectivity evaluation (round 19) ───────────

SEL_PREDICATES = (10000.0, 30000.0, 60000.0)
SEL_BINS = 20


def price_selectivity_eval(sf_dir: str):
    """Optimizer-style selectivity estimation audit: build the
    20-bucket equi-depth histogram over l_extendedprice (exact
    quantile_disc boundaries via the streaming refinement engine),
    estimate sel(price ≤ X) by within-bucket linear interpolation,
    and report it against the true selectivity — the error column is
    what a cost model's calibration run reads. Boundaries come from
    O(rounds) streaming passes; true selectivities from one pass of
    3-row per-batch partials."""
    from ..stages.quantiles import exact_quantiles

    ds = _lineitem(sf_dir, ["l_extendedprice"])
    qs = [k / SEL_BINS for k in range(SEL_BINS + 1)]
    edges = exact_quantiles(ds, "l_extendedprice", qs,
                            n_buckets=64, collect_cap=500) \
        ["value"].to_numpy(np.float64)

    xs = np.array(SEL_PREDICATES, np.float64)

    def true_counts(t: pa.Table) -> pa.Table:
        v = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        return pa.table({
            "x": xs,
            "c": np.array([(v <= x).sum() for x in xs], np.int64),
            "n": np.full(len(xs), len(v), np.int64)})

    p = grouped_partials(ds, "x", sums=["c", "n"],
                         prep=true_counts).set_index("x")
    rows = []
    for x in xs:
        k = int(np.searchsorted(edges, x, side="right")) - 1
        if k >= SEL_BINS:
            est = 1.0
        elif k < 0:
            est = 0.0
        else:
            frac = ((x - edges[k]) / (edges[k + 1] - edges[k])
                    if edges[k + 1] > edges[k] else 0.0)
            est = (k + frac) / SEL_BINS
        true = float(p.loc[x, "c"]) / float(p.loc[x, "n"])
        rows.append({"x": x, "est_sel": round6(est),
                     "true_sel": round6(true),
                     "abs_err": round6(abs(est - true))})
    return pd.DataFrame(rows)


def _selectivity_sql() -> str:
    qlist = ", ".join(f"{k / SEL_BINS!r}" for k in range(SEL_BINS + 1))
    xlist = ", ".join(repr(x) for x in SEL_PREDICATES)
    return f"""
WITH b AS (SELECT quantile_disc(l_extendedprice, [{qlist}]) AS e
           FROM lineitem),
n AS (SELECT count(*)::DOUBLE AS n FROM lineitem),
xs AS (SELECT unnest([{xlist}]) AS x),
kk AS (SELECT x, len(list_filter(e, v -> v <= x)) - 1 AS k, e
       FROM xs, b),
est AS (SELECT x,
  CASE WHEN k >= {SEL_BINS} THEN 1.0
       WHEN k < 0 THEN 0.0
       ELSE (k + CASE WHEN e[k + 2] > e[k + 1]
                      THEN (x - e[k + 1]) / (e[k + 2] - e[k + 1])
                      ELSE 0.0 END) / {SEL_BINS} END AS est_sel
  FROM kk),
tr AS (SELECT xs.x,
              sum(CASE WHEN l.l_extendedprice <= xs.x
                       THEN 1 ELSE 0 END) / (SELECT n FROM n) AS t
       FROM xs CROSS JOIN lineitem l GROUP BY xs.x)
SELECT est.x, round(est.est_sel, 6) AS est_sel,
       round(tr.t, 6) AS true_sel,
       round(abs(est.est_sel - tr.t), 6) AS abs_err
FROM est JOIN tr USING (x) ORDER BY est.x
"""


# ── per-source quality report card (round 19) ────────────────────────

def source_quality_report(sf_dir: str):
    """The corpus report card: per source, document count, mean Flesch
    reading ease, mean character entropy, and the aggregate OOV
    occurrence rate — the one-page readout a curation run publishes
    per ingest wave. Composition of the round-19 metrics: Flesch and
    entropy compute per doc in ONE shared map pass emitting per-batch
    per-source (sum, count) partials; the OOV leg reuses the
    hash(tok)-bucketed DF shuffle but reduces by source; the final
    join touches |sources| rows. Sources whose docs are all
    empty/wordless are omitted (every leg inner-joins)."""
    import re as _re

    from ..stages.groups import bucketed_group_apply

    split_re = _re.compile(r"[ \t\r\n\f\v]+")
    vowel_re = _re.compile(r"[aeiouy]+")
    sent_re = _re.compile(r"[.!?]+")
    ds = _read(sf_dir, "documents", ["doc_id", "text", "source"])

    def text_partials(t: pa.Table) -> pa.Table:
        acc: dict[str, list] = {}
        for src, text in zip(t["source"].to_pylist(),
                             t["text"].to_pylist()):
            text = text or ""
            a = acc.setdefault(src, [0, 0.0, 0, 0.0, 0])  # docs, Σf, nf, Σh, nh
            a[0] += 1
            words = [w for w in split_re.split(text) if w]
            if words:
                w = len(words)
                s = max(len(sent_re.findall(text)), 1)
                y = sum(max(len(vowel_re.findall(t.lower())), 1)
                        for t in words)
                a[1] += 206.835 - 1.015 * (w / s) - 84.6 * (y / w)
                a[2] += 1
            cp = np.frombuffer(text.encode("utf-32-le"), np.uint32)
            cp = cp[~((cp == 32) | ((cp >= 9) & (cp <= 13)))]
            if len(cp):
                _, counts = np.unique(cp, return_counts=True)
                p = counts / len(cp)
                a[3] += float(-np.sum(p * np.log2(p)))
                a[4] += 1
        srcs = sorted(acc)
        return pa.table(
            [pa.array(srcs, pa.string())]
            + [pa.array([acc[s][i] for s in srcs],
                        pa.int64() if i % 2 == 0 else pa.float64())
               for i in range(5)],
            names=["source", "n_docs", "sf", "nf", "sh", "nh"])

    tp = grouped_partials(ds, "source",
                          sums=["n_docs", "sf", "nf", "sh", "nh"],
                          prep=text_partials).set_index("source")

    # per-(doc, tok) rows keep the true document-frequency grain
    def doc_tok_rows(df: pd.DataFrame) -> pa.Table:
        acc: dict[tuple, int] = {}
        for did, src, text in zip(df["doc_id"].tolist(),
                                  df["source"].tolist(),
                                  df["text"].tolist()):
            for tok in split_re.split(text or ""):
                if tok:
                    acc[(did, src, tok)] = acc.get((did, src, tok), 0) + 1
        keys = list(acc.keys())
        return arrow_out(pd.DataFrame({
            "doc_id": pd.Series([k[0] for k in keys], dtype="int64"),
            "source": [k[1] for k in keys],
            "tok": [k[2] for k in keys],
            "n": pd.Series([acc[k] for k in keys], dtype="int64")}))

    rows = ds.map_batches(doc_tok_rows, batch_format="pandas")

    def oov_per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["df"] = df.groupby("tok")["tok"].transform("size")
        df["oov"] = np.where(df["df"].to_numpy() < OOV_MIN_DF,
                             df["n"].to_numpy(), 0).astype("int64")
        return (df.groupby("source", sort=False)
                .agg(n=("n", "sum"), oov=("oov", "sum")).reset_index())

    ov = grouped_partials(bucketed_group_apply(rows, "tok", oov_per_bucket),
                          "source", sums=["n", "oov"]).set_index("source")

    j = tp.join(ov, how="inner", lsuffix="", rsuffix="_ov")
    j = j[(j["nf"] > 0) & (j["nh"] > 0)]
    return pd.DataFrame({
        "source": j.index.to_numpy(),
        "n_docs": j["n_docs"].astype("int64").to_numpy(),
        "mean_flesch": round6(j["sf"].to_numpy(np.float64)
                              / j["nf"].to_numpy(np.float64)),
        "mean_entropy": round6(j["sh"].to_numpy(np.float64)
                               / j["nh"].to_numpy(np.float64)),
        "oov_rate": round6(j["oov"].to_numpy(np.float64)
                           / j["n"].to_numpy(np.float64)),
    }).reset_index(drop=True)


QUALITY_REPORT_SQL = r"""
WITH toks AS (
  SELECT doc_id, source,
         unnest(regexp_split_to_array(coalesce(text, ''),
                                      '[ \t\r\n\f\v]+')) AS tok
  FROM documents),
nt AS (SELECT doc_id, source, tok FROM toks WHERE tok <> ''),
syl AS (
  SELECT doc_id,
         greatest(len(list_filter(
           regexp_split_to_array(lower(tok), '[^aeiouy]+'),
           x -> x <> '')), 1) AS y
  FROM nt),
w AS (SELECT doc_id, count(*) AS n_words, sum(y) AS n_syll
      FROM syl GROUP BY doc_id),
snt AS (SELECT doc_id,
               greatest(len(regexp_extract_all(coalesce(text, ''),
                                               '[.!?]+')), 1) AS n_sent
        FROM documents),
fl AS (SELECT w.doc_id,
              206.835 - 1.015 * (w.n_words::DOUBLE / snt.n_sent)
                - 84.6 * (w.n_syll::DOUBLE / w.n_words) AS f
       FROM w JOIN snt USING (doc_id)),
ch AS (
  SELECT doc_id,
         unnest(list_transform(split(text, ''), c -> unicode(c))) AS cp
  FROM documents WHERE coalesce(text, '') <> ''),
nws AS (SELECT doc_id, cp FROM ch
        WHERE NOT (cp = 32 OR (cp BETWEEN 9 AND 13))),
ccnt AS (SELECT doc_id, cp, count(*) AS c FROM nws GROUP BY doc_id, cp),
ctot AS (SELECT doc_id, sum(c)::DOUBLE AS n FROM ccnt GROUP BY doc_id),
ent AS (SELECT ccnt.doc_id,
               -sum((ccnt.c / ctot.n) * log2(ccnt.c / ctot.n)) AS h
        FROM ccnt JOIN ctot USING (doc_id)
        GROUP BY ccnt.doc_id),
cnt AS (SELECT doc_id, any_value(source) AS source, tok,
               count(*) AS n
        FROM nt GROUP BY doc_id, tok),
dfreq AS (SELECT tok, count(*) AS df FROM cnt GROUP BY tok),
ovj AS (SELECT c.source, c.n,
               CASE WHEN d.df < 5 THEN c.n ELSE 0 END AS oov
        FROM cnt c JOIN dfreq d USING (tok)),
ov AS (SELECT source, sum(n) AS n, sum(oov) AS oov
       FROM ovj GROUP BY source),
fls AS (SELECT d.source, sum(fl.f) AS sf, count(*) AS nf
        FROM fl JOIN documents d USING (doc_id) GROUP BY d.source),
ens AS (SELECT d.source, sum(ent.h) AS sh, count(*) AS nh
        FROM ent JOIN documents d USING (doc_id) GROUP BY d.source),
nd AS (SELECT source, count(*) AS n_docs FROM documents GROUP BY source)
SELECT nd.source, nd.n_docs::BIGINT AS n_docs,
       round(fls.sf / fls.nf, 6) AS mean_flesch,
       round(ens.sh / ens.nh, 6) AS mean_entropy,
       round(ov.oov::DOUBLE / ov.n, 6) AS oov_rate
FROM nd JOIN fls USING (source) JOIN ens USING (source)
JOIN ov USING (source)
ORDER BY nd.source
"""


# ── k-anonymity audit (round 19) ─────────────────────────────────────

KANON_K = 5


def k_anonymity_audit(sf_dir: str):
    """k-anonymity audit over the (event_type, hour) quasi-identifier:
    how many quasi-ID groups have fewer than k=5 members, and how many
    rows sit in them — the re-identification-risk readout a privacy
    review wants BEFORE a behavioral table ships to training (PII
    redaction removes direct identifiers; this catches the indirect
    ones). Group sizes come from one fixed-width groupby; the audit
    itself reduces per-block (groups, small, at_risk) partials."""
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "events", ["event_type", "ts"])

    def qid(t: pa.Table) -> pa.Table:
        hour = pc.floor_temporal(t["ts"], unit="hour")
        return pa.table({"event_type": t["event_type"],
                         "qh": pc.cast(hour, pa.int64())})

    sizes = (ds.map_batches(qid, batch_format="pyarrow")
             .groupby(["event_type", "qh"])
             .aggregate(Count(alias_name="c")))

    def audit(df: pd.DataFrame) -> pd.DataFrame:
        c = df["c"].to_numpy(np.int64)
        small = c < KANON_K
        return pd.DataFrame({
            "n_groups": pd.Series([len(c)], dtype="int64"),
            "n_small_groups": pd.Series([int(small.sum())],
                                        dtype="int64"),
            "rows_at_risk": pd.Series([int(c[small].sum())],
                                      dtype="int64")})

    p = sizes.map_batches(audit, batch_format="pandas").to_pandas()
    return pd.DataFrame({
        "k": pd.Series([KANON_K], dtype="int64"),
        "n_groups": pd.Series([int(p["n_groups"].sum())], dtype="int64"),
        "n_small_groups": pd.Series([int(p["n_small_groups"].sum())],
                                    dtype="int64"),
        "rows_at_risk": pd.Series([int(p["rows_at_risk"].sum())],
                                  dtype="int64")})


KANON_SQL = f"""
WITH g AS (SELECT event_type, date_trunc('hour', ts) AS qh,
                  count(*) AS c
           FROM events GROUP BY 1, 2)
SELECT {KANON_K}::BIGINT AS k,
       count(*)::BIGINT AS n_groups,
       sum(CASE WHEN c < {KANON_K} THEN 1 ELSE 0 END)::BIGINT
         AS n_small_groups,
       sum(CASE WHEN c < {KANON_K} THEN c ELSE 0 END)::BIGINT
         AS rows_at_risk
FROM g
"""


# ── seeded-Laplace DP release (round 19) ─────────────────────────────

DP_EPSILON = 1.0


def dp_noisy_type_counts(sf_dir: str):
    """Laplace-mechanism count release for the per-type event counts
    (sensitivity 1, ε=1): noisy = n + Lap(1/ε), noise inverted from
    the engine-portable md5 uniform so the release is replayable by
    the oracle. A PRODUCTION release must draw fresh randomness — the
    seeded noise here demonstrates the mechanism's plumbing (per-key
    noise, post-processing round) while staying value-checkable; swap
    the uniform source to os.urandom for a real deployment. Counts
    reduce via small-key partials; the noise touches |types| rows."""
    from ..stages.sketches import md5_uniform

    ds = _read(sf_dir, "events", ["event_type"])
    c = grouped_partials(ds, ["event_type"], count="n")
    u = md5_uniform([f"dp:{t}" for t in c["event_type"]])
    # inverse Laplace CDF, scale b = 1/ε
    b = 1.0 / DP_EPSILON
    noise = -b * np.sign(u - 0.5) * np.log(1.0 - 2.0 * np.abs(u - 0.5))
    return pd.DataFrame({
        "event_type": c["event_type"].to_numpy(),
        "n": c["n"].astype("int64").to_numpy(),
        "n_noisy": round6(c["n"].to_numpy(np.float64) + noise)})


DP_SQL = f"""
WITH c AS (SELECT event_type, count(*) AS n FROM events GROUP BY 1),
u AS (SELECT event_type, n,
             ('0x' || substr(md5('dp:' || event_type), 1, 8))::UBIGINT
               / 4294967296.0 AS u
      FROM c)
SELECT event_type, n::BIGINT AS n,
       round(n + (-(1.0 / {DP_EPSILON}) * sign(u - 0.5)
                  * ln(1.0 - 2.0 * abs(u - 0.5))), 6) AS n_noisy
FROM u ORDER BY event_type
"""


# ── contrastive negative-sampling plan (round 19) ────────────────────

NEG_ANCHOR_RATE = 0.02
NEG_K = 5


def contrastive_negative_plan(sf_dir: str):
    """Deterministic hard-negative plan for contrastive training:
    anchors are the md5-uniform 2% sample of documents; each anchor
    gets the k=5 candidates with the smallest md5(anchor:candidate)
    draw among docs from a DIFFERENT source (in-batch negatives from
    the same origin leak near-duplicates into the negative set). The
    anchor set is bounded by the rate (broadcast once); candidates
    stream — each batch emits per-anchor partial top-k (≤ anchors·k
    rows), the driver merges the final top-k."""
    from ..stages.sketches import md5_uniform

    ds = _read(sf_dir, "documents", ["doc_id", "source"])

    def pick_anchors(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        u = md5_uniform(ids)
        keep = u < NEG_ANCHOR_RATE
        return pa.table({
            "doc_id": pa.array(np.asarray(ids, np.int64)[keep],
                               pa.int64()),
            "source": pc.cast(t["source"], pa.string())
                .filter(pa.array(keep))})

    anchors = (ds.map_batches(pick_anchors, batch_format="pyarrow")
               .to_pandas().sort_values("doc_id"))
    a_ids = anchors["doc_id"].to_numpy(np.int64)
    a_src = anchors["source"].to_numpy()

    def topk_partial(df: pd.DataFrame) -> pd.DataFrame:
        cand = df["doc_id"].to_numpy(np.int64)
        cstr = pc.cast(pa.array(cand), pa.string())
        csrc = df["source"].to_numpy()
        out_a, out_c, out_u = [], [], []
        for aid, asrc in zip(a_ids, a_src):
            m = (csrc != asrc) & (cand != aid)
            cc = cand[m]
            if not len(cc):
                continue
            u = md5_uniform(pc.binary_join_element_wise(
                "neg", str(aid), cstr.filter(pa.array(m)), ":"))
            # (u, neg_id) tiebreak — the same ordering the driver
            # merge and the SQL row_number use, so an equal-u pair
            # straddling the per-batch cut keeps the right candidate
            k = np.lexsort((cc, u))[:NEG_K]
            out_a.extend([aid] * len(k))
            out_c.extend(cc[k].tolist())
            out_u.extend(u[k].tolist())
        return pd.DataFrame({
            "anchor_id": pd.Series(out_a, dtype="int64"),
            "neg_id": pd.Series(out_c, dtype="int64"),
            "u": pd.Series(out_u, dtype="float64")})

    p = (ds.map_batches(topk_partial, batch_format="pandas")
         .to_pandas())
    p = (p.sort_values(["anchor_id", "u", "neg_id"])
         .groupby("anchor_id", sort=True).head(NEG_K))
    p["rank"] = p.groupby("anchor_id").cumcount() + 1
    return pd.DataFrame({
        "anchor_id": p["anchor_id"].to_numpy(),
        "neg_id": p["neg_id"].to_numpy(),
        "rank": p["rank"].astype("int64").to_numpy(),
    }).reset_index(drop=True)


NEG_PLAN_SQL = f"""
WITH a AS (SELECT doc_id AS anchor_id, source AS asrc FROM documents
           WHERE ('0x' || substr(md5(doc_id::VARCHAR), 1, 8))::UBIGINT
                   / 4294967296.0 < {NEG_ANCHOR_RATE}),
pairs AS (
  SELECT a.anchor_id, d.doc_id AS neg_id,
         ('0x' || substr(md5('neg:' || a.anchor_id::VARCHAR || ':'
                             || d.doc_id::VARCHAR), 1, 8))::UBIGINT
           / 4294967296.0 AS u
  FROM a JOIN documents d
    ON d.source <> a.asrc AND d.doc_id <> a.anchor_id),
ranked AS (SELECT anchor_id, neg_id,
                  row_number() OVER (PARTITION BY anchor_id
                                     ORDER BY u, neg_id) AS rank
           FROM pairs)
SELECT anchor_id, neg_id, rank::BIGINT AS rank
FROM ranked WHERE rank <= {NEG_K}
ORDER BY anchor_id, rank
"""


# ── RFM segmentation (round 19) ──────────────────────────────────────

def user_rfm_segments(sf_dir: str):
    """RFM segmentation of purchasers: recency (full days since last
    purchase at the corpus horizon), frequency (purchase count),
    monetary (value sum, in exact int64 cents: a float sum of the same
    values in another order can land on either side of a quartile
    edge), each binned into quartiles by the corpus-
    wide quantile_disc thresholds — bin = 1 + #thresholds strictly
    below the metric, so ties bin identically in both engines without
    a global ntile SORT (the quartile edges come from the streaming
    refinement engine; assignment is a pure map over the per-user
    aggregate). segment = r·100 + f·10 + m, r_bin 1 = most recent.

    ``events.value`` holds at most 2 decimals (checked at sf0.001,
    sf0.01 and sf0.1; the benchmark generator rounds to 2), so the
    cents are exact and ``m`` equals the value sum. Finer values would
    round to the cent, half away from zero, per row in both engines."""
    from ray.data.aggregate import Count, Max, Sum

    from ..stages.quantiles import exact_quantiles

    def add_cents(t: pa.Table) -> pa.Table:
        v = t["value"]
        c = pa.array(cents(v.to_numpy(zero_copy_only=False)), pa.int64(),
                     mask=pc.is_null(v).to_numpy(zero_copy_only=False))
        return t.drop_columns(["value"]).append_column("m_c", c)

    ds = (_read(sf_dir, "events", ["user_id", "event_type", "ts",
                                   "value"])
          .filter(expr="event_type == 'purchase'")
          .map_batches(add_cents, batch_format="pyarrow"))
    per_user = (ds.groupby("user_id")
                .aggregate(Max("ts", alias_name="last_ts"),
                           Count(alias_name="f"),
                           Sum("m_c", alias_name="m_c"))
                .materialize())     # consumed 4× (3 quantile passes + map)
    horizon = per_user.max("last_ts")

    def add_r(t: pa.Table) -> pa.Table:
        last = t["last_ts"].to_numpy(zero_copy_only=False)
        r = ((np.datetime64(horizon, "us") - last)
             / np.timedelta64(1, "s")) // 86400.0
        return t.append_column("r_days", pa.array(r.astype(np.int64),
                                                  pa.int64()))

    pu = per_user.map_batches(add_r, batch_format="pyarrow") \
        .materialize()
    edges = {}
    for col in ("r_days", "f", "m_c"):
        edges[col] = exact_quantiles(pu, col, [0.25, 0.5, 0.75],
                                     n_buckets=64, collect_cap=500) \
            ["value"].to_numpy(np.float64)

    def assign(t: pa.Table) -> pa.Table:
        out = {"user_id": pc.cast(t["user_id"], pa.int64()),
               "r_days": t["r_days"],
               "f": pc.cast(t["f"], pa.int64()),
               "m": pc.divide(pc.cast(t["m_c"], pa.float64()), 100.0)}
        bins = {}
        for col in ("r_days", "f", "m_c"):
            x = t[col].to_numpy(zero_copy_only=False).astype(np.float64)
            b = np.ones(len(x), np.int64)
            for e in edges[col]:
                b += (x > e)
            bins[col] = b
        out["r_bin"] = pa.array(bins["r_days"], pa.int64())
        out["f_bin"] = pa.array(bins["f"], pa.int64())
        out["m_bin"] = pa.array(bins["m_c"], pa.int64())
        out["segment"] = pa.array(
            bins["r_days"] * 100 + bins["f"] * 10 + bins["m_c"],
            pa.int64())
        return pa.table(out)

    return pu.map_batches(assign, batch_format="pyarrow")


RFM_SQL = """
WITH p AS (SELECT user_id, max(ts) AS last_ts, count(*) AS f,
                  sum(CAST(round(value * 100) AS BIGINT))::BIGINT AS m_c
           FROM events WHERE event_type = 'purchase'
           GROUP BY user_id),
h AS (SELECT max(last_ts) AS horizon FROM p),
r AS (SELECT user_id,
             floor(epoch(h.horizon - last_ts) / 86400)::BIGINT AS r_days,
             f, m_c
      FROM p, h),
e AS (SELECT quantile_disc(r_days, [0.25, 0.5, 0.75]) AS er,
             quantile_disc(f, [0.25, 0.5, 0.75]) AS ef,
             quantile_disc(m_c, [0.25, 0.5, 0.75]) AS em
      FROM r),
b AS (SELECT user_id, r_days, f, m_c::DOUBLE / 100 AS m,
             1 + (CASE WHEN r_days > er[1] THEN 1 ELSE 0 END)
               + (CASE WHEN r_days > er[2] THEN 1 ELSE 0 END)
               + (CASE WHEN r_days > er[3] THEN 1 ELSE 0 END) AS r_bin,
             1 + (CASE WHEN f > ef[1] THEN 1 ELSE 0 END)
               + (CASE WHEN f > ef[2] THEN 1 ELSE 0 END)
               + (CASE WHEN f > ef[3] THEN 1 ELSE 0 END) AS f_bin,
             1 + (CASE WHEN m_c > em[1] THEN 1 ELSE 0 END)
               + (CASE WHEN m_c > em[2] THEN 1 ELSE 0 END)
               + (CASE WHEN m_c > em[3] THEN 1 ELSE 0 END) AS m_bin
      FROM r, e)
SELECT user_id, r_days, f::BIGINT AS f, m,
       r_bin::BIGINT AS r_bin, f_bin::BIGINT AS f_bin,
       m_bin::BIGINT AS m_bin,
       (r_bin * 100 + f_bin * 10 + m_bin)::BIGINT AS segment
FROM b
"""


# ── churn label generation (round 19) ────────────────────────────────

CHURN_DAYS = 14


def user_churn_labels(sf_dir: str):
    """Training-label generation: a user is labeled churned when their
    last event precedes the corpus horizon by more than 14 days —
    the standard windowed churn target, emitted next to the leak-free
    features a model may see (event count, distinct active days).
    One fixed-width groupby; the horizon is a scalar aggregate."""
    from ray.data.aggregate import Count, Max

    ds = _read(sf_dir, "events", ["user_id", "ts"])
    per_user = (ds.groupby("user_id")
                .aggregate(Max("ts", alias_name="last_ts"),
                           Count(alias_name="n_events"))
                .materialize())
    horizon = per_user.max("last_ts")
    cutoff = np.datetime64(horizon, "us") \
        - np.timedelta64(CHURN_DAYS * 86400, "s")

    def label(t: pa.Table) -> pa.Table:
        last = t["last_ts"].to_numpy(zero_copy_only=False)
        return pa.table({
            "user_id": pc.cast(t["user_id"], pa.int64()),
            "n_events": pc.cast(t["n_events"], pa.int64()),
            "churned": pa.array((last < cutoff).astype(np.int64),
                                pa.int64())})

    return per_user.map_batches(label, batch_format="pyarrow")


CHURN_SQL = f"""
WITH p AS (SELECT user_id, max(ts) AS last_ts, count(*) AS n_events
           FROM events GROUP BY user_id),
h AS (SELECT max(last_ts) AS horizon FROM p)
SELECT user_id, n_events::BIGINT AS n_events,
       (CASE WHEN last_ts < h.horizon - INTERVAL {CHURN_DAYS} DAY
             THEN 1 ELSE 0 END)::BIGINT AS churned
FROM p, h
"""


# ── tokenizer fertility per language (round 19) ──────────────────────

def lang_token_fertility(sf_dir: str):
    """Tokenizer fertility (chars per BPE token) per language — the
    multilingual-tokenizer health metric: a language whose fertility
    is far below the corpus norm is being shredded into char-level
    pieces and will train poorly. Composes the learned 8-round merge
    table (broadcast once) with a per-batch word-memoized encode that
    reduces straight to per-lang (Σchars, Σtokens, docs) partials —
    no shuffle anywhere; the driver merges |langs| rows."""
    import ray

    from ..stages.bpe import learn_merges, text_token_counter

    train = _read(sf_dir, "documents", ["text"])
    merges = [tuple(r) for r in learn_merges(train, n_merges=8)
              [["left", "right"]].itertuples(index=False)]
    ref = ray.put(merges)
    ds = _read(sf_dir, "documents", ["text", "lang", "n_chars"])

    def partial(t: pa.Table) -> pa.Table:
        import ray as _ray

        count = text_token_counter(_ray.get(ref))
        acc: dict[str, list] = {}
        for s, lang, nc in zip(t["text"].to_pylist(),
                               t["lang"].to_pylist(),
                               t["n_chars"].to_pylist()):
            a = acc.setdefault(lang, [0, 0, 0])
            a[0] += 1
            a[1] += int(nc or 0)
            a[2] += count(s)
        langs = sorted(acc)
        return pa.table({
            "lang": pa.array(langs, pa.string()),
            "n_docs": pa.array([acc[g][0] for g in langs], pa.int64()),
            "nc": pa.array([acc[g][1] for g in langs], pa.int64()),
            "nt": pa.array([acc[g][2] for g in langs], pa.int64())})

    p = grouped_partials(ds, "lang", sums=["n_docs", "nc", "nt"],
                         prep=partial).set_index("lang")
    p = p[p["nt"] > 0]
    return pd.DataFrame({
        "lang": p.index.to_numpy(),
        "n_docs": p["n_docs"].astype("int64").to_numpy(),
        "n_tokens": p["nt"].astype("int64").to_numpy(),
        "fertility": round6(p["nc"].to_numpy(np.float64)
                            / p["nt"].to_numpy(np.float64)),
    }).reset_index(drop=True)


def _fertility_sql() -> str:
    return f"""
SELECT d.lang, count(*)::BIGINT AS n_docs,
       sum(enc.n_bpe_tokens)::BIGINT AS n_tokens,
       round(sum(d.n_chars)::DOUBLE / sum(enc.n_bpe_tokens), 6)
         AS fertility
FROM documents d
JOIN ({_bpe_sql(output="encode")}) enc USING (doc_id)
GROUP BY d.lang HAVING sum(enc.n_bpe_tokens) > 0
ORDER BY d.lang
"""


# ── k-core decomposition (round 19) ──────────────────────────────────

KCORE_K = 3
KCORE_ROUNDS = 10


def part_kcore(sf_dir: str):
    """k-core membership of the part co-purchase graph (k=3, 10 fixed
    peeling rounds — the pagerank fixed-iteration precedent): the
    dense backbone community detection and graph-ML sampling start
    from, with the Zipf fringe peeled away. BSP shape: each round is
    ONE degree groupby over the int-pair edge list; only the round's
    REMOVED shell crosses the driver (broadcast as a filter set to
    the next round's edge map — partitioning assumption: the peeled
    fringe fits driver memory, true by construction since peeling
    stops growing once the core stabilizes; the core itself never
    leaves the cluster)."""
    from ..stages.groups import bucketed_group_apply

    # dedupe the multi-edge stream to the simple graph: per-(u,v)-hash
    # bucket drop_duplicates (O(buckets) python calls) — measured 3×
    # faster end-to-end than a Ray groupby(u,v) aggregate over the
    # ~1M distinct pairs at sf0.1 (18.5 s → 6.2 s)
    edges = bucketed_group_apply(
        _copurchase_pair_stream(sf_dir), ["u", "v"],
        lambda df: df.drop_duplicates()) \
        .materialize()           # re-filtered every round

    removed: set = set()
    for _ in range(KCORE_ROUNDS):
        rm = removed  # bind for closure

        rm_arr = np.fromiter(rm, np.int64, len(rm)) if rm else None

        def deg_partial(t: pa.Table) -> pa.Table:
            u = t["u"].to_numpy(zero_copy_only=False)
            v = t["v"].to_numpy(zero_copy_only=False)
            if rm_arr is not None:
                keep = (~np.isin(u, rm_arr)) & (~np.isin(v, rm_arr))
                u, v = u[keep], v[keep]
            nodes, cnt = np.unique(np.concatenate([u, v]),
                                   return_counts=True)
            return pa.table({"node": pa.array(nodes, pa.int64()),
                             "deg": pa.array(cnt, pa.int64())})

        from ray.data.aggregate import Sum

        deg = (edges.map_batches(deg_partial, batch_format="pyarrow")
               .groupby("node").aggregate(Sum("deg", alias_name="deg")))

        def shell(t: pa.Table) -> pa.Table:
            m = pc.less(t["deg"], pa.scalar(KCORE_K))
            return t.filter(m).select(["node"])

        shell_df = deg.map_batches(shell,
                                   batch_format="pyarrow").to_pandas()
        new_rm = shell_df["node"].tolist() if "node" in shell_df \
            else []
        if not new_rm:
            break
        removed = removed | set(int(x) for x in new_rm)

    rm_arr = np.fromiter(removed, np.int64, len(removed)) \
        if removed else None

    def final_deg(t: pa.Table) -> pa.Table:
        u = t["u"].to_numpy(zero_copy_only=False)
        v = t["v"].to_numpy(zero_copy_only=False)
        if rm_arr is not None:
            keep = (~np.isin(u, rm_arr)) & (~np.isin(v, rm_arr))
            u, v = u[keep], v[keep]
        nodes, cnt = np.unique(np.concatenate([u, v]),
                               return_counts=True)
        return pa.table({"node": pa.array(nodes, pa.int64()),
                         "deg": pa.array(cnt, pa.int64())})

    from ray.data.aggregate import Sum

    deg = (edges.map_batches(final_deg, batch_format="pyarrow")
           .groupby("node").aggregate(Sum("deg", alias_name="deg")))

    # the core membership stays a Dataset — it is graph-sized
    def keep_core(t: pa.Table) -> pa.Table:
        if "node" not in t.column_names:   # whole graph peeled away
            return pa.table({"part": pa.array([], pa.int64()),
                             "core_degree": pa.array([], pa.int64())})
        t = t.filter(pc.greater_equal(t["deg"], pa.scalar(KCORE_K)))
        return pa.table({"part": pc.cast(t["node"], pa.int64()),
                         "core_degree": pc.cast(t["deg"], pa.int64())})

    return deg.map_batches(keep_core, batch_format="pyarrow")


def _kcore_sql(k: int = KCORE_K, rounds: int = KCORE_ROUNDS) -> str:
    parts = ["""
WITH items AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
e0 AS MATERIALIZED (
  SELECT DISTINCT a.l_partkey AS u, b.l_partkey AS v
  FROM items a JOIN items b
    ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey)"""]
    for i in range(rounds):
        parts.append(f""",
d{i} AS MATERIALIZED (
  SELECT node, count(*) AS deg FROM (
    SELECT u AS node FROM e{i} UNION ALL SELECT v FROM e{i})
  GROUP BY node),
k{i} AS MATERIALIZED (SELECT node FROM d{i} WHERE deg >= {k}),
e{i + 1} AS MATERIALIZED (
  SELECT e.u, e.v FROM e{i} e
  JOIN k{i} a ON a.node = e.u JOIN k{i} b ON b.node = e.v)""")
    parts.append(f"""
SELECT node AS part, deg::BIGINT AS core_degree FROM (
  SELECT node, count(*) AS deg FROM (
    SELECT u AS node FROM e{rounds} UNION ALL SELECT v FROM e{rounds})
  GROUP BY node)
WHERE deg >= {k}
ORDER BY part""")
    return "".join(parts)


# ── rank-biased overlap between retrieval legs (round 19) ────────────

RBO_P = 0.9
RBO_DEPTH = 20


def retrieval_rbo(sf_dir: str):
    """Rank-biased overlap (Webber, Moffat & Zobel 2010, truncated
    prefix form) between the BM25 and cosine top-20 rankings for the
    standing hybrid query — THE rank-similarity metric for indefinite
    rankings, top-weighted by persistence p=0.9. Quantifies how much
    the lexical and semantic views of the corpus agree (RBO ≈ 0 says
    the RRF fusion is adding real signal, not averaging near-identical
    lists). Both legs are the streaming partial-top-k passes their
    standalone oracles pin; the RBO sum touches 2·depth rows."""
    import math

    from ..stages.index import bm25_topk
    from ..stages.similarity import knn_bruteforce

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    lex = bm25_topk(docs, BM25_SEARCH_TERMS, topk=RBO_DEPTH)
    a = lex["doc_id"].to_numpy(np.int64)          # rank order 1..d
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    sem = knn_bruteforce(emb, [RRF_QUERY_ID], k=RBO_DEPTH) \
        .sort_values("rank")
    b = sem["vec_id"].to_numpy(np.int64)

    rbo = 0.0
    ov_d = 0
    for k in range(1, RBO_DEPTH + 1):
        ov = len(set(a[:k]) & set(b[:k]))
        rbo += math.pow(RBO_P, k - 1) * ov / k
        if k == RBO_DEPTH:
            ov_d = ov
    rbo *= (1.0 - RBO_P)
    return pd.DataFrame({
        "p": [RBO_P],
        "depth": pd.Series([RBO_DEPTH], dtype="int64"),
        "overlap_at_depth": pd.Series([ov_d], dtype="int64"),
        "rbo": [round6(rbo)]})


RBO_SQL = f"""
WITH w AS (SELECT doc_id, str_split(text, ' ') AS w FROM documents
           WHERE coalesce(text, '') <> ''),
st AS (SELECT count(*) AS n,
              sum(length(w))::DOUBLE / count(*) AS avgdl FROM w),
q AS (SELECT unnest(['hash', 'join']) AS term),
tf AS (SELECT doc_id, term,
              length(list_filter(w, x -> x = term)) AS tf,
              length(w) AS dl FROM w, q),
df AS (SELECT term, count(*) FILTER (tf > 0) AS df FROM tf GROUP BY term),
sc AS (SELECT tf.doc_id,
              sum(ln((st.n - df.df + 0.5) / (df.df + 0.5) + 1)
                  * (tf.tf * 2.2)
                  / (tf.tf + 1.2 * (0.25 + 0.75 * tf.dl / st.avgdl)))
                AS score
       FROM tf JOIN df USING (term), st GROUP BY tf.doc_id),
lex AS (SELECT doc_id, r FROM (
          SELECT doc_id, row_number() OVER (
            ORDER BY round(score, 2) DESC, doc_id) AS r FROM sc)
        WHERE r <= {RBO_DEPTH}),
qv AS (SELECT embedding FROM embeddings WHERE vec_id = {RRF_QUERY_ID}),
sem AS (SELECT doc_id, r FROM (
          SELECT e.vec_id AS doc_id, row_number() OVER (
            ORDER BY list_cosine_similarity(e.embedding::DOUBLE[],
                                            qv.embedding::DOUBLE[]) DESC,
                     e.vec_id) AS r
          FROM embeddings e, qv WHERE e.vec_id <> {RRF_QUERY_ID})
        WHERE r <= {RBO_DEPTH}),
ks AS (SELECT unnest(range(1, {RBO_DEPTH} + 1)) AS k),
ov AS (SELECT ks.k,
              (SELECT count(*) FROM lex a JOIN sem b USING (doc_id)
               WHERE a.r <= ks.k AND b.r <= ks.k) AS o
       FROM ks)
SELECT {RBO_P!r} AS p, {RBO_DEPTH}::BIGINT AS depth,
       (SELECT o FROM ov WHERE k = {RBO_DEPTH})::BIGINT
         AS overlap_at_depth,
       round((1.0 - {RBO_P!r})
             * sum(pow({RBO_P!r}, k - 1) * o / k), 6) AS rbo
FROM ov
"""


# ── degree assortativity (round 19) ──────────────────────────────────

def copurchase_assortativity(sf_dir: str):
    """Degree assortativity coefficient (Newman 2002) of the part
    co-purchase graph: the Pearson correlation of endpoint degrees
    over all directed edge stubs — positive means hubs buy with hubs
    (core-heavy carts), negative means hub-leaf structure; it decides
    whether degree-based partitioning will skew. Two passes over the
    deduped int-pair edges: a degree groupby, then per-batch moment
    partials of (deg_u, deg_v) joined from a broadcast degree map —
    partitioning assumption: the |parts|-sized degree vector fits in a
    broadcast, exactly the pagerank rank-vector contract."""
    import ray

    from ..stages.groups import bucketed_group_apply

    edges = bucketed_group_apply(
        _copurchase_pair_stream(sf_dir), ["u", "v"],
        lambda df: df.drop_duplicates()).materialize()

    def deg_partial(t: pa.Table) -> pa.Table:
        nodes, cnt = np.unique(np.concatenate([
            t["u"].to_numpy(zero_copy_only=False),
            t["v"].to_numpy(zero_copy_only=False)]), return_counts=True)
        return pa.table({"node": pa.array(nodes, pa.int64()),
                         "deg": pa.array(cnt, pa.int64())})

    from ray.data.aggregate import Sum

    deg = (edges.map_batches(deg_partial, batch_format="pyarrow")
           .groupby("node").aggregate(Sum("deg", alias_name="deg"))
           .to_pandas().sort_values("node"))
    dref = ray.put((deg["node"].to_numpy(np.int64),
                    deg["deg"].to_numpy(np.float64)))

    def moments(t: pa.Table) -> pd.DataFrame:
        import ray as _ray

        nodes, dv = _ray.get(dref)
        u = t["u"].to_numpy(zero_copy_only=False)
        v = t["v"].to_numpy(zero_copy_only=False)
        du = dv[np.searchsorted(nodes, u)]
        dw = dv[np.searchsorted(nodes, v)]
        # both stub directions: (du,dw) and (dw,du) — symmetric, so
        # sx == sy and sxx == syy; track x-moments and the cross term
        x = np.concatenate([du, dw])
        y = np.concatenate([dw, du])
        return pd.DataFrame({
            "m": pd.Series([len(x)], dtype="int64"),
            "sx": [float(x.sum())], "sxx": [float((x * x).sum())],
            "sxy": [float((x * y).sum())]})

    p = edges.map_batches(moments, batch_format="pyarrow").to_pandas()
    m = float(p["m"].sum())
    sx = float(p["sx"].sum())
    sxx = float(p["sxx"].sum())
    sxy = float(p["sxy"].sum())
    num = sxy / m - (sx / m) ** 2
    den = sxx / m - (sx / m) ** 2
    return pd.DataFrame({
        "n_edges": pd.Series([int(m // 2)], dtype="int64"),
        "assortativity": [round6(num / den)]})


ASSORTATIVITY_SQL = """
WITH items AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
e AS MATERIALIZED (
  SELECT DISTINCT a.l_partkey AS u, b.l_partkey AS v
  FROM items a JOIN items b
    ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey),
d AS MATERIALIZED (
  SELECT node, count(*)::DOUBLE AS deg FROM (
    SELECT u AS node FROM e UNION ALL SELECT v FROM e) GROUP BY node),
st AS (
  SELECT du.deg AS x, dv.deg AS y FROM e
  JOIN d du ON du.node = e.u JOIN d dv ON dv.node = e.v
  UNION ALL
  SELECT dv.deg, du.deg FROM e
  JOIN d du ON du.node = e.u JOIN d dv ON dv.node = e.v),
mo AS (SELECT count(*)::DOUBLE AS m, sum(x) AS sx,
              sum(x * x) AS sxx, sum(x * y) AS sxy
       FROM st)
SELECT (m / 2)::BIGINT AS n_edges,
       round((sxy / m - (sx / m) * (sx / m))
             / (sxx / m - (sx / m) * (sx / m)), 6) AS assortativity
FROM mo
"""


# ── cross-source duplicate crosstab (round 19) ───────────────────────

def source_dup_crosstab(sf_dir: str):
    """Cross-source EXACT-duplicate pairs: for each source pair
    (a ≤ b), how many document pairs share identical text — the
    provenance readout that distinguishes in-source boilerplate from
    cross-source syndication/mirroring (the trigram overlap matrix's
    exact-dup sibling). Texts shrink to md5 keys per batch; clusters
    assemble in one hash groupby; per-cluster source crosstabs are
    C(sources-in-cluster, 2)-sized partials."""
    import hashlib

    from ..stages.groups import bucketed_group_apply

    ds = _read(sf_dir, "documents", ["text", "source"])

    def to_hash(df: pd.DataFrame) -> pa.Table:
        return arrow_out(pd.DataFrame({
            "h": [hashlib.md5((t or "").encode()).hexdigest()
                  for t in df["text"].tolist()],
            "source": df["source"].to_numpy()}))

    def per_cluster(df: pd.DataFrame) -> pd.DataFrame:
        # per-(cluster, source) doc counts FIRST, then closed-form
        # pair counts from the k-vector — the self-join stays
        # O(sources²) per cluster instead of O(cluster²), so a
        # boilerplate mega-cluster cannot blow up a bucket
        ks = (df.groupby(["h", "source"]).size().reset_index(name="k"))
        m = ks.merge(ks, on="h")
        m = m[m["source_x"] <= m["source_y"]]
        same = (m["source_x"] == m["source_y"]).to_numpy()
        kx = m["k_x"].to_numpy(np.int64)
        ky = m["k_y"].to_numpy(np.int64)
        n = np.where(same, kx * (kx - 1) // 2, kx * ky)
        out = pd.DataFrame({"source_a": m["source_x"].to_numpy(),
                            "source_b": m["source_y"].to_numpy(),
                            "n_pairs": n})
        out = (out.groupby(["source_a", "source_b"])["n_pairs"]
               .sum().reset_index())
        return out[out["n_pairs"] > 0]

    hashes = ds.map_batches(to_hash, batch_format="pandas")
    out = grouped_partials(bucketed_group_apply(hashes, "h", per_cluster),
                           ["source_a", "source_b"], sums=["n_pairs"])
    out["n_pairs"] = out["n_pairs"].astype("int64")
    return out


DUP_CROSSTAB_SQL = """
WITH h AS (SELECT doc_id, md5(coalesce(text, '')) AS h, source
           FROM documents),
p AS (SELECT a.source AS source_a, b.source AS source_b
      FROM h a JOIN h b
        ON a.h = b.h
        AND (a.source < b.source
             OR (a.source = b.source AND a.doc_id < b.doc_id)))
SELECT source_a, source_b, count(*)::BIGINT AS n_pairs
FROM p GROUP BY source_a, source_b ORDER BY source_a, source_b
"""


# ── order seasonality index (round 19) ───────────────────────────────

def orders_seasonality_index(sf_dir: str):
    """Month-of-year seasonality index of order volume: per calendar
    month, observed order count over the count a uniform calendar
    would predict (index 1 = no seasonality) — the demand-shape
    readout a forecaster detrends with. Month counts come from
    12-row per-batch partials; the index is exact int/int before one
    final round."""
    ds = _read(sf_dir, "orders", ["o_orderdate"])

    p = grouped_partials(ds, "month", count="n", prep=lambda t: pa.table(
        {"month": pc.cast(pc.month(t["o_orderdate"]), pa.int64())}))
    months = p["month"].to_numpy(np.int64)
    n = p["n"].to_numpy(np.float64)
    total = float(n.sum())
    k = float(len(months))
    return pd.DataFrame({
        "month": months,
        "n_orders": p["n"].to_numpy(np.int64),
        "seasonality_index": round6(n * k / total)})


SEASONALITY_SQL = """
WITH m AS (SELECT month(o_orderdate) AS month, count(*) AS n
           FROM orders GROUP BY 1),
t AS (SELECT sum(n)::DOUBLE AS total, count(*)::DOUBLE AS k FROM m)
SELECT month::BIGINT AS month, n::BIGINT AS n_orders,
       round(n * t.k / t.total, 6) AS seasonality_index
FROM m, t ORDER BY month
"""


# ── session bounce rate (round 19) ───────────────────────────────────

def session_bounce_rate(sf_dir: str):
    """Bounce rate per session entry type: of the sessions that OPEN
    with each event type (30-min inactivity sessionization, the
    session_first_touch convention), what fraction end after that one
    event — the landing-quality metric next to first-touch
    attribution. One user-hash bucket carries sessionization and the
    per-session reduce; partials are ≤ |event types| rows."""
    from ..stages.groups import bucketed_group_apply

    ds = _read(sf_dir, "events",
               ["user_id", "event_type", "ts", "event_id"])
    gap_us = 30 * 60 * 1_000_000

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"],
                            kind="stable")
        gaps = df.groupby("user_id", sort=False)["ts"].diff()
        brk = (gaps.dt.total_seconds() * 1_000_000 > gap_us) \
            .fillna(False).astype("int64")
        df = df.assign(_sid=brk.groupby(df["user_id"]).cumsum())
        per = (df.groupby(["user_id", "_sid"], sort=False)
               .agg(entry_type=("event_type", "first"),
                    n=("event_type", "size")))
        agg = (per.assign(bounce=(per["n"] == 1).astype("int64"))
               .groupby("entry_type", sort=False)
               .agg(n_sessions=("n", "size"), n_bounces=("bounce",
                                                         "sum")))
        return agg.reset_index()

    p = grouped_partials(bucketed_group_apply(ds, "user_id", per_bucket),
                         "entry_type", sums=["n_sessions", "n_bounces"]) \
        .set_index("entry_type")
    return pd.DataFrame({
        "entry_type": p.index.to_numpy(),
        "n_sessions": p["n_sessions"].astype("int64").to_numpy(),
        "n_bounces": p["n_bounces"].astype("int64").to_numpy(),
        "bounce_rate": round6(p["n_bounces"].to_numpy(np.float64)
                              / p["n_sessions"].to_numpy(np.float64)),
    }).reset_index(drop=True)


BOUNCE_SQL = """
WITH s AS (
  SELECT user_id, event_type, ts, event_id,
         CASE WHEN lag(ts) OVER w IS NULL
                OR epoch_us(ts - lag(ts) OVER w) > 30 * 60 * 1000000
              THEN 1 ELSE 0 END AS brk
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
sid AS (
  SELECT user_id, event_type, ts, event_id,
         sum(brk) OVER (PARTITION BY user_id ORDER BY ts, event_id
                        ROWS UNBOUNDED PRECEDING) AS sid
  FROM s),
per AS (
  SELECT DISTINCT user_id, sid,
         first_value(event_type) OVER (PARTITION BY user_id, sid
                                       ORDER BY ts, event_id) AS entry_type,
         count(*) OVER (PARTITION BY user_id, sid) AS n
  FROM sid)
SELECT entry_type, count(*)::BIGINT AS n_sessions,
       sum(CASE WHEN n = 1 THEN 1 ELSE 0 END)::BIGINT AS n_bounces,
       round(sum(CASE WHEN n = 1 THEN 1 ELSE 0 END)::DOUBLE
             / count(*), 6) AS bounce_rate
FROM per GROUP BY entry_type ORDER BY entry_type
"""


# ── Lorenz concentration curve (round 19) ────────────────────────────

def user_event_lorenz(sf_dir: str):
    """Lorenz curve of event volume across users: at each decile p of
    the user base (sorted by activity, user_id tiebreak), the share
    of total events held by the bottom ⌈p·U⌉ users — the curve behind
    user_event_gini's scalar, read for capacity planning and abuse
    thresholds. Per-user counts come back as mergeable partials (the
    Gini |users| driver bound); ranks use the exact-decimal ceil rule
    shared with quantile_disc; shares are exact int/int."""
    from fractions import Fraction
    from math import ceil


    counts = grouped_partials(_read(sf_dir, "events", ["user_id"]),
                              "user_id", count="c")
    counts = counts.sort_values(["c", "user_id"])
    c = counts["c"].to_numpy(np.int64)
    u = len(c)
    total = int(c.sum())
    cum = np.cumsum(c)
    rows = []
    for k in range(1, 11):
        p = k / 10.0
        idx = max(ceil(Fraction(str(p)) * u), 1)
        rows.append({"p": p,
                     "n_users": idx,
                     "cum_share": round6(int(cum[idx - 1]) / total)})
    out = pd.DataFrame(rows)
    out["n_users"] = out["n_users"].astype("int64")
    return out


LORENZ_SQL = """
WITH c AS (SELECT user_id, count(*)::BIGINT AS c FROM events
           GROUP BY user_id),
r AS (SELECT c, row_number() OVER (ORDER BY c, user_id) AS i,
             sum(c) OVER (ORDER BY c, user_id
                          ROWS UNBOUNDED PRECEDING) AS cum,
             count(*) OVER () AS u, sum(c) OVER () AS s
      FROM c),
ps AS (SELECT unnest([0.1, 0.2, 0.3, 0.4, 0.5,
                      0.6, 0.7, 0.8, 0.9, 1.0]) AS p)
SELECT ps.p, r.i::BIGINT AS n_users,
       round(r.cum::DOUBLE / r.s, 6) AS cum_share
FROM ps JOIN r ON r.i = greatest(CAST(ceil(ps.p * r.u) AS BIGINT), 1)
ORDER BY ps.p
"""


# ── Kaplan–Meier view→purchase survival (round 19) ───────────────────

def view_purchase_kaplan_meier(sf_dir: str):
    """Kaplan–Meier survival curve of time-to-purchase after first
    view, with right-censoring at the corpus horizon — the estimator
    behind 'X% still haven't purchased after t', which a naive mean
    latency gets wrong the moment non-purchasers exist
    (view_to_purchase_latency's censoring-aware sibling). Per-user
    (duration, converted) rows come from one user-hash bucket pass;
    the curve itself reduces over ≤ |users| rows (the Gini driver
    bound). Survival replays the oracle's exp(Σ ln(1−dᵢ/nᵢ)) op
    order exactly; the standard tie rule (censored at t still at
    risk for the event at t) falls out of the duration < t rank."""
    from ..stages.groups import bucketed_group_apply

    ds = _read(sf_dir, "events", ["user_id", "event_type", "ts"])

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        v = (df[df["event_type"] == "view"]
             .groupby("user_id")["ts"].min().rename("t_view"))
        pur = df[df["event_type"] == "purchase"]
        # every user of the bucket, viewer or not: a bucket without
        # viewers still reports its latest event for the horizon
        out = pd.DataFrame({"user_id": df["user_id"].unique()}).merge(
            v.reset_index(), on="user_id", how="left")
        m = out.merge(pur[["user_id", "ts"]], on="user_id", how="left")
        m = m[m["ts"].isna() | (m["ts"] >= m["t_view"])]
        first_p = (m.dropna(subset=["ts"])
                   .groupby("user_id")["ts"].min().rename("t_p"))
        out = out.merge(first_p.reset_index(), on="user_id",
                        how="left")
        out["local_max"] = df["ts"].max()
        return out[["user_id", "t_view", "t_p", "local_max"]]

    per_user = (bucketed_group_apply(ds, "user_id", per_bucket)
                .to_pandas())
    horizon = per_user["local_max"].max()      # max(ts) of all events
    per_user = per_user[per_user["t_view"].notna()]
    conv = per_user["t_p"].notna().to_numpy()
    end = per_user["t_p"].fillna(horizon)
    # exact integer microseconds — a float-seconds cast would round
    # differently from DuckDB's epoch_us
    dur = (end.to_numpy("datetime64[us]").astype(np.int64)
           - per_user["t_view"].to_numpy("datetime64[us]")
           .astype(np.int64))
    n = len(dur)
    # KM over distinct EVENT times
    order = np.argsort(dur, kind="stable")
    dur, conv = dur[order], conv[order]
    ts = np.unique(dur[conv])
    rows = []
    log_s = 0.0
    dead = False     # the final at-risk user converted: S hits exact 0
    for t in ts:
        n_risk = int((dur >= t).sum())
        d = int(((dur == t) & conv).sum())
        if d == n_risk:
            dead = True
        else:
            log_s += float(np.log(1.0 - d / n_risk))
        rows.append({"t_us": int(t), "n_risk": n_risk, "n_events": d,
                     "survival": 0.0 if dead
                     else round6(float(np.exp(log_s)))})
    out = pd.DataFrame(rows)
    out["t_us"] = out["t_us"].astype("int64")
    out["n_risk"] = out["n_risk"].astype("int64")
    out["n_events"] = out["n_events"].astype("int64")
    return out


KM_SQL = """
WITH v AS (SELECT user_id, min(ts) AS t_view FROM events
           WHERE event_type = 'view' GROUP BY user_id),
p AS (SELECT v.user_id, min(e.ts) AS t_p
      FROM v JOIN events e
        ON e.user_id = v.user_id AND e.event_type = 'purchase'
        AND e.ts >= v.t_view
      GROUP BY v.user_id),
h AS (SELECT max(ts) AS horizon FROM events),
u AS (SELECT v.user_id,
             epoch_us(coalesce(p.t_p, h.horizon) - v.t_view) AS dur,
             (p.t_p IS NOT NULL) AS conv
      FROM v LEFT JOIN p USING (user_id), h),
ts AS (SELECT DISTINCT dur AS t FROM u WHERE conv),
km AS (SELECT ts.t,
              (SELECT count(*) FROM u WHERE u.dur >= ts.t) AS n_risk,
              (SELECT count(*) FROM u
               WHERE u.dur = ts.t AND u.conv) AS d
       FROM ts)
SELECT t AS t_us, n_risk::BIGINT AS n_risk, d::BIGINT AS n_events,
       CASE WHEN sum(CASE WHEN d = n_risk THEN 1 ELSE 0 END)
                 OVER pre > 0 THEN 0.0
            ELSE round(exp(sum(CASE WHEN d < n_risk
                                    THEN ln(1.0 - d::DOUBLE / n_risk)
                                    ELSE 0.0 END) OVER pre), 6) END
         AS survival
FROM km
WINDOW pre AS (ORDER BY t ROWS UNBOUNDED PRECEDING)
ORDER BY t
"""


# ── CUPED variance reduction (round 19) ──────────────────────────────

def cuped_variance_reduction(sf_dir: str):
    """CUPED (Deng et al. 2013): use each user's PRE-period value sum
    as the control covariate for the post-period metric — the standard
    experimentation trick that shrinks A/B variance without bias.
    θ = cov(x,y)/var(x) over users; reported variance reduction
    1 − var(y−θx)/var(y) = corr². The pre/post cut is the exact
    integer midpoint of the event-time range. Per-user (x, y) sums
    come from one fixed-width groupby; the five moments reduce from
    per-batch partials (one row per block)."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])

    # global time range: tiny aggregate pass
    lo = np.datetime64(ds.min("ts"), "us").astype("int64")
    hi = np.datetime64(ds.max("ts"), "us").astype("int64")
    mid = (int(lo) + int(hi)) // 2

    def tag(tb: pa.Table) -> pa.Table:
        df = tb.to_pandas()
        v = df["value"].to_numpy(np.float64)
        keep = ~np.isnan(v)
        t = df["ts"].to_numpy("datetime64[us]").astype("int64")[keep]
        v = v[keep]
        pre = t <= mid
        return arrow_out(pd.DataFrame({
            "user_id": df["user_id"].to_numpy()[keep],
            "x": np.where(pre, v, 0.0),
            "y": np.where(pre, 0.0, v)}))

    per_user = (ds.map_batches(tag, batch_format="pyarrow")
                .groupby("user_id")
                .aggregate(Sum("x", alias_name="x"),
                           Sum("y", alias_name="y")))

    def moments(df: pd.DataFrame) -> pd.DataFrame:
        x = df["x"].to_numpy(np.float64)
        y = df["y"].to_numpy(np.float64)
        return pd.DataFrame({
            "n": pd.Series([len(x)], dtype="int64"),
            "sx": [x.sum()], "sy": [y.sum()],
            "sxx": [(x * x).sum()], "syy": [(y * y).sum()],
            "sxy": [(x * y).sum()]})

    p = (per_user.map_batches(moments, batch_format="pandas")
         .to_pandas().sum())
    n = float(p["n"])
    vx = p["sxx"] / n - (p["sx"] / n) ** 2
    vy = p["syy"] / n - (p["sy"] / n) ** 2
    cov = p["sxy"] / n - (p["sx"] / n) * (p["sy"] / n)
    theta = cov / vx
    return pd.DataFrame({
        "n_users": pd.Series([int(n)], dtype="int64"),
        "theta": [round6(float(theta))],
        "var_reduction": [round6(float(cov * cov / (vx * vy)))]})


CUPED_SQL = """
WITH r AS (SELECT epoch_us(min(ts)) AS lo, epoch_us(max(ts)) AS hi
           FROM events),
ev AS (SELECT user_id,
              CASE WHEN epoch_us(ts) <= (r.lo + r.hi) // 2
                   THEN value ELSE 0.0 END AS x,
              CASE WHEN epoch_us(ts) <= (r.lo + r.hi) // 2
                   THEN 0.0 ELSE value END AS y
       FROM events, r WHERE value IS NOT NULL),
u AS (SELECT user_id, sum(x) AS x, sum(y) AS y FROM ev
      GROUP BY user_id),
mo AS (SELECT count(*)::DOUBLE AS n, sum(x) AS sx, sum(y) AS sy,
              sum(x * x) AS sxx, sum(y * y) AS syy,
              sum(x * y) AS sxy
       FROM u)
SELECT n::BIGINT AS n_users,
       round((sxy / n - (sx / n) * (sy / n))
             / (sxx / n - (sx / n) * (sx / n)), 6) AS theta,
       round(pow(sxy / n - (sx / n) * (sy / n), 2)
             / ((sxx / n - (sx / n) * (sx / n))
                * (syy / n - (sy / n) * (sy / n))), 6)
         AS var_reduction
FROM mo
"""


# ── difference-in-differences (round 19) ─────────────────────────────

def did_value_estimate(sf_dir: str):
    """Difference-in-differences over the event value stream: assign
    users to treatment by the engine-portable md5 coin (the synthetic
    assignment the dp/bootstrap precedents use — a production run
    swaps in the real flag column), cut pre/post at the exact integer
    time midpoint, and report DiD = (ȳT,post − ȳT,pre) −
    (ȳC,post − ȳC,pre) — the parallel-trends estimator that
    completes the experimentation tier next to Welch and CUPED. One
    pass of per-batch (group, period) sum/count partials — 4 rows per
    block, no shuffle."""
    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])
    lo = np.datetime64(ds.min("ts"), "us").astype("int64")
    hi = np.datetime64(ds.max("ts"), "us").astype("int64")
    mid = (int(lo) + int(hi)) // 2

    from ..stages.sketches import md5_uniform

    def groups(t: pa.Table) -> pa.Table:
        v = t["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        keep = ~np.isnan(v)
        ts = t["ts"].cast(pa.timestamp("us"), safe=False).cast(
            pa.int64()).to_numpy(zero_copy_only=False)[keep]
        u = md5_uniform([f"did:{x}" for x in
                         t["user_id"].to_numpy(zero_copy_only=False)[keep]])
        return pa.table({"g": (u < 0.5).astype(np.int64),
                         "p": (ts > mid).astype(np.int64), "s": v[keep]})

    p = grouped_partials(ds, ["g", "p"], sums=["s"], count="n",
                         prep=groups).set_index(["g", "p"])
    mean = {k: p.loc[k, "s"] / p.loc[k, "n"] for k in p.index}
    did = (mean[(1, 1)] - mean[(1, 0)]) - (mean[(0, 1)] - mean[(0, 0)])
    return pd.DataFrame({
        "n_events": pd.Series([int(p["n"].sum())], dtype="int64"),
        "mean_t_pre": [round6(mean[(1, 0)])],
        "mean_t_post": [round6(mean[(1, 1)])],
        "mean_c_pre": [round6(mean[(0, 0)])],
        "mean_c_post": [round6(mean[(0, 1)])],
        "did": [round6(did)]})


DID_SQL = """
WITH r AS (SELECT epoch_us(min(ts)) AS lo, epoch_us(max(ts)) AS hi
           FROM events),
ev AS (SELECT value,
              (('0x' || substr(md5('did:' || user_id::VARCHAR), 1, 8))
                 ::UBIGINT / 4294967296.0 < 0.5)::INT AS g,
              (epoch_us(ts) > (r.lo + r.hi) // 2)::INT AS p
       FROM events, r WHERE value IS NOT NULL),
m AS (SELECT g, p, sum(value) / count(*) AS mu, count(*) AS n
      FROM ev GROUP BY g, p)
SELECT (SELECT sum(n) FROM m)::BIGINT AS n_events,
       round((SELECT mu FROM m WHERE g = 1 AND p = 0), 6)
         AS mean_t_pre,
       round((SELECT mu FROM m WHERE g = 1 AND p = 1), 6)
         AS mean_t_post,
       round((SELECT mu FROM m WHERE g = 0 AND p = 0), 6)
         AS mean_c_pre,
       round((SELECT mu FROM m WHERE g = 0 AND p = 1), 6)
         AS mean_c_post,
       round(((SELECT mu FROM m WHERE g = 1 AND p = 1)
              - (SELECT mu FROM m WHERE g = 1 AND p = 0))
             - ((SELECT mu FROM m WHERE g = 0 AND p = 1)
                - (SELECT mu FROM m WHERE g = 0 AND p = 0)), 6) AS did
"""


# ── Theil–Sen robust slope (round 19) ────────────────────────────────

TS_SAMPLE = 200


def lineitem_theil_sen(sf_dir: str):
    """Theil–Sen robust slope of price on quantity: the median of all
    pairwise slopes over a deterministic 200-row hash sample — the
    outlier-immune sibling of lineitem_regression's OLS (breakdown
    point 29% vs 0%). The distributed part is the engine-portable
    sampling pass (per-batch md5-uniform top-k, candidate-exact like
    every top-k here); the C(200,2) slope median runs on the driver —
    the sample size, not the corpus, bounds it. Median = the exact
    lower-median order statistic with (slope, i, j) never
    materialized in SQL beyond the same 19,900-row grid. Equal
    uniforms break on (l_orderkey, l_linenumber), in each batch's cut
    and the driver's alike, so the sample is layout-independent."""
    from ..stages.sketches import md5_uniform

    ds = _lineitem(sf_dir, ["l_orderkey", "l_linenumber", "l_quantity",
                            "l_extendedprice"])
    order = ["u", "l_orderkey", "l_linenumber"]

    def pick(t: pa.Table) -> pa.Table:
        u = md5_uniform(pc.binary_join_element_wise(
            "ts", pc.cast(t["l_orderkey"], pa.string()),
            pc.cast(t["l_linenumber"], pa.string()), ":"))
        t = t.append_column("u", pa.array(u, pa.float64()))
        return t.sort_by([(c, "ascending") for c in order]) \
            .slice(0, TS_SAMPLE)

    s = (ds.map_batches(pick, batch_format="pyarrow")
         .to_pandas().sort_values(order).head(TS_SAMPLE)
         .reset_index(drop=True))
    x = s["l_quantity"].to_numpy(np.float64)
    y = s["l_extendedprice"].to_numpy(np.float64)
    i, j = np.triu_indices(len(x), k=1)
    dx = x[j] - x[i]
    keep = dx != 0
    slopes = (y[j] - y[i])[keep] / dx[keep]
    slopes.sort()
    n = len(slopes)
    med = float(slopes[(n - 1) // 2])     # lower median, exact
    return pd.DataFrame({
        "n_sample": pd.Series([len(x)], dtype="int64"),
        "n_slopes": pd.Series([n], dtype="int64"),
        "theil_sen_slope": [round6(med)]})


THEIL_SEN_SQL = f"""
WITH u AS (
  SELECT l_orderkey, l_linenumber, l_quantity AS x, l_extendedprice AS y,
         ('0x' || substr(md5('ts:' || l_orderkey::VARCHAR || ':'
                             || l_linenumber::VARCHAR), 1, 8))::UBIGINT
           / 4294967296.0 AS u
  FROM lineitem),
s AS (SELECT x, y,
             row_number() OVER (ORDER BY u, l_orderkey, l_linenumber) AS r
      FROM u QUALIFY r <= {TS_SAMPLE}),
sl AS (SELECT (b.y - a.y) / (b.x - a.x) AS slope
       FROM s a JOIN s b ON a.r < b.r AND b.x <> a.x),
st AS (SELECT count(*) AS n FROM sl),
m AS (SELECT slope, row_number() OVER (ORDER BY slope) AS r FROM sl)
SELECT (SELECT count(*) FROM s)::BIGINT AS n_sample,
       st.n::BIGINT AS n_slopes,
       round((SELECT slope FROM m, st WHERE m.r = (st.n - 1) // 2 + 1),
             6) AS theil_sen_slope
FROM st
"""


# ── Herfindahl concentration (round 19) ──────────────────────────────

def source_hhi(sf_dir: str):
    """Herfindahl–Hirschman concentration of the corpus across
    sources: HHI = Σ share² and its effective source count 1/HHI —
    the one-number dependence readout next to the Lorenz/Gini family
    (an HHI drifting toward 1 means the corpus is quietly becoming a
    single-origin dataset). Small-key count partials, no shuffle;
    shares are exact int/int before the squared sum."""

    c = grouped_partials(_read(sf_dir, "documents", ["source"]),
                         ["source"], count="n")
    n = c["n"].to_numpy(np.float64)
    share = n / n.sum()
    hhi = float(np.sum(share * share))
    return pd.DataFrame({
        "n_sources": pd.Series([len(n)], dtype="int64"),
        "hhi": [round6(hhi)],
        "effective_sources": [round6(1.0 / hhi)]})


HHI_SQL = """
WITH c AS (SELECT source, count(*)::DOUBLE AS n FROM documents
           GROUP BY source),
t AS (SELECT sum(n) AS s FROM c)
SELECT (SELECT count(*) FROM c)::BIGINT AS n_sources,
       round(sum((n / t.s) * (n / t.s)), 6) AS hhi,
       round(1.0 / sum((n / t.s) * (n / t.s)), 6) AS effective_sources
FROM c, t
"""


QUERIES = {
    # relational
    "q1_pricing_summary": q1_pricing_summary,
    "top_orders": top_orders,
    "filter_project_revenue": filter_project_revenue,
    "dedup_events_latest": dedup_events_latest,
    "join_customer_orders": join_customer_orders,
    "distinct_event_types": distinct_event_types,
    "nations_without_suppliers": nations_without_suppliers,
    "event_value_stats": event_value_stats,
    "shuffled_lang_distribution": shuffled_lang_distribution,
    "median_value_per_type": median_value_per_type,
    "purchase_value_per_user": purchase_value_per_user,
    "purchase_value_per_user_salted": purchase_value_per_user_salted,
    "doc_head_upper": doc_head_upper,
    "top_events_per_user": top_events_per_user,
    "distinct_user_event_pairs": distinct_user_event_pairs,
    "embedding_norms": embedding_norms,
    "union_nation_region_names": union_nation_region_names,
    "events_running_sum": events_running_sum,
    "events_value_ewma": events_value_ewma,
    "event_value_histogram": event_value_histogram,
    "bpe_learn_merges": bpe_learn_merges,
    "copurchase_triangles": copurchase_triangles,
    "point_lookup_event": point_lookup_event,
    "sessionize_events": sessionize_events,
    "sessionize_events_stateful": sessionize_events_stateful,
    "events_watermark_late": events_watermark_late,
    "source_epoch_plan": source_epoch_plan,
    "join_orders_lineitem": join_orders_lineitem,
    "asof_prev_view": asof_prev_view,
    "q3_shipping_priority": q3_shipping_priority,
    "q6_forecast_revenue": q6_forecast_revenue,
    "orders_with_discounted_items": orders_with_discounted_items,
    "supplier_count_per_nation": supplier_count_per_nation,
    "events_lag_delta": events_lag_delta,
    "user_event_sequence": user_event_sequence,
    "orders_monthly_volume": orders_monthly_volume,
    "event_props_k_stats": event_props_k_stats,
    # curation
    "doc_duplicate_spans": doc_duplicate_spans,
    "pii_redact_docs": pii_redact_docs,
    "gopher_quality_docs": gopher_quality_docs,
    "pack_doc_sequences": pack_doc_sequences,
    "contaminated_docs": contaminated_docs,
    "dsir_doc_weights": dsir_doc_weights,
    "doc_top_bigram": doc_top_bigram,
    "training_corpus_pipeline": training_corpus_pipeline,
    "bm25_search_docs": bm25_search_docs,
    "events_ntile_quartiles": events_ntile_quartiles,
    "user_event_pivot": user_event_pivot,
    "event_value_percentiles": event_value_percentiles,
    "event_value_zscore": event_value_zscore,
    "bloom_prune_orders": bloom_prune_orders,
    "bucketed_storage_join_orders": bucketed_storage_join_orders,
    "corpus_snapshot_diff": corpus_snapshot_diff,
    "join_native_customer_orders": join_native_customer_orders,
    "doc_overlap_chunks": doc_overlap_chunks,
    "doc_split_assign": doc_split_assign,
    "rag_index_docs": rag_index_docs,
    "events_ivm_counts": events_ivm_counts,
    "quality_classifier_docs": quality_classifier_docs,
    # text
    "doc_token_stats": doc_token_stats,
    "doc_quality_filter": doc_quality_filter,
    "dedup_exact_docs": dedup_exact_docs,
    "doc_bpe_token_count": doc_bpe_token_count,
    "events_tumbling_agg": events_tumbling_agg,
    "events_hourly_dense": events_hourly_dense,
    "events_sliding_agg": events_sliding_agg,
    "doc_selfrepeat_ratio": doc_selfrepeat_ratio,
    "approx_distinct_users": approx_distinct_users,
    "frequent_lines": frequent_lines,
    "docs_line_deduped": docs_line_deduped,
    "doc_compression_ratio": doc_compression_ratio,
    "doc_lm_perplexity": doc_lm_perplexity,
    "doc_pii_counts": doc_pii_counts,
    "decontaminate_docs": decontaminate_docs,
    "top_docs_by_len": top_docs_by_len,
    "lang_distribution": lang_distribution,
    "sample_hash_documents": sample_hash_documents,
    "sample_random_documents": sample_random_documents,
    # embeddings
    "knn_cosine": knn_cosine,
    "neardup_embedding": neardup_embedding,
    # extraction + non-SQL ops (rows-only)
    "extract_corpus": extract_corpus,
    "extract_records": extract_records,
    "block_quality": block_quality,
    "neardup_minhash_docs": neardup_minhash_docs,
    "neardup_simhash_docs": neardup_simhash_docs,
    "langid_docs": langid_docs,
    "fingerprint_docs": fingerprint_docs,
    "doc_winnow_selection": doc_winnow_selection,
    "ann_lsh_cosine": ann_lsh_cosine,
    "ivf_cosine": ivf_cosine,
    "neardup_keep_docs": neardup_keep_docs,
    "neardup_keep_best_docs": neardup_keep_best_docs,
    "purchase_views_band_join": purchase_views_band_join,
    "neardup_jaccard_docs": neardup_jaccard_docs,
    "neardup_jaccard_keep_docs": neardup_jaccard_keep_docs,
    "ann_recall_floor": ann_recall_floor,
    "ann_pq_recall": ann_pq_recall,
    "ann_lsh_exhaustive": ann_lsh_exhaustive,
    "ann_ivf_exhaustive": ann_ivf_exhaustive,
    "events_partition_pruned_counts": events_partition_pruned_counts,
    "bpe_encode_docs": bpe_encode_docs,
    "media_features": media_features,
    "video_frames": video_frames,
    "doc_lines_exploded": doc_lines_exploded,
    "artifact_roundtrip": artifact_roundtrip,
    # exact sketch-assisted / OLAP additions
    "quantiles_price": quantiles_price,
    "event_value_quantiles": event_value_quantiles,
    "approx_quantiles_value": approx_quantiles_value,
    "heavy_hitter_tokens": heavy_hitter_tokens,
    "bm25_doc_scores": bm25_doc_scores,
    "orders_rollup_volume": orders_rollup_volume,
    "inverted_index_lookup": inverted_index_lookup,
    "doc_length_quartile": doc_length_quartile,
    "join_part_supplier_auto": join_part_supplier_auto,
    "lineitem_price_corr": lineitem_price_corr,
    "orders_percent_rank": orders_percent_rank,
    "mode_event_per_user": mode_event_per_user,
    "q5_local_supplier_volume": q5_local_supplier_volume,
    "q18_large_orders": q18_large_orders,
    "q10_returned_revenue": q10_returned_revenue,
    "q14_promo_revenue": q14_promo_revenue,
    "q4_order_priority": q4_order_priority,
    "q19_disjunctive_revenue": q19_disjunctive_revenue,
    "docs_span_deduped": docs_span_deduped,
    "seq_pack_offsets": seq_pack_offsets,
    "nations_customers_and_suppliers": nations_customers_and_suppliers,
    "events_user_ntile": events_user_ntile,
    "events_pivot_counts": events_pivot_counts,
    "neardup_editdist_docs": neardup_editdist_docs,
    "neardup_jarowinkler_docs": neardup_jarowinkler_docs,
    "cdc_chunk_dedup": cdc_chunk_dedup,
    "token_zipf_slope": token_zipf_slope,
    # round-18 additions
    "hybrid_search_rrf": hybrid_search_rrf,
    "mmr_diverse_topk": mmr_diverse_topk,
    "source_split_assign": source_split_assign,
    "bm25_prf_search": bm25_prf_search,
    "source_token_kl": source_token_kl,
    "hll_estimate_users_per_type": hll_estimate_users_per_type,
    "source_overlap_matrix": source_overlap_matrix,
    "event_markov_stationary": event_markov_stationary,
    "doc_script_mix": doc_script_mix,
    # round-19 additions
    "poisson_bootstrap_value_ci": poisson_bootstrap_value_ci,
    "embedding_rp_project": embedding_rp_project,
    "event_transition_entropy": event_transition_entropy,
    "source_mix_weights": source_mix_weights,
    "doc_oov_rate": doc_oov_rate,
    "doc_flesch_score": doc_flesch_score,
    "doc_char_entropy": doc_char_entropy,
    "value_benford_chisq": value_benford_chisq,
    "dup_cluster_size_hist": dup_cluster_size_hist,
    "events_selfjoin_size_f2": events_selfjoin_size_f2,
    "split_length_psi": split_length_psi,
    "event_type_lift": event_type_lift,
    "price_selectivity_eval": price_selectivity_eval,
    "source_quality_report": source_quality_report,
    "k_anonymity_audit": k_anonymity_audit,
    "dp_noisy_type_counts": dp_noisy_type_counts,
    "contrastive_negative_plan": contrastive_negative_plan,
    "user_rfm_segments": user_rfm_segments,
    "user_churn_labels": user_churn_labels,
    "lang_token_fertility": lang_token_fertility,
    "part_kcore": part_kcore,
    "retrieval_rbo": retrieval_rbo,
    "copurchase_assortativity": copurchase_assortativity,
    "source_dup_crosstab": source_dup_crosstab,
    "orders_seasonality_index": orders_seasonality_index,
    "session_bounce_rate": session_bounce_rate,
    "user_event_lorenz": user_event_lorenz,
    "view_purchase_kaplan_meier": view_purchase_kaplan_meier,
    "cuped_variance_reduction": cuped_variance_reduction,
    "did_value_estimate": did_value_estimate,
    "lineitem_theil_sen": lineitem_theil_sen,
    "source_hhi": source_hhi,
    "doc_normalize_text": doc_normalize_text,
    "doc_gopher_repetition": doc_gopher_repetition,
    "sample_stratified_docs": sample_stratified_docs,
    "customers_above_nation_avg": customers_above_nation_avg,
    "argmax_event_user": argmax_event_user,
    "sample_k_per_lang": sample_k_per_lang,
    "tfidf_similar_docs": tfidf_similar_docs,
    "label_centroids": label_centroids,
    "curation_pipeline": curation_pipeline,
    "q13_customer_distribution": q13_customer_distribution,
    "q15_top_supplier": q15_top_supplier,
    "q17_small_quantity_revenue": q17_small_quantity_revenue,
    "q22_idle_customers": q22_idle_customers,
    "q7_nation_volume": q7_nation_volume,
    "viewers_without_purchase": viewers_without_purchase,
    "events_moving_avg": events_moving_avg,
    "user_first_last_event": user_first_last_event,
    "nation_supplier_rank": nation_supplier_rank,
    "domain_stats": domain_stats,
    "canonical_url_dedup": canonical_url_dedup,
    "user_big_value_outer": user_big_value_outer,
    "skew_join_user_events": skew_join_user_events,
    "doc_chain_components": doc_chain_components,
    "doc_chain_components_star": doc_chain_components_star,
    "events_time_travel": events_time_travel,
    "events_zorder_box_query": events_zorder_box_query,
    "merge_into_events": merge_into_events,
    "url_blocklist_filter": url_blocklist_filter,
    "event_type_trend": event_type_trend,
    "bloom_point_lookup_events": bloom_point_lookup_events,
    "host_boilerplate_strip": host_boilerplate_strip,
    "maintenance_window_events": maintenance_window_events,
    "events_lsm_compact": events_lsm_compact,
    "data_quality_audit": data_quality_audit,
    "mojibake_docs": mojibake_docs,
    "orders_grouping_sets": orders_grouping_sets,
    "asof_next_purchase": asof_next_purchase,
    "stopword_lang_scores": stopword_lang_scores,
    "view_to_purchase_latency": view_to_purchase_latency,
    "pattern_match_counts": pattern_match_counts,
    "events_windowed_dedup": events_windowed_dedup,
    "nation_revenue_share": nation_revenue_share,
    "events_column_profile": events_column_profile,
    "event_trigram_paths": event_trigram_paths,
    "doc_accent_fold": doc_accent_fold,
    "hourly_value_p95": hourly_value_p95,
    "host_mirror_similarity": host_mirror_similarity,
    "second_event_per_user": second_event_per_user,
    "user_interarrival_stats": user_interarrival_stats,
    "catalog_consistent_join": catalog_consistent_join,
    "quarantine_roundtrip": quarantine_roundtrip,
    "semdedup_keep_docs": semdedup_keep_docs,
    "bloom_eval_overlap": bloom_eval_overlap,
    "doc_ngram_novelty": doc_ngram_novelty,
    "session_stats_per_user": session_stats_per_user,
    "q8_market_share": q8_market_share,
    "nation_presence_counts": nation_presence_counts,
    "sample_weighted_docs": sample_weighted_docs,
    "approx_distinct_users_per_type": approx_distinct_users_per_type,
    "customer_supplier_pagerank": customer_supplier_pagerank,
    "event_value_moments": event_value_moments,
    "lineitem_regression": lineitem_regression,
    "event_hourly_anomaly": event_hourly_anomaly,
    "tfidf_top_terms": tfidf_top_terms,
    "events_partitioned_roundtrip": events_partitioned_roundtrip,
    "cms_token_counts": cms_token_counts,
    "embedding_outliers": embedding_outliers,
    "events_zonemap_range_query": events_zonemap_range_query,
    "events_schema_evolution": events_schema_evolution,
    "events_window_distinct_users": events_window_distinct_users,
    "lineitem_covariance": lineitem_covariance,
    "winsorized_value_mean": winsorized_value_mean,
    "user_funnel": user_funnel,
    "retention_cohorts": retention_cohorts,
    "q2_min_cost_supplier": q2_min_cost_supplier,
    "q9_profit_by_nation_year": q9_profit_by_nation_year,
    "q11_important_parts": q11_important_parts,
    "q12_late_shipment_priority": q12_late_shipment_priority,
    "q16_supplier_cnt": q16_supplier_cnt,
    "q20_excess_suppliers": q20_excess_suppliers,
    "q21_waiting_suppliers": q21_waiting_suppliers,
    # extraction tier: hyperlink graph + page metadata (rows-only —
    # HTML parsing is not SQL-expressible)
    "page_links": page_links,
    "page_metadata": page_metadata,
    "host_link_summary": host_link_summary,
    "host_pagerank": host_pagerank,
    "doc_graph_pagerank": doc_graph_pagerank,
    "doc_graph_hits": doc_graph_hits,
    "host_hits": host_hits,
    "rebalance_lang_docs": rebalance_lang_docs,
    "bigram_pmi_top": bigram_pmi_top,
    "doc_vocab_richness": doc_vocab_richness,
    "source_token_entropy": source_token_entropy,
    "doc_containment_pairs": doc_containment_pairs,
    "user_activity_rollup": user_activity_rollup,
    "embedding_pca_project": embedding_pca_project,
    "orders_cube_volume": orders_cube_volume,
    "lineitem_unpivot_metrics": lineitem_unpivot_metrics,
    "event_value_mad_per_type": event_value_mad_per_type,
    "doc_snippet_extract": doc_snippet_extract,
    "doc_term_stats": doc_term_stats,
    "anchor_text_index": anchor_text_index,
    "event_transition_matrix": event_transition_matrix,
    "media_thumbnails": media_thumbnails,
    "media_phash_neardup": media_phash_neardup,
    "orders_dow_volume": orders_dow_volume,
    # round-13 additions
    "lineitem_skyline": lineitem_skyline,
    "user_state_scd2": user_state_scd2,
    "user_state_at_purchase": user_state_at_purchase,
    "user_event_gini": user_event_gini,
    "source_length_ks": source_length_ks,
    "source_length_psi": source_length_psi,
    "weighted_median_price": weighted_median_price,
    "users_to_half_events": users_to_half_events,
    "session_first_touch": session_first_touch,
    "epoch_shuffle_plan": epoch_shuffle_plan,
    "label_centroid_drift": label_centroid_drift,
    "part_adamic_adar": part_adamic_adar,
    "part_clustering_coeff": part_clustering_coeff,
    "event_value_calibration": event_value_calibration,
    "event_hourly_forecast_backtest": event_hourly_forecast_backtest,
    "bm25_ndcg_eval": bm25_ndcg_eval,
    "part_copurchase_bfs": part_copurchase_bfs,
    "events_rolling_median": events_rolling_median,
    "event_value_autocorr": event_value_autocorr,
    "sorted_neighborhood_pairs": sorted_neighborhood_pairs,
    "event_value_boxplot": event_value_boxplot,
    "event_user_chisq": event_user_chisq,
    "lineitem_price_outliers": lineitem_price_outliers,
    "events_key_skew_profile": events_key_skew_profile,
    "events_deletion_vectors": events_deletion_vectors,
    # round-14 additions
    "kmv_user_overlap": kmv_user_overlap,
    "part_copurchase_sssp": part_copurchase_sssp,
    "part_recommendations": part_recommendations,
    "nb_lang_classify": nb_lang_classify,
    # round-15 additions
    "event_value_auc": event_value_auc,
    "event_value_cusum": event_value_cusum,
    "ab_test_value_welch": ab_test_value_welch,
    "doc_fingerprint_clusters": doc_fingerprint_clusters,
    "langid_agreement_kappa": langid_agreement_kappa,
}

ORACLE_SQL = {
    "q1_pricing_summary": Q1_SQL,
    "top_orders": TOP_ORDERS_SQL,
    "filter_project_revenue": FILTER_PROJECT_SQL,
    "dedup_events_latest": DEDUP_EVENTS_SQL,
    "join_customer_orders": JOIN_CUSTOMER_ORDERS_SQL,
    "distinct_event_types": DISTINCT_SQL,
    "nations_without_suppliers": ANTI_JOIN_SQL,
    "event_value_stats": EVENT_STATS_SQL,
    "shuffled_lang_distribution": LANG_DIST_SQL,
    "median_value_per_type": MEDIAN_SQL,
    "purchase_value_per_user": PURCHASE_VALUE_SQL,
    "purchase_value_per_user_salted": PURCHASE_VALUE_SQL,
    "doc_head_upper": HEAD_UPPER_SQL,
    "top_events_per_user": TOP_EVENTS_SQL,
    "distinct_user_event_pairs": DISTINCT_PAIRS_SQL,
    "embedding_norms": EMB_NORMS_SQL,
    "union_nation_region_names": UNION_SQL,
    "events_running_sum": RUNNING_SUM_SQL,
    "events_value_ewma": EWMA_SQL,
    "event_value_histogram": HISTOGRAM_SQL,
    "copurchase_triangles": TRIANGLES_SQL,
    "point_lookup_event": POINT_LOOKUP_SQL,
    "sessionize_events": SESSIONIZE_SQL,
    "sessionize_events_stateful": SESSIONIZE_SQL,
    "events_watermark_late": WATERMARK_LATE_SQL,
    "source_epoch_plan": SOURCE_EPOCH_SQL,
    "join_orders_lineitem": JOIN_ORDERS_LINEITEM_SQL,
    "asof_prev_view": ASOF_SQL,
    "q3_shipping_priority": Q3_SQL,
    "q6_forecast_revenue": Q6_SQL,
    "orders_with_discounted_items": EXISTS_SEMI_SQL,
    "supplier_count_per_nation": LEFT_JOIN_SQL,
    "events_lag_delta": LAG_DELTA_SQL,
    "user_event_sequence": STRING_AGG_SQL,
    "orders_monthly_volume": MONTHLY_VOLUME_SQL,
    "event_props_k_stats": PROPS_K_SQL,
    "doc_duplicate_spans": DUP_SPANS_SQL,
    "pii_redact_docs": _pii_redact_sql(),
    "gopher_quality_docs": _gopher_sql(),
    "pack_doc_sequences": PACK_SEQ_SQL,
    "contaminated_docs": CONTAMINATION_SQL,
    "dsir_doc_weights": DSIR_SQL,
    "doc_top_bigram": TOP_BIGRAM_SQL,
    "events_ntile_quartiles": NTILE_QUARTILES_SQL,
    "user_event_pivot": USER_PIVOT_SQL,
    "event_value_percentiles": PERCENTILES_SQL,
    "event_value_zscore": ZSCORE_SQL,
    "bloom_prune_orders": BLOOM_PRUNE_SQL,
    "bucketed_storage_join_orders": BUCKETED_STORE_JOIN_SQL,
    "corpus_snapshot_diff": SNAPSHOT_DIFF_SQL,
    "events_ivm_counts": IVM_SQL,
    "join_native_customer_orders": NATIVE_JOIN_SQL,
    "doc_overlap_chunks": OVERLAP_CHUNKS_SQL,
    "doc_split_assign": SPLIT_ASSIGN_SQL,
    "doc_lm_perplexity": LM_PERPLEXITY_SQL,
    "bm25_search_docs": BM25_SEARCH_SQL,
    "doc_token_stats": DOC_TOKEN_STATS_SQL,
    "doc_quality_filter": DOC_QUALITY_SQL,
    "dedup_exact_docs": DEDUP_EXACT_SQL,
    "doc_bpe_token_count": BPE_COUNT_SQL,
    "events_tumbling_agg": TUMBLING_SQL,
    "events_hourly_dense": HOURLY_DENSE_SQL,
    "events_sliding_agg": SLIDING_SQL,
    "frequent_lines": FREQUENT_LINES_SQL,
    "top_docs_by_len": TOP_DOCS_SQL,
    "lang_distribution": LANG_DIST_SQL,
    "sample_hash_documents": SAMPLE_HASH_SQL,
    "knn_cosine": KNN_SQL,
    "neardup_embedding": NEARDUP_EMB_SQL,
    "docs_line_deduped": LINE_DEDUP_SQL,
    "ann_recall_floor": ANN_RECALL_SQL,
    "ann_pq_recall": ANN_PQ_SQL,
    "ann_lsh_exhaustive": KNN_SQL,
    "ann_ivf_exhaustive": KNN_SQL,
    "events_partition_pruned_counts": PARTITION_PRUNED_SQL,
    "approx_distinct_users": APPROX_DISTINCT_SQL,
    "doc_lines_exploded": DOC_LINES_SQL,
    "doc_pii_counts": _pii_sql(),
    "neardup_jaccard_docs": NEARDUP_JACCARD_SQL,
    "neardup_jaccard_keep_docs": NEARDUP_JACCARD_KEEP_SQL,
    "decontaminate_docs": DECONTAMINATE_SQL,
    "doc_selfrepeat_ratio": SELFREPEAT_SQL,
    "langid_docs": _langid_sql(),
    "purchase_views_band_join": BAND_JOIN_SQL,
    "quantiles_price": QUANTILES_SQL,
    "event_value_quantiles": GROUP_QUANTILES_SQL,
    "approx_quantiles_value": APPROX_QUANTILES_SQL,
    "heavy_hitter_tokens": HEAVY_HITTERS_SQL,
    "bm25_doc_scores": BM25_SQL,
    "orders_rollup_volume": ROLLUP_SQL,
    "inverted_index_lookup": INV_INDEX_SQL,
    "doc_length_quartile": DOC_QUARTILE_SQL,
    "join_part_supplier_auto": JOIN_AUTO_SQL,
    "lineitem_price_corr": CORR_SQL,
    "orders_percent_rank": PERCENT_RANK_SQL,
    "mode_event_per_user": MODE_SQL,
    "q5_local_supplier_volume": Q5_SQL,
    "q18_large_orders": Q18_SQL,
    "q10_returned_revenue": Q10_SQL,
    "q14_promo_revenue": Q14_SQL,
    "q4_order_priority": Q4_SQL,
    "q19_disjunctive_revenue": Q19_SQL,
    "docs_span_deduped": SPAN_DEDUP_SQL,
    "seq_pack_offsets": SEQ_PACK_SQL,
    "nations_customers_and_suppliers": INTERSECT_SQL,
    "events_user_ntile": NTILE_SQL,
    "events_pivot_counts": PIVOT_SQL,
    "neardup_editdist_docs": EDITDIST_SQL,
    "neardup_jarowinkler_docs": JAROWINKLER_SQL,
    "cdc_chunk_dedup": CDC_CHUNK_SQL,
    "token_zipf_slope": ZIPF_SQL,
    "doc_normalize_text": NORMALIZE_SQL,
    "doc_gopher_repetition": GOPHER_SQL,
    "bigram_pmi_top": BIGRAM_PMI_SQL,
    "doc_vocab_richness": VOCAB_RICHNESS_SQL,
    "source_token_entropy": SOURCE_ENTROPY_SQL,
    "doc_containment_pairs": CONTAINMENT_SQL,
    "user_activity_rollup": USER_ACTIVITY_SQL,
    "rebalance_lang_docs": REBALANCE_LANG_SQL,
    "sample_stratified_docs": STRATIFIED_SQL,
    "customers_above_nation_avg": ABOVE_AVG_SQL,
    "argmax_event_user": ARGMAX_SQL,
    "sample_k_per_lang": SAMPLE_K_SQL,
    "tfidf_similar_docs": TFIDF_SQL,
    "label_centroids": CENTROID_SQL,
    "curation_pipeline": CURATION_SQL,
    "training_corpus_pipeline": _training_corpus_sql(),
    "bpe_learn_merges": _bpe_sql(),
    "bpe_encode_docs": _bpe_sql(output="encode"),
    "sample_random_documents": SAMPLE_RANDOM_SQL,
    "doc_graph_pagerank": _doc_pagerank_sql(),
    "doc_graph_hits": _hits_sql(),
    "q13_customer_distribution": Q13_SQL,
    "q15_top_supplier": Q15_SQL,
    "q17_small_quantity_revenue": Q17_SQL,
    "q22_idle_customers": Q22_SQL,
    "q7_nation_volume": Q7_SQL,
    "viewers_without_purchase": EXCEPT_SQL,
    "events_moving_avg": MOVING_AVG_SQL,
    "user_first_last_event": FIRST_LAST_SQL,
    "nation_supplier_rank": NATION_RANK_SQL,
    "domain_stats": DOMAIN_STATS_SQL,
    "canonical_url_dedup": CANONICAL_URL_SQL,
    "user_big_value_outer": USER_BIG_VALUE_OUTER_SQL,
    "skew_join_user_events": SKEW_JOIN_SQL,
    "doc_chain_components": DOC_CHAIN_COMPONENTS_SQL,
    "doc_chain_components_star": DOC_CHAIN_COMPONENTS_SQL,
    "events_time_travel": EVENTS_TIME_TRAVEL_SQL,
    "events_zorder_box_query": EVENTS_ZORDER_BOX_SQL,
    "merge_into_events": MERGE_INTO_SQL,
    "url_blocklist_filter": URL_BLOCKLIST_SQL,
    "event_type_trend": EVENT_TYPE_TREND_SQL,
    "bloom_point_lookup_events": BLOOM_POINT_LOOKUP_SQL,
    "host_boilerplate_strip": HOST_BOILERPLATE_SQL,
    "maintenance_window_events": MAINTENANCE_WINDOW_SQL,
    "events_lsm_compact": EVENTS_LSM_SQL,
    "data_quality_audit": DATA_QUALITY_AUDIT_SQL,
    "mojibake_docs": MOJIBAKE_SQL,
    "orders_grouping_sets": GROUPING_SETS_SQL,
    "asof_next_purchase": ASOF_NEXT_SQL,
    "stopword_lang_scores": STOPWORD_LANG_SQL,
    "view_to_purchase_latency": VIEW_TO_PURCHASE_SQL,
    "pattern_match_counts": PATTERN_MATCH_SQL,
    "events_windowed_dedup": EVENTS_WINDOWED_DEDUP_SQL,
    "nation_revenue_share": NATION_REVENUE_SHARE_SQL,
    "events_column_profile": EVENTS_COLUMN_PROFILE_SQL,
    "event_trigram_paths": EVENT_TRIGRAM_SQL,
    "doc_accent_fold": DOC_ACCENT_FOLD_SQL,
    "hourly_value_p95": HOURLY_P95_SQL,
    "host_mirror_similarity": HOST_MIRROR_SQL,
    "second_event_per_user": SECOND_EVENT_SQL,
    "user_interarrival_stats": USER_INTERARRIVAL_SQL,
    "catalog_consistent_join": CATALOG_JOIN_SQL,
    "doc_ngram_novelty": NGRAM_NOVELTY_SQL,
    "session_stats_per_user": SESSION_STATS_SQL,
    "q8_market_share": Q8_SQL,
    "nation_presence_counts": FULL_OUTER_SQL,
    "sample_weighted_docs": WEIGHTED_SAMPLE_SQL,
    "approx_distinct_users_per_type": GROUPED_HLL_SQL,
    "customer_supplier_pagerank": _pagerank_sql(),
    "event_value_moments": MOMENTS_SQL,
    "lineitem_regression": REGRESSION_SQL,
    "event_hourly_anomaly": HOURLY_ANOMALY_SQL,
    "tfidf_top_terms": TFIDF_TOP_TERMS_SQL,
    "events_partitioned_roundtrip": PARTITIONED_ROUNDTRIP_SQL,
    "cms_token_counts": CMS_SQL,
    "embedding_outliers": EMB_OUTLIERS_SQL,
    "events_zonemap_range_query": ZONEMAP_SQL,
    "events_schema_evolution": SCHEMA_EVOLUTION_SQL,
    "events_window_distinct_users": WINDOW_DISTINCT_SQL,
    "lineitem_covariance": COVARIANCE_SQL,
    "winsorized_value_mean": WINSORIZED_SQL,
    "user_funnel": FUNNEL_SQL,
    "retention_cohorts": RETENTION_SQL,
    "q2_min_cost_supplier": Q2_SQL,
    "q9_profit_by_nation_year": Q9_SQL,
    "q11_important_parts": Q11_SQL,
    "q12_late_shipment_priority": Q12_SQL,
    "q16_supplier_cnt": Q16_SQL,
    "q20_excess_suppliers": Q20_SQL,
    "q21_waiting_suppliers": Q21_SQL,
    "orders_cube_volume": CUBE_SQL,
    "lineitem_unpivot_metrics": UNPIVOT_SQL,
    "event_value_mad_per_type": MAD_SQL,
    "doc_snippet_extract": SNIPPET_SQL,
    "doc_term_stats": TERM_STATS_SQL,
    "event_transition_matrix": TRANSITION_SQL,
    "neardup_minhash_docs": NEARDUP_MINHASH_SQL,
    "neardup_keep_docs": NEARDUP_MINHASH_KEEP_SQL,
    "neardup_keep_best_docs": NEARDUP_KEEP_BEST_SQL,
    "neardup_simhash_docs": NEARDUP_SIMHASH_SQL,
    "doc_winnow_selection": WINNOW_SELECTION_SQL,
    "fingerprint_docs": FINGERPRINT_SQL,
    "embedding_pca_project": _pca_power_sql(iters=PCA_POWER_ITERS),
    "bloom_eval_overlap": BLOOM_EVAL_SQL,
    "ann_lsh_cosine": ANN_LSH_SQL,
    "ivf_cosine": _ivf_kmeans_sql(),
    "semdedup_keep_docs": _semdedup_sql(),
    "rag_index_docs": _rag_index_sql(),
    "quality_classifier_docs": _lr_train_sql(),
    "orders_dow_volume": DOW_SQL,
    # round-13 additions
    "lineitem_skyline": SKYLINE_SQL,
    "user_state_scd2": SCD2_SQL,
    "user_state_at_purchase": PIT_STATE_SQL,
    "user_event_gini": GINI_SQL,
    "source_length_ks": KS_SQL,
    "source_length_psi": PSI_SQL,
    "weighted_median_price": WEIGHTED_MEDIAN_SQL,
    "users_to_half_events": PARETO_COVERAGE_SQL,
    "session_first_touch": FIRST_TOUCH_SQL,
    "epoch_shuffle_plan": EPOCH_SHUFFLE_SQL,
    "label_centroid_drift": CENTROID_DRIFT_SQL,
    "part_adamic_adar": ADAMIC_ADAR_SQL,
    "part_clustering_coeff": CLUSTERING_SQL,
    "event_value_calibration": CALIBRATION_SQL,
    "event_hourly_forecast_backtest": FORECAST_BACKTEST_SQL,
    "bm25_ndcg_eval": NDCG_SQL,
    "part_copurchase_bfs": BFS_SQL,
    "events_rolling_median": ROLLING_MEDIAN_SQL,
    "event_value_autocorr": AUTOCORR_SQL,
    "sorted_neighborhood_pairs": SORTED_NEIGHBORHOOD_SQL,
    "event_value_boxplot": BOXPLOT_SQL,
    "event_user_chisq": CHISQ_SQL,
    "lineitem_price_outliers": PRICE_OUTLIERS_SQL,
    "events_key_skew_profile": KEY_SKEW_SQL,
    "events_deletion_vectors": DELETION_VECTORS_SQL,
    # round-14 additions
    "kmv_user_overlap": KMV_OVERLAP_SQL,
    "part_copurchase_sssp": SSSP_SQL,
    "part_recommendations": PART_RECS_SQL,
    "nb_lang_classify": NB_LANG_SQL,
    # round-15 additions
    "event_value_auc": AUC_SQL,
    "event_value_cusum": CUSUM_SQL,
    "ab_test_value_welch": WELCH_SQL,
    "doc_fingerprint_clusters": FINGERPRINT_CLUSTERS_SQL,
    "langid_agreement_kappa": KAPPA_SQL,
    # round-18 additions
    "hybrid_search_rrf": HYBRID_RRF_SQL,
    "mmr_diverse_topk": MMR_SQL,
    "source_split_assign": SOURCE_SPLIT_SQL,
    "bm25_prf_search": _bm25_prf_sql(),
    "source_token_kl": SOURCE_KL_SQL,
    "hll_estimate_users_per_type": HLL_SQL,
    "source_overlap_matrix": SOURCE_OVERLAP_SQL,
    "event_markov_stationary": _markov_sql(),
    "doc_script_mix": SCRIPT_MIX_SQL,
    # round-19 additions
    "poisson_bootstrap_value_ci": _bootstrap_sql(),
    "embedding_rp_project": _rp_sql(),
    "event_transition_entropy": TRANSITION_ENTROPY_SQL,
    "source_mix_weights": SOURCE_MIX_SQL,
    "doc_oov_rate": OOV_SQL,
    "doc_flesch_score": FLESCH_SQL,
    "doc_char_entropy": CHAR_ENTROPY_SQL,
    "value_benford_chisq": BENFORD_SQL,
    "dup_cluster_size_hist": DUP_HIST_SQL,
    "events_selfjoin_size_f2": F2_SQL,
    "split_length_psi": SPLIT_PSI_SQL,
    "event_type_lift": LIFT_SQL,
    "price_selectivity_eval": _selectivity_sql(),
    "source_quality_report": QUALITY_REPORT_SQL,
    "k_anonymity_audit": KANON_SQL,
    "dp_noisy_type_counts": DP_SQL,
    "contrastive_negative_plan": NEG_PLAN_SQL,
    "user_rfm_segments": RFM_SQL,
    "user_churn_labels": CHURN_SQL,
    "lang_token_fertility": _fertility_sql(),
    "part_kcore": _kcore_sql(),
    "retrieval_rbo": RBO_SQL,
    "copurchase_assortativity": ASSORTATIVITY_SQL,
    "source_dup_crosstab": DUP_CROSSTAB_SQL,
    "orders_seasonality_index": SEASONALITY_SQL,
    "session_bounce_rate": BOUNCE_SQL,
    "user_event_lorenz": LORENZ_SQL,
    "view_purchase_kaplan_meier": KM_SQL,
    "cuped_variance_reduction": CUPED_SQL,
    "did_value_estimate": DID_SQL,
    "lineitem_theil_sen": THEIL_SEN_SQL,
    "source_hhi": HHI_SQL,
}
