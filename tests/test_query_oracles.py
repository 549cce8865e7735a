"""Small-table oracle checks for queries whose results must not depend
on how the tables are split: session spans, the TPC-H Q1 and Q9
fixed-point sums and their cent rounding, the byte-sized read block
count of whole files and projections, the pinned benchmark queries at
1 and 8 blocks, the Adamic–Adar and boilerplate per-batch partials at
1, 8 and 64 blocks, the Theil–Sen sample cut under a planted uniform
tie, the Kaplan–Meier horizon and RFM monetary bins at a planted
quartile-edge tie."""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

# the real byte rule, bound before the autouse fixture in conftest.py
# patches ``queries._blocks_for`` to 8 blocks for every test
from pdf_to_text_ray.pipelines.queries import _blocks_for as byte_blocks

SF = "/root/testdata/sf0.001"


def _oracle(sql: str, tables: dict[str, str]) -> pd.DataFrame:
    import duckdb

    con = duckdb.connect()
    for name, path in tables.items():
        con.execute(f"CREATE VIEW {name} AS SELECT * FROM '{path}'")
    return con.execute(sql).df()


def _assert_same(got: pd.DataFrame, want: pd.DataFrame, keys: list[str]):
    assert sorted(got.columns) == sorted(want.columns)
    got = got[sorted(want.columns)].sort_values(keys).reset_index(drop=True)
    want = want[sorted(want.columns)].sort_values(keys) \
        .reset_index(drop=True)
    assert len(got) == len(want)
    for c in want.columns:
        assert got[c].tolist() == want[c].tolist(), c


def _events_table(path: str) -> None:
    """Six users with multi-event sessions: sub-gap runs, 30-min steps
    that the jitter pushes just past the gap, equal minutes broken by
    event_id, single-event sessions (span 0) and microsecond spans."""
    t0 = pd.Timestamp("2024-03-01 08:00:00")
    us = pd.Timedelta(microseconds=1)
    minute = pd.Timedelta(minutes=1)
    rows = []
    plans = {
        1: [0, 5, 12, 12, 40 * 60, 40 * 60 + 29],       # 2 sessions
        2: [0],                                           # 1 event
        3: [0, 30, 60, 90, 200, 201, 202, 500],           # 30-min steps
        4: [0, 31, 62, 93],                               # all breaks
        5: [0, 1, 2, 3, 4, 5, 6, 7, 8, 9],                # one long run
        6: [7, 7, 7, 300, 300],                           # ts ties
    }
    eid = 0
    for uid, mins in plans.items():
        for k, m in enumerate(mins):
            eid += 1
            # ~10 ms jitter with a microsecond residue
            rows.append((eid, uid, t0 + m * minute
                         + (uid * 7 + k * 13) * 10_007 * us))
    df = pd.DataFrame(rows, columns=["event_id", "user_id", "ts"])
    pq.write_table(pa.Table.from_pandas(
        df.sample(frac=1.0, random_state=3), preserve_index=False)
        .cast(pa.schema([("event_id", pa.int64()), ("user_id", pa.int64()),
                         ("ts", pa.timestamp("us"))])), path)


def test_session_stats_matches_oracle(ray_session, tmp_path):
    from pdf_to_text_ray.pipelines.queries import (SESSION_STATS_SQL,
                                                   session_stats_per_user)

    d = str(tmp_path)
    path = os.path.join(d, "events.parquet")
    _events_table(path)
    got = session_stats_per_user(d)
    want = _oracle(SESSION_STATS_SQL, {"events": path})
    assert (want["max_session_events"] > 1).sum() >= 4
    assert (want["avg_span_sec"] > 0).sum() >= 4
    _assert_same(got, want, ["user_id"])


@pytest.mark.parametrize("blocks", [1, 8])
def test_q1_matches_oracle_at_any_block_count(ray_session, monkeypatch,
                                              blocks):
    from pdf_to_text_ray.pipelines import queries

    monkeypatch.setattr(queries, "_blocks_for",
                        lambda path, columns=None: blocks)
    got = queries.q1_pricing_summary(SF)
    want = _oracle(queries.Q1_SQL,
                   {"lineitem": f"{SF}/lineitem.parquet"})
    assert len(want) >= 4
    _assert_same(got, want, ["l_returnflag", "l_linestatus"])


# Two Theil–Sen sample keys whose md5 uniforms are equal (a 32-bit
# collision of md5('ts:o:l')[:8], found by scanning o ≤ 100,000).
_TIE_SMALL = (6744, 6)
_TIE_LARGE = (16596, 2)


def _ts_u(o: int, ln: int) -> int:
    return int(hashlib.md5(f"ts:{o}:{ln}".encode()).hexdigest()[:8], 16)


def _ts_median(rows: list[tuple]) -> float:
    x = np.array([r[2] for r in rows], np.float64)
    y = np.array([r[3] for r in rows], np.float64)
    i, j = np.triu_indices(len(x), k=1)
    dx = x[j] - x[i]
    keep = dx != 0
    slopes = np.sort((y[j] - y[i])[keep] / dx[keep])
    return float(slopes[(len(slopes) - 1) // 2])


def test_theil_sen_tie_at_the_cut(ray_session, monkeypatch, tmp_path):
    """The tied pair sits at sample ranks 200/201: the kept row must be
    the one with the smaller (l_orderkey, l_linenumber), whatever the
    file order or block count."""
    from pdf_to_text_ray.pipelines import queries

    n = queries.TS_SAMPLE
    tie = _ts_u(*_TIE_SMALL)
    assert _ts_u(*_TIE_LARGE) == tie
    below, above = [], []
    for o in range(1, 400):
        for ln in range(1, 8):
            (below if _ts_u(o, ln) < tie else above).append((o, ln))
    assert len(below) >= n - 1 and len(above) >= 60
    rng = np.random.default_rng(5)
    keys = [_TIE_LARGE, _TIE_SMALL] + below[:n - 1] + above[:60]
    rows = [(o, ln, float(rng.integers(1, 51)),
             round(float(rng.uniform(900, 90000)), 2)) for o, ln in keys]
    # the larger key comes first in the file, so first-seen order
    # would keep it
    want = _ts_median([rows[1]] + rows[2:n + 1])
    assert want != _ts_median([rows[0]] + rows[2:n + 1])

    d = str(tmp_path)
    path = os.path.join(d, "lineitem.parquet")
    pq.write_table(pa.table({
        "l_orderkey": pa.array([r[0] for r in rows], pa.int64()),
        "l_linenumber": pa.array([r[1] for r in rows], pa.int32()),
        "l_quantity": pa.array([r[2] for r in rows], pa.float64()),
        "l_extendedprice": pa.array([r[3] for r in rows], pa.float64()),
    }), path)
    oracle = _oracle(queries.THEIL_SEN_SQL, {"lineitem": path}).iloc[0]
    assert oracle["theil_sen_slope"] == queries.round6(want)
    for blocks in (1, 8):
        monkeypatch.setattr(queries, "_blocks_for",
                            lambda p, columns=None, b=blocks: b)
        got = queries.lineitem_theil_sen(d).iloc[0]
        assert got["n_sample"] == n
        assert got["theil_sen_slope"] == queries.round6(want), blocks


@pytest.mark.parametrize("blocks", [1, 8])
def test_q9_matches_oracle_at_any_block_count(ray_session, monkeypatch,
                                              blocks):
    """At sf0.001 the NATION_8/1995 profit sum lies within float noise
    of a half-cent edge: its rounding must not follow the block count."""
    from pdf_to_text_ray.pipelines import queries

    monkeypatch.setattr(queries, "_blocks_for",
                        lambda path, columns=None: blocks)
    got = queries.q9_profit_by_nation_year(SF)
    want = _oracle(queries.Q9_SQL, {t: f"{SF}/{t}.parquet" for t in (
        "lineitem", "orders", "supplier", "nation", "part")})
    assert len(want) >= 50
    _assert_same(got, want, ["nation", "o_year"])


@pytest.mark.parametrize("blocks", [1, 8])
def test_pinned_queries_match_oracles_at_any_block_count(
        ray_session, monkeypatch, blocks):
    """The benchmark's pinned queries, with every table in one block and
    in eight: sf0.001 tables read as one block by default, so this keeps
    the multi-block partial merges under test."""
    from perfbench.inputs import PINNED_QUERIES
    from pdf_to_text_ray.pipelines import queries
    from tools.check_oracles import TABLES, to_pandas, value_hash

    monkeypatch.setattr(queries, "_blocks_for",
                        lambda path, columns=None: blocks)
    tables = {t: f"{SF}/{t}.parquet" for t in TABLES}
    for name in PINNED_QUERIES:
        got = to_pandas(queries.QUERIES[name](SF))
        want = _oracle(queries.ORACLE_SQL[name], tables)
        assert len(got) == len(want), name
        assert sorted(got.columns) == sorted(want.columns), name
        assert value_hash(got) == value_hash(want), name


def test_kaplan_meier_horizon_from_all_events(ray_session, tmp_path):
    """The latest event belongs to a user who never views, alone in a
    user bucket with no viewers: the censoring horizon must still be
    that event's ts, which keeps censored viewer B at risk at the
    purchase time of A."""
    from pdf_to_text_ray.pipelines.queries import (
        KM_SQL, view_purchase_kaplan_meier)
    from pdf_to_text_ray.stages.groups import stable_bucket

    a, b = 1, 2
    taken = set(stable_bucket(np.array([a, b]), 32))
    x = next(u for u in range(3, 1000)
             if stable_bucket(np.array([u]), 32)[0] not in taken)
    t0 = pd.Timestamp("2024-03-01 08:00:00")
    hour = pd.Timedelta(hours=1)
    rows = [(a, "view", t0), (a, "purchase", t0 + 10 * hour),
            (b, "view", t0 + 5 * hour), (b, "click", t0 + 6 * hour),
            (x, "click", t0 + 100 * hour), (x, "purchase", t0 + 2 * hour)]
    path = os.path.join(str(tmp_path), "events.parquet")
    pq.write_table(pa.table({
        "event_id": pa.array(range(1, len(rows) + 1), pa.int64()),
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "event_type": [r[1] for r in rows],
        "ts": pa.array([r[2] for r in rows], pa.timestamp("us")),
    }), path)
    want = _oracle(KM_SQL, {"events": path})
    assert want["n_risk"].tolist() == [2]
    assert want["survival"].tolist() == [0.5]
    got = view_purchase_kaplan_meier(str(tmp_path))
    _assert_same(got, want, ["t_us"])


def test_rfm_monetary_tie_at_a_quartile_edge(ray_session, monkeypatch,
                                             tmp_path):
    """Four purchasers spend exactly 0.60, but their float sums differ
    in the last bit (0.1+0.2+0.3 and 0.2+0.4 exceed 0.6), and the
    median edge falls on that value: all four must share one m_bin in
    the query and in the oracle, at any block count."""
    from pdf_to_text_ray.pipelines import queries

    spend = {1: [0.6], 2: [0.1, 0.2, 0.3], 3: [0.3, 0.3], 4: [0.2, 0.4],
             5: [5.0], 6: [7.0], 7: [0.05], 8: [0.01]}
    tied = [1, 2, 3, 4]
    assert sum(spend[2]) > 0.6 and sum(spend[4]) > 0.6
    t0 = pd.Timestamp("2024-03-01 08:00:00")
    rows = []
    for uid, values in spend.items():
        for k, v in enumerate(values):
            rows.append((uid, "purchase",
                         t0 + pd.Timedelta(days=uid, hours=k), v))
    rows.append((9, "view", t0, 1.0))
    path = os.path.join(str(tmp_path), "events.parquet")
    pq.write_table(pa.table({
        "event_id": pa.array(range(1, len(rows) + 1), pa.int64()),
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "event_type": [r[1] for r in rows],
        "ts": pa.array([r[2] for r in rows], pa.timestamp("us")),
        "value": pa.array([r[3] for r in rows], pa.float64()),
    }), path)
    want = _oracle(queries.RFM_SQL, {"events": path})
    bins = dict(zip(want["user_id"], want["m_bin"]))
    assert len({bins[u] for u in tied}) == 1
    assert len(set(bins.values())) >= 3
    for blocks in (1, 8):
        monkeypatch.setattr(queries, "_blocks_for",
                            lambda p, columns=None, b=blocks: b)
        got = queries.user_rfm_segments(str(tmp_path)).to_pandas()
        _assert_same(got, want, ["user_id"])


def test_blocks_follow_uncompressed_bytes(monkeypatch):
    """One block per 256 KiB of uncompressed row groups, 1 to 16."""
    from pdf_to_text_ray.pipelines import queries

    lineitem_01 = os.path.join(os.path.dirname(SF), "sf0.01",
                               "lineitem.parquet")
    monkeypatch.setattr(queries, "_BLOCKS_CACHE", {})
    assert byte_blocks(f"{SF}/nation.parquet") == 1
    assert byte_blocks(f"{SF}/lineitem.parquet") == 1
    assert byte_blocks(lineitem_01) == 5
    monkeypatch.setattr(queries, "_BLOCKS_CACHE", {})
    monkeypatch.setattr(queries, "_BLOCK_BYTES", 1024)
    assert byte_blocks(lineitem_01) == 16


@pytest.mark.parametrize("sf", ["sf0.001", "sf0.01", "sf0.1"])
def test_unprojected_blocks_follow_whole_file_bytes(monkeypatch, sf):
    """With no projection the column-chunk sum is the row groups'
    total_byte_size, so every table keeps its whole-file count."""
    from pdf_to_text_ray.pipelines import queries

    monkeypatch.setattr(queries, "_BLOCKS_CACHE", {})
    d = os.path.join(os.path.dirname(SF), sf)
    for f in sorted(os.listdir(d)):
        md = pq.ParquetFile(os.path.join(d, f)).metadata
        size = sum(md.row_group(i).total_byte_size
                   for i in range(md.num_row_groups))
        want = min(16, max(1, -(-size // (256 * 1024))))
        assert byte_blocks(os.path.join(d, f)) == want, f


def test_blocks_follow_projected_bytes(monkeypatch):
    """A read is sized by the columns it decodes, and each projection
    of a path is cached on its own."""
    from pdf_to_text_ray.pipelines import queries

    path = os.path.join(os.path.dirname(SF), "sf0.01", "lineitem.parquet")
    cache = {}
    monkeypatch.setattr(queries, "_BLOCKS_CACHE", cache)
    assert byte_blocks(path, ["l_orderkey", "l_partkey"]) == 2
    assert byte_blocks(path) == 5
    assert len(cache) == 2


@pytest.mark.parametrize("name", ["part_adamic_adar",
                                  "host_boilerplate_strip"])
def test_per_batch_partials_do_not_follow_block_count(ray_session,
                                                      monkeypatch, name):
    """Both queries merge per-batch partials on the driver: their
    results must be bit-identical whatever the read's block count."""
    from pdf_to_text_ray.pipelines import queries

    results = []
    for blocks in (1, 8, 64):
        monkeypatch.setattr(queries, "_blocks_for",
                            lambda p, columns=None, b=blocks: b)
        results.append(queries.QUERIES[name](SF))
    for got in results[1:]:
        pd.testing.assert_frame_equal(got, results[0], check_exact=True)


def test_cents_matches_duckdb_rounding():
    """Half away from zero, as DuckDB's round: 0.125·100 is exactly
    12.5, where numpy's rint would give 12."""
    import duckdb

    from pdf_to_text_ray.pipelines.queries import cents

    xs = [0.125, -0.125, 0.375, 2.675, 1.005, 19.99, -3.33, 0.0, 0.001,
          901.49, 1e-9]
    want = [duckdb.sql(f"SELECT CAST(round({x!r}::DOUBLE * 100) AS BIGINT)")
            .fetchone()[0] for x in xs]
    assert cents(np.array(xs)).tolist() == want
    assert want[:3] == [13, -13, 38]
