"""Seeded benchmark inputs, generated once and cached on disk.

Every input is a pure function of (workload, seed, corpus
``GENERATOR_VERSION``, ``INPUT_VERSION``) and is cached under
``.perfbench/inputs/<key>/`` in the checkout, so a second run on the same
seed reads it back instead of regenerating it. Crawl files are written
by child processes (``python3 -m perfbench.inputs``), each taking every
n-th file; all of them have exited when ``ensure_inputs`` returns.
Callers time generation apart from set-up.

Layouts:

- ``crawl_mix``: ``pages/part-NNNNN.parquet`` (the
  ``run_extract`` input, ``ROWS_PER_FILE`` rows each) and
  ``golden.parquet`` (url → expected ``text_extracted``, ``doc_type``,
  ``n_pages``).
- ``query_suite``: ``tables/<name>.parquet`` for the four tables the
  pinned queries read, ``warm/<name>.parquet`` (the same generator at a
  tenth of the size) and ``oracle.json`` (each query's DuckDB oracle
  reduced to row count, columns and value hash).

Each crawl_mix file holds exact per-kind quotas instead of a free draw, so the work a run does varies little from seed to seed
while every row's content still comes from the seed.
"""

from __future__ import annotations

import glob
import json
import os
import random
import shutil
import subprocess
import sys

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from pdf_to_text_ray.fixtures.corpus import (
    GENERATOR_VERSION, _rows_to_tables, make_dup_row, make_page_row)
from pdf_to_text_ray.schemas import DOC_TYPE_HTML, DOC_TYPE_PDF, DOC_TYPE_TEXT
from tools.check_oracles import value_hash

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

INPUT_VERSION = 2  # bump when any generator below changes its output

ROWS_PER_FILE = 128

# crawl_mix: per 128-row file, the corpus generator's kind shares
# (20% PDF, 70% HTML, 10% text) as exact counts, plus ~5% stale
# duplicates of accepted urls (older warc_ts, must lose dedup)
CRAWL_FILES = 16
CRAWL_QUOTA = {DOC_TYPE_PDF: 24, DOC_TYPE_HTML: 86, DOC_TYPE_TEXT: 12}
CRAWL_DUPS = 6

# query_suite: row counts of the tables the pinned queries read, the
# shape of the repository's sf0.01 test tables
QUERY_TABLE_ROWS = {"lineitem": 60_000, "part": 2_000, "events": 10_000,
                    "documents": 500}
WARM_TABLE_DIVISOR = 10

PINNED_QUERIES = (
    "q1_pricing_summary", "join_part_supplier_auto", "session_stats_per_user",
    "dedup_exact_docs", "neardup_minhash_docs", "host_boilerplate_strip",
    "poisson_bootstrap_value_ci", "epoch_shuffle_plan", "bm25_search_docs",
    "part_adamic_adar",
)


def input_dir(root: str, workload: str, seed: int) -> str:
    key = f"{workload}-s{seed}-g{GENERATOR_VERSION}-i{INPUT_VERSION}"
    return os.path.join(root, ".perfbench", "inputs", key)


# ── extract inputs ───────────────────────────────────────────────────

def crawl_file(seed: int, file_idx: int) -> tuple[pa.Table, pa.Table]:
    """One crawl_mix file: (pages, golden). Rows come from
    ``make_page_row(heavy=True)`` over this file's own index range; a row
    whose kind has filled its quota is skipped."""
    need = dict(CRAWL_QUOTA)
    rows, goldens = [], []
    i = file_idx * 1_000_000
    while any(need.values()):
        page, golden = make_page_row(i, seed, heavy=True)
        if need[golden["doc_type"]]:
            need[golden["doc_type"]] -= 1
            rows.append((i, page))
            goldens.append(golden)
        i += 1
    pick = random.Random(f"dups:{seed}:{file_idx}")
    dup_of = set(pick.sample([r[0] for r in rows], CRAWL_DUPS))
    pages = []
    for i, page in rows:
        pages.append(page)
        if i in dup_of:
            pages.append(make_dup_row(i, seed))
    return _rows_to_tables(pages, goldens)


def write_crawl_files(d: str, seed: int, file_idxs) -> None:
    """Crawl files ``file_idxs`` into ``d``: the pages as
    ``pages/part-NNNNN.parquet`` and their goldens as
    ``golden-NNNNN.parquet``."""
    for i in file_idxs:
        pages, golden = crawl_file(seed, i)
        pq.write_table(pages, os.path.join(d, "pages", f"part-{i:05d}.parquet"))
        pq.write_table(golden, os.path.join(d, f"golden-{i:05d}.parquet"))


def _build_crawl(d: str, seed: int, workers: int) -> None:
    """Process k of ``workers`` writes files k, k + workers, ...; their
    goldens are then joined in file order."""
    os.makedirs(os.path.join(d, "pages"))
    cmd = [sys.executable, "-m", "perfbench.inputs", d, str(seed),
           str(workers), str(CRAWL_FILES)]
    procs = []
    try:
        for k in range(workers):
            procs.append(subprocess.Popen(cmd + [str(k)], cwd=_REPO))
        codes = [p.wait() for p in procs]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
                p.wait()
    if any(codes):
        raise RuntimeError(f"crawl input generation failed: exit codes {codes}")
    parts = sorted(glob.glob(os.path.join(d, "golden-*.parquet")))
    pq.write_table(pa.concat_tables([pq.read_table(p) for p in parts]),
                   os.path.join(d, "golden.parquet"))
    for p in parts:
        os.remove(p)


# ── query tables ─────────────────────────────────────────────────────

_WORDS = ("join hash row batch scan column customer filter small slow merge "
          "order vector line table data agg value key stream window a spark "
          "part group big sort query fast the").split()
_ADJ = "blue cold hot large new old red small".split()
_NOUN = "anvil bolt gear gizmo plate ring rod widget".split()
_TYPES = ["ECONOMY", "LARGE", "MEDIUM", "PROMO", "SMALL", "STANDARD"]
_EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]
_LANGS = ["en"] * 44 + ["zh"] * 15 + ["es"] * 15 + ["de"] * 14 + ["fr"] * 12


def query_tables(seed: int, divisor: int = 1) -> dict[str, pa.Table]:
    """The four tables the pinned queries read, with the columns, types
    and value ranges of the repository's test tables."""
    rng = np.random.default_rng([seed, divisor])
    n = {k: v // divisor for k, v in QUERY_TABLE_ROWS.items()}
    n_orders, n_supp = n["lineitem"] // 4, 100

    li = n["lineitem"]
    day0 = np.datetime64("1995-01-02", "us")
    lineitem = pa.table({
        "l_orderkey": rng.integers(0, n_orders, li),
        "l_partkey": rng.integers(0, n["part"], li),
        "l_suppkey": rng.integers(0, n_supp, li),
        "l_linenumber": rng.integers(1, 8, li).astype("int32"),
        "l_quantity": rng.integers(1, 51, li).astype("float64"),
        "l_extendedprice": np.round(rng.uniform(900.0, 105_000.0, li), 2),
        "l_discount": np.round(rng.uniform(0.0, 0.1, li), 2),
        "l_tax": np.round(rng.uniform(0.0, 0.08, li), 2),
        "l_returnflag": rng.choice(["A", "N", "R"], li).astype(object),
        "l_linestatus": rng.choice(["F", "O"], li).astype(object),
        "l_shipdate": day0 + rng.integers(0, 2498, li) * np.timedelta64(1, "D"),
    })

    pk = np.arange(n["part"], dtype="int64")
    part = pa.table({
        "p_partkey": pk,
        "p_name": [f"{_ADJ[a]} {_NOUN[b]}" for a, b in
                   zip(rng.integers(0, 8, len(pk)), rng.integers(0, 8, len(pk)))],
        "p_brand": [f"Brand#{b}" for b in rng.integers(1, 26, len(pk))],
        "p_type": rng.choice(_TYPES, len(pk)).astype(object),
        "p_size": rng.integers(1, 51, len(pk)).astype("int32"),
        "p_retailprice": np.round(900.0 + (pk % 1000) / 10.0, 1),
    })

    ne = n["events"]
    gaps = rng.exponential(259.0, ne) * 1e6
    ts = np.datetime64("2024-01-01", "us") + np.cumsum(gaps).astype("int64")
    events = pa.table({
        "event_id": np.arange(ne, dtype="int64"),
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": rng.integers(0, 150, ne),
        "event_type": rng.choice(_EVENT_TYPES, ne).astype(object),
        "value": np.maximum(0.01, np.round(rng.lognormal(3.5, 0.9, ne), 2)),
        "props": [f'{{"k": {k}}}' for k in rng.integers(0, 100, ne)],
    })

    nd = n["documents"]
    texts = [" ".join(rng.choice(_WORDS, int(k)))
             for k in rng.integers(10, 100, nd)]
    # ~5% near-duplicates: another document's text, tail cut, marked
    for j in rng.choice(nd, max(1, nd // 20), replace=False):
        src = texts[int(rng.integers(0, nd))].split()
        texts[j] = " ".join(src[: max(3, len(src) - 3)] + ["dup"])
    documents = pa.table({
        "doc_id": np.arange(nd, dtype="int64"),
        "text": texts,
        "lang": rng.choice(_LANGS, nd).astype(object),
        "source": [f"src{j % 20}" for j in range(nd)],
        "n_chars": np.array([len(t) for t in texts], dtype="int64"),
    })
    return {"lineitem": lineitem, "part": part, "events": events,
            "documents": documents}


def _write_tables(tables: dict[str, pa.Table], d: str) -> None:
    os.makedirs(d)
    for name, t in tables.items():
        pq.write_table(t, os.path.join(d, f"{name}.parquet"))


def digest_result(df: pd.DataFrame) -> dict:
    """A query result reduced by the oracle checker's rule: row count,
    sorted columns and order-insensitive value hash."""
    return {"rows": len(df), "cols": sorted(df.columns), "hash": value_hash(df)}


def oracle_digests(tables_dir: str) -> dict[str, dict]:
    """Each pinned query's DuckDB oracle over ``tables_dir``, digested."""
    import duckdb

    from pdf_to_text_ray.pipelines.queries import ORACLE_SQL

    con = duckdb.connect()
    try:
        for name in QUERY_TABLE_ROWS:
            path = os.path.join(tables_dir, f"{name}.parquet")
            con.execute(f"CREATE VIEW {name} AS SELECT * FROM read_parquet('{path}')")
        return {q: digest_result(con.execute(ORACLE_SQL[q]).df())
                for q in PINNED_QUERIES}
    finally:
        con.close()


def _build_queries(d: str, seed: int) -> None:
    os.makedirs(d)
    _write_tables(query_tables(seed), os.path.join(d, "tables"))
    _write_tables(query_tables(seed, WARM_TABLE_DIVISOR), os.path.join(d, "warm"))
    with open(os.path.join(d, "oracle.json"), "w") as f:
        json.dump(oracle_digests(os.path.join(d, "tables")), f, indent=1,
                  sort_keys=True)


# ── cache ────────────────────────────────────────────────────────────

def ensure_inputs(root: str, workload: str, seed: int,
                  workers: int = 1) -> tuple[str, bool]:
    """Build the workload's inputs unless cached, crawl files with
    ``workers`` processes. Returns (dir, built).
    A build goes to a temporary dir renamed into place, so an
    interrupted build is never mistaken for a cached one."""
    d = input_dir(root, workload, seed)
    if os.path.isdir(d):
        return d, False
    tmp = d + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        if workload == "query_suite":
            _build_queries(tmp, seed)
        else:
            _build_crawl(tmp, seed, min(workers, CRAWL_FILES))
        os.replace(tmp, d)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return d, True


if __name__ == "__main__":
    # python3 -m perfbench.inputs DIR SEED STEP FILES FIRST: crawl files
    # FIRST, FIRST + STEP, ... below FILES
    _d, _seed, _step, _files, _first = sys.argv[1], *map(int, sys.argv[2:])
    write_crawl_files(_d, _seed, range(_first, _files, _step))
