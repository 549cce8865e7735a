"""Local replica of the driver's correctness gate: run every queries()
entry at a given sf and compare with oracle_sql() via DuckDB
(row-count + column names + order-insensitive value-hash).

Usage: python tools/check_oracles.py [--blocks N] [sf_dir] [name ...]

``--blocks N`` reads every table in N blocks (it patches
``queries._blocks_for``) instead of the program's byte-sized count, to
check that results do not depend on the partitioning.

This process and its Ray workers import the package from the checkout
this script lives in, whatever the working directory or ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time

import duckdb
import pandas as pd

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TABLES = ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split()


def to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(result, ray.data.Dataset):
        return result.to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def value_hash(df: pd.DataFrame) -> str:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        col = df[c]
        if pd.api.types.is_float_dtype(col):
            df[c] = col.round(9)
        elif pd.api.types.is_datetime64_any_dtype(col):
            df[c] = col.astype("int64")
    rows = sorted(
        tuple(str(v) for v in row) for row in df.itertuples(index=False, name=None)
    )
    h = hashlib.md5()
    for r in rows:
        h.update("\x1f".join(r).encode())
        h.update(b"\x1e")
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("sf_dir", nargs="?", default="/root/testdata/sf0.01")
    ap.add_argument("names", nargs="*")
    ap.add_argument("--blocks", type=int, default=None,
                    help="read every table in this many blocks")
    args = ap.parse_args()
    sf_dir, only = args.sf_dir, set(args.names)
    # one line per query, flushed as it prints: a hung or killed run
    # still shows every result it reached
    sys.stdout.reconfigure(line_buffering=True)

    import ray

    # Ray puts the working directory of the process that calls ray.init
    # first on every worker's sys.path, ahead of PYTHONPATH: run from
    # this checkout's root so the workers import this checkout's package
    sf_dir = os.path.abspath(sf_dir)
    sys.path.insert(0, ROOT)
    os.chdir(ROOT)
    ray.init(address="local", num_cpus=os.cpu_count(), include_dashboard=False,
             logging_level="ERROR")
    import __ray_entry__ as entrymod

    if args.blocks is not None:
        from pdf_to_text_ray.pipelines import queries

        queries._blocks_for = lambda path, columns=None: args.blocks

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    failures = []
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.perf_counter()
        try:
            mine = to_pandas(fn(sf_dir))
        except Exception as e:
            failures.append(name)
            print(f"FAIL {name}: query raised {type(e).__name__}: {e}")
            continue
        elapsed = time.perf_counter() - t0
        if name not in oracles:
            print(f"ok   {name}: rows={len(mine)} (rows-only) [{elapsed:.1f}s]")
            continue
        oracle = con.execute(oracles[name]).df()
        problems = []
        if len(mine) != len(oracle):
            problems.append(f"rows {len(mine)} != {len(oracle)}")
        if sorted(mine.columns) != sorted(oracle.columns):
            problems.append(f"cols {sorted(mine.columns)} != {sorted(oracle.columns)}")
        if not problems and value_hash(mine) != value_hash(oracle):
            problems.append("value-hash mismatch")
        if problems:
            failures.append(name)
            print(f"FAIL {name}: {'; '.join(problems)} [{elapsed:.1f}s]")
        else:
            print(f"ok   {name}: rows={len(mine)} hash match [{elapsed:.1f}s]")
    ray.shutdown()
    if failures:
        print(f"\n{len(failures)} FAILURES: {failures}")
        sys.exit(1)
    print("\nall queries match")


if __name__ == "__main__":
    main()
