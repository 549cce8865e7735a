"""Versioned parquet table with time-travel reads — a commit log plus
last-write-wins key resolution and delete tombstones: the
snapshot/rollback layer a training-corpus store needs. Each curation
run COMMITS its changes, a training run pins a version, and a bad run
rolls back by reading as-of the previous commit. This is the snapshot
idea of the open table formats (Iceberg/Delta), reduced to the pieces
a Ray Data pipeline needs:

- commit N = one directory ``commit=N/`` of parquet files (each row
  stamped with ``_commit = N`` at write time) plus one line appended
  to the ``_commits.json`` log via atomic rename. Rows may carry a
  boolean ``_deleted`` tombstone column.
- ``read_as_of(root, version)`` lists ONLY the commit directories
  ≤ version — version pruning happens at the file listing, exactly
  like partition pruning, so old snapshots cost reads proportional to
  their own size — then resolves each key to its row from the HIGHEST
  commit with a hash-bucketed shuffle (no driver materialization) and
  drops tombstoned keys.

The log is the source of truth for what exists: a crashed commit
leaves an orphan directory that no log line references, and readers
never see it (the same crash-safety contract as state/manifest.py).
"""

from __future__ import annotations

import json
import os

import pandas as pd
import pyarrow as pa

from ..stages.groups import bucketed_group_apply

_LOG = "_commits.json"


def _log_path(root: str) -> str:
    return os.path.join(root, _LOG)


def _read_log(root: str) -> list[dict]:
    path = _log_path(root)
    if not os.path.exists(path):
        return []
    with open(path) as f:
        return json.load(f)


def latest_version(root: str) -> int:
    """Highest committed version; 0 when the table has no commits."""
    log = _read_log(root)
    return max((e["version"] for e in log), default=0)


def commit(ds, root: str, *, key: str) -> int:
    """Append ``ds`` as the next commit; returns its version number.

    ``ds`` must carry ``key``; an optional boolean ``_deleted`` column
    marks tombstones (a row whose key should disappear from reads
    as-of this version onward). The data files land under
    ``commit=N/`` FIRST; the log line is appended LAST via atomic
    rename, so a crash mid-commit leaves an invisible orphan
    directory, never a half-visible commit."""
    os.makedirs(root, exist_ok=True)
    version = latest_version(root) + 1

    def stamp(t: pa.Table) -> pa.Table:
        if "_deleted" not in t.column_names:
            t = t.append_column(
                "_deleted", pa.array([False] * t.num_rows, pa.bool_()))
        return t.append_column(
            "_commit", pa.array([version] * t.num_rows, pa.int64()))

    out_dir = os.path.join(root, f"commit={version}")
    stamped = ds.map_batches(stamp, batch_format="pyarrow")
    stamped.write_parquet(out_dir)
    import pyarrow.parquet as pq

    n_rows = sum(
        pq.ParquetFile(os.path.join(out_dir, f)).metadata.num_rows
        for f in os.listdir(out_dir) if f.endswith(".parquet"))
    log = _read_log(root)
    log.append({"version": version, "dir": f"commit={version}",
                "key": key, "rows": int(n_rows)})
    tmp = _log_path(root) + ".tmp"
    with open(tmp, "w") as f:
        json.dump(log, f)
    os.replace(tmp, _log_path(root))
    return version


def compact(root: str, *, key: str, num_buckets: int = 16) -> int:
    """Rewrite the CURRENT resolved state (tombstones applied,
    superseded rows dropped) as one fresh commit, and mark the older
    commits compacted-away in the log: subsequent ``read_as_of`` calls
    at or past the compaction version read ONLY the compacted files —
    history cost stops accruing — while as-of reads BEFORE it keep
    working from the original directories (which stay on disk).
    Returns the compaction commit's version."""
    current = latest_version(root)
    if current == 0:
        raise ValueError("nothing to compact: no commits")
    state = read_as_of(root, current, key=key)
    version = commit(state, root, key=key)
    log = _read_log(root)
    for e in log:
        if e["version"] < version:
            e["compacted_by"] = version
    tmp = _log_path(root) + ".tmp"
    with open(tmp, "w") as f:
        json.dump(log, f)
    os.replace(tmp, _log_path(root))
    return version


def read_as_of(root: str, version: int, *, key: str,
               num_buckets: int = 16):
    """Dataset of the table's state as of ``version``: for every key,
    the row from its highest commit ≤ version, tombstones dropped.
    Only the commit directories ≤ version are read."""
    import ray.data as rd

    log = _read_log(root)
    needed = [e for e in log
              if e["version"] <= version
              and not (e.get("compacted_by") is not None
                       and e["compacted_by"] <= version)]
    dirs = [os.path.join(root, e["dir"]) for e in needed]
    if not dirs:
        raise ValueError(f"no commits at or before version {version}")
    # read_parquet expands a single directory but not directories
    # inside a list — list the files explicitly
    paths = [os.path.join(d, f)
             for d in dirs for f in sorted(os.listdir(d))
             if f.endswith(".parquet")]
    ds = rd.read_parquet(paths)

    def resolve(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.sort_values("_commit", kind="stable")
             .drop_duplicates(key, keep="last"))
        g = g[~g["_deleted"].astype(bool)]
        return g.drop(columns=["_commit", "_deleted"])

    return bucketed_group_apply(ds, key, resolve, num_buckets=num_buckets)
