"""Positional deletion vectors — merge-on-read row deletes over an
immutable parquet layout (the Iceberg v2 / Delta deletion-vector
mechanism), complementing ``state/versioned.py``'s KEY-level
tombstones: a delete here never rewrites or re-keys data files, it
writes one bitmap sidecar per touched file.

Layout:
  <root>/*.parquet              immutable data files
  <root>/_deletes/<file>.npz    packed bitmap of deleted row positions

- ``delete_where(root, pred)``: one Ray task per data file evaluates
  the vectorized predicate over that file's rows and ORs the hit
  bitmap into the file's sidecar (atomic rename). Vectors from
  successive deletes MERGE — a row once deleted stays deleted.
- ``read_with_deletes(root)``: a streaming Dataset where each task
  reads ITS file, drops positions set in the sidecar, and emits the
  survivors — position alignment holds because exactly one task owns
  each file (the reason this is a from_items→map_batches source, not
  a read_parquet whose block splits would lose row offsets).

Scale shape: everything is per-file parallel with no shuffle; a
deletion vector is ≤ n_rows/8 bytes and only exists for touched
files. The driver handles file NAMES only.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

_DELETES = "_deletes"


def _data_files(root: str) -> list[str]:
    return sorted(
        f for f in os.listdir(root)
        if f.endswith(".parquet") and not f.startswith("_"))


def _vec_path(root: str, fname: str) -> str:
    return os.path.join(root, _DELETES, fname + ".npz")


def _load_vec(root: str, fname: str, n_rows: int) -> np.ndarray:
    p = _vec_path(root, fname)
    if not os.path.exists(p):
        return np.zeros(n_rows, dtype=bool)
    with np.load(p) as z:
        return np.unpackbits(z["bits"], count=int(z["n"]))\
            .astype(bool)[:n_rows]


def _store_vec(root: str, fname: str, mask: np.ndarray) -> None:
    os.makedirs(os.path.join(root, _DELETES), exist_ok=True)
    p = _vec_path(root, fname)
    tmp = p + ".tmp.npz"  # .npz suffix keeps np.savez from renaming
    np.savez(tmp, bits=np.packbits(mask), n=np.int64(len(mask)))
    os.replace(tmp, p)


def delete_where(root: str, pred, *, columns: list[str] | None = None
                 ) -> int:
    """Mark rows matching ``pred`` deleted; returns the number of rows
    newly deleted. ``pred(table) -> bool ndarray`` must be vectorized
    over a pyarrow Table of ``columns`` (default: all). One Ray task
    per data file; sidecars merge with any existing vector."""
    import ray

    @ray.remote
    def one_file(fname: str) -> tuple[str, bytes, int, int]:
        t = pq.read_table(os.path.join(root, fname), columns=columns)
        hit = np.asarray(pred(t), dtype=bool)
        assert len(hit) == t.num_rows
        return fname, np.packbits(hit).tobytes(), t.num_rows, 0

    results = ray.get([one_file.remote(f) for f in _data_files(root)])
    newly = 0
    for fname, bits, n_rows, _ in results:
        hit = np.unpackbits(
            np.frombuffer(bits, np.uint8), count=n_rows).astype(bool)
        old = _load_vec(root, fname, n_rows)
        merged = old | hit
        newly += int(merged.sum() - old.sum())
        if merged.any():
            _store_vec(root, fname, merged)
    return newly


def read_with_deletes(root: str, *, columns: list[str] | None = None):
    """Streaming Dataset of surviving rows: one task per file applies
    its deletion vector in place."""
    import ray.data as rd

    files = _data_files(root)

    def load(batch: pa.Table) -> pa.Table:
        out = []
        for fname in batch["file"].to_pylist():
            t = pq.read_table(os.path.join(root, fname), columns=columns)
            # pandas-written parquet carries a b'pandas' metadata blob
            # that makes the schema UNHASHABLE downstream ('Failed to
            # hash the schemas' from every exchange; see groups._meta_free)
            t = t.replace_schema_metadata(None)
            mask = _load_vec(root, fname, t.num_rows)
            out.append(t.filter(pa.array(~mask)))
        return pa.concat_tables(out) if out else pa.table({})

    return (rd.from_arrow(pa.table({"file": files}))
            .map_batches(load, batch_format="pyarrow", batch_size=1))
