"""Z-order (Morton-curve) clustering for multi-column file pruning.

A 1D sort gives file-skipping on ONE column: every file's footer
min/max is narrow on the sort key and full-range on everything else.
Interleaving the bits of two normalized key columns and sorting by
the interleaved code keeps files LOCAL IN BOTH dimensions, so a box
predicate (a range on each column) prunes files by both footers — the
layout Delta/Iceberg call Z-ordering (public technique; Morton 1966).

All kernels are vectorized numpy over uint64; the layout itself is one
`sort(code)` + `repartition(num_files)` — a single all-to-all paid at
WRITE time to make every later box scan proportional to its selectivity.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa


def _spread_bits_32(x: np.ndarray) -> np.ndarray:
    """uint64 array whose even bit positions carry x's low 32 bits
    (the classic parallel-prefix bit spread)."""
    x = x.astype(np.uint64) & np.uint64(0xFFFFFFFF)
    x = (x | (x << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    x = (x | (x << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    x = (x | (x << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    x = (x | (x << np.uint64(2))) & np.uint64(0x3333333333333333)
    x = (x | (x << np.uint64(1))) & np.uint64(0x5555555555555555)
    return x


def morton2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Interleave two uint32-range arrays into one uint64 Z-code
    (a's bits land on even positions, b's on odd)."""
    return _spread_bits_32(a) | (_spread_bits_32(b) << np.uint64(1))


def zorder_code_batch(t: pa.Table, cols: tuple[str, str],
                      mins: tuple[int, int]) -> pa.Table:
    """Append the Z-code of two columns (pre-computed global mins keep
    the normalization identical across batches)."""
    a = t[cols[0]].to_numpy(zero_copy_only=False)
    b = t[cols[1]].to_numpy(zero_copy_only=False)
    if np.issubdtype(a.dtype, np.datetime64):
        a = a.astype("datetime64[s]").astype("int64")
    if np.issubdtype(b.dtype, np.datetime64):
        b = b.astype("datetime64[s]").astype("int64")
    a = (a.astype("int64") - mins[0]).astype(np.uint64)
    b = (b.astype("int64") - mins[1]).astype(np.uint64)
    code = morton2(a, b)
    # int64 view: Ray's sort works on signed; codes stay < 2^63 for
    # realistic (≤31-bit) normalized domains
    return t.append_column("_z", pa.array(code.astype("int64"), pa.int64()))


def zorder_layout(ds, cols: tuple[str, str], out_dir: str,
                  num_files: int = 16) -> None:
    """Write ``ds`` Z-ordered by ``cols`` as ``num_files`` parquet
    files: code → sort → repartition → write (the _z helper column is
    dropped at write)."""
    lo0 = ds.min(cols[0])
    lo1 = ds.min(cols[1])
    if hasattr(lo0, "timestamp"):
        lo0 = int(lo0.timestamp())
    if hasattr(lo1, "timestamp"):
        lo1 = int(lo1.timestamp())
    mins = (int(lo0), int(lo1))
    (ds.map_batches(lambda t: zorder_code_batch(t, cols, mins),
                    batch_format="pyarrow")
     .sort("_z")
     .repartition(num_files)
     .map_batches(lambda t: t.drop_columns(["_z"]),
                  batch_format="pyarrow")
     .write_parquet(out_dir))


def zonemap_box_files(part_dir: str,
                      preds: dict[str, tuple]) -> tuple[list, int]:
    """Multi-column footer pruning: keep files whose per-column
    [min, max] statistics overlap EVERY predicate's [lo, hi) range.
    Returns (kept paths, total file count)."""
    import pyarrow.parquet as pq

    files = sorted(
        os.path.join(part_dir, f) for f in os.listdir(part_dir)
        if f.endswith(".parquet"))
    keep = []
    for f in files:
        md = pq.ParquetFile(f).metadata
        names = md.schema.to_arrow_schema().names
        ok = True
        for col, (lo, hi) in preds.items():
            ci = names.index(col)
            mn, mx = None, None
            for rg in range(md.num_row_groups):
                st = md.row_group(rg).column(ci).statistics
                mn = st.min if mn is None else min(mn, st.min)
                mx = st.max if mx is None else max(mx, st.max)
            if mn is None or not (mn < hi and mx >= lo):
                ok = False
                break
        if ok:
            keep.append(f)
    return keep, len(files)
