"""Distributed MERGE INTO — apply a CDC change feed to a base table.

The SQL:2008 / Delta-Lake upsert shape the reference's R2 overwrite
semantics (`/root/reference/src/main.ts` PUTs replace whole objects)
generalize to at row granularity:

    WHEN MATCHED     AND op = delete_op -> DELETE
    WHEN MATCHED     AND op = update_op -> UPDATE (change payload wins)
    WHEN NOT MATCHED AND op = insert_op -> INSERT
    (unmatched update/delete and matched insert are no-ops)

One all-to-all on hash(key): ``groups.cogroup`` co-locates both
sides' rows of each bucket, Arrow types intact, and each bucket
resolves its keys with vectorized membership tests. Nothing but the
two tables' projected columns rides the shuffle, and no side is ever
materialized whole on one node, so the operator holds at corpus scale
as long as the per-bucket slice fits a worker (raise ``num_buckets``
with data volume; buckets are independent).

Preconditions (mirroring SQL MERGE):
- at most ONE change row per key (SQL MERGE raises "multiple rows
  matched"; this raises too rather than picking silently);
- ``changes`` carries every ``base`` column plus ``op_col`` (delete
  rows may carry nulls in the non-key columns); updated and inserted
  rows are cast to ``base``'s types.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .groups import cogroup


def merge_into(base, changes, *, key: str, op_col: str = "op",
               insert_op: str = "I", update_op: str = "U",
               delete_op: str = "D", num_buckets: int = 32):
    """Apply ``changes`` (rows tagged with ``op_col``) to ``base`` by
    ``key``; returns the merged Dataset with ``base``'s columns and
    types."""

    def apply_bucket(b: pa.Table | None, c: pa.Table | None):
        if c is None:
            return b
        if b is None:
            b = c.drop_columns([op_col]).schema.empty_table()
        ck = c[key].to_pandas()
        if ck.duplicated().any():
            raise ValueError(
                f"merge_into: multiple change rows for key "
                f"{ck[ck.duplicated()].iloc[0]!r} "
                "(SQL MERGE 'multiple rows matched' condition)")
        matched = ck.isin(b[key].to_pandas()).to_numpy()
        ops = c[op_col].to_numpy(zero_copy_only=False)
        gone = ck[matched & np.isin(ops, [update_op, delete_op])]
        kept = b.filter(pa.array(~b[key].to_pandas().isin(gone).to_numpy()))
        new = c.filter(pa.array((matched & (ops == update_op))
                                | (~matched & (ops == insert_op))))
        return pa.concat_tables(
            [kept, new.select(b.column_names).cast(b.schema)])

    return cogroup([(base, key), (changes, key)], apply_bucket,
                   num_buckets=num_buckets)
