"""Constraint audit — the Deequ-style data-quality gate a 100 TB
ingest runs before accepting a wave.

Four rule kinds, each with a distributed shape that never gathers
rows:

  not_null / in_range : vectorized per-batch violation counts,
                        Sum-reduced — one streaming pass, no shuffle.
  unique              : per-key counts via one groupby over the KEY
                        column only; violations = Σ(count − 1).
  foreign_key         : the referenced key set is scanned pruned,
                        broadcast sorted (``ray.put`` once at cluster
                        scale), and each batch counts misses with one
                        ``probe_sorted`` call — a semi-anti-join
                        without a shuffle, valid while the referenced
                        keys fit a worker (the bloom-pruned variant in
                        stages/joins.py is the path past that).

Output: one row per rule — (rule, n_rows, n_violations) — tiny at any
corpus size, so a failed gate is one driver-side predicate.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .groups import arrow_out
from .joins import probe_sorted


def _count_pass(ds, fn) -> tuple[int, int]:
    """(total_rows, violations) via mergeable per-batch partials."""
    parts = ds.map_batches(
        lambda t: arrow_out(pd.DataFrame(
            {"n": [t.num_rows], "bad": [int(fn(t))]})),
        batch_format="pyarrow").to_pandas()
    return int(parts["n"].sum()), int(parts["bad"].sum())


def audit_not_null(ds, col: str) -> tuple[int, int]:
    return _count_pass(ds, lambda t: t[col].null_count)


def audit_in_range(ds, col: str, lo, hi) -> tuple[int, int]:
    def bad(t: pa.Table) -> int:
        c = t[col]
        # drop nulls BEFORE the comparison: a null becomes NaN in
        # numpy, fails the range test, and would double-count against
        # null_count
        v = c.drop_null().to_numpy(zero_copy_only=False)
        ok = (v >= lo) & (v <= hi)
        return int((~ok).sum()) + c.null_count

    return _count_pass(ds, bad)


def audit_unique(ds, col: str) -> tuple[int, int]:
    """Violations = rows beyond the first per duplicated key."""
    from ray.data.aggregate import Count

    per_key = ds.groupby(col).aggregate(Count(alias_name="c"))

    def extra(t: pa.Table) -> pa.Table:
        c = t["c"].to_numpy(zero_copy_only=False)
        return arrow_out(pd.DataFrame({"n": [int(c.sum())],
                                       "bad": [int((c - 1).sum())]}))

    parts = per_key.map_batches(extra, batch_format="pyarrow").to_pandas()
    return int(parts["n"].sum()), int(parts["bad"].sum())


def audit_foreign_key(ds, col: str, ref_ds, ref_col: str) -> tuple[int, int]:
    """Rows whose key is absent from the referenced table's key set.

    SQL-`NOT IN`-parity on nulls: a NULL probe value compares UNKNOWN
    in SQL and is never counted, so nulls are dropped before the
    sorted-key probe (and never counted as violations).  Null keys
    on the referenced side are likewise dropped from the key set.
    """
    import ray

    chunks = [
        b[ref_col].drop_null().to_numpy(zero_copy_only=False)
        for b in ref_ds.select_columns([ref_col]).iter_batches(
            batch_format="pyarrow", batch_size=65536)]
    chunks = [c for c in chunks if len(c)]
    keys = (np.unique(np.concatenate(chunks)) if chunks
            else np.array([], dtype=np.int64))
    ref = ray.put(keys)

    def bad(t: pa.Table) -> int:
        v = t[col].drop_null().to_numpy(zero_copy_only=False)
        hit, _ = probe_sorted(ray.get(ref), v)
        return int((~hit).sum())

    return _count_pass(ds, bad)


def run_audit(rules: list[dict]) -> pd.DataFrame:
    """Each rule: {"rule": name, "kind": ..., kind-specific args with
    Datasets already constructed}. Returns (rule, n_rows,
    n_violations) sorted by rule name."""
    rows = []
    for r in rules:
        kind = r["kind"]
        if kind == "not_null":
            n, bad = audit_not_null(r["ds"], r["col"])
        elif kind == "in_range":
            n, bad = audit_in_range(r["ds"], r["col"], r["lo"], r["hi"])
        elif kind == "unique":
            n, bad = audit_unique(r["ds"], r["col"])
        elif kind == "foreign_key":
            n, bad = audit_foreign_key(r["ds"], r["col"], r["ref_ds"],
                                       r["ref_col"])
        else:
            raise ValueError(f"unknown audit kind: {kind}")
        rows.append({"rule": r["rule"], "n_rows": n, "n_violations": bad})
    out = pd.DataFrame(rows).sort_values("rule").reset_index(drop=True)
    return out.astype({"n_rows": "int64", "n_violations": "int64"})
