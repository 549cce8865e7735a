"""Let Ray's zero-column empty partitions adopt their operator's schema.

Ray's sort-based exchanges (``groupby().aggregate`` / ``map_groups``,
which ``groups.cogroup`` and ``bucketed_group_apply`` run on) return
``ArrowBlockAccessor._empty_table()`` — a block with NO columns —
for every reduce partition that receives no rows. That happens
routinely: the sort boundaries are sampled quantiles that Ray never
de-duplicates, so a small key domain leaves some partitions empty.
Map UDFs never see empty blocks (Ray skips the call), so no program
code can re-schema them, and every operator they cross would log

    "Operator produced a RefBundle with a different schema than the
    previous one. ... new schema: ()"

This is the one schema change the program cannot prevent; its own
exchanges emit one schema each (``cogroup`` packs every side into one
``{_bucket, _side, _ipc}`` row format). The shim wraps
``dedupe_schemas_with_validation`` (the single choke point where the
executor reconciles bundle schemas,
``ray/data/_internal/execution/streaming_executor_state.py``) so that
a ROWLESS bundle whose schema is empty ADOPTS the operator's declared
schema instead of diverging from it. Semantics are unchanged — the
function already kept ``old_schema`` for diverged bundles; we only
skip the false-positive warning and mark the bundle non-diverged.
Genuine divergences (non-empty mismatched schemas, or empty-schema
bundles that somehow carry rows) still warn exactly as before.

Deleting the shim waits on Ray emitting typed empty partitions.
Version-pinned to the vendored ray 2.49 internals; any import/attr
mismatch degrades to a no-op (warnings return, nothing breaks).
"""

from __future__ import annotations


def install() -> bool:
    """Idempotently install the shim; True if active."""
    try:
        import ray.data._internal.execution.streaming_executor_state as _ses
        from ray.data._internal.execution.interfaces import RefBundle
        from ray.data.block import _is_empty_schema

        orig = _ses.dedupe_schemas_with_validation
        if getattr(orig, "_ptt_empty_schema_shim", False):
            return True

        def dedupe_schemas_with_validation(old_schema, bundle, warn=True,
                                           enforce_schemas=False):
            try:
                if (not _is_empty_schema(old_schema)
                        and _is_empty_schema(bundle.schema)
                        and not bundle.num_rows()):
                    return (RefBundle(
                        bundle.blocks,
                        schema=old_schema,
                        owns_blocks=bundle.owns_blocks,
                        output_split_idx=bundle.output_split_idx,
                        _cached_object_meta=bundle._cached_object_meta,
                        _cached_preferred_locations=(
                            bundle._cached_preferred_locations),
                    ), False)
            except Exception:
                pass  # fall through to stock behavior on any surprise
            return orig(old_schema, bundle, warn=warn,
                        enforce_schemas=enforce_schemas)

        dedupe_schemas_with_validation._ptt_empty_schema_shim = True
        _ses.dedupe_schemas_with_validation = dedupe_schemas_with_validation
        return True
    except Exception:
        return False


_ACTIVE = install()
