"""Static Arrow schemas for every stage boundary.

The reference (src/main.ts) has no declared schemas — its only schema is
the JSON shape dictated to the LLM (main.ts:183-198) and the CSV header
(main.ts:40). Our engine is deterministic, so schemas are declared per
stage and enforced at the boundaries.
"""

from __future__ import annotations

import pyarrow as pa

# Input table of Common-Crawl-style pages (BASELINE.json input_hint).
PAGES_SCHEMA = pa.schema(
    [
        ("url", pa.string()),          # primary key
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()),         # raw payload: %PDF- magic OR HTML bytes
        ("text", pa.string()),         # crawl-provided text (may be null/stale)
        ("lang", pa.string()),
    ]
)

# Output of the sniff stage: PAGES columns + routing metadata.
DOC_TYPE_PDF = "pdf"
DOC_TYPE_HTML = "html"
DOC_TYPE_TEXT = "text"

# Output of the extraction stage (ExtractDispatch: PDF / HTML / passthrough).
TEXT_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("lang", pa.string()),
        ("doc_type", pa.string()),       # "pdf" | "html" | "text"
        ("text_extracted", pa.string()),
        ("n_pages", pa.int32()),         # PDFs: page count; otherwise 1
        ("parse_failure", pa.bool_()),   # hard parse error (empty text emitted)
        ("fallback", pa.bool_()),        # salvage path used (e.g. broken xref scan)
    ]
)

# Exploded blocks (reference block semantics, main.ts:70-109).
BLOCKS_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("block_idx", pa.int32()),
        ("block_text", pa.string()),
        ("block_total", pa.float64()),   # parsed end-marker total; NaN if unterminated
        ("block_start", pa.int64()),     # char span into text_extracted
        ("block_end", pa.int64()),       # text_extracted[start:end] == block_text
    ]
)

# Structured records (reference schema, main.ts:40 + 183-198).
RECORDS_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("block_idx", pa.int32()),
        ("record_idx", pa.int32()),
        ("sucursal_name", pa.string()),
        ("ean", pa.string()),
        ("cantidad", pa.int64()),        # parseInt(x,10)||0 parity (main.ts:44; JS ints are doubles — int64, not int32)
        ("importe", pa.float64()),       # parseFloat(x)||0 parity (main.ts:45)
    ]
)

GOLDEN_TEXT_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("text_extracted", pa.string()),
        ("doc_type", pa.string()),
        ("n_pages", pa.int32()),
    ]
)


def validate_schema(ds_or_table, expected: pa.Schema, *, subset: bool = True) -> None:
    """Assert stage-boundary schema conformance: every expected column
    present with the expected type. ``subset=True`` allows extra
    columns (stages append; lineage columns travel through)."""
    import ray.data

    if isinstance(ds_or_table, ray.data.Dataset):
        actual = ds_or_table.schema()
        actual_map = dict(zip(actual.names, actual.types))
    else:
        actual_map = {f.name: f.type for f in ds_or_table.schema}
    problems = []
    for field in expected:
        if field.name not in actual_map:
            problems.append(f"missing column {field.name}")
        elif actual_map[field.name] != field.type:
            problems.append(
                f"{field.name}: {actual_map[field.name]} != {field.type}")
    if not subset:
        extra = set(actual_map) - set(expected.names)
        if extra:
            problems.append(f"unexpected columns {sorted(extra)}")
    if problems:
        raise ValueError("schema mismatch: " + "; ".join(problems))
