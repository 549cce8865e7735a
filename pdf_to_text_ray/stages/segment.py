"""Block segmentation + deterministic structured-record extraction.

Reference semantics reproduced exactly:

- ``extractBlocksFromPDFText`` (src/main.ts:70-109): a stateful line scan
  over ``text.split("\\n")``. A line whose lowercase form starts with
  ``"sucursal"`` opens a new block (flushing any in-progress block,
  main.ts:81-83). While capturing, a line matching
  ``/\\* total importe en la sucursal:\\s*\\d+(\\.\\d+)?/i`` closes the
  block (main.ts:94-99). An unterminated trailing block is still emitted
  (main.ts:103-106). Lines before the first marker are dropped.

- The LLM record hop (main.ts:174-234) is replaced by a deterministic
  line parser emitting the same record schema
  ``{SucursalName, EAN, CantidadVendida, Importe}`` (main.ts:183-198)
  with the CSV-time coercions of main.ts:44-45 applied at parse time.

Both are per-document pure functions — no cross-row state — so they run
as stateless ``map_batches`` tasks; the doc→block explosion carries
(url, block_idx) for lineage and deterministic ordering.
"""

from __future__ import annotations

import re
from typing import Iterable

import numpy as np
import pyarrow as pa

from ..functions.scalars import parse_float_or_zero, parse_int_or_zero, to_fixed

_TOTAL_RE = re.compile(r"\* total importe en la sucursal:\s*\d+(\.\d+)?", re.IGNORECASE)
_TOTAL_NUM_RE = re.compile(
    r"\* total importe en la sucursal:\s*(\d+(?:\.\d+)?)", re.IGNORECASE
)
# Sale line inside a block: EAN (8-14 digits), quantity, amount.
_SALE_RE = re.compile(r"^\s*(\d{8,14})\s+([+-]?\d+)\s+([+-]?\d+(?:\.\d+)?)\s*$")
_SUCURSAL_PREFIX_RE = re.compile(r"^sucursal\s*", re.IGNORECASE)

CSV_HEADERS = "SucursalName,EAN,CantidadVendida,Importe"  # main.ts:40


def extract_blocks(full_text: str) -> list[str]:
    """Exact-semantics port of extractBlocksFromPDFText (main.ts:70-109)."""
    return [blk for blk, _, _ in extract_blocks_with_spans(full_text)]


def extract_blocks_with_spans(full_text: str) -> list[tuple[str, int, int]]:
    """The block scan, with character spans: (block_text, start, end)
    with the invariant ``full_text[start:end] == block_text`` — the
    "extracted spans per document" contract (north rule)."""
    out: list[tuple[str, int, int]] = []
    current: list[str] = []
    cur_start = 0
    capturing = False
    offset = 0
    for line in full_text.split("\n"):
        line_start = offset
        offset += len(line) + 1  # + the newline
        if line.lower().startswith("sucursal"):
            if current:
                blk = "\n".join(current)
                out.append((blk, cur_start, cur_start + len(blk)))
            current = [line]
            cur_start = line_start
            capturing = True
            continue
        if capturing:
            current.append(line)
            if _TOTAL_RE.search(line):
                blk = "\n".join(current)
                out.append((blk, cur_start, cur_start + len(blk)))
                current = []
                capturing = False
    if capturing and current:
        blk = "\n".join(current)
        out.append((blk, cur_start, cur_start + len(blk)))
    return out


def block_total(block_text: str) -> float:
    """Parse the end-marker total (main.ts:94); NaN when unterminated."""
    m = _TOTAL_NUM_RE.search(block_text)
    return float(m.group(1)) if m else float("nan")


def parse_block_records(block_text: str) -> list[tuple[str, str, int, float]]:
    """Deterministic replacement for the LLM extraction (main.ts:174-234).

    The block header line is ``Sucursal <name>``; the sucursal name is the
    header minus the leading "Sucursal" keyword, trimmed. Each sale line
    is ``EAN  qty  amount``; numeric coercion matches main.ts:44-45
    (parseInt||0 / parseFloat||0). Non-matching lines are skipped —
    parity with the reference prompt's "if some block has no sales, skip
    it" (main.ts:197).
    """
    lines = block_text.split("\n")
    if not lines:
        return []
    name = _SUCURSAL_PREFIX_RE.sub("", lines[0], count=1).strip()
    out = []
    for line in lines[1:]:
        m = _SALE_RE.match(line)
        if m:
            out.append(
                (
                    name,
                    m.group(1),
                    parse_int_or_zero(m.group(2)),
                    parse_float_or_zero(m.group(3)),
                )
            )
    return out


def chunk_blocks(blocks: list[str], max_blocks_per_chunk: int = 10) -> list[list[str]]:
    """splitBlocksForOpenAI parity (main.ts:116-124): fixed-size grouping.

    In the Ray pipeline this is subsumed by ``batch_size=`` on the
    downstream ``map_batches``; kept as an API-parity utility."""
    if max_blocks_per_chunk <= 0:
        raise ValueError("max_blocks_per_chunk must be positive")
    return [
        blocks[i : i + max_blocks_per_chunk]
        for i in range(0, len(blocks), max_blocks_per_chunk)
    ]


def csv_row(name: str, ean: str, cantidad: int, importe: float) -> str:
    """One convertJsonToCsv data row (main.ts:39-56): quoted strings,
    int, 2-dp toFixed formatting."""
    return f'"{name}","{ean}",{cantidad},{to_fixed(importe, 2)}'


def records_to_csv(records: Iterable[tuple[str, str, int, float]]) -> str:
    """convertJsonToCsv parity (main.ts:39-56): the header line, then
    one ``csv_row`` per record."""
    return "\n".join([CSV_HEADERS] + [csv_row(*r) for r in records])


# ──────────────────────────────────────────────────────────────────────
# Batch-level operators (Arrow in / Arrow out)
# ──────────────────────────────────────────────────────────────────────

def segment_batch(batch: pa.Table) -> pa.Table:
    """Explode documents → blocks with character spans. Input needs
    columns (url, text_extracted); output follows BLOCKS_SCHEMA plus
    (block_start, block_end) where
    ``text_extracted[block_start:block_end] == block_text``."""
    urls: list[str] = []
    idxs: list[int] = []
    texts: list[str] = []
    totals: list[float] = []
    starts: list[int] = []
    ends: list[int] = []
    url_col = batch["url"].to_pylist()
    text_col = batch["text_extracted"].to_pylist()
    for url, text in zip(url_col, text_col):
        if not text:
            continue
        for i, (blk, start, end) in enumerate(extract_blocks_with_spans(text)):
            urls.append(url)
            idxs.append(i)
            texts.append(blk)
            totals.append(block_total(blk))
            starts.append(start)
            ends.append(end)
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "block_idx": pa.array(idxs, pa.int32()),
            "block_text": pa.array(texts, pa.string()),
            "block_total": pa.array(np.asarray(totals, dtype=np.float64)),
            "block_start": pa.array(starts, pa.int64()),
            "block_end": pa.array(ends, pa.int64()),
        }
    )


def records_batch(batch: pa.Table) -> pa.Table:
    """Explode blocks → records (RECORDS_SCHEMA)."""
    cols: dict[str, list] = {
        "url": [],
        "block_idx": [],
        "record_idx": [],
        "sucursal_name": [],
        "ean": [],
        "cantidad": [],
        "importe": [],
    }
    url_col = batch["url"].to_pylist()
    bidx_col = batch["block_idx"].to_pylist()
    text_col = batch["block_text"].to_pylist()
    for url, bidx, blk in zip(url_col, bidx_col, text_col):
        for r, (name, ean, qty, imp) in enumerate(parse_block_records(blk)):
            cols["url"].append(url)
            cols["block_idx"].append(bidx)
            cols["record_idx"].append(r)
            cols["sucursal_name"].append(name)
            cols["ean"].append(ean)
            cols["cantidad"].append(qty)
            cols["importe"].append(imp)
    return pa.table(
        {
            "url": pa.array(cols["url"], pa.string()),
            "block_idx": pa.array(cols["block_idx"], pa.int32()),
            "record_idx": pa.array(cols["record_idx"], pa.int32()),
            "sucursal_name": pa.array(cols["sucursal_name"], pa.string()),
            "ean": pa.array(cols["ean"], pa.string()),
            # int64: JS parseInt returns doubles (exact ints to 2^53), so
            # a >2^31 quantity must not crash the batch (ArrowInvalid)
            "cantidad": pa.array(cols["cantidad"], pa.int64()),
            "importe": pa.array(np.asarray(cols["importe"], dtype=np.float64)),
        }
    )
