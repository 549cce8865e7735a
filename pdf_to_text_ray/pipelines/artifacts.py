"""Artifact sinks with reference parity (S2-S5, main.ts:157-160,241-250,
266-287).

The reference materializes three artifacts per document into R2 under
random UUID keys: raw ``.txt``, merged ``.json`` records, formatted
``.csv``. Here the keys are DETERMINISTIC (the url), artifacts are
partitioned directories, and a keyed point lookup replaces the
``GET /file/:key`` route:

    out_dir/text/        parquet (url, text_extracted, ...)
    out_dir/records/     parquet (RECORDS_SCHEMA)
    out_dir/records_json/  JSON-lines records (debug artifact, S3)
    out_dir/records_csv/   CSV with the reference header + toFixed(2)
                           formatting (S4, main.ts:39-56)
"""

from __future__ import annotations

import os

import pyarrow as pa

from ..stages.segment import CSV_HEADERS, csv_row


def write_artifacts(text_ds, records_ds, out_dir: str,
                    partition_text_by: list[str] | None = None) -> dict[str, str]:
    """Write the three reference artifacts from the extracted-text and
    records datasets. Returns the artifact directory map.

    ``partition_text_by`` (e.g. ["doc_type"]) hive-partitions the text
    artifact so downstream scans prune whole directories."""
    paths = {
        "text": os.path.join(out_dir, "text"),
        "records": os.path.join(out_dir, "records"),
        "records_json": os.path.join(out_dir, "records_json"),
        "records_csv": os.path.join(out_dir, "records_csv"),
    }
    if partition_text_by:
        text_ds.write_parquet(paths["text"], partition_cols=partition_text_by)
    else:
        text_ds.write_parquet(paths["text"])
    records_ds = records_ds.materialize()  # consumed by three sinks
    records_ds.write_parquet(paths["records"])
    records_ds.write_json(paths["records_json"])

    def to_csv_rows(batch: pa.Table) -> pa.Table:
        lines = [
            csv_row(*rec)
            for rec in zip(
                batch["sucursal_name"].to_pylist(),
                batch["ean"].to_pylist(),
                batch["cantidad"].to_pylist(),
                batch["importe"].to_pylist(),
            )
        ]
        return pa.table({"line": pa.array(lines, pa.string())})

    csv_lines = records_ds.map_batches(to_csv_rows, batch_format="pyarrow")
    os.makedirs(paths["records_csv"], exist_ok=True)
    # ONE header+rows file, streamed through the driver — exact parity
    # with the reference's single CSV string (main.ts:55). This is the
    # right shape for the records artifact (records ≪ corpus).
    with open(os.path.join(paths["records_csv"], "part-00000.csv"), "w") as f:
        f.write(CSV_HEADERS + "\n")
        for batch in csv_lines.iter_batches(batch_size=8192, batch_format="pyarrow"):
            for line in batch["line"].to_pylist():
                f.write(line + "\n")
    return paths


def lookup_artifact(out_dir: str, url: str, kind: str = "text"):
    """Keyed point lookup — GET /file/:key parity (main.ts:266-287):
    read only the needed columns, filter on the deterministic key."""
    import pyarrow.compute as pc
    import ray.data as rd

    path = os.path.join(out_dir, kind)
    ds = rd.read_parquet(path)
    return ds.map_batches(
        lambda t: t.filter(pc.equal(t["url"], pa.scalar(url))),
        batch_format="pyarrow",
    )
