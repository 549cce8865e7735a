"""The flagship pipeline: pages table → extracted text (+ blocks/records).

Ray-Data-native restatement of the reference's POST /upload flow
(src/main.ts:133-263) at corpus scale (SURVEY.md §3.4):

    winners ← pruned (url, warc_ts) scan        [broadcast semi-join]
    read_parquet(pages)
      → filter_latest(winners)                   [dedup BEFORE parse]
      → map_batches(sniff)  [+ gzip detection]   [stateless tasks]
      → map_batches(ExtractDispatch)             [PDF/HTML/text by row]
      → write_parquet per wave                   [resume unit]
    metrics + survivor digest ← written files    [driver read, no Ray]
      → manifest

Design notes for 100 TB scale:
- The raw ``html`` payload column is projected away at the dispatch
  stage — nothing heavy ever enters the dedup shuffle (SURVEY.md §4.3).
- Extraction is one single-pass per-row dispatch (the reference's M8
  content-type switch, main.ts:277-280, generalized) run as stateless
  tasks over mixed batches, with a small ``batch_size`` so a giant PDF
  cannot stall a 256-row batch. Rows parse one at a time with no state
  carried across rows, so oversized payloads are bounded by Ray block
  splitting + the dispatch ``batch_size``.
- Resume granularity is an input **wave** (a bounded group of input
  files; ``files_per_wave=1`` makes it one file): each wave is one
  streaming pipeline run whose output dir + manifest are finalized
  atomically; a restarted job skips completed waves
  (state/manifest.py). Dedup is global across waves: ``run_extract``
  computes the winners once over EVERY input file, so a url duplicated
  in two waves survives only in the wave holding its latest row.
- A wave is one Ray execution: its manifest metrics and survivor
  digest come from a driver-side read of the files it wrote; only a
  restart re-derives the digest from the input (``wave_digest``).
"""

from __future__ import annotations

import os
import time
from typing import Any

import pyarrow as pa
import pyarrow.compute as pc

from ..schemas import DOC_TYPE_HTML, DOC_TYPE_PDF, DOC_TYPE_TEXT
from ..stages.charset import decode_payload as decode_html_payload
from ..stages.html_extract import extract_html_text
from ..stages.joins import probe_sorted
from ..stages.pdf_extract import extract_pdf_text
from ..stages.sniff import sniff_batch, unwrap_payload
from ..state import manifest as mstate

DEFAULT_BATCH_SIZE = 64
DEFAULT_FILES_PER_WAVE = 64


def _file_sig(path: str) -> str:
    """Lineage signature for a resume unit's input file: basename plus
    size and mtime, so two different files sharing a basename (a run
    re-pointed at another in_dir) can't false-match a manifest."""
    st = os.stat(path)
    return f"{os.path.basename(path)}:{st.st_size}:{st.st_mtime_ns}"


class ExtractDispatch:
    """Single-pass router+extractor: per row, dispatch on doc_type.

    Stateless: parser tables are module-level, so each worker process
    builds them once at import. Output drops the payload column.
    """

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..stages.zerocopy import binary_views

        doc_types = batch["doc_type"].to_pylist()
        # zero-copy memoryviews into the Arrow buffer — to_pylist here
        # memcpy'd every payload byte into Python heap per batch, the
        # single biggest memory-traffic line on the hot path (VERDICT
        # r02 #1); parsers take bytes-like, the PDF tokenizer owns the one
        # remaining copy at its boundary
        payloads = binary_views(batch["html"])
        text_col = batch["text"] if "text" in batch.column_names else None
        gzips = (batch["is_gzip"].to_pylist() if "is_gzip" in batch.column_names
                 else [False] * len(doc_types))
        https = (batch["is_http"].to_pylist() if "is_http" in batch.column_names
                 else [False] * len(doc_types))

        out_text: list[str] = []
        out_pages: list[int] = []
        out_fail: list[bool] = []
        out_fb: list[bool] = []
        out_err: list[str | None] = []
        for i, (dt, payload, gz, ht) in enumerate(
                zip(doc_types, payloads, gzips, https)):
            try:
                # WARC response record: gunzip, strip the HTTP status
                # line + headers, undo chunked/content codings; keep
                # the header charset as the transport-layer decode hint
                payload, charset_hint = unwrap_payload(payload, gz, ht)
                if dt == DOC_TYPE_PDF:
                    r = extract_pdf_text(payload)
                    out_text.append(r.text)
                    out_pages.append(r.n_pages)
                    out_fail.append(False)
                    out_fb.append(r.fallback)
                elif dt == DOC_TYPE_HTML:
                    out_text.append(extract_html_text(
                        decode_html_payload(payload, charset_hint)))
                    out_pages.append(1)
                    out_fail.append(False)
                    out_fb.append(False)
                else:  # passthrough (FIXTURES.md row kind 3)
                    text = (text_col[i].as_py()
                            if text_col is not None else None)
                    if text is not None:
                        out_text.append(text)
                    else:
                        out_text.append(
                            decode_html_payload(payload, charset_hint)
                            if payload else "")
                    out_pages.append(1)
                    out_fail.append(False)
                    out_fb.append(False)
                out_err.append(None)
            except Exception as e:
                out_text.append("")
                out_pages.append(0)
                out_fail.append(True)
                out_fb.append(False)
                # exception CLASS, not message: deterministic across
                # runs/workers, and enough to route reprocessing
                out_err.append(type(e).__name__)
        keep = [c for c in ("url", "warc_ts", "lang", "doc_type") if c in batch.column_names]
        result = batch.select(keep)
        return (
            result.append_column("text_extracted", pa.array(out_text, pa.string()))
            .append_column("n_pages", pa.array(out_pages, pa.int32()))
            .append_column("parse_failure", pa.array(out_fail, pa.bool_()))
            .append_column("fallback", pa.array(out_fb, pa.bool_()))
            .append_column("error_kind", pa.array(out_err, pa.string()))
        )


def extract_pages(ds, *, batch_size: int = DEFAULT_BATCH_SIZE):
    """pages Dataset → extracted-text Dataset (TEXT_SCHEMA + lang).

    Stateless ``map_batches`` tasks: the extractor's state (compiled
    regexes, tag/operator tables) is module-level, amortized per worker
    process at import, so Ray's pre-started worker pool runs batches
    immediately with no pool ramp-up.
    """
    ds = ds.map_batches(sniff_batch, batch_format="pyarrow")
    return ds.map_batches(
        ExtractDispatch().__call__,
        batch_format="pyarrow",
        batch_size=batch_size,
        num_cpus=1.0,
    )


def dedup_pages_latest(ds, num_buckets: int = 64):
    """Exact dedup by url, last-write-wins by warc_ts (SURVEY.md §2.6).

    Implementation: explicit hash-partitioned dedup — add
    ``bucket = stable_hash(url) % B``, shuffle on the bucket, then ONE
    vectorized pandas dedup per bucket. (A naive
    ``groupby("url").map_groups`` invokes Python once per url — a serial
    floor that capped scaling efficiency at ~0.3 on 40k docs; bucketing
    makes the per-group work O(B) vectorized calls.) Runs AFTER
    extraction so only extracted text, never raw payloads, enters the
    shuffle. Deterministic: max warc_ts per url, stable-sort tiebreak.
    At cluster scale, size B ≳ 4× total cores."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from ..stages.groups import arrow_out

    # arrow-declared boundary maps: the declared format of the map
    # fused into the bucket exchange decides the exchange's block type
    # (groups.arrow_out rationale) — with text payloads in the shuffle
    # the pandas per-row path is the difference that matters
    def add_bucket(t: pa.Table) -> pa.Table:
        h = (pd.util.hash_array(
            np.asarray(t["url"].to_pylist(), dtype=object)) % num_buckets
        ).astype("int64")
        return t.append_column("_bucket", pa.array(h, pa.int64()))

    def dedup_bucket(t: pa.Table):
        g = t.to_pandas()
        # Secondary tiebreak: a content hash over the full row — for
        # equal (url, warc_ts) the winner must not depend on block
        # arrival order, which varies across runs.
        row_hash = pd.util.hash_pandas_object(
            g.drop(columns=["_bucket"]), index=False
        ).astype("uint64")
        g = g.assign(_rh=row_hash).sort_values(
            ["url", "warc_ts", "_rh"], kind="stable")
        return arrow_out(g.drop_duplicates("url", keep="last")
                         .drop(columns=["_bucket", "_rh"]))

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(dedup_bucket, batch_format="pyarrow")
    )


def compute_latest_winners(pages_paths):
    """(sorted urls, ts) winner arrays — url → max warc_ts — from a
    PROJECTION-ONLY read of the input (columns pruned at the scan:
    ~50 bytes/row instead of payloads).

    Per-batch partial max (vectorized pandas groupby) → tiny partials →
    final merge. Returned as two parallel numpy arrays SORTED BY URL so
    the semi-join probe is one ``probe_sorted`` per batch (no Python
    dict, no per-row probing). The winner set materializes on the
    driver and is broadcast once; ``filter_latest`` deserializes it
    once per worker process."""
    import pandas as pd
    import ray

    import ray.data as rd

    # the pruned 2-column scan is tiny per file — cap task count at the
    # CPU count so many-small-file inputs don't pay per-task overhead
    # 156× over (measured: 156 files → 6-9 s as 156 tasks, 0.6 s capped;
    # capping below the file count groups files per task, it never
    # splits row groups)
    ncpu = int(ray.cluster_resources().get("CPU", 8))
    proj = rd.read_parquet(pages_paths, columns=["url", "warc_ts"],
                           override_num_blocks=max(2, ncpu))

    def partial_max(b: pd.DataFrame) -> pd.DataFrame:
        return b.groupby("url", sort=False, as_index=False)["warc_ts"].max()

    partials = proj.map_batches(partial_max, batch_format="pandas").to_pandas()
    winners = (
        partials.groupby("url", sort=False, as_index=False)["warc_ts"].max()
        .sort_values("url", kind="stable")
    )
    urls = winners["url"].to_numpy(dtype=object)
    ts = winners["warc_ts"].to_numpy().astype("datetime64[us]").view("int64")
    return urls, ts


# Per-worker-process memo for deserialized broadcast state: ray.get of
# a plain-Python object deserializes it ON EVERY CALL (numpy arrays are
# zero-copy but the object-dtype url array is not), so the hot path
# caches by ObjectRef. Worker processes are reused across tasks, making
# this a once-per-worker cost — the actor-__init__ pattern, available
# to stateless tasks too.
_BROADCAST_CACHE: dict = {}


def _cached_get(ref):
    import ray

    if not isinstance(ref, ray.ObjectRef):
        return ref
    key = ref.hex()
    if key not in _BROADCAST_CACHE:
        _BROADCAST_CACHE.clear()  # one live broadcast per stage; avoid growth
        _BROADCAST_CACHE[key] = ray.get(ref)
    return _BROADCAST_CACHE[key]


def _keys(t) -> tuple:
    """A table's (url, warc_ts) rows as (object array, int64 µs array)."""
    import numpy as np

    return (np.asarray(t["url"].to_pylist(), dtype=object),
            t["warc_ts"].to_numpy(zero_copy_only=False)
            .astype("datetime64[us]").view("int64"))


def _winner_mask(b: pa.Table, urls: "Any", ts: "Any") -> pa.Array:
    """Arrow mask of ``b``'s winner rows (its (url, warc_ts) found in
    the url-sorted winner arrays); perfbench's single-process replay
    filters with it too."""
    burls, bts = _keys(b)
    hit, idx = probe_sorted(urls, burls)
    hit[hit] = ts[idx[hit]] == bts[hit]
    return pa.array(hit)


def filter_latest(ds, winners_ref):
    """Broadcast semi-join: keep a row iff its (url, warc_ts) is the
    winner. Runs BEFORE extraction so stale duplicates are never parsed
    — dedup costs a pruned scan + a vectorized per-batch searchsorted
    probe instead of an all-to-all shuffle of extracted text (which cost
    more than the extraction itself at 80k docs). The winner arrays are
    deserialized once per worker process (``_cached_get``), not per
    batch."""
    def keep(b: pa.Table) -> pa.Table:
        urls, ts = _cached_get(winners_ref)
        # arrow-native filter: the payload column never leaves Arrow
        # (a pandas filter here copied the full payload bytes per batch)
        return b.filter(_winner_mask(b, urls, ts))

    return ds.map_batches(keep, batch_format="pyarrow")


def quarantine_failures(extracted, out_dir: str):
    """Dead-letter sink: the parse-failure rows of an extraction
    output, reduced to (url, warc_ts, doc_type, error_kind), written
    to their own parquet. The payload is NOT copied — the url keys
    back into the source corpus, so reprocessing is a semi-join read
    of exactly the quarantined pages (the same broadcast-winners
    machinery the dedup path uses) after the parser fix ships.
    Returns the quarantined row count."""

    def failed(t: pa.Table) -> pa.Table:
        t = t.filter(t["parse_failure"])
        keep = [c for c in ("url", "warc_ts", "doc_type", "error_kind")
                if c in t.column_names]
        return t.select(keep)

    q = extracted.map_batches(failed, batch_format="pyarrow")
    q.write_parquet(out_dir)
    import pyarrow.parquet as pq

    return sum(
        pq.ParquetFile(os.path.join(out_dir, f)).metadata.num_rows
        for f in os.listdir(out_dir) if f.endswith(".parquet"))


def extract_corpus_pipeline(pages_dir: str, *, override_num_blocks: int | None = None,
                            batch_size: int = DEFAULT_BATCH_SIZE):
    """The headline composition: prededup winners (broadcast semi-join)
    → sniff → extract. No all-to-all anywhere."""
    import ray
    import ray.data as rd

    winners_ref = ray.put(compute_latest_winners(pages_dir))
    kwargs = {"override_num_blocks": override_num_blocks} if override_num_blocks else {}
    ds = rd.read_parquet(pages_dir, **kwargs)
    return extract_pages(filter_latest(ds, winners_ref), batch_size=batch_size)


def _survivor_mix(t) -> tuple[int, int]:
    """(XOR, count) of mixed (url, warc_ts) hashes over a table's rows —
    one partial of the survivor digest. XOR and count merge in any
    order, so the digest is scheduling- and partitioning-independent."""
    import numpy as np
    import pandas as pd

    urls, ts = _keys(t)
    z = pd.util.hash_array(urls) ^ ts.view("uint64")
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return (int(np.bitwise_xor.reduce(z)) if len(z) else 0), len(z)


def _digest(parts) -> str:
    acc = n = 0
    for x, m in parts:
        acc ^= x
        n += m
    return f"{acc:016x}:{n}"


def _written_wave(wdir: str) -> tuple[dict[str, int], str]:
    """(manifest metrics, survivor digest) of a finished wave, streamed
    from the small columns of the files it wrote. A wave writes exactly
    its surviving rows, so the digest equals ``wave_digest``'s."""
    import pyarrow.dataset as pads

    keys = ("rows", "pdf_docs", "html_docs", "text_docs", "pages",
            "parse_failures", "fallbacks")
    metrics = dict.fromkeys(keys, 0)
    parts = []
    d = pads.dataset(wdir, format="parquet", partitioning="hive")
    # a fully deduped wave writes no file, so there is no schema to read
    for b in d.to_batches(columns=["url", "warc_ts", "doc_type", "n_pages",
                                   "parse_failure", "fallback"]) if d.files else ():
        parts.append(_survivor_mix(b))
        dt = b["doc_type"]
        metrics["rows"] += b.num_rows
        for k, a in zip(keys[1:], (
                pc.equal(dt, DOC_TYPE_PDF), pc.equal(dt, DOC_TYPE_HTML),
                pc.equal(dt, DOC_TYPE_TEXT), b["n_pages"], b["parse_failure"],
                b["fallback"])):
            metrics[k] += pc.sum(a.cast(pa.int64())).as_py() or 0
    return metrics, _digest(parts)


def run_extract(
    in_dir: str,
    out_dir: str,
    *,
    files_per_wave: int = DEFAULT_FILES_PER_WAVE,
    dedup: bool = True,
    batch_size: int = DEFAULT_BATCH_SIZE,
    partition_output: int | None = None,
    winners_mode: str = "broadcast",
    sort_output: bool = False,
) -> dict[str, Any]:
    """Resumable wave-based run over every parquet file in ``in_dir``.

    Completed waves are skipped on restart — a wave counts as complete
    only if its manifest's recorded ``input_files`` match the wave's
    current composition, so INCREMENTAL CORPUS GROWTH (new input files
    appearing between runs, wherever they sort) self-heals by
    reprocessing exactly the shifted waves. Corpus SHRINK is not
    reconciled: orphan wave dirs beyond the new wave count are left in
    place — use a fresh out_dir when removing inputs. Returns the run
    summary (state/manifest.summarize). ``files_per_wave=1`` makes the
    resume unit one input file, so a kill redoes only unfinished files.

    Dedup is the broadcast semi-join: ``compute_latest_winners`` once on
    the driver, ``filter_latest`` in every wave. ``winners_mode`` accepts
    only its one value, "broadcast"."""
    import ray.data as rd

    if winners_mode != "broadcast":
        raise ValueError(f"unknown winners_mode {winners_mode!r}; "
                         "the only dedup path is 'broadcast'")

    files = sorted(
        os.path.join(in_dir, f) for f in os.listdir(in_dir) if f.endswith(".parquet")
    )
    if not files:
        raise ValueError(f"no parquet files in {in_dir}")
    waves = [files[i : i + files_per_wave] for i in range(0, len(files), files_per_wave)]
    manifests = mstate.load_manifests(out_dir)
    winners_ref = None
    if dedup:
        # GLOBAL prededup: winners from a pruned (url, warc_ts) scan of
        # ALL input files (not per wave — a per-wave map would let
        # duplicate urls spanning wave boundaries survive). The scan
        # touches two small columns; the winner arrays broadcast once
        # and every wave's semi-join filter reuses them.
        import ray

        winners_ref = ray.put(compute_latest_winners(files))

    def latest(ds):
        """The dedup semi-join (identity without dedup)."""
        if winners_ref is not None:
            return filter_latest(ds, winners_ref)
        return ds

    def wave_digest(wave_files: list[str]) -> str:
        """Order-free digest of the wave's SURVIVING (url, warc_ts)
        pairs — exactly what its output depends on — from a pruned scan
        through the wave's own winner filter. Resume only: a wave that
        runs takes its digest from the rows it wrote."""
        proj = latest(rd.read_parquet(wave_files, columns=["url", "warc_ts"]))
        return _digest(_survivor_mix(b)
                       for b in proj.iter_batches(batch_format="pyarrow"))

    # Lineage-validated resume: a wave counts as done ONLY if (a) its
    # manifest's recorded input_files equal the wave's CURRENT
    # composition — appending input files that sort before existing
    # ones shifts every later wave's membership; blind index-based
    # skipping would silently drop some files and double-process
    # others — AND (b) under dedup, its recorded survivor digest still
    # matches: a newer duplicate arriving in ANOTHER file demotes this
    # wave's row from winner to loser, so the wave must re-run even
    # though its own files are unchanged. Mismatched waves reprocess
    # (run_wave clears their dir first) — incremental corpus growth
    # self-heals whatever the sort order. The file signatures
    # (basename:size:mtime — basenames alone false-match a re-pointed
    # in_dir) are taken once, before any wave reads, and the manifest
    # records these: a file replaced while its wave runs then fails the
    # check on restart.
    sigs = [[_file_sig(f) for f in wf] for wf in waves]
    done = set()
    for i, wf in enumerate(waves):
        m = manifests.get(i)
        if m is None or m.get("input_sigs") != sigs[i]:
            continue
        if dedup and m.get("survivor_digest") != wave_digest(wf):
            continue
        done.add(i)
    import shutil as _shutil

    def run_wave(wave_files: list[str], wdir: str) -> tuple[dict[str, Any], str]:
        """Extract → write to a temp dir → atomic rename → (metrics,
        digest) from the written files. Ray write_parquet file names
        are unique per execution, so re-running a crashed wave into the
        same dir would silently ADD rows alongside the partial output of
        the failed attempt — stale partial (or renamed-but-unmanifested)
        dirs are removed first; the manifest, written last, is the only
        completion marker."""
        t0 = time.perf_counter()
        ds = extract_pages(latest(rd.read_parquet(wave_files)),
                           batch_size=batch_size)
        if sort_output:
            # deterministic row ordering across the wave's files
            # (SURVEY §2.6: sort key = url, stable diffable output);
            # one range-partitioned shuffle per wave, applied after
            # extraction so only extracted text moves
            ds = ds.sort("url")
        wtmp = wdir + ".__tmp__"
        _shutil.rmtree(wtmp, ignore_errors=True)
        _shutil.rmtree(wdir, ignore_errors=True)
        os.makedirs(wtmp, exist_ok=True)  # a fully-deduped wave is empty
        if partition_output:
            import pandas as pd

            def add_part(b: pd.DataFrame, n=partition_output) -> pd.DataFrame:
                b = b.copy()
                b["part_id"] = (
                    pd.util.hash_array(b["url"].to_numpy(dtype=object)) % n
                ).astype("int64")
                return b

            # stable output layout: part_id = hash(url) % P (SURVEY §4.2)
            ds.map_batches(add_part, batch_format="pandas").write_parquet(
                wtmp, partition_cols=["part_id"])
        else:
            ds.write_parquet(wtmp)
        os.replace(wtmp, wdir)
        metrics, digest = _written_wave(wdir)
        elapsed = time.perf_counter() - t0
        metrics["wall_sec"] = round(elapsed, 3)
        metrics["docs_per_sec"] = round(metrics["rows"] / elapsed, 2) if elapsed else 0.0
        return metrics, digest

    for wave_idx, wave_files in enumerate(waves):
        if wave_idx in done:
            continue
        metrics, digest = run_wave(wave_files, mstate.wave_dir(out_dir, wave_idx))
        payload: dict[str, Any] = {
            "wave": wave_idx,
            "input_files": [os.path.basename(f) for f in wave_files],
            "input_sigs": sigs[wave_idx],
            "metrics": metrics,
        }
        if dedup:
            payload["survivor_digest"] = digest
        mstate.write_manifest(out_dir, wave_idx, payload)
    return mstate.summarize(out_dir)
