"""Measure this host's process-scaling CEILING without Ray.

The sandbox VM is a shared host whose memory bandwidth does not scale
with worker count: even plain ``multiprocessing`` running the actual
extraction code caps well below 4x from 8→32 processes. That ceiling —
not Ray, not the pipeline — bounds any engine's measurable end-to-end
scaling efficiency here. This script reproduces the measurement so
`bench.py --scaling` can report efficiency both RAW and NORMALIZED to
the host ceiling (the round-1 verdict asked for both, scripted).

Method: fork-shared corpus payloads (no pickling in the timed region),
identical per-doc extraction work (sniff → PDF/HTML/text extract),
interleaved legs (8, 32, 8, 32) with per-leg best — the same
noise-defense bench.py uses.

Usage: python tools/mp_ceiling.py
Prints one JSON line:
  {"metric": "mp scaling ceiling", "eff_extract": ..., "lo": 8,
   "hi": 32, "sec_lo": ..., "sec_hi": ..., "docs": N}
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

N_DOCS = int(os.environ.get("CEILING_DOCS", "12000"))
REPS = int(os.environ.get("CEILING_REPS", "2"))
# Override the corpus the ceiling reads (glob). Short legs on a small
# corpus OVERSTATE the ceiling — sustained memory-bandwidth contention
# only shows up once the hi leg runs for several seconds (measured:
# eff 0.81 at 12k docs / 1.1 s legs vs 0.66 at 21k / 2.2 s legs in the
# SAME window). For normalizing a scaling run, point this at the same
# corpus the run used (bench.py --scaling does).
CORPUS_GLOB = os.environ.get("CEILING_CORPUS_GLOB", "")

_PAYLOADS: list[tuple[bytes, str | None]] = []  # fork-shared


def _load_payloads() -> None:
    import glob

    import pyarrow.parquet as pq

    from pdf_to_text_ray.fixtures.corpus import GENERATOR_VERSION

    pat = (CORPUS_GLOB or
           f"/tmp/ptt_corpus/v{GENERATOR_VERSION}_n20000_s42_heavy/pages/*.parquet")
    files = sorted(glob.glob(pat))
    if not files:
        raise SystemExit(
            f"no warmed corpus at {pat} — run `python bench.py` once first")
    rows: list[tuple[bytes, str | None]] = []
    for f in files:
        t = pq.read_table(f, columns=["html", "text"])
        rows.extend(zip(t["html"].to_pylist(), t["text"].to_pylist()))
        if len(rows) >= N_DOCS:
            break
    _PAYLOADS.extend(rows[:N_DOCS])


def _work(span: tuple[int, int]) -> int:
    """Extract docs [lo, hi) — the identical per-row work the Ray
    pipeline's dispatch stage performs."""
    from pdf_to_text_ray.pipelines.extract import decode_html_payload
    from pdf_to_text_ray.stages.html_extract import extract_html_text
    from pdf_to_text_ray.stages.pdf_extract import extract_pdf_text

    lo, hi = span
    n = 0
    for payload, text in _PAYLOADS[lo:hi]:
        try:
            if payload[:5] == b"%PDF-":
                extract_pdf_text(payload)
            elif text is not None:
                pass  # passthrough row
            else:
                extract_html_text(decode_html_payload(payload))
        except Exception:
            pass
        n += 1
    return n


def _run_leg(nproc: int) -> float:
    chunks = []
    step = max(1, len(_PAYLOADS) // (nproc * 4))
    for lo in range(0, len(_PAYLOADS), step):
        chunks.append((lo, min(lo + step, len(_PAYLOADS))))
    with mp.get_context("fork").Pool(nproc) as pool:
        # warm the pool (imports + fork) outside the timed region: pool
        # startup is O(nproc) and would bias the wide leg on short runs
        pool.map(_work, [(0, 1)] * nproc)
        t0 = time.perf_counter()
        total = sum(pool.map(_work, chunks))
        dt = time.perf_counter() - t0
    assert total == len(_PAYLOADS)
    return dt


def main() -> None:
    _load_payloads()
    lo, hi = 8, 32
    times: dict[int, list[float]] = {lo: [], hi: []}
    for _ in range(REPS):
        for n in (lo, hi):  # interleaved legs
            times[n].append(_run_leg(n))
    sec_lo, sec_hi = min(times[lo]), min(times[hi])
    eff = (sec_lo / sec_hi) / (hi / lo)
    print(json.dumps({
        "metric": "mp scaling ceiling (identical extraction code, no Ray)",
        "eff_extract": round(eff, 3),
        "lo": lo, "hi": hi,
        "sec_lo": round(sec_lo, 2), "sec_hi": round(sec_hi, 2),
        "sec_lo_runs": [round(t, 2) for t in times[lo]],
        "sec_hi_runs": [round(t, 2) for t in times[hi]],
        "docs": len(_PAYLOADS),
    }))


if __name__ == "__main__":
    main()
