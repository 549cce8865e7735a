"""Checkpoint manifests for resumable runs.

The reference has no resume at all — a retry re-creates NEW UUID-keyed
objects, orphaning the old ones (src/main.ts:157,241,247). Here output
keys are deterministic (wave index + url) and every completed wave gets
an atomically-renamed manifest JSON carrying lineage + metrics, so a
restarted job skips finished waves (SURVEY.md §4.2 "checkpoint/resume").

Layout:
    out_dir/
      wave=00000/ *.parquet          # one directory per input wave
      _manifests/wave-00000.json     # written AFTER the wave's data

Resume granularity: the wave manifest marks the whole wave done;
``files_per_wave=1`` makes the resume unit one input file.
A manifest's ``metrics`` (counts, wall time, rate) and, under dedup,
its ``survivor_digest`` (``"{xor:016x}:{rows}"`` over the surviving
(url, warc_ts) pairs) come from one driver-side read of the wave's
written parquet; a restart recomputes the digest from the input.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from typing import Any

MANIFEST_DIR = "_manifests"
# {5,}: the :05d writer GROWS past its pad at scale (>100k waves) — a
# fixed width would make load_manifests silently skip them and resume
# re-run forever
_WAVE_RE = re.compile(r"^wave-(\d{5,})\.json$")


def manifest_path(out_dir: str, wave_idx: int) -> str:
    return os.path.join(out_dir, MANIFEST_DIR, f"wave-{wave_idx:05d}.json")


def wave_dir(out_dir: str, wave_idx: int) -> str:
    return os.path.join(out_dir, f"wave={wave_idx:05d}")


def write_manifest(out_dir: str, wave_idx: int, payload: dict[str, Any]) -> str:
    """Temp file + rename: a partially-written manifest can never mark
    a wave as complete."""
    path = manifest_path(out_dir, wave_idx)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def load_manifests(out_dir: str) -> dict[int, dict[str, Any]]:
    mdir = os.path.join(out_dir, MANIFEST_DIR)
    out: dict[int, dict[str, Any]] = {}
    if not os.path.isdir(mdir):
        return out
    for name in sorted(os.listdir(mdir)):
        m = _WAVE_RE.match(name)
        if m:
            with open(os.path.join(mdir, name)) as f:
                payload = json.load(f)
            out[int(m.group(1))] = payload
    return out


def summarize(out_dir: str) -> dict[str, Any]:
    """Driver-side aggregation of all wave manifests → run report."""
    manifests = load_manifests(out_dir)
    totals: dict[str, float] = {}
    for m in manifests.values():
        for k, v in m.get("metrics", {}).items():
            if isinstance(v, (int, float)):
                totals[k] = totals.get(k, 0) + v
    if totals.get("wall_sec"):  # a rate does not sum over waves
        totals["docs_per_sec"] = round(totals["rows"] / totals["wall_sec"], 2)
    return {
        "waves": len(manifests),
        "metrics": totals,
        "input_files": sorted(
            f for m in manifests.values() for f in m.get("input_files", [])
        ),
    }
