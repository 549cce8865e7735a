"""Time every queries() entry at a given sf (no oracle compare) and
print a JSON object {name: sec} sorted slowest-first — the input for
picking bench.py's pinned slow-tier list and for spotting regressions.

Usage: PYTHONPATH=. python tools/time_queries.py [sf_dir] [out.json]
(from the checkout root)
"""

from __future__ import annotations

import json
import sys
import time


def main() -> None:
    sf = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.1"
    out_path = sys.argv[2] if len(sys.argv) > 2 else None

    import ray

    ray.init(address="local", num_cpus=32, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import pyarrow as pa

    import ray.data

    from pdf_to_text_ray.pipelines.queries import QUERIES

    def consume(result):
        if isinstance(result, ray.data.Dataset):
            return result.count()
        if isinstance(result, pa.Table):
            return result.num_rows
        return len(result)

    timings: dict[str, float] = {}
    for name, fn in QUERIES.items():
        t0 = time.perf_counter()
        try:
            n = consume(fn(sf))
            dt = time.perf_counter() - t0
            timings[name] = round(dt, 3)
            print(f"{dt:8.3f}s  {name} rows={n}", flush=True)
        except Exception as e:  # noqa: BLE001 — survey must finish
            timings[name] = -1.0
            print(f"  FAIL    {name}: {type(e).__name__}: {e}", flush=True)

    ray.shutdown()
    ranked = dict(sorted(timings.items(), key=lambda kv: -kv[1]))
    blob = json.dumps(ranked, indent=1)
    if out_path:
        with open(out_path, "w") as f:
            f.write(blob)
    print(blob)


if __name__ == "__main__":
    main()
