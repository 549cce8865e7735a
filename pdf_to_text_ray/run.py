"""CLI entry point — the ``ray job submit`` target.

    python -m pdf_to_text_ray.run --in-dir PAGES_DIR --out-dir OUT [--cpus N]

On a cluster:

    ray job submit --working-dir . -- python -m pdf_to_text_ray.run \
        --in-dir /data/pages --out-dir /data/extracted

Owns the Ray session (guarded init — attaches to an existing cluster
via RAY_ADDRESS, starts local otherwise). Resumable: re-running with
the same --out-dir skips completed waves (state/manifest.py). Unless
--no-dedup is given, each url keeps only its rows with the latest
warc_ts, chosen before parsing by one broadcast semi-join over all
input files.
"""

from __future__ import annotations

import argparse
import json


def main(argv: list[str] | None = None) -> int:
    from .pipelines.extract import (DEFAULT_BATCH_SIZE,
                                    DEFAULT_FILES_PER_WAVE, run_extract)

    ap = argparse.ArgumentParser(description="Ray-Data-native page extraction")
    ap.add_argument("--in-dir", required=True, help="directory of pages parquet")
    ap.add_argument("--out-dir", required=True, help="output root (waves + manifests)")
    ap.add_argument("--files-per-wave", type=int, default=DEFAULT_FILES_PER_WAVE)
    ap.add_argument("--no-dedup", action="store_true")
    ap.add_argument("--batch-size", type=int, default=DEFAULT_BATCH_SIZE)
    ap.add_argument("--cpus", type=int, default=None,
                    help="num_cpus for a local session (ignored on a cluster)")
    ap.add_argument("--partition-output", type=int, default=None,
                    help="partition wave output by hash(url) %% N")
    ap.add_argument("--sort-output", action="store_true",
                    help="globally sort each wave's output rows by url"
                         " (stable diffable layout; one shuffle per wave)")
    args = ap.parse_args(argv)

    import ray

    if not ray.is_initialized():
        kwargs = {"include_dashboard": False, "ignore_reinit_error": True}
        if args.cpus:
            kwargs.update(address="local", num_cpus=args.cpus)
        ray.init(**kwargs)

    try:
        summary = run_extract(
            args.in_dir,
            args.out_dir,
            files_per_wave=args.files_per_wave,
            dedup=not args.no_dedup,
            batch_size=args.batch_size,
            partition_output=args.partition_output,
            sort_output=args.sort_output,
        )
        print(json.dumps(summary))
    finally:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
