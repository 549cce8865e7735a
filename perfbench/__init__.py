"""Benchmark of the extract job and the pinned query suite; see run.py."""
