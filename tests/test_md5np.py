"""The vectorized md5 prefix kernel and the md5 uniform built on it:
bit-identical to hashlib on every path (single block, the 55/56-byte
boundary, the hashlib fallback, calls on either side of the small-call
crossover, sliced and chunked Arrow input)."""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from pdf_to_text_ray.stages import md5np
from pdf_to_text_ray.stages.md5np import _CHUNK, _KERNEL_MIN_KEYS, md5_prefix64
from pdf_to_text_ray.stages.sketches import md5_uniform

SF = "/root/testdata/sf0.001"
SF01 = "/root/testdata/sf0.01"

_ALPHABET = "abcXYZ0189:_- éü中🙂"


def _ref64(keys) -> np.ndarray:
    return np.array([int(hashlib.md5(k.encode()).hexdigest()[:16], 16)
                     for k in keys], np.uint64)


def _ref_uniform(ids) -> np.ndarray:
    """md5_uniform as it was before the kernel: one hashlib call per id."""
    return np.array([int(hashlib.md5(str(i).encode()).hexdigest()[:8], 16)
                     for i in ids], np.float64) / 4294967296.0


def _random_keys(n: int, seed: int, max_bytes: int = 80) -> list[str]:
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        k = ""
        target = rng.randint(0, max_bytes)
        while True:
            c = rng.choice(_ALPHABET)
            if len((k + c).encode()) > target:
                break
            k += c
        out.append(k)
    return out


def test_random_keys_match_hashlib():
    keys = _random_keys(3000, seed=1)
    lens = {len(k.encode()) for k in keys}
    assert min(lens) == 0 and max(lens) > 55       # both paths taken
    assert (md5_prefix64(pa.array(keys)) == _ref64(keys)).all()


def test_block_boundary_and_fallback():
    keys = ["a" * 55, "a" * 56, "a" * 64, "a" * 200,
            "é" * 27 + "a",        # 55 bytes, multi-byte chars
            "é" * 28,              # 56 bytes: hashlib fallback
            "中" * 18 + "a",       # 55 bytes
            "🙂" * 14,             # 56 bytes
            "", "x"]
    assert [len(k.encode()) for k in keys[4:8]] == [55, 56, 55, 56]
    assert (md5_prefix64(pa.array(keys)) == _ref64(keys)).all()
    many = keys * (_KERNEL_MIN_KEYS // len(keys) + 1)   # kernel path
    assert (md5_prefix64(pa.array(many)) == _ref64(many)).all()


@pytest.mark.parametrize("n", [1, 63, _KERNEL_MIN_KEYS - 1,
                               _KERNEL_MIN_KEYS, _KERNEL_MIN_KEYS + 1])
def test_calls_either_side_of_the_crossover(n, monkeypatch):
    """Fewer than _KERNEL_MIN_KEYS keys hash through hashlib and never
    reach the kernel; at and above it the kernel runs. Both paths give
    hashlib's digests."""
    calls = []
    kernel = md5np.md5_single_block
    monkeypatch.setattr(md5np, "md5_single_block",
                        lambda m: calls.append(len(m)) or kernel(m))
    keys = _random_keys(n, seed=n, max_bytes=70)
    assert (md5_prefix64(pa.array(keys)) == _ref64(keys)).all()
    assert bool(calls) == (n >= _KERNEL_MIN_KEYS)


def test_prefix_shifts_spell_the_hex_prefixes():
    keys = _random_keys(200, seed=2, max_bytes=40)
    h = md5_prefix64(pa.array(keys))
    for k, v in zip(keys, h):
        hx = hashlib.md5(k.encode()).hexdigest()
        assert int(v >> np.uint64(32)) == int(hx[:8], 16)
        assert int(v >> np.uint64(16)) == int(hx[:12], 16)


def test_sliced_chunked_and_long_inputs():
    keys = _random_keys(2 * _CHUNK + 37, seed=3, max_bytes=70)
    want = _ref64(keys)
    arr = pa.array(keys)
    assert (md5_prefix64(arr) == want).all()          # > _CHUNK keys
    s = arr.slice(5, _CHUNK + 11)
    assert s.offset == 5
    assert (md5_prefix64(s) == want[5:5 + _CHUNK + 11]).all()
    chunked = pa.chunked_array([arr.slice(0, 100), arr.slice(100, 50)])
    assert (md5_prefix64(chunked) == want[:150]).all()


def test_empty_null_and_non_string():
    out = md5_prefix64(pa.array([], pa.string()))
    assert out.dtype == np.uint64 and len(out) == 0
    assert (md5_prefix64(pa.array(["", ""])) == _ref64(["", ""])).all()
    with pytest.raises(ValueError):
        md5_prefix64(pa.array(["a", None, "b"]))
    with pytest.raises(TypeError):
        md5_prefix64(pa.array(["a"], pa.large_string()))


def test_md5_uniform_unchanged_on_existing_inputs():
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["source"])
    srcs = sorted(set(docs["source"].to_pylist()))
    types = sorted(set(pq.read_table(f"{SF}/events.parquet",
                                     columns=["event_type"])
                       ["event_type"].to_pylist()))
    inputs = [
        srcs,                                    # source split
        [f"src{i}" for i in range(40)],          # planted PSI skew
        [f"dp:{t}" for t in types],              # DP noise
        [f"did:{u}" for u in range(1, 41)],      # DiD treatment
        list(range(-3, 500)),                    # integer ids
        [],
    ]
    for ids in inputs:
        got = md5_uniform(ids)
        assert got.dtype == np.float64
        assert np.array_equal(got, _ref_uniform(ids))
    ids = pq.read_table(f"{SF01}/documents.parquet")["doc_id"]
    assert np.array_equal(md5_uniform(ids), _ref_uniform(ids.to_pylist()))
