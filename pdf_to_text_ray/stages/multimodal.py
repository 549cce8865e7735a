"""Multimodal column plumbing: image/audio/video as opaque binary.

The decode step is REAL for every image/audio/video format in the
corpus — BMP, PPM/PGM, PNG, GIF, baseline JPEG, RIFF/WAVE PCM audio,
and MJPEG-in-MP4 video (full ISO BMFF demux in stages/mp4_codec +
stages/media_codecs + stages/jpeg_codec, all written from the public
format specs) — and falls back to a deterministic fake only for
compressed video codecs (avc1/H.264 …) whose decoder is not in this
container; a real decoder can be injected per deployment
(``decode_fn``), and ``strict=True`` raises instead of faking.
Everything Ray-side is real and tested: schemas, actor signatures,
batch sizing for large binary rows, and output layout.

Pattern: large binary payloads ⇒ SMALL ``batch_size`` and
``batch_format="pyarrow"`` so payload bytes stay zero-copy in the
object store; feature outputs are fixed-size list<float> columns.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

MEDIA_SCHEMA = pa.schema(
    [
        ("media_id", pa.int64()),
        ("media_type", pa.string()),   # "image" | "audio" | "video"
        ("payload", pa.binary()),      # opaque encoded bytes
        ("meta_width", pa.int32()),    # typed metadata travels beside payload
        ("meta_height", pa.int32()),
        ("meta_duration_ms", pa.int32()),
    ]
)

FEATURE_DIM = 64


def _fake_decode(payload: bytes, dim: int = FEATURE_DIM) -> np.ndarray:
    """Deterministic stand-in for a real decoder: features derived from a
    payload digest. Replace via ``decode_fn`` injection."""
    digest = hashlib.blake2b(payload or b"", digest_size=8).digest()
    rng = np.random.RandomState(int.from_bytes(digest[:4], "big"))
    return rng.normal(size=dim).astype(np.float32)


class MediaFeatureExtractor:
    """Actor-pool stage: ``map_batches(MediaFeatureExtractor,
    concurrency=(a,b), batch_size=SMALL, num_cpus=1)``.

    __init__ binds the decoder chain once per actor; __call__ decodes +
    featurizes per batch. Per payload: injected ``decode_fn`` first (if
    any), then the REAL decoders (BMP/PNM/PNG/GIF/JPEG/WAV/MJPEG-MP4 →
    media_codecs.decode_features), then — for sample formats needing
    external codecs (avc1/H.264 …) — a deterministic fake, or
    ``NotImplementedError`` when ``strict=True`` (the marker that a
    compressed-video decoder must be injected in deployments with
    media libraries installed)."""

    def __init__(self, decode_fn=None, strict: bool = False, dim: int = FEATURE_DIM):
        self.decode_fn = decode_fn
        self.strict = strict
        self.dim = dim

    def _features(self, payload: bytes) -> np.ndarray:
        from .media_codecs import UnsupportedMediaError, decode_features

        if self.decode_fn is not None:
            try:
                return self.decode_fn(payload)
            except UnsupportedMediaError:
                pass
        try:
            return decode_features(payload, self.dim)
        except UnsupportedMediaError as e:
            if self.strict:
                raise NotImplementedError(
                    f"{e} — inject a decode_fn for this format") from e
            return _fake_decode(payload, self.dim)

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch["payload"].to_pylist()
        feats = np.stack([self._features(p) for p in payloads]) if payloads else \
            np.zeros((0, self.dim), dtype=np.float32)
        feat_col = pa.FixedSizeListArray.from_arrays(
            pa.array(feats.ravel(), pa.float32()), self.dim
        )
        keep = [c for c in batch.column_names if c != "payload"]
        return batch.select(keep).append_column("features", feat_col)


class VideoFrameSampler:
    """Actor-pool flat-map stage: one input video row → one output row
    per sampled frame (id, frame index, timestamp, dims, luma stats).
    Real demux/decode via stages/mp4_codec for MJPEG samples; rows
    whose codec needs an external decoder are emitted with
    ``decodable=False`` (or dropped with ``skip_undecodable=True``) so
    a 100-TB run degrades per-row, never per-job."""

    def __init__(self, max_frames: int = 8, skip_undecodable: bool = False):
        self.max_frames = max_frames
        self.skip_undecodable = skip_undecodable

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .mp4_codec import Mp4Error, decode_mp4_frames, parse_mp4

        out = {k: [] for k in ("media_id", "frame_idx", "ts_ms", "width",
                               "height", "luma_mean", "decodable")}
        for mid, payload in zip(batch["media_id"].to_pylist(),
                                batch["payload"].to_pylist()):
            try:
                info = parse_mp4(payload)
                frames = decode_mp4_frames(payload, self.max_frames)
            except Mp4Error:
                if not self.skip_undecodable:
                    out["media_id"].append(mid)
                    out["frame_idx"].append(-1)
                    out["ts_ms"].append(0)
                    out["width"].append(0)
                    out["height"].append(0)
                    out["luma_mean"].append(0.0)
                    out["decodable"].append(False)
                continue
            track = [t for t in info.tracks if t.handler == "vide"][0]
            n_total = max(len(track.sample_ranges), 1)
            step_ms = info.duration_ms / n_total
            for i, f in enumerate(frames):
                out["media_id"].append(mid)
                out["frame_idx"].append(i)
                out["ts_ms"].append(int(round(i * step_ms)))
                out["width"].append(f.shape[1])
                out["height"].append(f.shape[0])
                out["luma_mean"].append(float(
                    (0.2126 * f[:, :, 0] + 0.7152 * f[:, :, 1]
                     + 0.0722 * f[:, :, 2]).mean()))
                out["decodable"].append(True)
        return pa.table({
            "media_id": pa.array(out["media_id"], pa.int64()),
            "frame_idx": pa.array(out["frame_idx"], pa.int32()),
            "ts_ms": pa.array(out["ts_ms"], pa.int32()),
            "width": pa.array(out["width"], pa.int32()),
            "height": pa.array(out["height"], pa.int32()),
            "luma_mean": pa.array(out["luma_mean"], pa.float32()),
            "decodable": pa.array(out["decodable"], pa.bool_()),
        })


def sample_video_frames(ds, *, concurrency=(1, 8), batch_size: int = 8,
                        max_frames: int = 8):
    """Dataset[MEDIA_SCHEMA video rows] → per-frame rows. Small batch
    size: decoded frames × batch_size × concurrency bound worker
    heaps, not the encoded payload size."""
    return ds.map_batches(
        VideoFrameSampler,
        fn_constructor_kwargs={"max_frames": max_frames},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=1,
    )


class ImageResizer:
    """Actor-pool resize stage: decode (in-repo stdlib codecs) →
    nearest-neighbor resize → PPM re-encode, one thumbnail per image
    row. Non-image and external-codec payloads degrade per row
    (``decodable=False``, empty thumb) instead of failing the batch —
    the Common-Crawl reality is a long tail of undecodable media.

    ``decode_fn``: optional injected decoder tried FIRST (the hook for
    PIL/ffmpeg-backed deployments); must return (H, W, 3) uint8 or
    raise ``UnsupportedMediaError``."""

    def __init__(self, width: int = 32, height: int = 32,
                 decode_fn=None):
        self.width = int(width)
        self.height = int(height)
        self.decode_fn = decode_fn

    def _thumb(self, payload: bytes) -> bytes | None:
        from .media_codecs import (
            UnsupportedMediaError,
            decode_image,
            encode_ppm,
            resize_nearest,
        )

        img = None
        if self.decode_fn is not None:
            try:
                img = self.decode_fn(payload)
            except UnsupportedMediaError:
                img = None
        if img is None:
            try:
                img = decode_image(payload)
            except UnsupportedMediaError:
                return None
        return encode_ppm(resize_nearest(img, self.width, self.height))

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch["payload"].to_pylist()
        thumbs = [self._thumb(p) for p in payloads]
        keep = [c for c in batch.column_names if c != "payload"]
        out = batch.select(keep)
        out = out.append_column(
            "thumb", pa.array([t or b"" for t in thumbs], pa.binary()))
        out = out.append_column(
            "thumb_w", pa.array([self.width] * len(thumbs), pa.int32()))
        out = out.append_column(
            "thumb_h", pa.array([self.height] * len(thumbs), pa.int32()))
        return out.append_column(
            "decodable", pa.array([t is not None for t in thumbs],
                                  pa.bool_()))


def resize_images(ds, *, width: int = 32, height: int = 32,
                  concurrency=(1, 8), batch_size: int = 16,
                  decode_fn=None):
    """Dataset[MEDIA_SCHEMA] → per-row PPM thumbnails via the
    ImageResizer actor pool. Small batches: payload bytes ×
    batch_size × concurrency must fit worker heaps."""
    return ds.map_batches(
        ImageResizer,
        fn_constructor_kwargs={"width": width, "height": height,
                               "decode_fn": decode_fn},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=1,
    )


def extract_media_features(ds, *, concurrency=(1, 8), batch_size: int = 16):
    """Dataset[MEDIA_SCHEMA] → features dataset. Small batches: payload
    bytes × batch_size × concurrency must fit worker heaps."""
    return ds.map_batches(
        MediaFeatureExtractor,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=1,
    )


# ── perceptual-hash image near-dup (pHash + Hamming banding) ─────────
# pHash (Zauner 2010, "Implementation and Benchmarking of Perceptual
# Image Hash Functions"): grayscale → 32×32 resample → 2-D DCT-II →
# 8×8 low-frequency block (DC dropped) → median threshold = 64 bits.
# Near-identical pixels (re-encode, mild noise, resize) land within a
# few Hamming bits; the pair search reuses the simhash 4×16-bit band
# pigeonhole (complete for Hamming ≤ 3, high-recall above), so only
# (media_id, band, band_val, phash) fixed-width rows ever shuffle —
# the image payloads never leave the decode stage.

_DCT32 = None


def _dct32_matrix() -> np.ndarray:
    global _DCT32
    if _DCT32 is None:
        n = np.arange(32)
        _DCT32 = np.cos(np.pi * (2 * n[None, :] + 1) * n[:, None] / 64.0)
    return _DCT32


def phash64(img: np.ndarray) -> int:
    """64-bit perceptual hash of an (H, W[, 3]) uint8 image."""
    g = img.astype(np.float64)
    if g.ndim == 3:
        g = g.mean(axis=2)
    h, w = g.shape
    if h == 0 or w == 0:
        return 0
    # nearest-neighbor 32×32 resample (deterministic, size-invariant)
    yi = np.minimum((np.arange(32) * h) // 32, h - 1)
    xi = np.minimum((np.arange(32) * w) // 32, w - 1)
    small = g[np.ix_(yi, xi)]
    c = _dct32_matrix()
    d = c @ small @ c.T
    vals = d[:8, :8].ravel()[1:]  # 63 low-freq coeffs, DC dropped
    bits = vals > np.median(vals)
    out = 0
    for i, b in enumerate(bits):
        if b:
            out |= 1 << i
    return out


class ImagePHasher:
    """Actor-pool stage: decode each image payload (in-repo codecs,
    injectable ``decode_fn`` first) and emit its 64-bit pHash.
    Non-image and undecodable rows are dropped (``decodable`` column
    semantics live in the resize stage; the hash stage only feeds the
    near-dup search)."""

    def __init__(self, decode_fn=None):
        self.decode_fn = decode_fn

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .media_codecs import UnsupportedMediaError, decode_image

        ids: list[int] = []
        hashes: list[int] = []
        for mid, mtype, payload in zip(batch["media_id"].to_pylist(),
                                       batch["media_type"].to_pylist(),
                                       batch["payload"].to_pylist()):
            if mtype != "image":
                continue
            img = None
            if self.decode_fn is not None:
                try:
                    img = self.decode_fn(payload)
                except UnsupportedMediaError:
                    img = None
            if img is None:
                try:
                    img = decode_image(payload)
                except UnsupportedMediaError:
                    continue
            ids.append(mid)
            # int64 container for the uint64 hash (Arrow-friendly,
            # same convention as simhash_batch)
            hashes.append(np.uint64(phash64(img)).astype(np.int64))
        return pa.table({"media_id": pa.array(ids, pa.int64()),
                         "phash": pa.array(hashes, pa.int64())})


def image_phash_neardup(ds, *, max_hamming: int = 12,
                        max_bucket: int = 256, num_buckets: int = 16,
                        concurrency=(1, 8), batch_size: int = 32):
    """Per-image near-dup profile over pHash Hamming distance:
    (media_id, n_neighbors, min_hamming) for every DECODED image, where
    neighbors are band-colliding images within ``max_hamming``. Output
    is image-bounded (never pair-bounded) so a mirror-heavy corpus
    can't swell the result; the pair stream itself stays inside the
    bucketed exchanges.

    Stages: pHash actor pool (payloads dropped after decode) → 8×8-bit
    band explode (fixed-width rows only; pigeonhole-complete for
    Hamming ≤ 7, high-recall to ~12 — re-encode/resize variants land
    at 4-10 bits, beyond the 4×16 scheme's ≤ 3 guarantee) →
    per-bucket collision pair gen with vectorized Hamming verify →
    pair dedup → per-id fold. Partitioning assumption: a single
    band-value collision group is capped at ``max_bucket`` ids
    (degenerate all-equal corpora)."""
    import pandas as pd

    from .groups import bucketed_group_apply

    sigs = ds.map_batches(
        ImagePHasher, batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency, num_cpus=1)

    def explode_bands(b: pd.DataFrame) -> pd.DataFrame:
        h = b["phash"].to_numpy().astype(np.uint64)
        frames = []
        for band in range(8):
            val = ((h >> np.uint64(band * 8))
                   & np.uint64(0xFF)).astype(np.int64)
            frames.append(pd.DataFrame({
                "media_id": b["media_id"].to_numpy(),
                "band": band, "band_val": val,
                "phash": b["phash"].to_numpy()}))
        return pd.concat(frames, ignore_index=True)

    bands = sigs.map_batches(explode_bands, batch_format="pandas")

    def pairs_bucket(g: pd.DataFrame) -> pd.DataFrame:
        counts = g.groupby(["band", "band_val"],
                           sort=False)["media_id"].transform("count")
        g = g[counts >= 2]
        out_a: list = []
        out_b: list = []
        for _, grp in g.groupby(["band", "band_val"], sort=False):
            rows = sorted(set(zip(grp["media_id"], grp["phash"])))
            if len(rows) < 2 or len(rows) > max_bucket:
                continue
            ids = np.array([r[0] for r in rows], dtype=np.int64)
            hs = np.array([r[1] for r in rows],
                          dtype=np.int64).astype(np.uint64)
            iu, ju = np.triu_indices(len(ids), k=1)
            x = np.bitwise_xor(hs[iu], hs[ju])
            ham = np.unpackbits(
                x.view(np.uint8).reshape(-1, 8), axis=1).sum(axis=1)
            keep = ham <= max_hamming
            out_a.append(np.column_stack([ids[iu[keep]], ids[ju[keep]],
                                          ham[keep].astype(np.int64)]))
        if not out_a:
            return pd.DataFrame({"id_a": pd.Series([], dtype="int64"),
                                 "id_b": pd.Series([], dtype="int64"),
                                 "hamming": pd.Series([], dtype="int64")})
        m = np.concatenate(out_a)
        return pd.DataFrame({"id_a": m[:, 0], "id_b": m[:, 1],
                             "hamming": m[:, 2]})

    pairs = bucketed_group_apply(bands, ["band", "band_val"], pairs_bucket,
                                 num_buckets=num_buckets)
    deduped = bucketed_group_apply(
        pairs, ["id_a", "id_b"],
        lambda g: g.drop_duplicates(["id_a", "id_b"]),
        num_buckets=num_buckets)

    def profile_partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        both = pd.concat([
            df[["id_a", "hamming"]].rename(columns={"id_a": "media_id"}),
            df[["id_b", "hamming"]].rename(columns={"id_b": "media_id"})],
            ignore_index=True)
        g = (both.groupby("media_id", sort=False)["hamming"]
             .agg(n_neighbors="size", min_hamming="min").reset_index())
        g["n_neighbors"] = g["n_neighbors"].astype("int64")
        g["min_hamming"] = g["min_hamming"].astype("int64")
        from .groups import arrow_out

        return arrow_out(g)

    return bucketed_group_apply(
        deduped.map_batches(profile_partial, batch_format="pyarrow"),
        "media_id",
        lambda g: g.groupby("media_id", as_index=False).agg(
            n_neighbors=("n_neighbors", "sum"),
            min_hamming=("min_hamming", "min")),
        num_buckets=num_buckets)
