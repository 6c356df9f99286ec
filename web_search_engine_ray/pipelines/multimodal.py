"""Multimodal columns: opaque binary payloads + typed metadata, processed by
plain Ray tasks, one per ``MEDIA_BATCH_SIZE``-row slice.

A 100 TB training-data pipeline carries images/audio/video as ``binary``
columns. The Ray-side plumbing here is REAL and tested — schema, per-slice
stage functions, per-task row bound, output layout — and so is the
PNG path: ``decode_batch`` decodes real baseline PNGs through the pure-Python
codec in ``functions/png.py`` (stdlib zlib; all five scanline filters), plus
the deterministic in-repo ``FAKE`` format. JPEG/video codecs remain honestly
gated: PIL is used when importable, otherwise a clear
``NotImplementedError`` names the gap (this container ships no image libs).

Sizing note: with wide binary rows keep the slice small (decoded pixels
are ~H*W*C bytes/row; one task holds ``MEDIA_BATCH_SIZE * row_bytes``, and
as many tasks run at once as the node has CPUs) — see the module constants.

Fake payload format (deterministic, seeded — FIXTURES.md spirit):
``b"FAKE" + u16 height + u16 width + u8 channels + pixel bytes`` for images;
videos are ``b"FAKV" + u16 n_frames + one FAKE image per frame``.
"""

from __future__ import annotations

import json
import struct

import numpy as np
import pyarrow as pa

from web_search_engine_ray.stages.exchange import arrow_refs, map_refs, to_dataset

try:  # pragma: no cover - not installed here
    from PIL import Image  # noqa: F401

    HAVE_PIL = True
except ImportError:
    HAVE_PIL = False

# rows per media task: bounds each task's decoded-pixel memory
MEDIA_BATCH_SIZE = 16
# luminance-histogram bins (images) and spectrum bands (audio) per feature
FEATURE_BINS = 8

MEDIA_SCHEMA = pa.schema(
    [
        ("media_id", pa.int64()),
        ("kind", pa.string()),  # "image" | "video"
        ("payload", pa.binary()),
        ("meta", pa.string()),  # JSON: {"h":..,"w":..,"c":..} / {"frames":..}
    ]
)


def _splitmix_bytes(seed: int, n: int) -> np.ndarray:
    x = (np.arange(n, dtype=np.uint64) + np.uint64(seed) * np.uint64(0x9E3779B97F4A7C15))
    z = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return (z ^ (z >> np.uint64(31))).astype(np.uint8)


def fake_image(seed: int, h: int, w: int, c: int = 3) -> bytes:
    header = b"FAKE" + struct.pack("<HHB", h, w, c)
    return header + _splitmix_bytes(seed, h * w * c).tobytes()


def fake_video(seed: int, n_frames: int, h: int, w: int, c: int = 3) -> bytes:
    out = b"FAKV" + struct.pack("<H", n_frames)
    for i in range(n_frames):
        out += fake_image(seed * 131 + i, h, w, c)
    return out


def make_media_table(n: int = 32, seed: int = 42) -> pa.Table:
    """Deterministic fixture media table (FAKE images, real PNGs, and short
    videos) — every fourth image row is a genuine baseline PNG so the
    pipeline exercises the real codec path."""
    from web_search_engine_ray.functions.png import encode_png

    ids, kinds, payloads, metas = [], [], [], []
    for i in range(n):
        ids.append(i)
        if i % 4 == 3:
            frames, h, w = 2 + i % 3, 8 + (i % 3) * 4, 8
            kinds.append("video")
            payloads.append(fake_video(seed + i, frames, h, w))
            metas.append(json.dumps({"frames": frames, "h": h, "w": w, "c": 3}))
        elif i % 4 == 1:
            h, w = 8 + (i % 5) * 4, 8 + (i % 3) * 4
            kinds.append("image")
            pixels = _splitmix_bytes(seed + i, h * w * 3).reshape(h, w, 3)
            payloads.append(encode_png(pixels, filter_type=i % 5))
            metas.append(json.dumps({"h": h, "w": w, "c": 3, "fmt": "png"}))
        else:
            h, w = 8 + (i % 5) * 4, 8 + (i % 3) * 4
            kinds.append("image")
            payloads.append(fake_image(seed + i, h, w))
            metas.append(json.dumps({"h": h, "w": w, "c": 3}))
    return pa.table(
        {
            "media_id": pa.array(ids, pa.int64()),
            "kind": pa.array(kinds, pa.string()),
            "payload": pa.array(payloads, pa.binary()),
            "meta": pa.array(metas, pa.string()),
        }
    )


def decode_fake_image(buf: bytes) -> np.ndarray:
    if buf[:4] != b"FAKE":
        from web_search_engine_ray.functions.png import PNG_MAGIC, decode_png

        if buf[: len(PNG_MAGIC)] == PNG_MAGIC:
            return decode_png(buf)  # real codec, pure Python (functions/png.py)
        if HAVE_PIL:  # pragma: no cover - PIL absent in this container
            import io

            from PIL import Image

            return np.asarray(Image.open(io.BytesIO(buf)))
        raise NotImplementedError(
            "JPEG/other codecs unavailable in this container; FAKE and PNG "
            "decode natively (install pillow for the rest)"
        )
    h, w, c = struct.unpack("<HHB", buf[4:9])
    return np.frombuffer(buf[9:], dtype=np.uint8)[: h * w * c].reshape(h, w, c)


def decode_fake_video(buf: bytes) -> list[np.ndarray]:
    if buf[:4] != b"FAKV":
        raise NotImplementedError("real video codecs unavailable; FAKV only")
    (n_frames,) = struct.unpack("<H", buf[4:6])
    frames = []
    off = 6
    for _ in range(n_frames):
        h, w, c = struct.unpack("<HHB", buf[off + 4 : off + 9])
        end = off + 9 + h * w * c
        frames.append(decode_fake_image(bytes(buf[off:end])))
        off = end
    return frames


def decode_batch(batch: pa.Table) -> pa.Table:
    """Payload binary -> decoded dims + flat pixel column (a video keeps
    its first frame)."""
    ids, heights, widths, chans, pixels = [], [], [], [], []
    for mid, kind, payload in zip(
        batch["media_id"].to_pylist(),
        batch["kind"].to_pylist(),
        batch["payload"].to_pylist(),
    ):
        if kind == "video":
            frames = decode_fake_video(payload)
            if not frames:
                raise ValueError(
                    f"zero-frame video payload (media_id={mid})"
                )
            arr = frames[0]  # first frame
        else:
            arr = decode_fake_image(payload)
        ids.append(mid)
        heights.append(arr.shape[0])
        widths.append(arr.shape[1])
        chans.append(arr.shape[2])
        pixels.append(arr.tobytes())
    return pa.table(
        {
            "media_id": pa.array(ids, pa.int64()),
            "height": pa.array(heights, pa.int32()),
            "width": pa.array(widths, pa.int32()),
            "channels": pa.array(chans, pa.int32()),
            "pixels": pa.array(pixels, pa.binary()),
        }
    )


def resize_batch(batch: pa.Table, out_h: int = 8, out_w: int = 8) -> pa.Table:
    """Nearest-neighbour resize on decoded pixel buffers (pure numpy, real)."""
    out_pix = []
    for h, w, c, buf in zip(
        batch["height"].to_pylist(),
        batch["width"].to_pylist(),
        batch["channels"].to_pylist(),
        batch["pixels"].to_pylist(),
    ):
        arr = np.frombuffer(buf, dtype=np.uint8).reshape(h, w, c)
        yi = (np.arange(out_h) * h // out_h).astype(np.int64)
        xi = (np.arange(out_w) * w // out_w).astype(np.int64)
        out_pix.append(arr[yi][:, xi].tobytes())
    return pa.table(
        {
            "media_id": batch["media_id"],
            "height": pa.array([out_h] * batch.num_rows, pa.int32()),
            "width": pa.array([out_w] * batch.num_rows, pa.int32()),
            "channels": batch["channels"],
            "pixels": pa.array(out_pix, pa.binary()),
        }
    )


def feature_batch(batch: pa.Table) -> pa.Table:
    """Per-channel mean/std + luminance histogram -> fixed-length feature
    vector (list<float>) per item (pure numpy, real)."""
    feats = []
    for h, w, c, buf in zip(
        batch["height"].to_pylist(),
        batch["width"].to_pylist(),
        batch["channels"].to_pylist(),
        batch["pixels"].to_pylist(),
    ):
        arr = np.frombuffer(buf, dtype=np.uint8).reshape(h, w, c).astype(np.float64)
        mean = arr.mean(axis=(0, 1))
        std = arr.std(axis=(0, 1))
        lum = arr.mean(axis=2)
        hist, _ = np.histogram(lum, bins=FEATURE_BINS, range=(0, 255))
        hist = hist / max(1, lum.size)
        feats.append(np.concatenate([mean, std, hist]).round(6).tolist())
    return pa.table(
        {
            "media_id": batch["media_id"],
            "feature": pa.array(feats, pa.list_(pa.float64())),
        }
    )


def sample_frames(batch: pa.Table, stride: int = 2) -> pa.Table:
    """Video payload -> every ``stride``-th frame as its own row."""
    ids, fidx, heights, widths, chans, pixels = [], [], [], [], [], []
    for mid, kind, payload in zip(
        batch["media_id"].to_pylist(),
        batch["kind"].to_pylist(),
        batch["payload"].to_pylist(),
    ):
        if kind != "video":
            continue
        for j, arr in enumerate(decode_fake_video(payload)):
            if j % stride:
                continue
            ids.append(mid)
            fidx.append(j)
            heights.append(arr.shape[0])
            widths.append(arr.shape[1])
            chans.append(arr.shape[2])
            pixels.append(arr.tobytes())
    return pa.table(
        {
            "media_id": pa.array(ids, pa.int64()),
            "frame_idx": pa.array(fidx, pa.int32()),
            "height": pa.array(heights, pa.int32()),
            "width": pa.array(widths, pa.int32()),
            "channels": pa.array(chans, pa.int32()),
            "pixels": pa.array(pixels, pa.binary()),
        }
    )


def fake_audio(seed: int, n_samples: int, rate: int = 8000, n_ch: int = 1) -> bytes:
    """Deterministic PCM16 WAV payload (real RIFF bytes via functions/wav.py)."""
    from web_search_engine_ray.functions.wav import encode_wav

    raw = _splitmix_bytes(seed, n_samples * n_ch * 2)
    samples = raw.view(np.int16).reshape(n_samples, n_ch)
    return encode_wav(samples, rate)


def make_audio_table(n: int = 16, seed: int = 7) -> pa.Table:
    ids, payloads, metas = [], [], []
    for i in range(n):
        ns, rate, ch = 800 + (i % 4) * 400, 8000 if i % 2 else 16000, 1 + i % 2
        ids.append(i)
        payloads.append(fake_audio(seed + i, ns, rate, ch))
        metas.append(json.dumps({"n_samples": ns, "rate": rate, "channels": ch}))
    return pa.table(
        {
            "media_id": pa.array(ids, pa.int64()),
            "kind": pa.array(["audio"] * n, pa.string()),
            "payload": pa.array(payloads, pa.binary()),
            "meta": pa.array(metas, pa.string()),
        }
    )


def decode_audio_batch(batch: pa.Table) -> pa.Table:
    """WAV payload -> (rate, channels, flat PCM16 samples).

    The WAV path is REAL (pure-Python RIFF/PCM codec in ``functions/wav.py``);
    compressed formats (mp3/ogg/flac) stay honestly gated: soundfile when
    importable, else a clear ``NotImplementedError``."""
    from web_search_engine_ray.functions.wav import decode_wav

    ids, rates, chans, n_s, pcm = [], [], [], [], []
    for mid, payload in zip(
        batch["media_id"].to_pylist(), batch["payload"].to_pylist()
    ):
        if payload[:4] != b"RIFF":
            try:
                import soundfile
            except ImportError:
                raise NotImplementedError(
                    "compressed audio codecs unavailable; WAV/PCM decodes "
                    "natively (install soundfile for mp3/ogg/flac)"
                ) from None
            import io  # pragma: no cover - soundfile absent here

            data, rate = soundfile.read(io.BytesIO(payload), dtype="int16")
            samples = np.atleast_2d(data.T).T
        else:
            samples, rate = decode_wav(payload)
        ids.append(mid)
        rates.append(rate)
        chans.append(samples.shape[1])
        n_s.append(samples.shape[0])
        pcm.append(np.ascontiguousarray(samples, dtype=np.int16).tobytes())
    return pa.table(
        {
            "media_id": pa.array(ids, pa.int64()),
            "rate": pa.array(rates, pa.int32()),
            "channels": pa.array(chans, pa.int32()),
            "n_samples": pa.array(n_s, pa.int64()),
            "pcm": pa.array(pcm, pa.binary()),
        }
    )


def audio_feature_batch(batch: pa.Table) -> pa.Table:
    """PCM16 -> fixed-length feature vector per clip: per-channel RMS energy
    + zero-crossing rate + an ``FEATURE_BINS``-band FFT magnitude spectrum
    of the mono mix (pure numpy, real DSP)."""
    feats = []
    for ch, n, buf in zip(
        batch["channels"].to_pylist(),
        batch["n_samples"].to_pylist(),
        batch["pcm"].to_pylist(),
    ):
        a = np.frombuffer(buf, dtype=np.int16).reshape(n, ch).astype(np.float64)
        a /= 32768.0
        rms = np.sqrt((a**2).mean(axis=0))
        zcr = (np.abs(np.diff(np.signbit(a, ), axis=0)).mean(axis=0)).astype(
            np.float64
        )
        mono = a.mean(axis=1)
        spec = np.abs(np.fft.rfft(mono))
        chunks = np.array_split(spec, FEATURE_BINS)
        bands = np.array([c.mean() if c.size else 0.0 for c in chunks])
        total = bands.sum()
        bands = bands / total if total > 0 else bands
        # fixed width: pad per-channel stats to 2 channels
        rms2 = np.zeros(2)
        rms2[: min(2, rms.size)] = rms[:2]
        zcr2 = np.zeros(2)
        zcr2[: min(2, zcr.size)] = zcr[:2]
        feats.append(np.concatenate([rms2, zcr2, bands]).round(6).tolist())
    return pa.table(
        {
            "media_id": batch["media_id"],
            "feature": pa.array(feats, pa.list_(pa.float64())),
        }
    )


def _media_tasks(stage: str, table: pa.Table, fn):
    """``fn`` over ``table`` as one plain Ray task per ``MEDIA_BATCH_SIZE``
    rows; an empty table still runs one task, so the Dataset carries
    ``fn``'s schema."""
    import ray

    slices = [
        ray.put(table.slice(i, MEDIA_BATCH_SIZE))
        for i in range(0, max(table.num_rows, 1), MEDIA_BATCH_SIZE)
    ]
    return to_dataset(stage, map_refs(fn, slices))


def _image_features(batch: pa.Table) -> pa.Table:
    return feature_batch(resize_batch(decode_batch(batch)))


def _audio_features(batch: pa.Table) -> pa.Table:
    return audio_feature_batch(decode_audio_batch(batch))


def audio_features(audio_table: pa.Table):
    """decode -> features over an in-memory audio table (same stage wiring a
    parquet-backed audio corpus would use)."""
    return _media_tasks("audio_features", audio_table, _audio_features)


def media_features(media_table: pa.Table):
    """decode -> resize -> features over an in-memory media table; the stage
    wiring a parquet-backed media corpus would use unchanged."""
    return _media_tasks("media_features", media_table, _image_features)


def media_gate_table(sf_dir: str) -> pa.Table:
    """(media_id, kind, dim, feat_digest, feat_mean): the multimodal
    family's driver-gate entry — decode -> resize -> feature over the
    deterministic generated media corpus (images, real PNGs, videos) plus
    decode -> feature over the generated WAV audio corpus, reduced to one
    digest row per media item.  ``sf_dir`` is unused (the driver tables
    carry no media columns; the corpus is synthesized deterministically,
    the `crawl_log` pattern).  Rows-only at the gate; the exact digests are
    pytest-pinned in tests/test_multimodal_serve.py."""
    import hashlib

    def digest_rows(kind_by_id: dict[int, str], feats) -> list[tuple]:
        rows = []
        for mid, feat in zip(
            feats["media_id"].to_pylist(), feats["feature"].to_pylist()
        ):
            d = hashlib.md5(
                ",".join(f"{v:.6f}" for v in feat).encode()
            ).hexdigest()
            mean = round(float(np.mean(feat)), 6) if feat else 0.0
            rows.append((mid, kind_by_id[mid], len(feat), d, mean))
        return rows

    media = make_media_table(n=64)
    audio = make_audio_table(n=32)
    mkinds = dict(
        zip(media["media_id"].to_pylist(), media["kind"].to_pylist())
    )
    # audio ids offset so the two corpora never collide in one relation
    AOFF = 10_000
    rows = digest_rows(mkinds, _collect(media_features(media)))
    arows = digest_rows(
        {i + AOFF: "audio" for i in audio["media_id"].to_pylist()},
        _offset_ids(_collect(audio_features(audio)), AOFF),
    )
    rows = sorted(rows + arows)
    return pa.table(
        {
            "media_id": pa.array([r[0] for r in rows], pa.int64()),
            "kind": pa.array([r[1] for r in rows], pa.string()),
            "dim": pa.array([r[2] for r in rows], pa.int64()),
            "feat_digest": pa.array([r[3] for r in rows], pa.string()),
            "feat_mean": pa.array([r[4] for r in rows], pa.float64()),
        }
    )


def _collect(ds) -> pa.Table:
    """Small-result collect (the media gate corpora are <100 rows)."""
    import ray

    return pa.concat_tables(ray.get(arrow_refs(ds)))


def _offset_ids(t: pa.Table, off: int) -> pa.Table:
    return t.set_column(
        t.schema.get_field_index("media_id"),
        "media_id",
        pa.array(
            (np.asarray(t["media_id"].combine_chunks()) + off).astype(np.int64)
        ),
    )
