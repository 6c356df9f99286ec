"""Pure-Python PNG codec: roundtrips across color types and all five
scanline filters, profile-gate errors, and the multimodal decode_batch stage
consuming a real PNG payload."""

import struct
import zlib

import numpy as np
import pytest

from web_search_engine_ray.functions.png import PNG_MAGIC, decode_png, encode_png


def _rand(shape, seed=0):
    return np.random.default_rng(seed).integers(0, 256, shape, dtype=np.uint8)


@pytest.mark.parametrize("channels", [1, 2, 3, 4])
@pytest.mark.parametrize("filter_type", [0, 1, 2, 3, 4])
def test_roundtrip_all_filters(channels, filter_type):
    arr = _rand((11, 7, channels), seed=channels * 10 + filter_type)
    buf = encode_png(arr, filter_type=filter_type)
    assert buf.startswith(PNG_MAGIC)
    out = decode_png(buf)
    assert out.shape == arr.shape
    assert np.array_equal(out, arr)


def test_grayscale_2d_input():
    arr = _rand((5, 9))
    out = decode_png(encode_png(arr))
    assert out.shape == (5, 9, 1)
    assert np.array_equal(out[:, :, 0], arr)


def test_profile_gates():
    with pytest.raises(ValueError, match="signature"):
        decode_png(b"JFIFnotapng" * 3)
    # 16-bit depth PNG rejected with the field named
    arr = _rand((4, 4, 3))
    buf = bytearray(encode_png(arr))
    # IHDR data starts at 16 (8 magic + 4 len + 4 type); bit depth at +8
    buf[16 + 8] = 16
    with pytest.raises(ValueError, match="bit depth"):
        decode_png(bytes(buf))


def test_decode_stage_handles_png():
    from web_search_engine_ray.pipelines.multimodal import (
        decode_batch,
        make_media_table,
    )

    t = make_media_table(n=8)
    out = decode_batch(t)
    assert out.num_rows == t.num_rows
    # row 1 is the PNG row: its decoded pixels must equal the deterministic
    # source pixels (same splitmix stream the FAKE rows use)
    from web_search_engine_ray.pipelines.multimodal import _splitmix_bytes

    metas = t["meta"].to_pylist()
    import json

    i = 1
    m = json.loads(metas[i])
    assert m.get("fmt") == "png"
    h, w = m["h"], m["w"]
    want = _splitmix_bytes(42 + i, h * w * 3)
    got = np.frombuffer(out["pixels"][i].as_py(), dtype=np.uint8)
    assert np.array_equal(got, want)


def test_idat_split_across_chunks():
    """Decoders must concatenate multiple IDAT chunks (spec allows any
    split)."""
    arr = _rand((6, 6, 3), seed=5)
    buf = encode_png(arr)
    # re-split the single IDAT into two chunks
    pos = len(PNG_MAGIC)
    out = bytearray(buf[:pos])
    idat = b""
    tail = b""
    while pos + 8 <= len(buf):
        (length,) = struct.unpack(">I", buf[pos : pos + 4])
        ctype = buf[pos + 4 : pos + 8]
        data = buf[pos + 8 : pos + 8 + length]
        if ctype == b"IDAT":
            idat = data
        elif ctype == b"IEND":
            tail = buf[pos : pos + 12 + length]
        else:
            out += buf[pos : pos + 12 + length]
        pos += 12 + length

    def chunk(ctype, data):
        return (
            struct.pack(">I", len(data))
            + ctype
            + data
            + struct.pack(">I", zlib.crc32(ctype + data) & 0xFFFFFFFF)
        )

    half = len(idat) // 2
    out += chunk(b"IDAT", idat[:half]) + chunk(b"IDAT", idat[half:]) + tail
    assert np.array_equal(decode_png(bytes(out)), arr)
