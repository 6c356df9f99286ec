"""WAV codec roundtrips + the audio decode/feature Ray stages."""

import numpy as np
import pytest

from web_search_engine_ray.functions.wav import decode_wav, encode_wav


@pytest.mark.parametrize("dtype,ch,rate", [
    (np.int16, 1, 8000), (np.int16, 2, 44100), (np.uint8, 1, 16000),
    (np.int32, 2, 48000),
])
def test_wav_roundtrip(dtype, ch, rate):
    rng = np.random.default_rng(4)
    if dtype == np.uint8:
        a = rng.integers(0, 256, (500, ch), dtype=np.uint8)
    else:
        info = np.iinfo(dtype)
        a = rng.integers(info.min, info.max, (500, ch), dtype=dtype)
    got, got_rate = decode_wav(encode_wav(a, rate))
    assert got_rate == rate
    assert np.array_equal(got, a)


def test_wav_profile_gates():
    with pytest.raises(ValueError, match="RIFF"):
        decode_wav(b"NOTAWAVE" + b"\x00" * 40)
    # float PCM (tag 3) rejected with the tag named
    buf = bytearray(encode_wav(np.zeros(10, dtype=np.int16), 8000))
    buf[20] = 3  # fmt tag lives at offset 20
    with pytest.raises(ValueError, match="format tag"):
        decode_wav(bytes(buf))


def test_wav_odd_data_chunk_padding():
    a = np.array([[1], [2], [3]], dtype=np.uint8)  # 3 bytes -> odd chunk
    got, _ = decode_wav(encode_wav(a, 8000))
    assert np.array_equal(got, a)


def test_audio_stages_direct():
    from web_search_engine_ray.pipelines import multimodal as mm

    t = mm.make_audio_table(8)
    dec = mm.decode_audio_batch(t)
    assert dec.column_names == ["media_id", "rate", "channels", "n_samples", "pcm"]
    feats = mm.audio_feature_batch(dec)
    assert feats.num_rows == 8
    v = feats["feature"][0].as_py()
    assert len(v) == 2 + 2 + mm.FEATURE_BINS
    assert abs(sum(v[4:]) - 1.0) < 1e-5  # bands normalized (rounded to 6dp)


def test_audio_compressed_gated():
    from web_search_engine_ray.pipelines import multimodal as mm

    with pytest.raises((NotImplementedError, ValueError)):
        mm.decode_audio_batch(
            __import__("pyarrow").table(
                {
                    "media_id": [0],
                    "payload": [b"ID3\x04notanmp3frame"],
                }
            )
        )


def test_audio_pipeline_over_ray(ray_session):
    from web_search_engine_ray.pipelines import multimodal as mm

    out = mm.audio_features(mm.make_audio_table(12)).to_pandas()
    assert len(out) == 12
    # deterministic across runs
    out2 = mm.audio_features(mm.make_audio_table(12)).to_pandas()
    assert out.sort_values("media_id").reset_index(drop=True).equals(
        out2.sort_values("media_id").reset_index(drop=True)
    )
