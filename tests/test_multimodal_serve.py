"""Multimodal stage plumbing + HTTP serving surface tests."""

import json

import numpy as np
import pytest

from web_search_engine_ray.pipelines import multimodal as mm


def test_fake_codec_roundtrip():
    img = mm.fake_image(7, 12, 10, 3)
    arr = mm.decode_fake_image(img)
    assert arr.shape == (12, 10, 3) and arr.dtype == np.uint8
    # deterministic
    assert mm.decode_fake_image(mm.fake_image(7, 12, 10, 3)).tobytes() == arr.tobytes()
    vid = mm.fake_video(3, 4, 8, 8)
    frames = mm.decode_fake_video(vid)
    assert len(frames) == 4 and frames[0].shape == (8, 8, 3)


def test_codec_coverage():
    """PNG decodes natively (pure-Python codec); a malformed PNG is a clear
    ValueError; JPEG remains honestly gated behind PIL."""
    with pytest.raises(ValueError):  # PNG path engaged, input truncated
        mm.decode_fake_image(b"\x89PNG\r\n\x1a\nxxxx")
    if not mm.HAVE_PIL:
        with pytest.raises(NotImplementedError):
            mm.decode_fake_image(b"\xff\xd8\xff\xe0notajpeg")


def test_stages_direct():
    t = mm.make_media_table(12)
    dec = mm.decode_batch(t)
    assert dec.column_names == ["media_id", "height", "width", "channels", "pixels"]
    assert dec.num_rows == 12
    rs = mm.resize_batch(dec, 8, 8)
    assert set(rs["height"].to_pylist()) == {8}
    ft = mm.feature_batch(rs)
    feats = ft["feature"].to_pylist()
    assert all(len(f) == 3 + 3 + mm.FEATURE_BINS for f in feats)
    fs = mm.sample_frames(t, stride=2)
    assert fs.num_rows > 0
    assert all(i % 2 == 0 for i in fs["frame_idx"].to_pylist())


def test_media_pipeline_over_ray(ray_session):
    t = mm.make_media_table(24)
    out = mm.media_features(t).to_pandas()
    assert len(out) == 24
    assert sorted(out["media_id"]) == list(range(24))
    # deterministic across runs
    out2 = mm.media_features(t).to_pandas()
    a = sorted(map(tuple, zip(out["media_id"], map(tuple, out["feature"]))))
    b = sorted(map(tuple, zip(out2["media_id"], map(tuple, out2["feature"]))))
    assert a == b


@pytest.fixture(scope="module")
def served_index(ray_session, small_corpus_dir, tmp_path_factory):
    from web_search_engine_ray.pipelines.build import build_index

    out = str(tmp_path_factory.mktemp("serve_idx"))
    build_index(small_corpus_dir, out, partition_rows=700, num_shards=4, n_salts=3)
    return out


def test_flask_search_api(served_index):
    from web_search_engine_ray.serve import create_app

    app = create_app(served_index)
    client = app.test_client()

    r = client.get("/health")
    assert r.status_code == 200 and r.get_json()["status"] == "ok"

    r = client.post("/search", json={"query": "the data", "mode": "OR"})
    assert r.status_code == 200
    body = r.get_json()
    assert body["totalResults"] == len(body["results"]) > 0
    assert {"docid", "score"} <= set(body["results"][0])
    assert body["mode"] == "OR" and body["query"] == "the data"
    assert body["searchTime"] >= 0

    assert client.post("/search", json={"query": ""}).status_code == 400
    assert client.post("/search", json={"query": "x", "mode": "XOR"}).status_code == 400

    # valid-JSON-but-not-an-object bodies must 400 (handler validation),
    # never 500 (.get() on a list/str)
    for bad in (b'"notadict"', b"[1,2]", b"{{{not json"):
        r = client.post("/search", data=bad, content_type="application/json")
        assert r.status_code == 400, (bad, r.status_code)
    r = client.post("/complete", data=b"[1]", content_type="application/json")
    assert r.status_code == 400


def test_flask_frontend_roundtrip(served_index):
    """GET / serves the bundled search page (reference HW2/app.py:51-54) and
    the POST /search contract the page drives works end-to-end."""
    from web_search_engine_ray.serve import create_app

    app = create_app(served_index)
    client = app.test_client()

    r = client.get("/")
    assert r.status_code == 200
    page = r.get_data(as_text=True)
    assert "<html" in page.lower() and "/search" in page

    # the page now carries ranker / proximity / PHRASE controls
    assert 'id="ranker"' in page and 'id="prox"' in page and "PHRASE" in page

    # the exact request the page's JS issues (ranker + proximity fields)
    r = client.post(
        "/search",
        json={"query": "the data", "mode": "AND", "topk": 10,
              "ranker": "bm25", "proximity_boost": False},
    )
    assert r.status_code == 200
    body = r.get_json()
    assert body["totalResults"] >= 0 and "searchTime" in body
    r = client.post(
        "/search",
        json={"query": "the data", "mode": "OR", "topk": 10,
              "ranker": "ql", "proximity_boost": False},
    )
    assert r.status_code == 200


def test_docstore_and_snippets(served_index, small_corpus_dir):
    import glob

    import pyarrow.parquet as pq

    from web_search_engine_ray.state.docstore import DocStore, create_snippet

    store = DocStore(small_corpus_dir)
    texts = []
    for f in sorted(glob.glob(small_corpus_dir + "/*.parquet")):
        texts.extend(pq.read_table(f, columns=["text"])["text"].to_pylist())
    assert store.n_docs == len(texts)
    for docid in (0, 1, len(texts) // 2, len(texts) - 1):
        assert store.get_text(docid) == texts[docid]
    assert store.get(len(texts)) is None

    # snippet semantics (reference HW2/app.py:118-155)
    content = "aaa " * 30 + "needle in the haystack " + "bbb " * 80
    snip = create_snippet(content, "needle haystack")
    assert "needle" in snip and snip.startswith("...") and snip.endswith("...")
    assert create_snippet("", "q") == ""
    long_no_hit = "x" * 300
    s2 = create_snippet(long_no_hit, "absent")
    assert len(s2) <= 203

    # served snippets
    from web_search_engine_ray.serve import create_app

    app = create_app(served_index, corpus_dir=small_corpus_dir)
    r = app.test_client().post("/search", json={"query": "the data", "mode": "OR"})
    body = r.get_json()
    assert body["results"] and "snippet" in body["results"][0]


def test_flask_spell_suggestions(served_index):
    """Unknown query terms get SymSpell did-you-mean suggestions from the
    index's own lexicon; known-term queries carry no suggestions field."""
    from web_search_engine_ray.serve import create_app

    app = create_app(served_index)
    client = app.test_client()

    r = client.post("/search", json={"query": "dta", "mode": "OR"})
    assert r.status_code == 200
    body = r.get_json()
    assert body["suggestions"] == {"dta": "data"}
    assert body["suggestedQuery"] == "data"

    r = client.post("/search", json={"query": "the dta qqqzzzqqq", "mode": "OR"})
    body = r.get_json()
    assert body["suggestions"].get("dta") == "data"
    assert "qqqzzzqqq" not in body["suggestions"]
    assert body["suggestedQuery"].startswith("the data")

    r = client.post("/search", json={"query": "the data", "mode": "OR"})
    body = r.get_json()
    assert "suggestions" not in body and "suggestedQuery" not in body


def test_media_gate_digests_pinned(ray_session):
    """The driver-gate `media_features` entry's per-row digests, pinned the
    crawl_log way: decode -> resize -> feature over the deterministic
    generated corpora must reproduce these EXACT values — a codec, resize,
    or feature regression flips a digest."""
    import hashlib

    from web_search_engine_ray.pipelines.multimodal import media_gate_table

    df = media_gate_table("unused").to_pandas()
    assert len(df) == 96
    assert df.groupby("kind").size().to_dict() == {
        "audio": 32, "image": 48, "video": 16,
    }
    pinned = [
        (0, "image", 14, "d36436e6cbb54a50db377ca9c4af2a59", 43.176869),
        (1, "image", 14, "ed9a72d2ff43815c11a9e6f4c24a8e24", 43.790548),
        (3, "video", 14, "e9e0a067308288708641ffcd3b05f241", 46.295994),
        (10003, "audio", 12, "1ab30703d2e665c92427d1501c8981fb", 0.262467),
    ]
    for mid, kind, dim, digest, mean in pinned:
        r = df[df.media_id == mid].iloc[0]
        assert (r["kind"], r["dim"], r["feat_digest"]) == (kind, dim, digest)
        assert r["feat_mean"] == mean
    full = hashlib.md5("|".join(df.feat_digest).encode()).hexdigest()
    assert full == "ac95fce2dd0fed298183a99e553575a0"
