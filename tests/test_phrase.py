"""Positional index + phrase/proximity search contracts."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from web_search_engine_ray.pipelines.phrase import (
    N_SHARDS,
    _term_shard,
    build_positional_index,
    phrase_match_counts,
    proximity_search_table,
    read_term_positions,
)


@pytest.fixture(scope="module")
def phrase_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("phrase")
    texts = [
        "spark join spark join order",     # "spark join" twice (pos 1, 3)
        "join spark nothing here",          # reversed -> no phrase match
        "alpha spark beta gamma join",      # gap 3 between spark/join
        "spark join tail",                  # docid > 2^32: rank remap path
    ]
    t = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 2**40], pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    pq.write_table(t, str(d / "documents.parquet"))
    return str(d)


@pytest.fixture(scope="module")
def built_index(ray_session, phrase_dir, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("posidx"))
    stats = build_positional_index(phrase_dir, out, n_shards=4)
    assert stats["n_rows"] > 0
    return out


def _expected_positions(texts, docids) -> dict:
    """Independent recount oracle: 1-based positions per (term, docid) by a
    plain ``str.split`` walk (fixture texts are simple space-separated
    lowercase, where split == the engine tokenizer)."""
    want: dict = {}
    for did, text in zip(docids, texts):
        for i, w in enumerate(text.split(), start=1):
            want.setdefault((w, did), []).append(i)
    return want


def test_vb_positions_roundtrip(ray_session, phrase_dir):
    """The (single) varbyte layout decodes to exactly the independently
    recounted position lists, row for row."""
    from web_search_engine_ray.pipelines.phrase import (
        _decode_positions,
        positional_postings_ds,
    )

    vb = positional_postings_ds(phrase_dir).take_all()
    import pyarrow as _pa

    vbt = _pa.Table.from_pylist(vb)
    assert set(vbt.column_names) == {"term", "docid", "tf", "positions_vb"}
    counts, flat = _decode_positions(vbt)
    got = {}
    off = 0
    rows = vbt.to_pylist()
    for i, r in enumerate(rows):
        c = int(counts[i])
        got[(r["term"], r["docid"])] = list(map(int, flat[off : off + c]))
        assert c == r["tf"]
        off += c
    t = pq.read_table(os.path.join(phrase_dir, "documents.parquet"))
    want = _expected_positions(
        t["text"].to_pylist(), t["doc_id"].to_pylist()
    )
    assert got == want
    assert got[("spark", 0)] == [1, 3] and got[("join", 0)] == [2, 4]
    assert got[("tail", 2**40)] == [3]  # huge docid keeps exact positions


def test_blocked_layout_multi_block_roundtrip():
    """Block boundaries (docid gap resets to absolute at each block start)
    decode exactly, including u64-range docids and repeated terms."""
    from web_search_engine_ray.pipelines.phrase import (
        _blocked_shard_table,
        _decode_blocked_rows,
        _encode_positions_batch,
    )

    rng = np.random.default_rng(7)
    rows = []
    for term in ("aa", "bb"):
        docids = np.unique(rng.integers(0, 2**40, size=23))
        for d in docids:
            k = int(rng.integers(1, 6))
            pos = np.unique(rng.integers(1, 500, size=k))
            rows.append((term, int(d), [int(p) for p in pos]))
    plain = pa.table(
        {
            "term": pa.array([r[0] for r in rows], pa.string()),
            "docid": pa.array([r[1] for r in rows], pa.int64()),
            "positions": pa.array([r[2] for r in rows], pa.list_(pa.int32())),
        }
    )
    inflight = _encode_positions_batch(plain)
    blocked = _blocked_shard_table(inflight, block=5)  # forces many blocks
    for term in ("aa", "bb"):
        import pyarrow.compute as pc

        sub = blocked.filter(pc.equal(blocked["term"], term))
        assert sub.num_rows > 1  # multi-block per term
        docids, tfs, flat = _decode_blocked_rows(sub)
        want = sorted((r[1], r[2]) for r in rows if r[0] == term)
        assert list(docids) == [w[0] for w in want]
        off = 0
        for i, (_, pos) in enumerate(want):
            assert int(tfs[i]) == len(pos)
            assert list(map(int, flat[off : off + len(pos)])) == pos
            off += len(pos)


def test_legacy_plain_index_read_compat(
    ray_session, phrase_dir, tmp_path_factory
):
    """Readers still accept a pre-round-5 plain list<int32> on-disk index:
    the test writes one directly (the retired writer's layout) and phrase
    answers must equal the blocked-varbyte index's."""
    from web_search_engine_ray.pipelines.phrase import _term_shard

    out_p = str(tmp_path_factory.mktemp("posidx_plain"))
    out_v = str(tmp_path_factory.mktemp("posidx_vb"))
    build_positional_index(phrase_dir, out_v, n_shards=4)
    t = pq.read_table(os.path.join(phrase_dir, "documents.parquet"))
    want = _expected_positions(t["text"].to_pylist(), t["doc_id"].to_pylist())
    shards = {i: [] for i in range(4)}
    for (term, did), pos in sorted(want.items()):
        shards[_term_shard(term, 4)].append((term, did, pos))
    for i, rows in shards.items():
        pq.write_table(
            pa.table(
                {
                    "term": pa.array([r[0] for r in rows], pa.string()),
                    "docid": pa.array([r[1] for r in rows], pa.int64()),
                    "positions": pa.array(
                        [r[2] for r in rows], pa.list_(pa.int32())
                    ),
                }
            ),
            os.path.join(out_p, f"shard_{i:05d}.parquet"),
        )
    for terms in (["spark", "join"], ["spark", "join", "order"], ["spark", "zzz"]):
        dp, cp = phrase_match_counts(out_p, terms, n_shards=4)
        dv, cv = phrase_match_counts(out_v, terms, n_shards=4)
        assert list(dp) == list(dv) and list(cp) == list(cv)


def test_index_shards_and_pruned_read(built_index):
    # every shard file exists; terms resolve to their owning shard only
    for i in range(4):
        assert os.path.exists(os.path.join(built_index, f"shard_{i:05d}.parquet"))
    tp = read_term_positions(built_index, ["spark", "join"], n_shards=4)
    assert set(tp) == {"spark", "join"}
    sh = _term_shard("spark", 4)
    t = pq.read_table(os.path.join(built_index, f"shard_{sh:05d}.parquet"))
    assert "spark" in set(t["term"].to_pylist())


def test_phrase_match_counts(built_index):
    docs, counts = phrase_match_counts(built_index, ["spark", "join"], n_shards=4)
    assert list(docs) == [0, 2**40] and list(counts) == [2, 1]
    # three-term phrase
    docs, counts = phrase_match_counts(
        built_index, ["spark", "join", "order"], n_shards=4
    )
    assert list(docs) == [0] and list(counts) == [1]
    # repeated-term phrase ("spark join spark")
    docs, counts = phrase_match_counts(
        built_index, ["spark", "join", "spark"], n_shards=4
    )
    assert list(docs) == [0] and list(counts) == [1]
    # unknown term -> empty
    docs, _ = phrase_match_counts(built_index, ["spark", "zzz"], n_shards=4)
    assert docs.size == 0


def test_proximity_windows(ray_session, phrase_dir):
    # window 1: only adjacent pairs (doc 0 has spark-join adjacent; doc 1
    # has join-spark adjacent — order does not matter for proximity)
    t = proximity_search_table(
        phrase_dir, queries=[("spark", "join", 1)], n_shards=4
    ).to_pandas()
    assert sorted(zip(t.docid, t.min_gap)) == [(0, 1), (1, 1), (2**40, 1)]
    # window 3 additionally admits doc 2 (gap 3)
    t = proximity_search_table(
        phrase_dir, queries=[("spark", "join", 3)], n_shards=4
    ).to_pandas()
    assert sorted(zip(t.docid, t.min_gap)) == [(0, 1), (1, 1), (2, 3), (2**40, 1)]


def test_composite_no_cross_doc_leak(ray_session, tmp_path):
    # adjacent docids where term a ends one doc and term b starts the next:
    # composite keys are adjacent across the doc boundary and must NOT
    # produce a phrase/proximity match
    d = tmp_path / "leak"
    d.mkdir()
    t = pa.table(
        {
            "doc_id": pa.array([7, 8], pa.int64()),
            "text": pa.array(["x y spark", "join z w"], pa.string()),
        }
    )
    pq.write_table(t, str(d / "documents.parquet"))
    out = str(tmp_path / "leakidx")
    build_positional_index(str(d), out, n_shards=2)
    docs, _ = phrase_match_counts(out, ["spark", "join"], n_shards=2)
    assert docs.size == 0
    prox = proximity_search_table(
        str(d), queries=[("spark", "join", 100)], n_shards=2
    ).to_pandas()
    assert len(prox) == 0


def test_flask_phrase_mode(ray_session, phrase_dir, built_index, tmp_path_factory):
    from web_search_engine_ray.pipelines.build import build_index
    from web_search_engine_ray.serve import create_app

    idx = str(tmp_path_factory.mktemp("phrase_bm25"))
    build_index(
        os.path.join(phrase_dir, "documents.parquet"),
        idx,
        partition_rows=10,
        num_shards=2,
    )
    app = create_app(idx, pos_index_dir=built_index)
    client = app.test_client()

    r = client.post(
        "/search", json={"query": "spark join", "mode": "PHRASE", "topk": 5}
    )
    assert r.status_code == 200
    body = r.get_json()
    # doc 0 has the phrase twice -> ranked first with score 2
    assert body["results"][0] == {"docid": 0, "score": 2}
    assert {r_["docid"] for r_ in body["results"]} == {0, 2**40}

    # phrase mode without an index -> 400
    bare = create_app(idx).test_client()
    r = bare.post("/search", json={"query": "x", "mode": "PHRASE"})
    assert r.status_code == 400


def test_flask_proximity_boost(ray_session, tmp_path_factory):
    """proximity_boost on /search: dense-docid corpus (the identity
    contract of proximity_boosted_hits — doc_id == build ordinal, as in
    every driver table), boost == ln(1+exp(-min_window)) exactly."""
    import math

    from web_search_engine_ray.pipelines.build import build_index
    from web_search_engine_ray.pipelines.query import Searcher
    from web_search_engine_ray.serve import create_app

    d = tmp_path_factory.mktemp("prox_corpus")
    texts = [
        "spark join spark join order",   # window 2
        "join spark nothing here",       # window 2 (order-free)
        "alpha spark beta gamma join",   # window 4
        "spark only no second term",     # missing 'join': no boost
    ]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        ),
        str(d / "documents.parquet"),
    )
    idx = str(tmp_path_factory.mktemp("prox_bm25"))
    build_index(str(d / "documents.parquet"), idx, partition_rows=10, num_shards=2)
    posidx = str(tmp_path_factory.mktemp("prox_posidx"))
    build_positional_index(str(d), posidx, n_shards=2)

    app = create_app(idx, pos_index_dir=posidx)
    client = app.test_client()
    r = client.post(
        "/search",
        json={"query": "spark join", "mode": "OR", "topk": 5, "proximity_boost": True},
    )
    assert r.status_code == 200
    got = {h["docid"]: h["score"] for h in r.get_json()["results"]}
    base = dict(
        Searcher(idx).bm25_topk("spark join", topk=None, mode="OR", tie_semantics="sorted")
    )
    boosts = {0: 2, 1: 2, 2: 4}  # doc 3 misses 'join' -> raw bm25
    want = {
        d_: b + (math.log(1.0 + math.exp(-boosts[d_])) if d_ in boosts else 0.0)
        for d_, b in base.items()
    }
    assert got.keys() == want.keys()
    for d_ in want:
        assert got[d_] == pytest.approx(want[d_], abs=1e-12)

    # boosting without a positional index -> 400
    bare = create_app(idx).test_client()
    r = bare.post("/search", json={"query": "x", "proximity_boost": True})
    assert r.status_code == 400
    # PHRASE + proximity_boost is contradictory -> 400, never silently
    # dropped (mirrors the ranker=ql + PHRASE rule)
    r = client.post(
        "/search",
        json={"query": "spark join", "mode": "PHRASE", "proximity_boost": True},
    )
    assert r.status_code == 400


def test_ordered_window_directional(ray_session, tmp_path_factory):
    """#od:k is DIRECTIONAL: 'york ... new' must not match ('new','york')."""
    from web_search_engine_ray.pipelines.phrase import ordered_window_table

    d = tmp_path_factory.mktemp("od_docs")
    texts = [
        "new shiny york",      # forward gap 2 <= 3 -> match
        "york then new",       # reversed only -> NO match
        "new york",            # gap 1
        "new a b c d york",    # gap 5 > 3 -> no
        "york new brave york", # reversed AND forward (new->york gap 2)
    ]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        ),
        str(d / "documents.parquet"),
    )
    got = ordered_window_table(str(d), queries=[("new", "york", 3)])
    rows = dict(zip(got["docid"].to_pylist(), got["min_fgap"].to_pylist()))
    assert rows == {0: 2, 2: 1, 4: 2}


def test_ordered_window_matches_oracle(ray_session, oracle_eq):
    import duckdb

    import __ray_entry__ as entrymod

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf}/documents.parquet')"
    )
    oracle_eq(
        entrymod.queries()["ordered_window_search"](sf),
        con.sql(entrymod.oracle_sql()["ordered_window_search"]).df(),
    )
