"""Dirichlet-smoothed query-likelihood ranking (Zhai & Lafferty 2001).

Covers: hand-computed scores on a tiny corpus (including the background
probability paid by a candidate missing a query term and the per-occurrence
multiplicity of duplicate query terms), the gate entry vs its DuckDB twin,
and the HTTP ``ranker: "ql"`` option.
"""

import math

import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def ql_corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("ql_docs")
    texts = [
        "spark join spark",   # doc0: tf(spark)=2, tf(join)=1, dl=3
        "spark pad pad pad",  # doc1: tf(spark)=1, tf(join)=0, dl=4
        "pad pad",            # doc2: matches nothing
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
    return str(d)


def _expect(tf_by_term, dl, cfs, T, mu=2000.0):
    return sum(
        math.log((tf + mu * cf / T) / (dl + mu)) for tf, cf in zip(tf_by_term, cfs)
    )


def test_ql_hand_computed(ray_session, ql_corpus):
    from web_search_engine_ray.pipelines.serving import documents_searcher

    s = documents_searcher(ql_corpus)
    T = 9.0  # total tokens
    cf_spark, cf_join = 3.0, 1.0
    got = dict(s.ql_topk("spark join", topk=None))
    # doc1 misses 'join': pays the background probability, still a candidate
    want = {
        0: _expect([2, 1], 3.0, [cf_spark, cf_join], T),
        1: _expect([1, 0], 4.0, [cf_spark, cf_join], T),
    }
    assert got.keys() == want.keys()
    for d in want:
        assert got[d] == pytest.approx(want[d], abs=1e-12)
    # duplicate query terms count per occurrence
    got2 = dict(s.ql_topk("spark spark", topk=None))
    want2 = {
        0: 2 * _expect([2], 3.0, [cf_spark], T),
        1: 2 * _expect([1], 4.0, [cf_spark], T),
    }
    for d in want2:
        assert got2[d] == pytest.approx(want2[d], abs=1e-12)
    # unknown terms drop (not -inf): same candidates/scores as without it
    assert dict(s.ql_topk("spark join zzzz", topk=None)) == got
    # all-unknown query -> empty
    assert s.ql_topk("zzzz", topk=None) == []


def test_ql_gate_entry_matches_oracle(ray_session, oracle_eq):
    import duckdb
    import pandas as pd

    import __ray_entry__ as entrymod

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf}/documents.parquet')"
    )
    got = entrymod.queries()["ql_topk"](sf).to_pandas()
    want = con.sql(entrymod.oracle_sql()["ql_topk"]).df()


    oracle_eq(got, want)


def test_flask_ql_ranker(ray_session, ql_corpus, tmp_path_factory):
    from web_search_engine_ray.pipelines.build import build_index
    from web_search_engine_ray.pipelines.query import Searcher
    from web_search_engine_ray.serve import create_app

    idx = str(tmp_path_factory.mktemp("ql_idx"))
    build_index(ql_corpus + "/documents.parquet", idx, partition_rows=10, num_shards=2)
    client = create_app(idx).test_client()
    r = client.post("/search", json={"query": "spark join", "ranker": "ql", "topk": 5})
    assert r.status_code == 200
    got = {h["docid"]: h["score"] for h in r.get_json()["results"]}
    want = dict(Searcher(idx).ql_topk("spark join", topk=5))
    assert got.keys() == want.keys()
    for d in want:
        assert got[d] == pytest.approx(want[d], abs=1e-12)
    # invalid ranker / ql+PHRASE conflict -> 400
    assert (
        client.post("/search", json={"query": "x", "ranker": "pagerank"}).status_code
        == 400
    )
    assert (
        client.post(
            "/search", json={"query": "x", "ranker": "ql", "mode": "PHRASE"}
        ).status_code
        == 400
    )


def test_flask_rrf_ranker(ray_session, ql_corpus, tmp_path_factory):
    from web_search_engine_ray.pipelines.build import build_index
    from web_search_engine_ray.pipelines.query import Searcher
    from web_search_engine_ray.serve import create_app

    idx = str(tmp_path_factory.mktemp("rrf_idx"))
    build_index(ql_corpus + "/documents.parquet", idx, partition_rows=10, num_shards=2)
    client = create_app(idx).test_client()
    r = client.post("/search", json={"query": "spark join", "ranker": "rrf", "topk": 5})
    assert r.status_code == 200
    got = [(h["docid"], h["score"]) for h in r.get_json()["results"]]
    # the same fusion as the gate-checked rrf_fusion table
    assert got == Searcher(idx).rrf_topk("spark join", topk=5)
    assert (
        client.post(
            "/search", json={"query": "x", "ranker": "rrf", "mode": "PHRASE"}
        ).status_code
        == 400
    )


def test_flask_topk_validation(ray_session, ql_corpus, tmp_path_factory):
    """``topk`` must be a JSON integer >= 1 for every ranker: anything else
    is a 400, never a 500 from the ranker or a silently shortened list."""
    from web_search_engine_ray.pipelines.build import build_index
    from web_search_engine_ray.serve import create_app

    idx = str(tmp_path_factory.mktemp("topk_idx"))
    build_index(ql_corpus + "/documents.parquet", idx, partition_rows=10, num_shards=2)
    client = create_app(idx).test_client()
    for ranker in ("bm25", "ql", "rrf"):
        for bad in (-1, 0, "x", "3", 1.5, True):
            r = client.post(
                "/search",
                json={"query": "spark join", "mode": "OR", "ranker": ranker, "topk": bad},
            )
            assert r.status_code == 400, (ranker, bad)
        r = client.post(
            "/search", json={"query": "spark join", "mode": "OR", "ranker": ranker, "topk": 1}
        )
        assert r.status_code == 200 and len(r.get_json()["results"]) == 1, ranker
    # omitted or null -> the default 10
    for body in ({}, {"topk": None}):
        r = client.post("/search", json={"query": "spark join", "mode": "OR", **body})
        assert r.status_code == 200 and len(r.get_json()["results"]) == 2, body
