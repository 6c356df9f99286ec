"""Type-ahead autocomplete: Searcher.complete + the gate entry's DuckDB twin
+ the Flask /complete endpoint.

The reference's lexicon is one hash dict (``HW2/engine/lexicon.py``) — it
has no structure to answer prefixes; our sorted per-shard term lists answer
them with two bisects and a per-shard k-cut."""

import duckdb
import pandas as pd
import pytest

import __ray_entry__ as entrymod
from web_search_engine_ray.pipelines import serving

SF = "/root/testdata/sf0.001"


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def test_autocomplete_matches_oracle(ray_session):
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')")
    got = serving.autocomplete_table(SF).to_pandas()
    exp = con.sql(entrymod.oracle_sql()["autocomplete"]).df()
    pd.testing.assert_frame_equal(_canon(got), _canon(exp))
    # the no-match probe contributes zero rows
    assert not (got["prefix"] == "nosuch").any()


def test_complete_ranking_and_heavy_shards(ray_session):
    s = serving.documents_searcher(SF)
    comps = s.complete("s", k=10)
    assert comps, "single-char prefix must complete on this corpus"
    # (df desc, term) order
    keys = [(-df, t) for t, df in comps]
    assert keys == sorted(keys)
    # every completion is a real lexicon term with the lexicon's df
    for t, df in comps:
        assert t.startswith("s") and s.df(t) == df
    # heavy terms (salted shards past num_shards) are reachable: at this
    # corpus size every term is heavy, so any hit proves the heavy scan
    assert any(t in s.heavy for t, _ in comps)
    assert s.complete("zzzz", k=5) == []
    assert s.complete("", k=5) == []


def test_flask_complete_endpoint(ray_session):
    from web_search_engine_ray.serve import create_app

    idx = serving.documents_index(SF)
    app = create_app(idx)
    client = app.test_client()
    r = client.post("/complete", json={"prefix": "sp", "k": 3})
    assert r.status_code == 200
    body = r.get_json()
    assert body["prefix"] == "sp"
    assert len(body["completions"]) >= 1
    assert all(c["term"].startswith("sp") for c in body["completions"])
    assert client.post("/complete", json={"prefix": ""}).status_code == 400


def test_flask_complete_k_must_be_a_positive_int(ray_session):
    """``k`` follows ``POST /search``'s ``topk`` rule: a JSON integer >= 1,
    10 when omitted or null, 400 otherwise (a bool too)."""
    from web_search_engine_ray.serve import create_app

    client = create_app(serving.documents_index(SF)).test_client()
    for bad in ("x", "3", -1, 0, 2.5, True, [3]):
        r = client.post("/complete", json={"prefix": "s", "k": bad})
        assert r.status_code == 400, bad
        assert "k must be" in r.get_json()["error"]
    for k in (1, 3):
        r = client.post("/complete", json={"prefix": "s", "k": k})
        assert r.status_code == 200 and len(r.get_json()["completions"]) == k, k
    ten = client.post("/complete", json={"prefix": "s", "k": 10}).get_json()["completions"]
    for body in ({"prefix": "s", "k": None}, {"prefix": "s"}):
        assert client.post("/complete", json=body).get_json()["completions"] == ten


def test_complete_df_tie_at_shard_cut(ray_session, tmp_path_factory):
    """Regression: the per-shard k-cut must be the (df desc, term asc)
    order — a bare argpartition on df drops the lexicographically-first of
    df-TIED terms at the k boundary, diverging from the SQL twin."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from web_search_engine_ray.pipelines.build import build_index
    from web_search_engine_ray.pipelines.query import Searcher

    d = tmp_path_factory.mktemp("tie_docs")
    # six prefix-sharing terms, ALL df=1, in one lexicon shard
    terms = ["spaa", "spab", "spac", "spad", "spae", "spaf"]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(len(terms)), pa.int64()),
                "text": pa.array(terms, pa.string()),
            }
        ),
        str(d / "documents.parquet"),
    )
    idx = str(tmp_path_factory.mktemp("tie_idx"))
    build_index(str(d / "documents.parquet"), idx, partition_rows=10, num_shards=1)
    got = Searcher(idx).complete("spa", k=2)
    assert got == [("spaa", 1), ("spab", 1)]
