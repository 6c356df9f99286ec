"""Minimal covering window (best-passage / MinDist primitive):
vectorized searchsorted sweep == brute force, plus the gate entry's DuckDB
cross-join twin at sf0.001 (the driver re-checks at sf0.01)."""

import itertools

import numpy as np
import pytest

from web_search_engine_ray.pipelines.phrase import (
    build_positional_index,
    min_window_lengths,
    min_window_table,
)


@pytest.fixture(scope="module")
def mw_index(ray_session, tmp_path_factory):
    # the same 4-doc corpus as tests/test_phrase.py's phrase_dir (u64 docid
    # included), built locally: fixtures don't cross test modules
    import pyarrow as pa
    import pyarrow.parquet as pq

    d = tmp_path_factory.mktemp("mw_docs")
    texts = [
        "spark join spark join order",
        "join spark nothing here",
        "alpha spark beta gamma join",
        "spark join tail",
    ]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([0, 1, 2, 2**40], pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        ),
        str(d / "documents.parquet"),
    )
    out = str(tmp_path_factory.mktemp("mw_idx"))
    build_positional_index(str(d), out, n_shards=4)
    return out


def _as_dict(docs: np.ndarray, wl: np.ndarray) -> dict[int, int]:
    return {int(d): int(w) for d, w in zip(docs, wl)}


def test_two_terms(mw_index):
    got = _as_dict(*min_window_lengths(mw_index, ["spark", "join"], 4))
    # doc0 spark@1,3 join@2,4 -> [1,2]; doc1 join@1 spark@2; doc2 spark@2
    # join@5; the u64 doc: spark@1 join@2
    assert got == {0: 2, 1: 2, 2: 4, 2**40: 2}


def test_window_not_anchored_at_first_occurrence(mw_index):
    # doc0 join@2,4 order@5 -> best window is [4,5], not [2,5]
    got = _as_dict(*min_window_lengths(mw_index, ["order", "join"], 4))
    assert got[0] == 2


def test_single_term_and_duplicates(mw_index):
    got = _as_dict(*min_window_lengths(mw_index, ["spark"], 4))
    assert got == {0: 1, 1: 1, 2: 1, 2**40: 1}
    dup = _as_dict(*min_window_lengths(mw_index, ["spark", "spark", "join"], 4))
    assert dup == _as_dict(*min_window_lengths(mw_index, ["spark", "join"], 4))


def test_three_terms_and_missing_term(mw_index):
    got = _as_dict(*min_window_lengths(mw_index, ["alpha", "gamma", "join"], 4))
    assert got == {2: 5}  # alpha@1 gamma@4 join@5
    docs, wl = min_window_lengths(mw_index, ["spark", "zzznope"], 4)
    assert docs.size == 0 and wl.size == 0


def _brute(texts: dict[int, str], terms: list[str]) -> dict[int, int]:
    terms = list(dict.fromkeys(terms))
    out = {}
    for did, tx in texts.items():
        toks = tx.split()
        pos = {t: [i + 1 for i, w in enumerate(toks) if w == t] for t in terms}
        if any(not v for v in pos.values()):
            continue
        best = min(
            max(c) - min(c) + 1 for c in itertools.product(*(pos[t] for t in terms))
        )
        out[did] = best
    return out


def test_randomized_vs_brute_force(ray_session, tmp_path_factory):
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng(11)
    vocab = ["aa", "bb", "cc", "dd", "ee"]
    texts = {
        i: " ".join(rng.choice(vocab, size=int(rng.integers(3, 40))))
        for i in range(30)
    }
    d = tmp_path_factory.mktemp("mw_rand")
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(sorted(texts), pa.int64()),
                "text": pa.array([texts[i] for i in sorted(texts)], pa.string()),
            }
        ),
        str(d / "documents.parquet"),
    )
    out = str(tmp_path_factory.mktemp("mw_rand_idx"))
    build_positional_index(str(d), out, n_shards=4)
    for terms in (["aa", "bb"], ["aa", "bb", "cc"], ["dd", "ee", "aa", "bb"]):
        got = _as_dict(*min_window_lengths(out, terms, 4))
        assert got == _brute(texts, terms)


def test_gate_entry_matches_oracle(ray_session, oracle_eq):
    import duckdb
    import pandas as pd

    import __ray_entry__ as entrymod

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf}/documents.parquet')"
    )
    got = min_window_table(sf).to_pandas()
    want = con.sql(entrymod.oracle_sql()["min_window"]).df()

    oracle_eq(got, want)


# -- proximity-boosted BM25 ---------------------------------------------------


def test_bm25_proximity_flips_tie_and_boosts(ray_session, tmp_path_factory):
    import math

    import pyarrow as pa
    import pyarrow.parquet as pq

    from web_search_engine_ray.pipelines.phrase import bm25_proximity_table
    from web_search_engine_ray.pipelines.serving import documents_searcher

    # doc0/doc1: identical tf and dl (equal BM25, tie broken by docid) but
    # doc1's terms are adjacent (window 2) vs doc0's window 3 -> the
    # proximity boost must flip the order; doc2 misses 'join' -> no boost
    d = tmp_path_factory.mktemp("prox_docs")
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([0, 1, 2], pa.int64()),
                "text": pa.array(
                    ["spark pad join", "spark join pad", "spark pad pad"],
                    pa.string(),
                ),
            }
        ),
        str(d / "documents.parquet"),
    )
    t = bm25_proximity_table(str(d), queries=["spark join"], topk=10)
    rows = list(
        zip(t["docid"].to_pylist(), t["score"].to_pylist(), strict=True)
    )
    assert [r[0] for r in rows] == [1, 0, 2]
    s = documents_searcher(str(d))
    base = dict(s.bm25_topk("spark join", topk=None, mode="OR", tie_semantics="sorted"))
    assert rows[0][1] == round(base[1] + math.log(1.0 + math.exp(-2.0)), 4)
    assert rows[1][1] == round(base[0] + math.log(1.0 + math.exp(-3.0)), 4)
    assert rows[2][1] == round(base[2], 4)  # missing term: exp(-inf) -> 0


def test_bm25_proximity_matches_oracle(ray_session, oracle_eq):
    import duckdb
    import pandas as pd

    import __ray_entry__ as entrymod
    from web_search_engine_ray.pipelines.phrase import bm25_proximity_table

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf}/documents.parquet')"
    )
    got = bm25_proximity_table(sf).to_pandas()
    want = con.sql(entrymod.oracle_sql()["bm25_proximity"]).df()


    oracle_eq(got, want)
