"""Boundary-tie semantics: many docs with IDENTICAL BM25 scores straddling the
top-k cut. The vectorized scorer must keep exactly the docids the reference's
min-heap keeps (it evicts smallest-docid ties first — a plain (-score, docid)
sort gets this wrong; regression for a bug found on the 1M-turn index). The
reference heap is the in-memory oracle's DAAT loop over the same rows."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from web_search_engine_ray.oracle import OracleIndex
from web_search_engine_ray.pipelines.build import build_index
from web_search_engine_ray.pipelines.query import Searcher


@pytest.fixture(scope="module")
def tie_index(ray_session, tmp_path_factory):
    d = tmp_path_factory.mktemp("tie_corpus")
    rows = []
    # 40 identical docs (same text -> identical tf/dl -> identical scores),
    # plus distinct higher/lower scoring docs around them
    for i in range(40):
        rows.append((f"conv{i:08d}", 0, "user", "data point common filler words here", "", i))
    rows.append(("conv00000100", 0, "user", "data data data data", "", 100))  # high tf
    rows.append(("conv00000101", 0, "user", "data " + "pad " * 60, "", 101))  # long dl
    tbl = pa.table(
        {
            "conv_id": pa.array([r[0] for r in rows]),
            "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
            "role": pa.array([r[2] for r in rows]),
            "text": pa.array([r[3] for r in rows]),
            "tool": pa.array([r[4] for r in rows]),
            "ts": pa.array([r[5] * 1000000 for r in rows], pa.timestamp("us")),
        }
    ).sort_by("conv_id")
    pq.write_table(tbl, str(d / "transcripts_00000.parquet"))
    out = str(tmp_path_factory.mktemp("tie_idx"))
    build_index(str(d), out, partition_rows=20, num_shards=2, n_salts=2, block_size=8)
    # docids follow the stored (conv_id-sorted) row order
    return out, tbl["text"].to_pylist()


def test_vectorized_tie_set_matches_heap(tie_index):
    """Under ``heap`` ties the served top-k keeps the reference heap's
    docids; under ``sorted`` ties it is the oracle's every match in
    (-score, docid) order cut to k. For most k here the 40 identical docs
    tie exactly at the k-th score."""
    idx, texts = tie_index
    s = Searcher(idx)
    oracle = OracleIndex.build(list(enumerate(texts)))

    def by_score(res):
        return sorted(res, key=lambda x: (-x[1], x[0]))

    for q in ["data", "data data", "data common"]:
        every = by_score(oracle.ranked_daat(q, topk=oracle.N, mode="OR"))
        for topk in (1, 3, 5, 10, 39, 41):
            for tie in ("heap", "sorted"):
                fast = s.bm25_topk(q, topk=topk, mode="OR", tie_semantics=tie)
                if tie == "heap":
                    slow = by_score(oracle.ranked_daat(q, topk=topk, mode="OR"))
                else:
                    slow = every[:topk]
                assert [d for d, _ in fast] == [d for d, _ in slow], (q, topk, tie)
                assert [x for _, x in fast] == [x for _, x in slow], (q, topk, tie)


# -- statically pruned (tiered) serving ---------------------------------------


def test_bm25_pruned_recall_and_contract(ray_session, oracle_eq):
    """Pruned serving: (a) matches its own SQL twin (gate test), also after
    ``bm25_topk`` cached the same terms' full-list contributions, (b) a
    LARGE m degenerates to the exact unpruned answer, (c) recall@10 vs the
    full index stays high on the fixed queries at gate scale."""
    import duckdb
    import pandas as pd

    import __ray_entry__ as entrymod
    from web_search_engine_ray.pipelines.serving import (
        bm25_pruned_topk_table,
        bm25_topk_table,
        documents_searcher,
    )

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf}/documents.parquet')"
    )
    got = entrymod.queries()["bm25_pruned"](sf).to_pandas()
    want = con.sql(entrymod.oracle_sql()["bm25_pruned"]).df()


    oracle_eq(got, want)

    # m >= corpus size: identical to the exact unpruned ranking
    full = bm25_topk_table(sf).to_pandas()
    # pruned lists are built by the caller, so they neither read nor fill
    # the contribution cache that ``bm25_topk`` just warmed on the same
    # terms; on this 500-doc index some of them take the dense path
    s = documents_searcher(sf)
    before = s.stats()
    assert before["contrib_hits"] + before["contrib_misses"] > 0
    oracle_eq(bm25_pruned_topk_table(sf).to_pandas(), want)
    after = s.stats()
    assert after["dense_candidates"] > before["dense_candidates"]
    assert after["contrib_hits"] == before["contrib_hits"]
    assert after["contrib_misses"] == before["contrib_misses"]
    big_m = bm25_pruned_topk_table(sf, m=10**9).to_pandas()
    oracle_eq(big_m, full)

    # recall@10 of the tier vs the exact answers. The synthetic corpus has
    # near-uniform tf (1-3) with dl-dominated BM25, the WORST case for
    # tf-ordered pruning (real corpora have heavy-tailed tf where the rule
    # shines) — so the bar here is monotonicity + a loose floor, while the
    # hash-green twin above pins the exact contract.
    def recall(tier_df):
        hit, tot = 0, 0
        for qid in full.query_id.unique():
            exact = set(full[full.query_id == qid].docid)
            tier = set(tier_df[tier_df.query_id == qid].docid)
            hit += len(exact & tier)
            tot += len(exact)
        return hit / tot

    r25 = recall(got)
    r100 = recall(bm25_pruned_topk_table(sf, m=100).to_pandas())
    assert r25 >= 0.3, f"tier recall {r25}"
    assert r100 >= r25 and r100 >= 0.6, f"m=100 recall {r100}"


def test_rrf_fusion_contract(ray_session, oracle_eq):
    """RRF: hand-checkable fusion arithmetic + the gate twin."""
    import duckdb

    import __ray_entry__ as entrymod
    from web_search_engine_ray.pipelines.serving import (
        documents_searcher,
        rrf_fusion_table,
    )

    sf = "/root/testdata/sf0.001"
    got = rrf_fusion_table(sf).to_pandas()
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf}/documents.parquet')"
    )
    oracle_eq(got, con.sql(entrymod.oracle_sql()["rrf_fusion"]).df())

    # arithmetic spot-check: recompute query 0's fusion from the two pools
    s = documents_searcher(sf)
    q = "spark join"
    fused = {}
    for pool in (
        s.bm25_topk(q, topk=50, mode="OR", tie_semantics="sorted"),
        s.ql_topk(q, topk=50),
    ):
        for r, (d, _sc) in enumerate(pool, start=1):
            fused[d] = fused.get(d, 0.0) + 1.0 / (60 + r)
    want_top = sorted(fused.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    got0 = got[got.query_id == 0]
    assert list(got0.docid) == [d for d, _ in want_top]
    for (_, row), (_, sc) in zip(got0.iterrows(), want_top):
        assert row.score == round(sc, 6)


def test_ranker_agreement_contract(ray_session, oracle_eq):
    """Agreement rows exist for every (query, pair) where both systems
    produced a cut; values recomputed from the three top-k tables."""
    import duckdb

    import __ray_entry__ as entrymod
    from web_search_engine_ray.pipelines.serving import (
        bm25_topk_table,
        ql_topk_table,
        ranker_agreement_table,
        vsm_topk_table,
    )

    sf = "/root/testdata/sf0.001"
    got = ranker_agreement_table(sf).to_pandas()
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf}/documents.parquet')"
    )
    oracle_eq(got, con.sql(entrymod.oracle_sql()["ranker_agreement"]).df())

    tops = {
        "bm25": bm25_topk_table(sf).to_pandas(),
        "ql": ql_topk_table(sf).to_pandas(),
        "vsm": vsm_topk_table(sf).to_pandas(),
    }
    for _, row in got.iterrows():
        a, b = row["pair"].split("_")
        sa = set(tops[a][tops[a].query_id == row.query_id].docid)
        sb = set(tops[b][tops[b].query_id == row.query_id].docid)
        assert row.overlap == len(sa & sb)


def test_boolean_and_not(ray_session, oracle_eq, tmp_path_factory):
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as entrymod
    from web_search_engine_ray.pipelines.serving import boolean_not_table

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf}/documents.parquet')"
    )
    oracle_eq(
        entrymod.queries()["boolean_and_not"](sf),
        con.sql(entrymod.oracle_sql()["boolean_and_not"]).df(),
    )
    # planted: pos-only docs survive; unknown negative excludes nothing
    d = tmp_path_factory.mktemp("not_docs")
    texts = ["alpha beta", "alpha", "beta", "alpha gamma"]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        ),
        str(d / "documents.parquet"),
    )
    t = boolean_not_table(str(d), pairs=[("alpha", "beta"), ("alpha", "zzz")])
    got = {}
    for q, doc in zip(t["query_id"].to_pylist(), t["docid"].to_pylist()):
        got.setdefault(q, []).append(doc)
    assert got == {0: [1, 3], 1: [0, 1, 3]}
