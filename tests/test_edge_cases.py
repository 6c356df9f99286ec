"""Degenerate inputs: all-empty partitions, salting disabled, unknown-only
queries, empty query strings."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from web_search_engine_ray.pipelines.build import build_index
from web_search_engine_ray.pipelines.query import Searcher


def _write_corpus(path, texts):
    tbl = pa.table(
        {
            "conv_id": pa.array([f"conv{i:08d}" for i in range(len(texts))]),
            "turn_idx": pa.array([0] * len(texts), pa.int32()),
            "role": pa.array(["user"] * len(texts)),
            "text": pa.array(texts),
            "tool": pa.array([""] * len(texts)),
            "ts": pa.array(list(range(len(texts))), pa.timestamp("us")),
        }
    )
    pq.write_table(tbl, str(path))


def test_all_empty_corpus(ray_session, tmp_path):
    d = tmp_path / "c"
    d.mkdir()
    _write_corpus(d / "t.parquet", ["", "   ", "...", "!!!"])
    out = str(tmp_path / "idx")
    build = build_index(str(d), out, partition_rows=2, num_shards=2, n_salts=2)
    assert build["n_docs"] == 4
    assert build["n_postings"] == 0
    assert build["n_terms"] == 0
    s = Searcher(out)
    assert s.N == 4 and s.avgdl == 0.0
    assert s.bm25_topk("anything", 10, "OR") == []
    assert s.boolean("anything", "AND") == set()


def test_mixed_empty_partitions(ray_session, tmp_path):
    d = tmp_path / "c"
    d.mkdir()
    # first partition entirely token-less, second has content
    _write_corpus(d / "t0.parquet", ["", "  "])
    _write_corpus(d / "t1.parquet", ["alpha beta", "beta gamma beta"])
    out = str(tmp_path / "idx")
    build = build_index(str(d), out, partition_rows=2, num_shards=2, n_salts=2)
    assert build["n_docs"] == 4
    s = Searcher(out)
    # docids 0,1 are the empty docs; alpha lives in doc 2
    d_, f_ = s.postings("beta")
    assert d_.tolist() == [2, 3] and f_.tolist() == [1, 2]
    assert s.doclens.dense().tolist() == [0, 0, 2, 3]
    # empty docs count toward N/avgdl (reference MP-path rule)
    assert s.avgdl == pytest.approx(5 / 4)


def test_salting_disabled(ray_session, small_corpus_dir, tmp_path):
    out = str(tmp_path / "idx")
    build = build_index(
        small_corpus_dir, out, partition_rows=500, num_shards=4, n_salts=2,
        heavy_df_frac=0,  # disables heavy detection entirely
    )
    assert build["heavy_terms"] == []
    s = Searcher(out)
    assert s.df("the") > 0  # stopword lives in a normal hash shard
    assert len(s.bm25_topk("the data", 5, "OR")) == 5


def test_query_edges(ray_session, small_corpus_dir, tmp_path):
    out = str(tmp_path / "idx")
    build_index(small_corpus_dir, out, partition_rows=500, num_shards=4, n_salts=2)
    s = Searcher(out)
    assert s.bm25_topk("", 10, "OR") == []
    assert s.bm25_topk("", topk=None, mode="AND", tie_semantics="sorted") == []
    assert s.boolean("", "OR") == set()
    assert s.boolean("zzz qqq", "AND") == set()
    # topk larger than result count
    res = s.bm25_topk("uq0x0 uq1x0", topk=1000, mode="OR")
    assert 0 < len(res) < 1000 or res == []


def test_doclengths_below_first_span(tmp_path):
    """Docids below the first span's start clamp to dl=0 (public lookup API
    must not wrap-index the last shard) — range-offset index scenario. Over
    several shards, docids in a gap between spans and past the last span
    read 0 too, and sorted and unsorted inputs get the same per-docid
    answers."""
    import json

    import numpy as np

    from web_search_engine_ray.state.docstats import DocLengths

    d = tmp_path / "dl"
    d.mkdir()
    spans = {100: [7, 8, 9], 103: [4, 0, 6], 110: [2, 3]}  # 106-109 a gap
    for i, (lo, dls) in enumerate(spans.items()):
        t = pa.table({"docid": pa.array(range(lo, lo + len(dls)), pa.uint64()),
                      "dl": pa.array(dls, pa.uint32())})
        pq.write_table(t.replace_schema_metadata({"docid_lo": str(lo)}),
                       str(d / f"doclen_{i:03d}.parquet"))
    (d / "stats.json").write_text(json.dumps({"N": 8, "total_tokens": 39, "avgdl": 4.875}))
    dls = DocLengths(str(d))
    want = {lo + j: v for lo, vals in spans.items() for j, v in enumerate(vals)}
    ids = [5, 99, 100, 101, 102, 103, 104, 105, 106, 109, 110, 111, 112, 10**6]
    got = dls.get_many(np.array(ids, dtype=np.uint64))
    assert got.tolist() == [want.get(x, 0) for x in ids]
    assert dls.get_many(np.array([5, 100, 102, 99, 103], dtype=np.uint64)).tolist() == [0, 7, 9, 0, 4]
    rng = np.random.default_rng(0)
    for _ in range(5):
        shuf = rng.permutation(ids + ids[:4])  # with repeats
        got = dls.get_many(np.array(shuf, dtype=np.uint64))
        assert got.tolist() == [want.get(int(x), 0) for x in shuf]
    assert dls.get_many(np.array([], dtype=np.uint64)).tolist() == []


def test_round4_ops_on_tiny_degenerate_corpora(ray_session, tmp_path_factory):
    """The session's operators over a 1-doc corpus and an all-empty-text
    corpus: no crashes, sane empties (the driver may run any entry on any
    table shape)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from web_search_engine_ray.pipelines import grep, spell
    from web_search_engine_ray.pipelines.serving import (
        bm25_pruned_topk_table,
        more_like_this_table,
        ql_topk_table,
        rrf_fusion_table,
        vsm_topk_table,
    )

    one = tmp_path_factory.mktemp("one_doc")
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([0], pa.int64()),
                "text": pa.array(["spark join data"], pa.string()),
            }
        ),
        str(one / "documents.parquet"),
    )
    empty_text = tmp_path_factory.mktemp("empty_text")
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([0, 1], pa.int64()),
                "text": pa.array(["", ""], pa.string()),
            }
        ),
        str(empty_text / "documents.parquet"),
    )
    for d in (str(one), str(empty_text)):
        for fn in (
            ql_topk_table,
            bm25_pruned_topk_table,
            rrf_fusion_table,
            vsm_topk_table,
        ):
            t = fn(d, queries=["spark join", "zzz"])
            assert t.num_rows >= 0
        t = more_like_this_table(d, source_docids=[0])
        assert t.num_rows == 0  # no OTHER doc shares a term (or no terms)
        assert grep.substring_search(d, "spark join").num_rows == (
            1 if d == str(one) else 0
        )
        assert grep.regex_search(d, "spark [a-z]+ data").num_rows == (
            1 if d == str(one) else 0
        )
        t = spell.fuzzy_search_table(d, queries=["spark", "zzzz"])
        assert t.num_rows == (1 if d == str(one) else 0)
