"""Full-build conformance under non-default configs: the raw codec and the
reference-default block size 128 (the main conformance suite uses varbyte +
block 16 to force multi-block paths; this pins the other corner)."""

import glob

import pyarrow.parquet as pq
import pytest

from web_search_engine_ray.oracle import OracleIndex
from web_search_engine_ray.pipelines.build import build_index
from web_search_engine_ray.pipelines.query import Searcher


@pytest.fixture(scope="module")
def oracle(small_corpus_dir):
    rows = []
    for f in sorted(glob.glob(small_corpus_dir + "/*.parquet")):
        rows.extend(pq.read_table(f, columns=["text"])["text"].to_pylist())
    return OracleIndex.build(list(enumerate(rows)))


@pytest.mark.parametrize("codec,block", [("raw", 128), ("varbyte", 128), ("raw", 16)])
def test_full_build_other_configs(ray_session, small_corpus_dir, tmp_path_factory, oracle, codec, block):
    out = str(tmp_path_factory.mktemp(f"idx_{codec}_{block}"))
    build = build_index(
        small_corpus_dir, out, partition_rows=600, num_shards=4, n_salts=3,
        codec=codec, block_size=block,
    )
    assert build["n_postings"] == sum(len(p) for p in oracle.index.values())
    s = Searcher(out)
    # decoded postings equality on a sample incl. heavy + rare terms
    sample = build["heavy_terms"][:3] + ["data", "w0001", "u.s", "3.14"]
    for term in sample:
        d, f = s.postings(term)
        want_d, want_f = oracle.postings(term)
        assert d.tolist() == want_d, (codec, block, term)
        assert f.tolist() == want_f, (codec, block, term)
    # rank identity on a few queries
    for q in ["the data", "w0001 w0002", "data data"]:
        got = sorted(s.bm25_topk(q, 10, "OR"), key=lambda x: (-x[1], x[0]))
        want = sorted(oracle.ranked_daat(q, 10, "OR"), key=lambda x: (-x[1], x[0]))
        assert [d for d, _ in got] == [d for d, _ in want], (codec, block, q)
        for (gd, gs), (wd, ws) in zip(got, want):
            assert gs == pytest.approx(ws, rel=1e-9)
