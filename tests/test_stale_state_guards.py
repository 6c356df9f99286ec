"""Guards against stale on-disk state and degenerate directories: a
repartitioned rebuild must not fold old runs in, zeroed block-max
directories must force exhaustive scoring, and null partition keys must
raise instead of vanishing."""

import glob
import os

import numpy as np
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


def _searcher_results(idx, queries):
    from web_search_engine_ray.pipelines.query import Searcher

    s = Searcher(idx)
    return {q: s.bm25_topk(q, 10, "OR") for q in queries}


def test_rebuild_ignores_stale_runs(ray_session, tmp_path):
    """Rebuild the same out_dir with FEWER, larger partitions: the old
    extra run files must not be merged in (doubled tf/df) — results must
    equal a fresh build."""
    import pyarrow.parquet as pq

    from web_search_engine_ray.pipelines.build import build_index

    # a corpus file with MANY row groups so partition_rows actually splits
    src_t = pq.read_table(os.path.join(SF, "documents.parquet"), columns=["text"])
    src = str(tmp_path / "corpus.parquet")
    pq.write_table(src_t, src, row_group_size=50)

    out = str(tmp_path / "idx")
    build_index(src, out, partition_rows=50, num_shards=4)
    n_runs_small = len(glob.glob(os.path.join(out, "runs", "run_*.parquet")))
    assert n_runs_small >= 5
    # rebuild in place with a coarser partitioning -> fewer run files
    build2 = build_index(src, out, partition_rows=400, num_shards=4)
    fresh = str(tmp_path / "fresh")
    build3 = build_index(src, fresh, partition_rows=400, num_shards=4)
    assert build2["n_postings"] == build3["n_postings"]
    qs = ["the data", "spark join", "w0001 w0002"]
    assert _searcher_results(out, qs) == _searcher_results(fresh, qs)


def test_degenerate_blk_max_tf_falls_back(ray_session, tmp_path):
    """Zero the block-max directory (standing in for a pre-blk_max_tf
    lexicon): the MaxScore fast path must fall back to exhaustive scoring,
    not silently prune everything."""
    import pickle

    from web_search_engine_ray.pipelines.build import build_index
    from web_search_engine_ray.pipelines.query import Searcher

    out = str(tmp_path / "idx")
    build_index(
        os.path.join(SF, "documents.parquet"),
        out,
        partition_rows=200,
        num_shards=4,
    )
    s0 = Searcher(out)
    qs = ["the data", "spark join w0001", "the the data"]
    want = {q: s0.bm25_topk(q, 10, "OR") for q in qs}

    for lp in glob.glob(os.path.join(out, "index", "*.lexicon")):
        with open(lp, "rb") as f:
            d = pickle.load(f)
        d["blk_max_tf"] = np.zeros_like(d["blk_max_tf"])
        with open(lp, "wb") as f:
            pickle.dump(d, f)

    s1 = Searcher(out)
    for q in qs:
        assert s1.bm25_topk(q, 10, "OR") == want[q], q


def test_exchange_rejects_null_partition_values(ray_session):
    import ray

    from web_search_engine_ray.stages.exchange import exchange_map

    t = pa.table(
        {
            "p": pa.array([0, None, 1], pa.int64()),
            "v": pa.array([1, 2, 3], pa.int64()),
        }
    )
    with pytest.raises(Exception, match="nulls"):
        ray.get(exchange_map([ray.put(t)], "p", 2, lambda g: g))
