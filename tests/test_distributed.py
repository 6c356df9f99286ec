"""Doc-range-partitioned serving must equal the single global index exactly:
same docids, bit-identical scores (global N/avgdl/df injection)."""

import pytest

from web_search_engine_ray.pipelines.build import build_index
from web_search_engine_ray.pipelines.distributed import (
    PartitionedSearcher,
    build_partitioned_index,
)
from web_search_engine_ray.pipelines.query import Searcher

QUERIES = [
    "the data",
    "w0001 w0002",
    "data data",
    "u.s",
    "the zzzznotaterm",
    "w0003 w0004 w0005",
]


@pytest.fixture(scope="module")
def pair(ray_session, small_corpus_dir, tmp_path_factory):
    cfg = dict(partition_rows=400, num_shards=4, n_salts=3, block_size=16)
    single = str(tmp_path_factory.mktemp("single_idx"))
    build_index(small_corpus_dir, single, **cfg)
    part = str(tmp_path_factory.mktemp("part_idx"))
    manifest = build_partitioned_index(small_corpus_dir, part, n_ranges=3, **cfg)
    return single, part, manifest


def test_partition_manifest(pair):
    _, _, m = pair
    assert len(m["ranges"]) == 3
    spans = [tuple(r["docid_span"]) for r in m["ranges"]]
    # contiguous disjoint global docid ranges
    assert spans[0][0] == 0
    for (a, b), (c, d) in zip(spans, spans[1:]):
        assert b == c
    assert spans[-1][1] == m["n_docs"]


def test_partitioned_equals_single(pair):
    single, part, m = pair
    s = Searcher(single)
    assert m["n_docs"] == s.N
    assert m["avgdl"] == pytest.approx(s.avgdl, rel=1e-12)
    ps = PartitionedSearcher(part)
    try:
        for q in QUERIES:
            for mode in ("OR", "AND"):
                got = ps.bm25_topk(q, topk=10, mode=mode)
                want = s.bm25_topk(q, topk=10, mode=mode, tie_semantics="sorted")
                assert [d for d, _ in got] == [d for d, _ in want], (q, mode)
                assert [x for _, x in got] == [x for _, x in want], (q, mode)
    finally:
        ps.shutdown()


def test_append_range(ray_session, small_corpus_dir, tmp_path_factory):
    """Incremental growth: partitioned index over the first files + an
    appended range over the rest must answer bit-identically to a single
    from-scratch index over the whole corpus."""
    import glob

    from web_search_engine_ray.pipelines.distributed import append_range_index

    files = sorted(glob.glob(small_corpus_dir + "/*.parquet"))
    assert len(files) >= 3
    cfg = dict(partition_rows=400, num_shards=4, n_salts=3, block_size=16)

    part = str(tmp_path_factory.mktemp("grow_idx"))
    m0 = build_partitioned_index(files[:-1], part, n_ranges=2, **cfg)
    n_before = m0["n_docs"]
    m1 = append_range_index(part, files[-1:], **cfg)
    assert len(m1["ranges"]) == len(m0["ranges"]) + 1
    assert m1["ranges"][-1]["docid_span"][0] == n_before

    single = str(tmp_path_factory.mktemp("grow_single"))
    build_index(small_corpus_dir, single, **cfg)
    s = Searcher(single)
    assert m1["n_docs"] == s.N
    assert m1["avgdl"] == pytest.approx(s.avgdl, rel=1e-12)

    ps = PartitionedSearcher(part)
    try:
        for q in QUERIES:
            for mode in ("OR", "AND"):
                got = ps.bm25_topk(q, topk=10, mode=mode)
                want = s.bm25_topk(q, topk=10, mode=mode, tie_semantics="sorted")
                assert [d for d, _ in got] == [d for d, _ in want], (q, mode)
                assert [x for _, x in got] == [x for _, x in want], (q, mode)
        # new-range docs are reachable
        hits = {d for d, _ in ps.bm25_topk("the data", topk=500, mode="OR")}
        assert any(d >= n_before for d in hits)
    finally:
        ps.shutdown()


@pytest.mark.parametrize("cpus", [1, 2, 3, 4, 8, 32])
@pytest.mark.parametrize("n_ranges", [1, 2, 3, 4, 7, 16])
def test_range_actor_cpus_leave_one_cpu(cpus, n_ranges):
    """Serving actors together take at most cpus - 1 (in Ray's 1e-4 fixed
    point), so a 1-CPU build task always fits beside them; 0 at 1 CPU."""
    from web_search_engine_ray.pipelines.distributed import range_actor_cpus

    per = range_actor_cpus(cpus, n_ranges)
    assert 0.0 <= per <= 1.0
    assert round(per * 1e4) * n_ranges <= (cpus - 1) * 10_000
    assert (per == 0.0) == (cpus == 1)
    if cpus - 1 >= n_ranges:
        assert per == 1.0


def test_append_range_beside_live_searcher(ray_session, tmp_path_factory):
    """A 4-range searcher held open at 4 CPUs must leave a CPU for the
    append's build tasks (it once took 3.2 of 4 and the append never
    finished). Runs the append on a thread so a regression fails on the
    timeout instead of hanging the suite."""
    import glob
    import threading

    from web_search_engine_ray.fixtures.transcripts import write_corpus
    from web_search_engine_ray.pipelines.distributed import append_range_index

    corpus = str(tmp_path_factory.mktemp("live_append_corpus"))
    write_corpus(corpus, n_convs=60, max_turns=6, rows_per_file=40)
    files = sorted(glob.glob(corpus + "/*.parquet"))
    assert len(files) >= 5
    cfg = dict(partition_rows=400, num_shards=2, n_salts=2, block_size=16)
    part = str(tmp_path_factory.mktemp("live_append_idx"))
    assert len(build_partitioned_index(files[:4], part, n_ranges=4, **cfg)["ranges"]) == 4
    ps = PartitionedSearcher(part)
    out = {}

    def append():
        try:
            out["manifest"] = append_range_index(part, files[4:], **cfg)
        except Exception as e:  # re-raised on the test thread below
            out["error"] = e

    t = threading.Thread(target=append, daemon=True)
    try:
        assert ps.bm25_topk("the data", topk=3)
        t.start()
        t.join(timeout=120)
        finished = not t.is_alive()
    finally:
        ps.shutdown()  # frees the actors' CPUs, so a stuck append completes
        t.join(timeout=300)
    assert finished, "append_range_index did not finish beside a live 4-range searcher"
    if "error" in out:
        raise out["error"]
    assert len(out["manifest"]["ranges"]) == 5
