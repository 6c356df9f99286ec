"""Distributed Ray build vs single-process oracle: postings, stats, and
query rank-identity (the reference's own conformance strategy,
``HW2/engine/testrun.py:106-136`` + ``searcher.py:253-287``)."""

import glob

import numpy as np
import pyarrow.parquet as pq
import pytest

from web_search_engine_ray.oracle import OracleIndex
from web_search_engine_ray.pipelines.build import build_index
from web_search_engine_ray.pipelines.query import Searcher

QUERIES = [
    "the",                      # heavy stopword
    "the data",                 # heavy + medium, AND nonempty
    "w0001 w0002",              # mid-frequency pair
    "w0040 w0111",              # rarer pair
    "u.s",                      # dotted token (corpus form)
    "u.s.",                     # query form that does NOT match (asymmetry)
    "3.14 the",
    "data data",                # duplicated query term -> double contribution
    "zzzznotaterm",             # unknown only
    "the zzzznotaterm",         # unknown mixed in (silently dropped)
    "Machine LEARNING",         # case-insensitive query path
    "v1.2-beta",
    "w0003 w0004 w0005",        # 3-term
    # the reference's literal benchmark query set (HW2/benchmark.txt
    # boolean-vs-DAAT section) — rank identity must hold on these exact
    # strings regardless of which terms the synthetic corpus contains
    "overturned carriage",
    "communication policy",
    "manhattan project bomb",
    "u.s policy",
    "3.14 math",
    # 3-term sums with shared docs: float addition is commutative but not
    # associative, so only these pin the ascending-df accumulation order
    "the data the",
    "data the w0001",
    # stopword-heavy repeats: one contribution per distinct term, added at
    # each occurrence's place in the ascending-df order
    "the the data",
    "data the the the",
    # rare pairs, sparse in the docid span (sorted-union candidates); the
    # second shares exactly one doc, so its AND answer is nonempty
    "w0200 w0250",
    "w0250 uq22x1",
]


@pytest.fixture(scope="session")
def built(ray_session, small_corpus_dir, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("index_small"))
    build = build_index(
        small_corpus_dir,
        out,
        partition_rows=700,
        num_shards=4,
        n_salts=3,
        block_size=16,
        heavy_df_frac=0.05,
    )
    return out, build


@pytest.fixture(scope="session")
def oracle(small_corpus_dir):
    rows = []
    for f in sorted(glob.glob(small_corpus_dir + "/*.parquet")):
        rows.extend(pq.read_table(f, columns=["text"])["text"].to_pylist())
    return OracleIndex.build(list(enumerate(rows)))


def test_build_manifest_counts(built, oracle):
    _, build = built
    assert build["n_docs"] == oracle.N
    assert build["total_tokens"] == sum(oracle.doc_lengths.values())
    assert build["n_postings"] == sum(len(p) for p in oracle.index.values())
    assert build["n_terms"] == len(oracle.index)
    assert build["heavy_terms"], "expected heavy stopwords at this scale"
    assert "the" in build["heavy_terms"]


def test_heavy_terms_exact(built, oracle):
    """The heavy set is exactly {t : df_t >= heavy_df_frac * N}."""
    _, build = built
    want = sorted(t for t, p in oracle.index.items() if len(p) >= 0.05 * oracle.N)
    assert build["heavy_terms"] == want


def test_build_json_skew_names_stragglers(built):
    """build.json alone says where the build's time went: the skew block's
    keys exist, each straggler is the argmax of its manifests' walls, and
    tools/index_stats.py turns it into a per-stage table."""
    import json
    import os
    import statistics

    out, _ = built
    with open(os.path.join(out, "build.json")) as f:
        build = json.load(f)
    skew = build["skew"]
    runs = []
    for p in sorted(glob.glob(os.path.join(out, "manifests", "run_*.json"))):
        with open(p) as f:
            runs.append(json.load(f))
    shards = build["shards"]
    assert len(runs) == build["n_partitions"] > 1 and len(shards) > 1
    assert skew["straggler_pid"] == max(runs, key=lambda m: m["wall_s"])["pid"]
    assert skew["partition_wall_max_s"] == max(m["wall_s"] for m in runs)
    assert skew["partition_wall_p50_s"] == pytest.approx(
        statistics.median(m["wall_s"] for m in runs), abs=1e-4
    )
    assert skew["straggler_shard"] == max(shards, key=lambda m: m["wall_s"])["shard"]
    assert skew["shard_wall_max_s"] == max(m["wall_s"] for m in shards)
    sizes = [m["postings_bytes"] for m in shards]
    assert skew["shard_bytes_max_over_median"] == pytest.approx(
        max(sizes) / statistics.median(sizes), abs=1e-3
    )

    from tools.index_stats import stage_table

    table = stage_table(build).splitlines()
    assert [r.split()[0] for r in table[1:4]] == ["runs", "heavy", "merge"]
    assert any(r.endswith(f"pid {skew['straggler_pid']}") for r in table)
    assert any(r.endswith(f"shard {skew['straggler_shard']}") for r in table)


def test_build_json_heavy_coverage_matches_run_manifests(built):
    """The skew block's heavy-term coverage is what the run manifests say:
    the candidates are the terms some run isolated, and a heavy term is read
    from the hash row group of each run that did not isolate it and has its
    shard's row group. tools/index_stats.py shows both."""
    import json
    import os

    from tools.index_stats import stage_table
    from web_search_engine_ray.state.lexicon import term_shard_array

    out, build = built
    runs = []
    for p in sorted(glob.glob(os.path.join(out, "manifests", "run_*.json"))):
        with open(p) as f:
            runs.append(json.load(f))
    skew = build["skew"]
    assert skew["heavy_candidates"] == len({t for m in runs for t in m["isolated"]})
    S = build["num_shards"]
    want = {}
    for t in build["heavy_terms"]:
        g = int(term_shard_array([t], S)[0])
        want[t] = sum(t not in m["isolated"] and g in m["gkeys"] for m in runs)
    assert skew["heavy_hash_runs"] == want
    table = stage_table(build).splitlines()
    assert ["heavy", "candidates", str(skew["heavy_candidates"])] in [r.split() for r in table]
    for t, n in want.items():
        assert any(r.split() == ["heavy", "hash", "runs", str(n), t] for r in table), t


def test_corpus_stats(built, oracle):
    out, _ = built
    s = Searcher(out)
    assert s.N == oracle.N
    assert s.avgdl == pytest.approx(oracle.avgdl, rel=1e-12)


def test_doc_lengths_match(built, oracle):
    out, _ = built
    s = Searcher(out)
    dl = s.doclens.dense()
    for docid, want in oracle.doc_lengths.items():
        assert dl[docid] == want
    assert (dl == 0).sum() > 0, "corpus should contain dl=0 docs"


def test_all_postings_match(built, oracle):
    """Full decoded-postings equality for EVERY term (incl. salted heavy)."""
    out, build = built
    s = Searcher(out)
    assert set(build["heavy_terms"]) <= set(oracle.index)
    for term, postings in oracle.index.items():
        d, f = s.postings(term)
        want_d, want_f = oracle.postings(term)
        assert d.tolist() == want_d, f"docids mismatch for {term!r}"
        assert f.tolist() == want_f, f"tfs mismatch for {term!r}"
    # and no phantom terms
    assert s.postings("zzzznotaterm")[0].size == 0


def test_df_and_heavy_routing(built, oracle):
    out, build = built
    s = Searcher(out)
    for term in ["the", "data", "w0001"]:
        assert s.df(term) == oracle.df(term)
    for t in build["heavy_terms"]:
        assert s._shard_of(t) >= build["num_shards"]


def _norm(res):
    return sorted(((d, round(s, 9)) for d, s in res), key=lambda x: (-x[1], x[0]))


def _by_score(res):
    return sorted(res, key=lambda x: (-x[1], x[0]))


def test_daat_rank_identity(built, oracle):
    out, _ = built
    s = Searcher(out)
    for q in QUERIES:
        for mode in ("OR", "AND"):
            got = s.bm25_topk(q, topk=10, mode=mode)
            want = oracle.ranked_daat(q, topk=10, mode=mode)
            assert [d for d, _ in _norm(got)] == [d for d, _ in _norm(want)], (q, mode)
            for (gd, gs), (wd, ws) in zip(_norm(got), _norm(want)):
                assert gs == pytest.approx(ws, rel=1e-9), (q, mode, gd)


def test_vectorized_equals_daat_loop(built, oracle):
    """The served top-k equals the reference DAAT loop (the in-memory
    oracle's cursor transliteration) in docids and bitwise scores, per
    topk — including the boundary ties a size-k heap keeps."""
    out, _ = built
    s = Searcher(out)
    for q in QUERIES:
        for mode in ("OR", "AND"):
            for topk in (1, 3, 10, 50):
                fast = s.bm25_topk(q, topk=topk, mode=mode)
                slow = _by_score(oracle.ranked_daat(q, topk=topk, mode=mode))
                assert fast == slow, (q, mode, topk)


def test_maxscore_path_taken_and_exact(built, oracle, monkeypatch):
    """The MaxScore branch is the one remaining pruning path: it must
    answer (not bail to the exhaustive scan) on some conformance queries,
    and every answer it gives is bit-identical to the oracle loop."""
    out, _ = built
    s = Searcher(out)
    taken = []
    orig = Searcher._bm25_topk_maxscore

    def spy(self, terms, topk):
        res = orig(self, terms, topk)
        if res is not None:
            taken.append((q, topk, res))
        return res

    monkeypatch.setattr(Searcher, "_bm25_topk_maxscore", spy)
    for q in QUERIES:
        for topk in (1, 3, 10, 50):
            s.bm25_topk(q, topk=topk, mode="OR")
    assert taken, "MaxScore never answered a conformance query"
    for q, topk, res in taken:
        want = _by_score(oracle.ranked_daat(q, topk=topk, mode="OR"))
        assert res == want, (q, topk)


@pytest.fixture
def dense_taken(monkeypatch):
    """Per ``bm25_topk`` call that reaches exhaustive scoring: ``True`` when
    the dense docid-indexed path built the candidates, ``False`` when it
    declined and the sorted union did."""
    took = []
    orig = Searcher._dense_candidates

    def spy(self, lists, want_and):
        res = orig(self, lists, want_and)
        took.append(res is not None)
        return res

    monkeypatch.setattr(Searcher, "_dense_candidates", spy)
    return took


def test_candidate_paths_taken_and_exact(built, oracle, dense_taken):
    """Exhaustive scoring builds its candidates one of two ways, chosen from
    the input: a docid-indexed hit array for lists dense in the doclens span,
    the sorted union otherwise. Both must answer some conformance cases, and
    every dense answer is bit-identical to the oracle loop."""
    out, _ = built
    s = Searcher(out)
    dense, sparse = set(), set()
    for q in QUERIES:
        for mode in ("OR", "AND"):
            for topk in (1, 3, 10, 50):
                dense_taken.clear()
                got = s.bm25_topk(q, topk=topk, mode=mode)
                if dense_taken == [True]:
                    dense.add((q, mode))
                    want = _by_score(oracle.ranked_daat(q, topk=topk, mode=mode))
                    assert got == want, (q, mode, topk)
                elif dense_taken == [False]:
                    sparse.add((q, mode))
    assert dense and sparse, (dense, sparse)
    assert {"AND", "OR"} <= {m for _, m in dense}


def test_truncated_doclens_span_takes_sorted_path(built, oracle, dense_taken):
    """A posting docid past the doclens span (the span cut short on this
    instance) sends the query down the sorted-union path, with the same
    answer as the full span."""
    out, _ = built
    s = Searcher(out)
    last = max(d for d, n in oracle.doc_lengths.items() if n)
    q = max((t for t, p in oracle.index.items() if last in p), key=oracle.df)
    want = _by_score(oracle.ranked_daat(q, topk=10, mode="OR"))
    assert s.bm25_topk(q, topk=10, mode="OR") == want
    assert dense_taken == [True], q
    assert last >= int(s.doclens._lo[-1])
    s.doclens._n = s.doclens._n.copy()
    s.doclens._n[-1] = last - int(s.doclens._lo[-1])  # span ends before `last`
    dense_taken.clear()
    assert s.bm25_topk(q, topk=10, mode="OR") == want
    assert dense_taken == [False], q


def test_taat_matches_oracle(built, oracle):
    out, _ = built
    s = Searcher(out)
    for q in QUERIES:
        for mode in ("AND", "OR"):
            got = _norm(s.search(q, mode=mode))
            want = _norm(oracle.search(q, mode=mode))
            assert [d for d, _ in got] == [d for d, _ in want], (q, mode)
            for (gd, gs), (wd, ws) in zip(got, want):
                assert gs == pytest.approx(ws, rel=1e-9)


def test_boolean_matches_oracle(built, oracle):
    out, _ = built
    s = Searcher(out)
    for q in QUERIES:
        for mode in ("AND", "OR"):
            got = s.boolean(q, mode)
            want = oracle.boolean(q, mode)
            assert got == want, (q, mode)


def test_unique_marker_terms(built, oracle):
    """df=1 markers resolve to exactly their own turn."""
    out, _ = built
    s = Searcher(out)
    markers = [t for t in oracle.index if t.startswith("uq")][:20]
    assert markers
    for m in markers:
        d, f = s.postings(m)
        assert d.size == 1 and f[0] >= 1
        assert s.boolean(m, "AND") == set(oracle.index[m])
