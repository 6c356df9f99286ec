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
    """The MaxScore branch is the one remaining pruning path, under either
    tie rule: it must answer (not bail to the exhaustive scan) on some
    conformance queries, and every answer it gives is bit-identical to the
    oracle loop: its heap, or its every match in (-score, docid) order cut
    to k."""
    out, _ = built
    taken = []
    orig = Searcher._bm25_topk_maxscore

    def spy(self, *args):
        res = orig(self, *args)
        if res is not None:
            taken.append((q, topk, res))
        return res

    monkeypatch.setattr(Searcher, "_bm25_topk_maxscore", spy)
    for tie in ("heap", "sorted"):
        s = Searcher(out)
        taken.clear()
        for q in QUERIES:
            for topk in (1, 3, 10, 50):
                s.bm25_topk(q, topk=topk, mode="OR", tie_semantics=tie)
        assert taken, f"MaxScore never answered a conformance query ({tie})"
        assert s.stats()["maxscore_taken"] == len(taken)
        for q, topk, res in taken:
            if tie == "heap":
                want = _by_score(oracle.ranked_daat(q, topk=topk, mode="OR"))
            else:
                want = _by_score(oracle.ranked_daat(q, topk=oracle.N, mode="OR"))[:topk]
            assert res == want, (tie, q, topk)


@pytest.fixture
def dense_taken(monkeypatch):
    """Per ``bm25_topk`` call that reaches exhaustive scoring: ``True`` when
    the dense docid-indexed path built the candidates, ``False`` when it
    declined and the sorted union did."""
    took = []
    orig = Searcher._dense_candidates

    def spy(self, *args):
        res = orig(self, *args)
        took.append(res is not None)
        return res

    monkeypatch.setattr(Searcher, "_dense_candidates", spy)
    return took


class _StatsOracle(OracleIndex):
    """The oracle's postings under given N, avgdl and doc lengths: the
    reference loop as it runs under a ``set_global_stats`` override or with
    a doc's length zeroed."""

    def __init__(self, base: OracleIndex, n: int, avgdl: float, doc_lengths: dict):
        self.index, self._n, self._avgdl, self.doc_lengths = base.index, n, avgdl, doc_lengths

    N = property(lambda self: self._n)
    avgdl = property(lambda self: self._avgdl)


def test_candidate_paths_taken_and_exact(built, oracle, dense_taken):
    """Exhaustive scoring builds its candidates one of two ways, chosen from
    the input: a docid-indexed hit array for lists dense in the doclens span
    (scored in docid space), the sorted union otherwise. Both must answer
    some conformance cases, and every dense answer is bit-identical to the
    oracle loop: with a duplicated query term, under a ``set_global_stats``
    override, and with a dl = 0 doc among the candidates."""
    out, _ = built

    def dense_cases(s, oracle, queries):
        dense, sparse = set(), set()
        for q in queries:
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
        return dense, sparse

    dense, sparse = dense_cases(Searcher(out), oracle, QUERIES)
    assert dense and sparse, (dense, sparse)
    assert {"AND", "OR"} <= {m for _, m in dense}
    assert any(len(set(q.split())) < len(q.split()) for q, _ in dense), dense

    # corpus-global N and avgdl of a larger corpus (df overridden to itself)
    s = Searcher(out)
    n, avgdl = 3 * oracle.N, 1.25 * oracle.avgdl
    s.set_global_stats(n, avgdl, {t: oracle.df(t) for t in ("the", "data")})
    scaled = _StatsOracle(oracle, n, avgdl, oracle.doc_lengths)
    assert dense_cases(s, scaled, [q for q, _ in dense])[0] == dense

    # the best doc of a dense query loses its length: it stays a candidate
    # and scores 0, on the dense path as in the reference loop
    q = "the data"
    d = Searcher(out).bm25_topk(q, topk=1, mode="OR")[0][0]
    s = Searcher(out)
    shard = int(np.searchsorted(s.doclens._lo, d, side="right")) - 1
    s.doclens._shard_dl(shard)[d - int(s.doclens._lo[shard])] = 0  # the loaded copy
    zeroed = _StatsOracle(oracle, oracle.N, oracle.avgdl, {**oracle.doc_lengths, d: 0})
    assert dense_cases(s, zeroed, [q]) == ({(q, "OR"), (q, "AND")}, set())
    every = s.bm25_topk(q, topk=None, mode="OR")
    assert every == _by_score(zeroed.ranked_daat(q, topk=len(every), mode="OR"))
    assert (d, 0.0) in every


def test_topk_none_returns_every_match_under_both_tie_rules(built, oracle):
    """``topk=None`` is "every match" under the default heap ties as under
    the sorted ones: MaxScore is skipped and the order is the lexsort a heap
    with k >= matches keeps, bit-identical to the reference loop."""
    out, _ = built
    s = Searcher(out)
    for q in QUERIES:
        for mode in ("OR", "AND"):
            heap = s.bm25_topk(q, topk=None, mode=mode)
            assert heap == s.bm25_topk(q, topk=None, mode=mode, tie_semantics="sorted")
            want = oracle.ranked_daat(q, topk=max(1, len(oracle.boolean(q, mode))), mode=mode)
            assert heap == _by_score(want), (q, mode)


def test_topk_zero_returns_nothing_from_every_ranker(built):
    """``topk=0`` keeps no candidate in every ranker (``topk_order``): a
    stopword's BM25 top-0 under either tie rule, with MaxScore's mixed
    query too, and the QL and RRF top-0."""
    out, _ = built
    s = Searcher(out)
    for q in ("the", "the data", "uq22x1 the"):
        for mode in ("OR", "AND"):
            for tie in ("heap", "sorted"):
                assert s.bm25_topk(q, topk=0, mode=mode, tie_semantics=tie) == [], (q, tie)
        assert s.ql_topk(q, topk=0) == []
        assert s.rrf_topk(q, topk=0) == []


def test_searcher_stats_count_each_path(built, monkeypatch):
    """``Searcher.stats()`` counters each move on a query built to hit
    them: dense and sorted candidates, MaxScore taken and bailed, targeted
    block decodes, decoded-list LRU misses then hits, and dense-list
    contributions computed then found. A contribution lookup is not a
    decoded-list lookup: it neither moves the LRU counters nor calls
    ``_DecodedLRU.get``."""
    from web_search_engine_ray.state.listio import _DecodedLRU

    out, _ = built
    s = Searcher(out)

    def moved(run):
        before = s.stats()
        run()
        after = s.stats()
        return {k for k in after if after[k] != before[k]}

    assert set(s.stats()) == {
        "dense_candidates",
        "sorted_candidates",
        "maxscore_taken",
        "maxscore_bailed",
        "contrib_hits",
        "contrib_misses",
        "targeted_blocks",
        "lru_hits",
        "lru_misses",
    }
    assert {"lru_misses", "contrib_misses"} <= moved(lambda: s.bm25_topk("the", mode="OR"))
    gets = []
    orig_get = _DecodedLRU.get
    monkeypatch.setattr(_DecodedLRU, "get", lambda c, key: gets.append(key) or orig_get(c, key))
    warm = moved(lambda: s.bm25_topk("the", mode="OR"))
    assert {"dense_candidates", "lru_hits", "contrib_hits"} <= warm
    assert not {"lru_misses", "contrib_misses"} & warm
    assert len(gets) == 1 and s.stats()["lru_hits"] == 1  # the decoded list only
    assert "sorted_candidates" in moved(lambda: s.bm25_topk("w0200 w0250", mode="AND"))
    # a rare term beside a stopword: MaxScore reads the stopword's tfs for
    # the rare term's docs from the blocks they fall in
    assert {"maxscore_taken", "targeted_blocks"} <= moved(
        lambda: s.bm25_topk("uq22x1 the", topk=1, mode="OR")
    )
    # at topk=50 both terms fall under MaxScore's essential-df cutoff
    # (50 x topk): nothing to prune, so it bails to the exhaustive scan
    assert "maxscore_bailed" in moved(lambda: s.bm25_topk("the data", topk=50, mode="OR"))


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


def test_dense_query_holds_doc_lengths_once(built, dense_taken):
    """After a dense query the span's doc lengths are held once, in
    ``DocLengths.dense()``: the shards a sorted-path query loaded leave the
    shard LRU, and ``get_many`` then reads the span array with a fresh
    store's answers (docids past the span read 0)."""
    out, _ = built
    s = Searcher(out)
    assert s.bm25_topk("w0250 uq22x1", mode="AND")
    assert dense_taken == [False] and s.doclens._cache
    s.bm25_topk("the", mode="OR")
    assert dense_taken == [False, True]
    assert s.doclens._cache == {} and s.doclens.dense().size == s.doclens.span()[1]
    _, span = s.doclens.span()
    ids = np.random.default_rng(0).permutation(np.arange(span + 5, dtype=np.uint64))
    ids = np.append(ids, np.uint64(2**63))
    fresh = Searcher(out).doclens
    assert s.doclens.get_many(ids).tolist() == fresh.get_many(ids).tolist()
    assert s.doclens._cache == {}


def _assert_equals_daat_loop(s, oracle, queries):
    for q in queries:
        for mode in ("OR", "AND"):
            for topk in (1, 10, 50):
                want = _by_score(oracle.ranked_daat(q, topk=topk, mode=mode))
                assert s.bm25_topk(q, topk=topk, mode=mode) == want, (q, mode, topk)


def test_contrib_cache_cold_warm_evicted_exact(built, oracle):
    """A list dense on its own scores from its cached full-list BM25
    contribution: answers stay bit-identical to the reference loop with the
    cache cold and warm, thrashing (a budget of about one dense list, so a
    term's decoded list and its contribution evict each other), too small
    for any entry, and off (``cache_bytes=0``)."""
    out, _ = built
    assert "to" in oracle.index
    queries = QUERIES + ["the the to"]
    n = oracle.df("the")
    hits, misses = {}, {}
    for cache_bytes in (64 << 20, 24 * n, 1024, 0):
        s = Searcher(out, cache_bytes=cache_bytes)
        for _ in range(2):  # cold, then warm
            _assert_equals_daat_loop(s, oracle, queries)
        hits[cache_bytes], misses[cache_bytes] = (
            s.stats()["contrib_hits"],
            s.stats()["contrib_misses"],
        )
    assert hits[64 << 20] > 0 and hits[1024] == hits[0] == 0
    # each dense list computed once when it fits, again after each eviction
    assert 0 < misses[64 << 20] < misses[24 * n] < misses[1024] == misses[0]


def test_contrib_cache_follows_global_stats(built, oracle):
    """The cache is keyed by df, N and avgdl: after ``set_global_stats``
    changes them, the same query scores with the new stats, and setting
    the old ones back reuses the old entries (range actors set the same
    stats before every query)."""
    out, _ = built
    s = Searcher(out)
    q = "the the data"
    dfs = {t: oracle.df(t) for t in ("the", "data")}
    old = (s.N, s.avgdl)
    s.set_global_stats(*old, dfs)
    _assert_equals_daat_loop(s, oracle, [q])
    assert s.stats()["contrib_misses"] > 0
    n, avgdl = 3 * oracle.N, 1.25 * oracle.avgdl
    s.set_global_stats(n, avgdl, dfs)
    _assert_equals_daat_loop(s, _StatsOracle(oracle, n, avgdl, oracle.doc_lengths), [q])
    before = s.stats()
    s.set_global_stats(*old, dfs)
    _assert_equals_daat_loop(s, oracle, [q])
    after = s.stats()
    assert after["contrib_hits"] > before["contrib_hits"]
    assert after["contrib_misses"] == before["contrib_misses"]


def test_contrib_cache_on_range_above_zero(ray_session, small_corpus_dir, tmp_path):
    """A range index (docids from ``docid_offset`` > 0, as each range of a
    partitioned index) scores dense lists from cached contributions at span
    offsets, bit-identical to the reference loop over the range's docs."""
    files = sorted(glob.glob(small_corpus_dir + "/*.parquet"))
    off = pq.read_metadata(files[0]).num_rows
    out = str(tmp_path / "range")
    build_index(files[1:], out, partition_rows=700, num_shards=4, n_salts=3, docid_offset=off)
    rows = [t for f in files[1:] for t in pq.read_table(f, columns=["text"])["text"].to_pylist()]
    oracle = OracleIndex.build([(off + i, t) for i, t in enumerate(rows)])
    s = Searcher(out)
    assert s.doclens.span()[0] == off
    for _ in range(2):  # cold, then warm
        _assert_equals_daat_loop(s, oracle, QUERIES + ["the the to"])
    st = s.stats()
    assert st["contrib_hits"] > 0 and st["dense_candidates"] > 0


def test_taat_matches_oracle(built, oracle):
    """The reference TAAT ``search`` (every match, allowed-set filtered,
    by -score) is served by ``bm25_topk``'s sorted cut with ``topk=None``;
    its loop lives only in ``OracleIndex.search``. The per-doc
    accumulation order differs (query order there, ascending df here), so
    scores agree to 1e-9."""
    out, _ = built
    s = Searcher(out)
    for q in QUERIES:
        for mode in ("AND", "OR"):
            got = _norm(s.bm25_topk(q, topk=None, mode=mode, tie_semantics="sorted"))
            want = _norm(oracle.search(q, mode=mode))
            assert [d for d, _ in got] == [d for d, _ in want], (q, mode)
            for (gd, gs), (wd, ws) in zip(got, want):
                assert gs == pytest.approx(ws, rel=1e-9)


def test_ql_matches_oracle(built, oracle):
    """Dirichlet QL against the oracle's scalar loop, duplicate and unknown
    query terms included: docids exact, scores to rel 1e-12 (``np.log`` and
    ``math.log`` may differ in the last ulp)."""
    out, _ = built
    s = Searcher(out)
    for q in QUERIES:
        got = s.ql_topk(q, topk=None)
        want = oracle.ql(q)
        assert [d for d, _ in got] == [d for d, _ in want], q
        for (_, gs), (_, ws) in zip(got, want):
            assert gs == pytest.approx(ws, rel=1e-12), q


def test_each_distinct_term_looked_up_once(built, monkeypatch):
    """Every ranker resolves a query's distinct terms once: a repeated
    term and an unknown one are each looked up exactly one time."""
    from collections import Counter

    from web_search_engine_ray.pipelines.serving import vsm_topk_table

    calls = Counter()
    orig = Searcher.lookup

    def spy(self, term):
        calls[term] += 1
        return orig(self, term)

    monkeypatch.setattr(Searcher, "lookup", spy)
    q = "the the data zzzz"
    s = Searcher(built[0])
    rankers = {
        "bm25_topk OR": lambda: s.bm25_topk(q, 10, "OR"),
        "bm25_topk AND": lambda: s.bm25_topk(q, 10, "AND"),
        "bm25_topk sorted": lambda: s.bm25_topk(q, None, "OR", tie_semantics="sorted"),
        "ql_topk": lambda: s.ql_topk(q),
        "boolean AND": lambda: s.boolean(q, "AND"),
        "boolean OR": lambda: s.boolean(q, "OR"),
        "vsm_topk_table": lambda: vsm_topk_table("/root/testdata/sf0.001", queries=[q]),
    }
    for name, run in rankers.items():
        calls.clear()
        assert run(), name
        assert calls == Counter(["the", "data", "zzzz"]), (name, calls)


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
