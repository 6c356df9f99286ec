"""Benchmark harness. Prints ONE JSON line with the headline metric.

Headline: end-to-end inverted-index build (tokenize -> runs -> salted shuffle
merge -> blocked varbyte shards) over a deterministic synthetic transcript
corpus (~240k turns, FIXTURES.md §1), plus a query-latency suite and the
auxiliary pipelines over ``$GRAFT_SF_DIR`` (default /root/testdata/sf0.1).

- ``python bench.py``            one run at $RAY_GRAFT_CPUS (default 32)
- ``python bench.py --scaling``  fresh-process runs at 8 and 32 CPUs on the
  same input; reports both throughputs + scaling efficiency (the sandbox
  stand-in for the N vs 4N-node cluster rule).
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import subprocess
import tempfile
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NCPU = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
BENCH_CONVS = int(os.environ.get("WSE_BENCH_CONVS", "53000"))
BENCH_MAX_TURNS = 8
ROWS_PER_FILE = 8000
QUERY_SAMPLES = 200


# --- host-noise sentinel -----------------------------------------------
# One tiny CANONICAL pipeline (fixed corpus, fixed build params, independent
# of BENCH_CONVS) timed at the START and END of every bench run. Its two
# readings + ratio land in the JSON, so a cross-round delta larger than the
# in-run sentinel spread is attributable to code, and a slow host window
# (this shared box has a documented ±0.15 band, BASELINE.md) is visible
# inside the artifact itself instead of needing prose.
SENTINEL_CONVS = 12000
SENTINEL_CFG = dict(
    partition_rows=8000, num_shards=16, n_salts=4, heavy_df_frac=0.5, resume=False
)
# quiet-box reading for this sentinel, round 4 (2026-08-18, idle guest,
# num_cpus=32, first/last 0.987/1.182): carried so the NEXT round can compare
# its sentinel against a known-quiet reference without cross-referencing
# BASELINE.md
SENTINEL_QUIET_S = {"round": 4, "num_cpus": 32, "seconds": 0.99}


def corpus_dir() -> str:
    return f"/tmp/wse_bench_corpus_c{BENCH_CONVS}_t{BENCH_MAX_TURNS}_r{ROWS_PER_FILE}"


def ensure_corpus() -> str:
    """Generate (once, cached) the bench transcript corpus."""
    from web_search_engine_ray.fixtures.transcripts import write_corpus

    d = corpus_dir()
    marker = os.path.join(d, ".complete")
    if not os.path.exists(marker):
        write_corpus(d, n_convs=BENCH_CONVS, max_turns=BENCH_MAX_TURNS, rows_per_file=ROWS_PER_FILE)
        with open(marker, "w") as f:
            f.write("ok")
    return d


def sentinel_corpus() -> str:
    from web_search_engine_ray.fixtures.transcripts import write_corpus

    d = f"/tmp/wse_sentinel_corpus_c{SENTINEL_CONVS}_t{BENCH_MAX_TURNS}"
    marker = os.path.join(d, ".complete")
    if not os.path.exists(marker):
        write_corpus(d, n_convs=SENTINEL_CONVS, max_turns=BENCH_MAX_TURNS,
                     rows_per_file=ROWS_PER_FILE)
        with open(marker, "w") as f:
            f.write("ok")
    return d


def run_sentinel() -> float:
    """One timed run of the canonical sentinel build (fresh output dir)."""
    from web_search_engine_ray.pipelines.build import build_index

    corpus = sentinel_corpus()
    out = "/tmp/wse_bench_sentinel_idx"
    shutil.rmtree(out, ignore_errors=True)
    t0 = time.perf_counter()
    build_index(corpus, out, **SENTINEL_CFG)
    return time.perf_counter() - t0


def sample_queries(searcher, n: int = QUERY_SAMPLES) -> list[str]:
    """2-term queries sampled from the lexicon with a fixed seed — the
    reference's bench convention (HW2/bench_search.py:33-40)."""
    import random

    terms = []
    for sid in range(searcher.num_shards):
        lex = searcher._lexicon(sid)
        if lex is not None:
            terms.extend(lex.terms)
    terms.sort()
    rng = random.Random(1234)
    return [f"{rng.choice(terms)} {rng.choice(terms)}" for _ in range(n)]


def run_bench() -> dict:
    # one CPU per Ray task: stop polars/arrow from spawning nthreads=ncores
    # inside every worker (32 tasks x 32 threads thrashes the node)
    os.environ.setdefault("POLARS_MAX_THREADS", "1")
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    import ray

    ray.init(address="local", num_cpus=NCPU, include_dashboard=False)
    import numpy as np

    from web_search_engine_ray.pipelines import analysis, corpus as corpus_p, dedup, similarity
    from web_search_engine_ray.pipelines.build import build_index
    from web_search_engine_ray.pipelines.query import Searcher

    timings: dict[str, float] = {}
    corpus = ensure_corpus()

    # warm page cache (untimed) so we measure compute+shuffle, not cold disk
    import pyarrow.parquet as pq

    n_rows = 0
    for f in sorted(os.listdir(corpus)):
        if f.endswith(".parquet"):
            n_rows += pq.read_table(os.path.join(corpus, f)).num_rows

    # untimed warm-up: run the real pipeline once on a small corpus slice so
    # the timed run measures steady-state (workers spawned, imports + arrow
    # thread pools + allocator pools warm). At 100 TB the job IS steady-state.
    # partition_rows scales with CORPUS size (never CPU count, so both
    # scaling legs build identically): ~128 partitions keeps per-partition
    # work chunky while bounding the number of run files the map-side merge
    # must touch — 500 tiny runs at 4M turns made merge row-group reads,
    # not encoding, the bottleneck (measured: merge 18s at pr=8k vs 10s at
    # pr=32k on the 4M stress).
    partition_rows = min(100_000, max(ROWS_PER_FILE, n_rows // 128))
    cfg = dict(
        partition_rows=partition_rows,
        num_shards=max(2 * NCPU, 16),
        n_salts=8,
        heavy_df_frac=0.5,
        resume=False,
    )
    warm_files = sorted(
        os.path.join(corpus, f) for f in os.listdir(corpus) if f.endswith(".parquet")
    )[: max(4, NCPU // 4)]
    shutil.rmtree("/tmp/wse_bench_warm", ignore_errors=True)
    build_index(warm_files, "/tmp/wse_bench_warm", **cfg)

    # sentinel, first reading (post-warmup, pre-bench)
    skip_aux = bool(os.environ.get("WSE_BENCH_SKIP_AUX"))
    sentinel_first = None if skip_aux else run_sentinel()

    idx_dir = f"/tmp/wse_bench_index_{NCPU}"
    shutil.rmtree(idx_dir, ignore_errors=True)
    t0 = time.perf_counter()
    build = build_index(corpus, idx_dir, **cfg)
    t_build = time.perf_counter() - t0
    timings["index_build"] = round(t_build, 3)
    timings["index_build_runs_phase"] = build["timings"]["runs_s"]
    timings["index_build_merge_phase"] = build["timings"]["merge_s"]

    # query latency suite on the built index
    s = Searcher(idx_dir)
    queries = sample_queries(s)
    lat = []
    t0 = time.perf_counter()
    for q in queries:
        tq = time.perf_counter()
        s.bm25_topk(q, topk=10, mode="OR")
        lat.append(time.perf_counter() - tq)
    timings["bm25_200_queries"] = round(time.perf_counter() - t0, 3)
    lat_ms = np.array(lat) * 1e3
    timings["bm25_query_avg_ms"] = round(float(lat_ms.mean()), 3)
    timings["bm25_query_p95_ms"] = round(float(np.percentile(lat_ms, 95)), 3)

    # batch throughput: the same 200 queries through run_queries' tasks
    from web_search_engine_ray.pipelines.query import run_queries

    t0 = time.perf_counter()
    run_queries(idx_dir, queries, topk=10, mode="OR").count()
    run_s = time.perf_counter() - t0
    timings["bm25_run_queries_200"] = round(run_s, 3)
    timings["bm25_run_queries_qps"] = round(len(queries) / run_s, 1)

    if skip_aux:
        # scaling legs measure the headline build + query path only — the
        # aux sf ops would multiply each leg's wall time without informing
        # the efficiency ratio
        out = {
            "metric": "index_build_seconds_240k_turn_transcripts",
            "value": round(t_build, 3),
            "unit": "sec",
            "queries": timings,
            "sf": SF_DIR,
            "num_cpus": NCPU,
            "n_turns": n_rows,
            "turns_per_sec": round(n_rows / t_build, 1),
            "n_postings": build["n_postings"],
            "n_terms": build["n_terms"],
            "heavy_terms": len(build["heavy_terms"]),
        }
        ray.shutdown()
        return out

    # aux pipelines over the driver sf dir
    t0 = time.perf_counter()
    corpus_p.postings_ds(SF_DIR).count()
    timings["postings_sf"] = round(time.perf_counter() - t0, 3)
    t0 = time.perf_counter()
    corpus_p.term_stats_ds(SF_DIR).count()
    timings["term_stats_sf"] = round(time.perf_counter() - t0, 3)
    t0 = time.perf_counter()
    dedup.exact_dedup_ds(SF_DIR).count()
    timings["dedup_exact_sf"] = round(time.perf_counter() - t0, 3)
    t0 = time.perf_counter()
    dedup.minhash_lsh_candidates_ds(SF_DIR).count()
    timings["minhash_lsh_sf"] = round(time.perf_counter() - t0, 3)
    t0 = time.perf_counter()
    similarity.knn_cosine(SF_DIR)
    timings["knn_cosine_sf"] = round(time.perf_counter() - t0, 3)
    t0 = time.perf_counter()
    similarity.pq_knn(SF_DIR)
    timings["knn_pq_sf"] = round(time.perf_counter() - t0, 3)
    t0 = time.perf_counter()
    analysis.text_stats_ds(SF_DIR).count()
    timings["text_stats_sf"] = round(time.perf_counter() - t0, 3)
    t0 = time.perf_counter()
    dedup.simhash_dups(SF_DIR).count()
    timings["simhash_dups_sf"] = round(time.perf_counter() - t0, 3)
    t0 = time.perf_counter()
    dedup.ngram_jaccard_dups(SF_DIR).count()
    timings["ngram_jaccard_sf"] = round(time.perf_counter() - t0, 3)
    t0 = time.perf_counter()
    analysis.lm_score_ds(SF_DIR).count()
    timings["lm_score_sf"] = round(time.perf_counter() - t0, 3)
    t0 = time.perf_counter()
    from web_search_engine_ray.pipelines import curate

    curate.curated_docs_ds(SF_DIR).count()
    timings["curated_docs_sf"] = round(time.perf_counter() - t0, 3)
    from web_search_engine_ray.pipelines import events, sketch

    t0 = time.perf_counter()
    events.asof_join_ds(SF_DIR).count()
    timings["events_asof_sf"] = round(time.perf_counter() - t0, 3)
    t0 = time.perf_counter()
    events.sessionize_ds(SF_DIR).count()
    timings["events_sessionize_sf"] = round(time.perf_counter() - t0, 3)
    t0 = time.perf_counter()
    similarity.ivf_knn(SF_DIR)
    timings["knn_ivf_sf"] = round(time.perf_counter() - t0, 3)
    t0 = time.perf_counter()
    sketch.hll_distinct_terms(SF_DIR)
    timings["hll_distinct_sf"] = round(time.perf_counter() - t0, 3)
    from web_search_engine_ray.pipelines import clustering, mix, pack, redact

    t0 = time.perf_counter()
    clustering.kmeans_ds(SF_DIR).count()
    timings["kmeans_sf"] = round(time.perf_counter() - t0, 3)
    t0 = time.perf_counter()
    clustering.semdedup_ds(SF_DIR).count()
    timings["semdedup_sf"] = round(time.perf_counter() - t0, 3)
    t0 = time.perf_counter()
    redact.pii_redact_ds(SF_DIR).count()
    timings["pii_redact_sf"] = round(time.perf_counter() - t0, 3)
    t0 = time.perf_counter()
    pack.pack_chunks_ds(SF_DIR).count()
    timings["pack_chunks_sf"] = round(time.perf_counter() - t0, 3)
    t0 = time.perf_counter()
    mix.source_mix_ds(SF_DIR).count()
    timings["source_mix_sf"] = round(time.perf_counter() - t0, 3)
    t0 = time.perf_counter()
    dedup.holdout_contamination_ds(SF_DIR).count()
    timings["holdout_contamination_sf"] = round(time.perf_counter() - t0, 3)
    t0 = time.perf_counter()
    dedup.dup_spans_ds(SF_DIR, hash_fn="fast").count()
    timings["dup_spans_sf"] = round(time.perf_counter() - t0, 3)
    from web_search_engine_ray.pipelines import bpe

    t0 = time.perf_counter()
    bpe.bpe_encode_stats_ds(SF_DIR, n_merges=64).count()
    timings["bpe_encode_sf"] = round(time.perf_counter() - t0, 3)
    from web_search_engine_ray.pipelines import analysis as _analysis
    from web_search_engine_ray.pipelines import dsir as _dsir
    from web_search_engine_ray.pipelines import phrase as _phrase
    from web_search_engine_ray.pipelines import sketch as _sketch

    t0 = time.perf_counter()
    _analysis.collocations_ds(SF_DIR).count()
    timings["collocations_sf"] = round(time.perf_counter() - t0, 3)
    t0 = time.perf_counter()
    _dsir.dsir_weights_ds(SF_DIR).count()
    timings["dsir_weights_sf"] = round(time.perf_counter() - t0, 3)
    t0 = time.perf_counter()
    _sketch.dl_quantiles_ds(SF_DIR)
    timings["dl_quantiles_sf"] = round(time.perf_counter() - t0, 3)
    t0 = time.perf_counter()
    dedup.dup_span_clean_ds(SF_DIR, hash_fn="fast").count()
    timings["dup_span_clean_sf"] = round(time.perf_counter() - t0, 3)
    t0 = time.perf_counter()
    dedup.incremental_novel_ds(SF_DIR, prior_max_docid=2500).count()
    timings["incremental_novel_sf"] = round(time.perf_counter() - t0, 3)
    # transcript-native conversation ops over the FULL bench corpus (240k
    # turns / 53k conversations — the input-hint shape at bench scale)
    from web_search_engine_ray.pipelines import transcripts_ops

    t0 = time.perf_counter()
    transcripts_ops.conversation_rollup_ds(corpus).count()
    timings["conv_rollup_bench"] = round(time.perf_counter() - t0, 3)
    t0 = time.perf_counter()
    transcripts_ops.sft_examples_ds(corpus).count()
    timings["sft_examples_bench"] = round(time.perf_counter() - t0, 3)
    t0 = time.perf_counter()
    # guard64 mirrors the stress convention (the templated corpus is the
    # adversarial LSH case); a 4-file slice (~32k turns) keeps the entry at
    # the scale of the other bench ops — the full-corpus cost lives in the
    # 2M-turn stress table (BASELINE.md)
    jac_files = sorted(glob.glob(os.path.join(corpus, "*.parquet")))[:4]
    transcripts_ops.conversation_jaccard_dups_ds(jac_files, max_bucket=64).count()
    timings["conv_jaccard_dups_bench"] = round(time.perf_counter() - t0, 3)

    pos_dir = os.path.join(tempfile.gettempdir(), "wse_bench_posidx")
    shutil.rmtree(pos_dir, ignore_errors=True)
    t0 = time.perf_counter()
    _phrase.build_positional_index(SF_DIR, pos_dir, n_shards=8)
    timings["posindex_build_sf"] = round(time.perf_counter() - t0, 3)
    from web_search_engine_ray.pipelines.serving import FIXED_QUERIES as _FQ

    from web_search_engine_ray.functions.tokenize import token_lists as _tl

    import pyarrow as _pa

    t0 = time.perf_counter()
    for _q in _FQ:
        terms = _tl(_pa.array([_q], _pa.string())).to_list()[0] or []
        _phrase.phrase_match_counts(pos_dir, list(terms), n_shards=8)
    timings["phrase_10_queries_sf"] = round(time.perf_counter() - t0, 3)

    # RAG store: chunk + hashed-embed the sf documents, then the fixed
    # query set through cosine retrieval (store cold-built per bench run)
    import shutil as _sh

    from web_search_engine_ray.pipelines import rag as _rag

    rag_dir = "/tmp/wse_bench_rag_store"
    _sh.rmtree(rag_dir, ignore_errors=True)
    t0 = time.perf_counter()
    _rag.build_rag_store(SF_DIR, rag_dir)
    timings["rag_store_build_sf"] = round(time.perf_counter() - t0, 3)
    t0 = time.perf_counter()
    _rag.rag_topk(rag_dir, _FQ, topk=5)
    timings["rag_topk_sf"] = round(time.perf_counter() - t0, 3)

    # faceted search: per-facet BM25 top-k + boolean facet counts over the
    # sf documents index (index build cost excluded — cached above)
    from web_search_engine_ray.pipelines import serving as _serving

    _serving.documents_searcher(SF_DIR)  # warm the cached index
    t0 = time.perf_counter()
    _serving.bm25_facet_topk_table(SF_DIR)
    _serving.facet_counts_table(SF_DIR)
    timings["facet_search_sf"] = round(time.perf_counter() - t0, 3)

    # round-4 additions: 6-table exchange join, trigram grep (cold index
    # build + the 9 fixed patterns), event-graph PageRank, MLT cosine
    from web_search_engine_ray.pipelines import graph as _graph
    from web_search_engine_ray.pipelines import grep as _grep
    from web_search_engine_ray.pipelines import relational as _rel

    t0 = time.perf_counter()
    _rel.local_supplier_volume_ds(SF_DIR).count()
    timings["tpch_q5_sf"] = round(time.perf_counter() - t0, 3)
    tri_dir = "/tmp/wse_bench_triidx"
    _sh.rmtree(tri_dir, ignore_errors=True)
    t0 = time.perf_counter()
    _grep.build_trigram_index(SF_DIR, tri_dir)
    _grep.substring_search_table(SF_DIR, index_dir=tri_dir)
    _grep.regex_search_table(SF_DIR, index_dir=tri_dir)
    timings["trigram_grep_sf"] = round(time.perf_counter() - t0, 3)
    t0 = time.perf_counter()
    _graph.event_type_pagerank_table(SF_DIR)
    timings["pagerank_sf"] = round(time.perf_counter() - t0, 3)
    t0 = time.perf_counter()
    _serving.more_like_this_table(SF_DIR)
    timings["more_like_this_sf"] = round(time.perf_counter() - t0, 3)

    # the events analytics family in one key (round-4 second wave)
    from web_search_engine_ray.pipelines import events as _events

    t0 = time.perf_counter()
    _events.daily_active_users_ds(SF_DIR).count()
    _events.retention_cohorts_ds(SF_DIR).count()
    _events.session_funnel_ds(SF_DIR).count()
    _events.window_anomalies_ds(SF_DIR).count()
    timings["events_analytics_sf"] = round(time.perf_counter() - t0, 3)

    # sentinel, last reading: the first/last pair brackets every number above
    sentinel_last = run_sentinel()
    noise_sentinel = {
        "pipeline": f"index_build_c{SENTINEL_CONVS}_fixed_params",
        "first_s": round(sentinel_first, 3),
        "last_s": round(sentinel_last, 3),
        "ratio": round(max(sentinel_first, sentinel_last)
                       / max(1e-9, min(sentinel_first, sentinel_last)), 3),
        "prev_quiet": SENTINEL_QUIET_S,
    }

    out = {
        "metric": "index_build_seconds_240k_turn_transcripts",
        "value": round(t_build, 3),
        "unit": "sec",
        "queries": timings,
        "sf": SF_DIR,
        "num_cpus": NCPU,
        "n_turns": n_rows,
        "turns_per_sec": round(n_rows / t_build, 1),
        "n_postings": build["n_postings"],
        "n_terms": build["n_terms"],
        "heavy_terms": len(build["heavy_terms"]),
        "noise_sentinel": noise_sentinel,
    }
    ray.shutdown()
    return out


def run_scaling(ab_tree: str | None = None) -> dict:
    """Same job, fresh ray.init at N and 4N CPUs — the sandbox proxy for the
    N- vs 4N-node cluster rule.

    The pair defaults to (2, 8), not (8, 32): this single node's memory bus
    saturates beyond ~8 concurrent string-processing workers (verified: 30
    concurrent tokenize tasks each burn ~3x the solo CPU time), so 8->32 on
    one box measures the memory bus, not the engine. On a real cluster every
    node brings its own memory bandwidth, which the 2->8 regime models
    honestly. Override with WSE_SCALE_LO / WSE_SCALE_HI. A larger corpus
    (~1M turns) amortizes fixed startup so the measurement is compute-bound.

    ``--ab <prior-tree>``: interleave every leg with the SAME leg run from a
    pinned prior checkout (a git worktree of the baseline commit) in one
    session — HEADlo, BASElo, HEADhi, BASEhi — so a HEAD-vs-baseline claim
    is a same-window A/B instead of two single runs hours apart. Both trees
    share the /tmp corpus cache, so inputs are byte-identical.
    """

    def run(ncpu: int, tree: str | None = None) -> dict:
        script = (
            os.path.abspath(__file__)
            if tree is None
            else os.path.join(os.path.abspath(tree), "bench.py")
        )
        env = dict(
            os.environ,
            RAY_GRAFT_CPUS=str(ncpu),
            WSE_BENCH_SKIP_AUX="1",
            # ~2M turns: fixed startup is <5% of the 4N leg, so the measured
            # efficiency reflects the pipeline, not session overhead
            WSE_BENCH_CONVS=os.environ.get("WSE_SCALE_CONVS", "444000"),
        )
        out = subprocess.run(
            [sys.executable, script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            cwd=os.path.dirname(script),
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    lo_cpus = int(os.environ.get("WSE_SCALE_LO", "2"))
    hi_cpus = int(os.environ.get("WSE_SCALE_HI", "8"))

    if ab_tree is None:
        lo, hi = run(lo_cpus), run(hi_cpus)
        t_lo, t_hi = lo["value"], hi["value"]
        eff = (t_lo / t_hi) / (hi_cpus / lo_cpus)
        return {
            "metric": "index_build_scaling",
            "unit": "efficiency",
            "value": round(eff, 3),
            "cpus": [lo_cpus, hi_cpus],
            f"sec_{lo_cpus}": t_lo,
            f"sec_{hi_cpus}": t_hi,
            f"turns_per_sec_{lo_cpus}": lo["turns_per_sec"],
            f"turns_per_sec_{hi_cpus}": hi["turns_per_sec"],
            "scaling_efficiency": round(eff, 3),
            "n_turns": lo["n_turns"],
        }

    # interleaved A/B: each HEAD leg immediately followed by the same BASE
    # leg, so both see the same host window
    head_lo = run(lo_cpus)
    base_lo = run(lo_cpus, ab_tree)
    head_hi = run(hi_cpus)
    base_hi = run(hi_cpus, ab_tree)
    speed = hi_cpus / lo_cpus
    eff_head = (head_lo["value"] / head_hi["value"]) / speed
    eff_base = (base_lo["value"] / base_hi["value"]) / speed
    return {
        "metric": "index_build_scaling_ab",
        "unit": "efficiency",
        "value": round(eff_head, 3),
        "cpus": [lo_cpus, hi_cpus],
        "baseline_tree": os.path.abspath(ab_tree),
        "head": {
            f"sec_{lo_cpus}": head_lo["value"],
            f"sec_{hi_cpus}": head_hi["value"],
            "scaling_efficiency": round(eff_head, 3),
        },
        "baseline": {
            f"sec_{lo_cpus}": base_lo["value"],
            f"sec_{hi_cpus}": base_hi["value"],
            "scaling_efficiency": round(eff_base, 3),
        },
        # per-leg same-window speed ratios (head/base; <1 = HEAD faster)
        "leg_ratio_lo": round(head_lo["value"] / base_lo["value"], 3),
        "leg_ratio_hi": round(head_hi["value"] / base_hi["value"], 3),
        "n_turns": head_lo["n_turns"],
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        ab = None
        if "--ab" in sys.argv:
            i = sys.argv.index("--ab") + 1
            if i >= len(sys.argv) or sys.argv[i].startswith("-"):
                sys.exit("usage: bench.py --scaling [--ab <prior-tree-dir>]")
            ab = sys.argv[i]
            if not os.path.isfile(os.path.join(ab, "bench.py")):
                sys.exit(f"--ab tree {ab!r} has no bench.py")
        print(json.dumps(run_scaling(ab)))
    else:
        print(json.dumps(run_bench()))
