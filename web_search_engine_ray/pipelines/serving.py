"""Driver-facing search pipelines over the ``documents`` table: cached index
build + BM25 / boolean query result tables (int64/float64 columns, named to
match the DuckDB oracle SQL in ``__ray_entry__``)."""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pyarrow as pa

from web_search_engine_ray.pipelines.build import (
    build_index,
    code_fingerprint,
    files_fingerprint,
)
# RRF_K / RRF_DEPTH are read here by the ``rrf_fusion`` SQL twin
from web_search_engine_ray.pipelines.query import RRF_DEPTH, RRF_K, Searcher, topk_order
from web_search_engine_ray.stages.exchange import arrow_refs

# Fixed query set over the documents vocabulary (bench_search.py-style fixed
# list; includes AND-empty, unknown-term, and duplicate-term cases).
FIXED_QUERIES = [
    "spark join",
    "the data",
    "window merge sort",
    "vector",
    "slow fast big small",
    "data data",
    "nosuchterm spark",
    "stream filter",
    "hash group agg",
    "customer order line",
]

_searchers: dict[str, Searcher] = {}


def _cache_key(path: str, tag: str, *modules: str) -> str:
    """Cache key for a derived artifact of one source file: path + size +
    mtime + a variant tag + the build's code fingerprint + the
    :func:`~web_search_engine_ray.pipelines.build.files_fingerprint` of
    ``modules``, the source files of the code that writes the artifact (a
    caller passes its own ``__file__``), so an edit there rebuilds instead
    of serving the old layout. ONE recipe — a second inline copy could
    drift and serve a stale cache."""
    st = os.stat(path)
    code = code_fingerprint() + (f":{files_fingerprint(modules)}" if modules else "")
    return hashlib.sha256(
        f"{path}:{st.st_size}:{st.st_mtime_ns}:{tag}:{code}".encode()
    ).hexdigest()[:16]


def documents_index(sf_dir: str) -> str:
    """Build (or reuse) the inverted index for a documents table. Keyed by
    path + file identity; resumable on disk, so repeat calls are cheap."""
    path = os.path.join(sf_dir, "documents.parquet")
    out = os.path.join("/tmp", "wse_ray_cache", f"docs_{_cache_key(path, 'docs')}")
    build_index(
        path,
        out,
        text_column="text",
        partition_rows=20_000,
        num_shards=8,
        n_salts=4,
        heavy_df_frac=0.05,
    )
    return out


def documents_searcher(sf_dir: str) -> Searcher:
    idx = documents_index(sf_dir)
    s = _searchers.get(idx)
    if s is None:
        s = Searcher(idx)
        _searchers[idx] = s
    return s


def bm25_topk_table(
    sf_dir: str,
    queries: list[str] | None = None,
    topk: int = 10,
    mode: str = "OR",
    round_to: int = 4,
) -> pa.Table:
    """(query_id, docid, score) — top-k BM25 per fixed query; score rounded
    so the Ray float64 sum and the SQL float64 sum hash identically."""
    s = documents_searcher(sf_dir)
    queries = queries if queries is not None else FIXED_QUERIES
    q_l, d_l, s_l = [], [], []
    for qid, q in enumerate(queries):
        # "sorted" tie semantics = the SQL-expressible (-score, docid) cut,
        # matching the oracle's ORDER BY score DESC, docid LIMIT k
        for docid, score in s.bm25_topk(q, topk=topk, mode=mode, tie_semantics="sorted"):
            q_l.append(qid)
            d_l.append(int(docid))
            s_l.append(float(np.round(score, round_to)))
    return pa.table(
        {
            "query_id": pa.array(q_l, pa.int64()),
            "docid": pa.array(d_l, pa.int64()),
            "score": pa.array(s_l, pa.float64()),
        }
    )


QL_MU = 2000.0  # Dirichlet prior, mirrored in the SQL twin


def ql_topk_table(
    sf_dir: str,
    queries: list[str] | None = None,
    topk: int = 10,
    mu: float = QL_MU,
    round_to: int = 4,
) -> pa.Table:
    """(query_id, docid, score) — top-k Dirichlet query-likelihood per fixed
    query (:meth:`Searcher.ql_topk`); score rounded so the Ray float64 sum
    and the SQL float64 sum hash identically."""
    s = documents_searcher(sf_dir)
    queries = queries if queries is not None else FIXED_QUERIES
    q_l, d_l, s_l = [], [], []
    for qid, q in enumerate(queries):
        for docid, score in s.ql_topk(q, topk=topk, mu=mu):
            q_l.append(qid)
            d_l.append(int(docid))
            s_l.append(float(np.round(score, round_to)))
    return pa.table(
        {
            "query_id": pa.array(q_l, pa.int64()),
            "docid": pa.array(d_l, pa.int64()),
            "score": pa.array(s_l, pa.float64()),
        }
    )


RM3_FB_DOCS, RM3_FB_TERMS = 5, 3  # gate constants, mirrored in the SQL twin


def rm3_expanded_table(
    sf_dir: str,
    queries: list[str] | None = None,
    topk: int = 10,
    fb_docs: int = RM3_FB_DOCS,
    fb_terms: int = RM3_FB_TERMS,
    round_to: int = 4,
) -> pa.Table:
    """(query_id, docid, score) — RM3-style pseudo-relevance-feedback
    expansion: BM25 top-``fb_docs`` feedback set, expansion terms ranked by
    total occurrence count over the feedback docs' text (corpus tokenizer,
    uniform doc weight — the deterministic RM1 simplification; ties to the
    lexicographically first term, original query terms excluded), then one
    re-query with the expanded term set.

    The whole two-stage pipeline has an exact SQL twin (feedback cut ->
    anti-joined expansion counts -> re-scored BM25), like
    :func:`hybrid_rerank_table` — the reference has no expansion path at all.
    Scale shape: the feedback set is ``fb_docs`` rows fetched through the
    DocStore's row-group random access; only the expanded term set (a
    handful of strings) feeds stage 2."""
    from collections import Counter

    from web_search_engine_ray.functions.tokenize import query_terms, tokenize
    from web_search_engine_ray.state.docstore import DocStore

    s = documents_searcher(sf_dir)
    store = DocStore(os.path.join(sf_dir, "documents.parquet"), columns=["text"])
    queries = queries if queries is not None else FIXED_QUERIES
    q_l, d_l, s_l = [], [], []
    for qid, q in enumerate(queries):
        fb = s.bm25_topk(q, topk=fb_docs, mode="OR", tie_semantics="sorted")
        counts: Counter[str] = Counter()
        for docid, _score in fb:
            counts.update(tokenize(store.get_text(int(docid))))
        qset = set(query_terms(q))
        new = np.array([t for t in counts if t not in qset], dtype=str)
        n = np.array([counts[t] for t in new.tolist()], np.int64)
        exp = new[topk_order(new, n, fb_terms)].tolist()  # (-count, term)
        expanded = q if not exp else q + " " + " ".join(exp)
        for docid, score in s.bm25_topk(
            expanded, topk=topk, mode="OR", tie_semantics="sorted"
        ):
            q_l.append(qid)
            d_l.append(int(docid))
            s_l.append(float(np.round(score, round_to)))
    return pa.table(
        {
            "query_id": pa.array(q_l, pa.int64()),
            "docid": pa.array(d_l, pa.int64()),
            "score": pa.array(s_l, pa.float64()),
        }
    )


def _partitioned_docs_index(sf_dir: str, n_ranges: int, tag: str) -> str:
    """Build (or reuse) a doc-range-partitioned index over a documents table.

    The table is a single file: split it into range files once — planned from
    footer metadata and streamed row-group-at-a-time, the whole table is
    never resident (same planner discipline as the build's metadata-only
    docid pass) — then build one index per range."""
    import pyarrow.parquet as pq

    from web_search_engine_ray.pipelines.distributed import build_partitioned_index

    path = os.path.join(sf_dir, "documents.parquet")
    out = os.path.join("/tmp", "wse_ray_cache", f"docs_part_{_cache_key(path, tag)}")
    corpus_dir = os.path.join(out, "corpus")
    if not os.path.exists(os.path.join(out, "partitioned.json")):
        os.makedirs(corpus_dir, exist_ok=True)
        pf = pq.ParquetFile(path)
        n_rows = pf.metadata.num_rows
        per = (n_rows + n_ranges - 1) // n_ranges
        writers: dict[int, pq.ParquetWriter] = {}
        row = 0
        try:
            for rg in range(pf.num_row_groups):
                t = pf.read_row_group(rg)
                off = 0
                while off < t.num_rows:
                    ri = (row + off) // per
                    take = min(t.num_rows - off, (ri + 1) * per - (row + off))
                    part = t.slice(off, take)
                    w = writers.get(ri)
                    if w is None:
                        w = pq.ParquetWriter(
                            os.path.join(corpus_dir, f"docs_{ri:03d}.parquet"),
                            t.schema,
                        )
                        writers[ri] = w
                    w.write_table(part)
                    off += take
                row += t.num_rows
        finally:
            for w in writers.values():
                w.close()
        build_partitioned_index(
            corpus_dir, out, n_ranges=n_ranges,
            text_column="text", partition_rows=20_000, num_shards=4, n_salts=4,
        )
    return out


def bm25_partitioned_table(
    sf_dir: str,
    queries: list[str] | None = None,
    topk: int = 10,
    mode: str = "OR",
    n_ranges: int = 3,
    round_to: int = 4,
) -> pa.Table:
    """Same result shape as :func:`bm25_topk_table` but served by the
    doc-range-partitioned actor pool (``pipelines/distributed.py``) — the
    driver checks it against the SAME SQL oracle, proving the distributed
    path end-to-end."""
    out = _partitioned_docs_index(sf_dir, n_ranges, f"part{n_ranges}")
    return _query_partitioned(out, queries, topk, mode, round_to)


def _query_partitioned(
    out: str, queries: list[str] | None, topk: int, mode: str, round_to: int
) -> pa.Table:
    from web_search_engine_ray.pipelines.distributed import PartitionedSearcher

    ps = PartitionedSearcher(out)
    queries = queries if queries is not None else FIXED_QUERIES
    try:
        q_l, d_l, s_l = [], [], []
        for qid, q in enumerate(queries):
            for docid, score in ps.bm25_topk(q, topk=topk, mode=mode):
                q_l.append(qid)
                d_l.append(int(docid))
                s_l.append(float(np.round(score, round_to)))
    finally:
        ps.shutdown()
    return pa.table(
        {
            "query_id": pa.array(q_l, pa.int64()),
            "docid": pa.array(d_l, pa.int64()),
            "score": pa.array(s_l, pa.float64()),
        }
    )


DELETE_MODULUS, DELETE_RESIDUE = 7, 3  # gate's deterministic delete rule


def bm25_after_delete_table(
    sf_dir: str,
    queries: list[str] | None = None,
    topk: int = 10,
    mode: str = "OR",
    n_ranges: int = 3,
    round_to: int = 4,
) -> pa.Table:
    """BM25 top-k AFTER deleting every doc with
    ``doc_id % DELETE_MODULUS == DELETE_RESIDUE`` and compacting: tombstone
    the docids (``distributed.delete_docs``), rebuild only the affected
    ranges with preserved docids (``compact_deletes``), then query the
    partitioned pool. Post-compaction results are exact over the surviving
    corpus — N/avgdl/df all exclude the deleted docs — so the DuckDB twin is
    simply the BM25 oracle over ``documents`` minus those rows (docids
    unchanged). The reference engine's only deletion story is a full rebuild."""
    import pyarrow.parquet as pq

    from web_search_engine_ray.pipelines.distributed import (
        compact_deletes,
        delete_docs,
        load_deletes,
    )

    out = _partitioned_docs_index(
        sf_dir, n_ranges, f"part{n_ranges}:del{DELETE_MODULUS}-{DELETE_RESIDUE}"
    )
    n_rows = pq.read_metadata(os.path.join(sf_dir, "documents.parquet")).num_rows
    want = list(range(DELETE_RESIDUE, n_rows, DELETE_MODULUS))
    with open(os.path.join(out, "partitioned.json")) as f:
        pj = json.load(f)
    done = set()
    for r in pj["ranges"]:
        done.update(r.get("deleted_docids", []))
    todo = [d for d in want if d not in done]
    if todo or load_deletes(out):
        delete_docs(out, todo)
        compact_deletes(out)
    return _query_partitioned(out, queries, topk, mode, round_to)


def bm25_taat_table(
    sf_dir: str,
    queries: list[str] | None = None,
    topk: int = 10,
    round_to: int = 4,
) -> pa.Table:
    """(query_id, docid, score) — the reference TAAT ``search`` contract
    (``searcher.py:52-90``: every OR match by (-score, docid)) cut to
    ``topk``. The engine serves it with ``bm25_topk``'s sorted cut, so this
    table equals ``bm25_topk_table(mode="OR")``; the TAAT loop itself lives
    only in ``OracleIndex.search``, which the tests compare against (docids
    exact, scores to 1e-9). Kept as a gate entry against the same SQL
    oracle as ``bm25_topk_or``."""
    return bm25_topk_table(sf_dir, queries, topk, "OR", round_to)


def wand_daat_equivalence_table(
    sf_dir: str, queries: list[str] | None = None, topk: int = 10
) -> pa.Table:
    """(query_id, n_results, identical) — the served ranked path
    (``bm25_topk`` OR, heap ties, MaxScore pruning where it applies) vs the
    in-memory reference oracle ``OracleIndex.ranked_daat`` built over the
    same ``documents.parquet``: same docids, bit-identical scores, both cut
    by (-score, docid). Rows-only — the heap tie membership both sides share
    is not SQL-expressible. A divergence RAISES — the gate run itself must
    fail, not print ok over identical=False rows."""
    import pyarrow.parquet as pq

    from web_search_engine_ray.oracle import OracleIndex

    s = documents_searcher(sf_dir)
    texts = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["text"]
    )["text"].to_pylist()
    oracle = OracleIndex.build(list(enumerate(texts)))
    queries = queries if queries is not None else FIXED_QUERIES
    q_l, n_l, e_l = [], [], []
    for qid, q in enumerate(queries):
        got = sorted(s.bm25_topk(q, topk, "OR"), key=lambda x: (-x[1], x[0]))
        want = sorted(oracle.ranked_daat(q, topk, "OR"), key=lambda x: (-x[1], x[0]))
        if got != want:
            raise AssertionError(
                f"bm25_topk/oracle divergence on query {qid} ({q!r}): "
                f"served={got[:3]}... oracle={want[:3]}..."
            )
        q_l.append(qid)
        n_l.append(len(got))
        e_l.append(True)
    return pa.table(
        {
            "query_id": pa.array(q_l, pa.int64()),
            "n_results": pa.array(n_l, pa.int64()),
            "identical": pa.array(e_l, pa.bool_()),
        }
    )


def crawl_log_table(sf_dir: str | None = None, max_pages: int = 40) -> pa.Table:
    """Deterministic crawl over the injected FakeWeb (the sandbox has no
    network; the crawl policy/priority/robots machinery is the reference
    HW1 pipeline). ``sf_dir`` is ignored — the fake web is self-contained.
    Rows are stable across runs (seeded frontier, fixed tie-breaking)."""
    from web_search_engine_ray.crawl.crawler import crawl
    from web_search_engine_ray.crawl.fakeweb import FakeWeb

    web = FakeWeb()
    seeds = [web.page_url(0, 1), web.page_url(1, 2)]
    rows = crawl(
        seeds, web.fetch, max_pages=max_pages, max_depth=3,
        robots_fetch_text=web.fetch_text,
    )
    return pa.table(
        {
            "url": pa.array([r["url"] for r in rows], pa.string()),
            "status": pa.array([int(r["status"]) for r in rows], pa.int64()),
            "depth": pa.array([int(r["depth"]) for r in rows], pa.int64()),
            "n_bytes": pa.array([int(r["bytes"]) for r in rows], pa.int64()),
            "domain": pa.array([r["domain"] for r in rows], pa.string()),
            "total_priority": pa.array(
                [round(float(r["total_priority"]), 6) for r in rows], pa.float64()
            ),
        }
    )


def hybrid_rerank_table(
    sf_dir: str,
    queries: list[str] | None = None,
    k1: int = 50,
    k2: int = 10,
    round_to: int = 6,
) -> pa.Table:
    """(query_id, docid, cos) — the modern two-stage retrieval composition:
    BM25 recalls the top ``k1`` candidates from the inverted index, then the
    candidates are re-ranked by embedding cosine against the query's vector
    (query qid's vector = ``embeddings[vec_id == qid]``; docid == vec_id is
    the fixture's row alignment) and cut to ``k2`` by (-cos, docid).

    Scale shape: stage 1 is index serving (actor-pool ready); stage 2
    gathers ONLY the union of candidate embeddings (vectorized ``is_in``
    scan over the embeddings table — never the matrix) and does one small
    matmul per query. Candidates without an embedding row drop (inner-join
    semantics, mirrored by the SQL twin). Fully deterministic; the driver
    checks it against a DuckDB twin of the whole two-stage pipeline."""
    import pyarrow.compute as pc
    import ray.data

    s = documents_searcher(sf_dir)
    queries = queries if queries is not None else FIXED_QUERIES
    cand: dict[int, list[int]] = {}
    for qid, q in enumerate(queries):
        cand[qid] = [
            int(d)
            for d, _ in s.bm25_topk(q, topk=k1, mode="OR", tie_semantics="sorted")
        ]
    need = sorted({d for ds_ in cand.values() for d in ds_} | set(cand.keys()))
    need_arr = pa.array(np.asarray(need, dtype=np.int64), pa.int64())

    def gather(batch: pa.Table) -> pa.Table:
        mask = pc.is_in(batch["vec_id"].cast(pa.int64()), value_set=need_arr)
        kept = batch.filter(mask)
        return pa.table(
            {"vec_id": kept["vec_id"].cast(pa.int64()), "embedding": kept["embedding"]}
        )

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    got = (
        ray.data.read_parquet(emb_path, columns=["vec_id", "embedding"])
        .map_batches(gather, batch_format="pyarrow")
        .to_pandas()
    )
    from web_search_engine_ray.pipelines.similarity import _norm_rows

    ids = got["vec_id"].to_numpy().astype(np.int64)
    M = _norm_rows(np.array(got["embedding"].tolist(), dtype=np.float64))
    row_of = {int(v): i for i, v in enumerate(ids)}

    q_l, d_l, c_l = [], [], []
    for qid in sorted(cand):
        if qid not in row_of:
            continue
        rows = np.array([row_of[d] for d in cand[qid] if d in row_of], dtype=np.int64)
        if rows.size == 0:
            continue
        # round BEFORE ranking (vsm_topk_table note): mathematically-
        # orthogonal int vectors dot to EXACT 0 in the twin's raw-integer
        # sum but to ±1e-17 cancellation noise after the engine's
        # normalize-then-dot — the k2 cut must fall to the docid tie-break
        # identically on both sides (fuzz gate, seed 1)
        cos = np.round(M[row_of[qid]] @ M[rows].T, round_to)
        docs = ids[rows]
        for i in topk_order(docs, cos, k2):
            q_l.append(qid)
            d_l.append(int(docs[i]))
            c_l.append(float(cos[i]))
    return pa.table(
        {
            "query_id": pa.array(q_l, pa.int64()),
            "docid": pa.array(d_l, pa.int64()),
            "cos": pa.array(c_l, pa.float64()),
        }
    )


def boolean_table(sf_dir: str, queries: list[str] | None = None, mode: str = "AND") -> pa.Table:
    """(query_id, docid) — boolean AND/OR result sets per fixed query."""
    s = documents_searcher(sf_dir)
    queries = queries if queries is not None else FIXED_QUERIES
    q_l, d_l = [], []
    for qid, q in enumerate(queries):
        for docid in sorted(s.boolean(q, mode)):
            q_l.append(qid)
            d_l.append(int(docid))
    return pa.table(
        {"query_id": pa.array(q_l, pa.int64()), "docid": pa.array(d_l, pa.int64())}
    )


# -- autocomplete -----------------------------------------------------------

# Fixed prefix set for the gate: hot prefixes, a single-char (wide) one, and
# a no-match probe.
AUTOCOMPLETE_PREFIXES = ["sp", "da", "c", "w", "qu", "nosuch"]
AUTOCOMPLETE_K = 10


def autocomplete_table(
    sf_dir: str, prefixes: list[str] | None = None, k: int = AUTOCOMPLETE_K
) -> pa.Table:
    """(prefix, suggestion, df) — top-k type-ahead completions per prefix by
    (df desc, term), straight from the index's own lexicon shards
    (``Searcher.complete``: two bisects per sorted shard term list, per-shard
    k-cut before the merge). SQL twin: ``LIKE prefix || '%'`` over the df
    relation under the same (df desc, term) row_number cut."""
    s = documents_searcher(sf_dir)
    prefixes = prefixes if prefixes is not None else AUTOCOMPLETE_PREFIXES
    p_l, t_l, d_l = [], [], []
    for p in prefixes:
        for term, df in s.complete(p, k=k):
            p_l.append(p)
            t_l.append(term)
            d_l.append(df)
    return pa.table(
        {
            "prefix": pa.array(p_l, pa.string()),
            "suggestion": pa.array(t_l, pa.string()),
            "df": pa.array(d_l, pa.int64()),
        }
    )


# -- faceted search ---------------------------------------------------------
#
# The search-UI sidebar pair the reference's Flask app lacks: "best k hits
# per source" and "how many matches per source". Both treat a document
# attribute column as the facet; neither reshuffles the corpus.

FACET_TOPK = 5


def _gather_doc_sources(sf_dir: str, docids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Candidate-only gather of the ``source`` facet attribute: one streamed
    pass over documents(doc_id, source) keeping only the requested docids
    (vectorized ``is_in``) — the same gather shape as hybrid_rerank's
    candidate embeddings. At 10^12 docs the facet attribute lives in
    docid-range-aligned shards next to doc_lengths and this becomes a
    per-range row-group fetch; at sf scale the one-pass filter is right.
    Returns (sorted candidate docids, source string per docid)."""
    import pyarrow.compute as pc
    import ray.data

    if docids.size == 0:
        return docids.astype(np.int64), np.array([], dtype=object)
    need_arr = pa.array(np.asarray(docids, dtype=np.int64), pa.int64())

    def gather(batch: pa.Table) -> pa.Table:
        mask = pc.is_in(batch["doc_id"].cast(pa.int64()), value_set=need_arr)
        kept = batch.filter(mask)
        return pa.table(
            {"doc_id": kept["doc_id"].cast(pa.int64()), "source": kept["source"]}
        )

    got = (
        ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "source"]
        )
        .map_batches(gather, batch_format="pyarrow")
        .to_pandas()
    )
    ids = got["doc_id"].to_numpy().astype(np.int64)
    order = np.argsort(ids)
    return ids[order], got["source"].to_numpy()[order]


def bm25_facet_topk_table(
    sf_dir: str,
    queries: list[str] | None = None,
    topk: int = FACET_TOPK,
    round_to: int = 4,
) -> pa.Table:
    """(query_id, source, docid, score) — the best ``topk`` BM25 hits per
    (query, facet) where the facet is the document's ``source`` attribute.

    Engine path: score every OR match once (``Searcher.bm25_scores``),
    gather ``source`` for the matched docids only, then a vectorized
    per-facet cut by
    (-score, docid) — SQL ``row_number() OVER (PARTITION BY query, source
    ORDER BY score DESC, docid)`` semantics, which the DuckDB twin replays.

    Scale shape: each index range-shard emits its LOCAL top-k per facet
    (bounded at k x n_facets rows per shard) and the driver k-way merges —
    the facet attribute is a docid-range-aligned lookup like doc_lengths,
    so faceting adds no shuffle to the query path."""
    import pandas as pd

    s = documents_searcher(sf_dir)
    queries = queries if queries is not None else FIXED_QUERIES
    q_parts, d_parts, s_parts = [], [], []
    for qid, q in enumerate(queries):
        d, sc = s.bm25_scores(q, "OR")
        if not d.size:
            continue
        q_parts.append(np.full(d.size, qid, np.int64))
        d_parts.append(d.astype(np.int64))
        s_parts.append(sc)
    if not q_parts:
        return pa.table(
            {
                "query_id": pa.array([], pa.int64()),
                "source": pa.array([], pa.string()),
                "docid": pa.array([], pa.int64()),
                "score": pa.array([], pa.float64()),
            }
        )
    qv = np.concatenate(q_parts)
    dv = np.concatenate(d_parts)
    sv = np.concatenate(s_parts)
    gids, gsrc = _gather_doc_sources(sf_dir, np.unique(dv))
    src = gsrc[np.searchsorted(gids, dv)]
    df = pd.DataFrame({"query_id": qv, "source": src, "docid": dv, "score": sv})
    # cut on the raw float64 score (ulp-aligned with the SQL sum), round
    # only for output — the same discipline as bm25_topk_table
    df = df.sort_values(
        ["query_id", "source", "score", "docid"],
        ascending=[True, True, False, True],
        kind="stable",
    )
    out = df.groupby(["query_id", "source"], sort=False).head(topk)
    return pa.table(
        {
            "query_id": pa.array(out["query_id"].to_numpy(), pa.int64()),
            "source": pa.array(out["source"].tolist(), pa.string()),
            "docid": pa.array(out["docid"].to_numpy(), pa.int64()),
            "score": pa.array(np.round(out["score"].to_numpy(), round_to), pa.float64()),
        }
    )


def facet_counts_table(sf_dir: str, queries: list[str] | None = None) -> pa.Table:
    """(query_id, source, n_docs) — boolean-OR match counts per facet: the
    "filter by source" sidebar counts next to search results.

    Scale shape: the per-query MATCHED docid sets (sorted int64 arrays from
    the posting lists) are broadcast once via ``ray.put``; one streamed pass
    over documents(doc_id, source) computes per-batch per-(query, facet)
    partial counts with searchsorted membership + bincount over dictionary
    codes; the driver reduces the tiny (n_queries x n_facets) partials.
    Document rows never leave the workers. At 10^12 docs a stopword query's
    match set outgrows the broadcast budget — then the match relation flows
    through a docid-keyed exchange semi-join instead (the ngram-jaccard
    pattern); at gate scale broadcast is the right call."""
    import ray
    import ray.data

    s = documents_searcher(sf_dir)
    queries = queries if queries is not None else FIXED_QUERIES
    matched: dict[int, np.ndarray] = {}
    for qid, q in enumerate(queries):
        rows = s.resolve_terms(q)
        if rows:
            matched[qid] = s.candidates(s.decode(rows))[0].astype(np.int64)
    empty = pa.table(
        {
            "query_id": pa.array([], pa.int64()),
            "source": pa.array([], pa.string()),
            "n_docs": pa.array([], pa.int64()),
        }
    )
    if not matched:
        return empty
    ref = ray.put(matched)

    def partial(batch: pa.Table) -> pa.Table:
        m = ray.get(ref)
        ids = batch["doc_id"].combine_chunks().to_numpy(zero_copy_only=False).astype(np.int64)
        enc = batch["source"].combine_chunks().dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        names = enc.dictionary.to_pylist()
        q_l, s_l, n_l = [], [], []
        for qid, arr in m.items():
            pos = np.searchsorted(arr, ids)
            hit = (pos < arr.size) & (arr[np.minimum(pos, arr.size - 1)] == ids)
            if not hit.any():
                continue
            cnt = np.bincount(codes[hit], minlength=len(names))
            for ci in np.flatnonzero(cnt):
                q_l.append(qid)
                s_l.append(names[ci])
                n_l.append(int(cnt[ci]))
        return pa.table(
            {
                "query_id": pa.array(q_l, pa.int64()),
                "source": pa.array(s_l, pa.string()),
                "n_docs": pa.array(n_l, pa.int64()),
            }
        )

    parts = (
        ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "source"]
        )
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()
    )
    if parts.empty:
        return empty
    agg = (
        parts.groupby(["query_id", "source"], as_index=False)["n_docs"]
        .sum()
        .sort_values(["query_id", "source"])
        .reset_index(drop=True)
    )
    return pa.table(
        {
            "query_id": pa.array(agg["query_id"].to_numpy(), pa.int64()),
            "source": pa.array(agg["source"].tolist(), pa.string()),
            "n_docs": pa.array(agg["n_docs"].to_numpy(), pa.int64()),
        }
    )


# -- "more like this": TF-IDF cosine document similarity ----------------------

MLT_SOURCE_DOCS = list(range(10))
MLT_TOPK = 10


def _tfidf_dots(s: Searcher, counts: dict[str, int]):
    """Dot products of a term-count vector with every candidate doc's TF-IDF
    vector (tfidf = tf * ln(N/df)): ``(candidate docids, dots, squared norm
    of the count vector)``, or ``None`` when no term is known. Distinct
    terms resolve once and accumulate in sorted-term order — the
    per-(term, doc) product (c*idf) * (tf*idf) the SQL twins sum; unknown
    terms drop on both sides (no idf exists)."""
    import math

    rows = s.resolve_terms(sorted(counts))
    if not rows:
        return None
    n = float(s.N)
    cand, slots, matches = s.candidates(s.decode(rows))
    # accumulate by candidate slot: a span offset on the dense path
    dots = np.zeros(cand.size if slots is None else s.doclens.span()[1], np.float64)
    norm_sq = 0.0
    for (t, _, _, df), (pos, f) in zip(rows, matches):
        idf = math.log(n / float(df))
        w = float(counts[t]) * idf
        norm_sq += w * w
        dots[pos] += w * (f.astype(np.float64) * idf)
    return cand.astype(np.int64), s.at_cands(dots, slots), norm_sq


def _tfidf_norms(sf_dir: str) -> np.ndarray:
    """Per-doc TF-IDF L2 norms (tfidf = tf * ln(N/df), the ``tfidf_topk``
    formula): one corpus pass with the vocabulary-scale idf relation
    broadcast (the tfidf_topk_ds discipline); documents never span batches,
    so per-doc sums need no exchange. Returns a dense docid-indexed array —
    at extreme scale this becomes one more range-sharded docid artifact,
    exactly like doclens."""
    import pyarrow.parquet as pq
    import ray

    from web_search_engine_ray.pipelines.corpus import (
        _docs_path,
        _to_postings,
        term_stats_refs,
    )

    stats = pa.concat_tables(ray.get(term_stats_refs(sf_dir)))
    n_docs = pq.ParquetFile(_docs_path(sf_dir)).metadata.num_rows
    import polars as pl

    idf = pl.from_arrow(stats).select(
        "term",
        (float(n_docs) / pl.col("df").cast(pl.Float64)).log().alias("idf"),
    )
    ref = ray.put(idf.to_arrow())

    def partial(batch: pa.Table) -> pa.Table:
        p = _to_postings(batch)
        d = (
            pl.from_arrow(p)
            .join(pl.from_arrow(ray.get(ref)), on="term", how="inner")
            .with_columns(
                (pl.col("tf").cast(pl.Float64) * pl.col("idf")).alias("w")
            )
            .group_by("docid")
            .agg((pl.col("w") * pl.col("w")).sum().alias("ss"))
        )
        return d.to_arrow().cast(
            pa.schema([("docid", pa.int64()), ("ss", pa.float64())])
        )

    import ray.data

    ds = ray.data.read_parquet(
        _docs_path(sf_dir), columns=["doc_id", "text"]
    ).map_batches(partial, batch_format="pyarrow")
    norms = np.zeros(n_docs, np.float64)
    for t in ray.get(arrow_refs(ds)):
        if t.num_rows:
            norms[t["docid"].to_numpy(zero_copy_only=False)] = np.sqrt(
                t["ss"].to_numpy(zero_copy_only=False)
            )
    return norms


def more_like_this_table(
    sf_dir: str,
    source_docids: list[int] | None = None,
    topk: int = MLT_TOPK,
    round_to: int = 6,
) -> pa.Table:
    """(query_id, docid, score): top-k most similar documents per source
    document by TF-IDF cosine (the search engine's "more like this" /
    related-documents feature — the reference has no doc-to-doc similarity
    at all). Source doc term vectors come from a 10-row filtered corpus
    read; candidate postings and dfs come from the same index state BM25
    serves from; per-doc norms from :func:`_tfidf_norms`. Per-(term, pair)
    float expression (tf_s*idf) * (tf_d*idf) and the final
    dot/(norm_s*norm_d) match the SQL twin exactly; ROUND({round_to}) both
    sides."""
    from collections import Counter

    import pyarrow.parquet as pq_
    import pyarrow.compute as pc

    from web_search_engine_ray.functions.tokenize import token_lists
    from web_search_engine_ray.pipelines.corpus import _docs_path

    src_ids = source_docids if source_docids is not None else MLT_SOURCE_DOCS
    s = documents_searcher(sf_dir)
    norms = _tfidf_norms(sf_dir)
    src_t = pq_.read_table(
        _docs_path(sf_dir),
        columns=["doc_id", "text"],
        filters=pc.field("doc_id").isin(pa.array(src_ids, pa.int64())),
    )
    texts = {
        int(d): t
        for d, t in zip(src_t["doc_id"].to_pylist(), src_t["text"].to_pylist())
    }
    q_l, d_l, s_l = [], [], []
    for qid, sdoc in enumerate(src_ids):
        toks = token_lists(pa.array([texts.get(sdoc, "")], pa.string())).to_list()[0] or []
        got = _tfidf_dots(s, Counter(toks))
        if got is None:
            continue
        cand, dots, _ = got
        keep = cand != sdoc
        cand, dots = cand[keep], dots[keep]
        # round BEFORE ranking (vsm_topk_table note): token-identical docs
        # tie exactly in math, epsilon-apart in float accumulation — both
        # sides rank the rounded score so ties fall to docid
        scores = np.round(dots / (norms[sdoc] * norms[cand]), round_to)
        order = topk_order(cand, scores, topk)
        q_l.append(np.full(order.size, qid, np.int64))
        d_l.append(cand[order])
        s_l.append(scores[order])
    return pa.table(
        {
            "query_id": pa.array(np.concatenate(q_l) if q_l else [], pa.int64()),
            "docid": pa.array(np.concatenate(d_l) if d_l else [], pa.int64()),
            "score": pa.array(np.concatenate(s_l) if s_l else [], pa.float64()),
        }
    )


# -- static index pruning (tiered serving) ------------------------------------

PRUNE_M = 25  # postings kept per term, mirrored in the SQL twin


def bm25_pruned_topk_table(
    sf_dir: str,
    queries: list[str] | None = None,
    topk: int = 10,
    m: int = PRUNE_M,
    round_to: int = 4,
) -> pa.Table:
    """(query_id, docid, score): BM25-OR top-k served from a STATICALLY
    PRUNED index — per term only the top-``m`` postings by (tf desc, docid)
    survive, scored with the FULL corpus statistics (N, avgdl, df), the
    classic tiered/impact-pruned serving layout (Carmel et al., SIGIR 2001:
    prune the long tail of each posting list; the first tier answers most
    queries, bounded by m instead of df). Deterministic prune rule ==
    deterministic twin: the oracle rebuilds the identical pruned tf
    relation with a row_number cut and runs the same scored CTE over it.
    Scale note: pruning happens at build time in a real deployment (one
    row_number cut inside the term-partitioned merge — the build already
    groups by term); here the serving path applies the identical cut on
    the decoded lists so the gate exercises the exact contract. The pruned
    lists then take ``bm25_topk``'s exhaustive half: the shared candidate
    builder and BM25 scorer with the sorted cut."""
    s = documents_searcher(sf_dir)
    queries = queries if queries is not None else FIXED_QUERIES
    q_l, d_l, s_l = [], [], []
    for qid, q in enumerate(queries):
        terms = sorted(s.resolve_terms(q), key=lambda r: r[3])
        if not terms:
            continue
        lists = {}
        for t, (d, f) in s.decode(terms).items():
            keep = np.sort(topk_order(d, f.astype(np.int64), m))  # docid order
            lists[t] = d[keep], f[keep]
        cand, slots, matches = s.candidates(lists)
        scores = s._score(cand, slots, terms, matches)
        keep = topk_order(cand, scores, topk)
        q_l.append(np.full(keep.size, qid, np.int64))
        d_l.append(cand[keep].astype(np.int64))
        s_l.append(np.round(scores[keep], round_to))
    return pa.table(
        {
            "query_id": pa.array(np.concatenate(q_l) if q_l else [], pa.int64()),
            "docid": pa.array(np.concatenate(d_l) if d_l else [], pa.int64()),
            "score": pa.array(np.concatenate(s_l) if s_l else [], pa.float64()),
        }
    )


# -- reciprocal-rank fusion ----------------------------------------------------


def rrf_fusion_table(
    sf_dir: str,
    queries: list[str] | None = None,
    topk: int = 10,
    round_to: int = 6,
) -> pa.Table:
    """(query_id, docid, score): reciprocal-rank fusion of the BM25 and the
    Dirichlet-QL rankings per fixed query (:meth:`Searcher.rrf_topk`, the
    same fusion the HTTP ``ranker: "rrf"`` serves): score(d) = sum over
    systems of 1/(k + rank_sys(d)) inside each system's top-``RRF_DEPTH``
    pool, ranks by the (ROUND(score, 6) desc, docid) order both rankers
    share with their twins."""
    s = documents_searcher(sf_dir)
    queries = queries if queries is not None else FIXED_QUERIES
    q_l, d_l, s_l = [], [], []
    for qid, q in enumerate(queries):
        for docid, score in s.rrf_topk(q, topk):
            q_l.append(qid)
            d_l.append(docid)
            s_l.append(float(np.round(score, round_to)))
    return pa.table(
        {
            "query_id": pa.array(q_l, pa.int64()),
            "docid": pa.array(d_l, pa.int64()),
            "score": pa.array(s_l, pa.float64()),
        }
    )


# -- vector-space (TF-IDF cosine) ranking --------------------------------------


def vsm_topk_table(
    sf_dir: str,
    queries: list[str] | None = None,
    topk: int = 10,
    round_to: int = 6,
) -> pa.Table:
    """(query_id, docid, score): top-k documents by TF-IDF cosine between
    the query vector and doc vectors (the classic Salton vector-space
    model — the third ranking family next to BM25 and QL; tfidf = tf *
    ln(N/df), the repo-wide formula). The query is just a tiny document:
    w_tq = tf_q * idf with duplicate query terms counted, unknown terms
    dropped on both sides; doc norms come from the shared
    :func:`_tfidf_norms` pass, the query norm from the same formula.
    Identical per-(term, doc) float products and the final
    dot/(|q||d|) quotient as the SQL twin, ROUND({round_to})."""
    import math
    from collections import Counter

    from web_search_engine_ray.functions.tokenize import query_terms

    s = documents_searcher(sf_dir)
    norms = _tfidf_norms(sf_dir)
    queries = queries if queries is not None else FIXED_QUERIES
    q_l, d_l, s_l = [], [], []
    for qid, q in enumerate(queries):
        got = _tfidf_dots(s, Counter(query_terms(q)))
        if got is None or got[2] == 0.0:
            continue
        cand, dots, qnorm_sq = got
        # round BEFORE ranking: identical-token-multiset docs have exactly
        # equal cosines in math but epsilon-apart floats under different
        # accumulation orders (engine per-term += vs SQL sum) — ranking the
        # rounded score makes both sides fall through to the docid tie-break
        # (adversarial-gate tie blocks)
        scores = np.round(dots / (math.sqrt(qnorm_sq) * norms[cand]), round_to)
        order = topk_order(cand, scores, topk)
        q_l.append(np.full(order.size, qid, np.int64))
        d_l.append(cand[order])
        s_l.append(scores[order])
    return pa.table(
        {
            "query_id": pa.array(np.concatenate(q_l) if q_l else [], pa.int64()),
            "docid": pa.array(np.concatenate(d_l) if d_l else [], pa.int64()),
            "score": pa.array(np.concatenate(s_l) if s_l else [], pa.float64()),
        }
    )


# -- source-boosted BM25 --------------------------------------------------------


def bm25_source_boost_table(
    sf_dir: str,
    queries: list[str] | None = None,
    topk: int = 10,
    round_to: int = 4,
) -> pa.Table:
    """(query_id, docid, score): BM25-OR rescored by a per-source boost —
    the document-attribute weighting every vertical engine ships (news
    ranks official feeds up, code search ranks vendored dirs down). The
    boost is a deterministic function of the attribute so the twin needs
    no side table: weight(source) = 1 + (len(source) % 3) * 0.25. Sources
    are gathered for CANDIDATES ONLY (:func:`_gather_doc_sources`, the
    hybrid-rerank shape); ``Searcher.bm25_scores`` of every OR match
    supplies the base scores."""
    s = documents_searcher(sf_dir)
    queries = queries if queries is not None else FIXED_QUERIES
    q_l, d_l, s_l = [], [], []
    for qid, q in enumerate(queries):
        docs, sc = s.bm25_scores(q, "OR")
        if not docs.size:
            continue
        docs = docs.astype(np.int64)
        ids, srcs = _gather_doc_sources(sf_dir, docs)
        pos = np.searchsorted(ids, docs)
        w = 1.0 + (np.char.str_len(srcs[pos].astype(str)) % 3) * 0.25
        sc = sc * w
        order = topk_order(docs, sc, topk)
        q_l.append(np.full(order.size, qid, np.int64))
        d_l.append(docs[order])
        s_l.append(np.round(sc[order], round_to))
    return pa.table(
        {
            "query_id": pa.array(np.concatenate(q_l) if q_l else [], pa.int64()),
            "docid": pa.array(np.concatenate(d_l) if d_l else [], pa.int64()),
            "score": pa.array(np.concatenate(s_l) if s_l else [], pa.float64()),
        }
    )


# -- ranker agreement -----------------------------------------------------------

AGREEMENT_PAIRS = (("bm25", "ql"), ("bm25", "vsm"), ("ql", "vsm"))


def ranker_agreement_table(
    sf_dir: str, queries: list[str] | None = None, topk: int = 10
) -> pa.Table:
    """(query_id, pair, overlap): |top-k(A) ∩ top-k(B)| per fixed query for
    each pair of the three ranking families — the systems-comparison eval
    (how differently do BM25, Dirichlet QL and VSM rank the same corpus).
    Rows exist only for queries where BOTH systems returned something (the
    twin's INTERSECT-present rule); overlap 0 with both present IS a row."""
    queries = queries if queries is not None else FIXED_QUERIES
    tops = {
        "bm25": bm25_topk_table(sf_dir, queries=queries, topk=topk),
        "ql": ql_topk_table(sf_dir, queries=queries, topk=topk),
        "vsm": vsm_topk_table(sf_dir, queries=queries, topk=topk),
    }
    sets: dict[str, dict[int, set[int]]] = {}
    for name, t in tops.items():
        m: dict[int, set[int]] = {}
        for q, d in zip(t["query_id"].to_pylist(), t["docid"].to_pylist()):
            m.setdefault(int(q), set()).add(int(d))
        sets[name] = m
    q_l, p_l, o_l = [], [], []
    for a, b in AGREEMENT_PAIRS:
        for qid in range(len(queries)):
            sa, sb = sets[a].get(qid), sets[b].get(qid)
            if sa is None or sb is None:
                continue
            q_l.append(qid)
            p_l.append(f"{a}_{b}")
            o_l.append(len(sa & sb))
    return pa.table(
        {
            "query_id": pa.array(q_l, pa.int64()),
            "pair": pa.array(p_l, pa.string()),
            "overlap": pa.array(o_l, pa.int64()),
        }
    )


# -- boolean NOT ----------------------------------------------------------------

NOT_QUERIES = [
    ("spark", "join"),
    ("data", "merge"),
    ("customer", "order"),
    ("vector", "nosuchterm"),
    ("the", "data"),
]


def boolean_not_table(
    sf_dir: str, pairs: list[tuple[str, str]] | None = None
) -> pa.Table:
    """(query_id, docid): documents containing the positive term AND NOT
    the negative term — the exclusion operator completing the boolean
    family (AND / OR / NOT). One sorted-postings ``setdiff1d`` per query;
    an unknown negative term excludes nothing (the twin's NOT IN over an
    empty set)."""
    s = documents_searcher(sf_dir)
    pairs = pairs if pairs is not None else NOT_QUERIES
    q_l, d_l = [], []
    for qid, (pos, neg) in enumerate(pairs):
        dp, _ = s.postings(pos)
        if not dp.size:
            continue
        dn, _ = s.postings(neg)
        keep = np.setdiff1d(dp.astype(np.int64), dn.astype(np.int64),
                            assume_unique=True)
        q_l.append(np.full(keep.size, qid, np.int64))
        d_l.append(keep)
    return pa.table(
        {
            "query_id": pa.array(np.concatenate(q_l) if q_l else [], pa.int64()),
            "docid": pa.array(np.concatenate(d_l) if d_l else [], pa.int64()),
        }
    )
