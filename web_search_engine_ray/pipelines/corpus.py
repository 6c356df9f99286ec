"""Dataset-native postings/statistics pipelines over the ``documents`` table.

These are the pure Ray-Data (no index files) expressions of the engine's
transforms, used by the driver correctness gate (``__ray_entry__``): each has
an exact DuckDB-SQL twin over the same parquet. ``doc_id`` serves as the docid
(the table is dense + sorted, so row rank == doc_id — the same positional
contract as the transcript corpus).

All driver-facing outputs use int64/float64/string columns so Ray and DuckDB
schemas agree.
"""

from __future__ import annotations

import os

import numpy as np
import polars as pl
import pyarrow as pa

from web_search_engine_ray.functions.tokenize import batch_postings, token_lists
from web_search_engine_ray.sources.documents import read_docs as _read_docs
from web_search_engine_ray.sources.documents import read_docs_refs
from web_search_engine_ray.stages.exchange import aggregate, map_refs, read_refs, to_dataset


def _docs_path(sf_dir: str) -> str:
    return os.path.join(sf_dir, "documents.parquet")


def _to_postings(batch: pa.Table) -> pa.Table:
    docids = batch["doc_id"].combine_chunks().to_numpy(zero_copy_only=False).astype(np.uint64)
    postings, _dl = batch_postings(docids, batch["text"])
    return pa.table(
        {
            "term": postings["term"],
            "docid": postings["docid"].cast(pa.int64()),
            "tf": postings["tf"].cast(pa.int64()),
        }
    )


def postings_ds(sf_dir: str):
    """(term, docid, tf) — the exploded inverted-index relation."""
    return _read_docs(sf_dir).map_batches(_to_postings, batch_format="pyarrow")


def doc_lengths_ds(sf_dir: str):
    """(docid, dl) token counts, including dl=0 docs."""

    def f(batch: pa.Table) -> pa.Table:
        toks = token_lists(batch["text"])
        dl = toks.list.len().fill_null(0).to_numpy().astype(np.int64)
        return pa.table(
            {
                "docid": batch["doc_id"].cast(pa.int64()),
                "dl": pa.array(dl, pa.int64()),
            }
        )

    return _read_docs(sf_dir).map_batches(f, batch_format="pyarrow")


def term_stats_ds(sf_dir: str):
    """(term, df, cf): document frequency + collection frequency per term."""
    return to_dataset("term_stats_ds", term_stats_refs(sf_dir))


def term_stats_refs(sf_dir: str) -> list:
    """Block refs of :func:`term_stats_ds`'s rows. Partial-aggregated per
    block (one row per term per block), then a small hash-partitioned
    groupby-sum — the pre-aggregation pattern that keeps the shuffle tiny
    at scale (merged sums are partition-invariant)."""

    def partial(batch: pa.Table) -> pa.Table:
        p = _to_postings(batch)
        g = (
            pl.from_arrow(p)
            .group_by("term")
            .agg(pl.len().alias("df_p"), pl.col("tf").sum().alias("cf_p"))
        )
        return g.to_arrow()

    def merge(t: pa.Table) -> pa.Table:
        g = (
            pl.from_arrow(t)
            .group_by("term")
            .agg(pl.col("df_p").sum().alias("df"), pl.col("cf_p").sum().alias("cf"))
        )
        return g.to_arrow().cast(
            pa.schema([("term", pa.string()), ("df", pa.int64()), ("cf", pa.int64())])
        )

    return aggregate(read_docs_refs(sf_dir), partial, "term", merge)


def dl_from_postings_ds(sf_dir: str):
    """(docid, dl_sum): reconstruct doc length as sum(tf) over the postings —
    the reference's doc_lengths verification tool
    (``HW2/engine/tools/build_doc_lengths_from_runs.py:31-50``,
    ``HW2/verify_length.py:39-54``). Docs with zero tokens are absent.

    NO shuffle: a document never spans batches, so the per-batch sum(tf)
    per docid is already the complete answer — the "groupby" is local."""

    def local(batch: pa.Table) -> pa.Table:
        p = _to_postings(batch)
        g = pl.from_arrow(p).group_by("docid").agg(pl.col("tf").sum().alias("dl_sum"))
        return g.to_arrow().cast(
            pa.schema([("docid", pa.int64()), ("dl_sum", pa.int64())])
        )

    return _read_docs(sf_dir).map_batches(local, batch_format="pyarrow")


def top_terms_ds(sf_dir: str, k: int = 20):
    """Top-k terms by collection frequency (ties broken by term): each
    term-stats partition cuts its own top k, the driver cuts their union."""
    import pyarrow.compute as pc
    import ray
    import ray.data

    def top(t: pa.Table) -> pa.Table:
        return t.take(pc.sort_indices(t, [("cf", "descending"), ("term", "ascending")])[:k])

    parts = ray.get(map_refs(top, term_stats_refs(sf_dir)))
    return ray.data.from_arrow(top(pa.concat_tables(parts)))


def subset_first_n_ds(sf_dir: str, n: int = 100):
    """First-n corpus slice (the reference's subset extractor,
    ``HW2/extract_subset.py:15-32``) — expressed as a pushed-down row filter
    (docid is the dense row rank, so ``doc_id < n`` == first n rows)."""
    import pyarrow.compute as pc
    import ray.data

    ds = ray.data.read_parquet(
        _docs_path(sf_dir),
        columns=["doc_id", "text"],
        filter=(pc.field("doc_id") < n),
    )

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table({"docid": batch["doc_id"].cast(pa.int64()), "text": batch["text"]})

    return ds.map_batches(rename, batch_format="pyarrow")


def corpus_stats_table(sf_dir: str) -> pa.Table:
    """One row: n_docs, n_terms, n_postings, total_tokens, avgdl (round 6)."""

    def partial(batch: pa.Table) -> pa.Table:
        # ONE tokenize pass: batch_postings returns both the postings and
        # the per-doc token counts
        docids = (
            batch["doc_id"].combine_chunks().to_numpy(zero_copy_only=False).astype(np.uint64)
        )
        postings, dl = batch_postings(docids, batch["text"])
        return pa.table(
            {
                "n_docs": pa.array([batch.num_rows], pa.int64()),
                "n_postings": pa.array([postings.num_rows], pa.int64()),
                "total_tokens": pa.array([int(dl.sum())], pa.int64()),
            }
        )

    parts = (
        _read_docs(sf_dir)
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()
        .sum()
    )
    n_terms = term_stats_ds(sf_dir).count()
    n_docs = int(parts["n_docs"])
    total = int(parts["total_tokens"])
    return pa.table(
        {
            "n_docs": pa.array([n_docs], pa.int64()),
            "n_terms": pa.array([int(n_terms)], pa.int64()),
            "n_postings": pa.array([int(parts["n_postings"])], pa.int64()),
            "total_tokens": pa.array([total], pa.int64()),
            "avgdl": pa.array([round(total / n_docs, 6)], pa.float64()),
        }
    )


def top_terms_per_source_ds(sf_dir: str, k: int = 5):
    """(source, term, cf, rank): top-k terms by collection frequency per
    document source — the grouped top-k every corpus-composition report needs
    ("what does each source actually talk about").

    Shape (grouped top-k without a global sort): per-batch partial
    ``(source, term) -> count`` aggregation, one hash exchange routed by
    ``source`` (all of a source's partials land in one partition), then the
    top-k cut happens INSIDE the partition — the driver only ever sees
    ``k x n_sources`` rows. Ties at the k boundary resolve to the
    lexicographically first term, matching the SQL twin's
    ``row_number() OVER (ORDER BY cf DESC, term)`` exactly."""
    def partial(batch: pa.Table) -> pa.Table:
        toks = token_lists(batch["text"])
        d = (
            pl.DataFrame(
                {"source": pl.from_arrow(batch["source"].combine_chunks()), "term": toks}
            )
            .explode("term")
            .drop_nulls("term")
            .group_by(["source", "term"])
            .len(name="cf_p")
        )
        return d.to_arrow()

    def merge(t: pa.Table) -> pa.Table:
        d = (
            pl.from_arrow(t)
            .group_by(["source", "term"])
            .agg(pl.col("cf_p").sum().alias("cf"))
            .sort(["source", "cf", "term"], descending=[False, True, False])
            .group_by("source", maintain_order=True)
            .head(k)
            .with_columns(
                pl.col("cf").cum_count().over("source").cast(pl.Int64).alias("rank")
            )
        )
        return d.select("source", "term", "cf", "rank").to_arrow().cast(
            pa.schema(
                [
                    ("source", pa.string()),
                    ("term", pa.string()),
                    ("cf", pa.int64()),
                    ("rank", pa.int64()),
                ]
            )
        )

    refs = aggregate(read_refs(_docs_path(sf_dir), ["source", "text"]), partial, "source", merge)
    return to_dataset("top_terms_per_source_ds", refs)


def tfidf_topk_ds(sf_dir: str, k: int = 5):
    """(docid, term, tfidf): top-k terms per document by tf-idf — keyword
    extraction, the classic per-doc relevance summary (tfidf = tf * ln(N/df),
    ties at the k boundary resolve to the lexicographically first term).

    Shape: the df relation is vocabulary-scale, so it is collected once and
    broadcast (``ray.put``) — the same small-side discipline as the searcher's
    lexicon; the per-batch pass is one polars join + group-head. Documents
    never span batches, so the per-doc top-k needs no shuffle."""
    import pyarrow.parquet as pq
    import ray

    stats = pa.concat_tables(ray.get(term_stats_refs(sf_dir)))
    n_docs = float(pq.ParquetFile(_docs_path(sf_dir)).metadata.num_rows)
    # ln(N/df) as ln(N) - ln(df) would diverge from DuckDB's ln(N/df) in the
    # last ulp — compute the quotient first, exactly as the SQL twin does
    idf = pl.from_arrow(stats).select(
        "term", (n_docs / pl.col("df").cast(pl.Float64)).log().alias("idf")
    )
    ref = ray.put(idf.to_arrow())

    def f(batch: pa.Table) -> pa.Table:
        p = _to_postings(batch)
        d = (
            pl.from_arrow(p)
            .join(pl.from_arrow(ray.get(ref)), on="term", how="inner")
            .with_columns((pl.col("tf").cast(pl.Float64) * pl.col("idf")).alias("s"))
            .sort(["docid", "s", "term"], descending=[False, True, False])
            .group_by("docid", maintain_order=True)
            .head(k)
            .with_columns(pl.col("s").round(6).alias("tfidf"))
        )
        return d.select("docid", "term", "tfidf").to_arrow().cast(
            pa.schema(
                [("docid", pa.int64()), ("term", pa.string()), ("tfidf", pa.float64())]
            )
        )

    return _read_docs(sf_dir).map_batches(f, batch_format="pyarrow")
