"""Corpus reporting: per-source composition rollup over ``documents`` —
the dashboard relation a corpus curator reads before choosing mixture
weights (how much of each source, how much of it passes the quality gate,
how long its docs run).

Pure partial-aggregation shape: each batch emits ONE row per source it saw
(count / token-sum / quality-pass-sum partials), then a tiny hash exchange
on source merges them — bytes through the shuffle are O(sources x batches),
never O(docs). The quality rule is imported from
:func:`analysis.quality_ds`'s constants so the two operators cannot drift.
"""

from __future__ import annotations

import numpy as np
import polars as pl
import pyarrow as pa

from web_search_engine_ray.functions.tokenize import token_lists
from web_search_engine_ray.pipelines.analysis import STOPWORDS, _stop_hits


def source_report_ds(
    sf_dir: str, min_tokens: int = 5, max_stop_ratio: float = 0.6
):
    """(source, n_docs, total_tokens, n_quality_ok, mean_tokens): per-source
    composition; mean_tokens rounded to 6 decimals."""
    import os

    from web_search_engine_ray.stages.exchange import aggregate, read_refs, to_dataset

    def partial(batch: pa.Table) -> pa.Table:
        toks = token_lists(batch["text"])
        n = toks.list.len().fill_null(0).to_numpy().astype(np.int64)
        stops = _stop_hits(toks, STOPWORDS)
        sr = np.where(n > 0, stops / np.maximum(n, 1), 1.0)
        ok = ((n >= min_tokens) & (sr <= max_stop_ratio)).astype(np.int64)
        df = pl.DataFrame(
            {
                "source": pl.from_arrow(batch["source"]),
                "n": n,
                "ok": ok,
            }
        )
        return (
            df.group_by("source")
            .agg(
                pl.len().cast(pl.Int64).alias("n_docs"),
                pl.col("n").sum().alias("total_tokens"),
                pl.col("ok").sum().alias("n_quality_ok"),
            )
            .to_arrow()
        )

    out_schema = pa.schema(
        [
            ("source", pa.string()),
            ("n_docs", pa.int64()),
            ("total_tokens", pa.int64()),
            ("n_quality_ok", pa.int64()),
            ("mean_tokens", pa.float64()),
        ]
    )

    def merge(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t)
        if df.height == 0:
            return out_schema.empty_table()
        out = (
            df.group_by("source")
            .agg(
                pl.col("n_docs").sum(),
                pl.col("total_tokens").sum(),
                pl.col("n_quality_ok").sum(),
            )
            .with_columns(
                (
                    pl.col("total_tokens").cast(pl.Float64)
                    / pl.col("n_docs").cast(pl.Float64)
                )
                .round(6)
                .alias("mean_tokens")
            )
        )
        return out.to_arrow().cast(out_schema)  # polars emits large_string

    docs = read_refs(os.path.join(sf_dir, "documents.parquet"), ["doc_id", "text", "source"])
    return to_dataset("source_report_ds", aggregate(docs, partial, "source", merge))
