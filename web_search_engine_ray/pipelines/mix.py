"""Corpus mixing: deterministic per-source budget sampling over the
``documents`` table — the data-mixture step of an LLM pipeline (cap each
source's contribution; DoReMi-style reweighting is this with per-source
budgets).

Selection must be (a) deterministic, (b) stable under re-sharding, and
(c) budget-accurate per source. The rule: within each source, order docs by
a content-independent hash priority (md5 low-64 of the docid string — the
same ``md5_number_lower`` contract the split/simhash ops use), and keep the
prefix whose cumulative ``n_chars`` stays within the source's budget.

Shape: the read is COLUMN-PRUNED to (doc_id, source, n_chars) — document
text never leaves storage. One hash exchange co-locates each source; the
partition fn does a vectorized per-source sort + cumulative sum. At 100 TB
a hot source's (doc_id, n_chars) pairs still fit a partition (16 bytes per
doc); if they ever don't, the same rule distributes further by sampling a
priority threshold per source first (two cheap passes) — documented here so
the cut-over is explicit.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import polars as pl
import pyarrow as pa


def source_mix_ds(sf_dir: str, budget_chars: int = 5000):
    """(docid, source, cum_chars): the per-source priority-prefix whose
    cumulative n_chars <= budget_chars. ``cum_chars`` is the running total
    INCLUDING the row itself (ties in priority break by docid)."""
    from web_search_engine_ray.stages.exchange import aggregate, read_refs, to_dataset

    if budget_chars < 0:
        raise ValueError(f"budget_chars must be >= 0, got {budget_chars}")

    def prio_batch(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        prio = np.fromiter(
            (
                int.from_bytes(
                    hashlib.md5(str(i).encode()).digest()[8:16], "little"
                )
                for i in ids
            ),
            dtype=np.uint64,
            count=len(ids),
        )
        return pa.table(
            {
                "docid": pa.array(ids, pa.int64()),
                "source": batch["source"],
                "n_chars": batch["n_chars"].cast(pa.int64()),
                "prio": pa.array(prio, pa.uint64()),
            }
        )

    out_schema = pa.schema(
        [("docid", pa.int64()), ("source", pa.string()), ("cum_chars", pa.int64())]
    )

    def take_prefix(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t)
        if df.height == 0:
            return out_schema.empty_table()
        out = (
            df.sort(["source", "prio", "docid"])
            .with_columns(
                pl.col("n_chars").cum_sum().over("source").alias("cum_chars")
            )
            .filter(pl.col("cum_chars") <= budget_chars)
            .select("docid", "source", "cum_chars")
        )
        return out.to_arrow().cast(out_schema)  # polars emits large_string

    docs = read_refs(os.path.join(sf_dir, "documents.parquet"), ["doc_id", "source", "n_chars"])
    return to_dataset("source_mix_ds", aggregate(docs, prio_batch, "source", take_prefix))
