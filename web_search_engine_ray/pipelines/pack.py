"""Sequence packing: assign every document a global token offset and a
fixed-size training-chunk id — the batch-construction step of an LLM
pipeline (docs are concatenated in docid order and sliced into
``chunk_tokens``-sized sequences; a doc that straddles a boundary belongs
to the chunk its FIRST token lands in).

The interesting part is the distributed exclusive prefix sum over token
counts — the one primitive here that is genuinely order-dependent. The
classic two-level scan, expressed in engine idiom:

1. tokenize once: ``map_batches`` -> (docid, n_tok, range_id) where
   ``range_id = docid // range_rows`` (docids are dense, so ranges are
   contiguous docid slices). This 16-byte-per-doc relation is materialized
   — it is the op's working set, NOT the corpus (at 10^10 docs it is
   ~160 GB spread across the cluster's object store, while the text it
   summarizes is the 100 TB input).
2. range totals: a per-batch groupby-sum partial -> tiny (range_id, sum)
   relation collected to the driver (one row per range — ``n_docs /
   range_rows`` rows), exclusive-prefix-summed there, broadcast back.
3. one exchange on range_id: each partition sorts its ranges by docid,
   computes the within-range exclusive cumsum, adds the broadcast range
   offset, and emits chunk assignments.

Oracle: a single SQL window function — the engine's three stages replay
``sum(n_tok) OVER (ORDER BY doc_id ROWS UNBOUNDED PRECEDING AND 1
PRECEDING)`` exactly, in integers (no float drift possible).
"""

from __future__ import annotations

import numpy as np
import polars as pl
import pyarrow as pa

from web_search_engine_ray.functions.tokenize import token_lists
from web_search_engine_ray.sources.documents import read_docs as _read_docs
from web_search_engine_ray.sources.documents import read_docs_refs

CHUNK_TOKENS = 2048


def pack_chunks_ds(
    sf_dir: str, chunk_tokens: int = CHUNK_TOKENS, range_rows: int = 64
):
    """(docid, n_tokens, start_tok, chunk_id, chunk_off): global exclusive
    token offsets in docid order, chunked every ``chunk_tokens``."""
    import ray

    from web_search_engine_ray.stages.exchange import chain_parts, exchange_map, map_refs, to_dataset

    if chunk_tokens < 1 or range_rows < 1:
        raise ValueError(
            f"need chunk_tokens >= 1 and range_rows >= 1, "
            f"got {chunk_tokens}, {range_rows}"
        )

    def tok_counts(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = (
            token_lists(batch["text"])
            .list.len()
            .fill_null(0)
            .to_numpy()
            .astype(np.int64)
        )
        return pa.table(
            {
                "docid": pa.array(ids, pa.int64()),
                "n_tok": pa.array(n, pa.int64()),
                "range_id": pa.array(ids // range_rows, pa.int64()),
            }
        )

    # tokenize ONCE; the result is the op's tiny working set (16 B/doc)
    docs = read_docs_refs(sf_dir)
    np_ = chain_parts(docs)
    counts = map_refs(tok_counts, docs)

    def range_partial(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch.select(["range_id", "n_tok"]))
        return df.group_by("range_id").agg(pl.col("n_tok").sum()).to_arrow()

    # one row per (range, block) — tiny
    partials = pa.concat_tables(ray.get(map_refs(range_partial, counts))).to_pandas()
    totals = partials.groupby("range_id")["n_tok"].sum().sort_index()
    offsets = totals.cumsum().shift(fill_value=0)  # exclusive prefix
    off_by_range = dict(zip(offsets.index.astype(int), offsets.astype(int)))
    oref = ray.put(off_by_range)

    def assign(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "docid": pa.array([], pa.int64()),
                    "n_tokens": pa.array([], pa.int64()),
                    "start_tok": pa.array([], pa.int64()),
                    "chunk_id": pa.array([], pa.int64()),
                    "chunk_off": pa.array([], pa.int64()),
                }
            )
        offs = ray.get(oref)
        df = pl.from_arrow(t).sort(["range_id", "docid"])
        rid = df["range_id"].to_numpy()
        ntok = df["n_tok"].to_numpy()
        ids = df["docid"].to_numpy()
        cum = np.cumsum(ntok) - ntok  # exclusive, within the sorted slice
        # reset at each range start, then add the broadcast range offset
        starts = np.flatnonzero(np.r_[True, rid[1:] != rid[:-1]])
        base = np.repeat(cum[starts], np.diff(np.r_[starts, len(rid)]))
        local = cum - base
        goff = local + np.array([offs[r] for r in rid[starts]], np.int64).repeat(
            np.diff(np.r_[starts, len(rid)])
        )
        return pa.table(
            {
                "docid": pa.array(ids, pa.int64()),
                "n_tokens": pa.array(ntok, pa.int64()),
                "start_tok": pa.array(goff, pa.int64()),
                "chunk_id": pa.array(goff // chunk_tokens, pa.int64()),
                "chunk_off": pa.array(goff % chunk_tokens, pa.int64()),
            }
        )

    out = exchange_map(counts, lambda t: t["range_id"].to_numpy() % np_, np_, assign)
    return to_dataset("pack_chunks_ds", out)


def chunk_docs_ds(sf_dir: str, window: int = 64, stride: int = 32):
    """(docid, chunk_idx, start, n_tokens, text): overlapping sliding-window
    chunks of each document's token stream — the RAG / context-window
    chunking step (window tokens per chunk, stride tokens apart, last chunk
    ragged; token-less docs emit nothing). Chunk text is the space-joined
    token slice, so both engines share one canonical rendering.

    Shape: documents never span batches, so chunking is a pure per-batch
    polars expression chain (int_ranges -> explode -> list.slice -> join) —
    no shuffle, output streams. At 100 TB the only knob is batch size: each
    row fans out ~n_tokens/stride chunks, so output blocks are ~window/stride
    times the input text volume."""

    schema = pa.schema(
        [
            ("docid", pa.int64()),
            ("chunk_idx", pa.int64()),
            ("start", pa.int64()),
            ("n_tokens", pa.int64()),
            ("text", pa.string()),
        ]
    )

    def f(batch: pa.Table) -> pa.Table:
        toks = token_lists(batch["text"])
        ids = batch["doc_id"].combine_chunks().to_numpy(zero_copy_only=False)
        d = (
            pl.DataFrame({"docid": ids, "ws": toks})
            # an all-empty block tokenizes to list[null]; pin the inner dtype
            .with_columns(pl.col("ws").cast(pl.List(pl.Utf8)))
            .with_columns(pl.int_ranges(0, pl.col("ws").list.len(), stride).alias("start"))
            .explode("start")
            .drop_nulls("start")  # token-less docs explode to a null start
        )
        if d.height == 0:
            # polars degrades slice-of-list dtype to list[null] on 0-row
            # frames and list.join then refuses — short-circuit with the
            # declared schema instead
            return schema.empty_table()
        d = d.with_columns(
            (pl.col("start") // stride).alias("chunk_idx"),
            pl.col("ws").list.slice(pl.col("start"), window).alias("chunk"),
        ).with_columns(
            pl.col("chunk").list.len().alias("n_tokens"),
            pl.col("chunk").list.join(" ").alias("text"),
        )
        return d.select("docid", "chunk_idx", "start", "n_tokens", "text").to_arrow().cast(
            schema
        )

    return _read_docs(sf_dir).map_batches(f, batch_format="pyarrow")
