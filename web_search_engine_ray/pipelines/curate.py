"""Corpus curation: the composed training-data pipeline (filter -> dedup).

The canonical pre-training data flow this engine exists to serve: per-doc
quality signals and content hashes are computed in ONE vectorized pass, and
one small ``groupby(text_hash)`` aggregation picks each duplicate group's
min-docid survivor and carries its quality flag / token count along — packed
into int64 so the survivor selection is a plain ``Min`` aggregate instead of
per-group Python. The quality gate keeps or drops the survivor. Output feeds
straight into ``build_index`` (curated corpus -> inverted index).

Scale shape: the shuffle moves one small row per doc (hash + two packed
ints), never text; survivor selection is a hash groupby with O(1) combiner
state per group; stats reduce to a handful of partial-sum rows. Nothing
materializes on the driver beyond the final one-row stats table.

Packing bounds (asserted, not silent): ``p_ok = docid*2 + ok`` needs
docid < 2^62; ``p_tok = docid*2^22 + min(n_tokens, 2^22-1)`` needs
docid < 2^41 — both far beyond any single-table docid space here (a 100 TB
multi-table layout would add per-table docid offsets before this stage).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from web_search_engine_ray.functions.tokenize import token_lists
from web_search_engine_ray.sources.documents import read_docs_refs
from web_search_engine_ray.stages.exchange import (
    aggregate,
    exchange_map,
    hash_route,
    map_refs,
    route_probe,
    to_dataset,
)
from web_search_engine_ray.pipelines.analysis import STOPWORDS, _stop_hits

_TOK_BITS = 22
_TOK_MAX = (1 << _TOK_BITS) - 1


def _doc_signals(
    batch: pa.Table,
    min_tokens: int,
    max_stop_ratio: float,
    hash_fn: str = "md5",
) -> pa.Table:
    """Vectorized per-doc signals: (text_hash, p_ok, p_tok, ok_int).

    ``p_ok``/``p_tok`` pack (docid, flag/count) so a Min aggregate selects
    the min-docid survivor AND its payload in one shuffle. ``hash_fn``
    picks md5 (oracle twin) or polars' vectorized 64-bit hash
    (:func:`web_search_engine_ray.pipelines.dedup.text_hash_column`)."""
    toks = token_lists(batch["text"])
    n = toks.list.len().fill_null(0).to_numpy().astype(np.int64)
    stops = _stop_hits(toks, STOPWORDS)
    sr = np.where(n > 0, stops / np.maximum(n, 1), 1.0)
    ok = ((n >= min_tokens) & (sr <= max_stop_ratio)).astype(np.int64)
    docid = (
        batch["doc_id"].combine_chunks().to_numpy(zero_copy_only=False).astype(np.int64)
    )
    if docid.size and int(docid.max()) >= (1 << 41):
        raise ValueError("docid exceeds curation packing bound (2^41)")
    from web_search_engine_ray.pipelines.dedup import text_hash_column

    return pa.table(
        {
            "text_hash": text_hash_column(batch["text"], hash_fn),
            "p_ok": pa.array(docid * 2 + ok, pa.int64()),
            "p_tok": pa.array(
                docid * (_TOK_MAX + 1) + np.minimum(n, _TOK_MAX), pa.int64()
            ),
            "ok_int": pa.array(ok, pa.int64()),
        }
    )


def _signals(min_tokens: int, max_stop_ratio: float, hash_fn: str = "md5"):
    """The per-block :func:`_doc_signals` function (``hash_fn`` checked
    here, on the driver)."""
    from web_search_engine_ray.pipelines.dedup import text_hash_column

    text_hash_column(pa.array([], pa.string()), hash_fn)  # validate eagerly

    def signals(batch: pa.Table) -> pa.Table:
        return _doc_signals(batch, min_tokens, max_stop_ratio, hash_fn)

    return signals


def curated_docs_ds(
    sf_dir: str,
    min_tokens: int = 5,
    max_stop_ratio: float = 0.6,
    hash_fn: str = "md5",
):
    """(docid): survivors — each exact-dup group's min-docid doc, kept only
    if it passes the quality gate. One partition hash exchange on the
    content hash with a local polars min per partition; everything
    vectorized."""
    import polars as pl

    def merge(t: pa.Table) -> pa.Table:
        d = pl.from_arrow(t).group_by("text_hash").agg(pl.col("p_ok").min())
        p = d["p_ok"].to_numpy().astype(np.int64)
        keep = (p & 1) == 1
        return pa.table({"docid": pa.array(p[keep] >> 1, pa.int64())})

    signals = _signals(min_tokens, max_stop_ratio, hash_fn)
    return to_dataset("curated_docs_ds", aggregate(read_docs_refs(sf_dir), signals, "text_hash", merge))


def curation_stats_table(sf_dir: str, min_tokens: int = 5, max_stop_ratio: float = 0.6) -> pa.Table:
    """One row: n_input, n_quality, n_unique, n_survivors, survivor_tokens.

    All five counters come from ONE partition hash exchange on the content
    hash: each partition groups locally (polars), carries the survivor's
    quality flag and token count through the int64 packing, and emits one
    partial-sum row — the driver only adds up 32 partial rows."""
    import polars as pl
    import ray

    def partial(t: pa.Table) -> pa.Table:
        d = (
            pl.from_arrow(t)
            .group_by("text_hash")
            .agg(
                pl.len().alias("cnt"),
                pl.col("ok_int").sum().alias("oks"),
                pl.col("p_ok").min().alias("p_ok"),
                pl.col("p_tok").min().alias("p_tok"),
            )
        )
        cnt = d["cnt"].to_numpy().astype(np.int64)
        oks = d["oks"].to_numpy().astype(np.int64)
        p_ok = d["p_ok"].to_numpy().astype(np.int64)
        p_tok = d["p_tok"].to_numpy().astype(np.int64)
        surv_ok = (p_ok & 1) == 1
        return pa.table(
            {
                "n_input": pa.array([int(cnt.sum())], pa.int64()),
                "n_quality": pa.array([int(oks.sum())], pa.int64()),
                "n_unique": pa.array([len(cnt)], pa.int64()),
                "n_survivors": pa.array([int(surv_ok.sum())], pa.int64()),
                "survivor_tokens": pa.array(
                    [int((p_tok[surv_ok] & _TOK_MAX).sum())], pa.int64()
                ),
            }
        )

    refs = aggregate(read_docs_refs(sf_dir), _signals(min_tokens, max_stop_ratio), "text_hash", partial)
    parts = pa.concat_tables(ray.get(refs)).to_pandas()
    return pa.table(
        {
            "n_input": pa.array([int(parts["n_input"].sum())], pa.int64()),
            "n_quality": pa.array([int(parts["n_quality"].sum())], pa.int64()),
            "n_unique": pa.array([int(parts["n_unique"].sum())], pa.int64()),
            "n_survivors": pa.array([int(parts["n_survivors"].sum())], pa.int64()),
            "survivor_tokens": pa.array(
                [int(parts["survivor_tokens"].sum())], pa.int64()
            ),
        }
    )


def write_curated_corpus(
    sf_dir: str,
    out_dir: str,
    min_tokens: int = 5,
    max_stop_ratio: float = 0.6,
    n_parts: int = 32,
    hash_fn: str = "md5",
) -> dict:
    """Materialize the curated corpus (docid, text of every survivor) as
    partitioned Parquet — the composed filter->dedup pipeline's SINK.

    One partition hash exchange on the content hash carries (docid, text,
    flags); each partition selects its survivors locally (min-docid per dup
    group, quality gate) and writes ONE deterministic parquet file,
    atomically (tmp + rename). Re-running skips partitions whose file
    already exists — a failed run resumes from where it stopped; never one
    giant file. Returns {n_files, n_rows, out_dir}.
    """
    import json

    import pyarrow.parquet as pq
    import ray

    os.makedirs(out_dir, exist_ok=True)

    # resume is only valid against the SAME parameters and corpus: fingerprint
    # them so a re-run with a different gate (or a changed input) fails loudly
    # instead of silently returning stale partitions as success
    src = os.path.join(sf_dir, "documents.parquet")
    st = os.stat(src)
    # partition routing uses polars' hash(), which polars does NOT pin
    # across releases: a resume under a different routing would mix two
    # layouts (dup/drop docs, split dup-groups across files). Probe the
    # actual routing on sentinel keys and refuse to resume if it moved.
    routing_probe = route_probe(n_parts)
    fp = {
        "src": src,
        "src_size": st.st_size,
        "src_mtime_ns": st.st_mtime_ns,
        "min_tokens": min_tokens,
        "max_stop_ratio": max_stop_ratio,
        "n_parts": n_parts,
        "hash_fn": hash_fn,
        "routing_probe": routing_probe,
    }
    fp_path = os.path.join(out_dir, "_curation_params.json")
    if os.path.exists(fp_path):
        with open(fp_path) as f:
            prev = json.load(f)
        if prev != fp:
            raise ValueError(
                f"{out_dir} holds a curation run with different parameters or "
                f"input ({prev} != {fp}); use a fresh out_dir or delete it"
            )
    else:
        tmp = fp_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(fp, f)
        os.replace(tmp, fp_path)

    def signals_with_text(batch: pa.Table) -> pa.Table:
        sig = _doc_signals(batch, min_tokens, max_stop_ratio, hash_fn)
        return sig.append_column("text", batch["text"])

    def write_part(t: pa.Table, pi: int) -> pa.Table:
        import polars as pl

        path = os.path.join(out_dir, f"curated_{pi:05d}.parquet")
        if os.path.exists(path):  # resume: partition already written
            n = pq.read_metadata(path).num_rows
            return pa.table(
                {"part": pa.array([pi], pa.int64()),
                 "n_rows": pa.array([int(n)], pa.int64()),
                 "resumed": pa.array([True], pa.bool_())}
            )
        d = pl.from_arrow(t)
        surv = (
            d.group_by("text_hash")
            .agg(pl.col("p_ok").min())
            .with_columns(
                docid=(pl.col("p_ok") // 2), ok=(pl.col("p_ok") % 2 == 1)
            )
            .filter(pl.col("ok"))
            .select(["docid"])
        )
        rows = (
            d.with_columns(docid=(pl.col("p_ok") // 2))
            .join(surv, on="docid", how="inner")
            .select(["docid", "text"])
            .sort("docid")
        )
        out = rows.to_arrow().cast(
            pa.schema([("docid", pa.int64()), ("text", pa.string())])
        )
        pq.write_table(out, path + ".tmp")
        os.replace(path + ".tmp", path)
        return pa.table(
            {"part": pa.array([pi], pa.int64()),
             "n_rows": pa.array([out.num_rows], pa.int64()),
             "resumed": pa.array([False], pa.bool_())}
        )

    rows = map_refs(signals_with_text, read_docs_refs(sf_dir))
    route = hash_route("text_hash", n_parts)
    parts = exchange_map(rows, route, n_parts, write_part, with_index=True)
    report = pa.concat_tables(ray.get(parts)).to_pandas()
    return {
        "out_dir": out_dir,
        "n_files": int(len(report)),
        "n_rows": int(report["n_rows"].sum()),
        "n_resumed": int(report["resumed"].sum()),
    }
