"""DSIR-style importance weighting for targeted data selection.

Data Selection with Importance Resampling (Xie et al. 2023): score every
raw document by how much more likely its hashed n-gram features are under a
small *target* distribution than under the raw pool, then resample the raw
pool by that weight. The standard way to steer a 100 TB crawl toward a
high-quality target domain with two streaming passes.

Feature space: unigrams + bigrams hashed into ``DSIR_BUCKETS`` buckets via
md5-low-64 (== DuckDB ``md5_number_lower``, so the SQL twin computes the
IDENTICAL bucket ids — the hash can never diverge between the two sides).

Here the "target" is the deterministic slice ``doc_id < target_max_docid``
(standing in for the curated target corpus a production run would pass);
every other doc is the raw pool being scored.

Importance weight per bucket f (add-1 smoothing over B buckets):

    lambda[f] = ln((ct_f + 1) / (Ct + B)) - ln((cr_f + 1) / (Cr + B))

Per-doc score = mean of lambda over the doc's feature OCCURRENCES (length-
normalized log-likelihood ratio), rounded to 6 decimals (the engine/SQL
float-association contract shared with ``lm_score``).

Scale shape (mirrors ``analysis.lm_score_ds``): pass 1 = per-batch
vectorized bucket-count partials -> hash exchange on bucket -> B-row model
on the driver (B = 4096, corpus-independent); lambda broadcast once via
``ray.put`` (32 KB); pass 2 streams the raw pool, one ``np.add.at`` gather
per batch. No corpus-scale state ever lands on the driver.
"""

from __future__ import annotations

import hashlib

import numpy as np
import polars as pl
import pyarrow as pa

from web_search_engine_ray.functions.tokenize import token_lists
from web_search_engine_ray.sources.documents import read_docs as _read_docs
from web_search_engine_ray.sources.documents import read_docs_refs
from web_search_engine_ray.stages.exchange import aggregate

DSIR_BUCKETS = 4096
TARGET_MAX_DOCID = 100  # target slice: doc_id < this (driver-gate default)


def _feature_buckets(tokens: list[str], n_buckets: int) -> np.ndarray:
    """Bucket ids (with repeats) for one doc: md5-low-64 of each unigram
    and of each space-joined bigram, mod n_buckets. The md5-per-feature
    loop matches the engine's oracle-hash convention (dup_spans,
    rolling_fingerprint); cost is output-proportional."""
    from web_search_engine_ray.pipelines.dedup import _token_hashes

    uni = _token_hashes(tokens)
    feats = [uni % np.uint64(n_buckets)]
    if len(tokens) >= 2:
        bi = np.fromiter(
            (
                int.from_bytes(
                    hashlib.md5(
                        (tokens[i] + " " + tokens[i + 1]).encode()
                    ).digest()[8:16],
                    "little",
                )
                for i in range(len(tokens) - 1)
            ),
            dtype=np.uint64,
            count=len(tokens) - 1,
        )
        feats.append(bi % np.uint64(n_buckets))
    return np.concatenate(feats)


def dsir_weights_ds(
    sf_dir: str,
    target_max_docid: int = TARGET_MAX_DOCID,
    n_buckets: int = DSIR_BUCKETS,
):
    """(docid, n_features, dsir_score) over the raw pool
    (``doc_id >= target_max_docid``); docs with zero features (no tokens)
    are absent. Higher score = more target-like."""
    import ray

    def partial(batch: pa.Table) -> pa.Table:
        toks = token_lists(batch["text"]).to_list()
        ids = batch["doc_id"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        ct = np.zeros(n_buckets, np.int64)  # target
        cr = np.zeros(n_buckets, np.int64)  # raw
        for did, tl in zip(ids, toks):
            f = _feature_buckets(tl or [], n_buckets)
            if f.size:
                np.add.at(ct if did < target_max_docid else cr, f.astype(np.int64), 1)
        nz_t = np.flatnonzero(ct)
        nz_r = np.flatnonzero(cr)
        return pa.table(
            {
                "grp": pa.array(
                    np.concatenate(
                        [np.zeros(nz_t.size, np.int64), np.ones(nz_r.size, np.int64)]
                    )
                ),
                "f": pa.array(np.concatenate([nz_t, nz_r])),
                "c": pa.array(np.concatenate([ct[nz_t], cr[nz_r]])),
            }
        )

    def merge(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t).group_by(["grp", "f"]).agg(pl.col("c").sum()).to_arrow()
        )

    merged = aggregate(read_docs_refs(sf_dir), partial, "f", merge)
    model = pl.from_arrow(pa.concat_tables([p for p in ray.get(merged) if p.num_rows]))
    ct = np.zeros(n_buckets, np.int64)
    cr = np.zeros(n_buckets, np.int64)
    tgt = model.filter(pl.col("grp") == 0)
    raw = model.filter(pl.col("grp") == 1)
    ct[tgt["f"].to_numpy()] = tgt["c"].to_numpy()
    cr[raw["f"].to_numpy()] = raw["c"].to_numpy()
    Ct, Cr = int(ct.sum()), int(cr.sum())
    lam = np.log((ct + 1.0) / (Ct + n_buckets)) - np.log((cr + 1.0) / (Cr + n_buckets))
    lam_ref = ray.put(lam)

    def score(batch: pa.Table) -> pa.Table:
        lam_v = ray.get(lam_ref)
        toks = token_lists(batch["text"]).to_list()
        ids = batch["doc_id"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        d_l, n_l, s_l = [], [], []
        for did, tl in zip(ids, toks):
            if did < target_max_docid:
                continue
            f = _feature_buckets(tl or [], n_buckets)
            if f.size == 0:
                continue
            d_l.append(did)
            n_l.append(f.size)
            s_l.append(round(float(lam_v[f.astype(np.int64)].sum() / f.size), 6))
        return pa.table(
            {
                "docid": pa.array(d_l, pa.int64()),
                "n_features": pa.array(n_l, pa.int64()),
                "dsir_score": pa.array(s_l, pa.float64()),
            }
        )

    return _read_docs(sf_dir).map_batches(score, batch_format="pyarrow")
