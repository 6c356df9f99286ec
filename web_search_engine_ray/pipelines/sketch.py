"""Sketch / sampling operators over the ``documents`` / ``events`` tables —
the mergeable approximate structures a 100 TB pipeline leans on when exact
answers would shuffle the world, plus deterministic (cross-engine
reproducible) sampling.

- :func:`hll_distinct_terms` — HyperLogLog distinct-term count. Each batch
  produces one 2^p-register sketch (numpy, one pass over the batch's
  distinct token hashes); sketches merge by elementwise max — a few KB per
  batch moves, never the terms. Standard bias-corrected estimate with
  linear-counting small-range correction. Error ~1.04/sqrt(2^p) (~1.6% at
  p=12), pinned against the exact count in ``tests/test_sketch.py``.
- :func:`sample_docs` — deterministic uniform sample WITHOUT replacement:
  priority = md5-low-64 of the docid string (== DuckDB
  ``md5_number_lower(doc_id::VARCHAR)``), keep the k smallest priorities.
  Distributed as per-batch top-k partials merged on the driver
  (output-scale); has an EXACT DuckDB twin (ORDER BY hash LIMIT k), so the
  sample is reproducible across engines — the property that makes sampled
  evals comparable run-to-run.

Both use the same md5-low-64 hashing as the dedup family (``dedup.py``),
keeping one hash convention across the engine.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa

from web_search_engine_ray.functions.tokenize import token_lists
from web_search_engine_ray.sources.documents import read_docs as _read_docs
from web_search_engine_ray.sources.documents import read_docs_refs
from web_search_engine_ray.pipelines.dedup import _token_hashes
from web_search_engine_ray.stages.exchange import aggregate, map_refs

HLL_P = 12  # 4096 registers, ~1.6% standard error


# exact leading-zero count per byte value (LUT — float log2 on u64 can
# round wrong near powers of two)
_LZ8 = np.array(
    [8] + [7 - int(v).bit_length() + 1 for v in range(1, 256)], dtype=np.int64
)


def _hll_registers(hashes: np.ndarray, p: int = HLL_P) -> np.ndarray:
    """u64 hashes -> 2^p uint8 registers (max leading-zero rank per bucket)."""
    regs = np.zeros(1 << p, dtype=np.uint8)
    if hashes.size == 0:
        return regs
    idx = (hashes >> np.uint64(64 - p)).astype(np.int64)
    rest = hashes << np.uint64(p)  # top 64-p bits now lead
    # rank = leading zeros of `rest` + 1 (capped at 64-p+1 when rest == 0)
    b = rest.byteswap().view(np.uint8).reshape(-1, 8)  # big-endian bytes
    nzb = b != 0
    first = np.argmax(nzb, axis=1)
    lz = first * 8 + _LZ8[b[np.arange(b.shape[0]), first]]
    lz = np.where(rest == 0, 64 - p, lz)  # all-zero rest: max rank
    rank = (lz + 1).astype(np.uint8)
    np.maximum.at(regs, idx, rank)
    return regs


def _hll_estimate(regs: np.ndarray, p: int = HLL_P) -> float:
    m = float(1 << p)
    alpha = 0.7213 / (1.0 + 1.079 / m)
    est = alpha * m * m / np.sum(np.exp2(-regs.astype(np.float64)))
    zeros = int(np.sum(regs == 0))
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)  # linear counting for the small range
    return float(est)


def hll_distinct_terms(sf_dir: str, p: int = HLL_P) -> pa.Table:
    """One row (estimate, p): approximate distinct-term count of the corpus."""

    def sketch(batch: pa.Table) -> pa.Table:
        toks = token_lists(batch["text"]).to_list()
        distinct: set[str] = set()
        for tl in toks:
            distinct.update(tl or [])
        hs = _token_hashes(list(distinct))
        regs = _hll_registers(hs, p)
        return pa.table({"regs": pa.array([regs.tobytes()], pa.binary())})

    parts = _read_docs(sf_dir).map_batches(sketch, batch_format="pyarrow").to_pandas()
    merged = np.zeros(1 << p, dtype=np.uint8)
    for buf in parts["regs"]:
        merged = np.maximum(merged, np.frombuffer(buf, dtype=np.uint8))
    return pa.table(
        {
            "estimate": pa.array([round(_hll_estimate(merged, p), 3)], pa.float64()),
            "p": pa.array([p], pa.int64()),
        }
    )


def _sample_priorities(ids: np.ndarray, hash_fn: str) -> np.ndarray:
    """Deterministic per-id sampling priority. "md5" (default) is the
    oracle-checked path (DuckDB ``md5_number_lower`` twin; per-row loop at
    C digest speed). "fast" is a pure-numpy splitmix64 over the id — no
    per-row Python at all; use for production sampling where no SQL twin
    is needed (different — but equally uniform — sample)."""
    if hash_fn == "md5":
        return np.array(
            [
                int.from_bytes(hashlib.md5(str(d).encode()).digest()[8:16], "little")
                for d in ids
            ],
            dtype=np.uint64,
        )
    if hash_fn == "fast":
        from web_search_engine_ray.pipelines.dedup import _splitmix

        return _splitmix(ids.astype(np.uint64) ^ np.uint64(0xA5A5A5A55A5A5A5A))
    raise ValueError(f"unknown hash_fn {hash_fn!r} (use 'md5' or 'fast')")


def sample_docs(sf_dir: str, k: int = 100, hash_fn: str = "md5") -> pa.Table:
    """(docid): deterministic k-sample — the k docids with the smallest
    hash priority (:func:`_sample_priorities`). Per-batch top-k partials;
    the driver merges k-row tables. Exact SQL twin for the md5 default:
    ORDER BY md5_number_lower(doc_id::VARCHAR), doc_id LIMIT k."""
    _sample_priorities(np.empty(0, np.int64), hash_fn)  # validate eagerly

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].combine_chunks().to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        prio = _sample_priorities(ids, hash_fn)
        kk = min(k, ids.size)
        if kk == 0:
            return pa.table(
                {"docid": pa.array([], pa.int64()), "prio": pa.array([], pa.uint64())}
            )
        # (prio, docid) lexsort, not argpartition on prio alone: a priority
        # collision exactly at the kth boundary must keep the SMALLER docid
        # (the SQL twin's ORDER BY hash, doc_id) — argpartition would keep
        # an arbitrary one and the driver merge could never recover it
        part = np.lexsort((ids, prio))[:kk]
        return pa.table(
            {
                "docid": pa.array(ids[part], pa.int64()),
                "prio": pa.array(prio[part], pa.uint64()),
            }
        )

    parts = _read_docs(sf_dir).map_batches(partial, batch_format="pyarrow").to_pandas()
    prio = parts["prio"].to_numpy().astype(np.uint64)
    ids = parts["docid"].to_numpy().astype(np.int64)
    order = np.lexsort((ids, prio))[:k]
    return pa.table({"docid": pa.array(np.sort(ids[order]), pa.int64())})


def sample_per_type(sf_dir: str, k: int = 20, hash_fn: str = "md5") -> pa.Table:
    """(event_type, event_id): stratified deterministic sample — the k
    smallest md5-low-64 priorities WITHIN each event_type of the events
    table. Per-batch per-type top-k partials (vectorized lexsort over the
    batch), driver merges #types x k rows. Exact SQL twin: row_number OVER
    (PARTITION BY type ORDER BY hash) <= k."""
    import ray.data

    _sample_priorities(np.empty(0, np.int64), hash_fn)  # validate eagerly

    def partial(batch: pa.Table) -> pa.Table:
        import polars as pl

        ids = batch["event_id"].combine_chunks().to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        types = pl.from_arrow(batch["event_type"])
        prio = _sample_priorities(ids, hash_fn)
        d = pl.DataFrame(
            {"event_type": types, "event_id": ids, "prio": prio}
        )
        top = (
            d.sort(["event_type", "prio", "event_id"])
            .group_by("event_type", maintain_order=True)
            .head(k)
        )
        return top.to_arrow().cast(
            pa.schema(
                [
                    ("event_type", pa.string()),
                    ("event_id", pa.int64()),
                    ("prio", pa.uint64()),
                ]
            )
        )

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["event_id", "event_type"]
    )
    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    out_rows = []
    # dropna=False: SQL's PARTITION BY keeps NULL keys as their own group
    for t, grp in parts.groupby("event_type", dropna=False):
        g = grp.sort_values(["prio", "event_id"]).head(k)
        out_rows.append(g[["event_type", "event_id"]])
    import pandas as pd

    merged = pd.concat(out_rows).sort_values(["event_type", "event_id"])
    return pa.table(
        {
            "event_type": pa.array(merged["event_type"], pa.string()),
            "event_id": pa.array(merged["event_id"].to_numpy(), pa.int64()),
        }
    )


CMS_W = 4096  # width per hash row
CMS_D = 4  # hash rows


def _cms_row_idx(hs: np.ndarray, r: int, w: int) -> np.ndarray:
    """Independent per-row bucket index. The seed must be MIXED through
    splitmix, not just XORed: with w = 2^12, ``(h ^ seed) % w`` permutes the
    low 12 bits identically in every row, so two terms colliding in one row
    collide in all of them and the depth buys nothing."""
    seed = np.uint64((0x9E3779B97F4A7C15 * (r + 1)) & 0xFFFFFFFFFFFFFFFF)
    from web_search_engine_ray.pipelines.dedup import _splitmix

    return (_splitmix(hs ^ seed) % np.uint64(w)).astype(np.int64)


def _cms_update(counts: dict[str, int], w: int = CMS_W, d: int = CMS_D) -> np.ndarray:
    """term->count dict -> (d, w) int64 CountMin matrix (vectorized rows)."""
    cms = np.zeros((d, w), dtype=np.int64)
    if not counts:
        return cms
    hs = _token_hashes(list(counts.keys()))
    vals = np.fromiter(counts.values(), dtype=np.int64, count=len(counts))
    for r in range(d):
        np.add.at(cms[r], _cms_row_idx(hs, r, w), vals)
    return cms


def _cms_query(cms: np.ndarray, terms: list[str]) -> np.ndarray:
    """Point estimates (>= true count, one-sided) for each term."""
    hs = _token_hashes(terms)
    d, w = cms.shape
    est = np.full(len(terms), np.iinfo(np.int64).max, dtype=np.int64)
    for r in range(d):
        est = np.minimum(est, cms[r][_cms_row_idx(hs, r, w)])
    return est


def heavy_hitter_terms(sf_dir: str, k: int = 20, m_per_batch: int = 64) -> pa.Table:
    """(term, cf_est): approximate top-k terms by collection frequency via a
    mergeable CountMin sketch + per-batch candidate tracking.

    Each batch emits its exact per-batch counts as (a) a CountMin matrix and
    (b) its local top ``m_per_batch`` terms as candidates. Matrices merge by
    elementwise SUM (CountMin is a linear sketch) and the global top-k is
    estimated over the candidate union — any global top-k term is a local
    top-m term in at least one batch for modest skew, and the CMS point
    query NEVER underestimates, so true heavy hitters can't be displaced by
    underestimation (one-sided bound pinned in ``tests/test_sketch.py``).
    Shuffle volume: one (d x w) matrix + m candidate strings per batch."""
    import polars as pl

    def sketch(batch: pa.Table) -> pa.Table:
        toks = token_lists(batch["text"])
        counts = (
            pl.DataFrame({"t": toks})
            .explode("t")
            .drop_nulls()
            .group_by("t")
            .len(name="c")
            .sort(["c", "t"], descending=[True, False])
        )
        cdict = dict(zip(counts["t"].to_list(), counts["c"].to_list()))
        cms = _cms_update(cdict)
        cand = counts["t"].to_list()[:m_per_batch]
        return pa.table(
            {
                "cms": pa.array([cms.tobytes()], pa.binary()),
                "cand": pa.array([cand], pa.list_(pa.string())),
            }
        )

    parts = _read_docs(sf_dir).map_batches(sketch, batch_format="pyarrow").to_pandas()
    merged = np.zeros((CMS_D, CMS_W), dtype=np.int64)
    cands: set[str] = set()
    for buf, cand in zip(parts["cms"], parts["cand"]):
        merged += np.frombuffer(buf, dtype=np.int64).reshape(CMS_D, CMS_W)
        cands.update(cand)
    terms = sorted(cands)
    est = _cms_query(merged, terms)
    order = np.lexsort((np.array(terms, dtype=object), -est))[:k]
    return pa.table(
        {
            "term": pa.array([terms[i] for i in order], pa.string()),
            "cf_est": pa.array(est[order], pa.int64()),
        }
    )


def dl_quantiles_ds(sf_dir: str, qs: tuple[float, ...] = (0.5, 0.9, 0.99)) -> pa.Table:
    """(q, dl): EXACT doc-length quantiles via a distributed value-count
    histogram — the length-distribution probe every curation config step
    starts from (where to put min/max length cutoffs).

    Rank rule (explicit, so the SQL twin is unambiguous): the value at
    1-based rank ``max(1, ceil(q * N))`` in the sorted length multiset —
    classic discrete (lower) quantile.

    Scale shape: doc length has a bounded domain, so per-batch
    ``(value, count)`` partials merged by one exchange give a relation of
    at most ``max_dl`` rows — the cumulative scan on the driver is
    histogram-scale, never corpus-scale (the same partial-count shape as
    ``term_stats``, with an integer domain instead of a vocabulary)."""
    import math

    import polars as pl
    import ray

    def partial(batch: pa.Table) -> pa.Table:
        toks = token_lists(batch["text"])
        dl = toks.list.len().fill_null(0).to_numpy().astype(np.int64)
        vals, counts = np.unique(dl, return_counts=True)
        return pa.table(
            {
                "dl": pa.array(vals, pa.int64()),
                "c": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    def merge(t: pa.Table) -> pa.Table:
        return pl.from_arrow(t).group_by("dl").agg(pl.col("c").sum()).to_arrow()

    merged = aggregate(read_docs_refs(sf_dir), partial, "dl", merge)
    hist = (
        pl.from_arrow(pa.concat_tables([p for p in ray.get(merged) if p.num_rows]))
        .sort("dl")
    )
    vals = hist["dl"].to_numpy()
    cum = hist["c"].to_numpy().cumsum()
    n = int(cum[-1]) if cum.size else 0
    q_l, v_l = [], []
    for q in qs:
        if n == 0:
            continue
        rank = max(1, math.ceil(q * n))
        v_l.append(int(vals[np.searchsorted(cum, rank)]))
        q_l.append(float(q))
    return pa.table({"q": pa.array(q_l, pa.float64()), "dl": pa.array(v_l, pa.int64())})


# ------------------------------------------ mergeable quantile summary (KLL-ish)


def _compress_weighted(v: np.ndarray, w: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Compress a weighted value multiset to <= k (value, weight) entries.

    Deterministic equi-depth compression (the compactor step of a KLL /
    Greenwald-Khanna-style summary, without the randomized coin): sort by
    value, then take the element at the cumulative-weight midpoint of each of
    ``k`` equal-weight strata as that stratum's representative. Total weight
    is preserved exactly (strata weights are the integer split of W), and one
    compression moves any rank estimate by at most ``W/k`` — so a two-level
    pipeline (per-batch compress -> concat -> final compress) has additive
    rank error <= max_batch_n/k + N/k."""
    if v.size == 0:
        return v.astype(np.float64), w.astype(np.int64)
    order = np.argsort(v, kind="stable")
    v, w = v[order], w[order]
    W = int(w.sum())
    if v.size <= k:
        return v.astype(np.float64), w.astype(np.int64)
    base, rem = divmod(W, k)
    # stratum weights: first `rem` get base+1 (integer split, sums to W)
    sw = np.full(k, base, dtype=np.int64)
    sw[:rem] += 1
    ends = sw.cumsum()
    mids = ends - (sw + 1) // 2  # 0-based midpoint rank of each stratum
    cum = w.cumsum()
    idx = np.searchsorted(cum, mids, side="right")
    return v[idx].astype(np.float64), sw


def value_quantile_sketch_ds(
    sf_dir: str,
    qs: tuple[float, ...] = (0.01, 0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99),
    k: int = 1024,
) -> pa.Table:
    """(q, value_est): approximate quantiles of the continuous ``events.value``
    column via a mergeable weighted summary — the quantile companion to the
    HLL / CountMin sketches for domains where the exact value-count histogram
    (``dl_quantiles_ds``) would itself be corpus-scale (doubles, not small
    ints).

    Scale shape: each batch compresses to <= k (value, weight) rows — KBs move
    regardless of batch size — and partials concat+compress once more on the
    driver (output-scale, like ``sample_docs``). Guaranteed additive rank
    error <= (max_batch_n + N)/(k*N) of normalized rank; pinned against exact
    numpy quantiles in ``tests/test_sketch.py``. Deterministic (no coins), so
    repeated runs over the same blocks agree bit-for-bit."""
    import ray

    from web_search_engine_ray.pipelines.events import _read_events

    def partial(batch: pa.Table) -> pa.Table:
        vals = batch["value"].combine_chunks().to_numpy(zero_copy_only=False)
        vals = vals[~np.isnan(vals)].astype(np.float64)
        cv, cw = _compress_weighted(vals, np.ones(vals.size, dtype=np.int64), k)
        return pa.table({"v": pa.array(cv, pa.float64()), "w": pa.array(cw, pa.int64())})

    parts = pa.concat_tables(ray.get(map_refs(partial, _read_events(sf_dir, ["value"])))).to_pandas()
    if parts.empty:
        return pa.table(
            {"q": pa.array([], pa.float64()), "value_est": pa.array([], pa.float64())}
        )
    v = parts["v"].to_numpy(dtype=np.float64)
    w = parts["w"].to_numpy(dtype=np.int64)
    cv, cw = _compress_weighted(v, w, k)
    n = int(cw.sum())
    if n == 0:
        return pa.table({"q": pa.array([], pa.float64()), "value_est": pa.array([], pa.float64())})
    cum = cw.cumsum()
    out_q, out_v = [], []
    for q in qs:
        rank = max(1, int(np.ceil(q * n)))
        out_q.append(float(q))
        out_v.append(float(cv[np.searchsorted(cum, rank)]))
    return pa.table(
        {"q": pa.array(out_q, pa.float64()), "value_est": pa.array(out_v, pa.float64())}
    )


def value_quantile_bound_table(
    sf_dir: str,
    qs: tuple[float, ...] = (0.01, 0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99),
    k: int = 1024,
    tol: float = 0.01,
) -> pa.Table:
    """(q, n, within_bound): the sketch's rank-error contract, made
    driver-checkable. ``value_est`` comes from the mergeable summary
    (:func:`value_quantile_sketch_ds`); its EXACT rank INTERVAL is then
    counted by a second distributed pass (a broadcast of len(qs)
    thresholds — each batch emits one count row), and ``within_bound``
    asserts ``count(< est)/n - tol <= q <= count(<= est)/n + tol``. The
    interval form matters with tied values: a returned value's <=-rank is
    the END of its tie run, so a point check ``|le/n - q| <= tol`` fails
    on a rank-CORRECT estimate whose tie run is wider than tol (caught by
    tools/adversarial_gate.py's planted tie blocks). The SQL twin
    contributes the exact ``n`` and expects every bound to hold — a sketch
    regression or a count divergence both hash-mismatch in the gate."""
    import ray

    from web_search_engine_ray.pipelines.events import _read_events

    est = value_quantile_sketch_ds(sf_dir, qs, k)
    thr = est["value_est"].to_numpy()
    qs_arr = est["q"].to_numpy()

    def counts(batch: pa.Table) -> pa.Table:
        vals = batch["value"].combine_chunks().to_numpy(zero_copy_only=False)
        vals = vals[~np.isnan(vals)].astype(np.float64)
        le = (vals[None, :] <= thr[:, None]).sum(axis=1).astype(np.int64)
        lt = (vals[None, :] < thr[:, None]).sum(axis=1).astype(np.int64)
        return pa.table(
            {
                "qi": pa.array(np.arange(thr.size), pa.int64()),
                "le": pa.array(le, pa.int64()),
                "lt": pa.array(lt, pa.int64()),
                "n": pa.array(np.full(thr.size, vals.size), pa.int64()),
            }
        )

    parts = pa.concat_tables(ray.get(map_refs(counts, _read_events(sf_dir, ["value"])))).to_pandas()
    if parts.empty:
        return pa.table(
            {
                "q": pa.array([], pa.float64()),
                "n": pa.array([], pa.int64()),
                "within_bound": pa.array([], pa.bool_()),
            }
        )
    g = parts.groupby("qi")[["le", "lt", "n"]].sum()
    n = int(g["n"].iloc[0])  # every qi row carries the same per-batch n sum
    # n == 0 (all-null value column): report the bound as failed rather
    # than dividing by zero — degenerate data should gate-mismatch, not error
    ok = [
        bool(
            n > 0
            and int(g["lt"].loc[i]) / n - tol <= float(qs_arr[i])
            and float(qs_arr[i]) <= int(g["le"].loc[i]) / n + tol
        )
        for i in range(thr.size)
    ]
    return pa.table(
        {
            "q": pa.array([float(x) for x in qs_arr], pa.float64()),
            "n": pa.array([n] * thr.size, pa.int64()),
            "within_bound": pa.array(ok, pa.bool_()),
        }
    )


def hll_bound_table(sf_dir: str, p: int = HLL_P, tol: float = 0.05) -> pa.Table:
    """(n_exact, within_bound): the HLL estimate's error contract, made
    driver-checkable. ``n_exact`` is the TRUE distinct-term count from a
    distributed exact pass (per-batch distinct partials, driver union at
    vocabulary scale — fine at gate scale; the sketch exists for when it
    is not); ``within_bound`` asserts |est - n| / n <= tol (~3 sigma at
    p=12). The SQL twin computes the same exact distinct count, so the
    exact paths must agree AND the sketch must be in-bound."""
    est = float(hll_distinct_terms(sf_dir, p)["estimate"][0].as_py())

    def distinct(batch: pa.Table) -> pa.Table:
        toks = token_lists(batch["text"]).to_list()
        d: set[str] = set()
        for tl in toks:
            d.update(tl or [])
        return pa.table({"term": pa.array(sorted(d), pa.string())})

    parts = _read_docs(sf_dir).map_batches(distinct, batch_format="pyarrow").to_pandas()
    n = int(parts["term"].nunique())
    ok = bool(n > 0 and abs(est - n) / n <= tol)
    return pa.table(
        {
            "n_exact": pa.array([n], pa.int64()),
            "within_bound": pa.array([ok], pa.bool_()),
        }
    )
