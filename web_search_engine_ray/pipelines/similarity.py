"""Similarity search over the ``embeddings`` table (list<float> column).

- :func:`knn_cosine` — brute-force cosine top-k: the query matrix is
  broadcast once (``ray.put``), each batch does one float64 matmul against
  it and emits only its per-batch top-k (pre-aggregation), the driver merges
  the tiny partials. Scale path: the same stage behind an IVF/LSH bucket
  router (see :func:`lsh_bucketed_knn`).
- :func:`lsh_bucketed_knn` — random-hyperplane LSH variant: vectors are
  routed to sign-pattern buckets; queries probe only their own bucket (plus
  optional multi-probe neighbors). Approximate by construction; exists to
  exercise the partitioned layout the 100 TB path needs.
- :func:`ivf_knn` — IVF variant: a deterministic spherical-k-means coarse
  quantizer (trained on a bounded sample) routes vectors to cells; queries
  scan only their ``nprobe`` nearest cells. The data-adaptive counterpart
  to the LSH router; at 100 TB the cell id is the parquet partition key.
- :func:`pq_knn` — product-quantization variant (Jégou et al., PQ/ADC):
  each vector compresses to ``m`` uint8 codes; the scan ranks candidates by
  asymmetric-distance lookup tables (one ``m x ksub`` table per query) and
  only the per-query shortlist is reranked with exact cosine. At 100 TB the
  codes table (m bytes/vector vs 8*dim) is what the scan streams — a 64x
  memory-bandwidth cut at dim=64/m=8 — and the exact rerank is a
  partition-pruned gather of the shortlist ids only.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from web_search_engine_ray.functions.arrays import list_matrix
from web_search_engine_ray.pipelines.query import topk_order


def _norm_rows(M: np.ndarray) -> np.ndarray:
    return M / np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-12)


def _empty_knn_table() -> pa.Table:
    return pa.table(
        {
            "query_id": pa.array([], pa.int64()),
            "vec_id": pa.array([], pa.int64()),
            "cos": pa.array([], pa.float64()),
        }
    )


def _knn_partials_table(out_q, out_v, out_s) -> pa.Table:
    if not out_q:
        return _empty_knn_table()
    return pa.table(
        {
            "query_id": pa.array(np.concatenate(out_q), pa.int64()),
            "vec_id": pa.array(np.concatenate(out_v), pa.int64()),
            "cos": pa.array(np.concatenate(out_s), pa.float64()),
        }
    )


def _merge_query_topk(partials, topk: int) -> pa.Table:
    """Driver-side merge of per-batch top-k partials: per query, the
    (cos desc, vec_id asc) cut to ``topk`` (``topk_order``) — the
    deterministic tie contract every kNN variant and the SQL oracle share —
    with cos rounded to 6.

    Every cut ranks the cosine ROUNDED to 6, the oracle's ORDER BY
    ROUND(cos, 6) DESC, vec_id: mathematically-tied cosines
    (orthogonal/duplicate vectors) sit epsilon apart between the engine's
    normalize-then-dot floats and SQL's raw-value sums, so only the rounded
    rule makes the vec_id tie-break engage identically on both sides (fuzz
    gate). The per-batch cuts and this final one use the same rule."""
    import pandas as pd

    out = []
    partials = partials.assign(cos=partials["cos"].round(6))
    for qid, grp in partials.groupby("query_id"):
        out.append(grp.iloc[topk_order(grp["vec_id"].to_numpy(), grp["cos"].to_numpy(), topk)])
    if not out:
        return _empty_knn_table()
    merged = pd.concat(out).reset_index(drop=True)
    return pa.Table.from_pandas(merged, preserve_index=False)


def _emb_path(sf_dir: str) -> str:
    return os.path.join(sf_dir, "embeddings.parquet")


def _emb_dim(sf_dir: str) -> int:
    """Embedding dimensionality WITHOUT reading the column: the schema's
    FixedSizeList size when available, else the first row of the first row
    group (a one-row read — never the full table)."""
    path = _emb_path(sf_dir)
    t = pq.read_schema(path).field("embedding").type
    if pa.types.is_fixed_size_list(t):
        return t.list_size
    first = next(
        pq.ParquetFile(path).iter_batches(batch_size=1, columns=["embedding"])
    )
    return len(first.column(0)[0])


def _query_matrix(sf_dir: str, n_queries: int) -> tuple[np.ndarray, np.ndarray]:
    # predicate pushdown: only row groups containing query ids are read —
    # never the full embedding column on the driver
    t = pq.read_table(
        _emb_path(sf_dir),
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", n_queries)],
    )
    ids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(ids, kind="stable")
    Q = list_matrix(t["embedding"].take(pa.array(order)))
    return ids[order], _norm_rows(Q)


def knn_cosine(sf_dir: str, n_queries: int = 3, topk: int = 10) -> pa.Table:
    """Top-k cosine neighbors of query vectors (vec_id < n_queries), excluding
    self. Columns: (query_id, vec_id, cos) — cos rounded to 6."""
    import ray
    import ray.data

    qids, Qn = _query_matrix(sf_dir, n_queries)
    qref = ray.put((qids, Qn))

    def f(batch: pa.Table) -> pa.Table:
        q_ids, qm = ray.get(qref)
        ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        V = _norm_rows(list_matrix(batch["embedding"]))
        sims = qm @ V.T  # (nq, batch)
        out_q, out_v, out_s = [], [], []
        for qi in range(q_ids.size):
            mask = ids != q_ids[qi]
            s = sims[qi][mask]
            vid = ids[mask]
            part = topk_order(vid, np.round(s, 6), topk)
            out_q.append(np.full(part.size, q_ids[qi], dtype=np.int64))
            out_v.append(vid[part])
            out_s.append(s[part])
        return _knn_partials_table(out_q, out_v, out_s)

    ds = ray.data.read_parquet(_emb_path(sf_dir), columns=["vec_id", "embedding"])
    partials = ds.map_batches(f, batch_format="pyarrow").to_pandas()
    return _merge_query_topk(partials, topk)


def lsh_bucketed_knn(
    sf_dir: str, n_queries: int = 3, topk: int = 10, n_planes: int = 8
) -> pa.Table:
    """Approximate top-k via random-hyperplane LSH bucket probing.

    Deterministic hyperplanes (splitmix-seeded Gaussian via Box-Muller on
    counter-based uniforms). A query only scans vectors whose sign pattern
    matches its own bucket — the partition-pruned scan pattern the 100 TB
    layout relies on (bucket = parquet partition key there)."""
    import ray
    import ray.data

    qids, Qn = _query_matrix(sf_dir, n_queries)
    dim = _emb_dim(sf_dir)
    rng = np.random.Generator(np.random.Philox(key=12345))
    planes = rng.standard_normal((n_planes, dim))
    qbuck = (Qn @ planes.T > 0) @ (1 << np.arange(n_planes))
    qref = ray.put((qids, Qn, planes, qbuck))

    def f(batch: pa.Table) -> pa.Table:
        q_ids, qm, pl_, qb = ray.get(qref)
        ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        V = _norm_rows(list_matrix(batch["embedding"]))
        vb = (V @ pl_.T > 0) @ (1 << np.arange(pl_.shape[0]))
        out_q, out_v, out_s = [], [], []
        for qi in range(q_ids.size):
            mask = (vb == qb[qi]) & (ids != q_ids[qi])
            if not mask.any():
                continue
            s = qm[qi] @ V[mask].T
            vid = ids[mask]
            part = topk_order(vid, np.round(s, 6), topk)
            out_q.append(np.full(part.size, q_ids[qi], dtype=np.int64))
            out_v.append(vid[part])
            out_s.append(s[part])
        return _knn_partials_table(out_q, out_v, out_s)

    ds = ray.data.read_parquet(_emb_path(sf_dir), columns=["vec_id", "embedding"])
    partials = ds.map_batches(f, batch_format="pyarrow").to_pandas()
    return _merge_query_topk(partials, topk)


def _sample_matrix(sf_dir: str, sample_rows: int) -> np.ndarray:
    """Normalized matrix of the first ``sample_rows`` vectors — a
    row-group-ranged read, never the full table. The bounded training
    sample every quantizer here shares."""
    pf = pq.ParquetFile(_emb_path(sf_dir))
    parts = []
    got = 0
    for rg in range(pf.num_row_groups):
        t = pf.read_row_group(rg, columns=["embedding"])
        parts.append(t)
        got += t.num_rows
        if got >= sample_rows:
            break
    t = pa.concat_tables(parts).slice(0, sample_rows)
    return _norm_rows(list_matrix(t["embedding"]))


def _train_centroids(
    sf_dir: str, n_cells: int, sample_rows: int = 2048, iters: int = 8
) -> np.ndarray:
    """Deterministic spherical k-means coarse quantizer, trained on a
    bounded metadata-pruned sample (see :func:`_sample_matrix`). Lloyd
    iterations run on the sample only (driver-side, O(sample x cells) —
    corpus-size independent); init = Philox-seeded sample rows. Empty cells
    re-seed deterministically."""
    S = _sample_matrix(sf_dir, sample_rows)
    rng = np.random.Generator(np.random.Philox(key=777))
    C = S[rng.choice(S.shape[0], size=min(n_cells, S.shape[0]), replace=False)]
    for _ in range(iters):
        assign = (S @ C.T).argmax(axis=1)
        for c in range(C.shape[0]):
            m = assign == c
            if m.any():
                C[c] = S[m].mean(axis=0)
            else:  # deterministic re-seed from the sample
                C[c] = S[int(rng.integers(0, S.shape[0]))]
        C = _norm_rows(C)
    return C


def ivf_knn(
    sf_dir: str,
    n_queries: int = 3,
    topk: int = 10,
    n_cells: int = 16,
    nprobe: int = 4,
) -> pa.Table:
    """Approximate top-k via an IVF coarse quantizer (the classic
    inverted-file ANN layout): vectors route to their nearest-centroid cell;
    each query scans only its ``nprobe`` nearest cells. At 100 TB the cell
    id is the parquet partition key, so a probe is a partition-pruned read —
    the same discipline :func:`lsh_bucketed_knn` exercises, but with a
    data-adaptive quantizer (cells follow the density, unlike oblivious
    hyperplanes). Deterministic end-to-end; recall vs :func:`knn_cosine`
    is pinned in ``tests/test_similarity_ivf.py``."""
    import ray
    import ray.data

    C = _train_centroids(sf_dir, n_cells)
    qids, Qn = _query_matrix(sf_dir, n_queries)
    # each query's probe set: its nprobe nearest cells
    qcells = np.argsort(-(Qn @ C.T), axis=1, kind="stable")[:, :nprobe]
    qref = ray.put((qids, Qn, C, qcells))

    def f(batch: pa.Table) -> pa.Table:
        q_ids, qm, cents, probes = ray.get(qref)
        ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        V = _norm_rows(list_matrix(batch["embedding"]))
        cell = (V @ cents.T).argmax(axis=1)
        out_q, out_v, out_s = [], [], []
        for qi in range(q_ids.size):
            mask = np.isin(cell, probes[qi]) & (ids != q_ids[qi])
            if not mask.any():
                continue
            s = qm[qi] @ V[mask].T
            vid = ids[mask]
            part = topk_order(vid, np.round(s, 6), topk)
            out_q.append(np.full(part.size, q_ids[qi], dtype=np.int64))
            out_v.append(vid[part])
            out_s.append(s[part])
        return _knn_partials_table(out_q, out_v, out_s)

    ds = ray.data.read_parquet(_emb_path(sf_dir), columns=["vec_id", "embedding"])
    partials = ds.map_batches(f, batch_format="pyarrow").to_pandas()
    return _merge_query_topk(partials, topk)


def _train_pq(
    sf_dir: str, m: int, ksub: int, sample_rows: int = 2048, iters: int = 10
) -> np.ndarray:
    """Deterministic product-quantization codebooks: split the (normalized)
    space into ``m`` contiguous subspaces and run plain k-means in each,
    on the same bounded sample the IVF quantizer trains on. Returns
    ``(m, ksub, dim/m)``. Driver-side and corpus-size independent, like
    :func:`_train_centroids`; empty sub-centroids re-seed deterministically."""
    S = _sample_matrix(sf_dir, sample_rows)
    dim = S.shape[1]
    if dim % m:
        raise ValueError(f"dim {dim} not divisible by m={m}")
    dsub = dim // m
    rng = np.random.Generator(np.random.Philox(key=4242))
    books = np.empty((m, ksub, dsub))
    for j in range(m):
        Sub = S[:, j * dsub : (j + 1) * dsub]
        k = min(ksub, Sub.shape[0])
        C = Sub[rng.choice(Sub.shape[0], size=k, replace=False)].copy()
        for _ in range(iters):
            # nearest sub-centroid by L2 == max (c.x - |c|^2/2)
            assign = (Sub @ C.T - 0.5 * (C * C).sum(axis=1)).argmax(axis=1)
            for c in range(k):
                sel = assign == c
                if sel.any():
                    C[c] = Sub[sel].mean(axis=0)
                else:
                    C[c] = Sub[int(rng.integers(0, Sub.shape[0]))]
        if k < ksub:  # tiny sample: pad by repeating (deterministic)
            C = np.concatenate([C, C[np.arange(ksub - k) % k]])
        books[j] = C
    return books


def pq_knn(
    sf_dir: str,
    n_queries: int = 3,
    topk: int = 10,
    m: int = 8,
    ksub: int = 32,
    oversample: int = 4,
) -> pa.Table:
    """Approximate top-k via product quantization with asymmetric distance
    (PQ/ADC, Jegou et al. 2011) + exact rerank of the shortlist.

    Each database vector is represented by ``m`` uint8 sub-centroid codes
    (here encoded on the fly inside the scan; at 100 TB the codes table is
    precomputed once and is ALL the scan streams — ``m`` bytes/vector
    instead of ``8*dim``, a 64x bandwidth cut at dim=64/m=8). Per query, an
    ``(m, ksub)`` lookup table of subspace dot products turns scoring into
    ``m`` table gathers per vector; only the per-query top
    ``topk*oversample`` ADC candidates get an exact cosine rerank, so the
    emitted ``cos`` values are exact (recall vs :func:`knn_cosine` pinned in
    ``tests/test_similarity_pq.py``). Same output contract as the other kNN
    variants: (query_id, vec_id, cos) with deterministic tie handling."""
    import ray
    import ray.data

    books = _train_pq(sf_dir, m=m, ksub=ksub)
    qids, Qn = _query_matrix(sf_dir, n_queries)
    dsub = books.shape[2]
    # per-query ADC tables: luts[q, j, c] = q_sub_j . codebook[j][c]
    luts = np.einsum("qjd,jcd->qjc", Qn.reshape(Qn.shape[0], m, dsub), books)
    qref = ray.put((qids, Qn, books, luts))

    def f(batch: pa.Table) -> pa.Table:
        q_ids, qm, cb, lut = ray.get(qref)
        ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        V = _norm_rows(list_matrix(batch["embedding"]))
        n = V.shape[0]
        # encode: nearest sub-centroid per subspace (the stored-codes stand-in)
        codes = np.empty((n, m), dtype=np.int64)
        half_norms = 0.5 * (cb * cb).sum(axis=2)  # (m, ksub)
        for j in range(m):
            Sub = V[:, j * dsub : (j + 1) * dsub]
            codes[:, j] = (Sub @ cb[j].T - half_norms[j]).argmax(axis=1)
        # ADC scores for all queries at once: m table gathers
        adc = np.zeros((q_ids.size, n))
        for j in range(m):
            adc += lut[:, j, codes[:, j]]
        out_q, out_v, out_s = [], [], []
        for qi in range(q_ids.size):
            mask = ids != q_ids[qi]
            if not mask.any():
                continue
            vid = ids[mask]
            # ADC shortlist, then an exact rerank of the shortlist only
            cand = topk_order(vid, np.round(adc[qi][mask], 6), topk * oversample)
            s = qm[qi] @ V[mask][cand].T
            keep = topk_order(vid[cand], np.round(s, 6), topk)
            out_q.append(np.full(keep.size, q_ids[qi], dtype=np.int64))
            out_v.append(vid[cand][keep])
            out_s.append(s[keep])
        return _knn_partials_table(out_q, out_v, out_s)

    ds = ray.data.read_parquet(_emb_path(sf_dir), columns=["vec_id", "embedding"])
    partials = ds.map_batches(f, batch_format="pyarrow").to_pandas()
    return _merge_query_topk(partials, topk)


# pinned aggregate recall floors for the driver-gate contract entry
# (ann_recall_bounds) — same floors the pytest contracts pin. LSH is NOT
# recall-floored: single-bucket probing over near-uniform embeddings has
# vanishing recall BY DESIGN (8 planes -> ~0.6^8 neighbor collision odds);
# its contract is that every pair it DOES return carries the exact cosine
ANN_RECALL_FLOORS = {"ivf": 0.5, "pq": 0.6}


def ann_recall_bound_table(
    sf_dir: str, n_queries: int = 3, topk: int = 10
) -> pa.Table:
    """(method, n_exact, contract_ok): the ANN family's correctness
    contracts, made driver-checkable. Exact kNN (itself value-oracled as
    ``knn_cosine``) is the truth set; ivf/pq must clear their pinned
    aggregate recall floors (ANN_RECALL_FLOORS), and lsh's returned pairs
    must score the exact cosine (its guarantee is scoring fidelity, not
    recall — see ANN_RECALL_FLOORS note). The SQL twin contributes the
    exact-pair count from ITS OWN knn computation, so a divergence in
    either the exact path or a contract regression hash-mismatches."""
    import pyarrow.parquet as pq_

    exact = knn_cosine(sf_dir, n_queries, topk).to_pandas()
    exact_pairs = set(zip(exact["query_id"], exact["vec_id"]))
    # tie-aware recall: the exact top-k breaks score ties by vec_id, so on
    # tie-heavy corpora (duplicate / orthogonal / zero vectors — the
    # adversarial gate) an ANN return scoring EXACTLY the k-th cosine is a
    # correct answer even when its vec_id differs from the exact set's
    # arbitrary tie-winner
    kth_cos = exact.groupby("query_id")["cos"].min().to_dict()

    def recall(approx) -> float:
        a = approx.to_pandas()
        hits = sum(
            1
            for q, v, c in zip(a["query_id"], a["vec_id"], a["cos"])
            if (q, v) in exact_pairs or c >= kth_cos.get(q, np.inf) - 1e-9
        )
        return hits / max(1, len(exact_pairs))

    # lsh: every returned cos must equal the true cosine, recomputed from
    # the RETURNED pairs' embeddings only — a vec_id row filter pushed into
    # the read (the _query_matrix pattern), never the full embedding column
    lsh = lsh_bucketed_knn(sf_dir, n_queries, topk).to_pandas()
    lsh_ok = True
    if len(lsh):
        import pyarrow.compute as pc_

        needed = sorted({int(v) for v in lsh["vec_id"]})
        emb = pq_.read_table(
            _emb_path(sf_dir),
            columns=["vec_id", "embedding"],
            filters=pc_.field("vec_id").isin(needed),
        )
        ids = emb["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        V = _norm_rows(list_matrix(emb["embedding"].combine_chunks()))
        order = np.argsort(ids)
        qids, Qn = _query_matrix(sf_dir, n_queries)
        qpos = {int(q): i for i, q in enumerate(qids)}
        for q, v, c in zip(lsh["query_id"], lsh["vec_id"], lsh["cos"]):
            vi = order[np.searchsorted(ids[order], int(v))]
            true_cos = float(Qn[qpos[int(q)]] @ V[vi])
            if abs(true_cos - float(c)) > 1e-6:
                lsh_ok = False
                break

    rows = [
        ("ivf", recall(ivf_knn(sf_dir, n_queries, topk)) >= ANN_RECALL_FLOORS["ivf"]),
        ("lsh", lsh_ok),
        ("pq", recall(pq_knn(sf_dir, n_queries, topk)) >= ANN_RECALL_FLOORS["pq"]),
    ]
    return pa.table(
        {
            "method": pa.array([m for m, _ in rows], pa.string()),
            "n_exact": pa.array([len(exact_pairs)] * len(rows), pa.int64()),
            "contract_ok": pa.array([ok for _, ok in rows], pa.bool_()),
        }
    )
