"""Distributed k-means over the ``embeddings`` table (Lloyd's algorithm).

The classic corpus-organization step of an LLM data pipeline (cluster the
embedding space, then sample/balance/inspect per cluster — the SemDeDup /
DoReMi-style workflows). Reference has no counterpart; the operator follows
the engine's broadcast + partial-aggregation pattern:

- Centroids are driver-held, tiny (k x d float64), and broadcast per
  iteration via ``ray.put``; each ``map_batches`` task computes squared
  distances with one matmul-free vectorized pass and emits only a (k x d)
  partial sum + k counts — KBs per batch regardless of input size.
- The driver reduces the partials (k x d — trivially small), recomputes the
  means, and ROUNDS each centroid coordinate to 6 decimals. The rounding is
  the determinism contract: float64 partial sums associate differently
  across batch boundaries than the oracle's ``avg()``, but both land on the
  same 6-decimal grid, so every subsequent iteration sees bit-identical
  centroids and the final assignment is exact (verified hash-green vs a
  chained-CTE DuckDB twin that replays the same fixed iterations).
- Empty clusters keep their previous centroid unchanged (SQL: LEFT JOIN +
  COALESCE), so k never silently shrinks.

At 100 TB the per-iteration cost is one streaming pass over the corpus with
no shuffle at all; only k x d floats move to/from the driver per iteration.
Ties (two centroids exactly equidistant after rounding) resolve to the
smaller cluster id, matching the twin's ``ORDER BY dist, cid``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from web_search_engine_ray.functions.arrays import list_matrix
from web_search_engine_ray.stages.exchange import arrow_refs

KMEANS_K = 8
KMEANS_ITERS = 2
CENT_DECIMALS = 6


def _sq_dists(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    """(n, k) squared euclidean distances — expanded-form matmul
    (||x||^2 - 2 x.c + ||c||^2) would lose precision on near-ties; the
    direct difference form is exact enough for the 6-decimal contract and
    still one vectorized pass (n*k*d flops, no Python loop)."""
    # (n, 1, d) - (1, k, d) broadcasting; fine for k<=64 at batch granularity
    diff = X[:, None, :] - C[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def _emb_ds(sf_dir: str):
    import ray.data

    from web_search_engine_ray.pipelines.similarity import _emb_path

    return ray.data.read_parquet(_emb_path(sf_dir), columns=["vec_id", "embedding"])


def kmeans_centroids(
    sf_dir: str,
    k: int = KMEANS_K,
    iters: int = KMEANS_ITERS,
    emb_ds=None,
) -> np.ndarray:
    """Train the (k, d) float64 centroid matrix: deterministic seeding
    (centroids = the embeddings of ``vec_id < k``) + ``iters`` Lloyd
    rounds, centroids rounded to 6 decimals after each update.

    ``emb_ds`` lets the caller pass a MATERIALIZED (vec_id, embedding)
    Dataset so the per-iteration pass runs over object-store blocks instead
    of re-reading + re-decoding parquet every round (Lloyd's is iterative —
    the cache-once-iterate-many pattern; the object store spills if the
    corpus outgrows aggregate memory, so the streaming discipline holds).
    Without it, each iteration is an independent pruned parquet scan."""
    import ray
    import ray.data

    from web_search_engine_ray.pipelines.similarity import _emb_path

    if k < 1 or iters < 0:
        raise ValueError(f"need k >= 1 and iters >= 0, got k={k} iters={iters}")

    import pyarrow.compute as pc

    path = _emb_path(sf_dir)

    seeds = ray.data.read_parquet(
        path,
        columns=["vec_id", "embedding"],
        filter=(pc.field("vec_id") < k),
    ).take_all()  # k rows by construction — a driver-side read of the SEEDS only
    if len(seeds) < k:
        raise ValueError(f"corpus has only {len(seeds)} seed rows, need k={k}")
    seeds.sort(key=lambda r: r["vec_id"])  # k rows: driver sort, no shuffle
    C = np.array([r["embedding"] for r in seeds], dtype=np.float64)

    def read_embs():
        return emb_ds if emb_ds is not None else ray.data.read_parquet(
            path, columns=["vec_id", "embedding"]
        )

    for _ in range(iters):
        cref = ray.put(C)

        def partial(batch: pa.Table) -> pa.Table:
            cents = ray.get(cref)
            X = list_matrix(batch["embedding"], dtype=np.float64)
            d2 = _sq_dists(X, cents)
            assign = np.argmin(d2, axis=1)  # first (lowest cid) wins ties
            sums = np.zeros_like(cents)
            np.add.at(sums, assign, X)
            counts = np.bincount(assign, minlength=cents.shape[0])
            return pa.table(
                {
                    "cid": pa.array(
                        np.arange(cents.shape[0], dtype=np.int64), pa.int64()
                    ),
                    "vsum": pa.array(list(sums), pa.list_(pa.float64())),
                    "n": pa.array(counts.astype(np.int64), pa.int64()),
                }
            )

        parts = ray.get(
            arrow_refs(read_embs().map_batches(partial, batch_format="pyarrow"))
        )
        sums = np.zeros_like(C)
        counts = np.zeros(C.shape[0], dtype=np.int64)
        for p in parts:
            if p.num_rows == 0:
                continue
            sums[p["cid"].to_numpy()] += list_matrix(p["vsum"], dtype=np.float64)
            counts[p["cid"].to_numpy()] += p["n"].to_numpy()
        nonempty = counts > 0
        C = C.copy()
        C[nonempty] = np.round(
            sums[nonempty] / counts[nonempty, None], CENT_DECIMALS
        )

    return C


def kmeans_ds(
    sf_dir: str,
    k: int = KMEANS_K,
    iters: int = KMEANS_ITERS,
):
    """(vec_id, cluster, dist): train via :func:`kmeans_centroids`, then a
    final streaming assignment pass. ``dist`` is the euclidean distance to
    the assigned centroid, rounded to 6 decimals. The embedding Dataset is
    materialized once and shared by the training iterations AND the final
    assignment (one parquet decode total, not iters+1)."""
    import ray

    emb = _emb_ds(sf_dir).materialize()

    def read_embs():
        return emb

    C = kmeans_centroids(sf_dir, k=k, iters=iters, emb_ds=emb)
    cref = ray.put(C)

    def assign_batch(batch: pa.Table) -> pa.Table:
        cents = ray.get(cref)
        X = list_matrix(batch["embedding"], dtype=np.float64)
        d2 = _sq_dists(X, cents)
        a = np.argmin(d2, axis=1)
        dist = np.sqrt(d2[np.arange(len(a)), a])
        return pa.table(
            {
                "vec_id": batch["vec_id"].cast(pa.int64()),
                "cluster": pa.array(a.astype(np.int64), pa.int64()),
                "dist": pa.array(np.round(dist, 6), pa.float64()),
            }
        )

    return read_embs().map_batches(assign_batch, batch_format="pyarrow")


SEMDEDUP_TAU = 0.45


def semdedup_ds(
    sf_dir: str,
    tau: float = SEMDEDUP_TAU,
    k: int = KMEANS_K,
    iters: int = KMEANS_ITERS,
):
    """SemDeDup (Abbas et al. 2023, arXiv:2303.09540): semantic dedup =
    k-means the embedding space, then drop near-duplicates WITHIN each
    cluster — pairwise cosine never crosses cluster boundaries, which is
    what makes the quadratic step tractable at scale. Survivor rule is the
    deterministic keep-smallest-id variant: vector v is dropped iff some
    u < v in the same cluster has cosine(u, v) >= tau.

    Shape: centroids from :func:`kmeans_centroids` (broadcast, tiny); one
    ``map_batches`` assigns and forwards (vec_id, cluster, embedding); one
    hash exchange on cluster id co-locates each cluster; the partition fn
    runs one normalized matmul per cluster and keeps the non-dominated
    rows. At 100 TB, k grows with the corpus (SemDeDup uses ~10k clusters
    for LAION-scale) so per-cluster blocks stay bounded — the exchange key
    IS the scale knob. Returns survivors (vec_id, cluster)."""
    import ray

    from web_search_engine_ray.stages.exchange import chain_parts, exchange_map, map_refs, to_dataset

    emb = _emb_ds(sf_dir).materialize()
    C = kmeans_centroids(sf_dir, k=k, iters=iters, emb_ds=emb)
    cref = ray.put(C)

    def assign_fwd(batch: pa.Table) -> pa.Table:
        cents = ray.get(cref)
        X = list_matrix(batch["embedding"], dtype=np.float64)
        a = np.argmin(_sq_dists(X, cents), axis=1) if len(X) else np.empty(0, np.int64)
        return pa.table(
            {
                "vec_id": batch["vec_id"].cast(pa.int64()),
                "cluster": pa.array(a.astype(np.int64), pa.int64()),
                "embedding": batch["embedding"],
            }
        )

    refs = arrow_refs(emb)
    np_ = chain_parts(refs)

    def drop_dominated(t: pa.Table) -> pa.Table:
        ids = t["vec_id"].to_numpy()
        cl = t["cluster"].to_numpy()
        if len(ids) == 0:
            return pa.table(
                {
                    "vec_id": pa.array([], pa.int64()),
                    "cluster": pa.array([], pa.int64()),
                }
            )
        X = list_matrix(t["embedding"], dtype=np.float64)
        order = np.lexsort((ids, cl))
        ids, cl, X = ids[order], cl[order], X[order]
        Xn = X / np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-12)
        keep = np.ones(len(ids), dtype=bool)
        starts = np.flatnonzero(np.r_[True, cl[1:] != cl[:-1]])
        bounds = np.r_[starts, len(ids)]
        for s, e in zip(bounds[:-1], bounds[1:]):
            if e - s < 2:
                continue
            S = Xn[s:e] @ Xn[s:e].T  # ids ascending within the slice
            dom = (np.triu(S, 1) >= tau).any(axis=0)
            keep[s:e] = ~dom
        return pa.table(
            {
                "vec_id": pa.array(ids[keep], pa.int64()),
                "cluster": pa.array(cl[keep], pa.int64()),
            }
        )

    out = exchange_map(
        map_refs(assign_fwd, refs), lambda t: t["cluster"].to_numpy() % np_, np_, drop_dominated
    )
    return to_dataset("semdedup_ds", out)


def pca_model(sf_dir: str, n_components: int = 8):
    """Fit PCA on the embedding column: mean vector + top-``n_components``
    eigenvectors of the covariance, via the same partial-aggregation shape
    as k-means — each batch emits (sum x, sum x xᵀ, n), the driver reduces
    (d x d — tiny at embedding dims) and runs one ``eigh``. Sign convention:
    each component's largest-|coordinate| entry is made positive, so the
    model is deterministic despite eigenvector sign ambiguity.

    Returns (mean (d,), components (n_components, d), explained_var
    (n_components,)). At 100 TB this is one streaming pass moving d²+d
    floats per batch; the driver never sees a vector."""
    import ray
    import ray.data

    from web_search_engine_ray.pipelines.similarity import _emb_dim, _emb_path

    d = _emb_dim(sf_dir)
    if not 1 <= n_components <= d:
        raise ValueError(f"need 1 <= n_components <= {d}, got {n_components}")

    def partial(batch: pa.Table) -> pa.Table:
        X = list_matrix(batch["embedding"], dtype=np.float64)
        return pa.table(
            {
                "sx": pa.array([X.sum(axis=0)], pa.list_(pa.float64())),
                "sxx": pa.array([(X.T @ X).ravel()], pa.list_(pa.float64())),
                "n": pa.array([X.shape[0]], pa.int64()),
            }
        )

    parts = ray.get(
        arrow_refs(
            ray.data.read_parquet(_emb_path(sf_dir), columns=["embedding"])
            .map_batches(partial, batch_format="pyarrow")
        )
    )
    sx = np.zeros(d)
    sxx = np.zeros((d, d))
    n = 0
    for p in parts:
        if p.num_rows == 0:
            continue
        sx += list_matrix(p["sx"], dtype=np.float64).sum(axis=0)
        sxx += (
            list_matrix(p["sxx"], dtype=np.float64).sum(axis=0).reshape(d, d)
        )
        n += int(p["n"].to_numpy().sum())
    if n < 2:
        raise ValueError(f"need >= 2 vectors to fit PCA, got {n}")
    mean = sx / n
    cov = (sxx - n * np.outer(mean, mean)) / (n - 1)
    w, v = np.linalg.eigh(cov)  # ascending
    order = np.argsort(w)[::-1][:n_components]
    comps = v[:, order].T
    flip = np.sign(comps[np.arange(len(order)), np.abs(comps).argmax(axis=1)])
    comps = comps * flip[:, None]
    return mean, comps, w[order]


def pca_project_ds(sf_dir: str, n_components: int = 8):
    """(vec_id, pc0..pc{n-1}): embeddings projected onto the fitted
    components (centered). Model fit by :func:`pca_model`, broadcast once.
    Components come out as scalar float64 columns (not a list column) so
    downstream sorts/joins/hash-compares treat them like any other
    relation."""
    import ray
    import ray.data

    from web_search_engine_ray.pipelines.similarity import _emb_path

    mean, comps, _ = pca_model(sf_dir, n_components)
    mref = ray.put((mean, comps))

    def project(batch: pa.Table) -> pa.Table:
        m, C = ray.get(mref)
        X = list_matrix(batch["embedding"], dtype=np.float64)
        P = (X - m) @ C.T
        cols = {"vec_id": batch["vec_id"].cast(pa.int64())}
        for j in range(P.shape[1]):
            cols[f"pc{j}"] = pa.array(np.round(P[:, j], 9), pa.float64())
        return pa.table(cols)

    return ray.data.read_parquet(
        _emb_path(sf_dir), columns=["vec_id", "embedding"]
    ).map_batches(project, batch_format="pyarrow")


def kmeans_inertia(sf_dir: str, k: int = KMEANS_K, iters: int = KMEANS_ITERS) -> float:
    """Sum of squared assigned distances — the quantity Lloyd's descends.
    Used by the pytest contract (inertia must be non-increasing in iters)."""
    t = kmeans_ds(sf_dir, k=k, iters=iters)
    tot = 0.0
    for b in t.iter_batches(batch_format="pyarrow"):
        d = b["dist"].to_numpy(zero_copy_only=False)
        tot += float(np.dot(d, d))
    return tot


def centroid_classify_table(sf_dir: str, round_to: int = 6) -> pa.Table:
    """(label, n, n_correct, accuracy): nearest-centroid classification
    self-eval over the embeddings table — fit one centroid per ground-truth
    ``label`` (per-batch vector-sum partials, the kmeans discipline), then
    assign every vector to its nearest centroid and score per-label
    accuracy. The centroid and the squared distance are both ROUNDED to
    {round_to} decimals BEFORE the argmin on each side (the kmeans
    Lloyd-replay trick) so the two sides' float associations cannot flip a
    near-tie; assignment ties break to the smallest label on both sides."""
    import ray

    from web_search_engine_ray.functions.arrays import list_matrix
    from web_search_engine_ray.pipelines.similarity import _emb_path

    import ray.data

    ds = ray.data.read_parquet(
        _emb_path(sf_dir), columns=["vec_id", "label", "embedding"]
    ).materialize()

    def sum_partial(batch: pa.Table) -> pa.Table:
        X = list_matrix(batch["embedding"], dtype=np.float64)
        lab = batch["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        u = np.unique(lab)
        sums = np.zeros((u.size, X.shape[1]), np.float64)
        np.add.at(sums, np.searchsorted(u, lab), X)
        counts = np.bincount(np.searchsorted(u, lab), minlength=u.size)
        return pa.table(
            {
                "label": pa.array(u, pa.int64()),
                "vsum": pa.array(list(sums), pa.list_(pa.float64())),
                "n": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    parts = ray.get(
        arrow_refs(ds.map_batches(sum_partial, batch_format="pyarrow"))
    )
    labels = sorted(
        {int(v) for p in parts if p.num_rows for v in p["label"].to_pylist()}
    )
    if not labels:
        return pa.table(
            {
                "label": pa.array([], pa.int64()),
                "n": pa.array([], pa.int64()),
                "n_correct": pa.array([], pa.int64()),
                "accuracy": pa.array([], pa.float64()),
            }
        )
    lab_arr = np.array(labels, np.int64)
    # probe dim from a NON-empty part: empty blocks can carry the pre-UDF
    # schema (no vsum column at all)
    dim = len(next(p for p in parts if p.num_rows)["vsum"][0])
    sums = np.zeros((lab_arr.size, dim), np.float64)
    counts = np.zeros(lab_arr.size, np.int64)
    for p in parts:
        if p.num_rows:
            idx = np.searchsorted(lab_arr, p["label"].to_numpy())
            sums[idx] += list_matrix(p["vsum"], dtype=np.float64)
            counts[idx] += p["n"].to_numpy()
    C = np.round(sums / counts[:, None], round_to)
    cref = ray.put(C)

    def assign_partial(batch: pa.Table) -> pa.Table:
        cents = ray.get(cref)
        X = list_matrix(batch["embedding"], dtype=np.float64)
        lab = batch["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        d2 = np.round(_sq_dists(X, cents), round_to)
        pred_idx = np.argmin(d2, axis=1)  # first (lowest label) wins ties
        true_idx = np.searchsorted(lab_arr, lab)
        u = np.unique(true_idx)
        n = np.zeros(u.size, np.int64)
        ok = np.zeros(u.size, np.int64)
        np.add.at(n, np.searchsorted(u, true_idx), 1)
        np.add.at(
            ok, np.searchsorted(u, true_idx), (pred_idx == true_idx).astype(np.int64)
        )
        return pa.table(
            {
                "li": pa.array(u, pa.int64()),
                "n": pa.array(n, pa.int64()),
                "ok": pa.array(ok, pa.int64()),
            }
        )

    n_tot = np.zeros(lab_arr.size, np.int64)
    ok_tot = np.zeros(lab_arr.size, np.int64)
    for p in ray.get(
        arrow_refs(ds.map_batches(assign_partial, batch_format="pyarrow"))
    ):
        if p.num_rows:
            n_tot[p["li"].to_numpy()] += p["n"].to_numpy()
            ok_tot[p["li"].to_numpy()] += p["ok"].to_numpy()
    return pa.table(
        {
            "label": pa.array(lab_arr, pa.int64()),
            "n": pa.array(n_tot, pa.int64()),
            "n_correct": pa.array(ok_tot, pa.int64()),
            "accuracy": pa.array(
                np.round(ok_tot / np.maximum(n_tot, 1), round_to), pa.float64()
            ),
        }
    )
