"""Retrieval-augmented-generation store: chunk -> embed -> ANN-queryable
chunk table — the composed pipeline a RAG system runs over a curated corpus.

Pieces, each already proven separately, composed here:

- **chunking**: :func:`pipelines.pack.chunk_docs_ds` (sliding token windows,
  SQL-twinned);
- **embedding**: a deterministic hashed bag-of-tokens embedder (signed
  feature hashing: token md5-low-64 -> bucket = h % dim, sign from the top
  hash bit, counts L2-normalized). No model weights, no network — crude
  semantics but exactly reproducible across engines and runs, which is what
  the conformance story needs; a real sentence encoder drops into the same
  actor-pool stage (``batch_format="pyarrow"``, one matrix per batch) with
  zero pipeline changes.
- **retrieval**: per-batch cosine top-k partials against a broadcast query
  matrix, merged on the driver (the ``knn_cosine`` shape —
  ``similarity._merge_query_topk`` is reused verbatim, so the tie contract
  is the engine-wide (cos desc, vec_id asc)).

Store layout: ``<out>/chunks.parquet/`` — a DIRECTORY of streamed parquet
files (chunk_uid, docid, chunk_idx, text, embedding
fixed_size_list<float32>[dim]) + ``rag_store.json`` (params
fingerprint + counts). The store build is single-shot resumable: a rerun
with identical params + input fingerprint is metadata-only; changed params
raise (same drift guard as the composed jobs). chunk_uid is
``docid * 2^20 + chunk_idx`` — deterministic, so reruns and engines agree.

At 100 TB: chunking/embedding stream (no shuffle); the store is partitioned
parquet (one file per output block); retrieval reads prune to the embedding
column and stream per-batch partials — the corpus text never moves at query
time.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import polars as pl
import pyarrow as pa

from web_search_engine_ray.functions.tokenize import token_lists
from web_search_engine_ray.pipelines.dedup import _token_hashes
from web_search_engine_ray.pipelines.query import topk_order

EMBED_DIM = 64
CHUNK_UID_SHIFT = 20  # chunk_uid = docid << 20 | chunk_idx


def hash_embed_matrix(texts, dim: int = EMBED_DIM) -> np.ndarray:
    """(n_rows, dim) float32, L2-normalized signed-feature-hash embeddings.

    Fully vectorized: one explode over the batch's token stream, one
    memoized md5 pass (shared with the dedup family's token hashing), one
    bincount. Token-less rows embed to the zero vector."""
    tl = token_lists(texts)
    n = len(tl)
    d = (
        pl.DataFrame({"rid": pl.Series(np.arange(n, dtype=np.int64)), "t": tl})
        .explode("t", empty_as_null=True)
        .drop_nulls("t")
    )
    rid = d["rid"].to_numpy()
    h = _token_hashes(d["t"].to_list())
    b = (h % np.uint64(dim)).astype(np.int64)
    sgn = np.where((h >> np.uint64(63)).astype(bool), 1.0, -1.0)
    flat = np.bincount(rid * dim + b, weights=sgn, minlength=n * dim)
    M = flat.reshape(n, dim)
    norms = np.linalg.norm(M, axis=1)
    M = M / np.where(norms == 0, 1.0, norms)[:, None]
    return M.astype(np.float32)


def _store_params(window: int, stride: int, dim: int, corpus_fp: str) -> dict:
    return {"window": window, "stride": stride, "dim": dim, "corpus_fp": corpus_fp}


def _corpus_fp(corpus) -> str:
    from web_search_engine_ray.sources.documents import docs_files

    parts = []
    for f in docs_files(corpus):
        st = os.stat(f)
        parts.append(f"{f}:{st.st_size}:{st.st_mtime_ns}")
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


def build_rag_store(
    corpus,
    out_dir: str,
    window: int = 64,
    stride: int = 32,
    dim: int = EMBED_DIM,
) -> dict:
    """Chunk + embed ``corpus`` into ``<out_dir>/chunks.parquet``. Resumable
    single-shot: identical params + input -> metadata-only rerun; changed
    params -> ValueError (drift guard, same contract as the composed jobs)."""
    import pyarrow.parquet as pq
    import ray

    from web_search_engine_ray.pipelines.pack import chunk_docs_ds

    os.makedirs(out_dir, exist_ok=True)
    marker = os.path.join(out_dir, "rag_store.json")
    chunks_path = os.path.join(out_dir, "chunks.parquet")
    params = _store_params(window, stride, dim, _corpus_fp(corpus))
    if os.path.exists(marker):
        with open(marker) as f:
            prev = json.load(f)
        if prev.get("params") == params:
            if os.path.exists(chunks_path):
                prev["resumed"] = True
                return prev
            # marker survived but the chunks dir didn't: fall through and
            # rebuild into the same out dir (not a parameter drift)
        elif prev.get("params", {}).get("corpus_fp") == params["corpus_fp"]:
            raise ValueError(
                "rag store exists with different parameters "
                f"({prev.get('params')} != {params}); use a fresh --out"
            )

    def embed(batch: pa.Table) -> pa.Table:
        M = hash_embed_matrix(batch["text"], dim)
        cidx = batch["chunk_idx"].combine_chunks().to_numpy(zero_copy_only=False)
        # chunk_idx must fit its uid bits: past 2^20 chunks (~33.5M tokens
        # at stride 32) an idx would bleed into the docid bits and alias
        # another doc's chunk 0 — fail loudly instead
        if cidx.size and int(cidx.max()) >= (1 << CHUNK_UID_SHIFT):
            raise ValueError(
                f"chunk_idx {int(cidx.max())} exceeds the 2^{CHUNK_UID_SHIFT} "
                "chunk_uid bound (oversized document); raise CHUNK_UID_SHIFT "
                "or split the document upstream"
            )
        uid = (
            batch["docid"].combine_chunks().to_numpy(zero_copy_only=False)
            << CHUNK_UID_SHIFT
        ) | cidx
        return pa.table(
            {
                "chunk_uid": pa.array(uid, pa.int64()),
                "docid": batch["docid"],
                "chunk_idx": batch["chunk_idx"],
                "n_tokens": batch["n_tokens"],
                "text": batch["text"],
                "embedding": pa.FixedSizeListArray.from_arrays(
                    pa.array(M.reshape(-1), pa.float32()), dim
                ),
            }
        )

    ds = chunk_docs_ds(corpus, window=window, stride=stride).map_batches(
        embed, batch_format="pyarrow"
    )
    # stream the store to disk (no driver materialization): tmp dir + rename
    # so a crashed build never half-exists
    import shutil

    tmp_dir = chunks_path + ".tmp"
    shutil.rmtree(tmp_dir, ignore_errors=True)
    ds.write_parquet(tmp_dir)
    shutil.rmtree(chunks_path, ignore_errors=True)
    os.replace(tmp_dir, chunks_path)
    n_chunks = sum(
        pq.read_metadata(os.path.join(chunks_path, f)).num_rows
        for f in os.listdir(chunks_path)
        if f.endswith(".parquet")
    )
    rep = {
        "out_dir": out_dir,
        "params": params,
        "n_chunks": n_chunks,
        "resumed": False,
    }
    with open(marker + ".tmp", "w") as f:
        json.dump(rep, f)
    os.replace(marker + ".tmp", marker)
    return rep


def rag_topk(
    store_dir: str, queries: list[str], topk: int = 5, dim: int | None = None
) -> pa.Table:
    """(query_id, vec_id, cos) — cosine top-k chunks per query over the
    store, streamed as per-batch partials against the broadcast query
    matrix (the ``knn_cosine`` shape; ``vec_id`` is the chunk_uid). Queries
    embedding to the zero vector (no tokens) return no rows."""
    import ray
    import ray.data

    from web_search_engine_ray.pipelines.similarity import (
        _knn_partials_table,
        _merge_query_topk,
    )

    with open(os.path.join(store_dir, "rag_store.json")) as f:
        store_dim = int(json.load(f)["params"]["dim"])
    if dim is not None and dim != store_dim:
        raise ValueError(f"dim={dim} does not match the store's dim={store_dim}")
    dim = store_dim
    Q = hash_embed_matrix(pa.chunked_array([pa.array(queries)]), dim)
    live = np.linalg.norm(Q, axis=1) > 0
    qref = ray.put(Q)

    def f(batch: pa.Table) -> pa.Table:
        M = (
            np.asarray(batch["embedding"].combine_chunks().flatten())
            .reshape(-1, dim)
            .astype(np.float64)
        )
        vid = batch["chunk_uid"].combine_chunks().to_numpy(zero_copy_only=False)
        S = np.asarray(ray.get(qref), dtype=np.float64) @ M.T
        out_q, out_v, out_s = [], [], []
        for qi in range(S.shape[0]):
            if not live[qi]:
                continue
            keep = topk_order(vid, np.round(S[qi], 6), topk)
            out_q.append(np.full(keep.size, qi, dtype=np.int64))
            out_v.append(vid[keep])
            out_s.append(S[qi][keep])
        return _knn_partials_table(out_q, out_v, out_s)

    parts = (
        ray.data.read_parquet(
            os.path.join(store_dir, "chunks.parquet"),
            columns=["chunk_uid", "embedding"],
        )
        .map_batches(f, batch_format="pyarrow")
        .to_pandas()
    )
    if parts.empty:  # all-empty partials can arrive column-less from Ray
        from web_search_engine_ray.pipelines.similarity import _empty_knn_table

        return _empty_knn_table()
    return _merge_query_topk(parts, topk)


# ---------------------------------------------------------------------------
# IVF-routed retrieval — the 100-TB serving path.  The exact scan above stays
# as the oracle path (and the driver-gate `rag_topk` entry); this variant
# re-layouts the store into per-cell parquet files so a query reads only its
# ``nprobe`` probed cells (a partition-pruned read, the `similarity.ivf_knn`
# discipline) instead of every chunk embedding.
# ---------------------------------------------------------------------------

IVF_CELLS = 16
IVF_NPROBE = 4
IVF_SAMPLE_ROWS = 2048
# bump when the on-disk cell-file layout changes: a cached ivf/ dir built
# by an older engine is silently WRONG to read (v2 fixed shard-coalesced
# cell files), so a version mismatch auto-rebuilds instead of resuming
IVF_LAYOUT_VERSION = 2


def build_rag_ivf(store_dir: str, n_cells: int = IVF_CELLS) -> dict:
    """Re-layout ``<store_dir>/chunks.parquet`` into ``<store_dir>/ivf/``:
    one parquet file per coarse-quantizer cell (chunk_uid, cell, embedding)
    plus ``centroids.npy`` and an ``ivf.json`` marker. Training is the
    bounded-sample spherical k-means from ``similarity._train_centroids``
    (driver-side, corpus-size independent); assignment + writes stream
    through Ray Data. Resumable: a rerun with the same params + store
    fingerprint is metadata-only; changed params raise (drift guard); an
    older engine's layout version triggers a rebuild, not an error."""
    import pyarrow.parquet as pq
    import ray

    from web_search_engine_ray.pipelines.similarity import _norm_rows
    from web_search_engine_ray.stages.exchange import exchange_map, map_refs, read_refs
    from web_search_engine_ray.functions.arrays import list_matrix

    chunks_path = os.path.join(store_dir, "chunks.parquet")
    with open(os.path.join(store_dir, "rag_store.json")) as f:
        store = json.load(f)
    params = {
        "n_cells": n_cells,
        "store_fp": store["params"]["corpus_fp"],
        "n_chunks": store["n_chunks"],
        "layout": IVF_LAYOUT_VERSION,
    }
    ivf_dir = os.path.join(store_dir, "ivf")
    marker = os.path.join(ivf_dir, "ivf.json")
    if os.path.exists(marker):
        with open(marker) as f:
            prev = json.load(f)
        if prev.get("params") == params:
            prev["resumed"] = True
            # JSON round-trip stringifies the cell keys; keep the resumed
            # report shape identical to a fresh build's (int keys)
            prev["cell_counts"] = {
                int(k): v for k, v in prev.get("cell_counts", {}).items()
            }
            return prev
        prev_p = dict(prev.get("params") or {})
        if prev_p.get("layout") != params["layout"] and {
            k: v for k, v in prev_p.items() if k != "layout"
        } == {k: v for k, v in params.items() if k != "layout"}:
            # same user params, older engine layout: the cached dir may be
            # wrong to read (pre-v2 shard-coalesced files) — rebuild it
            import shutil as _sh

            _sh.rmtree(ivf_dir, ignore_errors=True)
        else:
            raise ValueError(
                f"ivf layout exists with different parameters "
                f"({prev.get('params')} != {params}); rebuild the store"
            )
    os.makedirs(ivf_dir, exist_ok=True)

    # bounded training sample: first IVF_SAMPLE_ROWS chunk embeddings via
    # row-group-ranged reads — never the full store on the driver
    import pyarrow.dataset as pds

    sample = []
    got = 0
    for batch in pds.dataset(chunks_path).to_batches(
        columns=["embedding"], batch_size=IVF_SAMPLE_ROWS
    ):
        if batch.num_rows == 0:
            continue
        sample.append(pa.Table.from_batches([batch]))
        got += batch.num_rows
        if got >= IVF_SAMPLE_ROWS:
            break
    if not sample:
        raise ValueError(f"rag store at {store_dir} has no chunks to index")
    S = list_matrix(
        pa.concat_tables(sample).slice(0, IVF_SAMPLE_ROWS)["embedding"]
    )
    # store embeddings are already L2-normalized (zero rows stay zero)
    rng = np.random.Generator(np.random.Philox(key=777))
    C = S[rng.choice(S.shape[0], size=min(n_cells, S.shape[0]), replace=False)]
    for _ in range(8):
        assign = (S @ C.T).argmax(axis=1)
        for c in range(C.shape[0]):
            m = assign == c
            if m.any():
                C[c] = S[m].mean(axis=0)
            else:
                C[c] = S[int(rng.integers(0, S.shape[0]))]
        C = _norm_rows(C)
    C = C.astype(np.float32)
    cref = ray.put(C)

    def assign_cells(t: pa.Table) -> pa.Table:
        cents = ray.get(cref)
        V = list_matrix(t["embedding"], dtype=np.float32)
        cell = (V.astype(np.float64) @ cents.T.astype(np.float64)).argmax(
            axis=1
        )
        return pa.table(
            {
                "chunk_uid": t["chunk_uid"],
                "cell": pa.array(cell.astype(np.int64)),
                "embedding": t["embedding"],
            }
        )

    assigned = map_refs(assign_cells, read_refs(chunks_path, ["chunk_uid", "embedding"]))

    # one file per cell: the probe-side read prunes at the FILE level, the
    # on-disk analogue of a partition-pruned read on a real object store
    import shutil

    tmp = ivf_dir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)

    def route(t: pa.Table) -> np.ndarray:
        return t["cell"].combine_chunks().to_numpy(zero_copy_only=False)

    def write_cell(t: pa.Table, cell: int) -> pa.Table:
        # partition i holds exactly cell i's chunks; an empty cell writes
        # no file, so the file set equals the assigned cell set
        if t.num_rows == 0:
            return pa.table({"cell": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        os.makedirs(tmp, exist_ok=True)
        pq.write_table(t.sort_by("chunk_uid"), os.path.join(tmp, f"cell_{cell:05d}.parquet"))
        return pa.table({"cell": pa.array([cell], pa.int64()),
                         "n": pa.array([t.num_rows], pa.int64())})

    parts = exchange_map(assigned, route, n_cells, write_cell, with_index=True)
    counts = pa.concat_tables(ray.get(parts)).to_pandas()
    np.save(os.path.join(ivf_dir, "centroids.npy"), C)
    # a fresh build replaces the whole cell set: cells left by an earlier
    # build that crashed before its marker would otherwise be probed
    for f_ in os.listdir(ivf_dir):
        if f_.startswith("cell_") and f_.endswith(".parquet"):
            os.remove(os.path.join(ivf_dir, f_))
    for f_ in os.listdir(tmp):
        os.replace(os.path.join(tmp, f_), os.path.join(ivf_dir, f_))
    shutil.rmtree(tmp, ignore_errors=True)
    rep = {
        "params": params,
        "n_cells_nonempty": int(len(counts)),
        "cell_counts": {
            int(r.cell): int(r.n) for r in counts.itertuples()
        },
        "resumed": False,
    }
    with open(marker + ".tmp", "w") as f:
        json.dump(rep, f)
    os.replace(marker + ".tmp", marker)
    return rep


def rag_topk_ivf(
    store_dir: str,
    queries: list[str],
    topk: int = 5,
    nprobe: int = IVF_NPROBE,
) -> pa.Table:
    """(query_id, vec_id, cos) like :func:`rag_topk`, but each query scans
    only its ``nprobe`` nearest IVF cells: the read is pruned to the UNION
    of probed cell files (at 100 TB: a partition-pruned object-store read
    of nprobe/n_cells of the data), and inside a batch each query masks to
    its own probed cells. Same embedder, same merge, same tie contract —
    recall vs the exact scan is pinned in tests/test_rag.py."""
    import ray
    import ray.data

    from web_search_engine_ray.pipelines.similarity import (
        _empty_knn_table,
        _knn_partials_table,
        _merge_query_topk,
    )
    from web_search_engine_ray.functions.arrays import list_matrix

    ivf_dir = os.path.join(store_dir, "ivf")
    with open(os.path.join(store_dir, "rag_store.json")) as f:
        dim = int(json.load(f)["params"]["dim"])
    C = np.load(os.path.join(ivf_dir, "centroids.npy"))
    Q = hash_embed_matrix(pa.chunked_array([pa.array(queries)]), dim)
    live = np.linalg.norm(Q, axis=1) > 0
    qcells = np.argsort(
        -(Q.astype(np.float64) @ C.T.astype(np.float64)), axis=1, kind="stable"
    )[:, :nprobe]
    probed = sorted({int(c) for qi in range(Q.shape[0]) if live[qi]
                     for c in qcells[qi]})
    files = [
        os.path.join(ivf_dir, f"cell_{c:05d}.parquet")
        for c in probed
        if os.path.exists(os.path.join(ivf_dir, f"cell_{c:05d}.parquet"))
    ]
    if not files:
        return _empty_knn_table()
    qref = ray.put((Q, qcells))

    def f(batch: pa.Table) -> pa.Table:
        qm, probes = ray.get(qref)
        M = list_matrix(batch["embedding"], dtype=np.float64)
        vid = batch["chunk_uid"].combine_chunks().to_numpy(zero_copy_only=False)
        cell = batch["cell"].combine_chunks().to_numpy(zero_copy_only=False)
        # ONE matmul for every query against the whole block (the exact
        # path's shape — measured 2x faster than a per-query gather +
        # matvec at 4.8M chunks), then per-query probe masking on the
        # SCORES: gathering score entries is ~dim x cheaper than
        # re-gathering embedding rows.
        S = qm.astype(np.float64) @ M.T
        # probe membership via a small lookup table over the block's cell
        # ids instead of one np.isin sort per query
        ncells = int(cell.max()) + 1 if cell.size else 0
        out_q, out_v, out_s = [], [], []
        for qi in range(qm.shape[0]):
            if not live[qi] or ncells == 0:
                continue
            pm = np.zeros(ncells, dtype=bool)
            p = probes[qi]
            pm[p[p < ncells]] = True
            idx = np.flatnonzero(pm[cell])
            if idx.size == 0:
                continue
            s = S[qi, idx]
            v = vid[idx]
            keep = topk_order(v, np.round(s, 6), topk)
            out_q.append(np.full(keep.size, qi, dtype=np.int64))
            out_v.append(v[keep])
            out_s.append(s[keep])
        return _knn_partials_table(out_q, out_v, out_s)

    parts = (
        ray.data.read_parquet(files, columns=["chunk_uid", "cell", "embedding"])
        .map_batches(f, batch_format="pyarrow")
        .to_pandas()
    )
    if parts.empty:
        return _empty_knn_table()
    return _merge_query_topk(parts, topk)
