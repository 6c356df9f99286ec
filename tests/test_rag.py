"""RAG store contracts: deterministic hashed embeddings, exact-chunk
retrieval (a query equal to a chunk's text must rank that chunk first with
cosine ~1.0), resume + drift-guard semantics, zero-token queries."""

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


def test_hash_embed_deterministic_and_normalized():
    from web_search_engine_ray.pipelines.rag import hash_embed_matrix

    texts = pa.chunked_array(
        [pa.array(["the quick brown fox", "", "the quick brown fox", "data spark"])]
    )
    M = hash_embed_matrix(texts, 32)
    assert M.shape == (4, 32) and M.dtype == np.float32
    assert np.array_equal(M[0], M[2])  # same text -> same vector
    assert np.linalg.norm(M[1]) == 0.0  # token-less -> zero vector
    for i in (0, 3):
        assert np.linalg.norm(M[i]) == pytest.approx(1.0, abs=1e-6)


def test_hash_embed_no_polars_deprecation():
    """The token explode keeps empty rows as nulls under its explicit
    ``empty_as_null`` (Polars 2.0 flips the default)."""
    import warnings

    from web_search_engine_ray.pipelines.rag import hash_embed_matrix

    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        M = hash_embed_matrix(pa.chunked_array([pa.array(["", "a b"])]))
    assert np.linalg.norm(M[0]) == 0.0
    assert np.linalg.norm(M[1]) == pytest.approx(1.0, abs=1e-6)


@pytest.fixture(scope="module")
def store(ray_session, tmp_path_factory):
    from web_search_engine_ray.pipelines.rag import build_rag_store

    out = str(tmp_path_factory.mktemp("rag_store"))
    rep = build_rag_store(SF, out, window=16, stride=8)
    return out, rep


def test_store_build_resume_and_drift(store):
    from web_search_engine_ray.pipelines.rag import build_rag_store

    out, rep = store
    assert rep["n_chunks"] > 0 and rep["resumed"] is False
    rep2 = build_rag_store(SF, out, window=16, stride=8)
    assert rep2["resumed"] is True and rep2["n_chunks"] == rep["n_chunks"]
    with pytest.raises(ValueError, match="different parameters"):
        build_rag_store(SF, out, window=16, stride=4)


def test_exact_chunk_query_ranks_first(store):
    from web_search_engine_ray.pipelines.rag import rag_topk

    out, _ = store
    t = pq.read_table(os.path.join(out, "chunks.parquet"))
    # pick two chunks with >= 4 tokens as literal queries
    rows = t.to_pylist()
    probes = [r for r in rows if r["n_tokens"] >= 4][:2]
    assert probes
    res = rag_topk(out, [p["text"] for p in probes], topk=3).to_pandas()
    for qi, p in enumerate(probes):
        grp = res[res["query_id"] == qi]
        assert len(grp) == 3
        top = grp.iloc[0]
        assert top["cos"] == pytest.approx(1.0, abs=1e-5)
        # the probe chunk itself must be among the cos~1 hits (identical
        # token multisets elsewhere may tie at 1.0 with a smaller uid)
        ones = grp[grp["cos"] >= 1.0 - 1e-6]["vec_id"].tolist()
        assert p["chunk_uid"] in ones or top["vec_id"] == p["chunk_uid"]


def test_zero_token_query_returns_nothing(store):
    from web_search_engine_ray.pipelines.rag import rag_topk

    out, _ = store
    res = rag_topk(out, ["", "%%%"], topk=3).to_pandas()
    assert len(res) == 0


def test_rag_topk_deterministic(store):
    from web_search_engine_ray.pipelines.rag import rag_topk

    out, _ = store
    a = rag_topk(out, ["data spark merge"], topk=5).to_pandas()
    b = rag_topk(out, ["data spark merge"], topk=5).to_pandas()
    assert a.equals(b)
    assert (a["cos"].diff().dropna() <= 1e-12).all()  # sorted desc


def test_chunk_uid_roundtrip(store):
    from web_search_engine_ray.pipelines.rag import CHUNK_UID_SHIFT

    out, _ = store
    t = pq.read_table(os.path.join(out, "chunks.parquet"), columns=["chunk_uid", "docid", "chunk_idx"])
    uid = t["chunk_uid"].to_numpy()
    assert np.array_equal(uid >> CHUNK_UID_SHIFT, t["docid"].to_numpy())
    assert np.array_equal(uid & ((1 << CHUNK_UID_SHIFT) - 1), t["chunk_idx"].to_numpy())


def test_ivf_build_resume_and_drift(store):
    from web_search_engine_ray.pipelines.rag import build_rag_ivf

    out, _ = store
    rep = build_rag_ivf(out, n_cells=8)
    assert not rep["resumed"]
    assert sum(rep["cell_counts"].values()) == json.load(
        open(os.path.join(out, "rag_store.json"))
    )["n_chunks"]  # every chunk lands in exactly one cell
    rep2 = build_rag_ivf(out, n_cells=8)
    assert rep2["resumed"]
    with pytest.raises(ValueError, match="different parameters"):
        build_rag_ivf(out, n_cells=4)


def test_ivf_layout_version_rebuilds_not_raises(store):
    """A cached ivf/ dir written by an older engine layout must be
    rebuilt in place (it may be wrong to read), while genuine user-param
    drift still raises."""
    from web_search_engine_ray.pipelines.rag import build_rag_ivf

    out, _ = store
    build_rag_ivf(out, n_cells=8)
    marker = os.path.join(out, "ivf", "ivf.json")
    rep = json.load(open(marker))
    rep["params"]["layout"] = 1  # pretend an older engine wrote it
    json.dump(rep, open(marker, "w"))
    rep2 = build_rag_ivf(out, n_cells=8)
    assert rep2["resumed"] is False  # rebuilt, not resumed, not raised
    assert json.load(open(marker))["params"]["layout"] != 1


def test_ivf_file_set_equals_cell_set(store):
    """The writer emits one cell-pure file per ACTUAL assigned cell, or
    probe-side reads (which open only ``cell_<c>.parquet`` for probed
    ``c``) silently miss rows."""
    from web_search_engine_ray.pipelines.rag import build_rag_ivf

    out, _ = store
    rep = build_rag_ivf(out, n_cells=8)
    ivf_dir = os.path.join(out, "ivf")
    files = sorted(f for f in os.listdir(ivf_dir) if f.endswith(".parquet"))
    file_cells = {int(f[len("cell_"):-len(".parquet")]) for f in files}
    assert file_cells == set(rep["cell_counts"])  # one file per assigned cell
    total = 0
    for f in files:
        t = pq.read_table(os.path.join(ivf_dir, f), columns=["cell"])
        got = set(t["cell"].to_pylist())
        assert got == {int(f[len("cell_"):-len(".parquet")])}  # cell-pure
        total += t.num_rows
    n_chunks = json.load(open(os.path.join(out, "rag_store.json")))["n_chunks"]
    assert total == n_chunks  # no row lost or duplicated by the re-layout


def test_ivf_fresh_build_drops_stale_cells(store):
    """A build that crashed after moving cells in but before writing its
    marker leaves cell files behind; the next (fresh) build must remove
    them, or probe-side reads would pick them up."""
    from web_search_engine_ray.pipelines.rag import build_rag_ivf

    out, _ = store
    rep = build_rag_ivf(out, n_cells=8)
    ivf_dir = os.path.join(out, "ivf")
    os.remove(os.path.join(ivf_dir, "ivf.json"))  # crash before the marker
    stale = os.path.join(ivf_dir, "cell_00099.parquet")
    some_cell = sorted(f for f in os.listdir(ivf_dir) if f.startswith("cell_"))[0]
    pq.write_table(pq.read_table(os.path.join(ivf_dir, some_cell)), stale)
    rep2 = build_rag_ivf(out, n_cells=8)
    assert rep2["resumed"] is False
    assert not os.path.exists(stale)
    files = {f for f in os.listdir(ivf_dir) if f.endswith(".parquet")}
    assert files == {f"cell_{c:05d}.parquet" for c in rep2["cell_counts"]}
    assert rep2["cell_counts"] == rep["cell_counts"]


def test_ivf_recall_floor_and_determinism(store):
    from web_search_engine_ray.pipelines.rag import (
        build_rag_ivf,
        rag_topk,
        rag_topk_ivf,
    )

    out, _ = store
    build_rag_ivf(out, n_cells=8)
    queries = ["spark join", "data window", "merge sort stream", "vector"]
    exact = rag_topk(out, queries, topk=5).to_pandas()
    a = rag_topk_ivf(out, queries, topk=5, nprobe=3).to_pandas()
    b = rag_topk_ivf(out, queries, topk=5, nprobe=3).to_pandas()
    assert a.equals(b)  # deterministic
    ep = set(zip(exact["query_id"], exact["vec_id"]))
    ip = set(zip(a["query_id"], a["vec_id"]))
    assert len(ep & ip) / max(1, len(ep)) >= 0.6
    # every IVF cos is the TRUE cosine: the probed subset never rescores
    merged = a.merge(exact, on=["query_id", "vec_id"], suffixes=("_i", "_e"))
    assert (merged["cos_i"] - merged["cos_e"]).abs().max() <= 1e-9


def test_ivf_prunes_the_read(store):
    """The probe-side read must touch only the probed cells' files."""
    from web_search_engine_ray.pipelines.rag import (
        IVF_CELLS,
        build_rag_ivf,
        rag_topk_ivf,
    )

    out, _ = store
    build_rag_ivf(out, n_cells=8)
    ivf_dir = os.path.join(out, "ivf")
    n_files = len([f for f in os.listdir(ivf_dir) if f.endswith(".parquet")])
    assert n_files > 3  # corpus spreads over multiple cells
    got = rag_topk_ivf(out, ["spark join"], topk=5, nprobe=1).to_pandas()
    # nprobe=1 rows all come from ONE cell: every returned chunk_uid must
    # be in the single probed cell's file
    import numpy as np
    import pyarrow.parquet as pq_

    from web_search_engine_ray.pipelines.rag import hash_embed_matrix

    C = np.load(os.path.join(ivf_dir, "centroids.npy"))
    Q = hash_embed_matrix(pa.chunked_array([pa.array(["spark join"])]), 64)
    cell = int((Q.astype(np.float64) @ C.T.astype(np.float64)).argmax())
    in_cell = set(
        pq_.read_table(
            os.path.join(ivf_dir, f"cell_{cell:05d}.parquet"),
            columns=["chunk_uid"],
        )["chunk_uid"].to_pylist()
    )
    assert set(got["vec_id"]) <= in_cell
