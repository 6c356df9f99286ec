"""k-means contracts: Lloyd's inertia descent, empty-cluster survival,
seed validation. The value-level oracle check (chained-CTE DuckDB twin)
runs in the driver gate (`kmeans` entry)."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from web_search_engine_ray.pipelines.clustering import kmeans_ds, kmeans_inertia

SF = "/root/testdata/sf0.001"


def test_inertia_nonincreasing(ray_session):
    i0 = kmeans_inertia(SF, k=8, iters=0)
    i1 = kmeans_inertia(SF, k=8, iters=1)
    i2 = kmeans_inertia(SF, k=8, iters=2)
    assert i0 >= i1 >= i2
    assert i2 < i0  # and it actually moved on this corpus


def _write_embs(d, vecs):
    os.makedirs(d)
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(range(len(vecs)), pa.int64()),
                "embedding": pa.array(
                    [list(map(float, v)) for v in vecs], pa.list_(pa.float32())
                ),
            }
        ),
        os.path.join(d, "embeddings.parquet"),
    )


def test_empty_cluster_keeps_seed_centroid(ray_session, tmp_path):
    """Duplicate seeds: every point is nearer seed 0 (or exactly tied, and
    ties take the smaller cid), so cluster 1 goes empty after the first
    update — it must keep its centroid, not crash or shrink k."""
    d = str(tmp_path / "embs")
    _write_embs(d, [[0, 0], [0, 0], [1, 0], [0.9, 0.1], [1.1, 0.0]])
    got = (
        kmeans_ds(d, k=2, iters=2)
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    # vec 0,1 identical at origin -> cluster 0; the 1-ish points tie-break
    # between the two identical seeds... seeds are [0,0] and [0,0], so ALL
    # points tie -> all cluster 0; after update c0 moves to the mean, c1
    # stays at the seed. Final assignment: points near origin -> whichever
    # centroid is nearer now.
    assert set(got["cluster"]) <= {0, 1}
    assert len(got) == 5


def test_seed_shortage_raises(ray_session, tmp_path):
    d = str(tmp_path / "few")
    _write_embs(d, [[1, 2], [3, 4]])
    with pytest.raises(ValueError, match="seed"):
        kmeans_ds(d, k=8)


def test_bad_params_raise(ray_session):
    with pytest.raises(ValueError, match="k >= 1"):
        kmeans_ds(SF, k=0)


def test_iters_zero_is_pure_seed_assignment(ray_session, tmp_path):
    """iters=0 must assign against the raw seeds — a direct numpy replay."""
    d = str(tmp_path / "raw")
    vecs = [[0, 0], [4, 0], [1, 0], [3, 0], [2, 0]]
    _write_embs(d, vecs)
    got = (
        kmeans_ds(d, k=2, iters=0)
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    X = np.array(vecs, float)
    C = X[:2]
    d2 = ((X[:, None, :] - C[None, :, :]) ** 2).sum(-1)
    want = np.argmin(d2, axis=1)  # [0, 1, 0, 1, 0] (vec 4 at x=2 ties -> 0)
    assert got["cluster"].tolist() == want.tolist()
    assert got["dist"].tolist() == pytest.approx(
        np.sqrt(d2[np.arange(5), want]).round(6).tolist()
    )


def test_semdedup_drops_within_cluster_only(ray_session, tmp_path):
    """Exact duplicate in one cluster -> larger vec_id dropped; a near-dup
    pair that k-means separates into different clusters survives (the
    documented SemDeDup semantics — similarity never crosses clusters)."""
    from web_search_engine_ray.pipelines.clustering import semdedup_ds

    d = str(tmp_path / "sd")
    # seeds (k=2): [1,0] and [-1,0] -> two well-separated clusters
    _write_embs(
        d,
        [
            [1.0, 0.0],  # 0 seed A
            [-1.0, 0.0],  # 1 seed B
            [1.0, 0.0],  # 2 exact dup of 0 -> dropped
            [0.99, 0.01],  # 3 near-dup of 0, same cluster -> dropped
            [-0.99, -0.01],  # 4 near-dup of 1, same cluster -> dropped
            [0.0, 1.0],  # 5 orthogonal to both -> survives wherever it lands
        ],
    )
    got = semdedup_ds(d, tau=0.95, k=2, iters=1).to_pandas()
    assert sorted(got["vec_id"]) == [0, 1, 5]


def test_semdedup_tau_monotone(ray_session):
    from web_search_engine_ray.pipelines.clustering import semdedup_ds

    lo = semdedup_ds(SF, tau=0.45).count()
    hi = semdedup_ds(SF, tau=0.99).count()
    assert lo <= hi  # stricter threshold drops fewer


def test_pca_matches_numpy_replay(ray_session):
    """Distributed covariance fit == single-process numpy PCA (same sign
    convention), and projections reproduce (X - mean) @ comps.T."""
    import pyarrow.parquet as pq

    from web_search_engine_ray.pipelines.clustering import (
        pca_model,
        pca_project_ds,
    )

    mean, comps, var = pca_model(SF, n_components=4)
    X = np.array(
        pq.read_table(
            f"{SF}/embeddings.parquet", columns=["embedding"]
        )["embedding"].to_pylist(),
        dtype=np.float64,
    )
    assert mean == pytest.approx(X.mean(axis=0))
    C = np.cov(X, rowvar=False)
    w, v = np.linalg.eigh(C)
    order = np.argsort(w)[::-1][:4]
    want = v[:, order].T
    flip = np.sign(want[np.arange(4), np.abs(want).argmax(axis=1)])
    want = want * flip[:, None]
    assert comps == pytest.approx(want, abs=1e-8)
    assert var == pytest.approx(w[order])
    assert (np.diff(var) <= 1e-12).all()  # variance sorted descending

    got = pca_project_ds(SF, n_components=4).to_pandas().sort_values("vec_id")
    P = got[["pc0", "pc1", "pc2", "pc3"]].to_numpy()
    assert P == pytest.approx((X - mean) @ comps.T, abs=1e-8)


def test_pca_bad_components_raise(ray_session):
    from web_search_engine_ray.pipelines.clustering import pca_model

    with pytest.raises(ValueError, match="n_components"):
        pca_model(SF, n_components=0)
    with pytest.raises(ValueError, match="n_components"):
        pca_model(SF, n_components=10_000)


def test_centroid_classify_planted(ray_session, tmp_path_factory):
    """Two well-separated label clusters -> accuracy 1.0; a vector planted
    nearer the other centroid is the only miss."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from web_search_engine_ray.pipelines.clustering import centroid_classify_table

    d = tmp_path_factory.mktemp("cc_emb")
    vecs = [
        [0.0, 0.0], [0.2, 0.0], [0.0, 0.2],   # label 0, centroid ~ (0.07, 0.07)
        [5.0, 5.0], [5.2, 5.0],               # label 1, centroid (5.1, 5.0)
        [5.0, 5.2],                           # label 0 but deep in cluster 1
    ]
    labels = [0, 0, 0, 1, 1, 0]
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(range(6), pa.int64()),
                "embedding": pa.array(
                    [list(map(float, v)) for v in vecs], pa.list_(pa.float32())
                ),
                "label": pa.array(labels, pa.int32()),
            }
        ),
        str(d / "embeddings.parquet"),
    )
    got = centroid_classify_table(str(d)).to_pandas().set_index("label")
    assert got.loc[0, "n"] == 4 and got.loc[1, "n"] == 2
    assert got.loc[1, "n_correct"] == 2 and got.loc[1, "accuracy"] == 1.0
    # the planted outlier is label 0's single miss
    assert got.loc[0, "n_correct"] == 3 and got.loc[0, "accuracy"] == 0.75


def test_centroid_classify_matches_oracle(ray_session, oracle_eq):
    import duckdb
    import pandas as pd

    import __ray_entry__ as entrymod

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW embeddings AS SELECT * FROM read_parquet('{sf}/embeddings.parquet')"
    )
    got = entrymod.queries()["centroid_classify"](sf).to_pandas()
    want = con.sql(entrymod.oracle_sql()["centroid_classify"]).df()


    oracle_eq(got, want)


def test_block_partials_log_no_schema_mismatch(ray_session, tmp_path, capfd):
    """k-means, PCA and centroid classify run their per-block partials as
    plain tasks over one read of the table. A Ray Data map would skip its
    UDF on the read's empty blocks (a 6-row file reads as several blocks,
    some empty) and log "different schema"; here every block, empty or
    not, goes through the partial, so nothing is logged. Ray Data's
    loggers write to stderr and do not propagate to the root logger, so
    the check reads stderr."""
    from web_search_engine_ray.pipelines.clustering import (
        centroid_classify_table,
        pca_project_ds,
    )

    d = str(tmp_path / "six")
    _write_embs(d, [[0, 0], [0.2, 0], [0, 0.2], [5, 5], [5.2, 5], [5, 5.2]])
    t = pq.read_table(os.path.join(d, "embeddings.parquet"))
    pq.write_table(
        t.append_column("label", pa.array([0, 0, 0, 1, 1, 0], pa.int32())),
        os.path.join(d, "embeddings.parquet"),
    )
    capfd.readouterr()
    assert len(kmeans_ds(d, k=2, iters=2).to_pandas()) == 6
    assert len(pca_project_ds(d, n_components=2).to_pandas()) == 6
    assert centroid_classify_table(d).to_pandas()["n"].tolist() == [4, 2]
    assert "different schema" not in capfd.readouterr().err
