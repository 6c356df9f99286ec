"""Connected components over dup-pair relations (pipelines/graph.py)."""

import numpy as np
import pyarrow as pa
import pytest

from web_search_engine_ray.pipelines.graph import connected_components


def _pairs_ds(pairs):
    import ray.data

    a = [p[0] for p in pairs]
    b = [p[1] for p in pairs]
    return ray.data.from_arrow(
        pa.table(
            {
                "docid_a": pa.array(a, pa.int64()),
                "docid_b": pa.array(b, pa.int64()),
            }
        )
    )


def _labels(pairs, **kw):
    ds = connected_components(_pairs_ds(pairs), **kw)
    rows = ds.take_all()
    return {r["docid"]: r["cluster_id"] for r in rows}


def _oracle(pairs):
    """Driver-side union-find, the ground truth."""
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {x: find(x) for x in parent}


def test_chain(ray_session):
    # long chain: worst-case diameter for the propagation
    pairs = [(i, i + 1) for i in range(10, 25)]
    assert _labels(pairs) == _oracle(pairs)
    assert set(_labels(pairs).values()) == {10}


def test_star_and_cycle(ray_session):
    pairs = [(100, x) for x in (101, 102, 103, 104)] + [(7, 8), (8, 9), (9, 7)]
    got = _labels(pairs)
    assert got == _oracle(pairs)
    assert got[104] == 100 and got[9] == 7


def test_two_components_and_dup_edges(ray_session):
    pairs = [(1, 2), (2, 3), (2, 3), (3, 1), (50, 60)]
    got = _labels(pairs)
    assert got == _oracle(pairs)
    assert got[3] == 1 and got[60] == 50 and got[50] == 50


def test_empty_relation(ray_session):
    assert _labels([]) == {}


def test_randomized_vs_union_find(ray_session):
    rng = np.random.Generator(np.random.Philox(key=42))
    nodes = rng.integers(0, 200, size=(150, 2))
    pairs = [(int(a), int(b)) for a, b in nodes if a != b]
    assert _labels(pairs) == _oracle(pairs)


@pytest.mark.parametrize("n_parts", [4, 64])
def test_partition_count_invariance(ray_session, monkeypatch, n_parts):
    """Every round runs at the one count ``exchange.chain_parts`` sizes
    from the pair read; forcing it to 4 or 64 gives union-find's labels."""
    from web_search_engine_ray.pipelines import graph
    from web_search_engine_ray.stages import exchange

    seen: list = []
    real_exchange_map = graph.exchange_map

    def exchange_map(refs, part, n, fn):
        seen.append(n)
        return real_exchange_map(refs, part, n, fn)

    monkeypatch.setattr(exchange, "chain_parts", lambda refs: n_parts)
    monkeypatch.setattr(graph, "exchange_map", exchange_map)
    pairs = [(i, i + 3) for i in range(0, 30)]
    assert _labels(pairs) == _oracle(pairs)
    assert seen and set(seen) == {n_parts}


def test_connected_components_runs_on_block_refs(ray_session, monkeypatch):
    """After its one read of the pair relation, connected components runs
    on block refs alone: ``Dataset.map_batches``, ``.union`` and
    ``.materialize`` raise once the read is done, and
    ``ray.data.from_arrow_refs`` is called exactly once, on the final
    labels; the labels still equal union-find's."""
    import ray.data

    pairs = [(i, i + 1) for i in range(10, 25)] + [(100, 101), (7, 8), (8, 7)]
    ds = _pairs_ds(pairs).map_batches(lambda t: t, batch_format="pyarrow")  # lazy
    read_done: list = []
    made: list = []
    real_materialize = ray.data.Dataset.materialize
    real_from_refs = ray.data.from_arrow_refs

    def materialize(self, *a, **k):
        if read_done:
            raise AssertionError("Ray Data materialize after the pair read")
        out = real_materialize(self, *a, **k)
        read_done.append(True)
        return out

    def refuse_after_read(name):
        real = getattr(ray.data.Dataset, name)

        def f(self, *a, **k):
            if read_done:
                raise AssertionError(f"Ray Data {name} after the pair read")
            return real(self, *a, **k)

        return f

    def from_arrow_refs(refs):
        made.append(len(refs))
        return real_from_refs(refs)

    monkeypatch.setattr(ray.data.Dataset, "materialize", materialize)
    for name in ("map_batches", "union"):
        monkeypatch.setattr(ray.data.Dataset, name, refuse_after_read(name))
    monkeypatch.setattr(ray.data, "from_arrow_refs", from_arrow_refs)
    out = connected_components(ds)
    assert read_done and len(made) == 1, made
    got = {r["docid"]: r["cluster_id"] for r in out.take_all()}
    assert got == _oracle(pairs)


def test_dedup_clusters_vs_duckdb(ray_session):
    """dedup_clusters over sf0.001 == DuckDB recursive-CTE closure."""
    import duckdb

    from web_search_engine_ray.pipelines.graph import dedup_clusters_ds

    sf = "/root/testdata/sf0.001"
    got = {
        r["docid"]: r["cluster_id"] for r in dedup_clusters_ds(sf, tau=0.8).take_all()
    }
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf}/documents.parquet')"
    )
    tok = "regexp_extract_all(lower(text), '[a-z0-9]+(?:[.-][a-z0-9]+)*')"
    want = dict(
        con.execute(
            f"""
WITH RECURSIVE t AS (SELECT doc_id, {tok} AS ws FROM documents),
 sh AS (SELECT doc_id, list_distinct([ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2]
                                      for i in range(1, len(ws)-1)]) AS s
        FROM t WHERE len(ws) >= 3),
 pairs AS (SELECT a.doc_id AS docid_a, b.doc_id AS docid_b
           FROM sh a JOIN sh b ON a.doc_id < b.doc_id
           WHERE len(list_intersect(a.s, b.s))::DOUBLE
                 / (len(a.s) + len(b.s) - len(list_intersect(a.s, b.s))) >= 0.8),
 edges AS (SELECT docid_a AS u, docid_b AS v FROM pairs
           UNION SELECT docid_b, docid_a FROM pairs),
 reach(u, v) AS (SELECT u, v FROM edges
                 UNION SELECT r.u, e.v FROM reach r JOIN edges e ON e.u = r.v)
SELECT u, least(u, min(v)) FROM reach GROUP BY u
"""
        ).fetchall()
    )
    assert got == want and len(got) > 0


# -- PageRank ----------------------------------------------------------------


def _pagerank_numpy(edges, n, n_iter=20, d=0.85):
    """Independent dense replay: same update expression, plain numpy."""
    import numpy as np

    w = np.zeros((n, n))
    for s, t, ww in edges:
        w[s, t] += ww
    outw = w.sum(axis=1)
    r = np.full(n, 1.0 / n)
    for _ in range(n_iter):
        contrib = np.zeros(n)
        for s in range(n):
            if outw[s]:
                contrib += (w[s] / outw[s]) * r[s]
        dang = r[outw == 0].sum()
        r = (1 - d) / n + d * (contrib + dang / n)
    return r


def test_pagerank_planted(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data

    from web_search_engine_ray.pipelines.graph import pagerank_ds

    # cycle -> uniform; with a dangling node the mass redistributes
    edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]
    ds = ray.data.from_arrow(
        pa.table(
            {
                "src": pa.array([e[0] for e in edges], pa.int64()),
                "dst": pa.array([e[1] for e in edges], pa.int64()),
                "w": pa.array([e[2] for e in edges], pa.float64()),
            }
        )
    )
    r = pagerank_ds(ds, 3)
    assert np.allclose(r, 1.0 / 3, atol=1e-12)
    # asymmetric graph + dangling node 3 vs the independent dense replay
    edges = [(0, 1, 2.0), (0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0)]
    ds = ray.data.from_arrow(
        pa.table(
            {
                "src": pa.array([e[0] for e in edges], pa.int64()),
                "dst": pa.array([e[1] for e in edges], pa.int64()),
                "w": pa.array([e[2] for e in edges], pa.float64()),
            }
        )
    )
    r = pagerank_ds(ds, 4)
    assert np.allclose(r, _pagerank_numpy(edges, 4), atol=1e-12)
    assert abs(r.sum() - 1.0) < 1e-9  # probability mass conserved


def test_pagerank_distributed_100k(ray_session):
    """The broadcast-rank iteration path at a node count where per-batch
    DENSE partials would be wrong to ship: 100k nodes, ~400k edges across
    many blocks == the numpy replay on the same edges."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from web_search_engine_ray.pipelines.graph import pagerank_ds

    n = 100_000
    rng = np.random.default_rng(7)
    src = rng.integers(0, n, 400_000)
    dst = (src + rng.integers(1, 1000, src.size)) % n
    t = pa.table(
        {
            "src": pa.array(src, pa.int64()),
            "dst": pa.array(dst, pa.int64()),
            "w": pa.array(np.ones(src.size), pa.float64()),
        }
    )
    ds = ray.data.from_arrow(t).repartition(16)
    r = pagerank_ds(ds, n, n_iter=5)
    # sparse numpy replay
    outw = np.zeros(n)
    np.add.at(outw, src, 1.0)
    p = 1.0 / outw[src]
    want = np.full(n, 1.0 / n)
    for _ in range(5):
        contrib = np.zeros(n)
        np.add.at(contrib, dst, p * want[src])
        dang = want[outw == 0].sum()
        want = 0.15 / n + 0.85 * (contrib + dang / n)
    assert np.allclose(r, want, atol=1e-12)
    assert abs(r.sum() - 1.0) < 1e-9


def test_pagerank_gate_matches_oracle(ray_session, oracle_eq):
    import duckdb
    import pandas as pd

    import __ray_entry__ as entrymod

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{sf}/events.parquet')"
    )
    got = entrymod.queries()["pagerank"](sf).to_pandas()
    want = con.sql(entrymod.oracle_sql()["pagerank"]).df()


    oracle_eq(got, want)


def test_hits_planted(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data

    from web_search_engine_ray.pipelines.graph import hits_ds

    # star: node 0 points at 1,2,3 -> 0 is the only hub, 1-3 the authorities
    edges = [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)]
    ds = ray.data.from_arrow(
        pa.table(
            {
                "src": pa.array([e[0] for e in edges], pa.int64()),
                "dst": pa.array([e[1] for e in edges], pa.int64()),
                "w": pa.array([e[2] for e in edges], pa.float64()),
            }
        )
    )
    hub, auth = hits_ds(ds, 4, n_iter=10)
    assert hub[0] == pytest.approx(1.0)
    assert np.allclose(hub[1:], 0.0)
    assert np.allclose(auth[1:], 1.0 / 3)
    assert auth[0] == pytest.approx(0.0)
    # numpy replay on an asymmetric weighted graph
    edges = [(0, 1, 2.0), (1, 2, 1.0), (2, 0, 3.0), (0, 2, 1.0)]
    t = pa.table(
        {
            "src": pa.array([e[0] for e in edges], pa.int64()),
            "dst": pa.array([e[1] for e in edges], pa.int64()),
            "w": pa.array([e[2] for e in edges], pa.float64()),
        }
    )
    hub, auth = hits_ds(ray.data.from_arrow(t), 3, n_iter=20)
    w = np.zeros((3, 3))
    for s_, d_, ww in edges:
        w[s_, d_] = ww
    h = np.full(3, 1.0 / 3)
    for _ in range(20):
        a = w.T @ h
        a = a / a.sum()
        h = w @ a
        h = h / h.sum()
    assert np.allclose(hub, h, atol=1e-12) and np.allclose(auth, a, atol=1e-12)


def test_hits_gate_matches_oracle(ray_session, oracle_eq):
    import duckdb
    import pandas as pd

    import __ray_entry__ as entrymod

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{sf}/events.parquet')"
    )
    got = entrymod.queries()["hits"](sf).to_pandas()
    want = con.sql(entrymod.oracle_sql()["hits"]).df()


    oracle_eq(got, want)


def test_distributed_path_forced(ray_session, monkeypatch):
    """Small planted graphs FORCED through the distributed iteration path
    (threshold -> 0): identical answers to the local fast path for both
    PageRank and HITS."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from web_search_engine_ray.pipelines import graph as g

    edges = [(0, 1, 2.0), (0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0)]
    t = pa.table(
        {
            "src": pa.array([e[0] for e in edges], pa.int64()),
            "dst": pa.array([e[1] for e in edges], pa.int64()),
            "w": pa.array([e[2] for e in edges], pa.float64()),
        }
    )
    local_r = g.pagerank_ds(ray.data.from_arrow(t), 4)
    local_h, local_a = g.hits_ds(ray.data.from_arrow(t), 4)
    monkeypatch.setattr(g, "SMALL_EDGE_ROWS", 0)
    dist_r = g.pagerank_ds(ray.data.from_arrow(t), 4)
    dist_h, dist_a = g.hits_ds(ray.data.from_arrow(t), 4)
    assert np.allclose(local_r, dist_r, atol=1e-12)
    assert np.allclose(local_h, dist_h, atol=1e-12)
    assert np.allclose(local_a, dist_a, atol=1e-12)


def test_shortest_paths_planted(ray_session):
    """Hand-checkable Bellman-Ford: the cheaper 2-hop beats the pricey
    direct edge; unreachable nodes stay infinite; partial edge rows must
    aggregate before the nonlinear cost (regression for the -ln(w/outw)
    partials bug)."""
    import math

    import numpy as np
    import pyarrow as pa
    import ray.data

    from web_search_engine_ray.pipelines.graph import shortest_path_costs_ds

    # node0 -> node1 (w 1), node0 -> node2 (w 9), node1 -> node2 (w 1);
    # probabilities: 0->1: 0.1, 0->2: 0.9, 1->2: 1.0
    edges = [(0, 1, 1.0), (0, 2, 9.0), (1, 2, 1.0)]
    t = pa.table(
        {
            "src": pa.array([e[0] for e in edges], pa.int64()),
            "dst": pa.array([e[1] for e in edges], pa.int64()),
            "w": pa.array([e[2] for e in edges], pa.float64()),
        }
    )
    dist = shortest_path_costs_ds(ray.data.from_arrow(t), 4, source=0)
    assert dist[0] == 0.0
    assert dist[1] == pytest.approx(-math.log(0.1))
    # direct -ln(0.9) ~ 0.105 beats 2-hop -ln(0.1) + 0 ~ 2.30
    assert dist[2] == pytest.approx(-math.log(0.9))
    assert np.isinf(dist[3])
    # split edge rows (partials) must behave as their sum once aggregated
    # upstream: feeding UNaggregated duplicates here produces a DIFFERENT
    # (wrong) cost — pinning the contract that callers aggregate first
    t2 = pa.table(
        {
            "src": pa.array([0, 0, 0], pa.int64()),
            "dst": pa.array([1, 1, 2], pa.int64()),
            "w": pa.array([0.5, 0.5, 9.0], pa.float64()),
        }
    )
    d2 = shortest_path_costs_ds(ray.data.from_arrow(t2), 3, source=0)
    assert d2[1] != pytest.approx(-math.log(0.1))


def test_event_paths_matches_oracle(ray_session, oracle_eq):
    import duckdb

    import __ray_entry__ as entrymod

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{sf}/events.parquet')"
    )
    oracle_eq(
        entrymod.queries()["event_paths"](sf),
        con.sql(entrymod.oracle_sql()["event_paths"]).df(),
    )


def test_transition_matrix_matches_oracle(ray_session, oracle_eq):
    import duckdb

    import __ray_entry__ as entrymod

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{sf}/events.parquet')"
    )
    got = entrymod.queries()["transition_matrix"](sf).to_pandas()
    oracle_eq(got, con.sql(entrymod.oracle_sql()["transition_matrix"]).df())
    # probabilities row-normalize exactly
    import numpy as np

    sums = got.groupby("src").p.sum()
    assert np.allclose(sums, 1.0, atol=1e-4)
