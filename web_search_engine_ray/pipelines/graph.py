"""Distributed connected components over duplicate-pair relations.

The missing last step of every near-dup pipeline: LSH/verify emits *pairs*
(``ngram_jaccard_dups``, ``simhash_dups``, ``embedding_dups``), but a corpus
curation run needs *clusters* — one canonical document per connected group of
duplicates (the pair relation is not transitive-closed: A~B and B~C at
tau=0.8 does not imply A~C clears tau, yet all three are one dup group).

:func:`connected_components` is iterative min-label propagation expressed as
hash exchanges (``stages/exchange.py``) — the standard MapReduce CC shape
(Rastogi et al., "Finding Connected Components in Map-Reduce", ICDE'13):

1. init: one exchange over the (both-direction) edge relation keyed on
   ``node % P`` — each node's label starts at ``min(node, min(neighbors))``;
2. iterate until fixed point, two exchanges per round:
   a. *propose* (keyed on node): join the partition's labels to its edges
      and emit ``(neighbor, label(node))`` plus the node's own label row;
   b. *combine* (keyed on node): new label = min over proposals + own,
      with a per-node ``changed`` flag summed by the driver (a scalar
      aggregate — the only thing that ever leaves the cluster).

Labels converge to the component minimum in ``diameter(component)`` rounds;
near-dup clusters are shallow (stars/short chains around a template doc), so
3-4 rounds is typical. Everything is O(E) per round, hash-partitioned, and
vectorized (searchsorted label lookup, lexsort + minimum.reduceat combine) —
no driver-side pair materialization at any point.

The ``dedup_clusters`` driver entry runs it over the exact 3-gram-Jaccard
pair relation; the DuckDB twin computes the same closure with a recursive
CTE. Chain/star/cycle topologies and the empty relation are pinned in
``tests/test_graph.py``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from web_search_engine_ray.stages import exchange
from web_search_engine_ray.stages.exchange import (
    arrow_refs,
    exchange_map,
    map_refs,
    to_dataset,
)

# Row kinds for the union relation flowing through the exchanges.
_K_EDGE = 0  # (node, val=neighbor)
_K_SELF = 1  # (node, val=node's current label)
_K_PROP = 2  # (node, val=label proposed by a neighbor)

_SCHEMA = pa.schema(
    [("node", pa.int64()), ("val", pa.int64()), ("kind", pa.int8())]
)


def _rows(node: np.ndarray, val: np.ndarray, kind: int) -> pa.Table:
    return pa.table(
        {
            "node": pa.array(node, pa.int64()),
            "val": pa.array(val, pa.int64()),
            "kind": pa.array(np.full(node.size, kind, np.int8), pa.int8()),
        },
        schema=_SCHEMA,
    )


def _col(t: pa.Table, name: str, dtype=np.int64) -> np.ndarray:
    return (
        t[name].combine_chunks().to_numpy(zero_copy_only=False).astype(dtype, copy=False)
    )


def _min_per_node(node: np.ndarray, val: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(unique nodes asc, min val per node) via one lexsort + reduceat."""
    if node.size == 0:
        return node, val
    order = np.lexsort((val, node))
    n_s, v_s = node[order], val[order]
    starts = np.flatnonzero(np.r_[True, n_s[1:] != n_s[:-1]])
    return n_s[starts], np.minimum.reduceat(v_s, starts)


def connected_components(
    pairs_ds,
    col_a: str = "docid_a",
    col_b: str = "docid_b",
    max_iters: int = 64,
):
    """Dataset (docid, cluster_id) for every node of the pair relation;
    ``cluster_id`` = the smallest docid reachable through pairs. Nodes not
    appearing in any pair are absent (singletons are their own cluster by
    definition — emitting them would mean scanning the corpus again).

    After one read of ``pairs_ds`` every round runs on block refs
    (``map_refs``, refs-form ``exchange_map``) at the one partition count
    ``exchange.chain_parts`` derives from that read; the driver waits only
    for one per-block ``changed`` count per round, and builds one Dataset
    at the end. Every map runs on every block, empty ones too, so each
    block carries its map's schema."""
    import ray

    pairs = arrow_refs(pairs_ds)
    np_ = exchange.chain_parts(pairs)

    def to_edges(t: pa.Table) -> pa.Table:
        if not t.num_rows:  # an empty read block may have no columns at all
            return _SCHEMA.empty_table()
        a, b = _col(t, col_a), _col(t, col_b)
        return _rows(np.concatenate([a, b]), np.concatenate([b, a]), _K_EDGE)

    def route(t: pa.Table) -> np.ndarray:
        return _col(t, "node") % np_

    def init_labels(t: pa.Table) -> pa.Table:
        """label(u) = min(u, min neighbors) — iteration 0 fused with init."""
        node, val = _col(t, "node"), _col(t, "val")
        u, m = _min_per_node(node, np.minimum(node, val))
        return _rows(u, m, _K_SELF)

    def propose(t: pa.Table) -> pa.Table:
        """One node partition: join labels to edges, emit proposals."""
        kind = _col(t, "kind", np.int8)
        is_e = kind == _K_EDGE
        en, ev = _col(t, "node")[is_e], _col(t, "val")[is_e]
        is_l = kind == _K_SELF
        ln, lv = _col(t, "node")[is_l], _col(t, "val")[is_l]
        order = np.argsort(ln)
        ln, lv = ln[order], lv[order]
        # every edge endpoint routed here has a label row here (same key)
        lab = lv[np.searchsorted(ln, en)]
        return pa.concat_tables([_rows(ev, lab, _K_PROP), _rows(ln, lv, _K_SELF)])

    def combine(t: pa.Table) -> pa.Table:
        """New label = min(proposals, own); emit (node, label, changed)."""
        node, val = _col(t, "node"), _col(t, "val")
        kind = _col(t, "kind", np.int8)
        u, new = _min_per_node(node, val)
        is_s = kind == _K_SELF
        sn, sv = node[is_s], val[is_s]
        order = np.argsort(sn)
        old = sv[order][np.searchsorted(sn[order], u)]
        out = _rows(u, new, _K_SELF)
        return out.append_column(
            "changed", pa.array((new != old).astype(np.int64), pa.int64())
        )

    def drop_changed(t: pa.Table) -> pa.Table:
        return t.drop_columns(["changed"]) if "changed" in t.column_names else t

    def n_changed(t: pa.Table) -> int:
        return int(_col(t, "changed").sum())

    edges = map_refs(to_edges, pairs)
    labels = exchange_map(edges, route, np_, init_labels)

    for _ in range(max_iters):
        rel = edges + map_refs(drop_changed, labels)
        labels = exchange_map(exchange_map(rel, route, np_, propose), route, np_, combine)
        if not sum(ray.get(map_refs(n_changed, labels))):
            break
    else:  # pragma: no cover - 64 rounds >> any real dup-cluster diameter
        raise RuntimeError(f"connected_components: no fixed point in {max_iters} rounds")

    def project(t: pa.Table) -> pa.Table:
        return pa.table(
            {"docid": t["node"], "cluster_id": t["val"]},
            schema=pa.schema([("docid", pa.int64()), ("cluster_id", pa.int64())]),
        )

    return to_dataset("connected_components", map_refs(project, labels))


def dedup_clusters_ds(sf_dir: str, tau: float = 0.8):
    """(docid, cluster_id) over the exact 3-gram-Jaccard dup pairs: the
    transitive closure of ``ngram_jaccard_dups`` — what a curation pipeline
    keys "keep one per cluster" on. Driver-gated against a recursive-CTE
    DuckDB twin."""
    from web_search_engine_ray.pipelines.dedup import ngram_jaccard_dups

    return connected_components(ngram_jaccard_dups(sf_dir, tau=tau))


# Edge relations at or below this row count iterate driver-side: 20
# iterations of sub-second Dataset executions cost more than the whole
# local solve, and the numpy update is the SAME expression (last-ulp
# association differences sit far under the twins' ROUND(8)). The
# distributed path stays the default above it and is pinned at
# 100k nodes / 400k edges in tests.
SMALL_EDGE_ROWS = 65_536


def _collect_small_edges(edges):
    """(src, dst, w) numpy arrays if the materialized edge relation is
    small enough to iterate driver-side, else None."""
    import ray

    if edges.count() > SMALL_EDGE_ROWS:
        return None
    parts = [t for t in ray.get(arrow_refs(edges)) if t.num_rows]
    if not parts:
        return (
            np.empty(0, np.int64),
            np.empty(0, np.int64),
            np.empty(0, np.float64),
        )
    t = pa.concat_tables(parts)
    return (
        t["src"].to_numpy(zero_copy_only=False).astype(np.int64),
        t["dst"].to_numpy(zero_copy_only=False).astype(np.int64),
        t["w"].to_numpy(zero_copy_only=False).astype(np.float64),
    )


def _pagerank_local(src, dst, w, n_nodes, n_iter=20, d=0.85):
    outw = np.zeros(n_nodes, np.float64)
    np.add.at(outw, src, w)
    p = w / np.where(outw[src] > 0, outw[src], 1.0)
    r = np.full(n_nodes, 1.0 / n_nodes, np.float64)
    dangling = outw == 0.0
    for _ in range(n_iter):
        contrib = np.zeros(n_nodes, np.float64)
        np.add.at(contrib, dst, p * r[src])
        dang = float(r[dangling].sum())
        r = (1.0 - d) / n_nodes + d * (contrib + dang / n_nodes)
    return r


def _hits_local(src, dst, w, n_nodes, n_iter=20):
    hub = np.full(n_nodes, 1.0 / n_nodes, np.float64)
    auth = np.full(n_nodes, 1.0 / n_nodes, np.float64)
    for _ in range(n_iter):
        auth = np.zeros(n_nodes, np.float64)
        np.add.at(auth, dst, w * hub[src])
        s = float(auth.sum())
        if s > 0:
            auth = auth / s
        hub = np.zeros(n_nodes, np.float64)
        np.add.at(hub, src, w * auth[dst])
        s = float(hub.sum())
        if s > 0:
            hub = hub / s
    return hub, auth


# -- PageRank ----------------------------------------------------------------


def pagerank_ds(edges, n_nodes: int, n_iter: int = 20, d: float = 0.85) -> np.ndarray:
    """PageRank over an edges Dataset ``(src: int64, dst: int64, w: float64)``
    with dense node ids in [0, n_nodes) — the classic web-search primitive
    the reference never got to (its crawler logs links but ranks by BM25
    alone). Brin & Page 1998; weighted-edge form.

    Distribution shape: the EDGES stay distributed (materialized once,
    re-scanned per iteration); the RANK VECTOR is the broadcast small side
    (``ray.put`` once per iteration — n_nodes doubles in memory only on the
    driver, fine to ~10^8; past that the per-iteration contribution becomes
    one more hash exchange on dst, same machinery). Each batch emits SPARSE
    partials (distinct dst, summed contribution) — never a dense n_nodes
    vector — and the driver scatter-adds the tiny partials.

    Float shape matches the SQL twin per term: contribution per edge is
    ``(w / outw[src]) * r[src]`` with the division baked into a
    materialized transition weight ``p``; dangling mass and teleport are
    applied in the twin's exact expression ``(1-d)/n + d*(contrib + dang/n)``.
    """
    import ray

    edges = edges.materialize()
    small = _collect_small_edges(edges)
    if small is not None:
        return _pagerank_local(*small, n_nodes, n_iter=n_iter, d=d)

    def outw_partial(t: pa.Table) -> pa.Table:
        src = t["src"].to_numpy(zero_copy_only=False)
        w = t["w"].to_numpy(zero_copy_only=False)
        u = np.unique(src)
        s = np.zeros(u.size, np.float64)
        np.add.at(s, np.searchsorted(u, src), w)
        return pa.table({"node": pa.array(u, pa.int64()), "v": pa.array(s)})

    outw = np.zeros(n_nodes, np.float64)
    for t in ray.get(arrow_refs(edges.map_batches(outw_partial, batch_format="pyarrow"))):
        if t.num_rows:
            np.add.at(
                outw,
                t["node"].to_numpy(zero_copy_only=False),
                t["v"].to_numpy(zero_copy_only=False),
            )

    # transition weight p = w / outw[src], materialized once
    outw_ref = ray.put(outw)

    def attach_p(t: pa.Table) -> pa.Table:
        ow = ray.get(outw_ref)
        src = t["src"].to_numpy(zero_copy_only=False)
        w = t["w"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "src": t["src"].cast(pa.int64()),
                "dst": t["dst"].cast(pa.int64()),
                "p": pa.array(w / ow[src], pa.float64()),
            }
        )

    pedges = edges.map_batches(attach_p, batch_format="pyarrow").materialize()
    r = np.full(n_nodes, 1.0 / n_nodes, np.float64)
    dangling = outw == 0.0
    for _ in range(n_iter):
        r_ref = ray.put(r)

        def contrib_partial(t: pa.Table) -> pa.Table:
            rv = ray.get(r_ref)
            src = t["src"].to_numpy(zero_copy_only=False)
            dst = t["dst"].to_numpy(zero_copy_only=False)
            p = t["p"].to_numpy(zero_copy_only=False)
            u = np.unique(dst)
            s = np.zeros(u.size, np.float64)
            np.add.at(s, np.searchsorted(u, dst), p * rv[src])
            return pa.table({"node": pa.array(u, pa.int64()), "v": pa.array(s)})

        contrib = np.zeros(n_nodes, np.float64)
        for t in ray.get(
            arrow_refs(pedges.map_batches(contrib_partial, batch_format="pyarrow"))
        ):
            if t.num_rows:
                np.add.at(
                    contrib,
                    t["node"].to_numpy(zero_copy_only=False),
                    t["v"].to_numpy(zero_copy_only=False),
                )
        dang = float(r[dangling].sum())
        r = (1.0 - d) / n_nodes + d * (contrib + dang / n_nodes)
    return r


def _event_type_edges(sf_dir: str):
    """(sorted node list, weighted edges Dataset) of the event-type
    transition graph: an edge per consecutive event pair of one user
    ordered by (ts, event_id). The corpus-scale stage is this derivation —
    one hash exchange on user_id + a vectorized whole-partition
    lexsort/shift (the ``sessionize_ds`` discipline). Shared by the
    PageRank and HITS tables so both twin against identical edges."""
    import ray

    from web_search_engine_ray.pipelines.events import _epoch_us, _np, _read_events

    # node set: distinct event_type (tiny per-block partials -> driver set)
    refs = _read_events(sf_dir, ["event_id", "user_id", "ts", "event_type"])

    def types_partial(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({"t": pc.unique(t["event_type"].combine_chunks())})

    types: set[str] = set()
    for t in ray.get(map_refs(types_partial, refs)):
        types.update(t["t"].to_pylist())
    nodes = sorted(types)
    n = len(nodes)
    if n == 0:
        return [], None
    nodes_arr = np.array(nodes)

    np_ = exchange.chain_parts(refs)

    def edges_part(t: pa.Table) -> pa.Table:
        user = _np(t["user_id"])
        ep = _epoch_us(t)
        eid = _np(t["event_id"])
        et = t["event_type"].combine_chunks().to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ep, user))
        user, et = user[order], et[order]
        tid = np.searchsorted(nodes_arr, et)
        same = user[1:] == user[:-1]
        src, dst = tid[:-1][same], tid[1:][same]
        key = src.astype(np.int64) * n + dst
        u, cnt = np.unique(key, return_counts=True)
        return pa.table(
            {
                "src": pa.array((u // n).astype(np.int64)),
                "dst": pa.array((u % n).astype(np.int64)),
                "w": pa.array(cnt.astype(np.float64)),
            }
        )

    partial_edges = exchange_map(refs, lambda t: _np(t["user_id"]) % np_, np_, edges_part)

    # aggregate per-partition partials to ONE row per (src, dst): PageRank
    # and HITS are linear in w so partials were fine, but anything that
    # takes a NONLINEAR function of an edge weight (Bellman-Ford's
    # -ln(w/outw)) needs the true totals
    def agg_edges(t: pa.Table) -> pa.Table:
        src = t["src"].to_numpy(zero_copy_only=False)
        dst = t["dst"].to_numpy(zero_copy_only=False)
        w = t["w"].to_numpy(zero_copy_only=False)
        key = src * n + dst
        u, inv = np.unique(key, return_inverse=True)
        acc = np.zeros(u.size, np.float64)
        np.add.at(acc, inv, w)
        return pa.table(
            {
                "src": pa.array((u // n).astype(np.int64)),
                "dst": pa.array((u % n).astype(np.int64)),
                "w": pa.array(acc),
            }
        )

    edges = exchange_map(
        partial_edges,
        lambda t: (
            (
                t["src"].combine_chunks().to_numpy(zero_copy_only=False) * n
                + t["dst"].combine_chunks().to_numpy(zero_copy_only=False)
            )
            % np_
        ).astype(np.int64),
        np_,
        agg_edges,
    )
    return nodes, to_dataset("event_type_edges", edges)


def event_type_pagerank_table(
    sf_dir: str, n_iter: int = 20, d: float = 0.85, round_to: int = 8
) -> pa.Table:
    """(event_type, pagerank): PageRank over the event-type transition graph
    (:func:`_event_type_edges`); the node set here is dimension-sized, but
    :func:`pagerank_ds` runs the iterations against the distributed edge
    relation regardless (pinned at 100k synthetic nodes in
    ``tests/test_graph.py``). SQL twin: ``lead()`` window edges + ``n_iter``
    unrolled iteration CTEs under the identical
    ``(1-d)/n + d*(contrib + dang/n)`` expression, ROUND({round_to})."""
    nodes, edges = _event_type_edges(sf_dir)
    n = len(nodes)
    if n == 0:
        return pa.table(
            {"event_type": pa.array([], pa.string()),
             "pagerank": pa.array([], pa.float64())}
        )
    r = pagerank_ds(edges, n, n_iter=n_iter, d=d)
    return pa.table(
        {
            "event_type": pa.array(nodes, pa.string()),
            "pagerank": pa.array(np.round(r, round_to), pa.float64()),
        }
    )


def hits_ds(
    edges, n_nodes: int, n_iter: int = 20
) -> tuple[np.ndarray, np.ndarray]:
    """HITS hubs & authorities (Kleinberg 1999) over a distributed weighted
    edge relation — same broadcast-vector / sparse-partials shape as
    :func:`pagerank_ds`: per iteration, authority(v) = sum of w * hub(u)
    over in-edges then L1-normalize, hub(u) = sum of w * auth(v) over
    out-edges then L1-normalize. Returns (hub, auth) float64 arrays."""
    import ray

    edges = edges.materialize()
    small = _collect_small_edges(edges)
    if small is not None:
        return _hits_local(*small, n_nodes, n_iter=n_iter)
    hub = np.full(n_nodes, 1.0 / n_nodes, np.float64)
    auth = np.full(n_nodes, 1.0 / n_nodes, np.float64)

    def gather(vec_ref, key_in: str, key_out: str):
        def partial(t: pa.Table) -> pa.Table:
            v = ray.get(vec_ref)
            src = t[key_in].to_numpy(zero_copy_only=False)
            dst = t[key_out].to_numpy(zero_copy_only=False)
            w = t["w"].to_numpy(zero_copy_only=False)
            u = np.unique(dst)
            s = np.zeros(u.size, np.float64)
            np.add.at(s, np.searchsorted(u, dst), w * v[src])
            return pa.table({"node": pa.array(u, pa.int64()), "v": pa.array(s)})

        out = np.zeros(n_nodes, np.float64)
        for t in ray.get(
            arrow_refs(edges.map_batches(partial, batch_format="pyarrow"))
        ):
            if t.num_rows:
                np.add.at(
                    out,
                    t["node"].to_numpy(zero_copy_only=False),
                    t["v"].to_numpy(zero_copy_only=False),
                )
        return out

    for _ in range(n_iter):
        auth = gather(ray.put(hub), "src", "dst")
        s = float(auth.sum())
        if s > 0:
            auth = auth / s
        hub = gather(ray.put(auth), "dst", "src")
        s = float(hub.sum())
        if s > 0:
            hub = hub / s
    return hub, auth


def event_type_hits_table(
    sf_dir: str, n_iter: int = 20, round_to: int = 8
) -> pa.Table:
    """(event_type, hub, auth): HITS over the same event-type transition
    graph as :func:`event_type_pagerank_table` (shared edge derivation).
    SQL twin: lead() edges + n_iter unrolled (auth_i, hub_i) MATERIALIZED
    CTE pairs under identical sum/normalize expressions, ROUND(8)."""
    nodes, edges = _event_type_edges(sf_dir)
    n = len(nodes)
    if n == 0:
        return pa.table(
            {
                "event_type": pa.array([], pa.string()),
                "hub": pa.array([], pa.float64()),
                "auth": pa.array([], pa.float64()),
            }
        )
    hub, auth = hits_ds(edges, n, n_iter=n_iter)
    return pa.table(
        {
            "event_type": pa.array(nodes, pa.string()),
            "hub": pa.array(np.round(hub, round_to), pa.float64()),
            "auth": pa.array(np.round(auth, round_to), pa.float64()),
        }
    )


SP_ITERS = 8  # fixed unroll, >= V-1 for the event-type graph; idempotent after


def shortest_path_costs_ds(edges, n_nodes: int, source: int, n_iter: int = SP_ITERS):
    """Bellman-Ford relaxation over a distributed weighted edge relation
    with cost(u, v) = -ln(w_uv / outw_u) (so the shortest path is the MOST
    PROBABLE transition path from ``source``). Same broadcast-vector /
    sparse-partials shape as :func:`pagerank_ds`, but the per-dst reduce is
    ``min`` — exact in floats, so engine and twin agree bit-for-bit after
    the same iteration count (relaxation is idempotent once converged;
    n_iter is a fixed unroll >= V-1). Returns the float64 dist vector
    (unreachable = +inf)."""
    import ray

    small = _collect_small_edges(edges.materialize())
    if small is not None:
        src, dst, w = small
        outw = np.zeros(n_nodes, np.float64)
        np.add.at(outw, src, w)
        cost = -np.log(w / np.where(outw[src] > 0, outw[src], 1.0))
        dist = np.full(n_nodes, np.inf, np.float64)
        dist[source] = 0.0
        for _ in range(n_iter):
            cand = dist[src] + cost
            nd = dist.copy()
            np.minimum.at(nd, dst, cand)
            dist = nd
        return dist

    def outw_partial(t: pa.Table) -> pa.Table:
        s_ = t["src"].to_numpy(zero_copy_only=False)
        w_ = t["w"].to_numpy(zero_copy_only=False)
        u = np.unique(s_)
        acc = np.zeros(u.size, np.float64)
        np.add.at(acc, np.searchsorted(u, s_), w_)
        return pa.table({"node": pa.array(u, pa.int64()), "v": pa.array(acc)})

    edges = edges.materialize()
    outw = np.zeros(n_nodes, np.float64)
    for t in ray.get(
        arrow_refs(edges.map_batches(outw_partial, batch_format="pyarrow"))
    ):
        if t.num_rows:
            np.add.at(
                outw,
                t["node"].to_numpy(zero_copy_only=False),
                t["v"].to_numpy(zero_copy_only=False),
            )
    ow_ref = ray.put(outw)
    dist = np.full(n_nodes, np.inf, np.float64)
    dist[source] = 0.0
    for _ in range(n_iter):
        d_ref = ray.put(dist)

        def relax_partial(t: pa.Table) -> pa.Table:
            ow = ray.get(ow_ref)
            dv = ray.get(d_ref)
            s_ = t["src"].to_numpy(zero_copy_only=False)
            ds_ = t["dst"].to_numpy(zero_copy_only=False)
            w_ = t["w"].to_numpy(zero_copy_only=False)
            cand = dv[s_] + (-np.log(w_ / np.where(ow[s_] > 0, ow[s_], 1.0)))
            u = np.unique(ds_)
            best = np.full(u.size, np.inf, np.float64)
            np.minimum.at(best, np.searchsorted(u, ds_), cand)
            keep = np.isfinite(best)
            return pa.table(
                {"node": pa.array(u[keep], pa.int64()), "v": pa.array(best[keep])}
            )

        nd = dist.copy()
        for t in ray.get(
            arrow_refs(edges.map_batches(relax_partial, batch_format="pyarrow"))
        ):
            if t.num_rows:
                np.minimum.at(
                    nd,
                    t["node"].to_numpy(zero_copy_only=False),
                    t["v"].to_numpy(zero_copy_only=False),
                )
        dist = nd
    return dist


def event_type_paths_table(
    sf_dir: str, source: str = "signup", n_iter: int = SP_ITERS, round_to: int = 8
) -> pa.Table:
    """(event_type, cost): most-probable-transition-path cost from
    ``source`` to every reachable event type (Bellman-Ford over the shared
    :func:`_event_type_edges`; cost = sum of -ln(transition probability)
    along the best path). SQL twin: ``n_iter`` unrolled MATERIALIZED
    min-relaxation CTEs — ``min`` is float-exact, so the sides agree
    bit-for-bit before the ROUND."""
    nodes, edges = _event_type_edges(sf_dir)
    if not nodes or source not in nodes:
        return pa.table(
            {"event_type": pa.array([], pa.string()),
             "cost": pa.array([], pa.float64())}
        )
    dist = shortest_path_costs_ds(edges, len(nodes), nodes.index(source), n_iter)
    keep = np.isfinite(dist)
    return pa.table(
        {
            "event_type": pa.array(
                [n for n, k in zip(nodes, keep) if k], pa.string()
            ),
            "cost": pa.array(np.round(dist[keep], round_to), pa.float64()),
        }
    )


def transition_matrix_table(sf_dir: str, round_to: int = 6) -> pa.Table:
    """(src, dst, w, p): the event-type transition graph itself — the
    weighted edges every graph entry here consumes (:func:`_event_type_edges`)
    plus the row-normalized transition probability. Gating this relation
    directly pins the shared derivation the PageRank/HITS/paths entries
    build on."""
    import ray

    nodes, edges = _event_type_edges(sf_dir)
    if not nodes:
        return pa.table(
            {
                "src": pa.array([], pa.string()),
                "dst": pa.array([], pa.string()),
                "w": pa.array([], pa.int64()),
                "p": pa.array([], pa.float64()),
            }
        )
    parts = [t for t in ray.get(arrow_refs(edges)) if t.num_rows]
    t = pa.concat_tables(parts)
    src = t["src"].to_numpy(zero_copy_only=False).astype(np.int64)
    dst = t["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
    w = t["w"].to_numpy(zero_copy_only=False)
    outw = np.zeros(len(nodes), np.float64)
    np.add.at(outw, src, w)
    names = np.array(nodes)
    order = np.lexsort((dst, src))
    src, dst, w = src[order], dst[order], w[order]
    return pa.table(
        {
            "src": pa.array(names[src], pa.string()),
            "dst": pa.array(names[dst], pa.string()),
            "w": pa.array(w.astype(np.int64)),
            "p": pa.array(np.round(w / outw[src], round_to), pa.float64()),
        }
    )
