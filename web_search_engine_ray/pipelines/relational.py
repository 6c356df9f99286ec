"""Relational pipelines over the TPC-H-shaped tables — the general
data-processing side of the engine (the reference is documents-only; a user
replacing it still has orders/lineitem-style relations to aggregate and
join, and these pipelines pin the two join strategies every other operator
composes from):

- :func:`pricing_summary_ds` (TPC-H Q1 shape): filtered scan ->
  per-batch partial aggregation -> tiny hash exchange on returnflag.
  The shuffle carries ONE row per (batch, group) — never line items.
- :func:`shipping_priority_ds` (TPC-H Q3 shape): BROADCAST join for the
  small side (filtered customer keys via ``ray.put``, tested with
  ``np.isin`` inside the scan — no shuffle), then an EXCHANGE hash join on
  ``orderkey`` for the two big sides (orders + pre-aggregated lineitem
  revenue ride the same partition route, joined locally per partition),
  then a result-scale top-k cut: per partition, then over the partitions'
  survivors on the driver.

Money arithmetic is exact: prices/discounts/taxes are 2-decimal values, so
both engine and SQL convert to integer cents (``rint(x * 100)``) and sum
int64 — float association can never make the two sides disagree; the final
division back to currency happens once, on identical integers.
"""

from __future__ import annotations

import numpy as np
import polars as pl
import pyarrow as pa
import pyarrow.compute as pc

from web_search_engine_ray.stages.exchange import (
    aggregate,
    arrow_refs,
    chain_parts,
    exchange_map,
    map_refs,
    to_dataset,
)

Q1_CUTOFF = "1999-09-01"
Q3_DATE = "1998-03-15"
Q3_SEGMENT = "BUILDING"
Q5_REGION = "ASIA"
Q5_DATE_LO = "1996-01-01"
Q5_DATE_HI = "1997-01-01"
Q6_DATE_LO = "1996-01-01"
Q6_DATE_HI = "1997-01-01"
Q6_DISC_LO, Q6_DISC_HI, Q6_QTY_MAX = 0.05, 0.07, 24.0


def _path(sf_dir: str, table: str) -> str:
    import os

    return os.path.join(sf_dir, f"{table}.parquet")


def _read(sf_dir: str, table: str, columns: list[str], filter=None) -> list:
    """Block refs of ``table``'s ``columns``, read once (row-group
    ``filter`` pushed down)."""
    import ray.data

    return arrow_refs(ray.data.read_parquet(_path(sf_dir, table), columns=columns, filter=filter))


def _ts(s: str):
    from datetime import datetime

    return datetime.strptime(s, "%Y-%m-%d")


def pricing_summary_ds(sf_dir: str, cutoff: str = Q1_CUTOFF):
    """(returnflag, linestatus, sum_qty, sum_base_price, sum_disc_price,
    sum_charge, avg_qty, avg_price, avg_disc, count_order) — the Q1
    pricing-summary aggregate over lineitem rows shipped on or before
    ``cutoff``."""
    def partial(t: pa.Table) -> pa.Table:
        qty_c = np.rint(
            t["l_quantity"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        price_c = np.rint(
            t["l_extendedprice"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        disc_c = np.rint(
            t["l_discount"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        tax_c = np.rint(t["l_tax"].to_numpy(zero_copy_only=False) * 100).astype(
            np.int64
        )
        df = pl.DataFrame(
            {
                "returnflag": pl.from_arrow(t["l_returnflag"]),
                "linestatus": pl.from_arrow(t["l_linestatus"]),
                "qty_c": qty_c,
                "price_c": price_c,
                "d_c": disc_c,
                "dp_c": price_c * (100 - disc_c),
                "ch_c": price_c * (100 - disc_c) * (100 + tax_c),
            }
        )
        return (
            df.group_by(["returnflag", "linestatus"])
            .agg(
                pl.col("qty_c").sum(),
                pl.col("price_c").sum(),
                pl.col("d_c").sum(),
                pl.col("dp_c").sum(),
                pl.col("ch_c").sum(),
                n=pl.len().cast(pl.Int64),
            )
            .to_arrow()
        )

    def merge(t: pa.Table) -> pa.Table:
        g = (
            pl.from_arrow(t)
            .group_by(["returnflag", "linestatus"])
            .agg(
                pl.col("qty_c").sum(),
                pl.col("price_c").sum(),
                pl.col("d_c").sum(),
                pl.col("dp_c").sum(),
                pl.col("ch_c").sum(),
                pl.col("n").sum(),
            )
        )
        qty = g["qty_c"].to_numpy().astype(np.float64)
        price = g["price_c"].to_numpy().astype(np.float64)
        n = g["n"].to_numpy().astype(np.float64)
        dsum = g["d_c"].to_numpy().astype(np.float64)
        return pa.table(
            {
                "returnflag": g["returnflag"].to_arrow().cast(pa.string()),
                "linestatus": g["linestatus"].to_arrow().cast(pa.string()),
                "sum_qty": pa.array(qty / 100.0, pa.float64()),
                "sum_base_price": pa.array(price / 100.0, pa.float64()),
                "sum_disc_price": pa.array(
                    g["dp_c"].to_numpy().astype(np.float64) / 10000.0, pa.float64()
                ),
                "sum_charge": pa.array(
                    g["ch_c"].to_numpy().astype(np.float64) / 1000000.0,
                    pa.float64(),
                ),
                "avg_qty": pa.array(np.round(qty / (100.0 * n), 6), pa.float64()),
                "avg_price": pa.array(np.round(price / (100.0 * n), 6), pa.float64()),
                "avg_disc": pa.array(np.round(dsum / (100.0 * n), 6), pa.float64()),
                "count_order": pa.array(g["n"].to_numpy().astype(np.int64)),
            }
        )

    refs = _read(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount", "l_tax"],
        filter=(pc.field("l_shipdate") <= pa.scalar(_ts(cutoff))),
    )
    return to_dataset("pricing_summary_ds", aggregate(refs, partial, "returnflag", merge))


def shipping_priority_ds(
    sf_dir: str, date: str = Q3_DATE, segment: str = Q3_SEGMENT, k: int = 10
):
    """(orderkey, revenue, order_epoch, priority): top-k unshipped orders of
    one market segment by revenue — the Q3 shape. Broadcast semi-join on
    customer, exchange hash join orders x lineitem on orderkey, top-k cut
    by (revenue desc, order_epoch, orderkey)."""
    import ray
    import ray.data

    d = _ts(date)

    cust = _read(
        sf_dir, "customer", ["c_custkey", "c_mktsegment"],
        filter=(pc.field("c_mktsegment") == segment),
    )
    keys = np.sort(
        np.concatenate(
            [
                t["c_custkey"].to_numpy(zero_copy_only=False)
                for t in ray.get(cust)
                if t.num_rows
            ]
            or [np.empty(0, np.int64)]
        )
    )
    kref = ray.put(keys)

    def order_rows(t: pa.Table) -> pa.Table:
        ck = ray.get(kref)
        cust_k = t["o_custkey"].to_numpy(zero_copy_only=False)
        m = np.isin(cust_k, ck)
        tt = t.filter(pa.array(m))
        epoch = (
            tt["o_orderdate"].cast(pa.timestamp("us")).cast(pa.int64()).to_numpy(
                zero_copy_only=False
            )
            // 1_000_000
        )
        return pa.table(
            {
                "kind": pa.array(np.zeros(tt.num_rows, np.int8)),
                "orderkey": tt["o_orderkey"].cast(pa.int64()),
                "rev_c": pa.array(np.zeros(tt.num_rows, np.int64)),
                "epoch": pa.array(epoch, pa.int64()),
                "priority": tt["o_orderpriority"].cast(pa.string()),
            }
        )

    def line_rows(t: pa.Table) -> pa.Table:
        price_c = np.rint(
            t["l_extendedprice"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        disc_c = np.rint(
            t["l_discount"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        g = (
            pl.DataFrame(
                {
                    "orderkey": t["l_orderkey"].to_numpy(zero_copy_only=False),
                    "rev_c": price_c * (100 - disc_c),
                }
            )
            .group_by("orderkey")
            .agg(pl.col("rev_c").sum())
        )
        n = g.height
        return pa.table(
            {
                "kind": pa.array(np.ones(n, np.int8)),
                "orderkey": pa.array(g["orderkey"].to_numpy(), pa.int64()),
                "rev_c": pa.array(g["rev_c"].to_numpy(), pa.int64()),
                "epoch": pa.array(np.zeros(n, np.int64)),
                "priority": pa.array([""] * n, pa.string()),
            }
        )

    orders = _read(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"],
        filter=(pc.field("o_orderdate") < pa.scalar(d)),
    )
    lines = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"],
        filter=(pc.field("l_shipdate") > pa.scalar(d)),
    )
    np_ = chain_parts(orders + lines)

    def route(t: pa.Table) -> np.ndarray:
        return (
            t["orderkey"].combine_chunks().to_numpy(zero_copy_only=False) % np_
        ).astype(np.int64)

    def join(t: pa.Table) -> pa.Table:
        tt = pl.from_arrow(t)
        o = tt.filter(pl.col("kind") == 0).select("orderkey", "epoch", "priority")
        l = (
            tt.filter(pl.col("kind") == 1)
            .group_by("orderkey")
            .agg(pl.col("rev_c").sum())
        )
        j = o.join(l, on="orderkey", how="inner")
        return top(
            pa.table(
                {
                    "orderkey": pa.array(j["orderkey"].to_numpy(), pa.int64()),
                    "rev_c": pa.array(j["rev_c"].to_numpy(), pa.int64()),
                    "order_epoch": pa.array(j["epoch"].to_numpy(), pa.int64()),
                    "priority": j["priority"].to_arrow().cast(pa.string()),
                }
            )
        )

    def top(t: pa.Table) -> pa.Table:
        """The first ``k`` rows by (revenue desc, order_epoch, orderkey)."""
        keys = [("rev_c", "descending"), ("order_epoch", "ascending"), ("orderkey", "ascending")]
        return t.take(pc.sort_indices(t, sort_keys=keys)[:k])

    rows = map_refs(order_rows, orders) + map_refs(line_rows, lines)
    t = top(pa.concat_tables(ray.get(exchange_map(rows, route, np_, join))))
    revenue = pa.array(t["rev_c"].to_numpy(zero_copy_only=False) / 10000.0, pa.float64())
    return ray.data.from_arrow(t.set_column(1, "revenue", revenue))


def local_supplier_volume_ds(
    sf_dir: str,
    region: str = Q5_REGION,
    lo: str = Q5_DATE_LO,
    hi: str = Q5_DATE_HI,
):
    """(nation, revenue): revenue from lineitems where the supplier and the
    ordering customer share a nation inside ``region``, over one order-date
    year — the TPC-H Q5 shape, the engine's deepest join chain (6 tables).

    Distributed plan (two hash exchanges + two broadcasts, no sort shuffle):

    - nation x region are DIM tables (25/5 rows by TPC-H construction):
      resolved driver-side into the region's nationkey set + name map.
    - supplier is filtered to the region's nations (1/5 of a table that is
      itself ~1/7500 of lineitem) and broadcast as sorted (suppkey ->
      nationkey) arrays via ``ray.put`` — the classic small-side broadcast.
      At extreme scale this slice outgrows broadcast; the fallback is a
      third hash exchange of lineitem on suppkey, same machinery as below.
    - exchange #1 on custkey: region-filtered customer rows ride with
      date-filtered order rows (kind-tagged union), joined per partition
      into (orderkey, cust_nation).
    - exchange #2 on orderkey: stage-1 output rides with lineitem rows
      (supplier nation attached in the scan via the broadcast, non-region
      suppliers dropped there), joined per partition, kept where
      cust_nation == supp_nation, partially aggregated per nation.
    - the driver merges the <= 25-row partials per nation.

    Money is exact integer cents (``rint(x*100)``), summed int64, divided
    back once — identical to the SQL twin's arithmetic.
    """
    import ray
    import ray.data

    d_lo, d_hi = _ts(lo), _ts(hi)

    # -- dims, driver-side (tiny by construction) -----------------------
    nation = pl.read_parquet(_path(sf_dir, "nation"))
    reg = pl.read_parquet(_path(sf_dir, "region"))
    rkeys = reg.filter(pl.col("r_name") == region)["r_regionkey"]
    nat_in_region = nation.filter(pl.col("n_regionkey").is_in(rkeys.implode()))
    region_nats = np.sort(nat_in_region["n_nationkey"].to_numpy().astype(np.int64))
    nat_names = {
        int(k): v
        for k, v in zip(
            nat_in_region["n_nationkey"].to_list(), nat_in_region["n_name"].to_list()
        )
    }

    # -- broadcast: region suppliers, sorted by suppkey ------------------
    sup = _read(
        sf_dir, "supplier", ["s_suppkey", "s_nationkey"],
        filter=pc.field("s_nationkey").isin(pa.array(region_nats, pa.int32())),
    )
    sup_parts = [t for t in ray.get(sup) if t.num_rows]
    if sup_parts:
        sup_t = pa.concat_tables(sup_parts)
        sk = sup_t["s_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        sn = sup_t["s_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        o = np.argsort(sk)
        sk, sn = sk[o], sn[o]
    else:
        sk = np.empty(0, np.int64)
        sn = np.empty(0, np.int64)
    sup_ref = ray.put((sk, sn))

    # -- exchange #1: customer x orders on custkey -----------------------
    def cust_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "kind": pa.array(np.zeros(t.num_rows, np.int8)),
                "key": t["c_custkey"].cast(pa.int64()),
                "nat": t["c_nationkey"].cast(pa.int64()),
                "okey": pa.array(np.zeros(t.num_rows, np.int64)),
            }
        )

    def order_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "kind": pa.array(np.ones(t.num_rows, np.int8)),
                "key": t["o_custkey"].cast(pa.int64()),
                "nat": pa.array(np.zeros(t.num_rows, np.int64)),
                "okey": t["o_orderkey"].cast(pa.int64()),
            }
        )

    cust = _read(
        sf_dir, "customer", ["c_custkey", "c_nationkey"],
        filter=pc.field("c_nationkey").isin(pa.array(region_nats, pa.int32())),
    )
    orders = _read(
        sf_dir, "orders", ["o_orderkey", "o_custkey"],
        filter=(pc.field("o_orderdate") >= pa.scalar(d_lo))
        & (pc.field("o_orderdate") < pa.scalar(d_hi)),
    )
    lines = _read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"])
    np_ = chain_parts(cust + orders + lines)

    def route_key(t: pa.Table) -> np.ndarray:
        return (
            t["key"].combine_chunks().to_numpy(zero_copy_only=False) % np_
        ).astype(np.int64)

    def join_cust(t: pa.Table) -> pa.Table:
        tt = pl.from_arrow(t)
        c = tt.filter(pl.col("kind") == 0).select("key", "nat")
        o = tt.filter(pl.col("kind") == 1).select("key", "okey")
        j = o.join(c, on="key", how="inner")
        return pa.table(
            {
                "orderkey": pa.array(j["okey"].to_numpy(), pa.int64()),
                "cust_nat": pa.array(j["nat"].to_numpy(), pa.int64()),
            }
        )

    rows = map_refs(cust_rows, cust) + map_refs(order_rows, orders)
    ord_nat = exchange_map(rows, route_key, np_, join_cust)

    # -- exchange #2: (orderkey, cust_nat) x lineitem on orderkey ---------
    def on_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "kind": pa.array(np.zeros(t.num_rows, np.int8)),
                "key": t["orderkey"],
                "nat": t["cust_nat"],
                "rev_c": pa.array(np.zeros(t.num_rows, np.int64)),
                "snat": pa.array(np.full(t.num_rows, -1, np.int64)),
            }
        )

    def line_rows(t: pa.Table) -> pa.Table:
        sk_, sn_ = ray.get(sup_ref)
        keys = t["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        if sk_.size:
            pos = np.minimum(np.searchsorted(sk_, keys), sk_.size - 1)
            ok = sk_[pos] == keys  # region suppliers only — the broadcast
        else:  # holds nothing else, so a miss means "not in region"
            pos = np.zeros(keys.size, np.int64)
            ok = np.zeros(keys.size, bool)
        tt = t.filter(pa.array(ok))
        price_c = np.rint(
            tt["l_extendedprice"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        disc_c = np.rint(
            tt["l_discount"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        n = tt.num_rows
        return pa.table(
            {
                "kind": pa.array(np.ones(n, np.int8)),
                "key": tt["l_orderkey"].cast(pa.int64()),
                "nat": pa.array(np.zeros(n, np.int64)),
                "rev_c": pa.array(price_c * (100 - disc_c), pa.int64()),
                "snat": pa.array(sn_[pos[ok]], pa.int64()),
            }
        )

    def join_line(t: pa.Table) -> pa.Table:
        tt = pl.from_arrow(t)
        o = tt.filter(pl.col("kind") == 0).select("key", "nat")
        l = tt.filter(pl.col("kind") == 1).select("key", "rev_c", "snat")
        j = l.join(o, on="key", how="inner").filter(pl.col("nat") == pl.col("snat"))
        g = j.group_by("nat").agg(pl.col("rev_c").sum())
        return pa.table(
            {
                "nat": pa.array(g["nat"].to_numpy(), pa.int64()),
                "rev_c": pa.array(g["rev_c"].to_numpy(), pa.int64()),
            }
        )

    rows = map_refs(on_rows, ord_nat) + map_refs(line_rows, lines)
    partials = exchange_map(rows, route_key, np_, join_line)

    # -- merge the <= 25-row partials per nation on the driver ------------
    g = pl.from_arrow(pa.concat_tables(ray.get(partials))).group_by("nat").agg(
        pl.col("rev_c").sum()
    )
    t = pa.table(
        {
            "nation": pa.array([nat_names[int(n)] for n in g["nat"].to_list()], pa.string()),
            "revenue": pa.array(
                g["rev_c"].to_numpy().astype(np.float64) / 10000.0, pa.float64()
            ),
        }
    )
    return ray.data.from_arrow(t.take(pc.sort_indices(t, [("revenue", "descending")])))


def revenue_change_ds(
    sf_dir: str,
    lo: str = Q6_DATE_LO,
    hi: str = Q6_DATE_HI,
    disc_lo: float = Q6_DISC_LO,
    disc_hi: float = Q6_DISC_HI,
    qty_max: float = Q6_QTY_MAX,
) -> pa.Table:
    """One row (revenue, n_rows): sum(l_extendedprice * l_discount) over a
    ship-date year, a discount band and a quantity cap — the TPC-H Q6
    forecasting-revenue-change shape. Pure filtered-scan -> per-batch
    integer-cent partial -> tiny driver reduce (one row per input block
    crosses the wire; the row-group filter prunes at the read). Float
    literal comparisons are safe on both sides: engine and twin compare the
    SAME stored float64s against identically-parsed literals."""
    import ray
    import ray.data

    def partial(t: pa.Table) -> pa.Table:
        price_c = np.rint(
            t["l_extendedprice"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        disc_c = np.rint(t["l_discount"].to_numpy(zero_copy_only=False) * 100).astype(
            np.int64
        )
        return pa.table(
            {
                "rev_c": pa.array([int((price_c * disc_c).sum())], pa.int64()),
                "n": pa.array([t.num_rows], pa.int64()),
            }
        )

    ds = ray.data.read_parquet(
        _path(sf_dir, "lineitem"),
        columns=["l_extendedprice", "l_discount"],
        filter=(pc.field("l_shipdate") >= pa.scalar(_ts(lo)))
        & (pc.field("l_shipdate") < pa.scalar(_ts(hi)))
        & (pc.field("l_discount") >= disc_lo)
        & (pc.field("l_discount") <= disc_hi)
        & (pc.field("l_quantity") < qty_max),
    ).map_batches(partial, batch_format="pyarrow")
    parts = [t for t in ray.get(arrow_refs(ds)) if t.num_rows]
    rev = sum(int(t["rev_c"][i].as_py()) for t in parts for i in range(t.num_rows))
    n = sum(int(t["n"][i].as_py()) for t in parts for i in range(t.num_rows))
    return pa.table(
        {
            "revenue": pa.array([rev / 10000.0], pa.float64()),
            "n_rows": pa.array([n], pa.int64()),
        }
    )


def label_doc_stats_ds(sf_dir: str):
    """(label, n_docs, avg_tokens): per embedding-cluster label, how many
    documents and their mean token count — the corpus x corpus ENRICHMENT
    join over the repo's docid == vec_id contract (the same identity
    hybrid_rerank and the RAG store rely on), done the scale-honest way:
    BOTH tables are corpus-scale, so neither side broadcasts — a
    kind-tagged hash exchange on docid joins them per partition, and only
    dimension-sized (label, n, sum_tokens) partials leave it."""
    from web_search_engine_ray.functions.tokenize import token_lists

    def emb_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "kind": pa.array(np.zeros(t.num_rows, np.int8)),
                "docid": t["vec_id"].cast(pa.int64()),
                "label": t["label"].cast(pa.int64()),
                "toks": pa.array(np.zeros(t.num_rows, np.int64)),
            }
        )

    def doc_rows(t: pa.Table) -> pa.Table:
        toks = token_lists(t["text"]).list.len().fill_null(0).to_numpy()
        return pa.table(
            {
                "kind": pa.array(np.ones(t.num_rows, np.int8)),
                "docid": t["doc_id"].cast(pa.int64()),
                "label": pa.array(np.zeros(t.num_rows, np.int64)),
                "toks": pa.array(toks.astype(np.int64)),
            }
        )

    emb = _read(sf_dir, "embeddings", ["vec_id", "label"])
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    np_ = chain_parts(emb + docs)

    def join(t: pa.Table) -> pa.Table:
        tt = pl.from_arrow(t)
        e = tt.filter(pl.col("kind") == 0).select("docid", "label")
        d = tt.filter(pl.col("kind") == 1).select("docid", "toks")
        j = e.join(d, on="docid", how="inner")
        g = j.group_by("label").agg(
            n=pl.len().cast(pl.Int64), s=pl.col("toks").sum()
        )
        return g.to_arrow().cast(
            pa.schema([("label", pa.int64()), ("n", pa.int64()), ("s", pa.int64())])
        )

    partials = exchange_map(
        map_refs(emb_rows, emb) + map_refs(doc_rows, docs),
        lambda t: (
            t["docid"].combine_chunks().to_numpy(zero_copy_only=False) % np_
        ).astype(np.int64),
        np_,
        join,
    )

    def merge(t: pa.Table) -> pa.Table:
        g = (
            pl.from_arrow(t)
            .group_by("label")
            .agg(pl.col("n").sum(), pl.col("s").sum())
        )
        lab = g["label"].to_numpy().astype(np.int64)
        n = g["n"].to_numpy().astype(np.int64)
        s = g["s"].to_numpy().astype(np.int64)
        return pa.table(
            {
                "label": pa.array(lab),
                "n_docs": pa.array(n),
                "avg_tokens": pa.array(
                    np.round(s.astype(np.float64) / n.astype(np.float64), 6)
                ),
            }
        )

    out = exchange_map(
        partials,
        lambda t: (
            t["label"].combine_chunks().to_numpy(zero_copy_only=False) % np_
        ).astype(np.int64),
        np_,
        merge,
    )
    return to_dataset("label_doc_stats_ds", out)
