"""Relational (TPC-H-shaped) pipeline contracts — small planted corpus so
the joins/aggregates are hand-checkable; the driver gate runs the full SQL
twins at sf0.01."""

import os
import warnings
from datetime import datetime

import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def tiny_tpch(tmp_path_factory):
    d = tmp_path_factory.mktemp("tpch")
    ts = lambda s: datetime.strptime(s, "%Y-%m-%d")
    pq.write_table(
        pa.table(
            {
                "c_custkey": pa.array([1, 2, 3], pa.int64()),
                "c_mktsegment": pa.array(
                    ["BUILDING", "AUTOMOBILE", "BUILDING"], pa.string()
                ),
            }
        ),
        str(d / "customer.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "o_orderkey": pa.array([10, 11, 12, 13], pa.int64()),
                "o_custkey": pa.array([1, 2, 3, 1], pa.int64()),
                "o_orderdate": pa.array(
                    [ts("1998-01-01"), ts("1998-01-02"), ts("1998-02-01"),
                     ts("1998-04-01")],  # 13: after cutoff -> excluded
                    pa.timestamp("us"),
                ),
                "o_orderpriority": pa.array(
                    ["1-URGENT", "2-HIGH", "5-LOW", "2-HIGH"], pa.string()
                ),
            }
        ),
        str(d / "orders.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "l_orderkey": pa.array([10, 10, 11, 12, 13], pa.int64()),
                "l_quantity": pa.array([1.0, 2.0, 3.0, 4.0, 5.0]),
                "l_extendedprice": pa.array([100.00, 50.00, 10.00, 20.00, 1.00]),
                "l_discount": pa.array([0.10, 0.00, 0.05, 0.25, 0.0]),
                "l_tax": pa.array([0.05, 0.00, 0.0, 0.08, 0.0]),
                "l_returnflag": pa.array(["N", "N", "R", "N", "A"], pa.string()),
                "l_linestatus": pa.array(["O", "O", "F", "O", "F"], pa.string()),
                "l_shipdate": pa.array(
                    [ts("1998-06-01"), ts("1998-06-02"), ts("1998-01-01"),
                     ts("1998-07-01"), ts("1998-08-01")],
                    pa.timestamp("us"),
                ),
            }
        ),
        str(d / "lineitem.parquet"),
    )
    return str(d)


def test_q3_planted(ray_session, tiny_tpch):
    from web_search_engine_ray.pipelines.relational import shipping_priority_ds

    got = shipping_priority_ds(tiny_tpch).to_pandas()
    # customer 2 is AUTOMOBILE (dropped); order 13 is after the date cutoff;
    # lineitem of order 11 shipped before the date (dropped). Survivors:
    # order 10 (cust 1): 100*0.9 + 50*1.0 = 140.00, ranked first;
    # order 12 (cust 3): 20*0.75 = 15.00
    assert len(got) == 2
    assert list(got.orderkey) == [10, 12]
    assert got.iloc[0].revenue == pytest.approx(140.0)
    assert got.iloc[0].priority == "1-URGENT"
    assert got.iloc[1].revenue == pytest.approx(15.0)


def test_q1_planted(ray_session, tiny_tpch):
    from web_search_engine_ray.pipelines.relational import pricing_summary_ds

    got = (
        pricing_summary_ds(tiny_tpch, cutoff="1998-06-15")
        .to_pandas()
        .set_index(["returnflag", "linestatus"])
    )
    # shipped on/before 1998-06-15: lines 1, 2 (N/O) and 3 (R/F)
    no = got.loc[("N", "O")]
    assert no.count_order == 2
    assert no.sum_qty == pytest.approx(3.0)
    assert no.sum_base_price == pytest.approx(150.0)
    # 100*0.9*1.05 + 50*1.0*1.0 = 94.5 + 50 = 144.5
    assert no.sum_charge == pytest.approx(144.5)
    assert no.avg_disc == pytest.approx(0.05)
    rf = got.loc[("R", "F")]
    assert rf.count_order == 1 and rf.sum_qty == pytest.approx(3.0)


def test_q1_exact_cents_determinism(ray_session, tiny_tpch):
    from web_search_engine_ray.pipelines.relational import pricing_summary_ds

    a = pricing_summary_ds(tiny_tpch).to_pandas().sort_values(
        ["returnflag", "linestatus"]
    )
    b = pricing_summary_ds(tiny_tpch).to_pandas().sort_values(
        ["returnflag", "linestatus"]
    )
    assert a.reset_index(drop=True).equals(b.reset_index(drop=True))


@pytest.fixture(scope="module")
def tiny_q5(tmp_path_factory):
    """Planted Q5 corpus: two ASIA nations + one EUROPE nation; exactly two
    lineitems survive every filter (local supplier, region, date window)."""
    d = tmp_path_factory.mktemp("tpch5")
    ts = lambda s: datetime.strptime(s, "%Y-%m-%d")
    pq.write_table(
        pa.table(
            {
                "r_regionkey": pa.array([0, 1], pa.int32()),
                "r_name": pa.array(["ASIA", "EUROPE"], pa.string()),
            }
        ),
        str(d / "region.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "n_nationkey": pa.array([0, 1, 2], pa.int32()),
                "n_name": pa.array(["JAPAN", "CHINA", "FRANCE"], pa.string()),
                "n_regionkey": pa.array([0, 0, 1], pa.int32()),
            }
        ),
        str(d / "nation.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "s_suppkey": pa.array([1, 2, 3], pa.int64()),
                "s_nationkey": pa.array([0, 2, 1], pa.int32()),
            }
        ),
        str(d / "supplier.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "c_custkey": pa.array([1, 2, 3], pa.int64()),
                "c_nationkey": pa.array([0, 1, 2], pa.int32()),
            }
        ),
        str(d / "customer.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "o_orderkey": pa.array([10, 11, 12, 13], pa.int64()),
                "o_custkey": pa.array([1, 2, 3, 1], pa.int64()),
                "o_orderdate": pa.array(
                    [ts("1996-05-01"), ts("1996-06-01"), ts("1996-06-02"),
                     ts("1997-02-01")],  # 13: out of the window
                    pa.timestamp("us"),
                ),
            }
        ),
        str(d / "orders.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "l_orderkey": pa.array([10, 10, 11, 11, 12, 13], pa.int64()),
                "l_suppkey": pa.array([1, 3, 3, 2, 1, 1], pa.int64()),
                "l_extendedprice": pa.array([100.0, 10.0, 50.0, 5.0, 7.0, 9.0]),
                "l_discount": pa.array([0.10, 0.0, 0.0, 0.0, 0.0, 0.0]),
            }
        ),
        str(d / "lineitem.parquet"),
    )
    return str(d)


def test_q5_planted(ray_session, tiny_q5):
    from web_search_engine_ray.pipelines.relational import local_supplier_volume_ds

    # the region filter's ``is_in`` takes an imploded list (a bare Series
    # is deprecated in Polars 2.0). That warning is raised from Polars' Rust
    # side, which prints an "error" warning and goes on, so record them all
    # and allow only Ray's own.
    import ray

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DeprecationWarning)
        got = local_supplier_volume_ds(tiny_q5).to_pandas()
    ray_dir = os.path.dirname(ray.__file__)
    ours = [
        str(w.message)
        for w in caught
        if issubclass(w.category, DeprecationWarning) and not w.filename.startswith(ray_dir)
    ]
    assert not ours
    # survivors: o10xS1 (JAPAN local: 100*0.9=90), o11xS3 (CHINA local: 50);
    # o10xS3 mismatched nations, o11xS2 non-region supplier, o12 non-region
    # customer, o13 out of the date window
    assert list(got.nation) == ["JAPAN", "CHINA"]
    assert got.iloc[0].revenue == pytest.approx(90.0)
    assert got.iloc[1].revenue == pytest.approx(50.0)


def test_q6_planted(ray_session, tiny_tpch):
    from web_search_engine_ray.pipelines.relational import revenue_change_ds

    got = revenue_change_ds(
        tiny_tpch, lo="1998-01-01", hi="1999-01-01"
    ).to_pandas()
    # only line 3 (disc 0.05) is inside the discount band -> 10.00 * 0.05
    assert got.iloc[0].n_rows == 1
    assert got.iloc[0].revenue == pytest.approx(0.5)
    # empty window -> the zero row, not NULL (mirrors the COALESCE twin)
    empty = revenue_change_ds(tiny_tpch, lo="1990-01-01", hi="1990-02-01").to_pandas()
    assert empty.iloc[0].n_rows == 0 and empty.iloc[0].revenue == 0.0


def test_q5_q6_match_oracle(ray_session, oracle_eq):
    import duckdb
    import pandas as pd

    import __ray_entry__ as entrymod

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    for t in ["customer", "orders", "lineitem", "supplier", "nation", "region"]:
        con.sql(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')"
        )
    for q in ["tpch_q5", "tpch_q6"]:
        got = entrymod.queries()[q](sf)
        got = got.to_pandas() if hasattr(got, "to_pandas") else got
        want = con.sql(entrymod.oracle_sql()[q]).df()


        oracle_eq(got, want)


def test_label_doc_stats_matches_oracle(ray_session, oracle_eq):
    import duckdb

    import __ray_entry__ as entrymod

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    for t in ["documents", "embeddings"]:
        con.sql(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')"
        )
    oracle_eq(
        entrymod.queries()["label_doc_stats"](sf),
        con.sql(entrymod.oracle_sql()["label_doc_stats"]).df(),
    )
