"""stages/exchange.py: partition completeness, empty partitions, callable vs
column keys, coalescing, and partition-invariance of merged aggregates. The
exchange takes and returns block refs."""

import numpy as np
import pyarrow as pa
import pytest


def _make_refs(n_rows=1000, n_blocks=7, seed=3) -> list:
    """``n_blocks`` (k, v) int64 blocks in the object store."""
    import ray

    rng = np.random.default_rng(seed)
    tables = []
    per = n_rows // n_blocks
    for b in range(n_blocks):
        tables.append(
            pa.table(
                {
                    "k": pa.array(rng.integers(0, 10, per), pa.int64()),
                    "v": pa.array(rng.integers(0, 100, per), pa.int64()),
                }
            )
        )
    return [ray.put(t) for t in tables]


def _rows(refs: list):
    """The blocks ``refs`` as one pandas frame."""
    import ray

    return pa.concat_tables(ray.get(refs)).to_pandas()


def test_exchange_partition_completeness(ray_session):
    from web_search_engine_ray.stages.exchange import exchange_map

    refs = _make_refs()
    src = _rows(refs)

    def fn(t: pa.Table) -> pa.Table:
        # identity: every row must arrive exactly once, keyed correctly
        return t

    out = _rows(exchange_map(refs, lambda t: t["k"].to_numpy() % 4, 4, fn))
    assert len(out) == len(src)
    assert sorted(zip(out["k"], out["v"])) == sorted(zip(src["k"], src["v"]))


def test_exchange_routes_by_key(ray_session):
    from web_search_engine_ray.stages.exchange import exchange_map

    refs = _make_refs()

    def fn(t: pa.Table) -> pa.Table:
        ks = np.unique(t["k"].to_numpy() % 4) if t.num_rows else np.array([])
        # every row in one partition task shares the partition key
        assert ks.size <= 1, ks
        return pa.table({"n": pa.array([t.num_rows], pa.int64())})

    out = _rows(exchange_map(refs, lambda t: t["k"].to_numpy() % 4, 4, fn))
    assert len(out) == 4  # one output block per partition, empties included
    assert out["n"].sum() == len(_rows(refs))


def test_exchange_column_key_dropped(ray_session):
    import ray

    from web_search_engine_ray.stages.exchange import exchange_map

    t = pa.table(
        {
            "p": pa.array([0, 1, 0, 1], pa.int64()),
            "v": pa.array([10, 20, 30, 40], pa.int64()),
        }
    )
    def fn(g: pa.Table) -> pa.Table:
        assert "p" not in g.column_names
        return g

    out = _rows(exchange_map([ray.put(t)], "p", 2, fn))
    assert sorted(out["v"]) == [10, 20, 30, 40]


def test_exchange_empty_partitions_still_call_fn(ray_session):
    import ray

    from web_search_engine_ray.stages.exchange import exchange_map

    t = pa.table({"k": pa.array([5, 5, 5], pa.int64())})
    out = exchange_map(
        [ray.put(t)],
        lambda x: x["k"].to_numpy() % 8,
        8,
        lambda g: pa.table({"n": pa.array([g.num_rows], pa.int64())}),
    )
    assert len(out) == 8
    assert sorted(b["n"][0].as_py() for b in ray.get(out)) == [0] * 7 + [3]


def test_exchange_result_invariant_to_split_tasks(ray_session, monkeypatch):
    """Merged aggregates must not depend on the coalescing granularity."""
    from web_search_engine_ray.stages import exchange
    from web_search_engine_ray.stages.exchange import exchange_map

    import polars as pl

    def merge(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t).group_by("k").agg(pl.col("v").sum()).to_arrow()
        )

    outs = []
    for mst in (1, 3, 100):
        monkeypatch.setattr(exchange, "MAX_SPLIT_TASKS", mst)
        o = _rows(exchange_map(_make_refs(), lambda t: t["k"].to_numpy() % 4, 4, merge))
        outs.append(o.sort_values(["k"]).reset_index(drop=True))
    assert outs[0].equals(outs[1]) and outs[1].equals(outs[2])


def test_exchange_rejects_empty_dataset(ray_session):
    """One empty block is fine (``fn`` sees an empty table); zero blocks
    are not, and neither is a Dataset: the exchange takes block refs only."""
    import ray
    import ray.data

    from web_search_engine_ray.stages.exchange import exchange_map

    def route(t):
        return t["k"].to_numpy() % 2

    def count(g):
        return pa.table({"n": pa.array([g.num_rows], pa.int64())})

    empty = pa.table({"k": pa.array([], pa.int64())})
    assert sorted(_rows(exchange_map([ray.put(empty)], route, 2, count))["n"]) == [0, 0]
    with pytest.raises(ValueError, match="at least one input block"):
        exchange_map([], route, 2, count)
    with pytest.raises(TypeError, match="list of block refs"):
        exchange_map(ray.data.from_arrow(empty), route, 2, count)


def test_map_refs_empty_head_block_carries_udf_schema(ray_session, monkeypatch):
    """An empty head block (e.g. an empty parquet file of a multi-file
    corpus) runs the ``map_refs`` UDF like any other, so it reaches the
    exchange with the UDF's schema, and ``fn`` only ever sees that schema —
    also in partitions whose only input is the empty block's slice."""
    import ray

    from web_search_engine_ray.stages import exchange
    from web_search_engine_ray.stages.exchange import exchange_map, map_refs

    pre = pa.table({"text": pa.array([], pa.string())})  # source schema
    data = pa.table({"text": pa.array(["a", "b", "c"], pa.string())})

    def udf(t: pa.Table) -> pa.Table:
        t = t.append_column(
            "k", pa.array(np.arange(t.num_rows) % 2, pa.int64())
        )
        return t.append_column(
            "val", pa.array(np.full(t.num_rows, 7), pa.int64())
        )

    def fn(g: pa.Table) -> pa.Table:
        # reads a UDF-added column: KeyErrors if g carries the source schema
        s = int(pa.compute.sum(g["val"]).as_py() or 0)
        return pa.table(
            {"n": pa.array([g.num_rows], pa.int64()),
             "s": pa.array([s], pa.int64())}
        )

    blocks = map_refs(udf, [ray.put(pre), ray.put(data)])
    assert all(t.column_names == ["text", "k", "val"] for t in ray.get(blocks))
    # 6 partitions but keys only hit {0, 1}: partitions 2-5 are all-empty,
    # and one splitter sees only the empty block
    monkeypatch.setattr(exchange, "MAX_SPLIT_TASKS", 100)
    out = _rows(exchange_map(blocks, "k", 6, fn))
    assert len(out) == 6
    assert out["n"].sum() == 3
    assert out["s"].sum() == 21


def test_exchange_property_random(ray_session, monkeypatch):
    """Property: for arbitrary key/value tables, block splits, and partition
    counts, the exchange is a permutation of the input (no loss, no dupes)
    and per-key sums survive a group-merge exactly."""
    import polars as pl
    import ray

    from web_search_engine_ray.stages import exchange
    from web_search_engine_ray.stages.exchange import exchange_map

    rng = np.random.default_rng(123)
    for trial in range(8):
        n_rows = int(rng.integers(1, 400))
        n_blocks = int(rng.integers(1, 9))
        n_parts = int(rng.integers(1, 17))
        keys = rng.integers(0, max(1, int(rng.integers(1, 50))), n_rows)
        vals = rng.integers(-1000, 1000, n_rows)
        cuts = np.sort(rng.integers(0, n_rows + 1, n_blocks - 1)) if n_blocks > 1 else []
        bounds = [0, *cuts, n_rows]
        tables = [
            pa.table(
                {
                    "k": pa.array(keys[bounds[i] : bounds[i + 1]], pa.int64()),
                    "v": pa.array(vals[bounds[i] : bounds[i + 1]], pa.int64()),
                }
            )
            for i in range(n_blocks)
        ]
        refs = [ray.put(t) for t in tables]

        def merge(t: pa.Table) -> pa.Table:
            return (
                pl.from_arrow(t).group_by("k").agg(pl.col("v").sum()).to_arrow()
            )

        monkeypatch.setattr(exchange, "MAX_SPLIT_TASKS", int(rng.integers(1, 6)))
        out = _rows(
            exchange_map(
                refs,
                lambda t: t["k"].to_numpy(zero_copy_only=False) % n_parts,
                n_parts,
                merge,
            )
        )
        want = (
            pl.DataFrame({"k": keys, "v": vals})
            .group_by("k")
            .agg(pl.col("v").sum())
            .to_pandas()
        )
        got = out.sort_values("k").reset_index(drop=True)
        want = want.sort_values("k").reset_index(drop=True)
        assert got["k"].tolist() == want["k"].tolist(), trial
        assert got["v"].tolist() == want["v"].tolist(), trial


def test_exchange_chain_keeps_partition_count(ray_session):
    """A chain runs every exchange at the one count it was sized to, with
    empty partitions included, and ``with_index`` sinks too. A per-key merge
    gives the same rows at any count: every key lands whole in one
    partition."""
    import polars as pl
    import ray

    from web_search_engine_ray.stages.exchange import exchange_map, hash_route

    def merge(t: pa.Table) -> pa.Table:
        return pl.from_arrow(t).group_by("k").agg(pl.col("v").sum()).to_arrow()

    def indexed(t: pa.Table, pi: int) -> pa.Table:
        return merge(t)

    want = sorted(pl.from_pandas(_rows(_make_refs(210, 7))).group_by("k").agg(pl.col("v").sum()).rows())
    for n in (1, 3, 64):
        route = hash_route("k", n)
        first = exchange_map(_make_refs(210, 7), route, n, merge)
        second = exchange_map(first, route, n, merge)
        sink = exchange_map(second, route, n, indexed, with_index=True)
        for out in (first, second, sink):
            assert len(out) == n
            got = ray.get(out)
            keys = [k for t in got for k in t["k"].to_pylist()]
            assert len(keys) == len(set(keys))  # no key split across partitions
            assert sorted(pl.from_arrow(pa.concat_tables(got)).rows()) == want


def test_arrow_refs_and_exchange_run_the_plan_once(ray_session, tmp_path):
    """``Dataset.to_arrow_refs`` on a lazy plan runs it again under
    ``limit(1)`` to read the schema and cancels that run's tasks; a
    cancelled task can hold its CPU until Ray shuts down. Through
    ``arrow_refs`` (and so ``exchange_map``) every input row passes the
    upstream UDF exactly once."""
    import uuid

    import ray

    import ray.data

    from web_search_engine_ray.stages.exchange import arrow_refs, exchange_map

    seen = tmp_path / "seen"
    seen.mkdir()

    def mark(t: pa.Table) -> pa.Table:
        # one file per UDF call, named by its row count (workers share /tmp)
        (seen / f"{t.num_rows}_{uuid.uuid4().hex}").touch()
        return t

    def rows_seen() -> int:
        n = sum(int(p.name.split("_")[0]) for p in seen.iterdir())
        for p in seen.iterdir():
            p.unlink()
        return n

    def ds():
        return ray.data.from_arrow(ray.get(_make_refs(700, 7)))

    refs = arrow_refs(ds().map_batches(mark, batch_format="pyarrow"))
    assert sum(t.num_rows for t in ray.get(refs)) == 700
    assert rows_seen() == 700

    out = exchange_map(
        arrow_refs(ds().map_batches(mark, batch_format="pyarrow")), "k", 10, lambda t: t
    )
    assert len(_rows(out)) == 700
    assert rows_seen() == 700


def test_chain_parts_sizes_from_cluster_and_input(ray_session, monkeypatch):
    """A chain is 2 x CPUs wide unless its head's bytes need more Ray Data
    blocks of ``target_max_block_size``: then one partition per block."""
    import ray
    from ray.data import DataContext

    from web_search_engine_ray.stages.exchange import chain_parts

    cpus = int(ray.cluster_resources()["CPU"])
    t = pa.table({"v": np.arange(100_000, dtype=np.int64)})
    refs = [ray.put(t) for _ in range(3)]
    assert chain_parts(refs) == 2 * cpus
    block = 64 * 1024
    monkeypatch.setattr(DataContext.get_current(), "target_max_block_size", block)
    n = chain_parts(refs)
    assert n > 2 * cpus
    assert n * block >= 3 * t.nbytes  # every partition within one block
    assert (n - 1) * block < 3 * (t.nbytes + block)  # not more than needed

