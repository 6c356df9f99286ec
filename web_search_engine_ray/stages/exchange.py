"""Hash-partition exchange over block refs, without a sort.

``Dataset.groupby(k).map_groups(fn)`` routes through Ray Data's sort-based
shuffle — an O(n log n) range-partition exchange with a multi-second floor
that dwarfs the actual work for the coarse-partition pattern the engine's
operators use (a small int or hashed key, a vectorized whole-partition
function). :func:`exchange_map` is the direct expression of that pattern
over a list of Arrow block refs (``ObjectRef``):

1. one Ray task per group of input blocks splits it by ``part``
   (``num_returns=P`` small side tables — the only data movement, O(n));
2. one Ray task per partition concatenates its slices from every group
   and applies ``fn`` to the whole partition at once;
3. the result is one ref per partition, returned before any task has run,
   so a chain of exchanges is submitted whole and Ray starts each task as
   soon as its inputs exist.

This is the classic map-side hash shuffle (same discipline as the index
build's one-row-group-per-gkey merge): B x P shuffle objects, no sort, no
comparator. Ray Data's own keyed ``Dataset.repartition(keys=...,
num_blocks=...)`` (hash shuffle) ran the conversation near-dup chain in
20.4 s against 2.4 s here on a 4-CPU node (1-core host), and hung on a
1-CPU node. ``fn`` gets a whole hash partition (many keys), exactly like
``map_groups`` on a coarse key, and must tolerate an empty table: empty
partitions still invoke it, so the output block count is deterministic.

A chain reads its head once into refs (:func:`read_refs`, which leaves out
zero-row files), is sized once from it (:func:`chain_parts`), runs its
per-block UDFs as :func:`map_refs` tasks (so every block carries the UDF's
schema, empty or not), and leaves through one :func:`to_dataset` — the
chain's only driver wait. :func:`by_key` is one exchange on a key
column and :func:`aggregate` the "per-block partial -> hash on key ->
merge" chain. Every single-key route is :func:`hash_route`.
:func:`as_ready` is the driver's wait loop for every plain-task fan-out: a
stalled one logs ``<stage>: k/n <tasks|partitions> done`` every
``STALL_LOG_S`` seconds.
"""

from __future__ import annotations

import logging
from collections.abc import Callable

import numpy as np
import polars as pl
import pyarrow as pa

# seconds without a finished task before a fan-out logs its progress
STALL_LOG_S = 30.0

# at most this many splitter tasks per exchange (see exchange_map)
MAX_SPLIT_TASKS = 16

log = logging.getLogger(__name__)


def arrow_refs(ds) -> list:
    """``ds.to_arrow_refs()`` that runs ``ds``'s plan once. On a lazy
    Dataset, ``to_arrow_refs`` executes the plan, then executes it again
    under ``limit(1)`` to read the schema and cancels that second run's
    tasks once one row is out. A cancelled map task can keep its CPU until
    Ray shuts down, which starves every later task of that slot (at 1 CPU,
    all of them). Materializing first keeps the schema with the blocks."""
    return ds.materialize().to_arrow_refs()


def hash_route(col: str, n: int) -> Callable[[pa.Table], np.ndarray]:
    """The partition callable for a key column: polars hash (seed 7) of
    ``col`` mod ``n``. Routing only balances the exchange: every row of a
    key lands in one partition, whichever that is."""

    def route(t: pa.Table) -> np.ndarray:
        return (
            pl.from_arrow(t[col]).hash(seed=7).to_numpy() % np.uint64(n)
        ).astype(np.int64)

    return route


def route_probe(n: int) -> list:
    """:func:`hash_route` of three sentinel keys. polars does not pin its
    hash across releases, so a resumable sink routed by it embeds this
    probe, and a resume under a different routing (which would mix two
    layouts in one output dir) refuses instead."""
    probe = pa.table({"k": ["wse-routing-probe-a", "wse-routing-probe-b", ""]})
    return hash_route("k", n)(probe).tolist()


def exchange_map(
    refs: list,
    part: str | Callable[[pa.Table], np.ndarray],
    n_parts: int,
    fn: Callable[[pa.Table], pa.Table],
    with_index: bool = False,
) -> list:
    """Apply ``fn`` once per hash partition of the blocks ``refs``, without
    a sort shuffle; returns one ref per partition, at once. ``part`` is
    either the name of an int column with values in [0, n_parts), dropped
    before ``fn``, or a callable computing the partition vector from a
    block (usually :func:`hash_route`). The exchange runs at exactly
    ``n_parts``: a chain is sized once from its head (:func:`chain_parts`).

    ``with_index=True`` calls ``fn(table, partition_index)``, for sinks
    that need a deterministic per-partition output name.

    Input blocks are coalesced into at most ``MAX_SPLIT_TASKS`` splitter
    tasks (Spark's shuffle-file consolidation): the exchange creates
    ``split_tasks x n_parts`` objects, and per-object bookkeeping, not
    bytes, dominates small exchanges."""
    import ray

    if not isinstance(refs, list):
        raise TypeError(
            f"exchange_map takes a list of block refs, not {type(refs).__name__}"
        )
    if not refs:
        raise ValueError("exchange_map needs at least one input block")

    @ray.remote(num_returns=n_parts)
    def split(*ts: pa.Table):
        ts = tuple(x for x in ts if x.num_rows) or ts[:1]
        t = pa.concat_tables(ts).combine_chunks() if len(ts) > 1 else ts[0]
        if t.num_rows == 0:  # nothing to route: every partition gets it
            if isinstance(part, str) and part in t.column_names:
                t = t.drop_columns([part])
            return [t] * n_parts if n_parts > 1 else t
        if callable(part):
            p = np.asarray(part(t), dtype=np.int64)
        else:
            p = t[part].combine_chunks().to_numpy(zero_copy_only=False)
            if p.dtype.kind == "f":
                # nulls in an int column arrive as float NaN — NaN passes
                # every bound comparison and the row would vanish silently
                if np.isnan(p).any():
                    raise ValueError(
                        f"partition column {part!r} contains nulls — rows "
                        "would be dropped silently"
                    )
                p = p.astype(np.int64)
            t = t.drop_columns([part])
        if p.size and (p.min() < 0 or p.max() >= n_parts):
            raise ValueError(
                f"partition values outside [0, {n_parts}): "
                f"[{p.min()}, {p.max()}] — rows would be dropped silently"
            )
        order = np.argsort(p, kind="stable")
        bounds = np.searchsorted(p[order], np.arange(n_parts + 1))
        taken = t.take(pa.array(order))
        out = [
            taken.slice(int(bounds[i]), int(bounds[i + 1] - bounds[i]))
            for i in range(n_parts)
        ]
        return out if n_parts > 1 else out[0]

    @ray.remote
    def apply(pi: int, *parts: pa.Table) -> pa.Table:
        nonempty = [x for x in parts if x.num_rows]
        t = pa.concat_tables(nonempty).combine_chunks() if nonempty else parts[0]
        return fn(t, pi) if with_index else fn(t)

    gsize = max(1, -(-len(refs) // MAX_SPLIT_TASKS))
    groups = [refs[i : i + gsize] for i in range(0, len(refs), gsize)]
    per_group = [split.remote(*g) for g in groups]
    if n_parts == 1:
        per_group = [[r] for r in per_group]
    return [
        apply.remote(p, *[per_group[g][p] for g in range(len(groups))])
        for p in range(n_parts)
    ]


def read_refs(files: str | list[str], columns: list[str] | None = None) -> list:
    """Block refs of the parquet ``files``' ``columns``, read once; a
    directory stands for its ``*.parquet`` files. Zero-row files are left
    out (footer reads): Ray Data reads one as an empty block with no
    columns, which a downstream UDF would trip on. An all-empty input gives
    one empty block that keeps the columns."""
    import glob
    import os

    import pyarrow.parquet as pq
    import ray
    import ray.data

    files = [
        g
        for f in ([files] if isinstance(files, str) else files)
        for g in (sorted(glob.glob(os.path.join(f, "*.parquet"))) if os.path.isdir(f) else [f])
    ]
    rows = [f for f in files if pq.read_metadata(f).num_rows]
    if not rows:
        return [ray.put(pq.read_table(files[0], columns=columns))]
    return arrow_refs(ray.data.read_parquet(rows, columns=columns))


def by_key(refs: list, key: str, fn: Callable[[pa.Table], pa.Table]) -> list:
    """``fn`` per ``key`` hash partition of ``refs``: one exchange, sized
    from ``refs`` (:func:`chain_parts`); returns the partitions' refs."""
    n = chain_parts(refs)
    return exchange_map(refs, hash_route(key, n), n, fn)


def aggregate(refs: list, partial: Callable, key: str, merge: Callable) -> list:
    """``merge`` per ``key`` hash partition of the per-block ``partial``
    aggregates of ``refs``: the shuffle moves partials, never rows. One
    exchange, sized from ``refs`` (:func:`chain_parts`); returns the
    merged partitions' refs."""
    n = chain_parts(refs)
    return exchange_map(map_refs(partial, refs), hash_route(key, n), n, merge)


def map_refs(fn: Callable[[pa.Table], object], refs: list) -> list:
    """``fn`` applied to each block of ``refs`` by one plain Ray task per
    block; returns the output refs in input order, before any task has run.
    The refs counterpart of ``Dataset.map_batches(fn, batch_format=
    "pyarrow")``, except that ``fn`` gets the whole block and also runs on
    empty blocks, so every output block carries ``fn``'s schema. ``fn`` may
    also return a small value (a per-block count) for the driver to
    ``ray.get``."""
    import ray

    task = ray.remote(fn)
    return [task.remote(r) for r in refs]


def as_ready(stage: str, refs: list, what: str = "tasks"):
    """Yield ``refs`` in batches as their tasks finish. While none finishes
    for ``STALL_LOG_S`` seconds, log ``<stage>: k/n <what> done``, so a
    stalled fan-out names itself."""
    import ray

    pending, done = list(refs), 0
    while pending:
        ready, pending = ray.wait(pending, num_returns=len(pending), timeout=STALL_LOG_S)
        if not ready:
            log.warning(
                "%s: %d/%d %s done, none finished in %gs",
                stage, done, len(refs), what, STALL_LOG_S,
            )
            continue
        done += len(ready)
        yield ready


def to_dataset(stage: str, refs: list):
    """The Dataset of a chain's final block refs. Waits for every partition
    through :func:`as_ready` first, so a stalled chain logs ``stage``;
    ``from_arrow_refs`` would block on the same tasks without a word."""
    import ray.data

    for _ in as_ready(stage, refs, "partitions"):
        pass
    return ray.data.from_arrow_refs(refs)


def chain_parts(refs: list) -> int:
    """Partition count for a chain of exchanges over block refs, sized once
    from its head ``refs`` (ready blocks, e.g. from :func:`read_refs`):
    ``max(2 x cluster CPUs, ceil(head bytes / target_max_block_size))``.
    Per-partition state stays roughly constant as nodes are added, and no
    partition outgrows one Ray Data block. Every exchange of the chain runs
    at that count: past its first exchange, an input block count is just
    the previous exchange's partition count. Results of a per-key merge do
    not depend on the count."""
    import ray
    from ray.data import DataContext

    locs = ray.experimental.get_object_locations(refs)
    head_bytes = sum(locs[r]["object_size"] or 0 for r in refs)
    target = DataContext.get_current().target_max_block_size
    cpus = int(ray.cluster_resources().get("CPU", 0))
    return max(2 * cpus, -(-head_bytes // target), 1)

