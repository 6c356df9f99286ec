"""Hash-partition exchange without a sort.

``Dataset.groupby(k).map_groups(fn)`` routes through Ray Data's sort-based
shuffle — an O(n log n) range-partition exchange with a multi-second floor
that dwarfs the actual work for the coarse-partition pattern the dedup
operators use (a small int partition column, a vectorized whole-partition
function). :func:`exchange_map` is the direct expression of that pattern:

1. one Ray task per input block splits it by ``part_col`` (``num_returns=P``
   small side tables — the only data movement, O(n) total);
2. one Ray task per partition concatenates its P-th slices from every block
   and applies ``fn`` to the whole partition at once;
3. the results come back as the input's kind. A list of block refs
   (``ObjectRef``) in gives one ref per partition out, with no driver wait:
   a chain of exchanges over refs is submitted whole, and Ray starts each
   task as soon as its inputs exist. A ``Dataset`` in is the same exchange
   between one :func:`arrow_refs` and one :func:`to_dataset`, so the rest
   of the pipeline stays in Dataset land.

The partition count is derived from the input, never set per call: a
Dataset trims the caller's ``n_parts`` to its block count, and a refs chain
runs at the count :func:`chain_parts` sized once from its head. Every
single-key route is :func:`hash_route`.

This is the classic map-side hash shuffle (same discipline as the index
build's one-row-group-per-gkey merge): B x P shuffle objects, no sort, no
comparator. Use it when (a) the partition count is modest (<= a few
hundred), (b) ``fn`` is happy receiving MANY groups in one call (it gets a
whole hash partition, exactly like ``map_groups`` on a coarse key), and
(c) per-partition output is small. For high-cardinality keys or when Ray
should manage memory per group, stick with ``groupby``.

``fn`` must tolerate an empty table (carrying the input schema) — empty
partitions still invoke it so the output block count is deterministic.

The refs form has two helpers: :func:`map_refs` (one plain task per block,
the refs counterpart of ``map_batches``) and :func:`to_dataset` (the
chain's one driver wait, then ``from_arrow_refs``); :func:`chain_parts` sizes
a chain once from its head blocks. :func:`as_ready` is the
driver's wait loop for every plain-task fan-out: a stalled one logs
``<stage>: k/n <tasks|partitions> done`` every ``STALL_LOG_S`` seconds.
"""

from __future__ import annotations

import logging
from collections.abc import Callable

import numpy as np
import polars as pl
import pyarrow as pa

# seconds without a finished task before a fan-out logs its progress
STALL_LOG_S = 30.0

# at most this many splitter tasks per exchange (see _exchange_refs)
MAX_SPLIT_TASKS = 16

log = logging.getLogger(__name__)

# Schema-metadata marker for empty blocks whose schema may be PRE-UDF
# (Ray Data skips map UDFs on empty blocks, so an empty parquet file's
# block still carries the source schema after map_batches). apply() must
# never hand such a schema to ``fn``.
_PRE_UDF = "__wse_pre_udf_schema__"


def _tag_untrusted(t: pa.Table) -> pa.Table:
    meta = dict(t.schema.metadata or {})
    meta[_PRE_UDF.encode()] = b"1"
    return t.replace_schema_metadata(meta)


def _is_untrusted(t: pa.Table) -> bool:
    return bool((t.schema.metadata or {}).get(_PRE_UDF.encode()))


def arrow_refs(ds) -> list:
    """``ds.to_arrow_refs()`` that runs ``ds``'s plan once. On a lazy
    Dataset, ``to_arrow_refs`` executes the plan, then executes it again
    under ``limit(1)`` to read the schema and cancels that second run's
    tasks once one row is out. A cancelled map task can keep its CPU until
    Ray shuts down, and a later fixed actor pool then waits forever for
    the slot. Materializing first keeps the schema with the blocks."""
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
    ds,
    part: str | Callable[[pa.Table], np.ndarray],
    n_parts: int,
    fn: Callable[[pa.Table], pa.Table],
    with_index: bool = False,
):
    """Apply ``fn`` once per hash partition of ``ds``, without a sort
    shuffle. ``ds`` is a Dataset or a list of block refs; the result is the
    same kind: a Dataset of ``fn``'s outputs, or one ref per partition
    (returned at once, before any task has run). ``part`` is either the
    name of an int column with values in [0, n_parts), dropped before
    ``fn``, or a callable computing the partition vector from a block
    (usually :func:`hash_route`). The callable form sidesteps Ray Data's
    skip-UDF-on-empty-blocks behavior: an add-partition-column
    ``map_batches`` never runs on empty blocks, so the column can be
    missing; a callable always works. Either way the output has one block
    per partition.

    ``with_index=True`` calls ``fn(table, partition_index)``, for sinks
    that need a deterministic per-partition output name.

    The partition count is derived, never set per call:

    - A list of block refs runs at exactly ``n_parts``: a chain is sized
      once from its head (:func:`chain_parts`), and past the head every
      input block count is just the previous exchange's partition count.
    - A Dataset runs at the largest power-of-two divisor of ``n_parts`` not
      far above twice its block count, so a tiny input pays ~4 apply tasks
      instead of 64 and a corpus-scale one keeps ``n_parts``. Routing
      values are re-modded (``(x % n) % d == x % d`` when ``d | n``), so
      every key still lands whole in one partition, and a per-key merge
      (aggregate, dedup, pair verify) gives the same rows. A ``with_index``
      sink keeps ``n_parts``: its partition index is part of its output.
      The Dataset form waits for its partitions through :func:`to_dataset`,
      so a stalled exchange logs ``fn``'s name."""
    if isinstance(ds, list):
        return _exchange_refs(ds, part, n_parts, n_parts, fn, with_index)
    blocks = arrow_refs(ds)
    n = n_parts
    if not with_index:
        target = max(4, 2 * len(blocks))
        while n % 2 == 0 and n >= 2 * target:
            n //= 2
    out = _exchange_refs(blocks, part, n_parts, n, fn, with_index)
    return to_dataset(getattr(fn, "__name__", "exchange_map"), out)


def _exchange_refs(blocks, part, n_route, n_parts, fn, with_index) -> list:
    """The exchange over block refs: ``part`` routes into [0, ``n_route``),
    re-modded to ``n_parts`` (a divisor of ``n_route``). Input blocks are
    coalesced into at most ``MAX_SPLIT_TASKS`` splitter tasks (Spark's
    shuffle-file consolidation): the exchange creates ``split_tasks x
    n_parts`` objects, and per-object bookkeeping, not bytes, dominates
    small exchanges."""
    import ray

    if not blocks:
        raise ValueError("exchange_map needs at least one input block")

    @ray.remote(num_returns=n_parts)
    def split(*ts: pa.Table):
        # empty blocks can carry a PRE-UDF schema (Ray Data skips map UDFs
        # on empty blocks) — their partition columns may not exist; they
        # contribute nothing, so route zero-row empties everywhere and let
        # apply() drop schema-mismatched empties
        ts = (
            tuple(x for x in ts if x.num_rows)
            # all-empty group: prefer a representative that at least HAS
            # columns — a zero-column empty (some Ray read plans emit them)
            # would otherwise propagate a schema the partition fn chokes on
            or tuple(x for x in ts if x.schema.names)[:1]
            or ts[:1]
        )
        if ts[0].num_rows == 0:
            empty = _tag_untrusted(ts[0].slice(0, 0))
            return [empty] * n_parts if n_parts > 1 else empty
        t = pa.concat_tables(ts).combine_chunks() if len(ts) > 1 else ts[0]
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
        if p.size and (p.min() < 0 or p.max() >= n_route):
            raise ValueError(
                f"partition values outside [0, {n_route}): "
                f"[{p.min()}, {p.max()}] — rows would be dropped silently"
            )
        if n_parts != n_route:
            p = p % n_parts  # n_parts | n_route, so keys stay whole
        order = np.argsort(p, kind="stable")
        sorted_p = p[order]
        bounds = np.searchsorted(sorted_p, np.arange(n_parts + 1))
        taken = t.take(pa.array(order))
        out = [
            taken.slice(int(bounds[i]), int(bounds[i + 1] - bounds[i]))
            for i in range(n_parts)
        ]
        return out if n_parts > 1 else out[0]

    @ray.remote
    def apply(pi: int, *parts: pa.Table) -> pa.Table:
        nonempty = [x for x in parts if x.num_rows]
        if nonempty:
            t = pa.concat_tables(nonempty).combine_chunks()
        else:
            # all-empty partition: empties from a splitter group that saw
            # data carry the correct post-exchange schema; empties from an
            # all-empty group are tagged _PRE_UDF and may carry a stale
            # source schema — only use one if nothing better exists (i.e.
            # the whole dataset was empty)
            trusted = [x for x in parts if not _is_untrusted(x)]
            t = trusted[0] if trusted else parts[0]
        return fn(t, pi) if with_index else fn(t)

    gsize = max(1, -(-len(blocks) // MAX_SPLIT_TASKS))
    groups = [blocks[i : i + gsize] for i in range(0, len(blocks), gsize)]
    per_group = [split.remote(*g) for g in groups]
    if n_parts == 1:
        per_group = [[r] for r in per_group]
    return [
        apply.remote(p, *[per_group[g][p] for g in range(len(groups))])
        for p in range(n_parts)
    ]


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


def cluster_parts(min_parts: int = 64) -> int:
    """Partition count scaled to the cluster: ``max(min_parts, 2 x total
    CPUs)``, so per-partition state stays roughly constant as nodes are
    added (64 partitions that fit a laptop would each hold ~1.5 TB of a
    100 TB corpus on a 256-node cluster). Safe wherever the partition fn
    is a per-key merge — results are partition-count invariant (the same
    property the Dataset-form trim of :func:`exchange_map` relies on in the
    other direction)."""
    try:
        import ray

        if ray.is_initialized():
            cpus = int(ray.cluster_resources().get("CPU", 0))
            return max(min_parts, 2 * cpus)
    except Exception:  # pragma: no cover - resource query is best-effort
        pass
    return min_parts


def chain_parts(refs: list) -> int:
    """Partition count for a chain of exchanges over block refs, sized once
    from its head ``refs`` (ready blocks, e.g. from :func:`arrow_refs`):
    ``cluster_parts`` of ``ceil(head bytes / target_max_block_size)``, i.e.
    2 x cluster CPUs unless the input needs more partitions for each to
    stay at one Ray Data block. Every exchange of the chain runs at that
    count: past its first exchange, an input block count is just the
    previous exchange's partition count, so there is nothing to trim
    from."""
    import ray
    from ray.data import DataContext

    locs = ray.experimental.get_object_locations(refs)
    head_bytes = sum(locs[r]["object_size"] or 0 for r in refs)
    target = DataContext.get_current().target_max_block_size
    return cluster_parts(max(1, -(-head_bytes // target)))


def pool_size(requested: int) -> int:
    """Cap a FIXED actor-pool size to the cluster's CPU count minus one.

    A ``map_batches(Cls, concurrency=N)`` pool whose N >= cluster CPUs takes
    every slot, and the upstream task operators (``ReadParquet`` etc.) can
    never schedule — the stream deadlocks, silently, with the pool actors
    idle-waiting for input. Found live: the full gate at ``num_cpus=2``
    hung forever inside ``bpe_encode_stats`` (concurrency=4). At real
    cluster sizes the cap is a no-op; at tiny/test sizes it keeps one CPU
    free for the feeding tasks. Callers pass their tuned N; the helper
    never raises it. A 1-CPU cluster has no CPU to spare: even one pool
    actor would take the only slot and hang the stream, so there it fails
    with a RuntimeError naming the calling stage instead."""
    try:
        import ray

        cpus = (
            int(ray.cluster_resources().get("CPU", 0))
            if ray.is_initialized()
            else 0
        )
    except Exception:  # pragma: no cover - resource probe best-effort
        cpus = 0
    if cpus <= 0:
        return max(1, requested)
    if cpus == 1:
        import sys

        stage = sys._getframe(1).f_code.co_name
        raise RuntimeError(
            f"{stage}: a fixed actor pool needs at least 2 CPUs, the cluster "
            "has 1 — the pool would take the only CPU and the tasks feeding "
            "it could never run"
        )
    return max(1, min(requested, cpus - 1))
