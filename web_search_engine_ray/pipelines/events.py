"""Stream-shaped operators over the ``events`` table.

Ray Data is a (streaming-)batch engine with no event-time watermarks; the
bounded-log equivalents of the classic streaming ops are expressed as
partial-aggregate ``map_batches`` + a window-routed partition exchange
(tumbling + hopping windows) and a user-routed exchange with one vectorized
sessionization pass per partition (session windows) — the patterns a
transcript-event pipeline needs (nothing assumes global order). All
partition functions are numpy/polars-vectorized with NO per-user Python
loops, so a skewed partition (one user with millions of events) costs one
lexsort, not interpreter time per user. All have exact DuckDB SQL twins in
``__ray_entry__``.
"""

from __future__ import annotations

import os

import numpy as np
import polars as pl
import pyarrow as pa

from web_search_engine_ray.stages.exchange import (
    aggregate,
    by_key,
    chain_parts,
    exchange_map,
    hash_route,
    map_refs,
    read_refs,
    to_dataset,
)

WINDOW_S = 3600
SESSION_GAP_S = 1800


def _read_events(sf_dir: str, columns) -> list:
    return read_refs(os.path.join(sf_dir, "events.parquet"), columns)


def _by_user(name: str, sf_dir: str, columns, fn):
    """``fn`` per ``user_id`` hash partition of the events' ``columns``."""
    return to_dataset(name, by_key(_read_events(sf_dir, columns), "user_id", fn))


def _np(col: pa.ChunkedArray | pa.Array, dtype=np.int64) -> np.ndarray:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return col.to_numpy(zero_copy_only=False).astype(dtype, copy=False)


def _epoch_us(t: pa.Table, col: str = "ts") -> np.ndarray:
    """timestamp[us] column -> int64 microseconds (exact; no tz math)."""
    return _np(t[col].cast(pa.int64()))


def _window_merge(t: pa.Table) -> pa.Table:
    """Shared merge for tumbling/hopping partials: sum the per-batch
    partials per (event_type, window_start), round like the SQL twin."""
    g = (
        pl.from_arrow(t)
        .group_by(["event_type", "window_start"])
        .agg(
            pl.col("n_events_p").sum().alias("n_events"),
            pl.col("sum_value_p").sum().alias("sum_value"),
        )
    )
    out = g.to_arrow()
    return pa.table(
        {
            "event_type": out["event_type"].cast(pa.string()),
            "window_start": out["window_start"].cast(pa.int64()),
            "n_events": out["n_events"].cast(pa.int64()),
            "sum_value": pa.array(
                np.round(
                    out["sum_value"].to_numpy(zero_copy_only=False).astype(np.float64),
                    6,
                ),
                pa.float64(),
            ),
        }
    )


def _window_partial(batch: pa.Table, window_start: np.ndarray) -> pa.Table:
    """Per-batch partial aggregate over a precomputed window_start vector
    aligned with the batch rows (tumbling) or an expanded take of them
    (hopping — caller passes the expanded batch)."""
    rep = pa.table(
        {
            "event_type": batch["event_type"],
            "window_start": pa.array(window_start, pa.int64()),
            "value": batch["value"],
        }
    )
    return (
        pl.from_arrow(rep)
        .group_by(["event_type", "window_start"])
        .agg(
            pl.len().cast(pl.Int64).alias("n_events_p"),
            pl.col("value").sum().alias("sum_value_p"),
        )
        .to_arrow()
    )


def window_agg_ds(sf_dir: str, window_s: int = WINDOW_S):
    """Tumbling window per event_type: (event_type, window_start, n_events,
    sum_value). Pre-aggregated per batch (one row per (type, window) per
    batch) before the tiny groupby — the shuffle moves partials, not events."""

    def partial(batch: pa.Table) -> pa.Table:
        epoch = _epoch_us(batch) // 1_000_000
        return _window_partial(batch, (epoch // window_s) * window_s)

    # route partials by window (all partials of one (type, window) share the
    # window, so a window-keyed partition sees every partial it must merge)
    refs = _read_events(sf_dir, ["event_type", "ts", "value"])
    return to_dataset("window_agg_ds", aggregate(refs, partial, "window_start", _window_merge))


def sessionize_ds(sf_dir: str, gap_s: int = SESSION_GAP_S):
    """Session windows per user (new session when the gap since the previous
    event exceeds ``gap_s``): (user_id, session_idx, n_events, start_epoch,
    end_epoch).

    Shuffle shape: a partition hash exchange on ``user_id`` (all of a user's
    events land in one partition), then the WHOLE partition is sessionized
    in one vectorized numpy pass — lexsort by (user, ts, event_id), session
    breaks = new-user OR gap, per-session aggregates from the break-index
    vector — instead of one ``map_groups`` dispatch per user (users are
    numerous and tiny; the per-group call overhead dwarfs the work)."""

    def sessions_part(t: pa.Table) -> pa.Table:
        user = _np(t["user_id"])
        epoch = _epoch_us(t) // 1_000_000
        eid = _np(t["event_id"])
        order = np.lexsort((eid, epoch, user))
        user, epoch = user[order], epoch[order]
        n = user.size
        if n == 0:
            # empty hash partition (few distinct users): np.append(first
            # [1:], 0) would yield [0], not [] — return the empty relation
            return pa.table(
                {
                    "user_id": pa.array([], pa.int64()),
                    "session_idx": pa.array([], pa.int64()),
                    "n_events": pa.array([], pa.int64()),
                    "start_epoch": pa.array([], pa.int64()),
                    "end_epoch": pa.array([], pa.int64()),
                }
            )
        brk = np.ones(n, dtype=bool)
        new_user = user[1:] != user[:-1]
        brk[1:] = new_user | ((epoch[1:] - epoch[:-1]) > gap_s)
        first = np.flatnonzero(brk)  # first event index of each session
        ends = np.append(first[1:], n)  # one past each session's last event
        s_user = user[first]
        # 0-based session_idx within user: session ordinal minus the ordinal
        # of the user's first session
        new_user_sess = np.ones(s_user.size, dtype=bool)
        new_user_sess[1:] = s_user[1:] != s_user[:-1]
        first_sess = np.flatnonzero(new_user_sess)
        seg = np.cumsum(new_user_sess) - 1
        session_idx = np.arange(s_user.size, dtype=np.int64) - first_sess[seg]
        return pa.table(
            {
                "user_id": pa.array(s_user, pa.int64()),
                "session_idx": pa.array(session_idx, pa.int64()),
                "n_events": pa.array(ends - first, pa.int64()),
                "start_epoch": pa.array(epoch[first], pa.int64()),
                "end_epoch": pa.array(epoch[ends - 1], pa.int64()),
            }
        )

    return _by_user("sessionize_ds", sf_dir, ["event_id", "user_id", "ts"], sessions_part)


HOP_S = 900


def hopping_window_ds(sf_dir: str, window_s: int = WINDOW_S, hop_s: int = HOP_S):
    """Hopping (sliding) window per event_type: a ``window_s`` window starts
    every ``hop_s``, so each event contributes to ``window_s // hop_s``
    overlapping windows. (event_type, window_start, n_events, sum_value).

    Same scale shape as :func:`window_agg_ds`: the k-fold window expansion
    (an Arrow ``take`` — no Python objects) and partial aggregation happen
    inside ``map_batches`` (the shuffle moves one partial row per (type,
    window) per batch, never k x events), merged by a window-routed
    partition exchange."""
    assert window_s % hop_s == 0, "window_s must be a multiple of hop_s"
    k = window_s // hop_s

    def partial(batch: pa.Table) -> pa.Table:
        epoch = _epoch_us(batch) // 1_000_000
        base = (epoch // hop_s) * hop_s
        n = epoch.size
        idx = np.repeat(np.arange(n, dtype=np.int64), k)
        starts = np.repeat(base, k) - np.tile(
            np.arange(k, dtype=np.int64) * hop_s, n
        )
        rep = batch.select(["event_type", "value"]).take(pa.array(idx))
        return _window_partial(rep, starts)

    refs = _read_events(sf_dir, ["event_type", "ts", "value"])
    return to_dataset(
        "hopping_window_ds", aggregate(refs, partial, "window_start", _window_merge)
    )


_EMPTY_ASOF = pa.table(
    {
        "event_id": pa.array([], pa.int64()),
        "user_id": pa.array([], pa.int64()),
        "prior_epoch_us": pa.array([], pa.int64()),
        "gap_us": pa.array([], pa.int64()),
    }
)


def _asof_positions(
    l_user: np.ndarray, l_ep: np.ndarray, r_user: np.ndarray, r_ep: np.ndarray
) -> np.ndarray:
    """For each left row, the index into the (user, ep)-sorted right arrays
    of the latest right row with the same user and STRICTLY smaller ep, or
    -1. Fully vectorized sort-merge: one lexsort over the union — left rows
    sort BEFORE right rows at equal (user, ep), so equal timestamps never
    count as prior — then per-user prefix counts of right rows. No per-user
    Python loop, so a million-event user costs one sort, not interpreter
    time (skew test: ``tests/test_events_skew.py``)."""
    m, nl = r_user.size, l_user.size
    cu = np.concatenate([r_user, l_user])
    ce = np.concatenate([r_ep, l_ep])
    cf = np.concatenate(
        [np.ones(m, dtype=np.int8), np.zeros(nl, dtype=np.int8)]
    )
    order = np.lexsort((cf, ce, cu))
    is_right = cf[order] == 1
    # right rows strictly before each position
    before = np.cumsum(is_right) - is_right
    cu_s = cu[order]
    user_change = np.ones(cu_s.size, dtype=bool)
    user_change[1:] = cu_s[1:] != cu_s[:-1]
    seg = np.cumsum(user_change) - 1
    seg_base = before[np.flatnonzero(user_change)]
    n_prior = before - seg_base[seg]  # same-user right rows strictly prior
    left_pos = np.flatnonzero(~is_right)
    orig_left = order[left_pos] - m
    seg_lo = np.searchsorted(r_user, l_user[orig_left], side="left")
    pos = np.full(nl, -1, dtype=np.int64)
    np_l = n_prior[left_pos]
    pos[orig_left] = np.where(np_l > 0, seg_lo + np_l - 1, -1)
    return pos


def asof_join_ds(
    sf_dir: str, left_type: str = "purchase", right_type: str = "view"
):
    """As-of join — an operator Ray Data has no native expression for: each
    ``left_type`` event joins its user's most recent STRICTLY-prior
    ``right_type`` event. (event_id, user_id, prior_epoch_us, gap_us);
    left events with no prior match drop (inner as-of semantics, same as
    DuckDB's ``ASOF JOIN ... ON l.user_id = r.user_id AND l.ts > r.ts`` —
    the exact oracle twin).

    Shuffle shape: one partition hash exchange on ``user_id`` (both sides
    ride the same exchange — the filter to the two types happens before it,
    so only relevant events move), then each partition resolves ALL left
    events at once with the vectorized sort-merge in
    :func:`_asof_positions`. Epochs stay in integer microseconds
    end-to-end, so engine and SQL agree exactly. The output carries the
    prior event's TIMESTAMP (unique per user-instant) rather than its
    event_id — two right events on the same microsecond would make an id
    choice arbitrary in both engines."""
    import pyarrow.compute as pc

    def keep_types(batch: pa.Table) -> pa.Table:
        mask = pc.is_in(
            batch["event_type"],
            value_set=pa.array([left_type, right_type], pa.string()),
        )
        return batch.filter(mask)

    def join_part(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _EMPTY_ASOF
        ep = _epoch_us(t)  # microseconds
        user = _np(t["user_id"])
        eid = _np(t["event_id"])
        etype = t["event_type"]
        # explicit masks so left_type == right_type is a valid SELF as-of
        # join (every event against its user's strictly-prior same-type
        # event) rather than an empty left side
        right_m = _np(pa.compute.equal(etype, right_type), np.bool_)
        left_m = _np(pa.compute.equal(etype, left_type), np.bool_)
        r_idx = np.flatnonzero(right_m)
        l_idx = np.flatnonzero(left_m)
        if r_idx.size == 0 or l_idx.size == 0:
            return _EMPTY_ASOF
        r_order = np.lexsort((ep[r_idx], user[r_idx]))
        r_user = user[r_idx][r_order]
        r_ep = ep[r_idx][r_order]
        pos = _asof_positions(user[l_idx], ep[l_idx], r_user, r_ep)
        ok = pos >= 0
        pe = r_ep[pos[ok]]
        l_user = user[l_idx][ok]
        l_ep = ep[l_idx][ok]
        return pa.table(
            {
                "event_id": pa.array(eid[l_idx][ok], pa.int64()),
                "user_id": pa.array(l_user, pa.int64()),
                "prior_epoch_us": pa.array(pe, pa.int64()),
                "gap_us": pa.array(l_ep - pe, pa.int64()),
            }
        )

    refs = _read_events(sf_dir, ["event_id", "user_id", "ts", "event_type"])
    n = chain_parts(refs)
    route = hash_route("user_id", n)
    return to_dataset("asof_join_ds", exchange_map(map_refs(keep_types, refs), route, n, join_part))


def session_range_join_ds(sf_dir: str, gap_s: int = SESSION_GAP_S):
    """Range (interval) join — the second join shape Ray Data lacks: assign
    each event to the session interval containing it. (event_id, user_id,
    session_idx).

    Per partition (user-routed exchange, so an interval and its points are
    co-located), session breaks are derived on the (user, ts, event_id)-
    sorted events and each event's interval is the running count of breaks
    in its user segment — a cumsum, no per-user loop. (When the intervals
    come from a separate relation — ad campaigns, deploy windows — the same
    exchange co-locates them and :func:`_asof_positions`'s sort-merge is
    the general assignment mechanic.) The SQL twin is the literal range
    join: events JOIN sessions ON user AND ep BETWEEN start AND end
    (session intervals are disjoint per user, so the join is one-to-one and
    row count == event count)."""

    def join_part(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "event_id": pa.array([], pa.int64()),
                    "user_id": pa.array([], pa.int64()),
                    "session_idx": pa.array([], pa.int64()),
                }
            )
        user = _np(t["user_id"])
        epoch = _epoch_us(t) // 1_000_000
        eid = _np(t["event_id"])
        order = np.lexsort((eid, epoch, user))
        user, epoch, eid = user[order], epoch[order], eid[order]
        n = user.size
        new_user = np.ones(n, dtype=bool)
        new_user[1:] = user[1:] != user[:-1]
        brk = new_user.copy()
        brk[1:] |= (epoch[1:] - epoch[:-1]) > gap_s
        # session index = sessions started in this user segment so far - 1
        gsid = np.cumsum(brk)
        seg = np.cumsum(new_user) - 1
        base = gsid[np.flatnonzero(new_user)]
        out_idx = gsid - base[seg]
        return pa.table(
            {
                "event_id": pa.array(eid, pa.int64()),
                "user_id": pa.array(user, pa.int64()),
                "session_idx": pa.array(out_idx, pa.int64()),
            }
        )

    return _by_user("session_range_join_ds", sf_dir, ["event_id", "user_id", "ts"], join_part)


def json_props_agg_ds(sf_dir: str):
    """(event_type, n, sum_k, min_k, max_k, avg_k): aggregate a field parsed
    out of the JSON ``props`` column — the everyday semi-structured ETL step
    (each event carries a JSON payload; pipelines need typed fields out of
    it). Parsing is vectorized (polars' Rust JSON path kernel inside
    ``map_batches`` — no per-row ``json.loads``); per-batch mergeable
    partials ride ONE tiny hash exchange on event_type. Rows whose props
    lack the field drop on both sides (the twin's ``IS NOT NULL``);
    ``avg_k`` divides once on identical integers, ROUND(6)."""
    import polars as pl

    def partial(t: pa.Table) -> pa.Table:
        d = (
            pl.from_arrow(t.select(["event_type", "props"]))
            .with_columns(
                pl.col("props")
                .str.json_path_match("$.k")
                .cast(pl.Int64, strict=False)
                .alias("k")
            )
            .drop_nulls("k")
            .group_by("event_type")
            .agg(
                n=pl.len().cast(pl.Int64),
                sum_k=pl.col("k").sum(),
                min_k=pl.col("k").min(),
                max_k=pl.col("k").max(),
            )
        )
        return d.to_arrow()

    def merge(t: pa.Table) -> pa.Table:
        g = (
            pl.from_arrow(t)
            .group_by("event_type")
            .agg(
                pl.col("n").sum(),
                pl.col("sum_k").sum(),
                pl.col("min_k").min(),
                pl.col("max_k").max(),
            )
            .with_columns(
                (pl.col("sum_k").cast(pl.Float64) / pl.col("n").cast(pl.Float64))
                .round(6)
                .alias("avg_k")
            )
        )
        return g.select(
            "event_type", "n", "sum_k", "min_k", "max_k", "avg_k"
        ).to_arrow().cast(
            pa.schema(
                [
                    ("event_type", pa.string()),
                    ("n", pa.int64()),
                    ("sum_k", pa.int64()),
                    ("min_k", pa.int64()),
                    ("max_k", pa.int64()),
                    ("avg_k", pa.float64()),
                ]
            )
        )

    refs = _read_events(sf_dir, ["event_type", "props"])
    return to_dataset("json_props_agg_ds", aggregate(refs, partial, "event_type", merge))


def topn_per_user_ds(sf_dir: str, n: int = 3):
    """(user_id, event_id, value, rnk): each user's top-n events by
    (value desc, event_id) — grouped top-k at HIGH key cardinality (users
    are numerous; contrast ``top_terms_per_source_ds``'s handful of
    sources): one hash exchange on user_id, then the whole partition ranks
    in one vectorized lexsort pass — never a per-user loop or a global
    sort."""

    def part(t: pa.Table) -> pa.Table:
        user = _np(t["user_id"])
        eid = _np(t["event_id"])
        val = t["value"].combine_chunks().to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, -val, user))
        user, eid, val = user[order], eid[order], val[order]
        new = np.ones(user.size, dtype=bool)
        if user.size:
            new[1:] = user[1:] != user[:-1]
        seg_start = np.flatnonzero(new)
        seg = np.cumsum(new) - 1
        rnk = np.arange(user.size, dtype=np.int64) - seg_start[seg] + 1
        keep = rnk <= n
        return pa.table(
            {
                "user_id": pa.array(user[keep], pa.int64()),
                "event_id": pa.array(eid[keep], pa.int64()),
                "value": pa.array(val[keep], pa.float64()),
                "rnk": pa.array(rnk[keep], pa.int64()),
            }
        )

    return _by_user("topn_per_user_ds", sf_dir, ["event_id", "user_id", "value"], part)


def running_sum_ds(sf_dir: str, round_to: int = 6):
    """(event_id, user_id, running_value): cumulative sum of ``value`` per
    user in (ts, event_id) order — the windowed running aggregate. One hash
    exchange on user_id, then one lexsort + segmented cumsum over the whole
    partition (cumsum of the sorted stream minus each segment's base —
    the ``_segmented_abs`` trick). Output is corpus-scale and stays a
    Dataset. Float note: a cumsum accumulates left-to-right exactly like
    SQL's running SUM OVER, same association; ROUND({round_to})."""

    def part(t: pa.Table) -> pa.Table:
        user = _np(t["user_id"])
        ep = _epoch_us(t)
        eid = _np(t["event_id"])
        val = t["value"].combine_chunks().to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ep, user))
        user, eid, val = user[order], eid[order], val[order]
        c = np.cumsum(val)
        new = np.ones(user.size, dtype=bool)
        if user.size:
            new[1:] = user[1:] != user[:-1]
        starts = np.flatnonzero(new)
        base = c[starts] - val[starts]
        run = c - np.repeat(base, np.diff(np.append(starts, user.size)))
        return pa.table(
            {
                "event_id": pa.array(eid, pa.int64()),
                "user_id": pa.array(user, pa.int64()),
                "running_value": pa.array(np.round(run, round_to), pa.float64()),
            }
        )

    return _by_user("running_sum_ds", sf_dir, ["event_id", "user_id", "ts", "value"], part)


def value_histogram_ds(sf_dir: str, lo: float = 0.0, hi: float = 100.0, bins: int = 20):
    """(bucket, n): fixed-width histogram of ``value`` — per-batch bincount
    partials, driver-tiny merge. Bucket rule matches the SQL twin's
    ``least(greatest(floor((v - lo)/w), 0), bins-1)`` clamp exactly (every
    value lands in a bucket; out-of-range clamps to the edge buckets)."""
    import ray

    w = (hi - lo) / bins

    def partial(t: pa.Table) -> pa.Table:
        v = t["value"].combine_chunks().to_numpy(zero_copy_only=False)
        b = np.clip(np.floor((v - lo) / w), 0, bins - 1).astype(np.int64)
        cnt = np.bincount(b, minlength=bins)
        return pa.table(
            {
                "bucket": pa.array(np.arange(bins, dtype=np.int64)),
                "n_p": pa.array(cnt.astype(np.int64)),
            }
        )

    total = np.zeros(bins, np.int64)
    for t in ray.get(map_refs(partial, _read_events(sf_dir, ["value"]))):
        if t.num_rows:
            total[t["bucket"].to_numpy(zero_copy_only=False)] += t[
                "n_p"
            ].to_numpy(zero_copy_only=False)
    return pa.table(
        {
            "bucket": pa.array(np.arange(bins, dtype=np.int64)),
            "n": pa.array(total),
        }
    )


def value_quantiles_per_type_ds(sf_dir: str, qs: tuple[float, ...] = (0.5, 0.9, 0.99)):
    """(event_type, q, value): EXACT per-type quantiles of ``value`` under
    the explicit rank rule value-at-rank ``max(1, ceil(q * N_type))``
    (1-based, sorted multiset) — the exact member of the quantile family
    (the KLL sketch entry covers the approximate path for continuous
    domains where per-(type, value) counts stop being histogram-scale).
    Shape: per-batch (type, value) count partials -> one event_type
    exchange -> in-partition sort + cumulative counts + searchsorted rank
    pick. ``q * N`` is evaluated in DOUBLE on both sides (the twin casts),
    so the ceil boundary cannot diverge."""
    import math

    import polars as pl

    def partial(t: pa.Table) -> pa.Table:
        d = (
            pl.from_arrow(t.select(["event_type", "value"]))
            .group_by(["event_type", "value"])
            .len(name="c")
        )
        return d.to_arrow().cast(
            pa.schema(
                [("event_type", pa.string()), ("value", pa.float64()), ("c", pa.uint32())]
            )
        )

    def merge(t: pa.Table) -> pa.Table:
        d = (
            pl.from_arrow(t)
            .group_by(["event_type", "value"])
            .agg(pl.col("c").cast(pl.Int64).sum())
            .sort(["event_type", "value"])
        )
        et = d["event_type"].to_numpy()
        val = d["value"].to_numpy()
        cnt = d["c"].to_numpy().astype(np.int64)
        out_t, out_q, out_v = [], [], []
        if et.size:
            new = np.ones(et.size, dtype=bool)
            new[1:] = et[1:] != et[:-1]
            starts = np.flatnonzero(new)
            ends = np.append(starts[1:], et.size)
            for s, e in zip(starts, ends):
                cum = np.cumsum(cnt[s:e])
                n_tot = int(cum[-1])
                for q in qs:
                    rank = max(1, math.ceil(q * float(n_tot)))
                    i = int(np.searchsorted(cum, rank, side="left"))
                    out_t.append(str(et[s]))
                    out_q.append(float(q))
                    out_v.append(float(val[s + i]))
        return pa.table(
            {
                "event_type": pa.array(out_t, pa.string()),
                "q": pa.array(out_q, pa.float64()),
                "value": pa.array(out_v, pa.float64()),
            }
        )

    refs = _read_events(sf_dir, ["event_type", "value"])
    return to_dataset(
        "value_quantiles_per_type_ds", aggregate(refs, partial, "event_type", merge)
    )


def daily_active_users_ds(sf_dir: str):
    """(day, event_type, n_users, n_events): EXACT distinct-user counts per
    (UTC day, event_type) — the two-level distinct aggregation (the HLL
    sketch entry covers the approximate path): per-batch local distinct
    (day, type, user) triples CUT FIRST (the distinct-combiner — a user
    active 1000x in one batch ships once), then one hash exchange on
    event_type where the partition-wide distinct is one composite-key
    np.unique. ``day`` is epoch_us // 86_400_000_000 (int), matching the
    twin's integer division exactly."""
    import polars as pl

    US_DAY = 86_400_000_000

    def partial(t: pa.Table) -> pa.Table:
        day = (_epoch_us(t) // US_DAY).astype(np.int64)
        d = (
            pl.DataFrame(
                {
                    "day": day,
                    "event_type": pl.from_arrow(t["event_type"].combine_chunks()),
                    "user_id": _np(t["user_id"]),
                }
            )
            .group_by(["day", "event_type", "user_id"])
            .len(name="n_ev")
        )
        return d.to_arrow().cast(
            pa.schema(
                [
                    ("day", pa.int64()),
                    ("event_type", pa.string()),
                    ("user_id", pa.int64()),
                    ("n_ev", pa.uint32()),
                ]
            )
        )

    def merge(t: pa.Table) -> pa.Table:
        g = (
            pl.from_arrow(t)
            .group_by(["day", "event_type"])
            .agg(
                n_users=pl.col("user_id").n_unique().cast(pl.Int64),
                n_events=pl.col("n_ev").cast(pl.Int64).sum(),
            )
        )
        return g.to_arrow().cast(
            pa.schema(
                [
                    ("day", pa.int64()),
                    ("event_type", pa.string()),
                    ("n_users", pa.int64()),
                    ("n_events", pa.int64()),
                ]
            )
        )

    refs = _read_events(sf_dir, ["ts", "event_type", "user_id"])
    return to_dataset("daily_active_users_ds", aggregate(refs, partial, "event_type", merge))


ANOMALY_Z = 2.0


def window_anomalies_ds(sf_dir: str, window_s: int = WINDOW_S, z: float = ANOMALY_Z):
    """(event_type, window_start, n_events, zscore): hourly windows whose
    event count deviates >= ``z`` population-z-scores from the type's mean —
    the monitoring primitive over the same windowed counts as
    ``events_window``. Mean/variance are computed from EXACT integer sums
    (sum and sum-of-squares of int counts), so both sides evaluate the same
    float expression on identical inputs — no streaming-stddev divergence
    (DuckDB's stddev_pop aggregates Welford-style; the twin uses the
    explicit sum arithmetic instead). Window counts are distributed
    partials (the ``window_agg_ds`` machinery); the per-type stats relation
    is windows x types — output-scale — reduced by one tiny exchange."""
    import polars as pl

    def partial(batch: pa.Table) -> pa.Table:
        epoch = _epoch_us(batch) // 1_000_000
        ws = (epoch // window_s) * window_s
        d = (
            pl.DataFrame(
                {
                    "event_type": pl.from_arrow(
                        batch["event_type"].combine_chunks()
                    ),
                    "window_start": ws,
                }
            )
            .group_by(["event_type", "window_start"])
            .len(name="n_p")
        )
        return d.to_arrow().cast(
            pa.schema(
                [
                    ("event_type", pa.string()),
                    ("window_start", pa.int64()),
                    ("n_p", pa.uint32()),
                ]
            )
        )

    def flag(t: pa.Table) -> pa.Table:
        g = (
            pl.from_arrow(t)
            .group_by(["event_type", "window_start"])
            .agg(pl.col("n_p").cast(pl.Int64).sum().alias("n_events"))
        )
        et = g["event_type"].to_numpy()
        ws = g["window_start"].to_numpy().astype(np.int64)
        n = g["n_events"].to_numpy().astype(np.int64)
        order = np.lexsort((ws, et))
        et, ws, n = et[order], ws[order], n[order]
        new = np.ones(et.size, dtype=bool)
        if et.size:
            new[1:] = et[1:] != et[:-1]
        seg = np.cumsum(new) - 1
        n_grp = np.bincount(seg)
        s1 = np.bincount(seg, weights=n.astype(np.float64))
        s2 = np.bincount(seg, weights=(n * n).astype(np.float64))
        c = n_grp.astype(np.float64)
        mean = s1 / c
        var = (s2 - s1 * s1 / c) / c
        sd = np.sqrt(var)
        with np.errstate(divide="ignore", invalid="ignore"):
            zs = np.where(sd[seg] > 0, (n - mean[seg]) / sd[seg], 0.0)
        zs = np.round(zs, 4)
        keep = np.abs(zs) >= z
        return pa.table(
            {
                "event_type": pa.array(et[keep], pa.string()),
                "window_start": pa.array(ws[keep], pa.int64()),
                "n_events": pa.array(n[keep], pa.int64()),
                "zscore": pa.array(zs[keep], pa.float64()),
            }
        )

    refs = _read_events(sf_dir, ["ts", "event_type"])
    return to_dataset("window_anomalies_ds", aggregate(refs, partial, "event_type", flag))


def retention_cohorts_ds(sf_dir: str):
    """(cohort_day, day_offset, n_users): classic retention analysis — a
    user's cohort is their FIRST active UTC day; each (cohort, offset) cell
    counts distinct cohort users active ``offset`` days later. One hash
    exchange on user_id (all of a user's activity co-locates, so cohort =
    the partition-local min day and the per-user distinct offsets are
    exact), then per-user-unique (cohort, offset) rows reduce through one
    tiny (cohort, offset) exchange — counts need no DISTINCT because each
    user emits each offset once."""
    import polars as pl

    US_DAY = 86_400_000_000

    def per_user(t: pa.Table) -> pa.Table:
        user = _np(t["user_id"])
        day = (_epoch_us(t) // US_DAY).astype(np.int64)
        # distinct (user, day) on the 2-column stack — a packed composite
        # key would cap user_id bits, and ids can be 64-bit hashes at scale
        uniq = np.unique(np.stack([user, day], axis=1), axis=0)
        user, day = uniq[:, 0], uniq[:, 1]
        order = np.lexsort((day, user))
        user, day = user[order], day[order]
        new = np.ones(user.size, dtype=bool)
        if user.size:
            new[1:] = user[1:] != user[:-1]
        seg = np.cumsum(new) - 1
        cohort = day[np.flatnonzero(new)][seg]
        d = (
            pl.DataFrame({"cohort_day": cohort, "day_offset": day - cohort})
            .group_by(["cohort_day", "day_offset"])
            .len(name="n_p")
        )
        return d.to_arrow().cast(
            pa.schema(
                [
                    ("cohort_day", pa.int64()),
                    ("day_offset", pa.int64()),
                    ("n_p", pa.uint32()),
                ]
            )
        )

    def route(t: pa.Table) -> np.ndarray:
        return (
            (
                t["cohort_day"].combine_chunks().to_numpy(zero_copy_only=False)
                * 31
                + t["day_offset"].combine_chunks().to_numpy(zero_copy_only=False)
            )
            % n
        ).astype(np.int64)

    def merge(t: pa.Table) -> pa.Table:
        g = (
            pl.from_arrow(t)
            .group_by(["cohort_day", "day_offset"])
            .agg(pl.col("n_p").cast(pl.Int64).sum().alias("n_users"))
        )
        return g.to_arrow().cast(
            pa.schema(
                [
                    ("cohort_day", pa.int64()),
                    ("day_offset", pa.int64()),
                    ("n_users", pa.int64()),
                ]
            )
        )

    refs = _read_events(sf_dir, ["user_id", "ts"])
    n = chain_parts(refs)
    users = exchange_map(refs, hash_route("user_id", n), n, per_user)
    return to_dataset("retention_cohorts_ds", exchange_map(users, route, n, merge))


FUNNEL_STAGES = ("signup", "view", "purchase")


def session_funnel_ds(
    sf_dir: str,
    stages: tuple[str, ...] = FUNNEL_STAGES,
    gap_s: int = SESSION_GAP_S,
):
    """(stage, n_sessions): sessions completing the first ``k`` funnel
    stages IN ORDER within one session (stage k counts sessions where
    stages[0] happens, then stages[1] strictly after it, ...) — the
    product-analytics funnel over the same session boundaries as
    ``sessionize_ds``. One user_id exchange; inside a partition everything
    is segment arithmetic: per-session event ranks, then per stage a
    SEGMENTED first-occurrence-after-threshold pass (bincount offsets +
    one searchsorted over the stage's masked rank array — no per-session
    loop). Ties break by event_id, the twin's rank order."""

    n_stages = len(stages)

    def funnel_part(t: pa.Table) -> pa.Table:
        user = _np(t["user_id"])
        epus = _epoch_us(t)
        ep = epus // 1_000_000
        eid = _np(t["event_id"])
        et = t["event_type"].combine_chunks().to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, epus, user))
        user, epus, ep, eid, et = (
            user[order], epus[order], ep[order], eid[order], et[order]
        )
        n = user.size
        if n == 0:
            return pa.table(
                {
                    "stage": pa.array(
                        np.arange(1, n_stages + 1, dtype=np.int64)
                    ),
                    "n_p": pa.array(np.zeros(n_stages, np.int64)),
                }
            )
        brk = np.ones(n, dtype=bool)
        brk[1:] = (user[1:] != user[:-1]) | ((ep[1:] - ep[:-1]) > gap_s)
        seg = np.cumsum(brk) - 1
        nseg = int(seg[-1]) + 1
        starts = np.flatnonzero(brk)
        rn = np.arange(n, dtype=np.int64) - starts[seg] + 1  # 1-based rank
        INF = np.iinfo(np.int64).max
        thresh = np.zeros(nseg, np.int64)  # stage 1: any rank > 0
        counts = []
        for s_name in stages:
            m = et == s_name
            seg_m = seg[m]
            rn_m = rn[m]  # sorted within each segment by construction
            # first masked rank strictly greater than the threshold, per
            # segment, in ONE composite-key searchsorted (seg<<32 | rank is
            # globally ascending because rows sort by (seg, rank)) — no
            # per-session Python loop
            alive = thresh < INF
            first = np.full(nseg, INF, np.int64)
            segs_alive = np.flatnonzero(alive)
            if segs_alive.size and rn_m.size:
                k = (seg_m.astype(np.uint64) << np.uint64(32)) | rn_m.astype(
                    np.uint64
                )
                q = (segs_alive.astype(np.uint64) << np.uint64(32)) | thresh[
                    segs_alive
                ].astype(np.uint64)
                idx = np.searchsorted(k, q, side="right")
                ok = idx < k.size
                same_seg = np.zeros(segs_alive.size, dtype=bool)
                same_seg[ok] = (k[idx[ok]] >> np.uint64(32)) == segs_alive[
                    ok
                ].astype(np.uint64)
                hit = segs_alive[same_seg]
                first[hit] = rn_m[idx[same_seg]]
            counts.append(int((first < INF).sum()))
            thresh = first
        return pa.table(
            {
                "stage": pa.array(np.arange(1, n_stages + 1, dtype=np.int64)),
                "n_p": pa.array(np.array(counts, np.int64)),
            }
        )

    def route(t: pa.Table) -> np.ndarray:
        return (
            t["stage"].combine_chunks().to_numpy(zero_copy_only=False) % n
        ).astype(np.int64)

    def merge(t: pa.Table) -> pa.Table:
        import polars as pl

        g = (
            pl.from_arrow(t)
            .group_by("stage")
            .agg(pl.col("n_p").sum().alias("n_sessions"))
        )
        return g.to_arrow().cast(
            pa.schema([("stage", pa.int64()), ("n_sessions", pa.int64())])
        )

    refs = _read_events(sf_dir, ["event_id", "user_id", "ts", "event_type"])
    n = chain_parts(refs)
    partials = exchange_map(refs, hash_route("user_id", n), n, funnel_part)
    return to_dataset("session_funnel_ds", exchange_map(partials, route, n, merge))


def conversion_lags_ds(sf_dir: str, from_type: str = "signup", to_type: str = "purchase"):
    """(user_id, lag_s): seconds from a user's FIRST ``from_type`` event to
    their first ``to_type`` event strictly after it — the time-to-convert
    relation the funnel summarizes away. One user_id exchange; inside a
    partition both firsts come from segmented minimum-reduces (sort by
    (user, ts, event_id), ``np.minimum.reduceat`` per segment for the
    from-events, then the same over to-events masked to > the user's
    from-time). Integer microsecond arithmetic end to end."""

    def part(t: pa.Table) -> pa.Table:
        user = _np(t["user_id"])
        epus = _epoch_us(t)
        et = t["event_type"].combine_chunks().to_numpy(zero_copy_only=False)
        order = np.lexsort((epus, user))
        user, epus, et = user[order], epus[order], et[order]
        uu = np.unique(user)

        def first_per_user(mask: np.ndarray, floor: np.ndarray | None) -> np.ndarray:
            """min epus per user over masked rows (optionally > floor[user]);
            INF where absent."""
            m = mask.copy()
            if floor is not None:
                fl = floor[np.searchsorted(uu, user)]
                m &= epus > fl
            vals = np.full(uu.size, np.iinfo(np.int64).max, np.int64)
            if m.any():
                np.minimum.at(vals, np.searchsorted(uu, user[m]), epus[m])
            return vals

        first_from = first_per_user(et == from_type, None)
        first_to = first_per_user(et == to_type, first_from)
        ok = (first_from < np.iinfo(np.int64).max) & (
            first_to < np.iinfo(np.int64).max
        )
        return pa.table(
            {
                "user_id": pa.array(uu[ok], pa.int64()),
                "lag_s": pa.array(
                    (first_to[ok] - first_from[ok]) // 1_000_000, pa.int64()
                ),
            }
        )

    return _by_user("conversion_lags_ds", sf_dir, ["event_id", "user_id", "ts", "event_type"], part)


def hourly_profile_ds(sf_dir: str):
    """(event_type, hour, n, avg_value): the hour-of-day seasonality
    profile (UTC) — per-batch integer-cent partials (value is 2-decimal)
    through one tiny (type, hour) exchange; avg divides once on identical
    integers, the relational money rule."""
    import polars as pl

    def partial(t: pa.Table) -> pa.Table:
        hour = ((_epoch_us(t) // 1_000_000) % 86_400) // 3_600
        val_c = np.rint(
            t["value"].combine_chunks().to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        d = (
            pl.DataFrame(
                {
                    "event_type": pl.from_arrow(t["event_type"].combine_chunks()),
                    "hour": hour.astype(np.int64),
                    "v_c": val_c,
                }
            )
            .group_by(["event_type", "hour"])
            .agg(n=pl.len().cast(pl.Int64), s_c=pl.col("v_c").sum())
        )
        return d.to_arrow()

    def merge(t: pa.Table) -> pa.Table:
        g = (
            pl.from_arrow(t)
            .group_by(["event_type", "hour"])
            .agg(pl.col("n").sum(), pl.col("s_c").sum())
        )
        n = g["n"].to_numpy().astype(np.float64)
        s = g["s_c"].to_numpy().astype(np.float64)
        return pa.table(
            {
                "event_type": g["event_type"].to_arrow().cast(pa.string()),
                "hour": g["hour"].to_arrow().cast(pa.int64()),
                "n": g["n"].to_arrow().cast(pa.int64()),
                "avg_value": pa.array(np.round(s / (100.0 * n), 6), pa.float64()),
            }
        )

    refs = _read_events(sf_dir, ["ts", "event_type", "value"])
    return to_dataset("hourly_profile_ds", aggregate(refs, partial, "event_type", merge))
