"""Conversation-level operators over the native transcript table
``(conv_id, turn_idx, role, text, tool, ts)`` — the engine's input shape.

The index build treats each TURN as a document (SURVEY §1.2 docid
contract); these operators work at the other granularity a transcript
corpus needs: whole conversations. A conversation CAN span input files
(files split on row count), so per-conv work is a partial-agg + hash
exchange on ``conv_id`` — never a global sort.

- :func:`conversation_rollup_ds` — per-conv turn/role/tool counts, char
  volume and time span. All aggregates are mergeable (sum/min/max), so the
  shuffle moves one partial row per (batch, conv).
- :func:`role_stats_ds` — per-role turn and token totals (three-row
  result; partials are role-sized).
- :func:`tool_usage_ds` — per-tool call counts + distinct conversations
  (the partial is the distinct (tool, conv) pair set per batch).
- :func:`conversation_text_ds` — reassemble full ordered conversation
  text ("role: text" lines) — the conv-granularity corpus for downstream
  conv-level dedup/packing. Ships text through the exchange (inherent:
  the output IS the reassembled corpus). ``_conversation_text_refs`` runs
  the same reassembly as block refs for the near-dup chain, and sizes that
  chain once from the turns it read.
- :func:`sft_examples_ds` — one (context, target) training example per
  assistant turn with a keep-last-k context budget: the canonical SFT-pair
  construction over multi-turn transcripts.
- :func:`conversation_minhash_dups_ds` /
  :func:`conversation_jaccard_dups_ds` — near-duplicate conversation
  candidate and verified pairs, the fuzzy counterpart of
  :func:`conversation_dedup_ds`. Both run on the dedup kernel
  (``pipelines/dedup.py``: ``_minhash_pairs`` and ``_verified_pairs``)
  with string conv ids, over the reassembled text: one read, then
  reassembly → candidates → semi-join → verify as one graph of block refs
  that the driver waits on once.
- :func:`role_filtered_search_table` — fielded BM25 ("what did the
  assistant say about X"): corpus-global ranking post-filtered by role
  via score-ordered row-group-seek probes.

Each has a DuckDB-oracle pytest contract over the deterministic fixture
corpus (tests/test_transcripts_ops.py); the driver-gate entries run over a
cached fixture slice (the driver's test tables have no transcript-shaped
relation, same pattern as ``crawl_log``).
"""

from __future__ import annotations

import numpy as np
import polars as pl
import pyarrow as pa

from web_search_engine_ray.functions.tokenize import token_lists
from web_search_engine_ray.stages import exchange
from web_search_engine_ray.stages.exchange import hash_route

_EPOCH_DIV = 1_000_000  # us -> s, the events-family epoch convention


def _read(corpus: str | list[str], columns: list[str]) -> list:
    """The corpus's ``columns`` as block refs (``exchange.read_refs``:
    zero-row files left out)."""
    from web_search_engine_ray.sources.transcripts import corpus_files

    return exchange.read_refs(corpus_files(corpus), columns)


def events_as_transcripts(sf_dir: str, n_parts: int = 16) -> str:
    """Deterministic conversation VIEW of the driver's ``events`` table,
    cached as transcript-schema parquet — this is what lets the conversation
    operators carry REAL SQL twins in the driver gate (the driver's tables
    have no native transcript relation, but this derivation is expressible
    in both engines):

        conv_id  = 'u' || user_id
        turn_idx = rank of (ts, event_id) within user      (0-based)
        role     = ['user','assistant','tool'][turn_idx % 3]
        tool     = event_type if role == 'tool' else ''
        text     = event_type || ' ' || props
        ts       = ts

    One hash exchange on user_id (all of a user's events land in one
    partition, so the within-user rank is exact), then a per-partition
    vectorized sort + window. Cached by events-file identity."""
    import os

    import pyarrow.parquet as pq
    import ray

    from web_search_engine_ray.pipelines.serving import _cache_key

    path = os.path.join(sf_dir, "events.parquet")
    key = _cache_key(path, f"evconv{n_parts}", __file__, exchange.__file__)
    out = os.path.join("/tmp", "wse_ray_cache", f"evconv_{key}")
    marker = os.path.join(out, ".complete")
    if os.path.exists(marker):
        return out
    os.makedirs(out, exist_ok=True)

    schema = pa.schema(
        [
            ("conv_id", pa.string()),
            ("turn_idx", pa.int32()),
            ("role", pa.string()),
            ("text", pa.string()),
            ("tool", pa.string()),
            ("ts", pa.timestamp("us")),
        ]
    )

    def route(t: pa.Table) -> np.ndarray:
        return (
            t["user_id"].combine_chunks().to_numpy(zero_copy_only=False)
            % n_parts
        ).astype(np.int64)

    # an empty partition writes no file, unless the whole table is empty:
    # then partition 0 writes one, so readers still find the schema
    no_events = pq.read_metadata(path).num_rows == 0

    def build(t: pa.Table, pi: int) -> pa.Table:
        part_path = os.path.join(out, f"evconv_{pi:05d}.parquet")
        if t.num_rows == 0 and not (no_events and pi == 0):
            return pa.table({"part": pa.array([], pa.int64())})
        if t.num_rows == 0:
            pq.write_table(schema.empty_table(), part_path + ".tmp")
        else:
            df = (
                pl.from_arrow(t)
                .sort(["user_id", "ts", "event_id"])
                .with_columns(
                    turn_idx=pl.int_range(pl.len()).over("user_id").cast(pl.Int32)
                )
                .with_columns(
                    conv_id=pl.lit("u") + pl.col("user_id").cast(pl.Utf8),
                    role=pl.when(pl.col("turn_idx") % 3 == 0)
                    .then(pl.lit("user"))
                    .when(pl.col("turn_idx") % 3 == 1)
                    .then(pl.lit("assistant"))
                    .otherwise(pl.lit("tool")),
                    text=pl.col("event_type") + pl.lit(" ") + pl.col("props"),
                )
                .with_columns(
                    tool=pl.when(pl.col("role") == "tool")
                    .then(pl.col("event_type"))
                    .otherwise(pl.lit(""))
                )
                .select(["conv_id", "turn_idx", "role", "text", "tool", "ts"])
            )
            pq.write_table(df.to_arrow().cast(schema), part_path + ".tmp")
        os.replace(part_path + ".tmp", part_path)
        return pa.table({"part": pa.array([pi], pa.int64())})

    refs = exchange.read_refs(path, ["event_id", "ts", "user_id", "event_type", "props"])
    ray.get(exchange.exchange_map(refs, route, n_parts, build, with_index=True))
    with open(marker, "w") as f:
        f.write("ok")
    return out


def conversation_rollup_ds(corpus: str | list[str]):
    """(conv_id, n_turns, n_user, n_assistant, n_tool, n_tool_calls,
    total_chars, first_epoch, last_epoch) per conversation."""

    def partial(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t).with_columns(
            epoch=pl.col("ts").dt.epoch(time_unit="us") // _EPOCH_DIV,
            chars=pl.col("text").str.len_chars().fill_null(0).cast(pl.Int64),
        )
        g = df.group_by("conv_id").agg(
            n_turns=pl.len().cast(pl.Int64),
            n_user=(pl.col("role") == "user").sum().cast(pl.Int64),
            n_assistant=(pl.col("role") == "assistant").sum().cast(pl.Int64),
            n_tool=(pl.col("role") == "tool").sum().cast(pl.Int64),
            n_tool_calls=(pl.col("tool") != "").sum().cast(pl.Int64),
            total_chars=pl.col("chars").sum(),
            first_epoch=pl.col("epoch").min(),
            last_epoch=pl.col("epoch").max(),
        )
        return g.to_arrow().cast(schema)

    sums = ["n_turns", "n_user", "n_assistant", "n_tool", "n_tool_calls", "total_chars"]
    schema = pa.schema(
        [("conv_id", pa.string())]
        + [(c, pa.int64()) for c in [*sums, "first_epoch", "last_epoch"]]
    )

    def merge(t: pa.Table) -> pa.Table:
        g = (
            pl.from_arrow(t)
            .group_by("conv_id")
            .agg(
                *(pl.col(c).sum() for c in sums),
                pl.col("first_epoch").min(),
                pl.col("last_epoch").max(),
            )
        )
        return g.to_arrow().cast(schema)

    refs = _read(corpus, ["conv_id", "role", "text", "tool", "ts"])
    return exchange.to_dataset(
        "conversation_rollup", exchange.aggregate(refs, partial, "conv_id", merge)
    )


def role_stats_ds(corpus: str | list[str]):
    """(role, n_turns, total_tokens, avg_tokens): corpus-wide per-role
    volume; avg rounded to 6 (the engine/SQL float contract)."""
    partial_schema = pa.schema(
        [("role", pa.string()), ("n_turns", pa.int64()), ("total_tokens", pa.int64())]
    )

    def partial(t: pa.Table) -> pa.Table:
        toks = token_lists(t["text"])
        df = pl.DataFrame(
            {
                "role": pl.from_arrow(t["role"]),
                "n_tok": toks.list.len().fill_null(0).cast(pl.Int64),
            }
        )
        return (
            df.group_by("role")
            .agg(n_turns=pl.len().cast(pl.Int64), total_tokens=pl.col("n_tok").sum())
            .to_arrow()
            .cast(partial_schema)
        )

    def merge(t: pa.Table) -> pa.Table:
        g = (
            pl.from_arrow(t)
            .group_by("role")
            .agg(pl.col("n_turns").sum(), pl.col("total_tokens").sum())
        )
        nt = g["n_turns"].to_numpy().astype(np.float64)
        tt = g["total_tokens"].to_numpy().astype(np.float64)
        return pa.table(
            {
                "role": g["role"].to_arrow().cast(pa.string()),
                "n_turns": pa.array(g["n_turns"].to_numpy(), pa.int64()),
                "total_tokens": pa.array(g["total_tokens"].to_numpy(), pa.int64()),
                "avg_tokens": pa.array(np.round(tt / nt, 6), pa.float64()),
            }
        )

    refs = exchange.aggregate(_read(corpus, ["role", "text"]), partial, "role", merge)
    return exchange.to_dataset("role_stats", refs)


def tool_usage_ds(corpus: str | list[str]):
    """(tool, n_calls, n_convs): call volume and distinct-conversation
    reach per tool (empty tool = non-tool turns, excluded)."""
    partial_schema = pa.schema(
        [("tool", pa.string()), ("conv_id", pa.string()), ("calls", pa.int64())]
    )

    def partial(t: pa.Table) -> pa.Table:
        df = (
            pl.from_arrow(t)
            .filter(pl.col("tool") != "")
            .group_by(["tool", "conv_id"])
            .agg(calls=pl.len().cast(pl.Int64))
        )
        return df.to_arrow().cast(partial_schema)

    def merge(t: pa.Table) -> pa.Table:
        g = (
            pl.from_arrow(t)
            .group_by("tool")
            .agg(
                n_calls=pl.col("calls").sum(),
                n_convs=pl.col("conv_id").n_unique().cast(pl.Int64),
            )
        )
        return g.to_arrow().cast(
            pa.schema(
                [("tool", pa.string()), ("n_calls", pa.int64()), ("n_convs", pa.int64())]
            )
        )

    refs = exchange.aggregate(_read(corpus, ["conv_id", "tool"]), partial, "tool", merge)
    return exchange.to_dataset("tool_usage", refs)


def conversation_text_ds(corpus: str | list[str]):
    """(conv_id, n_turns, conv_text): ordered reassembly, one "role: text"
    line per turn."""
    return exchange.to_dataset("conversation_text_ds", _conversation_text_refs(corpus)[0])


_TURN_COLS = ["conv_id", "turn_idx", "role", "text"]


def _assemble_conversations(t: pa.Table) -> pa.Table:
    """One conv_id partition of turns -> (conv_id, n_turns, conv_text)."""
    df = (
        pl.from_arrow(t)
        .with_columns(line=pl.col("role") + ": " + pl.col("text").fill_null(""))
        .sort(["conv_id", "turn_idx"])
        .group_by("conv_id", maintain_order=True)
        .agg(
            n_turns=pl.len().cast(pl.Int64),
            conv_text=pl.col("line").str.join("\n"),
        )
    )
    return df.to_arrow().cast(
        pa.schema(
            [
                ("conv_id", pa.string()),
                ("n_turns", pa.int64()),
                ("conv_text", pa.string()),
            ]
        )
    )


def _conversation_text_refs(corpus: str | list[str]) -> tuple[list, int]:
    """Block refs of :func:`conversation_text_ds`'s rows and the partition
    count of the chain that consumes them, sized once from the turns read
    (``exchange.chain_parts``). The reassembly's partition count caps the
    signature stage's parallelism, so it is the chain's count too."""
    turns = _read(corpus, _TURN_COLS)
    n = exchange.chain_parts(turns)
    return (
        exchange.exchange_map(turns, hash_route("conv_id", n), n, _assemble_conversations),
        n,
    )


def conversation_episode_split_ds(corpus: str | list[str], gap_s: float = 1800.0):
    """Per-turn relation with EPISODE assignment: a conversation splits
    wherever the gap between consecutive turns exceeds ``gap_s`` seconds —
    the session-segmentation rule for long-running agent transcripts (one
    conv_id can span days of intermittent activity; training wants
    coherent episodes). Adds three columns:

    - ``episode_idx``  — cumulative break count within the conversation
      (0 for the first episode), in turn order;
    - ``episode_id``   — ``"{conv_id}#{episode_idx}"``, the new corpus key
      downstream conv-granularity ops can run on unchanged;
    - ``episode_turn_idx`` — turns re-indexed from 0 within the episode.

    One conv-keyed hash exchange (a conversation can span input files);
    the partition pass is a single vectorized polars window chain over
    integer-microsecond arithmetic — no floats, so the DuckDB LAG/SUM
    window twin (tests/test_transcripts_ops.py) matches exactly."""
    gap_us = int(round(gap_s * 1_000_000))
    out_schema = pa.schema(
        [
            ("conv_id", pa.string()),
            ("turn_idx", pa.int32()),
            ("episode_idx", pa.int64()),
            ("episode_id", pa.string()),
            ("episode_turn_idx", pa.int64()),
            ("role", pa.string()),
            ("text", pa.string()),
            ("tool", pa.string()),
            ("ts", pa.timestamp("us")),
        ]
    )

    def split(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        df = (
            pl.from_arrow(t)
            .sort(["conv_id", "turn_idx"])
            .with_columns(us=pl.col("ts").cast(pl.Int64))
            .with_columns(
                brk=(pl.col("us") - pl.col("us").shift(1).over("conv_id") > gap_us)
                .fill_null(False)
                .cast(pl.Int64)
            )
            .with_columns(episode_idx=pl.col("brk").cum_sum().over("conv_id"))
            .with_columns(
                episode_id=pl.col("conv_id")
                + "#"
                + pl.col("episode_idx").cast(pl.String),
                episode_turn_idx=pl.int_range(pl.len(), dtype=pl.Int64).over(
                    ["conv_id", "episode_idx"]
                ),
            )
            .select(
                "conv_id",
                "turn_idx",
                "episode_idx",
                "episode_id",
                "episode_turn_idx",
                "role",
                "text",
                "tool",
                "ts",
            )
        )
        return df.to_arrow().cast(out_schema)

    refs = _read(corpus, ["conv_id", "turn_idx", "role", "text", "tool", "ts"])
    return exchange.to_dataset(
        "conversation_episode_split_ds", exchange.by_key(refs, "conv_id", split)
    )


def conversation_structure_stats_ds(corpus: str | list[str]):
    """Per-conversation STRUCTURE validation — the malformed-transcript
    gate an SFT pipeline runs before example construction:

    - ``n_turns``, ``n_empty_turns`` (null/empty text),
    - ``first_role`` / ``last_role`` (by turn order),
    - ``n_role_repeats``   — consecutive same-role turns (descriptive:
      tool,tool is a legal parallel-call shape, so repeats do NOT fail
      well-formedness on their own),
    - ``n_idx_gaps``       — non-contiguous turn_idx steps,
    - ``is_wellformed``    — starts with user, ends with assistant, no
      empty turns, turn_idx is exactly 0..n_turns-1.

    One conv-keyed hash exchange (a conversation can span files); the
    partition pass is vectorized polars windows. DuckDB twin via
    arg_min/arg_max + LAG in tests/test_transcripts_ops.py."""
    out_schema = pa.schema(
        [
            ("conv_id", pa.string()),
            ("n_turns", pa.int64()),
            ("n_empty_turns", pa.int64()),
            ("first_role", pa.string()),
            ("last_role", pa.string()),
            ("n_role_repeats", pa.int64()),
            ("n_idx_gaps", pa.int64()),
            ("is_wellformed", pa.bool_()),
        ]
    )

    def stats(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        df = (
            pl.from_arrow(t)
            .sort(["conv_id", "turn_idx"])
            .with_columns(
                empty=pl.col("text").fill_null("").eq("").cast(pl.Int64),
                rep=(pl.col("role") == pl.col("role").shift(1).over("conv_id"))
                .fill_null(False)
                .cast(pl.Int64),
                gap=(
                    pl.col("turn_idx") - pl.col("turn_idx").shift(1).over("conv_id")
                    != 1
                )
                .fill_null(False)
                .cast(pl.Int64),
            )
            .group_by("conv_id", maintain_order=True)
            .agg(
                n_turns=pl.len().cast(pl.Int64),
                n_empty_turns=pl.col("empty").sum(),
                first_role=pl.col("role").first(),
                last_role=pl.col("role").last(),
                n_role_repeats=pl.col("rep").sum(),
                n_idx_gaps=pl.col("gap").sum(),
                min_idx=pl.col("turn_idx").min().cast(pl.Int64),
                max_idx=pl.col("turn_idx").max().cast(pl.Int64),
            )
            .with_columns(
                is_wellformed=(pl.col("first_role") == "user")
                & (pl.col("last_role") == "assistant")
                & (pl.col("n_empty_turns") == 0)
                & (pl.col("min_idx") == 0)
                & (pl.col("max_idx") == pl.col("n_turns") - 1)
                & (pl.col("n_idx_gaps") == 0)
            )
            .drop("min_idx", "max_idx")
        )
        return df.to_arrow().cast(out_schema)

    refs = exchange.by_key(_read(corpus, _TURN_COLS), "conv_id", stats)
    return exchange.to_dataset("conversation_structure_stats_ds", refs)


def pack_conversations_ds(corpus: str | list[str], bin_tokens: int = 8192):
    """(conv_id, n_tokens, start_tok, bin_id, bin_off): conversation-granular
    sequence packing — conversations are concatenated in global conv_id
    order and every conversation belongs to the ``bin_tokens``-sized
    training bin its FIRST token lands in (the conv-level counterpart of
    ``pack.pack_chunks_ds``; a whole conversation is never split across an
    attention-masked pack boundary mid-count).

    The order-dependent primitive is the global exclusive prefix sum over
    per-conversation token counts, in STRING conv_id order — the engine's
    two-level scan with sampled range boundaries:

    1. per-turn token counts partial-agg per (batch, conv), hash exchange
       on conv_id -> one (conv_id, n_tok) row per conversation (the
       working set: ~tens of bytes/conv, not the corpus);
    2. ordered ranges over strings: each partition emits its conv_id
       quantiles, the driver merges the tiny sample and picks R-1 range
       boundaries; ``range_id = searchsorted(boundaries, conv_id)`` is
       order-preserving;
    3. per-range totals -> driver exclusive prefix in range order
       (R rows) -> broadcast; one exchange on range_id computes the
       within-range cumsum in conv_id order and adds the range offset.

    Token counts are over turn ``text`` only (same counting rule as
    ``role_stats_ds``). Oracle: one SQL window sum ORDER BY conv_id —
    integer arithmetic, no drift (tests/test_transcripts_ops.py)."""
    import ray

    if bin_tokens < 1:
        raise ValueError(f"need bin_tokens >= 1, got {bin_tokens}")
    refs = _read(corpus, ["conv_id", "text"])
    np_ = exchange.chain_parts(refs)

    def turn_partials(t: pa.Table) -> pa.Table:
        n = token_lists(t["text"]).list.len().fill_null(0)
        df = (
            pl.DataFrame(
                {"conv_id": pl.from_arrow(t["conv_id"]), "n_tok": n}
            )
            .group_by("conv_id")
            .agg(pl.col("n_tok").sum())
        )
        return df.to_arrow().cast(
            pa.schema([("conv_id", pa.string()), ("n_tok", pa.int64())])
        )

    def merge_conv(t: pa.Table) -> pa.Table:
        schema = pa.schema([("conv_id", pa.string()), ("n_tok", pa.int64())])
        if t.num_rows == 0:
            return schema.empty_table()
        df = (
            pl.from_arrow(t)
            .group_by("conv_id")
            .agg(pl.col("n_tok").sum())
            .sort("conv_id")
        )
        return df.to_arrow().cast(schema)

    convs = exchange.aggregate(refs, turn_partials, "conv_id", merge_conv)

    # --- sampled string boundaries for order-preserving ranges
    def sample_keys(t: pa.Table) -> pa.Table:
        ids = np.asarray(t["conv_id"].to_pylist(), dtype=object)
        ids.sort()
        k = min(32, ids.size)
        if k == 0:
            return pa.table({"key": pa.array([], pa.string())})
        pick = ids[np.linspace(0, ids.size - 1, k).astype(np.int64)]
        return pa.table({"key": pa.array(pick.tolist(), pa.string())})

    sample = sorted(
        s for b in ray.get(exchange.map_refs(sample_keys, convs)) for s in b["key"].to_pylist()
    )
    if sample:
        bidx = np.linspace(0, len(sample) - 1, np_ + 1).astype(np.int64)[1:-1]
        boundaries = sorted(set(sample[i] for i in bidx))
    else:
        boundaries = []
    barr = np.asarray(boundaries, dtype=object)

    def _rid(t: pa.Table) -> np.ndarray:
        """range_id from conv_id on the fly (monotone in conv_id)."""
        ids = np.asarray(t["conv_id"].to_pylist(), dtype=object)
        if not barr.size:
            return np.zeros(ids.size, dtype=np.int64)
        return np.searchsorted(barr, ids, side="right").astype(np.int64)

    # --- range totals -> driver exclusive prefix (R rows), broadcast
    def range_partial(t: pa.Table) -> pa.Table:
        return (
            pl.DataFrame(
                {
                    "range_id": _rid(t),
                    "n_tok": pl.from_arrow(t["n_tok"]),
                }
            )
            .group_by("range_id")
            .agg(pl.col("n_tok").sum())
            .to_arrow()
            .cast(pa.schema([("range_id", pa.int64()), ("n_tok", pa.int64())]))
        )

    partials = pa.concat_tables(ray.get(exchange.map_refs(range_partial, convs))).to_pandas()
    totals = partials.groupby("range_id")["n_tok"].sum().sort_index()
    offsets = totals.cumsum().shift(fill_value=0)
    off_by_range = dict(zip(offsets.index.astype(int), offsets.astype(int)))
    oref = ray.put(off_by_range)

    out_schema = pa.schema(
        [
            ("conv_id", pa.string()),
            ("n_tokens", pa.int64()),
            ("start_tok", pa.int64()),
            ("bin_id", pa.int64()),
            ("bin_off", pa.int64()),
        ]
    )

    def assign(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        offs = ray.get(oref)
        # range_id is monotone in conv_id, so one string sort orders both
        df = pl.from_arrow(t.select(["conv_id", "n_tok"])).sort("conv_id")
        rid = _rid(df.to_arrow())
        ntok = df["n_tok"].to_numpy()
        cum = np.cumsum(ntok) - ntok
        starts = np.flatnonzero(np.r_[True, rid[1:] != rid[:-1]])
        reps = np.diff(np.r_[starts, len(rid)])
        base = np.repeat(cum[starts], reps)
        local = cum - base
        goff = local + np.repeat(
            np.array([offs[int(r)] for r in rid[starts]], np.int64), reps
        )
        return pa.table(
            {
                "conv_id": df["conv_id"].to_arrow().cast(pa.string()),
                "n_tokens": pa.array(ntok, pa.int64()),
                "start_tok": pa.array(goff, pa.int64()),
                "bin_id": pa.array(goff // bin_tokens, pa.int64()),
                "bin_off": pa.array(goff % bin_tokens, pa.int64()),
            },
            schema=out_schema,
        )

    return exchange.to_dataset("pack_conversations_ds", exchange.exchange_map(convs, _rid, np_, assign))


def conversation_minhash_dups_ds(
    corpus: str | list[str],
    max_bucket: int | None = None,
    conv_text=None,
):
    """(conv_a, conv_b): candidate NEAR-duplicate conversation pairs —
    banded minhash LSH over the reassembled ordered conversation text
    (:func:`conversation_text_ds`), the fuzzy counterpart of
    :func:`conversation_dedup_ds` and the granularity LLM training data is
    actually near-deduped at (a re-run of the same session differs by a few
    turns, so turn- or doc-level dedup misses it).

    Runs the doc-level candidate stage (``dedup._minhash_pairs``) on string
    conv ids: pair order a < b is the conv_id order. Approximate by
    construction (LSH) — rows-only in the driver gate; the planted-near-dup
    recall contract lives in tests/test_transcripts_ops.py.

    ``conv_text``: optionally pass an already-built reassembly (the
    ``(refs, n_parts)`` of ``_conversation_text_refs``) so composed jobs
    reassemble the corpus ONCE instead of once per consumer."""
    from web_search_engine_ray.pipelines.dedup import _minhash_pairs

    texts, np_ = conv_text or _conversation_text_refs(corpus)
    pairs = _minhash_pairs(
        texts, "conv_id", "conv_text", ("conv_a", "conv_b"), np_, max_bucket
    )
    return exchange.to_dataset("conversation_minhash_dups_ds", pairs)


def conversation_jaccard_dups_ds(
    corpus: str | list[str],
    tau: float = 0.8,
    max_bucket: int | None = None,
    conv_text=None,
):
    """(conv_a, conv_b, jaccard): VERIFIED near-duplicate conversation
    pairs — :func:`conversation_minhash_dups_ds` candidates whose exact
    conversation-shingle Jaccard clears ``tau``, verified by the doc-level
    kernel (``dedup._verified_pairs``): a semi-join exchange on the conv_id
    ships each requested conversation's shingle set to its pairs' verify
    partitions, and a verify exchange counts the intersections. Candidate
    pairs never reach the driver.

    The driver sees only the VERIFIED pair relation — true-dup-scale, not
    candidate-scale (the 2M-turn stress produced 5.35M candidates but
    ~500 verified dups). Used by the SFT dataset job's conversation-dedup
    stage (pipelines/corpus_job.py).

    The whole chain — reassembly, candidates, semi-join, verify — is
    submitted as one graph of block refs; the reassembled blocks feed both
    the candidate stage and the semi-join's corpus side, and the driver
    waits once, on the verified partitions."""
    from web_search_engine_ray.pipelines.dedup import _minhash_pairs, _verified_pairs

    pair_cols = ("conv_a", "conv_b")
    texts, np_ = conv_text or _conversation_text_refs(corpus)
    cand = _minhash_pairs(texts, "conv_id", "conv_text", pair_cols, np_, max_bucket)
    pairs = _verified_pairs(
        cand, texts, "conv_id", "conv_text", pair_cols, "jaccard", tau, np_
    )
    return exchange.to_dataset("conversation_jaccard_dups_ds", pairs)


def sft_examples_ds(corpus: str | list[str], max_context_turns: int = 64):
    """(conv_id, turn_idx, n_context_turns, context, target): one training
    example per ASSISTANT turn — ``target`` is that turn's text, ``context``
    is the preceding ``max_context_turns`` turns rendered as "role: text"
    lines joined by newline (empty for a conversation-opening assistant
    turn). The canonical SFT-pair construction over multi-turn transcripts;
    ``max_context_turns`` is the context-window budget knob (keep-last-k).

    Shape: conversations route whole through the conv_id exchange; inside
    the partition the per-row context BOUNDS are pure offset arithmetic
    (cum_sum of line lengths + two window shifts — vectorized), and the
    only per-row work is the final substring copy, which is
    output-proportional (the context string must be materialized anyway).
    Contexts never ship through a shuffle — they are born in the output."""
    k = int(max_context_turns)
    if k < 1:
        raise ValueError("max_context_turns must be >= 1")

    def build(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "conv_id": pa.array([], pa.string()),
                "turn_idx": pa.array([], pa.int64()),
                "n_context_turns": pa.array([], pa.int64()),
                "context": pa.array([], pa.string()),
                "target": pa.array([], pa.string()),
            }
        )
        if t.num_rows == 0:
            return empty
        df = (
            pl.from_arrow(t)
            .sort(["conv_id", "turn_idx"])
            .with_columns(line=pl.col("role") + ": " + pl.col("text").fill_null(""))
            .with_columns(
                pos=pl.int_range(pl.len()).over("conv_id"),
                # +1 = the "\n" separator each line carries in the offsets
                llen=pl.col("line").str.len_chars().cast(pl.Int64) + 1,
            )
            .with_columns(end_off=pl.col("llen").cum_sum().over("conv_id"))
            .with_columns(
                # chars through line pos-k-1 = start offset of line pos-k
                ctx_start=pl.col("end_off").shift(k + 1).over("conv_id").fill_null(0),
                # chars through line pos-1 (incl. its separator)
                ctx_end=pl.col("end_off").shift(1).over("conv_id").fill_null(0),
                n_ctx=pl.min_horizontal(pl.col("pos"), pl.lit(k)).cast(pl.Int64),
            )
        )
        full = df.group_by("conv_id", maintain_order=True).agg(
            full=pl.col("line").str.join("\n")
        )
        fmap = dict(zip(full["conv_id"].to_list(), full["full"].to_list()))
        a = df.filter(pl.col("role") == "assistant")
        if a.height == 0:
            return empty
        convs = a["conv_id"].to_list()
        cs = a["ctx_start"].to_numpy()
        ce = a["ctx_end"].to_numpy()
        # output-proportional: each slice IS the emitted context string
        # (ce-1 drops the window's trailing separator)
        ctxs = [
            fmap[c][s : e - 1] if e > s else ""
            for c, s, e in zip(convs, cs, ce)
        ]
        return pa.table(
            {
                "conv_id": pa.array(convs, pa.string()),
                "turn_idx": a["turn_idx"].cast(pl.Int64).to_arrow(),
                "n_context_turns": a["n_ctx"].to_arrow(),
                "context": pa.array(ctxs, pa.string()),
                "target": a["text"].fill_null("").to_arrow().cast(pa.string()),
            }
        )

    refs = exchange.by_key(_read(corpus, _TURN_COLS), "conv_id", build)
    return exchange.to_dataset("sft_examples_ds", refs)


# Fixed queries over the transcript fixture vocabulary (stopwords + zipf
# words + specials), mirroring serving.FIXED_QUERIES' case coverage.
FIXED_TRANSCRIPT_QUERIES = [
    "the w0007",
    "agent call",
    "w0005 w0035",
    "task step",
    "data w0091",
    "bm25 http",
    "run model tool",
    "nosuchterm w0255",
]

_tidx_searchers: dict[str, object] = {}


def transcript_index(corpus: str) -> str:
    """Build (or reuse) the inverted turn index for a transcript corpus dir.
    Keyed by the identity of EVERY corpus file (a change confined to a later
    file must invalidate the cache — docids are positional row ranks over
    the whole file list); resumable on disk like ``serving.documents_index``."""
    import hashlib
    import os

    from web_search_engine_ray.pipelines.build import build_index
    from web_search_engine_ray.sources.transcripts import corpus_files

    ident = ";".join(
        f"{f}:{os.stat(f).st_size}:{os.stat(f).st_mtime_ns}"
        for f in corpus_files(corpus)
    )
    key = hashlib.sha256(f"{corpus}:{ident}:tidx1".encode()).hexdigest()[:16]
    out = os.path.join("/tmp", "wse_ray_cache", f"tidx_{key}")
    build_index(
        corpus, out, partition_rows=20_000, num_shards=8, n_salts=4,
        heavy_df_frac=0.05,
    )
    return out


def role_filtered_search_table(
    corpus: str,
    role: str = "assistant",
    queries: list[str] | None = None,
    topk: int = 10,
    mode: str = "OR",
    probe_cap: int = 10_000,
) -> pa.Table:
    """(query_id, rank, docid, score): BM25 top-k restricted to turns of one
    ROLE — fielded retrieval over the transcript index ("what did the
    assistant say about X"). BM25 statistics (N, avgdl, df) stay
    corpus-global, exactly as if the role were a post-filter on the full
    ranking — the contract the OracleIndex twin replays.

    Scale shape: the full ranking (``bm25_topk`` with ``topk=None``, the
    sorted cut) is candidate-scale (scored docs only); the role of each
    candidate is fetched by walking the ranking in score order with
    row-group-seek :class:`DocStore` reads and stopping at
    ``topk`` hits — expected probes ~ topk / role_frequency, never a corpus
    scan (``probe_cap`` bounds the pathological all-misses case, and a
    truncated walk is reported by raising, never silently)."""
    from web_search_engine_ray.pipelines.query import Searcher
    from web_search_engine_ray.state.docstore import DocStore

    idx = transcript_index(corpus)
    s = _tidx_searchers.get(idx)
    if s is None:
        s = _tidx_searchers[idx] = Searcher(idx)
    store = DocStore(corpus, columns=["role"])
    q_l, r_l, d_l, s_l = [], [], [], []
    for qi, q in enumerate(queries or FIXED_TRANSCRIPT_QUERIES):
        full = s.bm25_topk(q, topk=None, mode=mode, tie_semantics="sorted")
        kept: list[tuple[int, float]] = []
        for probes, (docid, score) in enumerate(full):
            if probes >= probe_cap:
                raise RuntimeError(
                    f"role_filtered_search: probe_cap={probe_cap} exhausted "
                    f"for query {q!r} with {len(kept)}/{topk} hits — raise "
                    "the cap or build a role-partitioned index"
                )
            row = store.get(docid)
            if row is not None and row.get("role") == role:
                kept.append((docid, score))
                if len(kept) == topk:
                    break
        for rank, (d, sc) in enumerate(kept, start=1):
            q_l.append(qi)
            r_l.append(rank)
            d_l.append(d)
            s_l.append(round(sc, 9))
    return pa.table(
        {
            "query_id": pa.array(q_l, pa.int64()),
            "rank": pa.array(r_l, pa.int64()),
            "docid": pa.array(d_l, pa.int64()),
            "score": pa.array(s_l, pa.float64()),
        }
    )


def fixture_corpus(n_convs: int = 200, max_turns: int = 6) -> str:
    """Deterministic cached transcript corpus for the driver-gate entries
    (the driver's tables have no transcript-shaped relation)."""
    import os

    from web_search_engine_ray.fixtures.transcripts import write_corpus

    d = f"/tmp/wse_gate_transcripts_c{n_convs}_t{max_turns}"
    write_corpus(d, n_convs=n_convs, max_turns=max_turns, rows_per_file=300)
    return d


def gapped_fixture_corpus(n_convs: int = 200, max_turns: int = 6) -> str:
    """:func:`fixture_corpus` with planted intra-conversation time gaps
    (every 3rd turn of every 2nd conversation jumps +2 h, cumulative) —
    the gate corpus for the episode-split entry, which is an identity map
    on the gap-free fixture."""
    import os
    import shutil

    import pyarrow.parquet as pq

    base = fixture_corpus(n_convs=n_convs, max_turns=max_turns)
    d = f"/tmp/wse_gate_transcripts_gapped_c{n_convs}_t{max_turns}"
    marker = os.path.join(d, "_done")
    if os.path.exists(marker):
        return d
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d, exist_ok=True)
    files = sorted(
        os.path.join(base, f) for f in os.listdir(base) if f.endswith(".parquet")
    )
    for f in files:
        t = pq.read_table(f)
        base_schema = pq.read_schema(f)
        df = pl.from_arrow(t).with_columns(
            _cn=pl.col("conv_id").str.slice(-2).cast(pl.Int64)
        )
        bump = (
            ((df["_cn"] % 2 == 0) & (df["turn_idx"] % 3 == 2))
            .cast(pl.Int64)
            .cum_sum()
        )
        df = df.with_columns(ts=pl.col("ts") + pl.duration(hours=2 * bump)).drop(
            "_cn"
        )
        pq.write_table(
            df.to_arrow().select(base_schema.names).cast(base_schema),
            os.path.join(d, os.path.basename(f)),
        )
    with open(marker, "w") as fh:
        fh.write("ok")
    return d


def neardup_fixture_corpus(n_convs: int = 200, max_turns: int = 6) -> str:
    """:func:`fixture_corpus` plus 7 deterministic planted clones (5 with
    one perturbed turn -> jaccard near 1, 2 exact) — the gate corpus for
    the verified conversation near-dup entry, which is empty on the plain
    fixture (no true near-dups)."""
    import os

    import pyarrow.parquet as pq

    base = fixture_corpus(n_convs=n_convs, max_turns=max_turns)
    d = f"/tmp/wse_gate_transcripts_neardup_c{n_convs}_t{max_turns}"
    marker = os.path.join(d, "_done")
    if os.path.exists(marker):
        return d
    import shutil

    shutil.rmtree(d, ignore_errors=True)  # partial build from a dead run
    os.makedirs(d, exist_ok=True)
    files = sorted(
        os.path.join(base, f) for f in os.listdir(base) if f.endswith(".parquet")
    )
    df = pl.from_arrow(pq.read_table(files[0]))
    convs = sorted(df["conv_id"].unique().to_list())[:7]
    clones = []
    for i, c in enumerate(convs):
        g = df.filter(pl.col("conv_id") == c).with_columns(
            conv_id=pl.lit(f"zclone{i:05d}")
        )
        if i < 5:  # near-dup: perturb the first turn's text
            first = g["turn_idx"].min()
            g = g.with_columns(
                text=pl.when(pl.col("turn_idx") == first)
                .then(pl.col("text").fill_null("") + " perturbed")
                .otherwise(pl.col("text"))
            )
        clones.append(g)
    for src in files:
        os.link(src, os.path.join(d, os.path.basename(src)))
    base_schema = pq.read_schema(files[0])
    # polars emits large_string; cast back to the base files' schema so the
    # multi-file read sees ONE schema (mixed string/large_string breaks
    # concat inside the reassembly exchange)
    pq.write_table(
        pl.concat(clones).to_arrow().select(base_schema.names).cast(base_schema),
        os.path.join(d, "zclones.parquet"),
    )
    with open(marker, "w") as fh:
        fh.write("ok")
    return d


def conversation_dedup_ds(corpus: str | list[str]):
    """(conv_hash, conv_id): conversation-level exact dedup — md5 of the
    reassembled ordered conversation text, min conv_id survivor per group.
    Composition of :func:`conversation_text_ds` with the engine's
    hash-exchange dedup rule (``dedup.exact_dedup_ds``), at the granularity
    LLM training actually dedupes multi-turn data."""
    import hashlib

    def hash_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "conv_hash": pa.array(
                    [
                        hashlib.md5(x.encode("utf-8")).hexdigest()
                        for x in t["conv_text"].to_pylist()
                    ],
                    pa.string(),
                ),
                "conv_id": t["conv_id"].cast(pa.string()),
            }
        )

    def merge(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .group_by("conv_hash")
            .agg(pl.col("conv_id").min())
            .to_arrow()
            .select(["conv_hash", "conv_id"])
            .cast(pa.schema([("conv_hash", pa.string()), ("conv_id", pa.string())]))
        )

    texts, n = _conversation_text_refs(corpus)
    hashed = exchange.map_refs(hash_rows, texts)
    out = exchange.exchange_map(hashed, hash_route("conv_hash", n), n, merge)
    return exchange.to_dataset("conversation_dedup_ds", out)
