"""Conversation-level operators vs a DuckDB oracle over the SAME fixture
files — the transcript-native contract (conv_id, turn_idx, role, text,
tool, ts)."""

import os

import duckdb
import pandas as pd
import pytest

from web_search_engine_ray.pipelines.transcripts_ops import (
    conversation_rollup_ds,
    conversation_text_ds,
    role_stats_ds,
    tool_usage_ds,
)

PAT = "[a-z0-9]+(?:[.-][a-z0-9]+)*"


@pytest.fixture(scope="module")
def conv_corpus(tmp_path_factory):
    from web_search_engine_ray.fixtures.transcripts import write_corpus

    d = tmp_path_factory.mktemp("convs")
    write_corpus(str(d), n_convs=120, max_turns=6, rows_per_file=150)
    return str(d)


@pytest.fixture(scope="module")
def con(conv_corpus):
    c = duckdb.connect()
    c.sql(
        f"CREATE VIEW tr AS SELECT * FROM read_parquet('{conv_corpus}/*.parquet')"
    )
    return c


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def test_conversation_rollup(ray_session, conv_corpus, con):
    got = _canon(conversation_rollup_ds(conv_corpus).to_pandas())
    want = _canon(
        con.sql(
            """
SELECT conv_id, count(*)::BIGINT AS n_turns,
       sum((role = 'user')::INT)::BIGINT AS n_user,
       sum((role = 'assistant')::INT)::BIGINT AS n_assistant,
       sum((role = 'tool')::INT)::BIGINT AS n_tool,
       sum((tool <> '')::INT)::BIGINT AS n_tool_calls,
       sum(coalesce(length(text), 0))::BIGINT AS total_chars,
       min(epoch_us(ts) // 1000000)::BIGINT AS first_epoch,
       max(epoch_us(ts) // 1000000)::BIGINT AS last_epoch
FROM tr GROUP BY conv_id
"""
        ).df()
    )
    pd.testing.assert_frame_equal(got, want)


def test_role_stats(ray_session, conv_corpus, con):
    got = _canon(role_stats_ds(conv_corpus).to_pandas())
    want = _canon(
        con.sql(
            f"""
WITH t AS (SELECT role,
           len(regexp_extract_all(lower(text), '{PAT}'))::BIGINT AS n_tok FROM tr)
SELECT role, count(*)::BIGINT AS n_turns, sum(n_tok)::BIGINT AS total_tokens,
       round(sum(n_tok) / (1.0 * count(*)), 6) AS avg_tokens
FROM t GROUP BY role
"""
        ).df()
    )
    pd.testing.assert_frame_equal(got, want)


def test_tool_usage(ray_session, conv_corpus, con):
    got = _canon(tool_usage_ds(conv_corpus).to_pandas())
    want = _canon(
        con.sql(
            """
SELECT tool, count(*)::BIGINT AS n_calls,
       count(DISTINCT conv_id)::BIGINT AS n_convs
FROM tr WHERE tool <> '' GROUP BY tool
"""
        ).df()
    )
    pd.testing.assert_frame_equal(got, want)


def test_conversation_text(ray_session, conv_corpus, con):
    got = _canon(conversation_text_ds(conv_corpus).to_pandas())
    want = _canon(
        con.sql(
            """
SELECT conv_id, count(*)::BIGINT AS n_turns,
       string_agg(role || ': ' || coalesce(text, ''), chr(10) ORDER BY turn_idx)
         AS conv_text
FROM tr GROUP BY conv_id
"""
        ).df()
    )
    pd.testing.assert_frame_equal(got, want)


def test_rollup_conv_spanning_files(ray_session, conv_corpus):
    """rows_per_file=150 guarantees conversations straddle file boundaries;
    the rollup must still see every turn exactly once."""
    got = conversation_rollup_ds(conv_corpus).to_pandas()
    assert got.n_turns.sum() > 0
    import glob

    import pyarrow.parquet as pq

    total = sum(
        pq.ParquetFile(f).metadata.num_rows
        for f in glob.glob(conv_corpus + "/*.parquet")
    )
    assert got.n_turns.sum() == total


def test_events_as_transcripts_writes_no_zero_row_files(ray_session, tmp_path):
    """The events view writes one file per NON-empty user partition (a
    zero-row file would read as a column-less block), and exactly one
    (empty, with the schema) when the events table is empty."""
    import glob
    import shutil

    import numpy as np
    import pyarrow.parquet as pq

    from tests.test_legacy_runs import SF
    from web_search_engine_ray.pipelines.transcripts_ops import events_as_transcripts

    src = os.path.join(SF, "events.parquet")
    users = pq.read_table(src, columns=["user_id"])["user_id"].to_numpy()
    sf = tmp_path / "sf"
    sf.mkdir()
    shutil.copyfile(src, sf / "events.parquet")
    files = glob.glob(os.path.join(events_as_transcripts(str(sf)), "*.parquet"))
    assert len(files) == np.unique(users % 16).size < 16
    assert all(pq.read_metadata(f).num_rows for f in files)

    empty = tmp_path / "empty"
    empty.mkdir()
    pq.write_table(pq.read_schema(src).empty_table(), empty / "events.parquet")
    files = glob.glob(os.path.join(events_as_transcripts(str(empty)), "*.parquet"))
    assert len(files) == 1
    assert pq.read_schema(files[0]).names == [
        "conv_id", "turn_idx", "role", "text", "tool", "ts"
    ]


def test_conversation_aggregates_key_column_is_string(ray_session, conv_corpus):
    """Every output block of the four conversation aggregates carries its
    key column as ``pa.string()``, not polars' ``large_string``, so no
    consumer sees one Dataset of mixed string types."""
    import pyarrow as pa
    import ray

    ops = {
        conversation_rollup_ds: "conv_id",
        role_stats_ds: "role",
        tool_usage_ds: "tool",
        conversation_text_ds: "conv_id",
    }
    for op, key in ops.items():
        blocks = ray.get(op(conv_corpus).to_arrow_refs())
        assert blocks, op.__name__
        types = {b.schema.field(key).type for b in blocks}
        assert types == {pa.string()}, (op.__name__, types)


def test_conversation_dedup(ray_session, conv_corpus, con):
    from web_search_engine_ray.pipelines.transcripts_ops import conversation_dedup_ds

    got = _canon(conversation_dedup_ds(conv_corpus).to_pandas())
    want = _canon(
        con.sql(
            """
WITH ct AS (
  SELECT conv_id,
         string_agg(role || ': ' || coalesce(text, ''), chr(10) ORDER BY turn_idx)
           AS conv_text
  FROM tr GROUP BY conv_id)
SELECT md5(conv_text) AS conv_hash, min(conv_id) AS conv_id
FROM ct GROUP BY md5(conv_text)
"""
        ).df()
    )
    pd.testing.assert_frame_equal(got, want)


def test_sft_examples(ray_session, conv_corpus, con):
    from web_search_engine_ray.pipelines.transcripts_ops import sft_examples_ds

    got = _canon(sft_examples_ds(conv_corpus, max_context_turns=64).to_pandas())
    want = _canon(
        con.sql(
            """
WITH lines AS (
  SELECT conv_id, turn_idx, role, text,
         role || ': ' || coalesce(text, '') AS line
  FROM tr),
w AS (
  SELECT conv_id, turn_idx, role, text,
    string_agg(line, chr(10)) OVER (
      PARTITION BY conv_id ORDER BY turn_idx
      ROWS BETWEEN 64 PRECEDING AND 1 PRECEDING) AS context,
    count(*) OVER (
      PARTITION BY conv_id ORDER BY turn_idx
      ROWS BETWEEN 64 PRECEDING AND 1 PRECEDING)::BIGINT AS n_context_turns
  FROM lines)
SELECT conv_id, turn_idx::BIGINT AS turn_idx, n_context_turns,
       coalesce(context, '') AS context, coalesce(text, '') AS target
FROM w WHERE role = 'assistant'
"""
        ).df()
    )
    pd.testing.assert_frame_equal(got, want)


def test_sft_examples_context_budget(ray_session, conv_corpus, con):
    """keep-last-k: with k=2 no example may carry more than 2 context turns,
    and the k=2 context must equal the tail of the k=64 context."""
    from web_search_engine_ray.pipelines.transcripts_ops import sft_examples_ds

    wide = sft_examples_ds(conv_corpus, max_context_turns=64).to_pandas()
    tight = sft_examples_ds(conv_corpus, max_context_turns=2).to_pandas()
    assert tight["n_context_turns"].max() <= 2
    w = wide.set_index(["conv_id", "turn_idx"])
    for _, r in tight.iterrows():
        full_ctx = w.loc[(r["conv_id"], r["turn_idx"])]["context"]
        assert full_ctx.endswith(r["context"])


@pytest.fixture(scope="module")
def neardup_corpus(conv_corpus, tmp_path_factory):
    """Fixture corpus + 5 planted near-dup clones (one turn's text gets a
    token appended) and 2 exact clones."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    t = pq.read_table(f"{conv_corpus}/transcripts_00000.parquet")
    df = t.to_pandas()
    out = [df]
    convs = sorted(df["conv_id"].unique())[:7]
    for i, c in enumerate(convs):
        g = df[df["conv_id"] == c].copy()
        g["conv_id"] = f"zclone{i:05d}"
        if i < 5:  # near-dup: perturb one turn
            idx = g.index[0]
            g.loc[idx, "text"] = (g.loc[idx, "text"] or "") + " perturbed"
        out.append(g)
    import pandas as pd

    d = tmp_path_factory.mktemp("neardup")
    merged = pd.concat(out).reset_index(drop=True)
    pq.write_table(pa.Table.from_pandas(merged, preserve_index=False), f"{d}/all.parquet")
    return str(d), convs


def test_conversation_minhash_neardups(ray_session, neardup_corpus):
    from web_search_engine_ray.pipelines.transcripts_ops import (
        conversation_minhash_dups_ds,
    )

    d, convs = neardup_corpus
    pairs = conversation_minhash_dups_ds(d).to_pandas()
    got = set(map(tuple, pairs.itertuples(index=False)))
    # every planted (orig, clone) pair must surface (clones share all but
    # one turn -> jaccard near 1 -> some band must agree)
    for i, c in enumerate(convs):
        want = tuple(sorted([c, f"zclone{i:05d}"]))
        assert want in got, f"missing planted pair {want}"
    # pair order contract: a < b lexicographically, no self-pairs
    assert all(a < b for a, b in got)


def test_conversation_minhash_deterministic(ray_session, neardup_corpus):
    from web_search_engine_ray.pipelines.transcripts_ops import (
        conversation_minhash_dups_ds,
    )

    d, _ = neardup_corpus
    a = conversation_minhash_dups_ds(d).to_pandas().sort_values(["conv_a", "conv_b"]).reset_index(drop=True)
    b = conversation_minhash_dups_ds(d).to_pandas().sort_values(["conv_a", "conv_b"]).reset_index(drop=True)
    import pandas as pd

    pd.testing.assert_frame_equal(a, b)


def test_conversation_minhash_pairs_are_similar(ray_session, neardup_corpus):
    """Precision contract: every candidate pair's true conversation-level
    shingle jaccard must be well above random (banded LSH false positives
    need a band-hash collision, which the u64 band space makes negligible)."""
    import numpy as np
    import pyarrow as pa

    from web_search_engine_ray.functions.tokenize import token_lists
    from web_search_engine_ray.pipelines.dedup import _shingle_hashes
    from web_search_engine_ray.pipelines.transcripts_ops import (
        conversation_minhash_dups_ds,
        conversation_text_ds,
    )

    d, _ = neardup_corpus
    pairs = conversation_minhash_dups_ds(d).to_pandas()
    texts = conversation_text_ds(d).to_pandas().set_index("conv_id")["conv_text"]
    toks = {c: token_lists(__import__("pyarrow").array([t])).to_list()[0] for c, t in texts.items()}
    for a, b in pairs.itertuples(index=False):
        sa, sb = _shingle_hashes(toks[a]), _shingle_hashes(toks[b])
        inter = np.intersect1d(sa, sb).size
        jac = inter / max(1, sa.size + sb.size - inter)
        assert jac >= 0.2, (a, b, jac)


@pytest.fixture(scope="module")
def gapped_corpus(conv_corpus, tmp_path_factory):
    """Fixture corpus with planted intra-conversation time gaps: every 3rd
    turn of every 2nd conversation jumps forward 2 hours (cumulatively),
    so episode boundaries land mid-conversation deterministically."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import polars as pl
    import glob
    import os

    d = tmp_path_factory.mktemp("gapped")
    for i, f in enumerate(sorted(glob.glob(f"{conv_corpus}/*.parquet"))):
        t = pq.read_table(f)
        base = pq.read_schema(f)
        df = pl.from_arrow(t).with_columns(
            _cn=pl.col("conv_id").str.slice(-2).cast(pl.Int64)
        )
        bump = (
            (df["_cn"] % 2 == 0) & (df["turn_idx"] % 3 == 2)
        ).cast(pl.Int64).cum_sum()  # cumulative so later turns stay ordered
        df = (
            df.with_columns(
                ts=pl.col("ts") + pl.duration(hours=2 * bump)
            ).drop("_cn")
        )
        pq.write_table(
            df.to_arrow().select(base.names).cast(base),
            os.path.join(d, os.path.basename(f)),
        )
    return str(d)


def test_conversation_episode_split_vs_oracle(ray_session, gapped_corpus):
    """Episode assignment must equal the DuckDB LAG/SUM window twin (exact
    integer-us arithmetic on both sides)."""
    import duckdb

    from web_search_engine_ray.pipelines.transcripts_ops import (
        conversation_episode_split_ds,
    )

    got = _canon(conversation_episode_split_ds(gapped_corpus, gap_s=1800).to_pandas())
    assert got["episode_idx"].max() > 0  # gaps actually split something
    c = duckdb.connect()
    c.sql(
        f"CREATE VIEW tr AS SELECT * FROM read_parquet('{gapped_corpus}/*.parquet')"
    )
    want = _canon(
        c.sql(
            """
WITH g AS (
  SELECT conv_id, turn_idx, role, text, tool, ts,
         CASE WHEN epoch_us(ts) - LAG(epoch_us(ts))
                   OVER (PARTITION BY conv_id ORDER BY turn_idx)
                   > 1800 * 1000000 THEN 1 ELSE 0 END AS brk
  FROM tr
), e AS (
  SELECT *, SUM(brk) OVER (PARTITION BY conv_id ORDER BY turn_idx
                           ROWS UNBOUNDED PRECEDING)::BIGINT AS episode_idx
  FROM g
)
SELECT conv_id, turn_idx, episode_idx,
       conv_id || '#' || episode_idx AS episode_id,
       (ROW_NUMBER() OVER (PARTITION BY conv_id, episode_idx
                           ORDER BY turn_idx) - 1)::BIGINT AS episode_turn_idx,
       role, text, tool, ts
FROM e
"""
        ).df()
    )
    pd.testing.assert_frame_equal(got, want)


def test_conversation_episode_split_no_gaps_is_identity(ray_session, conv_corpus):
    """On the gap-free fixture every conversation is one episode and
    episode_turn_idx mirrors the turn order."""
    from web_search_engine_ray.pipelines.transcripts_ops import (
        conversation_episode_split_ds,
    )

    got = conversation_episode_split_ds(conv_corpus, gap_s=1800).to_pandas()
    assert (got["episode_idx"] == 0).all()
    assert (got["episode_id"] == got["conv_id"] + "#0").all()
    g = got.sort_values(["conv_id", "turn_idx"]).groupby("conv_id")
    assert (g["episode_turn_idx"].apply(lambda s: (s.values == range(len(s))).all())).all()


def test_episode_corpus_composition(ray_session, gapped_corpus, tmp_path_factory):
    """The episode relation re-keys into a valid transcript corpus
    (episode_id -> conv_id, episode_turn_idx -> turn_idx) that every
    conv-granularity op consumes unchanged — prove it with the rollup:
    per-episode turn counts must match the episode assignment itself."""
    import pyarrow.parquet as pq

    from web_search_engine_ray.pipelines.transcripts_ops import (
        conversation_episode_split_ds,
        conversation_rollup_ds,
    )

    ep = conversation_episode_split_ds(gapped_corpus, gap_s=1800).to_pandas()
    corpus_df = ep.rename(
        columns={"conv_id": "orig_conv_id", "episode_id": "conv_id"}
    )[["conv_id", "episode_turn_idx", "role", "text", "tool", "ts"]].rename(
        columns={"episode_turn_idx": "turn_idx"}
    )
    d = tmp_path_factory.mktemp("episode_corpus")
    import pyarrow as pa

    pq.write_table(
        pa.Table.from_pandas(corpus_df, preserve_index=False),
        f"{d}/episodes.parquet",
    )
    roll = conversation_rollup_ds(str(d)).to_pandas()
    want = ep.groupby("episode_id").size()
    got = roll.set_index("conv_id")["n_turns"]
    assert got.sort_index().equals(want.sort_index().astype("int64"))
    assert (ep["episode_idx"] > 0).any()  # gaps produced real episodes


def test_conversation_structure_stats_vs_oracle(ray_session, conv_corpus, con):
    """Structure validation must equal the DuckDB arg_min/arg_max + LAG
    twin."""
    from web_search_engine_ray.pipelines.transcripts_ops import (
        conversation_structure_stats_ds,
    )

    got = _canon(conversation_structure_stats_ds(conv_corpus).to_pandas())
    want = _canon(
        con.sql(
            """
WITH o AS (
  SELECT conv_id, turn_idx, role, text,
         LAG(role) OVER w AS prev_role,
         LAG(turn_idx) OVER w AS prev_idx
  FROM tr WINDOW w AS (PARTITION BY conv_id ORDER BY turn_idx)
)
SELECT conv_id,
       count(*)::BIGINT AS n_turns,
       sum((coalesce(text, '') = '')::INT)::BIGINT AS n_empty_turns,
       arg_min(role, turn_idx) AS first_role,
       arg_max(role, turn_idx) AS last_role,
       sum(coalesce((role = prev_role)::INT, 0))::BIGINT AS n_role_repeats,
       sum((prev_idx IS NOT NULL AND turn_idx - prev_idx <> 1)::INT)::BIGINT
           AS n_idx_gaps,
       (arg_min(role, turn_idx) = 'user'
        AND arg_max(role, turn_idx) = 'assistant'
        AND sum((coalesce(text, '') = '')::INT) = 0
        AND min(turn_idx) = 0
        AND max(turn_idx) = count(*) - 1
        AND sum((prev_idx IS NOT NULL AND turn_idx - prev_idx <> 1)::INT) = 0)
           AS is_wellformed
FROM o GROUP BY conv_id
"""
        ).df()
    )
    pd.testing.assert_frame_equal(got, want)
    # the fixture must exercise both verdicts for the contract to mean much
    assert got["is_wellformed"].nunique() >= 1


def test_pack_conversations_vs_oracle(ray_session, conv_corpus, con):
    """Conversation packing must equal the single SQL window sum in global
    conv_id order (exact integer arithmetic on both sides)."""
    from web_search_engine_ray.pipelines.transcripts_ops import (
        pack_conversations_ds,
    )

    B = 512
    got = _canon(pack_conversations_ds(conv_corpus, bin_tokens=B).to_pandas())
    want = _canon(
        con.sql(
            f"""
WITH c AS (SELECT conv_id,
           sum(len(regexp_extract_all(lower(text), '{PAT}')))::BIGINT AS n_tok
           FROM tr GROUP BY conv_id),
 s AS (SELECT conv_id, n_tok,
       coalesce(sum(n_tok) OVER (ORDER BY conv_id
                 ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)::BIGINT
           AS start_tok
       FROM c)
SELECT conv_id, n_tok AS n_tokens, start_tok,
       (start_tok // {B})::BIGINT AS bin_id,
       (start_tok % {B})::BIGINT AS bin_off
FROM s
"""
        ).df()
    )
    pd.testing.assert_frame_equal(got, want)


def test_pack_conversations_partition_invariance(ray_session, conv_corpus, monkeypatch):
    """Same assignment regardless of the chain's partition count (the
    sampled range boundaries change, the global order does not)."""
    from web_search_engine_ray.pipelines.transcripts_ops import (
        pack_conversations_ds,
    )
    from web_search_engine_ray.stages import exchange

    got = []
    for n in (4, 64):
        monkeypatch.setattr(exchange, "chain_parts", lambda refs, n=n: n)
        got.append(_canon(pack_conversations_ds(conv_corpus, bin_tokens=512).to_pandas()))
    pd.testing.assert_frame_equal(*got)


def test_conversation_jaccard_dups_vs_naive(ray_session, neardup_corpus):
    """The fully-distributed verified near-dup relation must equal the
    naive all-pairs answer (banding miss probability for tau>=0.5 pairs is
    negligible at b=32/r=2, so LSH candidates + exact verify == all-pairs)."""
    import numpy as np
    import pyarrow as pa

    from web_search_engine_ray.functions.tokenize import token_lists
    from web_search_engine_ray.pipelines.dedup import _shingle_hashes
    from web_search_engine_ray.pipelines.transcripts_ops import (
        conversation_jaccard_dups_ds,
        conversation_text_ds,
    )

    d, _ = neardup_corpus
    for tau in (0.8, 0.5):
        got = sorted(
            (a, b, j)
            for t in conversation_jaccard_dups_ds(d, tau=tau).iter_batches(
                batch_format="pyarrow"
            )
            for a, b, j in zip(
                t["conv_a"].to_pylist(),
                t["conv_b"].to_pylist(),
                t["jaccard"].to_pylist(),
            )
        )
        texts = conversation_text_ds(d).to_pandas().set_index("conv_id")["conv_text"]
        ids = sorted(texts.index)
        sh = {
            c: _shingle_hashes(token_lists(pa.array([texts[c]])).to_list()[0] or [])
            for c in ids
        }
        exp = []
        for i in range(len(ids)):
            for k in range(i + 1, len(ids)):
                sa, sb = sh[ids[i]], sh[ids[k]]
                inter = np.intersect1d(sa, sb).size
                den = sa.size + sb.size - inter
                if den and inter / den >= tau:
                    exp.append((ids[i], ids[k], round(inter / den, 6)))
        assert got == sorted(exp), f"tau={tau}"
        assert len(got) >= 7  # 5 planted near-dups + 2 exact clones


def test_role_filtered_search_vs_oracle(ray_session, conv_corpus):
    """Fielded BM25: engine's role-filtered top-k must equal the reference
    oracle's full ranking post-filtered by role (same corpus-global stats)."""
    import pyarrow.parquet as pq

    from web_search_engine_ray.oracle import OracleIndex
    from web_search_engine_ray.pipelines.transcripts_ops import (
        FIXED_TRANSCRIPT_QUERIES,
        role_filtered_search_table,
    )
    from web_search_engine_ray.sources.transcripts import corpus_files

    rows = []
    for f in corpus_files(conv_corpus):
        rows.extend(pq.read_table(f, columns=["text", "role"]).to_pylist())
    docs = [(i, r["text"] or "") for i, r in enumerate(rows)]
    roles = [r["role"] for r in rows]
    oi = OracleIndex.build(docs)

    for role in ("assistant", "user"):
        got = role_filtered_search_table(conv_corpus, role=role, topk=10).to_pandas()
        for qi, q in enumerate(FIXED_TRANSCRIPT_QUERIES):
            want = [
                (d, s) for d, s in oi.search(q, mode="OR") if roles[d] == role
            ][:10]
            g = got[got["query_id"] == qi].sort_values("rank")
            assert list(g["docid"]) == [d for d, _ in want], (role, q)
            for s_got, (_, s_want) in zip(g["score"], want):
                assert abs(s_got - s_want) < 1e-8, (role, q)


def test_role_filtered_probe_cap(ray_session, conv_corpus):
    import pytest

    from web_search_engine_ray.pipelines.transcripts_ops import (
        role_filtered_search_table,
    )

    with pytest.raises(RuntimeError, match="probe_cap"):
        role_filtered_search_table(
            conv_corpus, role="nosuchrole", queries=["the"], probe_cap=50
        )


def test_minhash_repeated_texts_match_naive_reference():
    """The shared band stage signs a block's repeated conversation texts
    through one distinct-shingle pass (``dedup._text_signatures``); every
    row, repeated or not, equals the per-text minhash definition: per
    permutation, the min of ``splitmix(s ^ seed)`` over the text's
    distinct shingles."""
    import numpy as np
    import pyarrow as pa

    from web_search_engine_ray.functions.tokenize import token_lists
    from web_search_engine_ray.pipelines.dedup import (
        MINHASH_PERMS,
        _shingle_hashes,
        _splitmix,
        _text_signatures,
    )

    texts = [
        "user: hello world alpha beta gamma delta",
        "assistant: the quick brown fox jumps over dogs",
        "user: hello world alpha beta gamma delta",  # exact repeat
        "user: hello world alpha beta gamma delta",
        "assistant: something else entirely here now too",
        "assistant: the quick brown fox jumps over dogs",
    ]
    seeds = _splitmix(np.arange(1, MINHASH_PERMS + 1, dtype=np.uint64))
    want = np.stack([
        np.min(_splitmix(_shingle_hashes(t)[:, None] ^ seeds[None, :]), axis=0)
        for t in token_lists(pa.array(texts)).to_list()
    ])
    got = _text_signatures(pa.chunked_array([pa.array(texts, pa.string())]))
    assert np.array_equal(got, want)
    assert np.array_equal(got[0], got[2]) and np.array_equal(got[1], got[5])


JACCARD_AT_CPUS = r"""
import json, os, sys
corpus, ncpu = sys.argv[1], int(sys.argv[2])
os.environ.setdefault("POLARS_MAX_THREADS", "1")
import ray
ray.init(address="local", num_cpus=ncpu, include_dashboard=False)
sys.path.insert(0, os.getcwd())
from web_search_engine_ray.pipelines.transcripts_ops import conversation_jaccard_dups_ds
from web_search_engine_ray.stages.exchange import chain_parts, read_refs
ds = conversation_jaccard_dups_ds(corpus, tau=0.5)
rows = sorted(
    [a, b, j] for t in ds.iter_batches(batch_format="pyarrow")
    for a, b, j in zip(t["conv_a"].to_pylist(), t["conv_b"].to_pylist(), t["jaccard"].to_pylist())
)
print(json.dumps({"parts": chain_parts(read_refs(corpus)), "rows": rows}))
ray.shutdown()
"""


def test_conversation_jaccard_same_pairs_at_any_cpu_count(neardup_corpus):
    """The verified near-dup chain is sized by ``chain_parts`` (2 x CPUs on
    a small input), so a 1-CPU and a 4-CPU node route its shingles and
    pairs through different partitions; the ``(conv_a, conv_b, jaccard)``
    set must not change. Fresh processes, one Ray node each."""
    import json
    import os
    import shutil
    import subprocess
    import sys
    import tempfile

    d, _ = neardup_corpus

    def run(ncpu):
        env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}
        # own Ray root, as in test_parallelism_invariance: the child must
        # not flip the live session's session_latest link
        env["RAY_TMPDIR"] = tempfile.mkdtemp(prefix="ray_sub_")
        try:
            proc = subprocess.run(
                [sys.executable, "-c", JACCARD_AT_CPUS, d, str(ncpu)],
                capture_output=True,
                text=True,
                cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                env=env,
                timeout=300,
            )
        finally:
            shutil.rmtree(env["RAY_TMPDIR"], ignore_errors=True)
        assert proc.returncode == 0, proc.stderr[-2000:]
        return json.loads(proc.stdout.strip().splitlines()[-1])

    one, four = run(1), run(4)
    assert (one["parts"], four["parts"]) == (2, 8)
    assert len(one["rows"]) >= 7  # 5 planted near-dups + 2 exact clones
    assert one["rows"] == four["rows"]
