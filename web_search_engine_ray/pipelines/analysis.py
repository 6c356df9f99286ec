"""Text-analysis operators over the ``documents`` table: per-doc statistics,
quality signals, fingerprints, and a language-ID heuristic.

Training-data-pipeline extensions (beyond the reference's operator set). Each
stage is a vectorized ``map_batches`` transform (polars list expressions over
the tokenized column — no per-row Python in the hot path); ``text_stats_ds``,
``quality_ds``, ``lm_score_ds``, ``langid_ds`` and ``rolling_fingerprint_ds``
all have exact DuckDB-SQL twins in ``__ray_entry__``.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import polars as pl
import pyarrow as pa
import pyarrow.compute as pc

from web_search_engine_ray.functions.tokenize import token_lists
from web_search_engine_ray.sources.documents import read_docs as _read_docs
from web_search_engine_ray.sources.documents import read_docs_refs
from web_search_engine_ray.stages.exchange import (
    aggregate,
    chain_parts,
    exchange_map,
    hash_route,
    map_refs,
    read_refs,
    to_dataset,
)

STOPWORDS = ("the", "a", "and", "of", "to", "in", "is")

LANG_STOPWORDS = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "that"},
    "es": {"el", "la", "de", "que", "y", "en", "un", "es"},
    "de": {"der", "die", "und", "das", "ist", "nicht", "ein", "zu"},
    "fr": {"le", "la", "de", "et", "un", "est", "que", "pour"},
}


def _stop_hits(toks: pl.Series, words) -> np.ndarray:
    """Per-row count of tokens in ``words`` (vectorized list expression)."""
    return (
        toks.list.eval(pl.element().is_in(list(words)))
        .list.sum()
        .fill_null(0)
        .to_numpy()
        .astype(np.int64)
    )


def text_stats_ds(sf_dir: str):
    """(docid, n_tokens, n_uniq, n_chars, stop_ratio, mean_token_len,
    fingerprint): token counting, quality ratios, and a normalized-content
    fingerprint (md5 of the space-joined token stream). All counts/ratios are
    polars list expressions; only the md5 runs per row (C-speed hashing)."""

    def f(batch: pa.Table) -> pa.Table:
        toks = token_lists(batch["text"])
        n_tok = toks.list.len().fill_null(0).to_numpy().astype(np.int64)
        n_uniq = toks.list.n_unique().fill_null(0).to_numpy().astype(np.int64)
        n_chars = (
            pl.from_arrow(batch["text"])
            .fill_null("")
            .str.len_chars()
            .to_numpy()
            .astype(np.int64)
        )
        stops = _stop_hits(toks, STOPWORDS)
        char_sum = (
            toks.list.eval(pl.element().str.len_chars())
            .list.sum()
            .fill_null(0)
            .to_numpy()
            .astype(np.int64)
        )
        safe_n = np.maximum(n_tok, 1)
        stop_r = np.where(n_tok > 0, stops / safe_n, 0.0)
        mean_len = np.where(n_tok > 0, char_sum / safe_n, 0.0)
        joined = toks.list.join(" ").fill_null("").to_list()
        fps = [hashlib.md5(s.encode("utf-8")).hexdigest() for s in joined]
        return pa.table(
            {
                "docid": batch["doc_id"].cast(pa.int64()),
                "n_tokens": pa.array(n_tok, pa.int64()),
                "n_uniq": pa.array(n_uniq, pa.int64()),
                "n_chars": pa.array(n_chars, pa.int64()),
                # scalar round() per value: Python round is correctly-rounded
                # decimal (matches DuckDB ROUND); np.round's scale-rint can
                # differ in the last ulp
                "stop_ratio": pa.array([round(x, 6) for x in stop_r], pa.float64()),
                "mean_token_len": pa.array([round(x, 6) for x in mean_len], pa.float64()),
                "fingerprint": pa.array(fps, pa.string()),
            }
        )

    return _read_docs(sf_dir).map_batches(f, batch_format="pyarrow")


def quality_ds(sf_dir: str, min_tokens: int = 5, max_stop_ratio: float = 0.6):
    """(docid, quality_ok): simple keep/drop quality gate — length bounds +
    stopword-ratio cap (the usual first-pass corpus filter shape)."""

    def f(batch: pa.Table) -> pa.Table:
        toks = token_lists(batch["text"])
        n = toks.list.len().fill_null(0).to_numpy().astype(np.int64)
        stops = _stop_hits(toks, STOPWORDS)
        sr = np.where(n > 0, stops / np.maximum(n, 1), 1.0)
        ok = (n >= min_tokens) & (sr <= max_stop_ratio)
        return pa.table(
            {
                "docid": batch["doc_id"].cast(pa.int64()),
                "quality_ok": pa.array(ok, pa.bool_()),
            }
        )

    return _read_docs(sf_dir).map_batches(f, batch_format="pyarrow")


def langid_batch(batch: pa.Table) -> pa.Table:
    """(docid, lang_pred): stopword-hit voting per language. Votes are
    vectorized (one ``is_in`` list expression per language, argmax across
    the 4-row hit matrix; ties keep the alphabetically-first language, zero
    hits -> "unknown")."""
    langs = sorted(LANG_STOPWORDS)
    toks = token_lists(batch["text"])
    hits = np.stack([_stop_hits(toks, sorted(LANG_STOPWORDS[k])) for k in langs])  # (4, n)
    best = hits.argmax(axis=0)  # first max wins = sorted-order tie rule
    names = np.array(langs + ["unknown"])
    best = np.where(hits.max(axis=0) > 0, best, len(langs))
    return pa.table(
        {
            "docid": batch["doc_id"].cast(pa.int64()),
            "lang_pred": pa.array(names[best], pa.string()),
        }
    )


def langid_ds(sf_dir: str):
    return _read_docs(sf_dir).map_batches(langid_batch, batch_format="pyarrow")


def _bigram_partials(batch: pa.Table) -> pa.Table:
    """Per-batch partial counts for the bigram LM, one vectorized polars
    pass. Emits two row kinds: kind=1 bigram counts (w1, w2, c) and kind=0
    batch-distinct unigram markers (w1=term, w2="", c=0) — the downstream
    ``groupby(kind, w1, w2).sum(c)`` merges partials AND dedupes markers, so
    V = count of kind=0 groups."""
    toks = token_lists(batch["text"])
    df = pl.DataFrame({"w": toks})
    big = (
        df.filter(pl.col("w").list.len() >= 2)
        .select(
            w1=pl.col("w").list.slice(0, pl.col("w").list.len() - 1),
            w2=pl.col("w").list.slice(1),
        )
        .explode(["w1", "w2"])
        .group_by(["w1", "w2"])
        .len(name="c")
    )
    uni = df.select(w1=pl.col("w")).explode("w1").drop_nulls().unique()
    return pa.table(
        {
            "kind": pa.array(
                np.concatenate(
                    [np.ones(big.height, np.int8), np.zeros(uni.height, np.int8)]
                ),
                pa.int8(),
            ),
            "w1": pa.chunked_array(
                [big["w1"].to_arrow().cast(pa.string()),
                 uni["w1"].to_arrow().cast(pa.string())], pa.string()
            ).combine_chunks(),
            "w2": pa.chunked_array(
                [big["w2"].to_arrow().cast(pa.string()),
                 pa.array([""] * uni.height, pa.string())], pa.string()
            ).combine_chunks(),
            "c": pa.array(
                np.concatenate(
                    [
                        big["c"].to_numpy().astype(np.int64),
                        np.zeros(uni.height, np.int64),
                    ]
                ),
                pa.int64(),
            ),
        }
    )


def lm_score_ds(sf_dir: str):
    """(docid, lm_score): corpus-self bigram language-model quality score —
    the classic LM-based training-data filter shape.

    Model: bigram counts over the whole corpus (pairs within a doc, no BOS);
    per-doc score = mean over its bigrams of
    ``ln((C(w1,w2) + 1) / (C(w1·) + V))`` (add-1 smoothing, V = distinct
    unigram count, C(w1·) = bigram-prefix count). Docs with < 2 tokens score
    0.0.

    Scale shape: pass 1 runs as Ray stages — per-batch vectorized partial
    counts (:func:`_bigram_partials`) merged by ``groupby(kind, w1, w2)``;
    the driver only collects the finished (vocab-sized, corpus-independent)
    model and broadcasts it once (``ray.put``). Pass 2 streams. The SQL
    oracle computes the identical quantity."""
    import ray

    def _merge(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .group_by(["kind", "w1", "w2"])
            .agg(pl.col("c").sum())
            .to_arrow()
        )

    merged = aggregate(read_docs_refs(sf_dir), _bigram_partials, "w1", _merge)
    # collect the finished model COLUMNAR (arrow concat — no Python loop over
    # millions of bigram rows) and derive prefix counts / V in polars
    model = pl.from_arrow(pa.concat_tables(ray.get(merged)))
    V = float(model.filter(pl.col("kind") == 0).height)
    bi_df = (
        model.filter(pl.col("kind") == 1)
        .select("w1", "w2", c2=pl.col("c").cast(pl.Float64))
    )
    pre_df = bi_df.group_by("w1").agg(c1=pl.col("c2").sum())
    model_ref = ray.put((bi_df.to_arrow(), pre_df.to_arrow(), V))

    # pass 2: streaming vectorized score — explode bigrams, join the model,
    # ln + per-doc mean, all in polars
    def score(batch: pa.Table) -> pa.Table:
        bi_t, pre_t, v = ray.get(model_ref)
        bi = pl.from_arrow(bi_t)
        pre = pl.from_arrow(pre_t)
        toks = token_lists(batch["text"])
        n_rows = batch.num_rows
        df = pl.DataFrame(
            {"rid": pl.Series(np.arange(n_rows, dtype=np.int64)), "w": toks}
        ).filter(pl.col("w").list.len() >= 2)
        out = np.zeros(n_rows, dtype=np.float64)
        if df.height:
            pairs = df.select(
                "rid",
                w1=pl.col("w").list.slice(0, pl.col("w").list.len() - 1),
                w2=pl.col("w").list.slice(1),
            ).explode(["w1", "w2"])
            # model lookups via the batch's DISTINCT bigrams/prefixes: the
            # inner join builds its hash on the small distinct side and
            # streams the model through it — joining the model directly
            # would rebuild a vocab^2-scale hash table EVERY batch (the
            # measured 3x cost on the 2M-doc stress)
            dp = pairs.select("w1", "w2").unique()
            mbi = bi.join(dp, on=["w1", "w2"], how="inner")
            mpre = pre.join(dp.select("w1").unique(), on="w1", how="inner")
            pairs = (
                pairs.join(mbi, on=["w1", "w2"], how="left")
                .join(mpre, on="w1", how="left")
                .with_columns(
                    s=(
                        (pl.col("c2").fill_null(0.0) + 1.0)
                        / (pl.col("c1").fill_null(0.0) + v)
                    ).log()
                )
            )
            g = pairs.group_by("rid").agg(pl.col("s").mean())
            out[g["rid"].to_numpy()] = g["s"].to_numpy()
        return pa.table(
            {
                "docid": batch["doc_id"].cast(pa.int64()),
                # scalar round: correctly-rounded decimal, matches the
                # DuckDB ROUND the oracle applies
                "lm_score": pa.array([round(x, 6) for x in out], pa.float64()),
            }
        )

    # large batches amortize the per-batch hash-join build against the
    # (vocab^2-scale) model table — with small batches the join build, not
    # the scoring, dominates
    return _read_docs(sf_dir).map_batches(
        score, batch_format="pyarrow", batch_size=65536
    )


def rolling_fingerprint_ds(sf_dir: str, window: int = 8):
    """(docid, window_idx, whash): rolling window hashes over the token
    stream — document fingerprinting for containment/overlap detection.
    whash = md5 hex of the space-joined window (md5 so DuckDB can compute
    the identical value — the oracle twin lives in ``__ray_entry__``).
    ``window`` must be >= 2 (the hop is ``window // 2``)."""
    if window < 2:
        raise ValueError(f"window must be >= 2, got {window}")

    def f(batch: pa.Table) -> pa.Table:
        toks = token_lists(batch["text"]).to_list()
        ids = batch["doc_id"].to_pylist()
        d_l, w_l, h_l = [], [], []
        for did, tl in zip(ids, toks):
            tl = tl or []
            for i in range(0, max(len(tl) - window + 1, 0), window // 2):
                chunk = " ".join(tl[i : i + window])
                d_l.append(did)
                w_l.append(i)
                h_l.append(hashlib.md5(chunk.encode()).hexdigest())
        return pa.table(
            {
                "docid": pa.array(d_l, pa.int64()),
                "window_idx": pa.array(w_l, pa.int64()),
                "whash": pa.array(h_l, pa.string()),
            }
        )

    return _read_docs(sf_dir).map_batches(f, batch_format="pyarrow")


def repetition_stats_ds(sf_dir: str):
    """(docid, n_tokens, dup_word_ratio, top_word_frac, dup_2gram_frac):
    Gopher-style repetition signals (Rae et al. 2021, §A1.1) — the standard
    "is this document degenerate boilerplate?" filters for LLM corpus
    curation:

    - ``dup_word_ratio``  = 1 - distinct_tokens / tokens
    - ``top_word_frac``   = count(most frequent token) / tokens
    - ``dup_2gram_frac``  = 1 - distinct_bigrams / bigrams

    All three are vectorized polars expressions per batch (unique_counts for
    the mode count; a shift-explode-group pass for bigram distinct counts —
    no per-row Python). Ratios follow the same Python-round(6) convention as
    ``text_stats_ds`` so the DuckDB twin matches bit-for-bit."""

    def f(batch: pa.Table) -> pa.Table:
        toks = token_lists(batch["text"])
        n = toks.list.len().fill_null(0).to_numpy().astype(np.int64)
        nu = toks.list.n_unique().fill_null(0).to_numpy().astype(np.int64)
        mc = (
            toks.list.eval(pl.element().unique_counts())
            .list.max()
            .fill_null(0)
            .to_numpy()
            .astype(np.int64)
        )
        # distinct-bigram count: pair each token with its successor via a
        # within-list shift, explode both lists together, group by row
        idx = np.arange(n.size, dtype=np.int64)
        exploded = (
            pl.DataFrame({"i": idx, "a": toks, "b": toks.list.shift(-1)})
            .explode(["a", "b"])
            .drop_nulls("b")
        )
        g = (
            exploded.with_columns((pl.col("a") + " " + pl.col("b")).alias("bg"))
            .group_by("i")
            .agg(pl.col("bg").n_unique().alias("d2"))
        )
        d2 = np.zeros(n.size, dtype=np.int64)
        d2[g["i"].to_numpy()] = g["d2"].to_numpy()
        n2 = np.maximum(n - 1, 0)
        safe_n = np.maximum(n, 1)
        safe_n2 = np.maximum(n2, 1)
        dup_w = np.where(n > 0, (n - nu) / safe_n, 0.0)
        top_w = np.where(n > 0, mc / safe_n, 0.0)
        dup_2 = np.where(n2 > 0, (n2 - d2) / safe_n2, 0.0)
        return pa.table(
            {
                "docid": batch["doc_id"].cast(pa.int64()),
                "n_tokens": pa.array(n, pa.int64()),
                "dup_word_ratio": pa.array([round(x, 6) for x in dup_w], pa.float64()),
                "top_word_frac": pa.array([round(x, 6) for x in top_w], pa.float64()),
                "dup_2gram_frac": pa.array([round(x, 6) for x in dup_2], pa.float64()),
            }
        )

    return _read_docs(sf_dir).map_batches(f, batch_format="pyarrow")


# ------------------------------------------------------------ collocations


def collocations_ds(sf_dir: str, min_count: int = 5, k: int = 50):
    """(w1, w2, c_ab, pmi): top-k bigram collocations by pointwise mutual
    information — the classic phrase-mining signal for vocabulary /
    multiword-expression discovery over a training corpus.

    pmi = ln(c_ab * Nu^2 / (Nb * c_a * c_b)) with Nu = total tokens,
    Nb = total bigram slots, c_a/c_b unigram occurrence counts; only
    bigrams with c_ab >= min_count rank. Rounded to 6 decimals BEFORE the
    (pmi desc, w1, w2) top-k cut so engine and SQL tie-break identically.

    Scale shape: one corpus pass of per-batch polars count partials; a hash
    exchange on w1 merges counts AND attaches c_a locally (bigram and
    unigram rows for the same w1 land in the same partition by
    construction); a second exchange keyed on w2 attaches c_b. Nu/Nb are
    two scalar sums off the first exchange's (vocab-scale) output; the
    min_count prune happens before anything re-shuffles. Final top-k: each
    partition cuts its own, the driver cuts their union."""
    import ray
    import ray.data

    refs = read_docs_refs(sf_dir)
    np_ = chain_parts(refs)

    def partial(batch: pa.Table) -> pa.Table:
        toks = token_lists(batch["text"])
        df = pl.DataFrame({"w": toks})
        big = (
            df.filter(pl.col("w").list.len() >= 2)
            .select(
                w1=pl.col("w").list.slice(0, pl.col("w").list.len() - 1),
                w2=pl.col("w").list.slice(1),
            )
            .explode(["w1", "w2"])
            .group_by(["w1", "w2"])
            .len(name="c")
        )
        uni = (
            df.select(w1=pl.col("w"))
            .explode("w1")
            .drop_nulls()
            .group_by("w1")
            .len(name="c")
        )
        return pa.table(
            {
                "kind": pa.array(
                    np.concatenate(
                        [np.ones(big.height, np.int8), np.zeros(uni.height, np.int8)]
                    ),
                    pa.int8(),
                ),
                "w1": pa.chunked_array(
                    [
                        big["w1"].to_arrow().cast(pa.string()),
                        uni["w1"].to_arrow().cast(pa.string()),
                    ],
                    pa.string(),
                ).combine_chunks(),
                "w2": pa.chunked_array(
                    [
                        big["w2"].to_arrow().cast(pa.string()),
                        pa.array([""] * uni.height, pa.string()),
                    ],
                    pa.string(),
                ).combine_chunks(),
                "c": pa.array(
                    np.concatenate(
                        [
                            big["c"].to_numpy().astype(np.int64),
                            uni["c"].to_numpy().astype(np.int64),
                        ]
                    ),
                    pa.int64(),
                ),
            }
        )

    route1 = hash_route("w1", np_)

    def merge_attach_ca(t: pa.Table) -> pa.Table:
        g = (
            pl.from_arrow(t)
            .group_by(["kind", "w1", "w2"])
            .agg(pl.col("c").sum())
        )
        uni = g.filter(pl.col("kind") == 0).select("w1", "c")
        big = g.filter(pl.col("kind") == 1)
        nb_part = int(big["c"].sum() or 0)  # BEFORE the min_count prune
        big = big.filter(pl.col("c") >= min_count).join(
            uni.rename({"c": "c_a"}), on="w1", how="inner"
        )
        out = pl.concat(
            [
                uni.select(
                    kind=pl.lit(0, pl.Int8),
                    w1="w1",
                    w2=pl.lit("", pl.String),
                    c="c",
                    c_a=pl.lit(0, pl.Int64),
                ),
                big.select(
                    kind=pl.lit(1, pl.Int8), w1="w1", w2="w2", c="c", c_a="c_a"
                ),
                pl.DataFrame(
                    {
                        "kind": pl.Series([2], dtype=pl.Int8),
                        "w1": [""],
                        "w2": [""],
                        "c": pl.Series([nb_part], dtype=pl.Int64),
                        "c_a": pl.Series([0], dtype=pl.Int64),
                    }
                ),
            ]
        )
        return out.to_arrow().cast(
            pa.schema(
                [
                    ("kind", pa.int8()),
                    ("w1", pa.string()),
                    ("w2", pa.string()),
                    ("c", pa.int64()),
                    ("c_a", pa.int64()),
                ]
            )
        )

    ex1 = exchange_map(map_refs(partial, refs), route1, np_, merge_attach_ca)
    parts = [p for p in ray.get(ex1) if p.num_rows]
    # two scalar sums off the vocab-scale exchange output (columnar, no rows
    # to the driver beyond what the exchange already materialized)
    nu = float(
        sum(
            pl.from_arrow(p).filter(pl.col("kind") == 0)["c"].sum() or 0
            for p in parts
        )
    )
    nb = float(
        sum(
            pl.from_arrow(p).filter(pl.col("kind") == 2)["c"].sum() or 0
            for p in parts
        )
    )

    def route2(t: pa.Table) -> np.ndarray:
        key = pl.from_arrow(t).select(
            k=pl.when(pl.col("kind") == 1).then(pl.col("w2")).otherwise(pl.col("w1"))
        )["k"]
        return (key.hash(seed=7).to_numpy() % np.uint64(np_)).astype(np.int64)

    def attach_cb_and_score(t: pa.Table) -> pa.Table:
        g = pl.from_arrow(t)
        uni = g.filter(pl.col("kind") == 0).select("w1", c_b=pl.col("c"))
        big = g.filter(pl.col("kind") == 1).join(
            uni, left_on="w2", right_on="w1", how="inner"
        )
        if big.height == 0:
            return pa.table(
                {
                    "w1": pa.array([], pa.string()),
                    "w2": pa.array([], pa.string()),
                    "c_ab": pa.array([], pa.int64()),
                    "pmi": pa.array([], pa.float64()),
                }
            )
        cab = big["c"].to_numpy().astype(np.float64)
        ca = big["c_a"].to_numpy().astype(np.float64)
        cb = big["c_b"].to_numpy().astype(np.float64)
        pmi = np.round(np.log((cab * nu * nu) / (nb * ca * cb)), 6)
        return top(
            pa.table(
                {
                    "w1": big["w1"].to_arrow().cast(pa.string()),
                    "w2": big["w2"].to_arrow().cast(pa.string()),
                    "c_ab": pa.array(big["c"].to_numpy().astype(np.int64), pa.int64()),
                    "pmi": pa.array(pmi, pa.float64()),
                }
            )
        )

    def top(t: pa.Table) -> pa.Table:
        """The first ``k`` rows by (pmi desc, w1, w2)."""
        keys = [("pmi", "descending"), ("w1", "ascending"), ("w2", "ascending")]
        return t.take(pc.sort_indices(t, sort_keys=keys)[:k])

    ex2 = exchange_map(ex1, route2, np_, attach_cb_and_score)
    return ray.data.from_arrow(top(pa.concat_tables(ray.get(ex2))))


def distinctive_terms_ds(sf_dir: str, k: int = 10):
    """(source, term, chi2, rank): top-k DISTINCTIVE terms per document
    source by the chi-square statistic over the (term-in-doc x doc-in-source)
    2x2 contingency table — "what does this source talk about that the
    others don't" (vs :func:`~.corpus.top_terms_per_source_ds`'s raw
    frequency, which surfaces the same stopwords for every source):

        chi2 = (N * (a*d - b*c)^2) / ((a+b)(c+d)(a+c)(b+d))
        a = docs of source containing term        b = other docs containing it
        c = source docs without it                d = other docs without it

    Shape: per-batch distinct-(doc, term) explode -> (source, term) partial
    doc counts -> ONE hash exchange on source (all of a source's rows
    co-locate) with the vocabulary-scale term-df relation BROADCAST and the
    tiny per-source doc counts computed driver-side; chi2 and the top-k cut
    are vectorized inside the partition, so the driver sees k x n_sources
    rows. All contingency cells are exact integers; both sides evaluate the
    float expression as (N * sq) / denom in double, ROUND(6). Degenerate
    columns (a+b == N or a+b == 0) cannot arise (a term present in every
    doc has d=c=0 -> denom (c+d)=0): guarded to chi2=0 on both sides via
    the twin's identical CASE."""
    import ray

    from web_search_engine_ray.functions.tokenize import token_lists
    from web_search_engine_ray.pipelines.corpus import _docs_path, term_stats_refs

    # vocabulary-scale df relation: computed distributed, broadcast once
    stats = pa.concat_tables(ray.get(term_stats_refs(sf_dir)))
    df_ref = ray.put(stats.select(["term", "df"]))
    # per-source doc counts + N: dimension-sized, one tiny scan
    import pyarrow.parquet as pq_

    src_t = pq_.read_table(_docs_path(sf_dir), columns=["source"])
    src_counts = (
        pl.from_arrow(src_t).group_by("source").len(name="n_s").sort("source")
    )
    n_docs = src_t.num_rows
    ns_ref = ray.put(src_counts.to_arrow())

    def partial(batch: pa.Table) -> pa.Table:
        toks = token_lists(batch["text"])
        d = (
            pl.DataFrame(
                {
                    "source": pl.from_arrow(batch["source"].combine_chunks()),
                    "term": toks,
                }
            )
            .with_row_index("doc")
            .explode("term")
            .drop_nulls("term")
            .unique(["doc", "source", "term"])
            .group_by(["source", "term"])
            .len(name="a_p")
        )
        return d.select("source", "term", "a_p").to_arrow()

    def merge(t: pa.Table) -> pa.Table:
        d = (
            pl.from_arrow(t)
            .group_by(["source", "term"])
            .agg(pl.col("a_p").sum().alias("a"))
            .join(pl.from_arrow(ray.get(df_ref)), on="term", how="inner")
            .join(pl.from_arrow(ray.get(ns_ref)), on="source", how="inner")
        )
        a = d["a"].to_numpy().astype(np.float64)
        dfv = d["df"].to_numpy().astype(np.float64)
        ns = d["n_s"].to_numpy().astype(np.float64)
        n = float(n_docs)
        b = dfv - a
        c = ns - a
        dd = n - ns - b
        sq = (a * dd - b * c) * (a * dd - b * c)
        denom = (a + b) * (c + dd) * (a + c) * (b + dd)
        chi2 = np.where(denom > 0, (n * sq) / np.where(denom > 0, denom, 1.0), 0.0)
        out = (
            d.with_columns(pl.Series("chi2", np.round(chi2, 6)))
            .sort(["source", "chi2", "term"], descending=[False, True, False])
            .group_by("source", maintain_order=True)
            .head(k)
            .with_columns(
                pl.col("chi2").cum_count().over("source").cast(pl.Int64).alias("rank")
            )
        )
        return out.select("source", "term", "chi2", "rank").to_arrow().cast(
            pa.schema(
                [
                    ("source", pa.string()),
                    ("term", pa.string()),
                    ("chi2", pa.float64()),
                    ("rank", pa.int64()),
                ]
            )
        )

    refs = aggregate(read_refs(_docs_path(sf_dir), ["source", "text"]), partial, "source", merge)
    return to_dataset("distinctive_terms_ds", refs)


def langid_confusion_ds(sf_dir: str):
    """(lang, lang_pred, n): the language-ID heuristic's confusion matrix
    against the table's ground-truth ``lang`` column — the eval every
    classifier stage ships with. Per-block (lang, lang_pred) counts of the
    langid votes, one tiny hash exchange on lang."""

    def partial(batch: pa.Table) -> pa.Table:
        d = (
            pl.DataFrame(
                {
                    "lang": pl.from_arrow(batch["lang"].combine_chunks()),
                    "lang_pred": pl.from_arrow(langid_batch(batch)["lang_pred"]),
                }
            )
            .group_by(["lang", "lang_pred"])
            .len(name="n_p")
        )
        return d.to_arrow().cast(
            pa.schema(
                [("lang", pa.string()), ("lang_pred", pa.string()), ("n_p", pa.uint32())]
            )
        )

    def merge(t: pa.Table) -> pa.Table:
        g = (
            pl.from_arrow(t)
            .group_by(["lang", "lang_pred"])
            .agg(pl.col("n_p").cast(pl.Int64).sum().alias("n"))
        )
        return g.to_arrow().cast(
            pa.schema(
                [("lang", pa.string()), ("lang_pred", pa.string()), ("n", pa.int64())]
            )
        )

    refs = read_refs(os.path.join(sf_dir, "documents.parquet"), ["doc_id", "lang", "text"])
    return to_dataset("langid_confusion_ds", aggregate(refs, partial, "lang", merge))


BURSTINESS_MIN_DF = 20
BURSTINESS_K = 30


def term_burstiness_ds(sf_dir: str, min_df: int = BURSTINESS_MIN_DF, k: int = BURSTINESS_K):
    """(term, df, mean_tf, burstiness): Church & Gale burstiness — the
    variance-to-mean ratio of a term's tf across the documents CONTAINING
    it (a content word concentrates, a function word spreads evenly; the
    statistic that separates them when raw frequency can't). Top-k by
    (burstiness desc, term) over terms with df >= min_df. Per-batch
    (term, tf, tf²) partials, one term exchange; mean/variance from EXACT
    integer sums, so both sides evaluate identical float expressions."""
    from web_search_engine_ray.pipelines.corpus import _to_postings
    def partial(batch: pa.Table) -> pa.Table:
        p = pl.from_arrow(_to_postings(batch))
        g = p.group_by("term").agg(
            df_p=pl.len().cast(pl.Int64),
            s1=pl.col("tf").cast(pl.Int64).sum(),
            s2=(pl.col("tf").cast(pl.Int64) * pl.col("tf").cast(pl.Int64)).sum(),
        )
        return g.to_arrow()

    def merge(t: pa.Table) -> pa.Table:
        g = (
            pl.from_arrow(t)
            .group_by("term")
            .agg(pl.col("df_p").sum().alias("df"), pl.col("s1").sum(), pl.col("s2").sum())
            .filter(pl.col("df") >= min_df)
        )
        df_ = g["df"].to_numpy().astype(np.float64)
        s1 = g["s1"].to_numpy().astype(np.float64)
        s2 = g["s2"].to_numpy().astype(np.float64)
        mean = s1 / df_
        var = (s2 - s1 * s1 / df_) / df_
        burst = np.round(np.where(mean > 0, var / mean, 0.0), 6)
        out = (
            g.with_columns(
                pl.Series("mean_tf", np.round(mean, 6)),
                pl.Series("burstiness", burst),
            )
            .sort(["burstiness", "term"], descending=[True, False])
            .head(k)
        )
        return out.select("term", "df", "mean_tf", "burstiness").to_arrow().cast(
            pa.schema(
                [
                    ("term", pa.string()),
                    ("df", pa.int64()),
                    ("mean_tf", pa.float64()),
                    ("burstiness", pa.float64()),
                ]
            )
        )

    parts = aggregate(read_docs_refs(sf_dir), partial, "term", merge)

    # per-partition head(k) is a SUPERSET of the global top-k (each term
    # lives in exactly one partition); one tiny final cut
    def final_cut(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .sort(["burstiness", "term"], descending=[True, False])
            .head(k)
            .to_arrow()
            .cast(t.schema)
        )

    out = exchange_map(parts, lambda t: np.zeros(t.num_rows, np.int64), 1, final_cut)
    return to_dataset("term_burstiness_ds", out)


def zipf_slope_table(sf_dir: str, top_n: int = 200) -> pa.Table:
    """One row (n_terms, slope, intercept): least-squares fit of
    ln(cf) ~ ln(rank) over the top-``top_n`` terms by collection frequency
    (rank ties to the lexicographically-first term) — the Zipf exponent,
    the corpus-health one-liner (natural text ~ -1; templated/synthetic
    corpora flatten). cf comes from the distributed term_stats relation;
    the regression runs on exact integer cfs and integer ranks, identical
    float expressions both sides, ROUND(6)."""
    import ray

    from web_search_engine_ray.pipelines.corpus import term_stats_refs

    stats = pa.concat_tables(ray.get(term_stats_refs(sf_dir)))
    d = (
        pl.from_arrow(stats)
        .sort(["cf", "term"], descending=[True, False])
        .head(top_n)
    )
    n = d.height
    if n < 2:
        return pa.table(
            {
                "n_terms": pa.array([n], pa.int64()),
                "slope": pa.array([0.0], pa.float64()),
                "intercept": pa.array([0.0], pa.float64()),
            }
        )
    x = np.log(np.arange(1, n + 1, dtype=np.float64))
    y = np.log(d["cf"].to_numpy().astype(np.float64))
    sx, sy = float(x.sum()), float(y.sum())
    sxx, sxy = float((x * x).sum()), float((x * y).sum())
    nn = float(n)
    slope = (nn * sxy - sx * sy) / (nn * sxx - sx * sx)
    intercept = (sy - slope * sx) / nn
    return pa.table(
        {
            "n_terms": pa.array([n], pa.int64()),
            "slope": pa.array([round(slope, 6)], pa.float64()),
            "intercept": pa.array([round(intercept, 6)], pa.float64()),
        }
    )
