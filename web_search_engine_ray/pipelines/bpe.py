"""Byte-pair-encoding vocabulary training + corpus encoding.

The missing piece between "token counting" and a real LLM data pipeline: a
subword tokenizer trained ON the corpus (Sennrich et al. 2016, "Neural
Machine Translation of Rare Words with Subword Units"). The reference engine
stops at whitespace/regex tokens (``HW2/engine/parser.py``); this module
layers the standard BPE construction on top:

- **Pass 1 (corpus-scale, distributed)**: word frequencies. Reuses the
  engine's partial-agg + hash-exchange term stats
  (:func:`..pipelines.corpus.term_stats_ds`) — the only pass that touches
  every byte of the corpus.
- **Training (vocab-scale, driver)**: the classic greedy merge loop over
  the word-frequency dict with incremental pair-count maintenance. BPE
  training state is the *vocabulary*, not the corpus — a 100 TB corpus
  still has a bounded distinct-word relation, and ``max_words`` caps it
  (top-k by frequency, the standard practice) via a distributed sort+limit,
  so driver memory is O(max_words) regardless of corpus size. This is the
  same corpus-scale-partials / small-driver-solve shape as the k-means and
  PCA ops (``clustering.py``).
- **Encoding (corpus-scale, distributed)**: a plain-task ``map_batches``
  stage; the merge list ships once and each block encodes each of its
  distinct words once (Zipf keeps that far below the token count —
  encoding cost is per *distinct* word, per block).

Determinism: merge selection breaks count ties on the lexicographically
smallest pair, so training is independent of dict iteration order and of
partitioning; encoding is a pure function of the merge list.
"""

from __future__ import annotations

import numpy as np
import polars as pl
import pyarrow as pa

from web_search_engine_ray.functions.tokenize import token_lists
from web_search_engine_ray.pipelines.corpus import term_stats_refs
from web_search_engine_ray.sources.documents import read_docs as _read_docs
from web_search_engine_ray.stages.exchange import map_refs

END = "</w>"  # end-of-word sentinel (distinct from any corpus token char)


def word_frequencies(sf_dir: str, max_words: int = 100_000) -> list[tuple[str, int]]:
    """(word, count) pairs sorted by (count desc, word asc) — the training
    relation. ``max_words`` (REQUIRED bound, defaulted — this function
    returns a driver-side list, so an unbounded pull would collect the full
    vocabulary) keeps only the most frequent words (ties by word) WITHOUT a
    global sort: every word's total count lives whole in one exchange
    partition of the term-stats merge, so the partition-local
    top-``max_words`` cut is a guaranteed superset of the global top-k;
    the driver takes the final cut over <= n_parts x max_words rows."""
    import ray

    if not isinstance(max_words, int) or max_words <= 0:
        raise ValueError(
            f"max_words must be a positive int, got {max_words!r} — this is "
            "a driver-side collection and must stay bounded"
        )

    # one block per exchange partition -> per-block map IS the
    # partition-local cut, and it runs remotely: the driver receives at
    # most n_parts x max_words rows, never the full vocabulary
    def prune(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .sort(["cf", "term"], descending=[True, False])
            .head(max_words)
            .to_arrow()
            .cast(t.schema)
        )

    parts = [p for p in ray.get(map_refs(prune, term_stats_refs(sf_dir))) if p.num_rows]
    if not parts:
        return []
    df = (
        pl.from_arrow(pa.concat_tables(parts))
        .sort(["cf", "term"], descending=[True, False])
        .head(max_words)
    )
    return list(zip(df["term"].to_list(), df["cf"].to_list()))


def train_bpe(
    sf_dir: str, n_merges: int = 200, max_words: int = 100_000
) -> list[tuple[str, str]]:
    """Learn ``n_merges`` BPE merges from the corpus. Returns the ordered
    merge list [(left, right), ...] (rank = position).

    Greedy loop with incremental pair-count maintenance: only words that
    contain the merged pair are re-segmented each round, and only their
    pair counts are adjusted — O(total symbol updates), not
    O(n_merges x vocabulary). Tie-break: highest count, then
    lexicographically smallest (left, right)."""
    freqs = word_frequencies(sf_dir, max_words=max_words)
    return train_bpe_from_frequencies(freqs, n_merges)


def train_bpe_from_frequencies(
    freqs: list[tuple[str, int]], n_merges: int
) -> list[tuple[str, str]]:
    """Driver-side BPE merge loop over a (word, count) relation."""
    words: list[list[str]] = [[*w, END] for w, _ in freqs]
    counts = [c for _, c in freqs]

    pair_counts: dict[tuple[str, str], int] = {}
    pair_words: dict[tuple[str, str], set[int]] = {}

    def add_word(wi: int, sign: int) -> None:
        w, c = words[wi], counts[wi] * sign
        for a, b in zip(w, w[1:]):
            p = (a, b)
            pair_counts[p] = pair_counts.get(p, 0) + c
            if sign > 0:
                pair_words.setdefault(p, set()).add(wi)

    for wi in range(len(words)):
        add_word(wi, +1)

    merges: list[tuple[str, str]] = []
    for _ in range(n_merges):
        best: tuple[str, str] | None = None
        best_c = 0
        for p, c in pair_counts.items():
            if c > best_c or (c == best_c and c > 0 and (best is None or p < best)):
                best, best_c = p, c
        if best is None or best_c <= 0:
            break
        merges.append(best)
        a, b = best
        ab = a + b
        for wi in sorted(pair_words.get(best, ())):
            w = words[wi]
            if len(w) < 2:
                continue
            add_word(wi, -1)  # retract old pair counts for this word
            nw: list[str] = []
            i = 0
            while i < len(w):
                if i + 1 < len(w) and w[i] == a and w[i + 1] == b:
                    nw.append(ab)
                    i += 2
                else:
                    nw.append(w[i])
                    i += 1
            words[wi] = nw
            add_word(wi, +1)
        # fully-retracted pairs keep zero entries; drop them so the argmax
        # scan stays proportional to live pairs
        pair_counts = {p: c for p, c in pair_counts.items() if c > 0}
    return merges


def encode_word(word: str, ranks: dict[tuple[str, str], int]) -> list[str]:
    """Apply merges (lowest rank first) to one word — the standard BPE
    encode. Deterministic: rank order resolves every overlap."""
    w = [*word, END]
    while len(w) > 1:
        best_rank = None
        best_i = -1
        for i, p in enumerate(zip(w, w[1:])):
            r = ranks.get(p)
            if r is not None and (best_rank is None or r < best_rank):
                best_rank, best_i = r, i
        if best_rank is None:
            break
        w[best_i : best_i + 2] = [w[best_i] + w[best_i + 1]]
    return w


def _bpe_encode(batch: pa.Table, merges: list) -> pa.Table:
    """(docid, n_tokens, n_pieces) of one block: each distinct word of the
    block encoded once (per-distinct-word cost, Zipf-friendly), then a
    vectorized join back onto the exploded token stream."""
    ranks = {tuple(p): i for i, p in enumerate(merges)}
    toks = token_lists(batch["text"])
    ids = batch["doc_id"].cast(pa.int64())
    n_tok = toks.list.len().fill_null(0).to_numpy().astype(np.int64)
    idx = np.arange(len(n_tok), dtype=np.int64)
    ex = (
        pl.DataFrame({"i": idx, "w": toks})
        .explode("w")
        .drop_nulls("w")
    )
    uniq = ex["w"].unique().to_list()
    piece_map = pl.DataFrame(
        {"w": uniq, "np_": [len(encode_word(w, ranks)) for w in uniq]},
        schema={"w": pl.String, "np_": pl.Int64},  # empty batch: keep join key typed
    )
    per_doc = (
        ex.join(piece_map, on="w", how="left")
        .group_by("i")
        .agg(pl.col("np_").sum().alias("n_pieces"))
    )
    n_pieces = np.zeros(len(n_tok), dtype=np.int64)
    if per_doc.height:
        n_pieces[per_doc["i"].to_numpy()] = per_doc["n_pieces"].to_numpy()
    return pa.table(
        {
            "docid": ids,
            "n_tokens": pa.array(n_tok, pa.int64()),
            "n_pieces": pa.array(n_pieces, pa.int64()),
        }
    )


def bpe_encode_stats_ds(sf_dir: str, n_merges: int = 64, max_words: int = 100_000):
    """(docid, n_tokens, n_pieces): corpus re-encoded with a BPE vocabulary
    trained on itself. Two corpus passes (word counts, encode) + a
    vocab-scale driver solve in between; the merge list rides with the
    encode function (``fn_args``: Ray Data ships it to the object store
    once, not per block) and each block builds its own ranks dict."""
    merges = train_bpe(sf_dir, n_merges=n_merges, max_words=max_words)
    return _read_docs(sf_dir).map_batches(
        _bpe_encode, fn_args=(merges,), batch_format="pyarrow"
    )


def bpe_merges_table(sf_dir: str, n_merges: int = 64) -> pa.Table:
    """(rank, left, right) — the learned merge list as a relation (for the
    driver gate; training itself is iterative and has no SQL twin — the
    pytest contract compares against an independent naive recount
    implementation)."""
    merges = train_bpe(sf_dir, n_merges=n_merges)
    return pa.table(
        {
            "rank": pa.array(range(len(merges)), pa.int64()),
            "left": pa.array([a for a, _ in merges], pa.string()),
            "right": pa.array([b for _, b in merges], pa.string()),
        }
    )
