"""Seeded benchmark inputs: corpora, planted duplicates and query streams.

Everything here is a pure function of the workload seed. The corpus text
comes from the repository's public fixture generator
(``fixtures.transcripts.conv_batch_rows``) over a conversation-id range that
the seed offsets, so two seeds never share a conversation and the fixture
module itself stays untouched. Query terms are drawn from the generated
text with an independent tokenizer, never from an index under test.
"""

from __future__ import annotations

import bisect
import itertools
import os
import random
import re
from collections import Counter

import pyarrow as pa
import pyarrow.parquet as pq

# the reference corpus token pattern, applied here with Python's own ``re``
TOKEN_RE = re.compile(r"[a-z0-9]+(?:[.-][a-z0-9]+)*")
MAX_TURNS = 8
GEN_TASKS = 4  # corpus generation runs in this many Ray tasks
TYPO_SHARE = 0.05  # queries with one misspelled word (the spell path)
WORD_SAMPLE = 30_000  # turns sampled for the query words' frequencies
# conv ids print as conv%08d; keep every seeded range below 10**8
_RANGE = 100_000


def conv_base(seed: int) -> int:
    """First conversation id of the seed's private id range."""
    return _RANGE * (1 + seed % 990)


def tokens(text: str) -> list[str]:
    return TOKEN_RE.findall(text.lower())


def make_convs(seed: int, n: int) -> pa.Table:
    """Rows of the first ``n`` conversations of the seed's range, sorted."""
    import ray

    from web_search_engine_ray.fixtures.transcripts import conv_batch_rows

    base = conv_base(seed)
    if n > _RANGE:
        raise ValueError(f"at most {_RANGE} conversations per seed")
    gen = ray.remote(num_cpus=1)(conv_batch_rows)
    cuts = [n * i // GEN_TASKS for i in range(GEN_TASKS + 1)]
    parts = [gen.remote(base + a, base + b, MAX_TURNS) for a, b in zip(cuts, cuts[1:]) if b > a]
    return pa.concat_tables(ray.get(parts)).combine_chunks()


def write_files(table: pa.Table, out_dir: str, rows_per_file: int) -> list[str]:
    """Write ``table`` as sorted parquet files of ``rows_per_file`` rows
    (one row group each, so one file is one build partition)."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for i, lo in enumerate(range(0, table.num_rows, rows_per_file)):
        path = os.path.join(out_dir, f"part_{i:05d}.parquet")
        part = table.slice(lo, rows_per_file)
        pq.write_table(part, path, row_group_size=part.num_rows)
        paths.append(path)
    return paths


class QueryStream:
    """Seeded query mix over one corpus table.

    Word statistics come from a seeded sample of ``WORD_SAMPLE`` turns.
    Half the queries draw their terms uniformly over the distinct words
    (rare terms, short lists); half draw them by collection frequency
    (stopwords, long lists). Each query has 1-4 terms and is AND or OR;
    ``TYPO_SHARE`` of them carry one misspelled word that no document
    contains, which sends the request down the spell-suggestion path."""

    def __init__(self, table: pa.Table, seed: int):
        cf: Counter = Counter()
        texts = table["text"].to_pylist()
        for text in random.Random(seed).sample(texts, min(WORD_SAMPLE, len(texts))):
            cf.update(tokens(text or ""))
        self.cf = cf
        self.vocab = sorted(cf)
        self._cum = list(itertools.accumulate(cf[t] for t in self.vocab))
        self.seed = seed

    def _typo(self, rng: random.Random) -> str:
        while True:
            w = rng.choice(self.vocab)
            if len(w) < 4 or not w.isalpha():
                continue
            i = rng.randrange(len(w))
            t = w[:i] + w[i + 1 :]  # one deletion: edit distance 1
            if t not in self.cf:
                return t

    def _stratified(self, rng: random.Random, n: int, weighted: bool) -> list[str]:
        """``n`` words from one point in each of ``n`` equal slices of the
        distribution (uniform over words, or by collection frequency), in
        random order: every block gets the same spread of rare and frequent
        words, whatever the seed."""
        us = [(i + rng.random()) / n for i in range(n)]
        rng.shuffle(us)
        if weighted:
            total = self._cum[-1]
            return [self.vocab[bisect.bisect_right(self._cum, u * total)] for u in us]
        return [self.vocab[int(u * len(self.vocab))] for u in us]

    def queries(self, n: int, stream: int = 0) -> list[dict]:
        """``n`` queries as ``{query, mode, cls, typo}`` dicts; ``stream``
        picks an independent sequence for the same seed (warm-up vs
        measured). Each block of 80 holds every (class, mode, term count)
        combination five times and four typo queries, shuffled, and draws
        its words stratified, so every seed runs the same mix and only the
        words differ."""
        rng = random.Random(self.seed * 1_000_003 + stream)
        combos = [(c, m, k) for c in ("rare", "heavy") for m in ("AND", "OR") for k in (1, 2, 3, 4)]
        n_typo = round(TYPO_SHARE * 5 * len(combos))
        out = []
        while len(out) < n:
            block = combos * 5
            rng.shuffle(block)
            typos = set(rng.sample(range(len(block)), n_typo))
            words = {
                cls: self._stratified(rng, sum(k for c, _, k in block if c == cls), cls == "heavy")
                for cls in ("rare", "heavy")
            }
            for j, (cls, mode, k) in enumerate(block):
                terms = [words[cls].pop() for _ in range(k)]
                if j in typos:
                    terms[rng.randrange(k)] = self._typo(rng)
                out.append({"query": " ".join(terms), "mode": mode, "cls": cls, "typo": j in typos})
        return out[:n]


def plant_near_dups(table: pa.Table, seed: int, n_pairs: int) -> tuple[pa.Table, list[tuple[str, str]]]:
    """Append ``n_pairs`` cloned conversations to ``table``: every clone
    copies a seeded source conversation of at least four turns under a new
    id; all but every fourth clone also get one word appended to one turn.
    Returns the grown table and the planted ``(conv_a, conv_b)`` pairs in
    the engine's order (``conv_a < conv_b``)."""
    import polars as pl

    rng = random.Random(seed * 7919 + 1)
    df = pl.from_arrow(table)
    lens = df.group_by("conv_id").len().filter(pl.col("len") >= 4)
    sources = sorted(lens["conv_id"].to_list())
    picks = rng.sample(sources, n_pairs)
    clones, pairs = [], []
    for i, src in enumerate(picks):
        new_id = f"zclone{seed % 990:03d}x{i:04d}"
        g = df.filter(pl.col("conv_id") == src).with_columns(conv_id=pl.lit(new_id))
        if i % 4:
            t = rng.randrange(g.height)
            g = g.with_columns(
                text=pl.when(pl.int_range(pl.len()) == t)
                .then(pl.col("text") + " perturbed")
                .otherwise(pl.col("text"))
            )
        clones.append(g)
        pairs.append(tuple(sorted((src, new_id))))
    grown = pl.concat([df, *clones]).to_arrow().cast(table.schema)
    return grown, pairs


def conv_texts(table: pa.Table) -> dict[str, str]:
    """conv_id -> ordered "role: text" lines, the conversation text the
    dedup operators compare."""
    rows = sorted(
        zip(
            table["conv_id"].to_pylist(),
            table["turn_idx"].to_pylist(),
            table["role"].to_pylist(),
            table["text"].to_pylist(),
        )
    )
    out: dict[str, list[str]] = {}
    for c, _t, role, text in rows:
        out.setdefault(c, []).append(f"{role}: {text or ''}")
    return {c: "\n".join(lines) for c, lines in out.items()}


def shingle_jaccard(a: str, b: str, k: int = 3) -> float:
    """Exact k-token shingle Jaccard of two texts (tuples, no hashing)."""
    ta, tb = tokens(a), tokens(b)
    sa = {tuple(ta[i : i + k]) for i in range(len(ta) - k + 1)}
    sb = {tuple(tb[i : i + k]) for i in range(len(tb) - k + 1)}
    union = len(sa | sb)
    return len(sa & sb) / union if union else 0.0
