"""Corpus tokenizer with reference-identical semantics, vectorized for batches.

Reference contract (``HW2/engine/parser.py:69-78``):

    text -> ftfy.fix_text(html.unescape(text)) -> text.lower()
         -> re.findall(r"[a-z0-9]+(?:[.-][a-z0-9]+)*", ...)

so dotted/hyphenated tokens like ``u.s`` / ``3.14`` / ``v1.2-beta`` survive as
single terms, and everything else (punctuation, unicode letters) is dropped.

Query-side tokenization is intentionally DIFFERENT (``HW2/engine/searcher.py:60``,
``daat_ranker.py:68``): ``query.lower().split()`` — plain whitespace split, no
regex, no unescape. We preserve that asymmetry exactly (see ``query_terms``).

Vectorization: the batch path runs the same regex through polars'
``str.extract_all`` (Rust regex — leftmost-first semantics identical to CPython
``re`` for this pattern; property-tested in ``tests/test_tokenizer.py``).
HTML unescape only ever changes strings containing ``&``, so we apply the
(Python) unescape only to the rare rows that contain one. tf aggregation
(``batch_postings``) never hashes or compares strings past one Arrow
dictionary encode of the flat tokens: the per-(term, docid) counting and the
``(term, docid)`` order come from one int64 sort of integer keys.

``ftfy`` is an optional dependency in this environment; when absent, mojibake
repair is an identity transform. Corpus fixtures are clean ASCII so engine
vs oracle comparisons never depend on ftfy availability (FIXTURES.md §1.1).
"""

from __future__ import annotations

import html
import os
import re

# One CPU per Ray task: polars sizes its thread pool at import time, and 32
# tasks x 32 threads thrashes a node. Workers import this module (the UDF's
# home) before polars, so the default lands in time; an explicit
# POLARS_MAX_THREADS in the environment still wins.
os.environ.setdefault("POLARS_MAX_THREADS", "1")

import numpy as np
import polars as pl
import pyarrow as pa
import pyarrow.compute as pc

try:  # optional; not installed in this environment
    from ftfy import fix_text as _fix_text

    HAVE_FTFY = True
except ImportError:  # pragma: no cover - environment dependent
    HAVE_FTFY = False

    def _fix_text(s: str) -> str:
        return s


# The exact token pattern of the reference (HW2/engine/parser.py:78).
TOKEN_PATTERN = r"[a-z0-9]+(?:[.-][a-z0-9]+)*"
_TOKEN_RE = re.compile(TOKEN_PATTERN)


def clean_text(text: str) -> str:
    """HTML-entity unescape + mojibake repair (identity when ftfy is absent)."""
    if "&" in text:
        text = html.unescape(text)
    return _fix_text(text) if HAVE_FTFY else text


def tokenize(text: str) -> list[str]:
    """Reference-identical scalar tokenizer (oracle / unit-test path)."""
    return _TOKEN_RE.findall(clean_text(text).lower())


def query_terms(query: str) -> list[str]:
    """Query-side tokenization: ``query.lower().split()`` — NOT the corpus
    tokenizer (reference asymmetry, ``HW2/engine/searcher.py:60``)."""
    return query.lower().split()


def _clean_series(s: pl.Series) -> pl.Series:
    """Apply ``clean_text`` only to rows that need it (contain ``&``), or to
    every row when ftfy is present (ftfy can alter arbitrary strings)."""
    s = s.fill_null("")
    if HAVE_FTFY:
        return pl.Series(s.name, [clean_text(x) for x in s.to_list()], dtype=pl.Utf8)
    mask = s.str.contains("&", literal=True)
    if mask.any():
        idx = np.flatnonzero(mask.to_numpy())
        vals = s.to_list()
        for i in idx:
            vals[i] = html.unescape(vals[i])
        s = pl.Series(s.name, vals, dtype=pl.Utf8)
    return s


def tokenize_series(texts: pl.Series) -> pl.Series:
    """Vectorized batch tokenizer: Utf8 series -> List[Utf8] token series."""
    s = _clean_series(texts)
    return s.str.to_lowercase().str.extract_all(TOKEN_PATTERN)


def token_lists(texts: pa.Array | pa.ChunkedArray) -> pl.Series:
    """Arrow string column -> polars List[Utf8] series of token lists."""
    s = pl.from_arrow(texts)
    if isinstance(s, pl.DataFrame):  # pragma: no cover - defensive
        s = s.to_series(0)
    return tokenize_series(s)


def batch_postings(
    docids: np.ndarray, texts: pa.Array | pa.ChunkedArray
) -> tuple[pa.Table, np.ndarray]:
    """Tokenize one batch and aggregate per-doc term frequencies.

    Returns ``(postings, dl)`` where ``postings`` is an Arrow table
    ``(term: string, docid: uint64, tf: uint32)`` sorted by ``(term, docid)``
    and ``dl[i]`` is the token count of row ``i`` (0 for token-less rows —
    such rows still occupy a docid and count toward N/avgdl; engine rule
    derived from the reference MP path, ``HW2/engine/build_runs_mp.py:87-91``).

    This is the per-batch "tiny index" (partial tf aggregation) of
    ``HW2/engine/indexer.py:36-49``, on integer keys: the flat tokens are
    dictionary-encoded once, the distinct terms ranked in byte order and the
    docids densely ranked (``np.unique``, so duplicate or unsorted docids
    aggregate as one key each), then one int64 sort of
    ``term_rank * n_docids + docid_rank`` gives the ``(term, docid)`` runs and
    their lengths are tf. tf counts are complete (not partial) because a
    document never spans batches.
    """
    toks = token_lists(texts)
    dl = toks.list.len().fill_null(0).to_numpy().astype(np.uint32)
    lists = toks.to_arrow()
    enc = pc.dictionary_encode(pc.list_flatten(lists))
    rows = pc.list_parent_indices(lists).to_numpy()
    # distinct terms in byte order, the order of Arrow's (and polars') string sort
    by_term = pc.sort_indices(enc.dictionary).to_numpy()
    term_rank = np.empty(by_term.size, dtype=np.int64)
    term_rank[by_term] = np.arange(by_term.size)
    uniq_docids, docid_rank = np.unique(np.asarray(docids, dtype=np.uint64), return_inverse=True)
    n = uniq_docids.size
    # < n_distinct_terms * n_docids: no int64 overflow for any batch that fits in memory
    keys, tf = np.unique(term_rank[enc.indices.to_numpy()] * n + docid_rank[rows], return_counts=True)
    out = pa.table(
        {
            "term": enc.dictionary.take(by_term[keys // n]).cast(pa.string()),
            "docid": pa.array(uniq_docids[keys % n], pa.uint64()),
            "tf": pa.array(tf, pa.uint32()),
        }
    )
    return out, dl
