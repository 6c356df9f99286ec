"""Positional index + phrase / proximity search.

The reference engine stores only (docid, tf) postings
(``HW2/engine/listio.py`` layout) — phrase queries are impossible there.
This module adds the standard positional-index layer on top of the same
build discipline:

- :func:`positional_postings_ds` — one row per (term, docid) with 1-based
  token positions, stored delta-gap varbyte (``positions_vb`` binary + ``tf``;
  the main index's posting-block wire codec, ~1 byte/position in flight and
  on disk — the only writer layout since round 5; readers
  accept both). NO shuffle: a document never spans batches, so each
  per-batch (term, docid) group is already complete (the same invariant the
  postings build relies on, ``pipelines/corpus.py``).
- :func:`build_positional_index` — hash-exchange on the term's md5-low-64
  into ``n_shards`` parquet shard files. The default on-disk layout is
  BLOCKED varbyte (:func:`_blocked_shard_table`): one row per term per
  <=POS_BLOCK postings carrying (docids_vb, tfs_vb, positions_vb) blobs —
  the main index's blocked-postings discipline in parquet form. A query
  for terms T touches ONLY the shards owning terms in T, and within a
  shard pyarrow's dictionary/statistics row-group pruning + an ``isin``
  row filter keep the read term-sized, not shard-sized.
- :func:`phrase_match_counts` — consecutive-position chain: encode
  (doc, pos) as one u64 composite (dense doc RANK * 2^32 + pos; ranks are
  result-set-scale so raw docids may exceed 2^32), then fold
  ``S = intersect1d(S + 1, P_i)`` across the phrase terms — all documents
  at once, no per-doc loop (cross-doc composites differ by >= 2^32, so a
  +1 step can never leak across documents).
- :func:`proximity_query` — two terms within a token window: nearest-
  neighbour gaps via one ``searchsorted`` over the composite arrays.

Scale note: query-time reads pull only the queried terms' posting rows to
the caller — index-lookup-scale, same serving model as the BM25
``Searcher``. A stopword's positional list is corpus-scale; phrase engines
cap or impact-order those lists — here the gate's fixed phrases are
content terms, and the build keeps every list complete.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import polars as pl
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from web_search_engine_ray.functions.codecs import vb_decode, vb_encode, vb_sizes
from web_search_engine_ray.functions.tokenize import token_lists
from web_search_engine_ray.pipelines.query import topk_order
from web_search_engine_ray.sources.documents import read_docs as _read_docs
from web_search_engine_ray.sources.documents import read_docs_refs

N_SHARDS = 8
_POS_BITS = np.uint64(32)  # composite key = doc_rank << 32 | pos
POS_CODEC = "vb"  # the single writer layout (readers also accept legacy plain)
POS_BLOCK = 4096  # postings per blocked row (vb layout)


def _term_shard(term: str, n_shards: int) -> int:
    """md5-low-64 of the term mod n_shards — computable at query time for
    a single term without polars (same digest family as the engine's other
    term hashing)."""
    h = int.from_bytes(hashlib.md5(term.encode()).digest()[8:16], "little")
    return h % n_shards


def _term_shard_column(terms: pa.ChunkedArray | pa.Array, n_shards: int) -> np.ndarray:
    """Per-row shard ids for a term column, hashing each DISTINCT term once
    (dictionary-encode + gather — the ``build.py::assign_gkeys`` pattern;
    terms repeat heavily in a postings relation, so this cuts Python hash
    calls by the repeat factor)."""
    if isinstance(terms, pa.ChunkedArray):
        terms = terms.combine_chunks()
    enc = terms.dictionary_encode()
    uniq = enc.dictionary.to_pylist()
    md5 = hashlib.md5
    shard_of = np.fromiter(
        (
            int.from_bytes(md5(w.encode()).digest()[8:16], "little") % n_shards
            for w in uniq
        ),
        dtype=np.int64,
        count=len(uniq),
    )
    idx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    return shard_of[idx]


def _encode_positions_batch(g: pa.Table) -> pa.Table:
    """(term, docid, positions list<int32>) -> (term, docid, tf int32,
    positions_vb binary): per-row delta-gap varbyte of the ascending
    position list — the same wire codec as the main index's posting blocks
    (``functions/codecs.py``), encoded ONCE for the whole batch's flat
    position stream and sliced into per-row byte strings by offsets."""
    pos_col = g["positions"].combine_chunks()
    counts = pc.list_value_length(pos_col).to_numpy(zero_copy_only=False).astype(np.int64)
    flat = pos_col.flatten().to_numpy(zero_copy_only=False).astype(np.uint64)
    n = len(counts)
    if flat.size:
        starts = np.cumsum(counts) - counts
        gaps = flat.copy()
        gaps[1:] -= flat[:-1]
        gaps[starts] = flat[starts]  # first position of each row stays absolute
        data = vb_encode(gaps)
        sizes_csum = np.concatenate([[0], np.cumsum(vb_sizes(gaps))])
        row_ends = sizes_csum[np.cumsum(counts)]
        offsets = np.zeros(n + 1, np.int32)
        offsets[1:] = row_ends
        vb_arr = pa.Array.from_buffers(
            pa.binary(), n, [None, pa.py_buffer(offsets.tobytes()), pa.py_buffer(data)]
        )
    else:
        vb_arr = pa.array([b""] * n, pa.binary())
    return pa.table(
        {
            "term": g["term"],
            "docid": g["docid"],
            "tf": pa.array(counts.astype(np.int32), pa.int32()),
            "positions_vb": vb_arr,
        }
    )


def _decode_positions(t: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """-> (positions per row, flat absolute u64 positions) for the in-flight
    per-row layout (tf + positions_vb) or the plain list<int32> layout."""
    if "positions" in t.column_names:  # plain layout
        pos_col = t["positions"].combine_chunks()
        counts = pc.list_value_length(pos_col).to_numpy(zero_copy_only=False).astype(np.int64)
        flat = pos_col.flatten().to_numpy(zero_copy_only=False).astype(np.uint64)
        return counts, flat
    counts = t["tf"].combine_chunks().to_numpy(zero_copy_only=False).astype(np.int64)
    gaps = vb_decode(_binary_blob(t["positions_vb"]))
    return counts, _segmented_abs(gaps, counts)


def positional_postings_ds(sf_dir: str):
    """One row per (term, doc), positions sorted ascending, 1-based over the
    tokenized stream, as (term, docid, tf, positions_vb) with delta-gap
    varbyte position bytes — ~1 byte per position in flight and on disk
    instead of list<int32>'s 4. The ONLY in-flight layout since round 5
    (readers still accept legacy plain list<int32> indexes on disk). A
    single document would need >2^31 tokens to overflow the position space
    (guarded)."""
    return _read_docs(sf_dir).map_batches(_doc_positions, batch_format="pyarrow")


def _doc_positions(batch: pa.Table) -> pa.Table:
    """A block of (doc_id, text) -> its (term, docid, tf, positions_vb) rows."""
    toks = token_lists(batch["text"])
    ids = batch["doc_id"].cast(pa.int64())
    lens = toks.list.len().fill_null(0)
    if len(lens) and int(lens.max()) >= (1 << 31):
        raise ValueError("document token count exceeds int32 position space")
    df = (
        pl.DataFrame({"docid": pl.from_arrow(ids), "ws": toks})
        .explode("ws")
        .drop_nulls("ws")
        .with_columns(
            p=(pl.int_range(pl.len()).over("docid") + 1).cast(pl.Int32)
        )
    )
    g = (
        df.group_by(["ws", "docid"])
        .agg(positions=pl.col("p").sort())
        .rename({"ws": "term"})
        .sort(["term", "docid"])
    )
    out = g.to_arrow().cast(
        pa.schema(
            [
                ("term", pa.string()),
                ("docid", pa.int64()),
                ("positions", pa.list_(pa.int32())),
            ]
        )
    )
    return _encode_positions_batch(out)


def _binary_blob(arr: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """Concatenated value bytes of a binary column, in row order, as u8.
    Arrow binary offsets are monotonic, so for a (materialized) array the
    rows tile one contiguous buffer slice."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if len(arr) == 0:
        return np.empty(0, np.uint8)
    odt = np.int64 if arr.type == pa.large_binary() else np.int32
    offs = np.frombuffer(arr.buffers()[1], odt)[
        arr.offset : arr.offset + len(arr) + 1
    ]
    return np.frombuffer(arr.buffers()[2], np.uint8)[offs[0] : offs[-1]]


def _blob_row_lengths(arr: pa.Array | pa.ChunkedArray) -> np.ndarray:
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if len(arr) == 0:
        return np.empty(0, np.int64)
    odt = np.int64 if arr.type == pa.large_binary() else np.int32
    offs = np.frombuffer(arr.buffers()[1], odt)[
        arr.offset : arr.offset + len(arr) + 1
    ]
    return (offs[1:] - offs[:-1]).astype(np.int64)


def _slice_binary(data: np.ndarray, bounds: np.ndarray) -> pa.Array:
    """Binary array whose row i is data[bounds[i]:bounds[i+1]] (large_binary
    past the int32 offset range — a shard partition holding >2 GiB of
    position bytes)."""
    if bounds[-1] < (1 << 31):
        return pa.Array.from_buffers(
            pa.binary(),
            len(bounds) - 1,
            [
                None,
                pa.py_buffer(bounds.astype(np.int32).tobytes()),
                pa.py_buffer(data.tobytes()),
            ],
        )
    return pa.Array.from_buffers(
        pa.large_binary(),
        len(bounds) - 1,
        [
            None,
            pa.py_buffer(bounds.astype(np.int64).tobytes()),
            pa.py_buffer(data.tobytes()),
        ],
    )


def _blocked_shard_table(t: pa.Table, block: int = POS_BLOCK) -> pa.Table:
    """Per-row (term, docid, tf, positions_vb) -> the blocked layout
    (term, blk, n, docids_vb, tfs_vb, positions_vb): one row per term per
    <=``block`` postings — the main index's blocked-postings discipline in
    parquet form (SURVEY.md §7.5). Kills the 4-byte-per-value binary length
    prefix that made per-posting rows bigger on disk than list<int32>, and
    bounds any stopword's largest parquet cell at ``block`` postings.

    Fully vectorized: docid gaps reset to absolute at block starts, ONE
    vb_encode over each of the three value streams, per-block byte ranges
    from cumsum(vb_sizes) at block boundaries."""
    tt = pl.from_arrow(t).sort(["term", "docid"]).to_arrow().cast(t.schema)
    n_rows = tt.num_rows
    if n_rows == 0:
        return pa.table(
            {
                "term": pa.array([], pa.string()),
                "blk": pa.array([], pa.int32()),
                "n": pa.array([], pa.int32()),
                "docids_vb": pa.array([], pa.binary()),
                "tfs_vb": pa.array([], pa.binary()),
                "positions_vb": pa.array([], pa.binary()),
            }
        )
    terms = tt["term"].combine_chunks()
    docids = tt["docid"].combine_chunks().to_numpy(zero_copy_only=False).astype(np.uint64)
    tfs = tt["tf"].combine_chunks().to_numpy(zero_copy_only=False).astype(np.uint64)
    enc = terms.dictionary_encode()
    tidx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    # block starts: term change points plus every `block` rows within a term
    change = np.empty(n_rows, np.bool_)
    change[0] = True
    change[1:] = tidx[1:] != tidx[:-1]
    ts = np.flatnonzero(change)  # term start rows
    term_of_row = np.cumsum(change) - 1
    row_in_term = np.arange(n_rows, dtype=np.int64) - ts[term_of_row]
    s = np.flatnonzero(row_in_term % block == 0)  # block start rows
    bounds = np.append(s, n_rows)
    n_per_block = np.diff(bounds)
    blk_idx = (row_in_term[s] // block).astype(np.int32)
    # docid gaps, absolute at each block start
    gaps = docids.copy()
    gaps[1:] -= docids[:-1]
    gaps[s] = docids[s]
    d_bytes = np.frombuffer(vb_encode(gaps), np.uint8)
    d_csum = np.zeros(n_rows + 1, np.int64)
    np.cumsum(vb_sizes(gaps), out=d_csum[1:])
    t_bytes = np.frombuffer(vb_encode(tfs), np.uint8)
    t_csum = np.zeros(n_rows + 1, np.int64)
    np.cumsum(vb_sizes(tfs), out=t_csum[1:])
    p_lens = _blob_row_lengths(tt["positions_vb"])
    p_bytes = _binary_blob(tt["positions_vb"])
    p_csum = np.zeros(n_rows + 1, np.int64)
    np.cumsum(p_lens, out=p_csum[1:])
    return pa.table(
        {
            "term": terms.take(pa.array(s, pa.int64())),
            "blk": pa.array(blk_idx, pa.int32()),
            "n": pa.array(n_per_block.astype(np.int32), pa.int32()),
            "docids_vb": _slice_binary(d_bytes, d_csum[bounds]),
            "tfs_vb": _slice_binary(t_bytes, t_csum[bounds]),
            "positions_vb": _slice_binary(p_bytes, p_csum[bounds]),
        }
    )


def build_positional_index(
    sf_dir: str, out_dir: str, n_shards: int = N_SHARDS
) -> dict:
    """Write the positional index: ``out_dir/shard_{i:05d}.parquet`` in the
    blocked varbyte layout (one row per term per <=POS_BLOCK postings — see
    :func:`_blocked_shard_table`; 2.18x smaller and faster to build than
    the retired plain list<int32> writer, which readers still accept on
    disk). Atomic per-shard writes (tmp + rename); ``n_rows`` in the
    returned stats counts POSTINGS (term, doc pairs)."""
    import ray

    from web_search_engine_ray.stages.exchange import exchange_map, map_refs

    os.makedirs(out_dir, exist_ok=True)

    def route(t: pa.Table) -> np.ndarray:
        return _term_shard_column(t["term"], n_shards)

    def write_shard(t: pa.Table, pi: int) -> pa.Table:
        tt = _blocked_shard_table(t)
        n_postings = t.num_rows
        path = os.path.join(out_dir, f"shard_{pi:05d}.parquet")
        tmp = path + ".tmp"
        pq.write_table(tt, tmp)
        os.replace(tmp, path)
        return pa.table(
            {
                "shard": pa.array([pi], pa.int64()),
                "n_rows": pa.array([n_postings], pa.int64()),
            }
        )

    postings = map_refs(_doc_positions, read_docs_refs(sf_dir))
    stats = ray.get(exchange_map(postings, route, n_shards, write_shard, with_index=True))
    return {
        "out_dir": out_dir,
        "n_shards": n_shards,
        "n_rows": sum(t["n_rows"][0].as_py() for t in stats),
    }


def _cached_positional_index(sf_dir: str, n_shards: int = N_SHARDS) -> str:
    """Build-or-reuse, keyed by source file identity (mirrors
    ``serving.documents_index``)."""
    from web_search_engine_ray.pipelines.serving import _cache_key
    from web_search_engine_ray.stages import exchange

    path = os.path.join(sf_dir, "documents.parquet")
    key = _cache_key(path, f"pos{n_shards}:{POS_CODEC}", __file__, exchange.__file__)
    out = os.path.join("/tmp", "wse_ray_cache", f"pos_{key}")
    if not all(
        os.path.exists(os.path.join(out, f"shard_{i:05d}.parquet"))
        for i in range(n_shards)
    ):
        build_positional_index(sf_dir, out, n_shards)
    return out


def _segmented_abs(gaps: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Absolute values from per-segment delta streams where the FIRST value
    of each segment is stored absolute: one global cumsum + a per-segment
    base subtraction (counts may not contain zeros)."""
    if gaps.size == 0:
        return gaps
    c = np.cumsum(gaps)
    starts = np.cumsum(counts) - counts
    base = c[starts] - gaps[starts]
    return c - np.repeat(base, counts)


def _decode_plain_rows(t: pa.Table) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    docids = t["docid"].combine_chunks().to_numpy(zero_copy_only=False).astype(np.int64)
    pos_col = t["positions"].combine_chunks()
    tfs = pc.list_value_length(pos_col).to_numpy(zero_copy_only=False).astype(np.int64)
    flat = pos_col.flatten().to_numpy(zero_copy_only=False).astype(np.uint64)
    return docids, tfs, flat


def _decode_blocked_rows(t: pa.Table) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Blocked vb rows (one term, blk-sorted) -> (docids, tfs, flat abs
    positions). Three vb_decodes over the concatenated block blobs."""
    if t.num_rows == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.uint64)
    t = t.sort_by("blk")
    n = t["n"].combine_chunks().to_numpy(zero_copy_only=False).astype(np.int64)
    d_gaps = vb_decode(_binary_blob(t["docids_vb"]))
    docids = _segmented_abs(d_gaps, n).astype(np.int64)
    tfs = vb_decode(_binary_blob(t["tfs_vb"])).astype(np.int64)
    p_gaps = vb_decode(_binary_blob(t["positions_vb"]))
    flat = _segmented_abs(p_gaps, tfs)
    return docids, tfs, flat


TermPositions = tuple[np.ndarray, np.ndarray, np.ndarray]  # docids, tfs, flat pos


def read_term_positions(
    index_dir: str, terms: list[str], n_shards: int = N_SHARDS
) -> dict[str, TermPositions]:
    """term -> (docids, tfs, flat absolute positions), reading only the
    shards that own the requested terms, with a term row filter pushed into
    the read. Accepts both on-disk layouts (blocked vb and plain)."""
    by_shard: dict[int, list[str]] = {}
    for w in dict.fromkeys(terms):  # preserve order, drop dups
        by_shard.setdefault(_term_shard(w, n_shards), []).append(w)
    out: dict[str, TermPositions] = {}
    for sh, ws in by_shard.items():
        t = pq.read_table(
            os.path.join(index_dir, f"shard_{sh:05d}.parquet"),
            filters=pc.field("term").isin(ws),
        )
        blocked = "docids_vb" in t.column_names
        for w in ws:
            rows = t.filter(pc.equal(t["term"], w))
            out[w] = (
                _decode_blocked_rows(rows) if blocked else _decode_plain_rows(rows)
            )
    return out


def _doc_universe(tps: list[TermPositions]) -> np.ndarray:
    """Sorted distinct docids across the queried terms' postings — the
    dense rank domain for composite keys. Raw docids can exceed 2^32 at
    10^12-doc scale, so composites use the RANK (result-set-scale, always
    < 2^32 for any answerable query), not the docid itself."""
    parts = [tp[0] for tp in tps if tp[0].size]
    if not parts:
        return np.empty(0, np.int64)
    return np.unique(np.concatenate(parts))


def _composite(tp: TermPositions, universe: np.ndarray) -> np.ndarray:
    """Sorted u64 composite keys rank(docid) << 32 | pos for one term."""
    docids, tfs, flat = tp
    if docids.size == 0:
        return np.empty(0, np.uint64)
    ranks = np.searchsorted(universe, docids).astype(np.uint64)
    rep = np.repeat(ranks, tfs)
    keys = (rep << _POS_BITS) | flat
    keys.sort()
    return keys


def phrase_match_counts(
    index_dir: str, phrase_terms: list[str], n_shards: int = N_SHARDS
) -> tuple[np.ndarray, np.ndarray]:
    """(docids, n_matches) for documents containing the exact consecutive
    phrase. Vectorized over ALL documents at once via composite keys."""
    if not phrase_terms:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    tp = read_term_positions(index_dir, phrase_terms, n_shards)
    universe = _doc_universe([tp[w] for w in dict.fromkeys(phrase_terms)])
    s = _composite(tp[phrase_terms[0]], universe)
    for w in phrase_terms[1:]:
        if s.size == 0:
            break
        s = np.intersect1d(
            s + np.uint64(1), _composite(tp[w], universe), assume_unique=True
        )
    if s.size == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    ranks = (s >> _POS_BITS).astype(np.int64)
    uniq, counts = np.unique(ranks, return_counts=True)
    return universe[uniq], counts.astype(np.int64)


def phrase_search_table(
    sf_dir: str, phrases: list[str] | None = None, n_shards: int = N_SHARDS
) -> pa.Table:
    """(query_id, docid, n_matches): exact-phrase hits for the fixed query
    set over the cached positional index. Phrases tokenize with the
    engine's document tokenizer (a phrase is a token sequence)."""
    from web_search_engine_ray.pipelines.serving import FIXED_QUERIES

    phrases = phrases if phrases is not None else FIXED_QUERIES
    idx = _cached_positional_index(sf_dir, n_shards)
    q_l, d_l, n_l = [], [], []
    for qid, phrase in enumerate(phrases):
        terms = token_lists(pa.array([phrase], pa.string())).to_list()[0] or []
        docs, counts = phrase_match_counts(idx, list(terms), n_shards)
        q_l.append(np.full(docs.size, qid, np.int64))
        d_l.append(docs)
        n_l.append(counts)
    return pa.table(
        {
            "query_id": pa.array(np.concatenate(q_l) if q_l else [], pa.int64()),
            "docid": pa.array(np.concatenate(d_l) if d_l else [], pa.int64()),
            "n_matches": pa.array(np.concatenate(n_l) if n_l else [], pa.int64()),
        }
    )


PROXIMITY_QUERIES: list[tuple[str, str, int]] = [
    ("spark", "join", 3),
    ("customer", "order", 5),
    ("window", "merge", 4),
    ("vector", "nosuchterm", 8),
]


def proximity_search_table(
    sf_dir: str,
    queries: list[tuple[str, str, int]] | None = None,
    n_shards: int = N_SHARDS,
) -> pa.Table:
    """(query_id, docid, min_gap): documents where the two terms occur
    within ``window`` tokens (min over all occurrence pairs). One
    searchsorted pass over composite keys — the nearest b-position for
    every a-position; a same-document guard masks neighbours that fall in
    an adjacent document."""
    queries = queries if queries is not None else PROXIMITY_QUERIES
    idx = _cached_positional_index(sf_dir, n_shards)
    q_l, d_l, g_l = [], [], []
    for qid, (wa, wb, window) in enumerate(queries):
        tp = read_term_positions(idx, [wa, wb], n_shards)
        universe = _doc_universe([tp[wa], tp[wb]])
        a, b = _composite(tp[wa], universe), _composite(tp[wb], universe)
        if a.size == 0 or b.size == 0:
            continue
        j = np.searchsorted(b, a)
        gaps = np.full(a.size, np.iinfo(np.int64).max, np.int64)
        adoc = a >> _POS_BITS
        # right neighbour (first b >= a), same doc only — a cross-doc
        # composite difference can exceed int64 and wrap negative
        right = (j < b.size) & ((b[np.minimum(j, b.size - 1)] >> _POS_BITS) == adoc)
        gaps[right] = (b[j[right]] - a[right]).astype(np.int64)
        left = (j > 0) & ((b[np.maximum(j, 1) - 1] >> _POS_BITS) == adoc)
        lg = (a[left] - b[j[left] - 1]).astype(np.int64)
        gaps[left] = np.minimum(gaps[left], lg)
        ok = gaps <= window
        if not ok.any():
            continue
        docs = universe[(a[ok] >> _POS_BITS).astype(np.int64)]
        uniq, inv = np.unique(docs, return_inverse=True)
        best = np.full(uniq.size, np.iinfo(np.int64).max, np.int64)
        np.minimum.at(best, inv, gaps[ok])
        q_l.append(np.full(uniq.size, qid, np.int64))
        d_l.append(uniq)
        g_l.append(best)
    return pa.table(
        {
            "query_id": pa.array(np.concatenate(q_l) if q_l else [], pa.int64()),
            "docid": pa.array(np.concatenate(d_l) if d_l else [], pa.int64()),
            "min_gap": pa.array(np.concatenate(g_l) if g_l else [], pa.int64()),
        }
    )


# -- minimal covering window --------------------------------------------------

_POS_MASK = (np.uint64(1) << _POS_BITS) - np.uint64(1)


def min_window_lengths(
    index_dir: str, terms: list[str], n_shards: int = N_SHARDS
) -> tuple[np.ndarray, np.ndarray]:
    """(docids, window_len): per document containing ALL the (distinct)
    terms, the length in tokens of the SHORTEST span covering at least one
    occurrence of every term — the classic best-passage / snippet-window
    primitive (and the "MinDist" proximity feature of Tao & Zhai 2007).

    Vectorized over all documents at once: the minimal window ending at
    token position e is [min_t latest_t(e), e] where latest_t(e) is term
    t's last occurrence <= e in the same document, and the global minimum
    is reached when e is some term's occurrence — so ONE searchsorted per
    term over the union of composite keys (rank(doc) << 32 | pos) yields
    every candidate window; a per-doc ``np.minimum.at`` reduce finishes.
    No per-document Python loop."""
    terms = list(dict.fromkeys(terms))
    empty = (np.empty(0, np.int64), np.empty(0, np.int64))
    if not terms:
        return empty
    tp = read_term_positions(index_dir, terms, n_shards)
    universe = _doc_universe([tp[w] for w in terms])
    comps = [_composite(tp[w], universe) for w in terms]
    if any(c.size == 0 for c in comps):
        return empty  # AND semantics: a term with no postings kills all docs
    e = np.unique(np.concatenate(comps))
    edoc = e >> _POS_BITS
    epos = (e & _POS_MASK).astype(np.int64)
    lo = np.full(e.size, np.iinfo(np.int64).max, np.int64)
    valid = np.ones(e.size, np.bool_)
    for c in comps:
        idx = np.searchsorted(c, e, side="right") - 1
        ok = idx >= 0
        ok[ok] = (c[idx[ok]] >> _POS_BITS) == edoc[ok]
        valid &= ok
        lpos = (c[np.maximum(idx, 0)] & _POS_MASK).astype(np.int64)
        lo[ok] = np.minimum(lo[ok], lpos[ok])
    if not valid.any():
        return empty
    wl = (epos - lo + 1)[valid]
    ranks = edoc[valid].astype(np.int64)
    uniq, inv = np.unique(ranks, return_inverse=True)
    best = np.full(uniq.size, np.iinfo(np.int64).max, np.int64)
    np.minimum.at(best, inv, wl)
    return universe[uniq], best


def min_window_table(
    sf_dir: str, queries: list[str] | None = None, n_shards: int = N_SHARDS
) -> pa.Table:
    """(query_id, docid, window_len): minimal covering window per (fixed
    query, matching document) over the cached positional index. Queries
    tokenize with the engine's document tokenizer; duplicate query terms
    collapse (a window covering 'data' covers 'data data'). SQL twin:
    per-query cross join of the per-term position lists under
    min(greatest(..) - least(..) + 1) — see ``__ray_entry__._min_window_sql``."""
    from web_search_engine_ray.pipelines.serving import FIXED_QUERIES

    queries = queries if queries is not None else FIXED_QUERIES
    idx = _cached_positional_index(sf_dir, n_shards)
    q_l, d_l, w_l = [], [], []
    for qid, q in enumerate(queries):
        terms = token_lists(pa.array([q], pa.string())).to_list()[0] or []
        docs, wl = min_window_lengths(idx, list(terms), n_shards)
        q_l.append(np.full(docs.size, qid, np.int64))
        d_l.append(docs)
        w_l.append(wl)
    return pa.table(
        {
            "query_id": pa.array(np.concatenate(q_l) if q_l else [], pa.int64()),
            "docid": pa.array(np.concatenate(d_l) if d_l else [], pa.int64()),
            "window_len": pa.array(np.concatenate(w_l) if w_l else [], pa.int64()),
        }
    )


# -- proximity-boosted BM25 ---------------------------------------------------


def bm25_proximity_table(
    sf_dir: str,
    queries: list[str] | None = None,
    topk: int = 10,
    round_to: int = 4,
    n_shards: int = N_SHARDS,
) -> pa.Table:
    """(query_id, docid, score): BM25-OR rescored with the MinDist proximity
    feature (Tao & Zhai, SIGIR 2007): score' = bm25 + ln(1 + exp(-delta))
    where delta is the minimal covering window (:func:`min_window_lengths`)
    for documents containing ALL distinct query terms, and exp(-inf) -> 0
    (no boost) otherwise — so a document where the terms appear as a tight
    phrase outranks an equal-BM25 document where they are pages apart.

    Exactness under bounded work at scale: the boost is bounded by ln 2, so
    only candidates with bm25 >= theta_k - ln 2 (theta_k = the k-th best raw
    BM25 score) can enter the rescored top-k; a serving path would rescore
    just that candidate slice. At gate scale ``bm25_scores``
    already yields every matching doc, so the full rescore is the same
    work. SQL twin: ``__ray_entry__`` joins the bm25 ``scored`` CTE to the
    min-window legs under the identical ln(1 + coalesce(exp(-w), 0))
    expression, rank raw, ROUND({round_to}) both sides."""
    from web_search_engine_ray.pipelines.serving import (
        FIXED_QUERIES,
        documents_searcher,
    )

    s = documents_searcher(sf_dir)
    idx = _cached_positional_index(sf_dir, n_shards)
    queries = queries if queries is not None else FIXED_QUERIES
    q_l, d_l, s_l = [], [], []
    for qid, q in enumerate(queries):
        hits = proximity_boosted_hits(s, idx, q, mode="OR", topk=topk,
                                      n_shards=n_shards)
        if not hits:
            continue
        q_l.append(np.full(len(hits), qid, np.int64))
        d_l.append(np.array([d for d, _ in hits], np.int64))
        s_l.append(np.round([sc for _, sc in hits], round_to))
    return pa.table(
        {
            "query_id": pa.array(np.concatenate(q_l) if q_l else [], pa.int64()),
            "docid": pa.array(np.concatenate(d_l) if d_l else [], pa.int64()),
            "score": pa.array(np.concatenate(s_l) if s_l else [], pa.float64()),
        }
    )


def proximity_boosted_hits(
    searcher,
    pos_index_dir: str,
    query: str,
    mode: str = "OR",
    topk: int = 10,
    n_shards: int = N_SHARDS,
):
    """[(docid, raw boosted score)] — the shared rescore core of
    :func:`bm25_proximity_table` and the HTTP API's ``proximity_boost``
    option. The base scores are ``Searcher.bm25_scores`` of every match,
    the one BM25 scorer, and the cut is ``topk_order``.

    Identity contract: the boost joins the Searcher's docids (dense build
    ordinals, reference semantics) against the positional index's stored
    ``doc_id`` — the two coincide exactly when the corpus's ``doc_id``
    column IS the dense row ordinal, which holds for every driver table
    and every corpus this engine's own jobs emit. A corpus with arbitrary
    raw ids needs a docid remap of one index first — without it the join
    is meaningless (ids that miss lose their boost; ids that collide with
    another row's ordinal attach that row's window).

    Serving note at scale: the
    boost is bounded by ln 2, so an exact bounded variant rescores only the
    AND set intersected with {bm25 >= theta_k - ln 2}; here the base pass
    already has every matching doc's score."""
    docs, comb = searcher.bm25_scores(query, mode)
    if not docs.size:
        return []
    docs = docs.astype(np.int64)
    terms = token_lists(pa.array([query], pa.string())).to_list()[0] or []
    wdocs, wl = min_window_lengths(pos_index_dir, list(terms), n_shards)
    if wdocs.size:
        wdocs = wdocs.astype(np.int64)
        pos = np.minimum(np.searchsorted(wdocs, docs), wdocs.size - 1)
        ok = wdocs[pos] == docs
        # same expression shape as the SQL twin (ln(1+x), not log1p)
        comb[ok] += np.log(1.0 + np.exp(-wl[pos[ok]].astype(np.float64)))
    keep = topk_order(docs, comb, topk)
    return list(zip(docs[keep].tolist(), comb[keep].tolist()))


# -- ordered window (#od:k) -----------------------------------------------------

ORDERED_QUERIES: list[tuple[str, str, int]] = PROXIMITY_QUERIES


def ordered_window_table(
    sf_dir: str,
    queries: list[tuple[str, str, int]] | None = None,
    n_shards: int = N_SHARDS,
) -> pa.Table:
    """(query_id, docid, min_fgap): documents where term b follows term a
    IN ORDER within ``window`` tokens (Indri's ``#od:k`` operator — the
    directional sibling of :func:`proximity_search_table`'s unordered
    window; "new york" within 3 must not match "york ... new"). Same one-
    searchsorted composite-key pass, forward neighbour only: for every a
    occurrence, the first b strictly after it in the same document."""
    queries = queries if queries is not None else ORDERED_QUERIES
    idx = _cached_positional_index(sf_dir, n_shards)
    q_l, d_l, g_l = [], [], []
    for qid, (wa, wb, window) in enumerate(queries):
        tp = read_term_positions(idx, [wa, wb], n_shards)
        universe = _doc_universe([tp[wa], tp[wb]])
        a, b = _composite(tp[wa], universe), _composite(tp[wb], universe)
        if a.size == 0 or b.size == 0:
            continue
        # first b-position STRICTLY after each a (side='right' skips any
        # equal composite; distinct terms can't share one anyway)
        j = np.searchsorted(b, a, side="right")
        gaps = np.full(a.size, np.iinfo(np.int64).max, np.int64)
        adoc = a >> _POS_BITS
        ok_n = (j < b.size) & (
            (b[np.minimum(j, b.size - 1)] >> _POS_BITS) == adoc
        )
        gaps[ok_n] = (b[j[ok_n]] - a[ok_n]).astype(np.int64)
        keep = gaps <= window
        if not keep.any():
            continue
        docs = universe[(a[keep] >> _POS_BITS).astype(np.int64)]
        uniq, inv = np.unique(docs, return_inverse=True)
        best = np.full(uniq.size, np.iinfo(np.int64).max, np.int64)
        np.minimum.at(best, inv, gaps[keep])
        q_l.append(np.full(uniq.size, qid, np.int64))
        d_l.append(uniq)
        g_l.append(best)
    return pa.table(
        {
            "query_id": pa.array(np.concatenate(q_l) if q_l else [], pa.int64()),
            "docid": pa.array(np.concatenate(d_l) if d_l else [], pa.int64()),
            "min_fgap": pa.array(np.concatenate(g_l) if g_l else [], pa.int64()),
        }
    )
