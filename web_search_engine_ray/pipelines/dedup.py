"""Deduplication operators over the ``documents`` table.

Large-scale training-data pipeline extensions (beyond the reference's
operator set — it has only exact ``(term, docid)`` collapse,
``HW2/engine/merger.py:114-132``):

- :func:`exact_dedup_ds` — content-hash groupby, keep min docid. Scale path:
  hash is computed per batch; the shuffle moves one (hash, docid) row per
  doc, never the text.
- The near-dup kernel, one copy for int docids and string conv_ids
  (``transcripts_ops`` runs its conversation near-dups on it):
  ``_minhash_pairs`` (shingle -> minhash signature -> banded LSH buckets ->
  candidate pairs), ``_distinct_pairs`` (the one pair-distinct exchange,
  shared by every pair generator here) and ``_verified_pairs`` (exact
  3-gram Jaccard or containment verify). All hashing is deterministic
  (md5-derived token hashes + splitmix64 mixing). The kernel runs on block
  refs, not Datasets: per-block maps are ``exchange.map_refs`` tasks, a
  union is a list concatenation, and each ``exchange_map`` hands its
  partitions' refs straight to the next, so a whole chain is submitted at
  once and no Ray Data executor or driver wait sits between its exchanges.
  Each public wrapper reads its source once (``read_docs_refs``) and waits once
  on its final partitions (``exchange.to_dataset``, which logs a stalled
  chain by name).
- :func:`minhash_lsh_candidates_ds` / :func:`ngram_jaccard_dups` — the
  kernel over the documents: LSH candidates, then verified by exact 3-gram
  Jaccard >= tau, all as Ray stages (no driver-side corpus read). Band
  config (r=2, b=32) puts the miss probability for a true tau=0.8 pair
  below 1e-14, so the result equals the exact all-pairs answer (the DuckDB
  oracle computes all-pairs).
- :func:`simhash_ds` / :func:`simhash_dups` — 64-bit simhash; pairs within
  Hamming distance k via 4-way 16-bit band blocking (exhaustive for k <= 3
  by pigeonhole) + exact popcount verify, all as partition-exchange stages
  (``stages/exchange.py`` — hash exchange, no sort shuffle).
  The token hash is the low 64 bits of md5 so the whole operator has an
  exact DuckDB twin (``md5_number_lower`` + ``bit_count(xor(..))``).
- :func:`embedding_dups` — EXACT cosine near-dup pairs over ``embeddings``
  via a block-pair task grid (each task compares two blocks; no
  full-matrix broadcast). :func:`embedding_dups_lsh` is the approximate
  100 TB path: random-hyperplane buckets, within-bucket verify.

Pair outputs are (docid_a < docid_b) int64 pairs, deterministic.
"""

from __future__ import annotations

import hashlib
import logging
import os

import numpy as np
import polars as pl
import pyarrow as pa
import pyarrow.compute as pc

from web_search_engine_ray.functions.arrays import list_matrix
from web_search_engine_ray.functions.tokenize import token_lists
from web_search_engine_ray.sources.documents import read_docs as _read_docs
from web_search_engine_ray.sources.documents import read_docs_refs
from web_search_engine_ray.stages.exchange import (
    arrow_refs,
    chain_parts,
    hash_route,
    map_refs,
    read_refs,
    to_dataset,
)

logger = logging.getLogger(__name__)

MINHASH_PERMS = 64
LSH_ROWS = 2  # rows per band
LSH_BANDS = 32
SHINGLE_K = 3


def _col(t: pa.Table, name: str, dtype=np.int64) -> np.ndarray:
    """Numeric column -> contiguous numpy array (no Python-object detour)."""
    return (
        t[name].combine_chunks().to_numpy(zero_copy_only=False).astype(dtype, copy=False)
    )


# ---------------------------------------------------------------- exact


def text_hash_column(
    texts: pa.Array | pa.ChunkedArray, hash_fn: str = "md5"
) -> pa.Array:
    """Content-hash column for exact dedup / curation.

    - ``"md5"`` (default): hex md5 per row — the oracle-checked path (md5
      is the only hash this engine and DuckDB share) and 128-bit, so
      collision-safe at any corpus size. Per-row Python loop, but each
      digest runs at C speed.
    - ``"fast"``: polars' vectorized 64-bit hash (``pl.Series.hash``) —
      no per-row interpreter work. 64 bits means birthday collisions
      become likely past ~10^9 docs, and a collision silently merges two
      distinct docs; use it for throughput-bound pipeline work, keep md5
      for archival dedup and anything oracle-compared.

    NULL text hashes to the literal key ``"NULL"`` (not a 32-char hex
    digest, so it cannot collide with any real md5): all NULL-text docs
    form ONE group, SEPARATE from empty-string docs — exactly SQL's
    ``GROUP BY md5(text)``, where ``md5(NULL)`` is NULL and NULLs group
    together. (Polars' hash already keeps null distinct from "" on the
    fast path.)"""
    if hash_fn == "md5":
        return pa.array(
            [
                "NULL"
                if t is None
                else hashlib.md5(t.encode("utf-8")).hexdigest()
                for t in texts.to_pylist()
            ],
            pa.string(),
        )
    if hash_fn == "fast":
        s = pl.from_arrow(texts)
        if isinstance(s, pl.DataFrame):  # pragma: no cover - defensive
            s = s.to_series(0)
        return pa.array(s.hash(seed=7).to_numpy(), pa.uint64())
    raise ValueError(f"unknown hash_fn {hash_fn!r} (use 'md5' or 'fast')")


def exact_dedup_ds(sf_dir: str, hash_fn: str = "md5"):
    """(text_hash, docid): content hash of raw text -> min doc_id survivor
    per group. ``hash_fn`` picks the hashing path (see
    :func:`text_hash_column`); md5 stays the oracle-checked default.

    The shuffle is a partition hash exchange on the content hash (the key is
    already uniform — no skew) with a local polars min per partition; one
    (hash, docid) row per doc moves, never the text."""
    from web_search_engine_ray.stages.exchange import aggregate

    text_hash_column(pa.array([], pa.string()), hash_fn)  # validate eagerly
    hash_type = pa.string() if hash_fn == "md5" else pa.uint64()

    def hash_batch(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "text_hash": text_hash_column(batch["text"], hash_fn),
                "docid": batch["doc_id"].cast(pa.int64()),
            }
        )

    def merge(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .group_by("text_hash")
            .agg(pl.col("docid").min())
            .to_arrow()
            .select(["text_hash", "docid"])
            .cast(pa.schema([("text_hash", hash_type), ("docid", pa.int64())]))
        )

    refs = aggregate(read_docs_refs(sf_dir), hash_batch, "text_hash", merge)
    return to_dataset("exact_dedup_ds", refs)


# ------------------------------------------------------------- hashing core


# 0-d ARRAY constants produce bit-identical uint64 results to np.uint64
# scalars and dodge value-based-casting ambiguity. (An apparent large
# scalar-add slowdown once measured here was a contended-host artifact —
# see BASELINE.md "Same-code noise band"; warmed interleaved benchmarks
# time both forms identically, so do NOT chase this pattern elsewhere.)
_SM_A = np.array(0x9E3779B97F4A7C15, dtype=np.uint64)
_SM_B = np.array(0xBF58476D1CE4E5B9, dtype=np.uint64)
_SM_C = np.array(0x94D049BB133111EB, dtype=np.uint64)
_SM_S30 = np.array(30, dtype=np.uint64)
_SM_S27 = np.array(27, dtype=np.uint64)
_SM_S31 = np.array(31, dtype=np.uint64)


def _splitmix(x: np.ndarray) -> np.ndarray:
    z = (x + _SM_A).astype(np.uint64)
    z = (z ^ (z >> _SM_S30)) * _SM_B
    z = (z ^ (z >> _SM_S27)) * _SM_C
    return z ^ (z >> _SM_S31)


_TOKEN_HASH_CACHE: dict[str, int] = {}


_TOKEN_CACHE_MAX = 1_000_000  # bound resident vocab in long-lived workers


def _token_hashes(tokens: list[str]) -> np.ndarray:
    """Deterministic u64 per token, memoized — the corpus vocabulary is tiny
    relative to the token stream. The hash is the LOW 64 bits of md5 (bytes
    8..16, little-endian), chosen because it equals DuckDB's
    ``md5_number_lower`` so simhash gets an exact SQL twin."""
    cache = _TOKEN_HASH_CACHE
    out = np.empty(len(tokens), dtype=np.uint64)
    for i, t in enumerate(tokens):
        h = cache.get(t)
        if h is None:
            h = int.from_bytes(hashlib.md5(t.encode()).digest()[8:16], "little")
            if len(cache) >= _TOKEN_CACHE_MAX:
                cache.clear()
            cache[t] = h
        out[i] = h
    return out


def _shingle_hashes(tokens: list[str], k: int = SHINGLE_K) -> np.ndarray:
    """Deterministic u64 hash per distinct k-token shingle, vectorized:
    position-weighted combine of the token hashes, then one splitmix pass."""
    if len(tokens) < k:
        return np.empty(0, dtype=np.uint64)
    th = _token_hashes(tokens)
    acc = np.zeros(len(tokens) - k + 1, dtype=np.uint64)
    for j in range(k):
        acc += th[j : len(tokens) - k + 1 + j] * np.uint64(0x100000001B3) ** np.uint64(j)
    return np.unique(_splitmix(acc))


def _positional_shingle_hashes(tokens: list[str], k: int) -> np.ndarray:
    """Like :func:`_shingle_hashes` but one hash PER POSITION (no distinct
    collapse) — duplicated-span detection needs every occurrence."""
    if len(tokens) < k:
        return np.empty(0, dtype=np.uint64)
    th = _token_hashes(tokens)
    acc = np.zeros(len(tokens) - k + 1, dtype=np.uint64)
    for j in range(k):
        acc += th[j : len(tokens) - k + 1 + j] * np.uint64(0x100000001B3) ** np.uint64(j)
    return _splitmix(acc)


_MINHASH_CHUNK_SHINGLES = 32_768  # caps a chunk's (shingles x perms) matrix at 16 MB
_MINHASH_TILE_ROWS = 256  # splitmix tile: 256 x 64 perms x 8 B = 128 KB, cache-sized


def _splitmix_rows(uniq: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """(uniq.size, seeds.size) row-major ``_splitmix(uniq[i] ^ seeds[p])``,
    bit-identical to the vectorized form but computed in place over
    cache-sized row tiles, so the only full-size array is the result."""
    h = np.empty((uniq.size, seeds.size), dtype=np.uint64)
    tmp = np.empty((_MINHASH_TILE_ROWS, seeds.size), dtype=np.uint64)
    for r in range(0, uniq.size, _MINHASH_TILE_ROWS):
        z = h[r : r + _MINHASH_TILE_ROWS]
        t = tmp[: z.shape[0]]
        np.bitwise_xor(uniq[r : r + _MINHASH_TILE_ROWS, None], seeds, out=z)
        z += _SM_A
        for shift, mul in ((_SM_S30, _SM_B), (_SM_S27, _SM_C)):
            np.right_shift(z, shift, out=t)
            z ^= t
            z *= mul
        np.right_shift(z, _SM_S31, out=t)
        z ^= t
    return h


def _batch_signatures(toks: list[list[str] | None], nperm: int = MINHASH_PERMS) -> np.ndarray:
    """(n_docs, nperm) minhash matrix for a whole batch, vectorized.

    The permuted hashes are computed over the batch's UNIQUE shingle values
    only (templated corpora repeat shingles massively across docs — the
    splitmix work would otherwise be paid once per occurrence) as a
    (unique shingles x nperm) row-major matrix (:func:`_splitmix_rows`),
    then its rows are gathered per occurrence and reduced per doc with
    ``np.minimum.reduceat(axis=0)``. Docs are processed in ~32k-shingle
    chunks, so a task's transient memory (two 16 MB matrices) does not grow
    with its block size."""
    sh_per_doc = [_shingle_hashes(t or []) for t in toks]
    lens = np.array([s.size for s in sh_per_doc], dtype=np.int64)
    sigs = np.full((len(toks), nperm), np.iinfo(np.uint64).max, dtype=np.uint64)
    nz = np.flatnonzero(lens)
    if nz.size == 0:
        return sigs
    seeds = _splitmix(np.arange(1, nperm + 1, dtype=np.uint64))
    lo = 0
    while lo < nz.size:
        hi = lo + 1
        total = lens[nz[lo]]
        while hi < nz.size and total + lens[nz[hi]] <= _MINHASH_CHUNK_SHINGLES:
            total += lens[nz[hi]]
            hi += 1
        sel = nz[lo:hi]
        allsh = np.concatenate([sh_per_doc[i] for i in sel])
        uniq, inv = np.unique(allsh, return_inverse=True)
        starts = np.zeros(sel.size, dtype=np.int64)
        np.cumsum(lens[sel][:-1], out=starts[1:])
        sigs[sel] = np.minimum.reduceat(_splitmix_rows(uniq, seeds)[inv], starts, axis=0)
        lo = hi
    return sigs


def _band_hashes(sigs: np.ndarray) -> np.ndarray:
    """(n_docs, LSH_BANDS) u64 bucket hash per band (combine the band's rows
    with a position-weighted splitmix)."""
    n = sigs.shape[0]
    bands = sigs.reshape(n, LSH_BANDS, LSH_ROWS)
    acc = np.zeros((n, LSH_BANDS), dtype=np.uint64)
    for j in range(LSH_ROWS):
        acc += bands[:, :, j] * np.uint64(0x9E3779B1) ** np.uint64(j + 1)
    return _splitmix(acc)


# -------------------------------------------------- vectorized bucket pairs


_TRIU_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
# memoize only small sizes: an entry is ~8*n^2 bytes, so n<=128 caps the
# whole cache at ~33 MB in a long-lived worker; bigger buckets are rare and
# recomputing their indices is trivial next to the O(n^2) pair work itself
_TRIU_CACHE_MAX_N = 128


def _triu(n: int) -> tuple[np.ndarray, np.ndarray]:
    got = _TRIU_CACHE.get(n)
    if got is None:
        got = np.triu_indices(n, k=1)
        if n <= _TRIU_CACHE_MAX_N and len(_TRIU_CACHE) < 256:
            _TRIU_CACHE[n] = got
    return got


def _intra_bucket_pairs(
    keys: tuple[np.ndarray, ...], doc: np.ndarray, max_bucket: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """All (doc_i, doc_j) pairs sharing every key column, i<j by docid.

    Vectorized: one lexsort, bucket boundaries by key change, then
    ``np.triu_indices`` per multi-occupancy bucket (indices memoized by
    size). ``max_bucket`` guards pathological skew (e.g. thousands of
    identical short docs landing in one bucket -> O(b^2) pairs): oversized
    buckets are truncated to their ``max_bucket`` smallest docids and LOGGED
    — never silently. Default None = exact (no cap)."""
    if doc.size == 0:
        e = np.empty(0, dtype=np.int64)
        return e, e
    order = np.lexsort((doc,) + tuple(reversed(keys)))
    doc = doc[order]
    change = np.zeros(doc.size, dtype=bool)
    for k in keys:
        ks = k[order]
        change[1:] |= ks[1:] != ks[:-1]
    change[0] = True
    bounds = np.append(np.flatnonzero(change), doc.size)
    a_parts, b_parts = [], []
    for bi in range(len(bounds) - 1):
        lo, hi = int(bounds[bi]), int(bounds[bi + 1])
        s = hi - lo
        if s < 2:
            continue
        if max_bucket is not None and s > max_bucket:
            logger.warning(
                "dedup bucket of size %d truncated to %d (skew guard)", s, max_bucket
            )
            hi = lo + max_bucket
            s = max_bucket
        ii, jj = _triu(s)
        ids = doc[lo:hi]
        a_parts.append(ids[ii])
        b_parts.append(ids[jj])
    if not a_parts:
        e = np.empty(0, dtype=np.int64)
        return e, e
    return (
        np.concatenate(a_parts).astype(np.int64),
        np.concatenate(b_parts).astype(np.int64),
    )


# -------------------------------------------------------- near-dup kernel
#
# One copy of "key -> bucket -> pairs -> distinct -> verify" for every id
# type: int64 docids and string conv_ids run the same code. Ids stay Arrow
# columns end to end; a partition fn that needs them as numbers factorizes
# them with ``np.unique(..., return_inverse=True)``, whose codes sort like
# the ids, so ``a < b`` means the same for int and string ids.


def _id_column(t: pa.Table, col: str) -> pa.ChunkedArray:
    """Id column in its exchange type: integer ids widen to int64, string
    ids become ``string`` — so request, corpus and pair rows of one
    exchange always concatenate."""
    c = t[col]
    return c.cast(pa.int64() if pa.types.is_integer(c.type) else pa.string())


def _text_signatures(col: pa.ChunkedArray) -> np.ndarray:
    """(n, MINHASH_PERMS) signatures of a text column, each distinct text
    signed once and gathered (min over a multiset == min over its set, so
    the gathered signatures are bit-identical). Wins on templated corpora
    with repeated whole texts; ~free otherwise (one string sort per batch).
    Turn-level dictionary encoding was investigated and rejected — see
    BASELINE.md round-5 notes (the per-chunk unique-shingle pass in
    _batch_signatures already captures cross-text shingle repetition)."""
    col = col.combine_chunks()
    if col.null_count == 0 and len(col):
        uniq, inv = np.unique(col.to_numpy(zero_copy_only=False), return_inverse=True)
        if uniq.size < len(col):
            utoks = token_lists(pa.array(uniq, pa.string())).to_list()
            return _batch_signatures(utoks)[inv]
    return _batch_signatures(token_lists(col).to_list())


def _minhash_pairs(refs, id_col, text_col, pair_cols, n_parts, max_bucket=None):
    """Block refs of the candidate near-dup pairs ``(a, b)``, a < b, from
    banded minhash LSH over the (``id_col``, ``text_col``) rows of the
    blocks ``refs``; ``pair_cols`` names the output columns.

    shingle -> minhash -> band -> hash exchange on the band hash -> pairs
    within each bucket (vectorized lexsort + triu, ``max_bucket`` the logged
    skew guard) -> :func:`_distinct_pairs`, since one pair can share several
    bands. The exchange moves (band, hash, id) rows only, never the text."""
    from web_search_engine_ray.stages.exchange import exchange_map

    a_col, b_col = pair_cols

    def to_bands(t: pa.Table) -> pa.Table:
        bh = _band_hashes(_text_signatures(t[text_col]))
        n = t.num_rows
        return pa.table(
            {
                "band": pa.array(np.tile(np.arange(LSH_BANDS, dtype=np.int32), n)),
                "bhash": pa.array((bh.reshape(-1) >> np.uint64(1)).astype(np.int64)),
                "id": _id_column(t, id_col).take(
                    pa.array(np.repeat(np.arange(n), LSH_BANDS))
                ),
            }
        )

    def pair_buckets(t: pa.Table) -> pa.Table:
        """One coarse hash partition: every bucket in it paired at once."""
        ids = t["id"]
        _, first, codes = np.unique(
            ids.to_numpy(), return_index=True, return_inverse=True
        )
        a, b = _intra_bucket_pairs(
            (_col(t, "band"), _col(t, "bhash")), codes, max_bucket=max_bucket
        )
        return pa.table(
            {a_col: ids.take(pa.array(first[a])), b_col: ids.take(pa.array(first[b]))}
        )

    pairs = exchange_map(
        map_refs(to_bands, refs), hash_route("bhash", n_parts), n_parts,
        pair_buckets,
    )
    return _distinct_pairs(pairs, a_col, b_col, n_parts)


def _distinct_pairs(refs, a_col, b_col, n_parts):
    """Block refs of one row per distinct (``a_col``, ``b_col``) pair of the
    blocks ``refs``, through one hash exchange on ``a_col`` at the chain's
    ``n_parts``. Other columns ride along, and any one row of a pair is
    kept — valid because every payload the callers carry (hamming, cos) is a
    function of the pair."""
    from web_search_engine_ray.stages.exchange import exchange_map

    def dedup_pairs(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .unique(subset=[a_col, b_col], keep="first", maintain_order=True)
            .to_arrow()
            .cast(t.schema)
        )

    return exchange_map(refs, hash_route(a_col, n_parts), n_parts, dedup_pairs)


def _verified_pairs(cand, corpus, id_col, text_col, pair_cols, metric, tau, n_parts):
    """Block refs of the candidate pairs (block refs ``cand``) whose exact
    3-gram set similarity over the corpus blocks ``corpus`` clears ``tau``:
    ``(a, b, <metric>)`` rows, ``metric`` either ``"jaccard"``
    (inter / union) or ``"containment"`` (inter / min size). Fully
    distributed — nothing is collected to the driver — as two hash
    exchanges over union relations (a union is a list of block refs):

    1. **Semi-join exchange on the id.** Input is the union of *request*
       rows — two per candidate pair, tagging each endpoint with the pair's
       verify partition ``p = hash(a) % n_parts`` — and the corpus rows
       (``p = -1``). The partition fn inner-joins distinct requests against
       its corpus slice on the id (exact, no hash-collision exposure),
       shingles each requested doc ONCE (``_shingle_hashes``) and fans its
       set out per partition with a vectorized offset gather: a doc in m
       pairs of one partition ships its set once. Non-candidate docs are
       never tokenized.
    2. **Verify exchange on p.** Input is the union of the shingle rows and
       the pair rows (same schema; a null ``id`` marks a pair row). The
       partition fn factorizes its ids, decodes the shingle ListArray into
       one u64 buffer + offsets (zero-copy), and counts the intersection of
       each pair's sorted-unique sets by membership."""
    from web_search_engine_ray.stages.exchange import exchange_map

    a_col, b_col = pair_cols
    pair_p = hash_route(a_col, n_parts)

    def requests(t: pa.Table) -> pa.Table:
        p = pl.Series("p", pair_p(t))
        req = pl.concat(
            [
                pl.DataFrame({"id": pl.from_arrow(t[a_col]), "p": p}),
                pl.DataFrame({"id": pl.from_arrow(t[b_col]), "p": p}),
            ]
        ).unique()  # clone-heavy corpora repeat endpoints across pairs
        return pa.table(
            {
                "id": req["id"].to_arrow().cast(t.schema.field(a_col).type),
                "p": pa.array(req["p"].to_numpy(), pa.int64()),
                "text": pa.nulls(req.height, pa.string()),
            }
        )

    def corpus_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "id": _id_column(t, id_col),
                "p": pa.array(np.full(t.num_rows, -1, np.int64)),
                "text": t[text_col].cast(pa.string()),
            }
        )

    def join_shingles(t: pa.Table) -> pa.Table:
        """Semi-join one id partition: requests ⋉ corpus -> shingle rows."""
        id_type = t.schema.field("id").type
        is_req = pa.array(_col(t, "p") >= 0)
        need = (
            pl.from_arrow(t.filter(is_req).select(["id", "p"]))
            .unique()
            .join(
                pl.from_arrow(t.filter(pc.invert(is_req)).select(["id", "text"])),
                on="id",
                how="inner",
            )
            .sort(["id", "p"])
        )
        docs = need.unique(subset="id", maintain_order=True)
        sh_per_doc = [
            _shingle_hashes(tl or [])
            for tl in token_lists(docs["text"].to_arrow()).to_list()
        ]
        doc_lens = np.array([r.size for r in sh_per_doc], dtype=np.int64)
        doc_offs = np.zeros(doc_lens.size + 1, dtype=np.int64)
        np.cumsum(doc_lens, out=doc_offs[1:])
        doc_values = (
            np.concatenate(sh_per_doc) if sh_per_doc else np.empty(0, dtype=np.uint64)
        )
        # need row -> its docs row: docs holds need's ids in the same
        # (sorted) order, once each
        idx = np.searchsorted(docs["id"].to_numpy(), need["id"].to_numpy())
        lens = doc_lens[idx]
        offsets = np.zeros(lens.size + 1, dtype=np.int64)
        np.cumsum(lens, out=offsets[1:])
        pos = (
            np.repeat(doc_offs[idx], lens)
            + np.arange(int(offsets[-1]), dtype=np.int64)
            - np.repeat(offsets[:-1], lens)
        )
        n = need.height
        return pa.table(
            {
                "p": pa.array(need["p"].to_numpy(), pa.int64()),
                "id": need["id"].to_arrow().cast(id_type),
                "shingles": pa.LargeListArray.from_arrays(
                    pa.array(offsets, pa.int64()),
                    pa.array(doc_values[pos], pa.uint64()),
                ).cast(pa.list_(pa.uint64())),
                a_col: pa.nulls(n, id_type),
                b_col: pa.nulls(n, id_type),
            }
        )

    def pair_rows(t: pa.Table) -> pa.Table:
        id_type = t.schema.field(a_col).type
        return pa.table(
            {
                "p": pa.array(pair_p(t), pa.int64()),
                "id": pa.nulls(t.num_rows, id_type),
                "shingles": pa.nulls(t.num_rows, pa.list_(pa.uint64())),
                a_col: t[a_col],
                b_col: t[b_col],
            }
        )

    def verify(group: pa.Table) -> pa.Table:
        id_type = group.schema.field(a_col).type
        docs_t = group.filter(pc.is_valid(group["id"]))
        pairs_t = group.filter(pc.is_null(group["id"]))
        a_s = pairs_t[a_col].to_numpy()
        b_s = pairs_t[b_col].to_numpy()
        # factorize the partition's ids once; codes sort like the ids
        uniq, codes = np.unique(
            np.concatenate([a_s, b_s, docs_t["id"].to_numpy()]), return_inverse=True
        )
        a = codes[: a_s.size].astype(np.int64)
        b = codes[a_s.size : a_s.size + b_s.size].astype(np.int64)
        did = codes[a_s.size + b_s.size :].astype(np.int64)
        order = np.lexsort((b, a))
        a, b = a[order], b[order]
        sh = docs_t["shingles"].combine_chunks()
        if isinstance(sh, pa.ChunkedArray):  # num_chunks 0/1 after combine
            sh = sh.chunk(0) if sh.num_chunks else pa.array([], pa.list_(pa.uint64()))
        offs = sh.offsets.to_numpy()
        vals = sh.values.to_numpy(zero_copy_only=False)
        # id -> shingle row, vectorized (an id appears once per p)
        sorder = np.argsort(did, kind="stable")
        dsorted = did[sorder]

        def locate(x: np.ndarray) -> np.ndarray:
            if dsorted.size == 0:
                return np.full(x.size, -1, dtype=np.int64)
            p_ = np.searchsorted(dsorted, x)
            p_c = np.minimum(p_, dsorted.size - 1)
            ok = dsorted[p_c] == x
            return np.where(ok, sorder[p_c], -1)

        ia_all = locate(a)
        ib_all = locate(b)
        a_l, b_l, j_l = [], [], []
        for i in range(a.size):
            ra, rb = int(ia_all[i]), int(ib_all[i])
            sa = vals[offs[ra] : offs[ra + 1]] if ra >= 0 else vals[:0]
            sb = vals[offs[rb] : offs[rb + 1]] if rb >= 0 else vals[:0]
            if sa.size and sb.size:
                # both sorted unique (_shingle_hashes is np.unique output):
                # membership count beats intersect1d's concat+sort
                p_ = np.searchsorted(sa, sb)
                p_[p_ == sa.size] = sa.size - 1
                inter = int(np.count_nonzero(sa[p_] == sb))
            else:
                inter = 0
            denom = (
                min(sa.size, sb.size)
                if metric == "containment"
                else sa.size + sb.size - inter
            )
            if denom == 0:
                continue
            j = inter / denom
            if j >= tau:
                a_l.append(a[i])
                b_l.append(b[i])
                j_l.append(round(j, 6))
        return pa.table(
            {
                a_col: pa.array(uniq[np.asarray(a_l, np.int64)], id_type),
                b_col: pa.array(uniq[np.asarray(b_l, np.int64)], id_type),
                metric: pa.array(j_l, pa.float64()),
            }
        )

    shingle_rows = exchange_map(
        map_refs(requests, cand) + map_refs(corpus_rows, corpus),
        hash_route("id", n_parts), n_parts, join_shingles,
    )
    return exchange_map(shingle_rows + map_refs(pair_rows, cand), "p", n_parts, verify)


def minhash_lsh_candidates_ds(sf_dir: str, max_bucket: int | None = None):
    """Candidate near-dup pairs (docid_a, docid_b) from banded minhash LSH
    (:func:`_minhash_pairs` over the documents), with an optional logged
    skew guard (``max_bucket``)."""
    docs = read_docs_refs(sf_dir)
    pairs = _minhash_pairs(
        docs, "doc_id", "text", ("docid_a", "docid_b"), chain_parts(docs),
        max_bucket,
    )
    return to_dataset("minhash_lsh_candidates_ds", pairs)


def ngram_jaccard_dups(sf_dir: str, tau: float = 0.8, max_bucket: int | None = None):
    """(docid_a, docid_b, jaccard): pairs with exact 3-gram Jaccard >= tau —
    minhash LSH candidates (:func:`_minhash_pairs`) verified exactly by
    :func:`_verified_pairs`, fully distributed. ``max_bucket`` forwards the
    logged LSH skew guard (None = exact). Band config (r=2, b=32) keeps the
    miss probability for a true tau=0.8 pair below 1e-14, so the result
    equals the all-pairs answer the DuckDB oracle computes. The documents
    are read once; both stages consume the same blocks."""
    pair_cols = ("docid_a", "docid_b")
    docs = read_docs_refs(sf_dir)
    np_ = chain_parts(docs)
    cand = _minhash_pairs(docs, "doc_id", "text", pair_cols, np_, max_bucket)
    pairs = _verified_pairs(
        cand, docs, "doc_id", "text", pair_cols, "jaccard", tau, np_
    )
    return to_dataset("ngram_jaccard_dups", pairs)


# ---------------------------------------------------------------- simhash


_BIT_SHIFTS = np.arange(64, dtype=np.uint64)
_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount for a uint64 array (numpy<2 has no bitwise_count)."""
    return _POP8[x.view(np.uint8)].reshape(x.size, 8).sum(axis=1).astype(np.int64)


_SIMHASH_CHUNK_TOKENS = 262_144  # bounds the transient bit matrix at ~64 MB


def _simhash_batch(toks: list[list[str] | None]) -> np.ndarray:
    """(n_docs,) uint64 simhash per doc, vectorized across the batch:
    concatenate token hashes, expand to a (tokens, 64) bit matrix, per-doc
    bit sums via ``np.add.reduceat``, majority vote per bit. Duplicate
    tokens vote once per occurrence; empty docs hash to 0. Docs are
    processed in chunks of ~256k tokens so the transient int32 bit matrix
    stays ~64 MB regardless of batch size (32 concurrent tasks x unbounded
    batches would otherwise stack multi-GB allocations)."""
    th = [_token_hashes(t or []) for t in toks]
    lens = np.array([x.size for x in th], dtype=np.int64)
    out = np.zeros(len(toks), dtype=np.uint64)
    nz = np.flatnonzero(lens)
    if nz.size == 0:
        return out
    lo = 0
    while lo < nz.size:
        hi = lo + 1
        tok_total = lens[nz[lo]]
        while hi < nz.size and tok_total + lens[nz[hi]] <= _SIMHASH_CHUNK_TOKENS:
            tok_total += lens[nz[hi]]
            hi += 1
        sel = nz[lo:hi]
        allh = np.concatenate([th[i] for i in sel])
        bits = ((allh[:, None] >> _BIT_SHIFTS[None, :]) & np.uint64(1)).astype(
            np.int32
        )
        starts = np.zeros(sel.size, dtype=np.int64)
        np.cumsum(lens[sel][:-1], out=starts[1:])
        ones = np.add.reduceat(bits, starts, axis=0)  # (chunk_docs, 64)
        votes = 2 * ones - lens[sel][:, None]
        out[sel] = ((votes > 0).astype(np.uint64) << _BIT_SHIFTS[None, :]).sum(
            axis=1, dtype=np.uint64
        )
        lo = hi
    return out


def simhash_ds(sf_dir: str):
    """(docid, simhash) per document (int64 bit-cast of the u64 hash)."""

    def f(batch: pa.Table) -> pa.Table:
        toks = token_lists(batch["text"]).to_list()
        sh = _simhash_batch(toks)
        return pa.table(
            {
                "docid": batch["doc_id"].cast(pa.int64()),
                "simhash": pa.array(sh.view(np.int64), pa.int64()),
            }
        )

    return _read_docs(sf_dir).map_batches(f, batch_format="pyarrow")


def simhash_dups(sf_dir: str, max_hamming: int = 3, max_bucket: int | None = None):
    """Pairs within Hamming distance <= max_hamming of 64-bit simhash.

    Fully distributed: candidate generation by 4-way 16-bit band blocking (a
    pair within distance 3 shares at least one of 4 bands — pigeonhole, so
    the banded answer is EXACT for max_hamming <= 3), candidates paired
    vectorized inside a partition hash exchange, popcount verify on u64
    arrays, then a pair-keyed groupby dedupes across bands. No driver-side
    materialization of the hash relation."""

    def to_bands(batch: pa.Table) -> pa.Table:
        toks = token_lists(batch["text"]).to_list()
        ids = _col(batch, "doc_id", np.int64)
        sh = _simhash_batch(toks)
        n = ids.size
        bands = np.tile(np.arange(4, dtype=np.int32), n)
        keys = np.empty(4 * n, dtype=np.int64)
        for band in range(4):
            keys[band::4] = ((sh >> np.uint64(band * 16)) & np.uint64(0xFFFF)).astype(
                np.int64
            )
        return pa.table(
            {
                "band": pa.array(bands),
                "bkey": pa.array(keys, pa.int64()),
                "docid": pa.array(np.repeat(ids, 4), pa.int64()),
                "simhash": pa.array(np.repeat(sh.view(np.int64), 4), pa.int64()),
            }
        )

    def band_pairs(group: pa.Table) -> pa.Table:
        """Intra-bucket candidate pairs, computed over DISTINCT simhash
        values: corpora with big duplicate clusters put thousands of docs
        with the SAME hash into one bucket, and the naive b^2 popcount dies
        long before the (inherently quadratic) output does. Here the
        popcount runs on u^2 distinct-value pairs (u << b for clique-heavy
        buckets) and doc pairs are expanded only for value pairs that pass
        the hamming test — i.e. work scales with distinct values plus the
        true output size. ``max_bucket`` still truncates oversized buckets
        to their smallest docids (logged)."""
        band = _col(group, "band", np.int64)
        bkey = _col(group, "bkey", np.int64)
        doc = _col(group, "docid", np.int64)
        sh = _col(group, "simhash", np.int64)
        out_a, out_b, out_h = [], [], []
        if doc.size:
            order = np.lexsort((doc, sh, bkey, band))
            band, bkey, doc, sh = band[order], bkey[order], doc[order], sh[order]
            change = np.zeros(doc.size, dtype=bool)
            change[0] = True
            change[1:] = (band[1:] != band[:-1]) | (bkey[1:] != bkey[:-1])
            bounds = np.append(np.flatnonzero(change), doc.size)
            for bi in range(len(bounds) - 1):
                lo_i, hi_i = int(bounds[bi]), int(bounds[bi + 1])
                s = hi_i - lo_i
                if s < 2:
                    continue
                d = doc[lo_i:hi_i]
                h = sh[lo_i:hi_i]
                if max_bucket is not None and s > max_bucket:
                    logger.warning(
                        "simhash bucket of size %d truncated to %d (skew guard)",
                        s,
                        max_bucket,
                    )
                    keep_idx = np.argpartition(d, max_bucket - 1)[:max_bucket]
                    d, h = d[keep_idx], h[keep_idx]
                    o = np.argsort(h, kind="stable")
                    d, h = d[o], h[o]
                    s = max_bucket
                # runs of identical simhash (docs sorted by (sh, doc))
                vstart = np.append(
                    np.flatnonzero(np.diff(h, prepend=h[0] - 1)), s
                )
                u = vstart.size - 1
                vals = h[vstart[:-1]].view(np.uint64)
                # cliques: identical hash -> hamming 0, all member pairs
                for vi in range(u):
                    a0, b0 = int(vstart[vi]), int(vstart[vi + 1])
                    if b0 - a0 >= 2:
                        ii, jj = _triu(b0 - a0)
                        dd = np.sort(d[a0:b0])
                        out_a.append(dd[ii])
                        out_b.append(dd[jj])
                        out_h.append(np.zeros(ii.size, dtype=np.int64))
                # cross-value: popcount on u^2 distinct pairs only
                if u >= 2:
                    vi, vj = _triu(u)
                    ham = _popcount64(vals[vi] ^ vals[vj])
                    ok = ham <= max_hamming
                    for pi_, pj_, hm in zip(vi[ok], vj[ok], ham[ok]):
                        da = d[vstart[pi_] : vstart[pi_ + 1]]
                        db = d[vstart[pj_] : vstart[pj_ + 1]]
                        aa = np.repeat(da, db.size)
                        bb = np.tile(db, da.size)
                        out_a.append(np.minimum(aa, bb))
                        out_b.append(np.maximum(aa, bb))
                        out_h.append(np.full(aa.size, int(hm), dtype=np.int64))
        if not out_a:
            return pa.table(
                {
                    "docid_a": pa.array([], pa.int64()),
                    "docid_b": pa.array([], pa.int64()),
                    "hamming": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                "docid_a": pa.array(np.concatenate(out_a), pa.int64()),
                "docid_b": pa.array(np.concatenate(out_b), pa.int64()),
                "hamming": pa.array(np.concatenate(out_h), pa.int64()),
            }
        )

    from web_search_engine_ray.stages.exchange import exchange_map

    refs = read_docs_refs(sf_dir)
    np_ = chain_parts(refs)
    pairs = exchange_map(
        map_refs(to_bands, refs),
        lambda t: (_col(t, "bkey") + _col(t, "band") * 65536) % np_,
        np_,
        band_pairs,
    )
    return to_dataset("simhash_dups", _distinct_pairs(pairs, "docid_a", "docid_b", np_))


# ---------------------------------------------------------------- embedding


_EMPTY_EMB_PAIRS = pa.table(
    {
        "vec_id_a": pa.array([], pa.int64()),
        "vec_id_b": pa.array([], pa.int64()),
        "cos": pa.array([], pa.float64()),
    }
)


def embedding_dups(sf_dir: str, tau: float = 0.45):
    """EXACT embedding-cosine near-dup pairs (vec_id_a < vec_id_b,
    cos >= tau), distributed as a block-pair grid.

    The normalized matrix is produced as Dataset blocks (one ``map_batches``
    pass, FixedSizeList float64 so block->numpy is zero-copy); then one Ray
    task per block pair (i <= j) computes that tile of the cosine matrix
    and emits only qualifying pairs. Memory per task = 2 blocks; nothing is
    broadcast whole, the driver only collects the (output-scale) pairs.
    O(B^2) tiles is the exact-answer cost — :func:`embedding_dups_lsh` is
    the approximate path that prunes tiles via hyperplane buckets."""
    import ray

    def normalize(batch: pa.Table) -> pa.Table:
        V = list_matrix(batch["embedding"])
        Vn = V / np.maximum(np.linalg.norm(V, axis=1, keepdims=True), 1e-12)
        d = Vn.shape[1] if Vn.ndim == 2 else 0
        return pa.table(
            {
                "vec_id": batch["vec_id"].cast(pa.int64()),
                "emb": pa.FixedSizeListArray.from_arrays(
                    pa.array(Vn.reshape(-1), pa.float64()), d
                ),
            }
        )

    refs = map_refs(normalize, _emb_refs(sf_dir))

    @ray.remote
    def tile(ta: pa.Table, tb: pa.Table, same: bool) -> pa.Table:
        ia = np.asarray(ta["vec_id"].to_numpy(zero_copy_only=False), dtype=np.int64)
        ib = np.asarray(tb["vec_id"].to_numpy(zero_copy_only=False), dtype=np.int64)
        A = list_matrix(ta["emb"])
        B = list_matrix(tb["emb"])
        sims = A @ B.T
        ai, bi = np.nonzero(sims >= tau)
        da, db = ia[ai], ib[bi]
        keep = da != db
        if same:
            keep &= da < db
        da, db, s = da[keep], db[keep], sims[ai, bi][keep]
        lo = np.minimum(da, db)
        hi = np.maximum(da, db)
        return pa.table(
            {
                "vec_id_a": pa.array(lo, pa.int64()),
                "vec_id_b": pa.array(hi, pa.int64()),
                "cos": pa.array(np.round(s, 6), pa.float64()),
            }
        )

    futures = []
    for i in range(len(refs)):
        for j in range(i, len(refs)):
            futures.append(tile.remote(refs[i], refs[j], i == j))
    parts = [t for t in ray.get(futures) if t.num_rows]
    if not parts:
        return pa.table(
            {
                "vec_id_a": pa.array([], pa.int64()),
                "vec_id_b": pa.array([], pa.int64()),
                "cos": pa.array([], pa.float64()),
            }
        )
    out = pa.concat_tables(parts)
    order = np.lexsort(
        (
            _col(out, "vec_id_b", np.int64),
            _col(out, "vec_id_a", np.int64),
        )
    )
    return out.take(pa.array(order))


def _lsh_bucket_matrix(batch: pa.Table, n_planes: int, n_reps: int):
    """(ids, Vn, bucks): normalized vectors + per-rep sign-pattern buckets
    for one batch — shared by the cardinality pre-pass and the bucketize
    stage so both see identical bucket assignments."""
    Vn = list_matrix(batch["embedding"])
    Vn = Vn / np.maximum(np.linalg.norm(Vn, axis=1, keepdims=True), 1e-12)
    n, dim = Vn.shape
    bucks = np.empty((n_reps, n), dtype=np.int64)
    for rep in range(n_reps):
        rng = np.random.Generator(np.random.Philox(key=12345 + rep))
        planes = rng.standard_normal((n_planes, dim))
        bucks[rep] = (Vn @ planes.T > 0) @ (1 << np.arange(n_planes))
    return _col(batch, "vec_id", np.int64), Vn, bucks


def _emb_lsh_bucket_rows(
    refs: list,
    n_planes: int,
    n_reps: int,
    prune_singletons: bool,
    f32: bool = True,
) -> list:
    """Block refs of the (rep, bucket, vec_id, emb) rows that enter the
    bucket exchange, from the (vec_id, embedding) blocks ``refs`` —
    factored out so :func:`emb_lsh_shuffle_bytes` can measure exactly what
    :func:`embedding_dups_lsh` ships. ``f32=False`` keeps the legacy f64
    transport for A/B byte measurement."""
    import ray

    multi_ref = None
    if prune_singletons:

        def count_buckets(batch: pa.Table) -> pa.Table:
            _, _, bucks = _lsh_bucket_matrix(batch, n_planes, n_reps)
            rep = np.repeat(np.arange(n_reps, dtype=np.int64), bucks.shape[1])
            key = rep * (1 << n_planes) + bucks.reshape(-1)
            uniq, cnt = np.unique(key, return_counts=True)
            return pa.table(
                {
                    "key": pa.array(uniq, pa.int64()),
                    "cnt": pa.array(cnt, pa.int64()),
                }
            )

        counts = (
            pa.concat_tables(ray.get(map_refs(count_buckets, refs)))
            .to_pandas()  # <= n_reps * 2^n_planes rows per block — tiny
            .groupby("key")["cnt"]
            .sum()
        )
        multi_ref = ray.put(
            np.sort(counts.index.to_numpy()[counts.to_numpy() >= 2])
        )

    def bucketize(batch: pa.Table) -> pa.Table:
        ids, Vn, bucks = _lsh_bucket_matrix(batch, n_planes, n_reps)
        n, dim = Vn.shape
        rep = np.repeat(np.arange(n_reps, dtype=np.int64), n)
        bucket = bucks.reshape(-1)
        vid = np.tile(ids, n_reps)
        emb = np.tile(Vn.astype(np.float32) if f32 else Vn, (n_reps, 1))
        if multi_ref is not None:
            keep = np.isin(rep * (1 << n_planes) + bucket, ray.get(multi_ref))
            rep, bucket, vid = rep[keep], bucket[keep], vid[keep]
            emb = emb[keep]
        return pa.table(
            {
                "rep": pa.array(rep.astype(np.int32), pa.int32()),
                "bucket": pa.array(bucket, pa.int64()),
                "vec_id": pa.array(vid, pa.int64()),
                "emb": pa.FixedSizeListArray.from_arrays(
                    pa.array(
                        emb.reshape(-1),
                        pa.float32() if f32 else pa.float64(),
                    ),
                    dim,
                ),
            }
        )

    return map_refs(bucketize, refs)


def _emb_refs(sf_dir: str) -> list:
    return read_refs(os.path.join(sf_dir, "embeddings.parquet"), ["vec_id", "embedding"])


def emb_lsh_shuffle_bytes(
    sf_dir: str,
    n_planes: int = 4,
    n_reps: int = 12,
    prune_singletons: bool = True,
    f32: bool = True,
) -> int:
    """Bytes entering the bucket exchange under a transport config — the
    A/B number BASELINE.md records (f64 no-prune vs f32 pruned)."""
    import ray

    rows = _emb_lsh_bucket_rows(_emb_refs(sf_dir), n_planes, n_reps, prune_singletons, f32)
    return int(sum(ray.get(map_refs(lambda t: t.nbytes, rows))))


def embedding_dups_lsh(
    sf_dir: str,
    tau: float = 0.45,
    n_planes: int = 4,
    n_reps: int = 12,
    prune_singletons: bool = True,
):
    """Approximate embedding near-dup pairs via banded random-hyperplane LSH.

    The 100 TB path: ``n_reps`` independent repetitions of an
    ``n_planes``-bit sign-pattern bucket (the minhash banding idea applied
    to hyperplanes). Each vector emits one (rep, bucket) row per
    repetition; pairs are verified EXACTLY (cosine >= tau) within buckets
    only, then deduped across repetitions by a pair-keyed groupby — so the
    result is always a subset of the exact :func:`embedding_dups` answer.
    A pair at cos = tau collides in one rep with p = (1 - theta/pi)^planes;
    missing all reps has p = (1-p)^reps (~2% for tau=0.45 with 4x12).
    Recall on the fixture is pinned in ``tests/test_dedup_ops.py``.
    Deterministic hyperplanes (Philox keyed by repetition).

    Shuffle-byte discipline (the exchange ships each vector once per rep —
    the inherent cost of inline verify): vectors travel as
    ``FixedSizeList<float32>`` (verify upcasts to float64; only the f32
    rounding of the inputs is lost, ~1e-7 in cos), and with
    ``prune_singletons`` a (rep, bucket) cardinality pre-pass — the count
    table is at most ``n_reps * 2**n_planes`` cells, merged on the driver —
    drops rows whose bucket has a single occupant before they ship (such
    rows can never form a pair). Measured byte totals per config are in
    ``BASELINE.md``."""

    def bucket_pairs(group: pa.Table) -> pa.Table:
        rep = _col(group, "rep", np.int64)
        bucket = _col(group, "bucket", np.int64)
        ids = _col(group, "vec_id", np.int64)
        M = list_matrix(group["emb"], np.float64)
        idx = np.arange(ids.size, dtype=np.int64)
        a_pos, b_pos = _intra_bucket_pairs((rep, bucket), idx)
        if a_pos.size == 0:
            return _EMPTY_EMB_PAIRS
        s = np.einsum("ij,ij->i", M[a_pos], M[b_pos])
        keep = (s >= tau) & (ids[a_pos] != ids[b_pos])
        da, db = ids[a_pos[keep]], ids[b_pos[keep]]
        lo, hi = np.minimum(da, db), np.maximum(da, db)
        return pa.table(
            {
                "vec_id_a": pa.array(lo, pa.int64()),
                "vec_id_b": pa.array(hi, pa.int64()),
                "cos": pa.array(np.round(s[keep], 6), pa.float64()),
            }
        )

    from web_search_engine_ray.stages.exchange import exchange_map

    refs = _emb_refs(sf_dir)
    np_ = chain_parts(refs)
    pairs = exchange_map(
        _emb_lsh_bucket_rows(refs, n_planes, n_reps, prune_singletons),
        lambda t: (_col(t, "bucket") + _col(t, "rep") * 131) % np_,
        np_,
        bucket_pairs,
    )
    return to_dataset("embedding_dups_lsh", _distinct_pairs(pairs, "vec_id_a", "vec_id_b", np_))


def holdout_contamination_ds(
    sf_dir: str, holdout_max_docid: int = 100, n: int = 8, scan_corpus=None
):
    """(docid, n_hits): benchmark decontamination — corpus documents sharing
    any n-token gram with the holdout set (docs with docid <
    ``holdout_max_docid``), n_hits = how many of the doc's DISTINCT n-grams
    appear in the holdout. The standard train/test-leakage sweep an LLM
    corpus runs before training (n=8 ≈ the 8-gram convention of GPT-3's
    decontamination appendix).

    ``scan_corpus`` redirects the SCAN side to a different corpus (a staged
    job directory via :func:`sources.documents.read_docs`) while the
    holdout still comes from ``sf_dir`` — the composed-job path. Default
    None keeps the original single-corpus semantics (scan = docs with
    docid >= ``holdout_max_docid``, pushed down at the read).

    Shape: the holdout side is benchmark-sized by definition, so its distinct
    gram hashes are collected once, sorted, and broadcast (``ray.put``); the
    corpus side streams through one ``map_batches`` doing a vectorized
    ``searchsorted`` membership count per doc — no shuffle at all. Gram
    identity is the u64 shingle hash (collision odds ~ grams²/2^64, the same
    contract the jaccard verify relies on); the DuckDB twin joins on the
    literal gram strings."""
    import ray
    import ray.data

    import pyarrow.compute as pc

    from web_search_engine_ray.sources.documents import docs_path

    path = docs_path(sf_dir)

    # holdout grams: pushed-down read of the (small) holdout slice only
    hold = ray.data.read_parquet(
        path,
        columns=["doc_id", "text"],
        filter=(pc.field("doc_id") < holdout_max_docid),
    )

    def gram_rows(batch: pa.Table) -> pa.Table:
        toks = token_lists(batch["text"]).to_list()
        hs = [_shingle_hashes(t or [], k=n) for t in toks]
        flat = np.unique(np.concatenate(hs)) if hs else np.empty(0, np.uint64)
        return pa.table({"g": pa.array(flat, pa.uint64())})

    parts = ray.get(arrow_refs(hold.map_batches(gram_rows, batch_format="pyarrow")))
    hold_grams = np.unique(
        np.concatenate(
            [p["g"].to_numpy(zero_copy_only=False) for p in parts if p.num_rows]
            or [np.empty(0, np.uint64)]
        )
    )
    gref = ray.put(hold_grams)

    def scan(batch: pa.Table) -> pa.Table:
        grams = ray.get(gref)
        toks = token_lists(batch["text"]).to_list()
        ids = _col(batch, "doc_id", np.int64)
        hs = [_shingle_hashes(t or [], k=n) for t in toks]
        counts = np.fromiter((h.size for h in hs), dtype=np.int64, count=len(hs))
        flat = (
            np.concatenate(hs) if hs else np.empty(0, np.uint64)
        )  # one searchsorted per BATCH, not per doc
        n_hits = np.zeros(len(hs), dtype=np.int64)
        if flat.size and grams.size:
            pos = np.searchsorted(grams, flat)
            pos[pos == grams.size] = 0
            hit = grams[pos] == flat
            doc_idx = np.repeat(np.arange(len(hs)), counts)
            n_hits = np.bincount(doc_idx[hit], minlength=len(hs)).astype(np.int64)
        mask = n_hits > 0
        return pa.table(
            {
                "docid": pa.array(ids[mask], pa.int64()),
                "n_hits": pa.array(n_hits[mask], pa.int64()),
            }
        )

    if scan_corpus is None:
        corpus = ray.data.read_parquet(
            path,
            columns=["doc_id", "text"],
            filter=(pc.field("doc_id") >= holdout_max_docid),
        )
    else:
        from web_search_engine_ray.sources.documents import read_docs

        corpus = read_docs(scan_corpus)
    return corpus.map_batches(scan, batch_format="pyarrow")


# ------------------------------------------------- duplicated k-gram spans


def dup_spans_ds(sf_dir: str, k: int = 4, hash_fn: str = "md5"):
    """(docid, n_kgrams, n_dup_kgrams, n_spans, max_span_tokens): exact
    duplicated-substring detection over token k-grams — the span-level
    companion to document-level dedup (simplified from Lee et al. 2022,
    "Deduplicating Training Data Makes Language Models Better": their
    suffix-array ExactSubstr pass, re-expressed as two hash exchanges;
    the reference engine has no span-level notion at all, its only dedup is
    the (term, docid) collapse of ``HW2/engine/merger.py:114-132``).

    Position ``p`` (1-based) in doc ``d`` is *duplicated* iff the k-gram
    starting there occurs at >= 2 positions corpus-wide (any doc, including
    ``d`` itself). Spans are maximal runs of consecutive duplicated
    positions; ``max_span_tokens`` = longest run + k - 1 (token length of
    the covered text). Docs with fewer than ``k`` tokens have no k-grams
    and do not appear.

    ``hash_fn="md5"`` (default, oracle-checked): k-gram identity is the low
    64 bits of md5 over the space-joined tokens == DuckDB
    ``md5_number_lower``, so the SQL twin compares the *same* 64-bit value
    — a hash collision cannot make the two sides diverge.
    ``hash_fn="fast"``: the vectorized position-weighted token-hash combine
    (:func:`_shingle_hashes`) — no per-position md5 loop; the production
    path at corpus scale.

    Scale shape: stage 1 emits one (h, docid, pos) row per token position —
    the same O(corpus tokens) relation the postings build moves. Exchange 1
    (keyed on h) downselects to positions whose 64-bit hash repeats
    (duplication-scale output); exchange 2 (keyed on docid) reassembles
    per-doc position masks and computes runs with one lexsort + cumsum per
    partition. Per-doc k-gram counts ride the same exchanges as pos=0
    marker rows, so nothing ever lands on the driver.
    """
    from web_search_engine_ray.stages.exchange import exchange_map

    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if hash_fn not in ("md5", "fast"):
        raise ValueError(f"unknown hash_fn {hash_fn!r} (use 'md5' or 'fast')")
    refs = read_docs_refs(sf_dir)
    np_ = chain_parts(refs)
    kk = k  # capture as local for the closures

    def emit(batch: pa.Table) -> pa.Table:
        toks = token_lists(batch["text"]).to_list()
        ids = _col(batch, "doc_id", np.int64)
        h_parts, d_parts, p_parts = [], [], []
        base_d, base_n = [], []
        for did, tl in zip(ids, toks):
            tl = tl or []
            n = len(tl) - kk + 1
            if n <= 0:
                continue
            base_d.append(did)
            base_n.append(n)
            if hash_fn == "fast":
                hs = _positional_shingle_hashes(tl, k=kk)
            else:
                hs = np.fromiter(
                    (
                        int.from_bytes(
                            hashlib.md5(" ".join(tl[i : i + kk]).encode()).digest()[
                                8:16
                            ],
                            "little",
                        )
                        for i in range(n)
                    ),
                    dtype=np.uint64,
                    count=n,
                )
            h_parts.append(hs)
            d_parts.append(np.full(n, did, np.int64))
            p_parts.append(np.arange(1, n + 1, dtype=np.int64))
        nb = len(base_d)
        h = np.concatenate(h_parts) if h_parts else np.empty(0, np.uint64)
        d = np.concatenate(d_parts) if d_parts else np.empty(0, np.int64)
        p = np.concatenate(p_parts) if p_parts else np.empty(0, np.int64)
        bd = np.asarray(base_d, np.int64)
        # base marker rows (pos=0) carry the per-doc k-gram count in nk and
        # route by a docid-derived hash purely for balance; they pass
        # exchange 1 untouched (the dup filter only sees pos > 0 rows)
        return pa.table(
            {
                "h": pa.array(np.concatenate([h, _splitmix(bd.astype(np.uint64))])),
                "docid": pa.array(np.concatenate([d, bd])),
                "pos": pa.array(np.concatenate([p, np.zeros(nb, np.int64)])),
                "nk": pa.array(
                    np.concatenate([np.zeros(p.size, np.int64), np.asarray(base_n, np.int64)])
                ),
            }
        )

    def route_h(t: pa.Table) -> np.ndarray:
        return _col(t, "h", np.uint64) % np.uint64(np_)

    out_schema = pa.schema(
        [("docid", pa.int64()), ("pos", pa.int64()), ("nk", pa.int64())]
    )

    def find_dups(t: pa.Table) -> pa.Table:
        tt = pl.from_arrow(t)
        base = tt.filter(pl.col("pos") == 0).select(["docid", "pos", "nk"])
        poss = tt.filter(pl.col("pos") > 0)
        dup = poss.filter(pl.len().over("h") >= 2).select(["docid", "pos", "nk"])
        return pl.concat([base, dup]).to_arrow().cast(out_schema)

    def route_doc(t: pa.Table) -> np.ndarray:
        return _col(t, "docid", np.uint64) % np.uint64(np_)

    def agg(t: pa.Table) -> pa.Table:
        d = _col(t, "docid")
        p = _col(t, "pos")
        nk = _col(t, "nk")
        bm = p == 0
        bd, bn = d[bm], nk[bm]
        o = np.argsort(bd, kind="stable")
        bd, bn = bd[o], bn[o]
        n_dup = np.zeros(bd.size, np.int64)
        n_spans = np.zeros(bd.size, np.int64)
        max_span = np.zeros(bd.size, np.int64)
        dd, dp = d[~bm], p[~bm]
        if dd.size:
            o = np.lexsort((dp, dd))
            dd, dp = dd[o], dp[o]
            newrun = np.ones(dd.size, bool)
            newrun[1:] = (dd[1:] != dd[:-1]) | (dp[1:] != dp[:-1] + 1)
            rid = np.cumsum(newrun) - 1
            run_len = np.bincount(rid).astype(np.int64)
            run_doc = dd[newrun]
            nd = np.ones(run_doc.size, bool)
            nd[1:] = run_doc[1:] != run_doc[:-1]
            starts = np.flatnonzero(nd)
            idx = np.searchsorted(bd, run_doc[starts])
            n_spans[idx] = np.diff(np.append(starts, run_doc.size))
            n_dup[idx] = np.add.reduceat(run_len, starts)
            max_span[idx] = np.maximum.reduceat(run_len, starts) + kk - 1
        return pa.table(
            {
                "docid": pa.array(bd),
                "n_kgrams": pa.array(bn),
                "n_dup_kgrams": pa.array(n_dup),
                "n_spans": pa.array(n_spans),
                "max_span_tokens": pa.array(max_span),
            }
        )

    dups = exchange_map(map_refs(emit, refs), route_h, np_, find_dups)
    return to_dataset("dup_spans_ds", exchange_map(dups, route_doc, np_, agg))


def dup_span_clean_ds(sf_dir: str, k: int = 4, hash_fn: str = "md5"):
    """(docid, n_tokens, n_removed, kept_text): the corpus rewritten with
    duplicated k-gram spans removed — the removal companion to
    :func:`dup_spans_ds` (Lee et al. 2022 ExactSubstr semantics, one
    surviving copy): for every k-gram occurring at >= 2 positions
    corpus-wide, the lexicographically first (docid, pos) occurrence is the
    *winner*; every other occurrence marks its k covered token positions
    for removal. ``kept_text`` is the space-join of surviving tokens (the
    tokenized view — this op rewrites the token stream, not raw bytes).

    Every doc appears, including empty and shorter-than-k docs
    (n_removed = 0). Winner selection is global and deterministic, so the
    result is partitioning-invariant.

    Scale shape: the (h, docid, pos) relation and exchange 1 are shared
    with :func:`dup_spans_ds` (winner = first row of each hash group after
    one lexsort — no extra pass); exchange 2 routes loser positions AND the
    corpus text by docid — the text movement is inherent (the output IS a
    corpus rewrite, same freight as the curation sink writes)."""
    from web_search_engine_ray.stages.exchange import exchange_map

    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if hash_fn not in ("md5", "fast"):
        raise ValueError(f"unknown hash_fn {hash_fn!r} (use 'md5' or 'fast')")
    refs = read_docs_refs(sf_dir)
    np_ = chain_parts(refs)
    kk = k

    def emit(batch: pa.Table) -> pa.Table:
        toks = token_lists(batch["text"]).to_list()
        ids = _col(batch, "doc_id", np.int64)
        h_parts, d_parts, p_parts = [], [], []
        for did, tl in zip(ids, toks):
            tl = tl or []
            n = len(tl) - kk + 1
            if n <= 0:
                continue
            if hash_fn == "fast":
                hs = _positional_shingle_hashes(tl, k=kk)
            else:
                hs = np.fromiter(
                    (
                        int.from_bytes(
                            hashlib.md5(" ".join(tl[i : i + kk]).encode()).digest()[
                                8:16
                            ],
                            "little",
                        )
                        for i in range(n)
                    ),
                    dtype=np.uint64,
                    count=n,
                )
            h_parts.append(hs)
            d_parts.append(np.full(n, did, np.int64))
            p_parts.append(np.arange(1, n + 1, dtype=np.int64))
        return pa.table(
            {
                "h": pa.array(
                    np.concatenate(h_parts) if h_parts else np.empty(0, np.uint64)
                ),
                "docid": pa.array(
                    np.concatenate(d_parts) if d_parts else np.empty(0, np.int64)
                ),
                "pos": pa.array(
                    np.concatenate(p_parts) if p_parts else np.empty(0, np.int64)
                ),
            }
        )

    def route_h(t: pa.Table) -> np.ndarray:
        return _col(t, "h", np.uint64) % np.uint64(np_)

    def losers(t: pa.Table) -> pa.Table:
        h = _col(t, "h", np.uint64)
        d = _col(t, "docid")
        p = _col(t, "pos")
        o = np.lexsort((p, d, h))
        h, d, p = h[o], d[o], p[o]
        first = np.ones(h.size, bool)
        first[1:] = h[1:] != h[:-1]
        # non-first rows exist only in groups of size >= 2 — exactly the
        # losing occurrences; the group head (min (docid, pos)) survives
        lose = ~first
        return pa.table(
            {
                "docid": pa.array(d[lose]),
                "pos": pa.array(p[lose]),
                "text": pa.array([None] * int(lose.sum()), pa.string()),
            }
        )

    def doc_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "docid": batch["doc_id"].cast(pa.int64()),
                "pos": pa.array(np.full(n, -1, np.int64)),
                "text": batch["text"].cast(pa.string()),
            }
        )

    def route_doc(t: pa.Table) -> np.ndarray:
        return _col(t, "docid", np.uint64) % np.uint64(np_)

    def clean(t: pa.Table) -> pa.Table:
        tt = pl.from_arrow(t)
        docs = tt.filter(pl.col("pos") == -1).select(["docid", "text"])
        lose = tt.filter(pl.col("pos") >= 1).select(["docid", "pos"])
        toks = pl.DataFrame(
            {
                "docid": docs["docid"],
                "ws": token_lists(docs["text"].to_arrow()),
            }
        )
        base = toks.with_columns(
            n_tokens=pl.col("ws").list.len().fill_null(0).cast(pl.Int64)
        )
        covered = (
            lose.with_columns(tp=pl.int_ranges("pos", pl.col("pos") + kk))
            .explode("tp")
            .select(["docid", "tp"])
            .unique()
        )
        tokpos = (
            base.select(["docid", "ws"])
            .explode("ws")
            .drop_nulls("ws")
            .with_columns(p=pl.int_range(pl.len()).over("docid") + 1)
        )
        kept = tokpos.join(
            covered, left_on=["docid", "p"], right_on=["docid", "tp"], how="anti"
        )
        agg = kept.sort(["docid", "p"]).group_by("docid", maintain_order=True).agg(
            kept_text=pl.col("ws").str.join(" "),
            n_kept=pl.len().cast(pl.Int64),
        )
        out = (
            base.select(["docid", "n_tokens"])
            .join(agg, on="docid", how="left")
            .with_columns(
                kept_text=pl.col("kept_text").fill_null(""),
                n_removed=(pl.col("n_tokens") - pl.col("n_kept").fill_null(0)).cast(
                    pl.Int64
                ),
            )
            .select(["docid", "n_tokens", "n_removed", "kept_text"])
            .sort("docid")
        )
        return out.to_arrow().cast(
            pa.schema(
                [
                    ("docid", pa.int64()),
                    ("n_tokens", pa.int64()),
                    ("n_removed", pa.int64()),
                    ("kept_text", pa.string()),
                ]
            )
        )

    lose = exchange_map(map_refs(emit, refs), route_h, np_, losers)
    out = exchange_map(map_refs(doc_rows, refs) + lose, route_doc, np_, clean)
    return to_dataset("dup_span_clean_ds", out)


# --------------------------------------------- incremental (snapshot) dedup


def _bloom_positions(hashes: np.ndarray, bits: int, k: int) -> np.ndarray:
    """k bit positions per 64-bit content hash: splitmix re-mixes with k
    fixed seeds (deterministic, md5-rooted like every oracle-adjacent hash
    here)."""
    seeds = _splitmix(np.arange(1, k + 1, dtype=np.uint64))
    return (_splitmix(hashes[None, :] ^ seeds[:, None]) % np.uint64(bits)).ravel()


def build_dedup_filter(
    sf_dir: str, max_docid: int | None = None, bits: int = 1 << 22, k: int = 4
) -> np.ndarray:
    """Bloom filter (packed uint8 bitmap, ``bits/8`` bytes) over the content
    hashes of a corpus snapshot — membership state for deduplicating FUTURE
    crawl increments against an already-curated corpus without touching it
    again. ``max_docid`` restricts the snapshot to ``doc_id < max_docid``.

    Size ``bits`` ~ 10x snapshot docs for ~1% false positives (k=4); the
    returned bitmap is bits/8 bytes on the driver — at 10^10-doc scale
    that's ~12 GB, still one object-store blob a worker can hold, and past
    that the same build shards cleanly by bit range (the exchange already
    partitions positions contiguously).

    Scale shape: per-batch partials are DISTINCT bit positions (<= k x docs
    ints, doc-scale not bit-scale); a hash exchange on ``pos // segment``
    makes each partition own one contiguous bit range, packed to bytes
    before anything returns to the driver — the driver concatenates
    ``n_parts`` pre-packed segments, it never sees raw positions."""
    import pyarrow.compute as pc_
    import ray

    from web_search_engine_ray.stages.exchange import exchange_map

    n_parts = 32
    seg = -(-bits // n_parts)  # bits per partition (ceil)

    def positions(batch: pa.Table) -> pa.Table:
        t = batch
        if max_docid is not None:
            t = t.filter(pc_.less(t["doc_id"], max_docid))
        if t.num_rows == 0:
            return pa.table({"p": pa.array([], pa.uint64())})
        hx = pl.from_arrow(text_hash_column(t["text"], "md5"))
        h = np.array(
            [int(x, 16) & 0xFFFFFFFFFFFFFFFF if x != "NULL" else 0 for x in hx],
            dtype=np.uint64,
        )
        return pa.table({"p": pa.array(np.unique(_bloom_positions(h, bits, k)))})

    def route(t: pa.Table) -> np.ndarray:
        return (
            t["p"].combine_chunks().to_numpy(zero_copy_only=False) // seg
        ).astype(np.int64)

    def pack(t: pa.Table, pi: int) -> pa.Table:
        p = t["p"].combine_chunks().to_numpy(zero_copy_only=False).astype(np.int64)
        local = np.zeros(seg, np.uint8)
        local[p - pi * seg] = 1
        return pa.table(
            {
                "part": pa.array([pi], pa.int64()),
                "bytes": pa.array([np.packbits(local).tobytes()], pa.binary()),
            }
        )

    docs = map_refs(positions, read_docs_refs(sf_dir))
    out = exchange_map(docs, route, n_parts, pack, with_index=True)
    rows = sorted(
        (
            (int(t["part"][i].as_py()), t["bytes"][i].as_py())
            for t in ray.get(out)
            for i in range(t.num_rows)
        ),
    )
    return np.concatenate([np.frombuffer(b, np.uint8) for _, b in rows])


def incremental_novel_ds(
    sf_dir: str, prior_max_docid: int = 100, bits: int = 1 << 22, k: int = 4
):
    """(docid, novel): stream the new increment (``doc_id >=
    prior_max_docid``) against the snapshot's Bloom filter. ``novel=True``
    is definite (no false negatives: an exact-duplicate text ALWAYS hits
    every one of its k bits); ``novel=False`` means "probably seen" at the
    filter's false-positive rate. The filter ships to the scan tasks once
    via ``ray.put``."""
    import pyarrow.compute as pc_
    import ray

    bitmap = build_dedup_filter(sf_dir, max_docid=prior_max_docid, bits=bits, k=k)
    bref = ray.put(bitmap)

    def scan(batch: pa.Table) -> pa.Table:
        bm = ray.get(bref)
        t = batch.filter(pc_.greater_equal(batch["doc_id"], prior_max_docid))
        if t.num_rows == 0:
            return pa.table(
                {"docid": pa.array([], pa.int64()), "novel": pa.array([], pa.bool_())}
            )
        hx = pl.from_arrow(text_hash_column(t["text"], "md5"))
        h = np.array(
            [int(x, 16) & 0xFFFFFFFFFFFFFFFF if x != "NULL" else 0 for x in hx],
            dtype=np.uint64,
        )
        pos = _bloom_positions(h, bits, k).reshape(k, -1)
        hit = np.ones(t.num_rows, bool)
        for row in pos:
            hit &= (bm[row // 8] >> (7 - (row % 8).astype(np.uint8)) & 1).astype(bool)
        return pa.table(
            {
                "docid": t["doc_id"].cast(pa.int64()),
                "novel": pa.array(~hit, pa.bool_()),
            }
        )

    return _read_docs(sf_dir).map_batches(scan, batch_format="pyarrow")


# ------------------------------------------------------- containment join


def _containment_candidates(
    docs: list, tau: float, n_parts: int, max_bucket: int | None = None
):
    """Block refs of the (docid_a, docid_b) candidate pairs over the
    document blocks ``docs`` through ``n_parts``-way exchanges, for the
    containment join via EXACT
    prefix filtering (Bayardo/Chaudhuri's All-Pairs/PPJoin family, WWW'07):
    order each doc's shingles by ascending global df; the PREFIX is its
    first ``n - ceil(tau*n) + 1`` shingles. If inter/min(|A|,|B|) >= tau,
    the smaller doc shares >= ceil(tau*n) shingles with the other, so by
    pigeonhole at least one lands in its prefix — pairing (prefix holders x
    all holders) per shingle is therefore COMPLETE. Minhash-LSH cannot seed
    this join: a short doc fully contained in a long one has low Jaccard.

    Four bounded exchanges: (1) shingle-keyed df attach, (2) docid-keyed
    prefix marking (rank-within-doc on a whole-partition lexsort), (3)
    shingle-keyed pair generation — prefix entries are the RAREST shingles,
    so the prefix side of each list is short; ``max_bucket`` (logged, None
    = exact) caps a pathological full-side — and (4) pair-keyed distinct.
    The ceil is taken conservatively (eps-subtracted), which can only ADD
    candidates, never lose one; the exact verify drops false positives."""
    import logging

    from web_search_engine_ray.stages.exchange import exchange_map

    def shingle_rows(t: pa.Table) -> pa.Table:
        toks = token_lists(t["text"]).to_list()
        ids = _col(t, "doc_id")
        sh = [_shingle_hashes(tl or []) for tl in toks]
        lens = np.array([r.size for r in sh], np.int64)
        return pa.table(
            {
                "sh": pa.array(
                    np.concatenate(sh) if sh else np.empty(0, np.uint64),
                    pa.uint64(),
                ),
                "docid": pa.array(np.repeat(ids, lens), pa.int64()),
            }
        )

    def attach_df(t: pa.Table) -> pa.Table:
        sh = _col(t, "sh", np.uint64)
        docid = _col(t, "docid")
        u, inv, cnt = np.unique(sh, return_inverse=True, return_counts=True)
        return pa.table(
            {
                "sh": pa.array(sh, pa.uint64()),
                "docid": pa.array(docid, pa.int64()),
                "df": pa.array(cnt[inv].astype(np.int64), pa.int64()),
            }
        )

    def mark_prefix(t: pa.Table) -> pa.Table:
        sh = _col(t, "sh", np.uint64)
        docid = _col(t, "docid")
        df = _col(t, "df")
        order = np.lexsort((sh, df, docid))
        sh, docid, df = sh[order], docid[order], df[order]
        new = np.ones(docid.size, dtype=bool)
        if docid.size:
            new[1:] = docid[1:] != docid[:-1]
        starts = np.flatnonzero(new)
        seg = np.cumsum(new) - 1
        n_per = np.diff(np.append(starts, docid.size))
        rank = np.arange(docid.size, dtype=np.int64) - starts[seg]
        n_row = n_per[seg]
        k = np.ceil(tau * n_row - 1e-9).astype(np.int64)  # eps: only widens
        pfx = rank < (n_row - k + 1)
        return pa.table(
            {
                "sh": pa.array(sh, pa.uint64()),
                "docid": pa.array(docid, pa.int64()),
                "pfx": pa.array(pfx.astype(np.int8), pa.int8()),
            }
        )

    def gen_pairs(t: pa.Table) -> pa.Table:
        """Segmented (prefix docs x group docs) cross-product for EVERY
        shingle group in one vectorized pass (repeat/cumsum index
        arithmetic — no per-shingle Python loop, the build-router rule)."""
        sh = _col(t, "sh", np.uint64)
        docid = _col(t, "docid")
        pfx = _col(t, "pfx", np.int8)
        order = np.lexsort((docid, sh))
        sh, docid, pfx = sh[order], docid[order], pfx[order]
        new = np.ones(sh.size, dtype=bool)
        if sh.size:
            new[1:] = sh[1:] != sh[:-1]
        gstart = np.flatnonzero(new)  # group start row per group
        gsize = np.diff(np.append(gstart, sh.size))
        gid = np.cumsum(new) - 1  # group id per row
        ok_g = gsize >= 2
        if max_bucket is not None:
            over = gsize > max_bucket
            if over.any():
                logging.getLogger(__name__).warning(
                    "containment: %d shingle lists over max_bucket=%d skipped "
                    "(largest %d docs)",
                    int(over.sum()),
                    max_bucket,
                    int(gsize.max()),
                )
                ok_g &= ~over
        is_p = (pfx == 1) & ok_g[gid]
        # one output run per prefix row: its group's full doc list
        run_len = gsize[gid[is_p]]
        total = int(run_len.sum())
        if total == 0:
            return pa.table(
                {
                    "docid_a": pa.array(np.empty(0, np.int64)),
                    "docid_b": pa.array(np.empty(0, np.int64)),
                }
            )
        a = np.repeat(docid[is_p], run_len)
        j = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(run_len) - run_len, run_len
        )
        b = docid[np.repeat(gstart[gid[is_p]], run_len) + j]
        keep = a != b
        a, b = a[keep], b[keep]
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        # 2-column unique (retention_cohorts pattern) — safe for the full
        # int64 docid range, unlike lo<<32|hi packing
        uk = np.unique(np.stack([lo, hi], axis=1), axis=0)
        return pa.table(
            {
                "docid_a": pa.array(uk[:, 0].astype(np.int64)),
                "docid_b": pa.array(uk[:, 1].astype(np.int64)),
            }
        )

    with_df = exchange_map(
        map_refs(shingle_rows, docs),
        lambda t: (_col(t, "sh", np.uint64) % np.uint64(n_parts)).astype(np.int64),
        n_parts,
        attach_df,
    )
    marked = exchange_map(
        with_df, lambda t: _col(t, "docid") % n_parts, n_parts, mark_prefix
    )
    pairs = exchange_map(
        marked,
        lambda t: (_col(t, "sh", np.uint64) % np.uint64(n_parts)).astype(np.int64),
        n_parts,
        gen_pairs,
    )
    return _distinct_pairs(pairs, "docid_a", "docid_b", n_parts)


def containment_dups(sf_dir: str, tau: float = 0.8, max_bucket: int | None = None):
    """Pairs with exact 3-gram CONTAINMENT inter/min(|A|,|B|) >= tau — the
    asymmetric near-dup criterion (a short doc pasted inside a long one has
    high containment but low Jaccard, so :func:`ngram_jaccard_dups` and its
    minhash seeding both miss it). Exact prefix-filter candidates
    (:func:`_containment_candidates`) + the same distributed shingle
    verify as the Jaccard join (:func:`_verified_pairs`) with the
    containment denominator, over one read of the documents."""
    docs = read_docs_refs(sf_dir)
    np_ = chain_parts(docs)
    pairs = _verified_pairs(
        _containment_candidates(docs, tau, np_, max_bucket=max_bucket),
        docs, "doc_id", "text", ("docid_a", "docid_b"),
        "containment", tau, np_,
    )
    return to_dataset("containment_dups", pairs)
