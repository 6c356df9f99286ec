"""Trigram-accelerated substring and regex search over the documents table —
the Code Search technique (R. Cox, "Regular Expression Matching with a
Trigram Index", 2012, public): an inverted index over CHARACTER trigrams of
the lowercased text prunes the corpus to candidate documents, and an exact
vectorized verify pass (``pyarrow.compute`` RE2 kernels) removes the false
positives. The reference engine has no pattern-search path at all (token
index only); this gives its users grep over the same corpus.

Why trigrams + verify is the right 100 TB shape:

- the index build is one pass over the corpus (per-batch vectorized trigram
  extraction on the Arrow string buffers — no per-row Python) plus ONE hash
  exchange on trigram code, exactly the postings-build discipline;
- a query reads only the shard rows of its needed trigrams (parquet
  predicate pushdown on the sorted ``trigram`` column), intersects the K
  RAREST lists (df is stored, so selectivity is known before reading the
  docid lists), and verifies only the survivors with a pruned
  ``doc_id``-filtered read of the corpus — the full text is touched for
  candidates only;
- stop-trigrams (df above a fraction of N) are SKIPPED at query time rather
  than capped at build time: correctness never depends on the index, only
  pruning power does, so a pattern made entirely of common trigrams degrades
  to a (still distributed, still vectorized) verify scan.

Exactness of the twin: both the engine (``pc.match_substring_regex``) and
DuckDB (``regexp_matches``) compile RE2 — identical regex semantics, so the
SQL twin is the literal full-scan predicate.
"""

from __future__ import annotations

import os
import re

import numpy as np
import polars as pl
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from web_search_engine_ray.stages.exchange import arrow_refs, map_refs

N_SHARDS = 8
STOP_DF_FRAC = 0.5  # trigram matching > half the corpus prunes ~nothing
MAX_QUERY_TRIGRAMS = 4  # intersect the K rarest; verify handles the rest


def _lower_utf8_trigrams(
    docids: np.ndarray, texts: pa.Array
) -> tuple[np.ndarray, np.ndarray]:
    """(codes, docids) of every distinct (doc, trigram) pair in the batch,
    computed on the lowercased utf-8 BYTE stream of the Arrow string buffers
    (zero row loop): code = b0<<16 | b1<<8 | b2."""
    arr = pc.utf8_lower(texts).combine_chunks() if isinstance(
        texts, pa.ChunkedArray
    ) else pc.utf8_lower(texts)
    if arr.null_count:
        arr = pc.fill_null(arr, "")
    # offset-slice the data buffer (the array may be a slice of a larger one)
    off_dtype = np.int64 if pa.types.is_large_string(arr.type) else np.int32
    offsets = np.frombuffer(arr.buffers()[1], dtype=off_dtype)[
        arr.offset : arr.offset + len(arr) + 1
    ].astype(np.int64)
    data = np.frombuffer(arr.buffers()[2], dtype=np.uint8)
    dl = np.diff(offsets)
    cnt = np.maximum(dl - 2, 0)
    total = int(cnt.sum())
    if total == 0:
        return np.empty(0, np.uint32), np.empty(0, np.int64)
    doc_rep = np.repeat(docids, cnt)
    starts = np.repeat(offsets[:-1], cnt) + (
        np.arange(total) - np.repeat(np.cumsum(cnt) - cnt, cnt)
    )
    codes = (
        data[starts].astype(np.uint32) * 65536
        + data[starts + 1].astype(np.uint32) * 256
        + data[starts + 2].astype(np.uint32)
    )
    # distinct (docid, code): docids are dense build ordinals (< 2^40), so
    # one u64 composite key dedups both at once
    key = doc_rep.astype(np.uint64) * np.uint64(1 << 24) + codes.astype(np.uint64)
    uk = np.unique(key)
    return (uk & np.uint64((1 << 24) - 1)).astype(np.uint32), (
        uk >> np.uint64(24)
    ).astype(np.int64)


def _pattern_trigrams(literal: str) -> np.ndarray:
    """Trigram codes of a lowercased literal's utf-8 bytes (distinct)."""
    b = literal.lower().encode("utf-8")
    if len(b) < 3:
        return np.empty(0, np.uint32)
    a = np.frombuffer(b, dtype=np.uint8)
    codes = (
        a[:-2].astype(np.uint32) * 65536
        + a[1:-1].astype(np.uint32) * 256
        + a[2:].astype(np.uint32)
    )
    return np.unique(codes)


def _regex_literal_runs(pattern: str) -> list[str]:
    """Literal runs (>= 3 chars) that EVERY match of ``pattern`` must
    contain — the conservative subset of Cox's trigram-query derivation:
    take maximal runs of plain characters outside any ()|[]{}?*+ construct
    and drop a run's last char when a trailing quantifier makes it optional.
    Returning [] (no obligatory run) falls back to the verify scan."""
    runs, cur = [], []
    i, depth, in_class = 0, 0, False
    def flush():
        if len(cur) >= 3:
            runs.append("".join(cur))
        cur.clear()
    while i < len(pattern):
        ch = pattern[i]
        if in_class:
            if ch == "\\":
                i += 1
            elif ch == "]":
                in_class = False
            i += 1
            continue
        if ch == "[":
            in_class = True
            flush()
        elif ch in "()|":
            # alternation/groups: nothing inside is obligatory for certain
            flush()
            if ch == "|":
                runs.clear()  # either side may match: no global obligation
                return []
            depth += 1 if ch == "(" else -1
        elif ch in "?*{":
            if cur:
                cur.pop()  # the char the quantifier applies to is optional
            flush()
            if ch == "{":
                while i < len(pattern) and pattern[i] != "}":
                    i += 1
        elif ch == "+":
            flush()  # char stays (one obligatory occurrence) but run ends
        elif ch in "^$":
            flush()
        elif ch == "\\":
            flush()  # escapes may be classes (\d): be conservative
            i += 1
        elif ch == ".":
            flush()
        else:
            if depth == 0:
                cur.append(ch)
            # inside a group: obligatory only if the group is — skip (safe)
        i += 1
    flush()
    return runs


def build_trigram_index(sf_dir: str, out_dir: str, n_shards: int = N_SHARDS) -> dict:
    """Write ``out_dir/shard_{i:05d}.parquet`` with rows (trigram: uint32,
    df: int64, docids: list<int64> sorted), sorted by trigram, plus
    ``stats.json`` with corpus N. One vectorized pass + one hash exchange."""
    import json

    import ray

    from web_search_engine_ray.stages.exchange import exchange_map, map_refs, read_refs

    os.makedirs(out_dir, exist_ok=True)

    def extract(t: pa.Table) -> pa.Table:
        docids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        codes, dids = _lower_utf8_trigrams(docids, t["text"].combine_chunks())
        return pa.table(
            {
                "trigram": pa.array(codes, pa.uint32()),
                "docid": pa.array(dids, pa.int64()),
            }
        )

    def route(t: pa.Table) -> np.ndarray:
        return (
            t["trigram"].combine_chunks().to_numpy(zero_copy_only=False)
            % np.uint32(n_shards)
        ).astype(np.int64)

    def write_shard(t: pa.Table, pi: int) -> pa.Table:
        g = (
            pl.from_arrow(t)
            .sort(["trigram", "docid"])
            .group_by("trigram", maintain_order=True)
            .agg(df=pl.len().cast(pl.Int64), docids=pl.col("docid"))
        )
        tt = pa.table(
            {
                "trigram": g["trigram"].to_arrow().cast(pa.uint32()),
                "df": g["df"].to_arrow().cast(pa.int64()),
                "docids": g["docids"].to_arrow().cast(pa.list_(pa.int64())),
            }
        )
        path = os.path.join(out_dir, f"shard_{pi:05d}.parquet")
        tmp = path + ".tmp"
        pq.write_table(tt, tmp)
        os.replace(tmp, path)
        return pa.table(
            {
                "shard": pa.array([pi], pa.int64()),
                "n_trigrams": pa.array([tt.num_rows], pa.int64()),
            }
        )

    docs = map_refs(extract, read_refs(os.path.join(sf_dir, "documents.parquet"), ["doc_id", "text"]))
    stats = ray.get(exchange_map(docs, route, n_shards, write_shard, with_index=True))
    n_trigrams = sum(t["n_trigrams"][0].as_py() for t in stats)
    n_docs = pq.read_metadata(os.path.join(sf_dir, "documents.parquet")).num_rows
    with open(os.path.join(out_dir, "stats.json"), "w") as f:
        json.dump({"n_docs": n_docs, "n_shards": n_shards}, f)
    return {"out_dir": out_dir, "n_shards": n_shards, "n_trigrams": n_trigrams}


def _cached_trigram_index(sf_dir: str, n_shards: int = N_SHARDS) -> str:
    from web_search_engine_ray.pipelines.serving import _cache_key
    from web_search_engine_ray.stages import exchange

    path = os.path.join(sf_dir, "documents.parquet")
    key = _cache_key(path, f"tri{n_shards}", __file__, exchange.__file__)
    out = os.path.join("/tmp", "wse_ray_cache", f"tri_{key}")
    # stats.json is written LAST, so its presence marks a complete build —
    # checking shards alone would trust an interrupted one forever
    if not (
        os.path.exists(os.path.join(out, "stats.json"))
        and all(
            os.path.exists(os.path.join(out, f"shard_{i:05d}.parquet"))
            for i in range(n_shards)
        )
    ):
        build_trigram_index(sf_dir, out, n_shards)
    return out


def _candidates(
    index_dir: str, codes: np.ndarray, n_shards: int
) -> np.ndarray | None:
    """Intersect the docid lists of the K rarest NON-stop trigrams; None
    means "no pruning possible" (no codes, or all stop) — caller scans."""
    import json

    with open(os.path.join(index_dir, "stats.json")) as f:
        n_docs = json.load(f)["n_docs"]
    if codes.size == 0:
        return None
    # phase 1: dfs only (tiny columns) — selectivity before any docid list
    # leaves disk; phase 2 reads the K chosen lists, never a stop trigram's
    by_shard: dict[int, list[int]] = {}
    for c in codes.tolist():
        by_shard.setdefault(int(c) % n_shards, []).append(int(c))
    found: list[tuple[int, int, int]] = []  # (df, code, shard)
    for sid, cs in by_shard.items():
        want = pa.array(cs, pa.uint32())
        t = pq.read_table(
            os.path.join(index_dir, f"shard_{sid:05d}.parquet"),
            columns=["trigram", "df"],
            filters=pc.field("trigram").isin(want),
        )
        for code, df in zip(
            t["trigram"].to_pylist(), t["df"].to_pylist(), strict=True
        ):
            found.append((df, code, sid))
    if len(found) < codes.size:
        # some needed trigram appears in NO document: zero matches, exact
        return np.empty(0, np.int64)
    found = [f for f in found if f[0] <= STOP_DF_FRAC * n_docs]
    if not found:
        return None  # every trigram is a stop trigram: index can't prune
    found.sort()
    cand: np.ndarray | None = None
    for _, code, sid in found[:MAX_QUERY_TRIGRAMS]:
        t = pq.read_table(
            os.path.join(index_dir, f"shard_{sid:05d}.parquet"),
            columns=["docids"],
            filters=pc.field("trigram") == code,
        )
        ids = np.asarray(t["docids"][0].as_py(), np.int64)
        cand = ids if cand is None else np.intersect1d(cand, ids, assume_unique=True)
        if cand.size == 0:
            return cand
    return cand


def _verify_scan(sf_dir: str, cand: np.ndarray | None, matcher) -> pa.Table:
    """Pruned corpus read (doc_id isin candidates when pruning worked) +
    vectorized predicate; returns (docid) sorted."""
    import ray
    import ray.data

    flt = None
    if cand is not None:
        flt = pc.field("doc_id").isin(pa.array(cand, pa.int64()))

    def verify(t: pa.Table) -> pa.Table:
        if not t.num_rows:  # a read block the filter emptied has no columns
            return pa.table({"docid": pa.array([], pa.int64())})
        m = matcher(pc.utf8_lower(t["text"].combine_chunks()))
        return pa.table({"docid": t.filter(m)["doc_id"].cast(pa.int64())})

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"],
        filter=flt,
    )
    parts = [t for t in ray.get(map_refs(verify, arrow_refs(docs))) if t.num_rows]
    if not parts:
        return pa.table({"docid": pa.array([], pa.int64())})
    out = pa.concat_tables(parts)
    return out.sort_by("docid")


def substring_search(
    sf_dir: str, literal: str, n_shards: int = N_SHARDS,
    index_dir: str | None = None,
) -> pa.Table:
    """(docid): documents whose lowercased text contains ``literal``
    (lowercased) — trigram-pruned, exactly verified."""
    idx = index_dir or _cached_trigram_index(sf_dir, n_shards)
    cand = _candidates(idx, _pattern_trigrams(literal), n_shards)
    needle = literal.lower()
    return _verify_scan(
        sf_dir, cand, lambda arr: pc.match_substring(arr, needle)
    )


def regex_search(
    sf_dir: str, pattern: str, n_shards: int = N_SHARDS,
    index_dir: str | None = None,
) -> pa.Table:
    """(docid): documents whose lowercased text matches the RE2 ``pattern``.
    Obligatory literal runs (>= 3 chars) prune via the trigram index; their
    absence degrades to the distributed verify scan (correct, unpruned)."""
    idx = index_dir or _cached_trigram_index(sf_dir, n_shards)
    runs = _regex_literal_runs(pattern)
    cand: np.ndarray | None = None
    for r in runs:
        c = _candidates(idx, _pattern_trigrams(r), n_shards)
        if c is None:
            continue
        cand = c if cand is None else np.intersect1d(cand, c, assume_unique=True)
    return _verify_scan(
        sf_dir, cand, lambda arr: pc.match_substring_regex(arr, pattern)
    )


# -- gate tables ---------------------------------------------------------

FIXED_LITERALS = ["spark join", "merge sort", "zzz nothing", "the data", "customer"]
FIXED_REGEXES = [
    "spark [a-z]+ join",
    "(merge|vector) sort",
    "customer [a-z]{3} order",
    "data data data",
]


def substring_search_table(
    sf_dir: str, literals: list[str] | None = None, n_shards: int = N_SHARDS,
    index_dir: str | None = None,
) -> pa.Table:
    literals = literals if literals is not None else FIXED_LITERALS
    q_l, d_l = [], []
    for qid, lit in enumerate(literals):
        t = substring_search(sf_dir, lit, n_shards, index_dir=index_dir)
        ids = t["docid"].to_numpy(zero_copy_only=False)
        q_l.append(np.full(ids.size, qid, np.int64))
        d_l.append(ids)
    return pa.table(
        {
            "query_id": pa.array(np.concatenate(q_l) if q_l else [], pa.int64()),
            "docid": pa.array(np.concatenate(d_l) if d_l else [], pa.int64()),
        }
    )


def regex_search_table(
    sf_dir: str, patterns: list[str] | None = None, n_shards: int = N_SHARDS,
    index_dir: str | None = None,
) -> pa.Table:
    patterns = patterns if patterns is not None else FIXED_REGEXES
    q_l, d_l = [], []
    for qid, pat in enumerate(patterns):
        t = regex_search(sf_dir, pat, n_shards, index_dir=index_dir)
        ids = t["docid"].to_numpy(zero_copy_only=False)
        q_l.append(np.full(ids.size, qid, np.int64))
        d_l.append(ids)
    return pa.table(
        {
            "query_id": pa.array(np.concatenate(q_l) if q_l else [], pa.int64()),
            "docid": pa.array(np.concatenate(d_l) if d_l else [], pa.int64()),
        }
    )


# -- Ray-free serving path -------------------------------------------------


def match_docids_local(
    corpus_path: str,
    index_dir: str,
    pattern: str,
    is_regex: bool = False,
    n_shards: int = N_SHARDS,
) -> np.ndarray:
    """Serving-side pattern match WITHOUT Ray (pure parquet reads + RE2
    kernels, same state model as the Searcher): trigram candidates, then a
    ``doc_id``-filtered read of only the corpus row groups holding them
    (docids are dense build ordinals, so parquet min/max stats skip the
    rest). Raises ``ValueError`` when the pattern has no selective trigram
    — an unpruned full scan belongs to the distributed operators
    (:func:`substring_search` / :func:`regex_search`), not a request
    handler."""
    from web_search_engine_ray.sources.transcripts import corpus_files

    if is_regex:
        re.compile(pattern)  # surface bad patterns as ValueError-adjacent now
        runs = _regex_literal_runs(pattern)
        cand: np.ndarray | None = None
        for r in runs:
            c = _candidates(index_dir, _pattern_trigrams(r), n_shards)
            if c is None:
                continue
            cand = c if cand is None else np.intersect1d(
                cand, c, assume_unique=True
            )
    else:
        cand = _candidates(index_dir, _pattern_trigrams(pattern), n_shards)
    if cand is None:
        raise ValueError(
            "pattern has no selective trigram (too short, alternation-only, "
            "or all stop-trigrams); use the batch regex_search operator"
        )
    if cand.size == 0:
        return np.empty(0, np.int64)
    want = pa.array(np.sort(cand), pa.int64())
    hits = []
    for path in corpus_files(corpus_path):
        t = pq.read_table(
            path,
            columns=["doc_id", "text"],
            filters=pc.field("doc_id").isin(want),
        )
        if not t.num_rows:
            continue
        lower = pc.utf8_lower(t["text"].combine_chunks())
        m = (
            pc.match_substring_regex(lower, pattern)
            if is_regex
            else pc.match_substring(lower, pattern.lower())
        )
        ids = t.filter(m)["doc_id"].to_numpy(zero_copy_only=False)
        if ids.size:
            hits.append(ids.astype(np.int64))
    return np.sort(np.concatenate(hits)) if hits else np.empty(0, np.int64)
