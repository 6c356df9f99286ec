"""Document-length store + global corpus stats.

The reference pickles one ``dict[docid] -> token_count`` (~60 MB at 8.8M docs,
``HW2/engine/utils.py:5-27``) and recomputes ``N``/``avgdl`` from it on every
searcher start (``daat_ranker.py:73-76``). At 10^12 docs a Python dict is
impossible (SURVEY.md §7.6.4), so we store:

- per-build-partition Parquet files ``(docid: uint64, dl: uint32)`` whose docid
  spans are contiguous and disjoint (partition = contiguous docid range), and
- a tiny ``stats.json`` with corpus-global ``{N, total_tokens, avgdl}``
  computed once at build time (must be corpus-global, not shard-local —
  SURVEY.md §2.5 A4).

The reader memory-maps the ranges lazily: docid -> partition via binary search
on span starts, dl via direct array index (docids are dense within a span).
Rows whose text tokenizes to nothing have dl=0 but still occupy a docid and
count in N/avgdl (reference MP-path rule, ``HW2/engine/build_runs_mp.py:87-91``).
"""

from __future__ import annotations

import glob
import json
import os

import numpy as np
import pyarrow.parquet as pq


class DocLengths:
    """Lazy docid -> dl lookup over range-sharded parquet files."""

    def __init__(self, doclen_dir: str):
        self.dir = doclen_dir
        with open(os.path.join(doclen_dir, "stats.json")) as f:
            stats = json.load(f)
        self.N = int(stats["N"])
        self.total_tokens = int(stats["total_tokens"])
        self.avgdl = float(stats["avgdl"])
        files = sorted(glob.glob(os.path.join(doclen_dir, "doclen_*.parquet")))
        spans = []
        for p in files:
            meta = pq.read_metadata(p)
            kv = meta.metadata or {}
            lo = int(kv[b"docid_lo"]) if b"docid_lo" in kv else None
            if lo is None:  # fall back to reading the first row
                lo = int(pq.read_table(p, columns=["docid"])["docid"][0].as_py())
            spans.append((lo, meta.num_rows, p))
        spans.sort()
        self._lo = np.array([s[0] for s in spans], dtype=np.uint64)
        self._n = np.array([s[1] for s in spans], dtype=np.int64)
        self._paths = [s[2] for s in spans]
        self._cache: dict[int, np.ndarray] = {}
        self._dense: np.ndarray | None = None  # ``dense()``, once built
        # bound resident dl shards (LRU) — at 10^12 docs the full table can't
        # live in one process; 4096 shards x 100k rows x 4B ≈ 1.6 GB cap
        self.max_cached_shards = 4096

    def _read_shard(self, si: int) -> np.ndarray:
        t = pq.read_table(self._paths[si], columns=["dl"])
        return t["dl"].combine_chunks().to_numpy(zero_copy_only=False).astype(np.uint32)

    def _shard_dl(self, si: int) -> np.ndarray:
        arr = self._cache.get(si)
        if arr is None:
            arr = self._read_shard(si)
            if len(self._cache) >= self.max_cached_shards:
                self._cache.pop(next(iter(self._cache)))
            self._cache[si] = arr
        else:
            # refresh LRU position
            self._cache[si] = self._cache.pop(si)
        return arr

    def get_many(self, docids: np.ndarray) -> np.ndarray:
        """Vectorized dl lookup for a sorted-or-not docid array, in one pass
        grouped by shard: a stable argsort (linear on sorted input) orders
        the docids, and the span starts cut that order into shard groups.
        Once ``dense()`` is built, one direct index into it instead."""
        d = np.ascontiguousarray(docids, dtype=np.uint64)
        out = np.zeros(d.size, dtype=np.uint32)
        if self._dense is not None:
            # docids outside the span read dl = 0, as past a span's rows
            base = np.uint64(self.span()[0])
            ok = (d >= base) & (d - base < np.uint64(self._dense.size))
            out[ok] = self._dense[(d[ok] - base).view(np.int64)]
            return out
        order = np.argsort(d, kind="stable")
        ds = d[order]
        # shard s holds ds[cut[s]:cut[s + 1]]; ds[:cut[0]] lies below the
        # first span and reads dl = 0, like docids past a span's rows
        cut = np.append(np.searchsorted(ds, self._lo), d.size)
        for s in np.flatnonzero(np.diff(cut)):
            a, b = cut[s], cut[s + 1]
            dl = self._shard_dl(int(s))
            idx = (ds[a:b] - self._lo[s]).astype(np.int64)
            ok = idx < dl.size
            out[order[a:b][ok]] = dl[idx[ok]]
        return out

    def get(self, docid: int) -> int:
        return int(self.get_many(np.array([docid], dtype=np.uint64))[0])

    def span(self) -> tuple[int, int]:
        """``(first docid, number of docids)`` from the first span's start
        to the last span's end; ``(0, 0)`` for an empty store."""
        if not self._lo.size:
            return 0, 0
        base = int(self._lo[0])
        return base, int(self._lo[-1]) + int(self._n[-1]) - base

    def dense(self) -> np.ndarray:
        """Full dense dl array indexed from this store's first docid: 4 B per
        docid of the span. It backs the dense serving path
        (``Searcher.slot_dl``), which a query takes only when its lists hold
        at least 1/``DENSE_SPAN_RATIO`` of the span, so it is bounded like
        that path's span-sized hit array. Sized by the shards' docid SPAN,
        not ``N`` — on a deletion-compacted index N counts only alive docs
        while the shards keep dl=0 placeholder rows for deleted slots.
        Built once: it takes over the shards already loaded, and later
        ``get_many`` calls read it, so each doc length is held once."""
        if self._dense is None:
            base, span = self.span()
            out = np.zeros(span, dtype=np.uint32)
            for si in range(len(self._paths)):
                dl = self._cache.pop(si, None)
                if dl is None:
                    dl = self._read_shard(si)
                lo = int(self._lo[si]) - base
                out[lo : lo + dl.size] = dl
            out.setflags(write=False)
            self._dense = out
        return self._dense


def write_stats(doclen_dir: str, n: int, total_tokens: int) -> dict:
    stats = {
        "N": int(n),
        "total_tokens": int(total_tokens),
        "avgdl": (total_tokens / n) if n else 0.0,
    }
    tmp = os.path.join(doclen_dir, "stats.json.tmp")
    with open(tmp, "w") as f:
        json.dump(stats, f)
    os.replace(tmp, os.path.join(doclen_dir, "stats.json"))
    return stats
