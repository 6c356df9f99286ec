"""Blocked postings shard files (write / read / block-targeted tf lookup).

Keeps the reference's *logical* per-term layout (``HW2/engine/listio.py:9-94``):
postings of a term are split into blocks of ≤ ``block_size`` (default 128)
``(docid, tf)`` pairs; each block stores its encoded docid segment followed by
its encoded freq segment (``[doc_bytes][freq_bytes]`` back-to-back); docids are
delta-gap encoded within a block against ``base = previous block's last
docid`` (0 for the first block); a per-block directory
``{offset, doc_bytes, freq_bytes, last_docid}`` lets ``read_tfs_for`` decode
only the blocks that can hold its targets (``HW2/engine/lexicon.py:6-27``).

Differences from the reference (documented, SURVEY.md §7.5):

- the postings FILE is a *shard* — one of ``num_shards`` independent files
  keyed by ``hash(term) % num_shards`` — so the final merge is embarrassingly
  parallel instead of the reference's single-writer bottleneck
  (``HW2/README.md:131``);
- "raw" codec stores docids u64 LE (u32 caps at 4.3e9 docs; we target 10^12);
- encode/decode are numpy-vectorized rather than per-integer Python loops.
  The writer's one encode kernel, :meth:`PostingsShardWriter.add_terms`,
  takes a whole shard at once: ``(term, docid)``-sorted ``docids``/``tfs``
  plus each term's start index. Gap chaining across blocks makes a term's
  gap stream just ``diff(docids)`` with its first gap = its first docid, so
  the kernel runs a fixed number of array passes over the shard (gaps,
  per-block byte counts from the term-restarting block starts, one varbyte
  scatter for all gaps and one for all tfs into the ``[doc][freq]`` block
  layout) and makes one ``write``. Per-term and streamed heavy-term encodes
  are the same kernel with one term. Decode is one gather for any set of a
  term's blocks (:meth:`PostingsShardReader._decode_block`): one index array
  pulls the blocks' doc and freq bytes, one varbyte decode runs on each
  stream, and a segmented cumsum restarts each block's gaps at its base.
  ``read_postings`` gathers every block (cached per term); ``read_tfs_for``
  gathers only the blocks its targets can fall in and answers them with one
  ``searchsorted``.

Rank/score parity requires identical *decoded* ``(docids, tfs, df)`` per term,
not identical bytes — the reference's own conformance check compares decoded
lists (``HW2/engine/testrun.py:94-99``).
"""

from __future__ import annotations

import os
import numpy as np

from web_search_engine_ray.functions import codecs
from web_search_engine_ray.state.lexicon import LexiconShard

BLOCK_SIZE = 128  # reference default, HW2/engine/listio.py:7
_BLOCK_KEYS = ("blk_offset", "blk_doc_bytes", "blk_freq_bytes", "blk_last_docid", "blk_max_tf")


class PostingsShardWriter:
    """Append-only writer for one postings shard file.

    Terms must arrive in the caller's canonical term order, each with
    docids ascending (the ordering contract of the reference run format,
    ``HW2/engine/runio.py:102-104``). :meth:`add_terms` is the one encode
    kernel; :meth:`add_term` and :meth:`add_term_stream` call it with one
    term at a time.
    """

    def __init__(self, path: str, block_size: int = BLOCK_SIZE, codec: str = "varbyte"):
        self.path = path
        self.block_size = int(block_size)
        self.codec = codec.lower()
        if self.codec not in ("varbyte", "raw"):
            raise ValueError(f"unknown codec: {codec}")
        self.file = open(path, "wb")
        self._offset = 0

    def add_terms(
        self, starts: np.ndarray, docids: np.ndarray, freqs: np.ndarray, base: int = 0
    ) -> dict:
        """Encode many terms' postings in one fixed set of array passes and
        append them with one write.

        ``docids``/``freqs`` hold the terms' postings back to back; term t
        starts at index ``starts[t]`` (``starts[0] == 0``, strictly
        ascending) and its docids must not descend (``ValueError``
        otherwise; a drop across a term boundary is legal). Each term's
        gaps chain across its blocks; its first gap is its first docid,
        except that term 0's is taken against ``base`` (the last docid
        already written when a stream continues a term). Blocks restart at
        every term start.

        Returns the lexicon's struct of arrays: per term ``offset``, ``df``
        and ``blk_start`` (n_terms + 1 bounds into the block arrays), per
        block ``blk_offset``, ``blk_doc_bytes``, ``blk_freq_bytes``,
        ``blk_last_docid``, ``blk_max_tf`` (bounds each block's best term
        score for MaxScore pruning at query time, an extension; the
        reference has none, HW2/README.md:132-133), and ``codec``.
        Temporaries are a small constant times ``docids.size``."""
        d = np.ascontiguousarray(docids, dtype=np.uint64)
        f = np.ascontiguousarray(freqs, dtype=np.uint64)
        starts = np.ascontiguousarray(starts, dtype=np.int64)
        n, bs = int(d.size), self.block_size
        ends = np.append(starts[1:], n)
        df = ends - starts
        if n == 0 or f.size != n or not starts.size or starts[0] != 0 or np.any(df <= 0):
            raise ValueError("add_terms needs non-empty terms starting at 0")
        drop = d[1:] < d[:-1]
        drop[starts[1:] - 1] = False
        if int(d[0]) < base or drop.any():
            raise ValueError("non-monotonic docid sequence")

        # block b of term t covers [bstart, bend); blocks restart per term
        nblk = (df + bs - 1) // bs
        blk_start = np.zeros(starts.size + 1, dtype=np.int64)
        np.cumsum(nblk, out=blk_start[1:])
        term_of = np.repeat(np.arange(starts.size), nblk)
        bstart = starts[term_of] + (np.arange(blk_start[-1]) - blk_start[term_of]) * bs
        bend = np.minimum(bstart + bs, ends[term_of])

        # cd[i] / cf[i]: doc / freq bytes of postings before i. Block b's
        # doc bytes start after every earlier block's doc AND freq bytes,
        # i.e. at cd[i] + cf[bstart]; its freq bytes follow at cf[i] + cd[bend]
        if self.codec == "varbyte":
            gaps = np.empty_like(d)
            np.subtract(d[1:], d[:-1], out=gaps[1:])
            gaps[starts] = d[starts]
            gaps[0] -= np.uint64(base)
            dsz, fsz = codecs.vb_sizes(gaps), codecs.vb_sizes(f)
        else:
            dsz, fsz = np.full(n, 8, np.int64), np.full(n, 4, np.int64)
        cd = np.zeros(n + 1, dtype=np.int64)
        cf = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(dsz, out=cd[1:])
        np.cumsum(fsz, out=cf[1:])
        counts = bend - bstart
        doc_at = cd[:-1] + np.repeat(cf[bstart], counts)
        freq_at = cf[:-1] + np.repeat(cd[bend], counts)

        out = np.empty(int(cd[-1] + cf[-1]), dtype=np.uint8)
        if self.codec == "varbyte":
            codecs.vb_encode_into(out, gaps, doc_at, dsz)
            codecs.vb_encode_into(out, f, freq_at, fsz)
        else:
            out[doc_at[:, None] + np.arange(8)] = d.astype("<u8").view(np.uint8).reshape(n, 8)
            out[freq_at[:, None] + np.arange(4)] = f.astype("<u4").view(np.uint8).reshape(n, 4)
        self.file.write(out)

        blk_offset = self._offset + cd[bstart] + cf[bstart]
        self._offset += out.size
        return {
            "offset": blk_offset[blk_start[:-1]],
            "df": df,
            "blk_start": blk_start,
            "blk_offset": blk_offset,
            "blk_doc_bytes": cd[bend] - cd[bstart],
            "blk_freq_bytes": cf[bend] - cf[bstart],
            "blk_last_docid": d[bend - 1],
            "blk_max_tf": np.maximum.reduceat(f, bstart),
            "codec": self.codec,
        }

    def add_term(self, term: str, docids: np.ndarray, freqs: np.ndarray) -> dict:
        """Encode one whole term; returns its lexicon entry."""
        if np.size(docids) == 0:
            raise ValueError(f"empty postings for term {term!r}")
        arrays = self.add_terms(np.zeros(1, np.int64), docids, freqs)
        return LexiconShard.from_arrays([term], arrays).get(term)

    def add_term_stream(self, term: str, chunks) -> dict:
        """Encode one term's postings from an iterator of ``(docids, freqs)``
        chunks WITHOUT ever materializing the full list — O(block_size +
        chunk) memory. This is how a 10^12-doc stopword list is encoded
        (SURVEY.md §7.6.3); chunks must be docid-ascending across the whole
        stream (salt buckets arrive in docid-range order). Each flush of
        whole blocks is one :meth:`add_terms` call that continues the gap
        chain from the previous flush's last docid. Returns the same struct
        of arrays as :meth:`add_terms`, for the one term."""
        bs = self.block_size
        start_offset = self._offset
        parts = []
        buf_d = np.empty(0, dtype=np.uint64)
        buf_f = np.empty(0, dtype=np.uint64)
        prev_last = 0
        df = 0

        def _flush(d, f, base):
            parts.append(self.add_terms(np.zeros(1, np.int64), d, f, base))
            return int(d[-1])

        for d, f in chunks:
            d = np.ascontiguousarray(d, dtype=np.uint64)
            f = np.ascontiguousarray(f, dtype=np.uint64)
            df += int(d.size)
            buf_d = np.concatenate([buf_d, d]) if buf_d.size else d
            buf_f = np.concatenate([buf_f, f]) if buf_f.size else f
            nfull = (buf_d.size // bs) * bs
            if nfull:
                prev_last = _flush(buf_d[:nfull], buf_f[:nfull], prev_last)
                buf_d, buf_f = buf_d[nfull:], buf_f[nfull:]
        if buf_d.size:
            prev_last = _flush(buf_d, buf_f, prev_last)
        if df == 0:
            raise ValueError(f"empty postings for term {term!r}")
        blocks = {k: np.concatenate([p[k] for p in parts]) for k in _BLOCK_KEYS}
        return {
            "offset": np.array([start_offset], dtype=np.int64),
            "df": np.array([df], dtype=np.int64),
            "blk_start": np.array([0, blocks["blk_offset"].size], dtype=np.int64),
            "codec": self.codec,
            **blocks,
        }

    def close(self) -> int:
        self.file.close()
        return self._offset


class _DecodedLRU:
    """Byte-bounded LRU for decoded posting arrays (the engine's version of
    the reference's decoded-block cache, ``HW2/profkit.py:30-47``), one
    budget for every numpy tuple a Searcher keeps: a term's decoded
    ``(docids, freqs)`` (``get``, counted in ``hits``/``misses``) and a
    dense list's ``(span offsets, BM25 contributions)`` (``find``, counted
    by the Searcher). Arrays are marked read-only before caching so a
    mutating caller fails loudly instead of corrupting later hits."""

    def __init__(self, max_bytes: int):
        self.max_bytes = int(max_bytes)
        self.bytes = 0
        self.hits = 0
        self.misses = 0
        self._d: dict[tuple, tuple[np.ndarray, ...]] = {}

    def get(self, key: tuple):
        """A decoded list's arrays, or None; counted as a hit or a miss."""
        got = self.find(key)
        if got is None:
            self.misses += 1
        else:
            self.hits += 1
        return got

    def find(self, key: tuple):
        """``get`` without the decoded-list counters."""
        got = self._d.pop(key, None)
        if got is not None:
            self._d[key] = got  # refresh LRU position
        return got

    def put(self, key: tuple, *arrays: np.ndarray):
        sz = sum(int(a.nbytes) for a in arrays)
        if sz > self.max_bytes or key in self._d:
            # one giant list must not evict the whole cache; a key two
            # callers missed at once is held (and counted) once
            return
        for a in arrays:
            a.setflags(write=False)
        while self.bytes + sz > self.max_bytes and self._d:
            oldest = self._d.pop(next(iter(self._d)))
            self.bytes -= sum(int(a.nbytes) for a in oldest)
        self._d[key] = arrays
        self.bytes += sz


class PostingsShardReader:
    """Reads a postings shard written by :class:`PostingsShardWriter`.

    The shard file is memory-mapped read-only: block decodes gather from the
    map directly (zero syscalls per block, OS page cache shared across query
    actors on a node — the serving model the reference approximates with one
    open fd per Searcher, ``HW2/engine/searcher.py:28``). On top of the page
    cache sits a byte-bounded LRU of DECODED arrays (``cache_bytes``, 0
    disables) keyed per whole term — repeated terms (stopword queries) skip
    the varbyte decode entirely; ``read_tfs_for``'s targeted block decodes
    are not cached. Pass an existing :class:`_DecodedLRU` as ``cache`` to
    SHARE one budget across many readers (a Searcher over thousands of
    shards must have one global bound, not one per shard — keys carry the
    shard path).

    Copy before mutating anything returned by read_postings: cached arrays
    are read-only."""

    def __init__(
        self,
        path: str,
        cache_bytes: int = 32 << 20,
        cache: "_DecodedLRU | None" = None,
    ):
        import mmap

        self.path = path
        self.file = open(path, "rb")
        size = os.fstat(self.file.fileno()).st_size
        self._mm = (
            mmap.mmap(self.file.fileno(), 0, access=mmap.ACCESS_READ) if size else None
        )
        self._view = memoryview(self._mm) if self._mm is not None else memoryview(b"")
        if cache is not None:
            self.cache = cache
        else:
            self.cache = _DecodedLRU(cache_bytes) if cache_bytes else None
        self.targeted_blocks = 0  # blocks decoded by read_tfs_for's block seek

    def close(self) -> None:
        self._view.release()
        if self._mm is not None:
            self._mm.close()
        self.file.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def read_postings(self, entry: dict) -> tuple[np.ndarray, np.ndarray]:
        """Full postings of a term -> (docids u64, freqs u64): the
        :meth:`_decode_block` gather over all of the term's blocks. Cached
        per term (read-only arrays — copy before mutating)."""
        if self.cache is not None:
            key = ("t", self.path, int(entry["offset"]))
            hit = self.cache.get(key)
            if hit is not None:
                return hit
        docids, freqs = self._decode_block(entry, np.arange(entry["nblocks"]))
        if self.cache is not None:
            self.cache.put(key, docids, freqs)
        return docids, freqs

    def _decode_block(self, entry: dict, blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Decode the term's blocks ``blocks`` (ascending block indexes) in
        one gather: one index array pulls the blocks' bytes (a plain slice
        when they are contiguous), a doc/freq mask splits them into one doc
        and one freq stream, and each stream takes one decode. Docids come
        back globally sorted: a segmented cumsum restarts each block's gaps
        at its base, the previous block's ``last_docid`` (0 for block 0)."""
        b = np.asarray(blocks, dtype=np.intp)
        if not b.size:
            return np.empty(0, np.uint64), np.empty(0, np.uint64)
        off = entry["blk_offset"][b].astype(np.int64)
        db = entry["blk_doc_bytes"][b].astype(np.int64)
        fb = entry["blk_freq_bytes"][b].astype(np.int64)
        raw = np.frombuffer(self._view, dtype=np.uint8)
        lo, hi = int(off[0]), int(off[-1] + db[-1] + fb[-1])
        contiguous = hi - lo == int(db.sum() + fb.sum())
        buf = raw[lo:hi] if contiguous else raw[_extents(off, db + fb)]
        lens = np.column_stack([db, fb]).ravel()  # [doc][freq] per block
        is_doc = np.repeat(np.resize(np.array([True, False]), lens.size), lens)
        doc_bytes, freq_bytes = buf[is_doc], buf[~is_doc]
        varbyte = entry["codec"] == "varbyte"
        if varbyte:
            gaps, freqs = codecs.vb_decode(doc_bytes), codecs.vb_decode(freq_bytes)
        else:
            gaps = doc_bytes.view("<u8").astype(np.uint64)  # raw docids are absolute
            freqs = freq_bytes.view("<u4").astype(np.uint64)
        if gaps.size != freqs.size:
            raise ValueError("corrupt block: docid/freq length mismatch")
        if not varbyte:
            return gaps, freqs
        # block j's first gap counts from blk_last_docid[b_j - 1] (0 for
        # block 0), but a plain cumsum reaches it at blk_last_docid[b_{j-1}]:
        # add the difference at its first posting. Contiguous blocks differ
        # only at the first; otherwise block j starts after as many postings
        # as there are terminator bytes before its doc bytes
        last = entry["blk_last_docid"]
        base = last[np.maximum(b - 1, 0)]
        if b[0] == 0:
            base[0] = 0
        base[1:] -= last[b[:-1]]
        if contiguous:
            gaps[0] += base[0]
        else:
            gaps[np.searchsorted(np.flatnonzero(doc_bytes & 0x80), _cumstarts(db))] += base
        return np.cumsum(gaps, dtype=np.uint64), freqs

    def read_tfs_for(self, entry: dict, targets: np.ndarray) -> np.ndarray:
        """tf lookup for a docid array, 0 where absent: decodes ONLY the
        blocks that can contain a target (block directory seek), in one
        :meth:`_decode_block` gather, and answers every target with one
        ``searchsorted``. Falls back to the full (cached) list when the
        targets touch most blocks anyway."""
        t = np.ascontiguousarray(targets, dtype=np.uint64)
        out = np.zeros(t.size, dtype=np.uint64)
        if t.size == 0 or entry["df"] == 0:
            return out
        blk = np.searchsorted(entry["blk_last_docid"], t, side="left")
        blocks = np.unique(blk[blk < entry["nblocks"]])
        if blocks.size > max(8, entry["nblocks"] // 2):
            d, f = self.read_postings(entry)
        else:
            d, f = self._decode_block(entry, blocks)
            self.targeted_blocks += int(blocks.size)
        pos = np.searchsorted(d, t)
        ok = pos < d.size
        ok[ok] = d[pos[ok]] == t[ok]
        out[ok] = f[pos[ok]]
        return out


def _cumstarts(lengths: np.ndarray) -> np.ndarray:
    """Start of each segment when segments of ``lengths`` sit back to back."""
    at = np.zeros(lengths.size, dtype=np.int64)
    np.cumsum(lengths[:-1], out=at[1:])
    return at


def _extents(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """One index array over the extents ``[starts[i], starts[i] +
    lengths[i])``, back to back."""
    return np.arange(int(lengths.sum()), dtype=np.int64) + np.repeat(
        starts - _cumstarts(lengths), lengths
    )


def shard_path(index_dir: str, shard: int, kind: str) -> str:
    return os.path.join(index_dir, f"shard_{shard:05d}.{kind}")
