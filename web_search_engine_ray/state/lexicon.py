"""Per-shard lexicon: term -> on-disk postings metadata.

The reference keeps ONE pickled ``dict[term] -> entry`` for the whole index
(~314 MB at 8.8M docs, ``HW2/engine/lexicon.py:31-62``, ``HW2/README.md:121-126``)
— impossible at 10^12 turns. We shard by ``hash(term) % num_shards`` (stable
hash, same routing used by the merge shuffle and the query actors) and store
each shard compactly: terms plus struct-of-arrays block directories, rather
than millions of tiny per-block dicts.

Entry schema (same information content as the reference's
``{offset, df, nblocks, blocks:[{offset, doc_bytes, freq_bytes, last_docid}], codec}``,
``HW2/engine/lexicon.py:6-27``):

    {offset:int, df:int, nblocks:int, codec:str,
     blk_offset:i64[], blk_doc_bytes:i64[], blk_freq_bytes:i64[],
     blk_last_docid:u64[]}
"""

from __future__ import annotations

import hashlib
import pickle

import numpy as np


def term_shard(term: str, num_shards: int) -> int:
    """Stable term -> shard routing (blake2b, independent of PYTHONHASHSEED)."""
    h = hashlib.blake2b(term.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(h, "little") % num_shards


def term_shard_array(terms, num_shards: int) -> np.ndarray:
    """Vectorized-ish term -> shard for a sequence of python strings."""
    out = np.empty(len(terms), dtype=np.int32)
    blake = hashlib.blake2b
    for i, t in enumerate(terms):
        out[i] = int.from_bytes(blake(t.encode("utf-8"), digest_size=8).digest(), "little") % num_shards
    return out


class LexiconShard:
    """Compact mapping term -> entry for one shard, pickle-persisted.

    Storage layout: sorted unique ``terms`` list; parallel int arrays
    (offset, df, block-range into the concatenated block-directory arrays).
    Lookup is a binary search; an entry dict (listio-compatible) is
    materialized on demand.
    """

    def __init__(self):
        self.terms: list[str] = []
        self.offset = np.empty(0, dtype=np.int64)
        self.df = np.empty(0, dtype=np.int64)
        self.blk_start = np.empty(0, dtype=np.int64)  # len = nterms + 1
        self.blk_offset = np.empty(0, dtype=np.int64)
        self.blk_doc_bytes = np.empty(0, dtype=np.int64)
        self.blk_freq_bytes = np.empty(0, dtype=np.int64)
        self.blk_last_docid = np.empty(0, dtype=np.uint64)
        self.blk_max_tf = np.empty(0, dtype=np.uint64)
        self.codec = "varbyte"

    @classmethod
    def from_arrays(cls, terms: list[str], arrays: dict) -> "LexiconShard":
        """Build from sorted ``terms`` and the struct of arrays that
        ``PostingsShardWriter.add_terms`` (or ``add_term_stream``, for one
        term) returned for them."""
        shard = cls()
        shard.terms = list(terms)
        for k in ("offset", "df", "blk_start", "blk_offset", "blk_doc_bytes",
                  "blk_freq_bytes", "blk_last_docid", "blk_max_tf", "codec"):
            setattr(shard, k, arrays[k])
        return shard

    def __len__(self) -> int:
        return len(self.terms)

    def __contains__(self, term: str) -> bool:
        return self._find(term) >= 0

    def _find(self, term: str) -> int:
        import bisect

        i = bisect.bisect_left(self.terms, term)
        if i < len(self.terms) and self.terms[i] == term:
            return i
        return -1

    def get(self, term: str) -> dict | None:
        i = self._find(term)
        if i < 0:
            return None
        s, e = int(self.blk_start[i]), int(self.blk_start[i + 1])
        return {
            "term": term,
            "offset": int(self.offset[i]),
            "df": int(self.df[i]),
            "nblocks": e - s,
            "codec": self.codec,
            "blk_offset": self.blk_offset[s:e],
            "blk_doc_bytes": self.blk_doc_bytes[s:e],
            "blk_freq_bytes": self.blk_freq_bytes[s:e],
            "blk_last_docid": self.blk_last_docid[s:e],
            "blk_max_tf": self.blk_max_tf[s:e]
            if self.blk_max_tf.size >= e
            else np.zeros(e - s, dtype=np.uint64),
        }

    def save(self, path: str) -> None:
        with open(path, "wb") as f:
            pickle.dump(self.__dict__, f, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def load(cls, path: str) -> "LexiconShard":
        shard = cls()
        with open(path, "rb") as f:
            shard.__dict__.update(pickle.load(f))
        return shard
