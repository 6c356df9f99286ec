"""Vectorized varbyte + delta-gap codecs for posting blocks.

Wire format parity with the reference (``HW2/engine/listio.py:229-321``):

- varbyte: 7-bit groups, least-significant group first, **MSB (0x80) set on the
  LAST byte** of each integer (the reference's terminator convention).
- docids are delta-gap encoded: ``gap[0] = docid[0] - base`` where ``base`` is
  the previous block's last docid (0 for a term's first block);
  ``gap[i] = docid[i] - docid[i-1]``. Frequencies are varbyte with no delta.
- the reference's "raw" codec stores u32 little-endian; ours stores docids as
  u64 LE (10^12 turns exceed u32 — SURVEY.md §7.5 lifts this limit) and freqs
  as u32 LE. Varbyte handles arbitrary width on both engines, so the varbyte
  codec (the default) is decoded-list-compatible with the reference.

Unlike the reference's per-integer Python loops, both directions here are
numpy-vectorized: a handful of array ops over a whole array, whatever its
length. The postings encoder (``state/listio.py``) calls them once per
whole shard: ``vb_sizes`` for the block directory, then ``vb_encode_into``
to scatter every gap and every tf straight to its place in the shard's
block layout.
"""

from __future__ import annotations

import numpy as np

# Max 10 7-bit groups covers u64.
_MAX_GROUPS = 10
# thresholds[k] = 2**(7*(k+1)); value v needs 1 + (number of thresholds <= v) bytes
_THRESHOLDS = np.array([1 << (7 * (k + 1)) for k in range(_MAX_GROUPS - 1)], dtype=np.uint64)


def vb_encode(values: np.ndarray) -> bytes:
    """Varbyte-encode a non-negative integer array (MSB marks final byte)."""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    if v.size == 0:
        return b""
    nbytes = vb_sizes(v)
    offsets = np.zeros(v.size, dtype=np.int64)
    np.cumsum(nbytes[:-1], out=offsets[1:])
    out = np.empty(int(offsets[-1] + nbytes[-1]), dtype=np.uint8)
    vb_encode_into(out, v, offsets, nbytes)
    return out.tobytes()


def vb_encode_into(
    out: np.ndarray, values: np.ndarray, offsets: np.ndarray, nbytes: np.ndarray
) -> None:
    """Varbyte-encode ``values`` into the ``uint8`` buffer ``out``, value i
    at byte ``offsets[i]``, taking ``nbytes[i] = vb_sizes(values)[i]`` bytes.
    The offsets need not be contiguous: this is the scatter the postings
    shard encoder uses to lay out ``[doc bytes][freq bytes]`` per block.
    One pass per byte position (at most 10), each over the values still
    that long."""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    for k in range(int(nbytes.max(initial=0))):
        if k:
            keep = np.flatnonzero(nbytes > k)
            v, offsets, nbytes = v[keep], offsets[keep], nbytes[keep]
        byte = ((v >> np.uint64(7 * k)) & np.uint64(0x7F)).astype(np.uint8)
        byte[nbytes == k + 1] |= 0x80
        out[offsets + k] = byte


def vb_decode(data: bytes | memoryview | np.ndarray) -> np.ndarray:
    """Decode a varbyte stream to a uint64 array."""
    buf = np.frombuffer(data, dtype=np.uint8)
    if buf.size == 0:
        return np.empty(0, dtype=np.uint64)
    last = (buf & 0x80) != 0
    ends = np.flatnonzero(last)
    starts = np.empty(ends.size, dtype=np.int64)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    # position of each byte within its number
    pos = np.arange(buf.size, dtype=np.int64)
    group = np.cumsum(last) - last  # id of the number each byte belongs to
    shift = (pos - starts[group]).astype(np.uint64) * np.uint64(7)
    contrib = (buf & 0x7F).astype(np.uint64) << shift
    return np.add.reduceat(contrib, starts)


def delta_encode(docids: np.ndarray, base: int) -> np.ndarray:
    """Absolute sorted docids -> gaps relative to ``base`` (raises on
    non-monotonic input, mirroring ``listio.py:295-297``)."""
    d = np.ascontiguousarray(docids, dtype=np.uint64)
    if d.size == 0:
        return d
    if int(d[0]) < base or (d.size > 1 and np.any(d[1:] < d[:-1])):
        raise ValueError("non-monotonic docid sequence")
    gaps = np.empty_like(d)
    gaps[0] = d[0] - np.uint64(base)
    np.subtract(d[1:], d[:-1], out=gaps[1:])
    return gaps


def delta_decode(gaps: np.ndarray, base: int) -> np.ndarray:
    """Gaps -> absolute docids via cumulative sum from ``base``."""
    g = np.ascontiguousarray(gaps, dtype=np.uint64)
    if g.size == 0:
        return g
    out = np.cumsum(g, dtype=np.uint64)
    out += np.uint64(base)
    return out


def encode_docids(docids: np.ndarray, base: int) -> bytes:
    return vb_encode(delta_encode(docids, base))


def decode_docids(data: bytes | memoryview, base: int) -> np.ndarray:
    return delta_decode(vb_decode(data), base)


def encode_freqs(freqs: np.ndarray) -> bytes:
    return vb_encode(freqs)


def vb_sizes(values: np.ndarray) -> np.ndarray:
    """Encoded byte length of each value (for block-directory bookkeeping):
    one comparison pass per byte length present, so a stream of small gaps
    costs two or three passes."""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    out = np.ones(v.size, dtype=np.int64)
    for t in _THRESHOLDS:
        longer = v >= t
        if not longer.any():
            break
        out += longer
    return out
