"""Blocked postings shard writer/reader: round-trip, block directory, block decode."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from web_search_engine_ray.state.lexicon import LexiconShard
from web_search_engine_ray.state.listio import PostingsShardReader, PostingsShardWriter


def _write_terms(path, terms_postings, block_size=4, codec="varbyte"):
    w = PostingsShardWriter(str(path), block_size=block_size, codec=codec)
    entries = {}
    for term, (d, f) in terms_postings.items():
        entries[term] = w.add_term(term, np.array(d, np.uint64), np.array(f, np.uint64))
    w.close()
    return entries


@pytest.mark.parametrize("codec", ["varbyte", "raw"])
def test_roundtrip_multi_term(tmp_path, codec):
    tp = {
        "alpha": ([1, 5, 9, 10, 200, 301, 5000], [1, 2, 1, 7, 1, 1, 3]),
        "beta": ([0], [9]),
        "gamma": (list(range(0, 1000, 3)), [1] * 334),
    }
    path = tmp_path / "s.postings"
    entries = _write_terms(path, tp, block_size=4, codec=codec)
    with PostingsShardReader(str(path)) as r:
        for term, (d, f) in tp.items():
            docids, freqs = r.read_postings(entries[term])
            assert docids.tolist() == d
            assert freqs.tolist() == f
            assert entries[term]["df"] == len(d)


def test_block_directory_shape(tmp_path):
    d = list(range(10))
    entries = _write_terms(tmp_path / "s.postings", {"t": (d, [1] * 10)}, block_size=4)
    e = entries["t"]
    assert e["nblocks"] == 3
    assert e["blk_last_docid"].tolist() == [3, 7, 9]


def test_blocks_decode_in_order(tmp_path):
    d = list(range(0, 100, 2))  # 50 postings, blocks of 8
    path = tmp_path / "s.postings"
    entries = _write_terms(path, {"t": (d, [1] * 50)}, block_size=8)
    with PostingsShardReader(str(path)) as r:
        e = entries["t"]
        # every block decodes against its directory base, in order
        all_d = [x for b in range(e["nblocks"]) for x in r._decode_block(e, [b])[0]]
        assert all_d == d


def test_u64_docids(tmp_path):
    d = [2**40, 2**40 + 3, 2**41]
    path = tmp_path / "s.postings"
    entries = _write_terms(path, {"t": (d, [1, 2, 3])}, block_size=2)
    with PostingsShardReader(str(path)) as r:
        docids, freqs = r.read_postings(entries["t"])
        assert docids.tolist() == d


@given(
    st.lists(
        st.integers(min_value=1, max_value=1 << 20), min_size=1, max_size=400
    ),
    st.integers(min_value=1, max_value=64),
    st.sampled_from(["varbyte", "raw"]),
)
@settings(max_examples=50, deadline=None)
def test_roundtrip_property(tmp_path_factory, gaps, block_size, codec):
    tmp = tmp_path_factory.mktemp("lp")
    docids = np.cumsum(np.array(gaps, dtype=np.uint64)) - 1
    freqs = (np.arange(docids.size) % 17 + 1).astype(np.uint64)
    w = PostingsShardWriter(str(tmp / "s"), block_size=block_size, codec=codec)
    e = w.add_term("x", docids, freqs)
    w.close()
    with PostingsShardReader(str(tmp / "s")) as r:
        d2, f2 = r.read_postings(e)
        assert d2.tolist() == docids.tolist()
        assert f2.tolist() == freqs.tolist()


def _full_list_tfs(r, e, targets):
    """tfs of ``targets`` looked up in the whole decoded list (0 if absent)."""
    d, f = r.read_postings(e)
    pos = np.minimum(np.searchsorted(d, targets), d.size - 1)
    return np.where(d[pos] == targets, f[pos], 0)


@given(
    st.integers(min_value=1, max_value=600),
    st.integers(min_value=1, max_value=32),
    st.sampled_from(["varbyte", "raw"]),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_read_tfs_for_matches_full_list(tmp_path_factory, n, block_size, codec, seed, data):
    """The block-targeted lookup (one gather over the blocks its targets can
    fall in) equals a lookup in the whole list, on either side of the
    full-list fallback, for targets below the first docid, past the last
    block, on block boundaries and at random."""
    tmp = tmp_path_factory.mktemp("tf")
    rng = np.random.default_rng(seed)
    docids = np.cumsum(rng.integers(1, 300, n, dtype=np.uint64)) + np.uint64(rng.integers(1, 50))
    freqs = rng.integers(1, 300, n, dtype=np.uint64)
    w = PostingsShardWriter(str(tmp / "s"), block_size=block_size, codec=codec)
    e = w.add_term("x", docids, freqs)
    w.close()
    nb = e["nblocks"]
    last = e["blk_last_docid"].astype(np.int64)
    hi = int(docids[-1])
    edges = [0, int(docids[0]) - 1, int(docids[0]), hi + 1, hi + 1000, *last, *(last + 1)]
    random = data.draw(st.lists(st.integers(0, hi + 5), max_size=80))
    # block sets at and just past the fallback threshold (more than
    # max(8, nblocks // 2) blocks read the whole list)
    thr = max(8, nb // 2)
    order = data.draw(st.permutations(range(nb)))
    picks = []
    for k in {min(thr, nb), min(thr + 1, nb)}:
        blocks = np.sort(np.array(order[:k], np.int64))
        lo = np.where(blocks > 0, last[np.maximum(blocks - 1, 0)] + 1, 0)
        # each picked block's first docid, and a docid between its bounds
        t = np.concatenate([docids[blocks * block_size].astype(np.int64), (lo + last[blocks]) // 2])
        picks.append((k, t))
    with PostingsShardReader(str(tmp / "s")) as r:
        assert r.read_postings(e)[0].tolist() == docids.tolist()
        for k, t in [(None, edges), (None, random), *picks]:
            t = np.unique(np.array(t, np.int64)).astype(np.uint64)
            seen = r.targeted_blocks
            got = r.read_tfs_for(e, t)
            assert got.tolist() == _full_list_tfs(r, e, t).tolist(), (k, t)
            if k is not None:
                assert r.targeted_blocks - seen == (k if k <= thr else 0), (k, thr, nb)


def test_lexicon_shard_roundtrip(tmp_path):
    tp = {
        "aa": ([1, 2, 3], [1, 1, 1]),
        "bb": (list(range(20)), [2] * 20),
        "cc": ([7], [1]),
    }
    terms = sorted(tp)
    w = PostingsShardWriter(str(tmp_path / "s.postings"), block_size=4)
    arrays = w.add_terms(
        np.cumsum([0] + [len(tp[t][0]) for t in terms[:-1]]),
        np.concatenate([np.array(tp[t][0], np.uint64) for t in terms]),
        np.concatenate([np.array(tp[t][1], np.uint64) for t in terms]),
    )
    w.close()
    lex = LexiconShard.from_arrays(terms, arrays)
    lex.save(str(tmp_path / "s.lexicon"))
    lex2 = LexiconShard.load(str(tmp_path / "s.lexicon"))
    assert len(lex2) == 3
    assert "bb" in lex2 and "zz" not in lex2
    e = lex2.get("bb")
    assert e["df"] == 20 and e["nblocks"] == 5
    with PostingsShardReader(str(tmp_path / "s.postings")) as r:
        d, f = r.read_postings(e)
        assert d.tolist() == list(range(20))
    assert lex2.get("zz") is None


def test_decoded_lru_cache(tmp_path):
    """T4 parity (reference profkit.LRU): repeated term reads hit the
    decoded cache, results identical, byte bound enforced, cached arrays
    read-only."""
    import numpy as np
    import pytest as _pytest

    from web_search_engine_ray.state.listio import (
        PostingsShardReader,
        PostingsShardWriter,
    )

    path = str(tmp_path / "shard.postings")
    w = PostingsShardWriter(path, block_size=4)
    entries = {}
    for i, term in enumerate(["alpha", "beta", "gamma"]):
        d = np.arange(i, i + 300, dtype=np.uint64) * 3
        f = (d % 7 + 1).astype(np.uint64)
        entries[term] = (w.add_term(term, d, f), d, f)
    w.close()

    r = PostingsShardReader(path, cache_bytes=1 << 20)
    for term, (e, d, f) in entries.items():
        d1, f1 = r.read_postings(e)
        d2, f2 = r.read_postings(e)
        assert np.array_equal(d1, d) and np.array_equal(f1, f)
        assert np.array_equal(d2, d) and np.array_equal(f2, f)
    assert r.cache.hits >= 3
    with _pytest.raises(ValueError):
        r.read_postings(entries["alpha"][0])[0][0] = 1  # read-only
    # a block decode (not cached) gives the same arrays on every call
    b1 = r._decode_block(entries["alpha"][0], [0])
    b2 = r._decode_block(entries["alpha"][0], [0])
    assert np.array_equal(b1[0], b2[0])
    # a key put twice (two threads missed it at once) is held and counted
    # once; ``find`` answers without moving the decoded-list counters
    e = entries["alpha"][0]
    key = ("t", r.path, int(e["offset"]))
    held = r.cache.bytes
    r.cache.put(key, *r._decode_block(e, np.arange(e["nblocks"])))
    assert r.cache.bytes == held
    counts = (r.cache.hits, r.cache.misses)
    assert r.cache.find(key) is not None and r.cache.find(("t", "none", 0)) is None
    assert (r.cache.hits, r.cache.misses) == counts
    r.close()

    # tiny budget: evicts, never exceeds the bound
    r2 = PostingsShardReader(path, cache_bytes=4096)
    for term, (e, d, f) in entries.items():
        r2.read_postings(e)
        assert r2.cache.bytes <= 4096
    # disabled cache path still works
    r3 = PostingsShardReader(path, cache_bytes=0)
    d1, f1 = r3.read_postings(entries["beta"][0])
    assert np.array_equal(d1, entries["beta"][1])
    assert r3.cache is None
    r2.close()
    r3.close()


# ---------------------------------------------------------------- shard kernel

BLOCK_ARRAYS = ("blk_offset", "blk_doc_bytes", "blk_freq_bytes", "blk_last_docid", "blk_max_tf")


def _scalar_vb(values):
    """Scalar varbyte, MSB on each integer's last byte (the contract
    ``tests/test_codecs.py::ref_vb_encode`` pins)."""
    out = bytearray()
    for x in values:
        while x >= 0x80:
            out.append(x & 0x7F)
            x >>= 7
        out.append(x | 0x80)
    return bytes(out)


def _oracle_shard(terms, bs, codec):
    """The expected shard, block by block in plain Python: each block's gap
    base is the previous block's last docid within the term, 0 at each
    term start; ``[doc bytes][freq bytes]`` back to back."""
    data = bytearray()
    want = {k: [] for k in ("offset", "df", "blk_start") + BLOCK_ARRAYS}
    want["blk_start"].append(0)
    for d, f in terms:
        want["offset"].append(len(data))
        want["df"].append(len(d))
        base = 0
        for lo in range(0, len(d), bs):
            bd, bf = d[lo : lo + bs], f[lo : lo + bs]
            if codec == "varbyte":
                db = _scalar_vb([bd[0] - base] + [b - a for a, b in zip(bd, bd[1:])])
                fb = _scalar_vb(bf)
            else:
                db = b"".join(x.to_bytes(8, "little") for x in bd)
                fb = b"".join(x.to_bytes(4, "little") for x in bf)
            for k, v in zip(BLOCK_ARRAYS, (len(data), len(db), len(fb), bd[-1], max(bf))):
                want[k].append(v)
            data += db + fb
            base = bd[-1]
        want["blk_start"].append(len(want["blk_offset"]))
    return bytes(data), want


@st.composite
def _shards(draw):
    """Many terms per shard: df 1, an exact block multiple, one past a block
    multiple, or anything; docids restart at random per term (so they
    often drop across a term boundary), gaps and tfs of 1-4 varbytes."""
    bs = draw(st.sampled_from([1, 3, 4, 128]))
    codec = draw(st.sampled_from(["varbyte", "raw"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    terms = []
    for _ in range(draw(st.integers(1, 10))):
        k = draw(st.integers(1, 3))
        df = draw(st.sampled_from([1, k * bs, k * bs + 1, draw(st.integers(1, 300))]))
        first = int(rng.integers(0, 1 << 40))
        gaps = rng.integers(1, 1 << int(rng.integers(1, 28)), size=df - 1)
        d = [first] + (first + np.cumsum(gaps)).tolist()
        f = rng.integers(1, 1 << int(rng.integers(1, 21)), size=df).tolist()
        terms.append((d, f))
    return bs, codec, terms


@given(_shards())
@settings(max_examples=60, deadline=None)
def test_shard_kernel_matches_scalar_oracle(tmp_path_factory, shard):
    """``add_terms`` over a whole shard writes the oracle's bytes and
    returns the oracle's lexicon arrays; one-term ``add_term`` calls and a
    chunked ``add_term_stream`` of each term write the same bytes."""
    bs, codec, terms = shard
    tmp = tmp_path_factory.mktemp("kernel")
    data, want = _oracle_shard(terms, bs, codec)

    starts = np.cumsum([0] + [len(d) for d, _ in terms[:-1]])
    docids = np.concatenate([np.array(d, np.uint64) for d, _ in terms])
    tfs = np.concatenate([np.array(f, np.uint64) for _, f in terms])
    w = PostingsShardWriter(str(tmp / "shard"), block_size=bs, codec=codec)
    got = w.add_terms(starts, docids, tfs)
    assert w.close() == len(data)
    assert (tmp / "shard").read_bytes() == data
    assert got["codec"] == codec
    for k, v in want.items():
        dtype = np.uint64 if k in ("blk_last_docid", "blk_max_tf") else np.int64
        assert got[k].dtype == dtype, k
        assert got[k].tolist() == v, k

    lex = LexiconShard.from_arrays([f"t{i:03d}" for i in range(len(terms))], got)
    with PostingsShardReader(str(tmp / "shard")) as r:
        for i, (d, f) in enumerate(terms):
            d2, f2 = r.read_postings(lex.get(f"t{i:03d}"))
            assert d2.tolist() == d and f2.tolist() == f

    w = PostingsShardWriter(str(tmp / "one"), block_size=bs, codec=codec)
    for i, (d, f) in enumerate(terms):
        w.add_term(f"t{i}", np.array(d, np.uint64), np.array(f, np.uint64))
    w.close()
    assert (tmp / "one").read_bytes() == data

    w = PostingsShardWriter(str(tmp / "stream"), block_size=bs, codec=codec)
    for i, (d, f) in enumerate(terms):
        cut = sorted({0, len(d), *np.random.default_rng(i).integers(0, len(d), 3).tolist()})
        chunks = [(np.array(d[a:b], np.uint64), np.array(f[a:b], np.uint64)) for a, b in zip(cut, cut[1:])]
        e = w.add_term_stream(f"t{i}", iter(chunks))
        s, t = want["blk_start"][i], want["blk_start"][i + 1]
        assert e["offset"].tolist() == [want["offset"][i]] and e["df"].tolist() == [len(d)]
        assert e["blk_start"].tolist() == [0, t - s]
        for k in BLOCK_ARRAYS:
            assert e[k].tolist() == want[k][s:t], k
    w.close()
    assert (tmp / "stream").read_bytes() == data


@pytest.mark.parametrize("codec", ["varbyte", "raw"])
def test_shard_kernel_docid_drops(tmp_path, codec):
    """A docid drop inside a term is an error; across a term boundary it is
    just the next term starting over."""
    w = PostingsShardWriter(str(tmp_path / "ok"), block_size=2, codec=codec)
    got = w.add_terms(
        np.array([0, 3]), np.array([5, 9, 12, 1, 2], np.uint64), np.ones(5, np.uint64)
    )
    w.close()
    assert got["df"].tolist() == [3, 2]
    assert got["blk_last_docid"].tolist() == [9, 12, 2]
    w = PostingsShardWriter(str(tmp_path / "bad"), block_size=2, codec=codec)
    with pytest.raises(ValueError, match="non-monotonic"):
        w.add_terms(np.array([0, 3]), np.array([5, 9, 7, 1, 2], np.uint64), np.ones(5, np.uint64))
    with pytest.raises(ValueError, match="non-monotonic"):
        # the second term drops at its block boundary, not at its start
        w.add_terms(np.array([0, 1]), np.array([5, 1, 8, 3], np.uint64), np.ones(4, np.uint64))
    with pytest.raises(ValueError, match="non-monotonic"):
        # a stream flush must not go below the previous flush's last docid
        w.add_terms(np.array([0]), np.array([3, 4], np.uint64), np.ones(2, np.uint64), base=5)
    w.close()


def test_normal_shard_sums_repeated_pairs(tmp_path):
    """A batch repeating a (term, docid) row decodes that docid once with
    the tfs summed; the same docid under two terms stays in both."""
    import pyarrow as pa

    from web_search_engine_ray.pipelines.build import BuildConfig, _encode_normal_shard

    cfg = BuildConfig(out_dir=str(tmp_path), block_size=2)
    for d in (cfg.index_dir, cfg.manifests_dir):
        (tmp_path / os.path.basename(d)).mkdir()
    batch = pa.table(
        {
            "term": ["b", "a", "b", "a", "a", "c", "a"],
            "docid": pa.array([9, 3, 9, 9, 3, 3, 4], pa.uint64()),
            "tf": pa.array([1, 2, 5, 1, 4, 6, 1], pa.uint32()),
        }
    )
    m = _encode_normal_shard(batch, 0, cfg, "fp")
    assert (m["n_terms"], m["n_postings"]) == (3, 5)
    lex = LexiconShard.load(str(tmp_path / "index" / "shard_00000.lexicon"))
    with PostingsShardReader(str(tmp_path / "index" / "shard_00000.postings")) as r:
        got = {t: [x.tolist() for x in r.read_postings(lex.get(t))] for t in "abc"}
    # "a" ends and "b" starts on docid 9: adjacent, equal, not a repeat
    assert got == {"a": [[3, 4, 9], [6, 1, 1]], "b": [[9], [6]], "c": [[3], [6]]}
