"""Blocked postings shard writer/reader: round-trip, block directory, block decode."""

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
        all_d = [x for b in range(e["nblocks"]) for x in r._decode_block(e, b)[0]]
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


def test_lexicon_shard_roundtrip(tmp_path):
    tp = {
        "aa": ([1, 2, 3], [1, 1, 1]),
        "bb": (list(range(20)), [2] * 20),
        "cc": ([7], [1]),
    }
    entries = _write_terms(tmp_path / "s.postings", tp, block_size=4)
    terms = sorted(tp)
    lex = LexiconShard.from_entries(terms, [entries[t] for t in terms])
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
    # block decodes cache independently
    b1 = r._decode_block(entries["alpha"][0], 0)
    b2 = r._decode_block(entries["alpha"][0], 0)
    assert np.array_equal(b1[0], b2[0])
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
