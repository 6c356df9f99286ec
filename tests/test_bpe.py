"""BPE training + encoding contracts.

The trainer has no SQL twin (iterative argmax); its gate entry is rows-only,
pinned here against an independent from-scratch naive implementation
(full recount every round — quadratic, test-only)."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from web_search_engine_ray.pipelines.bpe import (
    END,
    encode_word,
    train_bpe_from_frequencies,
)


def naive_bpe(freqs, n_merges):
    """Reference trainer: recount all pairs from scratch each round.
    Overlapping occurrences all count; merge applies left-to-right
    non-overlapping; ties break on lexicographically smallest pair."""
    words = {i: [*w, END] for i, (w, _) in enumerate(freqs)}
    counts = {i: c for i, (_, c) in enumerate(freqs)}
    merges = []
    for _ in range(n_merges):
        pc = {}
        for i, w in words.items():
            for p in zip(w, w[1:]):
                pc[p] = pc.get(p, 0) + counts[i]
        if not pc:
            break
        best = min(pc.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        merges.append(best)
        a, b = best
        for i, w in words.items():
            nw, j = [], 0
            while j < len(w):
                if j + 1 < len(w) and w[j] == a and w[j + 1] == b:
                    nw.append(a + b)
                    j += 2
                else:
                    nw.append(w[j])
                    j += 1
            words[i] = nw
    return merges


FREQS = [
    ("lowest", 6),
    ("lower", 5),
    ("low", 10),
    ("newest", 8),
    ("newer", 4),
    ("new", 9),
    ("widest", 3),
    ("wide", 2),
    ("a", 7),  # single-char word: only pair is (a, </w>)
]


def test_trainer_matches_naive_recount():
    got = train_bpe_from_frequencies(FREQS, 25)
    want = naive_bpe(FREQS, 25)
    assert got == want
    assert len(got) == 21  # this vocab exhausts all pairs before the budget


def test_trainer_stops_when_exhausted():
    # one tiny word -> merges run out before the budget
    m = train_bpe_from_frequencies([("ab", 1)], 50)
    assert m == naive_bpe([("ab", 1)], 50)
    assert len(m) == 2  # (a,b) then (ab,</w>)


def test_trainer_order_invariance():
    # training must not depend on the order of the frequency relation
    m1 = train_bpe_from_frequencies(FREQS, 15)
    m2 = train_bpe_from_frequencies(list(reversed(FREQS)), 15)
    assert m1 == m2


def test_encode_roundtrip_and_rank_priority():
    merges = train_bpe_from_frequencies(FREQS, 20)
    ranks = {p: i for i, p in enumerate(merges)}
    for w, _ in FREQS:
        pieces = encode_word(w, ranks)
        assert "".join(pieces) == w + END  # lossless
    # a word fully merged into the vocab encodes to one piece
    if ("low", END) in ranks or ("lo", "w") in ranks:
        assert len(encode_word("low", ranks)) <= 2


@pytest.fixture(scope="module")
def bpe_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("bpe")
    texts = [
        "low lower lowest low low",
        "new newer newest new",
        "wide widest low new",
        "",
    ]
    t = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    pq.write_table(t, str(d / "documents.parquet"))
    return str(d)


def test_distributed_word_freqs_feed_trainer(ray_session, bpe_dir):
    from web_search_engine_ray.pipelines.bpe import train_bpe, word_frequencies

    freqs = word_frequencies(bpe_dir)
    want = {
        "low": 4,
        "lower": 1,
        "lowest": 1,
        "new": 3,
        "newer": 1,
        "newest": 1,
        "wide": 1,
        "widest": 1,
    }
    assert dict(freqs) == want
    # sorted by (count desc, word asc)
    assert freqs[0] == ("low", 4) and freqs[1] == ("new", 3)
    assert train_bpe(bpe_dir, n_merges=10) == naive_bpe(list(freqs), 10)


def test_encode_stats_ds(ray_session, bpe_dir):
    from web_search_engine_ray.pipelines.bpe import (
        bpe_encode_stats_ds,
        encode_word,
        train_bpe,
    )

    got = (
        bpe_encode_stats_ds(bpe_dir, n_merges=10)
        .to_pandas()
        .sort_values("docid")
        .reset_index(drop=True)
    )
    assert list(got["docid"]) == [0, 1, 2, 3]
    assert list(got["n_tokens"]) == [5, 4, 4, 0]
    ranks = {p: i for i, p in enumerate(train_bpe(bpe_dir, n_merges=10))}
    texts = [
        "low lower lowest low low",
        "new newer newest new",
        "wide widest low new",
        "",
    ]
    want_pieces = [
        sum(len(encode_word(w, ranks)) for w in t.split()) for t in texts
    ]
    assert list(got["n_pieces"]) == want_pieces


def test_max_words_cap(ray_session, bpe_dir):
    from web_search_engine_ray.pipelines.bpe import word_frequencies

    top2 = word_frequencies(bpe_dir, max_words=2)
    assert top2 == [("low", 4), ("new", 3)]
