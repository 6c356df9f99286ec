"""Tokenizer parity tests: scalar vs vectorized (polars) vs the reference
regex semantics (``HW2/engine/parser.py:69-78``), incl. dotted/hyphenated
tokens, entities, case, and the query-side asymmetry."""

import html
import re
from collections import Counter

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from web_search_engine_ray.functions import tokenize as tk


def ref_tokenize(text: str) -> list[str]:
    # Reference contract: unescape (+ftfy if present) -> lower -> findall
    t = html.unescape(text)
    if tk.HAVE_FTFY:
        from ftfy import fix_text

        t = fix_text(t)
    return re.findall(r"[a-z0-9]+(?:[.-][a-z0-9]+)*", t.lower())


CASES = [
    "The U.S. economy grew 3.14 percent",
    "v1.2-beta e-mail  weird--double",
    "&amp;quot; escaped &lt;tags&gt; &amp; more",
    "MiXeD CaSe, punct! and... trailing-",
    "",
    "    ",
    "...",
    "a.b.c-d.e 0.0.1",
    "ends-with-dot. .starts",
    "tab\tseparated\nnewline",
]


def test_scalar_matches_reference_cases():
    for c in CASES:
        assert tk.tokenize(c) == ref_tokenize(c), c


def test_dotted_tokens_kept_whole():
    assert tk.tokenize("U.S. policy") == ["u.s", "policy"]
    assert tk.tokenize("pi is 3.14") == ["pi", "is", "3.14"]


def test_vectorized_matches_scalar_cases():
    arr = pa.array(CASES, type=pa.string())
    lists = tk.token_lists(arr)
    for c, got in zip(CASES, lists.to_list()):
        assert (got or []) == tk.tokenize(c), c


@given(st.lists(st.text(max_size=60), min_size=1, max_size=20))
@settings(max_examples=150, deadline=None)
def test_vectorized_matches_scalar_property(texts):
    arr = pa.array(texts, type=pa.string())
    lists = tk.token_lists(arr).to_list()
    for t, got in zip(texts, lists):
        assert (got or []) == tk.tokenize(t)


def test_query_terms_asymmetry():
    # Query path is lower().split() — punctuation is NOT stripped
    assert tk.query_terms("Machine LEARNING") == ["machine", "learning"]
    assert tk.query_terms("U.S. policy,") == ["u.s.", "policy,"]
    assert tk.query_terms("") == []


def test_batch_postings_tf_and_dl():
    texts = pa.array(["the cat the hat", "", "dog dog dog", "   "], type=pa.string())
    docids = np.array([10, 11, 12, 13], dtype=np.uint64)
    postings, dl = tk.batch_postings(docids, texts)
    assert dl.tolist() == [4, 0, 3, 0]
    rows = sorted(
        zip(
            postings["term"].to_pylist(),
            postings["docid"].to_pylist(),
            postings["tf"].to_pylist(),
        )
    )
    assert rows == [
        ("cat", 10, 1),
        ("dog", 12, 3),
        ("hat", 10, 1),
        ("the", 10, 2),
    ]
    # sorted by (term, docid)
    terms = postings["term"].to_pylist()
    ds = postings["docid"].to_pylist()
    assert sorted(zip(terms, ds)) == list(zip(terms, ds))


def _ref_postings(docids, texts):
    """Pure-Python ``batch_postings``: scalar ``tokenize`` + ``Counter`` per
    docid (rows sharing a docid add up), sorted by ``(term, docid)``."""
    tf = Counter()
    dl = []
    for d, t in zip(docids, texts):
        toks = tk.tokenize(t or "")
        dl.append(len(toks))
        tf.update((term, int(d)) for term in toks)
    return sorted((term, d, n) for (term, d), n in tf.items()), dl


def _assert_matches_ref(docids, texts):
    docids = np.asarray(docids, dtype=np.uint64)
    postings, dl = tk.batch_postings(docids, texts)
    flat = texts.to_pylist()
    want, want_dl = _ref_postings(docids.tolist(), flat)
    assert postings.schema == pa.schema(
        [("term", pa.string()), ("docid", pa.uint64()), ("tf", pa.uint32())]
    )
    got = list(
        zip(
            postings["term"].to_pylist(),
            postings["docid"].to_pylist(),
            postings["tf"].to_pylist(),
        )
    )
    assert got == want  # same rows in the same (term, docid) order
    assert dl.dtype == np.uint32
    assert dl.tolist() == want_dl


# "\u212a" is the Kelvin sign, which lowercases to "k"
_WORDS = ["the", "a", "u.s", "3.14", "v1.2-beta", "e-mail", "x", "zz", "naïve", "\u212a"]


def test_batch_postings_matches_reference_seeded():
    rng = np.random.default_rng(7)
    for n in (1, 2, 17, 300):
        texts = [
            " ".join(rng.choice(_WORDS, size=rng.integers(0, 12)).tolist()) for _ in range(n)
        ]
        docids = rng.choice(10 * n, size=n, replace=False)
        _assert_matches_ref(np.sort(docids), pa.array(texts, pa.string()))
        _assert_matches_ref(docids, pa.array(texts, pa.string()))  # unsorted


def test_batch_postings_matches_reference_adversarial():
    texts = [
        "b a a",
        None,
        "",
        "... !!! --",
        "a &amp; b &lt;c&gt;",
        "U.S. v1.2-beta e-mail e-mail weird--double 3.14",
        "stra\u00dfe na\u00efve Kelvin \u212a",
    ]
    arr = pa.array(texts, pa.string())
    _assert_matches_ref(np.arange(len(texts)), arr)
    # duplicate and unsorted docids: rows sharing a docid aggregate as one doc
    _assert_matches_ref([9, 3, 9], pa.array(["b a a", "a", "a b"], pa.string()))
    _assert_matches_ref([9, 3, 9, 3, 1, 9, 0], arr)
    # empty batch
    _assert_matches_ref([], pa.array([], pa.string()))
    # every row token-less
    _assert_matches_ref([5, 6], pa.array(["", None], pa.string()))
    # multi-chunk input
    chunked = pa.chunked_array([texts[:2], texts[2:5], texts[5:]], pa.string())
    _assert_matches_ref(np.arange(100, 100 + len(texts)), chunked)
