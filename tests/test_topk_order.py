"""``query.topk_order``, the one top-k cut under every ranker, against its
two plain definitions: the full (-score, id) sort cut to k (``sorted``), and
the reference's size-k min-heap over ascending ids that replaces only on a
strictly greater score (``heap``)."""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from web_search_engine_ray.pipelines.query import topk_order


def _heap_loop(ids, scores, k):
    if k == 0:  # the loop would read the top of an empty heap
        return []
    top = []
    for i in np.argsort(ids, kind="stable").tolist():
        item = (scores[i], ids[i], i)
        if len(top) < k:
            heapq.heappush(top, item)
        elif item[0] > top[0][0]:
            heapq.heapreplace(top, item)
    top.sort(key=lambda x: (-x[0], x[1]))
    return [i for _, _, i in top]


@st.composite
def _cases(draw):
    n = draw(st.integers(0, 60))
    # a handful of distinct values, so most scores tie with others
    if draw(st.booleans()):
        values = st.integers(-3, 3)
        dtype = np.int64
    else:
        values = st.sampled_from([-1.5, 0.0, 0.25, 2.0, 7.125])
        dtype = np.float64
    scores = np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype)
    ids = np.array(draw(st.permutations(range(100, 100 + 3 * n, 3))), np.uint64)
    return ids, scores


@given(_cases(), st.sampled_from(["zero", "one", "n-1", "n", "n+3", "none"]))
@settings(max_examples=300, deadline=None)
def test_topk_order_matches_both_definitions(case, which):
    ids, scores = case
    n = scores.size
    k = {"zero": 0, "one": 1, "n-1": max(n - 1, 0), "n": n, "n+3": n + 3, "none": None}[which]
    full = np.lexsort((ids, -scores))
    got = topk_order(ids, scores, k, "sorted")
    assert got.tolist() == full[:k].tolist()
    got = topk_order(ids, scores, k, "heap")
    want = full.tolist() if k is None else _heap_loop(ids.tolist(), scores.tolist(), k)
    assert got.tolist() == want


def test_heap_and_sorted_keep_different_ties():
    """Five docs tie at the cut of k=2 ahead of a higher score: the sorted
    cut keeps the smallest tied id; the heap keeps id 1, as later ties never
    enter it and the higher score evicts the smallest-id tie."""
    ids = np.arange(6, dtype=np.uint64)
    scores = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 2.0])
    assert topk_order(ids, scores, 2, "sorted").tolist() == [5, 0]
    assert topk_order(ids, scores, 2, "heap").tolist() == [5, 1]
    assert topk_order(ids, scores, 2, "heap").tolist() == _heap_loop(
        ids.tolist(), scores.tolist(), 2
    )


@pytest.mark.parametrize("tie", ["heap", "sorted"])
def test_empty_input(tie):
    empty = np.empty(0, np.uint64)
    for k in (None, 0, 1):
        assert topk_order(empty, np.empty(0), k, tie).size == 0
