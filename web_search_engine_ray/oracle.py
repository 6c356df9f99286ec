"""Single-process reference-semantics oracle (tests and gate only, intentionally simple).

A fresh transliteration of the reference engine's *behavior* — NOT its code —
used as the ground truth for conformance tests and the ``wand_daat_equivalence``
gate entry (the reference's own strategy: build two ways, compare postings,
``HW2/engine/testrun.py:106-136``; boolean vs DAAT set equality,
``HW2/engine/searcher.py:253-287``). Its ``search`` / ``bm25_taat`` and
``ranked_daat`` are the repo's only copies of the reference TAAT and cursor
loops; the engine serves both through ``Searcher.bm25_topk``.

Semantics mirrored (with file:line contract citations):

- corpus tokenization: ``web_search_engine_ray.functions.tokenize.tokenize``
  (= ``HW2/engine/parser.py:69-78``),
- every row gets a docid; token-empty rows keep dl=0 and count in N/avgdl
  (MP-path rule, ``HW2/engine/build_runs_mp.py:83-91``),
- query tokenization: ``query.lower().split()``; unknown terms dropped
  (``HW2/engine/searcher.py:60``, ``daat_ranker.py:68-70``),
- BM25: ``idf = ln((N-df+0.5)/(df+0.5)+1)``; ``idf*tf*(k1+1)/(tf+k1*(1-b+b*dl/avgdl))``,
  ``k1=1.2, b=0.75`` (``HW2/engine/ranker.py:35-48``, ``daat_ranker.py:35-44``),
- TAAT: accumulate per query token (duplicates contribute twice) over postings
  in docid-insertion order; full sort desc (``HW2/engine/ranker.py:50-75``),
- DAAT: terms sorted by ascending df (stable), k-way docid heap, tied-cursor
  accumulation in ascending cursor index, dl=0 docs skipped in scoring, AND
  gating requires all cursors tied, size-k min-heap, final stable sort desc by
  score (``HW2/engine/daat_ranker.py:47-141``),
- boolean AND/OR: set intersection/union of full postings
  (``HW2/engine/searcher.py:74-109``),
- Dirichlet QL (``ql``, no reference counterpart): the scalar loop the
  engine's vectorized ``Searcher.ql_topk`` is tested against.
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict

from web_search_engine_ray.functions.tokenize import query_terms, tokenize

K1 = 1.2
B = 0.75


class OracleIndex:
    def __init__(self):
        self.index: dict[str, dict[int, int]] = {}
        self.doc_lengths: dict[int, int] = {}

    @classmethod
    def build(cls, docs: list[tuple[int, str]]) -> "OracleIndex":
        """docs: (docid, raw_text) pairs; docids must be unique."""
        oi = cls()
        index: defaultdict[str, dict[int, int]] = defaultdict(dict)
        for docid, text in docs:
            toks = tokenize(text)
            oi.doc_lengths[docid] = len(toks)
            for t in toks:
                d = index[t]
                d[docid] = d.get(docid, 0) + 1
        oi.index = dict(index)
        return oi

    # -- stats ----------------------------------------------------------
    @property
    def N(self) -> int:
        return len(self.doc_lengths)

    @property
    def avgdl(self) -> float:
        return sum(self.doc_lengths.values()) / self.N

    def df(self, term: str) -> int:
        return len(self.index.get(term, ()))

    def postings(self, term: str) -> tuple[list[int], list[int]]:
        p = self.index.get(term, {})
        docids = sorted(p)
        return docids, [p[d] for d in docids]

    # -- scoring --------------------------------------------------------
    def _bm25(self, tf: int, df: int, dl: int) -> float:
        idf = math.log((self.N - df + 0.5) / (df + 0.5) + 1.0)
        return idf * (tf * (K1 + 1.0)) / (tf + K1 * (1.0 - B + B * (dl / self.avgdl)))

    def bm25_taat(self, query: str, topk: int | None = None):
        scores: defaultdict[int, float] = defaultdict(float)
        for term in query_terms(query):
            postings = self.index.get(term)
            if not postings:
                continue
            df = len(postings)
            for docid, tf in postings.items():
                scores[docid] += self._bm25(tf, df, self.doc_lengths[docid])
        out = sorted(scores.items(), key=lambda x: x[1], reverse=True)
        return out if topk is None else out[:topk]

    def search(self, query: str, mode: str = "AND", topk: int | None = None):
        """Ranked TAAT with AND/OR allowed-set filtering
        (``HW2/engine/searcher.py:52-90``): BM25-score the union of known-term
        postings, then keep only docs in the AND-intersection (or OR-union)."""
        doc_sets = [
            set(self.index[t]) for t in query_terms(query) if t in self.index
        ]
        if not doc_sets:
            return []
        if mode.upper() == "AND":
            allowed = set.intersection(*doc_sets)
            if not allowed:
                return []
        else:
            allowed = set.union(*doc_sets)
        scores = [(d, s) for (d, s) in self.bm25_taat(query) if d in allowed]
        return scores[:topk] if topk else scores

    def ranked_daat(self, query: str, topk: int = 10, mode: str = "OR"):
        terms = [t for t in query_terms(query) if t in self.index]
        if not terms or self.N == 0:
            return []
        terms.sort(key=lambda t: len(self.index[t]))
        streams = [self.postings(t) for t in terms]  # (docids, tfs), docid-asc
        pos = [0] * len(streams)
        heap = [(streams[i][0][0], i) for i in range(len(streams)) if streams[i][0]]
        heapq.heapify(heap)
        scores: defaultdict[int, float] = defaultdict(float)
        top: list[tuple[float, int]] = []
        N, avgdl = self.N, self.avgdl
        while heap:
            d, i = heapq.heappop(heap)
            tied = [i]
            while heap and heap[0][0] == d:
                _, j = heapq.heappop(heap)
                tied.append(j)
            if mode.upper() == "AND" and len(tied) < len(streams):
                for idx in tied:
                    pos[idx] += 1
                    if pos[idx] < len(streams[idx][0]):
                        heapq.heappush(heap, (streams[idx][0][pos[idx]], idx))
                continue
            dl = self.doc_lengths.get(d, 0)
            for idx in tied:
                if dl > 0:
                    tf = streams[idx][1][pos[idx]]
                    df = len(streams[idx][0])
                    scores[d] += self._bm25(tf, df, dl)
            sc = scores[d]
            if len(top) < topk:
                heapq.heappush(top, (sc, d))
            elif sc > top[0][0]:
                heapq.heapreplace(top, (sc, d))
            for idx in tied:
                pos[idx] += 1
                if pos[idx] < len(streams[idx][0]):
                    heapq.heappush(heap, (streams[idx][0][pos[idx]], idx))
        top.sort(key=lambda x: x[0], reverse=True)
        return [(docid, score) for (score, docid) in top]

    def ql(self, query: str, mu: float = 2000.0):
        """Dirichlet-smoothed query likelihood (Zhai & Lafferty, SIGIR 2001),
        one doc and one term at a time: every doc posting a known query term
        scores sum over known query-token occurrences, in query order, of
        ln((tf + mu*cf/T) / (dl + mu)); cf is the term's collection
        frequency, T the corpus token total. By (-score, docid)."""
        terms = [t for t in query_terms(query) if t in self.index]
        total = sum(self.doc_lengths.values())
        if not terms or total == 0:
            return []
        cf = {t: sum(self.index[t].values()) for t in terms}
        scores = {}
        for d in set().union(*(self.index[t] for t in terms)):
            sc = 0.0
            for t in terms:
                tf = self.index[t].get(d, 0)
                sc += math.log((tf + mu * cf[t] / total) / (self.doc_lengths[d] + mu))
            scores[d] = sc
        return sorted(scores.items(), key=lambda x: (-x[1], x[0]))

    def boolean(self, query: str, mode: str = "AND") -> set[int]:
        """Unknown terms are silently dropped in BOTH modes (the reference
        skips lexicon misses before the set ops, ``HW2/engine/searcher.py:92-101``
        — an AND over the remaining known terms, not an empty result)."""
        sets = []
        for term in query_terms(query):
            p = self.index.get(term)
            if p is None:
                continue
            sets.append(set(p))
        if not sets:
            return set()
        if mode.upper() == "AND":
            out = sets[0]
            for s in sets[1:]:
                out &= s
            return out
        out = set()
        for s in sets:
            out |= s
        return out
