"""Query engine: shard-backed Searcher + BM25 top-k / QL / boolean + batch runs.

API surface mirrors the reference's ``Searcher`` (``HW2/engine/searcher.py``):

- ``bm25_topk(query, topk, mode)``   — the one BM25 scorer, used by every
  ranked surface: ``bm25_scores`` scores every match vectorized in the
  reference DAAT loop's per-doc accumulation order (terms ascending-df,
  ``HW2/engine/daat_ranker.py:47-141``), plus a score-exact MaxScore branch
  for rare+stopword OR queries under either tie rule; ``topk=None`` returns
  every match in (-score, docid) order (the reference TAAT ``search``
  contract), ``topk=0`` none
- ``topk_order(ids, scores, k, tie)`` — the one top-k cut under every
  ranker here and in ``serving``, ``phrase``, ``similarity``, ``rag``,
  ``distributed`` and ``serve``: θ-bounded (only candidates reaching the
  k-th score are ranked), with the reference heap's boundary ties
  (``tie="heap"``) or the (-score, id) sort's (``"sorted"``)
- ``boolean(query, mode)``           — full-postings set intersection/union
- ``ql_topk(query, topk)``           — Dirichlet query likelihood
  (``ql_scores`` cut by ``topk_order``)
- ``resolve_terms`` / ``decode`` / ``candidates`` — the one term resolver
  (each distinct term looked up once) and the one candidate builder under
  every ranker here and in ``serving``, ``phrase`` and ``transcripts_ops``

Candidate set (``candidates``; MaxScore keeps its own essential-list union),
chosen from the input: when the distinct terms' decoded lists hold at least
1/``DENSE_SPAN_RATIO`` of the doclens docid span (docids are dense within
it), their docids are marked in a span-sized hit array (a per-doc count for
AND) and scoring stays in docid space: a list's slots are its span offsets
``docid - base``, candidates are ``flatnonzero(hit)``, and BM25 accumulates
into a span-sized array, reads dl by direct index from the span's doc
lengths (``DocLengths.dense``, built once per store) and reads the
scores back at the candidates — no sort and no ``searchsorted``. Sparser
lists, a docid outside the span, or an empty doclens store take the sorted
union (``np.unique``) with ``searchsorted`` slots into it. Both give the
same candidates and per-doc sums; BM25 feeds them to one accumulate
(``_score``), which computes each distinct term's contribution once. In
``bm25_topk`` a list dense in the span on its own takes its contribution
from a cache (``_dense_contribs``): span offsets and every posting's BM25
value, in the decoded-list LRU's budget, keyed by the list and the df, N
and avgdl that score it; scoring it is one scatter-add per query
occurrence, over all its postings also for AND (scores are read at the
candidates only, so each gets the same terms in the same order). Lists a
caller builds never read or fill that cache. ``stats()`` counts which path
each query took.

The reference's cursor loops (TAAT ``search``, DAAT top-k, DAAT set ops)
live only in the in-memory ``oracle.OracleIndex`` (``search`` /
``ranked_daat`` / ``boolean``); the tests and the ``wand_daat_equivalence``
gate entry build the index both ways and compare (docids, scores
bit-for-bit; the TAAT order to 1e-9).

Semantics preserved exactly (SURVEY.md §7.6-7.7): query tokenization is
``query.lower().split()`` (NOT the corpus tokenizer); unknown terms silently
dropped; terms sorted by ascending df (stable) before scoring; dl=0 docs are
never scored; duplicate query terms contribute once per occurrence; AND mode
requires presence in every (known-term) stream.

State layout: each Searcher lazily loads lexicon shards, opens postings shard
files, and range-loads doc-length shards — once per Searcher, reused
across queries (the reference loads its single lexicon/doc_lengths pickles
once per Searcher, ``searcher.py:18-39``; ours shard so a 10^12-doc index
serves from ``distributed.PartitionedSearcher``'s range actors, each
holding one range's share of the state). ``run_queries`` scores a query
list in plain tasks, one Searcher per task.
"""

from __future__ import annotations

import heapq
import json
import math
import os

import numpy as np

from web_search_engine_ray.functions.tokenize import query_terms
from web_search_engine_ray.state.docstats import DocLengths
from web_search_engine_ray.state.lexicon import LexiconShard, term_shard
from web_search_engine_ray.state.listio import PostingsShardReader

from web_search_engine_ray.stages.exchange import to_dataset

K1 = 1.2
B = 0.75
# ``bm25_topk`` builds its candidates in a docid-indexed array when the
# decoded lists hold at least 1/8 of the doclens docid span: the span-sized
# hit and score arrays then cost a small multiple of the postings already
# decoded (HERO's density rule: bitmaps for dense sets, sorted lists for
# sparse ones). Ratios 4, 8, 16 and 32 measured the same latency.
DENSE_SPAN_RATIO = 8
RRF_K = 60  # the canonical constant (Cormack et al., SIGIR 2009)
RRF_DEPTH = 50  # per-system pool depth feeding the fusion


def _span_offsets(docids: np.ndarray, base: int) -> np.ndarray:
    """``docids - base`` (below 2**63) as an int64 view: no conversion pass."""
    return (docids - np.uint64(base) if base else docids).view(np.int64)


def topk_order(
    ids: np.ndarray, scores: np.ndarray, k: int | None, tie: str = "sorted"
) -> np.ndarray:
    """Indexes of the top ``k`` of ``(ids, scores)`` in (-score, id) order:
    the one top-k cut under every ranker. ``scores`` are float or signed
    int; ``k=None`` keeps every candidate and ``k=0`` none.

    Only candidates that can reach θ, the k-th largest score, are ranked
    (the θ-bounded cut of SAP, ICDE 2018): more than k of them exist only
    when docs tie at θ, and ``tie`` picks which of those survive.
    "sorted" keeps the smallest ids, SQL's ``ORDER BY score DESC, id
    LIMIT k``. "heap" keeps those the reference's size-k min-heap keeps over
    docs in ascending-id order, replacing only on a strictly greater score
    (``daat_ranker.py:125-131``); it evicts the smallest-id ties first. Docs
    below θ can neither enter nor perturb that heap, so running it over the
    ``>= θ`` candidates alone keeps the same docs."""
    n = scores.size
    if k is None or k >= n:
        return np.lexsort((ids, -scores))
    if k <= 0:
        return np.empty(0, np.intp)
    theta = np.partition(scores, n - k)[n - k]
    idx = np.flatnonzero(scores >= theta)
    if tie == "heap" and idx.size > k:
        idx = idx[np.argsort(ids[idx], kind="stable")]
        top: list[tuple] = []  # (score, id, index)
        for item in zip(scores[idx].tolist(), ids[idx].tolist(), idx.tolist()):
            if len(top) < k:
                heapq.heappush(top, item)
            elif item[0] > top[0][0]:
                heapq.heapreplace(top, item)
        idx = np.array([i for _, _, i in top], np.intp)
    return idx[np.lexsort((ids[idx], -scores[idx]))[:k]]


class Searcher:
    """Query-time state over a built index directory (one per process/actor)."""

    def __init__(
        self,
        index_dir: str,
        k1: float = K1,
        b: float = B,
        cache_bytes: int = 64 << 20,
    ):
        self.dir = index_dir
        with open(os.path.join(index_dir, "build.json")) as f:
            self.build = json.load(f)
        self.k1, self.b = k1, b
        self.num_shards = int(self.build["num_shards"])
        self.heavy = {t: self.num_shards + i for i, t in enumerate(self.build["heavy_terms"])}
        self.doclens = DocLengths(os.path.join(index_dir, "doclens"))
        self.N = self.doclens.N
        self.avgdl = self.doclens.avgdl
        self._df_override: dict[str, int] = {}
        self._lex: dict[int, LexiconShard | None] = {}
        self._readers: dict[int, PostingsShardReader] = {}
        # ONE decoded-postings budget for the whole searcher, shared by all
        # shard readers — per-reader caches would scale with shard count
        from web_search_engine_ray.state.listio import _DecodedLRU

        self._decoded_cache = _DecodedLRU(cache_bytes) if cache_bytes else None
        self._counts = dict.fromkeys(
            (
                "dense_candidates",
                "sorted_candidates",
                "maxscore_taken",
                "maxscore_bailed",
                "contrib_hits",
                "contrib_misses",
            ),
            0,
        )

    def set_global_stats(self, n: int, avgdl: float, df_override: dict[str, int]) -> None:
        """Override corpus stats for doc-range-partitioned serving: this index
        holds one docid range of a larger corpus, but BM25 must score with
        CORPUS-GLOBAL N / avgdl / df (SURVEY.md §2.5 A4). df lookups for the
        given terms use the override; everything else stays shard-local."""
        self.N = int(n)
        self.avgdl = float(avgdl)
        self._df_override = dict(df_override)

    # -- shard plumbing -------------------------------------------------
    def _shard_of(self, term: str) -> int:
        return self.heavy.get(term, term_shard(term, self.num_shards))

    def _lexicon(self, sid: int) -> LexiconShard | None:
        if sid not in self._lex:
            path = os.path.join(self.dir, "index", f"shard_{sid:05d}.lexicon")
            self._lex[sid] = LexiconShard.load(path) if os.path.exists(path) else None
        return self._lex[sid]

    def _reader(self, sid: int) -> PostingsShardReader:
        r = self._readers.get(sid)
        if r is None:
            path = os.path.join(self.dir, "index", f"shard_{sid:05d}.postings")
            r = (
                PostingsShardReader(path, cache=self._decoded_cache)
                if self._decoded_cache is not None
                else PostingsShardReader(path, cache_bytes=0)
            )
            self._readers[sid] = r
        return r

    def lookup(self, term: str) -> tuple[dict, PostingsShardReader] | None:
        sid = self._shard_of(term)
        lex = self._lexicon(sid)
        if lex is None:
            return None
        entry = lex.get(term)
        if entry is None:
            return None
        return entry, self._reader(sid)

    def df(self, term: str) -> int:
        if term in self._df_override:
            return self._df_override[term]
        hit = self.lookup(term)
        return 0 if hit is None else hit[0]["df"]

    def postings(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        hit = self.lookup(term)
        if hit is None:
            return np.empty(0, np.uint64), np.empty(0, np.uint64)
        entry, reader = hit
        return reader.read_postings(entry)

    def stats(self) -> dict[str, int]:
        """Query counters since this Searcher opened: candidate sets built
        dense or sorted (``candidates``, every ranker), MaxScore answers
        taken or bailed to the exhaustive scan, dense lists' BM25
        contributions found in the cache or computed (``_dense_contribs``),
        blocks decoded by targeted ``read_tfs_for`` lookups, and hits and
        misses of the decoded-list LRU (decoded lists only)."""
        cache = self._decoded_cache
        return {
            **self._counts,
            "targeted_blocks": sum(r.targeted_blocks for r in self._readers.values()),
            "lru_hits": cache.hits if cache is not None else 0,
            "lru_misses": cache.misses if cache is not None else 0,
        }

    def close(self) -> None:
        for r in self._readers.values():
            r.close()
        self._readers.clear()

    def complete(self, prefix: str, k: int = 10) -> list[tuple[str, int]]:
        """Top-k lexicon completions for a prefix by (df desc, term) — the
        type-ahead serving surface. Each shard's sorted term list is sliced
        with two bisects (no vocab iteration); the per-shard candidate set
        is cut to k BEFORE the merge, so the driver-side merge sees at most
        k x num_shards rows regardless of vocabulary size. Terms hash-route
        to shards, so a prefix can live anywhere — every shard answers, in
        parallel across query actors at scale (each actor owns its shards;
        the reference's single lexicon dict cannot answer prefixes at all
        without a full scan)."""
        import bisect

        if not prefix:
            return []
        # ascii-safe exclusive upper bound for the prefix range
        hi_key = prefix + "\x7f"
        terms: list[str] = []
        dfs = [np.empty(0, np.int64)]
        # heavy terms live in dedicated salted shards PAST num_shards — a
        # prefix can complete to one, so scan those lexicons too
        for sid in range(self.num_shards + len(self.heavy)):
            lex = self._lexicon(sid)
            if lex is None:
                continue
            lo = bisect.bisect_left(lex.terms, prefix)
            hi = bisect.bisect_left(lex.terms, hi_key, lo=lo)
            # (df desc, term) cut: terms[lo:hi] is sorted, so index order
            # is term order, the SQL twin's row_number tie-break
            keep = topk_order(np.arange(hi - lo), lex.df[lo:hi], k)
            terms += [lex.terms[lo + i] for i in keep.tolist()]
            dfs.append(lex.df[lo:hi][keep])
        dfs = np.concatenate(dfs)
        keep = topk_order(np.array(terms, dtype=str), dfs, k).tolist()
        return [(terms[i], int(dfs[i])) for i in keep]

    # -- scoring helpers ------------------------------------------------
    def _idf(self, df: int) -> float:
        return math.log((self.N - df + 0.5) / (df + 0.5) + 1.0)

    def _contrib_daat(self, tf: np.ndarray, df: int, dl: np.ndarray) -> np.ndarray:
        """Vectorized BM25 term contribution with the DAAT ranker's float
        association ``(idf * num) / den`` (``daat_ranker.py:40-44``)."""
        idf = self._idf(df)
        tf = tf.astype(np.float64)
        den = tf + self.k1 * (1.0 - self.b + self.b * (dl.astype(np.float64) / self.avgdl))
        return (idf * (tf * (self.k1 + 1.0))) / den

    def resolve_terms(
        self, query: str | list[str]
    ) -> list[tuple[str, dict, PostingsShardReader, int]]:
        """Known terms of a query string (tokenized by ``query_terms``) or of
        a token list, as ``(term, entry, reader, df)``: one row per
        occurrence, in query order (a duplicated term contributes twice).
        Each distinct term is looked up once; unknown terms are dropped.
        ``df`` is the ``set_global_stats`` override when one is set, the
        shard-local df otherwise."""
        q = query_terms(query) if isinstance(query, str) else query
        known = {}
        for t in dict.fromkeys(q):
            hit = self.lookup(t)
            if hit is not None:
                entry, reader = hit
                known[t] = (t, entry, reader, self._df_override.get(t, entry["df"]))
        return [known[t] for t in q if t in known]

    @staticmethod
    def decode(rows: list[tuple]) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """``(docids, tfs)`` per distinct term of ``resolve_terms`` rows, in
        first-row order; each list is decoded once."""
        distinct = {r[0]: r for r in rows}.values()
        return {t: reader.read_postings(entry) for t, entry, reader, _ in distinct}

    def candidates(self, lists: dict, want_and: bool = False, dense: dict | None = None):
        """The one candidate builder: ``(cand, slots, matches)``. ``cand``
        holds the sorted docids of ``lists`` (the docs in any list, or in
        every list for AND); ``matches`` yields, per list in dict order, the
        slots of the docs it posts and their tfs. Dense lists take the
        docid-indexed hit array and their slots are span offsets
        (``docid - base``), with ``slots`` the offsets of ``cand``; sparse
        ones take the sorted union and their slots index ``cand``, with
        ``slots`` None (module docstring). Read a slot-indexed array in
        ``cand`` order with ``at_cands``. ``dense`` maps terms of ``lists``
        to their ``_dense_contribs`` (``bm25_topk`` only): on the dense path
        their offsets come from it and ``matches`` skips them, as
        ``_score`` adds their contributions from ``dense``."""
        dense = dense or {}
        got = self._dense_candidates(lists, want_and, dense)
        self._counts["dense_candidates" if got else "sorted_candidates"] += 1
        return got or self._sorted_candidates(list(lists.values()), want_and)

    @staticmethod
    def at_cands(a: np.ndarray, slots: np.ndarray | None) -> np.ndarray:
        """A ``candidates`` slot-indexed array, read in ``cand`` order."""
        return a if slots is None else a[slots]

    def slot_dl(self, cand: np.ndarray, slots: np.ndarray | None) -> np.ndarray:
        """Doc lengths indexed by ``candidates`` slots: gathered per
        candidate on the sorted path, the whole span's on the dense path
        (``DocLengths.dense``, built once per store)."""
        if slots is None:
            return self.doclens.get_many(cand)
        return self.doclens.dense()

    def _score(self, cand, slots, terms, matches, dense: dict | None = None) -> np.ndarray:
        """The one BM25 accumulate, under ``bm25_scores``, MaxScore and the
        statically pruned lists of ``serving.bm25_pruned_topk_table``: the
        score of each of ``cand``. ``cand``, ``slots`` and ``matches`` are as
        ``candidates`` gives them (``slots`` None when ``matches`` indexes
        ``cand``), with ``matches`` yielding per DISTINCT term in ``terms``
        order; ``terms`` are ``resolve_terms`` rows in ascending-df order.
        Scores accumulate by slot (a span-sized array on the dense path) and
        are read at the candidates at the end. Each distinct term's
        contribution is computed once, or taken from ``dense``
        (``candidates``' argument) on the dense path, and added once per
        query occurrence, at that occurrence's place in ``terms``. dl=0 docs
        score 0."""
        dl_all = self.slot_dl(cand, slots)
        scores = np.zeros(dl_all.size, dtype=np.float64)
        contribs = dict(dense or {}) if slots is not None else {}
        for t, _, _, df in terms:
            if t not in contribs:
                pos, f = next(matches)
                dl = dl_all[pos]
                contrib = self._contrib_daat(f, df, dl)
                contrib[dl == 0] = 0.0
                contribs[t] = pos, contrib
            pos, contrib = contribs[t]
            scores[pos] += contrib
        return self.at_cands(scores, slots)

    def _dense_candidates(self, lists: dict, want_and: bool, dense: dict):
        """Candidates from a docid-indexed hit array over the doclens span,
        slots = span offsets: no sort and no ``searchsorted``. ``None`` when
        the store is empty, the lists (their decoded, shard-local lengths)
        are sparse for the span (see ``DENSE_SPAN_RATIO``), or a list posts a
        docid outside the span."""
        base, span = self.doclens.span()
        if not span or DENSE_SPAN_RATIO * sum(d.size for d, _ in lists.values()) < span:
            return None
        if any(
            d.size and (int(d[0]) < base or int(d[-1]) >= base + span)
            for d, _ in lists.values()
        ):
            return None
        offs = [
            dense[t][0] if t in dense else _span_offsets(d, base) for t, (d, _) in lists.items()
        ]
        if want_and:
            cnt = np.zeros(span, dtype=np.min_scalar_type(len(lists)))
            for o in offs:
                cnt[o] += 1
            hit = cnt == len(lists)
        else:
            hit = np.zeros(span, dtype=bool)
            for o in offs:
                hit[o] = True
        slots = np.flatnonzero(hit)
        cand = slots.astype(np.uint64) + np.uint64(base)

        def matches():
            for t, o, (_, f) in zip(lists, offs, lists.values()):
                if t in dense:
                    continue
                if want_and:
                    sel = hit[o]
                    o, f = o[sel], f[sel]
                yield o, f

        return cand, slots, matches()

    def _dense_contribs(self, terms: list[tuple], lists: dict) -> dict:
        """``term -> (span offsets, BM25 contributions)`` for the
        ``decode(terms)`` lists dense in the doclens span on their own
        (``DENSE_SPAN_RATIO``): every posting's ``_contrib_daat`` value, dl=0
        postings zeroed. Found in, or added to, the decoded-list LRU's
        budget, keyed by the list (shard path, lexicon offset) and the stats
        that score it (df, N, avgdl): ``set_global_stats`` with the same
        stats keeps reusing the entries. A warm dense query then scores by
        one scatter-add per term occurrence (``_score``)."""
        base, span = self.doclens.span()
        cache = self._decoded_cache
        out = {}
        for t, entry, reader, df in {r[0]: r for r in terms}.values():
            d, f = lists[t]
            if (
                not span
                or DENSE_SPAN_RATIO * d.size < span
                or int(d[0]) < base
                or int(d[-1]) >= base + span
            ):
                continue
            key = ("c", reader.path, int(entry["offset"]), df, self.N, self.avgdl)
            got = cache.find(key) if cache is not None else None
            self._counts["contrib_misses" if got is None else "contrib_hits"] += 1
            if got is None:
                o = _span_offsets(d, base)
                dl = self.doclens.dense()[o]
                c = self._contrib_daat(f, df, dl)
                c[dl == 0] = 0.0
                got = o, c
                if cache is not None:
                    cache.put(key, o, c)
            out[t] = got
        return out

    @staticmethod
    def _sorted_candidates(lists: list, want_and: bool):
        """Candidates as the sorted union of the lists (cut to docs in every
        list for AND), slots = candidate indexes by ``searchsorted``."""
        cand = np.unique(np.concatenate([d for d, _ in lists]))
        if want_and:
            cnt = np.zeros(cand.size, dtype=np.int32)
            for d, _ in lists:
                cnt[np.searchsorted(cand, d)] += 1
            cand = cand[cnt == len(lists)]

        def matches():
            for d, f in lists:
                pos = np.searchsorted(cand, d)
                if want_and:
                    sel = (pos < cand.size) & (cand[np.minimum(pos, cand.size - 1)] == d)
                    pos, f = pos[sel], f[sel]
                yield pos, f

        return cand, None, matches()

    # -- ranked: the one BM25 scorer (serving) -----------------------------
    def bm25_topk(
        self, query: str, topk: int | None = 10, mode: str = "AND", tie_semantics: str = "heap"
    ):
        """Vectorized BM25 top-k with the reference DAAT loop's exact results
        (docids, scores bit-for-bit; ``daat_ranker.py:47-141``): the
        ``bm25_scores`` of every match, cut by ``topk_order``, so boundary
        ties keep the reference heap's docids. Tested equal to the in-memory
        ``OracleIndex.ranked_daat``. OR-mode queries mixing rare terms with
        stopwords first try a score-exact MaxScore path (prune heavy-term-only
        candidates when their upper bound provably cannot reach the top-k
        threshold; automatic fallback otherwise), under either tie rule.

        ``tie_semantics``: "heap" (default) reproduces the reference's size-k
        min-heap boundary-tie membership exactly; "sorted" uses the
        normalized (-score, docid) cut — SQL-expressible (``ORDER BY score
        DESC, docid LIMIT k``), used by the gate's SQL oracle queries and the
        range actors. ``topk=None`` returns every match under either rule
        (no MaxScore), the reference TAAT ``search`` result
        (``searcher.py:52-90``; its loop is ``OracleIndex.search``);
        ``topk=0`` returns none."""
        terms = self._bm25_terms(query)
        want_and = mode.upper() == "AND" and len(terms) > 1
        if not want_and and len(terms) > 1 and topk:
            res = self._bm25_topk_maxscore(terms, topk, tie_semantics)
            self._counts["maxscore_bailed" if res is None else "maxscore_taken"] += 1
            if res is not None:
                return res
        cand, scores = self._bm25_scores(terms, want_and)
        keep = topk_order(cand, scores, topk, tie_semantics)
        return list(zip(cand[keep].tolist(), scores[keep].tolist()))

    def bm25_scores(self, query: str, mode: str = "AND") -> tuple[np.ndarray, np.ndarray]:
        """``(docids, scores)`` of every match, docids ascending: per-doc
        accumulation runs over terms in ascending-df order, matching the
        tied-cursor pop order of the reference loop (SURVEY.md §7.7)."""
        terms = self._bm25_terms(query)
        return self._bm25_scores(terms, mode.upper() == "AND" and len(terms) > 1)

    def _bm25_terms(self, query: str) -> list[tuple]:
        """``resolve_terms`` rows in ascending-df order (stable); none on an
        empty index."""
        return sorted(self.resolve_terms(query), key=lambda r: r[3]) if self.N else []

    def _bm25_scores(self, terms: list[tuple], want_and: bool):
        if not terms:
            return np.empty(0, np.uint64), np.empty(0, np.float64)
        lists = self.decode(terms)
        dense = self._dense_contribs(terms, lists)
        cand, slots, matches = self.candidates(lists, want_and, dense)
        if cand.size == 0:
            return cand, np.empty(0, np.float64)
        return cand, self._score(cand, slots, terms, matches, dense)

    def _bm25_topk_maxscore(self, terms: list[tuple], topk: int, tie_semantics: str):
        """MaxScore candidate pruning over ``resolve_terms`` rows,
        score-exact or bail.

        Terms are split into *essential* (df below a cutoff) and
        *non-essential* (stopword-grade). Candidates = union of essential
        postings only; every candidate's EXACT full score is computed (the
        non-essential tf comes from a block-targeted directory lookup, so a
        stopword's list is never fully decoded). A doc matched ONLY by
        non-essential terms scores at most the sum of their upper bounds
        (``bm25(max blk tf, dl=1)``); when that bound is STRICTLY below the
        candidates' top-k threshold θ, such docs can neither enter the top k
        nor tie at θ, so the candidate-only answer is exact under either tie
        rule (``topk_order``'s ``>= θ`` argument). Returns ``None`` (caller
        falls back to exhaustive scoring) whenever the bound doesn't
        separate.
        """
        dfs = [df for _, _, _, df in terms]
        cutoff = max(50 * topk, self.N // 20)
        ess = [i for i in range(len(terms)) if dfs[i] <= cutoff]
        non = [i for i in range(len(terms)) if dfs[i] > cutoff]
        if not non:
            return None  # nothing to prune
        if not ess:
            ess = [0]  # smallest-df term seeds candidates
            non = list(range(1, len(terms)))
        # only profitable when the candidate set is much smaller than the
        # pruned lists; otherwise the targeted lookups touch most blocks and
        # the plain full scan wins (measured on the 1M-turn index)
        if sum(dfs[i] for i in ess) > max(10_000, self.N // 10):
            return None
        dl1 = np.array([1], np.uint64)
        ub_non = 0.0
        for i in non:
            entry = terms[i][1]
            mtf = int(entry["blk_max_tf"].max()) if entry["nblocks"] else 0
            if mtf == 0 and dfs[i] > 0:
                # degenerate directory (pre-blk_max_tf lexicon): a zero
                # bound would prune EVERYTHING — fall back to exhaustive
                return None
            ub_non += float(
                self._contrib_daat(np.array([mtf], np.uint64), dfs[i], dl1)[0]
            )
        ess_lists = {terms[i][0]: terms[i][2].read_postings(terms[i][1]) for i in ess}
        cand = np.unique(np.concatenate([d for d, _ in ess_lists.values()]))
        if cand.size < topk:
            return None  # non-essential-only docs could still place

        def matches():
            for t, entry, reader, _ in {r[0]: r for r in terms}.values():
                if t in ess_lists:
                    d, f = ess_lists[t]
                    yield np.searchsorted(cand, d), f
                else:
                    tf = reader.read_tfs_for(entry, cand)
                    pos = np.flatnonzero(tf)
                    yield pos, tf[pos]

        scores = self._score(cand, None, terms, matches())
        keep = topk_order(cand, scores, topk, tie_semantics)
        if not ub_non < scores[keep[-1]]:
            return None
        return list(zip(cand[keep].tolist(), scores[keep].tolist()))

    # -- ranked: query-likelihood (Dirichlet-smoothed LM) ----------------
    def ql_scores(self, query: str, mu: float = 2000.0):
        """``(docids, scores)`` of every candidate, docids ascending, under
        Dirichlet-smoothed query likelihood (Zhai & Lafferty, SIGIR 2001),
        the second classic ranking family next to BM25:

            score(q, d) = sum_t ln( (tf(t,d) + mu * cf(t)/T) / (dl(d) + mu) )

        over the query's token occurrences in query order (duplicates count
        per occurrence, the same multiplicity rule as BM25), where cf(t) is
        the collection frequency and T the corpus token total. Candidates are
        the OR set (docs matching >= 1 known term); a candidate missing a
        term pays that term's background probability, so tf=0 contributes
        ln(mu*cf/T / (dl+mu)) — unknown terms (cf=0) are dropped on both
        sides rather than sending every score to -inf. cf comes free from
        the already-decoded postings (f.sum()); no extra index artifact.

        Per-(term, doc) float expression is kept EXACTLY as the SQL twin's
        ln((tf + mu*cf/T)/(dl + mu)) so the driver hash-compare sees the
        same float64 stream. Note: under doc-range partitioned serving this
        scores with shard-local cf/T (``set_global_stats`` overrides N/avgdl
        /df only — BM25's inputs); QL across ranges would need the cf sums
        broadcast the same way."""
        rows = self.resolve_terms(query)
        T = float(self.doclens.total_tokens)
        if not rows or T <= 0:
            return np.empty(0, np.uint64), np.empty(0, np.float64)
        lists = self.decode(rows)
        cand, slots, matches = self.candidates(lists)
        dl = self.slot_dl(cand, slots)
        den = self.at_cands(dl, slots).astype(np.float64) + mu
        logs = {}
        for t, (pos, f) in zip(lists, matches):
            tfv = np.zeros(dl.size, dtype=np.float64)
            tfv[pos] = f
            logs[t] = np.log((self.at_cands(tfv, slots) + mu * float(f.sum()) / T) / den)
        scores = np.zeros(cand.size, dtype=np.float64)
        for t, _, _, _ in rows:
            scores += logs[t]
        return cand, scores

    def ql_topk(self, query: str, topk: int | None = 10, mu: float = 2000.0):
        """``ql_scores`` cut to ``topk`` by (-score, docid)."""
        cand, scores = self.ql_scores(query, mu)
        keep = topk_order(cand, scores, topk)
        return list(zip(cand[keep].tolist(), scores[keep].tolist()))

    # -- ranked: reciprocal-rank fusion -----------------------------------
    def rrf_topk(self, query: str, topk: int = 10):
        """Reciprocal-rank fusion of the BM25 (OR) and Dirichlet-QL rankings
        (Cormack, Clarke & Buettcher, SIGIR 2009): score(d) = sum over the
        two systems of 1/(``RRF_K`` + rank_sys(d)) for docs inside each
        system's top-``RRF_DEPTH`` pool (missing from a pool contributes 0)
        — score-scale-free, so the incomparable BM25 and QL scores fuse by
        rank. Returns ``(docid, fused score)`` by (-score, docid), cut to
        ``topk``; the HTTP ``ranker: "rrf"`` and the ``rrf_fusion`` gate
        entry both serve it.

        Pools are ranked AND depth-cut by (ROUND(score, 6) desc, docid): RRF
        is rank-SENSITIVE, so float-epsilon ties inside a pool (identical-
        token docs; SQL sum() order is nondeterministic) would silently
        shift 1/(k+r) contributions — rounding first makes the pool order
        and the cut boundary the same deterministic rule as the twin's
        ROUND(...)-ordered row_number (adversarial-gate tie blocks)."""
        fused: dict[int, float] = {}
        for docs, sc in (self.bm25_scores(query, "OR"), self.ql_scores(query)):
            pool = docs[topk_order(docs, np.round(sc, 6), RRF_DEPTH)]
            for rank, d in enumerate(pool.tolist(), start=1):
                fused[d] = fused.get(d, 0.0) + 1.0 / (RRF_K + rank)
        docs = np.fromiter(fused, np.int64, len(fused))
        scores = np.fromiter(fused.values(), np.float64, len(fused))
        keep = topk_order(docs, scores, topk)
        return list(zip(docs[keep].tolist(), scores[keep].tolist()))

    # -- boolean ---------------------------------------------------------
    def boolean(self, query: str, mode: str = "AND") -> set[int]:
        """Full-postings set ops; unknown terms silently dropped
        (``searcher.py:92-109``)."""
        rows = self.resolve_terms(query)
        if not rows:
            return set()
        cand, _, _ = self.candidates(self.decode(rows), mode.upper() == "AND")
        return set(cand.tolist())


def _score_chunk(
    index_dir: str, first_qid: int, queries: list[str], topk: int, mode: str
):
    """(query_id, rank, docid, score) of ``queries`` (ids from
    ``first_qid``) against one Searcher, loaded once for the chunk."""
    import pyarrow as pa

    searcher = Searcher(index_dir)
    out_qid, out_rank, out_docid, out_score = [], [], [], []
    for qid, q in enumerate(queries, first_qid):
        for rank, (docid, score) in enumerate(searcher.bm25_topk(q, topk, mode), 1):
            out_qid.append(qid)
            out_rank.append(rank)
            out_docid.append(docid)
            out_score.append(score)
    return pa.table(
        {
            "query_id": pa.array(out_qid, pa.int64()),
            "rank": pa.array(out_rank, pa.int32()),
            "docid": pa.array(out_docid, pa.uint64()),
            "score": pa.array(out_score, pa.float64()),
        }
    )


def run_queries(index_dir: str, queries: list[str], topk: int = 10, mode: str = "OR"):
    """Score a list of queries; returns a Dataset of (query_id, rank,
    docid, score). One plain Ray task per contiguous chunk of queries, as
    many chunks as the cluster has CPUs (at most one per query); each task
    loads the index once for its chunk (SURVEY.md §2.3 T2)."""
    import ray

    n = max(1, min(len(queries), int(ray.cluster_resources().get("CPU", 1))))
    bounds = [len(queries) * i // n for i in range(n + 1)]
    task = ray.remote(_score_chunk)
    refs = [
        task.remote(index_dir, lo, queries[lo:hi], topk, mode)
        for lo, hi in zip(bounds, bounds[1:])
    ]
    return to_dataset("run_queries", refs)
