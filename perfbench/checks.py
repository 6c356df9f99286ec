"""Independent output checks, run outside the timed windows.

The BM25 oracle tokenizes the generated corpus in DuckDB (its own regex
engine) and scores with NumPy using the reference formula, so it shares no
code with the engine's tokenizer, index or ranker. Answers are compared by
score, not by exact order: both tie rules ("heap" and "sorted") return a
valid top-k, so a check asks that the k returned scores equal the k best
oracle scores and that every returned document really has its score.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

PAT = r"[a-z0-9]+(?:[.-][a-z0-9]+)*"
K1, B = 1.2, 0.75
TOL = 1e-9


class BM25Oracle:
    """BM25 over ``texts`` with docids ``0 .. len(texts)``, for queries over
    ``terms``."""

    def __init__(self, texts: pa.ChunkedArray | pa.Array, terms):
        import duckdb

        con = duckdb.connect()
        con.execute("SET threads = 4")
        n = len(texts)
        con.register("docs", pa.table({"docid": pa.array(np.arange(n), pa.int64()), "text": texts}))
        want = sorted(set(terms))
        con.register("want", pa.table({"term": pa.array(want, pa.string())}))
        # one tokenizing pass into (docid, term) rows; lengths and the
        # wanted terms' postings both come from it
        con.execute(
            "CREATE TEMP TABLE tok AS SELECT docid, unnest(regexp_extract_all("
            f"lower(coalesce(text, '')), '{PAT}')) AS term FROM docs"
        )
        self.dl = (
            con.execute(
                "SELECT coalesce(n, 0) AS dl FROM docs LEFT JOIN "
                "(SELECT docid, count(*) AS n FROM tok GROUP BY docid) USING (docid) ORDER BY docid"
            )
            .fetchnumpy()["dl"]
            .astype(np.float64)
        )
        rows = con.execute(
            "SELECT term, docid, count(*) AS tf FROM tok SEMI JOIN want USING (term) "
            "GROUP BY term, docid ORDER BY term, docid"
        ).fetchnumpy()
        con.close()
        self.N = n
        self.avgdl = float(self.dl.sum()) / n
        self._post = {t: (np.empty(0, np.int64), np.empty(0, np.float64)) for t in want}
        names = rows["term"]
        if len(names):
            bounds = np.flatnonzero(names[1:] != names[:-1]) + 1
            for lo, hi in zip(np.r_[0, bounds], np.r_[bounds, len(names)]):
                self._post[str(names[lo])] = (
                    rows["docid"][lo:hi].astype(np.int64),
                    rows["tf"][lo:hi].astype(np.float64),
                )

    def scores(self, query: str, mode: str) -> tuple[np.ndarray, np.ndarray]:
        """(docids ascending, BM25 scores) of every matching document."""
        terms = query.lower().split()
        known = [t for t in terms if self._post[t][0].size]
        if not known:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        docs, contribs = [], []
        for t in known:  # duplicate query terms count once per occurrence
            d, tf = self._post[t]
            df = d.size
            idf = math.log((self.N - df + 0.5) / (df + 0.5) + 1.0)
            dl = self.dl[d]
            docs.append(d)
            contribs.append((idf * (tf * (K1 + 1.0))) / (tf + K1 * (1.0 - B + B * (dl / self.avgdl))))
        uniq, inv = np.unique(np.concatenate(docs), return_inverse=True)
        score = np.bincount(inv, weights=np.concatenate(contribs), minlength=uniq.size)
        keep = self.dl[uniq] > 0
        if mode.upper() == "AND":
            distinct = list(dict.fromkeys(known))
            hits = np.zeros(uniq.size, np.int64)
            for t in distinct:
                hits[np.searchsorted(uniq, self._post[t][0])] += 1
            keep &= hits == len(distinct)
        return uniq[keep], score[keep]


def topk_mismatch(got: list[tuple[int, float]], want: tuple[np.ndarray, np.ndarray], k: int) -> str | None:
    """None when ``got`` is a valid top-``k`` of ``want``, else a reason."""
    docs, scores = want
    best = np.sort(scores)[::-1][:k]
    if len(got) != best.size:
        return f"{len(got)} results, expected {best.size}"
    if len({d for d, _ in got}) != len(got):
        return "duplicate docids"
    for (d, s), w in zip(sorted(got, key=lambda x: -x[1]), best.tolist()):
        if abs(s - w) > TOL * max(1.0, abs(w)):
            return f"score {s!r} where the oracle's rank has {w!r}"
        i = int(np.searchsorted(docs, d))
        if i >= docs.size or docs[i] != d:
            return f"docid {d} does not match the query"
        if abs(scores[i] - s) > TOL * max(1.0, abs(s)):
            return f"docid {d} scored {s!r}, oracle {scores[i]!r}"
    return None
