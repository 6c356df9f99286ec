"""HTTP serving surface — parity with the reference Flask API.

Mirrors ``HW2/app.py:56-116``: ``POST /search {query, mode}`` ->
``{results: [{docid, score}], searchTime, totalResults, query, mode}`` and
``GET /health`` (``app.py:157-163``). The handler scores with the vectorized
DAAT-equivalent ranker ``bm25_topk`` (bit-identical to the reference
cursor loop, which lives in ``oracle.py``) through a
:class:`~web_search_engine_ray.pipelines.query.Searcher` loaded once at app
creation — the same load-once-serve-many state model as the reference.

Run standalone: ``python -m web_search_engine_ray.serve --index <dir> [--port]``
(owns its own ``ray``-free process — the Searcher only reads local shard
files, so serving needs no Ray at all; scale-out = N replicas behind a load
balancer, or Ray Serve deployments wrapping the same Searcher class).
"""

from __future__ import annotations

import argparse
import os
import re
import time

import pyarrow as pa
from flask import Flask, jsonify, request

from web_search_engine_ray.pipelines.query import Searcher, topk_order

_FRONTEND_DIR = os.path.join(os.path.dirname(__file__), "frontend")


def create_app(
    index_dir: str,
    corpus_dir: str | None = None,
    pos_index_dir: str | None = None,
    grep_index_dir: str | None = None,
) -> Flask:
    """``corpus_dir`` (optional) enables text + snippet in responses — a
    capability the reference stubs (its snippet helper is dead code because
    nothing maps docids back to content, ``HW2/app.py:85-104``).
    ``pos_index_dir`` (optional) enables ``mode: "PHRASE"`` — exact
    consecutive-phrase search over a positional index built by
    ``jobs/posindex_job.py`` (the query path is pure parquet reads + numpy,
    no Ray in the serving process)."""
    app = Flask(__name__)
    searcher = Searcher(index_dir)
    docstore = None
    if corpus_dir is not None:
        from web_search_engine_ray.state.docstore import DocStore

        docstore = DocStore(corpus_dir, columns=["text"])
    pos_shards = None
    if pos_index_dir is not None:
        import glob as _glob

        pos_shards = len(_glob.glob(os.path.join(pos_index_dir, "shard_*.parquet")))
        if pos_shards == 0:
            raise ValueError(f"no shard_*.parquet files in {pos_index_dir}")
    # did-you-mean state: ensure the sharded variant artifact exists (built
    # beside the lexicon on first app creation, reopened for free after);
    # eager here so concurrent first requests never race a lexicon-wide build
    from web_search_engine_ray.pipelines.spell import SpellIndex

    spell_index = SpellIndex.from_searcher(searcher)

    def _json_body() -> dict:
        # get_json(silent=True) returns ANY valid JSON value; a top-level
        # string/list body would 500 on .get() — treat non-dict as empty so
        # the handlers' own validation returns the 400
        data = request.get_json(silent=True)
        return data if isinstance(data, dict) else {}

    def _count(data: dict, key: str, default: int) -> int | None:
        # a JSON integer >= 1, ``default`` when omitted or null, None (the
        # caller's 400) otherwise; bool is an int subclass: `true` must not
        # pass as 1
        v = data.get(key)
        v = default if v is None else v
        return v if type(v) is int and v >= 1 else None

    @app.route("/")
    def index():
        """Static search frontend (reference parity: ``HW2/app.py:51-54``
        serves ``frontend/index.html``; ours is an independently written
        minimal page driving the same ``POST /search`` contract)."""
        from flask import send_from_directory

        return send_from_directory(_FRONTEND_DIR, "index.html")

    @app.route("/search", methods=["POST"])
    def search():
        from web_search_engine_ray.state.docstore import create_snippet

        data = _json_body()
        query = (data.get("query") or "").strip()
        mode = (data.get("mode") or "AND").upper()
        topk = _count(data, "topk", 10)
        if not query:
            return jsonify({"error": "Empty query"}), 400
        if topk is None:
            return jsonify({"error": "topk must be an integer >= 1"}), 400
        if mode not in ("AND", "OR", "PHRASE"):
            return jsonify({"error": "Invalid mode. Must be AND, OR or PHRASE"}), 400
        prox_boost = bool(data.get("proximity_boost"))
        if (mode == "PHRASE" or prox_boost) and pos_shards is None:
            return jsonify({"error": "No positional index loaded"}), 400
        ranker = (data.get("ranker") or "bm25").lower()
        if ranker not in ("bm25", "ql", "rrf"):
            return jsonify(
                {"error": "Invalid ranker. Must be bm25, ql or rrf"}
            ), 400
        if ranker in ("ql", "rrf") and (mode == "PHRASE" or prox_boost):
            return jsonify(
                {"error": f"ranker={ranker} applies to plain AND/OR ranking only"}
            ), 400
        if mode == "PHRASE" and prox_boost:
            return jsonify(
                {"error": "proximity_boost applies to AND/OR ranking, not PHRASE"}
            ), 400
        t0 = time.perf_counter()
        if mode == "PHRASE":
            import pyarrow as pa

            from web_search_engine_ray.functions.tokenize import token_lists
            from web_search_engine_ray.pipelines.phrase import phrase_match_counts

            terms = token_lists(pa.array([query], pa.string())).to_list()[0] or []
            docs, counts = phrase_match_counts(
                pos_index_dir, list(terms), n_shards=pos_shards
            )
            keep = topk_order(docs, counts, topk)
            results = list(zip(docs[keep].tolist(), counts[keep].tolist()))
        elif prox_boost:
            # BM25 + ln(1+exp(-MinDist)) rescoring (Tao & Zhai 2007) over
            # the positional index — tight phrases outrank scattered terms
            from web_search_engine_ray.pipelines.phrase import (
                proximity_boosted_hits,
            )

            results = proximity_boosted_hits(
                searcher, pos_index_dir, query, mode=mode, topk=topk,
                n_shards=pos_shards,
            )
        elif ranker == "ql":
            # Dirichlet query likelihood (Zhai & Lafferty 2001) over the OR
            # candidate set — absent terms pay the background probability,
            # so AND/OR candidate modes don't apply here
            results = searcher.ql_topk(query, topk=topk)
        elif ranker == "rrf":
            # reciprocal-rank fusion of the BM25 and QL pools (Cormack
            # 2009), the ``rrf_fusion`` gate entry's fusion — still Ray-free
            results = searcher.rrf_topk(query, topk=topk)
        else:
            results = searcher.bm25_topk(query, topk=topk, mode=mode)
        search_ms = (time.perf_counter() - t0) * 1000
        # "did you mean": SymSpell suggestions for query terms the lexicon
        # doesn't know (the reference silently drops them,
        # HW2/engine/searcher.py:60-68). Outside the searchTime timer — the
        # per-variant shard maps load lazily on first probe, and that
        # one-off cost must not corrupt the metric
        suggestions = {}
        if mode in ("AND", "OR"):
            from web_search_engine_ray.functions.tokenize import query_terms

            unknown = [
                t for t in dict.fromkeys(query_terms(query))
                if searcher.lookup(t) is None
            ]
            for t in unknown:
                s = spell_index.suggest(t)
                if s is not None:
                    suggestions[t] = s
        out = []
        for d, s in results:
            item = {"docid": d, "score": s}
            if docstore is not None:
                text = docstore.get_text(d)
                item["snippet"] = create_snippet(text, query)
            out.append(item)
        resp = {
            "results": out,
            "searchTime": search_ms,
            "totalResults": len(out),
            "query": query,
            "mode": mode,
        }
        if suggestions:
            resp["suggestions"] = suggestions
            resp["suggestedQuery"] = " ".join(
                suggestions.get(t, t) for t in query.lower().split()
            )
        return jsonify(resp)

    @app.route("/complete", methods=["POST"])
    def complete():
        """Type-ahead: top-k lexicon completions for a prefix by
        (df desc, term) — ``Searcher.complete`` over the index's own sorted
        lexicon shard term lists (a surface the reference has no index
        structure for: its lexicon is one hash dict)."""
        data = _json_body()
        prefix = (data.get("prefix") or "").strip().lower()
        k = _count(data, "k", 10)
        if not prefix:
            return jsonify({"error": "Empty prefix"}), 400
        if k is None:
            return jsonify({"error": "k must be an integer >= 1"}), 400
        t0 = time.perf_counter()
        comps = searcher.complete(prefix, k=k)
        return jsonify(
            {
                "prefix": prefix,
                "completions": [{"term": t, "df": d} for t, d in comps],
                "searchTime": (time.perf_counter() - t0) * 1000,
            }
        )

    @app.route("/grep", methods=["POST"])
    def grep():
        """Trigram-pruned pattern match over the corpus (Ray-free serving
        path): ``{pattern, regex?: bool, limit?: int}`` -> matching docids.
        Unprunable patterns (too short / alternation-only / all stop-
        trigrams) get a 400 pointing at the batch operator — a request
        handler must never full-scan the corpus."""
        from web_search_engine_ray.pipelines.grep import match_docids_local

        if grep_index_dir is None or corpus_dir is None:
            return jsonify({"error": "No grep index loaded"}), 400
        data = _json_body()
        pattern = (data.get("pattern") or "").strip()
        if not pattern:
            return jsonify({"error": "Empty pattern"}), 400
        limit = _count(data, "limit", 100)
        if limit is None:
            return jsonify({"error": "limit must be an integer >= 1"}), 400
        t0 = time.perf_counter()
        try:
            ids = match_docids_local(
                corpus_dir, grep_index_dir, pattern, bool(data.get("regex"))
            )
        except (ValueError, re.error, pa.lib.ArrowInvalid) as e:
            # ArrowInvalid: patterns Python's re accepts but RE2 rejects
            # (backreferences, lookarounds) fail at match time, not compile
            return jsonify({"error": str(e)}), 400
        return jsonify(
            {
                "pattern": pattern,
                "docids": [int(d) for d in ids[:limit]],
                "totalResults": int(ids.size),
                "searchTime": (time.perf_counter() - t0) * 1000,
            }
        )

    @app.route("/health")
    def health():
        return jsonify(
            {
                "status": "ok",
                "n_docs": searcher.N,
                "n_terms": int(searcher.build.get("n_terms", 0)),
            }
        )

    return app


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--index", required=True)
    ap.add_argument("--corpus", default=None, help="corpus dir for text/snippets")
    ap.add_argument(
        "--pos-index", default=None, help="positional index dir (enables PHRASE mode)"
    )
    ap.add_argument(
        "--grep-index", default=None, help="trigram index dir (enables POST /grep)"
    )
    ap.add_argument("--host", default="127.0.0.1")
    ap.add_argument("--port", type=int, default=5001)
    args = ap.parse_args()
    create_app(args.index, args.corpus, args.pos_index, args.grep_index).run(
        host=args.host, port=args.port
    )


if __name__ == "__main__":
    main()
