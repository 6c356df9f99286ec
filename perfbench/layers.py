"""Per-layer metrics of a traced run, reduced from the recorded spans.

``BENCHMARK.json`` lists the per-layer metrics with their units and better
directions; ``MOVES`` here is the layer -> end-to-end map: for each metric,
the end-to-end metric (on the workload) that it should move. A traced run
prints every metric; a layer that a workload does not exercise reports 0,
which is itself a prediction (for example ``exchange.calls`` is 0 on
``search``).

Time shares per request (``*_ms`` under query, state, serve and spell) are
means over requests of the summed self time of that layer's spans;
``trace.search_coverage`` checks what share of the client-measured request
time they account for.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from perfbench.harness import percentile

E2E_BUILD = "work_per_s/p50_ms on build"
E2E_SEARCH = "p50_ms/tail_ms on search"
E2E_DEDUP = "work_per_s on dedup"
CLASS = "which query class moved on search"

MOVES = {
    "build.plan_s": E2E_BUILD,
    "build.runs_s": E2E_BUILD,
    "build.runs_busy_frac": E2E_BUILD,
    "transcripts.read_s": E2E_BUILD,
    "tokenize.batch_postings_s": E2E_BUILD,
    "build.assign_gkeys_s": E2E_BUILD,
    "build.partition_self_s": E2E_BUILD,
    "build.partition_wall_p50_s": E2E_BUILD,
    "build.partition_wall_max_s": E2E_BUILD,
    "build.merge_s": E2E_BUILD,
    "build.merge_busy_frac": E2E_BUILD,
    "listio.encode_s": E2E_BUILD,
    "lexicon.save_s": E2E_BUILD,
    "build.shard_self_s": E2E_BUILD,
    "build.shard_wall_max_s": E2E_BUILD,
    "build.shard_bytes_skew": E2E_BUILD,
    "build.n_partitions": "base of the build ratios",
    "build.n_postings": "base of the build ratios",
    "build.heavy_terms": "base of the build ratios",
    "build.index_bytes_per_posting": "rss_mb/work_per_s on build (space for speed)",
    "query.lookups_per_term": E2E_SEARCH,
    "query.score_self_ms": E2E_SEARCH,
    "query.maxscore_taken_frac": E2E_SEARCH,
    "lexicon.get_ms": E2E_SEARCH,
    "listio.decode_ms": E2E_SEARCH,
    "listio.decode_calls_per_query": E2E_SEARCH,
    "listio.cache_hit_rate": "p50_ms/rss_mb on search",
    "listio.cache_hits": "p50_ms on search",
    "listio.cache_misses": "p50_ms on search",
    "docstats.get_many_ms": E2E_SEARCH,
    "serve.handler_self_ms": "p50_ms on search",
    "spell.suggest_ms": "p50_ms on search",
    "search.or_p50_ms": CLASS,
    "search.and_p50_ms": CLASS,
    "search.rare_p50_ms": CLASS,
    "search.heavy_p99_ms": CLASS,
    "exchange.calls": E2E_DEDUP,
    "exchange.upstream_wait_s": E2E_DEDUP,
    "exchange.split_s": E2E_DEDUP,
    "exchange.apply_s": E2E_DEDUP,
    "exchange.busy_frac": E2E_DEDUP,
    "exchange.partition_rows_skew": E2E_DEDUP,
    "dedup.candidates": E2E_DEDUP,
    "dedup.verified_pairs": "useful work on dedup",
    "dedup.verify_yield": E2E_DEDUP,
    "trace.overhead_ms": "traced minus untraced p50_ms",
    "trace.overhead_frac": "traced over untraced p50_ms, minus 1",
    "trace.build_coverage": "(plan+runs+merge) over build wall",
    "trace.search_coverage": "summed layer self times over client request time",
}


class Spans:
    """Span rows indexed by process and parent, with self times."""

    def __init__(self, rows: list[list]):
        # row: [pid, id, parent, rid, name, t0, t1, attrs]
        self.rows = rows
        self.kids: dict[tuple, list] = defaultdict(list)
        for r in rows:
            if r[2]:
                self.kids[(r[0], r[2])].append(r)

    @staticmethod
    def attrs(r) -> dict:
        return r[7] or {}

    @staticmethod
    def dur(r) -> float:
        return (r[6] - r[5]) / 1e9

    def children(self, r) -> list:
        return self.kids.get((r[0], r[1]), [])

    def self_s(self, r) -> float:
        return self.dur(r) - sum(self.dur(c) for c in self.children(r))

    def tree(self, r) -> list:
        out, todo = [], [r]
        while todo:
            x = todo.pop()
            out.append(x)
            todo.extend(self.children(x))
        return out

    def named(self, name: str, lo: int | None = None, hi: int | None = None) -> list:
        return [
            r
            for r in self.rows
            if r[4] == name and (lo is None or (r[5] >= lo and r[6] <= hi))
        ]


def _med(xs) -> float:
    xs = list(xs)
    return float(statistics.median(xs)) if xs else 0.0


def build_layers(sp: Spans, cpus: int, index_bytes_per_posting: float) -> dict:
    per: dict[str, list] = defaultdict(list)
    coverage = []
    for b in sp.named("build.index"):
        wall = sp.dur(b)
        kids = sp.children(b)
        plan = sum(sp.dur(k) for k in kids if k[4] in ("build.plan_partitions", "build.detect_heavy"))
        runs = sum(sp.dur(k) for k in kids if k[4] == "build.runs")
        merge = sum(sp.dur(k) for k in kids if k[4] == "build.merge")
        coverage.append((plan + runs + merge) / wall)
        parts = sp.named("build.partition", b[5], b[6])
        shards = sp.named("build.shard", b[5], b[6])
        pw = [sp.dur(p) for p in parts]
        sw = [sp.dur(s) for s in shards]

        def child_sum(spans, name):
            return sum(sp.dur(c) for s in spans for c in sp.tree(s) if c[4] == name)

        a = b[7] or {}
        sizes = [x for x in a.get("shard_bytes", []) if x] or [1]
        vals = {
            "build.plan_s": plan,
            "build.runs_s": runs,
            "build.runs_busy_frac": sum(pw) / (runs * cpus) if runs else 0.0,
            "transcripts.read_s": child_sum(parts, "transcripts.read"),
            "tokenize.batch_postings_s": child_sum(parts, "tokenize.batch_postings"),
            "build.assign_gkeys_s": child_sum(parts, "build.assign_gkeys"),
            "build.partition_self_s": sum(sp.self_s(p) for p in parts),
            "build.partition_wall_p50_s": _med(pw),
            "build.partition_wall_max_s": max(pw, default=0.0),
            "build.merge_s": merge,
            "build.merge_busy_frac": sum(sw) / (merge * cpus) if merge else 0.0,
            "listio.encode_s": child_sum(shards, "listio.encode"),
            "lexicon.save_s": child_sum(shards, "lexicon.save"),
            "build.shard_self_s": sum(sp.self_s(s) for s in shards),
            "build.shard_wall_max_s": max(sw, default=0.0),
            "build.shard_bytes_skew": max(sizes) / (sum(sizes) / len(sizes)),
            "build.n_partitions": a.get("n_partitions", 0),
            "build.n_postings": a.get("n_postings", 0),
            "build.heavy_terms": a.get("heavy_terms", 0),
        }
        for k, v in vals.items():
            per[k].append(v)
    out = {k: _med(v) for k, v in per.items()}
    out["build.index_bytes_per_posting"] = index_bytes_per_posting
    out["trace.build_coverage"] = min(coverage) if coverage else 0.0
    return out


def search_layers(sp: Spans, requests: list[dict]) -> dict:
    """``requests``: one dict per traced request with ``rid``, ``cls``,
    ``mode``, ``terms`` and ``ms`` (latency measured by the client, around
    the test client's call). The root span ``serve.request`` wraps that call
    too; its own self time (test client, WSGI and Flask dispatch) belongs
    to no layer, so the layers' share of the client time is the coverage."""
    roots = {r[3]: r for r in sp.named("serve.request")}
    acc: dict[str, float] = defaultdict(float)
    n_lookups = n_bm25 = n_taken = hits = misses = 0
    client_ms = 0.0
    n = 0
    for q in requests:
        r = roots.get(q["rid"])
        if r is None:
            continue
        n += 1
        client_ms += q["ms"]
        for s in sp.tree(r):
            name, self_ms = s[4], sp.self_s(s) * 1e3
            if name == "serve.handler":
                acc["serve.handler_self_ms"] += self_ms
            elif name in ("query.bm25_topk", "query.maxscore"):
                acc["query.score_self_ms"] += self_ms
            elif name in ("query.lookup", "lexicon.get"):
                acc["lexicon.get_ms"] += self_ms
            elif name in ("listio.decode", "listio.cache_get"):
                acc["listio.decode_ms"] += self_ms
            elif name == "docstats.get_many":
                acc["docstats.get_many_ms"] += self_ms
            elif name == "spell.suggest":
                acc["spell.suggest_ms"] += self_ms
            n_lookups += name == "query.lookup"
            n_bm25 += name == "query.bm25_topk"
            n_taken += name == "query.maxscore" and bool(sp.attrs(s).get("taken"))
            if name == "listio.cache_get":
                hits += s[7]["hit"]
                misses += not s[7]["hit"]
    out = {k: v / max(1, n) for k, v in acc.items()}
    n_terms = sum(q["terms"] for q in requests) or 1
    out["query.lookups_per_term"] = n_lookups / n_terms
    out["query.maxscore_taken_frac"] = n_taken / n_bm25 if n_bm25 else 0.0
    out["listio.cache_hits"] = hits
    out["listio.cache_misses"] = misses
    out["listio.cache_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    out["listio.decode_calls_per_query"] = misses / max(1, n)
    out["trace.search_coverage"] = sum(acc.values()) / client_ms if client_ms else 0.0
    out["search.or_p50_ms"] = _med(q["ms"] for q in requests if q["mode"] == "OR")
    out["search.and_p50_ms"] = _med(q["ms"] for q in requests if q["mode"] == "AND")
    out["search.rare_p50_ms"] = _med(q["ms"] for q in requests if q["cls"] == "rare")
    heavy = [q["ms"] for q in requests if q["cls"] == "heavy"]
    out["search.heavy_p99_ms"] = percentile(heavy, 0.99) if heavy else 0.0
    return out


def dedup_layers(sp: Spans, runs: list[tuple[float, float]], tasks: list[dict], cpus: int) -> dict:
    """``runs``: (start, end) wall-clock seconds of each traced pipeline
    run; ``tasks``: Ray timeline task events (chrome-trace dicts)."""
    per: dict[str, list] = defaultdict(list)
    for root in sp.named("dedup.run"):
        lo, hi = root[5], root[6]
        maps = sp.named("exchange.map", lo, hi)
        waits = [c for m in maps for c in sp.children(m) if c[4] == "exchange.upstream_wait"]
        fns = sp.named("exchange.apply_fn", lo, hi)
        per["exchange.calls"].append(len(maps))
        per["exchange.upstream_wait_s"].append(sum(sp.dur(w) for w in waits))
        by_fn: dict[str, list] = defaultdict(list)
        for f in fns:
            by_fn[f[7]["fn"]].append(f[7]["rows_in"])
        skews = [max(v) / (sum(v) / len(v)) for v in by_fn.values() if sum(v)]
        per["exchange.partition_rows_skew"].append(_med(skews))
        cand = sum(f[7].get("rows_out", 0) for f in fns if f[7]["fn"] == "dedup_pairs")
        ver = sum(f[7].get("rows_out", 0) for f in fns if f[7]["fn"] == "verify")
        per["dedup.candidates"].append(cand)
        per["dedup.verified_pairs"].append(ver)
        per["dedup.verify_yield"].append(ver / cand if cand else 0.0)
    for (w0, w1) in runs:
        mine = [t for t in tasks if w0 <= t["ts"] / 1e6 <= w1]
        split = sum(t["dur"] for t in mine if t["name"].endswith("split")) / 1e6
        apply = sum(t["dur"] for t in mine if t["name"].endswith("apply")) / 1e6
        per["exchange.split_s"].append(split)
        per["exchange.apply_s"].append(apply)
        per["exchange.busy_frac"].append((split + apply) / ((w1 - w0) * cpus))
    return {k: _med(v) for k, v in per.items()}
