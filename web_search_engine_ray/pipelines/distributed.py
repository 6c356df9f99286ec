"""Doc-range-partitioned index + distributed searcher actor pool.

The single-index :class:`~web_search_engine_ray.pipelines.query.Searcher`
holds every term shard of one index. At 10^12 turns, serving state must be
split across nodes; the classic layout is **document partitioning**: the
corpus is cut into contiguous docid ranges, each range gets its own complete
index, and one searcher actor owns each range (its lexicon, postings, and
doc-length shards — memory-mapped locally).

Query protocol (exactness argument):

1. every posting of a doc lives in exactly one range index (docids are
   GLOBAL — each range build uses ``docid_offset``), so a doc's full BM25
   score is computable inside its owner actor;
2. BM25 needs CORPUS-GLOBAL statistics (``N``, ``avgdl``, per-term ``df`` —
   ``HW2/engine/ranker.py:24-33`` computes them corpus-wide): the coordinator
   gathers per-range partial dfs for the query terms and pushes the summed
   globals into each actor (``Searcher.set_global_stats``);
3. in AND mode an actor whose range lacks one of the globally-known terms
   returns nothing (no local doc can match all terms);
4. the coordinator merges per-range top-k with ``query.topk_order``, the
   same (-score, docid) cut each range and the single-index
   ``bm25_topk(tie_semantics="sorted")`` make — identical to the latter
   because per-doc scores are bit-identical and the cut is the same
   function (proven in ``tests/test_distributed.py``).
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from web_search_engine_ray.functions.tokenize import query_terms
from web_search_engine_ray.pipelines.query import topk_order
from web_search_engine_ray.sources.transcripts import corpus_files
from web_search_engine_ray.state import manifest as mf


def build_partitioned_index(
    input_path_or_dir, out_dir: str, n_ranges: int, **build_kw
) -> dict:
    """Build ``n_ranges`` contiguous doc-range indexes with GLOBAL docids.

    Ranges split on file boundaries (files are the corpus's sort units).
    Writes ``<out_dir>/partitioned.json`` with the range dirs, docid spans,
    and corpus-global stats. Each range build is itself resumable.
    """
    import pyarrow.parquet as pq

    files = corpus_files(input_path_or_dir)
    n_ranges = max(1, min(n_ranges, len(files)))
    counts = [pq.read_metadata(f).num_rows for f in files]
    per = (len(files) + n_ranges - 1) // n_ranges
    ranges = []
    offset = 0
    for i in range(0, len(files), per):
        group = files[i : i + per]
        n = sum(counts[i : i + per])
        ranges.append({"files": group, "offset": offset, "n_docs": n})
        offset += n

    os.makedirs(out_dir, exist_ok=True)
    infos = []
    total_tokens = 0
    for ri, r in enumerate(ranges):
        rdir = os.path.join(out_dir, f"range_{ri:03d}")
        b = __import__(
            "web_search_engine_ray.pipelines.build", fromlist=["build_index"]
        ).build_index(r["files"], rdir, docid_offset=r["offset"], **build_kw)
        total_tokens += b["total_tokens"]
        infos.append(
            {
                "dir": rdir,
                "files": list(r["files"]),
                "docid_span": [r["offset"], r["offset"] + r["n_docs"]],
                "n_docs": r["n_docs"],
                "total_tokens": b["total_tokens"],
            }
        )
    n_docs = offset
    manifest = {
        "ranges": infos,
        "build_kw": build_kw,
        "n_docs": n_docs,
        # end of the docid space — stays FIXED under deletions (n_docs counts
        # only alive docs after a compaction; appends continue from here)
        "docid_end": n_docs,
        "total_tokens": total_tokens,
        "avgdl": (total_tokens / n_docs) if n_docs else 0.0,
    }
    mf.write_manifest(os.path.join(out_dir, "partitioned.json"), manifest)
    return manifest


def append_range_index(out_dir: str, input_path_or_dir, **build_kw) -> dict:
    """Incremental corpus growth: index NEW documents as one additional
    doc-range (docids continue after the current corpus end) and atomically
    update ``partitioned.json`` — existing ranges are untouched, no rebuild.

    Exactness: BM25's corpus-global inputs are never baked into range
    indexes — ``N``/``avgdl`` live in the manifest (updated here) and
    per-term global ``df`` is gathered per query — so queries after an
    append are bit-identical to a from-scratch build over the grown corpus
    (pinned in ``tests/test_distributed.py::test_append_range``). The
    reference engine has no incremental path (full rebuild,
    ``HW2/README.md``); at 100 TB this is how a daily ingest lands."""
    import pyarrow.parquet as pq

    from web_search_engine_ray.pipelines.build import build_index

    path = os.path.join(out_dir, "partitioned.json")
    with open(path) as f:
        manifest = json.load(f)
    # new docids continue after the END of the existing docid space — not
    # after the alive-doc count, which shrinks under deletions
    offset = int(manifest.get("docid_end", manifest["n_docs"]))
    ri = len(manifest["ranges"])
    files = corpus_files(input_path_or_dir)
    n = sum(pq.read_metadata(f).num_rows for f in files)
    rdir = os.path.join(out_dir, f"range_{ri:03d}")
    b = build_index(files, rdir, docid_offset=offset, **build_kw)
    manifest["ranges"].append(
        {
            "dir": rdir,
            "files": list(files),
            "docid_span": [offset, offset + n],
            "n_docs": n,
            "total_tokens": b["total_tokens"],
            # appended ranges may use different build kwargs than the
            # original index; compaction/optimize rebuilds must reuse THESE
            "build_kw": build_kw,
        }
    )
    manifest["n_docs"] = int(manifest["n_docs"]) + n
    manifest["docid_end"] = offset + n
    manifest["total_tokens"] = int(manifest["total_tokens"]) + b["total_tokens"]
    manifest["avgdl"] = (
        manifest["total_tokens"] / manifest["n_docs"] if manifest["n_docs"] else 0.0
    )
    mf.write_manifest(path, manifest)
    return manifest


def _deletes_path(out_dir: str) -> str:
    return os.path.join(out_dir, "deletes.json")


def _gc_unreferenced_range_dirs(out_dir: str, manifest: dict) -> None:
    """Remove range generation dirs the manifest no longer references — a
    crash between the manifest swap and the old-dir cleanup (in
    compact_deletes or optimize_ranges) otherwise leaks full index copies
    forever, since the rerun rebuilds nothing. Only ``range_*`` dirs are
    candidates; everything else in out_dir is untouched."""
    import glob
    import shutil

    live = {os.path.abspath(r["dir"]) for r in manifest.get("ranges", [])}
    for d in glob.glob(os.path.join(out_dir, "range_*")):
        if os.path.isdir(d) and os.path.abspath(d) not in live:
            shutil.rmtree(d, ignore_errors=True)


def load_deletes(out_dir: str) -> list[int]:
    """Pending (uncompacted) tombstoned docids, sorted."""
    p = _deletes_path(out_dir)
    if not os.path.exists(p):
        return []
    with open(p) as f:
        return list(json.load(f)["docids"])


def delete_docs(out_dir: str, docids) -> dict:
    """Tombstone deletion (the Lucene model): record docids in
    ``deletes.json``; queries exclude them IMMEDIATELY (the searcher filters
    hits), while corpus-global stats (``N``/``avgdl``) and per-term ``df``
    stay STALE until :func:`compact_deletes` rebuilds the affected ranges —
    exactly how segment-based engines defer the expensive part. Idempotent;
    rejects docids outside the corpus docid space.

    At test scale the tombstone set is a JSON list; at 100 TB it would be one
    sorted tombstone parquet per range (same contract, docid-range routed)."""
    path = os.path.join(out_dir, "partitioned.json")
    with open(path) as f:
        manifest = json.load(f)
    end = int(manifest.get("docid_end", manifest["n_docs"]))
    req = sorted({int(d) for d in docids})
    if req and (req[0] < 0 or req[-1] >= end):
        bad = [d for d in req if d < 0 or d >= end]
        raise ValueError(f"docids outside [0, {end}): {bad[:5]}")
    merged = sorted(set(load_deletes(out_dir)) | set(req))
    mf.write_manifest(_deletes_path(out_dir), {"docids": merged})
    return {"n_tombstoned": len(merged)}


def compact_deletes(out_dir: str, **build_kw) -> dict:
    """Apply pending tombstones: rebuild ONLY the ranges that contain deleted
    docids — each rebuild preserves the global docid assignment (deleted
    slots keep a dense dl=0 row, get no postings, and drop out of
    ``N``/``avgdl``; see ``BuildConfig.delete_docids``) — then refresh the
    corpus-global stats and clear the tombstones. Untouched ranges are not
    rebuilt; a re-run with no new deletions is a no-op (the per-partition
    resume fingerprints include the delete-set hash, so even a forced re-run
    skips every partition).

    After compaction, ``df`` needs no bookkeeping at all: it is gathered
    per-query from the rebuilt postings (:meth:`RangeSearcher.local_dfs`), so
    queries are bit-identical to an index built over the corpus minus the
    deleted docs with docids unchanged (pinned in ``tests/test_deletes.py``).
    The reference engine has no deletion path (full rebuild only)."""
    from web_search_engine_ray.pipelines.build import build_index

    path = os.path.join(out_dir, "partitioned.json")
    with open(path) as f:
        manifest = json.load(f)
    pending = load_deletes(out_dir)
    if not pending:
        return manifest
    import numpy as np

    pend = np.asarray(pending, dtype=np.int64)
    # crash safety (optimize_ranges' contract): every affected range rebuilds
    # into a FRESH generation dir; the manifest swaps to the new dirs only
    # after ALL rebuilds succeed, so a crash mid-rebuild leaves partitioned.json
    # pointing at intact pre-compaction ranges (tombstones in deletes.json
    # still hide the deleted docs) and the rerun resumes into the same gen dirs
    gen = int(manifest.get("compact_gen", 0)) + 1
    total_tokens = 0
    n_alive = 0
    rebuilt: list[tuple[dict, str, str]] = []  # (range info, old dir, new dir)
    for r in manifest["ranges"]:
        lo, hi = (int(x) for x in r["docid_span"])
        mine = pend[(pend >= lo) & (pend < hi)]
        prev = r.get("deleted_docids", [])
        # cumulative union — a rebuild with only the NEW deletions would
        # resurrect previously compacted ones
        union = sorted(set(prev) | {int(d) for d in mine}) if mine.size else list(prev)
        if mine.size and union != sorted(prev):
            files = r.get("files")
            if not files:
                raise ValueError(
                    f"range manifest {r['dir']} predates deletion support "
                    "(no 'files'); rebuild the partitioned index"
                )
            new_dir = f"{r['dir'].rstrip('/')}_c{gen}"
            b = build_index(
                files,
                new_dir,
                docid_offset=lo,
                delete_docids=tuple(union),
                # the range's own kwargs (appended ranges may differ) win
                # over the index-wide defaults
                **{**manifest.get("build_kw", {}), **r.get("build_kw", {}), **build_kw},
            )
            r["deleted_docids"] = union
            r["n_docs"] = int(b["n_docs"])  # alive count
            r["total_tokens"] = int(b["total_tokens"])
            rebuilt.append((r, r["dir"], new_dir))
        total_tokens += int(r["total_tokens"])
        n_alive += int(r["n_docs"])
    for r, _old, new_dir in rebuilt:
        r["dir"] = new_dir
    manifest["n_docs"] = n_alive
    manifest["total_tokens"] = total_tokens
    manifest["avgdl"] = (total_tokens / n_alive) if n_alive else 0.0
    manifest.setdefault("docid_end", int(manifest["ranges"][-1]["docid_span"][1]))
    manifest["compact_gen"] = gen
    mf.write_manifest(path, manifest)  # the atomic commit point
    os.remove(_deletes_path(out_dir))
    # old gens only after the swap succeeded; the GC sweep also reclaims
    # dirs orphaned by a PREVIOUS crash in the swap->cleanup window
    _gc_unreferenced_range_dirs(out_dir, manifest)
    return manifest


def optimize_ranges(out_dir: str, target_ranges: int, **build_kw) -> dict:
    """Segment merging (the forceMerge analog): collapse the index's range
    list down to ``target_ranges`` by rebuilding groups of ADJACENT ranges as
    single ranges — docids, deletions, and query results all preserved
    exactly (pinned in ``tests/test_deletes.py``). Daily appends
    (:func:`append_range_index`) grow the range count one per ingest; this
    caps actor count and per-query fan-out again.

    Pending tombstones must be compacted first (raises otherwise — a merged
    rebuild would bake them in silently, making ``deletes.json`` stale).
    New ranges build into fresh ``range_NNN_gG`` dirs before the manifest
    swap, so a crash mid-optimize leaves the old index fully intact."""
    from web_search_engine_ray.pipelines.build import build_index

    path = os.path.join(out_dir, "partitioned.json")
    with open(path) as f:
        manifest = json.load(f)
    if load_deletes(out_dir):
        raise ValueError("pending tombstones: run compact_deletes before optimize")
    ranges = manifest["ranges"]
    target_ranges = max(1, target_ranges)
    if len(ranges) <= target_ranges:
        return manifest

    per = (len(ranges) + target_ranges - 1) // target_ranges
    gen = int(manifest.get("optimize_gen", 0)) + 1
    new_infos = []
    for r in ranges:
        if "files" not in r:
            raise ValueError(
                f"range manifest {r['dir']} predates deletion support "
                "(no 'files'); rebuild the partitioned index"
            )
    for gi in range(0, len(ranges), per):
        group = ranges[gi : gi + per]
        lo = int(group[0]["docid_span"][0])
        hi = int(group[-1]["docid_span"][1])
        files = [f for r in group for f in r["files"]]
        deleted = sorted({d for r in group for d in r.get("deleted_docids", [])})
        # a merged range can only carry ONE kwarg set; refuse silently mixing
        # ranges that were built differently (e.g. an appended range with
        # another text_column)
        kws = {
            json.dumps(
                {**manifest.get("build_kw", {}), **r.get("build_kw", {})},
                sort_keys=True,
            )
            for r in group
        }
        if len(kws) > 1:
            raise ValueError(
                "cannot merge ranges built with different kwargs "
                f"({sorted(kws)}); optimize with a target that keeps them apart"
            )
        group_kw = json.loads(next(iter(kws)))
        rdir = os.path.join(out_dir, f"range_{gi // per:03d}_g{gen}")
        b = build_index(
            files,
            rdir,
            docid_offset=lo,
            delete_docids=tuple(deleted),
            **{**group_kw, **build_kw},
        )
        info = {
            "dir": rdir,
            "files": files,
            "docid_span": [lo, hi],
            "n_docs": int(b["n_docs"]),
            "total_tokens": int(b["total_tokens"]),
            "build_kw": {**group_kw, **build_kw},
        }
        if deleted:
            info["deleted_docids"] = deleted
        new_infos.append(info)

    manifest["ranges"] = new_infos
    manifest["optimize_gen"] = gen
    manifest["n_docs"] = sum(r["n_docs"] for r in new_infos)
    manifest["total_tokens"] = sum(r["total_tokens"] for r in new_infos)
    manifest["avgdl"] = (
        manifest["total_tokens"] / manifest["n_docs"] if manifest["n_docs"] else 0.0
    )
    mf.write_manifest(path, manifest)
    # old segments only after the manifest swap succeeded; the GC sweep
    # also reclaims dirs orphaned by a previous crash in this window
    _gc_unreferenced_range_dirs(out_dir, manifest)
    return manifest


class RangeSearcher:
    """One actor per docid range: a full Searcher over that range's index."""

    def __init__(self, range_dir: str):
        from web_search_engine_ray.pipelines.query import Searcher

        self.s = Searcher(range_dir)

    def local_dfs(self, terms: list[str]) -> dict[str, int]:
        out = {}
        for t in terms:
            hit = self.s.lookup(t)
            if hit is not None:
                out[t] = int(hit[0]["df"])
        return out

    def topk(
        self,
        query: str,
        topk: int,
        mode: str,
        n: int,
        avgdl: float,
        df_global: dict[str, int],
        exclude: list[int] | None = None,
    ) -> list[tuple[int, float]]:
        self.s.set_global_stats(n, avgdl, df_global)
        if mode.upper() == "AND":
            known_global = {t for t in query_terms(query) if df_global.get(t, 0) > 0}
            known_local = {t for t in known_global if self.s.lookup(t) is not None}
            if known_local != known_global:
                return []  # some required term has no postings in this range
        if not exclude:
            return self.s.bm25_topk(query, topk=topk, mode=mode, tie_semantics="sorted")
        # tombstoned docids in this range: over-fetch, filter, re-cut —
        # scores use the STALE pre-compaction stats, exactly like segment
        # engines with uncommitted deletes. The over-fetch starts SMALL
        # (most tombstones can't even score for this query) and doubles on
        # shortfall up to topk + len(dels), the worst case (each deleted doc
        # displaces at most one live hit) — so a huge uncompacted delete set
        # does not defeat the MaxScore cutoff, which ``sorted`` ties take
        # like ``heap``, on every query
        dels = set(exclude)
        cap = topk + len(dels)
        fetch = min(cap, topk + min(len(dels), max(16, topk)))
        while True:
            hits = self.s.bm25_topk(
                query, topk=fetch, mode=mode, tie_semantics="sorted"
            )
            alive = [h for h in hits if int(h[0]) not in dels]
            if len(alive) >= topk or len(hits) < fetch or fetch >= cap:
                return alive[:topk]
            fetch = min(cap, fetch * 2)


def range_actor_cpus(cpus: float, n_ranges: int, per_actor: float = 1.0) -> float:
    """CPUs for each of ``n_ranges`` serving actors on a ``cpus``-CPU cluster.

    Together they take at most ``cpus - 1``, so a 1-CPU build task always
    fits beside a live searcher: ``append_range_index`` or a compaction
    while serving never waits forever (at 4 CPUs, 4 actors at 0.8 CPU each
    once left 0.8 free and hung the append). Serving actors are call-driven
    and mostly idle, so fractional CPUs are the idiomatic Ray packing; on a
    1-CPU cluster they get 0 (Ray runs zero-CPU actors), and at real cluster
    sizes the cap is a no-op. Rounded down to Ray's 1e-4 resource
    granularity, so the rounded sum keeps the bound."""
    spare = max(0.0, float(cpus) - 1.0)
    return min(per_actor, math.floor(spare / max(1, n_ranges) * 1e4) / 1e4)


class PartitionedSearcher:
    """Coordinator over one RangeSearcher actor per docid range."""

    def __init__(self, out_dir: str, num_cpus_per_actor: float = 1.0):
        import ray

        with open(os.path.join(out_dir, "partitioned.json")) as f:
            self.manifest = json.load(f)
        self.N = int(self.manifest["n_docs"])
        self.avgdl = float(self.manifest["avgdl"])
        n_ranges = max(1, len(self.manifest["ranges"]))
        try:
            cpus = float(ray.cluster_resources().get("CPU", n_ranges + 1))
        except Exception:  # pragma: no cover - resource probe best-effort
            cpus = float(n_ranges + 1)
        per = range_actor_cpus(cpus, n_ranges, num_cpus_per_actor)
        actor = ray.remote(num_cpus=per)(RangeSearcher)
        self.actors = [actor.remote(r["dir"]) for r in self.manifest["ranges"]]
        # pending tombstones, routed to their owning range
        pend = load_deletes(out_dir)
        self.range_deletes: list[list[int]] = []
        for r in self.manifest["ranges"]:
            lo, hi = (int(x) for x in r["docid_span"])
            self.range_deletes.append([d for d in pend if lo <= d < hi])

    def bm25_topk(self, query: str, topk: int = 10, mode: str = "OR"):
        import ray

        terms = sorted(set(query_terms(query)))
        partials = ray.get([a.local_dfs.remote(terms) for a in self.actors])
        df_global: dict[str, int] = {}
        for p in partials:
            for t, c in p.items():
                df_global[t] = df_global.get(t, 0) + c
        results = ray.get(
            [
                a.topk.remote(
                    query, topk, mode, self.N, self.avgdl, df_global, dels or None
                )
                for a, dels in zip(self.actors, self.range_deletes)
            ]
        )
        merged = [x for r in results for x in r]
        ids = np.array([d for d, _ in merged], np.uint64)
        scores = np.array([x for _, x in merged], np.float64)
        return [merged[i] for i in topk_order(ids, scores, topk)]

    def shutdown(self) -> None:
        import ray

        for a in self.actors:
            ray.kill(a)
        self.actors = []
