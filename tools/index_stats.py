"""Index inspection: sizes, compression, posting distribution.

The reference publishes postings-file size, lexicon size, and per-codec
compression in README/benchmark.txt (``HW2/README.md:121-126``,
``benchmark.txt:422-442``); this is our equivalent, computed from the build
manifest + shard files.

It also prints where the build's time went, from ``build.json`` alone: one
row per stage timing, then the skew report (partition wall p50/max and the
straggler pid, the slowest shard, the shard-bytes max/median ratio).

Usage: python tools/index_stats.py <index_dir>
"""

from __future__ import annotations

import json
import os
import sys


def stats(index_dir: str) -> dict:
    with open(os.path.join(index_dir, "build.json")) as f:
        build = json.load(f)
    shard_dir = os.path.join(index_dir, "index")
    post_bytes = lex_bytes = 0
    for name in os.listdir(shard_dir):
        p = os.path.join(shard_dir, name)
        if name.endswith(".postings"):
            post_bytes += os.path.getsize(p)
        elif name.endswith(".lexicon"):
            lex_bytes += os.path.getsize(p)
    doclen_dir = os.path.join(index_dir, "doclens")
    dl_bytes = sum(
        os.path.getsize(os.path.join(doclen_dir, f))
        for f in os.listdir(doclen_dir)
        if f.endswith(".parquet")
    )
    n_post = build["n_postings"]
    shards = build["shards"]
    normal = [s for s in shards if s["kind"] == "normal"]
    heavy = [s for s in shards if s["kind"] == "heavy"]
    out = {
        "codec": build["config"]["codec"],
        "n_docs": build["n_docs"],
        "n_terms": build["n_terms"],
        "n_postings": n_post,
        "postings_bytes": post_bytes,
        "bytes_per_posting": round(post_bytes / n_post, 3) if n_post else None,
        "lexicon_bytes": lex_bytes,
        "doclen_bytes": dl_bytes,
        "n_shards_normal": len(normal),
        "n_shards_heavy": len(heavy),
        "heavy_postings_frac": round(
            sum(s["n_postings"] for s in heavy) / n_post, 4
        )
        if n_post
        else None,
        "largest_shard_postings": max((s["n_postings"] for s in shards), default=0),
        "build_timings": build["timings"],
        "build_skew": build.get("skew", {}),
    }
    return out


# corpus builds: plan, runs, merge; legacy-run builds: convert .. merge
STAGE_ORDER = ["plan_s", "runs_s", "convert_s", "layout_s", "doclens_s", "merge_s"]


def stage_table(build: dict) -> str:
    """Per-stage table of a build manifest: each stage's seconds and share
    of the total, then the skew rows (legacy-run builds have no skew)."""
    t = build["timings"]
    total = t.get("total_s") or 0.0
    rows = [("stage", "seconds", "share")]
    # build.json keys are sorted; show the stages in pipeline order
    for k in sorted(t, key=lambda k: STAGE_ORDER.index(k) if k in STAGE_ORDER else len(STAGE_ORDER)):
        if k != "total_s":
            rows.append((k[:-2], f"{t[k]:.3f}", f"{t[k] / total:.0%}" if total else "-"))
    rows.append(("total", f"{total:.3f}", ""))
    skew = build.get("skew", {})
    if "partition_wall_max_s" in skew:
        rows.append(("partition wall p50", f"{skew['partition_wall_p50_s']:.3f}", ""))
        rows.append(
            ("partition wall max", f"{skew['partition_wall_max_s']:.3f}", f"pid {skew['straggler_pid']}")
        )
    if "shard_wall_max_s" in skew:
        rows.append(
            ("shard wall max", f"{skew['shard_wall_max_s']:.3f}", f"shard {skew['straggler_shard']}")
        )
        rows.append(("shard bytes max/median", str(skew["shard_bytes_max_over_median"]), ""))
    w0 = max(len(r[0]) for r in rows)
    w1 = max(len(r[1]) for r in rows)
    return "\n".join(f"{a:<{w0}}  {b:>{w1}}  {c}".rstrip() for a, b, c in rows)


if __name__ == "__main__":
    with open(os.path.join(sys.argv[1], "build.json")) as f:
        print(stage_table(json.load(f)))
    print(json.dumps(stats(sys.argv[1]), indent=2))
