"""``ray job submit`` entry point for the index build.

On a cluster:

    ray job submit --working-dir . -- \\
        python -m web_search_engine_ray.jobs.build_job \\
        --input /shared/transcripts --out /shared/index \\
        --partition-rows 100000 --num-shards 4096 --n-salts 64

The job connects to the running cluster (``RAY_ADDRESS``, set by the job
runtime); in this sandbox it falls back to a local session. Output paths must
be shared storage (NFS / fuse-mounted object store) — every phase writes
partition-scoped files there, which is what makes the build resumable: re-run
the same command after any failure and finished partitions are skipped via
their checkpoint manifests.
"""

from __future__ import annotations

import argparse
import json


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--input", required=True, help="corpus dir / parquet file")
    ap.add_argument("--out", required=True, help="index output dir (shared storage)")
    ap.add_argument("--partition-rows", type=int, default=100_000)
    ap.add_argument("--num-shards", type=int, default=64)
    ap.add_argument("--n-salts", type=int, default=8)
    ap.add_argument("--block-size", type=int, default=128)
    ap.add_argument("--codec", default="varbyte", choices=["varbyte", "raw"])
    ap.add_argument("--heavy-df-frac", type=float, default=0.05)
    ap.add_argument("--text-column", default="text")
    ap.add_argument("--no-resume", action="store_true")
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(include_dashboard=False)  # RAY_ADDRESS picks the cluster

    from web_search_engine_ray.pipelines.build import build_index

    build = build_index(
        args.input,
        args.out,
        partition_rows=args.partition_rows,
        num_shards=args.num_shards,
        n_salts=args.n_salts,
        block_size=args.block_size,
        codec=args.codec,
        heavy_df_frac=args.heavy_df_frac,
        text_column=args.text_column,
        resume=not args.no_resume,
    )
    print(
        json.dumps(
            {
                "n_docs": build["n_docs"],
                "n_postings": build["n_postings"],
                "n_terms": build["n_terms"],
                "heavy_terms": len(build["heavy_terms"]),
                "timings": build["timings"],
            }
        )
    )
    ray.shutdown()


if __name__ == "__main__":
    main()
