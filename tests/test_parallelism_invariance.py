"""Fresh-process two-parallelism determinism (SURVEY.md §5.6): building the
same corpus under ray.init(num_cpus=2) and num_cpus=8 in separate processes
must produce byte-identical index shards and identical query results."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

SCRIPT = r"""
import sys, os, glob, hashlib, json
corpus, out, ncpu = sys.argv[1], sys.argv[2], int(sys.argv[3])
os.environ.setdefault("POLARS_MAX_THREADS", "1")
import ray
ray.init(address="local", num_cpus=ncpu, include_dashboard=False)
sys.path.insert(0, os.getcwd())
from web_search_engine_ray.pipelines.build import build_index
from web_search_engine_ray.pipelines.query import Searcher
build_index(corpus, out, partition_rows=300, num_shards=4, n_salts=3,
            block_size=16, heavy_df_frac=0.05, resume=False)
digest = {}
for p in sorted(glob.glob(os.path.join(out, "index", "shard_*"))):
    digest[os.path.basename(p)] = hashlib.sha256(open(p, "rb").read()).hexdigest()
s = Searcher(out)
res = {q: s.bm25_topk(q, 10, "OR") for q in ["the data", "w0001 w0002", "data data"]}
print(json.dumps({"digest": digest, "res": {k: [[int(d), repr(x)] for d, x in v]
                                            for k, v in res.items()}}))
ray.shutdown()
"""


def _run(corpus: str, out: str, ncpu: int) -> dict:
    env = dict(os.environ)
    # own Ray root, removed afterwards: sharing /tmp/ray with the live
    # pytest session flips the session_latest symlink under it and has
    # coincided with task_manager.cc Check-failed crashes in the MAIN
    # driver (see BASELINE.md flake note)
    env["RAY_TMPDIR"] = tempfile.mkdtemp(prefix="ray_sub_")
    try:
        proc = subprocess.run(
            [sys.executable, "-c", SCRIPT, corpus, out, str(ncpu)],
            capture_output=True,
            text=True,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            env=env,
            timeout=300,
        )
    finally:
        shutil.rmtree(env["RAY_TMPDIR"], ignore_errors=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_num_cpus_invariance(multi_rowgroup_corpus_dir, tmp_path):
    from web_search_engine_ray.sources.transcripts import corpus_files, plan_partitions

    # the script's partition_rows=300 splits files, so both nodes run more
    # partitions than the 2-CPU one has slots
    files = corpus_files(multi_rowgroup_corpus_dir)
    assert len(plan_partitions(files, 300)[0]) > max(len(files), 2)
    lo = _run(multi_rowgroup_corpus_dir, str(tmp_path / "idx2"), 2)
    hi = _run(multi_rowgroup_corpus_dir, str(tmp_path / "idx8"), 8)
    assert lo["digest"] == hi["digest"]
    assert lo["res"] == hi["res"]  # exact float repr equality
