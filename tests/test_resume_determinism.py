"""Checkpoint/resume + parallelism-invariance tests (SURVEY.md §5.5-5.6).

The index bytes must be a pure function of (corpus, config): invariant to
partitioning, task order, and resume-after-crash."""

import glob
import hashlib
import json
import os

import pytest

from web_search_engine_ray.pipelines.build import build_index
from web_search_engine_ray.pipelines.query import Searcher

CFG = dict(num_shards=4, n_salts=3, block_size=16, heavy_df_frac=0.05)


def _index_digest(out: str) -> dict[str, str]:
    sigs = {}
    for p in sorted(glob.glob(os.path.join(out, "index", "shard_*"))):
        with open(p, "rb") as f:
            sigs[os.path.basename(p)] = hashlib.sha256(f.read()).hexdigest()
    with open(os.path.join(out, "doclens", "stats.json")) as f:
        sigs["stats.json"] = f.read()
    return sigs


@pytest.fixture(scope="module")
def base_build(ray_session, small_corpus_dir, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("resume_base"))
    build = build_index(small_corpus_dir, out, partition_rows=700, **CFG)
    return out, build, _index_digest(out)


def test_partitioning_invariance(ray_session, small_corpus_dir, tmp_path_factory, base_build):
    """Different partition_rows -> byte-identical index shards."""
    _, base, base_sigs = base_build
    out2 = str(tmp_path_factory.mktemp("resume_alt"))
    build2 = build_index(small_corpus_dir, out2, partition_rows=311, **CFG)
    assert build2["n_postings"] == base["n_postings"]
    assert build2["heavy_terms"] == base["heavy_terms"]
    assert _index_digest(out2) == base_sigs


def test_rerun_skips_everything(ray_session, small_corpus_dir, base_build):
    out, _, base_sigs = base_build
    mtimes = {p: os.path.getmtime(p) for p in glob.glob(out + "/index/shard_*")}
    build2 = build_index(small_corpus_dir, out, partition_rows=700, **CFG)
    # all partitions skipped; shards untouched
    for p, t in mtimes.items():
        assert os.path.getmtime(p) == t, f"shard rewritten on clean rerun: {p}"
    assert _index_digest(out) == base_sigs
    man = [json.load(open(p)) for p in glob.glob(out + "/manifests/run_*.json")]
    assert man and all(os.path.exists(out + f"/runs/run_{m['pid']:06d}.parquet") for m in man)


def test_crash_resume_rebuilds_only_missing(ray_session, small_corpus_dir, base_build):
    out, _, base_sigs = base_build
    # simulate a crash: lose two run partitions (data + manifest) and the
    # whole merge output
    runs = sorted(glob.glob(out + "/runs/run_*.parquet"))
    assert len(runs) >= 2
    for victim in runs[:2]:
        pid = victim.split("run_")[-1].split(".")[0]
        os.remove(victim)
        os.remove(out + f"/manifests/run_{pid}.json")
    for p in glob.glob(out + "/index/shard_*"):
        os.remove(p)
    os.remove(out + "/build.json")

    intact = sorted(set(glob.glob(out + "/runs/run_*.parquet")))
    mtimes = {p: os.path.getmtime(p) for p in intact}
    build2 = build_index(small_corpus_dir, out, partition_rows=700, **CFG)
    # intact runs were not rebuilt
    for p, t in mtimes.items():
        assert os.path.getmtime(p) == t
    # final artifacts identical to the uninterrupted build
    assert _index_digest(out) == base_sigs
    s = Searcher(out)
    assert s.N == build2["n_docs"]
    assert s.df("the") > 0


def test_code_fingerprint_covers_every_listed_file(tmp_path, monkeypatch):
    """The build's code fingerprint changes when any one of its source
    files changes by a byte, and matches the package when none does."""
    import shutil

    from web_search_engine_ray.pipelines import build

    pkg = os.path.dirname(os.path.dirname(os.path.abspath(build.__file__)))
    for rel in build.CODE_FILES:
        os.makedirs(tmp_path / os.path.dirname(rel), exist_ok=True)
        shutil.copyfile(os.path.join(pkg, rel), tmp_path / rel)
    monkeypatch.setattr(build, "__file__", str(tmp_path / "pipelines" / "build.py"))
    fingerprint = build.code_fingerprint.__wrapped__  # uncached
    base = fingerprint()
    assert base == build.code_fingerprint()
    seen = {base}
    for rel in build.CODE_FILES:
        orig = (tmp_path / rel).read_bytes()
        (tmp_path / rel).write_bytes(orig + b"\n")
        seen.add(fingerprint())
        (tmp_path / rel).write_bytes(orig)
    assert len(seen) == 1 + len(build.CODE_FILES)
    assert fingerprint() == base


# appended to a copy of functions/tokenize.py: every posting gets tf = 1
_TF1_PATCH = '''

_batch_postings_exact = batch_postings


def batch_postings(docids, texts):
    postings, dl = _batch_postings_exact(docids, texts)
    ones = pa.array(np.ones(postings.num_rows, dtype=np.uint32))
    return postings.set_column(postings.schema.get_field_index("tf"), "tf", ones), dl
'''

# resume-build the stale index, fresh-build another, print both top-5s
_RESUME_SCRIPT = '''
import json, sys
import ray
ray.init(address="local", num_cpus=2, include_dashboard=False)
from web_search_engine_ray.pipelines.build import build_index
from web_search_engine_ray.pipelines.query import Searcher
corpus, stale, fresh, cfg = sys.argv[1], sys.argv[2], sys.argv[3], json.loads(sys.argv[4])
build_index(corpus, stale, resume=True, **cfg)
build_index(corpus, fresh, **cfg)
tops = [Searcher(d).bm25_topk("the", topk=5, mode="OR") for d in (stale, fresh)]
print(json.dumps([[[int(d), float(s)] for d, s in t] for t in tops]))
ray.shutdown()
'''


def test_resume_rebuilds_after_code_change(ray_session, small_corpus_dir, tmp_path):
    """An index resumed by different engine code is rebuilt, not served
    stale: build X, change ``batch_postings`` to emit tf = 1 in a copy of
    the package, resume X under that copy. X must then answer like a fresh
    build with the changed code."""
    import shutil
    import subprocess
    import sys

    from web_search_engine_ray.pipelines import build

    x = str(tmp_path / "x")
    build_index(small_corpus_dir, x, partition_rows=700, **CFG)
    before = [[int(d), float(s)] for d, s in Searcher(x).bm25_topk("the", topk=5, mode="OR")]

    pkg = os.path.dirname(os.path.dirname(os.path.abspath(build.__file__)))
    root = tmp_path / "patched"
    shutil.copytree(pkg, root / "web_search_engine_ray", ignore=shutil.ignore_patterns("__pycache__"))
    with open(root / "web_search_engine_ray" / "functions" / "tokenize.py", "a") as f:
        f.write(_TF1_PATCH)
    env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}
    env["PYTHONPATH"] = str(root)
    cfg = dict(partition_rows=700, **CFG)
    out = subprocess.run(
        [sys.executable, "-c", _RESUME_SCRIPT, small_corpus_dir, x, str(tmp_path / "fresh"), json.dumps(cfg)],
        cwd=root, env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    resumed, fresh = json.loads(out.stdout.strip().splitlines()[-1])
    assert resumed == fresh
    assert resumed != before


# appended to a copy of pipelines/build.py: the merge writes its first
# shard, then the build dies
_MERGE_CRASH_PATCH = '''

_fan_out_all = fan_out


def fan_out(stage, fn, items, *args):
    if stage == "build.merge":
        _fan_out_all(stage, fn, items[:1], *args)
        raise SystemExit(3)
    return _fan_out_all(stage, fn, items, *args)
'''

_BUILD_SCRIPT = '''
import json, sys
import ray
ray.init(address="local", num_cpus=2, include_dashboard=False)
from web_search_engine_ray.pipelines.build import build_index
build_index(sys.argv[1], sys.argv[2], **json.loads(sys.argv[3]))
'''


def test_resume_after_another_build_crashed_mid_merge(ray_session, small_corpus_dir, tmp_path):
    """Build A completes in X. Build B (another block_size, same runs) dies
    in X after its merge wrote one shard. Resuming A must merge again rather
    than trust A's build.json over B's shard: X ends with A's bytes."""
    import shutil
    import subprocess
    import sys

    from web_search_engine_ray.pipelines import build

    x = str(tmp_path / "x")
    build_index(small_corpus_dir, x, partition_rows=700, **CFG)
    clean = _index_digest(x)

    pkg = os.path.dirname(os.path.dirname(os.path.abspath(build.__file__)))
    root = tmp_path / "patched"
    shutil.copytree(pkg, root / "web_search_engine_ray", ignore=shutil.ignore_patterns("__pycache__"))
    with open(root / "web_search_engine_ray" / "pipelines" / "build.py", "a") as f:
        f.write(_MERGE_CRASH_PATCH)
    env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}
    env["PYTHONPATH"] = str(root)
    cfg_b = dict(partition_rows=700, **{**CFG, "block_size": 2 * CFG["block_size"]})
    out = subprocess.run(
        [sys.executable, "-c", _BUILD_SCRIPT, small_corpus_dir, x, json.dumps(cfg_b)],
        cwd=root, env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 3, out.stderr[-2000:]
    assert _index_digest(x) != clean, "build B wrote no shard before it died"

    build_index(small_corpus_dir, x, partition_rows=700, **CFG)
    assert _index_digest(x) == clean
