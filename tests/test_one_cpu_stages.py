"""Per-block stages run as plain Ray tasks, so a 1-CPU node runs them to the
same rows as a 4-CPU one: media features, BPE encode, language ID, its
confusion matrix and the flagship ``entry()`` (index build + batch BM25
queries)."""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pyarrow as pa

from tests.test_legacy_runs import SF  # the sf0.001 test tables

STAGES = ("media_features", "bpe_encode_stats", "langid", "langid_confusion")

_ONE_CPU_SCRIPT = """
import json, os, sys
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False)
sys.path.insert(0, os.getcwd())
from tests.test_one_cpu_stages import _stage_rows
print(json.dumps(_stage_rows(sys.argv[1])))
ray.shutdown()
"""


def _sorted_rows(out) -> list:
    """Schema, then the sorted rows, of a Dataset or an Arrow table."""
    import ray

    from web_search_engine_ray.stages.exchange import arrow_refs

    t = out if isinstance(out, pa.Table) else pa.concat_tables(ray.get(arrow_refs(out)))
    return [str(t.schema)] + sorted(
        map(list, zip(*(t[c].to_pylist() for c in t.column_names)))
    )


def _stage_rows(sf: str) -> dict:
    """Sorted rows of each gate entry in ``STAGES`` at ``sf``, and of
    ``entry()``."""
    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    rows = {n: _sorted_rows(qs[n](sf)) for n in STAGES}
    rows["entry()"] = _sorted_rows(entrymod.entry())
    return rows


def test_stages_one_cpu_match_four(ray_session):
    """On a 1-CPU Ray node every stage finishes inside a hard timeout, logs
    no "different schema" warning, and gives the 4-CPU session's rows and
    schemas."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}
    # own Ray root: the child must not flip the live session's
    # session_latest link
    env["RAY_TMPDIR"] = tempfile.mkdtemp(prefix="ray_sub_")
    try:
        proc = subprocess.run(
            [sys.executable, "-c", _ONE_CPU_SCRIPT, SF],
            cwd=root, env=env, capture_output=True, text=True, timeout=300,
        )
    finally:
        shutil.rmtree(env["RAY_TMPDIR"], ignore_errors=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "different schema" not in proc.stderr
    one_cpu = json.loads(proc.stdout.strip().splitlines()[-1])
    here = json.loads(json.dumps(_stage_rows(SF)))
    assert one_cpu == here
    assert all(len(rows) > 1 for rows in here.values())
