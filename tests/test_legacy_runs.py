"""S4/S5 interop: reference-format run files (legacy TSV + binary RUN1,
auto-detected) build the same index the native corpus path builds."""

import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


def _corpus_postings():
    """Reference-semantics postings straight from the oracle tokenizer:
    term -> {docid: tf} over the sf0.001 documents."""
    from web_search_engine_ray.oracle import OracleIndex

    rows = pq.read_table(
        os.path.join(SF, "documents.parquet"), columns=["doc_id", "text"]
    )
    docs = list(
        zip(rows["doc_id"].to_pylist(), rows["text"].to_pylist())
    )
    return OracleIndex.build(docs), docs


def _postings_table(oracle, docid_pred) -> pa.Table:
    terms, docids, tfs = [], [], []
    for term in sorted(oracle.index):
        for docid, tf in sorted(oracle.index[term].items()):
            if docid_pred(docid):
                terms.append(term)
                docids.append(docid)
                tfs.append(tf)
    return pa.table(
        {
            "term": pa.array(terms, pa.string()),
            "docid": pa.array(docids, pa.uint64()),
            "tf": pa.array(tfs, pa.uint32()),
        }
    )


@pytest.fixture(scope="module")
def legacy_run_dir(tmp_path_factory):
    """The corpus split into 4 runs by docid range: 2 TSV + 2 RUN1."""
    from web_search_engine_ray.sources.legacy_runs import (
        write_run1,
        write_tsv_run,
    )

    oracle, docs = _corpus_postings()
    d = tmp_path_factory.mktemp("legacy_runs")
    n = oracle.N
    cuts = [0, n // 4, n // 2, 3 * n // 4, n]
    for i in range(4):
        lo, hi = cuts[i], cuts[i + 1]
        t = _postings_table(oracle, lambda x: lo <= x < hi)
        if i % 2 == 0:
            write_tsv_run(t, str(d / f"run_{i}.tsv"))
        else:
            write_run1(t, str(d / f"run_{i}.run"))
    return str(d), n


def test_roundtrip_readers(legacy_run_dir):
    from web_search_engine_ray.sources.legacy_runs import (
        detect_run_format,
        read_legacy_run,
    )

    d, _ = legacy_run_dir
    files = sorted(glob.glob(d + "/*"))
    assert len(files) == 4
    oracle, _ = _corpus_postings()
    whole = _postings_table(oracle, lambda x: True)
    parts = []
    for f in files:
        fmt = detect_run_format(f)
        assert fmt == ("run1" if f.endswith(".run") else "tsv")
        parts.append(read_legacy_run(f))
    got = (
        pa.concat_tables(parts)
        .sort_by([("term", "ascending"), ("docid", "ascending")])
        .to_pandas()
    )
    want = whole.to_pandas()
    assert got["term"].tolist() == want["term"].tolist()
    assert got["docid"].tolist() == want["docid"].tolist()
    assert got["tf"].tolist() == want["tf"].tolist()


def test_build_from_legacy_runs_matches_native(
    ray_session, legacy_run_dir, tmp_path
):
    """Index built from legacy runs == index built from the corpus:
    byte-identical shard files (same layout knobs, heavy salting off so the
    heavy-detection heuristics can't diverge) and identical BM25 answers."""
    from web_search_engine_ray.pipelines.build import build_index
    from web_search_engine_ray.pipelines.legacy import build_index_from_runs
    from web_search_engine_ray.pipelines.query import Searcher

    d, n_docs = legacy_run_dir
    nat = str(tmp_path / "native")
    leg = str(tmp_path / "legacy")
    build_index(
        os.path.join(SF, "documents.parquet"),
        nat,
        partition_rows=200,
        num_shards=4,
        heavy_df_frac=0,
    )
    b = build_index_from_runs(
        d, leg, n_docs=n_docs, num_shards=4, heavy_df_frac=0
    )
    assert b["n_docs"] == n_docs

    for kind in ("postings", "lexicon"):
        for f in sorted(glob.glob(os.path.join(nat, "index", f"*.{kind}"))):
            g = os.path.join(leg, "index", os.path.basename(f))
            with open(f, "rb") as a_, open(g, "rb") as b_:
                assert a_.read() == b_.read(), f

    sn, sl = Searcher(nat), Searcher(leg)
    assert sn.N == sl.N and sn.avgdl == sl.avgdl
    qset = ["the data", "w0001 w0002", "spark join", "nosuchterm data"]
    for q in qset:
        assert sn.bm25_topk(q, 10, "OR") == sl.bm25_topk(q, 10, "OR"), q
        assert sn.bm25_topk(q, 10, "AND") == sl.bm25_topk(q, 10, "AND"), q


def test_build_from_runs_with_heavy_salting(ray_session, legacy_run_dir, tmp_path):
    """With heavy detection on, salted heavy terms still decode to the
    oracle's exact posting lists."""
    from web_search_engine_ray.pipelines.legacy import build_index_from_runs
    from web_search_engine_ray.pipelines.query import Searcher

    d, n_docs = legacy_run_dir
    out = str(tmp_path / "legacy_heavy")
    b = build_index_from_runs(
        d, out, n_docs=n_docs, num_shards=4, n_salts=4, heavy_df_frac=0.05
    )
    assert b["heavy_terms"], "fixture corpus should trip the heavy threshold"
    oracle, _ = _corpus_postings()
    s = Searcher(out)
    for t in b["heavy_terms"] + ["w0001", "data"]:
        if t not in oracle.index:
            continue
        dd, ff = s.postings(t)
        wd, wf = oracle.postings(t)
        assert dd.tolist() == wd and ff.tolist() == wf, t


def _shard_bytes(out: str) -> dict:
    return {
        os.path.basename(p): open(p, "rb").read()
        for p in sorted(glob.glob(os.path.join(out, "index", "shard_*")))
    }


def test_build_from_runs_resume(ray_session, legacy_run_dir, tmp_path):
    """Conversion is resumable per source file: a second build skips all
    conversions (manifest fingerprint), rewrites the already laid-out runs
    in place and leaves byte-identical shards. A conversion manifest
    without ``min_docid`` (older layout) is stale and reconverted."""
    import json

    from web_search_engine_ray.pipelines.legacy import build_index_from_runs

    d, n_docs = legacy_run_dir
    out = str(tmp_path / "legacy_resume")
    b1 = build_index_from_runs(d, out, n_docs=n_docs, num_shards=4)
    first = _shard_bytes(out)
    assert b1["heavy_terms"] and first
    b2 = build_index_from_runs(d, out, n_docs=n_docs, num_shards=4)
    assert b1["build_fp"] == b2["build_fp"]
    assert b1["n_postings"] == b2["n_postings"]
    assert _shard_bytes(out) == first

    mans = sorted(glob.glob(os.path.join(out, "manifests", "legacy_*.json")))
    assert len(mans) == 4
    for p in mans:
        m = json.load(open(p))
        del m["min_docid"]
        json.dump(m, open(p, "w"))
    b3 = build_index_from_runs(d, out, n_docs=n_docs, num_shards=4)
    assert all("min_docid" in json.load(open(p)) for p in mans)
    assert b3["build_fp"] == b1["build_fp"]
    assert _shard_bytes(out) == first


def _write_tsv(path: str, rows) -> None:
    from web_search_engine_ray.sources.legacy_runs import write_tsv_run

    rows = sorted(rows)
    write_tsv_run(
        pa.table(
            {
                "term": pa.array([r[0] for r in rows], pa.string()),
                "docid": pa.array([r[1] for r in rows], pa.uint64()),
                "tf": pa.array([r[2] for r in rows], pa.uint32()),
            }
        ),
        path,
    )


def _assert_decodes(out: str, want: dict) -> None:
    """Every term's decoded postings and df equal the tf-summed oracle."""
    from web_search_engine_ray.pipelines.query import Searcher

    s = Searcher(out)
    for term, lst in want.items():
        dd, ff = s.postings(term)
        assert dd.tolist() == sorted(lst), term
        assert ff.tolist() == [lst[k] for k in sorted(lst)], term
        assert s.df(term) == len(lst), term


def test_build_from_overlapping_runs_sums_shared_pairs(ray_session, tmp_path):
    """Two runs overlapping on docids 5-9 share (term, docid) pairs on a
    heavy-candidate term ("the") and a normal one ("rare"): the index must
    hold each pair once with the tf summed (reference A2 merge rule)."""
    from web_search_engine_ray.pipelines.legacy import build_index_from_runs

    runs = tmp_path / "runs"
    a = [("the", i, 1) for i in range(0, 10)] + [("rare", 7, 1)]
    b = [("the", i, 1) for i in range(5, 20)] + [("rare", 7, 1), ("rare", 12, 3)]
    _write_tsv(str(runs / "run_a.tsv"), a)
    _write_tsv(str(runs / "run_b.tsv"), b)
    want: dict[str, dict[int, int]] = {}
    for term, docid, tf in a + b:
        want.setdefault(term, {})
        want[term][docid] = want[term].get(docid, 0) + tf
    assert want["the"][7] == 2 and len(want["the"]) == 20

    out = str(tmp_path / "idx")
    b_ = build_index_from_runs(
        str(runs), out, num_shards=2, n_salts=4, heavy_df_frac=0.3
    )
    _assert_decodes(out, want)
    assert b_["n_postings"] == sum(len(v) for v in want.values())
    # "the" crosses the threshold, but overlapping runs are never salted
    assert b_["heavy_terms"] == []


def test_build_from_runs_sums_repeated_pairs_within_a_run(ray_session, tmp_path):
    """A run repeating a (term, docid) line is tf-summed at conversion, so a
    salted heavy term still decodes each docid once."""
    from web_search_engine_ray.pipelines.legacy import build_index_from_runs

    runs = tmp_path / "runs"
    a = [("the", i, 1) for i in range(0, 10)] + [("the", 3, 2)]
    b = [("the", i, 1) for i in range(10, 20)] + [("rare", 12, 1)]
    _write_tsv(str(runs / "run_a.tsv"), a)
    _write_tsv(str(runs / "run_b.tsv"), b)
    out = str(tmp_path / "idx")
    b_ = build_index_from_runs(
        str(runs), out, num_shards=2, n_salts=4, heavy_df_frac=0.3
    )
    assert b_["heavy_terms"] == ["the"]
    want = {"the": {i: 1 for i in range(20)}, "rare": {12: 1}}
    want["the"][3] = 3
    _assert_decodes(out, want)


def test_build_paths_use_no_ray_data_shuffle(
    ray_session, small_corpus_dir, legacy_run_dir, tmp_path, monkeypatch
):
    """Neither index build may use a Ray Data sort/hash shuffle (that
    family deadlocked at default settings): both succeed with
    ``Dataset.groupby`` / ``.sort`` / ``.repartition`` raising. Their
    fan-outs are plain Ray tasks: ``ray.data.from_items`` raises for both,
    and ``Dataset.map_batches`` for the corpus build (the legacy build
    still reads doc lengths through ``ray.data.read_parquet``)."""
    import ray.data

    from web_search_engine_ray.pipelines.build import build_index
    from web_search_engine_ray.pipelines.legacy import build_index_from_runs

    def _refuse(name):
        def _raise(*a, **k):
            raise AssertionError(f"Ray Data {name} in a build")

        return _raise

    for name in ("groupby", "sort", "repartition"):
        monkeypatch.setattr(ray.data.Dataset, name, _refuse(name))
    monkeypatch.setattr(ray.data, "from_items", _refuse("from_items"))

    with monkeypatch.context() as m:
        m.setattr(ray.data.Dataset, "map_batches", _refuse("map_batches"))
        b = build_index(
            small_corpus_dir,
            str(tmp_path / "native"),
            num_shards=4,
            n_salts=3,
            heavy_df_frac=0.05,
            partition_rows=400,
        )
    assert b["heavy_terms"]
    d, n_docs = legacy_run_dir
    b = build_index_from_runs(
        d,
        str(tmp_path / "legacy"),
        n_docs=n_docs,
        num_shards=4,
        n_salts=4,
        heavy_df_frac=0.05,
    )
    assert b["heavy_terms"]


def _refuse_ray_data_shuffles(monkeypatch):
    """Make ``Dataset.groupby`` / ``.sort`` / ``.repartition`` /
    ``.random_shuffle`` raise for the rest of the test."""
    import ray.data

    def _refuse(name):
        def _raise(*a, **k):
            raise AssertionError(f"Ray Data {name} in an exchange pipeline")

        return _raise

    for name in ("groupby", "sort", "repartition", "random_shuffle"):
        monkeypatch.setattr(ray.data.Dataset, name, _refuse(name))


def test_near_dup_paths_use_no_ray_data_shuffle(ray_session, monkeypatch):
    """The near-dup family runs on ``exchange_map`` alone: every pipeline
    succeeds with Ray Data's shuffles raising."""
    from web_search_engine_ray.pipelines import dedup, transcripts_ops

    _refuse_ray_data_shuffles(monkeypatch)
    runs = {
        "ngram_jaccard_dups": lambda: dedup.ngram_jaccard_dups(SF),
        "containment_dups": lambda: dedup.containment_dups(SF),
        "simhash_dups": lambda: dedup.simhash_dups(SF),
        "embedding_dups_lsh": lambda: dedup.embedding_dups_lsh(SF),
        "conversation_jaccard_dups_ds": lambda: (
            transcripts_ops.conversation_jaccard_dups_ds(
                transcripts_ops.neardup_fixture_corpus()
            )
        ),
    }
    for name, run in runs.items():
        assert run().count() > 0, name


def test_conversation_aggregates_and_components_use_no_ray_data_shuffle(
    ray_session, monkeypatch
):
    """The conversation aggregates and connected components run on
    ``exchange_map`` alone: each succeeds with Ray Data's shuffles
    raising."""
    import ray.data

    from web_search_engine_ray.pipelines import graph, transcripts_ops as tops

    corpus = tops.fixture_corpus()
    pairs = ray.data.from_arrow(pa.table({"docid_a": [1, 2, 7], "docid_b": [2, 3, 8]}))
    _refuse_ray_data_shuffles(monkeypatch)
    runs = {
        "conversation_rollup_ds": lambda: tops.conversation_rollup_ds(corpus),
        "role_stats_ds": lambda: tops.role_stats_ds(corpus),
        "tool_usage_ds": lambda: tops.tool_usage_ds(corpus),
        "conversation_text_ds": lambda: tops.conversation_text_ds(corpus),
        "connected_components": lambda: graph.connected_components(pairs),
    }
    for name, run in runs.items():
        assert run().count() > 0, name


def test_events_relational_analysis_corpus_use_no_ray_data_shuffle(ray_session, monkeypatch):
    """The events, relational, analysis and corpus operators run on
    ``exchange_map`` alone: each succeeds with Ray Data's shuffles raising
    (top-k cuts run per partition, then on the driver)."""
    from web_search_engine_ray.pipelines import analysis, corpus, events, relational

    _refuse_ray_data_shuffles(monkeypatch)
    runs = {
        "window_agg_ds": lambda: events.window_agg_ds(SF),
        "sessionize_ds": lambda: events.sessionize_ds(SF),
        "asof_join_ds": lambda: events.asof_join_ds(SF),
        "daily_active_users_ds": lambda: events.daily_active_users_ds(SF),
        "retention_cohorts_ds": lambda: events.retention_cohorts_ds(SF),
        "session_funnel_ds": lambda: events.session_funnel_ds(SF),
        "pricing_summary_ds": lambda: relational.pricing_summary_ds(SF),
        "shipping_priority_ds": lambda: relational.shipping_priority_ds(SF),
        "local_supplier_volume_ds": lambda: relational.local_supplier_volume_ds(SF),
        "label_doc_stats_ds": lambda: relational.label_doc_stats_ds(SF),
        "collocations_ds": lambda: analysis.collocations_ds(SF, min_count=2),
        "distinctive_terms_ds": lambda: analysis.distinctive_terms_ds(SF),
        "term_burstiness_ds": lambda: analysis.term_burstiness_ds(SF, min_df=2),
        "term_stats_ds": lambda: corpus.term_stats_ds(SF),
        "top_terms_ds": lambda: corpus.top_terms_ds(SF),
        "top_terms_per_source_ds": lambda: corpus.top_terms_per_source_ds(SF),
    }
    for name, run in runs.items():
        assert run().count() > 0, name


def _near_dup_chain_runs(nd_corpus: str) -> dict:
    from web_search_engine_ray.pipelines import dedup, transcripts_ops

    return {
        "conversation_jaccard_dups_ds": lambda: (
            transcripts_ops.conversation_jaccard_dups_ds(nd_corpus)
        ),
        "ngram_jaccard_dups": lambda: dedup.ngram_jaccard_dups(SF),
        "containment_dups": lambda: dedup.containment_dups(SF),
    }


def test_near_dup_chain_runs_on_block_refs(ray_session, monkeypatch):
    """After its source read, the near-dup chain runs on block refs alone:
    ``Dataset.map_batches``, ``.union`` and ``.materialize`` raise once the
    read is materialized, and ``ray.data.from_arrow_refs`` is called
    exactly once per pipeline, on its final partitions."""
    import ray
    import ray.data

    from web_search_engine_ray.pipelines import transcripts_ops

    runs = _near_dup_chain_runs(transcripts_ops.neardup_fixture_corpus())
    read_done: list = []
    made: list = []
    real_materialize = ray.data.Dataset.materialize
    real_from_refs = ray.data.from_arrow_refs

    def materialize(self, *a, **k):
        if read_done:
            raise AssertionError("Ray Data materialize after the source read")
        out = real_materialize(self, *a, **k)
        read_done.append(True)
        return out

    def refuse_after_read(name):
        real = getattr(ray.data.Dataset, name)

        def f(self, *a, **k):
            if read_done:
                raise AssertionError(f"Ray Data {name} after the source read")
            return real(self, *a, **k)

        return f

    def from_arrow_refs(refs):
        made.append(len(refs))
        return real_from_refs(refs)

    monkeypatch.setattr(ray.data.Dataset, "materialize", materialize)
    for name in ("map_batches", "union"):
        monkeypatch.setattr(ray.data.Dataset, name, refuse_after_read(name))
    monkeypatch.setattr(ray.data, "from_arrow_refs", from_arrow_refs)
    for name, run in runs.items():
        read_done.clear()
        made.clear()
        ds = run()
        assert sum(t.num_rows for t in ray.get(ds.to_arrow_refs())) > 0, name
        assert len(made) == 1, (name, made)


_ONE_CPU_SCRIPT = """
import json, os, sys
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False)
sys.path.insert(0, os.getcwd())
from tests.test_legacy_runs import _near_dup_chain_runs, _sorted_rows
from web_search_engine_ray.stages.exchange import chain_parts
out = {n: _sorted_rows(run()) for n, run in _near_dup_chain_runs(sys.argv[1]).items()}
print(json.dumps({"rows": out, "parts": chain_parts([ray.put(0)])}))
ray.shutdown()
"""


def _sorted_rows(ds) -> list:
    import ray

    t = pa.concat_tables(ray.get(ds.to_arrow_refs()))
    return [str(t.schema)] + sorted(
        map(list, zip(*(t[c].to_pylist() for c in t.column_names)))
    )


def test_near_dup_chain_one_cpu_no_hang(ray_session):
    """On a 1-CPU Ray node the whole ref chain (every task waits for a free
    CPU, none holds one while waiting for its inputs) finishes well inside
    a hard timeout, with the 4-CPU session's rows and schemas; a small
    chain is sized to 2 partitions there."""
    import json
    import shutil
    import subprocess
    import sys
    import tempfile

    from web_search_engine_ray.pipelines import transcripts_ops

    nd = transcripts_ops.neardup_fixture_corpus()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}
    # own Ray root, as in test_parallelism_invariance: the child must not
    # flip the live session's session_latest link
    env["RAY_TMPDIR"] = tempfile.mkdtemp(prefix="ray_sub_")
    try:
        proc = subprocess.run(
            [sys.executable, "-c", _ONE_CPU_SCRIPT, nd],
            cwd=root, env=env, capture_output=True, text=True, timeout=240,
        )
    finally:
        shutil.rmtree(env["RAY_TMPDIR"], ignore_errors=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    one_cpu = json.loads(proc.stdout.strip().splitlines()[-1])
    here = {
        n: json.loads(json.dumps(_sorted_rows(run())))
        for n, run in _near_dup_chain_runs(nd).items()
    }
    assert one_cpu["rows"] == here
    assert one_cpu["parts"] == 2
    assert all(len(rows) > 1 for rows in here.values())


def test_near_dup_chain_partition_count_invariant(ray_session, monkeypatch):
    """Every exchange of a near-dup chain runs at the one count its wrapper
    derived from the input (``chain_parts``: 2 x CPUs for these small
    inputs), and forcing that count to 32 gives the same sorted rows."""
    import ray

    from web_search_engine_ray.pipelines import dedup, transcripts_ops
    from web_search_engine_ray.stages import exchange

    runs = _near_dup_chain_runs(transcripts_ops.neardup_fixture_corpus())
    seen: list = []
    real_exchange_map = exchange.exchange_map

    def exchange_map(ds, part, n_parts, fn, *a, **k):
        seen.append(n_parts)
        return real_exchange_map(ds, part, n_parts, fn, *a, **k)

    monkeypatch.setattr(exchange, "exchange_map", exchange_map)
    derived = {}
    for name, run in runs.items():
        seen.clear()
        derived[name] = _sorted_rows(run())
        assert set(seen) == {2 * int(ray.cluster_resources()["CPU"])}, (name, seen)
        assert len(derived[name]) > 1, name
    for mod in (exchange, dedup):
        monkeypatch.setattr(mod, "chain_parts", lambda refs: 32)
    for name, run in runs.items():
        seen.clear()
        assert _sorted_rows(run()) == derived[name], name
        assert set(seen) == {32}, (name, seen)


def test_dl_from_runs_matches_token_counts(ray_session, legacy_run_dir, tmp_path):
    """dl(doc) from runs == the doc's token count (A5 rule), empty docs
    dl=0 but counted in N."""
    from web_search_engine_ray.pipelines.legacy import build_index_from_runs
    from web_search_engine_ray.state.docstats import DocLengths

    d, n_docs = legacy_run_dir
    out = str(tmp_path / "legacy_dl")
    build_index_from_runs(
        d, out, n_docs=n_docs, num_shards=4, doclen_range_rows=128
    )
    oracle, docs = _corpus_postings()
    dls = DocLengths(os.path.join(out, "doclens"))
    assert dls.N == n_docs
    got = dls.get_many(np.arange(n_docs, dtype=np.uint64))
    for docid in range(n_docs):
        want = sum(
            pl.get(docid, 0) for pl in oracle.index.values()
        )
        assert got[docid] == want, docid


def test_build_from_runs_refuses_stale_conversions(
    ray_session, legacy_run_dir, tmp_path
):
    """An out_dir holding conversions beyond the current source set must
    refuse — stale runs would silently fold foreign postings in."""
    import pytest as _pytest

    from web_search_engine_ray.pipelines.legacy import build_index_from_runs

    d, n_docs = legacy_run_dir
    out = str(tmp_path / "stale")
    files = sorted(glob.glob(d + "/*"))
    build_index_from_runs(files, out, n_docs=n_docs, num_shards=4)
    with _pytest.raises(ValueError, match="not in this source set"):
        build_index_from_runs(files[:2], out, n_docs=n_docs, num_shards=4)
