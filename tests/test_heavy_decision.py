"""The heavy set is decided exactly from the runs' own counts, for the
corpus build and the legacy-run build: a term with df >= heavy_df_frac * N
gets its own salted shard wherever its postings sit, and a term that is
heavy in some runs but light in others decodes exactly."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from web_search_engine_ray.oracle import OracleIndex


def _write_corpus(d, files: list[list[str]]) -> list[tuple[int, str]]:
    """One parquet file per text list; returns the (docid, text) pairs."""
    os.makedirs(d, exist_ok=True)
    for i, texts in enumerate(files):
        pq.write_table(pa.table({"text": pa.array(texts, pa.string())}), os.path.join(d, f"part_{i:03d}.parquet"))
    return list(enumerate(t for texts in files for t in texts))


def _assert_decodes(out: str, oracle: OracleIndex) -> None:
    from web_search_engine_ray.pipelines.query import Searcher

    s = Searcher(out)
    for term in oracle.index:
        d, f = s.postings(term)
        want_d, want_f = oracle.postings(term)
        assert d.tolist() == want_d and f.tolist() == want_f, term
    s.close()


def _exact_heavy(oracle: OracleIndex, frac: float) -> list[str]:
    return sorted(t for t, p in oracle.index.items() if len(p) >= frac * oracle.N)


def test_heavy_term_outside_every_other_file_gets_its_own_shard(ray_session, tmp_path):
    """``zq`` fills every odd-numbered file and no even-numbered one: df is
    half of N, over the 0.3 threshold. (A sample of every second file,
    0, 2, ..., 14, never sees it.) It gets its own heavy shard."""
    from web_search_engine_ray.pipelines.build import build_index

    files = [
        [f"w{(25 * i + j) % 13} w{(i + j) % 29}" + (" zq" if i % 2 else "") for j in range(25)]
        for i in range(16)
    ]
    docs = _write_corpus(str(tmp_path / "corpus"), files)
    oracle = OracleIndex.build(docs)
    assert oracle.df("zq") == 200 == oracle.N // 2

    out = str(tmp_path / "idx")
    b = build_index(str(tmp_path / "corpus"), out, partition_rows=25, num_shards=4, n_salts=3, heavy_df_frac=0.3)
    assert b["heavy_terms"] == _exact_heavy(oracle, 0.3)
    sid = b["num_shards"] + b["heavy_terms"].index("zq")
    (shard,) = [m for m in b["shards"] if m["shard"] == sid]
    assert (shard["kind"], shard["term"], shard["n_postings"]) == ("heavy", "zq", 200)
    _assert_decodes(out, oracle)


def _mixed_files() -> list[list[str]]:
    """8 files x 40 rows. ``every`` is in every row. ``it`` is in 90% of the
    rows of files 0-3 and 20% of files 4-7 (55% of N). ``rejoin`` is in 60%
    of files 0-3 and 10% of files 4-7 (35% of N)."""
    files = []
    for i in range(8):
        rows = []
        for j in range(40):
            words = ["every", f"w{(40 * i + j) % 17}", f"w{(40 * i + j) % 23}"]
            if j % 10 < (9 if i < 4 else 2):
                words.append("it")
            if j % 10 < (6 if i < 4 else 1):
                words.append("rejoin")
            rows.append(" ".join(words))
        files.append(rows)
    return files


def test_term_heavy_in_some_runs_corpus_build(ray_session, tmp_path):
    """At heavy_df_frac 0.5 with one 40-row run per file, ``it`` is isolated
    in runs 0-3 only: its isolated df (144) is under 0.5 N (160), so the
    decision counts its hash rows in runs 4-7 and finds it heavy; the merge
    streams those rows into its shard. ``rejoin`` is isolated in runs 0-3
    but not heavy: those rows go back to its hash shard."""
    from web_search_engine_ray.pipelines.build import build_index

    docs = _write_corpus(str(tmp_path / "corpus"), _mixed_files())
    oracle = OracleIndex.build(docs)
    out = str(tmp_path / "idx")
    b = build_index(str(tmp_path / "corpus"), out, partition_rows=40, num_shards=4, n_salts=3, heavy_df_frac=0.5)
    assert b["heavy_terms"] == _exact_heavy(oracle, 0.5) == ["every", "it"]
    assert b["skew"]["heavy_hash_runs"] == {"every": 0, "it": 4}
    assert b["skew"]["heavy_candidates"] == 3  # every, it, rejoin
    _assert_decodes(out, oracle)


@pytest.mark.parametrize("fmt", ["tsv", "run1"])
def test_term_heavy_in_some_runs_legacy_build(ray_session, tmp_path, fmt):
    """The same corpus as four reference-format runs of 80 docids each:
    ``it`` is isolated in runs 0-1 and light in runs 2-3, and still decodes
    exactly from its heavy shard."""
    from web_search_engine_ray.pipelines.legacy import build_index_from_runs
    from web_search_engine_ray.sources.legacy_runs import write_run1, write_tsv_run

    docs = [(i, t) for i, t in enumerate(t for f in _mixed_files() for t in f)]
    oracle = OracleIndex.build(docs)
    runs = tmp_path / "runs"
    runs.mkdir()
    for r in range(4):
        rows = sorted(
            (term, d, tf) for term, p in oracle.index.items() for d, tf in p.items() if 80 * r <= d < 80 * (r + 1)
        )
        t = pa.table(
            {
                "term": pa.array([x[0] for x in rows], pa.string()),
                "docid": pa.array([x[1] for x in rows], pa.uint64()),
                "tf": pa.array([x[2] for x in rows], pa.uint32()),
            }
        )
        (write_tsv_run if fmt == "tsv" else write_run1)(t, str(runs / f"run_{r}.{fmt}"))
    out = str(tmp_path / "idx")
    b = build_index_from_runs(str(runs), out, n_docs=oracle.N, num_shards=4, n_salts=3, heavy_df_frac=0.5)
    assert b["heavy_terms"] == _exact_heavy(oracle, 0.5) == ["every", "it"]
    assert b["skew"]["heavy_hash_runs"] == {"every": 0, "it": 2}
    _assert_decodes(out, oracle)
