import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (driver contract)."""
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
        )
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def oracle_eq():
    """Shared oracle-frame comparison: sort columns by name, rows by value,
    compare ignoring dtype — ONE canonicalization recipe for every
    entry-vs-DuckDB test (a second inline copy could drift)."""
    import pandas as pd

    def _eq(got, want):
        got = got.to_pandas() if not isinstance(got, pd.DataFrame) else got
        want = want.df() if callable(getattr(want, "df", None)) else want

        def canon(df: pd.DataFrame) -> pd.DataFrame:
            df = df[sorted(df.columns)].copy()
            return df.sort_values(list(df.columns)).reset_index(drop=True)

        pd.testing.assert_frame_equal(canon(got), canon(want), check_dtype=False)

    return _eq


@pytest.fixture(scope="session")
def tiny_corpus_dir(tmp_path_factory):
    """Deterministic tiny transcript corpus parquet (FIXTURES.md §1, scale=tiny)."""
    from web_search_engine_ray.fixtures.transcripts import write_corpus

    d = tmp_path_factory.mktemp("tiny_corpus")
    write_corpus(str(d), n_convs=20, max_turns=8, rows_per_file=40)
    return str(d)


@pytest.fixture(scope="session")
def small_corpus_dir(tmp_path_factory):
    """Small corpus for oracle conformance (~1k convs)."""
    from web_search_engine_ray.fixtures.transcripts import write_corpus

    d = tmp_path_factory.mktemp("small_corpus")
    write_corpus(str(d), n_convs=300, max_turns=6, rows_per_file=500)
    return str(d)


@pytest.fixture(scope="session")
def multi_rowgroup_corpus_dir(small_corpus_dir, tmp_path_factory):
    """``small_corpus_dir``'s files rewritten in 100-row row groups. The
    build never splits a row group, so on one-row-group files every
    ``partition_rows`` gives one partition per file; here partition sizes
    below a file's rows give different plans."""
    import glob

    import pyarrow.parquet as pq

    d = tmp_path_factory.mktemp("multi_rowgroup_corpus")
    for p in sorted(glob.glob(os.path.join(small_corpus_dir, "*.parquet"))):
        pq.write_table(pq.read_table(p), str(d / os.path.basename(p)), row_group_size=100)
    return str(d)
