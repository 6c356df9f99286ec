"""Source-mix sampling contracts: budget accuracy, prefix stability under
budget growth, zero-budget, and negative-budget validation. The value-level
oracle check runs in the driver gate (source_mix)."""

import pytest

from web_search_engine_ray.pipelines.mix import source_mix_ds

SF = "/root/testdata/sf0.001"


def test_budget_respected_per_source(ray_session):
    got = source_mix_ds(SF, budget_chars=3000).to_pandas()
    assert (got["cum_chars"] <= 3000).all()
    assert got.groupby("source")["cum_chars"].max().le(3000).all()
    assert len(got) > 0


def test_growing_budget_is_prefix_stable(ray_session):
    """A bigger budget must select a SUPERSET of docs (deterministic
    priority order — the resume/stability property the docstring claims)."""
    small = set(source_mix_ds(SF, budget_chars=2000).to_pandas()["docid"])
    big = set(source_mix_ds(SF, budget_chars=6000).to_pandas()["docid"])
    assert small <= big
    assert len(big) > len(small)


def test_zero_budget_empty_and_negative_raises(ray_session):
    assert source_mix_ds(SF, budget_chars=0).count() == 0
    with pytest.raises(ValueError, match="budget_chars"):
        source_mix_ds(SF, budget_chars=-1)


def test_source_report_consistent_with_quality(ray_session):
    """Rollup must agree with the per-doc quality gate it claims to import."""
    import os

    import pyarrow.parquet as pq

    from web_search_engine_ray.pipelines.analysis import quality_ds
    from web_search_engine_ray.pipelines.report import source_report_ds

    rep = source_report_ds(SF).to_pandas().set_index("source").sort_index()
    q = quality_ds(SF).to_pandas().set_index("docid")
    src = (
        pq.read_table(
            os.path.join(SF, "documents.parquet"), columns=["doc_id", "source"]
        )
        .to_pandas()
        .set_index("doc_id")["source"]
    )
    per_src_ok = q.join(src).groupby("source")["quality_ok"].sum().sort_index()
    assert (rep["n_quality_ok"] == per_src_ok).all()
    assert rep["n_docs"].sum() == len(q)
    assert (rep["mean_tokens"] > 0).all()


def test_mix_and_report_blocks_carry_one_schema(ray_session):
    """Every partition of source_mix_ds and source_report_ds, empty or not,
    carries the declared schema (polars output is cast from large_string)."""
    import pyarrow as pa
    import ray

    from web_search_engine_ray.pipelines.report import source_report_ds
    from web_search_engine_ray.stages.exchange import arrow_refs

    for ds in (source_mix_ds(SF, budget_chars=3000), source_report_ds(SF)):
        blocks = ray.get(arrow_refs(ds))
        assert len({b.schema for b in blocks}) == 1, {str(b.schema) for b in blocks}
        assert blocks[0].schema.field("source").type == pa.string()
