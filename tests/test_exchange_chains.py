"""Exchange chains over block refs: one partition count per chain, and no
Ray Data "different schema" record when a corpus holds a zero-row file."""

import logging
import os

import pyarrow as pa
import pyarrow.parquet as pq

from tests.test_legacy_runs import SF


def _record_exchange_counts(monkeypatch) -> list:
    """Patch ``exchange_map`` wherever the chains below look it up; every
    call appends the number of partitions it produced."""
    from web_search_engine_ray.pipelines import analysis, dedup, events, relational
    from web_search_engine_ray.stages import exchange

    seen: list = []
    real = exchange.exchange_map

    def exchange_map(*a, **k):
        out = real(*a, **k)
        seen.append(len(out) if isinstance(out, list) else len(exchange.arrow_refs(out)))
        return out

    for mod in (exchange, dedup, analysis, events, relational):
        monkeypatch.setattr(mod, "exchange_map", exchange_map, raising=False)
    return seen


def test_one_partition_count_per_chain(ray_session, monkeypatch):
    """Every exchange of a multi-exchange chain runs at the one count the
    chain was sized to from its head read; a count derived per exchange
    from the previous exchange's output grew along the chain."""
    from web_search_engine_ray.pipelines import analysis, dedup, events, relational

    seen = _record_exchange_counts(monkeypatch)
    chains = {
        "dup_spans_ds": lambda: dedup.dup_spans_ds(SF),
        "dup_span_clean_ds": lambda: dedup.dup_span_clean_ds(SF),
        "collocations_ds": lambda: analysis.collocations_ds(SF, min_count=2),
        "retention_cohorts_ds": lambda: events.retention_cohorts_ds(SF),
        "local_supplier_volume_ds": lambda: relational.local_supplier_volume_ds(SF),
    }
    for name, run in chains.items():
        seen.clear()
        run().count()
        assert len(seen) >= 2, (name, seen)
        assert len(set(seen)) == 1, (name, seen)


class _SchemaRecords(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.msgs: list[str] = []

    def emit(self, record):
        msg = record.getMessage()
        if "different schema" in msg:
            self.msgs.append(msg)


def _with_zero_row_file(src_files: list[str], out_dir) -> str:
    """A corpus dir of ``src_files`` split into halves around one zero-row
    file of the same schema."""
    t = pa.concat_tables([pq.read_table(f) for f in src_files])
    half = t.num_rows // 2
    os.makedirs(out_dir, exist_ok=True)
    pq.write_table(t.slice(0, half), os.path.join(out_dir, "part_0.parquet"))
    pq.write_table(t.schema.empty_table(), os.path.join(out_dir, "part_1.parquet"))
    pq.write_table(t.slice(half), os.path.join(out_dir, "part_2.parquet"))
    return str(out_dir)


def test_zero_row_file_logs_no_schema_warning(ray_session, tmp_path):
    """A zero-row file reads as an empty block with no columns, and a Ray
    Data map skips its UDF on an empty block; either way a block of another
    schema reaches the next operator, which logs "different schema". The
    chains that logged it (bpe prune, fuzzy scan, spell partials, top
    terms, and the conversation structure, dedup and SFT chains) log
    nothing over a corpus holding a zero-row file."""
    from web_search_engine_ray.pipelines import bpe, corpus, spell
    from web_search_engine_ray.pipelines import transcripts_ops as tops
    from web_search_engine_ray.sources.transcripts import corpus_files

    docs = _with_zero_row_file([os.path.join(SF, "documents.parquet")], tmp_path / "docs")
    convs = _with_zero_row_file(corpus_files(tops.fixture_corpus()), tmp_path / "convs")
    runs = {
        "bpe word_frequencies": lambda: bpe.word_frequencies(docs, max_words=50),
        "fuzzy_candidate_terms_ds": lambda: spell.fuzzy_candidate_terms_ds(docs, ["dta"]).count(),
        "spell_suggest_ds": lambda: spell.spell_suggest_ds(docs),
        "top_terms_ds": lambda: corpus.top_terms_ds(docs).count(),
        "conversation_structure_stats_ds": lambda: tops.conversation_structure_stats_ds(convs).count(),
        "conversation_dedup_ds": lambda: tops.conversation_dedup_ds(convs).count(),
        "sft_examples_ds": lambda: tops.sft_examples_ds(convs).count(),
    }
    records = _SchemaRecords()
    logger = logging.getLogger("ray.data")
    logger.addHandler(records)
    try:
        for name, run in runs.items():
            run()
            assert not records.msgs, (name, records.msgs)
    finally:
        logger.removeHandler(records)
