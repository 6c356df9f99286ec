"""Shared reader for the ``documents`` table (the dedup / analysis /
curation / sketch operators' corpus): column-pruned parquet read, one
definition so every operator reads identically.

``read_docs`` also accepts a STAGE directory (curated / composed-job
output: part files with (docid|doc_id, text)) or an explicit parquet
path/list, so the same operators compose over intermediate corpora —
the llm_corpus_job chains quality gate -> near-dup -> redact ->
decontaminate over staged directories through this one entry point.
"""

from __future__ import annotations

import glob
import os


def docs_path(sf_dir: str) -> str:
    return os.path.join(sf_dir, "documents.parquet")


def docs_files(corpus) -> list[str]:
    """Resolve a corpus argument to its parquet file list: an sf dir
    (``documents.parquet``), a directory of stage part files, a single
    parquet path, or an explicit list."""
    if isinstance(corpus, (list, tuple)):
        files = [str(f) for f in corpus]
    elif os.path.isdir(corpus):
        dp = docs_path(corpus)
        if os.path.exists(dp):
            files = [dp]
        else:
            files = sorted(glob.glob(os.path.join(corpus, "*.parquet")))
    else:
        files = [str(corpus)]
    if not files:
        raise ValueError(f"no parquet files under {corpus!r}")
    return files


def _id_column(files: list[str]) -> str:
    """The corpus's id column: ``doc_id`` (source tables) or ``docid``
    (stage outputs)."""
    import pyarrow.parquet as pq

    names = set(pq.read_schema(files[0]).names)
    if "doc_id" in names:
        return "doc_id"
    if "docid" not in names:
        raise ValueError(
            f"{files[0]} has neither a 'doc_id' nor a 'docid' column "
            f"(columns: {sorted(names)})"
        )
    return "docid"


def _as_doc_id(t):
    # stage outputs name the id column 'docid': rename zero-copy
    return t.select(["docid", "text"]).rename_columns(["doc_id", "text"])


def read_docs(corpus):
    """The corpus's (doc_id, text) as a Dataset. Zero-row files are left
    out, as in :func:`read_docs_refs`."""
    import pyarrow.parquet as pq
    import ray.data

    files = docs_files(corpus)
    col = _id_column(files)
    files = [f for f in files if pq.read_metadata(f).num_rows] or files[:1]
    ds = ray.data.read_parquet(files, columns=[col, "text"])
    return ds if col == "doc_id" else ds.map_batches(_as_doc_id, batch_format="pyarrow")


def read_docs_refs(corpus) -> list:
    """The corpus's (doc_id, text) as block refs, read once
    (``exchange.read_refs``: zero-row files left out)."""
    from web_search_engine_ray.stages.exchange import map_refs, read_refs

    files = docs_files(corpus)
    col = _id_column(files)
    refs = read_refs(files, [col, "text"])
    return refs if col == "doc_id" else map_refs(_as_doc_id, refs)
