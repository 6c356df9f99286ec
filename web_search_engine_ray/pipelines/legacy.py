"""Build the native index from reference-format run files (S4 + S5 interop).

A reference deployment's on-disk state between its external-sort phase and
its merge is a directory of posting runs — legacy TSV or binary RUN1,
auto-detected per file (``HW2/engine/merger.py:37-51``). This pipeline lets
such a user switch engines mid-dataflow: point
:func:`build_index_from_runs` at those files and get the SAME sharded index
layout :func:`~web_search_engine_ray.pipelines.build.build_index` emits
(``Searcher`` works unchanged; queries are rank-identical).

Shape (every fan-out is one plain Ray task per item,
:func:`~web_search_engine_ray.pipelines.build.fan_out`):

1. **Convert** (one Ray task per run file, resumable per file): parse the
   legacy file (vectorized — ``sources/legacy_runs.py``), sort by
   (term, docid) if needed, tf-sum repeated (term, docid) rows, write a
   native parquet run into the build's ``runs/`` dir. Each conversion
   manifest records lineage (source path, format, sha256) plus partials:
   posting count, tf sum, min and max docid. ``N`` = max docid + 1 unless
   the caller passes ``n_docs`` (runs cannot see trailing empty docs — the
   reference merge has the same blind spot, ``HW2/engine/merger.py``).
2. **Layout** (one Ray task per run): rewrite each converted run in place
   into the map-side layout of the corpus build — one parquet row group
   per gkey, the run's locally heavy terms isolated into their own salt
   row groups, with its docid span as its share of N
   (:func:`~web_search_engine_ray.pipelines.build._write_run_layout`).
3. **Heavy terms**: the corpus build's exact decision
   (:func:`~web_search_engine_ray.pipelines.build.detect_heavy_sample`)
   over the laid-out runs: heavy iff df >= ``heavy_df_frac`` x N.
4. **Doc lengths**: ``dl(doc) = sum of tf over the doc's postings`` (the
   reference's dl-from-runs rule, A5) via one docid-range hash exchange;
   each range writes a DENSE doclen shard (absent docids get dl=0, still
   counted in N — reference empty-doc rule), so the native
   ``DocLengths`` range store reads it directly.
5. **Merge**: the corpus build's merge
   (:func:`~web_search_engine_ray.pipelines.build.merge_runs_mapside`)
   over the runs in ``min_docid`` order. A heavy term streams run by run
   without a sort, which is exact only for docid-disjoint runs. So when
   any two runs' ``[min_docid, max_docid]`` ranges overlap, no run
   isolates a term and the heavy set is empty: every term lands in a
   normal shard, whose encoder sorts and tf-sums duplicate (term, docid)
   across runs exactly like the reference k-way merge
   (``HW2/engine/merger.py:114-132``). Reference runs are batch-disjoint
   and keep their salting.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, replace

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from web_search_engine_ray.functions.tokenize import batch_postings
from web_search_engine_ray.pipelines.build import (
    BuildConfig,
    _np,
    _run_path,
    _sha256_file,
    _write_run_layout,
    detect_heavy_sample,
    fan_out,
    make_layout,
    merge_runs_mapside,
)
from web_search_engine_ray.sources.legacy_runs import (
    detect_run_format,
    read_legacy_run,
    write_run1,
    write_tsv_run,
)
from web_search_engine_ray.sources.transcripts import (
    partition_docids,
    plan_partitions,
    read_partition,
)
from web_search_engine_ray.state import manifest as mf
from web_search_engine_ray.state.docstats import write_stats


def _sort_and_sum(t: pa.Table) -> pa.Table:
    """(term, docid)-sort a run and tf-sum repeated (term, docid) rows (the
    reference merge's rule, ``HW2/engine/merger.py:114-132``), so every
    converted run holds each pair once."""
    if t.num_rows < 2:
        return t
    t = t.sort_by([("term", "ascending"), ("docid", "ascending")])
    terms = t["term"].combine_chunks()
    docid = _np(t["docid"], np.uint64)
    n = t.num_rows
    same_term = pc.equal(terms.slice(1), terms.slice(0, n - 1))
    dup = same_term.to_numpy(zero_copy_only=False) & (docid[1:] == docid[:-1])
    if not dup.any():
        return t
    keep = np.flatnonzero(np.concatenate([[True], ~dup]))
    tf = np.add.reduceat(_np(t["tf"], np.uint64), keep)
    return pa.table(
        {
            "term": terms.take(pa.array(keep)),
            "docid": pa.array(docid[keep], pa.uint64()),
            "tf": pa.array(tf, pa.uint32()),
        }
    )


def _convert_one(src: tuple[int, str], cfg: BuildConfig) -> dict:
    """Convert the ``(ordinal, path)`` legacy run into a native parquet run."""
    t0 = time.perf_counter()
    ordinal, path = src
    out_path = _run_path(cfg, ordinal)
    man_path = os.path.join(cfg.manifests_dir, f"legacy_{ordinal:06d}.json")
    src_sha = _sha256_file(path)
    if cfg.resume and os.path.exists(out_path):
        prev = mf.read_manifest(man_path)
        # a manifest without min_docid predates the docid-range merge order
        if prev and prev.get("src_sha256") == src_sha and "min_docid" in prev:
            prev["skipped"] = True
            return prev

    fmt = detect_run_format(path)
    # the legacy contract says sorted by (term, docid); enforce rather than
    # trust — a violated contract must not corrupt the index
    t = _sort_and_sum(read_legacy_run(path))
    tmp = out_path + ".tmp"
    pq.write_table(t, tmp)
    os.replace(tmp, out_path)

    docid = t["docid"].to_numpy(zero_copy_only=False)
    tf = t["tf"].to_numpy(zero_copy_only=False)
    m = {
        "ordinal": ordinal,
        "lineage": {"src": path, "format": fmt, "src_sha256": src_sha},
        "src_sha256": src_sha,
        "n_postings": int(t.num_rows),
        "sum_tf": int(tf.sum()) if tf.size else 0,
        "min_docid": int(docid.min()) if docid.size else -1,
        "max_docid": int(docid.max()) if docid.size else -1,
        "wall_s": round(time.perf_counter() - t0, 4),
        "skipped": False,
    }
    mf.write_manifest(man_path, m)
    return m


def _layout_one_run(conv: dict, cfg: BuildConfig, layout: dict) -> dict:
    """Rewrite one converted run in place (atomic) into the map-side layout;
    returns its ``{pid, gkeys, isolated, heavy_min}`` run manifest for the
    heavy-term decision and the merge. The run's share of N is its docid
    span."""
    ordinal = conv["ordinal"]
    path = _run_path(cfg, ordinal)
    share = conv["max_docid"] - conv["min_docid"] + 1 if conv["n_postings"] else 0
    # back to (term, docid) order first: a resumed build finds the run in
    # the previous build's layout, and the rewrite must not depend on it
    t = pq.read_table(path).sort_by([("term", "ascending"), ("docid", "ascending")])
    run_layout = _write_run_layout(t, layout, path, share)
    return {"pid": ordinal, **run_layout, "run_sha256": _sha256_file(path)}


def _write_doclens_from_runs(
    cfg: BuildConfig, n_docs: int, range_rows: int, run_files: list[str]
) -> None:
    """dl = per-doc tf sum, one dense range-sharded parquet per docid range
    (the DocLengths store contract: docids dense within a span)."""
    import polars as pl
    import ray.data

    from web_search_engine_ray.stages.exchange import exchange_map

    n_ranges = max(1, -(-n_docs // range_rows))

    def partial(batch: pa.Table) -> pa.Table:
        d = (
            pl.from_arrow(batch.select(["docid", "tf"]))
            .group_by("docid")
            .agg(pl.col("tf").sum().alias("dl_p"))
        )
        return d.to_arrow().cast(
            pa.schema([("docid", pa.uint64()), ("dl_p", pa.uint64())])
        )

    def write_range(t: pa.Table, pi: int) -> pa.Table:
        lo = pi * range_rows
        hi = min(lo + range_rows, n_docs)
        size = max(0, hi - lo)
        dense = np.zeros(size, dtype=np.uint32)
        if t.num_rows:
            d = (
                pl.from_arrow(t)
                .group_by("docid")
                .agg(pl.col("dl_p").sum().alias("dl"))
            )
            docid = d["docid"].to_numpy().astype(np.int64)
            dl = d["dl"].to_numpy().astype(np.uint64)
            if docid.size and (docid.min() < lo or docid.max() >= hi):
                raise ValueError(
                    f"docid outside range shard {pi}: "
                    f"[{docid.min()}, {docid.max()}] vs [{lo}, {hi})"
                )
            dense[docid - lo] = np.minimum(dl, np.iinfo(np.uint32).max)
        out = pa.table(
            {
                "docid": pa.array(
                    np.arange(lo, hi, dtype=np.uint64), pa.uint64()
                ),
                "dl": pa.array(dense, pa.uint32()),
            }
        ).replace_schema_metadata({"docid_lo": str(lo)})
        path = os.path.join(cfg.doclens_dir, f"doclen_{pi:06d}.parquet")
        pq.write_table(out, path + ".tmp")
        os.replace(path + ".tmp", path)
        return pa.table({"n": pa.array([size], pa.int64())})

    ds = ray.data.read_parquet(run_files, columns=["docid", "tf"])
    ds = ds.map_batches(partial, batch_format="pyarrow")
    total = exchange_map(
        ds,
        lambda t: (
            t["docid"].combine_chunks().to_numpy(zero_copy_only=False).astype(np.int64)
            // range_rows
        ),
        n_ranges,
        write_range,
        with_index=True,
    ).to_pandas()
    assert int(total["n"].sum()) == n_docs


def build_index_from_runs(
    runs: str | list[str],
    out_dir: str,
    n_docs: int | None = None,
    doclen_range_rows: int = 100_000,
    **kw,
) -> dict:
    """End-to-end: reference-format run files -> native sharded index.
    ``runs`` is a directory (every regular file in it is a run) or an
    explicit path list; each file's format is auto-detected (S5). Returns
    the build manifest (also ``<out_dir>/build.json``); ``Searcher`` and
    ``serve`` consume the result exactly like a corpus-built index."""
    cfg = BuildConfig(out_dir=out_dir, **kw)
    if isinstance(runs, str):
        paths = sorted(
            os.path.join(runs, f)
            for f in os.listdir(runs)
            if os.path.isfile(os.path.join(runs, f))
        )
    else:
        paths = list(runs)
    if not paths:
        raise ValueError(f"no run files found under {runs!r}")
    for d in (cfg.runs_dir, cfg.doclens_dir, cfg.manifests_dir):
        os.makedirs(d, exist_ok=True)
    t0 = time.perf_counter()

    # refuse an out_dir holding conversions beyond this source set: stale
    # run_NNNN.parquet from a previous, larger invocation would otherwise
    # be globbed into the doclens exchange and the merge silently
    expected = {f"run_{i:06d}.parquet" for i in range(len(paths))}
    stale = sorted(
        f
        for f in os.listdir(cfg.runs_dir)
        if f.startswith("run_") and f.endswith(".parquet") and f not in expected
    )
    if stale:
        raise ValueError(
            f"{cfg.runs_dir} holds converted runs not in this source set "
            f"({stale[:4]}{'...' if len(stale) > 4 else ''}); use a fresh "
            "out_dir — mixing conversions would fold foreign postings into "
            "the index"
        )

    # phase 0: convert (one task per legacy file, resumable)
    conv = fan_out("legacy.convert", _convert_one, list(enumerate(paths)), cfg)
    max_docid = max((m["max_docid"] for m in conv), default=-1)
    if n_docs is None:
        n_docs = max_docid + 1
    elif max_docid >= n_docs:
        raise ValueError(f"run docid {max_docid} >= n_docs {n_docs}")
    if n_docs <= 0:
        raise ValueError("runs contain no postings and n_docs not given")
    total_tokens = sum(m["sum_tf"] for m in conv)
    t_conv = time.perf_counter()

    # the merge streams heavy terms run by run in min_docid order, exact
    # only for docid-disjoint runs; overlapping runs isolate no term, so
    # nothing is heavy and shared (term, docid) pairs meet in a normal
    # shard, where they are tf-summed
    ordered = sorted(conv, key=lambda m: (m["min_docid"], m["ordinal"]))
    spans = [(m["min_docid"], m["max_docid"]) for m in ordered if m["n_postings"]]
    if any(lo <= prev_hi for (_, prev_hi), (lo, _) in zip(spans, spans[1:])):
        cfg = replace(cfg, heavy_df_frac=0.0)
    layout = make_layout(n_docs, cfg)

    # phase: map-side run layout (one task per run, rewritten in place)
    laid_out = {m["pid"]: m for m in fan_out("legacy.layout", _layout_one_run, conv, cfg, layout)}
    by_docid = [laid_out[m["ordinal"]] for m in ordered]
    t_layout = time.perf_counter()

    # phase: the exact heavy set, from the laid-out runs
    heavy = detect_heavy_sample(by_docid, cfg, n_docs)
    t_heavy = time.perf_counter()

    # phase: doc lengths from the runs (A5 rule)
    _write_doclens_from_runs(
        cfg, n_docs, doclen_range_rows, [_run_path(cfg, m["ordinal"]) for m in conv]
    )
    stats = write_stats(cfg.doclens_dir, n_docs, total_tokens)
    t_dl = time.perf_counter()

    build_fp = hashlib.sha256(
        json.dumps(
            {
                "runs": [laid_out[m["ordinal"]]["run_sha256"] for m in conv],
                "codec": cfg.codec,
                "block_size": cfg.block_size,
                "layout": layout["fp"],
            },
            sort_keys=True,
        ).encode()
    ).hexdigest()[:16]
    shard_ms = merge_runs_mapside(cfg, by_docid, layout, build_fp, heavy["heavy_terms"])
    t_merge = time.perf_counter()

    build = {
        "config": asdict(cfg),
        "source": "legacy_runs",
        "build_fp": build_fp,
        "n_docs": n_docs,
        "total_tokens": total_tokens,
        "avgdl": stats["avgdl"],
        "n_runs": len(conv),
        "run_lineage": [m["lineage"] for m in conv],
        "n_postings": sum(m["n_postings"] for m in shard_ms),
        "n_terms": sum(m.get("n_terms", 0) for m in shard_ms),
        "heavy_terms": heavy["heavy_terms"],
        "num_shards": cfg.num_shards,
        "shards": sorted(shard_ms, key=lambda m: m["shard"]),
        "skew": {k: heavy[k] for k in ("heavy_candidates", "heavy_hash_runs")},
        "timings": {
            "convert_s": round(t_conv - t0, 3),
            "layout_s": round(t_layout - t_conv, 3),
            "heavy_s": round(t_heavy - t_layout, 3),
            "doclens_s": round(t_dl - t_heavy, 3),
            "merge_s": round(t_merge - t_dl, 3),
            "total_s": round(t_merge - t0, 3),
        },
    }
    mf.write_manifest(os.path.join(out_dir, "build.json"), build)
    return build


def _export_one(desc: dict, run_dir: str) -> str:
    """Tokenize one corpus partition into a reference-format run file: TSV
    for even pids, binary RUN1 for odd ones. Returns its path."""
    t = read_partition(desc, columns=["text"])
    postings, _ = batch_postings(partition_docids(desc), t["text"])
    pid = int(desc["pid"])
    if pid % 2 == 0:
        p = os.path.join(run_dir, f"run_{pid:04d}.tsv")
        write_tsv_run(postings, p)
    else:
        p = os.path.join(run_dir, f"run_{pid:04d}.run")
        write_run1(postings, p)
    return p


def export_legacy_runs(
    sf_dir: str, run_dir: str, n_partitions: int = 4
) -> int:
    """Export half of the interop story: tokenize the documents corpus into
    reference-format run files a reference merge can consume — alternating
    legacy TSV / binary RUN1 per partition, each (term, docid)-sorted. One
    Ray task per partition (row-group-pruned reads). Returns n_docs."""
    path = os.path.join(sf_dir, "documents.parquet")
    n_rows = pq.read_metadata(path).num_rows
    descs, n_docs = plan_partitions(
        [path], partition_rows=max(1, -(-n_rows // n_partitions))
    )
    os.makedirs(run_dir, exist_ok=True)
    fan_out("legacy.export", _export_one, descs, run_dir)
    return n_docs


def decode_all_postings(index_dir: str):
    """Every (term, docid, tf) stored in a built index, decoded from the
    blocked varbyte shards — one Ray task per shard."""
    import glob as _glob

    import ray.data

    from web_search_engine_ray.state.lexicon import LexiconShard
    from web_search_engine_ray.state.listio import PostingsShardReader

    lex_files = sorted(
        _glob.glob(os.path.join(index_dir, "index", "*.lexicon"))
    )

    def _decode(batch: pa.Table) -> pa.Table:
        terms: list[str] = []
        lens: list[int] = []
        docs: list[np.ndarray] = []
        tfs: list[np.ndarray] = []
        for r in batch.to_pylist():
            lex = LexiconShard.load(r["path"])
            # single-pass scan: decoded-LRU off (every term read once)
            reader = PostingsShardReader(
                r["path"][: -len(".lexicon")] + ".postings", cache_bytes=0
            )
            try:
                for term in lex.terms:
                    d, f = reader.read_postings(lex.get(term))
                    terms.append(term)
                    lens.append(d.size)
                    docs.append(d)
                    tfs.append(f)
            finally:
                reader.close()
        idx = np.repeat(np.arange(len(terms), dtype=np.int64), lens)
        return pa.table(
            {
                "term": pc.take(pa.array(terms, pa.string()), pa.array(idx)),
                "docid": pa.array(
                    np.concatenate(docs) if docs else np.empty(0, np.uint64),
                    pa.uint64(),
                ),
                "tf": pa.array(
                    np.concatenate(tfs) if tfs else np.empty(0, np.uint64),
                    pa.uint64(),
                ),
            }
        )

    ds = ray.data.from_items(
        [{"path": p} for p in lex_files],
        override_num_blocks=max(1, len(lex_files)),
    )
    return ds.map_batches(_decode, batch_format="pyarrow", batch_size=None)


def postings_via_legacy_runs(sf_dir: str) -> "pa.Table":
    """Driver-gate conformance relation for the WHOLE S4/S5 interop path:
    corpus -> reference-format runs (TSV + RUN1 mixed) -> autodetect ->
    native index build -> decode every posting back out. Must equal the
    corpus postings relation (same SQL oracle as ``postings``)."""
    import shutil
    import tempfile

    scratch = tempfile.mkdtemp(prefix="wse_legacy_", dir="/tmp")
    try:
        run_dir = os.path.join(scratch, "runs")
        idx_dir = os.path.join(scratch, "idx")
        n_docs = export_legacy_runs(sf_dir, run_dir)
        build_index_from_runs(
            run_dir, idx_dir, n_docs=n_docs, num_shards=4, n_salts=4
        )
        out = decode_all_postings(idx_dir)
        t = pa.concat_tables(
            [b for b in out.iter_batches(batch_format="pyarrow")]
        )
        return pa.table(
            {
                "term": t["term"],
                "docid": t["docid"].cast(pa.int64()),
                "tf": t["tf"].cast(pa.int64()),
            }
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
