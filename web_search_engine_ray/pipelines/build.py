"""Distributed inverted-index build: tokenize -> runs -> map-side merge -> shards.

Ray-Data-native replacement for the reference's three-stage external sort
(``build_runs_mp`` -> ``parallel_merge`` -> ``merger``):

- **Phase 1 (runs)**: one plain Ray task per partition descriptor
  (:func:`fan_out`). Each partition (a run of whole parquet
  row groups, ~``partition_rows`` rows) is tokenized vectorized (polars regex
  over zero-copy Arrow), tf-aggregated on integer keys (``batch_postings``),
  and written as a Parquet run + a doc-length range file + a checkpoint
  manifest (lineage, spans, metrics, content hash). Resume skips partitions
  with valid manifests. This replaces ``HW2/engine/build_runs_mp.py``; docids
  come from the metadata offset plan (``sources.transcripts``), never from
  task completion order.

- **Phase 2 (merge)**: ONE partitioned exchange replaces the reference's
  layered heap merge + single-writer final merge (its stated bottleneck,
  ``HW2/README.md:131``). Every posting gets a group key ``gkey`` — the
  explicit repartition required by the north rule:

    * a term of the run -> ``gkey = hash(term) % num_shards``
    * a term the run isolates (its j-th, by term) ->
      ``gkey = num_shards + j * n_salts + docid // bucket_width``
      (salted partitioning: a stopword's postings spread over ``n_salts``
      docid-range buckets so no single group ever materializes the full list)

  A run isolates the terms that are heavy in it: local df >=
  ``heavy_df_frac`` x the run's share of N (:func:`heavy_min`). Phase 1
  groups each partition's postings by gkey, docids ascending within each
  term, and writes ONE PARQUET ROW GROUP PER GKEY, recording the gkeys
  present and the isolated terms with their local df in the run manifest
  (:func:`_write_run_layout`).
  The merge (:func:`merge_runs_mapside`) is then embarrassingly parallel:
  one task per hash shard reads exactly its row groups from each run (a
  map-side partitioned shuffle, MapReduce-style — no sort all-to-all, no
  Ray Data shuffle) and encodes the blocked/varbyte shard + lexicon shard
  with one call of the whole-shard encode kernel
  (``PostingsShardWriter.add_terms``). One task per HEAVY term streams it
  run by run in docid order through the same kernel, one flush of whole
  blocks at a time — O(row group) memory, a 10^12-posting stopword list is
  never materialized (unlike the reference's per-term dict,
  ``merger.py:101``). That stream needs docid-disjoint runs visited in
  ascending docid order. Corpus partitions come that way from the offset
  plan; converted reference runs are ordered by docid range, and go
  unsalted when ranges overlap (``pipelines/legacy.py``).

Heavy terms are decided exactly BETWEEN the phases, from what phase 1
counted (:func:`detect_heavy_sample`): a term is heavy iff its global df
>= ``heavy_df_frac`` x N. By pigeonhole every such term is isolated by some
run, so the candidates are the union of the runs' isolated terms; only a
candidate whose isolated dfs fall short is counted in the hash row groups
of the runs where it was light. The run layout depends on no global heavy
list, and the index bytes are invariant to partition size and task order.

Every fan-out (runs, merge) is :func:`fan_out`: one
``ray.remote(num_cpus=1)`` task per item, results in input order, no Ray
Data executor. All shard/run/manifest writes are atomic (tmp + rename) with
deterministic names, so Ray's retry of a crashed task is safe, a rerun after
a crash reuses finished partitions and rewrites only the rest, and output
bytes are invariant to parallelism (everything is sorted before encoding;
nothing depends on task order). Resume keys fold in :func:`code_fingerprint`,
so a build never resumes over artifacts written by different engine code.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import statistics
import time
from dataclasses import asdict, dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from web_search_engine_ray.functions.tokenize import batch_postings
from web_search_engine_ray.sources.transcripts import (
    corpus_files,
    partition_docids,
    plan_partitions,
    read_partition,
)
from web_search_engine_ray.state import manifest as mf
from web_search_engine_ray.state.docstats import write_stats
from web_search_engine_ray.state.lexicon import LexiconShard, term_shard_array
from web_search_engine_ray.state.listio import PostingsShardWriter
from web_search_engine_ray.stages.exchange import as_ready

# the sources that decide run and shard bytes (package-relative)
CODE_FILES = (
    "functions/tokenize.py",
    "functions/codecs.py",
    "state/listio.py",
    "state/lexicon.py",
    "state/docstats.py",
    "pipelines/build.py",
)


@dataclass
class BuildConfig:
    out_dir: str
    block_size: int = 128  # reference default, HW2/engine/listio.py:7
    codec: str = "varbyte"
    num_shards: int = 8
    n_salts: int = 8
    partition_rows: int = 100_000
    resume: bool = True
    text_column: str = "text"
    # docid shift for doc-range-partitioned builds (this corpus slice is one
    # range of a larger corpus; see pipelines/distributed.py)
    docid_offset: int = 0
    # docids to EXCLUDE from postings and global stats while PRESERVING the
    # positional docid assignment (compaction rebuilds, pipelines/distributed
    # `compact_deletes`): deleted rows keep a dense dl slot with dl=0 — never
    # consulted, since no posting references them — and don't count in
    # N/avgdl/sum_dl, so the result equals an index over the corpus minus
    # those docs with docids unchanged
    delete_docids: tuple = ()
    # a term is "heavy" (its own salted shard) when df >= this fraction of N
    heavy_df_frac: float = 0.05

    @property
    def runs_dir(self):
        return os.path.join(self.out_dir, "runs")

    @property
    def doclens_dir(self):
        return os.path.join(self.out_dir, "doclens")

    @property
    def manifests_dir(self):
        return os.path.join(self.out_dir, "manifests")

    @property
    def index_dir(self):
        return os.path.join(self.out_dir, "index")


def _np(col: pa.ChunkedArray | pa.Array, dtype) -> np.ndarray:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return col.to_numpy(zero_copy_only=False).astype(dtype, copy=False)


def _run_path(cfg: BuildConfig, pid: int) -> str:
    return os.path.join(cfg.runs_dir, f"run_{pid:06d}.parquet")


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def files_fingerprint(paths) -> str:
    """Hash of the bytes of source files ``paths``, each named by its path
    relative to the package (absolute paths are accepted too)."""
    pkg = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    h = hashlib.sha256()
    for p in paths:
        p = os.path.join(pkg, p)
        with open(p, "rb") as f:
            h.update(os.path.relpath(p, pkg).encode() + b"\0" + f.read() + b"\0")
    return h.hexdigest()[:16]


@functools.cache
def code_fingerprint() -> str:
    """:func:`files_fingerprint` of :data:`CODE_FILES`: the engine code that
    writes the build's artifacts, folded into every resume key."""
    return files_fingerprint(CODE_FILES)


def fan_out(stage: str, fn, items: list, *args) -> list:
    """Run ``fn(item, *args)`` as one ``ray.remote(num_cpus=1)`` task per
    item; returns the results in input order.

    A module-level ``fn`` is pickled by reference, so each worker calls its
    own copy of the module attribute. ``args`` go to the object store once,
    shared by every task. A task's exception re-raises here as its own type
    as soon as that task ends. The wait is ``exchange.as_ready``: while no
    task finishes for ``exchange.STALL_LOG_S`` seconds, the driver logs the
    stage name and how many tasks are done."""
    if not items:
        return []
    import ray

    task = ray.remote(num_cpus=1)(fn)
    shared = [ray.put(a) for a in args]
    refs = [task.remote(item, *shared) for item in items]
    out: dict = {}
    for ready in as_ready(stage, refs):
        out.update(zip(ready, ray.get(ready)))
    return [out[r] for r in refs]


def make_layout(n_docs: int, cfg: BuildConfig) -> dict:
    """The gkey routing contract shared by the run layout and the merge.
    Its ``fp`` also covers :func:`code_fingerprint`, and so does every run
    fingerprint and ``build_fp`` built on it. No global heavy list is part
    of it: each run isolates its own locally heavy terms."""
    layout = {
        "S": cfg.num_shards,
        "n_salts": cfg.n_salts,
        "bucket_width": max(1, math.ceil(n_docs / cfg.n_salts)),
        "heavy_df_frac": cfg.heavy_df_frac or 0.0,
        "code": code_fingerprint(),
    }
    layout["fp"] = hashlib.sha256(
        json.dumps(layout, sort_keys=True).encode()
    ).hexdigest()[:16]
    return layout


def heavy_min(layout: dict, share: int) -> int | None:
    """Least local df that isolates a term in a run holding ``share`` of
    N, or None when heavy detection is off. The bound sits a hair under
    ``heavy_df_frac * share`` so float rounding can never leave a term with
    global df >= ``heavy_df_frac * N`` unisolated in every run (pigeonhole:
    such a term reaches its share's fraction in at least one run)."""
    f = layout["heavy_df_frac"]
    if f <= 0:
        return None
    return max(1, math.ceil(f * share * (1 - 1e-9)))


def assign_gkeys(
    terms: pa.ChunkedArray | pa.Array, docids: np.ndarray, layout: dict, min_df: int | None
) -> tuple[np.ndarray, dict[str, int]]:
    """Row-level group keys of one run, whose rows each hold a distinct
    (term, docid): the hash shard for a term, or per-docid-range salt
    buckets for a term this run isolates (local df >= ``min_df``). Returns
    the gkeys and the isolated terms with their local df, sorted by term;
    isolated term j, salt s has gkey ``S + j * n_salts + s``."""
    if isinstance(terms, pa.ChunkedArray):
        terms = terms.combine_chunks()
    S, nsalts = layout["S"], layout["n_salts"]
    enc = terms.dictionary_encode()
    uniq = enc.dictionary.to_pylist()
    indices = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    gkey = term_shard_array(uniq, S).astype(np.int64)[indices]
    if min_df is None:
        return gkey, {}
    df = np.bincount(indices, minlength=len(uniq))
    iso = sorted((uniq[i], int(i)) for i in np.flatnonzero(df >= min_df))
    if iso:
        rank = np.full(len(uniq), -1, dtype=np.int64)
        rank[[i for _, i in iso]] = np.arange(len(iso))
        hrow = rank[indices]
        mask = hrow >= 0
        salt = (docids[mask] // np.uint64(layout["bucket_width"])).astype(np.int64)
        gkey[mask] = S + hrow[mask] * nsalts + salt
    return gkey, {t: int(df[i]) for t, i in iso}


def _write_run_layout(postings: pa.Table, layout: dict, run_path: str, share: int) -> dict:
    """Write postings whose docids ascend within each term as a map-side
    partitioned run (atomic): one parquet row group per gkey, gkeys
    ascending. The input is one ``(term, docid)``-sorted ``batch_postings``
    table, or several concatenated over ascending, disjoint docid ranges,
    i.e. ``(chunk, term, docid)``-ordered; either way each term's docids
    ascend, which is all the salt row groups need (the hash shard encode
    sorts again). ``share`` is the run's part of N (its alive rows, or its
    docid span). Returns the run manifest's layout fields: ``gkeys`` (in
    row-group order), ``isolated`` (term -> local df) and ``heavy_min``."""
    # group-key routing + stable sort by gkey: rows within a gkey keep their
    # input order (salts are docid-monotonic), so each term's docids still
    # ascend within its row group
    pdoc = _np(postings["docid"], np.uint64)
    min_df = heavy_min(layout, share)
    gkey, isolated = assign_gkeys(postings["term"], pdoc, layout, min_df)
    order = np.argsort(gkey, kind="stable")
    postings = postings.take(pa.array(order, pa.int64()))
    gsorted = gkey[order]
    bounds = np.flatnonzero(np.diff(gsorted, prepend=gsorted[0] - 1)) if gsorted.size else np.array([], dtype=np.int64)
    bounds = np.append(bounds, gsorted.size)
    gkeys_present = [int(gsorted[int(b)]) for b in bounds[:-1]]

    tmp = run_path + ".tmp"
    writer = pq.ParquetWriter(tmp, postings.schema)
    for i in range(len(gkeys_present)):
        lo, hi = int(bounds[i]), int(bounds[i + 1])
        writer.write_table(postings.slice(lo, hi - lo))
    writer.close()
    os.replace(tmp, run_path)
    return {"gkeys": gkeys_present, "isolated": isolated, "heavy_min": min_df}


# ---------------------------------------------------------------- phase 1


def _build_one_partition(desc: dict, cfg: BuildConfig, layout: dict) -> dict:
    t0 = time.perf_counter()
    pid = desc["pid"]
    run_path = _run_path(cfg, pid)
    dl_path = os.path.join(cfg.doclens_dir, f"doclen_{pid:06d}.parquet")
    man_path = os.path.join(cfg.manifests_dir, f"run_{pid:06d}.json")
    fp = mf.descriptor_fingerprint(desc) + ":" + layout["fp"]
    # fingerprint only THIS partition's slice of the delete set, so growing
    # the tombstone union elsewhere in the range never forces an untouched
    # partition to re-tokenize on the next compaction
    sel = np.empty(0, dtype=np.uint64)
    dels = getattr(cfg, "_deletes_np", None)
    if dels is not None and dels.size:
        lo = np.uint64(desc["base_docid"])
        hi = np.uint64(int(desc["base_docid"]) + int(desc["n_rows"]))
        sel = dels[(dels >= lo) & (dels < hi)]
    if sel.size:
        fp += ":del:" + hashlib.sha256(sel.tobytes()).hexdigest()[:16]

    if cfg.resume and mf.partition_done(man_path, fp, [run_path, dl_path]):
        m = mf.read_manifest(man_path)
        m["skipped"] = True
        return m

    tbl = read_partition(desc, columns=[cfg.text_column])
    docids = partition_docids(desc)

    # deletion mask (compaction rebuild): drop deleted rows BEFORE tokenize —
    # their docid slots stay reserved (dl written below as 0)
    alive_mask = None
    n_deleted = 0
    if sel.size:
        alive_mask = ~np.isin(docids, sel)
        n_deleted = int(sel.size)
        tbl = tbl.filter(pa.array(alive_mask))
        docids_full = docids
        docids = docids[alive_mask]
    # tokenize in ~8k-row chunks: large polars string pipelines degrade
    # super-linearly under many-way concurrency (allocator/bandwidth churn);
    # chunking halves the 24-way wall time (measured). The concat is
    # (chunk, term, docid)-ordered, not (term, docid): chunk docid ranges
    # are disjoint and ascending, so only each term's docids ascend.
    CHUNK = 8192
    if tbl.num_rows <= CHUNK + CHUNK // 2:
        postings, dl = batch_postings(docids, tbl[cfg.text_column])
    else:
        parts, dls = [], []
        for lo in range(0, tbl.num_rows, CHUNK):
            n = min(CHUNK, tbl.num_rows - lo)
            p, d = batch_postings(docids[lo : lo + n], tbl[cfg.text_column].slice(lo, n))
            parts.append(p)
            dls.append(d)
        postings = pa.concat_tables(parts)
        dl = np.concatenate(dls)

    run_layout = _write_run_layout(postings, layout, run_path, tbl.num_rows)

    if alive_mask is not None:
        # keep the dl shard DENSE over the full docid span (the reader
        # indexes by docid - lo): deleted slots get dl=0 and are excluded
        # from sum_dl/N — no posting ever references them
        dl_full = np.zeros(alive_mask.size, dtype=dl.dtype)
        dl_full[alive_mask] = dl
        dl_write_ids, dl_write = docids_full, dl_full
    else:
        dl_write_ids, dl_write = docids, dl
    dl_tbl = pa.table(
        {"docid": pa.array(dl_write_ids, pa.uint64()), "dl": pa.array(dl_write, pa.uint32())}
    ).replace_schema_metadata({"docid_lo": str(int(desc["base_docid"]))})
    tmp = dl_path + ".tmp"
    pq.write_table(dl_tbl, tmp)
    os.replace(tmp, dl_path)

    m = {
        "pid": pid,
        "descriptor_fp": fp,
        "lineage": {
            "path": desc["path"],
            "row_groups": desc["row_groups"],
        },
        "docid_span": [int(desc["base_docid"]), int(desc["base_docid"] + desc["n_rows"])],
        "n_docs": int(desc["n_rows"]),
        "n_deleted": n_deleted,
        "n_postings": int(postings.num_rows),
        "sum_dl": int(dl.sum()),
        **run_layout,
        "run_sha256": _sha256_file(run_path),
        "wall_s": round(time.perf_counter() - t0, 4),
        "skipped": False,
    }
    mf.write_manifest(man_path, m)
    return m


def build_runs(descs: list[dict], cfg: BuildConfig, layout: dict) -> list[dict]:
    """Phase 1, one task per partition; returns the per-partition manifests."""
    for d in (cfg.runs_dir, cfg.doclens_dir, cfg.manifests_dir):
        os.makedirs(d, exist_ok=True)
    return fan_out("build.runs", _build_one_partition, descs, cfg, layout)


# ------------------------------------------------------ heavy-term decision


def detect_heavy_sample(run_ms: list[dict], cfg: BuildConfig, n_docs: int) -> dict:
    """The exact heavy set ``{t : df_t >= heavy_df_frac * n_docs}``, decided
    from the runs between phase 1 and the merge. (The name is kept from the
    sample pre-pass this replaced: the benchmark's tracer times this stage
    by it.)

    The candidates are the terms some run isolated; by pigeonhole every
    heavy term is one. A candidate whose isolated dfs reach the threshold
    is heavy. One that misses it even at ``heavy_min - 1`` in every run
    where it was light is not. Only the rest are counted, from the ``term``
    column of their hash row group in each run where they were light.

    Returns ``heavy_terms`` (sorted), ``heavy_candidates`` (how many terms
    some run isolated) and ``heavy_hash_runs`` (per heavy term, from how
    many runs' hash row groups the merge reads it)."""
    thresh = (cfg.heavy_df_frac or 0) * n_docs
    iso_df: dict[str, int] = {}
    iso_slack: dict[str, int] = {}
    light_max = 0  # a term's most postings if it were light in every run
    for m in run_ms:
        slack = (m["heavy_min"] or 1) - 1
        light_max += slack
        for t, c in m["isolated"].items():
            iso_df[t] = iso_df.get(t, 0) + c
            iso_slack[t] = iso_slack.get(t, 0) + slack
    heavy = {t for t, c in iso_df.items() if c >= thresh}
    unsure = sorted(
        t for t, c in iso_df.items() if t not in heavy and c + light_max - iso_slack[t] >= thresh
    )
    if unsure:
        shard = dict(zip(unsure, term_shard_array(unsure, cfg.num_shards).tolist()))
        df = {t: iso_df[t] for t in unsure}
        for m in run_ms:
            by_rg: dict[int, list[str]] = {}
            for t in unsure:
                if t not in m["isolated"] and shard[t] in m["gkeys"]:
                    by_rg.setdefault(m["gkeys"].index(shard[t]), []).append(t)
            if not by_rg:
                continue
            pf = pq.ParquetFile(_run_path(cfg, m["pid"]))
            for ordinal, ts in by_rg.items():
                # value_counts -> Python: no Arrow conversion of Python
                # objects, which would import pandas into the driver
                vc = pf.read_row_group(ordinal, columns=["term"])["term"].value_counts()
                counts = dict(zip(vc.field("values").to_pylist(), vc.field("counts").to_pylist()))
                for t in ts:
                    df[t] += counts.get(t, 0)
        heavy.update(t for t in unsure if df[t] >= thresh)
    heavy_terms = sorted(heavy)
    shard = dict(zip(heavy_terms, term_shard_array(heavy_terms, cfg.num_shards).tolist()))
    return {
        "heavy_terms": heavy_terms,
        "heavy_candidates": len(iso_df),
        "heavy_hash_runs": {
            t: sum(t not in m["isolated"] and shard[t] in m["gkeys"] for m in run_ms)
            for t in heavy_terms
        },
    }


# ---------------------------------------------------------------- phase 2


def _encode_normal_shard(batch: pa.Table, sid: int, cfg: BuildConfig, build_fp: str) -> dict:
    """Sort one shard's postings and write shard files (atomic): one
    encode-kernel call (``PostingsShardWriter.add_terms``) over the shard."""
    t0 = time.perf_counter()
    batch = batch.sort_by([("term", "ascending"), ("docid", "ascending")])
    terms = batch["term"].combine_chunks()
    docids = _np(batch["docid"], np.uint64)
    tfs = _np(batch["tf"], np.uint64)

    # term run boundaries: sorted column -> positions where term changes
    n = len(terms)
    if n > 1:
        neq = pc.not_equal(terms.slice(1), terms.slice(0, n - 1))
        starts = np.concatenate(
            [[0], np.flatnonzero(neq.to_numpy(zero_copy_only=False)) + 1]
        )
    else:
        starts = np.array([0], dtype=np.int64)
    uniq = terms.take(pa.array(starts, pa.int64())).to_pylist()

    # safety collapse of duplicate (term, docid) — partitions are
    # doc-disjoint so this is a no-op invariant, like the reference's
    # tf-sum at merge (HW2/engine/merger.py:114-132); one pass over the shard
    dup = docids[1:] == docids[:-1]
    dup[starts[1:] - 1] = False  # equal docids of two terms are not a dup
    if dup.any():
        keep = np.flatnonzero(np.concatenate([[True], ~dup]))
        tfs = np.add.reduceat(tfs, keep)
        docids = docids[keep]
        starts = np.searchsorted(keep, starts)

    post_path = os.path.join(cfg.index_dir, f"shard_{sid:05d}.postings")
    lex_path = os.path.join(cfg.index_dir, f"shard_{sid:05d}.lexicon")
    w = PostingsShardWriter(post_path + ".tmp", cfg.block_size, cfg.codec)
    lex = LexiconShard.from_arrays(uniq, w.add_terms(starts, docids, tfs))
    size = w.close()
    lex.save(lex_path + ".tmp")
    os.replace(post_path + ".tmp", post_path)
    os.replace(lex_path + ".tmp", lex_path)
    m = {
        "shard": sid,
        "kind": "normal",
        "build_fp": build_fp,
        "n_terms": len(uniq),
        "n_postings": int(docids.size),
        "postings_bytes": size,
        "wall_s": round(time.perf_counter() - t0, 4),
    }
    mf.write_manifest(os.path.join(cfg.manifests_dir, f"shard_{sid:05d}.json"), m)
    return m


def _encode_heavy_shard(
    term_idx: int, term: str, chunks, cfg: BuildConfig, build_fp: str
) -> dict:
    """Stream one heavy term's docid-ascending (docids, tfs) chunks through
    the block encoder (``add_term_stream``) into its dedicated shard
    (atomic)."""
    t0 = time.perf_counter()
    sid = cfg.num_shards + term_idx
    post_path = os.path.join(cfg.index_dir, f"shard_{sid:05d}.postings")
    lex_path = os.path.join(cfg.index_dir, f"shard_{sid:05d}.lexicon")
    w = PostingsShardWriter(post_path + ".tmp", cfg.block_size, cfg.codec)
    arrays = w.add_term_stream(term, chunks)
    size = w.close()
    lex = LexiconShard.from_arrays([term], arrays)
    lex.save(lex_path + ".tmp")
    os.replace(post_path + ".tmp", post_path)
    os.replace(lex_path + ".tmp", lex_path)
    m = {
        "shard": sid,
        "kind": "heavy",
        "term": term,
        "build_fp": build_fp,
        "n_terms": 1,
        "n_postings": int(arrays["df"][0]),
        "postings_bytes": size,
        "wall_s": round(time.perf_counter() - t0, 4),
    }
    mf.write_manifest(os.path.join(cfg.manifests_dir, f"shard_{sid:05d}.json"), m)
    return m


def merge_runs_mapside(
    cfg: BuildConfig, run_manifests: list[dict], layout: dict, build_fp: str, heavy_terms: list[str]
) -> list[dict]:
    """Phase 2: the runs are already partitioned by gkey (one parquet row
    group per gkey, ``{pid, gkeys, isolated}`` manifests). One task per
    hash shard gathers and encodes it: the shard's hash row groups less the
    rows of heavy terms, plus the isolated row groups of its terms that
    are not heavy. One task per heavy term streams it run by run: the run's
    isolated salt row groups, or its hash row group filtered to the term.
    Runs are visited in the order given, which the caller makes
    docid-ascending over docid-disjoint runs, so each heavy stream is
    globally docid-ascending: no sort and O(row group) memory.

    ``build.json`` is removed before the first shard is written: until the
    build writes it again the index dir may mix shards of two builds, and a
    resume must not take that for a finished build."""
    os.makedirs(cfg.index_dir, exist_ok=True)
    done = os.path.join(cfg.out_dir, "build.json")
    if os.path.exists(done):
        os.remove(done)
    S, nsalts = layout["S"], layout["n_salts"]
    heavy_shard = dict(zip(heavy_terms, term_shard_array(heavy_terms, S).tolist()))

    # shard -> [(run_path, row_group_ordinal, heavy terms to drop)] and
    # heavy term -> [(run_path, row_group_ordinal, term to keep or None)],
    # runs in the order given
    normal: dict[int, list] = {}
    streams: dict[str, list] = {t: [] for t in heavy_terms}
    for m in run_manifests:
        path = _run_path(cfg, m["pid"])
        iso = sorted(m["isolated"])
        iso_shard = term_shard_array(iso, S).tolist()
        hash_rg = {}
        for ordinal, g in enumerate(m["gkeys"]):
            if g < S:
                hash_rg[g] = (path, ordinal, [])
                normal.setdefault(g, []).append(hash_rg[g])
                continue
            j = (g - S) // nsalts
            if iso[j] in heavy_shard:
                streams[iso[j]].append((path, ordinal, None))
            else:  # isolated in this run but not heavy: back to its hash shard
                normal.setdefault(iso_shard[j], []).append((path, ordinal, []))
        for t, g in heavy_shard.items():
            if t not in m["isolated"] and g in hash_rg:
                hash_rg[g][2].append(t)
                streams[t].append((path, hash_rg[g][1], t))

    items = [("normal", g, None, normal[g]) for g in sorted(normal)]
    items += [("heavy", i, t, streams[t]) for i, t in enumerate(heavy_terms) if streams[t]]
    return [m for m in fan_out("build.merge", _merge_one, items, cfg, build_fp) if m is not None]


def _read_rg(path: str, ordinal: int, columns) -> pa.Table:
    return pq.ParquetFile(path).read_row_group(ordinal, columns=columns)


def _merge_one(item: tuple, cfg: BuildConfig, build_fp: str) -> dict | None:
    """One merge task: gather and encode a hash shard (None when every row
    belongs to a heavy term), or stream a heavy term run by run."""
    kind, idx, term, srcs = item
    if kind == "normal":
        parts = []
        for p, o, drop in srcs:
            t = _read_rg(p, o, ["term", "docid", "tf"])
            if drop:
                t = t.filter(pc.invert(pc.is_in(t["term"], value_set=pa.array(drop, t["term"].type))))
            parts.append(t)
        batch = pa.concat_tables(parts)
        return _encode_normal_shard(batch, idx, cfg, build_fp) if batch.num_rows else None

    def chunks():
        for p, o, only in srcs:
            if only is None:
                t = _read_rg(p, o, ["docid", "tf"])
            else:
                t = _read_rg(p, o, ["term", "docid", "tf"])
                t = t.filter(pc.equal(t["term"], only))
            yield _np(t["docid"], np.uint64), _np(t["tf"], np.uint64)

    return _encode_heavy_shard(idx, term, chunks(), cfg, build_fp)


# ---------------------------------------------------------------- driver


def build_skew(run_ms: list[dict], shard_ms: list[dict], heavy: dict) -> dict:
    """Where the build's time went, from its run and shard manifests: the
    partition wall p50 and max with the straggler pid, the slowest shard
    and its id, and the largest shard's postings bytes over the median.
    Heavy-term coverage comes from the decision (:func:`detect_heavy_sample`):
    the candidate count, and per heavy term the runs whose hash row group
    the merge reads it from."""
    out = {k: heavy[k] for k in ("heavy_candidates", "heavy_hash_runs")}
    if run_ms:
        slow = max(run_ms, key=lambda m: m["wall_s"])
        out["partition_wall_p50_s"] = round(statistics.median(m["wall_s"] for m in run_ms), 4)
        out["partition_wall_max_s"] = slow["wall_s"]
        out["straggler_pid"] = slow["pid"]
    if shard_ms:
        slow = max(shard_ms, key=lambda m: m["wall_s"])
        med = statistics.median(m["postings_bytes"] for m in shard_ms)
        out["shard_wall_max_s"] = slow["wall_s"]
        out["straggler_shard"] = slow["shard"]
        out["shard_bytes_max_over_median"] = round(
            max(m["postings_bytes"] for m in shard_ms) / med, 3
        )
    return out


def build_index(input_path_or_dir, out_dir: str, **kw) -> dict:
    """End-to-end index build. Returns the build manifest (also written to
    ``<out_dir>/build.json``). Ray must already be initialized by the caller
    (or auto-inits in standalone scripts)."""
    cfg = BuildConfig(out_dir=out_dir, **kw)
    os.makedirs(out_dir, exist_ok=True)
    t0 = time.perf_counter()

    files = corpus_files(input_path_or_dir)
    if not files:
        raise ValueError(f"no parquet files found under {input_path_or_dir!r}")
    for f in (files[0], files[-1]):
        names = pq.read_schema(f).names
        if cfg.text_column not in names:
            raise ValueError(
                f"corpus file {f!r} has no {cfg.text_column!r} column "
                f"(columns: {names}); point --input at the transcript corpus "
                "(a dir of transcript parquet files or a single file), not a "
                "directory of mixed tables"
            )
    descs, n_docs = plan_partitions(files, cfg.partition_rows, cfg.docid_offset)
    layout = make_layout(cfg.docid_offset + n_docs, cfg)
    if cfg.delete_docids:
        dels = np.asarray(sorted({int(x) for x in cfg.delete_docids}), dtype=np.uint64)
        cfg._deletes_np = dels
        cfg._delete_fp = hashlib.sha256(dels.tobytes()).hexdigest()[:16]
    run_ms = build_runs(descs, cfg, layout)
    run_ms.sort(key=lambda m: m["pid"])
    total_tokens = sum(m["sum_dl"] for m in run_ms)
    n_deleted = sum(m.get("n_deleted", 0) for m in run_ms)
    n_alive = n_docs - n_deleted
    stats = write_stats(cfg.doclens_dir, n_alive, total_tokens)
    t_runs = time.perf_counter()
    heavy = detect_heavy_sample(run_ms, cfg, n_alive)
    t_heavy = time.perf_counter()

    build_fp = hashlib.sha256(
        json.dumps(
            {
                "runs": [m["run_sha256"] for m in run_ms],
                "codec": cfg.codec,
                "block_size": cfg.block_size,
                "layout": layout["fp"],
            },
            sort_keys=True,
        ).encode()
    ).hexdigest()[:16]

    # merge resume: skip the merge when every shard manifest matches build_fp
    prev = mf.read_manifest(os.path.join(out_dir, "build.json"))
    shard_ms: list[dict] | None = None
    if cfg.resume and prev and prev.get("build_fp") == build_fp:
        ok = True
        for sm in prev.get("shards", []):
            sp = os.path.join(cfg.index_dir, f"shard_{sm['shard']:05d}.postings")
            lp = os.path.join(cfg.index_dir, f"shard_{sm['shard']:05d}.lexicon")
            if not (os.path.exists(sp) and os.path.exists(lp)):
                ok = False
                break
        if ok:
            shard_ms = prev["shards"]
    if shard_ms is None:
        shard_ms = merge_runs_mapside(cfg, run_ms, layout, build_fp, heavy["heavy_terms"])
    t_merge = time.perf_counter()

    cfg_dict = asdict(cfg)
    if cfg.delete_docids:
        # don't inline a possibly-large docid list into build.json
        cfg_dict["delete_docids"] = {
            "n": int(cfg._deletes_np.size),
            "fp": cfg._delete_fp,
        }
    build = {
        "config": cfg_dict,
        "build_fp": build_fp,
        "n_docs": n_alive,
        "n_deleted": n_deleted,
        "docid_span": [cfg.docid_offset, cfg.docid_offset + n_docs],
        "total_tokens": total_tokens,
        "avgdl": stats["avgdl"],
        "n_partitions": len(descs),
        "n_postings": sum(m["n_postings"] for m in run_ms),
        "n_terms": sum(m.get("n_terms", 0) for m in shard_ms),
        "heavy_terms": heavy["heavy_terms"],
        "num_shards": cfg.num_shards,
        "shards": sorted(shard_ms, key=lambda m: m["shard"]),
        "timings": {
            "runs_s": round(t_runs - t0, 3),
            "heavy_s": round(t_heavy - t_runs, 3),
            "merge_s": round(t_merge - t_heavy, 3),
            "total_s": round(t_merge - t0, 3),
        },
        "skew": build_skew(run_ms, shard_ms, heavy),
    }
    mf.write_manifest(os.path.join(out_dir, "build.json"), build)
    return build
