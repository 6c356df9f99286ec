"""End-to-end LLM corpus curation job: the engine's operators composed into
one resumable, staged pipeline —

    quality gate + exact dedup  ->  near-dup removal (minhash->jaccard
    clusters, keep-min survivor)  ->  PII redaction  ->  benchmark
    decontamination (8-gram holdout sweep)  ->  content-addressed
    train/val/test split  ->  partitioned parquet per split + stats.

Every stage writes its output corpus as a directory of (docid, text)
parquet part files plus an atomic ``_done.json`` marker holding the stage
parameters and row count; a re-run skips stages whose marker matches
(parameter or input drift fails loudly, same rule as
``curate.write_curated_corpus``). Stage corpora flow back into the
operators through the shared :func:`sources.documents.read_docs`, which is
what makes the composition possible without per-stage adapters.

Scale notes: every stage is the already-graded distributed operator (no
new shuffles); the only driver-side relation is the near-dup CLUSTER table
(dup-scale — output-proportional, orders of magnitude below corpus scale)
and the holdout gram set (benchmark-sized by definition).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from web_search_engine_ray.sources.documents import read_docs_refs
from web_search_engine_ray.stages.exchange import (
    arrow_refs,
    exchange_map,
    hash_route,
    map_refs,
    read_refs,
    route_probe,
)


def _marker(stage_dir: str) -> str:
    return os.path.join(stage_dir, "_done.json")


def _begin_marker(stage_dir: str) -> str:
    return os.path.join(stage_dir, "_params.json")


def _corpus_fp(files: list[str]) -> list:
    """Input identity for a stage's params: (name, size, mtime_ns) of every
    file. Stage markers embed this so a re-run against a DIFFERENT or
    changed input fails loudly instead of silently re-serving the old
    stage outputs."""
    return [
        [os.path.basename(f), os.stat(f).st_size, os.stat(f).st_mtime_ns]
        for f in files
    ]


def _check_params(stage_dir: str, path: str, params: dict, what: str) -> dict | None:
    if not os.path.exists(path):
        return None
    with open(path) as f:
        prev = json.load(f)
    if prev.get("params") != params:
        raise ValueError(
            f"{stage_dir} holds a {what} with different parameters or input "
            f"({prev.get('params')} != {params}); use a fresh --out"
        )
    return prev


def _stage_done(stage_dir: str, params: dict) -> dict | None:
    """The completed marker dict if the stage already finished with THESE
    params (incl. input fingerprint), else None. Mismatches raise."""
    return _check_params(stage_dir, _marker(stage_dir), params, "completed stage")


def _begin_stage(stage_dir: str, params: dict) -> None:
    """Record the stage params BEFORE any partition file is written, so a
    crash-resume with different params (or a different polars routing)
    raises instead of silently mixing partitions from two runs."""
    os.makedirs(stage_dir, exist_ok=True)
    if _check_params(stage_dir, _begin_marker(stage_dir), params, "partial stage") is None:
        tmp = _begin_marker(stage_dir) + ".tmp"
        with open(tmp, "w") as f:
            json.dump({"params": params}, f)
        os.replace(tmp, _begin_marker(stage_dir))


def _finish_stage(stage_dir: str, params: dict, n_rows: int, **extra) -> dict:
    marker = {"params": params, "n_rows": n_rows, **extra}
    tmp = _marker(stage_dir) + ".tmp"
    with open(tmp, "w") as f:
        json.dump(marker, f)
    os.replace(tmp, _marker(stage_dir))
    return marker


def _write_doc_parts(refs: list, stage_dir: str, n_parts: int) -> int:
    """Sink (doc_id/docid, text) blocks as ``n_parts`` deterministic
    parquet files (docid-routed, sorted within each part, atomic tmp +
    rename). Returns total rows. Same layout contract as the curated-corpus
    sink, so any stage dir is a valid ``read_docs`` corpus."""
    import polars as pl
    import ray

    os.makedirs(stage_dir, exist_ok=True)

    def norm(t: pa.Table) -> pa.Table:
        idc = "doc_id" if "doc_id" in t.column_names else "docid"
        return pa.table(
            {"docid": t[idc].cast(pa.int64()), "text": t["text"].cast(pa.string())}
        )

    def route(t: pa.Table) -> np.ndarray:
        return t["docid"].to_numpy(zero_copy_only=False) % n_parts

    def write_part(t: pa.Table, pi: int) -> pa.Table:
        path = os.path.join(stage_dir, f"docs_{pi:05d}.parquet")
        if os.path.exists(path):  # partition-level resume
            n = pq.read_metadata(path).num_rows
        else:
            out = pl.from_arrow(t).sort("docid").to_arrow().cast(
                pa.schema([("docid", pa.int64()), ("text", pa.string())])
            )
            pq.write_table(out, path + ".tmp")
            os.replace(path + ".tmp", path)
            n = t.num_rows
        return pa.table({"n": pa.array([int(n)], pa.int64())})

    parts = exchange_map(map_refs(norm, refs), route, n_parts, write_part, with_index=True)
    return _rows_written(ray.get(parts))


def _rows_written(parts: list[pa.Table]) -> int:
    """Total of a sink's per-partition ``n`` counts."""
    return int(sum(t["n"].to_numpy().sum() for t in parts))


def _neardup_drop_set(stage_dir: str, tau: float) -> np.ndarray:
    """Sorted docids to DROP: every near-dup cluster member except the
    cluster's min docid. The cluster relation is dup-scale, so the driver
    reduction is output-proportional (the 2M-doc stress measured ~343k
    cluster rows against 2M docs)."""
    import polars as pl
    import ray

    from web_search_engine_ray.pipelines.graph import dedup_clusters_ds

    # collect the (docid, cluster_id) relation — dup-scale
    tables = ray.get(arrow_refs(dedup_clusters_ds(stage_dir, tau=tau)))
    tables = [t for t in tables if t.num_rows]
    if not tables:
        return np.empty(0, dtype=np.int64)
    df = pl.from_arrow(pa.concat_tables(tables))
    drop = (
        df.with_columns(keep=pl.col("docid").min().over("cluster_id"))
        .filter(pl.col("docid") != pl.col("keep"))
        .select("docid")
    )
    return np.sort(drop["docid"].to_numpy().astype(np.int64))


def run_llm_corpus_job(
    input_dir: str,
    out_dir: str,
    min_tokens: int = 5,
    max_stop_ratio: float = 0.6,
    tau: float = 0.8,
    holdout_max_docid: int = 100,
    ngram_n: int = 8,
    val_pct: int = 10,
    test_pct: int = 10,
    n_parts: int = 16,
    hash_fn: str = "fast",
) -> dict:
    """Run (or resume) the full curation chain. Returns the stats dict the
    CLI prints: per-stage row counts + split sizes.

    ``hash_fn`` drives the exact-dedup content hash: the composed job
    defaults to the vectorized 64-bit ``"fast"`` path (throughput work —
    2.8x at 2M docs); the driver-gate entries keep ``"md5"``, the
    oracle-shared, collision-safe archival convention."""
    import ray

    from web_search_engine_ray.pipelines.curate import write_curated_corpus
    from web_search_engine_ray.pipelines.redact import pii_redact_ds

    from web_search_engine_ray.sources.documents import docs_files

    os.makedirs(out_dir, exist_ok=True)
    stats: dict = {"input": input_dir, "out_dir": out_dir}
    src = os.path.join(input_dir, "documents.parquet")
    stats["n_input"] = int(pq.ParquetFile(src).metadata.num_rows)

    # ---- stage 1: quality gate + exact dedup (existing resumable sink)
    s1 = os.path.join(out_dir, "s1_curated")
    p1 = {
        "min_tokens": min_tokens,
        "max_stop_ratio": max_stop_ratio,
        "n_parts": n_parts,
        "hash_fn": hash_fn,
        "input_fp": _corpus_fp([src]),
    }
    m1 = _stage_done(s1, p1)
    if m1 is None:
        rep = write_curated_corpus(
            input_dir, s1, min_tokens=min_tokens,
            max_stop_ratio=max_stop_ratio, n_parts=n_parts, hash_fn=hash_fn,
        )
        m1 = _finish_stage(s1, p1, int(rep["n_rows"]))
    n1 = int(m1["n_rows"])
    stats["n_after_quality_exact_dedup"] = n1

    # ---- stage 2: near-dup removal (minhash -> jaccard clusters -> keep min)
    s2 = os.path.join(out_dir, "s2_neardup")
    p2 = {"tau": tau, "n_parts": n_parts, "input_fp": _corpus_fp(docs_files(s1))}
    m2 = _stage_done(s2, p2)
    if m2 is None:
        _begin_stage(s2, p2)
        drop = _neardup_drop_set(s1, tau)
        dref = ray.put(drop)

        def keep_fn(t: pa.Table) -> pa.Table:
            d = ray.get(dref)
            if d.size == 0 or t.num_rows == 0:
                return t
            ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            pos = np.searchsorted(d, ids)
            pos[pos == d.size] = 0
            return t.filter(pa.array(d[pos] != ids))

        m2 = _finish_stage(
            s2,
            p2,
            _write_doc_parts(map_refs(keep_fn, read_docs_refs(s1)), s2, n_parts),
        )
    n2 = int(m2["n_rows"])
    stats["n_neardup_dropped"] = n1 - n2
    stats["n_after_neardup"] = n2

    # ---- stage 3: PII redaction (redact stored text as-is, plant=False)
    s3 = os.path.join(out_dir, "s3_redacted")
    p3 = {"n_parts": n_parts, "input_fp": _corpus_fp(docs_files(s2))}
    m3 = _stage_done(s3, p3)
    if m3 is None:
        _begin_stage(s3, p3)
        red = pii_redact_ds(s2, plant=False)

        def to_docs(t: pa.Table) -> pa.Table:
            return pa.table(
                {"docid": t["docid"].cast(pa.int64()), "text": t["redacted"].cast(pa.string())}
            )

        m3 = _finish_stage(
            s3,
            p3,
            _write_doc_parts(map_refs(to_docs, arrow_refs(red)), s3, n_parts),
        )
    n3 = int(m3["n_rows"])
    stats["n_after_redact"] = n3

    # ---- stage 4: benchmark decontamination (drop docs sharing any n-gram
    # with the ORIGINAL corpus's holdout slice; holdout docs themselves are
    # excluded from the training output too). Reuses the oracle-checked
    # holdout_contamination_ds operator with its scan side pointed at s3.
    s4 = os.path.join(out_dir, "s4_decontaminated")
    p4 = {
        "holdout_max_docid": holdout_max_docid,
        "n": ngram_n,
        "n_parts": n_parts,
        "input_fp": _corpus_fp(docs_files(s3)),
    }
    m4 = _stage_done(s4, p4)
    if m4 is None:
        from web_search_engine_ray.pipelines.dedup import holdout_contamination_ds

        _begin_stage(s4, p4)
        cont = holdout_contamination_ds(
            input_dir, holdout_max_docid=holdout_max_docid, n=ngram_n,
            scan_corpus=s3,
        )
        # contaminated-scale relation -> sorted id array, broadcast once
        cont_ids = np.sort(
            np.concatenate(
                [
                    b["docid"].to_numpy(zero_copy_only=False)
                    for b in cont.iter_batches(batch_format="pyarrow")
                ]
                or [np.empty(0, np.int64)]
            ).astype(np.int64)
        )
        cref = ray.put(cont_ids)

        def clean_fn(t: pa.Table) -> pa.Table:
            c = ray.get(cref)
            if t.num_rows == 0:
                return t
            ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            keep = ids >= holdout_max_docid  # holdout never trains
            if c.size:
                pos = np.searchsorted(c, ids)
                pos[pos == c.size] = 0
                keep &= c[pos] != ids
            return t.filter(pa.array(keep))

        m4 = _finish_stage(
            s4,
            p4,
            _write_doc_parts(map_refs(clean_fn, read_docs_refs(s3)), s4, n_parts),
        )
    n4 = int(m4["n_rows"])
    stats["n_contaminated_dropped"] = n3 - n4
    stats["n_after_decontamination"] = n4

    # ---- stage 5: content-addressed split + final partitioned write
    final = os.path.join(out_dir, "final")
    p5 = {
        "val_pct": val_pct,
        "test_pct": test_pct,
        "n_parts": n_parts,
        "input_fp": _corpus_fp(docs_files(s4)),
    }
    m5 = _stage_done(final, p5)
    if m5 is None:
        import hashlib

        _begin_stage(final, p5)

        def with_split(t: pa.Table) -> pa.Table:
            # identical rule to split.split_docs_ds: md5_low64(text) % 100
            texts = t["text"].to_pylist()
            low64 = np.fromiter(
                (
                    int.from_bytes(
                        hashlib.md5((x or "").encode("utf-8")).digest()[8:16],
                        "little",
                    )
                    for x in texts
                ),
                dtype=np.uint64,
                count=len(texts),
            )
            bucket = (low64 % np.uint64(100)).astype(np.int64)
            split = np.where(
                bucket < val_pct,
                "val",
                np.where(bucket < val_pct + test_pct, "test", "train"),
            )
            return t.append_column("split", pa.array(split.tolist(), pa.string()))

        # one corpus scan + md5 pass total: the three per-split sinks below
        # re-read object-store blocks, not parquet
        refs = map_refs(with_split, read_docs_refs(s4))
        counts = {"train": 0, "val": 0, "test": 0}
        for sp in ("train", "val", "test"):
            sdir = os.path.join(final, sp)

            def only(t: pa.Table, _sp=sp) -> pa.Table:
                import pyarrow.compute as pc

                return t.filter(pc.equal(t["split"], _sp)).drop_columns(["split"])

            counts[sp] = _write_doc_parts(map_refs(only, refs), sdir, n_parts)
        m5 = _finish_stage(final, p5, sum(counts.values()), splits=counts)
    stats["splits"] = {k: int(v) for k, v in m5["splits"].items()}
    stats["n_final"] = int(sum(stats["splits"].values()))
    return stats


# --------------------------------------------- transcripts -> SFT dataset


def _conv_drop_set(corpus, tau: float = 0.8, hash_fn: str = "md5") -> set:
    """conv_ids to DROP: exact-dup losers (all but min conv_id per content
    hash) plus VERIFIED near-dup cluster losers — minhash LSH candidates are
    only edges after their true conversation-shingle jaccard clears ``tau``
    (an unverified drop would delete merely-overlapping conversations:
    b=32/r=2 banding collides ~28% of the time even at jaccard 0.1). All
    relations are dup-scale, so the driver-side verify/union-find is
    output-proportional — never conversation-scale."""
    import polars as pl

    drop: set = set()
    # exact: conversation_dedup_ds emits the SURVIVOR per hash group; losers
    # are group members != survivor — recover them from the pair relation of
    # group sizes > 1 by re-grouping on conv_hash with all members.
    # conversation_dedup_ds collapses to one row per hash, so instead reuse
    # the reassembly+hash directly here (same rule, losers visible).
    # ``hash_fn`` picks the content-hash path (dedup.text_hash_column):
    # "fast" = vectorized 64-bit, "md5" = the oracle-shared convention.
    import pyarrow as _pa

    import ray

    from web_search_engine_ray.pipelines.dedup import text_hash_column
    from web_search_engine_ray.pipelines.transcripts_ops import _conversation_text_refs

    def hash_rows(t: _pa.Table) -> _pa.Table:
        return _pa.table(
            {
                "conv_hash": text_hash_column(t["conv_text"], hash_fn),
                "conv_id": t["conv_id"].cast(_pa.string()),
            }
        )

    def losers(t: _pa.Table) -> _pa.Table:
        df = pl.from_arrow(t)
        out = (
            df.with_columns(keep=pl.col("conv_id").min().over("conv_hash"))
            .filter(pl.col("conv_id") != pl.col("keep"))
            .select("conv_id")
        )
        return out.to_arrow().cast(_pa.schema([("conv_id", _pa.string())]))

    # ONE reassembly (block refs) for all three consumers: exact-hash pass,
    # minhash bands, jaccard semi-join corpus side
    conv_text = _conversation_text_refs(corpus)
    texts, n = conv_text
    lost = exchange_map(map_refs(hash_rows, texts), hash_route("conv_hash", n), n, losers)
    for b in ray.get(lost):
        drop.update(b["conv_id"].to_pylist())

    # near-dup: minhash candidates -> exact jaccard verify, ALL distributed
    # (conversation_jaccard_dups_ds: the candidate relation never reaches
    # the driver — the 2M-turn stress produced 5.35M candidates but ~500
    # true dups). Only the VERIFIED pairs land here, for the union-find,
    # which is output-proportional by construction.
    from web_search_engine_ray.pipelines.transcripts_ops import (
        conversation_jaccard_dups_ds,
    )

    pairs: list = []
    verified = conversation_jaccard_dups_ds(corpus, tau=tau, conv_text=conv_text)
    for b in verified.iter_batches(batch_format="pyarrow"):
        pairs.extend(zip(b["conv_a"].to_pylist(), b["conv_b"].to_pylist()))
    parent: dict = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            parent[hi] = lo
    clusters: dict = {}
    for a, b in pairs:
        for x in (a, b):
            clusters.setdefault(find(x), set()).add(x)
    for root, members in clusters.items():
        keep = min(members)
        drop.update(m for m in members if m != keep and m not in drop)
    return drop


def run_sft_dataset_job(
    corpus: str,
    out_dir: str,
    max_context_turns: int = 64,
    val_pct: int = 10,
    test_pct: int = 10,
    n_parts: int = 16,
    drop_malformed: bool = False,
    hash_fn: str = "fast",
) -> dict:
    """Transcripts -> SFT training dataset, staged and resumable:

        conversation exact dedup + verified near-dup removal
        (+ optional malformed-structure drop)  ->
        SFT example construction (per-assistant-turn context/target)  ->
        CONVERSATION-addressed train/val/test split  ->  parquet per split.

    The split keys on md5(conv_id), not the example text, so every example
    of a conversation lands in the same split — the leakage rule that
    matters for conversational data (examples of one conversation share
    most of their context; splitting them across train/val would leak).

    ``drop_malformed`` additionally drops conversations failing
    ``conversation_structure_stats_ds``'s well-formedness rule (must start
    with user, end with assistant, no empty turns, contiguous turn_idx).
    The malformed id set rides the same driver-held drop set as the dup
    losers — fine while the malformed FRACTION is filter-scale; a corpus
    where it is corpus-scale should fix ingestion instead."""
    import hashlib

    import polars as pl

    from web_search_engine_ray.pipelines.transcripts_ops import sft_examples_ds

    from web_search_engine_ray.sources.transcripts import corpus_files

    os.makedirs(out_dir, exist_ok=True)
    stats: dict = {"corpus": str(corpus), "out_dir": out_dir}

    # ---- stage 1: conversation-level dedup (exact + verified near-dup)
    s1 = os.path.join(out_dir, "s1_convs")
    p1 = {
        "n_parts": n_parts,
        "hash_fn": hash_fn,
        "input_fp": _corpus_fp(corpus_files(corpus)),
        "routing_probe": route_probe(n_parts),
    }
    if drop_malformed:  # key only when on: pre-flag markers stay resumable
        p1["drop_malformed"] = True
    m1 = _stage_done(s1, p1)
    if m1 is None:
        import ray

        _begin_stage(s1, p1)
        drop = _conv_drop_set(corpus, hash_fn=hash_fn)
        n_dup_dropped = len(drop)
        if drop_malformed:
            import pyarrow.compute as pc

            from web_search_engine_ray.pipelines.transcripts_ops import (
                conversation_structure_stats_ds,
            )

            bad = conversation_structure_stats_ds(corpus)
            for b in bad.iter_batches(batch_format="pyarrow"):
                keep_mask = pc.invert(b["is_wellformed"])
                drop.update(
                    b.filter(keep_mask)["conv_id"].to_pylist()
                )
        # build the Arrow value_set ONCE on the driver; workers only gather
        dref = ray.put(pa.array(sorted(drop), pa.string()) if drop else None)

        def keep_rows(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            darr = ray.get(dref)
            if darr is None or t.num_rows == 0:
                return t
            dropped = pc.is_in(
                t["conv_id"], value_set=darr.cast(t["conv_id"].type)
            )
            return t.filter(pc.invert(dropped))

        os.makedirs(s1, exist_ok=True)

        route = hash_route("conv_id", n_parts)

        def write_part(t: pa.Table, pi: int) -> pa.Table:
            path = os.path.join(s1, f"transcripts_{pi:05d}.parquet")
            if os.path.exists(path):
                n = pq.read_metadata(path).num_rows
            elif t.num_rows == 0:
                n = 0  # empty partition (e.g. heavy filtering): no file
            else:
                out = pl.from_arrow(t).sort(["conv_id", "turn_idx"]).to_arrow()
                pq.write_table(out, path + ".tmp")
                os.replace(path + ".tmp", path)
                n = t.num_rows
            return pa.table({"n": pa.array([int(n)], pa.int64())})

        refs = read_refs(corpus_files(corpus), ["conv_id", "turn_idx", "role", "text"])
        parts = exchange_map(map_refs(keep_rows, refs), route, n_parts, write_part, with_index=True)
        n1 = _rows_written(ray.get(parts))
        m1 = _finish_stage(
            s1,
            p1,
            n1,
            n_convs_dropped=len(drop),
            n_malformed_dropped=(len(drop) - n_dup_dropped) if drop_malformed else 0,
        )
    stats["n_turns_after_dedup"] = int(m1["n_rows"])
    stats["n_convs_dropped"] = int(m1["n_convs_dropped"])
    stats["n_malformed_dropped"] = int(m1.get("n_malformed_dropped", 0))

    # ---- stage 2: SFT examples + conversation-addressed split
    final = os.path.join(out_dir, "final")
    p2 = {
        "max_context_turns": max_context_turns,
        "val_pct": val_pct,
        "test_pct": test_pct,
        "n_parts": n_parts,
        "input_fp": _corpus_fp(
            sorted(
                os.path.join(s1, f) for f in os.listdir(s1) if f.endswith(".parquet")
            )
        ),
        "routing_probe": route_probe(n_parts),
    }
    m2 = _stage_done(final, p2)
    if m2 is None:
        _begin_stage(final, p2)
        import ray

        ex = sft_examples_ds(s1, max_context_turns=max_context_turns)

        def with_split(t: pa.Table) -> pa.Table:
            convs = t["conv_id"].to_pylist()
            low64 = np.fromiter(
                (
                    int.from_bytes(
                        hashlib.md5(c.encode("utf-8")).digest()[8:16], "little"
                    )
                    for c in convs
                ),
                dtype=np.uint64,
                count=len(convs),
            )
            bucket = (low64 % np.uint64(100)).astype(np.int64)
            split = np.where(
                bucket < val_pct,
                "val",
                np.where(bucket < val_pct + test_pct, "test", "train"),
            )
            return t.append_column("split", pa.array(split.tolist(), pa.string()))

        refs = map_refs(with_split, arrow_refs(ex))
        counts = {}
        for sp in ("train", "val", "test"):
            sdir = os.path.join(final, sp)
            os.makedirs(sdir, exist_ok=True)

            def only(t: pa.Table, _sp=sp) -> pa.Table:
                import pyarrow.compute as pc

                return t.filter(pc.equal(t["split"], _sp)).drop_columns(["split"])

            import polars as _pl

            route = hash_route("conv_id", n_parts)

            def write_part(t: pa.Table, pi: int, _sdir=sdir) -> pa.Table:
                path = os.path.join(_sdir, f"sft_{pi:05d}.parquet")
                if os.path.exists(path):
                    n = pq.read_metadata(path).num_rows
                elif t.num_rows == 0:
                    n = 0  # empty partition (e.g. heavy filtering): no file
                else:
                    out = _pl.from_arrow(t).sort(["conv_id", "turn_idx"]).to_arrow()
                    pq.write_table(out, path + ".tmp")
                    os.replace(path + ".tmp", path)
                    n = t.num_rows
                return pa.table({"n": pa.array([int(n)], pa.int64())})

            parts = exchange_map(map_refs(only, refs), route, n_parts, write_part, with_index=True)
            counts[sp] = _rows_written(ray.get(parts))
        m2 = _finish_stage(final, p2, sum(counts.values()), splits=counts)
    stats["splits"] = {k: int(v) for k, v in m2["splits"].items()}
    stats["n_examples"] = int(sum(stats["splits"].values()))
    return stats
