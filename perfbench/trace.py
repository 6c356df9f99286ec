"""Span tracer for traced benchmark runs (``--trace 1``).

Wrappers are installed from outside the program, around the public entry
points of each layer, in the driver (:func:`install_driver`) and in every
Ray worker (:func:`install_worker`, run by Ray as the
``worker_process_setup_hook``). A span records ``(id, parent, request id,
name, start, end, attrs)`` with ``time.monotonic_ns``, which is one
system-wide clock on Linux, so driver and worker spans share a time base.

Spans stay in memory. The driver writes nothing until the benchmark ends;
a worker appends a root span and its children to ``<dir>/w<pid>.jsonl``
when the root span closes, because a worker has no "end" the driver can
wait for. Recording is switched on and off per root span: in the driver by
:meth:`Recorder.set_active`, in workers by the presence of the file
``<dir>/on``, so one process can measure an untraced phase and then a
traced one.

Wrappers keep the wrapped function's module and qualified name
(``functools.wraps``) so that Ray pickles them by reference and each worker
resolves its own copy.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import threading
import time

# The process's recorder. Wrappers installed by monkeypatching can only
# find it through a module global; it is set once per process by the
# install functions below and never replaced.
RECORDER: "Recorder | None" = None

FLAG = "on"


class Recorder:
    def __init__(self, trace_dir: str, sink: str | None):
        self.dir = trace_dir
        self.sink = sink
        self.spans: list[list] = []
        self._tls = threading.local()
        self._ids = itertools.count(1)
        self._active = False
        self._file = None

    # -- switching ------------------------------------------------------
    def set_active(self, on: bool) -> None:
        self._active = on

    def _root_active(self) -> bool:
        if self.sink is None:
            return self._active
        return os.path.exists(os.path.join(self.dir, FLAG))

    # -- spans ----------------------------------------------------------
    def _stack(self) -> list:
        st = getattr(self._tls, "stack", None)
        if st is None:
            st = self._tls.stack = []
        return st

    def parent_name(self) -> str | None:
        st = self._stack()
        return st[-1][3] if st else None

    def start(self, name: str, attrs: dict | None = None, rid=None):
        st = self._stack()
        if st:
            parent = st[-1]
            pid_, rid = parent[0], parent[2]
        else:
            if not self._root_active():
                return None
            pid_ = 0
        rec = [next(self._ids), pid_, rid, name, time.monotonic_ns(), 0, attrs]
        st.append(rec)
        return rec

    def end(self, rec: list) -> None:
        rec[5] = time.monotonic_ns()
        st = self._stack()
        st.pop()
        self.spans.append(rec)
        if not st and self.sink is not None:
            self._flush()

    def _flush(self) -> None:
        if self._file is None:
            self._file = open(self.sink, "a")
        pid = os.getpid()
        lines = [json.dumps([pid, *s]) for s in self.spans]
        self.spans.clear()
        self._file.write("\n".join(lines) + "\n")
        self._file.flush()

    def dump(self) -> list[list]:
        """Driver spans plus every worker file, as ``[pid, id, parent, rid,
        name, t0, t1, attrs]`` rows."""
        pid = os.getpid()
        rows = [[pid, *s] for s in self.spans]
        for f in sorted(os.listdir(self.dir)):
            if f.startswith("w") and f.endswith(".jsonl"):
                with open(os.path.join(self.dir, f)) as fh:
                    rows.extend(json.loads(line) for line in fh if line.strip())
        return rows


@contextlib.contextmanager
def span(name: str, attrs: dict | None = None, rid=None):
    """A span in this process's recorder; yields its record, or None when
    nothing is recording."""
    r = RECORDER
    rec = r.start(name, attrs, rid) if r is not None else None
    try:
        yield rec
    finally:
        if rec is not None:
            r.end(rec)


def _wrap(owner, attr: str, name: str, result=None, under: str | None = None):
    """Replace ``owner.attr`` by a span-recording wrapper. ``result(out)``
    returns extra span attrs; ``under`` records only when the enclosing span
    has that name."""
    orig = getattr(owner, attr)

    @functools.wraps(orig)
    def wrapper(*a, **kw):
        r = RECORDER
        if r is None or (under is not None and r.parent_name() != under):
            return orig(*a, **kw)
        rec = r.start(name)
        if rec is None:
            return orig(*a, **kw)
        try:
            out = orig(*a, **kw)
            if result is not None:
                extra = result(out)
                rec[6] = {**(rec[6] or {}), **extra}
            return out
        finally:
            r.end(rec)

    setattr(owner, attr, wrapper)


def _build_attrs(b: dict) -> dict:
    sizes = [int(s.get("postings_bytes", 0)) for s in b.get("shards", [])]
    return {
        "n_partitions": b["n_partitions"],
        "n_postings": b["n_postings"],
        "heavy_terms": len(b["heavy_terms"]),
        "shard_bytes": sizes,
    }


class TracedFn:
    """A partition function handed to ``exchange_map`` that records its own
    span (input and output rows) in whichever worker runs it."""

    def __init__(self, fn):
        self.fn = fn
        self.name = getattr(fn, "__name__", "fn")

    def __call__(self, t, *rest):
        with span("exchange.apply_fn", {"fn": self.name, "rows_in": t.num_rows}) as rec:
            out = self.fn(t, *rest)
            if rec is not None:
                rec[6]["rows_out"] = out.num_rows
            return out


def _install_common() -> None:
    from web_search_engine_ray.pipelines import build, query, spell
    from web_search_engine_ray.state import docstats, lexicon, listio

    _wrap(build, "build_index", "build.index", result=_build_attrs)
    _wrap(build, "plan_partitions", "build.plan_partitions")
    _wrap(build, "detect_heavy_sample", "build.detect_heavy")
    _wrap(build, "build_runs", "build.runs")
    _wrap(build, "merge_runs_mapside", "build.merge")
    _wrap(build, "_build_one_partition", "build.partition")
    _wrap(build, "read_partition", "transcripts.read")
    _wrap(build, "batch_postings", "tokenize.batch_postings")
    _wrap(build, "assign_gkeys", "build.assign_gkeys")
    _wrap(build, "_encode_normal_shard", "build.shard")
    _wrap(build, "_encode_heavy_shard", "build.shard")
    _wrap(listio.PostingsShardWriter, "add_term", "listio.encode")
    _wrap(listio.PostingsShardWriter, "add_term_stream", "listio.encode")
    _wrap(listio.PostingsShardReader, "read_postings", "listio.decode")
    _wrap(listio.PostingsShardReader, "_decode_block", "listio.decode")
    _wrap(listio.PostingsShardReader, "read_tfs_for", "listio.decode")
    _wrap(listio._DecodedLRU, "get", "listio.cache_get", result=lambda out: {"hit": out is not None})
    _wrap(lexicon.LexiconShard, "get", "lexicon.get")
    _wrap(lexicon.LexiconShard, "save", "lexicon.save")
    _wrap(docstats.DocLengths, "get_many", "docstats.get_many")
    _wrap(query.Searcher, "bm25_topk", "query.bm25_topk")
    _wrap(query.Searcher, "lookup", "query.lookup")
    _wrap(
        query.Searcher,
        "_bm25_topk_maxscore",
        "query.maxscore",
        result=lambda out: {"taken": out is not None},
    )
    _wrap(spell.SpellIndex, "suggest", "spell.suggest")


def install_driver(trace_dir: str) -> Recorder:
    """Install every wrapper in this (driver) process; recording starts
    with ``RECORDER.set_active(True)``."""
    global RECORDER
    import ray.data

    from web_search_engine_ray.stages import exchange

    RECORDER = Recorder(trace_dir, sink=None)
    _install_common()
    _wrap(ray.data.Dataset, "to_arrow_refs", "exchange.upstream_wait", under="exchange.map")

    orig = exchange.exchange_map

    @functools.wraps(orig)
    def exchange_map(ds, part, n_parts, fn, *a, **kw):
        with span("exchange.map", {"fn": getattr(fn, "__name__", "fn")}):
            return orig(ds, part, n_parts, TracedFn(fn), *a, **kw)

    exchange.exchange_map = exchange_map
    return RECORDER


def install_worker() -> None:
    """Ray ``worker_process_setup_hook``: wrap the layers in this worker."""
    global RECORDER
    d = os.environ.get("PERFBENCH_TRACE_DIR")
    if not d or RECORDER is not None:
        return
    RECORDER = Recorder(d, sink=os.path.join(d, f"w{os.getpid()}.jsonl"))
    _install_common()


def set_workers_active(trace_dir: str, on: bool) -> None:
    flag = os.path.join(trace_dir, FLAG)
    if on:
        open(flag, "w").close()
    elif os.path.exists(flag):
        os.remove(flag)
