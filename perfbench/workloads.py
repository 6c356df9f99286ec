"""The three workloads. Each one generates its seeded inputs, sets up what
it serves (timed as set-up), measures a fixed window, and checks outputs
outside the window. Times are reported net of the host's interference:
scaled by the run's calibration jobs (``harness.calibrate``), which run
on the driver thread at idle points of the window and outside the timed
operations, and for the builds and dedup runs, which use every CPU, also
less the CPU time stolen meanwhile (``harness.StealClock``). Each result
also carries them as measured.

- ``build``: repeated fresh ``build_index`` runs over one corpus; all work
  is in the build layers.
- ``search``: one closed-loop client POSTs ``/search`` to the Flask app;
  all work is in the query kernel, the state readers and the spell path.
- ``dedup``: repeated ``conversation_jaccard_dups_ds`` runs; the only
  workload that goes through ``stages.exchange``.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import time

from perfbench import checks, inputs, layers
from perfbench.harness import (
    NUM_CPUS,
    OP_TIMEOUT_S,
    RssSampler,
    StealClock,
    run_op,
    tail,
)

TOPK = 10
ROWS_PER_FILE = 4000
# the named search layers' least share of the client-measured request time;
# the rest is the test client's, WSGI's and Flask's own dispatch (about
# 0.65 ms of a 4-5 ms mean request on a 4-vCPU x86 host)
SEARCH_COVERAGE = 0.7
# the shape of the repository bench (bench.py): few heavy terms, salted
BUILD_KW = dict(partition_rows=ROWS_PER_FILE, num_shards=8, n_salts=8, heavy_df_frac=0.5, resume=False)
MIN_OPS = 5  # builds or dedup runs in one window, whatever its length
CAL_FIRST = 5  # calibration jobs before a window
CAL_PER_OP = 3  # calibration jobs after each build or dedup run
CAL_EVERY = 100  # requests between two calibration jobs on search


def _mods():
    # imported on use: the supervising process must not load Ray
    from web_search_engine_ray.pipelines import build, transcripts_ops

    return build, transcripts_ops


def _index_bytes(index_dir: str) -> int:
    d = os.path.join(index_dir, "index")
    return sum(os.path.getsize(os.path.join(d, f)) for f in os.listdir(d))


def _timing(ms: list[float], per_s: float, q: float | None) -> dict:
    t, which = tail(ms, q)
    return {"work_per_s": per_s, "p50_ms": statistics.median(ms), "tail_ms": t, "_tail_is": which}


def _batch_window(ctx, rows: int, op) -> dict:
    """Run ``op()`` back to back for the window, and at least ``MIN_OPS``
    times; the batch's metrics, net of the host's interference and as
    measured."""
    clocks = []
    ctx.calibrate(CAL_FIRST)
    t_end = time.perf_counter() + ctx.seconds
    with RssSampler(workers=True) as rss:
        while time.perf_counter() < t_end or len(clocks) < MIN_OPS:
            ctx.attempted += 1
            with StealClock() as c:
                op()
            clocks.append(c)
            t_end += ctx.calibrate(CAL_PER_OP)
    slow = ctx.slowdown()
    net = [c.s * 1e3 / slow for c in clocks]
    wall = [c.wall * 1e3 for c in clocks]
    return {
        **_timing(net, rows * 1e3 / statistics.median(net), None),
        "rss_mb": rss.mb,
        "_raw": _timing(wall, rows * 1e3 / statistics.median(wall), None),
        "_samples": len(clocks),
        "_net_of": f"slowdown {slow:.4f}; stolen shares " + " ".join(f"{c.stolen:.3f}" for c in clocks),
    }


class Workload:
    name = ""
    # coverage metric -> the least value a traced run must reach
    COVERAGE: dict[str, float] = {}

    def inputs(self, ctx) -> None:
        """Generate the seeded inputs (untimed)."""

    def setup(self, ctx) -> list[float]:
        """Untimed preparation plus timed set-up samples (seconds less
        stolen CPU time)."""
        raise NotImplementedError

    def measure(self, ctx) -> dict:
        raise NotImplementedError

    def check(self, ctx) -> None:
        """Compare the outputs of the last measure with independent results."""

    def reset(self, ctx) -> None:
        """Restore the pre-measure state before the traced phase."""

    def layers(self, ctx, spans) -> dict:
        return {}


# ------------------------------------------------------------------ build


class Build(Workload):
    """Fresh index builds, back to back, for the whole window."""

    name = "build"
    CONVS = 10_000
    COVERAGE = {"trace.build_coverage": 0.9}

    def inputs(self, ctx):
        t = inputs.make_convs(ctx.seed, self.CONVS)
        self.table = t
        self.files = inputs.write_files(t, ctx.path("corpus"), ROWS_PER_FILE)

    def setup(self, ctx):
        build, _ = _mods()
        ctx.set_stage("build.warmup")
        # worker processes and their imports start on the first build; a
        # user pays that once, so it is the set-up and stays out of the window
        with StealClock() as c:
            run_op("build.warmup", lambda: build.build_index(self.files[:1], ctx.path("warm"), **BUILD_KW))
        return [c.s]

    def measure(self, ctx):
        build, _ = _mods()
        out = ctx.path("idx")

        def one():
            shutil.rmtree(out, ignore_errors=True)
            ctx.set_stage("build.index")
            self.result = run_op("build.index", lambda: build.build_index(self.files, out, **BUILD_KW))

        return _batch_window(ctx, self.table.num_rows, one)

    def check(self, ctx):
        import duckdb

        from web_search_engine_ray.pipelines.query import Searcher

        ctx.set_stage("build.check")
        con = duckdb.connect()
        con.execute("SET threads = 4")
        con.register("docs", self.table.select(["text"]))
        n_post = con.execute(
            "SELECT count(*) FROM (SELECT DISTINCT rid, t FROM (SELECT rid, unnest("
            f"regexp_extract_all(lower(coalesce(text, '')), '{checks.PAT}')) AS t "
            "FROM (SELECT row_number() OVER () AS rid, text FROM docs)))"
        ).fetchone()[0]
        if self.result["n_postings"] != n_post:
            ctx.fail(f"build: {self.result['n_postings']} postings, oracle {n_post}")
        s = Searcher(ctx.path("idx"))
        if s.N != self.table.num_rows:
            ctx.fail(f"build: N={s.N}, corpus has {self.table.num_rows} turns")
        # df=1 markers: each must post exactly its own turn's docid
        texts = self.table["text"].to_pylist()
        rng = random.Random(ctx.seed)
        marked = [i for i, x in enumerate(texts) if x and " uq" in x]
        for i in rng.sample(marked, min(25, len(marked))):
            term = texts[i].rsplit(" ", 1)[1]
            d, _ = s.postings(term)
            if d.tolist() != [i]:
                ctx.fail(f"build: marker {term} posts {d.tolist()[:3]}, expected [{i}]")
        s.close()

    def layers(self, ctx, spans):
        idx = ctx.path("idx")
        return layers.build_layers(spans, NUM_CPUS, _index_bytes(idx) / self.result["n_postings"])


# ----------------------------------------------------------------- search


class Search(Workload):
    """One closed-loop client against the Flask app's ``POST /search``."""

    name = "search"
    COVERAGE = {"trace.search_coverage": SEARCH_COVERAGE}
    CONVS = 15_000
    ROWS = 8_000  # the repository bench's file size
    WARMUP = 200
    CHECKED = 60
    TAIL_Q = 0.99
    # a window runs on until it holds this many requests, so that its p99
    # has 30 beyond it and is steadier from run to run than with 10
    MIN_REQUESTS = 3000

    def inputs(self, ctx):
        self.table = inputs.make_convs(ctx.seed, self.CONVS)
        self.files = inputs.write_files(self.table, ctx.path("corpus"), self.ROWS)
        self.stream = inputs.QueryStream(self.table, ctx.seed)
        self.warm = self.stream.queries(self.WARMUP, stream=1)
        self.queries = self.stream.queries(20_000, stream=2)
        # the traced window continues the stream where the untraced one
        # stopped, so both meet the decoded-list cache in the same state
        self.next_q = 0

    def setup(self, ctx):
        from web_search_engine_ray import serve

        build, _ = _mods()
        ctx.set_stage("search.build")
        self.idx = ctx.path("idx")
        kw = {**BUILD_KW, "partition_rows": self.ROWS}
        self.build = run_op("search.build", lambda: build.build_index(self.files, self.idx, **kw))
        samples = []
        for _ in range(3):
            # app creation builds the spell artifact beside a fresh index;
            # remove it so every sample pays what a fresh deployment pays
            shutil.rmtree(os.path.join(self.idx, "spell"), ignore_errors=True)
            ctx.set_stage("search.create_app")
            with StealClock() as c:
                self.app = run_op("search.create_app", lambda: serve.create_app(self.idx))
            samples.append(c.s)
        self.client = self.app.test_client()
        ctx.set_stage("search.warmup")
        for q in self.warm:
            self._post(q)
        return samples

    def reset(self, ctx):
        from perfbench import trace

        view = self.app.view_functions["search"]

        def handler(*a, **kw):
            with trace.span("serve.handler"):
                return view(*a, **kw)

        self.app.view_functions["search"] = handler

    def _post(self, q):
        r = self.client.post("/search", json={"query": q["query"], "mode": q["mode"], "topk": TOPK})
        if r.status_code != 200:
            raise RuntimeError(f"HTTP {r.status_code} for {q['query']!r}")
        return [(x["docid"], x["score"]) for x in r.get_json()["results"]]

    def measure(self, ctx):
        from perfbench import trace

        rng = random.Random(ctx.seed + 17)
        self.done: list[dict] = []
        lat: list[float] = []
        ctx.calibrate(CAL_FIRST)
        cal_s = 0.0
        t_end = time.perf_counter() + ctx.seconds

        def client():
            nonlocal cal_s, t_end
            sent = 0
            while time.perf_counter() < t_end or len(lat) < self.MIN_REQUESTS:
                sent += 1
                if sent % CAL_EVERY == 0:
                    c = ctx.calibrate(1)
                    cal_s += c
                    t_end += c
                i = self.next_q
                q = self.queries[i % len(self.queries)]
                self.next_q += 1
                ctx.attempted += 1
                t0 = time.perf_counter()
                try:
                    with trace.span("serve.request", rid=i):
                        res = self._post(q)
                except Exception as e:  # one failed request, keep serving
                    ctx.fail(f"search: {q['query']!r}: {e!r}")
                    continue
                ms = (time.perf_counter() - t0) * 1e3
                lat.append(ms)
                self.done.append({**q, "ms": ms, "res": res, "terms": len(q["query"].split()), "rid": i})

        ctx.set_stage("search.query")
        with RssSampler(workers=False) as rss:
            t0 = time.perf_counter()
            run_op("search.query", client, timeout=ctx.seconds + OP_TIMEOUT_S)
            elapsed = time.perf_counter() - t0 - cal_s
        self.sample = rng.sample(range(len(self.done)), min(self.CHECKED, len(self.done)))
        slow = ctx.slowdown()
        return {
            **_timing([x / slow for x in lat], len(lat) * slow / elapsed, self.TAIL_Q),
            "rss_mb": rss.mb,
            "_raw": _timing(lat, len(lat) / elapsed, self.TAIL_Q),
            "_samples": len(lat),
            "_net_of": f"slowdown {slow:.4f}",
        }

    def check(self, ctx):
        ctx.set_stage("search.check")
        oracle = checks.BM25Oracle(
            self.table["text"], (t for j in self.sample for t in self.done[j]["query"].split())
        )
        for j in self.sample:
            q = self.done[j]
            bad = checks.topk_mismatch(q["res"], oracle.scores(q["query"], q["mode"]), TOPK)
            if bad:
                ctx.fail(f"search: {q['mode']} {q['query']!r}: {bad}")

    def layers(self, ctx, spans):
        out = layers.search_layers(spans, self.done)
        out["build.index_bytes_per_posting"] = _index_bytes(self.idx) / self.build["n_postings"]
        return out


# ------------------------------------------------------------------ dedup


class Dedup(Workload):
    """Repeated verified near-duplicate conversation runs."""

    name = "dedup"
    CONVS = 3_000
    PLANTED = 16
    TAU = 0.8

    def inputs(self, ctx):
        t = inputs.make_convs(ctx.seed, self.CONVS)
        self.table, self.planted = inputs.plant_near_dups(t, ctx.seed, self.PLANTED)
        self.files = inputs.write_files(self.table, ctx.path("corpus"), ROWS_PER_FILE)

    def _run(self, files=None):
        import ray

        _, ops = _mods()
        ds = ops.conversation_jaccard_dups_ds(files or self.files, tau=self.TAU)
        out = set()
        for t in ray.get(ds.to_arrow_refs()):
            out.update(zip(t["conv_a"].to_pylist(), t["conv_b"].to_pylist(), t["jaccard"].to_pylist()))
        return out

    def setup(self, ctx):
        ctx.set_stage("dedup.warmup")
        # as on build: the first run starts the worker processes
        with StealClock() as c:
            run_op("dedup.warmup", lambda: self._run(self.files[:1]))
        return [c.s]

    def measure(self, ctx):
        from perfbench import trace

        self.windows = []

        def one():
            ctx.set_stage("dedup.run")
            w0 = time.time()
            with trace.span("dedup.run"):
                self.pairs = run_op("dedup.run", self._run)
            self.windows.append((w0, time.time()))

        return _batch_window(ctx, self.table.num_rows, one)

    def check(self, ctx):
        ctx.set_stage("dedup.check")
        texts = inputs.conv_texts(self.table)
        found = {(a, b) for a, b, _ in self.pairs}
        for p in self.planted:
            if p not in found:
                ctx.fail(f"dedup: planted pair {p} not found")
        for a, b, j in self.pairs:
            mine = inputs.shingle_jaccard(texts[a], texts[b])
            if mine < self.TAU or abs(mine - j) > 1e-4:
                ctx.fail(f"dedup: pair {a},{b} reported jaccard {j}, recomputed {mine:.6f}")

    def layers(self, ctx, spans):
        import ray

        time.sleep(1.5)  # task events reach the GCS about once a second
        tasks = [
            {"name": e["name"], "ts": float(e["ts"]), "dur": float(e["dur"])}
            for e in ray.timeline()
            if e.get("ph") == "X" and str(e.get("cat", "")).startswith("task")
        ]
        return layers.dedup_layers(spans, self.windows, tasks, NUM_CPUS)


WORKLOADS = {w.name: w for w in (Build, Search, Dedup)}
