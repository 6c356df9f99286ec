"""Benchmark entry point.

    python3 perfbench/run.py --workload {build,search,dedup} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout. It prints a host record, one line per
metric with its unit, and as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. End-to-end
times are net of the shared host's interference (see ``workloads``); the
lines before the result give them as measured too. A traced run first
measures the window untraced, then again traced, and reports the
difference as the tracing overhead.

Everything it writes goes under ``.pb/`` in the checkout (Ray's session
directory too, when that path is short enough for Ray's sockets), and is
removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

T_START = time.monotonic()
RUN_LIMIT_S = 175.0  # the whole command, a retry included
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def metric_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics a run reports, as ``BENCHMARK.json``
    lists them: per-layer with tracing on, end-to-end with it off."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "web_search_engine_ray")
    for d, dirs, files in sorted(os.walk(pkg)):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                h.update(os.path.relpath(os.path.join(d, f), ROOT).encode())
                with open(os.path.join(d, f), "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def ray_init(ctx) -> None:
    import ray
    import ray.data

    from perfbench.harness import NUM_CPUS

    kw = dict(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        log_to_driver=False,
        object_store_memory=768 << 20,
    )
    tmp = ctx.path("r")
    # Ray puts unix sockets under its temp dir; their paths must stay
    # under 108 bytes, so a deep checkout keeps Ray's default temp dir
    if len(tmp) <= 40:
        kw["_temp_dir"] = tmp
    if ctx.trace:
        kw["runtime_env"] = {
            "worker_process_setup_hook": "perfbench.trace.install_worker",
            "env_vars": {"PERFBENCH_TRACE_DIR": ctx.trace_dir},
        }
    ray.init(**kw)
    ray.data.DataContext.get_current().enable_progress_bars = False


def stop_everything(timeout: float = 20.0) -> None:
    """Shut Ray down, then kill and reap whatever this process started."""
    import ray

    t = threading.Thread(target=ray.shutdown, daemon=True)
    t.start()
    t.join(timeout)
    from perfbench.harness import descendants

    left = descendants(os.getpid())
    for p in left:
        try:
            os.kill(p, signal.SIGKILL)
        except OSError:
            pass
    deadline = time.monotonic() + 10
    for p in left:
        while time.monotonic() < deadline:
            try:
                if os.waitpid(p, os.WNOHANG)[0]:
                    break
            except ChildProcessError:  # not our child: wait for it to vanish
                if not os.path.exists(f"/proc/{p}"):
                    break
            time.sleep(0.05)


def emit(ctx, metrics: dict, units: dict, host: dict, notes: list[str]) -> None:
    from perfbench.layers import MOVES

    print(json.dumps({"host": host}))
    for n in notes:
        print(n)
    for k, v in metrics.items():
        moves = f"  moves {MOVES[k]}" if ctx.trace else ""
        print(f"{k:36s} {v:14.6g} {units[k]:6s}{moves}")
    if ctx.errors:
        print("errors:", *ctx.errors, sep="\n  ")
    correct = ctx.failed == 0 and not ctx.errors
    print(
        f"error_rate {ctx.failed}/{max(1, ctx.attempted)} = "
        f"{ctx.failed / max(1, ctx.attempted):.6f}"
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(1, ctx.attempted),
                "failed": ctx.failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        ),
        flush=True,
    )


def _is_result(line: str) -> bool:
    try:
        r = json.loads(line)
    except ValueError:
        return False
    return isinstance(r, dict) and set(r) == {"correct", "attempted", "failed", "metrics"}


def _reap_group(pgid: int) -> None:
    """Kill what is left of a finished attempt's process group and wait
    until every member has gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        alive = False
        for d in os.listdir("/proc"):
            try:
                with open(f"/proc/{d}/stat") as f:
                    alive |= int(f.read().rsplit(")", 1)[1].split()[2]) == pgid
            except (OSError, IndexError, ValueError):
                continue
        if not alive:
            return
        time.sleep(0.1)


def supervise(argv: list[str], trace: bool) -> int:
    """Run the measurement in a child process. Ray's core worker can abort
    the driver process on an internal check (seen about once in twenty
    runs on Ray 2.49); such an attempt leaves no result, and is run once
    more if time allows. A lost attempt counts as one more operation
    attempted and failed in the result that is printed."""
    notes = []
    for attempt in (1, 2):
        left = RUN_LIMIT_S - (time.monotonic() - T_START)
        env = dict(os.environ, PERFBENCH_CHILD="1", PERFBENCH_DEADLINE_S=str(left - 5))
        child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), *argv],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, _ = child.communicate(timeout=left)
        except subprocess.TimeoutExpired:
            child.kill()
            out, _ = child.communicate()
        _reap_group(child.pid)
        lines = out.splitlines()
        if lines and _is_result(lines[-1]):
            res = json.loads(lines[-1])
            res["attempted"] += len(notes)
            res["failed"] += len(notes)
            print("\n".join(lines[:-1] + notes), flush=True)
            print(json.dumps(res), flush=True)
            return 0
        shutil.rmtree(os.path.join(ROOT, ".pb", str(child.pid)), ignore_errors=True)
        notes.append(f"attempt {attempt} exited with code {child.returncode} and no result")
        print(f"[perfbench] {notes[-1]}", file=sys.stderr, flush=True)
        if RUN_LIMIT_S - (time.monotonic() - T_START) < 90:
            break
    print("\n".join(notes))
    print(
        json.dumps(
            {
                "correct": False,
                "attempted": len(notes),
                "failed": len(notes),
                "metrics": {n: {"value": 0.0, "unit": u} for n, u in metric_units(trace).items()},
            }
        ),
        flush=True,
    )
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "web_search_engine_ray", "__init__.py")):
        print(f"perfbench: no web_search_engine_ray package under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if os.environ.get("PERFBENCH_CHILD") != "1":
        return supervise(sys.argv[1:], bool(args.trace))
    return measure(args, WORKLOADS[args.workload]())


def measure(args, wl) -> int:
    """One attempt: set up, measure, check, print the result."""
    os.environ["PYTHONPATH"] = os.pathsep.join(
        x for x in (ROOT, os.environ.get("PYTHONPATH")) if x
    )
    os.environ.setdefault("POLARS_MAX_THREADS", "1")
    os.environ.setdefault("OMP_NUM_THREADS", "1")

    from perfbench import layers
    from perfbench.harness import NUM_CPUS, Ctx, OpTimeout, cpu_jiffies, loadavg, stolen_share

    units = metric_units(bool(args.trace))

    deadline_s = float(os.environ["PERFBENCH_DEADLINE_S"])
    work = os.path.join(ROOT, ".pb", str(os.getpid()))
    os.makedirs(work)
    ctx = Ctx(ROOT, work, args.seed, args.seconds, bool(args.trace))
    os.makedirs(ctx.trace_dir)
    host = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host_cores": len(os.sched_getaffinity(0)),
        "ray_num_cpus": NUM_CPUS,
        "loadavg_before": loadavg(),
        "cpu_steal_share": None,
        "commit": commit(),
        "source_sha256_16": source_digest(),
    }
    e2e: dict = {}
    per_layer: dict = {}
    notes: list[str] = []
    done = threading.Event()

    jiffies = cpu_jiffies()

    def finish():
        host["loadavg_after"] = loadavg()
        host["cpu_steal_share"] = round(stolen_share(jiffies, cpu_jiffies()), 4)
        got = per_layer if args.trace else e2e
        emit(ctx, {n: float(got.get(n, 0.0)) for n in units}, units, host, notes)

    def watchdog():
        if done.wait(deadline_s - (time.monotonic() - T_START)):
            return
        ctx.fail(f"run deadline passed in stage {ctx.stage!r}")
        finish()
        stop_everything(timeout=5)
        shutil.rmtree(work, ignore_errors=True)
        os._exit(0)

    threading.Thread(target=watchdog, daemon=True).start()
    try:
        ctx.set_stage("ray.init")
        ray_init(ctx)
        ctx.set_stage("inputs")
        wl.inputs(ctx)
        samples = wl.setup(ctx)
        setup_s = statistics.median(samples)
        m = wl.measure(ctx)
        e2e.update({k: v for k, v in m.items() if not k.startswith("_")})
        e2e["setup_s"] = setup_s / ctx.slowdown()
        notes.append(
            f"samples {m['_samples']}; tail_ms is {m['_tail_is']}; "
            f"net of {m['_net_of']} ({len(ctx.cal_s)} calibration jobs)"
        )
        notes.append(
            "as measured: "
            + ", ".join(f"{k} {v:.6g}" for k, v in m["_raw"].items() if k[0] != "_")
            + f", setup_s {setup_s:.6g} less stolen time"
        )
        wl.check(ctx)
        if args.trace:
            from perfbench import trace

            ctx.set_stage("trace.reset")
            rec = trace.install_driver(ctx.trace_dir)
            wl.reset(ctx)
            rec.set_active(True)
            trace.set_workers_active(ctx.trace_dir, True)
            mt = wl.measure(ctx)
            rec.set_active(False)
            trace.set_workers_active(ctx.trace_dir, False)
            wl.check(ctx)
            ctx.set_stage("trace.reduce")
            per_layer.update(wl.layers(ctx, layers.Spans(rec.dump())))
            per_layer["trace.overhead_ms"] = mt["p50_ms"] - m["p50_ms"]
            per_layer["trace.overhead_frac"] = mt["p50_ms"] / m["p50_ms"] - 1.0
            notes.append(
                f"tracing overhead on p50_ms: {m['p50_ms']:.4f} untraced -> "
                f"{mt['p50_ms']:.4f} traced"
            )
            for name, floor in wl.COVERAGE.items():
                v = per_layer.get(name, 0.0)
                notes.append(f"coverage {name} = {v:.4f} (>= {floor}): {'PASS' if v >= floor else 'FAIL'}")
                if v < floor:
                    ctx.fail(f"coverage {name} = {v:.4f}, below {floor}")
    except OpTimeout as e:
        ctx.fail(str(e))
    except Exception as e:  # the run reports the failure instead of dying
        import traceback

        traceback.print_exc()
        ctx.fail(f"stage {ctx.stage!r}: {e!r}")
    ctx.set_stage("shutdown")
    stop_everything()
    done.set()
    finish()
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    code = main()
    sys.stdout.flush()
    os._exit(code)
