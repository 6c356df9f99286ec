"""Run-time plumbing shared by the workloads: the run context, stage
deadlines, host-speed calibration, resident-memory sampling and latency
statistics."""

from __future__ import annotations

import json
import os
import random
import re
import statistics
import sys
import threading
import time
from collections import Counter

import numpy as np

NUM_CPUS = 4  # Ray logical CPUs
OP_TIMEOUT_S = 60.0  # one operation (a build, a query, a dedup run)
RSS_PERIOD_S = 0.2
# median seconds of one calibration job on the 4-vCPU x86 host the bounds
# in BENCHMARK.json were set on; see ``calibrate``
REF_CAL_S = 0.025


class OpTimeout(Exception):
    """An operation outlived its deadline; ``stage`` names what was running."""

    def __init__(self, stage: str):
        super().__init__(f"timed out in stage {stage!r}")
        self.stage = stage


class Ctx:
    def __init__(self, root: str, work: str, seed: int, seconds: int, trace: bool):
        self.root, self.work, self.seed, self.seconds, self.trace = root, work, seed, seconds, trace
        self.trace_dir = os.path.join(work, "trace")
        self.stage = "start"
        self.t0 = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._lock = threading.Lock()
        self.cal_s: list[float] = []

    def set_stage(self, name: str) -> None:
        self.stage = name
        print(f"[perfbench] {time.monotonic() - self.t0:7.2f}s stage {name}", file=sys.stderr, flush=True)

    def fail(self, what: str) -> None:
        with self._lock:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)
        print(f"[perfbench] FAILED: {what}", file=sys.stderr, flush=True)

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)

    def calibrate(self, n: int) -> float:
        """Run ``n`` calibration jobs on this thread; returns the seconds
        they took."""
        t0 = time.perf_counter()
        self.cal_s.extend(calibrate() for _ in range(n))
        return time.perf_counter() - t0

    def slowdown(self) -> float:
        """This run's single-core speed against the reference host: the
        median calibration time over ``REF_CAL_S`` (above 1 when slower)."""
        return statistics.median(self.cal_s) / REF_CAL_S


class StealClock:
    """Times a block twice: wall seconds, and ``s``, the wall seconds less
    the share of the CPU time wanted meanwhile that the hypervisor gave to
    other guests (``stolen_share``). Work spread over all the vCPUs waits for
    every stolen slice: in one run a build's wall time moved 3.7-5.7 s with
    16-40% stolen, ``s`` 3.0-3.4 s."""

    def __enter__(self):
        self.j0 = cpu_jiffies()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self.t0
        self.stolen = stolen_share(self.j0, cpu_jiffies())
        self.s = self.wall * (1.0 - self.stolen)


# Calibration. A core of a shared host runs the same work up to twice as
# fast or slow from one quarter hour to the next, in CPU time as much as in
# wall time, and little of it shows as stolen time: a build took 3.0 s and
# then 1.6 s with nothing stolen, while this job's median went from 25 ms
# to 14 ms. Each run times this fixed job, which uses none of the program
# under test (Python tokenizing, dicts and JSON, then NumPy sorts and
# searches), at idle points of its window, and divides its times by the
# median of those samples over ``REF_CAL_S``.
_rng = random.Random(20_261_017)
_CAL_WORDS = ["".join(_rng.choice("etaoinshrdlucmfw") for _ in range(_rng.randint(2, 9))) for _ in range(3000)]
_CAL_TEXT = " ".join(_rng.choice(_CAL_WORDS) for _ in range(12_000))
_CAL_DOCS = [{"docid": i, "score": i / 7.0, "snippet": _CAL_WORDS[i]} for i in range(200)]
_CAL_INTS = np.random.default_rng(7).integers(0, 1 << 30, 60_000)
_CAL_RE = re.compile(r"[a-z0-9]+")


def calibrate() -> float:
    """Seconds one run of the fixed calibration job takes."""
    t0 = time.perf_counter()
    counts = Counter(_CAL_RE.findall(_CAL_TEXT))
    ids = {w: i for i, w in enumerate(sorted(counts))}
    sum(ids.get(w, -1) for w in _CAL_WORDS * 3)
    for _ in range(4):
        json.loads(json.dumps({"results": _CAL_DOCS}))
    order = np.argsort(_CAL_INTS, kind="stable")
    srt = _CAL_INTS[order]
    np.searchsorted(srt, _CAL_INTS[::8])
    np.unique(srt >> 12, return_counts=True)
    return time.perf_counter() - t0


def run_op(stage: str, fn, timeout: float = OP_TIMEOUT_S):
    """Run ``fn()`` in a daemon thread and wait at most ``timeout``; a
    timeout raises :class:`OpTimeout` naming ``stage`` (the thread is left
    behind, and the caller winds the run down)."""
    box: dict = {}

    def body():
        try:
            box["out"] = fn()
        except BaseException as e:  # re-raised in the caller's thread
            box["err"] = e

    t = threading.Thread(target=body, name=stage, daemon=True)
    t.start()
    t.join(timeout)
    if t.is_alive():
        raise OpTimeout(stage)
    if "err" in box:
        raise box["err"]
    return box.get("out")


def _rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def descendants(pid: int) -> list[int]:
    """Every live process below ``pid`` (children first)."""
    parent: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        parent.setdefault(ppid, []).append(int(d))
    out, todo = [], [pid]
    while todo:
        kids = parent.get(todo.pop(), [])
        out.extend(kids)
        todo.extend(kids)
    return out


def _is_worker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().startswith(b"ray::")
    except OSError:
        return False


class RssSampler:
    """Peak summed resident memory of the driver, plus its Ray worker
    processes when ``workers`` is set, sampled every ``RSS_PERIOD_S``."""

    def __init__(self, workers: bool):
        self.workers = workers
        self.peak_kb = 0
        self._stop = threading.Event()
        self._t = threading.Thread(target=self._loop, daemon=True)

    def _sample(self) -> int:
        me = os.getpid()
        kb = _rss_kb(me)
        if self.workers:
            kb += sum(_rss_kb(p) for p in descendants(me) if _is_worker(p))
        return kb

    def _loop(self):
        while not self._stop.is_set():
            self.peak_kb = max(self.peak_kb, self._sample())
            self._stop.wait(RSS_PERIOD_S)

    def __enter__(self):
        self._t.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._t.join()
        self.peak_kb = max(self.peak_kb, self._sample())

    @property
    def mb(self) -> float:
        return self.peak_kb / 1024.0


def percentile(xs: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1])."""
    s = sorted(xs)
    return s[min(len(s) - 1, max(0, int(round(q * len(s) + 0.5)) - 1))]


def min_samples(q: float) -> int:
    """Samples a stream needs for its ``q`` percentile to have ten beyond it."""
    return round(10 / (1 - q))


def tail(xs: list[float], q: float | None) -> tuple[float, str]:
    """The ``q`` percentile of a request stream, when it has ten samples
    beyond it; else (and for a handful of builds or dedup runs, ``q`` None)
    the slowest operation. Returns the value and which one it is."""
    if q is not None and len(xs) >= min_samples(q):
        return percentile(xs, q), f"p{round(q * 100)}"
    return max(xs), "max"


def loadavg() -> list[float]:
    return [round(x, 2) for x in os.getloadavg()]


def cpu_jiffies() -> list[int]:
    """The host's summed CPU time counters from ``/proc/stat``: user, nice,
    system, idle, iowait, irq, softirq, steal."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:9]]


def stolen_share(before: list[int], after: list[int]) -> float:
    """Share of the CPU time wanted between two readings (busy plus stolen)
    that the hypervisor gave to other guests instead."""
    d = [b - a for a, b in zip(before, after)]
    busy = d[0] + d[1] + d[2] + d[5] + d[6]
    return d[7] / (busy + d[7]) if busy + d[7] else 0.0
