"""Interleaved A/B of one benchmark workload: a base revision against the checkout.

    python tools/ab.py <rev> <workload> [--pairs N] [--seed0 S] [--trace 1]

Exports ``<rev>``'s committed files (``git archive``) to a temporary
directory, then runs ``N`` (default 10) pairs of fresh-process legs of
``perfbench/run.py --workload <workload> --seed S+i --seconds T --trace X``,
with ``T`` the ``run_seconds`` of ``BENCHMARK.json`` and ``X`` the
``--trace`` given here (0 by default): one leg from the
export (``base``) and one from this checkout (``head``), in the same pair
on the same seed. Which side runs first alternates from pair to pair, so
a drift of the shared host does not favour one side.

Prints one line per leg, then per end-to-end metric of ``BENCHMARK.json``
(per-layer metric with ``--trace 1``, whose legs report only those):
the median of each side, the relative change of the medians, how many
pairs ``head`` won (in the metric's ``better`` direction), and the
interquartile range of ``base``; then ``failed``/``attempted`` per side.
A leg that prints no result line is reported with its return code and the
tail of its stderr, counted as ``crashed`` and kept out of every sum.
A claimed gain should win nearly every pair and move the median by more
than the base's IQR. The export is removed at exit; ``perfbench/`` is run
as it is in each tree, never changed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export_rev(rev: str, dest: str) -> None:
    """Write ``rev``'s committed tree into ``dest``."""
    archive = subprocess.run(
        ["git", "-C", ROOT, "archive", "--format=tar", rev],
        check=True,
        capture_output=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def run_leg(tree: str, workload: str, seed: int, seconds: int, trace: int) -> dict | None:
    """One fresh-process run in ``tree``; its result JSON line, or ``None``
    (after printing the return code and stderr tail) if it has none."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    for line in reversed(proc.stdout.splitlines()):
        try:
            res = json.loads(line)
        except ValueError:
            continue
        if isinstance(res, dict) and "metrics" in res:
            return res
    tail = "\n    ".join(proc.stderr.splitlines()[-20:])
    print(f"  leg in {tree} crashed: return code {proc.returncode}, stderr tail:\n    {tail}", flush=True)
    return None


def quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return (xs[0], xs[0]) if xs else (float("nan"), float("nan"))
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def directions(bench: dict, trace: int) -> dict[str, str]:
    """Metric name -> ``better`` direction for the metrics a leg reports:
    ``BENCHMARK.json``'s end-to-end list, or its per-layer list when traced."""
    return {m["name"]: m["better"] for m in bench["per_layer" if trace else "end_to_end"]}


def summarize(base: list[dict | None], head: list[dict | None], better: dict[str, str]) -> dict:
    """Pairwise summary of result dicts (``base[i]`` and ``head[i]`` ran on
    the same seed; ``None`` is a crashed leg). ``better`` maps each metric
    to ``"higher"`` or ``"lower"``. A pair counts toward a metric only when
    both legs report it; a metric that reads 0 in every leg is left out
    (a traced leg reports the layers its workload does not run as 0).
    ``wins`` counts the pairs where ``head`` is strictly better. Crashed
    legs are counted apart from ``failed`` and ``attempted``, which sum
    real operations only."""
    metrics = {}
    for name, direction in better.items():
        pairs = [
            (b["metrics"][name]["value"], h["metrics"][name]["value"])
            for b, h in zip(base, head)
            if b is not None and h is not None
            and name in b["metrics"] and name in h["metrics"]
        ]
        bs, hs = [p[0] for p in pairs], [p[1] for p in pairs]
        if not any(bs + hs):
            continue
        sign = 1.0 if direction == "higher" else -1.0
        b_med, h_med = statistics.median(bs), statistics.median(hs)
        metrics[name] = {
            "base_median": b_med,
            "head_median": h_med,
            "change": (h_med - b_med) / b_med if b_med else float("nan"),
            "wins": sum(sign * (h - b) > 0 for b, h in pairs),
            "pairs": len(pairs),
            "base_iqr": quartiles(bs),
        }
    out = {"metrics": metrics}
    for side, results in (("base", base), ("head", head)):
        ran = [r for r in results if r is not None]
        out[f"{side}_failed"] = sum(r["failed"] for r in ran)
        out[f"{side}_attempted"] = sum(r["attempted"] for r in ran)
        out[f"{side}_crashed"] = len(results) - len(ran)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", help="base revision, e.g. HEAD~1")
    ap.add_argument("workload")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    better = directions(bench, args.trace)
    seconds = bench["run_seconds"]
    tree = tempfile.mkdtemp(prefix="ab_base_")
    try:
        export_rev(args.rev, tree)
        base, head = [], []
        for i in range(args.pairs):
            seed = args.seed0 + i
            legs = [("base", tree, base), ("head", ROOT, head)]
            for side, where, results in legs if i % 2 == 0 else legs[::-1]:
                res = run_leg(where, args.workload, seed, seconds, args.trace)
                results.append(res)
                if res is None:
                    print(f"pair {i} seed {seed} {side}: crashed", flush=True)
                    continue
                vals = {k: round(v["value"], 4) for k, v in res["metrics"].items()}
                print(f"pair {i} seed {seed} {side}: failed {res['failed']}/{res['attempted']} {vals}", flush=True)
    finally:
        shutil.rmtree(tree, ignore_errors=True)

    s = summarize(base, head, better)
    traced = ", traced" if args.trace else ""
    print(f"\n{args.workload}: {args.rev} (base) vs checkout (head), {args.pairs} pairs{traced}")
    for name, m in s["metrics"].items():
        q1, q3 = m["base_iqr"]
        print(
            f"{name:28s} base {m['base_median']:12.4g}  head {m['head_median']:12.4g}  "
            f"{m['change']:+7.1%}  wins {m['wins']}/{m['pairs']}  base IQR {q1:.4g}-{q3:.4g}"
        )
    print(
        f"failed/attempted: base {s['base_failed']}/{s['base_attempted']}, "
        f"head {s['head_failed']}/{s['head_attempted']}; "
        f"crashed legs: base {s['base_crashed']}, head {s['head_crashed']}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
