"""The A/B summary of ``tools/ab.py`` (no Ray, no benchmark run)."""

import pytest

from tools.ab import directions, summarize


def _res(failed=0, attempted=5, **values):
    return {
        "correct": not failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": "x"} for k, v in values.items()},
    }


def test_summarize_medians_wins_iqr_and_failures():
    base = [_res(work_per_s=w, p50_ms=p) for w, p in [(100, 10), (110, 12), (90, 11), (105, 9)]]
    head = [
        _res(work_per_s=150, p50_ms=8),
        _res(work_per_s=100, p50_ms=12),  # loses on work_per_s, ties on p50_ms
        _res(work_per_s=140, p50_ms=7),
        _res(failed=1, attempted=6, work_per_s=160, p50_ms=9.5),
    ]
    s = summarize(base, head, {"work_per_s": "higher", "p50_ms": "lower", "rss_mb": "lower"})
    w = s["metrics"]["work_per_s"]
    assert (w["base_median"], w["head_median"]) == (102.5, 145.0)
    assert w["change"] == pytest.approx(145 / 102.5 - 1)
    assert (w["wins"], w["pairs"]) == (3, 4)
    assert w["base_iqr"] == pytest.approx((97.5, 106.25))
    p = s["metrics"]["p50_ms"]
    assert (p["wins"], p["pairs"]) == (2, 4)  # lower is better; the tie is no win
    assert "rss_mb" not in s["metrics"]  # reported by no leg
    assert (s["base_failed"], s["base_attempted"]) == (0, 20)
    assert (s["head_failed"], s["head_attempted"]) == (1, 21)
    assert (s["base_crashed"], s["head_crashed"]) == (0, 0)


def test_summarize_skips_crashed_legs():
    # a crashed leg (None) counts for no pair and no operation
    base = [_res(work_per_s=100), _res(work_per_s=120), _res(work_per_s=110)]
    head = [None, _res(work_per_s=130), _res(work_per_s=115, p50_ms=3)]
    s = summarize(base, head, {"work_per_s": "higher", "p50_ms": "lower"})
    assert s["metrics"]["work_per_s"]["pairs"] == 2
    assert s["metrics"]["work_per_s"]["wins"] == 2
    assert s["metrics"]["work_per_s"]["base_iqr"] == pytest.approx((112.5, 117.5))
    assert "p50_ms" not in s["metrics"]  # only one side reports it
    assert (s["head_failed"], s["head_attempted"], s["head_crashed"]) == (0, 10, 1)
    assert (s["base_failed"], s["base_attempted"], s["base_crashed"]) == (0, 15, 0)


def test_directions_and_summarize_per_layer_metrics():
    # --trace 1 legs report per-layer metrics only; they are summarized in
    # BENCHMARK.json's per-layer directions
    bench = {
        "end_to_end": [{"name": "work_per_s", "better": "higher"}],
        "per_layer": [
            {"name": "exchange.split_s", "better": "lower"},
            {"name": "exchange.busy_frac", "better": "higher"},
            {"name": "exchange.calls", "better": "lower"},
            {"name": "build.merge_s", "better": "lower"},
        ],
    }
    assert directions(bench, 0) == {"work_per_s": "higher"}
    better = directions(bench, 1)
    assert better["exchange.busy_frac"] == "higher" and "work_per_s" not in better
    base = [_res(**{"exchange.split_s": s, "exchange.busy_frac": f, "exchange.calls": 5,
                    "build.merge_s": 0.0}) for s, f in [(2.0, 0.30), (2.2, 0.34), (2.1, 0.36)]]
    head = [_res(**{"exchange.split_s": s, "exchange.busy_frac": f, "exchange.calls": 5,
                    "build.merge_s": 0.0}) for s, f in [(0.5, 0.6), (0.6, 0.7), (2.5, 0.2)]]
    m = summarize(base, head, better)["metrics"]
    assert (m["exchange.split_s"]["base_median"], m["exchange.split_s"]["head_median"]) == (2.1, 0.6)
    assert m["exchange.split_s"]["wins"] == 2  # lower is better
    assert m["exchange.busy_frac"]["wins"] == 2  # higher is better
    assert (m["exchange.calls"]["change"], m["exchange.calls"]["wins"]) == (0.0, 0)
    assert "build.merge_s" not in m  # 0 in every leg: a layer dedup does not run
