"""The build's one task launcher, ``pipelines.build.fan_out``: results in
input order, task errors re-raised with their type, and a heartbeat that
names a stalled stage. Every exchange chain waits on its final partitions
through the same heartbeat (``stages.exchange.as_ready``)."""

import logging
import re

import pytest

from web_search_engine_ray.pipelines import build
from web_search_engine_ray.stages import exchange


def test_fan_out_empty_needs_no_tasks():
    assert build.fan_out("test.empty", len, []) == []


def test_fan_out_keeps_input_order(ray_session):
    def slow_square(i, delay):
        import time

        time.sleep(delay * (4 - i))  # the last item finishes first
        return i * i

    assert build.fan_out("test.order", slow_square, [0, 1, 2, 3], 0.15) == [0, 1, 4, 9]


def test_fan_out_reraises_task_value_error(ray_session):
    def check(i):
        if i == 2:
            raise ValueError(f"item {i} is malformed")
        return i

    with pytest.raises(ValueError, match="item 2 is malformed"):
        build.fan_out("test.error", check, [0, 1, 2, 3])


def test_fan_out_stall_heartbeat_names_stage(ray_session, monkeypatch, caplog):
    def nap(s):
        import time

        time.sleep(s)
        return s

    def logged():
        return [r.getMessage() for r in caplog.records if r.name == exchange.__name__]

    caplog.set_level(logging.WARNING, logger=exchange.__name__)
    assert build.fan_out("test.quick", nap, [0.0, 0.0]) == [0.0, 0.0]
    assert not logged()

    monkeypatch.setattr(exchange, "STALL_LOG_S", 0.2)
    assert build.fan_out("test.stalled", nap, [1.0]) == [1.0]
    msgs = logged()
    assert msgs and all(m.startswith("test.stalled: 0/1 tasks done") for m in msgs)


def test_near_dup_chain_stall_heartbeat_names_stage(ray_session, monkeypatch, caplog):
    """A near-dup wrapper waits for its final partitions through
    ``exchange.as_ready``: with a stall window far shorter than the chain,
    it logs ``<wrapper>: k/n partitions done`` and nothing else."""
    from web_search_engine_ray.pipelines import transcripts_ops

    nd = transcripts_ops.neardup_fixture_corpus()
    caplog.set_level(logging.WARNING, logger=exchange.__name__)
    monkeypatch.setattr(exchange, "STALL_LOG_S", 0.005)
    assert transcripts_ops.conversation_jaccard_dups_ds(nd).count() > 0
    msgs = [r.getMessage() for r in caplog.records if r.name == exchange.__name__]
    assert msgs
    for m in msgs:
        assert re.match(r"conversation_jaccard_dups_ds: \d+/\d+ partitions done", m), m


def test_exchange_chain_stall_heartbeat_names_stage(ray_session, monkeypatch, caplog):
    """A chain of exchanges waits for its partitions once, through
    ``exchange.to_dataset``: with a stall window far shorter than its
    partition fn, it logs ``<stage>: k/n partitions done`` and nothing
    else."""
    import pyarrow as pa
    import ray

    def slow_identity(t):
        import time

        time.sleep(1.0)
        return t

    caplog.set_level(logging.WARNING, logger=exchange.__name__)
    monkeypatch.setattr(exchange, "STALL_LOG_S", 0.2)
    refs = [ray.put(pa.table({"k": list(range(8))}))]
    route = lambda t: t["k"].to_numpy() % 2  # noqa: E731
    out = exchange.exchange_map(refs, route, 2, slow_identity)
    assert exchange.to_dataset("slow_chain", out).count() == 8
    msgs = [r.getMessage() for r in caplog.records if r.name == exchange.__name__]
    assert msgs
    for m in msgs:
        assert re.match(r"slow_chain: \d+/2 partitions done", m), m
