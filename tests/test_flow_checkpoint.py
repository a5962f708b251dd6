"""Checkpoint store, periodic checkpointer, and window-state snapshots."""

import json
import math

import numpy as np
import pytest

from repro.cloud.deployment import CloudEnvironment
from repro.core.engine import SageEngine
from repro.flow.checkpoint import Checkpointer, CheckpointStore
from repro.streaming.events import Record
from repro.streaming.operators import WindowedAggregator, builtin_aggregate
from repro.streaming.records import RecordBatch
from repro.streaming.windows import TumblingWindows


@pytest.fixture
def engine():
    env = CloudEnvironment(seed=9, variability_sigma=0.0, glitches=False)
    eng = SageEngine(env, deployment_spec={"NEU": 1, "NUS": 1})
    eng.start(learning_phase=10.0)
    return eng


# ----------------------------------------------------------------------
# CheckpointStore
# ----------------------------------------------------------------------
def test_store_roundtrip_is_a_copy():
    store = CheckpointStore()
    payload = {"a": [1, 2, 3], "b": {"k": 0.5}}
    size = store.save("agg", payload, now=10.0)
    assert size == store.size_bytes("agg") > 0
    loaded = store.load("agg")
    assert loaded == payload
    assert loaded is not payload  # JSON roundtrip: no shared live object
    loaded["a"].append(4)
    assert store.load("agg") == payload


def test_store_tuples_become_lists():
    # Built-in aggregate states use tuples; their closures only index,
    # so the list that comes back is interchangeable.
    store = CheckpointStore()
    store.save("s", {"state": (3, 1.5)})
    assert store.load("s") == {"state": [3, 1.5]}


def test_store_rejects_unserializable_state():
    store = CheckpointStore()
    with pytest.raises(TypeError):
        store.save("bad", {"fn": lambda: None})
    assert "bad" not in store


def test_store_age_and_names():
    store = CheckpointStore()
    assert store.load("missing") is None
    assert math.isinf(store.age("missing", now=5.0))
    store.save("a", {}, now=10.0)
    store.save("b", {}, now=20.0)
    assert store.age("a", now=25.0) == pytest.approx(15.0)
    assert store.names() == ["a", "b"]
    assert "a" in store
    assert store.saves == 2 and store.loads == 0


# ----------------------------------------------------------------------
# Checkpointer
# ----------------------------------------------------------------------
def test_checkpointer_validation(engine):
    with pytest.raises(ValueError):
        Checkpointer(engine, CheckpointStore(), interval=0.0)


def test_checkpointer_periodic_rounds(engine):
    store = CheckpointStore()
    calls = []
    cp = Checkpointer(engine, store, interval=5.0)
    cp.register("c", lambda: calls.append(1) or {"n": len(calls)})
    cp.start()
    cp.start()  # idempotent
    engine.run_until(engine.sim.now + 26.0)
    assert cp.rounds == 5
    assert len(calls) == 5
    assert store.load("c") == {"n": 5}
    cp.stop()
    engine.run_until(engine.sim.now + 20.0)
    assert cp.rounds == 5  # stopped: no further rounds


def test_checkpointer_none_skips_the_round(engine):
    store = CheckpointStore()
    cp = Checkpointer(engine, store, interval=5.0)
    up = [False]
    cp.register("c", lambda: {"ok": 1} if up[0] else None)
    cp.run_once()
    assert "c" not in store  # component down: round skipped, not crashed
    up[0] = True
    cp.run_once()
    assert store.load("c") == {"ok": 1}


def test_checkpointer_register_last_wins(engine):
    store = CheckpointStore()
    cp = Checkpointer(engine, store, interval=5.0)
    cp.register("c", lambda: {"v": "old"})
    cp.register("c", lambda: {"v": "new"})
    cp.run_once()
    assert store.load("c") == {"v": "new"}
    assert store.saves == 1  # one target, not two


# ----------------------------------------------------------------------
# WindowedAggregator snapshot/restore
# ----------------------------------------------------------------------
def _record(t, key="k", value=1.0):
    return Record(event_time=t, key=key, value=value, origin="NEU")


def test_windowed_aggregator_snapshot_roundtrip():
    agg = WindowedAggregator(TumblingWindows(10.0), builtin_aggregate("mean"))
    for t in (1.0, 2.0, 11.0):
        agg.process(_record(t, value=t))
    agg.advance_watermark(5.0)

    store = CheckpointStore()
    store.save("w", agg.snapshot())
    clone = WindowedAggregator(TumblingWindows(10.0), builtin_aggregate("mean"))
    clone.restore(store.load("w"))

    assert clone.records_seen == agg.records_seen
    assert clone.open_windows == agg.open_windows == 2
    # The restored state must close windows identically to the original
    # (tuple states come back as lists; the aggregate closures only
    # index, so the finalized results are what must agree).
    mean = agg.aggregate.result
    out_orig = agg.advance_watermark(25.0)
    out_clone = clone.advance_watermark(25.0)
    assert [(r.key, mean(r.value.state), r.value.count) for r in out_orig] == [
        (r.key, mean(r.value.state), r.value.count) for r in out_clone
    ]


def _stream(n=120, seed=3):
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(0.0, 40.0, n))
    keys = ("c", "a", "b", "d")
    key_idx = rng.integers(0, len(keys), n)
    value = rng.normal(10.0, 4.0, n)
    return RecordBatch(t, key_idx, value, np.full(n, 200.0), keys, "NEU")


def _dict_state_rows(aggregate, batch, length=10.0):
    """The open-window rows a (window, key)-keyed dict of scalar
    ``add`` folds holds after ``batch`` — the oracle for snapshot()."""
    state, counts = {}, {}
    for record in batch.iter_records():
        start = (record.event_time // length) * length
        slot = (start, record.key)
        state[slot] = aggregate.add(
            state.get(slot, aggregate.zero()), record.value
        )
        counts[slot] = counts.get(slot, 0) + 1
    return [
        [start, start + length, key, state[(start, key)], counts[(start, key)]]
        for start, key in sorted(state)
    ]


@pytest.mark.parametrize("name", ["count", "sum", "mean", "min", "max"])
def test_window_table_snapshot_matches_dict_state_and_resumes(name):
    stream = _stream()
    cut = 70  # mid-window: the cut falls inside [20, 30)
    assert 20.0 < stream.t[cut - 1] < stream.t[cut] < 30.0

    def aggregator():
        return WindowedAggregator(
            TumblingWindows(10.0), builtin_aggregate(name)
        )

    agg = aggregator()
    for lo in range(0, cut, 9):  # several batches, as a site folds them
        agg.process_batch(stream[lo:min(lo + 9, cut)])
    agg.advance_watermark(20.0)

    head = stream[:cut]
    expected = {
        "watermark": 20.0,
        "records_seen": cut,
        "late_dropped": 0,
        "slots": [
            row
            for row in _dict_state_rows(agg.aggregate, head)
            if row[0] >= 20.0
        ],
    }
    assert json.dumps(agg.snapshot()) == json.dumps(expected)

    store = CheckpointStore()
    store.save("w", agg.snapshot())
    restored = aggregator()
    restored.restore(store.load("w"))
    if name == "mean":  # JSON hands the (count, sum) tuple back as a list
        assert isinstance(store.load("w")["slots"][0][3], list)

    uninterrupted = aggregator()
    uninterrupted.process_batch(stream[:cut])
    uninterrupted.advance_watermark(20.0)
    tail = stream[cut:]
    restored.process_batch(tail)
    uninterrupted.process_batch(tail)

    def partials(a):
        return [
            (r.value.window, r.key, r.value.state, r.value.count)
            for r in a.advance_watermark(50.0)
        ]

    want = partials(uninterrupted)
    assert len(want) > 4
    assert partials(restored) == want


def test_windowed_aggregator_restore_replaces_watermark():
    agg = WindowedAggregator(TumblingWindows(10.0), builtin_aggregate("count"))
    agg.advance_watermark(50.0)
    snap = agg.snapshot()
    clone = WindowedAggregator(TumblingWindows(10.0), builtin_aggregate("count"))
    clone.restore(snap)
    with pytest.raises(ValueError, match="backwards"):
        clone.advance_watermark(40.0)  # the restored watermark is live
    fresh = WindowedAggregator(TumblingWindows(10.0), builtin_aggregate("count"))
    fresh.restore(fresh.snapshot())  # None watermark roundtrips too
    fresh.advance_watermark(0.0)
