"""Columnar record plane ≡ per-record plane, pinned end to end.

The columnar rewrite is only allowed to change *speed*. Every test here
runs the same seeded workload under both planes and demands identical
observable output: window results, latency statistics, loss accounting,
scenario report metrics, and soak digests — including runs with bursts,
shedding, link brownouts, and a mid-run aggregator crash restored from
a checkpoint cut mid-batch.
"""

from __future__ import annotations

import dataclasses
import warnings

import pytest

from repro.cloud.deployment import CloudEnvironment
from repro.config import (
    OverloadConfig,
    RecordPlaneConfig,
    SoakConfig,
    default_record_plane,
    set_default_record_plane,
)
from repro.core.engine import SageEngine
from repro.gen.soak import run_soak
from repro.flow.scenario import run_overload
from repro.faults.scenario import run_chaos
from repro.streaming import (
    GeoStreamRuntime,
    PerRecordAdapter,
    PoissonSource,
    Record,
    RecordBatch,
    SageShipping,
    TraceSource,
)
from repro.streaming.dataflow import SiteSpec, StreamJob
from repro.streaming.operators import MapOperator, builtin_aggregate
from repro.streaming.windows import TumblingWindows

LEGACY = RecordPlaneConfig(columnar=False)
COLUMNAR = RecordPlaneConfig(columnar=True)


@pytest.fixture
def plane_guard():
    """Restore the process-default record plane after a test flips it."""
    previous = default_record_plane()
    yield
    set_default_record_plane(previous)


def _run_job(
    plane,
    operators=None,
    sources=None,
    aggregate="mean",
    regions=("NEU", "WEU"),
):
    env = CloudEnvironment(seed=7)
    engine = SageEngine(env, deployment_spec={"NEU": 2, "WEU": 2, "NUS": 2})
    engine.start()
    job = StreamJob(
        name="equiv",
        sites=[
            SiteSpec(
                region=region,
                sources=sources(region) if sources else [
                    PoissonSource(
                        name=f"p-{region.lower()}",
                        rate=500.0,
                        keys=["a", "b", "c"],
                    )
                ],
                operators=list(operators or []),
            )
            for region in regions
        ],
        aggregation_region="NUS",
        windows=TumblingWindows(10.0),
        aggregate=builtin_aggregate(aggregate),
        record_plane=plane,
    )
    runtime = GeoStreamRuntime(engine, job, SageShipping.factory(n_nodes=2))
    runtime.run_for(60.0)
    return runtime


def _observables(runtime):
    return {
        "results": [
            (r.window.start, r.window.end, r.key, r.value, r.record_count)
            for r in runtime.results
        ],
        "latency": runtime.latency_stats(),
        "wan_bytes": runtime.wan_bytes(),
        "emitted": sum(
            src.records_emitted
            for site in runtime.sites.values()
            for src in site.spec.sources
        ),
        "processed": sum(
            s.records_processed for s in runtime.sites.values()
        ),
    }


def test_poisson_job_identical_across_planes():
    legacy = _observables(_run_job(LEGACY))
    columnar = _observables(_run_job(COLUMNAR))
    assert legacy["results"], "run produced no windows — vacuous test"
    assert columnar == legacy


@pytest.mark.parametrize(
    "aggregate", ["count", "sum", "mean", "min", "max", "var"]
)
def test_builtin_aggregates_identical_across_planes(aggregate):
    legacy = _observables(_run_job(LEGACY, aggregate=aggregate))
    columnar = _observables(_run_job(COLUMNAR, aggregate=aggregate))
    assert legacy["results"], "run produced no windows — vacuous test"
    assert columnar == legacy


def _mixed_key_table_sources(region):
    # The engine starts at t=300, so windows are [300, 310), [310, 320)...
    # The Poisson source ticks every 4 s: its [308, 312) batch spans two
    # windows. The trace brings its own key table, and its "late" key
    # first shows up at 315.5, after [310, 320)'s table was allocated
    # by the Poisson records of [310, 312).
    return [
        PoissonSource(
            name=f"p-{region.lower()}",
            rate=200.0,
            keys=["a", "b", "c"],
            tick=4.0,
        ),
        TraceSource(
            name=f"t-{region.lower()}",
            trace=[
                (315.5 + 10.0 * i + j * 0.25, key, float(i * j + 1))
                for i in range(4)
                for j, key in enumerate(("late", "b", "later"))
            ],
        ),
    ]


@pytest.mark.parametrize(
    "aggregate", ["count", "sum", "mean", "min", "max", "var"]
)
def test_mixed_key_tables_on_one_site_identical_across_planes(aggregate):
    def run(plane):
        return _observables(
            _run_job(
                plane,
                sources=_mixed_key_table_sources,
                aggregate=aggregate,
                regions=("NEU",),
            )
        )

    legacy = run(LEGACY)
    columnar = run(COLUMNAR)
    keys_by_window = {}
    for start, _, key, _, _ in legacy["results"]:
        keys_by_window.setdefault(start, set()).add(key)
    assert {"a", "b", "c", "late", "later"} <= keys_by_window[310.0]
    assert columnar == legacy


class _LegacyDoubler:
    """An operator written against the old one-record-at-a-time protocol."""

    def process(self, record):
        return [
            Record(
                record.event_time,
                record.key,
                record.value * 2.0,
                record.origin,
                record.size_bytes,
            )
        ]


def test_per_record_adapter_preserves_results_and_warns():
    with pytest.warns(DeprecationWarning, match="process_batch"):
        adapted = PerRecordAdapter(_LegacyDoubler())
    assert isinstance(adapted.inner, _LegacyDoubler)

    def run(plane):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            return _observables(_run_job(plane, operators=[_LegacyDoubler()]))

    legacy = run(LEGACY)
    columnar = run(COLUMNAR)
    assert legacy["results"], "run produced no windows — vacuous test"
    assert columnar == legacy


def test_native_batch_operator_matches_per_record_fallback():
    vectorized = MapOperator(
        lambda r: Record(
            r.event_time, "all", r.value, r.origin, r.size_bytes
        ),
        batch_fn=lambda b: b.with_key("all"),
    )
    scalar_only = MapOperator(
        lambda r: Record(
            r.event_time, "all", r.value, r.origin, r.size_bytes
        ),
    )
    fast = _observables(_run_job(COLUMNAR, operators=[vectorized]))
    slow = _observables(_run_job(COLUMNAR, operators=[scalar_only]))
    legacy = _observables(_run_job(LEGACY, operators=[scalar_only]))
    assert fast["results"], "run produced no windows — vacuous test"
    assert fast == slow == legacy


def test_source_chunk_records_only_changes_offer_granularity():
    def sources(region, chunk=None):
        return [
            PoissonSource(
                name=f"p-{region.lower()}",
                rate=500.0,
                keys=["a", "b"],
                chunk_records=chunk,
            )
        ]

    whole = _observables(_run_job(COLUMNAR, sources=lambda r: sources(r)))
    chunked = _observables(
        _run_job(COLUMNAR, sources=lambda r: sources(r, chunk=64))
    )
    assert whole["results"], "run produced no windows — vacuous test"
    assert chunked == whole


def test_record_plane_config_validation_and_round_trip():
    with pytest.raises(ValueError):
        RecordPlaneConfig(chunk_records=0)
    cfg = RecordPlaneConfig(columnar=False, chunk_records=128)
    assert RecordPlaneConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(TypeError):
        set_default_record_plane("columnar")
    previous = set_default_record_plane(cfg)
    try:
        assert default_record_plane() == cfg
    finally:
        set_default_record_plane(previous)


def test_record_batch_round_trips_records():
    records = [
        Record(1.0, "a", 0.5, "NEU", 200.0),
        Record(1.5, "b", -2.0, "NEU", 100.0),
        Record(2.0, "a", 7, "NEU", 50.0),  # non-float value: object dtype
    ]
    batch = RecordBatch.from_records(records)
    assert len(batch) == 3
    assert batch.to_records() == records
    assert [r for r in batch.iter_records()] == records
    view = batch[1:]
    assert view.to_records() == records[1:]
    merged = batch[:1] + batch[1:]
    assert merged.to_records() == records


@pytest.mark.parametrize("policy", ["block", "shed", "degrade"])
def test_overload_scenario_identical_across_planes(policy, plane_guard):
    # 90 s compressed replica of the overload scenario: burst, link
    # brownout, shed/degrade pressure, and an aggregator crash at t=40
    # restored from a checkpoint cut mid-batch at t=30.
    cfg = OverloadConfig(
        policy=policy,
        duration=90.0,
        burst_window=(20.0, 45.0),
        brownout=(25.0, 20.0, 0.1),
        crash_at=40.0,
        restart_after=10.0,
        checkpoint_interval=10.0,
        max_backlog=800,
        base_rate=120.0,
    )
    metrics = {}
    for name, plane in (("legacy", LEGACY), ("columnar", COLUMNAR)):
        set_default_record_plane(plane)
        report = run_overload(cfg)
        metrics[name] = report.metrics
    assert metrics["columnar"] == metrics["legacy"]


def test_chaos_scenario_identical_across_planes(plane_guard):
    from repro.config import ChaosConfig

    cfg = ChaosConfig(duration=90.0, inject=True)
    metrics = {}
    for name, plane in (("legacy", LEGACY), ("columnar", COLUMNAR)):
        set_default_record_plane(plane)
        report = run_chaos(cfg)
        metrics[name] = report.metrics
    assert metrics["columnar"] == metrics["legacy"]


def test_soak_digest_identical_across_planes(plane_guard):
    cfg = SoakConfig(seed=11, hours=0.1, profile="adversarial")
    digests = {}
    for name, plane in (("legacy", LEGACY), ("columnar", COLUMNAR)):
        set_default_record_plane(plane)
        digests[name] = run_soak(cfg).digest
    assert digests["columnar"] == digests["legacy"]


def test_stream_job_record_plane_field_round_trips():
    field_names = {f.name for f in dataclasses.fields(StreamJob)}
    assert "record_plane" in field_names
    job = StreamJob(
        name="pinning",
        sites=[
            SiteSpec(region="NEU", sources=[PoissonSource("s", rate=10.0)])
        ],
        aggregation_region="NUS",
        record_plane=LEGACY,
    )
    assert job.record_plane == LEGACY
