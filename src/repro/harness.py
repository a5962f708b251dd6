"""The scripted-scenario harness behind chaos, overload, serve and soak.

Every scripted scenario runs on the same substrate: a variability-free
cloud, a SAGE engine past a 120 s learning phase, a count-aggregated
tumbling-window job, reliable shipping over two-node SAGE shipping, an
armed :class:`~repro.obs.audit.SLOAuditor`, and optionally periodic
checkpoints and a leader/standby control plane. Every one closes the
same way, too: quiet the sources, outlive the scripted faults, drain to
quiescence, settle past the watermark, stop, wait out the finalize
grace. :class:`ScriptedRun` owns that assembly, that close-out and the
:class:`~repro.report.ScenarioReport` envelope. A runner keeps only its
sites, its fault script and its own result fields.

The runners differ on purpose in a few places, and say so at the call
site: chaos runs without flow control and skips the quiescence loop
(its contract is that the drain finishes within the finalize grace, and
waiting for quiescence would hide a slower one); soak caps the drain at
an hour and audits the loss bound continuously.
"""

from __future__ import annotations

import dataclasses
import time

from repro.cloud.deployment import CloudEnvironment
from repro.core.engine import SageEngine
from repro.flow.policy import FlowConfig
from repro.obs.audit import SLOAuditor
from repro.report import ScenarioReport, metrics_snapshot
from repro.streaming.dataflow import SiteSpec, StreamJob
from repro.streaming.operators import builtin_aggregate
from repro.streaming.runtime import GeoStreamRuntime
from repro.streaming.shipping import ReliableShipping, SageShipping
from repro.streaming.windows import TumblingWindows


class LossAccounting:
    """The loss identity over a payload's ingest and drop counters.

    Mixed into the result payloads that carry ``shed``,
    ``late_dropped``, ``late_partial_records`` and
    ``abandoned_records``; payloads with an admission gate also count
    ``admission_rejected``.
    """

    @property
    def lost(self) -> int:
        return max(0, self.ingested - self.counted)

    @property
    def explained(self) -> int:
        """Loss the shed/late/abandoned/admission counters explain."""
        return (
            self.shed
            + self.late_dropped
            + self.late_partial_records
            + self.abandoned_records
            + getattr(self, "admission_rejected", 0)
        )

    @property
    def accounted(self) -> bool:
        """Every missing record is explained by a drop counter."""
        return self.lost == self.explained


class ScriptedRun:
    """One scripted geo-streaming run, from assembly to report.

    ``cfg`` is the scenario's config; the harness reads its ``seed``,
    SLO bounds and ``strict_slo`` and stamps its dict form into the
    report. ``sites`` maps each producing region to its sources.
    ``policy=None`` builds the job without flow control: unbounded
    buffers and plain at-least-once shipping. Any policy gets the shared
    preset instead: 8 in-flight batches per link, 64 parked (unbounded
    under ``block``) and a 3-failure / 20 s circuit breaker.
    ``control`` arms a control plane with a leader and one warm standby
    per ``standby_regions`` entry.
    """

    def __init__(
        self,
        cfg,
        name: str,
        deployment: dict[str, int],
        sites: dict[str, list],
        aggregation_region: str,
        *,
        window_s: float = 10.0,
        finalize_grace: float = 120.0,
        policy: str | None = None,
        max_backlog: int = 0,
        delivery_timeout: float = 15.0,
        max_retries: int = 8,
        retry_budget: int | None = None,
        per_vm_records_per_s: float | None = None,
        checkpoint_interval: float = 0.0,
        control=None,
        standby_regions: tuple[str, ...] = (),
        check_interval: float = 5.0,
        continuous_loss: bool = False,
        observer=None,
    ) -> None:
        self.wall0 = time.perf_counter()
        self.cfg = cfg
        self.name = name
        self.observer = observer
        flow = None
        shipping = {}
        if policy is not None:
            flow = FlowConfig(
                policy=policy,
                max_backlog=max_backlog,
                max_inflight=8,
                # ``block`` must never shed in the shipping layer; the
                # lossy policies bound the parked queue as well.
                max_pending=None if policy == "block" else 64,
                breaker_threshold=3,
                breaker_reset=20.0,
            )
            shipping = dict(
                max_inflight=flow.max_inflight,
                max_pending=flow.max_pending,
                breaker=True,
                breaker_threshold=flow.breaker_threshold,
                breaker_reset=flow.breaker_reset,
            )
        env = CloudEnvironment(seed=cfg.seed, variability_sigma=0.0, glitches=False)
        self.engine = engine = SageEngine(
            env, deployment_spec=dict(deployment), observer=observer
        )
        engine.start(learning_phase=120.0)

        self.job = StreamJob(
            name=name,
            sites=[SiteSpec(region, srcs) for region, srcs in sites.items()],
            aggregation_region=aggregation_region,
            windows=TumblingWindows(window_s),
            aggregate=builtin_aggregate("count"),
            finalize_grace=finalize_grace,
            flow=flow,
        )
        factory = ReliableShipping.factory(
            SageShipping.factory(n_nodes=2, plan_ttl=30.0),
            delivery_timeout=delivery_timeout,
            max_retries=max_retries,
            retry_budget=retry_budget,
            **shipping,
        )
        capacity = {}
        if per_vm_records_per_s is not None:
            capacity["per_vm_records_per_s"] = per_vm_records_per_s
        self.runtime = runtime = GeoStreamRuntime(engine, self.job, factory, **capacity)
        self.store = None
        if checkpoint_interval > 0:
            self.store = runtime.enable_checkpointing(
                interval=checkpoint_interval
            ).store
        self.plane = None
        if control is not None:
            # Imported here: repro.control's package init imports the
            # serve scenario, which imports this module.
            from repro.control.plane import ControlPlane

            self.plane = ControlPlane(engine, runtime, control)
            self.plane.add_leader()
            for region in standby_regions:
                self.plane.add_standby(region)
        self.auditor = SLOAuditor(
            engine,
            runtime,
            max_latency_s=cfg.slo_max_latency_s,
            max_usd_per_1k=cfg.slo_max_usd_per_1k,
            check_interval=check_interval,
            continuous_loss=continuous_loss,
            control=self.plane,
        ).start()
        if self.plane is not None:
            self.plane.auditor = self.auditor
            self.plane.start()
        self.t0 = engine.sim.now
        self.quiet_at = self.t0
        self.audit = None
        self.cost = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start ingesting; scenario-relative times count from here."""
        self.t0 = self.engine.sim.now
        self.runtime.start()

    def run_until(self, relative: float) -> None:
        self.engine.run_until(self.t0 + relative)

    def close(
        self,
        *,
        fault_end: float = 0.0,
        drain_cap: float = 1800.0,
        settle: float = 30.0,
    ) -> bool:
        """Close the run out, finish the audit; True if the pipe drained.

        Sources stop with a drain: a blocked source delivers its deferred
        tail instead of freezing it (which would pin the watermark and
        strand open windows). ``fault_end`` is the absolute virtual time
        the fault script ends; a short run may stop its sources with a
        crash or a blackout still ahead. The drain then runs to
        *quiescence*, not for a fixed window: the recovery tail is
        data-dependent, and stopping the ticks with records still in the
        pipe would lose them silently. ``drain_cap`` only bounds a
        runaway policy bug; ``drain_cap=0`` skips the loop.
        """
        engine, runtime = self.engine, self.runtime
        for site in runtime.sites.values():
            site.stop_sources(drain=True)
        self.quiet_at = engine.sim.now
        if engine.sim.now < fault_end:
            engine.run_until(fault_end)
        cap = engine.sim.now + drain_cap
        while runtime.in_pipe() and engine.sim.now < cap:
            engine.run_until(engine.sim.now + 10.0)
        drained = runtime.in_pipe() == 0
        engine.run_until(engine.sim.now + self.job.watermark_lag + settle)
        runtime.stop()
        if self.plane is not None:
            self.plane.stop()
        engine.run_until(engine.sim.now + self.job.finalize_grace + 60.0)
        engine.env.finalize()

        self.audit = self.auditor.finish()
        self.cost = engine.ledger.summary(
            windows=len(runtime.results) or None,
            records=runtime.records_ingested() or None,
        )
        return drained

    # ------------------------------------------------------------------
    def tallies(self, payload) -> dict:
        """The counters result payloads share, limited to ``payload``'s fields.

        Call after :meth:`close`. Each name means the same thing in
        every payload that carries it; the control-plane rollups appear
        only when a plane is armed (the payload defaults are zero).
        """
        runtime = self.runtime
        sites = list(runtime.sites.values())
        backends = [site.shipping for site in sites]
        sources = [src for site in sites for src in site.spec.sources]
        agg = runtime.aggregator
        store = self.store
        common = {
            "ingested": runtime.records_ingested(),
            "counted": runtime.records_in_results(),
            "results": len(runtime.results),
            "shed": runtime.records_shed(),
            "admission_rejected": runtime.records_admission_rejected(),
            "late_dropped": sum(site.aggregator.late_dropped for site in sites),
            "late_partial_records": agg.late_partial_records,
            "retries": sum(b.retries for b in backends),
            "abandoned": sum(b.abandoned for b in backends),
            "abandoned_records": sum(b.records_abandoned for b in backends),
            "retry_budget_exhausted": sum(
                getattr(b, "retry_budget_exhausted", 0) for b in backends
            ),
            "duplicates_dropped": agg.duplicates_dropped,
            "backlog_peaks": {site.spec.region: site.max_backlog for site in sites},
            "max_deferred": sum(src.max_deferred for src in sources),
            "checkpoints": store.saves if store is not None else 0,
            "checkpoint_bytes": (
                store.size_bytes("aggregator") if store is not None else 0
            ),
            "aggregator_crashes": runtime.aggregator_crashes,
            "batches_dropped_while_down": runtime.batches_dropped_while_down,
            "latency": runtime.latency_stats(),
            "wan_bytes": runtime.wan_bytes(),
            "audit": self.audit.to_dict(),
            "cost": self.cost.to_dict(),
            "slo_violations": len(self.audit.violations),
            "strict_slo": self.cfg.strict_slo,
        }
        plane = self.plane
        if plane is not None:
            common.update(
                failovers=len(plane.failovers),
                epochs=plane.lease.epoch,
                standby_syncs=plane.standby_syncs,
            )
        names = {f.name for f in dataclasses.fields(payload)}
        return {name: value for name, value in common.items() if name in names}

    def report(self, details) -> ScenarioReport:
        """Wrap the scenario payload in the uniform report envelope."""
        return ScenarioReport(
            scenario=self.name,
            config=self.cfg.to_dict(),
            seed=self.cfg.seed,
            virtual_seconds=self.engine.sim.now,
            wall_seconds=time.perf_counter() - self.wall0,
            details=details,
            metrics=metrics_snapshot(self.observer),
        )


__all__ = ["LossAccounting", "ScriptedRun"]
