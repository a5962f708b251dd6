"""The four benchmark workloads.

Each workload is a fixed simulated input run to completion. ``build``
does the set-up a user pays before the first simulated event of the
measured part (imports are timed by the caller), and returns a
zero-argument callable that runs the simulation and returns an
:class:`Outcome`. Wall time measures the program; the outcome's
simulated figures measure SAGE's behaviour and are identical on every
run of one seed.

Inputs come only from the seed. At :data:`DEFAULT_SEED` and full size the
outcome digest must equal the one recorded in :data:`DIGESTS`; every
seed is checked against the program's own invariants.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_SEED = 2013

#: Outcome digests at DEFAULT_SEED and full size. A perf change must
#: reproduce them byte for byte; a change that alters simulated
#: behaviour must say so and re-record them.
DIGESTS = {
    "soak": "f5bc8285f56e6ef6b3af190eb760f79ad50740d024d355516de1fae7f34f0340",
    "stream-dense": "8d959e97521281e2564c3fb03cb6dcca67b1c74a7f11db7d7d69d0c637577eae",
    "transfer-mix": "b20a432d67b9945ebb2d2b22e96dc6fcf7a00d018a8f12b10afc338a12cb4bd5",
    "sweep": "56e42164dc4755b499fb9c6ca9c346d73263b9281658d634ead2331fc7fb3865",
}

WORKLOADS = ("soak", "stream-dense", "transfer-mix", "sweep")


@dataclass
class Outcome:
    """What one run of a workload produced (simulated, deterministic)."""

    #: Work items completed: records ingested, or managed transfers.
    ops: int
    #: Operations attempted and failed, as the run's JSON reports them.
    attempted: int
    failed: int
    #: Per-operation simulated latencies (seconds of simulated time):
    #: window close -> global emission, or transfer start -> completion.
    latency_p50: float
    latency_p95: float
    latency_p99: float
    latency_count: int
    #: Attributed simulated USD per 1000 operations.
    usd_per_1k_ops: float
    digest: str
    #: Invariant violations found by the workload's own checks.
    problems: list[str] = field(default_factory=list)
    #: Workload-specific figures for the readable report (name -> (value, unit)).
    extra: dict[str, tuple[float, str]] = field(default_factory=dict)

    def sim_fingerprint(self) -> tuple:
        """Everything simulated; equal across runs of one seed."""
        return (
            self.ops,
            self.attempted,
            self.failed,
            self.latency_p50,
            self.latency_p95,
            self.latency_p99,
            self.latency_count,
            self.usd_per_1k_ops,
            self.digest,
        )


def tail_percentile(count: int) -> float:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for q in (99.9, 99.0, 95.0, 90.0):
        if count * (1.0 - q / 100.0) >= 10.0:
            return q
    return 50.0


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else math.nan


def _sha256(rows) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update(json.dumps(row, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


# ----------------------------------------------------------------------
# soak: the default `sage soak` scenario
# ----------------------------------------------------------------------
def build_soak(seed: int, tiny: bool = False):
    """The default 2 h adversarial soak.

    The default scenario's deployment and traffic program (generated
    from :data:`DEFAULT_SEED`) are kept for every seed, so the offered
    load is the same on every run; the seed draws the record arrivals
    and the fault program. At DEFAULT_SEED this is exactly ``sage soak``.
    """
    from repro.config import SoakConfig
    from repro.gen.scenario import ScenarioGenerator
    from repro.gen.soak import SoakRunner

    hours = 0.1 if tiny else 2.0
    # One scenario generation on every seed, so set-up costs the same on
    # the default seed and on held-out ones.
    runner = SoakRunner(SoakConfig(seed=DEFAULT_SEED, hours=hours))
    runner.config = SoakConfig(seed=seed, hours=hours)
    runner.generator = ScenarioGenerator(seed, profile=runner.config.profile)

    def run() -> Outcome:
        return soak_outcome(runner.run().details)

    return run


def soak_outcome(d) -> Outcome:
    problems = []
    if not d.accounted:
        problems.append(f"loss identity broken: lost {d.lost} != explained {d.explained}")
    if not d.drained:
        problems.append("pipeline did not drain")
    if d.slo_violations:
        problems.append(f"{d.slo_violations} SLO violations")
    lat = d.latency
    return Outcome(
        ops=d.ingested,
        attempted=d.ingested,
        failed=max(0, d.lost - d.explained),
        latency_p50=lat.p50,
        latency_p95=lat.p95,
        latency_p99=lat.p99,
        latency_count=lat.count,
        usd_per_1k_ops=d.usd_per_1k,
        digest=d.digest,
        problems=problems,
        extra={
            "windows": (d.results, "count"),
            "faults_applied": (d.faults_applied, "count"),
            "records_lost_to_faults": (d.lost, "count"),
            "loss_ratio": (d.lost / d.ingested if d.ingested else 0.0, "ratio"),
        },
    )


# ----------------------------------------------------------------------
# stream-dense: clickstream at a high rate over many keys
# ----------------------------------------------------------------------
DENSE_REGIONS = ("NEU", "WEU", "NUS", "SUS", "EUS")
DENSE_AGGREGATION = "WUS"


def build_stream_dense(seed: int, tiny: bool = False):
    """``clickstream_job`` over five sites into WUS, 200 page keys.

    Quiet-state rate 800 rec/s per site with bursts to 1600 rec/s: a
    high rate whose bursts vary the load little between seeds. The bot
    filter is off so every ingested record must land in a result.
    """
    from repro.streaming.runtime import GeoStreamRuntime
    from repro.streaming.shipping import SageShipping
    from repro.workloads.clickstream import clickstream_job
    from repro.workloads.synthetic import fresh_engine

    duration = 60.0 if tiny else 600.0
    spec = {r: 4 for r in (*DENSE_REGIONS, DENSE_AGGREGATION)}
    engine = fresh_engine(seed=seed, spec=spec, learning_phase=120.0)
    job = clickstream_job(
        site_regions=list(DENSE_REGIONS),
        aggregation_region=DENSE_AGGREGATION,
        base_rate=800.0,
        burst_rate=1600.0,
        n_pages=20 if tiny else 200,
        bot_filter=False,
    )
    runtime = GeoStreamRuntime(
        engine, job, SageShipping.factory(n_nodes=2), per_vm_records_per_s=5000.0
    )

    def run() -> Outcome:
        # Drain the way the soak does: quiet the sources, let the
        # watermark pass the last window, then let the grace timers fire.
        runtime.start()
        engine.run_until(engine.sim.now + duration)
        for site in runtime.sites.values():
            site.stop_sources(drain=True)
        engine.run_until(engine.sim.now + job.watermark_lag + 30.0)
        runtime.stop()
        engine.run_until(engine.sim.now + job.finalize_grace + 60.0)
        engine.env.finalize()
        return stream_outcome(engine, runtime)

    return run


def stream_outcome(engine, runtime) -> Outcome:
    results = runtime.results
    ingested = runtime.records_ingested()
    counted = runtime.records_in_results()
    cost = engine.ledger.summary(
        windows=len(results) or None, records=ingested or None
    )
    lat = np.array([r.latency for r in results])
    problems = []
    if counted != ingested:
        problems.append(f"{ingested - counted} ingested records in no result")
    if not len(lat):
        problems.append("no window results")
    rows = sorted(
        (r.window.start, r.window.end, r.key, r.value, r.record_count, r.emitted_at)
        for r in results
    )
    keys = len({r.key for r in results})
    windows = len({r.window for r in results})
    return Outcome(
        ops=ingested,
        attempted=ingested,
        failed=max(0, ingested - counted),
        latency_p50=percentile(lat, 50),
        latency_p95=percentile(lat, 95),
        latency_p99=percentile(lat, 99),
        latency_count=len(lat),
        usd_per_1k_ops=cost.usd_per_1k_records,
        digest=_sha256(rows),
        problems=problems,
        extra={
            "windows": (windows, "count"),
            "keys": (keys, "count"),
            "wan_bytes": (runtime.wan_bytes(), "B"),
        },
    )


# ----------------------------------------------------------------------
# transfer-mix: managed transfers on an open-loop arrival schedule
# ----------------------------------------------------------------------
MIX_REGIONS = ("NEU", "WEU", "NUS", "SUS", "EUS", "WUS")
#: Constraint classes, in equal shares. Budgets sit a fraction of the way
#: from the cheapest option's predicted cost to the knee's; deadlines are
#: a multiple of the knee's predicted time. The "tight" classes bind.
MIX_KINDS = ("knee", "budget", "budget-tight", "deadline", "deadline-tight")
MIX_GAP_S = 10.0


@dataclass(frozen=True)
class TransferRequest:
    due: float
    src: str
    dst: str
    size: float
    kind: str


def mix_schedule(seed: int, n: int) -> list[TransferRequest]:
    """The seeded open-loop schedule: one transfer due per 10 s slot.

    The requests themselves are fixed: sizes form a log-spaced ladder
    from 100 MB to 4 GB, and constraint classes and region pairs are
    dealt round-robin along the ladder, so every class and every pair
    gets sizes from the whole range. The seed draws the arrival order
    and jitters each due time within its slot; every seed offers the
    same load.
    """
    from repro.simulation.units import GB, MB

    rng = np.random.default_rng(seed)
    sizes = np.exp(np.linspace(np.log(100 * MB), np.log(4 * GB), n))
    pairs = [(a, b) for a in MIX_REGIONS for b in MIX_REGIONS if a != b]
    order = rng.permutation(n)
    jitter = rng.uniform(0.0, MIX_GAP_S, n)
    requests = []
    for slot, i in enumerate(order):
        src, dst = pairs[(i // len(MIX_KINDS)) % len(pairs)]
        requests.append(TransferRequest(
            due=slot * MIX_GAP_S + float(jitter[slot]),
            src=src,
            dst=dst,
            size=float(sizes[i]),
            kind=MIX_KINDS[i % len(MIX_KINDS)],
        ))
    return requests


def constraint_for(dm, req: TransferRequest) -> dict:
    """Budget or deadline for ``req`` from the model's own option curve."""
    if req.kind == "knee":
        return {}
    thr = dm.monitor.estimated_throughput(req.src, req.dst)
    options = dm.tradeoff.options(req.size, thr)
    knee = dm.tradeoff.knee(options)
    if req.kind.startswith("budget"):
        cheapest = min(o.usd for o in options)
        share = 0.1 if req.kind == "budget-tight" else 0.5
        return {"budget_usd": cheapest + share * (knee.usd - cheapest) + 1e-9}
    factor = 1.0 if req.kind == "deadline-tight" else 1.5
    return {"deadline_s": factor * knee.predicted_time}


def build_transfer_mix(seed: int, tiny: bool = False):
    """A SageSession on 6 regions x 6 VMs fed 1000 managed transfers.

    1000 transfers so that the p99 transfer time has ten samples beyond
    it. Arrivals follow :func:`mix_schedule` regardless of how many
    transfers are still running (open loop). The simulated cloud and its
    link weather are the default seed's for every seed: with the weather
    drawn anew, the seed alone moved the transfer-time percentiles by
    10-20%.
    """
    from repro import SageSession

    session = SageSession(
        deployment={r: 6 for r in MIX_REGIONS}, seed=DEFAULT_SEED
    )
    schedule = mix_schedule(seed, 30 if tiny else 1000)

    def run() -> Outcome:
        return run_mix(session, schedule)

    return run


def run_mix(session, schedule: list[TransferRequest]) -> Outcome:
    from repro.simulation.units import DAY, GB, MINUTE

    env = session.env
    dm = session.engine.decisions
    start = env.now
    before = env.meter.snapshot()
    issued: list[tuple[TransferRequest, dict, object]] = []
    refused: list[str] = []

    def issue(req: TransferRequest) -> None:
        limits = constraint_for(dm, req)
        try:
            mt = dm.transfer(req.src, req.dst, req.size, **limits)
        except ValueError as exc:
            refused.append(str(exc))
            return
        issued.append((req, limits, mt))

    for req in schedule:
        env.sim.schedule(req.due, issue, req)
    last_due = start + max(req.due for req in schedule)
    env.run_until(last_due)
    cap = env.now + DAY
    while any(not mt.done for _, _, mt in issued) and env.now < cap:
        env.run_until(env.now + MINUTE)
    session.close()
    usd = (env.meter.snapshot() - before).total_usd

    done = [(req, limits, mt) for req, limits, mt in issued if mt.done]
    elapsed = np.array([mt.elapsed for _, _, mt in done])
    incomplete = len(issued) - len(done)
    late = sum(
        1 for _, limits, mt in done
        if "deadline_s" in limits and mt.elapsed > limits["deadline_s"]
    )
    with_deadline = sum(1 for _, limits, _ in issued if "deadline_s" in limits)
    ratio = [mt.elapsed / mt.prediction for _, _, mt in done if mt.prediction]
    moved_gb = sum(req.size for req, _, _ in done) / GB
    problems = []
    if refused:
        problems.append(f"{len(refused)} transfers refused: {refused[0]}")
    if incomplete:
        problems.append(f"{incomplete} transfers incomplete after a simulated day")
    rows = [
        [req.src, req.dst, req.size, req.kind, limits, mt.elapsed, mt.replans,
         mt.prediction, [s.plan.vm_count() for s in mt.sessions]]
        for req, limits, mt in done
    ]
    n = len(schedule)
    return Outcome(
        ops=len(done),
        attempted=n,
        failed=n - len(done),
        latency_p50=percentile(elapsed, 50),
        latency_p95=percentile(elapsed, 95),
        latency_p99=percentile(elapsed, 99),
        latency_count=len(elapsed),
        usd_per_1k_ops=usd / n * 1000.0,
        digest=_sha256(rows),
        problems=problems,
        extra={
            "transfer_s_p90": (percentile(elapsed, 90), "sim_s"),
            "usd_per_gb": (usd / moved_gb if moved_gb else math.nan, "USD/GB"),
            "deadline_miss_ratio": (
                late / with_deadline if with_deadline else 0.0, "ratio"
            ),
            "achieved_over_predicted_p50": (
                float(np.median(ratio)) if ratio else math.nan, "ratio"
            ),
            "replans": (sum(mt.replans for _, _, mt in issued), "count"),
        },
    )


# ----------------------------------------------------------------------
# sweep: the E-suite sweep plus one serve shard, two worker processes
# ----------------------------------------------------------------------
SWEEP_JOBS = 2


def sweep_tasks(tiny: bool = False) -> list:
    from repro.api import SweepTask, default_suite

    duration = 240.0 if tiny else 1800.0
    return default_suite(duration=duration) + [
        SweepTask(name="serve", scenario="serve", config={"duration": duration})
    ]


def build_sweep(seed: int, tiny: bool = False):
    """chaos x2 + overload x3 + serve, jobs=2, no result cache."""
    from repro.api import run_sweep

    tasks = sweep_tasks(tiny)

    def run() -> Outcome:
        report = run_sweep(tasks, jobs=SWEEP_JOBS, root_seed=seed)
        return sweep_outcome(report)

    return run


def sweep_outcome(report) -> Outcome:
    problems = [f"shard {s.name} failed: {s.error}" for s in report.failures]
    results = [s.result for s in report.shards if s.ok]
    for s in report.shards:
        if s.ok and s.result["result"].get("audit", {}).get("violation_count"):
            problems.append(f"shard {s.name} has SLO violations")
    payloads = [r["result"] for r in results]
    ingested = sum(p["ingested"] for p in payloads)
    usd = sum(p["cost"]["total_usd"] for p in payloads)
    lat = [p["latency"] for p in payloads if p.get("latency", {}).get("count")]
    shard_wall = sum(s.wall_seconds for s in report.shards)
    return Outcome(
        ops=ingested,
        attempted=len(report.shards),
        failed=len(report.failures),
        latency_p50=float(np.median([x["p50"] for x in lat])) if lat else math.nan,
        latency_p95=float(np.median([x["p95"] for x in lat])) if lat else math.nan,
        latency_p99=float(np.median([x["p99"] for x in lat])) if lat else math.nan,
        latency_count=sum(x["count"] for x in lat),
        usd_per_1k_ops=usd / ingested * 1000.0 if ingested else math.nan,
        digest=report.digest(),
        problems=problems,
        extra={
            "shards": (len(report.shards), "count"),
            "parallel_efficiency": (
                shard_wall / (report.jobs * report.wall_seconds), "ratio"
            ),
        },
    )


BUILDERS = {
    "soak": build_soak,
    "stream-dense": build_stream_dense,
    "transfer-mix": build_transfer_mix,
    "sweep": build_sweep,
}


def check(workload: str, seed: int, tiny: bool, outcome: Outcome) -> list[str]:
    """Invariant problems plus, at the default seed, a digest mismatch."""
    problems = list(outcome.problems)
    if not (outcome.ops > 0 and outcome.latency_count > 0):
        problems.append("workload completed no operations")
    if seed == DEFAULT_SEED and not tiny:
        want = DIGESTS[workload]
        if outcome.digest != want:
            problems.append(f"digest {outcome.digest[:16]} != recorded {want[:16]}")
    return problems
