"""SAGE repository benchmark: one command, four workloads.

Run one workload in this (fresh) process::

    python3 perfbench/run.py --workload soak --seed 2013 --seconds 50 --trace 0

or every workload, interleaved over :data:`REPS` repetitions, each run
in its own process, followed by one traced run per workload::

    python3 perfbench/run.py --workload all

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer attribution instead. The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the exit
code is non-zero when an output check failed. See README.md.
"""

import time

#: Reference point for ``setup_s``: taken before anything is imported.
T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

#: Fewest timed iterations per run, however short ``--seconds`` is.
MIN_ITERATIONS = 3
#: Fresh processes that repeat the set-up, for the setup_s median.
SETUP_PROBES = 5
#: Repetitions of every workload with ``--workload all``.
REPS = 3
#: The reference loop's median time on the machine the bounds were set
#: on (2 vCPUs of a shared host); wall_norm_s is in seconds at that speed.
REFERENCE_S = 0.39

END_TO_END = (
    ("wall_norm_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_latency_p50_s", "sim_s"),
    ("sim_latency_p95_s", "sim_s"),
    ("usd_per_1k_ops", "USD"),
)

PER_LAYER = tuple(
    [(f"{layer}.{m}", u) for layer in tracing.LAYER_NAMES
     for m, u in (("calls", "count"), ("self_s", "s"), ("share", "ratio"))]
    + [
        ("trace.wall_s", "s"),
        ("trace.unattributed_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.spans", "count"),
        ("simulation.events", "count"),
        ("simulation.events_per_wall_s", "1/s"),
        ("sources.records", "count"),
        ("sources.batches", "count"),
        ("sources.records_per_batch", "ratio"),
        ("windows.batches_folded", "count"),
        ("windows.keys_per_window", "ratio"),
        ("windows.results", "count"),
        ("shipping.batches", "count"),
        ("shipping.wan_bytes", "B"),
        ("shipping.retries", "count"),
        ("shipping.delivered_ratio", "ratio"),
        ("aggregator.partials_merged", "count"),
        ("aggregator.duplicates_dropped", "count"),
        ("network.allocations", "count"),
        ("network.flows_started", "count"),
        ("network.concurrent_flows_mean", "count"),
        ("monitor.samples", "count"),
        ("decision.plans", "count"),
        ("decision.replans_per_transfer", "ratio"),
        ("decision.achieved_over_predicted_p50", "ratio"),
        ("transfer.sessions", "count"),
        ("transfer.chunks", "count"),
        ("transfer.chunks_unacked", "count"),
        ("checkpoint.saves", "count"),
        ("checkpoint.bytes", "B"),
        ("flow.backlog_peak", "count"),
        ("control.failovers", "count"),
        ("control.standby_syncs", "count"),
        ("control.mttr_max_s", "sim_s"),
        ("faults.applied", "count"),
        ("audit.checks", "count"),
        ("lineage.absorbs", "count"),
        ("gen.generate_s", "s"),
        ("runner.worker_start_s", "s"),
        ("runner.parallel_efficiency", "ratio"),
    ]
)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=2013)
    p.add_argument("--seconds", type=float, default=50.0,
                   help="wall seconds of timed iterations per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: seconds-long inputs for the benchmark's tests")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
    }


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    })


def save(name: str, record: dict) -> None:
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / name, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)


# ----------------------------------------------------------------------
# one workload, one process
# ----------------------------------------------------------------------
def probe_setup(args) -> list[float]:
    """Set-up time in fresh processes: cold import plus construction."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
        "--size", args.size,
    ]
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
        )
        samples.append(float(out.stdout.split()[-1]))
    return samples


class _Event:
    __slots__ = ("t", "key", "value")

    def __init__(self, t, key, value):
        self.t, self.key, self.value = t, key, value


def reference(n: int = 250_000) -> float:
    """Wall seconds of a fixed loop that does what the simulator's hot
    path does: heap pops and pushes, small objects, dict folds, and a
    small numpy sort now and then. It runs no repository code, so a
    change to the program cannot move it; only the machine can.
    """
    import numpy as np

    gc.disable()
    try:
        t0 = time.perf_counter()
        heap = [(float(i), i) for i in range(64)]
        heapq.heapify(heap)
        folds: dict[int, float] = {}
        x = 12345
        for i in range(n):
            t, j = heapq.heappop(heap)
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            ev = _Event(t, x % 211, (x >> 8) / 7.0)
            folds[ev.key] = folds.get(ev.key, 0.0) + ev.value
            heapq.heappush(heap, (t + 1.0 + (x & 7), j))
            if not i % 512:
                np.fromiter(folds.values(), float, len(folds)).sort()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def normalised(walls: list[float], refs: list[float]) -> list[float]:
    """Each iteration's wall rescaled to the reference machine speed, by
    the mean of the reference timings taken just before and after it."""
    return [w * REFERENCE_S / ((a + b) / 2)
            for w, a, b in zip(walls, refs, refs[1:])]


def timed_iterations(wl, args, run, deadline: float, minimum: int):
    """Run the workload ``minimum`` times, then while another iteration
    fits before ``deadline``, timing the reference loop before the first
    iteration and after each; returns (walls, refs, outcome, problems)."""
    tiny = args.size == "tiny"
    walls, refs, outcome, problems = [], [reference()], None, []
    while True:
        if run is None:
            # Free the previous iteration's object graph first: left to
            # the cyclic collector it doubles the heap the next iteration
            # allocates into, which slowed soak iterations by up to 20%.
            gc.collect()
            run = wl.BUILDERS[args.workload](args.seed, tiny)
        gc.collect()
        t0 = time.perf_counter()
        out = run()
        walls.append(time.perf_counter() - t0)
        refs.append(reference())
        run = None
        if outcome is None:
            outcome = out
            problems += wl.check(args.workload, args.seed, tiny, out)
        elif out.sim_fingerprint() != outcome.sim_fingerprint():
            problems.append("simulated outcome differs between runs of one seed")
        next_end = time.perf_counter() + walls[-1] + refs[-1]
        if len(walls) >= minimum and next_end > deadline:
            return walls, refs, outcome, problems


def run_untraced(args, wl, run) -> int:
    setup = probe_setup(args)
    walls, refs, outcome, problems = timed_iterations(
        wl, args, run, time.perf_counter() + args.seconds, MIN_ITERATIONS
    )
    norm = normalised(walls, refs)
    wall = statistics.median(walls)
    metrics = {
        "wall_norm_s": (statistics.median(norm), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "sim_latency_p50_s": (outcome.latency_p50, "sim_s"),
        "sim_latency_p95_s": (outcome.latency_p95, "sim_s"),
        "usd_per_1k_ops": (outcome.usd_per_1k_ops, "USD"),
    }
    assert [(k, u) for k, (_, u) in metrics.items()] == list(END_TO_END)
    env = environment()
    n1, nmed, n3 = quartiles(norm)
    q1, med, q3 = quartiles(walls)
    s1, smed, s3 = quartiles(setup)
    tail = wl.tail_percentile(outcome.latency_count)
    print(f"perfbench {args.workload} seed={args.seed} size={args.size} "
          f"seconds={args.seconds:g}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"  wall_norm_s       {nmed:.4f} s   (q1 {n1:.4f}, q3 {n3:.4f}, "
          f"{len(walls)} iterations)")
    print(f"  wall_s            {med:.4f} s   (q1 {q1:.4f}, q3 {q3:.4f}, "
          f"mean {statistics.fmean(walls):.4f}; reference loop median "
          f"{statistics.median(refs):.4f} s, nominal {REFERENCE_S:g} s)")
    print(f"  setup_s           {smed:.4f} s   (q1 {s1:.4f}, q3 {s3:.4f}, "
          f"{len(setup)} processes)")
    for name, (value, unit) in list(metrics.items())[2:]:
        print(f"  {name:<17} {value:.6g} {unit}")
    print(f"  ops_per_s         {outcome.ops / wall:.6g} 1/s "
          f"({outcome.ops} {'transfers' if args.workload == 'transfer-mix' else 'records'})")
    print(f"  sim_latency_p99_s {outcome.latency_p99:.6g} sim_s")
    print(f"  latency samples   {outcome.latency_count} "
          f"(highest supported percentile: p{tail:g})")
    print(f"  failed_ratio      {outcome.failed / max(1, outcome.attempted):.6g} "
          f"({outcome.failed} of {outcome.attempted})")
    for name, (value, unit) in outcome.extra.items():
        print(f"  {name:<17} {value:.6g} {unit}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    correct = not problems
    save(f"{args.workload}-trace0.json", {
        "args": vars(args), "env": env, "walls": walls, "refs": refs,
        "setup": setup,
        "metrics": metrics, "digest": outcome.digest, "problems": problems,
    })
    failed = outcome.failed if correct else outcome.attempted
    print(result_line(correct, outcome.attempted, failed, metrics))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# the traced run
# ----------------------------------------------------------------------
def traced_sweep(wl, seed: int, tiny: bool):
    """The sweep with every shard run under a tracer in its worker."""
    from repro.api import SweepTask, run_sweep

    tasks = wl.sweep_tasks(tiny)
    wrapped = [
        SweepTask(
            name=t.name,
            scenario="tracing:traced_shard",
            config={"scenario": t.scenario, "config": t.config, "run_id": i + 2},
        )
        for i, t in enumerate(tasks)
    ]

    def run():
        started = time.time()
        report = run_sweep(wrapped, jobs=wl.SWEEP_JOBS, root_seed=seed)
        shards = [s for s in report.shards if s.ok]
        plain = replace(report, shards=tuple(
            replace(s, scenario=t.scenario,
                    result=s.result["report"] if s.ok else None)
            for s, t in zip(report.shards, tasks)
        ))
        firsts: dict[int, float] = {}
        for s in shards:
            pid = s.result["pid"]
            firsts[pid] = min(firsts.get(pid, s.result["started_at"]),
                              s.result["started_at"])
        return wl.sweep_outcome(plain), {
            "parts": [s.result["trace"] for s in shards],
            "counters": [s.result["counters"] for s in shards],
            "worker_wall_s": sum(s.result["wall_s"] for s in shards),
            "worker_start_s": statistics.median(
                [t - started for t in firsts.values()]
            ) if firsts else 0.0,
        }

    return run


def run_traced(args, wl, run) -> int:
    tiny = args.size == "tiny"
    # Untraced iterations first: their median is what the tracing
    # overhead is measured against.
    walls, _, outcome, problems = timed_iterations(
        wl, args, run, time.perf_counter() + args.seconds / 2, 1
    )
    untraced = statistics.median(walls)

    tracer = tracing.LayerTracer()
    with tracer:
        if args.workload == "sweep":
            run = traced_sweep(wl, args.seed, tiny)
        else:
            run = wl.BUILDERS[args.workload](args.seed, tiny)
        tracer.run_id = 1
        t0 = time.perf_counter()
        out = run()
        traced_wall = time.perf_counter() - t0
    counters = [tracing.shard_counters(tracer)]
    workers = {"parts": [], "counters": [], "worker_wall_s": 0.0,
               "worker_start_s": 0.0}
    if args.workload == "sweep":
        out, workers = out
        counters += workers["counters"]
    if out.sim_fingerprint() != outcome.sim_fingerprint():
        problems.append("traced run changed the simulated outcome")

    spans = tracing.Spans.merge([tracer.export()] + workers["parts"])
    setup_spans = spans.subset(spans.run == 0)
    generate_s = float(setup_spans.by_layer()["gen"][1])
    run_spans = spans.subset(spans.run != 0)

    total_wall = traced_wall + workers["worker_wall_s"]
    metrics = {name: (0.0, unit) for name, unit in PER_LAYER}
    by_layer = run_spans.by_layer()
    for layer, (calls, self_s) in by_layer.items():
        metrics[f"{layer}.calls"] = (calls, "count")
        metrics[f"{layer}.self_s"] = (self_s, "s")
        metrics[f"{layer}.share"] = (self_s / total_wall, "ratio")
    c = merge_counters(counters)
    calls = run_spans.calls
    events = c["simulation.events"]
    batches = calls("SiteRuntime.ingest")
    shipped = c["shipping.batches"]
    transfers = c["decision.transfers"]
    extra = outcome.extra
    values = {
        "trace.wall_s": total_wall,
        "trace.unattributed_s": total_wall - run_spans.attributed(),
        "trace.overhead_s": traced_wall - untraced,
        "trace.spans": len(run_spans),
        "simulation.events": events,
        "simulation.events_per_wall_s": events / untraced,
        "sources.records": c["sources.records"],
        "sources.batches": batches,
        "sources.records_per_batch": c["sources.records"] / batches if batches else 0.0,
        "windows.batches_folded": calls("WindowedAggregator.process_batch")
        + calls("WindowedAggregator.process"),
        "windows.keys_per_window": (
            c["windows.results"] / c["windows.distinct"]
            if c["windows.distinct"] else 0.0
        ),
        "windows.results": c["windows.results"],
        "shipping.batches": shipped,
        "shipping.wan_bytes": c["shipping.wan_bytes"],
        "shipping.retries": c["shipping.retries"],
        "shipping.delivered_ratio": (
            calls("GeoStreamRuntime._deliver") / shipped if shipped else 0.0
        ),
        "aggregator.partials_merged": calls("GlobalAggregator._merge_partial"),
        "aggregator.duplicates_dropped": c["aggregator.duplicates_dropped"],
        "network.allocations": calls("FluidNetwork._allocate"),
        "network.flows_started": calls("FluidNetwork.start_flow"),
        "network.concurrent_flows_mean": (
            c["network.flow_seconds"] / c["network.sim_seconds"]
            if c["network.sim_seconds"] else 0.0
        ),
        "monitor.samples": calls("MonitoringAgent._on_link_sample"),
        "decision.plans": calls("DecisionManager.build_plan"),
        "decision.replans_per_transfer": (
            c["decision.replans"] / transfers if transfers else 0.0
        ),
        "decision.achieved_over_predicted_p50": (
            statistics.median(c["decision.achieved_over_predicted"])
            if c["decision.achieved_over_predicted"] else 0.0
        ),
        "transfer.sessions": c["transfer.sessions"],
        "transfer.chunks": c["transfer.chunks"],
        "transfer.chunks_unacked": c["transfer.chunks_unacked"],
        "checkpoint.saves": c["checkpoint.saves"],
        "checkpoint.bytes": c["checkpoint.bytes"],
        "flow.backlog_peak": c["flow.backlog_peak"],
        "control.failovers": c["control.failovers"],
        "control.standby_syncs": c["control.standby_syncs"],
        "control.mttr_max_s": c["control.mttr_max_s"],
        "faults.applied": c["faults.applied"],
        "audit.checks": c["audit.checks"],
        "lineage.absorbs": calls(".absorb", "repro.obs.lineage"),
        "gen.generate_s": generate_s,
        "runner.worker_start_s": workers["worker_start_s"],
        "runner.parallel_efficiency": extra.get(
            "parallel_efficiency", (0.0, ""))[0],
    }
    for name, value in values.items():
        metrics[name] = (value, metrics[name][1])
    assert [(k, u) for k, (_, u) in metrics.items()] == list(PER_LAYER)

    env = environment()
    print(f"perfbench {args.workload} seed={args.seed} size={args.size} traced")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"  {'layer':<20} {'calls':>10} {'self_s':>10} {'share':>7}")
    for layer, (n, self_s) in sorted(
        by_layer.items(), key=lambda kv: -kv[1][1]
    ):
        print(f"  {layer:<20} {n:>10d} {self_s:>10.4f} "
              f"{100 * self_s / total_wall:>6.1f}%")
    print(f"  {'unattributed':<20} {'':>10} "
          f"{values['trace.unattributed_s']:>10.4f} "
          f"{100 * values['trace.unattributed_s'] / total_wall:>6.1f}%")
    print(f"  traced wall {total_wall:.4f} s; untraced median {untraced:.4f} s; "
          f"tracing overhead {values['trace.overhead_s']:.4f} s")
    for name, value in values.items():
        if not name.startswith("trace."):
            print(f"  {name:<38} {value:.6g}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    correct = not problems
    RESULTS.mkdir(exist_ok=True)
    spans.write(RESULTS / f"spans-{args.workload}.npz")
    save(f"{args.workload}-trace1.json", {
        "args": vars(args), "env": env, "untraced_walls": walls,
        "traced_wall": traced_wall, "metrics": metrics, "problems": problems,
    })
    failed = outcome.failed if correct else outcome.attempted
    print(result_line(correct, outcome.attempted, failed, metrics))
    return 0 if correct else 1


def merge_counters(parts: list[dict]) -> dict:
    """Sum counters over tracers; lists concatenate, maxima stay maxima."""
    merged: dict = {}
    for part in parts:
        for name, value in part.items():
            if isinstance(value, list):
                merged[name] = merged.get(name, []) + value
            elif name.endswith(("_max_s", "_peak")):
                merged[name] = max(merged.get(name, 0), value)
            else:
                merged[name] = merged.get(name, 0) + value
    return merged


# ----------------------------------------------------------------------
# every workload, interleaved, one process per run
# ----------------------------------------------------------------------
def run_all(args) -> int:
    def child(workload: str, trace: int) -> tuple[dict | None, str]:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
            "--trace", str(trace), "--size", args.size,
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        lines = proc.stdout.strip().splitlines()
        try:
            return json.loads(lines[-1]), proc.stdout
        except (IndexError, json.JSONDecodeError):
            return None, proc.stdout + proc.stderr

    samples = {w: {} for w in WORKLOADS}
    correct, attempted, failed = True, 0, 0
    for rep in range(REPS):
        # Rotate the order so machine drift hits every workload alike.
        order = WORKLOADS[rep % len(WORKLOADS):] + WORKLOADS[:rep % len(WORKLOADS)]
        for workload in order:
            result, text = child(workload, 0)
            if result is None:
                print(text)
                correct = False
                continue
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                samples[workload].setdefault(name, []).append(m["value"])
            print(f"rep {rep + 1}/{REPS} {workload}: wall_norm_s "
                  f"{result['metrics']['wall_norm_s']['value']:.4f}", flush=True)
    for workload in WORKLOADS:
        result, text = child(workload, 1)
        print(text.rstrip().rpartition("\n")[0])
        correct &= bool(result and result["correct"])

    print("env " + " ".join(f"{k}={v}" for k, v in environment().items()))
    print(f"{'workload':<13} {'metric':<18} {'unit':<6} {'median':>12} "
          f"{'q1':>12} {'q3':>12}  n")
    summary = {}
    units = dict(END_TO_END)
    for workload in WORKLOADS:
        for name, values in samples[workload].items():
            q1, med, q3 = quartiles(values)
            summary[f"{workload}.{name}"] = (med, units[name])
            print(f"{workload:<13} {name:<18} {units[name]:<6} {med:>12.6g} "
                  f"{q1:>12.6g} {q3:>12.6g}  {len(values)}")
    print(result_line(correct, max(1, attempted), failed, summary))
    return 0 if correct else 1


def stop_helpers() -> None:
    """Stop and reap every helper process the run started.

    The sweep's spawn pool starts multiprocessing's resource tracker,
    which otherwise outlives this process and is never reaped. Pool
    workers are joined by the pool itself; join any that remain, then
    stop the tracker and wait for it.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join()
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    try:
        return run_main(argv)
    finally:
        stop_helpers()


def run_main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no SAGE sources at {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        if args.setup_probe or args.trace:
            print("error: --workload all takes neither --trace nor "
                  "--setup-probe", file=sys.stderr)
            return 2
        return run_all(args)
    import workloads as wl

    run = wl.BUILDERS[args.workload](args.seed, args.size == "tiny")
    if args.setup_probe:
        print(f"{time.perf_counter() - T_START:.6f}")
        return 0
    if args.trace:
        return run_traced(args, wl, run)
    return run_untraced(args, wl, run)


if __name__ == "__main__":
    sys.exit(main())
