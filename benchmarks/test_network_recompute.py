"""NET — ``FluidNetwork._recompute``: incremental allocator vs pre-PR baseline.

The fluid solver re-runs max-min fair sharing on every network event, so
it is the single hottest serial path of the transfer experiments. The
incremental allocator (``allocator="fast"``, the default) interns one
resource entry per NIC/link, maintains flow↔resource incidence at flow
start/cancel/complete instead of rebuilding it per allocation, derives
per-flow caps from entry-level reads, memoises same-timestamp weather,
and early-outs when neither the flow set nor any entry capacity moved.
``allocator="reference"`` keeps the pre-PR dict-based water-fill
(including its uncached per-hop capacity walk) verbatim as the baseline
and equivalence oracle.

Methodology: the *real* E12 overload scenario (burst + blackout + crash,
``policy="block"``, seed 24012, 240 s) is run once while recording every
``start_flow``/``cancel_flow``; the captured flow trace is then replayed
against a standalone environment built exactly like the scenario's, once
per allocator, timing only ``_recompute`` (re-entrant calls from
completion callbacks are attributed to the outer call). Replay is exact:
both allocators must produce bit-identical per-flow outcomes.

Asserted shape:

* bit-identical ``(transferred, completed_at, cancelled)`` per flow
  across reference, fast/scalar, and fast/forced-vector replays;
* ≥3× ``_recompute`` speedup over the scenario's contended regime
  (allocations with ≥3 concurrent flows — the overload bursts, which
  is where the solver's cost grows with flow count);
* ≥2× over the complete trace including the single-flow steady tail,
  where both allocators are dominated by the shared fixed floor
  (settle/schedule/event bookkeeping) rather than allocation itself.
"""

from __future__ import annotations

import time

import pytest

from repro.analysis.experiments import ExperimentRecord
from repro.analysis.tables import render_table
from repro.cloud.deployment import CloudEnvironment
from repro.cloud.network import Flow, FluidNetwork
from repro.config import OverloadConfig
from repro.flow import run_overload

SEED = 24012
DURATION = 240.0
POLICY = "block"
#: Allocations with at least this many concurrent flows count as the
#: contended (overload-burst) regime.
CONTENDED_AT = 3
REPS = 10
TRIALS = 3


def capture_trace():
    """Run the real E12 scenario once, recording every flow event.

    Returns ``(trace, vm_meta)`` where ``trace`` is a list of
    ``(virtual_time, kind, flow_key, payload)`` and ``vm_meta`` maps the
    VM ids appearing on flow paths to ``(region_code, size_name)`` so the
    replay can provision an identical fleet.
    """
    trace: list[tuple[float, str, int, dict | None]] = []
    vm_meta: dict[str, tuple[str, str]] = {}
    orig_start = FluidNetwork.start_flow
    orig_cancel = FluidNetwork.cancel_flow

    def cap_start(self, flow):
        for vm in flow.path:
            vm_meta[vm.vm_id] = (vm.region_code, vm.size.name)
        trace.append(
            (
                self.sim.now,
                "start",
                id(flow),
                dict(
                    path=[vm.vm_id for vm in flow.path],
                    size=flow.size,
                    streams=flow.streams,
                    intrusiveness=flow.intrusiveness,
                    rate_cap=flow.rate_cap,
                    transport=flow.transport,
                ),
            )
        )
        return orig_start(self, flow)

    def cap_cancel(self, flow):
        if flow in self.flows:
            trace.append((self.sim.now, "cancel", id(flow), None))
        return orig_cancel(self, flow)

    FluidNetwork.start_flow = cap_start
    FluidNetwork.cancel_flow = cap_cancel
    try:
        run_overload(OverloadConfig(policy=POLICY, seed=SEED, duration=DURATION))
    finally:
        FluidNetwork.start_flow = orig_start
        FluidNetwork.cancel_flow = orig_cancel
    assert trace, "E12 produced no flows to replay"
    return trace, vm_meta


@pytest.fixture(scope="module")
def e12_trace():
    return capture_trace()


def replay(trace, vm_meta, allocator, *, reps=1, vector_threshold=None):
    """Replay the trace ``reps`` times; time ``_recompute`` only.

    Returns ``(buckets, outcomes)``: ``buckets`` maps concurrent-flow
    count at allocation time to accumulated ``_recompute`` seconds
    across all reps, ``outcomes`` is the per-flow end state of the last
    rep, in trace order.
    """
    buckets: dict[int, float] = {}
    depth = [0]
    orig = FluidNetwork._recompute

    def timed(self):
        if depth[0]:
            return orig(self)
        depth[0] += 1
        n = len(self._sorted_flows)
        t0 = time.perf_counter()
        try:
            return orig(self)
        finally:
            dt = time.perf_counter() - t0
            buckets[n] = buckets.get(n, 0.0) + dt
            depth[0] -= 1

    outcomes: list[tuple[float, float | None, bool]] = []
    for _ in range(reps):
        # The same environment the scenario itself builds (see
        # repro.flow.scenario): deterministic weather, no glitches.
        env = CloudEnvironment(seed=SEED, variability_sigma=0.0, glitches=False)
        net = env.network
        net.allocator = allocator
        if vector_threshold is not None:
            net.vector_threshold = vector_threshold
        vms = {
            vm_id: env.provision(region, size)[0]
            for vm_id, (region, size) in sorted(vm_meta.items())
        }
        live: dict[int, Flow] = {}
        order: list[int] = []
        FluidNetwork._recompute = timed
        try:
            for t, kind, key, payload in trace:
                net.sim.run_until(t)
                if kind == "start":
                    f = Flow(
                        [vms[v] for v in payload["path"]],
                        payload["size"],
                        streams=payload["streams"],
                        intrusiveness=payload["intrusiveness"],
                        rate_cap=payload["rate_cap"],
                        transport=payload["transport"],
                    )
                    net.start_flow(f)
                    live[key] = f
                    order.append(key)
                else:
                    f = live.get(key)
                    if f is not None and f in net.flows:
                        net.cancel_flow(f)
            # Drain: let surviving flows run to completion.
            net.sim.run_until(trace[-1][0] + 600.0)
        finally:
            FluidNetwork._recompute = orig
        outcomes = [
            (live[k].transferred, live[k].completed_at, live[k].cancelled)
            for k in order
        ]
    return buckets, outcomes


def test_allocators_bit_identical(e12_trace):
    """Reference, fast/scalar and fast/vector replays agree bit-for-bit."""
    trace, vm_meta = e12_trace
    _, ref = replay(trace, vm_meta, "reference")
    _, fast = replay(trace, vm_meta, "fast")
    _, vect = replay(trace, vm_meta, "fast", vector_threshold=2)
    assert fast == ref
    assert vect == ref


@pytest.mark.benchmark(group="net")
def test_network_recompute_speedup(benchmark, report, e12_trace):
    trace, vm_meta = e12_trace

    def run_bench():
        best = None
        for _ in range(TRIALS):
            ref_b, ref_out = replay(trace, vm_meta, "reference", reps=REPS)
            fast_b, fast_out = replay(trace, vm_meta, "fast", reps=REPS)
            assert fast_out == ref_out
            if best is None or sum(fast_b.values()) < sum(best[1].values()):
                best = (ref_b, fast_b)
        return best

    ref_b, fast_b = benchmark.pedantic(run_bench, rounds=1, iterations=1)

    def total(buckets, lo=0):
        return sum(v for k, v in buckets.items() if k >= lo)

    ref_full, fast_full = total(ref_b), total(fast_b)
    ref_hot = total(ref_b, CONTENDED_AT)
    fast_hot = total(fast_b, CONTENDED_AT)
    full_x = ref_full / fast_full
    hot_x = ref_hot / fast_hot

    rows = []
    for n in sorted(set(ref_b) | set(fast_b)):
        rows.append(
            [
                n,
                f"{ref_b[n] * 1e6 / REPS:.1f}",
                f"{fast_b[n] * 1e6 / REPS:.1f}",
                f"{ref_b[n] / fast_b[n]:.2f}x",
            ]
        )
    rows.append(
        [
            f">={CONTENDED_AT} (contended)",
            f"{ref_hot * 1e6 / REPS:.1f}",
            f"{fast_hot * 1e6 / REPS:.1f}",
            f"{hot_x:.2f}x",
        ]
    )
    rows.append(
        [
            "full trace",
            f"{ref_full * 1e6 / REPS:.1f}",
            f"{fast_full * 1e6 / REPS:.1f}",
            f"{full_x:.2f}x",
        ]
    )
    table = render_table(
        ["concurrent flows", "reference (us)", "fast (us)", "speedup"],
        rows,
        title="NET — _recompute time replaying the E12 overload trace "
        f"(policy={POLICY}, seed {SEED}, {DURATION:.0f} s, "
        f"best of {TRIALS}x{REPS} reps)",
    )

    rec = ExperimentRecord(
        "NET",
        "Incremental fluid allocator vs pre-PR full recompute (E12 trace)",
        SEED,
        parameters={
            "policy": POLICY,
            "duration": f"{DURATION:.0f} s",
            "flow events": str(len(trace)),
            "reps": f"{TRIALS}x{REPS}",
        },
    )
    rec.check(
        f"contended regime (>= {CONTENDED_AT} concurrent flows, the "
        "overload bursts) speeds up >= 3x",
        hot_x >= 3.0,
        f"{hot_x:.2f}x ({ref_hot * 1e3 / REPS:.3f} ms -> "
        f"{fast_hot * 1e3 / REPS:.3f} ms per replay)",
    )
    rec.check(
        "full trace (incl. the floor-dominated single-flow tail) "
        "speeds up >= 2x",
        full_x >= 2.0,
        f"{full_x:.2f}x ({ref_full * 1e3 / REPS:.3f} ms -> "
        f"{fast_full * 1e3 / REPS:.3f} ms per replay)",
    )
    report("NET", table, rec.render())
    rec.assert_shape()
