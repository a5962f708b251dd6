"""Per-layer wall-time attribution for the traced run.

The program is not edited: :class:`LayerTracer` wraps, from outside, every
method of every class defined in a layer's modules (dunder methods,
generators and properties excepted). A call that enters a layer other
than the one currently executing opens a span ``(layer, start, end,
parent, run id)``; calls within one layer only bump a per-function call
counter. Spans are kept in compact in-memory arrays and written once,
at the end. A layer's self time is the duration of its spans minus the
part covered by their child spans, so the self times of all layers add
up to the time spent inside any layer, and the rest of the traced wall
is reported as unattributed.

The tracer also keeps the instances of a few classes created while it is
installed (engines, runtimes, managed transfers, ...), so the per-layer
counters can be read from the objects that did the work. For every
transfer session started on a SAGE shipping plan it records the time
model's prediction at the session's start (one link-estimate read and one
model call, traced as ``monitor`` and ``core`` spans), so the model's error
can be reported where no managed transfer runs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

#: Layer -> module prefixes, named after the repository's packages.
LAYERS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("simulation", ("repro.simulation",)),
    ("streaming.sources", ("repro.streaming.sources",)),
    ("streaming.operators", (
        "repro.streaming.operators", "repro.streaming.windows",
        "repro.streaming.records", "repro.streaming.events",
    )),
    ("streaming.shipping", ("repro.streaming.batching", "repro.streaming.shipping")),
    ("streaming.runtime", (
        "repro.streaming.runtime", "repro.streaming.dataflow",
        "repro.streaming.hierarchy", "repro.streaming.metareduce",
    )),
    ("cloud", ("repro.cloud",)),
    ("monitor", ("repro.monitor",)),
    ("core", ("repro.core",)),
    ("transfer", ("repro.transfer",)),
    ("flow", ("repro.flow",)),
    ("control", ("repro.control",)),
    ("faults", ("repro.faults",)),
    ("obs", ("repro.obs",)),
    ("gen", ("repro.gen", "repro.workloads")),
    ("runner", ("repro.runner",)),
)
LAYER_NAMES = tuple(name for name, _ in LAYERS)

#: Classes whose instances the counters are read from.
KEPT = (
    "repro.core.engine:SageEngine",
    "repro.streaming.runtime:GeoStreamRuntime",
    "repro.core.decision:ManagedTransfer",
    "repro.streaming.shipping:SageShipping",
    "repro.control.plane:ControlPlane",
    "repro.faults.injector:FaultInjector",
    "repro.obs.audit:SLOAuditor",
    "repro.flow.checkpoint:CheckpointStore",
)


def layer_of(module: str) -> int:
    for i, (_, prefixes) in enumerate(LAYERS):
        if any(module == p or module.startswith(p + ".") for p in prefixes):
            return i
    return -1


class LayerTracer:
    """Install with :meth:`install`, remove with :meth:`uninstall`."""

    def __init__(self) -> None:
        self.start = array("d")
        self.end = array("d")
        self.layer = array("b")
        self.parent = array("q")
        self.run = array("i")
        self.run_id = 0
        self._layer_stack = [-1]
        self._span_stack = [-1]
        self._counts: list[int] = []
        self._fn_names: list[str] = []
        self._originals: list[tuple[type, str, object]] = []
        self.instances: dict[str, list] = defaultdict(list)
        #: (session, predicted seconds) for sessions on SAGE shipping plans.
        self.predictions: list[tuple[object, float]] = []

    # ------------------------------------------------------------------
    def install(self) -> "LayerTracer":
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(info.name)
        for modname, module in sorted(sys.modules.items()):
            lid = layer_of(modname)
            if lid < 0 or module is None:
                continue
            for cls in vars(module).values():
                if inspect.isclass(cls) and cls.__module__ == modname:
                    self._patch_class(cls, lid)
        self._record_predictions()
        return self

    def uninstall(self) -> None:
        for cls, name, original in reversed(self._originals):
            if original is None:
                delattr(cls, name)
            else:
                setattr(cls, name, original)
        self._originals.clear()

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch_class(self, cls: type, lid: int) -> None:
        qual = f"{cls.__module__}:{cls.__qualname__}"
        for name, attr in list(vars(cls).items()):
            if name.startswith("__") and name.endswith("__"):
                continue
            if isinstance(attr, (staticmethod, classmethod)):
                fn = attr.__func__
                wrapped = type(attr)(self._wrap(fn, lid, f"{qual}.{name}"))
            elif inspect.isfunction(attr):
                fn = attr
                wrapped = self._wrap(fn, lid, f"{qual}.{name}")
            else:
                continue
            if inspect.isgeneratorfunction(fn) or inspect.iscoroutinefunction(fn):
                continue
            self._originals.append((cls, name, attr))
            setattr(cls, name, wrapped)
        if qual in KEPT:
            self._keep_instances(cls, qual)

    def _keep_instances(self, cls: type, qual: str) -> None:
        original = cls.__init__
        kept = self.instances[qual.rpartition(":")[2]]

        @functools.wraps(original)
        def __init__(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            kept.append(obj)

        self._originals.append((cls, "__init__", vars(cls).get("__init__")))
        cls.__init__ = __init__

    def _record_predictions(self) -> None:
        """Wrap the traced ``TransferService.execute`` to note, for each
        session on a SAGE shipping plan, the time the model predicts for
        it from the link estimate at its start."""
        from repro.transfer.service import TransferService

        traced = TransferService.execute
        engines = self.instances["SageEngine"]
        predictions = self.predictions

        @functools.wraps(traced)
        def execute(service, plan, size, *args, **kwargs):
            session = traced(service, plan, size, *args, **kwargs)
            if plan.label.startswith("ship-sage:"):
                src = plan.routes[0].src.region_code
                dst = plan.routes[0].dst.region_code
                thr = service.monitor.estimated_throughput(src, dst)
                engine = next(e for e in engines if e.transfers is service)
                if thr == thr and thr > 0:
                    model = engine.decisions.time_model
                    predicted = model.estimate(size, thr, len(plan.routes))
                    predictions.append((session, predicted))
            return session

        self._originals.append((TransferService, "execute", traced))
        TransferService.execute = execute

    def _wrap(self, fn, lid: int, name: str):
        fid = len(self._counts)
        self._counts.append(0)
        self._fn_names.append(name)
        counts = self._counts
        layers = self._layer_stack
        spans = self._span_stack
        starts, ends, lays, parents, runs = (
            self.start, self.end, self.layer, self.parent, self.run
        )
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[fid] += 1
            if layers[-1] == lid:
                return fn(*args, **kwargs)
            idx = len(starts)
            lays.append(lid)
            parents.append(spans[-1])
            runs.append(tracer.run_id)
            ends.append(0.0)
            layers.append(lid)
            spans.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                layers.pop()
                spans.pop()

        return traced

    # ------------------------------------------------------------------
    def export(self) -> dict:
        """The spans and counters as plain data (picklable, mergeable)."""
        return {
            "start": self.start.tobytes(),
            "end": self.end.tobytes(),
            "layer": self.layer.tobytes(),
            "parent": self.parent.tobytes(),
            "run": self.run.tobytes(),
            "counts": dict(zip(self._fn_names, self._counts)),
        }


class Spans:
    """Spans from one or more tracers, with the self-time analysis."""

    def __init__(self, start, end, layer, parent, run, counts) -> None:
        self.start, self.end, self.layer = start, end, layer
        self.parent, self.run, self.counts = parent, run, counts

    @classmethod
    def merge(cls, parts: list[dict]) -> "Spans":
        """Concatenate :meth:`LayerTracer.export` parts, fixing parents."""
        cols = {k: [] for k in ("start", "end", "layer", "parent", "run")}
        counts: dict[str, int] = defaultdict(int)
        offset = 0
        for part in parts:
            parent = np.frombuffer(part["parent"], dtype=np.int64)
            cols["start"].append(np.frombuffer(part["start"], dtype=np.float64))
            cols["end"].append(np.frombuffer(part["end"], dtype=np.float64))
            cols["layer"].append(np.frombuffer(part["layer"], dtype=np.int8))
            cols["parent"].append(np.where(parent >= 0, parent + offset, -1))
            cols["run"].append(np.frombuffer(part["run"], dtype=np.int32))
            offset += len(parent)
            for name, n in part["counts"].items():
                counts[name] += n
        return cls(*(np.concatenate(cols[k]) for k in cols), counts)

    def subset(self, keep: np.ndarray) -> "Spans":
        """The spans where ``keep`` holds; parents outside become roots."""
        index = np.full(len(keep), -1, dtype=np.int64)
        index[keep] = np.arange(int(keep.sum()))
        parent = self.parent[keep]
        parent = np.where(parent >= 0, index[np.maximum(parent, 0)], -1)
        return Spans(
            self.start[keep], self.end[keep], self.layer[keep], parent,
            self.run[keep], self.counts,
        )

    def __len__(self) -> int:
        return len(self.start)

    def calls(self, suffix: str, module: str = "repro.") -> int:
        """Total calls of wrapped functions ``module...:Class.suffix``."""
        return sum(
            n for name, n in self.counts.items()
            if name.endswith(suffix) and name.startswith(module)
        )

    def self_times(self) -> np.ndarray:
        """Each span's duration minus its children's durations."""
        dur = self.end - self.start
        covered = np.zeros(len(dur))
        child = self.parent >= 0
        np.add.at(covered, self.parent[child], dur[child])
        return dur - covered

    def by_layer(self) -> dict[str, tuple[int, float]]:
        """Layer -> (spans entered, self seconds), every layer listed."""
        n = len(LAYER_NAMES)
        layer = self.layer.astype(np.int64)
        calls = np.bincount(layer, minlength=n)
        self_s = np.bincount(layer, weights=self.self_times(), minlength=n)
        return {
            name: (int(calls[i]), float(self_s[i]))
            for i, name in enumerate(LAYER_NAMES)
        }

    def attributed(self) -> float:
        """Seconds inside any layer: the sum of the top-level spans."""
        top = self.parent < 0
        return float((self.end[top] - self.start[top]).sum())

    def write(self, path) -> None:
        np.savez_compressed(
            path,
            layer_names=np.array(LAYER_NAMES),
            start=self.start,
            end=self.end,
            layer=self.layer,
            parent=self.parent,
            run=self.run,
        )


def traced_shard(config: dict, seed: int) -> dict:
    """Sweep-task entry point that runs one shard under a tracer.

    Resolved by the pool workers through its dotted path; returns the
    shard's canonical report next to its spans and counters.
    """
    from repro.api import run_experiment

    t0 = time.time()
    wall0 = time.perf_counter()
    tracer = LayerTracer()
    with tracer:
        tracer.run_id = int(config["run_id"])
        report = run_experiment(config["scenario"], config["config"], seed=seed)
    counters = shard_counters(tracer)
    return {
        "report": report.canonical_dict(),
        "trace": tracer.export(),
        "counters": counters,
        "pid": os.getpid(),
        "started_at": t0,
        "wall_s": time.perf_counter() - wall0,
    }


def shard_counters(tracer: LayerTracer) -> dict[str, float]:
    """Counters read from the objects a tracer kept (see KEPT)."""
    inst = tracer.instances
    engines = inst["SageEngine"]
    runtimes = inst["GeoStreamRuntime"]
    sites = [s for rt in runtimes for s in rt.sites.values()]
    backends = [s.shipping for s in sites]
    sessions = [s for e in engines for s in e.transfers.sessions]
    flows = [f for s in sessions for f in s.flows]
    now = max((e.sim.now for e in engines), default=0.0)
    flow_time = sum(
        (now if f.completed_at is None else f.completed_at) - f.started_at
        for f in flows
        if f.started_at is not None
    )
    sim_span = sum(e.sim.now for e in engines)
    results = [r for rt in runtimes for r in rt.results]
    windows = {(id(rt), r.window) for rt in runtimes for r in rt.results}
    stores = inst["CheckpointStore"]
    planes = inst["ControlPlane"]
    mttrs = [f.mttr for p in planes for f in p.failovers]
    transfers = inst["ManagedTransfer"]
    shipping = inst["SageShipping"]
    # Managed transfers carry the decision manager's own prediction; SAGE
    # shipping sessions the one recorded at their start (LayerTracer).
    achieved_over_predicted = [
        mt.elapsed / mt.prediction for mt in transfers if mt.done and mt.prediction
    ] + [
        s.elapsed / predicted for s, predicted in tracer.predictions
        if s.completed_at is not None
    ]
    return {
        "simulation.events": sum(e.sim.events_processed for e in engines),
        "sources.records": sum(rt.records_ingested() for rt in runtimes),
        "windows.results": len(results),
        "windows.distinct": len(windows),
        "shipping.batches": sum(b.batches_shipped for b in backends),
        "shipping.wan_bytes": sum(b.bytes_shipped for b in backends),
        "shipping.retries": sum(getattr(b, "retries", 0) for b in backends),
        "aggregator.duplicates_dropped": sum(
            rt.aggregator.duplicates_dropped for rt in runtimes
        ),
        "network.flow_seconds": flow_time,
        "network.sim_seconds": sim_span,
        "transfer.sessions": len(sessions),
        "transfer.chunks": sum(s.chunks_total for s in sessions),
        # Chunks of cancelled sessions that were never acknowledged: what a
        # retry or a re-plan has to send again.
        "transfer.chunks_unacked": sum(
            s.chunks_total - s.acks_received for s in sessions if s.cancelled
        ),
        # A managed transfer, or a session on a SAGE shipping plan.
        "decision.transfers": len(transfers) + len(tracer.predictions),
        # Managed-transfer re-plans, and shipping plans a fault dropped
        # before their TTL.
        "decision.replans": sum(mt.replans for mt in transfers)
        + sum(b.plan_invalidations for b in shipping),
        "decision.achieved_over_predicted": achieved_over_predicted,
        "checkpoint.saves": sum(s.saves for s in stores),
        "checkpoint.bytes": sum(len(b) for s in stores for b in s._blobs.values()),
        "flow.backlog_peak": max((s.max_backlog for s in sites), default=0),
        "control.failovers": len(mttrs),
        "control.standby_syncs": sum(p.standby_syncs for p in planes),
        "control.mttr_max_s": max(mttrs, default=0.0),
        "faults.applied": sum(len(i.log) for i in inst["FaultInjector"]),
        "audit.checks": sum(a.checks for a in inst["SLOAuditor"]),
    }
