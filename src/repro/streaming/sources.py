"""Stream sources: where geo-distributed data is born.

Each source is attached to one site of the runtime and emits records into
it on simulator time. Emission is batched per tick (default one second of
virtual time) — event times are drawn inside the tick, so event-time
semantics stay exact while the event count stays tractable at high rates.

Sources participate in credit-based backpressure: a sink may return the
number of records it admitted (anything less than offered means the site's
ingest buffer is full under the ``block`` overload policy). The rejected
tail is *deferred* — held in the source's pending buffer with its original
event times and re-offered first on the next tick — so a throttled source
loses nothing; the deferral simply shows up as end-to-end latency.
Sinks returning ``None`` (the historical contract) admit everything.

Emission is dual-plane. Every source exposes one keyword-only surface —
``emit_batch`` / ``chunk_records`` — controlling *how* a tick's records
reach the sink: as a columnar :class:`~repro.streaming.records.RecordBatch`
(the default under the columnar record plane, resolved at attach time) or
as the legacy ``list[Record]``. The built-in sources draw from their RNG
streams in the exact same order on both planes, so a fixed seed produces
bit-identical records either way — except :class:`SensorGridSource`,
whose batch plane vectorizes the per-sensor draw loop (documented on the
class; it appears in no digest-pinned scenario).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

from repro.simulation.engine import PeriodicTask, Simulator
from repro.streaming.events import Record
from repro.streaming.records import RecordBatch

if TYPE_CHECKING:  # repro.gen.traffic imports this module
    from repro.gen.traffic import RateSchedule


class StreamSource:
    """Base class wiring a source to the simulator.

    Subclasses implement :meth:`_emit_tick` returning the records of one
    tick interval — and, for native columnar emission,
    :meth:`_emit_tick_batch` returning the same records as one
    :class:`RecordBatch` (the base implementation materializes through
    ``_emit_tick``, so batch mode works for any subclass). ``sink`` is
    set by the runtime when the source is attached to a site.

    ``emit_batch`` — tri-state: ``True`` forces batch emission,
    ``False`` forces record lists, ``None`` (default) defers to the
    site's record plane at attach time. ``chunk_records`` caps the size
    of a single sink offer in batch mode (``None`` = one offer per
    tick); a partially accepted chunk stops the tick's offers, exactly
    like a partially accepted list did.
    """

    def __init__(
        self,
        name: str,
        tick: float = 1.0,
        record_bytes: float = 200.0,
        *,
        emit_batch: bool | None = None,
        chunk_records: int | None = None,
    ) -> None:
        if tick <= 0:
            raise ValueError("tick must be positive")
        if chunk_records is not None and chunk_records < 1:
            raise ValueError("chunk_records must be >= 1")
        self.name = name
        self.tick = tick
        self.record_bytes = record_bytes
        self.emit_batch = emit_batch
        self.chunk_records = chunk_records
        self.sink: Callable[[list[Record]], None] | None = None
        self.origin: str = ""
        #: Records the sink accepted (deferred records count on delivery).
        self.records_emitted = 0
        #: Sink-rejected records awaiting re-offer (block backpressure).
        #: A list on the legacy plane, a RecordBatch on the columnar one.
        self._pending: "list[Record] | RecordBatch" = []
        #: High-water mark of the pending buffer.
        self.max_deferred = 0
        self._task: PeriodicTask | None = None
        self._draining = False
        self._sim: Simulator | None = None
        self._batch_mode = bool(emit_batch)

    # ------------------------------------------------------------------
    def attach(
        self, sim: Simulator, origin: str, sink, *, batch_default: bool = False
    ) -> None:
        self._sim = sim
        self.origin = origin
        self.sink = sink
        resolved = (
            batch_default if self.emit_batch is None else self.emit_batch
        )
        self._batch_mode = bool(resolved)

    def start(self, *, schedule=None) -> None:
        """Begin ticking. ``schedule`` optionally overrides how the tick
        is driven (the site runtime passes its shared
        :meth:`~repro.simulation.engine.PeriodicGroup.add` so all of a
        site's sources ride one queue event per tick)."""
        if self._sim is None or self.sink is None:
            raise RuntimeError("source must be attached to a site first")
        if self._task is not None:
            if self._draining:  # resume a draining source in place
                self._draining = False
                return
            raise RuntimeError("source already started")
        self._draining = False
        if schedule is not None:
            self._task = schedule(self._fire)
        else:
            self._task = self._sim.add_periodic(self.tick, self._fire)

    def stop(self, drain: bool = False) -> None:
        """Stop the source; with ``drain``, finish delivering first.

        Under ``block`` the pending buffer may hold deferred records,
        and the site watermark is pinned at their oldest event time —
        a hard stop would therefore leave every later window open (and
        their already-admitted records unemitted) forever. ``drain``
        keeps the tick firing without generating fresh records, re-
        offering the deferred tail until the site admits all of it,
        then retires the task.
        """
        if drain and len(self._pending) and self._task is not None:
            self._draining = True
            return
        self._draining = False
        if self._task is not None:
            self._task.stop()
            self._task = None

    def _fire(self) -> None:
        assert self._sim is not None and self.sink is not None
        t0 = self._sim.now - self.tick
        if self._batch_mode:
            fresh = (
                RecordBatch.empty(self.origin)
                if self._draining
                else self._emit_tick_batch(t0, self._sim.now)
            )
        else:
            fresh = (
                [] if self._draining else self._emit_tick(t0, self._sim.now)
            )
        records = self._pending + fresh if len(self._pending) else fresh
        if not records:
            if self._draining:
                self.stop()
            return
        chunk = self.chunk_records
        if self._batch_mode and chunk is not None and len(records) > chunk:
            accepted = 0
            for offset in range(0, len(records), chunk):
                piece = records[offset:offset + chunk]
                got = self.sink(piece)
                if got is None:  # legacy sink: everything admitted
                    got = len(piece)
                accepted += got
                if got < len(piece):
                    break
        else:
            accepted = self.sink(records)
            if accepted is None:  # legacy sink: everything admitted
                accepted = len(records)
        self.records_emitted += accepted
        self._pending = records[accepted:]
        if len(self._pending) > self.max_deferred:
            self.max_deferred = len(self._pending)
        if self._draining and not len(self._pending):
            self.stop()

    @property
    def pending_count(self) -> int:
        """Deferred records still waiting for ingest credits."""
        return len(self._pending)

    @property
    def running(self) -> bool:
        return self._task is not None

    @property
    def oldest_pending_time(self) -> float | None:
        """Event time of the oldest deferred record (None if empty).

        The site's watermark must not pass this: a deferred record is
        *admitted late by the site's own choice*, and turning that into
        a late-drop would make the ``block`` policy lossy.
        """
        pending = self._pending
        if not len(pending):
            return None
        if isinstance(pending, RecordBatch):
            return pending.first_event_time
        return pending[0].event_time

    def _emit_tick(self, t0: float, t1: float) -> list[Record]:
        raise NotImplementedError  # pragma: no cover - abstract

    def _emit_tick_batch(self, t0: float, t1: float) -> RecordBatch:
        """Columnar form of :meth:`_emit_tick`.

        Base implementation materializes the per-record path — correct
        for any subclass; the built-ins override it with vectorized
        draws.
        """
        return RecordBatch.from_records(
            self._emit_tick(t0, t1), origin=self.origin
        )

    def _rng(self) -> np.random.Generator:
        assert self._sim is not None
        return self._sim.rngs.get(f"source/{self.name}")


class PoissonSource(StreamSource):
    """Memoryless arrivals at a constant mean rate."""

    def __init__(
        self,
        name: str,
        rate: float,
        keys: list[str] | None = None,
        value_fn: Callable[[np.random.Generator], float] | None = None,
        tick: float = 1.0,
        record_bytes: float = 200.0,
        *,
        emit_batch: bool | None = None,
        chunk_records: int | None = None,
    ) -> None:
        super().__init__(
            name,
            tick,
            record_bytes,
            emit_batch=emit_batch,
            chunk_records=chunk_records,
        )
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate
        self.keys = keys or ["k0"]
        #: A custom value_fn forces a per-record draw loop even on the
        #: columnar plane (to preserve its RNG stream); the default
        #: standard-normal values vectorize.
        self._default_values = value_fn is None
        self.value_fn = value_fn or (lambda rng: float(rng.normal()))
        self._key_table: tuple[str, ...] | None = None

    def _emit_tick(self, t0: float, t1: float) -> list[Record]:
        rng = self._rng()
        n = rng.poisson(self.rate * (t1 - t0))
        if n == 0:
            return []
        times = np.sort(rng.uniform(t0, t1, n))
        key_idx = rng.integers(0, len(self.keys), n)
        return [
            Record(
                event_time=float(times[i]),
                key=self.keys[key_idx[i]],
                value=self.value_fn(rng),
                origin=self.origin,
                size_bytes=self.record_bytes,
            )
            for i in range(n)
        ]

    def _emit_tick_batch(self, t0: float, t1: float) -> RecordBatch:
        # Same RNG stream order as _emit_tick: poisson, uniform(n),
        # integers(n), then n value draws (an array fill consumes the
        # bit stream exactly like n scalar calls).
        rng = self._rng()
        n = int(rng.poisson(self.rate * (t1 - t0)))
        if n == 0:
            return RecordBatch.empty(self.origin)
        times = np.sort(rng.uniform(t0, t1, n))
        key_idx = rng.integers(0, len(self.keys), n)
        if self._default_values:
            values = rng.normal(size=n)
        else:
            value_fn = self.value_fn
            values = np.fromiter(
                (float(value_fn(rng)) for _ in range(n)), np.float64, n
            )
        if self._key_table is None or len(self._key_table) != len(self.keys):
            self._key_table = tuple(self.keys)
        return RecordBatch(
            times,
            key_idx,
            values,
            np.full(n, self.record_bytes, dtype=np.float64),
            self._key_table,
            self.origin,
        )


class MmppSource(StreamSource):
    """Bursty arrivals: a two-state Markov-modulated Poisson process.

    The source alternates between a quiet state (``base_rate``) and a
    burst state (``burst_rate``); sojourn times are exponential. Models
    the load spikes that stress batching and WAN scheduling.
    """

    def __init__(
        self,
        name: str,
        base_rate: float,
        burst_rate: float,
        mean_quiet: float = 60.0,
        mean_burst: float = 10.0,
        keys: list[str] | None = None,
        tick: float = 1.0,
        record_bytes: float = 200.0,
        *,
        emit_batch: bool | None = None,
        chunk_records: int | None = None,
    ) -> None:
        super().__init__(
            name,
            tick,
            record_bytes,
            emit_batch=emit_batch,
            chunk_records=chunk_records,
        )
        if base_rate <= 0 or burst_rate <= 0:
            raise ValueError("rates must be positive")
        if mean_quiet <= 0 or mean_burst <= 0:
            raise ValueError("sojourn times must be positive")
        self.base_rate = base_rate
        self.burst_rate = burst_rate
        self.mean_quiet = mean_quiet
        self.mean_burst = mean_burst
        self.keys = keys or ["k0"]
        self._bursting = False
        self._switch_at: float | None = None
        self._key_table: tuple[str, ...] | None = None

    def current_rate(self) -> float:
        return self.burst_rate if self._bursting else self.base_rate

    def _advance_state(self, t0: float, t1: float, rng) -> None:
        if self._switch_at is None:
            self._switch_at = t0 + rng.exponential(self.mean_quiet)
        while self._switch_at <= t1:
            self._bursting = not self._bursting
            hold = self.mean_burst if self._bursting else self.mean_quiet
            self._switch_at += rng.exponential(hold)

    def _emit_tick(self, t0: float, t1: float) -> list[Record]:
        rng = self._rng()
        self._advance_state(t0, t1, rng)
        n = rng.poisson(self.current_rate() * (t1 - t0))
        if n == 0:
            return []
        times = np.sort(rng.uniform(t0, t1, n))
        key_idx = rng.integers(0, len(self.keys), n)
        return [
            Record(
                event_time=float(times[i]),
                key=self.keys[key_idx[i]],
                value=float(rng.normal()),
                origin=self.origin,
                size_bytes=self.record_bytes,
            )
            for i in range(n)
        ]

    def _emit_tick_batch(self, t0: float, t1: float) -> RecordBatch:
        # Identical RNG order to _emit_tick: state switches, poisson,
        # uniform(n), integers(n), normal(n).
        rng = self._rng()
        self._advance_state(t0, t1, rng)
        n = int(rng.poisson(self.current_rate() * (t1 - t0)))
        if n == 0:
            return RecordBatch.empty(self.origin)
        times = np.sort(rng.uniform(t0, t1, n))
        key_idx = rng.integers(0, len(self.keys), n)
        values = rng.normal(size=n)
        if self._key_table is None or len(self._key_table) != len(self.keys):
            self._key_table = tuple(self.keys)
        return RecordBatch(
            times,
            key_idx,
            values,
            np.full(n, self.record_bytes, dtype=np.float64),
            self._key_table,
            self.origin,
        )


class SensorGridSource(StreamSource):
    """A grid of sensors each reporting periodically with jitter.

    Values follow per-sensor slow random walks plus noise — realistic for
    environmental monitoring and easy to aggregate meaningfully (means,
    extremes per region).

    .. note:: This is the one built-in source whose columnar plane is
       *statistically* rather than bit-for-bit equivalent to its legacy
       plane: the per-sensor report loop draws (noise, jitter) sensor by
       sensor, while the batch plane draws them in vectorized rounds
       across all due sensors — same distributions, same per-tick report
       counts and report-time sequences per sensor, different RNG
       interleaving. No digest-pinned scenario uses a sensor grid.
    """

    def __init__(
        self,
        name: str,
        n_sensors: int,
        report_interval: float = 10.0,
        tick: float = 1.0,
        record_bytes: float = 120.0,
        drift_sigma: float = 0.02,
        noise_sigma: float = 0.1,
        *,
        emit_batch: bool | None = None,
        chunk_records: int | None = None,
    ) -> None:
        super().__init__(
            name,
            tick,
            record_bytes,
            emit_batch=emit_batch,
            chunk_records=chunk_records,
        )
        if n_sensors < 1:
            raise ValueError("need at least one sensor")
        if report_interval <= 0:
            raise ValueError("report_interval must be positive")
        self.n_sensors = n_sensors
        self.report_interval = report_interval
        self.drift_sigma = drift_sigma
        self.noise_sigma = noise_sigma
        self._levels: np.ndarray | None = None
        self._next_report: np.ndarray | None = None
        self._key_table: tuple[str, ...] | None = None

    def _emit_tick(self, t0: float, t1: float) -> list[Record]:
        rng = self._rng()
        if self._levels is None:
            self._levels = rng.normal(20.0, 5.0, self.n_sensors)
            self._next_report = t0 + rng.uniform(
                0, self.report_interval, self.n_sensors
            )
        assert self._next_report is not None
        self._levels += rng.normal(0, self.drift_sigma, self.n_sensors)
        out: list[Record] = []
        due = np.where(self._next_report < t1)[0]
        for idx in due:
            t = float(self._next_report[idx])
            while t < t1:
                out.append(
                    Record(
                        event_time=max(t, t0),
                        key=f"{self.name}/s{idx:04d}",
                        value=float(
                            self._levels[idx] + rng.normal(0, self.noise_sigma)
                        ),
                        origin=self.origin,
                        size_bytes=self.record_bytes,
                    )
                )
                t += self.report_interval * float(rng.uniform(0.9, 1.1))
            self._next_report[idx] = t
        out.sort(key=lambda r: r.event_time)
        return out

    def _emit_tick_batch(self, t0: float, t1: float) -> RecordBatch:
        # Vectorized rounds: each pass reports every still-due sensor
        # once, drawing its noise and next-report jitter as one array
        # each. Loop depth is max reports per sensor per tick (usually
        # 1), not total reports.
        rng = self._rng()
        if self._levels is None:
            self._levels = rng.normal(20.0, 5.0, self.n_sensors)
            self._next_report = t0 + rng.uniform(
                0, self.report_interval, self.n_sensors
            )
        assert self._next_report is not None
        self._levels += rng.normal(0, self.drift_sigma, self.n_sensors)
        if self._key_table is None:
            self._key_table = tuple(
                f"{self.name}/s{idx:04d}" for idx in range(self.n_sensors)
            )
        times: list[np.ndarray] = []
        sensor_idx: list[np.ndarray] = []
        values: list[np.ndarray] = []
        due = np.flatnonzero(self._next_report < t1)
        while due.size:
            report_t = self._next_report[due]
            times.append(np.maximum(report_t, t0))
            sensor_idx.append(due)
            values.append(
                self._levels[due] + rng.normal(0, self.noise_sigma, due.size)
            )
            self._next_report[due] = report_t + self.report_interval * (
                rng.uniform(0.9, 1.1, due.size)
            )
            due = due[self._next_report[due] < t1]
        if not times:
            return RecordBatch.empty(self.origin)
        t = np.concatenate(times)
        order = np.argsort(t, kind="stable")
        return RecordBatch(
            t[order],
            np.concatenate(sensor_idx)[order],
            np.concatenate(values)[order],
            np.full(t.size, self.record_bytes, dtype=np.float64),
            self._key_table,
            self.origin,
        )

    @property
    def mean_rate(self) -> float:
        return self.n_sensors / self.report_interval


class TraceSource(StreamSource):
    """Replays a pre-recorded list of (event_time, key, value)."""

    def __init__(
        self,
        name: str,
        trace: Iterable[tuple[float, str, object]],
        tick: float = 1.0,
        record_bytes: float = 200.0,
        *,
        emit_batch: bool | None = None,
        chunk_records: int | None = None,
    ) -> None:
        super().__init__(
            name,
            tick,
            record_bytes,
            emit_batch=emit_batch,
            chunk_records=chunk_records,
        )
        self.trace = sorted(trace, key=lambda e: e[0])
        if not self.trace:
            raise ValueError("trace is empty")
        self._cursor = 0

    def _emit_tick(self, t0: float, t1: float) -> list[Record]:
        out: list[Record] = []
        while self._cursor < len(self.trace) and self.trace[self._cursor][0] < t1:
            t, key, value = self.trace[self._cursor]
            out.append(
                Record(
                    event_time=t,
                    key=key,
                    value=value,
                    origin=self.origin,
                    size_bytes=self.record_bytes,
                )
            )
            self._cursor += 1
        return out

    def _emit_tick_batch(self, t0: float, t1: float) -> RecordBatch:
        start = self._cursor
        trace = self.trace
        cursor = start
        while cursor < len(trace) and trace[cursor][0] < t1:
            cursor += 1
        self._cursor = cursor
        rows = trace[start:cursor]
        if not rows:
            return RecordBatch.empty(self.origin)
        n = len(rows)
        t = np.fromiter((row[0] for row in rows), np.float64, n)
        table: dict[str, int] = {}
        key_idx = np.fromiter(
            (table.setdefault(row[1], len(table)) for row in rows),
            np.int64,
            n,
        )
        payloads = [row[2] for row in rows]
        if all(type(v) is float for v in payloads):
            value = np.asarray(payloads, dtype=np.float64)
        else:
            value = np.empty(n, dtype=object)
            value[:] = payloads
        return RecordBatch(
            t,
            key_idx,
            value,
            np.full(n, self.record_bytes, dtype=np.float64),
            tuple(table),
            self.origin,
        )

    @property
    def exhausted(self) -> bool:
        return self._cursor >= len(self.trace)


class ScheduleSource(StreamSource):
    """Poisson arrivals driven by a rendered rate program.

    ``rates`` is a :class:`~repro.gen.traffic.RateSchedule` giving the
    arrival rate at time ``t`` *relative to the source's first tick*
    (the same convention :class:`BurstSource` and fault plans use, so a
    generated schedule means the same thing regardless of engine
    warm-up length). ``sizes``, when given, is a second schedule on the
    same clock that sizes records (at least 1 byte each) — generated
    scenarios use it for slow drift in record sizes. Optional
    ``key_weights`` skew the key distribution (e.g. zipf-like page
    popularity) instead of the uniform pick of :class:`PoissonSource`.

    The rate is integrated over each tick with a small fixed-step
    midpoint rule so ticks straddling a flash-crowd edge draw the right
    expected count. Record sizes are looked up for a whole tick at once,
    and weighted keys are drawn from a cached CDF — the algorithm
    ``Generator.choice(p=...)`` runs, so the draws and the generator
    state after them are the same.
    """

    def __init__(
        self,
        name: str,
        rates: RateSchedule,
        keys: list[str] | None = None,
        key_weights: list[float] | None = None,
        sizes: RateSchedule | None = None,
        tick: float = 1.0,
        record_bytes: float = 200.0,
        integrate_step: float = 1.0,
        *,
        emit_batch: bool | None = None,
        chunk_records: int | None = None,
    ) -> None:
        super().__init__(
            name,
            tick,
            record_bytes,
            emit_batch=emit_batch,
            chunk_records=chunk_records,
        )
        if integrate_step <= 0:
            raise ValueError("integrate_step must be positive")
        self.rates = rates
        self.keys = keys or ["k0"]
        self._key_cdf: np.ndarray | None = None
        if key_weights is not None:
            if len(key_weights) != len(self.keys):
                raise ValueError("key_weights must match keys in length")
            if any(w < 0 for w in key_weights) or sum(key_weights) <= 0:
                raise ValueError("key_weights must be non-negative, sum > 0")
            p = np.asarray(key_weights, dtype=float) / float(sum(key_weights))
            self._key_cdf = p.cumsum()
            self._key_cdf /= self._key_cdf[-1]
        self.sizes = sizes
        self._size_values = (
            None
            if sizes is None
            else np.asarray(sizes.values, dtype=np.float64)
        )
        self.integrate_step = integrate_step
        self._origin_time: float | None = None
        self._key_table: tuple[str, ...] | None = None

    def rate_at(self, t: float) -> float:
        """Arrival rate at virtual time ``t`` (after the source started)."""
        origin = self._origin_time if self._origin_time is not None else 0.0
        return max(0.0, float(self.rates.at(t - origin)))

    def _mean_count(self, t0: float, t1: float) -> float:
        assert self._origin_time is not None
        total = 0.0
        t = t0
        while t < t1:
            step = min(self.integrate_step, t1 - t)
            total += self.rate_at(t + step / 2.0) * step
            t += step
        return total

    def _draw(self, t0: float, t1: float):
        """``(rng, sorted event times, key indices)`` of this tick, or
        ``None`` when it is empty; the caller draws the values next."""
        rng = self._rng()
        if self._origin_time is None:
            self._origin_time = t0
        mean = self._mean_count(t0, t1)
        n = int(rng.poisson(mean)) if mean > 0 else 0
        if n == 0:
            return None
        times = np.sort(rng.uniform(t0, t1, n))
        if self._key_cdf is not None:
            key_idx = self._key_cdf.searchsorted(rng.random(n), side="right")
        else:
            key_idx = rng.integers(0, len(self.keys), n)
        return rng, times, key_idx

    def _record_sizes(self, times: np.ndarray) -> np.ndarray:
        # RateSchedule.at, vectorized: grid index, clamped to the
        # program (take's clip mode), so a source that outlives it keeps
        # the last size.
        idx = np.floor_divide(times - self._origin_time, self.sizes.resolution)
        sizes = self._size_values.take(idx.astype(np.intp), mode="clip")
        return np.maximum(sizes, 1.0)

    def _emit_tick(self, t0: float, t1: float) -> list[Record]:
        drawn = self._draw(t0, t1)
        if drawn is None:
            return []
        rng, times, key_idx = drawn
        n = len(times)
        if self.sizes is not None:
            sizes = self._record_sizes(times).tolist()
        else:
            sizes = [self.record_bytes] * n
        return [
            Record(
                event_time=float(times[i]),
                key=self.keys[key_idx[i]],
                value=float(rng.normal()),
                origin=self.origin,
                size_bytes=sizes[i],
            )
            for i in range(n)
        ]

    def _emit_tick_batch(self, t0: float, t1: float) -> RecordBatch:
        # Same RNG order as _emit_tick: poisson, uniform(n), keys(n),
        # normal(n); size lookups draw nothing.
        drawn = self._draw(t0, t1)
        if drawn is None:
            return RecordBatch.empty(self.origin)
        rng, times, key_idx = drawn
        if self.sizes is not None:
            sizes = self._record_sizes(times)
        else:
            sizes = np.full(len(times), self.record_bytes, dtype=np.float64)
        values = rng.normal(size=len(times))
        if self._key_table is None or len(self._key_table) != len(self.keys):
            self._key_table = tuple(self.keys)
        return RecordBatch(
            times, key_idx, values, sizes, self._key_table, self.origin
        )


class BurstSource(StreamSource):
    """Poisson arrivals with one scripted overload burst.

    Emits at ``base_rate`` except inside ``[burst_start, burst_end)``,
    where the rate jumps to ``burst_rate``. Unlike :class:`MmppSource`
    the burst window is part of the schedule, not random — the overload
    experiments need the 5× spike at a known time so backpressure,
    shedding, and recovery can be asserted against it deterministically.

    The burst window is *relative to the source's first tick* (like
    fault-plan times are relative to arming), so the scenario means the
    same thing regardless of how long the engine warmed up before.
    """

    def __init__(
        self,
        name: str,
        base_rate: float,
        burst_rate: float,
        burst_start: float,
        burst_end: float,
        keys: list[str] | None = None,
        tick: float = 1.0,
        record_bytes: float = 200.0,
        *,
        emit_batch: bool | None = None,
        chunk_records: int | None = None,
    ) -> None:
        super().__init__(
            name,
            tick,
            record_bytes,
            emit_batch=emit_batch,
            chunk_records=chunk_records,
        )
        if base_rate < 0 or burst_rate <= 0:
            raise ValueError("rates must be positive (base may be zero)")
        if burst_end <= burst_start:
            raise ValueError("burst window must have positive length")
        self.base_rate = base_rate
        self.burst_rate = burst_rate
        self.burst_start = burst_start
        self.burst_end = burst_end
        self.keys = keys or ["k0"]
        self._origin_time: float | None = None
        self._key_table: tuple[str, ...] | None = None

    def rate_at(self, t: float) -> float:
        """Arrival rate at virtual time ``t`` (after the source started)."""
        origin = self._origin_time if self._origin_time is not None else 0.0
        if origin + self.burst_start <= t < origin + self.burst_end:
            return self.burst_rate
        return self.base_rate

    def _emit_tick(self, t0: float, t1: float) -> list[Record]:
        rng = self._rng()
        if self._origin_time is None:
            self._origin_time = t0
        # Integrate the piecewise-constant rate over the tick so a tick
        # straddling a burst boundary draws the exact expected count.
        lo = self._origin_time + self.burst_start
        hi = self._origin_time + self.burst_end
        burst_overlap = max(0.0, min(t1, hi) - max(t0, lo))
        mean = (
            self.base_rate * ((t1 - t0) - burst_overlap)
            + self.burst_rate * burst_overlap
        )
        n = rng.poisson(mean) if mean > 0 else 0
        if n == 0:
            return []
        times = np.sort(rng.uniform(t0, t1, n))
        key_idx = rng.integers(0, len(self.keys), n)
        return [
            Record(
                event_time=float(times[i]),
                key=self.keys[key_idx[i]],
                value=float(rng.normal()),
                origin=self.origin,
                size_bytes=self.record_bytes,
            )
            for i in range(n)
        ]

    def _emit_tick_batch(self, t0: float, t1: float) -> RecordBatch:
        # Same RNG order as _emit_tick: poisson, uniform(n),
        # integers(n), normal(n).
        rng = self._rng()
        if self._origin_time is None:
            self._origin_time = t0
        lo = self._origin_time + self.burst_start
        hi = self._origin_time + self.burst_end
        burst_overlap = max(0.0, min(t1, hi) - max(t0, lo))
        mean = (
            self.base_rate * ((t1 - t0) - burst_overlap)
            + self.burst_rate * burst_overlap
        )
        n = int(rng.poisson(mean)) if mean > 0 else 0
        if n == 0:
            return RecordBatch.empty(self.origin)
        times = np.sort(rng.uniform(t0, t1, n))
        key_idx = rng.integers(0, len(self.keys), n)
        values = rng.normal(size=n)
        if self._key_table is None or len(self._key_table) != len(self.keys):
            self._key_table = tuple(self.keys)
        return RecordBatch(
            times,
            key_idx,
            values,
            np.full(n, self.record_bytes, dtype=np.float64),
            self._key_table,
            self.origin,
        )
