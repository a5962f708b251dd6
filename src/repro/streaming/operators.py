"""Stream operators and mergeable aggregates.

The site-local analysis chain is a list of operators. The last stage is
usually a :class:`WindowedAggregator`, which turns raw records into
*partial aggregates* — the crucial data-reduction step before the wide
area. Partials are mergeable: the global aggregator combines partials from
every site into the exact global result, so shipping partials instead of
raw records loses nothing but volume.

The canonical operator interface is **batch-first**:
``process_batch(batch) -> RecordBatch`` transforms one columnar
:class:`~repro.streaming.records.RecordBatch` at a time (vectorized
where possible). Legacy per-record operators — anything exposing only
``process(record) -> list[Record]`` — keep working through
:class:`PerRecordAdapter`, which the site runtime wraps around them
automatically (with a :class:`DeprecationWarning`) when the columnar
plane is active.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Protocol

import numpy as np

from repro.streaming.events import Record
from repro.streaming.records import RecordBatch
from repro.streaming.windows import TumblingWindows, Window


class Operator(Protocol):
    """A batch transformation: one :class:`RecordBatch` in, one out.

    ``process_batch`` is the canonical interface; implementations that
    also serve the legacy per-record plane provide ``process(record) ->
    list[Record]`` with identical semantics. Objects exposing *only*
    ``process`` are accepted everywhere an ``Operator`` is — the
    runtime wraps them in :class:`PerRecordAdapter`.
    """

    def process_batch(
        self, batch: RecordBatch
    ) -> RecordBatch:  # pragma: no cover
        ...


class PerRecordAdapter:
    """Adapt a legacy per-record operator to the batch-first protocol.

    Materializes each batch into :class:`Record` objects, runs the
    wrapped operator's ``process`` on every one, and re-columnarizes the
    outputs — same results as the legacy plane, minus its scheduling
    overhead but plus the conversion cost. Migrate hot operators to a
    native ``process_batch`` to shed the adapter.
    """

    def __init__(self, inner) -> None:
        warnings.warn(
            f"{type(inner).__name__} implements only the per-record "
            "process() interface; wrapping it in PerRecordAdapter. "
            "Implement process_batch(batch) for native batch support.",
            DeprecationWarning,
            stacklevel=3,
        )
        self.inner = inner

    def process(self, record: Record) -> list[Record]:
        return self.inner.process(record)

    def process_batch(self, batch: RecordBatch) -> RecordBatch:
        out: list[Record] = []
        process = self.inner.process
        for record in batch.iter_records():
            out.extend(process(record))
        return RecordBatch.from_records(out, origin=batch.origin)


class MapOperator:
    """Apply a function to each record's value (and optionally key).

    ``batch_fn`` is the optional vectorized form (whole
    :class:`RecordBatch` in/out); without it, batches are materialized
    record-by-record through ``fn`` — identical results, slower.
    """

    def __init__(
        self,
        fn: Callable[[Record], Record],
        batch_fn: Callable[[RecordBatch], RecordBatch] | None = None,
    ) -> None:
        self.fn = fn
        self.batch_fn = batch_fn

    def process(self, record: Record) -> list[Record]:
        out = self.fn(record)
        return [out] if out is not None else []

    def process_batch(self, batch: RecordBatch) -> RecordBatch:
        if self.batch_fn is not None:
            return self.batch_fn(batch)
        out: list[Record] = []
        fn = self.fn
        for record in batch.iter_records():
            mapped = fn(record)
            if mapped is not None:
                out.append(mapped)
        return RecordBatch.from_records(out, origin=batch.origin)


class FilterOperator:
    """Keep records matching a predicate.

    ``batch_predicate`` is the optional vectorized form: it receives
    the whole :class:`RecordBatch` and returns a boolean mask over its
    records. Without it, the scalar ``predicate`` is applied per
    materialized record.
    """

    def __init__(
        self,
        predicate: Callable[[Record], bool],
        batch_predicate: Callable[[RecordBatch], np.ndarray] | None = None,
    ) -> None:
        self.predicate = predicate
        self.batch_predicate = batch_predicate

    def process(self, record: Record) -> list[Record]:
        return [record] if self.predicate(record) else []

    def process_batch(self, batch: RecordBatch) -> RecordBatch:
        if self.batch_predicate is not None:
            mask = np.asarray(self.batch_predicate(batch), dtype=bool)
        else:
            predicate = self.predicate
            mask = np.fromiter(
                (bool(predicate(r)) for r in batch.iter_records()),
                dtype=bool,
                count=len(batch),
            )
        return batch.where(mask)


@dataclass(frozen=True)
class AggregateFn:
    """A mergeable aggregation: zero / add / merge / result.

    ``add`` folds one raw value into a partial state; ``merge`` combines
    two partial states; ``result`` finalises. The merge must be
    associative and commutative — the property-based tests verify this for
    the built-ins.

    ``columns`` lays the state out for the windowed aggregator's tables,
    beside their int64 count column, as ``(ufunc, identity)`` pairs. A
    ufunc column folds a whole batch with ``ufunc.at``, which applies
    values unbuffered in index order: exactly the left-to-right ``add``
    chain. A ``None`` ufunc marks a column only a per-element ``add``
    writes (``var``); a ``None`` identity makes an object column, which
    by default holds a custom aggregate's state verbatim.
    ``pack(count, column values)`` rebuilds the state; ``unpack(state)``
    splits it back into column values.
    """

    name: str
    zero: Callable[[], Any]
    add: Callable[[Any, Any], Any]
    merge: Callable[[Any, Any], Any]
    result: Callable[[Any], Any]
    columns: tuple[tuple[np.ufunc | None, float | None], ...] = (
        (None, None),
    )
    pack: Callable[[int, tuple], Any] = lambda n, cols: cols[0]
    unpack: Callable[[Any], tuple] = lambda state: (state,)


def builtin_aggregate(name: str) -> AggregateFn:
    """Built-in aggregates: count, sum, mean, min, max, var."""
    if name == "count":
        # The count column is the whole state.
        return AggregateFn(
            "count",
            zero=lambda: 0,
            add=lambda s, v: s + 1,
            merge=lambda a, b: a + b,
            result=lambda s: s,
            columns=(),
            pack=lambda n, cols: n,
            unpack=lambda s: (),
        )
    if name == "sum":
        return AggregateFn(
            "sum",
            zero=lambda: 0.0,
            add=lambda s, v: s + float(v),
            merge=lambda a, b: a + b,
            result=lambda s: s,
            columns=((np.add, 0.0),),
        )
    if name == "min":
        return AggregateFn(
            "min",
            zero=lambda: math.inf,
            add=lambda s, v: min(s, float(v)),
            merge=min,
            result=lambda s: s,
            columns=((np.minimum, math.inf),),
        )
    if name == "max":
        return AggregateFn(
            "max",
            zero=lambda: -math.inf,
            add=lambda s, v: max(s, float(v)),
            merge=max,
            result=lambda s: s,
            columns=((np.maximum, -math.inf),),
        )
    if name == "mean":
        # Partial state: (count, sum); the count is the table's.
        return AggregateFn(
            "mean",
            zero=lambda: (0, 0.0),
            add=lambda s, v: (s[0] + 1, s[1] + float(v)),
            merge=lambda a, b: (a[0] + b[0], a[1] + b[1]),
            result=lambda s: s[1] / s[0] if s[0] else float("nan"),
            columns=((np.add, 0.0),),
            pack=lambda n, cols: (n, cols[0]),
            unpack=lambda s: (s[1],),
        )
    if name == "var":
        # Partial state: (count, mean, M2) — population variance via the
        # Welford/Chan update. The naive (count, sum, sum-of-squares)
        # state cancels catastrophically when the mean is large relative
        # to the spread, so merged and sequential results diverged.
        # The Welford chain has no bit-exact ufunc form, so its columns
        # carry no ufunc and the aggregator folds var per element.
        return AggregateFn(
            "var",
            zero=lambda: (0, 0.0, 0.0),
            add=_var_add,
            merge=_var_merge,
            result=lambda s: s[2] / s[0] if s[0] else float("nan"),
            columns=((None, 0.0), (None, 0.0)),
            pack=lambda n, cols: (n, cols[0], cols[1]),
            unpack=lambda s: (s[1], s[2]),
        )
    raise ValueError(f"unknown aggregate {name!r}")


def _var_add(s: tuple, v: float) -> tuple:
    n, mean, m2 = s
    v = float(v)
    n += 1
    delta = v - mean
    mean += delta / n
    return (n, mean, m2 + delta * (v - mean))


def _var_merge(a: tuple, b: tuple) -> tuple:
    na, mean_a, m2a = a
    nb, mean_b, m2b = b
    if na == 0:
        return b
    if nb == 0:
        return a
    n = na + nb
    delta = mean_b - mean_a
    mean = mean_a + delta * nb / n
    return (n, mean, m2a + m2b + delta * delta * na * nb / n)


@dataclass(frozen=True)
class PartialAggregate:
    """Value payload of a partial-aggregate record shipped over the WAN."""

    window: Window
    key: str
    state: Any
    count: int


#: Bound on the per-operator cache of key-table remaps. A site sees one
#: key table per source, so this only spills when tables are per-batch
#: (trace replay, re-columnarized record lists).
_REMAP_CACHE = 1024


class _WindowTable:
    """Open state of one window.

    Row ``j`` belongs to the aggregator's key id ``j``: ``count`` is
    int64 and ``cols`` are the aggregate's state columns. A row whose
    count is 0 is a key this window has not seen.
    """

    __slots__ = ("window", "count", "cols")

    def __init__(self, window: Window, columns, size: int) -> None:
        self.window = window
        self.count = np.zeros(size, dtype=np.int64)
        self.cols = [
            np.full(
                size,
                identity,
                dtype=object if identity is None else np.float64,
            )
            for _, identity in columns
        ]

    def grow(self, size: int, columns) -> None:
        fresh = _WindowTable(self.window, columns, size - self.count.size)
        self.count = np.concatenate((self.count, fresh.count))
        self.cols = [
            np.concatenate(pair) for pair in zip(self.cols, fresh.cols)
        ]


def _by_window(tables) -> list[_WindowTable]:
    return sorted(tables, key=lambda table: table.window)


class WindowedAggregator:
    """Keyed, windowed aggregation producing mergeable partials.

    Windows close on *watermark*: once the operator has seen (or been
    told) event time past ``window.end + allowed_lateness``, the window's
    partial records are emitted. Late records beyond lateness are counted
    and dropped — the global aggregator must never block on a straggler
    site's slow clock.

    Open state is one :class:`_WindowTable` per window start, its rows
    indexed by key ids the operator interns on first sight. Every path
    writes the same tables, and emission walks them in (window, key)
    order.
    """

    def __init__(
        self,
        windows,
        aggregate: AggregateFn,
        allowed_lateness: float = 0.0,
        partial_record_bytes: float = 120.0,
    ) -> None:
        self.windows = windows
        self.aggregate = aggregate
        self.allowed_lateness = allowed_lateness
        self.partial_record_bytes = partial_record_bytes
        self._tables: dict[float, _WindowTable] = {}
        self._key_ids: dict[str, int] = {}
        self._key_names: list[str] = []
        #: ``id(batch.keys)`` -> (keys, key-id remap). Holding the tuple
        #: keeps its id from being reused while the entry lives.
        self._remaps: dict[int, tuple[tuple[str, ...], np.ndarray]] = {}
        self._ufunc_fold = isinstance(windows, TumblingWindows) and all(
            ufunc is not None for ufunc, _ in aggregate.columns
        )
        self.records_seen = 0
        self.late_dropped = 0
        self._watermark = -math.inf

    def _intern(self, key: str) -> int:
        j = self._key_ids.get(key)
        if j is None:
            j = self._key_ids[key] = len(self._key_names)
            self._key_names.append(key)
        return j

    def _remap(self, keys: tuple[str, ...]) -> np.ndarray:
        hit = self._remaps.get(id(keys))
        if hit is not None and hit[0] is keys:
            return hit[1]
        if len(self._remaps) >= _REMAP_CACHE:
            self._remaps.clear()
        remap = np.fromiter(map(self._intern, keys), np.int64, len(keys))
        self._remaps[id(keys)] = (keys, remap)
        return remap

    def _table(self, start: float, end: float) -> _WindowTable:
        """The open table of window ``[start, end)``, sized to every
        interned key (intern before calling)."""
        table = self._tables.get(start)
        n_keys = len(self._key_names)
        if table is None:
            table = self._tables[start] = _WindowTable(
                Window(start, end), self.aggregate.columns, n_keys
            )
        elif table.count.size < n_keys:
            table.grow(
                max(n_keys, 2 * table.count.size), self.aggregate.columns
            )
        return table

    def _add(self, table: _WindowTable, j: int, value) -> None:
        # One scalar ``add`` on row j: the reference semantics every
        # vectorized fold must reproduce.
        agg = self.aggregate
        n = table.count.item(j)
        state = (
            agg.pack(n, tuple(col.item(j) for col in table.cols))
            if n
            else agg.zero()
        )
        for col, v in zip(table.cols, agg.unpack(agg.add(state, value))):
            col[j] = v
        table.count[j] = n + 1

    def process(self, record: Record) -> list[Record]:
        """Fold a record in; emits nothing (emission is watermark-driven)."""
        self.records_seen += 1
        if record.event_time + self.allowed_lateness < self._watermark:
            self.late_dropped += 1
            return []
        j = self._intern(record.key)
        for window in self.windows.assign(record.event_time):
            self._add(self._table(window.start, window.end), j, record.value)
        return []

    def process_batch(self, batch: RecordBatch) -> RecordBatch:
        """Fold a whole batch in; emits nothing (emission is watermark-driven).

        With tumbling windows, float64 values and an aggregate whose
        columns all carry a ufunc, the batch folds with one ``ufunc.at``
        per column and window. Everything else (sliding windows, object
        payloads, ``var``, custom aggregates) goes through :meth:`_add`
        record by record, exactly like :meth:`process`.
        """
        n = len(batch)
        if not n:
            return batch
        self.records_seen += n
        if self._watermark != -math.inf:
            keep = batch.t + self.allowed_lateness >= self._watermark
            n_keep = int(np.count_nonzero(keep))
            if n_keep != n:
                self.late_dropped += n - n_keep
                if not n_keep:
                    return RecordBatch.empty(batch.origin)
                batch = batch.where(keep)
        ids = self._remap(batch.keys)[batch.key_idx]
        values = batch.value
        if self._ufunc_fold and values.dtype != object:
            starts = self.windows.assign_starts(batch.t)
            first = starts[0]
            if (starts == first).all():
                self._fold(first.item(), ids, values)
            else:
                for start in np.unique(starts).tolist():
                    mask = starts == start
                    self._fold(start, ids[mask], values[mask])
        else:
            assign = self.windows.assign
            for t, j, value in zip(
                batch.t.tolist(),
                ids.tolist(),
                values if values.dtype == object else values.tolist(),
            ):
                for window in assign(t):
                    self._add(self._table(window.start, window.end), j, value)
        return RecordBatch.empty(batch.origin)

    def _fold(self, start: float, ids: np.ndarray, values: np.ndarray) -> None:
        # ufunc.at is unbuffered and applies values in index order, so
        # each row sees the same left-to-right chain as repeated add.
        table = self._table(start, start + self.windows.length)
        np.add.at(table.count, ids, 1)
        for (ufunc, _), col in zip(self.aggregate.columns, table.cols):
            ufunc.at(col, ids, values)

    def _rows(self, table: _WindowTable):
        """``(key, state, count)`` of every key the window saw, by key."""
        names = self._key_names
        ids = sorted(
            np.flatnonzero(table.count).tolist(), key=names.__getitem__
        )
        counts = table.count[ids].tolist()
        cols = [col[ids].tolist() for col in table.cols]
        pack = self.aggregate.pack
        for j, n, *vals in zip(ids, counts, *cols):
            yield names[j], pack(n, tuple(vals)), n

    def advance_watermark(self, watermark: float) -> list[Record]:
        """Close all windows ending before the watermark; emit partials."""
        if watermark < self._watermark:
            raise ValueError("watermark cannot move backwards")
        self._watermark = watermark
        out: list[Record] = []
        closed = [
            table
            for table in self._tables.values()
            if table.window.end + self.allowed_lateness <= watermark
        ]
        for table in _by_window(closed):
            window = table.window
            del self._tables[window.start]
            for key, state, count in self._rows(table):
                out.append(
                    Record(
                        event_time=window.end,
                        key=key,
                        value=PartialAggregate(window, key, state, count),
                        size_bytes=self.partial_record_bytes,
                    )
                )
        return out

    @property
    def open_windows(self) -> int:
        return len(self._tables)

    # -- checkpoint/restore --------------------------------------------
    def snapshot(self) -> dict:
        """JSON-serializable view of all open window state.

        Aggregate states are the same scalars and tuples the partials
        carry; tuples survive a JSON round trip as lists, which
        :meth:`restore` reads back through the aggregate's ``unpack``.
        """
        return {
            "watermark": (
                None if self._watermark == -math.inf else self._watermark
            ),
            "records_seen": self.records_seen,
            "late_dropped": self.late_dropped,
            "slots": [
                [table.window.start, table.window.end, key, state, count]
                for table in _by_window(self._tables.values())
                for key, state, count in self._rows(table)
            ],
        }

    def restore(self, payload: dict) -> None:
        """Replace all state with a :meth:`snapshot` payload."""
        wm = payload["watermark"]
        self._watermark = -math.inf if wm is None else wm
        self.records_seen = payload["records_seen"]
        self.late_dropped = payload["late_dropped"]
        self._tables = {}
        self._key_ids = {}
        self._key_names = []
        self._remaps = {}
        unpack = self.aggregate.unpack
        for start, end, key, state, count in payload["slots"]:
            j = self._intern(key)
            table = self._table(start, end)
            table.count[j] = count
            for col, v in zip(table.cols, unpack(state)):
                col[j] = v
