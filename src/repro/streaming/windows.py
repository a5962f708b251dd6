"""Window assigners for event-time aggregation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, order=True)
class Window:
    """A half-open event-time interval [start, end)."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("window end must be after start")

    @property
    def length(self) -> float:
        return self.end - self.start

    def contains(self, t: float) -> bool:
        return self.start <= t < self.end


class TumblingWindows:
    """Fixed, non-overlapping windows of one length."""

    def __init__(self, length: float) -> None:
        if length <= 0:
            raise ValueError("window length must be positive")
        self.length = length

    def assign(self, event_time: float) -> list[Window]:
        start = (event_time // self.length) * self.length
        return [Window(start, start + self.length)]

    def assign_starts(self, event_times: np.ndarray) -> np.ndarray:
        """Vectorized window starts, bit-identical to :meth:`assign`.

        The scalar path computes ``(t // length) * length`` with
        CPython float floor-division, which is *not* ``floor(t /
        length)``: it derives the quotient from ``fmod`` and rounds
        it, so a large ``t`` just below a window boundary can floor
        differently than naive division would. numpy's float
        ``floor_divide`` runs that same fmod-based algorithm (sign
        handling included), so both planes bucket every record into
        the same window.
        """
        return np.floor_divide(event_times, self.length) * self.length


class SlidingWindows:
    """Overlapping windows: ``length`` long, sliding every ``slide``."""

    def __init__(self, length: float, slide: float) -> None:
        if length <= 0 or slide <= 0:
            raise ValueError("length and slide must be positive")
        if slide > length:
            raise ValueError("slide must not exceed length (gaps would drop events)")
        self.length = length
        self.slide = slide

    def assign(self, event_time: float) -> list[Window]:
        windows: list[Window] = []
        # Last window that starts at or before the event.
        last_start = (event_time // self.slide) * self.slide
        start = last_start
        while start > event_time - self.length:
            windows.append(Window(start, start + self.length))
            start -= self.slide
        return sorted(windows)
