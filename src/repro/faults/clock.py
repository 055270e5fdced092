"""Injectable monotonic time for deadlines, backoff, and chaos tests.

Every resilience decision in the library — request-deadline expiry,
retry backoff sleeps — reads time
through this module instead of calling :func:`time.monotonic`
directly. In production the installed clock *is* the system clock (one
attribute read of overhead); tests and chaos harnesses install a
:class:`FakeClock` and drive time by hand, which makes "the deadline
lapsed between queue purge and dispatch" a deterministic one-liner
instead of a ``sleep``-and-hope race.

Only *decision* time goes through here. Condition-variable waits and
thread joins keep real ``time.monotonic`` deadlines — a fake clock
must never be able to hang a real thread.
"""

from __future__ import annotations

import threading
import time as _time
from contextlib import contextmanager
from typing import Iterator, Optional


class SystemClock:
    """The real monotonic clock (default)."""

    def monotonic(self) -> float:
        return _time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            _time.sleep(seconds)


class FakeClock:
    """A hand-driven clock: ``sleep`` advances it instead of blocking.

    Thread-safe; chaos tests share one instance between the code under
    test and the assertions.
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self._lock = threading.Lock()
        self.sleeps: list = []  # every sleep requested, in order

    def monotonic(self) -> float:
        with self._lock:
            return self._now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(float(seconds))
        self.advance(max(0.0, float(seconds)))

    def advance(self, seconds: float) -> float:
        """Move time forward by ``seconds``; returns the new instant."""
        with self._lock:
            self._now += float(seconds)
            return self._now


SYSTEM = SystemClock()
_clock = SYSTEM


def current_clock():
    """The clock resilience code should consult (system unless installed)."""
    return _clock


def install(clock) -> None:
    """Replace the module clock (``None`` restores the system clock)."""
    global _clock
    _clock = SYSTEM if clock is None else clock


@contextmanager
def installed(clock) -> Iterator[object]:
    """Scope a clock installation; always restores the previous clock."""
    global _clock
    previous = _clock
    install(clock)
    try:
        yield _clock
    finally:
        _clock = previous


def monotonic() -> float:
    """Decision-time ``monotonic()`` through the installed clock."""
    return _clock.monotonic()


def sleep(seconds: float, clock: Optional[object] = None) -> None:
    """Sleep on the given clock (installed clock when ``None``)."""
    (_clock if clock is None else clock).sleep(seconds)
