"""Graceful backend degradation for the serve scheduler.

The scheduler normally evaluates fused batches through a parallel
:class:`~repro.engine.executor.Engine` (its thread pool). When that
backend starts failing persistently — kernel chunks that keep raising,
a wedged pool — retries alone cannot help: the fault follows the
backend. :class:`BackendGovernor` implements the recovery ladder of
graceful degradation:

1. Count *consecutive* backend faults; any success resets the streak.
2. At ``fault_threshold`` consecutive faults, lease the backend out:
   :meth:`current_engine` returns ``None`` (= serial evaluation, always
   available, bitwise-identical in float64) for ``cooldown_s`` seconds.
3. After the cool-down, re-escalate: hand the parallel backend back and
   give it a fresh streak budget.

Time is read from the injectable faults clock, so tests walk the
cool-down with a :class:`~repro.faults.FakeClock` instead of sleeping.
The governor itself is lock-protected and callback-driven —
``on_fallback``/``on_reescalate`` are where the scheduler records
``ServerMetrics`` counters — so it stays free of serve imports and is
unit-testable in isolation.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

from repro.engine.executor import Engine
from repro.errors import ConfigurationError
from repro.faults import clock as _clock


class BackendGovernor:
    """Serial-fallback state machine for one scheduler's engine.

    Parameters
    ----------
    engine:
        The parallel backend being governed. ``None`` makes the
        governor a no-op that always yields ``None`` (serial).
    fault_threshold:
        Consecutive backend faults that trigger the fallback.
    cooldown_s:
        How long (injected-clock seconds) the backend stays leased out
        before re-escalation.
    on_fallback / on_reescalate:
        Zero-argument observers fired on each transition (metrics
        hooks); exceptions from them propagate — they are trusted code.
    """

    def __init__(
        self,
        engine: Optional[Engine],
        fault_threshold: int = 3,
        cooldown_s: float = 5.0,
        on_fallback: Optional[Callable[[], None]] = None,
        on_reescalate: Optional[Callable[[], None]] = None,
    ):
        if fault_threshold < 1:
            raise ConfigurationError(
                f"fault_threshold must be >= 1, got {fault_threshold}"
            )
        if cooldown_s <= 0:
            raise ConfigurationError(
                f"cooldown_s must be positive, got {cooldown_s}"
            )
        self.engine = engine
        self.fault_threshold = int(fault_threshold)
        self.cooldown_s = float(cooldown_s)
        self._on_fallback = on_fallback
        self._on_reescalate = on_reescalate
        self._lock = threading.Lock()
        self._streak = 0
        self._degraded_until: Optional[float] = None

    # ------------------------------------------------------------------
    def current_engine(self) -> Optional[Engine]:
        """The engine the next batch should use (``None`` = serial).

        Re-escalates as a side effect once the cool-down has elapsed.
        """
        with self._lock:
            if self.engine is None:
                return None
            if self._degraded_until is None:
                return self.engine
            if _clock.monotonic() < self._degraded_until:
                return None
            # Cool-down over: restore the backend with a clean streak.
            self._degraded_until = None
            self._streak = 0
            callback = self._on_reescalate
        if callback is not None:
            callback()
        return self.engine

    @property
    def degraded(self) -> bool:
        with self._lock:
            return self._degraded_until is not None

    @property
    def streak(self) -> int:
        with self._lock:
            return self._streak

    # ------------------------------------------------------------------
    def record_success(self) -> None:
        """A batch evaluated cleanly on the parallel backend."""
        with self._lock:
            if self._degraded_until is None:
                self._streak = 0

    def record_fault(self) -> bool:
        """One backend fault; returns True if this one triggered fallback."""
        with self._lock:
            if self.engine is None or self._degraded_until is not None:
                return False
            self._streak += 1
            if self._streak < self.fault_threshold:
                return False
            self._degraded_until = _clock.monotonic() + self.cooldown_s
            callback = self._on_fallback
        if callback is not None:
            callback()
        return True
