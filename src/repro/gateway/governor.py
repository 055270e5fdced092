"""Closed-loop admission control of a served deployment.

:class:`GatewayGovernor` closes the loop that the per-stage latency
decomposition opens: it watches the observed reply p95 and moves one
runtime knob of a :class:`~repro.serve.LocalizationService` — the
admission queue's ``capacity`` — with an AIMD law. When the SLO is
violated, capacity shrinks multiplicatively (× ``decrease``), so
excess load is refused *typed* at the door instead of aging past its
deadline inside; under comfortable headroom it regrows additively
(+ ``capacity_step``) toward its baseline.

The linger window is not the governor's to move: the scheduler's
:class:`~repro.serve.scheduler.AdaptiveBatchController` already adapts
it on every drain, bounded by ``max_wait_s``.

Two guards keep the loop stable: **hysteresis** (a violation or
headroom streak must persist ``patience`` consecutive ticks before any
move) and a **cooldown** (after a move the governor holds for
``cooldown_ticks`` ticks so the system can express the new setting).
Capacity is clamped to a configured range, and every adjustment is
counted in :meth:`~repro.serve.metrics.ServerMetrics.
record_governor_adjustment`, appended to a bounded event log, and
logged — an operator can always reconstruct *why* the capacity is
where it is.
"""

from __future__ import annotations

import logging
import threading
from collections import deque
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.errors import ConfigurationError

_LOG = logging.getLogger(__name__)


class GatewayGovernor:
    """AIMD feedback controller over one service's admission capacity.

    Parameters
    ----------
    service:
        A started :class:`~repro.serve.LocalizationService` (the knob
        is ``service.queue.capacity``).
    slo_p95_s:
        The reply-latency p95 objective the loop defends.
    interval_s:
        Tick period of the background thread (:meth:`start`). Tests
        drive :meth:`tick` directly instead.
    patience / cooldown_ticks:
        Hysteresis: consecutive out-of-band ticks required before a
        move, and post-move hold ticks.
    decrease / capacity_step:
        The AIMD constants: multiplicative-decrease factor and
        additive-increase step.
    headroom:
        Relaxation threshold as a fraction of the SLO: p95 below
        ``headroom * slo_p95_s`` counts as comfortable.
    capacity_range:
        ``(floor, ceiling)`` clamp of the capacity; defaults to an
        eighth of the service's capacity up to that capacity.
    p95_source:
        Override for the observed p95 (a callable returning seconds);
        defaults to the service's reply-latency reservoir. Lets tests
        script a load shift deterministically.
    """

    def __init__(
        self,
        service,
        slo_p95_s: float,
        interval_s: float = 0.5,
        patience: int = 2,
        cooldown_ticks: int = 2,
        decrease: float = 0.7,
        capacity_step: int = 64,
        headroom: float = 0.5,
        capacity_range: Optional[tuple] = None,
        p95_source: Optional[Callable[[], float]] = None,
        event_capacity: int = 128,
    ):
        if slo_p95_s <= 0:
            raise ConfigurationError(
                f"slo_p95_s must be > 0, got {slo_p95_s}"
            )
        if interval_s <= 0:
            raise ConfigurationError(
                f"interval_s must be > 0, got {interval_s}"
            )
        if patience < 1 or cooldown_ticks < 0:
            raise ConfigurationError(
                f"patience must be >= 1 and cooldown_ticks >= 0, "
                f"got {patience}/{cooldown_ticks}"
            )
        if not 0.0 < decrease < 1.0:
            raise ConfigurationError(
                f"decrease must be in (0, 1), got {decrease}"
            )
        if not 0.0 < headroom < 1.0:
            raise ConfigurationError(
                f"headroom must be in (0, 1), got {headroom}"
            )
        self.service = service
        self.slo_p95_s = float(slo_p95_s)
        self.interval_s = float(interval_s)
        self.patience = int(patience)
        self.cooldown_ticks = int(cooldown_ticks)
        self.decrease = float(decrease)
        self.capacity_step = int(capacity_step)
        self.headroom = float(headroom)
        baseline_capacity = int(service.queue.capacity)
        self.capacity_range = (
            tuple(int(c) for c in capacity_range)
            if capacity_range is not None
            else (max(1, baseline_capacity // 8), baseline_capacity)
        )
        self._p95_source = p95_source or (
            lambda: service.metrics.latency_quantiles()["p95"]
        )
        self.ticks = 0
        self.adjustments_total = 0
        self._over = 0
        self._under = 0
        self._cooldown = 0
        self.events: deque = deque(maxlen=int(event_capacity))
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # ------------------------------------------------------------------
    # The control law.
    # ------------------------------------------------------------------
    def tick(self) -> List[Dict]:
        """One control decision; returns the adjustments made (if any)."""
        self.ticks += 1
        if self._cooldown > 0:
            self._cooldown -= 1
            return []
        p95 = float(self._p95_source())
        if not np.isfinite(p95):
            return []  # no traffic yet; nothing to react to
        capacity = int(self.service.queue.capacity)
        if p95 > self.slo_p95_s:
            self._over += 1
            self._under = 0
            if self._over >= self.patience:
                return self._apply(
                    int(capacity * self.decrease),
                    "p95 over SLO: shed at admission", p95,
                )
        elif p95 < self.headroom * self.slo_p95_s:
            self._under += 1
            self._over = 0
            if self._under >= self.patience:
                return self._apply(
                    capacity + self.capacity_step,
                    "headroom: re-admit load", p95,
                )
        else:
            self._over = 0
            self._under = 0
        return []

    def _apply(self, proposed: int, reason: str, p95: float) -> List[Dict]:
        """Move the capacity to ``proposed`` (clamped); count and log it."""
        self._over = 0
        self._under = 0
        queue = self.service.queue
        current = int(queue.capacity)
        lo, hi = self.capacity_range
        proposed = min(max(proposed, lo), hi)
        if proposed == current:
            return []
        queue.capacity = proposed
        self._cooldown = self.cooldown_ticks
        move = {
            "knob": "admission_capacity", "old": current, "new": proposed,
            "reason": reason, "p95_s": p95, "tick": self.ticks,
        }
        self.adjustments_total += 1
        self.events.append(move)
        metrics = getattr(self.service, "metrics", None)
        if metrics is not None:
            metrics.record_governor_adjustment(move["knob"])
        _LOG.info(
            "governor: %s %s -> %s (%s; p95=%.4fs slo=%.4fs)",
            move["knob"], current, proposed, reason, p95, self.slo_p95_s,
        )
        return [move]

    # ------------------------------------------------------------------
    # Background thread and reporting.
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-gateway-governor", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.tick()
            except Exception:  # never kill the loop on a transient read
                _LOG.exception("governor tick failed")

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready controller state, knob value, and recent events."""
        return {
            "slo_p95_s": self.slo_p95_s,
            "ticks": self.ticks,
            "adjustments_total": self.adjustments_total,
            "cooldown": self._cooldown,
            "over_streak": self._over,
            "under_streak": self._under,
            "knobs": {"admission_capacity": self.service.queue.capacity},
            "events": list(self.events),
        }
