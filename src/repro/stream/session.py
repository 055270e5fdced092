"""One user-facing tracking session over a live observation stream.

:class:`TrackingSession` wraps a :class:`SequentialMonteCarloTracker`
with the defensive shell a long-running service needs: observations are
validated before they reach Algorithm 4.1 (monotonic time, matching
sniffer arity, finite readings), bad windows are *skipped and counted*
rather than raised, and every accepted window is timed for the latency
metrics. The tracker itself stays byte-for-byte the batch tracker — the
session only decides which windows it gets to see, which is exactly the
paper's asynchronous-updating stance (§IV.D): a window a user misses
simply widens the next prediction disc.
"""

from __future__ import annotations

import logging
import time as _time
from collections import Counter
from typing import Callable, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.smc.tracker import SequentialMonteCarloTracker, TrackerStep
from repro.stream.metrics import StreamMetrics
from repro.traffic.measurement import FluxObservation
from repro.util.validation import check_readings

#: Optional ground-truth lookup: window time -> (K, 2) true positions
#: (or None when truth is unknown for that window).
TruthProvider = Callable[[float], Optional[np.ndarray]]

_LOG = logging.getLogger(__name__)


class TrackingSession:
    """Drives one tracker from a stream, skipping windows it cannot trust.

    Parameters
    ----------
    session_id:
        Stable identifier (used by services, checkpoints, metrics).
    tracker:
        The wrapped SMC tracker. The session owns it: callers must not
        step it directly while the session is live.
    truth:
        Optional ground-truth provider for online error accounting.
    metrics:
        Metrics sink; a fresh one is created when omitted.
    """

    #: Skip reasons recorded in ``metrics.windows_skipped``.
    SKIP_BAD_TYPE = "bad_type"
    SKIP_BAD_TIME = "bad_time"
    SKIP_OUT_OF_ORDER = "out_of_order"
    SKIP_ARITY_MISMATCH = "arity_mismatch"
    SKIP_BAD_VALUES = "bad_values"
    SKIP_STEP_FAILED = "step_failed"

    def __init__(
        self,
        session_id: str,
        tracker: SequentialMonteCarloTracker,
        truth: Optional[TruthProvider] = None,
        metrics: Optional[StreamMetrics] = None,
    ):
        if not session_id:
            raise ConfigurationError("session_id must be non-empty")
        self.session_id = str(session_id)
        self.tracker = tracker
        self.truth = truth
        self.metrics = metrics if metrics is not None else StreamMetrics()
        self.last_time: Optional[float] = None
        self.windows_consumed = 0  # every observation offered, good or bad
        self.last_step: Optional[TrackerStep] = None
        self.last_skip_reason: Optional[str] = None  # None: window processed
        self.step_errors: Counter = Counter()  # exception type -> count
        self.last_error: Optional[str] = None  # "Type: message" of newest

    # ------------------------------------------------------------------
    def validate(self, observation: object) -> Optional[str]:
        """Return a skip reason for a bad observation, or None if usable."""
        if not isinstance(observation, FluxObservation):
            return self.SKIP_BAD_TYPE
        t = float(observation.time)
        if not np.isfinite(t):
            return self.SKIP_BAD_TIME
        if self.last_time is not None and t <= self.last_time:
            return self.SKIP_OUT_OF_ORDER
        expected = self.tracker.model.node_count
        if observation.values.shape != (expected,):
            return self.SKIP_ARITY_MISMATCH
        # NaN is legitimate (sniffer dropout); +/-inf, no finite
        # reading, an overflowing sum of squares or negative flux would
        # poison the NLS objective.
        try:
            finite = check_readings(observation.values)
        except ConfigurationError:
            return self.SKIP_BAD_VALUES
        if np.any(finite < 0):
            return self.SKIP_BAD_VALUES
        return None

    def process(self, observation: object) -> Optional[TrackerStep]:
        """Offer one window to the tracker; never raises on bad input.

        Returns the tracker step for an accepted window, or ``None``
        when the window was skipped; the skip reason is kept in
        ``last_skip_reason`` and counted in ``metrics.windows_skipped``.
        """
        self.windows_consumed += 1
        reason = self.validate(observation)
        self.last_skip_reason = reason
        if reason is not None:
            self.metrics.record_skip(reason)
            return None
        assert isinstance(observation, FluxObservation)
        started = _time.perf_counter()
        try:
            step = self.tracker.step(observation)
        except Exception as exc:
            # A single pathological window must not kill the service;
            # the tracker state is unchanged on step entry failures.
            # The failure is still *observed*: logged with traceback,
            # typed into step_errors, surfaced in summary() — a
            # systematically failing tracker was invisible before.
            self.step_errors[type(exc).__name__] += 1
            self.last_error = f"{type(exc).__name__}: {exc}"
            _LOG.warning(
                "session %s: tracker step failed on window t=%s; "
                "skipping it", self.session_id, observation.time,
                exc_info=True,
            )
            self.last_skip_reason = self.SKIP_STEP_FAILED
            self.metrics.record_skip(self.SKIP_STEP_FAILED)
            return None
        latency = _time.perf_counter() - started
        self.last_time = float(observation.time)
        self.last_step = step
        self.metrics.record_window(
            latency, mean_error=self._mean_error(step)
        )
        return step

    def _mean_error(self, step: TrackerStep) -> Optional[float]:
        if self.truth is None:
            return None
        true_positions = self.truth(step.time)
        if true_positions is None:
            return None
        from repro.smc.association import assignment_errors

        errors, _ = assignment_errors(step.estimates, np.asarray(true_positions))
        return float(errors.mean())

    # ------------------------------------------------------------------
    def estimates(self) -> np.ndarray:
        """Current ``(K, 2)`` per-user position estimates."""
        return self.tracker.estimates()

    def summary(self) -> dict:
        """Session status snapshot (JSON-ready via StreamMetrics rules)."""
        return {
            "session_id": self.session_id,
            "windows_consumed": self.windows_consumed,
            "last_time": self.last_time,
            "step_errors": dict(self.step_errors),
            "last_error": self.last_error,
            **self.metrics.to_dict(),
        }
