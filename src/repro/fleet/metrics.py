"""Fleet-level metrics: the router's own counters.

The router counts what only it can see — routing decisions, worker
deaths and respawns, redeliveries, duplicate replies dropped by the
exactly-one-reply guard — and every reply it hands back, so its
``replies_ok`` plus ``replies_error_total`` reconcile with
``requests_submitted`` across worker deaths. Each worker's
:class:`~repro.serve.metrics.ServerMetrics` keeps counting its own
admission, batching and latency story in its own process and dies with
it; :meth:`~repro.fleet.ServeFleet.fleet_snapshot` reports them side
by side, ``router`` and ``workers``, with no sum across processes.
"""

from __future__ import annotations

import threading
from collections import Counter
from typing import Optional


class FleetMetrics:
    """Router-side counters of one :class:`~repro.fleet.ServeFleet`."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.requests_submitted = 0
        self.requests_rejected = 0  # router-level overflow/shutdown
        self.routed: Counter = Counter()  # worker id -> envelopes sent
        self.replies_ok = 0
        self.replies_error: Counter = Counter()  # by ErrorReply.code
        self.duplicate_replies = 0  # dropped by exactly-one-reply guard
        self.redeliveries = 0  # envelopes resent after a worker death
        self.redelivery_failures = 0  # answered worker_crashed instead
        self.worker_deaths = 0
        self.worker_restarts = 0
        self.sessions_opened = 0
        self.sessions_resumed = 0  # crash recoveries

    # ------------------------------------------------------------------
    def record_submit(self, worker_id: int) -> None:
        with self._lock:
            self.requests_submitted += 1
            self.routed[int(worker_id)] += 1

    def record_rejection(self) -> None:
        with self._lock:
            self.requests_rejected += 1

    def record_reply(self, ok: bool, code: Optional[str] = None) -> None:
        with self._lock:
            if ok:
                self.replies_ok += 1
            else:
                self.replies_error[str(code)] += 1

    def record_duplicate_reply(self) -> None:
        with self._lock:
            self.duplicate_replies += 1

    def record_redelivery(self, count: int = 1) -> None:
        with self._lock:
            self.redeliveries += int(count)

    def record_redelivery_failure(self) -> None:
        with self._lock:
            self.redelivery_failures += 1

    def record_worker_death(self) -> None:
        with self._lock:
            self.worker_deaths += 1

    def record_worker_restart(self) -> None:
        with self._lock:
            self.worker_restarts += 1

    def record_session_opened(self) -> None:
        with self._lock:
            self.sessions_opened += 1

    def record_session_resumed(self) -> None:
        with self._lock:
            self.sessions_resumed += 1

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Router-section counters (JSON-ready)."""
        with self._lock:
            return {
                "requests_submitted": self.requests_submitted,
                "requests_rejected": self.requests_rejected,
                "routed": {
                    str(wid): count
                    for wid, count in sorted(self.routed.items())
                },
                "replies_ok": self.replies_ok,
                "replies_error": dict(sorted(self.replies_error.items())),
                "replies_error_total": int(
                    sum(self.replies_error.values())
                ),
                "duplicate_replies": self.duplicate_replies,
                "redeliveries": self.redeliveries,
                "redelivery_failures": self.redelivery_failures,
                "worker_deaths": self.worker_deaths,
                "worker_restarts": self.worker_restarts,
                "sessions_opened": self.sessions_opened,
                "sessions_resumed": self.sessions_resumed,
            }
