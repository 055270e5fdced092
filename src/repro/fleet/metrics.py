"""Fleet-level metrics: router counters + merged worker snapshots.

The router counts what only it can see — routing decisions, worker
deaths and respawns, redeliveries, duplicate replies dropped by the
exactly-one-reply guard — while each worker's
:class:`~repro.serve.metrics.ServerMetrics` keeps counting its own
admission/batching/latency story in its own process.
:func:`merge_worker_snapshots` folds the per-worker snapshots into one
aggregate (summing counters, merging histograms; latency quantiles are
not mergeable across reservoirs and stay per-worker), and
:meth:`FleetMetrics.fleet_snapshot` is the one JSON document the
``/metrics`` endpoint serves for a fleet: ``router`` + ``aggregate`` +
``workers`` sections instead of one flat blob.
"""

from __future__ import annotations

import threading
from collections import Counter
from typing import Dict, Mapping, Optional

#: Worker-snapshot keys that sum across the fleet.
_SUMMED_KEYS = (
    "requests_submitted",
    "replies_ok",
    "replies_error_total",
    "admission_rejections",
    "admission_timeouts",
    "deadline_expiries",
    "queue_depth",
    "batches",
    "fused_candidate_rows",
    "retries_total",
    "internal_faults_total",
)

#: Worker-snapshot keys holding ``{label: count}`` dicts that merge.
_MERGED_COUNTER_KEYS = (
    "replies_error",
    "batch_size_histogram",
    "retries",
    "internal_faults",
)


def merge_worker_snapshots(
    snapshots: Mapping[int, Optional[dict]]
) -> dict:
    """Fold per-worker ``ServerMetrics.snapshot()`` dicts into one.

    ``None`` entries (a worker that died before answering the metrics
    probe) are skipped but counted in ``workers_unreachable``.
    """
    aggregate: dict = {key: 0 for key in _SUMMED_KEYS}
    merged: Dict[str, Counter] = {
        key: Counter() for key in _MERGED_COUNTER_KEYS
    }
    reachable = 0
    for snapshot in snapshots.values():
        if snapshot is None:
            continue
        reachable += 1
        metrics = snapshot.get("metrics", snapshot)
        for key in _SUMMED_KEYS:
            value = metrics.get(key)
            if value is not None:
                aggregate[key] += int(value)
        for key in _MERGED_COUNTER_KEYS:
            merged[key].update(metrics.get(key) or {})
    for key in _MERGED_COUNTER_KEYS:
        aggregate[key] = dict(sorted(merged[key].items()))
    sizes = merged["batch_size_histogram"]
    total = sum(sizes.values())
    aggregate["batch_size_mean"] = (
        sum(int(size) * count for size, count in sizes.items()) / total
        if total
        else None
    )
    aggregate["workers_reporting"] = reachable
    aggregate["workers_unreachable"] = len(snapshots) - reachable
    return aggregate


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
