"""Operational metrics of the batched localization service.

One :class:`ServerMetrics` per service, updated from the submission
path and the scheduler thread (all mutation under one lock), read by
anyone: :meth:`snapshot` is the JSON-ready dict behind
:meth:`to_json` and the :class:`MetricsServer` HTTP endpoint.

The latency machinery is the shared :class:`repro.metrics.
LatencyReservoir` — the same ring buffer the streaming layer uses —
extended here with p99 (a serving SLO, not a tracking one) and a
batch-size histogram, the direct evidence of how well micro-batching
is amortizing kernel calls.
"""

from __future__ import annotations

import json
import threading
from collections import Counter, deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Sequence, Tuple
from urllib.parse import parse_qs, urlparse

import numpy as np

from repro.errors import ConfigurationError
from repro.metrics import LatencyReservoir
from repro.serve.requests import ERROR_DEADLINE_EXPIRED, ERROR_REJECTED


def _nan_safe_deep(value):
    """JSON-ready copy: non-finite floats become ``None``, recursively."""
    if isinstance(value, float) and not np.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _nan_safe_deep(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_nan_safe_deep(v) for v in value]
    return value


class ServerMetrics:
    """Counters, histograms, and latency quantiles for one service."""

    def __init__(self, latency_capacity: int = 8192, trace_capacity: int = 256):
        self._lock = threading.Lock()
        self._latencies = LatencyReservoir(latency_capacity)
        self._queue_wait = LatencyReservoir(latency_capacity)
        self.requests_submitted = 0
        self.replies_ok = 0
        self.replies_error: Counter = Counter()  # by ErrorReply.code
        self.batches = 0
        self.batch_sizes: Counter = Counter()  # exact size -> count
        self.fused_candidate_rows = 0
        self.queue_depth = 0  # gauge: sampled at each batch drain
        self.retries: Counter = Counter()  # by retried-operation label
        self.internal_faults: Counter = Counter()  # by origin site
        # Per-stage latency decomposition (admission → fuse → solve →
        # reply, plus gateway_in/gateway_out when a gateway fronts the
        # service). Reservoirs are created lazily per stage name so the
        # decomposition reports exactly the stages the request path hit.
        self._stage_latencies: Dict[str, LatencyReservoir] = {}
        self._stage_capacity = int(latency_capacity)
        self._traces: deque = deque(maxlen=trace_capacity)
        self.traces_recorded = 0
        self.endpoint: Optional[Dict[str, object]] = None  # bound HTTP addr
        self._kernel_cache = None  # live KernelLRUCache we snapshot

    def attach_probes(self, kernel_cache=None) -> None:
        """Register live scheduler internals for snapshot reporting.

        Probes are read (plain counter attributes, no locks) at
        :meth:`snapshot` time, which is what makes the kernel LRU
        cache visible through ``/metrics`` without threading every
        counter bump through this object's lock. ``None`` is skipped,
        so a service without a map attaches nothing.
        """
        with self._lock:
            if kernel_cache is not None:
                self._kernel_cache = kernel_cache

    # ------------------------------------------------------------------
    def record_submit(self) -> None:
        with self._lock:
            self.requests_submitted += 1

    def record_batch(
        self, size: int, queue_depth: int, fused_rows: int = 0
    ) -> None:
        with self._lock:
            self.batches += 1
            self.batch_sizes[int(size)] += 1
            self.queue_depth = int(queue_depth)
            self.fused_candidate_rows += int(fused_rows)

    def record_reply(
        self, latency_s: float, queue_wait_s: Optional[float] = None
    ) -> None:
        with self._lock:
            self.replies_ok += 1
            self._latencies.record(latency_s)
            if queue_wait_s is not None:
                self._queue_wait.record(queue_wait_s)

    def record_error(self, code: str, latency_s: Optional[float] = None) -> None:
        with self._lock:
            self.replies_error[code] += 1
            if latency_s is not None and np.isfinite(latency_s):
                self._latencies.record(latency_s)

    # ------------------------------------------------------------------
    def record_retry(self, label: str) -> None:
        """One bounded-backoff retry of ``label`` (the RetryPolicy hook)."""
        with self._lock:
            self.retries[label] += 1

    def record_internal_fault(self, where: str) -> None:
        """A swallowed-but-observed internal failure (e.g. prematch pass)."""
        with self._lock:
            self.internal_faults[where] += 1

    # ------------------------------------------------------------------
    # Tracing: per-stage latency decomposition and the trace ring.
    # ------------------------------------------------------------------
    def record_stage(self, stage: str, seconds: float) -> None:
        """One sample of a single stage (the gateway's in/out legs)."""
        with self._lock:
            self._record_stage_locked(stage, seconds)

    def _record_stage_locked(self, stage: str, seconds: float) -> None:
        reservoir = self._stage_latencies.get(stage)
        if reservoir is None:
            reservoir = LatencyReservoir(self._stage_capacity)
            self._stage_latencies[stage] = reservoir
        reservoir.record(seconds)

    def record_trace(
        self,
        span_id: str,
        request_id: str,
        stage_durations: Sequence[Tuple[str, float]],
        ok: bool = True,
    ) -> None:
        """One completed request's stage decomposition.

        Feeds every stage's reservoir and appends one entry to the
        bounded trace ring (the ``trace dump`` payload). Stamped by the
        scheduler at reply time; ``stage_durations`` is
        :meth:`~repro.serve.admission.PendingRequest.stage_durations`
        output, so the durations sum to the reply's total latency.
        """
        with self._lock:
            stages: Dict[str, float] = {}
            for stage, seconds in stage_durations:
                self._record_stage_locked(stage, seconds)
                stages[stage] = stages.get(stage, 0.0) + float(seconds)
            self.traces_recorded += 1
            self._traces.append({
                "span_id": span_id,
                "request_id": request_id,
                "ok": bool(ok),
                "stages": stages,
                "total_s": float(sum(stages.values())),
            })

    def recent_traces(self, limit: Optional[int] = None) -> List[Dict]:
        """Newest-last copy of the trace ring (the ``/trace`` payload)."""
        with self._lock:
            traces = list(self._traces)
        if limit is not None:
            limit = max(0, int(limit))
            traces = traces[len(traces) - limit:] if limit else []
        return traces

    def stage_quantiles(self) -> Dict[str, Dict[str, float]]:
        """``{stage: {"p50_s": ..., "p95_s": ..., "count": n}}``."""
        with self._lock:
            return self._stage_quantiles_locked()

    def _stage_quantiles_locked(self) -> Dict[str, Dict[str, float]]:
        out: Dict[str, Dict[str, float]] = {}
        for stage, reservoir in self._stage_latencies.items():
            quantiles = reservoir.quantiles((0.50, 0.95))
            out[stage] = {
                "p50_s": quantiles["p50"],
                "p95_s": quantiles["p95"],
                "count": reservoir.count,
            }
        return out

    # ------------------------------------------------------------------
    def set_endpoint(self, host: str, port: int) -> None:
        """Record the bound HTTP endpoint for snapshot reporting."""
        with self._lock:
            self.endpoint = {"host": str(host), "port": int(port)}

    # ------------------------------------------------------------------
    def latency_quantiles(self) -> Dict[str, float]:
        """p50/p95/p99 reply latency (seconds), recent window."""
        with self._lock:
            return self._latencies.quantiles((0.50, 0.95, 0.99))

    def mean_batch_size(self) -> float:
        with self._lock:
            total = sum(self.batch_sizes.values())
            if total == 0:
                return float("nan")
            weighted = sum(s * c for s, c in self.batch_sizes.items())
            return weighted / total

    def snapshot(self) -> Dict[str, object]:
        """One JSON-ready dict of everything (the /metrics payload)."""
        with self._lock:
            quantiles = self._latencies.quantiles((0.50, 0.95, 0.99))
            waits = self._queue_wait.quantiles((0.50, 0.95))
            sizes = dict(sorted(self.batch_sizes.items()))
            total = sum(sizes.values())
            mean_batch = (
                sum(s * c for s, c in sizes.items()) / total
                if total
                else float("nan")
            )
            snap = {
                "requests_submitted": self.requests_submitted,
                "replies_ok": self.replies_ok,
                "replies_error": dict(self.replies_error),
                "replies_error_total": int(sum(self.replies_error.values())),
                # Each outcome is counted once, in replies_error; these
                # keys are views of it. The reject-when-full queue never
                # times out: admission_timeouts stays for the readers of
                # the schema (benchmarks/e2e sums it into rejections).
                "admission_rejections": self.replies_error[ERROR_REJECTED],
                "admission_timeouts": 0,
                "deadline_expiries": (
                    self.replies_error[ERROR_DEADLINE_EXPIRED]
                ),
                "queue_depth": self.queue_depth,
                "batches": self.batches,
                "batch_size_histogram": {str(k): v for k, v in sizes.items()},
                "batch_size_mean": mean_batch,
                "fused_candidate_rows": self.fused_candidate_rows,
                # Every drain dispatches at once, so each batch counts
                # as a bypass and no linger window is ever sized. The
                # section stays for the readers of the schema
                # (benchmarks/e2e reads both keys).
                "batch_controller": {"bypasses": self.batches, "windows": 0},
                "retries": {str(k): v for k, v in sorted(self.retries.items())},
                "retries_total": int(sum(self.retries.values())),
                "internal_faults": {
                    str(k): v for k, v in sorted(self.internal_faults.items())
                },
                "internal_faults_total": int(sum(self.internal_faults.values())),
                "latency_p50_s": quantiles["p50"],
                "latency_p95_s": quantiles["p95"],
                "latency_p99_s": quantiles["p99"],
                "queue_wait_p50_s": waits["p50"],
                "queue_wait_p95_s": waits["p95"],
                "stages": self._stage_quantiles_locked(),
                "traces_recorded": self.traces_recorded,
            }
            if self.endpoint is not None:
                snap["metrics_endpoint"] = dict(self.endpoint)
            cache = self._kernel_cache
            if cache is not None:
                snap["kernel_cache"] = {
                    "hits": cache.hits,
                    "misses": cache.misses,
                    "hit_rate": cache.hit_rate,
                    "size": len(cache),
                    "capacity": cache.capacity,
                }
            return snap

    def to_json(self, indent: int = 2) -> str:
        payload = _nan_safe_deep(self.snapshot())
        return json.dumps(payload, indent=indent, sort_keys=True)


class MetricsServer:
    """Minimal HTTP JSON endpoint for service or fleet metrics.

    Serves from a daemon thread — enough for a scrape target or a curl
    during a load test, with zero dependencies:

    ``GET /metrics``
        Single-service mode: the flat :meth:`ServerMetrics.snapshot`
        JSON (unchanged). Fleet mode: the fleet snapshot —
        ``{"router": ..., "workers": {...}}``, the router's reconciling
        counters and each live worker's own — instead of one flat
        blob.
    ``GET /metrics?worker=<id>``
        Fleet mode: exactly one worker's snapshot (its flat service
        metrics plus pid and open sessions); 404 for an unknown or
        unreachable worker, and in single-service mode.
    ``GET /trace``
        Single-service mode: the recent trace ring plus the per-stage
        latency decomposition (``?limit=N`` caps the trace count); 404
        in fleet mode.
    ``GET /healthz``
        ``{"status": "ok"}``.

    Parameters
    ----------
    metrics:
        A :class:`ServerMetrics` to expose (single-service mode).
    fleet:
        A :class:`repro.fleet.ServeFleet` (or anything with
        ``fleet_snapshot()`` / ``worker_snapshot(id)``) to expose
        instead. Exactly one of ``metrics`` / ``fleet`` must be given.
    host / port:
        Bind address; ``port=0`` picks a free port (see :attr:`port`
        after :meth:`start`).
    """

    def __init__(self, metrics: Optional[ServerMetrics] = None,
                 host: str = "127.0.0.1", port: int = 0, fleet=None):
        if (metrics is None) == (fleet is None):
            raise ConfigurationError(
                "pass exactly one of metrics= (a ServerMetrics) or "
                "fleet= (a ServeFleet)"
            )
        self.metrics = metrics
        self.fleet = fleet
        self.host = host
        self._requested_port = int(port)
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> Optional[int]:
        """The bound port once started (``None`` before)."""
        if self._httpd is None:
            return None
        return int(self._httpd.server_address[1])

    def start(self) -> int:
        """Bind, spawn the serving thread, return the bound port."""
        metrics = self.metrics
        fleet = self.fleet

        def _dump(payload) -> bytes:
            return json.dumps(
                _nan_safe_deep(payload), indent=2, sort_keys=True
            ).encode()

        class _Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - http.server API
                parsed = urlparse(self.path)
                if parsed.path in ("/metrics", "/"):
                    query = parse_qs(parsed.query)
                    worker = query.get("worker")
                    if worker is not None:
                        if fleet is None:
                            self.send_error(
                                404, "no fleet behind this endpoint"
                            )
                            return
                        try:
                            worker_id = int(worker[0])
                        except ValueError:
                            self.send_error(
                                400, f"worker must be an id, got {worker[0]!r}"
                            )
                            return
                        snap = fleet.worker_snapshot(worker_id)
                        if snap is None:
                            self.send_error(
                                404, f"no reachable worker {worker_id}"
                            )
                            return
                        body = _dump(snap)
                    elif fleet is not None:
                        body = _dump(fleet.fleet_snapshot())
                    else:
                        body = metrics.to_json().encode()
                elif parsed.path == "/trace":
                    if metrics is None:
                        self.send_error(
                            404, "trace dump needs single-service mode"
                        )
                        return
                    query = parse_qs(parsed.query)
                    limit = None
                    if "limit" in query:
                        try:
                            limit = int(query["limit"][0])
                        except ValueError:
                            self.send_error(
                                400,
                                f"limit must be an int, "
                                f"got {query['limit'][0]!r}",
                            )
                            return
                    body = _dump({
                        "traces": metrics.recent_traces(limit),
                        "stages": metrics.stage_quantiles(),
                    })
                elif parsed.path == "/healthz":
                    body = b'{"status": "ok"}'
                else:
                    self.send_error(404)
                    return
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args) -> None:  # silence stderr chatter
                pass

        self._httpd = ThreadingHTTPServer(
            (self.host, self._requested_port), _Handler
        )
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-serve-metrics",
            daemon=True,
        )
        self._thread.start()
        if metrics is not None:
            # The bound address rides along in every snapshot, so a
            # scrape (or an operator reading --metrics-out) learns where
            # the live endpoint is even when port=0 picked it.
            metrics.set_endpoint(self.host, self.port)
        return self.port

    def stop(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "MetricsServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
