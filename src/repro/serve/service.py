"""The localization service: one deployment, many logical clients.

:class:`LocalizationService` ties the serve layer together around
*shared* heavyweight state — one :class:`~repro.fingerprint.nls.
NLSLocalizer` (flux model), one optional fingerprint map (built or
loaded once per deployment and shared by every request and session) —
behind one bounded, client-fair admission queue that rejects when full,
and one micro-batching scheduler thread. Clients call :meth:`submit`
with a :class:`~repro.serve.requests.LocalizeRequest` or
:class:`~repro.serve.requests.TrackStepRequest` and get a
``concurrent.futures.Future`` that always resolves to exactly one
reply: success, or a typed :class:`~repro.serve.requests.ErrorReply`
(rejected, expired, shutdown, crashed) — never an unresolved future,
never a silent drop.

Shutdown is *drain-and-checkpoint*: :meth:`stop` closes admission
(late offers answer ``shutdown``), lets the scheduler drain what was
already admitted, then snapshots every tracking session with the
streaming layer's checkpoint format so a restarted service can
:meth:`resume_session` exactly where each trajectory left off.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.faults.retry import DEFAULT_RETRY_POLICY
from repro.fingerprint.nls import NLSLocalizer
from repro.serve.admission import (
    ADMITTED,
    CLOSED,
    REJECTED,
    AdmissionQueue,
    PendingRequest,
)
from repro.serve.metrics import ServerMetrics
from repro.serve.requests import (
    ERROR_REJECTED,
    ERROR_SHUTDOWN,
    ErrorReply,
    LocalizeRequest,
    TrackStepRequest,
    require_session_rows,
    require_sniffer_count,
)
from repro.serve.scheduler import MicroBatchScheduler
from repro.smc.tracker import SequentialMonteCarloTracker, TrackerConfig
from repro.stream.checkpoint import (
    checkpoint_path,
    load_checkpoint,
    save_checkpoint,
)
from repro.stream.session import TrackingSession

_OUTCOME_CODES = {
    REJECTED: ERROR_REJECTED,
    CLOSED: ERROR_SHUTDOWN,
}


class LocalizationService:
    """Batched request/reply localization and tracking for one deployment.

    Parameters
    ----------
    field / sniffer_positions / d_floor:
        The deployment the service answers for.
    fingerprint_map:
        Optional prebuilt map, used as given (validated once against
        the deployment).
    map_resolution:
        Without a prebuilt map, setting ``map_resolution`` builds the
        deployment's map here.
    max_batch:
        Most requests one scheduler drain takes; each drain takes what
        is queued, up to this (``max_batch=1`` is per-request dispatch,
        the parity oracle).
    queue_capacity:
        Admission bound: a request arriving at a full queue is answered
        ``admission_rejected`` (see :class:`~repro.serve.admission.
        AdmissionQueue`).
    metrics:
        Optional externally owned :class:`ServerMetrics`.
    retry_policy:
        :class:`~repro.faults.RetryPolicy` for the scheduler's fused
        kernel pass and the drain checkpoint writes. The default is
        :data:`~repro.faults.retry.DEFAULT_RETRY_POLICY` (3 attempts);
        pass ``None`` to disable retries. A fused pass that still fails
        answers each of its requests with one ``internal`` error reply.
    """

    def __init__(
        self,
        field,
        sniffer_positions: np.ndarray,
        d_floor: float = 1.0,
        fingerprint_map=None,
        map_resolution: Optional[float] = None,
        max_batch: int = 32,
        queue_capacity: int = 512,
        metrics: Optional[ServerMetrics] = None,
        retry_policy=DEFAULT_RETRY_POLICY,
    ):
        self.retry_policy = retry_policy
        self.localizer = NLSLocalizer(field, sniffer_positions, d_floor=d_floor)
        if fingerprint_map is None and map_resolution is not None:
            from repro.fpmap import build_fingerprint_map

            fingerprint_map = build_fingerprint_map(
                field, self.localizer.model.node_positions,
                resolution=map_resolution, d_floor=d_floor,
            )
        if fingerprint_map is not None:
            # Refuse a wrong-deployment map once, up front — requests
            # then trust it unconditionally.
            fingerprint_map.validate_against(
                field, self.localizer.model.node_positions, d_floor
            )
        self.fingerprint_map = fingerprint_map
        self.metrics = metrics if metrics is not None else ServerMetrics()
        self.queue = AdmissionQueue(capacity=queue_capacity)
        self.scheduler = MicroBatchScheduler(
            localizer=self.localizer,
            queue=self.queue,
            metrics=self.metrics,
            fingerprint_map=fingerprint_map,
            session_lookup=self._session_for,
            max_batch=max_batch,
            retry_policy=retry_policy,
        )
        self.metrics.attach_probes(
            kernel_cache=(
                fingerprint_map.cache if fingerprint_map is not None else None
            ),
        )
        self._sessions: Dict[str, TrackingSession] = {}
        self._sessions_lock = threading.Lock()
        self._started = False
        self._stopped = False

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def start(self) -> "LocalizationService":
        if self._started:
            raise ConfigurationError("service already started")
        self._started = True
        self.scheduler.start()
        return self

    def stop(
        self,
        drain: bool = True,
        checkpoint_dir: Optional[str] = None,
    ) -> Dict[str, object]:
        """Shut down: close admission, drain (or flush), checkpoint.

        Parameters
        ----------
        drain:
            ``True`` answers everything already admitted before the
            scheduler exits; ``False`` flushes the queue with
            ``shutdown`` error replies instead.
        checkpoint_dir:
            When set, every tracking session is saved there, at its
            :func:`~repro.stream.checkpoint.checkpoint_path`, after the
            scheduler stops — the drain-and-checkpoint contract.

        Returns a summary dict: ``flushed`` (envelopes answered with
        shutdown errors) and ``checkpoints`` (paths written, by
        session id).
        """
        if self._stopped:
            return {"flushed": 0, "checkpoints": {}}
        self._stopped = True
        self.queue.close()
        flushed = 0
        if not drain:
            for item in self.queue.drain_all():
                self._complete_shutdown(item)
                flushed += 1
        if self._started:
            self.scheduler.stop()
        # Anything that raced admission after close() was answered by
        # submit(); anything still queued (scheduler died) flushes here.
        for item in self.queue.drain_all():
            self._complete_shutdown(item)
            flushed += 1
        checkpoints: Dict[str, str] = {}
        if checkpoint_dir is not None:
            Path(checkpoint_dir).mkdir(parents=True, exist_ok=True)
            with self._sessions_lock:
                sessions = dict(self._sessions)
            for session_id, session in sessions.items():
                path = checkpoint_path(checkpoint_dir, session_id)
                checkpoints[session_id] = str(
                    save_checkpoint(session, path,
                                    retry_policy=self.retry_policy)
                )
        return {"flushed": flushed, "checkpoints": checkpoints}

    def __enter__(self) -> "LocalizationService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Sessions.
    # ------------------------------------------------------------------
    def open_session(
        self,
        session_id: str,
        user_count: int,
        config=None,
        rng=None,
        truth=None,
    ) -> TrackingSession:
        """Create and register a tracking session on this deployment.

        The tracker shares the service's fingerprint map; its steps run
        on the scheduler thread. A session over the row budget of
        :func:`~repro.serve.requests.require_session_rows` raises
        :class:`~repro.errors.ConfigurationError`.
        """
        if config is None:
            config = TrackerConfig()
        require_session_rows(user_count, config.prediction_count)
        tracker = SequentialMonteCarloTracker(
            self.localizer.field,
            self.localizer.model.node_positions,
            user_count,
            config=config,
            rng=rng,
            fingerprint_map=self.fingerprint_map,
        )
        session = TrackingSession(session_id, tracker, truth=truth)
        return self.attach_session(session)

    def attach_session(self, session: TrackingSession) -> TrackingSession:
        with self._sessions_lock:
            if session.session_id in self._sessions:
                raise ConfigurationError(
                    f"session {session.session_id!r} already registered"
                )
            self._sessions[session.session_id] = session
        return session

    def resume_session(self, path: str, truth=None) -> TrackingSession:
        """Attach a session restored from a drain checkpoint."""
        session = load_checkpoint(
            path, truth=truth, fingerprint_map=self.fingerprint_map
        )
        return self.attach_session(session)

    def close_session(self, session_id: str) -> TrackingSession:
        with self._sessions_lock:
            if session_id not in self._sessions:
                raise ConfigurationError(f"unknown session {session_id!r}")
            return self._sessions.pop(session_id)

    @property
    def session_ids(self) -> List[str]:
        with self._sessions_lock:
            return list(self._sessions)

    def _session_for(self, session_id: str) -> Optional[TrackingSession]:
        with self._sessions_lock:
            return self._sessions.get(session_id)

    # ------------------------------------------------------------------
    # Request path.
    # ------------------------------------------------------------------
    def submit(self, request):
        """Admit one request; returns a Future resolving to its reply.

        The future *always* resolves — admission refusals resolve it
        immediately with the matching typed error reply. A localize
        whose reading count is not the deployment's sniffer count
        raises :class:`~repro.errors.ConfigurationError` instead.
        """
        if not isinstance(request, (LocalizeRequest, TrackStepRequest)):
            raise ConfigurationError(
                f"request must be a LocalizeRequest or TrackStepRequest, "
                f"got {type(request).__name__}"
            )
        require_sniffer_count(request, len(self.localizer.model.node_positions))
        item = PendingRequest.wrap(request)
        future = item.future
        self.metrics.record_submit()
        outcome = self.queue.offer(item)
        if outcome == ADMITTED:
            return future
        code = _OUTCOME_CODES[outcome]
        latency = item.latency()
        self.metrics.record_error(code, latency)
        future.set_result(
            ErrorReply(
                request_id=request.request_id,
                client_id=request.client_id,
                code=code,
                message=f"admission {outcome}",
                latency_s=latency,
            )
        )
        return future

    def call(self, request, timeout: Optional[float] = None):
        """Blocking convenience: submit, wait, raise on error replies."""
        reply = self.submit(request).result(timeout=timeout)
        if not reply.ok:
            raise reply.to_exception()
        return reply

    def _complete_shutdown(self, item: PendingRequest) -> None:
        latency = item.latency()
        # Count before resolving: done-callbacks run inside set_result.
        self.metrics.record_error(ERROR_SHUTDOWN, latency)
        item.future.set_result(
            ErrorReply(
                request_id=item.request.request_id,
                client_id=item.request.client_id,
                code=ERROR_SHUTDOWN,
                message="service stopped before evaluation",
                latency_s=latency,
            )
        )
