"""Request and reply types of the batched localization service.

Requests are immutable, slotted value objects: a logical client names itself
(``client_id`` — the admission layer's fairness unit), tags the request
(``request_id`` — the reply correlation key), and optionally attaches a
relative deadline. Replies are equally plain: one success type per
request type, plus :class:`ErrorReply`, the *typed error reply* every
failed request receives — rejected, expired, or crashed work is always
answered, never silently dropped.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Optional, Type

import numpy as np

from repro.errors import (
    AdmissionError,
    ConfigurationError,
    DeadlineExpired,
    ReproError,
    ServeError,
    WorkerCrashed,
)
from repro.fingerprint.results import LocalizationResult
from repro.traffic.measurement import FluxObservation
from repro.util.validation import check_integer, check_readings

#: Error-reply codes (``ErrorReply.code``) and the exception type each
#: maps back to via :meth:`ErrorReply.to_exception`.
ERROR_REJECTED = "admission_rejected"
ERROR_DEADLINE_EXPIRED = "deadline_expired"
ERROR_SHUTDOWN = "shutdown"
ERROR_UNKNOWN_SESSION = "unknown_session"
ERROR_INTERNAL = "internal"
ERROR_WORKER_CRASHED = "worker_crashed"

#: Most candidate rows (``user_count x restarts x candidate_count``) one
#: localize request may ask for. Each row is one float64 kernel over the
#: sniffers, held in memory for the whole batch: at 180 sniffers the cap
#: is 180 MiB. It admits the paper's Fig. 5 budget of 10,000 candidates
#: per user at up to 4 users and 3 restarts. :func:`require_session_rows`
#: caps a tracking session's ``user_count x prediction_count`` sample
#: rows at the same value.
MAX_CANDIDATE_ROWS = 1 << 17

#: ``dataclass(slots=True)`` needs Python 3.10; on 3.9 the classes
#: simply keep a ``__dict__`` — identical semantics, only the
#: per-instance memory/attribute-lookup win is lost.
_DC_SLOTS = {"slots": True} if sys.version_info >= (3, 10) else {}

_ERROR_TYPES = {
    ERROR_REJECTED: AdmissionError,
    ERROR_DEADLINE_EXPIRED: DeadlineExpired,
    ERROR_SHUTDOWN: AdmissionError,
    ERROR_UNKNOWN_SESSION: ServeError,
    ERROR_INTERNAL: ServeError,
    # Fleet-level: the owning worker process died and redelivery to its
    # replacement kept failing past the redelivery limit.
    ERROR_WORKER_CRASHED: WorkerCrashed,
}


def _require_identity(request_id: str, client_id: str) -> None:
    if not request_id:
        raise ConfigurationError("request_id must be non-empty")
    if not client_id:
        raise ConfigurationError("client_id must be non-empty")


def _require_deadline(deadline_s: Optional[float]) -> None:
    if deadline_s is not None and not deadline_s >= 0:
        raise ConfigurationError(
            f"deadline_s must be >= 0 seconds, got {deadline_s}"
        )


@dataclass(frozen=True, **_DC_SLOTS)
class LocalizeRequest:
    """One instant-localization job: K user positions from one window.

    Attributes
    ----------
    request_id / client_id:
        Reply correlation key and fairness unit (see module docstring).
    observation:
        The flux window to fit, over the service's sniffer set. NaN
        marks a dropped reading; a ±inf reading, a window with no
        finite reading, or readings whose sum of squares overflows is
        refused (:func:`repro.util.validation.check_readings`).
    user_count .. seed_top_k:
        The :meth:`repro.fingerprint.NLSLocalizer.localize` search
        budget knobs, each an integer ``>= 1`` (``bool`` is refused).
        ``user_count x restarts x candidate_count`` may not exceed
        :data:`MAX_CANDIDATE_ROWS`.
    seed:
        Integer seed ``>= 0`` of the request's private RNG streams.
        Identical requests (same seed, same observation, same knobs)
        produce bitwise-identical replies whether they were solved alone
        or inside a micro-batch — the scheduler's fused paths are all
        row-local.
    use_map:
        Seed candidate pools from the service's fingerprint map when it
        has one (ignored otherwise).
    deadline_s:
        Relative deadline in seconds from submission. Work still queued
        when it lapses is answered with a ``deadline_expired``
        :class:`ErrorReply`.
    span_id:
        Optional tracing span stamped by whoever fronted this request
        (the network gateway); threaded through the scheduler into the
        per-stage latency decomposition and the trace ring. ``None``
        falls back to ``request_id`` as the span key.
    """

    request_id: str
    client_id: str
    observation: FluxObservation
    user_count: int = 1
    candidate_count: int = 512
    top_m: int = 10
    restarts: int = 1
    sweeps: int = 4
    seed: int = 0
    seed_top_k: int = 32
    use_map: bool = True
    deadline_s: Optional[float] = None
    span_id: Optional[str] = None

    def __post_init__(self) -> None:
        _require_identity(self.request_id, self.client_id)
        _require_deadline(self.deadline_s)
        for name, floor in (
            ("user_count", 1), ("candidate_count", 1), ("top_m", 1),
            ("restarts", 1), ("sweeps", 1), ("seed_top_k", 1), ("seed", 0),
        ):
            # A coerced "3" or 24.5 would fail its whole fused batch in
            # the solve.
            check_integer(name, getattr(self, name), floor)
        rows = int(self.user_count) * int(self.restarts) * int(
            self.candidate_count
        )
        if rows > MAX_CANDIDATE_ROWS:
            raise ConfigurationError(
                f"user_count x restarts x candidate_count = {rows} candidate "
                f"rows exceeds MAX_CANDIDATE_ROWS = {MAX_CANDIDATE_ROWS}"
            )
        if not isinstance(self.observation, FluxObservation):
            raise ConfigurationError(
                f"observation must be a FluxObservation, "
                f"got {type(self.observation).__name__}"
            )
        # A reading the fit cannot score would fail the request's
        # whole fused batch.
        check_readings(self.observation.values)


def require_sniffer_count(request, sniffer_count: int) -> None:
    """Refuse a localize whose readings are not one per sniffer.

    A reading count other than ``sniffer_count``, or readings that are
    not a flat vector, cannot be fitted (the kernels span the
    deployment's sniffers), and in a map-seeded batch they would also
    break the fused prematch for every batch mate. Raises
    :class:`~repro.errors.ConfigurationError`, which the gateway
    answers ``bad_request``.
    """
    if isinstance(request, LocalizeRequest):
        shape = np.shape(request.observation.values)
        if shape != (sniffer_count,):
            raise ConfigurationError(
                f"observation readings have shape {shape}, but the "
                f"deployment has {sniffer_count} sniffers"
            )


def require_session_rows(user_count: int, prediction_count: int) -> None:
    """Refuse a tracking session of more than :data:`MAX_CANDIDATE_ROWS`
    sample rows (``user_count x prediction_count``).

    The tracker builds each user's prior in Python, and a gateway opens
    sessions on its event-loop thread. Raises
    :class:`~repro.errors.ConfigurationError`; both
    ``LocalizationService.open_session`` and ``ServeFleet.open_session``
    call this before building anything.
    """
    rows = int(user_count) * int(prediction_count)
    if rows > MAX_CANDIDATE_ROWS:
        raise ConfigurationError(
            f"user_count x prediction_count = {rows} sample rows "
            f"exceeds MAX_CANDIDATE_ROWS = {MAX_CANDIDATE_ROWS}"
        )


@dataclass(frozen=True, **_DC_SLOTS)
class TrackStepRequest:
    """One tracking-session step: feed a window to a service session.

    Within one ``session_id`` the scheduler preserves submission order
    (FIFO), so a client streaming windows through the service sees the
    same tracker trajectory as a local
    :class:`repro.stream.TrackingSession` loop.
    """

    request_id: str
    client_id: str
    session_id: str
    observation: FluxObservation
    deadline_s: Optional[float] = None
    span_id: Optional[str] = None

    def __post_init__(self) -> None:
        _require_identity(self.request_id, self.client_id)
        _require_deadline(self.deadline_s)
        if not self.session_id:
            raise ConfigurationError("session_id must be non-empty")


@dataclass(frozen=True, **_DC_SLOTS)
class LocalizeReply:
    """Successful localization: the top-``top_m`` fitted compositions."""

    request_id: str
    client_id: str
    result: LocalizationResult
    latency_s: float
    batch_size: int

    @property
    def ok(self) -> bool:
        return True

    def estimates(self) -> np.ndarray:
        """Best composition's ``(K, 2)`` position estimates."""
        return self.result.position_estimates()


@dataclass(frozen=True, **_DC_SLOTS)
class TrackStepReply:
    """Tracking-step outcome: the step, or the session's skip reason.

    A *skipped* window (out-of-order, arity mismatch, …) is a normal
    service-level success — the session counted it and kept its state —
    so it arrives as a reply with ``step=None`` and the skip reason,
    not as an :class:`ErrorReply`.
    """

    request_id: str
    client_id: str
    session_id: str
    step: Optional[object]  # repro.smc.tracker.TrackerStep
    skip_reason: Optional[str]
    estimates: np.ndarray
    latency_s: float
    batch_size: int

    @property
    def ok(self) -> bool:
        return True


@dataclass(frozen=True, **_DC_SLOTS)
class ErrorReply:
    """Typed error reply: every failed request gets exactly one.

    ``code`` is one of the module-level ``ERROR_*`` constants; it maps
    to a :class:`~repro.errors.ReproError` subclass via
    :meth:`to_exception` for callers that prefer raising.
    """

    request_id: str
    client_id: str
    code: str
    message: str = ""
    latency_s: float = field(default=float("nan"))

    def __post_init__(self) -> None:
        if self.code not in _ERROR_TYPES:
            raise ConfigurationError(
                f"unknown error code {self.code!r}; "
                f"expected one of {sorted(_ERROR_TYPES)}"
            )

    @property
    def ok(self) -> bool:
        return False

    @property
    def exception_type(self) -> Type[ReproError]:
        return _ERROR_TYPES[self.code]

    def to_exception(self) -> ReproError:
        detail = f": {self.message}" if self.message else ""
        return self.exception_type(
            f"request {self.request_id!r} ({self.code}){detail}"
        )
