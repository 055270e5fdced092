"""Request/reply localization-and-tracking service (micro-batched).

Many logical clients submit :class:`LocalizeRequest` /
:class:`TrackStepRequest` work to one :class:`LocalizationService`,
which shares the deployment's flux model and fingerprint map across
all of them. Admission is bounded and client-fair
(:class:`AdmissionQueue`), evaluation is micro-batched with fused
kernel calls (:class:`MicroBatchScheduler`), operations are
observable (:class:`ServerMetrics`, :class:`MetricsServer`), and
shutdown drains then checkpoints every tracking session.
"""

from repro.serve.admission import (
    ADMITTED,
    CLOSED,
    REJECTED,
    AdmissionQueue,
    PendingRequest,
)
from repro.serve.metrics import MetricsServer, ServerMetrics
from repro.serve.requests import (
    ERROR_DEADLINE_EXPIRED,
    ERROR_INTERNAL,
    ERROR_REJECTED,
    ERROR_SHUTDOWN,
    ERROR_UNKNOWN_SESSION,
    ERROR_WORKER_CRASHED,
    MAX_CANDIDATE_ROWS,
    ErrorReply,
    LocalizeReply,
    LocalizeRequest,
    TrackStepReply,
    TrackStepRequest,
)
from repro.serve.scheduler import MicroBatchScheduler
from repro.serve.service import LocalizationService

__all__ = [
    "ADMITTED",
    "CLOSED",
    "REJECTED",
    "AdmissionQueue",
    "PendingRequest",
    "MetricsServer",
    "ServerMetrics",
    "ERROR_DEADLINE_EXPIRED",
    "ERROR_INTERNAL",
    "ERROR_REJECTED",
    "ERROR_SHUTDOWN",
    "ERROR_UNKNOWN_SESSION",
    "ERROR_WORKER_CRASHED",
    "MAX_CANDIDATE_ROWS",
    "ErrorReply",
    "LocalizeReply",
    "LocalizeRequest",
    "TrackStepReply",
    "TrackStepRequest",
    "MicroBatchScheduler",
    "LocalizationService",
]
