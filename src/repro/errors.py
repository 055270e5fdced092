"""Exception hierarchy for the :mod:`repro` library.

All library-raised exceptions derive from :class:`ReproError` so that
callers can catch any library failure with a single ``except`` clause
while still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """A component was constructed or invoked with invalid parameters."""


class GeometryError(ReproError):
    """A geometric query was made with inconsistent inputs.

    Examples: ray-casting from a point outside the field boundary, or
    building a polygon field with fewer than three vertices.
    """


class DeploymentError(ReproError):
    """Node deployment could not satisfy the requested constraints."""


class ConnectivityError(ReproError):
    """An operation required a connected network but the graph was not.

    Raised e.g. when building a data-collection tree over a network with
    unreachable nodes and ``require_connected=True``.
    """


class FittingError(ReproError):
    """The NLS fitting process failed to produce a usable estimate."""


class TrackingError(ReproError):
    """The Sequential Monte Carlo tracker entered an unrecoverable state."""


class TraceError(ReproError):
    """A mobility trace could not be generated or parsed."""


class StreamError(ReproError):
    """The streaming tracking service hit an unrecoverable condition.

    Per-observation problems (malformed readings, out-of-order windows)
    are *not* stream errors — the stream layer skips and counts those.
    This is raised for structural failures: an unusable source or a
    checkpoint that does not match its session.
    """


class EngineError(ReproError):
    """An execution failure of the serving machinery, not of the math.

    *Numerical* problems are not engine errors — kernels raise
    :class:`FittingError`/``FloatingPointError`` style failures that
    retries can absorb. Kernels and solves are plain functions on the
    calling thread, so the one subclass is a fleet worker process that
    died (:class:`WorkerCrashed`).
    """


class WorkerCrashed(EngineError):
    """A fleet worker process died before answering a request.

    Raised by :meth:`repro.serve.ErrorReply.to_exception` for the
    ``worker_crashed`` replies :class:`repro.fleet.ServeFleet` gives a
    request that outlived its redelivery limit of worker deaths.
    """


class RetriesExhausted(ReproError):
    """A bounded :class:`~repro.faults.RetryPolicy` gave up.

    Raised by :func:`repro.faults.call_with_retry` after the final
    attempt failed; the last underlying exception is chained as
    ``__cause__``.
    """


class FaultInjected(ReproError):
    """An armed :class:`~repro.faults.FaultPlan` fired at a fault point.

    Only ever raised while a plan is armed — production runs with
    fault injection disarmed can never see this type. Chaos harnesses
    use it to tell injected failures from real bugs.
    """


class ServeError(ReproError):
    """Base class for failures of the batched localization service.

    Service replies carry these as *typed error replies* (an
    :class:`repro.serve.ErrorReply` names the concrete subclass via its
    ``code``); they are raised only when a caller explicitly converts a
    reply back into an exception.
    """


class AdmissionError(ServeError):
    """A request was refused by admission control (full queue or
    per-client quota) — under the ``reject`` policy immediately, under
    the ``block`` policy after the block timeout elapsed."""


class DeadlineExpired(ServeError):
    """A request's deadline passed before the scheduler reached it.

    Expired work is never silently dropped: the scheduler purges it
    from the queue and completes it with this typed error."""


class GatewayError(ServeError):
    """Base class for failures of the network gateway front-end."""


class ProtocolError(GatewayError):
    """A wire frame violated the gateway protocol — unparseable JSON,
    a missing or unknown frame type, or an oversized frame. The peer
    receives a typed ``error`` frame; well-formed traffic on the same
    connection continues."""
