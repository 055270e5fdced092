"""Admission control: the bounded, client-fair front door of the service.

The queue holds :class:`PendingRequest` envelopes (request + reply
future + deadline) in *per-client* FIFO lanes and hands them to the
scheduler in round-robin client order, so a flooding client cannot
starve the others — it can only fill its own lane. A full queue
refuses the request at once: :meth:`~AdmissionQueue.offer` returns
``REJECTED`` and the caller answers it with a typed
``admission_rejected`` error reply. Latency stays predictable, memory
stays bounded, and the client decides whether to retry.

Deadlines are enforced at drain time: :meth:`take` purges lapsed
entries into its ``expired`` result instead of handing them to the
scheduler, and the service completes them with ``deadline_expired``
error replies — stale work never reaches the solver and is never
silently dropped. The scheduler re-checks expiry again at dispatch
time, so a request whose deadline lapses *between* drain and solve is
also answered ``deadline_expired`` rather than solved late. Deadlines
never reorder the drain; the fair rotation alone decides what runs
next (a reply is fixed by its request's seed and window, so drain
order only moves time).

Deadline arithmetic (wrap/expired/latency and the drain-time purge)
reads the injectable faults clock (:mod:`repro.faults.clock`), which
makes the drain/dispatch race testable with a :class:`~repro.faults.
FakeClock`; the condition-variable waits below deliberately stay on
real ``time.monotonic`` so a fake clock can never hang a thread.

:meth:`take` waits only while the queue is empty; then it drains what
is queued at once, up to its ``max_items``. The wait is a
condition-variable wait: a non-positive ``wait_timeout`` is clamped to
a small floor instead of degenerating into a hot poll of the scheduler
loop.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.faults import clock as _clock

#: ``offer`` outcomes.
ADMITTED = "admitted"
REJECTED = "rejected"
CLOSED = "closed"

#: Floor of the empty-queue condition-variable wait. A ``wait_timeout``
#: of zero used to make :meth:`take` return immediately on an empty
#: queue, turning the scheduler loop into a 100%-CPU poll; clamping to
#: this floor keeps the wait a real cv sleep while staying far below
#: any reply-latency budget.
MIN_IDLE_WAIT_S = 0.001

#: Default empty-queue wait of :meth:`AdmissionQueue.take`; the
#: scheduler's loop uses it, so it is also the stop-signal latency.
IDLE_WAIT_S = 0.05

#: ``dataclass(slots=True)`` needs Python 3.10; on 3.9 the envelope
#: keeps a ``__dict__`` — identical semantics, only the memory win of
#: slotting is lost.
_DC_SLOTS = {"slots": True} if sys.version_info >= (3, 10) else {}


@dataclass(**_DC_SLOTS)
class PendingRequest:
    """Queue envelope: one request awaiting its reply.

    ``expires_at`` is an absolute ``time.monotonic()`` instant derived
    from the request's relative ``deadline_s`` at submission (``None``
    = no deadline). Slotted (no per-instance ``__dict__``) where the
    interpreter supports it.
    """

    request: object
    future: Future
    submitted_at: float
    expires_at: Optional[float] = None
    #: Per-stage trace stamps ``[(stage, monotonic_t), ...]`` appended
    #: by the scheduler as the request crosses admission → fuse →
    #: solve → reply. ``None`` until the first stamp.
    stages: Optional[list] = field(default=None)

    @classmethod
    def wrap(cls, request, now: Optional[float] = None) -> "PendingRequest":
        now = _clock.monotonic() if now is None else now
        deadline_s = getattr(request, "deadline_s", None)
        expires_at = None if deadline_s is None else now + float(deadline_s)
        return cls(
            request=request, future=Future(), submitted_at=now,
            expires_at=expires_at,
        )

    def stamp(self, stage: str, now: Optional[float] = None) -> None:
        """Mark the *end* of ``stage`` at ``now`` (monotonic seconds)."""
        if self.stages is None:
            self.stages = []
        self.stages.append(
            (stage, _clock.monotonic() if now is None else now)
        )

    def stage_durations(
        self, now: Optional[float] = None
    ) -> List[Tuple[str, float]]:
        """``[(stage, seconds), ...]`` from the stamps, in stamp order.

        Each stage's duration runs from the previous stamp (or
        ``submitted_at`` for the first) to its own stamp; a final
        ``reply`` stage is synthesized at ``now`` when the last stamp
        is not already a reply, so the durations always sum to the
        request's total latency.
        """
        now = _clock.monotonic() if now is None else now
        out: List[Tuple[str, float]] = []
        previous = self.submitted_at
        stamps = self.stages or []
        for stage, at in stamps:
            out.append((stage, at - previous))
            previous = at
        if not stamps or stamps[-1][0] != "reply":
            out.append(("reply", now - previous))
        return out

    def expired(self, now: Optional[float] = None) -> bool:
        if self.expires_at is None:
            return False
        return (_clock.monotonic() if now is None else now) >= self.expires_at

    def latency(self, now: Optional[float] = None) -> float:
        return (_clock.monotonic() if now is None else now) - self.submitted_at


class AdmissionQueue:
    """Bounded multi-client FIFO with round-robin fair draining.

    Parameters
    ----------
    capacity:
        Maximum queued requests across all clients; an :meth:`offer`
        past it is refused (see module docstring).
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._lanes: "OrderedDict[str, Deque[PendingRequest]]" = OrderedDict()
        self._turns: Deque[str] = deque()  # round-robin client order
        self._depth = 0
        self._closed = False
        self._cond = threading.Condition()

    # ------------------------------------------------------------------
    def depth(self) -> int:
        with self._cond:
            return self._depth

    def depth_hint(self) -> int:
        """Lock-free read of the depth gauge.

        One int read under the GIL — the scheduler samples this for
        metrics after a drain instead of paying another lock hop; it
        may be momentarily stale, which is fine for a gauge.
        """
        return self._depth

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    # ------------------------------------------------------------------
    def offer(self, item: PendingRequest) -> str:
        """Try to admit one envelope; returns an ``offer`` outcome.

        ``REJECTED`` (queue full) and ``CLOSED`` mean the item was *not*
        enqueued; the caller owns completing its future with the
        matching typed error reply.
        """
        client_id = item.request.client_id
        with self._cond:
            if self._closed:
                return CLOSED
            if self._depth >= self.capacity:
                return REJECTED
            lane = self._lanes.get(client_id)
            if lane is None:
                lane = self._lanes[client_id] = deque()
                self._turns.append(client_id)
            lane.append(item)
            self._depth += 1
            self._cond.notify_all()
            return ADMITTED

    # ------------------------------------------------------------------
    def take(
        self,
        max_items: int,
        wait_timeout: Optional[float] = IDLE_WAIT_S,
    ) -> Tuple[List[PendingRequest], List[PendingRequest]]:
        """Drain up to ``max_items`` in fair order; purge expired work.

        Micro-batching trigger: block until the queue is non-empty (at
        most ``wait_timeout`` seconds — ``None`` waits indefinitely,
        non-positive values clamp to :data:`MIN_IDLE_WAIT_S` so the
        caller's loop can never hot-poll), then drain what is queued at
        once, up to ``max_items``. Returns ``(batch, expired)``; expired
        envelopes (deadline lapsed while queued) are removed from the
        queue but *not* part of the batch.

        Fairness: one item per client per turn, clients visited
        round-robin, a client's lane staying FIFO. A drained-empty lane
        leaves the rotation until that client submits again.
        """
        if max_items < 1:
            raise ConfigurationError(
                f"max_items must be >= 1, got {max_items}"
            )
        if wait_timeout is not None and wait_timeout <= 0:
            wait_timeout = MIN_IDLE_WAIT_S
        with self._cond:
            if not self._wait_nonempty(wait_timeout):
                return [], []
            return self._drain_locked(max_items)

    def _wait_nonempty(self, timeout: Optional[float]) -> bool:
        deadline = None if timeout is None else time.monotonic() + timeout
        while self._depth == 0:
            if self._closed:
                return False
            remaining = (
                None if deadline is None else deadline - time.monotonic()
            )
            if remaining is not None and remaining <= 0:
                return False
            self._cond.wait(remaining)
        return True

    def _drain_locked(
        self, max_items: int
    ) -> Tuple[List[PendingRequest], List[PendingRequest]]:
        now = _clock.monotonic()
        batch: List[PendingRequest] = []
        expired: List[PendingRequest] = []
        idle_turns = 0
        while self._depth > 0 and len(batch) < max_items:
            if not self._turns or idle_turns >= len(self._turns):
                break  # defensive: no lane can supply another item
            client_id = self._turns.popleft()
            lane = self._lanes.get(client_id)
            if not lane:
                self._lanes.pop(client_id, None)
                idle_turns += 1
                continue
            idle_turns = 0
            item = lane.popleft()
            self._depth -= 1
            if item.expired(now):
                expired.append(item)
            else:
                batch.append(item)
            if lane:
                self._turns.append(client_id)
            else:
                self._lanes.pop(client_id, None)
        return batch, expired

    # ------------------------------------------------------------------
    def drain_all(self) -> List[PendingRequest]:
        """Remove and return everything still queued (shutdown path)."""
        with self._cond:
            items: List[PendingRequest] = []
            while self._depth > 0:
                taken, expired = self._drain_locked(self._depth)
                items.extend(expired)
                items.extend(taken)
            return items

    def close(self) -> None:
        """Refuse new offers and wake the waiting :meth:`take`."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
