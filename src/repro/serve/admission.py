"""Admission control: the bounded, client-fair front door of the service.

The queue holds :class:`PendingRequest` envelopes (request + reply
future + deadline) in *per-client* FIFO lanes and hands them to the
scheduler in round-robin client order, so a flooding client cannot
starve the others — it can only fill its own lane. Overload behavior is
a policy choice made at construction:

``reject``
    A full queue (or a full per-client lane) refuses the request
    immediately; the caller answers it with a typed
    ``admission_rejected`` error reply. Predictable latency, bounded
    memory, the client decides whether to retry.
``block``
    ``offer`` waits (bounded by ``block_timeout_s``) for the scheduler
    to make room. Nothing is refused while the service keeps up; a
    timeout becomes a typed ``admission_timeout`` error reply.

Deadlines are enforced at drain time: :meth:`take` purges lapsed
entries into its ``expired`` result instead of handing them to the
scheduler, and the service completes them with ``deadline_expired``
error replies — stale work never reaches the solver and is never
silently dropped. The scheduler re-checks expiry again at dispatch
time, so a request whose deadline lapses *between* drain and solve is
also answered ``deadline_expired`` rather than solved late. When any
queued request carries a deadline, draining is additionally
*SLO-aware*: lane heads whose remaining slack is inside
``urgent_slack_s`` are pulled earliest-deadline-first ahead of the
round-robin rotation (lane order stays FIFO, so per-session step
order is preserved).

Deadline arithmetic (wrap/expired/latency and the drain-time purge)
reads the injectable faults clock (:mod:`repro.faults.clock`), which
makes the drain/dispatch race testable with a :class:`~repro.faults.
FakeClock`; the condition-variable waits below deliberately stay on
real ``time.monotonic`` so a fake clock can never hang a thread.

The micro-batch linger inside :meth:`take` belongs to the
:class:`~repro.serve.scheduler.AdaptiveBatchController` that the
scheduler attaches to the queue: the controller sizes the window from
its arrival-rate EWMA and the instantaneous queue depth (see its
docstring for the policy). A bare queue, with no controller attached,
drains at once. Every wait is a condition-variable wait: a
non-positive ``wait_timeout`` is clamped to a small floor instead of
degenerating into a hot poll of the scheduler loop.
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
TIMED_OUT = "timed_out"
CLOSED = "closed"

_POLICIES = ("reject", "block")

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
    batch_size: int = field(default=0)
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
        Maximum queued requests across all clients.
    policy:
        ``"reject"`` or ``"block"`` (see module docstring).
    block_timeout_s:
        Block-policy only: longest an :meth:`offer` may wait for room.
        ``None`` waits indefinitely (only sensible in tests).
    per_client_limit:
        Optional cap on one client's queued requests. A client at its
        cap is refused (both policies) while other clients are still
        admitted — the fairness backstop against a single flooder.
    urgent_slack_s:
        Deadline slack below which a queued request is *urgent*: the
        drain pulls urgent lane heads earliest-deadline-first before
        the fair rotation runs (SLO-aware ordering). Only consulted
        while deadline-carrying requests are queued.
    """

    def __init__(
        self,
        capacity: int = 256,
        policy: str = "reject",
        block_timeout_s: Optional[float] = 5.0,
        per_client_limit: Optional[int] = None,
        urgent_slack_s: float = 0.01,
    ):
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        if policy not in _POLICIES:
            raise ConfigurationError(
                f"policy must be one of {_POLICIES}, got {policy!r}"
            )
        if block_timeout_s is not None and block_timeout_s <= 0:
            raise ConfigurationError(
                f"block_timeout_s must be positive, got {block_timeout_s}"
            )
        if per_client_limit is not None and per_client_limit < 1:
            raise ConfigurationError(
                f"per_client_limit must be >= 1, got {per_client_limit}"
            )
        if urgent_slack_s < 0:
            raise ConfigurationError(
                f"urgent_slack_s must be >= 0, got {urgent_slack_s}"
            )
        self.capacity = int(capacity)
        self.policy = policy
        self.block_timeout_s = block_timeout_s
        self.per_client_limit = per_client_limit
        self.urgent_slack_s = float(urgent_slack_s)
        #: Optional AdaptiveBatchController that observes arrivals and
        #: drains and sizes the linger; set by the scheduler that owns
        #: this queue (duck-typed, no import).
        self.controller = None
        self._lanes: "OrderedDict[str, Deque[PendingRequest]]" = OrderedDict()
        self._turns: Deque[str] = deque()  # round-robin client order
        self._depth = 0
        self._deadline_count = 0  # queued items carrying a deadline
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

    def client_depth(self, client_id: str) -> int:
        with self._cond:
            lane = self._lanes.get(client_id)
            return 0 if lane is None else len(lane)

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    # ------------------------------------------------------------------
    def offer(self, item: PendingRequest) -> str:
        """Try to admit one envelope; returns an ``offer`` outcome.

        ``REJECTED``/``TIMED_OUT``/``CLOSED`` mean the item was *not*
        enqueued; the caller owns completing its future with the
        matching typed error reply.
        """
        client_id = item.request.client_id
        with self._cond:
            if self._closed:
                return CLOSED
            if (
                self.per_client_limit is not None
                and len(self._lanes.get(client_id, ())) >= self.per_client_limit
            ):
                return REJECTED
            if self._depth >= self.capacity:
                if self.policy == "reject":
                    return REJECTED
                deadline = (
                    None
                    if self.block_timeout_s is None
                    else time.monotonic() + self.block_timeout_s
                )
                while self._depth >= self.capacity and not self._closed:
                    remaining = (
                        None if deadline is None
                        else deadline - time.monotonic()
                    )
                    if remaining is not None and remaining <= 0:
                        return TIMED_OUT
                    self._cond.wait(remaining)
                if self._closed:
                    return CLOSED
                if (
                    self.per_client_limit is not None
                    and len(self._lanes.get(client_id, ()))
                    >= self.per_client_limit
                ):
                    return REJECTED
            lane = self._lanes.get(client_id)
            if lane is None:
                lane = self._lanes[client_id] = deque()
                self._turns.append(client_id)
            lane.append(item)
            self._depth += 1
            if item.expires_at is not None:
                self._deadline_count += 1
            controller = self.controller
            if controller is not None:
                controller.observe_arrival(time.monotonic())
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
        caller's loop can never hot-poll), then, when a controller is
        attached, linger for the batch to fill to ``max_items`` for as
        long as the controller sizes the window from its arrival-rate
        EWMA and the current depth (including a zero window: the
        depth-k fusion bypass). Returns ``(batch, expired)``; expired
        envelopes (deadline lapsed while queued) are removed from the
        queue but *not* part of the batch.

        Fairness: one item per client per turn, clients visited
        round-robin, a client's lane staying FIFO. A drained-empty lane
        leaves the rotation until that client submits again. Urgent
        deadlines pre-empt the rotation (see ``urgent_slack_s``).
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
            controller = self.controller
            if controller is not None:
                self._linger(max_items, controller)
            batch, expired = self._drain_locked(max_items)
            if controller is not None:
                controller.observe_drain(len(batch) + len(expired))
            return batch, expired

    def _linger(self, max_items: int, controller) -> None:
        """Batch-fill linger (lock held).

        The controller picks a hard window from the depth and its
        EWMAs; inside it we drain early as soon as the arrival flow
        *pauses* for a settle gap — so a burst is collected whole
        without ever paying dead linger time after it ends.
        """
        window = controller.linger_window_s(self._depth, max_items)
        if window <= 0:
            return
        deadline = time.monotonic() + window
        while self._depth < max_items and not self._closed:
            remaining = min(deadline, controller.settle_at()) - time.monotonic()
            if remaining <= 0:
                break
            self._cond.wait(remaining)

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

    def _pop_from_lane(self, client_id: str, lane) -> PendingRequest:
        """Pop a lane head, keeping depth/deadline/rotation bookkeeping."""
        item = lane.popleft()
        self._depth -= 1
        if item.expires_at is not None:
            self._deadline_count -= 1
        if not lane:
            self._lanes.pop(client_id, None)
            try:
                self._turns.remove(client_id)
            except ValueError:
                pass
        return item

    def _drain_urgent(
        self,
        now: float,
        max_items: int,
        batch: List[PendingRequest],
        expired: List[PendingRequest],
    ) -> None:
        """Pull urgent lane heads earliest-deadline-first (lock held).

        Only lane *heads* are eligible, so per-client (and per-session)
        FIFO order is preserved; an urgent item buried behind its own
        lane mates waits its turn like everyone else.
        """
        horizon = now + self.urgent_slack_s
        while self._deadline_count > 0 and len(batch) < max_items:
            best_client = None
            best_lane = None
            best_expiry = horizon
            for client_id, lane in self._lanes.items():
                head = lane[0]
                if head.expires_at is not None and head.expires_at <= best_expiry:
                    best_client, best_lane = client_id, lane
                    best_expiry = head.expires_at
            if best_lane is None:
                return
            item = self._pop_from_lane(best_client, best_lane)
            if item.expired(now):
                expired.append(item)
            else:
                batch.append(item)

    def _drain_locked(
        self, max_items: int
    ) -> Tuple[List[PendingRequest], List[PendingRequest]]:
        now = _clock.monotonic()
        batch: List[PendingRequest] = []
        expired: List[PendingRequest] = []
        if self._deadline_count > 0:
            self._drain_urgent(now, max_items, batch, expired)
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
            if item.expires_at is not None:
                self._deadline_count -= 1
            if item.expired(now):
                expired.append(item)
            else:
                batch.append(item)
            if lane:
                self._turns.append(client_id)
            else:
                self._lanes.pop(client_id, None)
        if batch or expired:
            self._cond.notify_all()  # wake blocked producers
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
        """Refuse new offers and wake every waiter (take and offer)."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
