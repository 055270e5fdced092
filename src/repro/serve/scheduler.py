"""Micro-batching scheduler: fused evaluation of coalesced requests.

The scheduler thread drains the admission queue in micro-batches (the
trigger is *max batch size or max wait, whichever first*) and answers
every drained envelope exactly once. The point of batching on a
localization service is not thread parallelism — it is **fusion**: the
geometry-kernel evaluation that dominates a localization request is a
row-local map over candidate positions, so the candidate pools of all
requests in a batch can be concatenated and evaluated in *one*
kernels call, amortizing the per-call dispatch, validation, and
scratch setup that a request paid on its own. Single-user solves fuse
the same way: the per-candidate theta/objective math is one einsum row
reduction, so a batch of K=1 requests becomes one stacked row sweep.

:class:`AdaptiveBatchController` keeps batching from costing latency:
it sizes the linger window from an EWMA of the inter-arrival gap and
the instantaneous queue depth, bounded by ``max_wait_s``. Light traffic
bypasses the linger entirely (the depth-k bypass), and a burst is
collected until arrivals *settle* rather than for a fixed window. The
controller only decides *when* to drain — batch composition never
changes what a reply contains (see the determinism contract below), so
the heuristic is free to be wrong without ever being incorrect.

Determinism contract (the acceptance bar of this layer): a request's
reply is bitwise-identical (float64) whether it was solved alone or
inside any micro-batch, and equal to
:meth:`repro.fingerprint.NLSLocalizer.localize` with ``rng=seed`` and
the same knobs. Both run the plan → fuse → solve pipeline of
:mod:`repro.fingerprint.search`, whose module docstring gives the
rules that make this hold; the scheduler keeps batching, dispatch,
retries and replies. Per-request dispatch is this same scheduler with
``max_batch=1``.
"""

from __future__ import annotations

import ctypes
import logging
import threading
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, FaultInjected
from repro.faults import clock as _clock
from repro.faults.plan import should_fire
from repro.faults.retry import call_with_retry
from repro.fingerprint.nls import NLSLocalizer
# Not called here: benchmarks/e2e/tracing.py patches this name, and fails without it.
from repro.fingerprint.nls import coordinate_descent  # noqa: F401
from repro.fingerprint.results import LocalizationResult
from repro.fingerprint.search import (
    LocalizePlan,
    fuse_map_matches,
    fuse_pool_kernels,
    plan_localize,
    solve_multi_user,
    solve_single_user_fused,
)
from repro.serve.admission import AdmissionQueue, PendingRequest
from repro.serve.metrics import ServerMetrics
from repro.serve.requests import (
    ERROR_DEADLINE_EXPIRED,
    ERROR_INTERNAL,
    ERROR_UNKNOWN_SESSION,
    MAX_CANDIDATE_ROWS,
    ErrorReply,
    LocalizeReply,
    LocalizeRequest,
    TrackStepReply,
    TrackStepRequest,
)

_LOG = logging.getLogger(__name__)

#: Inter-arrival gaps above this are idle time, not traffic, and are
#: excluded from the controller's rate EWMA (a client coming back from
#: a coffee break should not convince the controller traffic is slow
#: forever — the EWMA resumes from live gaps).
_GAP_CLAMP_S = 1.0

#: glibc ``mallopt`` parameters (``<malloc.h>``) and the heap policy
#: :func:`_steady_heap` sets: one arena, a fixed 32 MiB mmap threshold
#: (glibc's ceiling) and no trimming below 512 MiB of free heap.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8
_HEAP_POLICY = (
    (_M_ARENA_MAX, 1),
    (_M_MMAP_THRESHOLD, 32 << 20),
    (_M_TRIM_THRESHOLD, 512 << 20),
)


def _steady_heap() -> bool:
    """Make every batch reuse the heap memory of the batches before it.

    A full batch allocates tens of MB of staging arrays (fused kernels,
    stitched blocks, the K=1 solve's rows) and frees them when it ends.
    Under glibc's defaults the scheduler thread gets its own arena,
    whose 64 MiB heaps are unmapped as soon as they empty, and the
    mmap and trim thresholds move with the allocation history. Whether
    a batch finds its memory still mapped or faults it back in page by
    page then depends on where earlier blocks happened to land, and
    differs from one process to the next. One arena with fixed
    thresholds and no trimming makes every batch after the first reuse
    the same memory. Process-wide. Threads started afterwards share
    the main arena, unless an exited thread left an arena to reuse or
    the process already holds more than eight arenas. Returns ``False``
    where the C library has no ``mallopt`` (not glibc).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return all(mallopt(param, value) == 1 for param, value in _HEAP_POLICY)


#: Smoothing factor of the controller's gap and batch-size EWMAs.
EWMA_ALPHA = 0.25

#: A linger ends early once arrivals pause for this multiple of the gap
#: EWMA (the burst is over) ...
SETTLE_MULT = 4.0

#: ... but never for less than this.
SETTLE_FLOOR_S = 1e-4


class AdaptiveBatchController:
    """Sizes the micro-batch linger window from observed traffic.

    State (all updated under the admission queue's lock):

    ``gap_ewma_s``
        EWMA of the inter-arrival gap, fed by :meth:`observe_arrival`
        from the queue's ``offer`` path. Gaps above ``1s`` are treated
        as idle time and skipped. Seeded with ``max_wait_s`` — the
        longest window is the prior, live traffic replaces it within a
        few arrivals.
    ``batch_ewma``
        EWMA of the drained batch size, fed by :meth:`observe_drain`.
        This is what makes the depth bypass safe against a closed-loop
        trap: a lone client's service-time gap can look "fast enough to
        linger for", but its drains keep coming back size 1, so the
        batch EWMA keeps the bypass engaged; under real concurrency the
        drains grow and the bypass releases itself.

    Decision (:meth:`linger_window_s`): if both the current depth and
    the batch EWMA sit below :attr:`FUSION_MIN_DEPTH`, bypass the
    linger entirely (window 0 — dispatch now). Otherwise the hard
    window is the smaller of ``max_wait_s`` and the EWMA-predicted time
    for the batch to fill to ``max_items``. Inside that window the
    queue drains early once arrivals pause until :meth:`settle_at`, so
    a burst is collected whole without paying dead linger time after
    it ends.

    The controller picks *when* to drain, never *what* a reply
    contains; every choice preserves the bitwise-identical-replies
    guarantee by construction.
    """

    #: Depth (and batch EWMA) below which the linger is bypassed.
    FUSION_MIN_DEPTH = 2

    __slots__ = (
        "max_wait_s", "gap_ewma_s", "batch_ewma", "_last_arrival_s",
        "bypasses", "windows", "window_sum_s", "last_window_s",
    )

    def __init__(self, max_wait_s: float):
        if max_wait_s < 0:
            raise ConfigurationError(
                f"max_wait_s must be >= 0, got {max_wait_s}"
            )
        self.max_wait_s = float(max_wait_s)
        self.gap_ewma_s = self.max_wait_s
        self.batch_ewma = 1.0
        self._last_arrival_s = 0.0
        self.bypasses = 0
        self.windows = 0
        self.window_sum_s = 0.0
        self.last_window_s = 0.0

    # -- observations (called under the queue lock) --------------------
    def observe_arrival(self, now: float) -> None:
        last = self._last_arrival_s
        self._last_arrival_s = now
        if last > 0.0:
            gap = now - last
            if 0.0 <= gap <= _GAP_CLAMP_S:
                self.gap_ewma_s += EWMA_ALPHA * (gap - self.gap_ewma_s)

    def observe_drain(self, drained: int) -> None:
        if drained > 0:
            self.batch_ewma += EWMA_ALPHA * (drained - self.batch_ewma)

    # -- decisions ------------------------------------------------------
    def settle_s(self) -> float:
        """Arrival pause that ends the linger early (the burst is over)."""
        settle = max(SETTLE_MULT * self.gap_ewma_s, SETTLE_FLOOR_S)
        return min(self.max_wait_s, settle) if self.max_wait_s > 0 else settle

    def settle_at(self) -> float:
        """Monotonic instant at which the current burst counts as over."""
        return self._last_arrival_s + self.settle_s()

    def linger_window_s(self, depth: int, max_items: int) -> float:
        """Hard linger bound for the current drain (0 = dispatch now).

        Counts each drain once: a bypass in ``bypasses``, a sized
        window in ``windows``; a full batch counts as neither.
        """
        if depth >= max_items:
            return 0.0
        if (
            depth < self.FUSION_MIN_DEPTH
            and self.batch_ewma < self.FUSION_MIN_DEPTH
        ):
            self.bypasses += 1
            self.last_window_s = 0.0
            return 0.0
        window = max(0.0, min(
            self.max_wait_s, (max_items - depth) * self.gap_ewma_s
        ))
        self.windows += 1
        self.window_sum_s += window
        self.last_window_s = window
        return window

    def snapshot(self) -> Dict[str, object]:
        windows = self.windows
        return {
            "gap_ewma_s": self.gap_ewma_s,
            "batch_ewma": self.batch_ewma,
            "bypasses": self.bypasses,
            "windows": windows,
            "last_window_s": self.last_window_s,
            "window_mean_s": (
                self.window_sum_s / windows if windows else 0.0
            ),
        }


def _row_budget_groups(pairs: Sequence[Tuple[PendingRequest, object]]):
    """Split ``(item, prematch)`` pairs into consecutive fused passes
    of at most :data:`MAX_CANDIDATE_ROWS` candidate rows each, so a
    batch's fused kernel block is bounded like one request's. A request
    is never split; every fused operation is row-local, so no reply
    changes."""
    groups: List[List[Tuple[PendingRequest, object]]] = []
    rows = 0
    for pair in pairs:
        request = pair[0].request
        need = request.user_count * request.restarts * request.candidate_count
        if groups and rows + need <= MAX_CANDIDATE_ROWS:
            groups[-1].append(pair)
            rows += need
        else:
            groups.append([pair])
            rows = need
    return groups


class MicroBatchScheduler:
    """Drains the admission queue and answers envelopes in fused batches.

    Parameters
    ----------
    localizer:
        The service's shared :class:`NLSLocalizer` (model + field).
    queue:
        The :class:`AdmissionQueue` to drain.
    metrics:
        The service's :class:`ServerMetrics`.
    fingerprint_map:
        Optional shared map for seeded pools (requests opt out via
        ``use_map=False``).
    session_lookup:
        ``session_id -> TrackingSession | None`` resolver for
        :class:`TrackStepRequest` work.
    max_batch / max_wait_s:
        The micro-batching trigger: drain when ``max_batch`` envelopes
        are pending or the linger window elapsed, whichever comes
        first. ``max_batch=1`` *is* per-request dispatch. The
        scheduler's :class:`AdaptiveBatchController` sizes the window,
        with ``max_wait_s`` as its ceiling.
    retry_policy:
        Optional :class:`~repro.faults.RetryPolicy` for the fused
        kernel evaluation. Transient failures
        (:data:`~repro.faults.retry.TRANSIENT_ERRORS`) are retried under
        bounded backoff, and every retry is counted in
        ``metrics.retries``. A pass that still fails answers each of its
        requests with one ``internal`` error reply.
    """

    def __init__(
        self,
        localizer: NLSLocalizer,
        queue: AdmissionQueue,
        metrics: ServerMetrics,
        fingerprint_map=None,
        session_lookup: Optional[Callable[[str], object]] = None,
        max_batch: int = 32,
        max_wait_s: float = 0.002,
        retry_policy=None,
    ):
        if max_batch < 1:
            raise ConfigurationError(f"max_batch must be >= 1, got {max_batch}")
        self.localizer = localizer
        self.queue = queue
        self.metrics = metrics
        self.fingerprint_map = fingerprint_map
        self.session_lookup = session_lookup
        self.max_batch = int(max_batch)
        self.controller = AdaptiveBatchController(max_wait_s=max_wait_s)
        # The queue feeds the controller's EWMAs and lingers through it.
        queue.controller = self.controller
        self.retry_policy = retry_policy
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._thread is not None:
            raise ConfigurationError("scheduler already started")
        self._stop.clear()
        _steady_heap()  # before the thread's first allocation picks an arena
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-scheduler", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: Optional[float] = 30.0) -> None:
        """Signal the loop to drain the queue and exit, then join it."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def _run(self) -> None:
        while True:
            self.run_once()
            if self._stop.is_set() and self.queue.depth() == 0:
                return

    # ------------------------------------------------------------------
    def run_once(self) -> int:
        """One drain-and-process cycle; returns envelopes answered.

        Public so tests (and the CLI smoke path) can drive the
        scheduler synchronously without the thread.
        """
        batch, expired = self.queue.take(self.max_batch)
        for item in expired:
            self._complete_error(
                item, ERROR_DEADLINE_EXPIRED,
                "deadline lapsed while queued",
            )
        if batch:
            self._process(batch)
        return len(batch) + len(expired)

    # ------------------------------------------------------------------
    def _process(self, batch: List[PendingRequest]) -> None:
        try:
            self._process_inner(batch)
        finally:
            # No envelope may dangle: a scheduler bug still answers.
            for item in batch:
                if not item.future.done():
                    self._complete_error(
                        item, ERROR_INTERNAL, "scheduler failed to reply"
                    )

    def _process_inner(self, batch: List[PendingRequest]) -> None:
        taken_at = _clock.monotonic()
        live: List[PendingRequest] = []
        for item in batch:
            # Dispatch-time re-check: the deadline may have lapsed in
            # the window between the drain purge and this point.
            if item.expired(taken_at):
                self._complete_error(
                    item, ERROR_DEADLINE_EXPIRED,
                    "deadline lapsed before evaluation",
                )
            else:
                live.append(item)
        if not live:
            return
        for item in live:
            # Stage 1 of the latency decomposition: queue wait ends here.
            item.stamp("admission", taken_at)
        batch_size = len(live)

        localize = [i for i in live if isinstance(i.request, LocalizeRequest)]
        track = [i for i in live if isinstance(i.request, TrackStepRequest)]

        try:
            prematches = fuse_map_matches(
                self.fingerprint_map, [item.request for item in localize]
            )
        except Exception as exc:
            # Observable fallback to per-request matching (values are
            # unchanged either way); a silent swallow here hid real
            # prematch bugs behind identical replies.
            _LOG.warning(
                "fused prematch failed (%s: %s); falling back to "
                "per-request matching", type(exc).__name__, exc,
            )
            self.metrics.record_internal_fault("serve.prematch")
            prematches = [None] * len(localize)
        fused_rows = 0
        for group in _row_budget_groups(list(zip(localize, prematches))):
            fused_rows += self._localize_group(group, batch_size, taken_at)
        self.metrics.record_batch(
            batch_size, self.queue.depth_hint(), fused_rows
        )
        self._process_track(track, batch_size, taken_at)

    def _localize_group(
        self,
        group: List[Tuple[PendingRequest, object]],
        batch_size: int,
        taken_at: float,
    ) -> int:
        """Plan, fuse and solve one group of ``(item, prematch)`` pairs.

        Every request gets its reply here; returns the fused row count.
        """
        planned: List[Tuple[PendingRequest, LocalizePlan]] = []
        for item, prematch in group:
            try:
                planned.append((item, plan_localize(
                    self.localizer, self.fingerprint_map, item.request,
                    prematch=prematch,
                )))
            except Exception as exc:  # typed reply, never a dropped future
                self._fail([item], exc)
        if not planned:
            return 0
        try:
            fused_rows = self._fused_kernels([plan for _, plan in planned])
        except Exception as exc:
            self._fail([item for item, _ in planned], exc)
            return 0
        fuse_done = _clock.monotonic()
        for item, _ in planned:
            item.stamp("fuse", fuse_done)

        # K=1: fuse across requests of equal sniffer arity (dropout
        # gives different column counts; grouping keeps rows rectangular).
        arities: Dict[int, List[Tuple[PendingRequest, LocalizePlan]]] = {}
        for item, plan in planned:
            if plan.request.user_count == 1:
                arities.setdefault(plan.objective.sniffer_count, []).append(
                    (item, plan)
                )
        for pairs in arities.values():
            try:
                results = solve_single_user_fused([plan for _, plan in pairs])
            except Exception as exc:
                self._fail([item for item, _ in pairs], exc)
                continue
            solve_done = _clock.monotonic()
            for (item, _), result in zip(pairs, results):
                item.stamp("solve", solve_done)
                self._complete_localize(item, result, batch_size, taken_at)

        for item, plan in planned:
            if plan.request.user_count == 1:
                continue
            try:
                result = solve_multi_user(plan)
            except Exception as exc:
                self._fail([item], exc)
                continue
            item.stamp("solve")
            self._complete_localize(item, result, batch_size, taken_at)
        return fused_rows

    def _fused_kernels(self, plans: List[LocalizePlan]) -> int:
        """The fused kernel pass, under ``retry_policy`` when one is set.

        A retry re-evaluates the same pools from scratch, so its rows
        are bitwise-identical to a first-try success.
        """
        rows = sum(plan.fused_rows for plan in plans)

        def run() -> int:
            if rows and should_fire("serve.batch.fuse") is not None:
                raise FaultInjected(
                    f"serve.batch.fuse: fused kernel pass over {rows} rows "
                    "failed"
                )
            return fuse_pool_kernels(self.localizer.model, plans)

        if self.retry_policy is None:
            return run()
        return call_with_retry(
            run,
            self.retry_policy,
            on_retry=lambda attempt, exc: self.metrics.record_retry(
                "serve.batch.fuse"
            ),
            label="serve.batch.fuse",
        )

    def _process_track(
        self,
        items: List[PendingRequest],
        batch_size: int,
        taken_at: float,
    ) -> None:
        """Run tracking steps, FIFO within each session."""
        groups: "OrderedDict[str, List[PendingRequest]]" = OrderedDict()
        for item in items:
            groups.setdefault(item.request.session_id, []).append(item)
        for session_id, group in groups.items():
            session = (
                self.session_lookup(session_id)
                if self.session_lookup is not None
                else None
            )
            if session is None:
                for item in group:
                    self._complete_error(
                        item, ERROR_UNKNOWN_SESSION,
                        f"no tracking session {session_id!r}",
                    )
                continue
            for item in group:
                try:
                    step = session.process(item.request.observation)
                    reply = TrackStepReply(
                        request_id=item.request.request_id,
                        client_id=item.request.client_id,
                        session_id=session_id,
                        step=step,
                        skip_reason=session.last_skip_reason,
                        estimates=session.estimates(),
                        latency_s=item.latency(),
                        batch_size=batch_size,
                    )
                except Exception as exc:
                    self._fail([item], exc)
                    continue
                item.stamp("solve")
                self.metrics.record_reply(
                    reply.latency_s, taken_at - item.submitted_at
                )
                item.future.set_result(reply)
                self._finalize_trace(item, ok=True)

    # ------------------------------------------------------------------
    def _complete_localize(
        self,
        item: PendingRequest,
        result: LocalizationResult,
        batch_size: int,
        taken_at: float,
    ) -> None:
        reply = LocalizeReply(
            request_id=item.request.request_id,
            client_id=item.request.client_id,
            result=result,
            latency_s=item.latency(),
            batch_size=batch_size,
        )
        # Count before resolving: done-callbacks run inside set_result,
        # and a fleet worker's callback ships the reply to the router.
        self.metrics.record_reply(reply.latency_s, taken_at - item.submitted_at)
        item.future.set_result(reply)
        self._finalize_trace(item, ok=True)

    def _fail(self, items: List[PendingRequest], exc: Exception) -> None:
        """Answer each of ``items`` with an ``internal`` error for ``exc``."""
        for item in items:
            self._complete_error(
                item, ERROR_INTERNAL, f"{type(exc).__name__}: {exc}"
            )

    def _complete_error(
        self, item: PendingRequest, code: str, message: str
    ) -> None:
        latency = item.latency()
        self.metrics.record_error(code, latency)
        item.future.set_result(
            ErrorReply(
                request_id=item.request.request_id,
                client_id=item.request.client_id,
                code=code,
                message=message,
                latency_s=latency,
            )
        )
        self._finalize_trace(item, ok=False)

    def _finalize_trace(self, item: PendingRequest, ok: bool) -> None:
        """Fold the envelope's stage stamps into the metrics trace ring.

        The synthesized final ``reply`` stage makes the durations sum
        to the request's total latency even on paths that never stamped
        (admission-time errors, deadline purges).
        """
        request = item.request
        span = getattr(request, "span_id", None) or request.request_id
        self.metrics.record_trace(
            span, request.request_id, item.stage_durations(), ok=ok
        )
