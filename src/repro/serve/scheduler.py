"""Micro-batching scheduler: fused evaluation of coalesced requests.

The scheduler thread drains the admission queue in micro-batches (the
trigger is *max batch size or max wait, whichever first*) and answers
every drained envelope exactly once. The point of batching on a
localization service is not thread parallelism — it is **fusion**: the
geometry-kernel evaluation that dominates a localization request is a
row-local map over candidate positions, so the candidate pools of all
requests in a batch can be concatenated and evaluated in *one* engine
kernels call, amortizing the per-call dispatch, validation, and chunk
setup that a request paid on its own. Single-user solves fuse the same
way: the per-candidate theta/objective math is one einsum row reduction,
so a batch of K=1 requests becomes one stacked row sweep.

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
inside any micro-batch, because

* each request's candidate pools are drawn from its **own** seeded RNG
  streams (``np.random.SeedSequence(seed).spawn(2)`` — one stream for
  pool draws, one for the descent search), never from a shared
  generator whose consumption order would depend on batch composition;
* every fused operation is **row-local** — geometry kernels are
  per-(sink, sniffer) pairs chunked over rows, and the fused K=1 solve
  uses per-row einsum reductions — so the values computed for one
  request's rows are independent of which other rows share the call;
* sniffer dropout (NaN readings) restricts a request to a column
  subset, and the geometry kernel of a (sink, sniffer) pair does not
  depend on the other sniffers, so slicing the full-set kernels equals
  computing on the restricted model;
* every stitched kernel block (seed prefix, dropout column subset) is
  written into its own C-contiguous array, so the descent downstream
  sees the same memory layout whichever rows share the batch.

Per-request dispatch is literally this same scheduler with
``max_batch=1`` — one code path, two batch sizes — which is what makes
the batched-vs-unbatched identity trivially auditable.
"""

from __future__ import annotations

import ctypes
import logging
import threading
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, FaultInjected, RetriesExhausted
from repro.faults import clock as _clock
from repro.faults.plan import should_fire
from repro.faults.retry import TRANSIENT_ERRORS, call_with_retry
from repro.fingerprint.candidates import MapSeededCandidates, UniformCandidates
from repro.fingerprint.nls import (
    NLSLocalizer,
    coordinate_descent,
    fits_from_heap,
    harvest_outcome,
)
from repro.fingerprint.objective import _RIDGE
from repro.fingerprint.results import CompositionFit, LocalizationResult
from repro.serve.admission import AdmissionQueue, PendingRequest
from repro.serve.metrics import ServerMetrics
from repro.serve.resilience import BackendGovernor
from repro.serve.requests import (
    ERROR_DEADLINE_EXPIRED,
    ERROR_INTERNAL,
    ERROR_UNKNOWN_SESSION,
    ErrorReply,
    LocalizeReply,
    LocalizeRequest,
    TrackStepReply,
    TrackStepRequest,
)

#: Row block of the fused single-user solve: bounds the ``(block, n)``
#: residual temporary while staying large enough to amortize dispatch.
_SOLVE_BLOCK_ROWS = 8192

_LOG = logging.getLogger(__name__)

#: Failures of the fused evaluation worth a retry / serial fallback
#: (transient set plus an exhausted bounded retry of that set).
_BACKEND_FAULTS = TRANSIENT_ERRORS + (RetriesExhausted,)

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


class _LocalizePlan:
    """One localize request, planned: pools drawn, kernels pending.

    ``pools[r][u]`` is restart ``r``/user ``u``'s ``(N, 2)`` candidate
    pool; ``seed_kernels[r][u]`` its map-cache kernel rows (``None``
    without a map); ``pool_kernels`` is filled by the fused kernel pass
    with the full raw ``(N, n_obs)`` kernels in the same layout.
    """

    __slots__ = (
        "item", "request", "objective", "columns", "pools",
        "seed_kernels", "pool_kernels", "search_seed",
    )

    def __init__(self, item, request, objective, columns, pools,
                 seed_kernels, search_seed):
        self.item = item
        self.request = request
        self.objective = objective
        self.columns = columns
        self.pools = pools
        self.seed_kernels = seed_kernels
        self.pool_kernels: List[List[Optional[np.ndarray]]] = [
            [None] * len(row) for row in pools
        ]
        self.search_seed = search_seed


def _fused_match_eligible(fingerprint_map, request) -> bool:
    """Single-user, map-seeded, no-dropout: one fused match suffices.

    Multi-user peeling is sequential (each match subtracts the prior
    fit) and dropout restricts columns per observation, so those take
    the per-request :meth:`FingerprintMap.peel_matches` path.
    """
    return (
        fingerprint_map is not None
        and isinstance(request, LocalizeRequest)
        and request.use_map
        and request.user_count == 1
        and bool(np.all(np.isfinite(np.asarray(request.observation.values,
                                               dtype=float))))
    )


def fuse_map_matches(
    fingerprint_map, items: Sequence[PendingRequest], workspace=None
) -> Dict[int, object]:
    """Pre-match eligible requests' observations in one fused call.

    Returns ``{id(item): MapMatch}`` for the eligible subset; the plan
    phase consumes these instead of per-request ``peel_matches``. Both
    dispatch modes route through :meth:`FingerprintMap.match_many`
    (batch size 1 in per-request mode), so the fusion never changes a
    reply. ``workspace`` is the caller-owned staging dict forwarded to
    the signature-index batch match (scratch reuse across batches).
    """
    eligible = [
        item for item in items
        if _fused_match_eligible(fingerprint_map, item.request)
    ]
    if not eligible:
        return {}
    values = np.stack(
        [np.asarray(i.request.observation.values, dtype=float)
         for i in eligible]
    )
    ks = [min(i.request.seed_top_k, i.request.candidate_count)
          for i in eligible]
    matches = fingerprint_map.match_many(values, ks, workspace=workspace)
    return {id(item): match for item, match in zip(eligible, matches)}


def plan_localize(
    localizer: NLSLocalizer, fingerprint_map, item: PendingRequest,
    prematch=None,
) -> _LocalizePlan:
    """Draw a request's candidate pools from its private RNG streams.

    Mirrors the map-seeded pool construction of
    :meth:`NLSLocalizer.localize`, except that *all* restarts' pools are
    drawn up front from a dedicated pool stream (the descent search gets
    its own spawned stream), so the kernel evaluation of every pool can
    be fused across the batch without perturbing any request's draws.
    ``prematch`` is the request's :func:`fuse_map_matches` result, when
    it was eligible.
    """
    req = item.request
    pool_seed, search_seed = np.random.SeedSequence(int(req.seed)).spawn(2)
    gen = np.random.default_rng(pool_seed)
    objective = localizer.objective_for(req.observation)

    values = np.asarray(req.observation.values, dtype=float)
    good = np.isfinite(values)
    columns = None if bool(np.all(good)) else np.flatnonzero(good)

    seed_generators: Optional[List[MapSeededCandidates]] = None
    if fingerprint_map is not None and req.use_map:
        if prematch is not None:
            matches = [prematch]
        else:
            matches = fingerprint_map.peel_matches(
                values, req.user_count,
                k=min(req.seed_top_k, req.candidate_count),
            )
        refine = 2.0 * fingerprint_map.resolution
        seed_generators = [
            MapSeededCandidates.from_match(localizer.field, match, refine)
            for match in matches
        ]
    uniform = UniformCandidates(localizer.field)

    pools: List[List[np.ndarray]] = []
    seed_kernels: List[List[Optional[np.ndarray]]] = []
    for _ in range(max(1, req.restarts)):
        row_pools: List[np.ndarray] = []
        row_seeds: List[Optional[np.ndarray]] = []
        for u in range(req.user_count):
            if seed_generators is None:
                row_pools.append(uniform.generate(req.candidate_count, gen))
                row_seeds.append(None)
            else:
                seeded = seed_generators[u]
                pool = seeded.generate(req.candidate_count, gen)
                k = seeded.seed_count(req.candidate_count)
                kernels = fingerprint_map.kernels_for(
                    seeded.seed_indices[:k], columns=columns
                )
                row_pools.append(pool)
                row_seeds.append(np.asarray(kernels, dtype=float))
        pools.append(row_pools)
        seed_kernels.append(row_seeds)
    return _LocalizePlan(
        item=item, request=req, objective=objective, columns=columns,
        pools=pools, seed_kernels=seed_kernels, search_seed=search_seed,
    )


def fuse_pool_kernels(
    model, plans: Sequence[_LocalizePlan], engine=None
) -> int:
    """Evaluate every plan's non-seed candidate rows in one kernels call.

    Stacks the unseeded rows of all pools across all plans into one
    contiguous block, evaluates float64 geometry kernels over the
    **full** sniffer set once, then slices each plan's column subset
    (dropout) and stitches map-seed kernels back in front. Row-locality
    of the kernel makes the split irrelevant to the values; returns the
    fused row count (a metrics signal of how much work one engine call
    amortized).

    A pool with no seed prefix and no dropout keeps a zero-copy view
    into the fused block; every other pool gets its own C-contiguous
    block (seed rows first, then the column subset taken with
    ``np.take(..., out=)``). The layout matters: the descent rounds
    differently on a Fortran-ordered ``block[:, columns]``.
    """
    segments: List[Tuple[_LocalizePlan, int, int, int, int]] = []
    total = 0
    for plan in plans:
        for r, row_pools in enumerate(plan.pools):
            for u, pool in enumerate(row_pools):
                seed = plan.seed_kernels[r][u]
                k = 0 if seed is None else seed.shape[0]
                count = pool.shape[0] - k
                if count > 0:
                    segments.append((plan, r, u, k, count))
                    total += count
    fused = None
    if total:
        if should_fire("serve.batch.fuse") is not None:
            raise FaultInjected(
                f"serve.batch.fuse: fused kernel pass over {total} rows failed"
            )
        stacked = np.concatenate(
            [plan.pools[r][u][k:] for plan, r, u, k, _ in segments], axis=0
        )
        # float64 whatever the engine's dtype: the solves run in float64.
        fused = model.geometry_kernels(
            stacked, engine=engine,
            out=np.empty((total, model.node_count)),
        )

    offset = 0
    for plan, r, u, k, count in segments:
        block = fused[offset:offset + count]
        offset += count
        if k == 0 and plan.columns is None:
            plan.pool_kernels[r][u] = block  # zero-copy view
            continue
        ncols = (
            block.shape[1] if plan.columns is None
            else plan.columns.shape[0]
        )
        dest = np.empty((k + count, ncols))
        if k:
            dest[:k] = plan.seed_kernels[r][u]
        if plan.columns is None:
            dest[k:] = block
        else:
            np.take(block, plan.columns, axis=1, out=dest[k:])
        plan.pool_kernels[r][u] = dest
    for plan in plans:  # pure-seed pools (candidate_count <= seeds)
        for r, row in enumerate(plan.pool_kernels):
            for u, kern in enumerate(row):
                if kern is None:
                    plan.pool_kernels[r][u] = plan.seed_kernels[r][u]
    return total


def solve_single_user_fused(
    plans: Sequence[_LocalizePlan],
) -> List[LocalizationResult]:
    """Solve a group of K=1 plans (equal sniffer arity) in one call.

    The single-user candidate solve is the scalar normal equation
    ``theta = <k, t> / (<k, k> + ridge)`` clamped at zero, with the
    residual norm as objective — per-row math identical to
    :func:`repro.fingerprint.objective.solve_thetas_candidates` with no
    fixed users; serve binds every objective with the default
    ``"absolute"`` weighting, so the kernels need no sniffer weights.
    Each plan's pools (every restart) are swept in row blocks of at
    most ``_SOLVE_BLOCK_ROWS`` against that plan's own target, on
    scratch shared by the group; every value is row-local, so the
    grouping is value-neutral. The per-plan top-``top_m`` ranking over
    all restarts equals the localize harvest for K=1 (the heap keeps
    the incumbent plus each restart's next-best alternatives, which for
    one user is exactly the candidate ranking).
    """
    n = plans[0].objective._weighted_target.shape[0]
    block = min(_SOLVE_BLOCK_ROWS, max(
        row[0].shape[0] for plan in plans for row in plan.pool_kernels
    ))
    resid_buf = np.empty((block, n))
    num_buf = np.empty(block)
    den_buf = np.empty(block)

    results: List[LocalizationResult] = []
    for plan in plans:
        target = plan.objective._weighted_target
        pools = [row[0] for row in plan.pool_kernels]
        count = sum(kern.shape[0] for kern in pools)
        thetas = np.empty(count)
        objectives = np.empty(count)
        offset = 0
        for kern in pools:
            # Row-contiguous like the solver's: a Fortran-ordered block
            # (a column-sliced map seed) would sum in another order.
            kern = np.ascontiguousarray(kern)
            for start in range(0, kern.shape[0], _SOLVE_BLOCK_ROWS):
                k_blk = kern[start:start + _SOLVE_BLOCK_ROWS]
                rows = k_blk.shape[0]
                num = num_buf[:rows]
                den = den_buf[:rows]
                np.einsum("ij,j->i", k_blk, target, out=num)
                np.einsum("ij,ij->i", k_blk, k_blk, out=den)
                den += _RIDGE
                th = thetas[offset:offset + rows]
                np.divide(num, den, out=th)
                th[th < 0.0] = 0.0  # exact K=1 NNLS: infeasible => empty support
                resid = resid_buf[:rows]
                np.multiply(k_blk, th[:, None], out=resid)
                resid -= target
                objectives[offset:offset + rows] = np.linalg.norm(resid, axis=1)
                offset += rows

        positions = np.concatenate([row[0] for row in plan.pools], axis=0)
        order = np.argsort(objectives, kind="stable")[: plan.request.top_m]
        fits = [
            CompositionFit(
                positions=positions[i].reshape(1, 2).copy(),
                thetas=np.array([thetas[i]]),
                objective=float(objectives[i]),
            )
            for i in order
        ]
        results.append(LocalizationResult(fits=fits))
    return results


def solve_multi_user(plan: _LocalizePlan, engine=None) -> LocalizationResult:
    """Solve one K>=2 plan: per-restart coordinate descent + harvest.

    The descent consumes the plan's private search stream (restart
    draws already happened in the plan phase), and the harvest is the
    exact :meth:`NLSLocalizer.localize` composition heap.
    """
    req = plan.request
    gen = np.random.default_rng(plan.search_seed)
    heap: List[Tuple[float, int, np.ndarray, np.ndarray]] = []
    counter = 0
    for r in range(len(plan.pools)):
        outcome = coordinate_descent(
            plan.objective, plan.pools[r], rng=gen, sweeps=req.sweeps,
            pool_kernels=plan.pool_kernels[r], engine=engine,
        )
        counter = harvest_outcome(heap, counter, outcome, plan.pools[r],
                                  req.top_m)
    return LocalizationResult(fits=fits_from_heap(heap, req.top_m))


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
    engine:
        Optional :class:`repro.engine.Engine` for chunked kernel
        evaluation inside the fused call.
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
        kernel evaluation. Transient failures (injected faults, engine
        errors) are retried under bounded backoff before the serial
        fallback is attempted; every retry is counted in
        ``metrics.retries``.
    fault_threshold / cooldown_s:
        The :class:`~repro.serve.resilience.BackendGovernor` knobs:
        after ``fault_threshold`` consecutive fused-evaluation faults
        the parallel backend is leased out for ``cooldown_s``
        injected-clock seconds (batches evaluate serially — always
        bitwise-identical in float64), then restored.
    """

    def __init__(
        self,
        localizer: NLSLocalizer,
        queue: AdmissionQueue,
        metrics: ServerMetrics,
        fingerprint_map=None,
        engine=None,
        session_lookup: Optional[Callable[[str], object]] = None,
        max_batch: int = 32,
        max_wait_s: float = 0.002,
        retry_policy=None,
        fault_threshold: int = 3,
        cooldown_s: float = 5.0,
    ):
        if max_batch < 1:
            raise ConfigurationError(f"max_batch must be >= 1, got {max_batch}")
        self.localizer = localizer
        self.queue = queue
        self.metrics = metrics
        self.fingerprint_map = fingerprint_map
        self.engine = engine
        self.session_lookup = session_lookup
        self.max_batch = int(max_batch)
        self.controller = AdaptiveBatchController(max_wait_s=max_wait_s)
        # The queue feeds the controller's EWMAs and lingers through it.
        queue.controller = self.controller
        self._match_workspace: Dict[str, np.ndarray] = {}
        self.retry_policy = retry_policy
        self.governor = BackendGovernor(
            engine,
            fault_threshold=fault_threshold,
            cooldown_s=cooldown_s,
            on_fallback=metrics.record_backend_fallback,
            on_reescalate=metrics.record_backend_reescalation,
        )
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
        engine = self.governor.current_engine()

        localize = [i for i in live if isinstance(i.request, LocalizeRequest)]
        track = [i for i in live if isinstance(i.request, TrackStepRequest)]

        try:
            prematches = fuse_map_matches(
                self.fingerprint_map, localize,
                workspace=self._match_workspace,
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
            prematches = {}
        plans: List[_LocalizePlan] = []
        for item in localize:
            try:
                plans.append(
                    plan_localize(
                        self.localizer, self.fingerprint_map, item,
                        prematch=prematches.get(id(item)),
                    )
                )
            except Exception as exc:  # typed reply, never a dropped future
                self._complete_error(
                    item, ERROR_INTERNAL, f"{type(exc).__name__}: {exc}"
                )
        fused_rows = 0
        if plans:
            try:
                fused_rows = self._fused_kernels(plans, engine)
            except Exception as exc:
                for plan in plans:
                    self._complete_error(
                        plan.item, ERROR_INTERNAL,
                        f"{type(exc).__name__}: {exc}",
                    )
                plans = []
            else:
                fuse_done = _clock.monotonic()
                for plan in plans:
                    plan.item.stamp("fuse", fuse_done)
        self.metrics.record_batch(
            batch_size, self.queue.depth_hint(), fused_rows
        )

        singles = [p for p in plans if p.request.user_count == 1]
        multis = [p for p in plans if p.request.user_count > 1]

        # K=1: fuse across requests of equal sniffer arity (dropout
        # gives different column counts; grouping keeps rows rectangular).
        groups: "OrderedDict[int, List[_LocalizePlan]]" = OrderedDict()
        for plan in singles:
            groups.setdefault(plan.objective.sniffer_count, []).append(plan)
        for group in groups.values():
            try:
                results = solve_single_user_fused(group)
            except Exception as exc:
                for plan in group:
                    self._complete_error(
                        plan.item, ERROR_INTERNAL,
                        f"{type(exc).__name__}: {exc}",
                    )
                continue
            solve_done = _clock.monotonic()
            for plan, result in zip(group, results):
                plan.item.stamp("solve", solve_done)
                self._complete_localize(plan.item, result, batch_size, taken_at)

        for plan in multis:
            try:
                result = solve_multi_user(plan, engine=engine)
            except Exception as exc:
                self._complete_error(
                    plan.item, ERROR_INTERNAL, f"{type(exc).__name__}: {exc}"
                )
                continue
            plan.item.stamp("solve")
            self._complete_localize(plan.item, result, batch_size, taken_at)

        self._process_track(track, batch_size, taken_at)

    def _fused_kernels(self, plans: List[_LocalizePlan], engine) -> int:
        """The fused kernel pass under the resilience ladder.

        Bounded retries first (when a policy is set), then — if the
        parallel backend keeps failing — a one-shot serial fallback for
        *this* batch, with the governor counting the fault toward a
        cool-down lease. Serial evaluation of the same pools is bitwise-
        identical in float64, so degradation never changes a reply.
        """

        def run(eng) -> int:
            if self.retry_policy is None:
                return fuse_pool_kernels(self.localizer.model, plans,
                                         engine=eng)
            return call_with_retry(
                lambda: fuse_pool_kernels(self.localizer.model, plans,
                                          engine=eng),
                self.retry_policy,
                on_retry=lambda attempt, exc: self.metrics.record_retry(
                    "serve.batch.fuse"
                ),
                label="serve.batch.fuse",
            )

        if engine is None:
            return run(None)
        try:
            rows = run(engine)
        except _BACKEND_FAULTS as exc:
            self.governor.record_fault()
            _LOG.warning(
                "fused kernel pass failed on the parallel backend "
                "(%s: %s); evaluating this batch serially",
                type(exc).__name__, exc,
            )
            self.metrics.record_internal_fault("serve.batch.fuse")
            return run(None)
        self.governor.record_success()
        return rows

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
                    self._complete_error(
                        item, ERROR_INTERNAL, f"{type(exc).__name__}: {exc}"
                    )
                    continue
                item.stamp("solve")
                item.future.set_result(reply)
                self.metrics.record_reply(
                    reply.latency_s, taken_at - item.submitted_at
                )
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
        item.future.set_result(reply)
        self.metrics.record_reply(reply.latency_s, taken_at - item.submitted_at)
        self._finalize_trace(item, ok=True)

    def _complete_error(
        self, item: PendingRequest, code: str, message: str
    ) -> None:
        latency = item.latency()
        item.future.set_result(
            ErrorReply(
                request_id=item.request.request_id,
                client_id=item.request.client_id,
                code=code,
                message=message,
                latency_s=latency,
            )
        )
        self.metrics.record_error(code, latency)
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
