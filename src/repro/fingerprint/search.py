"""The multi-restart NLS search of paper Section IV.A, as a pipeline.

Each stage takes a batch of requests, so a serving layer can fuse the
expensive parts across them: :func:`fuse_map_matches` matches
single-user, map-seeded requests without dropout in one call;
:func:`plan_localize` draws every restart's pools up front from the
request's pool stream; :func:`fuse_pool_kernels` evaluates all pools'
kernels in one call; :func:`solve_single_user_fused` ranks every K=1
candidate exactly, and :func:`solve_multi_user` runs K>=2 coordinate
descent per restart from the request's search stream.
:meth:`repro.fingerprint.NLSLocalizer.localize` runs the pipeline on a
batch of one, the serve scheduler on every drained batch. A request is
anything with the attributes of :class:`SearchKnobs`, such as a
:class:`repro.serve.LocalizeRequest`.

A request's result is bitwise-identical (float64) alone or inside any
batch, because

* its pools and its descent draw from its **own** streams
  (``np.random.SeedSequence(seed).spawn(2)``: pools, then search),
  never from a generator shared by the batch;
* every fused operation is **row-local** — geometry kernels are
  per-(sink, sniffer) pairs, and the K=1 solve reduces per row;
* sniffer dropout (NaN readings) restricts a request to a column
  subset, and the kernel of a (sink, sniffer) pair does not depend on
  the other sniffers, so slicing the full-set kernels equals computing
  on the restricted model;
* every stitched kernel block (seed prefix, dropout column subset) is
  written into its own C-contiguous array, so the descent sees the
  same memory layout whichever rows share the batch.
"""

from __future__ import annotations

import heapq
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.fingerprint.candidates import MapSeededCandidates, UniformCandidates
from repro.fingerprint.nls import SweepOutcome, coordinate_descent
from repro.fingerprint.objective import _RIDGE
from repro.fingerprint.results import CompositionFit, LocalizationResult
from repro.traffic.measurement import FluxObservation

#: Row block of the fused single-user solve: bounds the ``(block, n)``
#: residual temporary while staying large enough to amortize dispatch.
_SOLVE_BLOCK_ROWS = 8192


class SearchKnobs(NamedTuple):
    """The attributes the pipeline reads from a request (see
    :meth:`repro.fingerprint.NLSLocalizer.localize`)."""

    observation: FluxObservation
    user_count: int
    candidate_count: int
    top_m: int
    restarts: int
    sweeps: int
    seed_top_k: int
    seed: int
    use_map: bool


class LocalizePlan:
    """One request, planned: pools drawn, kernels pending.

    ``pools[r][u]`` is restart ``r``/user ``u``'s ``(N, 2)`` candidate
    pool; ``seed_kernels[r][u]`` its map-cache kernel rows (``None``
    without a map); ``pool_kernels`` is filled by the fused kernel pass
    with the full raw ``(N, n_obs)`` kernels in the same layout.
    ``fused_rows`` counts the rows that pass evaluates (those without a
    map-cache kernel).
    """

    __slots__ = (
        "request", "objective", "columns", "pools", "seed_kernels",
        "pool_kernels", "search_seed", "fused_rows",
    )

    def __init__(self, request, objective, columns, pools, seed_kernels,
                 search_seed):
        self.request = request
        self.objective = objective
        self.columns = columns
        self.pools = pools
        self.seed_kernels = seed_kernels
        self.pool_kernels: List[List[Optional[np.ndarray]]] = [
            [None] * len(row) for row in pools
        ]
        self.search_seed = search_seed
        self.fused_rows = sum(
            pool.shape[0] - (0 if seed is None else seed.shape[0])
            for row_pools, row_seeds in zip(pools, seed_kernels)
            for pool, seed in zip(row_pools, row_seeds)
        )


def _fused_match_eligible(fingerprint_map, request) -> bool:
    """Single-user, map-seeded, no-dropout: one fused match suffices.

    Multi-user peeling is sequential (each match subtracts the prior
    fit) and dropout restricts columns per observation, so those take
    the per-request :meth:`FingerprintMap.peel_matches` path.
    """
    return (
        fingerprint_map is not None
        and request.use_map
        and request.user_count == 1
        and bool(np.all(np.isfinite(np.asarray(request.observation.values,
                                               dtype=float))))
    )


def fuse_map_matches(fingerprint_map, requests: Sequence) -> List[Optional[object]]:
    """Pre-match eligible requests' observations in one fused call.

    Returns one entry per request: its :class:`repro.fpmap.MapMatch`
    when eligible, else ``None``. A batch of one routes through
    :meth:`FingerprintMap.match_many` too, so fusion changes no result.
    """
    eligible = [
        i for i, request in enumerate(requests)
        if _fused_match_eligible(fingerprint_map, request)
    ]
    prematches: List[Optional[object]] = [None] * len(requests)
    if not eligible:
        return prematches
    values = np.stack(
        [np.asarray(requests[i].observation.values, dtype=float)
         for i in eligible]
    )
    ks = [min(requests[i].seed_top_k, requests[i].candidate_count)
          for i in eligible]
    for i, match in zip(eligible, fingerprint_map.match_many(values, ks)):
        prematches[i] = match
    return prematches


def plan_localize(localizer, fingerprint_map, request,
                  prematch=None) -> LocalizePlan:
    """Draw a request's candidate pools from its private RNG streams.

    *All* restarts' pools are drawn up front from a dedicated pool
    stream (the descent gets its own spawned stream), so the kernels of
    every pool can be fused across a batch without perturbing any
    request's draws. With a map and ``request.use_map``, each user's
    pool starts with its top map matches (greedy residual peeling
    across users); otherwise pools are uniform over the field.
    ``localizer`` is the :class:`repro.fingerprint.NLSLocalizer` fitted
    against; ``prematch`` the request's :func:`fuse_map_matches` entry.
    """
    pool_seed, search_seed = np.random.SeedSequence(int(request.seed)).spawn(2)
    gen = np.random.default_rng(pool_seed)
    objective = localizer.objective_for(request.observation)

    values = np.asarray(request.observation.values, dtype=float)
    good = np.isfinite(values)
    columns = None if bool(np.all(good)) else np.flatnonzero(good)

    seed_generators: Optional[List[MapSeededCandidates]] = None
    if fingerprint_map is not None and request.use_map:
        if prematch is not None:
            matches = [prematch]
        else:
            matches = fingerprint_map.peel_matches(
                values, request.user_count,
                k=min(request.seed_top_k, request.candidate_count),
            )
        refine = 2.0 * fingerprint_map.resolution
        seed_generators = [
            MapSeededCandidates.from_match(localizer.field, match, refine)
            for match in matches
        ]
    uniform = UniformCandidates(localizer.field)

    pools: List[List[np.ndarray]] = []
    seed_kernels: List[List[Optional[np.ndarray]]] = []
    for _ in range(max(1, request.restarts)):
        row_pools: List[np.ndarray] = []
        row_seeds: List[Optional[np.ndarray]] = []
        for u in range(request.user_count):
            if seed_generators is None:
                row_pools.append(uniform.generate(request.candidate_count, gen))
                row_seeds.append(None)
            else:
                seeded = seed_generators[u]
                pool = seeded.generate(request.candidate_count, gen)
                k = seeded.seed_count(request.candidate_count)
                kernels = fingerprint_map.kernels_for(
                    seeded.seed_indices[:k], columns=columns
                )
                row_pools.append(pool)
                row_seeds.append(np.asarray(kernels, dtype=float))
        pools.append(row_pools)
        seed_kernels.append(row_seeds)
    return LocalizePlan(
        request=request, objective=objective, columns=columns, pools=pools,
        seed_kernels=seed_kernels, search_seed=search_seed,
    )


def fuse_pool_kernels(model, plans: Sequence[LocalizePlan]) -> int:
    """Evaluate every plan's non-seed candidate rows in one kernels call.

    Stacks the unseeded rows of all pools across all plans into one
    contiguous block, evaluates float64 geometry kernels over the
    **full** sniffer set once, then slices each plan's column subset
    (dropout) and stitches map-seed kernels back in front. Row-locality
    of the kernel makes the split irrelevant to the values; returns the
    fused row count (a metrics signal of how much work one kernels call
    amortized).

    A pool with no seed prefix and no dropout keeps a zero-copy view
    into the fused block; every other pool gets its own C-contiguous
    block (seed rows first, then the column subset taken with
    ``np.take(..., out=)``). The layout matters: the descent rounds
    differently on a Fortran-ordered ``block[:, columns]``.
    """
    segments: List[Tuple[LocalizePlan, int, int, int, int]] = []
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
        stacked = np.concatenate(
            [plan.pools[r][u][k:] for plan, r, u, k, _ in segments], axis=0
        )
        fused = model.geometry_kernels(stacked)

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
    plans: Sequence[LocalizePlan],
) -> List[LocalizationResult]:
    """Solve a group of K=1 plans (equal sniffer arity) in one call.

    The single-user candidate solve is the scalar normal equation
    ``theta = <k, t> / (<k, k> + ridge)`` clamped at zero, with the
    residual norm as objective — per-row math identical to
    :func:`repro.fingerprint.objective.solve_thetas_candidates` with no
    fixed users; the objective is bound with the default
    ``"absolute"`` weighting, so the kernels need no sniffer weights.
    Each plan's pools (every restart) are swept in row blocks of at
    most ``_SOLVE_BLOCK_ROWS`` against that plan's own target, on
    scratch shared by the group; every value is row-local, so the
    grouping is value-neutral. The result is the exact top-``top_m``
    ranking of every candidate over all restarts.
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


def solve_multi_user(plan: LocalizePlan) -> LocalizationResult:
    """Solve one K>=2 plan: per-restart coordinate descent + harvest.

    The descent consumes the plan's private search stream (restart
    draws already happened in the plan phase). Each restart harvests
    its incumbent composition plus, for each user, that user's
    ``top_m`` next-best candidates against the incumbents of the
    others; the result keeps the ``top_m`` best harvested compositions
    over all restarts (Fig. 5 keeps the top 10).
    """
    req = plan.request
    gen = np.random.default_rng(plan.search_seed)
    heap: List[Tuple[float, int, np.ndarray, np.ndarray]] = []
    for r in range(len(plan.pools)):
        outcome = coordinate_descent(
            plan.objective, plan.pools[r], rng=gen, sweeps=req.sweeps,
            pool_kernels=plan.pool_kernels[r],
        )
        _harvest(heap, outcome, plan.pools[r], req.top_m)
    return LocalizationResult(fits=[
        CompositionFit(
            positions=pos, thetas=np.maximum(thetas, 0.0), objective=obj
        )
        for obj, _, pos, thetas in sorted(heap, key=lambda e: e[0])[:req.top_m]
    ])


def _harvest(heap, outcome: SweepOutcome, pools: Sequence[np.ndarray],
             top_m: int) -> None:
    """Push one descent outcome's compositions onto the harvest heap.

    Entries are ``(objective, push index, positions, thetas)``: the
    push index (``len(heap)``) keeps arrays out of tie comparisons.
    """
    K = len(pools)
    incumbent_pos = np.stack(
        [pools[j][outcome.best_indices[j]] for j in range(K)]
    )
    heapq.heappush(heap, (
        float(outcome.best_objective), len(heap), incumbent_pos,
        outcome.best_thetas,
    ))
    for j in range(K):
        objs = outcome.per_user_objectives[j]
        order = np.argsort(objs)[: top_m + 1]
        for idx in order:
            if idx == outcome.best_indices[j]:
                continue
            pos = incumbent_pos.copy()
            pos[j] = pools[j][idx]
            thetas = outcome.best_thetas.copy()
            thetas[j] = outcome.per_user_thetas[j][idx]
            heapq.heappush(heap, (float(objs[idx]), len(heap), pos, thetas))
