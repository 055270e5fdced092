"""Sampling-based NLS search for user positions (paper Section IV.A).

The objective is non-differentiable in the positions on rectangular
fields, so the paper searches over sampled candidate locations (10,000
per user in Fig. 5) and keeps the top-10 compositions. Enumerating all
``N^K`` compositions is infeasible for K > 1 at paper scale, so the
multi-user search runs *coordinate descent*: sweep one user at a time,
batch-evaluating all of that user's candidates against the incumbent
positions of the others, with greedy residual-peeling initialization
and random restarts. At a coordinate-descent fixpoint the per-user
candidate ranking equals the paper's "minimum objective over
compositions" ranking restricted to the incumbent neighborhood — the
approximation DESIGN.md documents. Exact enumeration is retained for
small problems (tests, ablation).

:meth:`NLSLocalizer.localize` runs the restart pipeline of
:mod:`repro.fingerprint.search` — the one the serving layer runs — on
a batch of one: a single user's candidates are ranked exactly, and
coordinate descent serves K >= 2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, FittingError
from repro.fingerprint.objective import (
    CandidatePool,
    CandidateRanking,
    EvalWorkspace,
    FluxObjective,
    solve_thetas_batched,
)
from repro.fingerprint.results import CompositionFit, LocalizationResult
from repro.fluxmodel.discrete import DiscreteFluxModel
from repro.geometry.field import Field
from repro.traffic.measurement import FluxObservation
from repro.util.rng import RandomState, as_generator

#: Margin by which a sweep must lower the best objective to count as an
#: improvement. Being non-negative is what lets a sweep skip a user
#: whose ranking is still valid.
_TOL = 1e-9


@dataclass
class SweepOutcome:
    """Internal result of one coordinate-descent run over fixed pools.

    Attributes
    ----------
    best_indices:
        Per-user index into that user's candidate pool.
    best_thetas:
        ``(K,)`` fitted stretch factors at the incumbent composition.
    best_objective:
        Objective at the incumbent composition.
    rankings:
        For each user, the :class:`CandidateRanking` of all its
        candidates evaluated against the final incumbents of the other
        users — the ranking the SMC filtering phase needs. Read it
        through :meth:`ranked`.
    """

    best_indices: np.ndarray
    best_thetas: np.ndarray
    best_objective: float
    rankings: List[CandidateRanking]

    def ranked(self, j: int, k: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """User ``j``'s ``k`` best candidates against the final incumbents.

        Returns ``(indices, objectives, thetas)``: pool indices ordered
        by exact objective, then by index (at most ``k``; fewer when the
        pool is smaller), their residual-norm objectives, and the swept
        user's fitted theta in each of those fits.
        """
        ranking = self.rankings[j]
        indices, objectives = ranking.top(k)
        return indices, objectives, ranking.thetas[indices, 0]


def coordinate_descent(
    objective: FluxObjective,
    pools: Sequence[np.ndarray],
    rng: RandomState = None,
    sweeps: int = 4,
    init_indices: Optional[np.ndarray] = None,
    pool_kernels: Optional[Sequence[Optional[np.ndarray]]] = None,
) -> SweepOutcome:
    """Coordinate-descent composition search over per-user candidate pools.

    Parameters
    ----------
    objective:
        Bound flux objective (model + observation).
    pools:
        Per-user ``(N_j, 2)`` candidate position arrays.
    sweeps:
        Maximum full passes over the users.
    init_indices:
        Optional per-user starting candidate indices; greedy residual
        peeling is used when omitted.
    pool_kernels:
        Optional per-user precomputed ``(N_j, n)`` geometry kernels
        over the objective's sniffer set (``None`` entries are
        computed here). Map-seeded search passes the fingerprint map's
        cached kernels so candidates at map cells cost nothing.
    """
    if not pools:
        raise ConfigurationError("need at least one candidate pool")
    gen = as_generator(rng)
    K = len(pools)
    if pool_kernels is None:
        pool_kernels = [None] * K
    elif len(pool_kernels) != K:
        raise ConfigurationError(
            f"pool_kernels has {len(pool_kernels)} entries for {K} pools"
        )
    # Weight each pool's kernels once up front and bind them to the
    # target: every sweep below then solves a pool whose ``c·c`` and
    # ``c·F`` are already computed, with one scratch workspace per pool
    # so the solver buffers are reused across sweeps.
    candidates: List[CandidatePool] = []
    for p, pre in zip(pools, pool_kernels):
        raw = (
            objective.model.geometry_kernels(np.asarray(p, float))
            if pre is None
            else np.asarray(pre, dtype=float)
        )
        if raw.shape != (np.asarray(p).shape[0], objective.sniffer_count):
            raise ConfigurationError(
                f"pool kernels {raw.shape} do not match pool size "
                f"{np.asarray(p).shape[0]} x {objective.sniffer_count} sniffers"
            )
        if raw.shape[0] == 0:
            raise ConfigurationError(
                f"user {len(candidates)} has an empty candidate pool"
            )
        candidates.append(CandidatePool(
            objective._weight_kernels(raw), objective._weighted_target
        ))
    workspaces = [EvalWorkspace() for _ in range(K)]
    kernels = [pool.kernels for pool in candidates]

    # ------------------------------------------------------------------
    # Initialization: greedy residual peeling in random user order.
    # ------------------------------------------------------------------
    order = np.arange(K)
    gen.shuffle(order)
    incumbents = np.zeros(K, dtype=np.int64)
    if init_indices is not None:
        init_indices = np.asarray(init_indices, dtype=np.int64)
        if init_indices.shape != (K,):
            raise ConfigurationError(
                f"init_indices must have shape ({K},), got {init_indices.shape}"
            )
        incumbents = init_indices.copy()
    else:
        fixed_stack: List[np.ndarray] = []
        for j in order:
            fixed = np.asarray(fixed_stack) if fixed_stack else None
            ranking = candidates[j].solve(fixed, workspace=workspaces[j])
            best = int(ranking.top(1)[0][0])
            incumbents[j] = best
            fixed_stack.append(kernels[j][best])

    # ------------------------------------------------------------------
    # Sweeps. ``evals_valid[j]`` tracks whether user j's stored ranking
    # was computed against the *current* incumbents of the other users;
    # any incumbent move invalidates every other user's ranking. A valid
    # ranking is not evaluated again: the same incumbents give the same
    # objectives, and ``best_objective`` has only fallen since they were
    # computed, so their best cannot beat ``best_objective - _TOL``.
    # ------------------------------------------------------------------
    rankings: List[Optional[CandidateRanking]] = [None] * K
    evals_valid = [False] * K
    best_objective = np.inf
    best_thetas = np.zeros(K)

    def solve(j: int) -> Tuple[List[int], CandidateRanking]:
        others = [k for k in range(K) if k != j]
        fixed = (
            np.stack([kernels[k][incumbents[k]] for k in others])
            if others
            else None
        )
        return others, candidates[j].solve(fixed, workspace=workspaces[j])

    for _ in range(max(1, sweeps)):
        improved = False
        gen.shuffle(order)
        for j in order:
            if evals_valid[j]:
                continue
            others, ranking = solve(j)
            rankings[j] = ranking
            evals_valid[j] = True
            (best,), (best_obj,) = ranking.top(1)
            best = int(best)
            if best_obj < best_objective - _TOL:
                improved = True
                best_objective = float(best_obj)
                if best != incumbents[j]:
                    incumbents[j] = best
                    for k in range(K):
                        if k != j:
                            evals_valid[k] = False
                # Reorder thetas back to user order (swept user first).
                reordered = np.empty(K)
                reordered[j] = ranking.thetas[best, 0]
                for pos, k in enumerate(others):
                    reordered[k] = ranking.thetas[best, 1 + pos]
                best_thetas = reordered
        if not improved:
            break

    # Ensure rankings reflect the final incumbents for every user.
    # Only stale users are re-evaluated — when the loop exits via the
    # unimproved-sweep break, every ranking already reflects the final
    # incumbents and this costs nothing.
    for j in range(K):
        if not evals_valid[j]:
            rankings[j] = solve(j)[1]

    return SweepOutcome(
        best_indices=incumbents,
        best_thetas=best_thetas,
        best_objective=best_objective,
        rankings=rankings,
    )


def forward_select_active(
    objective: FluxObjective,
    kernels: np.ndarray,
    min_improvement: float = 0.10,
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Greedy forward selection of the users that actually collected.

    An unconstrained multi-user fit happily *splits* one true user's
    flux across several fitted users, since extra degrees of freedom
    always reduce the residual a little. So start from an empty model
    and add the user whose inclusion improves the fit the most,
    stopping when the best addition improves the objective
    by less than ``min_improvement`` (relative). A user that truly
    collected leaves a large unexplained flux component until added, so
    it always clears the bar; a silent user only ever soaks up model
    error, which improves the fit just a few percent.

    Parameters
    ----------
    kernels:
        ``(K, n)`` incumbent geometry kernels, one row per user.

    Returns
    -------
    ``(active_mask, thetas, objective_value)`` — thetas are zero for
    unselected users.
    """
    kernels = np.asarray(kernels, dtype=float)
    if kernels.ndim != 2:
        raise ConfigurationError(f"kernels must be (K, n), got {kernels.shape}")
    if not 0 <= min_improvement < 1:
        raise ConfigurationError(
            f"min_improvement must be in [0, 1), got {min_improvement}"
        )
    K = kernels.shape[0]
    weighted = objective._weight_kernels(kernels)
    target = objective._weighted_target

    def fit(indices: List[int]) -> Tuple[np.ndarray, float]:
        thetas, objs = solve_thetas_batched(weighted[indices][None, :, :], target)
        return thetas[0], float(objs[0])

    selected: List[int] = []
    obj = float(np.linalg.norm(target))  # empty model: F == 0
    thetas_sel = np.zeros(0)
    remaining = list(range(K))
    while remaining:
        best_j = None
        best_obj = np.inf
        best_thetas = None
        for j in remaining:
            th, o = fit(selected + [j])
            if o < best_obj:
                best_j, best_obj, best_thetas = j, o, th
        if best_obj < (1.0 - min_improvement) * obj:
            selected.append(best_j)
            remaining.remove(best_j)
            obj = best_obj
            thetas_sel = best_thetas
        else:
            break

    mask = np.zeros(K, dtype=bool)
    thetas = np.zeros(K)
    if selected:
        mask[selected] = True
        thetas[selected] = thetas_sel
    return mask, thetas, obj


def enumerate_compositions(
    objective: FluxObjective, pools: Sequence[np.ndarray], top_m: int = 10
) -> List[CompositionFit]:
    """Exact ``prod N_j`` enumeration (small problems / ablation baseline)."""
    K = len(pools)
    sizes = [np.asarray(p).shape[0] for p in pools]
    total = int(np.prod(sizes))
    if total > 2_000_000:
        raise FittingError(
            f"exact enumeration of {total} compositions is infeasible; "
            "use coordinate descent"
        )
    kernels = [objective.model.geometry_kernels(np.asarray(p, float)) for p in pools]
    fits: List[CompositionFit] = []
    batch_idx: List[Tuple[int, ...]] = []
    batch_stacks: List[np.ndarray] = []

    def flush() -> None:
        if not batch_idx:
            return
        stacks = objective._weight_kernels(np.stack(batch_stacks))
        thetas, objs = solve_thetas_batched(stacks, objective._weighted_target)
        for i, combo in enumerate(batch_idx):
            positions = np.stack(
                [np.asarray(pools[j], float)[combo[j]] for j in range(K)]
            )
            fits.append(
                CompositionFit(
                    positions=positions,
                    thetas=thetas[i],
                    objective=float(objs[i]),
                )
            )
        batch_idx.clear()
        batch_stacks.clear()

    for combo in itertools.product(*[range(s) for s in sizes]):
        batch_idx.append(combo)
        batch_stacks.append(np.stack([kernels[j][combo[j]] for j in range(K)]))
        if len(batch_idx) >= 4096:
            flush()
    flush()
    fits.sort(key=lambda f: f.objective)
    return fits[:top_m]


class NLSLocalizer:
    """Instant localization of K users from one flux observation.

    Parameters
    ----------
    field:
        The deployment field.
    sniffer_positions:
        ``(n, 2)`` positions of the sniffed sensors.
    d_floor:
        Near-sink clamp of the flux model (see
        :class:`~repro.fluxmodel.discrete.DiscreteFluxModel`).
    """

    def __init__(
        self,
        field: Field,
        sniffer_positions: np.ndarray,
        d_floor: float = 1.0,
    ):
        self.field = field
        self.model = DiscreteFluxModel(field, sniffer_positions, d_floor=d_floor)

    def objective_for(self, observation: FluxObservation) -> FluxObjective:
        """Bind an observation (handles NaN dropout) into an objective."""
        return FluxObjective.from_observation(self.model, observation)

    def localize(
        self,
        observation: FluxObservation,
        user_count: int,
        candidate_count: int = 2000,
        top_m: int = 10,
        restarts: int = 3,
        sweeps: int = 4,
        rng: RandomState = None,
        fingerprint_map=None,
        seed_top_k: int = 32,
    ) -> LocalizationResult:
        """Estimate the positions of ``user_count`` users.

        Runs the search pipeline of :mod:`repro.fingerprint.search` — the
        one the serving layer runs — on a batch of one. Each of the
        ``restarts`` draws ``candidate_count`` candidates per user; the
        top-``top_m`` compositions across all restarts are returned
        (Fig. 5 keeps the top 10). The paper notes K need not be known
        exactly: surplus users fit ``theta -> 0``.

        Parameters
        ----------
        rng:
            An integer is the search seed itself: ``localize(obs,
            rng=7)`` equals the service's reply to a
            :class:`repro.serve.LocalizeRequest` with ``seed=7`` and the
            same knobs. ``None``, a ``SeedSequence`` or a ``Generator``
            draws the seed as ``as_generator(rng).integers(2**63 - 1)``.
        fingerprint_map:
            Optional :class:`repro.fpmap.FingerprintMap` built for this
            localizer's deployment. When given, each user's pool is
            seeded with the top-``seed_top_k`` map matches plus local
            refinement around them, instead of uniform draws — the same
            accuracy at a fraction of the candidate budget.
        seed_top_k:
            Map matches seeding each user's pool (capped by
            ``candidate_count``).
        """
        if user_count < 1:
            raise ConfigurationError(f"user_count must be >= 1, got {user_count}")
        if candidate_count < 1:
            raise ConfigurationError(
                f"candidate_count must be >= 1, got {candidate_count}"
            )
        if top_m < 1:
            raise ConfigurationError(f"top_m must be >= 1, got {top_m}")
        if fingerprint_map is not None:
            if seed_top_k < 1:
                raise ConfigurationError(
                    f"seed_top_k must be >= 1, got {seed_top_k}"
                )
            fingerprint_map.validate_against(
                self.field, self.model.node_positions, self.model.d_floor
            )
        if isinstance(rng, (int, np.integer)):
            seed = int(rng)
        else:
            seed = int(as_generator(rng).integers(2**63 - 1))
        # Deferred: the search module imports coordinate_descent from here.
        from repro.fingerprint import search

        request = search.SearchKnobs(
            observation=observation, user_count=user_count,
            candidate_count=candidate_count, top_m=top_m, restarts=restarts,
            sweeps=sweeps, seed_top_k=seed_top_k, seed=seed,
            use_map=fingerprint_map is not None,
        )
        prematch = search.fuse_map_matches(fingerprint_map, [request])[0]
        plan = search.plan_localize(
            self, fingerprint_map, request, prematch=prematch
        )
        search.fuse_pool_kernels(self.model, [plan])
        if user_count == 1:
            return search.solve_single_user_fused([plan])[0]
        return search.solve_multi_user(plan)
