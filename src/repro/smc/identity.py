"""Identity-aware tracking extension.

The paper observes (Fig. 7d) that when two users' trajectories cross,
the tracker keeps their *locations* but may swap their *identities*:
network flux carries no labels. It does, however, carry one more
per-user invariant the base algorithm throws away — the traffic
stretch ``s_j`` is a property of the *user* (their data interest) and
stays stable across rounds, while ``r`` is a property of the network.
The fitted factor ``theta_j = s_j / r`` is therefore a per-user
fingerprint.

:class:`IdentityAwareTracker` wraps the base SMC tracker and, after
each round, considers permuting the active slots' sample sets: if
reassigning sample sets to slots makes the round's fitted thetas agree
better with each slot's running stretch estimate — and the permuted
sample sets remain compatible with each slot's motion bound — the swap
is applied. Flux explains the *set* of positions, not their labels, so
permutations never change the fit quality; they only re-label it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.smc.tracker import (
    SequentialMonteCarloTracker,
    TrackerConfig,
    TrackerStep,
)
from repro.traffic.measurement import FluxObservation
from repro.util.rng import RandomState
from repro.util.validation import check_in_range, check_positive


@dataclass
class _SlotFingerprint:
    """Running stretch estimate (EW mean + variance) for one slot."""

    theta_mean: float = 0.0
    theta_var: float = 0.0
    observations: int = 0

    def update(self, theta: float, alpha: float) -> None:
        if self.observations == 0:
            self.theta_mean = theta
            self.theta_var = 0.0
        else:
            delta = theta - self.theta_mean
            self.theta_mean += alpha * delta
            # Exponentially weighted variance (West 1979 style).
            self.theta_var = (1 - alpha) * (self.theta_var + alpha * delta**2)
        self.observations += 1

    @property
    def confident(self) -> bool:
        return self.observations >= 3

    @property
    def theta_std(self) -> float:
        return float(np.sqrt(max(self.theta_var, 0.0)))


class IdentityAwareTracker:
    """SMC tracker + stretch-fingerprint identity maintenance.

    Drop-in alternative to
    :class:`~repro.smc.tracker.SequentialMonteCarloTracker`: same
    constructor signature plus two knobs.

    Parameters
    ----------
    ewma_alpha:
        Smoothing of each slot's running stretch estimate.
    max_permutation_size:
        Permutations are searched only among this many simultaneously
        active slots (cost grows factorially; crossings involve 2-3).
    swap_margin:
        A permutation is applied only if it reduces the stretch
        disagreement by at least this *fraction* — round-level theta
        fits are noisy (model error), so marginal improvements are
        more likely noise than a real label swap.
    """

    def __init__(
        self,
        field,
        sniffer_positions,
        user_count: int,
        config: Optional[TrackerConfig] = None,
        start_time: float = 0.0,
        ewma_alpha: float = 0.3,
        max_permutation_size: int = 4,
        swap_margin: float = 0.5,
        rng: RandomState = None,
    ):
        check_in_range("ewma_alpha", ewma_alpha, 0.0, 1.0, inclusive=(False, True))
        check_in_range("swap_margin", swap_margin, 0.0, 1.0)
        if max_permutation_size < 2:
            raise ConfigurationError(
                f"max_permutation_size must be >= 2, got {max_permutation_size}"
            )
        self.base = SequentialMonteCarloTracker(
            field,
            sniffer_positions,
            user_count,
            config=config,
            start_time=start_time,
            rng=rng,
        )
        self.ewma_alpha = float(ewma_alpha)
        self.max_permutation_size = int(max_permutation_size)
        self.swap_margin = float(swap_margin)
        self.fingerprints = [_SlotFingerprint() for _ in range(user_count)]
        self.swap_count = 0

    # Expose the base tracker's read API.
    @property
    def user_count(self) -> int:
        return self.base.user_count

    def estimates(self) -> np.ndarray:
        return self.base.estimates()

    # ------------------------------------------------------------------
    def step(self, observation: FluxObservation) -> TrackerStep:
        """One round: base SMC step, then identity correction."""
        prev_estimates = self.base.estimates()
        prev_t_last = [s.t_last for s in self.base.samples]
        step = self.base.step(observation)
        active = np.flatnonzero(step.active)
        if active.size >= 2 and active.size <= self.max_permutation_size:
            round_thetas = self._round_thetas(observation, active)
            if round_thetas is not None:
                self._maybe_permute(
                    active, round_thetas, prev_estimates, prev_t_last, step
                )
        # Update fingerprints with the (possibly re-labelled) thetas.
        thetas = self._round_thetas(observation, active)
        if thetas is not None:
            for slot, theta in zip(active, thetas):
                self.fingerprints[slot].update(float(theta), self.ewma_alpha)
        return step

    def run(self, observations) -> List[TrackerStep]:
        return [self.step(o) for o in observations]

    # ------------------------------------------------------------------
    def _round_thetas(
        self, observation: FluxObservation, active: np.ndarray
    ) -> Optional[np.ndarray]:
        """Fit thetas for the active slots' current estimates."""
        if active.size == 0:
            return None
        from repro.fingerprint.objective import FluxObjective, solve_thetas

        objective = FluxObjective.from_observation(self.base.model, observation)
        positions = np.stack(
            [self.base.samples[slot].estimate() for slot in active]
        )
        kernels = objective.model.geometry_kernels(positions)
        thetas, _ = solve_thetas(
            objective._weight_kernels(kernels), objective._weighted_target
        )
        return thetas

    def _maybe_permute(
        self,
        active: np.ndarray,
        round_thetas: np.ndarray,
        prev_estimates: np.ndarray,
        prev_t_last: List[float],
        step: TrackerStep,
    ) -> None:
        """Re-label active slots' sample sets to match stretch history."""
        confident = [self.fingerprints[slot].confident for slot in active]
        if not all(confident):
            return
        targets = np.array(
            [self.fingerprints[slot].theta_mean for slot in active]
        )
        # Stretch fingerprints only discriminate when the users' running
        # stretch estimates are separated beyond their own noise level;
        # otherwise round-level theta noise would drive spurious swaps.
        spread = targets.max() - targets.min()
        noise = float(
            np.mean([self.fingerprints[slot].theta_std for slot in active])
        )
        if spread < max(2.0 * noise, 0.25 * max(float(targets.mean()), 1e-9)):
            return
        radius_slack = 1.5  # motion-feasibility slack factor

        def feasible(perm) -> bool:
            # Slot `active[i]` receives the sample set currently held by
            # slot `active[perm[i]]`; its new estimate must be reachable
            # from its own previous estimate within the speed bound.
            for i, j in enumerate(perm):
                slot = active[i]
                source = active[j]
                dt = max(step.time - prev_t_last[slot], 1e-9)
                reach = self.base.config.max_speed * dt * radius_slack
                new_est = self.base.samples[source].estimate()
                if np.linalg.norm(new_est - prev_estimates[slot]) > reach:
                    return False
            return True

        def cost(perm) -> float:
            return float(
                np.sum(np.abs(round_thetas[list(perm)] - targets))
            )

        identity = tuple(range(active.size))
        identity_cost = cost(identity)
        # Require a clear margin: round-level theta fits are noisy.
        threshold = (1.0 - self.swap_margin) * identity_cost
        best_perm, best_cost = identity, identity_cost
        for perm in itertools.permutations(range(active.size)):
            if perm == identity:
                continue
            c = cost(perm)
            if c < min(best_cost - 1e-9, threshold) and feasible(perm):
                best_perm, best_cost = perm, c

        if best_perm != identity:
            self.swap_count += 1
            originals = [self.base.samples[slot] for slot in active]
            for i, j in enumerate(best_perm):
                self.base.samples[active[i]] = originals[j]
            step.estimates[active] = np.stack(
                [self.base.samples[slot].estimate() for slot in active]
            )
