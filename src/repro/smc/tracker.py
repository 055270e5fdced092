"""The Sequential Monte Carlo tracker — paper Algorithm 4.1.

Per observation window:

1. **Prediction** — for each user, draw N candidate positions from
   discs of radius ``v_max * (t - t_last)`` around the previous
   samples (Formula 4.2).
2. **Filtering** — rank the candidates by NLS objective against the
   flux observation (coordinate-descent composition search; see
   :mod:`repro.fingerprint.nls`) and keep the top M per user, by
   objective, then by candidate index.
3. **Asynchronous updating** — a user whose best-fit ``s/r``
   vanishes did not collect in this window: its samples and
   ``t_last`` stay untouched, so its next prediction radius grows.
4. **Importance sampling** — surviving samples get weights
   ``w_parent / (objective + eps)``, normalized (Formula 4.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError, TrackingError
from repro.fingerprint.nls import coordinate_descent, forward_select_active
from repro.fingerprint.objective import FluxObjective
from repro.fluxmodel.discrete import DiscreteFluxModel
from repro.geometry.field import Field
from repro.smc.prediction import predict_samples
from repro.smc.samples import UserSamples
from repro.smc.weighting import importance_weights
from repro.traffic.measurement import FluxObservation
from repro.util.rng import RandomState, as_generator
from repro.util.validation import check_positive


@dataclass
class TrackerConfig:
    """Knobs of Algorithm 4.1 (defaults follow the paper's Section V.B).

    Attributes
    ----------
    prediction_count:
        N — predictive samples drawn per user per round (paper: 1000).
    keep_count:
        M — samples kept after filtering (paper: 10).
    max_speed:
        v_max — the only mobility knowledge assumed (paper: 5 per
        detection interval).
    theta_floor:
        Best-fit ``s/r`` at or below this means "user did not collect
        this round" (the paper's ``s_i/r -> 0`` test).
    activity_tolerance:
        Minimum relative fit improvement a user's inclusion must buy
        in the forward-selection activity test
        (:func:`repro.fingerprint.nls.forward_select_active`); users
        below it are deemed silent this round.
    d_floor:
        Near-sink clamp of the flux model.
    sweeps:
        Coordinate-descent sweeps per filtering phase.
    likelihood_epsilon:
        Epsilon of the reciprocal-objective likelihood proxy.
    resampling:
        Parent-selection scheme for prediction (see
        :mod:`repro.smc.resampling`).
    adaptive_predictions:
        Scale the per-round prediction count to the posterior spread
        and prediction radius (:mod:`repro.smc.adaptive`);
        ``prediction_count`` becomes the upper bound.
    reseed_after_misses:
        Fingerprint-map recovery (requires a map attached to the
        tracker): a user inactive for this many consecutive flux-
        bearing windows has a degenerate sample set — its cloud no
        longer covers the user — and is re-seeded from the map's top
        signature matches instead of waiting for the prediction disc
        to swallow the whole field. ``0`` disables the trigger.
    """

    prediction_count: int = 1000
    keep_count: int = 10
    max_speed: float = 5.0
    theta_floor: float = 1e-3
    activity_tolerance: float = 0.15
    d_floor: float = 1.0
    sweeps: int = 3
    likelihood_epsilon: float = 1e-9
    resampling: str = "multinomial"
    adaptive_predictions: bool = False
    reseed_after_misses: int = 0

    def __post_init__(self) -> None:
        if self.resampling not in ("multinomial", "systematic", "residual"):
            raise ConfigurationError(
                f"unknown resampling {self.resampling!r}"
            )
        if self.prediction_count < 1:
            raise ConfigurationError("prediction_count must be >= 1")
        if not 1 <= self.keep_count <= self.prediction_count:
            raise ConfigurationError(
                "keep_count must be in [1, prediction_count], got "
                f"{self.keep_count} vs {self.prediction_count}"
            )
        check_positive("max_speed", self.max_speed)
        check_positive("theta_floor", self.theta_floor)
        check_positive("activity_tolerance", self.activity_tolerance, strict=False)
        check_positive("d_floor", self.d_floor)
        if self.sweeps < 1:
            raise ConfigurationError("sweeps must be >= 1")
        check_positive("likelihood_epsilon", self.likelihood_epsilon)
        if self.reseed_after_misses < 0:
            raise ConfigurationError(
                f"reseed_after_misses must be >= 0, got {self.reseed_after_misses}"
            )


@dataclass
class TrackerStep:
    """Outcome of one observation round.

    Attributes
    ----------
    time:
        Window time of the observation.
    estimates:
        ``(K, 2)`` per-user position estimates (weighted sample means)
        *after* this round — stale for users that were inactive.
    active:
        ``(K,)`` booleans: whether each user's samples were updated.
    objective:
        Best NLS objective of the round's incumbent composition
        (NaN when every user was inactive).
    sample_sets:
        Snapshot of each user's current samples.
    reseeded:
        ``(K,)`` booleans: whether each user's sample set was replaced
        by fingerprint-map matches this round (degenerate weights or
        the consecutive-miss threshold). All-False when no map is
        attached.
    """

    time: float
    estimates: np.ndarray
    active: np.ndarray
    objective: float
    sample_sets: List[UserSamples]
    reseeded: Optional[np.ndarray] = None


class SequentialMonteCarloTracker:
    """Tracks K mobile users from a stream of flux observations.

    Parameters
    ----------
    field:
        Deployment field.
    sniffer_positions:
        ``(n, 2)`` positions of the sniffed sensors; observations must
        carry readings aligned to this set.
    user_count:
        K — may be chosen conservatively large (surplus users simply
        stay inactive).
    config:
        Algorithm knobs; defaults follow the paper.
    start_time:
        Initialization time ``t_last = 0`` of Algorithm 4.1.
    fingerprint_map:
        Optional :class:`repro.fpmap.FingerprintMap` built for this
        exact deployment; enables the degenerate-sample recovery path
        (see :meth:`attach_map`). Validated on attach.
    """

    def __init__(
        self,
        field: Field,
        sniffer_positions: np.ndarray,
        user_count: int,
        config: Optional[TrackerConfig] = None,
        start_time: float = 0.0,
        rng: RandomState = None,
        fingerprint_map=None,
    ):
        if user_count < 1:
            raise ConfigurationError(f"user_count must be >= 1, got {user_count}")
        self.field = field
        self.config = config if config is not None else TrackerConfig()
        self.user_count = user_count
        self.model = DiscreteFluxModel(
            field, np.asarray(sniffer_positions, dtype=float),
            d_floor=self.config.d_floor,
        )
        self._rng = as_generator(rng)
        # Initialization: M random positions, equal weights (Algorithm 4.1).
        self.samples: List[UserSamples] = [
            UserSamples.uniform_prior(
                field, self.config.keep_count, self._rng, t0=start_time
            )
            for _ in range(user_count)
        ]
        # Consecutive flux-bearing windows each user sat out; drives the
        # map-reseed trigger. Silent (zero-flux) windows don't count.
        self.miss_counts = np.zeros(user_count, dtype=np.int64)
        self.fingerprint_map = None
        if fingerprint_map is not None:
            self.attach_map(fingerprint_map)

    # ------------------------------------------------------------------
    def attach_map(self, fingerprint_map) -> None:
        """Attach (or with ``None`` detach) a fingerprint map.

        The map must have been built for *this* deployment — same
        field, same sniffer positions, same ``d_floor`` — or a
        :class:`~repro.errors.ConfigurationError` is raised; a map of a
        stale sniffer set would reseed users onto wrong signatures.
        """
        if fingerprint_map is not None:
            fingerprint_map.validate_against(
                self.field, self.model.node_positions, self.config.d_floor
            )
        self.fingerprint_map = fingerprint_map

    # ------------------------------------------------------------------
    def step(self, observation: FluxObservation) -> TrackerStep:
        """Process one flux observation window (one iteration of Alg. 4.1)."""
        cfg = self.config
        t = float(observation.time)
        objective = FluxObjective.from_observation(self.model, observation)

        # Fast path: a silent window (zero flux) updates nobody.
        if float(np.nansum(np.abs(observation.values))) <= 0.0:
            return self._inactive_step(t)

        # Prediction phase.
        pools: List[np.ndarray] = []
        parent_idx: List[np.ndarray] = []
        radii: List[float] = []
        for user in range(self.user_count):
            dt = max(t - self.samples[user].t_last, 1e-9)
            radius = cfg.max_speed * dt
            if cfg.adaptive_predictions:
                from repro.smc.adaptive import adaptive_prediction_count

                count = adaptive_prediction_count(
                    self.samples[user],
                    radius,
                    min_count=min(100, cfg.prediction_count),
                    max_count=cfg.prediction_count,
                )
            else:
                count = cfg.prediction_count
            positions, parents = predict_samples(
                self.field,
                self.samples[user],
                radius,
                count,
                self._rng,
                method=cfg.resampling,
            )
            pools.append(positions)
            parent_idx.append(parents)
            radii.append(radius)

        # Filtering phase: composition search + per-user rankings.
        outcome = coordinate_descent(
            objective, pools, rng=self._rng, sweeps=cfg.sweeps
        )

        # Asynchronous updating: decide who actually collected. The
        # paper's test is "best fit s/r -> 0"; operationally a user is
        # active only if *adding* it to the model improves the fit
        # substantially (see forward_select_active), plus the absolute
        # theta floor.
        # Use the objective's model: it is restricted to the non-NaN
        # sniffers when readings dropped out, and the activity test must
        # compare kernels and target over the same node set.
        incumbent_positions = np.stack(
            [pools[u][outcome.best_indices[u]] for u in range(self.user_count)]
        )
        incumbent_kernels = objective.model.geometry_kernels(incumbent_positions)
        active_mask, pruned_thetas, _ = forward_select_active(
            objective, incumbent_kernels, min_improvement=cfg.activity_tolerance
        )
        active = np.zeros(self.user_count, dtype=bool)
        reseeded = np.zeros(self.user_count, dtype=bool)
        for user in range(self.user_count):
            if not active_mask[user] or pruned_thetas[user] <= cfg.theta_floor:
                continue  # user silent this round
            active[user] = True
            keep, objs, _ = outcome.ranked(user, cfg.keep_count)
            if self.fingerprint_map is not None:
                # Recovery trigger (a): the raw importance mass
                # underflowed — every surviving sample descends from
                # zero-weight parents or has an unusable likelihood, so
                # Formula 4.3 would renormalize noise. Restart the
                # user's posterior from the map instead.
                likelihood = 1.0 / (objs + cfg.likelihood_epsilon)
                raw_mass = float(
                    np.sum(
                        self.samples[user].weights[parent_idx[user][keep]]
                        * likelihood
                    )
                )
                if raw_mass <= 0.0 or not np.isfinite(raw_mass):
                    self.samples[user] = self._reseed_from_map(
                        observation.values, t
                    )
                    reseeded[user] = True
                    self.miss_counts[user] = 0
                    continue
            weights = importance_weights(
                self.samples[user].weights,
                parent_idx[user][keep],
                objs,
                epsilon=cfg.likelihood_epsilon,
            )
            self.samples[user] = UserSamples(
                positions=pools[user][keep],
                weights=weights,
                t_last=t,
            )

        # Recovery trigger (b): a user who sat out too many consecutive
        # flux-bearing windows has drifted out of its own sample cloud;
        # its growing prediction disc eventually covers the whole field,
        # which is just expensive uniform re-initialization. Reseeding
        # from the map's signature matches restarts it where the
        # evidence points.
        for user in range(self.user_count):
            if active[user] or reseeded[user]:
                self.miss_counts[user] = 0
                continue
            self.miss_counts[user] += 1
            if (
                self.fingerprint_map is not None
                and cfg.reseed_after_misses > 0
                and self.miss_counts[user] >= cfg.reseed_after_misses
            ):
                self.samples[user] = self._reseed_from_map(
                    observation.values, t
                )
                reseeded[user] = True
                self.miss_counts[user] = 0

        estimates = np.stack([s.estimate() for s in self.samples])
        return TrackerStep(
            time=t,
            estimates=estimates,
            active=active,
            objective=float(outcome.best_objective),
            sample_sets=[s for s in self.samples],
            reseeded=reseeded,
        )

    def _reseed_from_map(self, values: np.ndarray, t: float) -> UserSamples:
        """Replace a degenerate sample set with top map matches.

        The new samples are the ``keep_count`` best-matching cells for
        the window's flux vector, weighted by reciprocal match residual
        (the same likelihood proxy as Formula 4.3), with ``t_last``
        reset so the next prediction disc is local again.
        """
        fmap = self.fingerprint_map
        match = fmap.match(
            np.asarray(values, dtype=float),
            k=min(self.config.keep_count, fmap.cell_count),
        )
        weights = 1.0 / (match.residuals + self.config.likelihood_epsilon)
        return UserSamples(
            positions=match.positions.copy(),
            weights=weights,
            t_last=float(t),
        )

    def _inactive_step(self, t: float) -> TrackerStep:
        estimates = np.stack([s.estimate() for s in self.samples])
        return TrackerStep(
            time=t,
            estimates=estimates,
            active=np.zeros(self.user_count, dtype=bool),
            objective=float("nan"),
            sample_sets=[s for s in self.samples],
            reseeded=np.zeros(self.user_count, dtype=bool),
        )

    # ------------------------------------------------------------------
    def run(self, observations: Sequence[FluxObservation]) -> List[TrackerStep]:
        """Process a time-ordered observation stream; returns all steps."""
        if not observations:
            raise TrackingError("run() needs at least one observation")
        times = [o.time for o in observations]
        if any(b < a for a, b in zip(times, times[1:])):
            raise TrackingError("observations must be time-ordered")
        return [self.step(o) for o in observations]

    def estimates(self) -> np.ndarray:
        """Current ``(K, 2)`` per-user position estimates."""
        return np.stack([s.estimate() for s in self.samples])
