"""Sequential Monte Carlo tests: samples, prediction, weighting, tracker."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, TrackingError
from repro.geometry import RectangularField
from repro.smc import (
    SequentialMonteCarloTracker,
    TrackerConfig,
    UserSamples,
    effective_sample_size,
    importance_weights,
    predict_samples,
)
from repro.smc.association import (
    assignment_errors,
    identity_consistency,
    tracking_errors_over_time,
)


class TestUserSamples:
    def _samples(self):
        return UserSamples(
            positions=np.array([[0.0, 0.0], [2.0, 0.0]]),
            weights=np.array([1.0, 3.0]),
            t_last=0.0,
        )

    def test_weights_normalized(self):
        s = self._samples()
        np.testing.assert_allclose(s.weights, [0.25, 0.75])

    def test_estimate_weighted_mean(self):
        s = self._samples()
        np.testing.assert_allclose(s.estimate(), [1.5, 0.0])

    def test_spread(self):
        s = self._samples()
        assert s.spread() == pytest.approx(np.sqrt(0.25 * 2.25 + 0.75 * 0.25))

    def test_zero_weights_raise(self):
        with pytest.raises(ConfigurationError):
            UserSamples(
                positions=np.zeros((2, 2)), weights=np.zeros(2), t_last=0.0
            )

    def test_negative_weights_raise(self):
        with pytest.raises(ConfigurationError):
            UserSamples(
                positions=np.zeros((2, 2)),
                weights=np.array([1.0, -0.5]),
                t_last=0.0,
            )

    def test_uniform_prior(self):
        field = RectangularField(10, 10)
        s = UserSamples.uniform_prior(field, 20, np.random.default_rng(0), t0=5.0)
        assert s.count == 20
        assert s.t_last == 5.0
        np.testing.assert_allclose(s.weights, 1 / 20)
        assert field.contains(s.positions).all()


class TestPrediction:
    def test_within_radius_of_some_parent(self):
        field = RectangularField(20, 20)
        samples = UserSamples(
            positions=np.array([[5.0, 5.0], [15.0, 15.0]]),
            weights=np.array([0.5, 0.5]),
            t_last=0.0,
        )
        positions, parents = predict_samples(
            field, samples, radius=2.0, count=300, rng=np.random.default_rng(0)
        )
        d = np.linalg.norm(positions - samples.positions[parents], axis=1)
        assert np.all(d <= 2.0 + 1e-9)

    def test_clipped_to_field(self):
        field = RectangularField(10, 10)
        samples = UserSamples(
            positions=np.array([[0.1, 0.1]]), weights=np.array([1.0]), t_last=0.0
        )
        positions, _ = predict_samples(
            field, samples, radius=5.0, count=200, rng=np.random.default_rng(0)
        )
        assert field.contains(positions).all()

    def test_heavy_parent_seeds_more(self):
        field = RectangularField(20, 20)
        samples = UserSamples(
            positions=np.array([[5.0, 5.0], [15.0, 15.0]]),
            weights=np.array([0.9, 0.1]),
            t_last=0.0,
        )
        _, parents = predict_samples(
            field, samples, radius=1.0, count=1000, rng=np.random.default_rng(0)
        )
        assert (parents == 0).sum() > 700

    def test_bad_radius_raises(self):
        field = RectangularField(10, 10)
        samples = UserSamples.uniform_prior(field, 5, np.random.default_rng(0))
        with pytest.raises(ConfigurationError):
            predict_samples(field, samples, radius=0.0, count=10,
                            rng=np.random.default_rng(0))


class TestWeighting:
    def test_formula(self):
        w = importance_weights(
            parent_weights=np.array([0.5, 0.5]),
            parents=np.array([0, 1]),
            objectives=np.array([1.0, 3.0]),
        )
        np.testing.assert_allclose(w, [0.75, 0.25], rtol=1e-6)

    def test_normalized(self):
        gen = np.random.default_rng(0)
        w = importance_weights(
            gen.uniform(size=10), gen.integers(0, 10, 50), gen.uniform(0.1, 5, 50)
        )
        assert w.sum() == pytest.approx(1.0)

    def test_zero_objective_handled(self):
        w = importance_weights(
            np.array([1.0]), np.array([0, 0]), np.array([0.0, 1.0])
        )
        assert np.isfinite(w).all()
        assert w[0] > w[1]

    def test_degenerate_parents_fall_back(self):
        # Parent weights all zero would zero everything: falls back to
        # likelihood-only weights.
        w = importance_weights(
            np.array([0.0, 0.0]), np.array([0, 1]), np.array([1.0, 1.0])
        )
        np.testing.assert_allclose(w, [0.5, 0.5])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ConfigurationError):
            importance_weights(np.ones(2), np.zeros(3, int), np.ones(4))

    def test_effective_sample_size(self):
        assert effective_sample_size(np.ones(8)) == pytest.approx(8.0)
        assert effective_sample_size(np.array([1.0, 0.0])) == pytest.approx(1.0)


class TestTrackerConfig:
    def test_defaults_paper(self):
        cfg = TrackerConfig()
        assert cfg.prediction_count == 1000
        assert cfg.keep_count == 10
        assert cfg.max_speed == 5.0

    def test_keep_le_predictions(self):
        with pytest.raises(ConfigurationError):
            TrackerConfig(prediction_count=5, keep_count=10)

    def test_bad_speed(self):
        with pytest.raises(ConfigurationError):
            TrackerConfig(max_speed=0.0)


class TestTracker:
    def _setup(self, small_network, user_count=1, pct=20):
        from repro.network import sample_sniffers_percentage

        gen = np.random.default_rng(11)
        sniffers = sample_sniffers_percentage(small_network, pct, rng=gen)
        tracker = SequentialMonteCarloTracker(
            small_network.field,
            small_network.positions[sniffers],
            user_count=user_count,
            config=TrackerConfig(prediction_count=300, keep_count=10, max_speed=3.0),
            rng=gen,
        )
        return sniffers, tracker

    def test_stationary_user_converges(self, small_network):
        from repro.traffic import MeasurementModel, simulate_flux

        sniffers, tracker = self._setup(small_network)
        truth = np.array([4.0, 11.0])
        mm = MeasurementModel(small_network, sniffers, smooth=True, rng=1)
        errors = []
        for t in range(6):
            flux = simulate_flux(small_network, [truth], [2.0], rng=t)
            step = tracker.step(mm.observe(flux, time=float(t)))
            errors.append(np.linalg.norm(step.estimates[0] - truth))
        assert errors[-1] < 2.5
        assert errors[-1] <= errors[0]

    def test_silent_window_updates_nobody(self, small_network):
        sniffers, tracker = self._setup(small_network)
        from repro.traffic.measurement import FluxObservation

        before = tracker.samples[0].positions.copy()
        obs = FluxObservation(
            time=1.0, sniffers=sniffers, values=np.zeros(sniffers.size)
        )
        step = tracker.step(obs)
        assert not step.active.any()
        assert np.isnan(step.objective)
        np.testing.assert_array_equal(tracker.samples[0].positions, before)

    def test_inactive_user_keeps_t_last(self, small_network):
        from repro.traffic import MeasurementModel, simulate_flux
        from repro.traffic.measurement import FluxObservation

        sniffers, tracker = self._setup(small_network, user_count=1)
        obs = FluxObservation(
            time=4.0, sniffers=sniffers, values=np.zeros(sniffers.size)
        )
        tracker.step(obs)
        assert tracker.samples[0].t_last == 0.0  # unchanged

    def test_active_user_advances_t_last(self, small_network):
        from repro.traffic import MeasurementModel, simulate_flux

        sniffers, tracker = self._setup(small_network)
        mm = MeasurementModel(small_network, sniffers, smooth=True, rng=1)
        flux = simulate_flux(small_network, [np.array([7.0, 7.0])], [2.0], rng=0)
        step = tracker.step(mm.observe(flux, time=2.5))
        if step.active[0]:
            assert tracker.samples[0].t_last == 2.5

    def test_run_requires_ordered_observations(self, small_network):
        from repro.traffic.measurement import FluxObservation

        sniffers, tracker = self._setup(small_network)
        obs = [
            FluxObservation(time=2.0, sniffers=sniffers, values=np.ones(sniffers.size)),
            FluxObservation(time=1.0, sniffers=sniffers, values=np.ones(sniffers.size)),
        ]
        with pytest.raises(TrackingError):
            tracker.run(obs)

    def test_run_empty_raises(self, small_network):
        sniffers, tracker = self._setup(small_network)
        with pytest.raises(TrackingError):
            tracker.run([])

    def test_user_count_validated(self, small_network):
        with pytest.raises(ConfigurationError):
            SequentialMonteCarloTracker(
                small_network.field, small_network.positions[:10], user_count=0
            )


class TestAssociation:
    def test_assignment_errors_permutation(self):
        est = np.array([[0.0, 0.0], [5.0, 5.0]])
        truth = np.array([[5.0, 5.0], [0.0, 0.0]])
        errors, perm = assignment_errors(est, truth)
        np.testing.assert_allclose(errors, 0.0)
        np.testing.assert_array_equal(perm, [1, 0])

    def test_assignment_errors_shape_checked(self):
        with pytest.raises(ConfigurationError):
            assignment_errors(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_identity_consistency_stable(self):
        perms = [np.array([0, 1])] * 5
        assert identity_consistency(perms) == 1.0

    def test_identity_consistency_one_swap(self):
        perms = [np.array([0, 1])] * 3 + [np.array([1, 0])] * 3
        assert identity_consistency(perms) == pytest.approx(4 / 5)

    def test_identity_consistency_short(self):
        assert identity_consistency([np.array([0])]) == 1.0

    def test_tracking_errors_over_time_shapes(self, small_network):
        from repro.smc.tracker import TrackerStep

        steps = [
            TrackerStep(
                time=float(t),
                estimates=np.array([[1.0, 1.0], [5.0, 5.0]]),
                active=np.array([True, True]),
                objective=1.0,
                sample_sets=[],
            )
            for t in range(3)
        ]
        trajectories = [np.ones((3, 2)), np.full((3, 2), 5.0)]
        errors = tracking_errors_over_time(steps, trajectories)
        assert errors.shape == (3, 2)
        np.testing.assert_allclose(errors, 0.0)

    def test_tracking_errors_interpolated(self):
        from repro.smc.tracker import TrackerStep

        steps = [
            TrackerStep(
                time=0.5,
                estimates=np.array([[0.5, 0.0]]),
                active=np.array([True]),
                objective=1.0,
                sample_sets=[],
            )
        ]
        trajectories = [np.array([[0.0, 0.0], [1.0, 0.0]])]
        errors = tracking_errors_over_time(steps, trajectories, times=[0.0, 1.0])
        np.testing.assert_allclose(errors, 0.0, atol=1e-12)
