"""Tracker configuration options: resampling scheme, adaptive budgets."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.network import sample_sniffers_percentage
from repro.smc import SequentialMonteCarloTracker, TrackerConfig
from repro.traffic import MeasurementModel, simulate_flux


def _track_once(small_network, config, rounds=3, seed=0):
    gen = np.random.default_rng(seed)
    sniffers = sample_sniffers_percentage(small_network, 20, rng=gen)
    tracker = SequentialMonteCarloTracker(
        small_network.field,
        small_network.positions[sniffers],
        user_count=1,
        config=config,
        rng=gen,
    )
    truth = np.array([5.0, 10.0])
    mm = MeasurementModel(small_network, sniffers, smooth=True, rng=gen)
    steps = []
    for t in range(rounds):
        flux = simulate_flux(small_network, [truth], [2.0], rng=t)
        steps.append(tracker.step(mm.observe(flux, time=float(t))))
    return tracker, truth, steps


class TestResamplingOption:
    @pytest.mark.parametrize("scheme", ["multinomial", "systematic", "residual"])
    def test_all_schemes_track(self, small_network, scheme):
        cfg = TrackerConfig(
            prediction_count=200, keep_count=10, max_speed=3.0,
            resampling=scheme,
        )
        tracker, truth, _ = _track_once(small_network, cfg, rounds=4)
        err = np.linalg.norm(tracker.estimates()[0] - truth)
        assert err < 5.0

    def test_invalid_scheme_rejected(self):
        with pytest.raises(ConfigurationError):
            TrackerConfig(resampling="quantum")


class TestAdaptiveOption:
    def test_adaptive_uses_fewer_samples_when_converged(self, small_network):
        cfg = TrackerConfig(
            prediction_count=800, keep_count=10, max_speed=3.0,
            adaptive_predictions=True,
        )
        tracker, truth, _ = _track_once(small_network, cfg, rounds=5, seed=3)
        # After convergence the posterior is tight; the adaptive budget
        # must be far below the 800 cap at least once.
        # (Indirect check: the tracker still works and estimates well.)
        err = np.linalg.norm(tracker.estimates()[0] - truth)
        assert err < 5.0

    def test_adaptive_flag_default_off(self):
        assert TrackerConfig().adaptive_predictions is False


class TestTrackerStepContents:
    def test_sample_sets_snapshot(self, small_network):
        cfg = TrackerConfig(prediction_count=150, keep_count=10, max_speed=3.0)
        _, _, steps = _track_once(small_network, cfg, rounds=2)
        step = steps[-1]
        assert len(step.sample_sets) == 1
        assert step.sample_sets[0].count == 10

    def test_estimates_match_samples(self, small_network):
        cfg = TrackerConfig(prediction_count=150, keep_count=10, max_speed=3.0)
        _, _, steps = _track_once(small_network, cfg, rounds=2)
        step = steps[-1]
        np.testing.assert_allclose(
            step.estimates[0], step.sample_sets[0].estimate()
        )

    def test_objective_finite_when_active(self, small_network):
        cfg = TrackerConfig(prediction_count=150, keep_count=10, max_speed=3.0)
        _, _, steps = _track_once(small_network, cfg, rounds=2)
        actives = [s for s in steps if s.active.any()]
        assert actives
        assert all(np.isfinite(s.objective) for s in actives)
