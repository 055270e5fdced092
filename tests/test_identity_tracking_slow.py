"""Behavioural tests for the identity-aware tracker on crossings."""

import numpy as np
import pytest

from repro.mobility import crossing_trajectories
from repro.network import build_network, sample_sniffers_percentage
from repro.smc import SequentialMonteCarloTracker, TrackerConfig
from repro.smc.association import assignment_errors
from repro.smc.identity import IdentityAwareTracker
from repro.traffic import FluxSimulator, MeasurementModel, synchronous_schedule


def _run_crossing(tracker_cls, seed, stretches):
    gen = np.random.default_rng(seed)
    net = build_network(node_count=400, radius=2.4, rng=gen)
    a, b = crossing_trajectories(net.field, 12)
    schedule = synchronous_schedule([a.positions, b.positions], stretches)
    sim = FluxSimulator(net, rng=gen)
    sniffers = sample_sniffers_percentage(net, 20, rng=gen)
    measure = MeasurementModel(net, sniffers, smooth=True, rng=gen)
    tracker = tracker_cls(
        net.field,
        net.positions[sniffers],
        2,
        TrackerConfig(prediction_count=300, keep_count=10, max_speed=5.0),
        rng=gen,
    )
    perms, steps = [], []
    for k, (t, events) in enumerate(schedule.windows(1.0)):
        step = tracker.step(
            measure.observe(sim.window_flux(events).total, time=t)
        )
        truth = np.stack([a.positions[k], b.positions[k]])
        _, p = assignment_errors(step.estimates, truth)
        perms.append(p)
        steps.append(step)
    return perms, tracker, steps


@pytest.mark.slow
class TestIdentityAwareTracking:
    def test_no_swaps_with_indistinct_stretches(self):
        """Equal stretches give no fingerprint: the separation gate
        must suppress permutation attempts entirely."""
        swaps = 0
        for seed in (1, 2, 3):
            _, tracker, _ = _run_crossing(
                IdentityAwareTracker, seed, [2.0, 2.0]
            )
            swaps += tracker.swap_count
        assert swaps == 0

    def test_swap_counter_increments_with_distinct_stretches(self):
        total_swaps = 0
        for seed in (1, 2, 3, 4):
            _, tracker, _ = _run_crossing(
                IdentityAwareTracker, seed, [3.0, 1.0]
            )
            total_swaps += tracker.swap_count
        # Some crossing runs trigger at least one corrective swap.
        assert total_swaps >= 1

    def test_history_shared_with_base(self):
        # Each step returned is the base tracker's, re-labelled in place
        # when the identity correction swaps sample sets.
        perms, tracker, steps = _run_crossing(
            IdentityAwareTracker, 7, [3.0, 1.0]
        )
        assert len(steps) == len(perms)
        np.testing.assert_array_equal(
            steps[-1].estimates, tracker.estimates()
        )
