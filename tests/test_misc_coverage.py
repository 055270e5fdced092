"""Coverage for smaller branches: viz labels, adaptive in-tracker,
field helpers, experiment helpers."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.geometry import CircularField, PolygonField, RectangularField


class TestFieldHelpers:
    def test_rect_repr(self):
        assert "RectangularField" in repr(RectangularField(3, 4))

    def test_circle_repr(self):
        assert "CircularField" in repr(CircularField(2.0))

    def test_polygon_repr(self):
        p = PolygonField([(0, 0), (1, 0), (0, 1)])
        assert "3 vertices" in repr(p)

    def test_polygon_bounding_box(self):
        p = PolygonField([(0, 0), (4, 0), (4, 2), (0, 2)])
        assert p.bounding_box == (0.0, 0.0, 4.0, 2.0)

    def test_circle_clip_keeps_inside_points(self):
        f = CircularField(2.0)
        pts = np.array([[0.5, 0.5]])
        np.testing.assert_allclose(f.clip(pts), pts)

    def test_default_clip_is_bbox_clamp(self):
        p = PolygonField([(0, 0), (4, 0), (4, 4), (0, 4)])
        out = p.clip(np.array([[10.0, -3.0]]))
        np.testing.assert_allclose(out, [[4.0, 0.0]])

    def test_diameter(self):
        assert CircularField(3.0).diameter == pytest.approx(6 * np.sqrt(2))


class TestRadiusForDegree:
    def test_formula(self):
        from repro.experiments.model_accuracy import _radius_for_degree

        r = _radius_for_degree(12.0, 2500, 50.0)
        rho = 2500 / 2500.0
        assert np.pi * rho * r**2 == pytest.approx(12.0)

    def test_invalid_degree(self):
        from repro.experiments.model_accuracy import _radius_for_degree

        with pytest.raises(ConfigurationError):
            _radius_for_degree(0.0, 100, 10.0)


class TestAdaptiveInTracker:
    def test_adaptive_counts_vary_with_convergence(self, small_network):
        """After convergence the drawn pool shrinks below the cap."""
        from repro.network import sample_sniffers_percentage
        from repro.smc import SequentialMonteCarloTracker, TrackerConfig
        from repro.traffic import MeasurementModel, simulate_flux

        gen = np.random.default_rng(5)
        sniffers = sample_sniffers_percentage(small_network, 20, rng=gen)
        cfg = TrackerConfig(
            prediction_count=900, keep_count=10, max_speed=2.0,
            adaptive_predictions=True,
        )
        tracker = SequentialMonteCarloTracker(
            small_network.field,
            small_network.positions[sniffers],
            1,
            cfg,
            rng=gen,
        )
        truth = np.array([6.0, 9.0])
        mm = MeasurementModel(small_network, sniffers, smooth=True, rng=gen)
        from repro.smc.adaptive import adaptive_prediction_count

        prior_count = adaptive_prediction_count(
            tracker.samples[0], cfg.max_speed, min_count=100, max_count=900
        )
        counts = []
        for t in range(5):
            flux = simulate_flux(small_network, [truth], [2.0], rng=t)
            tracker.step(mm.observe(flux, time=float(t)))
            counts.append(
                adaptive_prediction_count(
                    tracker.samples[0],
                    cfg.max_speed,
                    min_count=100,
                    max_count=900,
                )
            )
        # The uniform prior needs the largest budget; converged
        # posteriors need (much) less. All counts stay within bounds.
        assert prior_count >= max(counts)
        assert all(100 <= c <= 900 for c in counts)


class TestVizLabels:
    def test_series_with_labels(self):
        from repro.viz import render_series

        xs = np.array([0.0, 1.0])
        out = render_series(
            {"s": (xs, xs)}, x_label="round", y_label="error"
        )
        assert "error vs round" in out

    def test_series_ylabel_only(self):
        from repro.viz import render_series

        xs = np.array([0.0, 1.0])
        out = render_series({"s": (xs, xs)}, y_label="error")
        assert out.startswith("error")

    def test_plot_too_small_rejected(self):
        from repro.viz import render_series

        with pytest.raises(ConfigurationError):
            render_series(
                {"s": (np.zeros(2), np.zeros(2))}, width=4, height=2
            )


class TestSweepOutcomeInternals:
    def test_sweep_outcome_fields(self, small_network):
        from repro.fingerprint.nls import coordinate_descent
        from repro.fingerprint.objective import FluxObjective
        from repro.fluxmodel.discrete import DiscreteFluxModel
        from repro.traffic import simulate_flux
        from repro.traffic.measurement import FluxObservation

        gen = np.random.default_rng(0)
        flux = simulate_flux(small_network, [np.array([7.0, 7.0])], [2.0], rng=gen)
        sniffers = np.arange(40)
        model = DiscreteFluxModel(
            small_network.field, small_network.positions[sniffers], d_floor=1.0
        )
        obs = FluxObservation(
            time=0.0, sniffers=sniffers, values=flux[sniffers]
        )
        objective = FluxObjective.from_observation(model, obs)
        pools = [small_network.field.sample_uniform(50, gen)]
        out = coordinate_descent(objective, pools, rng=gen)
        assert out.best_indices.shape == (1,)
        assert out.best_thetas.shape == (1,)
        assert np.isfinite(out.best_objective)
        # Best index heads the final per-user ranking.
        indices, objectives, _ = out.ranked(0, 1)
        assert out.best_indices[0] == int(indices[0])
        assert objectives[0] == out.best_objective
