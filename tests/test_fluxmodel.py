"""Flux-model tests: continuous/discrete formulas, calibration, accuracy."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.fluxmodel import (
    DiscreteFluxModel,
    continuous_flux,
    estimate_hop_distance,
    model_flux,
)
from repro.fluxmodel.accuracy import (
    approximation_error_rates,
    flux_by_hops,
    model_accuracy_report,
)
from repro.geometry import RectangularField
from repro.routing import build_collection_tree


class TestContinuousFlux:
    def test_formula(self):
        # F = s (l^2 - d^2) / (2 d)
        assert continuous_flux(2.0, 4.0, stretch=1.0) == pytest.approx(3.0)

    def test_stretch_scales(self):
        assert continuous_flux(2.0, 4.0, stretch=3.0) == pytest.approx(9.0)

    def test_zero_at_boundary(self):
        assert continuous_flux(4.0, 4.0) == pytest.approx(0.0)

    def test_beyond_boundary_clamped(self):
        assert continuous_flux(5.0, 4.0) == 0.0

    def test_d_floor_prevents_blowup(self):
        v = continuous_flux(0.0, 4.0, d_floor=0.5)
        assert np.isfinite(v)
        assert v == pytest.approx((16 - 0.25) / 1.0)

    def test_monotone_decreasing_in_d(self):
        d = np.linspace(0.5, 3.9, 30)
        f = continuous_flux(d, np.full_like(d, 4.0))
        assert np.all(np.diff(f) < 0)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ConfigurationError):
            continuous_flux(np.ones(3), np.ones(4))

    def test_negative_stretch_raises(self):
        with pytest.raises(ConfigurationError):
            continuous_flux(1.0, 2.0, stretch=-1.0)


class TestDiscreteFluxModel:
    def _model(self, n=30, d_floor=1.0):
        field = RectangularField(10, 10)
        nodes = field.sample_uniform(n, np.random.default_rng(0))
        return field, nodes, DiscreteFluxModel(field, nodes, d_floor=d_floor)

    def test_kernel_nonnegative(self):
        _, _, model = self._model()
        g = model.geometry_kernel(np.array([5.0, 5.0]))
        assert np.all(g >= 0)

    def test_kernel_formula_center(self):
        field = RectangularField(10, 10)
        nodes = np.array([[7.0, 5.0]])  # d=2, l=5 along +x from center
        model = DiscreteFluxModel(field, nodes, d_floor=0.1)
        g = model.geometry_kernel(np.array([5.0, 5.0]))
        assert g[0] == pytest.approx((25 - 4) / 4)

    def test_kernels_match_kernel(self):
        _, _, model = self._model()
        sinks = np.array([[2.0, 3.0], [8.0, 8.0]])
        batch = model.geometry_kernels(sinks)
        for j in range(2):
            assert np.array_equal(batch[j], model.geometry_kernel(sinks[j]))

    def test_kernels_clip_outside_sinks(self):
        _, _, model = self._model()
        out = model.geometry_kernels(np.array([[-5.0, 5.0]]))
        clipped = model.geometry_kernel(np.array([0.0, 5.0]))
        assert np.array_equal(out[0], clipped)

    def test_d_floor_applied(self):
        field = RectangularField(10, 10)
        nodes = np.array([[5.0, 5.0]])  # node at the sink
        model = DiscreteFluxModel(field, nodes, d_floor=1.0)
        g = model.geometry_kernel(np.array([5.0, 5.0]))
        assert np.isfinite(g[0]) and g[0] > 0

    def test_predict_linear_in_theta(self):
        _, _, model = self._model()
        sinks = np.array([[3.0, 3.0], [7.0, 7.0]])
        f1 = model.predict(sinks, [1.0, 0.0])
        f2 = model.predict(sinks, [0.0, 2.0])
        f12 = model.predict(sinks, [1.0, 2.0])
        np.testing.assert_allclose(f12, f1 + f2, atol=1e-9)

    def test_predict_rejects_negative_theta(self):
        _, _, model = self._model()
        with pytest.raises(ConfigurationError):
            model.predict(np.array([[5.0, 5.0]]), [-1.0])

    def test_predict_theta_count_checked(self):
        _, _, model = self._model()
        with pytest.raises(ConfigurationError):
            model.predict(np.array([[5.0, 5.0]]), [1.0, 2.0])

    def test_restrict_to(self):
        _, nodes, model = self._model()
        sub = model.restrict_to(np.array([0, 2, 4]))
        assert sub.node_count == 3
        g_full = model.geometry_kernel(np.array([5.0, 5.0]))
        g_sub = sub.geometry_kernel(np.array([5.0, 5.0]))
        np.testing.assert_allclose(g_sub, g_full[[0, 2, 4]])

    def test_model_flux_wrapper(self, small_network):
        flux = model_flux(
            small_network, np.array([7.0, 7.0]), stretch=2.0, hop_distance=1.5
        )
        assert flux.shape == (small_network.node_count,)
        assert np.all(flux >= 0)

    def test_model_flux_decreases_with_distance_same_ray(self):
        field = RectangularField(20, 20)
        nodes = np.column_stack([np.linspace(11, 18, 8), np.full(8, 10.0)])
        from repro.network.graph import UnitDiskGraph
        from repro.network.topology import Network

        net = Network(field=field, positions=nodes, graph=UnitDiskGraph(nodes, 2.0))
        flux = model_flux(net, np.array([10.0, 10.0]), stretch=1.0, hop_distance=1.0)
        assert np.all(np.diff(flux) < 0)


class TestCalibration:
    def test_edge_based_bounded_by_radius(self, small_network):
        r = estimate_hop_distance(small_network)
        assert 0 < r <= small_network.radius

    def test_tree_based_close_to_edge_based(self, small_network):
        tree = build_collection_tree(small_network, np.array([7.0, 7.0]), rng=0)
        r_tree = estimate_hop_distance(small_network, tree)
        r_edge = estimate_hop_distance(small_network)
        assert 0.4 * r_edge <= r_tree <= 1.6 * r_edge

    def test_min_hops_checked(self, small_network):
        tree = build_collection_tree(small_network, np.array([7.0, 7.0]), rng=0)
        with pytest.raises(ConfigurationError):
            estimate_hop_distance(small_network, tree, min_hops=0)


class TestAccuracy:
    def test_error_rates_reasonable(self, small_network):
        rates = approximation_error_rates(
            small_network, np.array([7.0, 7.0]), rng=0
        )
        assert rates.size > 100
        assert np.all(rates >= 0)
        # The model should be a decent fit on a healthy network.
        assert np.median(rates) < 0.6

    def test_min_hops_shrinks_sample(self, small_network):
        all_nodes = approximation_error_rates(
            small_network, np.array([7.0, 7.0]), min_hops=1, rng=0
        )
        far_nodes = approximation_error_rates(
            small_network, np.array([7.0, 7.0]), min_hops=3, rng=0
        )
        assert far_nodes.size < all_nodes.size

    def test_flux_by_hops_keys(self, small_network):
        data = flux_by_hops(small_network, np.array([7.0, 7.0]), rng=0)
        assert set(data) == {
            "hops",
            "measured",
            "modeled",
            "flux_fraction_beyond",
        }
        assert data["hops"].shape == data["measured"].shape

    def test_flux_fraction_monotone(self, small_network):
        data = flux_by_hops(small_network, np.array([7.0, 7.0]), rng=0)
        frac = data["flux_fraction_beyond"]
        assert frac[0] == pytest.approx(1.0)
        assert np.all(np.diff(frac) <= 1e-12)

    def test_report(self, small_network):
        report = model_accuracy_report(small_network, sink_count=2, rng=0)
        assert 0 <= report.fraction_below_04 <= 1
        assert 0 <= report.flux_fraction_beyond_3_hops <= 1
        assert report.cdf_y[-1] == pytest.approx(1.0)
        assert "degree" in report.row()

    def test_report_bad_sink_count(self, small_network):
        with pytest.raises(ConfigurationError):
            model_accuracy_report(small_network, sink_count=0)
