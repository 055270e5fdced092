"""Empirical kernel calibration tests."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, FittingError
from repro.fluxmodel.empirical import (
    CalibratedFluxModel,
    EmpiricalKernel,
    fit_empirical_kernel,
)
from repro.fluxmodel.discrete import DiscreteFluxModel
from repro.geometry import boundary_distances


class TestEmpiricalKernel:
    def _kernel(self):
        return EmpiricalKernel(
            bin_edges=np.linspace(0, 1, 5),
            corrections=np.array([2.0, 1.5, 1.0, 0.5]),
        )

    def test_correction_lookup(self):
        k = self._kernel()
        np.testing.assert_allclose(
            k.correction_at(np.array([0.1, 0.3, 0.6, 0.9])),
            [2.0, 1.5, 1.0, 0.5],
        )

    def test_clipping(self):
        k = self._kernel()
        assert k.correction_at(np.array([-0.5]))[0] == 2.0
        assert k.correction_at(np.array([1.5]))[0] == 0.5

    def test_shape_validation(self):
        with pytest.raises(ConfigurationError):
            EmpiricalKernel(
                bin_edges=np.linspace(0, 1, 5), corrections=np.ones(2)
            )

    def test_nonfinite_rejected(self):
        with pytest.raises(ConfigurationError):
            EmpiricalKernel(
                bin_edges=np.linspace(0, 1, 3),
                corrections=np.array([1.0, np.nan]),
            )


class TestFitEmpiricalKernel:
    def test_fit_produces_positive_corrections(self, small_network):
        kernel = fit_empirical_kernel(small_network, probe_count=3, rng=0)
        assert np.all(kernel.corrections > 0)
        assert kernel.corrections.size == 12

    def test_corrections_order_of_magnitude(self, small_network):
        """The analytic kernel is right up to a ~hop-distance factor."""
        kernel = fit_empirical_kernel(small_network, probe_count=4, rng=1)
        r_hat = small_network.average_hop_distance()
        # measured/analytic ratio should be within a few x of 1/r.
        mid = kernel.corrections[3:9]
        assert np.all(mid > 0.1 / r_hat)
        assert np.all(mid < 10.0 / r_hat)

    def test_parameter_validation(self, small_network):
        with pytest.raises(ConfigurationError):
            fit_empirical_kernel(small_network, probe_count=0)
        with pytest.raises(ConfigurationError):
            fit_empirical_kernel(small_network, bins=1)


class TestCalibratedFluxModel:
    def test_identity_correction_matches_analytic(self, small_network):
        identity = EmpiricalKernel(
            bin_edges=np.linspace(0, 1, 4), corrections=np.ones(3)
        )
        analytic = DiscreteFluxModel(
            small_network.field, small_network.positions[:30], d_floor=1.0
        )
        calibrated = CalibratedFluxModel(
            small_network.field,
            small_network.positions[:30],
            kernel=identity,
            d_floor=1.0,
        )
        sink = np.array([7.0, 7.0])
        np.testing.assert_allclose(
            calibrated.geometry_kernel(sink),
            analytic.geometry_kernel(sink),
            rtol=1e-9,
        )

    def test_correction_scales_kernel(self, small_network):
        double = EmpiricalKernel(
            bin_edges=np.linspace(0, 1, 4), corrections=np.full(3, 2.0)
        )
        analytic = DiscreteFluxModel(
            small_network.field, small_network.positions[:30], d_floor=1.0
        )
        calibrated = CalibratedFluxModel(
            small_network.field,
            small_network.positions[:30],
            kernel=double,
            d_floor=1.0,
        )
        sink = np.array([7.0, 7.0])
        np.testing.assert_allclose(
            calibrated.geometry_kernel(sink),
            2.0 * analytic.geometry_kernel(sink),
            rtol=1e-9,
        )

    def test_batch_is_bitwise_the_per_sink_formula(self, small_network):
        """One broadcast pass over every (sink, node) pair, bit for bit
        the per-sink ``np.hypot`` and ``boundary_distances`` correction,
        on a pool spanning two ray-cast row blocks with a corner sink,
        wall sinks and a sink on a node."""
        kernel = fit_empirical_kernel(small_network, probe_count=2, rng=2)
        field = small_network.field
        nodes = small_network.positions[:30]
        model = CalibratedFluxModel(field, nodes, kernel=kernel)
        x0, y0, x1, y1 = field.bounding_box
        sinks = np.concatenate([
            field.sample_uniform(1500, np.random.default_rng(4)),
            [[x0, y0], [x1, y1], [x0, (y0 + y1) / 2.0], [(x0 + x1) / 2.0, y1],
             nodes[3]],
        ])
        got = model.geometry_kernels(sinks)
        analytic = DiscreteFluxModel(field, nodes).geometry_kernels(sinks)
        for j, sink in enumerate(sinks):
            d = np.hypot(nodes[:, 0] - sink[0], nodes[:, 1] - sink[1])
            l = boundary_distances(field, sink, nodes)
            rho = np.where(l > 1e-12, d / np.maximum(l, 1e-12), 1.0)
            want = analytic[j] * kernel.correction_at(rho)
            assert np.array_equal(got[j], want), j

    def test_restrict_to_preserves_kernel(self, small_network):
        kernel = fit_empirical_kernel(small_network, probe_count=2, rng=2)
        model = CalibratedFluxModel(
            small_network.field, small_network.positions[:30], kernel=kernel
        )
        sub = model.restrict_to(np.array([0, 5, 10]))
        assert isinstance(sub, CalibratedFluxModel)
        sink = np.array([7.0, 7.0])
        np.testing.assert_allclose(
            sub.geometry_kernel(sink), model.geometry_kernel(sink)[[0, 5, 10]]
        )

    def test_calibrated_fits_measured_flux_better_on_average(
        self, small_network
    ):
        """Calibration reduces the mean residual across sinks.

        The learned correction captures the radial bias *averaged over
        positions*; individual sinks (corners especially) can still go
        either way, so the contract is about the average.
        """
        from repro.routing import build_collection_tree
        from repro.traffic import smooth_flux

        kernel = fit_empirical_kernel(small_network, probe_count=5, rng=3)
        analytic = DiscreteFluxModel(
            small_network.field, small_network.positions, d_floor=1.0
        )
        calibrated = CalibratedFluxModel(
            small_network.field,
            small_network.positions,
            kernel=kernel,
            d_floor=1.0,
        )

        def residual(model, measured, root_pos):
            g = model.geometry_kernel(root_pos)
            theta = float(g @ measured) / float(g @ g)
            return float(np.linalg.norm(theta * g - measured))

        analytic_res, calibrated_res = [], []
        for seed in range(6):
            gen = np.random.default_rng(99 + seed)
            sink = small_network.field.sample_uniform(1, gen)[0]
            tree = build_collection_tree(small_network, sink, rng=gen)
            measured = smooth_flux(small_network, tree.subtree_aggregate())
            root_pos = small_network.positions[tree.root]
            analytic_res.append(residual(analytic, measured, root_pos))
            calibrated_res.append(residual(calibrated, measured, root_pos))
        wins = sum(c < a for a, c in zip(analytic_res, calibrated_res))
        assert wins >= 3
        assert np.mean(calibrated_res) < np.mean(analytic_res) * 1.1


class TestLossyFlux:
    def test_delivery_one_matches_lossless(self, small_network):
        from repro.routing import build_collection_tree
        from repro.traffic.lossy import lossy_subtree_flux

        tree = build_collection_tree(small_network, np.array([7.0, 7.0]), rng=0)
        w = np.ones(small_network.node_count)
        np.testing.assert_allclose(
            lossy_subtree_flux(tree, w, 1.0), tree.subtree_aggregate(w)
        )

    def test_loss_reduces_flux(self, small_network):
        from repro.routing import build_collection_tree
        from repro.traffic.lossy import lossy_subtree_flux

        tree = build_collection_tree(small_network, np.array([7.0, 7.0]), rng=0)
        w = np.ones(small_network.node_count)
        lossy = lossy_subtree_flux(tree, w, 0.8)
        lossless = tree.subtree_aggregate(w)
        assert lossy[tree.root] < lossless[tree.root]
        assert np.all(lossy <= lossless + 1e-9)

    def test_chain_attenuation_exact(self):
        from repro.routing.tree import CollectionTree
        from repro.traffic.lossy import lossy_subtree_flux

        parents = np.array([0, 0, 1, 2], dtype=np.int64)
        hops = np.arange(4, dtype=np.int64)
        tree = CollectionTree(root=0, parents=parents, hops=hops)
        flux = lossy_subtree_flux(tree, np.ones(4), 0.5)
        # leaf: 1; its parent: 1 + .5; next: 1 + .5(1.5) = 1.75; root: 1 + .5*1.75
        np.testing.assert_allclose(flux, [1.875, 1.75, 1.5, 1.0])

    def test_delivery_validated(self, small_network):
        from repro.routing import build_collection_tree
        from repro.traffic.lossy import lossy_subtree_flux

        tree = build_collection_tree(small_network, np.array([7.0, 7.0]), rng=0)
        with pytest.raises(ConfigurationError):
            lossy_subtree_flux(tree, np.ones(small_network.node_count), 0.0)


class TestAdaptiveCounts:
    def _samples(self, spread):
        from repro.smc.samples import UserSamples

        positions = np.array([[0.0, 0.0], [spread, 0.0]]) + 5.0
        return UserSamples(
            positions=positions, weights=np.array([0.5, 0.5]), t_last=0.0
        )

    def test_concentrated_posterior_needs_fewer(self):
        from repro.smc.adaptive import adaptive_prediction_count

        tight = adaptive_prediction_count(
            self._samples(0.1), radius=3.0, max_count=100_000
        )
        broad = adaptive_prediction_count(
            self._samples(8.0), radius=3.0, max_count=100_000
        )
        assert tight < broad  # broad posterior -> larger search area

    def test_radius_increases_count(self):
        from repro.smc.adaptive import adaptive_prediction_count

        small = adaptive_prediction_count(self._samples(1.0), radius=1.0)
        large = adaptive_prediction_count(self._samples(1.0), radius=10.0)
        assert large > small

    def test_bounds_respected(self):
        from repro.smc.adaptive import adaptive_prediction_count

        count = adaptive_prediction_count(
            self._samples(0.01), radius=50.0, min_count=10, max_count=200
        )
        assert count == 200

    def test_validation(self):
        from repro.smc.adaptive import adaptive_prediction_count

        with pytest.raises(ConfigurationError):
            adaptive_prediction_count(
                self._samples(1.0), radius=1.0, min_count=0
            )
