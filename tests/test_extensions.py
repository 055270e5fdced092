"""Tests for extension modules: geographic routing, aggregation,
identity-aware tracking, proxy defense, reporting."""

import numpy as np
import pytest

from repro.countermeasures import proxy_collection_flux, proxy_defense_overhead
from repro.errors import ConfigurationError
from repro.routing import build_collection_tree
from repro.routing.geographic import build_geographic_tree
from repro.smc import TrackerConfig
from repro.smc.identity import IdentityAwareTracker, _SlotFingerprint
from repro.traffic import simulate_flux
from repro.traffic.aggregation import aggregated_subtree_flux


class TestGeographicRouting:
    def test_spans_connected_network(self, small_network):
        tree = build_geographic_tree(small_network, np.array([7.0, 7.0]), rng=0)
        assert tree.reachable.all()

    def test_roots_at_nearest_node(self, small_network):
        sink = np.array([3.0, 11.0])
        tree = build_geographic_tree(small_network, sink, rng=0)
        assert tree.root == small_network.nearest_node(sink)

    def test_parents_strictly_closer_or_recovered(self, small_network):
        tree = build_geographic_tree(small_network, np.array([7.0, 7.0]), rng=0)
        root_pos = small_network.positions[tree.root]
        d = np.hypot(
            small_network.positions[:, 0] - root_pos[0],
            small_network.positions[:, 1] - root_pos[1],
        )
        closer = 0
        for node in range(small_network.node_count):
            if node != tree.root and d[tree.parents[node]] < d[node]:
                closer += 1
        # The vast majority of parents make geometric progress.
        assert closer > 0.9 * (small_network.node_count - 1)

    def test_parents_are_neighbors(self, small_network):
        tree = build_geographic_tree(small_network, np.array([7.0, 7.0]), rng=0)
        for node in range(small_network.node_count):
            if node != tree.root and tree.parents[node] >= 0:
                assert tree.parents[node] in small_network.graph.neighbors(node)

    def test_flux_conservation(self, small_network):
        tree = build_geographic_tree(small_network, np.array([7.0, 7.0]), rng=0)
        agg = tree.subtree_aggregate()
        assert agg[tree.root] == pytest.approx(tree.reachable.sum())

    def test_hops_consistent_with_parents(self, small_network):
        tree = build_geographic_tree(small_network, np.array([7.0, 7.0]), rng=0)
        for node in range(small_network.node_count):
            if node != tree.root and tree.hops[node] > 0:
                assert tree.hops[tree.parents[node]] == tree.hops[node] - 1

    def test_bad_root_raises(self, small_network):
        with pytest.raises(ConfigurationError):
            build_geographic_tree(small_network, np.zeros(2), root=10_000)


class TestAggregation:
    def _tree(self, small_network):
        return build_collection_tree(small_network, np.array([7.0, 7.0]), rng=0)

    def test_factor_one_matches_raw(self, small_network):
        tree = self._tree(small_network)
        w = np.full(small_network.node_count, 1.5)
        np.testing.assert_allclose(
            aggregated_subtree_flux(tree, w, 1.0), tree.subtree_aggregate(w)
        )

    def test_factor_zero_flattens(self, small_network):
        tree = self._tree(small_network)
        w = np.ones(small_network.node_count)
        flux = aggregated_subtree_flux(tree, w, 0.0)
        # Root carries own + one unit per child, not the whole network.
        children = tree.children_counts()[tree.root]
        assert flux[tree.root] == pytest.approx(1.0 + children)

    def test_monotone_in_factor(self, small_network):
        tree = self._tree(small_network)
        w = np.ones(small_network.node_count)
        f_low = aggregated_subtree_flux(tree, w, 0.2)
        f_high = aggregated_subtree_flux(tree, w, 0.8)
        assert f_high.sum() > f_low.sum()

    def test_factor_validated(self, small_network):
        tree = self._tree(small_network)
        with pytest.raises(ConfigurationError):
            aggregated_subtree_flux(
                tree, np.ones(small_network.node_count), 1.5
            )

    def test_weights_shape_checked(self, small_network):
        tree = self._tree(small_network)
        with pytest.raises(ConfigurationError):
            aggregated_subtree_flux(tree, np.ones(3), 1.0)


class TestIdentityTracker:
    def test_fingerprint_ewma(self):
        fp = _SlotFingerprint()
        fp.update(2.0, alpha=0.5)
        assert fp.theta_mean == 2.0
        fp.update(4.0, alpha=0.5)
        assert fp.theta_mean == pytest.approx(3.0)
        assert not fp.confident
        fp.update(3.0, alpha=0.5)
        assert fp.confident

    def test_constructor_validation(self, small_network):
        with pytest.raises(ConfigurationError):
            IdentityAwareTracker(
                small_network.field,
                small_network.positions[:20],
                2,
                ewma_alpha=0.0,
            )
        with pytest.raises(ConfigurationError):
            IdentityAwareTracker(
                small_network.field,
                small_network.positions[:20],
                2,
                max_permutation_size=1,
            )

    def test_delegates_to_base(self, small_network):
        from repro.network import sample_sniffers_percentage
        from repro.traffic import MeasurementModel

        gen = np.random.default_rng(0)
        sn = sample_sniffers_percentage(small_network, 20, rng=gen)
        tracker = IdentityAwareTracker(
            small_network.field,
            small_network.positions[sn],
            1,
            TrackerConfig(prediction_count=150, keep_count=10, max_speed=3.0),
            rng=gen,
        )
        truth = np.array([4.0, 11.0])
        mm = MeasurementModel(small_network, sn, smooth=True, rng=1)
        steps = []
        for t in range(4):
            flux = simulate_flux(small_network, [truth], [2.0], rng=t)
            steps.append(tracker.step(mm.observe(flux, time=float(t))))
        assert len(steps) == 4
        np.testing.assert_array_equal(steps[-1].estimates, tracker.estimates())
        assert tracker.estimates().shape == (1, 2)
        assert np.linalg.norm(tracker.estimates()[0] - truth) < 4.0


class TestProxyDefense:
    def test_flux_peaks_at_proxy_not_user(self, small_network):
        gen = np.random.default_rng(1)
        user = np.array([2.0, 2.0])
        # Pick a proxy far from the user.
        proxy = small_network.nearest_node(np.array([13.0, 13.0]))
        flux, used_proxy = proxy_collection_flux(
            small_network, user, 2.0, rng=gen, proxy=proxy
        )
        assert used_proxy == proxy
        peak = int(np.argmax(flux))
        proxy_pos = small_network.positions[proxy]
        peak_pos = small_network.positions[peak]
        assert np.linalg.norm(peak_pos - proxy_pos) < np.linalg.norm(
            peak_pos - user
        )

    def test_total_traffic_exceeds_direct(self, small_network):
        gen = np.random.default_rng(2)
        user = np.array([2.0, 2.0])
        direct = simulate_flux(small_network, [user], [2.0], rng=gen)
        defended, _ = proxy_collection_flux(small_network, user, 2.0, rng=gen)
        overhead = proxy_defense_overhead(small_network, defended, direct)
        assert overhead > 0

    def test_bad_stretch_raises(self, small_network):
        with pytest.raises(ConfigurationError):
            proxy_collection_flux(small_network, np.zeros(2), 0.0)

    def test_bad_proxy_raises(self, small_network):
        with pytest.raises(ConfigurationError):
            proxy_collection_flux(
                small_network, np.zeros(2), 1.0, proxy=10_000
            )


class TestReporting:
    def test_markdown_table(self):
        from repro.experiments.reporting import _markdown_table

        text = _markdown_table([{"a": 1, "b": 2.5}])
        assert "| a | b |" in text
        assert "| 1 | 2.500 |" in text

    def test_result_to_markdown(self):
        from repro.experiments.harness import ExperimentResult
        from repro.experiments.reporting import result_to_markdown

        r = ExperimentResult(
            figure="Fig X", title="t", rows=[{"v": 1}], paper_reference="p"
        )
        text = result_to_markdown(r, 1.0)
        assert "## Fig X" in text
        assert "**Paper reports:** p" in text

    def test_plan_covers_all_figures(self):
        from repro.experiments.config import PaperDefaults
        from repro.experiments.reporting import build_experiment_plan

        plan = build_experiment_plan(PaperDefaults().scaled(10), seed=0)
        names = [name for name, _ in plan]
        assert names == [
            "Fig 3a", "Fig 3b", "Fig 4", "Fig 5", "Fig 6a", "Fig 6b",
            "Fig 7", "Fig 8a", "Fig 8b", "Fig 9", "Fig 10a", "Fig 10b",
        ]
