"""Fingerprint-map subsystem: builder, persistence, index, cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.fluxmodel import DiscreteFluxModel
from repro.fpmap import (
    FingerprintMap,
    KernelLRUCache,
    SpatialIndex,
    build_fingerprint_map,
    grid_cells,
)
from repro.fpmap.map import FPMAP_FORMAT
from repro.geometry import CircularField, RectangularField
from repro.network import sample_sniffers_percentage
from repro.traffic import MeasurementModel, simulate_flux
from repro.util.persistence import deployment_hash


@pytest.fixture(scope="module")
def sniffers(small_network):
    return sample_sniffers_percentage(small_network, 20, rng=42)


@pytest.fixture(scope="module")
def fpmap(small_network, sniffers):
    return build_fingerprint_map(
        small_network.field,
        small_network.positions[sniffers],
        resolution=0.75,
        d_floor=1.0,
        sniffer_ids=sniffers,
    )


class TestGridCells:
    def test_spacing_and_containment(self, small_field):
        cells = grid_cells(small_field, 1.0)
        assert cells.shape == (225, 2)
        assert np.all(small_field.contains(cells))
        xs = np.unique(cells[:, 0])
        assert np.allclose(np.diff(xs), 1.0)
        assert np.isclose(xs[0], 0.5)  # half-cell inset

    def test_circular_field_drops_corners(self):
        field = CircularField(5.0)
        cells = grid_cells(field, 1.0)
        assert np.all(field.contains(cells))
        box_cells = (5.0 * 2 / 1.0) ** 2
        assert cells.shape[0] < box_cells  # corners gone

    def test_resolution_exceeding_extent_rejected(self, small_field):
        with pytest.raises(ConfigurationError):
            grid_cells(small_field, 100.0)


class TestBuilder:
    def test_signatures_match_direct_kernels(self, small_network, sniffers, fpmap):
        model = DiscreteFluxModel(
            small_network.field, small_network.positions[sniffers], d_floor=1.0
        )
        direct = model.geometry_kernels(fpmap.cell_positions[:17])
        assert np.array_equal(fpmap.signatures[:17], direct)

    def test_default_sniffer_ids(self, small_network, sniffers):
        fmap = build_fingerprint_map(
            small_network.field,
            small_network.positions[sniffers],
            resolution=3.0,
        )
        assert np.array_equal(fmap.sniffer_ids, np.arange(sniffers.size))

    def test_rejects_empty_sniffers(self, small_field):
        with pytest.raises(ConfigurationError):
            build_fingerprint_map(small_field, np.empty((0, 2)))


class TestMatching:
    def test_single_user_match_near_truth(self, small_network, sniffers, fpmap):
        truth = np.array([10.0, 5.0])
        flux = simulate_flux(small_network, [truth], [2.0], rng=9)
        obs = MeasurementModel(small_network, sniffers, smooth=False, rng=10).observe(flux)
        match = fpmap.match(obs.values, k=5)
        assert match.indices.shape == (5,)
        assert np.all(np.diff(match.residuals) >= 0)
        err = np.linalg.norm(match.positions[0] - truth)
        assert err < 2.0  # coarse seeding stage, still far under random ~7.8
        assert match.thetas[0] > 0

    def test_nan_dropout_masked(self, small_network, sniffers, fpmap):
        truth = np.array([4.0, 11.0])
        flux = simulate_flux(small_network, [truth], [2.0], rng=7)
        obs = MeasurementModel(small_network, sniffers, smooth=False, rng=8).observe(flux)
        values = obs.values.copy()
        values[::4] = np.nan
        match = fpmap.match(values, k=3)
        err = np.linalg.norm(match.positions[0] - truth)
        assert err < 2.5

    def test_all_nan_rejected(self, fpmap):
        with pytest.raises(ConfigurationError, match="NaN"):
            fpmap.match(np.full(fpmap.sniffer_count, np.nan))

    def test_wrong_width_rejected(self, fpmap):
        with pytest.raises(ConfigurationError):
            fpmap.match(np.ones(fpmap.sniffer_count + 1))

    def test_peel_matches_two_users(self, small_network, sniffers, fpmap):
        truth = np.array([[4.0, 4.0], [11.0, 11.0]])
        flux = simulate_flux(small_network, list(truth), [2.5, 2.0], rng=9)
        obs = MeasurementModel(small_network, sniffers, smooth=False, rng=10).observe(flux)
        matches = fpmap.peel_matches(obs.values, users=2, k=4)
        assert len(matches) == 2
        best = np.stack([m.positions[0] for m in matches])
        # each true position is near one of the peeled matches
        for t in truth:
            d = np.linalg.norm(best - t[None, :], axis=1).min()
            assert d < 5.0 * fpmap.resolution

    def test_peel_requires_positive_users(self, fpmap):
        with pytest.raises(ConfigurationError):
            fpmap.peel_matches(np.ones(fpmap.sniffer_count), users=0)


class TestPersistence:
    def test_bitwise_round_trip(self, fpmap, tmp_path):
        path = fpmap.save(tmp_path / "map.npz")
        loaded = FingerprintMap.load(path)
        assert np.array_equal(loaded.cell_positions, fpmap.cell_positions)
        assert np.array_equal(loaded.signatures, fpmap.signatures)
        assert np.array_equal(loaded.sniffer_positions, fpmap.sniffer_positions)
        assert np.array_equal(loaded.sniffer_ids, fpmap.sniffer_ids)
        assert loaded.resolution == fpmap.resolution
        assert loaded.d_floor == fpmap.d_floor
        assert loaded.deployment == fpmap.deployment

    def test_no_tmp_file_left_behind(self, fpmap, tmp_path):
        fpmap.save(tmp_path / "map.npz")
        assert [p.name for p in tmp_path.iterdir()] == ["map.npz"]

    def test_missing_file_is_configuration_error(self, tmp_path):
        with pytest.raises(ConfigurationError, match="build-map"):
            FingerprintMap.load(tmp_path / "nope.npz")

    def test_unsupported_format_rejected(self, fpmap, tmp_path):
        path = fpmap.save(tmp_path / "map.npz")
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["format"] = np.array([FPMAP_FORMAT + 1])
        np.savez(path, **arrays)
        with pytest.raises(ConfigurationError, match="format"):
            FingerprintMap.load(path)

    def test_missing_key_rejected(self, fpmap, tmp_path):
        path = fpmap.save(tmp_path / "map.npz")
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        del arrays["signatures"]
        np.savez(path, **arrays)
        with pytest.raises(ConfigurationError, match="signatures"):
            FingerprintMap.load(path)

    def test_tampered_geometry_rejected(self, fpmap, tmp_path):
        path = fpmap.save(tmp_path / "map.npz")
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["sniffer_positions"] = arrays["sniffer_positions"] + 0.5
        np.savez(path, **arrays)
        with pytest.raises(ConfigurationError, match="stale or corrupt"):
            FingerprintMap.load(path)


class TestValidation:
    def test_matching_deployment_accepted(self, small_network, sniffers, fpmap):
        fpmap.validate_against(
            small_network.field, small_network.positions[sniffers], 1.0
        )

    def test_changed_sniffers_rejected(self, small_network, fpmap):
        other = sample_sniffers_percentage(small_network, 20, rng=777)
        with pytest.raises(ConfigurationError, match="different deployment"):
            fpmap.validate_against(
                small_network.field, small_network.positions[other], 1.0
            )

    def test_changed_d_floor_rejected(self, small_network, sniffers, fpmap):
        with pytest.raises(ConfigurationError):
            fpmap.validate_against(
                small_network.field, small_network.positions[sniffers], 2.0
            )

    def test_deployment_hash_is_stable(self, small_network, sniffers, fpmap):
        again = deployment_hash(
            small_network.field, small_network.positions[sniffers], 1.0
        )
        assert again == fpmap.deployment


# The match expressions with no rescale, kept as the reference: a
# target in range must give exactly these bits.
def _plain_match(sig, target, k):
    num = sig @ target
    den = np.einsum("cn,cn->c", sig, sig)
    thetas = np.maximum(num / np.maximum(den, 1e-300), 0.0)
    sq = np.maximum(
        float(target @ target) - 2.0 * thetas * num + thetas * thetas * den,
        0.0,
    )
    return SpatialIndex._rank_matches(np.sqrt(sq), thetas, k)


def _plain_match_batch(sig, targets, k):
    den = np.einsum("cn,cn->c", sig, sig)
    num = np.einsum("cn,bn->cb", sig, targets)
    t2 = np.einsum("bn,bn->b", targets, targets)
    thetas = np.maximum(num / np.maximum(den, 1e-300)[:, None], 0.0)
    sq = np.maximum(
        t2[None, :] - 2.0 * thetas * num + thetas * thetas * den[:, None],
        0.0,
    )
    residuals = np.sqrt(sq)
    return [
        SpatialIndex._rank_matches(
            np.ascontiguousarray(residuals[:, b]),
            np.ascontiguousarray(thetas[:, b]),
            k,
        )
        for b in range(targets.shape[0])
    ]


class TestSpatialIndex:
    def test_knn_by_signature_matches_brute_force(self, fpmap):
        target = fpmap.signatures[37] * 1.7  # theta 1.7, exact match
        idx, thetas, residuals = fpmap.index.knn_by_signature(target, 3)
        assert idx[0] == 37
        assert thetas[0] == pytest.approx(1.7)
        assert residuals[0] == pytest.approx(0.0, abs=1e-9)
        # brute force over all cells
        sig = fpmap.signatures
        th = np.maximum((sig @ target) / np.einsum("cn,cn->c", sig, sig), 0.0)
        res = np.linalg.norm(target[None, :] - th[:, None] * sig, axis=1)
        assert np.argmin(res) == idx[0]
        assert residuals[1] == pytest.approx(np.sort(res)[1], rel=1e-9)

    def test_negative_theta_clamped(self):
        signatures = np.array([[1.0, 1.0], [-1.0, -1.0]])
        index = SpatialIndex(signatures)
        idx, thetas, _ = index.knn_by_signature(np.array([-2.0, -2.0]), 2)
        assert np.all(thetas >= 0)
        assert idx[0] == 1  # negative kernel fits a negative target

    @staticmethod
    def _observations(small_network, sniffers):
        rows = []
        for seed, truth in enumerate([(10.0, 5.0), (4.0, 11.0), (7.5, 7.5)]):
            flux = simulate_flux(small_network, [np.array(truth)], [2.0], rng=seed)
            obs = MeasurementModel(
                small_network, sniffers, smooth=False, rng=seed + 10
            ).observe(flux)
            rows.append(obs.values)
        return np.stack(rows)

    def test_in_range_targets_match_the_plain_expression(
        self, small_network, sniffers, fpmap
    ):
        index = fpmap.index
        sig = index.signatures
        base = self._observations(small_network, sniffers)
        targets = np.concatenate([base, base * 2.0**200, base * 2.0**-300])
        k = 7
        got = index.knn_by_signature_batch(targets, [k] * len(targets))
        for g, w in zip(got, _plain_match_batch(sig, targets, k)):
            for a, b in zip(g, w):
                assert np.array_equal(a, b)
        columns = np.arange(0, sig.shape[1], 2)
        for target in targets:
            pairs = [
                (index.knn_by_signature(target, k),
                 _plain_match(sig, target, k)),
                (index.knn_by_signature(target[columns], k, columns=columns),
                 _plain_match(sig[:, columns], target[columns], k)),
            ]
            for g, w in pairs:
                for a, b in zip(g, w):
                    assert np.array_equal(a, b)

    def test_near_bound_readings_rank_like_rescaled_readings(
        self, small_network, sniffers, fpmap
    ):
        # Readings that check_readings admits, but whose expanded
        # residual would overflow: they must rank cells as the same
        # readings scaled by 2**-600 do, with thetas and residuals
        # scaled back exactly.
        from repro.util.validation import check_readings

        index = fpmap.index
        n = index.signatures.shape[1]
        flux = self._observations(small_network, sniffers)[0]
        near = np.stack([
            np.full(n, 1.9e153),
            flux * (np.sqrt(1.3e308) / np.linalg.norm(flux)),
        ])
        for target in near:
            check_readings(target)
        scaled = near * 2.0**-600
        columns = np.arange(1, n, 3)
        with np.errstate(over="raise", invalid="raise"):
            pairs = list(zip(
                index.knn_by_signature_batch(near, [9, 9]),
                index.knn_by_signature_batch(scaled, [9, 9]),
            ))
            for target, rescaled in zip(near, scaled):
                pairs.append((
                    index.knn_by_signature(target, 9),
                    index.knn_by_signature(rescaled, 9),
                ))
                pairs.append((
                    index.knn_by_signature(target[columns], 9, columns=columns),
                    index.knn_by_signature(
                        rescaled[columns], 9, columns=columns
                    ),
                ))
        for got, want in pairs:
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1] * 2.0**600)
            assert np.array_equal(got[2], want[2] * 2.0**600)


class TestKernelLRUCache:
    def test_hit_miss_accounting(self):
        cache = KernelLRUCache(capacity=2)
        assert cache.get("a") is None
        cache.put("a", np.ones(3))
        assert cache.get("a") is not None
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_lru_eviction_order(self):
        cache = KernelLRUCache(capacity=2)
        cache.put("a", np.zeros(1))
        cache.put("b", np.ones(1))
        cache.get("a")  # refresh a; b is now stalest
        cache.put("c", np.full(1, 2.0))
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.get("c") is not None
        assert len(cache) == 2

    def test_blocks_are_write_protected(self):
        cache = KernelLRUCache()
        block = cache.put("k", np.arange(4.0))
        with pytest.raises(ValueError):
            block[0] = 99.0

    def test_capacity_validated(self):
        with pytest.raises(ConfigurationError):
            KernelLRUCache(capacity=0)

    def test_kernels_for_served_from_cache(self, fpmap):
        fpmap.cache.clear()
        fpmap.cache.hits = fpmap.cache.misses = 0
        cells = np.array([3, 17, 42], dtype=np.int64)
        cols = np.array([0, 2, 5], dtype=np.int64)
        first = fpmap.kernels_for(cells, columns=cols)
        second = fpmap.kernels_for(cells, columns=cols)
        assert second is first
        assert fpmap.cache.hits == 1 and fpmap.cache.misses == 1
        assert np.array_equal(first, fpmap.signatures[cells][:, cols])
        full = fpmap.kernels_for(cells)
        assert np.array_equal(full, fpmap.signatures[cells])


class TestPublicExports:
    def test_top_level_names(self):
        import repro

        for name in (
            "FingerprintMap", "SpatialIndex",
            "build_fingerprint_map",
        ):
            assert hasattr(repro, name)
            assert name in repro.__all__
