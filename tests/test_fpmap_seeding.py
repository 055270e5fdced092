"""Map-seeded search wiring: NLS seeding, SMC recovery, resume, CLI."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.fingerprint import MapSeededCandidates, NLSLocalizer
from repro.fpmap import build_fingerprint_map
from repro.network import sample_sniffers_percentage
from repro.smc import SequentialMonteCarloTracker, TrackerConfig
from repro.stream import (
    ReplaySource,
    SyntheticLiveSource,
    TrackingSession,
    load_checkpoint,
    resume_or_create,
    run_stream,
    save_checkpoint,
)
from repro.traffic import MeasurementModel, simulate_flux


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


@pytest.fixture(scope="module")
def stale_map(small_network):
    other = sample_sniffers_percentage(small_network, 20, rng=777)
    return build_fingerprint_map(
        small_network.field,
        small_network.positions[other],
        resolution=1.5,
        sniffer_ids=other,
    )


class TestMapSeededCandidates:
    def test_seeds_come_first_then_disc_refinement(self, small_field, rng):
        seeds = np.array([[3.0, 3.0], [12.0, 12.0]])
        gen = MapSeededCandidates(
            small_field, seeds, refine_radius=1.0, explore_fraction=0.0
        )
        pts = gen.generate(30, rng)
        assert pts.shape == (30, 2)
        np.testing.assert_array_equal(pts[:2], seeds)
        d = np.linalg.norm(
            pts[2:, None, :] - seeds[None, :, :], axis=2
        ).min(axis=1)
        assert np.all(d <= 1.0 + 1e-9)
        assert np.all(small_field.contains(pts))

    def test_explore_fraction_blends_uniform_draws(self, small_field, rng):
        seeds = np.array([[3.0, 3.0]])
        gen = MapSeededCandidates(
            small_field, seeds, refine_radius=1.0, explore_fraction=0.25
        )
        pts = gen.generate(401, rng)
        assert pts.shape == (401, 2)
        np.testing.assert_array_equal(pts[:1], seeds)
        d = np.linalg.norm(pts[1:] - seeds[0][None, :], axis=1)
        refined = int((d <= 1.0 + 1e-9).sum())
        # 100 of the 400 non-seed draws explore the whole field; a
        # uniform draw rarely lands inside the unit refinement disc
        assert 280 <= refined <= 320
        assert d.max() > 5.0
        with pytest.raises(ConfigurationError):
            MapSeededCandidates(
                small_field, seeds, 1.0, explore_fraction=1.0
            )

    def test_count_smaller_than_seed_set(self, small_field, rng):
        seeds = np.array([[3.0, 3.0], [12.0, 12.0], [7.0, 7.0]])
        gen = MapSeededCandidates(small_field, seeds, refine_radius=1.0)
        assert gen.seed_count(2) == 2
        pts = gen.generate(2, rng)
        np.testing.assert_array_equal(pts, seeds[:2])

    def test_from_match_carries_indices(self, small_network, sniffers, fpmap, rng):
        flux = simulate_flux(small_network, [np.array([10.0, 5.0])], [2.0], rng=9)
        obs = MeasurementModel(
            small_network, sniffers, smooth=False, rng=10
        ).observe(flux)
        match = fpmap.match(obs.values, k=4)
        gen = MapSeededCandidates.from_match(
            small_network.field, match, refine_radius=1.5
        )
        np.testing.assert_array_equal(gen.seed_indices, match.indices)
        np.testing.assert_array_equal(gen.generate(4, rng), match.positions)

    def test_validation_errors(self, small_field):
        with pytest.raises(ConfigurationError):
            MapSeededCandidates(small_field, np.empty((0, 2)), 1.0)
        with pytest.raises(ConfigurationError):
            MapSeededCandidates(
                small_field, np.zeros((2, 2)), 1.0, seed_indices=np.zeros(3)
            )


class TestSeededNLS:
    def test_seeded_matches_unseeded_quality_at_quarter_budget(
        self, small_network, sniffers, fpmap
    ):
        truth = np.array([[4.0, 11.0], [10.0, 5.0]])
        flux = simulate_flux(small_network, list(truth), [2.5, 2.0], rng=21)
        obs = MeasurementModel(
            small_network, sniffers, smooth=True, rng=22
        ).observe(flux)
        localizer = NLSLocalizer(
            small_network.field, small_network.positions[sniffers]
        )
        unseeded_err, seeded_err = [], []
        for seed in range(8):
            unseeded = localizer.localize(
                obs, user_count=2, candidate_count=2000, restarts=2, rng=seed
            )
            seeded = localizer.localize(
                obs, user_count=2, candidate_count=500, restarts=2, rng=seed,
                fingerprint_map=fpmap,
            )
            unseeded_err.append(unseeded.errors_to(truth).mean())
            seeded_err.append(seeded.errors_to(truth).mean())
        # quarter of the evaluation budget, no worse than 1.5x the error,
        # as a median over search seeds: a single draw of either search
        # lands in a poor basin now and then (the benchmark checks the
        # median claim across many scenarios)
        assert np.median(seeded_err) <= max(1.5 * np.median(unseeded_err), 1.5)

    def test_seeded_uses_map_kernel_cache(self, small_network, sniffers, fpmap):
        flux = simulate_flux(small_network, [np.array([10.0, 5.0])], [2.0], rng=9)
        obs = MeasurementModel(
            small_network, sniffers, smooth=True, rng=10
        ).observe(flux)
        localizer = NLSLocalizer(
            small_network.field, small_network.positions[sniffers]
        )
        fpmap.cache.clear()
        fpmap.cache.hits = fpmap.cache.misses = 0
        localizer.localize(
            obs, user_count=1, candidate_count=200, restarts=3, rng=5,
            fingerprint_map=fpmap,
        )
        # restarts after the first re-request the same seed blocks
        assert fpmap.cache.hits > 0

    def test_mismatched_map_rejected(self, small_network, sniffers, stale_map):
        flux = simulate_flux(small_network, [np.array([7.0, 7.0])], [2.0], rng=3)
        obs = MeasurementModel(
            small_network, sniffers, smooth=True, rng=4
        ).observe(flux)
        localizer = NLSLocalizer(
            small_network.field, small_network.positions[sniffers]
        )
        with pytest.raises(ConfigurationError, match="different deployment"):
            localizer.localize(
                obs, user_count=1, candidate_count=100, rng=5,
                fingerprint_map=stale_map,
            )

    def test_seeding_survives_nan_dropout(self, small_network, sniffers, fpmap):
        from repro.traffic.measurement import FluxObservation

        flux = simulate_flux(small_network, [np.array([4.0, 11.0])], [2.0], rng=7)
        obs = MeasurementModel(
            small_network, sniffers, smooth=False, rng=8
        ).observe(flux)
        values = obs.values.copy()
        values[::5] = np.nan
        dropped = FluxObservation(
            time=obs.time, sniffers=obs.sniffers, values=values
        )
        localizer = NLSLocalizer(
            small_network.field, small_network.positions[sniffers]
        )
        seeded = localizer.localize(
            dropped, user_count=1, candidate_count=300, restarts=2, rng=5,
            fingerprint_map=fpmap,
        )
        unseeded = localizer.localize(
            dropped, user_count=1, candidate_count=1200, restarts=2, rng=5,
        )
        # Dropout can genuinely shift the objective's optimum; the claim
        # here is that the restricted-column seeding path works and lands
        # where the (cheaper) unrestricted search would.
        seeded_err = seeded.errors_to(np.array([[4.0, 11.0]]))[0]
        unseeded_err = unseeded.errors_to(np.array([[4.0, 11.0]]))[0]
        assert np.isfinite(seeded_err)
        assert seeded_err <= unseeded_err + 1.0


class TestTrackerRecovery:
    def test_phantom_user_reseeded_after_misses(self, small_network, sniffers, fpmap):
        cfg = TrackerConfig(
            prediction_count=200, keep_count=8, max_speed=1.5,
            reseed_after_misses=3,
        )
        tracker = SequentialMonteCarloTracker(
            small_network.field,
            small_network.positions[sniffers],
            user_count=2,  # one phantom: only one real user emits flux
            config=cfg,
            rng=5,
            fingerprint_map=fpmap,
        )
        gen = np.random.default_rng(7)
        pos = np.array([4.0, 4.0])
        reseeds = 0
        for t in range(1, 10):
            pos = np.clip(pos + gen.uniform(-1, 1, 2), 0.5, 14.5)
            flux = simulate_flux(small_network, [pos], [2.0], rng=100 + t)
            obs = MeasurementModel(
                small_network, sniffers, smooth=False, rng=200 + t
            ).observe(flux, time=float(t))
            step = tracker.step(obs)
            assert step.reseeded is not None
            reseeds += int(step.reseeded.sum())
        assert reseeds > 0
        # reseeded counter resets: never reaches 2x the threshold
        assert np.all(tracker.miss_counts < 2 * cfg.reseed_after_misses)

    def test_no_reseed_without_map(self, small_network, sniffers):
        cfg = TrackerConfig(
            prediction_count=150, keep_count=8, reseed_after_misses=2
        )
        tracker = SequentialMonteCarloTracker(
            small_network.field,
            small_network.positions[sniffers],
            user_count=2,
            config=cfg,
            rng=5,
        )
        for t in range(1, 6):
            flux = simulate_flux(
                small_network, [np.array([7.0, 7.0])], [2.0], rng=50 + t
            )
            obs = MeasurementModel(
                small_network, sniffers, smooth=False, rng=60 + t
            ).observe(flux, time=float(t))
            step = tracker.step(obs)
            assert not step.reseeded.any()

    def test_miss_counts_ignore_silent_windows(self, small_network, sniffers, fpmap):
        from repro.traffic.measurement import FluxObservation

        tracker = SequentialMonteCarloTracker(
            small_network.field,
            small_network.positions[sniffers],
            user_count=1,
            config=TrackerConfig(
                prediction_count=100, keep_count=5, reseed_after_misses=1
            ),
            rng=5,
            fingerprint_map=fpmap,
        )
        silent = FluxObservation(
            time=1.0,
            sniffers=np.asarray(sniffers),
            values=np.zeros(sniffers.size),
        )
        step = tracker.step(silent)
        assert not step.active.any()
        assert not step.reseeded.any()
        assert np.all(tracker.miss_counts == 0)

    def test_stale_map_rejected_at_construction(
        self, small_network, sniffers, stale_map
    ):
        with pytest.raises(ConfigurationError, match="different deployment"):
            SequentialMonteCarloTracker(
                small_network.field,
                small_network.positions[sniffers],
                user_count=1,
                fingerprint_map=stale_map,
            )

    def test_attach_and_detach(self, small_network, sniffers, fpmap):
        tracker = SequentialMonteCarloTracker(
            small_network.field,
            small_network.positions[sniffers],
            user_count=1,
            rng=3,
        )
        assert tracker.fingerprint_map is None
        tracker.attach_map(fpmap)
        assert tracker.fingerprint_map is fpmap
        tracker.attach_map(None)
        assert tracker.fingerprint_map is None


class TestCheckpointReattach:
    @pytest.fixture()
    def scenario(self, small_network, sniffers, fpmap):
        observations = list(
            SyntheticLiveSource(
                small_network, sniffers, user_count=2, rounds=6, rng=2
            )
        )

        def make_session(with_map=True):
            tracker = SequentialMonteCarloTracker(
                small_network.field,
                small_network.positions[sniffers],
                user_count=2,
                config=TrackerConfig(
                    prediction_count=140, keep_count=9,
                    reseed_after_misses=2,
                ),
                rng=41,
                fingerprint_map=fpmap if with_map else None,
            )
            return TrackingSession("fp-ckpt", tracker)

        return observations, make_session

    def test_miss_counts_round_trip(self, scenario, tmp_path):
        observations, make_session = scenario
        session = make_session()
        run_stream(ReplaySource(observations), session, max_windows=4)
        session.tracker.miss_counts[:] = [1, 2]
        path = tmp_path / "fp.ckpt.npz"
        save_checkpoint(session, path)
        resumed = load_checkpoint(path)
        np.testing.assert_array_equal(resumed.tracker.miss_counts, [1, 2])
        assert resumed.tracker.config.reseed_after_misses == 2

    def test_map_reattached_and_validated(self, scenario, tmp_path, fpmap, stale_map):
        observations, make_session = scenario
        session = make_session()
        run_stream(ReplaySource(observations), session, max_windows=3)
        path = tmp_path / "fp.ckpt.npz"
        save_checkpoint(session, path)

        resumed = load_checkpoint(path, fingerprint_map=fpmap)
        assert resumed.tracker.fingerprint_map is fpmap
        # maps are never serialized: a plain load comes back map-less
        assert load_checkpoint(path).tracker.fingerprint_map is None
        with pytest.raises(ConfigurationError, match="different deployment"):
            load_checkpoint(path, fingerprint_map=stale_map)

    def test_resume_or_create_attaches_map_to_fresh_session(
        self, scenario, tmp_path, fpmap
    ):
        _, make_session = scenario
        session = resume_or_create(
            tmp_path / "absent.npz",
            lambda: make_session(with_map=False),
            fingerprint_map=fpmap,
        )
        assert session.tracker.fingerprint_map is fpmap

    def test_legacy_checkpoint_without_miss_counts_loads(self, scenario, tmp_path):
        observations, make_session = scenario
        session = make_session()
        run_stream(ReplaySource(observations), session, max_windows=2)
        path = tmp_path / "fp.ckpt.npz"
        save_checkpoint(session, path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files if k != "miss_counts"}
        np.savez(path, **arrays)
        resumed = load_checkpoint(path)
        np.testing.assert_array_equal(resumed.tracker.miss_counts, [0, 0])


_SMALL = ["--nodes", "225", "--field", "15", "--radius", "2.0"]


class TestCli:
    @pytest.fixture(scope="class")
    def map_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("fpmap") / "map.npz"
        rc = main(
            ["--seed", "3", "build-map", *_SMALL, "--percentage", "20",
             "--resolution", "1.0", "--output", str(path)]
        )
        assert rc == 0
        return path

    def test_build_map_then_seeded_localize(self, map_path, capsys):
        rc = main(
            ["--seed", "3", "localize", *_SMALL, "--users", "2",
             "--candidates", "400", "--restarts", "2",
             "--map", str(map_path)]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "map-seeded" in out

    def test_localize_with_stale_map_exits_1(self, map_path, capsys):
        rc = main(
            ["--seed", "4", "localize", *_SMALL, "--users", "1",
             "--candidates", "200", "--map", str(map_path)]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert "different deployment" in err

    def test_localize_with_missing_map_exits_1(self, tmp_path, capsys):
        rc = main(
            ["--seed", "3", "localize", *_SMALL,
             "--map", str(tmp_path / "absent.npz")]
        )
        assert rc == 1
        assert "build-map" in capsys.readouterr().err

    def test_track_stream_with_map(self, map_path, tmp_path, capsys):
        rc = main(
            ["--seed", "3", "track-stream", *_SMALL, "--users", "2",
             "--rounds", "4", "--predictions", "150",
             "--map", str(map_path), "--reseed-after-misses", "2",
             "--checkpoint", str(tmp_path / "ck.npz")]
        )
        assert rc == 0
        assert "final estimates" in capsys.readouterr().out
