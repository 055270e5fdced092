"""Checkpoint/resume: bitwise determinism and archive robustness."""

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.network import sample_sniffers_percentage
from repro.smc import SequentialMonteCarloTracker, TrackerConfig
from repro.stream import (
    ReplaySource,
    SyntheticLiveSource,
    TrackingSession,
    load_checkpoint,
    run_stream,
    save_checkpoint,
)

_CFG = TrackerConfig(prediction_count=140, keep_count=9, max_speed=5.0)


@pytest.fixture()
def scenario(small_network):
    sniffers = sample_sniffers_percentage(small_network, 20, rng=1)
    observations = list(
        SyntheticLiveSource(
            small_network, sniffers, user_count=2, rounds=8, rng=2
        )
    )

    def make_session():
        tracker = SequentialMonteCarloTracker(
            small_network.field,
            small_network.positions[sniffers],
            user_count=2,
            config=_CFG,
            rng=41,
        )
        return TrackingSession("ckpt", tracker)

    return observations, make_session


class TestKillResumeDeterminism:
    @pytest.mark.parametrize("kill_at", [1, 3, 6])
    def test_resumed_run_is_bitwise_identical(
        self, scenario, tmp_path, kill_at
    ):
        """Same seed + same stream, killed at an arbitrary window, then
        resumed, must produce bitwise-identical final estimates."""
        observations, make_session = scenario
        path = tmp_path / "run.ckpt.npz"

        uninterrupted = make_session()
        run_stream(ReplaySource(observations), uninterrupted)

        killed = make_session()
        run_stream(
            ReplaySource(observations),
            killed,
            checkpoint_path=path,
            max_windows=kill_at,
        )
        assert killed.windows_consumed == kill_at

        resumed = load_checkpoint(path)
        run_stream(ReplaySource(observations), resumed, checkpoint_path=path)

        assert resumed.windows_consumed == len(observations)
        np.testing.assert_array_equal(
            resumed.estimates(), uninterrupted.estimates()
        )
        for restored, original in zip(
            resumed.tracker.samples, uninterrupted.tracker.samples
        ):
            np.testing.assert_array_equal(
                restored.positions, original.positions
            )
            np.testing.assert_array_equal(restored.weights, original.weights)
            assert restored.t_last == original.t_last

    def test_rng_stream_position_restored(self, scenario, tmp_path):
        observations, make_session = scenario
        session = make_session()
        run_stream(ReplaySource(observations), session, max_windows=3)
        path = save_checkpoint(session, tmp_path / "c.npz")
        resumed = load_checkpoint(path)
        np.testing.assert_array_equal(
            resumed.tracker._rng.integers(0, 2**31, 8),
            session.tracker._rng.integers(0, 2**31, 8),
        )


class TestCheckpointContents:
    def test_counters_roundtrip(self, scenario, tmp_path):
        observations, make_session = scenario
        session = make_session()
        session.process(observations[0])
        session.process("garbage")  # one skip
        path = save_checkpoint(session, tmp_path / "c.npz")
        resumed = load_checkpoint(path)
        assert resumed.session_id == "ckpt"
        assert resumed.windows_consumed == 2
        assert resumed.last_time == observations[0].time
        assert resumed.metrics.windows_processed == 1
        assert resumed.metrics.windows_skipped["bad_type"] == 1

    def test_retired_drop_counter_still_loads(self, scenario, tmp_path):
        """Older checkpoints carry a ``windows_dropped`` counter; they
        load and step bit for bit like the session they came from."""
        observations, make_session = scenario
        session = make_session()
        for observation in observations[:3]:
            session.process(observation)
        path = save_checkpoint(session, tmp_path / "c.npz")
        with np.load(path, allow_pickle=False) as data:
            arrays = {key: data[key] for key in data.files}
        counters = json.loads(str(arrays["counters_json"]))
        counters["windows_dropped"] = 3
        arrays["counters_json"] = np.array(json.dumps(counters))
        older = tmp_path / "older.npz"
        np.savez_compressed(older, **arrays)

        resumed = load_checkpoint(older)
        assert resumed.windows_consumed == session.windows_consumed
        assert resumed.metrics.windows_processed == 3
        for observation in observations[3:]:
            session.process(observation)
            resumed.process(observation)
            assert np.array_equal(resumed.estimates(), session.estimates())
        assert resumed.windows_consumed == len(observations)

    def test_config_roundtrip(self, scenario, tmp_path):
        observations, make_session = scenario
        session = make_session()
        session.process(observations[0])
        resumed = load_checkpoint(save_checkpoint(session, tmp_path / "c.npz"))
        assert resumed.tracker.config == _CFG

    def test_fresh_session_checkpointable(self, scenario, tmp_path):
        _, make_session = scenario
        session = make_session()
        resumed = load_checkpoint(save_checkpoint(session, tmp_path / "c.npz"))
        assert resumed.windows_consumed == 0
        assert resumed.last_time is None

    def test_truth_reattached_on_load(self, scenario, tmp_path):
        observations, make_session = scenario
        session = make_session()
        session.process(observations[0])
        path = save_checkpoint(session, tmp_path / "c.npz")
        calls = []

        def truth(time):
            calls.append(time)
            return None

        resumed = load_checkpoint(path, truth=truth)
        resumed.process(observations[1])
        assert calls  # provider consulted


class TestArchiveRobustness:
    def test_missing_keys_raise_configuration_error(
        self, scenario, tmp_path
    ):
        path = tmp_path / "broken.npz"
        np.savez_compressed(path, format=np.array([1]))
        with pytest.raises(ConfigurationError, match="missing expected keys"):
            load_checkpoint(path)

    def test_foreign_npz_rejected(self, scenario, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez_compressed(path, stuff=np.arange(3))
        with pytest.raises(ConfigurationError):
            load_checkpoint(path)

    def test_future_format_rejected(self, scenario, tmp_path):
        observations, make_session = scenario
        session = make_session()
        path = save_checkpoint(session, tmp_path / "c.npz")
        with np.load(path, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["format"] = np.array([999])
        np.savez_compressed(path, **arrays)
        with pytest.raises(ConfigurationError, match="format"):
            load_checkpoint(path)

    def test_no_tmp_file_left_behind(self, scenario, tmp_path):
        _, make_session = scenario
        save_checkpoint(make_session(), tmp_path / "c.npz")
        assert [p.name for p in tmp_path.iterdir()] == ["c.npz"]
