"""TrackingSession: defensive validation, latency accounting, truth errors."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.network import sample_sniffers_percentage
from repro.smc import SequentialMonteCarloTracker, TrackerConfig
from repro.stream import SyntheticLiveSource, TrackingSession
from repro.traffic.measurement import FluxObservation

_CFG = TrackerConfig(prediction_count=120, keep_count=8)


@pytest.fixture()
def scenario(small_network):
    sniffers = sample_sniffers_percentage(small_network, 20, rng=1)
    source = SyntheticLiveSource(
        small_network, sniffers, user_count=1, rounds=6, rng=2
    )
    observations = list(source)

    def make_session(truth=None):
        tracker = SequentialMonteCarloTracker(
            small_network.field,
            small_network.positions[sniffers],
            user_count=1,
            config=_CFG,
            rng=7,
        )
        return TrackingSession("s1", tracker, truth=truth)

    return source, observations, make_session


class TestProcessing:
    def test_processes_good_windows(self, scenario):
        _, observations, make_session = scenario
        session = make_session()
        for obs in observations:
            step = session.process(obs)
            assert step is not None
        assert session.metrics.windows_processed == len(observations)
        assert session.windows_consumed == len(observations)
        assert session.last_time == observations[-1].time
        assert session.estimates().shape == (1, 2)

    def test_latency_recorded(self, scenario):
        _, observations, make_session = scenario
        session = make_session()
        session.process(observations[0])
        q = session.metrics.latency_quantiles()
        assert q["p50"] > 0.0
        assert q["p95"] >= q["p50"]

    def test_truth_error_accounted(self, scenario):
        source, observations, make_session = scenario
        session = make_session(truth=source.truth_at)
        for obs in observations:
            session.process(obs)
        assert np.isfinite(session.metrics.mean_error())

    def test_without_truth_error_is_nan(self, scenario):
        _, observations, make_session = scenario
        session = make_session()
        session.process(observations[0])
        assert np.isnan(session.metrics.mean_error())


class TestValidationSkips:
    def test_out_of_order_window_skipped(self, scenario):
        _, observations, make_session = scenario
        session = make_session()
        session.process(observations[2])
        assert session.process(observations[0]) is None  # time went backwards
        assert session.process(observations[2]) is None  # duplicate time
        assert (
            session.metrics.windows_skipped[TrackingSession.SKIP_OUT_OF_ORDER]
            == 2
        )
        # the stream continues fine afterwards
        assert session.process(observations[3]) is not None

    def test_arity_mismatch_skipped(self, scenario):
        _, observations, make_session = scenario
        session = make_session()
        bad = FluxObservation(
            time=0.5, sniffers=np.arange(3), values=np.ones(3)
        )
        assert session.process(bad) is None
        assert (
            session.metrics.windows_skipped[
                TrackingSession.SKIP_ARITY_MISMATCH
            ]
            == 1
        )

    def test_non_observation_skipped(self, scenario):
        _, _, make_session = scenario
        session = make_session()
        assert session.process({"time": 0.0}) is None
        assert session.process(None) is None
        assert (
            session.metrics.windows_skipped[TrackingSession.SKIP_BAD_TYPE] == 2
        )

    def test_bad_time_skipped(self, scenario):
        _, observations, make_session = scenario
        session = make_session()
        template = observations[0]
        for bad_time in (float("nan"), float("inf")):
            bad = FluxObservation(
                time=bad_time,
                sniffers=template.sniffers,
                values=template.values,
            )
            assert session.process(bad) is None
        assert (
            session.metrics.windows_skipped[TrackingSession.SKIP_BAD_TIME] == 2
        )

    def test_infinite_or_negative_values_skipped(self, scenario):
        _, observations, make_session = scenario
        session = make_session()
        template = observations[0]
        inf_values = template.values.copy()
        inf_values[0] = np.inf
        neg_values = template.values.copy()
        neg_values[0] = -1.0
        for values in (inf_values, neg_values):
            bad = FluxObservation(
                time=0.25, sniffers=template.sniffers, values=values
            )
            assert session.process(bad) is None
        assert (
            session.metrics.windows_skipped[TrackingSession.SKIP_BAD_VALUES]
            == 2
        )

    @pytest.mark.parametrize("bad_value", [1e200, np.nan],
                             ids=["overflow", "all-nan"])
    def test_overflowing_or_empty_window_skipped_then_next_steps(
        self, scenario, bad_value
    ):
        """A finite reading whose square overflows, or a window with no
        finite reading, is skipped ``bad_values``, not stepped with an
        ``inf`` objective or failed in the tracker; the next good
        window steps."""
        _, observations, make_session = scenario
        session = make_session()
        template = observations[0]
        values = template.values.copy()
        values[0] = bad_value
        if np.isnan(bad_value):
            values[:] = np.nan
        bad = FluxObservation(
            time=template.time, sniffers=template.sniffers, values=values
        )
        assert session.process(bad) is None
        assert session.last_skip_reason == TrackingSession.SKIP_BAD_VALUES
        assert session.step_errors == {}
        assert session.process(template) is not None
        assert session.last_skip_reason is None

    def test_nan_dropout_values_accepted(self, scenario):
        _, observations, make_session = scenario
        session = make_session()
        template = observations[0]
        values = template.values.copy()
        values[:2] = np.nan  # sniffer dropout is legitimate
        obs = FluxObservation(
            time=template.time, sniffers=template.sniffers, values=values
        )
        assert session.process(obs) is not None

    def test_skips_never_advance_clock(self, scenario):
        _, observations, make_session = scenario
        session = make_session()
        session.process(observations[0])
        before = session.last_time
        session.process("garbage")
        assert session.last_time == before

    def test_tracker_state_untouched_by_skips(self, scenario):
        _, observations, make_session = scenario
        session = make_session()
        session.process(observations[0])
        estimates_before = session.estimates().copy()
        session.process(observations[0])  # duplicate -> skipped
        session.process(42)
        np.testing.assert_array_equal(session.estimates(), estimates_before)


class TestConstruction:
    def test_empty_session_id_rejected(self, scenario):
        _, _, make_session = scenario
        tracker = make_session().tracker
        with pytest.raises(ConfigurationError):
            TrackingSession("", tracker)

    def test_summary_shape(self, scenario):
        _, observations, make_session = scenario
        session = make_session()
        session.process(observations[0])
        summary = session.summary()
        assert summary["session_id"] == "s1"
        assert summary["windows_consumed"] == 1
        assert summary["windows_processed"] == 1
