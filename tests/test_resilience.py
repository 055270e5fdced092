"""Resilience wiring across engine, serve, and stream.

The latent-bug sweep's regression tests live here: exception swallows
are now observable, the admission deadline race is closed under an
injected clock, and checkpoints are atomic and typed on corruption.
"""

import threading

import numpy as np
import pytest

from repro.engine import Engine
from repro.errors import ConfigurationError, FaultInjected
from repro.faults import (
    FakeClock,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    clock,
    injected,
)
from repro.geometry import RectangularField
from repro.network import build_network, sample_sniffers_percentage
from repro.serve import (
    ERROR_DEADLINE_EXPIRED,
    ERROR_INTERNAL,
    LocalizationService,
    LocalizeRequest,
)
from repro.serve.admission import PendingRequest
from repro.serve.metrics import ServerMetrics
from repro.smc import SequentialMonteCarloTracker, TrackerConfig
from repro.stream import TrackingSession
from repro.stream.checkpoint import load_checkpoint, save_checkpoint
from repro.traffic import MeasurementModel, simulate_flux

_CFG = TrackerConfig(prediction_count=100, keep_count=5)
_FAST_RETRIES = RetryPolicy(max_attempts=3, base_delay_s=0.0, max_delay_s=0.0)


@pytest.fixture(scope="module")
def scenario():
    net = build_network(
        field=RectangularField(10, 10), node_count=100, radius=2.0, rng=5
    )
    sniffers = sample_sniffers_percentage(net, 20, rng=2)
    return net, sniffers


def _requests(net, sniffers, count, seed=0, deadline_s=None):
    gen = np.random.default_rng(seed)
    measure = MeasurementModel(net, sniffers, smooth=True, rng=gen)
    out = []
    for r in range(count):
        truth = net.field.sample_uniform(1, gen)
        flux = simulate_flux(
            net, list(truth), [float(gen.uniform(1.0, 3.0))], rng=gen
        )
        out.append(LocalizeRequest(
            request_id=f"r{r}", client_id="c0",
            observation=measure.observe(flux), candidate_count=32,
            seed=int(gen.integers(2**31)), use_map=False,
            deadline_s=deadline_s,
        ))
    return out


def _tracker(net, sniffers, rng=3):
    return SequentialMonteCarloTracker(
        net.field, net.positions[sniffers], user_count=1, config=_CFG, rng=rng
    )


# ----------------------------------------------------------------------
# Engine: failures propagate; the serve scheduler owns the retry.
# ----------------------------------------------------------------------
class TestEngineRetry:
    def test_no_policy_propagates_first_failure(self):
        def broken(x):
            raise FaultInjected("down")

        with pytest.raises(FaultInjected):
            Engine().map(broken, [1, 2])


# ----------------------------------------------------------------------
# Serve: observable prematch fallback, deadline race, degradation.
# ----------------------------------------------------------------------
class TestPrematchObserved:
    def test_raising_prematch_is_counted_and_recovered(self, scenario):
        net, sniffers = scenario
        from repro.fpmap import build_fingerprint_map

        fmap = build_fingerprint_map(net.field, net.positions[sniffers],
                                     resolution=2.0)
        service = LocalizationService(
            net.field, net.positions[sniffers], fingerprint_map=fmap,
            max_batch=4,
        )
        broken = {"count": 0}
        original = fmap.match_many

        def exploding(values, ks, **kwargs):
            broken["count"] += 1
            raise RuntimeError("prematch blew up")

        fmap.match_many = exploding
        try:
            requests = _requests(net, sniffers, 2, seed=1)
            # use_map must be on for the fused prematch to trigger.
            requests = [
                LocalizeRequest(
                    request_id=r.request_id, client_id=r.client_id,
                    observation=r.observation, candidate_count=32,
                    seed=r.seed, use_map=True,
                )
                for r in requests
            ]
            with service:
                replies = [service.submit(r).result(timeout=30) for r in requests]
        finally:
            fmap.match_many = original
        assert all(reply.ok for reply in replies)  # per-request fallback
        assert broken["count"] >= 1
        snapshot = service.metrics.snapshot()
        assert snapshot["internal_faults"].get("serve.prematch", 0) >= 1
        assert snapshot["internal_faults_total"] >= 1


class TestDeadlineDispatchRace:
    def test_expiry_between_drain_and_dispatch(self, scenario):
        """A deadline lapsing after the queue purge still gets the typed
        reply — re-checked at dispatch time on the injected clock."""
        net, sniffers = scenario
        service = LocalizationService(net.field, net.positions[sniffers])
        scheduler = service.scheduler
        fake = FakeClock(start=1000.0)
        with clock.installed(fake):
            request = _requests(net, sniffers, 1, seed=2, deadline_s=5.0)[0]
            item = PendingRequest.wrap(request)
            assert not item.expired()
            # The race window: drained at t=1000, dispatched after the
            # deadline passed (a slow fused batch ahead of it).
            fake.advance(6.0)
            scheduler._process([item])
            reply = item.future.result(timeout=5)
        assert not reply.ok
        assert reply.code == ERROR_DEADLINE_EXPIRED
        assert "before evaluation" in reply.message
        assert service.metrics.snapshot()["deadline_expiries"] == 1

    def test_live_request_still_solved(self, scenario):
        net, sniffers = scenario
        service = LocalizationService(net.field, net.positions[sniffers])
        fake = FakeClock(start=1000.0)
        with clock.installed(fake):
            request = _requests(net, sniffers, 1, seed=3, deadline_s=50.0)[0]
            item = PendingRequest.wrap(request)
            fake.advance(6.0)
            service.scheduler._process([item])
            reply = item.future.result(timeout=5)
        assert reply.ok


class TestServeDegradation:
    def test_fuse_fault_retried_bitwise_identical(self, scenario):
        net, sniffers = scenario
        requests = _requests(net, sniffers, 3, seed=4)

        def run(plan):
            service = LocalizationService(
                net.field, net.positions[sniffers], max_batch=4,
                retry_policy=_FAST_RETRIES,
            )
            with injected(plan), service:
                return [service.submit(r).result(timeout=30)
                        for r in requests]

        baseline = run(None)
        plan = FaultPlan([FaultSpec("serve.batch.fuse", times=2)], seed=1)
        faulted = run(plan)
        assert plan.fired("serve.batch.fuse") == 2
        assert all(r.ok for r in faulted)
        for a, b in zip(baseline, faulted):
            for fa, fb in zip(a.result.fits, b.result.fits):
                np.testing.assert_array_equal(fa.positions, fb.positions)
                np.testing.assert_array_equal(fa.thetas, fb.thetas)
                assert fa.objective == fb.objective

    @pytest.mark.parametrize(
        "engine_kwargs",
        [None, {}, {"workers": 2, "chunk_size": 16}],
        ids=["no-engine", "serial-engine", "threaded-engine"],
    )
    def test_persistent_fuse_fault_is_one_typed_reply_per_request(
        self, scenario, engine_kwargs
    ):
        """A fault the retries cannot absorb costs one retry budget and
        answers each request once with ``internal``, whatever the engine."""
        net, sniffers = scenario
        eng = None if engine_kwargs is None else Engine(**engine_kwargs)
        service = LocalizationService(
            net.field, net.positions[sniffers], engine=eng,
            retry_policy=_FAST_RETRIES,
        )
        scheduler = service.scheduler
        plan = FaultPlan([FaultSpec("serve.batch.fuse", times=None)], seed=2)
        try:
            items = [
                PendingRequest.wrap(request)
                for request in _requests(net, sniffers, 2, seed=10)
            ]
            with injected(plan):
                scheduler._process(items)
            for item in items:
                reply = item.future.result(timeout=5)
                assert reply.code == ERROR_INTERNAL
                assert "RetriesExhausted" in reply.message
            assert plan.fired("serve.batch.fuse") == 3
            snapshot = service.metrics.snapshot()
            assert snapshot["retries_total"] == 2
            assert snapshot["replies_error"] == {ERROR_INTERNAL: 2}
            # Disarmed: the next batch is answered normally.
            item = PendingRequest.wrap(
                _requests(net, sniffers, 1, seed=12)[0]
            )
            scheduler._process([item])
            assert item.future.result(timeout=5).ok
        finally:
            if eng is not None:
                eng.close()

    def test_metrics_snapshot_has_resilience_keys(self):
        snapshot = ServerMetrics().snapshot()
        for key in ("retries", "retries_total", "internal_faults",
                    "internal_faults_total"):
            assert key in snapshot


# ----------------------------------------------------------------------
# Stream: observable step failures.
# ----------------------------------------------------------------------
class TestSessionStepObserved:
    def test_raising_tracker_is_counted(self, scenario):
        net, sniffers = scenario
        gen = np.random.default_rng(6)
        measure = MeasurementModel(net, sniffers, smooth=True, rng=gen)
        truth = net.field.sample_uniform(1, gen)
        flux = simulate_flux(net, list(truth), [1.5], rng=gen)
        obs = measure.observe(flux)

        session = TrackingSession("obs", _tracker(net, sniffers))

        def exploding(observation):
            raise RuntimeError("solver diverged")

        session.tracker.step = exploding
        step = session.process(obs)
        assert step is None  # never-raise contract intact
        assert session.step_errors == {"RuntimeError": 1}
        assert session.last_error == "RuntimeError: solver diverged"
        summary = session.summary()
        assert summary["step_errors"] == {"RuntimeError": 1}
        assert summary["last_error"] == "RuntimeError: solver diverged"
        assert session.metrics.windows_skipped["step_failed"] == 1
        assert session.last_skip_reason == TrackingSession.SKIP_STEP_FAILED
        del session.tracker.step  # the class's step again
        assert session.process(obs) is not None
        assert session.last_skip_reason is None

    def test_clean_session_reports_empty_errors(self, scenario):
        net, sniffers = scenario
        session = TrackingSession("clean", _tracker(net, sniffers))
        assert session.summary()["step_errors"] == {}
        assert session.summary()["last_error"] is None


# ----------------------------------------------------------------------
# Checkpoints: atomicity, typed corruption, retryable writes.
# ----------------------------------------------------------------------
class TestCheckpointAtomicity:
    def _session(self, scenario, seed=7):
        net, sniffers = scenario
        return TrackingSession("ckpt", _tracker(net, sniffers, rng=seed))

    def test_partial_write_leaves_no_file(self, scenario, tmp_path):
        session = self._session(scenario)
        path = tmp_path / "a.ckpt.npz"
        plan = FaultPlan([FaultSpec("checkpoint.partial_write", times=1)])
        with injected(plan):
            with pytest.raises(FaultInjected):
                save_checkpoint(session, path)
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []  # temp cleaned up too

    def test_partial_write_preserves_previous_checkpoint(
        self, scenario, tmp_path
    ):
        session = self._session(scenario)
        path = tmp_path / "b.ckpt.npz"
        save_checkpoint(session, path)
        before = path.read_bytes()
        plan = FaultPlan([FaultSpec("checkpoint.partial_write", times=1)])
        with injected(plan):
            with pytest.raises(FaultInjected):
                save_checkpoint(session, path)
        assert path.read_bytes() == before  # old one untouched, loadable
        assert load_checkpoint(path).session_id == "ckpt"

    def test_retry_absorbs_torn_write_bitwise(self, scenario, tmp_path):
        session = self._session(scenario)
        clean = tmp_path / "clean.ckpt.npz"
        save_checkpoint(session, clean)
        faulted = tmp_path / "faulted.ckpt.npz"
        plan = FaultPlan([
            FaultSpec("checkpoint.partial_write", times=1),
            FaultSpec("checkpoint.fsync", times=1),
        ])
        with injected(plan):
            save_checkpoint(session, faulted, retry_policy=_FAST_RETRIES)
        assert plan.fired("checkpoint.partial_write") == 1
        assert plan.fired("checkpoint.fsync") == 1
        assert faulted.read_bytes() == clean.read_bytes()

    def test_fsync_fault_is_oserror_hence_transient(self, scenario, tmp_path):
        session = self._session(scenario)
        path = tmp_path / "c.ckpt.npz"
        plan = FaultPlan([FaultSpec("checkpoint.fsync", times=1)])
        with injected(plan):
            with pytest.raises(OSError):
                save_checkpoint(session, path)
        assert not path.exists()

    def test_truncated_checkpoint_is_typed(self, scenario, tmp_path):
        session = self._session(scenario)
        path = tmp_path / "t.ckpt.npz"
        save_checkpoint(session, path)
        payload = path.read_bytes()
        path.write_bytes(payload[: len(payload) // 2])
        with pytest.raises(ConfigurationError, match="corrupt or truncated"):
            load_checkpoint(path)

    def test_garbage_checkpoint_is_typed_with_path(self, scenario, tmp_path):
        path = tmp_path / "g.ckpt.npz"
        path.write_bytes(b"not a zip archive at all")
        with pytest.raises(ConfigurationError, match=str(path)):
            load_checkpoint(path)

    def test_missing_checkpoint_stays_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "absent.ckpt.npz")

    def test_concurrent_writers_unique_temps(self, scenario, tmp_path):
        """Two saves of the same path from different threads never
        corrupt each other (pid-unique temp + atomic publish)."""
        session = self._session(scenario)
        path = tmp_path / "race.ckpt.npz"
        errors = []

        def write():
            try:
                for _ in range(5):
                    save_checkpoint(session, path)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=write) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert load_checkpoint(path).session_id == "ckpt"
