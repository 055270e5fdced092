"""LocalizationService end to end: many clients, one deployment.

Covers the reply-delivery invariant under real thread concurrency
(every submitted request gets exactly one reply, none lost or
duplicated), session streaming equivalence with the local tracking
loop, drain-and-checkpoint shutdown with resume, the blocking
``call`` API, and the metrics HTTP endpoint.
"""

import gc
import json
import threading
import urllib.request

import numpy as np
import pytest

from repro.errors import ConfigurationError, DeadlineExpired
from repro.fpmap import build_fingerprint_map
from repro.geometry import RectangularField
from repro.network import build_network, sample_sniffers_percentage
from repro.serve import (
    ERROR_SHUTDOWN,
    ERROR_UNKNOWN_SESSION,
    MAX_CANDIDATE_ROWS,
    LocalizationService,
    LocalizeRequest,
    MetricsServer,
    TrackStepRequest,
)
from repro.smc import SequentialMonteCarloTracker, TrackerConfig, TrackerStep
from repro.stream import SyntheticLiveSource, TrackingSession
from repro.traffic import MeasurementModel, simulate_flux
from repro.traffic.measurement import FluxObservation

_CFG = TrackerConfig(prediction_count=100, keep_count=5)


@pytest.fixture(scope="module")
def scenario():
    net = build_network(
        field=RectangularField(10, 10), node_count=100, radius=2.0, rng=5
    )
    sniffers = sample_sniffers_percentage(net, 20, rng=2)
    fmap = build_fingerprint_map(net.field, net.positions[sniffers],
                                 resolution=2.0)
    return net, sniffers, fmap


def _service(scenario, **kwargs):
    net, sniffers, fmap = scenario
    kwargs.setdefault("fingerprint_map", fmap)
    kwargs.setdefault("max_batch", 8)
    return LocalizationService(net.field, net.positions[sniffers], **kwargs)


def _requests(scenario, clients, per_client, seed=0):
    net, sniffers, _ = scenario
    gen = np.random.default_rng(seed)
    measure = MeasurementModel(net, sniffers, smooth=True, rng=gen)
    work = []
    for c in range(clients):
        batch = []
        for r in range(per_client):
            truth = net.field.sample_uniform(1, gen)
            flux = simulate_flux(
                net, list(truth), [float(gen.uniform(1.0, 3.0))], rng=gen
            )
            batch.append(LocalizeRequest(
                request_id=f"c{c}-r{r}", client_id=f"client-{c}",
                observation=measure.observe(flux), candidate_count=32,
                seed=int(gen.integers(2**31)),
            ))
        work.append(batch)
    return work


class TestConcurrentClients:
    def test_no_lost_or_duplicated_replies(self, scenario):
        work = _requests(scenario, clients=4, per_client=8)
        replies = []
        lock = threading.Lock()

        def client(batch):
            mine = [None] * len(batch)
            for i, request in enumerate(batch):
                mine[i] = service.submit(request).result(timeout=30)
            with lock:
                replies.extend(mine)

        with _service(scenario) as service:
            threads = [
                threading.Thread(target=client, args=(batch,))
                for batch in work
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        submitted = {r.request_id for batch in work for r in batch}
        returned = [r.request_id for r in replies]
        assert len(returned) == len(submitted) == 32
        assert set(returned) == submitted  # none lost
        assert len(set(returned)) == len(returned)  # none duplicated
        assert all(r.ok for r in replies)
        assert service.metrics.replies_ok == 32

    def test_reply_routing_matches_request(self, scenario):
        work = _requests(scenario, clients=2, per_client=2)
        with _service(scenario) as service:
            for batch in work:
                for request in batch:
                    reply = service.submit(request).result(timeout=30)
                    assert reply.request_id == request.request_id
                    assert reply.client_id == request.client_id


class TestTrackingSessions:
    def _windows(self, scenario, rounds=5):
        net, sniffers, _ = scenario
        return list(SyntheticLiveSource(
            net, sniffers, user_count=2, rounds=rounds, rng=3
        ))

    def test_streamed_session_matches_local_loop(self, scenario):
        net, sniffers, fmap = scenario
        windows = self._windows(scenario)
        with _service(scenario) as service:
            service.open_session("s", user_count=2, config=_CFG, rng=11)
            for r, obs in enumerate(windows):
                reply = service.submit(TrackStepRequest(
                    request_id=f"r{r}", client_id="t", session_id="s",
                    observation=obs,
                )).result(timeout=30)
                assert reply.ok and reply.skip_reason is None
        local = TrackingSession("local", SequentialMonteCarloTracker(
            net.field, net.positions[sniffers], 2,
            config=_CFG, rng=11, fingerprint_map=fmap,
        ))
        for obs in windows:
            local.process(obs)
        session = service.close_session("s")
        assert session.windows_consumed == local.windows_consumed
        assert np.array_equal(session.estimates(), local.estimates())

    def test_skipped_window_is_a_reply_not_an_error(self, scenario):
        windows = self._windows(scenario)
        with _service(scenario) as service:
            service.open_session("s", user_count=2, config=_CFG, rng=11)
            first = service.submit(TrackStepRequest(
                request_id="r0", client_id="t", session_id="s",
                observation=windows[1],
            )).result(timeout=30)
            stale = service.submit(TrackStepRequest(
                request_id="r1", client_id="t", session_id="s",
                observation=windows[0],  # out of order
            )).result(timeout=30)
        assert first.ok and first.skip_reason is None
        assert stale.ok
        assert stale.skip_reason == TrackingSession.SKIP_OUT_OF_ORDER
        assert stale.step is None

    def test_sessions_interleave_through_one_queue(self, scenario):
        """Three sessions stream from their own threads into one
        service; each ends bit for bit where a standalone loop does."""
        net, sniffers, fmap = scenario
        seeds = {"a": (3, 11), "b": (4, 12), "c": (5, 13)}
        windows = {
            sid: list(SyntheticLiveSource(
                net, sniffers, user_count=2, rounds=5, rng=source_seed
            ))
            for sid, (source_seed, _) in seeds.items()
        }
        replies = {sid: [] for sid in seeds}

        def stream(sid):
            for r, obs in enumerate(windows[sid]):
                replies[sid].append(service.submit(TrackStepRequest(
                    request_id=f"{sid}{r}", client_id=sid, session_id=sid,
                    observation=obs,
                )).result(timeout=30))

        with _service(scenario, max_batch=8) as service:
            for sid, (_, tracker_seed) in seeds.items():
                service.open_session(sid, user_count=2, config=_CFG,
                                     rng=tracker_seed)
            threads = [threading.Thread(target=stream, args=(sid,))
                       for sid in seeds]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
        for sid, (_, tracker_seed) in seeds.items():
            assert len(replies[sid]) == 5
            assert all(r.ok and r.skip_reason is None for r in replies[sid])
            local = TrackingSession(sid, SequentialMonteCarloTracker(
                net.field, net.positions[sniffers], 2,
                config=_CFG, rng=tracker_seed, fingerprint_map=fmap,
            ))
            for obs in windows[sid]:
                local.process(obs)
            session = service.close_session(sid)
            assert session.windows_consumed == local.windows_consumed == 5
            assert np.array_equal(session.estimates(), local.estimates())

    def test_session_keeps_only_its_last_step(self, scenario):
        # A session lives until it is closed, so stepping it must not
        # pile up TrackerSteps (each holds every user's samples).
        windows = self._windows(scenario, rounds=60)
        cfg = TrackerConfig(prediction_count=100, keep_count=10)

        def steps_alive():
            gc.collect()
            return [o for o in gc.get_objects() if isinstance(o, TrackerStep)]

        before = len(steps_alive())
        with _service(scenario) as service:
            service.open_session("s", user_count=2, config=cfg, rng=11)
            for r, obs in enumerate(windows):
                assert service.submit(TrackStepRequest(
                    request_id=f"r{r}", client_id="t", session_id="s",
                    observation=obs,
                )).result(timeout=30).ok  # the reply is dropped here
            session = service.close_session("s")
        assert session.windows_consumed == 60
        alive = steps_alive()
        assert len(alive) - before <= 1
        assert any(step is session.last_step for step in alive)

    def test_unknown_session_is_a_typed_error(self, scenario):
        windows = self._windows(scenario, rounds=1)
        with _service(scenario) as service:
            reply = service.submit(TrackStepRequest(
                request_id="r0", client_id="t", session_id="ghost",
                observation=windows[0],
            )).result(timeout=30)
        assert not reply.ok
        assert reply.code == ERROR_UNKNOWN_SESSION

    def test_drain_and_checkpoint_then_resume(self, scenario, tmp_path):
        windows = self._windows(scenario)
        service = _service(scenario).start()
        service.open_session("patrol", user_count=2, config=_CFG, rng=11)
        for r, obs in enumerate(windows[:3]):
            service.submit(TrackStepRequest(
                request_id=f"r{r}", client_id="t", session_id="patrol",
                observation=obs,
            )).result(timeout=30)
        summary = service.stop(checkpoint_dir=tmp_path)
        path = summary["checkpoints"]["patrol"]
        assert path.endswith("patrol.ckpt.npz")

        revived = _service(scenario)
        session = revived.resume_session(path)
        assert session.session_id == "patrol"
        assert session.windows_consumed == 3
        with revived:
            reply = revived.submit(TrackStepRequest(
                request_id="r3", client_id="t", session_id="patrol",
                observation=windows[3],
            )).result(timeout=30)
        assert reply.ok and reply.skip_reason is None

    def test_duplicate_session_id_rejected(self, scenario):
        service = _service(scenario)
        service.open_session("s", user_count=2, config=_CFG)
        with pytest.raises(ConfigurationError):
            service.open_session("s", user_count=2, config=_CFG)


class TestLifecycle:
    def test_submit_after_stop_gets_shutdown_reply(self, scenario):
        request = _requests(scenario, 1, 1)[0][0]
        service = _service(scenario).start()
        service.stop()
        reply = service.submit(request).result(timeout=5)
        assert not reply.ok
        assert reply.code == ERROR_SHUTDOWN

    def test_stop_without_drain_flushes_queue(self, scenario):
        batch = _requests(scenario, 1, 4)[0]
        service = _service(scenario)  # never started: nothing drains
        futures = [service.submit(r) for r in batch]
        summary = service.stop(drain=False)
        assert summary["flushed"] == 4
        for future in futures:
            reply = future.result(timeout=5)
            assert reply.code == ERROR_SHUTDOWN

    def test_double_start_rejected(self, scenario):
        with _service(scenario) as service:
            with pytest.raises(ConfigurationError):
                service.start()

    def test_call_raises_typed_exception(self, scenario):
        request = _requests(scenario, 1, 1)[0][0]
        expired = LocalizeRequest(
            request_id="late", client_id="c", observation=request.observation,
            candidate_count=32, deadline_s=0.0,
        )
        with _service(scenario) as service:
            assert service.call(request, timeout=30).ok
            with pytest.raises(DeadlineExpired):
                service.call(expired, timeout=30)

    def test_rejects_non_request_objects(self, scenario):
        service = _service(scenario)
        with pytest.raises(ConfigurationError):
            service.submit({"request_id": "r"})


class TestRequestBudget:
    """``user_count x restarts x candidate_count`` is capped up front."""

    @staticmethod
    def _request(**knobs):
        return LocalizeRequest(
            request_id="r", client_id="c",
            observation=FluxObservation(
                time=0.0, sniffers=np.arange(3), values=np.ones(3)
            ),
            **knobs,
        )

    def test_paper_and_benchmark_budgets_admitted(self):
        # Fig. 5: 10,000 candidates per user, here at 4 users x 3 restarts.
        self._request(user_count=4, restarts=3, candidate_count=10_000)
        self._request(user_count=2, candidate_count=512)
        self._request(candidate_count=MAX_CANDIDATE_ROWS)
        # Integer knobs of any integral type pass, numpy's included.
        self._request(candidate_count=np.int32(24), seed=np.int64(7),
                      top_m=np.uint8(3))

    def test_oversized_budget_refused(self):
        with pytest.raises(ConfigurationError, match="MAX_CANDIDATE_ROWS"):
            self._request(candidate_count=50_000_000)
        with pytest.raises(ConfigurationError, match="MAX_CANDIDATE_ROWS"):
            self._request(
                user_count=2, restarts=2,
                candidate_count=MAX_CANDIDATE_ROWS // 4 + 1,
            )

    def test_oversized_session_refused(self, scenario):
        """``user_count x prediction_count`` is capped at open_session,
        before the tracker builds any prior."""
        service = _service(scenario)
        with pytest.raises(ConfigurationError, match="MAX_CANDIDATE_ROWS"):
            service.open_session("big", user_count=132)  # 1000 predictions
        cfg = TrackerConfig(prediction_count=MAX_CANDIDATE_ROWS // 2 + 1,
                            keep_count=5)
        with pytest.raises(ConfigurationError, match="MAX_CANDIDATE_ROWS"):
            service.open_session("big", user_count=2, config=cfg)
        assert service.session_ids == []
        service.open_session("ok", user_count=131)
        assert service.session_ids == ["ok"]

    @pytest.mark.parametrize("knob, value", [
        ("top_m", "3"),
        ("candidate_count", 24.5),
        ("user_count", 1.5),
        ("restarts", 1.5),
        ("candidate_count", True),
        ("sweeps", 2.0),
        ("seed_top_k", "8"),
        ("seed", "7"),
        ("seed", -1),
    ])
    def test_non_integer_or_negative_knob_refused(self, knob, value):
        with pytest.raises(ConfigurationError, match=knob):
            self._request(**{knob: value})

    @pytest.mark.parametrize("values", [
        [1.0, np.inf, 1.0],
        [1.0, np.nan, -np.inf],
        [np.nan, np.nan, np.nan],
        [1.0, 1e200, 1.0],
    ], ids=["inf", "-inf", "all-nan", "overflow"])
    def test_non_finite_flux_refused(self, values):
        """NaN is dropout; inf, an all-NaN window or readings whose sum
        of squares overflows are refused up front, not left to fail the
        request's fused batch."""
        with pytest.raises(ConfigurationError, match="observation"):
            LocalizeRequest(
                request_id="r", client_id="c",
                observation=FluxObservation(
                    time=0.0, sniffers=np.arange(3), values=np.array(values)
                ),
            )


    def test_wrong_arity_refused_at_submit(self, scenario):
        """A localize whose reading count is not the deployment's, or
        whose readings are not a flat vector, is refused before
        admission, so it cannot break the fused prematch of a
        map-seeded batch."""
        mates = _requests(scenario, clients=1, per_client=3, seed=4)[0]
        obs = mates[0].observation
        short = LocalizeRequest(
            request_id="short", client_id="client-0",
            observation=FluxObservation(
                time=obs.time, sniffers=obs.sniffers[:-1],
                values=obs.values[:-1],
            ),
            candidate_count=32,
        )
        # One reading per sniffer, but as a column: len() matches.
        nested = LocalizeRequest(
            request_id="nested", client_id="client-0",
            observation=FluxObservation(
                time=obs.time, sniffers=obs.sniffers[:, None],
                values=obs.values[:, None],
            ),
            candidate_count=32,
        )
        service = _service(scenario)
        futures = [service.submit(r) for r in mates[:2]]
        for refused in (short, nested):
            with pytest.raises(ConfigurationError, match="readings"):
                service.submit(refused)
        futures.append(service.submit(mates[2]))
        with service:
            replies = [f.result(timeout=60) for f in futures]
        assert all(reply.ok for reply in replies)
        snapshot = service.metrics.snapshot()
        assert snapshot["requests_submitted"] == 3
        assert "serve.prematch" not in snapshot["internal_faults"]
        assert snapshot["internal_faults_total"] == 0


class TestSharedState:
    def test_wrong_deployment_map_refused(self, scenario):
        net, sniffers, _ = scenario
        other = build_fingerprint_map(
            net.field, net.positions[sniffers][:-1], resolution=2.0
        )
        with pytest.raises(ConfigurationError):
            LocalizationService(
                net.field, net.positions[sniffers], fingerprint_map=other
            )


class TestMetricsEndpoint:
    def test_http_snapshot(self, scenario):
        batch = _requests(scenario, 1, 3)[0]
        with _service(scenario) as service:
            for request in batch:
                service.call(request, timeout=30)
            with MetricsServer(service.metrics, port=0) as endpoint:
                url = f"http://127.0.0.1:{endpoint.port}"
                payload = json.loads(
                    urllib.request.urlopen(f"{url}/metrics").read()
                )
                health = json.loads(
                    urllib.request.urlopen(f"{url}/healthz").read()
                )
        assert payload["replies_ok"] == 3
        assert payload["requests_submitted"] == 3
        assert payload["batches"] >= 1
        assert health == {"status": "ok"}

    def test_snapshot_fields(self, scenario):
        batch = _requests(scenario, 1, 2)[0]
        with _service(scenario) as service:
            for request in batch:
                service.call(request, timeout=30)
        snapshot = service.metrics.snapshot()
        for key in (
            "latency_p50_s", "latency_p95_s", "latency_p99_s",
            "batch_size_histogram", "batch_size_mean", "queue_depth",
            "deadline_expiries", "fused_candidate_rows",
        ):
            assert key in snapshot
        assert snapshot["fused_candidate_rows"] > 0
