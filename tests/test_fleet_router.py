"""Fleet router end-to-end: routing, parity, metrics, HTTP endpoint."""

import dataclasses
import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.errors import ConfigurationError, ServeError
from repro.faults import FaultPlan, FaultSpec, injected
from repro.fleet import REDELIVERY_LIMIT, ServeFleet, worker_for
from repro.fpmap import build_fingerprint_map
from repro.geometry import RectangularField
from repro.network import build_network, sample_sniffers_percentage
from repro.serve import (
    ERROR_SHUTDOWN,
    ERROR_UNKNOWN_SESSION,
    ERROR_WORKER_CRASHED,
    LocalizationService,
    LocalizeRequest,
    MetricsServer,
    TrackStepRequest,
)
from repro.smc import TrackerConfig
from repro.traffic import MeasurementModel, simulate_flux
from repro.traffic.measurement import FluxObservation

USERS = 2
STEPS = 4


@pytest.fixture(scope="module")
def scenario():
    net = build_network(
        field=RectangularField(8, 8), node_count=64, radius=2.0, rng=11
    )
    sniffers = sample_sniffers_percentage(net, 25, rng=3)
    fmap = build_fingerprint_map(
        net.field, net.positions[sniffers], resolution=1.0
    )
    gen = np.random.default_rng(17)
    measure = MeasurementModel(net, sniffers, smooth=True, rng=gen)
    localizes = []
    for r in range(6):
        truth = net.field.sample_uniform(1, gen)
        flux = simulate_flux(
            net, list(truth), [float(gen.uniform(1.0, 3.0))], rng=gen
        )
        localizes.append(LocalizeRequest(
            request_id=f"r{r}", client_id=f"c{r % 3}",
            observation=measure.observe(flux), candidate_count=24,
            seed=int(gen.integers(2**31)),
        ))
    truth = net.field.sample_uniform(USERS, gen)
    stream = [
        measure.observe(
            simulate_flux(net, list(truth), [1.5, 2.5], rng=gen),
            time=float(step),
        )
        for step in range(STEPS)
    ]
    return net, sniffers, fmap, localizes, stream


def _fleet(scenario, workers=2, **kwargs):
    net, sniffers, fmap, _, _ = scenario
    return ServeFleet(
        net.field, net.positions[sniffers], workers=workers,
        fingerprint_map=fmap, max_batch=8, **kwargs
    )


def _steps(stream, session_id="s0"):
    return [
        TrackStepRequest(
            request_id=f"{session_id}-t{i}", client_id="tracker",
            session_id=session_id, observation=obs,
        )
        for i, obs in enumerate(stream)
    ]


def _fit_payload(reply):
    return [
        (f.positions.tobytes(), f.thetas.tobytes(), float(f.objective))
        for f in reply.result.fits
    ]


class TestEndToEnd:
    def test_two_workers_serve_localize_and_track(self, scenario):
        _, _, _, localizes, stream = scenario
        with _fleet(scenario) as fleet:
            assert sorted(fleet.worker_ids) == [0, 1]
            fleet.open_session("s0", USERS, rng=7)
            assert fleet.session_ids == ["s0"]
            futures = [fleet.submit(r) for r in localizes]
            replies = [f.result(timeout=120) for f in futures]
            track = [
                fleet.call(r, timeout=120) for r in _steps(stream)
            ]
        assert all(r.ok for r in replies)
        assert [r.request_id for r in replies] == [
            r.request_id for r in localizes
        ]
        assert all(r.ok and r.step is not None for r in track)

    def test_localize_affinity_follows_the_ring(self, scenario):
        _, _, _, localizes, _ = scenario
        # The router places localize traffic by worker_for(client_id, N);
        # a client computing it predicts every route.
        expected = {}
        for request in localizes:
            owner = worker_for(request.client_id, 2)
            expected[owner] = expected.get(owner, 0) + 1
        with _fleet(scenario) as fleet:
            for request in localizes:
                fleet.call(request, timeout=120)
            snapshot = fleet.snapshot()
        routed = snapshot["router"]["routed"]
        assert {int(k): v for k, v in routed.items()} == expected


class TestSingleProcessParity:
    def test_localize_replies_bitwise_match_single_service(self, scenario):
        net, sniffers, fmap, localizes, _ = scenario
        with _fleet(scenario) as fleet:
            fleet_replies = [
                _fit_payload(fleet.call(r, timeout=120)) for r in localizes
            ]
        with LocalizationService(
            net.field, net.positions[sniffers], fingerprint_map=fmap,
            max_batch=8,
        ) as service:
            solo_replies = [
                _fit_payload(service.call(r, timeout=120))
                for r in localizes
            ]
        assert fleet_replies == solo_replies

    def test_track_stream_bitwise_matches_single_service(self, scenario):
        net, sniffers, fmap, _, stream = scenario
        with _fleet(scenario) as fleet:
            fleet.open_session("s0", USERS, rng=7)
            fleet_estimates = [
                fleet.call(r, timeout=120).estimates.tobytes()
                for r in _steps(stream)
            ]
        with LocalizationService(
            net.field, net.positions[sniffers], fingerprint_map=fmap,
            max_batch=8,
        ) as service:
            service.open_session("s0", USERS, rng=7)
            solo_estimates = [
                service.call(r, timeout=120).estimates.tobytes()
                for r in _steps(stream)
            ]
        assert fleet_estimates == solo_estimates


class TestSessionsAndErrors:
    def test_unknown_session_is_a_typed_error(self, scenario):
        _, _, _, _, stream = scenario
        with _fleet(scenario) as fleet:
            reply = fleet.submit(_steps(stream, "ghost")[0]).result(
                timeout=60
            )
        assert not reply.ok
        assert reply.code == ERROR_UNKNOWN_SESSION
        with pytest.raises(ServeError):
            raise reply.to_exception()

    def test_duplicate_session_refused(self, scenario):
        with _fleet(scenario) as fleet:
            fleet.open_session("s0", USERS)
            with pytest.raises(ConfigurationError):
                fleet.open_session("s0", USERS)

    def test_close_session_frees_the_id(self, scenario):
        with _fleet(scenario) as fleet:
            fleet.open_session("s0", USERS)
            fleet.close_session("s0")
            assert fleet.session_ids == []
            fleet.open_session("s0", USERS)

    def test_submit_after_stop_is_shutdown_error(self, scenario):
        _, _, _, localizes, _ = scenario
        fleet = _fleet(scenario)
        fleet.start()
        fleet.stop()
        reply = fleet.submit(localizes[0]).result(timeout=60)
        assert not reply.ok and reply.code == ERROR_SHUTDOWN

    def test_sessions_are_placed_by_session_id(self, scenario):
        with _fleet(scenario, workers=3) as fleet:
            for i in range(6):
                owner = fleet.open_session(f"s{i}", USERS, rng=i)
                assert owner == worker_for(f"s{i}", 3)
                assert fleet.session_owner(f"s{i}") == owner
                assert f"s{i}" in fleet.worker_snapshot(owner)["sessions"]

    def test_oversized_session_is_refused_before_any_worker(self, scenario):
        _, _, _, localizes, stream = scenario
        with _fleet(scenario) as fleet:
            # 132 users x 1000 predictions passes MAX_CANDIDATE_ROWS.
            with pytest.raises(ConfigurationError, match="MAX_CANDIDATE_ROWS"):
                fleet.open_session("big", 132)
            with pytest.raises(ConfigurationError, match="MAX_CANDIDATE_ROWS"):
                fleet.open_session(
                    "big", USERS, config=TrackerConfig(prediction_count=70000)
                )
            assert fleet.session_ids == []
            fleet.open_session("s0", USERS, rng=7)
            assert fleet.call(localizes[0], timeout=120).ok
            assert fleet.call(_steps(stream)[0], timeout=120).ok
            router = fleet.snapshot()["router"]
        assert router["worker_deaths"] == 0

    def test_wrong_arity_localize_is_refused_before_any_worker(
        self, scenario
    ):
        _, _, _, localizes, _ = scenario
        obs = localizes[0].observation
        short = LocalizeRequest(
            request_id="short", client_id="c0",
            observation=FluxObservation(
                time=obs.time, sniffers=obs.sniffers[:-1],
                values=obs.values[:-1],
            ),
            candidate_count=24,
        )
        with _fleet(scenario) as fleet:
            with pytest.raises(ConfigurationError, match="readings"):
                fleet.submit(short)
            assert fleet.call(localizes[0], timeout=120).ok
            router = fleet.snapshot()["router"]
        assert router["requests_submitted"] == 1
        assert router["worker_deaths"] == 0


class TestMetricsAggregation:
    def test_fleet_snapshot_sums_worker_counters(self, scenario):
        _, _, _, localizes, _ = scenario
        with _fleet(scenario) as fleet:
            for request in localizes:
                fleet.call(request, timeout=120)
            # A worker counts each reply before it ships it, so the
            # counters are final as soon as the last call returns.
            snapshot = fleet.snapshot()
        assert set(snapshot) == {"router", "workers"}
        workers = snapshot["workers"]
        assert sorted(workers) == ["0", "1"]
        assert all(w["pid"] > 0 for w in workers.values())
        summed = sum(
            w["metrics"]["replies_ok"] for w in workers.values()
        )
        # With no worker death the live processes saw every request.
        assert summed == len(localizes)
        assert snapshot["router"]["replies_ok"] == len(localizes)

    def test_router_reconciles_after_a_worker_death(self, scenario):
        _, _, _, localizes, _ = scenario
        requests = [
            dataclasses.replace(localizes[i % len(localizes)],
                                request_id=f"d{i}")
            for i in range(8)
        ]
        plan = FaultPlan(
            [FaultSpec("fleet.worker.exit", times=1, skip=4)], seed=0
        )
        fleet = _fleet(scenario, workers=1)
        try:
            # Armed across start() only: the first process dies on
            # receipt of its fifth request, its replacement forks clean.
            with injected(plan):
                fleet.start()
            first_pid = fleet.worker_snapshot(0)["pid"]
            replies = [fleet.call(r, timeout=120) for r in requests]
            snapshot = fleet.snapshot()
        finally:
            fleet.stop()
        assert all(reply.ok for reply in replies)
        assert set(snapshot) == {"router", "workers"}
        router = snapshot["router"]
        assert router["worker_deaths"] == 1
        assert router["requests_submitted"] == 8
        assert router["replies_ok"] == 8
        # The replacement counts from zero: the dead process's four
        # replies are in router only.
        worker = snapshot["workers"]["0"]
        assert worker["pid"] != first_pid
        assert worker["metrics"]["replies_ok"] == 4

    def test_worker_snapshot_has_identity_and_sessions(self, scenario):
        with _fleet(scenario) as fleet:
            fleet.open_session("s0", USERS)
            owner = fleet.session_owner("s0")
            snap = fleet.worker_snapshot(owner)
        assert snap["worker_id"] == owner
        assert snap["pid"] > 0
        assert "s0" in snap["sessions"]

    def test_unknown_worker_snapshot_is_none(self, scenario):
        with _fleet(scenario) as fleet:
            assert fleet.worker_snapshot(99) is None

    def test_snapshot_after_stop(self, scenario):
        # As for one service, a stopped fleet still has a snapshot: the
        # router's counts, and no worker left to ask.
        _, _, _, localizes, _ = scenario
        with _fleet(scenario) as fleet:
            fleet.call(localizes[0], timeout=120)
        snapshot = fleet.snapshot()
        assert snapshot["router"]["replies_ok"] == 1
        assert snapshot["workers"] == {"0": None, "1": None}


class TestMetricsServerFleetMode:
    def _get(self, port, path):
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", timeout=30
        ) as response:
            return json.loads(response.read())

    def test_fleet_endpoints(self, scenario):
        _, _, _, localizes, _ = scenario
        with _fleet(scenario) as fleet:
            fleet.call(localizes[0], timeout=120)
            with MetricsServer(fleet) as server:
                snapshot = self._get(server.port, "/metrics")
                with pytest.raises(urllib.error.HTTPError) as trace:
                    self._get(server.port, "/trace")
        assert set(snapshot) == {"router", "workers"}
        assert sorted(snapshot["workers"]) == ["0", "1"]
        assert snapshot["workers"]["0"]["worker_id"] == 0
        assert snapshot["router"]["replies_ok"] == 1
        assert trace.value.code == 404

    def test_single_service_mode_unchanged(self, scenario):
        net, sniffers, fmap, localizes, _ = scenario
        with LocalizationService(
            net.field, net.positions[sniffers], fingerprint_map=fmap,
        ) as service:
            service.call(localizes[0], timeout=120)
            with MetricsServer(service) as server:
                port = server.port
                flat = self._get(port, "/metrics")
                traces = self._get(port, "/trace")
        assert flat["requests_submitted"] == 1
        assert flat["replies_ok"] == 1
        assert flat["metrics_endpoint"]["port"] == port
        assert len(traces["traces"]) == 1


class TestRedeliveryLimit:
    def test_request_outliving_the_limit_is_answered_worker_crashed(
        self, scenario
    ):
        _, _, _, localizes, _ = scenario
        plan = FaultPlan([FaultSpec("fleet.worker.exit", times=1)], seed=0)
        fleet = _fleet(scenario, workers=1)
        try:
            # Armed across start() and the traffic: every replacement
            # forks with a fresh copy of the plan and dies on receipt,
            # so the request dies with each of its deliveries.
            with injected(plan):
                fleet.start()
                doomed = fleet.submit(localizes[0]).result(timeout=120)
                deaths = fleet.snapshot()["router"]["worker_deaths"]
            # The replacement already forked still carries the plan; the
            # one after it forks disarmed and answers.
            survivor = fleet.submit(localizes[1]).result(timeout=120)
            router = fleet.snapshot()["router"]
        finally:
            fleet.stop()
        assert not doomed.ok and doomed.code == ERROR_WORKER_CRASHED
        assert deaths == REDELIVERY_LIMIT
        assert router["redelivery_failures"] == 1
        assert survivor.ok
        assert router["replies_ok"] == 1
        assert router["replies_error"] == {ERROR_WORKER_CRASHED: 1}
