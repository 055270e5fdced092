"""Adaptive micro-batching: controller policy and the bitwise parity
sweep.

Three layers under test:

* :class:`~repro.serve.AdaptiveBatchController` policy unit tests —
  depth-k bypass, EWMA window sizing, settle-early drain.
* Admission-queue behavior the controller plugs into: the
  ``wait_timeout=0`` busy-spin clamp (regression test) and the fair
  drain order, which deadlines never change.
* End-to-end parity: sweeping client counts, the batching scheduler
  and per-request dispatch (``max_batch=1``) must produce
  float64-bitwise-identical replies — including NaN-dropout
  observations.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.fpmap import build_fingerprint_map
from repro.geometry import RectangularField
from repro.network import build_network, sample_sniffers_percentage
from repro.serve import (
    AdaptiveBatchController,
    LocalizationService,
    LocalizeRequest,
    MetricsServer,
)
from repro.serve.admission import MIN_IDLE_WAIT_S, AdmissionQueue, PendingRequest
from repro.traffic import FluxObservation, MeasurementModel, simulate_flux


# ----------------------------------------------------------------------
# Controller policy
# ----------------------------------------------------------------------
class TestAdaptiveBatchController:
    def test_bypass_below_fusion_min_depth(self):
        ctl = AdaptiveBatchController(max_wait_s=0.002)
        assert ctl.FUSION_MIN_DEPTH == 2
        # Fresh controller: batch EWMA is 1.0 < 2, depth 1 < 2 -> bypass.
        assert ctl.linger_window_s(1, 16) == 0.0
        assert ctl.bypasses == 1

    def test_depth_at_threshold_lingers(self):
        ctl = AdaptiveBatchController(max_wait_s=0.002)
        window = ctl.linger_window_s(2, 16)
        assert 0.0 < window <= 0.002
        assert ctl.windows == 1

    def test_full_batch_dispatches_immediately(self):
        ctl = AdaptiveBatchController(max_wait_s=0.002)
        assert ctl.linger_window_s(16, 16) == 0.0
        # A full drain is neither a bypass nor a window.
        assert ctl.bypasses == 0 and ctl.windows == 0

    def test_batch_ewma_releases_bypass(self):
        # Sustained large drains mean fusion is paying; even a
        # momentarily shallow queue should linger for the batch.
        ctl = AdaptiveBatchController(max_wait_s=0.002)
        for _ in range(20):
            ctl.observe_drain(8)
        assert ctl.batch_ewma > ctl.FUSION_MIN_DEPTH
        assert ctl.linger_window_s(1, 16) > 0.0

    def test_lone_client_drains_keep_bypass_engaged(self):
        # The closed-loop trap: a single client's drains are size 1
        # forever, so the bypass must stay on no matter the gap EWMA.
        ctl = AdaptiveBatchController(max_wait_s=0.002)
        now = 100.0
        for _ in range(50):
            ctl.observe_arrival(now)
            ctl.observe_drain(1)
            now += 1e-4  # gaps far shorter than max_wait_s
        assert ctl.linger_window_s(1, 16) == 0.0

    def test_gap_ewma_tracks_arrivals_and_skips_idle(self):
        ctl = AdaptiveBatchController(max_wait_s=0.01)
        now = 10.0
        for _ in range(40):
            ctl.observe_arrival(now)
            now += 1e-3
        assert ctl.gap_ewma_s == pytest.approx(1e-3, rel=0.1)
        before = ctl.gap_ewma_s
        ctl.observe_arrival(now + 60.0)  # coffee break: gap is idle time
        assert ctl.gap_ewma_s == before

    def test_window_predicts_fill_time(self):
        ctl = AdaptiveBatchController(max_wait_s=1.0)
        now = 10.0
        for _ in range(40):
            ctl.observe_arrival(now)
            now += 1e-3
        # 12 more arrivals expected to fill 16 from depth 4.
        window = ctl.linger_window_s(4, 16)
        assert window == pytest.approx(12 * ctl.gap_ewma_s)

    def test_settle_bounded_by_max_wait(self):
        ctl = AdaptiveBatchController(max_wait_s=0.002)
        assert 0.0 < ctl.settle_s() <= 0.002
        ctl.observe_arrival(50.0)
        assert ctl.settle_at() == 50.0 + ctl.settle_s()

    def test_snapshot_keys(self):
        ctl = AdaptiveBatchController(max_wait_s=0.002)
        ctl.linger_window_s(1, 16)
        snap = ctl.snapshot()
        for key in ("gap_ewma_s", "batch_ewma", "bypasses", "windows",
                    "last_window_s", "window_mean_s"):
            assert key in snap
        assert snap["bypasses"] == 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AdaptiveBatchController(max_wait_s=-1.0)


# ----------------------------------------------------------------------
# Admission-queue behavior
# ----------------------------------------------------------------------
class TestBusySpinRegression:
    def test_zero_wait_clamps_to_cv_sleep(self):
        # wait_timeout=0 used to return instantly on an empty queue,
        # turning the scheduler loop into a 100%-CPU poll.
        queue = AdmissionQueue()
        started = time.perf_counter()
        batch, expired = queue.take(8, wait_timeout=0.0)
        elapsed = time.perf_counter() - started
        assert batch == [] and expired == []
        assert elapsed >= 0.5 * MIN_IDLE_WAIT_S

    def test_negative_wait_clamps_too(self):
        queue = AdmissionQueue()
        started = time.perf_counter()
        queue.take(8, wait_timeout=-1.0)
        assert time.perf_counter() - started >= 0.5 * MIN_IDLE_WAIT_S

    def test_bounded_iterations_in_window(self):
        # The practical claim: an idle take-loop configured with zero
        # wait cannot spin more than window/MIN_IDLE_WAIT_S times.
        queue = AdmissionQueue()
        deadline = time.perf_counter() + 0.05
        spins = 0
        while time.perf_counter() < deadline:
            queue.take(8, wait_timeout=0.0)
            spins += 1
        assert spins <= 0.05 / MIN_IDLE_WAIT_S + 5


def _offer(queue, client_id, deadline_s=None):
    item = PendingRequest.wrap(
        SimpleNamespace(client_id=client_id, deadline_s=deadline_s)
    )
    assert queue.offer(item) == "admitted"
    return item


class TestUrgentDrain:
    """Deadlines never reorder the drain: only the fair rotation does."""

    def test_no_deadlines_keeps_round_robin(self):
        queue = AdmissionQueue()
        a1 = _offer(queue, "a")
        a2 = _offer(queue, "a")
        b1 = _offer(queue, "b")
        batch, _ = queue.take(8, wait_timeout=0.1)
        assert batch == [a1, b1, a2]

    def test_loose_deadlines_outside_slack_keep_rotation(self):
        queue = AdmissionQueue()
        a1 = _offer(queue, "a", deadline_s=100.0)
        b1 = _offer(queue, "b", deadline_s=50.0)
        batch, _ = queue.take(8, wait_timeout=0.1)
        assert batch == [a1, b1]
        # A tight deadline buried in a's lane, and b's head expiring
        # before a's head: still plain rotation order.
        a1 = _offer(queue, "a", deadline_s=50.0)
        a2 = _offer(queue, "a", deadline_s=0.5)
        b1 = _offer(queue, "b", deadline_s=5.0)
        batch, expired = queue.take(8, wait_timeout=0.1)
        assert expired == []
        assert batch == [a1, b1, a2]


# ----------------------------------------------------------------------
# End-to-end parity sweep
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def scenario():
    net = build_network(
        field=RectangularField(10, 10), node_count=100, radius=2.0, rng=5
    )
    sniffers = sample_sniffers_percentage(net, 20, rng=2)
    fmap = build_fingerprint_map(net.field, net.positions[sniffers],
                                 resolution=2.0)
    return net, sniffers, fmap


def _requests(scenario, clients, per_client, seed=0, dropout_every=None):
    """Per-client request lists; every ``dropout_every``-th request gets
    NaN readings (sniffer dropout) injected into its observation."""
    net, sniffers, _ = scenario
    gen = np.random.default_rng(seed)
    measure = MeasurementModel(net, sniffers, smooth=True, rng=gen)
    work = []
    index = 0
    for c in range(clients):
        batch = []
        for r in range(per_client):
            truth = net.field.sample_uniform(1, gen)
            flux = simulate_flux(
                net, list(truth), [float(gen.uniform(1.0, 3.0))], rng=gen
            )
            obs = measure.observe(flux)
            if dropout_every and index % dropout_every == 0:
                values = obs.values.copy()
                values[: max(1, values.shape[0] // 4)] = np.nan
                obs = FluxObservation(
                    time=obs.time, sniffers=obs.sniffers, values=values
                )
            batch.append(LocalizeRequest(
                request_id=f"c{c}-r{r}", client_id=f"client-{c}",
                observation=obs, candidate_count=16, seed_top_k=8,
                top_m=3, sweeps=2, seed=int(gen.integers(2**31)),
            ))
            index += 1
        work.append(batch)
    return work


def _fit_payload(result):
    return [
        (f.positions.tobytes(), f.thetas.tobytes(), float(f.objective))
        for f in result.fits
    ]


def _replies_for(scenario, work, **service_kwargs):
    net, sniffers, fmap = scenario
    service_kwargs.setdefault("fingerprint_map", fmap)
    service_kwargs.setdefault("max_batch", 16)
    service_kwargs.setdefault("max_wait_s", 0.002)
    service_kwargs.setdefault("queue_capacity", 1024)
    with LocalizationService(
        net.field, net.positions[sniffers], **service_kwargs
    ) as service:
        futures = [service.submit(r) for batch in work for r in batch]
        return {
            f.result().request_id: _fit_payload(f.result().result)
            for f in futures
        }


class TestParitySweep:
    @pytest.mark.parametrize("clients", [1, 2, 4, 8, 16, 64])
    def test_adaptive_matches_per_request_dispatch(self, scenario, clients):
        work = _requests(scenario, clients, per_client=2, seed=clients,
                         dropout_every=3)
        batched = _replies_for(scenario, work)
        oracle = _replies_for(scenario, work, max_batch=1)
        assert batched == oracle


# ----------------------------------------------------------------------
# Metrics exposure
# ----------------------------------------------------------------------
class TestMetricsExposure:
    def test_probe_sections_in_snapshot(self, scenario):
        work = _requests(scenario, clients=2, per_client=3, seed=11)
        net, sniffers, fmap = scenario
        with LocalizationService(
            net.field, net.positions[sniffers], fingerprint_map=fmap,
            max_batch=8, max_wait_s=0.002,
        ) as service:
            for batch in work:
                for request in batch:
                    service.call(request)
            snap = service.metrics.snapshot()
        cache = snap["kernel_cache"]
        assert cache["hits"] + cache["misses"] > 0
        assert 0.0 <= cache["hit_rate"] <= 1.0
        assert cache["size"] <= cache["capacity"]
        controller = snap["batch_controller"]
        assert controller["bypasses"] + controller["windows"] > 0

    def test_metrics_endpoint_serves_probes(self, scenario):
        import json
        import urllib.request

        work = _requests(scenario, clients=1, per_client=2, seed=13)
        net, sniffers, fmap = scenario
        with LocalizationService(
            net.field, net.positions[sniffers], fingerprint_map=fmap,
            max_batch=8, max_wait_s=0.002,
        ) as service:
            for request in work[0]:
                service.call(request)
            with MetricsServer(service.metrics, port=0) as endpoint:
                url = f"http://127.0.0.1:{endpoint.port}/metrics"
                payload = json.loads(urllib.request.urlopen(url).read())
        for section in ("kernel_cache", "batch_controller"):
            assert section in payload
        assert payload["kernel_cache"]["hits"] + \
            payload["kernel_cache"]["misses"] > 0
