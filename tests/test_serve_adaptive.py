"""Micro-batching: the drain and the bitwise parity sweep.

Two layers under test:

* Admission-queue behavior the scheduler's drain relies on: the
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

from repro.fpmap import build_fingerprint_map
from repro.geometry import RectangularField
from repro.network import build_network, sample_sniffers_percentage
from repro.serve import (
    LocalizationService,
    LocalizeRequest,
    MetricsServer,
)
from repro.serve.admission import MIN_IDLE_WAIT_S, AdmissionQueue, PendingRequest
from repro.traffic import FluxObservation, MeasurementModel, simulate_flux


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
            max_batch=8,
        ) as service:
            for batch in work:
                for request in batch:
                    service.call(request)
            snap = service.metrics.snapshot()
        cache = snap["kernel_cache"]
        assert cache["hits"] + cache["misses"] > 0
        assert 0.0 <= cache["hit_rate"] <= 1.0
        assert cache["size"] <= cache["capacity"]
        # No linger: every drain dispatches at once.
        assert snap["batches"] > 0
        assert snap["batch_controller"] == {
            "bypasses": snap["batches"], "windows": 0,
        }

    def test_metrics_endpoint_serves_probes(self, scenario):
        import json
        import urllib.request

        work = _requests(scenario, clients=1, per_client=2, seed=13)
        net, sniffers, fmap = scenario
        with LocalizationService(
            net.field, net.positions[sniffers], fingerprint_map=fmap,
            max_batch=8,
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
