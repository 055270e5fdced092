"""Per-stage latency decomposition through the serve path itself.

No gateway here: the scheduler stamps admission/fuse/solve/reply on
every request it completes, ServerMetrics aggregates them into the
snapshot and the bounded trace ring, and the MetricsServer exposes
both at ``/trace``. The gateway tests cover the two extra legs.
"""

import json
import urllib.request

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
from repro.serve.metrics import ServerMetrics
from repro.traffic import MeasurementModel, simulate_flux


@pytest.fixture(scope="module")
def scenario():
    net = build_network(
        field=RectangularField(10, 10), node_count=100, radius=2.0, rng=5
    )
    sniffers = sample_sniffers_percentage(net, 20, rng=2)
    fmap = build_fingerprint_map(net.field, net.positions[sniffers],
                                 resolution=2.0)
    return net, sniffers, fmap


def _requests(scenario, count, seed=0, **knobs):
    net, sniffers, _ = scenario
    gen = np.random.default_rng(seed)
    measure = MeasurementModel(net, sniffers, smooth=True, rng=gen)
    out = []
    for r in range(count):
        truth = net.field.sample_uniform(1, gen)
        flux = simulate_flux(
            net, list(truth), [float(gen.uniform(1.0, 3.0))], rng=gen
        )
        out.append(LocalizeRequest(
            request_id=f"r{r}", client_id="t",
            observation=measure.observe(flux), candidate_count=24,
            seed=int(gen.integers(2**31)), **knobs,
        ))
    return out


@pytest.fixture()
def served(scenario):
    net, sniffers, fmap = scenario
    with LocalizationService(
        net.field, net.positions[sniffers], fingerprint_map=fmap,
        max_batch=8,
    ) as service:
        requests = _requests(scenario, 6)
        requests[0] = LocalizeRequest(
            request_id=requests[0].request_id, client_id="t",
            observation=requests[0].observation, candidate_count=24,
            seed=requests[0].seed, span_id="custom-span-0",
        )
        replies = [
            service.submit(r).result(timeout=30) for r in requests
        ]
        yield service, requests, replies


class TestStageDecomposition:
    def test_snapshot_reports_request_path_stages(self, served):
        service, _, replies = served
        assert all(r.ok for r in replies)
        stages = service.metrics.snapshot()["stages"]
        for stage in ("admission", "solve", "reply"):
            assert stage in stages, f"missing stage {stage!r}"
            assert stages[stage]["count"] >= len(replies)
            assert stages[stage]["p95_s"] >= 0.0
        # No gateway in front: its legs must NOT appear.
        assert "gateway_in" not in stages
        assert "gateway_out" not in stages

    def test_lone_requests_stamp_admission_once(self, served):
        # Sequential lone requests each drain as a batch of one; each
        # must record exactly one admission sample, equal to its queue
        # wait.
        service, _, replies = served
        assert all(r.batch_size == 1 for r in replies)
        snap = service.metrics.snapshot()
        admission = snap["stages"]["admission"]
        assert admission["count"] == len(replies)
        assert admission["p50_s"] == snap["queue_wait_p50_s"]

    def test_trace_durations_sum_to_the_total(self, served):
        service, requests, _ = served
        traces = service.metrics.recent_traces()
        assert len(traces) == len(requests)
        for trace in traces:
            assert trace["ok"] is True
            assert trace["total_s"] == pytest.approx(
                sum(trace["stages"].values())
            )
            assert trace["stages"]["reply"] >= 0.0

    def test_span_id_defaults_to_request_id_and_propagates(self, served):
        service, requests, _ = served
        by_request = {
            t["request_id"]: t for t in service.metrics.recent_traces()
        }
        assert by_request["r0"]["span_id"] == "custom-span-0"
        assert by_request["r1"]["span_id"] == "r1"  # no span set: falls back

    def test_traces_recorded_counter(self, served):
        service, requests, _ = served
        assert service.metrics.traces_recorded == len(requests)


class TestTraceRing:
    def test_ring_is_bounded(self):
        metrics = ServerMetrics(trace_capacity=4)
        for i in range(10):
            metrics.record_trace(f"s{i}", f"r{i}", [("solve", 0.01)])
        traces = metrics.recent_traces()
        assert len(traces) == 4
        assert traces[-1]["request_id"] == "r9"  # newest last
        assert metrics.traces_recorded == 10  # the counter never truncates

    def test_limit_edge_cases(self):
        metrics = ServerMetrics()
        for i in range(3):
            metrics.record_trace(f"s{i}", f"r{i}", [("solve", 0.01)])
        assert metrics.recent_traces(0) == []
        assert len(metrics.recent_traces(2)) == 2
        assert len(metrics.recent_traces(99)) == 3
        assert len(metrics.recent_traces(-1)) == 0

    def test_error_traces_are_marked(self):
        metrics = ServerMetrics()
        metrics.record_trace("s", "r", [("admission", 0.01)], ok=False)
        assert metrics.recent_traces()[0]["ok"] is False


class TestTraceEndpoint:
    def test_http_trace_dump(self, served):
        service, requests, _ = served
        with MetricsServer(metrics=service.metrics, port=0) as endpoint:
            url = f"http://127.0.0.1:{endpoint.port}/trace?limit=3"
            payload = json.loads(
                urllib.request.urlopen(url, timeout=10).read()
            )
            assert len(payload["traces"]) == 3
            assert "solve" in payload["stages"]
            # Ephemeral bind is published in the service snapshot too.
            snap = service.metrics.snapshot()
            assert snap["metrics_endpoint"]["port"] == endpoint.port
        bad = f"http://127.0.0.1:{endpoint.port}/trace"
        with pytest.raises(Exception):
            urllib.request.urlopen(bad, timeout=2)

    def test_trace_404_in_fleet_mode(self, scenario):
        class _FakeFleet:
            def fleet_snapshot(self):
                return {"workers": {}}

            def worker_snapshot(self, worker_id):
                return None

        with MetricsServer(fleet=_FakeFleet(), port=0) as endpoint:
            url = f"http://127.0.0.1:{endpoint.port}/trace"
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(url, timeout=10)
