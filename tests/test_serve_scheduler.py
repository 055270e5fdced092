"""Micro-batching scheduler: fused evaluation is invisible to results.

The load-bearing contract: a request's reply is bitwise-identical
(float64) whether it was solved alone or fused into a batch with
arbitrary other requests — per-request dispatch *is* the same
scheduler with ``max_batch=1``. Plus the failure surface: expired and
crashed work always gets a typed error reply.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.geometry import RectangularField
from repro.network import build_network, sample_sniffers_percentage
from repro.serve import (
    ERROR_DEADLINE_EXPIRED,
    ERROR_INTERNAL,
    LocalizationService,
    LocalizeRequest,
)
from repro.serve.admission import PendingRequest
from repro.traffic import MeasurementModel, simulate_flux
from repro.traffic.measurement import FluxObservation


@pytest.fixture(scope="module")
def scenario():
    net = build_network(
        field=RectangularField(10, 10), node_count=100, radius=2.0, rng=5
    )
    gen = np.random.default_rng(2)
    sniffers = sample_sniffers_percentage(net, 20, rng=gen)
    from repro.fpmap import build_fingerprint_map

    fmap = build_fingerprint_map(net.field, net.positions[sniffers],
                                 resolution=2.0)
    return net, sniffers, fmap


def _observations(net, sniffers, count, users=1, seed=0):
    gen = np.random.default_rng(seed)
    measure = MeasurementModel(net, sniffers, smooth=True, rng=gen)
    out = []
    for _ in range(count):
        truth = net.field.sample_uniform(users, gen)
        flux = simulate_flux(
            net, list(truth), list(gen.uniform(1.0, 3.0, users)), rng=gen
        )
        out.append(measure.observe(flux))
    return out


def _mixed_requests(net, sniffers):
    """K=1/K=2, map/no-map, clean/dropout — one of everything."""
    requests = []
    for i, obs in enumerate(_observations(net, sniffers, 4, users=1, seed=10)):
        requests.append(LocalizeRequest(
            request_id=f"k1-map-{i}", client_id=f"c{i % 2}", observation=obs,
            candidate_count=32, seed=100 + i,
        ))
    for i, obs in enumerate(_observations(net, sniffers, 2, users=1, seed=11)):
        requests.append(LocalizeRequest(
            request_id=f"k1-uniform-{i}", client_id="c2", observation=obs,
            candidate_count=32, seed=200 + i, use_map=False,
        ))
    for i, obs in enumerate(_observations(net, sniffers, 2, users=2, seed=12)):
        requests.append(LocalizeRequest(
            request_id=f"k2-{i}", client_id="c3", observation=obs,
            user_count=2, candidate_count=32, sweeps=2, seed=300 + i,
        ))
    dropout = _observations(net, sniffers, 1, users=1, seed=13)[0]
    values = dropout.values.copy()
    values[:3] = np.nan
    requests.append(LocalizeRequest(
        request_id="k1-dropout", client_id="c4",
        observation=FluxObservation(
            time=dropout.time, sniffers=dropout.sniffers, values=values
        ),
        candidate_count=32, seed=400,
    ))
    return requests


def _service(net, sniffers, fmap, max_batch):
    return LocalizationService(
        net.field,
        net.positions[sniffers],
        fingerprint_map=fmap,
        max_batch=max_batch,
    )


def _replies(service, requests):
    """Submit everything *before* the scheduler starts: max_batch>=len
    then provably evaluates one fused batch."""
    futures = [service.submit(r) for r in requests]
    with service:
        return {f.result().request_id: f.result() for f in futures}


def _payload(reply):
    return [
        (fit.positions.tobytes(), fit.thetas.tobytes(), float(fit.objective))
        for fit in reply.result.fits
    ]


class TestBitwiseIdentity:
    def test_batched_equals_per_request(self, scenario):
        net, sniffers, fmap = scenario
        requests = _mixed_requests(net, sniffers)
        batched = _replies(_service(net, sniffers, fmap, 16), requests)
        single = _replies(_service(net, sniffers, fmap, 1), requests)
        assert set(batched) == {r.request_id for r in requests}
        for request_id in batched:
            assert batched[request_id].ok, request_id
            assert _payload(batched[request_id]) == _payload(
                single[request_id]
            ), request_id

    def test_batch_actually_formed(self, scenario):
        net, sniffers, fmap = scenario
        requests = _mixed_requests(net, sniffers)
        service = _service(net, sniffers, fmap, 16)
        _replies(service, requests)
        sizes = service.metrics.batch_sizes
        assert max(sizes) > 1  # fusion really happened

    def test_composition_independence(self, scenario):
        """Same request, different batch mates -> same bits."""
        net, sniffers, fmap = scenario
        probe = _mixed_requests(net, sniffers)[0]
        mates = _mixed_requests(net, sniffers)[4:]
        alone = _replies(_service(net, sniffers, fmap, 16), [probe])
        crowded = _replies(_service(net, sniffers, fmap, 16), [probe] + mates)
        assert _payload(alone[probe.request_id]) == _payload(
            crowded[probe.request_id]
        )


class TestTypedFailures:
    def test_deadline_expired_requests_get_typed_replies(self, scenario):
        net, sniffers, fmap = scenario
        requests = [
            LocalizeRequest(
                request_id=f"late-{i}", client_id="c0",
                observation=obs, candidate_count=32, deadline_s=0.0,
            )
            for i, obs in enumerate(_observations(net, sniffers, 3, seed=20))
        ]
        replies = _replies(_service(net, sniffers, fmap, 16), requests)
        assert len(replies) == len(requests)  # never silently dropped
        for reply in replies.values():
            assert not reply.ok
            assert reply.code == ERROR_DEADLINE_EXPIRED

    def test_unplannable_request_gets_internal_error(self, scenario):
        net, sniffers, fmap = scenario
        broken = LocalizeRequest(
            request_id="broken", client_id="c0",
            observation=FluxObservation(
                time=0.0, sniffers=np.arange(3), values=np.ones(3)
            ),
            candidate_count=32,
        )
        good = _mixed_requests(net, sniffers)[0]
        service = _service(net, sniffers, fmap, 16)
        # The service refuses the wrong arity at submit; queued past
        # that check, the scheduler still answers it alone.
        with pytest.raises(ConfigurationError):
            service.submit(broken)
        item = PendingRequest.wrap(broken)
        service.queue.offer(item)
        replies = _replies(service, [good])
        assert item.future.result().code == ERROR_INTERNAL
        assert replies[good.request_id].ok  # batch mates unaffected

    def test_expiry_counted_in_metrics(self, scenario):
        net, sniffers, fmap = scenario
        obs = _observations(net, sniffers, 1, seed=21)[0]
        service = _service(net, sniffers, fmap, 4)
        _replies(service, [LocalizeRequest(
            request_id="late", client_id="c0", observation=obs,
            candidate_count=32, deadline_s=0.0,
        )])
        assert service.metrics.snapshot()["deadline_expiries"] == 1

    def test_reply_is_counted_before_its_future_resolves(self, scenario):
        """Done-callbacks run inside ``set_result`` (a fleet worker's
        ships the reply to the router), so the counters must already
        include the reply they are called for."""
        net, sniffers, fmap = scenario
        fresh, stale = _observations(net, sniffers, 2, seed=22)
        service = _service(net, sniffers, fmap, 4)
        ok = service.submit(LocalizeRequest(
            request_id="ok", client_id="c0", observation=fresh,
            candidate_count=32,
        ))
        late = service.submit(LocalizeRequest(
            request_id="late", client_id="c0", observation=stale,
            candidate_count=32, deadline_s=0.0,
        ))
        seen = {}
        ok.add_done_callback(lambda f: seen.setdefault(
            "replies_ok", service.metrics.replies_ok
        ))
        late.add_done_callback(lambda f: seen.setdefault(
            "replies_error_total",
            service.metrics.snapshot()["replies_error_total"],
        ))
        assert service.scheduler.run_once() == 2
        service.stop()
        assert ok.result().ok and late.result().code == ERROR_DEADLINE_EXPIRED
        assert seen == {"replies_ok": 1, "replies_error_total": 1}


class TestFusedMapMatching:
    def test_match_many_is_batch_size_invariant(self, scenario):
        """An observation's matches are bitwise-independent of its
        batch mates — the property the serve bitwise contract rests on
        (both serve modes route through match_many)."""
        net, sniffers, fmap = scenario
        observations = _observations(net, sniffers, 5, seed=30)
        values = np.stack([obs.values for obs in observations])
        fused = fmap.match_many(values, [4] * len(observations))
        for row, match in zip(values, fused):
            alone = fmap.match_many(row[None, :], [4])[0]
            assert np.array_equal(match.indices, alone.indices)
            assert np.array_equal(match.thetas, alone.thetas)
            assert np.array_equal(match.residuals, alone.residuals)
            assert np.array_equal(match.positions, alone.positions)

    def test_match_many_agrees_with_match(self, scenario):
        """Same math as the single-observation path; only the BLAS
        kernel differs (einsum vs gemv), so agreement is allclose, not
        bitwise."""
        net, sniffers, fmap = scenario
        observations = _observations(net, sniffers, 5, seed=31)
        values = np.stack([obs.values for obs in observations])
        fused = fmap.match_many(values, [4] * len(observations))
        for row, match in zip(values, fused):
            alone = fmap.match(row, k=4)
            assert np.array_equal(match.indices, alone.indices)
            np.testing.assert_allclose(
                match.thetas, alone.thetas, rtol=1e-9, atol=1e-9
            )
            np.testing.assert_allclose(
                match.residuals, alone.residuals, rtol=1e-9, atol=1e-9
            )

    def test_index_batch_is_column_local(self, scenario):
        """Each target's scores are bitwise-identical whether computed
        in a batch of one or sliced out of a larger batch (einsum
        reduces per output element), and agree with the gemv-based
        single path to rounding."""
        _, _, fmap = scenario
        targets = np.abs(fmap.signatures[:4]) + 0.1
        many = fmap.index.knn_by_signature_batch(targets, [6] * 4)
        for b in range(4):
            one = fmap.index.knn_by_signature_batch(targets[b:b + 1], [6])[0]
            for fused, alone in zip(many[b], one):
                assert np.array_equal(fused, alone)
            idx_s, th_s, res_s = fmap.index.knn_by_signature(targets[b], 6)
            assert np.array_equal(many[b][0], idx_s)
            np.testing.assert_allclose(many[b][1], th_s, rtol=1e-9, atol=1e-9)
            np.testing.assert_allclose(many[b][2], res_s, rtol=1e-9, atol=1e-9)

    def test_signature_norm_cache_changes_no_bits(self, scenario):
        _, _, fmap = scenario
        target = np.abs(fmap.signatures[0]) + 0.5
        cold = fmap.index.knn_by_signature(target, 5)
        assert fmap.index._sig_norms is not None  # cache populated
        warm = fmap.index.knn_by_signature(target, 5)
        for a, b in zip(cold, warm):
            assert np.array_equal(a, b)

    def test_match_many_rejects_nonfinite(self, scenario):
        from repro.errors import ConfigurationError

        _, _, fmap = scenario
        values = np.ones((2, fmap.sniffer_count))
        values[1, 0] = np.nan
        with pytest.raises(ConfigurationError):
            fmap.match_many(values, [3, 3])


class TestBatchOfOne:
    """A drained batch of one runs the same dispatch path as a full one."""

    def test_lone_request_records_a_size_one_batch(self, scenario):
        net, sniffers, fmap = scenario
        probe = _mixed_requests(net, sniffers)[0]
        service = _service(net, sniffers, fmap, 16)
        with service:
            reply = service.call(probe, timeout=60)
        assert reply.ok and reply.batch_size == 1
        assert service.metrics.batch_sizes.get(1) == 1

    def test_batch_of_one_is_bitwise_the_fused_batch(self, scenario):
        # Sequential calls against an idle service each drain a
        # singleton; the same requests fused into one big batch must
        # produce the same bits.
        net, sniffers, fmap = scenario
        requests = _mixed_requests(net, sniffers)
        service = _service(net, sniffers, fmap, 16)
        with service:
            lone = {
                r.request_id: service.call(r, timeout=60) for r in requests
            }
        fused = _replies(_service(net, sniffers, fmap, 16), requests)
        for request_id, reply in lone.items():
            assert reply.batch_size == 1, request_id
            assert _payload(reply) == _payload(fused[request_id]), request_id

    def test_batch_of_one_handles_track_steps(self, scenario):
        from repro.serve import TrackStepRequest

        net, sniffers, fmap = scenario
        obs = _observations(net, sniffers, 3, users=2, seed=40)
        service = _service(net, sniffers, fmap, 16)
        with service:
            service.open_session("s0", 2, rng=3)
            replies = [
                service.call(TrackStepRequest(
                    request_id=f"t{i}", client_id="tracker",
                    session_id="s0",
                    observation=FluxObservation(
                        time=float(i), sniffers=o.sniffers, values=o.values
                    ),
                ), timeout=60)
                for i, o in enumerate(obs)
            ]
        assert all(r.ok and r.batch_size == 1 for r in replies)
        assert all(r.step is not None for r in replies)


class TestFusedRowBudget:
    """A drained batch fuses in consecutive groups of at most
    MAX_CANDIDATE_ROWS candidate rows, so its kernel block is bounded
    like one request's; the split changes no reply."""

    def test_batch_over_the_budget_fuses_in_groups(self, monkeypatch):
        from repro.serve import MAX_CANDIDATE_ROWS
        from repro.serve import scheduler

        net = build_network(
            field=RectangularField(10, 10), node_count=100, radius=2.0,
            rng=5,
        )
        sniffers = sample_sniffers_percentage(net, 5, rng=3)
        rows = MAX_CANDIDATE_ROWS // 2 + 1
        requests = [
            LocalizeRequest(
                request_id=f"big-{i}", client_id="c0", observation=obs,
                candidate_count=rows, top_m=3, seed=700 + i, use_map=False,
            )
            for i, obs in enumerate(_observations(net, sniffers, 3, seed=50))
        ]

        def service(max_batch):
            return LocalizationService(
                net.field, net.positions[sniffers], max_batch=max_batch
            )

        single = _replies(service(1), requests)
        passes = []
        fuse = scheduler.fuse_pool_kernels

        def counted(model, plans):
            passes.append(sum(
                p.request.user_count * p.request.restarts
                * p.request.candidate_count for p in plans
            ))
            return fuse(model, plans)

        monkeypatch.setattr(scheduler, "fuse_pool_kernels", counted)
        batched_service = service(16)
        batched = _replies(batched_service, requests)
        assert batched_service.metrics.batch_sizes == {3: 1}
        assert passes == [rows] * 3
        for request_id, reply in batched.items():
            assert reply.ok, request_id
            assert _payload(reply) == _payload(single[request_id]), request_id


class TestSteadyHeap:
    """Under the scheduler's heap policy, a batch's freed staging memory
    stays mapped for the next batch instead of being faulted back in."""

    def test_freed_batch_memory_stays_resident(self):
        import os
        import subprocess
        import sys

        import repro

        # A fresh interpreter: the policy is process-wide, and glibc's
        # thresholds start from their defaults there.
        code = (
            "import threading\n"
            "import numpy as np\n"
            "from repro.serve.scheduler import _steady_heap\n"
            "def resident():\n"
            "    with open('/proc/self/statm') as handle:\n"
            "        return int(handle.read().split()[1])\n"
            "pages = []\n"
            "def batch():\n"
            "    kernels = np.ones((18_000, 180))  # a full batch's fused rows\n"
            "    pages.append(resident())\n"
            "    del kernels\n"
            "    pages.append(resident())\n"
            "if _steady_heap():\n"
            "    thread = threading.Thread(target=batch)\n"
            "    thread.start()\n"
            "    thread.join()\n"
            "print(*pages)\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
        ).stdout.split()
        if not out:
            pytest.skip("C library without mallopt")
        held, after_free = (int(v) for v in out)
        # 26 MB is ~6300 pages; allow a little allocator bookkeeping.
        assert after_free >= held - 64
