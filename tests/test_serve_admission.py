"""Admission queue: bounded, client-fair, deadline-aware."""

import threading
import time
from types import SimpleNamespace

import pytest

from repro.errors import ConfigurationError
from repro.serve import (
    ADMITTED,
    CLOSED,
    REJECTED,
    AdmissionQueue,
    PendingRequest,
)


def _item(client="c", request_id="r", deadline_s=None, now=None):
    request = SimpleNamespace(
        client_id=client, request_id=request_id, deadline_s=deadline_s
    )
    return PendingRequest.wrap(request, now=now)


class TestPendingRequest:
    def test_expiry_from_relative_deadline(self):
        item = _item(deadline_s=2.0, now=100.0)
        assert item.expires_at == 102.0
        assert not item.expired(now=101.9)
        assert item.expired(now=102.0)

    def test_no_deadline_never_expires(self):
        assert not _item(now=0.0).expired(now=1e12)

    def test_latency_measured_from_submission(self):
        assert _item(now=10.0).latency(now=10.5) == pytest.approx(0.5)


class TestFairness:
    def test_round_robin_across_clients(self):
        queue = AdmissionQueue(capacity=16)
        for i in range(4):
            queue.offer(_item("flooder", f"f{i}"))
        queue.offer(_item("meek", "m0"))
        batch, expired = queue.take(3, wait_timeout=0)
        assert not expired
        # One item per client per turn: the meek client is served in
        # the first rotation despite submitting last.
        assert [i.request.request_id for i in batch] == ["f0", "m0", "f1"]

    def test_per_client_fifo_preserved(self):
        queue = AdmissionQueue(capacity=16)
        for i in range(3):
            queue.offer(_item("a", f"a{i}"))
        batch, _ = queue.take(3, wait_timeout=0)
        assert [i.request.request_id for i in batch] == ["a0", "a1", "a2"]


class TestPolicies:
    def test_reject_when_full(self):
        queue = AdmissionQueue(capacity=2)
        assert queue.offer(_item("a", "0")) == ADMITTED
        assert queue.offer(_item("a", "1")) == ADMITTED
        assert queue.offer(_item("a", "2")) == REJECTED
        assert queue.depth() == 2

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            AdmissionQueue(capacity=0)


class TestDeadlines:
    def test_expired_work_is_purged_not_batched(self):
        queue = AdmissionQueue(capacity=8)
        queue.offer(_item("a", "fresh"))
        queue.offer(_item("a", "stale", deadline_s=0.0))
        time.sleep(0.005)
        batch, expired = queue.take(8, wait_timeout=0)
        assert [i.request.request_id for i in batch] == ["fresh"]
        assert [i.request.request_id for i in expired] == ["stale"]
        assert queue.depth() == 0


class TestBatchingAndShutdown:
    def test_take_empty_times_out(self):
        queue = AdmissionQueue(capacity=8)
        batch, expired = queue.take(4, wait_timeout=0.01)
        assert batch == [] and expired == []

    def test_close_refuses_offers_and_wakes_takers(self):
        queue = AdmissionQueue(capacity=8)
        queue.offer(_item("a", "0"))
        queue.close()
        assert queue.closed
        assert queue.offer(_item("a", "1")) == CLOSED
        # What was admitted before close stays drainable.
        leftovers = queue.drain_all()
        assert [i.request.request_id for i in leftovers] == ["0"]

    def test_drain_all_returns_everything(self):
        queue = AdmissionQueue(capacity=8)
        for i in range(3):
            queue.offer(_item("a", f"{i}"))
        queue.offer(_item("a", "late", deadline_s=0.0))
        time.sleep(0.005)
        assert len(queue.drain_all()) == 4
        assert queue.depth() == 0


class TestControllerLinger:
    def test_bare_queue_drains_at_once(self):
        queue = AdmissionQueue(capacity=8)
        queue.offer(_item("a", "0"))
        queue.offer(_item("b", "1"))

        late = threading.Timer(0.2, lambda: queue.offer(_item("c", "2")))
        late.start()
        try:
            started = time.monotonic()
            batch, _ = queue.take(4, wait_timeout=0.5)
            elapsed = time.monotonic() - started
        finally:
            late.join()
        # The drain takes what is queued: nothing lingers for company.
        assert len(batch) == 2
        assert elapsed < 0.15
