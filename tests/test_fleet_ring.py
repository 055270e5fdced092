"""Fleet placement: one stable SHA-1 rule over the fixed worker ids."""

import hashlib

from repro.fleet import worker_for

KEYS = [f"session-{i}" for i in range(2000)]


def _assignments(workers):
    return {key: worker_for(key, workers) for key in KEYS}


class TestDeterminism:
    def test_owner_is_stable_across_ring_instances(self):
        # SHA-1 placement, not hash(): the rule is the first 8 bytes of
        # the digest mod N, so the router and any external client (in
        # any process) agree on every key.
        for key in KEYS[:200]:
            digest = hashlib.sha1(key.encode("utf-8")).digest()
            assert worker_for(key, 4) == int.from_bytes(
                digest[:8], "big"
            ) % 4
        assert [worker_for(f"session-{i}", 4) for i in range(8)] == [
            2, 1, 0, 0, 2, 3, 1, 2,
        ]

    def test_all_nodes_receive_keys(self):
        owners = set(_assignments(8).values())
        assert owners == set(range(8))

    def test_shares_are_roughly_even(self):
        counts = {}
        for owner in _assignments(4).values():
            counts[owner] = counts.get(owner, 0) + 1
        for owner, count in counts.items():
            share = count / len(KEYS)
            assert 0.10 <= share <= 0.45, (owner, share)
