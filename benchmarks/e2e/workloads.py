"""Deployment and seeded inputs of the end-to-end benchmark.

The deployment is fixed for every workload (the paper's §V setting):
900 nodes on a 30x30 field, radio radius 2.4, 20 % of the nodes
sniffed, a fingerprint map at resolution 1.0. The workload seed only
draws inputs — user positions, trajectories, collection schedules,
dropout masks and request seeds — so the server under
test receives nothing but the deployment and the wire frames.

Flux comes from the repo's own routing model: for every node a BFS
collection tree is built with :func:`repro.routing.build_collection_tree`,
its unit-stretch subtree flux is smoothed with
:func:`repro.traffic.smooth_flux` and read at the sniffers. A user
attached to node ``r`` with stretch ``s`` then contributes
``s * table[r]`` — flux superposes linearly (§III.A) — so one table
per deployment turns input generation from seconds into milliseconds.
The table is cached on disk, keyed by a hash of the deployment.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.geometry import RectangularField
from repro.network import build_network, sample_sniffers_percentage

FIELD_SIDE = 30.0
NODE_COUNT = 900
RADIO_RADIUS = 2.4
DEPLOYMENT_SEED = 1234
SNIFFER_PERCENT = 20
MAP_RESOLUTION = 1.0

#: Tie-break stream of the per-node collection trees in the flux table.
TABLE_SEED = 7
#: Paper SMC default v_max (also the gateway ``open_session`` default).
MAX_SPEED = 5.0
#: Mean collections per window of a user on an asynchronous session:
#: a user sits out ~37 % of windows, both users only ~14 %.
POISSON_RATE = 1.0
#: Share of the sniffers that read NaN on a dropout observation.
DROPOUT_SNIFFER_SHARE = 0.1
#: Map seeds per localize request (the request default).
SEED_TOP_K = 32
#: Logical clients (admission fairness lanes) behind the two connections.
LOGICAL_CLIENTS = 64
#: Distinct observations behind the localize requests of one phase; each
#: request pairs one with its own seed. A multiple of every
#: ``1/k2_share`` and ``1/dropout_share``, so the mix stays exact.
OBSERVATION_POOL = 500


@dataclass(frozen=True)
class WorkloadSpec:
    """One traffic mix (why each exists: ``BENCHMARK.json``).

    Every loop is closed and stops sending when the run's time is up.
    ``in_flight`` localize requests are outstanding at once; every
    ``1/k2_share``-th is K=2 and every ``1/dropout_share``-th drops
    sniffers, so the mix is exact. Each tracking session keeps one
    window in flight. The rates only size the inputs, per second of run:
    about twice what the server answers, so that no loop runs dry first.
    """

    localize_rate: float = 0.0
    in_flight: int = 0
    k2_share: float = 0.0
    dropout_share: float = 0.0
    candidate_count: int = 512
    sessions: int = 0
    poisson_sessions: int = 0
    windows_per_s: float = 0.0


WORKLOADS: Dict[str, WorkloadSpec] = {
    "localize-light": WorkloadSpec(
        localize_rate=1000.0, in_flight=8, candidate_count=128,
    ),
    "localize-saturate": WorkloadSpec(
        localize_rate=300.0, in_flight=64, k2_share=0.2, dropout_share=0.1,
    ),
    "track-sessions": WorkloadSpec(
        sessions=4, poisson_sessions=2, windows_per_s=24.0,
    ),
}


# ----------------------------------------------------------------------
# Deployment.
# ----------------------------------------------------------------------
def build_deployment():
    """``(network, sniffer indices)`` of the fixed benchmark deployment."""
    net = build_network(
        field=RectangularField(FIELD_SIDE, FIELD_SIDE),
        node_count=NODE_COUNT, radius=RADIO_RADIUS, rng=DEPLOYMENT_SEED,
    )
    sniffers = sample_sniffers_percentage(
        net, SNIFFER_PERCENT, rng=DEPLOYMENT_SEED
    )
    return net, sniffers


def flux_table(net, sniffers, cache_dir: Path) -> np.ndarray:
    """``(node_count, n_sniffers)`` smoothed unit-stretch flux per attach node."""
    from repro.routing import build_collection_tree
    from repro.traffic import smooth_flux

    digest = hashlib.sha1()
    for part in (net.positions, np.asarray(sniffers),
                 np.array([net.radius, TABLE_SEED])):
        digest.update(np.ascontiguousarray(part).tobytes())
    path = Path(cache_dir) / f"flux-table-{digest.hexdigest()[:16]}.npy"
    if path.exists():
        return np.load(path)
    gen = np.random.default_rng(TABLE_SEED)
    table = np.empty((net.node_count, len(sniffers)))
    for root in range(net.node_count):
        tree = build_collection_tree(net, net.positions[root], rng=gen,
                                     root=root)
        table[root] = smooth_flux(net, tree.subtree_aggregate())[sniffers]
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp.npy")
    np.save(tmp, table)
    os.replace(tmp, path)
    return table


# ----------------------------------------------------------------------
# Inputs.
# ----------------------------------------------------------------------
def _every(index: int, share: float, offset: int) -> bool:
    """True for an exact ``share`` of indices, evenly spaced."""
    return share > 0 and index % round(1.0 / share) == offset % round(1.0 / share)


@dataclass
class Localize:
    """One localize request with its ground truth."""

    request_id: str
    client_id: str
    observation: object  # FluxObservation
    truth: np.ndarray  # (K, 2)
    knobs: Dict[str, int]  # user_count, candidate_count, seed_top_k, seed


@dataclass
class Session:
    """One tracking session: K users, a window stream, truth per window."""

    session_id: str
    user_count: int
    seed: int
    observations: List[object]
    truths: List[np.ndarray]


@dataclass
class Plan:
    """Everything one phase of a run sends, in send order."""

    localize: List[Localize] = field(default_factory=list)
    in_flight: int = 0
    sessions: List[Session] = field(default_factory=list)

    def head(self, fraction: float) -> "Plan":
        """The leading ``fraction`` of every stream (same inputs, shorter)."""
        def cut(length: int) -> int:
            return max(1, round(length * fraction)) if length else 0

        n = cut(len(self.localize))
        sessions = []
        for s in self.sessions:
            w = cut(len(s.observations))
            sessions.append(replace(s, observations=s.observations[:w],
                                    truths=s.truths[:w]))
        return replace(self, localize=self.localize[:n], sessions=sessions)


class Generator:
    """Draws a workload's inputs from one seed over a fixed deployment."""

    def __init__(self, net, sniffers, table: np.ndarray):
        from scipy.spatial import cKDTree

        self.net = net
        self.sniffers = np.asarray(sniffers, dtype=np.int64)
        self.table = table
        self._nodes = cKDTree(net.positions)

    def _flux(self, positions: np.ndarray, stretches: np.ndarray) -> np.ndarray:
        _, roots = self._nodes.query(np.asarray(positions, dtype=float))
        return np.asarray(stretches, dtype=float) @ self.table[roots]

    def _observation(self, time: float, values: np.ndarray):
        from repro.traffic import FluxObservation

        return FluxObservation(time=float(time), sniffers=self.sniffers.copy(),
                               values=values)

    def plan(self, spec: WorkloadSpec, seed: int, seconds: float,
             prefix: str = "", stream: int = 0) -> Plan:
        """Inputs for ``seconds`` of ``spec``.

        ``stream`` selects an independent draw from the same seed (the
        warm-up uses its own); ids carry ``prefix`` so the phases never
        share a request or session id.
        """
        gen = np.random.default_rng([seed, stream])
        plan = Plan(in_flight=spec.in_flight)
        count = round(spec.localize_rate * seconds)
        pool = [self._localize(spec, gen, "", i)
                for i in range(min(count, OBSERVATION_POOL))]
        plan.localize = [
            replace(pool[i % OBSERVATION_POOL], request_id=f"{prefix}L{i}",
                    client_id=f"user-{i % LOGICAL_CLIENTS}",
                    knobs={**pool[i % OBSERVATION_POOL].knobs,
                           "seed": int(gen.integers(2 ** 31))})
            for i in range(count)
        ]
        windows = max(1, round(spec.windows_per_s * seconds))
        plan.sessions = [
            self._session(gen, f"{prefix}s{i}", windows,
                          poisson=i >= spec.sessions - spec.poisson_sessions)
            for i in range(spec.sessions)
        ]
        return plan

    def probe(self) -> Localize:
        """A fixed K=1 request: its reply ends a server's set-up."""
        return self._localize(WORKLOADS["localize-light"],
                              np.random.default_rng(0), "probe", 0)

    def _localize(self, spec: WorkloadSpec, gen, request_id: str,
                  index: int) -> Localize:
        users = 2 if _every(index, spec.k2_share, 4) else 1
        truth = self.net.field.sample_uniform(users, gen)
        values = self._flux(truth, gen.uniform(1.0, 3.0, users))
        if _every(index, spec.dropout_share, 7):
            values[gen.uniform(size=values.shape) < DROPOUT_SNIFFER_SHARE] = np.nan
        return Localize(
            request_id=request_id,
            client_id=f"user-{index % LOGICAL_CLIENTS}",
            observation=self._observation(0.0, values),
            truth=truth,
            knobs={
                "user_count": users,
                "candidate_count": spec.candidate_count,
                "seed_top_k": SEED_TOP_K,
                "seed": int(gen.integers(2 ** 31)),
            },
        )

    def _session(self, gen, session_id: str, windows: int,
                 poisson: bool) -> Session:
        from repro.mobility import random_waypoint_trajectory
        from repro.traffic import poisson_schedule, synchronous_schedule

        users = 2
        trajectories = [
            random_waypoint_trajectory(
                self.net.field, rounds=windows,
                speed=float(gen.uniform(0.4 * MAX_SPEED, 0.9 * MAX_SPEED)),
                rng=gen,
            )
            for _ in range(users)
        ]
        stretches = gen.uniform(1.0, 3.0, users)
        if poisson:
            schedule = poisson_schedule(
                [t.positions for t in trajectories],
                [t.times for t in trajectories],
                stretches, rate=POISSON_RATE, horizon=float(windows), rng=gen,
            )
        else:
            schedule = synchronous_schedule(
                [t.positions for t in trajectories], stretches
            )
        observations, truths = [], []
        for t, events in schedule.windows(1.0, start=0.0, end=float(windows)):
            if events:
                values = self._flux(
                    [e.position for e in events], [e.stretch for e in events]
                )
            else:
                values = np.zeros(len(self.sniffers))
            observations.append(self._observation(t, values))
            truths.append(np.stack([tr.at(t) for tr in trajectories]))
        return Session(session_id=session_id, user_count=users,
                       seed=int(gen.integers(2 ** 31)),
                       observations=observations, truths=truths)
