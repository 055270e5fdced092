"""The load generator: one process, one asyncio thread, two connections.

:class:`ServerProcess` spawns ``server.py`` and reads its CPU time and
peak RSS from ``/proc``. :func:`drive_server` runs one server's life:
a probe request (its reply time is the set-up time), a warm-up that is
discarded, then the timed phase bracketed by metrics snapshots so the
server's counters can be reconciled against exactly what was sent.

Every loop is closed: a request or tracking window is due the moment
its predecessor's reply arrives, and is timed from then.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import select
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.errors import GatewayError
from repro.gateway import GatewayClient, observation_to_wire

from workloads import Localize, Plan

HERE = Path(__file__).resolve().parent
CONNECTIONS = 2
REPLY_TIMEOUT_S = 60.0
SETTLE_TIMEOUT_S = 2.0
#: The CPUs this process may use when it starts, before pinning itself.
ALL_CPUS = sorted(os.sched_getaffinity(0))


class ServerProcess:
    """``server.py`` in its own process; ``stop()`` closes its stdin."""

    def __init__(self, root: Path, spans: Optional[Path] = None,
                 ready_timeout_s: float = 60.0):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
        )
        cmd = [sys.executable, str(HERE / "server.py")]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        self.spawned_at = time.monotonic()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, cwd=str(root),
                                     env=env)
        if len(ALL_CPUS) > 1:
            # The load generator keeps one CPU to itself, so its sends
            # stay punctual and it never takes the server's CPU.
            os.sched_setaffinity(self.proc.pid, ALL_CPUS[:-1])
            os.sched_setaffinity(0, ALL_CPUS[-1:])
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    ready_timeout_s)
        line = self.proc.stdout.readline() if ready else b""
        if not line:
            self.stop()
            raise RuntimeError("server did not report a port")
        self.port = int(json.loads(line)["port"])

    def cpu_seconds(self) -> float:
        """utime + stime of the server process (all threads)."""
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    @staticmethod
    def steal_seconds() -> float:
        """Time this machine's CPUs were ready to run while the hypervisor
        ran something else, summed over the CPUs (0 outside a VM)."""
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if not stream.closed:
                stream.close()


@dataclass
class Record:
    """One request as the client saw it (times on the monotonic clock)."""

    request_id: str
    due: float
    done: float
    reply: Optional[Dict]  # None: no reply (timeout or dead connection)

    @property
    def ok(self) -> bool:
        return self.reply is not None and bool(self.reply.get("ok"))

    @property
    def latency(self) -> float:
        return self.done - self.due


@dataclass
class Phase:
    """The timed phase of one server, with what bracketed it."""

    setup_s: float
    records: List[Record] = field(default_factory=list)
    start: float = 0.0
    end: float = 0.0
    cpu_s: float = 0.0
    steal_s: float = 0.0
    peak_rss_mb: float = 0.0
    before: Dict = field(default_factory=dict)
    after: Dict = field(default_factory=dict)


def localize_frame(item: Localize, observation: Optional[Dict] = None) -> Dict:
    """The wire frame of ``item``; ``observation`` is its wire form, when
    already converted."""
    if observation is None:
        observation = observation_to_wire(item.observation)
    return {"type": "localize", "id": item.request_id,
            "client_id": item.client_id, "observation": observation,
            **item.knobs}


def _frames(plan: Plan):
    # Requests share pooled observations; convert each one once.
    wires: Dict[int, Dict] = {}
    localize = []
    for item in plan.localize:
        key = id(item.observation)
        if key not in wires:
            wires[key] = observation_to_wire(item.observation)
        localize.append(localize_frame(item, wires[key]))
    sessions = [
        [{"type": "track_step", "id": f"{s.session_id}.{w}",
          "client_id": s.session_id, "session_id": s.session_id,
          "observation": observation_to_wire(obs)}
         for w, obs in enumerate(s.observations)]
        for s in plan.sessions
    ]
    return localize, sessions


async def _send(client: GatewayClient, frame: Dict, due: float) -> Record:
    try:
        reply = await client.request(frame)
    except (GatewayError, asyncio.TimeoutError):
        reply = None
    return Record(frame["id"], due, time.monotonic(), reply)


async def _closed_loop(clients, frames, in_flight, deadline):
    work = iter(frames)  # shared: each next() hands one frame to a worker
    records: List[Record] = []

    async def worker(w: int) -> None:
        due = time.monotonic()
        for frame in work:
            if due > deadline:
                break
            record = await _send(clients[w % len(clients)], frame, due)
            records.append(record)
            due = record.done

    await asyncio.gather(*(worker(w) for w in range(in_flight)))
    return records


async def _session_loop(client, frames, deadline):
    """One window in flight: each is due when the previous reply lands."""
    records: List[Record] = []
    due = time.monotonic()
    for frame in frames:
        if due > deadline:
            break
        record = await _send(client, frame, due)
        records.append(record)
        due = record.done
    return records


async def _open_sessions(clients, plan: Plan) -> None:
    for i, s in enumerate(plan.sessions):
        reply = await clients[i % len(clients)].open_session(
            s.session_id, s.user_count, seed=s.seed
        )
        if reply.get("type") != "session_opened":
            raise RuntimeError(f"open_session failed: {reply}")


async def _run(clients, plan: Plan, frames, deadline: float) -> List[Record]:
    localize, sessions = frames
    loops = []
    if localize:
        loops.append(_closed_loop(clients, localize, plan.in_flight, deadline))
    loops += [
        _session_loop(clients[i % len(clients)], session, deadline)
        for i, session in enumerate(sessions)
    ]
    return [r for records in await asyncio.gather(*loops) for r in records]


async def _snapshot(client: GatewayClient) -> Dict:
    return (await client.metrics())["snapshot"]


def _answered(snapshot: Dict) -> int:
    return (snapshot["service"]["replies_ok"]
            + snapshot["service"]["replies_error_total"])


async def _settled_snapshot(client: GatewayClient, before: Dict,
                            sent: int) -> Dict:
    """Snapshot once the server has counted every reply it sent.

    The scheduler bumps its reply counter just *after* resolving the
    reply future, so the last reply can reach the client first; wait
    (bounded) for the count to catch up rather than read a torn one.
    """
    deadline = time.monotonic() + SETTLE_TIMEOUT_S
    snapshot = await _snapshot(client)
    while (_answered(snapshot) - _answered(before) < sent
           and time.monotonic() < deadline):
        await asyncio.sleep(0.01)
        snapshot = await _snapshot(client)
    return snapshot


async def drive_server(server: ServerProcess, probe: Dict,
                       warm: Optional[Plan] = None, warm_s: float = 0.0,
                       plan: Optional[Plan] = None,
                       seconds: float = float("inf")) -> Phase:
    """Probe (set-up time), warm up for ``warm_s``, then run ``plan``.

    Nothing of ``plan`` is sent once ``seconds`` have passed; the phase
    ends with the last reply to what was sent. The collector stays off
    meanwhile: a full collection over the prebuilt frames stalls the
    event loop for milliseconds, which would show up as latency.
    """
    gc.disable()
    clients = [GatewayClient("127.0.0.1", server.port, f"loadgen-{c}",
                             timeout_s=REPLY_TIMEOUT_S)
               for c in range(CONNECTIONS)]
    try:
        for client in clients:
            await client.connect()
        reply = await clients[0].request(probe)
        if not reply.get("ok"):
            raise RuntimeError(f"probe request failed: {reply}")
        phase = Phase(setup_s=time.monotonic() - server.spawned_at)
        if plan is None:
            return phase
        if warm is not None and warm_s > 0:
            frames = _frames(warm)
            await _open_sessions(clients, warm)
            await _run(clients, warm, frames, time.monotonic() + warm_s)
        frames = _frames(plan)
        await _open_sessions(clients, plan)
        phase.before = await _snapshot(clients[0])
        cpu, steal = server.cpu_seconds(), server.steal_seconds()
        phase.start = time.monotonic()
        phase.records = await _run(clients, plan, frames,
                                   phase.start + seconds)
        phase.end = max(r.done for r in phase.records)
        phase.cpu_s = server.cpu_seconds() - cpu
        phase.steal_s = server.steal_seconds() - steal
        phase.peak_rss_mb = server.peak_rss_mb()
        phase.after = await _settled_snapshot(clients[0], phase.before,
                                              len(phase.records))
        return phase
    finally:
        for client in clients:
            await client.close()
        gc.enable()
