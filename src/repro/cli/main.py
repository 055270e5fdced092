"""Argument parsing and dispatch for the ``repro`` CLI."""

from __future__ import annotations

import argparse
from typing import List, Optional

from repro.cli import commands


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Flux-fingerprinting attack toolkit (ICDCS 2010 reproduction): "
            "simulate sensor-network traffic, localize and track mobile "
            "users from passively sniffed flux, evaluate defenses."
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="global RNG seed"
    )
    from repro import __version__

    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "simulate", help="deploy a network and dump a multi-user flux map"
    )
    _network_args(p)
    p.add_argument("--users", type=int, default=2, help="number of mobile users")
    p.add_argument(
        "--output", default="-", help="write flux CSV here ('-' = stdout summary)"
    )
    p.set_defaults(handler=commands.cmd_simulate)

    p = sub.add_parser(
        "localize", help="run the sparse-sampling NLS localization attack"
    )
    _network_args(p)
    _engine_args(p)
    p.add_argument("--users", type=int, default=2)
    p.add_argument(
        "--percentage", type=float, default=10.0, help="%% of nodes sniffed"
    )
    p.add_argument("--candidates", type=int, default=3000)
    p.add_argument("--restarts", type=int, default=3)
    p.add_argument(
        "--map",
        default=None,
        help="seed the search from this fingerprint map (repro build-map "
        "output; its stored sniffer set replaces --percentage)",
    )
    p.add_argument(
        "--seed-top-k",
        type=int,
        default=32,
        help="map matches seeded per user (with --map)",
    )
    p.set_defaults(handler=commands.cmd_localize)

    p = sub.add_parser(
        "build-map",
        help="precompute the flux-fingerprint map of a deployment (offline "
        "survey stage; reuse it with 'localize --map' / 'track-stream --map')",
    )
    _network_args(p)
    _engine_args(p)
    p.add_argument(
        "--percentage", type=float, default=10.0, help="%% of nodes sniffed"
    )
    p.add_argument(
        "--resolution", type=float, default=1.0, help="grid cell spacing"
    )
    p.add_argument(
        "--d-floor", type=float, default=1.0, help="flux-model near-sink clamp"
    )
    p.add_argument("--output", required=True, help="write the .npz map here")
    p.set_defaults(handler=commands.cmd_build_map)

    p = sub.add_parser("track", help="run the SMC tracker over moving users")
    _network_args(p)
    _engine_args(p)
    p.add_argument("--users", type=int, default=2)
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--percentage", type=float, default=10.0)
    p.add_argument("--predictions", type=int, default=500, help="SMC N")
    p.add_argument("--keep", type=int, default=10, help="SMC M")
    p.add_argument("--max-speed", type=float, default=5.0)
    p.add_argument(
        "--crossing",
        action="store_true",
        help="use the crossing-trajectories stress case (forces 2 users)",
    )
    p.set_defaults(handler=commands.cmd_track)

    p = sub.add_parser(
        "track-stream",
        help="run the streaming tracking service (replay / tail / live)",
    )
    _network_args(p)
    _engine_args(p)
    p.add_argument(
        "--input", default=None, help="replay an .npz observation log"
    )
    p.add_argument(
        "--jsonl", default=None, help="tail a JSONL observation feed"
    )
    p.add_argument(
        "--idle-timeout",
        type=float,
        default=0.0,
        help="stop tailing after this many idle seconds (JSONL mode)",
    )
    p.add_argument(
        "--network",
        default=None,
        help="load the deployment from a save_network .npz "
        "(default: rebuild from the network args + seed)",
    )
    p.add_argument("--users", type=int, default=2)
    p.add_argument(
        "--rounds",
        type=int,
        default=20,
        help="windows to synthesize when neither --input nor --jsonl is given",
    )
    p.add_argument("--percentage", type=float, default=10.0)
    p.add_argument("--predictions", type=int, default=500, help="SMC N")
    p.add_argument("--keep", type=int, default=10, help="SMC M")
    p.add_argument("--max-speed", type=float, default=5.0)
    p.add_argument(
        "--checkpoint",
        default=None,
        help="checkpoint file; resumes from it when it already exists",
    )
    p.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        help="checkpoint cadence in windows (0 = only at exit)",
    )
    p.add_argument(
        "--max-windows",
        type=int,
        default=None,
        help="stop after this many windows this run (kill-switch)",
    )
    p.add_argument(
        "--metrics-out", default=None, help="write final metrics JSON here"
    )
    p.add_argument(
        "--map",
        default=None,
        help="attach this fingerprint map for degenerate-sample recovery",
    )
    p.add_argument(
        "--reseed-after-misses",
        type=int,
        default=0,
        help="map-reseed a user after this many consecutive missed "
        "flux-bearing windows (0 = only on weight underflow; needs --map)",
    )
    p.add_argument(
        "--fault-plan",
        default=None,
        help="arm this fault-plan JSON (repro.faults) for the run: "
        "stalled/duplicated/torn windows, torn checkpoint writes",
    )
    p.set_defaults(handler=commands.cmd_track_stream)

    p = sub.add_parser(
        "traces", help="generate / inspect synthetic campus traces"
    )
    p.add_argument("--users", type=int, default=20)
    p.add_argument("--aps", type=int, default=500)
    p.add_argument("--landmarks", type=int, default=50)
    p.add_argument(
        "--output", default="-", help="write syslog lines here ('-' = summary)"
    )
    p.set_defaults(handler=commands.cmd_traces)

    p = sub.add_parser(
        "experiment", help="run one paper-figure experiment runner"
    )
    p.add_argument(
        "figure",
        choices=[
            "3a", "3b", "4", "5", "6a", "6b", "7", "8a", "8b", "9",
            "10a", "10b",
            "ablation-d-floor", "ablation-smoothing", "ablation-weighting",
            "ablation-routing", "ablation-aggregation", "ablation-kernel",
            "robustness-holes",
        ],
        help="paper figure id or ablation/robustness study id",
    )
    p.add_argument(
        "--scale",
        type=int,
        default=4,
        help="budget divisor vs paper scale (1 = full paper budgets)",
    )
    p.set_defaults(handler=commands.cmd_experiment)

    p = sub.add_parser(
        "serve",
        help="run the micro-batched localization service under a "
        "synthetic multi-client load",
    )
    _network_args(p)
    _engine_args(p)
    p.add_argument(
        "--percentage", type=float, default=20.0, help="%% of nodes sniffed"
    )
    p.add_argument(
        "--clients", type=int, default=8, help="concurrent logical clients"
    )
    p.add_argument(
        "--requests", type=int, default=10, help="requests per client"
    )
    p.add_argument(
        "--users", type=int, default=1, help="users fitted per request"
    )
    p.add_argument("--candidates", type=int, default=128)
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument(
        "--max-batch",
        type=int,
        default=32,
        help="micro-batch size cap (1 = per-request dispatch)",
    )
    p.add_argument(
        "--max-wait-ms",
        type=float,
        default=2.0,
        help="micro-batch linger ceiling before a partial batch is drained",
    )
    p.add_argument(
        "--queue-capacity",
        type=int,
        default=512,
        help="admission queue bound; a request arriving at a full queue "
        "is answered admission_rejected",
    )
    p.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-request deadline (expired work gets typed error replies)",
    )
    p.add_argument(
        "--map",
        default=None,
        help="seed candidate pools from this fingerprint map "
        "(repro build-map output; its sniffer set replaces --percentage)",
    )
    p.add_argument(
        "--map-resolution",
        type=float,
        default=None,
        help="build the deployment's map at this resolution before serving",
    )
    p.add_argument(
        "--track-sessions",
        type=int,
        default=0,
        help="also open this many tracking sessions and interleave "
        "track-step requests",
    )
    p.add_argument(
        "--checkpoint-dir",
        default=None,
        help="drain-and-checkpoint tracking sessions here on shutdown",
    )
    p.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        help="expose GET /metrics on this port while serving (0 = ephemeral)",
    )
    p.add_argument(
        "--metrics-out", default=None, help="write the final metrics JSON here"
    )
    p.add_argument(
        "--fault-plan",
        default=None,
        help="arm this fault-plan JSON (repro.faults) for the load run: "
        "batch-fuse/kernel faults are retried",
    )
    p.set_defaults(handler=commands.cmd_serve)

    p = sub.add_parser(
        "fleet",
        help="run a fixed-size multi-process serving fleet under a "
        "synthetic multi-client load",
    )
    _network_args(p)
    _engine_args(p)
    p.add_argument(
        "--percentage", type=float, default=20.0, help="%% of nodes sniffed"
    )
    p.add_argument(
        "--fleet-workers",
        type=int,
        default=2,
        help="worker processes (each its own scheduler + engine)",
    )
    p.add_argument(
        "--clients", type=int, default=8, help="concurrent logical clients"
    )
    p.add_argument(
        "--requests", type=int, default=10, help="requests per client"
    )
    p.add_argument(
        "--users", type=int, default=1, help="users fitted per request"
    )
    p.add_argument("--candidates", type=int, default=128)
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument(
        "--max-batch",
        type=int,
        default=32,
        help="per-worker micro-batch size cap",
    )
    p.add_argument(
        "--max-wait-ms",
        type=float,
        default=2.0,
        help="per-worker micro-batch linger ceiling",
    )
    p.add_argument(
        "--queue-capacity",
        type=int,
        default=1024,
        help="per-worker admission queue bound; a request arriving at a "
        "full queue is answered admission_rejected",
    )
    p.add_argument(
        "--map",
        default=None,
        help="seed candidate pools from this fingerprint map "
        "(repro build-map output; its sniffer set replaces --percentage)",
    )
    p.add_argument(
        "--map-resolution",
        type=float,
        default=None,
        help="build the deployment's map at this resolution before serving",
    )
    p.add_argument(
        "--track-sessions",
        type=int,
        default=0,
        help="open this many tracking sessions (placed by session id "
        "hash) and interleave track-step requests",
    )
    p.add_argument(
        "--checkpoint-dir",
        default=None,
        help="session checkpoint directory (failover state; "
        "default: private temp dir)",
    )
    p.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        help="expose the fleet snapshot on GET /metrics "
        "(/metrics?worker=<id> for one worker; 0 = ephemeral port)",
    )
    p.add_argument(
        "--metrics-out",
        default=None,
        help="write the final fleet snapshot JSON here",
    )
    p.add_argument(
        "--fault-plan",
        default=None,
        help="arm this fault-plan JSON before forking workers: "
        "fleet.worker.exit kills workers mid-load (failover drill)",
    )
    p.set_defaults(handler=commands.cmd_fleet)

    p = sub.add_parser(
        "gateway",
        help="run the asyncio TCP gateway in front of a localization "
        "service (or drive a remote one with --connect)",
    )
    _network_args(p)
    _engine_args(p)
    p.add_argument(
        "--percentage", type=float, default=20.0, help="%% of nodes sniffed"
    )
    p.add_argument(
        "--port",
        type=int,
        default=0,
        help="gateway TCP port (0 = ephemeral; the bound port is printed "
        "and reported in the gateway snapshot)",
    )
    p.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help="client mode: drive the synthetic load against a remote "
        "gateway instead of serving one",
    )
    p.add_argument(
        "--clients",
        type=int,
        default=8,
        help="concurrent gateway connections driving localize traffic "
        "(0 with --track-sessions 0 = serve idle until --duration/signal)",
    )
    p.add_argument(
        "--requests", type=int, default=10, help="requests per connection"
    )
    p.add_argument(
        "--users", type=int, default=1, help="users fitted per request"
    )
    p.add_argument("--candidates", type=int, default=128)
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument(
        "--track-sessions",
        type=int,
        default=0,
        help="also stream this many tracking sessions through the gateway",
    )
    p.add_argument(
        "--duration",
        type=float,
        default=None,
        help="idle-serve mode: stop after this many seconds "
        "(default: wait for SIGINT/SIGTERM)",
    )
    p.add_argument("--max-batch", type=int, default=32)
    p.add_argument("--max-wait-ms", type=float, default=2.0)
    p.add_argument(
        "--queue-capacity",
        type=int,
        default=512,
        help="admission queue bound; a request arriving at a full queue "
        "is answered admission_rejected",
    )
    p.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-request deadline carried in the request frames",
    )
    p.add_argument(
        "--map-resolution",
        type=float,
        default=None,
        help="build the deployment's map at this resolution before serving",
    )
    p.add_argument(
        "--checkpoint-dir",
        default=None,
        help="drain-and-checkpoint tracking sessions here on shutdown",
    )
    p.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        help="expose GET /metrics and GET /trace on this port "
        "(0 = ephemeral)",
    )
    p.add_argument(
        "--metrics-out", default=None, help="write the final metrics JSON here"
    )
    p.add_argument(
        "--fault-plan",
        default=None,
        help="arm this fault-plan JSON (gateway.client.slow / "
        "gateway.conn.half_open / gateway.frame.torn chaos sites)",
    )
    p.set_defaults(handler=commands.cmd_gateway)

    p = sub.add_parser(
        "defend", help="evaluate padding / dummy-sink countermeasures"
    )
    _network_args(p)
    p.add_argument("--users", type=int, default=2)
    p.add_argument("--repetitions", type=int, default=3)
    p.set_defaults(handler=commands.cmd_defend)

    return parser


def _engine_args(p: argparse.ArgumentParser) -> None:
    group = p.add_argument_group(
        "engine", "parallel kernel engine (see docs/PERFORMANCE.md)"
    )
    group.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker threads for kernel evaluation and NLS solving "
        "(0 = serial; float64 results are identical either way)",
    )
    group.add_argument(
        "--chunk-size",
        type=int,
        default=4096,
        help="candidate sinks per kernel-evaluation chunk, the unit of "
        "fan-out over --workers",
    )
    group.add_argument(
        "--dtype",
        choices=["float64", "float32"],
        default="float64",
        help="kernel evaluation precision (float32 halves memory "
        "traffic; the theta solve stays float64)",
    )


def _network_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--nodes", type=int, default=900, help="sensor count")
    p.add_argument("--field", type=float, default=30.0, help="field side length")
    p.add_argument("--radius", type=float, default=2.4, help="radio radius")
    p.add_argument(
        "--deployment",
        choices=["perturbed_grid", "uniform_random"],
        default="perturbed_grid",
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed its message; normalize to an explicit
        # return code: 2 for usage errors (e.g. an unknown subcommand),
        # 0 for --help / --version.
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    return int(args.handler(args))
