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
        help="run the micro-batched localization service (or a fleet of "
        "them) under a synthetic multi-client load",
    )
    _load_args(p)
    p.set_defaults(handler=commands.cmd_serve)

    p = sub.add_parser(
        "gateway",
        help="run the asyncio TCP gateway in front of a localization "
        "service or fleet (or drive a remote one with --connect)",
    )
    _load_args(p)
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
        "gateway instead of serving one (exit 1 if no connection got "
        "through)",
    )
    p.add_argument(
        "--duration",
        type=float,
        default=None,
        help="with --clients 0 --track-sessions 0, serve idle for this "
        "many seconds (default: until SIGINT/SIGTERM)",
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


def _load_args(p: argparse.ArgumentParser) -> None:
    """The deployment, load and serving flags shared by ``serve`` and
    ``gateway``."""
    _network_args(p)
    group = p.add_argument_group(
        "load", "synthetic load and serving knobs (a fleet applies the "
        "batching and queue knobs per worker)"
    )
    group.add_argument(
        "--fleet-workers",
        type=int,
        default=0,
        help="serve from a fleet of this many worker processes, each its "
        "own admission queue and scheduler (0 = one in-process service)",
    )
    group.add_argument(
        "--percentage", type=float, default=20.0, help="%% of nodes sniffed"
    )
    group.add_argument(
        "--map",
        default=None,
        help="seed candidate pools from this fingerprint map "
        "(repro build-map output; its sniffer set replaces --percentage)",
    )
    group.add_argument(
        "--clients",
        type=int,
        default=8,
        help="concurrent localize clients (threads, or gateway connections)",
    )
    group.add_argument(
        "--requests",
        type=int,
        default=10,
        help="requests per client, and windows per tracking session",
    )
    group.add_argument(
        "--users", type=int, default=1, help="users fitted per request"
    )
    group.add_argument("--candidates", type=int, default=128)
    group.add_argument("--restarts", type=int, default=1)
    group.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-request deadline (expired work gets typed error replies)",
    )
    group.add_argument(
        "--max-batch",
        type=int,
        default=32,
        help="most requests one drain takes; each drain takes what is "
        "queued, up to this (1 = per-request dispatch)",
    )
    group.add_argument(
        "--queue-capacity",
        type=int,
        default=512,
        help="admission queue bound; a request arriving at a full queue "
        "is answered admission_rejected",
    )
    group.add_argument(
        "--map-resolution",
        type=float,
        default=None,
        help="build the deployment's map at this resolution before serving",
    )
    group.add_argument(
        "--track-sessions",
        type=int,
        default=0,
        help="also open this many tracking sessions and interleave "
        "track-step requests",
    )
    group.add_argument(
        "--checkpoint-dir",
        default=None,
        help="checkpoint tracking sessions here on shutdown (a fleet also "
        "keeps its failover state here; default: a private temp dir)",
    )
    group.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        help="expose GET /metrics on this port while serving (0 = "
        "ephemeral); one service also answers GET /trace",
    )
    group.add_argument(
        "--metrics-out",
        default=None,
        help="write the final metrics JSON here (default: print it)",
    )
    group.add_argument(
        "--fault-plan",
        default=None,
        help="arm this fault-plan JSON (repro.faults) for the load run; a "
        "fleet arms it only while forking its workers",
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
