"""End-to-end benchmark: the localization service over real TCP.

One command starts the system under test as its own process
(``server.py``: ``LocalizationService`` + ``GatewayServer`` on an
ephemeral port, default serving knobs), drives one seeded workload from
a single-threaded asyncio load generator over two connections, checks
every reply, and prints each metric by name and unit. The last stdout
line is one JSON object::

    {"correct": true, "attempted": 9000, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics instead, from an untraced
run plus a traced run, a third as long, of the same inputs.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload localize-light [--seed N]
        [--seconds 25] [--trace 0|1] [--smoke] [--out results.jsonl]

Exit status: 0 when every check passed, 1 when a check failed (the
JSON line then says ``"correct": false``), 2 when the repository's
``src/repro`` package is missing.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = ROOT / ".bench_e2e"

DEFAULT_SEED = 20100621
WARMUP_S = 3.0
SETUP_SPAWNS = 5
REPLAY_LOCALIZE = 64
#: Windows of one tracking session replayed (its first ones).
REPLAY_WINDOWS = 100
TRACE_FRACTION = 1.0 / 3.0
#: Above this share of CPU time taken back by the hypervisor the timings
#: of a run are suspect; the run warns rather than fails, since the
#: host, not the program, is slow.
STEAL_LIMIT = 0.05
#: The run must end within 180 s; stop everything well before.
WATCHDOG_S = 170
#: Tracking error is scored from this window on (the prior is uniform).
TRACK_ERROR_FROM = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the localization service."
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="about 2 s per phase, one set-up spawn")
    parser.add_argument("--out", default=None,
                        help="append the result, tagged, to this JSONL file")
    return parser.parse_args(argv)


def _quantile(values, q: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=float), q))


def _delta(phase, *path) -> float:
    before, after = phase.before, phase.after
    for key in path:
        before, after = before[key], after[key]
    return after - before


# ----------------------------------------------------------------------
# Checks.
# ----------------------------------------------------------------------
def counter_failures(phase, label: str):
    """Server counters over the timed phase must match what was sent."""
    sent = len(phase.records)
    submitted = _delta(phase, "service", "requests_submitted")
    answered = (_delta(phase, "service", "replies_ok")
                + _delta(phase, "service", "replies_error_total"))
    failures = []
    if submitted != sent:
        failures.append(f"{label}: requests_submitted rose by {submitted}, "
                        f"sent {sent}")
    if answered != sent:
        failures.append(f"{label}: replies_ok + replies_error_total rose by "
                        f"{answered}, sent {sent}")
    return failures


def replay_failures(phase, plan, deployment, seed: int, count: int,
                    windows: int):
    """Sampled wire replies must equal an in-process ``max_batch=1`` oracle.

    ``count`` sampled localize requests, and the first ``windows``
    windows of the last tracking session.
    """
    from repro.serve import LocalizationService, LocalizeRequest, TrackStepRequest

    from workloads import MAP_RESOLUTION

    def same(wire, local) -> bool:
        return np.array_equal(np.array(wire, dtype=float),
                              np.asarray(local, dtype=float), equal_nan=True)

    replies = {r.request_id: r.reply for r in phase.records if r.ok}
    net, sniffers = deployment
    oracle = LocalizationService(net.field, net.positions[sniffers],
                                 map_resolution=MAP_RESOLUTION, max_batch=1)
    failures = []
    sent = [i for i, item in enumerate(plan.localize)
            if item.request_id in replies]
    picks = np.random.default_rng(seed).permutation(sent)[:count]
    with oracle:
        for index in sorted(picks):
            item = plan.localize[index]
            local = oracle.call(LocalizeRequest(
                request_id=item.request_id, client_id=item.client_id,
                observation=item.observation, **item.knobs,
            ))
            wire = replies[item.request_id]
            best = local.result.best
            if not (
                same(wire["estimates"], local.estimates())
                and same([wire["best_objective"]], [best.objective])
                and same(wire["best_thetas"], best.thetas)
            ):
                failures.append(f"localize {item.request_id} differs from "
                                f"the max_batch=1 oracle")
        if plan.sessions:
            # The windows a session sent are a prefix of its stream.
            session = plan.sessions[-1]
            oracle.open_session(session.session_id, session.user_count,
                                rng=np.random.default_rng(session.seed))
            for w, observation in enumerate(session.observations[:windows]):
                request_id = f"{session.session_id}.{w}"
                wire = replies.get(request_id)
                if wire is None:
                    break
                local = oracle.call(TrackStepRequest(
                    request_id=request_id, client_id=session.session_id,
                    session_id=session.session_id, observation=observation,
                ))
                if not (
                    same(wire["estimates"], local.estimates)
                    and wire["stepped"] == (local.step is not None)
                    and wire["skip_reason"] == local.skip_reason
                ):
                    failures.append(f"track step {request_id} differs from "
                                    f"the in-process tracker")
                    break
    return failures


# ----------------------------------------------------------------------
# Metrics.
# ----------------------------------------------------------------------
def errors(phase, plan):
    """Position error of every estimated user (estimates matched to truth).

    Localize replies are scored whole; tracking steps from window
    ``TRACK_ERROR_FROM`` on, once the uniform prior has been filtered.
    """
    from repro.smc.association import assignment_errors

    truth = {item.request_id: item.truth for item in plan.localize}
    for session in plan.sessions:
        for w, positions in enumerate(session.truths[TRACK_ERROR_FROM:],
                                      TRACK_ERROR_FROM):
            truth[f"{session.session_id}.{w}"] = positions
    out = []
    for record in phase.records:
        if record.ok and record.request_id in truth:
            estimates = np.array(record.reply["estimates"], dtype=float)
            out.extend(assignment_errors(estimates,
                                         truth[record.request_id])[0])
    return out


def end_to_end(phase, plan, setups):
    ok = [r for r in phase.records if r.ok]
    return {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": 1e3 * _quantile([r.latency for r in ok], 0.5),
        "throughput_rps": len(ok) / (phase.end - phase.start),
        "server_cpu_ms_per_request": 1e3 * phase.cpu_s / len(phase.records),
        "server_peak_rss_mb": phase.peak_rss_mb,
        "error_p50": _quantile(errors(phase, plan), 0.5),
    }


def _steal_share(phase) -> float:
    """Share of the machine's CPU time the hypervisor took back."""
    return phase.steal_s / ((phase.end - phase.start) * os.cpu_count())


def untraced_layers(phase, generate_s):
    """Per-layer metrics the untraced run measures (client + counters)."""
    latencies = [r.latency for r in phase.records if r.ok]
    # The highest percentile with at least ten samples beyond it.
    tail = next((p for p in (99, 95, 90) if len(latencies) * (100 - p) >= 1000),
                50)
    histogram = {}
    for when, snap in ((-1, phase.before), (1, phase.after)):
        for size, count in snap["service"]["batch_size_histogram"].items():
            histogram[int(size)] = histogram.get(int(size), 0) + when * count
    batches = sum(histogram.values())
    cache_hits = _delta(phase, "service", "kernel_cache", "hits")
    cache_misses = _delta(phase, "service", "kernel_cache", "misses")
    bypasses = _delta(phase, "service", "batch_controller", "bypasses")
    windows = _delta(phase, "service", "batch_controller", "windows")
    return {
        "loadgen.host_steal_share": _steal_share(phase),
        "loadgen.sent": len(phase.records),
        "loadgen.generate_s": generate_s,
        "loadgen.latency_tail_ms": 1e3 * _quantile(latencies, tail / 100),
        "loadgen.latency_tail_pct": tail,
        "gateway.wire_overhead_p50_ms": 1e3 * _quantile(
            [r.latency - r.reply["latency_s"] for r in phase.records if r.ok],
            0.5),
        "gateway.replies_dropped": _delta(phase, "gateway", "replies_dropped"),
        "gateway.protocol_errors": _delta(phase, "gateway", "protocol_errors"),
        "serve.admission.rejections": (
            _delta(phase, "service", "admission_rejections")
            + _delta(phase, "service", "admission_timeouts")
        ),
        "serve.scheduler.batches": batches,
        "serve.scheduler.batch_size_mean": (
            sum(s * c for s, c in histogram.items()) / batches if batches else 0
        ),
        "serve.scheduler.fused_rows_per_batch": (
            _delta(phase, "service", "fused_candidate_rows") / batches
            if batches else 0
        ),
        "serve.scheduler.bypass_share": (
            bypasses / (bypasses + windows) if bypasses + windows else 0.0
        ),
        "fpmap.kernel_cache_hit_rate": (
            cache_hits / (cache_hits + cache_misses)
            if cache_hits + cache_misses else 0.0
        ),
    }


def traced_layers(untraced, traced, spans_path, failures):
    """Per-layer metrics from the traced run's spans; checks they add up."""
    from tracing import layer_report, load_spans

    requests = {r.request_id: (r.latency, r.reply["latency_s"])
                for r in traced.records if r.ok}
    values, balance = layer_report(load_spans(spans_path), requests,
                                   (traced.start, traced.end))
    # Tracing overhead: the same requests, traced vs untraced.
    traced_p50 = _quantile([r.latency for r in traced.records if r.ok], 0.5)
    base_p50 = _quantile([r.latency for r in untraced.records
                          if r.ok and r.request_id in requests], 0.5)
    values["trace.overhead_share"] = traced_p50 / base_p50 - 1.0
    total = balance["client_latency_s"]
    print(f"spans: {spans_path}  unattributed {balance['unattributed_s']:.6f}"
          f" s of {total:.3f} s summed client latency")
    if abs(balance["sum_of_parts_s"] - total) > 0.01 * total:
        failures.append(f"trace: parts sum to {balance['sum_of_parts_s']:.4f}"
                        f" s, summed client latency is {total:.4f} s")
    if balance["min_self_s"] < 0:
        failures.append(f"trace: negative self time "
                        f"{balance['min_self_s']:.3g} s")
    failures += counter_failures(traced, "traced")
    return values


# ----------------------------------------------------------------------
# One run.
# ----------------------------------------------------------------------
def _serve(probe, warm, warm_s, plan, seconds=0.0, spans=None):
    """One fresh server through probe, warm-up and ``seconds`` of ``plan``."""
    from loadgen import ServerProcess, drive_server

    server = ServerProcess(ROOT, spans=spans)
    try:
        return asyncio.run(drive_server(server, probe, warm, warm_s, plan,
                                        seconds))
    finally:
        server.stop()


def _on_alarm(signum, frame):
    raise TimeoutError(f"benchmark exceeded {WATCHDOG_S} s")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(WATCHDOG_S)

    from loadgen import localize_frame
    from workloads import WORKLOADS, Generator, build_deployment, flux_table

    spec_doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    seconds = 2.0 if args.smoke else args.seconds
    warm_s = 0.5 if args.smoke else WARMUP_S
    spawns = 1 if args.smoke else SETUP_SPAWNS
    replays = 16 if args.smoke else REPLAY_LOCALIZE
    windows = 16 if args.smoke else REPLAY_WINDOWS

    started = time.monotonic()
    deployment = build_deployment()
    generator = Generator(*deployment, flux_table(*deployment, WORK / "cache"))
    plan = generator.plan(spec, args.seed, seconds)
    warm = generator.plan(spec, args.seed, warm_s, prefix="w", stream=1)
    probe = localize_frame(generator.probe())
    generate_s = time.monotonic() - started

    failures = []
    if args.trace == 0:
        setups = []
        for _ in range(spawns - 1):
            setups.append(_serve(probe, None, 0.0, None).setup_s)
        phase = _serve(probe, warm, warm_s, plan, seconds)
        setups.append(phase.setup_s)
        phases = [phase]
        values = end_to_end(phase, plan, setups)
        declared = spec_doc["end_to_end"]
    else:
        phase = _serve(probe, warm, warm_s, plan, seconds)
        spans_path = WORK / "runs" / args.workload / "spans.jsonl"
        traced = _serve(probe, warm, warm_s, plan.head(TRACE_FRACTION),
                        seconds * TRACE_FRACTION, spans=spans_path)
        phases = [phase, traced]
        values = untraced_layers(phase, generate_s)
        values.update(traced_layers(phase, traced, spans_path, failures))
        declared = spec_doc["per_layer"]

    failures += counter_failures(phase, "untraced")
    failures += replay_failures(phase, plan, deployment, args.seed, replays,
                                windows)
    attempted = sum(len(p.records) for p in phases)
    failed = sum(1 for p in phases for r in p.records if not r.ok)
    if failed:
        failures.append(f"{failed} of {attempted} requests got no ok reply")

    metrics = {}
    for entry in declared:
        value = values[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']:<40} {value:>14.6g} {entry['unit']}")
    if _steal_share(phase) > STEAL_LIMIT:
        print(f"WARNING: the hypervisor took {_steal_share(phase):.1%} of the "
              f"CPU time; the timings of this run are suspect")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    result = {"correct": not failures, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    if args.out:
        with open(args.out, "a") as handle:
            handle.write(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "seconds": seconds, "trace": args.trace, **result,
            }) + "\n")
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
