"""Implementations of the ``repro`` CLI commands.

Each handler takes the parsed argparse namespace and returns a process
exit code. Output is plain text on stdout so the commands compose with
shell pipelines; ``--output FILE`` writes machine-readable artifacts.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import numpy as np

from repro.geometry import RectangularField
from repro.network import (
    build_network,
    sample_sniffers_percentage,
)
from repro.traffic import MeasurementModel, simulate_flux
from repro.util.rng import as_generator


def _network_from(args):
    field = RectangularField(args.field, args.field)
    return build_network(
        field=field,
        node_count=args.nodes,
        radius=args.radius,
        deployment=args.deployment,
        rng=as_generator(args.seed),
    )


def _engine_from(args):
    """Build the parallel engine requested by ``--workers``/``--chunk-size``/
    ``--dtype`` (see docs/PERFORMANCE.md). Serial with default knobs."""
    from repro.engine import Engine

    return Engine(
        workers=args.workers, chunk_size=args.chunk_size, dtype=args.dtype
    )


def _place_users(net, count, gen):
    truth = net.field.sample_uniform(count, gen)
    stretches = gen.uniform(1.0, 3.0, count)
    return truth, stretches


class _ShutdownGuard:
    """SIGINT/SIGTERM → a drain event instead of a stack trace.

    The serving commands install one around their load phase: the first
    signal stops *submission* (the event is checked between requests),
    after which the normal drain-and-checkpoint shutdown path runs and
    the process exits 0 deterministically — in-flight work still gets
    its typed replies, checkpoints are still written, ``--metrics-out``
    is still flushed. A second signal restores the default handler's
    behavior (the escape hatch when a drain wedges).
    """

    def __init__(self):
        self.event = threading.Event()
        self._previous = {}

    @property
    def triggered(self) -> bool:
        return self.event.is_set()

    def install(self) -> "_ShutdownGuard":
        import signal

        def _handle(signum, frame):
            if self.event.is_set():
                # Second signal: give up gracefulness.
                signal.signal(signum, signal.SIG_DFL)
                signal.raise_signal(signum)
                return
            print(
                f"\nreceived {signal.Signals(signum).name}; draining "
                "(signal again to force quit)",
                file=sys.stderr,
            )
            self.event.set()

        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                self._previous[signum] = signal.signal(signum, _handle)
            except (ValueError, OSError):
                pass  # not the main thread (tests): run unguarded
        return self

    def restore(self) -> None:
        import signal

        for signum, previous in self._previous.items():
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError):
                pass
        self._previous.clear()

    def __enter__(self) -> "_ShutdownGuard":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()


def _load_fault_plan(args):
    """The ``--fault-plan`` JSON as a FaultPlan, or None without one.

    Raises :class:`~repro.errors.ConfigurationError` on an unreadable
    or invalid plan file — callers turn that into exit code 1.
    """
    path = getattr(args, "fault_plan", None)
    if not path:
        return None
    from repro.faults import FaultPlan

    return FaultPlan.load(path)


def cmd_simulate(args) -> int:
    gen = as_generator(args.seed)
    net = _network_from(args)
    truth, stretches = _place_users(net, args.users, gen)
    flux = simulate_flux(net, list(truth), list(stretches), rng=gen)

    print(
        f"network: {net.node_count} nodes, degree {net.average_degree():.1f}, "
        f"hop distance {net.average_hop_distance():.2f}"
    )
    for i, (pos, s) in enumerate(zip(truth, stretches)):
        print(f"user {i}: position ({pos[0]:.2f}, {pos[1]:.2f}) stretch {s:.2f}")
    print(
        f"flux: total {flux.sum():.0f}, max {flux.max():.0f} at node "
        f"{int(np.argmax(flux))}"
    )
    if args.output != "-":
        lines = ["node,x,y,flux"]
        for i in range(net.node_count):
            lines.append(
                f"{i},{net.positions[i, 0]:.4f},{net.positions[i, 1]:.4f},"
                f"{flux[i]:.4f}"
            )
        Path(args.output).write_text("\n".join(lines) + "\n")
        print(f"wrote {args.output}")
    return 0


def cmd_build_map(args) -> int:
    from repro.fpmap import build_fingerprint_map

    gen = as_generator(args.seed)
    net = _network_from(args)
    sniffers = sample_sniffers_percentage(net, args.percentage, rng=gen)
    fmap = build_fingerprint_map(
        net.field,
        net.positions[sniffers],
        resolution=args.resolution,
        d_floor=args.d_floor,
        sniffer_ids=sniffers,
        engine=_engine_from(args),
    )
    path = fmap.save(args.output)
    cols, rows = fmap.grid_shape()
    print(
        f"map: {fmap.cell_count} cells (~{cols}x{rows} at resolution "
        f"{fmap.resolution:g}), {fmap.sniffer_count} sniffers, deployment "
        f"{fmap.deployment[:12]}"
    )
    print(f"wrote {path}")
    return 0


def cmd_localize(args) -> int:
    from repro.errors import ConfigurationError
    from repro.fingerprint import NLSLocalizer

    gen = as_generator(args.seed)
    net = _network_from(args)
    truth, stretches = _place_users(net, args.users, gen)
    flux = simulate_flux(net, list(truth), list(stretches), rng=gen)

    fmap = None
    if args.map:
        from repro.fpmap import FingerprintMap

        try:
            fmap = FingerprintMap.load(args.map)
        except ConfigurationError as exc:
            print(f"cannot use map {args.map}: {exc}", file=sys.stderr)
            return 1
        # The map's stored sniffer set *is* the deployment it fingerprints;
        # --percentage would sample a different set and fail validation.
        sniffers = np.asarray(fmap.sniffer_ids, dtype=np.int64)
        if sniffers.size and sniffers.max() >= net.node_count:
            print(
                f"cannot use map {args.map}: sniffer ids exceed the "
                f"{net.node_count}-node network (different deployment args?)",
                file=sys.stderr,
            )
            return 1
    else:
        sniffers = sample_sniffers_percentage(net, args.percentage, rng=gen)
    obs = MeasurementModel(net, sniffers, smooth=True, rng=gen).observe(flux)

    localizer = NLSLocalizer(
        net.field,
        net.positions[sniffers],
        d_floor=fmap.d_floor if fmap is not None else 1.0,
    )
    try:
        result = localizer.localize(
            obs,
            user_count=args.users,
            candidate_count=args.candidates,
            restarts=args.restarts,
            rng=gen,
            fingerprint_map=fmap,
            seed_top_k=args.seed_top_k if args.map else 32,
            engine=_engine_from(args),
        )
    except ConfigurationError as exc:
        print(f"cannot use map {args.map}: {exc}", file=sys.stderr)
        return 1
    estimates = result.position_estimates()
    errors = result.errors_to(truth)
    tag = f" (map-seeded from {args.map})" if fmap is not None else ""
    print(
        f"sniffed {sniffers.size}/{net.node_count} nodes; "
        f"objective {result.best.objective:.2f}{tag}"
    )
    for i in range(args.users):
        print(
            f"user {i}: true ({truth[i, 0]:6.2f}, {truth[i, 1]:6.2f})  "
            f"estimated ({estimates[i, 0]:6.2f}, {estimates[i, 1]:6.2f})  "
            f"error {errors[i]:.2f}"
        )
    print(
        f"mean error {errors.mean():.2f} "
        f"({errors.mean() / net.field.diameter:.1%} of field diameter)"
    )
    return 0


def cmd_track(args) -> int:
    from repro.mobility import crossing_trajectories, random_waypoint_trajectory
    from repro.smc import SequentialMonteCarloTracker, TrackerConfig
    from repro.smc.association import assignment_errors
    from repro.traffic import FluxSimulator, synchronous_schedule

    gen = as_generator(args.seed)
    net = _network_from(args)
    if args.crossing:
        a, b = crossing_trajectories(net.field, args.rounds)
        trajectories = [a, b]
        user_count = 2
    else:
        user_count = args.users
        trajectories = [
            random_waypoint_trajectory(
                net.field,
                rounds=args.rounds,
                speed=float(gen.uniform(args.max_speed * 0.4, args.max_speed * 0.9)),
                rng=gen,
            )
            for _ in range(user_count)
        ]
    stretches = list(gen.uniform(1.0, 3.0, user_count))
    schedule = synchronous_schedule(
        [t.positions for t in trajectories], stretches
    )
    sim = FluxSimulator(net, rng=gen)
    sniffers = sample_sniffers_percentage(net, args.percentage, rng=gen)
    measure = MeasurementModel(net, sniffers, smooth=True, rng=gen)
    tracker = SequentialMonteCarloTracker(
        net.field,
        net.positions[sniffers],
        user_count=user_count,
        config=TrackerConfig(
            prediction_count=args.predictions,
            keep_count=args.keep,
            max_speed=args.max_speed,
        ),
        rng=gen,
        engine=_engine_from(args),
    )

    print(f"{'round':>5}  mean error")
    finals = None
    for k, (t, events) in enumerate(schedule.windows(1.0)):
        flux = sim.window_flux(events).total
        step = tracker.step(measure.observe(flux, time=t))
        truth = np.stack([tr.positions[k] for tr in trajectories])
        errors, _ = assignment_errors(step.estimates, truth)
        finals = errors
        print(f"{k:>5}  {errors.mean():10.2f}")
    print(f"final mean error {finals.mean():.2f}")
    return 0


def cmd_track_stream(args) -> int:
    from itertools import chain

    from repro.errors import ConfigurationError, StreamError
    from repro.smc import SequentialMonteCarloTracker, TrackerConfig
    from repro.stream import (
        JsonlTailSource,
        ReplaySource,
        SyntheticLiveSource,
        resume_or_create,
        run_stream,
    )
    from repro.util.persistence import load_network

    if args.input and args.jsonl:
        print("use either --input or --jsonl, not both", file=sys.stderr)
        return 2
    gen = as_generator(args.seed)
    net = load_network(args.network) if args.network else _network_from(args)
    truth = None

    fmap = None
    if args.map:
        from repro.fpmap import FingerprintMap

        try:
            fmap = FingerprintMap.load(args.map)
        except ConfigurationError as exc:
            print(f"cannot use map {args.map}: {exc}", file=sys.stderr)
            return 1

    if args.input:
        source = ReplaySource.from_npz(args.input)
        if not len(source):
            print(f"{args.input} holds no observations", file=sys.stderr)
            return 1
        sniffer_idx = source.observations[0].sniffers
    elif args.jsonl:
        tail = JsonlTailSource(args.jsonl, idle_timeout=args.idle_timeout)
        iterator = iter(tail)
        try:
            first = next(iterator)
        except StopIteration:
            print(f"{args.jsonl} yielded no observations", file=sys.stderr)
            return 1
        source = chain([first], iterator)
        sniffer_idx = first.sniffers
    else:
        if fmap is not None and int(fmap.sniffer_ids.max()) < net.node_count:
            # Synthesize on the map's own sniffer set: the map *is* the
            # deployment contract, --percentage only applies without one.
            sniffer_idx = np.asarray(fmap.sniffer_ids, dtype=np.int64)
        else:
            sniffer_idx = sample_sniffers_percentage(
                net, args.percentage, rng=gen
            )
        live = SyntheticLiveSource(
            net,
            sniffer_idx,
            user_count=args.users,
            rounds=args.rounds,
            max_speed=args.max_speed,
            rng=gen,
        )
        source = live
        truth = live.truth_at

    def make_session():
        from repro.stream import TrackingSession

        tracker = SequentialMonteCarloTracker(
            net.field,
            net.positions[np.asarray(sniffer_idx, dtype=np.int64)],
            user_count=args.users,
            config=TrackerConfig(
                prediction_count=args.predictions,
                keep_count=args.keep,
                max_speed=args.max_speed,
                reseed_after_misses=args.reseed_after_misses,
            ),
            rng=gen,
            fingerprint_map=fmap,
            engine=_engine_from(args),
        )
        return TrackingSession("cli", tracker, truth=truth)

    try:
        if args.checkpoint:
            session = resume_or_create(
                args.checkpoint, make_session, truth=truth, fingerprint_map=fmap
            )
            if session.windows_consumed:
                print(
                    f"resumed from {args.checkpoint} at window "
                    f"{session.windows_consumed}"
                )
        else:
            session = make_session()
    except ConfigurationError as exc:
        what = f"cannot use map {args.map}" if args.map else "bad configuration"
        print(f"{what}: {exc}", file=sys.stderr)
        return 1

    def on_step(sess, step):
        if step is None:
            print(f"{sess.windows_consumed - 1:>6}  "
                  f"skipped ({sess.last_skip_reason})")
        else:
            print(
                f"{sess.windows_consumed - 1:>6}  t={step.time:<8g} "
                f"active={int(step.active.sum())}/{len(step.active)} "
                f"objective={step.objective:.3f}"
            )

    try:
        plan = _load_fault_plan(args)
    except ConfigurationError as exc:
        print(f"cannot load fault plan {args.fault_plan}: {exc}",
              file=sys.stderr)
        return 1
    try:
        from repro.faults import RetryPolicy, injected

        with injected(plan):
            run_stream(
                source,
                session,
                checkpoint_path=args.checkpoint,
                checkpoint_every=args.checkpoint_every,
                max_windows=args.max_windows,
                on_step=on_step,
                retry_policy=(
                    RetryPolicy(max_attempts=3, base_delay_s=0.005,
                                max_delay_s=0.1)
                    if plan is not None else None
                ),
            )
    except StreamError as exc:
        print(f"stream failed: {exc}", file=sys.stderr)
        return 1
    if plan is not None:
        print(f"fault plan: {plan.summary()}")

    estimates = session.estimates()
    print("final estimates:")
    for i, (x, y) in enumerate(estimates):
        print(f"  user {i}: ({x:6.2f}, {y:6.2f})")
    metrics_json = session.metrics.to_json()
    if args.metrics_out:
        Path(args.metrics_out).write_text(metrics_json + "\n")
        print(f"wrote metrics to {args.metrics_out}")
    else:
        print(metrics_json)
    return 0


def cmd_traces(args) -> int:
    from repro.traces import (
        generate_campus_aps,
        generate_syslog_records,
        parse_syslog_records,
        select_rectangular_region,
    )

    gen = as_generator(args.seed)
    aps = generate_campus_aps(count=args.aps, rng=gen)
    landmarks, region = select_rectangular_region(
        aps, target_count=args.landmarks
    )
    lines = generate_syslog_records(aps, user_count=args.users, rng=gen)
    parsed = parse_syslog_records(lines)

    print(
        f"{args.aps} APs generated; {len(landmarks)} landmarks in a "
        f"{region[2] - region[0]:.0f} x {region[3] - region[1]:.0f} region"
    )
    print(f"{len(lines)} syslog records across {len(parsed)} cards")
    counts = sorted(len(seq) for seq in parsed.values())
    print(
        f"associations per card: min {counts[0]}, median "
        f"{counts[len(counts) // 2]}, max {counts[-1]}"
    )
    if args.output != "-":
        Path(args.output).write_text("\n".join(lines) + "\n")
        print(f"wrote {args.output}")
    return 0


def cmd_experiment(args) -> int:
    from repro.experiments import PaperDefaults
    from repro.experiments import ablations
    from repro.experiments.reporting import build_experiment_plan

    defaults = PaperDefaults().scaled(args.scale)
    seed = args.seed if args.seed is not None else 20100621
    plan = dict(
        (name.replace("Fig ", "").lower(), runner)
        for name, runner in build_experiment_plan(defaults, seed)
    )
    reps = max(2, 12 // args.scale)
    plan.update(
        {
            "ablation-d-floor": lambda: ablations.run_ablation_d_floor(
                repetitions=reps, rng=seed
            ),
            "ablation-smoothing": lambda: ablations.run_ablation_smoothing(
                repetitions=reps, rng=seed
            ),
            "ablation-weighting": lambda: ablations.run_ablation_weighting(
                repetitions=reps, rng=seed
            ),
            "ablation-routing": lambda: ablations.run_ablation_routing(
                repetitions=reps, rng=seed
            ),
            "ablation-aggregation": lambda: ablations.run_ablation_aggregation(
                repetitions=reps, rng=seed
            ),
            "ablation-kernel": lambda: ablations.run_ablation_kernel(
                repetitions=reps, rng=seed
            ),
            "robustness-holes": lambda: ablations.run_robustness_holes(
                repetitions=reps, rng=seed
            ),
        }
    )
    runner = plan[args.figure]
    result = runner()
    print(result.render())
    return 0


def cmd_serve(args) -> int:
    import threading
    import time

    from repro.errors import ConfigurationError
    from repro.serve import (
        LocalizationService,
        LocalizeRequest,
        MetricsServer,
        TrackStepRequest,
    )

    gen = as_generator(args.seed)
    net = _network_from(args)

    fmap = None
    if args.map:
        from repro.fpmap import FingerprintMap

        try:
            fmap = FingerprintMap.load(args.map)
        except ConfigurationError as exc:
            print(f"cannot use map {args.map}: {exc}", file=sys.stderr)
            return 1
        sniffers = np.asarray(fmap.sniffer_ids, dtype=np.int64)
        if sniffers.size and sniffers.max() >= net.node_count:
            print(
                f"cannot use map {args.map}: sniffer ids exceed the "
                f"{net.node_count}-node network (different deployment args?)",
                file=sys.stderr,
            )
            return 1
    else:
        sniffers = sample_sniffers_percentage(net, args.percentage, rng=gen)

    try:
        service = LocalizationService(
            net.field,
            net.positions[sniffers],
            d_floor=fmap.d_floor if fmap is not None else 1.0,
            engine=_engine_from(args),
            fingerprint_map=fmap,
            map_resolution=args.map_resolution if fmap is None else None,
            max_batch=args.max_batch,
            max_wait_s=args.max_wait_ms / 1000.0,
            queue_capacity=args.queue_capacity,
            admission_policy=args.policy,
        )
    except ConfigurationError as exc:
        print(f"cannot build service: {exc}", file=sys.stderr)
        return 1
    try:
        plan = _load_fault_plan(args)
    except ConfigurationError as exc:
        print(f"cannot load fault plan {args.fault_plan}: {exc}",
              file=sys.stderr)
        return 1
    deadline_s = (
        args.deadline_ms / 1000.0 if args.deadline_ms is not None else None
    )

    # Pre-generate every client's workload on the main thread so the
    # client threads only submit and wait (the RNG is not shared).
    measure = MeasurementModel(net, sniffers, smooth=True, rng=gen)
    localize_work = []  # (client, requests, truths)
    for c in range(args.clients):
        requests, truths = [], []
        for r in range(args.requests):
            truth, stretches = _place_users(net, args.users, gen)
            flux = simulate_flux(net, list(truth), list(stretches), rng=gen)
            requests.append(
                LocalizeRequest(
                    request_id=f"c{c}-r{r}",
                    client_id=f"client-{c}",
                    observation=measure.observe(flux),
                    user_count=args.users,
                    candidate_count=args.candidates,
                    restarts=args.restarts,
                    seed=int(gen.integers(2**31)),
                    deadline_s=deadline_s,
                )
            )
            truths.append(truth)
        localize_work.append((f"client-{c}", requests, truths))

    track_work = []  # (session_id, observations)
    for t in range(args.track_sessions):
        from repro.stream import SyntheticLiveSource

        live = SyntheticLiveSource(
            net,
            sniffers,
            user_count=args.users,
            rounds=args.requests,
            rng=gen,
        )
        session_id = f"track-{t}"
        service.open_session(session_id, args.users, rng=gen)
        track_work.append((session_id, list(live)))

    lock = threading.Lock()
    ok_replies, error_codes, errors = [], [], []
    guard = _ShutdownGuard()

    def run_localize(client_id, requests, truths):
        for request, truth in zip(requests, truths):
            if guard.triggered:
                return
            reply = service.submit(request).result()
            with lock:
                if reply.ok:
                    ok_replies.append(reply)
                    errors.append(reply.result.errors_to(truth).mean())
                else:
                    error_codes.append(reply.code)

    def run_track(session_id, observations):
        for r, obs in enumerate(observations):
            if guard.triggered:
                return
            reply = service.submit(
                TrackStepRequest(
                    request_id=f"{session_id}-r{r}",
                    client_id=session_id,
                    session_id=session_id,
                    observation=obs,
                    deadline_s=deadline_s,
                )
            ).result()
            with lock:
                if reply.ok:
                    ok_replies.append(reply)
                else:
                    error_codes.append(reply.code)

    endpoint = None
    if args.metrics_port is not None:
        endpoint = MetricsServer(service.metrics, port=args.metrics_port)
        print(f"metrics on http://127.0.0.1:{endpoint.start()}/metrics")

    threads = [
        threading.Thread(target=run_localize, args=work, name=work[0])
        for work in localize_work
    ] + [
        threading.Thread(target=run_track, args=work, name=work[0])
        for work in track_work
    ]
    map_tag = " (map-seeded)" if service.fingerprint_map is not None else ""
    print(
        f"serving {len(localize_work)} localize clients x {args.requests} "
        f"requests + {len(track_work)} tracking sessions on "
        f"{sniffers.size}/{net.node_count} sniffed nodes{map_tag}; "
        f"max_batch={args.max_batch} max_wait={args.max_wait_ms:g}ms "
        f"policy={args.policy}"
    )
    from repro.faults import injected

    with injected(plan), guard:
        service.start()
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        summary = service.stop(checkpoint_dir=args.checkpoint_dir)
    if guard.triggered:
        print("drained after shutdown signal")
    if endpoint is not None:
        endpoint.stop()
    if plan is not None:
        print(f"fault plan: {plan.summary()}")

    total = len(ok_replies) + len(error_codes)
    rps = total / elapsed if elapsed > 0 else float("nan")
    print(
        f"{total} replies in {elapsed:.2f}s ({rps:.0f} req/s): "
        f"{len(ok_replies)} ok, {len(error_codes)} errors"
    )
    if error_codes:
        from collections import Counter

        for code, count in sorted(Counter(error_codes).items()):
            print(f"  {code}: {count}")
    if errors:
        print(f"mean localization error {np.mean(errors):.2f}")
    for session_id, path in sorted(summary["checkpoints"].items()):
        print(f"checkpointed {session_id} -> {path}")
    metrics_json = service.metrics.to_json()
    if args.metrics_out:
        Path(args.metrics_out).write_text(metrics_json + "\n")
        print(f"wrote metrics to {args.metrics_out}")
    else:
        print(metrics_json)
    return 0


def cmd_fleet(args) -> int:
    import threading
    import time

    from repro.errors import ConfigurationError
    from repro.fleet import ServeFleet
    from repro.serve import LocalizeRequest, MetricsServer, TrackStepRequest

    gen = as_generator(args.seed)
    net = _network_from(args)

    fmap = None
    if args.map:
        from repro.fpmap import FingerprintMap

        try:
            fmap = FingerprintMap.load(args.map)
        except ConfigurationError as exc:
            print(f"cannot use map {args.map}: {exc}", file=sys.stderr)
            return 1
        sniffers = np.asarray(fmap.sniffer_ids, dtype=np.int64)
        if sniffers.size and sniffers.max() >= net.node_count:
            print(
                f"cannot use map {args.map}: sniffer ids exceed the "
                f"{net.node_count}-node network (different deployment args?)",
                file=sys.stderr,
            )
            return 1
    else:
        sniffers = sample_sniffers_percentage(net, args.percentage, rng=gen)

    try:
        fleet = ServeFleet(
            net.field,
            net.positions[sniffers],
            d_floor=fmap.d_floor if fmap is not None else 1.0,
            workers=args.fleet_workers,
            fingerprint_map=fmap,
            map_resolution=args.map_resolution if fmap is None else None,
            checkpoint_dir=args.checkpoint_dir,
            max_batch=args.max_batch,
            max_wait_s=args.max_wait_ms / 1000.0,
            queue_capacity=args.queue_capacity,
            admission_policy=args.policy,
            engine_workers=args.workers,
            engine_chunk_size=args.chunk_size,
        )
    except ConfigurationError as exc:
        print(f"cannot build fleet: {exc}", file=sys.stderr)
        return 1
    try:
        plan = _load_fault_plan(args)
    except ConfigurationError as exc:
        print(f"cannot load fault plan {args.fault_plan}: {exc}",
              file=sys.stderr)
        return 1

    # Pre-generate every client's workload on the main thread (the RNG
    # is not shared with the submission threads).
    measure = MeasurementModel(net, sniffers, smooth=True, rng=gen)
    localize_work = []  # (client, requests, truths)
    for c in range(args.clients):
        requests, truths = [], []
        for r in range(args.requests):
            truth, stretches = _place_users(net, args.users, gen)
            flux = simulate_flux(net, list(truth), list(stretches), rng=gen)
            requests.append(
                LocalizeRequest(
                    request_id=f"c{c}-r{r}",
                    client_id=f"client-{c}",
                    observation=measure.observe(flux),
                    user_count=args.users,
                    candidate_count=args.candidates,
                    restarts=args.restarts,
                    seed=int(gen.integers(2**31)),
                )
            )
            truths.append(truth)
        localize_work.append((f"client-{c}", requests, truths))

    track_work = []  # (session_id, seed, observations)
    for t in range(args.track_sessions):
        from repro.stream import SyntheticLiveSource

        live = SyntheticLiveSource(
            net,
            sniffers,
            user_count=args.users,
            rounds=args.requests,
            rng=gen,
        )
        track_work.append((f"track-{t}", int(gen.integers(2**31)), list(live)))

    lock = threading.Lock()
    ok_replies, error_codes, errors = [], [], []
    guard = _ShutdownGuard()

    def run_localize(client_id, requests, truths):
        for request, truth in zip(requests, truths):
            if guard.triggered:
                return
            reply = fleet.submit(request).result()
            with lock:
                if reply.ok:
                    ok_replies.append(reply)
                    errors.append(reply.result.errors_to(truth).mean())
                else:
                    error_codes.append(reply.code)

    def run_track(session_id, seed, observations):
        for r, obs in enumerate(observations):
            if guard.triggered:
                return
            reply = fleet.submit(
                TrackStepRequest(
                    request_id=f"{session_id}-r{r}",
                    client_id=session_id,
                    session_id=session_id,
                    observation=obs,
                )
            ).result()
            with lock:
                if reply.ok:
                    ok_replies.append(reply)
                else:
                    error_codes.append(reply.code)

    threads = [
        threading.Thread(target=run_localize, args=work, name=work[0])
        for work in localize_work
    ] + [
        threading.Thread(target=run_track, args=work, name=work[0])
        for work in track_work
    ]
    map_tag = " (map-seeded)" if fleet.fingerprint_map is not None else ""
    print(
        f"fleet of {args.fleet_workers} workers serving "
        f"{len(localize_work)} localize clients x {args.requests} requests "
        f"+ {len(track_work)} tracking sessions on "
        f"{sniffers.size}/{net.node_count} sniffed nodes{map_tag}; "
        f"max_batch={args.max_batch} policy={args.policy}"
    )
    from repro.faults import injected

    # Arm only across start(): forked workers inherit the armed plan,
    # so worker-side sites (fleet.worker.exit) fire in the children.
    # Disarm before driving traffic — replacements forked at failover
    # must start clean, or each one re-fires the fault and dies again
    # until the redelivery limit gives up.
    with injected(plan):
        fleet.start()
    try:
        with guard:
            endpoint = None
            if args.metrics_port is not None:
                endpoint = MetricsServer(fleet=fleet, port=args.metrics_port)
                print(
                    f"metrics on http://127.0.0.1:{endpoint.start()}/metrics"
                )
            for session_id, seed, _ in track_work:
                fleet.open_session(session_id, args.users, seed=seed)
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - start
            snapshot = fleet.fleet_snapshot()
            if endpoint is not None:
                endpoint.stop()
    finally:
        fleet.stop()
    if guard.triggered:
        print("drained after shutdown signal")
    if plan is not None:
        print(f"fault plan: {plan.summary()}")

    total = len(ok_replies) + len(error_codes)
    rps = total / elapsed if elapsed > 0 else float("nan")
    router = snapshot["router"]
    print(
        f"{total} replies in {elapsed:.2f}s ({rps:.0f} req/s aggregate): "
        f"{len(ok_replies)} ok, {len(error_codes)} errors; "
        f"{router['worker_deaths']} worker deaths, "
        f"{router['redeliveries']} redeliveries"
    )
    if error_codes:
        from collections import Counter

        for code, count in sorted(Counter(error_codes).items()):
            print(f"  {code}: {count}")
    if errors:
        print(f"mean localization error {np.mean(errors):.2f}")
    import json

    from repro.serve.metrics import _nan_safe_deep

    metrics_json = json.dumps(
        _nan_safe_deep(snapshot), indent=2, sort_keys=True
    )
    if args.metrics_out:
        Path(args.metrics_out).write_text(metrics_json + "\n")
        print(f"wrote fleet metrics to {args.metrics_out}")
    else:
        print(metrics_json)
    return 0


#: Stage order of the printed latency-decomposition table.
_STAGE_ORDER = (
    "gateway_in", "admission", "fuse", "solve", "reply", "gateway_out",
)


def _print_stage_table(stages: dict) -> None:
    known = [s for s in _STAGE_ORDER if s in stages]
    known += [s for s in sorted(stages) if s not in _STAGE_ORDER]
    if not known:
        return
    print(f"{'stage':<12} {'p50 ms':>9} {'p95 ms':>9} {'count':>8}")
    for stage in known:
        row = stages[stage]
        p50 = row.get("p50_s")
        p95 = row.get("p95_s")
        print(
            f"{stage:<12} "
            f"{(p50 * 1000 if p50 is not None else float('nan')):>9.3f} "
            f"{(p95 * 1000 if p95 is not None else float('nan')):>9.3f} "
            f"{row.get('count', 0):>8}"
        )


def _drive_gateway(
    args, host, port, localize_work, track_work, deadline_s, guard=None
) -> int:
    """Drive the pre-generated load through a gateway over real sockets."""
    import asyncio
    import time
    from collections import Counter

    from repro.errors import GatewayError
    from repro.gateway import GatewayClient

    counts = {"ok": 0, "dead": 0}
    error_codes: Counter = Counter()

    async def localize_client(c, obs_list):
        client = GatewayClient(host, port, f"client-{c}")
        try:
            await client.connect()
            for obs, seed in obs_list:
                if guard is not None and guard.triggered:
                    break
                reply = await client.localize(
                    obs,
                    user_count=args.users,
                    candidate_count=args.candidates,
                    restarts=args.restarts,
                    seed=seed,
                    deadline_s=deadline_s,
                )
                if reply.get("ok"):
                    counts["ok"] += 1
                else:
                    error_codes[reply.get("code", "unknown")] += 1
        except (GatewayError, asyncio.TimeoutError, OSError):
            counts["dead"] += 1
        finally:
            await client.close()

    async def track_client(session_id, seed, windows):
        client = GatewayClient(host, port, session_id)
        try:
            await client.connect()
            opened = await client.open_session(
                session_id, args.users, seed=seed
            )
            if not opened.get("session_id"):
                error_codes[opened.get("code", "unknown")] += 1
                return
            for obs in windows:
                if guard is not None and guard.triggered:
                    break
                reply = await client.track_step(session_id, obs)
                if reply.get("ok"):
                    counts["ok"] += 1
                else:
                    error_codes[reply.get("code", "unknown")] += 1
        except (GatewayError, asyncio.TimeoutError, OSError):
            counts["dead"] += 1
        finally:
            await client.close()

    async def main():
        start = time.perf_counter()
        jobs = [
            localize_client(c, obs_list)
            for c, obs_list in enumerate(localize_work)
        ] + [
            track_client(session_id, seed, windows)
            for session_id, seed, windows in track_work
        ]
        await asyncio.gather(*jobs)
        elapsed = time.perf_counter() - start
        stages = {}
        try:
            async with GatewayClient(host, port, "probe") as probe:
                dump = await probe.trace_dump()
                stages = dump.get("stages", {})
        except (GatewayError, OSError):
            pass
        return elapsed, stages

    try:
        elapsed, stages = asyncio.run(main())
    except ConnectionRefusedError as exc:
        print(f"cannot reach gateway {host}:{port}: {exc}", file=sys.stderr)
        return 1
    total = counts["ok"] + sum(error_codes.values())
    rps = total / elapsed if elapsed > 0 else float("nan")
    print(
        f"{total} replies in {elapsed:.2f}s ({rps:.0f} req/s over the "
        f"wire): {counts['ok']} ok, {sum(error_codes.values())} errors, "
        f"{counts['dead']} dead connections"
    )
    for code, count in sorted(error_codes.items()):
        print(f"  {code}: {count}")
    _print_stage_table(stages)
    return 0


def cmd_gateway(args) -> int:
    import time

    from repro.errors import ConfigurationError
    from repro.faults import injected
    from repro.gateway import GatewayServer
    from repro.serve import LocalizationService, MetricsServer

    gen = as_generator(args.seed)
    net = _network_from(args)
    sniffers = sample_sniffers_percentage(net, args.percentage, rng=gen)
    measure = MeasurementModel(net, sniffers, smooth=True, rng=gen)
    deadline_s = (
        args.deadline_ms / 1000.0 if args.deadline_ms is not None else None
    )

    # Pre-generate the synthetic load. Both modes use it: the serve
    # mode drives its own gateway, --connect drives a remote one (built
    # from the same network args, so the observations match the remote
    # deployment when the seeds match).
    localize_work = []
    for c in range(args.clients):
        obs_list = []
        for _ in range(args.requests):
            truth, stretches = _place_users(net, args.users, gen)
            flux = simulate_flux(net, list(truth), list(stretches), rng=gen)
            obs_list.append(
                (measure.observe(flux), int(gen.integers(2**31)))
            )
        localize_work.append(obs_list)
    track_work = []
    for t in range(args.track_sessions):
        from repro.stream import SyntheticLiveSource

        live = SyntheticLiveSource(
            net, sniffers, user_count=args.users,
            rounds=args.requests, rng=gen,
        )
        track_work.append(
            (f"track-{t}", int(gen.integers(2**31)), list(live))
        )

    if args.connect:
        host, _, port_text = args.connect.rpartition(":")
        try:
            port = int(port_text)
        except ValueError:
            print(
                f"--connect needs HOST:PORT, got {args.connect!r}",
                file=sys.stderr,
            )
            return 1
        with _ShutdownGuard() as guard:
            return _drive_gateway(
                args, host or "127.0.0.1", port,
                localize_work, track_work, deadline_s, guard=guard,
            )

    try:
        service = LocalizationService(
            net.field,
            net.positions[sniffers],
            engine=_engine_from(args),
            map_resolution=args.map_resolution,
            max_batch=args.max_batch,
            max_wait_s=args.max_wait_ms / 1000.0,
            queue_capacity=args.queue_capacity,
            admission_policy=args.policy,
        )
    except ConfigurationError as exc:
        print(f"cannot build service: {exc}", file=sys.stderr)
        return 1
    try:
        plan = _load_fault_plan(args)
    except ConfigurationError as exc:
        print(f"cannot load fault plan {args.fault_plan}: {exc}",
              file=sys.stderr)
        return 1
    service.start()
    gateway = GatewayServer(service, host="127.0.0.1", port=args.port)
    guard = _ShutdownGuard()
    code = 0
    endpoint = None
    try:
        port = gateway.start()
        print(
            f"gateway on 127.0.0.1:{port} fronting "
            f"{sniffers.size}/{net.node_count} sniffed nodes"
        )
        if args.metrics_port is not None:
            endpoint = MetricsServer(service.metrics, port=args.metrics_port)
            print(f"metrics on http://127.0.0.1:{endpoint.start()}/metrics")
        with injected(plan), guard:
            if args.clients > 0 or args.track_sessions > 0:
                code = _drive_gateway(
                    args, "127.0.0.1", port,
                    localize_work, track_work, deadline_s, guard=guard,
                )
            else:
                stop_at = (
                    None if args.duration is None
                    else time.monotonic() + args.duration
                )
                while not guard.triggered:
                    if stop_at is not None and time.monotonic() >= stop_at:
                        break
                    guard.event.wait(0.2)
    finally:
        gateway.stop()
        service.stop(checkpoint_dir=args.checkpoint_dir)
        if endpoint is not None:
            endpoint.stop()
    if guard.triggered:
        print("drained after shutdown signal")
    if plan is not None:
        print(f"fault plan: {plan.summary()}")
    snap = gateway.snapshot()
    print(
        f"gateway: {snap['connections_opened']} connections, "
        f"{snap['frames_received']} frames in / {snap['frames_sent']} out, "
        f"{snap['replies_dropped']} replies dropped, "
        f"{snap['protocol_errors']} protocol errors"
    )
    metrics_json = service.metrics.to_json()
    if args.metrics_out:
        Path(args.metrics_out).write_text(metrics_json + "\n")
        print(f"wrote metrics to {args.metrics_out}")
    return code


def cmd_defend(args) -> int:
    from repro.countermeasures import defense_tradeoff

    gen = as_generator(args.seed)
    net = _network_from(args)
    points = defense_tradeoff(
        net, user_count=args.users, repetitions=args.repetitions, rng=gen
    )
    print(f"{'defense':<12} {'param':>6} {'attack err':>10} {'overhead':>9}")
    for p in points:
        print(
            f"{p.defense:<12} {p.parameter:>6.2f} {p.attack_error:>10.2f} "
            f"{p.overhead:>8.0%}"
        )
    return 0
