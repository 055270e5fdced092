"""Implementations of the ``repro`` CLI commands.

Each handler takes the parsed argparse namespace and returns a process
exit code. Output is plain text on stdout so the commands compose with
shell pipelines; ``--output FILE`` writes machine-readable artifacts.

The serving commands ``serve``, ``fleet`` and ``gateway`` share one
load: :func:`_sniffers_from` picks the deployment's sniffers,
:class:`_Workload` draws the synthetic requests, :func:`_drive` submits
them to a :class:`~repro.serve.LocalizationService` or
:class:`~repro.fleet.ServeFleet` from client threads, and
:func:`_drive_gateway` sends the same requests over sockets.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np

from repro.errors import ConfigurationError
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


def _sniffers_from(args, net, gen, map_path=None):
    """``(map, sniffer ids)`` of the deployment on ``net``.

    With ``map_path`` the map's stored sniffer set *is* the deployment
    it fingerprints (``--percentage`` would sample a different set and
    fail validation); without one, ``--percentage`` of the nodes are
    drawn from ``gen`` and there is no map. Raises
    :class:`~repro.errors.ConfigurationError` for an unreadable map or
    one whose sniffer ids do not fit ``net``.
    """
    if not map_path:
        return None, sample_sniffers_percentage(net, args.percentage, rng=gen)
    from repro.fpmap import FingerprintMap

    fmap = FingerprintMap.load(map_path)
    sniffers = np.asarray(fmap.sniffer_ids, dtype=np.int64)
    if sniffers.size and sniffers.max() >= net.node_count:
        raise ConfigurationError(
            f"sniffer ids exceed the {net.node_count}-node network "
            "(different deployment args?)"
        )
    return fmap, sniffers


def _refuse(what: str, exc: Exception) -> int:
    print(f"{what}: {exc}", file=sys.stderr)
    return 1


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
    if not args.fault_plan:
        return None
    from repro.faults import FaultPlan

    return FaultPlan.load(args.fault_plan)


def _emit_metrics(path, metrics_json: str) -> None:
    """Write the final metrics JSON to ``path``, or print it without one."""
    if path:
        Path(path).write_text(metrics_json + "\n")
        print(f"wrote metrics to {path}")
    else:
        print(metrics_json)


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
    from repro.fingerprint import NLSLocalizer

    gen = as_generator(args.seed)
    net = _network_from(args)
    truth, stretches = _place_users(net, args.users, gen)
    flux = simulate_flux(net, list(truth), list(stretches), rng=gen)
    try:
        fmap, sniffers = _sniffers_from(args, net, gen, args.map)
    except ConfigurationError as exc:
        return _refuse(f"cannot use map {args.map}", exc)
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
        )
    except ConfigurationError as exc:
        return _refuse(f"cannot use map {args.map}", exc)
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

    from repro.errors import StreamError
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
            return _refuse(f"cannot use map {args.map}", exc)

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
        return _refuse(what, exc)

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
        return _refuse(f"cannot load fault plan {args.fault_plan}", exc)
    try:
        from repro.faults import DEFAULT_RETRY_POLICY, injected

        with injected(plan):
            run_stream(
                source,
                session,
                checkpoint_path=args.checkpoint,
                checkpoint_every=args.checkpoint_every,
                max_windows=args.max_windows,
                on_step=on_step,
                retry_policy=DEFAULT_RETRY_POLICY,
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
    _emit_metrics(args.metrics_out, session.metrics.to_json())
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


class _Workload:
    """The synthetic load of ``serve``, ``fleet`` and ``gateway``.

    Everything is drawn from ``gen`` here, on the main thread, in one
    fixed order, so the load follows from ``--seed``. ``clients`` holds
    each client's ``(client_id, [(LocalizeRequest, truth), ...])``;
    ``sessions`` holds each tracking session's ``(session_id, seed,
    [TrackStepRequest, ...])``. Every session owns an integer seed for
    its tracker, so its trajectory does not depend on which thread
    steps it or when.
    """

    def __init__(self, args, net, sniffers, gen, deadline_ms=None):
        from repro.serve import LocalizeRequest, TrackStepRequest
        from repro.stream import SyntheticLiveSource

        deadline_s = deadline_ms / 1000.0 if deadline_ms is not None else None
        self.users = args.users
        measure = MeasurementModel(net, sniffers, smooth=True, rng=gen)
        self.clients = []
        for c in range(args.clients):
            pairs = []
            for r in range(args.requests):
                truth, stretches = _place_users(net, args.users, gen)
                flux = simulate_flux(net, list(truth), list(stretches), rng=gen)
                request = LocalizeRequest(
                    request_id=f"c{c}-r{r}",
                    client_id=f"client-{c}",
                    observation=measure.observe(flux),
                    user_count=args.users,
                    candidate_count=args.candidates,
                    restarts=args.restarts,
                    seed=int(gen.integers(2**31)),
                    deadline_s=deadline_s,
                )
                pairs.append((request, truth))
            self.clients.append((f"client-{c}", pairs))
        self.sessions = []
        for t in range(args.track_sessions):
            session_id = f"track-{t}"
            live = SyntheticLiveSource(
                net, sniffers, user_count=args.users, rounds=args.requests,
                rng=gen,
            )
            seed = int(gen.integers(2**31))
            steps = [
                TrackStepRequest(
                    request_id=f"{session_id}-r{r}",
                    client_id=session_id,
                    session_id=session_id,
                    observation=obs,
                    deadline_s=deadline_s,
                )
                for r, obs in enumerate(live)
            ]
            self.sessions.append((session_id, seed, steps))

    def streams(self):
        """``(name, [(request, truth or None), ...], session seed or
        None)`` per client and tracking session."""
        return [(name, pairs, None) for name, pairs in self.clients] + [
            (session_id, [(step, None) for step in steps], seed)
            for session_id, seed, steps in self.sessions
        ]


class _Tally:
    """The replies of one load run, counted from any thread."""

    def __init__(self):
        self.ok = 0
        self.codes = Counter()  # error code -> replies
        self.errors = []  # mean localization error of each ok localize
        self.elapsed = float("nan")
        self._lock = threading.Lock()

    def add(self, code=None, error=None) -> None:
        """Count one reply: ``code`` is ``None`` for an ok one, whose
        localization ``error`` is given when its truth is known."""
        with self._lock:
            if code is not None:
                self.codes[code] += 1
                return
            self.ok += 1
            if error is not None:
                self.errors.append(error)

    def print(self, extra: str = "") -> None:
        errors = sum(self.codes.values())
        total = self.ok + errors
        rps = total / self.elapsed if self.elapsed > 0 else float("nan")
        print(
            f"{total} replies in {self.elapsed:.2f}s ({rps:.0f} req/s): "
            f"{self.ok} ok, {errors} errors{extra}"
        )
        for code, count in sorted(self.codes.items()):
            print(f"  {code}: {count}")
        if self.errors:
            print(f"mean localization error {np.mean(self.errors):.2f}")


def _backend_args(args, fmap) -> dict:
    """The deployment map and batching knobs that ``LocalizationService``
    and ``ServeFleet`` both take: ``fmap`` as given, or without it one
    built at ``--map-resolution``."""
    return dict(
        d_floor=fmap.d_floor if fmap is not None else 1.0,
        fingerprint_map=fmap,
        map_resolution=args.map_resolution,
        max_batch=args.max_batch,
        queue_capacity=args.queue_capacity,
    )


def _service_from(args, net, sniffers, fmap):
    from repro.serve import LocalizationService

    return LocalizationService(
        net.field, net.positions[sniffers], **_backend_args(args, fmap)
    )


def _print_header(what: str, args, work, net, sniffers, fmap) -> None:
    map_tag = " (map-seeded)" if fmap is not None else ""
    print(
        f"{what}serving {len(work.clients)} localize clients x "
        f"{args.requests} requests + {len(work.sessions)} tracking sessions "
        f"on {len(sniffers)}/{net.node_count} sniffed nodes{map_tag}; "
        f"max_batch={args.max_batch} queue_capacity={args.queue_capacity}"
    )


def _metrics_endpoint(args, **source):
    """Start ``GET /metrics`` on ``--metrics-port`` (``None`` without
    it); ``source`` is ``metrics=`` or ``fleet=`` of ``MetricsServer``."""
    if args.metrics_port is None:
        return None
    from repro.serve import MetricsServer

    endpoint = MetricsServer(port=args.metrics_port, **source)
    print(f"metrics on http://127.0.0.1:{endpoint.start()}/metrics")
    return endpoint


def _print_shutdown(guard, plan) -> None:
    if guard.triggered:
        print("drained after shutdown signal")
    if plan is not None:
        print(f"fault plan: {plan.summary()}")


def _drive(backend, work, guard) -> _Tally:
    """Submit ``work`` to ``backend`` (a ``LocalizationService`` or a
    ``ServeFleet``) from one thread per client and tracking session,
    each waiting for a reply before its next request."""
    tally = _Tally()

    def run(pairs):
        for request, truth in pairs:
            if guard.triggered:
                return
            reply = backend.submit(request).result()
            if not reply.ok:
                tally.add(reply.code)
            elif truth is None:
                tally.add()
            else:
                tally.add(error=reply.result.errors_to(truth).mean())

    threads = [
        threading.Thread(target=run, args=(pairs,), name=name)
        for name, pairs, _ in work.streams()
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    tally.elapsed = time.perf_counter() - start
    return tally


def cmd_serve(args) -> int:
    from repro.faults import injected

    gen = as_generator(args.seed)
    net = _network_from(args)
    try:
        fmap, sniffers = _sniffers_from(args, net, gen, args.map)
    except ConfigurationError as exc:
        return _refuse(f"cannot use map {args.map}", exc)
    try:
        service = _service_from(args, net, sniffers, fmap)
    except ConfigurationError as exc:
        return _refuse("cannot build service", exc)
    try:
        plan = _load_fault_plan(args)
    except ConfigurationError as exc:
        return _refuse(f"cannot load fault plan {args.fault_plan}", exc)
    work = _Workload(args, net, sniffers, gen, args.deadline_ms)
    try:
        for session_id, seed, _ in work.sessions:
            service.open_session(session_id, work.users, rng=seed)
    except ConfigurationError as exc:
        return _refuse("cannot open tracking session", exc)

    endpoint = _metrics_endpoint(args, metrics=service.metrics)
    _print_header("", args, work, net, sniffers, service.fingerprint_map)
    with injected(plan), _ShutdownGuard() as guard:
        service.start()
        tally = _drive(service, work, guard)
        summary = service.stop(checkpoint_dir=args.checkpoint_dir)
    if endpoint is not None:
        endpoint.stop()
    _print_shutdown(guard, plan)
    tally.print()
    for session_id, path in sorted(summary["checkpoints"].items()):
        print(f"checkpointed {session_id} -> {path}")
    _emit_metrics(args.metrics_out, service.metrics.to_json())
    return 0


def cmd_fleet(args) -> int:
    import json

    from repro.faults import injected
    from repro.fleet import ServeFleet
    from repro.serve.metrics import _nan_safe_deep

    gen = as_generator(args.seed)
    net = _network_from(args)
    try:
        fmap, sniffers = _sniffers_from(args, net, gen, args.map)
    except ConfigurationError as exc:
        return _refuse(f"cannot use map {args.map}", exc)
    try:
        fleet = ServeFleet(
            net.field,
            net.positions[sniffers],
            workers=args.fleet_workers,
            checkpoint_dir=args.checkpoint_dir,
            **_backend_args(args, fmap),
        )
    except ConfigurationError as exc:
        return _refuse("cannot build fleet", exc)
    try:
        plan = _load_fault_plan(args)
    except ConfigurationError as exc:
        return _refuse(f"cannot load fault plan {args.fault_plan}", exc)
    work = _Workload(args, net, sniffers, gen)

    _print_header(
        f"fleet of {args.fleet_workers} workers ", args, work, net, sniffers,
        fleet.fingerprint_map,
    )
    # Arm only across start(): forked workers inherit the armed plan,
    # so worker-side sites (fleet.worker.exit) fire in the children.
    # Disarm before driving traffic — replacements forked at failover
    # must start clean, or each one re-fires the fault and dies again
    # until the redelivery limit gives up.
    with injected(plan):
        fleet.start()
    try:
        try:
            for session_id, seed, _ in work.sessions:
                fleet.open_session(session_id, work.users, seed=seed)
        except ConfigurationError as exc:
            return _refuse("cannot open tracking session", exc)
        with _ShutdownGuard() as guard:
            endpoint = _metrics_endpoint(args, fleet=fleet)
            tally = _drive(fleet, work, guard)
            snapshot = fleet.fleet_snapshot()
            if endpoint is not None:
                endpoint.stop()
    finally:
        fleet.stop()
    _print_shutdown(guard, plan)
    router = snapshot["router"]
    tally.print(
        f"; {router['worker_deaths']} worker deaths, "
        f"{router['redeliveries']} redeliveries"
    )
    _emit_metrics(
        args.metrics_out,
        json.dumps(_nan_safe_deep(snapshot), indent=2, sort_keys=True),
    )
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


def _drive_gateway(host, port, work, guard) -> int:
    """Send ``work`` through the gateway at ``host:port`` over real
    sockets, one connection per client and tracking session. A
    connection that fails, refused ones included, counts as dead.
    Returns how many connections got through."""
    import asyncio

    from repro.errors import GatewayError
    from repro.gateway import GatewayClient
    from repro.serve import TrackStepRequest

    tally = _Tally()
    dead = connected = 0

    async def send(client, request):
        if isinstance(request, TrackStepRequest):
            return await client.track_step(
                request.session_id, request.observation,
                deadline_s=request.deadline_s,
            )
        return await client.localize(
            request.observation,
            user_count=request.user_count,
            candidate_count=request.candidate_count,
            restarts=request.restarts,
            seed=request.seed,
            deadline_s=request.deadline_s,
        )

    async def run(name, pairs, session_seed=None):
        nonlocal dead, connected
        client = GatewayClient(host, port, name)
        try:
            await client.connect()
            connected += 1
            if session_seed is not None:
                opened = await client.open_session(
                    name, work.users, seed=session_seed
                )
                if not opened.get("session_id"):
                    tally.add(opened.get("code", "unknown"))
                    return
            for request, _ in pairs:
                if guard.triggered:
                    break
                reply = await send(client, request)
                tally.add(None if reply.get("ok") else
                          reply.get("code", "unknown"))
        except (GatewayError, asyncio.TimeoutError, OSError):
            dead += 1
        finally:
            await client.close()

    async def main():
        start = time.perf_counter()
        await asyncio.gather(*(run(*stream) for stream in work.streams()))
        tally.elapsed = time.perf_counter() - start
        try:
            async with GatewayClient(host, port, "probe") as probe:
                return (await probe.trace_dump()).get("stages", {})
        except (GatewayError, OSError):
            return {}

    stages = asyncio.run(main())
    tally.print(f", {dead} dead connections")
    _print_stage_table(stages)
    return connected


def cmd_gateway(args) -> int:
    from repro.faults import injected
    from repro.gateway import GatewayServer

    remote = None
    if args.connect:
        host, _, port_text = args.connect.rpartition(":")
        try:
            remote = (host or "127.0.0.1", int(port_text))
        except ValueError:
            print(
                f"--connect needs HOST:PORT, got {args.connect!r}",
                file=sys.stderr,
            )
            return 1
    gen = as_generator(args.seed)
    net = _network_from(args)
    _, sniffers = _sniffers_from(args, net, gen)
    # Both modes draw the load: --connect drives a remote gateway built
    # from the same network args, so the observations match the remote
    # deployment when the seeds match.
    work = _Workload(args, net, sniffers, gen, args.deadline_ms)
    if remote is not None:
        with _ShutdownGuard() as guard:
            connected = _drive_gateway(*remote, work, guard)
        return 0 if connected else 1

    try:
        service = _service_from(args, net, sniffers, None)
    except ConfigurationError as exc:
        return _refuse("cannot build service", exc)
    try:
        plan = _load_fault_plan(args)
    except ConfigurationError as exc:
        return _refuse(f"cannot load fault plan {args.fault_plan}", exc)
    service.start()
    gateway = GatewayServer(service, host="127.0.0.1", port=args.port)
    guard = _ShutdownGuard()
    endpoint = None
    try:
        port = gateway.start()
        _print_header(
            f"gateway on 127.0.0.1:{port} ", args, work, net, sniffers,
            service.fingerprint_map,
        )
        endpoint = _metrics_endpoint(args, metrics=service.metrics)
        with injected(plan), guard:
            if work.clients or work.sessions:
                _drive_gateway("127.0.0.1", port, work, guard)
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
    _print_shutdown(guard, plan)
    snap = gateway.snapshot()
    print(
        f"gateway: {snap['connections_opened']} connections, "
        f"{snap['frames_received']} frames in / {snap['frames_sent']} out, "
        f"{snap['replies_dropped']} replies dropped, "
        f"{snap['protocol_errors']} protocol errors"
    )
    _emit_metrics(args.metrics_out, service.metrics.to_json())
    return 0


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
