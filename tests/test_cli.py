"""CLI tests (parser wiring + command smoke runs on small networks)."""

import numpy as np
import pytest

from repro.cli import build_parser, main


#: The commands that evaluate kernels.
_KERNEL_COMMANDS = [
    ["localize"], ["build-map", "--output", "map.npz"], ["track"],
    ["track-stream"], ["serve"], ["fleet"], ["gateway"],
]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.nodes == 900
        assert args.users == 2
        assert args.deployment == "perturbed_grid"

    def test_global_seed(self):
        args = build_parser().parse_args(["--seed", "7", "simulate"])
        assert args.seed == 7

    def test_experiment_figures(self):
        args = build_parser().parse_args(["experiment", "6a"])
        assert args.figure == "6a"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "99"])

    def test_track_crossing_flag(self):
        args = build_parser().parse_args(["track", "--crossing"])
        assert args.crossing

    def test_track_stream_defaults(self):
        args = build_parser().parse_args(["track-stream"])
        assert args.input is None
        assert args.checkpoint is None
        assert args.checkpoint_every == 0

    @pytest.mark.parametrize("command", _KERNEL_COMMANDS)
    def test_dtype_refused_where_no_reply_depends_on_it(self, command):
        # Kernels and solves run in float64 only.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*command, "--dtype", "float32"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", [["--workers", "2"], ["--chunk-size", "64"]],
                             ids=lambda flag: flag[0])
    @pytest.mark.parametrize("command", _KERNEL_COMMANDS,
                             ids=lambda command: command[0])
    def test_thread_pool_flags_refused(self, command, flag):
        # Kernels and solves run on the calling thread; a second core is
        # the fleet's worker processes (repro fleet --fleet-workers).
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*command, *flag])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["serve", "fleet", "gateway"])
    def test_linger_flag_refused(self, command):
        # A drain takes what is queued; --max-batch is the only knob.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--max-wait-ms", "2"])
        assert exc.value.code == 2


class TestExitCodes:
    def test_version_flag(self, capsys):
        import repro

        assert main(["--version"]) == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["definitely-not-a-command"]) == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_missing_subcommand_exits_2(self):
        assert main([]) == 2

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "track-stream" in capsys.readouterr().out


_SMALL = ["--nodes", "225", "--field", "15", "--radius", "2.0"]


class TestCommands:
    def test_simulate_stdout(self, capsys):
        rc = main(["--seed", "1", "simulate", *_SMALL, "--users", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "network: 225 nodes" in out
        assert "user 0" in out

    def test_simulate_csv(self, tmp_path, capsys):
        out_file = tmp_path / "flux.csv"
        rc = main(
            ["--seed", "1", "simulate", *_SMALL, "--output", str(out_file)]
        )
        assert rc == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "node,x,y,flux"
        assert len(lines) == 226

    def test_localize(self, capsys):
        rc = main(
            [
                "--seed", "2", "localize", *_SMALL,
                "--users", "1", "--percentage", "20",
                "--candidates", "500", "--restarts", "1",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "mean error" in out

    def test_track(self, capsys):
        rc = main(
            [
                "--seed", "3", "track", *_SMALL,
                "--users", "1", "--rounds", "4",
                "--percentage", "20", "--predictions", "150",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "final mean error" in out

    def test_traces_summary(self, capsys):
        rc = main(
            ["--seed", "4", "traces", "--users", "3", "--aps", "60",
             "--landmarks", "15"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "syslog records" in out

    def test_traces_file(self, tmp_path):
        out_file = tmp_path / "trace.log"
        rc = main(
            ["--seed", "4", "traces", "--users", "2", "--aps", "40",
             "--landmarks", "10", "--output", str(out_file)]
        )
        assert rc == 0
        content = out_file.read_text().splitlines()
        assert all(len(line.split("\t")) == 4 for line in content[:20])

    def test_experiment_fig9(self, capsys):
        rc = main(["--seed", "5", "experiment", "9", "--scale", "20"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Fig 9" in out

    @pytest.mark.slow
    def test_defend(self, capsys):
        rc = main(
            ["--seed", "6", "defend", *_SMALL, "--users", "1",
             "--repetitions", "1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "padding" in out and "dummy_sinks" in out


class TestTrackStream:
    _STREAM = [
        "track-stream", *_SMALL,
        "--users", "1", "--percentage", "20", "--predictions", "120",
    ]

    def test_synthetic_stream(self, capsys):
        rc = main(["--seed", "11", *self._STREAM, "--rounds", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "final estimates" in out
        assert '"windows_processed": 4' in out

    def test_replay_checkpoint_kill_resume(self, tmp_path, capsys):
        """Replay a saved log end-to-end with a mid-run kill/resume and a
        malformed (out-of-order) observation injected into the log."""
        import numpy as np

        from repro.network import build_network, sample_sniffers_percentage
        from repro.geometry import RectangularField
        from repro.smc import SequentialMonteCarloTracker, TrackerConfig
        from repro.stream import SyntheticLiveSource
        from repro.util.persistence import save_observations

        net = build_network(
            field=RectangularField(15, 15), node_count=225, radius=2.0,
            rng=np.random.default_rng(11),
        )
        sniffers = sample_sniffers_percentage(net, 20, rng=1)
        observations = list(
            SyntheticLiveSource(net, sniffers, user_count=1, rounds=6, rng=2)
        )
        # inject an out-of-order window: the stream layer must skip it
        polluted = list(observations)
        polluted.insert(3, observations[0])
        log = save_observations(polluted, tmp_path / "log.npz")
        net_path = tmp_path / "net.npz"
        from repro.util.persistence import save_network

        save_network(net, net_path)
        ckpt = tmp_path / "run.ckpt.npz"

        base = [
            "track-stream", "--network", str(net_path),
            "--input", str(log), "--users", "1", "--predictions", "120",
            "--checkpoint", str(ckpt),
        ]
        # killed after 3 windows...
        assert main(["--seed", "5", *base, "--max-windows", "3"]) == 0
        assert ckpt.exists()
        capsys.readouterr()
        # ...resumed to the end
        assert main(["--seed", "5", *base]) == 0
        out = capsys.readouterr().out
        assert "resumed" in out
        assert '"windows_processed": 6' in out
        assert '"out_of_order": 1' in out

        # and the final estimates match the equivalent batch run
        tracker = SequentialMonteCarloTracker(
            net.field, net.positions[sniffers], user_count=1,
            config=TrackerConfig(prediction_count=120, keep_count=10),
            rng=np.random.default_rng(5),
        )
        for obs in observations:
            tracker.step(obs)
        for x, y in tracker.estimates():
            assert f"({x:6.2f}, {y:6.2f})" in out

    def test_checkpoint_write_retried_without_fault_plan(
        self, tmp_path, monkeypatch, capsys
    ):
        """A transient OSError on a checkpoint write is retried in a
        plain run, not only under --fault-plan."""
        from repro.stream import checkpoint

        real_write = checkpoint._atomic_write
        calls = []

        def flaky_write(path, arrays):
            calls.append(path)
            if len(calls) == 1:
                raise OSError("transient write failure")
            return real_write(path, arrays)

        monkeypatch.setattr(checkpoint, "_atomic_write", flaky_write)
        ckpt = tmp_path / "run.ckpt.npz"
        rc = main(["--seed", "11", *self._STREAM, "--rounds", "3",
                   "--checkpoint", str(ckpt)])
        assert rc == 0
        assert len(calls) == 2
        assert checkpoint.load_checkpoint(ckpt).windows_consumed == 3

    def test_both_input_and_jsonl_rejected(self, tmp_path, capsys):
        rc = main(
            ["track-stream", "--input", "a.npz", "--jsonl", "b.jsonl"]
        )
        assert rc == 2

    def test_jsonl_stream(self, tmp_path, capsys):
        import numpy as np

        from repro.geometry import RectangularField
        from repro.network import build_network, sample_sniffers_percentage
        from repro.stream import SyntheticLiveSource, observation_to_jsonl
        from repro.util.persistence import save_network

        net = build_network(
            field=RectangularField(15, 15), node_count=225, radius=2.0,
            rng=np.random.default_rng(11),
        )
        sniffers = sample_sniffers_percentage(net, 20, rng=1)
        observations = list(
            SyntheticLiveSource(net, sniffers, user_count=1, rounds=3, rng=2)
        )
        feed = tmp_path / "feed.jsonl"
        lines = [observation_to_jsonl(o) for o in observations]
        lines.insert(1, "garbage that is not json")
        feed.write_text("\n".join(lines) + "\n")
        net_path = save_network(net, tmp_path / "net.npz")
        rc = main(
            [
                "--seed", "5", "track-stream",
                "--network", str(net_path), "--jsonl", str(feed),
                "--users", "1", "--predictions", "120",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert '"windows_processed": 3' in out

    def test_each_skip_prints_its_own_reason(self, tmp_path, capsys):
        """A reason seen before must not stand in for this window's."""
        import numpy as np

        from repro.geometry import RectangularField
        from repro.network import build_network, sample_sniffers_percentage
        from repro.stream import SyntheticLiveSource, observation_to_jsonl
        from repro.traffic.measurement import FluxObservation
        from repro.util.persistence import save_network

        net = build_network(
            field=RectangularField(15, 15), node_count=225, radius=2.0,
            rng=np.random.default_rng(11),
        )
        sniffers = sample_sniffers_percentage(net, 20, rng=1)
        t0, t1, t2 = list(
            SyntheticLiveSource(net, sniffers, user_count=1, rounds=3, rng=2)
        )
        negative = t2.values.copy()
        negative[0] = -1.0
        t2_bad = FluxObservation(
            time=t2.time, sniffers=t2.sniffers, values=negative
        )
        feed = tmp_path / "feed.jsonl"
        feed.write_text("".join(
            observation_to_jsonl(o) + "\n" for o in (t0, t1, t0, t2_bad, t0)
        ))
        net_path = save_network(net, tmp_path / "net.npz")
        rc = main(
            [
                "--seed", "5", "track-stream",
                "--network", str(net_path), "--jsonl", str(feed),
                "--users", "1", "--predictions", "120",
            ]
        )
        assert rc == 0
        skipped = [
            line.split()[0] + " " + line.split()[-1]
            for line in capsys.readouterr().out.splitlines()
            if "skipped (" in line
        ]
        assert skipped == [
            "2 (out_of_order)", "3 (bad_values)", "4 (out_of_order)"
        ]


class TestAblationExperiments:
    def test_ablation_id_parses(self):
        args = build_parser().parse_args(["experiment", "ablation-routing"])
        assert args.figure == "ablation-routing"

    @pytest.mark.slow
    def test_ablation_runs(self, capsys):
        rc = main(
            ["--seed", "5", "experiment", "ablation-smoothing", "--scale", "6"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "smoothing=on" in out


class TestCrossingTrack:
    @pytest.mark.slow
    def test_track_crossing(self, capsys):
        rc = main(
            [
                "--seed", "9", "track", *_SMALL, "--crossing",
                "--rounds", "5", "--percentage", "20",
                "--predictions", "150",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "final mean error" in out


class TestCliPlanConsistency:
    def test_cli_figure_choices_cover_experiment_plan(self):
        """Every figure in the reporting plan is reachable from the CLI."""
        from repro.experiments.config import PaperDefaults
        from repro.experiments.reporting import build_experiment_plan

        parser = build_parser()
        sub = next(
            a for a in parser._subparsers._group_actions
        ).choices["experiment"]
        figure_action = next(
            a for a in sub._actions if a.dest == "figure"
        )
        plan_ids = {
            name.replace("Fig ", "").lower()
            for name, _ in build_experiment_plan(
                PaperDefaults().scaled(10), 0
            )
        }
        assert plan_ids <= set(figure_action.choices)


class TestServe:
    def test_serve_defaults_parse(self):
        args = build_parser().parse_args(["serve"])
        assert args.clients == 8
        assert args.max_batch == 32
        assert args.queue_capacity == 512
        assert args.deadline_ms is None
        assert args.track_sessions == 0

    def test_serve_load_run(self, capsys):
        rc = main(
            [
                "--seed", "3", "serve", *_SMALL, "--clients", "3",
                "--requests", "3", "--candidates", "32",
                "--percentage", "20", "--max-batch", "8",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "serving 3 localize clients x 3 requests" in out
        assert "9 ok, 0 errors" in out
        assert '"replies_ok": 9' in out

    def test_serve_with_map_tracking_and_checkpoints(
        self, tmp_path, capsys
    ):
        rc = main(
            [
                "--seed", "3", "serve", *_SMALL, "--clients", "2",
                "--requests", "3", "--candidates", "32",
                "--map-resolution", "2.0", "--track-sessions", "1",
                "--checkpoint-dir", str(tmp_path),
                "--metrics-out", str(tmp_path / "metrics.json"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "(map-seeded)" in out
        assert "checkpointed track-0" in out
        assert (tmp_path / "track-0.ckpt.npz").exists()
        import json as _json

        payload = _json.loads((tmp_path / "metrics.json").read_text())
        assert payload["replies_ok"] == 9  # 2x3 localize + 3 track steps

    def test_serve_sessions_follow_the_seed(self, tmp_path, capsys):
        """Each tracking session steps on its own seed, so runs at one
        --seed checkpoint identical sessions whatever the thread
        interleaving."""
        import sys

        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # vary the interleaving run to run
        try:
            for run in range(3):
                directory = tmp_path / f"run-{run}"
                rc = main(
                    [
                        "--seed", "3", "serve", *_SMALL, "--clients", "2",
                        "--requests", "6", "--candidates", "24",
                        "--track-sessions", "3",
                        "--checkpoint-dir", str(directory),
                    ]
                )
                assert rc == 0
                runs.append({
                    path.name: dict(np.load(path))
                    for path in sorted(directory.glob("*.ckpt.npz"))
                })
        finally:
            sys.setswitchinterval(interval)
        first = runs[0]
        assert sorted(first) == [f"track-{t}.ckpt.npz" for t in range(3)]
        for other in runs[1:]:
            assert sorted(other) == sorted(first)
            for name, arrays in first.items():
                assert sorted(other[name]) == sorted(arrays)
                for key, value in arrays.items():
                    np.testing.assert_array_equal(
                        other[name][key], value, err_msg=f"{name}:{key}"
                    )

    def test_serve_refuses_an_oversized_session(self, capsys):
        # 132 users x 1000 predictions passes MAX_CANDIDATE_ROWS.
        rc = main(["serve", *_SMALL, "--clients", "0", "--users", "132",
                   "--track-sessions", "1"])
        assert rc == 1
        assert "cannot open tracking session" in capsys.readouterr().err

    def test_serve_rejects_bad_map(self, tmp_path, capsys):
        bogus = tmp_path / "nope.npz"
        np.savez(bogus, junk=np.zeros(3))
        rc = main(["serve", *_SMALL, "--map", str(bogus)])
        assert rc == 1
        assert "cannot use map" in capsys.readouterr().err


class TestFleet:
    def test_fleet_load_run(self, capsys):
        rc = main(
            [
                "--seed", "3", "fleet", "--nodes", "100", "--field", "10",
                "--radius", "2.0", "--percentage", "20",
                "--fleet-workers", "2", "--clients", "4", "--requests", "6",
                "--candidates", "24", "--map-resolution", "2.0",
                "--track-sessions", "2",
            ]
        )
        assert rc == 0
        assert "36 ok, 0 errors" in capsys.readouterr().out

    def test_fleet_refuses_an_oversized_session(self, capsys):
        # 132 users x 1000 predictions passes MAX_CANDIDATE_ROWS; the
        # router refuses it before any worker sees it.
        rc = main([
            "--seed", "1", "fleet", "--nodes", "100", "--field", "10",
            "--radius", "2.0", "--users", "132", "--track-sessions", "1",
            "--clients", "1", "--requests", "1",
        ])
        assert rc == 1
        assert "cannot open tracking session" in capsys.readouterr().err


class TestGateway:
    _LOAD = [
        *_SMALL, "--percentage", "20", "--clients", "2", "--requests", "3",
        "--candidates", "24", "--track-sessions", "1",
    ]

    def test_gateway_load_run(self, tmp_path, capsys):
        import json as _json

        metrics = tmp_path / "gateway-metrics.json"
        rc = main(
            [
                "--seed", "3", "gateway", *self._LOAD,
                "--map-resolution", "2.0", "--metrics-out", str(metrics),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        # 2 clients x 3 localizes + 1 session x 3 track steps.
        assert "9 ok, 0 errors, 0 dead connections" in out
        snap = _json.loads(metrics.read_text())
        assert snap["replies_ok"] == 9
        assert snap["replies_error_total"] == 0
        assert {"gateway_in", "gateway_out"} <= set(snap["stages"])

    def test_gateway_connect_drives_a_serving_gateway(self, capsys):
        from repro.gateway import GatewayServer
        from repro.geometry import RectangularField
        from repro.network import build_network, sample_sniffers_percentage
        from repro.serve import LocalizationService

        # The deployment `repro --seed 3 gateway` builds from _SMALL.
        net = build_network(
            field=RectangularField(15, 15), node_count=225, radius=2.0,
            rng=np.random.default_rng(3),
        )
        sniffers = sample_sniffers_percentage(
            net, 20, rng=np.random.default_rng(3)
        )
        with LocalizationService(
            net.field, net.positions[sniffers]
        ) as service, GatewayServer(service) as gateway:
            rc = main(
                [
                    "--seed", "3", "gateway", *self._LOAD,
                    "--connect", f"127.0.0.1:{gateway.port}",
                ]
            )
        assert rc == 0
        assert "9 ok, 0 errors, 0 dead connections" in capsys.readouterr().out

    def test_gateway_connect_to_closed_port_exits_1(self, capsys):
        import socket

        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        rc = main(
            ["--seed", "3", "gateway", *self._LOAD,
             "--connect", f"127.0.0.1:{port}"]
        )
        assert rc == 1
        # The summary still prints: every connection was refused.
        assert "0 ok, 0 errors, 3 dead connections" in capsys.readouterr().out

    def test_gateway_connect_needs_host_and_port(self, capsys):
        rc = main(["gateway", *_SMALL, "--connect", "nonsense"])
        assert rc == 1
        assert "--connect needs HOST:PORT" in capsys.readouterr().err
