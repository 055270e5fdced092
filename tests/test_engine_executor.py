"""Engine executor, batched solvers, and engine-aware call sites.

Covers the executor primitives (ordered ``map``, disjoint-span
``run_chunks``, lifecycle), the batched theta solvers' equivalence to
scipy's NNLS and to each other, and the bitwise parallel == serial
guarantee at every integration point (coordinate descent, fingerprint
map builder, SMC tracker).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.engine import Engine, EngineConfig
from repro.engine.executor import resolve_engine
from repro.errors import ConfigurationError
from repro.fingerprint.nls import coordinate_descent
from repro.fingerprint.objective import (
    EvalWorkspace,
    FluxObjective,
    _pinv_solve,
    solve_thetas_batched,
    solve_thetas_candidates,
)
from repro.fluxmodel.discrete import DiscreteFluxModel
from repro.fpmap import build_fingerprint_map
from repro.geometry import RectangularField
from repro.network import build_network, sample_sniffers_percentage
from repro.smc import SequentialMonteCarloTracker, TrackerConfig
from repro.stream import SyntheticLiveSource
from repro.traffic import MeasurementModel, simulate_flux

# The solvers compare against scipy within the envelope the ridge
# regularization (1e-10 on the normal-equation diagonal) can introduce
# on ill-scaled systems.
_RIDGE_TOL = 1e-4


# ----------------------------------------------------------------------
# Config + executor primitives.
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "kwargs",
    [
        {"workers": -1},
        {"chunk_size": 0},
        {"dtype": "float16"},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ConfigurationError):
        EngineConfig(**kwargs)


def test_config_np_dtype():
    assert EngineConfig(dtype="float32").np_dtype == np.float32
    assert EngineConfig().np_dtype == np.float64


def test_engine_rejects_config_plus_overrides():
    with pytest.raises(TypeError):
        Engine(EngineConfig(), workers=2)


def test_map_preserves_order_across_workers():
    with Engine(workers=4) as eng:
        assert eng.parallel
        got = eng.map(lambda x: x * x, range(50))
    assert got == [x * x for x in range(50)]


def test_map_serial_when_workers_zero():
    eng = Engine()
    assert not eng.parallel
    seen_threads = set()

    def fn(x):
        seen_threads.add(threading.current_thread().name)
        return x + 1

    assert eng.map(fn, [1, 2, 3]) == [2, 3, 4]
    assert seen_threads == {threading.main_thread().name}


def test_run_chunks_spans_cover_disjointly():
    with Engine(workers=3, chunk_size=7) as eng:
        out = np.zeros(50)

        def task(start, stop):
            out[start:stop] = np.arange(start, stop)

        spans = eng.run_chunks(50, task)
    assert spans[0] == (0, 7) and spans[-1] == (49, 50)
    assert sum(stop - start for start, stop in spans) == 50
    assert np.array_equal(out, np.arange(50.0))


def test_run_chunks_chunk_size_override_and_validation():
    eng = Engine(chunk_size=4096)
    spans = eng.run_chunks(10, lambda a, b: None, chunk_size=4)
    assert spans == [(0, 4), (4, 8), (8, 10)]
    with pytest.raises(ValueError):
        eng.run_chunks(10, lambda a, b: None, chunk_size=0)


def test_closed_engine_degrades_to_inline():
    eng = Engine(workers=4)
    eng.close()
    assert not eng.parallel
    assert eng.map(lambda x: -x, [1, 2]) == [-1, -2]


def test_resolve_engine_serial_default():
    eng = resolve_engine(None)
    assert eng.workers == 0 and not eng.parallel
    assert resolve_engine(eng) is eng


# ----------------------------------------------------------------------
# Batched solvers.
# ----------------------------------------------------------------------
def _random_problems(B, K, n, seed=0):
    gen = np.random.default_rng(seed)
    stacks = gen.uniform(0.0, 3.0, (B, K, n))
    # Correlated rows force negative unconstrained thetas, exercising
    # the NNLS path rather than the plain normal-equation fast path.
    stacks[B // 2 :, -1] = stacks[B // 2 :, 0] * 1.1 + gen.uniform(
        0, 0.05, (B - B // 2, n)
    )
    target = gen.uniform(0.0, 5.0, n)
    return stacks, target


@pytest.mark.parametrize("K", [1, 2, 3, 5])
def test_solve_thetas_batched_matches_scipy(K):
    from scipy.optimize import nnls

    stacks, target = _random_problems(60, K, 12, seed=K)
    thetas, objectives = solve_thetas_batched(stacks, target)
    assert np.all(thetas >= 0.0)
    for i in range(stacks.shape[0]):
        want_th, want_obj = nnls(stacks[i].T, target)
        assert objectives[i] <= want_obj + _RIDGE_TOL
        assert np.allclose(thetas[i], want_th, atol=1e-3 * (1 + want_th.max()))


def test_solve_thetas_batched_modes_agree():
    stacks, target = _random_problems(80, 3, 10, seed=9)
    th_auto, obj_auto = solve_thetas_batched(stacks, target, nnls_mode="auto")
    th_scipy, obj_scipy = solve_thetas_batched(stacks, target, nnls_mode="scipy")
    assert np.allclose(obj_auto, obj_scipy, atol=_RIDGE_TOL)
    assert np.allclose(th_auto, th_scipy, atol=1e-3)
    with pytest.raises(ConfigurationError):
        solve_thetas_batched(stacks, target, nnls_mode="newton")


def test_solve_thetas_batched_parallel_bitwise_equal_serial():
    # Above _SOLVE_PARALLEL_MIN_ROWS so the engine path actually splits.
    stacks, target = _random_problems(2500, 2, 8, seed=3)
    want_th, want_obj = solve_thetas_batched(stacks, target)
    with Engine(workers=4) as eng:
        got_th, got_obj = solve_thetas_batched(stacks, target, engine=eng)
    assert np.array_equal(want_th, got_th)
    assert np.array_equal(want_obj, got_obj)


@pytest.mark.parametrize("F", [0, 1, 3])
def test_solve_thetas_candidates_matches_batched(F):
    gen = np.random.default_rng(F)
    N, n = 120, 14
    cand = gen.uniform(0.0, 3.0, (N, n))
    fixed = gen.uniform(0.0, 3.0, (F, n)) if F else None
    target = gen.uniform(0.0, 5.0, n)
    th_fac, obj_fac = solve_thetas_candidates(cand, fixed, target)
    if F:
        stacks = np.concatenate(
            [cand[:, None, :], np.broadcast_to(fixed, (N, F, n))], axis=1
        )
    else:
        stacks = cand[:, None, :]
    th_ref, obj_ref = solve_thetas_batched(stacks, target)
    assert th_fac.shape == (N, 1 + F)
    assert np.allclose(obj_fac, obj_ref, rtol=1e-9, atol=1e-9)
    assert np.allclose(th_fac, th_ref, rtol=1e-7, atol=1e-7)


def test_solve_thetas_candidates_parallel_bitwise_equal_serial():
    gen = np.random.default_rng(11)
    N, n = 3000, 10
    cand = gen.uniform(0.0, 3.0, (N, n))
    fixed = gen.uniform(0.0, 3.0, (2, n))
    target = gen.uniform(0.0, 5.0, n)
    want_th, want_obj = solve_thetas_candidates(cand, fixed, target)
    with Engine(workers=4) as eng:
        got_th, got_obj = solve_thetas_candidates(cand, fixed, target, engine=eng)
    assert np.array_equal(want_th, got_th)
    assert np.array_equal(want_obj, got_obj)


def test_pinv_solve_batched_matches_per_row():
    gen = np.random.default_rng(5)
    A = gen.normal(size=(20, 3, 3))
    A[7] = 0.0  # singular row exercises the pseudo-inverse
    b = gen.normal(size=(20, 3))
    got = _pinv_solve(A, b)
    for i in range(20):
        want = np.linalg.pinv(A[i]) @ b[i]
        assert np.allclose(got[i], want, atol=1e-10)


def test_singular_row_leaves_its_batch_mates_bitwise_alone():
    """A repeated user makes one normal matrix exactly singular (the
    1e-10 ridge is below half an ulp of a ~2e7 diagonal); only that row
    may take the pseudo-inverse."""
    gen = np.random.default_rng(3)
    users = gen.uniform(100.0, 1000.0, size=(65, 60))
    stacks = np.stack([users[[i, i + 1]] for i in range(64)])
    stacks[17, 1] = stacks[17, 0]
    target = gen.uniform(100.0, 1000.0, 60)
    thetas, objectives = solve_thetas_batched(stacks, target)
    assert np.all(np.isfinite(thetas[17]))
    for i in range(64):
        solo_th, solo_obj = solve_thetas_batched(stacks[i : i + 1], target)
        assert np.array_equal(solo_th[0], thetas[i]), i
        assert solo_obj[0] == objectives[i], i
    # One singular row in one engine chunk: the other chunk's rows
    # must not notice it.
    clean = np.delete(stacks, 17, axis=0)
    big = np.concatenate([stacks] + [clean] * 40)
    serial = solve_thetas_batched(big, target)
    with Engine(workers=2) as eng:
        parallel = solve_thetas_batched(big, target, engine=eng)
    assert np.array_equal(serial[0], parallel[0])
    assert np.array_equal(serial[1], parallel[1])


# ----------------------------------------------------------------------
# Integration points: bitwise parallel == serial.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def deployment():
    net = build_network(
        field=RectangularField(12, 12), node_count=144, radius=2.0, rng=77
    )
    sniffers = sample_sniffers_percentage(net, 20, rng=1)
    return net, sniffers


def _objective(net, sniffers, users, seed=42, weighting="absolute"):
    gen = np.random.default_rng(seed)
    truth = net.field.sample_uniform(users, gen)
    flux = simulate_flux(net, list(truth), [2.0] * users, rng=gen)
    obs = MeasurementModel(net, sniffers, smooth=True, rng=gen).observe(flux)
    model = DiscreteFluxModel(net.field, net.positions[sniffers])
    return FluxObjective.from_observation(model, obs, weighting=weighting)


def test_evaluate_batch_single_user_uses_workspace_buffer(deployment):
    net, sniffers = deployment
    objective = _objective(net, sniffers, 1, weighting="relative")
    gen = np.random.default_rng(0)
    cand = objective.model.geometry_kernels(net.field.sample_uniform(50, gen))
    ws = EvalWorkspace()
    th1, obj1 = objective.evaluate_batch(cand, workspace=ws)
    weighted_buf = ws._buffers.get("cand")
    assert weighted_buf is not None  # weighting routed through the pool
    th2, obj2 = objective.evaluate_batch(cand, workspace=ws)
    assert ws._buffers["cand"] is weighted_buf  # reused, not reallocated
    assert np.array_equal(th1, th2) and np.array_equal(obj1, obj2)
    th3, obj3 = objective.evaluate_batch(cand)  # no workspace
    assert np.array_equal(th1, th3) and np.array_equal(obj1, obj3)


def test_coordinate_descent_parallel_bitwise_equal_serial(deployment):
    net, sniffers = deployment
    objective = _objective(net, sniffers, 3)
    gen = np.random.default_rng(8)
    pools = [net.field.sample_uniform(150, gen) for _ in range(3)]
    serial = coordinate_descent(
        objective, pools, rng=np.random.default_rng(1), sweeps=2
    )
    with Engine(workers=4) as eng:
        parallel = coordinate_descent(
            objective, pools, rng=np.random.default_rng(1), sweeps=2, engine=eng
        )
    assert np.array_equal(serial.best_indices, parallel.best_indices)
    assert np.array_equal(serial.best_thetas, parallel.best_thetas)
    assert serial.best_objective == parallel.best_objective
    for a, b in zip(serial.per_user_objectives, parallel.per_user_objectives):
        assert np.array_equal(a, b)


def test_fingerprint_map_builder_bitwise_equal_with_engine(deployment):
    net, sniffers = deployment
    positions = net.positions[sniffers]
    serial = build_fingerprint_map(net.field, positions, resolution=1.0)
    with Engine(workers=4) as eng:
        parallel = build_fingerprint_map(
            net.field, positions, resolution=1.0, block_size=16, engine=eng
        )
    assert np.array_equal(serial.signatures, parallel.signatures)
    assert np.array_equal(serial.cell_positions, parallel.cell_positions)


def test_smc_tracker_accepts_engine_bitwise(deployment):
    net, sniffers = deployment
    cfg = TrackerConfig(prediction_count=60, keep_count=5)
    observations = list(
        SyntheticLiveSource(net, sniffers, user_count=1, rounds=2, rng=3)
    )

    def run(engine):
        tracker = SequentialMonteCarloTracker(
            net.field, net.positions[sniffers], user_count=1, config=cfg,
            rng=5, engine=engine,
        )
        return [tracker.step(obs) for obs in observations]

    serial = run(None)
    with Engine(workers=4) as eng:
        parallel = run(eng)
    for a, b in zip(serial, parallel):
        assert np.array_equal(a.estimates, b.estimates)
