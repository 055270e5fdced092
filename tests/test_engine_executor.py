"""Batched theta solvers and the objective's workspace reuse.

Covers the batched theta solvers' equivalence to scipy's NNLS and to
each other, row independence (a composition solved alone equals its
row of a batch bit for bit), and the objective's scratch-buffer reuse.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.fingerprint.objective import (
    CandidatePool,
    EvalWorkspace,
    FluxObjective,
    _pinv_solve,
    solve_thetas_batched,
)
from repro.fluxmodel.discrete import DiscreteFluxModel
from repro.geometry import RectangularField
from repro.network import build_network, sample_sniffers_percentage
from repro.traffic import MeasurementModel, simulate_flux

# The solvers compare against scipy within the envelope the ridge
# regularization (1e-10 on the normal-equation diagonal) can introduce
# on ill-scaled systems.
_RIDGE_TOL = 1e-4


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


@pytest.mark.parametrize("F", [0, 1, 3])
def test_solve_thetas_candidates_matches_batched(F):
    gen = np.random.default_rng(F)
    N, n = 120, 14
    cand = gen.uniform(0.0, 3.0, (N, n))
    fixed = gen.uniform(0.0, 3.0, (F, n)) if F else None
    target = gen.uniform(0.0, 5.0, n)
    ranking = CandidatePool(cand, target).solve(fixed)
    th_fac = ranking.thetas
    obj_fac = ranking.exact_objectives(np.arange(N))
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


# ----------------------------------------------------------------------
# Objective workspace.
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


def test_candidate_solve_reuses_workspace_buffers(deployment):
    net, sniffers = deployment
    objective = _objective(net, sniffers, 2, weighting="relative")
    gen = np.random.default_rng(0)
    cand, fixed = (
        objective._weight_kernels(objective.model.geometry_kernels(
            net.field.sample_uniform(count, gen)
        ))
        for count in (50, 1)
    )
    pool = CandidatePool(cand, objective._weighted_target)
    ws = EvalWorkspace()
    first = pool.solve(fixed, workspace=ws)
    normal = ws._buffers["normal"]
    second = pool.solve(fixed, workspace=ws)
    assert ws._buffers["normal"] is normal  # reused, not reallocated
    assert sorted(ws._buffers) == ["normal", "rhs"]  # no residual buffer
    third = pool.solve(fixed)  # no workspace
    rows = np.arange(50)
    for other in (second, third):
        assert np.array_equal(first.thetas, other.thetas)
        assert np.array_equal(first.keys, other.keys)
        assert np.array_equal(
            first.exact_objectives(rows), other.exact_objectives(rows)
        )
