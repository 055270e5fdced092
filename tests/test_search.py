"""The plan → fuse → solve search pipeline of repro.fingerprint.search.

The stages are exercised directly on requests: the fused K=1 solve is
the factored sweep solver row for row, and stitched kernel blocks keep
the layout the descent was validated on. ``NLSLocalizer.localize`` is
the same pipeline on a batch of one, keyed by its seed rule.
"""

import numpy as np
import pytest

from repro.fingerprint import NLSLocalizer
from repro.fingerprint.search import (
    fuse_pool_kernels,
    plan_localize,
    solve_single_user_fused,
)
from repro.serve import LocalizeRequest
from repro.traffic.measurement import FluxObservation

from .test_serve_scheduler import _mixed_requests, _observations
from .test_serve_scheduler import scenario  # noqa: F401 - the shared fixture


def _payload(result):
    return [
        (fit.positions.tobytes(), fit.thetas.tobytes(), float(fit.objective))
        for fit in result.fits
    ]


class TestFusedSingleUserSolve:
    """The K=1 group solve is the factored sweep solver, row for row."""

    def test_matches_factored_solver_bitwise(self, scenario):
        from repro.fingerprint.objective import CandidatePool

        net, sniffers, fmap = scenario
        requests = [
            r for r in _mixed_requests(net, sniffers) if r.user_count == 1
        ]
        dropout = requests[-1]
        for i, (count, restarts) in enumerate([(16, 1), (40, 2)]):
            # A pure-seed pool (Fortran-ordered under dropout) and a
            # two-restart plan.
            requests.append(LocalizeRequest(
                request_id=f"extra-{i}", client_id="c5",
                observation=dropout.observation, candidate_count=count,
                restarts=restarts, seed=600 + i,
            ))
        localizer = NLSLocalizer(net.field, net.positions[sniffers])
        plans = [plan_localize(localizer, fmap, r) for r in requests]
        fuse_pool_kernels(localizer.model, plans)
        groups = {}
        for plan in plans:
            arity = plan.objective._weighted_target.shape[0]
            groups.setdefault(arity, []).append(plan)
        assert len(groups) == 2
        for group in groups.values():
            for plan, result in zip(group, solve_single_user_fused(group)):
                # The solver's row-contiguous layout (a Fortran-ordered
                # pure-seed block would sum in another order).
                kernels = np.ascontiguousarray(np.concatenate(
                    [row[0] for row in plan.pool_kernels], axis=0
                ))
                positions = np.concatenate(
                    [row[0] for row in plan.pools], axis=0
                )
                ranking = CandidatePool(
                    kernels, plan.objective._weighted_target
                ).solve()
                thetas = ranking.thetas
                objs = ranking.exact_objectives(np.arange(len(kernels)))
                order = np.argsort(objs, kind="stable")[: plan.request.top_m]
                want = [
                    (positions[i].tobytes(), thetas[i].tobytes(),
                     float(objs[i]))
                    for i in order
                ]
                got = [
                    (fit.positions.tobytes(), fit.thetas.tobytes(),
                     fit.objective)
                    for fit in result.fits
                ]
                assert got == want, plan.request.request_id


class TestStitchedKernelLayout:
    """Stitched pool kernels are C-contiguous, the layout the descent
    was validated on: a Fortran-ordered dropout block rounds the K=2
    objective differently in the last bit."""

    @pytest.mark.parametrize("use_map", [True, False])
    def test_k2_dropout_blocks_are_c_contiguous(self, scenario, use_map):
        net, sniffers, fmap = scenario
        obs = _observations(net, sniffers, 1, users=2, seed=14)[0]
        values = obs.values.copy()
        values[:3] = np.nan
        request = LocalizeRequest(
            request_id="k2-dropout", client_id="c",
            observation=FluxObservation(
                time=obs.time, sniffers=obs.sniffers, values=values
            ),
            user_count=2, candidate_count=32, restarts=2, seed=500,
            use_map=use_map,
        )
        localizer = NLSLocalizer(net.field, net.positions[sniffers])
        plan = plan_localize(localizer, fmap, request)
        assert plan.columns is not None
        assert fuse_pool_kernels(localizer.model, [plan]) > 0
        for r, row in enumerate(plan.pool_kernels):
            for u, kernels in enumerate(row):
                assert kernels.shape == (32, plan.columns.shape[0])
                assert kernels.flags.c_contiguous, (r, u)


class TestSeedRule:
    """An integer ``rng`` is the search seed; anything else draws it."""

    @pytest.mark.parametrize("users", [1, 2])
    @pytest.mark.parametrize("make", [
        np.random.default_rng, np.random.SeedSequence,
    ], ids=["generator", "seed-sequence"])
    def test_seed_drawn_from_rng(self, scenario, users, make):
        net, sniffers, _ = scenario
        obs = _observations(net, sniffers, 1, users=users, seed=15)[0]
        localizer = NLSLocalizer(net.field, net.positions[sniffers])
        knobs = dict(user_count=users, candidate_count=24, restarts=2)
        seed = int(np.random.default_rng(make(9)).integers(2**63 - 1))
        drawn = localizer.localize(obs, rng=make(9), **knobs)
        keyed = localizer.localize(obs, rng=seed, **knobs)
        assert _payload(drawn) == _payload(keyed)
        other = localizer.localize(obs, rng=seed + 1, **knobs)
        assert _payload(other) != _payload(keyed)
