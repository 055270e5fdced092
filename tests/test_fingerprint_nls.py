"""NLS search tests: candidates, coordinate descent, pruning, localizer."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, FittingError
from repro.fingerprint import (
    DiscCandidates,
    NLSLocalizer,
    UniformCandidates,
)
from repro.fingerprint.nls import (
    coordinate_descent,
    enumerate_compositions,
    forward_select_active,
)
from repro.fingerprint.objective import (
    CandidatePool,
    FluxObjective,
)
from repro.fluxmodel.discrete import DiscreteFluxModel
from repro.geometry import RectangularField
from repro.traffic.measurement import FluxObservation


@pytest.fixture()
def synthetic_setup():
    """A model + noiseless synthetic observation with 2 known users."""
    field = RectangularField(10, 10)
    gen = np.random.default_rng(5)
    nodes = field.sample_uniform(50, gen)
    model = DiscreteFluxModel(field, nodes, d_floor=0.5)
    truth = np.array([[2.5, 3.0], [7.5, 8.0]])
    thetas = np.array([1.5, 2.5])
    g = model.geometry_kernels(truth)
    values = thetas @ g
    obs = FluxObservation(time=0.0, sniffers=np.arange(50), values=values)
    objective = FluxObjective.from_observation(model, obs)
    return field, model, truth, thetas, objective


class TestCandidateGenerators:
    def test_uniform_inside_field(self):
        field = RectangularField(10, 10)
        pts = UniformCandidates(field).generate(100, np.random.default_rng(0))
        assert pts.shape == (100, 2)
        assert field.contains(pts).all()

    def test_disc_within_radius(self):
        field = RectangularField(10, 10)
        centers = np.array([[5.0, 5.0]])
        pts = DiscCandidates(field, centers, radius=1.5).generate(
            200, np.random.default_rng(0)
        )
        d = np.hypot(pts[:, 0] - 5, pts[:, 1] - 5)
        assert np.all(d <= 1.5 + 1e-9)

    def test_disc_clipped_to_field(self):
        field = RectangularField(10, 10)
        centers = np.array([[0.2, 0.2]])
        pts = DiscCandidates(field, centers, radius=3.0).generate(
            200, np.random.default_rng(0)
        )
        assert field.contains(pts).all()

    def test_disc_cycles_centers(self):
        field = RectangularField(10, 10)
        centers = np.array([[1.0, 1.0], [9.0, 9.0]])
        pts = DiscCandidates(field, centers, radius=0.1).generate(
            100, np.random.default_rng(0)
        )
        near_a = np.hypot(pts[:, 0] - 1, pts[:, 1] - 1) < 0.2
        near_b = np.hypot(pts[:, 0] - 9, pts[:, 1] - 9) < 0.2
        assert near_a.sum() == 50 and near_b.sum() == 50

    def test_zero_count_raises(self):
        field = RectangularField(10, 10)
        with pytest.raises(ConfigurationError):
            UniformCandidates(field).generate(0, np.random.default_rng(0))


class TestCoordinateDescent:
    def test_finds_users_with_candidates_on_truth(self, synthetic_setup):
        field, model, truth, thetas, objective = synthetic_setup
        gen = np.random.default_rng(2)
        pools = [
            np.vstack([field.sample_uniform(50, gen), truth[j][None, :]])
            for j in range(2)
        ]
        outcome = coordinate_descent(objective, pools, rng=gen)
        found = np.stack(
            [pools[j][outcome.best_indices[j]] for j in range(2)]
        )
        # Each true position found exactly (it is in the pool).
        for t in truth:
            assert np.min(np.linalg.norm(found - t, axis=1)) < 1e-9
        assert outcome.best_objective < 1e-6

    def test_per_user_rankings_have_pool_size(self, synthetic_setup):
        field, model, truth, thetas, objective = synthetic_setup
        gen = np.random.default_rng(3)
        pools = [field.sample_uniform(30, gen) for _ in range(2)]
        outcome = coordinate_descent(objective, pools, rng=gen)
        for j in range(2):
            for k in (30, 35):
                indices, objs, thetas = outcome.ranked(j, k)
                assert sorted(indices) == list(range(30))
                assert objs.shape == thetas.shape == (30,)

    def test_objective_decreases_with_more_candidates(self, synthetic_setup):
        field, model, truth, thetas, objective = synthetic_setup
        objs = []
        for n in (10, 400):
            gen = np.random.default_rng(4)
            pools = [field.sample_uniform(n, gen) for _ in range(2)]
            objs.append(
                coordinate_descent(objective, pools, rng=gen).best_objective
            )
        assert objs[1] <= objs[0]

    def test_init_indices_honored(self, synthetic_setup):
        field, model, truth, thetas, objective = synthetic_setup
        gen = np.random.default_rng(5)
        pools = [truth[j][None, :] for j in range(2)]  # single perfect candidate
        outcome = coordinate_descent(
            objective, pools, rng=gen, init_indices=np.array([0, 0])
        )
        assert outcome.best_objective < 1e-6

    def test_empty_pools_raise(self, synthetic_setup):
        *_, objective = synthetic_setup
        with pytest.raises(ConfigurationError):
            coordinate_descent(objective, [], rng=0)


def _full_fit(objective, kernels, fixed):
    """Every candidate's thetas and exact objective, all rows at once."""
    ranking = CandidatePool(kernels, objective._weighted_target).solve(fixed)
    return ranking.thetas, ranking.exact_objectives(
        np.arange(kernels.shape[0])
    )


def _reference_descent(objective, pools, rng, sweeps=4, init_indices=None):
    """Coordinate descent that re-evaluates every user in every sweep.

    The search as it was before valid rankings were reused, with the
    exact residual of every candidate in every evaluation: the oracle
    the ranking-reusing :func:`coordinate_descent` must match bitwise.
    Returns ``(best_indices, best_thetas, best_objective, finals)``
    where ``finals[j]`` is user j's ``(swept thetas, objectives)``
    against the final incumbents.
    """
    K = len(pools)
    kernels = [
        objective._weight_kernels(objective.model.geometry_kernels(p))
        for p in pools
    ]
    order = np.arange(K)
    rng.shuffle(order)
    if init_indices is not None:
        incumbents = np.asarray(init_indices, dtype=np.int64).copy()
    else:
        incumbents = np.zeros(K, dtype=np.int64)
        fixed_stack = []
        for j in order:
            fixed = np.asarray(fixed_stack) if fixed_stack else None
            _, objs = _full_fit(objective, kernels[j], fixed)
            incumbents[j] = int(np.argmin(objs))
            fixed_stack.append(kernels[j][incumbents[j]])

    def evaluate(j):
        others = [k for k in range(K) if k != j]
        fixed = (
            np.stack([kernels[k][incumbents[k]] for k in others])
            if others else None
        )
        thetas, objs = _full_fit(objective, kernels[j], fixed)
        return others, thetas, objs

    finals = [None] * K
    valid = [False] * K
    best_objective = np.inf
    best_thetas = np.zeros(K)
    for _ in range(max(1, sweeps)):
        improved = False
        rng.shuffle(order)
        for j in order:
            others, thetas, objs = evaluate(j)
            finals[j] = (thetas[:, 0], objs)
            valid[j] = True
            best = int(np.argmin(objs))
            if objs[best] < best_objective - 1e-9:
                improved = True
                best_objective = float(objs[best])
                if best != incumbents[j]:
                    incumbents[j] = best
                    for k in others:
                        valid[k] = False
                best_thetas = np.empty(K)
                best_thetas[j] = thetas[best, 0]
                best_thetas[others] = thetas[best, 1:]
        if not improved:
            break
    for j in range(K):
        if not valid[j]:
            _, thetas, objs = evaluate(j)
            finals[j] = (thetas[:, 0], objs)
    return incumbents, best_thetas, best_objective, finals


def _noisy_objective(user_count, seed):
    field = RectangularField(10, 10)
    gen = np.random.default_rng(seed)
    nodes = field.sample_uniform(40, gen)
    model = DiscreteFluxModel(field, nodes, d_floor=0.5)
    truth = field.sample_uniform(user_count, gen)
    values = gen.uniform(1.0, 3.0, user_count) @ model.geometry_kernels(truth)
    values = values * gen.uniform(0.8, 1.2, values.shape)
    obs = FluxObservation(time=0.0, sniffers=np.arange(40), values=values)
    return field, FluxObjective.from_observation(model, obs)


def _ranked_bytes(outcome, j, k):
    return [a.tobytes() for a in outcome.ranked(j, k)]


def _reference_ranked_bytes(finals, j, k):
    thetas, objs = finals[j]
    indices = np.argsort(objs, kind="stable")[:k]
    return [indices.tobytes(), objs[indices].tobytes(),
            thetas[indices].tobytes()]


class TestDescentReference:
    """Skipping users whose ranking is still valid changes no bit."""

    @pytest.mark.parametrize("init", [False, True], ids=["greedy", "init"])
    @pytest.mark.parametrize("user_count", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_evaluate_every_user_sweep(self, seed, user_count, init):
        field, objective = _noisy_objective(user_count, seed)
        gen = np.random.default_rng(100 + seed)
        pools = [field.sample_uniform(30, gen) for _ in range(user_count)]
        init_indices = gen.integers(0, 30, user_count) if init else None
        want = _reference_descent(
            objective, pools, np.random.default_rng(seed),
            init_indices=init_indices,
        )
        got = coordinate_descent(
            objective, pools, rng=np.random.default_rng(seed),
            init_indices=init_indices,
        )
        best_indices, best_thetas, best_objective, finals = want
        assert got.best_indices.tobytes() == best_indices.tobytes()
        assert got.best_thetas.tobytes() == best_thetas.tobytes()
        assert (np.float64(got.best_objective).tobytes()
                == np.float64(best_objective).tobytes())
        for j in range(user_count):
            for k in (1, 2, 10, 29, 30, 31):
                assert (_ranked_bytes(got, j, k)
                        == _reference_ranked_bytes(finals, j, k)), (j, k)

    def test_converged_descent_evaluates_nothing_in_the_next_sweep(
        self, synthetic_setup, monkeypatch
    ):
        # Greedy peeling already lands on the truth: sweep 1 moves no
        # incumbent, so sweep 2 would only repeat valid rankings.
        field, model, truth, thetas, objective = synthetic_setup
        gen = np.random.default_rng(2)
        pools = [
            np.vstack([truth[j][None, :], field.sample_uniform(5, gen)])
            for j in range(2)
        ]
        calls = []
        solve = CandidatePool.solve

        def spy(pool, *args, **kwargs):
            calls.append(pool.kernels.shape[0])
            return solve(pool, *args, **kwargs)

        monkeypatch.setattr(CandidatePool, "solve", spy)
        outcome = coordinate_descent(objective, pools, rng=gen)
        assert list(outcome.best_indices) == [0, 0]
        assert outcome.best_objective < 1e-6
        assert len(calls) == 4  # 2 greedy + 2 in sweep 1, none in sweep 2


class TestEnumerate:
    def test_matches_coordinate_descent_on_small_problem(self, synthetic_setup):
        field, model, truth, thetas, objective = synthetic_setup
        gen = np.random.default_rng(6)
        pools = [
            np.vstack([field.sample_uniform(8, gen), truth[j][None, :]])
            for j in range(2)
        ]
        fits = enumerate_compositions(objective, pools, top_m=5)
        assert fits[0].objective < 1e-6
        assert len(fits) == 5
        assert all(
            fits[i].objective <= fits[i + 1].objective for i in range(4)
        )

    def test_refuses_huge_enumerations(self, synthetic_setup):
        field, *_, objective = synthetic_setup
        pools = [np.zeros((2000, 2)) + 5.0 for _ in range(3)]
        with pytest.raises(FittingError):
            enumerate_compositions(objective, pools)


class TestActivitySelection:
    def test_forward_select_exact_two_users(self, synthetic_setup):
        field, model, truth, thetas, objective = synthetic_setup
        extra = np.array([[5.0, 1.0], [1.0, 8.0]])
        kernels = model.geometry_kernels(np.vstack([truth, extra]))
        mask, out_thetas, _ = forward_select_active(objective, kernels)
        assert mask[0] and mask[1]
        assert not mask[2] and not mask[3]
        np.testing.assert_allclose(out_thetas[:2], thetas, atol=1e-4)

    def test_forward_select_nothing_on_zero_target(self, synthetic_setup):
        field, model, truth, thetas, objective = synthetic_setup
        zero_obj = FluxObjective(model=model, target=np.zeros(model.node_count))
        kernels = model.geometry_kernels(truth)
        mask, out_thetas, _ = forward_select_active(zero_obj, kernels)
        assert not mask.any()

    def test_bad_tolerances_raise(self, synthetic_setup):
        *_, objective = synthetic_setup
        kernels = np.ones((2, objective.sniffer_count))
        with pytest.raises(ConfigurationError):
            forward_select_active(objective, kernels, min_improvement=1.0)


class TestNLSLocalizer:
    def test_single_user_synthetic_exact_model(self):
        """On model-generated flux the localizer nails the position."""
        field = RectangularField(10, 10)
        gen = np.random.default_rng(8)
        nodes = field.sample_uniform(60, gen)
        model = DiscreteFluxModel(field, nodes, d_floor=0.5)
        truth = np.array([[4.0, 6.5]])
        values = model.predict(truth, [2.0])
        obs = FluxObservation(time=0.0, sniffers=np.arange(60), values=values)
        loc = NLSLocalizer(field, nodes, d_floor=0.5)
        result = loc.localize(
            obs, user_count=1, candidate_count=3000, restarts=2, rng=9
        )
        err = float(np.linalg.norm(result.best.positions[0] - truth[0]))
        assert err < 0.5

    def test_top_m_ordering(self, small_network):
        from repro.traffic import MeasurementModel, simulate_flux
        from repro.network import sample_sniffers_percentage

        flux = simulate_flux(small_network, [np.array([7.0, 7.0])], [2.0], rng=0)
        sniffers = sample_sniffers_percentage(small_network, 20, rng=1)
        obs = MeasurementModel(small_network, sniffers, smooth=True, rng=2).observe(
            flux
        )
        loc = NLSLocalizer(small_network.field, small_network.positions[sniffers])
        result = loc.localize(obs, user_count=1, candidate_count=500, rng=3)
        objs = [f.objective for f in result.fits]
        assert objs == sorted(objs)
        assert len(result.fits) <= 10

    def test_parameter_validation(self, small_network):
        loc = NLSLocalizer(small_network.field, small_network.positions[:30])
        from repro.traffic.measurement import FluxObservation

        obs = FluxObservation(
            time=0.0, sniffers=np.arange(30), values=np.ones(30)
        )
        with pytest.raises(ConfigurationError):
            loc.localize(obs, user_count=0)
        with pytest.raises(ConfigurationError):
            loc.localize(obs, user_count=1, candidate_count=0)
        with pytest.raises(ConfigurationError):
            loc.localize(obs, user_count=1, top_m=0)

    def test_real_flux_single_user_accuracy(self, paper_network):
        """End-to-end localization error within paper range (one seed)."""
        from repro.network import sample_sniffers_percentage
        from repro.traffic import MeasurementModel, simulate_flux

        gen = np.random.default_rng(33)
        truth = paper_network.field.sample_uniform(1, gen)
        flux = simulate_flux(paper_network, list(truth), [2.0], rng=gen)
        sniffers = sample_sniffers_percentage(paper_network, 10, rng=gen)
        obs = MeasurementModel(
            paper_network, sniffers, smooth=True, rng=gen
        ).observe(flux)
        loc = NLSLocalizer(paper_network.field, paper_network.positions[sniffers])
        result = loc.localize(
            obs, user_count=1, candidate_count=2000, restarts=2, rng=gen
        )
        assert float(result.errors_to(truth)[0]) < 4.0
