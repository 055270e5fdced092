"""NLS objective tests: theta solving, weighting, NaN masking."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, FittingError
from repro.fingerprint.objective import (
    CandidatePool,
    FluxObjective,
    solve_thetas,
    solve_thetas_batched,
)
from repro.fluxmodel.discrete import DiscreteFluxModel
from repro.geometry import RectangularField
from repro.traffic.measurement import FluxObservation


def _model(n=40, seed=0):
    field = RectangularField(10, 10)
    nodes = field.sample_uniform(n, np.random.default_rng(seed))
    return field, nodes, DiscreteFluxModel(field, nodes, d_floor=0.5)


class TestSolveThetas:
    def test_exact_recovery_single(self):
        field, nodes, model = _model()
        g = model.geometry_kernel(np.array([3.0, 4.0]))
        target = 2.5 * g
        thetas, obj = solve_thetas(g[None, :], target)
        assert thetas[0] == pytest.approx(2.5)
        assert obj == pytest.approx(0.0, abs=1e-8)

    def test_exact_recovery_two_users(self):
        field, nodes, model = _model()
        g1 = model.geometry_kernel(np.array([2.0, 2.0]))
        g2 = model.geometry_kernel(np.array([8.0, 7.0]))
        target = 1.5 * g1 + 0.5 * g2
        thetas, obj = solve_thetas(np.stack([g1, g2]), target)
        np.testing.assert_allclose(thetas, [1.5, 0.5], atol=1e-6)
        assert obj < 1e-6

    def test_nonnegativity(self):
        field, nodes, model = _model()
        g1 = model.geometry_kernel(np.array([2.0, 2.0]))
        # Target orthogonal-ish to g1: pure noise
        target = -g1
        thetas, _ = solve_thetas(g1[None, :], target)
        assert thetas[0] == 0.0

    def test_shape_check(self):
        with pytest.raises(ConfigurationError):
            solve_thetas(np.ones((2, 5)), np.ones(4))


class TestSolveThetasBatched:
    def test_matches_single(self):
        field, nodes, model = _model()
        g1 = model.geometry_kernel(np.array([2.0, 2.0]))
        g2 = model.geometry_kernel(np.array([8.0, 7.0]))
        target = 1.2 * g1 + 0.8 * g2
        stacks = np.stack([np.stack([g1, g2]), np.stack([g2, g1])])
        thetas, objs = solve_thetas_batched(stacks, target)
        np.testing.assert_allclose(thetas[0], [1.2, 0.8], atol=1e-6)
        np.testing.assert_allclose(thetas[1], [0.8, 1.2], atol=1e-6)
        np.testing.assert_allclose(objs, 0.0, atol=1e-6)

    def test_nnls_fallback_on_negative(self):
        field, nodes, model = _model()
        g1 = model.geometry_kernel(np.array([2.0, 2.0]))
        g2 = 0.95 * g1 + 0.05 * model.geometry_kernel(np.array([2.5, 2.2]))
        # Nearly collinear kernels force a negative unconstrained solution
        target = g1 - 0.5 * g2
        thetas, _ = solve_thetas_batched(np.stack([np.stack([g1, g2])]), target)
        assert np.all(thetas >= 0)

    def test_objective_is_residual_norm(self):
        field, nodes, model = _model()
        g = model.geometry_kernel(np.array([5.0, 5.0]))
        target = 2.0 * g + 1.0  # constant offset cannot be fitted
        thetas, objs = solve_thetas_batched(g[None, None, :], target)
        predicted = thetas[0, 0] * g
        assert objs[0] == pytest.approx(np.linalg.norm(predicted - target))

    def test_bad_shapes(self):
        with pytest.raises(ConfigurationError):
            solve_thetas_batched(np.ones((2, 3)), np.ones(3))
        with pytest.raises(ConfigurationError):
            solve_thetas_batched(np.ones((2, 1, 3)), np.ones(4))

    def test_degenerate_zero_kernels(self):
        # All-zero kernels: solution must still be finite.
        thetas, objs = solve_thetas_batched(np.zeros((1, 2, 5)), np.ones(5))
        assert np.all(np.isfinite(thetas))
        assert objs[0] == pytest.approx(np.sqrt(5))


class TestFluxObjective:
    def _observation(self, model, values):
        return FluxObservation(
            time=0.0,
            sniffers=np.arange(model.node_count),
            values=np.asarray(values, dtype=float),
        )

    def test_from_observation_plain(self):
        _, _, model = _model()
        g = model.geometry_kernel(np.array([5.0, 5.0]))
        obs = self._observation(model, 2.0 * g)
        objective = FluxObjective.from_observation(model, obs)
        thetas, obj = objective.evaluate(np.array([[5.0, 5.0]]))
        assert thetas[0] == pytest.approx(2.0)
        assert obj < 1e-8

    def test_nan_masking(self):
        _, _, model = _model()
        g = model.geometry_kernel(np.array([5.0, 5.0]))
        values = 2.0 * g
        values[3] = np.nan
        obs = self._observation(model, values)
        objective = FluxObjective.from_observation(model, obs)
        assert objective.sniffer_count == model.node_count - 1
        thetas, obj = objective.evaluate(np.array([[5.0, 5.0]]))
        assert thetas[0] == pytest.approx(2.0)

    def test_all_nan_raises(self):
        _, _, model = _model()
        obs = self._observation(model, np.full(model.node_count, np.nan))
        with pytest.raises(FittingError):
            FluxObjective.from_observation(model, obs)

    def test_count_mismatch_raises(self):
        _, _, model = _model()
        obs = FluxObservation(
            time=0.0, sniffers=np.arange(3), values=np.ones(3)
        )
        with pytest.raises(ConfigurationError):
            FluxObjective.from_observation(model, obs)

    def test_relative_weighting_changes_objective(self):
        _, _, model = _model()
        g = model.geometry_kernel(np.array([5.0, 5.0]))
        obs = self._observation(model, 2.0 * g + 1.0)
        abs_obj = FluxObjective.from_observation(model, obs, weighting="absolute")
        rel_obj = FluxObjective.from_observation(model, obs, weighting="relative")
        _, a = abs_obj.evaluate(np.array([[5.0, 5.0]]))
        _, r = rel_obj.evaluate(np.array([[5.0, 5.0]]))
        assert a != pytest.approx(r)

    def test_unknown_weighting_raises(self):
        _, _, model = _model()
        obs = self._observation(model, np.ones(model.node_count))
        with pytest.raises(ConfigurationError):
            FluxObjective.from_observation(model, obs, weighting="exotic")

    def test_candidate_solve_single_user(self):
        _, _, model = _model()
        true_pos = np.array([3.0, 6.0])
        g = model.geometry_kernel(true_pos)
        obs = self._observation(model, 1.7 * g)
        objective = FluxObjective.from_observation(model, obs)
        candidates = np.array([[3.0, 6.0], [8.0, 1.0], [1.0, 9.0]])
        kernels = model.geometry_kernels(candidates)
        ranking = CandidatePool(kernels, objective._weighted_target).solve()
        rows, objs = ranking.top(3)
        assert rows[0] == 0 and sorted(rows) == [0, 1, 2]
        assert list(objs) == sorted(objs)
        assert objs[0] == pytest.approx(0.0, abs=1e-8)
        assert ranking.thetas[0, 0] == pytest.approx(1.7, rel=1e-5)

    def test_candidate_solve_with_fixed(self):
        _, _, model = _model()
        p1, p2 = np.array([2.0, 2.0]), np.array([8.0, 7.0])
        g1, g2 = model.geometry_kernel(p1), model.geometry_kernel(p2)
        obs = self._observation(model, g1 + 2.0 * g2)
        objective = FluxObjective.from_observation(model, obs)
        candidates = np.array([[2.0, 2.0], [5.0, 9.0]])
        kernels = model.geometry_kernels(candidates)
        ranking = CandidatePool(
            kernels, objective._weighted_target
        ).solve(g2[None, :])
        assert int(ranking.top(1)[0][0]) == 0
        # Swept user first, fixed second.
        np.testing.assert_allclose(ranking.thetas[0], [1.0, 2.0], atol=1e-5)

    def test_weights_must_be_positive(self):
        _, _, model = _model()
        with pytest.raises(ConfigurationError):
            FluxObjective(
                model=model,
                target=np.ones(model.node_count),
                weights=np.zeros(model.node_count),
            )
