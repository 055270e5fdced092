"""The closed-form ranking reports exactly what a full residual sort would.

Candidates are ranked by the normal equations' closed-form key, and
only the rows whose key lies within the derived rounding margin of the
k-th get their residual norm (``CandidateRanking``). Whatever the key's
rounding, ``ranked(j, k)`` and the K=1 ``top_m`` must equal
``np.argsort(full_exact_norms, kind="stable")[:k]`` with bit-equal
objectives and thetas, where the full norms are the residual of every
candidate formed the way the solver has always formed it. Scenarios:
exact ties from duplicated candidates, near-ties and an exact fit
(where the key alone cannot tell rows apart, so only the margin keeps
the order), near-bound readings (where the key's squares would
overflow unscaled), readings whose squares underflow, subnormal
readings (which no float64 power of two scales into [0.5, 1)),
relative weighting and NaN dropout.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fingerprint.nls import coordinate_descent
from repro.fingerprint.objective import CandidatePool, FluxObjective
from repro.fingerprint.search import (
    LocalizePlan,
    SearchKnobs,
    solve_single_user_fused,
)
from repro.fluxmodel.discrete import DiscreteFluxModel
from repro.geometry import RectangularField
from repro.traffic.measurement import FluxObservation

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                     database=None)

_SNIFFERS = 20
#: Every square just under the float64 maximum over 20 readings.
_NEAR_BOUND = 2.9e153

_SCENARIOS = ["random", "duplicates", "near-ties", "exact", "near-bound",
              "tiny", "subnormal", "relative", "dropout"]


def _residual_norms(kernels, thetas, fixed, target):
    """Every row's residual norm, formed as the solver forms it."""
    predicted = kernels * thetas[:, 0:1]
    if fixed is not None:
        predicted += np.einsum("ik,kn->in", thetas[:, 1:], fixed)
    predicted -= target[None, :]
    return np.linalg.norm(predicted, axis=1)


def _scenario(name, users, count, seed, restarts=1):
    """``(objective, pools)``: ``restarts * users`` pools of ``count``."""
    gen = np.random.default_rng(seed)
    field = RectangularField(10, 10)
    model = DiscreteFluxModel(
        field, field.sample_uniform(_SNIFFERS, gen), d_floor=0.5
    )
    truth = field.sample_uniform(users, gen)
    values = gen.uniform(1.0, 3.0, users) @ model.geometry_kernels(truth)
    pools = [field.sample_uniform(count, gen)
             for _ in range(restarts * users)]
    weighting = "absolute"
    if name != "exact":
        values = values * gen.uniform(0.8, 1.2, _SNIFFERS)
    if name == "duplicates":
        # The last third repeats the first: bitwise-equal objectives.
        for pool in pools:
            third = count // 3
            pool[count - third:] = pool[:third]
    elif name == "exact":
        # The truth and near-copies of it: residuals far below the
        # key's rounding noise, so only the margin keeps the order.
        for u, pool in enumerate(pools):
            rows = gen.permutation(count)[: max(1, count // 3)]
            pool[rows] = truth[u % users] + gen.normal(0.0, 1e-8, (len(rows), 2))
            pool[rows[0]] = truth[u % users]
    elif name == "near-ties":
        for pool in pools:
            third = count // 3
            pool[count - third:] = pool[:third] + gen.normal(
                0.0, 1e-9, (third, 2)
            )
    elif name == "near-bound":
        values = np.full(_SNIFFERS, _NEAR_BOUND)
    elif name == "tiny":
        # Normal readings whose squares underflow.
        values = values * (1e-160 / np.max(values))
    elif name == "subnormal":
        # Every reading below the smallest normal float64.
        values = values * (1e-310 / np.max(values))
    elif name == "relative":
        weighting = "relative"
    elif name == "dropout":
        values[gen.permutation(_SNIFFERS)[:5]] = np.nan
    observation = FluxObservation(
        time=0.0, sniffers=np.arange(_SNIFFERS), values=values
    )
    objective = FluxObjective.from_observation(
        model, observation, weighting=weighting
    )
    return objective, pools


def _ks(count):
    return sorted({1, 10, count - 1, count, count + 5} - {0})


@_PROPERTY
@given(
    scenario=st.sampled_from(_SCENARIOS),
    users=st.integers(1, 4),
    count=st.integers(2, 40),
    seed=st.integers(0, 2**32 - 1),
)
# Squares that underflow: only the margin's underflow term keeps these.
@example(scenario="tiny", users=2, count=40, seed=12)
@example(scenario="tiny", users=3, count=40, seed=4)
def test_ranked_is_the_stable_sort_of_every_exact_objective(
    scenario, users, count, seed
):
    objective, pools = _scenario(scenario, users, count, seed)
    outcome = coordinate_descent(objective, pools, rng=seed)
    target = objective._weighted_target
    kernels = [
        objective._weight_kernels(objective.model.geometry_kernels(p))
        for p in pools
    ]
    for j in range(users):
        others = [k for k in range(users) if k != j]
        fixed = (
            np.stack([kernels[k][outcome.best_indices[k]] for k in others])
            if others else None
        )
        ranking = CandidatePool(kernels[j], target).solve(fixed)
        full = _residual_norms(kernels[j], ranking.thetas, fixed, target)
        assert (ranking.exact_objectives(np.arange(count)).tobytes()
                == full.tobytes())
        for k in _ks(count):
            want = np.argsort(full, kind="stable")[:k]
            indices, objectives, thetas = outcome.ranked(j, k)
            assert indices.tobytes() == want.tobytes(), (j, k)
            assert objectives.tobytes() == full[want].tobytes(), (j, k)
            assert thetas.tobytes() == ranking.thetas[want, 0].tobytes()


def _single_user_plan(objective, pools, top_m):
    knobs = SearchKnobs(
        observation=None, user_count=1, candidate_count=pools[0].shape[0],
        top_m=top_m, restarts=len(pools), sweeps=1, seed_top_k=1, seed=0,
        use_map=False,
    )
    plan = LocalizePlan(
        request=knobs, objective=objective, columns=None,
        pools=[[pool] for pool in pools], seed_kernels=[[None] for _ in pools],
        search_seed=None,
    )
    plan.pool_kernels = [
        [objective.model.geometry_kernels(pool)] for pool in pools
    ]
    return plan


@_PROPERTY
@given(
    scenario=st.sampled_from(
        ["random", "duplicates", "near-ties", "exact", "near-bound",
         "tiny", "subnormal", "dropout"]
    ),
    count=st.integers(2, 40),
    restarts=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_single_user_top_m_is_the_stable_sort(scenario, count, restarts, seed):
    # The K=1 localize binds the "absolute" weighting (kernels unweighted).
    objective, pools = _scenario(scenario, 1, count, seed, restarts=restarts)
    total = count * restarts
    kernels = np.concatenate(
        [objective.model.geometry_kernels(pool) for pool in pools]
    )
    positions = np.concatenate(pools)
    target = objective._weighted_target
    thetas = CandidatePool(kernels, target).solve().thetas
    full = _residual_norms(kernels, thetas, None, target)
    for top_m in _ks(total):
        plan = _single_user_plan(objective, pools, top_m)
        (result,) = solve_single_user_fused([plan])
        want = np.argsort(full, kind="stable")[:top_m]
        got = [(f.positions.tobytes(), f.thetas.tobytes(),
                np.float64(f.objective).tobytes()) for f in result.fits]
        assert got == [
            (positions[i].reshape(1, 2).tobytes(), thetas[i].tobytes(),
             full[i].tobytes())
            for i in want
        ], top_m


def test_duplicated_candidates_rank_by_index():
    objective, (pool,) = _scenario("duplicates", 1, 30, seed=4)
    kernels = objective.model.geometry_kernels(pool)
    ranking = CandidatePool(kernels, objective._weighted_target).solve()
    rows, objectives = ranking.top(30)
    ties = 0
    for a, b in zip(range(29), range(1, 30)):
        if objectives[a] == objectives[b]:
            assert rows[a] < rows[b]
            ties += 1
    assert ties == 10  # rows 20..29 repeat rows 0..9


def test_exact_fit_reports_the_residual_not_the_closed_form():
    # The closed form subtracts nearly equal numbers at an exact fit;
    # the objective reported is the residual norm itself.
    gen = np.random.default_rng(5)
    field = RectangularField(10, 10)
    model = DiscreteFluxModel(field, field.sample_uniform(50, gen),
                              d_floor=0.5)
    truth = np.array([[2.5, 3.0], [7.5, 8.0]])
    values = np.array([1.5, 2.5]) @ model.geometry_kernels(truth)
    objective = FluxObjective.from_observation(
        model, FluxObservation(time=0.0, sniffers=np.arange(50),
                               values=values)
    )
    pools = [np.vstack([truth[j], field.sample_uniform(20, gen)])
             for j in range(2)]
    outcome = coordinate_descent(objective, pools, rng=gen,
                                 init_indices=np.array([0, 0]))
    assert list(outcome.best_indices) == [0, 0]
    assert outcome.best_objective < 1e-6
    ranking = outcome.rankings[0]
    scale = ranking.pool.key_scale
    closed_form_sq = ranking.keys[0] / scale**2 + float(values @ values)
    assert abs(closed_form_sq) > outcome.best_objective**2
    indices, objectives, _ = outcome.ranked(0, 1)
    assert indices[0] == 0 and objectives[0] == outcome.best_objective


def test_near_bound_keys_stay_finite():
    objective, pools = _scenario("near-bound", 2, 30, seed=6)
    outcome = coordinate_descent(objective, pools, rng=6)
    for ranking in outcome.rankings:
        assert np.all(np.isfinite(ranking.keys))
        assert np.all(np.isfinite(ranking.slack))
        # A handful of rows, not the whole pool, need their residual.
        assert ranking.candidate_rows(1).shape[0] < 30
    assert np.isfinite(outcome.best_objective)


@pytest.mark.parametrize("users", [1, 2])
def test_subnormal_readings_form_every_row(users):
    # No float64 scale brings a subnormal target into [0.5, 1): the
    # keys stay unscaled and underflow, and the margin's underflow term
    # sends every row to its residual instead.
    objective, pools = _scenario("subnormal", users, 30, seed=7)
    outcome = coordinate_descent(objective, pools, rng=7)
    for ranking in outcome.rankings:
        assert ranking.pool.key_scale == 1.0
        assert ranking.candidate_rows(1).shape[0] == 30
    indices, objectives, _ = outcome.ranked(0, 1)
    assert objectives[0] == outcome.best_objective


def test_target_near_the_float64_maximum_keeps_the_exact_order():
    # ||F||^2 within 2^-29 of the float64 maximum: the rows that fit
    # nothing have residual norms at the edge of overflow.
    gen = np.random.default_rng(8)
    n = 20
    target = np.full(n, np.sqrt(np.finfo(float).max / n) * (1 - 2.0**-30))
    kernels = gen.uniform(0.0, 1.0, (12, n))
    kernels[::3] = 0.0
    pool = CandidatePool(kernels, target)
    for ranking in (pool.solve(), pool.solve(np.zeros((1, n)))):
        full = ranking.exact_objectives(np.arange(12))
        for k in range(1, 13):
            rows, objectives = ranking.top(k)
            want = np.argsort(full, kind="stable")[:k]
            assert rows.tobytes() == want.tobytes()
            assert objectives.tobytes() == full[want].tobytes()
