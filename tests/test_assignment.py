"""The K ≤ 2 closed-form assignment returns scipy's columns, bit for bit.

``repro.util.assignment.assignment_columns`` answers 1x1 and finite 2x2
cost matrices without scipy by replaying the two row steps of
``linear_sum_assignment``'s solver. Ties and near-ties are where a
replay that is merely *a* minimum-cost assignment would part from
scipy's, so the costs drawn here are built around each comparison of
the rule: exact ties (small integers, equal rows), keep-versus-swap
sums within a few ulps of each other, and coincident users on either
side of a distance matrix. NaN and -inf costs are refused with scipy's
``ValueError``.

``LocalizationResult.position_estimates`` and ``errors_to`` and
``assignment_errors`` must equal the scipy-based implementations kept
below, bit for bit, for K = 1, 2 and 3 and across ``objective_ratio``
cutoffs.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from repro.fingerprint import CompositionFit, LocalizationResult
from repro.smc.association import assignment_errors
from repro.util.assignment import assignment_columns

_PROPERTY = settings(max_examples=400, deadline=None, derandomize=True,
                     database=None)

_BASE = st.one_of(
    st.integers(0, 3).map(float),
    st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False),
)
_ANY = st.floats(allow_nan=False, allow_infinity=False)


def _nudge(x, ulps):
    """``x`` moved by ``ulps`` units in the last place."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


@st.composite
def _near_ties(draw):
    """A 2x2 matrix on the boundary of one comparison of the rule.

    Row 0's pick is tied or near-tied, or row 1's direct pick is, or
    the path through row 0 matches row 1's other column within a few
    ulps (the keep-versus-swap sums ``c00 + c11`` and ``c01 + c10``).
    """
    a, b, c = draw(_BASE), draw(_BASE), draw(_BASE)
    if draw(st.booleans()):
        b = _nudge(a, draw(st.integers(-2, 2)))
    return np.array(_boundary(min(a, b), max(a, b), c, draw(st.integers(-3, 3)),
                              draw(st.sampled_from(_CASES))))


_CASES = ["col0-path", "col0-direct", "col1-path", "col1-direct"]


def _boundary(lo, hi, c, ulps, case):
    """Row 0 ``(lo, hi)`` in either order; row 1 within ``ulps`` of a tie."""
    if case == "col0-path":  # row 0 takes column 0
        return [[lo, hi], [c, _nudge((c + hi) - lo, ulps)]]
    if case == "col0-direct":
        return [[lo, hi], [c, _nudge(c, ulps)]]
    if case == "col1-path":  # row 0 takes column 1 (if hi > lo)
        return [[hi, lo], [_nudge((c + hi) - lo, ulps), c]]
    return [[hi, lo], [_nudge(c, ulps), c]]


@st.composite
def _distances(draw):
    """Users-to-reference distances with coincident users on one side."""
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    users = gen.uniform(0.0, 10.0, (2, 2))
    reference = gen.uniform(0.0, 10.0, (2, 2))
    side = draw(st.sampled_from(["users", "reference", "both", "neither"]))
    if side in ("users", "both"):
        users[1] = users[0]
    if side in ("reference", "both"):
        reference[1] = reference[0]
    return np.linalg.norm(users[:, None, :] - reference[None, :, :], axis=2)


def _matrices(size):
    return st.lists(_BASE, min_size=size * size, max_size=size * size).map(
        lambda v: np.array(v).reshape(size, size)
    )


_COSTS = st.one_of(
    _near_ties(),
    _distances(),
    _matrices(1),
    _matrices(2),
    st.lists(_ANY, min_size=4, max_size=4).map(lambda v: np.array(v).reshape(2, 2)),
    st.lists(st.integers(0, 2), min_size=4, max_size=4).map(
        lambda v: np.array(v, dtype=float).reshape(2, 2)
    ),
)


@_PROPERTY
@given(cost=_COSTS)
@example(cost=np.zeros((2, 2)))  # constant: scipy answers the identity
@example(cost=np.array([[0.0, 1.0], [1.0, 2.0]]))  # keep and swap sums tie
def test_columns_are_scipys(cost):
    assert assignment_columns(cost).tolist() == linear_sum_assignment(cost)[1].tolist()


@pytest.mark.parametrize("c", [1.0, -1.0, 3.0, 0.5])
def test_row_zero_in_row_ones_last_bits(c):
    """Every row 0 in 1/16-ulp steps of row 1's last bits, every tie.

    Here ``c + hi`` and ``c - lo`` round differently (at a power of two
    the ulps on either side differ), so a direct tie of row 1 is broken
    by the rounding of the path through row 0, although ``hi >= lo``.
    """
    steps = [math.ldexp(c, -56) * k for k in range(17)]
    for a in steps:
        for b in steps:
            for case in _CASES:
                for ulps in range(-2, 3):
                    cost = np.array(_boundary(min(a, b), max(a, b), c, ulps, case))
                    want = linear_sum_assignment(cost)[1].tolist()
                    assert assignment_columns(cost).tolist() == want, cost.tolist()


@_PROPERTY
@given(costs=st.lists(_COSTS.filter(lambda c: c.shape == (2, 2)), min_size=0,
                      max_size=6))
def test_a_stack_is_answered_matrix_by_matrix(costs):
    stack = np.array(costs).reshape(-1, 2, 2)
    want = [linear_sum_assignment(c)[1].tolist() for c in stack]
    cols = assignment_columns(stack)
    assert cols.shape == (len(costs), 2) and cols.dtype == np.intp
    assert cols.tolist() == want


@_PROPERTY
@given(cost=st.one_of(_matrices(3), _matrices(4)))
def test_three_users_and_more_stay_with_scipy(cost):
    assert assignment_columns(cost).tolist() == linear_sum_assignment(cost)[1].tolist()


@pytest.mark.parametrize("size", [1, 2, 3])
@pytest.mark.parametrize("bad", [math.nan, -math.inf], ids=["nan", "-inf"])
def test_nan_and_minus_inf_are_refused_like_scipy(size, bad):
    gen = np.random.default_rng(size)
    for row in range(size):
        for col in range(size):
            cost = gen.uniform(0.0, 5.0, (size, size))
            cost[row, col] = bad
            with pytest.raises(ValueError) as scipy_error:
                linear_sum_assignment(cost)
            with pytest.raises(ValueError) as ours:
                assignment_columns(cost)
            assert str(ours.value) == str(scipy_error.value)
            with pytest.raises(ValueError):
                assignment_columns(np.stack([np.zeros((size, size)), cost]))


def test_plus_inf_follows_scipy():
    feasible = np.array([[math.inf, 1.0], [2.0, math.inf]])
    assert assignment_columns(feasible).tolist() == [1, 0]
    with pytest.raises(ValueError):
        assignment_columns(np.array([[math.inf, math.inf], [1.0, 2.0]]))


def test_only_square_matrices():
    for shape in [(2,), (2, 3), (4, 3, 2)]:
        with pytest.raises(ValueError):
            assignment_columns(np.zeros(shape))


# ----------------------------------------------------------------------
# The callers, against the scipy implementations they replaced.
# ----------------------------------------------------------------------
def _reference_estimates(result, objective_ratio=1.5):
    best_obj = result.fits[0].objective
    cutoff = best_obj * objective_ratio + 1e-12
    kept = [f for f in result.fits if f.objective <= cutoff]
    reference = kept[0].positions
    aligned = []
    for f in kept:
        cost = np.linalg.norm(
            f.positions[:, None, :] - reference[None, :, :], axis=2
        )
        rows, cols = linear_sum_assignment(cost)
        permuted = np.empty_like(f.positions)
        permuted[cols] = f.positions[rows]
        aligned.append(permuted)
    stacked = np.stack(aligned)
    weights = np.array([1.0 / (f.objective + 1e-9) for f in kept])
    weights = weights / weights.sum()
    return np.einsum("m,mkc->kc", weights, stacked)


def _reference_matching(estimates, truth):
    cost = np.linalg.norm(estimates[:, None, :] - truth[None, :, :], axis=2)
    rows, cols = linear_sum_assignment(cost)
    return cost[rows, cols], cols


_LAYOUTS = ["random", "permuted", "coincident-fit", "coincident-best", "grid"]
#: Objective multiples of the best: ties, the cutoffs and just past them.
_MULTIPLES = [1.0, 1.0 + 1e-13, 1.25, 1.5, 1.5 + 1e-12, 1.5000001, 2.0, 10.0]


def _result(users, fit_count, layout, seed):
    """Top fits whose users are permuted copies of one composition, or not."""
    gen = np.random.default_rng(seed)
    base = gen.uniform(0.0, 10.0, (users, 2))
    best = float(gen.uniform(0.01, 5.0))
    fits = []
    for m in range(fit_count):
        if layout == "random":
            positions = gen.uniform(0.0, 10.0, (users, 2))
        elif layout == "grid":
            positions = gen.integers(0, 3, (users, 2)).astype(float)
        else:
            positions = base[gen.permutation(users)] + gen.normal(
                0.0, 0.8, (users, 2)
            )
        if layout == "coincident-fit" or (layout == "coincident-best" and m == 0):
            positions[-1] = positions[0]
        multiple = 1.0 if m == 0 else float(gen.choice(_MULTIPLES))
        fits.append(CompositionFit(positions=positions, thetas=np.ones(users),
                                   objective=best * multiple))
    truth = base[gen.permutation(users)] + gen.normal(0.0, 0.5, (users, 2))
    return LocalizationResult(fits=fits), truth


@_PROPERTY
@given(
    users=st.integers(1, 3),
    fit_count=st.integers(1, 10),
    layout=st.sampled_from(_LAYOUTS),
    ratio=st.sampled_from([1.0, 1.25, 1.5, 2.0, 10.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_callers_give_scipys_bits(users, fit_count, layout, ratio, seed):
    result, truth = _result(users, fit_count, layout, seed)
    got = result.position_estimates(objective_ratio=ratio)
    assert got.tobytes() == _reference_estimates(result, ratio).tobytes()

    errors, _ = _reference_matching(_reference_estimates(result), truth)
    assert result.errors_to(truth).tobytes() == errors.tobytes()

    best = result.best.positions
    errors, cols = _reference_matching(best, truth)
    got_errors, perm = assignment_errors(best, truth)
    assert got_errors.tobytes() == errors.tobytes()
    assert perm.dtype == np.int64 and perm.tolist() == cols.tolist()
