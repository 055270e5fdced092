"""Identity association and mixing diagnostics.

Network flux carries no identities, so when two users' trajectories
cross, the tracker may swap their sample sets (paper Fig. 7d): the
*locations* stay accurate while the *labels* mix. Accuracy is
therefore measured on the error-minimizing assignment per round, and
:func:`identity_consistency` quantifies how often the assignment
permutation changes — the paper's mixing phenomenon.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.util.assignment import assignment_columns


def assignment_errors(
    estimates: np.ndarray, truths: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-user errors under the error-minimizing estimate<->truth matching.

    Returns ``(errors, permutation)`` where ``permutation[j]`` is the
    truth index matched to estimate ``j``.
    """
    estimates = np.asarray(estimates, dtype=float)
    truths = np.asarray(truths, dtype=float)
    if estimates.shape != truths.shape or estimates.ndim != 2 or estimates.shape[1] != 2:
        raise ConfigurationError(
            f"estimates {estimates.shape} and truths {truths.shape} must both be (K, 2)"
        )
    cost = np.linalg.norm(estimates[:, None, :] - truths[None, :, :], axis=2)
    perm = assignment_columns(cost).astype(np.int64)
    return cost[np.arange(len(cost)), perm], perm


def identity_consistency(permutations: Sequence[np.ndarray]) -> float:
    """Fraction of consecutive rounds whose assignment did not change.

    1.0 means identities never mixed; values below 1.0 indicate label
    swaps (expected when trajectories cross — paper Fig. 7d).
    """
    perms = [np.asarray(p, dtype=np.int64) for p in permutations]
    if len(perms) < 2:
        return 1.0
    stable = sum(
        1 for a, b in zip(perms, perms[1:]) if np.array_equal(a, b)
    )
    return stable / (len(perms) - 1)


def tracking_errors_over_time(
    steps, trajectories: Sequence[np.ndarray], times: Sequence[float] = None
) -> np.ndarray:
    """Per-round assignment errors for a tracker history.

    Parameters
    ----------
    steps:
        List of :class:`~repro.smc.tracker.TrackerStep`.
    trajectories:
        Per-user ``(rounds, 2)`` true positions, one row per step (or,
        with ``times`` given, timestamped paths to interpolate).
    times:
        Optional per-trajectory-row timestamps (shared by all users);
        when given, truths are interpolated at each step's time.

    Returns
    -------
    ``(rounds, K)`` error matrix.
    """
    K = len(trajectories)
    trajs = [np.asarray(tr, dtype=float) for tr in trajectories]
    out = np.empty((len(steps), K))
    for i, step in enumerate(steps):
        if times is None:
            truths = np.stack([tr[i] for tr in trajs])
        else:
            tt = np.asarray(times, dtype=float)
            truths = np.stack(
                [
                    [np.interp(step.time, tt, tr[:, 0]), np.interp(step.time, tt, tr[:, 1])]
                    for tr in trajs
                ]
            )
        errors, _ = assignment_errors(step.estimates, truths)
        out[i] = errors
    return out
