"""Minimum-cost assignment of square cost matrices, scipy's answer.

Flux carries no identities, so fitted users are matched to reference
users (the best fit's, or the truth's) by a minimum-cost assignment.
:func:`assignment_columns` returns the columns that
``scipy.optimize.linear_sum_assignment`` returns, on every input.
The K ≤ 2 matrices that localization and tracking produce are answered
without importing scipy, whose optimize package takes a serving process
0.3–0.4 s and 39 MB of memory to load (docs/PERFORMANCE.md, "Cold start
and resident memory"); anything else goes to scipy.

The 2x2 answer replays the two row steps of scipy's shortest
augmenting path solver (Crouse's; ``rectangular_lsap.cpp``) in float64,
operation for operation, so that ties and near-ties break as scipy's do:

* Row 0 takes the cheaper column, column 0 on a tie.
* If it took column 0, row 1 takes column 1 unless ``c10 < c11`` and
  the path through row 0, ``(c10 + c01) - c00``, is below ``c11``; then
  the rows swap.
* If it took column 1, row 1 takes column 0 unless ``c10 > c11`` and
  the path ``(c11 + c00) - c01`` is below ``c10``; then row 0 moves to
  column 0 and row 1 takes column 1.
"""

from __future__ import annotations

import numpy as np


def _crosses(c00: float, c01: float, c10: float, c11: float) -> bool:
    """True when scipy assigns the 2x2 matrix's rows to columns ``(1, 0)``."""
    if c00 <= c01:
        return c10 < c11 and (c10 + c01) - c00 < c11
    return not (c10 > c11 and (c11 + c00) - c01 < c10)


def assignment_columns(cost) -> np.ndarray:
    """``linear_sum_assignment(c)[1]`` for every square matrix ``c`` of ``cost``.

    ``cost`` is one ``(K, K)`` matrix or a stack ``(..., K, K)``; the
    result, of shape ``cost.shape[:-1]``, gives the column assigned to
    each row (the rows of a square assignment are ``0..K-1``). Finite
    matrices with K ≤ 2 are answered in closed form; K ≥ 3 and any
    non-finite matrix go to scipy, which refuses NaN and -inf entries
    with its ``ValueError``.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim < 2 or cost.shape[-1] != cost.shape[-2]:
        raise ValueError(f"expected square cost matrices, got shape {cost.shape}")
    K = cost.shape[-1]
    if K <= 2 and np.isfinite(cost).all():
        if K < 2:
            return np.zeros(cost.shape[:-1], dtype=np.intp)
        return np.array(
            [(1, 0) if _crosses(*c) else (0, 1)
             for c in cost.reshape(-1, 4).tolist()],
            dtype=np.intp,
        ).reshape(cost.shape[:-1])
    from scipy.optimize import linear_sum_assignment

    return np.array(
        [linear_sum_assignment(c)[1] for c in cost.reshape(-1, K, K)],
        dtype=np.intp,
    ).reshape(cost.shape[:-1])
