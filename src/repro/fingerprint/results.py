"""Result types for NLS localization."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.util.assignment import assignment_columns


@dataclass(frozen=True)
class CompositionFit:
    """One fitted composition of K user positions.

    Attributes
    ----------
    positions:
        ``(K, 2)`` fitted sink positions.
    thetas:
        ``(K,)`` fitted integrated stretch factors ``s_j / r``.
    objective:
        Residual norm ``||F - F'||`` at the fit.
    """

    positions: np.ndarray
    thetas: np.ndarray
    objective: float

    def __post_init__(self) -> None:
        if self.positions.ndim != 2 or self.positions.shape[1] != 2:
            raise ConfigurationError(
                f"positions must be (K, 2), got {self.positions.shape}"
            )
        if self.thetas.shape != (self.positions.shape[0],):
            raise ConfigurationError("one theta per position required")
        if not np.isfinite(self.objective) or self.objective < 0:
            raise ConfigurationError(f"bad objective {self.objective}")

    @property
    def user_count(self) -> int:
        return self.positions.shape[0]

    def active_users(self, theta_floor: float = 1e-6) -> np.ndarray:
        """Users whose fitted stretch is meaningfully non-zero.

        The paper's asynchronous-updating rule: a best fit
        ``s_j/r -> 0`` means user ``j`` did not collect in this window.
        """
        return np.flatnonzero(self.thetas > theta_floor)


@dataclass
class LocalizationResult:
    """Top-M fitted compositions, best first (paper keeps M=10)."""

    fits: List[CompositionFit]

    def __post_init__(self) -> None:
        if not self.fits:
            raise ConfigurationError("LocalizationResult needs at least one fit")
        self.fits = sorted(self.fits, key=lambda f: f.objective)

    @property
    def best(self) -> CompositionFit:
        return self.fits[0]

    def position_estimates(self, objective_ratio: float = 1.5) -> np.ndarray:
        """Majority estimate per user across the top fits.

        The paper filters outlier reports "by adopting the reports of
        majority". We implement that as an objective-weighted mean over
        the fits whose objective is within ``objective_ratio`` of the
        best fit's — clearly inferior compositions are excluded, close
        contenders vote with weight ``1 / objective``. User slots carry
        no identity across compositions (the same physical composition
        can appear with its users permuted), so every fit is aligned to
        the best fit by a min-cost assignment before averaging.
        """
        if objective_ratio < 1.0:
            raise ConfigurationError(
                f"objective_ratio must be >= 1, got {objective_ratio}"
            )
        best_obj = self.fits[0].objective
        cutoff = best_obj * objective_ratio + 1e-12
        kept = [f for f in self.fits if f.objective <= cutoff]
        positions = np.stack([f.positions for f in kept])  # (M', K, 2)
        cost = np.linalg.norm(positions[:, :, None, :] - positions[0], axis=3)
        aligned = np.empty_like(positions)
        aligned[np.arange(len(kept))[:, None], assignment_columns(cost)] = positions
        weights = 1.0 / (np.array([f.objective for f in kept]) + 1e-9)
        weights = weights / weights.sum()
        return np.einsum("m,mkc->kc", weights, aligned)

    def errors_to(self, true_positions: np.ndarray) -> np.ndarray:
        """Per-user localization error of the best-matching assignment.

        Because flux carries no identity, fitted users are matched to
        true users by the error-minimizing permutation (Hungarian
        assignment) before computing distances, as the paper implicitly
        does when reporting average error.
        """
        true_positions = np.asarray(true_positions, dtype=float)
        est = self.position_estimates()
        if true_positions.shape != est.shape:
            raise ConfigurationError(
                f"true positions {true_positions.shape} vs estimates {est.shape}"
            )
        cost = np.linalg.norm(est[:, None, :] - true_positions[None, :, :], axis=2)
        return cost[np.arange(len(cost)), assignment_columns(cost)]
