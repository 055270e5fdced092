"""Candidate position generators for sampling-based NLS search.

The paper tests "10,000 random location samples for each user"
(Fig. 5) — that is :class:`UniformCandidates`. :class:`DiscCandidates`
implements the SMC prediction kernel's uniform-disc proposal (Formula
4.2); :class:`MapSeededCandidates` refines fingerprint-map seeds with
it. Each class's ``generate(count, rng)`` returns ``(count, 2)``
positions inside the field.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.geometry.field import Field
from repro.util.validation import check_positive


class UniformCandidates:
    """Uniform random candidates over the whole field."""

    def __init__(self, field: Field):
        self.field = field

    def generate(self, count: int, rng: np.random.Generator) -> np.ndarray:
        if count <= 0:
            raise ConfigurationError(f"count must be > 0, got {count}")
        return self.field.sample_uniform(count, rng)


class DiscCandidates:
    """Uniform candidates within discs around given centers.

    This is the paper's prediction proposal (Formula 4.2): from a
    previous sample position, the next position is uniform within a
    disc of radius ``v_max * dt``. Centers are cycled if ``count``
    exceeds their number; candidates landing outside the field are
    clipped onto it (the user cannot leave the field).
    """

    def __init__(self, field: Field, centers: np.ndarray, radius: float):
        self.field = field
        centers = np.asarray(centers, dtype=float)
        if centers.ndim == 1:
            centers = centers[None, :]
        if centers.ndim != 2 or centers.shape[1] != 2 or centers.shape[0] == 0:
            raise ConfigurationError(
                f"centers must be (m>=1, 2), got {centers.shape}"
            )
        self.centers = centers
        self.radius = check_positive("radius", radius)

    def generate(self, count: int, rng: np.random.Generator) -> np.ndarray:
        if count <= 0:
            raise ConfigurationError(f"count must be > 0, got {count}")
        m = self.centers.shape[0]
        which = np.arange(count) % m
        rng.shuffle(which)
        radii = self.radius * np.sqrt(rng.uniform(size=count))
        angles = rng.uniform(0.0, 2.0 * np.pi, size=count)
        pts = self.centers[which] + np.column_stack(
            [radii * np.cos(angles), radii * np.sin(angles)]
        )
        return self.field.clip(pts)


class MapSeededCandidates:
    """Fingerprint-map seeds followed by local disc refinement.

    The classic fingerprinting online stage: the first
    ``seed_positions`` candidates are the top-k map-match cells for the
    observation (best match first), and the remaining budget is spent
    on uniform-disc samples around those seeds — the same local
    proposal as :class:`DiscCandidates` — so the NLS search starts in
    the right basin and refines below the map's grid resolution. An
    ``explore_fraction`` of the refinement budget is diverted to
    uniform field-wide draws: signature matching occasionally picks the
    wrong basin (symmetric deployments, peeling residue), and a purely
    local pool could never escape it. Build one per user from a
    :class:`repro.fpmap.FingerprintMap` match (see :meth:`from_match`),
    or directly from any seed set.

    Attributes
    ----------
    seed_indices:
        Optional map cell ids of the seeds (best first); consumers use
        them to fetch precomputed kernels from the map's LRU block
        cache instead of re-deriving them.
    """

    def __init__(
        self,
        field: Field,
        seed_positions: np.ndarray,
        refine_radius: float,
        seed_indices: Optional[np.ndarray] = None,
        explore_fraction: float = 0.25,
    ):
        self.field = field
        seed_positions = np.asarray(seed_positions, dtype=float)
        if seed_positions.ndim != 2 or seed_positions.shape[1] != 2:
            raise ConfigurationError(
                f"seed_positions must be (k, 2), got {seed_positions.shape}"
            )
        if seed_positions.shape[0] == 0:
            raise ConfigurationError("need at least one seed position")
        self.seed_positions = seed_positions
        self.refine_radius = check_positive("refine_radius", refine_radius)
        self.seed_indices = (
            None
            if seed_indices is None
            else np.asarray(seed_indices, dtype=np.int64)
        )
        if (
            self.seed_indices is not None
            and self.seed_indices.shape != (seed_positions.shape[0],)
        ):
            raise ConfigurationError(
                f"seed_indices {self.seed_indices.shape} must match "
                f"seed_positions {seed_positions.shape}"
            )
        if not 0.0 <= explore_fraction < 1.0:
            raise ConfigurationError(
                f"explore_fraction must be in [0, 1), got {explore_fraction}"
            )
        self.explore_fraction = float(explore_fraction)
        self._refiner = DiscCandidates(field, seed_positions, refine_radius)
        self._explorer = UniformCandidates(field)

    @classmethod
    def from_match(
        cls,
        field: Field,
        match,
        refine_radius: float,
        explore_fraction: float = 0.25,
    ):
        """Build from a :class:`repro.fpmap.MapMatch` (best cell first)."""
        return cls(
            field,
            match.positions,
            refine_radius,
            seed_indices=match.indices,
            explore_fraction=explore_fraction,
        )

    def seed_count(self, count: int) -> int:
        """How many of ``count`` generated candidates are literal seeds."""
        return min(self.seed_positions.shape[0], count)

    def generate(self, count: int, rng: np.random.Generator) -> np.ndarray:
        if count <= 0:
            raise ConfigurationError(f"count must be > 0, got {count}")
        k = self.seed_count(count)
        seeds = self.seed_positions[:k]
        if count == k:
            return seeds.copy()
        explore = int((count - k) * self.explore_fraction)
        parts = [seeds]
        if count - k - explore > 0:
            parts.append(self._refiner.generate(count - k - explore, rng))
        if explore > 0:
            parts.append(self._explorer.generate(explore, rng))
        return np.concatenate(parts, axis=0)
