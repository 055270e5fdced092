"""Empirically calibrated flux kernels.

The closed-form kernel ``g = (l^2 - d^2) / (2 d)`` (Formula 3.4) is an
idealization; its residual bias is the dominant error source of the
attack. An adversary with *probe access* — the ability to walk through
the field once and record the flux their own collections induce — can
instead *learn* the kernel: regress observed per-node flux against the
geometry features ``(d, l)`` of each node relative to the probe sink.

:class:`EmpiricalKernel` bins the normalized radial coordinate
``d / l`` (the kernel is scale-free in that ratio up to the ``l^2``
amplitude factor) and fits a per-bin correction to the closed form.
The calibrated model then multiplies the analytic kernel by the
learned correction profile. The empirical-kernel ablation bench
measures how much this buys the attack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError, FittingError
from repro.fluxmodel.discrete import DiscreteFluxModel
from repro.geometry.field import Field
from repro.geometry.rays import boundary_distances, pairwise_ray_lengths
from repro.network.topology import Network
from repro.routing.spt import build_collection_tree
from repro.traffic.smoothing import smooth_flux
from repro.util.rng import RandomState, as_generator


@dataclass
class EmpiricalKernel:
    """Learned multiplicative correction over the analytic kernel.

    Attributes
    ----------
    bin_edges:
        ``(B+1,)`` edges over the normalized coordinate ``rho = d/l``.
    corrections:
        ``(B,)`` mean ratio ``measured / analytic`` per bin.
    """

    bin_edges: np.ndarray
    corrections: np.ndarray

    def __post_init__(self) -> None:
        if self.bin_edges.ndim != 1 or self.bin_edges.size < 2:
            raise ConfigurationError("bin_edges must have at least 2 entries")
        if self.corrections.shape != (self.bin_edges.size - 1,):
            raise ConfigurationError(
                "corrections must have one entry per bin"
            )
        if np.any(~np.isfinite(self.corrections)):
            raise ConfigurationError("corrections must be finite")

    def correction_at(self, rho: np.ndarray) -> np.ndarray:
        """Correction factor at normalized radii ``rho = d/l`` (clipped)."""
        rho = np.clip(np.asarray(rho, dtype=float), 0.0, 1.0)
        idx = np.clip(
            np.searchsorted(self.bin_edges, rho, side="right") - 1,
            0,
            self.corrections.size - 1,
        )
        return self.corrections[idx]


def fit_empirical_kernel(
    network: Network,
    probe_count: int = 5,
    stretch: float = 1.0,
    bins: int = 12,
    smooth: bool = True,
    d_floor: float = 1.0,
    rng: RandomState = None,
) -> EmpiricalKernel:
    """Learn the correction profile from ``probe_count`` probe collections.

    Each probe: a collection tree rooted at a random position, flux
    measured network-wide, the analytic kernel evaluated at every node
    (with the *same* ``d_floor`` the attack model will use), and the
    per-bin correction fitted as ``sum(measured) / sum(analytic)`` —
    the least-squares-optimal multiplicative factor per bin, which
    weights by flux magnitude instead of letting tiny far-field ratios
    dominate.
    """
    if probe_count < 1:
        raise ConfigurationError(f"probe_count must be >= 1, got {probe_count}")
    if bins < 2:
        raise ConfigurationError(f"bins must be >= 2, got {bins}")
    gen = as_generator(rng)

    edges = np.linspace(0.0, 1.0, bins + 1)
    measured_sums = np.zeros(bins)
    analytic_sums = np.zeros(bins)
    counts = np.zeros(bins)
    model = DiscreteFluxModel(network.field, network.positions, d_floor=d_floor)

    for _ in range(probe_count):
        sink = network.field.sample_uniform(1, gen)[0]
        tree = build_collection_tree(network, sink, rng=gen)
        measured = tree.subtree_aggregate(
            np.full(network.node_count, float(stretch))
        )
        if smooth:
            measured = smooth_flux(network, measured)
        root_pos = network.positions[tree.root]
        d = np.hypot(
            network.positions[:, 0] - root_pos[0],
            network.positions[:, 1] - root_pos[1],
        )
        l = boundary_distances(network.field, root_pos, network.positions)
        analytic = model.geometry_kernel(root_pos)
        ok = (analytic > 1e-9) & (measured > 0) & (l > 1e-9)
        rho = np.clip(d[ok] / l[ok], 0.0, 1.0 - 1e-12)
        idx = np.clip(np.searchsorted(edges, rho, side="right") - 1, 0, bins - 1)
        np.add.at(measured_sums, idx, measured[ok])
        np.add.at(analytic_sums, idx, analytic[ok])
        np.add.at(counts, idx, 1.0)

    populated = np.flatnonzero((counts > 0) & (analytic_sums > 0))
    if populated.size == 0:
        raise FittingError("no usable probe samples; cannot calibrate")
    corrections = np.full(bins, np.nan)
    corrections[populated] = (
        measured_sums[populated] / analytic_sums[populated]
    )
    # Fill empty bins from their nearest populated neighbor.
    for b in range(bins):
        if not np.isfinite(corrections[b]):
            nearest = populated[np.argmin(np.abs(populated - b))]
            corrections[b] = corrections[nearest]
    return EmpiricalKernel(bin_edges=edges, corrections=corrections)


class CalibratedFluxModel(DiscreteFluxModel):
    """Analytic kernel times a learned per-``d/l`` correction profile.

    Drop-in replacement for :class:`DiscreteFluxModel` in the NLS
    pipeline; the correction is absorbed into the geometry kernel, so
    the linear-in-theta structure (and batched solving) is preserved.
    """

    def __init__(
        self,
        field: Field,
        node_positions: np.ndarray,
        kernel: EmpiricalKernel,
        d_floor: float = 1.0,
    ):
        super().__init__(field, node_positions, d_floor=d_floor)
        self.kernel = kernel

    def geometry_kernels(
        self, sinks: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        base = super().geometry_kernels(sinks, out=out)
        sinks = np.asarray(sinks, dtype=float)
        if sinks.ndim == 1:
            sinks = sinks[None, :]
        sinks = self.field.clip(sinks)
        # One broadcast pass over every (sink, node) pair; each value
        # depends on its own pair, so this is bit for bit the per-sink
        # ``np.hypot`` and ``boundary_distances`` formula.
        d, l = pairwise_ray_lengths(self.field, sinks, self.node_positions)
        rho = np.where(l > 1e-12, d / np.maximum(l, 1e-12), 1.0)
        # Correct in place: ``base`` is either our fresh allocation or
        # the caller-supplied ``out`` — both must end up corrected.
        base *= self.kernel.correction_at(rho)
        return base

    def restrict_to(self, indices: np.ndarray) -> "CalibratedFluxModel":
        indices = np.asarray(indices, dtype=np.int64)
        return CalibratedFluxModel(
            self.field,
            self.node_positions[indices],
            kernel=self.kernel,
            d_floor=self.d_floor,
        )
