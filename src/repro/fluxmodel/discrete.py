"""Discrete flux model — paper Formula 3.4.

For discrete networks the per-node flux at distance ``d`` from the
sink is ``F ~= s (l^2 - d^2) / (2 d r)`` where ``r`` is the average
hop distance. Since ``s`` and ``r`` only appear as the ratio ``s/r``,
the fitting code treats ``theta = s/r`` as a single integrated factor,
and the model exposes the *geometry kernel*

    g(node; sink) = (l^2 - d^2) / (2 d)

so the flux prediction is ``F = theta * g`` — linear in ``theta``.
This linearity is what makes the batched stretch solve in
:mod:`repro.fingerprint.objective` possible.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.geometry.field import Field
from repro.network.topology import Network
from repro.util.validation import check_positive


class DiscreteFluxModel:
    """Vectorized Formula-3.4 predictor over a fixed node set.

    Parameters
    ----------
    field:
        Deployment field (supplies boundary ray casting for ``l``).
    node_positions:
        ``(n, 2)`` positions at which flux is predicted — typically
        the sniffer nodes.
    d_floor:
        Clamp on the sink-node distance ``d``. Formula 3.4 diverges as
        ``d -> 0`` and the paper observes (Fig. 3b) that nodes >= 3
        hops out are the well-modeled ones; clamping ``d`` to about one
        hop length keeps near-sink samples from dominating the NLS
        objective. Defaults to 1.0 (≈ the hop distance at the paper's
        densities); calibrate with
        :func:`repro.fluxmodel.calibration.estimate_hop_distance`.
    """

    def __init__(
        self,
        field: Field,
        node_positions: np.ndarray,
        d_floor: float = 1.0,
    ):
        node_positions = np.asarray(node_positions, dtype=float)
        if node_positions.ndim != 2 or node_positions.shape[1] != 2:
            raise ConfigurationError(
                f"node_positions must have shape (n, 2), got {node_positions.shape}"
            )
        self.field = field
        self.node_positions = node_positions
        self.d_floor = check_positive("d_floor", d_floor)

    @property
    def node_count(self) -> int:
        return self.node_positions.shape[0]

    def geometry_kernel(self, sink: np.ndarray) -> np.ndarray:
        """``g_i = (l_i^2 - d_i^2) / (2 d_i)`` for one sink position.

        Returns ``(n,)``, the sink's row of :meth:`geometry_kernels`
        bit for bit; out-of-field sinks are clipped onto the field
        first (candidate samples can land marginally outside after disc
        resampling).
        """
        sink = np.asarray(sink, dtype=float).reshape(1, 2)
        return self.geometry_kernels(sink)[0]

    def geometry_kernels(
        self, sinks: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Stacked kernels for many candidate sinks: ``(m, n)``.

        This is the inner loop of candidate search, evaluated for
        thousands of candidates per filtering round. Evaluation is
        delegated to :func:`repro.engine.kernels.
        evaluate_geometry_kernels`: float64, broadcast over the (sink,
        node) product (no flattened pair-grid materialization), every
        row independent of the others. ``out`` lets batch producers
        (the fingerprint-map builder) write kernels straight into their
        own ``(m, n)`` float64 storage.
        """
        # Looked up at call time, so a wrapper patched onto the kernels
        # module sees every evaluation.
        from repro.engine.kernels import evaluate_geometry_kernels

        return evaluate_geometry_kernels(
            self.field, self.node_positions, sinks, self.d_floor, out=out
        )

    def predict(self, sinks: np.ndarray, thetas: Sequence[float]) -> np.ndarray:
        """Superposed model flux ``F_i = sum_j theta_j g_ij``.

        Parameters
        ----------
        sinks:
            ``(K, 2)`` sink positions.
        thetas:
            Length-K integrated stretch factors ``s_j / r``.
        """
        sinks = np.asarray(sinks, dtype=float)
        if sinks.ndim == 1:
            sinks = sinks[None, :]
        thetas = np.asarray(thetas, dtype=float)
        if thetas.shape != (sinks.shape[0],):
            raise ConfigurationError(
                f"need one theta per sink: {sinks.shape[0]} sinks, "
                f"{thetas.shape} thetas"
            )
        if np.any(thetas < 0):
            raise ConfigurationError("thetas must be non-negative")
        kernels = self.geometry_kernels(sinks)  # (K, n)
        return thetas @ kernels

    def restrict_to(self, indices: np.ndarray) -> "DiscreteFluxModel":
        """A model over a subset of the nodes (e.g. non-NaN sniffers)."""
        indices = np.asarray(indices, dtype=np.int64)
        return DiscreteFluxModel(
            self.field, self.node_positions[indices], d_floor=self.d_floor
        )


def model_flux(
    network: Network,
    sink: np.ndarray,
    stretch: float,
    hop_distance: float,
    d_floor: Optional[float] = None,
) -> np.ndarray:
    """Formula 3.4 flux at *every* network node for one sink.

    Convenience wrapper used by the model-accuracy study (Fig. 3) and
    by briefing, where ``s`` and ``r`` are known or estimated
    separately rather than folded into ``theta``.
    """
    check_positive("stretch", stretch)
    check_positive("hop_distance", hop_distance)
    model = DiscreteFluxModel(
        network.field,
        network.positions,
        d_floor=hop_distance if d_floor is None else d_floor,
    )
    theta = stretch / hop_distance
    return model.predict(np.asarray(sink, dtype=float)[None, :], [theta])
