"""Signature index over fingerprint-map cells.

One query serves the online stages: **kNN-by-signature** — "which
cells' precomputed flux kernels best explain this observed flux
vector?" The kernel scale ``theta`` is unknown, so the match metric is
the residual of the per-cell best-fit ``theta >= 0`` — an exact, fully
vectorized scan (one matvec over the signature matrix), which at
fingerprint-map sizes (10^3..10^5 cells) is faster than any
approximate structure.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

#: Largest ``|reading|`` a target is matched at as given. A target above
#: it is matched at an exact power-of-two rescale that brings its peak
#: into ``[0.5, 1)``, and its thetas and residuals are scaled back, so
#: ``theta * num`` and ``theta^2 * den`` stay finite for every reading
#: ``check_readings`` admits. Targets at or below it take no rescale and
#: match bit for bit as they always have.
_MATCH_AS_GIVEN = 2.0**256


def _target_exponents(targets: np.ndarray) -> np.ndarray:
    """Per-target power of two to divide out: 0 for targets in range."""
    peak = np.max(np.abs(targets), axis=-1, initial=0.0)
    return np.where(peak > _MATCH_AS_GIVEN, np.frexp(peak)[1], 0)


class SpatialIndex:
    """Clamped-projection signature scan over a fixed cell set.

    Parameters
    ----------
    signatures:
        ``(C, n)`` per-cell flux kernels: row ``c`` is cell ``c``'s
        kernel at the ``n`` sniffers.
    """

    def __init__(self, signatures: np.ndarray):
        signatures = np.asarray(signatures, dtype=float)
        if signatures.ndim != 2 or signatures.shape[0] == 0:
            raise ConfigurationError(
                f"signatures must be (C>=1, n), got {signatures.shape}"
            )
        self.signatures = signatures
        self._sig_norms: Optional[np.ndarray] = None

    @property
    def cell_count(self) -> int:
        return self.signatures.shape[0]

    def knn_by_signature(
        self,
        target: np.ndarray,
        k: int,
        columns: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Best-matching cells for an observed flux vector.

        For each cell the kernel is matched at its optimal non-negative
        scale: ``theta_c = max(0, <g_c, F'> / <g_c, g_c>)`` and the
        score is ``||F' - theta_c g_c||_2`` over the selected columns.

        Parameters
        ----------
        target:
            ``(n,)`` observed flux over the map's sniffer set (or over
            ``columns`` of it).
        k:
            Number of matches to return.
        columns:
            Optional indices restricting the match to a sniffer subset
            (NaN dropout); ``target`` must then have that length.

        Returns
        -------
        ``(indices, thetas, residuals)`` sorted by ascending residual.
        """
        k = min(int(k), self.cell_count)
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        sig = self.signatures
        if columns is not None:
            columns = np.asarray(columns, dtype=np.int64)
            sig = sig[:, columns]
        target = np.asarray(target, dtype=float)
        if target.shape != (sig.shape[1],):
            raise ConfigurationError(
                f"target must have shape ({sig.shape[1]},), got {target.shape}"
            )
        exponent = int(_target_exponents(target))
        if exponent:  # rare: near-bound readings
            target = np.ldexp(target, -exponent)
        num = sig @ target  # (C,)
        if columns is None:
            # Observation-independent: cache the full-column signature
            # self-dots (the serving hot path matches thousands of
            # observations against the same map).
            if self._sig_norms is None:
                self._sig_norms = np.einsum("cn,cn->c", sig, sig)
            den = self._sig_norms
        else:
            den = np.einsum("cn,cn->c", sig, sig)
        thetas = np.maximum(num / np.maximum(den, 1e-300), 0.0)
        # ||F' - theta g||^2 expanded; clamp tiny negatives from rounding.
        sq = np.maximum(
            float(target @ target) - 2.0 * thetas * num + thetas * thetas * den,
            0.0,
        )
        residuals = np.sqrt(sq)
        if exponent:
            thetas = np.ldexp(thetas, exponent)
            residuals = np.ldexp(residuals, exponent)
        return self._rank_matches(residuals, thetas, k)

    def knn_by_signature_batch(
        self,
        targets: np.ndarray,
        ks: Sequence[int],
    ) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Fused :meth:`knn_by_signature` over many observations.

        One einsum evaluates the cell/observation score grid for the
        whole batch instead of dispatching ~a dozen small numpy ops per
        observation — the serving scheduler's fused match path. Every
        operation is column-local (einsum reduces over ``n`` per output
        element, the rest is elementwise), so each observation's result
        is bitwise-identical whether it shares the call with 0 or 100
        others. Full-column observations only: dropout requests carry
        per-observation column subsets and take the single-observation
        path.

        Parameters
        ----------
        targets:
            ``(B, n)`` observed flux vectors (finite everywhere).
        ks:
            Per-observation match counts (length ``B``).

        Returns one ``(indices, thetas, residuals)`` triple per
        observation, ascending by residual.
        """
        sig = self.signatures
        targets = np.asarray(targets, dtype=float)
        if targets.ndim != 2 or targets.shape[1] != sig.shape[1]:
            raise ConfigurationError(
                f"targets must be (B, {sig.shape[1]}), got {targets.shape}"
            )
        if len(ks) != targets.shape[0]:
            raise ConfigurationError(
                f"need one k per target: {len(ks)} ks for "
                f"{targets.shape[0]} targets"
            )
        if self._sig_norms is None:
            self._sig_norms = np.einsum("cn,cn->c", sig, sig)
        den = self._sig_norms
        den_floor = np.maximum(den, 1e-300)[:, None]
        exponents = _target_exponents(targets)  # (B,)
        rescaled = exponents.any()
        if rescaled:  # rare: near-bound readings
            targets = np.ldexp(targets, -exponents[:, None])
        num = np.einsum("cn,bn->cb", sig, targets)  # (C, B)
        t2 = np.einsum("bn,bn->b", targets, targets)
        thetas = np.maximum(num / den_floor, 0.0)
        sq = np.maximum(
            t2[None, :] - 2.0 * thetas * num + thetas * thetas * den[:, None],
            0.0,
        )
        residuals = np.sqrt(sq)
        if rescaled:
            thetas = np.ldexp(thetas, exponents)
            residuals = np.ldexp(residuals, exponents)
        return [
            self._rank_matches(
                np.ascontiguousarray(residuals[:, b]),
                np.ascontiguousarray(thetas[:, b]),
                min(int(k), self.cell_count),
            )
            for b, k in enumerate(ks)
        ]

    @staticmethod
    def _rank_matches(
        residuals: np.ndarray, thetas: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        if k < residuals.shape[0]:
            part = np.argpartition(residuals, k - 1)[:k]
        else:
            part = np.arange(residuals.shape[0])
        order = part[np.argsort(residuals[part], kind="stable")]
        return order.astype(np.int64), thetas[order], residuals[order]
