"""The NLS objective ``min || F(positions, thetas) - F' ||``.

Key structure (paper Formula 4.1): the modeled flux is

    F_i = sum_j theta_j * g_i(p_j),    theta_j = s_j / r >= 0

— *linear* in the integrated stretch factors ``theta``. For any fixed
candidate positions the optimal thetas solve a tiny non-negative least
squares problem; we solve the unconstrained normal equations for whole
batches of candidate compositions at once and fall back to an
active-set NNLS only for the (rare) candidates whose unconstrained
solution goes negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, FittingError
from repro.fluxmodel.discrete import DiscreteFluxModel
from repro.traffic.measurement import FluxObservation

_RIDGE = 1e-10


class EvalWorkspace:
    """Reusable scratch buffers for repeated batched evaluations.

    The coordinate-descent search calls :meth:`FluxObjective.
    evaluate_batch` with the same ``(N, K, n)`` shape every sweep;
    without reuse each call allocates the stacked-kernel tensor, the
    normal-equation matrices, and the prediction buffer anew
    (profile-visible churn). A workspace keyed by (name, shape) keeps
    one buffer per role alive across calls. Output arrays handed back
    to the caller (thetas, objectives) are always freshly allocated —
    only internal scratch is reused, so returned arrays stay valid
    across subsequent calls.
    """

    def __init__(self) -> None:
        self._buffers: dict = {}

    def buffer(self, name: str, shape: Tuple[int, ...]) -> np.ndarray:
        buf = self._buffers.get(name)
        if buf is None or buf.shape != shape:
            buf = np.empty(shape, dtype=float)
            self._buffers[name] = buf
        return buf


def solve_thetas(kernels: np.ndarray, target: np.ndarray) -> Tuple[np.ndarray, float]:
    """Non-negative LS for one composition.

    Parameters
    ----------
    kernels:
        ``(K, n)`` geometry kernels (one row per user).
    target:
        ``(n,)`` observed flux.

    Returns
    -------
    ``(thetas, objective)`` where ``objective = ||kernels.T @ thetas - target||_2``.
    """
    kernels = np.asarray(kernels, dtype=float)
    target = np.asarray(target, dtype=float)
    if kernels.ndim != 2 or kernels.shape[1] != target.shape[0]:
        raise ConfigurationError(
            f"kernels {kernels.shape} incompatible with target {target.shape}"
        )
    from scipy.optimize import nnls

    thetas, residual = nnls(kernels.T, target)
    return thetas, float(residual)


# Largest K solved by exact support enumeration (2^K - 1 batched tiny
# solves); beyond it the scipy per-row fallback takes over.
_NNLS_ENUM_MAX_K = 8


def solve_thetas_batched(
    kernel_stacks: np.ndarray,
    target: np.ndarray,
    workspace: Optional[EvalWorkspace] = None,
    nnls_mode: str = "auto",
) -> Tuple[np.ndarray, np.ndarray]:
    """Non-negative LS for a batch of compositions.

    Parameters
    ----------
    kernel_stacks:
        ``(B, K, n)`` — B candidate compositions of K users over n
        sniffers.
    target:
        ``(n,)`` observed flux.
    workspace:
        Optional scratch-buffer pool; pass one per repeated call site
        to avoid reallocating the normal-equation and prediction
        buffers every sweep.
    nnls_mode:
        ``"auto"`` (default) — negative-theta compositions are re-solved
        by exact batched support enumeration for ``K <= 8`` (one tiny
        vectorized solve per support instead of one Python-level scipy
        call per composition); ``"scipy"`` — always the per-row scipy
        NNLS (the pre-engine behavior, kept for benchmarks/ablation).

    Returns
    -------
    ``(thetas, objectives)`` with shapes ``(B, K)`` and ``(B,)`` —
    always freshly allocated (safe to retain across calls).

    Strategy: batched unconstrained normal equations (one
    ``np.linalg.solve`` over stacked K x K systems); compositions whose
    solution violates ``theta >= 0`` are re-solved exactly with NNLS.
    """
    kernel_stacks = np.asarray(kernel_stacks, dtype=float)
    target = np.asarray(target, dtype=float)
    if kernel_stacks.ndim != 3:
        raise ConfigurationError(
            f"kernel_stacks must be (B, K, n), got {kernel_stacks.shape}"
        )
    if nnls_mode not in ("auto", "scipy"):
        raise ConfigurationError(
            f"nnls_mode must be 'auto' or 'scipy', got {nnls_mode!r}"
        )
    B, K, n = kernel_stacks.shape
    if target.shape != (n,):
        raise ConfigurationError(
            f"target must have shape ({n},), got {target.shape}"
        )
    ws = workspace if workspace is not None else EvalWorkspace()
    G = kernel_stacks
    # Normal equations: A = G G^T (B, K, K), b = G F' (B, K).
    A = np.matmul(G, G.transpose(0, 2, 1), out=ws.buffer("normal", (B, K, K)))
    b = np.matmul(G, target, out=ws.buffer("rhs", (B, K)))
    predicted = ws.buffer("predicted", (B, n))
    diag = np.arange(K)
    A[:, diag, diag] += _RIDGE
    th = _solve_normal(A, b)

    negative = np.any(th < 0, axis=1)
    if np.any(negative):
        bad = np.flatnonzero(negative)
        if nnls_mode == "auto" and K <= _NNLS_ENUM_MAX_K:
            th[bad] = _nnls_enumerate(A[bad], b[bad], skip_full=True)
        else:
            from scipy.optimize import nnls

            for idx in bad:
                th[idx], _ = nnls(G[idx].T, target)

    np.einsum("bk,bkn->bn", th, G, out=predicted)
    predicted -= target[None, :]
    return th, np.linalg.norm(predicted, axis=1)


def solve_thetas_candidates(
    candidate_kernels: np.ndarray,
    fixed_kernels: Optional[np.ndarray],
    target: np.ndarray,
    workspace: Optional[EvalWorkspace] = None,
    nnls_mode: str = "auto",
) -> Tuple[np.ndarray, np.ndarray]:
    """Factored NNLS for sweep-shaped batches (one varying user).

    Equivalent to :func:`solve_thetas_batched` over stacks whose rows
    all share the same ``fixed_kernels``, exploiting that structure:
    the fixed-fixed normal block and right-hand side are computed once
    per call instead of per candidate, the candidate block is one
    rank-1 border, and the ``(N, K, n)`` stacked tensor is never
    materialized. This is the coordinate-descent hot path — every sweep
    evaluates thousands of candidates against a handful of incumbents.

    Parameters
    ----------
    candidate_kernels:
        ``(N, n)`` (already weighted) kernels of the swept user.
    fixed_kernels:
        ``(F, n)`` (already weighted) incumbent kernels of the other
        users, or ``None``.
    target / workspace / nnls_mode:
        As in :func:`solve_thetas_batched`.

    Returns ``(thetas, objectives)`` of shapes ``(N, 1 + F)`` and
    ``(N,)``; theta column 0 is the swept user.
    """
    candidate_kernels = np.asarray(candidate_kernels, dtype=float)
    target = np.asarray(target, dtype=float)
    if candidate_kernels.ndim != 2:
        raise ConfigurationError(
            f"candidate_kernels must be (N, n), got {candidate_kernels.shape}"
        )
    N, n = candidate_kernels.shape
    if target.shape != (n,):
        raise ConfigurationError(
            f"target must have shape ({n},), got {target.shape}"
        )
    if fixed_kernels is None:
        fixed = None
        Aff = bf = None
        K = 1
    else:
        fixed = np.asarray(fixed_kernels, dtype=float)
        if fixed.ndim != 2 or fixed.shape[1] != n:
            raise ConfigurationError(
                f"fixed_kernels must be (F, {n}), got {fixed.shape}"
            )
        Aff = fixed @ fixed.T
        bf = fixed @ target
        K = 1 + fixed.shape[0]
    F = K - 1
    ws = workspace if workspace is not None else EvalWorkspace()
    c = candidate_kernels
    A = ws.buffer("normal", (N, K, K))
    b = ws.buffer("rhs", (N, K))
    predicted = ws.buffer("predicted", (N, n))
    # All row products go through einsum rather than BLAS ``@``: gemm
    # picks blocking by matrix shape, so a block of rows can round
    # differently than the full batch — einsum's per-output-element
    # loops make every row's value independent of its batch mates,
    # which keeps a candidate's fit the same alone or in a fused batch.
    np.einsum("ij,ij->i", c, c, out=A[:, 0, 0])
    A[:, 0, 0] += _RIDGE
    np.einsum("ij,j->i", c, target, out=b[:, 0])
    if F:
        border = np.einsum("ij,kj->ik", c, fixed)  # (N, F)
        A[:, 0, 1:] = border
        A[:, 1:, 0] = border
        A[:, 1:, 1:] = Aff
        diag = np.arange(1, K)
        A[:, diag, diag] += _RIDGE
        b[:, 1:] = bf
        th = _solve_normal(A, b)
    else:
        th = b / A[:, :, 0]  # (N, 1) — scalar normal equation

    negative = np.any(th < 0, axis=1)
    if np.any(negative):
        bad = np.flatnonzero(negative)
        if nnls_mode == "auto" and K <= _NNLS_ENUM_MAX_K:
            th[bad] = _nnls_enumerate(A[bad], b[bad], skip_full=True)
        else:
            from scipy.optimize import nnls

            for idx in bad:
                stack = (
                    np.concatenate([c[idx : idx + 1], fixed], axis=0)
                    if F
                    else c[idx : idx + 1]
                )
                th[idx], _ = nnls(stack.T, target)

    np.multiply(c, th[:, 0:1], out=predicted)
    if F:
        predicted += np.einsum("ik,kn->in", th[:, 1:], fixed)
    predicted -= target[None, :]
    return th, np.linalg.norm(predicted, axis=1)


def _nnls_enumerate(
    A: np.ndarray, b: np.ndarray, skip_full: bool = False
) -> np.ndarray:
    """Exact batched NNLS for tiny K via support enumeration.

    ``min ||G^T theta - F||, theta >= 0`` attains its optimum at the
    unconstrained least-squares solution restricted to the optimum's
    support set, and any support whose restricted solution is
    non-negative yields a feasible candidate; minimizing over *all*
    non-empty supports therefore recovers the exact NNLS optimum. For
    the K of this problem (a handful of users) that is a few dozen
    batched tiny solves over only the violating rows — orders of
    magnitude cheaper than one Python-level scipy NNLS per composition,
    which profiling showed dominating whole filtering rounds. Supports
    of size 1 and 2 use closed forms (no LAPACK dispatch); a support
    whose system is numerically singular yields non-finite thetas and
    is simply never selected.

    Parameters
    ----------
    A / b:
        ``(V, K, K)`` ridged normal matrices and ``(V, K)`` right-hand
        sides of the violating rows.
    skip_full:
        Skip the full support. Exact when every row's *unconstrained*
        solution was infeasible (the callers' precondition): the full
        support's stationary point is that same infeasible solution.

    Returns ``(V, K)`` thetas (zero on non-support coordinates).
    Minimizes the residual proxy ``theta.A.theta - 2 theta.b`` (equal
    to ``||G^T theta - F||^2`` up to the constant ``||F||^2``).
    """
    V, K = b.shape
    best_q = np.zeros(V)  # empty support: theta = 0, proxy 0
    best_theta = np.zeros((V, K))
    full = (1 << K) - 1
    with np.errstate(divide="ignore", invalid="ignore"):
        for mask in range(1, full + 1):
            if skip_full and mask == full:
                continue
            support = [k for k in range(K) if (mask >> k) & 1]
            size = len(support)
            b_s = b[:, support]
            if size == 1:
                (i,) = support
                a = A[:, i, i]
                th = b_s / a[:, None]
                q = th[:, 0] * (a * th[:, 0] - 2.0 * b_s[:, 0])
            elif size == 2:
                i, j = support
                a11 = A[:, i, i]
                a22 = A[:, j, j]
                a12 = A[:, i, j]
                det = a11 * a22 - a12 * a12
                t0 = (a22 * b_s[:, 0] - a12 * b_s[:, 1]) / det
                t1 = (a11 * b_s[:, 1] - a12 * b_s[:, 0]) / det
                th = np.stack([t0, t1], axis=1)
                q = (
                    t0 * (a11 * t0 + a12 * t1)
                    + t1 * (a12 * t0 + a22 * t1)
                    - 2.0 * (t0 * b_s[:, 0] + t1 * b_s[:, 1])
                )
            else:
                A_s = A[:, support][:, :, support]
                th = _solve_normal(A_s, b_s)
                q = np.einsum("vi,vij,vj->v", th, A_s, th) - 2.0 * np.einsum(
                    "vi,vi->v", th, b_s
                )
            feasible = np.all(th >= 0.0, axis=1)  # non-finite rows drop out
            if not np.any(feasible):
                continue
            better = feasible & (q < best_q)
            if np.any(better):
                rows = np.flatnonzero(better)
                best_q[rows] = q[rows]
                best_theta[rows] = 0.0
                best_theta[np.ix_(rows, support)] = th[rows]
    return best_theta


def _solve_normal(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the stacked ``(B, K, K)`` systems ``A theta = b`` row-locally.

    One batched LU solve, which LAPACK runs matrix by matrix. A matrix
    can still be exactly singular when the ridge is below half an ulp
    of its diagonal (a repeated user, say); then the batch is solved
    again row by row and only the singular rows take the
    pseudo-inverse, so every row's thetas stay independent of its
    batch mates.
    """
    try:
        return np.linalg.solve(A, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        pass
    th = np.empty(b.shape)
    for row in range(len(b)):
        A_r, b_r = A[row : row + 1], b[row : row + 1]
        try:
            th[row] = np.linalg.solve(A_r, b_r[..., None])[0, :, 0]
        except np.linalg.LinAlgError:
            th[row] = _pinv_solve(A_r, b_r)[0]
    return th


def _pinv_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Batched pseudo-inverse over stacked (B, K, K) systems — one gufunc
    # call, matrix by matrix.
    return np.matmul(np.linalg.pinv(A), b[..., None])[..., 0]


@dataclass
class FluxObjective:
    """Bound objective: a flux model over the sniffer nodes plus one observation.

    Handles NaN readings (sniffer dropout) by masking them out of both
    the kernels and the target. Optional per-sniffer ``weights`` turn
    the residual into a weighted LS problem; *relative* weighting
    (``w_i ~ 1/F'_i``) stops the huge near-sink fluxes from dominating
    the fit, which matters because the model is least accurate exactly
    there (paper Fig. 3b).
    """

    model: DiscreteFluxModel
    target: np.ndarray
    weights: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.target = np.asarray(self.target, dtype=float)
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=float)
            if self.weights.shape != self.target.shape:
                raise ConfigurationError(
                    f"weights {self.weights.shape} must match target "
                    f"{self.target.shape}"
                )
            if np.any(self.weights <= 0) or not np.all(np.isfinite(self.weights)):
                raise ConfigurationError("weights must be finite and positive")
        self._weighted_target = (
            self.target if self.weights is None else self.weights * self.target
        )

    @classmethod
    def from_observation(
        cls,
        model: DiscreteFluxModel,
        observation: FluxObservation,
        weighting: str = "absolute",
    ) -> "FluxObjective":
        """Build from a :class:`FluxObservation` over the same sniffer set.

        Parameters
        ----------
        weighting:
            ``"absolute"`` — plain LS on raw flux residuals (the
            paper's formulation and our default); ``"relative"`` —
            residuals scaled by ``1 / max(F'_i, median positive flux)``
            so every sniffer contributes comparably (see the weighting
            ablation bench; helps single-user, hurts multi-user).
        """
        values = np.asarray(observation.values, dtype=float)
        if values.shape[0] != model.node_count:
            raise ConfigurationError(
                f"observation has {values.shape[0]} readings but the model covers "
                f"{model.node_count} nodes"
            )
        good = ~np.isnan(values)
        if not np.any(good):
            raise FittingError("all sniffer readings dropped out; cannot fit")
        if not np.all(good):
            model = model.restrict_to(np.flatnonzero(good))
            values = values[good]
        if weighting == "absolute":
            weights = None
        elif weighting == "relative":
            positive = values[values > 0]
            floor = float(np.median(positive)) if positive.size else 1.0
            weights = 1.0 / np.maximum(values, max(floor, 1e-12))
        else:
            raise ConfigurationError(
                f"weighting must be 'absolute' or 'relative', got {weighting!r}"
            )
        return cls(model=model, target=values, weights=weights)

    @property
    def sniffer_count(self) -> int:
        return int(self.target.shape[0])

    def _weight_kernels(self, kernels: np.ndarray) -> np.ndarray:
        if self.weights is None:
            return kernels
        return kernels * self.weights  # broadcasts over leading axes

    def evaluate(self, sinks: np.ndarray) -> Tuple[np.ndarray, float]:
        """Best thetas and objective for one composition of sink positions."""
        kernels = self.model.geometry_kernels(np.asarray(sinks, dtype=float))
        return solve_thetas(self._weight_kernels(kernels), self._weighted_target)

    def evaluate_batch(
        self,
        candidate_kernels: np.ndarray,
        fixed_kernels: Optional[np.ndarray] = None,
        workspace: Optional[EvalWorkspace] = None,
        preweighted: bool = False,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Evaluate many single-user candidates against fixed co-users.

        Parameters
        ----------
        candidate_kernels:
            ``(N, n)`` kernels of N candidate positions for the user
            being swept.
        fixed_kernels:
            ``(K-1, n)`` kernels of the other users' incumbent
            positions, or ``None`` for the single-user case.
        workspace:
            Optional scratch-buffer pool reused across sweeps; callers
            evaluating the same pool repeatedly (coordinate descent)
            pass one per pool so the stacked-kernel tensor and solver
            scratch are allocated once instead of per call.
        preweighted:
            The kernels were already passed through per-sniffer
            weighting (:meth:`_weight_kernels`); skip re-weighting.
            Lets sweep loops weight each candidate pool once up front.

        Returns
        -------
        ``(thetas, objectives)`` of shapes ``(N, K)`` and ``(N,)``
        where the *first* theta column corresponds to the swept user.
        Both are freshly allocated on every call.
        """
        candidate_kernels = np.asarray(candidate_kernels, dtype=float)
        if candidate_kernels.ndim != 2:
            raise ConfigurationError(
                f"candidate_kernels must be (N, n), got {candidate_kernels.shape}"
            )
        ws = workspace if workspace is not None else EvalWorkspace()
        N, n = candidate_kernels.shape
        # Both the single- and multi-user paths go through the factored
        # solver on workspace-pooled buffers: no ``(N, K, n)`` stack is
        # materialized, and when weighting applies it is written
        # straight into the pooled candidate buffer (no weighted temp).
        if preweighted or self.weights is None:
            cand = candidate_kernels
        else:
            cand = np.multiply(
                candidate_kernels, self.weights, out=ws.buffer("cand", (N, n))
            )
        if fixed_kernels is None:
            fixed = None
        else:
            fixed = np.asarray(fixed_kernels, dtype=float)
            if not preweighted:
                fixed = self._weight_kernels(fixed)
        return solve_thetas_candidates(
            cand, fixed, self._weighted_target, workspace=ws
        )
