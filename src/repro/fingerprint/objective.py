"""The NLS objective ``min || F(positions, thetas) - F' ||``.

Key structure (paper Formula 4.1): the modeled flux is

    F_i = sum_j theta_j * g_i(p_j),    theta_j = s_j / r >= 0

— *linear* in the integrated stretch factors ``theta``. For any fixed
candidate positions the optimal thetas solve a tiny non-negative least
squares problem; we solve the unconstrained normal equations for whole
batches of candidate compositions at once and fall back to an
active-set NNLS only for the (rare) candidates whose unconstrained
solution goes negative.

Candidates are ranked without forming their residuals: at the fitted
thetas, ``||r||^2 - ||F||^2 = theta.(A - ridge I).theta - 2 theta.b``
follows from the normal equations just solved. The residual norm
itself — the objective every caller reports, compares or weights — is
computed only for the rows that can be among the ones asked for
(:class:`CandidateRanking`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, FittingError
from repro.fluxmodel.discrete import DiscreteFluxModel
from repro.traffic.measurement import FluxObservation

_RIDGE = 1e-10
#: Machine epsilon of float64 (twice the unit roundoff).
_EPS = float(np.finfo(float).eps)
#: The ranking margin's underflow unit over eps: eight times the most a
#: product can lose to gradual underflow (half the smallest subnormal,
#: 2^-1075), divided by eps so that the margin is formed on normal
#: numbers (subnormal arithmetic is slow).
_UNDERFLOW = math.ldexp(1.0, -1020)


class EvalWorkspace:
    """Reusable scratch buffers for repeated batched solves.

    The coordinate-descent search solves each user's candidate pool
    (:meth:`CandidatePool.solve`) with the same ``(N, K)`` shape every
    sweep; without reuse each call allocates its normal-equation
    matrices and right-hand sides anew (profile-visible churn). A
    workspace keyed by (name, shape) keeps one buffer per role alive
    across calls. Arrays handed back to the caller (thetas, keys,
    objectives) are always freshly allocated — only internal scratch
    is reused, so returned arrays stay valid across subsequent calls.
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
        to avoid reallocating the normal-equation buffers every sweep.
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

    predicted = np.einsum("bk,bkn->bn", th, G)
    predicted -= target[None, :]
    return th, np.linalg.norm(predicted, axis=1)


class CandidatePool:
    """One swept user's candidates against one target, ready to solve.

    Holds the ``(N, n)`` (already weighted) candidate kernels ``c`` and
    the ``(n,)`` target ``F`` with the per-row values every solve
    against them shares: ``c·c``, ``||c||`` (and its maximum) and
    ``c·F``. They do not depend on the other users' incumbents, so
    coordinate descent builds one pool per user and solves it against
    each new set of incumbents (:meth:`solve`) instead of recomputing
    them every sweep.
    """

    __slots__ = ("kernels", "target", "sq_norms", "norms", "max_norm",
                 "rhs", "key_scale", "target_norm")

    def __init__(self, kernels: np.ndarray, target: np.ndarray) -> None:
        kernels = np.asarray(kernels, dtype=float)
        target = np.asarray(target, dtype=float)
        if kernels.ndim != 2:
            raise ConfigurationError(
                f"candidate_kernels must be (N, n), got {kernels.shape}"
            )
        n = kernels.shape[1]
        if target.shape != (n,):
            raise ConfigurationError(
                f"target must have shape ({n},), got {target.shape}"
            )
        self.kernels = kernels
        self.target = target
        # All row products go through einsum rather than BLAS ``@``: gemm
        # picks blocking by matrix shape, so a block of rows can round
        # differently than the full batch — einsum's per-output-element
        # loops make every row's value independent of its batch mates,
        # which keeps a candidate's fit the same alone or in a fused batch.
        self.sq_norms = np.einsum("ij,ij->i", kernels, kernels)
        self.norms = np.sqrt(self.sq_norms)
        self.max_norm = float(self.norms.max(initial=0.0))
        self.rhs = np.einsum("ij,j->i", kernels, target)
        # Keys are computed on thetas and right-hand sides scaled down by
        # the exact power of two that brings max|F| into [0.5, 1), so
        # near-bound readings (whose squares sum just below the float64
        # maximum) cannot overflow a key. A smaller target keeps its
        # scale: the residual norms are formed unscaled, so scaling up
        # would make no comparison finer, and the power of two a
        # subnormal target needs is not a float64.
        peak = float(np.max(np.abs(target))) if n else 0.0
        exponent = max(math.frexp(peak)[1], 0) if math.isfinite(peak) else 0
        self.key_scale = math.ldexp(1.0, -exponent)
        scaled = target * self.key_scale
        self.target_norm = float(np.sqrt(np.dot(scaled, scaled)))

    def solve(
        self,
        fixed_kernels: Optional[np.ndarray] = None,
        workspace: Optional[EvalWorkspace] = None,
        nnls_mode: str = "auto",
    ) -> "CandidateRanking":
        """Fit every candidate alongside ``fixed_kernels``.

        Parameters
        ----------
        fixed_kernels:
            ``(F, n)`` (already weighted) incumbent kernels of the other
            users, or ``None``.
        workspace / nnls_mode:
            As in :func:`solve_thetas_batched`.

        Returns the :class:`CandidateRanking`; theta column 0 is the
        swept user. Equivalent to :func:`solve_thetas_batched` over
        stacks whose rows all share ``fixed_kernels``: the fixed-fixed
        normal block and right-hand side are computed once per call,
        the candidate block is one rank-1 border, and the ``(N, K, n)``
        stacked tensor is never materialized. No residual is formed
        here: the ranking computes it only for the rows it reports.
        """
        if nnls_mode not in ("auto", "scipy"):
            raise ConfigurationError(
                f"nnls_mode must be 'auto' or 'scipy', got {nnls_mode!r}"
            )
        c = self.kernels
        N, n = c.shape
        s = self.key_scale
        fixed = None
        if fixed_kernels is not None:
            fixed = np.asarray(fixed_kernels, dtype=float)
            if fixed.ndim != 2 or fixed.shape[1] != n:
                raise ConfigurationError(
                    f"fixed_kernels must be (F, {n}), got {fixed.shape}"
                )
            if fixed.shape[0] == 0:
                fixed = None
        if fixed is None:
            # The scalar normal equation; its exact NNLS clamps at zero.
            th = (self.rhs / (self.sq_norms + _RIDGE))[:, None]
            th[th < 0.0] = 0.0
            t0 = th[:, 0] * s
            keys = t0 * (t0 * self.sq_norms - 2.0 * s * self.rhs)
            # One margin bounds every row: theta >= 0 and |theta| ||c|| <=
            # |c.F| / ||c|| <= ||F|| (Cauchy-Schwarz).
            reach = (1.0 + s + 2.0 * self.target_norm + self.max_norm) + float(
                t0.max(initial=0.0)
            )
            slack = _margin(n, 1, 2.0 * self.target_norm, reach)
            return CandidateRanking(self, None, th, keys, slack)

        K = 1 + fixed.shape[0]
        ws = workspace if workspace is not None else EvalWorkspace()
        A = ws.buffer("normal", (N, K, K))
        b = ws.buffer("rhs", (N, K))
        Aff = fixed @ fixed.T
        bf = fixed @ self.target
        border = np.einsum("ij,kj->ik", c, fixed)  # (N, K - 1)
        np.add(self.sq_norms, _RIDGE, out=A[:, 0, 0])
        A[:, 0, 1:] = border
        A[:, 1:, 0] = border
        A[:, 1:, 1:] = Aff
        diag = np.arange(1, K)
        A[:, diag, diag] += _RIDGE
        b[:, 0] = self.rhs
        b[:, 1:] = bf
        th = _solve_normal(A, b)

        negative = np.any(th < 0, axis=1)
        if np.any(negative):
            bad = np.flatnonzero(negative)
            if nnls_mode == "auto" and K <= _NNLS_ENUM_MAX_K:
                th[bad] = _nnls_enumerate(A[bad], b[bad], skip_full=True)
            else:
                from scipy.optimize import nnls

                for idx in bad:
                    stack = np.concatenate([c[idx : idx + 1], fixed], axis=0)
                    th[idx], _ = nnls(stack.T, self.target)

        # The closed form ||r||^2 - ||F||^2 = theta.(A - ridge I).theta
        # - 2 theta.b, on the scaled thetas and right-hand sides.
        t = th * s
        t0 = t[:, 0]
        tf = t[:, 1:]
        cross = np.einsum("ij,ij->i", border, tf)
        keys = t0 * (t0 * self.sq_norms + 2.0 * (cross - s * self.rhs))
        keys += np.einsum("ij,ij->i", tf, tf @ Aff - 2.0 * s * bf)
        size = np.abs(t)
        fixed_norms = np.sqrt(np.diag(Aff))
        tau = (
            size[:, 0] * self.norms + size[:, 1:] @ fixed_norms
            + self.target_norm
        )
        reach = (  # row sums by matmul: sum(axis=1) is slow at K=2
            (1.0 + s + self.max_norm + float(fixed_norms.sum()))
            + size @ np.ones(K) + tau
        )
        slack = _margin(n, K, tau, reach)
        return CandidateRanking(self, fixed, th, keys, slack)


def _margin(n: int, K: int, tau, reach):
    """The selection margin of :class:`CandidateRanking` (scaled units).

    ``tau`` bounds the rounding term, ``reach`` the underflow term;
    scalars or ``(N,)`` arrays.
    """
    return ((2 * n + K * K + 2 * K + 16) * _EPS) * (
        tau * tau + _UNDERFLOW * (reach * reach)
    )


class CandidateRanking:
    """Every candidate's fit against one set of incumbents, ranked.

    Attributes
    ----------
    thetas:
        ``(N, K)`` fitted stretch factors, swept user in column 0.
    keys:
        ``(N,)`` closed-form objective keys,
        ``(||r||^2 - ||F||^2) * key_scale^2``.
    slack:
        Bound on each key's distance from the exact objective squared
        (same units): ``(N,)``, or one scalar when no user is fixed.

    The exact objective of a row is its residual norm
    ``||G^T theta - F||``, formed and reduced row by row; :meth:`top`
    evaluates it only on the rows that can be among the k best.

    **The selection rule.** Let ``v`` be a row's computed residual
    norm and ``q`` its computed key, both in units scaled by
    ``s = key_scale``. With unit roundoff ``u = eps/2``, ``tau = sum_k
    |theta_k| ||c_k|| + ||F||`` and ``n`` sniffers, standard
    floating-point bounds on the key's dot products and on the
    residual's sums give ``|q - (v^2 - ||F||^2)| <= (n + K^2/2 + K +
    4) * eps * tau^2`` for any kernels and thetas, as long as nothing
    underflows. Gradual underflow adds at most ``eta = 2^-1075`` to
    each product; over the ``O(n + K^2)`` products of both sides that
    is at most ``(3n + 2K^2 + 3K + 6) * eta * reach^2``, for any
    ``reach >= 1 + s + sum_k |theta_k| + sum_k ||c_k|| + tau`` (the
    swept user's ``||c||`` is taken as the pool's largest). ``slack``
    is ``(2n + K^2 + 2K + 16) * eps * (tau^2 + 2^-1020 reach^2)``, at
    least twice the sum, which also covers the rounding of the bound
    itself; ``reach >= 1`` keeps every term of it normal.

    If ``t`` is the k-th smallest ``q + slack``, the k rows it counts
    have ``v^2 - ||F||^2 <= t``, so every row of the exact top k has
    ``q - slack <= t``: those rows, and only those, get their
    residual. A NaN key or margin fails every comparison, so its row
    is formed and sorts after every number; an infinite margin forms
    its row; ``t`` is not finite, and every row is formed, when fewer
    than k rows are left. With no user fixed, ``tau <= 2 ||F||`` and
    one scalar margin covers every row.

    The thetas are a ridge or NNLS optimum, so ``||r|| <= ||F||`` up
    to rounding. A residual norm can therefore overflow only when
    ``||F||^2`` is within rounding of the float64 maximum; its key is
    then within its margin of that maximum less ``||F||^2``, as close
    to the keys of the finite rows beside it as the rule needs, so the
    rule holds for it too. For non-negative kernels ``tau <= (1 + 2
    sqrt(K)) ||F||``, so the margin is ``O((n + K^2) K eps ||F||^2)``:
    in practice the k rows and their near-ties. The underflow term
    only counts where the data or the thetas near the subnormal range:
    for a target whose squares underflow, or kernels that small, every
    row is formed.
    """

    __slots__ = ("pool", "fixed", "thetas", "keys", "slack")

    def __init__(self, pool: CandidatePool, fixed: Optional[np.ndarray],
                 thetas: np.ndarray, keys: np.ndarray,
                 slack: np.ndarray) -> None:
        self.pool = pool
        self.fixed = fixed
        self.thetas = thetas
        self.keys = keys
        self.slack = slack

    def exact_objectives(self, rows: np.ndarray) -> np.ndarray:
        """The residual norms ``||G^T theta - F||`` of ``rows``.

        Each row is formed and reduced on its own, so a row's value is
        the same whichever rows are evaluated with it.
        """
        rows = np.asarray(rows, dtype=np.int64)
        th = self.thetas[rows]
        predicted = self.pool.kernels[rows] * th[:, 0:1]
        if self.fixed is not None:
            predicted += np.einsum("ik,kn->in", th[:, 1:], self.fixed)
        predicted -= self.pool.target[None, :]
        return np.linalg.norm(predicted, axis=1)

    def candidate_rows(self, k: int) -> np.ndarray:
        """The ascending rows that can be among the ``k`` best."""
        N = self.keys.shape[0]
        if k >= N:
            return np.arange(N)
        bound = np.partition(self.keys + self.slack, k - 1)[k - 1]
        return np.flatnonzero(~(self.keys - self.slack > bound))

    def top(self, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(rows, objectives)`` of the ``min(k, N)`` best candidates.

        Ordered by exact objective, then by row (NaN last) — the first
        ``k`` of ``np.argsort(all_objectives, kind="stable")``.
        """
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        rows = self.candidate_rows(k)
        objectives = self.exact_objectives(rows)
        order = np.argsort(objectives, kind="stable")[:k]
        return rows[order], objectives[order]


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

    Each row is solved on its right-hand side scaled by an exact power
    of two that brings its largest entry into [0.5, 1): every support's
    thetas and proxy scale exactly with it, so the choice and the
    thetas are those of the unscaled arithmetic, but the proxy of
    near-bound readings cannot overflow.
    """
    V, K = b.shape
    exponent = np.frexp(np.max(np.abs(b), axis=1))[1][:, None]
    b = np.ldexp(b, -exponent)
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
    return np.ldexp(best_theta, exponent)


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
