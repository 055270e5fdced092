"""Core contribution #1: NLS fingerprinting of mobile-user positions.

Fits the discrete flux model (Formula 3.4) to sparse flux observations
by Non-linear Least Squares (paper Section IV.A). Positions enter the
objective non-linearly (and non-differentiably on rectangular fields),
so the search is sampling-based; the integrated stretch factors
``theta_j = s_j / r`` enter linearly and are solved in closed form.
"""

from repro.fingerprint.objective import (
    EvalWorkspace,
    FluxObjective,
    solve_thetas,
    solve_thetas_batched,
)
from repro.fingerprint.candidates import (
    UniformCandidates,
    DiscCandidates,
    MapSeededCandidates,
)
from repro.fingerprint.results import CompositionFit, LocalizationResult
from repro.fingerprint.nls import NLSLocalizer
from repro.fingerprint.briefing import BriefingResult, brief_flux_map
from repro.fingerprint.usercount import UserCountEstimate, estimate_user_count

__all__ = [
    "EvalWorkspace",
    "FluxObjective",
    "solve_thetas",
    "solve_thetas_batched",
    "UniformCandidates",
    "DiscCandidates",
    "MapSeededCandidates",
    "CompositionFit",
    "LocalizationResult",
    "NLSLocalizer",
    "BriefingResult",
    "brief_flux_map",
    "UserCountEstimate",
    "estimate_user_count",
]
