"""Figs. 5 & 6 — instant NLS localization.

Fig. 5: case studies with 1/2/3 users on the 900-node perturbed-grid
network (paper errors ~0.97 / 1.27 / 1.63; worst cases 1.78 / 2.06).
Fig. 6(a): localization error vs percentage of sampling nodes
(40/20/10/5 %) for 1-4 users; at 10% the paper reports
1.23/1.52/1.84/2.01 and a blow-up below 5%. Fig. 6(b): error vs node
count 900-1800 at a fixed 90 reports; mild improvement with density.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.experiments.config import PaperDefaults
from repro.experiments.harness import ExperimentResult
from repro.fingerprint.nls import NLSLocalizer
from repro.network.sampling import (
    sample_sniffers_percentage,
    sample_sniffers_random,
)
from repro.network.topology import Network, build_network
from repro.smc.association import assignment_errors
from repro.traffic.flux import simulate_flux
from repro.traffic.measurement import MeasurementModel
from repro.util.rng import RandomState, as_generator, spawn_generators


def _one_localization(
    net: Network,
    user_count: int,
    sniffers: np.ndarray,
    defaults: PaperDefaults,
    gen: np.random.Generator,
    restarts: int = 3,
):
    """One draw: users + flux + NLS fit. Returns (result, truth)."""
    truth = net.field.sample_uniform(user_count, gen)
    stretches = gen.uniform(defaults.stretch_low, defaults.stretch_high, user_count)
    flux = simulate_flux(net, list(truth), list(stretches), rng=gen)
    obs = MeasurementModel(net, sniffers, smooth=True, rng=gen).observe(flux)
    localizer = NLSLocalizer(net.field, net.positions[sniffers])
    result = localizer.localize(
        obs,
        user_count=user_count,
        candidate_count=defaults.candidate_count,
        top_m=defaults.top_m,
        restarts=restarts,
        rng=gen,
    )
    return result, truth


def run_fig5(
    user_counts: Sequence[int] = (1, 2, 3),
    defaults: Optional[PaperDefaults] = None,
    sniffer_percentage: float = 10.0,
    rng: RandomState = None,
) -> ExperimentResult:
    """Case studies: top-M prediction scatter around the true positions."""
    defaults = defaults if defaults is not None else PaperDefaults()
    gens = spawn_generators(rng, len(user_counts) + 1)
    net = build_network(
        node_count=defaults.node_count, radius=defaults.radius, rng=gens[-1]
    )
    rows = []
    metadata = {}
    for user_count, gen in zip(user_counts, gens):
        sniffers = sample_sniffers_percentage(net, sniffer_percentage, rng=gen)
        result, truth = _one_localization(net, user_count, sniffers, defaults, gen)
        per_fit_errors = np.stack(
            [assignment_errors(fit.positions, truth)[0] for fit in result.fits]
        )  # (M, K)
        rows.append(
            {
                "users": user_count,
                "avg_error": float(per_fit_errors.mean()),
                "max_error": float(per_fit_errors.max()),
                "majority_error": float(result.errors_to(truth).mean()),
            }
        )
        metadata[f"case_{user_count}_users"] = {
            "truth": truth,
            "top_fits": [fit.positions for fit in result.fits],
        }
    return ExperimentResult(
        figure="Fig 5",
        title="Instant localization case studies (top-10 fits)",
        rows=rows,
        paper_reference=(
            "avg error 0.97 / 1.27 / 1.63 for 1 / 2 / 3 users "
            "(30x30 field, 10k candidates); worst 1.78 / 2.06"
        ),
        metadata=metadata,
    )


def run_fig6a(
    user_counts: Sequence[int] = (1, 2, 3, 4),
    percentages: Optional[Sequence[float]] = None,
    repetitions: int = 5,
    defaults: Optional[PaperDefaults] = None,
    rng: RandomState = None,
) -> ExperimentResult:
    """Localization error vs percentage of sampling nodes."""
    if repetitions < 1:
        raise ConfigurationError(f"repetitions must be >= 1, got {repetitions}")
    defaults = defaults if defaults is not None else PaperDefaults()
    percentages = (
        tuple(percentages) if percentages is not None else defaults.percentages
    )
    gen = as_generator(rng)
    net = build_network(
        node_count=defaults.node_count, radius=defaults.radius, rng=gen
    )
    rows = []
    for pct in percentages:
        row = {"percentage": pct}
        for user_count in user_counts:
            errors = []
            for _ in range(repetitions):
                sniffers = sample_sniffers_percentage(net, pct, rng=gen)
                result, truth = _one_localization(
                    net, user_count, sniffers, defaults, gen
                )
                errors.append(float(result.errors_to(truth).mean()))
            row[f"{user_count}_user"] = float(np.mean(errors))
        rows.append(row)
    return ExperimentResult(
        figure="Fig 6a",
        title="Localization error vs percentage of sampling nodes",
        rows=rows,
        paper_reference=(
            "at 10%: 1.23 / 1.52 / 1.84 / 2.01 for 1-4 users; error "
            "blows up below 5%"
        ),
    )


def run_fig6b(
    user_counts: Sequence[int] = (1, 2, 3, 4),
    node_counts: Optional[Sequence[int]] = None,
    repetitions: int = 5,
    defaults: Optional[PaperDefaults] = None,
    rng: RandomState = None,
) -> ExperimentResult:
    """Localization error vs network density at a fixed 90 reports."""
    if repetitions < 1:
        raise ConfigurationError(f"repetitions must be >= 1, got {repetitions}")
    defaults = defaults if defaults is not None else PaperDefaults()
    node_counts = (
        tuple(node_counts) if node_counts is not None else defaults.density_node_counts
    )
    gen = as_generator(rng)
    rows = []
    for n in node_counts:
        net = build_network(node_count=n, radius=defaults.radius, rng=gen)
        row = {"node_count": n}
        for user_count in user_counts:
            errors = []
            for _ in range(repetitions):
                sniffers = sample_sniffers_random(
                    net, defaults.density_report_count, rng=gen
                )
                result, truth = _one_localization(
                    net, user_count, sniffers, defaults, gen
                )
                errors.append(float(result.errors_to(truth).mean()))
            row[f"{user_count}_user"] = float(np.mean(errors))
        rows.append(row)
    return ExperimentResult(
        figure="Fig 6b",
        title="Localization error vs network density (90 reports)",
        rows=rows,
        paper_reference=(
            "error decreases mildly as density rises 900 -> 1800; the "
            "impact of density is fairly limited"
        ),
    )
