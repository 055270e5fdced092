"""Engine benchmark trajectory: kernel evaluation + filtering round.

Two cases, both emitted into ``BENCH_engine.json`` through the shared
runner (:mod:`repro.engine.benchrunner`):

``kernel_pool``
    A large candidate pool evaluated through the legacy pair-grid
    implementation (:func:`reference_geometry_kernels`, the pre-engine
    code kept verbatim as oracle/baseline) vs the row-blocked broadcast
    evaluator. Records the evaluator's largest relative error against
    the reference, ``|dg| / max(1, |g|)``, and whether it is within
    ``REFERENCE_TOLERANCE``; and the traced Python-level peak
    allocation of both — the evidence that the evaluator's working set
    stays bounded while the reference materializes the ``(m*n, 2)``
    grid.

``filtering``
    The acceptance case: one 4-user / 1000-candidate / 3-sweep
    coordinate-descent filtering round, timed two ways: the
    *pre-engine* implementation reproduced bench-locally (reference
    kernels, per-row scipy NNLS fallback, unconditional final
    re-rank) and the shipped path. ``algorithm_speedup`` is the first
    against the second.

Both cases time their two sides in interleaved repeats, alternating
which side runs first (``measure_interleaved`` in
:mod:`repro.engine.benchrunner`), so a change in the host's load falls
on both sides and the ratios stay comparable between regenerations.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_engine.py [--quick] [--output P]
"""

from __future__ import annotations

import argparse
import json
from typing import List, Optional

import numpy as np

from repro.engine import (
    measure_interleaved,
    reference_geometry_kernels,
    write_bench_json,
)
from repro.fingerprint.nls import coordinate_descent
from repro.fingerprint.objective import (
    EvalWorkspace,
    FluxObjective,
    solve_thetas_batched,
)
from repro.fluxmodel.discrete import DiscreteFluxModel
from repro.geometry import RectangularField
from repro.network import build_network, sample_sniffers_percentage
from repro.traffic import MeasurementModel, simulate_flux

SEED = 20100621
#: The evaluator against the reference: ``|dg| <= tol * max(1, |g|)``.
REFERENCE_TOLERANCE = 1e-12


# ----------------------------------------------------------------------
# Scenario.
# ----------------------------------------------------------------------
def _deployment(quick: bool):
    if quick:
        net = build_network(
            field=RectangularField(15, 15), node_count=225, radius=2.0, rng=1234
        )
    else:
        net = build_network(
            field=RectangularField(30, 30), node_count=900, radius=2.4, rng=1234
        )
    sniffers = sample_sniffers_percentage(net, 10, rng=1)
    return net, sniffers


def _observation(net, sniffers, users: int):
    gen = np.random.default_rng(SEED)
    truth = net.field.sample_uniform(users, gen)
    stretches = gen.uniform(1.5, 2.5, users)
    flux = simulate_flux(net, list(truth), list(stretches), rng=gen)
    return MeasurementModel(net, sniffers, smooth=True, rng=gen).observe(flux)


# ----------------------------------------------------------------------
# Bench-local reproduction of the pre-engine filtering round.
# ----------------------------------------------------------------------
def _legacy_evaluate_batch(objective, candidate_kernels, fixed_kernels, ws):
    """The pre-engine ``FluxObjective.evaluate_batch`` body (preweighted)."""
    N, n = candidate_kernels.shape
    fixed_count = 0 if fixed_kernels is None else fixed_kernels.shape[0]
    if fixed_count == 0:
        stacks = candidate_kernels[:, None, :]
    else:
        stacks = ws.buffer("stacks", (N, 1 + fixed_count, n))
        stacks[:, 0, :] = candidate_kernels
        stacks[:, 1:, :] = fixed_kernels[None, :, :]
    return solve_thetas_batched(
        stacks, objective._weighted_target, workspace=ws, nnls_mode="scipy"
    )


def legacy_filtering_round(objective, pools, seed: int, sweeps: int):
    """The pre-engine coordinate-descent filtering round, reproduced.

    Reference pair-grid kernels, per-row scipy NNLS for every
    negative-theta composition, and the unconditional final re-rank of
    every user — the code path this PR replaced, timed as the honest
    serial baseline.
    """
    gen = np.random.default_rng(seed)
    K = len(pools)
    model = objective.model
    kernels = [
        objective._weight_kernels(
            reference_geometry_kernels(
                model.field, model.node_positions, np.asarray(p, float),
                model.d_floor,
            )
        )
        for p in pools
    ]
    workspaces = [EvalWorkspace() for _ in range(K)]
    order = np.arange(K)
    gen.shuffle(order)
    incumbents = np.zeros(K, dtype=np.int64)
    fixed_stack: List[np.ndarray] = []
    for j in order:
        fixed = np.asarray(fixed_stack) if fixed_stack else None
        _, objs = _legacy_evaluate_batch(objective, kernels[j], fixed, workspaces[j])
        best = int(np.argmin(objs))
        incumbents[j] = best
        fixed_stack.append(kernels[j][best])
    best_objective = np.inf
    for _ in range(max(1, sweeps)):
        improved = False
        gen.shuffle(order)
        for j in order:
            others = [k for k in range(K) if k != j]
            fixed = (
                np.stack([kernels[k][incumbents[k]] for k in others])
                if others
                else None
            )
            _, objs = _legacy_evaluate_batch(
                objective, kernels[j], fixed, workspaces[j]
            )
            best = int(np.argmin(objs))
            if objs[best] < best_objective - 1e-9:
                improved = True
                best_objective = float(objs[best])
                incumbents[j] = best
        if not improved:
            break
    rankings = []
    for j in range(K):
        others = [k for k in range(K) if k != j]
        fixed = (
            np.stack([kernels[k][incumbents[k]] for k in others]) if others else None
        )
        _, objs = _legacy_evaluate_batch(objective, kernels[j], fixed, workspaces[j])
        rankings.append(objs)
    return incumbents, best_objective, rankings


def filtering_round(objective, pools, seed: int, sweeps: int):
    return coordinate_descent(
        objective, pools, rng=np.random.default_rng(seed), sweeps=sweeps
    )


# ----------------------------------------------------------------------
# Cases.
# ----------------------------------------------------------------------
def case_kernel_pool(quick: bool, repeats: int):
    sinks_count = 2000 if quick else 10000
    net, sniffers = _deployment(quick)
    model = DiscreteFluxModel(net.field, net.positions[sniffers])
    gen = np.random.default_rng(SEED)
    sinks = net.field.sample_uniform(sinks_count, gen)

    reference, evaluator = measure_interleaved(
        [
            lambda: reference_geometry_kernels(
                model.field, model.node_positions, sinks, model.d_floor
            ),
            lambda: model.geometry_kernels(sinks),
        ],
        repeats=repeats,
        trace_memory=True,
    )

    want = reference_geometry_kernels(
        model.field, model.node_positions, sinks, model.d_floor
    )
    got = model.geometry_kernels(sinks)
    scale = np.maximum(np.abs(want), 1.0)
    max_rel_err = float(np.max(np.abs(got - want) / scale))
    return {
        "case": "kernel_pool",
        "sinks": int(sinks_count),
        "nodes": int(model.node_count),
        "reference": reference,
        "evaluator": evaluator,
        "speedup": reference["median_s"] / evaluator["median_s"],
        "reference_max_rel_err": max_rel_err,
        "reference_tolerance": REFERENCE_TOLERANCE,
        "within_reference_tolerance": max_rel_err <= REFERENCE_TOLERANCE,
        "traced_peak_ratio": (
            reference["traced_peak_bytes"]
            / max(evaluator["traced_peak_bytes"], 1)
        ),
    }


def case_filtering(quick: bool, repeats: int):
    users = 4
    candidates = 300 if quick else 1000
    sweeps = 2 if quick else 3
    net, sniffers = _deployment(quick)
    obs = _observation(net, sniffers, users)
    model = DiscreteFluxModel(net.field, net.positions[sniffers])
    objective = FluxObjective.from_observation(model, obs)
    gen = np.random.default_rng(SEED)
    pools = [net.field.sample_uniform(candidates, gen) for _ in range(users)]

    legacy, current = measure_interleaved(
        [
            lambda: legacy_filtering_round(objective, pools, SEED, sweeps),
            lambda: filtering_round(objective, pools, SEED, sweeps),
        ],
        repeats=repeats,
    )
    return {
        "case": "filtering",
        "users": users,
        "candidates_per_user": candidates,
        "sweeps": sweeps,
        "legacy_baseline": "pre-engine implementation (reference pair-grid "
        "kernels, per-row scipy NNLS, unconditional final re-rank)",
        "legacy": legacy,
        "current": current,
        "algorithm_speedup": legacy["median_s"] / current["median_s"],
    }


def run(quick: bool = False, output: Optional[str] = None):
    repeats = 2 if quick else 5
    records = [case_kernel_pool(quick, repeats), case_filtering(quick, repeats)]
    path = write_bench_json(
        "engine", records, path=output, meta={"quick": quick, "seed": SEED}
    )
    return path, records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small scenario, 2 repeats (CI smoke)",
    )
    parser.add_argument(
        "--output", default=None, help="output path (default BENCH_engine.json)"
    )
    args = parser.parse_args(argv)
    path, records = run(quick=args.quick, output=args.output)
    for record in records:
        print(json.dumps(
            {k: v for k, v in record.items() if not isinstance(v, dict)}
        ))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
