"""repro — reproduction of *Fingerprinting Mobile User Positions in
Sensor Networks* (Li, Jiang & Guibas, IEEE ICDCS 2010).

The library simulates mobile users collecting data over a wireless
sensor network, models the resulting per-node traffic flux, and
implements the paper's passive-sniffing attack: NLS fitting of the
flux model to sparse flux samples (instant localization) and
Sequential Monte Carlo estimation (continuous tracking), plus the
trace-driven evaluation pipeline and traffic-reshaping defenses.

Quick start::

    import numpy as np
    from repro import (
        build_network, simulate_flux, sample_sniffers_percentage,
        MeasurementModel, NLSLocalizer,
    )

    net = build_network(rng=1)                      # paper defaults
    truth = net.field.sample_uniform(2, np.random.default_rng(2))
    flux = simulate_flux(net, list(truth), [2.0, 1.5], rng=3)
    sniffers = sample_sniffers_percentage(net, 10, rng=4)
    obs = MeasurementModel(net, sniffers, smooth=True, rng=5).observe(flux)
    localizer = NLSLocalizer(net.field, net.positions[sniffers])
    result = localizer.localize(obs, user_count=2, rng=6)
    print(result.position_estimates(), result.errors_to(truth))
"""

from repro.errors import (
    AdmissionError,
    ConfigurationError,
    ConnectivityError,
    DeadlineExpired,
    DeploymentError,
    EngineError,
    FaultInjected,
    FittingError,
    GeometryError,
    ReproError,
    RetriesExhausted,
    ServeError,
    StreamError,
    TraceError,
    TrackingError,
    WorkerCrashed,
)
from repro.faults import FaultPlan, FaultSpec, RetryPolicy, injected
from repro.geometry import CircularField, PolygonField, RectangularField
from repro.network import (
    Network,
    build_network,
    sample_sniffers_percentage,
    sample_sniffers_random,
    sample_sniffers_stratified,
)
from repro.routing import CollectionTree, build_collection_tree
from repro.traffic import (
    CollectionEvent,
    CollectionSchedule,
    FluxSimulator,
    MeasurementModel,
    simulate_flux,
    smooth_flux,
    synchronous_schedule,
)
from repro.fluxmodel import DiscreteFluxModel, continuous_flux, model_flux
from repro.fingerprint import (
    CompositionFit,
    LocalizationResult,
    NLSLocalizer,
    brief_flux_map,
)
from repro.fpmap import (
    FingerprintMap,
    MapRegistry,
    SpatialIndex,
    build_fingerprint_map,
)
from repro.smc import (
    SequentialMonteCarloTracker,
    TrackerConfig,
    TrackerStep,
)
from repro.mobility import Trajectory
from repro.stream import (
    ReplaySource,
    SyntheticLiveSource,
    TrackingSession,
    run_stream,
)
from repro.traces import TraceDataset, build_synthetic_dataset

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "ConfigurationError",
    "GeometryError",
    "DeploymentError",
    "ConnectivityError",
    "FittingError",
    "TrackingError",
    "TraceError",
    "StreamError",
    "ServeError",
    "AdmissionError",
    "DeadlineExpired",
    "EngineError",
    "WorkerCrashed",
    "RetriesExhausted",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "RetryPolicy",
    "injected",
    "RectangularField",
    "CircularField",
    "PolygonField",
    "Network",
    "build_network",
    "sample_sniffers_random",
    "sample_sniffers_percentage",
    "sample_sniffers_stratified",
    "CollectionTree",
    "build_collection_tree",
    "CollectionEvent",
    "CollectionSchedule",
    "synchronous_schedule",
    "FluxSimulator",
    "simulate_flux",
    "smooth_flux",
    "MeasurementModel",
    "DiscreteFluxModel",
    "continuous_flux",
    "model_flux",
    "NLSLocalizer",
    "LocalizationResult",
    "CompositionFit",
    "brief_flux_map",
    "FingerprintMap",
    "MapRegistry",
    "SpatialIndex",
    "build_fingerprint_map",
    "SequentialMonteCarloTracker",
    "TrackerConfig",
    "TrackerStep",
    "Trajectory",
    "ReplaySource",
    "SyntheticLiveSource",
    "TrackingSession",
    "run_stream",
    "TraceDataset",
    "build_synthetic_dataset",
    "__version__",
]
