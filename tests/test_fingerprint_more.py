"""Additional fingerprint-path tests: dropout through the full
pipeline, enumeration edge cases."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.fingerprint import NLSLocalizer
from repro.fingerprint.nls import enumerate_compositions
from repro.fingerprint.objective import FluxObjective
from repro.fluxmodel.discrete import DiscreteFluxModel
from repro.geometry import RectangularField
from repro.network import sample_sniffers_percentage
from repro.traffic import DropoutNoise, MeasurementModel, simulate_flux
from repro.traffic.measurement import FluxObservation


class TestLocalizeWithGenerators:
    def test_dropout_flows_through_localize(self, small_network):
        gen = np.random.default_rng(3)
        truth = np.array([[5.0, 10.0]])
        flux = simulate_flux(small_network, list(truth), [2.0], rng=gen)
        sniffers = sample_sniffers_percentage(small_network, 30, rng=gen)
        obs = MeasurementModel(
            small_network,
            sniffers,
            noise=DropoutNoise(0.4),
            smooth=True,
            rng=gen,
        ).observe(flux)
        assert np.any(np.isnan(obs.values))
        loc = NLSLocalizer(small_network.field, small_network.positions[sniffers])
        result = loc.localize(
            obs, user_count=1, candidate_count=400, rng=gen
        )
        assert float(result.errors_to(truth)[0]) < 5.0


class TestEnumerationEdges:
    def _objective(self):
        field = RectangularField(10, 10)
        gen = np.random.default_rng(0)
        nodes = field.sample_uniform(25, gen)
        model = DiscreteFluxModel(field, nodes, d_floor=0.5)
        truth = np.array([[3.0, 3.0]])
        values = model.predict(truth, [1.0])
        obs = FluxObservation(time=0.0, sniffers=np.arange(25), values=values)
        return field, FluxObjective.from_observation(model, obs)

    def test_top_m_larger_than_pool(self):
        field, objective = self._objective()
        pools = [field.sample_uniform(4, np.random.default_rng(1))]
        fits = enumerate_compositions(objective, pools, top_m=10)
        assert len(fits) == 4

    def test_single_candidate(self):
        field, objective = self._objective()
        pools = [np.array([[3.0, 3.0]])]
        fits = enumerate_compositions(objective, pools, top_m=1)
        assert len(fits) == 1
        assert fits[0].objective < 1e-6

    def test_three_user_enumeration(self):
        field, objective = self._objective()
        gen = np.random.default_rng(2)
        pools = [field.sample_uniform(5, gen) for _ in range(3)]
        fits = enumerate_compositions(objective, pools, top_m=3)
        assert len(fits) == 3
        assert all(f.user_count == 3 for f in fits)


class TestObjectiveForApi:
    def test_objective_for_masks_dropout(self, small_network):
        sniffers = np.arange(40)
        values = np.ones(40)
        values[::4] = np.nan
        obs = FluxObservation(time=0.0, sniffers=sniffers, values=values)
        loc = NLSLocalizer(small_network.field, small_network.positions[sniffers])
        objective = loc.objective_for(obs)
        assert objective.sniffer_count == 30
