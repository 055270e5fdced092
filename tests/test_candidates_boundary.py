"""Candidate-generator edge behavior: field-boundary clipping."""

from __future__ import annotations

import numpy as np
import pytest

from repro.fingerprint import DiscCandidates
from repro.geometry import RectangularField


class TestDiscCandidatesBoundary:
    """The prediction proposal (Formula 4.2) near the field edge: the
    user cannot leave the field, so proposals are clipped onto it."""

    @pytest.mark.parametrize(
        "center", [[0.3, 0.3], [14.7, 0.3], [0.3, 14.7], [14.7, 14.7]]
    )
    def test_corner_center_clips_into_field(self, small_field, rng, center):
        radius = 2.0  # v_max * dt, mostly outside the field at a corner
        gen = DiscCandidates(small_field, np.array(center), radius)
        pts = gen.generate(500, rng)
        assert pts.shape == (500, 2)
        assert np.all(small_field.contains(pts))

    def test_clipped_points_stay_within_prediction_radius(self, small_field, rng):
        """Clipping is a projection onto a convex set, so a candidate's
        distance to the (in-field) center can only shrink: every clipped
        sample still respects the mobility bound ``v_max * dt``."""
        center = np.array([0.5, 7.0])
        radius = 3.0
        gen = DiscCandidates(small_field, center, radius)
        pts = gen.generate(800, rng)
        d = np.linalg.norm(pts - center[None, :], axis=1)
        assert np.all(d <= radius + 1e-9)

    def test_boundary_mass_accumulates_on_edge(self, small_field, rng):
        """Near the edge the out-of-field disc mass lands exactly on the
        boundary (projection), not reflected inward or discarded."""
        center = np.array([0.2, 7.0])
        gen = DiscCandidates(small_field, center, 1.5)
        pts = gen.generate(1000, rng)
        on_left_edge = np.isclose(pts[:, 0], 0.0)
        # disc extends 1.3 beyond x=0: a substantial fraction projects
        assert on_left_edge.mean() > 0.15
        interior = ~on_left_edge
        assert interior.mean() > 0.4  # the in-field mass stays a disc
        d = np.linalg.norm(pts[interior] - center[None, :], axis=1)
        assert np.all(d <= 1.5 + 1e-9)

    def test_interior_center_distribution_unclipped(self, rng):
        field = RectangularField(20.0, 20.0)
        center = np.array([10.0, 10.0])
        gen = DiscCandidates(field, center, 2.0)
        pts = gen.generate(2000, rng)
        d = np.linalg.norm(pts - center[None, :], axis=1)
        assert np.all(d <= 2.0)
        # uniform-in-disc: median distance at r * sqrt(0.5)
        assert abs(np.median(d) - 2.0 * np.sqrt(0.5)) < 0.1

    def test_multiple_centers_cycled(self, small_field, rng):
        centers = np.array([[2.0, 2.0], [13.0, 13.0]])
        gen = DiscCandidates(small_field, centers, 1.0)
        pts = gen.generate(101, rng)
        d = np.linalg.norm(
            pts[:, None, :] - centers[None, :, :], axis=2
        )
        nearest = d.argmin(axis=1)
        # both centers get close to half of the (odd) budget
        assert abs(int((nearest == 0).sum()) - 50) <= 1
        assert np.all(d.min(axis=1) <= 1.0 + 1e-9)
