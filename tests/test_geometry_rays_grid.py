"""Boundary-distance queries and spatial hash grid tests."""

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.geometry import (
    CircularField,
    PolygonField,
    RectangularField,
    SpatialHashGrid,
    boundary_distances,
    distances_to_point,
    pairwise_boundary_distances,
    pairwise_distances,
    pairwise_ray_lengths,
)


class TestBoundaryDistances:
    def test_l_at_least_d_for_interior_nodes(self):
        field = RectangularField(10, 10)
        gen = np.random.default_rng(0)
        sink = np.array([4.0, 6.0])
        nodes = field.sample_uniform(100, gen)
        l = boundary_distances(field, sink, nodes)
        d = distances_to_point(nodes, sink)
        assert np.all(l >= d - 1e-9)

    def test_axis_aligned_case(self):
        field = RectangularField(10, 10)
        sink = np.array([2.0, 5.0])
        nodes = np.array([[6.0, 5.0]])  # due east; boundary at x=10
        l = boundary_distances(field, sink, nodes)
        assert l[0] == pytest.approx(8.0)

    def test_degenerate_node_at_sink(self):
        field = RectangularField(10, 10)
        sink = np.array([2.0, 5.0])
        nodes = np.array([[2.0, 5.0]])
        l = boundary_distances(field, sink, nodes, degenerate_direction=(1, 0))
        assert l[0] == pytest.approx(8.0)  # falls back to +x direction

    def test_bad_node_shape_raises(self):
        field = RectangularField(10, 10)
        with pytest.raises(GeometryError):
            boundary_distances(field, np.zeros(2) + 5, np.zeros((3, 3)))

    def test_pairwise_shape(self):
        field = RectangularField(10, 10)
        sinks = np.array([[2.0, 2.0], [5.0, 5.0], [8.0, 3.0]])
        nodes = field.sample_uniform(7, np.random.default_rng(1))
        out = pairwise_boundary_distances(field, sinks, nodes)
        assert out.shape == (3, 7)

    def test_pairwise_rows_match_single(self):
        field = RectangularField(10, 10)
        sinks = np.array([[2.0, 2.0], [5.0, 5.0]])
        nodes = field.sample_uniform(5, np.random.default_rng(1))
        out = pairwise_boundary_distances(field, sinks, nodes)
        for j in range(2):
            np.testing.assert_allclose(
                out[j], boundary_distances(field, sinks[j], nodes)
            )

    @pytest.mark.parametrize("field", [
        RectangularField(10, 10),
        CircularField(5.0, center=(5.0, 5.0)),
        PolygonField([(0, 0), (8, 0), (10, 5), (4, 9), (0, 6)]),
    ], ids=lambda f: type(f).__name__)
    def test_pairwise_rows_are_bitwise_the_per_sink_loop(self, field):
        # 1000 sinks at 40 nodes span two row blocks of the ray cast.
        gen = np.random.default_rng(2)
        nodes = field.sample_uniform(40, gen)
        sinks = np.concatenate([field.sample_uniform(999, gen), nodes[:1]])
        d, l = pairwise_ray_lengths(field, sinks, nodes)
        assert np.array_equal(l, pairwise_boundary_distances(field, sinks, nodes))
        for j, sink in enumerate(sinks):
            assert np.array_equal(l[j], boundary_distances(field, sink, nodes))
            assert np.array_equal(
                d[j], np.hypot(nodes[:, 0] - sink[0], nodes[:, 1] - sink[1])
            )


class TestDistances:
    def test_distances_to_point(self):
        d = distances_to_point(np.array([[3.0, 4.0], [0.0, 0.0]]), np.zeros(2))
        np.testing.assert_allclose(d, [5.0, 0.0])

    def test_pairwise_distances(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0]])
        b = np.array([[0.0, 3.0]])
        d = pairwise_distances(a, b)
        np.testing.assert_allclose(d, [[3.0], [np.sqrt(10)]])

    def test_bad_shape_raises(self):
        with pytest.raises(GeometryError):
            distances_to_point(np.zeros((2, 3)), np.zeros(2))


class TestSpatialHashGrid:
    def test_query_radius_matches_bruteforce(self):
        gen = np.random.default_rng(3)
        pts = gen.uniform(0, 20, size=(300, 2))
        grid = SpatialHashGrid(pts, cell_size=2.0)
        center = np.array([10.0, 10.0])
        for radius in (0.5, 2.0, 5.0):
            got = set(grid.query_radius(center, radius).tolist())
            want = set(
                np.flatnonzero(
                    np.hypot(pts[:, 0] - 10, pts[:, 1] - 10) <= radius
                ).tolist()
            )
            assert got == want

    def test_query_radius_empty(self):
        grid = SpatialHashGrid(np.array([[0.0, 0.0]]), cell_size=1.0)
        assert grid.query_radius(np.array([50.0, 50.0]), 1.0).size == 0

    def test_all_pairs_within_matches_bruteforce(self):
        gen = np.random.default_rng(4)
        pts = gen.uniform(0, 10, size=(80, 2))
        grid = SpatialHashGrid(pts, cell_size=1.5)
        rows, cols = grid.all_pairs_within(1.5)
        got = set(zip(rows.tolist(), cols.tolist()))
        want = set()
        for i in range(80):
            for j in range(i + 1, 80):
                if np.hypot(*(pts[i] - pts[j])) <= 1.5:
                    want.add((i, j))
        assert got == want

    def test_all_pairs_i_less_than_j(self):
        gen = np.random.default_rng(5)
        pts = gen.uniform(0, 5, size=(40, 2))
        rows, cols = SpatialHashGrid(pts, cell_size=1.0).all_pairs_within(1.0)
        assert np.all(rows < cols)

    def test_negative_coordinates(self):
        pts = np.array([[-1.5, -1.5], [-1.0, -1.0], [5.0, 5.0]])
        grid = SpatialHashGrid(pts, cell_size=1.0)
        got = grid.query_radius(np.array([-1.2, -1.2]), 1.0)
        assert set(got.tolist()) == {0, 1}

    def test_len(self):
        assert len(SpatialHashGrid(np.zeros((4, 2)), 1.0)) == 4

    def test_bad_shape_raises(self):
        with pytest.raises(GeometryError):
            SpatialHashGrid(np.zeros((4, 3)), 1.0)
