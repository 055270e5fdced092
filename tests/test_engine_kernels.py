"""Equivalence tests for the chunked geometry-kernel evaluator.

The contract under test: every configuration of
:func:`repro.engine.kernels.evaluate_geometry_kernels` — chunked,
parallel, preallocated output — produces float64 values
bitwise identical to :func:`reference_geometry_kernels`, the pre-engine
pair-grid implementation kept as oracle; float32 mode stays within a
small relative envelope.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import Engine, reference_geometry_kernels
from repro.engine.kernels import _BLOCK_PAIRS, evaluate_geometry_kernels
from repro.errors import ConfigurationError
from repro.geometry import CircularField, PolygonField, RectangularField

D_FLOOR = 0.05


def _scenario(field, m=137, n=23, seed=7):
    gen = np.random.default_rng(seed)
    nodes = field.sample_uniform(n, gen)
    sinks = field.sample_uniform(m, gen)
    return nodes, sinks


FIELDS = [
    RectangularField(12, 7),
    RectangularField(30, 30, origin=(-5.0, 2.0)),
    CircularField(6.0, center=(1.0, -2.0)),
    PolygonField([(0, 0), (8, 0), (10, 5), (4, 9), (0, 6)]),
]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: type(f).__name__)
def test_broadcast_matches_reference_bitwise(field):
    nodes, sinks = _scenario(field)
    want = reference_geometry_kernels(field, nodes, sinks, D_FLOOR)
    got = evaluate_geometry_kernels(field, nodes, sinks, D_FLOOR)
    assert got.dtype == np.float64
    assert np.array_equal(want, got)


#: The evaluator's internal row block at 23 nodes.
BLOCK = _BLOCK_PAIRS // 23


# Chunks of one row, around the row block, and (None: the default
# 4096) spanning two blocks and a partial third.
@pytest.mark.parametrize(
    "chunk_size", [1, 7, 64, 137, 1000, BLOCK - 1, BLOCK, BLOCK + 1, None]
)
def test_chunked_is_bitwise_invariant(chunk_size):
    field = RectangularField(15, 15)
    nodes, sinks = _scenario(field, m=2 * BLOCK + 5)
    want = reference_geometry_kernels(field, nodes, sinks, D_FLOOR)
    got = evaluate_geometry_kernels(
        field, nodes, sinks, D_FLOOR, chunk_size=chunk_size
    )
    assert np.array_equal(want, got)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: type(f).__name__)
def test_parallel_threads_bitwise_equal_serial(field):
    nodes, sinks = _scenario(field, m=301)
    want = evaluate_geometry_kernels(field, nodes, sinks, D_FLOOR)
    with Engine(workers=4, chunk_size=32) as eng:
        got = evaluate_geometry_kernels(field, nodes, sinks, D_FLOOR, engine=eng)
    assert np.array_equal(want, got)


RECTS = [RectangularField(10, 10), RectangularField(30, 30, origin=(-5.0, 2.0))]


def test_node_at_sink_degenerate_direction():
    # A sink coincident with a node: the reference pins the ray
    # direction to (1, 0); the broadcast path must reproduce that, also
    # for nodes on the low-x, low-y and high-y walls, where the x exit
    # is the far wall and the y component is 0. Sinks aligned with a
    # node (dx == 0 or dy == 0) divide the zero component to +-inf or
    # NaN in the axis exit, which must end as "no crossing".
    field = RectangularField(10, 10)
    nodes = np.array([[3.0, 4.0], [7.0, 2.0]])
    sinks = np.array([[3.0, 4.0], [5.0, 5.0]])
    cases = [(field, nodes, sinks)]
    for field in RECTS:
        x0, y0, x1, y1 = field.bounding_box
        nodes, sinks = _scenario(field, m=40, n=15)
        nodes = np.concatenate([nodes, [
            [x0, (y0 + y1) / 2.0], [x0 + 1.5, y0], [x0 + 2.5, y1],
            [x0, y0], [x0, y1],
        ]])
        sinks = np.concatenate([
            nodes,
            np.column_stack([nodes[:, 0], sinks[:20, 1]]),  # dx == 0
            np.column_stack([sinks[20:, 0], nodes[:, 1]]),  # dy == 0
        ])
        cases.append((field, nodes, sinks))
    for field, nodes, sinks in cases:
        want = reference_geometry_kernels(field, nodes, sinks, D_FLOOR)
        got = evaluate_geometry_kernels(field, nodes, sinks, D_FLOOR)
        assert np.array_equal(want, got), field.bounding_box
        assert np.all(np.isfinite(got))


def test_out_of_field_sinks_clipped_like_reference():
    # Sinks on each wall and corner, and sinks outside the field that
    # both paths clip onto a wall or corner first.
    for field in RECTS:
        x0, y0, x1, y1 = field.bounding_box
        xm, ym = (x0 + x1) / 2.0, (y0 + y1) / 2.0
        nodes, _ = _scenario(field)
        sinks = np.array([
            [x0, ym], [x1, ym], [xm, y0], [xm, y1],
            [x0, y0], [x0, y1], [x1, y0], [x1, y1],
            [x0 - 3.0, ym], [x1 + 2.0, y1 + 1.0], [xm, y0 - 0.5],
            [x1 + 0.5, ym + 1.0], [xm, y0 - 1e-9], [xm - 1.0, y1 + 4.0],
            [x0 - 1.0, y0 - 1.0], [x0 - 7.0, y1 + 0.1],
            [x1 + 1e-3, y0 - 5.0],
        ])
        want = reference_geometry_kernels(field, nodes, sinks, D_FLOOR)
        got = evaluate_geometry_kernels(field, nodes, sinks, D_FLOOR)
        assert np.array_equal(want, got), field.bounding_box


def test_single_sink_promoted_to_row():
    field = RectangularField(10, 10)
    nodes, _ = _scenario(field)
    got = evaluate_geometry_kernels(field, nodes, np.array([2.0, 3.0]), D_FLOOR)
    assert got.shape == (1, nodes.shape[0])
    want = reference_geometry_kernels(field, nodes, np.array([2.0, 3.0]), D_FLOOR)
    assert np.array_equal(want, got)


def test_bad_sink_shape_raises():
    field = RectangularField(10, 10)
    nodes, _ = _scenario(field)
    with pytest.raises(ConfigurationError):
        evaluate_geometry_kernels(field, nodes, np.zeros((4, 3)), D_FLOOR)


def test_float32_mode_dtype_and_envelope():
    field = RectangularField(15, 15)
    nodes, sinks = _scenario(field, m=500)
    want = reference_geometry_kernels(field, nodes, sinks, D_FLOOR)
    with Engine(dtype="float32") as eng:
        got = evaluate_geometry_kernels(field, nodes, sinks, D_FLOOR, engine=eng)
    assert got.dtype == np.float32
    scale = np.maximum(np.abs(want), 1.0)
    assert np.max(np.abs(got.astype(float) - want) / scale) < 1e-3


def test_out_buffer_is_written_in_place_and_dtype_wins():
    field = RectangularField(15, 15)
    nodes, sinks = _scenario(field)
    out = np.empty((sinks.shape[0], nodes.shape[0]), dtype=np.float64)
    with Engine(dtype="float32") as eng:
        got = evaluate_geometry_kernels(
            field, nodes, sinks, D_FLOOR, engine=eng, out=out
        )
    assert got is out
    # The preallocated buffer's float64 overrides the engine's float32.
    want = reference_geometry_kernels(field, nodes, sinks, D_FLOOR)
    assert np.array_equal(want, out)


def test_out_buffer_shape_mismatch_raises():
    field = RectangularField(15, 15)
    nodes, sinks = _scenario(field)
    with pytest.raises(ConfigurationError):
        evaluate_geometry_kernels(
            field, nodes, sinks, D_FLOOR, out=np.empty((3, 3))
        )


def test_kernel_values_nonnegative_and_match_formula():
    # Formula 3.4: g = (l^2 - d^2) / (2 d), floored at zero — spot-check
    # one pair against a hand ray cast.
    field = RectangularField(10, 10)
    nodes = np.array([[6.0, 5.0]])
    sinks = np.array([[2.0, 5.0]])  # ray exits at x=10 -> l = 8
    got = evaluate_geometry_kernels(field, nodes, sinks, D_FLOOR)
    l, d = 8.0, 4.0
    assert got[0, 0] == pytest.approx((l * l - d * d) / (2 * d))
    assert np.all(got >= 0.0)
