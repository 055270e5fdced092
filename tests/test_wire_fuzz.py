"""Hostile frames at the wire edge get typed answers, never ``internal``.

Hypothesis (derandomized, so every run draws the same frames) builds
localize and track_step frames with hostile fields — NaN, ``null``,
±inf, negative and overflowing readings, wrong reading counts and
shapes, bool/string/float/negative knobs, oversized budgets, unknown
fields — and drives each through the gateway's own path:
``decode_frame`` → ``*_request_from_frame`` → ``submit`` →
``run_once``. Every frame must end as a :class:`ProtocolError`, a
:class:`ConfigurationError`, or a reply whose code is not
``internal``, and a well-formed batch mate must still be answered
``ok``. Control frames go over one live :class:`GatewayServer`
connection: each gets exactly one typed frame, and the connection
keeps answering ``ping``.
"""

import json
import socket

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ProtocolError
from repro.fpmap import build_fingerprint_map
from repro.gateway import GatewayServer, protocol
from repro.geometry import RectangularField
from repro.network import build_network, sample_sniffers_percentage
from repro.serve import (
    ERROR_INTERNAL,
    MAX_CANDIDATE_ROWS,
    LocalizationService,
    LocalizeRequest,
)
from repro.smc import TrackerConfig
from repro.traffic import MeasurementModel, simulate_flux

_FUZZ = settings(max_examples=300, deadline=None, derandomize=True,
                 database=None)

_WORDS = st.text(alphabet="ab1 -", max_size=3)

#: One reading a hostile client may send in place of a good one. A
#: square overflows from about 1.34e154 up.
_HOSTILE_READING = st.one_of(
    st.none(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 0.0]),
    st.floats(-50.0, -1e-3),
    st.floats(1e153, 1.3e154),
    st.floats(1.35e154, 1.7e308),
    st.floats(1.35e154, 1.7e308),
    st.booleans(),
    _WORDS,
)

#: Knob values that are not integers >= 1 (``seed``: >= 0).
_HOSTILE_KNOB = st.one_of(
    st.booleans(),
    _WORDS,
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-5, 0),
    st.lists(st.integers(0, 3), max_size=2),
)

#: Valid localize knobs, kept small so an admitted frame solves fast.
_VALID_KNOBS = {
    "user_count": st.integers(1, 2),
    "candidate_count": st.integers(1, 32),
    "top_m": st.integers(1, 5),
    "restarts": st.integers(1, 2),
    "sweeps": st.integers(1, 3),
    "seed": st.integers(0, 2**40),
    "seed_top_k": st.integers(1, 8),
    "use_map": st.one_of(st.booleans(), _WORDS),
    "deadline_s": st.floats(5.0, 60.0),
}

_UNKNOWN_FIELDS = st.dictionaries(
    st.sampled_from(["extra", "priority", "trace", "values", "x"]),
    st.one_of(st.none(), st.integers(), _WORDS),
    max_size=2,
)


@pytest.fixture(scope="module")
def deployment():
    net = build_network(
        field=RectangularField(10, 10), node_count=100, radius=2.0, rng=5
    )
    sniffers = sample_sniffers_percentage(net, 20, rng=2)
    fmap = build_fingerprint_map(net.field, net.positions[sniffers],
                                 resolution=2.0)
    gen = np.random.default_rng(0)
    measure = MeasurementModel(net, sniffers, smooth=True, rng=gen)
    truth = net.field.sample_uniform(2, gen)
    observation = measure.observe(
        simulate_flux(net, list(truth), [1.5, 2.5], rng=gen)
    )

    def service():
        return LocalizationService(
            net.field, net.positions[sniffers], fingerprint_map=fmap,
            max_batch=8,
        )

    return service, observation


@st.composite
def _observations(draw, base):
    """The base window's wire dict, with a few hostile edits."""
    record = protocol.observation_to_wire(base)
    record.pop("raw_values", None)
    values = record["values"]
    for index, value in draw(st.lists(
        st.tuples(st.integers(0, len(values) - 1), _HOSTILE_READING),
        max_size=3,
    )):
        values[index] = value
    shape = draw(st.sampled_from(
        ["flat"] * 10 + ["short", "long", "nested", "all-null", "near-bound"]
    ))
    if shape == "short":
        del values[-1]
        del record["sniffers"][-1]
    elif shape == "long":
        values.append(1.0)
        record["sniffers"].append(0)
    elif shape == "nested":
        record["values"] = [[v] for v in values]
        record["sniffers"] = [[s] for s in record["sniffers"]]
    elif shape == "all-null":
        record["values"] = [None] * len(values)
    elif shape == "near-bound":
        # Every square just under the overflow bound over 20 readings.
        record["values"] = [2.9e153] * len(values)
    if draw(st.integers(0, 7)) == 0:
        record["time"] = draw(st.one_of(
            st.floats(allow_nan=True, allow_infinity=True), _WORDS,
            st.none(),
        ))
    return record


#: Mostly a good id, so most frames get as far as the solver.
_IDS = st.sampled_from(["fz"] * 6 + [7, None, "", [1]])


@st.composite
def _localize_frames(draw, base):
    """A localize frame: valid knobs, at most one of them hostile."""
    frame = {"type": "localize", "id": draw(_IDS),
             "observation": draw(_observations(base))}
    for knob, valid in _VALID_KNOBS.items():
        if draw(st.booleans()):
            frame[knob] = draw(valid)
    if draw(st.booleans()):
        knob = draw(st.sampled_from([*_VALID_KNOBS, "oversized"]))
        if knob == "oversized":
            frame["candidate_count"] = draw(
                st.integers(MAX_CANDIDATE_ROWS + 1, 10**12)
            )
        else:
            frame[knob] = draw(st.one_of(_HOSTILE_KNOB, st.none()))
    frame.update(draw(_UNKNOWN_FIELDS))
    return frame


@st.composite
def _track_frames(draw, base):
    frame = {
        "type": "track_step",
        "id": draw(_IDS),
        "session_id": draw(st.sampled_from(["s"] * 4 + ["nope", "", None])),
        "observation": draw(_observations(base)),
    }
    if draw(st.integers(0, 3)) == 0:
        frame["deadline_s"] = draw(
            st.one_of(_VALID_KNOBS["deadline_s"], _HOSTILE_KNOB)
        )
    frame.update(draw(_UNKNOWN_FIELDS))
    return frame


def _mate(observation):
    return LocalizeRequest(
        request_id="mate", client_id="mate", observation=observation,
        candidate_count=16, seed=3,
    )


def _assert_typed(service, observation, frame):
    """Drive one frame the gateway's way; no reply may be internal."""
    decoded = protocol.decode_frame(protocol.encode_frame(frame))
    build = (
        protocol.localize_request_from_frame
        if decoded["type"] == "localize"
        else protocol.track_request_from_frame
    )
    try:
        future = service.submit(build(decoded, "fuzz"))
    except (ProtocolError, ConfigurationError):
        return
    mate = service.submit(_mate(observation))
    for _ in range(8):  # bounded: an unanswered future fails below
        if future.done() and mate.done():
            break
        service.scheduler.run_once()
    reply = future.result(timeout=0)
    assert reply.ok or reply.code != ERROR_INTERNAL, reply.message
    mate_reply = mate.result(timeout=0)
    assert mate_reply.ok, getattr(mate_reply, "message", None)


def _constant_frame(observation, reading, user_count):
    """A localize frame whose every reading is ``reading``.

    Two were found against the closed-form objective key: at
    ``user_count=2`` and 2.9e153 (every square just under the overflow
    bound) an unscaled key overflowed (``internal: RuntimeWarning:
    overflow encountered in multiply``); at 1e-310 (subnormal) the
    power of two that was to scale the key up is not a float64
    (``internal: OverflowError: math range error``, for the frame and
    for its K=1 batch mates, whose fits ran in the same call).
    """
    record = protocol.observation_to_wire(observation)
    record.pop("raw_values", None)
    record["values"] = [reading] * len(record["values"])
    return {"type": "localize", "id": "fz", "user_count": user_count,
            "observation": record}


def test_hostile_localize_frames_get_typed_answers(deployment):
    make_service, observation = deployment
    service = make_service()  # driven by run_once, never started

    @_FUZZ
    @given(frame=_localize_frames(observation))
    @example(frame=_constant_frame(observation, 2.9e153, 2))
    @example(frame=_constant_frame(observation, 1e-310, 1))
    @example(frame=_constant_frame(observation, 1e-310, 2))
    def check(frame):
        _assert_typed(service, observation, frame)

    check()


def test_hostile_track_step_frames_get_typed_answers(deployment):
    make_service, observation = deployment
    service = make_service()

    @settings(_FUZZ, max_examples=150)
    @given(frame=_track_frames(observation))
    def check(frame):
        # A fresh session per frame, so no window is stale by its time.
        service.open_session(
            "s", 2, config=TrackerConfig(prediction_count=40, keep_count=4),
            rng=np.random.default_rng(1),
        )
        try:
            _assert_typed(service, observation, frame)
        finally:
            service.close_session("s")

    check()


# ----------------------------------------------------------------------
# Control frames over one live connection.
# ----------------------------------------------------------------------
_ANY = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.integers(2**40, 2**70),
    st.floats(allow_nan=False), _WORDS, st.lists(st.integers(), max_size=2),
)

_CONTROL_FRAMES = st.one_of(
    st.fixed_dictionaries({
        "type": st.just("open_session"),
        "session_id": st.one_of(_WORDS, _ANY),
        # Valid user counts stay small: a tracker allocates per user.
        "user_count": st.one_of(st.integers(1, 3), st.integers(-3, 0),
                                st.booleans(), _WORDS, st.floats()),
        "seed": _ANY,
    }),
    st.fixed_dictionaries({"type": st.just("trace_dump"), "limit": _ANY}),
    st.fixed_dictionaries({"type": st.just("connect"), "client_id": _ANY}),
    st.fixed_dictionaries({"type": st.just("metrics")}),
    st.fixed_dictionaries({"type": st.one_of(
        st.sampled_from(["subscribe_metrics", "unsubscribe_metrics",
                         "Ping", ""]),
        st.integers(), st.none(),
    )}),
)


def test_control_frames_get_one_typed_frame_each(deployment):
    make_service, _ = deployment
    with make_service() as service, GatewayServer(service) as gateway:
        with socket.create_connection(
            ("127.0.0.1", gateway.port), timeout=30
        ) as sock, sock.makefile("rwb") as stream:

            @settings(_FUZZ, max_examples=200)
            @given(frame=_CONTROL_FRAMES, extra=_UNKNOWN_FIELDS,
                   frame_id=st.one_of(st.just("c1"), st.none()))
            def check(frame, extra, frame_id):
                frame = dict(extra, **frame)
                if frame_id is not None:
                    frame["id"] = frame_id
                stream.write(protocol.encode_frame(frame))
                stream.write(protocol.encode_frame(
                    {"type": "ping", "id": "probe"}
                ))
                stream.flush()
                answers = []
                while True:
                    answer = json.loads(stream.readline())
                    if answer == {"type": "pong", "id": "probe"}:
                        break
                    answers.append(answer)
                assert len(answers) == 1, answers
                answer = answers[0]
                assert isinstance(answer["type"], str)
                if answer["type"] == "error":
                    assert answer["code"] != ERROR_INTERNAL
                if isinstance(frame["type"], str) and frame["type"]:
                    assert answer["id"] == frame_id

            check()
