"""Wire protocol of the gateway: newline-delimited JSON frames.

One frame per line, UTF-8 JSON, ``\\n``-terminated. Every frame is an
object with a ``type`` and (for request/reply correlation) an ``id``
chosen by the client; the gateway echoes the ``id`` on exactly one
reply frame — a typed ``error`` frame when anything goes wrong, never
silence. Floats survive the wire bitwise: ``json`` renders them with
``repr`` shortest-round-trip semantics, so a tracked stream read back
from reply frames is bit-identical to a local loop. Non-finite values
are carried as ``null`` exactly like the stream layer's JSONL archive
format (:func:`repro.stream.sources.observation_to_jsonl`).

Client → gateway frame types
    ``connect``, ``ping``, ``localize``, ``track_step``,
    ``open_session``, ``metrics``, ``trace_dump``.
Gateway → client frame types
    ``connected``, ``pong``, ``reply`` (success, with ``kind``
    ``localize``/``track_step``), ``error``, ``metrics``, ``traces``,
    ``session_opened``. Each answers exactly one client frame; the
    gateway pushes nothing unasked.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import ProtocolError
from repro.serve.requests import (
    ErrorReply,
    LocalizeReply,
    LocalizeRequest,
    TrackStepReply,
    TrackStepRequest,
)
from repro.traffic.measurement import FluxObservation

#: Hard per-frame byte ceiling (readline limit); an overlong line is a
#: protocol error, not an allocation.
MAX_FRAME_BYTES = 1 << 20

#: Wire-level error codes (frame ``type="error"``, field ``code``).
#: Service-level ``ErrorReply`` codes pass through unchanged; these
#: name failures that never reached the service.
ERROR_BAD_FRAME = "bad_frame"
ERROR_BAD_REQUEST = "bad_request"
ERROR_UNKNOWN_TYPE = "unknown_type"
ERROR_FRAME_TOO_LARGE = "frame_too_large"

#: Request-frame knobs forwarded verbatim to :class:`LocalizeRequest`.
_LOCALIZE_KNOBS = (
    "user_count", "candidate_count", "top_m", "restarts", "sweeps",
    "seed", "seed_top_k", "use_map", "deadline_s",
)


def encode_frame(frame: Dict) -> bytes:
    """One frame → one ``\\n``-terminated JSON line."""
    return (json.dumps(frame, separators=(",", ":")) + "\n").encode("utf-8")


def decode_frame(line: bytes) -> Dict:
    """One received line → frame dict; :class:`ProtocolError` on garbage."""
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(line)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    try:
        frame = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"unparseable frame: {exc}") from exc
    if not isinstance(frame, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(frame).__name__}"
        )
    if not isinstance(frame.get("type"), str) or not frame["type"]:
        raise ProtocolError("frame needs a string 'type'")
    return frame


def _wire_float(value: float) -> Optional[float]:
    value = float(value)
    return value if math.isfinite(value) else None


def observation_to_wire(observation: FluxObservation) -> Dict:
    """Observation → wire dict (``null`` for non-finite readings)."""
    record = {
        "time": float(observation.time),
        "sniffers": [int(s) for s in observation.sniffers],
        "values": [_wire_float(v) for v in observation.values],
    }
    if observation.raw_values is not None:
        record["raw_values"] = [float(v) for v in observation.raw_values]
    return record


def observation_from_wire(record) -> FluxObservation:
    """Wire dict → observation; :class:`ProtocolError` on bad shape."""
    if not isinstance(record, dict):
        raise ProtocolError(
            f"observation must be an object, got {type(record).__name__}"
        )
    try:
        raw = record.get("raw_values")
        return FluxObservation(
            time=float(record["time"]),
            sniffers=np.asarray(record["sniffers"], dtype=np.int64),
            values=np.asarray(record["values"], dtype=float),
            raw_values=None if raw is None else np.asarray(raw, dtype=float),
        )
    except ProtocolError:
        raise
    except Exception as exc:
        raise ProtocolError(
            f"bad observation ({type(exc).__name__}: {exc})"
        ) from exc


# ----------------------------------------------------------------------
# Request frames → service requests.
# ----------------------------------------------------------------------
def _frame_identity(frame: Dict, client_id: str) -> Tuple[str, str]:
    frame_id = frame.get("id")
    if not isinstance(frame_id, (str, int)) or frame_id == "":
        raise ProtocolError(f"{frame['type']} frame needs an 'id'")
    return str(frame_id), str(frame.get("client_id") or client_id)


def localize_request_from_frame(
    frame: Dict, client_id: str, span_id: Optional[str] = None
) -> LocalizeRequest:
    request_id, client = _frame_identity(frame, client_id)
    knobs = {k: frame[k] for k in _LOCALIZE_KNOBS if frame.get(k) is not None}
    try:
        return LocalizeRequest(
            request_id=request_id,
            client_id=client,
            observation=observation_from_wire(frame.get("observation")),
            span_id=span_id,
            **knobs,
        )
    except ProtocolError:
        raise
    except Exception as exc:
        raise ProtocolError(
            f"bad localize frame ({type(exc).__name__}: {exc})"
        ) from exc


def track_request_from_frame(
    frame: Dict, client_id: str, span_id: Optional[str] = None
) -> TrackStepRequest:
    request_id, client = _frame_identity(frame, client_id)
    try:
        return TrackStepRequest(
            request_id=request_id,
            client_id=client,
            session_id=str(frame.get("session_id") or ""),
            observation=observation_from_wire(frame.get("observation")),
            deadline_s=frame.get("deadline_s"),
            span_id=span_id,
        )
    except ProtocolError:
        raise
    except Exception as exc:
        raise ProtocolError(
            f"bad track_step frame ({type(exc).__name__}: {exc})"
        ) from exc


# ----------------------------------------------------------------------
# Service replies → reply frames.
# ----------------------------------------------------------------------
def _positions_to_wire(positions: np.ndarray) -> list:
    return [[_wire_float(x), _wire_float(y)] for x, y in np.asarray(positions)]


def reply_to_frame(reply, span_id: Optional[str] = None) -> Dict:
    """Any service reply → its wire frame (typed error frames included)."""
    if isinstance(reply, LocalizeReply):
        best = reply.result.best
        frame = {
            "type": "reply",
            "kind": "localize",
            "id": reply.request_id,
            "client_id": reply.client_id,
            "ok": True,
            "estimates": _positions_to_wire(reply.estimates()),
            "best_objective": _wire_float(best.objective),
            "best_thetas": [_wire_float(t) for t in best.thetas],
            "fit_count": len(reply.result.fits),
            "latency_s": _wire_float(reply.latency_s),
            "batch_size": reply.batch_size,
        }
    elif isinstance(reply, TrackStepReply):
        frame = {
            "type": "reply",
            "kind": "track_step",
            "id": reply.request_id,
            "client_id": reply.client_id,
            "ok": True,
            "session_id": reply.session_id,
            "stepped": reply.step is not None,
            "skip_reason": reply.skip_reason,
            "estimates": _positions_to_wire(reply.estimates),
            "latency_s": _wire_float(reply.latency_s),
            "batch_size": reply.batch_size,
        }
    elif isinstance(reply, ErrorReply):
        frame = {
            "type": "error",
            "id": reply.request_id,
            "client_id": reply.client_id,
            "ok": False,
            "code": reply.code,
            "message": reply.message,
            "latency_s": _wire_float(reply.latency_s),
        }
    else:
        raise ProtocolError(
            f"cannot frame reply of type {type(reply).__name__}"
        )
    if span_id is not None:
        frame["span_id"] = span_id
    return frame


def error_frame(
    frame_id: Optional[str], code: str, message: str
) -> Dict:
    """A wire-level typed error frame (protocol failures, bad requests)."""
    return {
        "type": "error",
        "id": frame_id,
        "ok": False,
        "code": code,
        "message": message,
    }
