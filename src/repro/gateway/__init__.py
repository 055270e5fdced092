"""Async network control plane in front of the serving layers.

The gateway is the deployment's front door: an :mod:`asyncio` TCP
server (:class:`GatewayServer`) speaking a newline-delimited JSON
protocol (:mod:`repro.gateway.protocol`) that multiplexes thousands of
cheap concurrent connections into the admission queue of one
:class:`~repro.serve.LocalizationService` or
:class:`~repro.fleet.ServeFleet`, preserving the serve layer's
exactly-one-typed-reply guarantee end to end. Requests are stamped with
span ids at the door, and the scheduler records per-stage timestamps as
they cross admission → fuse → solve → reply. Excess load is shed at
the door: the service's fixed admission capacity answers it with a
typed ``admission_rejected`` reply under the ``reject`` policy.
"""

from repro.gateway.client import GatewayClient
from repro.gateway.protocol import (
    MAX_FRAME_BYTES,
    decode_frame,
    encode_frame,
    error_frame,
    localize_request_from_frame,
    observation_from_wire,
    observation_to_wire,
    reply_to_frame,
    track_request_from_frame,
)
from repro.gateway.server import GatewayMetrics, GatewayServer

__all__ = [
    "GatewayClient",
    "GatewayMetrics",
    "GatewayServer",
    "MAX_FRAME_BYTES",
    "decode_frame",
    "encode_frame",
    "error_frame",
    "localize_request_from_frame",
    "observation_from_wire",
    "observation_to_wire",
    "reply_to_frame",
    "track_request_from_frame",
]
