"""Async network control plane in front of the serving layers.

The gateway is the deployment's front door: an :mod:`asyncio` TCP
server (:class:`GatewayServer`) speaking a newline-delimited JSON
protocol (:mod:`repro.gateway.protocol`) that multiplexes thousands of
cheap concurrent connections into the admission queue of one
:class:`~repro.serve.LocalizationService` or
:class:`~repro.fleet.ServeFleet`, preserving the serve layer's
exactly-one-typed-reply guarantee end to end. Requests are stamped with
span ids at the door, the scheduler records per-stage timestamps as
they cross admission → fuse → solve → reply, and
:class:`GatewayGovernor` closes the loop by auto-tuning the service's
admission capacity from the observed reply p95.
"""

from repro.gateway.client import GatewayClient
from repro.gateway.governor import GatewayGovernor
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
    "GatewayGovernor",
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
