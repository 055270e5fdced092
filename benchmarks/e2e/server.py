"""The system under test, as its own process.

Builds the fixed benchmark deployment, starts a
:class:`repro.serve.LocalizationService` (default serving knobs, the
deployment's fingerprint map) behind a :class:`repro.gateway.
GatewayServer` on an ephemeral port, prints ``{"port": N}`` on one
stdout line once it accepts connections, and serves until its stdin
closes. With ``--spans PATH`` it first wraps every layer's public
functions (:mod:`tracing`) and writes the recorded spans to ``PATH`` on
shutdown.

Run by ``run.py``; by hand::

    PYTHONPATH=src python3 benchmarks/e2e/server.py [--spans spans.jsonl]
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", default=None,
                        help="trace every layer and write spans here")
    args = parser.parse_args(argv)

    from repro.gateway import GatewayServer
    from repro.serve import LocalizationService

    from workloads import MAP_RESOLUTION, build_deployment

    net, sniffers = build_deployment()
    service = LocalizationService(net.field, net.positions[sniffers],
                                  map_resolution=MAP_RESOLUTION)
    recorder = None
    if args.spans:
        from tracing import SpanRecorder, install

        recorder = SpanRecorder()
        install(recorder)
    gateway = GatewayServer(service, name="bench")
    service.start()
    try:
        port = gateway.start()
        print(json.dumps({"port": port}), flush=True)
        sys.stdin.read()  # serve until the load generator closes stdin
    finally:
        gateway.stop()
        service.stop()
        if recorder is not None:
            recorder.write(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
