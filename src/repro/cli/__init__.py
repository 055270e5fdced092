"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``simulate``      deploy a network, place users, dump the flux map
``localize``      run the sparse-sampling NLS attack on fresh flux
``build-map``     precompute a deployment's fingerprint map
``track``         run the SMC tracker over a synchronous scenario
``track-stream``  run the streaming tracker (replay / tail / live)
``traces``        generate / inspect synthetic campus traces
``experiment``    run one paper-figure experiment and print its table
``serve``         drive a synthetic load through one batched service
``fleet``         drive the same load through a multi-process fleet
``gateway``       drive it over TCP through the asyncio gateway
``defend``        evaluate the traffic-reshaping countermeasures
"""

from repro.cli.main import build_parser, main

__all__ = ["main", "build_parser"]
