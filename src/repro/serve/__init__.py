"""``repro.serve`` — a multi-tenant RL session gateway over the fleet backends.

The accelerator reproduced by this repo retires one Q-update per cycle;
the fleet backends (:mod:`repro.backends`) reproduce that at software
scale.  This package is the **ingress layer** that routes live external
traffic onto those lanes: clients open agent sessions over a
newline-delimited-JSON TCP API, stream ``(s, a, r, s')`` transitions
and action queries, and each session drives one leased fleet lane
through the same bit-exact 4-stage datapath the resident agents use.

Layering (each importable on its own):

* :mod:`~repro.serve.protocol` — the wire format and error codes;
* :mod:`~repro.serve.session` — :class:`SessionManager`: lane leasing,
  admission, journalling, per-tenant checkpoint/restore, crash
  recovery (no sockets; fully synchronous and unit-testable);
* :mod:`~repro.serve.gateway` — the asyncio TCP/HTTP front end;
* :mod:`~repro.serve.client` — a small blocking Python client;
* :mod:`~repro.serve.smoke` — the CI fault-injection smoke gate.

Run a gateway with ``python -m repro.serve``; see ``docs/serving.md``
for the protocol spec and deployment notes, and
:mod:`repro.perf.serve` for the saturation benchmark.
"""

from .client import ServeClient, ServeError, ServeSession
from .gateway import Gateway, run_gateway_in_thread
from .protocol import PROTOCOL, ProtocolError
from .session import (
    SessionManager,
    SessionRecord,
    build_serve_backend,
    default_serve_engine,
    serve_world,
)

__all__ = [
    "PROTOCOL",
    "Gateway",
    "ProtocolError",
    "ServeClient",
    "ServeError",
    "ServeSession",
    "SessionManager",
    "SessionRecord",
    "build_serve_backend",
    "default_serve_engine",
    "run_gateway_in_thread",
    "serve_world",
]
