"""``python -m repro.serve`` — run a session gateway.

Boots a fleet backend over a placeholder serve world (external
transitions never consult the environment tables; only the table shape
matters) and serves it until interrupted.  SIGTERM/SIGINT shut the
gateway down gracefully — sessions closed, lanes recycled, and (for
the sharded backend) shared memory and workers reclaimed via
:func:`repro.backends.sharded.install_signal_cleanup`.

Examples::

    python -m repro.serve --port 7777   # native if a C compiler exists
    python -m repro.serve --engine sharded --lanes 256 --workers 4 \\
        --http-port 9100   # GET /metrics, GET /healthz
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import logging

from ..backends.sharded import install_signal_cleanup
from ..core.config import QTAccelConfig
from .gateway import Gateway
from .session import SessionManager, build_serve_backend, default_serve_engine


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve fleet lanes to external RL clients over NDJSON TCP.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7777, help="TCP data port")
    parser.add_argument(
        "--http-port", type=int, default=None,
        help="optional HTTP port for /metrics and /healthz",
    )
    parser.add_argument(
        "--engine", default=default_serve_engine(),
        choices=("native", "vectorized", "scalar", "sharded"),
        help="fleet backend (default: native when a C compiler is found, "
        "else vectorized)",
    )
    parser.add_argument("--lanes", type=int, default=64, help="fleet lanes (= max tenants)")
    parser.add_argument("--states", type=int, default=128)
    parser.add_argument("--actions", type=int, default=4)
    parser.add_argument("--workers", type=int, default=2, help="sharded workers")
    parser.add_argument(
        "--preset", default="qlearning", choices=("qlearning", "sarsa"),
    )
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--max-sessions", type=int, default=None)
    parser.add_argument("--admission-timeout", type=float, default=1.0)
    parser.add_argument("--checkpoint-every", type=int, default=64)
    parser.add_argument("-v", "--verbose", action="store_true")
    return parser


async def _serve(args: argparse.Namespace) -> None:
    from ..telemetry.session import TelemetrySession

    config = getattr(QTAccelConfig, args.preset)(seed=args.seed)
    with TelemetrySession(trace=False) as telemetry:
        backend = build_serve_backend(
            config,
            engine=args.engine,
            lanes=args.lanes,
            num_states=args.states,
            num_actions=args.actions,
            num_workers=args.workers,
            telemetry=telemetry,
        )
        manager = SessionManager(
            backend,
            max_sessions=args.max_sessions,
            checkpoint_every=args.checkpoint_every,
            telemetry=telemetry,
        )
        gateway = Gateway(
            manager,
            host=args.host,
            port=args.port,
            http_port=args.http_port,
            admission_timeout_s=args.admission_timeout,
        )
        await gateway.start()
        print(f"serving {args.engine} x {args.lanes} lanes on {args.host}:{gateway.port}")
        if gateway.http_port is not None:
            print(f"metrics on http://{args.host}:{gateway.http_port}/metrics")
        try:
            await gateway.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await gateway.close()


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    install_signal_cleanup()
    with contextlib.suppress(KeyboardInterrupt):
        asyncio.run(_serve(args))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
