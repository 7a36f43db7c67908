"""Lane-leasing surface: reset_lane / apply_transition / query_action.

The serving stack (`repro.serve`) leans on one contract: lane ``k`` of
any fleet backend, driven through the three lane ops, is bit-identical
to a standalone :class:`FunctionalSimulator` seeded with the same salt.
These tests pin that contract backend by backend, preset by preset and
qmax mode by qmax mode — they are the foundation the gateway's
bit-exactness tests in ``test_serve.py`` stand on.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.backends.base import make_fleet_backend
from repro.backends.sharded import ShardedFleetBackend
from repro.backends.vectorized import VectorizedFleetBackend
from repro.core.config import QTAccelConfig
from repro.core.functional import FunctionalSimulator
from repro.core.policies import PolicyDraws
from repro.serve.session import serve_world

S, A = 16, 4
WORLD = serve_world(S, A)


def _reference(config, salt: int) -> FunctionalSimulator:
    return FunctionalSimulator(
        WORLD, config, draws=PolicyDraws.from_config(config, salt=salt)
    )


def _build(backend: str, config, k: int):
    if backend == "sharded":
        return ShardedFleetBackend(
            WORLD, config, num_agents=k, num_workers=2, mp_context="fork"
        )
    if backend == "scalar":
        return make_fleet_backend(WORLD, config, backend="scalar", num_agents=k)
    if backend == "native":
        from repro.backends.native import NativeFleetBackend, _find_compiler

        if _find_compiler() is None:
            pytest.skip("no C compiler for the fused kernel")
        # Lane ops route through the shared vectorized path.
        return NativeFleetBackend(WORLD, config, num_agents=k)
    return VectorizedFleetBackend(WORLD, config, num_agents=k)


def _drive(fleet, sims, *, steps: int, seed: int) -> None:
    """Interleave the three lane ops identically on fleet and references."""
    rng = random.Random(seed)
    lanes = list(range(len(sims)))
    for _ in range(steps):
        k = rng.choice(lanes)
        roll = rng.random()
        if roll < 0.70:
            s, a = rng.randrange(S), rng.randrange(A)
            r, ns = rng.uniform(-2.0, 2.0), rng.randrange(S)
            t = rng.random() < 0.05
            got = fleet.apply_transition(k, s, a, r, ns, t)
            want = sims[k].apply_transition(s, a, r, ns, t)
            assert got == want
        elif roll < 0.90:
            s = rng.randrange(S)
            got = fleet.query_action(k, s, True)
            want = sims[k].query_action(s, explore=True)
            assert got == want
        else:
            s = rng.randrange(S)
            got = fleet.query_action(k, s, False)
            want = sims[k].query_action(s, explore=False)
            assert got == want


def _assert_tables_equal(fleet, sims) -> None:
    for k, sim in enumerate(sims):
        assert [int(v) for v in fleet.q[k]] == [int(v) for v in sim.tables.q.data]


@pytest.mark.parametrize("backend", ["vectorized", "scalar", "native"])
@pytest.mark.parametrize("preset", ["qlearning", "sarsa"])
@pytest.mark.parametrize("qmax_mode", ["monotonic", "follow", "exact"])
def test_lane_ops_match_functional(backend, preset, qmax_mode):
    """Every lane op returns/updates bit-identically to the scalar sim."""
    cfg = getattr(QTAccelConfig, preset)(seed=7, qmax_mode=qmax_mode)
    fleet = _build(backend, cfg, k=3)
    salts = [100, 101, 102]
    for k, salt in enumerate(salts):
        fleet.reset_lane(k, salt)
    sims = [_reference(cfg, salt) for salt in salts]
    _drive(fleet, sims, steps=150, seed=99)
    _assert_tables_equal(fleet, sims)


@pytest.mark.parametrize("preset", ["qlearning", "sarsa"])
def test_lane_ops_match_functional_sharded(preset):
    """Borrowed-lane ops on the process-parallel backend stay bit-exact."""
    cfg = getattr(QTAccelConfig, preset)(seed=3)
    fleet = _build("sharded", cfg, k=4)
    try:
        salts = [200 + k for k in range(4)]
        for k, salt in enumerate(salts):
            fleet.reset_lane(k, salt)
        sims = [_reference(cfg, salt) for salt in salts]
        _drive(fleet, sims, steps=120, seed=5)
        _assert_tables_equal(fleet, sims)
    finally:
        fleet.close()


def test_reset_lane_is_pristine_and_isolated():
    """reset_lane re-seeds one lane exactly; the others are untouched."""
    cfg = QTAccelConfig.qlearning(seed=11)
    fleet = _build("vectorized", cfg, k=3)
    rng = random.Random(1)
    for _ in range(60):
        k = rng.randrange(3)
        fleet.apply_transition(
            k, rng.randrange(S), rng.randrange(A), rng.uniform(-1, 1),
            rng.randrange(S), False,
        )
    before = {k: np.array(fleet.q[k], copy=True) for k in (0, 2)}
    fleet.reset_lane(1, 500)
    fresh = _reference(cfg, 500)
    assert [int(v) for v in fleet.q[1]] == [int(v) for v in fresh.tables.q.data]
    for k in (0, 2):
        assert np.array_equal(np.asarray(fleet.q[k]), before[k])
    # The re-seeded lane continues bit-exactly from its pristine state.
    sims = [None, fresh, None]
    for _ in range(40):
        s, a = rng.randrange(S), rng.randrange(A)
        r, ns = rng.uniform(-1, 1), rng.randrange(S)
        assert fleet.apply_transition(1, s, a, r, ns, False) == fresh.apply_transition(
            s, a, r, ns, False
        )


def test_greedy_query_consumes_no_draw():
    """explore=False is a pure table read: no LFSR advance, no journal need."""
    cfg = QTAccelConfig.qlearning(seed=2)
    fleet = _build("vectorized", cfg, k=1)
    fleet.reset_lane(0, 77)
    ref = _reference(cfg, 77)
    rng = random.Random(8)
    for _ in range(50):
        s, a = rng.randrange(S), rng.randrange(A)
        r, ns = rng.uniform(-1, 1), rng.randrange(S)
        fleet.apply_transition(0, s, a, r, ns, False)
        ref.apply_transition(s, a, r, ns, False)
        # Greedy queries on the fleet only — if they consumed a draw the
        # streams would diverge at the next e-greedy op.
        fleet.query_action(0, rng.randrange(S), False)
    for _ in range(10):
        s = rng.randrange(S)
        assert fleet.query_action(0, s, True) == ref.query_action(s, explore=True)
    assert [int(v) for v in fleet.q[0]] == [int(v) for v in ref.tables.q.data]


def test_lane_op_range_validation():
    cfg = QTAccelConfig.qlearning(seed=1)
    fleet = _build("vectorized", cfg, k=2)
    with pytest.raises((ValueError, IndexError)):
        fleet.reset_lane(2, 10)
    with pytest.raises((ValueError, IndexError)):
        fleet.reset_lane(-1, 10)
