"""Lane-leasing surface: reset_lane / apply_transition / query_action.

The serving stack (`repro.serve`) leans on one contract: lane ``k`` of
any fleet backend, driven through the three lane ops, is bit-identical
to a standalone :class:`FunctionalSimulator` seeded with the same salt.
These tests pin that contract backend by backend, preset by preset and
qmax mode by qmax mode — they are the foundation the gateway's
bit-exactness tests in ``test_serve.py`` stand on.
"""

from __future__ import annotations

import dataclasses
import functools
import random

import numpy as np
import pytest

from repro import make_engine
from repro.backends.sharded import ShardedFleetBackend
from repro.backends.vectorized import VectorizedFleetBackend
from repro.core.config import QTAccelConfig
from repro.core.functional import FunctionalSimulator
from repro.core.policies import PolicyDraws
from repro.envs.gridworld import GridWorld
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
        return make_engine(config, engine="scalar", mdps=WORLD, num_agents=k)
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


@pytest.mark.parametrize("salt", [7, 2**50 + 3, -(2**40)])
def test_lfsr_seeds_match_policy_draws(salt):
    """A fleet seeds its LFSR registers in int64 arithmetic and
    ``PolicyDraws`` in Python integers: a salt whose product wraps int64
    still gives the same registers, at construction and at reset_lane."""
    cfg = QTAccelConfig.sarsa(seed=5)
    expected = PolicyDraws.from_config(cfg, salt=salt).state_dict()
    fleet = VectorizedFleetBackend(WORLD, cfg, num_agents=2, salts=[0, salt])
    assert fleet.lane_state(1)["lfsr"] == expected
    fleet.reset_lane(0, salt)
    assert fleet.lane_state(0)["lfsr"] == expected


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


# ---------------------------------------------------------------------- #
# The batched lane op: apply_transition over columns
# ---------------------------------------------------------------------- #


def _rows(rng: random.Random, n: int) -> list[tuple]:
    return [
        (rng.randrange(S), rng.randrange(A), rng.uniform(-2.0, 2.0), rng.randrange(S),
         rng.random() < 0.05)
        for _ in range(n)
    ]


def _as_columns(rows: list[tuple]) -> tuple:
    """Rows as (state, action, reward, next_state, terminal) numpy columns."""
    s, a, r, ns, t = zip(*rows)
    return np.array(s), np.array(a), np.array(r), np.array(ns), np.array(t)


def _functional_lane(sim: FunctionalSimulator) -> dict:
    """A functional simulator's state in the fleet ``lane_state`` vocabulary."""
    d = sim.state_dict()
    pair, state, prev_q, prev_qmax, prev_qa = d["last_write"]
    lane = {
        "q": list(sim.tables.q.data),
        "qmax": list(sim.tables.qmax.data),
        "qmax_action": list(sim.tables.qmax_action.data),
        "arch_state": -1 if d["arch_state"] is None else d["arch_state"],
        "forwarded": -1 if d["forwarded_action"] is None else d["forwarded_action"],
        "prev_pair": pair,
        "prev_state": state,
        "prev_q": prev_q,
        "prev_qmax": prev_qmax,
        "prev_qmax_action": prev_qa,
        "lfsr": dict(d["draws"]),
    }
    for name in sim.config.rule.extra_tables:
        lane[name] = list(sim.tables.extra_rams[name].data)
    if "sync_count" in d["rule"]:
        lane["target_count"] = d["rule"]["sync_count"]
    return lane


def _fleet_lane(fleet, k: int) -> dict:
    """Lane ``k`` of any backend, normalised to plain ints and lists."""
    if hasattr(fleet, "sims"):  # the scalar backend checkpoints functional sims
        return _functional_lane(fleet.sims[k])
    out = {}
    for key, value in fleet.lane_state(k).items():
        if key == "lfsr":
            out[key] = {name: int(v) for name, v in value.items()}
        elif np.ndim(value):
            out[key] = [int(v) for v in value]
        else:
            out[key] = int(value)
    return out


def _counts(stats) -> tuple:
    return stats.exploits, stats.explores, stats.episodes


def _check_three_ways(backend: str, cfg, *, lanes: int = 2, n: int = 90, seed: int = 0):
    """Feed one op stream per lane as one batch, in chunks and row by row;
    every way must end where per-row FunctionalSimulators end."""
    salts = [300 + k for k in range(lanes)]
    rng = random.Random(seed)
    streams = [_rows(rng, n) for _ in range(lanes)]
    sims = [_reference(cfg, salt) for salt in salts]
    last = [0] * lanes
    for k, rows in enumerate(streams):
        for row in rows:
            last[k] = sims[k].apply_transition(*row)

    fleets = [_build(backend, cfg, k=lanes) for _ in range(3)]
    try:
        for fleet in fleets:
            for k, salt in enumerate(salts):
                fleet.reset_lane(k, salt)
        batch, chunked, by_row = fleets
        for k, rows in enumerate(streams):
            assert batch.apply_transition(k, *_as_columns(rows)) == last[k]
        # Chunks of uneven size, lanes interleaved, columns as plain lists.
        cuts = [0, 1, 8, 40, n]
        for lo, hi in zip(cuts, cuts[1:]):
            for k, rows in enumerate(streams):
                s, a, r, ns, t = (list(c) for c in zip(*rows[lo:hi]))
                q = chunked.apply_transition(k, s, a, r, ns, t)
        assert q == last[-1]
        for k, rows in enumerate(streams):
            for row in rows:
                q = by_row.apply_transition(k, *row)
            assert q == last[k]

        want = [_functional_lane(sim) for sim in sims]
        counts = tuple(sum(c) for c in zip(*(_counts(sim.stats) for sim in sims)))
        for fleet in fleets:
            for k in range(lanes):
                got = _fleet_lane(fleet, k)
                assert {key: got[key] for key in want[k]} == want[k]
            assert _counts(fleet.stats) == counts
    finally:
        for fleet in fleets:
            if hasattr(fleet, "close"):
                fleet.close()


@pytest.mark.parametrize("backend", ["vectorized", "scalar", "native", "sharded"])
@pytest.mark.parametrize("preset", ["qlearning", "sarsa"])
@pytest.mark.parametrize("qmax_mode", ["monotonic", "follow", "exact"])
def test_batched_lane_op_three_ways(backend, preset, qmax_mode):
    cfg = getattr(QTAccelConfig, preset)(seed=17, qmax_mode=qmax_mode)
    _check_three_ways(backend, cfg)


@pytest.mark.parametrize(
    "cfg",
    [
        QTAccelConfig.momentum(seed=19),
        QTAccelConfig.target_q(seed=23),
        QTAccelConfig.target_q(seed=29, target_sync_period=16),
    ],
    ids=["momentum", "target", "target-sync"],
)
def test_batched_lane_op_rule_tables_on_native(cfg):
    """Momentum and target tables (and the sync counter) retire in the
    compiled lane op exactly as in the functional simulator."""
    _check_three_ways("native", cfg, n=120)


@pytest.mark.parametrize("backend", ["vectorized", "scalar", "native", "sharded"])
@pytest.mark.parametrize(
    "field, value",
    [("k", 5), ("k", -1), ("s", S), ("s", -1), ("a", A), ("a", -3),
     ("ns", S + 7), ("ns", -1), ("r", float("nan")), ("r", float("inf"))],
)
def test_bad_row_anywhere_rejects_whole_batch(backend, field, value):
    """An invalid value in the last row raises ValueError before any row
    is applied: lane state, LFSR registers and stats stay put."""
    cfg = QTAccelConfig.sarsa(seed=5)
    fleet = _build(backend, cfg, k=2)
    try:
        fleet.reset_lane(1, 41)
        rows = _rows(random.Random(3), 12)
        s, a, r, ns, t = (list(c) for c in zip(*rows))
        k = 1
        if field == "k":
            k = value
        else:
            {"s": s, "a": a, "r": r, "ns": ns}[field][-1] = value
        before = [_fleet_lane(fleet, lane) for lane in range(2)]
        counts = _counts(fleet.stats)
        with pytest.raises(ValueError):
            fleet.apply_transition(k, s, a, r, ns, t)
        assert [_fleet_lane(fleet, lane) for lane in range(2)] == before
        assert _counts(fleet.stats) == counts
    finally:
        if hasattr(fleet, "close"):
            fleet.close()


@pytest.mark.parametrize(
    "columns",
    [
        ([1, 2], [0, 1], [0.5], [3, 4], [False, False]),  # mismatched lengths
        ([[1]], [0], [0.5], [3], [False]),  # 2-D column
        ([1.5], [0], [0.5], [3], [False]),  # non-integer state
        ([True], [0], [0.5], [3], [False]),  # bool state
    ],
    ids=["lengths", "2d", "float-state", "bool-state"],
)
def test_malformed_columns_rejected(columns):
    fleet = _build("vectorized", QTAccelConfig.qlearning(seed=1), k=1)
    with pytest.raises(ValueError):
        fleet.apply_transition(0, *columns)


def test_scalars_broadcast_and_empty_batch():
    """Scalar fields broadcast along the columns; an empty batch is a no-op
    returning 0."""
    cfg = QTAccelConfig.qlearning(seed=4)
    fleet = _build("vectorized", cfg, k=1)
    fleet.reset_lane(0, 9)
    ref = _reference(cfg, 9)
    before = _fleet_lane(fleet, 0)
    assert fleet.apply_transition(0, [], [], [], [], []) == 0
    assert _fleet_lane(fleet, 0) == before
    q = fleet.apply_transition(0, [1, 2, 3], 1, 0.25, [2, 3, 4])
    for s in (1, 2, 3):
        want = ref.apply_transition(s, 1, 0.25, s + 1, False)
    assert q == want
    assert _fleet_lane(fleet, 0) == _functional_lane(ref)


# ---------------------------------------------------------------------- #
# Lane ops interleaved with fleet runs
# ---------------------------------------------------------------------- #

GRID = GridWorld.random(8, 4, obstacle_density=0.15, seed=2).to_mdp()

RULE_CONFIGS = {
    "qlearning": QTAccelConfig.qlearning,
    "sarsa": QTAccelConfig.sarsa,
    "momentum": QTAccelConfig.momentum,
    "target": functools.partial(QTAccelConfig.target_q, target_sync_period=7),
}


@pytest.mark.parametrize("ecc", [False, True], ids=["plain", "ecc"])
@pytest.mark.parametrize("qmax_mode", ["monotonic", "follow", "exact"])
@pytest.mark.parametrize("rule", sorted(RULE_CONFIGS))
@pytest.mark.parametrize("backend", ["vectorized", "native"])
def test_runs_interleaved_with_lane_ops(backend, rule, qmax_mode, ecc):
    """``run(n)``, batched ``apply_transition`` and exploring
    ``query_action`` in one stream leave every lane where a functional
    simulator fed the same ops ends: the SARSA forwarded action, the lag
    latch, the episode latch and the rule tables carry across the two
    retire paths.  ``ecc`` switches the reference to ECC tables."""
    cfg = RULE_CONFIGS[rule](seed=13, qmax_mode=qmax_mode)
    lanes = 3
    if backend == "native":
        from repro.backends.native import NativeFleetBackend, _find_compiler

        if _find_compiler() is None:
            pytest.skip("no C compiler for the fused kernel")
        fleet = NativeFleetBackend(GRID, cfg, num_agents=lanes)
    else:
        fleet = VectorizedFleetBackend(GRID, cfg, num_agents=lanes)
    ref_cfg = dataclasses.replace(cfg, ecc_tables=ecc)
    sims = [
        FunctionalSimulator(GRID, ref_cfg, draws=PolicyDraws.from_config(ref_cfg, salt=k))
        for k in range(lanes)
    ]
    rng = random.Random(f"{rule}-{qmax_mode}")
    S_grid, A_grid = GRID.num_states, GRID.num_actions
    for op in range(40):
        roll = rng.random()
        k = rng.randrange(lanes)
        if roll < 0.4:
            n = rng.randrange(1, 17)
            fleet.run(n)
            for sim in sims:
                sim.run(n)
        elif roll < 0.8:
            rows = [
                (rng.randrange(S_grid), rng.randrange(A_grid), rng.uniform(-2.0, 2.0),
                 rng.randrange(S_grid), rng.random() < 0.1)
                for _ in range(rng.randrange(1, 6))
            ]
            got = fleet.apply_transition(k, *_as_columns(rows))
            for row in rows:
                want = sims[k].apply_transition(*row)
            assert got == want, f"op {op}"
        else:
            s = rng.randrange(S_grid)
            assert fleet.query_action(k, s, True) == sims[k].query_action(s), f"op {op}"
        for lane, sim in enumerate(sims):
            want = _functional_lane(sim)
            got = _fleet_lane(fleet, lane)
            assert {key: got[key] for key in want} == want, f"op {op} lane {lane}"
    assert _counts(fleet.stats) == tuple(
        sum(c) for c in zip(*(_counts(sim.stats) for sim in sims))
    )


# ---------------------------------------------------------------------- #
# query_action input validation
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", ["functional", "vectorized", "scalar", "native", "sharded"])
def test_bad_query_consumes_no_draw(backend):
    """A non-integer or bool lane or state raises a typed error before
    the policy LFSR is drawn: the lane, its LFSR registers included, is
    unchanged, so a later exploring query still matches the reference."""
    cfg = QTAccelConfig.sarsa(seed=5)
    ref = _reference(cfg, 41)
    if backend == "functional":
        fleet = None
        sim = _reference(cfg, 41)
        query = lambda k, s: sim.query_action(s, True)  # noqa: E731
        snapshot = lambda: _functional_lane(sim)  # noqa: E731
        bad = [(0, 1.5), (0, True), (0, np.float64(2.0))]
    else:
        fleet = _build(backend, cfg, k=2)
        fleet.reset_lane(1, 41)
        query = lambda k, s: fleet.query_action(k, s, True)  # noqa: E731
        snapshot = lambda: [_fleet_lane(fleet, lane) for lane in range(2)]  # noqa: E731
        bad = [(1, 1.5), (1, True), (1, np.float64(2.0)),
               (1.5, 2), (True, 2), (np.float64(1.0), 2), (2, 2), (-1, 2)]
    try:
        before = snapshot()
        for k, s in bad:
            with pytest.raises((IndexError, ValueError)):
                query(k, s)
            assert snapshot() == before, (k, s)
        for s in (2, 5, 9):
            assert query(1, s) == ref.query_action(s, True)
    finally:
        if hasattr(fleet, "close"):
            fleet.close()


@pytest.mark.parametrize("backend", ["vectorized", "native", "sharded"])
def test_off_policy_egreedy_behaviour(backend):
    """E-greedy behaviour with a greedy update (off-policy) draws a fresh
    behaviour action every sample, like the reference: only on-policy
    lanes hold a forwarded action, so none may read the unset latch (-1),
    which numpy would wrap to the last action and C would use as an
    out-of-bounds table index."""
    cfg = QTAccelConfig.qlearning(seed=17, behavior_policy="egreedy", qmax_mode="follow")
    fleet = _build(backend, cfg, k=3)
    sims = [_reference(cfg, k) for k in range(3)]
    try:
        fleet.run(150)
        for lane, sim in enumerate(sims):
            sim.run(150)
            assert _fleet_lane(fleet, lane) == _functional_lane(sim), lane
        assert _counts(fleet.stats) == tuple(
            sum(c) for c in zip(*(_counts(sim.stats) for sim in sims))
        )
    finally:
        if hasattr(fleet, "close"):
            fleet.close()


@pytest.mark.parametrize("backend", ["vectorized", "scalar", "native", "sharded"])
def test_bad_reset_lane_changes_nothing(backend):
    """``reset_lane`` applies the lane ops' integer rule: a bool, float or
    out-of-range lane raises IndexError and touches no table, latch or
    LFSR register of any lane (``True`` would otherwise re-seed lane 1)."""
    fleet = _build(backend, QTAccelConfig.sarsa(seed=5), k=2)
    try:
        fleet.run(20)
        before = [_fleet_lane(fleet, lane) for lane in range(2)]
        for k in (True, False, 1.5, np.float64(1.0), 2, -1):
            with pytest.raises(IndexError):
                fleet.reset_lane(k, 7)
            assert [_fleet_lane(fleet, lane) for lane in range(2)] == before, k
    finally:
        if hasattr(fleet, "close"):
            fleet.close()


@pytest.mark.parametrize(
    "row",
    [(True, 0, 0.5, 2), (1.5, 0, 0.5, 2), (1, np.float64(1.0), 0.5, 2),
     (1, 0, 0.5, True)],
    ids=["bool-state", "float-state", "float-action", "bool-next"],
)
def test_functional_bad_transition_changes_nothing(row):
    """The reference simulator applies the lane ops' integer rule before
    its update-policy draw: a bad row raises ValueError and leaves the
    tables, latches, LFSRs and counters as they were."""
    sim = _reference(QTAccelConfig.sarsa(seed=5), 41)
    sim.apply_transition(3, 1, 0.25, 4, False)
    before, counts = _functional_lane(sim), _counts(sim.stats)
    with pytest.raises(ValueError):
        sim.apply_transition(*row)
    assert _functional_lane(sim) == before
    assert _counts(sim.stats) == counts
