"""Tests for the robustness subsystem: SECDED ECC, fault injection,
divergence guards, checkpoint/restore, and the fleet supervisor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import make_engine
from repro.core.config import QTAccelConfig
from repro.core.functional import FunctionalSimulator
from repro.core.pipeline import QTAccelPipeline
from repro.envs.gridworld import GridWorld
from repro.robustness import (
    BatchLanes,
    CheckpointStore,
    DivergenceError,
    DivergenceGuard,
    EccTableRam,
    FaultInjector,
    FleetSupervisor,
    Scrubber,
    SecDed,
    SimLanes,
    Watchdog,
)
from repro.robustness.ecc import (
    DECODE_CLEAN,
    DECODE_CORRECTED,
    DECODE_DETECTED,
)


def _mdp():
    return GridWorld.random(8, 4, obstacle_density=0.15, seed=2).to_mdp()


def _cfg(**kw):
    return QTAccelConfig.qlearning(seed=5, **kw)


# ---------------------------------------------------------------------- #
# SECDED codec
# ---------------------------------------------------------------------- #


class TestSecDed:
    @pytest.mark.parametrize("width", [1, 4, 8, 16, 21, 57])
    def test_roundtrip_clean(self, width):
        codec = SecDed(width)
        rng = np.random.default_rng(0)
        for word in [0, (1 << width) - 1, *rng.integers(0, 1 << width, 8)]:
            word = int(word)
            check = codec.encode(word)
            assert codec.decode(word, check) == (DECODE_CLEAN, word, check)

    def test_every_single_bit_flip_corrected(self):
        """Exhaustive over all 22 codeword bits of a 16-bit word."""
        codec = SecDed(16)
        for word in (0, 0xA5A5 & 0xFFFF, 0xFFFF):
            check = codec.encode(word)
            for bit in range(16):
                status, w, c = codec.decode(word ^ (1 << bit), check)
                assert status == DECODE_CORRECTED
                assert (w, c) == (word, check)
            for bit in range(codec.check_bits):
                status, w, c = codec.decode(word, check ^ (1 << bit))
                assert status == DECODE_CORRECTED
                assert (w, c) == (word, check)

    def test_every_double_bit_flip_detected(self):
        """Exhaustive over all codeword bit pairs of a 16-bit word."""
        codec = SecDed(16)
        word = 0x3C71
        check = codec.encode(word)
        total = 16 + codec.check_bits

        def flipped(bit):
            if bit < 16:
                return word ^ (1 << bit), check
            return word, check ^ (1 << (bit - 16))

        for b1 in range(total):
            for b2 in range(b1 + 1, total):
                w, c = flipped(b1)
                if b2 < 16:
                    w ^= 1 << b2
                else:
                    c ^= 1 << (b2 - 16)
                status, _, _ = codec.decode(w, c)
                assert status == DECODE_DETECTED, (b1, b2)

    def test_width_bounds(self):
        with pytest.raises(ValueError):
            SecDed(0)
        with pytest.raises(ValueError):
            SecDed(58)

    def test_encode_many_matches_scalar(self):
        codec = SecDed(16)
        words = np.random.default_rng(1).integers(0, 1 << 16, 64, dtype=np.int64)
        checks = codec.encode_many(words)
        for w, c in zip(words, checks):
            assert codec.encode(int(w)) == int(c)
        assert np.all(codec.syndrome_many(words, checks) == 0)

    def test_syndrome_many_flags_corruption(self):
        codec = SecDed(16)
        words = np.zeros(8, dtype=np.int64)
        checks = codec.encode_many(words)
        words[3] ^= 1 << 7
        syn = codec.syndrome_many(words, checks)
        assert syn[3] != 0
        assert np.count_nonzero(syn) == 1


# ---------------------------------------------------------------------- #
# EccTableRam
# ---------------------------------------------------------------------- #


class TestEccTableRam:
    def _ram(self, **kw):
        return EccTableRam(16, 16, name="t", **kw)

    def test_single_flip_corrected_on_read(self):
        ram = self._ram()
        ram.write_now(3, -100)
        ram.inject(3, 13)
        assert ram.data[3] != -100  # corrupted in storage
        assert ram.read(3) == -100
        assert ram.data[3] == -100  # write-back correction fixed storage
        assert ram.ecc_corrected == 1
        assert ram.ecc_detected == 0

    def test_check_bit_flip_corrected(self):
        ram = self._ram()
        ram.write_now(1, 42)
        ram.inject(1, 16)  # bit >= width strikes the check array
        assert ram.read(1) == 42
        assert ram.ecc_corrected == 1

    def test_double_flip_detected_not_corrected(self):
        ram = self._ram()
        ram.write_now(2, 7)
        ram.inject(2, 0)
        ram.inject(2, 9)
        ram.read(2)
        assert ram.ecc_detected == 1
        assert ram.ecc_corrected == 0

    def test_write_reencodes(self):
        ram = self._ram()
        ram.inject(5, 4)
        ram.write_now(5, 99)  # overwrite clears the corruption
        assert ram.scrub_word(5) == DECODE_CLEAN
        assert ram.read(5) == 99

    def test_staged_write_commit_reencodes(self):
        ram = self._ram()
        ram.write(7, -5)
        ram.commit()
        assert ram.scrub_word(7) == DECODE_CLEAN
        assert ram.read(7) == -5

    def test_read_many_corrects(self):
        ram = self._ram()
        ram.write_many_now(np.arange(8), np.arange(8) * 3)
        ram.inject(4, 2)
        out = ram.read_many(np.array([1, 4, 4, 7]))
        assert list(out) == [3, 12, 12, 21]
        assert ram.ecc_corrected == 1

    def test_state_dict_roundtrip(self):
        ram = self._ram()
        ram.write_now(0, -1)
        snap = ram.state_dict()
        ram.write_now(0, 5)
        ram.inject(1, 3)
        ram.load_state_dict(snap)
        assert ram.read(0) == -1
        assert ram.scrub_word(1) == DECODE_CLEAN

    def test_unsigned_mode(self):
        ram = EccTableRam(4, 3, name="act", signed=False)
        ram.write_now(0, 5)
        ram.inject(0, 2)
        assert ram.read(0) == 5
        assert ram.data[0] >= 0


# ---------------------------------------------------------------------- #
# Fault injector
# ---------------------------------------------------------------------- #


class TestFaultInjector:
    def test_poisson_strikes_deterministic(self):
        tables = []
        for _ in range(2):
            arr = np.zeros(64, dtype=np.int64)
            inj = FaultInjector(seed=7, rate=0.5)
            inj.add_array(arr, 16, label="q")
            for _ in range(50):
                inj.step(4)
            tables.append((arr.copy(), inj.injected))
        assert tables[0][1] == tables[1][1] > 0
        assert np.array_equal(tables[0][0], tables[1][0])

    def test_scheduled_flip_fires_at_exact_time(self):
        ram = EccTableRam(8, 16, name="q")
        inj = FaultInjector(seed=0)
        inj.schedule(5, ram, 2, 3)
        inj.step(4)
        assert inj.injected_scheduled == 0
        assert ram.scrub_word(2) == DECODE_CLEAN
        inj.step(1)
        assert inj.injected_scheduled == 1
        assert ram.scrub_word(2) == DECODE_CORRECTED

    def test_schedule_in_past_rejected(self):
        inj = FaultInjector()
        inj.step(10)
        with pytest.raises(ValueError):
            inj.schedule(9, np.zeros(1, dtype=np.int64), 0, 0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector(rate=-0.1)

    def test_strikes_cover_all_targets(self):
        """Uniform strikes land in every registered table eventually,
        proportionally to size (bigger tables take more hits)."""
        small = np.zeros(8, dtype=np.int64)
        big = np.zeros(64, dtype=np.int64)
        inj = FaultInjector(seed=3, rate=10.0)
        inj.add_array(small, 16, label="small")
        inj.add_array(big, 16, label="big")
        inj.step(100)
        hits_small = int(np.count_nonzero(small))
        hits_big = int(np.count_nonzero(big))
        assert hits_small > 0 and hits_big > hits_small

    def test_corrupt_pipeline_register(self):
        pipe = QTAccelPipeline(_mdp(), _cfg())
        for _ in range(4):  # fill the pipe so registers hold live samples
            pipe.step()
        inj = FaultInjector(seed=1)
        desc = inj.corrupt_pipeline(pipe)
        assert desc is not None and "[" in desc
        assert inj.injected_registers == 1

    def test_corrupt_empty_pipeline_is_none(self):
        pipe = QTAccelPipeline(_mdp(), _cfg())
        assert FaultInjector().corrupt_pipeline(pipe) is None

    def test_add_tables_unknown_name(self):
        sim = FunctionalSimulator(_mdp(), _cfg(ecc_tables=True))
        inj = FaultInjector()
        with pytest.raises(ValueError):
            inj.add_tables(sim.tables, include=("qq",))


# ---------------------------------------------------------------------- #
# Scrubber
# ---------------------------------------------------------------------- #


class TestScrubber:
    def test_background_sweep_corrects_without_reads(self):
        ram = EccTableRam(64, 16, name="q")
        scrub = Scrubber(burst=16)
        scrub.add_ram(ram)
        ram.inject(40, 11)
        for _ in range(4):  # 4 bursts of 16 cover all 64 words
            scrub.step()
        assert scrub.corrected == 1
        assert ram.scrub_word(40) == DECODE_CLEAN

    def test_detected_double_error_counted(self):
        ram = EccTableRam(8, 16, name="q")
        scrub = Scrubber(burst=8)
        scrub.add_ram(ram)
        ram.inject(0, 1)
        ram.inject(0, 2)
        scrub.scrub_all()
        assert scrub.detected >= 1
        assert scrub.corrected == 0

    def test_semantic_qmax_repair(self):
        """A Qmax word laundered below its row max (valid ECC, wrong
        value) is rewritten from the Q row."""
        sim = FunctionalSimulator(_mdp(), _cfg(ecc_tables=True))
        sim.run(200)
        T = sim.tables
        state = 37  # visited heavily by the golden trace
        row_max = int(T.row_q(state).max())
        T.qmax.write_now(state, row_max - 10)  # valid codeword, wrong value
        scrub = Scrubber(burst=8)
        scrub.add_tables(T)
        scrub.scrub_all()
        assert scrub.scrub_repairs == 1
        assert int(T.qmax.data[state]) == row_max
        assert T.qmax_invariant_holds()

    def test_repair_vetoed_on_uncorrectable_word(self):
        sim = FunctionalSimulator(_mdp(), _cfg(ecc_tables=True))
        sim.run(50)
        T = sim.tables
        T.qmax.inject(37, 0)
        T.qmax.inject(37, 5)  # double error: repair must not trust it
        scrub = Scrubber(burst=8)
        scrub.add_tables(T)
        repairs_before = scrub.scrub_repairs
        scrub.scrub_all()
        assert scrub.detected >= 1
        assert scrub.scrub_repairs == repairs_before

    def test_plain_tables_rejected(self):
        sim = FunctionalSimulator(_mdp(), _cfg())
        scrub = Scrubber()
        with pytest.raises(TypeError):
            scrub.add_tables(sim.tables)
        with pytest.raises(TypeError):
            scrub.add_ram(sim.tables.q)


# ---------------------------------------------------------------------- #
# ECC-backed engines stay bit-identical to plain ones (no faults)
# ---------------------------------------------------------------------- #


class TestEccTransparency:
    @pytest.mark.parametrize("preset", ["qlearning", "sarsa"])
    def test_functional_trajectory_unchanged(self, preset):
        mdp = _mdp()
        make = getattr(QTAccelConfig, preset)
        plain = FunctionalSimulator(mdp, make(seed=5))
        ecc = FunctionalSimulator(mdp, make(seed=5, ecc_tables=True))
        t_plain = plain.enable_trace()
        t_ecc = ecc.enable_trace()
        plain.run(300)
        ecc.run(300)
        assert t_plain == t_ecc
        assert np.array_equal(plain.tables.q.data, ecc.tables.q.data)

    def test_pipeline_trajectory_unchanged(self):
        mdp = _mdp()
        plain = QTAccelPipeline(mdp, _cfg())
        ecc = QTAccelPipeline(mdp, _cfg(ecc_tables=True))
        t_plain = plain.enable_trace()
        t_ecc = ecc.enable_trace()
        plain.run(100)
        ecc.run(100)
        assert t_plain == t_ecc


# ---------------------------------------------------------------------- #
# Divergence guards
# ---------------------------------------------------------------------- #


class TestDivergenceGuard:
    def _fmt(self):
        return QTAccelConfig().q_format

    def test_out_of_range_raises(self):
        guard = DivergenceGuard("raise")
        fmt = self._fmt()
        with pytest.raises(DivergenceError):
            guard.observe_update(1, 2, fmt.raw_max + 1, fmt)

    def test_out_of_range_clamped(self):
        guard = DivergenceGuard("clamp")
        fmt = self._fmt()
        assert guard.observe_update(1, 2, fmt.raw_max + 99, fmt) == fmt.raw_max
        assert guard.observe_update(1, 2, fmt.raw_min - 99, fmt) == fmt.raw_min
        assert guard.out_of_range == 2
        assert guard.quarantined == set()

    def test_quarantine_records_pair(self):
        guard = DivergenceGuard("quarantine")
        fmt = self._fmt()
        guard.observe_update(3, 1, fmt.raw_min - 1, fmt)
        assert (3, 1) in guard.quarantined

    def test_in_range_untouched(self):
        guard = DivergenceGuard("raise")
        fmt = self._fmt()
        assert guard.observe_update(0, 0, 1234, fmt) == 1234
        assert guard.events == 0

    def test_stuck_at_rail_trips_on_streak(self):
        guard = DivergenceGuard("quarantine", stuck_limit=4)
        fmt = self._fmt()
        for _ in range(3):
            guard.observe_update(5, 0, fmt.raw_min, fmt)
        assert guard.stuck_events == 0
        guard.observe_update(5, 0, fmt.raw_min, fmt)
        assert guard.stuck_events == 1
        assert (5, 0) in guard.quarantined

    def test_streak_resets_on_other_pair(self):
        guard = DivergenceGuard("clamp", stuck_limit=3)
        fmt = self._fmt()
        guard.observe_update(5, 0, fmt.raw_min, fmt)
        guard.observe_update(5, 0, fmt.raw_min, fmt)
        guard.observe_update(6, 0, fmt.raw_min, fmt)  # different pair
        guard.observe_update(5, 0, fmt.raw_min, fmt)
        assert guard.stuck_events == 0

    def test_legitimate_fixed_point_not_flagged(self):
        """The golden SARSA wall-grind (fixed point -16320, far off the
        -32768 rail) must not look like a stuck-at fault."""
        guard = DivergenceGuard("raise", stuck_limit=8)
        fmt = self._fmt()
        for _ in range(100):
            assert guard.observe_update(6, 0, -16320, fmt) == -16320
        assert guard.events == 0

    def test_array_path_quarantines_lane(self):
        guard = DivergenceGuard("quarantine", stuck_limit=3)
        fmt = self._fmt()
        q = np.array([0, fmt.raw_max, 5], dtype=np.int64)
        for _ in range(3):
            guard.observe_array(q, fmt)
        assert guard.quarantined_lanes == {1}
        assert guard.stuck_events == 1

    def test_check_finite(self):
        guard = DivergenceGuard("clamp")
        assert guard.check_finite([1.0, 2.0])
        assert not guard.check_finite([1.0, float("nan")])
        assert guard.nonfinite == 1
        with pytest.raises(DivergenceError):
            DivergenceGuard("raise").check_finite([float("inf")])

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            DivergenceGuard("panic")
        with pytest.raises(ValueError):
            DivergenceGuard(stuck_limit=1)

    def test_guarded_run_is_transparent_when_healthy(self):
        mdp = _mdp()
        ref = FunctionalSimulator(mdp, _cfg())
        ref.run(200)
        sim = FunctionalSimulator(mdp, _cfg())
        sim.guard = DivergenceGuard("raise", stuck_limit=64)
        sim.run(200)
        assert np.array_equal(ref.tables.q.data, sim.tables.q.data)


# ---------------------------------------------------------------------- #
# Checkpoint determinism (functional / pipeline / batch)
# ---------------------------------------------------------------------- #


class TestCheckpointDeterminism:
    def test_functional_restore_is_bit_identical(self):
        mdp = _mdp()
        ref = FunctionalSimulator(mdp, _cfg())
        ref.run(500)

        sim = FunctionalSimulator(mdp, _cfg())
        sim.run(200)
        snap = sim.state_dict()
        sim.run(300)
        interrupted_q = sim.tables.q.data.copy()

        sim.load_state_dict(snap)
        assert sim.stats.samples == 200
        sim.run(300)
        assert np.array_equal(sim.tables.q.data, interrupted_q)
        assert np.array_equal(sim.tables.q.data, ref.tables.q.data)
        assert vars(sim.stats) == vars(ref.stats)

    def test_snapshot_is_isolated_from_live_state(self):
        sim = FunctionalSimulator(_mdp(), _cfg())
        sim.run(50)
        snap = sim.state_dict()
        frozen = snap["tables"]["q"]["data"].copy()
        sim.run(50)
        assert np.array_equal(snap["tables"]["q"]["data"], frozen)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=1, max_value=2**16),
        split=st.integers(min_value=0, max_value=120),
        sarsa=st.booleans(),
    )
    def test_property_restore_replays_any_split(self, seed, split, sarsa):
        """For any (seed, algorithm, checkpoint position): restoring a
        mid-run snapshot and finishing produces the exact Q table and
        stats of the uninterrupted run."""
        mdp = _mdp()
        make = QTAccelConfig.sarsa if sarsa else QTAccelConfig.qlearning
        total = 120
        ref = FunctionalSimulator(mdp, make(seed=seed))
        ref.run(total)

        sim = FunctionalSimulator(mdp, make(seed=seed))
        sim.run(split)
        snap = sim.state_dict()
        sim.run(total - split)  # keep going past the snapshot...
        sim.load_state_dict(snap)  # ...then rewind and replay
        sim.run(total - split)
        assert np.array_equal(sim.tables.q.data, ref.tables.q.data)
        assert sim.arch_state == ref.arch_state
        assert vars(sim.stats) == vars(ref.stats)

    def test_pipeline_checkpoint_at_drained_boundary(self):
        mdp = _mdp()
        ref = QTAccelPipeline(mdp, _cfg())
        ref.run(96)

        pipe = QTAccelPipeline(mdp, _cfg())
        pipe.run(40)
        snap = pipe.state_dict()
        other = QTAccelPipeline(mdp, _cfg())
        other.load_state_dict(snap)
        other.run(56)
        assert np.array_equal(other.tables.q.data, ref.tables.q.data)

    def test_pipeline_rejects_mid_flight_checkpoint(self):
        pipe = QTAccelPipeline(_mdp(), _cfg())
        for _ in range(3):
            pipe.step()
        with pytest.raises(RuntimeError):
            pipe.state_dict()

    def test_batch_restore_is_bit_identical(self):
        mdp = _mdp()
        cfg = _cfg()
        ref = make_engine(cfg, engine="vectorized", mdps=mdp, num_agents=4)
        ref.run(300)

        sim = make_engine(cfg, engine="vectorized", mdps=mdp, num_agents=4)
        sim.run(120)
        snap = sim.state_dict()
        sim.run(180)
        sim.load_state_dict(snap)
        sim.run(180)
        assert np.array_equal(sim.q, ref.q)
        assert np.array_equal(sim.qmax, ref.qmax)

    def test_batch_single_lane_restore(self):
        mdp = _mdp()
        sim = make_engine(_cfg(), engine="vectorized", mdps=mdp, num_agents=3)
        sim.run(100)
        snap = sim.state_dict()
        lane1 = sim.lane_state(1, snap)
        sim.run(100)
        moved = sim.q.copy()
        sim.load_lane_state(1, lane1)
        assert np.array_equal(sim.q[0], moved[0])  # other lanes untouched
        assert np.array_equal(sim.q[2], moved[2])
        assert np.array_equal(sim.q[1], snap["q"][1])

    def test_checkpoint_store_ring(self):
        store = CheckpointStore(capacity=2)
        with pytest.raises(LookupError):
            store.latest()
        store.push("a", {"x": 1})
        store.push("b", {"x": 2})
        store.push("c", {"x": 3})  # evicts "a"
        assert store.tags() == ["b", "c"]
        assert store.latest()[0] == "c"
        assert store.get("b") == {"x": 2}
        with pytest.raises(LookupError):
            store.get("a")


# ---------------------------------------------------------------------- #
# Watchdog + fleet supervisor
# ---------------------------------------------------------------------- #


class TestWatchdog:
    def test_trips_after_patience_without_progress(self):
        dog = Watchdog(patience=2)
        assert dog.beat(1.0)
        assert dog.beat(2.0)
        assert dog.beat(2.0)  # strike 1
        assert not dog.beat(2.0)  # strike 2: expired
        assert dog.expired

    def test_progress_resets_strikes(self):
        dog = Watchdog(patience=2)
        dog.beat(1.0)
        dog.beat(1.0)
        assert dog.beat(2.0)
        assert dog.strikes == 0


class TestFleetSupervisor:
    def _sims(self, n=3):
        mdp = _mdp()
        return [
            FunctionalSimulator(mdp, _cfg(name=f"lane{k}"))
            for k in range(n)
        ]

    def test_clean_fleet_matches_unsupervised(self):
        unsup = self._sims()
        for sim in unsup:
            sim.run(256)
        lanes = SimLanes(self._sims())
        report = FleetSupervisor(lanes, interval=64).run(256)
        assert report.completed
        assert report.retries == 0
        assert report.quarantined == ()
        for a, b in zip(unsup, lanes.sims):
            assert np.array_equal(a.tables.q.data, b.tables.q.data)

    def test_rollback_heals_transient_corruption(self):
        """A one-shot strike on a lane's Qmax-action array is detected by
        the health check, rolled back, and replayed clean — the healed
        fleet finishes bit-identical to an undisturbed one."""
        unsup = self._sims()
        for sim in unsup:
            sim.run(256)

        lanes = SimLanes(self._sims())
        struck = []

        def poison(attempt, chunk):
            if chunk == 1 and attempt == 0:
                lanes.sims[1].tables.qmax_action.write_now(0, 7)  # A=4: illegal
                struck.append(chunk)

        sup = FleetSupervisor(lanes, interval=64, on_chunk=poison)
        report = sup.run(256)
        assert struck == [1]
        assert report.completed
        assert report.retries >= 1
        assert report.quarantined == ()
        for a, b in zip(unsup, lanes.sims):
            assert np.array_equal(a.tables.q.data, b.tables.q.data)

    def test_persistent_corruption_quarantines_lane(self):
        lanes = SimLanes(self._sims())

        def poison(attempt, chunk):
            lanes.sims[2].tables.qmax_action.write_now(0, 9)  # every attempt

        sup = FleetSupervisor(lanes, interval=64, max_retries=1, on_chunk=poison)
        report = sup.run(192)
        assert report.quarantined == (2,)
        assert report.healthy_lanes == 2
        assert report.completed
        # Quarantined lane is parked at its last good checkpoint.
        assert lanes.lane_health(0) and lanes.lane_health(1)

    def test_all_lanes_lost_stops_early(self):
        lanes = SimLanes(self._sims(2))

        def poison(attempt, chunk):
            for sim in lanes.sims:
                sim.tables.qmax_action.write_now(0, 9)

        sup = FleetSupervisor(lanes, interval=32, max_retries=0, on_chunk=poison)
        report = sup.run(320)
        assert report.quarantined == (0, 1)
        assert not report.completed
        assert report.samples_per_lane < 320

    def test_watchdog_aborts_stalled_run(self):
        lanes = SimLanes(self._sims(2))

        def poison(attempt, chunk):
            lanes.sims[0].tables.qmax_action.write_now(0, 9)

        sup = FleetSupervisor(
            lanes,
            interval=32,
            max_retries=0,
            on_chunk=poison,
            watchdog=Watchdog(patience=1),
        )
        report = sup.run(320)
        assert not report.completed or report.quarantined

    def test_batch_lanes_rollback(self):
        mdp = _mdp()
        cfg = _cfg()
        ref = make_engine(cfg, engine="vectorized", mdps=mdp, num_agents=3)
        ref.run(128)

        sim = make_engine(cfg, engine="vectorized", mdps=mdp, num_agents=3)
        lanes = BatchLanes(sim)

        def poison(attempt, chunk):
            if chunk == 0 and attempt == 0:
                sim.qmax_action[1, 0] = 11

        report = FleetSupervisor(lanes, interval=64, on_chunk=poison).run(128)
        assert report.completed
        assert report.retries >= 1
        assert np.array_equal(sim.q, ref.q)

    def test_batch_lane_health_detects_invariant_break(self):
        sim = make_engine(_cfg(), engine="vectorized", mdps=_mdp(), num_agents=2)
        sim.run(64)
        lanes = BatchLanes(sim)
        assert lanes.lane_health(0)
        sim.qmax[1, 0] = np.int64(sim.q[1].reshape(sim.S, sim.A)[0].max() - 1)
        assert not lanes.lane_health(1)


# ---------------------------------------------------------------------- #
# Campaign headline (small-scale) + smoke gate logic
# ---------------------------------------------------------------------- #


class TestCampaignHeadline:
    def test_protected_run_bit_identical_to_clean(self):
        from repro.experiments.fault_campaign import _campaign_run

        mdp = _mdp()
        base = _cfg()
        clean = FunctionalSimulator(mdp, base)
        clean.run(4000)

        sim, injector, scrubber = _campaign_run(
            mdp, base.with_(ecc_tables=True), 4000, 2e-3, fault_seed=11
        )
        assert injector.injected > 0
        assert sim.tables.q.ecc_detected == 0
        assert np.array_equal(sim.tables.q.data, clean.tables.q.data)

    def test_unprotected_run_diverges(self):
        from repro.experiments.fault_campaign import _campaign_run

        mdp = _mdp()
        base = _cfg()
        clean = FunctionalSimulator(mdp, base)
        clean.run(4000)
        sim, injector, _ = _campaign_run(mdp, base, 4000, 2e-3, fault_seed=11)
        assert injector.injected > 0
        assert not np.array_equal(sim.tables.q.data, clean.tables.q.data)

    def test_check_headline_flags_violations(self):
        from repro.experiments.registry import ExperimentResult
        from repro.robustness.smoke import check_headline

        def result(rows):
            return ExperimentResult(
                exp_id="fault_campaign",
                title="t",
                headers=["r", "p", "i", "c", "u", "s", "succ", "rmse", "=c"],
                rows=rows,
            )

        clean = ("0", "none (clean)", 0, None, None, None, 1.0, 0.1, "ref")
        good = ("0.001", "ecc+scrub", 10, 10, 0, 0, 1.0, 0.1, "yes")
        assert check_headline(result([clean, good])) == []

        bad_uncorrectable = ("0.001", "ecc+scrub", 10, 8, 2, 0, 1.0, 0.1, "yes")
        assert check_headline(result([clean, bad_uncorrectable]))

        bad_mismatch = ("0.001", "ecc+scrub", 10, 10, 0, 0, 1.0, 0.1, "no")
        assert check_headline(result([clean, bad_mismatch]))

        bad_success = ("0.001", "ecc+scrub", 10, 10, 0, 0, 0.5, 9.0, "yes")
        assert check_headline(result([clean, bad_success]))

        assert check_headline(result([clean]))  # no protected rows at all
