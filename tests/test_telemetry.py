"""The telemetry subsystem: counters, traces, sessions, exports.

Covers the disabled-mode guarantees (nothing allocated, nothing paid),
the ring-buffer truncation semantics, the Chrome trace schema, the
paper-invariant checker in both hazard modes, and the attach points of
every engine family.
"""

import json

import pytest

from repro.core.config import QTAccelConfig
from repro.core.pipeline import PipelineStats, QTAccelPipeline
from repro.envs.gridworld import GridWorld
from repro.telemetry import (
    NULL_REGISTRY,
    Counter,
    CounterRegistry,
    TelemetrySession,
    TraceEvent,
    TraceRing,
    chrome_trace,
    current_session,
    flatten_profile,
    validate_chrome_trace,
    verify_paper_invariants,
)


@pytest.fixture(scope="module")
def mdp():
    return GridWorld.random(8, 4, obstacle_density=0.1, seed=3).to_mdp()


# ---------------------------------------------------------------------- #
# Counter registry
# ---------------------------------------------------------------------- #


class TestCounterRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = CounterRegistry()
        assert reg.counter("a.b") is reg.counter("a.b")
        assert len(reg) == 1

    def test_kind_mismatch_is_an_error(self):
        reg = CounterRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("x")

    def test_counter_value_is_a_plain_attribute(self):
        c = Counter("hot")
        c.value += 3
        c.inc(2)
        assert c.value == 5
        c.reset()
        assert c.value == 0

    def test_histogram_summary(self):
        reg = CounterRegistry()
        h = reg.histogram("lat", bounds=(1, 4, 16))
        for v in (1, 2, 5, 100):
            h.observe(v)
        s = h.summary()
        assert s["count"] == 4 and s["min"] == 1 and s["max"] == 100
        assert s["buckets"] == {"le_1": 1, "le_4": 1, "le_16": 1, "overflow": 1}

    def test_tree_nests_on_dots(self):
        reg = CounterRegistry()
        reg.counter("p.stage.S1").value = 7
        reg.gauge("p.size").set(3)
        assert reg.tree() == {"p": {"stage": {"S1": 7}, "size": 3}}

    def test_null_registry_allocates_nothing(self):
        insts = {id(NULL_REGISTRY.counter(f"n{i}")) for i in range(1000)}
        insts |= {id(NULL_REGISTRY.gauge("g")), id(NULL_REGISTRY.histogram("h"))}
        assert len(insts) == 1  # one shared no-op singleton
        assert len(NULL_REGISTRY) == 0
        NULL_REGISTRY.counter("n").inc()
        assert NULL_REGISTRY.as_dict() == {}


# ---------------------------------------------------------------------- #
# Trace ring buffer
# ---------------------------------------------------------------------- #


class TestTraceRing:
    def test_truncation_keeps_the_tail(self):
        rec = TraceRing(capacity=4)
        for c in range(10):
            rec.append(TraceEvent(c, "p", "S1", "issue", c))
        assert len(rec) == 4
        assert rec.total == 10
        assert rec.dropped == 6
        assert [ev.cycle for ev in rec.items()] == [6, 7, 8, 9]

    def test_events_chronological_before_wrap(self):
        rec = TraceRing(capacity=8)
        for c in range(3):
            rec.append(TraceEvent(c, "p", "S4", "retire", c))
        assert [ev.cycle for ev in rec.items()] == [0, 1, 2]
        assert rec.dropped == 0

    def test_clear(self):
        rec = TraceRing(capacity=2)
        rec.append(TraceEvent(0, "p", "S1", "issue", 0))
        rec.clear()
        assert len(rec) == 0 and rec.total == 0


# ---------------------------------------------------------------------- #
# Chrome trace schema
# ---------------------------------------------------------------------- #


class TestChromeTrace:
    def test_schema(self):
        events = [
            TraceEvent(0, "pipe0", "S1", "issue", 0),
            TraceEvent(1, "pipe0", "S2", "forward", 0, 2),
            TraceEvent(3, "pipe1", "S4", "retire", 0),
        ]
        doc = chrome_trace(events)
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert len(slices) == 3
        # pid per pipeline, tid per stage; 1 cycle = 1 us.
        assert slices[0]["pid"] == 1 and slices[2]["pid"] == 2
        assert slices[0]["tid"] == 1 and slices[2]["tid"] == 4
        assert slices[1]["ts"] == 1.0 and slices[1]["dur"] == 1.0
        assert slices[1]["args"] == {"cycle": 1, "sample": 0, "arg": 2}
        names = {(m["name"], m["args"]["name"]) for m in meta}
        assert ("process_name", "pipe0") in names
        assert ("thread_name", "S3") in names
        # Each pipeline gets one process_name + four thread_name records.
        assert len(meta) == 2 * 5
        # Pipeline traces pass the same validator as span traces.
        assert validate_chrome_trace(doc) == []


# ---------------------------------------------------------------------- #
# PipelineStats on the registry (migration compatibility)
# ---------------------------------------------------------------------- #


class TestPipelineStatsCompat:
    def test_positional_construction_and_equality(self):
        a = PipelineStats(10, 7, 7, 0, 1, 5, 2)
        b = PipelineStats(cycles=10, issued=7, retired=7, episodes=1,
                          exploits=5, explores=2)
        assert a == b
        assert a.cycles == 10 and a.retired == 7 and a.explores == 2

    def test_attributes_are_writable(self):
        st = PipelineStats()
        st.cycles += 5
        st.retired = 3
        assert st.as_dict()["cycles"] == 5
        assert st.cycles_per_sample == 5 / 3

    def test_stall_split_sums(self):
        st = PipelineStats()
        st.hazard_stall_cycles = 4
        st.s2_hold_cycles = 2
        st.stall_cycles = 6
        assert st.as_dict()["stall_cycles"] == 6


# ---------------------------------------------------------------------- #
# Sessions, attachment, disabled mode
# ---------------------------------------------------------------------- #


class TestTelemetrySession:
    def test_disabled_by_default(self, mdp):
        pipe = QTAccelPipeline(mdp, QTAccelConfig.qlearning(seed=3))
        assert pipe._tel is None  # no probe, no recorder, nothing allocated
        pipe.run(50)
        assert pipe.stats.retired == 50

    def test_ambient_attach_and_nesting(self, mdp):
        assert current_session() is None
        with TelemetrySession() as outer:
            assert current_session() is outer
            with TelemetrySession() as inner:
                assert current_session() is inner
                pipe = QTAccelPipeline(mdp, QTAccelConfig.qlearning(seed=3))
                assert pipe._tel is not None
                assert pipe._tel.ring is inner.ring
            assert current_session() is outer
        assert current_session() is None

    def test_attach_dedupes_and_uniquifies(self, mdp):
        s = TelemetrySession(trace=False)
        pipe = QTAccelPipeline(mdp, QTAccelConfig.qlearning(seed=3))
        name = s.attach(pipe)
        assert s.attach(pipe) == name  # second attach is a no-op
        other = QTAccelPipeline(mdp, QTAccelConfig.qlearning(seed=4))
        assert s.attach(other, name) == f"{name}_1"

    def test_disabled_trace_still_counts(self, mdp):
        with TelemetrySession(trace=False) as s:
            pipe = QTAccelPipeline(mdp, QTAccelConfig.qlearning(seed=3))
            pipe.run(100)
        assert s.ring is None
        assert s.registry.as_dict()["pipe0.stage.S4.active"] == 100

    def test_disabled_and_enabled_runs_agree(self, mdp):
        cfg = QTAccelConfig.qlearning(seed=9)
        plain = QTAccelPipeline(mdp, cfg)
        plain.run(300)
        with TelemetrySession():
            traced = QTAccelPipeline(mdp, cfg)
            traced.run(300)
        assert plain.stats == traced.stats  # instrumentation changes nothing
        assert (plain.q_float() == traced.q_float()).all()


# ---------------------------------------------------------------------- #
# Paper invariants
# ---------------------------------------------------------------------- #


class TestPaperInvariants:
    def test_forward_mode_never_stalls(self, mdp):
        pipe = QTAccelPipeline(mdp, QTAccelConfig.qlearning(seed=3))
        pipe.run(1000)
        report = verify_paper_invariants(pipe, samples=1000, runs=1)
        assert report.ok
        assert pipe.stats.stall_cycles == 0
        assert pipe.stats.retired == 1000
        assert pipe.stats.cycles == 1000 + 3  # one fill, then 1/cycle

    def test_stall_mode_pays_bubbles(self, mdp):
        cfg = QTAccelConfig.qlearning(seed=3).with_(hazard_mode="stall")
        pipe = QTAccelPipeline(mdp, cfg)
        pipe.run(1000)
        # Drain/sample checks still apply; the never-stall claim doesn't.
        report = verify_paper_invariants(pipe, samples=1000)
        assert report.ok
        assert pipe.stats.hazard_stall_cycles > 0
        assert pipe.stats.cycles > 1003

    def test_strict_failure_raises_with_report(self, mdp):
        pipe = QTAccelPipeline(mdp, QTAccelConfig.qlearning(seed=3))
        pipe.run(10)
        with pytest.raises(AssertionError, match="retired_equals_samples"):
            verify_paper_invariants(pipe, samples=11)
        report = verify_paper_invariants(pipe, samples=11, strict=False)
        assert not report.ok and len(report.failures()) == 1


# ---------------------------------------------------------------------- #
# Profiles and exports
# ---------------------------------------------------------------------- #


class TestExports:
    def test_profile_round_trip(self, mdp, tmp_path):
        with TelemetrySession() as s:
            pipe = QTAccelPipeline(mdp, QTAccelConfig.qlearning(seed=3))
            pipe.run(200)
        path = tmp_path / "run.profile.json"
        s.export_profile(path)
        data = json.loads(path.read_text())
        assert data["totals"] == {"cycles": 203, "retired": 200, "ipc": 200 / 203}
        derived = data["pipes"]["pipe0"]["derived"]
        assert derived["cycles_per_sample"] == 203 / 200
        assert 0.97 < derived["occupancy"]["S3"] <= 1.0
        # The pipeline's tables rode along as a snapshot engine.
        assert data["engines"]["pipe0.mem"]["q"]["writes"] == 200

    def test_profile_csv_flat(self, mdp, tmp_path):
        with TelemetrySession(trace=False) as s:
            pipe = QTAccelPipeline(mdp, QTAccelConfig.qlearning(seed=3))
            pipe.run(10)
        path = tmp_path / "run.profile.csv"
        s.export_profile(path, fmt="csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "key,value"
        assert any(line.startswith("totals.retired,10") for line in lines)
        with pytest.raises(ValueError):
            s.export_profile(path, fmt="xml")

    def test_chrome_trace_export(self, mdp, tmp_path):
        with TelemetrySession() as s:
            pipe = QTAccelPipeline(mdp, QTAccelConfig.qlearning(seed=3))
            pipe.run(20)
        path = tmp_path / "run.trace.json"
        s.export_chrome_trace(path)
        doc = json.loads(path.read_text())
        retires = [
            e for e in doc["traceEvents"]
            if e.get("ph") == "X" and e["name"] == "retire"
        ]
        assert len(retires) == 20
        assert validate_chrome_trace(doc) == []

    def test_trace_export_requires_recorder(self, tmp_path):
        s = TelemetrySession(trace=False)
        with pytest.raises(RuntimeError, match="trace=False"):
            s.export_chrome_trace(tmp_path / "x.json")

    def test_flatten_profile(self):
        flat = flatten_profile({"a": {"b": 1, "c": {"d": 2}}, "e": 3})
        assert flat == {"a.b": 1, "a.c.d": 2, "e": 3}

    def test_device_join(self, mdp):
        from repro.core.accelerator import QLearningAccelerator

        with TelemetrySession(trace=False) as s:
            acc = QLearningAccelerator(mdp, seed=3)
            acc.run(500, engine="cycle")
            acc.record_device_telemetry()
        profile = s.profile()
        dev = profile["device"]
        assert dev["cycles"] == 503
        assert dev["clock_mhz"] > 0
        # mJ = mW x s, at the modelled clock for the measured cycles.
        assert dev["energy_mj"] == pytest.approx(
            dev["power_mw"] * dev["wall_time_s"]
        )


# ---------------------------------------------------------------------- #
# Engine attach points
# ---------------------------------------------------------------------- #


class TestEngineWiring:
    def test_shared_pipelines(self, mdp):
        from repro.core.multi_pipeline import SharedPipelines

        with TelemetrySession(trace=False) as s:
            shared = SharedPipelines(mdp, QTAccelConfig.qlearning(seed=3))
            shared.run(100)
        profile = s.profile()
        assert set(profile["pipes"]) == {"pipe0", "pipe1"}
        assert profile["totals"]["retired"] == 200
        # The shared table set attached once (id-deduped via pipe0).
        assert "pipe0.mem" in profile["engines"]
        assert "pipe1.mem" not in profile["engines"]

    def test_independent_pipelines_cycle(self, mdp):
        from repro.core.multi_pipeline import IndependentPipelinesCycle

        with TelemetrySession(trace=False) as s:
            sys_ = IndependentPipelinesCycle(
                [mdp, mdp], QTAccelConfig.qlearning(seed=3)
            )
            sys_.run(50)
        profile = s.profile()
        assert len(profile["pipes"]) == 2
        assert profile["engines"]["clock"]["cycle"] == sys_.sim.cycle

    def test_batch_simulator(self, mdp):
        from repro.core.batch import BatchIndependentSimulator

        with TelemetrySession(trace=False) as s:
            fleet = BatchIndependentSimulator(mdp, QTAccelConfig.qlearning(seed=3),
                                              num_agents=4)
            fleet.run(25)
        snap = s.profile()["engines"]["batch"]
        assert snap["agents"] == 4
        assert snap["total_samples"] == 100

    def test_bandit_counters(self):
        from repro.core.bandit_accel import Exp3Accelerator
        from repro.envs.bandits import BanditEnv, NormalArm

        env = BanditEnv([NormalArm(float(i)) for i in range(8)], seed=4)
        with TelemetrySession(trace=False) as s:
            accel = Exp3Accelerator(env, seed=4)
            accel.run(64)
        counters = s.registry.as_dict()
        assert counters["bandit.exp3.pulls"] == 64
        assert counters["bandit.exp3.selection_cycles"] == 64 * 3  # ceil(log2 8)

    def test_detached_bandit_has_no_group(self):
        from repro.core.bandit_accel import Ucb1Accelerator
        from repro.envs.bandits import BanditEnv, NormalArm

        accel = Ucb1Accelerator(BanditEnv([NormalArm(float(i)) for i in range(4)]))
        assert accel._tel is None
        accel.run(16)  # runs fine without a session


# ---------------------------------------------------------------------- #
# Report CLI
# ---------------------------------------------------------------------- #


class TestReportCli:
    def test_renders_profile_and_trace(self, mdp, tmp_path, capsys):
        from repro.telemetry.__main__ import main

        with TelemetrySession() as s:
            pipe = QTAccelPipeline(mdp, QTAccelConfig.qlearning(seed=3))
            pipe.run(40)
        prof = tmp_path / "p.json"
        trace = tmp_path / "t.json"
        s.export_profile(prof)
        s.export_chrome_trace(trace)

        assert main(["profile", str(prof), "--counters"]) == 0
        out = capsys.readouterr().out
        assert "telemetry profile" in out and "pipe0" in out

        assert main(["profile", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "chrome trace digest" in out and "retire" in out

    def test_unreadable_file(self, tmp_path, capsys):
        from repro.telemetry.__main__ import main

        assert main(["profile", str(tmp_path / "missing.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload", [[1, 2], {"traceEvents": [{"ph": "X", "ts": 1}]}]
    )
    def test_non_profile_json(self, tmp_path, capsys, payload):
        from repro.telemetry.__main__ import main

        path = tmp_path / "x.json"
        path.write_text(json.dumps(payload))
        assert main(["profile", str(path)]) == 2
        assert "cannot read" in capsys.readouterr().err
