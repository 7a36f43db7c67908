"""The performance observatory: harness, snapshots, sentinel, export.

Covers the robust-stats primitives, the bench harness's bookkeeping
(driven with an injected fake clock so no test depends on real timing),
snapshot schema round-trips, the sentinel's regression/threshold logic
across same- and cross-machine comparisons, the OpenMetrics renderer's
format conformance (golden fixture + validator), the live emitters, the
sampled stage-attribution path's off-by-default guarantee, and the
``python -m repro.perf`` CLI's exit-code contract.
"""

import copy
import json
import pathlib

import pytest

from repro.core.config import QTAccelConfig
from repro.core.pipeline import QTAccelPipeline
from repro.envs.gridworld import GridWorld
from repro.perf import (
    StageTimer,
    bootstrap_ci,
    build_snapshot,
    compare_snapshots,
    load_snapshot,
    mad,
    median,
    next_bench_path,
    render_comparison,
    run_bench,
    snapshot_from_profile,
    summarize,
    write_snapshot,
)
from repro.perf.__main__ import main as perf_main
from repro.perf.fleet import SWEEPS, check_sweep, gate_points, render_sweep, run_sweep
from repro.perf.bench import overhead_ratios
from repro.perf.snapshot import SCHEMA, fingerprints_match
from repro.telemetry import (
    CounterRegistry,
    JsonlEmitter,
    OpenMetricsTextfileEmitter,
    TelemetrySession,
    escape_label_value,
    render_openmetrics,
    sanitize_metric_name,
    validate_openmetrics,
)
from repro.telemetry.__main__ import main as telemetry_main

GOLDEN = pathlib.Path(__file__).parent / "data" / "openmetrics_golden.txt"


@pytest.fixture(scope="module")
def mdp():
    return GridWorld.empty(8, 4).to_mdp()


@pytest.fixture()
def cfg():
    return QTAccelConfig.qlearning(seed=7, qmax_mode="follow")


# ---------------------------------------------------------------------- #
# Robust stats
# ---------------------------------------------------------------------- #


class TestStats:
    def test_median_odd_even(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([4.0, 1.0, 3.0, 2.0]) == 2.5

    def test_mad(self):
        assert mad([1.0, 2.0, 3.0, 100.0]) == 1.0  # robust to the outlier

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            median([])
        with pytest.raises(ValueError):
            mad([])
        with pytest.raises(ValueError):
            bootstrap_ci([])

    def test_bootstrap_deterministic_and_bounded(self):
        samples = [1.0, 1.1, 0.9, 1.05, 0.95]
        lo, hi = bootstrap_ci(samples)
        assert (lo, hi) == bootstrap_ci(samples)  # fixed resample stream
        assert min(samples) <= lo <= hi <= max(samples)

    def test_bootstrap_single_sample(self):
        assert bootstrap_ci([2.5]) == (2.5, 2.5)

    def test_summarize_schema(self):
        digest = summarize([2.0, 1.0, 3.0])
        assert digest["repeats"] == 3
        assert digest["median"] == 2.0
        assert digest["min"] == 1.0 and digest["max"] == 3.0
        assert len(digest["ci"]) == 2


# ---------------------------------------------------------------------- #
# Bench harness
# ---------------------------------------------------------------------- #


class _FakeClock:
    """Deterministic clock: every timed region lasts ``step`` seconds."""

    def __init__(self, step=1.0):
        self.t = 0.0
        self.step = step

    def __call__(self):
        self.t += self.step
        return self.t


class TestBenchHarness:
    def test_unknown_case_rejected(self):
        with pytest.raises(KeyError):
            run_bench(cases=["no_such_engine"], quick=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            run_bench(repeats=0, quick=True)
        with pytest.raises(ValueError):
            run_bench(warmup=-1, quick=True)

    def test_baseline_pulled_into_selection(self):
        results = run_bench(
            cases=["pipeline_telemetry"],
            repeats=1,
            warmup=0,
            quick=True,
            clock=_FakeClock(),
        )
        assert set(results) == {"pipeline_telemetry", "pipeline"}

    def test_repeats_and_cycles_recorded(self):
        results = run_bench(
            cases=["pipeline"], repeats=3, warmup=0, quick=True, clock=_FakeClock()
        )
        res = results["pipeline"]
        assert len(res.seconds) == 3
        assert res.seconds == [1.0, 1.0, 1.0]  # fake clock: one step per repeat
        # Fresh engine per repeat: cycle count matches one quick workload.
        assert res.cycles == pytest.approx(res.workload, rel=0.1)
        summary = res.summary()
        assert summary["cycles_per_sample"] == pytest.approx(1.0, abs=0.05)
        assert summary["modelled_msps_at_189mhz"] == pytest.approx(189.0, rel=0.05)

    def test_overhead_ratio_structure(self):
        results = run_bench(
            cases=["pipeline", "pipeline_telemetry", "pipeline_ecc"],
            repeats=2,
            warmup=0,
            quick=True,
        )
        ratios = overhead_ratios(results)
        assert ratios["pipeline_telemetry"]["baseline"] == "pipeline"
        assert ratios["pipeline_telemetry"]["budget"] == pytest.approx(1.05)
        assert ratios["pipeline_ecc"]["budget"] is None  # informational
        assert ratios["pipeline_ecc"]["ratio"] > 0


# ---------------------------------------------------------------------- #
# Snapshots
# ---------------------------------------------------------------------- #


def _tiny_snapshot():
    results = run_bench(
        cases=["pipeline"], repeats=2, warmup=0, quick=True, clock=_FakeClock()
    )
    return build_snapshot(
        results, config={"quick": True}, overheads=overhead_ratios(results)
    )


class TestSnapshot:
    def test_round_trip(self, tmp_path):
        snap = _tiny_snapshot()
        path = write_snapshot(snap, tmp_path / "BENCH_0.json")
        loaded = load_snapshot(path)
        assert loaded == json.loads(json.dumps(snap))  # JSON-clean
        assert loaded["schema"] == SCHEMA
        assert "pipeline" in loaded["cases"]

    def test_bad_schema_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"schema": "other/9", "cases": {}}))
        with pytest.raises(ValueError):
            load_snapshot(path)
        with pytest.raises(ValueError):
            write_snapshot({"schema": "other/9"}, tmp_path / "y.json")

    def test_missing_cases_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"schema": SCHEMA}))
        with pytest.raises(ValueError):
            load_snapshot(path)

    def test_next_bench_path_numbering(self, tmp_path):
        assert next_bench_path(tmp_path).name == "BENCH_0.json"
        (tmp_path / "BENCH_0.json").write_text("{}")
        (tmp_path / "BENCH_7.json").write_text("{}")
        (tmp_path / "BENCH_notanumber.json").write_text("{}")
        assert next_bench_path(tmp_path).name == "BENCH_8.json"

    def test_fingerprints(self):
        snap = _tiny_snapshot()
        fp = snap["machine"]
        assert fingerprints_match(fp, dict(fp))
        other = dict(fp, python="2.7.18")
        assert not fingerprints_match(fp, other)
        assert not fingerprints_match(fp, None)

    def test_snapshot_from_profile(self, mdp, cfg):
        with TelemetrySession(trace=False) as session:
            pipe = QTAccelPipeline(mdp, cfg)
        pipe.run(300)
        snap = snapshot_from_profile(session.profile(), source="experiment:test")
        case = snap["cases"]["pipe0"]
        assert case["seconds"] is None  # no wall-clock: sentinel won't gate it
        assert case["cycles_per_sample"] == pytest.approx(1.0, abs=0.05)
        assert case["modelled_msps_at_189mhz"] == pytest.approx(189.0, rel=0.05)

    def test_non_cycle_cases_omit_cycle_keys(self):
        """Engines with no cycle notion don't carry null cycle keys."""
        results = run_bench(
            cases=["functional"], repeats=1, warmup=0, quick=True, clock=_FakeClock()
        )
        summary = results["functional"].summary()
        assert "cycles_per_sample" not in summary
        assert "modelled_msps_at_189mhz" not in summary
        # ...while cycle-accurate cases still record them (see
        # test_repeats_and_cycles_recorded).


# ---------------------------------------------------------------------- #
# Regression sentinel
# ---------------------------------------------------------------------- #


class TestSentinel:
    def test_identical_snapshots_pass(self):
        snap = _tiny_snapshot()
        result = compare_snapshots(snap, copy.deepcopy(snap))
        assert result.ok
        assert result.same_machine
        assert "PASS" in render_comparison(result)

    def test_injected_slowdown_fails(self):
        base = _tiny_snapshot()
        slow = copy.deepcopy(base)
        sec = slow["cases"]["pipeline"]["seconds"]
        sec["median"] *= 1.30  # a 30% hot-loop regression
        result = compare_snapshots(base, slow)
        assert not result.ok
        assert any(f.kind == "time" and f.failed for f in result.findings)
        assert "FAIL" in render_comparison(result)

    def test_mad_widens_threshold(self):
        base = _tiny_snapshot()
        noisy = copy.deepcopy(base)
        sec = noisy["cases"]["pipeline"]["seconds"]
        sec["median"] *= 1.15
        sec["mad"] = sec["median"]  # snapshot admits huge spread
        assert compare_snapshots(base, noisy, rel_tol=0.10, k=4.0).ok

    def test_improvement_is_not_fatal(self):
        base = _tiny_snapshot()
        fast = copy.deepcopy(base)
        fast["cases"]["pipeline"]["seconds"]["median"] *= 0.5
        result = compare_snapshots(base, fast)
        assert result.ok
        assert any(f.verdict == "improvement" for f in result.findings)

    def test_cross_machine_skips_wall_clock_but_gates_cycles(self):
        base = _tiny_snapshot()
        other = copy.deepcopy(base)
        other["machine"]["python"] = "3.99.0"
        other["cases"]["pipeline"]["seconds"]["median"] *= 10.0  # slower machine
        assert compare_snapshots(base, other).ok  # not a regression
        # ...but a cycle-count increase is architectural and still gates.
        other["cases"]["pipeline"]["cycles_per_sample"] *= 1.25
        result = compare_snapshots(base, other)
        assert any(f.kind == "cycles" and f.failed for f in result.findings)

    def test_force_absolute_overrides_fingerprint(self):
        base = _tiny_snapshot()
        other = copy.deepcopy(base)
        other["machine"]["python"] = "3.99.0"
        other["cases"]["pipeline"]["seconds"]["median"] *= 10.0
        assert not compare_snapshots(base, other, force_absolute=True).ok

    def test_budget_violation_fails(self):
        base = _tiny_snapshot()
        bloated = copy.deepcopy(base)
        bloated["overheads"]["pipeline_telemetry"] = {
            "variant": "pipeline_telemetry",
            "baseline": "pipeline",
            "ratio": 1.6,  # instrumentation tax blew up
            "budget": 1.05,
        }
        result = compare_snapshots(base, bloated)
        assert any(f.kind == "budget" and f.failed for f in result.findings)
        assert not result.ok  # budgets gate even cross-machine
        bloated["machine"]["python"] = "3.99.0"
        assert not compare_snapshots(base, bloated).ok

    def test_null_and_omitted_cycle_keys_both_tolerated(self):
        """Pre-1.1 snapshots spelled "no cycles" as explicit nulls; the
        sentinel must accept either spelling on either side."""
        base = _tiny_snapshot()
        legacy = copy.deepcopy(base)
        legacy["cases"]["pipeline"]["cycles_per_sample"] = None
        legacy["cases"]["pipeline"]["modelled_msps_at_189mhz"] = None
        modern = copy.deepcopy(base)
        del modern["cases"]["pipeline"]["cycles_per_sample"]
        del modern["cases"]["pipeline"]["modelled_msps_at_189mhz"]
        for a, b in ((legacy, modern), (modern, legacy), (base, modern), (legacy, base)):
            result = compare_snapshots(a, b)
            assert result.ok, (a["cases"]["pipeline"].keys(), b["cases"]["pipeline"].keys())

    def test_case_set_changes_reported_not_fatal(self):
        base = _tiny_snapshot()
        new = copy.deepcopy(base)
        new["cases"]["brand_new_engine"] = new["cases"]["pipeline"]
        del new["cases"]["pipeline"]
        result = compare_snapshots(base, new)
        assert result.ok
        assert sum(f.verdict == "skipped" for f in result.findings) >= 2


# ---------------------------------------------------------------------- #
# OpenMetrics renderer + conformance
# ---------------------------------------------------------------------- #


def _golden_registry() -> CounterRegistry:
    reg = CounterRegistry()
    reg.counter("pipe0.stage.S1.active").value = 42
    reg.counter("pipe0.qmax_raises").value = 7
    reg.gauge("fleet.occupancy").set(0.5)
    hist = reg.histogram("supervisor.chunk_sizes", bounds=(1, 4, 16))
    for v in (1, 3, 9, 100):
        hist.observe(v)
    return reg


class TestOpenMetrics:
    def test_sanitize_metric_name(self):
        assert sanitize_metric_name("qtaccel") == "qtaccel"
        assert sanitize_metric_name("pipe0.stage.S1") == "pipe0_stage_S1"
        assert sanitize_metric_name("9lives") == "_9lives"
        assert sanitize_metric_name("a b/c") == "a_b_c"
        name = sanitize_metric_name("weird -> name!")
        assert sanitize_metric_name(name) == name  # idempotent

    def test_escape_label_value(self):
        assert escape_label_value('say "hi"\n') == 'say \\"hi\\"\\n'
        assert escape_label_value("back\\slash") == "back\\\\slash"

    def test_help_type_and_suffixes(self):
        text = render_openmetrics(_golden_registry())
        assert "# HELP qtaccel_counter " in text
        assert "# TYPE qtaccel_counter counter" in text
        assert "# TYPE qtaccel_gauge gauge" in text
        assert "# TYPE qtaccel_histogram histogram" in text
        assert 'qtaccel_counter_total{name="pipe0.stage.S1.active"} 42' in text
        assert 'qtaccel_gauge{name="fleet.occupancy"} 0.5' in text
        assert text.endswith("# EOF\n")

    def test_histogram_buckets_cumulative_with_inf(self):
        text = render_openmetrics(_golden_registry())
        lines = [l for l in text.splitlines() if l.startswith("qtaccel_histogram")]
        values = [float(l.rsplit(" ", 1)[1]) for l in lines if "_bucket" in l]
        assert values == sorted(values)  # cumulative
        assert 'le="+Inf"} 4' in text  # == observation count
        assert 'qtaccel_histogram_count{name="supervisor.chunk_sizes"} 4' in text
        assert 'qtaccel_histogram_sum{name="supervisor.chunk_sizes"} 113' in text

    def test_extra_labels_escaped(self):
        text = render_openmetrics(
            _golden_registry(), labels={"run": 'fleet "a"\nb'}
        )
        assert 'run="fleet \\"a\\"\\nb"' in text
        assert validate_openmetrics(text) == []

    def test_illegal_label_name_rejected(self):
        with pytest.raises(ValueError):
            render_openmetrics(_golden_registry(), labels={"bad-label": "x"})

    def test_golden_fixture(self):
        text = render_openmetrics(_golden_registry(), labels={"run": "golden"})
        assert text == GOLDEN.read_text()
        assert validate_openmetrics(text) == []

    def test_validator_catches_breakage(self):
        good = render_openmetrics(_golden_registry())
        assert validate_openmetrics(good) == []
        assert validate_openmetrics(good.replace("# EOF\n", ""))  # missing EOF
        assert validate_openmetrics("nosuchfamily_total 1\n# EOF\n")  # no TYPE
        assert validate_openmetrics(
            "# TYPE x counter\nx_items 3\n# EOF\n"
        )  # counter without _total
        broken = good.replace('le="16"} 3', 'le="16"} 1')  # non-cumulative
        assert any("cumulative" in e for e in validate_openmetrics(broken))

    def test_fleet_run_output_conforms(self, mdp, cfg):
        """Acceptance pin: a telemetry-attached fleet run's scrape parses."""
        from repro.core.multi_pipeline import SharedPipelines

        with TelemetrySession(trace=False) as session:
            fleet = SharedPipelines(mdp, cfg)
            fleet.run(300)
        text = render_openmetrics(session.registry, labels={"run": "fleet"})
        assert validate_openmetrics(text) == []
        assert 'name="pipe0.stage.S1.active"' in text


# ---------------------------------------------------------------------- #
# Live emitters + session pulse
# ---------------------------------------------------------------------- #


class TestEmitters:
    def test_jsonl_emitter_on_batch_fleet(self, mdp, cfg, tmp_path):
        from repro.core.batch import BatchIndependentSimulator

        path = tmp_path / "fleet.metrics.jsonl"
        with TelemetrySession(trace=False) as session:
            sim = BatchIndependentSimulator(mdp, cfg, num_agents=4)
            session.add_emitter(JsonlEmitter(path, interval_s=0.0))
            sim.run(25)
        lines = path.read_text().splitlines()
        assert len(lines) == 25  # one pulse per lock-step step
        first, last = json.loads(lines[0]), json.loads(lines[-1])
        assert first["seq"] == 0 and last["seq"] == 24
        assert "counters" in first and "time_unix" in first

    def test_jsonl_counters_advance_on_shared_fleet(self, mdp, cfg, tmp_path):
        from repro.core.multi_pipeline import SharedPipelines

        path = tmp_path / "shared.metrics.jsonl"
        with TelemetrySession(trace=False) as session:
            fleet = SharedPipelines(mdp, cfg)
            session.add_emitter(JsonlEmitter(path, interval_s=0.0))
            fleet.run(100)
        lines = path.read_text().splitlines()
        assert len(lines) >= 100  # one pulse per shared cycle (plus drain)
        key = "pipe0.stage.S1.active"
        series = [json.loads(l)["counters"][key] for l in lines]
        assert series == sorted(series)  # mid-flight values, monotone
        assert series[-1] > series[0]

    def test_rate_limiting(self, tmp_path):
        clock = _FakeClock(step=0.4)
        emitter = JsonlEmitter(tmp_path / "m.jsonl", interval_s=1.0, clock=clock)
        session = TelemetrySession(trace=False)
        emitted = [emitter.maybe_emit(session) for _ in range(6)]
        # 0.4s per pulse, 1s interval: emits on pulses 1, 4 (and not between).
        assert emitted == [True, False, False, True, False, False]

    def test_textfile_emitter_atomic_rewrite(self, mdp, cfg, tmp_path):
        from repro.core.multi_pipeline import SharedPipelines

        path = tmp_path / "fleet.prom"
        with TelemetrySession(trace=False) as session:
            fleet = SharedPipelines(mdp, cfg)
            emitter = OpenMetricsTextfileEmitter(path, interval_s=0.0)
            session.add_emitter(emitter)
            fleet.run(50)
        assert emitter.emits > 1
        assert not path.with_suffix(".prom.tmp").exists()
        assert validate_openmetrics(path.read_text()) == []

    def test_supervisor_pulses(self, mdp, cfg, tmp_path):
        from repro.core.batch import BatchIndependentSimulator
        from repro.robustness.checkpoint import BatchLanes, FleetSupervisor

        path = tmp_path / "sup.jsonl"
        with TelemetrySession(trace=False) as session:
            sim = BatchIndependentSimulator(mdp, cfg, num_agents=4)
            sup = FleetSupervisor(BatchLanes(sim), interval=16)
            session.add_emitter(JsonlEmitter(path, interval_s=0.0))
            sup.run(64)
        # One emit per batch step plus one per supervisor chunk attempt.
        assert len(path.read_text().splitlines()) >= 64 + 4

    def test_pulse_without_emitters_is_noop(self, mdp, cfg):
        with TelemetrySession(trace=False) as session:
            pipe = QTAccelPipeline(mdp, cfg)
        session.pulse()  # nothing registered, nothing raised
        pipe.run(10)


# ---------------------------------------------------------------------- #
# Sampled stage attribution
# ---------------------------------------------------------------------- #


class TestStageTimer:
    def test_disabled_by_default(self, mdp, cfg):
        pipe = QTAccelPipeline(mdp, cfg)
        assert pipe._stage_timer is None  # the pointer-test-only fast path

    def test_validation(self):
        with pytest.raises(ValueError):
            StageTimer(0)

    def test_attach_and_sample(self, mdp, cfg):
        pipe = QTAccelPipeline(mdp, cfg)
        timer = StageTimer(sample_every=8).attach(pipe)
        assert pipe._stage_timer is timer
        pipe.run(200)
        summary = timer.summary()
        # ~one sampled cycle per 8; the drain tail adds a few cycles.
        assert summary["sampled_cycles"] == pytest.approx(200 / 8, rel=0.2)
        fractions = summary["fractions"]
        assert set(fractions) == {"S1", "S2", "S3", "S4"}
        assert sum(fractions.values()) == pytest.approx(1.0)
        assert timer.total_seconds > 0

    def test_sampling_does_not_change_results(self, mdp, cfg):
        import numpy as np

        plain = QTAccelPipeline(mdp, cfg)
        plain.run(300)
        timed = QTAccelPipeline(mdp, cfg)
        StageTimer(sample_every=4).attach(timed)
        timed.run(300)
        assert np.array_equal(plain.q_float(), timed.q_float())
        assert plain.stats == timed.stats

    def test_reset(self):
        timer = StageTimer()
        timer.commit([0.0, 1.0, 2.0, 3.0, 4.0])
        assert timer.sampled_cycles == 1
        timer.reset()
        assert timer.sampled_cycles == 0
        assert timer.total_seconds == 0.0


# ---------------------------------------------------------------------- #
# CLI
# ---------------------------------------------------------------------- #


class TestCli:
    def test_run_compare_report_round_trip(self, tmp_path, capsys):
        out = tmp_path / "BENCH_t.json"
        assert (
            perf_main(
                [
                    "run",
                    "--quick",
                    "--repeats",
                    "2",
                    "--warmup",
                    "0",
                    "--cases",
                    "pipeline",
                    "--output",
                    str(out),
                ]
            )
            == 0
        )
        assert out.exists()
        assert perf_main(["compare", str(out), str(out)]) == 0
        assert perf_main(["report", str(out)]) == 0
        captured = capsys.readouterr()
        assert "sentinel: PASS" in captured.out
        assert "bench snapshot" in captured.out

    def test_compare_detects_injected_regression(self, tmp_path, capsys):
        out = tmp_path / "BENCH_t.json"
        perf_main(
            [
                "run",
                "--quick",
                "--repeats",
                "2",
                "--warmup",
                "0",
                "--cases",
                "pipeline",
                "--no-stages",
                "--output",
                str(out),
            ]
        )
        # Zero the recorded spread so the threshold is pure rel_tol: a
        # 2-repeat quick run's MAD can legitimately widen the gate past
        # the injected 30%, which is the sentinel working as designed.
        base = json.loads(out.read_text())
        base["cases"]["pipeline"]["seconds"]["mad"] = 0.0
        out.write_text(json.dumps(base))
        slow = copy.deepcopy(base)
        slow["cases"]["pipeline"]["seconds"]["median"] *= 1.3
        slow_path = tmp_path / "BENCH_slow.json"
        slow_path.write_text(json.dumps(slow))
        assert perf_main(["compare", str(out), str(slow_path)]) == 1
        assert "sentinel: FAIL" in capsys.readouterr().out

    def test_bad_inputs_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert perf_main(["compare", str(missing), str(missing)]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "wrong"}')
        assert perf_main(["report", str(bad)]) == 2
        assert perf_main(["run", "--cases", "bogus", "--quick"]) == 2
        assert perf_main(["fleet", "--smoke", "--workers", "nope"]) == 2


class TestShardedSweep:
    def test_snapshot_embeds_sharded_record(self, tmp_path):
        results = run_bench(cases=["functional"], repeats=1, warmup=0, quick=True)
        record = run_sweep(
            "sharded", (2,), n_lanes=8, repeats=1, warmup=0, quick=True,
            mp_context="fork",
        )
        snap = build_snapshot(results, sharded_throughput=record)
        path = write_snapshot(snap, tmp_path / "BENCH_t.json")
        loaded = load_snapshot(path)
        point = loaded["sharded_throughput"]["points"]["2"]
        assert point["speedup_vs_scalar"] is not None

    def test_cli_sharded_smoke_gate(self, capsys):
        assert (
            perf_main(
                [
                    "fleet", "--smoke", "--repeats", "1",
                    "--workers", "2", "--lanes", "16",
                    "--min-speedup", "0.0001", "--vs", "scalar",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "sharded fleet throughput" in out
        assert "speedup vs scalar" in out


# ---------------------------------------------------------------------- #
# Fleet sweeps: one record/gate/render contract and one sentinel rule
# ---------------------------------------------------------------------- #

REPO = pathlib.Path(__file__).resolve().parents[1]

#: A small ladder per variant (the sharded one forks two tiny workers).
SWEEP_ARGS = {
    "fleet": dict(ladder=(1, 4)),
    "rule": dict(ladder=("qlearning", "momentum_qlearning"), n_lanes=4),
    "sharded": dict(ladder=(1, 2), n_lanes=4, mp_context="fork"),
    "native": dict(ladder=(1, 4)),
}


def _needs_native(name):
    from repro.backends import native

    if name == "native" and native._find_compiler() is None:
        pytest.skip("no C compiler for the fused kernel")


def _sweep_record(spec, ratio, ups=1.0e6, **shape):
    """A one-point record of ``spec``'s shape with every ratio = ``ratio``."""
    side = {"updates_per_sec": ups}
    point = dict(side) if spec.flat else {spec.candidate.engine: side}
    point.update({field: ratio for field in spec.ratios})
    return {"quick": False, **shape, "points": {str(spec.ladder[-1]): point}}


class TestSweeps:
    @pytest.mark.parametrize("name", list(SWEEPS))
    def test_record_gate_render(self, name):
        _needs_native(name)
        spec, args = SWEEPS[name], SWEEP_ARGS[name]
        record = run_sweep(
            name, repeats=2, warmup=0, quick=True, clock=_FakeClock(0.5), **args
        )
        ladder = list(args["ladder"])
        assert record[spec.axis] == ladder
        if name == "sharded":  # the shard program is part of the shape
            assert record["kernel"] in ("cc", "numpy")
        assert record["repeats"] == 2 and record["quick"] is True
        assert list(record["points"]) == [str(x) for x in ladder]
        for x in ladder:
            point = record["points"][str(x)]
            lanes = args.get("n_lanes", x)
            if spec.flat:
                sides = {"candidate": point}
            else:
                sides = {
                    "candidate": point[spec.candidate.engine],
                    "baseline": point[spec.baseline.engine],
                }
            for side in sides.values():
                assert side["updates"] == lanes * side["steps"]
                assert side["seconds_median"] == 0.5 and side["seconds_mad"] == 0.0
                assert side["updates_per_sec"] == pytest.approx(side["updates"] / 0.5)
            # Every timed region lasts 0.5s, so the paired ratio is the
            # ratio of the two sides' per-update times, i.e. of steps.
            c_steps = spec.candidate.steps(lanes, 10)
            b_steps = spec.baseline.steps(lanes, 10)
            want = b_steps / c_steps if spec.lower_is_better else c_steps / b_steps
            assert point[spec.ratio] == pytest.approx(want)
            assert point[f"{spec.ratio}_mad"] == pytest.approx(0.0)
            if spec.reference is not None:
                ref = record[spec.reference.engine]
                assert point[spec.ratios[1]] == pytest.approx(c_steps / ref["steps"])

        # The gate reads the worst gated point: at its value it passes,
        # one notch past it fails and names the point.
        for field in spec.ratios:
            values = [record["points"][k][field] for k in gate_points(spec, record["points"])]
            worst = max(values) if spec.lower_is_better else min(values)
            assert check_sweep(name, record, worst, ratio=field)[0]
            notch = worst / 2 if spec.lower_is_better else worst * 2
            ok, message = check_sweep(name, record, notch, ratio=field)
            assert not ok and f"{spec.label}=" in message and "FAIL" in message
        with pytest.raises(ValueError, match="not 'bogus'"):
            check_sweep(name, record, 1.0, ratio="bogus")
        assert check_sweep(name, {"points": {}}, 1.0) == (
            False, f"{name} sweep has no measured points"
        )

        text = render_sweep(name, record)
        assert text.startswith(spec.title)
        for x in ladder:
            assert str(x) in text

    @pytest.mark.parametrize("name", list(SWEEPS))
    def test_sentinel_rule(self, name):
        spec = SWEEPS[name]
        key = spec.ladder[-1]
        good, bad = (0.5, 2.0) if spec.lower_is_better else (2.0, 0.5)

        def snap(ratio=1.0, ups=1.0e6, **shape):
            return build_snapshot({}, source=name, **{spec.key: _sweep_record(spec, ratio, ups, **shape)})

        def verdicts(base, new):
            result = compare_snapshots(base, new)
            return result, {f.case: f.verdict for f in result.findings}

        base = snap()
        ratio_cases = {f"{name}.{field}@{key}" for field in spec.ratios}
        ups_case = f"{name}.updates_per_sec@{key}"

        result, seen = verdicts(base, snap())
        assert result.ok and {seen[c] for c in ratio_cases | {ups_case}} == {"ok"}

        result, seen = verdicts(base, snap(ratio=bad))
        assert {f.case for f in result.regressions} == ratio_cases

        result, seen = verdicts(base, snap(ratio=good))
        assert result.ok and {seen[c] for c in ratio_cases} == {"improvement"}

        result, seen = verdicts(base, snap(ups=0.5e6))
        assert [f.case for f in result.regressions] == [ups_case]

        # Ratios gate across machine fingerprints; updates/sec does not.
        other = snap(ratio=bad, ups=0.5e6)
        other["machine"]["python"] = "3.99.0"
        result, seen = verdicts(base, other)
        assert {f.case for f in result.regressions} == ratio_cases
        assert seen[ups_case] == "skipped"

        for shape in ({"quick": True}, {"n_lanes": 7}, {"kernel": "x"}, {"cpu_count": 64}):
            result, seen = verdicts(base, snap(ratio=bad, **shape))
            assert result.ok and seen == {name: "skipped"}

    @pytest.mark.parametrize(
        "args, flag",
        [
            (["--max-rule-overhead", "0.0001"], "--max-rule-overhead"),
            (["--rules", "all", "--min-speedup", "1e9"], "--min-speedup"),
            (["--vs", "vectorized"], "--vs"),
            (["--rules", "all", "--workers", "2"], "--workers"),
        ],
    )
    def test_cli_rejects_flags_the_sweep_ignores(self, args, flag, capsys):
        assert perf_main(["fleet", "--smoke", "--repeats", "1", *args]) == 2
        assert flag in capsys.readouterr().err

    def test_cli_rule_gate(self, capsys):
        argv = ["fleet", "--smoke", "--repeats", "1", "--lanes", "4", "--rules", "qlearning,sarsa"]
        assert perf_main([*argv, "--max-rule-overhead", "1e9"]) == 0
        assert perf_main([*argv, "--max-rule-overhead", "1e-9"]) == 1
        out = capsys.readouterr().out
        assert "rule overhead at rule=" in out and "FAIL" in out

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_committed_bench_renders_and_self_compares(self, n, capsys):
        path = str(REPO / f"BENCH_{n}.json")
        snapshot = load_snapshot(path)
        assert perf_main(["report", path]) == 0
        out = capsys.readouterr().out
        assert perf_main(["compare", path, path]) == 0
        findings = capsys.readouterr().out
        for name, spec in SWEEPS.items():
            if spec.key in snapshot:
                assert spec.title in out
                assert f" {name}.{spec.ratio}@" in findings


# ---------------------------------------------------------------------- #
# Telemetry report delta mode + error paths (satellite)
# ---------------------------------------------------------------------- #


class TestTelemetryReportDeltas:
    def _profile(self, mdp, cfg, path, samples):
        with TelemetrySession(trace=False) as session:
            pipe = QTAccelPipeline(mdp, cfg)
        pipe.run(samples)
        session.export_profile(path)

    def test_delta_table(self, mdp, cfg, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._profile(mdp, cfg, a, 100)
        self._profile(mdp, cfg, b, 200)
        assert telemetry_main(["profile", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "telemetry profile delta" in out
        assert "counter(s) differ" in out
        assert "retired 100 -> 200" in out
        assert "pipe0.stage.S1.active" in out  # longer run, bigger counter

    def test_identical_profiles_all_unchanged(self, mdp, cfg, tmp_path, capsys):
        a = tmp_path / "a.json"
        self._profile(mdp, cfg, a, 50)
        assert telemetry_main(["profile", str(a), str(a)]) == 0
        assert "0 counter(s) differ" in capsys.readouterr().out

    def test_missing_file_is_a_clear_error(self, tmp_path, capsys):
        missing = tmp_path / "gone.profile.json"
        assert telemetry_main(["profile", str(missing)]) == 2
        err = capsys.readouterr().err
        assert "cannot read" in err and "gone.profile.json" in err

    def test_malformed_json_is_a_clear_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.profile.json"
        bad.write_text("{not json")
        assert telemetry_main(["profile", str(bad)]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_second_file_errors_too(self, mdp, cfg, tmp_path, capsys):
        a = tmp_path / "a.json"
        self._profile(mdp, cfg, a, 50)
        assert telemetry_main(["profile", str(a), str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_delta_rejects_trace_files(self, mdp, cfg, tmp_path, capsys):
        a, t = tmp_path / "a.json", tmp_path / "t.json"
        self._profile(mdp, cfg, a, 50)
        t.write_text(json.dumps({"traceEvents": []}))
        assert telemetry_main(["profile", str(a), str(t)]) == 2
        assert "trace" in capsys.readouterr().err
