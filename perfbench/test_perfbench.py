"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import bench_serve
from bench_stats import Outcome, relative_iqr, residual, segment_median, segment_rates, tail

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


# ---------------------------------------------------------------------- #
# Statistics
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("n, level", [(1000, 0.99), (5000, 0.99), (500, 0.98), (21, 11 / 21)])
def test_tail_keeps_ten_samples_beyond(n, level):
    samples = list(range(n))
    t = tail(samples)
    assert t.level == pytest.approx(level)
    assert t.count == n and t.supported
    assert sum(x > t.value for x in samples) >= 10


def test_tail_of_a_small_sample_is_its_flagged_maximum():
    t = tail([3.0, 1.0, 2.0])
    assert (t.value, t.supported) == (3.0, False)
    assert "too few" in t.label


def test_failed_requests_miss_every_percentile():
    # p99 of 1000 samples is the 990th: five failures stay beyond it,
    # fifteen reach it.
    assert tail([1.0] * 995 + [math.inf] * 5).value == 1.0
    assert tail([1.0] * 985 + [math.inf] * 15).value == math.inf


def test_segment_median_ignores_one_stall():
    marks = [0.0, 1.0, 2.0, 12.0, 13.0, 14.0]  # the third segment stalled
    assert segment_rates(marks, 100) == [100, 100, 10, 100, 100]
    assert segment_median(marks, 100) == 100


def test_segment_median_needs_a_segment():
    with pytest.raises(ValueError):
        segment_median([0.0], 100)


def test_residual_is_total_minus_parts():
    assert residual(10.0, (2.5, 3.0)) == pytest.approx(4.5)
    assert residual(1.0, (2.0,)) == pytest.approx(-1.0)  # reported, not clipped


def test_relative_iqr_matches_statistics_quantiles():
    assert relative_iqr([10, 10, 10, 10]) == 0
    assert relative_iqr([8, 9, 10, 11, 12]) == pytest.approx((11.5 - 8.5) / 10)


def test_progress_marks_every_crossed_segment():
    progress = bench_serve.Progress(256)
    progress.add(255)
    assert len(progress.marks) == 1
    progress.add(1)
    progress.add(512)
    assert len(progress.marks) == 4


def test_journal_flattens_batches():
    ops = [("act", 3), ("learn", 3, 1, 0.5, 4, False), ("batch", [[1, 2, 0.1, 3, True]])]
    assert bench_serve.journal(ops) == [
        ("act", 3), ("learn", 3, 1, 0.5, 4, False), ("learn", 1, 2, 0.1, 3, True),
    ]


# ---------------------------------------------------------------------- #
# Output checks fail the run
# ---------------------------------------------------------------------- #


def test_fleet_lane_check_catches_a_wrong_table():
    import bench_fleet

    fleet = bench_fleet.build("vectorized", seed=1)
    fleet.run(8)
    out = Outcome()
    bench_fleet.check_lanes("vectorized", fleet, 1, 8, out)
    assert out.problems == []
    fleet.q[bench_fleet.CHECK_LANES[-1], 5] += 1
    bench_fleet.check_lanes("vectorized", fleet, 1, 8, out)
    assert len(out.problems) == 1 and "lane 4095 Q" in out.problems[0]


def test_serve_session_check_catches_a_wrong_table():
    from repro.serve.smoke import replay_reference

    args = bench_serve.cli_args()
    ops = [("act", 5), ("learn", 5, 2, 0.75, 9, False), ("batch", [[9, 1, -0.5, 3, True]])]
    ref = replay_reference(bench_serve.serve_config(args), 64, bench_serve.journal(ops),
                           num_states=args.states, num_actions=args.actions)
    table = [int(v) for v in ref.tables.q.data]
    out = Outcome()
    bench_serve.check_sessions([(64, ops, table)], "t", out)
    assert out.problems == []
    table[0] += 1
    bench_serve.check_sessions([(64, ops, table)], "t", out)
    assert len(out.problems) == 1


# ---------------------------------------------------------------------- #
# Short runs of the whole command
# ---------------------------------------------------------------------- #


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _json_lines(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


def test_short_run_of_every_workload_passes_its_checks():
    proc = _run("--workload", "all", "--seed", "3", "--seconds", "0.5")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = _json_lines(proc.stdout)
    assert len(results) == len(BENCH["workloads"])
    names = {m["name"] for m in BENCH["end_to_end"]}
    for result in results:
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == names
        assert all(m["value"] > 0 for m in result["metrics"].values())
    for issue_name in ("fleet_updates_per_s", "fleet_sharded_updates_per_s",
                       "serve_steps_per_s", "act_p99_ms",
                       "learn_p50_ms", "serve_transitions_per_s", "batch_p99_ms",
                       "failed_ops_frac"):
        assert issue_name in proc.stdout


def test_short_traced_run_reports_every_layer_metric():
    proc = _run("--workload", "fleet_native", "--seed", "3", "--seconds", "2", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    (result,) = _json_lines(proc.stdout)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in BENCH["per_layer"]}


def test_without_the_repository_sources_the_run_fails(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "fleet_native", "--seconds", "1", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not _json_lines(proc.stdout)


def test_lane_salts_differ_between_seeds():
    import bench_fleet

    assert not set(bench_fleet.lane_salts(1)) & set(bench_fleet.lane_salts(2))
    assert np.array_equal(bench_fleet.lane_salts(1), bench_fleet.lane_salts(1))
