"""Golden-trace regression pins.

The first 24 update records of a fixed (environment, config, seed) are
hardcoded below.  Any change to LFSR polynomials, draw discipline
(decimation), fixed-point rounding, Qmax maintenance or episode handling
shows up here as an exact diff — the canary for "we silently changed
the machine's semantics".  If a change is *intentional*, regenerate the
constants (the command is in the comment) and say so in the change.

The SARSA trace doubles as living documentation of the paper's
monotonic-Qmax pinning artifact: the agent enters a wall corner at
sample 4 and grinds Q(6, left) down to its fixed point (-16320 raw =
-255.0) forever, exactly the behaviour ablation_qmax quantifies.
"""


import collections

from repro.core.config import QTAccelConfig
from repro.core.functional import FunctionalSimulator
from repro.core.pipeline import QTAccelPipeline
from repro.envs.gridworld import GridWorld

# Regenerate with:
#   python - <<'PY'
#   from repro.envs import GridWorld
#   from repro.core import QTAccelConfig, FunctionalSimulator
#   mdp = GridWorld.random(8, 4, obstacle_density=0.15, seed=2).to_mdp()
#   for cfg in (QTAccelConfig.qlearning(seed=5), QTAccelConfig.sarsa(seed=5)):
#       f = FunctionalSimulator(mdp, cfg); t = f.enable_trace(); f.run(24)
#       print(t)
#   PY

GOLDEN_QL = [
    (0, 38, 0, 0),
    (1, 30, 2, 0),
    (2, 38, 1, 0),
    (3, 37, 0, -8160),
    (4, 37, 0, -12240),
    (5, 37, 0, -14280),
    (6, 37, 0, -15300),
    (7, 37, 1, 0),
    (8, 36, 3, 0),
    (9, 37, 0, -15810),
    (10, 37, 3, 0),
    (11, 38, 2, 0),
    (12, 46, 3, 0),
    (13, 47, 0, 0),
    (14, 39, 3, -8160),
    (15, 39, 0, 0),
    (16, 31, 1, 0),
    (17, 30, 2, 0),
    (18, 38, 2, 0),
    (19, 46, 0, 0),
    (20, 38, 2, 0),
    (21, 46, 3, 0),
    (22, 47, 3, -8160),
    (23, 47, 1, 0),
]

GOLDEN_SARSA = [
    (0, 38, 0, 0),
    (1, 30, 0, 0),
    (2, 22, 0, 0),
    (3, 14, 0, 0),
    (4, 6, 0, -8160),
    (5, 6, 0, -12240),
    (6, 6, 0, -14280),
    (7, 6, 0, -15300),
    (8, 6, 0, -15810),
    (9, 6, 0, -16065),
    (10, 6, 0, -16193),
    (11, 6, 0, -16257),
    (12, 6, 0, -16289),
    (13, 6, 0, -16305),
    (14, 6, 0, -16313),
    (15, 6, 0, -16317),
    (16, 6, 0, -16319),
    (17, 6, 0, -16320),
    (18, 6, 0, -16320),
    (19, 6, 0, -16320),
    (20, 6, 0, -16320),
    (21, 6, 0, -16320),
    (22, 6, 0, -16320),
    (23, 6, 0, -16320),
]


def _mdp():
    return GridWorld.random(8, 4, obstacle_density=0.15, seed=2).to_mdp()


class TestGoldenTraces:
    def test_functional_qlearning(self):
        sim = FunctionalSimulator(_mdp(), QTAccelConfig.qlearning(seed=5))
        trace = sim.enable_trace()
        sim.run(len(GOLDEN_QL))
        assert trace == GOLDEN_QL

    def test_functional_sarsa(self):
        sim = FunctionalSimulator(_mdp(), QTAccelConfig.sarsa(seed=5))
        trace = sim.enable_trace()
        sim.run(len(GOLDEN_SARSA))
        assert trace == GOLDEN_SARSA

    def test_pipeline_reproduces_golden(self):
        """The cycle-accurate engine replays the same golden stream."""
        pipe = QTAccelPipeline(_mdp(), QTAccelConfig.qlearning(seed=5))
        trace = pipe.enable_trace()
        pipe.run(len(GOLDEN_QL))
        assert trace == GOLDEN_QL

    def test_telemetry_counters_on_golden_prefix(self):
        """Telemetry counters for the first 5 golden QL samples, pinned.

        The values are readable off GOLDEN_QL: samples 3 and 4 update
        the same (state, action) pair back to back, which exercises the
        carried-operand fixups (S2/S3 ``q_operand``) and the bootstrap
        forward (``S3.qnext``); every new Q is <= the 0 initial value,
        so the monotonic Qmax rule never raises.
        """
        from repro.telemetry import TelemetrySession, verify_paper_invariants

        with TelemetrySession() as session:
            pipe = QTAccelPipeline(_mdp(), QTAccelConfig.qlearning(seed=5))
            pipe.run(5)

        verify_paper_invariants(pipe, samples=5, runs=1)
        counters = session.registry.as_dict()
        assert counters == {
            "pipe0.forward.S1.view_q": 0,
            "pipe0.forward.S1.view_qmax": 0,
            "pipe0.forward.S2.q_operand": 1,
            "pipe0.forward.S2.view_q": 0,
            "pipe0.forward.S2.view_qmax": 2,
            "pipe0.forward.S3.q_operand": 1,
            "pipe0.forward.S3.qnext": 2,
            "pipe0.qmax_raises": 0,
            "pipe0.stage.S1.active": 5,
            "pipe0.stage.S2.active": 5,
            "pipe0.stage.S3.active": 5,
            "pipe0.stage.S4.active": 5,
        }
        assert collections.Counter(ev.kind for ev in session.ring) == {
            "issue": 5,
            "select": 5,
            "forward": 6,
            "retire": 5,
        }

    def test_robustness_counters_on_golden_prefix(self):
        """Robustness counters for directed SEUs on the golden QL run,
        pinned — and the trace itself must stay exactly GOLDEN_QL,
        because SECDED corrects every strike before it is consumed.

        Strikes: a Q-word flip at pair (37, 0) and a Qmax flip at state
        37, both landing after sample 2 (the words are next read by
        sample 3); plus one latent flip in the never-visited pair (0, 0)
        that only the final scrub sweep can see.
        """
        from repro.robustness import FaultInjector, Scrubber
        from repro.telemetry import TelemetrySession

        with TelemetrySession() as session:
            sim = FunctionalSimulator(
                _mdp(), QTAccelConfig.qlearning(seed=5, ecc_tables=True)
            )
            trace = sim.enable_trace()
            T = sim.tables
            injector = FaultInjector(seed=0)
            injector.add_tables(T)
            injector.schedule(3, T.q, T.pair_addr(37, 0), 13)
            injector.schedule(3, T.qmax, 37, 9)
            injector.schedule(24, T.q, T.pair_addr(0, 0), 3)
            scrubber = Scrubber(burst=8)
            scrubber.add_tables(T)

            sim.run(3)
            injector.step(3)  # both sample-3 strikes land here
            sim.run(21)
            injector.step(21)  # the latent strike lands after the run
            scrubber.scrub_all()

        assert trace == GOLDEN_QL  # every upset corrected before use
        assert injector.injected_scheduled == 3
        assert injector.injected == 0  # no Poisson process configured
        assert T.q.ecc_corrected == 2  # pair (37,0) on read, pair (0,0) by scrub
        assert T.qmax.ecc_corrected == 1
        assert T.q.ecc_detected == T.qmax.ecc_detected == 0
        assert scrubber.corrected == 1  # only the latent flip was left to sweep
        assert scrubber.detected == 0
        assert scrubber.scrub_repairs == 0

        counters = session.registry.as_dict()
        assert counters["faults.injected_scheduled"] == 3
        assert "faults.injected" not in counters  # lazy: never fired

        # And the table ends bit-identical to an undisturbed ECC-less run.
        ref = FunctionalSimulator(_mdp(), QTAccelConfig.qlearning(seed=5))
        ref.run(24)
        assert (T.q.data == ref.tables.q.data).all()

    def test_sarsa_wall_grind_is_the_qmax_artifact(self):
        """The golden SARSA trace shows the pinning in miniature: the
        exploit action stays 'left' (0) against a wall while its Q
        converges to exactly the -255 penalty's fixed point."""
        raw = GOLDEN_SARSA[-1][3]
        fmt = QTAccelConfig().q_format
        assert fmt.to_float(raw) == -255.0
        assert all(rec[2] == 0 for rec in GOLDEN_SARSA[4:])
