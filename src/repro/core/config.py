"""Configuration of a QTAccel instance.

A :class:`QTAccelConfig` fixes everything the hardware generics would:
the algorithm (behaviour/update policy pair), learning coefficients and
their fixed-point format, Q-word format, hazard-handling strategy, Qmax
semantics, and LFSR seeds/widths.  Both simulators and the device models
consume the same object, so an experiment is fully described by
``(DenseMdp, QTAccelConfig, FpgaPart)``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..fixedpoint.format import COEF_FORMAT, Q_FORMAT, FxpFormat
from ..fixedpoint import ops

#: Hazard-handling strategies (DESIGN.md "Forwarding vs stalling vs stale").
HAZARD_MODES = ("forward", "stall", "stale")

#: Qmax maintenance strategies:
#:
#: * ``"monotonic"`` — the paper's write-path update: Qmax is raised when
#:   a written Q-value exceeds it and never lowered.  When an update
#:   *reduces* the per-state maximum (negative rewards), both the cached
#:   value and the cached argmax action go stale — the ablation benches
#:   show this can pin SARSA's exploit action and prevent learning.
#: * ``"follow"`` — our equally-cheap hardware fix (one extra comparator
#:   at stage 4): when the written action *is* the cached argmax, Qmax
#:   follows its value down; otherwise the monotonic raise rule applies.
#: * ``"exact"`` — recomputes the true row maximum on every write.  Not
#:   implementable in one hardware cycle; functional-simulator ablation
#:   only.
QMAX_MODES = ("monotonic", "follow", "exact")

BEHAVIOR_POLICIES = ("random", "egreedy")
UPDATE_POLICIES = ("greedy", "egreedy")


@dataclass(frozen=True, kw_only=True)
class QTAccelConfig:
    """Static configuration of one accelerator pipeline.

    The algorithm is named by ``update_rule`` — a key into the
    :mod:`repro.algorithms` registry — with one preset per registered
    rule:

    * :meth:`qlearning` — random behaviour policy, greedy update policy
      (off-policy; §V-A).
    * :meth:`sarsa` — e-greedy on-policy; the stage-2 sampled action is
      forwarded to stage 1 as the next behaviour action (§V-B).
    * :meth:`momentum` — momentum-accelerated Q-learning
      (arXiv:1910.11673; one extra table, stage-3 momentum term).
    * :meth:`target_q` — Polyak target-table Q-learning
      (arXiv:1905.02841; one extra table, stage-4 soft sync).

    ``behavior_policy``/``update_policy`` remain as derived plumbing for
    the engines; left empty they take the rule's defaults.  For the
    plain rules they stay authoritative (so ``with_(update_policy=...)``
    keeps working), while the accelerated rules pin
    ``update_policy="greedy"`` and reject anything else with a typed
    error.  Construction is keyword-only.
    """

    #: Empty means "the update rule's default" (random without a rule).
    behavior_policy: str = ""
    #: Empty means "the update rule's default" (greedy without a rule).
    update_policy: str = ""
    alpha: float = 0.5
    gamma: float = 0.9
    epsilon: float = 0.1
    q_format: FxpFormat = Q_FORMAT
    coef_format: FxpFormat = COEF_FORMAT
    hazard_mode: str = "forward"
    qmax_mode: str = "monotonic"
    q_init: float = 0.0
    lfsr_width: int = 24
    seed: int = 1
    name: str = ""
    #: Protect the on-chip tables with SECDED ECC (see docs/robustness.md).
    #: Off by default: the unprotected tables are the paper's design.
    ecc_tables: bool = False
    #: Canonical update-rule name (see :mod:`repro.algorithms`).  Empty
    #: means "derive from update_policy" (the legacy plain rules);
    #: ``__post_init__`` always canonicalises it to a registered name.
    update_rule: str = ""
    #: Momentum weight ``b`` for ``update_rule="momentum_qlearning"``.
    momentum_beta: float = 0.3
    #: Polyak step ``tau`` for ``update_rule="target_qlearning"``.
    target_tau: float = 0.05
    #: Optional hard-sync period for the target rule: copy the whole
    #: target table from the online table every N updates (0 = pure
    #: Polyak trailing; the only mode the cycle-accurate pipeline can
    #: host).
    target_sync_period: int = 0

    def __post_init__(self) -> None:
        # Lazy import: repro.algorithms must not be imported at module
        # level from here or the cycle closes.
        from ..algorithms.rules import canonical_rule_name, get_rule

        # The named rule's default policies fill any the caller left
        # empty (unknown names fail fast with the typed error, before
        # field validation).
        if self.update_rule:
            named = get_rule(self.update_rule)
            defaults = (named.behavior_policy, named.update_policy)
        else:
            defaults = ("random", "greedy")
        for fname, value in zip(("behavior_policy", "update_policy"), defaults):
            if not getattr(self, fname):
                object.__setattr__(self, fname, value)

        if self.behavior_policy not in BEHAVIOR_POLICIES:
            raise ValueError(
                f"behavior_policy: unknown value {self.behavior_policy!r}; "
                f"choose one of {BEHAVIOR_POLICIES}"
            )
        if self.update_policy not in UPDATE_POLICIES:
            raise ValueError(
                f"update_policy: unknown value {self.update_policy!r}; "
                f"choose one of {UPDATE_POLICIES}"
            )
        if self.hazard_mode not in HAZARD_MODES:
            raise ValueError(
                f"hazard_mode: unknown value {self.hazard_mode!r}; "
                f"choose one of {HAZARD_MODES}"
            )
        if self.qmax_mode not in QMAX_MODES:
            raise ValueError(
                f"qmax_mode: unknown value {self.qmax_mode!r}; "
                f"choose one of {QMAX_MODES}"
            )
        for fname in ("alpha", "gamma", "epsilon", "q_init"):
            value = getattr(self, fname)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeError(
                    f"{fname} must be a real number, got "
                    f"{type(value).__name__} {value!r}"
                )
            if value != value or value in (float("inf"), float("-inf")):
                raise ValueError(f"{fname} must be finite, got {value!r}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(
                f"alpha (learning rate) must be in (0, 1], got {self.alpha}; "
                f"alpha=0 would make every update a no-op"
            )
        # gamma=0 is legal: the bandit customisation (§VII-B) is Q-Learning
        # with no bootstrap term.
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(
                f"gamma (discount) must be in [0, 1], got {self.gamma}"
            )
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(
                f"epsilon (exploration rate) must be in [0, 1], got {self.epsilon}"
            )
        for fname in ("q_format", "coef_format"):
            value = getattr(self, fname)
            if not isinstance(value, FxpFormat):
                raise TypeError(
                    f"{fname} must be an FxpFormat (e.g. repro.fixedpoint.Q_FORMAT), "
                    f"got {type(value).__name__} {value!r}"
                )
        if abs(self.q_init) > self.q_format.max_value:
            raise ValueError(
                f"q_init={self.q_init} is outside the representable range "
                f"[{self.q_format.min_value}, {self.q_format.max_value}] of "
                f"q_format {self.q_format}"
            )
        if isinstance(self.lfsr_width, bool) or not isinstance(self.lfsr_width, int):
            raise TypeError(
                f"lfsr_width must be an int, got "
                f"{type(self.lfsr_width).__name__} {self.lfsr_width!r}"
            )
        if self.lfsr_width < 8:
            raise ValueError(
                f"lfsr_width must be >= 8 (narrower registers visibly bias "
                f"the draw streams), got {self.lfsr_width}"
            )
        from ..rtl.lfsr import MAXIMAL_TAPS

        if self.lfsr_width not in MAXIMAL_TAPS:
            supported = sorted(w for w in MAXIMAL_TAPS if w >= 8)
            raise ValueError(
                f"no maximal-length tap table for lfsr_width={self.lfsr_width}; "
                f"supported widths: {supported}"
            )
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise TypeError(
                f"seed must be an int, got {type(self.seed).__name__} {self.seed!r}"
            )
        if not isinstance(self.ecc_tables, bool):
            raise TypeError(
                f"ecc_tables must be a bool, got "
                f"{type(self.ecc_tables).__name__} {self.ecc_tables!r}"
            )
        if not isinstance(self.name, str):
            raise TypeError(
                f"name must be a str, got {type(self.name).__name__} {self.name!r}"
            )
        if not isinstance(self.update_rule, str):
            raise TypeError(
                f"update_rule must be a str, got "
                f"{type(self.update_rule).__name__} {self.update_rule!r}"
            )
        for fname in ("momentum_beta", "target_tau"):
            value = getattr(self, fname)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeError(
                    f"{fname} must be a real number, got "
                    f"{type(value).__name__} {value!r}"
                )
            if value != value or value in (float("inf"), float("-inf")):
                raise ValueError(f"{fname} must be finite, got {value!r}")
        if not 0.0 <= self.momentum_beta < 1.0:
            raise ValueError(
                f"momentum_beta must be in [0, 1), got {self.momentum_beta}"
            )
        if not 0.0 < self.target_tau <= 1.0:
            raise ValueError(
                f"target_tau must be in (0, 1], got {self.target_tau}"
            )
        if isinstance(self.target_sync_period, bool) or not isinstance(
            self.target_sync_period, int
        ):
            raise TypeError(
                f"target_sync_period must be an int, got "
                f"{type(self.target_sync_period).__name__} "
                f"{self.target_sync_period!r}"
            )
        if self.target_sync_period < 0:
            raise ValueError(
                f"target_sync_period must be non-negative, got "
                f"{self.target_sync_period}"
            )

        # Resolve the update rule.
        rule_name = self.update_rule
        if rule_name:
            rule_name = canonical_rule_name(rule_name)
        else:
            rule_name = "qlearning" if self.update_policy == "greedy" else "sarsa"
        rule = get_rule(rule_name)
        if rule.kind == "plain":
            # For the plain pair the policy strings stay authoritative:
            # dataclasses.replace() (== with_()) passes every current
            # field, so ``with_(update_policy="egreedy")`` must flip the
            # rule rather than trip a stale-name error.
            rule_name = "qlearning" if self.update_policy == "greedy" else "sarsa"
            rule = get_rule(rule_name)
        object.__setattr__(self, "update_rule", rule_name)
        rule.validate(self)

    # ------------------------------------------------------------------ #
    # Presets
    # ------------------------------------------------------------------ #

    @classmethod
    def qlearning(cls, **kw) -> "QTAccelConfig":
        """The paper's Q-Learning customisation (§V-A)."""
        kw.setdefault("name", "qlearning")
        kw.setdefault("update_rule", "qlearning")
        return cls(**kw)

    @classmethod
    def sarsa(cls, **kw) -> "QTAccelConfig":
        """The paper's SARSA customisation (§V-B)."""
        kw.setdefault("name", "sarsa")
        kw.setdefault("update_rule", "sarsa")
        return cls(**kw)

    @classmethod
    def momentum(cls, **kw) -> "QTAccelConfig":
        """Momentum-accelerated Q-learning (arXiv:1910.11673)."""
        kw.setdefault("name", "momentum_qlearning")
        kw.setdefault("update_rule", "momentum_qlearning")
        return cls(**kw)

    @classmethod
    def target_q(cls, **kw) -> "QTAccelConfig":
        """Polyak target-table Q-learning (arXiv:1905.02841)."""
        kw.setdefault("name", "target_qlearning")
        kw.setdefault("update_rule", "target_qlearning")
        return cls(**kw)

    # ------------------------------------------------------------------ #
    # Derived values
    # ------------------------------------------------------------------ #

    @property
    def algorithm(self) -> str:
        """Canonical algorithm label for reports: the registered rule
        name (``update_rule`` is always canonical after construction)."""
        return self.update_rule

    @property
    def rule(self):
        """The registered :class:`~repro.algorithms.UpdateRule`."""
        from ..algorithms.rules import get_rule

        return get_rule(self.update_rule)

    @property
    def is_on_policy(self) -> bool:
        """On-policy pipelines forward the stage-2 action to stage 1."""
        return self.behavior_policy == "egreedy" and self.update_policy == "egreedy"

    def coefficients(self) -> tuple[int, int, int, int]:
        """Raw ``(alpha, gamma, 1 - alpha, alpha * gamma)`` as stage 1
        computes them (see :func:`repro.fixedpoint.ops.coefficient_set`)."""
        return ops.coefficient_set(self.alpha, self.gamma, self.coef_format)

    def rule_coefficients(self):
        """The configured rule's full raw coefficient set (a
        :class:`~repro.algorithms.RuleCoefficients`)."""
        return self.rule.coefficients(self)

    def with_(self, **changes) -> "QTAccelConfig":
        """Copy with some fields replaced."""
        return replace(self, **changes)
