"""The pluggable stage-3 update-rule API.

QTAccel's datapath (DESIGN.md) fixes stages 1/2/4 — operand fetch,
update-policy selection, write-back — and leaves stage 3 as the one
algorithm-specific arithmetic stage.  The paper instantiates it twice
(Q-Learning and SARSA differ only in where ``Q(s', a')`` comes from);
the accelerated-Q literature adds drop-in variants that keep the same
stage structure and cost only a second per-pair table plus a DSP or two:

* ``momentum_qlearning`` — momentum-based accelerated Q-learning
  (arXiv:1910.11673): stage 3 adds ``b * (Q_t - Q_{t-1})`` per entry,
  with the historical iterate held in a second |S|x|A| table written at
  stage 4.
* ``target_qlearning`` — speedy/target-network-style updates
  (arXiv:1905.02841): bootstrap reads come from a second |S|x|A|
  *target* table that trails the online table via a stage-4 Polyak
  read-modify-write (and, off-pipeline, an optional periodic hard sync).

An :class:`UpdateRule` declares everything an engine needs to host the
rule: the default behaviour/update policy pair, the extra per-lane table
state (by name — the tables themselves live in
:class:`~repro.core.tables.AcceleratorTables` so ECC/checkpoint/fault
machinery applies automatically), the derived raw coefficients, and a
device-model cost descriptor (:class:`RuleCost`) consumed by
:mod:`repro.device.resources`.  The stage-3 arithmetic itself is not a
rule method: every engine (the functional simulator, the cycle pipeline
and the compiled fleet kernel) branches on ``rule.kind``, the one key
that selects a rule's datapath.

Rules are looked up by name through a module-level registry
(:func:`get_rule`); ``QTAccelConfig(update_rule=...)`` resolves through
it.  This module must not import :mod:`repro.core.config` at module
level — the config resolves rules lazily to avoid the cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..fixedpoint import ops

#: Registered rule kinds; engines branch on ``rule.kind`` to keep the
#: plain rules' hot paths free of new-rule dispatch.
RULE_KINDS = ("plain", "momentum", "target")


class UpdateRuleError(ValueError):
    """Base class for update-rule configuration/selection errors."""


class UnknownUpdateRuleError(UpdateRuleError):
    """An ``update_rule`` name that is not in the registry."""


class IncompatibleRuleError(UpdateRuleError):
    """A rule combined with config fields it cannot honour (e.g. an
    accelerated rule with a non-greedy update policy)."""


class UnsupportedRuleError(UpdateRuleError):
    """A (rule, engine) combination the chosen engine cannot run —
    raised by :func:`repro.core.engine.make_engine` at construction
    time, never mid-run."""


@dataclass(frozen=True)
class RuleCost:
    """Device-model increment of hosting a rule, relative to plain
    Q-Learning: extra |S|x|A| tables (BRAM) and extra DSP products in
    the stage-3/stage-4 datapath."""

    extra_pair_tables: int = 0
    extra_dsps: int = 0
    note: str = ""


@dataclass(frozen=True)
class RuleCoefficients:
    """Raw fixed-point coefficients of one configured rule.

    ``alpha``/``gamma``/``one_minus_alpha``/``alpha_gamma`` come from
    :func:`repro.fixedpoint.ops.coefficient_set`; the accelerated rules
    add ``beta`` (momentum weight) or the ``tau`` Polyak pair.  All are
    raw integers in the config's ``coef_format``.
    """

    alpha: int
    gamma: int
    one_minus_alpha: int
    alpha_gamma: int
    beta: int = 0
    tau: int = 0
    one_minus_tau: int = 0


class UpdateRule:
    """Base class / protocol for stage-3 update rules.

    Subclasses set the class attributes and override the hooks they
    need.  Instances are stateless singletons held by the registry —
    all per-run state lives in the engines (declared via
    :attr:`extra_tables` and :attr:`has_sync_counter`).
    """

    #: Canonical registry name (also the config's ``algorithm`` label).
    name: str = ""
    #: Dispatch kind — one of :data:`RULE_KINDS`.
    kind: str = "plain"
    #: Default policies installed by ``QTAccelConfig(update_rule=...)``.
    behavior_policy: str = "random"
    update_policy: str = "greedy"
    #: Accepted alternative spellings (legacy strings, paper names).
    aliases: tuple[str, ...] = ()
    #: Names of extra |S|x|A| raw tables the engines must allocate
    #: (checkpoint members, ECC/fault victims, q_init-filled).
    extra_tables: tuple[str, ...] = ()
    #: Whether the rule carries a per-lane update counter (periodic
    #: target sync).
    has_sync_counter: bool = False
    #: Device-model increment (see :class:`RuleCost`).
    device_cost: RuleCost = RuleCost()

    # ------------------------------------------------------------------ #
    # Hooks
    # ------------------------------------------------------------------ #

    def validate(self, config) -> None:
        """Raise :class:`IncompatibleRuleError` if ``config`` cannot
        host this rule.  Called from ``QTAccelConfig.__post_init__``."""

    def coefficients(self, config) -> RuleCoefficients:
        """Derive the rule's raw coefficient set from ``config``."""
        a, g, oma, ag = ops.coefficient_set(
            config.alpha, config.gamma, config.coef_format
        )
        return RuleCoefficients(a, g, oma, ag)

    def state_dict(self, tables, sync_count: int = 0) -> dict:
        """Rule-owned state beyond the core tables: the extra tables'
        raw contents (already inside ``tables.state_dict()``) plus any
        sync counter.  Engines embed this under a ``"rule"`` key."""
        state = {"name": self.name}
        if self.has_sync_counter:
            state["sync_count"] = int(sync_count)
        return state

    def load_state_dict(self, state: dict) -> int:
        """Inverse of :meth:`state_dict`; returns the sync counter."""
        if state.get("name") != self.name:
            raise ValueError(
                f"rule state is for {state.get('name')!r}, expected {self.name!r}"
            )
        return int(state.get("sync_count", 0))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<UpdateRule {self.name} kind={self.kind}>"


# ---------------------------------------------------------------------- #
# The four registered rules
# ---------------------------------------------------------------------- #


class QLearningRule(UpdateRule):
    """The paper's off-policy customisation (§V-A): random behaviour,
    greedy bootstrap from the Qmax cache."""

    name = "qlearning"
    kind = "plain"
    behavior_policy = "random"
    update_policy = "greedy"
    aliases = ("q", "q_learning", "greedy")
    device_cost = RuleCost(note="paper baseline")


class SarsaRule(UpdateRule):
    """The paper's on-policy customisation (§V-B): e-greedy behaviour,
    the stage-2 sampled action forwarded to stage 1."""

    name = "sarsa"
    kind = "plain"
    behavior_policy = "egreedy"
    update_policy = "egreedy"
    aliases = ("egreedy",)
    device_cost = RuleCost(note="paper baseline")


class MomentumQLearningRule(UpdateRule):
    """Momentum-based accelerated Q-learning (arXiv:1910.11673).

    Stage 3 adds one DSP product, ``b * (Q(s,a) - M(s,a))``, to the
    wide adder tree; stage 4 writes the *pre-update* Q-value into the
    momentum table ``M`` so each entry holds its previous iterate:

    ``Q_{t+1}(s,a) = Q_t + a*(R + g*max Q_t(s',.) - Q_t) + b*(Q_t - Q_{t-1})``

    Cost: one extra |S|x|A| BRAM table, one extra DSP.
    """

    name = "momentum_qlearning"
    kind = "momentum"
    behavior_policy = "random"
    update_policy = "greedy"
    aliases = ("momentum", "momentum_q")
    extra_tables = ("momentum",)
    device_cost = RuleCost(
        extra_pair_tables=1,
        extra_dsps=1,
        note="momentum table + b*(Q - M) product",
    )

    def validate(self, config) -> None:
        if config.update_policy != "greedy":
            raise IncompatibleRuleError(
                f"update_rule={self.name!r} requires update_policy='greedy' "
                f"(got {config.update_policy!r}); the momentum term assumes "
                f"the greedy bootstrap of arXiv:1910.11673"
            )
        beta = config.momentum_beta
        if not 0.0 <= beta < 1.0:
            raise IncompatibleRuleError(
                f"momentum_beta must be in [0, 1), got {beta}"
            )

    def coefficients(self, config) -> RuleCoefficients:
        a, g, oma, ag = ops.coefficient_set(
            config.alpha, config.gamma, config.coef_format
        )
        beta = int(config.coef_format.quantize(config.momentum_beta))
        return RuleCoefficients(a, g, oma, ag, beta=beta)


class TargetQLearningRule(UpdateRule):
    """Target-table Q-learning with Polyak trailing (arXiv:1905.02841).

    The bootstrap value is read from a second *target* table ``T`` at
    the online argmax (select-online / evaluate-target); stage 4 trails
    ``T`` behind ``Q`` with a lazy Polyak read-modify-write of the
    written entry, ``T <- (1 - tau)*T + tau*Q_new``.  With
    ``target_sync_period=N > 0`` the functional simulator and fleet
    backends additionally hard-copy ``T <- Q`` every N updates — a
    whole-table copy the cycle-accurate pipeline cannot issue, so the
    pipeline engine rejects that combination with
    :class:`UnsupportedRuleError` at construction.

    Cost: one extra |S|x|A| BRAM table, two extra DSPs (the Polyak
    products).
    """

    name = "target_qlearning"
    kind = "target"
    behavior_policy = "random"
    update_policy = "greedy"
    aliases = ("target", "target_q", "polyak")
    extra_tables = ("target",)
    has_sync_counter = True
    device_cost = RuleCost(
        extra_pair_tables=1,
        extra_dsps=2,
        note="target table + Polyak RMW products",
    )

    def validate(self, config) -> None:
        if config.update_policy != "greedy":
            raise IncompatibleRuleError(
                f"update_rule={self.name!r} requires update_policy='greedy' "
                f"(got {config.update_policy!r}); the target bootstrap uses "
                f"the online argmax (select-online / evaluate-target)"
            )
        tau = config.target_tau
        if not 0.0 < tau <= 1.0:
            raise IncompatibleRuleError(
                f"target_tau must be in (0, 1], got {tau}"
            )
        period = config.target_sync_period
        if isinstance(period, bool) or not isinstance(period, int) or period < 0:
            raise IncompatibleRuleError(
                f"target_sync_period must be a non-negative int, got {period!r}"
            )

    def coefficients(self, config) -> RuleCoefficients:
        a, g, oma, ag = ops.coefficient_set(
            config.alpha, config.gamma, config.coef_format
        )
        tau, one_minus_tau = ops.complement_coefficient(
            config.target_tau, config.coef_format
        )
        return RuleCoefficients(
            a, g, oma, ag, tau=tau, one_minus_tau=one_minus_tau
        )


# ---------------------------------------------------------------------- #
# Registry
# ---------------------------------------------------------------------- #

_RULES: dict[str, UpdateRule] = {}
_ALIASES: dict[str, str] = {}


def register_rule(rule: UpdateRule) -> UpdateRule:
    """Add a rule instance to the registry (canonical name + aliases)."""
    if not rule.name:
        raise ValueError("update rules must have a non-empty name")
    if rule.kind not in RULE_KINDS:
        raise ValueError(
            f"rule {rule.name!r} has unknown kind {rule.kind!r}; "
            f"choose one of {RULE_KINDS}"
        )
    for key in (rule.name, *rule.aliases):
        if key in _RULES or key in _ALIASES:
            raise ValueError(f"duplicate update-rule name/alias {key!r}")
    _RULES[rule.name] = rule
    for alias in rule.aliases:
        _ALIASES[alias] = rule.name
    return rule


def rule_names() -> tuple[str, ...]:
    """Canonical names of all registered rules, registration order."""
    return tuple(_RULES)


def canonical_rule_name(name: str) -> str:
    """Resolve an alias to its canonical rule name.

    Raises :class:`UnknownUpdateRuleError` for unregistered names.
    """
    if name in _RULES:
        return name
    if name in _ALIASES:
        return _ALIASES[name]
    raise UnknownUpdateRuleError(
        f"unknown update_rule {name!r}; registered rules: "
        f"{', '.join(_RULES)} (aliases: {', '.join(_ALIASES)})"
    )


def get_rule(name: str) -> UpdateRule:
    """Look up a rule by canonical name or alias."""
    return _RULES[canonical_rule_name(name)]


register_rule(QLearningRule())
register_rule(SarsaRule())
register_rule(MomentumQLearningRule())
register_rule(TargetQLearningRule())
