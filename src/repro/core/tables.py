"""The accelerator's on-chip tables: Q, rewards, Qmax (paper §IV-B, §V-A).

:class:`AcceleratorTables` owns the BRAM-backed state of one pipeline (or
of two state-sharing pipelines): the ``|S| x |A|`` Q and reward tables and
the ``|S|``-entry Qmax value/action arrays.  Addresses follow the
hardware scheme — state in the high bits, action in the low bits when
``|A|`` is a power of two.

The Qmax write-path update implements the paper's §V-A optimisation: at
write-back, the cached maximum is raised if the freshly written Q-value
exceeds it.  Because it is never lowered, the cache can go stale-high when
an update reduces the current per-state maximum; ``qmax_mode="exact"``
(not implementable in one hardware cycle — ablation only) recomputes the
true row maximum instead.
"""

from __future__ import annotations

import numpy as np

from ..envs.base import DenseMdp, bits_for
from ..fixedpoint import ops
from ..rtl.memory import BRAM36, TableRam
from .config import QTAccelConfig


def is_index(v) -> bool:
    """An integer scalar that is not a bool: the one rule every engine
    applies to an externally supplied lane, state or action index."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def apply_qmax_rule(
    mode: str, value: int, act: int, new_val: int, new_act: int
) -> tuple[int, int]:
    """One application of the stage-4 Qmax maintenance rule.

    Shared by the write-back path and the forwarding network so that
    overlaying pending writes is exactly equivalent to committing them in
    order (the equivalence the simulators' bit-identity rests on).
    """
    if mode == "monotonic":
        return (new_val, new_act) if new_val > value else (value, act)
    if mode == "follow":
        if new_act == act or new_val > value:
            return new_val, new_act
        return value, act
    raise ValueError(f"no single-cycle rule for qmax mode {mode!r}")


class AcceleratorTables:
    """On-chip table set for one environment + configuration."""

    def __init__(self, mdp: DenseMdp, config: QTAccelConfig):
        self.mdp = mdp
        self.config = config
        s, a = mdp.num_states, mdp.num_actions
        self.num_states = s
        self.num_actions = a
        self.action_bits = bits_for(a)
        self._pow2_actions = a & (a - 1) == 0
        self._ecc = config.ecc_tables

        qf = config.q_format
        q_init_raw = qf.quantize(config.q_init)
        if config.ecc_tables:
            # SECDED-protected variant (see repro.robustness.ecc): same
            # storage layout plus per-word check bits, decode on read.
            from ..robustness.ecc import EccTableRam

            def _ram(depth, width, *, name, fill=0, signed=True):
                return EccTableRam(depth, width, name=name, fill=fill, signed=signed)
        else:

            def _ram(depth, width, *, name, fill=0, signed=True):
                return TableRam(depth, width, name=name, fill=fill)

        self.q = _ram(s * a, qf.wordlen, name="q", fill=q_init_raw)
        self.rewards = _ram(s * a, qf.wordlen, name="rewards")
        self.rewards.data[:] = ops.quantize_array(mdp.rewards.ravel(), qf)
        if config.ecc_tables:
            self.rewards.check[:] = self.rewards.codec.encode_many(
                self.rewards.data & np.int64((1 << qf.wordlen) - 1)
            )
        self.qmax = _ram(s, qf.wordlen, name="qmax", fill=q_init_raw)
        self.qmax_action = _ram(
            s, max(1, self.action_bits), name="qmax_action", signed=False
        )
        #: Update-rule extra tables (momentum iterate, Polyak target, …),
        #: declared by ``config.rule.extra_tables``.  Allocated through
        #: the same ``_ram`` factory, so they are ECC-protected,
        #: checkpointed, and fault-injectable exactly like the Q table.
        self.extra_rams: dict[str, object] = {
            tname: _ram(s * a, qf.wordlen, name=tname, fill=q_init_raw)
            for tname in config.rule.extra_tables
        }
        #: Convenience handles (``None`` when the rule has no such table).
        self.momentum = self.extra_rams.get("momentum")
        self.target = self.extra_rams.get("target")
        #: Terminal flags live in the transition-function block
        #: (combinational logic), not BRAM; kept as a plain array.
        self.terminal = mdp.terminal

    def _all_rams(self) -> tuple:
        """Every RAM in checkpoint/telemetry order (core four + rule
        extras)."""
        return (
            self.q,
            self.rewards,
            self.qmax,
            self.qmax_action,
            *self.extra_rams.values(),
        )

    # ------------------------------------------------------------------ #
    # Addressing
    # ------------------------------------------------------------------ #

    def pair_addr(self, state: int, action: int) -> int:
        """Hardware address of ``(state, action)``: state in the high
        bits, action in the low bits (shift/or when ``|A|`` is a power of
        two, multiply otherwise)."""
        if self._pow2_actions:
            return (state << self.action_bits) | action
        return state * self.num_actions + action

    # ------------------------------------------------------------------ #
    # Read paths
    # ------------------------------------------------------------------ #

    def read_q(self, state: int, action: int) -> int:
        """Stage-1/2 Q-table read (raw)."""
        return self.q.read(self.pair_addr(state, action))

    def read_reward(self, state: int, action: int) -> int:
        """Stage-1 reward-table read (raw)."""
        return self.rewards.read(self.pair_addr(state, action))

    def read_qmax(self, state: int) -> tuple[int, int]:
        """Stage-2 Qmax read: ``(max_value_raw, argmax_action)``."""
        return self.qmax.read(state), self.qmax_action.read(state)

    # ------------------------------------------------------------------ #
    # Write-back path (stage 4)
    # ------------------------------------------------------------------ #

    def writeback(self, state: int, action: int, q_new_raw: int) -> bool:
        """Stage writes for the clock edge: Q entry plus Qmax maintenance.

        Returns whether the Qmax entry was (re)written — the stage-4
        "Qmax raise" event the telemetry probes record.
        """
        self.q.write(self.pair_addr(state, action), q_new_raw)
        mode = self.config.qmax_mode
        if mode == "exact":  # ablation: recompute the true row maximum
            row = self.row_q(state).copy()
            row[action] = q_new_raw
            best = int(np.argmax(row))
            self.qmax.write(state, int(row[best]))
            self.qmax_action.write(state, best)
            return True
        cur_val = self.qmax.read(state)
        cur_act = self.qmax_action.read(state)
        new_val, new_act = apply_qmax_rule(mode, cur_val, cur_act, q_new_raw, action)
        if (new_val, new_act) != (cur_val, cur_act):
            self.qmax.write(state, new_val)
            self.qmax_action.write(state, new_act)
            return True
        return False

    def writeback_now(self, state: int, action: int, q_new_raw: int) -> None:
        """Unclocked write-back (functional-simulator path), identical
        update semantics."""
        if self._ecc:
            # The read-modify-write below reads raw array words; decode
            # them first or a latent upset would be compared against and
            # then re-encoded as a valid (but wrong) codeword.
            self.qmax.scrub_word(state)
            self.qmax_action.scrub_word(state)
        self.q.write_now(self.pair_addr(state, action), q_new_raw)
        mode = self.config.qmax_mode
        if mode == "exact":
            if self._ecc:
                base = self.pair_addr(state, 0)
                for a in range(self.num_actions):
                    self.q.scrub_word(base + a)
            row = self.row_q(state).copy()
            row[action] = q_new_raw
            best = int(np.argmax(row))
            self.qmax.write_now(state, int(row[best]))
            self.qmax_action.write_now(state, best)
            return
        cur_val = int(self.qmax.data[state])
        cur_act = int(self.qmax_action.data[state])
        new_val, new_act = apply_qmax_rule(mode, cur_val, cur_act, q_new_raw, action)
        if (new_val, new_act) != (cur_val, cur_act):
            self.qmax.write_now(state, new_val)
            self.qmax_action.write_now(state, new_act)

    def commit(self) -> int:
        """Clock edge for all staged table writes; returns collisions."""
        collisions = self.q.commit()
        collisions += self.qmax.commit()
        self.qmax_action.commit()
        for ram in self.extra_rams.values():
            collisions += ram.commit()
        return collisions

    def sync_target(self) -> None:
        """Hard target sync: copy the whole online Q table into the
        target table (``target_sync_period`` expiry).  Stored codewords
        are copied verbatim under ECC, so a latent upset in Q propagates
        exactly as a bulk BRAM copy would."""
        target = self.extra_rams["target"]
        target.data[:] = self.q.data
        if self._ecc:
            target.check[:] = self.q.check

    # ------------------------------------------------------------------ #
    # Bulk views (metrics / functional simulator)
    # ------------------------------------------------------------------ #

    def row_q(self, state: int) -> np.ndarray:
        """Raw Q row for one state (a view, not a copy)."""
        base = state * self.num_actions if not self._pow2_actions else state << self.action_bits
        return self.q.data[base : base + self.num_actions]

    def q_raw_matrix(self) -> np.ndarray:
        """Raw Q values as an ``(S, A)`` array (copy)."""
        return self.q.data.reshape(self.num_states, self.num_actions).copy()

    def q_float_matrix(self) -> np.ndarray:
        """Q values as floats, ``(S, A)``."""
        return ops.to_float_array(self.q_raw_matrix(), self.config.q_format)

    def qmax_invariant_holds(self) -> bool:
        """Check ``Qmax[s] >= max_a Q[s, a]`` for all states (always true
        for monotonic mode when Q and Qmax start equal; tested)."""
        rows = self.q.data.reshape(self.num_states, self.num_actions)
        return bool(np.all(self.qmax.data >= rows.max(axis=1)))

    def state_dict(self) -> dict:
        """Checkpoint of all architectural table state."""
        return {ram.name: ram.state_dict() for ram in self._all_rams()}

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` checkpoint in place."""
        for ram in self._all_rams():
            ram.load_state_dict(state[ram.name])

    def telemetry_snapshot(self) -> dict:
        """Per-RAM access counters, keyed by table name.

        The paper's memory-traffic claim is visible here: reads/writes
        scale with retirements, not with ``|A|``, because the
        read-for-max path is served by the Qmax table.
        """
        return {ram.name: ram.telemetry_snapshot() for ram in self._all_rams()}

    def bram_blocks(self, *, include_qmax_action: bool | None = None) -> int:
        """Block-granular BRAM total, the Fig. 4 resource quantity.

        The Qmax *action* array is needed by e-greedy update policies
        (SARSA) and by the target rule (its bootstrap indexes the target
        table at the cached online argmax); Q-Learning's greedy update
        consumes the value alone.  Update-rule extra tables
        (momentum/target) always count.
        """
        if include_qmax_action is None:
            include_qmax_action = (
                self.config.update_policy == "egreedy"
                or self.config.rule.kind == "target"
            )
        total = self.q.blocks + self.rewards.blocks + self.qmax.blocks
        if include_qmax_action:
            total += self.qmax_action.blocks
        for ram in self.extra_rams.values():
            total += ram.blocks
        return total
