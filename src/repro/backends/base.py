"""Shared surface of the fleet backends.

A *fleet backend* runs ``n_lanes`` independent QTAccel learners — one
Q/Qmax table set, one LFSR triple and one architectural latch set per
lane — behind one lane-oriented interface.  Four implementations exist:

* :class:`~repro.backends.vectorized.VectorizedFleetBackend` — the
  numpy array program: every per-sample quantity is a length-``n_lanes``
  vector and the 4-multiplier update rule is applied lane-parallel per
  lock-step step (the software analogue of the paper's Fig. 9
  replicated pipelines);
* :class:`~repro.backends.native.NativeFleetBackend` — the same program
  fused into one compiled C pass (lane-outer, step-inner) over the
  vectorized backend's arrays, for ``run`` and batched lane ops;
* :class:`~repro.backends.scalar.ScalarFleetBackend` — a pure-Python
  loop of per-lane :class:`~repro.core.functional.FunctionalSimulator`
  instances (Da Silva-style "no batching"), kept as the reference
  baseline the throughput benches compare against;
* :class:`~repro.backends.sharded.ShardedFleetBackend` — contiguous lane
  shards over shared-memory state, one ``multiprocessing`` worker per
  shard (the multi-core analogue of replicating whole accelerators);
  workers and parent run the native program when a C compiler builds
  it, else the vectorized one.

All are **bit-identical per lane** to a scalar functional simulator
seeded with the same salt — draws, lag semantics, Qmax rules and
fixed-point arithmetic included (asserted by the test suite) — so the
backend choice is purely a throughput decision.

This module owns what the implementations share: the fleet-environment
normalisation/validation, the :class:`BatchStats` counters, the
:class:`LaneLayout` every array backend keeps its lane state in and the
:class:`FleetBackend` protocol.  Engines are named and built by
:func:`repro.core.engine.make_engine` alone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

import numpy as np

from ..core.runstats import RunStatsContract
from ..core.tables import is_index
from ..envs.base import DenseMdp
from ..fixedpoint import ops

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.config import QTAccelConfig


@dataclass
class BatchStats(RunStatsContract):
    """Aggregate counters of a fleet run (any backend)."""

    agents: int = 0
    samples_per_agent: int = 0
    episodes: int = 0
    exploits: int = 0
    explores: int = 0

    @property
    def samples(self) -> int:
        """Total updates retired across the fleet (the shared contract)."""
        return self.agents * self.samples_per_agent


@dataclass(frozen=True)
class FleetSpec:
    """Validated, normalised fleet construction inputs."""

    mdps: tuple[DenseMdp, ...]
    homogeneous: bool
    salts: np.ndarray  # (n_lanes,) int64

    @property
    def n_lanes(self) -> int:
        return len(self.mdps)

    @property
    def num_states(self) -> int:
        return self.mdps[0].num_states

    @property
    def num_actions(self) -> int:
        return self.mdps[0].num_actions


def normalize_fleet(
    mdps: "DenseMdp | Sequence[DenseMdp]",
    *,
    n_lanes: int | None = None,
    salts: Sequence[int] | None = None,
) -> FleetSpec:
    """Validate fleet inputs into a :class:`FleetSpec`.

    Accepts either one shared world (requires ``n_lanes``) or a sequence
    of same-shaped worlds (one per lane).  ``salts`` defaults to
    ``range(n_lanes)`` — lane ``k`` then matches a scalar simulator built
    with ``PolicyDraws.from_config(config, salt=k)``.
    """
    if isinstance(mdps, DenseMdp):
        if n_lanes is None:
            raise ValueError("num_agents is required with a single shared world")
        fleet = (mdps,) * n_lanes
        homogeneous = True
    else:
        fleet = tuple(mdps)
        if n_lanes is not None and n_lanes != len(fleet):
            raise ValueError("num_agents contradicts the mdps list")
        homogeneous = False
    if not fleet:
        raise ValueError("need at least one agent")
    k = len(fleet)
    # One shared world agrees with itself: only a list is checked lane by lane.
    worlds = fleet[:1] if homogeneous else fleet
    shape = (fleet[0].num_states, fleet[0].num_actions)
    if any((m.num_states, m.num_actions) != shape for m in worlds):
        raise ValueError("all agent worlds must share (|S|, |A|)")
    n_starts = len(fleet[0].start_states)
    if any(len(m.start_states) != n_starts for m in worlds):
        raise ValueError(
            "all agent worlds must have equally many start states "
            "(the start draw reduces modulo that count)"
        )
    if salts is None:
        salts = range(k)
    salt_arr = np.asarray(list(salts), dtype=np.int64)
    if salt_arr.size != k:
        raise ValueError("need one salt per agent")
    return FleetSpec(mdps=fleet, homogeneous=homogeneous, salts=salt_arr)


_U64 = np.uint64


def check_lane(fleet, k) -> None:
    """:class:`IndexError` unless ``k`` is a lane index ``0..K-1`` (an
    integer, not a bool): the check every lane op (``query_action``,
    ``reset_lane``, ``lane_state``, ``load_lane_state``, ``q_float``)
    makes before touching the lane."""
    if not is_index(k) or not 0 <= k < fleet.K:
        raise IndexError(f"lane {k!r} out of range 0..{fleet.K - 1}")


def check_query(fleet, k, state) -> None:
    """Validate the lane and state of a ``query_action`` before it draws:
    :class:`IndexError` for a lane outside ``0..K-1`` and
    :class:`ValueError` for a state outside ``[0, S)``, non-integers and
    bools included, so a bad query consumes no policy word."""
    check_lane(fleet, k)
    if not is_index(state) or not 0 <= state < fleet.S:
        raise ValueError(f"state {state!r} out of range [0, {fleet.S})")


def checkpoint_field(payload, key: str, name: str | None = None):
    """``payload[key]``, or a :class:`ValueError` naming the field
    (``name``, default ``key``) when ``payload`` lacks it or is not a
    mapping: how every backend rejects a checkpoint or lane payload built
    by a backend of another kind before writing anything."""
    try:
        return payload[key]
    except (KeyError, TypeError, IndexError):
        raise ValueError(f"checkpoint field {name or key!r}: missing") from None


#: The LFSR banks in payload order, with the offset each register seeds
#: from: lane-state field ``lfsr_<b>`` is payload entry ``["lfsr"][b]``.
LFSR_STREAMS = (("start", 0x11), ("action", 0x22), ("policy", 0x33))

#: int64 words per 64-byte line: every lane-state field starts on one.
_LINE_WORDS = 8


class LaneLayout:
    """The one description of a ``k``-lane fleet's lane state: int64
    fields of one block, each starting on a 64-byte line.

    ``tables`` lists ``(attribute, checkpoint key, per-lane shape,
    initial value)`` of every table and latch under ``config``, the
    update rule's extra tables last; the LFSR registers ``lfsr_<bank>``
    follow.  ``shapes`` and ``offsets`` give every field's per-lane shape
    and first word; ``words`` is the block's length.  Every fleet program
    is built on :meth:`views` of such a block and never leaves it.
    """

    def __init__(self, k: int, S: int, A: int, config: "QTAccelConfig"):
        q_init = config.q_format.quantize(config.q_init)
        tables = [
            ("q", "q", (S * A,), q_init),
            ("qmax", "qmax", (S,), q_init),
            ("qmax_action", "qmax_action", (S,), 0),
            ("_arch_state", "arch_state", (), -1),
            ("_forwarded", "forwarded", (), -1),
            # Lag view of the most recent write (SARSA restart reads).
            ("_prev_pair", "prev_pair", (), -1),
            ("_prev_state", "prev_state", (), -1),
            ("_prev_q", "prev_q", (), 0),
            ("_prev_qmax", "prev_qmax", (), 0),
            ("_prev_qmax_action", "prev_qmax_action", (), 0),
        ]
        kind = config.rule.kind
        if kind == "momentum":
            tables.append(("momentum", "momentum", (S * A,), q_init))
        elif kind == "target":
            tables.append(("target", "target", (S * A,), q_init))
            tables.append(("_target_count", "target_count", (), 0))
        self.tables = tuple(tables)
        self.shapes = {key: shape for _, key, shape, _ in tables}
        self.shapes.update((f"lfsr_{b}", ()) for b, _ in LFSR_STREAMS)
        self.offsets: dict[str, int] = {}
        self.words = 0
        for key, shape in self.shapes.items():
            self.offsets[key] = self.words
            self.words += -(-k * int(np.prod(shape)) // _LINE_WORDS) * _LINE_WORDS
        self.k = k
        self._seed, self._lfsr_width = config.seed, config.lfsr_width

    def allocate(self) -> dict[str, np.ndarray]:
        """:meth:`views` of a new zero-filled, line-aligned block: one
        allocation, whose zero pages a large block maps lazily."""
        block = np.zeros(self.words + _LINE_WORDS, dtype=np.int64)
        return self.views(block, (-block.ctypes.data // 8) % _LINE_WORDS)

    def views(self, buf, base: int = 0) -> dict[str, np.ndarray]:
        """``(k, *shape)`` views of every field of the block starting at
        int64 word ``base`` of ``buf``."""
        return {
            key: np.ndarray(
                (self.k, *shape), np.int64, buffer=buf, offset=(base + self.offsets[key]) * 8
            )
            for key, shape in self.shapes.items()
        }

    def seed(self, views: dict, salts) -> None:
        """Seed zero-filled rows as fresh lanes, one per salt: the
        non-zero initial values, and the LFSR registers exactly as
        ``PolicyDraws.from_config(config, salt=...)`` seeds them."""
        for _, key, _, init in self.tables:
            if init:
                views[key].fill(init)
        base = np.asarray(salts, dtype=np.int64) * 0x9E37 + self._seed
        for b, off in LFSR_STREAMS:
            regs = views["lfsr_" + b]
            np.bitwise_and(base + off, (1 << self._lfsr_width) - 1, out=regs)
            np.maximum(regs, 1, out=regs)  # the scalar Lfsr's zero-seed remap

    def copy_rows(self, dst: dict, src: dict, lo: int, hi: int) -> None:
        """Copy rows ``[lo, hi)`` of every field from ``src`` to ``dst``."""
        for key in self.shapes:
            np.copyto(dst[key][lo:hi], src[key][lo:hi])

    def capture_table(self, live: dict, shadow: dict, lo: int, hi: int) -> np.ndarray:
        """The kernel's capture table (see
        :meth:`~repro.backends.native.NativeFleetBackend.set_capture`)
        copying rows ``[lo, hi)`` of ``live`` into ``shadow``, indexed
        from row ``lo`` as a program on those rows indexes its lanes."""
        table = [len(self.shapes)]
        for key, shape in self.shapes.items():
            table += [
                live[key][lo:hi].ctypes.data,
                shadow[key][lo:hi].ctypes.data,
                int(np.prod(shape)),
            ]
        return np.array(table, dtype=np.int64)

    # The payload nests the LFSR registers in an ``lfsr`` dict; these
    # three are the only code that maps it to and from the fields.

    @staticmethod
    def label(key: str) -> str:
        """Field ``key``'s payload name (``lfsr.start`` for ``lfsr_start``)."""
        return "lfsr." + key[5:] if key.startswith("lfsr_") else key

    def unpack(self, payload) -> dict:
        """A checkpoint or lane payload's value of every field, by key; a
        missing one raises :class:`ValueError` naming it."""
        values = {}
        for key in self.shapes:
            if key.startswith("lfsr_"):
                banks = checkpoint_field(payload, "lfsr")
                values[key] = checkpoint_field(banks, key[5:], self.label(key))
            else:
                values[key] = checkpoint_field(payload, key)
        return values

    def pack(self, values: dict) -> dict:
        """The payload of ``values`` (by field key); a lane's LFSR
        registers become Python ints."""
        payload = {key: values[key] for _, key, _, _ in self.tables}
        lfsr = payload["lfsr"] = {}
        for b, _ in LFSR_STREAMS:
            regs = values["lfsr_" + b]
            lfsr[b] = regs if regs.ndim else int(regs)
        return payload


@functools.lru_cache(maxsize=16)
def _index_bounds(S: int, A: int) -> np.ndarray:
    """Exclusive upper bounds of the state, next-state and action rows."""
    bounds = np.array((S, S, A), dtype=_U64)[:, None]
    bounds.flags.writeable = False
    return bounds


def lane_transitions(
    fleet,
    k,
    state,
    action,
    reward,
    next_state,
    terminal=False,
    *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Validate and quantise the transitions of one ``apply_transition``.

    Each of ``state``, ``action``, ``reward``, ``next_state`` and
    ``terminal`` is a scalar or a 1-D column; columns share one length and
    scalars broadcast along it.  Returns a C-contiguous ``(5, n)`` int64
    array whose rows are ``state, next_state, action, terminal,
    reward_raw`` — the reward quantised into ``fleet.config.q_format`` —
    laid out at the start of the flat buffer ``out`` when it has room.
    Raises :class:`ValueError` for a lane outside ``0..K-1``, a
    non-integer or out-of-range state or action, a non-finite reward or
    mismatched column lengths; every backend calls this before applying
    any row, so a bad batch changes nothing.
    """
    S, A = fleet.S, fleet.A
    if (
        type(k) is int and 0 <= k < fleet.K
        and type(state) is int and 0 <= state < S
        and type(next_state) is int and 0 <= next_state < S
        and type(action) is int and 0 <= action < A
        and type(terminal) is bool and type(reward) is float
    ):
        # One valid transition of Python scalars (the interactive path);
        # anything else takes the general path, which names the problem.
        rows = _rows_in(out, 1)
        rows[:, 0] = (state, next_state, action, terminal, fleet.config.q_format.quantize(reward))
        return rows
    if not is_index(k) or not 0 <= k < fleet.K:
        raise ValueError(f"lane {k!r} out of range 0..{fleet.K - 1}")
    names = ("state", "next_state", "action", "terminal", "reward")
    cols = [np.asarray(x) for x in (state, next_state, action, terminal)]
    cols.append(np.asarray(reward, dtype=np.float64))
    lengths = {len(c) for c in cols if c.ndim == 1}
    if len(lengths) > 1 or any(c.ndim > 1 for c in cols):
        shapes = {name: c.shape for name, c in zip(names, cols)}
        raise ValueError(f"transition columns must be scalars or equal-length 1-D: {shapes}")
    for name, c in zip(names[:4], cols):
        if c.size and c.dtype.kind not in ("biu" if name == "terminal" else "iu"):
            raise ValueError(f"{name} must be integers, got dtype {c.dtype}")
    rows = _rows_in(out, lengths.pop() if lengths else 1)
    for j in range(4):
        rows[j] = cols[j]
    # Viewed unsigned, a negative index is huge: one compare checks both ends.
    bad = rows[:3].view(_U64) >= _index_bounds(S, A)
    if bad.any():
        j, i = (int(x) for x in np.argwhere(bad)[0])
        raise ValueError(
            f"{names[j]} {int(rows[j, i])} out of range [0, {(S, S, A)[j]}) "
            f"in transition {i}"
        )
    rows[4] = ops.quantize_array(cols[4], fleet.config.q_format)
    return rows


def _rows_in(out: np.ndarray | None, n: int) -> np.ndarray:
    """A contiguous ``(5, n)`` int64 block: the head of ``out`` when it
    has room, else a fresh array."""
    if out is not None and out.size >= 5 * n:
        return out[: 5 * n].reshape(5, n)
    return np.empty((5, n), dtype=np.int64)


@runtime_checkable
class FleetBackend(Protocol):
    """The lane-oriented interface every fleet backend implements.

    Attribute vocabulary (kept from the original batch engine so lane
    adapters like :class:`repro.robustness.checkpoint.BatchLanes` work
    on either backend): ``K`` lanes over ``S`` states x ``A`` actions,
    with ``q``/``qmax``/``qmax_action`` exposed as stacked per-lane
    arrays of shape ``(K, S*A)`` / ``(K, S)`` / ``(K, S)``.

    Update rules (:mod:`repro.algorithms`): every backend honours
    ``config.update_rule`` uniformly — the accelerated rules' extra
    per-lane tables (momentum iterate, Polyak target) are allocated,
    stepped, checkpointed in :meth:`state_dict`/:meth:`lane_state`, and
    reset by :meth:`reset_lane` exactly like the Q table, and every
    backend stays bit-identical per lane to a scalar functional
    simulator built with the same config and salt.  Rule selection
    errors are typed (:class:`repro.algorithms.UnknownUpdateRuleError`,
    :class:`repro.algorithms.IncompatibleRuleError`) and raised at
    :class:`~repro.core.config.QTAccelConfig` construction, before any
    backend is built; combinations a specific engine cannot honour
    raise :class:`repro.algorithms.UnsupportedRuleError` from its
    constructor (e.g. the cycle-accurate pipeline with a hard
    ``target_sync_period`` — a wholesale table copy has no single-cycle
    implementation).
    """

    K: int
    S: int
    A: int
    config: "QTAccelConfig"
    stats: BatchStats

    def step(self) -> None: ...

    def run(self, samples_per_agent: int) -> BatchStats: ...

    def state_dict(self) -> dict: ...

    def load_state_dict(self, state: dict) -> None: ...

    def lane_state(self, k: int, state: dict | None = None) -> dict: ...

    def load_lane_state(self, k: int, lane: dict) -> None: ...

    def q_float(self, agent: int) -> np.ndarray: ...

    def q_float_all(self) -> np.ndarray: ...

    def telemetry_snapshot(self) -> dict: ...

    # Lane leasing — the ``repro.serve`` surface.  A *leased* lane is
    # driven by externally supplied transitions instead of the built-in
    # environment tables: ``reset_lane`` re-seeds lane ``k`` to the
    # pristine state of a fresh lane with the given salt,
    # ``apply_transition`` retires client-supplied ``(s, a, r, s')``
    # samples — one, or equal-length columns of them, validated by
    # :func:`lane_transitions` before any is applied — through stages
    # 2-4 (one policy draw per row for e-greedy update policies, none for
    # greedy) and returns the last written Q, and ``query_action``
    # recommends an action from the committed tables (consuming one
    # policy draw only when ``explore=True``).  All three are
    # bit-identical across backends for the same salt and call sequence.

    def reset_lane(self, k: int, salt: int) -> None: ...

    def apply_transition(
        self,
        k: int,
        state,
        action,
        reward,
        next_state,
        terminal=False,
    ) -> int: ...

    def query_action(self, k: int, state: int, explore: bool = True) -> int: ...
