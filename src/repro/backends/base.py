"""Shared surface of the fleet backends.

A *fleet backend* runs ``n_lanes`` independent QTAccel learners — one
Q/Qmax table set, one LFSR triple and one architectural latch set per
lane — behind one lane-oriented interface.  Three implementations exist:

* :class:`~repro.backends.vectorized.VectorizedFleetBackend` — the
  array program: every per-sample quantity is a length-``n_lanes``
  numpy vector and the 4-multiplier update rule is applied lane-parallel
  per lock-step step (the software analogue of the paper's Fig. 9
  replicated pipelines);
* :class:`~repro.backends.scalar.ScalarFleetBackend` — a pure-Python
  loop of per-lane :class:`~repro.core.functional.FunctionalSimulator`
  instances (Da Silva-style "no batching"), kept as the reference
  baseline the throughput benches compare against;
* :class:`~repro.backends.sharded.ShardedFleetBackend` — the
  vectorized array program partitioned into contiguous lane shards,
  one ``multiprocessing`` worker per shard over shared-memory state
  (the multi-core analogue of replicating whole accelerators).

All are **bit-identical per lane** to a scalar functional simulator
seeded with the same salt — draws, lag semantics, Qmax rules and
fixed-point arithmetic included (asserted by the test suite) — so the
backend choice is purely a throughput decision.

This module owns what the implementations share: the fleet-environment
normalisation/validation, the :class:`BatchStats` counters, the
:class:`FleetBackend` protocol, and the name registry behind
``BatchIndependentSimulator(..., backend=...)`` and
:func:`repro.core.engine.make_engine`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

import numpy as np

from ..core.runstats import RunStatsContract
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


#: Alias under the fleet vocabulary; ``BatchStats`` stays the canonical
#: name (checkpoints serialise its field dict).
FleetStats = BatchStats


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
    shape = (fleet[0].num_states, fleet[0].num_actions)
    if any((m.num_states, m.num_actions) != shape for m in fleet):
        raise ValueError("all agent worlds must share (|S|, |A|)")
    n_starts = len(fleet[0].start_states)
    if any(len(m.start_states) != n_starts for m in fleet):
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


def _is_index(v) -> bool:
    """An integer scalar that is not a bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


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
    if not _is_index(k) or not 0 <= k < fleet.K:
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


def fleet_backends() -> dict[str, type]:
    """Name -> class registry of the known fleet backends.

    Registration is unconditional — constructing ``"native"`` on a host
    with no compiled kernel tier raises a typed
    :class:`~repro.backends.native.NativeBackendUnavailableError`; use
    :func:`fleet_backend_availability` to probe without constructing.
    """
    from .native import NativeFleetBackend
    from .scalar import ScalarFleetBackend
    from .sharded import ShardedFleetBackend
    from .vectorized import VectorizedFleetBackend

    return {
        "vectorized": VectorizedFleetBackend,
        "scalar": ScalarFleetBackend,
        "sharded": ShardedFleetBackend,
        "native": NativeFleetBackend,
    }


def fleet_backend_availability() -> dict[str, dict]:
    """Per-backend availability report, ``name -> {available, detail}``.

    The pure-Python/numpy backends are always available; ``"native"``
    needs a system C compiler to build its fused kernel.
    """
    from .native import native_available

    report = {
        name: {"available": True, "detail": ""}
        for name in ("vectorized", "scalar", "sharded")
    }
    ok, detail = native_available()
    report["native"] = {"available": ok, "detail": detail}
    return report


def resolve_fleet_backend(name: str) -> type:
    """Look one backend class up by name, with a helpful error."""
    registry = fleet_backends()
    try:
        return registry[name]
    except KeyError:
        raise ValueError(
            f"unknown fleet backend {name!r}; choose one of {sorted(registry)}"
        ) from None


def make_fleet_backend(
    mdps: "DenseMdp | Sequence[DenseMdp]",
    config: "QTAccelConfig",
    *,
    backend: str = "vectorized",
    num_agents: int | None = None,
    salts: Sequence[int] | None = None,
    telemetry=None,
    **kw,
) -> FleetBackend:
    """Construct a fleet backend by name (the functional entry point).

    Extra keyword arguments forward to the chosen backend's constructor
    — e.g. ``num_workers=`` for ``"sharded"`` — matching the batch
    facade and ``make_engine``.
    """
    cls = resolve_fleet_backend(backend)
    return cls(
        mdps, config, num_agents=num_agents, salts=salts, telemetry=telemetry, **kw
    )
