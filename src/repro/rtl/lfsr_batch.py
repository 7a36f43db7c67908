"""Vectorised banks of Galois LFSRs.

The vectorized fleet backend (:mod:`repro.backends.vectorized`) steps
one LFSR *per agent* per draw.  Doing that through K Python objects
would dominate the runtime, so this module keeps K registers of the same
polynomial in one int64 numpy array and steps them with three vector
ops.  A masked step advances only the selected lanes — needed because an
agent only consumes a draw when its per-sample condition (episode
restart, explore, ...) holds, and lane k's stream must stay bit-exact
with a scalar :class:`repro.rtl.lfsr.Lfsr` stepped the same number of
times (asserted by the test suite).
"""

from __future__ import annotations

import numpy as np

from .lfsr import MAXIMAL_TAPS, Lfsr, taps_to_mask

#: Cached numpy leap tables keyed by (mask, distance), shared by banks.
_LEAP_TABLES_NP: dict[tuple[int, int], np.ndarray] = {}


class LfsrBank:
    """K parallel Galois LFSRs of one polynomial, stepped vectorised.

    All draw/step methods mutate ``states`` **in place** through two
    preallocated scratch vectors: the hot loop of the vectorized fleet
    backend allocates nothing per step.  :meth:`over` builds a bank on
    existing registers (a fleet's lane-state block) that it keeps
    advancing in place.  Scratch is sized lazily on the first draw.
    """

    __slots__ = ("width", "mask", "states", "_t1", "_t2")

    def __init__(self, width: int, seeds, taps: tuple[int, ...] | None = None):
        if taps is None:
            if width not in MAXIMAL_TAPS:
                raise ValueError(f"no maximal tap table for width {width}")
            taps = MAXIMAL_TAPS[width]
        self.width = width
        self.mask = np.int64(taps_to_mask(width, taps))
        seeds = np.asarray(seeds, dtype=np.int64) & ((1 << width) - 1)
        seeds = np.where(seeds == 0, 1, seeds)
        self.states = seeds.copy()
        self._t1 = None
        self._t2 = None

    @classmethod
    def over(cls, width: int, states: np.ndarray) -> "LfsrBank":
        """A bank stepping ``states`` in place: a writable int64 array of
        registers already seeded (non-zero, ``width`` bits)."""
        bank = cls(width, ())
        bank.states = states
        return bank

    def _scratch(self) -> tuple[np.ndarray, np.ndarray]:
        """The two scratch vectors, (re)allocated to match ``states``."""
        t1 = self._t1
        if t1 is None or t1.shape != self.states.shape:
            self._t1 = t1 = np.empty_like(self.states)
            self._t2 = np.empty_like(self.states)
        return t1, self._t2

    @property
    def lanes(self) -> int:
        return int(self.states.size)

    def step_all(self) -> np.ndarray:
        """Advance every lane one clock; returns the new states."""
        s = self.states
        t, _ = self._scratch()
        np.bitwise_and(s, 1, out=t)
        np.multiply(t, self.mask, out=t)
        np.right_shift(s, 1, out=s)
        np.bitwise_xor(s, t, out=s)
        return s

    def step_where(self, mask: np.ndarray) -> np.ndarray:
        """Advance only lanes where ``mask`` is True.

        Returns the *current* states (advanced lanes show their new
        value, held lanes their old one), matching "draw if needed".
        """
        s = self.states
        t, nxt = self._scratch()
        np.bitwise_and(s, 1, out=t)
        np.multiply(t, self.mask, out=t)
        np.right_shift(s, 1, out=nxt)
        np.bitwise_xor(nxt, t, out=nxt)
        np.copyto(s, nxt, where=mask)
        return s

    def _leap_table_np(self, d: int) -> np.ndarray:
        """The (mask, d) leap table as an int64 array, cached."""
        key = (int(self.mask), d)
        table = _LEAP_TABLES_NP.get(key)
        if table is None:
            scalar = Lfsr(self.width, seed=1)
            scalar.mask = int(self.mask)
            table = np.asarray(scalar._leap_table(d), dtype=np.int64)
            _LEAP_TABLES_NP[key] = table
        return table

    def draw_all(self, decimation: int) -> np.ndarray:
        """One decimated draw per lane (the vectorised twin of
        :meth:`repro.rtl.rng.UniformSource.bits`): a single leap-forward
        table gather instead of ``decimation`` shift rounds."""
        table = self._leap_table_np(decimation)
        s = self.states
        t, _ = self._scratch()
        np.bitwise_and(s, (1 << decimation) - 1, out=t)
        np.take(table, t, out=t)  # mode='raise' buffers, so t may alias
        np.right_shift(s, decimation, out=s)
        np.bitwise_xor(s, t, out=s)
        return s

    def draw_where(self, mask: np.ndarray, decimation: int) -> np.ndarray:
        """Decimated draw on selected lanes; held lanes keep their state."""
        table = self._leap_table_np(decimation)
        s = self.states
        t, nxt = self._scratch()
        np.bitwise_and(s, (1 << decimation) - 1, out=t)
        np.take(table, t, out=t)
        np.right_shift(s, decimation, out=nxt)
        np.bitwise_xor(nxt, t, out=nxt)
        np.copyto(s, nxt, where=mask)
        return s

    def below(self, m: int, decimation: int = 1) -> np.ndarray:
        """Draw all lanes and reduce into ``[0, m)`` (the scalar
        :meth:`repro.rtl.rng.UniformSource.below` rule, vectorised)."""
        s = self.draw_all(decimation)
        if m & (m - 1) == 0:
            return s & (m - 1)
        return s % m

    def lane(self, k: int) -> Lfsr:
        """A scalar LFSR continuing lane ``k``'s stream (for tests)."""
        return Lfsr(self.width, seed=int(self.states[k]))
