"""Fixed-point number formats for the QTAccel datapath.

The FPGA datapath of QTAccel stores Q-values, rewards and the learning
coefficients (``alpha``, ``gamma``, their products) as two's-complement
fixed-point words held in BRAM and multiplied on DSP slices.  This module
defines :class:`FxpFormat`, the value-level description of such a word:
total width, number of fractional bits, signedness, plus the quantisation
(rounding) and overflow (saturation/wrap) behaviour used when a real number
is converted into the format.

All raw values are plain Python ``int`` (or integer numpy arrays in
:mod:`repro.fixedpoint.ops`); a raw value ``r`` in format ``(w, f)``
represents the real number ``r * 2**-f``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

Real = Union[int, float]

#: Supported rounding modes for float -> fixed conversion and for
#: right-shifts after multiplication.
ROUNDING_MODES = ("truncate", "nearest")

#: Supported overflow behaviours.
OVERFLOW_MODES = ("saturate", "wrap")


@dataclass(frozen=True)
class FxpFormat:
    """A two's-complement (or unsigned) fixed-point format.

    Parameters
    ----------
    wordlen:
        Total number of bits in the stored word (sign bit included when
        ``signed``).
    frac:
        Number of fractional bits.  May exceed ``wordlen`` (pure-fractional
        formats) or be negative (coarse integer grids); both are valid in
        hardware and supported here.
    signed:
        Whether the word is two's complement (default) or unsigned.
    rounding:
        ``"truncate"`` (floor, the cheap hardware default) or ``"nearest"``
        (round half away from zero, matching a DSP round bit).
    overflow:
        ``"saturate"`` (clamp to the representable range, default) or
        ``"wrap"`` (modular wrap-around, what an unprotected adder does).
    """

    wordlen: int
    frac: int
    signed: bool = True
    rounding: str = "truncate"
    overflow: str = "saturate"

    def __post_init__(self) -> None:
        if self.wordlen < 1:
            raise ValueError(f"wordlen must be >= 1, got {self.wordlen}")
        if self.signed and self.wordlen < 2:
            raise ValueError("signed formats need at least 2 bits")
        if self.rounding not in ROUNDING_MODES:
            raise ValueError(f"unknown rounding mode {self.rounding!r}")
        if self.overflow not in OVERFLOW_MODES:
            raise ValueError(f"unknown overflow mode {self.overflow!r}")

    # ------------------------------------------------------------------ #
    # Range properties
    # ------------------------------------------------------------------ #

    @property
    def int_bits(self) -> int:
        """Bits left of the binary point (sign bit excluded)."""
        return self.wordlen - self.frac - (1 if self.signed else 0)

    @property
    def raw_min(self) -> int:
        """Smallest representable raw integer."""
        return -(1 << (self.wordlen - 1)) if self.signed else 0

    @property
    def raw_max(self) -> int:
        """Largest representable raw integer."""
        if self.signed:
            return (1 << (self.wordlen - 1)) - 1
        return (1 << self.wordlen) - 1

    @property
    def resolution(self) -> float:
        """Value of one least-significant bit."""
        return 2.0 ** (-self.frac)

    @property
    def min_value(self) -> float:
        """Smallest representable real value."""
        return self.raw_min * self.resolution

    @property
    def max_value(self) -> float:
        """Largest representable real value."""
        return self.raw_max * self.resolution

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #

    def clamp_raw(self, raw: int) -> int:
        """Apply this format's overflow behaviour to an out-of-range raw."""
        if self.raw_min <= raw <= self.raw_max:
            return raw
        if self.overflow == "saturate":
            return self.raw_min if raw < self.raw_min else self.raw_max
        # modular wrap into [raw_min, raw_max]
        span = 1 << self.wordlen
        raw &= span - 1
        if self.signed and raw > self.raw_max:
            raw -= span
        return raw

    def quantize(self, value: Real) -> int:
        """Convert a real number to a raw integer in this format."""
        if isinstance(value, float) and (math.isnan(value) or math.isinf(value)):
            raise ValueError(f"cannot quantise non-finite value {value!r}")
        scaled = value * (1 << self.frac) if self.frac >= 0 else value / (1 << -self.frac)
        if isinstance(scaled, float) and math.isinf(scaled):
            # A finite value scaled past the float range: 2**1023 is just
            # as far out of range and, like every such value, wraps to 0.
            scaled = math.copysign(2.0**1023, scaled)
        if self.rounding == "truncate":
            raw = math.floor(scaled)
        else:  # nearest, half away from zero (DSP round bit semantics)
            raw = math.floor(scaled + 0.5) if scaled >= 0 else math.ceil(scaled - 0.5)
        return self.clamp_raw(raw)

    def to_float(self, raw: int) -> float:
        """Interpret a raw integer in this format as a float."""
        return raw * self.resolution

    def rshift_round(self, raw: int, shift: int) -> int:
        """Arithmetic right shift with this format's rounding mode.

        Used to renormalise full-precision products back into the format.
        ``shift`` must be non-negative; ``shift == 0`` is the identity.
        The result is *not* clamped — callers clamp once after the whole
        datapath operation (matching a single saturation stage in hardware).
        """
        if shift < 0:
            raise ValueError("shift must be non-negative")
        if shift == 0:
            return raw
        if self.rounding == "truncate":
            return raw >> shift
        # round half away from zero
        half = 1 << (shift - 1)
        if raw >= 0:
            return (raw + half) >> shift
        return -((-raw + half) >> shift)

    def with_(self, **changes) -> "FxpFormat":
        """Return a copy of the format with some fields replaced."""
        from dataclasses import replace

        return replace(self, **changes)

    def describe(self) -> str:
        """Human-readable Q-format string, e.g. ``s16.6 [-512, 511.98]``."""
        sign = "s" if self.signed else "u"
        return (
            f"{sign}{self.wordlen}.{self.frac} "
            f"[{self.min_value:g}, {self.max_value:g}] lsb={self.resolution:g}"
        )


#: Default storage format for Q-values and rewards: 16-bit signed, 6
#: fractional bits.  Range [-512, 511.98] covers the paper's +/-255 grid
#: world rewards with headroom; 16-bit entries are what calibrates the
#: Fig. 4 BRAM curve (see repro.device.resources).
Q_FORMAT = FxpFormat(wordlen=16, frac=6)

#: Default format for the learning coefficients alpha, gamma, alpha*gamma
#: and (1 - alpha): 18-bit signed with 16 fractional bits, i.e. a DSP48
#: 18-bit operand that represents 1.0 exactly (raw 1 << 16).
COEF_FORMAT = FxpFormat(wordlen=18, frac=16)
