"""FPGA device catalog.

Three parts matter to the paper:

* **xcvu13p** — the Xilinx UltraScale+ device all headline results use
  (§VI-A): 94.5 Mb of BRAM (2688 RAMB36), 360 Mb of URAM (1280 blocks,
  the §VI-C2 "10 million state-action pairs" headroom), 12288 DSPs.
* **xc7vx690t** — the Virtex-7 device used for the like-for-like
  comparison with Da Silva et al. [11] (§VI-F).
* **xc6vlx240t** — the Virtex-6 device [11] itself reports on.

Counts are from the vendor product tables; only the totals matter to the
utilisation-percentage model.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..rtl.memory import BRAM36, URAM288


@dataclass(frozen=True)
class FpgaPart:
    """Resource totals of one FPGA device."""

    name: str
    bram36: int
    uram: int
    dsp: int
    luts: int
    ffs: int
    #: Achievable pipeline clock for this design family when the device is
    #: nearly empty (MHz); the starting point of the timing model.
    base_clock_mhz: float

    @property
    def bram_bits(self) -> int:
        return self.bram36 * BRAM36.capacity_bits

    @property
    def uram_bits(self) -> int:
        return self.uram * URAM288.capacity_bits


#: Xilinx Virtex UltraScale+ VU13P (the paper's evaluation device).
XCVU13P = FpgaPart(
    name="xcvu13p",
    bram36=2688,
    uram=1280,
    dsp=12288,
    luts=1_728_000,
    ffs=3_456_000,
    base_clock_mhz=189.0,
)

#: Xilinx Virtex-7 690T (the §VI-F comparison device).
XC7VX690T = FpgaPart(
    name="xc7vx690t",
    bram36=1470,
    uram=0,
    dsp=3600,
    luts=433_200,
    ffs=866_400,
    base_clock_mhz=180.0,
)

#: Xilinx Virtex-6 LX240T (the device of baseline [11]).
XC6VLX240T = FpgaPart(
    name="xc6vlx240t",
    bram36=416,
    uram=0,
    dsp=768,
    luts=150_720,
    ffs=301_440,
    base_clock_mhz=150.0,
)

PARTS: dict[str, FpgaPart] = {p.name: p for p in (XCVU13P, XC7VX690T, XC6VLX240T)}
