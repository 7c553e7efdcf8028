"""Area estimation for predictors and the surrounding core (Figs. 8-9)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.core.composer import ComposedPredictor
from repro.core.interface import StorageReport
from repro.synthesis.sram import SramMacroModel

#: Fixed areas of the non-predictor core blocks of a 4-wide BOOM-class core
#: in the model's arbitrary-but-consistent um^2 (Fig. 9 analogue).  The
#: paper locates the critical paths in the issue units and shows even the
#: TAGE-L predictor is a small slice of the core; these values embed that
#: calibration.
CORE_BLOCKS_UM2: Dict[str, float] = {
    "icache (32KB)": 72_000.0,
    "dcache (32KB)": 78_000.0,
    "fetch (other)": 24_000.0,
    "decode/rename": 52_000.0,
    "issue units": 135_000.0,
    "regfiles": 95_000.0,
    "int exec (4x ALU)": 58_000.0,
    "fp exec (2x FPU)": 142_000.0,
    "load-store unit": 88_000.0,
    "rob": 66_000.0,
    "tlbs": 30_000.0,
}


@dataclass
class AreaModel:
    """Bits-to-area conversion with per-structure overheads.

    ``flop_um2_per_bit`` is much larger than the SRAM density — the reason
    the fully-associative uBTB must stay small.  ``logic_per_component``
    approximates the comparators/muxing each sub-component contributes, and
    ``logic_per_meta_bit`` the history-file write/read datapath per
    metadata bit.
    """

    sram: SramMacroModel = field(default_factory=SramMacroModel)
    flop_um2_per_bit: float = 2.1
    logic_per_component_um2: float = 1_500.0
    logic_per_meta_bit_um2: float = 9.0

    def report_area(self, report: StorageReport, dual_port: bool = False) -> float:
        return (
            self.sram.array_area(report.sram_bits, dual_port)
            + report.flop_bits * self.flop_um2_per_bit
        )

    # ------------------------------------------------------------------
    def predictor_breakdown(self, predictor: ComposedPredictor) -> Dict[str, float]:
        """Per-structure area of a composed predictor (Fig. 8 analogue).

        The ``meta`` entry covers the generated management structures:
        history file, history providers, and the per-component metadata
        datapath.
        """
        reports = predictor.storage_reports()
        breakdown: Dict[str, float] = {}
        for name, report in reports.items():
            area = self.report_area(report)
            area += self.logic_per_component_um2
            if name == "meta":
                meta_bits = sum(c.meta_bits for c in predictor.components)
                area += meta_bits * self.logic_per_meta_bit_um2
            breakdown[name] = area
        return breakdown

    def predictor_total(self, predictor: ComposedPredictor) -> float:
        return sum(self.predictor_breakdown(predictor).values())

    # ------------------------------------------------------------------
    def core_breakdown(self, predictor: ComposedPredictor) -> Dict[str, float]:
        """Whole-core area with this predictor attached (Fig. 9 analogue)."""
        breakdown = dict(CORE_BLOCKS_UM2)
        breakdown["branch predictor"] = self.predictor_total(predictor)
        return breakdown

    def core_total(self, predictor: ComposedPredictor) -> float:
        return sum(self.core_breakdown(predictor).values())

    def predictor_fraction(self, predictor: ComposedPredictor) -> float:
        """Fraction of core area spent on the predictor."""
        return self.predictor_total(predictor) / self.core_total(predictor)
