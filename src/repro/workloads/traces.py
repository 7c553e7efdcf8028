"""Branch-trace capture and replay (the CBP/ChampSim-style substrate).

The software simulators the paper contrasts against (§II-B) consume branch
*traces*: per-branch records of (pc, type, taken, target).  This module
captures such traces from the interpreter, stores them compactly (npz), and
characterizes them — and, since schema 2, stores enough to *replay* them
through a composed predictor with no interpreter in the loop
(:mod:`repro.backends.replay`):

- ``entry_pc`` plus the control-flow records fully determine the
  architectural PC stream (non-CFI instructions advance the PC by one, and
  ``targets`` stores ``next_pc`` for not-taken branches too);
- ``slot_kinds``/``slot_targets`` are per-static-PC pre-decode tables, so
  replay rebuilds fetch packets identical to what
  :func:`~repro.core.prediction.predecode_slot` derives from the program
  image.

Schema-1 files still load (``characterize`` works); only replay requires
the schema-2 columns.
"""

from __future__ import annotations

import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.core.prediction import predecode_slot
from repro.isa.interpreter import Interpreter
from repro.isa.program import Program

#: Branch-type codes in the trace format.
TYPE_COND = 0
TYPE_JAL = 1
TYPE_JALR = 2
TYPE_CALL = 3
TYPE_RET = 4

#: Pre-decode slot-kind codes in the schema-2 static tables.
SLOT_PLAIN = 0
SLOT_COND = 1
SLOT_JAL = 2
SLOT_JAL_CALL = 3
SLOT_JALR = 4
SLOT_JALR_RET = 5

#: Current npz schema.  1: dynamic branch columns only.  2: adds
#: ``entry_pc`` and the static pre-decode tables needed for replay.
TRACE_SCHEMA = 2


@dataclass
class BranchTrace:
    """Columnar trace of every control-flow instruction executed."""

    pcs: np.ndarray      # int64
    types: np.ndarray    # uint8 (TYPE_*)
    taken: np.ndarray    # bool (always True for jumps)
    targets: np.ndarray  # int64 (next_pc, taken or not)
    #: Architectural instruction count of the traced run (for MPKI).
    instruction_count: int = 0
    #: Entry PC of the traced program (schema 2; replay starts here).
    entry_pc: int = 0
    #: Per-static-PC pre-decode kind (SLOT_*), uint8; None for schema-1
    #: files, which cannot be replayed.
    slot_kinds: Optional[np.ndarray] = None
    #: Per-static-PC direct target, int64, -1 when none.
    slot_targets: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        # A short column would silently truncate replay and characterize.
        for names in (
            ("pcs", "types", "taken", "targets"),
            ("slot_kinds", "slot_targets"),
        ):
            lengths = {
                name: len(getattr(self, name))
                for name in names
                if getattr(self, name) is not None
            }
            if len(set(lengths.values())) > 1:
                raise ValueError(
                    "trace columns differ in length: "
                    + ", ".join(f"{name}={n}" for name, n in lengths.items())
                )

    def __len__(self) -> int:
        return len(self.pcs)

    @property
    def replayable(self) -> bool:
        """Whether this trace carries the schema-2 replay columns."""
        return self.slot_kinds is not None and self.slot_targets is not None

    # ------------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> None:
        payload = dict(
            pcs=self.pcs,
            types=self.types,
            taken=self.taken,
            targets=self.targets,
            instruction_count=np.int64(self.instruction_count),
        )
        if self.replayable:
            payload.update(
                schema=np.int64(TRACE_SCHEMA),
                entry_pc=np.int64(self.entry_pc),
                slot_kinds=self.slot_kinds,
                slot_targets=self.slot_targets,
            )
        np.savez_compressed(Path(path), **payload)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "BranchTrace":
        try:
            with np.load(Path(path)) as data:
                has_replay = "slot_kinds" in data.files
                columns = dict(
                    pcs=data["pcs"],
                    types=data["types"],
                    taken=data["taken"],
                    targets=data["targets"],
                    instruction_count=int(data["instruction_count"]),
                    entry_pc=int(data["entry_pc"]) if has_replay else 0,
                    slot_kinds=data["slot_kinds"] if has_replay else None,
                    slot_targets=data["slot_targets"] if has_replay else None,
                )
        except (zipfile.BadZipFile, zlib.error, KeyError, EOFError, ValueError) as exc:
            raise ValueError(f"unreadable trace {path}: {exc}") from exc
        return cls(**columns)

    # ------------------------------------------------------------------
    def characterize(self) -> Dict[str, float]:
        """Workload branch-character summary (the per-benchmark table)."""
        cond = self.types == TYPE_COND
        n_cond = int(cond.sum())
        stats: Dict[str, float] = {
            "branches": float(len(self)),
            "cond_branches": float(n_cond),
            "branch_density": len(self) / max(1, self.instruction_count),
            "taken_rate": float(self.taken[cond].mean()) if n_cond else 0.0,
            "indirect_share": float((self.types == TYPE_JALR).mean()) if len(self) else 0.0,
            "call_ret_share": float(
                np.isin(self.types, (TYPE_CALL, TYPE_RET)).mean()
            ) if len(self) else 0.0,
        }
        # Per-site outcome entropy proxy: share of conditional branch sites
        # with mixed outcomes (the "hard branch" population).
        sites: Dict[int, list] = {}
        for pc, t, tk in zip(self.pcs[cond], self.types[cond], self.taken[cond]):
            sites.setdefault(int(pc), []).append(bool(tk))
        mixed = sum(1 for v in sites.values() if 0 < sum(v) < len(v))
        stats["static_cond_sites"] = float(len(sites))
        stats["mixed_site_share"] = mixed / max(1, len(sites))
        return stats


def _slot_tables(program: Program) -> Tuple[np.ndarray, np.ndarray]:
    """Static pre-decode tables over the program image (schema 2)."""
    n = len(program.instructions)
    kinds = np.zeros(n, dtype=np.uint8)
    targets = np.full(n, -1, dtype=np.int64)
    for pc, instr in enumerate(program.instructions):
        slot = predecode_slot(instr)
        if slot.is_cond_branch:
            kinds[pc] = SLOT_COND
        elif slot.is_jal:
            kinds[pc] = SLOT_JAL_CALL if slot.is_call else SLOT_JAL
        elif slot.is_jalr:
            kinds[pc] = SLOT_JALR_RET if slot.is_ret else SLOT_JALR
        if slot.direct_target is not None:
            targets[pc] = slot.direct_target
    return kinds, targets


#: Trace type code of each slot kind (``SLOT_PLAIN`` never indexes it).
_TYPE_OF_SLOT = np.array(
    [0, TYPE_COND, TYPE_JAL, TYPE_CALL, TYPE_JALR, TYPE_RET], dtype=np.uint8
)


def capture_trace(program: Program, max_instructions: int = 5_000_000) -> BranchTrace:
    """Execute ``program`` and record every control-flow transfer.

    Records are classified through the static slot-kind table, built once
    per program: the per-record loop only filters control-flow PCs, and the
    type and jump-taken columns are derived from it afterwards.
    """
    slot_kinds, slot_targets = _slot_tables(program)
    is_cfi = (slot_kinds != SLOT_PLAIN).tolist()
    pcs, taken, targets = [], [], []
    record = None
    for record in Interpreter(program).run(max_instructions):
        pc = record.pc
        if is_cfi[pc]:
            pcs.append(pc)
            taken.append(record.taken)
            targets.append(record.next_pc)
    pcs_col = np.asarray(pcs, dtype=np.int64)
    types = _TYPE_OF_SLOT[slot_kinds[pcs_col]]
    return BranchTrace(
        pcs=pcs_col,
        types=types,
        # Jumps are always taken; a conditional branch's record says.
        taken=np.asarray(taken, dtype=bool) | (types != TYPE_COND),
        targets=np.asarray(targets, dtype=np.int64),
        instruction_count=0 if record is None else record.seq + 1,
        entry_pc=program.entry,
        slot_kinds=slot_kinds,
        slot_targets=slot_targets,
    )
