"""Two-level adaptive predictors [Yeh & Patt 1991] — library extension.

The foundational §II-A citation: a first-level *history register table*
(one shift register per branch set, or one global register) indexes a
second-level *pattern history table* of saturating counters.  The four
classic organizations come from the two choices:

============  =====================  ======================
variant       level-1 history        level-2 pattern table
============  =====================  ======================
``GAg``       one global register    one global table
``GAp``       one global register    per-branch-set tables
``PAg``       per-branch registers   one global table
``PAp``       per-branch registers   per-branch-set tables
============  =====================  ======================

Unlike the `HBIM` local variant (which consumes the composer's local
history provider), this component owns its level-1 table internally and
keeps it consistent using the event protocol: histories advance
speculatively at ``fire`` time and are restored from metadata on ``repair``
and ``mispredict`` — the same discipline the loop predictor follows, which
is exactly why the paper's interface carries metadata to those events.

Both levels are spec-derived (:mod:`repro.derive`): storage lives in
:class:`~repro.derive.tables.DerivedTable` arrays, the level-1 row hash
and the G variants' raw-history level-2 row come from the declared
:class:`~repro.spec.IndexFn` closed forms, pattern training and the
history shifts apply the declared update rules, and the G variants'
columnar kernel is generated.  The speculative fire/repair protocol (an
``exact-event`` rule) and the P variants' level-2 index (``custom``, fed
from their own level-1 registers) stay hand-written hooks.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro._util import counter_taken, id_bits, log2_exact, mask
from repro.components.base import SpecComponent
from repro.core.events import PredictRequest, UpdateBundle
from repro.core.interface import InterfaceError, StorageReport
from repro.core.prediction import PredictionVector
from repro.derive.tables import DerivedTable, derived_storage
from repro.spec import ComponentSpec, FieldSpec, IndexFn, TableSpec

VARIANTS = ("GAg", "GAp", "PAg", "PAp")


class TwoLevel(SpecComponent):
    """Yeh-Patt two-level adaptive predictor (one prediction per packet).

    Tracks one branch per fetch packet (the first branch slot identified by
    ``predict_in``), like the other single-candidate components (§III-C).
    """

    def __init__(
        self,
        name: str,
        latency: int = 3,
        variant: str = "PAg",
        fetch_width: int = 4,
        history_bits: int = 10,
        l1_entries: int = 256,
        l2_sets_per_table: int = 1024,
        l2_tables: int = 16,
        counter_bits: int = 2,
    ):
        if variant not in VARIANTS:
            raise InterfaceError(
                f"{name}: unknown two-level variant {variant!r}; "
                f"choose from {VARIANTS}"
            )
        if (1 << history_bits) > l2_sets_per_table:
            raise InterfaceError(
                f"{name}: pattern table ({l2_sets_per_table} sets) cannot "
                f"index {history_bits} history bits"
            )
        self.variant = variant
        self.fetch_width = fetch_width
        self.history_bits = history_bits
        self.counter_bits = counter_bits
        self.l1_entries = l1_entries
        self._l1_index_bits = log2_exact(l1_entries)
        self.l2_tables = l2_tables if variant.endswith("p") else 1
        self.l2_sets = l2_sets_per_table
        self._l2_index_bits = log2_exact(l2_sets_per_table)
        super().__init__(name, latency, self._build_spec())
        self._weak_nt = (1 << (counter_bits - 1)) - 1
        # Level 1: per-branch history registers.  The G variants read the
        # composer's single global register instead, so their level-1 spec
        # table is elided — but the array is still allocated (zero bits of
        # declared storage, zero-filled) to keep the state layout uniform.
        self._l1_table = DerivedTable(self._l1_table_spec())
        # Level 2: pattern tables.
        self._l2_table = DerivedTable(
            self.spec.tables[-1], init={"ctr": self._weak_nt}
        )
        self.derived_tables = {
            "l1_histories": self._l1_table,
            "l2_patterns": self._l2_table,
        }
        self._l1 = self._l1_table.data("hist")
        # Legacy-shaped 2-D view (tables x sets), also when l2_tables == 1.
        self._l2 = self._l2_table.data("ctr").reshape(
            self.l2_tables, self.l2_sets
        )

    # ------------------------------------------------------------------
    def _l1_index(self, branch_pc: int) -> int:
        return self._l1_table.row(branch_pc)

    def _level1_history(self, branch_pc: int, ghist: int) -> int:
        if self.variant.startswith("G"):
            return ghist & mask(self.history_bits)
        return int(self._l1[self._l1_index(branch_pc)]) & mask(self.history_bits)

    def _l2_slot(self, branch_pc: int, history: int) -> Tuple[int, int]:
        # Way selection is the derived runtime's hash; the row is the
        # level-1 history's low index bits (the G variants' declared
        # ghist_raw closed form; a custom hook for the P variants, whose
        # history comes from their own registers).
        table = self._l2_table.way_of(branch_pc)
        index = history & mask(self._l2_index_bits)
        return table, index

    # ------------------------------------------------------------------
    def lookup(
        self, req: PredictRequest, predict_in: Sequence[PredictionVector]
    ) -> Tuple[PredictionVector, int]:
        out = predict_in[0]
        for lane, slot in enumerate(out.slots):
            if not (slot.hit and slot.is_branch):
                continue
            branch_pc = req.fetch_pc + lane
            history = self._level1_history(branch_pc, req.ghist)
            table, index = self._l2_slot(branch_pc, history)
            counter = int(self._l2[table, index])
            taken = counter_taken(counter, self.counter_bits)
            out = out.with_slot(lane, slot.with_direction(taken))
            return out, (1, lane, history, counter)
        return out, (0, 0, 0, 0)

    # ------------------------------------------------------------------
    def _meta(self, bundle: UpdateBundle):
        cand_valid, lane, history, counter = bundle.meta
        if not cand_valid or lane >= len(bundle.br_mask) or not bundle.br_mask[lane]:
            return None
        return lane, history, counter

    def fire(self, bundle: UpdateBundle) -> None:
        """Speculatively advance the per-branch history (P variants)."""
        if self.variant.startswith("G"):
            return  # the composer's global provider handles speculation
        info = self._meta(bundle)
        if info is None:
            return
        lane, _, _ = info
        self._l1_table.roll(
            self._l1_index(bundle.fetch_pc + lane), bundle.taken_mask[lane]
        )

    def on_repair(self, bundle: UpdateBundle) -> None:
        """Restore the misspeculated per-branch history from metadata."""
        if self.variant.startswith("G"):
            return
        info = self._meta(bundle)
        if info is None:
            return
        lane, history, _ = info
        self._l1[self._l1_index(bundle.fetch_pc + lane)] = history

    def on_mispredict(self, bundle: UpdateBundle) -> None:
        """Fast repair: predict-time history plus the corrected outcome."""
        if self.variant.startswith("G"):
            return
        info = self._meta(bundle)
        if info is None:
            return
        lane, history, _ = info
        self._l1_table.roll(
            self._l1_index(bundle.fetch_pc + lane),
            bundle.taken_mask[lane],
            current=history,
        )

    def on_update(self, bundle: UpdateBundle) -> None:
        """Commit-time pattern-table training from the metadata counter."""
        info = self._meta(bundle)
        if info is None:
            return
        lane, history, counter = info
        table, index = self._l2_slot(bundle.fetch_pc + lane, history)
        self._l2_table.train(
            index, bundle.taken_mask[lane], way=table, counter=counter
        )

    # ------------------------------------------------------------------
    def storage(self) -> StorageReport:
        return derived_storage(
            self.name,
            self.spec,
            # One level-1 register read plus one pattern counter read per
            # prediction, for every variant (the G variants read the
            # composer's register, same width).
            access_bits=self.history_bits + self.counter_bits,
            zero_keys=("l1_histories",),
        )

    def columnar_kernel(self):
        # P variants speculatively advance per-branch level-1 registers at
        # fire time on every candidate packet; their pattern table has a
        # ``custom`` index, so the generator returns None for them.
        from repro.derive.kernels import derived_kernel

        return derived_kernel(self)

    def _l1_table_spec(self) -> TableSpec:
        return TableSpec(
            "l1_histories",
            entries=self.l1_entries,
            fields=(FieldSpec("hist", self.history_bits),),
            # Speculative fire/repair shift protocol, not a pure
            # commit-time shift-in.
            update="exact-event",
            index=IndexFn("pc", self._l1_index_bits, key="branch_pc"),
            probe=lambda c, pc, g, l, p: c._l1_index(pc),
        )

    def _build_spec(self) -> ComponentSpec:
        global_l1 = self.variant.startswith("G")
        tables = []
        if not global_l1:
            tables.append(self._l1_table_spec())
        tables.append(
            TableSpec(
                "l2_patterns",
                entries=self.l2_sets,
                ways=self.l2_tables,
                fields=(FieldSpec("ctr", self.counter_bits),),
                update="saturating-counter",
                index=(
                    IndexFn(
                        "ghist_raw",
                        self._l2_index_bits,
                        self.history_bits,
                        key="branch_pc",
                    )
                    if global_l1
                    # P variants index from their own level-1 registers; no
                    # closed form over the architectural stimulus exists.
                    else IndexFn("custom", self._l2_index_bits, self.history_bits)
                ),
                probe=(
                    (
                        lambda c, pc, g, l, p: c._l2_slot(
                            pc, c._level1_history(pc, g)
                        )[1]
                    )
                    if global_l1
                    else None
                ),
            )
        )
        return ComponentSpec(
            component=type(self).__name__,
            tables=tuple(tables),
            meta_fields=(
                FieldSpec("cand_valid", 1),
                FieldSpec("lane", id_bits(self.fetch_width)),
                FieldSpec("hist", self.history_bits),
                FieldSpec("ctr", self.counter_bits),
            ),
            # GAg/GAp read the composer's global history; PAg/PAp own theirs.
            ghist_bits=self.history_bits if global_l1 else 0,
        )
