"""HBIM: bimodal counter tables with parameterized indexing (§III-G1).

A superscalar counter table: each row holds ``fetch_width`` saturating
counters, so adjacent branches within one fetch packet read distinct
counters instead of aliasing onto a single entry (§III-C).  The metadata
field stores the counter values read at predict time so the table is not
re-read at update time (§III-D).

The table itself is spec-derived: the :class:`~repro.spec.ComponentSpec`
built at construction is the single source of truth, and allocation, row
selection (``_index``), the saturating-counter update, storage
accounting, and the columnar kernel all execute from it through
:mod:`repro.derive`.  Only the prediction semantics (``lookup``) stay
hand-written.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro._util import counter_taken, log2_exact
from repro.components.base import IndexScheme, SpecComponent
from repro.core.events import PredictRequest, UpdateBundle
from repro.core.prediction import PredictionVector
from repro.derive.tables import DerivedTable
from repro.spec import ComponentSpec, FieldSpec, TableSpec

_new_tuple = tuple.__new__


class HBIM(SpecComponent):
    """History/PC-indexed bimodal counter table.

    Parameters
    ----------
    n_sets:
        Number of rows (power of two).  Total counters = ``n_sets *
        fetch_width``.
    index:
        Index scheme name; see :class:`~repro.components.base.IndexScheme`.
    history_bits:
        History length consumed by history-based index schemes.
    counter_bits:
        Width of each saturating counter (2 for classic bimodal).
    """

    def __init__(
        self,
        name: str,
        latency: int = 2,
        n_sets: int = 2048,
        fetch_width: int = 4,
        index: str = "pc",
        history_bits: int = 0,
        counter_bits: int = 2,
    ):
        self._scheme = IndexScheme(index, log2_exact(n_sets), history_bits)
        self.n_sets = n_sets
        self.fetch_width = fetch_width
        self.counter_bits = counter_bits
        super().__init__(name, latency, self._build_spec())
        # Initialize weakly not-taken.
        self._weak_nt = (1 << (counter_bits - 1)) - 1
        self._counters = DerivedTable(
            self.spec.tables[0], init={"ctr": self._weak_nt}
        )
        self.derived_tables = {"counters": self._counters}
        # Legacy-shaped view of the derived array (rows x lanes).
        self._table = self._counters.lanes("ctr")

    # ------------------------------------------------------------------
    def _index(self, req_pc: int, ghist: int, lhist: int, phist: int = 0) -> int:
        return self._counters.row(req_pc, ghist, lhist, phist)

    def lookup(
        self, req: PredictRequest, predict_in: Sequence[PredictionVector]
    ) -> Tuple[PredictionVector, int]:
        fetch_pc = req.fetch_pc
        row = self._table[
            self._counters.row(fetch_pc, req.ghist, req.lhist, req.phist)
        ].tolist()
        predicted = predict_in[0]
        bits = self.counter_bits
        # An untagged table provides a base direction for every slot; it
        # does not know branch locations or targets, so those fields pass
        # through from predict_in (§III-F).
        slots = tuple(
            [
                slot.with_direction(
                    slot.taken if slot.is_jump else counter_taken(counter, bits)
                )
                for slot, counter in zip(
                    predicted.slots, row[fetch_pc % self.fetch_width :]
                )
            ]
        )
        out = _new_tuple(PredictionVector, (predicted.fetch_pc, slots))
        # A one-lane metadata field is a scalar, so a scalar
        # (fetch_width=1) pipeline hands over the bare counter.
        return out, (row if self.fetch_width > 1 else row[0],)

    # ------------------------------------------------------------------
    def on_update(self, bundle: UpdateBundle) -> None:
        """Commit-time update of every resolved conditional branch slot."""
        if not any(bundle.br_mask):
            return
        (counters,) = bundle.meta
        if self.fetch_width == 1:
            counters = [counters]
        table = self._counters
        index = table.row(bundle.fetch_pc, bundle.ghist, bundle.lhist, bundle.phist)
        offset = bundle.fetch_pc % self.fetch_width
        laned = self.fetch_width > 1
        for slot_idx, is_branch in enumerate(bundle.br_mask):
            if not is_branch:
                continue
            lane = offset + slot_idx
            # Closed-form train from the predict-time counter value carried
            # in the metadata, avoiding a second read port (§III-D).
            table.train(
                index,
                bundle.taken_mask[slot_idx],
                lane=lane if laned else None,
                counter=counters[lane],
            )

    # ------------------------------------------------------------------
    def columnar_kernel(self):
        # Local- and path-history schemes read providers the columnar
        # engine does not model; they have no vectorized index, so the
        # generator returns None for them.
        from repro.derive.kernels import derived_kernel

        return derived_kernel(self)

    def _build_spec(self) -> ComponentSpec:
        scheme = self._scheme
        counters = FieldSpec("ctr", self.counter_bits, self.fetch_width)
        return ComponentSpec(
            component=type(self).__name__,
            tables=(
                TableSpec(
                    "counters",
                    entries=self.n_sets,
                    fields=(counters,),
                    update="saturating-counter",
                    index=scheme.index_fn("packet", self.fetch_width),
                    probe=lambda c, pc, g, l, p: c._index(pc, g, l, p),
                ),
            ),
            meta_fields=(counters,),
            ghist_bits=scheme.history_bits if scheme.uses_global_history else 0,
            lhist_bits=scheme.history_bits if scheme.uses_local_history else 0,
            phist_bits=scheme.history_bits if scheme.uses_path_history else 0,
        )

    # Exposed for tests.
    def counter_at(self, index: int, lane: int) -> int:
        return int(self._table[index, lane])
