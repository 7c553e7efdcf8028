"""Spec-derived table runtime: storage executed from a :class:`TableSpec`.

A :class:`DerivedTable` is the phase-2 counterpart of the declarative
spec layer: where :mod:`repro.spec` *describes* a storage structure and
the SPEC analyzer *verifies* the description against a hand
implementation, a ``DerivedTable`` *is* the implementation — allocation,
row selection, closed-form update application, and storage accounting
are all executed from the :class:`~repro.spec.TableSpec`, so they cannot
drift from it.

What the runtime covers:

- **Allocation**: one numpy array per :class:`~repro.spec.FieldSpec`,
  shaped ``(ways, entries)`` for multi-way tables and ``(entries,)``
  otherwise, with a trailing lane axis when ``count > 1`` (one lane per
  fetch slot).  Dtypes follow the field width: 1-bit fields are boolean,
  fields up to 8 bits are ``uint8``, wider fields are ``int64``.
- **Row selection**: :meth:`row` evaluates the table's declared
  :meth:`IndexFn.closed_form <repro.spec.IndexFn.closed_form>`, resolved
  once per table;
  :meth:`way_of` applies the library's way-selection hash.
- **Closed-form updates**: :meth:`train` applies the
  ``saturating-counter`` rule (inc/dec with bounds), :meth:`roll` the
  ``shift-register`` rule.  Both write through to the arrays, so scalar
  components delegate their ``on_update`` bodies here.
- **Entry packing**: :meth:`pack_entry` / :meth:`unpack_entry` assemble
  a row's fields into one LSB-first integer — the payload layout the RTL
  emitter (:mod:`repro.derive.rtl`) gives the memory array.
- **Storage accounting**: :func:`derived_storage` builds a component's
  :class:`~repro.core.interface.StorageReport` from its spec, correct by
  construction.

Update rules outside :data:`~repro.spec.CLOSED_FORM_UPDATES`
(``allocate-on-miss``, ``exact-event``) have no closed form; components
keep those event paths hand-written but still store their state in the
derived arrays, so storage and geometry stay spec-owned.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro._util import hash_pc, id_bits, mask, saturating_update, shift_in
from repro.core.interface import StorageReport
from repro.spec import ComponentSpec, FieldSpec, TableSpec


def field_dtype(field: FieldSpec) -> type:
    """Numpy dtype for one spec field: bool / uint8 / int64 by width."""
    if field.bits == 1:
        return np.bool_
    if field.bits <= 8:
        return np.uint8
    return np.int64


def field_shape(table: TableSpec, field: FieldSpec) -> Tuple[int, ...]:
    """Canonical array shape for ``field`` inside ``table``."""
    shape: Tuple[int, ...] = (
        (table.ways, table.entries) if table.ways > 1 else (table.entries,)
    )
    if field.count > 1:
        shape = shape + (field.count,)
    return shape


def _row_function(spec: TableSpec):
    """The function :meth:`DerivedTable.row` calls for ``spec``.

    The declared index's :meth:`IndexFn.closed_form`, resolved to its
    scheme once per table, because row selection runs on every scalar
    lookup and update; for a table without a closed form, one that
    refuses.
    """
    index = spec.index
    row = index.closed_form() if index is not None else None
    if row is not None:
        return row
    scheme = index.scheme if index is not None else None

    def no_row(fetch_pc, ghist=0, lhist=0, phist=0):
        raise ValueError(
            f"table {spec.name!r} declares scheme {scheme!r}: no closed-form row"
        )

    return no_row


class DerivedTable:
    """Runtime storage structure generated from a :class:`TableSpec`."""

    def __init__(
        self, spec: TableSpec, init: Optional[Mapping[str, int]] = None
    ):
        self.spec = spec
        init = init or {}
        self._fields: Dict[str, FieldSpec] = {f.name: f for f in spec.fields}
        self._arrays: Dict[str, np.ndarray] = {}
        for field in spec.fields:
            value = init.get(field.name, 0)
            self._arrays[field.name] = np.full(
                field_shape(spec, field), value, dtype=field_dtype(field)
            )
        # Hot-path constants: train()/roll()/row() sit on the scalar
        # per-branch update path, so resolve what the spec implies once.
        self._sole_field = (
            spec.fields[0].name if len(spec.fields) == 1 else None
        )
        self._sole_bits = spec.fields[0].bits
        self._multiway = spec.ways > 1
        self._is_counter = spec.update == "saturating-counter"
        #: ``row(fetch_pc, ghist=0, lhist=0, phist=0)``: the row the
        #: spec's :class:`IndexFn` closed form selects, called directly.
        self.row = _row_function(spec)

    # -- array access --------------------------------------------------
    def _only_field(self) -> str:
        if len(self._fields) != 1:
            raise KeyError(
                f"table {self.spec.name!r} has {len(self._fields)} fields; "
                f"name one explicitly"
            )
        return next(iter(self._fields))

    def data(self, field: Optional[str] = None) -> np.ndarray:
        """The raw array for ``field`` in its canonical shape."""
        return self._arrays[field or self._only_field()]

    def lanes(self, field: Optional[str] = None) -> np.ndarray:
        """2-D ``(entries, count)`` view of a single-way laned field."""
        arr = self.data(field)
        if self.spec.ways > 1:
            raise ValueError(
                f"table {self.spec.name!r} is multi-way; lanes() is for "
                f"per-packet laned tables"
            )
        return arr.reshape(self.spec.entries, -1)

    def flat(self, field: Optional[str] = None) -> np.ndarray:
        """1-D ``(ways * entries,)`` view (row-major by way)."""
        return self.data(field).reshape(-1)

    # -- row selection -------------------------------------------------
    def way_of(self, branch_pc: int) -> int:
        """Way-selection hash for multi-way tables (identity for 1 way)."""
        ways = self.spec.ways
        return hash_pc(branch_pc, id_bits(ways)) % ways

    # -- closed-form updates -------------------------------------------
    def _cell(self, field: str, row: int, way: int, lane: Optional[int]):
        arr = self._arrays[field]
        if self._multiway:
            key = (way, row) if lane is None else (way, row, lane)
        else:
            key = row if lane is None else (row, lane)
        return arr, key

    def train(
        self,
        row: int,
        taken: bool,
        *,
        field: Optional[str] = None,
        lane: Optional[int] = None,
        way: int = 0,
        counter: Optional[int] = None,
    ) -> int:
        """Apply the ``saturating-counter`` rule to one cell.

        ``counter`` is the predict-time value carried in the metadata
        (§III-D: updates avoid a second read port); when omitted the
        current cell is read instead.
        """
        if not self._is_counter:
            raise ValueError(
                f"table {self.spec.name!r} declares update "
                f"{self.spec.update!r}, not saturating-counter"
            )
        if field is None and self._sole_field is not None:
            name, bits = self._sole_field, self._sole_bits
        else:
            name = field or self._only_field()
            bits = self._fields[name].bits
        arr, key = self._cell(name, row, way, lane)
        if counter is None:
            counter = int(arr[key])
        value = saturating_update(counter, taken, bits)
        arr[key] = value
        return value

    def roll(
        self,
        row: int,
        taken: bool,
        *,
        field: Optional[str] = None,
        lane: Optional[int] = None,
        way: int = 0,
        current: Optional[int] = None,
    ) -> int:
        """Apply the ``shift-register`` rule (shift in one outcome bit).

        Declared shift-register tables and hand-written ``exact-event``
        protocols (which re-shift from metadata on repair) both use this
        closed form; ``current`` overrides the cell read for the latter.
        """
        if field is None and self._sole_field is not None:
            name, bits = self._sole_field, self._sole_bits
        else:
            name = field or self._only_field()
            bits = self._fields[name].bits
        arr, key = self._cell(name, row, way, lane)
        if current is None:
            current = int(arr[key])
        value = shift_in(current, taken, bits)
        arr[key] = value
        return value

    # -- entry packing -------------------------------------------------
    @property
    def entry_bits(self) -> int:
        return self.spec.entry_bits

    def pack_entry(self, row: int, way: int = 0) -> int:
        """One row's fields packed LSB-first, lane-major within a field."""
        packed = 0
        shift = 0
        for field in self.spec.fields:
            arr, key = self._cell(field.name, row, way, None)
            values = np.atleast_1d(arr[key])
            for value in values:
                packed |= (int(value) & mask(field.bits)) << shift
                shift += field.bits
        return packed

    def unpack_entry(self, packed: int) -> Dict[str, object]:
        """Inverse of :meth:`pack_entry` (lists for ``count > 1``)."""
        out: Dict[str, object] = {}
        shift = 0
        for field in self.spec.fields:
            values = []
            for _ in range(field.count):
                values.append((packed >> shift) & mask(field.bits))
                shift += field.bits
            out[field.name] = values if field.count > 1 else values[0]
        return out

    @property
    def storage_bits(self) -> int:
        return self.spec.total_bits


def _read_bits(table: TableSpec) -> int:
    """Bits one prediction reads from ``table`` (see :func:`derived_storage`)."""
    if table.index is not None and table.index.scheme == "none":
        return table.total_bits
    if table.kind == "flop":
        return 0
    return table.ways * table.entry_bits


def derived_storage(
    name: str,
    spec: ComponentSpec,
    *,
    access_bits: Optional[int] = None,
    zero_keys: Tuple[str, ...] = (),
) -> StorageReport:
    """A component's :class:`StorageReport`, correct by construction.

    Totals and breakdown come from :meth:`ComponentSpec.storage_report`.
    ``access_bits`` (bits read per prediction, the energy model's unit)
    defaults to what each table reads: an indexed SRAM table reads one
    row across all its ways, a CAM (index scheme ``"none"``) matches
    every entry, and indexed flop state (e.g. replacement pointers) is
    not read.  ``zero_keys`` adds zero-bit breakdown entries for
    structures a variant elides (e.g. the two-level G variants' level-1
    table) so breakdown keys stay stable across variants.
    """
    report = spec.storage_report(name)
    breakdown = dict(report.breakdown)
    for key in zero_keys:
        breakdown.setdefault(key, 0)
    if access_bits is None:
        access_bits = sum(_read_bits(table) for table in spec.tables)
    return StorageReport(
        name,
        sram_bits=report.sram_bits,
        flop_bits=report.flop_bits,
        breakdown=breakdown,
        access_bits=access_bits,
    )
