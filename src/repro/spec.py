"""Declarative component specifications (the single source of truth).

Every library component declares a :class:`ComponentSpec`: table
geometries (sets/ways/entry payload fields), indexing functions, history
demands, metadata payload layout, and an update-rule classification per
table.  Library components build it once at construction
(:class:`~repro.components.base.SpecComponent`), which validates it
(:meth:`ComponentSpec.validate`; a malformed spec raises
:class:`~repro.core.interface.InterfaceError`) and keeps it as the
component's ``spec`` attribute.  Their ``MetaCodec``, ``meta_bits``,
``required_*_bits`` and ``storage()`` report are read off that one
object, so they cannot disagree with it.  The SPEC analyzer
(:mod:`repro.analysis.spec_check`) checks what the spec does not
generate: index hashes against observed indexing on seeded probes
(SPEC003), that a component whose tables are closed-form and
engine-drivable advertises a ``columnar_kernel()`` (SPEC006), and that
derived scalar paths match their frozen references (SPEC009).

The spec describes state, not runtime capabilities: whether a component
batch-replays is what its ``columnar_kernel()`` returns, and whether it
is inert on branchless packets is its ``branchless_inert`` class flag
(checked against behaviour by CON008).

The spec layer is also consumed by:

- the CON contract harness, which derives its stimulus dimensions
  (PC width, history widths) from the spec instead of hand-coded
  constants;
- the fuzzer, which draws library sizing parameters from
  :data:`LEGAL_SIZINGS`;
- the kernel generator (:mod:`repro.derive.kernels`), which builds a
  columnar kernel for counter tables indexed by a :data:`VECTOR_SCHEMES`
  hash.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro._util import fold_history, hash_pc, mask
from repro.core.interface import StorageReport

#: Update-rule classes whose commit-time effect is a pure function of the
#: predict-time read and the resolved outcome (no allocation walk, no
#: speculative side state).  Tables restricted to these classes are
#: replayable in closed form by a columnar kernel.
CLOSED_FORM_UPDATES = frozenset({"saturating-counter", "shift-register"})

#: Every recognized update/repair rule class.
UPDATE_RULES = CLOSED_FORM_UPDATES | {"allocate-on-miss", "exact-event"}

#: Index hashes the kernel generator evaluates over trace columns
#: (:func:`repro.derive.kernels.index_columns`).
VECTOR_SCHEMES = frozenset({"pc", "ghist", "gshare", "gselect", "ghist_raw"})

#: Index schemes the columnar engine can drive from trace columns: the
#: vectorized hashes plus ``none`` for fully-associative (CAM) tables.
ENGINE_SCHEMES = VECTOR_SCHEMES | {"none"}

#: All schemes an :class:`IndexFn` may declare.  The first seven mirror
#: :class:`repro.components.base.IndexScheme`; ``ghist_raw`` is an
#: unhashed low-bits history index (two-level G variants), ``none`` marks
#: fully-associative (CAM) tables, and ``custom`` marks hashes with no
#: closed form here — index conformance (SPEC003) is skipped for it.
INDEX_SCHEMES = (
    "pc",
    "ghist",
    "lhist",
    "gshare",
    "gselect",
    "phist",
    "pshare",
    "ghist_raw",
    "none",
    "custom",
)

TABLE_KINDS = ("sram", "flop")


@dataclasses.dataclass(frozen=True)
class FieldSpec:
    """One named bitfield in a table entry or metadata payload.

    ``count > 1`` declares a vector of ``bits``-wide lanes (one per fetch
    slot, usually).
    """

    name: str
    bits: int
    count: int = 1

    @property
    def total_bits(self) -> int:
        return self.bits * self.count


#: Signature of a table's observed-index probe: called with the component
#: instance and a stimulus ``(fetch_pc, ghist, lhist, phist)``, returns
#: the row index the implementation would actually read.
IndexProbe = Callable[[object, int, int, int, int], int]


@dataclasses.dataclass(frozen=True)
class IndexFn:
    """Declarative index hash: scheme + widths + PC key.

    ``key`` selects what feeds the PC hash: ``"packet"`` divides the
    fetch PC down to a fetch-packet number first (superscalar tables),
    ``"branch_pc"`` hashes the raw PC (per-branch tables such as the
    loop predictor).
    """

    scheme: str
    index_bits: int
    history_bits: int = 0
    key: str = "packet"
    fetch_width: int = 1

    def compute(
        self, fetch_pc: int, ghist: int = 0, lhist: int = 0, phist: int = 0
    ) -> Optional[int]:
        """The row this spec says the stimulus indexes (None: no claim)."""
        row = self.closed_form()
        return None if row is None else row(fetch_pc, ghist, lhist, phist)

    def closed_form(self) -> Optional[Callable[..., int]]:
        """This index as a function ``row(fetch_pc, ghist=0, lhist=0, phist=0)``.

        The scheme, key and widths are resolved here, once, so a table
        that selects a row on every scalar lookup and update calls the
        returned function directly (see
        :class:`repro.derive.tables.DerivedTable`).  None for the
        ``"none"`` and ``"custom"`` schemes, which make no claim.
        """
        scheme = self.scheme
        if scheme in ("none", "custom"):
            return None
        width = 1 if self.key == "branch_pc" else self.fetch_width
        bits = self.index_bits
        history_bits = self.history_bits
        if scheme == "ghist_raw":
            keep = mask(history_bits) & mask(bits)

            def row(fetch_pc, ghist=0, lhist=0, phist=0):
                return ghist & keep

        elif scheme == "pc":

            def row(fetch_pc, ghist=0, lhist=0, phist=0):
                return hash_pc(fetch_pc // width, bits)

        elif scheme == "ghist":

            def row(fetch_pc, ghist=0, lhist=0, phist=0):
                return fold_history(ghist, history_bits, bits)

        elif scheme == "gshare":

            def row(fetch_pc, ghist=0, lhist=0, phist=0):
                folded = fold_history(ghist, history_bits, bits)
                return hash_pc(fetch_pc // width, bits) ^ folded

        elif scheme == "gselect":
            hist_part = bits // 2
            pc_part = bits - hist_part
            hist_mask = mask(hist_part)

            def row(fetch_pc, ghist=0, lhist=0, phist=0):
                pc_hash = hash_pc(fetch_pc // width, pc_part)
                return (pc_hash << hist_part) | (ghist & hist_mask)

        elif scheme == "phist":

            def row(fetch_pc, ghist=0, lhist=0, phist=0):
                return fold_history(phist, history_bits, bits)

        elif scheme == "pshare":

            def row(fetch_pc, ghist=0, lhist=0, phist=0):
                folded = fold_history(phist, history_bits, bits)
                return hash_pc(fetch_pc // width, bits) ^ folded

        else:  # "lhist"
            pc_bits = max(bits - 2, 1)

            def row(fetch_pc, ghist=0, lhist=0, phist=0):
                folded = fold_history(lhist, history_bits, bits)
                return folded ^ hash_pc(fetch_pc // width, pc_bits)

        return row

    @property
    def ghist_bits(self) -> int:
        if self.scheme in ("ghist", "gshare", "ghist_raw"):
            return self.history_bits
        if self.scheme == "gselect":
            return self.index_bits // 2
        return 0

    @property
    def lhist_bits(self) -> int:
        return self.history_bits if self.scheme == "lhist" else 0

    @property
    def phist_bits(self) -> int:
        return self.history_bits if self.scheme in ("phist", "pshare") else 0


@dataclasses.dataclass(frozen=True)
class TableSpec:
    """Geometry + indexing + update rule of one storage structure."""

    name: str
    entries: int
    fields: Tuple[FieldSpec, ...]
    ways: int = 1
    kind: str = "sram"
    update: str = "saturating-counter"
    index: Optional[IndexFn] = None
    #: Which :meth:`storage` breakdown keys this table accounts for
    #: (defaults to the table name itself).
    breakdown: Tuple[str, ...] = ()
    #: Observed-index probe for SPEC003; None skips index conformance.
    probe: Optional[IndexProbe] = None

    @property
    def entry_bits(self) -> int:
        return sum(field.total_bits for field in self.fields)

    @property
    def total_bits(self) -> int:
        return self.entries * self.ways * self.entry_bits

    @property
    def breakdown_keys(self) -> Tuple[str, ...]:
        return self.breakdown or (self.name,)


@dataclasses.dataclass(frozen=True)
class ComponentSpec:
    """The full declarative description of one predictor component."""

    component: str
    tables: Tuple[TableSpec, ...]
    meta_fields: Tuple[FieldSpec, ...] = ()
    ghist_bits: int = 0
    lhist_bits: int = 0
    phist_bits: int = 0
    n_inputs: int = 1

    # -- derived totals ------------------------------------------------
    @property
    def sram_bits(self) -> int:
        return sum(t.total_bits for t in self.tables if t.kind == "sram")

    @property
    def flop_bits(self) -> int:
        return sum(t.total_bits for t in self.tables if t.kind == "flop")

    @property
    def total_bits(self) -> int:
        return self.sram_bits + self.flop_bits

    @property
    def meta_bits(self) -> int:
        return sum(field.total_bits for field in self.meta_fields)

    @property
    def closed_form_updates(self) -> bool:
        return all(t.update in CLOSED_FORM_UPDATES for t in self.tables)

    @property
    def engine_drivable(self) -> bool:
        """Could the columnar engine drive this component from columns?"""
        return (
            self.n_inputs == 1
            and self.lhist_bits == 0
            and self.phist_bits == 0
            and self.ghist_bits <= 64
            and all(
                t.index is not None and t.index.scheme in ENGINE_SCHEMES
                for t in self.tables
            )
        )

    def storage_report(self, name: str) -> StorageReport:
        """The :class:`StorageReport` this spec predicts for ``name``."""
        breakdown: Dict[str, int] = {}
        for table in self.tables:
            share, rem = divmod(table.total_bits, len(table.breakdown_keys))
            for i, key in enumerate(table.breakdown_keys):
                breakdown[key] = breakdown.get(key, 0) + share + (rem if i == 0 else 0)
        return StorageReport(
            name,
            sram_bits=self.sram_bits,
            flop_bits=self.flop_bits,
            breakdown=breakdown,
        )

    # -- well-formedness ----------------------------------------------
    def validate(self) -> List[str]:
        """Structural problems with the spec itself; ``SpecComponent``
        refuses to build from a spec that has any."""
        problems: List[str] = []
        if not self.component:
            problems.append("component name is empty")
        if not self.tables:
            problems.append("spec declares no tables")
        seen_tables = set()
        for table in self.tables:
            where = f"table {table.name!r}"
            if table.name in seen_tables:
                problems.append(f"duplicate table name {table.name!r}")
            seen_tables.add(table.name)
            if table.entries <= 0 or table.ways <= 0:
                problems.append(f"{where}: entries and ways must be positive")
            if table.kind not in TABLE_KINDS:
                problems.append(f"{where}: unknown kind {table.kind!r}")
            if table.update not in UPDATE_RULES:
                problems.append(f"{where}: unknown update rule {table.update!r}")
            if not table.fields:
                problems.append(f"{where}: no payload fields")
            for field in table.fields:
                if field.bits <= 0 or field.count <= 0:
                    problems.append(
                        f"{where}: field {field.name!r} bits/count must be positive"
                    )
            if table.index is not None:
                fn = table.index
                if fn.scheme not in INDEX_SCHEMES:
                    problems.append(f"{where}: unknown index scheme {fn.scheme!r}")
                elif fn.scheme not in ("none", "custom"):
                    if fn.index_bits < 0:
                        problems.append(f"{where}: index_bits is negative")
                    if fn.scheme != "pc" and fn.history_bits <= 0 and (
                        fn.scheme != "gselect"
                    ):
                        problems.append(
                            f"{where}: scheme {fn.scheme!r} requires history_bits"
                        )
                if fn.key not in ("packet", "branch_pc"):
                    problems.append(f"{where}: unknown index key {fn.key!r}")
        seen_meta = set()
        for field in self.meta_fields:
            if field.name in seen_meta:
                problems.append(f"duplicate metadata field {field.name!r}")
            seen_meta.add(field.name)
            if field.bits <= 0 or field.count <= 0:
                problems.append(
                    f"metadata field {field.name!r}: bits/count must be positive"
                )
        for bits_name in ("ghist_bits", "lhist_bits", "phist_bits"):
            if getattr(self, bits_name) < 0:
                problems.append(f"{bits_name} is negative")
        if self.n_inputs < 1:
            problems.append("n_inputs must be >= 1")
        return problems


# ---------------------------------------------------------------------------
# Waivers: explicit, reasoned opt-outs from individual SPEC rules.
# ---------------------------------------------------------------------------

_WAIVERS: Dict[Tuple[str, str], str] = {
    # The perceptron's update is a closed-form weight adjustment, but its
    # prediction is a ghist dot product the columnar engine has no lane
    # for; it stays on the scalar path by design (docs/backends.md).
    ("PERCEPTRON", "SPEC006"): (
        "dot-product prediction over ghist has no columnar formulation"
    ),
}


def register_waiver(subject: str, rule: str, reason: str) -> None:
    """Waive ``rule`` for ``subject`` (class name or library base name)."""
    if not reason:
        raise ValueError("a waiver requires a non-empty reason")
    _WAIVERS[(subject.upper(), rule.upper())] = reason


def clear_waiver(subject: str, rule: str) -> None:
    _WAIVERS.pop((subject.upper(), rule.upper()), None)


def waiver_for(subjects: Iterable[str], rule: str) -> Optional[str]:
    """The waiver reason covering any of ``subjects`` for ``rule``."""
    for subject in subjects:
        reason = _WAIVERS.get((subject.upper(), rule.upper()))
        if reason is not None:
            return reason
    return None


# ---------------------------------------------------------------------------
# Spec-declared legal sizing ranges for the standard library.
# ---------------------------------------------------------------------------

#: ``standard_library(**params)`` keyword arguments the fuzzer may vary,
#: with the values the specs declare legal.  Set counts are powers of two
#: (``log2_exact`` enforces this); history lengths stay within the
#: composer's 64-bit global history so TOP006 keeps passing.
LEGAL_SIZINGS: Dict[str, Tuple[int, ...]] = {
    "bim_sets": (1024, 2048, 4096, 8192),
    "gbim_sets": (1024, 2048, 4096),
    "lbim_sets": (128, 256, 512),
    "btb_sets": (128, 256, 512, 1024),
    "btb_ways": (1, 2, 4, 8),
    "ubtb_entries": (16, 32, 64),
    "gtag_sets": (128, 256, 512, 1024),
    "gtag_history_bits": (8, 12, 16, 24),
    "tourney_sets": (64, 128, 256, 512),
    "loop_entries": (64, 128, 256),
    "perceptron_entries": (64, 128, 256, 512),
}
