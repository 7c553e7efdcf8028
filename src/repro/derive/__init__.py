"""Spec-derived execution: tables, kernels, and RTL generated from specs.

Phase 2 of the declarative spec layer (:mod:`repro.spec`).  PR 8 made
every component *declare* its table geometry, index closed forms, and
update-rule classes, and verified the declarations against the hand
implementations (the SPEC rules).  This package *executes* the
declarations, so one spec drives every layer that used to be hand-kept
in sync:

- :mod:`repro.derive.tables` — the :class:`DerivedTable` scalar runtime:
  allocation, ``IndexFn``-backed row selection, closed-form update
  application, field packing, and storage accounting, all from a
  :class:`~repro.spec.TableSpec`.
- :mod:`repro.derive.kernels` — generated columnar kernels
  parameterizing the :mod:`repro.kernels.vector_ops` primitives from the
  spec (replacing the hand-written HBIM/two-level/GTag kernel classes).
- :mod:`repro.derive.rtl` — per-table Verilog modules (memory array,
  index hash, update port) consumed by :mod:`repro.rtl.verilog`.
- :mod:`repro.derive.reference` — frozen pre-refactor scalar
  implementations: the oracle side of analyzer rule SPEC009 and the
  fuzzer's ``derive`` leg, keeping the migration differentially gated.
- :mod:`repro.derive.coverage` — the CI gate asserting the migrated
  families actually route through this package.

Components in the migrated families hold their state in
``component.derived_tables`` (a dict of table name →
:class:`DerivedTable`); custom-hash components (TAGE, ITTAGE, loop, BTB)
keep hand-written walks but consume the same spec-first API.
"""

from repro.derive.coverage import (
    DERIVED_BASES,
    assert_derived_coverage,
    derivation_problems,
    kernel_is_derived,
)
from repro.derive.kernels import derived_kernel
from repro.derive.reference import twin_dims, twin_pair
from repro.derive.tables import DerivedTable, derived_storage

__all__ = [
    "DERIVED_BASES",
    "DerivedTable",
    "assert_derived_coverage",
    "derivation_problems",
    "derived_kernel",
    "derived_storage",
    "kernel_is_derived",
    "twin_dims",
    "twin_pair",
]
