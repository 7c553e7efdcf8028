"""Deliberately lying components: one live SPEC rule violation per class.

A library component's spec is the object it was built from, so the only
declarations that can lie are the ones the spec does not generate: an
index hash the implementation computes by hand (SPEC003) and the batch
replay hook (SPEC006).  Each class subclasses a shipped component and
lies in exactly one of those ways, so the analysis tests can assert each
rule fires, and fires alone, on a committed fixture.  They are never
part of the shipped library.
"""

import dataclasses

from repro.components.bimodal import HBIM
from repro.components.tournament import Tourney
from repro.spec import IndexFn


class WrongIndex(Tourney):
    """SPEC003: declares a pc index while the chooser indexes by ghist.

    The tournament chooser computes its row by hand, so a lying
    ``IndexFn`` leaves the implementation as it is.  On a spec-derived
    table (HBIM) the declared ``IndexFn`` *is* the row computation, so
    the same lie would re-wire the table and SPEC003 could not fire.
    """

    def _build_spec(self):
        honest = super()._build_spec()
        table = honest.tables[0]
        lie = IndexFn(
            "pc",
            table.index.index_bits,
            key=table.index.key,
            fetch_width=table.index.fetch_width,
        )
        return dataclasses.replace(
            honest,
            tables=(dataclasses.replace(table, index=lie),),
        )


class UnwaivedClosedForm(HBIM):
    """SPEC006: closed-form and engine-drivable, no kernel, no waiver."""

    def __init__(self, name, latency):
        super().__init__(
            name, latency, n_sets=1024, index="gshare", history_bits=16
        )

    def columnar_kernel(self):
        return None


#: rule code -> the fixture class built to trip exactly that rule.
SPEC_VIOLATIONS = {
    "SPEC003": WrongIndex,
    "SPEC006": UnwaivedClosedForm,
}
