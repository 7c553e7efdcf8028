"""Deliberately lying component specs: one SPEC rule violation per class.

Each class subclasses the shipped :class:`~repro.components.bimodal.HBIM`
(in its gshare configuration, whose honest spec passes every rule) and
overrides ``spec()`` or ``columnar_kernel()`` to lie in exactly one way,
so the analysis tests can assert each live ``SPEC001``-``SPEC008`` rule
fires — and fires alone — on a committed fixture.  They are never part
of the shipped library.
"""

import dataclasses

from repro.components.bimodal import HBIM
from repro.spec import FieldSpec, IndexFn


class _SpecHBIM(HBIM):
    """A fixed gshare HBIM whose honest spec is clean under the analyzer."""

    def __init__(self, name, latency):
        super().__init__(
            name, latency, n_sets=1024, index="gshare", history_bits=16
        )

    def honest_spec(self):
        return HBIM.spec(self)


class MissingSpec(_SpecHBIM):
    """SPEC001: no spec and no registered waiver."""

    def spec(self):
        return None


class LyingGeometry(_SpecHBIM):
    """SPEC002: the declared counter field is wider than the real table."""

    def spec(self):
        honest = self.honest_spec()
        table = honest.tables[0]
        fat = FieldSpec("ctr", self.counter_bits + 1, self.fetch_width)
        return dataclasses.replace(
            honest,
            tables=(dataclasses.replace(table, fields=(fat,)),),
        )


class WrongIndex(_SpecHBIM):
    """SPEC003: declares a pc index while the implementation uses gshare."""

    def spec(self):
        honest = self.honest_spec()
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


class WrongHistory(_SpecHBIM):
    """SPEC004: declares one more ghist bit than required_ghist_bits."""

    def spec(self):
        honest = self.honest_spec()
        return dataclasses.replace(honest, ghist_bits=honest.ghist_bits + 1)


class WrongMeta(_SpecHBIM):
    """SPEC005: renames the metadata field the MetaCodec calls ``ctr``."""

    def spec(self):
        honest = self.honest_spec()
        renamed = FieldSpec("counter", self.counter_bits, self.fetch_width)
        return dataclasses.replace(honest, meta_fields=(renamed,))


class UnwaivedClosedForm(_SpecHBIM):
    """SPEC006: closed-form and engine-drivable, no kernel, no waiver."""

    def columnar_kernel(self):
        return None


class MalformedSpec(_SpecHBIM):
    """SPEC008: a structurally invalid spec (non-positive field width)."""

    def spec(self):
        honest = self.honest_spec()
        table = honest.tables[0]
        broken = FieldSpec("ctr", -2, self.fetch_width)
        return dataclasses.replace(
            honest,
            tables=(dataclasses.replace(table, fields=(broken,)),),
        )


class CrashingSpec(_SpecHBIM):
    """SPEC008: spec() itself raises."""

    def spec(self):
        raise RuntimeError("spec construction exploded")


#: rule code -> the fixture class built to trip exactly that rule.
SPEC_VIOLATIONS = {
    "SPEC001": MissingSpec,
    "SPEC002": LyingGeometry,
    "SPEC003": WrongIndex,
    "SPEC004": WrongHistory,
    "SPEC005": WrongMeta,
    "SPEC006": UnwaivedClosedForm,
    "SPEC008": MalformedSpec,
}
