"""Pins every library component's interface declarations.

A component's storage report feeds Table I and the area model, its
metadata layout sizes the history file, and its history demand is what
TOP006 budgets against.  None of them may move silently.  For every
``standard_library()`` base, at the default sizing and at each
:data:`~repro.spec.LEGAL_SIZINGS` value, the test hashes:

- ``storage()``: sram and flop bits, the breakdown, ``access_bits``;
- the ``MetaCodec`` layout and ``meta_bits``;
- ``required_*_bits`` and ``uses_*_history``.

into one SHA-256 digest.  A second digest pins what each of those instances
predicts: the output log of a :data:`LOOKUP_STEPS`-step seeded
contract-harness drive (``contracts._drive``), one ``(pc, meta, slots)``
row per lookup, each output slot serialized as a plain JSON array of its
five fields.  The drive resolves every branch against seeded per-PC
outcomes and revisits a pool of contexts, so the log depends on how each
table trains, not only on how it indexes; the mutant tests below patch
one fault into the spec-derived runtime at a time and require the
migrated bases' log to move.  ``goldens/declarations.txt`` holds the same
values at the default sizing as a readable table, so a failing digest
can be diagnosed by regenerating the table and diffing it::

    PYTHONPATH=src python tests/test_declarations.py > goldens/declarations.txt
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro._util import hash_pc, saturating_update
from repro.analysis.contracts import DEFAULT_SEED, _drive
from repro.components.base import SpecComponent
from repro.components.library import standard_library
from repro.derive import DERIVED_BASES, DerivedTable
from repro.spec import LEGAL_SIZINGS, IndexFn

TABLE = Path(__file__).resolve().parent.parent / "goldens" / "declarations.txt"

#: Digest of every declaration at every sizing (see the module docstring).
DIGEST = "bf50e587ac9f61e998b68acf7038bfae209ac90dc56c6d0f1a8b587771f0d113"

#: Digest of every instance's seeded lookup log (see the module docstring).
LOOKUP_DIGEST = "7f43473bf3ef68bb9cbd383afe7c5a1e6f798dd8571ea58fca35baaf31d3ec7b"

#: Lookups per drive in :func:`lookup_digest`.
LOOKUP_STEPS = 96

LATENCY = 2


def declarations(component):
    """The pinned declaration record of one built component."""
    report = component.storage()
    return {
        "sram_bits": report.sram_bits,
        "flop_bits": report.flop_bits,
        "breakdown": sorted(report.breakdown.items()),
        "access_bits": report.access_bits,
        "meta_layout": [list(field) for field in component._codec._fields],
        "meta_bits": component.meta_bits,
        "required_bits": [
            component.required_ghist_bits,
            component.required_lhist_bits,
            component.required_phist_bits,
        ],
        "uses_history": [
            component.uses_global_history,
            component.uses_local_history,
            component.uses_path_history,
        ],
    }


def sizings():
    """``(label, standard_library kwargs)``: the default, then each value."""
    yield "default", {}
    for param, values in LEGAL_SIZINGS.items():
        for value in values:
            yield f"{param}={value}", {param: value}


def all_declarations():
    for label, kwargs in sizings():
        library = standard_library(**kwargs)
        for base in library.known():
            component = library.factory(base)(base.lower(), LATENCY)
            yield label, base, declarations(component)


def digest() -> str:
    sha = hashlib.sha256()
    for label, base, record in all_declarations():
        sha.update(json.dumps([label, base, record], sort_keys=True).encode())
    return sha.hexdigest()


def lookup_digest() -> str:
    sha = hashlib.sha256()
    for label, kwargs in sizings():
        library = standard_library(**kwargs)
        for base in library.known():
            component = library.factory(base)(base.lower(), LATENCY)
            log = _drive(component, DEFAULT_SEED, LOOKUP_STEPS)
            sha.update(json.dumps([label, base, log]).encode())
    return sha.hexdigest()


def render_table() -> str:
    """The default-sizing declarations, one block per library base."""
    lines = [
        "# Library component declarations at the default sizing",
        f"# (standard_library(), latency {LATENCY}); regenerate with",
        "#   PYTHONPATH=src python tests/test_declarations.py",
        "",
    ]
    library = standard_library()
    for base in library.known():
        record = declarations(library.factory(base)(base.lower(), LATENCY))
        lines.append(f"{base}")
        lines.append(
            f"  storage   sram={record['sram_bits']} flop={record['flop_bits']}"
            f" access={record['access_bits']}"
        )
        for key, bits in record["breakdown"]:
            lines.append(f"    {key}: {bits}")
        layout = " ".join(
            f"{name}:{bits}x{count}" if count > 1 else f"{name}:{bits}"
            for name, bits, count in record["meta_layout"]
        )
        lines.append(f"  meta      {record['meta_bits']} bits = {layout}")
        ghist, lhist, phist = record["required_bits"]
        uses = "".join(
            flag
            for flag, used in zip("glp", record["uses_history"])
            if used
        )
        lines.append(
            f"  history   ghist={ghist} lhist={lhist} phist={phist}"
            f" uses={uses or '-'}"
        )
    return "\n".join(lines) + "\n"


def test_declaration_digest_is_pinned():
    assert digest() == DIGEST


def test_lookup_digest_is_pinned():
    assert lookup_digest() == LOOKUP_DIGEST


def test_default_table_is_current():
    assert render_table() == TABLE.read_text()


def test_spec_is_the_construction_time_declaration():
    # Every base is a SpecComponent, so it carries the spec it was built
    # from and reads its declarations off it; nothing can disagree.
    library = standard_library()
    for base in library.known():
        component = library.factory(base)(base.lower(), LATENCY)
        assert isinstance(component, SpecComponent), base
        spec = component.spec
        assert spec is not None and spec.validate() == [], base
        layout = [(f.name, f.bits, f.count) for f in spec.meta_fields]
        assert component._codec._fields == layout, base


# ----------------------------------------------------------------------
# Runtime mutants the lookup log must expose
# ----------------------------------------------------------------------
def _step_by_two(monkeypatch):
    def twice(counter, taken, bits):
        return saturating_update(saturating_update(counter, taken, bits), taken, bits)

    monkeypatch.setattr("repro.derive.tables.saturating_update", twice)


def _inverted_train(monkeypatch):
    monkeypatch.setattr(
        "repro.derive.tables.saturating_update",
        lambda counter, taken, bits: saturating_update(counter, not taken, bits),
    )


def _train_from_current_cell(monkeypatch):
    train = DerivedTable.train

    def from_cell(self, row, taken, *, counter=None, **where):
        return train(self, row, taken, **where)

    monkeypatch.setattr(DerivedTable, "train", from_cell)


def _way_of_zero(monkeypatch):
    monkeypatch.setattr(DerivedTable, "way_of", lambda self, branch_pc: 0)


def _gshare_without_fold(monkeypatch):
    closed_form = IndexFn.closed_form

    def pc_only(self):
        if self.scheme != "gshare":
            return closed_form(self)
        width = 1 if self.key == "branch_pc" else self.fetch_width
        bits = self.index_bits
        return lambda fetch_pc, ghist=0, lhist=0, phist=0: hash_pc(
            fetch_pc // width, bits
        )

    monkeypatch.setattr(IndexFn, "closed_form", pc_only)


MUTANTS = {
    "step_by_two": _step_by_two,
    "inverted_train": _inverted_train,
    "train_from_current_cell": _train_from_current_cell,
    "way_of_zero": _way_of_zero,
    "gshare_without_fold": _gshare_without_fold,
}


def migrated_logs():
    """Lookup log of each migrated base at the default sizing."""
    library = standard_library()
    return {
        base: _drive(
            library.factory(base)(base.lower(), LATENCY),
            DEFAULT_SEED,
            LOOKUP_STEPS,
        )
        for base in DERIVED_BASES
    }


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_runtime_mutant_changes_lookup_log(mutant, monkeypatch):
    clean = migrated_logs()
    MUTANTS[mutant](monkeypatch)
    mutated = migrated_logs()
    assert mutated != clean, f"{mutant} leaves every migrated base's log unchanged"


if __name__ == "__main__":
    import sys

    if sys.argv[1:] == ["--digest"]:
        print(digest())
        print(lookup_digest())
    else:
        sys.stdout.write(render_table())
