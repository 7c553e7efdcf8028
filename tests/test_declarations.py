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
predicts: the output log of the seeded contract-harness drive
(``contracts._drive``), one ``(pc, meta, slots)`` row per lookup, each
output slot serialized as a plain JSON array of its five fields.  ``goldens/declarations.txt`` holds the same
values at the default sizing as a readable table, so a failing digest
can be diagnosed by regenerating the table and diffing it::

    PYTHONPATH=src python tests/test_declarations.py > goldens/declarations.txt
"""

import hashlib
import json
from pathlib import Path

from repro.analysis.contracts import DEFAULT_SEED, DEFAULT_STEPS, _drive
from repro.components.base import SpecComponent
from repro.components.library import standard_library
from repro.spec import LEGAL_SIZINGS

TABLE = Path(__file__).resolve().parent.parent / "goldens" / "declarations.txt"

#: Digest of every declaration at every sizing (see the module docstring).
DIGEST = "bf50e587ac9f61e998b68acf7038bfae209ac90dc56c6d0f1a8b587771f0d113"

#: Digest of every instance's seeded lookup log (see the module docstring).
LOOKUP_DIGEST = "3ca4ec888af5ec527e36092a1ed0904c716f7d500ad4902def6efd6f09af0d72"

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
            log = _drive(component, DEFAULT_SEED, DEFAULT_STEPS)
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


if __name__ == "__main__":
    import sys

    if sys.argv[1:] == ["--digest"]:
        print(digest())
        print(lookup_digest())
    else:
        sys.stdout.write(render_table())
