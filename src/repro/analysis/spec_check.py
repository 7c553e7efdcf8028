"""Spec-conformance analyzer: rules SPEC003 and SPEC006.

Checks a component's declarative :class:`repro.spec.ComponentSpec` (its
``spec`` attribute) against the behaviour the spec does not itself
generate:

========  ==============================================================
SPEC003   index-hash conformance: each table's declared ``IndexFn``
          reproduces the implementation's observed index on seeded
          probe stimuli
SPEC006   kernel completeness: a component whose update rules are all
          closed-form and whose tables the engine could drive must
          advertise a ``columnar_kernel()`` or carry a waiver
========  ==============================================================

The spec is the object the component was built from, so what is read
off it needs no check: a :class:`~repro.components.base.SpecComponent`
validates its spec at construction (a malformed one raises
:class:`~repro.core.interface.InterfaceError`) and takes its metadata
codec, ``meta_bits``, ``required_*_bits`` and ``storage()`` report from
it.  A component with no spec (``spec`` is None) is not checked.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.analysis.diagnostics import Diagnostic, diagnostic
from repro.core.interface import PredictorComponent
from repro.core.parser import ComponentLibrary
from repro.spec import ComponentSpec, waiver_for

DEFAULT_SEED = 0x5EC5
#: Seeded probe stimuli per table for SPEC003.
PROBES_PER_TABLE = 16


def _library() -> ComponentLibrary:
    from repro.components.library import standard_library

    return standard_library()


def _subjects(component: PredictorComponent) -> Tuple[str, ...]:
    """Waiver lookup keys: the class name and the library base name."""
    subjects = [type(component).__name__]
    base = getattr(component, "base_name", None)
    if base:
        subjects.append(base)
    return tuple(subjects)


# ---------------------------------------------------------------------------
# Individual rule checks (each returns a list of diagnostics).
# ---------------------------------------------------------------------------


def _check_indexing(
    component: PredictorComponent,
    spec: ComponentSpec,
    subject: str,
    seed: int,
) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    rng = random.Random(f"spec-probe:{seed}:{subject}")
    for table in spec.tables:
        if table.index is None or table.index.scheme in ("none", "custom"):
            continue
        # The declared address space must cover exactly the declared rows.
        if table.entries != (1 << table.index.index_bits):
            diags.append(
                diagnostic(
                    "SPEC003",
                    f"table {table.name!r}: {table.index.index_bits} index "
                    f"bits address {1 << table.index.index_bits} rows but "
                    f"the table declares {table.entries} entries",
                    subject,
                )
            )
            continue
        if table.probe is None:
            continue
        for _ in range(PROBES_PER_TABLE):
            fetch_pc = rng.getrandbits(26)
            ghist = rng.getrandbits(64)
            lhist = rng.getrandbits(32)
            phist = rng.getrandbits(32)
            declared = table.index.compute(fetch_pc, ghist, lhist, phist)
            observed = table.probe(component, fetch_pc, ghist, lhist, phist)
            if declared != observed:
                diags.append(
                    diagnostic(
                        "SPEC003",
                        f"table {table.name!r}: IndexFn({table.index.scheme}) "
                        f"computes {declared} for pc={fetch_pc:#x} "
                        f"ghist={ghist:#x} but the implementation indexes "
                        f"{observed}",
                        subject,
                    )
                )
                break  # one counterexample per table is enough
    return diags


def _check_kernel(
    component: PredictorComponent, spec: ComponentSpec, subject: str
) -> List[Diagnostic]:
    if (
        spec.closed_form_updates
        and spec.engine_drivable
        and component.columnar_kernel() is None
        and waiver_for(_subjects(component), "SPEC006") is None
    ):
        return [
            diagnostic(
                "SPEC006",
                "every update rule is closed-form and the columnar engine "
                "could drive this component, but it advertises no kernel; "
                "implement columnar_kernel() or register a SPEC006 waiver",
                subject,
            )
        ]
    return []


# ---------------------------------------------------------------------------
# Entry points.
# ---------------------------------------------------------------------------


def check_component_spec(
    component: PredictorComponent,
    subject: Optional[str] = None,
    seed: int = DEFAULT_SEED,
) -> List[Diagnostic]:
    """Run SPEC003 and SPEC006 against one instantiated component."""
    subject = subject or component.name
    spec = component.spec
    if spec is None:
        return []
    diags: List[Diagnostic] = []
    diags.extend(_check_indexing(component, spec, subject, seed))
    diags.extend(_check_kernel(component, spec, subject))
    return diags


def check_library_specs(
    library: Optional[ComponentLibrary] = None,
    seed: int = DEFAULT_SEED,
    latency: int = 2,
) -> List[Diagnostic]:
    """Run the spec analyzer over every base name in the library."""
    if library is None:
        library = _library()
    diags: List[Diagnostic] = []
    for base in library.known():
        component = library.factory(base)(base.lower(), latency)
        diags.extend(check_component_spec(component, f"{base}{latency}", seed))
    return diags
