"""Spec-conformance analyzer: rules SPEC001-SPEC009.

Verifies every library component's imperative implementation against its
declarative :class:`repro.spec.ComponentSpec`:

========  ==============================================================
SPEC001   every ``ComponentLibrary`` base returns a spec or carries a
          registered waiver (:func:`repro.spec.register_waiver`)
SPEC002   storage accounting: spec bit totals equal ``storage()`` —
          SRAM/flop split, per-breakdown-key sums, and the resulting
          :mod:`repro.synthesis.area` mapping — bit for bit
SPEC003   index-hash conformance: each table's declared ``IndexFn``
          reproduces the implementation's observed index on seeded
          probe stimuli
SPEC004   history-demand consistency: spec ghist/lhist/phist bits equal
          the ``required_*_bits`` TOP006 budgets against
SPEC005   meta-width derivation: spec payload fields match the
          ``MetaCodec`` layout (the CON001 codec) and sum to the
          declared ``meta_bits``
SPEC006   kernel completeness: a component whose update rules are all
          closed-form and whose tables the engine could drive must
          advertise a ``columnar_kernel()`` or carry a waiver
SPEC007   retired: ``branchless_inert`` is declared by the class flag
          alone and checked against behaviour by CON008
SPEC008   the spec itself is well-formed
SPEC009   derivation equivalence: a component whose scalar path executes
          through :mod:`repro.derive` produces bit-identical predictions
          and metadata to its frozen pre-refactor reference
          (:mod:`repro.derive.reference`) on seeded contract stimulus
========  ==============================================================
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


def _check_storage(
    component: PredictorComponent, spec: ComponentSpec, subject: str
) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    impl = component.storage()
    if (spec.sram_bits, spec.flop_bits) != (impl.sram_bits, impl.flop_bits):
        diags.append(
            diagnostic(
                "SPEC002",
                f"spec declares sram={spec.sram_bits} flop={spec.flop_bits} "
                f"bits but storage() reports sram={impl.sram_bits} "
                f"flop={impl.flop_bits}",
                subject,
            )
        )
    # Per-breakdown-key accounting: each table claims the storage()
    # breakdown keys it accounts for; claimed keys must sum exactly, and
    # the implementation may not report unclaimed non-zero keys.
    claimed = spec.storage_report(component.name).breakdown
    for key, bits in sorted(claimed.items()):
        actual = impl.breakdown.get(key)
        if actual is None:
            diags.append(
                diagnostic(
                    "SPEC002",
                    f"spec table claims breakdown key {key!r} but storage() "
                    f"does not report it",
                    subject,
                )
            )
        elif actual != bits:
            diags.append(
                diagnostic(
                    "SPEC002",
                    f"breakdown {key!r}: spec accounts {bits} bits, "
                    f"storage() reports {actual}",
                    subject,
                )
            )
    for key, bits in sorted(impl.breakdown.items()):
        if bits and key not in claimed:
            diags.append(
                diagnostic(
                    "SPEC002",
                    f"storage() reports {bits} bits under {key!r} that no "
                    f"spec table accounts for",
                    subject,
                )
            )
    # Same bits through the same silicon mapping: the spec's report must
    # price identically to the implementation's in the area model.
    from repro.synthesis.area import AreaModel, spec_area

    model = AreaModel()
    declared = spec_area(spec, component.name, model)
    actual_area = model.report_area(impl)
    if declared != actual_area:
        diags.append(
            diagnostic(
                "SPEC002",
                f"spec area {declared:.1f}um2 != storage() area "
                f"{actual_area:.1f}um2 under the synthesis model",
                subject,
            )
        )
    return diags


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


def _check_history(
    component: PredictorComponent, spec: ComponentSpec, subject: str
) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    for label, declared, required in (
        ("ghist", spec.ghist_bits, component.required_ghist_bits),
        ("lhist", spec.lhist_bits, component.required_lhist_bits),
        ("phist", spec.phist_bits, component.required_phist_bits),
    ):
        if declared != required:
            diags.append(
                diagnostic(
                    "SPEC004",
                    f"spec declares {declared} {label} bits but the component "
                    f"requires {required} (the TOP006 budget)",
                    subject,
                )
            )
    return diags


def _check_meta(
    component: PredictorComponent, spec: ComponentSpec, subject: str
) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    if spec.meta_bits != component.meta_bits:
        diags.append(
            diagnostic(
                "SPEC005",
                f"spec payload fields total {spec.meta_bits} bits but the "
                f"component declares meta_bits={component.meta_bits}",
                subject,
            )
        )
    codec = getattr(component, "_codec", None)
    if codec is not None:
        declared = [(f.name, f.bits, f.count) for f in spec.meta_fields]
        actual = list(codec._fields)
        if declared != actual:
            diags.append(
                diagnostic(
                    "SPEC005",
                    f"spec payload layout {declared} does not match the "
                    f"MetaCodec layout {actual}",
                    subject,
                )
            )
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


#: Seeded stimulus length for the SPEC009 differential drive.
DERIVED_STEPS = 96


def _check_derived(
    component: PredictorComponent, subject: str, seed: int
) -> List[Diagnostic]:
    """SPEC009: derived scalar path vs the frozen pre-refactor reference."""
    # Lazy imports: contracts pulls in the stimulus machinery and derive
    # pulls in the component families; neither belongs at analyzer import.
    from repro.analysis.contracts import _drive
    from repro.derive.reference import twin_dims, twin_pair

    pair = twin_pair(component)
    if pair is None:
        return []
    derived, reference = pair
    dims = twin_dims(derived)
    derived_log = _drive(derived, seed, DERIVED_STEPS, dims=dims)
    reference_log = _drive(reference, seed, DERIVED_STEPS, dims=dims)
    for step, (got, want) in enumerate(zip(derived_log, reference_log)):
        if got != want:
            pc, meta, slots = got
            _, ref_meta, ref_slots = want
            detail = (
                f"meta {meta} != {ref_meta}"
                if meta != ref_meta
                else f"slots {slots} != {ref_slots}"
            )
            return [
                diagnostic(
                    "SPEC009",
                    f"derived scalar path diverges from the pre-refactor "
                    f"reference at step {step} (pc={pc:#x}): {detail}",
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
    """Run SPEC001-SPEC009 against one instantiated component."""
    subject = subject or component.name
    try:
        spec = component.spec()
    except Exception as exc:  # noqa: BLE001 - a crashing spec is a finding
        return [diagnostic("SPEC008", f"spec() raised: {exc!r}", subject)]
    if spec is None:
        if waiver_for(_subjects(component), "SPEC001") is not None:
            return []
        return [
            diagnostic(
                "SPEC001",
                f"{type(component).__name__} returns no spec and no SPEC001 "
                f"waiver is registered",
                subject,
            )
        ]
    problems = spec.validate()
    if problems:
        return [
            diagnostic("SPEC008", problem, subject) for problem in problems
        ]
    diags: List[Diagnostic] = []
    diags.extend(_check_storage(component, spec, subject))
    diags.extend(_check_indexing(component, spec, subject, seed))
    diags.extend(_check_history(component, spec, subject))
    diags.extend(_check_meta(component, spec, subject))
    diags.extend(_check_kernel(component, spec, subject))
    diags.extend(_check_derived(component, subject, seed))
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
        subject = f"{base}{latency}"
        try:
            component = library.factory(base)(base.lower(), latency)
        except Exception as exc:  # noqa: BLE001
            diags.append(
                diagnostic(
                    "SPEC008",
                    f"factory raised while instantiating at latency "
                    f"{latency}: {exc!r}",
                    subject,
                )
            )
            continue
        diags.extend(check_component_spec(component, subject, seed))
    return diags


def spec_coverage(
    library: Optional[ComponentLibrary] = None,
) -> Tuple[List[str], List[str]]:
    """(covered, missing) base names: spec or waiver vs neither."""
    if library is None:
        library = _library()
    covered: List[str] = []
    missing: List[str] = []
    for base in library.known():
        try:
            component = library.factory(base)(base.lower(), 2)
            has_spec = component.spec() is not None
        except Exception:  # noqa: BLE001
            has_spec = False
            component = None
        subjects = _subjects(component) if component is not None else (base,)
        if has_spec or waiver_for(subjects, "SPEC001") is not None:
            covered.append(base)
        else:
            missing.append(base)
    return covered, missing


def assert_full_coverage(library: Optional[ComponentLibrary] = None) -> None:
    """Raise unless every library base has a spec or a SPEC001 waiver.

    The CI spec-coverage gate calls this; a new library component cannot
    land without declaring itself.
    """
    covered, missing = spec_coverage(library)
    if missing:
        raise AssertionError(
            f"library components without spec() or SPEC001 waiver: {missing} "
            f"(covered: {len(covered)})"
        )
