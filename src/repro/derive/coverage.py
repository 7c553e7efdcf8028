"""Derivation-coverage gate: migrated families must route through derive.

The CI ``check`` job's analogue of the PR-8 spec-coverage gate: where
``assert_full_coverage`` requires every library base to *declare* a
spec, ``assert_derived_coverage`` requires every base in the migrated
indexed-counter families to *execute* it — storage held in
:class:`~repro.derive.tables.DerivedTable` arrays, the storage report
produced by the spec, and a columnar kernel, if there is one, generated
by :mod:`repro.derive.kernels`.  A regression that quietly reverts a family
to hand-kept state fails here, not at review time.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.derive.tables import DerivedTable

#: Library bases whose scalar/kernel/storage paths are spec-derived.
DERIVED_BASES = (
    "BIM",
    "GBIM",
    "LBIM",
    "PSHARE",
    "GSELECT",
    "GSHARE",
    "GAG",
    "GAP",
    "PAG",
    "PAP",
    "GTAG",
)


def derivation_problems(library=None) -> Dict[str, List[str]]:
    """Per-base problems: bases in the migrated families that do not
    route through :mod:`repro.derive` (empty dict: fully covered)."""
    if library is None:
        from repro.components.library import standard_library

        library = standard_library()
    problems: Dict[str, List[str]] = {}
    for base in DERIVED_BASES:
        issues: List[str] = []
        component = library.factory(base)(base.lower(), 3)
        spec = component.spec()
        tables = getattr(component, "derived_tables", None)
        if not isinstance(tables, dict) or not all(
            isinstance(t, DerivedTable) for t in tables.values()
        ):
            issues.append("state is not held in DerivedTable arrays")
        elif spec is not None:
            declared = {t.name for t in spec.tables}
            held = set(tables)
            if not declared <= held:
                issues.append(
                    f"spec tables {sorted(declared - held)} have no "
                    f"DerivedTable"
                )
        if spec is None:
            issues.append("component declares no spec")
        if kernel_is_derived(component) is False:
            kernel = type(component.columnar_kernel()).__name__
            issues.append(
                f"columnar kernel is {kernel}, not generated by "
                f"repro.derive.kernels"
            )
        if issues:
            problems[base] = issues
    return problems


def assert_derived_coverage(library=None) -> None:
    """Raise unless every migrated base routes through ``repro.derive``."""
    problems = derivation_problems(library)
    if problems:
        detail = "; ".join(
            f"{base}: {', '.join(issues)}"
            for base, issues in sorted(problems.items())
        )
        raise AssertionError(
            f"derivation coverage regressed ({len(problems)} of "
            f"{len(DERIVED_BASES)} bases): {detail}"
        )


def kernel_is_derived(component) -> Optional[bool]:
    """True/False whether a component's kernel is generated (None: no
    kernel at all) — the bench gate's probe."""
    kernel = component.columnar_kernel()
    if kernel is None:
        return None
    return type(kernel).__module__ == "repro.derive.kernels"
