"""Deep structural analysis of parsed predictor topologies (TOP rules).

The parser and :func:`~repro.core.topology.validate_topology` reject
malformed topologies; this analyzer goes further and flags *well-formed*
compositions that cannot behave as intended — latency inversions that make
a sub-component's output unreachable, metadata layouts that disagree with
the declared ``meta_bits``, history demands the composed providers cannot
satisfy, and compositions with no way to produce a branch target.

Rules
-----
======  ========  =======================================================
code    severity  finding
======  ========  =======================================================
TOP000  error     spec failed to parse or validate
TOP001  warn      override chain not latency-monotonic (§III-A ordering)
TOP002  error     arbitration child slower than its selector
TOP003  error     declared meta_bits != MetaCodec layout width
TOP004  warn      component shadowed by a total predictor above it
TOP005  warn      no target-providing component (BTB/uBTB)
TOP006  error     required history bits exceed the composed provider
TOP007  warn      per-entry metadata exceeds the history-file budget
======  ========  =======================================================
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.analysis.diagnostics import Diagnostic, diagnostic
from repro.core.composer import ComposerConfig
from repro.core.events import PredictRequest
from repro.core.interface import InterfaceError, PredictorComponent
from repro.core.parser import ComponentLibrary, TopologyParseError, parse_topology
from repro.core.prediction import PredictionVector, packet_span
from repro.core.topology import (
    Arbitrate,
    Override,
    TopologyNode,
    validate_topology,
)

#: Default per-entry metadata budget (bits).  The history file carries the
#: concatenated metadata of every sub-component per in-flight packet; past
#: this width the entry stops resembling the modest "branch info" payload
#: hardware FTQs carry (§IV-B1) and the design deserves a second look.
DEFAULT_META_BUDGET = 256

#: Fetch PCs used to probe whether an override head always hits.  Spread
#: across alignments and regions so a tagged structure (which misses on a
#: fresh table) is never misclassified as total.
_PROBE_PCS = (0x1000, 0x1001, 0x2A57, 0x40000, 0x7FFF3)


def _is_total_predictor(
    component: PredictorComponent, fetch_width: int
) -> bool:
    """True when the component hits on every slot of a fresh-state probe.

    A "total" predictor (e.g. an untagged bimodal) produces a prediction
    for every slot unconditionally, so in ``total > lo`` nothing below it
    that responds *later* can ever win the per-slot hit mux.  Tagged
    structures miss on a fresh table, so a handful of cold probes
    separates the two without inspecting component internals.  Lookups
    must not train state (contract CON002), so probing is side-effect
    free.
    """
    if component.n_inputs != 1:
        return False
    for fetch_pc in _PROBE_PCS:
        width = packet_span(fetch_pc, fetch_width)
        req = PredictRequest(fetch_pc, width, 0, 0, 0)
        default = PredictionVector.fallthrough(fetch_pc, width)
        try:
            out, _ = component.lookup(req, [default])
        except Exception:
            return False
        if not all(slot.hit for slot in out.slots):
            return False
    return True


def _walk(
    node: TopologyNode,
) -> Tuple[List[Override], List[Arbitrate]]:
    overrides: List[Override] = []
    arbitrates: List[Arbitrate] = []
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, Override):
            overrides.append(current)
            stack.append(current.lo)
        elif isinstance(current, Arbitrate):
            arbitrates.append(current)
            stack.extend(current.children)
    return overrides, arbitrates


def check_topology(
    root: TopologyNode,
    config: Optional[ComposerConfig] = None,
    meta_budget: int = DEFAULT_META_BUDGET,
    subject: Optional[str] = None,
) -> List[Diagnostic]:
    """Analyze a validated topology tree; return its diagnostics."""
    config = config or ComposerConfig()
    subject = subject or root.describe()
    diags: List[Diagnostic] = []
    try:
        components = validate_topology(root)
    except InterfaceError as exc:
        return [diagnostic("TOP000", str(exc), subject)]

    overrides, arbitrates = _walk(root)

    # TOP001: override latency inversion.  ``hi > lo`` with hi responding
    # before some of lo is legal (the paper's §IV example UBTB1 > GSHARE2
    # does it), but the slower part of lo then only contributes where hi
    # misses — worth flagging, not rejecting.
    for node in overrides:
        lo_latency = node.lo.max_latency
        if node.hi.latency < lo_latency:
            diags.append(
                diagnostic(
                    "TOP001",
                    f"override head {node.hi.name!r} responds at stage "
                    f"{node.hi.latency} but its subordinate chain finishes "
                    f"at stage {lo_latency}; the slower predictions only "
                    f"apply where {node.hi.name!r} misses",
                    subject,
                )
            )

    # TOP002: an arbitration child that answers after its selector is
    # discarded entirely — the selector muxes its predict_in vectors at its
    # own response stage, and an Arbitrate node replaces all later stages
    # with the selector's output.
    for node in arbitrates:
        for child in node.children:
            child_latency = child.max_latency
            if child_latency > node.selector.latency:
                slow = [
                    c.name
                    for c in child.components()
                    if c.latency > node.selector.latency
                ]
                diags.append(
                    diagnostic(
                        "TOP002",
                        f"selector {node.selector.name!r} arbitrates at "
                        f"stage {node.selector.latency} but child "
                        f"{child.describe()!r} responds at stage "
                        f"{child_latency}; predictions from "
                        f"{', '.join(sorted(slow))} are never consulted",
                        subject,
                    )
                )

    # TOP003: components that build their metadata with a MetaCodec must
    # declare exactly the codec's width — a mismatch means the history
    # file reserves the wrong number of bits per entry.
    for component in components:
        codec = getattr(component, "_codec", None)
        width = getattr(codec, "width", None)
        if width is not None and width != component.meta_bits:
            diags.append(
                diagnostic(
                    "TOP003",
                    f"{component.name!r} declares meta_bits="
                    f"{component.meta_bits} but its metadata layout packs "
                    f"{width} bits",
                    subject,
                )
            )

    # TOP004: a component below a *total* override head, responding later
    # than it, can never surface: it neither feeds the head's predict_in
    # (the head reads the staged vector at its own earlier stage) nor wins
    # the per-slot hit mux (the head hits every slot).
    for node in overrides:
        if not _is_total_predictor(node.hi, config.fetch_width):
            continue
        for component in node.lo.components():
            if component.latency > node.hi.latency:
                diags.append(
                    diagnostic(
                        "TOP004",
                        f"{component.name!r} (stage {component.latency}) is "
                        f"shadowed: {node.hi.name!r} hits every slot at "
                        f"stage {node.hi.latency}, so the later prediction "
                        f"never feeds predict_in nor wins the hit mux",
                        subject,
                    )
                )

    # TOP005: without a target provider every taken prediction falls
    # through to the next aligned packet — the composition predicts
    # directions it cannot steer fetch with.
    if not any(c.provides_targets for c in components):
        diags.append(
            diagnostic(
                "TOP005",
                "no component provides branch targets (BTB/uBTB); taken "
                "predictions cannot redirect fetch",
                subject,
            )
        )

    # TOP006: history demands versus the composed providers (§IV-B3).
    providers = (
        ("required_ghist_bits", config.global_history_bits, "global"),
        ("required_lhist_bits", config.local_history_bits, "local"),
        ("required_phist_bits", config.path_history_bits, "path"),
    )
    for component in components:
        for attr, provided, kind in providers:
            required = getattr(component, attr, 0)
            if required > provided:
                diags.append(
                    diagnostic(
                        "TOP006",
                        f"{component.name!r} requires {required} {kind}-"
                        f"history bits but the composed provider keeps "
                        f"{provided}",
                        subject,
                    )
                )

    # TOP007: per-entry metadata budget.
    total_meta = sum(c.meta_bits for c in components)
    if total_meta > meta_budget:
        worst = max(components, key=lambda c: c.meta_bits)
        diags.append(
            diagnostic(
                "TOP007",
                f"history-file entries carry {total_meta} metadata bits, "
                f"over the {meta_budget}-bit budget (largest contributor: "
                f"{worst.name!r} at {worst.meta_bits} bits)",
                subject,
            )
        )

    return diags


def check_spec(
    spec: str,
    library: Optional[ComponentLibrary] = None,
    config: Optional[ComposerConfig] = None,
    meta_budget: int = DEFAULT_META_BUDGET,
) -> List[Diagnostic]:
    """Parse and analyze a topology string; parse failures become TOP000."""
    if library is None:
        from repro.components.library import standard_library

        fetch_width = config.fetch_width if config else 4
        library = standard_library(fetch_width=fetch_width)
    try:
        root = parse_topology(spec, library)
    except TopologyParseError as exc:
        return [
            diagnostic(
                "TOP000",
                exc.reason,
                spec,
                col=exc.column,
            )
        ]
    except InterfaceError as exc:
        return [diagnostic("TOP000", str(exc), spec)]
    return check_topology(root, config, meta_budget, subject=spec)
