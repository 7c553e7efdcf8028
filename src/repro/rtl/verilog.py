"""Structural Verilog skeleton for a composed predictor.

``generate_verilog_skeleton`` emits one module per sub-component plus a top
module wiring the COBRA interface (§III): the predict request broadcast,
per-stage prediction buses with override muxing in topology order, the
five event strobes, and per-component metadata ports sized to each
component's declared ``meta_bits`` — the interface contract rendered as
ports.

For a component that declares a :class:`~repro.spec.ComponentSpec`, the
storage is no longer a stub: each declared table becomes a real module
(:func:`repro.derive.rtl.emit_table_module` — memory array, index hash
from the declared closed form, update port) instantiated inside the
unit module, so one spec drives the Python runtime, the columnar
kernels, and the RTL.  Only the prediction/update *glue* between the
table read ports and the event interface remains stubbed
(`/* datapath here */`).

The output is syntactically plain Verilog-2001 and is intended as a
starting point / documentation artifact, not verified RTL.
"""

from __future__ import annotations

from typing import List

from repro.core.composer import ComposedPredictor
from repro.core.topology import Arbitrate, Leaf, Override, TopologyNode
from repro.derive.rtl import emit_table_module, table_instance_lines

#: Bit widths of the shared buses.
PC_BITS = 30
PRED_BITS_PER_SLOT = 1 + 1 + 1 + 1 + PC_BITS  # hit, is_br, is_jmp, taken, target


def _pred_bus_bits(fetch_width: int) -> int:
    return fetch_width * PRED_BITS_PER_SLOT


def _component_module(component, fetch_width: int, ghist_bits: int) -> str:
    """One sub-component module with the full event interface."""
    pred_bits = _pred_bus_bits(fetch_width)
    spec = component.spec
    storage_lines: List[str] = []
    if spec is not None and spec.tables:
        storage_lines.append(
            "    // declared storage: one module per spec table"
        )
        for table in spec.tables:
            storage_lines.extend(table_instance_lines(component.name, table))
    storage_text = ("\n".join(storage_lines) + "\n") if storage_lines else ""
    n_in = component.n_inputs
    inputs = "\n".join(
        f"    input  wire [{pred_bits - 1}:0] predict_in{i},"
        for i in range(n_in)
    )
    hist_ports = ""
    if component.uses_global_history:
        hist_ports += f"    input  wire [{ghist_bits - 1}:0] ghist,\n"
    if component.uses_local_history:
        hist_ports += "    input  wire [31:0] lhist,\n"
    if getattr(component, "uses_path_history", False):
        hist_ports += "    input  wire [31:0] phist,\n"
    meta_bits = max(component.meta_bits, 1)
    return f"""\
// {type(component).__name__}: latency {component.latency}, responds at F{component.latency}
module {component.name}_unit (
    input  wire clk,
    input  wire reset,
    // predict (query at F0)
    input  wire predict_valid,
    input  wire [{PC_BITS - 1}:0] fetch_pc,
{hist_ports}{inputs}
    output wire [{pred_bits - 1}:0] predict_out,
    output wire [{meta_bits - 1}:0] meta_out,
    // fire / mispredict / repair / update events (§III-E)
    input  wire fire_valid,
    input  wire mispredict_valid,
    input  wire repair_valid,
    input  wire update_valid,
    input  wire [{PC_BITS - 1}:0] event_pc,
    input  wire [{meta_bits - 1}:0] event_meta,
    input  wire [{fetch_width - 1}:0] event_br_mask,
    input  wire [{fetch_width - 1}:0] event_taken_mask
);
{storage_text}    /* datapath here: {component.meta_bits}-bit metadata,
       storage = {component.storage().total_bits} bits */
    assign predict_out = predict_in0;
    assign meta_out = {{{meta_bits}{{1'b0}}}};
endmodule
"""


def _stage_wiring(node: TopologyNode, fetch_width: int, lines: List[str], depth: int):
    """Emit per-stage override muxes in topology order."""
    pred_bits = _pred_bus_bits(fetch_width)
    if isinstance(node, Leaf):
        lines.append(
            f"    // {node.component.name} provides stages "
            f"F{node.component.latency}..F{depth}"
        )
        return f"{node.component.name}_pred"
    if isinstance(node, Override):
        below = _stage_wiring(node.lo, fetch_width, lines, depth)
        name = node.hi.name
        lines.append(
            f"    // override: {name} wins per slot where it hits "
            f"(from F{node.hi.latency})"
        )
        lines.append(
            f"    wire [{pred_bits - 1}:0] {name}_merged = "
            f"{name}_hit_any ? {name}_pred : {below};"
        )
        return f"{name}_merged"
    assert isinstance(node, Arbitrate)
    children = [
        _stage_wiring(child, fetch_width, lines, depth) for child in node.children
    ]
    name = node.selector.name
    lines.append(
        f"    // arbitration: {name} selects among "
        f"{', '.join(children)} (from F{node.selector.latency})"
    )
    lines.append(
        f"    wire [{pred_bits - 1}:0] {name}_merged = {name}_pred; "
        f"// pre-arbitration default: {children[0]}"
    )
    return f"{name}_merged"


def generate_verilog_skeleton(predictor: ComposedPredictor) -> str:
    """Render the composed predictor as a structural Verilog skeleton."""
    config = predictor.config
    fetch_width = config.fetch_width
    pred_bits = _pred_bus_bits(fetch_width)
    ghist = config.global_history_bits
    parts: List[str] = [
        f"// Generated by the COBRA reproduction composer",
        f"// topology: {predictor.describe()}",
        f"// pipeline depth: {predictor.depth} stages; fetch width {fetch_width}",
        "",
    ]
    for component in predictor.components:
        parts.append(_component_module(component, fetch_width, ghist))
        spec = component.spec
        if spec is not None:
            for table in spec.tables:
                parts.append(emit_table_module(component.name, table))

    total_meta = sum(c.meta_bits for c in predictor.components)
    wiring: List[str] = []
    final = _stage_wiring(predictor.topology, fetch_width, wiring, predictor.depth)
    instantiations = []
    for component in predictor.components:
        instantiations.append(
            f"    wire [{pred_bits - 1}:0] {component.name}_pred;\n"
            f"    wire {component.name}_hit_any;\n"
            f"    {component.name}_unit u_{component.name} (/* see ports above */);"
        )
    instantiation_text = "\n".join(instantiations)
    wiring_text = "\n".join(wiring)
    parts.append(f"""\
module cobra_predictor_top (
    input  wire clk,
    input  wire reset,
    input  wire f0_valid,
    input  wire [{PC_BITS - 1}:0] f0_pc,
    // staged final predictions (one bus per fetch stage, §IV-A)
    output wire [{pred_bits - 1}:0] f_final [1:{predictor.depth}],
    // backend interface: resolution + commit
    input  wire resolve_valid,
    input  wire resolve_mispredict,
    input  wire commit_valid
);
    // speculative global history register ({ghist} bits)
    reg [{ghist - 1}:0] ghist_spec;
    // history file: {config.ftq_entries} entries x {total_meta} metadata bits
    //               (+ history snapshots; repaired by forwards walk)

{instantiation_text}

{wiring_text}
    // final prediction source: {final}
endmodule
""")
    return "\n".join(parts)
