"""Executed bytecode and Python calls per layer, per committed instruction.

Wall time on a shared host moves by more than the few percent a change is
worth, so this script counts work instead.  It runs a fixed small set of
cells per perfbench workload under ``sys.settrace`` with opcode events on,
and attributes every executed opcode and every Python-level call to the
``repro`` subpackage whose code ran it (``repro.frontend.core`` counts
under ``frontend``; code outside ``repro`` counts under ``other``).  The
table divides each count by the instructions the cells committed.

The cells, per workload (programs are the SPECint stand-ins of
``repro.workloads.specint``, which perfbench's seed 0 draws):

- ``cycle_fig10``: the ``cycle`` backend, presets ``tage_l``, ``b2`` and
  ``tourney`` on ``perlbench`` and ``mcf`` at scale 0.06;
- ``replay_dense``: the ``replay`` backend over traces captured outside
  the count, the same presets on ``mcf`` and ``leela`` at scale 0.1;
- ``replay_sparse``: ``replay``, ``tage_l`` and ``b2`` on ``x264`` and
  ``perlbench`` at scale 0.25;
- ``explore_search``: the ``trace`` backend that explore workers run,
  ``tage_l`` and ``b2`` on ``x264`` and ``mcf`` at scale 0.2.

Each cell builds its predictor and runs to an instruction budget; both are
counted.  A resumed generator counts as a call.  C-level work (numpy,
builtins) executes no bytecode and is not counted, so a change that moves
work into C still needs wall-time pairs.  Counts are exact and repeatable
for one Python version, but bytecode differs between versions, so the JSON
results are keyed by ``major.minor`` and no bound is asserted.

Usage (from the repository root)::

    python benchmarks/bench_opcodes.py                  # print the table
    python benchmarks/bench_opcodes.py --quick          # CI smoke
    python benchmarks/bench_opcodes.py --json           # + results/opcodes.json
    python benchmarks/bench_opcodes.py --src ../parent/src --json /tmp/p.json
    python benchmarks/bench_opcodes.py --against /tmp/p.json  # deltas
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

RESULTS_PATH = Path(__file__).resolve().parent / "results" / "opcodes.json"

#: ``workload -> (backend, presets, programs, scale)``.
WORKLOADS = {
    "cycle_fig10": ("cycle", ("tage_l", "b2", "tourney"), ("perlbench", "mcf"), 0.06),
    "replay_dense": ("replay", ("tage_l", "b2", "tourney"), ("mcf", "leela"), 0.1),
    "replay_sparse": ("replay", ("tage_l", "b2"), ("x264", "perlbench"), 0.25),
    "explore_search": ("trace", ("tage_l", "b2"), ("x264", "mcf"), 0.2),
}
BUDGET = 3000
QUICK_BUDGET = 600


class OpcodeCounter:
    """Opcodes and calls per layer while :meth:`run` executes a function."""

    def __init__(self):
        self.opcodes = defaultdict(int)
        self.calls = defaultdict(int)
        self._layers = {}  # code object -> layer name
        self._tracers = {}  # layer name -> its frame-local trace function

    def _layer(self, frame) -> str:
        code = frame.f_code
        layer = self._layers.get(code)
        if layer is None:
            parts = str(frame.f_globals.get("__name__", "")).split(".")
            layer = parts[1] if parts[0] == "repro" and len(parts) > 1 else "other"
            self._layers[code] = layer
        return layer

    def _local_tracer(self, layer: str):
        tracer = self._tracers.get(layer)
        if tracer is None:
            opcodes = self.opcodes

            def tracer(frame, event, arg):
                if event == "opcode":
                    opcodes[layer] += 1
                return tracer

            self._tracers[layer] = tracer
        return tracer

    def _global_tracer(self, frame, event, arg):
        layer = self._layer(frame)
        self.calls[layer] += 1
        frame.f_trace_opcodes = True
        return self._local_tracer(layer)

    def run(self, fn, *args):
        sys.settrace(self._global_tracer)
        try:
            return fn(*args)
        finally:
            sys.settrace(None)


def count_workload(name: str, budget: int, quick: bool) -> dict:
    from repro import presets
    from repro.backends import RunLimits, get_backend
    from repro.workloads import specint
    from repro.workloads.registry import WorkloadSource
    from repro.workloads.traces import capture_trace

    backend_name, preset_names, programs, scale = WORKLOADS[name]
    if quick:
        preset_names, programs = preset_names[:1], programs[:1]
    backend = get_backend(backend_name)
    limits = RunLimits(max_instructions=budget)
    counter = OpcodeCounter()
    instructions = 0
    with tempfile.TemporaryDirectory() as workdir:
        for program_name in programs:
            program = specint.build(program_name, scale)
            source = WorkloadSource(name=program_name, program=program)
            if backend_name == "replay":
                # As in perfbench: captured and saved outside the count,
                # loaded inside each cell.
                path = Path(workdir) / f"{program_name}.npz"
                capture_trace(program, max_instructions=budget).save(path)
                source = WorkloadSource(name=program_name, trace_path=str(path))
            for preset in preset_names:

                def cell():
                    return backend.run(presets.build(preset), source, limits)

                instructions += counter.run(cell).instructions
    layers = sorted(set(counter.opcodes) | set(counter.calls))
    return {
        "instructions": instructions,
        "layers": {
            layer: {
                "opcodes": counter.opcodes[layer],
                "calls": counter.calls[layer],
            }
            for layer in layers
        },
    }


def per_instruction(entry: dict, layer: str, key: str) -> float:
    if layer == "total":
        value = sum(row[key] for row in entry["layers"].values())
    else:
        value = entry["layers"].get(layer, {}).get(key, 0)
    return value / entry["instructions"]


def render(results: dict, against: dict = None) -> str:
    lines = []
    for name, entry in results.items():
        base = (against or {}).get(name)
        lines.append(f"{name}: {entry['instructions']} committed instructions")
        header = f"  {'layer':12s} {'opcodes/instr':>14s} {'calls/instr':>12s}"
        if base is not None:
            header += f" {'opcodes vs base':>16s} {'calls vs base':>14s}"
        lines.append(header)
        for layer in sorted(entry["layers"]) + ["total"]:
            ops = per_instruction(entry, layer, "opcodes")
            calls = per_instruction(entry, layer, "calls")
            row = f"  {layer:12s} {ops:14.1f} {calls:12.2f}"
            if base is not None:
                base_ops = per_instruction(base, layer, "opcodes")
                base_calls = per_instruction(base, layer, "calls")
                row += f" {_delta(ops, base_ops):>16s} {_delta(calls, base_calls):>14s}"
            lines.append(row)
        lines.append("")
    return "\n".join(lines)


def _delta(value: float, base: float) -> str:
    if not base:
        return "new" if value else "-"
    return f"{100.0 * (value - base) / base:+.1f}%"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="one cell per workload, short budget (CI smoke)")
    parser.add_argument("--src", type=Path, default=None,
                        help="the src/ directory of the tree to measure")
    parser.add_argument("--json", nargs="?", const=RESULTS_PATH, type=Path,
                        default=None, metavar="PATH",
                        help=f"write the counts (default {RESULTS_PATH.name}), "
                        "keyed by Python minor version")
    parser.add_argument("--against", type=Path, default=None, metavar="PATH",
                        help="print deltas against counts another run wrote")
    args = parser.parse_args(argv)
    src = args.src or Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src.resolve()))
    version = f"{sys.version_info.major}.{sys.version_info.minor}"
    budget = QUICK_BUDGET if args.quick else BUDGET

    results = {name: count_workload(name, budget, args.quick) for name in WORKLOADS}
    against = None
    if args.against is not None:
        against = json.loads(args.against.read_text()).get(version, {})
        against = against.get("workloads") if against else None
    print(f"python {version}, src {src}, budget {budget} instructions per cell")
    print(render(results, against))
    if args.json is not None:
        data = json.loads(args.json.read_text()) if args.json.exists() else {}
        data[version] = {"budget": budget, "quick": args.quick, "workloads": results}
        args.json.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
