"""Executed bytecode per predicted packet on the scalar replay path.

The count behind ROADMAP item 5's opcode target: the ``replay`` walker
(``drive_columns``) with the segment engine off, so every packet goes
through the scalar composer and the components, over the ``replay_dense``
programs (``mcf``, ``deepsjeng``, ``leela``, ``xz`` at scale 0.1) and the
presets ``tage_l``, ``b2`` and ``tourney``.  Traces are captured outside
the count.  Opcodes are attributed per ``repro`` subpackage as in
``bench_opcodes.py`` and divided by the packets the predictors predicted.

Two sums are printed.  The *narrow* one is the layers the target names:
``components`` + ``core`` (the composer) + ``backends`` (the walker).  The
*wide* one adds the helper packages those layers call into (``_util``,
``derive``, ``spec``), which moved work between layers as they changed.

Usage (from the repository root)::

    python benchmarks/count_packet_opcodes.py
    python benchmarks/count_packet_opcodes.py --src ../parent/src
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from bench_opcodes import OpcodeCounter

PROGRAMS = ("mcf", "deepsjeng", "leela", "xz")
PRESETS = ("tage_l", "b2", "tourney")
SCALE = 0.1
NARROW = ("components", "core", "backends")
WIDE = NARROW + ("_util", "derive", "spec")


def count() -> tuple:
    from repro import presets
    from repro.backends.replay import drive_columns, trace_packets
    from repro.workloads import specint
    from repro.workloads.traces import capture_trace

    counter = OpcodeCounter()
    packets = 0
    for name in PROGRAMS:
        trace = capture_trace(specint.build(name, SCALE))
        for preset in PRESETS:
            predictor = presets.build(preset)
            cache = trace_packets(trace, predictor.config.fetch_width)
            counter.run(drive_columns, predictor, trace, cache, None, None)
            packets += predictor.stats.predictions
    return counter.opcodes, packets


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=None,
                        help="the src/ directory of the tree to measure")
    args = parser.parse_args(argv)
    src = args.src or Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src.resolve()))
    opcodes, packets = count()
    print(f"python {sys.version_info.major}.{sys.version_info.minor}, "
          f"src {src}, {packets} packets")
    for layer in sorted(opcodes):
        print(f"  {layer:12s} {opcodes[layer] / packets:8.1f}")
    for label, layers in (("narrow", NARROW), ("wide", WIDE)):
        total = sum(opcodes.get(layer, 0) for layer in layers)
        print(f"{label} ({' + '.join(layers)}): {total / packets:.1f} per packet")
    return 0


if __name__ == "__main__":
    sys.exit(main())
