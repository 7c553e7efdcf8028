"""Speculation study: why hardware-guided evaluation matters (§VI).

Reproduces the paper's discussion-section experiments interactively:

1. §VI-B — global-history repair with vs. without fetch replay: replay
   improves accuracy and mean IPC, but *hurts* the short-loop Dhrystone.
2. §VI-A — TAGE prediction latency 2 vs 3 cycles: accuracy unchanged,
   small IPC cost.
3. §II-B — the trace-driven software-simulator methodology vs. the full
   speculative core: the modelling gap the paper's whole approach targets.

Run:  python examples/speculation_study.py
"""

from repro import presets
from repro.eval import run_workload
from repro.workloads import build_dhrystone, build_specint


def section_vi_b(scale: float = 0.5) -> None:
    print("=== §VI-B: global-history repair with vs. without replay ===")
    workloads = {
        "xz": build_specint("xz", scale=scale),
        "omnetpp": build_specint("omnetpp", scale=scale),
        "dhrystone": build_dhrystone(scale=scale),
    }
    for name, program in workloads.items():
        replay = run_workload(
            presets.build("tage_l", ghist_repair_mode="replay"),
            program, system_name="replay")
        stale = run_workload(
            presets.build("tage_l", ghist_repair_mode="no_replay",
                          ghist_corruption_window=8),
            program, system_name="no-replay")
        d_ipc = 100 * (replay.ipc / stale.ipc - 1)
        d_miss = 100 * (1 - replay.branch_mispredicts / max(1, stale.branch_mispredicts))
        print(f"  {name:10s} replay IPC {replay.ipc:5.2f} vs {stale.ipc:5.2f} "
              f"({d_ipc:+5.1f}%), mispredicts reduced {d_miss:5.1f}%")
    print()


def section_vi_a(scale: float = 0.5) -> None:
    print("=== §VI-A: TAGE response latency 2 vs 3 cycles ===")
    program = build_specint("x264", scale=scale)
    fast = run_workload(presets.build("tage_l", tage_latency=2), program,
                        system_name="TAGE@2")
    slow = run_workload(presets.build("tage_l", tage_latency=3), program,
                        system_name="TAGE@3")
    print(f"  latency 2: IPC {fast.ipc:.2f}  acc {fast.branch_accuracy*100:.2f}%")
    print(f"  latency 3: IPC {slow.ipc:.2f}  acc {slow.branch_accuracy*100:.2f}%")
    print(f"  IPC cost of the extra stage: "
          f"{100 * (1 - slow.ipc / fast.ipc):.1f}%\n")


def section_ii_b(scale: float = 0.5) -> None:
    print("=== §II-B: trace-driven simulation vs. speculative core ===")
    for name in ("xz", "perlbench"):
        program = build_specint(name, scale=scale)
        trace = run_workload("tage_l", program, backend="trace")
        core = run_workload("tage_l", program)
        gap = (trace.branch_accuracy - core.branch_accuracy) * 100
        print(f"  {name:10s} trace-sim acc {trace.branch_accuracy*100:5.2f}%  "
              f"core acc {core.branch_accuracy*100:5.2f}%  "
              f"modelling gap {gap:+.2f} pp  "
              f"MPKI {trace.mpki:.2f} vs {core.mpki:.2f}")
    print("  (the trace simulator never sees wrong-path history corruption,")
    print("   repair latency, or fetch-packet cuts — the §II-B error source)")


if __name__ == "__main__":
    section_vi_b()
    section_vi_a()
    section_ii_b()
