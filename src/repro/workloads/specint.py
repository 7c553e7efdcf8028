"""Synthetic stand-ins for the 10 SPECint17 speed benchmarks (Fig. 10).

Each builder composes kernels whose branch character matches the documented
behaviour of its namesake.  The mixes below follow the standard
characterization literature (e.g. SPEC CPU2017 workload studies): x264 and
exchange2 are loop-dominated and highly predictable; mcf, deepsjeng, leela
and xz carry large data-dependent (hard) branch populations; perlbench and
gcc are branchy front-end-bound codes with indirect dispatch; omnetpp and
xalancbmk are pointer/dispatch heavy.

Dynamic instruction counts are tuned through ``scale``: ``scale=1`` gives
roughly 40-90k architectural instructions per benchmark — enough for the
predictors' relative ordering to emerge while keeping a full Fig. 10 sweep
to minutes of host time.  (The paper runs trillions of cycles; shape, not
absolute numbers, is the reproduction target.)
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.isa.program import Program
from repro.workloads.generators import (
    WorkloadBuilder,
    emit_correlated,
    emit_data_branches,
    emit_dense_branches,
    emit_hammock,
    emit_lcg_branches,
    emit_linked_list,
    emit_nested_loops,
    emit_recursive,
    emit_stream,
    emit_string_ops,
    emit_switch,
)

SPECINT_NAMES = (
    "perlbench",
    "gcc",
    "mcf",
    "omnetpp",
    "xalancbmk",
    "x264",
    "deepsjeng",
    "leela",
    "exchange2",
    "xz",
)


def _outer(base: int, scale: float) -> int:
    return max(1, int(round(base * scale)))


def _perlbench(scale: float) -> Program:
    """Interpreter dispatch loop: switches, hammocks, correlated branches."""
    w = WorkloadBuilder("perlbench", seed=101)
    w.add(emit_switch, n=48, n_cases=8)
    w.add(emit_hammock, n=48, bias=0.4)
    w.add(emit_correlated, n=48, period=6)
    w.add(emit_data_branches, n=32, bias=0.3)
    w.add(emit_recursive, depth=6)
    return w.build(_outer(26, scale))


def _gcc(scale: float) -> Program:
    """Branch-dense compiler passes with moderate predictability."""
    w = WorkloadBuilder("gcc", seed=102)
    w.add(emit_dense_branches, n=40, n_tests=6)
    w.add(emit_switch, n=32, n_cases=6)
    w.add(emit_correlated, n=48, period=10)
    w.add(emit_data_branches, n=32, bias=0.6)
    w.add(emit_string_ops, length=10)
    return w.build(_outer(24, scale))


def _mcf(scale: float) -> Program:
    """Pointer chasing with data-dependent branches and cache misses."""
    w = WorkloadBuilder("mcf", seed=103)
    w.add(emit_linked_list, n_nodes=192, spread=16)
    w.add(emit_lcg_branches, n=56, threshold=110)
    w.add(emit_data_branches, n=40, bias=0.5)
    return w.build(_outer(34, scale))


def _omnetpp(scale: float) -> Program:
    """Discrete-event simulation: lists, dispatch, moderate-hard branches."""
    w = WorkloadBuilder("omnetpp", seed=104)
    w.add(emit_linked_list, n_nodes=96, spread=8)
    w.add(emit_switch, n=40, n_cases=6)
    w.add(emit_lcg_branches, n=32, threshold=96)
    w.add(emit_correlated, n=32, period=8)
    return w.build(_outer(27, scale))


def _xalancbmk(scale: float) -> Program:
    """XML tree transforms: recursion, dispatch, correlated structure."""
    w = WorkloadBuilder("xalancbmk", seed=105)
    w.add(emit_recursive, depth=10)
    w.add(emit_switch, n=40, n_cases=5)
    w.add(emit_correlated, n=56, period=12)
    w.add(emit_string_ops, length=14)
    return w.build(_outer(30, scale))


def _x264(scale: float) -> Program:
    """Video encoding: regular loop nests over blocks, few hard branches."""
    w = WorkloadBuilder("x264", seed=106)
    w.add(emit_nested_loops, trips=(4, 8, 4))
    w.add(emit_stream, n=96)
    w.add(emit_stream, tag="k_stream2", n=64)
    w.add(emit_correlated, n=32, period=4)
    w.add(emit_data_branches, n=16, bias=0.8)
    return w.build(_outer(34, scale))


def _deepsjeng(scale: float) -> Program:
    """Alpha-beta chess search: recursion + genuinely hard branches."""
    w = WorkloadBuilder("deepsjeng", seed=107)
    w.add(emit_recursive, depth=12)
    w.add(emit_lcg_branches, n=56, threshold=128)
    w.add(emit_lcg_branches, tag="k_lcg2", n=40, threshold=80)
    w.add(emit_dense_branches, n=24, n_tests=5)
    return w.build(_outer(28, scale))


def _leela(scale: float) -> Program:
    """Monte-Carlo tree search: hard branches over tree structures."""
    w = WorkloadBuilder("leela", seed=108)
    w.add(emit_lcg_branches, n=48, threshold=128)
    w.add(emit_linked_list, n_nodes=80, spread=6)
    w.add(emit_recursive, depth=8)
    w.add(emit_data_branches, n=40, bias=0.45)
    return w.build(_outer(28, scale))


def _exchange2(scale: float) -> Program:
    """Sudoku brute force: deeply nested counted loops, near-perfectly
    predictable."""
    w = WorkloadBuilder("exchange2", seed=109)
    w.add(emit_nested_loops, trips=(6, 9, 5))
    w.add(emit_nested_loops, tag="k_nest2", trips=(3, 4, 9))
    w.add(emit_stream, n=48)
    w.add(emit_correlated, n=24, period=3)
    return w.build(_outer(26, scale))


def _xz(scale: float) -> Program:
    """LZMA compression: match/literal decisions — hard but with exploitable
    recent-history correlation."""
    w = WorkloadBuilder("xz", seed=110)
    w.add(emit_lcg_branches, n=48, threshold=150)
    w.add(emit_correlated, n=48, period=16)
    w.add(emit_data_branches, n=48, bias=0.35)
    w.add(emit_stream, n=32)
    return w.build(_outer(28, scale))


_BUILDERS: Dict[str, Callable[[float], Program]] = {
    "perlbench": _perlbench,
    "gcc": _gcc,
    "mcf": _mcf,
    "omnetpp": _omnetpp,
    "xalancbmk": _xalancbmk,
    "x264": _x264,
    "deepsjeng": _deepsjeng,
    "leela": _leela,
    "exchange2": _exchange2,
    "xz": _xz,
}


def build(name: str, scale: float = 1.0) -> Program:
    """Build one synthetic SPECint17 workload by benchmark name."""
    key = name.lower()
    if key not in _BUILDERS:
        raise KeyError(f"unknown SPECint workload {name!r}; have {SPECINT_NAMES}")
    return _BUILDERS[key](scale)
