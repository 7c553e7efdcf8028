"""Core configuration (Table II of the paper).

Defaults mirror the evaluated BOOM configuration: 16-byte (4-instruction)
fetch, 4-wide decode/commit, 128-entry ROB, 32 KB L1 data cache with a
512 KB L2 behind it.  The TLBs, FP pipelines, and load/store queues of
Table II are not separately modelled (they do not interact with branch
prediction); the issue model is an idealized dependency-driven scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CacheConfig:
    """Two-level data-cache model parameters (word-addressed)."""

    l1_sets: int = 64
    l1_ways: int = 8
    l2_sets: int = 1024
    l2_ways: int = 8
    line_words: int = 8
    l2_hit_penalty: int = 14
    memory_penalty: int = 80


@dataclass(frozen=True)
class ICacheConfig:
    """Instruction-cache model parameters (Table II: 8-way 32 KB, next-line
    prefetcher).  ``enabled=False`` models an ideal instruction supply."""

    enabled: bool = True
    n_sets: int = 64
    n_ways: int = 8
    line_words: int = 8
    miss_penalty: int = 10
    prefetch_next_line: bool = True


@dataclass(frozen=True)
class CoreConfig:
    """Host-core parameters (Table II analogue)."""

    fetch_width: int = 4
    decode_width: int = 4
    commit_width: int = 4
    rob_entries: int = 128
    fetch_buffer_packets: int = 6
    ras_depth: int = 32
    #: Cycles from dispatch to earliest issue.
    issue_latency: int = 1
    #: Extra cycles between a branch completing and its resolution reaching
    #: the frontend.
    branch_resolve_delay: int = 1
    #: Cycles of fetch silence after a backend redirect (on top of any
    #: history-replay bubbles reported by the composer).
    redirect_penalty: int = 1
    #: Short-forwards-branch (hammock) predication (§VI-C).
    sfb_enabled: bool = False
    sfb_max_distance: int = 8
    #: Attach a :class:`repro.telemetry.TelemetryCollector` to the composed
    #: predictor and publish its summary on ``CoreStats.telemetry``.
    #: Result-neutral: telemetry observes events but never perturbs them.
    telemetry: bool = False
    cache: CacheConfig = field(default_factory=CacheConfig)
    icache: ICacheConfig = field(default_factory=ICacheConfig)
