"""Cache timing models: two-level data cache and an instruction cache.

Only load latency matters to the backend model (stores retire without
stalling commit in BOOM's LSU for our purposes), so the data-cache model
returns an *extra latency* per access: 0 for an L1 hit, the L2 penalty for
an L1 miss that hits L2, and the memory penalty otherwise.  LRU replacement
at both levels, allocate-on-miss.

The instruction cache models Table II's "8-way 32 KB ICache,
next-line prefetcher": a fetch that misses stalls the fetch unit for the
refill latency, and every demand access prefetches the next line — which
makes sequential code effectively free and puts the (small) cost on taken
branches to cold lines.  Synthetic workload footprints fit L1-I, so the
model mainly charges cold-start; it exists so the frontend is complete and
the prefetcher's effect is testable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.frontend.config import CacheConfig


class _SetAssocCache:
    """Minimal LRU set-associative tag store."""

    def __init__(self, n_sets: int, n_ways: int):
        self.n_sets = n_sets
        self.n_ways = n_ways
        # Per-set list of tags in LRU order (index -1 = most recent).
        self._sets: List[List[int]] = [[] for _ in range(n_sets)]

    def access(self, line_addr: int) -> bool:
        """Touch a line; return True on hit."""
        index = line_addr % self.n_sets
        tag = line_addr // self.n_sets
        ways = self._sets[index]
        if ways and ways[-1] == tag:
            return True  # already the most recent way
        if tag in ways:
            ways.remove(tag)
            ways.append(tag)
            return True
        if len(ways) >= self.n_ways:
            ways.pop(0)
        ways.append(tag)
        return False


@dataclass
class CacheStats:
    accesses: int = 0
    l1_misses: int = 0
    l2_misses: int = 0


@dataclass
class ICacheStats:
    accesses: int = 0
    misses: int = 0
    prefetches: int = 0


class DataCacheModel:
    """L1 + L2 load-latency model over word addresses."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self._l1 = _SetAssocCache(config.l1_sets, config.l1_ways)
        self._l2 = _SetAssocCache(config.l2_sets, config.l2_ways)
        self.stats = CacheStats()

    def load_penalty(self, word_addr: int) -> int:
        """Extra cycles beyond the L1 hit latency for this load."""
        line = word_addr // self.config.line_words
        self.stats.accesses += 1
        if self._l1.access(line):
            return 0
        self.stats.l1_misses += 1
        if self._l2.access(line):
            return self.config.l2_hit_penalty
        self.stats.l2_misses += 1
        return self.config.memory_penalty

    def store_touch(self, word_addr: int) -> None:
        """Stores allocate without stalling the pipeline model."""
        line = word_addr // self.config.line_words
        if not self._l1.access(line):
            self._l2.access(line)


class InstructionCacheModel:
    """L1-I with next-line prefetch; returns stall cycles per fetch."""

    def __init__(
        self,
        n_sets: int = 64,
        n_ways: int = 8,
        line_words: int = 8,
        miss_penalty: int = 10,
        prefetch_next_line: bool = True,
    ):
        self.line_words = line_words
        self.miss_penalty = miss_penalty
        self.prefetch_next_line = prefetch_next_line
        self._tags = _SetAssocCache(n_sets, n_ways)
        self.stats = ICacheStats()

    def fetch_penalty(self, fetch_pc: int) -> int:
        """Stall cycles to deliver the line holding ``fetch_pc``."""
        line = fetch_pc // self.line_words
        self.stats.accesses += 1
        hit = self._tags.access(line)
        if self.prefetch_next_line:
            # The prefetcher runs regardless of hit/miss; its fill is free
            # by the time a sequential fetch arrives.
            if not self._tags.access(line + 1):
                self.stats.prefetches += 1
        if hit:
            return 0
        self.stats.misses += 1
        return self.miss_penalty
