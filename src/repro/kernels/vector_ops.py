"""Columnar ports of the scalar bit-manipulation helpers in :mod:`repro._util`.

Each function mirrors its scalar namesake bit for bit over numpy arrays, so
the batch kernels in :mod:`repro.kernels.components` compute exactly the
indices, tags, and counter decisions the scalar components would.  The
scalar helpers remain the reference implementations; the test suite and the
CON009 contract rule hold these ports to them.
"""

from __future__ import annotations

import functools
from typing import List

import numpy as np

from repro._util import mask


def fold_shifts(history_bits: int, folded_bits: int) -> List[int]:
    """Shift amounts of a doubling XOR fold of ``history_bits`` into
    ``folded_bits``.

    ``h ^= h >> s`` for each ``s`` in turn leaves the XOR of all
    ``folded_bits``-wide chunks in the low ``folded_bits`` bits:
    after shifts ``f, 2f, ..., 2**(r-1) f`` the low chunk holds chunks
    ``0 .. 2**r - 1``.  So ``c`` chunks need ``ceil(log2 c)`` shifts,
    not ``c`` rounds, and every shift stays below the (at most 64-bit)
    history width.
    """
    if folded_bits <= 0:
        return []
    chunks = (min(history_bits, 64) + folded_bits - 1) // folded_bits
    shifts = []
    held = 1  # chunks the low chunk holds
    while held < chunks:
        shifts.append(held * folded_bits)
        held *= 2
    return shifts


def fold_history_vec(
    history: np.ndarray, history_bits: int, folded_bits: int
) -> np.ndarray:
    """Vectorized :func:`repro._util.fold_history` over a uint64 column.

    The scalar version loops ``while history``; folding the
    ``history_bits``-wide history with :func:`fold_shifts` is equivalent
    because exhausted histories contribute zero chunks.
    """
    if folded_bits <= 0:
        return np.zeros(np.shape(history), dtype=np.int64)
    h = history.astype(np.uint64) & np.uint64(mask(min(history_bits, 64)))
    for shift in fold_shifts(history_bits, folded_bits):
        h ^= h >> np.uint64(shift)
    return (h & np.uint64(mask(folded_bits))).astype(np.int64)


def hash_pc_vec(pc: np.ndarray, bits: int) -> np.ndarray:
    """Vectorized :func:`repro._util.hash_pc` over an int64 column."""
    if bits <= 0:
        return np.zeros(np.shape(pc), dtype=np.int64)
    h = pc ^ (pc >> bits) ^ (pc >> (2 * bits))
    return h & mask(bits)


def counter_taken_vec(counter: np.ndarray, bits: int) -> np.ndarray:
    """Vectorized :func:`repro._util.counter_taken` (MSB decision)."""
    return ((counter >> (bits - 1)) & 1).astype(bool)


def counter_is_weak_vec(counter: np.ndarray, bits: int) -> np.ndarray:
    """Vectorized :func:`repro._util.counter_is_weak`."""
    c = counter.astype(np.int64)
    mid_hi = 1 << (bits - 1)
    return (c == mid_hi) | (c == mid_hi - 1)


def earlier_dirty_same_key(keys: np.ndarray, dirty: np.ndarray) -> np.ndarray:
    """Read-after-dirty-write hazards along a column of table indices.

    ``out[i]`` is True when some earlier position ``j < i`` with
    ``keys[j] == keys[i]`` has ``dirty[j]`` set: position ``i`` would read a
    table row an earlier packet's replayed write has changed, so the frozen
    snapshot it was predicted from is stale.  Positions are chronological
    (packet order); a stable argsort groups equal keys without reordering
    time.
    """
    n = len(keys)
    if not dirty.any():
        return np.zeros(n, dtype=bool)
    order = np.argsort(keys, kind="stable")
    d = dirty[order].astype(np.int64)
    excl = np.cumsum(d) - d
    sk = keys[order]
    group_start = np.empty(n, dtype=bool)
    group_start[0] = True
    group_start[1:] = sk[1:] != sk[:-1]
    # ``excl`` is non-decreasing, so a running max of its value at each
    # group start yields the per-group baseline.
    base = np.maximum.accumulate(np.where(group_start, excl, 0))
    out = np.empty(n, dtype=bool)
    out[order] = (excl - base) > 0
    return out


@functools.lru_cache(maxsize=None)
def _step_tables(bits: int) -> np.ndarray:
    """Transition tables of one ``bits``-wide saturating counter.

    Row ``2 * upd + taken`` maps every counter value to the value after
    one event: rows 0 and 1 (no update) are the identity, row 2
    decrements and row 3 increments, each clipped to ``[0, top]``.  The
    values use the narrowest unsigned dtype that holds ``top``, so a
    window's ``(events, 2 ** bits)`` maps stay small.
    """
    top = mask(bits)
    v = np.arange(top + 1, dtype=np.min_scalar_type(top))
    tables = np.stack([v, v, np.maximum(v, 1) - 1, np.minimum(v, top - 1) + 1])
    tables.setflags(write=False)  # cached: shared by every caller
    return tables


class CounterChains:
    """Saturating counters forwarded through one window's event chain.

    Built by :func:`forward_saturating`.  ``pre[i]`` is the value event
    ``i`` reads.  ``post`` and :meth:`final` give values after events;
    the chains are causal per key, so the first ``n`` events' values
    here equal those of a chain built from the first ``n`` events alone,
    and a commit of an accepted prefix reuses them instead of scanning
    again.
    """

    __slots__ = ("pre", "_order", "_keys", "_post", "_cont")

    @property
    def post(self) -> np.ndarray:
        """The value after each event, in event order."""
        out = np.empty(len(self._post), dtype=np.int64)
        out[self._order] = self._post
        return out

    def final(self, n: int):
        """``(keys, values)``: each key's value after its last event
        among the first ``n``, for every key those events touch."""
        # Sorted by key with time order kept, one key's events among the
        # first n form a leading run of its chain; the run's last event
        # is the one whose chain successor is not among them.
        inside = self._order < n
        last = inside.copy()
        last[:-1] &= ~(self._cont & inside[1:])
        return self._keys[last], self._post[last]


def forward_saturating(keys, upd, taken, v0, bits) -> CounterChains:
    """Forward saturating-counter values through a chronological event chain.

    Each event reads one counter (identified by ``keys``) and, when
    ``upd`` is set, steps it ``clip(v ± 1, 0, top)`` toward ``taken``.
    ``v0`` carries the counter's frozen (pre-window) value per event.
    Returns the :class:`CounterChains`: the value each event *reads*
    (what the scalar predictor would have seen at that point), the
    value after each event, and each key's final value after any prefix
    of the events.

    A stable argsort groups each key's events in time order.  Each event
    is a map of the ``2 ** bits`` counter values; a segmented
    Hillis-Steele scan composes every chain prefix, one gather per
    round.  Round ``r`` covers chain positions below ``2 ** r``, so the
    scan runs ``ceil(log2 L)`` rounds for the longest chain ``L``, not
    ``ceil(log2 n)``: a window whose keys are all distinct needs none.
    """
    n = len(keys)
    chains = CounterChains()
    order = np.argsort(keys, kind="stable")
    sk = keys[order]
    cont = sk[1:] == sk[:-1]  # in key order, event i + 1 continues i's chain
    chains._order = order
    chains._keys = sk
    chains._cont = cont
    if n == 0:
        chains.pre = chains._post = np.zeros(0, dtype=np.int64)
        return chains
    steps = _step_tables(bits)
    width = steps.shape[1]
    code = (upd.astype(np.intp) << 1) | taken
    maps = steps[code[order]]  # (n, 2 ** bits): event i's value map
    flat = maps.reshape(-1)
    base = np.arange(0, n * width, width)
    v0s = v0[order]
    pos = np.arange(n)
    chain_start = np.zeros(n, dtype=np.intp)
    np.maximum.accumulate(np.where(cont, 0, pos[1:]), out=chain_start[1:])
    rank = pos - chain_start
    longest = int(rank.max()) + 1
    step = 1
    while step < longest:
        # Compose: the map ending ``step`` events earlier applies first.
        comp = flat[maps[:-step] + base[step:, None]]
        np.copyto(maps[step:], comp, where=(rank[step:] >= step)[:, None])
        step <<= 1
    post = flat[base + v0s]
    pre = np.empty(n, dtype=np.int64)
    pre[order[0]] = v0s[0]
    pre[order[1:]] = np.where(cont, post[:-1], v0s[1:])
    chains.pre = pre
    chains._post = post
    return chains


#: Bit positions of a 64-bit register, oldest (MSB) first.
_OLDEST_FIRST = np.arange(63, -1, -1, dtype=np.uint64)


def rolling_histories(
    ghist0: int, outcome_bits: np.ndarray, history_bits: int
) -> np.ndarray:
    """Global-history register value after every prefix of ``outcome_bits``.

    ``R[i]`` is the shift register (LSB = newest outcome, as
    :meth:`~repro.core.history.GlobalHistoryProvider.speculate` maintains
    it) after the first ``i`` outcomes have been shifted into ``ghist0``.
    Requires ``history_bits <= 64``; the engine's eligibility gate enforces
    that.
    """
    # reg[j] starts as bit j of the oldest-first stream (ghist0's 64 bits,
    # then the outcomes); doubling widths w = 1, 2, ..., 32 leaves it
    # holding the 64 bits ending at j, the newest as its LSB.
    reg = np.empty(64 + len(outcome_bits), dtype=np.uint64)
    reg[:64] = (np.uint64(ghist0) >> _OLDEST_FIRST) & np.uint64(1)
    reg[64:] = outcome_bits
    width = 1
    while width < 64:
        reg[width:] |= reg[:-width] << np.uint64(width)
        width <<= 1
    return reg[63:] & np.uint64(mask(history_bits))
