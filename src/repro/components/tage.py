"""TAGE: tagged geometric-history-length predictor (§III-G4, [Seznec 2011]).

A set of partially tagged tables indexed by hashes of the PC with
geometrically increasing global-history lengths.  The longest-history table
with a tag match *provides* the prediction; the next match (or the incoming
``predict_in`` base prediction) is the *alternate*.  The metadata field
tracks the provider and alternate table identities plus the counters read at
predict time (§III-D), so update-time work regenerates indices from the
fetch PC and the predict-time history supplied by the framework (§III-E).

TAGE learns global-history correlations and is tolerant to delayed updates,
so it uses only the commit-time ``update`` event.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro._util import (
    counter_is_weak,
    counter_taken,
    hash_pc,
    id_bits,
    log2_exact,
    saturating_update,
)
from repro.components.base import SpecComponent
from repro.core.events import PredictRequest, UpdateBundle
from repro.core.prediction import PredictionVector
from repro.spec import ComponentSpec, FieldSpec, IndexFn, TableSpec

_new_tuple = tuple.__new__


@dataclass(frozen=True)
class TageTableConfig:
    """Geometry of one tagged table."""

    n_sets: int
    history_bits: int
    tag_bits: int


def geometric_history_lengths(
    n_tables: int, min_length: int, max_length: int
) -> List[int]:
    """The classic TAGE geometric series of history lengths."""
    if n_tables == 1:
        return [min_length]
    ratio = (max_length / min_length) ** (1.0 / (n_tables - 1))
    lengths = []
    for i in range(n_tables):
        length = int(round(min_length * ratio**i))
        if lengths and length <= lengths[-1]:
            length = lengths[-1] + 1
        lengths.append(length)
    lengths[-1] = max_length
    return lengths


def default_tables(
    n_tables: int = 7,
    n_sets: int = 512,
    min_history: int = 4,
    max_history: int = 64,
    tag_bits: int = 9,
) -> List[TageTableConfig]:
    """The 7-table, 64-bit-history configuration of the TAGE-L design."""
    return [
        TageTableConfig(n_sets=n_sets, history_bits=length, tag_bits=tag_bits)
        for length in geometric_history_lengths(n_tables, min_history, max_history)
    ]


@lru_cache(maxsize=8)
def tagged_hasher(
    fetch_width: int,
    geometry: Tuple[Tuple[int, int, int], ...],
    split_tag: bool,
) -> Callable[[int, int], Tuple[Tuple[int, int], ...]]:
    """The ``(index, tag)`` of every table of a tagged predictor, in one pass.

    ``geometry`` holds each table's ``(history_bits, index_bits,
    tag_bits)``.  A table's index is the fetch packet's PC hash XOR the
    history folded to the index width; its tag is the hash of ``packet >>
    1`` XOR the history folded to the tag width, and with ``split_tag``
    (TAGE's two-fold tag) XOR the fold to one bit fewer, shifted left.
    Each distinct PC hash (a width of ``packet`` or of ``packet >> 1``)
    runs once per pass, however many tables share it.

    The returned callable maps ``(fetch_pc, ghist)`` to one pair per
    table.  It is memoised, and so are the folds of each history: a
    lookup and its commit-time update hash the same request, and
    fetch packets without a branch share one history.  The memos are
    pure functions of the geometry, kept here rather than on the
    component, so they are no part of its architectural state.  Their
    sizes come from the hit rates measured on recorded requests
    (docs/performance.md §1); full, a geometry's memos hold about 1.7 MB,
    and a process meets few geometries (one per preset or library TAGE
    sizing, one for ITTAGE).

    Every fold equals :func:`~repro._util.fold_history`, which XORs the
    ``width``-bit chunks of the low ``history_bits`` bits.  The tables
    share one history, so one pass per distinct width records the XOR of
    its first ``k`` chunks for every ``k``; a table's fold is then the
    prefix of its whole chunks XOR its partial last chunk.
    """
    # ``(shift, width)``: the hash of ``packet >> shift`` to ``width`` bits.
    hash_plan = tuple(
        sorted(
            {(0, index_bits) for _, index_bits, _ in geometry}
            | {(1, tag_bits) for _, _, tag_bits in geometry}
        )
    )
    # Per table: its index hash's and tag hash's positions in the plan.
    table_hashes = tuple(
        (
            hash_plan.index((0, index_bits)),
            hash_plan.index((1, tag_bits)),
            (1 << tag_bits) - 1,
        )
        for _, index_bits, tag_bits in geometry
    )

    def fold_plan(history_bits: int, width: int) -> Tuple[int, int, int, int]:
        """``(width, whole chunks, partial chunk's shift, its mask)``."""
        if width <= 0:
            return (0, 0, 0, 0)  # folding into no bits gives 0
        chunks, rest = divmod(history_bits, width)
        return (width, chunks, chunks * width, (1 << rest) - 1)

    # Three folds per table, in order: index, tag, and the tag's second
    # fold (all zero without ``split_tag``).
    fold_plans = tuple(
        plan
        for history_bits, index_bits, tag_bits in geometry
        for plan in (
            fold_plan(history_bits, index_bits),
            fold_plan(history_bits, tag_bits),
            fold_plan(history_bits, tag_bits - 1 if split_tag else 0),
        )
    )
    longest = max(history_bits for history_bits, _, _ in geometry)
    chunk_widths = tuple(sorted({plan[0] for plan in fold_plans} - {0}))

    @lru_cache(maxsize=1024)
    def folds(ghist: int) -> Tuple[Tuple[int, int], ...]:
        prefixes = {0: (0,)}
        for width in chunk_widths:
            chunk_mask = (1 << width) - 1
            running = 0
            prefix = [0]
            history = ghist
            for _ in range(longest // width):
                running ^= history & chunk_mask
                prefix.append(running)
                history >>= width
            prefixes[width] = prefix
        folded = [
            prefixes[width][chunks] ^ ((ghist >> shift) & rest_mask)
            for width, chunks, shift, rest_mask in fold_plans
        ]
        tag_folds = [
            tag_fold ^ (second_fold << 1)
            for tag_fold, second_fold in zip(folded[1::3], folded[2::3])
        ]
        return tuple(zip(folded[0::3], tag_folds))

    @lru_cache(maxsize=1024)
    def index_tags(fetch_pc: int, ghist: int) -> Tuple[Tuple[int, int], ...]:
        packet = fetch_pc // fetch_width
        packets = (packet, packet >> 1)
        hashes = [hash_pc(packets[shift], width) for shift, width in hash_plan]
        return tuple(
            [
                (
                    hashes[index_hash] ^ index_fold,
                    (hashes[tag_hash] ^ tag_fold) & mask,
                )
                for (index_hash, tag_hash, mask), (index_fold, tag_fold) in zip(
                    table_hashes, folds(ghist)
                )
            ]
        )

    return index_tags


class _Lfsr:
    """Tiny deterministic LFSR supplying allocation randomness."""

    def __init__(self, seed: int = 0xACE1):
        self._state = seed

    def next(self) -> int:
        s = self._state
        bit = ((s >> 0) ^ (s >> 2) ^ (s >> 3) ^ (s >> 5)) & 1
        self._state = (s >> 1) | (bit << 15)
        return self._state


class TAGE(SpecComponent):
    """The TAGE sub-component managing a set of global-history tagged tables."""

    def __init__(
        self,
        name: str,
        latency: int = 3,
        fetch_width: int = 4,
        tables: Optional[Sequence[TageTableConfig]] = None,
        counter_bits: int = 3,
        u_bits: int = 2,
        u_decay_period: int = 131072,
    ):
        self.tables = list(tables) if tables is not None else default_tables()
        self.fetch_width = fetch_width
        self.counter_bits = counter_bits
        self.u_bits = u_bits
        self.u_decay_period = u_decay_period
        # Per-table index widths (validates powers of two).
        self._index_bits = [log2_exact(cfg.n_sets) for cfg in self.tables]
        self._tag_masks = [(1 << cfg.tag_bits) - 1 for cfg in self.tables]
        super().__init__(name, latency, self._build_spec())
        self._weak_nt = (1 << (counter_bits - 1)) - 1
        # One array per field holds every table's rows, table t's from
        # ``_row_base[t]`` on; the per-table lists are views into it, so
        # the columnar kernel reads all tables with one gather.
        sets = [cfg.n_sets for cfg in self.tables]
        self._row_base = np.cumsum([0] + sets[:-1])
        self._all_tags = np.zeros(sum(sets), dtype=np.int64)
        self._all_ctrs = np.full(
            (sum(sets), fetch_width), self._weak_nt, dtype=np.uint8
        )
        self._all_useful = np.zeros(sum(sets), dtype=np.uint8)
        self._all_valid = np.zeros(sum(sets), dtype=bool)
        split = self._row_base[1:]
        self._tags: List[np.ndarray] = np.split(self._all_tags, split)
        self._ctrs: List[np.ndarray] = np.split(self._all_ctrs, split)
        self._useful: List[np.ndarray] = np.split(self._all_useful, split)
        self._valid: List[np.ndarray] = np.split(self._all_valid, split)
        self._lfsr = _Lfsr()
        self._use_alt_on_na = 8  # 4-bit counter, midpoint
        self._update_count = 0
        #: ``(fetch_pc, ghist) -> ((index, tag), ...)`` over every table,
        #: shared by lookup, update and allocation (see :func:`tagged_hasher`).
        self._index_tags = tagged_hasher(
            fetch_width,
            tuple(
                (cfg.history_bits, bits, cfg.tag_bits)
                for cfg, bits in zip(self.tables, self._index_bits)
            ),
            split_tag=True,
        )
        self._longest_first = tuple(reversed(range(len(self.tables))))

    # ------------------------------------------------------------------
    def lookup(
        self, req: PredictRequest, predict_in: Sequence[PredictionVector]
    ) -> Tuple[PredictionVector, int]:
        # The provider is the longest-history tag match, the alternate the
        # next one down.
        rows = self._index_tags(req.fetch_pc, req.ghist)
        tags = self._tags
        valid = self._valid
        provider = alt = None
        for table in self._longest_first:
            index, tag = rows[table]
            if tags[table][index] == tag and valid[table][index]:
                if provider is None:
                    provider, p_index = table, index
                else:
                    alt, a_index = table, index
                    break

        out = predict_in[0]
        offset = req.fetch_pc % self.fetch_width
        width = self.fetch_width
        bits = self.counter_bits
        if alt is not None:
            alt_row = self._ctrs[alt][a_index].tolist()
            alt_taken = [counter_taken(c, bits) for c in alt_row]
        else:
            # Without an alternate table, the base prediction is the
            # alternate.
            alt_taken = [False] * width
            for lane, slot in enumerate(out.slots, offset):
                alt_taken[lane] = bool(slot.hit and slot.taken)

        provider_ctr = [0] * width
        used_alt = [0] * width
        provider_u = 0

        if provider is not None:
            provider_ctr = self._ctrs[provider][p_index].tolist()
            provider_u = int(self._useful[provider][p_index])
            # Newly allocated entries (u == 0, weak counter) defer to the
            # alternate prediction when the use-alt counter says so.
            use_alt = provider_u == 0 and self._use_alt_on_na >= 8
            slots = []
            for lane, slot in enumerate(out.slots, offset):
                if slot.is_jump:
                    slots.append(slot)
                    continue
                ctr = provider_ctr[lane]
                if use_alt and counter_is_weak(ctr, bits):
                    taken = alt_taken[lane]
                    used_alt[lane] = 1
                else:
                    taken = counter_taken(ctr, bits)
                slots.append(slot.with_direction(taken))
            out = _new_tuple(PredictionVector, (out.fetch_pc, tuple(slots)))

        meta = self._codec.pack(
            provider_valid=int(provider is not None),
            provider=provider or 0,
            alt_valid=int(alt is not None),
            alt=alt or 0,
            provider_ctr=provider_ctr,
            alt_taken=alt_taken,
            used_alt=used_alt,
            provider_u=provider_u,
        )
        return out, meta

    # ------------------------------------------------------------------
    def on_update(self, bundle: UpdateBundle) -> None:
        if not any(bundle.br_mask):
            return
        fields = self._codec.unpack(bundle.meta)
        offset = bundle.fetch_pc % self.fetch_width
        provider_valid = bool(fields["provider_valid"])
        provider = int(fields["provider"])
        # The predict-time hash pass, memoised: nothing is re-hashed here.
        rows = self._index_tags(bundle.fetch_pc, bundle.ghist)

        if provider_valid:
            p_index, p_tag = rows[provider]
            entry_live = (
                self._valid[provider][p_index]
                and int(self._tags[provider][p_index]) == p_tag
            )
            for slot_idx, is_branch in enumerate(bundle.br_mask):
                if not is_branch:
                    continue
                lane = offset + slot_idx
                taken = bundle.taken_mask[slot_idx]
                old_ctr = int(fields["provider_ctr"][lane])
                if entry_live:
                    self._ctrs[provider][p_index, lane] = saturating_update(
                        old_ctr, taken, self.counter_bits
                    )
                provider_taken = counter_taken(old_ctr, self.counter_bits)
                alt_says = bool(fields["alt_taken"][lane])
                if provider_taken != alt_says and entry_live:
                    self._useful[provider][p_index] = saturating_update(
                        int(fields["provider_u"]),
                        provider_taken == taken,
                        self.u_bits,
                    )
                # Train the use-alt-on-new-alloc counter when the entry was
                # newly allocated and provider/alt disagreed.
                newly_allocated = int(fields["provider_u"]) == 0 and counter_is_weak(
                    old_ctr, self.counter_bits
                )
                if newly_allocated and provider_taken != alt_says:
                    if alt_says == taken:
                        self._use_alt_on_na = min(15, self._use_alt_on_na + 1)
                    else:
                        self._use_alt_on_na = max(0, self._use_alt_on_na - 1)

        # Allocate a longer-history entry when the packet mispredicted on a
        # conditional branch.
        mp = bundle.mispredict_idx
        if (
            bundle.mispredicted
            and mp is not None
            and mp < len(bundle.br_mask)
            and bundle.br_mask[mp]
        ):
            start = provider + 1 if provider_valid else 0
            self._allocate(rows, start, offset + mp, bundle.taken_mask[mp])

        self._update_count += 1
        if self._update_count % self.u_decay_period == 0:
            self._all_useful >>= 1

    def _allocate(
        self, rows: Tuple[Tuple[int, int], ...], start: int, lane: int, taken: bool
    ) -> None:
        candidates = [
            table
            for table in range(start, len(self.tables))
            if int(self._useful[table][rows[table][0]]) == 0
        ]
        if not candidates:
            # No free entry: age the usefulness of all longer tables so
            # future allocations can succeed (anti-ping-pong).
            for table in range(start, len(self.tables)):
                index = rows[table][0]
                u = int(self._useful[table][index])
                if u > 0:
                    self._useful[table][index] = u - 1
            return
        # Prefer shorter histories with geometric probability (Seznec 2011):
        # pick the first candidate with p=1/2, else the next, etc.
        choice = candidates[0]
        for candidate in candidates:
            choice = candidate
            if self._lfsr.next() & 1:
                break
        index, tag = rows[choice]
        self._valid[choice][index] = True
        self._tags[choice][index] = tag
        self._ctrs[choice][index, :] = self._weak_nt
        self._ctrs[choice][index, lane] = (
            self._weak_nt + 1 if taken else self._weak_nt
        )
        self._useful[choice][index] = 0

    # ------------------------------------------------------------------
    def columnar_kernel(self):
        from repro.kernels.components import TAGEKernel

        return TAGEKernel(self)

    def _build_spec(self) -> ComponentSpec:
        table_id_bits = id_bits(len(self.tables))
        tables = []
        for table_id, cfg in enumerate(self.tables):
            tables.append(
                TableSpec(
                    f"table{table_id}(h={cfg.history_bits})",
                    entries=cfg.n_sets,
                    fields=(
                        FieldSpec("tag", cfg.tag_bits),
                        FieldSpec("valid", 1),
                        FieldSpec("u", self.u_bits),
                        FieldSpec("ctr", self.counter_bits, self.fetch_width),
                    ),
                    update="allocate-on-miss",
                    index=IndexFn(
                        "gshare",
                        self._index_bits[table_id],
                        cfg.history_bits,
                        key="packet",
                        fetch_width=self.fetch_width,
                    ),
                    probe=lambda c, pc, g, l, p, t=table_id: c._index_tags(pc, g)[t][
                        0
                    ],
                )
            )
        return ComponentSpec(
            component=type(self).__name__,
            tables=tuple(tables),
            meta_fields=(
                FieldSpec("provider_valid", 1),
                FieldSpec("provider", table_id_bits),
                FieldSpec("alt_valid", 1),
                FieldSpec("alt", table_id_bits),
                FieldSpec("provider_ctr", self.counter_bits, self.fetch_width),
                FieldSpec("alt_taken", 1, self.fetch_width),
                FieldSpec("used_alt", 1, self.fetch_width),
                FieldSpec("provider_u", self.u_bits),
            ),
            ghist_bits=max(cfg.history_bits for cfg in self.tables),
        )
