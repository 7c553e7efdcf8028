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
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro._util import (
    counter_is_weak,
    counter_taken,
    fold_history,
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
        # Per-table geometry for the hot indexing path (validates powers
        # of two).
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

    # ------------------------------------------------------------------
    def _index_tag(self, fetch_pc: int, ghist: int, table: int) -> Tuple[int, int]:
        cfg = self.tables[table]
        packet = fetch_pc // self.fetch_width
        index_bits = self._index_bits[table]
        index = hash_pc(packet, index_bits) ^ fold_history(
            ghist, cfg.history_bits, index_bits
        )
        # Two fold widths decorrelate the tag hash from the index hash.
        tag = (
            hash_pc(packet >> 1, cfg.tag_bits)
            ^ fold_history(ghist, cfg.history_bits, cfg.tag_bits)
            ^ (fold_history(ghist, cfg.history_bits, cfg.tag_bits - 1) << 1)
        ) & self._tag_masks[table]
        return index, tag

    def _match(self, fetch_pc: int, ghist: int, table: int) -> Optional[int]:
        index, tag = self._index_tag(fetch_pc, ghist, table)
        if self._valid[table][index] and int(self._tags[table][index]) == tag:
            return index
        return None

    # ------------------------------------------------------------------
    def lookup(
        self, req: PredictRequest, predict_in: Sequence[PredictionVector]
    ) -> Tuple[PredictionVector, int]:
        hits: List[Tuple[int, int]] = []  # (table, index), ascending table id
        for table in range(len(self.tables)):
            index = self._match(req.fetch_pc, req.ghist, table)
            if index is not None:
                hits.append((table, index))

        out = predict_in[0]
        offset = req.fetch_pc % self.fetch_width
        width = self.fetch_width
        base_taken = [False] * width
        for slot_idx, slot in enumerate(out.slots):
            base_taken[offset + slot_idx] = bool(slot.hit and slot.taken)

        provider_valid = alt_valid = 0
        provider = alt = 0
        provider_ctr = [0] * width
        alt_taken = list(base_taken)
        used_alt = [0] * width
        provider_u = 0

        if hits:
            provider, p_index = hits[-1]
            provider_valid = 1
            row = self._ctrs[provider][p_index]
            provider_ctr = row.tolist()
            provider_u = int(self._useful[provider][p_index])
            if len(hits) > 1:
                alt, a_index = hits[-2]
                alt_valid = 1
                alt_row = self._ctrs[alt][a_index]
                alt_taken = [
                    counter_taken(c, self.counter_bits)
                    for c in alt_row.tolist()
                ]
            slots = []
            for slot_idx, slot in enumerate(out.slots):
                if slot.is_jump:
                    slots.append(slot)
                    continue
                lane = offset + slot_idx
                ctr = provider_ctr[lane]
                taken = counter_taken(ctr, self.counter_bits)
                # Newly allocated entries (u == 0, weak counter) defer to the
                # alternate prediction when the use-alt counter says so.
                newly_allocated = provider_u == 0 and counter_is_weak(
                    ctr, self.counter_bits
                )
                if newly_allocated and self._use_alt_on_na >= 8:
                    taken = alt_taken[lane]
                    used_alt[lane] = 1
                slots.append(slot.with_direction(taken))
            out = _new_tuple(PredictionVector, (out.fetch_pc, tuple(slots)))

        meta = self._codec.pack(
            provider_valid=provider_valid,
            provider=provider,
            alt_valid=alt_valid,
            alt=alt,
            provider_ctr=provider_ctr,
            alt_taken=[int(t) for t in alt_taken],
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

        if provider_valid:
            p_index, p_tag = self._index_tag(
                bundle.fetch_pc, bundle.ghist, provider
            )
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
            self._allocate(bundle, offset + mp, mp, provider_valid, provider)

        self._update_count += 1
        if self._update_count % self.u_decay_period == 0:
            self._all_useful >>= 1

    def _allocate(
        self,
        bundle: UpdateBundle,
        lane: int,
        slot: int,
        provider_valid: bool,
        provider: int,
    ) -> None:
        start = provider + 1 if provider_valid else 0
        candidates = []
        for table in range(start, len(self.tables)):
            index, _ = self._index_tag(bundle.fetch_pc, bundle.ghist, table)
            if int(self._useful[table][index]) == 0:
                candidates.append(table)
        if not candidates:
            # No free entry: age the usefulness of all longer tables so
            # future allocations can succeed (anti-ping-pong).
            for table in range(start, len(self.tables)):
                index, _ = self._index_tag(bundle.fetch_pc, bundle.ghist, table)
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
        index, tag = self._index_tag(bundle.fetch_pc, bundle.ghist, choice)
        taken = bundle.taken_mask[slot]
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
                    probe=lambda c, pc, g, l, p, t=table_id: c._index_tag(pc, g, t)[
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
