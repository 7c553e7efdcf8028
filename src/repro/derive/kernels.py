"""Spec-derived columnar kernels: batch execution generated from specs.

PR 6 hand-ported each table component's lookup/update loop to a numpy
batch kernel; PR 8 made every component declare the geometry and index
closed forms those ports re-encoded.  This module closes the loop: for
any component whose trained table is closed-form (``saturating-counter``
update, engine-drivable :class:`~repro.spec.IndexFn`), the kernel is
*generated* from the spec, parameterizing the same
:mod:`repro.kernels.vector_ops` primitives (vectorized index hashes,
segmented counter forwarding) the hand ports used.

Two kernel shapes cover the migrated families, selected by the trained
table's declared PC key:

``key == "packet"`` → :class:`LaneCounterKernel`
    One row read per fetch packet, one counter lane per fetch slot
    (HBIM and its index-scheme variants; GTag).  An optional
    ``allocate-on-miss`` tag table gates the row: only tag-hit packets
    predict and train, and — per the library's tagged-hit semantics —
    a gated table claims only non-jump lanes, while an ungated base
    table claims every slot (§III-F).  Tag hashes have no declared
    closed form, so a gated component supplies its vectorized tag
    column through a ``tag_columns(ctx)`` hook (the columnar analogue
    of the scalar custom-hash hooks).

``key == "branch_pc"`` → :class:`CandidateCounterKernel`
    One candidate branch per packet — the first incoming
    hit-and-branch lane — reads one counter from a multi-way pattern
    table (two-level GAg/GAp).  Way selection uses the library's
    way-of hash; the row comes from the ``ghist_raw`` closed form.

Both shapes follow the engine's three-phase protocol (see
:mod:`repro.kernels.components`): every write's value derives from
predict-time metadata, so counters forward exactly through the window
(:func:`~repro.kernels.vector_ops.forward_saturating`) and ``mutates``
never cuts.  Allocations only happen on mispredicted packets, which end
the segment before they commit, so gate tags stay frozen-exact.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro._util import mask
from repro.kernels.vector_ops import (
    counter_taken_vec,
    fold_history_vec,
    forward_saturating,
    hash_pc_vec,
)
from repro.spec import VECTOR_SCHEMES, IndexFn, TableSpec


def index_columns(fn: IndexFn, ctx) -> np.ndarray:
    """Vectorized :meth:`IndexFn.compute` over a segment context.

    Evaluates the declared closed form once per packet in the window,
    using the packet-aligned PC column (``ctx.aligned``) — for
    ``key == "packet"`` the scalar form divides the fetch PC down to the
    packet number, which equals ``aligned // fetch_width``.
    """
    bits = fn.index_bits
    if fn.scheme == "ghist_raw":
        low = ctx.req_ghist & np.uint64(mask(fn.history_bits))
        return low.astype(np.int64) & mask(bits)
    pc = ctx.aligned // fn.fetch_width if fn.key == "packet" else ctx.aligned
    if fn.scheme == "pc":
        return hash_pc_vec(pc, bits)
    if fn.scheme == "ghist":
        return fold_history_vec(ctx.req_ghist, fn.history_bits, bits)
    if fn.scheme == "gshare":
        return hash_pc_vec(pc, bits) ^ fold_history_vec(
            ctx.req_ghist, fn.history_bits, bits
        )
    if fn.scheme == "gselect":
        hist_part = bits // 2
        pc_part = bits - hist_part
        low = (ctx.req_ghist & np.uint64(mask(hist_part))).astype(np.int64)
        return (hash_pc_vec(pc, pc_part) << hist_part) | low
    raise ValueError(f"no vectorized closed form for scheme {fn.scheme!r}")


class LaneCounterKernel:
    """Generated packet-keyed laned-counter kernel (HBIM family, GTag)."""

    def __init__(
        self,
        component,
        counters: TableSpec,
        tags: Optional[TableSpec] = None,
    ):
        self.c = component
        self.counters = counters
        self.tags = tags
        table = component.derived_tables[counters.name]
        self._ctr = table.lanes()
        self._flat = table.flat()  # row * W + lane, the chain keys
        self._bits = counters.fields[0].bits
        if tags is not None:
            gate = component.derived_tables[tags.name]
            self._gate_valid = gate.data("valid")
            self._gate_tag = gate.data("tag")

    def lookup(self, ctx, state):
        c = self.c
        idx = index_columns(self.counters.index, ctx)
        rows = self._ctr[idx].astype(np.int64)
        # Forward every live (row, lane) counter through the window: the
        # value each packet reads equals the scalar sequential value, so
        # counter movement never cuts a segment — updates come from
        # predict-time metadata, and allocations (gated tables) only
        # happen on mispredicted packets, which end the segment.
        lanes = np.arange(ctx.W)
        if self.tags is not None:
            tag = c.tag_columns(ctx)
            hit = self._gate_valid[idx] & (self._gate_tag[idx] == tag)
            hrows = np.flatnonzero(hit)
            chains = forward_saturating(
                (idx[hrows, None] * ctx.W + lanes).ravel(),
                ctx.upd_cond[hrows].ravel(),
                ctx.rtaken_grid[hrows].ravel(),
                rows[hrows].ravel(),
                self._bits,
            )
            rows[hrows] = chains.pre.reshape(len(hrows), ctx.W)
        else:
            # Ungated: every row is live, so skip the gather/scatter.
            hrows = None
            chains = forward_saturating(
                (idx[:, None] * ctx.W + lanes).ravel(),
                ctx.upd_cond.ravel(),
                ctx.rtaken_grid.ravel(),
                rows.ravel(),
                self._bits,
            )
            rows = chains.pre.reshape(ctx.P, ctx.W)
        ctx.scratch[c.name] = (hrows, chains)
        out = state.copy()
        # A gated (tagged) table claims only its non-jump hit lanes; an
        # ungated base table provides a direction for every slot.
        if self.tags is not None:
            sel = hit[:, None] & ctx.lane_valid & ~out.is_jump
            out.hit = out.hit | sel
        else:
            sel = ctx.lane_valid & ~out.is_jump
            out.hit = out.hit | ctx.lane_valid
        out.taken = np.where(
            sel, counter_taken_vec(rows, self._bits), out.taken
        )
        return out

    def mutates(self, ctx):
        return np.zeros(ctx.P, dtype=bool)

    def commit(self, ctx, accepted):
        hrows, chains = ctx.scratch[self.c.name]
        if hrows is not None:
            accepted = int(np.searchsorted(hrows, accepted))
        if accepted:
            keys, values = chains.final(accepted * ctx.W)
            self._flat[keys] = values


class CandidateCounterKernel:
    """Generated branch-keyed pattern-counter kernel (two-level GAg/GAp)."""

    def __init__(self, component, counters: TableSpec):
        self.c = component
        self.counters = counters
        table = component.derived_tables[counters.name]
        self._table = table
        self._flat = table.flat()
        self._bits = counters.fields[0].bits

    def lookup(self, ctx, state):
        c = self.c
        ct = self.counters
        cand_grid = state.hit & state.is_branch & ctx.lane_valid
        has_cand = cand_grid.any(axis=1)
        cand = np.argmax(cand_grid, axis=1)  # first candidate lane
        branch_pc = ctx.aligned + cand
        way_bits = max(1, (ct.ways - 1).bit_length())
        way = hash_pc_vec(branch_pc, way_bits) % ct.ways
        index = index_columns(ct.index, ctx)
        key_all = way * ct.entries + index
        # One pattern counter read + trained per candidate packet, from
        # predict-time metadata: forward it through the window.
        crows = np.flatnonzero(has_cand)
        lanes = cand[crows]
        key = key_all[crows]
        chains = forward_saturating(
            key,
            ctx.upd_cond[crows, lanes],
            ctx.rtaken_grid[crows, lanes],
            self._flat[key],
            self._bits,
        )
        ctx.scratch[c.name] = (crows, chains)
        out = state.copy("hit", "taken")
        out.hit[crows, lanes] = True
        out.taken[crows, lanes] = counter_taken_vec(chains.pre, self._bits)
        return out

    def mutates(self, ctx):
        return np.zeros(ctx.P, dtype=bool)

    def commit(self, ctx, accepted):
        crows, chains = ctx.scratch[self.c.name]
        n = int(np.searchsorted(crows, accepted))
        if n:
            keys, values = chains.final(n)
            self._flat[keys] = values


def derived_kernel(component):
    """The generated columnar kernel for a spec-carrying component.

    Returns None when the trained table's shape falls outside the
    generated families — including every index with no vectorized closed
    form (:data:`~repro.spec.VECTOR_SCHEMES`: the local/path-history
    schemes, the two-level P variants' ``custom`` index) — and the caller
    then falls back to a hand-written kernel or the scalar path.
    """
    spec = component.spec
    if spec is None:
        return None
    trained = [t for t in spec.tables if t.update == "saturating-counter"]
    if len(trained) != 1:
        return None
    counters = trained[0]
    if (
        counters.index is None
        or counters.index.scheme not in VECTOR_SCHEMES
        or len(counters.fields) != 1
    ):
        return None
    gates = [t for t in spec.tables if t.update == "allocate-on-miss"]
    if counters.index.key == "packet":
        tags = gates[0] if gates else None
        if tags is not None and not hasattr(component, "tag_columns"):
            return None
        return LaneCounterKernel(component, counters, tags)
    if counters.index.key == "branch_pc" and not gates:
        return CandidateCounterKernel(component, counters)
    return None
