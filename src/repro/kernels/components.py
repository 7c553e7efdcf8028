"""Batch kernels: columnar ports of the custom-walk component lookups.

Hand-written kernels for the components whose lookups are not
closed-form over a declared spec (BTB/MicroBTB allocation+LRU, TAGE's
tagged cascade, the loop predictor).  The simple indexed-counter
families (HBIM, two-level G variants, GTag) get their kernels
*generated* from their :class:`~repro.spec.ComponentSpec` by
:mod:`repro.derive.kernels` instead.  Both implement the same
three-phase protocol the :class:`~repro.kernels.engine.SegmentEngine`
drives:

``lookup(ctx, state)``
    The component's scalar ``lookup`` over every packet in the window at
    once, against the **frozen** tables, consuming and producing
    :class:`~repro.kernels.engine.ColState` grids.  Must stash whatever
    the later phases need in ``ctx.scratch`` (keyed by component name —
    topology names are unique) and must not write any component state.

``mutates(ctx)``
    A boolean column marking packets whose commit-time events cannot be
    replayed from the frozen snapshot.  Every table write in the library
    stores a value derived from *predict-time* metadata (§III-D: updates
    reuse the counters carried in the meta field instead of re-reading the
    table), so a write by itself never invalidates the snapshot — its
    value is already known at predict time and ``commit`` scatters it.
    What does invalidate a packet is a **read-after-dirty-write hazard**
    that is not forwarded: its lookup read a table row that an earlier
    packet's write changed (the BTB's sets,
    :func:`~repro.kernels.vector_ops.earlier_dirty_same_key`), or an
    event whose effect is not closed-form — an allocation that changes
    which entries later lookups can match, the TAGE usefulness decay
    that halves every entry.  Saturating counters are forwarded instead
    (below), so their movement never marks a packet.  May over-mark (a
    spurious True only shortens the accepted segment); must never
    under-mark.  Values computed for packets at or beyond the first True
    are garbage by construction and are never used.

``commit(ctx, accepted)``
    Replay the writes of the accepted prefix, reusing what ``lookup``
    computed.  Forwarded counters are causal per key, so the lookup-time
    chains (:class:`~repro.kernels.vector_ops.CounterChains`) already
    hold every counter's value after any prefix: commit writes
    ``final(n)``, each touched key's value after its last event among
    the first ``n``, instead of scanning again.  The BTB's writes are
    safe to scatter because its hazard cut guarantees every write's value
    was computed from a set no earlier accepted packet had changed.

Update-time reads match the scalar components because the framework hands
updates the *predict-time* history (§III-E, ``bundle.ghist == req_ghist``),
so indices and tags regenerate identically from the context columns.
"""

from __future__ import annotations

import numpy as np

from repro._util import mask
from repro.components.btb import TARGET_BITS
from repro.kernels.vector_ops import (
    counter_is_weak_vec,
    counter_taken_vec,
    earlier_dirty_same_key,
    fold_shifts,
    forward_saturating,
    hash_pc_vec,
)


class BTBKernel:
    """Columnar :class:`~repro.components.btb.BTB`."""

    def __init__(self, component):
        self.c = component

    def lookup(self, ctx, state):
        c = self.c
        packet = ctx.aligned // c.fetch_width
        idx = hash_pc_vec(packet, c._index_bits)
        tag = (packet >> c._index_bits) & mask(c.tag_bits)
        match = c._valid[idx] & (c._tags[idx] == tag[:, None])
        hit = match.any(axis=1)
        w_safe = match.argmax(axis=1)  # first matching way, like _find_way
        sv = c._slot_valid[idx, w_safe] & hit[:, None] & ctx.lane_valid
        sj = c._slot_jump[idx, w_safe]
        tg = c._targets[idx, w_safe]
        ctx.scratch[c.name] = (idx, tag, hit, w_safe, sv, sj, tg)
        out = state.copy()
        jmp = sv & sj
        br = sv & ~sj
        out.hit = out.hit | sv
        out.target = np.where(sv, tg, out.target)
        out.is_jump = out.is_jump | jmp
        out.is_branch = np.where(jmp, False, out.is_branch | br)
        out.taken = out.taken | jmp
        return out

    def mutates(self, ctx):
        c = self.c
        idx, tag, hit, w_safe, sv, sj, tg = ctx.scratch[c.name]
        # The update applies only to a committed taken CFI with a known
        # target; in a pure packet the CFI is always taken.  Rewriting a
        # hit entry with identical slot contents leaves the set untouched;
        # a changed rewrite or an allocation dirties it.
        rows = np.arange(ctx.P)
        lane = np.maximum(ctx.cfi_lane, 0)
        unchanged = (
            sv[rows, lane]
            & (sj[rows, lane] == (ctx.cfi_is_jal | ctx.cfi_is_jalr))
            & (tg[rows, lane] == ctx.cfi_target & mask(TARGET_BITS))
        )
        dirty = ctx.has_cfi & (ctx.cfi_target >= 0) & ~(hit & unchanged)
        ctx.scratch[c.name] = (idx, tag, hit, w_safe, dirty)
        # Every packet reads its set (all ways); writes land in the same
        # set they read, so staleness is per-index.
        return earlier_dirty_same_key(idx, dirty)

    def commit(self, ctx, accepted):
        c = self.c
        idx, tag, hit, w_safe, dirty = ctx.scratch[c.name]
        # Only dirty writes change the table.  The hazard cut leaves at
        # most one per set in the prefix, after no other dirty write to
        # it, so the frozen ways and replacement pointers are exact.
        wr = np.flatnonzero(dirty[:accepted])
        if not len(wr):
            return
        sets = idx[wr]
        way = w_safe[wr]
        alloc = ~hit[wr]
        if alloc.any():
            s = sets[alloc]
            w = c._replace_ptr[s]
            way[alloc] = w
            c._replace_ptr[s] = (w + 1) % c.n_ways
            c._valid[s, w] = True
            c._tags[s, w] = tag[wr][alloc]
            c._slot_valid[s, w, :] = False
        lane = ctx.cfi_lane[wr]
        c._slot_valid[sets, way, lane] = True
        c._slot_jump[sets, way, lane] = ctx.cfi_is_jal[wr] | ctx.cfi_is_jalr[wr]
        c._targets[sets, way, lane] = ctx.cfi_target[wr] & mask(TARGET_BITS)


class MicroBTBKernel:
    """Columnar :class:`~repro.components.btb.MicroBTB`."""

    def __init__(self, component):
        self.c = component

    def lookup(self, ctx, state):
        c = self.c
        tag = (ctx.aligned // c.fetch_width) & mask(c.tag_bits)
        match = c._valid[None, :] & (tag[:, None] == c._tags[None, :])
        hit = match.any(axis=1)
        entry = np.argmax(match, axis=1)  # first matching entry, like _find
        stored = c._cfi_idx[entry]  # absolute lane of the tracked CFI
        is_jump = c._is_jump[entry]
        target = c._targets[entry]
        ctr = c._ctrs[entry].astype(np.int64)
        # Forward the per-entry direction counter: advances (hit branch
        # entry at the committed CFI lane) and fall-through decrements both
        # write from predict-time metadata.  CAM tags stay frozen-exact
        # because allocations cut every later packet.
        at_cfi = ctx.has_cfi & (ctx.cfi_lane == stored)
        advance = hit & ~is_jump & at_cfi
        decrement = hit & ~is_jump & ~ctx.has_cfi & (stored >= ctx.offset)
        hrows = np.flatnonzero(hit)
        chains = forward_saturating(
            entry[hrows],
            (advance | decrement)[hrows],
            advance[hrows],
            ctr[hrows],
            c.counter_bits,
        )
        ctr[hrows] = chains.pre
        ctx.scratch[c.name] = (tag, hit, hrows, chains)
        out = state.copy("hit", "is_branch", "is_jump", "taken", "target")
        in_pkt = hit & (stored >= ctx.offset)
        rows = np.flatnonzero(in_pkt)
        lanes = stored[rows]
        out.hit[rows, lanes] = True
        out.target[rows, lanes] = target[rows]
        jmp = is_jump[rows]
        out.is_jump[rows[jmp], lanes[jmp]] = True
        out.taken[rows[jmp], lanes[jmp]] = True
        br = ~jmp
        out.is_branch[rows[br], lanes[br]] = True
        out.taken[rows[br], lanes[br]] = counter_taken_vec(
            ctr[rows[br]], c.counter_bits
        )
        return out

    def _allocs(self, ctx):
        hit = ctx.scratch[self.c.name][1]
        # A miss allocates only for a taken CFI with a known target; in a
        # pure packet the CFI is always taken.
        return ~hit & ctx.has_cfi & (ctx.cfi_target >= 0)

    def mutates(self, ctx):
        # An allocation changes the CAM contents every later lookup matches
        # against, so everything after one is stale.  Counter movement is
        # forwarded and never cuts.
        alloc = self._allocs(ctx)
        return (np.cumsum(alloc) - alloc) > 0

    def commit(self, ctx, accepted):
        c = self.c
        tag, hit, hrows, chains = ctx.scratch[c.name]
        n = int(np.searchsorted(hrows, accepted))
        if n:
            entries, values = chains.final(n)
            c._ctrs[entries] = values
        al = np.flatnonzero(self._allocs(ctx)[:accepted])
        if len(al):  # at most one: every later packet was cut
            p = int(al[0])
            e = c._alloc_ptr
            c._alloc_ptr = (e + 1) % c.n_entries
            c._valid[e] = True
            c._tags[e] = tag[p]
            c._cfi_idx[e] = int(ctx.cfi_lane[p])
            c._is_jump[e] = bool(ctx.cfi_is_jal[p] or ctx.cfi_is_jalr[p])
            c._targets[e] = int(ctx.cfi_target[p])
            c._ctrs[e] = mask(c.counter_bits)


class TAGEKernel:
    """Columnar :class:`~repro.components.tage.TAGE`.

    Every table is handled at once: the per-table geometry becomes
    ``(rows, 1)`` constant columns built here, so one window computes
    all index and tag hashes as ``(T, P)`` grids and reads every table
    with one gather from the component's all-table arrays.

    Everything an update writes is forwarded through the window, in
    causal order: the provider and alternate rows' counter lanes (one
    chain; alternate reads only read), then the provider rows'
    usefulness, then the use-alt-on-new-alloc counter, each computed
    from the forwarded values before it.  So each packet reads what the
    scalar walk's earlier updates left, and only the usefulness decay,
    which halves every entry, cuts a segment.  Tags and valid bits stay
    frozen-exact: allocations happen only on mispredicted packets.
    """

    def __init__(self, component):
        self.c = component
        cfgs = component.tables
        T = len(cfgs)
        ibs = list(component._index_bits)
        tbs = [cfg.tag_bits for cfg in cfgs]
        # PC hashes: T index rows (packet) then T tag rows (packet >> 1).
        pc_bits = np.array(ibs + tbs, dtype=np.int64)[:, None]
        self._pc_shift = np.maximum(pc_bits, 1)  # the zero mask wins
        self._pc_shift2 = 2 * self._pc_shift
        self._pc_mask = np.array([mask(b) for b in ibs + tbs])[:, None]
        self._tag_rows = (np.arange(2 * T) >= T)[:, None]
        # History folds: index, tag and tag-1 widths, T rows each, by
        # the doubling XOR fold; a row that needs fewer shifts than the
        # widest one skips the rest through a zero keep-mask.
        hbs = [cfg.history_bits for cfg in cfgs] * 3
        fbs = ibs + tbs + [tb - 1 for tb in tbs]
        self._hist_mask = np.array(
            [mask(min(hb, 64)) for hb in hbs], dtype=np.uint64
        )[:, None]
        self._fold_mask = np.array(
            [mask(max(fb, 0)) for fb in fbs], dtype=np.uint64
        )[:, None]
        shifts = [fold_shifts(hb, fb) for hb, fb in zip(hbs, fbs)]
        self._fold_steps = [
            (
                np.array(
                    [sh[k] if k < len(sh) else 0 for sh in shifts],
                    dtype=np.uint64,
                )[:, None],
                np.array(
                    [mask(64) if k < len(sh) else 0 for sh in shifts],
                    dtype=np.uint64,
                )[:, None],
            )
            for k in range(max(map(len, shifts)))
        ]
        self._tag_mask = np.asarray(component._tag_masks, dtype=np.int64)[:, None]
        self._row_base = np.asarray(component._row_base)[:, None]
        self._T = T

    def index_tag(self, fetch_pc, ghist):
        """:meth:`TAGE._index_tag` of every table over packet columns,
        as ``(T, P)`` index and tag grids."""
        T = self._T
        packet = fetch_pc // self.c.fetch_width  # unaligned, as the scalar
        pc = np.where(self._tag_rows, packet >> 1, packet)
        hashed = (
            pc ^ (pc >> self._pc_shift) ^ (pc >> self._pc_shift2)
        ) & self._pc_mask
        h = np.asarray(ghist, dtype=np.uint64) & self._hist_mask
        for shift, keep in self._fold_steps:
            h ^= (h >> shift) & keep
        folded = (h & self._fold_mask).astype(np.int64)
        index = hashed[:T] ^ folded[:T]
        tag = (
            hashed[T:] ^ folded[T : 2 * T] ^ (folded[2 * T :] << 1)
        ) & self._tag_mask
        return index, tag

    def lookup(self, ctx, state):
        c = self.c
        P, W = ctx.P, ctx.W
        bits = c.counter_bits
        index, tag = self.index_tag(ctx.fetch_pc, ctx.req_ghist)
        rows = index + self._row_base  # (T, P) rows of the all-table arrays
        hit = c._all_valid[rows] & (c._all_tags[rows] == tag)
        # The provider is the longest-history hit, the alternate the next
        # one down, as the scalar ``hits[-1]`` and ``hits[-2]``.  Tags and
        # valid bits stay frozen-exact: allocations happen only on
        # mispredicted packets, which end the segment.
        seen = np.cumsum(hit, axis=0)
        n_hits = seen[-1]
        prov_valid = n_hits > 0
        alt_valid = n_hits > 1
        col = np.arange(P)
        prov_row = rows[np.argmax(hit & (seen == n_hits), axis=0), col]
        alt_row = rows[np.argmax(hit & (seen == n_hits - 1), axis=0), col]
        # Forward the counter lanes of both rows each packet reads, as
        # (packet, provider/alternate, lane) events: row-major order is
        # chronological.  Provider lanes train on the committed branches;
        # alternate reads only read.  Lanes outside the packet are never
        # used and are left out (they read 0).
        keys = np.stack((prov_row, alt_row), axis=1)[:, :, None] * W + np.arange(W)
        live = (
            np.stack((prov_valid, alt_valid), axis=1)[:, :, None]
            & ctx.lane_valid[:, None, :]
        ).ravel()
        ev = np.flatnonzero(live)
        train = np.zeros((P, 2, W), dtype=bool)
        train[:, 0] = ctx.upd_cond
        ev_keys = keys.ravel()[ev]
        ctrs = forward_saturating(
            ev_keys,
            train.ravel()[ev],
            np.broadcast_to(ctx.rtaken_grid[:, None, :], (P, 2, W)).ravel()[ev],
            c._all_ctrs.reshape(-1)[ev_keys].astype(np.int64),
            bits,
        )
        ctr = np.zeros(P * 2 * W, dtype=np.int64)
        ctr[ev] = ctrs.pre
        ctr = ctr.reshape(P, 2, W)
        prov_taken = counter_taken_vec(ctr[:, 0], bits)
        alt_taken = np.where(
            alt_valid[:, None],
            counter_taken_vec(ctr[:, 1], bits),
            state.hit & state.taken,
        )
        # Usefulness trains once per disagreeing committed lane, each
        # write from the same predict-time value, so the last such lane's
        # write survives: one event per provider packet.
        disagree = (prov_taken != alt_taken) & ctx.upd_cond
        last = W - 1 - np.argmax(disagree[:, ::-1], axis=1)
        u_ev = np.flatnonzero(prov_valid)
        u_rows = prov_row[u_ev]
        useful = forward_saturating(
            u_rows,
            disagree.any(axis=1)[u_ev],
            (prov_taken == ctx.rtaken_grid)[col, last][u_ev],
            c._all_useful[u_rows].astype(np.int64),
            c.u_bits,
        )
        prov_u = np.zeros(P, dtype=np.int64)
        prov_u[u_ev] = useful.pre
        newly = (prov_u == 0)[:, None] & counter_is_weak_vec(ctr[:, 0], bits)
        # The use-alt-on-new-alloc counter is a single saturating counter
        # trained once per newly-allocated disagreeing branch lane: each
        # packet's lookup reads the value left by every earlier packet's
        # trainings.
        ev_p, ev_l = np.nonzero(prov_valid[:, None] & newly & disagree)
        ua0 = int(c._use_alt_on_na)
        taken = prov_taken
        if len(ev_p):
            ua = forward_saturating(
                np.zeros(len(ev_p), dtype=np.int64),
                np.ones(len(ev_p), dtype=bool),
                alt_taken[ev_p, ev_l] == ctx.rtaken_grid[ev_p, ev_l],
                np.full(len(ev_p), ua0, dtype=np.int64),
                4,
            )
            first_ev = np.searchsorted(ev_p, col)
            ua_read = np.where(
                first_ev == 0, ua0, ua.post[np.maximum(first_ev - 1, 0)]
            )
            taken = np.where(newly & (ua_read >= 8)[:, None], alt_taken, taken)
        else:
            ua = None
            if ua0 >= 8:
                taken = np.where(newly, alt_taken, taken)
        ctx.scratch[c.name] = (ev // (2 * W), ctrs, u_ev, useful, ev_p, ua)
        out = state.copy()
        sel = prov_valid[:, None] & ctx.lane_valid & ~out.is_jump
        out.hit = out.hit | sel
        out.taken = np.where(sel, taken, out.taken)
        return out

    def mutates(self, ctx):
        # Usefulness decay fires every u_decay_period counted updates and
        # halves every entry; the boundary packet goes scalar and performs
        # the actual decay.  Counter, usefulness and use-alt movement is
        # forwarded and never cuts.
        c = self.c
        has_br = ctx.upd_cond.any(axis=1)
        update_seq = c._update_count + np.cumsum(has_br)
        return has_br & (update_seq % c.u_decay_period == 0)

    def commit(self, ctx, accepted):
        c = self.c
        ctr_p, ctrs, u_ev, useful, ev_p, ua = ctx.scratch[c.name]
        # The scalar update increments the decay clock once per committed
        # packet that carries at least one resolved branch.
        c._update_count += int(ctx.upd_cond[:accepted].any(axis=1).sum())
        n = int(np.searchsorted(ctr_p, accepted))
        if n:
            keys, values = ctrs.final(n)
            c._all_ctrs.reshape(-1)[keys] = values
        n = int(np.searchsorted(u_ev, accepted))
        if n:
            keys, values = useful.final(n)
            c._all_useful[keys] = values
        if ua is not None:
            n = int(np.searchsorted(ev_p, accepted))
            if n:
                c._use_alt_on_na = int(ua.final(n)[1][0])


class LoopKernel:
    """Columnar :class:`~repro.components.loop.LoopPredictor`.

    The loop predictor tracks at most one candidate per packet, so its
    per-window work is inherently ``O(P)`` rather than ``O(P*W)``.  Rather
    than approximate its five-field state machine (trip/conf/commit/spec/
    zero-streak, all coupled through the exit path) with scans and cut on
    the hard cases, the kernel grids the entry matches columnarly and then
    *replays the scalar state machine exactly* over the window's loop
    events — lookup, fire, and train per packet, in the scalar driver's
    order — against a private copy of each touched entry.  Every pure
    packet is then exact by construction: retraining exits, direction
    flips, and overflow invalidations all forward.  The kernel never cuts;
    allocations and repairs only occur on mispredicted packets, which end
    the segment before they commit.  The simulation keeps an undo log of
    each touched entry's state before every packet that touches it, so
    ``commit`` rolls the final states back to the accepted edge instead
    of simulating the prefix again.
    """

    def __init__(self, component):
        self.c = component

    def lookup(self, ctx, state):
        c = self.c
        branch_pc = ctx.aligned[:, None] + np.arange(ctx.W)[None, :]
        idx = hash_pc_vec(branch_pc, c._index_bits)
        tag = (branch_pc >> c._index_bits) & mask(c.tag_bits)
        ematch = c._valid[idx] & (c._tags[idx] == tag)
        cand_lanes = state.hit & state.is_branch & ctx.lane_valid & ematch
        train_grid = ematch & ctx.upd_cond
        # Row-major nonzero order is chronological: packets in time order,
        # lanes in scalar iteration order within a packet.
        p_c, l_c = np.nonzero(cand_lanes)
        p_t, l_t = np.nonzero(train_grid)
        preds, ctx.scratch[c.name] = self._simulate(
            ctx.P,
            p_c.tolist(),
            l_c.tolist(),
            idx[p_c, l_c].tolist(),
            ctx.rtaken_grid[p_c, l_c].tolist(),
            ctx.upd_cond[p_c, l_c].tolist(),
            p_t.tolist(),
            idx[p_t, l_t].tolist(),
            ctx.rtaken_grid[p_t, l_t].tolist(),
        )
        if not preds:
            return state.copy()
        p, lane, predicted = np.array(preds, dtype=np.int64).T
        out = state.copy("hit", "taken")
        out.hit[p, lane] = True
        out.taken[p, lane] = predicted
        return out

    def _simulate(self, P, p_c, l_c, e_c, rt_c, upd_c, p_t, e_t, rt_t):
        """Replay the scalar loop state machine over a window's ``P`` packets.

        The candidate lanes (``*_c``) and the training lanes (``*_t``) come
        as packet, lane, entry, resolved-direction and update-flag columns,
        each in chronological order.

        Returns ``(preds, (entries, undo))``: the (row, lane, taken)
        predictions the scalar lookups would make, the final simulated
        state of every touched entry keyed by index, and the undo log —
        ``(packet, entry, state before that packet)`` at each entry's first
        touch in a packet, in packet order.
        """
        c = self.c
        iter_top = mask(c.iter_bits)
        conf_threshold = c.CONF_THRESHOLD
        conf_max = c.CONF_MAX
        # entry -> [valid, direction, trip, spec, commit, conf, zstreak,
        # packet that last touched it]
        entries = {}
        undo = []

        def load(e):
            s = entries.get(e)
            if s is None:
                s = [
                    True,
                    bool(c._direction[e]),
                    int(c._trip[e]),
                    int(c._spec_iter[e]),
                    int(c._commit_iter[e]),
                    int(c._conf[e]),
                    int(c._zero_streak[e]),
                    p,
                ]
                entries[e] = s
                undo.append((p, e, tuple(s)))
            elif s[7] != p:
                undo.append((p, e, tuple(s)))
                s[7] = p
            return s

        preds = []
        i = j = 0
        nc = len(p_c)
        nt = len(p_t)
        while i < nc or j < nt:
            p = min(p_c[i] if i < nc else P, p_t[j] if j < nt else P)
            # Lookup + fire: the first candidate lane whose entry is still
            # valid (an in-window overflow may have invalidated it).
            fired = False
            while i < nc and p_c[i] == p:
                if not fired:
                    s = load(e_c[i])
                    if s[0]:
                        fired = True
                        spec = s[3]
                        if s[5] >= conf_threshold and s[2] > 0:
                            body = s[1]
                            preds.append(
                                (
                                    p,
                                    l_c[i],
                                    (not body) if spec == s[2] else body,
                                )
                            )
                        if upd_c[i]:
                            s[3] = (
                                min(spec + 1, iter_top)
                                if rt_c[i] == s[1]
                                else 0
                            )
                i += 1
            # Commit-time training, every matched committed branch lane.
            while j < nt and p_t[j] == p:
                s = load(e_t[j])
                if not s[0]:
                    j += 1
                    continue
                if rt_t[j] == s[1]:  # loop body
                    count = s[4] + 1
                    if count > iter_top:
                        s[0] = False  # iteration overflow: untrackable
                    else:
                        s[4] = count
                        s[6] = 0
                else:  # loop exit: trip-count training
                    observed = s[4]
                    if observed == s[2] and observed > 0:
                        s[5] = min(s[5] + 1, conf_max)
                    else:
                        s[2] = observed
                        s[5] = 1 if observed > 0 else 0
                    s[4] = 0
                    if observed == 0:
                        streak = s[6] + 1
                        if streak >= 3:
                            # Allocation-polarity flip (see _train).
                            s[1] = not s[1]
                            s[2] = 0
                            s[5] = 0
                            s[3] = 0
                            s[6] = 0
                        else:
                            s[6] = streak
                    else:
                        s[6] = 0
                j += 1
        return preds, (entries, undo)

    def mutates(self, ctx):
        return np.zeros(ctx.P, dtype=bool)

    def commit(self, ctx, accepted):
        c = self.c
        entries, undo = ctx.scratch[c.name]
        k = len(undo)
        while k and undo[k - 1][0] >= accepted:
            k -= 1
            _, e, before = undo[k]
            entries[e] = before
        for e, s in entries.items():
            c._valid[e] = s[0]
            c._direction[e] = s[1]
            c._trip[e] = s[2]
            c._spec_iter[e] = s[3]
            c._commit_iter[e] = s[4]
            c._conf[e] = s[5]
            c._zero_streak[e] = s[6]
