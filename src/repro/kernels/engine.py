"""The columnar segment engine: batch-predict branch segments between
mispredicts.

The scalar replay walker (:func:`repro.backends.replay.drive_columns`)
steps packet by packet through Python component code.  This engine instead
takes a *window* of upcoming branch records, reconstructs every fetch
packet the walker would form, runs the composer's evaluation plan over all
of them in one vectorized pass against the **frozen** component tables, and
accepts the maximal prefix of *pure* packets — packets that are neither
mispredicted nor write state the kernels cannot carry through the window.
Kernels forward saturating counters through the window (each packet reads
the value every earlier packet's update left) and commit their values
after the accepted prefix; the rest a pure packet changes — counts, the
global history register, managed counters such as the TAGE update count —
is closed-form arithmetic.  The first impure packet — a mispredict, an
allocation, a write a later read sees that no kernel forwards — cuts the
segment and is re-run through the scalar predict/resolve/commit path, so
update ordering, repair semantics, and no-replay stale-history windows
stay exactly the scalar code's.

Correctness hinges on one induction: packet ``q``'s vectorized values are
exact as long as every packet before it is pure (every earlier write is
forwarded, so what ``q`` reads is current), and the first non-pure packet is
therefore detected exactly; garbage computed for packets *after* it can
never move the cut earlier.  Over-marking a packet as state-changing is
always safe — it only shortens the accepted prefix — so the per-kernel
``mutates`` rules may be conservative where exactness is expensive.

Eligibility is per-composition (:func:`engine_for`): every component must
advertise a kernel via ``columnar_kernel()`` (capability CON009, the
columnar sibling of ``branchless_inert``/CON008), the plan must have no
arbitration step, and the composition must not use local/path history or
CFI serialization.  Anything else falls back to the scalar walker.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.topology import _ARBITRATE, _FALLTHROUGH, _MERGE
from repro.workloads.traces import (
    TYPE_CALL,
    TYPE_COND,
    TYPE_JAL,
    TYPE_JALR,
    TYPE_RET,
)
from repro.kernels.vector_ops import rolling_histories


class ColState:
    """Columnar :class:`~repro.core.prediction.SlotPrediction` grids.

    One row per fetch packet, one column per *absolute* lane of the
    aligned fetch group (lane = pc - aligned_base).  Lanes below a
    packet's entry offset are outside the packet; kernels must gate
    writes with ``ctx.lane_valid`` so those lanes keep the fall-through
    default, exactly as the scalar vectors never materialize them.
    ``target`` uses -1 for the scalar ``None``.

    Grids are copy-on-write: plan values share them, so a kernel either
    replaces a grid with a new array (``out.hit = out.hit | sel``) or
    names it in :meth:`copy` before writing into it in place.
    """

    __slots__ = ("hit", "is_branch", "is_jump", "taken", "target")

    @classmethod
    def fallthrough(cls, packets: int, width: int) -> "ColState":
        state = cls.__new__(cls)
        state.hit = np.zeros((packets, width), dtype=bool)
        state.is_branch = np.zeros((packets, width), dtype=bool)
        state.is_jump = np.zeros((packets, width), dtype=bool)
        state.taken = np.zeros((packets, width), dtype=bool)
        state.target = np.full((packets, width), -1, dtype=np.int64)
        return state

    def copy(self, *writable: str) -> "ColState":
        """A state sharing this one's grids, except that each grid named
        in ``writable`` is a private copy the caller may write in place."""
        clone = ColState.__new__(ColState)
        clone.hit = self.hit
        clone.is_branch = self.is_branch
        clone.is_jump = self.is_jump
        clone.taken = self.taken
        clone.target = self.target
        for name in writable:
            setattr(clone, name, getattr(self, name).copy())
        return clone


def merge_by_hit_vec(winner: ColState, fallback: ColState) -> ColState:
    """Columnar :func:`repro.core.topology.merge_by_hit`."""
    sel = winner.hit
    merged = ColState.__new__(ColState)
    merged.hit = winner.hit | fallback.hit
    merged.is_branch = np.where(sel, winner.is_branch, fallback.is_branch)
    merged.is_jump = np.where(sel, winner.is_jump, fallback.is_jump)
    merged.taken = np.where(sel, winner.taken, fallback.taken)
    merged.target = np.where(sel, winner.target, fallback.target)
    return merged


class TraceColumns:
    """Per-record columns of one branch trace, derived once per run.

    Each engine window reads slices of these, so what depends only on a
    record (its class, whether it transfers control, its static target)
    or on a prefix of the trace (instruction spans, conditional counts)
    is paid once per cell rather than once per window.
    """

    __slots__ = (
        "pcs",
        "taken",
        "targets",
        "transfers",
        "is_cond",
        "is_jal",
        "is_jalr",
        "static_targets",
        "span_cum",
        "cond_cum",
        "n_records",
    )

    @classmethod
    def from_trace(cls, trace) -> "TraceColumns":
        cols = cls.__new__(cls)
        cols.pcs = np.asarray(trace.pcs, dtype=np.int64)
        types = np.asarray(trace.types)
        cols.taken = np.asarray(trace.taken, dtype=bool)
        cols.targets = np.asarray(trace.targets, dtype=np.int64)
        cols.n_records = len(cols.pcs)
        # The record transfers control somewhere other than pc + 1 (the
        # walker only ends a packet on such a transfer or at the span
        # boundary; degenerate taken-to-next-pc transfers keep walking).
        cols.transfers = cols.targets != cols.pcs + 1
        cols.is_cond = types == TYPE_COND
        cols.is_jal = (types == TYPE_JAL) | (types == TYPE_CALL)
        cols.is_jalr = (types == TYPE_JALR) | (types == TYPE_RET)
        slot_targets = np.asarray(trace.slot_targets, dtype=np.int64)
        cols.static_targets = slot_targets[cols.pcs]
        # span_cum[i]: instructions from record 0 through record i when
        # each record's run starts at the previous record's target.
        cols.span_cum = np.zeros(cols.n_records, dtype=np.int64)
        np.cumsum(cols.pcs[1:] - cols.targets[:-1] + 1, out=cols.span_cum[1:])
        # cond_cum[i]: conditional records before record i.
        cols.cond_cum = np.zeros(cols.n_records + 1, dtype=np.int64)
        np.cumsum(cols.is_cond, out=cols.cond_cum[1:])
        return cols


class SegmentContext:
    """Everything one engine window computes about its fetch packets.

    Built by :meth:`SegmentEngine._build_context` from ``K`` consecutive
    branch records; kernels read the per-packet columns at lookup time and
    the record grids at mutation time, stashing per-component scratch in
    ``scratch`` between the two phases.
    """

    __slots__ = (
        "P", "W", "scratch",
        # per-packet lookup columns
        "fetch_pc", "aligned", "offset", "lane_valid", "req_ghist",
        # per-packet record grids (absolute lanes)
        "cond_grid", "rtaken_grid", "upd_cond",
        # architectural-cut columns
        "has_cfi", "cfi_lane", "cfi_is_jal", "cfi_is_jalr",
        "cfi_static_target", "cfi_target",
        # accounting (cumulative through packet p, inclusive)
        "first_k", "instr_incl", "branches_incl", "pos_incl", "jumps_incl",
        "next_fp", "rolled", "n_records",
    )


class EngineResult:
    """What one :meth:`SegmentEngine.run` accepted, and why it stopped.

    ``cause`` names what ended the segment: the name of the first
    component in plan order whose ``mutates`` column marks the packet at
    the stop position, else ``"mispredict"`` (a marked packet may have
    been predicted from state an earlier write changed, so its own
    mispredict flag is not trusted), or None when the stop is a window or
    budget artifact.  A non-None cause means the caller should walk
    exactly that packet through the scalar path rather than re-attempt
    the engine on it (``impure_next``).  An attempt that accepts nothing
    has ``packets == 0``.
    """

    __slots__ = ("packets", "records", "instructions", "branches", "next_pc", "cause")

    def __init__(self, packets, records, instructions, branches, next_pc, cause=None):
        self.packets = packets
        self.records = records
        self.instructions = instructions
        self.branches = branches
        self.next_pc = next_pc
        self.cause = cause

    @property
    def impure_next(self) -> bool:
        """Whether the packet the scalar walker resumes at is known to
        mispredict or write state."""
        return self.cause is not None


_NO_PROGRESS = EngineResult(0, 0, 0, 0, 0)


def engine_for(predictor) -> Optional["SegmentEngine"]:
    """Build a segment engine for ``predictor``, or None when ineligible.

    The gate mirrors the ``drive_columns`` preconditions plus the
    columnar-specific ones: no arbitration step in the plan, kernels for
    every component, matching fetch widths, a <=64-bit global history (the
    rolling-history builder's register width), and no local/path history
    (their providers are not columnarized).  ``columnar_kernel()`` is the
    only batch-replay declaration read: a component opts in by returning
    a kernel, whether or not it carries a spec.  Telemetry and
    stale-history windows are runtime conditions checked by the driver,
    not here.
    """
    config = predictor.config
    if config.serialize_cfi or config.global_history_bits > 64:
        return None
    if predictor._uses_local or predictor._uses_path:
        return None
    if not predictor.branchless_inert:
        return None
    for component in predictor.components:
        width = getattr(component, "fetch_width", None)
        if width is not None and width != config.fetch_width:
            return None
    kernels = {}
    for component, _sources, _out, name, _bits, kind, _inputs in predictor._plan.steps:
        if kind == _ARBITRATE:
            return None  # learned selection is not vectorized yet
        if kind != _MERGE:
            kernel = component.columnar_kernel()
            if kernel is None:
                return None
            kernels[name] = kernel
    return SegmentEngine(predictor, kernels)


class SegmentEngine:
    """Vectorized pure-packet evaluator for one composed predictor.

    Runs the composer's own :class:`~repro.core.topology.EvaluationPlan`
    over columns: each lookup step through the component's kernel
    (``kernels``, keyed by component name), each merge step through
    :func:`merge_by_hit_vec`.  As in the scalar plan, one fall-through
    state feeds every step that reads it, so a kernel's ``lookup`` must
    return a new state and leave the one passed in, and its grids,
    unwritten (see :class:`ColState`).
    """

    def __init__(self, predictor, kernels):
        self.predictor = predictor
        self.plan = predictor._plan
        #: Kernels by component name, in the plan's lookup order, which is
        #: also their commit order.
        self.kernels = kernels
        self.width = predictor.config.fetch_width
        self.ghist_bits = predictor.config.global_history_bits

    # ------------------------------------------------------------------
    def _build_context(
        self, cols: TraceColumns, pc0: int, bi: int, k: int, ghist0: int
    ) -> SegmentContext:
        W = self.width
        window = slice(bi, bi + k)
        bpc = cols.pcs[window]
        btaken = cols.taken[window]
        btgt = cols.targets[window]
        tr = cols.transfers[window]
        is_cond = cols.is_cond[window]
        K = len(bpc)
        rec_idx = np.arange(K)

        # --- packetization: group records exactly as the walker fetches.
        # run_from[k]: one past the last transfer before record k, or 0
        # when the record's sequential run starts at pc0.
        run_from = np.zeros(K, dtype=np.int64)
        np.maximum.accumulate(np.where(tr[:-1], rec_idx[1:], 0), out=run_from[1:])
        seq_start = np.where(run_from > 0, btgt[run_from - 1], pc0)
        # The fetch PC of the packet holding record k: the sequential-run
        # start if the record sits in the run's first fetch group (whose
        # aligned base is at most the start), else the aligned base of the
        # record's own fetch group.
        pkt_start = np.maximum(seq_start, bpc - bpc % W)
        new_pkt = np.empty(K, dtype=bool)
        new_pkt[0] = True
        np.logical_or(tr[:-1], pkt_start[1:] != pkt_start[:-1], out=new_pkt[1:])
        pid = np.cumsum(new_pkt) - 1
        first_k = np.flatnonzero(new_pkt)
        P = len(first_k)
        last_k = np.empty(P, dtype=np.int64)
        last_k[:-1] = first_k[1:] - 1
        last_k[-1] = K - 1

        ctx = SegmentContext.__new__(SegmentContext)
        ctx.P, ctx.W = P, W
        ctx.scratch = {}
        ctx.n_records = K
        ctx.first_k = first_k
        ctx.fetch_pc = pkt_start[first_k]
        ctx.offset = ctx.fetch_pc % W
        ctx.aligned = ctx.fetch_pc - ctx.offset
        ctx.lane_valid = np.arange(W) >= ctx.offset[:, None]
        lane = bpc - ctx.aligned[pid]

        # --- instruction accounting (cumulative, inclusive of packet p).
        end_tr = tr[last_k]
        last_pc = bpc[last_k]
        # A packet whose last record falls through runs on to the span end;
        # the driver resumes from next_fp, so the trailing plains are
        # charged here and never recounted.
        ctx.instr_incl = (
            cols.span_cum[bi + last_k]
            + (bpc[0] - pc0 + 1 - cols.span_cum[bi])
            + np.where(end_tr, 0, ctx.aligned + (W - 1) - last_pc)
        )
        ctx.next_fp = np.where(end_tr, btgt[last_k], ctx.aligned + W)
        ctx.branches_incl = cols.cond_cum[bi + 1 + last_k] - cols.cond_cum[bi]

        # --- architectural cut: the first taken record is the packet's CFI
        # (for pure packets it coincides with the predicted cut).
        first_taken = np.minimum.reduceat(
            np.where(btaken, rec_idx, K), first_k
        )
        ctx.has_cfi = first_taken < K
        cfi = bi + np.minimum(first_taken, K - 1)
        ctx.cfi_lane = np.where(ctx.has_cfi, cols.pcs[cfi] - ctx.aligned, -1)
        ctx.cfi_is_jal = ctx.has_cfi & cols.is_jal[cfi]
        ctx.cfi_is_jalr = ctx.has_cfi & cols.is_jalr[cfi]
        ctx.cfi_static_target = np.where(
            ctx.has_cfi, cols.static_targets[cfi], -1
        )
        ctx.jumps_incl = np.cumsum(ctx.cfi_is_jal | ctx.cfi_is_jalr)

        # --- update gating: committed br_mask covers conditional records at
        # or before the packet's cut (everything the walker fetched).  No
        # two records of a window share a packet lane.
        upd_rec = is_cond & (rec_idx <= first_taken[pid])
        cell = pid * W + lane
        ctx.cond_grid = np.zeros((P, W), dtype=bool)
        ctx.cond_grid.reshape(-1)[cell] = is_cond
        ctx.rtaken_grid = np.zeros((P, W), dtype=bool)
        ctx.rtaken_grid.reshape(-1)[cell] = btaken
        ctx.upd_cond = np.zeros((P, W), dtype=bool)
        ctx.upd_cond.reshape(-1)[cell] = upd_rec

        # --- rolling global history: the register value each packet's
        # lookup observes, and the value to restore after the last accepted
        # packet.
        ctx.pos_incl = np.cumsum(upd_rec)[last_k]
        ctx.rolled = rolling_histories(
            ghist0, btaken[upd_rec], self.ghist_bits
        )
        pos_before = np.zeros(P, dtype=np.int64)
        pos_before[1:] = ctx.pos_incl[:-1]
        ctx.req_ghist = ctx.rolled[pos_before]
        ctx.cfi_target = None  # filled after topology evaluation
        return ctx

    # ------------------------------------------------------------------
    def run(
        self, cols: TraceColumns, pc0: int, bi: int, k: int, budget: int
    ) -> EngineResult:
        """Accept the longest pure-packet prefix of the next ``k`` records.

        Commits everything the scalar walker would have committed for those
        packets (counts, global history, managed component state) and
        returns the accepted extent; accepting zero packets has no side
        effects at all.
        """
        predictor = self.predictor
        ctx = self._build_context(cols, pc0, bi, k, predictor._global.read())
        P = ctx.P
        # Never accept the window's final packet unless the trace ends with
        # it: later records could still extend it.
        max_packets = P if bi + ctx.n_records == cols.n_records else P - 1
        if max_packets <= 0:
            return _NO_PROGRESS

        plan = self.plan
        values = plan._blank.copy()
        values[_FALLTHROUGH] = ColState.fallthrough(P, ctx.W)
        for _component, sources, out, name, _bits, kind, _inputs in plan.steps:
            if kind == _MERGE:
                winner, fallback = sources
                values[out] = merge_by_hit_vec(values[winner], values[fallback])
            else:
                values[out] = self.kernels[name].lookup(ctx, values[sources])
        final = values[plan.filled_stages[-1]]

        # The walker resolves only direction mispredicts on conditional
        # records, and it checks every record it walks — including records
        # beyond a degenerate (taken-to-pc+1) cut.
        wrong = ((final.taken != ctx.rtaken_grid) & ctx.cond_grid).any(axis=1)

        # The committed cfi_target: static targets for conditional/JAL CFIs
        # (pre-decode recomputes them), the composed prediction for JALR
        # (replay never corrects targets, so the BTB learns the predicted
        # one, exactly as the scalar path does).
        rows = np.arange(P)
        lane = np.maximum(ctx.cfi_lane, 0)
        ctx.cfi_target = np.where(
            ctx.cfi_is_jalr, final.target[rows, lane], ctx.cfi_static_target
        )

        columns = [
            (name, kernel.mutates(ctx)) for name, kernel in self.kernels.items()
        ]
        mutating = wrong
        for _name, column in columns:
            mutating = mutating | column

        impure = np.flatnonzero(mutating)
        accepted = int(impure[0]) if len(impure) else P
        impure_at = accepted
        accepted = min(accepted, max_packets)
        accepted = min(
            accepted, int(np.searchsorted(ctx.instr_incl, budget, side="right"))
        )
        # Why the segment ended, when the packet the scalar walker resumes
        # at is known-impure (rather than the stop being a window/budget
        # artifact).
        cause = None
        if accepted == impure_at < P:
            marked = (name for name, column in columns if column[impure_at])
            cause = next(marked, "mispredict")
        if accepted <= 0:
            return EngineResult(0, 0, 0, 0, 0, cause) if cause else _NO_PROGRESS

        last = accepted - 1
        predictor._global.restore(int(ctx.rolled[int(ctx.pos_incl[last])]))
        stats = predictor.stats
        stats.predictions += accepted
        stats.committed_packets += accepted
        stats.committed_branches += int(ctx.pos_incl[last])
        stats.committed_jumps += int(ctx.jumps_incl[last])
        for kernel in self.kernels.values():
            kernel.commit(ctx, accepted)
        records = (
            ctx.n_records if accepted == P else int(ctx.first_k[accepted])
        )
        return EngineResult(
            packets=accepted,
            records=records,
            instructions=int(ctx.instr_incl[last]),
            branches=int(ctx.branches_incl[last]),
            next_pc=int(ctx.next_fp[last]),
            cause=cause,
        )


# ----------------------------------------------------------------------
# CON009 stimulus support: a minimal lookup-only context so the contract
# harness can compare kernel.lookup against the scalar lookup slot by slot.
# ----------------------------------------------------------------------
def stimulus_context(
    fetch_pcs: List[int], ghists: List[int], width: int
) -> SegmentContext:
    """A lookup-phase context with no records (empty update grids)."""
    P = len(fetch_pcs)
    ctx = SegmentContext.__new__(SegmentContext)
    ctx.P, ctx.W = P, width
    ctx.scratch = {}
    ctx.fetch_pc = np.asarray(fetch_pcs, dtype=np.int64)
    ctx.aligned = ctx.fetch_pc - ctx.fetch_pc % width
    ctx.offset = ctx.fetch_pc % width
    ctx.lane_valid = np.arange(width)[None, :] >= ctx.offset[:, None]
    ctx.req_ghist = np.asarray(ghists, dtype=np.uint64)
    ctx.cond_grid = np.zeros((P, width), dtype=bool)
    ctx.rtaken_grid = np.zeros((P, width), dtype=bool)
    ctx.upd_cond = np.zeros((P, width), dtype=bool)
    ctx.has_cfi = np.zeros(P, dtype=bool)
    ctx.cfi_lane = np.full(P, -1, dtype=np.int64)
    return ctx


def state_from_vectors(vectors, ctx: SegmentContext) -> ColState:
    """Encode scalar predict_in vectors into absolute-lane grids."""
    state = ColState.fallthrough(ctx.P, ctx.W)
    for p, vector in enumerate(vectors):
        off = int(ctx.offset[p])
        for i, slot in enumerate(vector.slots):
            lane = off + i
            state.hit[p, lane] = slot.hit
            state.is_branch[p, lane] = slot.is_branch
            state.is_jump[p, lane] = slot.is_jump
            state.taken[p, lane] = slot.taken
            state.target[p, lane] = -1 if slot.target is None else slot.target
    return state


def state_matches_vector(
    state: ColState, p: int, offset: int, vector
) -> Tuple[bool, str]:
    """Compare one packet row of ``state`` against a scalar output vector."""
    for i, slot in enumerate(vector.slots):
        lane = offset + i
        got = (
            bool(state.hit[p, lane]),
            bool(state.is_branch[p, lane]),
            bool(state.is_jump[p, lane]),
            bool(state.taken[p, lane]),
            int(state.target[p, lane]),
        )
        want = (
            bool(slot.hit),
            bool(slot.is_branch),
            bool(slot.is_jump),
            bool(slot.taken),
            -1 if slot.target is None else int(slot.target),
        )
        if got != want:
            return False, (
                f"slot {i}: kernel {got} != scalar {want} "
                f"(hit/is_branch/is_jump/taken/target)"
            )
    return True, ""
