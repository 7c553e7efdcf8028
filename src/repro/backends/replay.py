"""The trace-driven walker: one commit-order walk over branch columns.

Drives a composed predictor directly from
:class:`~repro.workloads.traces.BranchTrace` npz columns — the
CBP/ChampSim-style workflow that makes large-scale predictor studies
tractable.  Both trace-driven backends (:mod:`repro.backends.trace`) run
this one walker, :func:`drive_columns`: ``trace`` over a live capture,
``replay`` over a live capture or a stored trace.  Three properties make
it fast:

1. **No ISA execution.**  The architectural PC stream is fully determined
   by the trace's entry PC plus its control-flow records (non-CFI
   instructions advance the PC by one), so the stream is *reconstructed*
   from the columnar trace in batched chunks; register/memory semantics
   never run.  Pre-decoded packets come from the trace's static slot
   tables, bit-identical to what the program image would pre-decode to.
2. **Plain runs are consumed arithmetically.**  Between two control-flow
   records every executed address is statically branch-free, so every
   aligned packet that fits entirely inside the gap is branchless; the
   walker accounts those packets with integer arithmetic — no
   per-instruction records, no predictor query (exact by the
   ``branchless_inert`` contract, rule CON008).  The skip is off for a
   component that learns on branchless packets or an attached telemetry
   collector, and suspended inside a no-replay stale-history window.
3. **Branchy packets are batch-predicted** by the segment engine
   (:mod:`repro.kernels.engine`), which runs the composer's evaluation
   plan over columns when every component has a columnar kernel; the
   scalar body walks only the impure packets.  One break-even rule decides
   when to attempt: an attempt that commits fewer than ``_BREAK_EVEN``
   branch records makes the walker walk scalar for a while first.

All three are exact: the walker reproduces the per-instruction reference
walk's branch and mispredict counts bit for bit (asserted against
:func:`repro.fuzz.reference.drive_stream` by the test suite, the
``backends`` fuzz oracle and ``benchmarks/bench_backends.py``).
"""

from __future__ import annotations

from typing import Optional

from repro.backends.base import WalkCounts
from repro.core.composer import ComposedPredictor
from repro.core.prediction import INVALID_SLOT, PLAIN_SLOT, PacketCache, PreDecodedSlot
from repro.workloads.traces import (
    BranchTrace,
    SLOT_COND,
    SLOT_JAL,
    SLOT_JAL_CALL,
    SLOT_JALR,
    SLOT_JALR_RET,
    SLOT_PLAIN,
    TYPE_COND,
)

#: Branch records are decoded from npz columns to plain Python lists in
#: chunks of this many entries, keeping per-record numpy scalar overhead
#: out of the walk loop without materializing huge traces at once.
_CHUNK = 1 << 16

#: Segment-engine break-even, in branch records: an attempt that commits
#: fewer did not pay for its fixed numpy cost over walking them scalar.
#: Attempts that reach it retry at once; attempts that fall short make the
#: walker walk that many packets scalar first, doubling the wait per
#: consecutive shortfall.
_BREAK_EVEN = 16
#: Largest engine window (branch records per attempt), which bounds one
#: attempt's arrays, and the longest scalar wait between attempts.
_WINDOW_MAX = 4096


def trace_packets(trace: BranchTrace, fetch_width: int) -> PacketCache:
    """Pre-decoded packets rebuilt from the trace's static slot tables.

    Produces slots field-identical to what
    :func:`~repro.core.prediction.predecode_slot` yields from the program
    image (SFB conversion is a cycle-core decode feature and does not
    apply to the trace-driven backends).
    """
    if trace.slot_kinds is None or trace.slot_targets is None:
        raise ValueError(
            "trace has no pre-decode slot tables (schema-1 capture); "
            "re-capture it with this version to make it replayable"
        )
    kinds = trace.slot_kinds.tolist()
    targets = trace.slot_targets.tolist()
    n = len(kinds)

    def slot_fn(pc: int) -> PreDecodedSlot:
        if pc < 0 or pc >= n:
            return INVALID_SLOT
        kind = kinds[pc]
        if kind == SLOT_PLAIN:
            return PLAIN_SLOT
        target = targets[pc]
        direct = None if target < 0 else target
        if kind == SLOT_COND:
            return PreDecodedSlot(is_cond_branch=True, direct_target=direct)
        if kind == SLOT_JAL:
            return PreDecodedSlot(is_jal=True, direct_target=direct)
        if kind == SLOT_JAL_CALL:
            return PreDecodedSlot(is_jal=True, is_call=True, direct_target=direct)
        if kind == SLOT_JALR:
            return PreDecodedSlot(is_jalr=True)
        if kind == SLOT_JALR_RET:
            return PreDecodedSlot(is_jalr=True, is_ret=True)
        raise ValueError(f"corrupt slot table: unknown kind {kind} at pc {pc}")

    return PacketCache(slot_fn, fetch_width)


def drive_columns(
    predictor: ComposedPredictor,
    trace: BranchTrace,
    packets: PacketCache,
    max_instructions: Optional[int] = None,
    engine=None,
) -> WalkCounts:
    """Drive ``predictor`` straight off the branch columns of ``trace``.

    Replicates the reference commit-order walk
    (:func:`repro.fuzz.reference.drive_stream`) record for record,
    reconstructing the record stream on the fly: between two control-flow
    records the PC advances sequentially.

    The walker decides the arithmetic skip itself.  It is on when the
    predictor is
    :attr:`~repro.core.composer.ComposedPredictor.branchless_inert` and
    no telemetry collector is attached (a collector counts every packet).
    Then every aligned packet that fits entirely before the next branch PC
    is branchless and state-neutral, so its instructions are *counted*,
    never walked — except inside an active no-replay stale-history window,
    where every query must still happen (§VI-B).  With the skip off, every
    packet goes through the predictor.

    With a :class:`~repro.kernels.engine.SegmentEngine` (built by
    :func:`repro.kernels.engine.engine_for`) and the skip on, the engine
    first tries to batch-predict a window of upcoming branch records
    before each scalar fetch, committing the maximal pure prefix in one
    step (:meth:`~repro.kernels.engine.SegmentEngine.run`).  The scalar
    body resumes at the first impure packet — the mispredicting or
    state-writing one — so resolve/repair ordering is untouched.  An
    attempt that commits fewer than ``_BREAK_EVEN`` records is followed by
    a scalar wait that doubles per consecutive shortfall (up to
    ``_WINDOW_MAX`` packets).  Stale windows disable the engine until they
    drain.  ``engine=None`` pins the scalar walk.
    """
    total = trace.instruction_count
    n = total if max_instructions is None else min(total, max_instructions)
    width = packets.fetch_width
    packet = packets.packet
    predict = predictor.predict
    commit = predictor.commit_packet
    resolve = predictor.resolve_mispredict
    skip = predictor.branchless_inert and predictor.telemetry is None
    if not skip:
        engine = None

    n_br = len(trace)

    def load(start: int):
        """The branch columns of one chunk from ``start``, as lists."""
        end = min(start + _CHUNK, n_br)
        return (
            trace.pcs[start:end].tolist(),
            (trace.types[start:end] == TYPE_COND).tolist(),
            trace.taken[start:end].tolist(),
            trace.targets[start:end].tolist(),
        )

    # The next branch record is ``chunk_start + ci``.
    chunk_start = 0
    ci = 0
    b_pcs, b_conds, b_takens, b_targets = load(0)
    next_branch = b_pcs[0] if b_pcs else None

    if engine is not None:
        from repro.kernels.engine import TraceColumns

        cols = TraceColumns.from_trace(trace)
    # Each window is twice the last attempt's yield, and never below twice
    # the break-even, so a window at its floor can still reach it.
    window = 2 * _BREAK_EVEN
    wait = _BREAK_EVEN
    scalar_quota = 0

    instructions = 0
    branches = 0
    mispredicts = 0
    pc = trace.entry_pc
    while instructions < n:
        if (
            engine is not None
            and scalar_quota == 0
            and next_branch is not None
            and not predictor.stale_window_active
        ):
            bi = chunk_start + ci
            seg = engine.run(cols, pc, bi, min(window, n_br - bi), n - instructions)
            if seg.packets:
                instructions += seg.instructions
                branches += seg.branches
                pc = seg.next_pc
                bi += seg.records
                if bi < n_br:
                    if bi - chunk_start >= len(b_pcs):
                        chunk_start = bi - bi % _CHUNK
                        b_pcs, b_conds, b_takens, b_targets = load(chunk_start)
                    ci = bi - chunk_start
                    next_branch = b_pcs[ci]
                else:
                    next_branch = None
            window = min(max(2 * seg.records, 2 * _BREAK_EVEN), _WINDOW_MAX)
            if seg.records >= _BREAK_EVEN:
                # Paid off: walk only the packet known to mispredict or
                # write state, if that is what ended the segment, and retry.
                wait = _BREAK_EVEN
                scalar_quota = 1 if seg.impure_next else 0
            else:
                # Too short to pay: back off in mispredict-dense regions.
                scalar_quota = wait
                wait = min(2 * wait, _WINDOW_MAX)
            continue

        fetch_pc = pc
        span = width - (fetch_pc % width)
        gap = n if next_branch is None else next_branch - fetch_pc
        if skip and gap >= span and not predictor.stale_window_active:
            # Whole packet is branch-free: account it without walking.
            if instructions + span <= n:
                instructions += span
                pc = fetch_pc + span
            else:
                instructions = n
            continue

        if scalar_quota:
            scalar_quota -= 1
        result = predict(fetch_pc, packet(fetch_pc), None)
        final_slots = result.final.slots
        mispredict_info = None
        consumed = 0
        while True:
            # The record at ``pc``: a stored branch record, or sequential.
            if next_branch == pc:
                next_pc = b_targets[ci]
                is_cond = b_conds[ci]
                taken = b_takens[ci]
                ci += 1
                if ci < len(b_pcs):
                    next_branch = b_pcs[ci]
                else:
                    chunk_start += ci
                    ci = 0
                    b_pcs, b_conds, b_takens, b_targets = load(chunk_start)
                    next_branch = b_pcs[0] if b_pcs else None
            else:
                next_pc = pc + 1
                is_cond = False
                taken = False
            slot_idx = consumed
            instructions += 1
            if is_cond:
                branches += 1
                if final_slots[slot_idx].taken != taken:
                    mispredicts += 1
                    if mispredict_info is None:
                        mispredict_info = (
                            slot_idx,
                            taken,
                            next_pc if taken else None,
                        )
            consumed += 1
            ends_packet = (
                next_pc != pc + 1
                or consumed >= span
                or (mispredict_info is not None and result.cut == slot_idx)
            )
            pc = next_pc
            if ends_packet or instructions >= n:
                break
        if mispredict_info is not None:
            slot_idx, taken, target = mispredict_info
            resolve(result.ftq_id, slot_idx, taken, target)
        commit(result.ftq_id)
    return WalkCounts(instructions, branches, mispredicts)
