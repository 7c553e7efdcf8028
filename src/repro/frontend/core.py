"""Cycle-level model of the host core (fetch unit + simplified backend).

The fetch unit reproduces Fig. 6's structure: the COBRA-generated predictor
pipeline is queried at Fetch-0; staged predictions redirect fetch as they
arrive (1-cycle uBTB redirects at Fetch-1, the BTB at Fetch-2, backing
predictors at Fetch-3); pre-decode corrects bogus predictions and supplies
direct targets; the RAS (kept from the host core, §IV-C) predicts returns;
accepted packets enter the fetch buffer and the history file.

The backend dispatches up to 4 instructions per cycle into a 128-entry ROB,
computes completion times with a dependency-driven timing model (idealized
issue bandwidth), resolves branches in order, and commits up to 4 per
cycle.  Branch resolution compares the frontend's *followed* path against
the architectural oracle; a mismatch flushes younger state, repairs the
predictor through the composer, and redirects fetch.

Instruction-kind semantics on the wrong path come from real instruction
memory (fetch reads the same program image the oracle executes), so
wrong-path fetches pollute speculative predictor state exactly as they
would in hardware.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.components.ras import RasSnapshot, ReturnAddressStack
from repro.core.composer import ComposedPredictor, PredictResult
from repro.core.prediction import PacketCache, PreDecodedSlot, predecode_slot
from repro.frontend.caches import DataCacheModel, InstructionCacheModel
from repro.frontend.config import CoreConfig
from repro.frontend.oracle import OracleStream
from repro.isa.instructions import Instruction, NUM_REGS, Opcode
from repro.isa.program import Program

_KIND_CORRECT = 0
_KIND_WRONG = 1
_KIND_PREDICATED = 2

#: What committing a correct-path instruction counts (``_DispatchSlot.commit``):
#: nothing, a predicted conditional branch, an SFB-predicated branch, a jump.
_COMMIT_PLAIN = 0
_COMMIT_BRANCH = 1
_COMMIT_SFB = 2
_COMMIT_JUMP = 3


@dataclass
class CoreStats:
    """Measurements collected over one run (the FireSim out-of-band
    profiler analogue)."""

    cycles: int = 0
    committed_instructions: int = 0
    committed_predicated: int = 0
    committed_branches: int = 0
    committed_jumps: int = 0
    branch_mispredicts: int = 0
    target_mispredicts: int = 0
    flushes: int = 0
    fetch_packets: int = 0
    fetch_bubble_cycles: int = 0
    decode_starved_cycles: int = 0
    stage_redirects: Dict[int, int] = field(default_factory=dict)
    sfb_converted: int = 0
    repair_walk_cycles: int = 0
    icache_stall_cycles: int = 0
    #: Direction mispredicts per static branch PC (site profiling).
    mispredicts_by_pc: Dict[int, int] = field(default_factory=dict)
    #: Committed executions per static branch PC.
    executions_by_pc: Dict[int, int] = field(default_factory=dict)
    #: Telemetry summary payload (``CoreConfig.telemetry``); None when the
    #: collector is not attached.  JSON-canonical, see
    #: :meth:`repro.telemetry.TelemetryCollector.summary`.
    telemetry: Optional[Dict[str, Any]] = None

    @property
    def ipc(self) -> float:
        return self.committed_instructions / self.cycles if self.cycles else 0.0

    @property
    def mpki(self) -> float:
        """Conditional-branch direction mispredicts per kilo-instruction."""
        if not self.committed_instructions:
            return 0.0
        return 1000.0 * self.branch_mispredicts / self.committed_instructions

    @property
    def total_mpki(self) -> float:
        """All control mispredicts (direction + indirect target) per KI."""
        if not self.committed_instructions:
            return 0.0
        misses = self.branch_mispredicts + self.target_mispredicts
        return 1000.0 * misses / self.committed_instructions

    @property
    def branch_accuracy(self) -> float:
        if not self.committed_branches:
            return 1.0
        return 1.0 - self.branch_mispredicts / self.committed_branches


@dataclass(slots=True)
class _RobEntry:
    seq: int
    slot: "_DispatchSlot"
    ftq_id: int
    kind: int
    record: Optional[object]
    oracle_index: Optional[int]
    complete_cycle: int
    needs_resolution: bool
    ends_packet: bool
    is_halt: bool
    resolved: bool = False
    flushed: bool = False


@dataclass(slots=True, frozen=True)
class _DispatchSlot:
    """One instruction of a fetched packet, with every fact the backend
    reads about it worked out once, when the packet's slot list is built
    (``Instruction``'s properties hash an ``Enum`` on every call)."""

    pc: int
    slot_idx: int
    followed_next_pc: int
    ends_packet: bool
    #: Source registers read (``r0`` and absent operands dropped).
    sources: Tuple[int, ...]
    #: Destination register, 0 when none is written.
    rd: int
    latency: int
    is_load: bool
    is_halt: bool
    #: A predicted conditional branch (not SFB-predicated).
    is_branch: bool
    #: A short forwards branch the decoder predicates (§VI-C).
    is_sfb: bool
    #: Resolves against the oracle on the correct path: a predicted
    #: conditional branch or an indirect jump.
    resolves: bool
    #: One of ``_COMMIT_*``.
    commit: int


class _BufferedPacket:
    __slots__ = ("ftq_id", "fetch_pc", "slots", "pos")

    def __init__(self, ftq_id: int, fetch_pc: int, slots: List[_DispatchSlot]):
        self.ftq_id = ftq_id
        self.fetch_pc = fetch_pc
        self.slots = slots
        self.pos = 0


class _InFlightFetch:
    __slots__ = ("result", "age", "followed_next_pc", "stage_next")

    def __init__(self, result: PredictResult, stage_next: List[int]):
        self.result = result
        self.age = 0
        #: ``stage_next[d - 1]`` is the fetch PC the stage-``d`` prediction
        #: directs the frontend to, the last stage's being the pre-decoded
        #: final answer.  Precomputed once at issue so the staged redirect
        #: check does not re-scan the prediction vector every cycle the
        #: bundle sits in the fetch pipeline.  In a single-stage pipeline
        #: the stage-1 answer IS the final one, which pre-decode has already
        #: corrected within the same fetch cycle: following the raw one
        #: would let bogus predictions (e.g. a BTB hit on a non-CFI slot)
        #: steer fetch down a path the ROB never learns about.
        self.stage_next = stage_next
        self.followed_next_pc = stage_next[0]


_NOP = Instruction(Opcode.NOP)


class Core:
    """A program + a composed predictor + the core model = one experiment."""

    def __init__(
        self,
        program: Program,
        predictor: ComposedPredictor,
        config: Optional[CoreConfig] = None,
        max_oracle_instructions: int = 50_000_000,
        trace: Optional[object] = None,
    ):
        self.config = config = config or CoreConfig()
        if predictor.config.fetch_width != self.config.fetch_width:
            raise ValueError(
                "predictor and core disagree on fetch width: "
                f"{predictor.config.fetch_width} vs {self.config.fetch_width}"
            )
        self.program = program
        self.predictor = predictor
        self.oracle = OracleStream(program, max_oracle_instructions)
        self.dcache = DataCacheModel(self.config.cache)
        ic = self.config.icache
        self.icache = (
            InstructionCacheModel(
                ic.n_sets, ic.n_ways, ic.line_words, ic.miss_penalty,
                ic.prefetch_next_line,
            )
            if ic.enabled
            else None
        )
        self.ras = ReturnAddressStack(self.config.ras_depth)
        # The configuration and the pipeline depth are fixed for the run:
        # the cycle loop reads them from plain attributes.
        self._fetch_width = config.fetch_width
        self._decode_width = config.decode_width
        self._commit_width = config.commit_width
        self._rob_entries = config.rob_entries
        self._fetch_buffer_packets = config.fetch_buffer_packets
        self._issue_latency = config.issue_latency
        self._resolve_delay = config.branch_resolve_delay
        self._redirect_penalty = config.redirect_penalty
        self._depth = predictor.depth
        self.stats = CoreStats()
        self.telemetry = None
        if self.config.telemetry or trace is not None:
            from repro.telemetry import TelemetryCollector

            self.telemetry = TelemetryCollector(trace=trace)
            self.predictor.attach_telemetry(self.telemetry)

        self._cycle = 0
        self._fetch_pc = program.entry
        self._fetch_stall_until = 0
        self._in_flight: Deque[_InFlightFetch] = deque()
        self._fetch_buffer: Deque[_BufferedPacket] = deque()
        self._rob: Deque[_RobEntry] = deque()
        self._resolve_queue: Deque[_RobEntry] = deque()
        self._reg_ready = [0] * NUM_REGS
        self._next_correct_pc = program.entry
        self._oracle_pos = 0
        self._pred_skip_target: Optional[int] = None
        self._seq = 0
        self._running = True
        self._last_commit_cycle = 0
        # RAS bookkeeping of the in-flight packets that pushed or popped:
        # ftq id -> (snapshot before the action, slot of the action).
        self._ras_snaps: Dict[int, Tuple[RasSnapshot, int]] = {}
        self._sfb_pcs = (
            self._find_sfb_branches() if self.config.sfb_enabled else frozenset()
        )
        # Per-PC fetch memoization (the program is immutable during a run):
        # whole pre-decoded packets (the PacketCache shared with the
        # trace-driven backends) and dispatch-slot lists keyed by
        # (fetch_pc, length, followed next PC).
        self._packets = PacketCache(self._predecode_slot, self.config.fetch_width)
        self._dispatch_cache: Dict[Tuple[int, int, int], List[_DispatchSlot]] = {}

    # ------------------------------------------------------------------
    # Static analysis
    # ------------------------------------------------------------------
    def _find_sfb_branches(self) -> frozenset:
        """PCs of branches eligible for SFB predication (§VI-C).

        A short forwards branch skips a small run of simple instructions:
        the shadow must contain no control flow and no HALT, so the skipped
        instructions can execute as predicated no-ops.
        """
        eligible = set()
        for pc, instr in enumerate(self.program.instructions):
            distance = instr.forward_distance(pc)
            if distance is None or distance > self.config.sfb_max_distance:
                continue
            shadow = self.program.instructions[pc + 1 : pc + distance]
            if any(s.is_control_flow or s.op is Opcode.HALT for s in shadow):
                continue
            eligible.add(pc)
        return frozenset(eligible)

    def _predecode_slot(self, pc: int) -> PreDecodedSlot:
        return predecode_slot(self.program.fetch(pc), pc in self._sfb_pcs)


    # ------------------------------------------------------------------
    # Cycle loop
    # ------------------------------------------------------------------
    def step(self) -> None:
        self._cycle += 1
        self.stats.cycles = self._cycle
        self._commit()
        if not self._running:
            return
        if self._resolve_queue:
            self._resolve()
        self._dispatch()
        self._advance_fetch()

    def run(
        self,
        max_instructions: Optional[int] = None,
        max_cycles: Optional[int] = None,
        deadlock_limit: int = 20_000,
    ) -> CoreStats:
        """Simulate until the program halts or a cap is reached."""
        step = self.step
        stats = self.stats
        while self._running:
            step()
            if max_instructions is not None and (
                stats.committed_instructions >= max_instructions
            ):
                break
            if max_cycles is not None and self._cycle >= max_cycles:
                break
            if self._cycle - self._last_commit_cycle > deadlock_limit:
                raise RuntimeError(
                    f"no commit for {deadlock_limit} cycles at cycle "
                    f"{self._cycle} (pc={self._fetch_pc}, rob={len(self._rob)}, "
                    f"buffer={len(self._fetch_buffer)}, "
                    f"in_flight={len(self._in_flight)})"
                )
        self.stats.repair_walk_cycles = self.predictor.repair_stats.walk_cycles
        if self.telemetry is not None:
            self.stats.telemetry = self.telemetry.summary()
        return self.stats

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------
    def _commit(self) -> None:
        rob = self._rob
        cycle = self._cycle
        stats = self.stats
        for _ in range(self._commit_width):
            if not rob:
                return
            entry = rob[0]
            if entry.complete_cycle > cycle:
                return
            if entry.needs_resolution and not entry.resolved:
                return
            rob.popleft()
            self._last_commit_cycle = cycle
            kind = entry.kind
            if kind == _KIND_CORRECT:
                stats.committed_instructions += 1
                commit = entry.slot.commit
                if commit == _COMMIT_BRANCH:
                    stats.committed_branches += 1
                    pc = entry.slot.pc
                    executions = stats.executions_by_pc
                    executions[pc] = executions.get(pc, 0) + 1
                elif commit == _COMMIT_SFB:
                    stats.sfb_converted += 1
                elif commit == _COMMIT_JUMP:
                    stats.committed_jumps += 1
                self.oracle.trim(entry.oracle_index)
            elif kind == _KIND_PREDICATED:
                stats.committed_predicated += 1
            else:  # pragma: no cover - protected by flush logic
                raise AssertionError("wrong-path instruction reached commit")
            if entry.ends_packet:
                self.predictor.commit_packet(entry.ftq_id)
                self._ras_snaps.pop(entry.ftq_id, None)
            if entry.is_halt:
                self._running = False
                return

    # ------------------------------------------------------------------
    # Resolve
    # ------------------------------------------------------------------
    def _resolve(self) -> None:
        queue = self._resolve_queue
        ready = self._cycle - self._resolve_delay
        while queue:
            entry = queue[0]
            if entry.flushed:
                queue.popleft()
                continue
            if entry.complete_cycle > ready:
                break
            queue.popleft()
            entry.resolved = True
            if entry.kind != _KIND_CORRECT:
                continue  # wrong-path resolutions never steer the machine
            if entry.record.next_pc == entry.slot.followed_next_pc:
                continue
            self._handle_mispredict(entry)
            break  # at most one flush per cycle

    def _handle_mispredict(self, entry: _RobEntry) -> None:
        record = entry.record
        slot = entry.slot
        if slot.is_branch:
            actual_taken = record.taken
            actual_target = record.next_pc if record.taken else None
            is_direction = True
            self.stats.branch_mispredicts += 1
            self.stats.mispredicts_by_pc[slot.pc] = (
                self.stats.mispredicts_by_pc.get(slot.pc, 0) + 1
            )
        else:
            actual_taken = True
            actual_target = record.next_pc
            is_direction = False
            self.stats.target_mispredicts += 1
        response = self.predictor.resolve_mispredict(
            entry.ftq_id,
            slot.slot_idx,
            actual_taken,
            actual_target,
            is_direction_mispredict=is_direction,
        )
        self.stats.flushes += 1

        # Flush younger ROB entries.
        while self._rob and self._rob[-1].seq > entry.seq:
            victim = self._rob.pop()
            victim.flushed = True
        entry.ends_packet = True

        # Flush frontend state at or after the mispredicting packet.
        while self._fetch_buffer and self._fetch_buffer[-1].ftq_id >= entry.ftq_id:
            self._fetch_buffer.pop()
        self._in_flight.clear()

        self._restore_ras(entry)

        # Rewind the oracle window and the correct-path cursor.
        self._oracle_pos = entry.oracle_index + 1
        self._next_correct_pc = record.next_pc
        self._pred_skip_target = None

        # Redirect fetch (replay mode adds history-repair bubbles, §VI-B).
        self._fetch_pc = record.next_pc
        self._fetch_stall_until = (
            self._cycle
            + self._redirect_penalty
            + response.extra_redirect_bubbles
        )

    def _restore_ras(self, entry: _RobEntry) -> None:
        """Undo RAS pushes/pops younger than the mispredict point."""
        own = self._ras_snaps.get(entry.ftq_id)
        if own is not None and own[1] > entry.slot.slot_idx:
            # The packet's own push/pop was on the wrong path.
            self.ras.restore(own[0])
            self._drop_ras_snaps(entry.ftq_id)
            del self._ras_snaps[entry.ftq_id]
            return
        oldest = self._drop_ras_snaps(entry.ftq_id)
        if oldest is not None:
            self.ras.restore(oldest)

    def _drop_ras_snaps(self, ftq_id: int) -> Optional[RasSnapshot]:
        """Drop the RAS snapshots of the packets younger than ``ftq_id``.

        Returns the oldest of them (None if none): restoring it undoes
        every younger push and pop.  Fetch inserts ftq ids in increasing
        order and only ever removes the oldest or a youngest run of them,
        so the younger packets are the dict's tail.
        """
        snaps = self._ras_snaps
        oldest = None
        while snaps:
            key, value = snaps.popitem()
            if key <= ftq_id:
                snaps[key] = value  # it was the last item: order is kept
                break
            oldest = value[0]
        return oldest

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        buffer = self._fetch_buffer
        if not buffer:
            self.stats.decode_starved_cycles += 1
            return
        rob = self._rob
        budget = min(self._decode_width, self._rob_entries - len(rob))
        while budget > 0 and buffer:
            packet = buffer[0]
            slots = packet.slots
            pos = packet.pos
            take = min(budget, len(slots) - pos)
            for slot in slots[pos : pos + take]:
                self._dispatch_slot(packet.ftq_id, slot)
            budget -= take
            pos += take
            if pos == len(slots):
                buffer.popleft()
            else:
                packet.pos = pos

    def _dispatch_slot(self, ftq_id: int, slot: _DispatchSlot) -> None:
        pc = slot.pc
        kind = _KIND_WRONG
        record = None
        oracle_index = None

        skip_target = self._pred_skip_target
        if skip_target is not None:
            if pc == skip_target:
                self._pred_skip_target = None
            else:
                kind = _KIND_PREDICATED
        if kind != _KIND_PREDICATED and pc == self._next_correct_pc:
            rec = self.oracle.get(self._oracle_pos)
            if rec is not None and rec.pc == pc:
                kind = _KIND_CORRECT
                record = rec
                oracle_index = self._oracle_pos
                self._oracle_pos += 1
                self._next_correct_pc = rec.next_pc
                if slot.is_sfb and rec.taken:
                    # Predicate the shadow: dispatch it as no-ops instead of
                    # redirecting (§VI-C).
                    self._pred_skip_target = rec.next_pc

        # Timing: ready when the sources are, done ``latency`` later (plus
        # any data-cache penalty of a correct-path load).
        reg_ready = self._reg_ready
        ready = self._cycle + self._issue_latency
        for reg in slot.sources:
            if reg_ready[reg] > ready:
                ready = reg_ready[reg]
        complete = ready + slot.latency
        if record is not None and record.mem_addr is not None:
            if slot.is_load:
                complete += self.dcache.load_penalty(record.mem_addr)
            else:
                self.dcache.store_touch(record.mem_addr)
        if slot.rd:
            reg_ready[slot.rd] = complete

        correct = kind == _KIND_CORRECT
        needs_resolution = correct and slot.resolves
        entry = _RobEntry(
            self._seq,
            slot,
            ftq_id,
            kind,
            record,
            oracle_index,
            complete,
            needs_resolution,
            slot.ends_packet,
            correct and slot.is_halt,
        )
        self._seq += 1
        self._rob.append(entry)
        if needs_resolution:
            self._resolve_queue.append(entry)

    # ------------------------------------------------------------------
    # Fetch
    # ------------------------------------------------------------------
    def _advance_fetch(self) -> None:
        in_flight = self._in_flight
        depth = self._depth
        redirected = False

        # Advance in-flight bundles one stage, oldest first, never letting a
        # bundle overtake its predecessor (a blocked final stage backs the
        # pipeline up).  Ages therefore fall strictly from oldest to youngest.
        # Staged redirect checks: a later, more powerful prediction
        # overrides the path fetch followed (§IV-B, Alpha-21264 style).
        # Only bundles at stage 2 or later can redirect; the first that does
        # squashes every younger bundle, so aging stops there.
        cap = depth
        for position, bundle in enumerate(in_flight):
            age = bundle.age + 1
            if age > cap:
                age = cap
            bundle.age = age
            cap = age - 1
            if age >= 2:
                new_next = bundle.stage_next[age - 1]
                if new_next != bundle.followed_next_pc:
                    bundle.followed_next_pc = new_next
                    self._internal_redirect(position, bundle, new_next, age)
                    redirected = True
                    break

        # Retire the oldest bundle into the fetch buffer.
        if (
            in_flight
            and in_flight[0].age >= depth
            and len(self._fetch_buffer) < self._fetch_buffer_packets
        ):
            self._fetch_buffer.append(self._make_packet(in_flight.popleft()))

        # Issue a new fetch.
        if redirected or self._cycle < self._fetch_stall_until:
            self.stats.fetch_bubble_cycles += 1
            return
        if in_flight and in_flight[-1].age < 1:
            self.stats.fetch_bubble_cycles += 1
            return
        if len(in_flight) > depth:
            self.stats.fetch_bubble_cycles += 1
            return
        if not self.predictor.can_predict:
            self.stats.fetch_bubble_cycles += 1
            return
        if self.icache is not None:
            penalty = self.icache.fetch_penalty(self._fetch_pc)
            if penalty > 0:
                # Miss: the line is being refilled; fetch retries after the
                # penalty (the tag is already allocated, so the retry hits).
                self._fetch_stall_until = self._cycle + penalty
                self.stats.icache_stall_cycles += penalty
                self.stats.fetch_bubble_cycles += 1
                return
        self._issue_fetch()

    def _internal_redirect(
        self, position: int, bundle: _InFlightFetch, new_next: int, stage: int
    ) -> None:
        """A later-stage prediction overrides the fetched path."""
        while len(self._in_flight) > position + 1:
            self._in_flight.pop()
        walk = self.predictor.squash_after(bundle.result.ftq_id)
        self.stats.repair_walk_cycles += walk
        # Undo RAS actions of the squashed younger packets.
        oldest = self._drop_ras_snaps(bundle.result.ftq_id)
        if oldest is not None:
            self.ras.restore(oldest)
        self._fetch_pc = new_next
        self.stats.stage_redirects[stage] = (
            self.stats.stage_redirects.get(stage, 0) + 1
        )

    def _issue_fetch(self) -> None:
        fetch_pc = self._fetch_pc
        slots = self._packets.packet(fetch_pc)
        ras = self.ras
        result = self.predictor.predict(fetch_pc, slots, ras.peek())
        cfi = result.cut
        if cfi is not None and cfi < result.fetched_len:
            if result.final.slots[cfi].redirects:
                info = slots[cfi]
                if info.is_call:
                    self._ras_snaps[result.ftq_id] = (ras.snapshot(), cfi)
                    ras.push(fetch_pc + cfi + 1)
                elif info.is_ret:
                    self._ras_snaps[result.ftq_id] = (ras.snapshot(), cfi)
                    ras.pop()
        # Where each stage but the last directs fetch, then the final,
        # pre-decoded answer.
        fetch_width = self._fetch_width
        stage_next = [
            vector.next_fetch_pc(fetch_width)
            for vector in result.staged[: self._depth - 1]
        ]
        stage_next.append(result.next_fetch_pc)
        bundle = _InFlightFetch(result, stage_next)
        self._in_flight.append(bundle)
        self._fetch_pc = bundle.followed_next_pc
        self.stats.fetch_packets += 1

    def _make_packet(self, bundle: _InFlightFetch) -> _BufferedPacket:
        result = bundle.result
        key = (result.fetch_pc, result.fetched_len, result.next_fetch_pc)
        slots = self._dispatch_cache.get(key)
        if slots is None:
            slots = self._dispatch_cache[key] = self._dispatch_slots(*key)
        return _BufferedPacket(result.ftq_id, result.fetch_pc, slots)

    def _dispatch_slots(
        self, fetch_pc: int, count: int, next_pc: int
    ) -> List[_DispatchSlot]:
        """The dispatch slots of a ``count``-long packet at ``fetch_pc``
        that fetch follows to ``next_pc``.

        Dispatch slots are immutable (per-packet dispatch progress lives
        on :class:`_BufferedPacket`), so identical packets share one list.
        """
        slots = []
        for i in range(count):
            pc = fetch_pc + i
            instr = self.program.fetch(pc) or _NOP
            last = i == count - 1
            is_cond_branch = instr.is_cond_branch
            is_sfb = pc in self._sfb_pcs
            is_branch = is_cond_branch and not is_sfb
            if is_branch:
                commit = _COMMIT_BRANCH
            elif is_cond_branch:
                commit = _COMMIT_SFB
            elif instr.is_jump:
                commit = _COMMIT_JUMP
            else:
                commit = _COMMIT_PLAIN
            slots.append(
                _DispatchSlot(
                    pc=pc,
                    slot_idx=i,
                    followed_next_pc=next_pc if last else pc + 1,
                    ends_packet=last,
                    sources=tuple(reg for reg in (instr.rs1, instr.rs2) if reg),
                    rd=instr.rd or 0,
                    latency=instr.latency,
                    is_load=instr.op is Opcode.LD,
                    is_halt=instr.op is Opcode.HALT,
                    is_branch=is_branch,
                    is_sfb=is_sfb,
                    resolves=is_branch or instr.op is Opcode.JALR,
                    commit=commit,
                )
            )
        return slots
