"""Tests for history providers, the history file, the RAS, and repair."""

import dataclasses
import inspect

import pytest

from repro.components.ras import ReturnAddressStack
from repro.core.events import UpdateBundle, dispatch_event
from repro.core.history import GlobalHistoryProvider, LocalHistoryProvider
from repro.core.history_file import HistoryFile, HistoryFileEntry, HistoryFileError
from repro.core.repair import RepairStateMachine, bundle_fields


class TestGlobalHistory:
    def test_speculate_shifts(self):
        g = GlobalHistoryProvider(8)
        g.speculate([True, False, True])
        assert g.read() == 0b101

    def test_truncates_to_length(self):
        g = GlobalHistoryProvider(4)
        g.speculate([True] * 10)
        assert g.read() == 0b1111

    def test_restore(self):
        g = GlobalHistoryProvider(8)
        g.speculate([True, True])
        snap = g.read()
        g.speculate([False, False])
        g.restore(snap)
        assert g.read() == snap

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            GlobalHistoryProvider(0)

    def test_storage_is_flops(self):
        assert GlobalHistoryProvider(64).storage().flop_bits == 64


class TestLocalHistory:
    def test_per_packet_isolation(self):
        lh = LocalHistoryProvider(16, 8, 4)
        idx_a, _ = lh.read(0)
        idx_b, _ = lh.read(4)
        assert idx_a != idx_b
        lh.speculate(idx_a, [True])
        _, hist_a = lh.read(0)
        _, hist_b = lh.read(4)
        assert hist_a == 1 and hist_b == 0

    def test_same_packet_same_entry(self):
        lh = LocalHistoryProvider(16, 8, 4)
        idx0, _ = lh.read(1)
        idx1, _ = lh.read(3)
        assert idx0 == idx1  # same 4-wide packet

    def test_restore_and_write(self):
        lh = LocalHistoryProvider(16, 8, 4)
        idx, snap = lh.read(0)
        lh.speculate(idx, [True, True])
        lh.restore(idx, snap)
        assert lh.read(0)[1] == snap

    def test_storage(self):
        assert LocalHistoryProvider(256, 32).storage().sram_bits == 256 * 32


class TestHistoryFile:
    def _alloc(self, hf, **over):
        fields = dict(
            fetch_pc=0, width=4, req_ghist=0, chain_ghist=0,
            lhist_index=0, lhist_snapshot=0, metas={},
            br_mask=(False,) * 4, taken_mask=(False,) * 4,
            cfi_idx=None, cfi_taken=False, cfi_target=None,
        )
        fields.update(over)
        return hf.allocate(**fields)

    def test_fifo_ids(self):
        hf = HistoryFile(8)
        ids = [self._alloc(hf).ftq_id for _ in range(3)]
        assert ids == [0, 1, 2]

    def test_overflow_raises(self):
        hf = HistoryFile(2)
        self._alloc(hf)
        self._alloc(hf)
        assert hf.full
        with pytest.raises(HistoryFileError):
            self._alloc(hf)

    def test_squash_after_non_contiguous_ids(self):
        """Ids skip after squashes; find() must still work (regression)."""
        hf = HistoryFile(8)
        a = self._alloc(hf)
        self._alloc(hf)
        self._alloc(hf)
        squashed = hf.squash_after(a.ftq_id)
        assert [e.ftq_id for e in squashed] == [1, 2]
        d = self._alloc(hf)  # id 3: gap at 1,2
        assert hf.get(d.ftq_id) is d
        assert hf.get(a.ftq_id) is a
        assert hf.find(1) is None

    def test_dequeue_order(self):
        hf = HistoryFile(8)
        a = self._alloc(hf)
        b = self._alloc(hf)
        assert hf.dequeue() is a
        assert hf.head() is b

    def test_dequeue_empty_raises(self):
        with pytest.raises(HistoryFileError):
            HistoryFile(2).dequeue()

    def test_get_retired_raises(self):
        hf = HistoryFile(4)
        a = self._alloc(hf)
        hf.dequeue()
        with pytest.raises(HistoryFileError):
            hf.get(a.ftq_id)

    def test_squash_all(self):
        hf = HistoryFile(4)
        self._alloc(hf)
        self._alloc(hf)
        assert len(hf.squash_all()) == 2
        assert len(hf) == 0

    def test_storage_scales_with_meta(self):
        hf = HistoryFile(32)
        small = hf.storage(10, 64, 0).total_bits
        big = hf.storage(100, 64, 32).total_bits
        assert big > small

    def test_allocate_fills_every_entry_field(self):
        # allocate builds the slotted entry positionally: each argument must
        # land in the field of the same name, and the rest at its default.
        hf = HistoryFile(4)
        params = list(inspect.signature(HistoryFile.allocate).parameters)[1:]
        given = {name: object() for name in params}
        entry = hf.allocate(**given)
        for field in dataclasses.fields(HistoryFileEntry):
            if field.name == "ftq_id":
                assert entry.ftq_id == 0
            elif field.name in given:
                assert getattr(entry, field.name) is given[field.name], field.name
            else:
                assert getattr(entry, field.name) == field.default, field.name


class TestEventPayload:
    def test_bundle_fields_cover_every_bundle_field(self):
        # A distinct value in every entry field the payload reads: each
        # must land in the bundle field of the same name (the histories
        # from their predict-time snapshots), with meta left 0 for
        # dispatch to fill per component.
        entry = TestHistoryFile()._alloc(HistoryFile(2))
        names = [field.name for field in dataclasses.fields(UpdateBundle)]
        source = {"ghist": "req_ghist", "lhist": "lhist_snapshot",
                  "phist": "phist_snapshot"}
        given = {}
        for name in names:
            if name != "meta":
                given[name] = object()
                setattr(entry, source.get(name, name), given[name])
        fields = bundle_fields(entry)
        assert len(fields) == len(names)
        for name, value in zip(names, fields):
            if name == "meta":
                assert value == 0
            else:
                assert value is given[name], name
        entry.mispredicted = False
        assert UpdateBundle(*bundle_fields(entry, mispredicted=True)).mispredicted

    def test_each_component_gets_its_own_bundle_and_meta(self):
        class Sink:
            def __init__(self, name):
                self.name = name
                self.seen = []

            def on_update(self, bundle):
                self.seen.append(bundle)

        # Field i of the payload carries the value i, so each bundle field
        # must read its own position; meta comes from ``metas`` instead.
        names = [field.name for field in dataclasses.fields(UpdateBundle)]
        fields = tuple(range(len(names)))
        sinks = [Sink("a"), Sink("b"), Sink("c")]
        dispatch_event("on_update", sinks, fields, {"a": 50, "b": 60})
        (a,), (b,), (c,) = (sink.seen for sink in sinks)
        assert len({id(a), id(b), id(c)}) == 3
        for bundle, meta in ((a, 50), (b, 60), (c, 0)):
            for position, name in enumerate(names):
                expected = meta if name == "meta" else position
                assert getattr(bundle, name) == expected, name
        a.cfi_target = -1  # one component's bundle is not another's
        assert b.cfi_target == names.index("cfi_target")


class TestRas:
    def test_push_pop(self):
        ras = ReturnAddressStack(4)
        ras.push(10)
        ras.push(20)
        assert ras.pop() == 20
        assert ras.pop() == 10

    def test_peek_does_not_pop(self):
        ras = ReturnAddressStack(4)
        ras.push(7)
        assert ras.peek() == 7
        assert ras.peek() == 7

    def test_wraps_at_depth(self):
        ras = ReturnAddressStack(2)
        ras.push(1)
        ras.push(2)
        ras.push(3)  # overwrites the oldest
        assert ras.pop() == 3
        assert ras.pop() == 2

    def test_snapshot_restore(self):
        ras = ReturnAddressStack(4)
        ras.push(5)
        snap = ras.snapshot()
        ras.push(6)
        ras.pop()
        ras.pop()
        ras.restore(snap)
        assert ras.peek() == 5

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            ReturnAddressStack(0)


class TestRepairWalk:
    def test_walk_cycle_accounting(self):
        lh = LocalHistoryProvider(16, 8, 4)
        machine = RepairStateMachine([], lh, walk_width=2)
        hf = HistoryFile(16)
        entries = []
        for i in range(5):
            entries.append(
                hf.allocate(
                    fetch_pc=i * 4, width=4, req_ghist=0, chain_ghist=0,
                    lhist_index=i, lhist_snapshot=0b11, metas={},
                    br_mask=(False,) * 4, taken_mask=(False,) * 4,
                    cfi_idx=None, cfi_taken=False, cfi_target=None,
                )
            )
        squashed = hf.squash_after(entries[0].ftq_id)
        cycles = machine.repair(squashed)
        assert cycles == 2  # ceil(4 / 2)
        assert machine.stats.entries_repaired == 4

    def test_restores_local_history_snapshots(self):
        lh = LocalHistoryProvider(16, 8, 4)
        machine = RepairStateMachine([], lh, walk_width=2)
        hf = HistoryFile(16)
        keep = hf.allocate(
            fetch_pc=0, width=4, req_ghist=0, chain_ghist=0,
            lhist_index=0, lhist_snapshot=0, metas={},
            br_mask=(False,) * 4, taken_mask=(False,) * 4,
            cfi_idx=None, cfi_taken=False, cfi_target=None,
        )
        idx, snap = lh.read(4)
        victim = hf.allocate(
            fetch_pc=4, width=4, req_ghist=0, chain_ghist=0,
            lhist_index=idx, lhist_snapshot=snap, metas={},
            br_mask=(False,) * 4, taken_mask=(False,) * 4,
            cfi_idx=None, cfi_taken=False, cfi_target=None,
        )
        lh.speculate(idx, [True, True, True])
        machine.repair(hf.squash_after(keep.ftq_id))
        assert lh.read(4)[1] == snap

    def test_oldest_snapshot_wins_for_shared_index(self):
        """Two squashed packets touching the same lhist entry: the state
        must return to the *oldest* squashed packet's snapshot."""
        lh = LocalHistoryProvider(16, 8, 4)
        machine = RepairStateMachine([], lh, walk_width=2)
        hf = HistoryFile(16)
        keep = hf.allocate(
            fetch_pc=32, width=4, req_ghist=0, chain_ghist=0,
            lhist_index=9, lhist_snapshot=0, metas={},
            br_mask=(False,) * 4, taken_mask=(False,) * 4,
            cfi_idx=None, cfi_taken=False, cfi_target=None,
        )
        idx, snap0 = lh.read(0)
        hf.allocate(
            fetch_pc=0, width=4, req_ghist=0, chain_ghist=0,
            lhist_index=idx, lhist_snapshot=snap0, metas={},
            br_mask=(False,) * 4, taken_mask=(False,) * 4,
            cfi_idx=None, cfi_taken=False, cfi_target=None,
        )
        lh.speculate(idx, [True])
        _, snap1 = lh.read(0)
        hf.allocate(
            fetch_pc=0, width=4, req_ghist=0, chain_ghist=0,
            lhist_index=idx, lhist_snapshot=snap1, metas={},
            br_mask=(False,) * 4, taken_mask=(False,) * 4,
            cfi_idx=None, cfi_taken=False, cfi_target=None,
        )
        lh.speculate(idx, [True])
        machine.repair(hf.squash_after(keep.ftq_id))
        assert lh.read(0)[1] == snap0

    def test_empty_walk_is_free(self):
        machine = RepairStateMachine([], LocalHistoryProvider(4, 4), 2)
        assert machine.repair([]) == 0
        assert machine.stats.walks == 0

    def test_invalid_walk_width(self):
        with pytest.raises(ValueError):
            RepairStateMachine([], LocalHistoryProvider(4, 4), 0)
