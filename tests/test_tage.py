"""Tests for the TAGE sub-component."""

import random

import numpy as np
import pytest

from repro._util import fold_history, hash_pc, mask
from repro.analysis.contracts import state_fingerprint
from repro.components.library import standard_library
from repro.components.tage import (
    TAGE,
    TageTableConfig,
    default_tables,
    geometric_history_lengths,
)
from repro.core.events import PredictRequest, UpdateBundle
from repro.core.prediction import PredictionVector, SlotPrediction
from repro.kernels.components import TAGEKernel
from repro.spec import LEGAL_SIZINGS


def lookup(tage, pc=0, ghist=0, width=4, base_taken=False):
    slot = SlotPrediction(hit=True, taken=base_taken)
    base = PredictionVector(pc, (slot,) * width)
    return tage.lookup(PredictRequest(pc, width, ghist), [base])


def commit(tage, pc, slot, taken, meta, ghist=0, mispredicted=False, width=4):
    br_mask = tuple(i == slot for i in range(width))
    taken_mask = tuple(taken if i == slot else False for i in range(width))
    tage.on_update(
        UpdateBundle(
            fetch_pc=pc,
            width=width,
            ghist=ghist,
            meta=meta,
            br_mask=br_mask,
            taken_mask=taken_mask,
            cfi_idx=slot if taken else None,
            cfi_taken=taken,
            cfi_is_br=True,
            mispredicted=mispredicted,
            mispredict_idx=slot if mispredicted else None,
        )
    )


def small_tage(n_tables=4):
    tables = [
        TageTableConfig(n_sets=64, history_bits=h, tag_bits=8)
        for h in geometric_history_lengths(n_tables, 4, 24)
    ]
    return TAGE("tage", tables=tables)


class TestGeometry:
    def test_geometric_lengths_monotonic(self):
        lengths = geometric_history_lengths(7, 4, 64)
        assert lengths[0] == 4 and lengths[-1] == 64
        assert all(b > a for a, b in zip(lengths, lengths[1:]))

    def test_single_table(self):
        assert geometric_history_lengths(1, 5, 64) == [5]

    def test_default_tables(self):
        tables = default_tables()
        assert len(tables) == 7
        assert tables[-1].history_bits == 64

    def test_non_power_of_two_sets_rejected(self):
        with pytest.raises(ValueError):
            TAGE("t", tables=[TageTableConfig(100, 8, 8)])


class TestPredictAllocate:
    def test_cold_tage_passes_through(self):
        tage = small_tage()
        out, meta = lookup(tage, base_taken=True)
        assert out.slots[0].taken  # base prediction untouched
        fields = tage._codec.unpack(meta)
        assert fields["provider_valid"] == 0

    def test_allocates_on_mispredict(self):
        tage = small_tage()
        _, meta = lookup(tage, pc=0, ghist=0b1011)
        commit(tage, 0, 0, True, meta, ghist=0b1011, mispredicted=True)
        _, meta2 = lookup(tage, pc=0, ghist=0b1011)
        fields = tage._codec.unpack(meta2)
        assert fields["provider_valid"] == 1

    def test_no_allocation_without_mispredict(self):
        tage = small_tage()
        _, meta = lookup(tage, pc=0, ghist=0b1011)
        commit(tage, 0, 0, True, meta, ghist=0b1011, mispredicted=False)
        _, meta2 = lookup(tage, pc=0, ghist=0b1011)
        assert tage._codec.unpack(meta2)["provider_valid"] == 0

    def test_provider_prediction_follows_training(self):
        tage = small_tage()
        ghist = 0b110010
        _, meta = lookup(tage, ghist=ghist)
        commit(tage, 0, 0, True, meta, ghist=ghist, mispredicted=True)
        for _ in range(3):
            _, meta = lookup(tage, ghist=ghist)
            commit(tage, 0, 0, True, meta, ghist=ghist)
        out, _ = lookup(tage, ghist=ghist)
        assert out.slots[0].taken

    def test_different_history_different_entry(self):
        tage = small_tage()
        for ghist, taken in ((0b1111, True), (0b0000, False)):
            _, meta = lookup(tage, ghist=ghist)
            commit(tage, 0, 0, taken, meta, ghist=ghist, mispredicted=True)
            for _ in range(3):
                _, meta = lookup(tage, ghist=ghist)
                commit(tage, 0, 0, taken, meta, ghist=ghist)
        out_t, _ = lookup(tage, ghist=0b1111)
        out_n, _ = lookup(tage, ghist=0b0000)
        assert out_t.slots[0].taken
        assert not out_n.slots[0].taken

    def test_pattern_learned_via_history(self):
        """The canonical check: a periodic pattern becomes ~perfect."""
        tage = small_tage()
        pattern = [True, True, False, True, False, False, True, False]
        ghist = 0
        misses = 0
        for i in range(1200):
            taken = pattern[i % len(pattern)]
            out, meta = lookup(tage, ghist=ghist)
            predicted = out.slots[0].taken
            wrong = predicted != taken
            if i >= 600:
                misses += wrong
            commit(tage, 0, 0, taken, meta, ghist=ghist, mispredicted=wrong)
            ghist = ((ghist << 1) | int(taken)) & ((1 << 64) - 1)
        assert misses <= 5

    def test_u_decay_runs(self):
        tage = small_tage()
        tage.u_decay_period = 8
        for i in range(20):
            _, meta = lookup(tage, ghist=i)
            commit(tage, 0, 0, True, meta, ghist=i, mispredicted=True)
        # just exercising the decay path; all u values remain in range
        for table in range(len(tage.tables)):
            assert (tage._useful[table] <= 3).all()


class TestMeta:
    def test_meta_fits_declared_width(self):
        tage = small_tage()
        _, meta = lookup(tage)
        assert meta <= (1 << tage.meta_bits) - 1

    def test_storage_scales_with_tables(self):
        small = small_tage(n_tables=2).storage().total_bits
        large = small_tage(n_tables=6).storage().total_bits
        assert large > small

    def test_uses_global_history_declared(self):
        assert small_tage().uses_global_history


# ----------------------------------------------------------------------
# The single-pass (index, tag) hash
# ----------------------------------------------------------------------
#: Every legal library sizing, one case each.
LEGAL_CASES = [
    (name, value) for name, values in sorted(LEGAL_SIZINGS.items()) for value in values
]
#: Deterministic requests: small and wide PCs, short and full histories.
REQUESTS = [
    (random.Random(seed).getrandbits(bits), random.Random(-seed).getrandbits(64))
    for seed, bits in enumerate([3, 8, 12, 20, 30] * 8)
]


def reference_index_tag(tage, pc, ghist, table):
    """One table's hash written out from ``hash_pc`` and ``fold_history``."""
    cfg = tage.tables[table]
    packet = pc // tage.fetch_width
    bits = tage._index_bits[table]
    index = hash_pc(packet, bits) ^ fold_history(ghist, cfg.history_bits, bits)
    tag = (
        hash_pc(packet >> 1, cfg.tag_bits)
        ^ fold_history(ghist, cfg.history_bits, cfg.tag_bits)
        ^ (fold_history(ghist, cfg.history_bits, cfg.tag_bits - 1) << 1)
    ) & mask(cfg.tag_bits)
    return index, tag


def assert_single_pass_matches(tage):
    """The pass equals the per-table reference, IndexFn.compute and the kernel."""
    fetch_pcs = np.array([pc for pc, _ in REQUESTS], dtype=np.int64)
    ghists = np.array([ghist for _, ghist in REQUESTS], dtype=np.uint64)
    index, tag = TAGEKernel(tage).index_tag(fetch_pcs, ghists)
    for i, (pc, ghist) in enumerate(REQUESTS):
        rows = tage._index_tags(pc, ghist)
        assert len(rows) == len(tage.spec.tables)
        for t, table in enumerate(tage.spec.tables):
            assert rows[t] == reference_index_tag(tage, pc, ghist, t), (t, pc)
            assert rows[t][0] == table.index.compute(pc, ghist), (t, pc, ghist)
            assert (int(index[t][i]), int(tag[t][i])) == rows[t], (t, pc, ghist)


class TestSinglePassHash:
    @pytest.mark.parametrize("name,value", LEGAL_CASES)
    def test_rows_match_spec_and_kernel_at_every_legal_sizing(self, name, value):
        library = standard_library(**{name: value})
        assert_single_pass_matches(library.factory("TAGE")("tage", 3))

    def test_rows_match_when_tables_differ_in_index_and_tag_widths(self):
        tables = [
            TageTableConfig(n_sets=64, history_bits=5, tag_bits=7),
            TageTableConfig(n_sets=256, history_bits=13, tag_bits=9),
            TageTableConfig(n_sets=1, history_bits=30, tag_bits=1),
            TageTableConfig(n_sets=1024, history_bits=64, tag_bits=12),
        ]
        for width in (1, 4):
            assert_single_pass_matches(
                TAGE("tage", fetch_width=width, tables=tables)
            )

    def test_lookup_leaves_state_fingerprint_unchanged(self):
        # The hash memos live outside the component: a lookup that only
        # reads the tables must not look like a state change (CON008).
        tage = small_tage()
        _, meta = lookup(tage, pc=8, ghist=0b1011)
        commit(tage, 8, 0, True, meta, ghist=0b1011, mispredicted=True)
        before = state_fingerprint(tage)
        for pc, ghist in REQUESTS + [(8, 0b1011)]:
            lookup(tage, pc=pc - pc % 4, ghist=ghist)
        assert state_fingerprint(tage) == before


def scrambled_tage(seed, use_alt_on_na):
    """A small TAGE whose tables hold seeded random state: 2-bit tags and
    8 sets per table make tag hits and repeated rows the common case."""
    tables = [
        TageTableConfig(n_sets=8, history_bits=h, tag_bits=2)
        for h in geometric_history_lengths(4, 4, 16)
    ]
    tage = TAGE("tage", tables=tables)
    rng = np.random.default_rng(seed)
    n = len(tage._all_tags)
    tage._all_valid[:] = rng.random(n) < 0.9
    tage._all_tags[:] = rng.integers(0, 4, n)
    tage._all_ctrs[:] = rng.integers(0, 8, tage._all_ctrs.shape)
    tage._all_useful[:] = rng.choice([0, 0, 1, 2, 3], n)
    tage._use_alt_on_na = use_alt_on_na
    return tage


class TestKernelForwarding:
    """The kernel forwards every update through a window: each packet's
    lookup must read what the scalar updates of all earlier packets left.
    Updates here never mispredict, so nothing allocates, and the window
    stays short of the usefulness decay."""

    @pytest.mark.parametrize("use_alt_on_na", [6, 7, 8, 9])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_window_matches_the_sequential_scalar_walk(self, seed, use_alt_on_na):
        from repro.kernels.engine import (
            state_from_vectors,
            state_matches_vector,
            stimulus_context,
        )

        width, packets = 4, 96
        rng = random.Random(seed)
        fetch_pcs = [rng.randrange(64) for _ in range(packets)]
        ghists = [rng.choice([0, 0x5A5A, 0xFFFF, 0x1234]) for _ in range(packets)]
        bases, br_masks, taken_masks = [], [], []
        for pc in fetch_pcs:
            n_slots = width - pc % width
            slots = tuple(
                SlotPrediction(
                    hit=rng.random() < 0.5,
                    is_branch=True,
                    taken=rng.random() < 0.5,
                )
                for _ in range(n_slots)
            )
            bases.append(PredictionVector(pc, slots))
            br_masks.append(tuple(rng.random() < 0.6 for _ in range(n_slots)))
            taken_masks.append(tuple(rng.random() < 0.5 for _ in range(n_slots)))

        scalar = scrambled_tage(seed, use_alt_on_na)
        kernel = TAGEKernel(scrambled_tage(seed, use_alt_on_na))
        ctx = stimulus_context(fetch_pcs, ghists, width)
        for p, pc in enumerate(fetch_pcs):
            lanes = slice(pc % width, width)
            ctx.upd_cond[p, lanes] = br_masks[p]
            ctx.rtaken_grid[p, lanes] = taken_masks[p]
        out = kernel.lookup(ctx, state_from_vectors(bases, ctx))
        assert not kernel.mutates(ctx).any()
        kernel.commit(ctx, packets)

        for p, pc in enumerate(fetch_pcs):
            request = PredictRequest(pc, width, ghists[p])
            vector, meta = scalar.lookup(request, [bases[p]])
            ok, why = state_matches_vector(out, p, pc % width, vector)
            assert ok, f"packet {p}: {why}"
            scalar.on_update(
                UpdateBundle(
                    fetch_pc=pc,
                    width=width,
                    ghist=ghists[p],
                    meta=meta,
                    br_mask=br_masks[p],
                    taken_mask=taken_masks[p],
                )
            )
        assert np.array_equal(kernel.c._all_ctrs, scalar._all_ctrs)
        assert np.array_equal(kernel.c._all_useful, scalar._all_useful)
        assert kernel.c._use_alt_on_na == scalar._use_alt_on_na
        assert kernel.c._update_count == scalar._update_count
