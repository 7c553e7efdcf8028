"""Property tests: each columnar vector op against a sequential scalar
reference built from :mod:`repro._util`.

The segment engine is only as exact as these ops.  Every property drives
the op with random columns and replays the same events one at a time
through the scalar helpers the components themselves use.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro._util import fold_history, mask, saturating_update, shift_in
from repro.components.tage import TAGE, TageTableConfig
from repro.kernels.components import TAGEKernel
from repro.kernels.vector_ops import (
    earlier_dirty_same_key,
    fold_history_vec,
    forward_saturating,
    rolling_histories,
)


# ----------------------------------------------------------------------
# forward_saturating
# ----------------------------------------------------------------------
def few_keys(n):
    """Keys from a small range, so chains of every length occur."""
    return st.lists(st.integers(0, 7), min_size=n, max_size=n)


def distinct_keys(n):
    return st.lists(st.integers(0, 1000), min_size=n, max_size=n, unique=True)


def one_chain(n):
    return st.just([5] * n)


@st.composite
def counter_events(draw, keys=few_keys):
    """``(keys, upd, taken, v0, bits)``: a chronological event chain.

    ``keys(n)`` is the strategy for the key column.  ``v0`` is each key's
    frozen value, repeated on every event of that key, as the kernels
    pass it.
    """
    bits = draw(st.integers(1, 4))
    n = draw(st.integers(0, 80))
    key_list = draw(keys(n))
    upd = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    taken = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    frozen = {
        key: draw(st.integers(0, mask(bits))) for key in sorted(set(key_list))
    }
    return (
        np.array(key_list, dtype=np.int64),
        np.array(upd, dtype=bool),
        np.array(taken, dtype=bool),
        np.array([frozen[key] for key in key_list], dtype=np.int64),
        bits,
    )


def scalar_chain(keys, upd, taken, v0, bits):
    """Sequential reference: (pre, post, value after each prefix)."""
    value = {}
    pre, post, finals = [], [], [{}]
    for key, u, t, v in zip(keys.tolist(), upd, taken, v0.tolist()):
        value.setdefault(key, v)
        pre.append(value[key])
        if u:
            value[key] = saturating_update(value[key], bool(t), bits)
        post.append(value[key])
        finals.append(dict(value))
    return pre, post, finals


def assert_matches_scalar(events):
    chains = forward_saturating(*events)
    pre, post, finals = scalar_chain(*events)
    assert chains.pre.tolist() == pre
    assert chains.post.tolist() == post
    for n, expected in enumerate(finals):
        keys, values = chains.final(n)
        assert dict(zip(keys.tolist(), values.tolist())) == expected


class TestForwardSaturating:
    @settings(max_examples=200, deadline=None)
    @given(counter_events())
    def test_matches_sequential_counters(self, events):
        assert_matches_scalar(events)

    @settings(max_examples=100, deadline=None)
    @given(counter_events(keys=distinct_keys))
    def test_all_distinct_keys(self, events):
        chains = forward_saturating(*events)
        # No key repeats, so every event reads its frozen value.
        assert chains.pre.tolist() == events[3].tolist()
        assert_matches_scalar(events)

    @settings(max_examples=100, deadline=None)
    @given(counter_events(keys=one_chain))
    def test_single_long_chain(self, events):
        assert_matches_scalar(events)

    @settings(max_examples=100, deadline=None)
    @given(counter_events(), st.data())
    def test_prefix_of_the_window_equals_a_shorter_window(self, events, data):
        """The property commits rely on: the first ``n`` events' values of
        a window's chains equal the chains of those ``n`` events alone, so
        a commit reuses lookup-time values instead of scanning again."""
        keys, upd, taken, v0, bits = events
        n = data.draw(st.integers(0, len(keys)))
        whole = forward_saturating(*events)
        prefix = forward_saturating(keys[:n], upd[:n], taken[:n], v0[:n], bits)
        assert whole.pre[:n].tolist() == prefix.pre.tolist()
        assert whole.post[:n].tolist() == prefix.post.tolist()
        got_keys, got_values = whole.final(n)
        want_keys, want_values = prefix.final(n)
        assert got_keys.tolist() == want_keys.tolist()
        assert got_values.tolist() == want_values.tolist()


# ----------------------------------------------------------------------
# earlier_dirty_same_key
# ----------------------------------------------------------------------
class TestEarlierDirtySameKey:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 6), st.booleans()), min_size=0, max_size=60
        )
    )
    def test_matches_sequential_scan(self, column):
        keys = np.array([key for key, _ in column], dtype=np.int64)
        dirty = np.array([d for _, d in column], dtype=bool)
        written = set()
        expected = []
        for key, d in column:
            expected.append(key in written)
            if d:
                written.add(key)
        assert earlier_dirty_same_key(keys, dirty).tolist() == expected


# ----------------------------------------------------------------------
# History registers and folds
# ----------------------------------------------------------------------
class TestHistories:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 64).flatmap(
            lambda bits: st.tuples(
                st.just(bits),
                st.integers(0, mask(bits)),
                st.lists(st.booleans(), max_size=150),
            )
        )
    )
    def test_rolling_histories_match_repeated_shift_in(self, case):
        bits, ghist0, outcomes = case
        got = rolling_histories(ghist0, np.array(outcomes, dtype=bool), bits)
        expected = [ghist0]
        for taken in outcomes:
            expected.append(shift_in(expected[-1], taken, bits))
        assert [int(v) for v in got] == expected

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 80),
        st.integers(0, 20),
        st.lists(st.integers(0, mask(64)), min_size=1, max_size=8),
    )
    def test_fold_history_vec_matches_scalar(self, hist_bits, fold_bits, hists):
        got = fold_history_vec(np.array(hists, dtype=np.uint64), hist_bits, fold_bits)
        expected = [fold_history(h, hist_bits, fold_bits) for h in hists]
        assert got.tolist() == expected


@st.composite
def tage_tables(draw):
    return [
        TageTableConfig(
            n_sets=1 << draw(st.integers(0, 11)),
            history_bits=draw(st.integers(1, 64)),
            tag_bits=draw(st.integers(1, 14)),
        )
        for _ in range(draw(st.integers(1, 8)))
    ]


class TestTageColumns:
    @settings(max_examples=100, deadline=None)
    @given(
        tage_tables(),
        st.sampled_from([1, 2, 4, 8]),
        st.lists(
            st.tuples(st.integers(0, 1 << 30), st.integers(0, mask(64))),
            min_size=1,
            max_size=12,
        ),
    )
    def test_stacked_index_and_tag_match_index_tag(self, tables, width, reqs):
        tage = TAGE("tage", fetch_width=width, tables=tables)
        fetch_pcs = np.array([pc for pc, _ in reqs], dtype=np.int64)
        ghists = np.array([g for _, g in reqs], dtype=np.uint64)
        index, tag = TAGEKernel(tage).index_tag(fetch_pcs, ghists)
        for t in range(len(tables)):
            expected = [tage._index_tags(pc, g)[t] for pc, g in reqs]
            assert list(zip(index[t].tolist(), tag[t].tolist())) == expected
