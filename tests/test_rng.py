"""Counter-based RNG: replayability and stream separation."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from posrec.numeric import Rng


def test_same_seed_and_stream_replays_exactly():
    a = Rng(123, 4)
    b = Rng(123, 4)
    assert np.array_equal(a.uniform((100,)), b.uniform((100,)))
    assert np.array_equal(a.integers(0, 1000, (50,)), b.integers(0, 1000, (50,)))
    assert np.array_equal(a.permutation(64), b.permutation(64))


def test_streams_and_seeds_differ():
    base = Rng(123, 0).uniform((64,))
    assert not np.array_equal(base, Rng(123, 1).uniform((64,)))
    assert not np.array_equal(base, Rng(124, 0).uniform((64,)))


def test_child_streams_are_distinct_and_deterministic():
    r = Rng(7, 2)
    kids = [r.child(k).uniform((16,)) for k in range(8)]
    again = [Rng(7, 2).child(k).uniform((16,)) for k in range(8)]
    for a, b in zip(kids, again):
        assert np.array_equal(a, b)
    flat = {tuple(np.round(k, 12)) for k in kids}
    assert len(flat) == 8


def test_choice_without_replacement_is_exactly_k_distinct():
    r = Rng(11)
    pool = np.arange(40)
    draw = r.choice(pool, size=15, replace=False)
    assert len(draw) == 15 and len(set(draw.tolist())) == 15
    assert set(draw.tolist()) <= set(pool.tolist())


@settings(max_examples=60, deadline=None)
@given(start=st.integers(0, 9), n=st.integers(1, 6),
       row_shape=st.lists(st.integers(1, 5), max_size=2), stream=st.integers(0, 3))
def test_skip_rows_draws_the_rows_of_the_whole_draw(start, n, row_shape, stream):
    shape = (start + n, *row_shape)
    part = (n, *row_shape)
    whole = Rng(5, stream).uniform(shape)
    assert np.array_equal(Rng(5, stream).skip_rows(start).uniform(part), whole[start:])
    # children inherit the row offset
    kid = Rng(5, stream).child(2).uniform(shape)
    assert np.array_equal(Rng(5, stream).skip_rows(start).child(2).uniform(part), kid[start:])
