"""Counter-based RNG: replayability and stream separation."""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from posrec.model import ModelConfig, dropout_masks
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


@settings(max_examples=30, deadline=None)
@given(blocks=st.integers(1, 3), rows=st.integers(1, 6), max_len=st.integers(2, 4),
       d=st.integers(1, 3), stream=st.integers(0, 3))
def test_dropout_masks_draw_each_site_from_its_stream(blocks, rows, max_len, d, stream):
    config = ModelConfig(d=d, heads=1, blocks=blocks, max_len=max_len, dropout=0.4)
    masks = dropout_masks(config, rows, Rng(5, stream))
    assert masks.dtype == bool and masks.shape == (1 + 2 * blocks, rows, max_len, d)
    sites = [Rng(5, stream).child(0)] + [Rng(5, stream).child(i + 1).child(j)
                                         for i in range(blocks) for j in (0, 1)]
    for k, site in enumerate(sites):
        assert np.array_equal(masks[k], site.uniform((rows, max_len, d)) >= 0.4), k
    assert dropout_masks(replace(config, dropout=0.0), rows, Rng(5, stream)) is None
