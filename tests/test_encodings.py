"""Encoding variants: frozen table values, invariants, and gradient flow."""

import mpmath
import numpy as np
import pytest

from posrec import numeric as nm
from posrec.encodings import (
    VARIANTS,
    EncodingConfig,
    EncodingTables,
    apply_vector_encoding,
    relative_bias_tables,
    relative_index_matrix,
    rope_rotate,
    rotatory_table,
    sinusoidal_table,
)
from posrec.errors import GraphError, UserError
from posrec.model import ModelConfig


def make_encoding(variant, max_len=6, d=8, projection_activation="leaky", **kw):
    """(config, tables) for one variant, built as the model builds them."""
    encoding = EncodingConfig(variant, projection_activation=projection_activation, **kw)
    return encoding, EncodingTables.create(encoding, d, max_len, nm.Rng(3, 1))


# ---------------------------------------------------------------------------
# sinusoidal table


def test_sinusoidal_first_rows_match_high_precision_oracle():
    # oracle: evaluate sin/cos(pos / 10000^(2i/d)) at 50 digits with mpmath
    table = sinusoidal_table(4, 4)
    with mpmath.workdps(50):
        for pos in range(4):
            for i in range(2):
                angle = mpmath.mpf(pos) / mpmath.power(10000, mpmath.mpf(2 * i) / 4)
                assert abs(table[pos, 2 * i] - float(mpmath.sin(angle))) < 1e-15
                assert abs(table[pos, 2 * i + 1] - float(mpmath.cos(angle))) < 1e-15
    np.testing.assert_allclose(table[0], [0.0, 1.0, 0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(
        table[1], [0.841471, 0.540302, 0.010000, 0.999950], atol=5e-7
    )


def test_sinusoidal_table_is_finite_and_bounded():
    table = sinusoidal_table(50, 90)
    assert table.shape == (50, 90)
    assert np.isfinite(table).all()
    assert (table >= -1.0).all() and (table <= 1.0).all()


def test_sinusoidal_rejects_odd_dim():
    with pytest.raises(UserError):
        sinusoidal_table(10, 7)


# ---------------------------------------------------------------------------
# rotatory table


def test_rotatory_zero_angles_give_alternating_zero_one():
    angles = nm.parameter(np.zeros((5, 4)))
    rows = rotatory_table(angles, 8).values
    np.testing.assert_allclose(rows, np.tile([0.0, 1.0], (5, 4)), atol=1e-15)


@pytest.mark.parametrize("max_len", [1, 35, 75])
@pytest.mark.parametrize("d", [4, 90])
def test_rotatory_pairs_have_unit_norm(max_len, d):
    angles = nm.parameter(nm.Rng(17, max_len + d).normal((max_len, d // 2), scale=3.0))
    rows = rotatory_table(angles, d).values
    pair_norm = rows[:, 0::2] ** 2 + rows[:, 1::2] ** 2
    np.testing.assert_allclose(pair_norm, 1.0, atol=1e-12)


def test_rotatory_gradient_matches_finite_differences():
    rng = nm.Rng(23)
    angles = nm.parameter(rng.uniform((4, 3)))
    weights = nm.constant(rng.normal((4 * 6,)))

    def build():
        return nm.dot_last(nm.reshape(rotatory_table(angles, 6), (-1,)), weights)

    report = nm.check_gradients(build, [("angles", angles)], h=1e-6)
    assert report.max_rel_err < 1e-5


def test_rotatory_rejects_mismatched_dim():
    with pytest.raises(GraphError):
        rotatory_table(nm.parameter(np.zeros((3, 4))), 6)


# ---------------------------------------------------------------------------
# vector application


def test_none_variant_returns_input_unchanged():
    encoding, tables = make_encoding("None")
    x = nm.tensor(nm.Rng(1).normal((2, 6, 8)))
    assert apply_vector_encoding(x, encoding, tables) is x


def test_add_mode_on_zero_input_reproduces_table_rows():
    encoding, tables = make_encoding("Abs", max_len=6, d=8)
    x = nm.tensor(np.zeros((3, 6, 8)))
    out = apply_vector_encoding(x, encoding, tables)
    for b in range(3):
        np.testing.assert_allclose(out.values[b], tables.abs_table, atol=1e-15)


def test_concat_identity_projection_recovers_input():
    # W = [I | 0], b = 0, identity activation: the projection returns x
    encoding, tables = make_encoding("LearntCon", max_len=5, d=6, projection_activation="identity")
    eye = np.concatenate([np.eye(6), np.zeros((6, 6))], axis=1)
    tables.projection_weight.values = eye
    tables.projection_bias.values = np.zeros(6)
    x = nm.tensor(nm.Rng(4).normal((2, 5, 6)))
    out = apply_vector_encoding(x, encoding, tables)
    np.testing.assert_allclose(out.values, x.values, atol=1e-12)


def test_concat_projection_approaches_plain_projection_as_pe_columns_shrink():
    rng = nm.Rng(9)
    encoding, tables = make_encoding("RotatoryCon", max_len=4, d=6)
    w_x = tables.projection_weight.values[:, :6].copy()
    w_pe = tables.projection_weight.values[:, 6:].copy()
    bias = tables.projection_bias.values.copy()
    x = nm.tensor(rng.normal((2, 4, 6)))
    z = x.values @ w_x.T + bias
    plain = np.where(z > 0, z, 0.01 * z)  # leaky_relu

    gaps = []
    for s in [1.0, 0.3, 0.1, 0.03, 0.01, 0.001]:
        tables.projection_weight.values = np.concatenate([w_x, s * w_pe], axis=1)
        out = apply_vector_encoding(x, encoding, tables).values
        gaps.append(float(np.abs(out - plain).max()))
    assert all(a >= b for a, b in zip(gaps, gaps[1:]))  # monotone shrinking
    assert gaps[-1] < 1e-2 * gaps[0] + 1e-12


def test_vector_application_rejects_in_attention_variants():
    x = nm.tensor(np.zeros((1, 4, 8)))
    for variant in ("RMHA4", "RoPE", "RopeOne"):
        with pytest.raises(GraphError):
            apply_vector_encoding(x, *make_encoding(variant, max_len=4, d=8))


def test_all_learnable_vector_variants_pass_gradient_check():
    rng = nm.Rng(31)
    x_values = rng.normal((2, 4, 6))
    weights = rng.normal((2, 4, 6))
    for variant in ("Learnt", "LearntCon", "AbsCon", "Rotatory", "RotatoryCon"):
        encoding = EncodingConfig(variant, projection_activation="leaky")
        tables = EncodingTables.create(encoding, 6, 4, nm.Rng(7, 2))

        def build():
            out = apply_vector_encoding(nm.tensor(x_values), encoding, tables)
            return nm.dot_last(nm.reshape(out, (-1,)), nm.constant(weights.ravel()))

        report = nm.check_gradients(build, tables.parameters(), h=1e-5)
        assert report.max_rel_err < 1e-4, f"{variant}: {report.max_rel_err:.2e}"


# ---------------------------------------------------------------------------
# rotation of queries/keys


def test_rope_position_zero_is_identity():
    x = nm.tensor(nm.Rng(2).normal((1, 1, 1, 8)))
    out = rope_rotate(x, positions=np.array([0]))
    np.testing.assert_allclose(out.values, x.values, atol=1e-15)


def test_rope_preserves_pair_norms():
    x = nm.tensor(nm.Rng(5).normal((2, 3, 7, 8)))
    out = rope_rotate(x).values
    before = x.values[..., 0::2] ** 2 + x.values[..., 1::2] ** 2
    after = out[..., 0::2] ** 2 + out[..., 1::2] ** 2
    np.testing.assert_allclose(after, before, atol=1e-12)


@pytest.mark.parametrize("d_h", [4, 8, 16])
def test_rope_relative_offset_identity(d_h):
    # <rotate_m(q), rotate_n(k)> == <rotate_{m-n}(q), k> for 100 random draws
    rng = nm.Rng(77, d_h)
    for _ in range(100):
        q = rng.normal((d_h,))
        k = rng.normal((d_h,))
        m = int(rng.integers(0, 64))
        n = int(rng.integers(0, 64))
        qm = rope_rotate(nm.tensor(q[None, :]), positions=np.array([m])).values[0]
        kn = rope_rotate(nm.tensor(k[None, :]), positions=np.array([n])).values[0]
        qmn = rope_rotate(nm.tensor(q[None, :]), positions=np.array([m - n])).values[0]
        assert abs(float(qm @ kn) - float(qmn @ k)) < 1e-10


def test_rope_rejects_odd_head_dim():
    with pytest.raises(GraphError):
        rope_rotate(nm.tensor(np.zeros((1, 2, 5))))


# ---------------------------------------------------------------------------
# relative bias tables


def test_relative_tables_have_one_row_per_clamped_offset():
    a_k, a_v = relative_bias_tables(4, 16)
    assert a_k.shape == (9, 16) and a_v.shape == (9, 16)
    np.testing.assert_array_equal(a_k.values, 0.0)


def test_relative_index_matrix_clamps_far_offsets():
    idx = relative_index_matrix(10, 4)
    assert idx.shape == (10, 10)
    assert idx[0, 9] == 8 and idx[0, 4] == 8  # +4 and beyond share a row
    assert idx[9, 0] == 0 and idx[5, 0] == 0  # -4 and beyond share a row
    assert idx[3, 3] == 4  # offset 0 sits in the middle


def test_relative_clip_must_be_positive():
    with pytest.raises(UserError):
        ModelConfig(d=8, heads=2, encoding=EncodingConfig("RMHA4", clip_distance=0))
    ModelConfig(d=8, heads=2, encoding=EncodingConfig("RoPE", clip_distance=0))  # RMHA4 only


# ---------------------------------------------------------------------------
# table population rules


def test_spec_populates_exactly_the_fields_its_variant_demands():
    _, tables = make_encoding("Learnt")
    assert tables.position_table is not None
    assert tables.angle_table is None and tables.projection_weight is None

    _, tables = make_encoding("RotatoryCon")
    assert tables.angle_table is not None
    assert tables.projection_weight is not None and tables.projection_bias is not None
    assert tables.position_table is None

    _, tables = make_encoding("Abs")
    assert tables.abs_table is not None
    assert not tables.parameters()

    _, tables = make_encoding("RMHA4")
    assert not tables.parameters()  # bias tables are owned by the model


def test_unknown_variant_error_lists_all_ten_names():
    with pytest.raises(UserError) as err:
        ModelConfig(encoding="Rotary")
    msg = str(err.value)
    for name in VARIANTS:
        assert name in msg


def test_rotatory_requires_even_dim():
    with pytest.raises(UserError):
        ModelConfig(d=7, heads=1, encoding="Rotatory")
