"""Adam update rule against hand-computed recurrences."""

import numpy as np

from posrec import numeric as nm


def make_param(value):
    return nm.parameter(np.array(value, dtype=np.float64))


def test_zero_gradient_leaves_parameter_unchanged():
    p = make_param([1.5, -2.0])
    state = nm.AdamState.for_params([p])
    nm.adam_step([p], state, lr=1e-3)  # adjoint never touched
    np.testing.assert_array_equal(p.values, [1.5, -2.0])


def test_single_step_matches_bias_corrected_rule():
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    p = make_param(0.7)
    p.adjoint = np.array(1.0)
    state = nm.AdamState.for_params([p])
    nm.adam_step([p], state, lr=lr)

    # recurrence written out independently of the implementation
    m = (1 - b1) * 1.0
    v = (1 - b2) * 1.0
    m_hat = m / (1 - b1)
    v_hat = v / (1 - b2)
    expected = 0.7 - lr * m_hat / (np.sqrt(v_hat) + eps)
    assert abs(float(p.values) - expected) < 1e-15
    # magnitude of the first unit-gradient step is essentially lr
    assert abs((0.7 - float(p.values)) - lr) < 1e-10


def test_two_steps_with_sign_flip_match_recurrence():
    lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
    grads = [1.0, -0.5]
    p = make_param(0.0)
    state = nm.AdamState.for_params([p])

    x = 0.0
    m = v = 0.0
    for t, g in enumerate(grads, start=1):
        p.adjoint = np.array(g)
        nm.adam_step([p], state, lr=lr)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        x = x - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
    assert abs(float(p.values) - x) < 1e-15
    assert state.step_count == 2


def test_adjoints_cleared_after_step():
    p = make_param([1.0])
    p.adjoint = np.array([2.0])
    state = nm.AdamState.for_params([p])
    nm.adam_step([p], state, lr=1e-3)
    assert p.adjoint is None


def test_descends_a_quadratic():
    p = make_param(3.0)
    state = nm.AdamState.for_params([p])
    for _ in range(400):
        flat = nm.reshape(p, (1,))
        loss = nm.dot_last(flat, flat)
        loss.backward()
        nm.adam_step([p], state, lr=5e-2)
    assert abs(float(p.values)) < 0.05


def test_l2_weight_matches_adding_its_gradient_to_the_adjoint_bitwise():
    # the former form: the L2 gradient was added to each adjoint, a missing
    # one counting as 0.0, before a plain step
    def two_step(params, state, lr, l2_weight):
        for p in params:
            grad = p.adjoint if p.adjoint is not None else 0.0
            p.adjoint = grad + 2.0 * l2_weight * p.values
        nm.adam_step(params, state, lr=lr)

    gen = np.random.default_rng(4)
    start = gen.normal(size=(2, 6))
    start[:, :2] = [0.0, -0.0]  # signed zeros must keep their sign bits
    sides = []
    for step in (two_step, lambda ps, st, lr, l2: nm.adam_step(ps, st, lr=lr, l2_weight=l2)):
        params = [make_param(row) for row in start]  # adjoint set, adjoint None
        state = nm.AdamState.for_params(params)
        grads = np.random.default_rng(5)
        for _ in range(3):
            params[0].adjoint = grads.normal(size=6)
            params[0].adjoint[:2] = [-0.0, 0.0]
            step(params, state, 1e-2, 0.05)
        sides.append([p.values for p in params] + state.m + state.v)
    for got, want in zip(*sides):
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
