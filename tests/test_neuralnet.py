"""Dense network forward/backward/Adam checks against hand math."""

import math

import numpy as np
import pytest

from qflearn.neuralnet import (
    LINEAR,
    RELU,
    SOFTMAX,
    AdamConfig,
    DenseLayer,
    DenseNetwork,
    ParameterGradient,
    adam_step,
    backward,
    forward,
    glorot_init,
    load_network,
    save_network,
)


def scalar_probe_gradient(net, x, probe):
    """Backprop gradient of sum(probe * net(x)) as one flat vector."""
    out, tape = forward(net, x)
    grad = backward(net, tape, np.broadcast_to(probe, out.shape).copy())
    return grad.flat, float((out * probe).sum())


def finite_difference(net, x, probe, index, h=1e-6):
    flat = net.flatten_params()
    bumped = flat.copy()
    bumped[index] = flat[index] + h
    net.set_flat_params(bumped)
    up, _ = forward(net, x)
    bumped[index] = flat[index] - h
    net.set_flat_params(bumped)
    down, _ = forward(net, x)
    net.set_flat_params(flat)
    return float(((up - down) * probe).sum()) / (2.0 * h)


def random_network(rng, softmax_head=False):
    depth = int(rng.integers(2, 4))
    dims = [int(d) for d in rng.integers(2, 7, size=depth + 1)]
    acts = [RELU] * (depth - 1) + [SOFTMAX if softmax_head else LINEAR]
    return glorot_init(dims, acts, rng)


def test_backward_matches_finite_differences():
    """100 random parameter probes across random small networks, rel err < 1e-4."""
    rng = np.random.default_rng(101)
    checked = 0
    worst = 0.0
    while checked < 100:
        net = random_network(rng, softmax_head=bool(rng.integers(0, 2)))
        x = rng.normal(size=(5, net.in_dim))
        probe = rng.normal(size=(net.out_dim,))
        analytic, _ = scalar_probe_gradient(net, x, probe)
        for index in rng.choice(net.param_count(), size=4, replace=False):
            fd = finite_difference(net, x, probe, int(index))
            scale = max(abs(fd), abs(analytic[index]), 1e-8)
            worst = max(worst, abs(fd - analytic[index]) / scale)
            checked += 1
    assert worst < 1e-4, f"worst relative error {worst:.3e}"


def test_relu_masks_negative_preactivations():
    layer = DenseLayer(np.array([[1.0], [-1.0]]), np.zeros(2), RELU)
    net = DenseNetwork([layer])
    out, _ = forward(net, np.array([[2.0]]))
    np.testing.assert_allclose(out, [[2.0, 0.0]])


def test_softmax_rows_are_distributions():
    rng = np.random.default_rng(7)
    net = glorot_init([3, 8, 4], [RELU, SOFTMAX], rng)
    out, _ = forward(net, rng.normal(size=(11, 3)))
    assert np.all(out > 0.0)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)


def test_softmax_is_shift_invariant_and_stable():
    layer = DenseLayer(np.eye(3), np.zeros(3), SOFTMAX)
    net = DenseNetwork([layer])
    out, _ = forward(net, np.array([[1000.0, 1001.0, 999.0]]))
    assert np.all(np.isfinite(out))
    ref = np.exp([0.0, 1.0, -1.0])
    np.testing.assert_allclose(out[0], ref / ref.sum(), rtol=1e-12)


def test_linear_layer_is_exact_affine_map():
    w = np.array([[2.0, -1.0], [0.5, 3.0]])
    b = np.array([1.0, -2.0])
    net = DenseNetwork([DenseLayer(w, b, LINEAR)])
    x = np.array([[1.0, 2.0], [-3.0, 0.5]])
    out, _ = forward(net, x)
    np.testing.assert_allclose(out, x @ w.T + b)


def test_glorot_bounds_and_zero_biases():
    rng = np.random.default_rng(3)
    net = glorot_init([16, 30, 30, 2], [RELU, RELU, LINEAR], rng)
    for layer in net.layers:
        bound = math.sqrt(6.0 / (layer.in_dim + layer.out_dim))
        assert np.all(np.abs(layer.weights) <= bound)
        assert np.all(layer.biases == 0.0)
    # the draw actually spreads over the interval rather than collapsing
    first = net.layers[0].weights
    assert first.max() > 0.5 * math.sqrt(6.0 / 46)
    assert first.min() < -0.5 * math.sqrt(6.0 / 46)


def test_softmax_rejected_in_hidden_position():
    with pytest.raises(ValueError):
        DenseNetwork(
            [
                DenseLayer(np.eye(2), np.zeros(2), SOFTMAX),
                DenseLayer(np.eye(2), np.zeros(2), LINEAR),
            ]
        )


def test_dimension_chain_validated():
    with pytest.raises(ValueError):
        DenseNetwork(
            [
                DenseLayer(np.zeros((3, 2)), np.zeros(3), RELU),
                DenseLayer(np.zeros((2, 4)), np.zeros(2), LINEAR),
            ]
        )


def test_flatten_set_roundtrip():
    rng = np.random.default_rng(11)
    net = glorot_init([4, 5, 3], [RELU, LINEAR], rng)
    flat = net.flatten_params()
    assert flat.shape == (net.param_count(),)
    twin = glorot_init([4, 5, 3], [RELU, LINEAR], np.random.default_rng(999))
    twin.set_flat_params(flat)
    np.testing.assert_array_equal(twin.flatten_params(), flat)
    for a, b in zip(net.layers, twin.layers):
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.biases, b.biases)


def test_layer_parameters_are_views_of_params():
    rng = np.random.default_rng(13)
    net = glorot_init([3, 4, 2], [RELU, LINEAR], rng)
    assert net.params.flags.c_contiguous and net.params.shape == (net.param_count(),)
    for layer in net.layers:
        assert np.shares_memory(layer.weights, net.params)
        assert np.shares_memory(layer.biases, net.params)
        assert layer.weights.flags.c_contiguous
    assert net.adam_m.shape == net.adam_v.shape == net.params.shape
    # layer by layer, row-major weights then biases
    net.params[:] = np.arange(net.param_count())
    np.testing.assert_array_equal(net.layers[0].weights, np.arange(12).reshape(4, 3))
    np.testing.assert_array_equal(net.layers[0].biases, [12, 13, 14, 15])
    np.testing.assert_array_equal(net.layers[1].weights, np.arange(16, 24).reshape(2, 4))
    np.testing.assert_array_equal(net.layers[1].biases, [24, 25])


def test_copy_is_independent():
    rng = np.random.default_rng(12)
    net = glorot_init([3, 4, 2], [RELU, LINEAR], rng)
    out, tape = forward(net, rng.normal(size=(5, 3)))
    adam_step(net, backward(net, tape, np.ones_like(out)), AdamConfig(learning_rate=0.01))
    dup = net.copy()
    np.testing.assert_array_equal(dup.params, net.params)
    np.testing.assert_array_equal(dup.adam_m, net.adam_m)
    np.testing.assert_array_equal(dup.adam_v, net.adam_v)
    assert dup.adam_t == net.adam_t == 1
    for a, b in zip(net.layers, dup.layers):
        assert a.activation == b.activation
        assert np.shares_memory(b.weights, dup.params)
    for name in ("params", "adam_m", "adam_v"):
        assert not np.shares_memory(getattr(net, name), getattr(dup, name)), name
    dup.layers[0].weights += 1.0
    dup.adam_m += 1.0
    dup.adam_v += 1.0
    dup.adam_t = 9
    assert net.adam_t == 1
    assert not np.allclose(net.layers[0].weights, dup.layers[0].weights)
    assert not np.allclose(net.adam_m, dup.adam_m)
    assert not np.allclose(net.adam_v, dup.adam_v)


def gradient_from_flat(net, flat):
    """A ParameterGradient over a copy of flat, in net's parameter layout."""
    flat = np.array(flat, dtype=np.float64)
    return ParameterGradient(flat, net.views(flat))


def test_adam_first_step_matches_hand_formula():
    """With zero moments, step 1 moves each coordinate by lr*g/(|g|+eps')."""
    w = np.array([[1.0, -2.0]])
    net = DenseNetwork([DenseLayer(w.copy(), np.array([0.5]), LINEAR)])
    grad = gradient_from_flat(net, [0.3, -0.7, 0.1])
    cfg = AdamConfig(learning_rate=0.01)
    adam_step(net, grad, cfg)
    # bias-corrected m_hat = g, v_hat = g^2, so the update is lr * sign(g)
    # up to the epsilon in the denominator
    g = np.array([[0.3, -0.7]])
    expect_w = w - 0.01 * g / (np.abs(g) + 1e-8)
    np.testing.assert_allclose(net.layers[0].weights, expect_w, rtol=1e-9)
    expect_b = 0.5 - 0.01 * 0.1 / (0.1 + 1e-8)
    np.testing.assert_allclose(net.layers[0].biases, [expect_b], rtol=1e-9)
    assert net.adam_t == 1


def test_adam_two_steps_match_reference_recursion():
    rng = np.random.default_rng(21)
    net = glorot_init([2, 3], [LINEAR], rng)
    cfg = AdamConfig(learning_rate=0.05, beta1=0.8, beta2=0.95, epsilon=1e-8)
    flat0 = net.flatten_params()
    g1 = rng.normal(size=flat0.shape)
    g2 = rng.normal(size=flat0.shape)

    adam_step(net, gradient_from_flat(net, g1), cfg)
    adam_step(net, gradient_from_flat(net, g2), cfg)

    m = np.zeros_like(flat0)
    v = np.zeros_like(flat0)
    theta = flat0.copy()
    for t, g in ((1, g1), (2, g2)):
        m = 0.8 * m + 0.2 * g
        v = 0.95 * v + 0.05 * g * g
        m_hat = m / (1.0 - 0.8**t)
        v_hat = v / (1.0 - 0.95**t)
        theta = theta - 0.05 * m_hat / (np.sqrt(v_hat) + 1e-8)
    np.testing.assert_allclose(net.flatten_params(), theta, rtol=1e-12)


def test_adam_rejects_non_finite_gradient():
    """A non-finite gradient raises before touching parameters or optimizer state."""
    rng = np.random.default_rng(31)
    net = glorot_init([2, 3, 2], [RELU, LINEAR], rng)
    cfg = AdamConfig(learning_rate=0.01)
    adam_step(net, gradient_from_flat(net, rng.normal(size=net.param_count())), cfg)
    before = (net.params.copy(), net.adam_m.copy(), net.adam_v.copy(), net.adam_t)
    for bad in (np.nan, np.inf, -np.inf):
        flat = rng.normal(size=net.param_count())
        flat[-1] = bad  # last bias: the final slot of the flat layout
        with pytest.raises(ValueError, match="non-finite gradient"):
            adam_step(net, gradient_from_flat(net, flat), cfg)
        np.testing.assert_array_equal(net.params, before[0])
        np.testing.assert_array_equal(net.adam_m, before[1])
        np.testing.assert_array_equal(net.adam_v, before[2])
        assert net.adam_t == before[3]


def test_gradient_norm_and_flat_layout():
    """norm() is the Euclidean norm of the flat vector, summed layer by layer."""
    scalar_net = DenseNetwork([DenseLayer(np.zeros((1, 1)), np.zeros(1), LINEAR)])
    grad = gradient_from_flat(scalar_net, [3.0, 4.0])
    assert grad.norm() == pytest.approx(5.0)
    np.testing.assert_array_equal(grad.flat, [3.0, 4.0])
    rng = np.random.default_rng(33)
    net = glorot_init([3, 4, 2], [RELU, LINEAR], rng)
    grad = gradient_from_flat(net, rng.normal(size=net.param_count()))
    assert grad.norm() == pytest.approx(float(np.linalg.norm(grad.flat)), rel=1e-14)
    # the per-layer (dW, db) summation order, as the grad_norm metrics column logs it
    per_layer = sum(float((dw * dw).sum() + (db * db).sum()) for dw, db in grad.layers)
    assert grad.norm() == float(np.sqrt(per_layer))
    assert [dw.shape for dw, _ in grad.layers] == [(4, 3), (2, 4)]


def reference_backward(net, tape, output_grad):
    """Layer-by-layer backward pass returning separate (dW, db) arrays per layer."""
    g = np.atleast_2d(output_grad)
    grads = [None] * len(net.layers)
    for i in range(len(net.layers) - 1, -1, -1):
        a_in, z, out = tape[i]
        act = net.layers[i].activation
        if act == RELU:
            dz = g * (z > 0.0)
        elif act == SOFTMAX:
            dz = out * (g - (out * g).sum(axis=1, keepdims=True))
        else:
            dz = g
        grads[i] = (dz.T @ a_in, dz.sum(axis=0))
        g = dz @ net.layers[i].weights
    return grads


def test_backward_flat_gradient_is_concatenation_of_views():
    """The flat gradient is the per-layer views laid end to end, bit-equal to a
    layer-by-layer reference, and out= receives the same bits in place."""
    rng = np.random.default_rng(53)
    for softmax_head in (False, True):
        net = glorot_init([3, 6, 5, 4], [RELU, RELU, SOFTMAX if softmax_head else LINEAR], rng)
        out, tape = forward(net, rng.normal(size=(7, 3)))
        probe = rng.normal(size=out.shape)
        grad = backward(net, tape, probe)
        assert grad.flat.shape == (net.param_count(),)
        for dw, db in grad.layers:
            assert np.shares_memory(dw, grad.flat) and np.shares_memory(db, grad.flat)
        np.testing.assert_array_equal(
            grad.flat, np.concatenate([np.concatenate([dw.ravel(), db]) for dw, db in grad.layers])
        )
        reference = reference_backward(net, tape, probe)
        np.testing.assert_array_equal(
            grad.flat, np.concatenate([np.concatenate([dw.ravel(), db]) for dw, db in reference])
        )
        buf = np.full((2, net.param_count()), np.nan)
        into = backward(net, tape, probe, out=buf[1])
        assert np.shares_memory(into.flat, buf[1])
        np.testing.assert_array_equal(buf[1], grad.flat)
        assert np.isnan(buf[0]).all()


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(41)
    net = glorot_init([16, 30, 30, 2], [RELU, RELU, LINEAR], rng)
    path = tmp_path / "net.json"
    save_network(net, str(path))
    back = load_network(str(path))
    np.testing.assert_array_equal(back.flatten_params(), net.flatten_params())
    assert [l.activation for l in back.layers] == [l.activation for l in net.layers]
    # optimizer state restarts cleanly on load
    assert back.adam_t == 0


def test_backward_batch_sums_per_sample_gradients():
    """Gradient of a 2-sample batch equals the sum of single-sample gradients."""
    rng = np.random.default_rng(51)
    net = glorot_init([3, 5, 2], [RELU, LINEAR], rng)
    x = rng.normal(size=(2, 3))
    probe = rng.normal(size=(2, 2))
    out, tape = forward(net, x)
    full = backward(net, tape, probe.copy()).flat
    parts = np.zeros_like(full)
    for k in range(2):
        out_k, tape_k = forward(net, x[k : k + 1])
        parts += backward(net, tape_k, probe[k : k + 1].copy()).flat
    np.testing.assert_allclose(full, parts, rtol=1e-12)
