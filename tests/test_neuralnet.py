"""Dense network forward/backward/Adam checks against hand math."""

import json
import math

import numpy as np
import pytest

from qflearn.neuralnet import (
    LINEAR,
    RELU,
    SOFTMAX,
    AdamConfig,
    DenseNetwork,
    adam_step,
    backward,
    forward,
    glorot_init,
    gradient_norm,
    load_network,
    network_from_dict,
    network_to_dict,
    save_network,
)


def split_layers(net, flat):
    """Per-layer (weights, biases) arrays sharing memory with a vector laid out like net.params."""
    return [(flat[w].reshape(shape), flat[b]) for w, b, shape, _ in net.layout]


def scalar_probe_gradient(net, x, probe):
    """Backprop gradient of sum(probe * net(x)) as one flat vector."""
    out, tape = forward(net, x)
    grad = backward(net, tape, np.broadcast_to(probe, out.shape).copy())
    return grad, float((out * probe).sum())


def finite_difference(net, x, probe, index, h=1e-6):
    flat = net.params.copy()
    bumped = flat.copy()
    bumped[index] = flat[index] + h
    net.params[:] = bumped
    up, _ = forward(net, x)
    bumped[index] = flat[index] - h
    net.params[:] = bumped
    down, _ = forward(net, x)
    net.params[:] = flat
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
        for index in rng.choice(net.params.size, size=4, replace=False):
            fd = finite_difference(net, x, probe, int(index))
            scale = max(abs(fd), abs(analytic[index]), 1e-8)
            worst = max(worst, abs(fd - analytic[index]) / scale)
            checked += 1
    assert worst < 1e-4, f"worst relative error {worst:.3e}"


def test_relu_masks_negative_preactivations():
    net = DenseNetwork([1, 2], [RELU], [1.0, -1.0, 0.0, 0.0])
    out, _ = forward(net, np.array([[2.0]]))
    np.testing.assert_allclose(out, [[2.0, 0.0]])


def test_softmax_rows_are_distributions():
    rng = np.random.default_rng(7)
    net = glorot_init([3, 8, 4], [RELU, SOFTMAX], rng)
    out, _ = forward(net, rng.normal(size=(11, 3)))
    assert np.all(out > 0.0)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)


def test_softmax_is_shift_invariant_and_stable():
    net = DenseNetwork([3, 3], [SOFTMAX], np.concatenate([np.eye(3).ravel(), np.zeros(3)]))
    out, _ = forward(net, np.array([[1000.0, 1001.0, 999.0]]))
    assert np.all(np.isfinite(out))
    ref = np.exp([0.0, 1.0, -1.0])
    np.testing.assert_allclose(out[0], ref / ref.sum(), rtol=1e-12)


def test_linear_layer_is_exact_affine_map():
    w = np.array([[2.0, -1.0], [0.5, 3.0]])
    b = np.array([1.0, -2.0])
    net = DenseNetwork([2, 2], [LINEAR], np.concatenate([w.ravel(), b]))
    x = np.array([[1.0, 2.0], [-3.0, 0.5]])
    out, _ = forward(net, x)
    np.testing.assert_allclose(out, x @ w.T + b)


def test_glorot_bounds_and_zero_biases():
    rng = np.random.default_rng(3)
    net = glorot_init([16, 30, 30, 2], [RELU, RELU, LINEAR], rng)
    for w, b, (d_out, d_in), _ in net.layout:
        bound = math.sqrt(6.0 / (d_in + d_out))
        assert np.all(np.abs(net.params[w]) <= bound)
        assert np.all(net.params[b] == 0.0)
    # the draw actually spreads over the interval rather than collapsing
    first = net.params[net.layout[0][0]]
    assert first.max() > 0.5 * math.sqrt(6.0 / 46)
    assert first.min() < -0.5 * math.sqrt(6.0 / 46)


def test_softmax_rejected_in_hidden_position():
    with pytest.raises(ValueError):
        DenseNetwork([2, 2, 2], [SOFTMAX, LINEAR])


def test_dimension_chain_validated():
    doc = network_to_dict(DenseNetwork([2, 3, 2], [RELU, LINEAR]))
    doc["layers"][1]["in_dim"] = 4
    doc["layers"][1]["weights"] = [0.0] * 8
    with pytest.raises(ValueError, match="do not chain"):
        network_from_dict(doc)
    with pytest.raises(ValueError, match="one activation per layer"):
        DenseNetwork([2, 3, 2], [LINEAR])


def test_flatten_set_roundtrip():
    rng = np.random.default_rng(11)
    net = glorot_init([4, 5, 3], [RELU, LINEAR], rng)
    flat = net.params.copy()
    assert flat.shape == (4 * 5 + 5 + 5 * 3 + 3,)
    twin = glorot_init([4, 5, 3], [RELU, LINEAR], np.random.default_rng(999))
    twin.params[:] = flat
    np.testing.assert_array_equal(twin.params, flat)
    for (wa, ba), (wb, bb) in zip(split_layers(net, net.params), split_layers(twin, twin.params)):
        np.testing.assert_array_equal(wa, wb)
        np.testing.assert_array_equal(ba, bb)
    # the constructor copies a given parameter vector
    built = DenseNetwork([4, 5, 3], [RELU, LINEAR], flat)
    np.testing.assert_array_equal(built.params, flat)
    assert not np.shares_memory(built.params, flat)
    with pytest.raises(ValueError):
        DenseNetwork([4, 5, 3], [RELU, LINEAR], flat[:-1])


def test_layer_parameters_are_views_of_params():
    rng = np.random.default_rng(13)
    net = glorot_init([3, 4, 2], [RELU, LINEAR], rng)
    assert net.params.flags.c_contiguous and net.params.shape == (26,)
    assert [(shape, act) for _, _, shape, act in net.layout] == [((4, 3), RELU), ((2, 4), LINEAR)]
    assert (net.in_dim, net.out_dim) == (3, 2)
    parts = split_layers(net, net.params)
    for weights, biases in parts:
        assert np.shares_memory(weights, net.params)
        assert np.shares_memory(biases, net.params)
        assert weights.flags.c_contiguous
    assert net.adam_m.shape == net.adam_v.shape == net.params.shape
    # layer by layer, row-major weights then biases
    net.params[:] = np.arange(net.params.size)
    np.testing.assert_array_equal(parts[0][0], np.arange(12).reshape(4, 3))
    np.testing.assert_array_equal(parts[0][1], [12, 13, 14, 15])
    np.testing.assert_array_equal(parts[1][0], np.arange(16, 24).reshape(2, 4))
    np.testing.assert_array_equal(parts[1][1], [24, 25])


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
    assert dup.layout == net.layout
    for name in ("params", "adam_m", "adam_v"):
        assert not np.shares_memory(getattr(net, name), getattr(dup, name)), name
    dup.params[dup.layout[0][0]] += 1.0
    dup.adam_m += 1.0
    dup.adam_v += 1.0
    dup.adam_t = 9
    assert net.adam_t == 1
    assert not np.allclose(net.params[net.layout[0][0]], dup.params[dup.layout[0][0]])
    assert not np.allclose(net.adam_m, dup.adam_m)
    assert not np.allclose(net.adam_v, dup.adam_v)


def test_adam_first_step_matches_hand_formula():
    """With zero moments, step 1 moves each coordinate by lr*g/(|g|+eps')."""
    w = np.array([[1.0, -2.0]])
    net = DenseNetwork([2, 1], [LINEAR], [*w.ravel(), 0.5])
    grad = np.array([0.3, -0.7, 0.1])
    cfg = AdamConfig(learning_rate=0.01)
    adam_step(net, grad, cfg)
    # bias-corrected m_hat = g, v_hat = g^2, so the update is lr * sign(g)
    # up to the epsilon in the denominator
    g = np.array([[0.3, -0.7]])
    expect_w = w - 0.01 * g / (np.abs(g) + 1e-8)
    (weights, biases), = split_layers(net, net.params)
    np.testing.assert_allclose(weights, expect_w, rtol=1e-9)
    expect_b = 0.5 - 0.01 * 0.1 / (0.1 + 1e-8)
    np.testing.assert_allclose(biases, [expect_b], rtol=1e-9)
    assert net.adam_t == 1


def test_adam_two_steps_match_reference_recursion():
    rng = np.random.default_rng(21)
    net = glorot_init([2, 3], [LINEAR], rng)
    cfg = AdamConfig(learning_rate=0.05, beta1=0.8, beta2=0.95, epsilon=1e-8)
    flat0 = net.params.copy()
    g1 = rng.normal(size=flat0.shape)
    g2 = rng.normal(size=flat0.shape)

    adam_step(net, g1, cfg)
    adam_step(net, g2, cfg)

    m = np.zeros_like(flat0)
    v = np.zeros_like(flat0)
    theta = flat0.copy()
    for t, g in ((1, g1), (2, g2)):
        m = 0.8 * m + 0.2 * g
        v = 0.95 * v + 0.05 * g * g
        m_hat = m / (1.0 - 0.8**t)
        v_hat = v / (1.0 - 0.95**t)
        theta = theta - 0.05 * m_hat / (np.sqrt(v_hat) + 1e-8)
    np.testing.assert_allclose(net.params, theta, rtol=1e-12)


def test_adam_rejects_non_finite_gradient():
    """A non-finite gradient raises before touching parameters or optimizer state."""
    rng = np.random.default_rng(31)
    net = glorot_init([2, 3, 2], [RELU, LINEAR], rng)
    cfg = AdamConfig(learning_rate=0.01)
    adam_step(net, rng.normal(size=net.params.size), cfg)
    before = (net.params.copy(), net.adam_m.copy(), net.adam_v.copy(), net.adam_t)
    for bad in (np.nan, np.inf, -np.inf):
        flat = rng.normal(size=net.params.size)
        flat[-1] = bad  # last bias: the final slot of the flat layout
        with pytest.raises(ValueError, match="non-finite gradient"):
            adam_step(net, flat, cfg)
        np.testing.assert_array_equal(net.params, before[0])
        np.testing.assert_array_equal(net.adam_m, before[1])
        np.testing.assert_array_equal(net.adam_v, before[2])
        assert net.adam_t == before[3]


def test_gradient_norm_and_flat_layout():
    """gradient_norm is the Euclidean norm of the flat vector, summed layer by layer."""
    scalar_net = DenseNetwork([1, 1], [LINEAR])
    grad = np.array([3.0, 4.0])
    assert gradient_norm(scalar_net, grad) == pytest.approx(5.0)
    np.testing.assert_array_equal(grad, [3.0, 4.0])
    rng = np.random.default_rng(33)
    net = glorot_init([3, 4, 2], [RELU, LINEAR], rng)
    grad = rng.normal(size=net.params.size)
    assert gradient_norm(net, grad) == pytest.approx(float(np.linalg.norm(grad)), rel=1e-14)
    # the per-layer (dW, db) summation order, as the grad_norm metrics column logs it
    per_layer = sum(float((dw * dw).sum() + (db * db).sum()) for dw, db in split_layers(net, grad))
    assert gradient_norm(net, grad) == float(np.sqrt(per_layer))
    assert [dw.shape for dw, _ in split_layers(net, grad)] == [(4, 3), (2, 4)]


def reference_backward(net, x, output_grad):
    """Layer-by-layer forward pass that keeps every pre-activation, then a
    backward pass returning separate (dW, db) arrays per layer."""
    layers = split_layers(net, net.params)
    a = np.atleast_2d(x)
    cache = []
    for (weights, biases), (*_, act) in zip(layers, net.layout):
        z = a @ weights.T + biases
        if act == RELU:
            out = np.maximum(z, 0.0)
        elif act == SOFTMAX:
            e = np.exp(z - z.max(axis=1, keepdims=True))
            out = e / e.sum(axis=1, keepdims=True)
        else:
            out = z
        cache.append((a, z, out))
        a = out
    g = np.atleast_2d(output_grad)
    grads = [None] * len(layers)
    for i in range(len(layers) - 1, -1, -1):
        a_in, z, out = cache[i]
        act = net.layout[i][3]
        if act == RELU:
            dz = g * (z > 0.0)
        elif act == SOFTMAX:
            dz = out * (g - (out * g).sum(axis=1, keepdims=True))
        else:
            dz = g
        grads[i] = (dz.T @ a_in, dz.sum(axis=0))
        g = dz @ layers[i][0]
    return grads


def test_backward_flat_gradient_is_concatenation_of_views():
    """The flat gradient is the per-layer arrays laid end to end, bit-equal to a
    layer-by-layer reference, and out= receives the same bits in place."""
    rng = np.random.default_rng(53)
    for softmax_head in (False, True):
        net = glorot_init([3, 6, 5, 4], [RELU, RELU, SOFTMAX if softmax_head else LINEAR], rng)
        x = rng.normal(size=(7, 3))
        out, tape = forward(net, x)
        probe = rng.normal(size=out.shape)
        grad = backward(net, tape, probe)
        assert grad.shape == (net.params.size,)
        parts = split_layers(net, grad)
        for dw, db in parts:
            assert np.shares_memory(dw, grad) and np.shares_memory(db, grad)
        np.testing.assert_array_equal(
            grad, np.concatenate([np.concatenate([dw.ravel(), db]) for dw, db in parts])
        )
        reference = reference_backward(net, x, probe)
        np.testing.assert_array_equal(
            grad, np.concatenate([np.concatenate([dw.ravel(), db]) for dw, db in reference])
        )
        buf = np.full((2, net.params.size), np.nan)
        into = backward(net, tape, probe, out=buf[1])
        assert np.shares_memory(into, buf[1])
        np.testing.assert_array_equal(buf[1], grad)
        assert np.isnan(buf[0]).all()


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(41)
    net = glorot_init([16, 30, 30, 2], [RELU, RELU, LINEAR], rng)
    path = tmp_path / "net.json"
    save_network(net, str(path))
    back = load_network(str(path))
    np.testing.assert_array_equal(back.params, net.params)
    assert [act for *_, act in back.layout] == [act for *_, act in net.layout]
    assert back.layout == net.layout
    # optimizer state restarts cleanly on load
    assert back.adam_t == 0
    # a loaded network saves back to the same bytes
    again = tmp_path / "again.json"
    save_network(back, str(again))
    assert again.read_bytes() == path.read_bytes()


def _drop_biases(doc):
    del doc["layers"][0]["biases"]


def _short_weights(doc):
    doc["layers"][1]["weights"].pop()


def _long_biases(doc):
    doc["layers"][0]["biases"].append(0.0)


def _nan_weight(doc):
    doc["layers"][0]["weights"][2] = float("nan")  # json.dump writes a NaN literal


def _inf_bias(doc):
    doc["layers"][1]["biases"][0] = float("inf")


def _unknown_activation(doc):
    doc["layers"][0]["activation"] = "tanh"


def _no_layers(doc):
    doc["layers"] = []


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_drop_biases, "malformed checkpoint"),
        (_short_weights, "weights of shape"),
        (_long_biases, "biases of shape"),
        (_nan_weight, "non-finite parameter"),
        (_inf_bias, "non-finite parameter"),
        (_unknown_activation, "unknown activation"),
        (_no_layers, "malformed checkpoint"),
    ],
)
def test_malformed_checkpoint_rejected(tmp_path, corrupt, message):
    doc = network_to_dict(glorot_init([2, 4, 3], [RELU, SOFTMAX], np.random.default_rng(43)))
    corrupt(doc)
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message):
        load_network(str(path))


@pytest.mark.parametrize("doc", [[], "x", None])
def test_non_object_checkpoint_rejected(tmp_path, doc):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="malformed checkpoint"):
        network_from_dict(doc)
    with pytest.raises(ValueError, match="malformed checkpoint"):
        load_network(str(path))


def test_backward_batch_sums_per_sample_gradients():
    """Gradient of a 2-sample batch equals the sum of single-sample gradients."""
    rng = np.random.default_rng(51)
    net = glorot_init([3, 5, 2], [RELU, LINEAR], rng)
    x = rng.normal(size=(2, 3))
    probe = rng.normal(size=(2, 2))
    out, tape = forward(net, x)
    full = backward(net, tape, probe.copy())
    parts = np.zeros_like(full)
    for k in range(2):
        out_k, tape_k = forward(net, x[k : k + 1])
        parts += backward(net, tape_k, probe[k : k + 1].copy())
    np.testing.assert_allclose(full, parts, rtol=1e-12)
