"""Transmitter/receiver pair checks: normalization, exploration, gradients."""

import numpy as np
import pytest

from qflearn.cli import write_constellation_csv
from qflearn.neuralnet import forward
from qflearn.transceiver import (
    RX_HIDDEN,
    TX_HIDDEN,
    build_receiver,
    build_transmitter,
    complex_to_real,
    constellation,
    constellation_jacobian,
    cross_entropy_losses,
    normalization_backward,
    one_hot,
    perturb,
    policy_gradient,
    receive,
    receiver_gradient,
    real_to_complex,
    score_upstream,
    transmit,
)
from qflearn import rngstreams


@pytest.fixture
def tx():
    return build_transmitter(16, np.random.default_rng(100))


@pytest.fixture
def rx():
    return build_receiver(16, np.random.default_rng(200))


def test_architectures(tx, rx):
    assert [d_out for _, _, (d_out, _), _ in tx.layout] == [*TX_HIDDEN, 2]
    assert tx.in_dim == 16
    assert [d_out for _, _, (d_out, _), _ in rx.layout] == [*RX_HIDDEN, 16]
    assert rx.in_dim == 2


def test_one_hot_rows():
    enc = one_hot(np.array([0, 3, 1]), 4)
    np.testing.assert_array_equal(
        enc, [[1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 0, 0]]
    )


@pytest.mark.parametrize("messages", [[0, -1, 2], [0, 4, 2]])
def test_one_hot_rejects_out_of_range_messages(messages):
    with pytest.raises(ValueError, match="message index out of range"):
        one_hot(np.array(messages), 4)


def test_one_hot_of_no_messages_is_empty():
    assert one_hot(np.array([], dtype=np.int64), 4).shape == (0, 4)


def test_complex_real_roundtrip():
    z = np.array([1.0 + 2.0j, -0.5 - 0.25j])
    np.testing.assert_array_equal(real_to_complex(complex_to_real(z)), z)
    x = np.array([[0.5, -1.5], [2.0, 0.0]])
    np.testing.assert_array_equal(complex_to_real(real_to_complex(x)), x)


def test_view_conversions_equal_the_arithmetic_forms():
    """The views carry the bits of the arithmetic forms they replace and copy nothing."""
    rng = np.random.default_rng(41)
    for shape in ((7,), (5, 64), (3, 4, 9)):
        x = rng.normal(size=shape + (2,))
        z = real_to_complex(x)
        assert z.tobytes() == (x[..., 0] + 1j * x[..., 1]).tobytes()
        assert np.shares_memory(z, x)
        w = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        r = complex_to_real(w)
        assert r.tobytes() == np.stack([w.real, w.imag], axis=-1).tobytes()
        assert np.shares_memory(r, w)


@pytest.mark.parametrize("num_messages", [8, 16])
@pytest.mark.parametrize("batch", [2, 16, 64, 100])
def test_transmitter_rows_equal_identity_table_rows(num_messages, batch):
    """A transmitter output row depends only on its message, to the bit, for
    any batch of 2 or more rows: the table one identity forward gives is the
    encoding of every batch."""
    net = build_transmitter(num_messages, np.random.default_rng(num_messages))
    table, _ = forward(net, np.eye(num_messages))
    rng = np.random.default_rng(batch)
    for _ in range(5):
        messages = rng.integers(0, num_messages, size=batch)
        sent = transmit(net, messages, num_messages, 0.5)
        assert sent.raw.tobytes() == table[messages].tobytes()


def test_transmit_normalizes_batch_power_exactly(tx):
    rng = np.random.default_rng(0)
    messages = rng.integers(0, 16, size=64)
    for power in (0.2344, 1.0, 3.7):
        result = transmit(tx, messages, 16, power)
        mean_power = float(np.mean(np.sum(result.symbols**2, axis=1)))
        assert mean_power == pytest.approx(power, rel=1e-12)
        np.testing.assert_allclose(result.symbols, result.scale * result.raw)


def test_normalization_backward_matches_finite_differences(tx):
    """The batch-coupled normalization gradient agrees with a numeric probe."""
    rng = np.random.default_rng(1)
    messages = rng.integers(0, 16, size=8)
    onehot = one_hot(messages, 16)
    raw, _ = forward(tx, onehot)
    probe = rng.normal(size=raw.shape)
    power = 0.5

    def objective(r):
        s2 = float(np.sum(r * r))
        scale = np.sqrt(power * r.shape[0] / s2)
        return float(np.sum(probe * scale * r))

    result = transmit(tx, messages, 16, power)
    analytic = normalization_backward(probe, result.raw, result.scale)
    h = 1e-6
    for idx in [(0, 0), (3, 1), (7, 0)]:
        bump = raw.copy()
        bump[idx] += h
        up = objective(bump)
        bump[idx] -= 2 * h
        down = objective(bump)
        fd = (up - down) / (2 * h)
        assert analytic[idx] == pytest.approx(fd, rel=1e-6)


def test_perturbation_moments(tx):
    rng = np.random.default_rng(2)
    symbols = np.zeros((200_000, 2))
    sigma_p_sq = 0.05
    perturbed, w = perturb(symbols, sigma_p_sq, rng)
    np.testing.assert_array_equal(perturbed, w)
    # total complex variance sigma_p_sq, split evenly across components
    assert np.var(w[:, 0]) == pytest.approx(sigma_p_sq / 2.0, rel=0.02)
    assert np.var(w[:, 1]) == pytest.approx(sigma_p_sq / 2.0, rel=0.02)
    assert abs(np.mean(w)) < 1e-3


def test_perturb_rejects_nonpositive_variance(tx):
    with pytest.raises(ValueError):
        perturb(np.zeros((2, 2)), 0.0, np.random.default_rng(3))


def test_score_upstream_formula():
    w = np.array([[0.1, -0.2]])
    np.testing.assert_allclose(score_upstream(w, 0.05), [[4.0, -8.0]])


def test_score_sample_mean_shrinks(tx):
    """Empirical mean of the score vanishes as the draw count grows."""
    rng = np.random.default_rng(4)
    messages = rng.integers(0, 16, size=20_000)
    result = transmit(tx, messages, 16, 0.2344)
    _, w = perturb(result.symbols, 0.2344e-3, rng)
    scores = score_upstream(w, 0.2344e-3)
    mean = scores.mean(axis=0)
    std = scores.std(axis=0) / np.sqrt(len(messages))
    assert np.all(np.abs(mean) < 5.0 * std + 1e-9)


def test_receive_complex_and_real_agree(rx):
    rng = np.random.default_rng(5)
    y = rng.normal(size=(32, 2))
    probs_real, _ = receive(rx, y)
    probs_complex, _ = receive(rx, real_to_complex(y))
    np.testing.assert_array_equal(probs_real, probs_complex)
    np.testing.assert_allclose(probs_real.sum(axis=1), 1.0, atol=1e-12)


def test_cross_entropy_losses_values():
    probs = np.array([[0.5, 0.5], [0.9, 0.1]])
    losses = cross_entropy_losses(probs, np.array([0, 1]))
    np.testing.assert_allclose(losses, [np.log(2.0), -np.log(0.1)])


def test_cross_entropy_clamps_tiny_probabilities():
    probs = np.array([[1.0, 0.0]])
    loss = cross_entropy_losses(probs, np.array([1]))
    assert np.isfinite(loss[0])
    assert loss[0] == pytest.approx(-np.log(1e-12))


def test_receiver_gradient_matches_finite_differences(rx):
    """Backprop through softmax + CE against numeric probes of the mean loss."""
    rng = np.random.default_rng(6)
    y = rng.normal(size=(16, 2))
    messages = rng.integers(0, 16, size=16)
    probs, tape = receive(rx, y)
    grad = receiver_gradient(rx, tape, probs, messages)

    flat = rx.params.copy()
    h = 1e-6
    for index in rng.choice(rx.params.size, size=12, replace=False):
        bumped = flat.copy()
        bumped[index] += h
        rx.params[:] = bumped
        up = float(np.mean(cross_entropy_losses(receive(rx, y)[0], messages)))
        bumped[index] -= 2 * h
        rx.params[:] = bumped
        down = float(np.mean(cross_entropy_losses(receive(rx, y)[0], messages)))
        rx.params[:] = flat
        fd = (up - down) / (2 * h)
        scale = max(abs(fd), abs(grad[index]), 1e-10)
        assert abs(fd - grad[index]) / scale < 1e-5


def test_policy_gradient_matches_surrogate_finite_differences(tx):
    """d/dtau of (1/B) sum l_k log pi(x_tilde_k|m_k) with x_tilde held fixed.

    The REINFORCE estimate must equal the gradient of this surrogate, with
    the perturbed symbols treated as constants while the constellation
    (and with it the batch normalization) moves with the parameters.
    """
    rng = np.random.default_rng(7)
    batch = 12
    sigma_p_sq = 0.2344e-3
    power = 0.2344
    messages = rng.integers(0, 16, size=batch)
    result = transmit(tx, messages, 16, power)
    perturbed, w = perturb(result.symbols, sigma_p_sq, rng)
    losses = rng.uniform(0.1, 2.0, size=batch)
    grad = policy_gradient(tx, result, w, losses, sigma_p_sq)

    def surrogate():
        res = transmit(tx, messages, 16, power)
        # log pi up to constants: -||x_tilde - x||^2 / sigma_p_sq
        sq = np.sum((perturbed - res.symbols) ** 2, axis=1)
        return float(np.mean(losses * (-sq / sigma_p_sq)))

    flat = tx.params.copy()
    h = 1e-6
    worst = 0.0
    for index in rng.choice(tx.params.size, size=15, replace=False):
        bumped = flat.copy()
        bumped[index] += h
        tx.params[:] = bumped
        up = surrogate()
        bumped[index] -= 2 * h
        tx.params[:] = bumped
        down = surrogate()
        tx.params[:] = flat
        fd = (up - down) / (2 * h)
        scale = max(abs(fd), abs(grad[index]), 1e-10)
        worst = max(worst, abs(fd - grad[index]) / scale)
    assert worst < 1e-4, f"worst relative error {worst:.3e}"


def test_constellation_matches_transmit(tx):
    points = constellation(tx, 16, 0.2344)
    result = transmit(tx, np.arange(16), 16, 0.2344)
    np.testing.assert_array_equal(points, result.symbols)
    assert float(np.mean(np.sum(points**2, axis=1))) == pytest.approx(0.2344)


def test_constellation_jacobian_matches_finite_differences(tx):
    points, jac = constellation_jacobian(tx, 16, 0.2344)
    assert jac.shape == (16, 2, tx.params.size)
    rng = np.random.default_rng(8)
    flat = tx.params.copy()
    h = 1e-6
    for index in rng.choice(tx.params.size, size=6, replace=False):
        bumped = flat.copy()
        bumped[index] += h
        tx.params[:] = bumped
        up = constellation(tx, 16, 0.2344)
        bumped[index] -= 2 * h
        tx.params[:] = bumped
        down = constellation(tx, 16, 0.2344)
        tx.params[:] = flat
        fd = (up - down) / (2 * h)
        np.testing.assert_allclose(jac[:, :, index], fd, atol=1e-5)


def test_constellation_jacobian_reproduces_policy_gradient(tx):
    """jac^T @ upstream equals the per-sample backward pass route."""
    rng = np.random.default_rng(9)
    sigma_p_sq = 0.2344e-3
    messages = rng.integers(0, 16, size=16)
    # one copy of each message so transmit() and constellation() share the tape
    result = transmit(tx, np.arange(16), 16, 0.2344)
    w = rng.normal(0.0, np.sqrt(sigma_p_sq / 2.0), size=(16, 2))
    losses = rng.uniform(0.0, 1.0, size=16)
    direct = policy_gradient(tx, result, w, losses, sigma_p_sq)
    _, jac = constellation_jacobian(tx, 16, 0.2344)
    upstream = losses[:, None] * score_upstream(w, sigma_p_sq) / 16.0
    via_jac = np.einsum("mcp,mc->p", jac, upstream)
    np.testing.assert_allclose(via_jac, direct, rtol=1e-10, atol=1e-12)


def test_transmit_rejects_zero_batch():
    zero_tx = build_transmitter(4, np.random.default_rng(10))
    for w, _, _, _ in zero_tx.layout:
        zero_tx.params[w] = 0.0
    with pytest.raises(ValueError):
        transmit(zero_tx, np.array([0, 1]), 4, 1.0)


def test_export_constellation_csv(tmp_path, tx):
    points = constellation(tx, 16, 0.2344)
    path = tmp_path / "constellation.csv"
    write_constellation_csv(str(path), points)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "message_index,x_real,x_imag"
    assert len(lines) == 17
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == pytest.approx(points[0, 0])
