"""Transmitter and receiver built on the dense-network engine.

The transmitter maps one-hot messages to complex symbols (as real pairs) and
normalizes each batch to average power P exactly. The receiver maps received
symbols to a probability vector over messages. Training the transmitter uses
a Gaussian exploration policy around the deterministic constellation point;
the policy-gradient helpers here backpropagate through the batch power
normalization, which couples every symbol in the batch to every raw output.
"""

from dataclasses import dataclass

import numpy as np

from .neuralnet import (
    LINEAR,
    RELU,
    SOFTMAX,
    backward,
    forward,
    glorot_init,
)

TX_HIDDEN = (30, 30)
RX_HIDDEN = (50, 50)

LOG_CLAMP = 1e-12  # floor on softmax probabilities before the log


def build_transmitter(num_messages, rng):
    """[M, 30, 30, 2] network, relu hidden layers, linear output."""
    dims = (num_messages, *TX_HIDDEN, 2)
    return glorot_init(dims, (RELU, RELU, LINEAR), rng)


def build_receiver(num_messages, rng):
    """[2, 50, 50, M] network, relu hidden layers, softmax output."""
    dims = (2, *RX_HIDDEN, num_messages)
    return glorot_init(dims, (RELU, RELU, SOFTMAX), rng)


def one_hot(messages, num_messages):
    messages = np.asarray(messages)
    if messages.ndim != 1:
        raise ValueError("messages must be a 1-d array of indices")
    if messages.size and (messages.min() < 0 or messages.max() >= num_messages):
        raise ValueError("message index out of range")
    return np.eye(num_messages).take(messages, axis=0)


def real_to_complex(x):
    """Complex view of real pairs (..., 2), no copy when x is contiguous float64.

    For finite x it has the bits of x[..., 0] + 1j*x[..., 1] up to the sign
    of a zero; a NaN or inf part stays in its own component.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.shape[-1:] != (2,):
        raise ValueError("real pairs need a last axis of length 2")
    return x.view(np.complex128)[..., 0]


def complex_to_real(z):
    """Real-pair view (..., 2) of complex z, no copy when z is contiguous complex128."""
    z = np.ascontiguousarray(z, dtype=np.complex128)
    return z.view(np.float64).reshape(z.shape + (2,))


@dataclass
class TransmitResult:
    symbols: np.ndarray  # (B, 2) normalized to average power P
    raw: np.ndarray  # (B, 2) network outputs before normalization
    scale: float  # symbols = scale * raw
    tape: list  # forward tape for backpropagation


def transmit(net, messages, num_messages, power_mw):
    """Encode messages and normalize the batch to average power power_mw.

    The scale comes from power_scale, so (1/B) sum ||x_k||^2 equals
    power_mw exactly for every batch.
    """
    raw, tape = forward(net, one_hot(messages, num_messages))
    scale = power_scale(raw, power_mw)
    return TransmitResult(symbols=scale * raw, raw=raw, scale=scale, tape=tape)


def power_scale(raw, power_mw):
    """The batch power normalization: the scale sqrt(P*B / sum_k ||r_k||^2)
    that takes raw transmitter outputs (B, 2) to average power power_mw."""
    s2 = float(np.add.reduce(raw * raw, axis=None))
    if s2 <= 0.0:
        raise ValueError("transmitter produced an all-zero batch; cannot normalize")
    return float(np.sqrt(power_mw * raw.shape[0] / s2))


def normalization_backward(grad_symbols, raw, scale):
    """Pull a gradient at the normalized symbols back to the raw outputs.

    With x = c(r) * r and c = sqrt(PB/S2), S2 = sum ||r_j||^2:
      G_r[j] = c * G_x[j] - (c / S2) * (sum_k G_x[k] . r_k) * r[j]
    The second term is the batch coupling through the shared scale.
    """
    s2 = float(np.add.reduce(raw * raw, axis=None))
    dot = float(np.add.reduce(grad_symbols * raw, axis=None))
    return scale * grad_symbols - (scale * dot / s2) * raw


def exploration_variance(power_mw):
    """Exploration policy variance rule: sigma_p^2 = P * 1e-3 (P in mW)."""
    return power_mw * 1e-3


def exploration_noise(shape, sigma_p_sq, rng):
    """Exploration noise w ~ CN(0, sigma_p_sq) as real pairs: N(0, sigma_p_sq/2) each."""
    if sigma_p_sq <= 0.0:
        raise ValueError("sigma_p_sq must be positive")
    return rng.normal(0.0, np.sqrt(sigma_p_sq / 2.0), size=shape)


def perturb(symbols, sigma_p_sq, rng):
    """Gaussian exploration x + w with w = exploration_noise; returns (perturbed, w)."""
    w = exploration_noise(symbols.shape, sigma_p_sq, rng)
    return symbols + w, w


def score_upstream(perturbation, sigma_p_sq):
    """Gradient of log pi(x_tilde | m) with respect to the constellation point.

    For the complex Gaussian policy this is 2*(x_tilde - x)/sigma_p_sq in each
    real component; perturbation is x_tilde - x.
    """
    return 2.0 * perturbation / sigma_p_sq


def receive(net, received):
    """Probability vector over messages for each received symbol.

    Accepts complex (B,) or real (B, 2) input. Returns (probs, tape).
    """
    if np.iscomplexobj(received):
        received = complex_to_real(received)
    return forward(net, received)


def cross_entropy_losses(probs, messages):
    """Per-sample losses -log p[m_k], with probabilities floored at 1e-12."""
    p = probs[np.arange(len(messages)), messages]
    return -np.log(np.maximum(p, LOG_CLAMP))


def receiver_gradient(net, tape, probs, messages):
    """Batch-mean gradient of the cross-entropy loss for a softmax receiver.

    The upstream passed in is the gradient of mean(-log p[m]) with respect to
    the probabilities; combined with the softmax Jacobian in backward() this
    yields the usual (p - onehot)/B at the logits.
    """
    batch = len(messages)
    grad_p = np.zeros_like(probs)
    p_true = np.maximum(probs[np.arange(batch), messages], LOG_CLAMP)
    grad_p[np.arange(batch), messages] = -1.0 / (batch * p_true)
    return backward(net, tape, grad_p)


def policy_gradient(net, result, perturbation, losses, sigma_p_sq):
    """Policy-gradient estimate (1/B) sum_k l_k * grad log pi(x_tilde_k | m_k).

    losses are whatever the transmitter received over the feedback link
    (raw, quantized, or bit-flipped reconstructions). The per-sample score
    upstream at the symbols is routed through the batch-normalization
    coupling before the network backward pass.
    """
    batch = losses.shape[0]
    grad_x = losses[:, None] * score_upstream(perturbation, sigma_p_sq) / batch
    grad_raw = normalization_backward(grad_x, result.raw, result.scale)
    return backward(net, result.tape, grad_raw)


def constellation(net, num_messages, power_mw):
    """Normalized constellation points for all messages, shape (M, 2).

    The normalization is computed over the full message set with equal
    weights, matching a transmit() call on one copy of each message.
    """
    return transmit(net, np.arange(num_messages), num_messages, power_mw).symbols


def constellation_jacobian(net, num_messages, power_mw):
    """Jacobian of the normalized constellation w.r.t. the flat parameters.

    Returns (points, jac) with jac of shape (M, 2, P): jac[m, c] is the
    gradient of component c of constellation point m, including the coupling
    introduced by the shared power normalization. Built from 2M backward
    passes. With the transmitter frozen, the score of a sampled symbol is
    jac[m]^T @ u for upstream u, which is what makes million-sample gradient
    studies affordable without storing per-sample parameter vectors.
    """
    result = transmit(net, np.arange(num_messages), num_messages, power_mw)
    jac = np.empty((num_messages, 2, net.params.size))
    for m in range(num_messages):
        for c in range(2):
            grad_x = np.zeros_like(result.symbols)
            grad_x[m, c] = 1.0
            grad_raw = normalization_backward(grad_x, result.raw, result.scale)
            backward(net, result.tape, grad_raw, out=jac[m, c])
    return result.symbols, jac

