"""Minimal dense feed-forward network engine with manual backprop and Adam.

Sized for the small transmitter/receiver networks used here (a few layers of
tens of units), so everything is plain float64 numpy with no autodiff graph.
Inputs may be single vectors of shape (d,) or mini-batches of shape (B, d);
all batch handling is ordinary numpy broadcasting.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

RELU = "relu"
LINEAR = "linear"
SOFTMAX = "softmax"

_ACTIVATIONS = (RELU, LINEAR, SOFTMAX)

CHECKPOINT_SCHEMA_VERSION = 1


@dataclass
class AdamConfig:
    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ValueError("Adam betas must lie strictly inside (0, 1)")
        if not (0.0 < self.epsilon < math.inf and 0.0 < self.learning_rate < math.inf):
            raise ValueError("Adam learning_rate and epsilon must be positive and finite")


@dataclass
class DenseLayer:
    weights: np.ndarray  # (out_dim, in_dim)
    biases: np.ndarray  # (out_dim,)
    activation: str

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.biases = np.asarray(self.biases, dtype=np.float64)
        if self.weights.ndim != 2 or self.biases.ndim != 1:
            raise ValueError("weights must be a matrix and biases a vector")
        if self.weights.shape[0] != self.biases.shape[0]:
            raise ValueError("bias length must equal the weight row count")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def in_dim(self):
        return self.weights.shape[1]

    @property
    def out_dim(self):
        return self.weights.shape[0]


class DenseNetwork:
    """Ordered dense layers over one contiguous float64 parameter vector.

    params holds, layer by layer, the row-major weights then the biases;
    each layer's weights and biases are views into it, so update them in
    place (rebinding one detaches it). The Adam moments adam_m and adam_v
    are flat vectors with the same layout.
    """

    def __init__(self, layers):
        if not layers:
            raise ValueError("network needs at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if prev.out_dim != nxt.in_dim:
                raise ValueError(
                    f"layer dims do not chain: {prev.out_dim} -> {nxt.in_dim}"
                )
        for layer in layers[:-1]:
            if layer.activation == SOFTMAX:
                raise ValueError("softmax is only allowed as the final layer")
        self._layout = []  # per layer: (weights start, biases start, end, weight shape)
        pos = 0
        for l in layers:
            w_end = pos + l.weights.size
            self._layout.append((pos, w_end, w_end + l.out_dim, l.weights.shape))
            pos = w_end + l.out_dim
        self.params = np.concatenate([np.concatenate([l.weights.ravel(), l.biases]) for l in layers])
        self.layers = [
            DenseLayer(w, b, l.activation) for l, (w, b) in zip(layers, self.views(self.params))
        ]
        self.adam_m = np.zeros_like(self.params)
        self.adam_v = np.zeros_like(self.params)
        self.adam_t = 0

    def views(self, flat):
        """Per-layer (weights, biases) views into a vector laid out like params."""
        return [(flat[w0:b0].reshape(shape), flat[b0:end]) for w0, b0, end, shape in self._layout]

    @property
    def in_dim(self):
        return self.layers[0].in_dim

    @property
    def out_dim(self):
        return self.layers[-1].out_dim

    def param_count(self):
        return self.params.size

    def flatten_params(self):
        return self.params.copy()

    def set_flat_params(self, flat):
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != self.params.shape:
            raise ValueError("flat parameter vector has the wrong length")
        self.params[...] = flat

    def copy(self):
        net = DenseNetwork(self.layers)
        net.adam_m = self.adam_m.copy()
        net.adam_v = self.adam_v.copy()
        net.adam_t = self.adam_t
        return net


@dataclass
class ParameterGradient:
    """A gradient laid out like its network's params, with per-layer views."""

    flat: np.ndarray  # (param_count,)
    layers: list  # per-layer (dW, db) views into flat

    def norm(self):
        # Summed segment by segment, weights then biases of each layer, so the
        # logged grad_norm keeps the bits of a per-array sum.
        sq = self.flat * self.flat
        total, start = 0.0, 0
        for dw, db in self.layers:
            mid = start + dw.size
            end = mid + db.size
            total += float(np.add.reduce(sq[start:mid]) + np.add.reduce(sq[mid:end]))
            start = end
        return float(np.sqrt(total))


def glorot_init(dims, activations, rng):
    """Build a network with uniform Glorot weights and zero biases."""
    if len(activations) != len(dims) - 1:
        raise ValueError("need one activation per layer")
    layers = []
    for d_in, d_out, act in zip(dims, dims[1:], activations):
        bound = np.sqrt(6.0 / (d_in + d_out))
        w = rng.uniform(-bound, bound, size=(d_out, d_in))
        layers.append(DenseLayer(w, np.zeros(d_out), act))
    return DenseNetwork(layers)


def forward(net, x):
    """Evaluate the network on x of shape (d,) or (B, d).

    Returns (output, tape). The tape caches, per layer, the layer input, the
    pre-activation, and the activation output, and is consumed by backward().
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    a = x.reshape(1, -1) if x.ndim < 2 else x  # np.atleast_2d, without its call overhead
    if a.shape[1] != net.in_dim:
        raise ValueError(f"input width {a.shape[1]} != network in_dim {net.in_dim}")
    tape = []
    for layer in net.layers:
        z = a @ layer.weights.T
        z += layer.biases
        if layer.activation == RELU:
            out = np.maximum(z, 0.0)
        elif layer.activation == SOFTMAX:
            # Max-subtraction keeps exp() in range for |logit| up to ~700.
            out = z - np.maximum.reduce(z, axis=-1, keepdims=True)
            np.exp(out, out=out)
            out /= np.add.reduce(out, axis=-1, keepdims=True)
        else:
            out = z
        tape.append((a, z, out))
        a = out
    return (a[0] if single else a), tape


def backward(net, tape, output_grad, out=None):
    """Backpropagate d(scalar)/d(output) through the tape.

    output_grad has the same shape as the forward output; for a batched tape
    the returned ParameterGradient is the sum over the batch rows. Its flat
    vector is `out` (contiguous float64, overwritten) when given.
    """
    if len(tape) != len(net.layers):
        raise ValueError("tape does not match network depth")
    g = np.asarray(output_grad, dtype=np.float64)
    g = g.reshape(1, -1) if g.ndim < 2 else g
    if g.shape != tape[-1][2].shape:
        raise ValueError("output_grad shape does not match the taped forward pass")
    flat = np.empty(net.params.size) if out is None else out
    grad = ParameterGradient(flat, net.views(flat))
    for i in range(len(net.layers) - 1, -1, -1):
        a_in, z, a_out = tape[i]
        if a_in.shape[1] != net.layers[i].in_dim:
            raise ValueError("stale tape: layer input width mismatch")
        act = net.layers[i].activation
        if act == RELU:
            dz = g * (z > 0.0)
        elif act == SOFTMAX:
            # Full softmax Jacobian: dz = q * (g - sum(q * g)).
            dz = a_out * (g - np.add.reduce(a_out * g, axis=1, keepdims=True))
        else:
            dz = g
        dw, db = grad.layers[i]
        np.matmul(dz.T, a_in, out=dw)
        np.add.reduce(dz, axis=0, out=db)
        if i:  # nothing consumes the gradient at the network input
            g = dz @ net.layers[i].weights
    return grad


def adam_step(net, grad, cfg):
    """Apply one bias-corrected Adam update in place."""
    g = grad.flat
    if not np.isfinite(g).all():
        raise ValueError("non-finite gradient")
    net.adam_t += 1
    t = net.adam_t
    b1, b2 = cfg.beta1, cfg.beta2
    corr1 = 1.0 - b1**t
    corr2 = 1.0 - b2**t
    m, v = net.adam_m, net.adam_v
    # Two scratch vectors hold every temporary; each operation rounds as in
    # m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
    # params -= lr*(m/corr1) / (sqrt(v/corr2) + eps).
    step = np.multiply(g, 1.0 - b1)
    m *= b1
    m += step
    den = np.multiply(g, 1.0 - b2)
    den *= g
    v *= b2
    v += den
    np.divide(m, corr1, out=step)
    step *= cfg.learning_rate
    np.divide(v, corr2, out=den)
    np.sqrt(den, out=den)
    den += cfg.epsilon
    step /= den
    net.params -= step
    if not np.isfinite(net.params).all():
        raise ValueError("non-finite parameters after update")
    return net


def network_to_dict(net):
    """Checkpoint dict: layer dims, activations, row-major weights, biases."""
    return {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "layers": [
            {
                "in_dim": l.in_dim,
                "out_dim": l.out_dim,
                "activation": l.activation,
                "weights": l.weights.ravel().tolist(),  # row-major (out_dim x in_dim)
                "biases": l.biases.tolist(),
            }
            for l in net.layers
        ],
    }


def network_from_dict(doc):
    if doc.get("schema_version") != CHECKPOINT_SCHEMA_VERSION:
        raise ValueError("unsupported checkpoint schema version")
    layers = []
    for spec in doc["layers"]:
        w = np.array(spec["weights"], dtype=np.float64).reshape(
            spec["out_dim"], spec["in_dim"]
        )
        layers.append(DenseLayer(w, np.array(spec["biases"]), spec["activation"]))
    return DenseNetwork(layers)


def save_network(net, path):
    with open(path, "w") as f:
        json.dump(network_to_dict(net), f, sort_keys=True)
        f.write("\n")


def load_network(path):
    with open(path) as f:
        return network_from_dict(json.load(f))
