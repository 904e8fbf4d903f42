"""Minimal dense feed-forward network engine with manual backprop and Adam.

Sized for the small transmitter/receiver networks used here (a few layers of
tens of units), so everything is plain float64 numpy with no autodiff graph.
Inputs may be single vectors of shape (d,) or mini-batches of shape (B, d);
all batch handling is ordinary numpy broadcasting.
"""

import copy
import json
import operator

import numpy as np

RELU = "relu"
LINEAR = "linear"
SOFTMAX = "softmax"

_ACTIVATIONS = (RELU, LINEAR, SOFTMAX)

CHECKPOINT_SCHEMA_VERSION = 1


# Adam's fixed hyper-parameters; the learning rate is each caller's.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


class DenseNetwork:
    """Dense layers as one static layout over a contiguous float64 parameter vector.

    params holds, layer by layer, the row-major weights then the biases. layout
    has one (weights slice, biases slice, (out_dim, in_dim), activation) entry
    per layer; it applies to any vector laid out like params: the Adam moments
    adam_m and adam_v, and every gradient backward returns.
    """

    def __init__(self, dims, activations, params=None):
        dims = tuple(operator.index(d) for d in dims)
        if len(dims) < 2 or min(dims) < 1:
            raise ValueError(f"network needs at least one layer of positive dims, got {dims}")
        if len(activations) != len(dims) - 1:
            raise ValueError("need one activation per layer")
        if any(act not in _ACTIVATIONS for act in activations):
            raise ValueError(f"unknown activation in {activations!r}")
        if SOFTMAX in activations[:-1]:
            raise ValueError("softmax is only allowed as the final layer")
        layout, pos = [], 0
        for d_in, d_out, act in zip(dims, dims[1:], activations):
            w_end = pos + d_out * d_in
            layout.append((slice(pos, w_end), slice(w_end, w_end + d_out), (d_out, d_in), act))
            pos = w_end + d_out
        self.layout = tuple(layout)
        self.params = np.zeros(pos) if params is None else np.array(params, dtype=np.float64)
        if self.params.shape != (pos,):
            raise ValueError(f"parameter vector has shape {self.params.shape}, the layout needs ({pos},)")
        self.adam_m = np.zeros(pos)
        self.adam_v = np.zeros(pos)
        self.adam_t = 0

    @property
    def in_dim(self):
        return self.layout[0][2][1]

    @property
    def out_dim(self):
        return self.layout[-1][2][0]

    def copy(self):
        net = copy.copy(self)  # shares the immutable layout
        net.params, net.adam_m, net.adam_v = self.params.copy(), self.adam_m.copy(), self.adam_v.copy()
        return net


def gradient_norm(net, grad):
    """Euclidean norm of a flat gradient laid out like net.params.

    Summed segment by segment, weights then biases of each layer, so the
    logged grad_norm keeps the bits of a per-array sum.
    """
    sq = grad * grad
    total = 0.0
    for w, b, _, _ in net.layout:
        total += float(np.add.reduce(sq[w]) + np.add.reduce(sq[b]))
    return float(np.sqrt(total))


def glorot_init(dims, activations, rng):
    """Build a network with uniform Glorot weights and zero biases."""
    net = DenseNetwork(dims, activations)
    for w, _, (d_out, d_in), _ in net.layout:
        bound = np.sqrt(6.0 / (d_in + d_out))
        net.params[w] = rng.uniform(-bound, bound, size=d_out * d_in)
    return net


def forward(net, x):
    """Evaluate the network on x of shape (d,) or (B, d).

    Returns (output, tape). The tape holds the input and then each layer's
    activation output, one array per layer, and is consumed by backward().
    Each activation is applied in place over its pre-activation.
    """
    return _forward(net, x)


def _forward(net, x):
    """forward's kernel, for code on a helper thread, which must not call
    a function the bench traces (README, Reproducibility)."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    a = x.reshape(1, -1) if x.ndim < 2 else x  # np.atleast_2d, without its call overhead
    if a.shape[1] != net.in_dim:
        raise ValueError(f"input width {a.shape[1]} != network in_dim {net.in_dim}")
    params = net.params
    tape = [a]
    for w, b, shape, act in net.layout:
        a = a @ params[w].reshape(shape).T
        a += params[b]
        if act == RELU:
            np.maximum(a, 0.0, out=a)
        elif act == SOFTMAX:
            # Max-subtraction keeps exp() in range for |logit| up to ~700. A
            # max has the same bits in any order, and reducing the rows of a
            # contiguous copy of a.T is several times faster than reducing
            # along the short rows of a.
            a -= np.maximum.reduce(np.ascontiguousarray(a.T), axis=0)[:, None]
            np.exp(a, out=a)
            a /= np.add.reduce(a, axis=-1, keepdims=True)
        tape.append(a)
    return (a[0] if single else a), tape


def backward(net, tape, output_grad, out=None):
    """Backpropagate d(scalar)/d(output) through the tape.

    output_grad has the same shape as the forward output; for a batched tape
    the gradient is the sum over the batch rows. Returns the flat gradient in
    the layout of net.params: `out` (contiguous float64, overwritten) when
    given, else a new vector.
    """
    if len(tape) != len(net.layout) + 1:
        raise ValueError("tape does not match network depth")
    g = np.asarray(output_grad, dtype=np.float64)
    g = g.reshape(1, -1) if g.ndim < 2 else g
    if g.shape != tape[-1].shape:
        raise ValueError("output_grad shape does not match the taped forward pass")
    flat = np.empty(net.params.size) if out is None else out
    for i in range(len(net.layout) - 1, -1, -1):
        w, b, shape, act = net.layout[i]
        a_in, a_out = tape[i], tape[i + 1]
        if a_in.shape[1] != shape[1]:
            raise ValueError("stale tape: layer input width mismatch")
        if act == RELU:
            dz = g * (a_out > 0.0)  # a_out > 0 exactly where the pre-activation is, NaN included
        elif act == SOFTMAX:
            # Full softmax Jacobian: dz = q * (g - sum(q * g)).
            dz = a_out * (g - np.add.reduce(a_out * g, axis=1, keepdims=True))
        else:
            dz = g
        np.matmul(dz.T, a_in, out=flat[w].reshape(shape))
        np.add.reduce(dz, axis=0, out=flat[b])
        if i:  # nothing consumes the gradient at the network input
            g = dz @ net.params[w].reshape(shape)
    return flat


def adam_step(net, g, learning_rate):
    """Apply one bias-corrected Adam update in place, from a flat gradient g,
    with ADAM_BETA1, ADAM_BETA2 and ADAM_EPSILON."""
    if not np.isfinite(g).all():
        raise ValueError("non-finite gradient")
    net.adam_t += 1
    t = net.adam_t
    b1, b2 = ADAM_BETA1, ADAM_BETA2
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
    step *= learning_rate
    np.divide(v, corr2, out=den)
    np.sqrt(den, out=den)
    den += ADAM_EPSILON
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
                "in_dim": d_in,
                "out_dim": d_out,
                "activation": act,
                "weights": net.params[w].tolist(),  # row-major (out_dim x in_dim)
                "biases": net.params[b].tolist(),
            }
            for w, b, (d_out, d_in), act in net.layout
        ],
    }


def network_from_dict(doc):
    """The network a checkpoint dict describes; ValueError if it is malformed."""
    if not isinstance(doc, dict):
        raise ValueError(f"malformed checkpoint: a {type(doc).__name__}, not an object")
    if doc.get("schema_version") != CHECKPOINT_SCHEMA_VERSION:
        raise ValueError("unsupported checkpoint schema version")
    try:
        specs = doc["layers"]
        for prev, nxt in zip(specs, specs[1:]):
            if prev["out_dim"] != nxt["in_dim"]:
                raise ValueError(f"layer dims do not chain: {prev['out_dim']} -> {nxt['in_dim']}")
        dims = [specs[0]["in_dim"]] + [spec["out_dim"] for spec in specs]
        net = DenseNetwork(dims, [spec["activation"] for spec in specs])
        for spec, (w, b, _, _) in zip(specs, net.layout):
            for key, part in (("weights", w), ("biases", b)):
                values = np.asarray(spec[key], dtype=np.float64)
                if values.shape != net.params[part].shape:
                    raise ValueError(f"{key} of shape {values.shape}, the layer dims need {net.params[part].shape}")
                net.params[part] = values
    except (KeyError, IndexError, TypeError) as exc:
        raise ValueError(f"malformed checkpoint: {exc!r}") from exc
    if not np.isfinite(net.params).all():
        raise ValueError("non-finite parameter in checkpoint")
    return net


def save_network(net, path):
    """Write net's checkpoint dict as sorted-key JSON and a newline. json.dumps
    takes the C encoder, json.dump the pure-Python one, for the same text."""
    with open(path, "w") as f:
        f.write(json.dumps(network_to_dict(net), sort_keys=True) + "\n")


def load_network(path):
    with open(path) as f:
        return network_from_dict(json.load(f))
