"""Alternating receiver/transmitter optimization.

Each outer iteration runs N_R supervised receiver steps (no exploration
noise, plain cross-entropy on known messages) followed by N_T transmitter
steps (Gaussian exploration, per-sample losses returned over the configured
feedback chain, policy-gradient Adam update). All randomness is drawn from
named substreams of one seed, so SER evaluation cadence never shifts the
training trajectory.
"""

import math
from copy import deepcopy
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from . import rngstreams
from .channels import BscConfig, propagate
from .feedback import DEFAULT_CLIP_FRACTION, QuantizerConfig, feedback_roundtrip, linear_gain
from .neuralnet import AdamConfig, adam_step, forward, gradient_norm
from .transceiver import (
    build_receiver,
    build_transmitter,
    cross_entropy_losses,
    exploration_variance,
    perturb,
    policy_gradient,
    power_scale,
    real_to_complex,
    receive,
    receiver_gradient,
    transmit,
)

PHASE_RX = "rx"
PHASE_TX = "tx"

METRICS_COLUMNS = ("outer_iter", "phase", "step", "empirical_loss", "grad_norm", "g_estimate", "ser")


def check_counts(cfg, *names):
    """Raise ValueError naming the first of cfg's named counts below 1."""
    for name in names:
        if getattr(cfg, name) < 1:
            raise ValueError(f"{name} must be >= 1")


@dataclass
class TrainingConfig:
    num_iterations: int  # outer iterations, each N_R rx steps then N_T tx steps
    num_messages: int = 16
    n_rx_steps: int = 30
    n_tx_steps: int = 20
    batch_rx: int = 64
    batch_tx: int = 64
    lr_rx: float = 0.008
    lr_tx: float = 0.001
    quantizer: QuantizerConfig | None = None  # None: perfect (unquantized) feedback
    bsc: BscConfig | None = None
    clip_fraction: float = DEFAULT_CLIP_FRACTION
    ser_every: int = 50  # outer-iteration cadence for SER estimates
    ser_symbols: int = 10_000

    def __post_init__(self):
        if self.num_iterations < 0:
            raise ValueError("num_iterations must be >= 0")
        counts = ("num_messages", "n_rx_steps", "n_tx_steps", "batch_rx", "batch_tx", "ser_every", "ser_symbols")
        check_counts(self, *counts)
        if not (0.0 < self.lr_rx < math.inf and 0.0 < self.lr_tx < math.inf):
            raise ValueError("learning rates must be positive and finite")
        if not 0.0 <= self.clip_fraction < 1.0:
            raise ValueError("clip_fraction must lie in [0, 1)")
        if self.bsc is not None and self.quantizer is None:
            raise ValueError("bsc requires a quantizer")


@dataclass
class MetricsRecord:
    outer_iter: int  # 1-based outer iteration
    phase: str  # "rx" or "tx"
    step: int  # 1-based step within the phase
    empirical_loss: float
    grad_norm: float
    g_estimate: float | None = None  # Bussgang gain of the batch, quantized modes only
    ser: float | None = None  # attached to the last tx step on the cadence


@dataclass
class RngBundle:
    """Named independent generators for one training run."""

    init_tx: np.random.Generator
    init_rx: np.random.Generator
    messages: np.random.Generator
    exploration: np.random.Generator
    channel: np.random.Generator
    feedback: np.random.Generator
    evaluation: np.random.Generator

    @classmethod
    def from_seed(cls, seed):
        return cls(
            init_tx=rngstreams.substream(seed, rngstreams.INIT_TX),
            init_rx=rngstreams.substream(seed, rngstreams.INIT_RX),
            messages=rngstreams.substream(seed, rngstreams.MESSAGES),
            exploration=rngstreams.substream(seed, rngstreams.EXPLORATION),
            channel=rngstreams.substream(seed, rngstreams.CHANNEL),
            feedback=rngstreams.substream(seed, rngstreams.FEEDBACK_BSC),
            evaluation=rngstreams.substream(seed, rngstreams.EVALUATION),
        )


@dataclass
class TrainState:
    """A training run between outer iterations: both networks (each carrying
    its Adam moments and step count), the run's generators, the number of
    outer iterations done and one MetricsRecord per gradient step so far."""

    tx: object
    rx: object
    rngs: RngBundle
    outer: int = 0
    metrics: list = field(default_factory=list)

    @classmethod
    def start(cls, cfg, seed):
        """The state before the first outer iteration: Glorot-initialized networks."""
        rngs = RngBundle.from_seed(seed)
        tx = build_transmitter(cfg.num_messages, rngs.init_tx)
        return cls(tx, build_receiver(cfg.num_messages, rngs.init_rx), rngs)

    def copy(self):
        """An independent copy; advancing either leaves the other untouched."""
        return TrainState(self.tx.copy(), self.rx.copy(), deepcopy(self.rngs), self.outer, list(self.metrics))


def receiver_step(rx, messages, received, adam_cfg):
    """One supervised receiver update on a message batch and its channel output.

    Returns (empirical_loss, grad_norm).
    """
    probs, tape = receive(rx, received)
    losses = cross_entropy_losses(probs, messages)
    grad = receiver_gradient(rx, tape, probs, messages)
    adam_step(rx, grad, adam_cfg)
    return float(np.add.reduce(losses) / losses.size), gradient_norm(rx, grad)


def transmitter_step(tx, rx, channel_cfg, cfg, adam_cfg, rngs):
    """One policy-gradient transmitter update through the feedback chain.

    The receiver is frozen; it computes per-sample cross-entropy losses on
    the perturbed transmission, and the transmitter sees those losses either
    raw (cfg.quantizer None) or after preprocess/level codes/[bit flips]/reconstruction.
    Returns (empirical_loss, grad_norm, g_estimate).
    """
    sigma_p_sq = exploration_variance(channel_cfg.P_mw)
    messages = rngs.messages.integers(0, cfg.num_messages, size=cfg.batch_tx)
    sent = transmit(tx, messages, cfg.num_messages, channel_cfg.P_mw)
    perturbed, w = perturb(sent.symbols, sigma_p_sq, rngs.exploration)
    received = propagate(real_to_complex(perturbed), channel_cfg, rngs.channel)
    probs, _ = receive(rx, received)
    losses = cross_entropy_losses(probs, messages)

    g_estimate = None
    if cfg.quantizer is None:
        fed_back = losses
    else:
        batch = feedback_roundtrip(losses, cfg.quantizer, cfg.bsc, rngs.feedback, cfg.clip_fraction)
        fed_back = batch.reconstructed
        var = batch.transformed.var()  # 0 for a degenerate batch, mapped to all zeros
        if var > 0.0:
            g_estimate = linear_gain(batch.transformed, batch.levels, var)

    grad = policy_gradient(tx, sent, w, fed_back, sigma_p_sq)
    adam_step(tx, grad, adam_cfg)
    return float(np.add.reduce(losses) / losses.size), gradient_norm(tx, grad), g_estimate


def _located(state, phase, step, fn, *args):
    """fn(*args), with a ValueError re-raised naming where in the run it happened."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise ValueError(f"outer iteration {state.outer}, {phase} step {step}: {exc}") from exc


def advance(state, cfg, channel_cfg, n):
    """Run n more outer iterations on state in place and return it.

    The transmitter is frozen for the whole receiver phase, so the phase's
    N_R batches are drawn and encoded first and cross the channel in one
    stacked propagate call; each receiver step then consumes its own row.
    The channel draws the same noise as one call per step would. The
    encoding is one transmitter forward on the M-row identity per phase:
    a batch's raw outputs are that table's rows for its messages, with the
    bits a forward of the batch itself gives from 2 rows up (a 1-row pass
    takes another BLAS kernel; README, "Reproducibility").

    The SER estimate rides on the last tx row of every ser_every-th outer
    iteration and of outer iteration cfg.num_iterations. It draws only from
    the evaluation stream, so neither it nor where a run is split moves the
    networks. A step's ValueError is re-raised naming where it happened.
    """
    # Local import: evaluation depends on transceiver, not on this module,
    # but pulling it at module scope would make the import graph order-sensitive.
    from .evaluation import estimate_ser

    # The step functions are looked up per call, so a wrapper installed on
    # this module's names sees every step.
    rx_adam, tx_adam = AdamConfig(learning_rate=cfg.lr_rx), AdamConfig(learning_rate=cfg.lr_tx)
    rx_steps = range(1, cfg.n_rx_steps + 1)
    identity = np.eye(cfg.num_messages)
    for _ in range(n):
        state.outer += 1
        table, _ = forward(state.tx, identity)
        messages = [state.rngs.messages.integers(0, cfg.num_messages, size=cfg.batch_rx) for _ in rx_steps]
        symbols = table[np.stack(messages)]  # (N_R, B, 2) raw outputs until scaled in place
        for step, batch in zip(rx_steps, symbols):
            batch *= _located(state, PHASE_RX, step, power_scale, batch, channel_cfg.P_mw)
        received = propagate(real_to_complex(symbols), channel_cfg, state.rngs.channel)
        for step, m, y in zip(rx_steps, messages, received):
            record = _located(state, PHASE_RX, step, receiver_step, state.rx, m, y, rx_adam)
            state.metrics.append(MetricsRecord(state.outer, PHASE_RX, step, *record))
        for step in range(1, cfg.n_tx_steps + 1):
            record = _located(
                state, PHASE_TX, step, transmitter_step, state.tx, state.rx, channel_cfg, cfg, tx_adam, state.rngs
            )
            state.metrics.append(MetricsRecord(state.outer, PHASE_TX, step, *record))
        if state.outer % cfg.ser_every == 0 or state.outer == cfg.num_iterations:
            state.metrics[-1].ser = estimate_ser(
                state.tx, state.rx, channel_cfg, cfg.num_messages, cfg.ser_symbols, state.rngs.evaluation
            ).ser
    return state


def train(cfg, channel_cfg, seed):
    """Run the full alternating optimization from Glorot-initialized networks;
    returns the final TrainState."""
    return advance(TrainState.start(cfg, seed), cfg, channel_cfg, cfg.num_iterations)


def _format_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        # plain-float repr even for numpy scalars, which repr with a wrapper
        return repr(float(value))
    return str(value)


def write_csv(path, columns, rows, comments=()):
    """Write a CSV artifact: the header, one '# ' line per comment, then the rows. Floats are
    repr(float(x)) so reruns are byte-identical; None is an empty cell; anything else is str(x)."""
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for line in comments:
            fh.write(f"# {line}\n")
        for row in rows:
            fh.write(",".join(map(_format_cell, row)) + "\n")


def write_metrics_csv(path, metrics, comments=()):
    """Write the metrics log as CSV, one row per gradient step."""
    write_csv(path, METRICS_COLUMNS, map(attrgetter(*METRICS_COLUMNS), metrics), comments)


def read_metrics_csv(path):
    """Inverse of write_metrics_csv; skips comment lines."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header != ",".join(METRICS_COLUMNS):
            raise ValueError(f"unexpected metrics header: {header}")
        rows = (line.rstrip("\n").split(",") for line in fh if line.strip() and not line.startswith("#"))
        return [
            # g_estimate and ser are empty cells where they were not measured
            MetricsRecord(
                int(outer), phase, int(step), float(loss), float(norm), *[float(c) if c else None for c in optional]
            )
            for outer, phase, step, loss, norm, *optional in rows
        ]
