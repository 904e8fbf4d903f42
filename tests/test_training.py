"""Alternating-optimization loop behavior: phases, determinism, logging."""

from dataclasses import astuple, fields

import numpy as np
import pytest

from qflearn.channels import AWGN, NLPN, BscConfig, ChannelConfig, propagate
from qflearn.evaluation import estimate_ser
from qflearn.feedback import QuantizerConfig
from qflearn.neuralnet import AdamConfig, adam_step, gradient_norm
from qflearn.training import (
    METRICS_COLUMNS,
    PHASE_RX,
    PHASE_TX,
    MetricsRecord,
    RngBundle,
    TrainingConfig,
    TrainState,
    advance,
    exploration_variance,
    read_metrics_csv,
    receiver_step,
    train,
    transmitter_step,
    write_csv,
    write_metrics_csv,
)
from qflearn.transceiver import (
    cross_entropy_losses,
    real_to_complex,
    receive,
    receiver_gradient,
    transmit,
)


CHANNEL = ChannelConfig(family=AWGN, sigma_sq_dbm=-21.3, P_dbm=-6.3)
NLPN_CHANNEL = ChannelConfig(family=NLPN, sigma_sq_dbm=-21.3, P_dbm=-3.0, gamma=1.27, L_km=5000.0, K=50)
FEEDBACK_MODES = {
    "perfect": {},
    "q1": dict(quantizer=QuantizerConfig(1)),
    "q2_bsc": dict(quantizer=QuantizerConfig(2), bsc=BscConfig(flip_prob=0.1)),
}


def small_config(**overrides):
    base = dict(
        num_iterations=3,
        n_rx_steps=4,
        n_tx_steps=3,
        batch_rx=16,
        batch_tx=16,
        ser_every=50,
        ser_symbols=500,
    )
    base.update(overrides)
    return TrainingConfig(**base)


def test_exploration_variance_rule():
    assert exploration_variance(0.2344) == pytest.approx(0.2344e-3)
    assert exploration_variance(1.0) == pytest.approx(1e-3)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainingConfig(num_iterations=-1)
    with pytest.raises(ValueError):
        TrainingConfig(num_iterations=1, n_rx_steps=0)
    with pytest.raises(ValueError):
        TrainingConfig(num_iterations=1, lr_tx=0.0)
    with pytest.raises(ValueError):
        # bit flips make no sense without a quantized bit stream
        TrainingConfig(num_iterations=1, bsc=BscConfig(flip_prob=0.1))


def test_config_rejects_non_finite_and_out_of_range_values():
    nan, inf = float("nan"), float("inf")
    for bad in (dict(lr_rx=nan), dict(lr_tx=inf), dict(lr_rx=-inf)):
        with pytest.raises(ValueError, match="learning rates"):
            TrainingConfig(num_iterations=1, **bad)
    for clip_fraction in (nan, 1.0, -0.01, inf):
        with pytest.raises(ValueError, match="clip_fraction"):
            TrainingConfig(num_iterations=1, clip_fraction=clip_fraction)
    assert TrainingConfig(num_iterations=1, clip_fraction=0.0).clip_fraction == 0.0
    for bad in (dict(learning_rate=nan), dict(learning_rate=inf), dict(learning_rate=0.01, epsilon=nan)):
        with pytest.raises(ValueError, match="Adam"):
            AdamConfig(**bad)
    with pytest.raises(ValueError, match="betas"):
        AdamConfig(learning_rate=0.01, beta1=nan)
    for bad in (dict(P_dbm=inf), dict(P_dbm=nan), dict(sigma_sq_dbm=nan), dict(sigma_sq_dbm=inf)):
        with pytest.raises(ValueError, match="finite"):
            ChannelConfig(**{"family": AWGN, "sigma_sq_dbm": -21.3, "P_dbm": -6.3, **bad})
    with pytest.raises(ValueError, match="finite"):
        ChannelConfig(family="nlpn", sigma_sq_dbm=-21.3, P_dbm=0.0, gamma=nan, L_km=10.0)
    # -inf noise power is the documented noiseless hook and stays legal
    assert ChannelConfig(family=AWGN, sigma_sq_dbm=-inf, P_dbm=-6.3).sigma_sq_mw == 0.0


def test_zero_iterations_returns_initial_networks():
    result = train(TrainingConfig(num_iterations=0), CHANNEL, seed=3)
    assert result.metrics == [] and result.outer == 0
    rngs = RngBundle.from_seed(3)
    from qflearn.transceiver import build_transmitter

    fresh = build_transmitter(16, rngs.init_tx)
    np.testing.assert_array_equal(result.tx.params, fresh.params)


def test_metrics_row_layout():
    cfg = small_config()
    result = train(cfg, CHANNEL, seed=4)
    assert len(result.metrics) == 3 * (4 + 3)
    first_outer = [r for r in result.metrics if r.outer_iter == 1]
    assert [r.phase for r in first_outer] == [PHASE_RX] * 4 + [PHASE_TX] * 3
    assert [r.step for r in first_outer] == [1, 2, 3, 4, 1, 2, 3]
    # the last tx row of the final outer iteration carries the SER estimate
    assert result.metrics[-1].ser is not None
    others = [r.ser for r in result.metrics[:-1]]
    assert all(s is None for s in others)


def test_training_is_deterministic():
    cfg = small_config(quantizer=QuantizerConfig(1), bsc=BscConfig(flip_prob=0.2))
    a = train(cfg, CHANNEL, seed=11)
    b = train(cfg, CHANNEL, seed=11)
    np.testing.assert_array_equal(a.tx.params, b.tx.params)
    np.testing.assert_array_equal(a.rx.params, b.rx.params)
    assert [(r.empirical_loss, r.grad_norm) for r in a.metrics] == [
        (r.empirical_loss, r.grad_norm) for r in b.metrics
    ]


def test_different_seeds_differ():
    cfg = small_config()
    a = train(cfg, CHANNEL, seed=1)
    b = train(cfg, CHANNEL, seed=2)
    assert not np.array_equal(a.tx.params, b.tx.params)


def net_bytes(net):
    return net.params.tobytes(), net.adam_m.tobytes(), net.adam_v.tobytes(), net.adam_t


def state_bytes(state):
    """Everything a TrainState carries, in a form that compares bit for bit."""
    streams = [getattr(state.rngs, f.name).bit_generator.state for f in fields(state.rngs)]
    return net_bytes(state.tx), net_bytes(state.rx), streams, state.outer, [astuple(r) for r in state.metrics]


def receiver_batch(state, cfg, channel):
    """One receiver step's inputs made the per-step way: a message batch, then
    one propagate call on the frozen transmitter's symbols for it."""
    messages = state.rngs.messages.integers(0, cfg.num_messages, size=cfg.batch_rx)
    sent = transmit(state.tx, messages, cfg.num_messages, channel.P_mw)
    return messages, propagate(real_to_complex(sent.symbols), channel, state.rngs.channel)


def test_phases_touch_only_their_network():
    """rx parameters and Adam state move only in rx steps, tx ones only in tx steps."""
    cfg = small_config()
    state = TrainState.start(cfg, seed=21)
    tx_before, rx_before = net_bytes(state.tx), net_bytes(state.rx)
    for _ in range(5):
        receiver_step(state.rx, *receiver_batch(state, cfg, CHANNEL), AdamConfig(learning_rate=cfg.lr_rx))
    assert net_bytes(state.tx) == tx_before
    assert net_bytes(state.rx) != rx_before

    rx_after = net_bytes(state.rx)
    for _ in range(5):
        transmitter_step(state.tx, state.rx, CHANNEL, cfg, AdamConfig(learning_rate=cfg.lr_tx), state.rngs)
    assert net_bytes(state.rx) == rx_after
    assert net_bytes(state.tx) != tx_before


def per_step_receiver_step(state, cfg, channel_cfg, adam_cfg):
    """The receiver step as it was before advance stacked the receiver phase:
    it draws its own batch and makes its own propagate call."""
    messages, received = receiver_batch(state, cfg, channel_cfg)
    probs, tape = receive(state.rx, received)
    losses = cross_entropy_losses(probs, messages)
    grad = receiver_gradient(state.rx, tape, probs, messages)
    adam_step(state.rx, grad, adam_cfg)
    return float(losses.mean()), gradient_norm(state.rx, grad)


def per_step_advance(state, cfg, channel_cfg, n):
    """The reference for advance: every gradient step in turn, one channel
    call per receiver batch."""
    rx_adam, tx_adam = AdamConfig(learning_rate=cfg.lr_rx), AdamConfig(learning_rate=cfg.lr_tx)
    for _ in range(n):
        state.outer += 1
        for step in range(1, cfg.n_rx_steps + 1):
            record = per_step_receiver_step(state, cfg, channel_cfg, rx_adam)
            state.metrics.append(MetricsRecord(state.outer, PHASE_RX, step, *record))
        for step in range(1, cfg.n_tx_steps + 1):
            record = transmitter_step(state.tx, state.rx, channel_cfg, cfg, tx_adam, state.rngs)
            state.metrics.append(MetricsRecord(state.outer, PHASE_TX, step, *record))
        if state.outer % cfg.ser_every == 0 or state.outer == cfg.num_iterations:
            state.metrics[-1].ser = estimate_ser(
                state.tx, state.rx, channel_cfg, cfg.num_messages, cfg.ser_symbols, state.rngs.evaluation
            ).ser
    return state


ORACLE_MODES = {
    "perfect": {},
    "q1": dict(quantizer=QuantizerConfig(1)),
    "q1_bsc": dict(quantizer=QuantizerConfig(1), bsc=BscConfig(flip_prob=0.1)),
}
# At K = 50, 23 receiver batches of 64 make two full row groups of 10 and a
# partial one in the stacked channel call. Two-row batches of 8 messages are
# the smallest that a transmitter forward of the batch encodes with the bits
# of the identity table advance gathers from.
ORACLE_SIZES = {
    "small": dict(num_iterations=4, ser_every=2),
    "desk_rx": dict(num_iterations=2, n_rx_steps=23, batch_rx=64, ser_every=1),
    "two_rows": dict(num_iterations=2, num_messages=8, batch_rx=2, batch_tx=2, ser_every=1),
}


@pytest.mark.parametrize("size", sorted(ORACLE_SIZES))
@pytest.mark.parametrize("channel", [CHANNEL, NLPN_CHANNEL], ids=["awgn", "nlpn"])
@pytest.mark.parametrize("mode", sorted(ORACLE_MODES))
def test_advance_equals_per_step_receiver_loop(mode, channel, size):
    """Encoding the receiver phase from one identity-table forward and stacking
    it into one channel call moves no bit against per-step transmit and
    propagate calls: params, Adam m/v/t, all seven generator states and the
    metrics rows match."""
    cfg = small_config(**ORACLE_SIZES[size], **ORACLE_MODES[mode])
    stacked = advance(TrainState.start(cfg, seed=23), cfg, channel, cfg.num_iterations)
    per_step = per_step_advance(TrainState.start(cfg, seed=23), cfg, channel, cfg.num_iterations)
    assert state_bytes(stacked) == state_bytes(per_step)
    assert len(stacked.metrics) == cfg.num_iterations * (cfg.n_rx_steps + cfg.n_tx_steps)


@pytest.mark.parametrize("channel", [CHANNEL, NLPN_CHANNEL], ids=["awgn", "nlpn"])
@pytest.mark.parametrize("mode", sorted(FEEDBACK_MODES))
@pytest.mark.parametrize("k", [3, 4])  # 4 lies on the SER cadence, 3 does not
def test_split_run_equals_straight_run(channel, mode, k):
    cfg = small_config(num_iterations=6, ser_every=2, **FEEDBACK_MODES[mode])
    straight = train(cfg, channel, seed=13)
    split = advance(TrainState.start(cfg, seed=13), cfg, channel, k).copy()
    advance(split, cfg, channel, cfg.num_iterations - k)
    assert state_bytes(split) == state_bytes(straight)
    assert [r.outer_iter for r in straight.metrics if r.ser is not None] == [2, 4, 6]


def test_advancing_a_copy_leaves_the_original_untouched():
    cfg = small_config(quantizer=QuantizerConfig(1), bsc=BscConfig(flip_prob=0.2), ser_every=1)
    state = advance(TrainState.start(cfg, seed=5), cfg, CHANNEL, 2)
    before = state_bytes(state)
    fork = state.copy()
    advance(fork, cfg, CHANNEL, 1)
    assert state_bytes(state) == before
    assert fork.outer == 3
    assert not np.array_equal(fork.tx.params, state.tx.params)
    assert not np.array_equal(fork.rx.params, state.rx.params)


def test_step_failure_names_the_outer_iteration_phase_and_step():
    cfg = small_config()
    state = advance(TrainState.start(cfg, seed=12), cfg, CHANNEL, 2)
    state.tx.params[0] = np.nan
    with pytest.raises(ValueError, match=r"^outer iteration 3, rx step 1: non-finite gradient$"):
        advance(state, cfg, CHANNEL, 1)


def test_failure_while_preparing_the_receiver_phase_names_the_step():
    """The rx batches are encoded before the phase's one channel call; a
    transmit failure there still names its outer iteration and step."""
    cfg = small_config()
    state = TrainState.start(cfg, seed=12)
    state.tx.params[:] = 0.0
    with pytest.raises(
        ValueError, match=r"^outer iteration 1, rx step 1: transmitter produced an all-zero batch; cannot normalize$"
    ):
        advance(state, cfg, CHANNEL, 1)


def test_quantized_run_logs_g_estimate():
    cfg = small_config(quantizer=QuantizerConfig(1))
    result = train(cfg, CHANNEL, seed=6)
    tx_rows = [r for r in result.metrics if r.phase == PHASE_TX]
    assert any(r.g_estimate is not None for r in tx_rows)
    for r in tx_rows:
        if r.g_estimate is not None:
            assert 0.0 < r.g_estimate < 4.0
    rx_rows = [r for r in result.metrics if r.phase == PHASE_RX]
    assert all(r.g_estimate is None for r in rx_rows)


def test_perfect_feedback_logs_no_g_estimate():
    result = train(small_config(), CHANNEL, seed=6)
    assert all(r.g_estimate is None for r in result.metrics)


def test_receiver_loss_drops_on_noiseless_channel():
    """A few hundred supervised steps must crush the loss with no noise."""
    noiseless = ChannelConfig(family=AWGN, sigma_sq_dbm=-np.inf, P_dbm=-6.3)
    cfg = small_config(batch_rx=64)
    state = TrainState.start(cfg, seed=31)
    adam = AdamConfig(learning_rate=0.008)
    first = None
    last = None
    for _ in range(400):
        loss, _ = receiver_step(state.rx, *receiver_batch(state, cfg, noiseless), adam)
        if first is None:
            first = loss
        last = loss
    assert first > 1.0  # random start sits near log(16) ~ 2.77
    assert last < 0.1


def test_metrics_csv_roundtrip(tmp_path):
    cfg = small_config(quantizer=QuantizerConfig(2))
    result = train(cfg, CHANNEL, seed=7)
    path = tmp_path / "metrics.csv"
    write_metrics_csv(str(path), result.metrics, comments=("config abc", "seed 7"))
    text = path.read_text()
    lines = text.split("\n")
    assert lines[0] == ",".join(METRICS_COLUMNS)
    assert lines[1] == "# config abc"
    back = read_metrics_csv(str(path))
    assert len(back) == len(result.metrics)
    for orig, rec in zip(result.metrics, back):
        assert rec.outer_iter == orig.outer_iter
        assert rec.phase == orig.phase
        assert rec.step == orig.step
        assert rec.empirical_loss == orig.empirical_loss
        assert rec.grad_norm == orig.grad_norm
        assert rec.g_estimate == orig.g_estimate
        assert rec.ser == orig.ser


def test_metrics_csv_is_plain_ascii_floats(tmp_path):
    result = train(small_config(num_iterations=1), CHANNEL, seed=8)
    path = tmp_path / "metrics.csv"
    write_metrics_csv(str(path), result.metrics)
    body = path.read_text()
    assert "np.float64" not in body
    assert "nan" not in body.lower()


def test_write_csv_cells(tmp_path):
    path = tmp_path / "cells.csv"
    rows = [
        (None, np.float64(1 / 3), np.int64(3), 0.1, "x"),
        (7, 1e-300, None, np.float64(-0.0), ""),
    ]
    write_csv(str(path), ("a", "b", "c", "d", "e"), rows, comments=("k=v",))
    assert path.read_text() == "a,b,c,d,e\n# k=v\n,0.3333333333333333,3,0.1,x\n7,1e-300,,-0.0,\n"


def test_pure_noise_feedback_destroys_the_learning_signal():
    """At p = 0.5 the reconstructed losses are independent of the true ones.

    The transmitter's update direction is driven by the correlation between
    fed-back values and the scores, so this is the property that separates a
    dead feedback link from a merely coarse one.
    """
    from qflearn.feedback import feedback_roundtrip, preprocess

    raw = np.random.default_rng(9).exponential(1.0, size=4096) + 0.05
    transformed, _ = preprocess(raw)
    clean = feedback_roundtrip(raw, QuantizerConfig(1))
    noisy = feedback_roundtrip(
        raw,
        QuantizerConfig(1),
        bsc_cfg=BscConfig(flip_prob=0.5),
        rng=np.random.default_rng(77),
    )
    corr_clean = np.corrcoef(transformed, clean.reconstructed)[0, 1]
    corr_noisy = np.corrcoef(transformed, noisy.reconstructed)[0, 1]
    assert corr_clean > 0.7
    assert abs(corr_noisy) < 0.1


def test_pure_noise_feedback_still_moves_parameters():
    """Adam integrates the informationless p = 0.5 gradients all the same."""
    cfg_clean = small_config(num_iterations=4, quantizer=QuantizerConfig(1), ser_every=100)
    cfg_noise = small_config(
        num_iterations=4,
        quantizer=QuantizerConfig(1),
        bsc=BscConfig(flip_prob=0.5),
        ser_every=100,
    )
    clean = train(cfg_clean, CHANNEL, seed=9)
    noisy = train(cfg_noise, CHANNEL, seed=9)
    start = RngBundle.from_seed(9)
    from qflearn.transceiver import build_transmitter

    initial = build_transmitter(16, start.init_tx).params
    assert not np.array_equal(noisy.tx.params, initial)
    assert not np.array_equal(clean.tx.params, noisy.tx.params)
