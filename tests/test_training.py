"""Alternating-optimization loop behavior: phases, determinism, logging."""

import numpy as np
import pytest

from qflearn.channels import AWGN, BscConfig, ChannelConfig
from qflearn.feedback import QuantizerConfig
from qflearn.neuralnet import AdamConfig
from qflearn.training import (
    METRICS_COLUMNS,
    PHASE_RX,
    PHASE_TX,
    RngBundle,
    TrainingConfig,
    exploration_variance,
    read_metrics_csv,
    receiver_step,
    train,
    write_metrics_csv,
)


CHANNEL = ChannelConfig(family=AWGN, sigma_sq_dbm=-21.3, P_dbm=-6.3)


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
    assert result.metrics == []
    rngs = RngBundle.from_seed(3)
    from qflearn.transceiver import build_transmitter

    fresh = build_transmitter(16, rngs.init_tx)
    np.testing.assert_array_equal(result.tx.flatten_params(), fresh.flatten_params())


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
    np.testing.assert_array_equal(a.tx.flatten_params(), b.tx.flatten_params())
    np.testing.assert_array_equal(a.rx.flatten_params(), b.rx.flatten_params())
    assert [(r.empirical_loss, r.grad_norm) for r in a.metrics] == [
        (r.empirical_loss, r.grad_norm) for r in b.metrics
    ]


def test_different_seeds_differ():
    cfg = small_config()
    a = train(cfg, CHANNEL, seed=1)
    b = train(cfg, CHANNEL, seed=2)
    assert not np.array_equal(a.tx.flatten_params(), b.tx.flatten_params())


def test_phases_touch_only_their_network():
    """rx parameters move only in rx steps, tx parameters only in tx steps."""
    from qflearn.transceiver import build_receiver, build_transmitter

    rngs = RngBundle.from_seed(21)
    tx = build_transmitter(16, rngs.init_tx)
    rx = build_receiver(16, rngs.init_rx)
    cfg = small_config(num_iterations=1)

    tx_before = tx.flatten_params().copy()
    result = train(cfg, CHANNEL, seed=21, tx=tx, rx=rx)
    assert result.tx is tx

    # replay: rx-only steps with a frozen transmitter change rx alone
    rngs2 = RngBundle.from_seed(22)
    tx2 = build_transmitter(16, rngs2.init_tx)
    rx2 = build_receiver(16, rngs2.init_rx)
    tx2_before = tx2.flatten_params().copy()
    for _ in range(5):
        receiver_step(
            tx2, rx2, CHANNEL, 16, 16, AdamConfig(learning_rate=0.008), rngs2.messages, rngs2.channel
        )
    np.testing.assert_array_equal(tx2.flatten_params(), tx2_before)
    assert not np.array_equal(tx_before, result.tx.flatten_params())


def test_snapshot_is_frozen_copy():
    cfg = small_config()
    result = train(cfg, CHANNEL, seed=5, snapshot_iter=2)
    assert result.snapshot is not None
    snap_tx, snap_rx = result.snapshot
    # training continued after the snapshot, so the live nets moved on
    assert not np.array_equal(snap_tx.flatten_params(), result.tx.flatten_params())
    assert not np.array_equal(snap_rx.flatten_params(), result.rx.flatten_params())


def test_snapshot_beyond_run_is_none():
    result = train(small_config(), CHANNEL, seed=5, snapshot_iter=99)
    assert result.snapshot is None


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
    from qflearn.transceiver import build_receiver, build_transmitter

    noiseless = ChannelConfig(family=AWGN, sigma_sq_dbm=-np.inf, P_dbm=-6.3)
    rngs = RngBundle.from_seed(31)
    tx = build_transmitter(16, rngs.init_tx)
    rx = build_receiver(16, rngs.init_rx)
    adam = AdamConfig(learning_rate=0.008)
    first = None
    last = None
    for _ in range(400):
        loss, _ = receiver_step(tx, rx, noiseless, 16, 64, adam, rngs.messages, rngs.channel)
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

    initial = build_transmitter(16, start.init_tx).flatten_params()
    assert not np.array_equal(noisy.tx.flatten_params(), initial)
    assert not np.array_equal(clean.tx.flatten_params(), noisy.tx.flatten_params())
