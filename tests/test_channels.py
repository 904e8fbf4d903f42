"""Channel model checks: unit conversions, noise moments, phase recursion, BSC."""

import numpy as np
import pytest

from qflearn.channels import (
    AWGN,
    NLPN,
    BscConfig,
    ChannelConfig,
    awgn,
    bsc,
    complex_gaussian,
    dbm_to_mw,
    mw_to_dbm,
    nlpn,
    propagate,
)
from qflearn.channels import _NLPN_DRAW_NORMALS as CAP


def test_dbm_conversions():
    assert dbm_to_mw(0.0) == pytest.approx(1.0)
    assert dbm_to_mw(10.0) == pytest.approx(10.0)
    assert dbm_to_mw(-3.0) == pytest.approx(0.501187, rel=1e-5)
    assert mw_to_dbm(1.0) == pytest.approx(0.0)
    for dbm in (-21.3, -6.3, 0.0, 4.0):
        assert mw_to_dbm(dbm_to_mw(dbm)) == pytest.approx(dbm, abs=1e-12)


def test_snr_is_power_minus_noise_in_db():
    cfg = ChannelConfig(family=AWGN, sigma_sq_dbm=-21.3, P_dbm=-6.3)
    assert cfg.snr_db == pytest.approx(15.0)


def test_complex_gaussian_moments():
    rng = np.random.default_rng(5)
    n = complex_gaussian((200_000,), 0.4, rng)
    assert np.mean(np.abs(n) ** 2) == pytest.approx(0.4, rel=0.02)
    # circular symmetry: both quadratures carry half the power
    assert np.var(n.real) == pytest.approx(0.2, rel=0.03)
    assert np.var(n.imag) == pytest.approx(0.2, rel=0.03)
    assert abs(np.mean(n)) < 0.01


def test_complex_gaussian_zero_variance_is_exact_zero():
    rng = np.random.default_rng(6)
    n = complex_gaussian((10,), 0.0, rng)
    np.testing.assert_array_equal(n, np.zeros(10, dtype=np.complex128))


def test_awgn_adds_configured_noise_power():
    cfg = ChannelConfig(family=AWGN, sigma_sq_dbm=0.0, P_dbm=0.0)
    rng = np.random.default_rng(7)
    x = np.full(300_000, 2.0 + 0.0j)
    y = awgn(x, cfg, rng)
    assert np.mean(np.abs(y - x) ** 2) == pytest.approx(1.0, rel=0.02)
    assert np.mean(y.real) == pytest.approx(2.0, abs=0.01)


def test_nlpn_noiseless_phase_oracle():
    """With sigma^2 = 0 each of K steps rotates by L*gamma*1e-3*|x|^2/K.

    For |x|^2 = 1 mW, L = 5000 km, gamma = 1.27 rad/W/km the total rotation
    is 6.35 rad regardless of K, and the magnitude is untouched.
    """
    rng = np.random.default_rng(8)
    x = np.array([1.0 + 0.0j])
    for k in (1, 2, 50):
        cfg = ChannelConfig(
            family=NLPN, sigma_sq_dbm=-np.inf, P_dbm=0.0, gamma=1.27, L_km=5000.0, K=k
        )
        y = nlpn(x, cfg, rng)
        expect = np.exp(1j * 6.35)
        np.testing.assert_allclose(y, [expect], atol=1e-12)
        np.testing.assert_allclose(np.abs(y), 1.0, atol=1e-12)


def test_nlpn_noiseless_rotation_scales_with_power():
    rng = np.random.default_rng(9)
    cfg = ChannelConfig(
        family=NLPN, sigma_sq_dbm=-np.inf, P_dbm=3.0, gamma=2.0, L_km=1000.0, K=4
    )
    x = np.array([0.5 + 0.5j])  # |x|^2 = 0.5 mW
    y = nlpn(x, cfg, rng)
    np.testing.assert_allclose(
        y, x * np.exp(1j * 1000.0 * 2.0 * 1e-3 * 0.5), atol=1e-12
    )


def test_nlpn_gamma_zero_matches_awgn_moments():
    """gamma = 0 removes the nonlinearity, so output moments must match AWGN."""
    rng_a = np.random.default_rng(10)
    rng_b = np.random.default_rng(11)
    n = 1_000_000
    x = np.full(n, 1.0 + 1.0j)
    cfg_n = ChannelConfig(
        family=NLPN, sigma_sq_dbm=-10.0, P_dbm=0.0, gamma=0.0, L_km=5000.0, K=50
    )
    cfg_a = ChannelConfig(family=AWGN, sigma_sq_dbm=-10.0, P_dbm=0.0)
    ya = awgn(x, cfg_a, rng_a)
    yn = nlpn(x, cfg_n, rng_b)
    assert np.mean(yn.real) == pytest.approx(np.mean(ya.real), rel=0.01)
    assert np.mean(yn.imag) == pytest.approx(np.mean(ya.imag), rel=0.01)
    assert np.mean(np.abs(yn) ** 2) == pytest.approx(np.mean(np.abs(ya) ** 2), rel=0.01)
    assert np.var(yn.real) == pytest.approx(np.var(ya.real), rel=0.01)
    assert np.var(yn.imag) == pytest.approx(np.var(ya.imag), rel=0.01)


def nlpn_per_step(x, cfg, rng):
    """The recursion with one complex_gaussian draw per step: the reference
    for the blocked noise draw in nlpn."""
    x = np.asarray(x, dtype=np.complex128)
    step_var = cfg.sigma_sq_mw / cfg.K
    phase_coeff = cfg.L_km * cfg.gamma * 1e-3 / cfg.K
    out = x.copy()
    for _ in range(cfg.K):
        out = out * np.exp(1j * phase_coeff * np.abs(out) ** 2)
        out = out + complex_gaussian(out.shape, step_var, rng)
    return out


# Shapes on both sides of the draw cap at K = 50: all steps in one draw (1,
# 64, 8x8), blocks of 4 steps with a last block of 2 (CAP // 8), one step
# per draw (CAP // 2 + 1).
@pytest.mark.parametrize("shape", [(1,), (64,), (8, 8), (CAP // 8,), (CAP // 2 + 1,)])
@pytest.mark.parametrize("sigma_sq_dbm", [-21.3, -np.inf])
def test_nlpn_blocked_draw_matches_per_step_recursion(shape, sigma_sq_dbm):
    cfg = ChannelConfig(family=NLPN, sigma_sq_dbm=sigma_sq_dbm, P_dbm=0.0, gamma=1.27, L_km=5000.0, K=50)
    src = np.random.default_rng(14)
    x = 0.7 * (src.normal(size=shape) + 1j * src.normal(size=shape))
    rng, ref_rng = np.random.default_rng(15), np.random.default_rng(15)
    start_state = rng.bit_generator.state
    y = nlpn(x, cfg, rng)
    expect = nlpn_per_step(x, cfg, ref_rng)
    assert y.shape == shape
    assert y.tobytes() == expect.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    if sigma_sq_dbm == -np.inf:
        assert rng.bit_generator.state == start_state  # the noiseless path draws nothing


def test_nlpn_uneven_block_case_is_uneven():
    block = CAP // (2 * (CAP // 8))
    assert 1 < block < 50 and 50 % block != 0
    assert CAP // (2 * (CAP // 2 + 1)) == 0  # falls back to one step per draw


def test_propagate_dispatch():
    rng = np.random.default_rng(12)
    x = np.array([1.0 + 0.0j])
    cfg_a = ChannelConfig(family=AWGN, sigma_sq_dbm=-np.inf, P_dbm=0.0)
    np.testing.assert_array_equal(propagate(x, cfg_a, rng), x)
    cfg_n = ChannelConfig(
        family=NLPN, sigma_sq_dbm=-np.inf, P_dbm=0.0, gamma=1.0, L_km=1000.0, K=2
    )
    y = propagate(x, cfg_n, rng)
    assert np.angle(y[0]) != 0.0


def test_channel_config_validation():
    with pytest.raises(ValueError):
        ChannelConfig(family="fiber", sigma_sq_dbm=0.0, P_dbm=0.0)
    with pytest.raises(ValueError):
        ChannelConfig(family=NLPN, sigma_sq_dbm=0.0, P_dbm=0.0, gamma=1.0, L_km=0.0)
    with pytest.raises(ValueError):
        ChannelConfig(
            family=NLPN, sigma_sq_dbm=0.0, P_dbm=0.0, gamma=1.0, L_km=10.0, K=0
        )


def test_bsc_flip_rate_and_identity():
    rng = np.random.default_rng(13)
    bits = rng.integers(0, 2, size=(200_000, 2)).astype(np.uint8)
    noisy = bsc(bits, BscConfig(flip_prob=0.1), rng)
    assert np.mean(noisy != bits) == pytest.approx(0.1, rel=0.03)
    clean = bsc(bits, BscConfig(flip_prob=0.0), rng)
    np.testing.assert_array_equal(clean, bits)
    assert clean is not bits


def test_bsc_flip_prob_range():
    with pytest.raises(ValueError):
        BscConfig(flip_prob=0.6)
    with pytest.raises(ValueError):
        BscConfig(flip_prob=-0.1)
    BscConfig(flip_prob=0.5)  # boundary is legal
