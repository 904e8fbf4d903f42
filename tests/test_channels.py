"""Channel model checks: unit conversions, noise moments, phase recursion, BSC."""

import queue
import threading
import time

import numpy as np
import pytest
from conftest import bounded_call
from reference import indices_to_bits

from qflearn import channels
from qflearn.channels import (
    AWGN,
    NLPN,
    BscConfig,
    ChannelConfig,
    awgn,
    bsc,
    dbm_to_mw,
    nlpn,
    propagate,
)
from qflearn.channels import _NLPN_DRAW_NORMALS as CAP
from qflearn.channels import _NLPN_PIPELINE_SYMBOLS as PIPE
from qflearn.channels import _gaussian_parts
from qflearn.feedback import QuantizerConfig


def test_dbm_conversions():
    assert dbm_to_mw(0.0) == pytest.approx(1.0)
    assert dbm_to_mw(10.0) == pytest.approx(10.0)
    assert dbm_to_mw(-3.0) == pytest.approx(0.501187, rel=1e-5)


def test_snr_is_power_minus_noise_in_db():
    cfg = ChannelConfig(family=AWGN, sigma_sq_dbm=-21.3, P_dbm=-6.3)
    assert cfg.snr_db == pytest.approx(15.0)


def test_complex_gaussian_moments():
    rng = np.random.default_rng(5)
    re, im = _gaussian_parts((200_000,), 0.4, rng)
    assert np.mean(re**2 + im**2) == pytest.approx(0.4, rel=0.02)
    # circular symmetry: both quadratures carry half the power
    assert np.var(re) == pytest.approx(0.2, rel=0.03)
    assert np.var(im) == pytest.approx(0.2, rel=0.03)
    assert abs(complex(np.mean(re), np.mean(im))) < 0.01


def test_complex_gaussian_zero_variance_is_exact_zero():
    rng = np.random.default_rng(6)
    start_state = rng.bit_generator.state
    z = _gaussian_parts((10,), 0.0, rng)
    np.testing.assert_array_equal(z, np.zeros((2, 10)))
    z = _gaussian_parts((10,), 0.0, rng, lead=(3, 2))
    np.testing.assert_array_equal(z, np.zeros((3, 2, 2, 10)))
    assert rng.bit_generator.state == start_state  # draws nothing


def two_draw_gaussian(shape, variance, rng):
    """Complex Gaussian noise as two draws, all real parts then all
    imaginary parts: the reference for the bits of _gaussian_parts."""
    if variance == 0.0:
        return np.zeros(shape, dtype=np.complex128)
    s = np.sqrt(variance / 2.0)
    return rng.normal(0.0, s, shape) + 1j * rng.normal(0.0, s, shape)


@pytest.mark.parametrize("lead", [(), (3,), (2, 4)])
@pytest.mark.parametrize("shape", [(), (5,), (2, 3)])
def test_complex_gaussian_equals_two_draws_per_lead_index(lead, shape):
    rng, ref_rng = np.random.default_rng(18), np.random.default_rng(18)
    z = _gaussian_parts(shape, 0.3, rng, lead)
    expect = np.array([two_draw_gaussian(shape, 0.3, ref_rng) for _ in np.ndindex(lead)]).reshape(lead + shape)
    assert z.shape == lead + (2,) + shape
    re, im = np.moveaxis(z, len(lead), 0)
    assert re.tobytes() == expect.real.tobytes()
    assert im.tobytes() == expect.imag.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_awgn_adds_configured_noise_power():
    cfg = ChannelConfig(family=AWGN, sigma_sq_dbm=0.0, P_dbm=0.0)
    rng = np.random.default_rng(7)
    x = np.full(300_000, 2.0 + 0.0j)
    y = awgn(x, cfg, rng)
    assert np.mean(np.abs(y - x) ** 2) == pytest.approx(1.0, rel=0.02)
    assert np.mean(y.real) == pytest.approx(2.0, abs=0.01)


@pytest.mark.parametrize("shape", [(), (64,), (5, 64)])
def test_awgn_adds_two_draw_noise_per_use(shape):
    cfg = ChannelConfig(family=AWGN, sigma_sq_dbm=-21.3, P_dbm=0.0)
    x = np.full(shape, 0.5 - 0.25j)
    rng, ref_rng = np.random.default_rng(19), np.random.default_rng(19)
    y = awgn(x, cfg, rng)
    uses = x if x.ndim > 1 else [x]
    expect = np.array([use + two_draw_gaussian(use.shape, cfg.sigma_sq_mw, ref_rng) for use in uses]).reshape(shape)
    assert y.tobytes() == expect.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


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
    """The recursion as one expression per step with one two_draw_gaussian
    draw per step: the reference for the blocked noise draw and the buffered
    steps in nlpn. A 2-d x is a stack of channel uses, one per row, taken in
    row order. A 0-d x runs as a 1-element array: on 0-d operands NumPy
    switches to scalar arithmetic, which rounds |x|^2 and the complex
    product differently."""
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim == 2:
        return np.array([nlpn_per_step(row, cfg, rng) for row in x]).reshape(x.shape)
    step_var = cfg.sigma_sq_mw / cfg.K
    phase_coeff = cfg.L_km * cfg.gamma * 1e-3 / cfg.K
    out = np.atleast_1d(x).copy()
    for _ in range(cfg.K):
        out = out * np.exp(1j * phase_coeff * np.abs(out) ** 2)
        out = out + two_draw_gaussian(out.shape, step_var, rng)
    return out.reshape(x.shape)


NLPN_DESK = dict(family=NLPN, P_dbm=0.0, gamma=1.27, L_km=5000.0, K=50)
ELIDE_SYMBOLS = 256 * 1024 // 16  # complex128 symbols from which NumPy elides temporaries
WHOLE = CAP // (2 * 50)  # the widest use whose K = 50 steps are one draw


# Shapes on both sides of the draw cap at K = 50: all steps in one draw (1,
# 64, 8x8, a stack of 8 uses of 8, and WHOLE), one step per draw (WHOLE +
# 1); 23x64 is a stack of two full row groups and a partial one. Then a 0-d
# use, one full row group (10x64), the two sides of NumPy's temporary
# elision, where the operand order of the step's complex product changes,
# the two sides of the size from which the recursion steps on a helper
# thread, and a stack of two uses that each take the helper.
@pytest.mark.parametrize(
    "shape",
    [
        (1,), (64,), (8, 8), (WHOLE,), (WHOLE + 1,), (23, 64), (), (10, 64),
        (ELIDE_SYMBOLS - 1,), (ELIDE_SYMBOLS,), (PIPE - 1,), (PIPE,), (2, PIPE),
    ],
)
@pytest.mark.parametrize("sigma_sq_dbm", [-21.3, -np.inf])
def test_nlpn_blocked_draw_matches_per_step_recursion(shape, sigma_sq_dbm):
    cfg = ChannelConfig(sigma_sq_dbm=sigma_sq_dbm, **NLPN_DESK)
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


def test_pipeline_cases_draw_one_step_per_draw():
    """The helper thread is taken only where each draw is one step's noise:
    a piped use is too wide to draw its K = 50 steps at once."""
    assert 2 * 50 * PIPE > CAP


def test_width_cases_straddle_the_draw_cap():
    assert 2 * 50 * WHOLE <= CAP < 2 * 50 * (WHOLE + 1)
    assert WHOLE == 655


@pytest.mark.parametrize("shape", [(), (1,), (64,), (WHOLE + 1,), (PIPE,)])
def test_a_single_use_steps_in_buffers_of_its_own_shape(monkeypatch, shape):
    """A 0-d or 1-d use reaches the recursion as it is: a 1-d use in 1-d
    buffers, whether drawn whole, one step per draw or piped."""
    seen = []

    def steps(x, cfg):
        seen.append(x.shape)
        return real_steps(x, cfg)

    real_steps = channels._nlpn_steps
    monkeypatch.setattr(channels, "_nlpn_steps", steps)
    nlpn(np.full(shape, 0.5 + 0.5j), ChannelConfig(sigma_sq_dbm=-21.3, **NLPN_DESK), np.random.default_rng(4))
    assert seen == [shape]


def _fail_on_first_block(real_steps):
    """Step kernels that fail on their first block, after waiting long
    enough for the caller to draw the next block and block on its put."""

    def steps(x, cfg):
        out, _ = real_steps(x, cfg)

        def step(block):
            time.sleep(0.2)
            raise RuntimeError("step kernel failed")

        return out, step

    return steps


def _fail_on_third_draw(real_parts):
    calls = []

    def parts(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise FloatingPointError("draw failed")
        return real_parts(*args, **kwargs)

    return parts


@pytest.mark.parametrize("exit_kind", ["return", "consumer-error", "producer-error"])
def test_piped_call_leaves_no_thread_behind(monkeypatch, exit_kind):
    """A call that steps on a helper thread joins it on every exit, and an
    error on either side reaches the caller: a step error on the helper
    (consumer) or a draw error on the caller (producer)."""
    cfg = ChannelConfig(sigma_sq_dbm=-21.3, **NLPN_DESK)
    x = np.full(PIPE, 0.5 + 0.5j)
    args = x, cfg, np.random.default_rng(3)
    before = threading.active_count()
    if exit_kind == "return":
        assert bounded_call(nlpn, *args).shape == x.shape
    elif exit_kind == "consumer-error":
        monkeypatch.setattr(channels, "_nlpn_steps", _fail_on_first_block(channels._nlpn_steps))
        with pytest.raises(RuntimeError, match="step kernel failed"):
            bounded_call(nlpn, *args)
    else:
        monkeypatch.setattr(channels, "_gaussian_parts", _fail_on_third_draw(_gaussian_parts))
        with pytest.raises(FloatingPointError, match="draw failed"):
            bounded_call(nlpn, *args)
    assert threading.active_count() == before


class _LingeringQueue(queue.Queue):
    """A queue whose get hands out the stop sentinel 0.2 s late, so a
    helper left unjoined is still alive when the call returns."""

    def get(self, *args, **kwargs):
        item = super().get(*args, **kwargs)
        if item is None:
            time.sleep(0.2)
        return item


def test_fold_behind_joins_its_helper(monkeypatch):
    monkeypatch.setattr(channels.queue, "Queue", _LingeringQueue)
    folded = []
    before = threading.active_count()
    bounded_call(channels._fold_behind, folded.append, range(3))
    assert folded == [0, 1, 2]
    assert threading.active_count() == before


@pytest.mark.parametrize("shape", [(), (1,), (64,), (10, 64), (ELIDE_SYMBOLS - 1,), (ELIDE_SYMBOLS,)])
def test_nlpn_multi_radian_steps_match_per_step_recursion(shape):
    """Symbols of 25 to 64 mW, so every step turns them by 3 to 8 radians
    and cos/sin see several periods."""
    cfg = ChannelConfig(sigma_sq_dbm=-10.0, **NLPN_DESK)
    src = np.random.default_rng(20)
    x = src.uniform(5.0, 8.0, shape) * np.exp(2j * np.pi * src.uniform(size=shape))
    rng, ref_rng = np.random.default_rng(21), np.random.default_rng(21)
    y = nlpn(x, cfg, rng)
    assert y.tobytes() == nlpn_per_step(x, cfg, ref_rng).tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_cos_sin_equal_complex_exp_of_imaginary_argument():
    """The recursion builds exp(1j*theta) from np.cos and np.sin; the bits
    match np.exp on this NumPy build, which the byte tests above rely on."""
    theta = np.random.default_rng(22).uniform(0.0, 60.0, 200_000)
    rot = np.empty(theta.shape, dtype=np.complex128)
    np.cos(theta, out=rot.real)
    np.sin(theta, out=rot.imag)
    assert rot.tobytes() == np.exp(1j * theta).tobytes()


def stack_case(family, sigma_sq_dbm, n, width):
    """A (n, width) channel input and its configured channel."""
    cfg = ChannelConfig(family=family, sigma_sq_dbm=sigma_sq_dbm, P_dbm=-3.0, gamma=1.27, L_km=5000.0, K=50)
    src = np.random.default_rng(16)
    return 0.4 * (src.normal(size=(n, width)) + 1j * src.normal(size=(n, width))), cfg


# At K = 50 a row of 64 takes 6,400 normals, so the row group is 10 rows of
# 64; rows of 37 symbols fit 17 to a group, rows of WHOLE one to a group; a
# row of 700 (70,000 normals) is wider than the cap and draws one step per
# draw.
GROUP_OF_64 = CAP // (2 * 50 * 64)
WIDE = 700


@pytest.mark.parametrize(
    "n, width",
    [(1, 64), (GROUP_OF_64, 64), (30, 64), (23, 64), (19, 37), (3, WHOLE), (3, WIDE), (0, 64)],
    ids=["one-row", "one-group", "three-groups", "partial-group", "odd-width", "row-per-group", "wider-than-cap", "empty"],
)
@pytest.mark.parametrize("family", [AWGN, NLPN])
@pytest.mark.parametrize("sigma_sq_dbm", [-21.3, -np.inf])
def test_stacked_call_equals_sequential_calls(sigma_sq_dbm, family, n, width):
    """Row i of a stacked call gets exactly what a call on x[i] gets after
    calls on x[0..i-1], and the generator ends in the same state."""
    x, cfg = stack_case(family, sigma_sq_dbm, n, width)
    rng, ref_rng = np.random.default_rng(17), np.random.default_rng(17)
    start_state = rng.bit_generator.state
    y = propagate(x, cfg, rng)
    expect = np.array([propagate(row, cfg, ref_rng) for row in x]).reshape(x.shape)
    assert y.shape == x.shape and y.dtype == np.complex128
    assert y.tobytes() == expect.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    if sigma_sq_dbm == -np.inf:
        assert rng.bit_generator.state == start_state  # the noiseless path draws nothing


def test_stack_cases_straddle_the_row_group_cap():
    assert GROUP_OF_64 == 10 and 23 % GROUP_OF_64 != 0
    assert CAP // (2 * 50 * WHOLE) == 1
    assert 2 * 50 * WIDE > CAP


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
    for p_dbm in (4000.0, -4000.0):
        with pytest.raises(ValueError, match="P_dbm must give a positive, finite power in mW"):
            ChannelConfig(family=AWGN, sigma_sq_dbm=0.0, P_dbm=p_dbm)
    with pytest.raises(ValueError, match="sigma_sq_dbm must give a finite power in mW"):
        ChannelConfig(family=AWGN, sigma_sq_dbm=4000.0, P_dbm=0.0)
    # a noise power that underflows to 0 mW is a noiseless channel, as -inf dBm is
    assert ChannelConfig(family=AWGN, sigma_sq_dbm=-4000.0, P_dbm=0.0).sigma_sq_mw == 0.0
    with pytest.raises(ValueError):
        ChannelConfig(family=NLPN, sigma_sq_dbm=0.0, P_dbm=0.0, gamma=1.0, L_km=0.0)
    with pytest.raises(ValueError):
        ChannelConfig(
            family=NLPN, sigma_sq_dbm=0.0, P_dbm=0.0, gamma=1.0, L_km=10.0, K=0
        )


def test_bsc_flip_rate_and_identity():
    rng = np.random.default_rng(13)
    cfg = QuantizerConfig(2)
    codes = rng.integers(0, cfg.num_levels, size=200_000)
    noisy = bsc(codes, cfg.q_bits, 0.1, rng)
    assert np.mean(indices_to_bits(noisy, cfg) != indices_to_bits(codes, cfg)) == pytest.approx(0.1, rel=0.03)
    clean = bsc(codes, cfg.q_bits, 0.0, rng)
    np.testing.assert_array_equal(clean, codes)
    assert clean is not codes


def test_bsc_draws_at_zero_flip_prob_and_keeps_the_code_dtype():
    """One uniform per bit, MSB first, whatever the flip probability."""
    codes = np.array([0, 5, 7, 2], dtype=np.uint8)
    rng, twin = np.random.default_rng(14), np.random.default_rng(14)
    for p in (0.0, 0.3, 0.5):
        received = bsc(codes, 3, p, rng)
        flips = twin.random((4, 3)) < p
        assert received.dtype == np.uint8
        np.testing.assert_array_equal(received, codes ^ (flips @ np.array([4, 2, 1])))
    assert rng.bit_generator.state == twin.bit_generator.state


def test_bsc_flip_prob_range():
    with pytest.raises(ValueError):
        BscConfig(flip_prob=0.6)
    with pytest.raises(ValueError):
        BscConfig(flip_prob=-0.1)
    BscConfig(flip_prob=0.5)  # boundary is legal
