"""Channel model checks: cascades, alignment, circulant algebra, noise."""

import warnings

import numpy as np
import pytest

from gasmld.channel import (
    RisChannel,
    block_from_bits,
    circulant_matrix,
    first_column,
    demodulate,
    generate_channel,
    modulate,
    ris_align,
    snr_db_to_sigma2,
    transmit,
)


def test_scalar_cascade_alignment():
    # single element, single taps: cascade = product, phase cancels its angle
    h_bi = np.array([[2.0 * np.exp(1j * np.pi / 4)]])
    h_iu = np.array([[0.5 * np.exp(-1j * np.pi / 4)]])
    cascade = h_bi[0] * h_iu[0]
    phases = ris_align(cascade[None, :])
    h_eff = (cascade[None, :] * phases[:, None]).sum(axis=0)
    assert h_eff[0] == pytest.approx(1.0, abs=1e-12)


def test_generated_channel_invariants():
    rng = np.random.default_rng(0)
    ch = generate_channel(R=4, L_bi=2, L_iu=2, rng=rng)
    assert ch.h_eff.shape == (3,)
    assert np.allclose(np.abs(ch.phases), 1.0, atol=1e-12)
    # reconstruct h_eff from parts
    cascades = np.array([np.convolve(ch.h_bi[r], ch.h_iu[r]) for r in range(4)])
    rebuilt = (cascades * ch.phases[:, None]).sum(axis=0)
    assert np.allclose(rebuilt, ch.h_eff, atol=1e-12)
    # aligned first tap: real, non-negative, equal to the magnitude sum
    assert abs(np.angle(ch.h_eff[0])) < 1e-9
    assert ch.h_eff[0].real == pytest.approx(np.abs(cascades[:, 0]).sum(), abs=1e-9)


def test_alignment_is_optimal_for_first_tap():
    rng = np.random.default_rng(1)
    ch = generate_channel(R=6, L_bi=2, L_iu=3, rng=rng)
    cascades = np.array([np.convolve(ch.h_bi[r], ch.h_iu[r]) for r in range(6)])
    aligned = np.abs(ch.h_eff[0])
    for _ in range(200):
        trial = np.exp(1j * rng.uniform(0, 2 * np.pi, size=6))
        assert np.abs((cascades[:, 0] * trial).sum()) <= aligned + 1e-9


def test_ris_align_zero_first_tap():
    cascades = np.array([[0.0 + 0.0j, 1.0], [1.0 + 1.0j, 0.0]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        phases = ris_align(cascades)
    assert len(caught) == 1
    assert phases[0] == pytest.approx(1.0)
    assert np.abs(phases[1]) == pytest.approx(1.0)


def test_no_ris_baseline():
    rng = np.random.default_rng(2)
    ch = generate_channel(R=0, L_bi=2, L_iu=2, rng=rng)
    assert ch.R == 0
    assert ch.h_bi.shape == (0, 2)
    assert ch.phases.shape == (0,)
    assert ch.h_eff.shape == (3,)  # same delay spread as the RIS case


def test_link_power_normalisation():
    rng = np.random.default_rng(3)
    draws = 10_000
    p_bi = np.empty(draws)
    p_iu = np.empty(draws)
    direct = np.empty(draws)
    for i in range(draws):
        ch = generate_channel(R=1, L_bi=2, L_iu=3, rng=rng)
        p_bi[i] = np.sum(np.abs(ch.h_bi[0]) ** 2)
        p_iu[i] = np.sum(np.abs(ch.h_iu[0]) ** 2)
        direct[i] = np.sum(np.abs(generate_channel(R=0, L_bi=2, L_iu=3, rng=rng).h_eff) ** 2)
    assert p_bi.mean() == pytest.approx(1.0, rel=0.02)
    assert p_iu.mean() == pytest.approx(1.0, rel=0.02)
    assert direct.mean() == pytest.approx(1.0, rel=0.02)


def test_first_tap_energy_grows_with_elements():
    rng = np.random.default_rng(4)
    draws = 10_000
    means = []
    for R in (1, 2, 4, 8):
        acc = 0.0
        for _ in range(draws):
            ch = generate_channel(R=R, L_bi=2, L_iu=2, rng=rng)
            acc += np.abs(ch.h_eff[0]) ** 2
        means.append(acc / draws)
    assert means[0] < means[1] < means[2] < means[3]


def test_circulant_structure_example():
    h = np.array([1.0 + 1j, 2.0])
    H = circulant_matrix(h, 3)
    expect = np.array(
        [
            [1.0 + 1j, 0.0, 2.0],
            [2.0, 1.0 + 1j, 0.0],
            [0.0, 2.0, 1.0 + 1j],
        ]
    )
    assert np.array_equal(H, expect)


def test_circulant_requires_enough_block_length():
    with pytest.raises(ValueError, match="shorter than the 4-tap response"):
        circulant_matrix(np.ones(4), 3)
    with pytest.raises(ValueError, match="at least one tap"):
        circulant_matrix(np.ones((2, 0)), 3)


def test_circulant_of_a_stack():
    # a (..., L) stack of responses gives the (..., N, N) stack of their circulants
    rng = np.random.default_rng(4)
    h = rng.normal(size=(2, 5, 3)) + 1j * rng.normal(size=(2, 5, 3))
    H = circulant_matrix(h, 4)
    assert H.shape == (2, 5, 4, 4)
    for i, j in np.ndindex(2, 5):
        assert np.array_equal(H[i, j], circulant_matrix(h[i, j], 4))
    assert np.array_equal(first_column(h, 4)[..., 3], np.zeros((2, 5)))
    # each call returns its own array: writing one leaves the next call intact
    H[...] = 0
    assert np.array_equal(circulant_matrix(h, 4)[1, 2], circulant_matrix(h[1, 2], 4))
    assert circulant_matrix(h, 4)[0, 0, 0, 0] == h[0, 0, 0]


def test_circulant_diagonalised_by_dft():
    rng = np.random.default_rng(5)
    h = rng.normal(size=3) + 1j * rng.normal(size=3)
    N = 6
    H = circulant_matrix(h, N)
    F = np.fft.fft(np.eye(N), axis=0)
    lam = np.fft.fft(H[:, 0])
    assert np.allclose(F @ H @ np.linalg.inv(F), np.diag(lam), atol=1e-9)


def test_cyclic_prefix_oracle_equivalence():
    # explicit CP add / linear convolution / CP strip equals the circulant model
    rng = np.random.default_rng(6)
    ch = generate_channel(R=3, L_bi=2, L_iu=2, rng=rng)
    L = ch.h_eff.shape[0]
    N = 5
    H = circulant_matrix(ch.h_eff, N)
    bits = rng.integers(0, 2, size=N)
    x = modulate(bits)
    for L_cp in (L, L + 1):
        x_cp = np.concatenate([x[N - L_cp :], x])
        y_lin = np.convolve(ch.h_eff, x_cp)
        received = y_lin[L_cp : L_cp + N]
        assert np.allclose(received, H @ x, atol=1e-12)


def test_transmit_noiseless_and_noise_stats():
    rng = np.random.default_rng(7)
    H = circulant_matrix(np.array([1.0, 0.5]), 4)
    x = block_from_bits([1, 0, 0, 1])
    assert np.array_equal(x, [1, -1, -1, 1])
    y0 = transmit(x, H, 0.0, rng)
    assert np.array_equal(y0, H @ x)
    sigma2 = 0.8
    draws = 10_000
    noise = np.empty((draws, 4), dtype=complex)
    for i in range(draws):
        noise[i] = transmit(x, H, sigma2, rng) - y0
    assert np.real(noise).var() == pytest.approx(sigma2 / 2, rel=0.03)
    assert np.imag(noise).var() == pytest.approx(sigma2 / 2, rel=0.03)
    assert np.abs(noise.mean()) < 0.02


@pytest.mark.parametrize("sigma2", [np.nan, np.inf, -1.0])
def test_transmit_rejects_a_bad_noise_power(sigma2):
    # NaN fails both sigma2 < 0 and sigma2 > 0, so it passed as noiseless;
    # inf gave NaN symbols
    x = block_from_bits([1, 0])
    with pytest.raises(ValueError, match="sigma2 must be finite and non-negative"):
        transmit(x, np.eye(2, dtype=complex), sigma2, np.random.default_rng(0))


def test_identity_channel_roundtrip():
    rng = np.random.default_rng(8)
    H = np.eye(3, dtype=complex)
    bits = np.array([1, 0, 1])
    y = transmit(block_from_bits(bits), H, 0.0, rng)
    assert np.array_equal(demodulate(y), bits)


def test_modulate_demodulate():
    bits = np.array([0, 1, 1, 0])
    x = modulate(bits)
    assert np.array_equal(x, np.array([-1, 1, 1, -1], dtype=complex))
    assert np.array_equal(demodulate(x), bits)
    # decisions on the real part's sign, with sign(0) -> +1, i.e. bit 1
    assert demodulate(np.array([0.0]))[0] == 1
    assert np.array_equal(demodulate([-0.3, 0.2, 1.0]), [0, 1, 1])
    assert np.array_equal(demodulate(np.array([1 + 5j, -1 + 5j])), [1, 0])


def test_block_validation():
    with pytest.raises(ValueError):
        block_from_bits([0, 2, 1])
    with pytest.raises(ValueError):
        block_from_bits([])
    with pytest.raises(ValueError):
        generate_channel(R=-1, L_bi=2, L_iu=2, rng=np.random.default_rng(0))


@pytest.mark.parametrize("bits", [[0.5, 1.0], np.array([256.0, 1.0]), [np.nan, 1.0]])
def test_block_bits_checked_before_cast(bits):
    # an int8 cast would read each as the valid block [0, 1]
    with pytest.raises(ValueError, match="bits must be 0/1"):
        block_from_bits(bits)


def test_block_accepts_bits_of_any_dtype():
    for bits in ([0.0, 1.0], np.array([False, True]), np.array([0, 1], dtype=np.uint8)):
        assert np.array_equal(block_from_bits(bits), [-1, 1])
    with pytest.raises(ValueError, match="non-empty vector"):
        block_from_bits([[0, 1]])


def test_snr_conversion():
    assert snr_db_to_sigma2(0.0) == pytest.approx(1.0)
    assert snr_db_to_sigma2(10.0) == pytest.approx(0.1)
    assert snr_db_to_sigma2(-5.0) == pytest.approx(10 ** 0.5)
