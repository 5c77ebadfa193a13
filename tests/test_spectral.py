import numpy as np
import pytest

from cwsep.filterbank import SubbandSignal
from cwsep.spectral import (
    ComplexSpectrogram,
    from_magphase,
    istft,
    stft,
    stft_streams,
    to_magphase,
)

BAND_RATE = 11025


def subband_noise(seconds=2.0, channels=2, bands=4, seed=0, amp=0.1, dtype=np.float64):
    rng = np.random.default_rng(seed)
    n = int(seconds * BAND_RATE)
    return SubbandSignal(
        (amp * rng.standard_normal((channels, bands, n))).astype(dtype), 44100
    )


class TestStft:
    def test_zero_signal_shape(self):
        sb = SubbandSignal(np.zeros((2, 4, 11025)), 44100)
        spec = stft(sb)
        expected_frames = 11025 // 110 + 1
        assert spec.data.shape == (8, expected_frames, 257)
        assert not spec.data.any()

    def test_frame_count_formula(self):
        n = 23456
        spec = stft_streams(np.zeros((1, n)))
        # padded by 256 each side, window 512, hop 110
        assert spec.num_frames == (n + 512 - 512) // 110 + 1

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            stft_streams(np.zeros((1, 100)))

    def test_sine_peak_bin(self):
        k = 32
        freq = k * BAND_RATE / 512
        n = 5 * 512
        t = np.arange(n) / BAND_RATE
        x = np.sin(2 * np.pi * freq * t)
        spec = stft_streams(x[None, :])
        mags = np.abs(spec.data[0])
        interior = range(6, spec.num_frames - 6)
        for frame in interior:
            assert np.argmax(mags[frame]) == k

    def test_parseval(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(8000)
        spec = stft_streams(x[None, :])
        spectral_energy = 0.0
        d = spec.data[0]
        # one-sided: double all interior bins
        weights = np.ones(257)
        weights[1:256] = 2.0
        spectral_energy = np.sum(weights[None, :] * np.abs(d) ** 2) / 512

        # oracle: window-weighted energy straight from the framing definition
        win = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(512) / 512)
        padded = np.r_[np.zeros(256), x, np.zeros(256)]
        frame_energy = 0.0
        for tframe in range(spec.num_frames):
            seg = padded[tframe * 110 : tframe * 110 + 512] * win
            frame_energy += np.sum(seg**2)
        assert abs(spectral_energy - frame_energy) <= 0.01 * frame_energy


class TestIstft:
    def test_round_trip_interior(self):
        sb = subband_noise(seconds=10.0)
        n = sb.samples.shape[2]
        spec = stft(sb)
        y = istft(spec, n)
        err = np.abs(y - sb.stacked())
        assert np.max(err[:, 512:-512]) <= 1e-6

    def test_round_trip_interior_f32(self):
        sb = subband_noise(seconds=10.0, dtype=np.float32)
        n = sb.samples.shape[2]
        spec = stft(sb)
        assert spec.data.dtype == np.complex64
        y = istft(spec, n)
        assert y.dtype == np.float32
        err = np.abs(y.astype(np.float64) - sb.stacked().astype(np.float64))
        assert np.max(err[:, 512:-512]) <= 1e-6

    def test_zero_spectrogram(self):
        spec = ComplexSpectrogram(np.zeros((2, 20, 257), dtype=complex), 512, 110, 512)
        y = istft(spec, 1000)
        assert y.shape == (2, 1000)
        assert not y.any()

    def test_linearity(self):
        a = stft(subband_noise(seed=1))
        b = stft(subband_noise(seed=2))
        ab = ComplexSpectrogram(a.data + b.data, 512, 110, 512)
        n = 2000
        lhs = istft(ab, n)
        rhs = istft(a, n) + istft(b, n)
        assert np.max(np.abs(lhs - rhs)) <= 1e-6

    def test_overlong_request_rejected(self):
        spec = ComplexSpectrogram(np.zeros((1, 5, 257), dtype=complex), 512, 110, 512)
        with pytest.raises(ValueError):
            istft(spec, 10_000)


class TestMagPhase:
    def test_three_four_five(self):
        spec = ComplexSpectrogram(np.full((1, 1, 257), 3 + 4j), 512, 110, 512)
        mp = to_magphase(spec)
        assert np.allclose(mp.magnitude, 5.0)
        assert np.allclose(mp.phase, 0.6 + 0.8j)

    def test_degenerate_phase_convention(self):
        spec = ComplexSpectrogram(np.zeros((1, 1, 257), dtype=complex), 512, 110, 512)
        mp = to_magphase(spec)
        assert np.all(mp.magnitude == 0)
        assert np.all(mp.phase == 1)

    def test_round_trip(self):
        rng = np.random.default_rng(6)
        data = rng.standard_normal((3, 8, 257)) + 1j * rng.standard_normal((3, 8, 257))
        spec = ComplexSpectrogram(data, 512, 110, 512)
        back = from_magphase(to_magphase(spec))
        assert np.max(np.abs(back.data - data)) <= 1e-6

    def test_unit_phase_invariant(self):
        rng = np.random.default_rng(7)
        data = rng.standard_normal((2, 4, 257)) + 1j * rng.standard_normal((2, 4, 257))
        mp = to_magphase(ComplexSpectrogram(data, 512, 110, 512))
        norm = np.abs(mp.phase) ** 2
        assert np.max(np.abs(norm[mp.magnitude > 0] - 1.0)) <= 1e-6


def test_bin_count_invariant():
    with pytest.raises(ValueError):
        ComplexSpectrogram(np.zeros((1, 4, 200), dtype=complex), 512, 110, 512)
    with pytest.raises(ValueError):
        ComplexSpectrogram(np.full((1, 4, 257), np.nan + 0j), 512, 110, 512)
