import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from cwsep import spectral
from cwsep.spectral import stft_streams, to_magphase

from conftest import whole_istft

BAND_RATE = 11025
# frame-block budgets: one frame per block, the default, one block for everything
BLOCK_BYTES = [1, spectral.FRAME_BLOCK_BYTES, 1 << 40]


def reference_istft(spec, out_length):
    """Whole-array weighted overlap-add in frame order: the arithmetic istft must keep."""
    frames = np.fft.irfft(spec, n=512, axis=2)
    win = (0.5 - 0.5 * np.cos(2 * np.pi * np.arange(512) / 512)).astype(frames.dtype)
    frames *= win
    buf_len = 512 + (spec.shape[1] - 1) * 110
    out = np.zeros((spec.shape[0], buf_len), frames.dtype)
    norm = np.zeros(buf_len, frames.dtype)
    for t in range(spec.shape[1]):
        out[:, t * 110 : t * 110 + 512] += frames[:, t]
        norm[t * 110 : t * 110 + 512] += win**2
    out /= np.maximum(norm, 1e-8)
    return out[:, 256 : 256 + out_length]


def subband_noise(seconds=2.0, channels=2, bands=4, seed=0, amp=0.1, dtype=np.float64):
    rng = np.random.default_rng(seed)
    n = int(seconds * BAND_RATE)
    # channel-major [channels * bands, n], the layout separate feeds the STFT
    x = (amp * rng.standard_normal((channels, bands, n))).astype(dtype)
    return x.reshape(channels * bands, n)


class TestStft:
    def test_zero_signal_shape(self):
        spec = stft_streams(np.zeros((8, 11025)))
        expected_frames = 11025 // 110 + 1
        assert spec.shape == (8, expected_frames, 257)
        assert not spec.any()

    def test_frame_count_formula(self):
        n = 23456
        spec = stft_streams(np.zeros((1, n)))
        # padded by 256 each side, window 512, hop 110
        assert spec.shape[1] == (n + 512 - 512) // 110 + 1

    def test_short_signals_round_trip(self):
        # the centred padding gives any length >= 1 a frame to invert
        rng = np.random.default_rng(50)
        for n in (1, 100):
            x = rng.standard_normal((2, n))
            spec = stft_streams(x)
            assert spec.shape == (2, 1, 257)
            np.testing.assert_allclose(whole_istft(spec, n), x, rtol=0, atol=1e-12)

    def test_sine_peak_bin(self):
        k = 32
        freq = k * BAND_RATE / 512
        n = 5 * 512
        t = np.arange(n) / BAND_RATE
        x = np.sin(2 * np.pi * freq * t)
        spec = stft_streams(x[None, :])
        mags = np.abs(spec[0])
        interior = range(6, spec.shape[1] - 6)
        for frame in interior:
            assert np.argmax(mags[frame]) == k

    def test_float64_is_the_unnormalised_rfft_bit_for_bit(self, monkeypatch):
        x = subband_noise(seconds=2.0)
        win = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(512) / 512)
        framed = sliding_window_view(np.pad(x, ((0, 0), (256, 256))), 512, axis=1)[:, ::110]
        oracle = np.fft.rfft(framed * win, axis=2)
        for block_bytes in BLOCK_BYTES:
            monkeypatch.setattr(spectral, "FRAME_BLOCK_BYTES", block_bytes)
            spec = stft_streams(x)
            assert spec.dtype == np.complex128
            assert np.array_equal(spec, oracle)

    def test_float32_runs_in_float32(self):
        # 10 s of 16 band streams at 8 bands (5512.5 Hz): numpy's default
        # rfft ran the float64 loop on the whole framed array and peaked
        # at 6.2x the result's bytes; float32 blocks peak at 1.3x
        x = subband_noise(seconds=5.0, channels=2, bands=8, seed=3, dtype=np.float32)
        tracemalloc.start()
        try:
            spec = stft_streams(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spec.dtype == np.complex64
        assert peak <= 1.5 * spec.nbytes
        ref = stft_streams(x.astype(np.float64))
        assert np.max(np.abs(spec - ref)) <= 1e-6 * np.max(np.abs(ref))

    def test_parseval(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(8000)
        spec = stft_streams(x[None, :])
        spectral_energy = 0.0
        d = spec[0]
        # one-sided: double all interior bins
        weights = np.ones(257)
        weights[1:256] = 2.0
        spectral_energy = np.sum(weights[None, :] * np.abs(d) ** 2) / 512

        # oracle: window-weighted energy straight from the framing definition
        win = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(512) / 512)
        padded = np.r_[np.zeros(256), x, np.zeros(256)]
        frame_energy = 0.0
        for tframe in range(spec.shape[1]):
            seg = padded[tframe * 110 : tframe * 110 + 512] * win
            frame_energy += np.sum(seg**2)
        assert abs(spectral_energy - frame_energy) <= 0.01 * frame_energy


class TestIstft:
    def test_round_trip_interior(self):
        sb = subband_noise(seconds=10.0)
        n = sb.shape[1]
        spec = stft_streams(sb)
        y = whole_istft(spec, n)
        err = np.abs(y - sb)
        assert np.max(err[:, 512:-512]) <= 1e-6

    def test_round_trip_interior_f32(self):
        sb = subband_noise(seconds=10.0, dtype=np.float32)
        n = sb.shape[1]
        spec = stft_streams(sb)
        assert spec.dtype == np.complex64
        y = whole_istft(spec, n)
        assert y.dtype == np.float32
        err = np.abs(y.astype(np.float64) - sb.astype(np.float64))
        assert np.max(err[:, 512:-512]) <= 1e-6

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_blocks_keep_the_whole_array_arithmetic(self, monkeypatch, dtype):
        x = subband_noise(seconds=3.0, seed=8)
        spec = stft_streams(x).astype(dtype)
        oracle = reference_istft(spec, x.shape[1])
        for block_bytes in BLOCK_BYTES:
            monkeypatch.setattr(spectral, "FRAME_BLOCK_BYTES", block_bytes)
            y = whole_istft(spec, x.shape[1])
            assert y.dtype == oracle.dtype
            assert np.array_equal(y, oracle)

    def test_inverse_takes_every_frame_once(self):
        spec = np.zeros((2, 20, 257), dtype=np.complex64)
        out = np.empty((2, 19 * 110), np.float32)
        expected = r"frames 0:20 must be \[2, 20, 257\], got "
        with pytest.raises(ValueError, match=expected + r"\(1, 20, 257\)"):
            spectral.istft(lambda lo, hi: spec[:1, lo:hi], out)
        with pytest.raises(ValueError, match=expected + r"\(2, 15, 257\)"):
            spectral.istft(lambda lo, hi: spec[:, lo : min(hi, 15)], out)

    @pytest.mark.parametrize("block_bytes", BLOCK_BYTES)
    def test_blocks_are_asked_for_in_order(self, monkeypatch, block_bytes):
        monkeypatch.setattr(spectral, "FRAME_BLOCK_BYTES", block_bytes)
        spec = stft_streams(subband_noise(seconds=1.0, seed=11, dtype=np.float32))
        asked = []

        def block(lo, hi):
            asked.append((lo, hi))
            return spec[:, lo:hi]

        out = np.empty((spec.shape[0], 11025), np.float32)
        assert spectral.istft(block, out) is out
        # consecutive blocks from frame 0 to the last, each as large as the budget allows
        frames = spec.shape[1]
        step = max(1, min(frames, block_bytes // (spec.shape[0] * 512 * 4)))
        assert asked == [(lo, min(lo + step, frames)) for lo in range(0, frames, step)]
        assert np.array_equal(out, reference_istft(spec, 11025))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_window_sum_is_the_frame_loop(self, dtype):
        win_sq = (0.5 - 0.5 * np.cos(2 * np.pi * np.arange(512) / 512)).astype(dtype) ** 2
        for frames in [*range(1, 40), 502, 1003, 2005, 6013]:
            loop = np.zeros(512 + (frames - 1) * 110, dtype)
            for t in range(frames):
                loop[t * 110 : t * 110 + 512] += win_sq
            assert np.array_equal(spectral._window_sum(frames, dtype), loop)

    def test_zero_spectrogram(self):
        spec = np.zeros((2, 20, 257), dtype=complex)
        y = whole_istft(spec, 1000)
        assert y.shape == (2, 1000)
        assert not y.any()

    def test_linearity(self):
        a = stft_streams(subband_noise(seed=1))
        b = stft_streams(subband_noise(seed=2))
        ab = a + b
        n = 2000
        lhs = whole_istft(ab, n)
        rhs = whole_istft(a, n) + whole_istft(b, n)
        assert np.max(np.abs(lhs - rhs)) <= 1e-6

    def test_overlong_request_rejected(self):
        spec = np.zeros((1, 5, 257), dtype=complex)
        # 10000 samples are 91 frames
        expected = r"frames 0:91 must be \[1, 91, 257\], got \(1, 5, 257\)"
        with pytest.raises(ValueError, match=expected):
            whole_istft(spec, 10_000)


class TestMagPhase:
    def test_three_four_five(self):
        spec = np.full((1, 1, 257), 3 + 4j)
        mp = to_magphase(spec)
        assert np.allclose(mp.magnitude, 5.0)
        assert np.allclose(mp.phase, 0.6 + 0.8j)

    def test_degenerate_phase_convention(self):
        spec = np.zeros((1, 1, 257), dtype=complex)
        mp = to_magphase(spec)
        assert np.all(mp.magnitude == 0)
        assert np.all(mp.phase == 1)

    def test_round_trip(self):
        rng = np.random.default_rng(6)
        data = rng.standard_normal((3, 8, 257)) + 1j * rng.standard_normal((3, 8, 257))
        mp = to_magphase(data)
        assert np.max(np.abs(mp.magnitude * mp.phase - data)) <= 1e-6

    def test_unit_phase_invariant(self):
        rng = np.random.default_rng(7)
        data = rng.standard_normal((2, 4, 257)) + 1j * rng.standard_normal((2, 4, 257))
        mp = to_magphase(data)
        norm = np.abs(mp.phase) ** 2
        assert np.max(np.abs(norm[mp.magnitude > 0] - 1.0)) <= 1e-6

    def test_phase_is_the_quotient_bit_for_bit(self):
        spec = stft_streams(subband_noise(seconds=2.0, seed=9, dtype=np.float32))
        mag = np.abs(spec)
        oracle = np.ones_like(spec)
        np.divide(spec, mag, out=oracle, where=mag > 0)
        mp = to_magphase(spec)
        assert np.array_equal(mp.magnitude, mag)
        assert np.array_equal(mp.phase, oracle)

    def test_silent_frames_do_not_warn(self):
        x = subband_noise(seconds=2.0, seed=10, dtype=np.float32)
        x[:, :3000] = 0
        spec = stft_streams(x)
        silent = np.abs(spec) == 0
        assert silent[:, :20].all()
        spec[0, 0, 0] = 1e-39j  # subnormal: 1 / |spec| overflows float32
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mp = to_magphase(spec)
        assert np.array_equal(mp.phase[silent], np.ones(np.count_nonzero(silent), np.complex64))
        assert np.all(np.isfinite(mp.phase))


def test_bin_count_invariant():
    with pytest.raises(ValueError):
        whole_istft(np.zeros((1, 4, 200), dtype=complex), 100)
