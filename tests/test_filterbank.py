import json
from dataclasses import fields

import numpy as np
import pytest

from cwsep import IdentityModel, separate
from cwsep import filterbank
from cwsep.filterbank import (
    SUPPORTED_BANDS,
    FilterBank,
    _CascadeObjective,
    _modulate,
    analysis,
    design_filterbank,
    measure_reconstruction,
    synthesis,
)
from cwsep.wave_io import Waveform

from conftest import noise_waveform


def decimate(x, factor: int):
    """Keep every factor-th sample starting at phase 0."""
    if factor < 1:
        raise ValueError(f"decimation factor must be >= 1, got {factor}")
    return np.asarray(x)[::factor]


def zero_insert(x, factor: int):
    """Insert factor-1 zeros after each sample."""
    if factor < 1:
        raise ValueError(f"upsampling factor must be >= 1, got {factor}")
    x = np.asarray(x)
    out = np.zeros(len(x) * factor, dtype=x.dtype)
    out[::factor] = x
    return out


def direct_conv(x, h):
    """Hand-rolled linear convolution, truncated to len(x) (oracle)."""
    out = np.zeros(len(x))
    for n in range(len(x)):
        for m in range(len(h)):
            if 0 <= n - m < len(x):
                out[n] += x[n - m] * h[m]
    return out


def loop_analysis(x, h, num_bands):
    """Per-channel, per-band filter then decimate (oracle for analysis)."""
    return np.array([[decimate(direct_conv(xc, hj), num_bands) for hj in h] for xc in x])


def loop_synthesis(sb, g, num_bands):
    """Per-channel, per-band zero-insert then filter (oracle for synthesis)."""
    out = np.zeros((sb.shape[0], num_bands * sb.shape[2]))
    for c in range(sb.shape[0]):
        for j in range(num_bands):
            out[c] += direct_conv(zero_insert(sb[c, j], num_bands), g[j])
    return out


def kaiser_sinc(num_bands, cutoffs):
    """The design's start family: one TAPS-tap Kaiser sinc per cutoff (rad/sample)."""
    n = np.arange(filterbank.TAPS) - (filterbank.TAPS - 1) / 2
    window = np.kaiser(filterbank.TAPS, filterbank.KAISER_BETA[num_bands])
    return np.sin(np.multiply.outer(cutoffs, n)) / (np.pi * n) * window


def pqmf_leak(h, num_bands):
    """Lin-Vaidyanathan criterion: max |r[2Nk]| / r[0] over k >= 1, r the autocorrelation."""
    taps = h.shape[-1]
    lags = range(0, taps, 2 * num_bands)
    r = np.stack([np.sum(h[..., : taps - m] * h[..., m:], axis=-1) for m in lags], axis=-1)
    return np.max(np.abs(r[..., 1:]), axis=-1) / r[..., 0]


def start_cutoff(num_bands):
    """The cutoff of the design's start, from its centre tap window * sin(cutoff / 2) / (pi / 2)."""
    mid = filterbank.TAPS // 2
    p = filterbank._prototype_init(num_bands)
    window = np.kaiser(filterbank.TAPS, filterbank.KAISER_BETA[num_bands])
    return 2 * np.arcsin(np.pi / 2 * p[mid] / window[mid])


def assert_matches_oracle(got, ref, dtype):
    err = np.max(np.abs(got - ref))
    if dtype == np.float64:
        assert err <= 1e-12
    else:
        assert err <= 1e-6 * np.max(np.abs(ref))


class TestDecimateZeroInsert:
    def test_decimate_phase0(self):
        a = np.arange(8.0)
        assert np.array_equal(decimate(a, 4), [0.0, 4.0])

    def test_decimate_identity(self):
        a = np.arange(5.0)
        assert np.array_equal(decimate(a, 1), a)

    def test_decimate_ceil_length(self):
        assert np.array_equal(decimate(np.array([1.0, 2, 3, 4, 5]), 2), [1.0, 3, 5])

    def test_zero_insert(self):
        assert np.array_equal(zero_insert(np.array([3.0, 7.0]), 4),
                              [3, 0, 0, 0, 7, 0, 0, 0])

    def test_zero_insert_identity(self):
        a = np.arange(6.0)
        assert np.array_equal(zero_insert(a, 1), a)

    def test_decimate_inverts_zero_insert(self):
        a = np.arange(9.0)
        assert np.array_equal(decimate(zero_insert(a, 4), 4), a)

    def test_zero_insert_after_decimate_is_comb(self):
        a = np.arange(8.0)
        comb = zero_insert(decimate(a, 4), 4)
        expected = a * (np.arange(8) % 4 == 0)
        assert np.array_equal(comb, expected)

    def test_zero_factor_rejected(self):
        with pytest.raises(ValueError):
            decimate(np.zeros(4), 0)
        with pytest.raises(ValueError):
            zero_insert(np.zeros(4), 0)


class TestDesign:
    def test_unsupported_band_count(self):
        with pytest.raises(ValueError):
            design_filterbank(3)

    def test_float_band_count_is_named(self):
        # 2.0 == 2 passed the check and failed later with an IndexError
        with pytest.raises(ValueError, match="num_bands must be one of"):
            design_filterbank(2.0)

    def test_deterministic(self):
        a = design_filterbank(2)
        b = design_filterbank(2)
        assert np.array_equal(a.analysis, b.analysis)
        assert np.array_equal(a.synthesis, b.synthesis)

    def test_objective_matches_cascade_oracle(self):
        # the design-time index-map responses must equal the literal
        # conv/decimate/zero_insert/conv cascade on phase impulses
        num_bands = 2
        obj = _CascadeObjective(num_bands)
        rng = np.random.default_rng(5)
        p = rng.standard_normal(filterbank.TAPS)
        h, g = _modulate(p, num_bands)
        resp = obj.responses(p)
        L = resp.shape[1]
        for ph in range(num_bands):
            x = np.zeros(L)
            x[ph] = 1.0
            y = np.zeros(L)
            for j in range(num_bands):
                sb = decimate(direct_conv(x, h[j]), num_bands)
                y += direct_conv(zero_insert(sb, num_bands), g[j])[:L]
            assert np.allclose(resp[ph], y, atol=1e-12)

    @pytest.mark.parametrize("num_bands", [2, 4, 8])
    def test_start_minimises_the_pqmf_criterion(self, num_bands):
        # the start is a Kaiser sinc whose autocorrelation leak is no more
        # than at any cutoff of a dense grid over [pi/(4N), 3pi/(4N)]
        cutoff = start_cutoff(num_bands)
        p = filterbank._prototype_init(num_bands)
        assert np.max(np.abs(p - kaiser_sinc(num_bands, cutoff))) <= 1e-12
        grid = np.linspace(np.pi / (4 * num_bands), 3 * np.pi / (4 * num_bands), 4001)
        on_grid = pqmf_leak(kaiser_sinc(num_bands, grid), num_bands)
        assert pqmf_leak(p, num_bands) <= np.min(on_grid)

    def test_four_band_start_is_the_published_pqmf(self):
        # Multi-band MelGAN's 4-band PQMF (arXiv:2005.05106): cutoff 0.142 pi, beta 9
        assert filterbank.KAISER_BETA[4] == 9.0
        assert abs(start_cutoff(4) / np.pi - 0.142) <= 0.001

    def test_design_budget(self, monkeypatch):
        # the three banks take 270 cascade evaluations, one per trial prototype
        calls = 0
        evaluate = _CascadeObjective.__call__

        def counting(self, p):
            nonlocal calls
            calls += 1
            return evaluate(self, p)

        monkeypatch.setattr(_CascadeObjective, "__call__", counting)
        for num_bands in SUPPORTED_BANDS:
            design_filterbank(num_bands)
        assert calls <= 300

    @pytest.mark.parametrize("num_bands", [2, 4, 8])
    def test_gradient_matches_central_differences(self, num_bands):
        taps = filterbank.TAPS
        obj = _CascadeObjective(num_bands)
        p = 0.1 * np.random.default_rng(6).standard_normal(taps)
        fd = 1e-6
        numeric = np.empty(taps)
        for i in range(taps):
            q = p.copy()
            q[i] = p[i] + fd
            ep, _ = obj(q)
            q[i] = p[i] - fd
            em, _ = obj(q)
            numeric[i] = (ep - em) / (2 * fd)
        _, exact = obj(p)
        assert np.linalg.norm(exact - numeric) <= 1e-6 * np.linalg.norm(numeric)

    @pytest.mark.parametrize("num_bands", [2, 4, 8])
    def test_bands_stay_selective(self, request, num_bands):
        # every analysis filter, normalised to its own peak, is >= 48 dB down
        # more than pi/(2N) outside its band [j pi/N, (j+1) pi/N]. The designed
        # banks give 65.5 / 74.5 / 51.3 dB (2 / 4 / 8 bands); Gauss-Newton
        # designs that drive the cascade error to 1e-30 give 28.4 / 31.6 / 24.3
        fb = request.getfixturevalue(f"fb{num_bands}")
        w = np.linspace(0, np.pi, 4097)
        mag = np.abs(np.fft.rfft(fb.analysis, 8192))
        mag /= mag.max(axis=1, keepdims=True)
        j = np.arange(num_bands)[:, None]
        margin = np.pi / (2 * num_bands)
        stop = (w < j * np.pi / num_bands - margin) | (w > (j + 1) * np.pi / num_bands + margin)
        assert 20 * np.log10(np.max(mag[stop])) <= -48.0

    @pytest.mark.parametrize("num_bands", [2, 4, 8])
    def test_reconstruction_snr(self, request, noise10, num_bands):
        # the designed banks give 80.7 / 77.7 / 61.8 dB on 10 s of noise
        fb = request.getfixturevalue(f"fb{num_bands}")
        floor_db = {2: 77.0, 4: 74.0, 8: 58.0}[num_bands]
        assert measure_reconstruction(fb, noise10).snr_db >= floor_db


class TestAnalysisSynthesis:
    def test_zero_signal(self, fb4):
        sb = analysis(Waveform(np.zeros((2, 1000)), 44100), fb4)
        assert sb.shape == (2, 4, 250)
        assert not sb.any()

    def test_linearity(self, fb4):
        x = noise_waveform(0.1)
        a = analysis(x, fb4)
        b = analysis(Waveform(2.5 * x.samples, 44100), fb4)
        assert np.allclose(b, 2.5 * a, atol=1e-12)

    def test_impulse_equals_decimated_filter(self, fb4):
        n = 512
        x = np.zeros((1, n))
        x[0, 0] = 1.0
        sb = analysis(Waveform(x, 44100), fb4)
        for j in range(4):
            padded = np.zeros(n)
            padded[:64] = fb4.analysis[j]
            oracle = decimate(direct_conv(np.r_[1.0, np.zeros(n - 1)], fb4.analysis[j]), 4)
            assert np.allclose(sb[0, j], oracle, atol=1e-12)
            assert np.allclose(sb[0, j], decimate(padded, 4), atol=1e-12)

    @pytest.mark.parametrize("num_bands", [2, 4, 8])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    # 1499 runs in blocks of 16 outputs: several blocks, the last one
    # partial, and at 2 bands the first two blocks reach before the start
    @pytest.mark.parametrize(
        "n, block", [(1001, None), (1003, None), (1499, 16)], ids=["1001", "1003", "1499"]
    )
    def test_matches_loop_cascade(self, request, monkeypatch, num_bands, dtype, n, block):
        if block is not None:
            monkeypatch.setattr(filterbank, "_BLOCK", block)
        fb = request.getfixturevalue(f"fb{num_bands}")
        x = np.random.default_rng(n).standard_normal((2, n)).astype(dtype)
        sub_len = -(-n // num_bands)

        sb = analysis(Waveform(x, 44100), fb)
        assert sb.shape == (2, num_bands, sub_len)
        assert sb.dtype == dtype
        h = fb.analysis.astype(dtype).astype(np.float64)
        assert_matches_oracle(sb, loop_analysis(x.astype(np.float64), h, num_bands), dtype)

        y = synthesis(sb, fb, 44100).samples
        assert y.shape == (2, num_bands * sub_len)
        assert y.dtype == dtype
        g = fb.synthesis.astype(dtype).astype(np.float64)
        assert_matches_oracle(y, loop_synthesis(sb.astype(np.float64), g, num_bands), dtype)

    def test_synthesis_zero(self, fb4):
        w = synthesis(np.zeros((2, 4, 100)), fb4, 44100)
        assert w.samples.shape == (2, 400)
        assert not w.samples.any()

    def test_synthesis_linearity(self, fb4):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((1, 4, 200))
        b = rng.standard_normal((1, 4, 200))
        lhs = synthesis(a + b, fb4, 44100).samples
        rhs = synthesis(a, fb4, 44100).samples + synthesis(b, fb4, 44100).samples
        assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_band_mismatch(self, fb4):
        with pytest.raises(ValueError):
            synthesis(np.zeros((1, 2, 100)), fb4, 44100)

    def test_synthesis_rejects_2d(self, fb4):
        # a channel-major [channels * bands, length] array is not band streams
        with pytest.raises(ValueError, match=r"\[channels, 4, length\]"):
            synthesis(np.zeros((8, 100)), fb4, 44100)

    def test_empty_or_short_input(self, fb4):
        with pytest.raises(ValueError):
            analysis(Waveform(np.zeros((1, 0)), 44100), fb4)
        with pytest.raises(ValueError):
            analysis(Waveform(np.zeros((1, 10)), 44100), fb4)

    def test_cascade_is_delay(self, fb4, noise10):
        y = synthesis(analysis(noise10, fb4), fb4, 44100)
        d = fb4.system_delay
        s = noise10.samples[0, : -d][64:-64]
        sh = y.samples[0, d:][64:-64]
        snr = 10 * np.log10(np.sum(s**2) / np.sum((s - sh) ** 2))
        assert snr >= 60.0

    def test_shift_covariance(self, fb4):
        # shifting the input by N samples shifts every subband by 1
        rng = np.random.default_rng(11)
        x = rng.standard_normal(4000)
        shifted = np.r_[np.zeros(4), x[:-4]]
        a = analysis(Waveform(x[None, :], 44100), fb4)[0]
        b = analysis(Waveform(shifted[None, :], 44100), fb4)[0]
        assert np.max(np.abs(b[:, 1:] - a[:, :-1])) <= 1e-10


def test_separate_workers_bit_identical(fb8):
    # four sources synthesised on two threads, each over many blocks
    x = noise_waveform(2.0, channels=2, seed=41)
    assert x.num_samples > filterbank._BLOCK * fb8.num_bands
    serial = separate(x, IdentityModel(4), fb8, workers=1)
    threaded = separate(x, IdentityModel(4), fb8, workers=2)
    for a, b in zip(serial, threaded):
        assert np.array_equal(a.samples, b.samples)


class TestMeasureReconstruction:
    def test_identity_bank_capped(self, fb4, noise10, monkeypatch):
        # no 64-tap prototype reconstructs exactly, so synthesis returns
        # the probe delayed by exactly system_delay: the SNR reads the cap
        def delayed_probe(bands, fb, sample_rate):
            y = np.zeros_like(noise10.samples)
            y[:, fb.system_delay :] = noise10.samples[:, : -fb.system_delay]
            return Waveform(y, sample_rate)

        monkeypatch.setattr(filterbank, "synthesis", delayed_probe)
        rep = measure_reconstruction(fb4, noise10)
        assert rep.snr_db >= 300.0
        assert rep.max_abs_err == 0.0

    def test_zero_probe_rejected(self, fb4):
        with pytest.raises(ValueError):
            measure_reconstruction(fb4, Waveform(np.zeros((1, 10000)), 44100))

    def test_short_probe_rejected(self, fb4):
        with pytest.raises(ValueError):
            measure_reconstruction(fb4, Waveform(np.ones((1, 100)), 44100))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_runs_in_the_probes_dtype(self, fb4, noise10, monkeypatch, dtype):
        seen = []

        def recording_analysis(x, fb):
            seen.append(x.samples.dtype)
            return analysis(x, fb)

        monkeypatch.setattr(filterbank, "analysis", recording_analysis)
        probe = Waveform(noise10.samples.astype(dtype), noise10.sample_rate)
        measure_reconstruction(fb4, probe)
        assert seen == [dtype]

    def test_more_bands_more_error(self, fb2, fb4, fb8, noise10):
        s2 = measure_reconstruction(fb2, noise10).snr_db
        s4 = measure_reconstruction(fb4, noise10).snr_db
        s8 = measure_reconstruction(fb8, noise10).snr_db
        assert s8 <= s4 <= s2

    @pytest.mark.parametrize("probe_kind", ["speechlike", "sine"])
    def test_snr_on_other_probes(self, fb4, probe_kind):
        sr = 44100
        if probe_kind == "sine":
            t = np.arange(2 * sr) / sr
            x = 0.5 * np.sin(2 * np.pi * 440.0 * t)
        else:
            rng = np.random.default_rng(8)
            white = rng.standard_normal(2 * sr)
            # crude lowpass shaping via moving average
            x = np.convolve(white, np.ones(8) / 8, mode="same")
        # 76.7 dB on the sine, 77.7 dB on the shaped noise
        rep = measure_reconstruction(fb4, Waveform(x[None, :], sr))
        assert rep.snr_db >= 72.0


def test_json_round_trip(fb4, noise10):
    assert list(json.loads(fb4.to_json())) == ["num_bands", "prototype"]
    back = FilterBank.from_json(fb4.to_json())
    assert back.num_bands == fb4.num_bands
    assert np.array_equal(back.prototype, fb4.prototype)
    assert np.array_equal(back.analysis, fb4.analysis)
    assert np.array_equal(back.synthesis, fb4.synthesis)
    a = measure_reconstruction(fb4, noise10)
    b = measure_reconstruction(back, noise10)
    assert a == b


def test_bank_is_band_count_and_prototype(fb4):
    assert [f.name for f in fields(FilterBank) if f.init] == ["num_bands", "prototype"]
    assert (fb4.taps, fb4.system_delay) == (64, 63)
    assert type(FilterBank(np.int64(4), fb4.prototype).num_bands) is int
    for bands in (3, True, "4"):
        with pytest.raises(ValueError, match="num_bands must be one of"):
            FilterBank(bands, fb4.prototype)
