import numpy as np
import pytest

from cwsep import (
    IdentityModel,
    PRESETS,
    Waveform,
    build,
    desegment,
    init_random,
    instrumental_residual,
    segment,
    separate,
)
from cwsep.pipeline import PipelineError

from conftest import noise_waveform


class TestSegment:
    def test_25s_split(self):
        x = noise_waveform(25.0)
        seg = segment(x)
        assert [s.shape[1] for s in seg.segments] == [441000, 441000, 441000]
        assert seg.true_lengths == [441000, 441000, 220500]
        # the tail is padded with zeros
        assert not seg.segments[-1][:, 220500:].any()

    def test_exact_fit_no_padding(self):
        seg = segment(noise_waveform(10.0))
        assert len(seg.segments) == 1
        assert seg.true_lengths == [441000]

    def test_round_trip_exact(self):
        x = noise_waveform(13.7, channels=2)
        assert np.array_equal(desegment(segment(x)).samples, x.samples)

    def test_empty_rejected(self):
        with pytest.raises(PipelineError):
            segment(Waveform(np.zeros((1, 0)), 44100))


class TestSeparate:
    def test_wrong_rate_rejected(self, fb4):
        with pytest.raises(PipelineError):
            separate(Waveform(np.zeros((2, 48000)), 48000), IdentityModel(), fb4)

    def test_zero_input_zero_output(self, fb4):
        out = separate(Waveform(np.zeros((2, 44100)), 44100), IdentityModel(), fb4)[0]
        assert out.samples.shape == (2, 44100)
        assert np.max(np.abs(out.samples)) <= 1e-12

    def test_identity_cascade_snr(self, fb4):
        x = noise_waveform(3.0, channels=2, seed=21)
        est = separate(x, IdentityModel(), fb4)[0]
        assert est.samples.shape == x.samples.shape
        tr = 4096
        s = x.samples[:, tr:-tr]
        sh = est.samples[:, tr:-tr]
        snr = 10 * np.log10(np.sum(s**2) / np.sum((s - sh) ** 2))
        assert snr >= 55.0

    def test_delay_compensation_peak_at_zero_lag(self, fb4):
        x = noise_waveform(2.0, seed=22)
        est = separate(x, IdentityModel(), fb4)[0]
        a = x.samples[0, 8000:80000]
        b = est.samples[0]
        lags = range(-5, 6)
        corr = [float(np.dot(a, b[8000 + lag : 80000 + lag])) for lag in lags]
        assert list(lags)[int(np.argmax(corr))] == 0

    def test_mono_duplicated_to_stereo(self, fb4):
        x = noise_waveform(1.5, channels=1, seed=23)
        est = separate(x, IdentityModel(), fb4)[0]
        assert est.num_channels == 2
        assert np.array_equal(est.samples[0], est.samples[1])

    def test_random_tiny_model_smoke(self, fb4):
        model = init_random(build(PRESETS["tiny"]), seed=24)
        x = noise_waveform(2.0, channels=2, seed=25)
        outs = separate(x, model, fb4)
        assert len(outs) == 1
        assert outs[0].samples.shape == (2, x.num_samples)
        assert np.all(np.isfinite(outs[0].samples))

    def test_segment_independence(self, fb4):
        x = noise_waveform(20.0, channels=2, seed=26)
        whole = separate(x, IdentityModel(), fb4)[0]
        first = separate(Waveform(x.samples[:, :441000], 44100), IdentityModel(), fb4)[0]
        second = separate(Waveform(x.samples[:, 441000:], 44100), IdentityModel(), fb4)[0]
        stitched = np.concatenate([first.samples, second.samples], axis=1)
        assert np.array_equal(whole.samples, stitched)

    def test_workers_do_not_change_result(self, fb4):
        x = noise_waveform(20.0, channels=2, seed=27)
        serial = separate(x, IdentityModel(), fb4, workers=1)[0]
        threaded = separate(x, IdentityModel(), fb4, workers=4)[0]
        assert np.array_equal(serial.samples, threaded.samples)


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_output_is_float32(self, fb4, dtype):
        x = noise_waveform(1.0, channels=2, seed=31)
        est = separate(Waveform(x.samples.astype(dtype), 44100), IdentityModel(2), fb4)
        assert [e.samples.dtype for e in est] == [np.float32, np.float32]

    def test_failing_segment_is_named(self, fb4):
        class BadSecondSegment:
            calls = 0

            def forward(self, mag):
                self.calls += 1
                shape = mag.shape if self.calls == 1 else (1, 1, 1)
                return IdentityModel().forward(np.zeros(shape, dtype=mag.dtype))

        x = noise_waveform(15.0, channels=2, seed=32)
        with pytest.raises(PipelineError, match=r"segment 1 \(from 10 s\)"):
            separate(x, BadSecondSegment(), fb4)


class TestResidual:
    def test_vocals_equal_mixture(self):
        x = noise_waveform(1.0, channels=2, seed=28)
        r = instrumental_residual(x, x)
        assert not r.samples.any()

    def test_zero_vocals(self):
        x = noise_waveform(1.0, channels=2, seed=29)
        z = Waveform(np.zeros_like(x.samples), 44100)
        assert np.array_equal(instrumental_residual(x, z).samples, x.samples)

    def test_exact_decomposition(self):
        # samples on a 2^-20 grid make add and subtract exact in float64,
        # so the residual recovers the accompaniment bitwise
        rng = np.random.default_rng(30)
        grid = 2.0**20
        v = np.round(0.1 * rng.standard_normal((2, 44100)) * grid) / grid
        a = np.round(0.1 * rng.standard_normal((2, 44100)) * grid) / grid
        vocals = Waveform(v, 44100)
        accomp = Waveform(a, 44100)
        mixture = Waveform(vocals.samples + accomp.samples, 44100)
        r = instrumental_residual(mixture, vocals)
        assert np.array_equal(r.samples, accomp.samples)

    def test_length_mismatch(self):
        a = noise_waveform(1.0, channels=2)
        b = noise_waveform(0.5, channels=2)
        with pytest.raises(PipelineError):
            instrumental_residual(a, b)
