import tracemalloc

import numpy as np
import pytest

from cwsep import (
    Waveform,
    energy_conservation_loss,
    evaluation_report,
    sdr_framewise_median,
    sdr_global,
)
from cwsep.metrics import MetricsError


def noise(seconds=1.0, channels=2, sr=44100, seed=0, amp=0.1):
    rng = np.random.default_rng(seed)
    return Waveform(amp * rng.standard_normal((channels, int(seconds * sr))), sr)


def with_exact_ratio(reference: Waveform, ratio: float, seed=1) -> Waveform:
    """Estimate = reference + noise with exact reference/error energy ratio."""
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(reference.samples.shape)
    scale = np.sqrt(np.sum(reference.samples**2) / (ratio * np.sum(e**2)))
    return Waveform(reference.samples + scale * e, reference.sample_rate)


class TestEnergyConservation:
    def test_exact_sum_is_zero(self):
        parts = [noise(seed=i) for i in range(4)]
        mixture = Waveform(sum(p.samples for p in parts), 44100)
        assert energy_conservation_loss(mixture, parts) == 0.0

    def test_single_nonzero_estimate(self):
        m = noise(seed=5)
        z = Waveform(np.zeros_like(m.samples), 44100)
        assert energy_conservation_loss(m, [m, z, z, z]) == 0.0

    def test_all_zero_estimates(self):
        m = noise(seed=6)
        z = Waveform(np.zeros_like(m.samples), 44100)
        expected = float(np.mean(np.abs(m.samples)))
        assert abs(energy_conservation_loss(m, [z, z, z, z]) - expected) <= 1e-15

    def test_zero_iff_sum_matches(self):
        m = noise(seed=7)
        parts = [noise(seed=10 + i) for i in range(4)]
        assert energy_conservation_loss(m, parts) > 0
        # adjust one estimate so the sum matches; summation order differs
        # inside the loss, so allow double-rounding residue
        fixed = Waveform(m.samples - sum(p.samples for p in parts[1:]), 44100)
        assert energy_conservation_loss(m, [fixed] + parts[1:]) <= 1e-15

    def test_wrong_count(self):
        m = noise()
        with pytest.raises(MetricsError):
            energy_conservation_loss(m, [])

    def test_two_sources(self):
        a, b = noise(seed=31), noise(seed=32)
        mixture = Waveform(a.samples + b.samples, 44100)
        assert energy_conservation_loss(mixture, [a, b]) == 0.0
        expected = float(np.mean(np.abs(b.samples)))
        assert abs(energy_conservation_loss(mixture, [a]) - expected) <= 1e-15


class TestSdrGlobal:
    def test_exact_match_capped(self):
        x = noise(seed=8)
        assert sdr_global(x, x) == 300.0

    def test_hundred_to_one_ratio(self):
        ref = noise(seed=9)
        est = with_exact_ratio(ref, 100.0)
        assert abs(sdr_global(ref, est) - 20.0) <= 1e-9

    def test_zero_estimate_is_zero_db(self):
        ref = noise(seed=10)
        est = Waveform(np.zeros_like(ref.samples), 44100)
        assert abs(sdr_global(ref, est)) <= 1e-12

    def test_joint_scaling_invariance(self):
        ref = noise(seed=11)
        est = with_exact_ratio(ref, 50.0, seed=12)
        base = sdr_global(ref, est)
        for alpha in (0.25, -3.0, 7.5):
            scaled = sdr_global(
                Waveform(alpha * ref.samples, 44100),
                Waveform(alpha * est.samples, 44100),
            )
            assert abs(scaled - base) <= 1e-9

    def test_zero_reference_rejected(self):
        z = Waveform(np.zeros((1, 100)), 44100)
        with pytest.raises(MetricsError):
            sdr_global(z, z)


class TestSdrFramewise:
    def test_stationary_constant_ratio(self):
        sr = 44100
        rng = np.random.default_rng(13)
        frames = []
        est_frames = []
        for i in range(5):
            r = rng.standard_normal((2, sr))
            e = rng.standard_normal((2, sr))
            scale = np.sqrt(np.sum(r**2) / (100.0 * np.sum(e**2)))
            frames.append(r)
            est_frames.append(r + scale * e)
        ref = Waveform(np.concatenate(frames, axis=1), sr)
        est = Waveform(np.concatenate(est_frames, axis=1), sr)
        assert abs(sdr_framewise_median(ref, est) - 20.0) <= 1e-6

    def test_median_robust_to_one_bad_frame(self):
        # 11 frames: 10 at exactly 20 dB, 1 at 0 dB; sorting oracle says 20
        sr = 44100
        rng = np.random.default_rng(14)
        ref_parts, est_parts, per_frame = [], [], []
        for i in range(11):
            r = rng.standard_normal((1, sr))
            e = rng.standard_normal((1, sr))
            ratio = 1.0 if i == 5 else 100.0
            scale = np.sqrt(np.sum(r**2) / (ratio * np.sum(e**2)))
            ref_parts.append(r)
            est_parts.append(r + scale * e)
            per_frame.append(10 * np.log10(ratio))
        ref = Waveform(np.concatenate(ref_parts, axis=1), sr)
        est = Waveform(np.concatenate(est_parts, axis=1), sr)
        oracle = sorted(per_frame)[len(per_frame) // 2]
        assert abs(oracle - 20.0) <= 1e-12
        assert abs(sdr_framewise_median(ref, est) - oracle) <= 1e-6

    def test_exact_match_capped(self):
        x = noise(2.0, seed=15)
        assert sdr_framewise_median(x, x) == 300.0

    def test_silent_frames_skipped(self):
        sr = 44100
        rng = np.random.default_rng(16)
        r = rng.standard_normal((1, sr))
        e = rng.standard_normal((1, sr))
        scale = np.sqrt(np.sum(r**2) / (100.0 * np.sum(e**2)))
        ref = Waveform(np.concatenate([np.zeros((1, sr)), r], axis=1), sr)
        est = Waveform(np.concatenate([np.zeros((1, sr)), r + scale * e], axis=1), sr)
        assert abs(sdr_framewise_median(ref, est) - 20.0) <= 1e-6

    def test_all_silent_rejected(self):
        z = Waveform(np.zeros((1, 2 * 44100)), 44100)
        x = Waveform(np.ones((1, 2 * 44100)), 44100)
        with pytest.raises(MetricsError):
            sdr_framewise_median(z, x)

    def test_too_short_rejected(self):
        with pytest.raises(MetricsError):
            sdr_framewise_median(noise(0.5), noise(0.5))


def test_evaluation_report_fields():
    ref = noise(2.0, seed=17)
    est = with_exact_ratio(ref, 100.0, seed=18)
    rep = evaluation_report(ref, est, track="t", source="s")
    assert rep["track"] == "t"
    assert rep["source"] == "s"
    assert rep["frames_used"] == 2
    assert abs(rep["sdr_global_db"] - 20.0) <= 1e-9


@pytest.mark.parametrize("metric", [sdr_global, sdr_framewise_median])
def test_no_whole_track_float64_copies(metric):
    # 60.5 s of float32 stereo, the last 1 s block partial: whole-track
    # float64 copies of the reference and of the error read 4x the
    # sample bytes
    rng = np.random.default_rng(19)
    ref = rng.standard_normal((2, 60 * 44100 + 22050)).astype(np.float32)
    est = (ref + 0.1 * rng.standard_normal(ref.shape)).astype(np.float32)
    a, b = Waveform(ref, 44100), Waveform(est, 44100)
    tracemalloc.start()
    try:
        got = metric(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.1 * ref.nbytes
    r, e = ref.astype(np.float64), est.astype(np.float64)
    if metric is sdr_global:
        oracle = 10 * np.log10(np.sum(r**2) / np.sum((r - e) ** 2))
    else:
        frames = [slice(k * 44100, (k + 1) * 44100) for k in range(60)]
        oracle = np.median([
            10 * np.log10(np.sum(r[:, f] ** 2) / np.sum((r[:, f] - e[:, f]) ** 2))
            for f in frames
        ])
    assert abs(got - oracle) <= 1e-9


# every metric of a reference and an estimate
PAIR_METRICS = pytest.mark.parametrize("metric", [
    sdr_global,
    sdr_framewise_median,
    lambda a, b: energy_conservation_loss(a, [b]),
], ids=["sdr_global", "sdr_framewise_median", "energy_conservation_loss"])


@PAIR_METRICS
def test_sample_rate_mismatch_rejected(metric):
    ref = noise(seed=70)
    tagged = Waveform(ref.samples, 48000)
    with pytest.raises(MetricsError, match="44100 Hz vs 48000 Hz"):
        metric(ref, tagged)


@PAIR_METRICS
def test_shape_mismatch_rejected(metric):
    ref = noise(seed=71)
    with pytest.raises(MetricsError, match=r"shape mismatch: \(2, 44100\) vs \(1, 44100\)"):
        metric(ref, Waveform(ref.samples[:1], 44100))
