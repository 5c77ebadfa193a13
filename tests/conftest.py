import numpy as np
import pytest

from cwsep import Waveform, design_filterbank, istft


@pytest.fixture(scope="session")
def fb2():
    return design_filterbank(2)


@pytest.fixture(scope="session")
def fb4():
    return design_filterbank(4)


@pytest.fixture(scope="session")
def fb8():
    return design_filterbank(8)


def noise_waveform(seconds, channels=1, sample_rate=44100, seed=1234, amp=0.1):
    rng = np.random.default_rng(seed)
    n = int(round(seconds * sample_rate))
    return Waveform(amp * rng.standard_normal((channels, n)), sample_rate)


def whole_istft(spec, out_length):
    """istft into a new out_length-sample array, of the frames it takes from spec."""
    out = np.empty((spec.shape[0], out_length), np.result_type(spec.real.dtype, np.float32))
    return istft(lambda lo, hi: spec[:, lo:hi], out)


@pytest.fixture(scope="session")
def noise10():
    return noise_waveform(10.0)


@pytest.fixture(scope="session")
def music_clip():
    """Deterministic synthetic music: chord pad + melody + percussive hits."""
    sr = 44100
    t = np.arange(10 * sr) / sr
    rng = np.random.default_rng(99)
    left = np.zeros_like(t)
    right = np.zeros_like(t)
    for f0, pan in ((110.0, 0.4), (164.81, 0.6), (220.0, 0.5), (329.63, 0.7)):
        partial = np.zeros_like(t)
        for k in range(1, 6):
            partial += np.sin(2 * np.pi * f0 * k * t + 0.1 * k) / k
        env = 0.5 + 0.5 * np.sin(2 * np.pi * 0.25 * t)
        left += (1 - pan) * partial * env
        right += pan * partial * env
    # percussive noise bursts every half second
    burst = rng.standard_normal(len(t)) * (np.sin(2 * np.pi * 2.0 * t) ** 20)
    left += 0.5 * burst
    right += 0.5 * burst
    x = np.stack([left, right])
    x *= 0.5 / np.max(np.abs(x))
    return Waveform(x, sr)
