"""An oracle cIRM through `separate`: the whole decode path on a known mix.

The identity model decodes with mask 1, no rotation and Q = 0 only.
OracleModel instead returns, for each segment, the exact complex ratio
mask of each of four known sources, in the sense of Vincent, Gribonval
& Plumbley, "Oracle estimators for the benchmarking of source separation
algorithms" (Signal Processing, 2007):
- mask logits M = logit(min(|S| / |X|, 1 - 1e-6)), clipped to +-80;
- magnitude residual Q = |S| - |X| * sigmoid(M);
- phase vector (Pr, Pi) = S * conj(phase X).
So each estimate is its source's own STFT up to float32 rounding, and
its SDR is that of the source run alone through the identity model.
"""

import numpy as np
import pytest

from cwsep import IdentityModel, Waveform, analysis, sdr_global, separate
from cwsep import pipeline, spectral
from cwsep.cirm import NetworkOutput

RATE = 44100
SECONDS = 25  # three segments at every band count
LOGIT_CLIP = 80
RATIO_CAP = 1 - 1e-6


def four_sources(seed=21):
    """Stereo sources: a modulated tone, white noise, a gated tone, low-passed noise.

    The gated tone is exactly zero for 1 s of every 2 s, so it has
    all-zero STFT frames, whose mask logits go to the clip.
    """
    rng = np.random.default_rng(seed)
    n = SECONDS * RATE
    t = np.arange(n) / RATE

    def pan(left, mono):
        return np.stack([left * mono, (1 - left) * mono])

    tone = pan(0.7, 0.3 * np.sin(2 * np.pi * 440 * t) * (1 + 0.5 * np.sin(2 * np.pi * 3 * t)))
    noise = 0.05 * rng.standard_normal((2, n))
    gated = pan(0.4, 0.2 * np.sin(2 * np.pi * 1250 * t) * (np.sin(np.pi * t) > 0))
    kernel = np.hanning(64) / np.hanning(64).sum()
    low = np.stack([np.convolve(c, kernel, "same") for c in rng.standard_normal((2, n))])
    return [Waveform(s, RATE) for s in (tone, noise, gated, low)]


def band_streams(x, fb):
    """x's band streams as `separate` forms them: float32, with the filter tail."""
    padded = np.zeros((2, x.num_samples + fb.taps), np.float32)
    padded[:, : x.num_samples] = x.samples
    return analysis(Waveform(padded, RATE), fb).reshape(2 * fb.num_bands, -1)


def logit(ratio):
    with np.errstate(divide="ignore"):
        return np.clip(np.log(ratio) - np.log1p(-ratio), -LOGIT_CLIP, LOGIT_CLIP)


def oracle_cirm(mix, spec):
    """The NetworkOutput that decodes mixture `mix` (a MagPhase) to source spectrogram spec."""
    mag = mix.magnitude
    with np.errstate(divide="ignore", invalid="ignore"):
        # fmin takes the cap where |X| = 0
        ratio = np.fmin(np.abs(spec) / mag, RATIO_CAP)
    logits = logit(ratio)
    residual = np.abs(spec) - mag / (1 + np.exp(-logits))
    phase = spec * np.conj(mix.phase)
    return NetworkOutput(logits, phase.real, phase.imag, residual)


def summary(out):
    """Lowest and highest logit, whether Q > 0 anywhere, and phases per eighth of the circle."""
    angles = np.arctan2(out.phase_imag, out.phase_real)
    return {
        "logits": (out.mask_logits.min(), out.mask_logits.max()),
        "q_positive": (out.mag_residual > 0).any(),
        "octants": np.histogram(angles, bins=8, range=(-np.pi, np.pi))[0],
    }


class OracleModel:
    """Returns every source's exact cIRM for whichever segment's magnitude it is given.

    It recomputes each candidate segment's mixture magnitude and takes the
    one equal to the given one, so it needs no segment order and works
    on any thread. `served` maps (segment, source) to the summary of the
    output it built.
    """

    def __init__(self, sources, fb):
        self.out_sources = len(sources)
        n = sources[0].num_samples
        self.mix = band_streams(Waveform(sum(s.samples for s in sources), RATE), fb)
        self.sources = [band_streams(s, fb) for s in sources]
        # separate's segments: whole SEGMENT_SAMPLES steps, the last takes the rest
        step = pipeline.SEGMENT_SAMPLES // fb.num_bands
        count = -(-n // pipeline.SEGMENT_SAMPLES)
        bounds = [k * step for k in range(count)] + [self.mix.shape[1]]
        self.segments = list(zip(bounds, bounds[1:]))
        self.served = {}

    def forward(self, mag, pool=None):
        for k, (lo, hi) in enumerate(self.segments):
            mix = spectral.to_magphase(spectral.stft_streams(self.mix[:, lo:hi]))
            if np.array_equal(mix.magnitude, mag):
                return Cirms(self, k, mix)
        raise AssertionError(f"no segment has the mixture magnitude of shape {mag.shape}")


class Cirms:
    """A segment's oracle outputs, source i's built when it is indexed.

    separate decodes one source at a time, so only that source's four
    tensors are alive; a list of all four sources' would double the
    test's peak memory.
    """

    def __init__(self, model, k, mix):
        self.model, self.k, self.mix = model, k, mix

    def __len__(self):
        return self.model.out_sources

    def __getitem__(self, i):
        lo, hi = self.model.segments[self.k]
        # past the last source, the IndexError ends iteration
        out = oracle_cirm(self.mix, spectral.stft_streams(self.model.sources[i][:, lo:hi]))
        self.model.served[self.k, i] = summary(out)
        return out


@pytest.fixture(scope="module")
def sources():
    return four_sources()


@pytest.fixture(scope="module")
def identity_sdrs(request, sources):
    """Per band count, each source's sdr_global when it runs alone through the identity."""
    cache = {}

    def sdrs(bank):
        if bank not in cache:
            fb = request.getfixturevalue(bank)
            cache[bank] = [
                sdr_global(s, separate(s, IdentityModel(), fb, workers=2)[0]) for s in sources
            ]
        return cache[bank]

    return sdrs


@pytest.mark.parametrize("bank", ["fb2", "fb4", "fb8"])
@pytest.mark.parametrize("workers", [1, 2])
def test_oracle_cirm_reaches_each_source_alone(request, sources, identity_sdrs, bank, workers):
    fb = request.getfixturevalue(bank)
    model = OracleModel(sources, fb)
    mix = Waveform(sum(s.samples for s in sources), RATE)
    estimates = separate(mix, model, fb, workers=workers)
    oracle = [sdr_global(s, e) for s, e in zip(sources, estimates, strict=True)]
    np.testing.assert_allclose(oracle, identity_sdrs(bank), rtol=0, atol=0.1)
    # every source of every segment is decoded, and the fixture reaches what the identity
    # never does: the logit clip and the ratio cap, Q > 0, rotations all around the circle
    assert sorted(model.served) == [(k, i) for k in range(3) for i in range(4)]
    served = model.served.values()
    assert min(s["logits"][0] for s in served) == -LOGIT_CLIP
    assert max(s["logits"][1] for s in served) == logit(np.float32(RATIO_CAP))
    assert any(s["q_positive"] for s in served)
    assert np.all(sum(s["octants"] for s in served) > 0)
