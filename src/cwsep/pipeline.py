"""End-to-end separation driver.

Segments the input with a rectangular 10 s window (no overlap), runs
each segment through analysis -> STFT -> network -> complex-mask
reconstruction -> iSTFT -> synthesis, compensates the filterbank delay,
and reassembles. Segments are independent, so a long input separates
bit-identically to its segments separated one by one.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import filterbank as fbmod
from . import spectral
from .cirm import apply_cirm, identity_output
from .filterbank import FilterBank, SubbandSignal
from .wave_io import Waveform

PIPELINE_RATE = 44100
SEGMENT_SECONDS = 10.0


class PipelineError(Exception):
    pass


@dataclass(frozen=True)
class Segmented:
    """Fixed-length segments plus the true (unpadded) length of each."""

    segments: list  # of np.ndarray [channels, segment_len]
    true_lengths: list
    sample_rate: int


class IdentityModel:
    """Forward hook that reproduces the mixture through the mask stage."""

    def __init__(self, out_sources: int = 1):
        self.out_sources = out_sources

    def forward(self, mag):
        return [identity_output(mag.shape, mag.dtype) for _ in range(self.out_sources)]


def segment(x: Waveform, seconds: float = SEGMENT_SECONDS) -> Segmented:
    """Non-overlapping rectangular segments; the tail is zero-padded."""
    if x.num_samples == 0:
        raise PipelineError("cannot segment an empty signal")
    seg_len = int(round(seconds * x.sample_rate))
    segments = []
    true_lengths = []
    for start in range(0, x.num_samples, seg_len):
        chunk = x.samples[:, start : start + seg_len]
        true_lengths.append(chunk.shape[1])
        if chunk.shape[1] < seg_len:
            chunk = np.pad(chunk, ((0, 0), (0, seg_len - chunk.shape[1])))
        segments.append(chunk)
    return Segmented(segments=segments, true_lengths=true_lengths, sample_rate=x.sample_rate)


def desegment(seg: Segmented) -> Waveform:
    parts = [s[:, :n] for s, n in zip(seg.segments, seg.true_lengths)]
    return Waveform(np.concatenate(parts, axis=1), seg.sample_rate)


def _separate_segment(chunk: np.ndarray, rate: int, model, fb: FilterBank):
    """Returns [sources, channels, segment_len]."""
    seg_wave = Waveform(chunk, rate)
    sb = fbmod.analysis(seg_wave, fb)
    spec = spectral.stft(sb)
    mix = spectral.to_magphase(spec)
    outputs = model.forward(mix.magnitude)

    seg_len = chunk.shape[1]
    sub_len = sb.samples.shape[2]
    channels = chunk.shape[0]
    delay = fb.system_delay
    per_source = []
    for out in outputs:
        est_spec = apply_cirm(mix, out)
        streams = spectral.istft(est_spec, sub_len)
        est_sb = SubbandSignal(
            streams.reshape(channels, fb.num_bands, sub_len), source_rate=rate
        )
        y = fbmod.synthesis(est_sb, fb).samples
        # compensate the filterbank cascade delay; tail padded with zeros
        comp = np.zeros((channels, seg_len), dtype=y.dtype)
        avail = max(y.shape[1] - delay, 0)
        comp[:, : min(avail, seg_len)] = y[:, delay : delay + seg_len]
        per_source.append(comp)
    return np.stack(per_source)


def separate(x: Waveform, model, fb: FilterBank, workers: int = 1):
    """Separate a 44.1 kHz mixture; returns one stereo float32 Waveform per source.

    Mono inputs are duplicated to stereo here. `workers` > 1 processes
    segments concurrently (0 = one per CPU); output order and values are
    independent of scheduling. A failing segment raises PipelineError
    naming its index and start time.
    """
    if x.sample_rate != PIPELINE_RATE:
        raise PipelineError(
            f"pipeline requires {PIPELINE_RATE} Hz input, got {x.sample_rate} Hz"
        )
    samples = x.samples.astype(np.float32, copy=False)
    if samples.shape[0] == 1:
        samples = np.repeat(samples, 2, axis=0)
    x = Waveform(samples, x.sample_rate)

    def run(index, chunk):
        try:
            return _separate_segment(chunk, x.sample_rate, model, fb)
        except Exception as e:
            raise PipelineError(
                f"segment {index} (from {index * SEGMENT_SECONDS:g} s): {e}"
            ) from e

    seg = segment(x)
    indices = range(len(seg.segments))
    if workers == 0:
        workers = os.cpu_count() or 1
    if workers > 1 and len(seg.segments) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, indices, seg.segments))
    else:
        results = list(map(run, indices, seg.segments))

    y = np.concatenate([r[:, :, :n] for r, n in zip(results, seg.true_lengths)], axis=2)
    return [Waveform(source, x.sample_rate) for source in y]


def instrumental_residual(mixture: Waveform, vocals: Waveform) -> Waveform:
    """Samplewise mixture minus vocals."""
    if mixture.samples.shape != vocals.samples.shape:
        raise PipelineError(
            f"shape mismatch: mixture {mixture.samples.shape}, vocals {vocals.samples.shape}"
        )
    if mixture.sample_rate != vocals.sample_rate:
        raise PipelineError("sample rate mismatch between mixture and vocals")
    return Waveform(mixture.samples - vocals.samples, mixture.sample_rate)
