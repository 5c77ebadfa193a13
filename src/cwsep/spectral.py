"""STFT / inverse STFT over subband streams.

The grid is fixed and described only by this module's constants:
periodic Hann window of WIN_LENGTH = 512 samples, hop HOP = 110, FFT
size equal to the window, one-sided, so BINS = 257 bins per frame.
Signals are zero-padded by WIN_LENGTH/2 on each side before framing;
the inverse uses weighted overlap-add with window-squared normalization
(floored at 1e-8), which is exact on interior samples even though hop
110 is not a COLA hop for Hann.

A spectrogram is a plain complex ndarray [channels, frames, BINS]. Its
entries are not scanned for NaN/Inf here: in the pipeline every
spectrogram is computed from a checked Waveform or NetworkOutput. Every
transform follows its input precision: float32 streams give complex64
spectrograms and back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

WIN_LENGTH = 512
HOP = 110
BINS = WIN_LENGTH // 2 + 1
NORM_FLOOR = 1e-8


@dataclass(frozen=True)
class MagPhase:
    """Magnitude plus unit phasor per bin.

    Phase at zero-magnitude bins is the documented convention 1 + 0j.
    """

    magnitude: np.ndarray
    phase: np.ndarray


def _hann(n: int) -> np.ndarray:
    # periodic Hann
    return 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(n) / n)


def stft_streams(streams: np.ndarray) -> np.ndarray:
    """STFT of streams [channels, length] -> [channels, frames, BINS]; f32 in, complex64 out."""
    streams = np.atleast_2d(np.asarray(streams))
    n = streams.shape[1]
    if n < WIN_LENGTH:
        raise ValueError(f"signal length {n} < window length {WIN_LENGTH}")
    pad = WIN_LENGTH // 2
    x = np.pad(streams, ((0, 0), (pad, pad)))
    win = _hann(WIN_LENGTH).astype(np.result_type(streams.dtype, np.float32))
    framed = sliding_window_view(x, WIN_LENGTH, axis=1)[:, ::HOP] * win  # [C, T, win]
    return np.fft.rfft(framed, n=WIN_LENGTH, axis=2)


def istft(spec: np.ndarray, out_length: int) -> np.ndarray:
    """Weighted overlap-add inverse of [channels, frames, BINS] -> [channels, out_length]."""
    if spec.ndim != 3 or spec.shape[2] != BINS:
        raise ValueError(f"spectrogram must be [channels, frames, {BINS}], got {spec.shape}")
    channels, num_frames, _ = spec.shape
    pad = WIN_LENGTH // 2
    buf_len = WIN_LENGTH + (num_frames - 1) * HOP
    if out_length + pad > buf_len:
        raise ValueError(
            f"requested {out_length} samples but frames only cover {buf_len - pad}"
        )

    frames = np.fft.irfft(spec, n=WIN_LENGTH, axis=2)
    win = _hann(WIN_LENGTH).astype(frames.dtype)
    win_sq = win**2
    frames *= win[None, None, :]

    out = np.zeros((channels, buf_len), dtype=frames.dtype)
    norm = np.zeros(buf_len, dtype=frames.dtype)
    for t in range(num_frames):
        start = t * HOP
        out[:, start : start + WIN_LENGTH] += frames[:, t]
        norm[start : start + WIN_LENGTH] += win_sq
    out /= np.maximum(norm, NORM_FLOOR)[None, :]
    return out[:, pad : pad + out_length]


def to_magphase(spec: np.ndarray) -> MagPhase:
    mag = np.abs(spec)
    phase = np.ones_like(spec)
    np.divide(spec, mag, out=phase, where=mag > 0)
    return MagPhase(magnitude=mag, phase=phase)
