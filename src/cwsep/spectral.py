"""STFT / inverse STFT over subband streams.

Frames are Hann-windowed (periodic window), length 512, hop 110, FFT
size 512, one-sided. Signals are zero-padded by win_length/2 on each
side before framing; the inverse uses weighted overlap-add with
window-squared normalization (floored at 1e-8), which is exact on
interior samples even though hop 110 is not a COLA hop for Hann. Every
transform follows its input precision: float32 streams give complex64
spectrograms and back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filterbank import SubbandSignal

WIN_LENGTH = 512
HOP = 110
NORM_FLOOR = 1e-8


@dataclass(frozen=True)
class ComplexSpectrogram:
    """One-sided complex STFT, [channels, frames, fft_size//2 + 1]."""

    data: np.ndarray  # complex [channels, T, F]
    win_length: int
    hop: int
    fft_size: int

    def __post_init__(self):
        d = np.asarray(self.data)
        if d.ndim != 3:
            raise ValueError(f"data must be [channels, frames, bins], got {d.shape}")
        if d.shape[2] != self.fft_size // 2 + 1:
            raise ValueError(f"expected {self.fft_size // 2 + 1} bins, got {d.shape[2]}")
        if not np.all(np.isfinite(d.real)) or not np.all(np.isfinite(d.imag)):
            raise ValueError("spectrogram entries must be finite")
        object.__setattr__(self, "data", d)

    @property
    def num_channels(self) -> int:
        return self.data.shape[0]

    @property
    def num_frames(self) -> int:
        return self.data.shape[1]

    @property
    def num_bins(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True)
class MagPhase:
    """Magnitude plus unit phasor per bin.

    Phase at zero-magnitude bins is the documented convention 1 + 0j.
    """

    magnitude: np.ndarray
    phase: np.ndarray
    win_length: int
    hop: int
    fft_size: int


def _hann(n: int) -> np.ndarray:
    # periodic Hann
    return 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(n) / n)


def stft(sb: SubbandSignal) -> ComplexSpectrogram:
    """STFT of every channel x band stream, stacked channel-major.

    A stereo 4-band input yields 8 spectrogram channels ordered
    (ch0 band0..3, ch1 band0..3).
    """
    return stft_streams(sb.stacked())


def stft_streams(streams: np.ndarray) -> ComplexSpectrogram:
    """STFT of raw streams [channels, length]; float32 in, complex64 out."""
    streams = np.atleast_2d(np.asarray(streams))
    n = streams.shape[1]
    if n < WIN_LENGTH:
        raise ValueError(f"signal length {n} < window length {WIN_LENGTH}")
    pad = WIN_LENGTH // 2
    x = np.pad(streams, ((0, 0), (pad, pad)))
    frames = (x.shape[1] - WIN_LENGTH) // HOP + 1
    win = _hann(WIN_LENGTH).astype(np.result_type(streams.dtype, np.float32))

    idx = np.arange(WIN_LENGTH)[None, :] + HOP * np.arange(frames)[:, None]
    framed = x[:, idx] * win[None, None, :]  # [C, T, win]
    spec = np.fft.rfft(framed, n=WIN_LENGTH, axis=2)
    return ComplexSpectrogram(spec, win_length=WIN_LENGTH, hop=HOP, fft_size=WIN_LENGTH)


def istft(spec: ComplexSpectrogram, out_length: int) -> np.ndarray:
    """Weighted overlap-add inverse; returns streams [channels, out_length]."""
    win_length, hop = spec.win_length, spec.hop
    pad = win_length // 2
    buf_len = win_length + (spec.num_frames - 1) * hop
    if out_length + pad > buf_len:
        raise ValueError(
            f"requested {out_length} samples but frames only cover {buf_len - pad}"
        )

    frames = np.fft.irfft(spec.data, n=spec.fft_size, axis=2)
    win = _hann(win_length).astype(frames.dtype)
    win_sq = win**2
    frames *= win[None, None, :]

    out = np.zeros((spec.num_channels, buf_len), dtype=frames.dtype)
    norm = np.zeros(buf_len, dtype=frames.dtype)
    for t in range(spec.num_frames):
        start = t * hop
        out[:, start : start + win_length] += frames[:, t]
        norm[start : start + win_length] += win_sq
    out /= np.maximum(norm, NORM_FLOOR)[None, :]
    return out[:, pad : pad + out_length]


def to_magphase(spec: ComplexSpectrogram) -> MagPhase:
    mag = np.abs(spec.data)
    phase = np.ones_like(spec.data)
    np.divide(spec.data, mag, out=phase, where=mag > 0)
    return MagPhase(
        magnitude=mag,
        phase=phase,
        win_length=spec.win_length,
        hop=spec.hop,
        fft_size=spec.fft_size,
    )


def from_magphase(mp: MagPhase) -> ComplexSpectrogram:
    return ComplexSpectrogram(
        mp.magnitude * mp.phase, win_length=mp.win_length, hop=mp.hop, fft_size=mp.fft_size
    )
