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
transform follows its input precision, in its results and its
arithmetic: float32 streams give complex64 spectrograms and back. numpy
(2.0 to 2.4 at least) runs `rfft` with the default norm in pocketfft's
float64 loop even for float32 input and rounds the result, so
stft_streams folds the FFT size into the window and asks for
norm="forward", whose float32 scale factor selects the float32 loop.
The factor is a power of two, so float64 input keeps the bits of the
unnormalised transform.

Both directions work on blocks of frames whose time-domain frames take
at most FRAME_BLOCK_BYTES, so neither builds a whole-signal frames
array. InverseStft takes a spectrogram block by block, which lets a
caller compute each block just before it is inverted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

WIN_LENGTH = 512
HOP = 110
BINS = WIN_LENGTH // 2 + 1
NORM_FLOOR = 1e-8
# bytes of time-domain frames per block: 32 frames of 16 float32 channels.
# 512 KiB to 2 MiB separated equally fast on a 2-core Xeon (2 MiB L2 per core)
FRAME_BLOCK_BYTES = 1 << 20


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


def _frame_blocks(channels: int, num_frames: int, dtype) -> list:
    """(lo, hi) frame ranges whose [channels, hi - lo, WIN_LENGTH] frames fit FRAME_BLOCK_BYTES."""
    step = max(1, FRAME_BLOCK_BYTES // (channels * WIN_LENGTH * np.dtype(dtype).itemsize))
    return [(lo, min(lo + step, num_frames)) for lo in range(0, num_frames, step)]


def stft_streams(streams: np.ndarray) -> np.ndarray:
    """STFT of streams [channels, length] -> [channels, frames, BINS]; f32 in, complex64 out."""
    streams = np.atleast_2d(np.asarray(streams))
    channels, n = streams.shape
    if n < WIN_LENGTH:
        raise ValueError(f"signal length {n} < window length {WIN_LENGTH}")
    pad = WIN_LENGTH // 2
    x = np.pad(streams, ((0, 0), (pad, pad)))
    real = np.result_type(streams.dtype, np.float32)
    # norm="forward" divides by WIN_LENGTH again, exactly
    win = (_hann(WIN_LENGTH) * WIN_LENGTH).astype(real)
    frames = sliding_window_view(x, WIN_LENGTH, axis=1)[:, ::HOP]  # [C, T, win], a view
    spec = np.empty((channels, frames.shape[1], BINS), np.result_type(real, np.complex64))
    for lo, hi in _frame_blocks(channels, frames.shape[1], real):
        np.fft.rfft(frames[:, lo:hi] * win, norm="forward", out=spec[:, lo:hi])
    return spec


class InverseStft:
    """Weighted overlap-add inverse of a [channels, num_frames, BINS] spectrogram.

    The spectrogram arrives in consecutive frame blocks through `add`,
    in the order of `blocks` or in any other cut; each block's inverse
    FFT, window and overlap-add run while it is in cache. `write` then
    normalizes the first samples into an array. The arithmetic is in
    `dtype` and the result equals that of one whole-spectrogram pass.
    """

    def __init__(self, channels: int, num_frames: int, dtype):
        self.channels, self.num_frames = channels, num_frames
        self.dtype = np.dtype(dtype)
        self.blocks = _frame_blocks(channels, num_frames, self.dtype)
        self._buf = np.zeros((channels, WIN_LENGTH + (num_frames - 1) * HOP), self.dtype)
        self._frames = np.empty((channels, 0, WIN_LENGTH), self.dtype)  # grows to a block
        self._win = _hann(WIN_LENGTH).astype(self.dtype)
        self._next = 0

    def add(self, spec: np.ndarray) -> None:
        """Overlap-add the next spec.shape[1] frames, given as [channels, frames, BINS]."""
        if spec.ndim != 3 or spec.shape[0] != self.channels or spec.shape[2] != BINS:
            raise ValueError(
                f"spectrogram must be [{self.channels}, frames, {BINS}], got {spec.shape}"
            )
        first, count = self._next, spec.shape[1]
        if first + count > self.num_frames:
            raise ValueError(f"{first + count} frames added to a {self.num_frames}-frame inverse")
        if self._frames.shape[1] < count:
            self._frames = np.empty((self.channels, count, WIN_LENGTH), self.dtype)
        frames = np.fft.irfft(spec, n=WIN_LENGTH, axis=2, out=self._frames[:, :count])
        frames *= self._win
        for t in range(count):
            start = (first + t) * HOP
            self._buf[:, start : start + WIN_LENGTH] += frames[:, t]
        self._next = first + count

    def write(self, out: np.ndarray) -> np.ndarray:
        """Normalize the first out.shape[1] output samples into `out` [channels, n]; returns it."""
        if self._next != self.num_frames:
            raise ValueError(f"{self._next} of {self.num_frames} frames added")
        pad = WIN_LENGTH // 2
        buf_len = self._buf.shape[1]
        out_length = out.shape[1]
        if out_length + pad > buf_len:
            raise ValueError(
                f"requested {out_length} samples but frames only cover {buf_len - pad}"
            )
        norm, win_sq = np.zeros(buf_len, self.dtype), self._win**2
        for t in range(self.num_frames):
            norm[t * HOP : t * HOP + WIN_LENGTH] += win_sq
        window = slice(pad, pad + out_length)
        return np.divide(self._buf[:, window], np.maximum(norm[window], NORM_FLOOR), out=out)


def istft(spec: np.ndarray, out_length: int) -> np.ndarray:
    """Weighted overlap-add inverse of [channels, frames, BINS] -> [channels, out_length]."""
    if spec.ndim != 3 or spec.shape[2] != BINS:
        raise ValueError(f"spectrogram must be [channels, frames, {BINS}], got {spec.shape}")
    channels, num_frames, _ = spec.shape
    inverse = InverseStft(channels, num_frames, np.result_type(spec.real.dtype, np.float32))
    for lo, hi in inverse.blocks:
        inverse.add(spec[:, lo:hi])
    return inverse.write(np.empty((channels, out_length), inverse.dtype))


def to_magphase(spec: np.ndarray) -> MagPhase:
    """Split spec [channels, frames, BINS] into magnitude and unit phasor, block by block.

    The phasor is spec * (1 / |spec|): numpy divides a complex number by
    a real one as a product with the reciprocal, so this equals
    spec / |spec| bit for bit. Where the reciprocal is infinite (zero or
    subnormal magnitude) the phase is 1 + 0j.
    """
    mag = np.empty(spec.shape, spec.real.dtype)
    phase = np.empty_like(spec)
    for lo, hi in _frame_blocks(spec.shape[0], spec.shape[1], mag.dtype):
        m = np.abs(spec[:, lo:hi], out=mag[:, lo:hi])
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            inv = np.reciprocal(m)
            p = np.multiply(spec[:, lo:hi], inv, out=phase[:, lo:hi])
        p[np.isinf(inv)] = 1
    return MagPhase(magnitude=mag, phase=phase)
