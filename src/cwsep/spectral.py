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
transform follows its data's precision, in its results and its
arithmetic: float32 streams give complex64 spectrograms, and istft runs
in its output array's dtype. numpy
(2.0 to 2.4 at least) runs `rfft` with the default norm in pocketfft's
float64 loop even for float32 input and rounds the result, so
stft_streams folds the FFT size into the window and asks for
norm="forward", whose float32 scale factor selects the float32 loop.
The factor is a power of two, so float64 input keeps the bits of the
unnormalised transform.

Both directions work on blocks of frames whose time-domain frames take
at most FRAME_BLOCK_BYTES, so neither builds a whole-signal frames
array. istft asks its caller for each block just before it inverts
it, so a caller that computes the spectrogram need not hold all of it.
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
# rows of HOP samples a frame spans: WIN_LENGTH taps, zero-padded
_TAP_ROWS = -(-WIN_LENGTH // HOP)


@dataclass(frozen=True, eq=False)
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


def _overlap_add(acc: np.ndarray, frames: np.ndarray, first: int) -> None:
    """Add frames [..., count, WIN_LENGTH] into acc [..., rows, HOP] from frame `first` on.

    Sample q * HOP + r of frame t is tap (q - t) * HOP + r, so the frames
    add as _TAP_ROWS shifted row blocks. Adding the rows from the last
    down keeps every sample's sum in frame order.
    """
    count = frames.shape[-2]
    for m in reversed(range(_TAP_ROWS)):
        taps = frames[..., m * HOP : (m + 1) * HOP]
        acc[..., first + m : first + m + count, : taps.shape[-1]] += taps


def _window_sum(num_frames: int, dtype) -> np.ndarray:
    """Overlap-added squared windows of num_frames frames, summed in frame order."""
    win_sq = _hann(WIN_LENGTH).astype(dtype) ** 2
    norm = np.zeros((num_frames + _TAP_ROWS - 1, HOP), dtype)
    _overlap_add(norm, np.broadcast_to(win_sq, (num_frames, WIN_LENGTH)), 0)
    return norm.reshape(-1)[: WIN_LENGTH + (num_frames - 1) * HOP]


def istft(block, num_frames: int, out: np.ndarray) -> np.ndarray:
    """Weighted overlap-add inverse of a num_frames-frame spectrogram into out [channels, n].

    block(lo, hi) returns frames lo:hi as [channels, hi - lo, BINS]; it
    is called once per frame block, in order, and each block's inverse
    FFT, window and overlap-add run while it is in cache. The arithmetic
    is in out's dtype and equals that of one whole-spectrogram pass.
    Returns out.
    """
    channels, n = out.shape
    pad = WIN_LENGTH // 2
    covered = WIN_LENGTH + (num_frames - 1) * HOP - pad
    if n > covered:
        raise ValueError(f"requested {n} samples but {num_frames} frames only cover {covered}")
    acc = np.zeros((channels, num_frames + _TAP_ROWS - 1, HOP), out.dtype)
    win = _hann(WIN_LENGTH).astype(out.dtype)
    frames = None
    for lo, hi in _frame_blocks(channels, num_frames, out.dtype):
        spec = block(lo, hi)
        if spec.shape != (channels, hi - lo, BINS):
            raise ValueError(
                f"frames {lo}:{hi} must be [{channels}, {hi - lo}, {BINS}], got {spec.shape}"
            )
        if frames is None:  # the first block is the largest
            frames = np.empty((channels, hi - lo, WIN_LENGTH), out.dtype)
        part = np.fft.irfft(spec, n=WIN_LENGTH, axis=2, out=frames[:, : hi - lo])
        part *= win
        _overlap_add(acc, part, lo)
    norm = np.maximum(_window_sum(num_frames, out.dtype)[pad : pad + n], NORM_FLOOR)
    return np.divide(acc.reshape(channels, -1)[:, pad : pad + n], norm, out=out)


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
