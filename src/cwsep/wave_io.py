"""RIFF/WAVE reading and writing.

Supports uncompressed PCM (16/24 bit) and IEEE float32, mono or stereo,
with a plain or a WAVE_FORMAT_EXTENSIBLE fmt chunk. Integer samples are
scaled to [-1, 1) by 2^(bits-1). No resampling, no compressed codecs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np


class WavError(Exception):
    """Base class for WAV file problems."""


class MalformedWavError(WavError):
    """Header is not a well-formed RIFF/WAVE structure."""


class UnsupportedWavError(WavError):
    """File is valid RIFF but uses a codec/layout we do not read."""


class TruncatedWavError(WavError):
    """Declared data-chunk size exceeds the bytes actually present."""


@dataclass(frozen=True)
class Waveform:
    """A finite real-valued signal, one row per channel, at a positive integer sample rate."""

    samples: np.ndarray  # [channels, length]
    sample_rate: int

    def __post_init__(self):
        s = np.asarray(self.samples)
        if s.ndim != 2:
            raise ValueError(f"samples must be 2-D [channels, length], got shape {s.shape}")
        if s.shape[0] not in (1, 2):
            raise ValueError(f"channels must be 1 or 2, got {s.shape[0]}")
        if type(self.sample_rate) is bool or not isinstance(self.sample_rate, (int, np.integer)):
            raise ValueError(f"sample_rate must be an integer, got {self.sample_rate!r}")
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if not np.all(np.isfinite(s)):
            raise ValueError("samples contain NaN or Inf")
        object.__setattr__(self, "samples", s)

    @property
    def num_channels(self) -> int:
        return self.samples.shape[0]

    @property
    def num_samples(self) -> int:
        return self.samples.shape[1]


_FMT_PCM = 1
_FMT_IEEE_FLOAT = 3
_FMT_EXTENSIBLE = 0xFFFE
# bytes 2..15 of every KSDATAFORMAT_SUBTYPE_* GUID; bytes 0..1 hold the format tag
_KSDATAFORMAT_SUFFIX = bytes.fromhex("000000001000800000aa00389b71")
# frames encoded per write: 512 KiB of stereo float32
WRITE_BLOCK_FRAMES = 1 << 16


def read_wav(path) -> Waveform:
    """Read a WAV file into a float32 Waveform.

    PCM samples are divided by 2^(bits-1), which is exact in float32 for
    16 and 24 bit; float data is passed through. The samples are decoded
    straight from the file's bytes into the one float32 array returned.
    Unknown chunks are skipped. Raises a WavError subclass naming the
    failure for unreadable files.
    """
    with open(path, "rb") as f:
        raw = f.read()

    if len(raw) < 12 or raw[0:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise MalformedWavError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    data = None  # (offset, size) of the data chunk's body
    pos = 12
    while pos + 8 <= len(raw):
        cid = raw[pos : pos + 4]
        (size,) = struct.unpack_from("<I", raw, pos + 4)
        body_start = pos + 8
        if cid == b"fmt ":
            if size < 16 or body_start + 16 > len(raw):
                raise MalformedWavError(f"{path}: fmt chunk too short")
            fmt = raw[body_start : body_start + size]
        elif cid == b"data":
            if body_start + size > len(raw):
                raise TruncatedWavError(
                    f"{path}: data chunk declares {size} bytes, "
                    f"only {len(raw) - body_start} present"
                )
            data = (body_start, size)
        # chunks are word-aligned
        pos = body_start + size + (size & 1)

    if fmt is None:
        raise MalformedWavError(f"{path}: missing fmt chunk")
    if data is None:
        raise MalformedWavError(f"{path}: missing data chunk")

    audio_format, channels, sample_rate, _, block_align, bits = struct.unpack_from("<HHIIHH", fmt)
    if audio_format == _FMT_EXTENSIBLE:
        if len(fmt) < 40:
            raise MalformedWavError(f"{path}: extensible fmt chunk shorter than 40 bytes")
        subformat = fmt[24:40]
        if subformat[2:] != _KSDATAFORMAT_SUFFIX:
            raise UnsupportedWavError(f"{path}: unknown extensible subformat {subformat.hex()}")
        (audio_format,) = struct.unpack_from("<H", subformat)
    if channels not in (1, 2):
        raise UnsupportedWavError(f"{path}: {channels} channels not supported")
    if sample_rate <= 0:
        raise MalformedWavError(f"{path}: bad sample rate {sample_rate}")

    if audio_format == _FMT_PCM and bits in (16, 24):
        scale = 2.0 ** (1 - bits)
    elif audio_format == _FMT_IEEE_FLOAT and bits == 32:
        scale = 1.0
    else:
        raise UnsupportedWavError(
            f"{path}: unsupported codec (format tag {audio_format}, {bits} bit)"
        )

    offset, size = data
    frames = size // (bits // 8 * channels)
    count = frames * channels
    if bits == 24:
        # each 3-byte sample in the top three bytes of an int32: 2^8 times its value
        wide = np.zeros((count, 4), np.uint8)
        wide[:, 1:] = np.frombuffer(raw, np.uint8, 3 * count, offset).reshape(count, 3)
        values, scale = wide.view("<i4"), scale / 2**8
    else:
        values = np.frombuffer(raw, "<i2" if bits == 16 else "<f4", count, offset)
    samples = np.empty((channels, frames), np.float32)
    np.multiply(values.reshape(frames, channels).T, scale, out=samples)
    return Waveform(samples, sample_rate)


def write_wav(w: Waveform, path, format: str = "pcm16") -> None:
    """Write a Waveform as 'pcm16' or 'float32'.

    pcm16 rounds half away from zero and clamps to [-1, 1 - 2^-15];
    float32 is lossless up to f32 precision. Samples are encoded and
    written WRITE_BLOCK_FRAMES frames at a time, so no whole-track copy
    is made.
    """
    if format not in ("pcm16", "float32"):
        raise ValueError(f"format must be 'pcm16' or 'float32', got {format!r}")
    starts = range(0, w.num_samples, WRITE_BLOCK_FRAMES)
    blocks = [w.samples[:, s : s + WRITE_BLOCK_FRAMES] for s in starts]
    if not all(np.all(np.isfinite(b)) for b in blocks):
        raise WavError("refusing to write NaN/Inf samples")

    if format == "pcm16":
        dtype, audio_format, bits = "<i2", _FMT_PCM, 16
    else:
        dtype, audio_format, bits = "<f4", _FMT_IEEE_FLOAT, 32
    channels = w.num_channels
    block_align = channels * bits // 8
    byte_rate = w.sample_rate * block_align
    data_bytes = w.num_samples * block_align
    header = (
        b"RIFF"
        + struct.pack("<I", 4 + 8 + 16 + 8 + data_bytes)
        + b"WAVE"
        + b"fmt "
        + struct.pack("<IHHIIHH", 16, audio_format, channels, w.sample_rate, byte_rate, block_align, bits)
        + b"data"
        + struct.pack("<I", data_bytes)
    )
    with open(path, "wb") as f:
        f.write(header)
        for block in blocks:
            frames = block.T  # [frames, channels]: interleaved once made contiguous
            if format == "pcm16":
                v = frames * 2.0**15
                # round half away from zero; v - trunc(v) is exact, where
                # |v| + 0.5 rounds up just below a half in v's own dtype
                t = np.trunc(v)
                q = t + np.sign(v) * (np.abs(v - t) >= 0.5)
                frames = np.clip(q, -32768, 32767)
            f.write(np.ascontiguousarray(frames, dtype=dtype))
        if data_bytes & 1:
            f.write(b"\x00")
