"""RIFF/WAVE reading and writing.

Supports uncompressed PCM (16/24 bit) and IEEE float32, mono or stereo.
Integer samples are scaled to [-1, 1) by 2^(bits-1). No resampling, no
compressed codecs.
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
    """A finite real-valued signal, one row per channel."""

    samples: np.ndarray  # [channels, length]
    sample_rate: int

    def __post_init__(self):
        s = np.asarray(self.samples)
        if s.ndim != 2:
            raise ValueError(f"samples must be 2-D [channels, length], got shape {s.shape}")
        if s.shape[0] not in (1, 2):
            raise ValueError(f"channels must be 1 or 2, got {s.shape[0]}")
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

    @property
    def duration(self) -> float:
        return self.num_samples / self.sample_rate


_FMT_PCM = 1
_FMT_IEEE_FLOAT = 3


def read_wav(path) -> Waveform:
    """Read a WAV file into a float32 Waveform.

    PCM samples are divided by 2^(bits-1), which is exact in float32 for
    16 and 24 bit; float data is passed through.
    Unknown chunks are skipped. Raises a WavError subclass naming the
    failure for unreadable files.
    """
    with open(path, "rb") as f:
        raw = f.read()

    if len(raw) < 12 or raw[0:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise MalformedWavError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(raw):
        cid = raw[pos : pos + 4]
        (size,) = struct.unpack_from("<I", raw, pos + 4)
        body_start = pos + 8
        if cid == b"fmt ":
            if size < 16 or body_start + 16 > len(raw):
                raise MalformedWavError(f"{path}: fmt chunk too short")
            fmt = struct.unpack_from("<HHIIHH", raw, body_start)
        elif cid == b"data":
            if body_start + size > len(raw):
                raise TruncatedWavError(
                    f"{path}: data chunk declares {size} bytes, "
                    f"only {len(raw) - body_start} present"
                )
            data = raw[body_start : body_start + size]
        # chunks are word-aligned
        pos = body_start + size + (size & 1)

    if fmt is None:
        raise MalformedWavError(f"{path}: missing fmt chunk")
    if data is None:
        raise MalformedWavError(f"{path}: missing data chunk")

    audio_format, channels, sample_rate, _, block_align, bits = fmt
    if channels not in (1, 2):
        raise UnsupportedWavError(f"{path}: {channels} channels not supported")
    if sample_rate <= 0:
        raise MalformedWavError(f"{path}: bad sample rate {sample_rate}")

    if audio_format == _FMT_PCM and bits == 16:
        x = np.frombuffer(data[: len(data) - len(data) % 2], dtype="<i2").astype(np.float32)
        x /= 2.0**15
    elif audio_format == _FMT_PCM and bits == 24:
        usable = len(data) - len(data) % 3
        b = np.frombuffer(data[:usable], dtype=np.uint8).reshape(-1, 3).astype(np.int32)
        v = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
        v = np.where(v >= 1 << 23, v - (1 << 24), v)
        x = v.astype(np.float32) / 2.0**23
    elif audio_format == _FMT_IEEE_FLOAT and bits == 32:
        x = np.frombuffer(data[: len(data) - len(data) % 4], dtype="<f4").astype(np.float32)
    else:
        raise UnsupportedWavError(
            f"{path}: unsupported codec (format tag {audio_format}, {bits} bit)"
        )

    frames = len(x) // channels
    samples = x[: frames * channels].reshape(frames, channels).T
    return Waveform(np.ascontiguousarray(samples), sample_rate)


def write_wav(w: Waveform, path, format: str = "pcm16") -> None:
    """Write a Waveform as 'pcm16' or 'float32'.

    pcm16 rounds half away from zero and clamps to [-1, 1 - 2^-15];
    float32 is lossless up to f32 precision.
    """
    if format not in ("pcm16", "float32"):
        raise ValueError(f"format must be 'pcm16' or 'float32', got {format!r}")
    if not np.all(np.isfinite(w.samples)):
        raise WavError("refusing to write NaN/Inf samples")

    interleaved = np.ascontiguousarray(w.samples.T)  # [frames, channels]
    if format == "pcm16":
        v = interleaved * 2.0**15
        q = np.sign(v) * np.floor(np.abs(v) + 0.5)  # round half away from zero
        q = np.clip(q, -32768, 32767)
        payload = q.astype("<i2").tobytes()
        audio_format, bits = _FMT_PCM, 16
    else:
        payload = interleaved.astype("<f4").tobytes()
        audio_format, bits = _FMT_IEEE_FLOAT, 32

    channels = w.num_channels
    block_align = channels * bits // 8
    byte_rate = w.sample_rate * block_align
    header = (
        b"RIFF"
        + struct.pack("<I", 4 + 8 + 16 + 8 + len(payload))
        + b"WAVE"
        + b"fmt "
        + struct.pack("<IHHIIHH", 16, audio_format, channels, w.sample_rate, byte_rate, block_align, bits)
        + b"data"
        + struct.pack("<I", len(payload))
    )
    with open(path, "wb") as f:
        f.write(header)
        f.write(payload)
        if len(payload) & 1:
            f.write(b"\x00")
