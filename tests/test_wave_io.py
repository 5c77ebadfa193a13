import hashlib
import struct
import tracemalloc

import numpy as np
import pytest

from cwsep import wave_io
from cwsep.wave_io import (
    MalformedWavError,
    TruncatedWavError,
    UnsupportedWavError,
    WavError,
    Waveform,
    read_wav,
    write_wav,
)


# KSDATAFORMAT_SUBTYPE_PCM is 00000001-0000-0010-8000-00aa00389b71; the
# float subtype differs only in its first field (3)
KS_SUFFIX = bytes.fromhex("000000001000800000aa00389b71")


def extensible_fmt(audio_format, channels, sample_rate, bits, subformat=None):
    """A 40-byte WAVE_FORMAT_EXTENSIBLE fmt body carrying `audio_format` in its GUID."""
    block_align = channels * bits // 8
    if subformat is None:
        subformat = struct.pack("<H", audio_format) + KS_SUFFIX
    return (
        struct.pack("<HHIIHH", 0xFFFE, channels, sample_rate, sample_rate * block_align,
                    block_align, bits)
        + struct.pack("<HHI", 22, bits, (1 << channels) - 1)
        + subformat
    )


def make_wav_bytes(payload, audio_format=1, channels=1, sample_rate=44100, bits=16,
                   declared_size=None, fmt_body=None):
    block_align = channels * bits // 8
    if declared_size is None:
        declared_size = len(payload)
    if fmt_body is None:
        fmt_body = struct.pack("<HHIIHH", audio_format, channels, sample_rate,
                               sample_rate * block_align, block_align, bits)
    return (
        b"RIFF"
        + struct.pack("<I", 20 + len(fmt_body) + len(payload))
        + b"WAVE"
        + b"fmt "
        + struct.pack("<I", len(fmt_body))
        + fmt_body
        + b"data"
        + struct.pack("<I", declared_size)
        + payload
    )


def test_pcm16_full_negative_swing(tmp_path):
    p = tmp_path / "a.wav"
    p.write_bytes(make_wav_bytes(struct.pack("<h", -32768)))
    w = read_wav(p)
    assert w.samples[0, 0] == -1.0


def test_pcm16_half_scale(tmp_path):
    p = tmp_path / "a.wav"
    p.write_bytes(make_wav_bytes(struct.pack("<h", 16384)))
    assert read_wav(p).samples[0, 0] == 0.5


def test_float32_passthrough(tmp_path):
    p = tmp_path / "a.wav"
    p.write_bytes(make_wav_bytes(struct.pack("<2f", 0.25, -0.25), audio_format=3, bits=32))
    w = read_wav(p)
    assert w.sample_rate == 44100
    assert w.num_channels == 1
    assert np.array_equal(w.samples, [[0.25, -0.25]])


def test_pcm24_scaling(tmp_path):
    p = tmp_path / "a.wav"
    # -2^23 and +2^22 as 3-byte little-endian
    payload = b"\x00\x00\x80" + b"\x00\x00\x40"
    p.write_bytes(make_wav_bytes(payload, bits=24))
    w = read_wav(p)
    assert w.samples[0, 0] == -1.0
    assert w.samples[0, 1] == 0.5


def test_float32_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 44100)).astype(np.float32).astype(np.float64) * 0.5
    w = Waveform(x, 44100)
    p = tmp_path / "rt.wav"
    write_wav(w, p, format="float32")
    back = read_wav(p)
    assert back.sample_rate == 44100
    assert back.num_channels == 2
    assert np.array_equal(back.samples, x.astype(np.float32).astype(np.float64))


@pytest.mark.parametrize(
    "kind",
    ["pcm16", "pcm24", "float32", "pcm16-extensible", "pcm24-extensible", "float32-extensible"],
)
def test_read_is_float32_and_exact(tmp_path, kind):
    # every format decodes losslessly into float32: the values equal a
    # float64 decode of the same bytes, with a plain or an extensible fmt
    rng = np.random.default_rng(5)
    if kind.startswith("pcm16"):
        v = np.r_[-(2**15), 2**15 - 1, rng.integers(-(2**15), 2**15, 998)]
        payload, fmt, bits = v.astype("<i2").tobytes(), 1, 16
        oracle = v / 2.0**15
    elif kind.startswith("pcm24"):
        v = np.r_[-(2**23), 2**23 - 1, rng.integers(-(2**23), 2**23, 998)]
        payload = b"".join(int(i).to_bytes(3, "little", signed=True) for i in v)
        fmt, bits = 1, 24
        oracle = v / 2.0**23
    else:
        oracle = rng.standard_normal(1000).astype(np.float32).astype(np.float64)
        payload, fmt, bits = oracle.astype("<f4").tobytes(), 3, 32
    body = extensible_fmt(fmt, 2, 44100, bits) if kind.endswith("extensible") else None
    p = tmp_path / f"{kind}.wav"
    p.write_bytes(make_wav_bytes(payload, audio_format=fmt, channels=2, bits=bits,
                                 fmt_body=body))
    w = read_wav(p)
    assert w.samples.dtype == np.float32
    assert np.array_equal(w.samples.astype(np.float64), oracle.reshape(-1, 2).T)


def test_pcm16_clamps_positive_one(tmp_path):
    p = tmp_path / "c.wav"
    write_wav(Waveform(np.array([[1.0]]), 44100), p, format="pcm16")
    raw = p.read_bytes()
    (value,) = struct.unpack("<h", raw[-2:])
    assert value == 32767


@pytest.mark.parametrize("dtype, below_half", [
    (np.float32, 0.5 - 2.0**-25),
    (np.float64, 0.5 - 2.0**-25),
    (np.float64, 0.5 - 2.0**-54),
], ids=["f32-2^-25", "f64-2^-25", "f64-2^-54"])
def test_pcm16_rounds_just_below_half_an_lsb_to_zero(tmp_path, dtype, below_half):
    # |v| + 0.5 rounds up to 1.0 in the sample's own dtype at these values
    x = np.array([[below_half, -below_half, 0.5, -0.5]], dtype=dtype) / dtype(2**15)
    p = tmp_path / "h.wav"
    write_wav(Waveform(x, 44100), p, format="pcm16")
    assert struct.unpack("<4h", p.read_bytes()[-8:]) == (0, 0, 1, -1)


def test_pcm16_round_trip_quantization(tmp_path):
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, size=(2, 10000))
    p = tmp_path / "q.wav"
    write_wav(Waveform(x, 44100), p, format="pcm16")
    back = read_wav(p)
    assert np.max(np.abs(back.samples - x)) <= 2.0**-15
    # independent quantization oracle: round half away from zero, clamp
    q = np.clip(np.sign(x * 32768) * np.floor(np.abs(x * 32768) + 0.5), -32768, 32767)
    assert np.array_equal(back.samples, q / 32768.0)


@pytest.mark.parametrize("fmt", ["pcm16", "float32"])
def test_round_trip_preserves_layout(tmp_path, fmt):
    rng = np.random.default_rng(2)
    # stay inside [-1, 1) so pcm16 never clamps
    w = Waveform(rng.uniform(-0.9, 0.9, size=(2, 5000)), 22050)
    p = tmp_path / "l.wav"
    write_wav(w, p, format=fmt)
    back = read_wav(p)
    assert back.sample_rate == 22050
    assert back.num_channels == 2
    assert back.num_samples == 5000
    step = 2.0**-15 if fmt == "pcm16" else 2.0**-23
    assert np.max(np.abs(back.samples - w.samples)) <= step


def edge_signal():
    """Seeded stereo with pcm16 rounding ties, both clamp edges and signed zeros."""
    rng = np.random.default_rng(11)
    x = rng.uniform(-1.2, 1.2, size=(2, 3001))
    x[0, :80] = (np.arange(-40, 40) + 0.5) / 2**15
    x[1, :6] = [1.0, -1.0, 1 - 2**-16, -1 - 2**-16, 0.0, -0.0]
    return x


# sha256 prefixes of the files written by whole-track encoding (one
# interleaved copy, astype, tobytes) for (sample dtype, channels, format)
WRITTEN_SHA256 = {
    ("float64", 1, "pcm16"): "e7b3609ac3273b5c",
    ("float64", 1, "float32"): "2e41d33f9a8d41c9",
    ("float64", 2, "pcm16"): "d612166f19f8c134",
    ("float64", 2, "float32"): "f83f42c1a1d0fee6",
    ("float32", 1, "pcm16"): "a0cb86ac8da3d084",
    ("float32", 1, "float32"): "2e41d33f9a8d41c9",
    ("float32", 2, "pcm16"): "8ae27b81607517f3",
    ("float32", 2, "float32"): "f83f42c1a1d0fee6",
}


@pytest.mark.parametrize("block_frames", [wave_io.WRITE_BLOCK_FRAMES, 1000, 1])
@pytest.mark.parametrize("key", sorted(WRITTEN_SHA256))
def test_written_bytes_are_fixed(tmp_path, monkeypatch, key, block_frames):
    dtype, channels, fmt = key
    monkeypatch.setattr(wave_io, "WRITE_BLOCK_FRAMES", block_frames)
    p = tmp_path / "e.wav"
    write_wav(Waveform(edge_signal()[:channels].astype(dtype), 44100), p, format=fmt)
    assert hashlib.sha256(p.read_bytes()).hexdigest()[:16] == WRITTEN_SHA256[key]


@pytest.mark.parametrize("fmt, read_bound", [("float32", 1.4), ("pcm16", 0.9)])
def test_no_whole_track_copies(tmp_path, fmt, read_bound):
    # 60 s of float32 stereo. Whole-track interleaving, astype and
    # tobytes read 3x (float32) and 5x (pcm16) the sample bytes on
    # writing; slicing, astype and transposing read 4.25x and 3.25x on
    # reading. A write now holds a few encoded blocks, a read the file's
    # bytes, the float32 samples it returns and their finite check.
    rng = np.random.default_rng(12)
    w = Waveform(rng.uniform(-0.9, 0.9, size=(2, 60 * 44100)).astype(np.float32), 44100)
    p = tmp_path / "m.wav"
    tracemalloc.start()
    try:
        write_wav(w, p, format=fmt)
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        back = read_wav(p)
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert write_peak <= 0.25 * w.samples.nbytes
    assert read_peak - back.samples.nbytes <= read_bound * w.samples.nbytes
    assert back.samples.flags.c_contiguous


def test_truncated_data_chunk_rejected(tmp_path):
    p = tmp_path / "t.wav"
    p.write_bytes(make_wav_bytes(struct.pack("<h", 0), declared_size=1000))
    with pytest.raises(TruncatedWavError):
        read_wav(p)


def test_non_riff_rejected(tmp_path):
    p = tmp_path / "x.wav"
    p.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(MalformedWavError):
        read_wav(p)


def test_unsupported_codec_rejected(tmp_path):
    p = tmp_path / "u.wav"
    p.write_bytes(make_wav_bytes(b"\x00\x00", audio_format=2))
    with pytest.raises(UnsupportedWavError):
        read_wav(p)


def test_short_extensible_fmt_rejected(tmp_path):
    # an 18-byte extensible fmt chunk ends before the subformat GUID
    body = extensible_fmt(1, 1, 44100, 16)[:18]
    p = tmp_path / "s.wav"
    p.write_bytes(make_wav_bytes(b"\x00\x00", fmt_body=body))
    with pytest.raises(MalformedWavError):
        read_wav(p)


@pytest.mark.parametrize(
    "subformat",
    [struct.pack("<H", 2) + KS_SUFFIX, struct.pack("<H", 1) + bytes(14)],
    ids=["adpcm", "foreign-guid"],
)
def test_unknown_extensible_subformat_rejected(tmp_path, subformat):
    body = extensible_fmt(1, 1, 44100, 16, subformat=subformat)
    p = tmp_path / "x.wav"
    p.write_bytes(make_wav_bytes(b"\x00\x00", fmt_body=body))
    with pytest.raises(UnsupportedWavError):
        read_wav(p)


def test_unsupported_bit_depth_rejected(tmp_path):
    p = tmp_path / "u8.wav"
    p.write_bytes(make_wav_bytes(b"\x80", bits=8))
    with pytest.raises(UnsupportedWavError):
        read_wav(p)


def test_unknown_chunks_ignored(tmp_path):
    payload = struct.pack("<h", 16384)
    base = make_wav_bytes(payload)
    # splice a junk chunk between fmt and data
    head, data_part = base[:36], base[36:]
    junk = b"junk" + struct.pack("<I", 4) + b"beef"
    p = tmp_path / "j.wav"
    p.write_bytes(head + junk + data_part)
    assert read_wav(p).samples[0, 0] == 0.5


def test_nan_refused():
    w = Waveform.__new__(Waveform)
    object.__setattr__(w, "samples", np.array([[np.nan]]))
    object.__setattr__(w, "sample_rate", 44100)
    with pytest.raises(WavError):
        write_wav(w, "/tmp/never.wav", format="float32")


def test_waveform_invariants():
    with pytest.raises(ValueError):
        Waveform(np.zeros((3, 10)), 44100)
    with pytest.raises(ValueError):
        Waveform(np.zeros((1, 10)), 0)
    with pytest.raises(ValueError):
        Waveform(np.array([[np.inf]]), 44100)


@pytest.mark.parametrize("rate", [44100.5, 44100.0, True, "44100"])
def test_sample_rate_must_be_an_integer(rate):
    # 44100.5 was accepted, and write_wav then failed in struct.pack
    with pytest.raises(ValueError, match="sample_rate must be an integer"):
        Waveform(np.zeros((1, 10)), rate)


def test_numpy_integer_sample_rate_is_written(tmp_path):
    p = tmp_path / "np_rate.wav"
    write_wav(Waveform(np.zeros((1, 10)), np.int64(22050)), p, format="pcm16")
    assert read_wav(p).sample_rate == 22050
