import struct

import numpy as np
import pytest

from cwsep.wave_io import (
    MalformedWavError,
    TruncatedWavError,
    UnsupportedWavError,
    WavError,
    Waveform,
    read_wav,
    write_wav,
)


def make_wav_bytes(payload, audio_format=1, channels=1, sample_rate=44100, bits=16,
                   declared_size=None):
    block_align = channels * bits // 8
    if declared_size is None:
        declared_size = len(payload)
    return (
        b"RIFF"
        + struct.pack("<I", 36 + len(payload))
        + b"WAVE"
        + b"fmt "
        + struct.pack("<IHHIIHH", 16, audio_format, channels, sample_rate,
                      sample_rate * block_align, block_align, bits)
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


@pytest.mark.parametrize("kind", ["pcm16", "pcm24", "float32"])
def test_read_is_float32_and_exact(tmp_path, kind):
    # every format decodes losslessly into float32: the values equal a
    # float64 decode of the same bytes
    rng = np.random.default_rng(5)
    if kind == "pcm16":
        v = np.r_[-(2**15), 2**15 - 1, rng.integers(-(2**15), 2**15, 998)]
        payload, fmt, bits = v.astype("<i2").tobytes(), 1, 16
        oracle = v / 2.0**15
    elif kind == "pcm24":
        v = np.r_[-(2**23), 2**23 - 1, rng.integers(-(2**23), 2**23, 998)]
        payload = b"".join(int(i).to_bytes(3, "little", signed=True) for i in v)
        fmt, bits = 1, 24
        oracle = v / 2.0**23
    else:
        oracle = rng.standard_normal(1000).astype(np.float32).astype(np.float64)
        payload, fmt, bits = oracle.astype("<f4").tobytes(), 3, 32
    p = tmp_path / f"{kind}.wav"
    p.write_bytes(make_wav_bytes(payload, audio_format=fmt, channels=2, bits=bits))
    w = read_wav(p)
    assert w.samples.dtype == np.float32
    assert np.array_equal(w.samples.astype(np.float64), oracle.reshape(-1, 2).T)


def test_pcm16_clamps_positive_one(tmp_path):
    p = tmp_path / "c.wav"
    write_wav(Waveform(np.array([[1.0]]), 44100), p, format="pcm16")
    raw = p.read_bytes()
    (value,) = struct.unpack("<h", raw[-2:])
    assert value == 32767


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
