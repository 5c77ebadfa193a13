import dataclasses
import os
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from cwsep import (
    IdentityModel,
    PRESETS,
    Waveform,
    build,
    init_random,
    separate,
)
from cwsep import pipeline, spectral
from cwsep.cirm import NetworkOutput
from cwsep.pipeline import PipelineError

from conftest import noise_waveform


def within(timeout, fn, *args, **kwargs):
    """fn(*args, **kwargs) on a daemon thread; fails if it runs past `timeout` seconds."""
    box = {}

    def run():
        try:
            box["value"] = fn(*args, **kwargs)
        except BaseException as e:
            box["error"] = e

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"{fn.__name__} still running after {timeout} s"
    if "error" in box:
        raise box["error"]
    return box["value"]


def full_segment_frames(bands):
    """STFT frames of a segment of SEGMENT_SAMPLES input samples: 4096 / bands + 1."""
    return pipeline.SEGMENT_SAMPLES // bands // spectral.HOP + 1


class BadShortSegment:
    """Returns a wrongly shaped output for a segment shorter than a full one.

    Of a 15 s input only segment 1, the last, is short, whichever thread
    runs it.
    """

    out_sources = 1

    def forward(self, mag, pool=None):
        full = mag.shape[1] == full_segment_frames(mag.shape[0] // 2)
        return IdentityModel().forward(np.zeros(mag.shape if full else (1, 1, 1), mag.dtype))


class ShapeRecorder(IdentityModel):
    """An IdentityModel that keeps the shape of every magnitude it is given."""

    def __init__(self, out_sources=1):
        super().__init__(out_sources)
        self.shapes = []

    def forward(self, mag, pool=None):
        self.shapes.append(mag.shape)
        return super().forward(mag)


class NoSources:
    """A forward without `out_sources`."""

    def forward(self, mag, pool=None):
        return IdentityModel().forward(mag)


class TestSeparate:
    def test_empty_rejected(self, fb4):
        with pytest.raises(PipelineError):
            separate(Waveform(np.zeros((1, 0)), 44100), IdentityModel(), fb4)

    def test_wrong_rate_rejected(self, fb4):
        with pytest.raises(PipelineError):
            separate(Waveform(np.zeros((2, 48000)), 48000), IdentityModel(), fb4)

    def test_zero_input_zero_output(self, fb4):
        out = separate(Waveform(np.zeros((2, 44100)), 44100), IdentityModel(), fb4)[0]
        assert out.samples.shape == (2, 44100)
        assert np.max(np.abs(out.samples)) <= 1e-12

    def test_identity_cascade_snr(self, fb4):
        x = noise_waveform(3.0, channels=2, seed=21)
        est = separate(x, IdentityModel(), fb4)[0]
        assert est.samples.shape == x.samples.shape
        tr = 4096
        s = x.samples[:, tr:-tr]
        sh = est.samples[:, tr:-tr]
        snr = 10 * np.log10(np.sum(s**2) / np.sum((s - sh) ** 2))
        assert snr >= 55.0

    def test_delay_compensation_peak_at_zero_lag(self, fb4):
        x = noise_waveform(2.0, seed=22)
        est = separate(x, IdentityModel(), fb4)[0]
        a = x.samples[0, 8000:80000]
        b = est.samples[0]
        lags = range(-5, 6)
        corr = [float(np.dot(a, b[8000 + lag : 80000 + lag])) for lag in lags]
        assert list(lags)[int(np.argmax(corr))] == 0

    def test_mono_duplicated_to_stereo(self, fb4):
        x = noise_waveform(1.5, channels=1, seed=23)
        est = separate(x, IdentityModel(), fb4)[0]
        assert est.num_channels == 2
        assert np.array_equal(est.samples[0], est.samples[1])

    def test_random_tiny_model_smoke(self, fb4):
        model = init_random(build(PRESETS["tiny"]), seed=24)
        x = noise_waveform(2.0, channels=2, seed=25)
        outs = separate(x, model, fb4)
        assert len(outs) == 1
        assert outs[0].samples.shape == (2, x.num_samples)
        assert np.all(np.isfinite(outs[0].samples))

    @pytest.mark.parametrize("seconds", [20.0, 25.0])
    def test_identity_whole_signal_snr(self, fb4, seconds):
        # no edge trimming: segment boundaries and the delayed tail count
        x = noise_waveform(seconds, channels=2, seed=26)
        est = separate(x, IdentityModel(), fb4)[0]
        s, sh = x.samples, est.samples
        snr = 10 * np.log10(np.sum(s**2) / np.sum((s - sh) ** 2))
        assert snr >= 55.0

    @pytest.mark.parametrize(
        "bank, shape", [("fb2", (4, 2049, 257)), ("fb4", (8, 1025, 257)), ("fb8", (16, 513, 257))]
    )
    def test_every_segment_has_one_network_shape(self, request, bank, shape):
        # every full segment sees 4096 / bands + 1 frames; the last one,
        # 0.07 s of input plus the filter tail, sees fewer
        model = ShapeRecorder()
        x = noise_waveform(20.5, channels=2, seed=33)
        separate(x, model, request.getfixturevalue(bank))
        assert shape[1] == full_segment_frames(shape[0] // 2)
        # segments run on a thread pool, so their forwards come in any order
        shapes = sorted(model.shapes, key=lambda s: -s[1])
        assert shapes[:2] == [shape] * 2
        assert len(shapes) == 3 and shapes[2][1] < shape[1]

    @pytest.mark.parametrize("bank", ["fb4", "fb8"])
    def test_segments_match_one_segment_run(self, request, monkeypatch, bank):
        # every segment starts on the whole-track frame grid and pooling
        # phase, so away from the boundaries a segmented `tiny` run has
        # the bits of a one-segment run
        fb = request.getfixturevalue(bank)
        config = dataclasses.replace(PRESETS["tiny"], in_channels=2 * fb.num_bands)
        model = init_random(build(config), seed=47)
        x = noise_waveform(25.0, channels=2, seed=48)
        n, seg, margin = x.num_samples, pipeline.SEGMENT_SAMPLES, 22050
        segmented = separate(x, model, fb, workers=2)[0].samples
        monkeypatch.setattr(pipeline, "SEGMENT_SAMPLES", 2 * n)
        whole = separate(x, model, fb, workers=2)[0].samples
        t = np.arange(n)
        keep = (t >= margin) & (t < n - margin)
        for edge in range(seg, n, seg):
            keep &= np.abs(t - edge) > margin
        assert keep.sum() > n // 2
        assert np.array_equal(segmented[:, keep], whole[:, keep])

    @pytest.mark.parametrize("bank", ["fb2", "fb4", "fb8"])
    def test_edge_lengths(self, request, bank):
        # any length >= 1 comes back whole; the filter tail never becomes
        # a segment of its own
        fb = request.getfixturevalue(bank)
        seg = pipeline.SEGMENT_SAMPLES
        for n, forwards in ((1, 1), (100, 1), (seg, 1), (seg + 1, 2), (2 * seg, 2),
                            (2 * seg + 1, 3)):
            model = ShapeRecorder()
            x = Waveform(np.random.default_rng(n).standard_normal((1, n)), 44100)
            out = separate(x, model, fb)[0]
            assert out.samples.shape == (2, n)
            assert np.all(np.isfinite(out.samples))
            assert len(model.shapes) == forwards, n

    def test_network_input_is_channel_major(self, fb4):
        # rows 0..B-1 of the network input are the left channel's bands,
        # rows B..2B-1 the right channel's
        seen = []

        class Recorder(IdentityModel):
            def forward(self, mag, pool=None):
                seen.append(mag)
                return super().forward(mag)

        right = noise_waveform(1.0, seed=39).samples[0]
        x = Waveform(np.stack([np.zeros_like(right), right]), 44100)
        separate(x, Recorder(), fb4)
        (mag,) = seen
        assert not mag[:4].any()
        assert mag[4:].reshape(4, -1).any(axis=1).all()

    def test_workers_do_not_change_result(self, fb4):
        x = noise_waveform(20.0, channels=2, seed=27)
        serial = separate(x, IdentityModel(), fb4, workers=1)[0]
        threaded = separate(x, IdentityModel(), fb4, workers=4)[0]
        assert np.array_equal(serial.samples, threaded.samples)

    def test_workers_do_not_change_network_result(self, fb4):
        # segments on several threads share one Model and one pool, each
        # forward call spreads its row tiles over idle threads; a
        # deadlock fails instead of hanging
        model = init_random(build(PRESETS["tiny"]), seed=34)
        for seconds, workers in ((20.0, (2,)), (25.0, (2, 3))):
            x = noise_waveform(seconds, channels=2, seed=35)
            serial = separate(x, model, fb4, workers=1)[0]
            for n in workers:
                threaded = within(120.0, separate, x, model, fb4, workers=n)[0]
                assert np.array_equal(serial.samples, threaded.samples)

    def test_every_forward_gets_the_segment_pool(self, fb4):
        # 3 segments on 2 threads: a busy pool leaves a forward's tiles
        # to its own thread, so every forward may get the pool
        seen = []

        class Recorder(IdentityModel):
            def forward(self, mag, pool=None):
                seen.append(pool)
                return super().forward(mag)

        separate(noise_waveform(25.0, channels=2, seed=44), Recorder(), fb4, workers=2)
        assert len(seen) == 3
        assert isinstance(seen[0], ThreadPoolExecutor) and seen[0]._max_workers == 2
        assert all(pool is seen[0] for pool in seen)

    def test_negative_workers_rejected_before_work(self, fb4, monkeypatch):
        def no_analysis(*args):
            raise AssertionError("analysis ran")

        monkeypatch.setattr("cwsep.filterbank.analysis", no_analysis)
        x = noise_waveform(1.0, channels=2, seed=36)
        with pytest.raises(PipelineError, match="workers"):
            separate(x, IdentityModel(), fb4, workers=-1)

    @pytest.mark.parametrize(
        "model, bank, workers, cause",
        [
            (lambda: build(PRESETS["tiny"]), "fb8", 0,
             "model takes 8 input streams but the 8-band bank gives 16 (2 channels x bands)"),
            (lambda: build(PRESETS["tiny"]), "fb2", 0,
             "model takes 8 input streams but the 2-band bank gives 4 (2 channels x bands)"),
            (NoSources, "fb4", 0, "model.out_sources must be an int >= 1, got None"),
            (lambda: IdentityModel(0), "fb4", 0, "model.out_sources must be an int >= 1, got 0"),
            (lambda: IdentityModel(True), "fb4", 0,
             "model.out_sources must be an int >= 1, got True"),
            (IdentityModel, "fb4", 1.5, "workers must be an int >= 0 (0 = one per CPU), got 1.5"),
            (IdentityModel, "fb4", "2", "workers must be an int >= 0 (0 = one per CPU), got '2'"),
            (IdentityModel, "fb4", True,
             "workers must be an int >= 0 (0 = one per CPU), got True"),
        ],
        ids=["tiny-fb8", "tiny-fb2", "no-out-sources", "zero-sources", "bool-sources",
             "float-workers", "str-workers", "bool-workers"],
    )
    def test_broken_rule_named_before_work(self, request, monkeypatch, model, bank, workers,
                                           cause):
        def no_analysis(*args):
            raise AssertionError("analysis ran")

        monkeypatch.setattr("cwsep.filterbank.analysis", no_analysis)
        x = noise_waveform(1.0, channels=2, seed=36)
        with pytest.raises(PipelineError) as err:
            separate(x, model(), request.getfixturevalue(bank), workers=workers)
        assert str(err.value) == cause

    def test_zero_workers_count_the_cpus_this_process_may_use(self, fb4, monkeypatch):
        # under taskset or a cpuset the affinity mask, not the host's CPU count
        seen = []

        class Recorder(IdentityModel):
            def forward(self, mag, pool=None):
                seen.append(pool._max_workers)
                return super().forward(mag)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        separate(noise_waveform(1.0, channels=2, seed=43), Recorder(), fb4, workers=0)
        assert seen == [3]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_output_is_float32(self, fb4, dtype):
        x = noise_waveform(1.0, channels=2, seed=31)
        est = separate(Waveform(x.samples.astype(dtype), 44100), IdentityModel(2), fb4)
        assert [e.samples.dtype for e in est] == [np.float32, np.float32]

    def test_failing_segment_is_named(self, fb4):
        x = noise_waveform(15.0, channels=2, seed=32)
        with pytest.raises(PipelineError, match=r"segment 1 \(from 10\.2168 s\)"):
            separate(x, BadShortSegment(), fb4, workers=1)

    def test_float32_overflow_named_before_analysis(self, fb4, monkeypatch):
        # the float32 copy is the one cast; a finite float64 beyond its
        # range would reach synthesis as Inf
        def no_analysis(*args):
            raise AssertionError("analysis ran")

        monkeypatch.setattr("cwsep.filterbank.analysis", no_analysis)
        samples = noise_waveform(1.0, channels=2, seed=49).samples
        samples[1, 100] = -1e39
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PipelineError, match="float32 range"):
                separate(Waveform(samples, 44100), IdentityModel(), fb4)

    def test_failing_stage_is_named(self, fb4):
        class RaisingForward:
            out_sources = 1

            def forward(self, mag, pool=None):
                raise ValueError("weights exploded")

        class WrongShape:
            out_sources = 1

            def forward(self, mag, pool=None):
                return IdentityModel().forward(np.zeros((1, 1, 1), dtype=mag.dtype))

        class NanMask:
            out_sources = 1

            def forward(self, mag, pool=None):
                return [NetworkOutput(np.full_like(mag, np.nan), mag, mag, mag)]

        x = noise_waveform(1.0, channels=2, seed=33)
        with pytest.raises(PipelineError, match=r"segment 0 \(from 0 s\), forward: weights"):
            separate(x, RaisingForward(), fb4)
        with pytest.raises(PipelineError, match=r"segment 0 \(from 0 s\), cirm: "):
            separate(x, WrongShape(), fb4)
        with pytest.raises(PipelineError) as err:
            separate(x, NanMask(), fb4)
        assert str(err.value) == "segment 0 (from 0 s), forward: mask_logits contains NaN/Inf"

    def test_shape_mismatch_names_the_segment_shapes(self, fb4):
        # the shapes are checked for the whole segment, before its first frame block
        seen = []

        class WrongShape:
            out_sources = 1

            def forward(self, mag, pool=None):
                seen.append(mag.shape)
                return IdentityModel().forward(np.zeros((1, 1, 1), dtype=mag.dtype))

        with pytest.raises(PipelineError) as err:
            separate(noise_waveform(1.0, channels=2, seed=46), WrongShape(), fb4)
        expected = f"cirm: network output shape (1, 1, 1) != mixture shape {seen[0]}"
        assert str(err.value).endswith(expected)

    def test_decode_overflow_is_named(self, fb4):
        # a finite residual of 1e37 overflows float32 in the inverse FFT, 1e36 does not;
        # "always" keeps a warning a warning, where the suite's filter makes it an error
        class HugeResidual(IdentityModel):
            def __init__(self, residual):
                super().__init__()
                self.residual = np.float32(residual)

            def forward(self, mag, pool=None):
                (out,) = super().forward(mag)
                return [dataclasses.replace(out, mag_residual=out.mag_residual + self.residual)]

        x = noise_waveform(3.0, channels=2, seed=50)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            separate(x, HugeResidual(1e36), fb4)
            with pytest.raises(PipelineError) as err:
                separate(x, HugeResidual(1e37), fb4)
        assert [str(w.message) for w in caught] == []
        assert str(err.value).startswith("segment 0 (from 0 s), istft: overflow encountered")

    def test_frame_blocks_do_not_change_result(self, fb4, monkeypatch):
        # one frame per block, and one block for more than a segment's
        # frames, give the bits of the default blocks
        class Shaped:
            out_sources = 2

            def forward(self, mag, pool=None):
                return [
                    NetworkOutput(mask_logits=mag - k, phase_real=np.cos(mag),
                                  phase_imag=np.sin(k * mag), mag_residual=-0.1 * mag)
                    for k in (1, 2)
                ]

        x = noise_waveform(12.0, channels=2, seed=45)
        default = separate(x, Shaped(), fb4, workers=2)
        for block_bytes in (1, 1 << 40):
            monkeypatch.setattr(spectral, "FRAME_BLOCK_BYTES", block_bytes)
            blocked = separate(x, Shaped(), fb4, workers=2)
            for a, b in zip(default, blocked, strict=True):
                assert np.array_equal(a.samples, b.samples)

    @pytest.mark.parametrize("sources, returned", [(1, 2), (2, 1)])
    def test_source_count_mismatch_is_named(self, fb4, sources, returned):
        class Miscounted:
            out_sources = sources

            def forward(self, mag, pool=None):
                return IdentityModel(returned).forward(mag)

        x = noise_waveform(1.0, channels=2, seed=40)
        with pytest.raises(PipelineError, match=r"segment 0 \(from 0 s\), forward: .*out_sources"):
            separate(x, Miscounted(), fb4)

    def test_peak_memory_in_input_bytes(self, fb4):
        # 60 s is six segments. Per-segment estimate lists joined by
        # np.concatenate, a second float32 copy of the input and a
        # separate identity output for each source read 7.5x; a
        # whole-segment masked spectrogram and iSTFT frames array read
        # 4.9x; cIRM and iSTFT in frame blocks, with the band streams
        # freed before synthesis and one estimate array per source, freed
        # once synthesised, read 4.09x (numpy 2.4)
        x = noise_waveform(60.0, channels=2, seed=41)
        tracemalloc.start()
        try:
            separate(x, IdentityModel(4), fb4, workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.29 * x.samples.nbytes


class TestBlasThreads:
    def test_one_blas_thread_while_the_pool_runs(self, fb4):
        # a numpy built on scipy-openblas must expose its thread control;
        # on another BLAS only the run itself is checked
        control = pipeline._openblas()
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        if blas == "scipy-openblas":
            assert control is not None, "numpy's scipy-openblas thread control not found"
        seen = []

        class Recorder(IdentityModel):
            def forward(self, mag, pool=None):
                seen.append(control[0]() if control else None)
                return super().forward(mag)

        x = noise_waveform(15.0, channels=2, seed=42)
        if control is None:
            separate(x, Recorder(), fb4, workers=2)
            return
        get, set_ = control
        before = get()
        set_(2)
        try:
            separate(x, Recorder(), fb4, workers=2)
            assert seen == [1, 1]
            assert get() == 2
            with pytest.raises(PipelineError, match=r"segment 1 \(from 10\.2168 s\)"):
                separate(x, BadShortSegment(), fb4, workers=2)
            assert get() == 2
            separate(x, Recorder(), fb4, workers=1)
            assert seen[2:] == [1, 1]
            assert get() == 2

            # concurrent calls share one hold; the last one out restores
            def two_at_once():
                with ThreadPoolExecutor(max_workers=2) as calls:
                    runs = [calls.submit(separate, x, IdentityModel(), fb4, 2) for _ in range(2)]
                    return [run.result() for run in runs]

            within(120.0, two_at_once)
            assert get() == 2
        finally:
            set_(before)
