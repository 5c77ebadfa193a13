"""End-to-end separation driver.

The filterbank runs once per track, on the input plus the filter tail.
Only the network stage (STFT -> network -> cIRM -> iSTFT) runs on
rectangular segments of SEGMENT_SAMPLES input samples, whole 32-frame
blocks of the track's frame grid; the last takes the rest and the tail.
spectral.istft asks apply_cirm for one frame block at a time, so no
whole-segment masked spectrogram is built. Each segment writes its
columns of one float32 [channels * bands, length] estimate array per
source, which is synthesised once, then freed, and cut at the delay.

Segments run independently on a thread pool of `workers` threads, so
the output does not depend on the number of workers; the filterbank
never sees a segment boundary. Every forward pass gets the same pool
and spreads its convs over the threads no segment is using. numpy's
bundled OpenBLAS is held at one thread meanwhile, so the pool's threads
are the only ones.

A model has `out_sources`, an int >= 1, and `forward(mag, pool=None)`,
which maps a float32 magnitude [channels * bands, frames, spectral.BINS]
to a sequence of exactly `out_sources` cirm.NetworkOutputs shaped like
`mag`. `pool` is the segment pool, which the model may use for its own
jobs (`IdentityModel` ignores it), or None; its output must not depend
on it. A model that declares `in_channels` takes that many streams,
which must be 2 x bands; `separate` checks both before any work.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import filterbank as fbmod
from . import spectral
from .cirm import NetworkOutput, apply_cirm, frame_views
from .filterbank import FilterBank
from .wave_io import Waveform

PIPELINE_RATE = 44100
# 10.2168 s: 2048 / 1024 / 512 frame hops of the 2- / 4- / 8-band streams
SEGMENT_SAMPLES = 4096 * spectral.HOP


class PipelineError(Exception):
    pass


class IdentityModel:
    """A model whose every source is the mixture: all DSP, no network.

    Mask logits 40 (sigmoid(40) == 1 in float32 and float64), phase
    vector (1, 0) and residual 0, in mag's shape and dtype. It ships for
    the benchmark's network-free workload, and the tests build their
    model doubles on it.
    """

    def __init__(self, out_sources: int = 1):
        self.out_sources = out_sources

    def forward(self, mag, pool=None):
        ones, zeros = np.ones_like(mag), np.zeros_like(mag)
        # NetworkOutput is immutable, so one instance serves every source
        return [NetworkOutput(40 * ones, ones, zeros, zeros)] * self.out_sources


@functools.cache
def _openblas():
    """numpy's bundled OpenBLAS thread-count getter and setter, or None without them."""
    try:
        umath = importlib.import_module("numpy._core._multiarray_umath")
        lib = ctypes.CDLL(umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


class _OneBlasThread:
    """Holds numpy's OpenBLAS at one thread; does nothing without its control.

    The thread count is process-wide, so concurrent holds share one:
    the first saves the count and sets 1, the last restores it.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._holders = 0
        self._before = None

    @contextlib.contextmanager
    def hold(self):
        control = _openblas()
        if control is None:
            yield
            return
        get, set_ = control
        with self._lock:
            if self._holders == 0:
                self._before = get()
                set_(1)
            self._holders += 1
        try:
            yield
        finally:
            with self._lock:
                self._holders -= 1
                if self._holders == 0:
                    set_(self._before)


_ONE_BLAS_THREAD = _OneBlasThread()


def _usable_cpus():
    """CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def separate(x: Waveform, model, fb: FilterBank, workers: int = 0):
    """Separate a 44.1 kHz mixture; returns one stereo float32 Waveform per source.

    Mono inputs are duplicated to stereo here. `workers` threads run the
    network stage of the segments and the per-source synthesis (0 = one
    per CPU this process may run on); numpy's OpenBLAS is held at one
    thread meanwhile. Output order and values are independent of
    scheduling. Before any work, PipelineError names `workers` that is
    not an int >= 0, `model.out_sources` that is not an int >= 1, a
    declared `model.in_channels` other than 2 x bands, another rate, an
    empty input or samples beyond float32. A failing segment raises
    PipelineError naming its index, start time and stage (stft, forward,
    cirm: output shapes, or istft: a source's decode, where a float32
    overflow or invalid value raises); a forward pass that returns other
    than `model.out_sources` outputs fails in its forward stage.
    """
    if type(workers) is not int or workers < 0:
        raise PipelineError(f"workers must be an int >= 0 (0 = one per CPU), got {workers!r}")
    sources = getattr(model, "out_sources", None)
    if type(sources) is not int or sources < 1:
        raise PipelineError(f"model.out_sources must be an int >= 1, got {sources!r}")
    channels = 2
    streams_in = getattr(model, "in_channels", channels * fb.num_bands)
    if streams_in != channels * fb.num_bands:
        raise PipelineError(
            f"model takes {streams_in} input streams but the {fb.num_bands}-band bank "
            f"gives {channels * fb.num_bands} ({channels} channels x bands)"
        )
    if x.sample_rate != PIPELINE_RATE:
        raise PipelineError(
            f"pipeline requires {PIPELINE_RATE} Hz input, got {x.sample_rate} Hz"
        )
    n = x.num_samples
    if n == 0:
        raise PipelineError("cannot separate an empty signal")
    count = -(-n // SEGMENT_SAMPLES)
    # the only float32 copy, with the filter's delayed tail; a mono row fills both channels
    padded = np.zeros((channels, n + fb.taps), dtype=np.float32)
    try:
        with np.errstate(over="raise"):
            padded[:, :n] = x.samples
    except FloatingPointError:
        raise PipelineError("samples exceed the float32 range (|x| <= 3.4028235e38)") from None
    streams = fbmod.analysis(Waveform(padded, PIPELINE_RATE), fb)
    del padded
    # channel-major [channels * bands, length]: one row per band stream
    streams = streams.reshape(channels * fb.num_bands, -1)
    step = SEGMENT_SAMPLES // fb.num_bands
    bounds = [k * step for k in range(count)] + [streams.shape[1]]
    # one float32 array per source, so each is freed once synthesised
    estimates = [np.empty(streams.shape, np.float32) for _ in range(sources)]

    def network(k):
        stage = "stft"
        try:
            lo, hi = bounds[k], bounds[k + 1]
            mix = spectral.to_magphase(spectral.stft_streams(streams[:, lo:hi]))
            stage = "forward"
            outs = model.forward(mix.magnitude, pool)
            if len(outs) != sources:
                raise ValueError(f"{len(outs)} outputs for out_sources = {sources}")
            # errstate is per thread, so set here; the forward, tiled over threads, is outside
            with np.errstate(over="raise", invalid="raise"):
                for est, out in zip(estimates, outs):
                    stage = "cirm"
                    views = frame_views(mix, out)
                    stage = "istft"
                    spectral.istft(lambda f0, f1: apply_cirm(*views(f0, f1)), est[:, lo:hi])
        except Exception as e:
            raise PipelineError(
                f"segment {k} (from {k * SEGMENT_SAMPLES / PIPELINE_RATE:g} s), {stage}: {e}"
            ) from e

    def synthesize(source):
        bands, estimates[source] = estimates[source], None
        y = fbmod.synthesis(bands.reshape(channels, fb.num_bands, -1), fb, PIPELINE_RATE).samples
        return Waveform(y[:, fb.system_delay : fb.system_delay + n], PIPELINE_RATE)

    threads = workers or _usable_cpus()
    with _ONE_BLAS_THREAD.hold(), ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(network, range(count)))
        del streams  # the band streams are spent before synthesis adds its outputs
        return list(pool.map(synthesize, range(sources)))
