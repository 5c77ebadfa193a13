"""Uniform analysis/synthesis filterbank for channel-wise subband processing.

A cosine-modulated (pseudo-QMF) bank is built from a single lowpass
prototype. It starts as a Kaiser-windowed sinc (np.kaiser, beta per band
count in KAISER_BETA) whose cutoff is chosen by the Lin-Vaidyanathan
criterion, then takes a short gradient descent, with the exact gradient,
on the reconstruction error of the full analysis->synthesis cascade. The
cascade of a well-designed N-band/64-tap bank approximates a pure delay
of taps-1 samples.

A FilterBank is just its band count and that prototype, and so is its
JSON: {"num_bands": N, "prototype": [64 coefficients]}. The analysis and
synthesis filters are derived on construction. A bank file in the
earlier format (analysis, synthesis, taps, system_delay) has no
"prototype" and is refused; `cwsep design-filters` makes it again.

Analysis filters each channel and keeps every N-th output sample
starting at phase 0; synthesis inserts N-1 zeros after each band sample
and filters. Both run polyphase, all bands and channels at once: one
matrix product per block of output samples, of the filter taps against
the input samples each output depends on, so no discarded sample or
inserted zero is ever computed. Filtering is causal: the output is
aligned with the start of the full linear convolution. Under this
convention an impulse analyzed through band j yields h_j zero-padded and
decimated by N, and the cascade delay equals taps - 1.

Band streams are plain arrays: analysis takes a Waveform and returns
[channels, bands, ceil(length / N)]; synthesis takes that array and the
output sample rate and returns a Waveform.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import metrics
from .wave_io import Waveform

SUPPORTED_BANDS = (2, 4, 8)
# Filter length of every designed bank: 16- and 32-tap designs are only
# 9.2 / 23.7 dB down outside their bands at 4 bands, 32- and 48-tap ones
# 12.7 / 24.2 dB at 8 bands; 64 taps give 74.5 / 51.3 dB.
TAPS = 64
# Descent budget per band count, the only one. From the Kaiser PQMF start
# the SNR gain flattens within 25-50 steps at 4 and 8 bands, and longer
# descents trade stop band for slow SNR gains. 2 bands get 100 steps so
# that reconstruction SNR still decreases as bands increase (50 steps
# leave 2 bands only 0.5 dB above 4).
DEFAULT_ITERATIONS = {2: 100, 4: 50, 8: 50}
INITIAL_STEP = 1.0
# Kaiser window shape of the initial prototype, per band count. Beta 9 at
# 2 and 4 bands gives Multi-band MelGAN's 4-band PQMF. At 8 bands a larger
# beta buys reconstruction SNR with stop-band level: the designed bank
# reads 85.7 / 24.4 dB at beta 9, 68.2 / 36.2 dB at beta 6 and 61.8 /
# 51.3 dB at beta 5, which takes 15 dB more stop band for 6.4 dB less SNR.
KAISER_BETA = {2: 9.0, 4: 9.0, 8: 5.0}

# Output samples per GEMM block of analysis and synthesis: one stereo
# block of 64-tap windows is 0.5 MB in float32, 1 MB in float64.
_BLOCK = 1024


def _check_bands(num_bands) -> int:
    if (isinstance(num_bands, bool) or not isinstance(num_bands, (int, np.integer))
            or num_bands not in SUPPORTED_BANDS):
        raise ValueError(f"num_bands must be one of {SUPPORTED_BANDS}, got {num_bands!r}")
    return int(num_bands)


@dataclass(frozen=True, eq=False)
class FilterBank:
    """An N-band bank: its band count and its TAPS-tap lowpass prototype.

    analysis and synthesis ([num_bands, TAPS]) are the prototype's cosine
    modulations; the cascade approximates a delay of system_delay samples.
    """

    num_bands: int
    prototype: np.ndarray  # [TAPS]
    analysis: np.ndarray = field(init=False)  # [num_bands, TAPS]
    synthesis: np.ndarray = field(init=False)  # [num_bands, TAPS]
    taps = TAPS
    system_delay = TAPS - 1

    def __post_init__(self):
        n = _check_bands(self.num_bands)
        p = np.asarray(self.prototype, dtype=np.float64)
        if p.shape != (TAPS,):
            raise ValueError(f"prototype must be {TAPS} coefficients, got shape {p.shape}")
        if not np.all(np.isfinite(p)):
            raise ValueError("prototype coefficients must be finite")
        h, g = _modulate(p, n)
        for key, value in (("num_bands", n), ("prototype", p), ("analysis", h), ("synthesis", g)):
            object.__setattr__(self, key, value)

    def to_json(self) -> str:
        return json.dumps({"num_bands": self.num_bands, "prototype": self.prototype.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "FilterBank":
        d = json.loads(text)
        if not isinstance(d, dict):
            raise ValueError(f"filter bank JSON is a {type(d).__name__}, not an object")
        for key in ("num_bands", "prototype"):
            if key not in d:
                raise ValueError(f"filter bank JSON has no {key!r}")
        return cls(d["num_bands"], np.array(d["prototype"], dtype=np.float64))


def _prototype_init(num_bands: int) -> np.ndarray:
    """Kaiser-windowed sinc lowpass with the Lin-Vaidyanathan cutoff.

    The cutoff minimises max over k >= 1 of |r[2Nk]| / r[0], r being the
    prototype's autocorrelation, which vanishes at those lags for an exact
    PQMF prototype (Y.-P. Lin and P. P. Vaidyanathan, IEEE SPL 5(6), 1998).
    A golden-section search finds it on [pi/(4N), 3pi/(4N)], which holds
    one local minimum at every band count and beta tried.
    """
    n = np.arange(TAPS) - (TAPS - 1) / 2  # never 0: TAPS is even
    window = np.kaiser(TAPS, KAISER_BETA[num_bands]) / (np.pi * n)

    def leak(cutoff):
        h = np.sin(cutoff * n) * window
        r = np.correlate(h, h, "full")[TAPS - 1 :: 2 * num_bands]
        return np.max(np.abs(r[1:])) / r[0]

    golden = (np.sqrt(5) - 1) / 2
    lo, hi = np.pi / (4 * num_bands), 3 * np.pi / (4 * num_bands)
    while hi - lo > 1e-9:
        a, b = hi - golden * (hi - lo), lo + golden * (hi - lo)
        if leak(a) < leak(b):
            hi = b
        else:
            lo = a
    return np.sin((lo + hi) / 2 * n) * window


def _modulation_matrices(num_bands: int):
    """Cosine modulation for analysis (CA) and synthesis (CS), [band, tap]."""
    n = np.arange(TAPS)
    mid = (TAPS - 1) / 2
    j = np.arange(1, num_bands + 1)[:, None]
    phase = (2 * j - 1) * np.pi / (2 * num_bands) * (n[None, :] - mid)
    offset = (-1.0) ** j * np.pi / 4
    return 2 * np.cos(phase + offset), 2 * np.cos(phase - offset)


def _modulate(p: np.ndarray, num_bands: int):
    ca, cs = _modulation_matrices(num_bands)
    return p[None, :] * ca, p[None, :] * cs


class _CascadeObjective:
    """Squared error of the cascade impulse responses against delayed impulses.

    The conv->DS_N->US_N->conv cascade is periodically time-varying with
    period N, so one impulse per decimation phase is needed to pin down
    both distortion and aliasing. Responses are evaluated through
    precomputed index maps:

        t_ph[n] = sum_j sum_k h[j, k*N - ph] * g[j, n - k*N]

    which is identical to running the literal filter/decimate/zero-insert/
    filter cascade on a phase-ph unit impulse (unit-tested against that
    oracle). t is bilinear in the gathered taps (p[hi], p[gi]), which
    gives the exact gradient in closed form.
    """

    def __init__(self, num_bands: int):
        N = num_bands
        L = 2 * TAPS + N
        K = (TAPS + N) // N + 1
        k = np.arange(K)
        ph = np.arange(N)[:, None]
        hi = k[None, :] * N - ph
        h_ok = (hi >= 0) & (hi < TAPS)
        hi = np.clip(hi, 0, TAPS - 1)
        n = np.arange(L)[None, :]
        gi = n - k[:, None] * N
        g_ok = (gi >= 0) & (gi < TAPS)
        gi = np.clip(gi, 0, TAPS - 1)

        # zeroed out-of-range taps in the coupling void the clipped gathers
        ca, cs = _modulation_matrices(N)
        a = ca[:, hi] * h_ok[None]  # [band, phase, k]
        g = cs[:, gi] * g_ok[None]  # [band, k, n]
        self._coupling = np.einsum("jpk,jkn->pkn", a, g)
        self._hi, self._gi = hi, gi
        self.target = np.zeros((N, L))
        for p in range(N):
            self.target[p, TAPS - 1 + p] = 1.0

    def responses(self, p: np.ndarray) -> np.ndarray:
        return self._cascade(p)[2]

    def _cascade(self, p: np.ndarray):
        ph, pg = p[self._hi], p[self._gi]
        return ph, pg, np.einsum("pk,kn,pkn->pn", ph, pg, self._coupling)

    def __call__(self, p: np.ndarray):
        """(objective, its exact gradient), from one evaluation of the cascade."""
        ph, pg, t = self._cascade(p)
        d = t - self.target
        err = float(np.dot(d.ravel(), d.ravel()))
        d = 2 * d
        d_ph = np.einsum("pn,kn,pkn->pk", d, pg, self._coupling)
        d_pg = np.einsum("pn,pk,pkn->kn", d, ph, self._coupling)
        return err, np.bincount(self._hi.ravel(), d_ph.ravel(), TAPS) + np.bincount(
            self._gi.ravel(), d_pg.ravel(), TAPS
        )


def design_filterbank(num_bands: int = 4) -> FilterBank:
    """Design a near-perfect-reconstruction cosine-modulated TAPS-tap bank.

    Deterministic: no RNG. The start is _prototype_init's Kaiser PQMF
    prototype, rescaled for unit passband gain; gradient descent then
    refines it with exact gradients over the prototype coefficients, a
    halving/growing step rule from INITIAL_STEP, and the per-band step
    budget from DEFAULT_ITERATIONS.
    """
    num_bands = _check_bands(num_bands)
    objective = _CascadeObjective(num_bands)
    p = _prototype_init(num_bands)

    # cascade response is quadratic in p: rescale for unit passband gain
    t = objective.responses(p)
    scale = np.sum(t * objective.target) / np.sum(t * t)
    p = p * np.sqrt(abs(scale))

    err, grad = objective(p)
    step = INITIAL_STEP
    for _ in range(DEFAULT_ITERATIONS[num_bands]):
        while True:
            p_next = p - step * grad
            err_next, grad_next = objective(p_next)
            if err_next < err or step < 1e-14:
                break
            step *= 0.5
        p, err, grad = p_next, err_next, grad_next
        step *= 1.2

    return FilterBank(num_bands, p)


def _polyphase(weights: np.ndarray, x: np.ndarray, window: int, step: int, out: np.ndarray):
    """out[c, :, m] = weights @ lags(c, m) for every output index m, blockwise.

    lags(c, m) is x[c, ..., step*m - window + 1 : step*m + 1] flattened,
    with zeros for negative indices. Each block of _BLOCK outputs is
    copied from a strided window view into one contiguous lag-major
    buffer (every lag a run of consecutive outputs), so the product is a
    single GEMM per block and the overlapping lags never exist as a
    whole-signal array.
    """
    channels, length = out.shape[0], out.shape[-1]
    buf = np.empty((channels, *x.shape[1:-1], window, min(_BLOCK, length)), dtype=x.dtype)
    for m0 in range(0, length, _BLOCK):
        rows = min(_BLOCK, length - m0)
        lo = step * m0 - window + 1
        seg = x[..., max(lo, 0) : step * (m0 + rows - 1) + 1]
        if lo < 0:
            seg = np.pad(seg, [(0, 0)] * (x.ndim - 1) + [(-lo, 0)])
        lags = sliding_window_view(seg, window, axis=-1)[..., ::step, :]
        block = buf[..., :rows]
        np.copyto(block, lags.swapaxes(-1, -2))
        np.matmul(weights, block.reshape(channels, -1, rows), out=out[..., m0 : m0 + rows])


def analysis(x: Waveform, fb: FilterBank) -> np.ndarray:
    """Split each channel into fb.num_bands decimated band streams.

    Returns [channels, bands, ceil(length / N)] with
    y[c, j, m] = sum_t h[j, t] * x[c, N*m - t]: one blocked GEMM of the
    reversed analysis filters against every N-th length-`taps` window.
    """
    if x.num_samples < fb.taps:
        raise ValueError(f"signal length {x.num_samples} < filter length {fb.taps}")
    dtype = x.samples.dtype if x.samples.dtype in (np.float32, np.float64) else np.float64
    samples = x.samples.astype(dtype, copy=False)
    h = np.ascontiguousarray(fb.analysis[:, ::-1], dtype=dtype)
    sub_len = -(-x.num_samples // fb.num_bands)  # ceil
    out = np.empty((x.num_channels, fb.num_bands, sub_len), dtype=dtype)
    _polyphase(h, samples, fb.taps, fb.num_bands, out)
    return out


def synthesis(bands: np.ndarray, fb: FilterBank, sample_rate: int) -> Waveform:
    """Recombine [channels, bands, length] streams; inverse of analysis up to fb.system_delay.

    out[c, N*m + r] = sum_j sum_i g[j, N*i + r] * s[c, j, m - i]: one
    blocked GEMM of the [N, bands * taps/N] polyphase components of
    the synthesis filters against the lagged band samples, whose N output
    phases interleave into the full-rate signal.
    """
    bands = np.asarray(bands)
    if bands.ndim != 3 or bands.shape[1] != fb.num_bands:
        raise ValueError(
            f"band streams must be [channels, {fb.num_bands}, length], got {bands.shape}"
        )
    N = fb.num_bands
    dtype = bands.dtype if bands.dtype in (np.float32, np.float64) else np.float64
    depth = fb.taps // N  # taps per polyphase component
    # [phase r, band j, lag]: g[j, N*i + r] with the lag axis reversed to
    # match the oldest-first band windows
    g = fb.synthesis.reshape(N, depth, N)[:, ::-1].transpose(2, 0, 1).reshape(N, N * depth)
    channels, _, length = bands.shape
    out = np.empty((channels, length, N), dtype=dtype)
    _polyphase(g.astype(dtype), bands.astype(dtype, copy=False), depth, 1, out.transpose(0, 2, 1))
    return Waveform(out.reshape(channels, N * length), sample_rate)


@dataclass(frozen=True)
class ReconReport:
    snr_db: float
    max_abs_err: float


def measure_reconstruction(fb: FilterBank, probe: Waveform) -> ReconReport:
    """Run the analysis->synthesis cascade and compare against the probe.

    The cascade runs in the probe's dtype, as analysis and synthesis do.
    Its output is advanced by fb.system_delay and `taps` samples are
    trimmed from each edge before computing SNR (metrics.sdr_global, so
    exact reconstruction reads its 300 dB cap) and max abs error.
    """
    energy = float(np.sum(np.asarray(probe.samples, dtype=np.float64) ** 2))
    if energy == 0.0:
        raise ValueError("probe has zero energy")
    if probe.num_samples < 4 * fb.taps:
        raise ValueError(f"probe must be at least {4 * fb.taps} samples long")

    y = synthesis(analysis(probe, fb), fb, probe.sample_rate)

    d = fb.system_delay
    n = min(probe.num_samples - d, y.num_samples - d)
    t = fb.taps
    ref = probe.samples[:, t : n - t].astype(np.float64)
    est = y.samples[:, d + t : d + n - t].astype(np.float64)
    rate = probe.sample_rate
    snr = metrics.sdr_global(Waveform(ref, rate), Waveform(est, rate))
    return ReconReport(snr_db=snr, max_abs_err=float(np.max(np.abs(ref - est))))
