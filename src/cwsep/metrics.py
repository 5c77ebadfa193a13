"""Waveform losses and signal-to-distortion evaluation.

SDR here is the plain energy ratio 10*log10(sum(s^2) / sum((s - s_hat)^2)),
reported both globally and as the median over non-overlapping 1 s frames
(frames with a silent reference are skipped). The full BSS-eval
projection-based decomposition is intentionally not implemented.
"""

from __future__ import annotations

import numpy as np

from .wave_io import Waveform

SDR_CAP_DB = 300.0
SILENCE_ENERGY = 1e-12


class MetricsError(Exception):
    pass


def _check_shapes(a: Waveform, b: Waveform):
    if a.samples.shape != b.samples.shape:
        raise MetricsError(f"shape mismatch: {a.samples.shape} vs {b.samples.shape}")


def l1_loss(a: Waveform, b: Waveform) -> float:
    """Mean absolute samplewise difference over all channels."""
    _check_shapes(a, b)
    return float(np.mean(np.abs(a.samples - b.samples)))


def energy_conservation_loss(mixture: Waveform, estimates) -> float:
    """L1 between the mixture and the sum of the source estimates, in float64."""
    if len(estimates) == 0:
        raise MetricsError("need at least one source estimate")
    total = np.zeros(mixture.samples.shape)
    for est in estimates:
        _check_shapes(mixture, est)
        total = total + est.samples
    return float(np.mean(np.abs(mixture.samples - total)))


def _sdr(ref: np.ndarray, est: np.ndarray) -> float:
    ref_energy = float(np.sum(ref**2))
    err_energy = float(np.sum((ref - est) ** 2))
    if err_energy == 0.0:
        return SDR_CAP_DB
    return float(min(10 * np.log10(ref_energy / err_energy), SDR_CAP_DB))


def sdr_global(reference: Waveform, estimate: Waveform) -> float:
    """Energy-ratio SDR in dB, capped at +300 for exact matches."""
    _check_shapes(reference, estimate)
    ref = np.asarray(reference.samples, dtype=np.float64)
    if float(np.sum(ref**2)) == 0.0:
        raise MetricsError("reference has zero energy")
    return _sdr(ref, np.asarray(estimate.samples, dtype=np.float64))


def _frame_sdrs(reference: Waveform, estimate: Waveform, frame_seconds: float) -> list:
    """SDR of each non-overlapping frame whose reference is not silent."""
    _check_shapes(reference, estimate)
    frame_len = int(round(frame_seconds * reference.sample_rate))
    if reference.num_samples < frame_len:
        raise MetricsError(
            f"signal shorter than one {frame_seconds} s frame ({frame_len} samples)"
        )
    ref = np.asarray(reference.samples, dtype=np.float64)
    est = np.asarray(estimate.samples, dtype=np.float64)
    values = []
    for start in range(0, reference.num_samples - frame_len + 1, frame_len):
        r = ref[:, start : start + frame_len]
        if float(np.sum(r**2)) < SILENCE_ENERGY:
            continue
        values.append(_sdr(r, est[:, start : start + frame_len]))
    if not values:
        raise MetricsError("all frames have a silent reference")
    return values


def sdr_framewise_median(
    reference: Waveform, estimate: Waveform, frame_seconds: float = 1.0
) -> float:
    """Median SDR over non-overlapping frames, skipping silent-reference frames."""
    return float(np.median(_frame_sdrs(reference, estimate, frame_seconds)))


def evaluation_report(
    reference: Waveform, estimate: Waveform, track: str = "", source: str = ""
) -> dict:
    """JSON-ready report with global and framewise-median SDR."""
    sdr = sdr_global(reference, estimate)
    frames = _frame_sdrs(reference, estimate, 1.0)
    return {
        "track": track,
        "source": source,
        "sdr_global_db": sdr,
        "sdr_median_db": float(np.median(frames)),
        "frames_used": len(frames),
    }
