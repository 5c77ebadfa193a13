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
FRAME_SECONDS = 1.0


class MetricsError(Exception):
    pass


def _check_shapes(a: Waveform, b: Waveform):
    if a.samples.shape != b.samples.shape:
        raise MetricsError(f"shape mismatch: {a.samples.shape} vs {b.samples.shape}")
    if a.sample_rate != b.sample_rate:
        raise MetricsError(f"sample rate mismatch: {a.sample_rate} Hz vs {b.sample_rate} Hz")


def energy_conservation_loss(mixture: Waveform, estimates) -> float:
    """L1 between the mixture and the sum of the source estimates, in float64."""
    if len(estimates) == 0:
        raise MetricsError("need at least one source estimate")
    total = np.zeros(mixture.samples.shape)
    for est in estimates:
        _check_shapes(mixture, est)
        total = total + est.samples
    return float(np.mean(np.abs(mixture.samples - total)))


def _energy(a: np.ndarray) -> float:
    return float(np.einsum("ij,ij->", a, a))


def _sdr(ref_energy: float, err_energy: float) -> float:
    if err_energy == 0.0:
        return SDR_CAP_DB
    return float(min(10 * np.log10(ref_energy / err_energy), SDR_CAP_DB))


def _frame_len(w: Waveform) -> int:
    return int(round(FRAME_SECONDS * w.sample_rate))


def _frame_energies(reference: Waveform, estimate: Waveform) -> np.ndarray:
    """[2, blocks]: float64 reference and error energy of each FRAME_SECONDS block.

    The last block takes what is left and may be shorter. Each block is
    cast on its own, so no whole-track float64 copy is made.
    """
    _check_shapes(reference, estimate)
    step = _frame_len(reference)
    starts = range(0, reference.num_samples, step)
    energies = np.empty((2, len(starts)))
    for k, start in enumerate(starts):
        r = reference.samples[:, start : start + step].astype(np.float64)
        energies[0, k] = _energy(r)
        r -= estimate.samples[:, start : start + step]
        energies[1, k] = _energy(r)
    return energies


def _global_sdr(energies: np.ndarray) -> float:
    ref_energy, err_energy = energies.sum(axis=1)
    if ref_energy == 0.0:
        raise MetricsError("reference has zero energy")
    return _sdr(ref_energy, err_energy)


def sdr_global(reference: Waveform, estimate: Waveform) -> float:
    """Energy-ratio SDR in dB, capped at +300 for exact matches."""
    return _global_sdr(_frame_energies(reference, estimate))


def _frame_sdrs(reference: Waveform, energies: np.ndarray) -> list:
    """SDR of each whole FRAME_SECONDS frame whose reference is not silent."""
    frame_len = _frame_len(reference)
    whole = reference.num_samples // frame_len
    if whole == 0:
        raise MetricsError(
            f"signal shorter than one {FRAME_SECONDS} s frame ({frame_len} samples)"
        )
    values = [_sdr(r, e) for r, e in energies[:, :whole].T if r >= SILENCE_ENERGY]
    if not values:
        raise MetricsError("all frames have a silent reference")
    return values


def sdr_framewise_median(reference: Waveform, estimate: Waveform) -> float:
    """Median SDR over non-overlapping frames, skipping silent-reference frames."""
    return float(np.median(_frame_sdrs(reference, _frame_energies(reference, estimate))))


def evaluation_report(
    reference: Waveform, estimate: Waveform, track: str = "", source: str = ""
) -> dict:
    """JSON-ready report with global and framewise-median SDR."""
    energies = _frame_energies(reference, estimate)
    sdr = _global_sdr(energies)
    frames = _frame_sdrs(reference, energies)
    return {
        "track": track,
        "source": source,
        "sdr_global_db": sdr,
        "sdr_median_db": float(np.median(frames)),
        "frames_used": len(frames),
    }
