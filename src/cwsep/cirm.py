"""Complex-ratio-mask reconstruction of a source spectrogram.

The network emits four equal-shape tensors: mask logits M, a phase
vector (Pr, Pi), and a magnitude residual Q. The estimated complex
spectrogram is

    mag   = relu(|X| * sigmoid(M) + Q)
    theta = angle of (Pr, Pi), normalized with an eps-stabilized length
    S     = mag * exp(j * angle(X)) * exp(j * theta)

with both rotations applied as products of unit phasors, so the mixture
phase never needs to be unwrapped. Analytic gradients of (re, im)
with respect to all four tensors are provided for verification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .spectral import ComplexSpectrogram, MagPhase

DEFAULT_EPS = 1e-8


@dataclass(frozen=True)
class NetworkOutput:
    """Four same-shape real tensors estimated per source."""

    mask_logits: np.ndarray
    phase_real: np.ndarray
    phase_imag: np.ndarray
    mag_residual: np.ndarray

    def __post_init__(self):
        shape = np.asarray(self.mask_logits).shape
        for name in ("mask_logits", "phase_real", "phase_imag", "mag_residual"):
            t = np.asarray(getattr(self, name))
            if t.shape != shape:
                raise ValueError(f"{name} has shape {t.shape}, expected {shape}")
            if not np.all(np.isfinite(t)):
                raise ValueError(f"{name} contains NaN/Inf")
            object.__setattr__(self, name, t)

    @property
    def shape(self):
        return self.mask_logits.shape


@dataclass(frozen=True)
class CirmGradients:
    mask_logits: np.ndarray
    phase_real: np.ndarray
    phase_imag: np.ndarray
    mag_residual: np.ndarray


def _check_shapes(mix: MagPhase, out: NetworkOutput):
    if out.shape != mix.magnitude.shape:
        raise ValueError(
            f"network output shape {out.shape} != mixture shape {mix.magnitude.shape}"
        )


def _rotation(out: NetworkOutput):
    """Unit phasor of (Pr, Pi) and its eps-stabilized length.

    hypot keeps the length finite for any finite float32 phase vector,
    where squaring overflows once |Pr| or |Pi| exceeds about 1.8e19.
    """
    r = np.hypot(np.hypot(out.phase_real, out.phase_imag), DEFAULT_EPS**0.5)
    return (out.phase_real + 1j * out.phase_imag) / r, r


def apply_cirm(mix: MagPhase, out: NetworkOutput) -> ComplexSpectrogram:
    """Reconstruct the estimated complex spectrogram from mask and phase."""
    _check_shapes(mix, out)
    rot, _ = _rotation(out)
    mag = np.maximum(mix.magnitude * expit(out.mask_logits) + out.mag_residual, 0.0)
    data = mag * mix.phase * rot
    return ComplexSpectrogram(data, win_length=mix.win_length, hop=mix.hop, fft_size=mix.fft_size)


def cirm_gradients(
    mix: MagPhase,
    out: NetworkOutput,
    upstream_re: np.ndarray,
    upstream_im: np.ndarray,
) -> CirmGradients:
    """Vector-Jacobian product of apply_cirm.

    Contracts the given cotangents of (re, im) with the analytic partial
    derivatives w.r.t. M, Pr, Pi, Q. The relu subgradient at exactly
    zero pre-activation is 0.
    """
    _check_shapes(mix, out)

    sig = expit(out.mask_logits)
    pre = mix.magnitude * sig + out.mag_residual
    active = pre > 0
    mag = np.maximum(pre, 0.0)
    rot, r = _rotation(out)
    upstream = upstream_re + 1j * upstream_im

    # magnitude path: cotangent projected on the output phase
    g_mag = np.real(np.conj(upstream) * mix.phase * rot)
    g_mask = g_mag * active * mix.magnitude * sig * (1.0 - sig)
    g_residual = g_mag * active

    # rotation path: cotangent of the unit phasor, whose Jacobian w.r.t.
    # (Pr, Pi) is (I - rot rot^T) / r with the eps term folded into r
    g_rot = mag * upstream * np.conj(mix.phase)
    g_phase = (g_rot - rot * np.real(g_rot * np.conj(rot))) / r

    return CirmGradients(
        mask_logits=g_mask,
        phase_real=g_phase.real,
        phase_imag=g_phase.imag,
        mag_residual=g_residual,
    )


def identity_output(shape, dtype=np.float64) -> NetworkOutput:
    """A NetworkOutput that makes apply_cirm reproduce the mixture.

    sigmoid(40) == 1 to double precision; (Pr, Pi) = (1, 0) is zero
    rotation.
    """
    return NetworkOutput(
        mask_logits=np.full(shape, 40.0, dtype=dtype),
        phase_real=np.ones(shape, dtype=dtype),
        phase_imag=np.zeros(shape, dtype=dtype),
        mag_residual=np.zeros(shape, dtype=dtype),
    )
