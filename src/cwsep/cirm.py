"""Complex-ratio-mask reconstruction of a source spectrogram.

The network emits four equal-shape tensors: mask logits M, a phase
vector (Pr, Pi), and a magnitude residual Q. The estimated complex
spectrogram is

    mag   = relu(|X| * sigmoid(M) + Q)
    theta = angle of (Pr, Pi), normalized with an eps-stabilized length
    S     = mag * exp(j * (angle(X) + theta))

with the rotation applied through the angle-addition identities, so the
mixture phase never needs to be unwrapped. Analytic gradients of (re, im)
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


def apply_cirm(mix: MagPhase, out: NetworkOutput, eps: float = DEFAULT_EPS) -> ComplexSpectrogram:
    """Reconstruct the estimated complex spectrogram from mask and phase."""
    _check_shapes(mix, out)
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")

    r = np.sqrt(out.phase_real**2 + out.phase_imag**2 + eps)
    cos_t = out.phase_real / r
    sin_t = out.phase_imag / r
    mag = np.maximum(mix.magnitude * expit(out.mask_logits) + out.mag_residual, 0.0)

    cos_out = mix.phase_cos * cos_t - mix.phase_sin * sin_t
    sin_out = mix.phase_sin * cos_t + mix.phase_cos * sin_t
    data = mag * (cos_out + 1j * sin_out)
    return ComplexSpectrogram(data, win_length=mix.win_length, hop=mix.hop, fft_size=mix.fft_size)


def cirm_gradients(
    mix: MagPhase,
    out: NetworkOutput,
    upstream_re: np.ndarray,
    upstream_im: np.ndarray,
    eps: float = DEFAULT_EPS,
) -> CirmGradients:
    """Vector-Jacobian product of apply_cirm.

    Contracts the given cotangents of (re, im) with the analytic partial
    derivatives w.r.t. M, Pr, Pi, Q. The relu subgradient at exactly
    zero pre-activation is 0.
    """
    _check_shapes(mix, out)

    sig = expit(out.mask_logits)
    pre = mix.magnitude * sig + out.mag_residual
    active = (pre > 0).astype(pre.dtype)
    mag = np.maximum(pre, 0.0)

    r2 = out.phase_real**2 + out.phase_imag**2 + eps
    r = np.sqrt(r2)
    cos_t = out.phase_real / r
    sin_t = out.phase_imag / r
    cos_out = mix.phase_cos * cos_t - mix.phase_sin * sin_t
    sin_out = mix.phase_sin * cos_t + mix.phase_cos * sin_t

    # magnitude path
    g_mag = upstream_re * cos_out + upstream_im * sin_out
    g_mask = g_mag * active * mix.magnitude * sig * (1.0 - sig)
    g_residual = g_mag * active

    # rotation path
    g_cos_t = mag * (upstream_re * mix.phase_cos + upstream_im * mix.phase_sin)
    g_sin_t = mag * (-upstream_re * mix.phase_sin + upstream_im * mix.phase_cos)
    r3 = r2 * r
    g_pr = g_cos_t * (out.phase_imag**2 + eps) / r3 - g_sin_t * out.phase_real * out.phase_imag / r3
    g_pi = -g_cos_t * out.phase_real * out.phase_imag / r3 + g_sin_t * (out.phase_real**2 + eps) / r3

    return CirmGradients(
        mask_logits=g_mask,
        phase_real=g_pr,
        phase_imag=g_pi,
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
