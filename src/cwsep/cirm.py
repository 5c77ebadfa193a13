"""Complex-ratio-mask reconstruction of a source spectrogram.

The network emits four equal-shape tensors: mask logits M, a phase
vector (Pr, Pi), and a magnitude residual Q. The estimated complex
spectrogram is

    mag   = relu(|X| * sigmoid(M) + Q)
    theta = angle of (Pr, Pi), normalized with an eps-stabilized length
    S     = mag * exp(j * angle(X)) * exp(j * theta)

with both rotations as products of unit phasors, so the mixture phase is
never unwrapped; sigmoid is numpy's 1 / (1 + exp(-M)) in M's float dtype.
apply_cirm takes the mixture as spectral.MagPhase and returns S as a
plain complex ndarray shaped like the mixture. Analytic gradients of
(re, im) w.r.t. all four tensors serve verification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import MagPhase

DEFAULT_EPS = 1e-8
_FIELDS = ("mask_logits", "phase_real", "phase_imag", "mag_residual")


@dataclass(frozen=True)
class NetworkOutput:
    """Four same-shape real tensors per source: a network's estimate, or
    (from cirm_gradients) the gradient with respect to each of them."""

    mask_logits: np.ndarray
    phase_real: np.ndarray
    phase_imag: np.ndarray
    mag_residual: np.ndarray

    def __post_init__(self):
        shape = np.asarray(self.mask_logits).shape
        for name in _FIELDS:
            t = np.asarray(getattr(self, name))
            if t.shape != shape:
                raise ValueError(f"{name} has shape {t.shape}, expected {shape}")
            if not np.all(np.isfinite(t)):
                raise ValueError(f"{name} contains NaN/Inf")
            object.__setattr__(self, name, t)

    @property
    def shape(self):
        return self.mask_logits.shape


def _check_shapes(mix: MagPhase, out: NetworkOutput):
    if out.shape != mix.magnitude.shape:
        raise ValueError(
            f"network output shape {out.shape} != mixture shape {mix.magnitude.shape}"
        )


def frame_views(mix: MagPhase, out: NetworkOutput):
    """views(lo, hi) -> (MagPhase, NetworkOutput) views of frames lo:hi, axis 1.

    The shapes are checked here, once for every view, and the views are
    not scanned for NaN/Inf again: `out` was scanned when it was built.
    """
    _check_shapes(mix, out)
    def views(lo, hi):
        part = object.__new__(NetworkOutput)
        for name in _FIELDS:
            object.__setattr__(part, name, getattr(out, name)[:, lo:hi])
        return MagPhase(mix.magnitude[:, lo:hi], mix.phase[:, lo:hi]), part

    return views


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) in x's float dtype and one temporary; overflow gives 0."""
    s = np.negative(x, dtype=np.result_type(x, np.float32))
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    s += 1
    return np.divide(1, s, out=s)


def _rotation(pr: np.ndarray, pi: np.ndarray):
    """Unit phasor of (Pr, Pi) and the inverse of its eps-stabilized length.

    The length is taken of the halved vector: hypot overflows float32
    once |Pr| and |Pi| both come within sqrt(2) of the float32 maximum,
    while half of any finite vector stays in range. Halving is exact, so
    the phasor is unchanged; the inverse length may underflow to a
    subnormal, which is harmless.
    """
    pr, pi = 0.5 * pr, 0.5 * pi
    half = np.hypot(np.hypot(pr, pi), 0.5 * DEFAULT_EPS**0.5)
    return (pr + 1j * pi) / half, 0.5 / half


def apply_cirm(mix: MagPhase, out: NetworkOutput) -> np.ndarray:
    """Reconstruct the estimated complex spectrogram from mask and phase.

    The inverse length 1/sqrt(Pr^2 + Pi^2 + eps) is formed from plain
    squares; only entries whose square overflows take _rotation's
    halved-hypot path. mag * (Pr, Pi) / r is written into the real and
    imaginary parts of the result, which is then rotated in place by the
    mixture phasor.
    """
    _check_shapes(mix, out)
    mag = np.maximum(mix.magnitude * _sigmoid(out.mask_logits) + out.mag_residual, 0.0)
    pr, pi = out.phase_real, out.phase_imag
    with np.errstate(over="ignore"):
        inv = np.square(pr, dtype=np.result_type(pr, pi, np.float32))
        inv += np.square(pi, dtype=inv.dtype)
    inv += DEFAULT_EPS
    huge = np.isinf(inv)
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    data = np.empty(mag.shape, np.result_type(mag, pr, pi, mix.phase, np.complex64))
    # (Pr / r) before mag: both factors stay finite
    for part, p in ((data.real, pr), (data.imag, pi)):
        np.multiply(p, inv, out=part)
        part *= mag
    if huge.any():
        rot, _ = _rotation(pr[huge], pi[huge])
        data[huge] = mag[huge] * rot
    data *= mix.phase
    return data


def cirm_gradients(
    mix: MagPhase,
    out: NetworkOutput,
    upstream_re: np.ndarray,
    upstream_im: np.ndarray,
) -> NetworkOutput:
    """Vector-Jacobian product of apply_cirm, one gradient per NetworkOutput field.

    Contracts the given cotangents of (re, im) with the analytic partial
    derivatives w.r.t. M, Pr, Pi, Q. The relu subgradient at exactly
    zero pre-activation is 0.
    """
    _check_shapes(mix, out)

    sig = _sigmoid(out.mask_logits)
    pre = mix.magnitude * sig + out.mag_residual
    active = pre > 0
    mag = np.maximum(pre, 0.0)
    rot, inv_r = _rotation(out.phase_real, out.phase_imag)
    upstream = upstream_re + 1j * upstream_im

    # magnitude path: cotangent projected on the output phase
    g_mag = np.real(np.conj(upstream) * mix.phase * rot)
    g_mask = g_mag * active * mix.magnitude * sig * (1.0 - sig)
    g_residual = g_mag * active

    # rotation path: cotangent of the unit phasor, whose Jacobian w.r.t.
    # (Pr, Pi) is (I - rot rot^T) / r with the eps term folded into r
    g_rot = mag * upstream * np.conj(mix.phase)
    g_phase = (g_rot - rot * np.real(g_rot * np.conj(rot))) * inv_r

    return NetworkOutput(
        mask_logits=g_mask,
        phase_real=g_phase.real,
        phase_imag=g_phase.imag,
        mag_residual=g_residual,
    )

