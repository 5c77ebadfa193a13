"""The benchmark's workloads: seeded inputs, the timed bodies and their output checks.

Inputs are made here from the seed and written as files; the package
only ever sees those files. The bodies take the package's modules as
`cw` so that a traced run calls through the instrumented names.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.io.wavfile as wavfile
from scipy.signal import lfilter

import refnet

RATE = 44100
SEGMENT_SAMPLES = 10 * RATE  # the pipeline's rectangular segment length
TAPS = 64  # the package's default filter length

# Output floors, a few dB under what this code measures, so a defect
# shows as a failed check. The whole-signal SDR of the identity run is
# low (38.5 dB) because of the segment-boundary defect; its floor only
# catches worse breakage, and quality_db reports the value itself.
IDENTITY_WHOLE_FLOOR_DB = 30.0
IDENTITY_INTERIOR_FLOOR_DB = 55.0
RECON_FLOOR_DB = {2: 64.0, 4: 63.0, 8: 55.0}
# float32 network against the float64 reference on a seeded crop
FORWARD_MAX_REL_ERR = 1e-4
FORWARD_CROP = (40, 72)  # frames, bins: neither a multiple of 2**levels


@dataclass(frozen=True)
class Workload:
    name: str
    audio_s: float  # seconds of input audio per command
    bands: int | None  # bank designed in set-up
    preset: str | None  # weights written in set-up


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sep-vocals276", 10.0, 4, "vocals-276"),
        Workload("sep-identity-long", 120.0, 8, None),
        Workload("recon-sweep", 10.0, None, None),
    )
}


def mixture(seed: int, seconds: float) -> np.ndarray:
    """Seeded synthetic stereo mix [2, n] at 0.1 RMS: a vibrato voice,
    a bass line and a low-passed noise bed that never goes silent."""
    rng = np.random.default_rng(seed)
    n = int(round(seconds * RATE))
    t = np.arange(n) / RATE
    f0, vib, rate = rng.uniform(150, 400), rng.uniform(4, 7), rng.uniform(0.1, 0.5)
    phase = 2 * np.pi * np.cumsum(f0 * (1 + 0.01 * np.sin(2 * np.pi * vib * t))) / RATE
    env = 0.2 + 0.8 * np.sin(2 * np.pi * rate * t + rng.uniform(0, 2 * np.pi)) ** 2
    voice = env * sum(np.sin(k * phase) / k for k in range(1, 7))
    fb = rng.uniform(40, 90)
    bass = np.sin(2 * np.pi * fb * t) + 0.5 * np.sin(4 * np.pi * fb * t)
    del t, phase, env
    x = 0.5 * lfilter([0.1], [1, -0.9], rng.standard_normal((2, n)), axis=1)
    pan = rng.uniform(0.3, 0.7, size=2)
    x[0] += pan[0] * voice + (1 - pan[1]) * bass
    x[1] += (1 - pan[0]) * voice + pan[1] * bass
    return x * (0.1 / np.sqrt(np.mean(x**2)))


def prepare(w: Workload, seed: int, work: Path) -> None:
    """Write the workload's seeded input audio into `work`."""
    if w.name == "recon-sweep":
        x = 0.1 * np.random.default_rng(seed).standard_normal((1, int(w.audio_s * RATE)))
        wavfile.write(work / "probe.wav", RATE, x.T.astype(np.float32))
    else:
        wavfile.write(work / "mix.wav", RATE, mixture(seed, w.audio_s).T.astype(np.float32))


def make_model(cw, preset: str, seed: int, rule: dict):
    """init_random(seed) with every weight named *<suffix> scaled by <factor>.

    Plain He init drives the vocals-276 head to about 1e28, which
    overflows float32 in apply_cirm and zeroes the output.
    """
    base = cw.resunet.init_random(cw.resunet.build(cw.resunet.PRESETS[preset]), seed)
    factor = np.float32(rule["factor"])
    params = {
        k: v * factor if k.endswith(rule["suffix"]) else v for k, v in base.params.items()
    }
    return cw.resunet.Model(base.config, params)


# ---- timed bodies: each is one command of the workload ----


def run_vocals(cw, work: Path):
    return cw.cli.main([
        "separate", "--input", str(work / "mix.wav"), "--weights", str(work / "weights.cwsw"),
        "--filters", str(work / "fb.json"), "--sources", "vocals",
        "--out-dir", str(work / "out"), "--residual-instrumental",
    ])


def run_identity(cw, work: Path):
    x = cw.wave_io.read_wav(work / "mix.wav")
    fb = cw.filterbank.FilterBank.from_json((work / "fb.json").read_text())
    est = cw.pipeline.separate(x, cw.pipeline.IdentityModel(out_sources=4), fb, workers=2)
    out = work / "out"
    out.mkdir(exist_ok=True)
    for k, e in enumerate(est):
        cw.wave_io.write_wav(e, out / f"source{k}.wav", format="float32")
    sdr = [(cw.metrics.sdr_global(x, e), cw.metrics.sdr_framewise_median(x, e)) for e in est]
    return x, fb, est, sdr


def run_recon(cw, work: Path):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cw.cli.main([
            "recon-test", "--bands-list", "2,4,8", "--input", str(work / "probe.wav"),
            "--precision", "f32",
        ])
    return rc, buf.getvalue()


BODIES = {
    "sep-vocals276": run_vocals,
    "sep-identity-long": run_identity,
    "recon-sweep": run_recon,
}


# ---- output checks: (quality_db, details, failures) ----


def _sdr_db(ref: np.ndarray, est: np.ndarray) -> float:
    err = float(np.sum((ref - est) ** 2))
    return float(10 * np.log10(float(np.sum(ref**2)) / err)) if err > 0 else float("inf")


def _read(path: Path) -> np.ndarray:
    rate, data = wavfile.read(path)
    if rate != RATE:
        raise ValueError(f"{path.name}: rate {rate}")
    return data.T.astype(np.float64)


def forward_agreement(cw, weights: Path, seed: int):
    """(SNR dB, max relative error) of Model.forward against refnet on a seeded crop."""
    config, params = refnet.read_cwsw(weights)
    shape = (config["in_channels"], *FORWARD_CROP)
    rng = np.random.default_rng(seed)
    mag = np.abs(rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(np.float32)
    model = cw.resunet.model_from_store(cw.resunet.read_store(weights))
    got = np.stack([
        np.stack([o.mask_logits, o.phase_real, o.phase_imag, o.mag_residual])
        for o in model.forward(mag)
    ]).astype(np.float64)
    ref = refnet.forward(config, params, mag.astype(np.float64))
    rel = float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))
    return _sdr_db(ref, got), rel


def check_vocals(cw, work: Path, seed: int, rc):
    failures = []
    if rc != 0:
        return 0.0, {}, [f"separate exited {rc}"]
    mix = _read(work / "mix.wav")
    outs = {name: _read(work / "out" / f"{name}.wav") for name in ("vocals", "instrumental")}
    for name, y in outs.items():
        if y.shape != mix.shape:
            failures.append(f"{name}: shape {y.shape} != input {mix.shape}")
        elif not np.all(np.isfinite(y)):
            failures.append(f"{name}: non-finite samples")
        elif not np.any(y):
            failures.append(f"{name}: all zero")
    if not failures:
        v, i = outs["vocals"], outs["instrumental"]
        resid = float(np.max(np.abs(v + i - mix)))
        if resid > 1e-5 * (1 + np.max(np.abs(v))):
            failures.append(f"vocals + instrumental differs from the mix by {resid:.3e}")
    snr, rel = forward_agreement(cw, work / "weights.cwsw", seed)
    if not rel <= FORWARD_MAX_REL_ERR:
        failures.append(f"forward vs float64 reference: max rel err {rel:.3e}")
    details = {
        "forward_snr_db": snr,
        "forward_max_rel_err": rel,
        "vocals_rms": float(np.sqrt(np.mean(outs["vocals"] ** 2))),
    }
    return snr, details, failures


def interior_mask(n: int, margin: int) -> np.ndarray:
    """Samples at least `margin` away from the signal edges and every segment boundary."""
    keep = np.ones(n, dtype=bool)
    for edge in range(0, n + SEGMENT_SAMPLES, SEGMENT_SAMPLES):
        keep[max(edge - margin, 0) : edge + margin] = False
    keep[max(n - margin, 0) :] = False
    return keep


def check_identity(cw, work: Path, seed: int, outputs):
    x, fb, est, sdr = outputs
    failures = []
    ref = x.samples
    # filter length plus one STFT window at band rate
    keep = interior_mask(ref.shape[1], fb.taps + 512 * fb.num_bands)
    whole, interior = [], []
    for k, (e, (g, _)) in enumerate(zip(est, sdr)):
        y = e.samples
        if y.shape != ref.shape or not np.all(np.isfinite(y)) or not np.any(y):
            failures.append(f"source{k}: bad output (shape {y.shape})")
            continue
        mine = _sdr_db(ref, y)
        if abs(mine - g) > 1e-6 * max(1.0, abs(g)):
            failures.append(f"source{k}: sdr_global {g:.6f} != {mine:.6f}")
        whole.append(g)
        interior.append(_sdr_db(ref[:, keep], y[:, keep]))
    written = _read(work / "out" / "source0.wav")
    if not np.array_equal(written, est[0].samples.astype(np.float32)):
        failures.append("source0.wav differs from the returned estimate")
    if whole and min(whole) < IDENTITY_WHOLE_FLOOR_DB:
        failures.append(f"whole-signal SDR {min(whole):.2f} dB < {IDENTITY_WHOLE_FLOOR_DB}")
    if interior and min(interior) < IDENTITY_INTERIOR_FLOOR_DB:
        failures.append(f"interior SDR {min(interior):.2f} dB < {IDENTITY_INTERIOR_FLOOR_DB}")
    details = {
        "sdr_global_db": min(whole, default=0.0),
        "sdr_median_db": min((m for _, m in sdr), default=0.0),
        "sdr_interior_db": min(interior, default=0.0),
    }
    return min(whole, default=0.0), details, failures


def check_recon(cw, work: Path, seed: int, outputs):
    rc, text = outputs
    if rc != 0:
        return 0.0, {}, [f"recon-test exited {rc}"]
    report = json.loads(text)
    snr = {r["bands"]: r["snr_db"] for r in report["results"]}
    failures = []
    if report["precision"] != "f32" or sorted(snr) != sorted(RECON_FLOOR_DB):
        failures.append(f"unexpected report: {text.strip()[:200]}")
    for bands, floor in RECON_FLOOR_DB.items():
        if not snr.get(bands, 0.0) >= floor:
            failures.append(f"{bands}-band SNR {snr.get(bands)} dB < {floor}")
    details = {f"snr_db.b{b}": v for b, v in sorted(snr.items())}
    return min(snr.values(), default=0.0), details, failures


CHECKS = {
    "sep-vocals276": check_vocals,
    "sep-identity-long": check_identity,
    "recon-sweep": check_recon,
}
